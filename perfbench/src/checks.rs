//! Output checks. Every measured operation is checked after it is timed;
//! an operation that errors or fails a check counts as failed, and any
//! failure makes the run incorrect.

use embeddings4er::prelude::*;
use std::collections::{HashMap, HashSet};
use std::result::Result;

/// Failure messages a tally keeps; the count covers the rest.
const MAX_MESSAGES: usize = 8;

/// Operations attempted and failed, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    /// Count one operation with its check outcome.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.fail(message);
        }
    }

    /// Count a failure against an operation already attempted.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.keep(std::iter::once(message));
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.keep(other.messages);
    }

    fn keep(&mut self, messages: impl IntoIterator<Item = String>) {
        let room = MAX_MESSAGES.saturating_sub(self.messages.len());
        self.messages.extend(messages.into_iter().take(room));
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Checks on one [`Pipeline::resolve`] result: candidates strictly
/// ascending by `(left, right)` (so sorted and duplicate-free) with finite
/// scores; the matches one-to-one; the reported best δ and matches equal
/// to the sweep's best point.
pub fn check_resolve(outcome: &ResolveOutcome) -> Result<(), String> {
    for pair in outcome.candidates.windows(2) {
        if pair[0].id_pair() >= pair[1].id_pair() {
            return Err(format!(
                "candidates not strictly ascending: {:?} then {:?}",
                pair[0].id_pair(),
                pair[1].id_pair()
            ));
        }
    }
    if let Some(p) = outcome.candidates.iter().find(|p| !p.score.is_finite()) {
        return Err(format!("non-finite score {} on {:?}", p.score, p.id_pair()));
    }
    let mut lefts = HashSet::new();
    let mut rights = HashSet::new();
    for m in &outcome.matches {
        if !lefts.insert(m.left) || !rights.insert(m.right) {
            return Err(format!("matches not one-to-one at {:?}", m.id_pair()));
        }
    }
    let best = outcome.sweep.best().ok_or("empty sweep")?;
    if best.delta.to_bits() != outcome.best_delta.to_bits() {
        return Err(format!(
            "best delta {} differs from the sweep's best {}",
            outcome.best_delta, best.delta
        ));
    }
    if !same_pairs(&best.matches, &outcome.matches) {
        return Err("reported matches differ from the best sweep point's".into());
    }
    Ok(())
}

/// Checks on one query answer: at most `k` hits with finite distances,
/// ordered by `(distance, id)`, no id twice.
pub fn check_hits(hits: &[Hit], k: usize) -> Result<(), String> {
    if hits.len() > k {
        return Err(format!("{} hits for k = {k}", hits.len()));
    }
    if let Some(h) = hits.iter().find(|h| !h.distance.is_finite()) {
        return Err(format!("non-finite distance for id {}", h.id.0));
    }
    for pair in hits.windows(2) {
        let order = pair[0]
            .distance
            .total_cmp(&pair[1].distance)
            .then(pair[0].id.0.cmp(&pair[1].id.0));
        if order.is_gt() {
            return Err(format!(
                "hits out of order: id {} then id {}",
                pair[0].id.0, pair[1].id.0
            ));
        }
    }
    let mut seen = HashSet::new();
    if let Some(h) = hits.iter().find(|h| !seen.insert(h.id)) {
        return Err(format!("id {} returned twice", h.id.0));
    }
    Ok(())
}

/// Quiescent-state checks: the service holds exactly the shadow's live
/// records, and no answer names an id the shadow does not hold.
pub fn check_quiescent<V>(
    resolver_len: usize,
    shadow: &HashMap<u32, V>,
    answers: &[Vec<Hit>],
) -> Result<(), String> {
    if resolver_len != shadow.len() {
        return Err(format!(
            "resolver holds {resolver_len} records, shadow holds {}",
            shadow.len()
        ));
    }
    for hits in answers {
        if let Some(h) = hits.iter().find(|h| !shadow.contains_key(&h.id.0)) {
            return Err(format!("deleted id {} in a probe result", h.id.0));
        }
    }
    Ok(())
}

/// Bitwise equality of two scored pair lists.
pub fn same_pairs(a: &[ScoredPair], b: &[ScoredPair]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.id_pair() == y.id_pair() && x.score.to_bits() == y.score.to_bits())
}

/// Bitwise equality of two hit lists.
pub fn same_hits(a: &[Hit], b: &[Hit]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.id == y.id && x.distance.to_bits() == y.distance.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(l: u32, r: u32, s: f32) -> ScoredPair {
        ScoredPair::new(EntityId(l), EntityId(r), s)
    }

    fn outcome(candidates: Vec<ScoredPair>) -> ResolveOutcome {
        let gt = GroundTruth::clean_clean([(EntityId(0), EntityId(0))]);
        let sweep = ThresholdSweep::run(&candidates, &gt);
        let best = sweep.best().expect("grid is non-empty");
        ResolveOutcome {
            matches: best.matches.clone(),
            best_delta: best.delta,
            candidates,
            sweep,
            report: StageReport::new(),
            report_json: String::new(),
        }
    }

    fn hit(id: u32, d: f32) -> Hit {
        Hit::new(EntityId(id), d)
    }

    #[test]
    fn a_clean_resolve_outcome_passes() {
        let good = outcome(vec![pair(0, 0, 0.9), pair(0, 1, 0.4), pair(1, 1, 0.8)]);
        assert_eq!(check_resolve(&good), Ok(()));
    }

    #[test]
    fn a_planted_duplicate_pair_makes_failed_frac_positive() {
        let mut tally = Tally::default();
        let good = outcome(vec![pair(0, 0, 0.9), pair(1, 1, 0.8)]);
        tally.record(check_resolve(&good));
        assert_eq!(tally.failed_frac(), 0.0);
        let planted = outcome(vec![pair(0, 0, 0.9), pair(0, 0, 0.9), pair(1, 1, 0.8)]);
        tally.record(check_resolve(&planted));
        assert_eq!(tally.failed, 1);
        assert!(tally.failed_frac() > 0.0);
    }

    #[test]
    fn non_finite_scores_unsorted_candidates_and_bad_matches_fail() {
        assert!(check_resolve(&outcome(vec![pair(0, 0, f32::NAN)])).is_err());
        assert!(check_resolve(&outcome(vec![pair(1, 1, 0.9), pair(0, 0, 0.9)])).is_err());
        let mut two_to_one = outcome(vec![pair(0, 0, 0.9), pair(1, 0, 0.8)]);
        two_to_one.matches = vec![pair(0, 0, 0.9), pair(1, 0, 0.8)];
        assert!(check_resolve(&two_to_one).is_err());
        let mut wrong_delta = outcome(vec![pair(0, 0, 0.9)]);
        wrong_delta.best_delta += 0.05;
        assert!(check_resolve(&wrong_delta).is_err());
    }

    #[test]
    fn query_answers_must_be_bounded_sorted_and_unique() {
        assert_eq!(
            check_hits(&[hit(3, 0.1), hit(1, 0.2), hit(2, 0.2)], 3),
            Ok(())
        );
        assert!(check_hits(&[hit(1, 0.1), hit(2, 0.2)], 1).is_err());
        assert!(check_hits(&[hit(1, 0.3), hit(2, 0.2)], 2).is_err());
        assert!(check_hits(&[hit(2, 0.2), hit(1, 0.2)], 2).is_err());
        assert!(check_hits(&[hit(1, 0.2), hit(1, 0.2)], 2).is_err());
        assert!(check_hits(&[hit(1, f32::INFINITY)], 2).is_err());
    }

    #[test]
    fn a_deleted_id_hit_makes_failed_frac_positive() {
        let shadow: HashMap<u32, ()> = [(1, ()), (2, ())].into_iter().collect();
        let mut tally = Tally::default();
        tally.record(check_quiescent(
            2,
            &shadow,
            &[vec![hit(1, 0.1), hit(2, 0.2)]],
        ));
        assert_eq!(tally.failed, 0);
        tally.record(check_quiescent(
            2,
            &shadow,
            &[vec![hit(1, 0.1), hit(9, 0.2)]],
        ));
        tally.record(check_quiescent(3, &shadow, &[]));
        assert_eq!(tally.failed, 2);
        assert!(tally.failed_frac() > 0.0);
    }
}
