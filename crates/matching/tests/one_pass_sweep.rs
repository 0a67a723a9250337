//! `ThresholdSweep::run_with` must reproduce the per-δ reference exactly:
//! at every δ, cluster the candidates afresh and score the matches with
//! `Metrics::of_pairs`. UMC computes its whole curve from one clustering
//! run, so the property covers the cases where a one-pass sweep could
//! drift — tied scores, scores exactly on grid values, unsorted and
//! duplicate grids, empty inputs, and Dirty-ER ground truth whose flipped
//! pairs must count once. The other clusterers still run per δ; they are
//! checked against the same oracle.

use er_core::{EntityId, GroundTruth, ScoredPair};
use er_eval::Metrics;
use er_matching::{Clusterer, ThresholdSweep};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const ALL_CLUSTERERS: [Clusterer; 4] = [
    Clusterer::UniqueMapping,
    Clusterer::ConnectedComponents,
    Clusterer::BestMatch,
    Clusterer::Kiraly,
];

/// One point as comparable bits: δ, the matches (ids + score bits) and
/// P/R/F1.
type PointBits = (u32, Vec<(u32, u32, u32)>, [u64; 3]);

fn point_bits(delta: f32, matches: &[ScoredPair], metrics: &Metrics) -> PointBits {
    (
        delta.to_bits(),
        matches
            .iter()
            .map(|p| (p.left.0, p.right.0, p.score.to_bits()))
            .collect(),
        [
            metrics.precision.to_bits(),
            metrics.recall.to_bits(),
            metrics.f1.to_bits(),
        ],
    )
}

fn oracle(
    pairs: &[ScoredPair],
    gt: &GroundTruth,
    clusterer: Clusterer,
    deltas: &[f32],
) -> Vec<PointBits> {
    deltas
        .iter()
        .map(|&delta| {
            let matches = clusterer.cluster(pairs, delta);
            point_bits(delta, &matches, &Metrics::of_pairs(&matches, gt))
        })
        .collect()
}

fn assert_sweep_matches_oracle(
    pairs: &[ScoredPair],
    gt: &GroundTruth,
    clusterer: Clusterer,
    deltas: &[f32],
) {
    let sweep = ThresholdSweep::run_with(pairs, gt, clusterer, deltas);
    assert_eq!(sweep.clusterer, clusterer);
    let got: Vec<PointBits> = sweep
        .points
        .iter()
        .map(|p| point_bits(p.delta, &p.matches, &p.metrics))
        .collect();
    assert_eq!(
        got,
        oracle(pairs, gt, clusterer, deltas),
        "{clusterer:?} sweep diverged from the per-δ oracle over {deltas:?}"
    );
}

/// A random scored candidate list over few ids (so endpoints collide and
/// UMC has to reject pairs), with scores drawn partly from a handful of
/// tied values and from the paper grid itself, so pairs sit exactly on a
/// `score >= δ` cut. Includes both orientations of some pairs (Dirty ER)
/// and exact duplicates.
fn candidates(rng: &mut StdRng) -> Vec<ScoredPair> {
    let grid = ThresholdSweep::paper_deltas();
    let ids = rng.gen_range(1..12u32);
    let n = rng.gen_range(0..60usize);
    let mut pairs: Vec<ScoredPair> = (0..n)
        .map(|_| {
            let score = match rng.gen_range(0..4u32) {
                0 => grid[rng.gen_range(0..grid.len())],
                1 => [0.0f32, -0.0, 0.5, 1.0, -0.25][rng.gen_range(0..5usize)],
                _ => rng.gen_range(-0.2f32..1.0),
            };
            ScoredPair::new(
                EntityId(rng.gen_range(0..ids)),
                EntityId(rng.gen_range(0..ids)),
                score,
            )
        })
        .collect();
    for _ in 0..rng.gen_range(0..4usize) {
        if let Some(&p) = pairs.choose(rng) {
            let flipped = ScoredPair::new(p.right, p.left, p.score);
            pairs.push(if rng.gen_bool(0.5) { flipped } else { p });
        }
    }
    pairs.shuffle(rng);
    pairs
}

fn ground_truth(rng: &mut StdRng, pairs: &[ScoredPair], dirty: bool) -> GroundTruth {
    // Mostly candidate pairs (so matches score), plus a few unseen ones
    // (so recall stays below 1).
    let mut truth: Vec<(EntityId, EntityId)> = pairs
        .iter()
        .filter(|_| rng.gen_bool(0.3))
        .map(|p| (p.left, p.right))
        .collect();
    truth.push((EntityId(100), EntityId(101)));
    if dirty {
        GroundTruth::dirty(truth)
    } else {
        GroundTruth::clean_clean(truth)
    }
}

/// The paper grid, a shuffled copy with duplicates, a random grid that
/// reaches below zero, a single point, and the empty grid.
fn grids(rng: &mut StdRng) -> Vec<Vec<f32>> {
    let paper = ThresholdSweep::paper_deltas();
    let mut shuffled = paper.clone();
    shuffled.extend_from_slice(&paper[3..9]);
    shuffled.shuffle(rng);
    let random: Vec<f32> = (0..rng.gen_range(1..8usize))
        .map(|_| rng.gen_range(-0.3f32..1.2))
        .collect();
    vec![paper, shuffled, random, vec![0.5], Vec::new()]
}

proptest! {
    fn every_clusterer_matches_the_per_delta_oracle(seed in 0..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pairs = candidates(&mut rng);
        for dirty in [false, true] {
            let gt = ground_truth(&mut rng, &pairs, dirty);
            for deltas in grids(&mut rng) {
                for clusterer in ALL_CLUSTERERS {
                    assert_sweep_matches_oracle(&pairs, &gt, clusterer, &deltas);
                }
            }
        }
    }
}

#[test]
fn no_candidates_and_no_ground_truth_stay_on_the_oracle() {
    let paper = ThresholdSweep::paper_deltas();
    let gt = GroundTruth::clean_clean([(EntityId(0), EntityId(0))]);
    for clusterer in ALL_CLUSTERERS {
        for deltas in [paper.as_slice(), &[], &[0.3, 0.3]] {
            assert_sweep_matches_oracle(&[], &gt, clusterer, deltas);
            assert_sweep_matches_oracle(&[], &GroundTruth::default(), clusterer, deltas);
        }
    }
}

#[test]
fn dirty_flipped_pair_counts_once_at_every_delta() {
    // UMC accepts both orientations of (2, 7) — left 2 / right 7, then
    // left 7 / right 2 — but they are one Dirty-ER pair: one tp.
    let pairs = [
        ScoredPair::new(EntityId(2), EntityId(7), 0.9),
        ScoredPair::new(EntityId(7), EntityId(2), 0.8),
        ScoredPair::new(EntityId(3), EntityId(4), 0.6),
    ];
    let gt = GroundTruth::dirty([(EntityId(7), EntityId(2))]);
    let deltas = ThresholdSweep::paper_deltas();
    assert_sweep_matches_oracle(&pairs, &gt, Clusterer::UniqueMapping, &deltas);
    let sweep = ThresholdSweep::run_with(&pairs, &gt, Clusterer::UniqueMapping, &deltas);
    let at_half = &sweep.points[9];
    assert_eq!(at_half.matches.len(), 3);
    assert_eq!(at_half.metrics.recall, 1.0);
    assert_eq!(at_half.metrics.precision, 0.5);
}

#[test]
fn nan_scores_and_nan_deltas_follow_the_oracle() {
    let pairs = [
        ScoredPair::new(EntityId(0), EntityId(0), f32::NAN),
        ScoredPair::new(EntityId(1), EntityId(1), 0.7),
    ];
    let gt = GroundTruth::clean_clean([(EntityId(1), EntityId(1))]);
    for deltas in [
        vec![0.5, f32::NAN, 0.1],
        vec![f32::NAN],
        vec![f32::NAN, 0.9],
    ] {
        for clusterer in ALL_CLUSTERERS {
            assert_sweep_matches_oracle(&pairs, &gt, clusterer, &deltas);
        }
    }
}
