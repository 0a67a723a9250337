//! Seeded inputs. Everything a workload feeds the library is a pure
//! function of the workload seed: the D1–D10 datasets of the resolve
//! workloads, and the record pools, probe list and writer op stream of
//! `serve-churn`. The model zoo is not an input: it is always pretrained
//! with `er_bench::SEED`, so every run measures the same model.

use embeddings4er::core::rng::derive;
use embeddings4er::prelude::*;
use rand::Rng;
use std::collections::HashMap;

/// D1–D10, generated from `seed`.
pub fn datasets(seed: u64) -> Vec<CleanCleanDataset> {
    DatasetId::ALL
        .iter()
        .map(|&id| CleanCleanDataset::generate(id, seed))
        .collect()
}

/// `count` further D1–D10 generations drawn from `seed`, for figures that
/// are deterministic per dataset and need more data than one generation
/// to be steady across seeds.
pub fn more_datasets(seed: u64, count: usize) -> Vec<CleanCleanDataset> {
    let mut rng = derive(seed, "more-datasets");
    (0..count)
        .flat_map(|_| datasets(rng.gen_range(0..u64::MAX)))
        .collect()
}

/// A record version: the attributes an id currently carries.
pub type Record = Vec<(String, String)>;

/// Where a live id's current record came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The record the id was preloaded with (`preload[id]`).
    Preload,
    /// Writer pool record `i`.
    Pool(usize),
}

/// One reader probe: the entity to query with and, for a near-duplicate
/// of a preloaded record, the id of that record.
#[derive(Debug, Clone)]
pub struct Probe {
    pub entity: Entity,
    pub source: Option<EntityId>,
}

/// One writer operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Replace live `id` with writer pool record `record`.
    Upsert { id: u32, record: usize },
    /// Tombstone live `id`.
    Delete { id: u32 },
    /// Insert `id` (a deleted id coming back, or a fresh one) carrying
    /// writer pool record `record`.
    Insert { id: u32, record: usize },
    /// Fold the journals into a save.
    Checkpoint,
}

/// Writer ops between two checkpoints.
pub const CHECKPOINT_EVERY: usize = 500;

/// Dataset generations pooled for preload, for writer records and for
/// unseen probes respectively.
const PRELOAD_ROUNDS: u64 = 3;
const POOL_ROUNDS: u64 = 2;
const UNSEEN_ROUNDS: u64 = 1;

/// Everything `serve-churn` feeds the resolver.
pub struct ServeInputs {
    /// Preloaded records; record `i` is stored under id `i`.
    pub preload: Vec<Record>,
    /// Records the writer upserts and inserts.
    pub pool: Vec<Record>,
    /// The reader's closed-loop probe list: near-duplicates of preloaded
    /// records interleaved with records never preloaded.
    pub probes: Vec<Probe>,
}

impl ServeInputs {
    pub fn generate(seed: u64) -> ServeInputs {
        let round_base: u64 = derive(seed, "serve-churn-rounds").gen_range(0..u64::MAX);
        let round = |r: u64| datasets(round_base ^ r.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut preload: Vec<Record> = Vec::new();
        let mut near_dups: Vec<Probe> = Vec::new();
        for r in 0..PRELOAD_ROUNDS {
            for ds in round(r) {
                let base = preload.len() as u32;
                preload.extend(ds.left.iter().map(|e| e.attributes.clone()));
                let source_of: HashMap<EntityId, EntityId> =
                    ds.ground_truth.iter().map(|(l, r)| (r, l)).collect();
                for e in &ds.right {
                    if let Some(left) = source_of.get(&e.id) {
                        let id = EntityId(base + left.0);
                        near_dups.push(Probe {
                            entity: Entity::new(id, e.attributes.clone()),
                            source: Some(id),
                        });
                    }
                }
            }
        }
        let mut pool: Vec<Record> = Vec::new();
        for r in PRELOAD_ROUNDS..PRELOAD_ROUNDS + POOL_ROUNDS {
            for ds in round(r) {
                pool.extend(
                    ds.left
                        .iter()
                        .chain(&ds.right)
                        .map(|e| e.attributes.clone()),
                );
            }
        }
        let mut unseen: Vec<Probe> = Vec::new();
        for r in PRELOAD_ROUNDS + POOL_ROUNDS..PRELOAD_ROUNDS + POOL_ROUNDS + UNSEEN_ROUNDS {
            for ds in round(r) {
                unseen.extend(ds.left.iter().map(|e| Probe {
                    entity: Entity::new(EntityId(u32::MAX), e.attributes.clone()),
                    source: None,
                }));
            }
        }
        let mut rng = derive(seed, "serve-churn-probes");
        shuffle(&mut near_dups, &mut rng);
        shuffle(&mut unseen, &mut rng);
        let probes = near_dups
            .into_iter()
            .zip(unseen)
            .flat_map(|(a, b)| [a, b])
            .collect();
        ServeInputs {
            preload,
            pool,
            probes,
        }
    }

    /// The entity stored under `id` when it carries `source`.
    pub fn entity(&self, id: u32, source: Source) -> Entity {
        let record = match source {
            Source::Preload => &self.preload[id as usize],
            Source::Pool(i) => &self.pool[i],
        };
        Entity::new(EntityId(id), record.clone())
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut impl Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// The writer's op stream: an endless, seeded sequence of upserts,
/// deletes and inserts that are always legal against the live set it
/// tracks, with a checkpoint every [`CHECKPOINT_EVERY`] ops. Roughly 40%
/// upserts, 30% deletes and 30% inserts, so the live count random-walks
/// around the preload size while tombstones pile up fast enough to
/// trigger automatic compaction many times a run.
pub struct OpStream {
    rng: embeddings4er::core::rng::DetRng,
    pool_len: usize,
    live: Vec<u32>,
    dead: Vec<u32>,
    next_id: u32,
    emitted: usize,
}

impl OpStream {
    pub fn new(seed: u64, preloaded: usize, pool_len: usize) -> OpStream {
        assert!(preloaded > 0 && pool_len > 0, "op stream needs records");
        OpStream {
            rng: derive(seed, "serve-churn-ops"),
            pool_len,
            live: (0..preloaded as u32).collect(),
            dead: Vec::new(),
            next_id: preloaded as u32,
            emitted: 0,
        }
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        self.emitted += 1;
        if self.emitted.is_multiple_of(CHECKPOINT_EVERY + 1) {
            return Some(Op::Checkpoint);
        }
        let roll = self.rng.gen_range(0..100u32);
        let record = self.rng.gen_range(0..self.pool_len);
        let op = if roll < 40 && !self.live.is_empty() {
            let id = self.live[self.rng.gen_range(0..self.live.len())];
            Op::Upsert { id, record }
        } else if roll < 70 && self.live.len() > 1 {
            let id = self
                .live
                .swap_remove(self.rng.gen_range(0..self.live.len()));
            self.dead.push(id);
            Op::Delete { id }
        } else {
            let id = if !self.dead.is_empty() && self.rng.gen_range(0..2u32) == 0 {
                self.dead
                    .swap_remove(self.rng.gen_range(0..self.dead.len()))
            } else {
                self.next_id += 1;
                self.next_id - 1
            };
            self.live.push(id);
            Op::Insert { id, record }
        };
        Some(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(inputs: &ServeInputs) -> Vec<String> {
        inputs
            .probes
            .iter()
            .map(|p| format!("{:?}{:?}", p.source, p.entity.attributes))
            .chain(inputs.preload.iter().map(|r| format!("{r:?}")))
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_datasets_and_ops() {
        let a: Vec<_> = datasets(5).into_iter().map(|d| format!("{d:?}")).collect();
        let b: Vec<_> = datasets(5).into_iter().map(|d| format!("{d:?}")).collect();
        assert_eq!(a, b);
        assert_eq!(
            format!("{:?}", more_datasets(5, 2)),
            format!("{:?}", more_datasets(5, 2))
        );
        let ops_a: Vec<Op> = OpStream::new(5, 100, 50).take(5_000).collect();
        let ops_b: Vec<Op> = OpStream::new(5, 100, 50).take(5_000).collect();
        assert_eq!(ops_a, ops_b);
        assert_eq!(
            fingerprint(&ServeInputs::generate(5)),
            fingerprint(&ServeInputs::generate(5))
        );
    }

    #[test]
    fn different_seeds_give_different_datasets_and_ops() {
        assert_ne!(format!("{:?}", datasets(5)), format!("{:?}", datasets(6)));
        assert_ne!(
            format!("{:?}", more_datasets(5, 1)),
            format!("{:?}", more_datasets(6, 1))
        );
        assert_ne!(
            format!("{:?}", more_datasets(5, 1)),
            format!("{:?}", datasets(5))
        );
        let ops_a: Vec<Op> = OpStream::new(5, 100, 50).take(200).collect();
        let ops_b: Vec<Op> = OpStream::new(6, 100, 50).take(200).collect();
        assert_ne!(ops_a, ops_b);
        assert_ne!(
            fingerprint(&ServeInputs::generate(5)),
            fingerprint(&ServeInputs::generate(6))
        );
    }

    #[test]
    fn op_stream_is_legal_against_its_live_set() {
        let mut live: std::collections::HashSet<u32> = (0..100).collect();
        let mut checkpoints = 0;
        for op in OpStream::new(9, 100, 50).take(3 * (CHECKPOINT_EVERY + 1)) {
            match op {
                Op::Upsert { id, record } => assert!(live.contains(&id) && record < 50),
                Op::Delete { id } => assert!(live.remove(&id)),
                Op::Insert { id, record } => assert!(live.insert(id) && record < 50),
                Op::Checkpoint => checkpoints += 1,
            }
        }
        assert_eq!(checkpoints, 3);
        assert!(!live.is_empty());
    }

    #[test]
    fn probes_mix_near_duplicates_and_unseen_records() {
        let inputs = ServeInputs::generate(3);
        assert!(inputs.preload.len() > 3_000);
        let near = inputs.probes.iter().filter(|p| p.source.is_some()).count();
        assert!(near > 0 && near * 2 == inputs.probes.len());
        for p in inputs.probes.iter().filter_map(|p| p.source) {
            assert!((p.0 as usize) < inputs.preload.len());
        }
    }
}
