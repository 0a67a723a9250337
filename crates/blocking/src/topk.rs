//! The embedding top-k blocker (DESIGN.md inventory row 12): index one
//! side of a Clean-Clean dataset, query the other with each entity's
//! embedding, and keep every `(query, neighbour)` pair as a candidate —
//! the paper's Fig. 3 blocking recipe (DeepER lineage, §4.3).
//!
//! [`top_k_blocking_scored_matrix`] is the one blocking function. It
//! builds the chosen index *borrowing* the right side's columnar
//! [`EmbeddingMatrix`] (zero-copy), batch-queries it with the left side's
//! rows via [`NnIndex::search_batch_rows`] (fanning out over a
//! scoped-thread worker pool while staying bit-identical to sequential
//! search), and threads each hit's similarity outward as a
//! [`ScoredPair`] — the scored-candidate contract the matchers consume
//! (see [`Metric::hit_similarity`]: cosine scores are bit-identical to
//! `er_matching::similarity::cosine`). An [`OperatingPoint`] becomes a
//! blocking config through [`TopKConfig::from_point`].

use crate::dedup_scored;
use er_core::{BackendParams, EmbeddingMatrix, EntityId, OperatingPoint, ScanConfig, ScoredPair};
use er_index::{ExactIndex, HnswConfig, HnswIndex, HyperplaneLsh, LshConfig, Metric, NnIndex};

/// Which index serves the k-NN queries.
#[derive(Debug, Clone)]
pub enum BlockerBackend {
    /// Brute-force scan under the given metric — exact, O(|left|·|right|),
    /// with no index to build. The default.
    Exact(Metric),
    /// HNSW graph (seed/metric live in the config). Below the crossover
    /// `bench_autotune` measures (about 12,700 rows per side) its build
    /// costs more than the exact scan; use it for larger collections.
    Hnsw(HnswConfig),
    /// Hyperplane LSH with multi-table probing.
    Lsh(LshConfig),
}

impl BlockerBackend {
    /// The metric the backend's index will be built with.
    pub fn metric(&self) -> Metric {
        match self {
            BlockerBackend::Exact(metric) => *metric,
            BlockerBackend::Hnsw(config) => config.metric,
            BlockerBackend::Lsh(config) => config.metric,
        }
    }
}

impl Default for BlockerBackend {
    /// The exact scan under cosine — the paper's blocking setting over raw
    /// embeddings. Blocking builds its index once per call, and below the
    /// measured crossover — about 12,700 rows per side on a 2-vCPU
    /// machine (`BENCH_autotune.json`, DESIGN.md §9) — an HNSW build plus
    /// its queries costs more than the exact scan. For larger collections
    /// pick [`BlockerBackend::Hnsw`] or let `Pipeline::resolve_tuned` /
    /// `er_tune::autotune` choose.
    fn default() -> Self {
        BlockerBackend::Exact(Metric::Cosine)
    }
}

/// Top-k blocking configuration.
///
/// Construct it either as a struct literal or through the builder:
/// `TopKConfig::new(10).backend(BlockerBackend::Exact(Metric::Cosine)).dirty(true)`.
#[derive(Debug, Clone)]
pub struct TopKConfig {
    /// Neighbours kept per query entity (the paper sweeps k ∈ {1, 5, 10}).
    pub k: usize,
    pub backend: BlockerBackend,
    /// Dirty ER: both sides are the same collection, so pairs are
    /// order-normalized and self-pairs dropped (see
    /// [`crate::dedup_scored`]).
    pub dirty: bool,
    /// Kernel tier / quantization for the *Exact* backend's scan (HNSW and
    /// LSH carry their own `tier` in their configs). The default is the
    /// pre-tier behavior: `Reference` kernels, no quantization — candidate
    /// scores stay bit-identical to the seed pipeline.
    pub scan: ScanConfig,
}

impl TopKConfig {
    /// Start a builder with the given `k` and the default backend
    /// (exact/cosine), scan (Reference, unquantized) and dirty flag
    /// (`false`).
    pub fn new(k: usize) -> TopKConfig {
        TopKConfig {
            k,
            ..TopKConfig::default()
        }
    }

    /// Choose the index backend.
    pub fn backend(mut self, backend: BlockerBackend) -> TopKConfig {
        self.backend = backend;
        self
    }

    /// Mark both sides as the same collection (Dirty ER).
    pub fn dirty(mut self, dirty: bool) -> TopKConfig {
        self.dirty = dirty;
        self
    }

    /// Choose the Exact backend's kernel tier / quantization.
    pub fn scan(mut self, scan: ScanConfig) -> TopKConfig {
        self.scan = scan;
        self
    }
}

impl Default for TopKConfig {
    fn default() -> Self {
        TopKConfig {
            k: 10,
            backend: BlockerBackend::default(),
            dirty: false,
            scan: ScanConfig::default(),
        }
    }
}

impl TopKConfig {
    /// Derive a blocking config from a unified [`OperatingPoint`] — the
    /// one conversion from a point to blocking. Validates the point first,
    /// so a self-contradictory configuration (e.g. a quantized scan on an
    /// approximate backend) surfaces as a typed `ErError::Config` instead
    /// of silently misconfiguring a backend. The point's single
    /// `metric`/`scan.tier` feed every backend config, which is what
    /// closes the "two scans disagree" footgun.
    pub fn from_point(point: &OperatingPoint) -> er_core::Result<TopKConfig> {
        point.validate()?;
        let backend = match point.backend {
            BackendParams::Exact => BlockerBackend::Exact(point.metric),
            BackendParams::Hnsw | BackendParams::HnswWith(_) => {
                let p = point.backend.hnsw().expect("hnsw params");
                BlockerBackend::Hnsw(HnswConfig {
                    m: p.m,
                    ef_construction: p.ef_construction,
                    ef_search: p.ef_search,
                    metric: point.metric,
                    seed: p.seed,
                    tier: point.scan.tier,
                })
            }
            BackendParams::Lsh | BackendParams::LshWith(_) => {
                let p = point.backend.lsh().expect("lsh params");
                BlockerBackend::Lsh(LshConfig {
                    planes: p.planes,
                    tables: p.tables,
                    probes: p.probes,
                    metric: point.metric,
                    seed: p.seed,
                    tier: point.scan.tier,
                })
            }
        };
        Ok(TopKConfig {
            k: point.k,
            backend,
            dirty: point.dirty,
            scan: point.scan,
        })
    }
}

/// Run top-k blocking over columnar storage: index `right` (borrowed,
/// zero-copy), batch-query it with every row of `left`, and return the
/// deduplicated candidates, each carrying the similarity the matchers
/// consume, threaded from the index hit via [`Metric::hit_similarity`].
/// For Dirty ER pass the same matrix as both sides with
/// `config.dirty = true`; self-matches are removed by the dedup pass.
///
/// For cosine backends the score is recomputed as
/// `kernels::cosine_prenorm(left row, cached left norm, right row, cached
/// right norm)`, which is bit-identical to
/// `er_matching::similarity::cosine` on the same rows — subtracting the
/// hit distance from 1 instead would drift by an ulp whenever `1 − cos`
/// rounds. Euclidean backends map the (squared) distance monotonically
/// through `1 / (1 + d)`. Either way downstream matchers never touch the
/// vectors again: no re-scoring, no kernel drift.
///
/// Output is deduplicated (order-normalized and self-pair-free when
/// `config.dirty`) and sorted by `(left, right)`; the similarity is
/// symmetric at the bit level, so order normalization never changes a
/// score.
pub fn top_k_blocking_scored_matrix(
    left_ids: &[EntityId],
    left: &EmbeddingMatrix,
    right_ids: &[EntityId],
    right: &EmbeddingMatrix,
    config: &TopKConfig,
) -> Vec<ScoredPair> {
    assert_eq!(left_ids.len(), left.len(), "left ids/vectors differ");
    assert_eq!(right_ids.len(), right.len(), "right ids/vectors differ");
    if left_ids.is_empty() || right_ids.is_empty() || config.k == 0 {
        return Vec::new();
    }
    match &config.backend {
        BlockerBackend::Exact(metric) => query_all(
            // A bad PQ layout (subspaces not dividing the embedding dim) is
            // a construction bug in the caller's config, not a data error.
            &ExactIndex::from_source_scan(right, *metric, config.scan)
                .expect("top-k blocking: scan config failed to build"),
            left_ids,
            left,
            right_ids,
            right,
            config,
        ),
        BlockerBackend::Hnsw(hnsw) => query_all(
            &HnswIndex::from_matrix(right, hnsw.clone()),
            left_ids,
            left,
            right_ids,
            right,
            config,
        ),
        BlockerBackend::Lsh(lsh) => query_all(
            &HyperplaneLsh::from_matrix(right, lsh.clone()),
            left_ids,
            left,
            right_ids,
            right,
            config,
        ),
    }
}

fn query_all<I: NnIndex + Sync>(
    index: &I,
    left_ids: &[EntityId],
    left: &EmbeddingMatrix,
    right_ids: &[EntityId],
    right: &EmbeddingMatrix,
    config: &TopKConfig,
) -> Vec<ScoredPair> {
    let metric = index.metric();
    let hits = index.search_batch_rows(left, config.k);
    let pairs = hits.into_iter().enumerate().flat_map(|(i, neighbours)| {
        let left_row = left.row(i);
        let left_norm = left.norm(i);
        neighbours.into_iter().map(move |n| {
            let score = metric.hit_similarity(
                left_row,
                left_norm,
                right.row(n.index),
                right.norm(n.index),
                n.distance,
            );
            ScoredPair::new(left_ids[i], right_ids[n.index], score)
        })
    });
    dedup_scored(pairs, config.dirty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::{Embedding, HnswParams, LshParams};

    fn ids(n: u32) -> Vec<EntityId> {
        (0..n).map(EntityId).collect()
    }

    /// Two tight clusters far apart: blocking must pair within clusters.
    fn clustered() -> (EmbeddingMatrix, EmbeddingMatrix) {
        let left = [
            Embedding(vec![0.0, 1.0]),
            Embedding(vec![0.1, 1.0]),
            Embedding(vec![10.0, 0.0]),
        ];
        let right = [
            Embedding(vec![0.05, 1.0]),
            Embedding(vec![10.1, 0.1]),
            Embedding(vec![9.9, 0.0]),
        ];
        (
            EmbeddingMatrix::from_embeddings(&left),
            EmbeddingMatrix::from_embeddings(&right),
        )
    }

    /// Block 3 × 3 rows and keep only the id pairs.
    fn id_pairs(
        left: &EmbeddingMatrix,
        right: &EmbeddingMatrix,
        config: &TopKConfig,
    ) -> Vec<(EntityId, EntityId)> {
        top_k_blocking_scored_matrix(&ids(3), left, &ids(3), right, config)
            .iter()
            .map(ScoredPair::id_pair)
            .collect()
    }

    fn euclidean(k: usize) -> TopKConfig {
        TopKConfig::new(k).backend(BlockerBackend::Exact(Metric::Euclidean))
    }

    #[test]
    fn exact_backend_pairs_within_clusters() {
        let (left, right) = clustered();
        assert_eq!(
            id_pairs(&left, &right, &euclidean(1)),
            vec![
                (EntityId(0), EntityId(0)),
                (EntityId(1), EntityId(0)),
                (EntityId(2), EntityId(2)),
            ]
        );
    }

    #[test]
    fn k_bounds_the_candidate_count() {
        let (left, right) = clustered();
        for k in [1usize, 2, 3, 10] {
            assert!(id_pairs(&left, &right, &euclidean(k)).len() <= 3 * k.min(3));
        }
    }

    #[test]
    fn dirty_mode_self_blocks_without_self_pairs() {
        let vectors = EmbeddingMatrix::from_embeddings(&[
            Embedding(vec![0.0, 1.0]),
            Embedding(vec![0.0, 1.01]),
            Embedding(vec![5.0, 0.0]),
            Embedding(vec![5.0, 0.01]),
        ]);
        let ids = ids(4);
        let candidates: Vec<_> =
            top_k_blocking_scored_matrix(&ids, &vectors, &ids, &vectors, &euclidean(2).dirty(true))
                .iter()
                .map(ScoredPair::id_pair)
                .collect();
        assert!(candidates.iter().all(|(a, b)| a < b), "{candidates:?}");
        assert!(candidates.contains(&(EntityId(0), EntityId(1))));
        assert!(candidates.contains(&(EntityId(2), EntityId(3))));
    }

    #[test]
    fn vec_built_indices_block_like_the_matrix_path() {
        // An index built from `Vec<Embedding>` owns a copy of the rows;
        // searching that copy row by row must yield the candidates the
        // blocker finds over the borrowed matrix, on every backend.
        let (left, right) = clustered();
        let vectors = right.to_embeddings();
        let lsh = LshConfig {
            tables: 4,
            ..LshConfig::default()
        };
        let cases: [(BlockerBackend, Box<dyn NnIndex>); 3] = [
            (
                BlockerBackend::Exact(Metric::Cosine),
                Box::new(ExactIndex::with_metric(&vectors, Metric::Cosine)),
            ),
            (
                BlockerBackend::Hnsw(HnswConfig::default()),
                Box::new(HnswIndex::build(&vectors, HnswConfig::default())),
            ),
            (
                BlockerBackend::Lsh(lsh.clone()),
                Box::new(HyperplaneLsh::build(&vectors, lsh)),
            ),
        ];
        for (backend, index) in cases {
            let mut sequential: Vec<_> = (0..left.len())
                .flat_map(|i| {
                    index
                        .search_slice(left.row(i), 2)
                        .into_iter()
                        .map(move |n| (EntityId(i as u32), EntityId(n.index as u32)))
                })
                .collect();
            sequential.sort_unstable();
            sequential.dedup();
            let config = TopKConfig::new(2).backend(backend);
            assert_eq!(
                id_pairs(&left, &right, &config),
                sequential,
                "{:?}",
                config.backend
            );
        }
    }

    #[test]
    fn empty_sides_and_zero_k_yield_no_candidates() {
        let (left, right) = clustered();
        let empty = EmbeddingMatrix::new(2);
        let default = TopKConfig::default();
        assert!(id_pairs(&left, &right, &euclidean(0)).is_empty());
        assert!(top_k_blocking_scored_matrix(&[], &empty, &ids(3), &right, &default).is_empty());
        assert!(top_k_blocking_scored_matrix(&ids(3), &left, &[], &empty, &default).is_empty());
    }

    #[test]
    fn builder_matches_struct_literal_construction() {
        let built = TopKConfig::new(3)
            .backend(BlockerBackend::Exact(Metric::Cosine))
            .dirty(true);
        assert_eq!(built.k, 3);
        assert!(built.dirty);
        assert!(matches!(
            built.backend,
            BlockerBackend::Exact(Metric::Cosine)
        ));
        // Defaults: the exact scan under cosine, clean-clean.
        let defaulted = TopKConfig::new(7);
        assert_eq!(defaulted.k, 7);
        assert!(!defaulted.dirty);
        assert!(matches!(
            defaulted.backend,
            BlockerBackend::Exact(Metric::Cosine)
        ));
        assert_eq!(defaulted.backend.metric(), Metric::Cosine);
        assert_eq!(defaulted.scan, ScanConfig::default());
        // An explicit HNSW point builds like a struct literal too.
        let hnsw = TopKConfig::new(7).backend(BlockerBackend::Hnsw(HnswConfig {
            metric: Metric::Cosine,
            ..HnswConfig::default()
        }));
        assert!(matches!(hnsw.backend, BlockerBackend::Hnsw(ref c) if c.metric == Metric::Cosine));
        assert_eq!(hnsw.backend.metric(), Metric::Cosine);
    }

    #[test]
    fn scored_candidates_are_sorted_unique_and_finite() {
        let (left, right) = clustered();
        for backend in [
            BlockerBackend::Exact(Metric::Cosine),
            BlockerBackend::Exact(Metric::Euclidean),
            BlockerBackend::Hnsw(HnswConfig::default()),
            BlockerBackend::Lsh(LshConfig::default()),
        ] {
            let config = TopKConfig::new(2).backend(backend);
            let scored = top_k_blocking_scored_matrix(&ids(3), &left, &ids(3), &right, &config);
            let pairs: Vec<_> = scored.iter().map(ScoredPair::id_pair).collect();
            let mut canonical = pairs.clone();
            canonical.sort_unstable();
            canonical.dedup();
            assert_eq!(pairs, canonical, "{:?}", config.backend);
            assert!(
                scored.iter().all(|p| p.score.is_finite()),
                "{:?}",
                config.backend
            );
        }
    }

    #[test]
    fn cosine_scores_are_bit_identical_to_the_kernel() {
        let (left_matrix, right_matrix) = clustered();
        let config = TopKConfig::new(3).backend(BlockerBackend::Exact(Metric::Cosine));
        let scored =
            top_k_blocking_scored_matrix(&ids(3), &left_matrix, &ids(3), &right_matrix, &config);
        assert!(!scored.is_empty());
        for p in scored {
            let expected = er_core::kernels::cosine(
                left_matrix.row(p.left.0 as usize),
                right_matrix.row(p.right.0 as usize),
            );
            assert_eq!(p.score.to_bits(), expected.to_bits(), "{p:?}");
        }
    }

    #[test]
    fn operating_point_converts_to_the_equivalent_config() {
        let point = OperatingPoint::default()
            .k(7)
            .metric(Metric::Euclidean)
            .hnsw(HnswParams {
                m: 8,
                ef_search: 32,
                ..HnswParams::default()
            })
            .dirty(true);
        let config = TopKConfig::from_point(&point).unwrap();
        assert_eq!(config.k, 7);
        assert!(config.dirty);
        // Every graph knob of the point reaches the backend config.
        let params = point.backend.hnsw().unwrap();
        match &config.backend {
            BlockerBackend::Hnsw(c) => {
                assert_eq!(c.m, 8);
                assert_eq!(c.ef_search, 32);
                assert_eq!(c.metric, Metric::Euclidean);
                assert_eq!(c.ef_construction, params.ef_construction);
                assert_eq!(c.seed, params.seed);
                assert_eq!(c.tier, point.scan.tier);
            }
            other => panic!("expected HNSW, got {other:?}"),
        }
        assert_eq!(config.backend.metric(), point.metric);
        assert_eq!(config.scan, point.scan);
    }

    #[test]
    fn invalid_operating_point_is_a_typed_config_error() {
        let bad = OperatingPoint::default()
            .hnsw(HnswParams::default())
            .scan(ScanConfig {
                quant: er_core::Quantization::Int8 { rerank: 8 },
                ..ScanConfig::default()
            });
        let err = TopKConfig::from_point(&bad).unwrap_err();
        assert!(matches!(err, er_core::ErError::Config(_)), "{err}");
    }

    #[test]
    fn point_blocking_is_bit_identical_to_the_hand_built_config() {
        let (lm, rm) = clustered();
        let cosine_hnsw = HnswConfig {
            metric: Metric::Cosine,
            ..HnswConfig::default()
        };
        let lsh = LshConfig {
            tables: 4,
            ..LshConfig::default()
        };
        for (point, hand_built) in [
            (OperatingPoint::default().k(2), TopKConfig::new(2)),
            (
                OperatingPoint::default().k(2).hnsw(HnswParams::default()),
                TopKConfig::new(2).backend(BlockerBackend::Hnsw(cosine_hnsw)),
            ),
            (
                OperatingPoint::default().k(2).lsh(LshParams {
                    tables: 4,
                    ..LshParams::default()
                }),
                TopKConfig::new(2).backend(BlockerBackend::Lsh(lsh)),
            ),
        ] {
            let from_point = TopKConfig::from_point(&point).unwrap();
            let via_point = top_k_blocking_scored_matrix(&ids(3), &lm, &ids(3), &rm, &from_point);
            let via_config = top_k_blocking_scored_matrix(&ids(3), &lm, &ids(3), &rm, &hand_built);
            assert_eq!(via_point.len(), via_config.len());
            for (a, b) in via_point.iter().zip(&via_config) {
                assert_eq!(a.id_pair(), b.id_pair());
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
    }

    #[test]
    fn default_point_matches_the_default_config() {
        // The unified default and the config default describe the same run
        // — the exact cosine scan.
        let default_point = OperatingPoint::default();
        assert_eq!(default_point.backend, BackendParams::Exact);
        let from_default_point = TopKConfig::from_point(&default_point).unwrap();
        let default_config = TopKConfig::default();
        assert_eq!(from_default_point.k, default_config.k);
        assert_eq!(from_default_point.dirty, default_config.dirty);
        assert_eq!(from_default_point.scan, default_config.scan);
        assert_eq!(
            format!("{:?}", from_default_point.backend),
            format!("{:?}", default_config.backend)
        );
        // The parameterless HNSW point is the explicit default-HNSW cosine
        // config (`Hnsw` and `HnswWith(defaults)` convert identically).
        let hnsw_config = TopKConfig::default().backend(BlockerBackend::Hnsw(HnswConfig {
            metric: Metric::Cosine,
            ..HnswConfig::default()
        }));
        for backend in [
            BackendParams::Hnsw,
            BackendParams::HnswWith(HnswParams::default()),
        ] {
            let point = OperatingPoint {
                backend,
                ..OperatingPoint::default()
            };
            assert_eq!(
                format!("{:?}", TopKConfig::from_point(&point).unwrap()),
                format!("{hnsw_config:?}")
            );
        }
    }

    #[test]
    fn backends_agree_on_easy_data() {
        let (left, right) = clustered();
        let hnsw = TopKConfig::new(1).backend(BlockerBackend::Hnsw(HnswConfig::default()));
        assert_eq!(
            id_pairs(&left, &right, &euclidean(1)),
            id_pairs(&left, &right, &hnsw)
        );
    }
}
