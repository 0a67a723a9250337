//! The default blocking backend is the exact cosine scan: over D1–D10,
//! `Pipeline::resolve` with `ResolveConfig::default()` is bit-identical to
//! an explicit `Exact(Cosine)` + Reference-kernel resolve (candidates,
//! score bits, every sweep point, the matches), and its mean best-F1 and
//! pairs completeness are at least those of an explicit cosine-HNSW
//! resolve — the former default.

use embeddings4er::prelude::*;

fn assert_pairs_bit_identical(a: &[ScoredPair], b: &[ScoredPair], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: lengths differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.id_pair(), y.id_pair(), "{what}");
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "{what}: {x:?} vs {y:?}"
        );
    }
}

#[test]
fn default_resolve_is_the_exact_cosine_scan_and_loses_nothing_to_hnsw() {
    let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), 42);
    let model = zoo.get(ModelCode::FT);
    let pipeline = Pipeline::new(model.as_ref(), SerializationMode::SchemaAgnostic);
    let default_config = ResolveConfig::default();
    let exact_config = ResolveConfig {
        blocking: TopKConfig::new(10)
            .backend(BlockerBackend::Exact(Metric::Cosine))
            .scan(ScanConfig::with_tier(KernelTier::Reference)),
        ..ResolveConfig::default()
    };
    let hnsw_config = ResolveConfig {
        blocking: TopKConfig::new(10).backend(BlockerBackend::Hnsw(HnswConfig {
            metric: Metric::Cosine,
            ..HnswConfig::default()
        })),
        ..ResolveConfig::default()
    };

    let (mut default_f1, mut default_pc) = (0.0, 0.0);
    let (mut hnsw_f1, mut hnsw_pc) = (0.0, 0.0);
    for id in DatasetId::ALL {
        let ds = CleanCleanDataset::generate(id, 42);
        let resolve = |config: &ResolveConfig| {
            pipeline.resolve(&ds.left, &ds.right, &ds.ground_truth, config)
        };
        let default = resolve(&default_config);
        let exact = resolve(&exact_config);
        let hnsw = resolve(&hnsw_config);

        let what = format!("{id:?}");
        assert_pairs_bit_identical(&default.candidates, &exact.candidates, &what);
        assert_eq!(default.sweep.points.len(), exact.sweep.points.len());
        for (p, q) in default.sweep.points.iter().zip(&exact.sweep.points) {
            assert_eq!(p.delta.to_bits(), q.delta.to_bits(), "{what}");
            assert_eq!(p.metrics, q.metrics, "{what}: δ={}", p.delta);
            assert_pairs_bit_identical(&p.matches, &q.matches, &what);
        }
        assert_eq!(default.best_delta.to_bits(), exact.best_delta.to_bits());
        assert_pairs_bit_identical(&default.matches, &exact.matches, &what);

        let best_f1 = |o: &ResolveOutcome| o.sweep.best().expect("paper grid").metrics.f1;
        let completeness = |o: &ResolveOutcome| {
            let pairs: Vec<(EntityId, EntityId)> =
                o.candidates.iter().map(|p| p.id_pair()).collect();
            Metrics::of_candidates(&pairs, &ds.ground_truth).recall
        };
        default_f1 += best_f1(&default);
        default_pc += completeness(&default);
        hnsw_f1 += best_f1(&hnsw);
        hnsw_pc += completeness(&hnsw);
    }
    let n = DatasetId::ALL.len() as f64;
    let (default_f1, default_pc, hnsw_f1, hnsw_pc) =
        (default_f1 / n, default_pc / n, hnsw_f1 / n, hnsw_pc / n);
    eprintln!(
        "D1-D10 means: default best-F1 {default_f1:.4} PC {default_pc:.4}; \
         HNSW best-F1 {hnsw_f1:.4} PC {hnsw_pc:.4}"
    );
    assert!(
        default_f1 >= hnsw_f1,
        "default mean best-F1 {default_f1:.4} below HNSW {hnsw_f1:.4}"
    );
    assert!(
        default_pc >= hnsw_pc,
        "default mean pairs completeness {default_pc:.4} below HNSW {hnsw_pc:.4}"
    );
}
