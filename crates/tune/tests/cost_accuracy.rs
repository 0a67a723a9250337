//! The cost-estimate accuracy suite: on D1/D3/D7, for both metrics, every
//! backend's estimated distance-evaluation count stays within 25% of the
//! measured `search_counted` totals, and the HNSW build estimate within
//! 25% of the measured construction evaluations.
//!
//! Exact estimates are analytic and must be *exactly* right; HNSW and LSH
//! estimates are model-based (probed anchors / bucket occupancy) and get
//! the full 25% margin. HNSW is deliberately probed with a *subset* of
//! the queries and validated against all of them — the estimator must
//! generalize, not memorize.

use er_core::{
    EmbeddingMatrix, KernelTier, Metric, OperatingPoint, Quantization, QueryParams, ScanConfig,
    SerializationMode,
};
use er_datasets::{CleanCleanDataset, DatasetId};
use er_embed::{LanguageModel, ModelCode, ModelZoo, ZooConfig};
use er_index::{ExactIndex, HnswConfig, HnswIndex, HyperplaneLsh, IndexReader, LshConfig};
use er_tune::{autotune, CostModel, TunerConfig};

const K: usize = 10;
const MARGIN: f64 = 0.25;

fn embed(ds: &CleanCleanDataset) -> (EmbeddingMatrix, EmbeddingMatrix) {
    let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), 42);
    let model = zoo.get(ModelCode::FT);
    (
        to_matrix(model.as_ref(), &ds.left),
        to_matrix(model.as_ref(), &ds.right),
    )
}

fn to_matrix(model: &dyn LanguageModel, entities: &[er_core::Entity]) -> EmbeddingMatrix {
    let mode = SerializationMode::SchemaAgnostic;
    let rows: Vec<er_core::Embedding> = entities
        .iter()
        .map(|e| model.embed(&e.serialize(&mode)))
        .collect();
    EmbeddingMatrix::from_embeddings(&rows)
}

/// The tuner's HNSW build estimate for `rows` (default sweep restricted
/// to `m`) against the measured construction evaluations of a full build.
fn check_build_estimate(
    queries: &EmbeddingMatrix,
    rows: &EmbeddingMatrix,
    metric: Metric,
    label: &str,
) {
    let m = HnswConfig::default().m;
    let tuner = TunerConfig {
        hnsw_ms: vec![m],
        lsh_tables: Vec::new(),
        ..TunerConfig::default()
    };
    let goal = OperatingPoint::recall_target(0.9).metric(metric);
    let outcome = autotune(queries, rows, &goal, &tuner, &CostModel::builtin()).expect("tunes");
    let graph = HnswIndex::from_source(
        rows,
        HnswConfig {
            metric,
            seed: tuner.seed,
            ..HnswConfig::default()
        },
    );
    for trial in outcome
        .trials
        .iter()
        .filter(|t| t.point.backend.name() == "hnsw")
    {
        eprintln!(
            "{label}: build evals estimated {:.0} measured {}",
            trial.est_build_evals,
            graph.build_evals()
        );
        assert_within(
            trial.est_build_evals,
            graph.build_evals() as f64,
            &format!("{label}/hnsw build"),
        );
    }
    // The exact scan builds nothing.
    for trial in outcome
        .trials
        .iter()
        .filter(|t| t.point.backend.name() == "exact")
    {
        assert_eq!(trial.est_build_evals, 0.0, "{label}: exact build");
        assert_eq!(trial.est_build_ns, 0.0, "{label}: exact build");
    }
}

fn assert_within(estimated: f64, measured: f64, label: &str) {
    assert!(
        measured > 0.0,
        "{label}: measured no evaluations — the comparison is vacuous"
    );
    let error = (estimated - measured).abs() / measured;
    assert!(
        error <= MARGIN,
        "{label}: estimated {estimated:.1} vs measured {measured:.1} evals \
         ({:.1}% > {:.0}%)",
        error * 100.0,
        MARGIN * 100.0
    );
}

fn mean_measured(index: &dyn IndexReader, queries: &EmbeddingMatrix, params: &QueryParams) -> f64 {
    let total: u64 = queries
        .rows_iter()
        .map(|q| index.search_counted(q, K, params).1)
        .sum();
    total as f64 / queries.len() as f64
}

/// Every `stride`-th query — the probe sample the estimators are built
/// from (they must generalize to the full query set).
fn probe_sample(queries: &EmbeddingMatrix, stride: usize) -> Vec<&[f32]> {
    (0..queries.len())
        .step_by(stride)
        .map(|i| queries.row(i))
        .collect()
}

fn check_dataset(id: DatasetId) {
    let ds = CleanCleanDataset::generate(id, 42);
    let (queries, rows) = embed(&ds);
    let model = CostModel::builtin();
    let dim = rows.dim();

    for metric in [Metric::Euclidean, Metric::Cosine] {
        let label = |what: &str| format!("{id:?}/{metric:?}/{what}");

        // --- HNSW build: the tuner's estimate vs a measured full build.
        check_build_estimate(&queries, &rows, metric, &label("build"));

        // --- Exact: analytic, must match the counter contract exactly.
        for scan in [
            ScanConfig::default(),
            ScanConfig {
                tier: KernelTier::Lanes,
                quant: Quantization::Int8 { rerank: 4 * K },
            },
        ] {
            let index = ExactIndex::from_source_scan(&rows, metric, scan).expect("builds");
            let measured = mean_measured(&index, &queries, &QueryParams::default());
            let est = model
                .exact(rows.len(), dim, metric, &scan, K)
                .expect("cells");
            assert_within(est.evals, measured, &label("exact"));
            assert_eq!(
                est.evals,
                measured,
                "{}: the analytic exact estimate must be exact",
                label("exact")
            );
        }

        // --- HNSW: probed on a query subset, validated on all queries,
        // including beam widths *between* the probe anchors.
        let hnsw = HnswIndex::from_source(
            &rows,
            HnswConfig {
                metric,
                ..HnswConfig::default()
            },
        );
        let curve = model
            .probe_hnsw(
                &hnsw,
                probe_sample(&queries, 4).into_iter(),
                K,
                &[16, 32, 64, 128],
            )
            .expect("probe");
        for ef in [16usize, 24, 48, 96, 128] {
            let measured = mean_measured(&hnsw, &queries, &QueryParams::with_ef_search(ef));
            assert_within(
                curve.estimate(ef).evals,
                measured,
                &label(&format!("hnsw ef={ef}")),
            );
        }

        // --- LSH: expected-occupancy estimate (a hash-only dry gather on
        // every other query — no distance evaluations) vs the measured
        // full-width evaluations of real searches over all queries.
        let lsh = HyperplaneLsh::from_source(
            &rows,
            LshConfig {
                tables: 16,
                probes: 4,
                metric,
                ..LshConfig::default()
            },
        );
        for (tables, probes) in [(4usize, 2usize), (8, 2), (16, 4)] {
            let params = QueryParams {
                probes: Some(probes),
                tables: Some(tables),
                ef_search: None,
            };
            let measured = mean_measured(&lsh, &queries, &params);
            let est = model
                .lsh(&lsh, probe_sample(&queries, 2).into_iter(), probes, tables)
                .expect("cells");
            assert_within(
                est.evals,
                measured,
                &label(&format!("lsh t={tables} p={probes}")),
            );
            // The occupancy hook bounds the union from above: gathering
            // dedups across tables, raw occupancies do not.
            for q in probe_sample(&queries, 2) {
                let union = lsh.candidates_slice_with(q, probes, tables).len();
                let mass: usize = lsh.probed_occupancy(q, probes, tables).iter().sum();
                assert!(
                    union <= mass,
                    "{}: union {union} > occupancy mass {mass}",
                    label("lsh")
                );
            }
        }
    }
}

#[test]
fn build_estimate_extrapolates_from_the_sample_within_25_percent() {
    // D1–D10 pooled into one ~1,150-row collection: the tuner samples 256
    // rows, so the build estimate is scaled, not measured.
    let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), 42);
    let model = zoo.get(ModelCode::FT);
    let (mut left, mut right) = (Vec::new(), Vec::new());
    for id in DatasetId::ALL {
        let ds = CleanCleanDataset::generate(id, 42);
        left.extend(ds.left);
        right.extend(ds.right);
    }
    let queries = to_matrix(model.as_ref(), &left);
    let rows = to_matrix(model.as_ref(), &right);
    assert!(rows.len() > 4 * TunerConfig::default().sample_rows);
    for metric in [Metric::Euclidean, Metric::Cosine] {
        check_build_estimate(&queries, &rows, metric, &format!("D1-D10/{metric:?}"));
    }
}

#[test]
fn d1_estimates_are_within_25_percent_of_measured_evals() {
    check_dataset(DatasetId::D1);
}

#[test]
fn d3_estimates_are_within_25_percent_of_measured_evals() {
    check_dataset(DatasetId::D3);
}

#[test]
fn d7_estimates_are_within_25_percent_of_measured_evals() {
    check_dataset(DatasetId::D7);
}
