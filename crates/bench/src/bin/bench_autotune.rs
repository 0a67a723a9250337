//! Autotuning benchmark: run the `er-tune` autotuner over D1/D3/D7,
//! emitting the machine-readable `BENCH_autotune.json` snapshot — tuning
//! wall-clock, trials swept, the chosen `OperatingPoint` per dataset, and
//! the chosen point's estimated-vs-measured distance evaluations.
//!
//! The `crossover` section times one build-inclusive blocking call
//! (`top_k_blocking_scored_matrix`, k = 10, cosine) with the exact scan
//! and with default HNSW on n × n FastText rows pooled from concatenated
//! D1–D10 generations, for n from 100 to 16,000, next to the tuner's
//! build-inclusive prediction of both. The prediction takes each trial's
//! query and build terms and divides the query term over the workers the
//! blocker fans queries out to (the build runs on one thread). The
//! section records the size where HNSW starts to win, measured and
//! predicted, and the measured price of an HNSW construction evaluation
//! in scan rows (`graph_eval_factor`, compiled into the cost model as
//! `er_tune::cost::GRAPH_EVAL_FACTOR`).
//!
//! Run from the workspace root
//! (`cargo run --release -p er-bench --bin bench_autotune`); pass a path
//! argument to redirect the JSON (default `BENCH_autotune.json`).
//!
//! `--check <path>` — no tuning: parse an existing snapshot and fail if a
//! dataset is missing, a chosen point is absent, any number is
//! non-positive, the crossover section lacks a size, or the predicted
//! crossover is more than 2× off the measured one, so the committed
//! snapshot cannot silently go stale.

use embeddings4er::prelude::*;
use er_bench::SEED;
use er_core::json::Json;
use er_tune::{CostTier, Trial};
use std::time::Instant;

const DATASETS: [DatasetId; 3] = [DatasetId::D1, DatasetId::D3, DatasetId::D7];
const RECALL_TARGET: f32 = 0.9;
/// Collection sizes of the crossover section: n queries against n rows.
const CROSSOVER_SIZES: [usize; 8] = [100, 250, 500, 1000, 2000, 4000, 8000, 16000];
/// How far the predicted crossover may sit from the measured one.
const CROSSOVER_FACTOR: f64 = 2.0;

/// `--check` mode: verify the committed snapshot is complete — every
/// dataset present with a chosen point, positive wall-clock and trials.
fn check(path: &str) -> std::result::Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let bench = doc
        .expect("bench")
        .and_then(|j| j.as_str().map(str::to_owned))
        .map_err(|e| format!("{path}: {e}"))?;
    if bench != "autotune" {
        return Err(format!("{path}: bench is {bench:?}, expected \"autotune\""));
    }
    let runs = doc
        .expect("datasets")
        .and_then(Json::as_arr)
        .map_err(|e| format!("{path}: {e}"))?;
    let mut seen = Vec::new();
    for run in runs {
        let name = run
            .expect("dataset")
            .and_then(|j| j.as_str().map(str::to_owned))
            .map_err(|e| format!("{path}: dataset name: {e}"))?;
        let wall = run
            .expect("tune_wall_s")
            .and_then(Json::as_f32)
            .map_err(|e| format!("{path}: {name} tune_wall_s: {e}"))?;
        let trials = run
            .expect("trials")
            .and_then(Json::as_usize)
            .map_err(|e| format!("{path}: {name} trials: {e}"))?;
        let measured = run
            .expect("measured_evals_per_query")
            .and_then(Json::as_f32)
            .map_err(|e| format!("{path}: {name} measured evals: {e}"))?;
        if run.get("chosen").is_none() {
            return Err(format!("{path}: {name} has no chosen point"));
        }
        if wall <= 0.0 || trials == 0 || measured <= 0.0 {
            return Err(format!(
                "{path}: {name} has non-positive numbers \
                 (wall={wall}, trials={trials}, measured={measured})"
            ));
        }
        seen.push(name);
    }
    for id in DATASETS {
        let want = format!("{id:?}");
        if !seen.contains(&want) {
            return Err(format!("{path}: missing dataset {want}"));
        }
    }
    check_crossover(&doc).map_err(|e| format!("{path}: crossover: {e}"))
}

/// The crossover half of `--check`: every size present with positive
/// timings and evaluation counts, and the predicted crossover within
/// [`CROSSOVER_FACTOR`] of the measured one.
fn check_crossover(doc: &Json) -> std::result::Result<(), String> {
    let section = doc.expect("crossover").map_err(|e| e.to_string())?;
    let sizes = section
        .expect("sizes")
        .and_then(Json::as_arr)
        .map_err(|e| e.to_string())?;
    let mut seen = Vec::new();
    for size in sizes {
        let n = size
            .expect("n")
            .and_then(Json::as_usize)
            .map_err(|e| e.to_string())?;
        for field in [
            "exact_ms",
            "hnsw_ms",
            "hnsw_build_ms",
            "predicted_exact_ms",
            "predicted_hnsw_ms",
            "hnsw_build_evals",
            "predicted_hnsw_build_evals",
        ] {
            let value = size
                .expect(field)
                .and_then(Json::as_f32)
                .map_err(|e| format!("n={n} {field}: {e}"))?;
            if value <= 0.0 {
                return Err(format!("n={n} {field} is non-positive ({value})"));
            }
        }
        seen.push(n);
    }
    if seen != CROSSOVER_SIZES {
        return Err(format!("sizes {seen:?}, expected {CROSSOVER_SIZES:?}"));
    }
    let crossover_n = |field: &str| -> std::result::Result<Option<f64>, String> {
        match section.expect(field).map_err(|e| e.to_string())? {
            Json::Null => Ok(None),
            value => value
                .as_f32()
                .map(|n| Some(n as f64))
                .map_err(|e| e.to_string()),
        }
    };
    let measured = crossover_n("measured_n")?;
    let predicted = crossover_n("predicted_n")?;
    let largest = *CROSSOVER_SIZES.last().expect("sizes") as f64;
    match (measured, predicted) {
        (None, None) => {}
        // An absent crossover lies somewhere beyond the largest size: the
        // present one must then be near enough for the two to agree.
        (Some(n), None) | (None, Some(n)) => {
            if n * CROSSOVER_FACTOR < largest {
                return Err(format!(
                    "measured {measured:?} and predicted {predicted:?}: one \
                     crossover lies beyond n={largest}, more than \
                     {CROSSOVER_FACTOR}x from the other"
                ));
            }
        }
        (Some(measured), Some(predicted)) => {
            let ratio = predicted / measured;
            if !(1.0 / CROSSOVER_FACTOR..=CROSSOVER_FACTOR).contains(&ratio) {
                return Err(format!(
                    "predicted crossover n={predicted:.0} is {ratio:.2}x the \
                     measured n={measured:.0}"
                ));
            }
        }
    }
    Ok(())
}

/// Where the `hnsw / exact` cost ratio first drops below 1 on `sizes`,
/// interpolated log-log between the bracketing sizes; `None` when HNSW
/// never wins (the crossover lies beyond the largest size).
fn crossover(sizes: &[usize], ratios: &[f64]) -> Option<f64> {
    let first = ratios.iter().position(|&r| r < 1.0)?;
    if first == 0 {
        return Some(sizes[0] as f64);
    }
    let (n0, n1) = ((sizes[first - 1] as f64).ln(), (sizes[first] as f64).ln());
    let (r0, r1) = (ratios[first - 1].ln(), ratios[first].ln());
    Some((n0 + (n1 - n0) * r0 / (r0 - r1)).exp())
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// FastText rows of concatenated D1–D10 generations until both sides
/// hold at least `n` rows: generation `g` is drawn with seed `SEED + g`.
fn pooled_rows(pipeline: &Pipeline, n: usize) -> (EmbeddingMatrix, EmbeddingMatrix) {
    let mut left: Vec<Entity> = Vec::new();
    let mut right: Vec<Entity> = Vec::new();
    let mut generation = 0;
    while left.len() < n || right.len() < n {
        for id in DatasetId::ALL {
            let ds = CleanCleanDataset::generate(id, SEED + generation);
            left.extend(ds.left);
            right.extend(ds.right);
        }
        generation += 1;
    }
    (
        pipeline.vectorize(&left[..n]),
        pipeline.vectorize(&right[..n]),
    )
}

/// The first `n` rows of `matrix`.
fn head(matrix: &EmbeddingMatrix, n: usize) -> EmbeddingMatrix {
    let mut out = EmbeddingMatrix::with_capacity(matrix.dim(), n);
    for row in matrix.rows_iter().take(n) {
        out.push(row);
    }
    out
}

/// The crossover section: measured and predicted cost of one blocking
/// call, exact scan against default cosine HNSW, at every size.
fn crossover_section(pipeline: &Pipeline) -> Json {
    let largest = *CROSSOVER_SIZES.last().expect("sizes");
    let (left_pool, right_pool) = pooled_rows(pipeline, largest);
    let hnsw_config = HnswConfig {
        metric: Metric::Cosine,
        ..HnswConfig::default()
    };
    let exact = TopKConfig::new(10).backend(BlockerBackend::Exact(Metric::Cosine));
    let hnsw = TopKConfig::new(10).backend(BlockerBackend::Hnsw(hnsw_config.clone()));
    // The tuner restricted to the two contenders: the Reference exact scan
    // (always its first trial) and default HNSW.
    let hnsw_params = HnswParams::default();
    let tuner = TunerConfig {
        hnsw_ms: vec![hnsw_params.m],
        ef_grid: vec![hnsw_params.ef_search],
        lsh_tables: Vec::new(),
        ..TunerConfig::default()
    };
    let goal = OperatingPoint::recall_target(RECALL_TARGET).metric(Metric::Cosine);
    let model = CostModel::builtin();
    let scan_ns = model
        .calibration
        .ns_per_row_metric(CostTier::Reference, Metric::Cosine, left_pool.dim())
        .expect("calibrated");
    let workers = std::thread::available_parallelism().map_or(1, |w| w.get());
    let mut rows = Vec::new();
    let mut measured_ratios = Vec::new();
    let mut predicted_ratios = Vec::new();
    let mut eval_factors = Vec::new();
    for n in CROSSOVER_SIZES {
        let left = head(&left_pool, n);
        let right = head(&right_pool, n);
        let ids: Vec<EntityId> = (0..n as u32).map(EntityId).collect();
        // Best of `reps`, the three timings interleaved: the run least
        // disturbed by other load on the machine.
        let reps = if n <= 4000 { 5 } else { 3 };
        let time_ms = |run: &mut dyn FnMut()| {
            let start = Instant::now();
            run();
            start.elapsed().as_secs_f64() * 1e3
        };
        let block_once = |config: &TopKConfig| {
            let pairs = top_k_blocking_scored_matrix(&ids, &left, &ids, &right, config);
            assert!(!pairs.is_empty(), "n={n}: blocking produced no pairs");
        };
        let (mut exact_ms, mut hnsw_ms, mut hnsw_build_ms) = (f64::MAX, f64::MAX, f64::MAX);
        let mut build_evals = 0;
        for _ in 0..reps {
            exact_ms = exact_ms.min(time_ms(&mut || block_once(&exact)));
            hnsw_ms = hnsw_ms.min(time_ms(&mut || block_once(&hnsw)));
            hnsw_build_ms = hnsw_build_ms.min(time_ms(&mut || {
                build_evals = HnswIndex::from_matrix(&right, hnsw_config.clone()).build_evals();
            }));
        }

        let outcome = autotune(&left, &right, &goal, &tuner, &model).expect("tunes");
        let predicted = |backend: &str| {
            outcome
                .trials
                .iter()
                .find(|t| {
                    t.point.backend.name() == backend && t.point.scan == ScanConfig::default()
                })
                .expect("the restricted sweep holds both contenders")
        };
        // A trial prices one query plus its share of the build; one call
        // runs n queries over the workers after one serial build.
        let call_ms = |trial: &Trial| {
            let build_ns = trial.est_build_ns;
            let query_ns = trial.est_ns - build_ns / n as f64;
            (query_ns * n as f64 / workers.min(n) as f64 + build_ns) / 1e6
        };
        let hnsw_trial = predicted("hnsw");
        let predicted_exact_ms = call_ms(predicted("exact"));
        let predicted_hnsw_ms = call_ms(hnsw_trial);
        eval_factors.push(hnsw_build_ms * 1e6 / build_evals as f64 / scan_ns);
        println!(
            "crossover n={n}: exact {exact_ms:.2} ms, hnsw {hnsw_ms:.2} ms \
             (build {hnsw_build_ms:.2} ms, {build_evals} evals); predicted exact \
             {predicted_exact_ms:.2} ms, hnsw {predicted_hnsw_ms:.2} ms (build {:.0} evals)",
            hnsw_trial.est_build_evals
        );
        measured_ratios.push(hnsw_ms / exact_ms);
        predicted_ratios.push(predicted_hnsw_ms / predicted_exact_ms);
        rows.push(Json::Obj(vec![
            ("n".into(), Json::from_usize(n)),
            ("exact_ms".into(), Json::from_f32(exact_ms as f32)),
            ("hnsw_ms".into(), Json::from_f32(hnsw_ms as f32)),
            ("hnsw_build_ms".into(), Json::from_f32(hnsw_build_ms as f32)),
            (
                "predicted_exact_ms".into(),
                Json::from_f32(predicted_exact_ms as f32),
            ),
            (
                "predicted_hnsw_ms".into(),
                Json::from_f32(predicted_hnsw_ms as f32),
            ),
            ("hnsw_build_evals".into(), Json::from_u64(build_evals)),
            (
                "predicted_hnsw_build_evals".into(),
                Json::from_f32(hnsw_trial.est_build_evals as f32),
            ),
        ]));
    }
    let as_json = |n: Option<f64>| n.map_or(Json::Null, |n| Json::from_f32(n as f32));
    let measured = crossover(&CROSSOVER_SIZES, &measured_ratios);
    let predicted = crossover(&CROSSOVER_SIZES, &predicted_ratios);
    let graph_eval_factor = median(eval_factors);
    println!(
        "crossover: measured n={measured:?}, predicted n={predicted:?}, \
         graph eval factor {graph_eval_factor:.2} (model {})",
        er_tune::cost::GRAPH_EVAL_FACTOR
    );
    Json::Obj(vec![
        ("k".into(), Json::from_usize(10)),
        ("metric".into(), Json::from_str_value("cosine")),
        ("workers".into(), Json::from_usize(workers)),
        (
            "graph_eval_factor".into(),
            Json::from_f32(graph_eval_factor as f32),
        ),
        ("sizes".into(), Json::Arr(rows)),
        ("measured_n".into(), as_json(measured)),
        ("predicted_n".into(), as_json(predicted)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--check") {
        let path = args
            .get(1)
            .map(String::as_str)
            .unwrap_or("BENCH_autotune.json");
        match check(path) {
            Ok(()) => {
                println!(
                    "{path}: complete autotune snapshot (all datasets and crossover sizes present)"
                );
                return;
            }
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(1);
            }
        }
    }
    let out_path = args
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_autotune.json".into());
    let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), SEED);
    let model = zoo.get(ModelCode::FT);
    let mode = SerializationMode::SchemaAgnostic;
    let pipeline = Pipeline::new(model.as_ref(), mode);
    let goal = OperatingPoint::recall_target(RECALL_TARGET).metric(Metric::Cosine);
    let tuner = TunerConfig::default();
    let cost_model = CostModel::builtin();

    let mut runs = Vec::new();
    for id in DATASETS {
        let ds = CleanCleanDataset::generate(id, SEED);
        let queries = pipeline.vectorize(&ds.left);
        let rows = pipeline.vectorize(&ds.right);
        let start = Instant::now();
        let outcome = autotune(&queries, &rows, &goal, &tuner, &cost_model).expect("tunes");
        let wall = start.elapsed().as_secs_f64();
        let measured_per_query = measure_point(&queries, &rows, &outcome.chosen)
            .expect("measures")
            .per_query();
        let chosen_trial = outcome.chosen_trial();
        let chosen_json =
            Json::parse(&outcome.chosen.to_json()).expect("canonical point JSON parses");
        println!(
            "{id:?}: {} trials in {wall:.3}s -> {} ({:.1} est / {measured_per_query:.1} measured evals/query)",
            outcome.trials.len(),
            outcome.chosen.to_json(),
            chosen_trial.est_evals,
        );
        runs.push(Json::Obj(vec![
            ("dataset".into(), Json::from_str_value(&format!("{id:?}"))),
            ("tune_wall_s".into(), Json::from_f32(wall as f32)),
            ("trials".into(), Json::from_usize(outcome.trials.len())),
            ("sample_rows".into(), Json::from_usize(outcome.sample_rows)),
            (
                "sample_queries".into(),
                Json::from_usize(outcome.sample_queries),
            ),
            ("chosen".into(), chosen_json),
            ("proxy_recall".into(), Json::from_f32(chosen_trial.recall)),
            (
                "estimated_evals_per_query".into(),
                Json::from_f32(chosen_trial.est_evals as f32),
            ),
            (
                "measured_evals_per_query".into(),
                Json::from_f32(measured_per_query as f32),
            ),
            (
                "estimated_ns_per_query".into(),
                Json::from_f32(chosen_trial.est_ns as f32),
            ),
        ]));
    }

    let crossover = crossover_section(&pipeline);
    let doc = Json::Obj(vec![
        ("bench".into(), Json::from_str_value("autotune")),
        ("seed".into(), Json::from_u64(SEED)),
        ("recall_target".into(), Json::from_f32(RECALL_TARGET)),
        ("datasets".into(), Json::Arr(runs)),
        ("crossover".into(), crossover),
    ]);
    std::fs::write(&out_path, format!("{doc}\n")).expect("write snapshot");
    println!("wrote {out_path}");
}
