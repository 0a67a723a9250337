//! `resolve-ft` and `resolve-bt`: repeated passes of [`Pipeline::resolve`]
//! over D1–D10 with the library defaults.
//!
//! The untraced run times each call and each pass. The traced run first
//! repeats the untraced loop for a third of its time, then traces passes
//! in which every call is made twice: once through `Pipeline::resolve`
//! (the reference, inside one span) and once decomposed into the public
//! calls of each layer on the same inputs, which must reproduce the
//! reference's candidates, sweep and matches bit for bit.

use crate::checks::{check_resolve, same_pairs, Tally};
use crate::inputs;
use crate::stats::median;
use crate::trace::{self, Tracer};
use crate::{Measured, Outcome, SETUP_REPS};
use embeddings4er::blocking::dedup_scored;
use embeddings4er::prelude::*;
use std::result::Result;
use std::time::{Duration, Instant};

/// Passes a run makes at least, whatever its length: twenty passes give
/// the median pass ten samples beyond it and 200 calls give p95 the same.
const MIN_PASSES: usize = 20;
/// Traced passes a traced run makes at least.
const MIN_TRACED_PASSES: usize = 3;
/// Calls beyond this wall-clock time stop a run whatever its sample
/// counts, so a run always ends in time; missing percentiles then fail it.
const HARD_LIMIT: Duration = Duration::from_secs(140);

/// D1–D10 generations scored for `quality` and `recall`, the timed one
/// included. Both are deterministic per dataset; across seeds the mean
/// over one generation spread by 5% with BT, and averaging over eight
/// narrows that without timing more passes.
const SCORED_GENERATIONS: usize = 8;

struct Setup {
    zoo: ModelZoo,
    datasets: Vec<CleanCleanDataset>,
    /// The untimed generations of [`SCORED_GENERATIONS`].
    scored_only: Vec<CleanCleanDataset>,
    setup_s: f64,
}

fn setup(seed: u64) -> Setup {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let zoo = ModelZoo::pretrain(None, &ZooConfig::fast(), er_bench::SEED);
        let datasets = inputs::datasets(seed);
        let scored_only = inputs::more_datasets(seed, SCORED_GENERATIONS - 1);
        times.push(start.elapsed().as_secs_f64());
        last = Some((zoo, datasets, scored_only));
    }
    let (zoo, datasets, scored_only) = last.expect("at least one set-up");
    Setup {
        zoo,
        datasets,
        scored_only,
        setup_s: median(&times),
    }
}

/// What one dataset resolves to on the first pass; every later pass must
/// reproduce it.
struct Reference {
    best_f1: f64,
    pairs_completeness: f64,
}

fn reference_of(ds: &CleanCleanDataset, out: &ResolveOutcome) -> Reference {
    let pairs: Vec<(EntityId, EntityId)> = out.candidates.iter().map(|p| p.id_pair()).collect();
    Reference {
        best_f1: out.sweep.best().map_or(0.0, |p| p.metrics.f1),
        pairs_completeness: Metrics::of_candidates(&pairs, &ds.ground_truth).recall,
    }
}

fn check_against(out: &ResolveOutcome, reference: &Reference) -> Result<(), String> {
    check_resolve(out)?;
    let f1 = out.sweep.best().map_or(0.0, |p| p.metrics.f1);
    if f1.to_bits() != reference.best_f1.to_bits() {
        return Err(format!(
            "best F1 {f1} differs from the first pass's {}",
            reference.best_f1
        ));
    }
    Ok(())
}

/// Untimed-call samples of one loop of passes.
#[derive(Default)]
struct Loop {
    call_ms: Vec<f64>,
    pass_s: Vec<f64>,
}

fn run_passes(
    pipeline: &Pipeline,
    datasets: &[CleanCleanDataset],
    references: &[Reference],
    until: Instant,
    min_passes: usize,
    hard_stop: Instant,
    tally: &mut Tally,
) -> Loop {
    let config = ResolveConfig::default();
    let mut samples = Loop::default();
    while (Instant::now() < until || samples.pass_s.len() < min_passes)
        && Instant::now() < hard_stop
    {
        let mut pass = 0.0;
        for (ds, reference) in datasets.iter().zip(references) {
            let start = Instant::now();
            let out = pipeline.resolve(&ds.left, &ds.right, &ds.ground_truth, &config);
            let elapsed = start.elapsed().as_secs_f64();
            pass += elapsed;
            samples.call_ms.push(elapsed * 1e3);
            tally.record(check_against(&out, reference));
        }
        samples.pass_s.push(pass);
    }
    samples
}

pub fn run(code: ModelCode, seed: u64, seconds: u64, traced: bool) -> Outcome {
    let started = Instant::now();
    let hard_stop = started + HARD_LIMIT;
    let Setup {
        zoo,
        datasets,
        scored_only,
        setup_s,
    } = setup(seed);
    let model = zoo.get(code).as_ref();
    let mode = SerializationMode::SchemaAgnostic;
    let pipeline = Pipeline::new(model, mode.clone());
    let records: usize = datasets.iter().map(|d| d.left.len() + d.right.len()).sum();

    // Warm-up: fills caches, fixes the per-dataset reference of the timed
    // generation and scores the untimed ones.
    let config = ResolveConfig::default();
    let mut tally = Tally::default();
    let mut score = |ds: &CleanCleanDataset| {
        let out = pipeline.resolve(&ds.left, &ds.right, &ds.ground_truth, &config);
        tally.record(check_resolve(&out));
        reference_of(ds, &out)
    };
    let references: Vec<Reference> = datasets.iter().map(&mut score).collect();
    let scored: Vec<Reference> = scored_only.iter().map(&mut score).collect();
    let scored: Vec<&Reference> = references.iter().chain(&scored).collect();

    let measure_start = Instant::now();
    let window = Duration::from_secs(seconds);
    let mut outcome = Outcome::new(tally);
    outcome.meta(
        "zoo_scale",
        format!("{} (seed {})", zoo.scale(), er_bench::SEED),
    );
    outcome.meta("model", code.to_string());
    outcome.meta("records_per_pass", records.to_string());
    outcome.meta("setup_reps", SETUP_REPS.to_string());
    if !traced {
        let samples = run_passes(
            &pipeline,
            &datasets,
            &references,
            measure_start + window,
            MIN_PASSES,
            hard_stop,
            &mut outcome.tally,
        );
        let per_s: Vec<f64> = samples.pass_s.iter().map(|s| records as f64 / s).collect();
        let n = scored.len() as f64;
        outcome.meta("passes", samples.pass_s.len().to_string());
        outcome.meta("calls", samples.call_ms.len().to_string());
        outcome.push(Measured::value("setup_s", setup_s, SETUP_REPS));
        outcome.push(Measured::p("records_per_s", &per_s, 50));
        outcome.push(Measured::p("latency_ms_p50", &samples.call_ms, 50));
        outcome.push(Measured::p("latency_ms_tail", &samples.call_ms, 95));
        outcome.push(Measured::value(
            "quality",
            scored.iter().map(|r| r.best_f1).sum::<f64>() / n,
            scored.len(),
        ));
        outcome.push(Measured::value(
            "recall",
            scored.iter().map(|r| r.pairs_completeness).sum::<f64>() / n,
            scored.len(),
        ));
        return outcome;
    }

    // Traced run: an untraced third, then traced passes.
    let untraced = run_passes(
        &pipeline,
        &datasets,
        &references,
        measure_start + window / 3,
        0,
        hard_stop,
        &mut outcome.tally,
    );
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let mut passes: Vec<std::ops::Range<usize>> = Vec::new();
    let mut request = 0u64;
    while (Instant::now() < measure_start + window || passes.len() < MIN_TRACED_PASSES)
        && Instant::now() < hard_stop
    {
        let mark = tracer.mark();
        for (ds, reference) in datasets.iter().zip(&references) {
            tracer.set_request(request);
            request += 1;
            let checked = traced_call(&mut tracer, model, &mode, ds, &config)
                .and_then(|out| check_against(&out, reference));
            outcome.tally.record(checked);
        }
        passes.push(mark..tracer.mark());
    }
    outcome.meta("untraced_calls", untraced.call_ms.len().to_string());
    outcome.meta("traced_passes", passes.len().to_string());
    let spans = tracer.spans();
    let self_ns = trace::self_times(spans);
    let per_pass: Vec<PassLayers> = passes
        .into_iter()
        .map(|range| PassLayers::of(&spans[range.clone()], &self_ns[range]))
        .collect();
    let traced_calls = trace::durations(spans, "pipeline.resolve");
    let column = |f: fn(&PassLayers) -> f64| median(&per_pass.iter().map(f).collect::<Vec<_>>());
    let (forward_ns, rows) = trace::totals(spans, "embed.forward");
    let (serialize_ns, _) = trace::totals(spans, "embed.serialize");
    let (query_ns, evals) = trace::totals(spans, "index.query");
    let queries = trace::durations(spans, "index.query");
    let query_us: Vec<f64> = queries.iter().map(|ns| ns / 1e3).collect();
    let (_, candidates) = trace::totals(spans, "blocking.block");
    let (_, true_pairs) = trace::totals(spans, "blocking.decomposed");
    let traced_passes = per_pass.len();
    outcome.push(Measured::value(
        "embed.forward_us_per_row",
        forward_ns as f64 / rows as f64 / 1e3,
        rows as usize,
    ));
    outcome.push(Measured::value(
        "embed.serialize_us_per_row",
        serialize_ns as f64 / rows as f64 / 1e3,
        rows as usize,
    ));
    outcome.push(Measured::value("embed.rows", rows as f64, 1));
    outcome.push(Measured::value(
        "pipeline.vectorize_ms",
        column(|p| p.vectorize_ms),
        traced_passes,
    ));
    outcome.push(Measured::value(
        "index.build_ms",
        column(|p| p.build_ms),
        traced_passes,
    ));
    outcome.push(Measured::p("index.query_us_p50", &query_us, 50));
    outcome.push(Measured::value(
        "index.evals_per_query",
        evals as f64 / queries.len() as f64,
        queries.len(),
    ));
    outcome.push(Measured::value(
        "index.ns_per_eval",
        query_ns as f64 / evals as f64,
        queries.len(),
    ));
    outcome.push(Measured::value(
        "blocking.block_ms",
        column(|p| p.block_ms),
        traced_passes,
    ));
    outcome.push(Measured::value(
        "blocking.dedup_ms",
        column(|p| p.dedup_ms),
        traced_passes,
    ));
    outcome.push(Measured::value(
        "blocking.candidates",
        column(|p| p.candidates),
        traced_passes,
    ));
    outcome.push(Measured::value(
        "blocking.pair_quality",
        true_pairs as f64 / candidates as f64,
        traced_passes,
    ));
    outcome.push(Measured::value(
        "matching.sweep_ms",
        column(|p| p.sweep_ms),
        traced_passes,
    ));
    outcome.push(Measured::value(
        "matching.sweep_points",
        column(|p| p.sweep_points),
        traced_passes,
    ));
    outcome.push(Measured::value(
        "matching.match_ms",
        column(|p| p.match_ms),
        traced_passes,
    ));
    outcome.push(Measured::value(
        "matching.matches",
        column(|p| p.matches),
        traced_passes,
    ));
    outcome.push(Measured::overhead(
        &traced_calls,
        &untraced
            .call_ms
            .iter()
            .map(|ms| ms * 1e6)
            .collect::<Vec<_>>(),
    ));
    outcome.spans = Some(tracer);
    outcome
}

/// One traced pass's per-layer totals, summed over D1–D10.
struct PassLayers {
    vectorize_ms: f64,
    build_ms: f64,
    block_ms: f64,
    dedup_ms: f64,
    candidates: f64,
    sweep_ms: f64,
    sweep_points: f64,
    match_ms: f64,
    matches: f64,
}

impl PassLayers {
    /// Totals over one pass's spans, given their self times.
    fn of(spans: &[trace::Span], self_ns: &[u64]) -> PassLayers {
        let ms = |name| trace::totals(spans, name).0 as f64 / 1e6;
        let items = |name| trace::totals(spans, name).1 as f64;
        PassLayers {
            vectorize_ms: ms("pipeline.vectorize"),
            build_ms: ms("index.build"),
            block_ms: ms("blocking.block"),
            dedup_ms: spans
                .iter()
                .zip(self_ns)
                .filter(|(s, _)| s.name == "blocking.decomposed")
                .map(|(_, &ns)| ns as f64 / 1e6)
                .sum(),
            candidates: items("blocking.block"),
            sweep_ms: ms("matching.sweep"),
            sweep_points: items("matching.sweep"),
            match_ms: ms("matching.match"),
            matches: items("matching.match"),
        }
    }
}

/// One D-dataset call, traced: the reference `Pipeline::resolve`, then the
/// same work through each layer's public calls, checked bit for bit
/// against the reference. Returns the reference for the output checks.
fn traced_call(
    t: &mut Tracer,
    model: &dyn LanguageModel,
    mode: &SerializationMode,
    ds: &CleanCleanDataset,
    config: &ResolveConfig,
) -> Result<ResolveOutcome, String> {
    let reference = t.span("pipeline.resolve", |t| {
        let out = Pipeline::new(model, mode.clone()).resolve(
            &ds.left,
            &ds.right,
            &ds.ground_truth,
            config,
        );
        t.set_items(out.candidates.len() as u64);
        out
    });
    let left = t.span("pipeline.vectorize", |t| {
        t.set_items(ds.left.len() as u64);
        vectorize_matrix(model, &ds.left, mode)
    });
    let right = t.span("pipeline.vectorize", |t| {
        t.set_items(ds.right.len() as u64);
        vectorize_matrix(model, &ds.right, mode)
    });
    t.span("embed.rows", |t| {
        let mut row = vec![0.0f32; model.dim()];
        for (entities, matrix) in [(&ds.left, &left), (&ds.right, &right)] {
            for (i, entity) in entities.iter().enumerate() {
                let text = t.span("embed.serialize", |t| {
                    t.set_items(1);
                    entity.serialize(mode)
                });
                t.span("embed.forward", |t| {
                    t.set_items(1);
                    model.embed_into(&text, &mut row)
                });
                if !bits_equal(&row, matrix.row(i)) {
                    return Err(format!("{}: row {i} differs from vectorize_matrix", ds.id));
                }
            }
        }
        Ok(())
    })?;
    let left_ids: Vec<EntityId> = ds.left.iter().map(|e| e.id).collect();
    let right_ids: Vec<EntityId> = ds.right.iter().map(|e| e.id).collect();
    let blocking = &config.blocking;
    let library = t.span("blocking.block", |t| {
        let c = top_k_blocking_scored_matrix(&left_ids, &left, &right_ids, &right, blocking);
        t.set_items(c.len() as u64);
        c
    });
    let candidates = t.span("blocking.decomposed", |t| {
        let c = decomposed_block(t, &left_ids, &left, &right_ids, &right, blocking)?;
        let true_pairs = c
            .iter()
            .filter(|p| ds.ground_truth.contains(p.left, p.right))
            .count();
        t.set_items(true_pairs as u64);
        Ok::<_, String>(c)
    })?;
    if !same_pairs(&library, &candidates) || !same_pairs(&library, &reference.candidates) {
        return Err(format!(
            "{}: decomposed blocking differs from Pipeline::resolve",
            ds.id
        ));
    }
    let deltas = config
        .deltas
        .clone()
        .unwrap_or_else(ThresholdSweep::paper_deltas);
    let sweep = t.span("matching.sweep", |t| {
        let s = ThresholdSweep::run_with(&candidates, &ds.ground_truth, config.clusterer, &deltas);
        t.set_items(s.points.len() as u64);
        s
    });
    let same_sweep = sweep.points.len() == reference.sweep.points.len()
        && sweep
            .points
            .iter()
            .zip(&reference.sweep.points)
            .all(|(a, b)| {
                a.delta.to_bits() == b.delta.to_bits()
                    && same_pairs(&a.matches, &b.matches)
                    && a.metrics == b.metrics
            });
    if !same_sweep {
        return Err(format!(
            "{}: decomposed sweep differs from Pipeline::resolve",
            ds.id
        ));
    }
    let best_delta = sweep.best().map_or(0.0, |p| p.delta);
    let matches = t.span("matching.match", |t| {
        let m = config.clusterer.cluster(&candidates, best_delta);
        t.set_items(m.len() as u64);
        m
    });
    if best_delta.to_bits() != reference.best_delta.to_bits()
        || !same_pairs(&matches, &reference.matches)
    {
        return Err(format!(
            "{}: decomposed matching differs from Pipeline::resolve",
            ds.id
        ));
    }
    Ok(reference)
}

/// `top_k_blocking_scored_matrix` through its parts: build the configured
/// index over `right`, query it row by row with `search_counted`, score
/// each hit, deduplicate. The build and each query get their own span;
/// scoring and dedup are the enclosing span's self time.
fn decomposed_block(
    t: &mut Tracer,
    left_ids: &[EntityId],
    left: &EmbeddingMatrix,
    right_ids: &[EntityId],
    right: &EmbeddingMatrix,
    config: &TopKConfig,
) -> Result<Vec<ScoredPair>, String> {
    let rows = right.len() as u64;
    let query = |t: &mut Tracer, index: &dyn IndexReader| {
        query_and_dedup(t, index, left_ids, left, right_ids, right, config)
    };
    Ok(match &config.backend {
        BlockerBackend::Exact(metric) => {
            let index = t
                .span("index.build", |t| {
                    t.set_items(rows);
                    ExactIndex::from_source_scan(right, *metric, config.scan)
                })
                .map_err(|e| e.to_string())?;
            query(t, &index)
        }
        BlockerBackend::Hnsw(hnsw) => {
            let index = t.span("index.build", |t| {
                t.set_items(rows);
                HnswIndex::from_matrix(right, hnsw.clone())
            });
            query(t, &index)
        }
        BlockerBackend::Lsh(lsh) => {
            let index = t.span("index.build", |t| {
                t.set_items(rows);
                HyperplaneLsh::from_matrix(right, lsh.clone())
            });
            query(t, &index)
        }
    })
}

fn query_and_dedup(
    t: &mut Tracer,
    index: &dyn IndexReader,
    left_ids: &[EntityId],
    left: &EmbeddingMatrix,
    right_ids: &[EntityId],
    right: &EmbeddingMatrix,
    config: &TopKConfig,
) -> Vec<ScoredPair> {
    let metric = index.metric();
    let params = QueryParams::default();
    let mut pairs = Vec::new();
    for (i, &left_id) in left_ids.iter().enumerate() {
        let row = left.row(i);
        let hits = t.span("index.query", |t| {
            let (hits, evals) = index.search_counted(row, config.k, &params);
            t.set_items(evals);
            hits
        });
        for n in hits {
            let score = metric.hit_similarity(
                row,
                left.norm(i),
                right.row(n.index),
                right.norm(n.index),
                n.distance,
            );
            pairs.push(ScoredPair::new(left_id, right_ids[n.index], score));
        }
    }
    dedup_scored(pairs, config.dirty)
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
