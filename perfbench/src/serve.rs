//! `serve-churn`: a durable [`Resolver`] under two closed-loop clients.
//!
//! The resolver is opened on a fresh directory with the default
//! [`ServeConfig`], preloaded and checkpointed. A reader thread then
//! queries near-duplicates of preloaded records and never-loaded records,
//! one query after another, while a writer thread applies the seeded op
//! stream (upsert, delete, insert, a checkpoint every
//! [`inputs::CHECKPOINT_EVERY`] ops, at most 100 ops/s). Each client sends
//! its next request only when the previous one returns: on a two-core
//! machine an open-loop schedule measures the neighbours' load more than
//! the resolver.
//!
//! At quiescence the resolver must hold exactly the writer's shadow of
//! live records; answers to a fixed probe set are then scored against an
//! exact scan over the shadow's embeddings.

use crate::checks::{check_hits, check_quiescent, same_hits, Tally};
use crate::inputs::{Op, OpStream, Probe, ServeInputs, Source};
use crate::stats::median;
use crate::trace::{self, Tracer};
use crate::{Measured, Outcome, SETUP_REPS};
use embeddings4er::prelude::*;
use embeddings4er::serve::search_snapshots;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::result::Result;
use std::time::{Duration, Instant};

/// Neighbours per query.
const K: usize = 10;
/// Queries and writes a run makes at least, whatever its length, so p99
/// has ten samples beyond it.
const MIN_OPS: usize = 1_000;
/// The writer sends at most one op per interval (100 ops/s), so on two
/// cores the reader keeps most of a core whatever the writer costs.
const WRITE_INTERVAL: Duration = Duration::from_millis(10);
/// The query percentile reported as `latency_ms_tail`. The writer is busy
/// about 4% of the time (100 ops/s of ≈0.4 ms) and queries overlapping a
/// write slow down, so p95 sits on the edge of that group and spread by
/// 16% across ten seeds; p90 stays below it.
const TAIL_PCT: usize = 90;
/// Traced queries decomposed into per-shard calls: one in this many. The
/// sequential per-shard work slows the query after it (its fan-out finds
/// the second core idle), so decomposing every query would charge the
/// decomposition to the traced end-to-end figure.
const COMPONENT_EVERY: u64 = 8;
/// Probes scored for `recall` at quiescence.
const RECALL_PROBES: usize = 256;
/// Near-duplicate probes scored for `quality` at quiescence.
const QUALITY_PROBES: usize = 512;
/// Request ids of writer spans start here; reader spans count from 0.
const WRITER_REQUESTS: u64 = 1 << 40;
/// Clients stop after this long whatever their sample counts.
const HARD_LIMIT: Duration = Duration::from_secs(140);

/// The shadow: live id → the record it carries.
type Shadow = HashMap<u32, Source>;

fn open_preloaded<'m>(
    dir: &Path,
    model: &'m dyn LanguageModel,
    inputs: &ServeInputs,
) -> Result<Resolver<'m>, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    let resolver = Resolver::open(
        dir,
        model,
        SerializationMode::SchemaAgnostic,
        ServeConfig::default(),
    )
    .map_err(|e| format!("open: {e}"))?;
    for id in 0..inputs.preload.len() as u32 {
        let stored = resolver
            .insert(&inputs.entity(id, Source::Preload))
            .map_err(|e| format!("preload insert {id}: {e}"))?;
        if !stored {
            return Err(format!("preload insert {id} stored nothing"));
        }
    }
    resolver
        .checkpoint()
        .map_err(|e| format!("first checkpoint: {e}"))?;
    Ok(resolver)
}

/// Per-client samples of one measured phase.
#[derive(Default)]
struct Client {
    latency_us: Vec<f64>,
    checkpoints: usize,
    tally: Tally,
}

struct Phase {
    reader: Client,
    writer: Client,
    wall_s: f64,
}

/// Counters read from `ShardStats` after each traced write.
#[derive(Default)]
struct ShardWatch {
    tombstoned: Vec<usize>,
    compactions: u64,
    deleted_fraction_max: f64,
    journal_len_max: u64,
}

impl ShardWatch {
    fn observe(&mut self, stats: &[ShardStats]) {
        if self.tombstoned.len() != stats.len() {
            self.tombstoned = stats.iter().map(|s| s.tombstoned).collect();
        }
        for (seen, s) in self.tombstoned.iter_mut().zip(stats) {
            // Only compaction lowers a shard's tombstone count.
            if s.tombstoned < *seen {
                self.compactions += 1;
            }
            *seen = s.tombstoned;
            self.deleted_fraction_max = self.deleted_fraction_max.max(s.deleted_fraction as f64);
            self.journal_len_max = self.journal_len_max.max(s.journal_len);
        }
    }
}

struct Churn<'a, 'm> {
    resolver: &'a Resolver<'m>,
    model: &'m dyn LanguageModel,
    inputs: &'a ServeInputs,
}

impl Churn<'_, '_> {
    /// Run both clients until `until` (and their minimum sample counts),
    /// resuming the probe cycle at `*next_probe` and the op stream where
    /// it stands. With tracers, every request is traced.
    fn phase(
        &self,
        until: Instant,
        hard_stop: Instant,
        next_probe: &mut usize,
        ops: &mut OpStream,
        shadow: &mut Shadow,
        tracers: Option<(&mut Tracer, &mut Tracer, &mut ShardWatch)>,
    ) -> Phase {
        let start = Instant::now();
        let keep_going =
            |n: usize| (Instant::now() < until || n < MIN_OPS) && Instant::now() < hard_stop;
        let (reader, writer) = std::thread::scope(|scope| {
            let (reader_tracer, writer_tracer, watch) = match tracers {
                Some((r, w, s)) => (Some(r), Some(w), Some(s)),
                None => (None, None, None),
            };
            let reader = scope.spawn(|| {
                let mut client = Client::default();
                let mut tracer = reader_tracer;
                while keep_going(client.latency_us.len()) {
                    let probe = &self.inputs.probes[*next_probe % self.inputs.probes.len()];
                    let request = *next_probe as u64;
                    *next_probe += 1;
                    let checked = match tracer.as_deref_mut() {
                        None => {
                            let t0 = Instant::now();
                            let hits = self.resolver.query(&probe.entity, K);
                            client.latency_us.push(t0.elapsed().as_secs_f64() * 1e6);
                            check_hits(&hits, K)
                        }
                        Some(t) => {
                            t.set_request(request);
                            let components = request.is_multiple_of(COMPONENT_EVERY);
                            self.traced_query(t, probe, components, &mut client)
                        }
                    };
                    client.tally.record(checked);
                }
                client
            });
            let writer = scope.spawn(|| {
                let mut client = Client::default();
                let mut tracer = writer_tracer;
                let mut watch = watch;
                let mut request = WRITER_REQUESTS;
                let mut sent = 0u32;
                while keep_going(client.latency_us.len()) {
                    // Closed loop with a rate cap: op i is not sent before
                    // its slot, nor before op i − 1 has returned.
                    let slot = start + WRITE_INTERVAL * sent;
                    sent += 1;
                    if let Some(wait) = slot.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let op = ops.next().expect("the op stream is endless");
                    request += 1;
                    let checked = match (tracer.as_deref_mut(), watch.as_deref_mut()) {
                        (Some(t), Some(w)) => {
                            t.set_request(request);
                            let checked = self.traced_write(t, op, shadow, &mut client);
                            w.observe(&self.resolver.stats());
                            checked
                        }
                        _ => self.write(op, shadow, &mut client),
                    };
                    client.tally.record(checked);
                }
                client
            });
            (
                reader.join().expect("reader thread panicked"),
                writer.join().expect("writer thread panicked"),
            )
        });
        Phase {
            reader,
            writer,
            wall_s: start.elapsed().as_secs_f64(),
        }
    }

    fn write(&self, op: Op, shadow: &mut Shadow, client: &mut Client) -> Result<(), String> {
        if op == Op::Checkpoint {
            client.checkpoints += 1;
            return self
                .resolver
                .checkpoint()
                .map_err(|e| format!("checkpoint: {e}"));
        }
        let entity = match op {
            Op::Upsert { id, record } | Op::Insert { id, record } => {
                Some(self.inputs.entity(id, Source::Pool(record)))
            }
            _ => None,
        };
        let t0 = Instant::now();
        let result = match (op, &entity) {
            (Op::Upsert { .. }, Some(e)) => self.resolver.upsert(e),
            (Op::Insert { .. }, Some(e)) => self.resolver.insert(e),
            (Op::Delete { id }, _) => self.resolver.delete(EntityId(id)),
            _ => unreachable!("checkpoints return above; upserts and inserts carry an entity"),
        };
        client.latency_us.push(t0.elapsed().as_secs_f64() * 1e6);
        apply_to_shadow(op, result, shadow)
    }

    /// A write through its parts: serialize and embed the record, then the
    /// sharded index write with the precomputed row (journal append,
    /// apply, publish). The row must equal `Resolver::embed`'s.
    fn traced_write(
        &self,
        t: &mut Tracer,
        op: Op,
        shadow: &mut Shadow,
        client: &mut Client,
    ) -> Result<(), String> {
        if op == Op::Checkpoint {
            let done = t.span("serve.checkpoint", |_| self.resolver.checkpoint());
            return done.map_err(|e| format!("checkpoint: {e}"));
        }
        let index = self.resolver.index();
        let t0 = Instant::now();
        let (result, embedded) = match op {
            Op::Upsert { id, record } | Op::Insert { id, record } => {
                let entity = self.inputs.entity(id, Source::Pool(record));
                let mode = self.resolver.mode();
                t.span("serve.write", |t| {
                    let text = t.span("embed.serialize", |t| {
                        t.set_items(1);
                        entity.serialize(mode)
                    });
                    let mut row = vec![0.0f32; self.model.dim()];
                    t.span("embed.forward", |t| {
                        t.set_items(1);
                        self.model.embed_into(&text, &mut row)
                    });
                    let result = t.span("serve.index_write", |_| match op {
                        Op::Upsert { .. } => index.upsert(entity.id, &row),
                        _ => index.insert(entity.id, &row),
                    });
                    (result, Some((entity, row)))
                })
            }
            _ => t.span("serve.write", |t| {
                let id = match op {
                    Op::Delete { id } => EntityId(id),
                    _ => unreachable!("checkpoints return above"),
                };
                (t.span("serve.index_write", |_| index.delete(id)), None)
            }),
        };
        client.latency_us.push(t0.elapsed().as_secs_f64() * 1e6);
        if let Some((entity, row)) = embedded {
            let expected = self.resolver.embed(&entity);
            if !row
                .iter()
                .zip(expected.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits())
            {
                client.tally.fail(format!(
                    "id {}: decomposed embedding differs from Resolver::embed",
                    entity.id.0
                ));
            }
        }
        apply_to_shadow(op, result, shadow)
    }

    /// A query through its parts: embed, pin the snapshots, scatter-gather.
    /// With `components`, each pinned shard is then searched on its own,
    /// outside the query span, through the segment and through the index
    /// with its evaluation count; merged, the shard answers must equal the
    /// gathered one.
    fn traced_query(
        &self,
        t: &mut Tracer,
        probe: &Probe,
        components: bool,
        client: &mut Client,
    ) -> Result<(), String> {
        let t0 = Instant::now();
        let (query, snaps, hits) = t.span("serve.query", |t| {
            let query = t.span("serve.embed", |_| self.resolver.embed(&probe.entity));
            let snaps = t.span("serve.snapshots", |_| self.resolver.index().snapshots());
            let hits = t.span("serve.search", |t| {
                let hits = search_snapshots(&snaps, query.as_slice(), K);
                t.set_items(hits.len() as u64);
                hits
            });
            (query, snaps, hits)
        });
        client.latency_us.push(t0.elapsed().as_secs_f64() * 1e6);
        check_hits(&hits, K)?;
        if !components {
            return Ok(());
        }
        let params = QueryParams::default();
        let mut merged: Vec<Hit> = t.span("serve.components", |t| {
            let mut all = Vec::new();
            for snap in &snaps {
                let shard_hits = t.span("serve.shard_search", |_| snap.search(query.as_slice(), K));
                let (neighbours, _) = t.span("index.query", |t| {
                    let (n, evals) = snap.index().search_counted(query.as_slice(), K, &params);
                    t.set_items(evals);
                    (n, evals)
                });
                let mut a: Vec<u32> = shard_hits.iter().map(|h| h.distance.to_bits()).collect();
                let mut b: Vec<u32> = neighbours.iter().map(|n| n.distance.to_bits()).collect();
                a.sort_unstable();
                b.sort_unstable();
                if a != b {
                    client
                        .tally
                        .fail("shard search differs from its index's search_counted".into());
                }
                all.extend(shard_hits);
            }
            all
        });
        merged.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.0.cmp(&b.id.0)));
        merged.truncate(K);
        if !same_hits(&merged, &hits) {
            return Err(
                "per-shard answers merge to a different top-k than search_snapshots".into(),
            );
        }
        Ok(())
    }
}

/// Check a write's reported outcome against the op stream's expectation
/// (every op is legal against the live set) and apply it to the shadow.
fn apply_to_shadow(
    op: Op,
    result: embeddings4er::core::Result<bool>,
    shadow: &mut Shadow,
) -> Result<(), String> {
    let changed = result.map_err(|e| format!("{op:?}: {e}"))?;
    let expected = match op {
        // An upsert reports a replacement, an insert a store, a delete a
        // removal: each exactly when the shadow says so.
        Op::Upsert { id, record } => shadow.insert(id, Source::Pool(record)).is_some(),
        Op::Insert { id, record } => shadow.insert(id, Source::Pool(record)).is_none(),
        Op::Delete { id } => shadow.remove(&id).is_some(),
        Op::Checkpoint => true,
    };
    if changed != expected {
        return Err(format!(
            "{op:?} reported {changed}, the shadow expected otherwise"
        ));
    }
    Ok(())
}

fn resolver_dir(seed: u64, rep: usize) -> PathBuf {
    PathBuf::from(crate::OUT_DIR).join(format!("serve-{seed}-{}-{rep}", std::process::id()))
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let hard_stop = Instant::now() + HARD_LIMIT;
    let mut times = Vec::new();
    for rep in 1..SETUP_REPS {
        let start = Instant::now();
        let zoo = ModelZoo::pretrain(None, &ZooConfig::fast(), er_bench::SEED);
        let inputs = ServeInputs::generate(seed);
        let dir = resolver_dir(seed, rep);
        let prepared = open_preloaded(&dir, zoo.get(ModelCode::FT).as_ref(), &inputs).map(drop);
        times.push(start.elapsed().as_secs_f64());
        let _ = std::fs::remove_dir_all(&dir);
        if let Err(e) = prepared {
            return Outcome::failed(e);
        }
    }
    let start = Instant::now();
    let zoo = ModelZoo::pretrain(None, &ZooConfig::fast(), er_bench::SEED);
    let inputs = ServeInputs::generate(seed);
    let dir = resolver_dir(seed, 0);
    let model = zoo.get(ModelCode::FT).as_ref();
    let resolver = match open_preloaded(&dir, model, &inputs) {
        Ok(r) => r,
        Err(e) => return Outcome::failed(e),
    };
    times.push(start.elapsed().as_secs_f64());
    let churn = Churn {
        resolver: &resolver,
        model,
        inputs: &inputs,
    };
    let mut outcome = churn.measure(seed, seconds, traced, hard_stop);
    if !traced {
        outcome.push(Measured::value("setup_s", median(&times), SETUP_REPS));
    }
    outcome.meta(
        "zoo_scale",
        format!("{} (seed {})", zoo.scale(), er_bench::SEED),
    );
    outcome.meta("model", ModelCode::FT.to_string());
    outcome.meta("preloaded", inputs.preload.len().to_string());
    outcome.meta("setup_reps", SETUP_REPS.to_string());
    drop(resolver);
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

impl Churn<'_, '_> {
    fn measure(&self, seed: u64, seconds: u64, traced: bool, hard_stop: Instant) -> Outcome {
        let (resolver, inputs) = (self.resolver, self.inputs);
        let mut shadow: Shadow = (0..inputs.preload.len() as u32)
            .map(|id| (id, Source::Preload))
            .collect();
        let mut ops = OpStream::new(seed, inputs.preload.len(), inputs.pool.len());
        let mut next_probe = 0usize;
        let mut outcome = Outcome::new(Tally::default());
        // Warm-up: a few hundred untimed queries.
        for probe in inputs.probes.iter().take(200) {
            outcome
                .tally
                .record(check_hits(&resolver.query(&probe.entity, K), K));
        }
        let window = Duration::from_secs(seconds);
        let measure_start = Instant::now();
        let untraced_until = measure_start + if traced { window / 3 } else { window };
        let mut plain = self.phase(
            untraced_until,
            hard_stop,
            &mut next_probe,
            &mut ops,
            &mut shadow,
            None,
        );
        outcome.tally.merge(std::mem::take(&mut plain.reader.tally));
        outcome.tally.merge(std::mem::take(&mut plain.writer.tally));
        outcome.meta("queries", plain.reader.latency_us.len().to_string());
        outcome.meta("writes", plain.writer.latency_us.len().to_string());
        outcome.meta("checkpoints", plain.writer.checkpoints.to_string());
        let mut traced_phase = None;
        if traced {
            let origin = Instant::now();
            let mut tracer = Tracer::new(origin);
            let mut writer_tracer = Tracer::new(origin);
            let mut watch = ShardWatch::default();
            watch.observe(&resolver.stats());
            let phase = self.phase(
                measure_start + window,
                hard_stop,
                &mut next_probe,
                &mut ops,
                &mut shadow,
                Some((&mut tracer, &mut writer_tracer, &mut watch)),
            );
            outcome.meta("traced_queries", phase.reader.latency_us.len().to_string());
            outcome.meta("traced_writes", phase.writer.latency_us.len().to_string());
            outcome.tally.merge(phase.reader.tally);
            outcome.tally.merge(phase.writer.tally);
            tracer.absorb(writer_tracer);
            traced_phase = Some((tracer, watch));
        }

        // Quiescence: both clients have joined.
        let probes: Vec<&Probe> = inputs.probes.iter().take(RECALL_PROBES).collect();
        let answers: Vec<Vec<Hit>> = probes
            .iter()
            .map(|p| resolver.query(&p.entity, K))
            .collect();
        for hits in &answers {
            outcome.tally.record(check_hits(hits, K));
        }
        outcome
            .tally
            .record(check_quiescent(resolver.len(), &shadow, &answers));
        let recall = recall_at_k(resolver, inputs, &shadow, &probes, &answers);
        let (quality, scored) =
            near_duplicate_hit_rate(resolver, inputs, &shadow, &mut outcome.tally);

        if let Some((tracer, watch)) = traced_phase {
            per_layer(&mut outcome, &tracer, &watch, resolver, &plain);
            outcome.spans = Some(tracer);
            return outcome;
        }
        let query_ms: Vec<f64> = plain.reader.latency_us.iter().map(|us| us / 1e3).collect();
        let ops_done = query_ms.len() + plain.writer.latency_us.len();
        outcome.push(Measured::value(
            "records_per_s",
            ops_done as f64 / plain.wall_s,
            ops_done,
        ));
        outcome.push(Measured::p("latency_ms_p50", &query_ms, 50));
        outcome.push(Measured::p("latency_ms_tail", &query_ms, TAIL_PCT));
        outcome.push(Measured::value("quality", quality, scored));
        outcome.push(Measured::value("recall", recall, probes.len()));
        outcome.note(
            Measured::p("write_us_p50", &plain.writer.latency_us, 50),
            "us",
        );
        outcome.note(
            Measured::p("write_us_p99", &plain.writer.latency_us, 99),
            "us",
        );
        outcome
    }
}

/// Mean recall@K of `answers` against an exact cosine scan, in f64, over
/// the shadow's live records embedded afresh.
fn recall_at_k(
    resolver: &Resolver,
    inputs: &ServeInputs,
    shadow: &Shadow,
    probes: &[&Probe],
    answers: &[Vec<Hit>],
) -> f64 {
    let mut ids: Vec<u32> = shadow.keys().copied().collect();
    ids.sort_unstable();
    let unit = |e: Embedding| {
        let v: Vec<f64> = e.as_slice().iter().map(|&x| x as f64).collect();
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        v.into_iter()
            .map(|x| if norm > 0.0 { x / norm } else { 0.0 })
            .collect::<Vec<f64>>()
    };
    let live: Vec<Vec<f64>> = ids
        .iter()
        .map(|&id| unit(resolver.embed(&inputs.entity(id, shadow[&id]))))
        .collect();
    let mut total = 0.0;
    for (probe, hits) in probes.iter().zip(answers) {
        let q = unit(resolver.embed(&probe.entity));
        let mut scored: Vec<(f64, u32)> = live
            .iter()
            .zip(&ids)
            .map(|(row, &id)| {
                (
                    1.0 - row.iter().zip(&q).map(|(a, b)| a * b).sum::<f64>(),
                    id,
                )
            })
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let truth: Vec<u32> = scored.iter().take(K).map(|&(_, id)| id).collect();
        let found = hits.iter().filter(|h| truth.contains(&h.id.0)).count();
        total += found as f64 / truth.len().max(1) as f64;
    }
    total / probes.len().max(1) as f64
}

/// Share of near-duplicate probes whose source record is still live and
/// unchanged and comes back in the top K, with the number scored.
fn near_duplicate_hit_rate(
    resolver: &Resolver,
    inputs: &ServeInputs,
    shadow: &Shadow,
    tally: &mut Tally,
) -> (f64, usize) {
    let eligible = inputs
        .probes
        .iter()
        .filter_map(|p| p.source.map(|s| (p, s)))
        .filter(|(_, s)| shadow.get(&s.0) == Some(&Source::Preload))
        .take(QUALITY_PROBES);
    let (mut found, mut scored) = (0, 0);
    for (probe, source) in eligible {
        let hits = resolver.query(&probe.entity, K);
        tally.record(
            check_hits(&hits, K)
                .and_then(|()| check_quiescent(shadow.len(), shadow, std::slice::from_ref(&hits))),
        );
        scored += 1;
        if hits.iter().any(|h| h.id == source) {
            found += 1;
        }
    }
    (found as f64 / scored.max(1) as f64, scored)
}

/// The traced phase's per-layer figures, plus the untraced phase's write
/// latencies and the tracing overhead against its query latencies.
fn per_layer(
    outcome: &mut Outcome,
    tracer: &Tracer,
    watch: &ShardWatch,
    resolver: &Resolver,
    plain: &Phase,
) {
    let spans = tracer.spans();
    let us = |name| {
        trace::durations(spans, name)
            .iter()
            .map(|ns| ns / 1e3)
            .collect::<Vec<f64>>()
    };
    let (forward_ns, rows) = trace::totals(spans, "embed.forward");
    let (serialize_ns, _) = trace::totals(spans, "embed.serialize");
    let (query_ns, evals) = trace::totals(spans, "index.query");
    let queries = us("index.query").len();
    let longest_shard = trace::longest_per_request(spans, "serve.shard_search");
    let gather_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "serve.search")
        .filter_map(|s| {
            longest_shard
                .get(&s.request)
                .map(|&shard| (s.duration_ns() as f64 - shard as f64) / 1e3)
        })
        .collect();
    let checkpoints_ms: Vec<f64> = us("serve.checkpoint").iter().map(|us| us / 1e3).collect();
    let rows_n = rows as usize;
    outcome.push(Measured::value(
        "embed.forward_us_per_row",
        forward_ns as f64 / rows as f64 / 1e3,
        rows_n,
    ));
    outcome.push(Measured::value(
        "embed.serialize_us_per_row",
        serialize_ns as f64 / rows as f64 / 1e3,
        rows_n,
    ));
    outcome.push(Measured::value("embed.rows", rows as f64, 1));
    outcome.push(Measured::p("index.query_us_p50", &us("index.query"), 50));
    outcome.push(Measured::value(
        "index.evals_per_query",
        evals as f64 / queries as f64,
        queries,
    ));
    outcome.push(Measured::value(
        "index.ns_per_eval",
        query_ns as f64 / evals as f64,
        queries,
    ));
    outcome.push(Measured::p("serve.embed_us_p50", &us("serve.embed"), 50));
    outcome.push(Measured::p("serve.search_us_p50", &us("serve.search"), 50));
    outcome.push(Measured::p("serve.search_us_p99", &us("serve.search"), 99));
    outcome.push(Measured::p(
        "serve.shard_search_us_p50",
        &us("serve.shard_search"),
        50,
    ));
    outcome.push(Measured::p("serve.gather_us_p50", &gather_us, 50));
    outcome.push(Measured::p(
        "serve.write_us_p50",
        &plain.writer.latency_us,
        50,
    ));
    outcome.push(Measured::p(
        "serve.write_us_p99",
        &plain.writer.latency_us,
        99,
    ));
    outcome.push(Measured::p(
        "serve.index_write_us_p50",
        &us("serve.index_write"),
        50,
    ));
    outcome.push(Measured::p(
        "serve.index_write_us_p99",
        &us("serve.index_write"),
        99,
    ));
    outcome.push(Measured {
        name: "serve.checkpoint_ms",
        value: (!checkpoints_ms.is_empty()).then(|| median(&checkpoints_ms)),
        samples: checkpoints_ms.len(),
    });
    outcome.push(Measured::value(
        "serve.compactions",
        watch.compactions as f64,
        1,
    ));
    outcome.push(Measured::value(
        "serve.deleted_fraction_max",
        watch.deleted_fraction_max,
        1,
    ));
    outcome.push(Measured::value(
        "serve.journal_len_max",
        watch.journal_len_max as f64,
        1,
    ));
    outcome.push(Measured::value(
        "serve.shard_skew",
        resolver.index().skew() as f64,
        1,
    ));
    let untraced_ns: Vec<f64> = plain.reader.latency_us.iter().map(|us| us * 1e3).collect();
    outcome.push(Measured::overhead(
        &trace::durations(spans, "serve.query"),
        &untraced_ns,
    ));
}
