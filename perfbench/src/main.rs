//! The repository benchmark: three workloads against the public API of
//! `embeddings4er`, one result line per run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload resolve-ft --seed 1 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with no
//! tracing; with `--trace 1` it measures the per-layer metrics from spans
//! and writes the spans to `.perfbench_out/spans-<workload>.tsv`. Every
//! operation's output is checked; the last line of standard output is
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`, and the
//! exit code is non-zero when a check failed or a metric could not be
//! measured. See `perfbench/README.md` for what each metric means.

mod checks;
mod inputs;
mod resolve;
mod serve;
mod stats;
mod trace;

use checks::Tally;
use embeddings4er::prelude::ModelCode;
use std::fmt::Write as _;
use std::process::ExitCode;
use trace::Tracer;

/// Workload names, as `--workload` takes them.
const WORKLOADS: [&str; 3] = ["resolve-ft", "resolve-bt", "serve-churn"];

/// End-to-end metrics (`--trace 0`) with their units. Every workload
/// reports every one; `perfbench/README.md` defines each per workload.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("records_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("quality", "fraction"),
    ("recall", "fraction"),
];

/// Per-layer metrics (`--trace 1`) with their units. A workload that does
/// not exercise a layer reports that layer's metrics as 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("embed.forward_us_per_row", "us"),
    ("embed.serialize_us_per_row", "us"),
    ("embed.rows", "count"),
    ("pipeline.vectorize_ms", "ms"),
    ("index.build_ms", "ms"),
    ("index.query_us_p50", "us"),
    ("index.evals_per_query", "count"),
    ("index.ns_per_eval", "ns"),
    ("blocking.block_ms", "ms"),
    ("blocking.dedup_ms", "ms"),
    ("blocking.candidates", "count"),
    ("blocking.pair_quality", "fraction"),
    ("matching.sweep_ms", "ms"),
    ("matching.sweep_points", "count"),
    ("matching.match_ms", "ms"),
    ("matching.matches", "count"),
    ("serve.embed_us_p50", "us"),
    ("serve.search_us_p50", "us"),
    ("serve.search_us_p99", "us"),
    ("serve.shard_search_us_p50", "us"),
    ("serve.gather_us_p50", "us"),
    ("serve.write_us_p50", "us"),
    ("serve.write_us_p99", "us"),
    ("serve.index_write_us_p50", "us"),
    ("serve.index_write_us_p99", "us"),
    ("serve.checkpoint_ms", "ms"),
    ("serve.compactions", "count"),
    ("serve.deleted_fraction_max", "fraction"),
    ("serve.journal_len_max", "count"),
    ("serve.shard_skew", "ratio"),
    ("harness.tracing_overhead_frac", "fraction"),
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Where runs write their spans and the serving workload its durable
/// directories, relative to the working directory.
pub const OUT_DIR: &str = ".perfbench_out";

/// One measured figure; `None` when its samples do not support it.
pub struct Measured {
    pub name: &'static str,
    pub value: Option<f64>,
    pub samples: usize,
}

impl Measured {
    pub fn value(name: &'static str, value: f64, samples: usize) -> Measured {
        Measured {
            name,
            value: Some(value),
            samples,
        }
    }

    /// Percentile `pct` of `values` under the ten-beyond rule.
    pub fn p(name: &'static str, values: &[f64], pct: usize) -> Measured {
        Measured {
            name,
            value: stats::percentile(values, pct),
            samples: values.len(),
        }
    }

    /// `harness.tracing_overhead_frac`: the traced median of the
    /// end-to-end operation over the untraced median, minus one.
    pub fn overhead(traced: &[f64], untraced: &[f64]) -> Measured {
        let value = stats::percentile(traced, 50)
            .zip(stats::percentile(untraced, 50))
            .map(|(t, u)| t / u - 1.0);
        Measured {
            name: "harness.tracing_overhead_frac",
            value,
            samples: traced.len().min(untraced.len()),
        }
    }
}

/// What a workload run produced.
pub struct Outcome {
    pub metrics: Vec<Measured>,
    /// Figures printed for people but not part of the result line.
    pub notes: Vec<(Measured, &'static str)>,
    pub tally: Tally,
    pub meta: Vec<(String, String)>,
    pub spans: Option<Tracer>,
}

impl Outcome {
    pub fn new(tally: Tally) -> Outcome {
        Outcome {
            metrics: Vec::new(),
            notes: Vec::new(),
            tally,
            meta: Vec::new(),
            spans: None,
        }
    }

    /// A run that could not start; it reports one failed operation.
    pub fn failed(message: String) -> Outcome {
        let mut tally = Tally::default();
        tally.record(Err(message));
        Outcome::new(tally)
    }

    pub fn push(&mut self, m: Measured) {
        self.metrics.push(m);
    }

    pub fn note(&mut self, m: Measured, unit: &'static str) {
        self.notes.push((m, unit));
    }

    pub fn meta(&mut self, key: &str, value: String) {
        self.meta.push((key.to_string(), value));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <resolve-ft|resolve-bt|serve-churn> --seed <u64> --seconds <1..=3600> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut values = std::collections::HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag.as_str(),
            other => return Err(format!("unknown argument {other:?}")),
        };
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        values.insert(key, value.as_str());
    }
    let get = |key: &str| {
        values
            .get(key)
            .copied()
            .ok_or_else(|| format!("missing {key}"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=3600).contains(&seconds) {
        return Err("--seconds must be in 1..=3600".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload: workload.to_string(),
        seed,
        seconds,
        trace,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit of the checkout, when it is a git work tree of its own.
fn commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git work tree)".into())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match args.workload.as_str() {
        "resolve-ft" => resolve::run(ModelCode::FT, args.seed, args.seconds, args.trace),
        "resolve-bt" => resolve::run(ModelCode::BT, args.seed, args.seconds, args.trace),
        _ => serve::run(args.seed, args.seconds, args.trace),
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut missing = Vec::new();
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let found = outcome.metrics.iter().find(|m| m.name == name);
        let (value, samples) = match found {
            Some(m) => (m.value, m.samples),
            // Traced runs report the layers a workload does not run as 0.
            None if args.trace && outcome.tally.attempted > 0 => (Some(0.0), 0),
            None => (None, 0),
        };
        match value.filter(|v| v.is_finite()) {
            Some(v) => metrics.push((name, unit, v, samples)),
            None => missing.push(name),
        }
    }
    if let Some(m) = outcome
        .metrics
        .iter()
        .find(|m| !table.iter().any(|(n, _)| *n == m.name))
    {
        panic!(
            "workload reported {:?}, which the metric table lacks",
            m.name
        );
    }

    println!(
        "perfbench {} seed {} ({} s, trace {})",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for (name, unit, value, samples) in &metrics {
        println!("  {name:<32} {value:>14.4} {unit:<8} n={samples}");
    }
    for (m, unit) in &outcome.notes {
        let v = m
            .value
            .map_or("unsupported".to_string(), |v| format!("{v:.4}"));
        println!(
            "  {:<32} {v:>14} {unit:<8} n={} (not gated)",
            m.name, m.samples
        );
    }
    println!(
        "  {:<32} {:>14.6} fraction n={}",
        "failed_frac",
        outcome.tally.failed_frac(),
        outcome.tally.attempted
    );
    for message in &outcome.tally.messages {
        println!("  FAILED: {message}");
    }
    if let Some(tracer) = &outcome.spans {
        let path = format!("{OUT_DIR}/spans-{}.tsv", args.workload);
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|_| std::fs::write(&path, trace::to_tsv(tracer.spans())));
        match written {
            Ok(()) => outcome.meta("spans", format!("{path} ({} spans)", tracer.spans().len())),
            Err(e) => outcome.tally.fail(format!("write {path}: {e}")),
        }
    }
    let mut meta = vec![
        ("workload".to_string(), args.workload.clone()),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), (args.trace as u8).to_string()),
        ("commit".to_string(), commit()),
        ("rustc".to_string(), env!("PERFBENCH_RUSTC").to_string()),
        (
            "rustflags".to_string(),
            env!("PERFBENCH_RUSTFLAGS").to_string(),
        ),
        (
            "nproc".to_string(),
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
    ];
    meta.append(&mut outcome.meta);
    let meta_json: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("meta {{{}}}", meta_json.join(", "));

    if !missing.is_empty() {
        eprintln!("perfbench: no supported value for {}", missing.join(", "));
        for message in &outcome.tally.messages {
            eprintln!("perfbench: {message}");
        }
        return ExitCode::from(3);
    }
    let correct = outcome.tally.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value, _)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.attempted,
        outcome.tally.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embeddings4er::core::json::Json;

    /// The metric tables must agree with `BENCHMARK.json` at the
    /// repository root, name for name and unit for unit.
    #[test]
    fn tables_match_the_benchmark_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = Json::parse(&text).expect("parse BENCHMARK.json");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .expect(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| {
                        m.expect(f)
                            .and_then(|j| j.as_str().map(str::to_owned))
                            .expect("string field")
                    };
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
        let workloads: Vec<String> = doc
            .expect("workloads")
            .and_then(Json::as_arr)
            .expect("workload list")
            .iter()
            .map(|w| {
                w.expect("name")
                    .and_then(|j| j.as_str().map(str::to_owned))
                    .expect("name")
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload serve-churn --seed 3 --seconds 5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
            ("serve-churn", 3, 5, true)
        );
        assert!(parse_args(&args("--workload nope --seed 3 --seconds 5 --trace 1")).is_err());
        assert!(parse_args(&args(
            "--workload serve-churn --seed 3 --seconds 0 --trace 1"
        ))
        .is_err());
        assert!(parse_args(&args(
            "--workload serve-churn --seed 3 --seconds 5 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&args("--workload serve-churn --seed 3 --seconds 5")).is_err());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
