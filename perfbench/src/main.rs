//! Benchmark of the serving stack (`sm-service` `Service` and `sm-shard`
//! `ShardedService`), driven through its public API from one process.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --scratch <dir>
//! ```
//!
//! Each run builds its inputs from `--seed`, measures for `--seconds`,
//! checks every answer, and prints one JSON object as the last line of
//! standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. A line starting `properties` before
//! it states the workload's input properties (graph size, distinct
//! queries, repeated and capped shares, update rate). Durable state lives
//! in a uniquely named directory under `--scratch` and is removed
//! afterwards. The exit code is non-zero when any answer was wrong.

mod layers;
mod served;
mod sharded;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

/// Every read is capped at this many matches.
pub const CAP: u64 = 100_000;

/// Workers per `Service`; the sharded tier runs one worker per shard.
pub const WORKERS: usize = 2;

/// End-to-end metrics (`--trace 0`), each `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`), each `(name, unit)`. A metric whose
/// layer a workload does not exercise reads 0 (see `BENCHMARK.json`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("service.queue_wait_us_p50", "us"),
    ("service.queue_wait_us_p90", "us"),
    ("service.plan_us_p50", "us"),
    ("service.execute_us_p50", "us"),
    ("service.execute_us_p90", "us"),
    ("service.drain_us_p50", "us"),
    ("service.submit_overhead_us_p50", "us"),
    ("plan_cache.hit_frac", "frac"),
    ("plan_cache.evictions_per_read", "count"),
    ("canon.us_p50", "us"),
    ("planner.rank_ms_p50", "ms"),
    ("planner.rank_ms_p90", "ms"),
    ("planner.combos_scored_per_read", "count"),
    ("planner.replans_per_read", "count"),
    ("plan.compile_ms_p50", "ms"),
    ("filter.ms_p50", "ms"),
    ("filter.candidates_avg", "count"),
    ("order.ms_p50", "ms"),
    ("build.ms_p50", "ms"),
    ("build.space_kib_p50", "KiB"),
    ("enumerate.ms_p50", "ms"),
    ("enumerate.ms_p90", "ms"),
    ("enumerate.recursions_per_read", "count"),
    ("enumerate.matches_per_recursion", "frac"),
    ("intersect.calls_per_read", "count"),
    ("intersect.calls_per_recursion", "frac"),
    ("pool.idle_frac", "frac"),
    ("pool.steal_frac", "frac"),
    ("shard.fanout_per_read", "count"),
    ("shard.embeddings_streamed_per_read", "count"),
    ("shard.stitched_frac", "frac"),
    ("shard.halo_frac", "frac"),
    ("shard.skew_pct", "%"),
    ("shard.vs_single_p50_ratio", "ratio"),
    ("update_p50_ms", "ms"),
    ("update_p90_ms", "ms"),
    ("recovery_s", "s"),
    ("delta.commit_ms_p50", "ms"),
    ("delta.standing_delta_per_batch", "count"),
    ("delta.plans_evicted_per_batch", "count"),
    ("wal.append_ms_p50", "ms"),
    ("wal.append_ms_p90", "ms"),
    ("wal.bytes_per_batch", "B"),
    ("snapshot.write_ms", "ms"),
    ("snapshot.kib", "KiB"),
    ("recovery.replayed_batches", "count"),
    ("recovery.ms_per_batch", "ms"),
    ("writer.late_ms_p90", "ms"),
    ("writer.update_rate", "1/s"),
    ("trace_overhead_frac", "frac"),
];

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["hot-small", "hot-heavy", "cold-auto", "mixed-sharded"];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scratch: PathBuf,
}

/// What one run measured and checked.
pub struct Report {
    /// Reads and updates attempted.
    pub attempted: u64,
    /// Of those, the ones that failed (bad end state or wrong answer).
    pub failed: u64,
    /// Whether every correctness check passed.
    pub correct: bool,
    metrics: Vec<(&'static str, f64)>,
    props: Vec<(&'static str, f64)>,
}

impl Report {
    fn new() -> Self {
        Report {
            attempted: 0,
            failed: 0,
            correct: true,
            metrics: Vec::new(),
            props: Vec::new(),
        }
    }

    /// Record a metric; the name must be in one of the metric tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the metric tables"
        );
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Record a workload property (printed, not compared).
    pub fn prop(&mut self, name: &'static str, value: f64) {
        self.props.retain(|(n, _)| *n != name);
        self.props.push((name, value));
    }

    /// Record a failed correctness check.
    pub fn fail(&mut self, what: &str) {
        eprintln!("check failed: {what}");
        self.correct = false;
    }

    /// A metric recorded earlier in this run.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// Numbers as JSON: all digits, and never NaN or infinity (callers
/// reject non-finite values before printing).
fn json_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// A scratch directory unique to this process, workload and call.
pub fn unique_dir(scratch: &std::path::Path, workload: &str, tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    scratch.join(format!("{}-{workload}-{tag}-{n}", std::process::id()))
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scratch = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--scratch" => scratch = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scratch: scratch.ok_or("--scratch is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("perfbench: cannot create {}: {e}", args.scratch.display());
        return ExitCode::FAILURE;
    }
    let mut report = Report::new();
    match args.workload.as_str() {
        "mixed-sharded" => sharded::run(&args, &mut report),
        name => served::run(name, &args, &mut report),
    }
    if !args.trace {
        report.set("peak_rss_mib", stats::peak_rss_mib());
    }

    let props: Vec<String> = report
        .props
        .iter()
        .map(|(n, v)| format!("\"{n}\": {}", json_num(*v)))
        .collect();
    println!("properties {{{}}}", props.join(", "));

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut missing = Vec::new();
    let mut fields = Vec::new();
    for &(name, unit) in table {
        match report.get(name) {
            Some(v) if v.is_finite() => fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(v)
            )),
            _ => missing.push(name),
        }
    }
    if !missing.is_empty() {
        eprintln!("perfbench: metrics not measured: {}", missing.join(", "));
        return ExitCode::FAILURE;
    }
    let correct = report.correct && report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
