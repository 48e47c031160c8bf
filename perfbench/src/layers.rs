//! Per-layer measurements from outside the program: the service's own
//! telemetry, and replays that time calls into each layer's public
//! functions on the queries a phase served.

use crate::stats::{median, quantile, ratio};
use crate::{Report, WORKERS};
use sm_graph::canon::canonical_form;
use sm_graph::Graph;
use sm_match::enumerate::parallel::ParallelStrategy;
use sm_match::enumerate::CountSink;
use sm_match::{DataContext, Executor, MatchConfig, Pipeline};
use sm_planner::planner::PlannerCounters;
use sm_planner::Planner;
use sm_runtime::Trace;
use sm_service::MetricsReport;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Reads replayed through the planner, compiler and engine.
const REPLAY_SAMPLES: usize = 128;

/// Each replayed enumeration stops after this long: a runaway plan
/// reads as this limit instead of stalling the run.
const REPLAY_LIMIT: Duration = Duration::from_secs(1);

/// Reads replayed through `canonical_form`.
const CANON_SAMPLES: usize = 4_096;

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Service dispatch phases from the service's latency histograms.
pub fn dispatch(m: &MetricsReport, report: &mut Report) {
    let us = |h: &sm_runtime::HistSnapshot, q: f64| {
        // Same tail rule as the client-side percentiles.
        let beyond = h.count() as f64 * (1.0 - q);
        if q > 0.5 && beyond < crate::stats::MIN_TAIL_SAMPLES as f64 {
            f64::NAN
        } else {
            h.quantile(q) as f64 / 1e3
        }
    };
    report.set("service.queue_wait_us_p50", us(&m.queue_wait, 0.5));
    report.set("service.queue_wait_us_p90", us(&m.queue_wait, 0.9));
    report.set("service.plan_us_p50", us(&m.plan, 0.5));
    report.set("service.execute_us_p50", us(&m.execute, 0.5));
    report.set("service.execute_us_p90", us(&m.execute, 0.9));
    report.set("service.drain_us_p50", us(&m.drain, 0.5));
}

/// Replay the reads' queries through each layer of the read path:
/// `canonical_form`, `Planner::rank`, `Pipeline::plan` (filter, order,
/// candidate-space build) and `Executor::run` / `run_parallel`. `fixed`
/// is the pipeline the service compiles with; `None` means the planner
/// chooses, and the replay compiles the combo a fresh planner ranks
/// first. Returns the replay planner's counters.
pub fn replay(
    g: &Graph,
    reads: &[&Graph],
    fixed: Option<&Pipeline>,
    report: &mut Report,
) -> PlannerCounters {
    let ctx = DataContext::new(g);

    let mut canon_us: Vec<f64> = reads
        .iter()
        .take(CANON_SAMPLES)
        .map(|q| {
            let t = Instant::now();
            black_box(canonical_form(black_box(q)));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();

    let planner = Planner::new();
    let base = MatchConfig::default();
    let mut rank_ms = Vec::new();
    let mut compile_ms = Vec::new();
    let mut filter_ms = Vec::new();
    let mut order_ms = Vec::new();
    let mut build_ms = Vec::new();
    let mut space_kib = Vec::new();
    let mut candidates = Vec::new();
    let mut enum_ms = Vec::new();
    let (mut recursions, mut matches, mut intersections) = (0u64, 0u64, 0u64);
    let (mut busy_ns, mut idle_ns, mut steals, mut morsels) = (0u128, 0u128, 0u64, 0u64);
    // Short runs cycle through their reads to fill the sample; a query
    // a later graph made unsatisfiable compiles to nothing and is skipped.
    for q in reads.iter().cycle().take(4 * REPLAY_SAMPLES) {
        if enum_ms.len() == REPLAY_SAMPLES {
            break;
        }
        let canon = sm_planner::canon_hash(q);
        let t = Instant::now();
        let ranked = planner.rank(q, &ctx, &base, canon);
        rank_ms.push(ms(t));
        let (pipeline, kernel) = match (fixed, ranked.first()) {
            (Some(p), _) => (p.clone(), base.intersect),
            (None, Some(best)) => (best.combo.pipeline(), best.combo.kernel),
            (None, None) => continue,
        };
        let trace = Trace::enabled();
        let cfg = MatchConfig {
            intersect: kernel,
            time_limit: Some(REPLAY_LIMIT),
            trace: trace.clone(),
            ..base.clone()
        };
        let t = Instant::now();
        let Ok(plan) = pipeline.plan(q, &ctx, &cfg) else {
            continue;
        };
        compile_ms.push(ms(t));
        filter_ms.push(plan.filter_time.as_secs_f64() * 1e3);
        order_ms.push(plan.order_time.as_secs_f64() * 1e3);
        build_ms.push(plan.build_time.as_secs_f64() * 1e3);
        candidates.push(plan.candidates.average());
        space_kib.push(plan.space.as_ref().map_or(0, |s| s.memory_bytes()) as f64 / 1024.0);

        let exec = Executor::new(&plan, g);
        let t = Instant::now();
        let stats = exec.run(&mut CountSink);
        enum_ms.push(ms(t));
        recursions += stats.recursions;
        matches += stats.matches;
        intersections += trace.snapshot().totals().intersections();

        let (par, _) = exec.run_parallel::<CountSink>(WORKERS, ParallelStrategy::Morsel);
        if let Some(pool) = par.parallel {
            for w in &pool.workers {
                busy_ns += w.busy.as_nanos();
                idle_ns += w.idle.as_nanos();
                steals += w.steals;
                morsels += w.morsels;
            }
        }
    }
    let n = enum_ms.len() as f64;
    report.set("canon.us_p50", median(&mut canon_us).unwrap_or(f64::NAN));
    report.set(
        "planner.rank_ms_p50",
        median(&mut rank_ms).unwrap_or(f64::NAN),
    );
    report.set(
        "planner.rank_ms_p90",
        quantile(&mut rank_ms, 0.9).unwrap_or(f64::NAN),
    );
    report.set(
        "plan.compile_ms_p50",
        median(&mut compile_ms).unwrap_or(f64::NAN),
    );
    report.set("filter.ms_p50", median(&mut filter_ms).unwrap_or(f64::NAN));
    report.set(
        "filter.candidates_avg",
        ratio(candidates.iter().sum(), candidates.len() as f64),
    );
    report.set("order.ms_p50", median(&mut order_ms).unwrap_or(f64::NAN));
    report.set("build.ms_p50", median(&mut build_ms).unwrap_or(f64::NAN));
    report.set(
        "build.space_kib_p50",
        median(&mut space_kib).unwrap_or(f64::NAN),
    );
    report.set("enumerate.ms_p50", median(&mut enum_ms).unwrap_or(f64::NAN));
    report.set(
        "enumerate.ms_p90",
        quantile(&mut enum_ms, 0.9).unwrap_or(f64::NAN),
    );
    report.set("enumerate.recursions_per_read", ratio(recursions as f64, n));
    report.set(
        "enumerate.matches_per_recursion",
        ratio(matches as f64, recursions as f64),
    );
    report.set("intersect.calls_per_read", ratio(intersections as f64, n));
    report.set(
        "intersect.calls_per_recursion",
        ratio(intersections as f64, recursions as f64),
    );
    report.set(
        "pool.idle_frac",
        ratio(idle_ns as f64, (busy_ns + idle_ns) as f64),
    );
    report.set("pool.steal_frac", ratio(steals as f64, morsels as f64));
    planner.counters()
}

/// Where a read's median time goes, as shares of the client-side p50
/// (medians, so the shares need not sum to 1). The service's queue-wait
/// phase runs from submit to activation and so contains its plan phase.
/// On a warm cache that plan phase is canonicalize plus lookup and counts
/// as dispatch; on a cold one it is planner rank plus compile and counts
/// as plan build. Printed as properties.
pub fn shares(log: &crate::stats::ReadLog, report: &mut Report) {
    let p50_us = log.latency_ms(0.5).unwrap_or(f64::NAN) * 1e3;
    let get = |n: &str| report.get(n).unwrap_or(0.0);
    let plan = if get("plan_cache.hit_frac") < 0.5 {
        get("service.plan_us_p50")
    } else {
        0.0
    };
    let dispatch = get("service.queue_wait_us_p50") - plan
        + get("service.drain_us_p50")
        + get("service.submit_overhead_us_p50");
    let execute = get("service.execute_us_p50");
    report.prop("share.dispatch", ratio(dispatch, p50_us));
    report.prop("share.plan_build", ratio(plan, p50_us));
    report.prop("share.execute", ratio(execute, p50_us));
}

/// The shard, write-path and recovery metrics of a workload without a
/// sharded tier or writes: those layers do no work, so they read 0.
pub fn no_writes(report: &mut Report) {
    for name in [
        "shard.fanout_per_read",
        "shard.embeddings_streamed_per_read",
        "shard.stitched_frac",
        "shard.halo_frac",
        "shard.skew_pct",
        "shard.vs_single_p50_ratio",
        "update_p50_ms",
        "update_p90_ms",
        "recovery_s",
        "delta.commit_ms_p50",
        "delta.standing_delta_per_batch",
        "delta.plans_evicted_per_batch",
        "wal.append_ms_p50",
        "wal.append_ms_p90",
        "wal.bytes_per_batch",
        "snapshot.write_ms",
        "snapshot.kib",
        "recovery.replayed_batches",
        "recovery.ms_per_batch",
        "writer.late_ms_p90",
        "writer.update_rate",
    ] {
        report.set(name, 0.0);
    }
}
