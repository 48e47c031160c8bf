//! The single-`Service` workloads: `hot-small`, `hot-heavy` (a fixed
//! query pool served from a warm plan cache) and `cold-auto` (every read
//! a query the service has not seen, planned by the self-tuning
//! planner).

use crate::stats::{median, ratio, ReadLog};
use crate::{layers, Args, Report, CAP, WORKERS};
use sm_graph::canon::canonical_form;
use sm_graph::gen::query::{generate_query_set, Density, QuerySetSpec};
use sm_graph::gen::rmat::{rmat_graph, RmatParams};
use sm_graph::Graph;
use sm_match::{Algorithm, DataContext, MatchConfig, PlanSelection};
use sm_runtime::{Counter, Rng64, Trace};
use sm_service::{QueryRequest, Service, ServiceConfig, ServiceOutcome};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Generation seed of the `cold-auto` RMAT graph (the graph is fixed;
/// the queries come from `--seed`).
const RMAT_SEED: u64 = 0xA11CE;

/// `cold-auto` queries served before timing (never read again).
const COLD_WARMUP: usize = 8;

/// Longest a warm-up read may run.
const WARMUP_DEADLINE: Duration = Duration::from_secs(1);

/// `cold-auto` reads generated per run: more than a run can serve.
const COLD_POOL: usize = 3_000;

/// Reads a phase completes before it may end: enough for a p90 with ten
/// reads beyond it.
const MIN_READS: u64 = 100;

/// How far past its length a phase may run to complete [`MIN_READS`].
const MAX_OVERRUN: Duration = Duration::from_secs(30);

/// `cold-auto` reads re-run with a fixed pipeline after timing.
const COLD_CHECKS: usize = 32;

/// One single-service workload.
struct Workload {
    name: &'static str,
    clients: usize,
    plan: PlanSelection,
    /// Reads draw from a fixed pool (`true`) or each read is a query not
    /// served before (`false`).
    repeat: bool,
}

impl Workload {
    fn by_name(name: &str) -> Workload {
        match name {
            "hot-small" => Workload {
                name: "hot-small",
                clients: 2,
                plan: PlanSelection::Fixed,
                repeat: true,
            },
            "hot-heavy" => Workload {
                name: "hot-heavy",
                clients: 2,
                plan: PlanSelection::Fixed,
                repeat: true,
            },
            "cold-auto" => Workload {
                name: "cold-auto",
                clients: 1,
                plan: PlanSelection::Auto,
                repeat: false,
            },
            other => unreachable!("not a single-service workload: {other}"),
        }
    }

    /// The data graph, generated in memory.
    fn graph(&self) -> Graph {
        match self.name {
            "hot-small" => dataset("ye"),
            "hot-heavy" => dataset("hu"),
            _ => rmat_graph(10_000, 8.0, 4, RmatParams::PAPER, RMAT_SEED),
        }
    }

    /// Query-set shapes `(vertices, density, count)` the list is drawn
    /// from.
    fn sets(&self) -> &'static [(usize, Density, usize)] {
        match self.name {
            "hot-small" => &[
                (4, Density::Any, 128),
                (8, Density::Dense, 64),
                (8, Density::Sparse, 64),
            ],
            "hot-heavy" => &[
                (8, Density::Dense, 64),
                (8, Density::Sparse, 64),
                (12, Density::Dense, 64),
                (12, Density::Sparse, 64),
            ],
            _ => &[
                (8, Density::Dense, COLD_POOL / 2),
                (8, Density::Sparse, COLD_POOL / 2),
            ],
        }
    }

    /// The hot pools' cost band: the most search-tree nodes a pool
    /// query's sequential run may visit. `hot-small` keeps queries small
    /// enough that dispatch dominates; `hot-heavy` drops the rare query
    /// whose search alone would swing a run's mean cost.
    fn max_recursions(&self) -> Option<u64> {
        match self.name {
            "hot-small" => Some(1_000),
            "hot-heavy" => Some(100_000),
            _ => None,
        }
    }

    /// The query list with its expected counts: the pool for the hot
    /// workloads (counts from a sequential `Pipeline::run`), the arrival
    /// sequence (warm-up queries first, counts unknown) for `cold-auto`.
    /// Queries are distinct up to isomorphism; sets are interleaved so
    /// every prefix mixes them.
    fn queries(&self, g: &Graph, seed: u64) -> (Vec<Graph>, Vec<u64>) {
        let ctx = DataContext::new(g);
        let pipeline = Algorithm::GraphQl.optimized();
        let mut seen = HashSet::new();
        let mut picked: Vec<Vec<(Graph, u64)>> = Vec::new();
        for (i, &(n, density, count)) in self.sets().iter().enumerate() {
            // Screened pools draw twice the candidates they keep.
            let drawn = if self.max_recursions().is_some() {
                count * 2
            } else {
                count
            };
            let spec = QuerySetSpec {
                num_vertices: n,
                density,
                count: drawn,
            };
            let mut set = Vec::new();
            for q in generate_query_set(g, spec, seed ^ ((i as u64 + 1) << 40)) {
                if !seen.insert(canonical_form(&q).code) {
                    continue;
                }
                match self.max_recursions() {
                    None => set.push((q, 0, 0)),
                    Some(max) => {
                        let out = pipeline.run(&q, &ctx, &MatchConfig::default());
                        if out.recursions <= max {
                            set.push((q, out.matches, out.recursions));
                        }
                    }
                }
            }
            // Screened pools keep the candidates at evenly spaced ranks of
            // their search cost, so every seed's pool has the same cost
            // profile (the first candidate of each of `count` rank buckets).
            set.sort_by_key(|c| c.2);
            let len = set.len();
            let set: Vec<(Graph, u64)> = set
                .into_iter()
                .enumerate()
                .filter(|(k, _)| k * count % len < count)
                .map(|(_, (q, m, _))| (q, m))
                .collect();
            picked.push(set);
        }
        let mut sets: Vec<_> = picked.into_iter().map(Vec::into_iter).collect();
        let mut queries = Vec::new();
        let mut expected = Vec::new();
        while sets.iter().any(|s| s.len() > 0) {
            for (q, m) in sets.iter_mut().filter_map(Iterator::next) {
                queries.push(q);
                expected.push(m);
            }
        }
        (queries, expected)
    }
}

/// A stand-in dataset from `sm-datasets`, generated (never loaded from
/// the on-disk cache).
pub fn dataset(abbrev: &str) -> Graph {
    sm_datasets::generate(&sm_datasets::by_abbrev(abbrev).expect("known dataset"))
}

/// Reads kept in order per phase, for the correctness sample and the
/// layer replays.
const KEPT_READS: usize = 4_096;

/// One timed phase: the read log plus what the checks and properties
/// need.
struct Phase {
    log: ReadLog,
    /// The first reads, in each client's order: `(query, matches)`.
    kept: Vec<(usize, u64)>,
    /// Which queries were read at least once.
    read: Vec<bool>,
    capped: u64,
    failed: u64,
    /// Reads cut by the phase's hard end (neither attempted nor failed).
    cut: u64,
}

/// Build the service and warm it: the set-up `setup_s` times.
fn setup(w: &Workload, queries: &[Graph], trace: bool) -> (Service, f64) {
    let t0 = Instant::now();
    let graph = w.graph();
    let base_config = MatchConfig {
        plan: w.plan,
        ..MatchConfig::default()
    };
    let cfg = ServiceConfig {
        workers: WORKERS,
        max_active: 4,
        // Room for every pool plan: the hot pools are served warm.
        cache_capacity: if w.repeat { 1024 } else { 256 },
        pipeline: Algorithm::GraphQl.optimized(),
        base_config,
        trace: if trace {
            Trace::enabled()
        } else {
            Trace::disabled()
        },
        ..ServiceConfig::default()
    };
    let svc = Service::new(graph, cfg);
    let warm = if w.repeat {
        queries
    } else {
        &queries[..COLD_WARMUP]
    };
    // A warm-up read only needs to reach the plan cache (its plan is
    // cached before it runs), so a runaway one is cut short.
    for q in warm {
        let req = QueryRequest::count(q.clone())
            .with_cap(CAP)
            .with_deadline(WARMUP_DEADLINE);
        svc.submit(req).wait();
    }
    (svc, t0.elapsed().as_secs_f64())
}

/// Closed-loop reads for `seconds`: each client submits its next read
/// when the previous one has drained. Every answer is checked as it
/// arrives: the end state must be `Complete` or `CapHit` and, on the hot
/// pools, the count must equal the sequential ground truth `expected`.
///
/// The phase runs on past `seconds` until [`MIN_READS`] reads completed,
/// but never more than [`MAX_OVERRUN`] past it: each read carries a deadline
/// at that hard end, and a read cut there is counted as cut, not as
/// attempted.
fn drive(
    svc: &Service,
    w: &Workload,
    queries: &[Graph],
    expected: &[u64],
    seed: u64,
    seconds: f64,
) -> Phase {
    let cursor = AtomicUsize::new(if w.repeat { 0 } else { COLD_WARMUP });
    let done = AtomicU64::new(0);
    let started = Instant::now();
    let end = started + Duration::from_secs_f64(seconds);
    let hard_end = end + MAX_OVERRUN;
    let phases: Vec<Phase> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..w.clients)
            .map(|c| {
                let (cursor, done) = (&cursor, &done);
                s.spawn(move || {
                    let client_seed = seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9);
                    let mut rng = Rng64::seed_from_u64(client_seed);
                    let mut p = Phase {
                        log: ReadLog::new(client_seed),
                        kept: Vec::new(),
                        read: vec![false; queries.len()],
                        capped: 0,
                        failed: 0,
                        cut: 0,
                    };
                    loop {
                        let now = Instant::now();
                        if now >= hard_end
                            || (now >= end && done.load(Ordering::Relaxed) >= MIN_READS)
                        {
                            break;
                        }
                        let qi = if w.repeat {
                            rng.next_u64_below(queries.len() as u64) as usize
                        } else {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= queries.len() {
                                eprintln!("note: {} ran out of unseen queries", w.name);
                                break;
                            }
                            i
                        };
                        let req = QueryRequest::count(queries[qi].clone())
                            .with_cap(CAP)
                            .with_deadline(hard_end.saturating_duration_since(now));
                        let t0 = Instant::now();
                        let report = svc.submit(req).wait();
                        let client_ns = t0.elapsed().as_nanos() as u64;
                        if report.outcome == ServiceOutcome::Deadline && Instant::now() >= hard_end
                        {
                            p.cut += 1;
                            break;
                        }
                        done.fetch_add(1, Ordering::Relaxed);
                        p.log.record(client_ns, report.elapsed.as_nanos() as u64);
                        p.read[qi] = true;
                        if p.kept.len() < KEPT_READS {
                            p.kept.push((qi, report.matches));
                        }
                        let ok = match report.outcome {
                            ServiceOutcome::Complete => true,
                            ServiceOutcome::CapHit => {
                                p.capped += 1;
                                true
                            }
                            _ => false,
                        } && (!w.repeat || report.matches == expected[qi]);
                        if !ok {
                            p.failed += 1;
                            if p.failed <= 3 {
                                eprintln!(
                                    "check failed: {} query {qi}: {:?} with {} matches",
                                    w.name, report.outcome, report.matches
                                );
                            }
                        }
                    }
                    p
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut it = phases.into_iter();
    let mut all = it.next().expect("at least one client");
    for p in it {
        all.log.merge(p.log);
        all.kept.extend(p.kept);
        for (a, b) in all.read.iter_mut().zip(p.read) {
            *a |= b;
        }
        all.capped += p.capped;
        all.failed += p.failed;
        all.cut += p.cut;
    }
    all
}

/// Count a phase's reads and failures into the report; on `cold-auto`,
/// also re-run a seeded sample of the served reads with the fixed
/// GraphQL pipeline: the count must not depend on the plan.
fn check(
    w: &Workload,
    g: &Graph,
    queries: &[Graph],
    phase: &Phase,
    seed: u64,
    report: &mut Report,
) {
    report.attempted += phase.log.reads();
    report.failed += phase.failed;
    if phase.failed > 0 {
        report.fail(&format!("{}: {} reads failed", w.name, phase.failed));
    }
    if w.repeat || phase.kept.is_empty() {
        return;
    }
    let ctx = DataContext::new(g);
    let pipeline = Algorithm::GraphQl.optimized();
    let mut rng = Rng64::seed_from_u64(seed ^ 0xC0FFEE);
    for _ in 0..COLD_CHECKS.min(phase.kept.len()) {
        let (qi, served) = phase.kept[rng.next_u64_below(phase.kept.len() as u64) as usize];
        let want = pipeline
            .run(&queries[qi], &ctx, &MatchConfig::default())
            .matches;
        if served != want {
            report.failed += 1;
            report.fail(&format!(
                "cold-auto query {qi}: served {served} vs fixed-plan {want}"
            ));
        }
    }
}

/// Properties of the reads: what the workload actually exercised.
fn properties(g: &Graph, queries: &[Graph], phase: &Phase, report: &mut Report) {
    let n = phase.log.reads() as f64;
    let distinct = phase.read.iter().filter(|&&r| r).count() as f64;
    report.prop("graph_vertices", g.num_vertices() as f64);
    report.prop("graph_edges", g.num_edges() as f64);
    report.prop("pool_queries", queries.len() as f64);
    report.prop("distinct_queries_read", distinct);
    // Queries are distinct up to isomorphism, so a read repeats an
    // earlier canonical form exactly when its query was read before.
    report.prop("repeat_frac", ratio(n - distinct, n));
    report.prop("caphit_frac", ratio(phase.capped as f64, n));
    report.prop("update_rate", 0.0);
    report.prop("reads", n);
    report.prop("cut_reads", phase.cut as f64);
    // Reads that ran for more than ten times the median: the runaways the
    // winsorized `qps` counts at p90 length.
    let p50 = phase.log.latency_ms(0.5).unwrap_or(0.0);
    report.prop("runaway_frac", phase.log.slower_than(10.0 * p50));
}

/// Run one single-service workload.
pub fn run(name: &str, args: &Args, report: &mut Report) {
    let w = Workload::by_name(name);
    // Inputs (bookkeeping, outside `setup_s`): the query list and, for
    // the hot pools, sequential ground-truth counts.
    let g = w.graph();
    let (queries, expected) = w.queries(&g, args.seed);

    if !args.trace {
        let mut setup_s = Vec::new();
        let mut svc = None;
        for _ in 0..SETUP_REPS {
            drop(svc.take());
            let (s, secs) = setup(&w, &queries, false);
            setup_s.push(secs);
            svc = Some(s);
        }
        let svc = svc.expect("at least one set-up");
        let phase = drive(&svc, &w, &queries, &expected, args.seed, args.seconds);
        drop(svc);
        check(&w, &g, &queries, &phase, args.seed, report);
        properties(&g, &queries, &phase, report);
        report.set("setup_s", median(&mut setup_s).unwrap_or(f64::NAN));
        report.set("qps", phase.log.qps(w.clients).unwrap_or(f64::NAN));
        report.set(
            "query_p50_ms",
            phase.log.latency_ms(0.5).unwrap_or(f64::NAN),
        );
        report.set(
            "query_p90_ms",
            phase.log.latency_ms(0.9).unwrap_or(f64::NAN),
        );
        return;
    }

    // Traced run: an untraced phase for the overhead baseline, then the
    // same reads against a service built with the trace handle enabled.
    let (svc, _) = setup(&w, &queries, false);
    let plain = drive(&svc, &w, &queries, &expected, args.seed, args.seconds / 2.0);
    drop(svc);
    check(&w, &g, &queries, &plain, args.seed, report);

    let (svc, _) = setup(&w, &queries, true);
    let (hits0, misses0, evictions0, _) = svc.cache_stats();
    let counters0 = svc.counters();
    let phase = drive(&svc, &w, &queries, &expected, args.seed, args.seconds);
    let (hits, misses, evictions, _) = svc.cache_stats();
    let counters = svc.counters();
    let metrics = svc.metrics_report();
    drop(svc);
    check(&w, &g, &queries, &phase, args.seed, report);
    properties(&g, &queries, &phase, report);

    let reads = phase.log.reads() as f64;
    let delta = |c: Counter| (counters.get(c) - counters0.get(c)) as f64;
    layers::dispatch(&metrics, report);
    report.set(
        "service.submit_overhead_us_p50",
        phase.log.overhead_us_p50().unwrap_or(f64::NAN),
    );
    report.set(
        "plan_cache.hit_frac",
        ratio(
            (hits - hits0) as f64,
            (hits - hits0 + misses - misses0) as f64,
        ),
    );
    report.set(
        "plan_cache.evictions_per_read",
        ratio((evictions - evictions0) as f64, reads),
    );
    report.set(
        "planner.replans_per_read",
        ratio(delta(Counter::ReplansTriggered), reads),
    );
    let read_queries: Vec<&Graph> = phase.kept.iter().map(|&(qi, _)| &queries[qi]).collect();
    let fixed = (w.plan == PlanSelection::Fixed).then(|| Algorithm::GraphQl.optimized());
    let replay_planner = layers::replay(&g, &read_queries, fixed.as_ref(), report);
    let served_autotuned = delta(Counter::PlansAutotuned);
    let scored = if served_autotuned > 0.0 {
        ratio(delta(Counter::EstimatorEvals), served_autotuned)
    } else {
        ratio(
            replay_planner.estimator_evals as f64,
            replay_planner.plans_autotuned as f64,
        )
    };
    report.set("planner.combos_scored_per_read", scored);
    layers::no_writes(report);
    layers::shares(&phase.log, report);
    report.set(
        "trace_overhead_frac",
        ratio(
            plain.log.qps(w.clients).unwrap_or(f64::NAN),
            phase.log.qps(w.clients).unwrap_or(f64::NAN),
        ) - 1.0,
    );
}
