//! `mixed-sharded`: a durable two-shard `ShardedService` over the Yeast
//! stand-in. One closed-loop reader rotates through iso, edge-injective
//! and homomorphism counts and top-k; one open-loop writer applies
//! update batches on a fixed schedule while four standing queries are
//! maintained; after the run the tier restarts from its directory.

use crate::served::dataset;
use crate::stats::{median, quantile, ratio, ReadLog};
use crate::{layers, unique_dir, Args, Report, CAP};
use sm_delta::{UpdateBatch, UpdateStream, UpdateStreamSpec, VersionedGraph};
use sm_durable::{DurabilityOptions, DurableStore, FsyncPolicy, SnapshotData};
use sm_graph::canon::canonical_form;
use sm_graph::gen::query::{generate_query_set, Density, QuerySetSpec};
use sm_graph::label_index::LabelPairEdgeCounts;
use sm_graph::{Graph, NlfIndex, VertexId};
use sm_match::enumerate::CollectSink;
use sm_match::{
    Algorithm, DataContext, FilterKind, LcMethod, MatchConfig, MatchSemantics, OrderKind, Pipeline,
};
use sm_runtime::{Counter, CounterBlock, Trace};
use sm_service::{QueryRequest, Service, ServiceConfig, ServiceOutcome};
use sm_shard::{PartitionStrategy, ShardConfig, ShardStandingId, ShardedService};
use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
const HALO: u32 = 3;
/// Standing queries registered at set-up.
const STANDING: usize = 4;
/// Largest match set a standing query may start with.
const STANDING_MAX_MATCHES: u64 = 2_000;
/// Operations per update batch.
const BATCH_OPS: usize = 16;
/// The writer's schedule: batches per second. The batch count of a phase
/// is this rate times its length, the same on every run. Each batch holds
/// the tier's write lock for a few ms; at this rate the reads it blocks
/// stay below the read p90, which would otherwise sit on the edge between
/// blocked and unblocked reads and jump between runs.
const UPDATE_RATE: f64 = 15.0;
/// Batches a phase applies at least (enough for a p90 of the writes);
/// a short run's writer runs past its length to apply them.
const MIN_BATCHES: usize = 200;
/// `k` of the top-k reads.
const TOP_K: u64 = 64;
/// Read pool: Q4 and Q6 queries of diameter at most the halo.
const READ_SETS: [(usize, usize); 2] = [(4, 64), (6, 64)];
/// Largest full answer a pool query may have in any read mode.
const READ_MAX_MATCHES: u64 = 500;
/// Most search-tree nodes a pool query may visit, summed over the
/// injectivity modes of sequential runs.
const READ_MAX_RECURSIONS: u64 = 2_000;
/// Rounds of the pool the 1-shard vs 2-shard comparison times.
const SHARD_RATIO_ROUNDS: usize = 3;

/// The four read modes a reader rotates through.
fn request(q: &Graph, mode: usize) -> QueryRequest {
    let semantics = match mode % 4 {
        0 => MatchSemantics::isomorphism(),
        1 => MatchSemantics::edge_injective(),
        2 => MatchSemantics::homomorphism(),
        _ => MatchSemantics::isomorphism().top_k(TOP_K),
    };
    QueryRequest::count(q.clone())
        .with_semantics(semantics.count_only())
        .with_cap(CAP)
}

fn tier_config(shards: usize, trace: bool) -> ShardConfig {
    ShardConfig {
        shards,
        strategy: PartitionStrategy::LabelAware,
        halo_depth: HALO,
        seed: 0,
        service: ServiceConfig {
            workers: 1,
            // Room for every pool plan in every mode: plans leave the
            // cache only when a write evicts them.
            cache_capacity: 1024,
            pipeline: Algorithm::GraphQl.optimized(),
            trace: if trace {
                Trace::enabled()
            } else {
                Trace::disabled()
            },
            ..ServiceConfig::default()
        },
    }
}

fn durability() -> DurabilityOptions {
    DurabilityOptions {
        fsync: FsyncPolicy::PerBatch,
        // Manual snapshots only: recovery replays every batch of the run.
        snapshot_threshold_bytes: 0,
        ..DurabilityOptions::default()
    }
}

/// Longest shortest path of a connected query (`u32::MAX` if
/// disconnected).
fn diameter(q: &Graph) -> u32 {
    let n = q.num_vertices();
    let mut worst = 0;
    for s in 0..n as VertexId {
        let mut dist = vec![u32::MAX; n];
        dist[s as usize] = 0;
        let mut queue = std::collections::VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            for &v in q.neighbors(u) {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = dist[u as usize] + 1;
                    queue.push_back(v);
                }
            }
        }
        worst = worst.max(dist.into_iter().max().unwrap_or(0));
    }
    worst
}

/// Everything generated from the seed before timing.
struct Inputs {
    graph: Graph,
    reads: Vec<Graph>,
    standing: Vec<Graph>,
    batches: Vec<UpdateBatch>,
    /// `VersionedGraph::commit` time of each batch, replayed on a twin.
    commit_ms: Vec<f64>,
}

fn inputs(seed: u64, batches: usize) -> Inputs {
    let graph = dataset("ye");
    let ctx = DataContext::new(&graph);
    let pipeline = Algorithm::GraphQl.optimized();
    let mut seen = HashSet::new();
    // Distinct queries of `n` vertices and diameter at most the halo
    // that `keep` accepts.
    let mut draw = |n: usize, count: usize, salt: u64, keep: &dyn Fn(&Graph) -> bool| {
        let spec = QuerySetSpec {
            num_vertices: n,
            density: Density::Any,
            count: count * 16,
        };
        let mut out = Vec::new();
        for q in generate_query_set(&graph, spec, seed ^ salt) {
            if out.len() < count
                && q.num_edges() >= 1
                && diameter(&q) <= HALO
                && seen.insert(canonical_form(&q).code)
                && keep(&q)
            {
                out.push(q);
            }
        }
        out
    };
    // Read pool: in each read mode a query's full answer stays small and
    // its sequential search within a cost band. The tier enumerates every
    // shard uncapped and applies caps (and top-k) at the router, so a
    // read costs its full answer, whatever its cap.
    let in_band = |q: &Graph| {
        let mut nodes = 0;
        for injectivity in [
            MatchSemantics::isomorphism(),
            MatchSemantics::edge_injective(),
            MatchSemantics::homomorphism(),
        ] {
            let cfg = MatchConfig {
                semantics: injectivity.count_only(),
                max_matches: Some(READ_MAX_MATCHES + 1),
                ..MatchConfig::default()
            };
            let out = pipeline.run(q, &ctx, &cfg);
            if out.matches > READ_MAX_MATCHES {
                return false;
            }
            nodes += out.recursions;
        }
        nodes <= READ_MAX_RECURSIONS
    };
    let mut reads = Vec::new();
    for (i, &(n, count)) in READ_SETS.iter().enumerate() {
        reads.extend(draw(n, count, (i as u64 + 1) << 40, &in_band));
    }
    let small =
        |q: &Graph| pipeline.run(q, &ctx, &MatchConfig::default()).matches <= STANDING_MAX_MATCHES;
    let standing = draw(4, STANDING, 0x57A, &small);

    let num_labels = (0..graph.num_vertices() as VertexId)
        .map(|v| graph.label(v) as usize + 1)
        .max()
        .unwrap_or(1);
    let mut stream = UpdateStream::new(
        UpdateStreamSpec {
            batch_size: BATCH_OPS,
            insert_ratio: 0.5,
            vertex_add_ratio: 0.05,
            num_labels,
        },
        seed ^ 0xBA7C4,
    );
    let twin = VersionedGraph::new(graph.clone());
    let mut out = Vec::with_capacity(batches);
    let mut commit_ms = Vec::with_capacity(batches);
    for _ in 0..batches {
        let batch = stream.next_batch(&twin.snapshot());
        let t = Instant::now();
        twin.commit(&batch);
        commit_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.push(batch);
    }
    Inputs {
        graph,
        reads,
        standing,
        batches: out,
        commit_ms,
    }
}

/// Build the durable tier, register the standing queries and warm every
/// read: the set-up `setup_s` times.
fn setup(inputs: &Inputs, dir: &Path, trace: bool) -> (ShardedService, Vec<ShardStandingId>, f64) {
    let t0 = Instant::now();
    let graph = dataset("ye");
    let tier = ShardedService::new_durable(graph, tier_config(SHARDS, trace), dir, durability())
        .expect("create the durable tier");
    let ids = inputs
        .standing
        .iter()
        .filter_map(|q| tier.register_standing(q))
        .collect();
    for (i, q) in inputs.reads.iter().enumerate() {
        for mode in 0..4 {
            tier.submit(request(q, i + mode)).wait();
        }
    }
    (tier, ids, t0.elapsed().as_secs_f64())
}

/// What the writer saw.
#[derive(Default)]
struct Writes {
    /// Scheduled send to `apply_update` return, per batch.
    latency_ms: Vec<f64>,
    /// How late each batch was sent.
    late_ms: Vec<f64>,
    plans_evicted: u64,
    standing_delta: u64,
    rate: f64,
}

/// One phase of reads and writes.
struct Served {
    log: ReadLog,
    matches: u64,
    failed: u64,
    writes: Writes,
}

/// Run the reader and the writer for `seconds`. The writer sends batch
/// `i` at `i / UPDATE_RATE` seconds; the reader stops when the writer is
/// done and `seconds` have passed.
fn serve(
    tier: &ShardedService,
    inputs: &Inputs,
    batches: &[UpdateBatch],
    seconds: f64,
    seed: u64,
) -> Served {
    let started = Instant::now();
    let end = started + Duration::from_secs_f64(seconds);
    let writer_done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut w = Writes::default();
            for (i, batch) in batches.iter().enumerate() {
                let due = started + Duration::from_secs_f64(i as f64 / UPDATE_RATE);
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                w.late_ms
                    .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                let r = tier.apply_update(batch);
                w.latency_ms.push(due.elapsed().as_secs_f64() * 1e3);
                w.plans_evicted += r.plans_evicted as u64;
                w.standing_delta += r.incremental_added + r.incremental_removed;
            }
            w.rate = ratio(batches.len() as f64, started.elapsed().as_secs_f64());
            writer_done.store(true, Ordering::Relaxed);
            w
        });
        let mut log = ReadLog::new(seed);
        let (mut matches, mut failed) = (0u64, 0u64);
        let mut rng = sm_runtime::Rng64::seed_from_u64(seed);
        let mut i = 0usize;
        while !(writer_done.load(Ordering::Relaxed) && Instant::now() >= end) {
            let q = &inputs.reads[rng.next_u64_below(inputs.reads.len() as u64) as usize];
            let req = request(q, i);
            i += 1;
            let t0 = Instant::now();
            let report = tier.submit(req).wait();
            log.record(
                t0.elapsed().as_nanos() as u64,
                report.elapsed.as_nanos() as u64,
            );
            matches += report.matches;
            if !matches!(
                report.outcome,
                ServiceOutcome::Complete | ServiceOutcome::CapHit
            ) {
                failed += 1;
                if failed <= 3 {
                    eprintln!(
                        "check failed: mixed-sharded read ended {:?}",
                        report.outcome
                    );
                }
            }
        }
        Served {
            log,
            matches,
            failed,
            writes: writer.join().expect("writer thread panicked"),
        }
    })
}

fn sorted(mut m: Vec<Vec<VertexId>>) -> Vec<Vec<VertexId>> {
    m.sort_unstable();
    m
}

/// After the writer stopped: every read query in every mode must count
/// the same on the tier as on one `Service` over the graph materialized
/// from the tier's snapshot, and every standing set must equal a full
/// recompute. Returns the materialized graph.
fn verify(
    tier: &ShardedService,
    inputs: &Inputs,
    ids: &[ShardStandingId],
    report: &mut Report,
) -> Graph {
    let (graph, _) = tier.snapshot().materialize();
    let single = Service::new(
        graph.clone(),
        ServiceConfig {
            pipeline: Algorithm::GraphQl.optimized(),
            ..ServiceConfig::default()
        },
    );
    for (qi, q) in inputs.reads.iter().enumerate() {
        for mode in 0..4 {
            let sharded = tier.submit(request(q, mode)).wait().matches;
            let want = single.submit(request(q, mode)).wait().matches;
            if sharded != want {
                report.failed += 1;
                report.fail(&format!(
                    "mixed-sharded query {qi} mode {mode}: sharded {sharded} vs single {want}"
                ));
            }
        }
    }
    if ids.len() != inputs.standing.len() {
        report.fail("a standing query was not registered");
    }
    let ctx = DataContext::new(&graph);
    let reference = Pipeline::new(
        "reference",
        FilterKind::Ldf,
        OrderKind::Ri,
        LcMethod::Direct,
    );
    for (&id, q) in ids.iter().zip(&inputs.standing) {
        let mut sink = CollectSink::default();
        reference.run_with_sink(q, &ctx, &MatchConfig::find_all(), &mut sink);
        if sorted(tier.standing_matches(id)) != sorted(sink.matches) {
            report.failed += 1;
            report.fail("mixed-sharded standing set differs from a full recompute");
        }
    }
    graph
}

/// What the restart measured.
struct Restart {
    recovery_s: f64,
    replayed: u64,
    snapshot_ms: f64,
    snapshot_kib: f64,
}

/// Drop the tier and reopen it from `dir`; the reopened tier must have
/// the same epoch and standing counts. Then time a manual snapshot.
fn restart(
    tier: ShardedService,
    dir: &Path,
    trace: bool,
    ids: &[ShardStandingId],
    report: &mut Report,
) -> Restart {
    let epoch = tier.epoch();
    let counts: Vec<usize> = ids.iter().map(|&id| tier.standing_count(id)).collect();
    drop(tier);
    let t = Instant::now();
    let reopened = ShardedService::open(dir, tier_config(SHARDS, trace), durability())
        .expect("reopen the durable tier");
    let recovery_s = t.elapsed().as_secs_f64();
    if reopened.epoch() != epoch {
        report.fail(&format!(
            "restart: epoch {} vs {epoch} before",
            reopened.epoch()
        ));
    }
    let after: Vec<usize> = ids.iter().map(|&id| reopened.standing_count(id)).collect();
    if after != counts {
        report.fail(&format!(
            "restart: standing counts {after:?} vs {counts:?} before"
        ));
    }
    let replayed = reopened.recovery_report().map_or(0, |r| r.replayed_batches);
    let t = Instant::now();
    reopened.snapshot_now().expect("write a snapshot");
    let snapshot_ms = t.elapsed().as_secs_f64() * 1e3;
    let snapshot_kib = sm_durable::list_snapshots(dir)
        .ok()
        .and_then(|s| s.last().and_then(|(_, p)| std::fs::metadata(p).ok()))
        .map_or(0.0, |m| m.len() as f64 / 1024.0);
    Restart {
        recovery_s,
        replayed,
        snapshot_ms,
        snapshot_kib,
    }
}

/// One full phase: set-up, reads and writes, checks, restart. Removes
/// its directory.
struct Phase {
    setup_s: f64,
    served: Served,
    restart: Restart,
    graph: Graph,
    before: CounterBlock,
    after: CounterBlock,
    metrics: sm_service::MetricsReport,
}

fn phase(
    args: &Args,
    inputs: &Inputs,
    batches: &[UpdateBatch],
    seconds: f64,
    trace: bool,
    report: &mut Report,
) -> Phase {
    let dir = unique_dir(&args.scratch, &args.workload, "tier");
    let (tier, ids, setup_s) = setup(inputs, &dir, trace);
    let before = tier.counters();
    let served = serve(&tier, inputs, batches, seconds, args.seed);
    let after = tier.counters();
    let metrics = tier.metrics_report().merged;
    report.attempted += served.log.reads() + batches.len() as u64;
    report.failed += served.failed;
    if served.failed > 0 {
        report.fail(&format!("mixed-sharded: {} reads failed", served.failed));
    }
    let graph = verify(&tier, inputs, &ids, report);
    let restart = restart(tier, &dir, trace, &ids, report);
    let _ = std::fs::remove_dir_all(&dir);
    Phase {
        setup_s,
        served,
        restart,
        graph,
        before,
        after,
        metrics,
    }
}

fn properties(inputs: &Inputs, p: &Phase, report: &mut Report) {
    let n = p.served.log.reads() as f64;
    report.prop("graph_vertices", inputs.graph.num_vertices() as f64);
    report.prop("graph_edges", inputs.graph.num_edges() as f64);
    report.prop("pool_queries", inputs.reads.len() as f64);
    report.prop("distinct_queries_read", inputs.reads.len() as f64);
    // Every read draws from the fixed pool (four modes per query), so all
    // but the pool's first reads repeat an earlier canonical form.
    report.prop(
        "repeat_frac",
        ratio(n - 4.0 * inputs.reads.len() as f64, n).max(0.0),
    );
    report.prop(
        "caphit_frac",
        ratio(
            (p.after.get(Counter::TopkEarlyExits) - p.before.get(Counter::TopkEarlyExits)) as f64,
            n,
        ),
    );
    report.prop("update_rate", p.served.writes.rate);
    report.prop("batches", p.served.writes.latency_ms.len() as f64);
    report.prop("reads", n);
    report.prop("standing_queries", inputs.standing.len() as f64);
}

/// Time `apply`-free WAL appends: every batch into a fresh store with the
/// tier's fsync policy.
fn wal_replay(args: &Args, inputs: &Inputs, batches: &[UpdateBatch]) -> Vec<f64> {
    let dir = unique_dir(&args.scratch, &args.workload, "wal");
    let g = inputs.graph.clone();
    let initial = SnapshotData {
        epoch: 0,
        nlf: NlfIndex::build(&g),
        label_pairs: LabelPairEdgeCounts::build(&g),
        graph: g,
        standing: Vec::new(),
    };
    let mut store = DurableStore::create(&dir, durability(), &initial).expect("create a WAL store");
    let times = batches
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let t = Instant::now();
            store.append_batch(i as u64 + 1, b).expect("append a batch");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    times
}

/// The same reads, sequentially, on a 1-shard and a 2-shard tier over
/// `graph`: the ratio of their median latencies.
fn shard_ratio(inputs: &Inputs, graph: &Graph) -> f64 {
    let p50 = |shards: usize| {
        let tier = ShardedService::new(graph.clone(), tier_config(shards, false));
        let mut ms = Vec::new();
        for round in 0..=SHARD_RATIO_ROUNDS {
            for (i, q) in inputs.reads.iter().enumerate() {
                let t = Instant::now();
                tier.submit(request(q, i + round)).wait();
                // Round 0 warms the plan caches.
                if round > 0 {
                    ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
            }
        }
        median(&mut ms).unwrap_or(f64::NAN)
    };
    let one = p50(1);
    ratio(p50(SHARDS), one)
}

/// Run `mixed-sharded`.
pub fn run(args: &Args, report: &mut Report) {
    let batches = ((UPDATE_RATE * args.seconds).round() as usize).max(MIN_BATCHES);
    let inputs = inputs(args.seed, batches);

    if !args.trace {
        let mut setup_s = Vec::new();
        for _ in 1..crate::served::SETUP_REPS {
            let dir = unique_dir(&args.scratch, &args.workload, "setup");
            let (tier, _, secs) = setup(&inputs, &dir, false);
            setup_s.push(secs);
            drop(tier);
            let _ = std::fs::remove_dir_all(&dir);
        }
        let p = phase(args, &inputs, &inputs.batches, args.seconds, false, report);
        setup_s.push(p.setup_s);
        properties(&inputs, &p, report);
        report.set("setup_s", median(&mut setup_s).unwrap_or(f64::NAN));
        report.set("qps", p.served.log.qps(1).unwrap_or(f64::NAN));
        report.set(
            "query_p50_ms",
            p.served.log.latency_ms(0.5).unwrap_or(f64::NAN),
        );
        report.set(
            "query_p90_ms",
            p.served.log.latency_ms(0.9).unwrap_or(f64::NAN),
        );
        return;
    }

    // Traced run: an untraced half-length phase (half the batches) for
    // the overhead baseline, then the full phase with tracing on.
    let plain = phase(
        args,
        &inputs,
        &inputs.batches[..batches / 2],
        args.seconds / 2.0,
        false,
        report,
    );
    let p = phase(args, &inputs, &inputs.batches, args.seconds, true, report);
    properties(&inputs, &p, report);
    let reads = p.served.log.reads() as f64;
    let nb = inputs.batches.len() as f64;
    let delta = |c: Counter| (p.after.get(c) - p.before.get(c)) as f64;

    layers::dispatch(&p.metrics, report);
    report.set(
        "service.submit_overhead_us_p50",
        p.served.log.overhead_us_p50().unwrap_or(f64::NAN),
    );
    let (hits, misses) = (
        delta(Counter::PlanCacheHits),
        delta(Counter::PlanCacheMisses),
    );
    report.set("plan_cache.hit_frac", ratio(hits, hits + misses));
    report.set(
        "plan_cache.evictions_per_read",
        ratio(delta(Counter::PlanCacheEvictions), reads),
    );
    report.set(
        "planner.replans_per_read",
        ratio(delta(Counter::ReplansTriggered), reads),
    );
    let pool: Vec<&Graph> = inputs.reads.iter().collect();
    let pipeline = Algorithm::GraphQl.optimized();
    let replay_planner = layers::replay(&p.graph, &pool, Some(&pipeline), report);
    report.set(
        "planner.combos_scored_per_read",
        ratio(
            replay_planner.estimator_evals as f64,
            replay_planner.plans_autotuned as f64,
        ),
    );

    report.set(
        "shard.fanout_per_read",
        ratio(delta(Counter::QueriesFannedOut), reads),
    );
    report.set(
        "shard.embeddings_streamed_per_read",
        ratio(delta(Counter::EmbeddingsStreamed), reads),
    );
    report.set(
        "shard.stitched_frac",
        ratio(
            delta(Counter::BoundaryEmbeddingsStitched),
            p.served.matches as f64,
        ),
    );
    report.set(
        "shard.halo_frac",
        ratio(
            p.after.get(Counter::HaloVerticesReplicated) as f64,
            inputs.graph.num_vertices() as f64,
        ),
    );
    report.set("shard.skew_pct", p.after.get(Counter::ShardSkew) as f64);
    report.set("shard.vs_single_p50_ratio", shard_ratio(&inputs, &p.graph));

    layers::shares(&p.served.log, report);
    let mut lat = p.served.writes.latency_ms.clone();
    report.set("update_p50_ms", median(&mut lat).unwrap_or(f64::NAN));
    report.set("update_p90_ms", quantile(&mut lat, 0.9).unwrap_or(f64::NAN));
    report.set("recovery_s", p.restart.recovery_s);
    let mut commit = inputs.commit_ms.clone();
    report.set(
        "delta.commit_ms_p50",
        median(&mut commit).unwrap_or(f64::NAN),
    );
    report.set(
        "delta.standing_delta_per_batch",
        ratio(p.served.writes.standing_delta as f64, nb),
    );
    report.set(
        "delta.plans_evicted_per_batch",
        ratio(p.served.writes.plans_evicted as f64, nb),
    );
    let mut wal = wal_replay(args, &inputs, &inputs.batches);
    report.set("wal.append_ms_p50", median(&mut wal).unwrap_or(f64::NAN));
    report.set(
        "wal.append_ms_p90",
        quantile(&mut wal, 0.9).unwrap_or(f64::NAN),
    );
    report.set(
        "wal.bytes_per_batch",
        ratio(delta(Counter::WalBytes), delta(Counter::WalAppends)),
    );
    report.set("snapshot.write_ms", p.restart.snapshot_ms);
    report.set("snapshot.kib", p.restart.snapshot_kib);
    report.set("recovery.replayed_batches", p.restart.replayed as f64);
    report.set(
        "recovery.ms_per_batch",
        ratio(p.restart.recovery_s * 1e3, p.restart.replayed as f64),
    );
    let mut late = p.served.writes.late_ms.clone();
    report.set(
        "writer.late_ms_p90",
        quantile(&mut late, 0.9).unwrap_or(f64::NAN),
    );
    report.set("writer.update_rate", p.served.writes.rate);
    report.set(
        "trace_overhead_frac",
        ratio(
            plain.served.log.qps(1).unwrap_or(f64::NAN),
            p.served.log.qps(1).unwrap_or(f64::NAN),
        ) - 1.0,
    );
}
