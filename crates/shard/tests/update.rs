//! Update-path guarantees of the sharded tier:
//!
//! 1. **No torn epochs** — a query racing `apply_update` sees every
//!    shard pre-update or every shard post-update, never a mix. The
//!    probe: a batch that completes (or breaks) one triangle in *each*
//!    of two regions atomically; a torn scatter would observe exactly
//!    one of them.
//! 2. **Standing queries stay exactly-once correct** after cross-shard
//!    edge insertions and deletions: the sharded standing set equals the
//!    single-service standing set after every batch of a seeded update
//!    stream, and the tier reports and counts each added or retracted
//!    embedding once, as the single service does — also for a standing
//!    query wider than the halo.

use sm_delta::{UpdateBatch, UpdateStream, UpdateStreamSpec};
use sm_graph::builder::graph_from_edges;
use sm_graph::gen::rmat::{rmat_graph, RmatParams};
use sm_graph::Graph;
use sm_runtime::trace::Counter;
use sm_service::{Service, ServiceConfig, ServiceOutcome};
use sm_shard::{PartitionStrategy, ShardConfig, ShardedService};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

fn triangle() -> Graph {
    graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)])
}

#[test]
fn concurrent_queries_never_observe_a_torn_epoch() {
    // Two open triangles far apart; one batch closes both, the next
    // reopens both. Atomic commits mean a counter sees 0 or 12 (two
    // triangles x 6 automorphic mappings), never 6.
    let g = graph_from_edges(&[0; 6], &[(0, 1), (1, 2), (3, 4), (4, 5)]);
    let svc = Arc::new(ShardedService::new(
        g,
        ShardConfig {
            shards: 2,
            strategy: PartitionStrategy::Hash,
            halo_depth: 2,
            ..ShardConfig::default()
        },
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let progress: Arc<Vec<AtomicU64>> = Arc::new((0..2).map(|_| AtomicU64::new(0)).collect());
    let probes: Vec<_> = (0..2)
        .map(|i| {
            let svc = svc.clone();
            let stop = stop.clone();
            let progress = progress.clone();
            thread::spawn(move || {
                let mut seen = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let rep = svc.run_count(triangle());
                    assert_eq!(rep.outcome, ServiceOutcome::Complete);
                    seen.push(rep.matches);
                    progress[i].fetch_add(1, Ordering::Relaxed);
                }
                seen
            })
        })
        .collect();
    let close = UpdateBatch::new().add_edge(0, 2).add_edge(3, 5);
    let open = UpdateBatch::new().delete_edge(0, 2).delete_edge(3, 5);
    let mut epoch = svc.epoch();
    for round in 0..15 {
        let rep = if round % 2 == 0 {
            svc.apply_update(&close)
        } else {
            svc.apply_update(&open)
        };
        assert!(!rep.noop);
        epoch += 1;
        assert_eq!(rep.epoch, epoch, "one coherent epoch per effective update");
    }
    // Don't stop until every probe has raced at least a few updates —
    // under heavy test-suite load a probe may not have been scheduled
    // yet when the 15 toggles finish.
    while progress.iter().any(|p| p.load(Ordering::Relaxed) < 3) {
        thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    for p in probes {
        let seen = p.join().expect("probe thread");
        assert!(!seen.is_empty());
        for count in seen {
            assert!(
                count == 0 || count == 12,
                "torn epoch observed: {count} matches (both triangles must \
                 appear or disappear together)"
            );
        }
    }
}

#[test]
fn noop_batches_keep_the_epoch() {
    let g = graph_from_edges(&[0; 4], &[(0, 1), (2, 3)]);
    let svc = ShardedService::new(g, ShardConfig::default());
    let before = svc.epoch();
    // Inserting a present edge normalizes to nothing.
    let rep = svc.apply_update(&UpdateBatch::new().add_edge(0, 1));
    assert!(rep.noop);
    assert_eq!(rep.epoch, before);
    assert_eq!(svc.epoch(), before);
}

/// The seeded update stream the standing-agreement tests replay.
fn agreement_stream(seed: u64) -> UpdateStream {
    UpdateStream::new(
        UpdateStreamSpec {
            batch_size: 24,
            insert_ratio: 0.5,
            vertex_add_ratio: 0.15,
            num_labels: 2,
        },
        seed ^ 0xD1CE,
    )
}

/// Apply the same seeded update stream to a single service and the
/// sharded tier; after every batch the standing sets, the incremental
/// report counts and live counts must agree embedding-for-embedding.
fn standing_agreement(strategy: PartitionStrategy, shards: usize, seed: u64) {
    let g = rmat_graph(140, 5.0, 2, RmatParams::PAPER, seed);
    let single = Service::new(g.clone(), ServiceConfig::default());
    let sharded = ShardedService::new(
        g,
        ShardConfig {
            shards,
            strategy,
            halo_depth: 3,
            seed,
            ..ShardConfig::default()
        },
    );
    let tri = triangle();
    let edge = graph_from_edges(&[0, 0], &[(0, 1)]);
    let s_tri = single.register_standing(&tri).expect("single supports");
    let s_edge = single.register_standing(&edge).expect("single supports");
    let h_tri = sharded.register_standing(&tri).expect("sharded supports");
    let h_edge = sharded.register_standing(&edge).expect("sharded supports");
    assert_eq!(
        single.standing_matches(s_tri),
        sharded.standing_matches(h_tri),
        "initial standing sets agree"
    );
    let mut stream = agreement_stream(seed);
    for step in 0..8 {
        let batch = stream.next_batch(&sharded.snapshot());
        let srep = single.apply_update(&batch);
        let hrep = sharded.apply_update(&batch);
        assert_eq!(srep.noop, hrep.noop, "step {step}");
        // Each embedding counts once, halo replicas or not.
        assert_eq!(
            (hrep.incremental_added, hrep.incremental_removed),
            (srep.incremental_added, srep.incremental_removed),
            "step {step}: incremental report counts diverged ({strategy:?} x {shards})"
        );
        assert_eq!(
            single.standing_matches(s_tri),
            sharded.standing_matches(h_tri),
            "step {step}: standing triangles diverged ({strategy:?} x {shards})"
        );
        assert_eq!(
            single.standing_matches(s_edge),
            sharded.standing_matches(h_edge),
            "step {step}: standing edges diverged ({strategy:?} x {shards})"
        );
        // Live query path agrees too.
        assert_eq!(
            single.run_count(tri.clone()).matches,
            sharded.run_count(tri.clone()).matches,
            "step {step}: live counts diverged"
        );
    }
    let incremental = single.counters().get(Counter::IncrementalEmbeddings);
    assert!(
        incremental > 0,
        "the stream changed some standing embeddings"
    );
    assert_eq!(
        sharded.counters().get(Counter::IncrementalEmbeddings),
        incremental,
        "the router counts each maintained embedding once"
    );
}

#[test]
fn standing_queries_stay_exact_hash_2() {
    standing_agreement(PartitionStrategy::Hash, 2, 11);
}

#[test]
fn standing_queries_stay_exact_hash_4() {
    standing_agreement(PartitionStrategy::Hash, 4, 23);
}

#[test]
fn standing_queries_stay_exact_label_aware_3() {
    standing_agreement(PartitionStrategy::LabelAware, 3, 37);
}

#[test]
fn standing_query_wider_than_the_halo_stays_exact() {
    // Standing sets live at the router's global commit, so a query of
    // diameter 3 registers on a halo-1 tier that cannot answer it as a
    // live query, and tracks the single service across the stream.
    let seed = 11;
    let g = rmat_graph(140, 5.0, 2, RmatParams::PAPER, seed);
    let single = Service::new(g.clone(), ServiceConfig::default());
    let sharded = ShardedService::new(
        g,
        ShardConfig {
            shards: 2,
            strategy: PartitionStrategy::Hash,
            halo_depth: 1,
            seed,
            ..ShardConfig::default()
        },
    );
    let path = graph_from_edges(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3)]);
    assert!(!sharded.supports(&path));
    let s_path = single.register_standing(&path).expect("single supports");
    let h_path = sharded
        .register_standing(&path)
        .expect("standing registration has no halo bound");
    assert!(sharded.standing_count(h_path) > 0);
    assert_eq!(
        single.standing_matches(s_path),
        sharded.standing_matches(h_path)
    );
    let mut stream = agreement_stream(seed);
    for step in 0..8 {
        let batch = stream.next_batch(&sharded.snapshot());
        let srep = single.apply_update(&batch);
        let hrep = sharded.apply_update(&batch);
        assert_eq!(
            (hrep.incremental_added, hrep.incremental_removed),
            (srep.incremental_added, srep.incremental_removed),
            "step {step}"
        );
        assert_eq!(
            single.standing_matches(s_path),
            sharded.standing_matches(h_path),
            "step {step}: wide standing query diverged"
        );
    }
}

#[test]
fn cross_shard_vertex_churn_routes_correctly() {
    // Hand-driven churn: add vertices, wire them across the partition
    // border, delete them again — the single service stays the oracle.
    let g = rmat_graph(80, 4.0, 2, RmatParams::PAPER, 3);
    let n0 = g.num_vertices() as u32;
    let single = Service::new(g.clone(), ServiceConfig::default());
    let sharded = ShardedService::new(
        g,
        ShardConfig {
            shards: 3,
            strategy: PartitionStrategy::LabelAware,
            halo_depth: 3,
            ..ShardConfig::default()
        },
    );
    let tri = triangle();
    // New vertices n0 and n0+1 (labels 0, 0) wired to existing hubs and
    // to each other: a triangle spanning old and new vertices.
    let wire = UpdateBatch::new()
        .add_vertex(0)
        .add_vertex(0)
        .add_edge(n0, n0 + 1)
        .add_edge(n0, 0)
        .add_edge(n0 + 1, 0)
        .add_edge(n0, 1)
        .add_edge(n0 + 1, 2);
    let s = single.apply_update(&wire);
    let h = sharded.apply_update(&wire);
    assert_eq!(s.vertices_added, 2);
    assert_eq!(h.vertices_added, 2);
    assert_eq!(
        single.run_count(tri.clone()).matches,
        sharded.run_count(tri.clone()).matches,
        "after wiring new vertices across shards"
    );
    // Tombstone one of them (drops its edges everywhere, including
    // halo replicas on non-owner shards).
    let unwire = UpdateBatch::new().delete_vertex(n0);
    single.apply_update(&unwire);
    sharded.apply_update(&unwire);
    assert_eq!(
        single.run_count(tri.clone()).matches,
        sharded.run_count(tri).matches,
        "after tombstoning a cross-shard vertex"
    );
}
