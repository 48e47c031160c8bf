//! End-to-end equivalence: incremental maintenance must produce exactly
//! the embedding set of a from-scratch run after every committed batch —
//! insert-only, delete-only and mixed streams, single- and
//! multi-threaded, on seeded RMAT graphs and on a `.graph`-format
//! fixture.

use sm_delta::{delta_matches, GraphView, StandingQuery, UpdateBatch, VersionedGraph};
use sm_graph::builder::graph_from_edges;
use sm_graph::gen::rmat::{rmat_graph, RmatParams};
use sm_graph::{Graph, VertexId};
use sm_match::enumerate::CollectSink;
use sm_match::{DataContext, FilterKind, LcMethod, MatchConfig, OrderKind, Pipeline};
use sm_runtime::Rng64;

fn full_matches(q: &Graph, g: &Graph) -> Vec<Vec<VertexId>> {
    let gc = DataContext::new(g);
    let p = Pipeline::new("ref", FilterKind::Ldf, OrderKind::Ri, LcMethod::Direct);
    let mut sink = CollectSink::default();
    let out = p.run_with_sink(q, &gc, &MatchConfig::default(), &mut sink);
    assert_eq!(out.outcome, sm_match::Outcome::Complete);
    let mut m = sink.matches;
    m.sort_unstable();
    m
}

fn standing(q: &Graph) -> StandingQuery {
    StandingQuery::new(q).expect("connected query with edges")
}

/// Drive `batches` through a [`VersionedGraph`] and assert, after every
/// commit, that incrementally maintained results equal a full recompute
/// on the materialized post graph — for every thread count given.
fn assert_equivalence(g0: Graph, queries: &[Graph], batches: Vec<UpdateBatch>, threads: &[usize]) {
    let vg = VersionedGraph::new(g0.clone());
    let standing: Vec<StandingQuery> = queries.iter().map(standing).collect();
    let mut maintained: Vec<Vec<Vec<VertexId>>> =
        queries.iter().map(|q| full_matches(q, &g0)).collect();
    for (step, batch) in batches.into_iter().enumerate() {
        let c = vg.commit(&batch);
        let (mat, mat_nlf) = c.post.materialize();
        // Incremental NLF maintenance agrees with a fresh build.
        let fresh_nlf = mat.build_nlf();
        for v in 0..mat.num_vertices() as VertexId {
            assert_eq!(mat_nlf.entry(v), fresh_nlf.entry(v), "nlf v{v} step {step}");
        }
        for (qi, (sq, acc)) in standing.iter().zip(maintained.iter_mut()).enumerate() {
            let want = full_matches(sq.query(), &mat);
            let base = delta_matches(sq, &c, 1);
            for &t in threads {
                let d = delta_matches(sq, &c, t);
                assert_eq!(d, base, "threads={t} query {qi} step {step}");
            }
            *acc = base.apply_to(acc);
            assert_eq!(*acc, want, "query {qi} step {step}");
        }
    }
}

fn test_queries() -> Vec<Graph> {
    vec![
        // triangle, uniform labels (automorphism-heavy)
        graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]),
        // labeled path of length 2
        graph_from_edges(&[0, 1, 2], &[(0, 1), (1, 2)]),
        // 4-cycle with alternating labels
        graph_from_edges(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3), (0, 3)]),
        // star with distinct leaf labels
        graph_from_edges(&[0, 1, 2, 1], &[(0, 1), (0, 2), (0, 3)]),
    ]
}

fn random_present_edge(rng: &mut Rng64, view: &sm_delta::Snapshot) -> Option<(VertexId, VertexId)> {
    for _ in 0..64 {
        let u = rng.next_u64_below(view.num_vertices() as u64) as VertexId;
        let d = view.degree(u);
        if d == 0 {
            continue;
        }
        let w = view.neighbors(u)[rng.next_u64_below(d as u64) as usize];
        return Some((u, w));
    }
    None
}

fn random_absent_pair(rng: &mut Rng64, view: &sm_delta::Snapshot) -> Option<(VertexId, VertexId)> {
    let n = view.num_vertices() as u64;
    for _ in 0..64 {
        let u = rng.next_u64_below(n) as VertexId;
        let v = rng.next_u64_below(n) as VertexId;
        if u != v && !view.is_tombstoned(u) && !view.is_tombstoned(v) && !view.has_edge(u, v) {
            return Some((u, v));
        }
    }
    None
}

#[test]
fn insert_only_stream_on_rmat() {
    let g0 = rmat_graph(150, 4.0, 3, RmatParams::PAPER, 31);
    let vg = VersionedGraph::new(g0.clone());
    let mut rng = Rng64::seed_from_u64(101);
    let mut batches = Vec::new();
    for _ in 0..6 {
        let s = vg.snapshot();
        let mut b = UpdateBatch::new();
        for _ in 0..4 {
            if let Some((u, v)) = random_absent_pair(&mut rng, &s) {
                b = b.add_edge(u, v);
            }
        }
        vg.commit(&b);
        batches.push(b);
    }
    assert_equivalence(g0, &test_queries(), batches, &[1, 2, 4]);
}

#[test]
fn large_batch_takes_the_parallel_path() {
    // Enough delta edges that the (edge x program) grid exceeds the
    // inline cutoff, so the morsel pool actually runs — and must agree
    // with the inline result exactly (assert_equivalence compares every
    // thread count against threads=1).
    let g0 = rmat_graph(200, 5.0, 3, RmatParams::PAPER, 41);
    let vg = VersionedGraph::new(g0.clone());
    let mut rng = Rng64::seed_from_u64(606);
    let s = vg.snapshot();
    let mut b = UpdateBatch::new();
    for _ in 0..80 {
        if let Some((u, v)) = random_absent_pair(&mut rng, &s) {
            b = b.add_edge(u, v);
        }
        if let Some((u, v)) = random_present_edge(&mut rng, &s) {
            b = b.delete_edge(u, v);
        }
    }
    vg.commit(&b);
    assert_equivalence(g0, &test_queries(), vec![b], &[2, 4]);
}

#[test]
fn delete_only_stream_on_rmat() {
    let g0 = rmat_graph(150, 6.0, 3, RmatParams::PAPER, 33);
    let vg = VersionedGraph::new(g0.clone());
    let mut rng = Rng64::seed_from_u64(202);
    let mut batches = Vec::new();
    for _ in 0..6 {
        let s = vg.snapshot();
        let mut b = UpdateBatch::new();
        for _ in 0..4 {
            if let Some((u, v)) = random_present_edge(&mut rng, &s) {
                b = b.delete_edge(u, v);
            }
        }
        vg.commit(&b);
        batches.push(b);
    }
    assert_equivalence(g0, &test_queries(), batches, &[1, 4]);
}

#[test]
fn mixed_stream_with_vertex_churn_on_rmat() {
    let g0 = rmat_graph(120, 5.0, 4, RmatParams::PAPER, 35);
    let vg = VersionedGraph::new(g0.clone());
    let mut rng = Rng64::seed_from_u64(303);
    let mut batches = Vec::new();
    for step in 0..8 {
        let s = vg.snapshot();
        let mut b = UpdateBatch::new();
        if let Some((u, v)) = random_absent_pair(&mut rng, &s) {
            b = b.add_edge(u, v);
        }
        if let Some((u, v)) = random_present_edge(&mut rng, &s) {
            b = b.delete_edge(u, v);
        }
        // vertex churn: add a labeled vertex wired to two live anchors,
        // and periodically tombstone a random live vertex.
        let label = rng.next_u64_below(4) as sm_graph::Label;
        let id = s.num_vertices() as VertexId;
        b = b.add_vertex(label);
        if let Some((u, v)) = random_absent_pair(&mut rng, &s) {
            b = b.add_edge(id, u).add_edge(id, v);
        }
        if step % 3 == 2 {
            let v = rng.next_u64_below(s.num_vertices() as u64) as VertexId;
            if !s.is_tombstoned(v) {
                b = b.delete_vertex(v);
            }
        }
        vg.commit(&b);
        batches.push(b);
    }
    assert_equivalence(g0, &test_queries(), batches, &[1, 4]);
}

#[test]
fn mixed_stream_survives_compaction() {
    // Tiny threshold: nearly every commit compacts; results must not care.
    let g0 = rmat_graph(100, 5.0, 3, RmatParams::PAPER, 37);
    let vg = VersionedGraph::with_threshold(g0.clone(), 2);
    let mut rng = Rng64::seed_from_u64(404);
    let standing: Vec<StandingQuery> = test_queries().iter().map(standing).collect();
    let mut maintained: Vec<Vec<Vec<VertexId>>> = test_queries()
        .iter()
        .map(|q| full_matches(q, &g0))
        .collect();
    for step in 0..8 {
        let s = vg.snapshot();
        let mut b = UpdateBatch::new();
        for _ in 0..3 {
            if let Some((u, v)) = random_absent_pair(&mut rng, &s) {
                b = b.add_edge(u, v);
            }
            if let Some((u, v)) = random_present_edge(&mut rng, &s) {
                b = b.delete_edge(u, v);
            }
        }
        let c = vg.commit(&b);
        let (mat, _) = c.post.materialize();
        for (sq, acc) in standing.iter().zip(maintained.iter_mut()) {
            let d = delta_matches(sq, &c, 2);
            *acc = d.apply_to(acc);
            assert_eq!(*acc, full_matches(sq.query(), &mat), "step {step}");
        }
    }
    assert!(vg.stats().compactions > 0, "threshold 2 must compact");
}

#[test]
fn graph_format_fixture_round_trip() {
    // A `.graph`-format fixture (the paper's text format), parsed through
    // the real reader, then mutated and checked incrementally.
    let text = "\
t 8 10
v 0 0 3
v 1 1 3
v 2 0 2
v 3 1 3
v 4 0 3
v 5 1 2
v 6 0 2
v 7 1 2
e 0 1
e 0 2
e 0 3
e 1 2
e 1 4
e 3 4
e 3 6
e 4 5
e 5 7
e 6 7
";
    let g0 = sm_graph::io::read_graph(text.as_bytes()).expect("fixture parses");
    assert_eq!((g0.num_vertices(), g0.num_edges()), (8, 10));
    let batches = vec![
        UpdateBatch::new().add_edge(2, 5).add_edge(6, 1),
        UpdateBatch::new().delete_edge(0, 1).delete_edge(3, 4),
        UpdateBatch::new()
            .add_vertex(0)
            .add_edge(8, 1)
            .add_edge(8, 7)
            .delete_vertex(2),
        UpdateBatch::new().add_edge(0, 1),
    ];
    assert_equivalence(g0, &test_queries(), batches, &[1, 3]);
}

#[test]
fn snapshot_pinned_before_batch_keeps_pre_update_results() {
    let g0 = rmat_graph(150, 5.0, 3, RmatParams::PAPER, 39);
    let q = &test_queries()[0];
    let vg = VersionedGraph::new(g0.clone());
    let before = full_matches(q, &g0);
    let pinned = vg.snapshot();
    // Heavy churn after pinning.
    let mut rng = Rng64::seed_from_u64(505);
    for _ in 0..5 {
        let s = vg.snapshot();
        let mut b = UpdateBatch::new();
        for _ in 0..8 {
            if let Some((u, v)) = random_absent_pair(&mut rng, &s) {
                b = b.add_edge(u, v);
            }
            if let Some((u, v)) = random_present_edge(&mut rng, &s) {
                b = b.delete_edge(u, v);
            }
        }
        vg.commit(&b);
    }
    assert!(vg.epoch() > 0);
    // The pinned snapshot still materializes to the original graph.
    let (old, _) = pinned.materialize();
    assert_eq!(full_matches(q, &old), before);
    assert_eq!(pinned.epoch(), 0);
    assert_eq!(old.num_edges(), g0.num_edges());
    // And the head moved on.
    let (new, _) = vg.snapshot().materialize();
    assert_ne!(new.num_edges(), 0);
    assert_ne!(
        full_matches(q, &new).len(),
        usize::MAX,
        "head recompute runs"
    );
}
