//! Delta-driven incremental enumeration for standing queries.
//!
//! A from-scratch run touches the whole data graph; after a small update
//! batch, almost all of that work re-derives embeddings that did not
//! change. The incremental engine instead *seeds* the search from the
//! delta: every embedding affected by the batch must map some query edge
//! onto some inserted (or deleted) data edge, so it is reachable by
//! pinning that query edge to that data edge and completing the partial
//! embedding outward.
//!
//! For each undirected query edge a *seed program* fixes the matching
//! order — the edge's endpoints first, then the remaining query vertices
//! in BFS order with their backward checks precomputed. Programs are
//! derived once per [`StandingQuery`] and reused for every batch; the
//! per-batch work is `O(Σ affected-subtree sizes)` instead of `O(full
//! search)`.
//!
//! # Exactly-once accounting
//!
//! An embedding can use several delta edges, and one delta edge can be
//! the image of any query edge — naively seeding every (delta edge ×
//! program) pair would report duplicates. Two rules make the count exact:
//!
//! 1. distinct query edges of one embedding always map to *distinct* data
//!    edges (the vertex map is injective), so within one seed edge each
//!    embedding is produced by exactly one program in exactly one
//!    orientation;
//! 2. an embedding using several delta edges is attributed to the
//!    *smallest-index* one: while extending from seed edge `i`, any
//!    branch whose checked data edge is a delta edge with index `< i` is
//!    pruned — the embedding is (or was) found from that smaller seed.
//!
//! Inserted edges are enumerated on the post-commit snapshot (new
//! embeddings), deleted edges on the pre-commit snapshot (retracted
//! embeddings); `matches(G') = matches(G) − removed + added` as sets.

use crate::versioned::{Committed, Snapshot};
use crate::view::GraphView;
use sm_graph::types::NO_VERTEX;
use sm_graph::{Graph, NlfIndex, VertexId};
use sm_match::context::MAX_QUERY_VERTICES;
use sm_runtime::pool::deal_morsels;
use sm_runtime::MorselQueue;
use std::collections::HashMap;

/// The per-query-edge matching program of a [`StandingQuery`]: the seed
/// edge's endpoints, then the remaining query vertices in BFS order with
/// pivot and backward checks resolved to order positions.
#[derive(Clone, Debug)]
struct SeedProgram {
    /// Query endpoints of the pinned edge (`order[0]`, `order[1]`).
    u1: VertexId,
    u2: VertexId,
    /// Matching order: `[u1, u2, BFS over the rest]`.
    order: Vec<VertexId>,
    /// For position `k >= 2`: position (index into `order`) of the
    /// already-placed query neighbor whose data image is expanded.
    pivot: Vec<usize>,
    /// For position `k >= 2`: positions of the other already-placed query
    /// neighbors, each checked as a backward edge.
    backward: Vec<Vec<usize>>,
}

impl SeedProgram {
    fn derive(q: &Graph, u1: VertexId, u2: VertexId) -> SeedProgram {
        let n = q.num_vertices();
        let mut order = Vec::with_capacity(n);
        order.push(u1);
        order.push(u2);
        let mut placed = vec![false; n];
        placed[u1 as usize] = true;
        placed[u2 as usize] = true;
        let mut head = 0;
        while head < order.len() {
            let u = order[head];
            head += 1;
            for &w in q.neighbors(u) {
                if !placed[w as usize] {
                    placed[w as usize] = true;
                    order.push(w);
                }
            }
        }
        debug_assert_eq!(order.len(), n, "query must be connected");
        let mut pivot = Vec::with_capacity(n.saturating_sub(2));
        let mut backward = Vec::with_capacity(n.saturating_sub(2));
        for k in 2..n {
            let u = order[k];
            let mut placed_nbrs: Vec<usize> = (0..k).filter(|&j| q.has_edge(order[j], u)).collect();
            debug_assert!(!placed_nbrs.is_empty(), "BFS order keeps connectivity");
            pivot.push(placed_nbrs.remove(0));
            backward.push(placed_nbrs);
        }
        SeedProgram {
            u1,
            u2,
            order,
            pivot,
            backward,
        }
    }
}

/// A query registered for incremental maintenance: the query graph, its
/// NLF rows, and one seed program per query edge — all derived once
/// and reused for every committed batch.
pub struct StandingQuery {
    query: Graph,
    qnlf: NlfIndex,
    programs: Vec<SeedProgram>,
}

impl StandingQuery {
    /// Derive the seed programs for `query`. Returns `None` for queries
    /// the incremental engine does not support: edgeless or disconnected
    /// ones, and ones larger than [`MAX_QUERY_VERTICES`].
    pub fn new(query: &Graph) -> Option<StandingQuery> {
        if query.num_edges() == 0
            || query.num_vertices() > MAX_QUERY_VERTICES
            || !query.is_connected()
        {
            return None;
        }
        let programs = query
            .edges()
            .map(|(u, v)| SeedProgram::derive(query, u, v))
            .collect();
        Some(StandingQuery {
            query: query.clone(),
            qnlf: query.build_nlf(),
            programs,
        })
    }

    /// The query graph.
    pub fn query(&self) -> &Graph {
        &self.query
    }

    /// Number of seed programs (= query edges).
    pub fn num_programs(&self) -> usize {
        self.programs.len()
    }
}

/// The output of [`delta_matches`]: embeddings (indexed by query vertex
/// id, like [`sm_match::enumerate::CollectSink`]) that a batch added and
/// removed. Both lists are sorted lexicographically and duplicate-free.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaMatches {
    /// Embeddings of the post-commit graph using ≥ 1 inserted edge.
    pub added: Vec<Vec<VertexId>>,
    /// Embeddings of the pre-commit graph using ≥ 1 deleted edge.
    pub removed: Vec<Vec<VertexId>>,
}

impl DeltaMatches {
    /// `added.len() + removed.len()`.
    pub fn total(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// Apply this delta to a sorted, duplicate-free embedding set,
    /// returning the maintained set (also sorted).
    pub fn apply_to(&self, current: &[Vec<VertexId>]) -> Vec<Vec<VertexId>> {
        let mut out: Vec<Vec<VertexId>> = Vec::with_capacity(
            current.len() + self.added.len() - self.removed.len().min(current.len()),
        );
        let mut rem = self.removed.iter().peekable();
        for m in current {
            while rem.peek().is_some_and(|r| *r < m) {
                rem.next();
            }
            if rem.peek().is_some_and(|r| *r == m) {
                rem.next();
                continue;
            }
            out.push(m.clone());
        }
        out.extend(self.added.iter().cloned());
        out.sort_unstable();
        out
    }
}

/// One enumeration side (inserted edges on the post view, or deleted
/// edges on the pre view).
struct SeedRun<'a> {
    view: &'a Snapshot,
    q: &'a Graph,
    qnlf: &'a NlfIndex,
    /// Delta edge → index, for the smallest-index attribution rule.
    edge_index: &'a HashMap<(VertexId, VertexId), usize>,
}

impl<'a> SeedRun<'a> {
    #[inline]
    fn delta_index(&self, a: VertexId, b: VertexId) -> Option<usize> {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.edge_index.get(&key).copied()
    }

    /// Label + degree + NLF-dominance check of data vertex `v` against
    /// query vertex `u`.
    #[inline]
    fn vertex_ok(&self, u: VertexId, v: VertexId) -> bool {
        self.view.label(v) == self.q.label(u)
            && self.view.degree(v) >= self.q.degree(u)
            && NlfIndex::dominates(self.view.nlf_entry(v), self.qnlf.entry(u))
    }

    /// Enumerate all embeddings through seed edge `eidx` under `prog`,
    /// both orientations, appending to `out`.
    fn run_seed(
        &self,
        prog: &SeedProgram,
        eidx: usize,
        a: VertexId,
        b: VertexId,
        m: &mut [VertexId],
        out: &mut Vec<Vec<VertexId>>,
    ) {
        for (x, y) in [(a, b), (b, a)] {
            if !self.vertex_ok(prog.u1, x) || !self.vertex_ok(prog.u2, y) {
                continue;
            }
            m[prog.u1 as usize] = x;
            m[prog.u2 as usize] = y;
            self.extend(prog, eidx, 2, m, out);
            m[prog.u1 as usize] = NO_VERTEX;
            m[prog.u2 as usize] = NO_VERTEX;
        }
    }

    fn extend(
        &self,
        prog: &SeedProgram,
        eidx: usize,
        k: usize,
        m: &mut [VertexId],
        out: &mut Vec<Vec<VertexId>>,
    ) {
        if k == prog.order.len() {
            out.push(m.to_vec());
            return;
        }
        let u = prog.order[k];
        let pivot_data = m[prog.order[prog.pivot[k - 2]] as usize];
        // Candidates extend from the pivot's data image; the pivot edge
        // itself is subject to the smallest-index rule like any other.
        'cand: for &c in self.view.neighbors(pivot_data) {
            if !self.vertex_ok(u, c) {
                continue;
            }
            // Injectivity: the partial map is tiny (|V(q)| ≤ 64-ish), a
            // linear scan beats a per-branch hash set.
            for j in 0..k {
                if m[prog.order[j] as usize] == c {
                    continue 'cand;
                }
            }
            if self.delta_index(pivot_data, c).is_some_and(|i| i < eidx) {
                continue;
            }
            for &j in &prog.backward[k - 2] {
                let w = m[prog.order[j] as usize];
                if !self.view.has_edge(w, c) {
                    continue 'cand;
                }
                if self.delta_index(w, c).is_some_and(|i| i < eidx) {
                    continue 'cand;
                }
            }
            m[u as usize] = c;
            self.extend(prog, eidx, k + 1, m, out);
            m[u as usize] = NO_VERTEX;
        }
    }
}

/// Enumerate one side of the delta: all embeddings on `view` that use at
/// least one edge of `delta_edges`, each reported exactly once.
fn enumerate_side(
    sq: &StandingQuery,
    view: &Snapshot,
    delta_edges: &[(VertexId, VertexId)],
    threads: usize,
) -> Vec<Vec<VertexId>> {
    if delta_edges.is_empty() {
        return Vec::new();
    }
    let edge_index: HashMap<(VertexId, VertexId), usize> = delta_edges
        .iter()
        .copied()
        .enumerate()
        .map(|(i, e)| (e, i))
        .collect();
    let run = SeedRun {
        view,
        q: &sq.query,
        qnlf: &sq.qnlf,
        edge_index: &edge_index,
    };
    let n = sq.query.num_vertices();
    let progs = &sq.programs;
    let units = delta_edges.len() * progs.len();

    let exec_unit = |unit: usize, m: &mut Vec<VertexId>, out: &mut Vec<Vec<VertexId>>| {
        let (eidx, pidx) = (unit / progs.len(), unit % progs.len());
        let (a, b) = delta_edges[eidx];
        run.run_seed(&progs[pidx], eidx, a, b, m, out);
    };

    // Inline below the cutoff: spawning the pool costs tens of
    // microseconds per worker, which dwarfs a handful of seed subtrees —
    // and small batches are exactly the case incremental maintenance
    // must win.
    const INLINE_UNITS: usize = 64;
    let mut results: Vec<Vec<VertexId>> = if threads <= 1 || units <= INLINE_UNITS {
        let mut out = Vec::new();
        let mut m = vec![NO_VERTEX; n];
        for unit in 0..units {
            exec_unit(unit, &mut m, &mut out);
        }
        out
    } else {
        // Morsel-parallel: chunk the (delta edge × program) grid and let
        // the runtime's work stealing absorb skew across seed subtrees.
        let pool = MorselQueue::new(deal_morsels(units, threads.min(units)));
        let worker_out = pool.run(
            |_wid| (vec![NO_VERTEX; n], Vec::new()),
            |_wid, (m, out): &mut (Vec<VertexId>, Vec<Vec<VertexId>>), morsel| {
                for unit in morsel {
                    exec_unit(unit, m, out);
                }
                true
            },
        );
        worker_out
            .into_iter()
            .flat_map(|((_, out), _)| out)
            .collect()
    };
    results.sort_unstable();
    debug_assert!(
        results.windows(2).all(|w| w[0] != w[1]),
        "exactly-once attribution must not duplicate embeddings"
    );
    results
}

/// Compute the embeddings a committed batch added and removed for one
/// standing query, seeding only from the batch's delta edges.
///
/// `threads` controls the morsel-parallel fan-out over (delta edge ×
/// seed program) units; `1` runs inline. There are no match caps or
/// time limits here — the delta is exact by construction.
pub fn delta_matches(sq: &StandingQuery, committed: &Committed, threads: usize) -> DeltaMatches {
    DeltaMatches {
        added: enumerate_side(sq, &committed.post, &committed.info.edges_inserted, threads),
        removed: enumerate_side(sq, &committed.pre, &committed.info.edges_deleted, threads),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::UpdateBatch;
    use crate::versioned::VersionedGraph;
    use sm_graph::builder::graph_from_edges;
    use sm_match::enumerate::CollectSink;
    use sm_match::{DataContext, FilterKind, LcMethod, MatchConfig, OrderKind, Pipeline};

    fn full_matches(q: &Graph, g: &Graph) -> Vec<Vec<VertexId>> {
        let gc = DataContext::new(g);
        let p = Pipeline::new("full", FilterKind::Ldf, OrderKind::Ri, LcMethod::Direct);
        let mut sink = CollectSink::default();
        p.run_with_sink(q, &gc, &MatchConfig::default(), &mut sink);
        let mut m = sink.matches;
        m.sort_unstable();
        m
    }

    fn triangle_query() -> Graph {
        graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)])
    }

    #[test]
    fn inserted_edge_completes_a_triangle() {
        // path 0-1-2 (all label 0); inserting (0,2) closes the triangle.
        let g0 = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2)]);
        let q = triangle_query();
        let vg = VersionedGraph::new(g0);
        let c = vg.commit(&UpdateBatch::new().add_edge(0, 2));
        let (mat, _) = c.post.materialize();
        let sq = StandingQuery::new(&q).unwrap();
        let d = delta_matches(&sq, &c, 1);
        assert!(d.removed.is_empty());
        // 6 automorphic images of the one triangle.
        assert_eq!(d.added.len(), 6);
        assert_eq!(d.added, full_matches(&q, &mat));
    }

    #[test]
    fn deleted_edge_retracts_exactly_its_embeddings() {
        // two triangles sharing edge (0,1): {0,1,2} and {0,1,3}.
        let g0 = graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (1, 2), (0, 2), (1, 3), (0, 3)]);
        let q = triangle_query();
        let vg = VersionedGraph::new(g0.clone());
        let before = full_matches(&q, &g0);
        let c = vg.commit(&UpdateBatch::new().delete_edge(0, 2));
        let sq = StandingQuery::new(&q).unwrap();
        let d = delta_matches(&sq, &c, 1);
        assert!(d.added.is_empty());
        assert_eq!(d.removed.len(), 6, "only triangle {{0,1,2}} dies");
        let (mat, _) = c.post.materialize();
        assert_eq!(d.apply_to(&before), full_matches(&q, &mat));
    }

    #[test]
    fn multi_edge_batch_counts_each_embedding_once() {
        // Empty triangle built in ONE batch: all 3 edges inserted at once.
        // Every found embedding uses all three delta edges; the smallest-
        // index rule must still count each exactly once.
        let g0 = graph_from_edges(&[0, 0, 0], &[]);
        let q = triangle_query();
        let vg = VersionedGraph::new(g0);
        let c = vg.commit(
            &UpdateBatch::new()
                .add_edge(0, 1)
                .add_edge(1, 2)
                .add_edge(0, 2),
        );
        let (mat, _) = c.post.materialize();
        let sq = StandingQuery::new(&q).unwrap();
        let d = delta_matches(&sq, &c, 1);
        assert_eq!(d.added.len(), 6);
        assert_eq!(d.added, full_matches(&q, &mat));
    }

    #[test]
    fn unsupported_queries_are_rejected() {
        // edgeless query
        let q_e = graph_from_edges(&[0], &[]);
        // disconnected query
        let q_d = graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (2, 3)]);
        // path one vertex past the enumeration limit
        let n = MAX_QUERY_VERTICES + 1;
        let path: Vec<(VertexId, VertexId)> = (1..n as VertexId).map(|v| (v - 1, v)).collect();
        let q_big = graph_from_edges(&vec![0; n], &path);
        for q in [q_e, q_d, q_big] {
            assert!(StandingQuery::new(&q).is_none());
        }
    }

    #[test]
    fn delta_apply_handles_mixed_batches() {
        // 4-cycle query on a grid-ish graph with labeled vertices.
        let q = graph_from_edges(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let g0 = graph_from_edges(
            &[0, 1, 0, 1, 0, 1],
            &[(0, 1), (1, 2), (2, 3), (0, 3), (2, 5), (4, 5), (3, 4)],
        );
        let before = full_matches(&q, &g0);
        assert!(!before.is_empty());
        let vg = VersionedGraph::new(g0.clone());
        let c = vg.commit(
            &UpdateBatch::new()
                .delete_edge(0, 1)
                .add_edge(4, 1)
                .add_vertex(1)
                .add_edge(6, 0)
                .add_edge(6, 2),
        );
        let (mat, _) = c.post.materialize();
        let want = full_matches(&q, &mat);
        let sq = StandingQuery::new(&q).unwrap();
        for threads in [1, 4] {
            let d = delta_matches(&sq, &c, threads);
            assert_eq!(d.apply_to(&before), want, "threads={threads}");
        }
    }
}
