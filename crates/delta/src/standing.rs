//! Standing queries with their maintained embedding sets — the one
//! standing-query implementation every serving tier shares.
//!
//! A [`StandingSet`] pairs a [`StandingQuery`] with the complete, sorted
//! embedding set of its query on the current graph. It is created by a
//! full enumeration ([`StandingSet::register`]) or from a stored set
//! ([`StandingSet::restore`]), and then kept current by applying each
//! committed batch ([`StandingSet::apply`]), which enumerates only the
//! embeddings the batch's delta edges touch.

use crate::incremental::{delta_matches, StandingQuery};
use crate::versioned::Committed;
use sm_graph::{Graph, VertexId};
use sm_match::enumerate::CollectSink;
use sm_match::{DataContext, FilterKind, LcMethod, MatchConfig, OrderKind, Pipeline};

/// A standing query and its complete embedding set (indexed by query
/// vertex id, sorted lexicographically, duplicate-free).
pub struct StandingSet {
    sq: StandingQuery,
    matches: Vec<Vec<VertexId>>,
}

impl StandingSet {
    /// Register `query` against `data`: derive its seed programs and
    /// enumerate its full embedding set once. Returns `None` when
    /// [`StandingQuery::new`] rejects the query.
    pub fn register(query: &Graph, data: &DataContext<'_>) -> Option<StandingSet> {
        let sq = StandingQuery::new(query)?;
        let matches = full_matches(query, data);
        Some(StandingSet { sq, matches })
    }

    /// Reinstate a stored set as-is, without enumerating: `matches` must
    /// be the sorted embedding set of `query` on the graph the next
    /// [`StandingSet::apply`] commits against (a snapshot stores exactly
    /// that). Returns `None` when [`StandingQuery::new`] rejects the
    /// query.
    pub fn restore(query: &Graph, matches: Vec<Vec<VertexId>>) -> Option<StandingSet> {
        let sq = StandingQuery::new(query)?;
        Some(StandingSet { sq, matches })
    }

    /// Bring the set up to date with one committed batch by delta-driven
    /// enumeration ([`delta_matches`] over `threads` workers). Returns the
    /// number of embeddings `(added, removed)`.
    pub fn apply(&mut self, committed: &Committed, threads: usize) -> (u64, u64) {
        let d = delta_matches(&self.sq, committed, threads);
        self.matches = d.apply_to(&self.matches);
        (d.added.len() as u64, d.removed.len() as u64)
    }

    /// Recompute the set from scratch on `data` (a wholesale graph
    /// replacement, which no delta describes).
    pub fn reenumerate(&mut self, data: &DataContext<'_>) {
        self.matches = full_matches(self.sq.query(), data);
    }

    /// The standing query's graph.
    pub fn query(&self) -> &Graph {
        self.sq.query()
    }

    /// The current embedding set.
    pub fn matches(&self) -> &[Vec<VertexId>] {
        &self.matches
    }
}

/// Apply one committed batch to every set in `sets`; returns the total
/// `(added, removed)` embedding counts.
pub fn apply_all(sets: &mut [StandingSet], committed: &Committed, threads: usize) -> (u64, u64) {
    sets.iter_mut().fold((0, 0), |(a, r), set| {
        let (da, dr) = set.apply(committed, threads);
        (a + da, r + dr)
    })
}

/// Full (from-scratch) sorted embedding set of `query` on `data`, in
/// query vertex-id order — the representation a [`StandingSet`]
/// maintains.
pub fn full_matches(query: &Graph, data: &DataContext<'_>) -> Vec<Vec<VertexId>> {
    let p = Pipeline::new(
        "standing-full",
        FilterKind::Ldf,
        OrderKind::Ri,
        LcMethod::Direct,
    );
    let mut sink = CollectSink::default();
    // find_all: the maintained set must be complete — the default match
    // cap would silently truncate it on large graphs.
    p.run_with_sink(query, data, &MatchConfig::find_all(), &mut sink);
    let mut m = sink.matches;
    m.sort_unstable();
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::UpdateBatch;
    use crate::versioned::VersionedGraph;
    use sm_graph::builder::graph_from_edges;

    #[test]
    fn register_apply_and_restore_track_the_graph() {
        // Path 0-1-2-3; closing (0,2) makes triangle {0,1,2}, then
        // deleting (1,2) opens it again.
        let g0 = graph_from_edges(&[0; 4], &[(0, 1), (1, 2), (2, 3)]);
        let tri = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
        let vg = VersionedGraph::new(g0.clone());
        let mut set = StandingSet::register(&tri, &DataContext::new(&g0)).unwrap();
        assert!(set.matches().is_empty());
        let c = vg.commit(&UpdateBatch::new().add_edge(0, 2));
        assert_eq!(set.apply(&c, 1), (6, 0));
        let (mat, _) = c.post.materialize();
        assert_eq!(set.matches(), full_matches(&tri, &DataContext::new(&mat)));
        // A restored copy continues exactly like the original.
        let mut restored = StandingSet::restore(set.query(), set.matches().to_vec()).unwrap();
        let c = vg.commit(&UpdateBatch::new().delete_edge(1, 2));
        let mut sets = [set];
        assert_eq!(apply_all(&mut sets, &c, 2), (0, 6));
        assert_eq!(restored.apply(&c, 1), (0, 6));
        assert!(sets[0].matches().is_empty() && restored.matches().is_empty());
        assert!(StandingSet::restore(&graph_from_edges(&[0], &[]), Vec::new()).is_none());
    }
}
