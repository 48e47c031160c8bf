//! In-place graph updates for a running service.
//!
//! [`Service::apply_update`] commits an [`UpdateBatch`] against the
//! service's [`sm_delta::VersionedGraph`] twin and installs the
//! materialized result as the new data graph — without rebuilding the
//! NLF index (the overlay maintains it per delta) and without purging
//! the whole plan cache: only cached plans whose query labels intersect
//! the batch's affected labels are evicted; the rest are re-keyed to the
//! new epoch ([`crate::cache::PlanCache::retarget_epoch`]).
//!
//! **Standing queries** registered with [`Service::register_standing`]
//! are [`sm_delta::StandingSet`]s: each keeps its full embedding set
//! current across updates by delta-driven incremental enumeration — only
//! embeddings that use an inserted or deleted edge are enumerated, never
//! the whole graph.

use crate::service::{GraphData, Service};
use sm_delta::{apply_all, Committed, Snapshot, StandingSet, UpdateBatch};
use sm_graph::{Graph, VertexId};
use sm_match::MatchSemantics;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Handle to a standing query registered with
/// [`Service::register_standing`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StandingId(pub(crate) usize);

/// Why [`Service::register_standing_with`] refused a registration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StandingError {
    /// The incremental engine does not support the query shape (no
    /// edges, or disconnected).
    UnsupportedQuery,
    /// Standing queries maintain a *complete, materialized, isomorphic*
    /// embedding set — the only representation delta-driven maintenance
    /// can keep consistent. Relaxed injectivity, count-only output, and
    /// early-terminating modes are all rejected here, explicitly, rather
    /// than silently coerced.
    UnsupportedSemantics,
}

/// What one [`Service::apply_update`] call did.
#[derive(Clone, Debug)]
pub struct UpdateReport {
    /// Service epoch after the update (unchanged for a no-op batch).
    pub epoch: u64,
    /// Whether the batch normalized to nothing (no state changed).
    pub noop: bool,
    /// Edges actually inserted (after normalization).
    pub edges_inserted: usize,
    /// Edges actually deleted (including edges incident to deleted
    /// vertices).
    pub edges_deleted: usize,
    /// Vertices added.
    pub vertices_added: usize,
    /// Vertices tombstoned.
    pub vertices_deleted: usize,
    /// Cached plans that survived scoped invalidation (label-disjoint
    /// from the batch) and were re-keyed to the new epoch.
    pub plans_retained: usize,
    /// Cached plans evicted because the batch touched their labels.
    pub plans_evicted: usize,
    /// Embeddings added across all standing queries by incremental
    /// enumeration.
    pub incremental_added: u64,
    /// Embeddings retracted across all standing queries.
    pub incremental_removed: u64,
    /// Wall-clock time of the whole apply (commit + install + retarget +
    /// standing maintenance).
    pub elapsed: Duration,
}

impl Service {
    /// Apply an update batch **in place**: commit it to the versioned
    /// graph, install the materialized post-state as the service's data
    /// graph under a new epoch, retarget the plan cache (label-scoped
    /// invalidation instead of a full purge), and bring every standing
    /// query's embedding set up to date incrementally.
    ///
    /// A batch that normalizes to nothing (inserting present edges,
    /// deleting absent ones) changes no state and keeps the epoch.
    ///
    /// Updates serialize against each other and against
    /// [`Service::swap_graph`]; queries submitted concurrently run
    /// against whichever graph version they were admitted under.
    ///
    /// The batch is committed — and, if it was effective, appended to
    /// the WAL when the service is durable — through
    /// [`sm_durable::commit_batch`] *before* the post graph is
    /// installed, so no client can observe state that recovery cannot
    /// reproduce.
    pub fn apply_update(&self, batch: &UpdateBatch) -> UpdateReport {
        let started = Instant::now();
        let core = &self.core;
        let vg = core.versioned.lock().expect("versioned poisoned");
        // Epoch only moves under the versioned lock, so this read is the
        // epoch the commit will install (+1) if the batch is effective.
        let old_epoch = core.epoch.load(Ordering::Relaxed);
        let committed = {
            let mut durable = core.durable.lock().expect("durable poisoned");
            sm_durable::durable_io(
                "WAL batch append",
                sm_durable::commit_batch(&vg, durable.as_mut(), old_epoch + 1, batch),
            )
        };
        let info = &committed.info;
        if info.is_noop() {
            return UpdateReport {
                epoch: core.epoch.load(Ordering::Relaxed),
                noop: true,
                edges_inserted: 0,
                edges_deleted: 0,
                vertices_added: 0,
                vertices_deleted: 0,
                plans_retained: 0,
                plans_evicted: 0,
                incremental_added: 0,
                incremental_removed: 0,
                elapsed: started.elapsed(),
            };
        }
        // Install the post graph under a fresh service epoch. The NLF
        // comes from the overlay's incremental maintenance and the
        // label-pair counts are patched from the commit delta — no index
        // is rebuilt by scanning the graph.
        let new_epoch = old_epoch + 1;
        let (graph, nlf) = committed.post.materialize();
        {
            let mut slot = core.graph.lock().expect("graph lock poisoned");
            let pairs = slot.patched_pairs(&committed);
            *slot = GraphData::from_parts_with_pairs(graph, nlf, pairs, new_epoch);
        }
        core.epoch.store(new_epoch, Ordering::Relaxed);
        let (plans_retained, plans_evicted) =
            core.cache
                .retarget_epoch(old_epoch, new_epoch, &info.affected_labels);
        let (added, removed) = self.maintain_standing(&committed);
        // Compact the log into a fresh snapshot once enough WAL bytes
        // accumulated (still under the versioned lock, so the snapshot
        // sees exactly this epoch).
        self.maybe_threshold_snapshot();
        UpdateReport {
            epoch: new_epoch,
            noop: false,
            edges_inserted: info.edges_inserted.len(),
            edges_deleted: info.edges_deleted.len(),
            vertices_added: info.vertices_added.len(),
            vertices_deleted: info.vertices_deleted.len(),
            plans_retained,
            plans_evicted,
            incremental_added: added,
            incremental_removed: removed,
            elapsed: started.elapsed(),
        }
    }

    /// Bring every standing set up to date with one effective commit and
    /// count the update — the one maintenance step the live update path
    /// and WAL replay share. Returns the `(added, removed)` embedding
    /// totals.
    pub(crate) fn maintain_standing(&self, committed: &Committed) -> (u64, u64) {
        let core = &self.core;
        let (added, removed) = {
            let mut standing = core.standing.lock().expect("standing poisoned");
            apply_all(&mut standing, committed, core.cfg.workers)
        };
        core.counters.updates.fetch_add(1, Ordering::Relaxed);
        core.metrics.observe_update();
        core.counters
            .incremental
            .fetch_add(added + removed, Ordering::Relaxed);
        (added, removed)
    }

    /// Pin a consistent snapshot of the current graph version. The
    /// snapshot keeps enumerating pre-update results no matter how many
    /// batches are applied (or compactions run) after it.
    pub fn snapshot(&self) -> Snapshot {
        self.core
            .versioned
            .lock()
            .expect("versioned poisoned")
            .snapshot()
    }

    /// Register a standing query: its full embedding set is enumerated
    /// once now and then maintained incrementally by every
    /// [`Service::apply_update`]. Returns `None` for queries the
    /// incremental engine does not support (no edges, or disconnected).
    pub fn register_standing(&self, query: &Graph) -> Option<StandingId> {
        self.register_standing_impl(query, true)
    }

    /// [`Service::register_standing`] body with a durability switch:
    /// the live path (`log == true`) appends a `Standing` WAL record so
    /// the registration survives a crash before the next snapshot; the
    /// recovery replay path must not re-append the record it is
    /// replaying.
    pub(crate) fn register_standing_impl(&self, query: &Graph, log: bool) -> Option<StandingId> {
        let data = self.core.graph.lock().expect("graph lock poisoned").clone();
        let set = StandingSet::register(query, &data.context())?;
        let mut standing = self.core.standing.lock().expect("standing poisoned");
        standing.push(set);
        let index = standing.len() - 1;
        // The WAL append happens while the standing lock is still held
        // (lock order graph → standing → durable keeps `durable`
        // innermost): recovery replays registrations in log order and
        // reassigns indices by push order, so two concurrent
        // registrations logged out of index order would swap their
        // StandingIds after a restart.
        if log {
            let mut durable = self.core.durable.lock().expect("durable poisoned");
            if let Some(store) = durable.as_mut() {
                sm_durable::durable_io(
                    "WAL standing-registration append",
                    store.append_standing(index as u64, query),
                );
            }
        }
        drop(standing);
        Some(StandingId(index))
    }

    /// [`Service::register_standing`] with an explicit semantics check:
    /// only the paper's default mode (isomorphic, materializing,
    /// run-to-completion) is maintainable incrementally, and anything
    /// else is a typed [`StandingError::UnsupportedSemantics`] — the
    /// supported matrix is enforced at registration, not discovered at
    /// the first update.
    pub fn register_standing_with(
        &self,
        query: &Graph,
        semantics: MatchSemantics,
    ) -> Result<StandingId, StandingError> {
        if semantics != MatchSemantics::default() {
            return Err(StandingError::UnsupportedSemantics);
        }
        self.register_standing(query)
            .ok_or(StandingError::UnsupportedQuery)
    }

    /// Current embedding set of a standing query (sorted, in query
    /// vertex-id order).
    pub fn standing_matches(&self, id: StandingId) -> Vec<Vec<VertexId>> {
        self.core.standing.lock().expect("standing poisoned")[id.0]
            .matches()
            .to_vec()
    }

    /// Current embedding count of a standing query.
    pub fn standing_count(&self, id: StandingId) -> usize {
        self.core.standing.lock().expect("standing poisoned")[id.0]
            .matches()
            .len()
    }
}
