//! Durable services: WAL-backed updates, CSR snapshots, instant restart.
//!
//! A [`Service`] created through [`Service::new_durable`] (fresh
//! directory) or [`Service::open`] (recovery) owns an
//! [`sm_durable::DurableStore`]. From then on every *effective*
//! [`Service::apply_update`] batch is appended to the write-ahead log
//! **before** the post graph is installed, and every
//! [`Service::register_standing`] call logs a registration record — so
//! the durable directory always describes a state the service actually
//! reached, never one it is about to reach.
//!
//! Restart is "page-in + tail replay": [`Service::open`] loads the
//! newest valid `snapshot-<epoch>.csr` (the data graph and its NLF index
//! land as ready-made arrays — no text parse, no index rebuild), restores
//! the standing queries with their snapshot-stored embedding sets, then
//! replays the WAL records past the snapshot epoch through the normal
//! update path with logging disabled. A torn final record (crash mid
//! `write(2)`) is detected by the per-record CRC and dropped: recovery
//! lands on the last fully-committed epoch.

use crate::service::{patch_pairs, GraphData, Service, ServiceConfig};
use sm_delta::{Committed, StandingSet, UpdateBatch, VersionedGraph};
use sm_durable::{DurableStore, SnapshotData, StandingSnapshot, WalRecord};
use sm_graph::label_index::LabelPairEdgeCounts;
use sm_graph::Graph;
use std::io;
use std::path::Path;
use std::sync::atomic::Ordering;

pub use sm_durable::{DurabilityOptions, FsyncPolicy, RecoveryReport};

impl Service {
    /// Start a durable service over `graph` in a fresh directory: writes
    /// the epoch-0 snapshot (the initial graph is durable before the
    /// first update is accepted), then opens the WAL. Fails with
    /// `AlreadyExists` if `dir` already holds a snapshot — reopen that
    /// state with [`Service::open`] instead of clobbering it.
    pub fn new_durable(
        graph: Graph,
        cfg: ServiceConfig,
        dir: &Path,
        opts: DurabilityOptions,
    ) -> io::Result<Self> {
        let svc = Service::new(graph, cfg);
        let initial = svc.snapshot_data();
        let store = DurableStore::create(dir, opts, &initial)?;
        *svc.core.durable.lock().expect("durable poisoned") = Some(store);
        Ok(svc)
    }

    /// Recover a durable service from `dir`: page in the newest valid
    /// snapshot, restore its standing queries with their stored embedding
    /// sets, replay the WAL tail (batches past the snapshot epoch,
    /// registrations past the snapshot's standing count), and resume the
    /// epoch counter exactly where the crashed service left it. A torn
    /// final WAL record is dropped; a batch that replays to a different
    /// epoch than it was logged under is corruption and fails with
    /// `InvalidData`.
    pub fn open(dir: &Path, cfg: ServiceConfig, opts: DurabilityOptions) -> io::Result<Self> {
        let (store, snap, tail, report) = DurableStore::open(dir, opts)?;
        // The snapshot carries the label-pair counts, so boot skips the
        // `O(|E|)` edge rescan a fresh `Service::new` would pay.
        let data = GraphData::from_parts_with_pairs(
            snap.graph.clone(),
            snap.nlf.clone(),
            snap.label_pairs,
            snap.epoch,
        );
        let versioned = VersionedGraph::from_materialized(snap.graph, snap.nlf);
        let svc = Service::boot(data, versioned, cfg);
        {
            let mut standing = svc.core.standing.lock().expect("standing poisoned");
            for s in snap.standing {
                standing.push(StandingSet::restore(&s.query, s.matches).ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        "snapshot standing query is not supported",
                    )
                })?);
            }
        }
        let mut replayed = 0u64;
        // Label-pair counts are carried across the whole tail and only
        // handed to `install_head` at each flush point — like the graph
        // itself, they are patched per record but installed once.
        let mut pending_pairs: Option<LabelPairEdgeCounts> = None;
        for rec in tail {
            match rec {
                WalRecord::Batch { epoch, batch } => {
                    let (noop, new_epoch, committed) = svc.replay_batch(&batch);
                    if noop || new_epoch != epoch {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "WAL replay diverged from the logged epoch",
                        ));
                    }
                    replayed += 1;
                    let committed = committed.expect("effective replay carries its commit");
                    let prev = pending_pairs.take();
                    pending_pairs = Some(match prev {
                        Some(mut pairs) => {
                            patch_pairs(&mut pairs, &committed);
                            pairs
                        }
                        None => svc
                            .core
                            .graph
                            .lock()
                            .expect("graph lock poisoned")
                            .patched_pairs(&committed),
                    });
                }
                WalRecord::Standing { query, .. } => {
                    // Registration enumerates against the installed
                    // graph: flush deferred batch installs first.
                    if let Some(pairs) = pending_pairs.take() {
                        svc.install_head(pairs);
                    }
                    svc.register_standing_impl(&query, false).ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            "logged standing query is not supported",
                        )
                    })?;
                }
            }
        }
        if let Some(pairs) = pending_pairs.take() {
            svc.install_head(pairs);
        }
        // Restore the planner's learned feedback (written as a sidecar by
        // snapshots). Advisory state: a missing or corrupt image means
        // the planner re-learns, never that recovery fails.
        if let Some(planner) = &svc.core.planner {
            if let Some(bytes) = DurableStore::read_feedback(dir)? {
                let _ = planner.feedback().merge_bytes(&bytes);
            }
        }
        // Install the store only now: replay must never re-append the
        // records it is replaying.
        *svc.core.durable.lock().expect("durable poisoned") = Some(store);
        *svc.core.recovery.lock().expect("recovery poisoned") = Some(report);
        svc.core.counters.recoveries.fetch_add(1, Ordering::Relaxed);
        svc.core
            .counters
            .replayed
            .fetch_add(replayed, Ordering::Relaxed);
        Ok(svc)
    }

    /// Whether this service persists updates (created via
    /// [`Service::new_durable`] / [`Service::open`]).
    pub fn is_durable(&self) -> bool {
        self.core
            .durable
            .lock()
            .expect("durable poisoned")
            .is_some()
    }

    /// What recovery did, when this service came from [`Service::open`].
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        *self.core.recovery.lock().expect("recovery poisoned")
    }

    /// Force a snapshot now (manual compaction): writes the current
    /// state as a fresh `snapshot-<epoch>.csr`, rotates the WAL, and
    /// prunes segments and snapshots the new one supersedes. Returns
    /// `Ok(false)` on a non-durable service. Serializes against
    /// updates.
    pub fn snapshot_now(&self) -> io::Result<bool> {
        let _vg = self.core.versioned.lock().expect("versioned poisoned");
        self.write_durable_snapshot()
    }

    /// Flush the WAL to disk regardless of the fsync policy.
    pub fn sync_durable(&self) -> io::Result<()> {
        let mut durable = self.core.durable.lock().expect("durable poisoned");
        match durable.as_mut() {
            Some(store) => store.sync(),
            None => Ok(()),
        }
    }

    /// Threshold-triggered compaction, called at the end of a logged
    /// update while the versioned lock is held (so the snapshot captures
    /// exactly the epoch the update installed).
    pub(crate) fn maybe_threshold_snapshot(&self) {
        let should = {
            let durable = self.core.durable.lock().expect("durable poisoned");
            durable.as_ref().is_some_and(|s| s.should_snapshot())
        };
        if should {
            // Abort, not panic: a panic here would poison the versioned
            // lock the caller holds (see `sm_durable::durable_io`).
            sm_durable::durable_io("threshold snapshot", self.write_durable_snapshot());
        }
    }

    /// Write the current state as a snapshot if the service is durable.
    /// Callers must already hold the versioned lock (or otherwise
    /// serialize against updates). Lock order: graph → standing →
    /// durable — `durable` stays the innermost lock.
    pub(crate) fn write_durable_snapshot(&self) -> io::Result<bool> {
        // Gather before locking the store so `durable` is taken last.
        let data = self.snapshot_data();
        let mut durable = self.core.durable.lock().expect("durable poisoned");
        match durable.as_mut() {
            Some(store) => {
                store.write_snapshot(&data)?;
                // Carry the planner's learned costs through the snapshot:
                // a restart then plans with everything this incarnation
                // observed instead of starting from the cold model.
                if let Some(planner) = &self.core.planner {
                    store.write_feedback(&planner.feedback().to_bytes())?;
                }
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Current state as an [`SnapshotData`]: graph, NLF, epoch, and
    /// every standing query with its maintained embedding set.
    fn snapshot_data(&self) -> SnapshotData {
        let data = self.core.graph.lock().expect("graph lock poisoned").clone();
        let standing = self.core.standing.lock().expect("standing poisoned");
        SnapshotData {
            epoch: data.epoch,
            graph: data.graph.clone(),
            nlf: data.nlf.clone(),
            label_pairs: data.label_pairs.clone(),
            standing: standing.iter().map(StandingSnapshot::from).collect(),
        }
    }

    /// Replay one logged batch without installing the post graph: commit
    /// it to the overlay, advance the epoch, and bring every standing set
    /// up to date from the delta. The expensive materialize + install is
    /// deferred to [`Service::install_head`] — one fold for the whole WAL
    /// tail instead of one per record, which is what keeps restart near
    /// snapshot-load speed even with a tail to replay. Returns the commit
    /// so the caller can patch carried indices from its delta.
    fn replay_batch(&self, batch: &UpdateBatch) -> (bool, u64, Option<Committed>) {
        let core = &self.core;
        let vg = core.versioned.lock().expect("versioned poisoned");
        let old_epoch = core.epoch.load(Ordering::Relaxed);
        let committed = sm_durable::commit_batch(&vg, None, old_epoch + 1, batch)
            .expect("commit without a store cannot fail");
        if committed.info.is_noop() {
            return (true, old_epoch, None);
        }
        let new_epoch = old_epoch + 1;
        core.epoch.store(new_epoch, Ordering::Relaxed);
        self.maintain_standing(&committed);
        (false, new_epoch, Some(committed))
    }

    /// Install the overlay head as the service's data graph under the
    /// current epoch — the deferred install closing a replay run.
    /// `pairs` is the label-pair index the caller patched alongside the
    /// replayed commits.
    fn install_head(&self, pairs: LabelPairEdgeCounts) {
        let core = &self.core;
        let (graph, nlf) = {
            let vg = core.versioned.lock().expect("versioned poisoned");
            let (_, graph, nlf) = vg.export_head();
            (graph, nlf)
        };
        let epoch = core.epoch.load(Ordering::Relaxed);
        let data = GraphData::from_parts_with_pairs(graph, nlf, pairs, epoch);
        *core.graph.lock().expect("graph lock poisoned") = data;
    }
}
