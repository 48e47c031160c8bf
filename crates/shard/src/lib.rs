//! # sm-shard — partitioned data graph + scatter-gather sharded serving
//!
//! Horizontal scale-out for the query service: the data graph is
//! partitioned across `k` shards, each backed by its own
//! [`sm_service::Service`] (worker pool, plan cache, admission control,
//! deadlines), and a [`ShardedService`] router presents the same
//! client contract as a single service.
//!
//! - **Partitioning** ([`partition`]) — hash or label-aware vertex
//!   ownership plus **k-hop halo replication**: each shard also holds
//!   every vertex within `halo_depth` hops of an owned one, sized to
//!   the maximum supported query diameter, so any embedding is fully
//!   contained in the shard owning its minimum-global-id vertex.
//! - **Scatter-gather queries** ([`router`]) — a submission fans out to
//!   all shards; shard-local embeddings are enumerated in parallel and
//!   stitched back through the halo with **exactly-once attribution**
//!   (minimum-id ownership, the analogue of sm-delta's
//!   first-changed-edge rule). Caps are exact across shards; outcomes,
//!   deadlines and backpressure behave as on a single service.
//! - **Epoch-consistent updates** — one global versioned commit routes
//!   per-shard delta batches under a write lock, so a concurrent query
//!   never observes a torn (mixed-epoch) scatter; standing queries are
//!   kept once at the router, maintained from that global commit.
//! - **Durability** — [`ShardedService::new_durable`] /
//!   [`ShardedService::open`] hang an `sm-durable` WAL + snapshot store
//!   off the router's single global commit point: one WAL record per
//!   cross-shard batch (per-shard state is derived and never
//!   persisted), and recovery repartitions the recovered global graph
//!   under whatever shard layout it is reopened with.
//!
//! Zero external dependencies, like the rest of the workspace.

#![warn(missing_docs)]

pub mod partition;
pub mod router;

pub use partition::{assign_owners, Partition, PartitionStrategy, ShardPiece};
pub use router::{
    ShardConfig, ShardDetail, ShardStandingId, ShardedMetricsReport, ShardedService,
    ShardedUpdateReport,
};

#[cfg(test)]
mod asserts {
    /// The router moves streams and maps across threads; these bounds
    /// make that legal.
    #[test]
    fn shared_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::ShardedService>();
    }
}
