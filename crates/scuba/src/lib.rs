//! # scuba — Fast Database Restarts, reproduced
//!
//! A from-scratch Rust reproduction of *Fast Database Restarts at
//! Facebook* (Goel et al., SIGMOD 2014): an in-memory column store in the
//! shape of Scuba, plus the paper's contribution — restarting the server
//! process **without losing its in-memory data**, by parking the data in
//! POSIX shared memory across the process boundary.
//!
//! This crate is the facade: it re-exports every subsystem under one
//! namespace and hosts the workspace's examples and integration tests.
//!
//! ## The 60-second tour
//!
//! ```
//! use scuba::leaf::{LeafConfig, LeafServer};
//! use scuba::columnstore::Row;
//! use scuba::query::Query;
//!
//! # let dir = std::env::temp_dir().join(format!("scuba_doc_{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! // A leaf server with a disk backup and a shared-memory namespace.
//! let config = LeafConfig::new(0, format!("doc{}", std::process::id()), &dir);
//! let mut server = LeafServer::new(config.clone()).unwrap();
//!
//! // Ingest some rows and query them.
//! let rows: Vec<Row> = (0..1000).map(|i| Row::at(i).with("status", 200i64)).collect();
//! server.add_rows("requests", &rows, 0).unwrap();
//! assert_eq!(server.query(&Query::new("requests", 0, 1000)).unwrap().rows_matched, 1000);
//!
//! // Planned upgrade: park the data in shared memory and exit...
//! server.shutdown_to_shm(1000).unwrap();
//! drop(server);
//!
//! // ...and the replacement process recovers it at memory speed.
//! let (server, outcome) = LeafServer::start(config, 1000, None).unwrap();
//! assert!(outcome.is_memory());
//! assert_eq!(server.total_rows(), 1000);
//! # server.namespace().unlink_all(4);
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```
//!
//! ## Crate map
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`columnstore`] | `scuba-columnstore` | row blocks, row block columns, compression (Figures 2–3) |
//! | [`shmem`] | `scuba-shmem` | POSIX shared-memory segments, leaf metadata, valid bit (Figure 4) |
//! | [`restart`] | `scuba-restart` | the shutdown/restore protocol and state machines (Figures 5–7) |
//! | [`diskstore`] | `scuba-diskstore` | row-format disk backup (slow path) + shm-image format (§6) |
//! | [`leaf`] | `scuba-leaf` | the leaf server lifecycle |
//! | [`query`] | `scuba-query` | filters, aggregation, partial-result merging |
//! | [`ingest`] | `scuba-ingest` | Scribe, tailers, two-random-choice placement, workloads |
//! | [`cluster`] | `scuba-cluster` | hosted leaves, admission, the rollover loop, dashboard, paper-scale simulator |
//! | [`obs`] | `scuba-obs` | metrics registry, restart tracing, phase breakdowns, exposition sinks |

pub use scuba_cluster as cluster;
pub use scuba_columnstore as columnstore;
pub use scuba_diskstore as diskstore;
pub use scuba_ingest as ingest;
pub use scuba_leaf as leaf;
pub use scuba_obs as obs;
pub use scuba_query as query;
pub use scuba_restart as restart;
pub use scuba_shmem as shmem;

/// Convenience prelude: the types most programs touch.
pub mod prelude {
    pub use scuba_cluster::{
        rollover, ClusterConfig, HostedCluster, LeafHost, NullSloFeed, RolloverConfig, SloPolicy,
    };
    pub use scuba_columnstore::{ColumnType, Row, Table, Value};
    pub use scuba_ingest::{Scribe, Tailer, TailerConfig, WorkloadKind, WorkloadSpec};
    pub use scuba_leaf::{LeafConfig, LeafServer, RecoveryOutcome};
    pub use scuba_query::{parse_query, AggSpec, CmpOp, Filter, Query};
    pub use scuba_restart::{backup_to_shm, restore_from_shm, ShmBackup, ShmPersistable};
    pub use scuba_shmem::{ShmNamespace, ShmSegment};
}
