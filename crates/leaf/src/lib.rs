//! The Scuba leaf server (§2): stores a fraction of every table, accepts
//! new rows, answers queries, expires old data — and restarts fast.
//!
//! A [`LeafServer`] composes the substrates:
//!
//! * the column store ([`scuba_columnstore`]) as its in-memory state,
//! * the disk backup ([`scuba_diskstore`]) for durability and the slow
//!   recovery path,
//! * the restart protocol ([`scuba_restart`]) over shared memory
//!   ([`scuba_shmem`]) for the fast recovery path,
//! * the query engine ([`scuba_query`]) for leaf-local execution.
//!
//! The lifecycle mirrors §4:
//!
//! * [`LeafServer::shutdown_to_shm`] — the clean-shutdown path: stop
//!   accepting work, kill pending deletes, flush to disk, copy the column
//!   store into shared memory one row block column at a time, commit the
//!   valid bit, and go down (Figures 5(a)/5(c)/6). Tables still served
//!   from an attached planned image only have their new blocks appended.
//! * [`LeafServer::start`] — the startup path: attempt memory recovery;
//!   any problem (no valid bit, version skew, torn data) falls back to
//!   disk recovery, exactly as in Figures 5(b)/5(d)/7. Under
//!   [`RestoreMode::TwoPhase`] a planned image is attached and kept in
//!   place rather than copied back.

pub mod checkpoint;
pub mod compat;
pub mod config;
pub mod error;
mod hydrate;
pub mod image;
mod ingest;
pub mod persist;
mod recover;
pub mod residency;
mod scan;
pub mod server;

pub use checkpoint::{CheckpointOutcome, CheckpointStats, Checkpointer, SEG_FLAG_CHECKPOINT};
pub use config::{LeafConfig, RestoreMode, TieringMode};
pub use error::{LeafError, LeafResult};
pub use ingest::CrashReads;
pub use persist::{ImageJob, LeafStore};
pub use residency::{Residency, ResidencyManager};
pub use server::{LeafPhase, LeafServer, RecoveryOutcome, ShutdownSummary};

#[cfg(test)]
mod testkit;
