//! The core contribution of *Fast Database Restarts at Facebook* (SIGMOD
//! 2014) as a reusable library: restart a database process without losing
//! its in-memory state, by decoupling memory lifetime from process
//! lifetime.
//!
//! "Our key observation is that we can decouple the memory lifetime from
//! the process lifetime. When we shutdown a server for a planned upgrade,
//! we know that the memory state is valid (unlike when a server shuts
//! down unexpectedly). We can therefore use shared memory to preserve
//! memory state from the old server process to the new process."
//!
//! The library is generic over the store being persisted via
//! [`ShmPersistable`] — the paper notes the technique "can be applied to
//! the in-memory state of any database". The pieces:
//!
//! * [`state`] — the four state machines of Figure 5 (leaf/table ×
//!   backup/restore), with transitions enforced at runtime.
//! * [`backup`] — the Figure 6 shutdown procedure: create the metadata
//!   region with the valid bit false, stream each unit into its own
//!   segment **chunk by chunk, freeing heap as it goes**, then commit by
//!   setting the valid bit.
//! * [`restore`] — the Figure 7 startup procedure: check the valid bit
//!   (fall back to disk recovery if unset, corrupt, or version-skewed),
//!   clear it, copy each unit back to heap chunk by chunk while punching
//!   the consumed pages out of the segment, and delete the segments.
//! * [`copy`] — the worker pool both directions share: per-unit copy jobs
//!   fan out across a bounded `std::thread` pool ([`CopyOptions`],
//!   `SCUBA_COPY_THREADS`) so the copy runs at memory-bandwidth speed on
//!   multi-core hosts, while the valid-bit commit stays single-shot under
//!   the coordinator.
//!
//! Everything here is crash-conservative: any failure, torn copy, or
//! version mismatch surfaces as [`restore::Fallback`], which the caller
//! answers with a disk recovery (§4.3: "We do not use shared memory to
//! recover from a crash; the crash may have been caused by memory
//! corruption").

pub mod backup;
pub mod copy;
pub mod framing;
pub mod migrate;
mod phases;
pub mod restore;
pub mod state;
pub mod traits;
pub mod wal;

pub use backup::{backup_to_shm, backup_to_shm_with, BackupError, BackupReport};
pub use copy::{
    default_copy_threads, fan_out, resolve_copy_threads, CopyOptions, COPY_THREADS_ENV,
};
pub use restore::{
    attach_from_shm, restore_from_shm, restore_from_shm_with, AttachReport, Fallback, RestoreError,
    RestoreReport,
};
pub use state::{
    LeafBackupState, LeafRestoreState, StateError, TableBackupState, TableRestoreState,
};
pub use traits::{
    ChunkDesc, ChunkSink, ChunkSource, MappedChunk, MappedChunkSource, ShmPersistable,
    FLAG_SKIPPABLE,
};
pub use wal::{read_segments, read_wal, SegmentedWal, WalContents, WalError, WalWriter};

/// Version of the shared-memory layout this library writes — and the
/// reader version this binary implements. The paper treats any version
/// change as fatal to the memory path (§4.2); here the metadata region
/// records a (writer, min-reader) pair instead, and
/// [`migrate::check_image_compat`] accepts every image whose
/// `min_reader_version` this binary satisfies. Version 1 is the legacy
/// bare-framed layout, still readable; version 2 is the self-describing
/// TLV layout.
pub const SHM_LAYOUT_VERSION: u32 = 2;
