//! Leaf server configuration.

use std::path::PathBuf;

use scuba_columnstore::table::RetentionLimits;

/// Which restore path [`crate::LeafServer::start`] takes when a valid
/// shared-memory image is present.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreMode {
    /// Classic Figure-7 restore: copy every chunk shm→heap before serving.
    Full,
    /// Two-phase zero-copy restore: *attach* segments read-only and serve
    /// queries over the mapped bytes immediately. The image — planned or
    /// checkpoint — is then kept: its blocks stay mapped for the life of
    /// the process, and the next commit appends only what is new to its
    /// segments.
    TwoPhase,
}

/// Whether (and how) the leaf demotes sealed blocks to the disk
/// fast-format cold tier when `memory_budget_bytes` is exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TieringMode {
    /// No cold tier: blocks stay on heap (or warm shm mappings) and the
    /// budget is not enforced.
    Off,
    /// SIEVE eviction: sealed, zone-mapped blocks are demoted cold-first
    /// (one visited bit, lazy hand) until the hot+warm footprint fits
    /// `memory_budget_bytes`. Queries keep working over cold blocks in
    /// place; repeatedly-touched cold blocks are promoted back to heap.
    Sieve,
}

/// Static configuration for one leaf server process.
#[derive(Debug, Clone)]
pub struct LeafConfig {
    /// Machine-local leaf index (0..N-1; the paper runs N = 8 per
    /// machine, §2).
    pub leaf_id: u32,
    /// Cluster prefix for shared-memory segment names (keeps deployments
    /// and tests apart).
    pub shm_prefix: String,
    /// Directory holding this leaf's disk backup.
    pub disk_root: PathBuf,
    /// Memory capacity in bytes, reported to tailers for two-random-choice
    /// placement ("how much free memory they have", §2).
    pub memory_capacity: usize,
    /// Retention limits applied by [`crate::LeafServer::expire`].
    pub retention: RetentionLimits,
    /// Whether memory (shared-memory) recovery is enabled — the "memory
    /// recovery disabled" edge of Figure 5(b) when false.
    pub shm_recovery_enabled: bool,
    /// Worker threads for the backup/restore copy pipeline. 0 means auto
    /// (min(cores, 4)); the `SCUBA_COPY_THREADS` env var overrides both.
    pub copy_threads: usize,
    /// How to bring a valid shared-memory image back: copy-everything
    /// ([`RestoreMode::Full`]) or attach-and-keep
    /// ([`RestoreMode::TwoPhase`]).
    pub restore_mode: RestoreMode,
    /// Whether the continuous checkpointer + WAL crash-restart path is on.
    /// Off by default: the paper's planned-shutdown-only protocol is the
    /// baseline, and the crash path is the opt-in extension.
    pub checkpoint_enabled: bool,
    /// The crash path's lag cap. A checkpoint cycle starts whenever a row
    /// block seals, and the WAL holds each table's open block; once the
    /// log holds more than this many rows behind the oldest open block,
    /// that block is sealed early (and a cycle starts), so a slow table
    /// cannot hold the log back. 0 means no cap.
    pub checkpoint_interval_rows: usize,
    /// Restart trace id stamped on every backup/restore/WAL-replay span
    /// this leaf emits, letting one telemetry query
    /// reconstruct a fleet rollover as a per-leaf timeline. 0 means
    /// "untraced" — spans fall back to the process-wide
    /// `scuba_obs::current_trace_id()`.
    pub trace_id: u64,
    /// Ceiling on the memory-resident footprint (heap + warm shm bytes;
    /// cold mmap bytes don't count) that tiering enforces after every
    /// ingest. 0 means unlimited. Only meaningful with
    /// [`TieringMode::Sieve`].
    pub memory_budget_bytes: usize,
    /// Whether cold-tier demotion is on; see [`TieringMode`].
    pub tiering: TieringMode,
}

impl LeafConfig {
    /// A reasonable config for tests and examples.
    pub fn new(leaf_id: u32, shm_prefix: impl Into<String>, disk_root: impl Into<PathBuf>) -> Self {
        LeafConfig {
            leaf_id,
            shm_prefix: shm_prefix.into(),
            disk_root: disk_root.into(),
            memory_capacity: 512 << 20,
            retention: RetentionLimits::NONE,
            shm_recovery_enabled: true,
            copy_threads: 0,
            restore_mode: RestoreMode::Full,
            checkpoint_enabled: false,
            checkpoint_interval_rows: 0,
            trace_id: 0,
            memory_budget_bytes: 0,
            tiering: TieringMode::Off,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = LeafConfig::new(3, "test", "/tmp/x");
        assert_eq!(c.leaf_id, 3);
        assert!(c.shm_recovery_enabled);
        assert_eq!(c.retention, RetentionLimits::NONE);
        assert!(c.memory_capacity > 0);
        assert_eq!(c.restore_mode, RestoreMode::Full);
    }
}
