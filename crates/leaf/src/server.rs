//! The leaf server lifecycle: serve → clean shutdown to shared memory →
//! fast restart (or disk recovery).
//!
//! [`LeafServer`] owns the stages; each lives in its own module:
//! recovery at start in `recover`, the crash path in `ingest`, the
//! first-touch checks of mapped blocks in `hydrate`, the query path in
//! `scan`, and the tiering glue
//! beside [`crate::residency::ResidencyManager`]. Ingest, expiry and the
//! planned shutdown stay here.

use std::time::Duration;

use scuba_columnstore::Row;
use scuba_diskstore::{ColdStore, DiskBackup, RecoveryStats, Throttle};
use scuba_restart::{
    backup_to_shm_with, AttachReport, BackupReport, CopyOptions, LeafBackupState, RestoreReport,
    TableBackupState, SHM_LAYOUT_VERSION,
};
use scuba_shmem::ShmNamespace;

use crate::config::{LeafConfig, TieringMode};
use crate::error::{LeafError, LeafResult};
use crate::ingest::CrashPath;
use crate::persist::{ImageJob, LeafStore};
use crate::recover::sweep_image;
use crate::residency::ResidencyManager;

pub use crate::ingest::WAL_DIR;

/// Check the failpoint guarding entry into a lifecycle phase. `error`
/// plans surface as [`LeafError::Injected`] (the caller treats the leaf as
/// crashed); `abort` plans kill the process at the phase itself, which is
/// how the chaos tests stand a real death on each [`LeafPhase`].
pub(crate) fn phase_failpoint(site: &'static str) -> LeafResult<()> {
    if scuba_faults::check(site).is_some() {
        return Err(LeafError::Injected { site });
    }
    Ok(())
}

/// Coarse lifecycle phase of a leaf, deciding request admission (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafPhase {
    /// Serving adds and queries.
    Alive,
    /// Draining for shutdown (rejects new work).
    Preparing,
    /// Copying heap → shared memory.
    CopyingToShm,
    /// Restoring shared memory → heap (no adds, no queries).
    MemoryRecovery,
    /// Rebuilding from disk (adds and queries allowed; results partial).
    DiskRecovery,
    /// Process gone.
    Down,
}

impl LeafPhase {
    /// Phase name for errors and dashboards.
    pub fn name(self) -> &'static str {
        match self {
            LeafPhase::Alive => "ALIVE",
            LeafPhase::Preparing => "PREPARE",
            LeafPhase::CopyingToShm => "COPY_TO_SHM",
            LeafPhase::MemoryRecovery => "MEMORY_RECOVERY",
            LeafPhase::DiskRecovery => "DISK_RECOVERY",
            LeafPhase::Down => "DOWN",
        }
    }

    /// May rows be added? (§4.3: disk recovery accepts adds, memory
    /// recovery does not.)
    pub fn accepts_adds(self) -> bool {
        matches!(self, LeafPhase::Alive | LeafPhase::DiskRecovery)
    }

    /// May queries run? (Same admission rule as adds.)
    pub fn accepts_queries(self) -> bool {
        self.accepts_adds()
    }

    /// Stable ordinal for the `leaf_phase` gauge (0 = ALIVE … 5 = DOWN).
    pub fn index(self) -> u8 {
        match self {
            LeafPhase::Alive => 0,
            LeafPhase::Preparing => 1,
            LeafPhase::CopyingToShm => 2,
            LeafPhase::MemoryRecovery => 3,
            LeafPhase::DiskRecovery => 4,
            LeafPhase::Down => 5,
        }
    }
}

/// How a leaf came back up.
#[derive(Debug, Clone)]
pub enum RecoveryOutcome {
    /// Shared-memory restore succeeded (everything copied to heap).
    Memory(RestoreReport),
    /// Shared-memory *attach* succeeded ([`crate::RestoreMode::TwoPhase`]):
    /// the leaf serves the mapped segments in place — a planned image and
    /// a checkpoint image alike — and is at full speed from here.
    MemoryAttached(AttachReport),
    /// Fell back to (or was configured for) disk recovery; carries the
    /// reason and the disk recovery stats.
    Disk {
        /// Why memory recovery did not happen.
        reason: String,
        /// Read/translate breakdown of the disk path.
        stats: RecoveryStats,
    },
}

impl RecoveryOutcome {
    /// True if this was a fast (memory) recovery.
    pub fn is_memory(&self) -> bool {
        matches!(
            self,
            RecoveryOutcome::Memory(_) | RecoveryOutcome::MemoryAttached(_)
        )
    }

    /// Wall-clock duration until the leaf accepted its first request.
    pub fn duration(&self) -> Duration {
        match self {
            RecoveryOutcome::Memory(r) => r.duration,
            RecoveryOutcome::MemoryAttached(r) => r.duration,
            RecoveryOutcome::Disk { stats, .. } => stats.read_duration + stats.translate_duration,
        }
    }
}

/// What a clean shutdown did.
#[derive(Debug)]
pub struct ShutdownSummary {
    /// Per-table final backup state (all `Done` on success).
    pub table_states: Vec<(String, TableBackupState)>,
    /// Rows that were still unsealed and got sealed during prepare.
    pub sealed_rows: usize,
    /// Dirty bytes flushed to disk during prepare (§4.1 synchronization).
    pub disk_synced_bytes: u64,
    /// The shared-memory copy report.
    pub backup: BackupReport,
}

/// One leaf's metric series labelled `leaf` = `{shm_prefix}:{leaf_id}`,
/// unique per leaf within the process. Every update is a no-op while
/// observability is off.
#[derive(Debug, Clone)]
pub(crate) struct LeafMetrics(String);

impl LeafMetrics {
    /// Add `n` to this leaf's counter `name`.
    pub(crate) fn add(&self, name: &str, n: u64) {
        if scuba_obs::enabled() {
            scuba_obs::labeled_counter(name, &[("leaf", &self.0)]).add(n);
        }
    }

    /// Set this leaf's gauge `name`.
    pub(crate) fn set(&self, name: &str, value: i64) {
        if scuba_obs::enabled() {
            scuba_obs::labeled_gauge(name, &[("leaf", &self.0)]).set(value);
        }
    }

    /// Set this leaf's gauge `name` to `elapsed`, in nanoseconds.
    pub(crate) fn set_ns(&self, name: &str, elapsed: Duration) {
        self.set(name, elapsed.as_nanos().min(i64::MAX as u128) as i64);
    }

    /// Emit one explicit-duration span `name` for this leaf's `op` and
    /// `phase` under `trace_id`, when observability is on. Restart spans
    /// are taken from the restart reports, so the telemetry table stores
    /// exactly the numbers the Figure-5 breakdown prints.
    pub(crate) fn span(
        &self,
        name: &'static str,
        op: &str,
        phase: &str,
        duration: Duration,
        trace_id: u64,
    ) {
        if !scuba_obs::enabled() {
            return;
        }
        scuba_obs::emit_span(scuba_obs::SpanRecord {
            name,
            attrs: vec![
                ("leaf", self.0.clone()),
                ("op", op.to_owned()),
                ("phase", phase.to_owned()),
            ],
            duration,
            bytes: 0,
            outcome: "ok",
            trace_id,
        });
    }
}

/// One Scuba leaf server.
#[derive(Debug)]
pub struct LeafServer {
    pub(crate) config: LeafConfig,
    pub(crate) store: LeafStore,
    pub(crate) disk: DiskBackup,
    pub(crate) ns: ShmNamespace,
    phase: LeafPhase,
    pub(crate) obs: LeafMetrics,
    /// The `now` the leaf started with; stamps blocks if an attached
    /// image is condemned and the leaf falls back to disk recovery.
    pub(crate) hydrate_now: i64,
    /// Why the leaf fell back from its attached image to disk, if it did.
    pub(crate) hydration_fallback: Option<String>,
    /// First deferred-CRC failure a query found in a mapped block, if
    /// any. Queries take `&self`, so they can only *record* it; the next
    /// `poll_hydration`/`finish_hydration` (or a shutdown) turns it into
    /// the disk fallback.
    pub(crate) mapped_poison: std::sync::Mutex<Option<String>>,
    /// Units the last memory recovery skipped as format-incompatible and
    /// recovered from disk instead (per-table fallback).
    pub(crate) skipped_units: Vec<String>,
    /// The WAL, the checkpointer and their bookkeeping.
    pub(crate) crash: CrashPath,
    /// The disk fast-format cold tier (`<disk_root>/cold`): one
    /// append-only file per table holding demoted block images, served by
    /// mmap.
    pub(crate) cold: ColdStore,
    /// SIEVE residency manager driving demotion and promotion under
    /// `memory_budget_bytes`. Idle unless `tiering == Sieve`.
    pub(crate) residency: ResidencyManager,
    /// Optional pacing for cold-tier demotion writes (the §4.4 lesson:
    /// never let a background copy starve the serving path).
    pub(crate) cold_throttle: Option<Throttle>,
    /// The most recent ingest `now`, stamping the blocks a checkpoint
    /// seals and those a residency-fault per-table disk fallback rebuilds.
    pub(crate) tier_now: i64,
}

impl LeafServer {
    /// Create an empty leaf (first boot; no recovery attempted).
    pub fn new(config: LeafConfig) -> LeafResult<LeafServer> {
        let mut server = LeafServer::new_core(config)?;
        // First boot abandons any predecessor state, whatever the crash
        // path: a *valid* stale image — checkpoint or planned — left
        // linked would let a crash of this life send the next start()
        // back to the abandoned life's rows.
        sweep_image(&server.ns);
        if server.crash.enabled() {
            server.crash.open(true, &mut server.store, 0);
        }
        Ok(server)
    }

    /// Build the server shell with its crash path not yet open.
    pub(crate) fn new_core(config: LeafConfig) -> LeafResult<LeafServer> {
        let disk = DiskBackup::open(&config.disk_root)?;
        let cold = ColdStore::open(config.disk_root.join("cold"))?;
        let ns = ShmNamespace::new(&config.shm_prefix, config.leaf_id)?;
        let obs = LeafMetrics(format!("{}:{}", config.shm_prefix, config.leaf_id));
        let crash = CrashPath::new(&config, ns.clone(), obs.clone());
        let mut server = LeafServer {
            config,
            store: LeafStore::new(),
            disk,
            ns,
            phase: LeafPhase::Alive,
            obs,
            hydrate_now: 0,
            hydration_fallback: None,
            mapped_poison: std::sync::Mutex::new(None),
            skipped_units: Vec::new(),
            crash,
            cold,
            residency: ResidencyManager::new(),
            cold_throttle: None,
            tier_now: 0,
        };
        // Pre-register the tiering counters at zero so dashboards and the
        // obs lint see the full series set even before the first demotion.
        for name in [
            "leaf_demotions_total",
            "leaf_promotions_total",
            "leaf_residency_faults_total",
        ] {
            server.obs.add(name, 0);
        }
        server.set_phase(LeafPhase::Alive);
        Ok(server)
    }

    /// Record a phase edge: the admission-controlling field plus the
    /// per-leaf `leaf_phase` / `leaf_accepting_queries` gauges the
    /// dashboard feed reads. Every phase assignment goes through here.
    pub(crate) fn set_phase(&mut self, phase: LeafPhase) {
        self.phase = phase;
        self.obs.set("leaf_phase", i64::from(phase.index()));
        self.obs
            .set("leaf_accepting_queries", i64::from(phase.accepts_queries()));
        self.publish_memory_gauges();
    }

    /// Publish the resident/cold split (§4.4 accounting: a byte is
    /// resident — heap or a mapped image — or disk-cold, never counted
    /// twice).
    pub(crate) fn publish_memory_gauges(&self) {
        if !scuba_obs::enabled() {
            return;
        }
        let map = self.store.map();
        self.obs.set("leaf_heap_bytes", self.memory_used() as i64);
        self.obs.set("leaf_cold_bytes", map.cold_bytes() as i64);
        self.obs.set("leaf_cold_blocks", map.cold_blocks() as i64);
    }

    /// Stamp every restart span this leaf emits from now on with `id`
    /// (rollover sets this to its wave's trace id before the kill).
    pub fn set_trace_id(&mut self, id: u64) {
        self.config.trace_id = id;
    }

    /// The trace id restart spans carry: the per-leaf override when set,
    /// else the process-wide trace (racy across parallel rollovers in one
    /// process, which is why the override exists).
    fn span_trace_id(&self) -> u64 {
        if self.config.trace_id != 0 {
            self.config.trace_id
        } else {
            scuba_obs::current_trace_id()
        }
    }

    /// Emit one restart-timeline span for this leaf under the active
    /// trace id ([`LeafMetrics::span`]).
    pub(crate) fn emit_restart_span(
        &self,
        name: &'static str,
        op: &str,
        phase: &str,
        duration: Duration,
    ) {
        self.obs
            .span(name, op, phase, duration, self.span_trace_id());
    }

    /// Units the last memory recovery skipped as format-incompatible and
    /// disk-recovered individually (empty when everything came back
    /// through shared memory).
    pub fn skipped_units(&self) -> &[String] {
        &self.skipped_units
    }

    /// Current phase.
    pub fn phase(&self) -> LeafPhase {
        self.phase
    }

    /// The error for a request the current phase does not admit.
    pub(crate) fn unavailable(&self, operation: &'static str) -> LeafError {
        LeafError::Unavailable {
            operation,
            phase: self.phase.name(),
        }
    }

    /// The `leaf` label on this server's metric series
    /// (`{shm_prefix}:{leaf_id}`), for dashboards that read the gauges.
    pub fn obs_key(&self) -> &str {
        &self.obs.0
    }

    /// Prometheus text exposition of the process-wide metrics — what this
    /// leaf's scrape endpoint would serve.
    pub fn metrics_prometheus(&self) -> String {
        scuba_obs::prometheus_text()
    }

    /// JSON snapshot of the process-wide metrics.
    pub fn metrics_json(&self) -> String {
        scuba_obs::json_snapshot()
    }

    /// This leaf's shared-memory namespace.
    pub fn namespace(&self) -> &ShmNamespace {
        &self.ns
    }

    /// The leaf's configuration.
    pub fn config(&self) -> &LeafConfig {
        &self.config
    }

    /// The resident set: heap bytes plus the column bytes of the image
    /// this leaf attached and serves in place — everything it holds in
    /// memory for good.
    pub fn memory_used(&self) -> usize {
        use scuba_restart::ShmPersistable;
        self.store.heap_bytes() + self.store.map().mapped_bytes()
    }

    /// Bytes resident in shared memory that still await a copy to heap:
    /// always 0, since a leaf serves every image it attaches in place
    /// (their bytes count in [`LeafServer::memory_used`]).
    pub fn shm_resident(&self) -> usize {
        0
    }

    /// Free memory, as reported to tailers for two-random-choice placement
    /// (§2: the tailer "asks them both for their current state and how
    /// much free memory they have"). Heap and mapped bytes both count
    /// against capacity: the mapped pages are this leaf's to keep.
    pub fn free_memory(&self) -> usize {
        self.config
            .memory_capacity
            .saturating_sub(self.memory_used())
    }

    /// Total rows held.
    pub fn total_rows(&self) -> usize {
        self.store.map().total_rows()
    }

    /// The store (read access for tests and tools).
    pub fn store(&self) -> &LeafStore {
        &self.store
    }

    /// Mutable store access for benchmarks that drive the restart
    /// protocol directly, bypassing the lifecycle. Not for normal use:
    /// it skips the phase gating.
    #[doc(hidden)]
    pub fn store_mut_for_bench(&mut self) -> &mut LeafStore {
        &mut self.store
    }

    /// Add a batch of rows: into memory and appended to the disk backup
    /// (buffered; durable at the next sync).
    pub fn add_rows(&mut self, table: &str, rows: &[Row], now: i64) -> LeafResult<()> {
        let latency = scuba_obs::Stopwatch::start();
        if !self.phase.accepts_adds() {
            return Err(self.unavailable("add rows"));
        }
        self.tier_now = now;
        let before = self.store.map().get(table);
        let (start_rows, blocks) = before.map_or((0, 0), |t| (t.row_count(), t.blocks().len()));
        self.store.append_rows(table, rows, now)?;
        if let Err(e) = self.disk.append(table, rows) {
            // Memory now holds rows the disk log skipped: the memory↔disk
            // prefix correspondence the crash path reconciles against is
            // broken mid-file, not at a suffix. Degrade the next crash to
            // the disk path rather than let a reconcile duplicate rows.
            self.crash
                .poison(&mut self.store, format!("disk append: {e}"));
            return Err(e.into());
        }
        let start = (start_rows as u64, blocks);
        self.crash
            .append(&mut self.store, &self.disk, table, start, rows, now);
        // Tiering piggybacks on ingest the way checkpoints do: the write
        // path is the one place every leaf visits on a steady cadence.
        self.run_tiering(now)?;
        if latency.active() {
            scuba_obs::histogram!("leaf_ingest_latency_ns").observe(latency.elapsed_ns());
        }
        Ok(())
    }

    /// Apply retention limits (blocked during shutdown: Figure 5(c) kills
    /// deletes at Prepare).
    pub fn expire(&mut self, now: i64) -> LeafResult<usize> {
        if !matches!(self.phase, LeafPhase::Alive) {
            return Err(self.unavailable("delete expired data"));
        }
        let mut dropped = 0usize;
        let mut shrunk: Vec<String> = Vec::new();
        for table in self.store.map_mut().iter_mut() {
            let n = table.expire(self.config.retention, now);
            if n > 0 {
                dropped += n;
                shrunk.push(table.name().to_owned());
            }
        }
        for name in &shrunk {
            // The disk log must shrink with memory: expiry drops the
            // oldest blocks — the log's *prefix* — so without a rewrite a
            // later disk recovery resurrects expired rows, and the crash
            // path's memory↔disk prefix correspondence breaks.
            let table = self.store.map().get(name).expect("expired above");
            let result = Self::materialize_rows_from(table, 0).and_then(|rows| {
                self.disk
                    .rewrite_table(name, &rows)
                    .map_err(|e| e.to_string())
            });
            if let Err(reason) = result {
                // The rows already left memory; failing the request can't
                // undo that. Degrade the crash path instead: with the log
                // out of step, no future crash may reconcile against it.
                scuba_obs::counter!("leaf_expiry_rewrite_failures_total").inc();
                self.crash.poison(
                    &mut self.store,
                    format!("expiry rewrite of {name:?}: {reason}"),
                );
            }
        }
        if dropped > 0 {
            // Expiry removed blocks of the committed image and shrank row
            // counts under the WAL's start anchors: invalidate the image,
            // which frees its expired pages to be punched, and start the
            // crash path over.
            self.crash.reset(&mut self.store, now);
        }
        if self.config.tiering == TieringMode::Sieve && !shrunk.is_empty() {
            // Expiry drops the oldest blocks first — exactly the ones most
            // likely to be cold. Tables whose cold count hit zero can shed
            // their fast-format file; the SIEVE ring re-syncs so the hand
            // doesn't walk freed blocks.
            self.shed_cold_files(&shrunk);
            self.residency.sync(self.store.map());
        }
        // An image that lost its oldest blocks is written whole at the
        // next commit; their pages go back to tmpfs now that the ring
        // and the crash path hold them no more.
        for name in &shrunk {
            self.store.reclaim(name);
        }
        Ok(dropped)
    }

    /// Flush buffered disk appends and fsync (the WAL too: its records
    /// become durable against machine failure on the same cadence as the
    /// backup they shadow). On success, a coverage anchor lands in
    /// the WAL so a crash recovery can verify disk coverage by scanning
    /// only the bytes written after this point.
    pub fn sync_disk(&mut self) -> LeafResult<u64> {
        let bytes = self.disk.sync()?;
        self.crash.sync(&mut self.store, &self.disk);
        Ok(bytes)
    }

    /// Clean shutdown via shared memory — Figures 5(a), 5(c), and 6.
    ///
    /// Walks the leaf through `Alive → CopyToShm → Exit` and every table
    /// through `Alive → Prepare → CopyToShm → Done`: stop accepting work,
    /// seal unsealed rows, flush the disk backup, copy everything into
    /// shared memory, commit the valid bit. A table that still starts with
    /// the blocks of its image — attached at start, or committed by a
    /// checkpoint — is not copied: only its blocks sealed since are
    /// appended to its segment. On success the server is
    /// `Down` and holds no data; the replacement process recovers it with
    /// [`LeafServer::start`].
    pub fn shutdown_to_shm(&mut self, now: i64) -> LeafResult<ShutdownSummary> {
        if self.phase != LeafPhase::Alive {
            return Err(self.unavailable("shut down"));
        }
        // A kept image a query found corrupt must not be carried into the
        // next one: rebuild from disk first, and write that whole.
        if let Some(reason) = self.mapped_poison.get_mut().unwrap().take() {
            self.fall_back_to_disk(reason)?;
        }
        let mut leaf_state = LeafBackupState::Alive;

        // PREPARE (Figure 5(c)): reject new requests, kill deletes, wait
        // for in-flight adds/queries (synchronous here), flush to disk.
        self.set_phase(LeafPhase::Preparing);
        phase_failpoint("leaf::phase::preparing")?;
        let mut table_states: Vec<(String, TableBackupState)> = self
            .store
            .map()
            .names()
            .map(|n| (n.to_owned(), TableBackupState::Alive))
            .collect();
        for (_, st) in &mut table_states {
            *st = st.transition(TableBackupState::Prepare)?;
        }
        let sealed_rows = self
            .store
            .map()
            .iter()
            .map(|t| t.unsealed_rows())
            .sum::<usize>();
        self.store.seal_all(now)?;
        // Drop the SIEVE ring's block pins: the backup frees the heap
        // table-by-table via `Arc::try_unwrap`, which a lingering pin
        // would defeat.
        self.residency.clear();
        let disk_synced_bytes = self.sync_disk()?;

        // The crash path gives way to the backup, which extends the same
        // segments. Up to the backup's own invalid window, a failure still
        // leaves the committed checkpoint image for the replacement to
        // crash-recover from.
        self.crash.stop(&mut self.store);

        // COPY TO SHM (Figures 5(a) and 6).
        leaf_state = leaf_state.transition(LeafBackupState::CopyToShm)?;
        self.set_phase(LeafPhase::CopyingToShm);
        phase_failpoint("leaf::phase::copying")?;
        for (_, st) in &mut table_states {
            *st = st.transition(TableBackupState::CopyToShm)?;
        }
        let mut job = ImageJob::drain(&mut self.store);
        let backup = backup_to_shm_with(
            &mut job,
            &self.ns,
            SHM_LAYOUT_VERSION,
            CopyOptions::with_threads(self.config.copy_threads),
        )
        .map_err(|e| {
            // The envelope unlinked what it created; the live segments it
            // extended go now: a failed shutdown leaves nothing to attach
            // and nothing linked.
            sweep_image(&self.ns);
            LeafError::Backup(e.to_string())
        })?;
        self.store.commit_image(job.written);
        for &(phase, d) in &backup.phases.phases {
            self.emit_restart_span("restart.phase", "backup", phase.name(), d);
        }
        for (_, st) in &mut table_states {
            *st = st.transition(TableBackupState::Done)?;
        }

        // The backup's valid bit is committed: the image covers every
        // row, so the WAL is obsolete. Drop it before exit.
        self.crash.retire_log(&mut self.store);

        // EXIT. A fault here stands on the narrowest ledge: the valid bit
        // is already committed, so a death is a *successful* shutdown and
        // the replacement memory-restores.
        phase_failpoint("leaf::phase::exit")?;
        leaf_state = leaf_state.transition(LeafBackupState::Exit)?;
        debug_assert_eq!(leaf_state, LeafBackupState::Exit);
        self.set_phase(LeafPhase::Down);

        Ok(ShutdownSummary {
            table_states,
            sealed_rows,
            disk_synced_bytes,
            backup,
        })
    }

    /// Crash the leaf: drop everything without copying to shared memory.
    /// With the crash path off, the next start finds no valid bit and
    /// recovers from disk — the paper's §4 crash behaviour. With it on,
    /// the committed checkpoint image and the WAL survive the death, and
    /// the next start replays the tail on top of the image.
    pub fn crash(&mut self) {
        // Ordering matters: the checkpointer's last cycle is applied
        // before the store drops, so every segment a commit lists has its
        // views disarmed and outlives them. Views no commit listed unlink
        // their segments as the store drops.
        self.crash.abandon(&mut self.store);
        // A SIGKILL loses the disk backup's userspace buffer too: drop it
        // unflushed so the crash's durability is exactly the synced
        // prefix, not whatever the allocator felt like flushing.
        self.disk.discard_buffered();
        self.residency.clear();
        self.store = LeafStore::new();
        self.set_phase(LeafPhase::Down);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RestoreMode;
    use crate::testkit::*;
    use scuba_columnstore::table::RetentionLimits;
    use scuba_columnstore::Value;
    use scuba_query::{AggSpec, GroupKey, Query};
    use std::sync::Arc;

    #[test]
    fn serve_add_and_query() {
        let (cfg, dir) = test_config("serve");
        let mut s = LeafServer::new(cfg).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 100);
        assert_eq!(s.total_rows(), 100);
        let q = Query::new("logs", 0, 100)
            .group_by("sev")
            .aggregates(vec![AggSpec::Count]);
        let r = s.query(&q).unwrap();
        assert_eq!(
            r.groups[&GroupKey::Str("error".into())][0].finish(),
            Value::Int(10)
        );
        // Unknown table: empty, not an error.
        let r = s.query(&Query::new("nope", 0, 100)).unwrap();
        assert_eq!(r.rows_matched, 0);
    }

    #[test]
    fn shm_restart_cycle_preserves_data_and_is_fast_path() {
        let (cfg, dir) = test_config("cycle");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 1000);

        let summary = s.shutdown_to_shm(10).unwrap();
        assert_eq!(s.phase(), LeafPhase::Down);
        assert_eq!(summary.sealed_rows, 1000);
        assert!(summary
            .table_states
            .iter()
            .all(|(_, st)| *st == TableBackupState::Done));
        assert!(summary.backup.bytes_copied > 0);
        assert_eq!(s.total_rows(), 0);
        drop(s); // old process exits

        let (s2, outcome) = LeafServer::start(cfg, 20, None).unwrap();
        assert!(outcome.is_memory(), "{outcome:?}");
        assert_eq!(s2.phase(), LeafPhase::Alive);
        assert_eq!(s2.total_rows(), 1000);
        let r = s2.query(&Query::new("logs", 0, 2000)).unwrap();
        assert_eq!(r.rows_matched, 1000);
    }

    #[test]
    fn requests_rejected_while_down() {
        let (cfg, dir) = test_config("down");
        let mut s = LeafServer::new(cfg).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 10);
        s.shutdown_to_shm(0).unwrap();
        assert!(matches!(
            s.add_rows("logs", &[Row::at(1)], 0),
            Err(LeafError::Unavailable { .. })
        ));
        assert!(s.query(&Query::new("logs", 0, 10)).is_err());
        assert!(s.expire(0).is_err());
        assert!(s.shutdown_to_shm(0).is_err()); // double shutdown
                                                // Clean up shm left by the successful shutdown.
        s.namespace().unlink_all(4);
    }

    /// A batch the store rejects changes nothing: memory, the disk log and
    /// the WAL are as they were — not even the rows before the bad cell
    /// are applied, nor a table the batch would have created — so no
    /// anchor or image can claim rows the disk log lacks, and a memory
    /// start and a disk start both serve exactly the accepted rows.
    #[test]
    fn a_rejected_batch_leaves_memory_disk_and_log_as_they_were() {
        let (cfg, dir) = crash_config("rejected");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 10);
        let wal = s.wal_bytes();
        let bad = [
            Row::at(10).with("code", 1i64),
            Row::at(11).with("code", 2i64),
            Row::at(12).with("code", "three"),
        ];
        let err = s.add_rows("logs", &bad, 0).unwrap_err();
        assert!(
            matches!(
                err,
                LeafError::Store(scuba_columnstore::Error::TypeMismatch { .. })
            ),
            "{err:?}"
        );
        let fresh = [Row::at(0).with("x", 1i64), Row::at(1).with("x", "one")];
        assert!(s.add_rows("fresh", &fresh, 0).is_err());
        assert!(
            s.store().map().get("fresh").is_none(),
            "a rejected batch made a table"
        );
        assert_eq!(s.total_rows(), 10);
        assert_eq!(s.wal_bytes(), wal, "a rejected batch reached the WAL");
        s.sync_disk().unwrap();
        let backup = DiskBackup::open(&cfg.disk_root).unwrap();
        assert_eq!(backup.coverage("logs", None).unwrap().rows, 10);
        assert_eq!(backup.tables().unwrap(), ["logs"]);
        drop(backup);

        s.checkpoint_and_wait().unwrap();
        s.crash();
        drop(s);
        let (mut s, outcome) = LeafServer::start(cfg.clone(), 0, None).unwrap();
        assert!(outcome.is_memory(), "{outcome:?}");
        assert_eq!(s.total_rows(), 10);
        s.crash();
        drop(s);
        let mut disk_only = cfg;
        disk_only.shm_recovery_enabled = false;
        let (s, outcome) = LeafServer::start(disk_only, 0, None).unwrap();
        assert!(!outcome.is_memory(), "{outcome:?}");
        assert_eq!(s.total_rows(), 10);
    }

    #[test]
    fn free_memory_reporting() {
        let (mut cfg, dir) = test_config("mem");
        cfg.memory_capacity = 1 << 20;
        let mut s = LeafServer::new(cfg).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        let before = s.free_memory();
        assert_eq!(before, 1 << 20);
        fill(&mut s, 1000);
        assert!(s.free_memory() < before);
        assert_eq!(s.free_memory(), (1 << 20) - s.memory_used());
    }

    #[test]
    fn expire_applies_retention() {
        let (mut cfg, dir) = test_config("exp");
        cfg.retention = RetentionLimits {
            max_age_secs: Some(50),
            max_bytes: None,
        };
        let mut s = LeafServer::new(cfg).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 100); // times 0..99
        s.store.map_mut().get_mut("logs").unwrap().seal(0).unwrap();
        // now = 200: whole block's max_time (99) < 150 cutoff -> dropped.
        let dropped = s.expire(200).unwrap();
        assert_eq!(dropped, 1);
        assert_eq!(s.total_rows(), 0);
    }

    /// Expiry must shrink the disk log along with memory: after dropping
    /// a block, a disk recovery surfaces only surviving + new rows, not
    /// resurrected expired ones.
    #[test]
    fn expire_rewrites_disk_backup() {
        let (mut cfg, dir) = test_config("exprw");
        cfg.retention = RetentionLimits {
            max_age_secs: Some(50),
            max_bytes: None,
        };
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 100); // times 0..99
        s.sync_disk().unwrap();
        s.store.map_mut().get_mut("logs").unwrap().seal(0).unwrap();
        assert_eq!(s.expire(200).unwrap(), 1); // whole block expired
        let fresh: Vec<Row> = (200..220).map(|i| Row::at(i).with("sev", "new")).collect();
        s.add_rows("logs", &fresh, 200).unwrap();
        s.sync_disk().unwrap();
        s.crash();
        drop(s);

        let (s2, outcome) = LeafServer::start(cfg, 200, None).unwrap();
        assert!(!outcome.is_memory());
        assert_eq!(
            s2.total_rows(),
            20,
            "disk recovery resurrected expired rows"
        );
    }

    // ---- a leaf that keeps the planned image it attached ----

    /// Rows `from..from + n` of `table`: a time, a severity and a code.
    fn rows_at(from: i64, n: i64) -> Vec<Row> {
        (from..from + n)
            .map(|i| {
                Row::at(i)
                    .with("sev", if i % 10 == 0 { "error" } else { "info" })
                    .with("code", i % 7)
            })
            .collect()
    }

    /// Fingerprints of a few queries over each table.
    fn answers(s: &LeafServer) -> Vec<impl PartialEq + std::fmt::Debug> {
        let mut out = Vec::new();
        for table in ["logs", "metrics", "late"] {
            for q in [
                Query::new(table, 0, i64::MAX),
                Query::new(table, 0, i64::MAX)
                    .group_by("sev")
                    .aggregates(vec![AggSpec::Count, AggSpec::Sum("code".into())]),
                Query::new(table, 150, 420).aggregates(vec![AggSpec::CountDistinct("code".into())]),
            ] {
                out.push(result_fingerprint(&s.query(&q).unwrap()));
            }
        }
        out
    }

    /// Payload bytes and frame count of a v2 frame stream.
    fn frames(stream: &[u8]) -> (u64, u64) {
        use scuba_restart::framing::{decode_header_v2, FRAME_HEADER_V2};
        let (mut pos, mut payload, mut n) = (0, 0, 0);
        while pos < stream.len() {
            let (_, len, _) = decode_header_v2(&stream[pos..pos + FRAME_HEADER_V2]);
            pos += FRAME_HEADER_V2 + len as usize;
            payload += len;
            n += 1;
        }
        (payload, n)
    }

    fn segment_len(name: &str) -> usize {
        scuba_shmem::ShmSegment::open(name).unwrap().len()
    }

    #[test]
    fn three_kept_restarts_with_ingest_answer_like_a_leaf_that_never_restarted() {
        let (cfg, dir) = kept_config("kept3");
        let (oracle_cfg, oracle_dir) = test_config("kept3oracle");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let mut oracle = LeafServer::new(oracle_cfg).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        let _o = Cleanup(oracle.namespace().clone(), oracle_dir);
        let mut names: Option<(String, String)> = None;
        for epoch in 0..4i64 {
            let mut tables = vec!["logs", "metrics"];
            if epoch >= 2 {
                tables.push("late");
            }
            for table in tables {
                let rows = rows_at(epoch * 100, 100 + epoch);
                s.add_rows(table, &rows, epoch).unwrap();
                oracle.add_rows(table, &rows, epoch).unwrap();
            }
            assert_eq!(answers(&s), answers(&oracle), "epoch {epoch}");
            if epoch == 3 {
                break;
            }
            let (next, summary) = kept_restart(s, &cfg, epoch);
            s = next;
            assert_eq!(answers(&s), answers(&oracle), "after restart {epoch}");
            // A kept table keeps its segment across restarts; a new table
            // takes a fresh name none of them holds.
            let kept = (
                table_segment(&summary, "logs"),
                table_segment(&summary, "metrics"),
            );
            assert_eq!(*names.get_or_insert(kept.clone()), kept);
            let mut distinct = summary.backup.segment_names.clone();
            distinct.sort();
            distinct.dedup();
            assert_eq!(distinct.len(), summary.backup.segment_names.len());
        }
        assert_eq!(s.total_rows(), oracle.total_rows());
    }

    #[test]
    fn a_kept_shutdown_writes_only_the_new_blocks_and_manifests() {
        let (cfg, dir) = kept_config("keptbytes");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        s.add_rows("logs", &rows_at(0, 300), 0).unwrap();
        s.add_rows("metrics", &rows_at(0, 200), 0).unwrap();
        let first = s.shutdown_to_shm(0).unwrap();
        assert!(first.backup.bytes_copied > 0);
        drop(s);
        let (s, outcome) = LeafServer::start(cfg.clone(), 0, None).unwrap();
        assert!(
            matches!(outcome, RecoveryOutcome::MemoryAttached(_)),
            "{outcome:?}"
        );
        let manifest_frame = |s: &LeafServer, table: &str| {
            let schema = s.store().map().get(table).unwrap().schema_snapshot();
            (scuba_restart::framing::FRAME_HEADER_V2 + 8 + schema.serialized_size()) as u64
        };
        let logs_manifest = manifest_frame(&s, "logs");
        let logs_seg = table_segment(&first, "logs");
        let metrics_seg = table_segment(&first, "metrics");
        let (logs_len, metrics_len) = (segment_len(&logs_seg), segment_len(&metrics_seg));

        // Nothing new: both tables are left as they are.
        let (mut s, quiet) = kept_restart(s, &cfg, 0);
        assert_eq!(quiet.backup.bytes_copied, 0);
        assert_eq!(segment_len(&logs_seg), logs_len);
        assert_eq!(segment_len(&metrics_seg), metrics_len);
        assert_eq!(table_segment(&quiet, "logs"), logs_seg);

        // New rows in one table: its new block, appended at the END frame.
        s.add_rows("logs", &rows_at(300, 50), 1).unwrap();
        s.store.seal_all(1).unwrap();
        let table = s.store().map().get("logs").unwrap();
        let new_block = table.blocks().last().unwrap();
        assert!(!new_block.is_mapped());
        let mut appended = Vec::new();
        crate::image::write_block(new_block, &mut appended).unwrap();
        let (payload, _) = frames(&appended);
        let (_s, busy) = kept_restart(s, &cfg, 1);
        assert_eq!(busy.backup.bytes_copied, payload + logs_manifest);
        assert_eq!(segment_len(&logs_seg), logs_len + appended.len());
        assert_eq!(segment_len(&metrics_seg), metrics_len);
    }

    #[test]
    fn an_expired_table_is_rewritten_and_its_old_segment_goes_at_the_commit() {
        use scuba_shmem::ShmSegment;
        let (mut cfg, dir) = kept_config("keptexp");
        cfg.retention = RetentionLimits {
            max_age_secs: Some(50),
            max_bytes: None,
        };
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        // Blocks of many pages each: unique strings defeat the dictionary.
        for from in [0, 200] {
            let rows: Vec<Row> = (0..4000)
                .map(|i| {
                    Row::at(from + i % 100).with("sev", "info").with(
                        "msg",
                        format!("m-{from}-{i:06}-{:07}", i * 2654435761 % 9999991),
                    )
                })
                .collect();
            s.add_rows("logs", &rows, from).unwrap();
            s.store.seal_all(from).unwrap();
        }
        s.add_rows("steady", &rows_at(250, 40), 250).unwrap();
        let first = s.shutdown_to_shm(250).unwrap();
        drop(s);
        let (mut s, _) = LeafServer::start(cfg.clone(), 250, None).unwrap();
        let old_logs = table_segment(&first, "logs");
        let logs_len = segment_len(&old_logs);
        let resident = ShmSegment::open(&old_logs)
            .unwrap()
            .resident_bytes()
            .unwrap();
        assert_eq!(s.store().appendable_tables(), ["logs", "steady"]);

        // Now 300: the block of times 0..99 is past the 50 s limit.
        assert_eq!(s.expire(300).unwrap(), 1);
        assert_eq!(s.store().appendable_tables(), ["steady"]);
        // The expired block's pages went back to tmpfs; the segment's
        // length did not change under the block still served from it.
        let punched = resident
            - ShmSegment::open(&old_logs)
                .unwrap()
                .resident_bytes()
                .unwrap();
        assert!(punched > 0, "nothing punched");
        assert_eq!(segment_len(&old_logs), logs_len);
        let survivor = Arc::clone(&s.store().map().get("logs").unwrap().blocks()[0]);

        let (s, second) = kept_restart(s, &cfg, 300);
        let new_logs = table_segment(&second, "logs");
        assert_ne!(new_logs, old_logs, "a rewritten table reused a mapped name");
        assert_eq!(
            table_segment(&second, "steady"),
            table_segment(&first, "steady")
        );
        // The commit no longer lists the old segment: its name goes at
        // once, while the surviving block still reads from its mapping.
        assert!(!ShmSegment::exists(&old_logs));
        assert_eq!(survivor.decode_rows().unwrap().len(), 4000);
        drop(survivor);
        assert_eq!(
            s.query(&Query::new("logs", 0, 1000)).unwrap().rows_matched,
            4000
        );
        assert_eq!(
            s.query(&Query::new("steady", 0, 1000))
                .unwrap()
                .rows_matched,
            40
        );
    }

    #[test]
    fn a_demoted_kept_block_is_punched_and_its_table_rewritten() {
        use scuba_shmem::ShmSegment;
        let _x = scuba_faults::exclusive();
        let (mut cfg, dir) = tiered_config("keptdemote", 0);
        cfg.restore_mode = crate::config::RestoreMode::TwoPhase;
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        for _ in 0..4 {
            fill_wide(&mut s, 1, 1000);
            s.store.seal_all(0).unwrap();
        }
        let want = result_fingerprint(
            &s.query(&Query::new("logs", 0, 10_000).group_by("sev"))
                .unwrap(),
        );
        let first = s.shutdown_to_shm(0).unwrap();
        drop(s);
        let (mut s, _) = LeafServer::start(cfg.clone(), 0, None).unwrap();
        let seg = table_segment(&first, "logs");
        // A handle of our own: it still reads the file after the last
        // block's view unlinks the name.
        let handle = ShmSegment::open(&seg).unwrap();
        let resident = handle.resident_bytes().unwrap();
        // The kept blocks are the resident set the budget sees.
        assert_eq!(
            s.memory_used(),
            s.store().map().heap_bytes() + s.store().map().mapped_bytes()
        );
        assert_eq!(s.store().appendable_tables(), ["logs"]);
        s.config.memory_budget_bytes = s.memory_used() / 2;
        s.poll_tiering().unwrap();
        assert!(s.cold_blocks() > 0, "nothing demoted");
        assert!(s.memory_used() <= s.config.memory_budget_bytes);
        assert!(s.store().appendable_tables().is_empty());
        let after = handle.resident_bytes().unwrap();
        assert!(
            after < resident,
            "demotion punched nothing: {after} of {resident}"
        );
        let q = Query::new("logs", 0, 10_000).group_by("sev");
        assert_eq!(result_fingerprint(&s.query(&q).unwrap()), want);

        let (s, second) = kept_restart(s, &cfg, 0);
        assert_ne!(table_segment(&second, "logs"), seg);
        assert!(!ShmSegment::exists(&seg));
        assert_eq!(result_fingerprint(&s.query(&q).unwrap()), want);
    }

    #[test]
    fn a_kept_segment_never_shrinks_while_a_block_borrows_it() {
        let (cfg, dir) = kept_config("keptshrink");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        s.add_rows("logs", &rows_at(0, 500), 0).unwrap();
        let first = s.shutdown_to_shm(0).unwrap();
        drop(s);
        let seg = table_segment(&first, "logs");
        let (mut s, _) = LeafServer::start(cfg.clone(), 0, None).unwrap();
        let mut len = segment_len(&seg);
        for round in 0..3i64 {
            let held = Arc::clone(
                s.store()
                    .map()
                    .get("logs")
                    .unwrap()
                    .blocks()
                    .last()
                    .unwrap(),
            );
            let want = held.decode_rows().unwrap();
            if round == 1 {
                s.add_rows("logs", &rows_at(1000, 10), 1).unwrap();
            }
            let (next, _) = kept_restart(s, &cfg, round);
            s = next;
            let now = segment_len(&seg);
            assert!(now >= len, "round {round}: {len} -> {now}");
            len = now;
            // The bytes under the held block are the ones it was read from.
            assert_eq!(held.decode_rows().unwrap(), want);
            held.verify_columns().unwrap();
        }
    }

    /// A byte that changes in a sealed heap column after seal: the frame
    /// CRC is derived from the seal-time footer, so it does not vouch for
    /// the changed byte, and neither restore path serves it.
    #[test]
    fn a_heap_column_changed_after_seal_is_not_served_after_restart() {
        for mode in [RestoreMode::Full, RestoreMode::TwoPhase] {
            let (mut cfg, dir) = test_config("heapflip");
            cfg.restore_mode = mode;
            let mut s = LeafServer::new(cfg.clone()).unwrap();
            let _c = Cleanup(s.namespace().clone(), dir);
            s.add_rows("logs", &rows_at(0, 400), 0).unwrap();
            s.store.seal_all(0).unwrap();
            let q = Query::new("logs", 0, 1000)
                .group_by("sev")
                .aggregates(vec![AggSpec::Sum("code".into())]);
            let want = result_fingerprint(&s.query(&q).unwrap());
            s.sync_disk().unwrap();
            // Flip a byte in the middle of the `code` column's data.
            let table = s.store.map_mut().get_mut("logs").unwrap();
            let old = Arc::clone(&table.blocks()[0]);
            let columns = old
                .schema()
                .iter()
                .map(|(name, _)| {
                    let column = old.column(name).unwrap();
                    if name != "code" {
                        return column.clone();
                    }
                    // Inside the data region, between its offsets in the
                    // column header.
                    let mut bytes = column.as_bytes().to_vec();
                    let at =
                        |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
                    let mid = ((at(48) + at(56)) / 2) as usize;
                    bytes[mid] ^= 0x5A;
                    scuba_columnstore::RowBlockColumn::from_bytes_trusted(bytes.into()).unwrap()
                })
                .collect();
            let flipped = scuba_columnstore::RowBlock::from_parts(
                *old.header(),
                old.schema().clone(),
                columns,
            )
            .unwrap()
            .with_zones(old.zones().cloned());
            assert!(table.apply_block_patch(&old, Arc::new(flipped)));
            s.shutdown_to_shm(0).unwrap();
            drop(s);

            let (mut s, outcome) = LeafServer::start(cfg, 0, None).unwrap();
            if mode == RestoreMode::Full {
                // The frame CRC no longer matches the bytes: the copy
                // rejects the image and the rows come from disk.
                assert!(!outcome.is_memory(), "{outcome:?}");
            } else {
                // The attach defers the check to the first toucher, which
                // refuses the column and condemns the image.
                assert!(matches!(outcome, RecoveryOutcome::MemoryAttached(_)));
                let err = s.query(&q).unwrap_err().to_string();
                assert!(err.contains("checksum"), "{err}");
                s.poll_hydration().unwrap();
                assert!(s.hydration_fallback_reason().unwrap().contains("checksum"));
            }
            assert_eq!(result_fingerprint(&s.query(&q).unwrap()), want, "{mode:?}");
        }
    }

    #[test]
    fn a_kept_image_is_resident_not_awaiting_hydration() {
        let (mut cfg, dir) = kept_config("keptmem");
        cfg.memory_capacity = 8 << 20;
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        s.add_rows("logs", &rows_at(0, 2000), 0).unwrap();
        s.store.seal_all(0).unwrap();
        let heap = s.memory_used();
        let (mut s, _) = kept_restart(s, &cfg, 0);
        let mapped = s.store().map().mapped_bytes();
        assert!(mapped > 0);
        // The same bytes, now mapped: the resident set did not move, and
        // nothing is awaiting hydration.
        assert_eq!(s.memory_used(), heap);
        assert_eq!(s.shm_resident(), 0);
        assert_eq!(s.free_memory(), (8 << 20) - heap);
        s.finish_hydration().unwrap();
        s.poll_hydration().unwrap();
        assert_eq!(
            s.store().map().mapped_bytes(),
            mapped,
            "finish_hydration copied"
        );
        s.add_rows("logs", &rows_at(2000, 10), 1).unwrap();
        assert!(s.memory_used() > heap);
    }

    #[test]
    fn a_crashed_kept_leaf_unlinks_what_it_kept() {
        use scuba_shmem::ShmSegment;
        let (cfg, dir) = kept_config("keptcrash");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        s.add_rows("logs", &rows_at(0, 300), 0).unwrap();
        s.sync_disk().unwrap();
        let (mut s, summary) = kept_restart(s, &cfg, 0);
        let seg = table_segment(&summary, "logs");
        assert!(ShmSegment::exists(&seg));
        // The views stayed armed: going down without a shutdown unlinks
        // the segments with the last block, and the next start has
        // nothing to attach.
        s.crash();
        assert!(!ShmSegment::exists(&seg));
        let (s, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(!outcome.is_memory(), "{outcome:?}");
        assert_eq!(s.total_rows(), 300);
    }

    #[test]
    fn an_old_format_shutdown_after_a_kept_life_is_not_torn_by_the_kept_views() {
        let (cfg, dir) = kept_config("keptcompat");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        s.add_rows("logs", &rows_at(0, 300), 0).unwrap();
        s.add_rows("metrics", &rows_at(0, 100), 0).unwrap();
        let (mut s, _) = kept_restart(s, &cfg, 0);
        let held = Arc::clone(&s.store().map().get("logs").unwrap().blocks()[0]);
        let ns = s.namespace().clone();
        s.shutdown_to_shm(0).unwrap();
        drop(s);
        crate::compat::rewrite_as_old_writer(&ns, crate::compat::OldWriter::LegacyV1).unwrap();
        // The old image reuses the names the kept views mapped; the last
        // of those views going must not unlink them.
        drop(held);
        let (s, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(outcome.is_memory(), "{outcome:?}");
        assert_eq!(s.total_rows(), 400);
    }
}
