//! The leaf server lifecycle: serve → clean shutdown to shared memory →
//! fast restart (or disk recovery).
//!
//! [`LeafServer`] owns the stages; each lives in its own module:
//! recovery at start in `recover`, the crash path in `ingest`, phase-two
//! hydration in `hydrate`, and the tiering glue beside
//! [`crate::residency::ResidencyManager`]. Ingest, queries, expiry and the
//! planned shutdown stay here.

use std::time::{Duration, Instant};

use scuba_columnstore::Row;
use scuba_diskstore::{ColdStore, DiskBackup, RecoveryStats, Throttle};
use scuba_obs::PhaseBreakdown;
use scuba_query::{execute_planned, LeafQueryResult, Query};
use scuba_restart::{
    backup_to_shm_with, AttachReport, BackupReport, CopyOptions, LeafBackupState, RestoreReport,
    TableBackupState, SHM_LAYOUT_VERSION,
};
use scuba_shmem::ShmNamespace;

use crate::compat;
use crate::config::{LeafConfig, TieringMode, WriterCompat};
use crate::error::{LeafError, LeafResult};
use crate::hydrate::Hydrator;
use crate::ingest::CrashPath;
use crate::persist::LeafStore;
use crate::recover::{next_parity, probe_image, sweep_image};
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
    /// Attached to shared memory and serving; background workers are
    /// copying mapped tables to heap. Adds and queries allowed — ingest
    /// lands in fresh heap row blocks, queries read borrowed shm bytes.
    Hydrating,
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
            LeafPhase::Hydrating => "HYDRATING",
            LeafPhase::Down => "DOWN",
        }
    }

    /// May rows be added? (§4.3: disk recovery accepts adds, memory
    /// recovery does not. Hydration does: the attach already installed
    /// every table, and new rows go to fresh heap builders.)
    pub fn accepts_adds(self) -> bool {
        matches!(
            self,
            LeafPhase::Alive | LeafPhase::DiskRecovery | LeafPhase::Hydrating
        )
    }

    /// May queries run? (Same admission rule as adds.)
    pub fn accepts_queries(self) -> bool {
        self.accepts_adds()
    }

    /// Stable ordinal for the `leaf_phase` gauge (0 = ALIVE … 5 = DOWN,
    /// 6 = HYDRATING).
    pub fn index(self) -> u8 {
        match self {
            LeafPhase::Alive => 0,
            LeafPhase::Preparing => 1,
            LeafPhase::CopyingToShm => 2,
            LeafPhase::MemoryRecovery => 3,
            LeafPhase::DiskRecovery => 4,
            LeafPhase::Down => 5,
            LeafPhase::Hydrating => 6,
        }
    }
}

/// How a leaf came back up.
#[derive(Debug, Clone)]
pub enum RecoveryOutcome {
    /// Shared-memory restore succeeded (everything copied to heap).
    Memory(RestoreReport),
    /// Shared-memory *attach* succeeded ([`crate::RestoreMode::TwoPhase`]):
    /// the leaf is serving over mapped segments and hydrating in
    /// background. The report's duration is the time to first query, not
    /// to full recovery — drive [`LeafServer::poll_hydration`] /
    /// [`LeafServer::finish_hydration`] to complete it.
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
    /// Background hydration pool, present only while `Hydrating`.
    pub(crate) hydrator: Option<Hydrator>,
    /// The `now` the leaf started with; stamps blocks if hydration has to
    /// fall back to disk recovery.
    pub(crate) hydrate_now: i64,
    /// Why hydration fell back to disk, if it did.
    pub(crate) hydration_fallback: Option<String>,
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
    /// The most recent ingest `now`, stamping blocks rebuilt by a
    /// residency-fault per-table disk fallback.
    pub(crate) tier_now: i64,
}

impl LeafServer {
    /// Create an empty leaf (first boot; no recovery attempted).
    pub fn new(config: LeafConfig) -> LeafResult<LeafServer> {
        let mut server = LeafServer::new_core(config)?;
        // Probe the parity first: a dying predecessor may still hold
        // unlink-on-last-drop views over its image's parity, so the new
        // checkpointer must take the other one.
        let parity = server
            .crash
            .enabled()
            .then(|| next_parity(probe_image(&server.ns)));
        // First boot abandons any predecessor state, whatever the crash
        // path: a *valid* stale image — checkpoint or planned — left
        // linked would let a crash of this life send the next start()
        // back to the abandoned life's rows.
        sweep_image(&server.ns);
        if let Some(parity) = parity {
            server.crash.open(parity, true, &server.store);
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
            hydrator: None,
            hydrate_now: 0,
            hydration_fallback: None,
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

    /// Publish the heap/shm/cold split (satellite of §4.4 accounting: a
    /// byte is heap-resident, shm-resident, or disk-cold — never counted
    /// twice).
    pub(crate) fn publish_memory_gauges(&self) {
        if !scuba_obs::enabled() {
            return;
        }
        let map = self.store.map();
        self.obs.set("leaf_heap_bytes", self.memory_used() as i64);
        self.obs.set("leaf_shm_bytes", self.shm_resident() as i64);
        self.obs.set("leaf_cold_bytes", map.cold_bytes() as i64);
        self.obs.set("leaf_cold_blocks", map.cold_blocks() as i64);
        self.obs.set(
            "leaf_hydration_pending_blocks",
            self.hydration_pending() as i64,
        );
        let parked = self.hydrator.as_ref().map_or(0, Hydrator::parked);
        self.obs
            .set("leaf_hydration_on_access_blocks", parked as i64);
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

    /// Emit one restart-timeline span, tagged with this leaf and the
    /// active trace id, when observability is on. These are
    /// explicit-duration records taken from the restart reports, so the
    /// telemetry table stores exactly the numbers the Figure-5 breakdown
    /// prints.
    pub(crate) fn emit_restart_span(
        &self,
        name: &'static str,
        op: &str,
        phase: &str,
        duration: Duration,
    ) {
        if !scuba_obs::enabled() {
            return;
        }
        scuba_obs::emit_span(scuba_obs::SpanRecord {
            name,
            attrs: vec![
                ("leaf", self.obs.0.clone()),
                ("op", op.to_owned()),
                ("phase", phase.to_owned()),
            ],
            duration,
            bytes: 0,
            outcome: "ok",
            trace_id: self.span_trace_id(),
        });
    }

    /// Units the last memory recovery skipped as format-incompatible and
    /// disk-recovered individually (empty when everything came back
    /// through shared memory).
    pub fn skipped_units(&self) -> &[String] {
        &self.skipped_units
    }

    /// Override which image format the next [`Self::shutdown_to_shm`]
    /// writes — how upgrade drills turn a running leaf into a simulated
    /// pre-upgrade binary right before its wave.
    pub fn set_writer_compat(&mut self, compat: WriterCompat) {
        self.config.writer_compat = compat;
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

    /// Heap bytes used. Shm-backed column bytes are *not* counted here —
    /// they live in the mapped segments and are reported separately by
    /// [`LeafServer::shm_resident`], so a hydrating leaf never
    /// double-counts a byte that exists in both places mid-swap.
    pub fn memory_used(&self) -> usize {
        use scuba_restart::ShmPersistable;
        self.store.heap_bytes()
    }

    /// Bytes resident in attached shared-memory segments (column buffers
    /// still awaiting hydration). Zero except during `Hydrating`.
    pub fn shm_resident(&self) -> usize {
        self.store.map().mapped_bytes()
    }

    /// Free memory, as reported to tailers for two-random-choice placement
    /// (§2: the tailer "asks them both for their current state and how
    /// much free memory they have"). Both heap- and shm-resident bytes
    /// count against capacity: the mapped pages are this leaf's to keep.
    pub fn free_memory(&self) -> usize {
        self.config
            .memory_capacity
            .saturating_sub(self.memory_used())
            .saturating_sub(self.shm_resident())
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
        let start_rows = self.store.map().get(table).map_or(0, |t| t.row_count()) as u64;
        self.store.append_rows(table, rows, now)?;
        if let Err(e) = self.disk.append(table, rows) {
            // Memory now holds rows the disk log skipped: the memory↔disk
            // prefix correspondence the crash path reconciles against is
            // broken mid-file, not at a suffix. Degrade the next crash to
            // the disk path rather than let a reconcile duplicate rows.
            self.crash.poison(format!("disk append: {e}"));
            return Err(e.into());
        }
        self.crash.append(&self.store, table, start_rows, rows);
        // Tiering piggybacks on ingest the way checkpoints do: the write
        // path is the one place every leaf visits on a steady cadence.
        self.run_tiering(now)?;
        if latency.active() {
            scuba_obs::histogram!("leaf_ingest_latency_ns").observe(latency.elapsed_ns());
        }
        Ok(())
    }

    /// Execute a query against this leaf's fraction of the table, on the
    /// vectorized scan path (in-place over mapped blocks — no hydration
    /// forced). On a `Hydrating` leaf the columns the query reads are
    /// CRC-verified in each touched mapped block first (first touch only)
    /// and the block jumps the hydration queue; a verification failure
    /// fails the query and condemns the attach at the next
    /// [`Self::poll_hydration`].
    pub fn query(&self, query: &Query) -> LeafResult<LeafQueryResult> {
        let latency = scuba_obs::Stopwatch::start();
        if !self.phase.accepts_queries() {
            return Err(self.unavailable("query"));
        }
        let Some(t) = self.store.map().get(&query.table) else {
            return Ok(LeafQueryResult::empty());
        };
        // Plan once: planning snapshots (re-encodes) the open block, and
        // both first-touch passes must see the very blocks the scan reads.
        let plan = scuba_query::plan_scan(t, query).map_err(|e| LeafError::Query(e.to_string()))?;
        let columns = query.columns_read();
        if let Some(h) = self.hydrator.as_ref() {
            h.touch(&plan.blocks, &columns)
                .map_err(|reason| LeafError::Query(format!("mapped scan condemned: {reason}")))?;
        }
        if self.config.tiering == TieringMode::Sieve {
            // Residency touches mirror Hydrator::touch: the blocks the scan
            // will visit (post zone-map pruning) get their SIEVE visited
            // bit; cold blocks get first-touch CRC verification of the
            // columns the query reads, and a failure fails the query — the
            // poison is acted on (per-table disk fallback) at the next
            // tiering poll.
            for block in &plan.blocks {
                if block.is_cold() {
                    self.residency
                        .touch_cold(&query.table, block, &columns)
                        .map_err(|reason| {
                            LeafError::Query(format!("cold scan condemned: {reason}"))
                        })?;
                } else {
                    self.residency.record_touch(block);
                }
            }
        }
        let scan = Instant::now();
        let (result, counts) = execute_planned(&plan, query)?;
        if scuba_obs::enabled() {
            scuba_obs::histogram!("query_scan_ns")
                .observe(scan.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            scuba_obs::counter!("query_rows_scanned_total").add(result.rows_scanned);
            scuba_obs::counter!("query_values_decoded_total").add(counts.values_decoded);
            scuba_obs::counter!("query_values_gathered_total").add(counts.values_gathered);
            scuba_obs::counter!("query_blocks_zonemap_pruned_total")
                .add(result.blocks_zonemap_pruned);
            scuba_obs::histogram!("leaf_query_latency_ns").observe(latency.elapsed_ns());
        }
        Ok(result)
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
                self.crash
                    .poison(format!("expiry rewrite of {name:?}: {reason}"));
            }
        }
        if dropped > 0 {
            // Expiry removed blocks the incremental writer thought were
            // the image's immutable prefix, and shrank row counts under
            // the WAL's start anchors. Rebuild the crash path.
            self.crash.reset(&self.store);
        }
        if self.config.tiering == TieringMode::Sieve && !shrunk.is_empty() {
            // Expiry drops the oldest blocks first — exactly the ones most
            // likely to be cold. Tables whose cold count hit zero can shed
            // their fast-format file; the SIEVE ring re-syncs so the hand
            // doesn't walk freed blocks.
            self.shed_cold_files(&shrunk);
            self.residency.sync(self.store.map());
        }
        Ok(dropped)
    }

    /// Flush buffered disk appends and fsync (the WAL too: its records
    /// become durable against machine failure on the same cadence as the
    /// backup they shadow). On success, a sync-coverage anchor lands in
    /// the WAL so a crash recovery can verify disk coverage by scanning
    /// only the bytes written after this point.
    pub fn sync_disk(&mut self) -> LeafResult<u64> {
        let bytes = self.disk.sync()?;
        self.crash.sync(&self.store, &self.disk);
        Ok(bytes)
    }

    /// Clean shutdown via shared memory — Figures 5(a), 5(c), and 6.
    ///
    /// Walks the leaf through `Alive → CopyToShm → Exit` and every table
    /// through `Alive → Prepare → CopyToShm → Done`: stop accepting work,
    /// seal unsealed rows, flush the disk backup, copy everything into
    /// shared memory, commit the valid bit. On success the server is
    /// `Down` and holds no data; the replacement process recovers it with
    /// [`LeafServer::start`].
    pub fn shutdown_to_shm(&mut self, now: i64) -> LeafResult<ShutdownSummary> {
        if self.phase != LeafPhase::Alive {
            return Err(self.unavailable("shut down"));
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

        // Up to this point any prepare failure still leaves the warm
        // checkpoint image for the replacement to crash-recover from.
        self.crash.retire_image();

        // COPY TO SHM (Figures 5(a) and 6).
        leaf_state = leaf_state.transition(LeafBackupState::CopyToShm)?;
        self.set_phase(LeafPhase::CopyingToShm);
        phase_failpoint("leaf::phase::copying")?;
        for (_, st) in &mut table_states {
            *st = st.transition(TableBackupState::CopyToShm)?;
        }
        let backup = match self.config.writer_compat {
            WriterCompat::Current => backup_to_shm_with(
                &mut self.store,
                &self.ns,
                SHM_LAYOUT_VERSION,
                CopyOptions::with_threads(self.config.copy_threads),
            )
            .map_err(|e| LeafError::Backup(e.to_string()))?,
            compat => self.backup_as_old_writer(compat)?,
        };
        for &(phase, d) in &backup.phases.phases {
            self.emit_restart_span("restart.phase", "backup", phase.name(), d);
        }
        for (_, st) in &mut table_states {
            *st = st.transition(TableBackupState::Done)?;
        }

        // The backup's valid bit is committed: the image covers every
        // row, so the WAL is obsolete. Drop it before exit.
        self.crash.retire_log();

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

    /// Shutdown copy step for a simulated pre-upgrade writer binary:
    /// drain the store's tables and install an old-format image via
    /// [`crate::compat`], so the *next* start — under the current binary —
    /// has to prove a cross-version memory restore.
    fn backup_as_old_writer(&mut self, compat: WriterCompat) -> LeafResult<BackupReport> {
        let start = Instant::now();
        let initial_footprint = self.store.map().heap_bytes();
        let tables: Vec<_> = self.store.map_mut().take_tables().into_values().collect();
        let bytes_copied = match compat {
            WriterCompat::LegacyV1 => compat::install_legacy_v1_image(&self.ns, &tables),
            WriterCompat::AgedV2 => compat::install_aged_v2_image(
                &self.ns,
                &tables,
                &compat::AgedImageOptions {
                    skippable_stranger: true,
                    required_stranger: false,
                },
            ),
            WriterCompat::Current => unreachable!("Current is handled by the normal backup path"),
        }
        .map_err(|e| LeafError::Backup(e.to_string()))?;
        scuba_obs::counter!("leaf_old_writer_backups").inc();

        // One manifest per table, one prelude per block, one chunk per
        // column — same accounting as the real writer.
        let chunks: usize = tables
            .iter()
            .map(|t| {
                1 + t
                    .blocks()
                    .iter()
                    .map(|b| 1 + b.columns().len())
                    .sum::<usize>()
            })
            .sum();
        let duration = start.elapsed();
        Ok(BackupReport {
            units: tables.len(),
            chunks,
            bytes_copied: bytes_copied as u64,
            duration,
            peak_footprint: initial_footprint + bytes_copied,
            initial_footprint,
            segment_names: (0..tables.len())
                .map(|i| self.ns.table_segment_name(i))
                .collect(),
            threads: 1,
            phases: PhaseBreakdown {
                op: "backup",
                phases: Vec::new(),
                total: duration,
                bytes: bytes_copied as u64,
                chunks: chunks as u64,
                units: tables.len(),
                threads: 1,
                complete: true,
                tables: Vec::new(),
            },
        })
    }

    /// Crash the leaf: drop everything without copying to shared memory.
    /// With the crash path off, the next start finds no valid bit and
    /// recovers from disk — the paper's §4 crash behaviour. With it on,
    /// the continuous checkpoint image and the WAL survive the death, and
    /// the next start replays the tail on top of the warm image.
    pub fn crash(&mut self) {
        // Ordering matters: the checkpointer must be *abandoned* before
        // anything else drops. (Checkpoint segments are plain
        // `ShmSegment`s, which never unlink on drop; the hazard is a
        // teardown-style exit.)
        self.crash.abandon();
        // A SIGKILL loses the disk backup's userspace buffer too: drop it
        // unflushed so the crash's durability is exactly the synced
        // prefix, not whatever the allocator felt like flushing.
        self.disk.discard_buffered();
        // A crash mid-hydration abandons the workers; their mapped
        // references (and the store's) drop, unlinking the segments.
        self.stop_hydration();
        self.residency.clear();
        self.store = LeafStore::new();
        self.set_phase(LeafPhase::Down);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::*;
    use scuba_columnstore::table::RetentionLimits;
    use scuba_columnstore::Value;
    use scuba_query::{AggSpec, GroupKey};

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
}
