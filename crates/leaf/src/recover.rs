//! Recovery at start (Figure 5(b), §4.3, DESIGN §13): probe what the dead
//! process left, decide in the pure [`plan`], then run small executors —
//! memory restore or attach, WAL replay and reconcile, disk rebuilds.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use scuba_columnstore::{Row, Table};
use scuba_diskstore::Throttle;
use scuba_obs::{Phase, PhaseAcc, PhaseBreakdown};
use scuba_restart::wal::{SegmentedContents, WAL_RECORD_HEADER};
use scuba_restart::{
    attach_from_shm, fan_out, fan_out_in_order, resolve_copy_threads, restore_from_shm_with,
    CopyOptions, LeafRestoreState, RestoreError, SHM_LAYOUT_VERSION,
};
use scuba_shmem::{LeafMetadata, ShmNamespace};

use crate::checkpoint::SEG_FLAG_CHECKPOINT;
use crate::config::{LeafConfig, RestoreMode};
use crate::error::LeafResult;
use crate::ingest::{append_batch, decode_wal_record, BatchHeader, WalRecord};
use crate::persist::LeafStore;
use crate::server::{phase_failpoint, LeafPhase, LeafServer, RecoveryOutcome};

/// How far back a sweep looks for a predecessor's segment names.
const STALE_SWEEP: usize = 64;

/// What the metadata region holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Image {
    /// No region; also what the probe reports with the crash path off,
    /// when no plan depends on the region and it is not read.
    Absent,
    /// A planned-shutdown image (`valid: false` also: unreadable).
    Planned { valid: bool },
    /// A checkpoint image: a crash start replays the WAL on top of it.
    Checkpoint { valid: bool },
}

/// The recovery inputs, all read before recovery claims the image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Probe {
    pub(crate) shm_recovery_enabled: bool,
    pub(crate) checkpoint_enabled: bool,
    pub(crate) restore_mode: RestoreMode,
    pub(crate) image: Image,
}

/// Where the rows come back from. Any problem on the memory path falls
/// back to disk, with the problem as the reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Source {
    Memory(RestoreMode),
    Disk(&'static str),
}

/// What a memory recovery does with the WAL tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Replay {
    No,
    /// Replay; reconcile the disk backup only if records applied.
    Tail,
    /// Replay, always reconcile, and count a crash-fast recovery.
    CheckpointTail,
}

/// The recovery decision: one row of the DESIGN §13 table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Plan {
    pub(crate) source: Source,
    /// Unlink the predecessor's image first, so no later start can attach
    /// rows a disk recovery dropped.
    pub(crate) sweep: bool,
    pub(crate) replay: Replay,
}

/// Decide how to recover, from the probe alone: no I/O.
pub(crate) fn plan(probe: &Probe) -> Plan {
    let memory = probe.shm_recovery_enabled;
    let valid_checkpoint = probe.image == Image::Checkpoint { valid: true };
    Plan {
        source: if memory {
            Source::Memory(probe.restore_mode)
        } else {
            Source::Disk("memory recovery disabled")
        },
        sweep: !memory,
        replay: match (memory && probe.checkpoint_enabled, valid_checkpoint) {
            (false, _) => Replay::No,
            (true, false) => Replay::Tail,
            (true, true) => Replay::CheckpointTail,
        },
    }
}

/// Peek at the metadata region without claiming it.
pub(crate) fn probe_image(ns: &ShmNamespace) -> Image {
    let Ok(meta) = LeafMetadata::open(ns) else {
        return Image::Absent;
    };
    let Ok(contents) = meta.read() else {
        return Image::Planned { valid: false };
    };
    let valid = contents.valid;
    if contents
        .segments
        .iter()
        .any(|entry| entry.flags & SEG_FLAG_CHECKPOINT != 0)
    {
        Image::Checkpoint { valid }
    } else {
        Image::Planned { valid }
    }
}

/// Unlink a predecessor's image — its segments under every name, older
/// binaries' checkpoint names too — and its metadata: how a first boot and
/// a disk recovery with memory recovery disabled abandon it.
pub(crate) fn sweep_image(ns: &ShmNamespace) {
    ns.unlink_all(STALE_SWEEP);
}

impl LeafServer {
    /// Start a leaf process, recovering state — Figure 5(b)/Figure 7.
    /// Tries shared memory first (if enabled), falling back to disk on any
    /// problem. `now` stamps recovered blocks; `disk_throttle` optionally
    /// paces the disk read phase at a simulated device bandwidth.
    ///
    /// This wrapper owns the restart counters: every call moves
    /// `restarts_started`, and exactly one of `restarts_completed` /
    /// `restarts_failed` — the chaos soak asserts started = completed +
    /// failed after hundreds of waves.
    pub fn start(
        config: LeafConfig,
        now: i64,
        disk_throttle: Option<&Throttle>,
    ) -> LeafResult<(LeafServer, RecoveryOutcome)> {
        scuba_obs::counter!("restarts_started").inc();
        if scuba_obs::enabled() {
            // Only a start that replays the WAL publishes a crash split.
            scuba_obs::clear_breakdown("crash");
        }
        let started = Instant::now();
        let recovered = LeafServer::new_core(config).and_then(|mut server| {
            let plan = plan(&server.probe());
            let (outcome, crash) = server.recover(&plan, now, disk_throttle)?;
            server.crash.breakdown.clone_from(&crash);
            Ok((server, outcome, crash))
        });
        match recovered {
            Ok((server, outcome, crash)) => {
                if scuba_obs::enabled() {
                    scuba_obs::counter!("restarts_completed").inc();
                    server.obs.add("leaf_recoveries_total", 1);
                    // Time to first query: the leaf accepts requests the
                    // moment start() returns — under TwoPhase that is
                    // attach cost, not full-restore cost.
                    server
                        .obs
                        .set_ns("leaf_time_to_first_query_ns", started.elapsed());
                    server.emit_restore_spans(&outcome, crash);
                }
                Ok((server, outcome))
            }
            Err(e) => {
                scuba_obs::counter!("restarts_failed").inc();
                Err(e)
            }
        }
    }

    /// The recovery inputs. The metadata region is read only with the
    /// crash path on (a read passes the `shmem::segment::open` failpoint).
    fn probe(&self) -> Probe {
        let checkpoint_enabled = self.crash.enabled();
        Probe {
            shm_recovery_enabled: self.config.shm_recovery_enabled,
            checkpoint_enabled,
            restore_mode: self.config.restore_mode,
            image: if checkpoint_enabled {
                probe_image(&self.ns)
            } else {
                Image::Absent
            },
        }
    }

    /// Carry out `plan` through the Figure 5(b) state machine, taking its
    /// exception edge to disk when the memory attempt fails. Returns the
    /// outcome and, if the start replayed the WAL, its crash breakdown
    /// (WAL read, apply, reconcile, writer reopen), marked incomplete when
    /// the start fell back to disk.
    fn recover(
        &mut self,
        plan: &Plan,
        now: i64,
        throttle: Option<&Throttle>,
    ) -> LeafResult<(RecoveryOutcome, Option<PhaseBreakdown>)> {
        if plan.sweep {
            sweep_image(&self.ns);
        }
        let mut state = LeafRestoreState::Init;
        let mut crash = None;
        let memory = match plan.source {
            Source::Memory(mode) => {
                state = state.transition(LeafRestoreState::MemoryRecovery)?;
                self.recover_from_memory(mode, plan.replay, now, throttle, &mut crash)?
            }
            Source::Disk(reason) => Err(reason.to_owned()),
        };
        let outcome = match memory {
            Ok(outcome) => {
                // A dead leaf may have demoted blocks after its image's
                // last commit: their fast-format files are on disk, but
                // no block this image holds reads them. (A disk rebuild
                // wipes the cold tier instead.) Best effort, as every
                // shed is.
                if let Ok(on_disk) = self.cold.tables() {
                    self.shed_cold_files(&on_disk);
                }
                outcome
            }
            Err(reason) => {
                state = state.transition(LeafRestoreState::DiskRecovery)?;
                self.rebuild_from_disk(now, throttle, reason)?
            }
        };
        state.transition(LeafRestoreState::Alive)?;
        if self.crash.enabled() {
            // After a memory recovery the replayed rows are still in the
            // log's segments: they are each table's open block, and stay
            // until a commit holds that block sealed. Replay is idempotent,
            // so keeping them is safe. After a disk recovery the log
            // predates the rebuilt state: seal what it rebuilt, and clear.
            let took = self.crash.open(!outcome.is_memory(), &mut self.store, now);
            self.crash_phase(crash.as_mut(), Phase::WalReopen, "leaf_wal_reopen_ns", took);
        }
        if let Some(report) = crash.as_mut() {
            report.complete = outcome.is_memory();
        }
        // Stamps blocks if the attached image is condemned later.
        self.hydrate_now = now;
        // Whatever image the leaf attached — planned or checkpoint — it
        // keeps and serves in place for the rest of its life, and extends
        // at its next commit.
        self.set_phase(LeafPhase::Alive);
        Ok((outcome, crash))
    }

    /// Restore or attach the shared-memory image through `mode`, bring
    /// back from disk the tables it skipped, and replay the WAL tail,
    /// timing the replay into `crash`. `Ok(Err(reason))` condemns the
    /// memory recovery to the disk path; `Err` fails the start.
    fn recover_from_memory(
        &mut self,
        mode: RestoreMode,
        replay: Replay,
        now: i64,
        throttle: Option<&Throttle>,
        crash: &mut Option<PhaseBreakdown>,
    ) -> LeafResult<Result<RecoveryOutcome, String>> {
        self.set_phase(LeafPhase::MemoryRecovery);
        phase_failpoint("leaf::phase::memory_recovery")?;
        let attempt = match mode {
            RestoreMode::Full => restore_from_shm_with(
                &mut self.store,
                &self.ns,
                SHM_LAYOUT_VERSION,
                CopyOptions::with_threads(self.config.copy_threads),
            )
            .map(RecoveryOutcome::Memory),
            RestoreMode::TwoPhase => attach_from_shm(&mut self.store, &self.ns, SHM_LAYOUT_VERSION)
                .map(RecoveryOutcome::MemoryAttached),
        };
        let outcome = match attempt {
            Ok(outcome) => outcome,
            Err(RestoreError::Fallback(fb)) => return Ok(Err(fb.reason)),
        };
        // Per-table fallback: units the protocol skipped as
        // format-incompatible come back from disk — only those; every
        // other table already restored from memory. (The paper's §4.3
        // conservatism is per-leaf; the self-describing layout narrows it
        // per-table.)
        let skipped = match &outcome {
            RecoveryOutcome::Memory(r) => r.skipped.clone(),
            RecoveryOutcome::MemoryAttached(r) => r.skipped.clone(),
            RecoveryOutcome::Disk { .. } => Vec::new(),
        };
        if !skipped.is_empty() {
            self.recover_tables_from_disk(&skipped, now, throttle)?;
            self.skipped_units = skipped;
        }
        if replay == Replay::No {
            return Ok(Ok(outcome));
        }
        // Crash path: the image is a consistent *prefix* of what the dead
        // process held — replay the WAL tail on top of it, in parallel
        // across tables, then make the disk backup cover every row now in
        // memory *before* anything can unlink WAL segments (a crash
        // discards the backup's buffered tail; without reconciliation
        // those rows would live only in memory + volatile shm, and a later
        // disk-path recovery would silently lose them). Any gap,
        // unreadable log, or disk/memory mismatch condemns the whole
        // memory recovery (§4.3 conservatism) and the leaf rebuilds from
        // disk.
        let from_checkpoint = replay == Replay::CheckpointTail;
        let crash_sync = self.replay_wal_tail(now, crash).and_then(|hints| {
            // Reconcile on any crash-shaped recovery: a warm checkpoint
            // image, or replayed records (which can exist even when the
            // image probe failed). A planned restore has neither —
            // shutdown already synced everything.
            if from_checkpoint || self.wal_replayed_records() > 0 {
                self.reconcile_disk_coverage(&hints, crash)
            } else {
                Ok(())
            }
        });
        if let Err(reason) = crash_sync {
            return Ok(Err(reason));
        }
        if from_checkpoint {
            self.crash.recovered_through_checkpoint();
        }
        Ok(Ok(outcome))
    }

    /// The whole-leaf disk executor: invalidate the image, drop whatever
    /// the store holds (a partial restore, a condemned attach) and unlink
    /// its images' segments, and rebuild every table from the disk backup.
    /// Leaves the leaf `Alive`.
    pub(crate) fn rebuild_from_disk(
        &mut self,
        now: i64,
        throttle: Option<&Throttle>,
        reason: String,
    ) -> LeafResult<RecoveryOutcome> {
        // No commit may list what the abandoned store's images hold.
        self.crash.invalidate(&mut self.store);
        std::mem::take(&mut self.store).retire_images();
        self.set_phase(LeafPhase::DiskRecovery);
        phase_failpoint("leaf::phase::disk_recovery")?;
        // Writers may hold buffered appends from the life being abandoned
        // (a mid-life fallback, a partial reconcile): drop them so
        // they can't flush stale bytes into the logs recovery is about to
        // rebuild the store from.
        self.disk.discard_buffered();
        // Disk recovery rebuilds every table fully hot from the row logs;
        // the entire cold tier is stale the moment that succeeds, and any
        // file kept around would be an orphan no manifest points at.
        self.cold.wipe()?;
        self.residency.clear();
        let (map, stats) = self.disk.recover(now, throttle)?;
        self.store = LeafStore::from_map(map);
        // Repair torn tails on disk too: recovery dropped them from
        // memory, and later appends must extend the valid prefix rather
        // than hide behind garbage (which would also resurface rows this
        // recovery never served).
        if stats.torn_tails > 0 {
            for table in self.disk.tables()? {
                let cov = self.disk.coverage(&table, None)?;
                if cov.valid_len < cov.file_len {
                    self.disk.truncate_table(&table, cov.valid_len)?;
                }
            }
        }
        self.set_phase(LeafPhase::Alive);
        Ok(RecoveryOutcome::Disk { reason, stats })
    }

    /// The per-table disk executor: rebuild just `names` from their disk
    /// logs, sealed (the WAL need not hold these rows), in place of what
    /// the store held. The logs rebuild them fully hot, so any cold file
    /// they left behind (missing frames, stale coldrefs) is an orphan.
    pub(crate) fn recover_tables_from_disk(
        &mut self,
        names: &[String],
        now: i64,
        throttle: Option<&Throttle>,
    ) -> LeafResult<()> {
        let (mut map, _stats) = self.disk.recover_tables(names, now, throttle)?;
        for name in names {
            self.store.map_mut().remove(name);
            self.store.reclaim(name);
            let _ = self.cold.remove_table(name);
        }
        for (_, mut table) in map.take_tables() {
            table.seal(now)?;
            self.store.map_mut().insert(table);
        }
        scuba_obs::counter!("leaf_tables_disk_recovered").add(names.len() as u64);
        Ok(())
    }

    /// Emit the restore side of the `restart.phase` timeline: one span
    /// per Figure-5 phase after a full restore, a single `attach` span
    /// after a two-phase attach, or `read`/`translate` spans for the
    /// disk path. Their per-leaf sum reproduces the `RestartReport`
    /// restore total (±5% — the trace-reconstruction acceptance check).
    /// A start that replayed the WAL adds its `op=crash` split (WAL read,
    /// apply, reconcile, writer reopen) as spans and publishes it as the
    /// `RestartReport`'s crash breakdown.
    fn emit_restore_spans(&self, outcome: &RecoveryOutcome, crash: Option<PhaseBreakdown>) {
        match outcome {
            RecoveryOutcome::Memory(r) => {
                for &(phase, d) in &r.phases.phases {
                    self.emit_restart_span("restart.phase", "restore", phase.name(), d);
                }
            }
            RecoveryOutcome::MemoryAttached(r) => {
                self.emit_restart_span("restart.phase", "restore", "attach", r.duration);
            }
            RecoveryOutcome::Disk { stats, .. } => {
                self.emit_restart_span("restart.phase", "disk", "read", stats.read_duration);
                self.emit_restart_span(
                    "restart.phase",
                    "disk",
                    "translate",
                    stats.translate_duration,
                );
            }
        }
        if let Some(report) = crash {
            for &(phase, took) in &report.phases {
                self.emit_restart_span("restart.phase", "crash", phase.name(), took);
            }
            scuba_obs::publish_breakdown(report);
        }
    }

    /// Decode a table's in-memory rows from index `from` onward, in
    /// ingest order (sealed blocks oldest-first, then the open block's,
    /// read off its builder) — exactly the disk log's append order. Mapped
    /// (shm-backed) blocks are checksum-verified before decoding: bytes
    /// that never passed the deferred CRC must not be persisted.
    pub(crate) fn materialize_rows_from(table: &Table, from: usize) -> Result<Vec<Row>, String> {
        let mut out = Vec::new();
        let mut base = 0usize;
        for block in table.blocks() {
            let n = block.row_count();
            if base + n > from {
                block.verify_columns().map_err(|e| e.to_string())?;
                let rows = block.decode_rows().map_err(|e| e.to_string())?;
                out.extend_from_slice(&rows[from.saturating_sub(base)..]);
            }
            base += n;
        }
        if let Some(open) = table.open_block() {
            out.extend(open.rows_from(from.saturating_sub(base)));
        }
        Ok(out)
    }

    /// After a crash-shaped memory recovery, make the disk backup cover
    /// exactly the rows now in memory: the crash discarded the backup's
    /// buffered tail, so WAL-replayed rows may exist only in memory and
    /// the volatile shm image. For each table, count the log's valid
    /// record prefix from the WAL's last anchor on (the scans run per
    /// table through the copy pool's [`fan_out_in_order`]), then, one
    /// table at a time, truncate any torn tail and re-append the uncovered
    /// row suffix — all before the crash path reopens and anything can
    /// unlink WAL segments. A log holding *more* rows than memory means
    /// image+WAL and disk disagree; condemn the memory recovery.
    fn reconcile_disk_coverage(
        &mut self,
        hints: &BTreeMap<String, (u64, u64)>,
        crash: &mut Option<PhaseBreakdown>,
    ) -> Result<(), String> {
        let started = Instant::now();
        let names: Vec<String> = self.store.map().names().map(str::to_owned).collect();
        let threads = resolve_copy_threads(self.config.copy_threads).clamp(1, names.len().max(1));
        let mut covered = Vec::with_capacity(names.len());
        let disk = &self.disk;
        fan_out_in_order(
            threads,
            |i| names.get(i).map(Ok),
            |name| {
                let cov = disk.coverage(name, hints.get(name).copied());
                cov.map_err(|e| format!("disk coverage for {name:?}: {e}"))
            },
            drop,
            |cov| {
                covered.push(cov);
                Ok(())
            },
        )?;
        let mut reappended = 0u64;
        let mut scanned = 0u64;
        let mut dirty = false;
        for (name, cov) in names.iter().zip(covered) {
            scanned += cov.scanned_bytes;
            let table = self.store.map().get(name).expect("listed above");
            let memory_rows = table.row_count() as u64;
            if cov.rows > memory_rows {
                return Err(format!(
                    "disk backup for {name:?} holds {} rows, image+wal hold {memory_rows}",
                    cov.rows
                ));
            }
            if cov.valid_len < cov.file_len {
                self.disk
                    .truncate_table(name, cov.valid_len)
                    .map_err(|e| format!("truncating torn tail of {name:?}: {e}"))?;
                dirty = true;
            }
            if cov.rows < memory_rows {
                let rows = Self::materialize_rows_from(table, cov.rows as usize)
                    .map_err(|e| format!("materializing {name:?} tail: {e}"))?;
                debug_assert_eq!(rows.len() as u64, memory_rows - cov.rows);
                self.disk
                    .append(name, &rows)
                    .map_err(|e| format!("re-appending {name:?} tail: {e}"))?;
                reappended += rows.len() as u64;
                dirty = true;
            }
        }
        if dirty {
            self.disk
                .sync()
                .map_err(|e| format!("syncing reconciled backup: {e}"))?;
        }
        self.crash.reconciled(scanned);
        scuba_obs::counter!("leaf_crash_reconciled_rows_total").add(reappended);
        self.obs.add("leaf_crash_reconciled_rows_total", reappended);
        self.obs.set(
            "leaf_crash_reconcile_scanned_bytes",
            scanned.min(i64::MAX as u64) as i64,
        );
        self.crash_phase(
            crash.as_mut(),
            Phase::Reconcile,
            "leaf_crash_reconcile_ns",
            started.elapsed(),
        );
        Ok(())
    }

    /// Replay the WAL tail onto the freshly memory-recovered store. The
    /// main thread reads only each record's header, grouping the still
    /// encoded batches by table; decode and apply run per table through
    /// the copy pool's [`fan_out`] (the same parallelism knob as the
    /// restore copy itself). A table the WAL created after the last
    /// checkpoint starts empty. A torn tail in the last segment is fine —
    /// replay stops at the last intact record, which is exactly the
    /// durable prefix. An unreadable log, a torn earlier segment, or an
    /// image/log mismatch is an `Err`, answered by the caller with a full
    /// disk fallback.
    ///
    /// Starts `crash`, the start's crash breakdown, with the read and
    /// apply phases — also when the replay fails, so a disk fallback
    /// still shows how far it got. Returns the *last* anchor's
    /// per-table `(rows, bytes)` disk coverage (empty if the log holds
    /// none) — the scan hints for [`Self::reconcile_disk_coverage`].
    fn replay_wal_tail(
        &mut self,
        now: i64,
        crash: &mut Option<PhaseBreakdown>,
    ) -> Result<BTreeMap<String, (u64, u64)>, String> {
        let started = Instant::now();
        let contents = self.crash.read_log();
        let read = started.elapsed();
        let report = crash.insert(PhaseBreakdown {
            complete: false,
            ..PhaseBreakdown::from_acc("crash", &PhaseAcc::new(), &[])
        });
        self.crash_phase(Some(&mut *report), Phase::WalRead, "leaf_wal_read_ns", read);
        let contents = contents.map_err(|e| format!("wal unreadable: {e}"))?;
        report.bytes = contents.len_bytes();
        let hints = self.apply_wal_log(&contents, report, now);
        let replay = started.elapsed();
        self.crash_phase(
            Some(report),
            Phase::WalApply,
            "leaf_wal_apply_ns",
            replay - read,
        );
        let hints = hints?;
        self.obs.set_ns("leaf_wal_replay_ns", replay);
        self.emit_restart_span("restart.wal_replay", "restore", "wal_replay", replay);
        Ok(hints)
    }

    /// The apply half of [`Self::replay_wal_tail`]: group the log's
    /// batches by table and apply each group through the copy pool,
    /// recording the units and pool width in `report`.
    fn apply_wal_log(
        &mut self,
        contents: &SegmentedContents,
        report: &mut PhaseBreakdown,
        now: i64,
    ) -> Result<BTreeMap<String, (u64, u64)>, String> {
        if contents.torn() {
            scuba_obs::counter!("leaf_wal_torn_tails_total").inc();
        }
        let mut hints = BTreeMap::new();
        let mut anchor = None;
        let mut reads = self.crash_reads();
        let mut groups: BTreeMap<&str, Vec<(u64, BatchHeader<'_>)>> = BTreeMap::new();
        for (seq, record) in contents.records() {
            let framed = (WAL_RECORD_HEADER + record.len()) as u64;
            match decode_wal_record(record)? {
                WalRecord::Batch(batch) => {
                    let held = self.store.map().get(batch.table).map(Table::row_count);
                    if held.unwrap_or(0) as u64 >= batch.start_rows + batch.n_rows {
                        reads.covered += 1;
                        reads.covered_bytes += framed;
                    } else {
                        reads.applied_bytes += framed;
                    }
                    groups.entry(batch.table).or_default().push((seq, batch))
                }
                WalRecord::SyncAnchor(entries) => {
                    // Later anchors supersede earlier ones entirely.
                    hints = entries
                        .into_iter()
                        .map(|(name, rows, bytes)| (name, (rows, bytes)))
                        .collect();
                    anchor = Some(record.to_vec());
                    reads.anchors += 1;
                    reads.anchor_bytes += framed;
                }
            }
        }
        report.units = groups.len();
        report.threads =
            resolve_copy_threads(self.config.copy_threads).clamp(1, groups.len().max(1));
        let mut tables = self.store.map_mut().take_tables();
        let mut groups = groups.into_iter();
        let mut applied = 0;
        let mut open_since = BTreeMap::new();
        fan_out(
            report.threads,
            |_| {
                let (name, batches) = groups.next()?;
                let table = tables.remove(name).unwrap_or_else(|| Table::new(name, now));
                Some(Ok((table, batches)))
            },
            |(mut table, batches)| apply_wal_batches(&mut table, &batches, now).map(|n| (table, n)),
            drop,
            |(table, (n, first))| {
                applied += n;
                open_since.extend(first.map(|seq| (table.name().to_owned(), (0, seq))));
                self.store.map_mut().insert(table);
                Ok(())
            },
        )?;
        for (_, table) in tables {
            self.store.map_mut().insert(table);
        }
        self.crash.replayed(applied, reads, anchor, open_since);
        scuba_obs::counter!("leaf_wal_replayed_records_total").add(applied as u64);
        Ok(hints)
    }

    /// Set one crash-replay phase's gauge and add the phase to this
    /// start's crash breakdown, if it replayed.
    fn crash_phase(
        &self,
        report: Option<&mut PhaseBreakdown>,
        phase: Phase,
        gauge: &'static str,
        took: Duration,
    ) {
        self.obs.set_ns(gauge, took);
        if let Some(report) = report {
            report.phases.push((phase, took));
            report.total += took;
        }
    }
}

/// Decode and apply one table's WAL records (each with its segment's seq)
/// onto its restored state. The `start_rows` anchor makes this idempotent:
/// a record the image already covers is skipped from its header, a record
/// the image ends inside (blocks seal at a row count) applies exactly its
/// uncovered rows, and one that starts past the table's rows means image
/// and log disagree — fail the replay. Returns the records applied and the
/// segment of the first, where the open block starts.
fn apply_wal_batches(
    table: &mut Table,
    batches: &[(u64, BatchHeader<'_>)],
    now: i64,
) -> Result<(usize, Option<u64>), String> {
    let (mut applied, mut first) = (0, None);
    for (seq, batch) in batches {
        let rc = table.row_count() as u64;
        if rc >= batch.start_rows.saturating_add(batch.n_rows) {
            continue; // image already covers this batch
        }
        if rc < batch.start_rows {
            return Err(format!(
                "wal gap on table {:?}: restored {rc} rows, record starts at {}",
                table.name(),
                batch.start_rows
            ));
        }
        append_batch(batch, rc - batch.start_rows, table, now)?;
        first = first.or(Some(*seq));
        applied += 1;
    }
    Ok((applied, first))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{LEGACY_WAL_FILE, WAL_DIR};
    use crate::testkit::*;
    use scuba_columnstore::{Row, Value};

    #[test]
    fn crash_recovers_from_disk() {
        let (cfg, dir) = test_config("crash");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 500);
        s.sync_disk().unwrap();
        s.crash(); // no shared-memory copy
        drop(s);

        let (s2, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        match &outcome {
            RecoveryOutcome::Disk { reason, stats } => {
                assert!(reason.contains("metadata unavailable"), "{reason}");
                assert_eq!(stats.rows, 500);
            }
            other => panic!("expected disk recovery, got {other:?}"),
        }
        assert_eq!(s2.total_rows(), 500);
    }

    #[test]
    fn crash_loses_unsynced_tail_only() {
        let (cfg, dir) = test_config("tail");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 300);
        s.sync_disk().unwrap();
        // 50 more rows, never synced: these are the "few thousand rows"
        // §4.1 accepts losing. BufWriter may or may not have flushed them;
        // a crash loses at most the buffered tail.
        let extra: Vec<Row> = (300..350).map(Row::at).collect();
        s.add_rows("logs", &extra, 0).unwrap();
        s.crash();
        drop(s);
        let (s2, _) = LeafServer::start(cfg, 0, None).unwrap();
        let n = s2.total_rows();
        assert!((300..=350).contains(&n), "recovered {n} rows");
    }

    #[test]
    fn shm_recovery_disabled_goes_to_disk() {
        let (mut cfg, dir) = test_config("disabled");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 100);
        s.shutdown_to_shm(0).unwrap();
        drop(s);

        cfg.shm_recovery_enabled = false;
        let (s2, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        match outcome {
            RecoveryOutcome::Disk { reason, .. } => {
                assert!(reason.contains("disabled"));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(s2.total_rows(), 100);
    }

    #[test]
    fn disk_throttle_paces_recovery() {
        use scuba_diskstore::Throttle;
        let (cfg, dir) = test_config("throttle");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 2000);
        s.sync_disk().unwrap();
        let on_disk = {
            let b = scuba_diskstore::DiskBackup::open(&cfg.disk_root).unwrap();
            b.size_bytes().unwrap()
        };
        s.crash();
        drop(s);
        // Throttle the read phase to ~4x the file size per second: the
        // read alone must take at least ~1/4 s.
        let throttle = Throttle::new((on_disk * 4).max(1));
        let started = std::time::Instant::now();
        let (s2, outcome) = LeafServer::start(cfg, 0, Some(&throttle)).unwrap();
        assert!(!outcome.is_memory());
        assert_eq!(s2.total_rows(), 2000);
        assert!(
            started.elapsed() >= std::time::Duration::from_millis(200),
            "throttle had no effect: {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn second_start_after_memory_recovery_uses_disk() {
        // The valid bit is consumed by the first restore; a second start
        // (e.g. crash right after recovery) must go to disk.
        let (cfg, dir) = test_config("second");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 50);
        s.shutdown_to_shm(0).unwrap();
        let (mut s2, o1) = LeafServer::start(cfg.clone(), 0, None).unwrap();
        assert!(o1.is_memory());
        s2.crash();
        drop(s2);
        let (s3, o2) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(!o2.is_memory());
        assert_eq!(s3.total_rows(), 50);
    }

    /// A torn tail in a `.rows` log is repaired during disk recovery, so
    /// rows appended afterwards are not hidden behind the garbage on the
    /// *next* recovery.
    #[test]
    fn torn_disk_tail_repaired_on_recovery() {
        let (cfg, dir) = test_config("tornrepair");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 100);
        s.sync_disk().unwrap();
        s.crash();
        drop(s);
        // Crash-torn tail: garbage bytes after the valid records.
        let path = cfg.disk_root.join("logs.rows");
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&[0xEE; 11]).unwrap();
        drop(f);

        let (mut s2, outcome) = LeafServer::start(cfg.clone(), 0, None).unwrap();
        assert!(!outcome.is_memory());
        assert_eq!(s2.total_rows(), 100);
        let extra: Vec<Row> = (100..150).map(Row::at).collect();
        s2.add_rows("logs", &extra, 0).unwrap();
        s2.sync_disk().unwrap();
        s2.crash();
        drop(s2);
        let (s3, _) = LeafServer::start(cfg, 0, None).unwrap();
        assert_eq!(
            s3.total_rows(),
            150,
            "appends after a torn tail were unreadable"
        );
    }

    /// A torn WAL tail (partial last record) replays the durable prefix
    /// and stops cleanly at the last intact record — no fallback.
    #[test]
    fn torn_wal_tail_replays_durable_prefix() {
        // Replays the log: keep sibling tests' one-shot WAL faults out.
        let _x = scuba_faults::exclusive();
        let (cfg, dir) = crash_config("cktorn");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 200);
        s.checkpoint_and_wait().unwrap();
        let b1: Vec<Row> = (200..240).map(Row::at).collect();
        s.add_rows("logs", &b1, 0).unwrap();
        let b2: Vec<Row> = (240..265).map(Row::at).collect();
        s.add_rows("logs", &b2, 0).unwrap();
        s.crash();
        drop(s);

        // Tear mid-way into the last record of the live segment, as a
        // death inside write() would.
        let dir = cfg.disk_root.join(WAL_DIR);
        let live = *scuba_restart::wal::list_segments(&dir)
            .unwrap()
            .last()
            .unwrap();
        tear(&scuba_restart::wal::segment_path(&dir, live), 3);

        let (s2, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(outcome.is_memory(), "{outcome:?}");
        assert_eq!(s2.wal_replayed_records(), 1, "replay ran past the tear");
        assert_eq!(s2.total_rows(), 240);
    }

    /// A binary swap across a crash: the previous binary's single-file
    /// log is read as segment 0 and moved into the segment directory, and
    /// the restart still takes the fast path.
    #[test]
    fn legacy_single_file_wal_is_adopted_as_segment_zero() {
        // Replays the log: keep sibling tests' one-shot WAL faults out.
        let _x = scuba_faults::exclusive();
        let (cfg, dir) = crash_config("cklegacy");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        for b in 0..3 {
            s.add_rows("logs", &seq_rows(b * 100, 100), 0).unwrap();
        }
        s.checkpoint_and_wait().unwrap();
        for b in 3..5 {
            s.add_rows("logs", &seq_rows(b * 100, 100), 0).unwrap();
        }
        s.crash();
        drop(s);
        // Rewrite the log the way the previous binary kept it: one file.
        let wal_dir = cfg.disk_root.join(WAL_DIR);
        let legacy = cfg.disk_root.join(LEGACY_WAL_FILE);
        let records: Vec<Vec<u8>> = scuba_restart::read_segments(&wal_dir)
            .unwrap()
            .records()
            .map(|(_, record)| record.to_vec())
            .collect();
        std::fs::remove_dir_all(&wal_dir).unwrap();
        let mut single = scuba_restart::WalWriter::open(&legacy).unwrap();
        for record in &records {
            single.append(record).unwrap();
        }
        drop(single);

        let (s2, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(outcome.is_memory(), "{outcome:?}");
        assert!(s2.recovered_from_checkpoint());
        assert_eq!(s2.wal_replayed_records(), 2);
        assert_eq!(count_and_seq_sum(&s2, "logs"), exact_prefix(500));
        assert!(!legacy.exists(), "the single-file log was left behind");
        assert_eq!(
            scuba_restart::wal::list_segments(&wal_dir).unwrap(),
            vec![0]
        );
    }

    /// An injected replay fault condemns the memory recovery; the leaf
    /// falls back to disk (and the stale WAL is cleared for the new
    /// life).
    #[test]
    fn wal_replay_fault_falls_back_to_disk() {
        let _x = scuba_faults::exclusive();
        scuba_faults::clear_all();
        let (cfg, dir) = crash_config("ckreplayfp");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 300);
        s.sync_disk().unwrap();
        s.checkpoint_and_wait().unwrap();
        let rows: Vec<Row> = (300..330).map(Row::at).collect();
        s.add_rows("logs", &rows, 0).unwrap();
        s.crash();
        drop(s);

        // This thread's start only: a sibling's replay passes the site.
        scuba_faults::configure_here("restart::wal::replay", "error@1").unwrap();
        let (s2, outcome) = LeafServer::start(cfg.clone(), 0, None).unwrap();
        scuba_faults::clear_all();
        match &outcome {
            RecoveryOutcome::Disk { reason, .. } => {
                assert!(reason.contains("wal unreadable"), "{reason}");
            }
            other => panic!("expected disk fallback, got {other:?}"),
        }
        assert_eq!(s2.total_rows(), 300, "disk fidelity is the synced prefix");
        assert_eq!(s2.wal_bytes(), 0, "stale WAL survived the disk fallback");
        drop(s2);
        // No orphaned checkpoint segments either way.
        let ns = ShmNamespace::new(&cfg.shm_prefix, cfg.leaf_id).unwrap();
        ns.unlink_all(16);
    }

    /// The differential: a crash start's replay, which decodes WAL records
    /// straight into the builders through the copy pool, builds the tables
    /// `Table::append` builds from `read_record`'s rows — cell for cell and
    /// block for block. Covered: a column first seen mid-batch, columns
    /// absent from some rows, a batch past a block boundary, and
    /// hand-built records with an unsorted duplicated set, a `time` cell
    /// and a name set twice.
    #[test]
    fn cell_replay_matches_row_replay() {
        // Replays the log: keep sibling tests' one-shot WAL faults out.
        let _x = scuba_faults::exclusive();
        let (cfg, dir) = crash_config("ckcells");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 100);
        s.sync_disk().unwrap();
        s.checkpoint_and_wait().unwrap();
        let mixed: Vec<Row> = (0..200i64)
            .map(|i| {
                let mut r = Row::at(i).with("seq", i);
                if i % 3 != 0 {
                    r.set("sev", if i % 2 == 0 { "info" } else { "warn" });
                }
                if i >= 50 {
                    r.set("late", i as f64 * 0.5);
                }
                if i % 5 == 0 {
                    r.set("tags", Value::set([format!("t{}", i % 4), "x".to_owned()]));
                }
                r
            })
            .collect();
        s.add_rows("mixed", &mixed[..120], 0).unwrap();
        s.add_rows("mixed", &mixed[120..], 0).unwrap();
        let wide = scuba_columnstore::MAX_ROWS_PER_BLOCK as i64 + 300;
        s.add_rows("wide", &seq_rows(0, wide), 0).unwrap();
        s.crash();
        drop(s);
        let hand = [hand_built_record(300, 200), hand_built_record(301, 201)].concat();
        append_to_wal(&cfg, &[batch_payload("mixed", 200, 2, &hand)]);

        // The reference: every batch the log holds, as `read_record` rows
        // through `Table::append`.
        let log = scuba_restart::read_segments(&cfg.disk_root.join(WAL_DIR)).unwrap();
        let mut want: BTreeMap<String, Table> = BTreeMap::new();
        for (_, record) in log.records() {
            let WalRecord::Batch(batch) = decode_wal_record(record).unwrap() else {
                continue;
            };
            let table = want
                .entry(batch.table.to_owned())
                .or_insert_with(|| Table::new(batch.table, 0));
            let mut pos = 0;
            for _ in 0..batch.n_rows {
                match scuba_diskstore::rowformat::read_record(batch.rows, &mut pos) {
                    scuba_diskstore::rowformat::ReadOutcome::Record(row) => {
                        table.append(&row, 0).unwrap()
                    }
                    other => panic!("{other:?}"),
                }
            }
            assert_eq!(pos, batch.rows.len());
        }
        assert_eq!(want.keys().collect::<Vec<_>>(), ["mixed", "wide"]);

        let (s2, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(outcome.is_memory(), "{outcome:?}");
        assert!(s2.recovered_from_checkpoint());
        for (name, want) in &want {
            assert_same_table(s2.store().map().get(name).unwrap(), want);
        }
        let wide = s2.store().map().get("wide").unwrap();
        assert_eq!(
            wide.blocks().len(),
            1,
            "the replay crossed one block boundary"
        );
        let tail = want["mixed"].open_block().unwrap().rows_from(200);
        assert_eq!(
            tail,
            [200, 201].map(|seq| Row::at(seq + 100)
                .with("seq", seq)
                .with("tags", Value::set(["zeta", "alpha"])))
        );
    }

    /// A block seals at a row count, not at a batch boundary, so an image
    /// can end inside a record: the replay applies exactly the record's
    /// uncovered tail, cell for cell. A record that starts past the rows
    /// the table holds is still a gap, which sends the start to disk.
    #[test]
    fn a_record_the_image_ends_inside_applies_exactly_its_tail() {
        let rows = seq_rows(0, 300);
        let mut image = Table::new("t", 0);
        for row in &rows[..150] {
            image.append(row, 0).unwrap();
        }
        image.seal(0).unwrap();
        let straddling = batch_payload("t", 100, 100, &records(&rows[100..200]));
        let past = batch_payload("t", 250, 50, &records(&rows[250..]));
        let batch = |payload| match decode_wal_record(payload).unwrap() {
            WalRecord::Batch(batch) => (7, batch),
            WalRecord::SyncAnchor(_) => unreachable!(),
        };

        let mut table = image.clone();
        assert_eq!(
            apply_wal_batches(&mut table, &[batch(&straddling)], 0),
            Ok((1, Some(7)))
        );
        assert_eq!((table.blocks().len(), table.unsealed_rows()), (1, 50));
        let mut want = image.clone();
        for row in &rows[150..200] {
            want.append(row, 0).unwrap();
        }
        assert_same_table(&table, &want);

        let mut table = image;
        let err = apply_wal_batches(&mut table, &[batch(&straddling), batch(&past)], 0);
        let err = err.unwrap_err();
        assert!(
            err.contains("restored 200 rows, record starts at 250"),
            "{err}"
        );
    }

    /// A crash start's replay split — WAL read, apply, disk reconcile and
    /// writer reopen — shows in its gauges, as `op=crash` spans in the
    /// span ring, and as the crash breakdown the leaf keeps (and publishes
    /// to the process's `RestartReport`). A replay that fails still keeps
    /// how far it got, marked incomplete, and a start that does not replay
    /// keeps no crash breakdown. Each leaf's own breakdown is read, so a
    /// crash start in a test running beside this one cannot stand in.
    #[test]
    fn crash_start_reports_its_replay_split() {
        // Replays the log: keep sibling tests' one-shot WAL faults out.
        let _x = scuba_faults::exclusive();
        let _o = scuba_obs::exclusive();
        let was_enabled = scuba_obs::enabled();
        scuba_obs::set_enabled(true);
        let (cfg, dir) = crash_config("cksplit");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 300);
        s.sync_disk().unwrap();
        s.checkpoint_and_wait().unwrap();
        s.add_rows("logs", &seq_rows(300, 50), 0).unwrap();
        s.crash();
        drop(s);

        let leaf = format!("{}:{}", cfg.shm_prefix, cfg.leaf_id);
        let (mut s2, outcome) = LeafServer::start(cfg.clone(), 0, None).unwrap();
        let (report, spans) = (s2.crash_breakdown().cloned(), scuba_obs::recent_spans());
        let gauges: Vec<Option<i64>> = [
            "leaf_wal_replay_ns",
            "leaf_wal_read_ns",
            "leaf_wal_apply_ns",
            "leaf_crash_reconcile_ns",
            "leaf_wal_reopen_ns",
        ]
        .iter()
        .map(|gauge| scuba_obs::gauge_value(&scuba_obs::labeled_name(gauge, &[("leaf", &leaf)])))
        .collect();
        // A batch past its row count fails the next replay.
        let rows: Vec<Row> = (350..353).map(Row::at).collect();
        s2.checkpoint_and_wait().unwrap();
        s2.crash();
        drop(s2);
        append_to_wal(&cfg, &[batch_payload("logs", 350, 2, &records(&rows))]);
        let (s3, failed) = LeafServer::start(cfg.clone(), 0, None).unwrap();
        let failed_report = s3.crash_breakdown().cloned();
        drop(s3);
        let mut no_memory = cfg;
        no_memory.shm_recovery_enabled = false;
        let (s4, disk) = LeafServer::start(no_memory, 0, None).unwrap();
        let last_report = s4.crash_breakdown().cloned();
        scuba_obs::set_enabled(was_enabled);

        assert!(outcome.is_memory(), "{outcome:?}");
        let leaf = leaf.as_str();
        let split = ["wal_read", "wal_apply", "reconcile", "wal_reopen"];
        let report = report.expect("no crash breakdown kept");
        let names: Vec<&str> = report.phases.iter().map(|(p, _)| p.name()).collect();
        assert_eq!(names, split);
        assert!(report.complete);
        assert_eq!((report.units, report.threads), (1, 1));
        assert_eq!(report.total, report.phase_sum());
        let traced: Vec<&str> = spans
            .iter()
            .filter(|r| {
                r.name == "restart.phase"
                    && r.attr("op") == Some("crash")
                    && r.attr("leaf") == Some(leaf)
            })
            .filter_map(|r| r.attr("phase"))
            .collect();
        assert_eq!(traced, split);
        assert!(
            gauges.iter().all(|ns| ns.is_some_and(|ns| ns > 0)),
            "{gauges:?}"
        );

        assert!(!failed.is_memory(), "{failed:?}");
        let failed_report = failed_report.expect("a failed replay kept nothing");
        let names: Vec<&str> = failed_report.phases.iter().map(|(p, _)| p.name()).collect();
        assert_eq!(names, ["wal_read", "wal_apply", "wal_reopen"]);
        assert!(!failed_report.complete);

        assert!(!disk.is_memory(), "{disk:?}");
        assert_eq!(
            last_report, None,
            "a start that did not replay kept a breakdown"
        );
    }

    /// The reconcile re-appends the disk log's uncovered rows off the open
    /// block's builder, from inside the block: after a crash loses the
    /// log's buffered batch, the log holds again exactly the rows memory
    /// holds — nulls, and a column that appears mid-block, included.
    #[test]
    fn a_reappended_tail_is_the_rows_memory_holds() {
        let rows = |first: i64, n: i64| -> Vec<Row> {
            (first..first + n)
                .map(|i| {
                    let mut row = Row::at(i).with("seq", i);
                    if i % 3 != 0 {
                        row.set("s", format!("v{}", i % 5));
                    }
                    if i >= 150 {
                        row.set("late", i as f64 / 4.0);
                    }
                    row
                })
                .collect()
        };
        let disk_rows = |cfg: &LeafConfig| {
            let backup = scuba_diskstore::DiskBackup::open(&cfg.disk_root).unwrap();
            let (map, _) = backup.recover_tables(&["t".to_owned()], 0, None).unwrap();
            LeafServer::materialize_rows_from(map.get("t").unwrap(), 0).unwrap()
        };
        let (cfg, dir) = crash_config("cktail");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        s.add_rows("t", &rows(0, 100), 0).unwrap();
        s.checkpoint_and_wait().unwrap();
        s.add_rows("t", &rows(100, 30), 0).unwrap();
        s.sync_disk().unwrap();
        s.add_rows("t", &rows(130, 70), 0).unwrap();
        s.crash();
        drop(s);
        assert!(
            disk_rows(&cfg) == rows(0, 130),
            "the crash kept the buffered batch"
        );

        let (s2, outcome) = LeafServer::start(cfg.clone(), 0, None).unwrap();
        assert!(outcome.is_memory(), "{outcome:?}");
        let t = s2.store().map().get("t").unwrap();
        assert_eq!((t.row_count(), t.unsealed_rows()), (200, 100));
        assert!(LeafServer::materialize_rows_from(t, 0).unwrap() == rows(0, 200));
        drop(s2);
        assert!(
            disk_rows(&cfg) == rows(0, 200),
            "the log is not the rows memory holds"
        );
    }

    /// A CRC-valid batch holding more rows than its header says is a
    /// structural error: the replay must not apply it short, so the start
    /// falls back to disk.
    #[test]
    fn wal_batch_with_rows_past_its_count_falls_back_to_disk() {
        // Replays the log: keep sibling tests' one-shot WAL faults out.
        let _x = scuba_faults::exclusive();
        let (cfg, dir) = crash_config("cktrailing");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 300);
        s.sync_disk().unwrap();
        s.checkpoint_and_wait().unwrap();
        s.crash();
        drop(s);
        let rows: Vec<Row> = (300..303).map(Row::at).collect();
        append_to_wal(&cfg, &[batch_payload("logs", 300, 2, &records(&rows))]);

        let (s2, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        match &outcome {
            RecoveryOutcome::Disk { reason, .. } => {
                assert!(reason.contains("bytes after its 2 rows"), "{reason}");
            }
            other => panic!("a batch was replayed short: {other:?}"),
        }
        assert_eq!(s2.total_rows(), 300, "disk fidelity is the synced prefix");
    }

    /// A type conflict in the middle of a batch fails the replay like any
    /// other bad record: the start recovers every synced row from disk.
    #[test]
    fn mid_batch_type_conflict_falls_back_to_disk() {
        // Replays the log: keep sibling tests' one-shot WAL faults out.
        let _x = scuba_faults::exclusive();
        let (cfg, dir) = crash_config("ckconflict");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 300);
        s.checkpoint_and_wait().unwrap();
        let synced: Vec<Row> = (300..330).map(|i| Row::at(i).with("code", i % 7)).collect();
        s.add_rows("logs", &synced, 0).unwrap();
        s.sync_disk().unwrap();
        s.crash();
        drop(s);
        let rows = [
            Row::at(330).with("code", 1i64),
            Row::at(331).with("code", "not an int"),
            Row::at(332).with("code", 2i64),
        ];
        append_to_wal(&cfg, &[batch_payload("logs", 330, 3, &records(&rows))]);

        let (s2, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        match &outcome {
            RecoveryOutcome::Disk { reason, .. } => {
                assert!(reason.contains("row 1"), "{reason}");
            }
            other => panic!("a conflicting batch was replayed: {other:?}"),
        }
        assert_eq!(s2.total_rows(), 330, "disk fidelity is the synced prefix");
    }

    /// With the metadata region unlinked a crash start has no image to
    /// attach, so it recovers from disk: it never reads the WAL — nor an
    /// anchor in it — and never reconciles, so it publishes no
    /// `leaf_crash_reconcile_*` figure.
    #[test]
    fn a_disk_start_never_reads_an_anchor() {
        let (cfg, dir) = crash_config("cknoanchor");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 300);
        s.sync_disk().unwrap();
        s.checkpoint_and_wait().unwrap();
        s.add_rows("logs", &seq_rows(300, 50), 0).unwrap();
        s.sync_disk().unwrap();
        s.crash();
        drop(s);
        scuba_shmem::ShmSegment::unlink(
            &ShmNamespace::new(&cfg.shm_prefix, cfg.leaf_id)
                .unwrap()
                .metadata_name(),
        )
        .unwrap();

        let (s, outcome) = LeafServer::start(cfg.clone(), 0, None).unwrap();
        assert!(!outcome.is_memory(), "{outcome:?}");
        assert_eq!(s.total_rows(), 350);
        assert_eq!(s.crash_reads(), crate::CrashReads::default());
        let leaf = format!("{}:{}", cfg.shm_prefix, cfg.leaf_id);
        for gauge in [
            "leaf_crash_reconcile_ns",
            "leaf_crash_reconcile_scanned_bytes",
        ] {
            let name = scuba_obs::labeled_name(gauge, &[("leaf", &leaf)]);
            assert_eq!(scuba_obs::gauge_value(&name), None, "{gauge}");
        }
    }

    /// REVIEW (high): rows that came back through WAL replay must reach
    /// the disk backup during recovery — a later disk-path recovery (the
    /// WAL is cleared by then) must still surface them.
    #[test]
    fn wal_replayed_rows_reach_disk_backup() {
        // Replays the log: keep sibling tests' one-shot WAL faults out.
        let _x = scuba_faults::exclusive();
        let (cfg, dir) = crash_config("ckreconcile");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 400);
        s.sync_disk().unwrap();
        s.checkpoint_and_wait().unwrap();
        // 100 tail rows, never disk-synced: after the crash they exist
        // only in the WAL and the warm image.
        let tail: Vec<Row> = (400..500).map(|i| Row::at(i).with("sev", "tail")).collect();
        s.add_rows("logs", &tail, 0).unwrap();
        s.crash();
        drop(s);

        let (mut s2, outcome) = LeafServer::start(cfg.clone(), 0, None).unwrap();
        assert!(outcome.is_memory(), "{outcome:?}");
        assert_eq!(s2.total_rows(), 500);
        // The reconcile must have re-appended the replayed tail durably.
        let backup = scuba_diskstore::DiskBackup::open(&cfg.disk_root).unwrap();
        assert_eq!(
            backup.coverage("logs", None).unwrap().rows,
            500,
            "replayed rows never reached the disk backup"
        );
        drop(backup);
        // The acid test: crash again immediately. The image's valid bit
        // was consumed by the recovery above and no checkpoint has run,
        // so this recovery is pure disk — it must still hold every row
        // the previous life was serving.
        s2.crash();
        drop(s2);
        let (s3, o3) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(!o3.is_memory(), "{o3:?}");
        assert_eq!(
            s3.total_rows(),
            500,
            "disk-path recovery lost WAL-replayed rows"
        );
    }

    /// REVIEW (medium): a fresh `new()` must not leave a dead
    /// predecessor's valid checkpoint image linked — crashing before the
    /// first checkpoint cycle would let the next start resurrect the
    /// abandoned life's data.
    #[test]
    fn first_boot_sweeps_stale_checkpoint_image() {
        // Replays the log: keep sibling tests' one-shot WAL faults out.
        let _x = scuba_faults::exclusive();
        let (cfg, dir) = crash_config("ckstale");
        let mut s1 = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s1.namespace().clone(), dir);
        fill(&mut s1, 300);
        s1.sync_disk().unwrap();
        s1.checkpoint_and_wait().unwrap();
        s1.crash(); // valid image + WAL left behind
        drop(s1);

        // Operator decision: boot a *fresh* leaf instead of recovering.
        // Its disk root is the same, but its life starts empty.
        let mut s2 = LeafServer::new(cfg.clone()).unwrap();
        assert_eq!(s2.total_rows(), 0);
        s2.crash(); // before any checkpoint cycle of the new life
        drop(s2);

        let (s3, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(
            !outcome.is_memory(),
            "stale predecessor image resurrected: {outcome:?}"
        );
        // Disk still holds the old life's synced rows — that is the
        // honest durable state; what must NOT happen is a memory
        // recovery from the abandoned image.
        assert_eq!(s3.total_rows(), 300);
    }

    /// The same with the crash path off and a planned-shutdown image: a
    /// fresh `new()` abandons it, so a crash of the new life recovers the
    /// new life's synced rows from disk rather than attaching the old
    /// life's image.
    #[test]
    fn first_boot_sweeps_stale_planned_image() {
        let (cfg, dir) = test_config("plannedstale");
        let mut s1 = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s1.namespace().clone(), dir);
        fill(&mut s1, 300);
        s1.shutdown_to_shm(0).unwrap(); // valid planned image of 300 rows
        drop(s1);

        let mut s2 = LeafServer::new(cfg.clone()).unwrap();
        let rows: Vec<Row> = (300..350).map(Row::at).collect();
        s2.add_rows("logs", &rows, 0).unwrap();
        s2.sync_disk().unwrap();
        s2.crash();
        drop(s2);

        let (s3, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(
            !outcome.is_memory(),
            "abandoned planned image attached: {outcome:?}"
        );
        assert_eq!(s3.total_rows(), 350);
    }

    /// A disk recovery started with memory recovery disabled abandons the
    /// predecessor's checkpoint image: a crash before this life's first
    /// checkpoint cycle must not let the next start attach it and serve —
    /// and re-persist — rows the disk recovery dropped.
    #[test]
    fn disabled_memory_recovery_sweeps_stale_checkpoint_image() {
        // Replays the log: keep sibling tests' one-shot WAL faults out.
        let _x = scuba_faults::exclusive();
        let (cfg, dir) = crash_config("ckdisabled");
        let mut s1 = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s1.namespace().clone(), dir);
        fill(&mut s1, 300);
        s1.sync_disk().unwrap();
        let unsynced: Vec<Row> = (300..350).map(Row::at).collect();
        s1.add_rows("logs", &unsynced, 0).unwrap();
        s1.checkpoint_and_wait().unwrap();
        s1.crash(); // a valid image of 350 rows; disk holds the synced 300
        drop(s1);

        let mut disabled = cfg.clone();
        disabled.shm_recovery_enabled = false;
        let (mut s2, outcome) = LeafServer::start(disabled, 0, None).unwrap();
        assert!(!outcome.is_memory(), "{outcome:?}");
        assert_eq!(s2.total_rows(), 300);
        s2.crash(); // before any checkpoint cycle of this life
        drop(s2);

        let (s3, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(
            !outcome.is_memory(),
            "abandoned image resurrected: {outcome:?}"
        );
        assert_eq!(s3.total_rows(), 300);
    }

    /// An older binary kept its checkpoint image under `_k{parity}_{i}`
    /// names. The start finds them in the registry, attaches and keeps the
    /// image, and the next cycle extends it under the same name; a sweep
    /// still unlinks such names.
    #[test]
    fn an_older_binarys_checkpoint_image_attaches_and_is_extended_in_place() {
        use scuba_restart::migrate::CURRENT_IMAGE_MIN_READER;
        use scuba_shmem::ShmSegment;
        let _x = scuba_faults::exclusive();
        let (cfg, dir) = kept_crash_config("oldnames");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        s.add_rows("logs", &seq_rows(0, 300), 0).unwrap();
        crash_to_checkpoint(&mut s);
        drop(s);
        // Move the image to the name the older binary gave it.
        let ns = ShmNamespace::new(&cfg.shm_prefix, cfg.leaf_id).unwrap();
        let (new_name, old_name) = (ns.table_segment_name(0), ns.checkpoint_segment_name(1, 0));
        let bytes = ShmSegment::open(&new_name).unwrap().as_slice().to_vec();
        ShmSegment::unlink(&new_name).unwrap();
        let mut old = ShmSegment::create(&old_name, bytes.len()).unwrap();
        old.as_mut_slice().copy_from_slice(&bytes);
        drop(old);
        let entry = LeafMetadata::open(&ns).unwrap().read().unwrap().segments[0].clone();
        ShmSegment::unlink(&ns.metadata_name()).unwrap();
        let mut meta =
            LeafMetadata::create(&ns, SHM_LAYOUT_VERSION, CURRENT_IMAGE_MIN_READER).unwrap();
        meta.add_segment_invalidating(&old_name, entry.format_version, entry.flags)
            .unwrap();
        meta.set_valid(true).unwrap();
        drop(meta);

        let (mut s, outcome) = LeafServer::start(cfg.clone(), 0, None).unwrap();
        assert!(matches!(outcome, RecoveryOutcome::MemoryAttached(_)));
        assert!(s.recovered_from_checkpoint());
        assert_eq!(s.store().image_segments(), std::slice::from_ref(&old_name));
        s.add_rows("logs", &seq_rows(300, 50), 0).unwrap();
        let stats = s.checkpoint_and_wait().unwrap();
        assert_eq!(stats.full_rewrites, 0, "the old image was not extended");
        assert_eq!(s.store().image_segments(), std::slice::from_ref(&old_name));
        s.crash();
        drop(s);

        let (s, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(outcome.is_memory(), "{outcome:?}");
        assert_eq!(count_and_seq_sum(&s, "logs"), exact_prefix(350));
        drop(s);
        ns.unlink_all(16);
        assert!(!ShmSegment::exists(&old_name));
    }

    /// (memory recovery enabled, crash path enabled, image) → (memory
    /// source?, sweep, replay).
    type Decision = (bool, bool, Image, bool, bool, Replay);

    /// The DESIGN §13 decision table, written out by hand.
    #[rustfmt::skip]
    const DECISIONS: [Decision; 20] = {
        use Image::{Absent, Checkpoint, Planned};
        use Replay::{CheckpointTail, No, Tail};
        [
            (true, true, Absent, true, false, Tail),
            (true, true, Planned { valid: true }, true, false, Tail),
            (true, true, Planned { valid: false }, true, false, Tail),
            (true, true, Checkpoint { valid: true }, true, false, CheckpointTail),
            (true, true, Checkpoint { valid: false }, true, false, Tail),
            (true, false, Absent, true, false, No),
            (true, false, Planned { valid: true }, true, false, No),
            (true, false, Planned { valid: false }, true, false, No),
            (true, false, Checkpoint { valid: true }, true, false, No),
            (true, false, Checkpoint { valid: false }, true, false, No),
            (false, true, Absent, false, true, No),
            (false, true, Planned { valid: true }, false, true, No),
            (false, true, Planned { valid: false }, false, true, No),
            (false, true, Checkpoint { valid: true }, false, true, No),
            (false, true, Checkpoint { valid: false }, false, true, No),
            (false, false, Absent, false, true, No),
            (false, false, Planned { valid: true }, false, true, No),
            (false, false, Planned { valid: false }, false, true, No),
            (false, false, Checkpoint { valid: true }, false, true, No),
            (false, false, Checkpoint { valid: false }, false, true, No),
        ]
    };

    /// Every probe, in both restore modes, against the hand-written table.
    #[test]
    fn plan_matches_the_decision_table_for_every_probe() {
        let images = [
            Image::Absent,
            Image::Planned { valid: true },
            Image::Planned { valid: false },
            Image::Checkpoint { valid: true },
            Image::Checkpoint { valid: false },
        ];
        let mut probes = 0;
        for shm_recovery_enabled in [true, false] {
            for checkpoint_enabled in [true, false] {
                for image in images {
                    let key = (shm_recovery_enabled, checkpoint_enabled, image);
                    let rows: Vec<_> = DECISIONS
                        .iter()
                        .filter(|r| (r.0, r.1, r.2) == key)
                        .collect();
                    assert_eq!(rows.len(), 1, "table rows for {key:?}");
                    let &(_, _, _, memory, sweep, replay) = rows[0];
                    for restore_mode in [RestoreMode::Full, RestoreMode::TwoPhase] {
                        let probe = Probe {
                            shm_recovery_enabled,
                            checkpoint_enabled,
                            restore_mode,
                            image,
                        };
                        let source = if memory {
                            Source::Memory(restore_mode)
                        } else {
                            Source::Disk("memory recovery disabled")
                        };
                        let want = Plan {
                            source,
                            sweep,
                            replay,
                        };
                        assert_eq!(plan(&probe), want, "{probe:?}");
                        probes += 1;
                    }
                }
            }
        }
        assert_eq!(probes, 2 * DECISIONS.len());
    }
}
