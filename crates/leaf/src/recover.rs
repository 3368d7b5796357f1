//! Recovery at start (Figure 5(b), §4.3, DESIGN §13): probe what the dead
//! process left, decide in the pure [`plan`], then run small executors —
//! memory restore or attach, WAL replay and reconcile, disk rebuilds.

use std::collections::BTreeMap;
use std::time::Instant;

use scuba_columnstore::{Row, Table};
use scuba_diskstore::Throttle;
use scuba_restart::{
    attach_from_shm, fan_out, resolve_copy_threads, restore_from_shm_with, CopyOptions,
    LeafRestoreState, RestoreError, SHM_LAYOUT_VERSION,
};
use scuba_shmem::{LeafMetadata, ShmNamespace};

use crate::checkpoint::{SEG_FLAG_CHECKPOINT, STALE_SWEEP};
use crate::config::{LeafConfig, RestoreMode};
use crate::error::LeafResult;
use crate::ingest::{decode_batch_rows, decode_wal_record, BatchHeader, WalRecord};
use crate::persist::LeafStore;
use crate::server::{phase_failpoint, LeafPhase, LeafServer, RecoveryOutcome};

/// What the metadata region holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Image {
    /// No region; also what the probe reports with the crash path off,
    /// when no plan depends on the region and it is not read.
    Absent,
    /// A planned-shutdown image (`valid: false` also: unreadable).
    Planned { valid: bool },
    /// A checkpoint image under the names of `parity`.
    Checkpoint { parity: u32, valid: bool },
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
    /// The new checkpointer's parity (`None`: crash path off).
    pub(crate) parity: Option<u32>,
    pub(crate) replay: Replay,
}

/// A new life's checkpoint parity: the other one from any checkpoint
/// image found, so views a dying predecessor still holds can never unlink
/// the new image.
pub(crate) fn next_parity(image: Image) -> u32 {
    match image {
        Image::Checkpoint { parity, .. } => 1 - parity,
        _ => 0,
    }
}

/// Decide how to recover, from the probe alone: no I/O.
pub(crate) fn plan(probe: &Probe) -> Plan {
    let memory = probe.shm_recovery_enabled;
    let valid_checkpoint = matches!(probe.image, Image::Checkpoint { valid: true, .. });
    Plan {
        source: if memory {
            Source::Memory(probe.restore_mode)
        } else {
            Source::Disk("memory recovery disabled")
        },
        sweep: !memory,
        parity: probe.checkpoint_enabled.then(|| next_parity(probe.image)),
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
    // Checkpoint segment names are `…_k{parity}_{index}`; matching on the
    // index-0 stem covers every index.
    let stem = |parity: u32| {
        let n = ns.checkpoint_segment_name(parity, 0);
        n[..n.len() - 1].to_owned()
    };
    let (stem0, stem1) = (stem(0), stem(1));
    let mut image_parity = None;
    for entry in &contents.segments {
        if entry.flags & SEG_FLAG_CHECKPOINT == 0 {
            continue;
        }
        if entry.name.starts_with(&stem0) {
            image_parity = Some(0);
        } else if entry.name.starts_with(&stem1) {
            image_parity = Some(1);
        }
    }
    let valid = contents.valid;
    match image_parity {
        Some(parity) => Image::Checkpoint { parity, valid },
        None => Image::Planned { valid },
    }
}

/// Unlink a predecessor's image, either parity, and its metadata: how a
/// first boot and a disk recovery with memory recovery disabled abandon it.
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
        let started = Instant::now();
        let recovered = LeafServer::new_core(config).and_then(|mut server| {
            let plan = plan(&server.probe());
            let outcome = server.recover(&plan, now, disk_throttle)?;
            Ok((server, outcome))
        });
        match recovered {
            Ok((server, outcome)) => {
                if scuba_obs::enabled() {
                    scuba_obs::counter!("restarts_completed").inc();
                    server.obs.add("leaf_recoveries_total", 1);
                    // Time to first query: the leaf accepts requests the
                    // moment start() returns — under TwoPhase that is
                    // attach cost, not full-restore cost.
                    server
                        .obs
                        .set_ns("leaf_time_to_first_query_ns", started.elapsed());
                    server.emit_restore_spans(&outcome);
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
    /// exception edge to disk when the memory attempt fails.
    fn recover(
        &mut self,
        plan: &Plan,
        now: i64,
        throttle: Option<&Throttle>,
    ) -> LeafResult<RecoveryOutcome> {
        if plan.sweep {
            sweep_image(&self.ns);
        }
        let mut state = LeafRestoreState::Init;
        let memory = match plan.source {
            Source::Memory(mode) => {
                state = state.transition(LeafRestoreState::MemoryRecovery)?;
                self.recover_from_memory(mode, plan.replay, now, throttle)?
            }
            Source::Disk(reason) => Err(reason.to_owned()),
        };
        let outcome = match memory {
            Ok(outcome) => outcome,
            Err(reason) => {
                state = state.transition(LeafRestoreState::DiskRecovery)?;
                self.rebuild_from_disk(now, throttle, reason)?
            }
        };
        state.transition(LeafRestoreState::Alive)?;
        if let Some(parity) = plan.parity {
            // After a memory recovery the replayed rows are still in the
            // log's segments; the first checkpoint of this life rotates past
            // them at its snapshot and unlinks them when it commits. Replay
            // is idempotent, so keeping them until then is safe. After a
            // disk recovery the log predates the rebuilt state: clear it.
            self.crash.open(parity, !outcome.is_memory(), &self.store);
        }
        match outcome {
            // The disk rebuild already left the leaf `Alive`.
            RecoveryOutcome::Disk { .. } => {}
            RecoveryOutcome::MemoryAttached(_) if self.store.map().mapped_bytes() > 0 => {
                self.start_hydration(now)?;
            }
            _ => self.set_phase(LeafPhase::Alive),
        }
        Ok(outcome)
    }

    /// Restore or attach the shared-memory image through `mode`, bring
    /// back from disk the tables it skipped, and replay the WAL tail.
    /// `Ok(Err(reason))` condemns the memory recovery to the disk path;
    /// `Err` fails the start.
    fn recover_from_memory(
        &mut self,
        mode: RestoreMode,
        replay: Replay,
        now: i64,
        throttle: Option<&Throttle>,
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
        let crash_sync = self.replay_wal_tail(now).and_then(|hints| {
            // Reconcile on any crash-shaped recovery: a warm checkpoint
            // image, or replayed records (which can exist even when the
            // image probe failed). A planned restore has neither —
            // shutdown already synced everything.
            if from_checkpoint || self.wal_replayed_records() > 0 {
                self.reconcile_disk_coverage(&hints)
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

    /// The whole-leaf disk executor: drop whatever the store holds (a
    /// partial restore, a condemned attach — dropping the last mapped
    /// references unlinks their segments) and rebuild every table from the
    /// disk backup. Leaves the leaf `Alive`.
    pub(crate) fn rebuild_from_disk(
        &mut self,
        now: i64,
        throttle: Option<&Throttle>,
        reason: String,
    ) -> LeafResult<RecoveryOutcome> {
        self.store = LeafStore::new();
        self.set_phase(LeafPhase::DiskRecovery);
        phase_failpoint("leaf::phase::disk_recovery")?;
        // Writers may hold buffered appends from the life being abandoned
        // (mid-life hydration fallback, a partial reconcile): drop them so
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
    /// logs, in place of whatever the store held for them. The logs
    /// rebuild them fully hot, so any cold file they left behind (missing
    /// frames, stale coldrefs) is now an orphan — drop it.
    pub(crate) fn recover_tables_from_disk(
        &mut self,
        names: &[String],
        now: i64,
        throttle: Option<&Throttle>,
    ) -> LeafResult<()> {
        let (mut map, _stats) = self.disk.recover_tables(names, now, throttle)?;
        for name in names {
            self.store.map_mut().remove(name);
            let _ = self.cold.remove_table(name);
        }
        for (_, table) in map.take_tables() {
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
    fn emit_restore_spans(&self, outcome: &RecoveryOutcome) {
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
    }

    /// Decode a table's in-memory rows from index `from` onward, in
    /// ingest order (sealed blocks oldest-first, then the unsealed
    /// builder) — exactly the disk log's append order. Mapped
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
        if let Some(snap) = table.unsealed_snapshot().map_err(|e| e.to_string())? {
            let rows = snap.decode_rows().map_err(|e| e.to_string())?;
            let skip = from.saturating_sub(base);
            if skip < rows.len() {
                out.extend_from_slice(&rows[skip..]);
            }
        }
        Ok(out)
    }

    /// After a crash-shaped memory recovery, make the disk backup cover
    /// exactly the rows now in memory: the crash discarded the backup's
    /// buffered tail, so WAL-replayed rows may exist only in memory and
    /// the volatile shm image. For each table, count the log's valid
    /// record prefix (cheap when the WAL's last sync anchor bounds the
    /// scan), truncate any torn tail, and re-append the uncovered row
    /// suffix — all before the crash path reopens and anything can
    /// unlink WAL segments. A log holding *more* rows than memory means
    /// image+WAL and disk disagree; condemn the memory recovery.
    fn reconcile_disk_coverage(
        &mut self,
        hints: &BTreeMap<String, (u64, u64)>,
    ) -> Result<(), String> {
        let started = Instant::now();
        let names: Vec<String> = self.store.map().names().map(str::to_owned).collect();
        let mut reappended = 0u64;
        let mut scanned = 0u64;
        let mut dirty = false;
        for name in &names {
            let cov = self
                .disk
                .coverage(name, hints.get(name).copied())
                .map_err(|e| format!("disk coverage for {name:?}: {e}"))?;
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
        scuba_obs::counter!("leaf_crash_reconciled_rows_total").add(reappended);
        self.obs.add("leaf_crash_reconciled_rows_total", reappended);
        self.obs.set(
            "leaf_crash_reconcile_scanned_bytes",
            scanned.min(i64::MAX as u64) as i64,
        );
        self.obs
            .set_ns("leaf_crash_reconcile_ns", started.elapsed());
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
    /// Returns the *last* sync anchor's per-table `(rows, bytes)` disk
    /// coverage (empty if the log holds none) — the scan hints for
    /// [`Self::reconcile_disk_coverage`].
    fn replay_wal_tail(&mut self, now: i64) -> Result<BTreeMap<String, (u64, u64)>, String> {
        let started = Instant::now();
        let contents = self
            .crash
            .read_log()
            .map_err(|e| format!("wal unreadable: {e}"))?;
        if contents.torn() {
            scuba_obs::counter!("leaf_wal_torn_tails_total").inc();
        }
        let mut hints = BTreeMap::new();
        let mut anchor = None;
        let mut groups: BTreeMap<&str, Vec<BatchHeader<'_>>> = BTreeMap::new();
        for record in contents.records() {
            match decode_wal_record(record)? {
                WalRecord::Batch(batch) => groups.entry(batch.table).or_default().push(batch),
                WalRecord::SyncAnchor(entries) => {
                    // Later anchors supersede earlier ones entirely.
                    hints = entries
                        .into_iter()
                        .map(|(name, rows, bytes)| (name, (rows, bytes)))
                        .collect();
                    anchor = Some(record.to_vec());
                }
            }
        }
        if groups.is_empty() {
            self.crash.replayed(0, anchor);
            return Ok(hints);
        }
        let threads = resolve_copy_threads(self.config.copy_threads).min(groups.len());
        let mut tables = self.store.map_mut().take_tables();
        let mut groups = groups.into_iter();
        let mut applied = 0;
        fan_out(
            threads,
            |_| {
                let (name, batches) = groups.next()?;
                let table = tables.remove(name).unwrap_or_else(|| Table::new(name, now));
                Some(Ok((table, batches)))
            },
            |(mut table, batches)| apply_wal_batches(&mut table, &batches, now).map(|n| (table, n)),
            drop,
            |(table, n)| {
                applied += n;
                self.store.map_mut().insert(table);
                Ok(())
            },
        )?;
        for (_, table) in tables {
            self.store.map_mut().insert(table);
        }
        self.crash.replayed(applied, anchor);
        scuba_obs::counter!("leaf_wal_replayed_records_total").add(applied as u64);
        self.obs.set_ns("leaf_wal_replay_ns", started.elapsed());
        self.emit_restart_span(
            "restart.wal_replay",
            "restore",
            "wal_replay",
            started.elapsed(),
        );
        Ok(hints)
    }
}

/// Decode and apply one table's WAL records onto its restored state.
/// The `start_rows` anchor makes this idempotent: a record the image
/// already covers is skipped from its header (its rows are never
/// decoded), a record that lines up exactly is decoded and appended,
/// and anything else means image and log disagree — fail the replay.
fn apply_wal_batches(
    table: &mut Table,
    batches: &[BatchHeader<'_>],
    now: i64,
) -> Result<usize, String> {
    let mut applied = 0;
    for batch in batches {
        let rc = table.row_count() as u64;
        if rc >= batch.start_rows.saturating_add(batch.n_rows) {
            continue; // image already covers this batch
        }
        if rc != batch.start_rows {
            return Err(format!(
                "wal gap on table {:?}: restored {rc} rows, record starts at {}",
                table.name(),
                batch.start_rows
            ));
        }
        for row in decode_batch_rows(batch)? {
            table.append(&row, now).map_err(|e| e.to_string())?;
        }
        applied += 1;
    }
    Ok(applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::{LEGACY_WAL_FILE, WAL_DIR};
    use crate::testkit::*;
    use scuba_columnstore::Row;

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
            .map(<[u8]>::to_vec)
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

        scuba_faults::configure("restart::wal::replay", "error@1").unwrap();
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

    /// (memory recovery enabled, crash path enabled, image) → (memory
    /// source?, sweep, new parity, replay).
    type Decision = (bool, bool, Image, bool, bool, Option<u32>, Replay);

    /// The DESIGN §13 decision table, written out by hand.
    #[rustfmt::skip]
    const DECISIONS: [Decision; 28] = {
        use Image::{Absent, Checkpoint, Planned};
        use Replay::{CheckpointTail, No, Tail};
        [
            (true, true, Absent, true, false, Some(0), Tail),
            (true, true, Planned { valid: true }, true, false, Some(0), Tail),
            (true, true, Planned { valid: false }, true, false, Some(0), Tail),
            (true, true, Checkpoint { parity: 0, valid: true }, true, false, Some(1), CheckpointTail),
            (true, true, Checkpoint { parity: 0, valid: false }, true, false, Some(1), Tail),
            (true, true, Checkpoint { parity: 1, valid: true }, true, false, Some(0), CheckpointTail),
            (true, true, Checkpoint { parity: 1, valid: false }, true, false, Some(0), Tail),
            (true, false, Absent, true, false, None, No),
            (true, false, Planned { valid: true }, true, false, None, No),
            (true, false, Planned { valid: false }, true, false, None, No),
            (true, false, Checkpoint { parity: 0, valid: true }, true, false, None, No),
            (true, false, Checkpoint { parity: 0, valid: false }, true, false, None, No),
            (true, false, Checkpoint { parity: 1, valid: true }, true, false, None, No),
            (true, false, Checkpoint { parity: 1, valid: false }, true, false, None, No),
            (false, true, Absent, false, true, Some(0), No),
            (false, true, Planned { valid: true }, false, true, Some(0), No),
            (false, true, Planned { valid: false }, false, true, Some(0), No),
            (false, true, Checkpoint { parity: 0, valid: true }, false, true, Some(1), No),
            (false, true, Checkpoint { parity: 0, valid: false }, false, true, Some(1), No),
            (false, true, Checkpoint { parity: 1, valid: true }, false, true, Some(0), No),
            (false, true, Checkpoint { parity: 1, valid: false }, false, true, Some(0), No),
            (false, false, Absent, false, true, None, No),
            (false, false, Planned { valid: true }, false, true, None, No),
            (false, false, Planned { valid: false }, false, true, None, No),
            (false, false, Checkpoint { parity: 0, valid: true }, false, true, None, No),
            (false, false, Checkpoint { parity: 0, valid: false }, false, true, None, No),
            (false, false, Checkpoint { parity: 1, valid: true }, false, true, None, No),
            (false, false, Checkpoint { parity: 1, valid: false }, false, true, None, No),
        ]
    };

    /// Every probe, in both restore modes, against the hand-written table.
    #[test]
    fn plan_matches_the_decision_table_for_every_probe() {
        let images = [
            Image::Absent,
            Image::Planned { valid: true },
            Image::Planned { valid: false },
            Image::Checkpoint {
                parity: 0,
                valid: true,
            },
            Image::Checkpoint {
                parity: 0,
                valid: false,
            },
            Image::Checkpoint {
                parity: 1,
                valid: true,
            },
            Image::Checkpoint {
                parity: 1,
                valid: false,
            },
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
                    let &(_, _, _, memory, sweep, parity, replay) = rows[0];
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
                            parity,
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
