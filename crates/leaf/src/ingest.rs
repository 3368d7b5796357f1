//! The ingest side of the crash path (DESIGN §13): the WAL record codec,
//! and [`CrashPath`] — the one owner of the log, the checkpoint worker and
//! the bookkeeping that keeps both in step with the store. The image holds
//! sealed blocks and the log each table's open block: a seal starts a
//! segment and a cycle, whose commit drops the segments below the oldest
//! open block. Every segment opens with a coverage anchor of the disk logs.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use scuba_columnstore::{Row, RowCells, Table};
use scuba_diskstore::rowformat::{self, ReadOutcome};
use scuba_diskstore::DiskBackup;
use scuba_obs::PhaseBreakdown;
use scuba_restart::wal::{SegmentedContents, WalLayout};
use scuba_restart::{read_segments, SegmentedWal, WalError};
use scuba_shmem::{ShmNamespace, ShmSegment};

use crate::checkpoint::{CheckpointOutcome, CheckpointStats, Checkpointer};
use crate::config::LeafConfig;
use crate::error::{LeafError, LeafResult};
use crate::persist::{ImageJob, LeafStore};
use crate::server::{LeafMetrics, LeafServer};

/// WAL segment directory inside `disk_root`. The disk backup only reads
/// `*.rows` files during recovery, so the log can live alongside them.
pub const WAL_DIR: &str = "wal";

/// The single-file log binaries before segmented logs wrote into
/// `disk_root`. A start adopts it as segment 0, so a binary swap across a
/// crash keeps the fast path.
pub(crate) const LEGACY_WAL_FILE: &str = "leaf.wal";

/// WAL payload tag: an ingest batch.
pub(crate) const WAL_TAG_BATCH: u8 = 1;
/// WAL payload tag: a coverage anchor (see [`encode_sync_anchor`]).
const WAL_TAG_SYNC: u8 = 2;

/// The header of one WAL batch record, read without decoding its rows:
/// enough to route the record to its table's replay worker and to skip it
/// when the restored image already covers it.
pub(crate) struct BatchHeader<'a> {
    /// Destination table.
    pub(crate) table: &'a str,
    /// The table's row count immediately *before* the batch was applied —
    /// the idempotence anchor: replay skips the record when the restored
    /// table already covers it, appends when it lines up exactly, and
    /// declares the image inconsistent otherwise.
    pub(crate) start_rows: u64,
    /// Rows in the batch.
    pub(crate) n_rows: u64,
    /// The batch's rowformat records, still encoded.
    pub(crate) rows: &'a [u8],
}

/// Encode one ingest batch as a WAL record payload:
/// `tag u8 | name_len u16 | name | start_rows u64 | n_rows u32 |
/// rowformat records`.
fn encode_wal_batch(table: &str, start_rows: u64, rows: &[Row]) -> Vec<u8> {
    let name = table.as_bytes();
    let mut buf = Vec::with_capacity(15 + name.len() + rows.len() * 16);
    buf.push(WAL_TAG_BATCH);
    buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
    buf.extend_from_slice(name);
    buf.extend_from_slice(&start_rows.to_le_bytes());
    buf.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for row in rows {
        rowformat::write_record(row, &mut buf);
    }
    buf
}

/// Encode a coverage anchor: each table's disk log holds its first `rows`
/// in-memory rows in exactly the first `bytes` file bytes. Written after a
/// disk sync and at every rotation that finds the disk writers flushed
/// ([`disk_anchor`]). Crash recovery uses the *last* anchor to bound the
/// disk-coverage reconciliation scan to the file suffix written since.
/// Payload:
/// `tag u8 | n u32 | per table: name_len u16 | name | rows u64 | bytes u64`.
fn encode_sync_anchor(entries: &[(String, u64, u64)]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(5 + entries.len() * 40);
    buf.push(WAL_TAG_SYNC);
    buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (name, rows, bytes) in entries {
        buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(&rows.to_le_bytes());
        buf.extend_from_slice(&bytes.to_le_bytes());
    }
    buf
}

/// The anchor of the disk logs as they stand: each table's rows and its
/// log's length. `None` while a disk writer still holds buffered bytes
/// (its file lacks rows memory holds; flushing here would change what a
/// crash leaves on disk) or a length cannot be read.
fn disk_anchor(store: &LeafStore, disk: &DiskBackup) -> Option<Vec<u8>> {
    if !disk.flushed() {
        return None;
    }
    let entries = store.map().iter().map(|t| {
        let len = disk.file_len(t.name()).ok()?;
        Some((t.name().to_owned(), t.row_count() as u64, len))
    });
    Some(encode_sync_anchor(&entries.collect::<Option<Vec<_>>>()?))
}

/// What the last crash start read: the WAL by record kind, and the disk
/// log bytes its reconcile walked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrashReads {
    /// Bytes of every WAL segment read, file headers included.
    pub wal_bytes: u64,
    /// WAL segments read.
    pub segments: usize,
    /// Framed bytes of the batch records the replay applied, whole or in
    /// part.
    pub applied_bytes: u64,
    /// Batch records the image already held whole.
    pub covered: usize,
    /// Their framed bytes.
    pub covered_bytes: u64,
    /// Coverage anchors read.
    pub anchors: usize,
    /// Their framed bytes.
    pub anchor_bytes: u64,
    /// Disk log bytes the reconcile walked; `None` when none ran.
    pub reconcile_scanned_bytes: Option<u64>,
}

/// A WAL payload, decoded as far as the main thread needs.
pub(crate) enum WalRecord<'a> {
    /// An ingest batch to replay; its rows are decoded by the worker.
    Batch(BatchHeader<'a>),
    /// A coverage anchor: per-table `(rows, bytes)` disk coverage.
    SyncAnchor(Vec<(String, u64, u64)>),
}

/// Decode a WAL record payload by its leading tag. The outer frame's CRC
/// already matched, so any structural problem here is a logic error worth
/// failing loudly on — the caller answers with a disk fallback, never a
/// partial apply.
pub(crate) fn decode_wal_record(payload: &[u8]) -> Result<WalRecord<'_>, String> {
    match payload.first() {
        Some(&WAL_TAG_BATCH) => read_batch_header(&payload[1..]).map(WalRecord::Batch),
        Some(&WAL_TAG_SYNC) => decode_sync_anchor(&payload[1..]).map(WalRecord::SyncAnchor),
        Some(&tag) => Err(format!("unknown wal record tag {tag}")),
        None => Err("empty wal record".to_owned()),
    }
}

/// Bounds-checked reads off a WAL payload; `what` names the record kind
/// in the truncation error.
struct Fields<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Fields<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() < self.pos + n {
            return Err(format!(
                "wal {} truncated at {}+{n} of {}",
                self.what,
                self.pos,
                self.buf.len()
            ));
        }
        self.pos += n;
        Ok(&self.buf[self.pos - n..self.pos])
    }

    fn u16(&mut self) -> Result<usize, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()) as usize)
    }
}

/// Decode a sync-anchor payload (tag already stripped).
fn decode_sync_anchor(payload: &[u8]) -> Result<Vec<(String, u64, u64)>, String> {
    let mut f = Fields {
        buf: payload,
        pos: 0,
        what: "anchor",
    };
    let n = u32::from_le_bytes(f.take(4)?.try_into().unwrap()) as usize;
    let mut entries = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let name_len = f.u16()?;
        let entry = f.take(name_len + 16)?;
        let name = String::from_utf8(entry[..name_len].to_vec())
            .map_err(|e| format!("wal anchor table name: {e}"))?;
        let rows = u64::from_le_bytes(entry[name_len..name_len + 8].try_into().unwrap());
        let bytes = u64::from_le_bytes(entry[name_len + 8..].try_into().unwrap());
        entries.push((name, rows, bytes));
    }
    if f.pos != payload.len() {
        return Err("trailing bytes in wal anchor".to_owned());
    }
    Ok(entries)
}

/// Read an ingest-batch header (tag already stripped).
fn read_batch_header(payload: &[u8]) -> Result<BatchHeader<'_>, String> {
    let mut f = Fields {
        buf: payload,
        pos: 0,
        what: "record",
    };
    let name_len = f.u16()?;
    let table = std::str::from_utf8(f.take(name_len)?)
        .map_err(|e| format!("wal record table name: {e}"))?;
    let counts = f.take(12)?;
    Ok(BatchHeader {
        table,
        start_rows: u64::from_le_bytes(counts[..8].try_into().unwrap()),
        n_rows: u64::from(u32::from_le_bytes(counts[8..].try_into().unwrap())),
        rows: &payload[f.pos..],
    })
}

/// Decode a batch's records straight into `table`'s builder (`now` stamps
/// any block the append starts), all but the first `skip`, which the image
/// already holds. The batch must hold exactly its `n_rows` records: fewer,
/// a torn one, or bytes after the last are a structural error, and so is
/// a row the table rejects. The caller answers any error with a disk
/// fallback, so rows appended before it never serve.
pub(crate) fn append_batch(
    batch: &BatchHeader<'_>,
    skip: u64,
    table: &mut Table,
    now: i64,
) -> Result<(), String> {
    let mut cells = RowCells::default();
    let mut pos = 0;
    for i in 0..batch.n_rows {
        match rowformat::read_cells(batch.rows, &mut pos, &mut cells) {
            ReadOutcome::Record(()) if i < skip => {}
            ReadOutcome::Record(()) => table
                .append_cells(&mut cells, now)
                .map_err(|e| format!("wal record row {i}: {e}"))?,
            ReadOutcome::End => {
                return Err(format!("wal record short: {i} of {} rows", batch.n_rows))
            }
            ReadOutcome::Torn(why) => return Err(format!("wal record torn: {why}")),
        }
    }
    if pos != batch.rows.len() {
        return Err(format!(
            "wal record has {} bytes after its {} rows",
            batch.rows.len() - pos,
            batch.n_rows
        ));
    }
    Ok(())
}

/// The crash path of one leaf: the per-leaf write-ahead log covering the
/// open blocks, the background checkpoint worker committing sealed ones,
/// and the bookkeeping that ties the two to the store. Switched on by
/// [`LeafConfig::checkpoint_enabled`]; off, every method is a no-op.
#[derive(Debug)]
pub(crate) struct CrashPath {
    enabled: bool,
    /// The lag cap: rows the log may hold behind the oldest open block
    /// before that block is sealed (0: no cap).
    lag_cap: usize,
    ns: ShmNamespace,
    wal_dir: PathBuf,
    legacy_wal: PathBuf,
    obs: LeafMetrics,
    /// The log. Present iff the path is on, open and healthy; a write
    /// error *poisons* it (set to `None`, image invalidated) so a crash
    /// degrades to the disk path rather than replaying a log with holes.
    /// Ingest never fails because of the WAL.
    wal: Option<SegmentedWal>,
    /// Where the segments' valid records ended when recovery read the log:
    /// the writer resumes there instead of reading the log again.
    read_layout: Option<WalLayout>,
    /// Payload of the last coverage anchor written to the WAL. A rotation
    /// that cannot anchor the disk logs afresh re-appends it as the new
    /// segment's first record, so the reconcile scan stays bounded after
    /// the segment that first held it is unlinked.
    last_anchor: Option<Vec<u8>>,
    /// Background checkpoint worker, present iff the path is open and
    /// healthy.
    checkpointer: Option<Checkpointer>,
    /// Sealed blocks covered by the last committed checkpoint (feeds the
    /// `leaf_checkpoint_lag_blocks` gauge).
    committed_sealed: usize,
    /// Per table, where its open block starts in the log: `logged` at its
    /// first row, and that row's segment (read only while it holds rows).
    open_since: BTreeMap<String, (u64, u64)>,
    /// Rows logged in this life.
    logged: u64,
    /// A seal asked for a cycle that has not started yet.
    cycle_wanted: bool,
    /// WAL records applied by the last recovery's replay.
    wal_replayed_records: usize,
    /// What the last crash start read.
    reads: CrashReads,
    /// The WAL split the last crash start timed (and published as the
    /// `RestartReport`'s crash breakdown with metrics on): `None` when it
    /// replayed nothing.
    pub(crate) breakdown: Option<PhaseBreakdown>,
    /// True when the last recovery came back through a *checkpoint*
    /// image (crash-fast path) rather than a planned-shutdown backup.
    recovered_from_checkpoint: bool,
    /// Why the WAL was poisoned, if it was.
    wal_poison_reason: Option<String>,
}

impl CrashPath {
    /// The crash path `config` asks for, not yet open: recovery must read
    /// the WAL and probe the old image *before* the writer truncates torn
    /// tails or the checkpointer commits over the image.
    pub(crate) fn new(config: &LeafConfig, ns: ShmNamespace, obs: LeafMetrics) -> CrashPath {
        CrashPath {
            enabled: config.checkpoint_enabled,
            lag_cap: config.checkpoint_interval_rows,
            ns,
            wal_dir: config.disk_root.join(WAL_DIR),
            legacy_wal: config.disk_root.join(LEGACY_WAL_FILE),
            obs,
            wal: None,
            read_layout: None,
            last_anchor: None,
            checkpointer: None,
            committed_sealed: 0,
            open_since: BTreeMap::new(),
            logged: 0,
            cycle_wanted: false,
            wal_replayed_records: 0,
            reads: CrashReads::default(),
            breakdown: None,
            recovered_from_checkpoint: false,
            wal_poison_reason: None,
        }
    }

    /// Whether the crash path is configured on.
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start the crash path: spawn the checkpoint worker and open the WAL
    /// (clearing it when the log predates the state we now hold, e.g.
    /// after a disk recovery). A log [`Self::read_log`] read reopens where
    /// that read found its valid records end, without a second read. Any
    /// WAL problem poisons the path instead of failing the server. Returns
    /// how long opening the writer took.
    pub(crate) fn open(&mut self, clear_wal: bool, store: &mut LeafStore, now: i64) -> Duration {
        debug_assert!(self.enabled);
        self.checkpointer = Some(Checkpointer::new(self.ns.clone()));
        let started = Instant::now();
        let opened = self
            .adopt_legacy_wal()
            .and_then(|()| match self.read_layout.take() {
                Some(layout) => SegmentedWal::reopen(&self.wal_dir, &layout),
                None => SegmentedWal::open(&self.wal_dir),
            });
        let took = started.elapsed();
        match opened {
            Ok(wal) => {
                self.wal = Some(wal);
                if clear_wal {
                    self.clear(store, now);
                }
                self.publish_gauges(store);
            }
            Err(e) => self.poison(store, format!("open: {e}")),
        }
        took
    }

    /// Move a previous binary's single-file log into the segment directory
    /// as segment 0 (no-op when there is none).
    fn adopt_legacy_wal(&self) -> Result<(), WalError> {
        scuba_restart::wal::adopt_single_file(&self.wal_dir, &self.legacy_wal)
    }

    /// Every record the dead process logged, for replay. Remembers where
    /// each segment's valid records end, for [`Self::open`], and how much
    /// it read.
    pub(crate) fn read_log(&mut self) -> Result<SegmentedContents, WalError> {
        let contents = self
            .adopt_legacy_wal()
            .and_then(|()| read_segments(&self.wal_dir))?;
        self.read_layout = Some(contents.layout());
        self.reads = CrashReads {
            wal_bytes: contents.len_bytes(),
            segments: contents.segments(),
            ..CrashReads::default()
        };
        Ok(contents)
    }

    /// Seal every open block, then drop every WAL record: the next cycle
    /// commits the blocks (without the seal, it would leave their rows in
    /// neither the image nor the log). The carried anchor goes too — the
    /// disk log it describes may have been rewritten.
    fn clear(&mut self, store: &mut LeafStore, now: i64) {
        self.last_anchor = None;
        if let Err(e) = store.seal_all(now) {
            return self.poison(store, format!("seal: {e}"));
        }
        if let Some(wal) = self.wal.as_mut() {
            if let Err(e) = wal.clear() {
                self.poison(store, format!("clear: {e}"));
            }
        }
    }

    /// The log can no longer promise to cover every post-checkpoint batch
    /// (a WAL write failed, or memory and the disk log fell out of step),
    /// so the image + this log would silently drop rows. Drop the log, stop
    /// the checkpointer and invalidate the image — the next crash recovers
    /// from disk with exact durable fidelity.
    pub(crate) fn poison(&mut self, store: &mut LeafStore, reason: String) {
        if !self.enabled {
            return;
        }
        self.wal = None;
        self.last_anchor = None;
        self.stop(store);
        self.invalidate(store);
        scuba_obs::counter!("leaf_wal_poisoned_total").inc();
        self.obs.set("leaf_wal_bytes", 0);
        self.obs.add("leaf_wal_poisoned", 1);
        self.wal_poison_reason = Some(reason);
    }

    /// Publish the crash-path gauges: how far the image trails the store
    /// (sealed blocks not yet checkpointed) and how much WAL tail a crash
    /// would have to replay.
    pub(crate) fn publish_gauges(&self, store: &LeafStore) {
        if !scuba_obs::enabled() || !self.enabled {
            return;
        }
        let sealed_now: usize = store.map().iter().map(|t| t.blocks().len()).sum();
        self.obs.set(
            "leaf_checkpoint_lag_blocks",
            sealed_now.saturating_sub(self.committed_sealed) as i64,
        );
        self.obs.set("leaf_wal_bytes", self.wal_bytes() as i64);
    }

    /// Snapshot the store's sealed blocks and hand the worker a job whose
    /// commit drops the segments below the cut: the segment the oldest
    /// open block starts in, or, with none open, a segment the WAL rotates
    /// to at the same instant. An open block pins the cut whatever this
    /// does, so a seal rotates once — in [`Self::append`] — and leaves no
    /// segment holding only its anchor. False if the crash path is down
    /// (disabled or poisoned), a cycle is in flight, or no cycle could
    /// start.
    pub(crate) fn request(&mut self, store: &mut LeafStore, disk: &DiskBackup) -> bool {
        let idle = self.checkpointer.as_ref().is_some_and(|ck| !ck.in_flight());
        if self.wal.is_none() || !idle {
            // Poisoned (a log with holes must not pair with an image), or
            // a cycle is still copying the previous snapshot.
            return false;
        }
        let job = ImageJob::snapshot(store);
        let cut = match self.oldest_open(store) {
            Some((_, (_, seq))) => seq,
            None => match self.rotate(store, disk) {
                Some(rotated) => rotated,
                None => return false,
            },
        };
        let ok = self
            .checkpointer
            .as_mut()
            .is_some_and(|ck| ck.request(job, cut));
        self.cycle_wanted &= !ok;
        ok
    }

    /// The table whose open block started longest ago, with its
    /// `open_since` — the log's start, `(0, 0)`, for a block no logged
    /// batch opened. Its segment is the lowest any open block starts in.
    fn oldest_open(&self, store: &LeafStore) -> Option<(String, (u64, u64))> {
        let open = store.map().iter().filter(|t| t.unsealed_rows() > 0);
        let since = |name| self.open_since.get(name).copied().unwrap_or_default();
        let oldest = open.min_by_key(|t| since(t.name()))?;
        Some((oldest.name().to_owned(), since(oldest.name())))
    }

    /// Start a new WAL segment and return its seq. Its first record is a
    /// coverage anchor: a fresh one when the disk writers hold no buffered
    /// bytes, else the last one, carried. Runs on the ingest thread, so no
    /// batch can land between a snapshot just taken and the cut. A failure
    /// poisons the crash path.
    fn rotate(&mut self, store: &mut LeafStore, disk: &DiskBackup) -> Option<u64> {
        let wal = self.wal.as_mut()?;
        if let Some(fresh) = disk_anchor(store, disk) {
            self.last_anchor = Some(fresh);
        }
        let rotated = wal.rotate().and_then(|seq| {
            if let Some(anchor) = &self.last_anchor {
                wal.append(anchor)?;
            }
            Ok(seq)
        });
        match rotated {
            Ok(seq) => Some(seq),
            Err(e) => {
                self.poison(store, format!("rotate: {e}"));
                None
            }
        }
    }

    /// Fold one completed cycle into the store and the crash path: advance
    /// the tables' image records, publish the cycle's phases as op
    /// `checkpoint` `restart.phase` spans, remember coverage for the lag
    /// gauge, and unlink the WAL segments the image now covers.
    pub(crate) fn apply_outcome(
        &mut self,
        outcome: CheckpointOutcome,
        store: &mut LeafStore,
    ) -> Result<CheckpointStats, String> {
        match outcome.result {
            Ok(stats) => {
                store.commit_image(outcome.tables);
                let trace_id = scuba_obs::current_trace_id();
                for (phase, d) in outcome.phases {
                    self.obs
                        .span("restart.phase", "checkpoint", phase.name(), d, trace_id);
                }
                self.committed_sealed = stats.sealed_blocks;
                if let Some(wal) = self.wal.as_mut() {
                    if let Err(e) = wal.drop_below(outcome.covered_seq) {
                        self.poison(store, format!("unlink covered segments: {e}"));
                    }
                }
                self.publish_gauges(store);
                Ok(stats)
            }
            Err(reason) => {
                // No image is valid until a later cycle commits; until
                // then a crash falls back to disk. The WAL segments stay:
                // a later commit covers them.
                self.publish_gauges(store);
                Err(reason)
            }
        }
    }

    /// Wait for the cycle in flight, if any, and apply it.
    fn settle(&mut self, store: &mut LeafStore) {
        if let Some(outcome) = self.checkpointer.as_mut().and_then(Checkpointer::wait_done) {
            let _ = self.apply_outcome(outcome, store);
        }
    }

    /// Stop the checkpointer, applying the cycle it was on. A planned
    /// shutdown does this before its backup, so the backup and the
    /// checkpointer never write the metadata region together.
    pub(crate) fn stop(&mut self, store: &mut LeafStore) {
        self.settle(store);
        self.checkpointer = None;
    }

    /// Take the image away from a crash start: unlink the metadata region,
    /// so a crash until the next commit recovers from disk. The segments
    /// stay with their records, which no commit lists now; the next cycle
    /// commits a fresh region over them.
    pub(crate) fn invalidate(&mut self, store: &mut LeafStore) {
        if !self.enabled {
            return;
        }
        self.settle(store);
        let _ = ShmSegment::unlink(&self.ns.metadata_name());
        store.unlist_images();
    }

    /// The store just changed in a way the WAL's row anchors cannot follow
    /// — expiry, a disk rebuild of the whole leaf or of one table.
    /// Invalidate the image, seal the open blocks and drop the stale WAL;
    /// the next cycle commits the image again, and until then a crash goes
    /// to disk.
    pub(crate) fn reset(&mut self, store: &mut LeafStore, now: i64) {
        if !self.enabled {
            return;
        }
        self.invalidate(store);
        self.committed_sealed = 0;
        self.clear(store, now);
        self.publish_gauges(store);
    }

    /// Log a batch the store and the disk backup just applied (`start`:
    /// the table's row and sealed block counts before it) and run the
    /// trigger: a batch that sealed a block starts a WAL segment before it
    /// is logged, and asks for a cycle. The segment its open block starts
    /// in then holds nothing the seal covers but this batch's sealed
    /// prefix. WAL problems never fail ingest: they poison the crash path,
    /// degrading the next crash to the disk path.
    pub(crate) fn append(
        &mut self,
        store: &mut LeafStore,
        disk: &DiskBackup,
        table: &str,
        (start_rows, blocks): (u64, usize),
        rows: &[Row],
        now: i64,
    ) {
        if !self.enabled || rows.is_empty() {
            return;
        }
        let sealed = store
            .map()
            .get(table)
            .is_some_and(|t| t.blocks().len() > blocks);
        if sealed {
            self.rotate(store, disk);
        }
        if let Some(wal) = self.wal.as_mut() {
            if let Err(e) = wal.append(&encode_wal_batch(table, start_rows, rows)) {
                self.poison(store, format!("append: {e}"));
            }
        }
        let t = store.map().get(table).expect("the batch was applied");
        if let Some(wal) = self.wal.as_ref() {
            if (t.row_count() - t.unsealed_rows()) as u64 >= start_rows {
                // The table's open block starts in this batch.
                let since = (self.logged, wal.live_seq());
                self.open_since.insert(table.to_owned(), since);
            }
        }
        self.logged += rows.len() as u64;
        self.cycle_wanted |= sealed;
        // The lag cap: seal the oldest open block once the log holds more
        // than `lag_cap` rows behind it, so a commit can drop what it pins.
        let capped = (self.lag_cap != 0).then(|| self.oldest_open(store));
        if let Some((name, _)) = capped
            .flatten()
            .filter(|(_, (mark, _))| self.logged - mark > self.lag_cap as u64)
        {
            self.cycle_wanted = true;
            if let Err(e) = store.map_mut().get_mut(&name).expect("open").seal(now) {
                self.poison(store, format!("seal {name:?}: {e}"));
            }
        }
        // Apply a finished cycle on the first batch after it lands
        // (unlinking its covered segments then, not a seal later), and
        // start the cycle a seal asks for: a worker still copying the last
        // one refuses it, and the next batch tries again.
        if let Some(outcome) = self.checkpointer.as_mut().and_then(Checkpointer::try_done) {
            let _ = self.apply_outcome(outcome, store);
        }
        if self.cycle_wanted {
            self.request(store, disk);
        }
        self.publish_gauges(store);
    }

    /// After the disk backup synced: fsync the WAL on the same cadence, so
    /// its records become durable against machine failure with the backup
    /// they shadow, then anchor the coverage just synced. The anchor is
    /// advisory (it bounds the reconcile scan): with a length unreadable,
    /// none is written, and the next recovery scans more, which is always
    /// correct. Failing to write it poisons the crash path like any WAL
    /// append.
    pub(crate) fn sync(&mut self, store: &mut LeafStore, disk: &DiskBackup) {
        if let Some(wal) = self.wal.as_mut() {
            if let Err(e) = wal.sync() {
                self.poison(store, format!("fsync: {e}"));
            }
        }
        let (Some(wal), Some(anchor)) = (self.wal.as_mut(), disk_anchor(store, disk)) else {
            return;
        };
        match wal.append(&anchor) {
            Ok(()) => self.last_anchor = Some(anchor),
            Err(e) => self.poison(store, format!("append anchor: {e}")),
        }
    }

    /// The shutdown backup's valid bit is committed and its image covers
    /// every row: drop the log.
    pub(crate) fn retire_log(&mut self, store: &mut LeafStore) {
        self.clear(store, 0); // the backup drained the store: nothing to seal
        self.wal = None;
    }

    /// A crash: stop the checkpointer once the cycle it is on is applied,
    /// so every segment a commit lists has its views disarmed, and close
    /// the WAL's fds without clearing it.
    pub(crate) fn abandon(&mut self, store: &mut LeafStore) {
        self.stop(store);
        self.wal = None;
    }

    /// Record what the recovery's WAL replay did: the records it applied,
    /// what it read by kind, the last anchor it read (carried into the next
    /// rotation), and where each replayed table's open block starts:
    /// `(0, segment of its first applied record)`, so the replayed rows
    /// never trip the lag cap.
    pub(crate) fn replayed(
        &mut self,
        records: usize,
        reads: CrashReads,
        anchor: Option<Vec<u8>>,
        open_since: BTreeMap<String, (u64, u64)>,
    ) {
        self.wal_replayed_records = records;
        self.reads = reads;
        self.last_anchor = anchor;
        self.open_since = open_since;
    }

    /// Record the disk log bytes the recovery's reconcile walked.
    pub(crate) fn reconciled(&mut self, scanned: u64) {
        self.reads.reconcile_scanned_bytes = Some(scanned);
    }

    /// The recovery came back through a checkpoint image: the crash-fast
    /// path.
    pub(crate) fn recovered_through_checkpoint(&mut self) {
        self.recovered_from_checkpoint = true;
        self.obs.add("leaf_crash_fast_recoveries_total", 1);
    }

    fn wal_bytes(&self) -> u64 {
        self.wal.as_ref().map_or(0, |w| {
            let headers = w.seqs().len() as u64 * scuba_restart::wal::WAL_HEADER;
            w.len_bytes().saturating_sub(headers)
        })
    }
}

impl LeafServer {
    /// Make the image cover every row now: seal every open block, as a
    /// shutdown does, and wait for a checkpoint to commit, which empties
    /// the log. Under ingest each seal starts a cycle on its own.
    pub fn checkpoint_and_wait(&mut self) -> LeafResult<CheckpointStats> {
        if !self.phase().accepts_adds() {
            return Err(self.unavailable("checkpoint"));
        }
        // Settle any in-flight cycle first so ours is next.
        self.crash.settle(&mut self.store);
        self.store.seal_all(self.tier_now)?;
        if !self.crash.request(&mut self.store, &self.disk) {
            return Err(self.unavailable("checkpoint (crash path disabled or poisoned)"));
        }
        let Some(outcome) = self
            .crash
            .checkpointer
            .as_mut()
            .and_then(Checkpointer::wait_done)
        else {
            return Err(self.unavailable("checkpoint (worker died)"));
        };
        self.crash
            .apply_outcome(outcome, &mut self.store)
            .map_err(LeafError::Backup)
    }

    /// WAL records applied by the last recovery's replay.
    pub fn wal_replayed_records(&self) -> usize {
        self.crash.wal_replayed_records
    }

    /// What the last crash start read from the WAL and the disk logs
    /// (all zero when it replayed nothing).
    pub fn crash_reads(&self) -> CrashReads {
        self.crash.reads
    }

    /// The crash split — WAL read, apply, reconcile, writer reopen — of
    /// this leaf's start (`None` if it replayed nothing), metrics on or
    /// off: this leaf's own, whatever other leaves in the process publish.
    pub fn crash_breakdown(&self) -> Option<&PhaseBreakdown> {
        self.crash.breakdown.as_ref()
    }

    /// True when the last recovery came back through a checkpoint image
    /// (the crash-fast path) rather than a planned-shutdown backup.
    pub fn recovered_from_checkpoint(&self) -> bool {
        self.crash.recovered_from_checkpoint
    }

    /// Record bytes currently in the WAL's segments, excluding their file
    /// headers (0 when the crash path is off or poisoned).
    pub fn wal_bytes(&self) -> u64 {
        self.crash.wal_bytes()
    }

    /// Why the WAL was poisoned, if it was.
    pub fn wal_poison_reason(&self) -> Option<&str> {
        self.crash.wal_poison_reason.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::SEG_FLAG_CHECKPOINT;
    use crate::server::{LeafServer, RecoveryOutcome};
    use crate::testkit::*;
    use scuba_columnstore::table::RetentionLimits;
    use scuba_shmem::LeafMetadata;

    /// A batch payload's rows as `read_record` reads them, appended with
    /// `Table::append`: the row-by-row reference for [`append_batch`].
    fn append_batch_by_rows(payload: &[u8]) -> Result<Table, String> {
        let WalRecord::Batch(batch) = decode_wal_record(payload)? else {
            return Err("not a batch".to_owned());
        };
        let mut table = Table::new(batch.table, 0);
        let mut pos = 0;
        for _ in 0..batch.n_rows {
            match rowformat::read_record(batch.rows, &mut pos) {
                ReadOutcome::Record(row) => table.append(&row, 0).map_err(|e| e.to_string())?,
                other => return Err(format!("{other:?}")),
            }
        }
        if pos != batch.rows.len() {
            return Err("trailing bytes".to_owned());
        }
        Ok(table)
    }

    /// Flip-and-cut over a whole WAL batch payload: no cut and no
    /// single-bit flip panics, and each is rejected or decodes into the
    /// table `read_record`'s rows build.
    #[test]
    fn batch_payload_cuts_and_flips_reject_or_match_read_record() {
        let rows: Vec<Row> = (0..6i64)
            .map(|i| Row::at(i).with("seq", i).with("s", format!("v{i}")))
            .collect();
        let mut recs = records(&rows);
        recs.extend(hand_built_record(9, 6));
        let payload = batch_payload("t", 0, 7, &recs);
        let agree = |p: &[u8], what: &str| -> bool {
            let by_cells = decode_wal_record(p).and_then(|record| match record {
                WalRecord::Batch(batch) => {
                    let mut table = Table::new(batch.table, 0);
                    append_batch(&batch, 0, &mut table, 0).map(|()| table)
                }
                WalRecord::SyncAnchor(_) => Err("not a batch".to_owned()),
            });
            match (by_cells, append_batch_by_rows(p)) {
                (Ok(got), Ok(want)) => {
                    assert_same_table(&got, &want);
                    true
                }
                (Err(_), Err(_)) => false,
                (got, want) => panic!("{what}: cells {:?} vs rows {:?}", got.err(), want.err()),
            }
        };
        assert!(agree(&payload, "intact"));
        for cut in 0..payload.len() {
            assert!(
                !agree(&payload[..cut], &format!("cut={cut}")),
                "cut={cut} accepted"
            );
        }
        let mut accepted = 0;
        for i in 0..payload.len() {
            for bit in 0..8 {
                let mut copy = payload.clone();
                copy[i] ^= 1 << bit;
                accepted += usize::from(agree(&copy, &format!("flip@{i}.{bit}")));
            }
        }
        // Flips in `start_rows`, and some in the table name, still decode.
        assert!(accepted >= 64, "{accepted}");
    }

    /// Seal every open block and take a checkpoint, as
    /// `checkpoint_and_wait` does, and let the worker commit it, but never
    /// drain the outcome: the state a crash finds between the worker's
    /// commit and the server's unlink of the covered segments.
    fn commit_without_draining(s: &mut LeafServer) {
        s.store.seal_all(0).unwrap();
        assert!(s.crash.request(&mut s.store, &s.disk));
        let outcome = s.crash.checkpointer.as_mut().unwrap().wait_done().unwrap();
        assert!(outcome.result.is_ok(), "{:?}", outcome.result);
    }

    /// Let every cycle the seals asked for start and commit, as the next
    /// batches would.
    fn settle_cycles(s: &mut LeafServer) {
        s.crash.settle(&mut s.store);
        if s.crash.cycle_wanted {
            assert!(s.crash.request(&mut s.store, &s.disk));
        }
        s.crash.settle(&mut s.store);
    }

    /// The seal is the trigger: with no explicit checkpoint, each sealed
    /// block reaches the image, and a crash replays only the records that
    /// hold each table's open block — none that the replay would seal.
    #[test]
    fn a_crash_replays_at_most_one_open_block_per_table() {
        const BATCH: i64 = 1000;
        const BLOCK: i64 = scuba_columnstore::MAX_ROWS_PER_BLOCK as i64;
        let (cfg, dir) = crash_config("ckopenonly");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        let tables = ["open_a", "open_b"];
        // N = 2 full blocks plus k rows each.
        let (blocks, k) = (2, 5_500);
        let per_table = blocks * BLOCK + k;
        for b in 0..2 * (per_table as u64).div_ceil(BATCH as u64) as i64 {
            let t = (b % 2) as usize;
            let first = b / 2 * BATCH;
            let n = BATCH.min(per_table - first);
            s.add_rows(tables[t], &seq_rows(first, n), 0).unwrap();
        }
        settle_cycles(&mut s);
        s.crash();
        drop(s);

        let (s, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(outcome.is_memory(), "{outcome:?}");
        assert!(s.recovered_from_checkpoint());
        let bound = tables.len() * ((k as u64).div_ceil(BATCH as u64) as usize + 1);
        let replayed = s.wal_replayed_records();
        assert!(
            replayed <= bound,
            "replayed {replayed} records, bound {bound}"
        );
        for table in tables {
            assert_eq!(count_and_seq_sum(&s, table), exact_prefix(per_table as u64));
            let t = s.store().map().get(table).unwrap();
            assert_eq!(t.blocks().len(), blocks as usize, "{table}: replay sealed");
        }
    }

    /// A seal starts a segment: two tables seal on adjacent batches, as on
    /// `ingest_crash`, and both cycles commit. The crash start then reads
    /// only the records that hold the open blocks' rows — the sealing
    /// batches among them — plus each segment's header and at most one
    /// anchor per segment.
    #[test]
    fn a_seal_starts_a_segment_and_a_crash_start_reads_only_the_open_blocks() {
        use scuba_restart::wal::{WAL_HEADER, WAL_RECORD_HEADER};
        const BATCH: i64 = 1000;
        const BLOCK: i64 = scuba_columnstore::MAX_ROWS_PER_BLOCK as i64;
        let (cfg, dir) = crash_config("cksegseal");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        let tables = ["seg_a", "seg_b"];
        let per_table = BLOCK + 5_500;
        let mut sent = Vec::new();
        for b in 0..2 * (per_table as u64).div_ceil(BATCH as u64) as i64 {
            let t = (b % 2) as usize;
            let first = b / 2 * BATCH;
            let rows = seq_rows(first, BATCH.min(per_table - first));
            s.add_rows(tables[t], &rows, 0).unwrap();
            sent.push((tables[t], first as u64, rows));
        }
        settle_cycles(&mut s);
        assert!(!s.crash.cycle_wanted);
        assert_eq!(listed_segments(&s).len(), 2, "both seals committed");
        s.crash();
        drop(s);

        let (s, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(outcome.is_memory(), "{outcome:?}");
        assert!(s.recovered_from_checkpoint());
        let framed = |payload: Vec<u8>| (WAL_RECORD_HEADER + payload.len()) as u64;
        let sealed_rows = |table: &str| {
            let t = s.store().map().get(table).unwrap();
            assert_eq!(t.blocks().len(), 1, "{table}");
            (t.row_count() - t.unsealed_rows()) as u64
        };
        let open_records: u64 = sent
            .iter()
            .filter(|(table, first, rows)| first + rows.len() as u64 > sealed_rows(table))
            .map(|(table, first, rows)| framed(encode_wal_batch(table, *first, rows)))
            .sum();
        let anchor = framed(encode_sync_anchor(
            &tables.map(|t| (t.to_owned(), u64::MAX, u64::MAX)),
        ));
        let reads = s.crash_reads();
        let bound = open_records + reads.segments as u64 * (WAL_HEADER + anchor);
        assert!(
            reads.wal_bytes <= bound,
            "read {} bytes of WAL, bound {bound}: {reads:?}",
            reads.wal_bytes
        );
        assert_eq!(reads.covered, 0, "{reads:?}");
        assert!(reads.anchors <= reads.segments, "{reads:?}");
        for table in tables {
            assert_eq!(count_and_seq_sum(&s, table), exact_prefix(per_table as u64));
        }
    }

    /// One rotation per seal: two tables seal on adjacent batches, as on
    /// `ingest_crash`, and both cycles commit. The seal starts a segment
    /// and the cycle it asks for rotates no further — an open block pins
    /// the cut — so no segment holds only its anchor, and a crash recovers
    /// exactly the acked rows.
    #[test]
    fn a_seal_rotates_once() {
        const BATCH: i64 = 1000;
        const BLOCK: i64 = scuba_columnstore::MAX_ROWS_PER_BLOCK as i64;
        let (cfg, dir) = crash_config("ckrotonce");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        let tables = ["once_a", "once_b"];
        let per_table = BLOCK + 5_500;
        for b in 0..2 * (per_table as u64).div_ceil(BATCH as u64) as i64 {
            let first = b / 2 * BATCH;
            let rows = seq_rows(first, BATCH.min(per_table - first));
            s.add_rows(tables[(b % 2) as usize], &rows, 0).unwrap();
        }
        settle_cycles(&mut s);
        assert!(!s.crash.cycle_wanted);
        assert_eq!(listed_segments(&s).len(), 2, "both seals committed");
        let wal = s.crash.wal.as_mut().unwrap();
        wal.wait_unlinked().unwrap();
        let mut batches: BTreeMap<u64, usize> = wal.seqs().into_iter().map(|q| (q, 0)).collect();
        for (seq, record) in read_segments(&s.crash.wal_dir).unwrap().records() {
            if let WalRecord::Batch(_) = decode_wal_record(record).unwrap() {
                *batches.get_mut(&seq).expect("a listed segment") += 1;
            }
        }
        assert!(
            batches.values().all(|&n| n > 0),
            "a segment holds only its anchor: batches per segment {batches:?}"
        );
        s.crash();
        drop(s);

        let (s, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(outcome.is_memory(), "{outcome:?}");
        for table in tables {
            assert_eq!(count_and_seq_sum(&s, table), exact_prefix(per_table as u64));
        }
    }

    /// Every rotation anchors the disk logs afresh when it finds their
    /// writers flushed: batches past the 64 KiB writer buffer are written
    /// through, so the last anchor is `(rows, file length)` per table at
    /// the last rotation, and the crash start's reconcile walks only the
    /// bytes appended since. Small batches stay buffered: the rotation
    /// carries the last anchor, and the crash — which loses the buffered
    /// bytes — still recovers exactly the acked rows, in memory and on
    /// disk.
    #[test]
    fn a_rotation_anchors_the_disk_logs_it_finds_flushed() {
        let wide = |first: i64, n: i64| -> Vec<Row> {
            (first..first + n)
                .map(|i| Row::at(i).with("seq", i).with("msg", format!("{i:0>120}")))
                .collect()
        };
        let tables = ["wide_a", "wide_b"];
        let disk_state = |s: &LeafServer| -> Vec<(String, u64, u64)> {
            tables
                .iter()
                .map(|&t| {
                    let rows = s.store().map().get(t).unwrap().row_count() as u64;
                    (t.to_owned(), rows, s.disk.file_len(t).unwrap())
                })
                .collect()
        };
        let last_anchor = |s: &LeafServer| {
            let payload = s.crash.last_anchor.clone().expect("an anchor");
            match decode_wal_record(&payload).unwrap() {
                WalRecord::SyncAnchor(entries) => entries,
                WalRecord::Batch(_) => unreachable!(),
            }
        };
        let (cfg, dir) = crash_config("ckanchor");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        for t in tables {
            s.add_rows(t, &wide(0, 1000), 0).unwrap();
        }
        assert!(s.disk.flushed(), "a batch past the buffer was buffered");
        s.checkpoint_and_wait().unwrap();
        let at_rotation = disk_state(&s);
        assert_eq!(last_anchor(&s), at_rotation);
        for t in tables {
            s.add_rows(t, &wide(1000, 1000), 0).unwrap();
        }
        let appended: u64 = disk_state(&s)
            .iter()
            .zip(&at_rotation)
            .map(|(now, then)| now.2 - then.2)
            .sum();
        s.crash();
        drop(s);

        let (mut s, outcome) = LeafServer::start(cfg.clone(), 0, None).unwrap();
        assert!(outcome.is_memory(), "{outcome:?}");
        let scanned = s
            .crash_reads()
            .reconcile_scanned_bytes
            .expect("a reconcile");
        assert!(
            scanned <= appended,
            "the reconcile walked {scanned} bytes, {appended} appended since the anchor"
        );
        for t in tables {
            assert_eq!(count_and_seq_sum(&s, t), exact_prefix(2000), "{t}");
        }

        let carried = last_anchor(&s);
        s.add_rows(tables[0], &wide(2000, 10), 0).unwrap();
        assert!(!s.disk.flushed());
        s.checkpoint_and_wait().unwrap();
        assert_eq!(last_anchor(&s), carried, "an unflushed rotation anchored");
        s.add_rows(tables[0], &wide(2010, 10), 0).unwrap();
        s.crash();
        drop(s);

        let (s, outcome) = LeafServer::start(cfg.clone(), 0, None).unwrap();
        assert!(outcome.is_memory(), "{outcome:?}");
        assert_eq!(count_and_seq_sum(&s, tables[0]), exact_prefix(2020));
        assert_eq!(count_and_seq_sum(&s, tables[1]), exact_prefix(2000));
        drop(s);
        let backup = DiskBackup::open(&cfg.disk_root).unwrap();
        for (t, rows) in [(tables[0], 2020), (tables[1], 2000)] {
            let (map, _) = backup.recover_tables(&[t.to_owned()], 0, None).unwrap();
            let got = LeafServer::materialize_rows_from(map.get(t).unwrap(), 0).unwrap();
            assert_eq!(got.len(), rows as usize, "{t} on disk");
            assert!(
                got == wide(0, rows),
                "{t}: the disk log is not the acked rows"
            );
        }
    }

    /// The lag cap: a slow table's open block pins the log's first segment
    /// beside a busy table that seals and commits again and again. With
    /// no cap the segment stays; once the log behind the slow block passes
    /// `checkpoint_interval_rows`, the block is sealed, and the next commit
    /// unlinks the segments below the busy table's open block.
    #[test]
    fn the_lag_cap_seals_a_slow_table_and_frees_the_log_behind_it() {
        const CAP: usize = 100_000;
        for cap in [0, CAP] {
            let (mut cfg, dir) = crash_config("cklag");
            cfg.checkpoint_interval_rows = cap;
            let mut s = LeafServer::new(cfg.clone()).unwrap();
            let _c = Cleanup(s.namespace().clone(), dir);
            s.add_rows("slow", &seq_rows(0, 10), 0).unwrap();
            let first = s.crash.wal.as_ref().unwrap().live_seq();
            let mut sealed_at = None;
            // Two busy seals: the second moves the busy block past the
            // slow one's segment.
            for b in 0..140 {
                s.add_rows("busy", &seq_rows(b * 1000, 1000), 0).unwrap();
                let slow = s.store().map().get("slow").unwrap();
                if sealed_at.is_none() && slow.unsealed_rows() == 0 {
                    sealed_at = Some(b);
                }
            }
            settle_cycles(&mut s);
            s.crash.wal.as_mut().unwrap().wait_unlinked().unwrap();
            let kept = s.crash.wal.as_ref().unwrap().seqs();
            if cap == 0 {
                assert_eq!(sealed_at, None);
                assert_eq!(kept[0], first, "the slow block's segment went");
            } else {
                // 10 + 1000 × 100 logged rows first exceed the cap.
                assert_eq!(sealed_at, Some(99));
                assert!(kept[0] > first, "{kept:?} still holds segment {first}");
                let path = scuba_restart::wal::segment_path(&cfg.disk_root.join(WAL_DIR), first);
                assert!(!path.exists(), "{path:?} was not unlinked");
            }
            s.crash();
            drop(s);
            let (s, outcome) = LeafServer::start(cfg, 0, None).unwrap();
            assert!(outcome.is_memory(), "cap {cap}: {outcome:?}");
            assert_eq!(count_and_seq_sum(&s, "slow"), exact_prefix(10));
            assert_eq!(count_and_seq_sum(&s, "busy"), exact_prefix(140_000));
        }
    }

    /// Under continuous ingest of blocks smaller than a seal, the lag cap
    /// (`checkpoint_interval_rows`) bounds the log, not the last quiet
    /// moment: it seals the oldest open block, and each committed cycle
    /// unlinks the segments below its cut, with no `checkpoint_and_wait`.
    #[test]
    fn wal_stays_bounded_under_continuous_ingest() {
        // Replays the log: keep sibling tests' one-shot WAL faults out.
        let _x = scuba_faults::exclusive();
        const INTERVAL: usize = 10_000;
        const BATCH: i64 = 1000;
        let (mut cfg, dir) = crash_config("ckbounded");
        cfg.checkpoint_interval_rows = INTERVAL;
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        let tables = ["bounded_a", "bounded_b"];
        let mut acked = [0u64; 2];
        let mut commits = 0;
        let mut finished = None;
        for b in 0..100 {
            let t = b % 2;
            s.add_rows(tables[t], &seq_rows(acked[t] as i64, BATCH), 0)
                .unwrap();
            acked[t] += BATCH as u64;
            // A busy leaf notices a finished cycle only on a later batch,
            // after more rows have landed behind the cut.
            if let Some(outcome) = finished.take() {
                commits += usize::from(s.crash.apply_outcome(outcome, &mut s.store).is_ok());
            }
            finished = s.crash.checkpointer.as_mut().unwrap().wait_done();
        }
        // The last finished cycle, if any, is never drained: no batch
        // came after it.
        assert!(commits >= 2, "only {commits} auto checkpoints committed");
        let bytes_per_row =
            encode_wal_batch(tables[0], 0, &seq_rows(0, BATCH)).len() as f64 / BATCH as f64;
        let bound = 3.0 * INTERVAL as f64 * bytes_per_row;
        assert!(
            s.wal_bytes() as f64 <= bound,
            "log holds {} bytes after {commits} commits, bound {bound}",
            s.wal_bytes()
        );
        s.crash();
        drop(s);

        let (s2, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(outcome.is_memory(), "{outcome:?}");
        assert!(s2.recovered_from_checkpoint());
        assert!(
            s2.wal_replayed_records() <= 30,
            "replayed {} records",
            s2.wal_replayed_records()
        );
        for (t, table) in tables.iter().enumerate() {
            assert_eq!(count_and_seq_sum(&s2, table), exact_prefix(acked[t]));
        }
    }

    /// The worker committed but the server had not drained the outcome
    /// when the process died: the covered segments are still on disk, and
    /// replay skips their records from the header.
    #[test]
    fn crash_between_commit_and_unlink_skips_covered_records() {
        // Replays the log: keep sibling tests' one-shot WAL faults out.
        let _x = scuba_faults::exclusive();
        let (cfg, dir) = crash_config("ckundrained");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        for b in 0..3 {
            s.add_rows("logs", &seq_rows(b * 100, 100), 0).unwrap();
        }
        commit_without_draining(&mut s);
        for b in 3..5 {
            s.add_rows("logs", &seq_rows(b * 100, 100), 0).unwrap();
        }
        assert_eq!(wal_batches(&cfg), 5, "covered segments were unlinked");
        s.crash();
        drop(s);

        let (s2, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(outcome.is_memory(), "{outcome:?}");
        assert!(s2.recovered_from_checkpoint());
        assert_eq!(s2.wal_replayed_records(), 2);
        assert_eq!(count_and_seq_sum(&s2, "logs"), exact_prefix(500));
    }

    /// A covered segment whose unlink never happened (restored here by
    /// hand) replays idempotently: its records are all skipped.
    #[test]
    fn stale_covered_segment_replays_idempotently() {
        // Replays the log: keep sibling tests' one-shot WAL faults out.
        let _x = scuba_faults::exclusive();
        let (cfg, dir) = crash_config("ckstaleseg");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        for b in 0..3 {
            s.add_rows("logs", &seq_rows(b * 100, 100), 0).unwrap();
        }
        let wal_dir = cfg.disk_root.join(WAL_DIR);
        let covered = s.crash.wal.as_ref().unwrap().seqs();
        let stale: Vec<_> = covered
            .iter()
            .map(|&seq| {
                let path = scuba_restart::wal::segment_path(&wal_dir, seq);
                (path.clone(), std::fs::read(path).unwrap())
            })
            .collect();
        s.checkpoint_and_wait().unwrap();
        s.crash.wal.as_mut().unwrap().wait_unlinked().unwrap();
        for (path, bytes) in &stale {
            assert!(
                !path.exists(),
                "covered segment {path:?} survived the commit"
            );
            std::fs::write(path, bytes).unwrap();
        }
        for b in 3..5 {
            s.add_rows("logs", &seq_rows(b * 100, 100), 0).unwrap();
        }
        assert_eq!(wal_batches(&cfg), 5);
        s.crash();
        drop(s);

        let (s2, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(outcome.is_memory(), "{outcome:?}");
        assert_eq!(s2.wal_replayed_records(), 2);
        assert_eq!(count_and_seq_sum(&s2, "logs"), exact_prefix(500));
    }

    /// Only the live segment is appended to, so a torn record in an
    /// earlier one is damage, not a crash shape: the log no longer covers
    /// the tail and recovery goes to disk.
    #[test]
    fn torn_record_in_an_earlier_segment_recovers_from_disk() {
        // Replays the log: keep sibling tests' one-shot WAL faults out.
        let _x = scuba_faults::exclusive();
        let (cfg, dir) = crash_config("ckgap");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        for b in 0..3 {
            s.add_rows("logs", &seq_rows(b * 100, 100), 0).unwrap();
        }
        let first = s.crash.wal.as_ref().unwrap().seqs()[0];
        commit_without_draining(&mut s);
        s.add_rows("logs", &seq_rows(300, 100), 0).unwrap();
        s.sync_disk().unwrap();
        s.crash();
        drop(s);
        let wal_dir = cfg.disk_root.join(WAL_DIR);
        assert!(scuba_restart::wal::list_segments(&wal_dir).unwrap().len() >= 2);
        tear(&scuba_restart::wal::segment_path(&wal_dir, first), 3);

        let (s2, outcome) = LeafServer::start(cfg.clone(), 0, None).unwrap();
        match &outcome {
            RecoveryOutcome::Disk { reason, .. } => {
                assert!(reason.contains("not the last"), "{reason}");
            }
            other => panic!("expected disk fallback, got {other:?}"),
        }
        assert_eq!(count_and_seq_sum(&s2, "logs"), exact_prefix(400));
        assert_eq!(
            wal_batches(&cfg),
            0,
            "the damaged log survived the fallback"
        );
    }

    /// Tentpole acceptance + the drop-ordering regression (a dying
    /// process must never unlink the live checkpoint image): checkpoint,
    /// ingest a WAL tail, crash — the replacement attaches the warm image
    /// and replays just the tail.
    #[test]
    fn crash_recovers_fast_from_checkpoint_plus_wal_tail() {
        // Replays the log: keep sibling tests' one-shot WAL faults out.
        let _x = scuba_faults::exclusive();
        let (cfg, dir) = crash_config("ckfast");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 400);
        s.sync_disk().unwrap();
        s.checkpoint_and_wait().unwrap();
        s.crash.wal.as_mut().unwrap().wait_unlinked().unwrap();
        assert_eq!(wal_batches(&cfg), 0, "the checkpoint left covered batches");
        assert_eq!(s.crash.wal.as_ref().unwrap().seqs().len(), 1);
        // Post-checkpoint tail: two batches, the second never disk-synced.
        let b1: Vec<Row> = (400..460).map(|i| Row::at(i).with("sev", "tail")).collect();
        s.add_rows("logs", &b1, 0).unwrap();
        s.sync_disk().unwrap();
        let b2: Vec<Row> = (460..500).map(|i| Row::at(i).with("sev", "tail")).collect();
        s.add_rows("logs", &b2, 0).unwrap();
        assert!(s.wal_bytes() > 0);
        s.crash();
        drop(s);

        // Drop-ordering regression: the image must still be linked and
        // valid after the old process died.
        let ns = ShmNamespace::new(&cfg.shm_prefix, cfg.leaf_id).unwrap();
        let meta = LeafMetadata::open(&ns).expect("checkpoint metadata survives the crash");
        let contents = meta.read().unwrap();
        assert!(contents.valid, "crash invalidated the checkpoint image");
        assert!(contents
            .segments
            .iter()
            .all(|e| e.flags & SEG_FLAG_CHECKPOINT != 0));
        drop(meta);

        let (s2, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(outcome.is_memory(), "crash took the disk path: {outcome:?}");
        assert!(s2.recovered_from_checkpoint());
        assert_eq!(s2.wal_replayed_records(), 2);
        assert_eq!(s2.total_rows(), 500, "lost part of the WAL tail");
        if scuba_obs::enabled() {
            let name = scuba_obs::labeled_name(
                "leaf_crash_fast_recoveries_total",
                &[("leaf", s2.obs_key())],
            );
            assert_eq!(scuba_obs::counter_value(&name), Some(1));
        }
    }

    /// A WAL append fault poisons the crash path: ingest keeps working,
    /// the image is torn down, and the next crash recovers from disk with
    /// exact durable fidelity.
    #[test]
    fn wal_append_fault_degrades_crash_to_disk() {
        let _x = scuba_faults::exclusive();
        scuba_faults::clear_all();
        let (cfg, dir) = crash_config("ckpoison");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 100);
        s.sync_disk().unwrap();
        s.checkpoint_and_wait().unwrap();

        // Armed for this thread only, so a leaf ingesting beside this test
        // can neither take the fault nor spend it.
        scuba_faults::configure_here("restart::wal::append", "error@1").unwrap();
        let elsewhere = std::thread::spawn(|| scuba_faults::check("restart::wal::append"));
        assert_eq!(elsewhere.join().unwrap(), None);
        assert_eq!(scuba_faults::hits("restart::wal::append"), 0);
        let rows: Vec<Row> = (100..150).map(Row::at).collect();
        s.add_rows("logs", &rows, 0).unwrap(); // ingest survives the fault
        scuba_faults::clear_all();
        assert!(s.wal_poison_reason().unwrap().contains("append"));
        assert_eq!(s.total_rows(), 150);
        assert!(
            s.checkpoint_and_wait().is_err(),
            "poisoned path kept checkpointing"
        );
        s.crash();
        drop(s);

        let (s2, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(
            !outcome.is_memory(),
            "poisoned image was trusted: {outcome:?}"
        );
        // Disk fidelity is exactly the synced prefix: the crash discarded
        // the buffered tail the way a SIGKILL would.
        assert_eq!(s2.total_rows(), 100);
    }

    /// Steady-state serving with the lag cap sealing small blocks: every
    /// crash recovers everything up to the last WAL record.
    #[test]
    fn auto_checkpoint_and_repeated_crashes() {
        // Replays the log: keep sibling tests' one-shot WAL faults out.
        let _x = scuba_faults::exclusive();
        let (mut cfg, dir) = crash_config("ckauto");
        cfg.checkpoint_interval_rows = 100;
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        for wave in 0..3i64 {
            for batch in 0..5i64 {
                let t0 = wave * 500 + batch * 100;
                let rows: Vec<Row> = (t0..t0 + 100).map(Row::at).collect();
                s.add_rows("logs", &rows, 0).unwrap();
            }
            // Settle the async auto cycle deterministically for the test.
            s.checkpoint_and_wait().unwrap();
            s.crash();
            drop(s);
            let (next, outcome) = LeafServer::start(cfg.clone(), 0, None).unwrap();
            assert!(outcome.is_memory(), "wave {wave}: {outcome:?}");
            assert_eq!(next.total_rows(), (wave as usize + 1) * 500);
            s = next;
        }
        drop(s);
        let ns = ShmNamespace::new(&cfg.shm_prefix, cfg.leaf_id).unwrap();
        ns.unlink_all(16);
    }

    /// Clean shutdown still wins over the crash path: the checkpointer is
    /// stopped, the backup commits a planned image over the segment the
    /// checkpoint committed, and no WAL byte is left behind.
    #[test]
    fn clean_shutdown_supersedes_checkpoint_image() {
        // Replays the log: keep sibling tests' one-shot WAL faults out.
        let _x = scuba_faults::exclusive();
        let (cfg, dir) = crash_config("ckclean");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 250);
        s.checkpoint_and_wait().unwrap();
        let rows: Vec<Row> = (250..300).map(Row::at).collect();
        s.add_rows("logs", &rows, 0).unwrap();
        s.shutdown_to_shm(0).unwrap();
        drop(s);
        let dir = cfg.disk_root.join(WAL_DIR);
        let seqs = scuba_restart::wal::list_segments(&dir).unwrap();
        assert_eq!(seqs.len(), 1, "the clean shutdown left segments: {seqs:?}");
        assert_eq!(
            std::fs::metadata(scuba_restart::wal::segment_path(&dir, seqs[0]))
                .unwrap()
                .len(),
            scuba_restart::wal::WAL_HEADER,
            "WAL not cleared by the clean shutdown"
        );
        let ns = ShmNamespace::new(&cfg.shm_prefix, cfg.leaf_id).unwrap();
        let image = LeafMetadata::open(&ns).unwrap().read().unwrap();
        assert!(image.valid);
        assert_eq!(image.segment_names(), [ns.table_segment_name(0)]);
        assert!(image
            .segments
            .iter()
            .all(|e| e.flags & SEG_FLAG_CHECKPOINT == 0));
        let (s2, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(outcome.is_memory());
        assert!(!s2.recovered_from_checkpoint());
        assert_eq!(s2.total_rows(), 300);
    }

    /// The segments of the committed checkpoint image.
    fn listed_segments(s: &LeafServer) -> Vec<String> {
        let meta = LeafMetadata::open(s.namespace()).unwrap().read().unwrap();
        assert!(meta.valid);
        meta.segment_names()
    }

    /// A crash start copies no block to heap: it keeps the image it
    /// attached. The next checkpoint writes only what is new — the block
    /// sealed since and the open rows it seals, behind the frontier, plus
    /// the manifest patch and END — skips the table that did not change,
    /// and the next crash start attaches the same segments.
    #[test]
    fn a_crash_start_keeps_its_image_and_the_next_checkpoint_extends_it() {
        use scuba_restart::framing::{decode_header_v2, FRAME_HEADER_V2};
        let _x = scuba_faults::exclusive();
        let (cfg, dir) = kept_crash_config("ckkeep");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        for b in 0..3 {
            s.add_rows("logs", &seq_rows(b * 100, 100), 0).unwrap();
            s.store.map_mut().get_mut("logs").unwrap().seal(0).unwrap();
        }
        s.add_rows("quiet", &seq_rows(0, 50), 0).unwrap();
        crash_to_checkpoint(&mut s);
        drop(s);

        let (mut s, outcome) = LeafServer::start(cfg.clone(), 0, None).unwrap();
        let RecoveryOutcome::MemoryAttached(report) = &outcome else {
            panic!("expected attach, got {outcome:?}");
        };
        assert!(report.heap_bytes_copied < 1024, "{report:?}");
        assert_eq!(
            s.store().map().heap_bytes(),
            report.heap_bytes_copied as usize
        );
        let segments = s.store().image_segments();
        assert_eq!(segments.len(), 2);

        s.add_rows("logs", &seq_rows(300, 100), 0).unwrap();
        s.store.map_mut().get_mut("logs").unwrap().seal(0).unwrap();
        s.add_rows("logs", &seq_rows(400, 30), 0).unwrap();
        let stats = s.checkpoint_and_wait().unwrap();
        assert_eq!((stats.skipped, stats.full_rewrites), (1, 0));
        let table = s.store().map().get("logs").unwrap();
        let mut new = Vec::new();
        for block in &table.blocks()[3..] {
            crate::image::write_block(block, &mut new).unwrap();
        }
        let mut manifest = Vec::new();
        crate::image::write_manifest(5, &table.schema_snapshot(), &mut manifest).unwrap();
        // The new frames' payloads, plus the whole patched manifest frame.
        let (mut pos, mut payload) = (0, 0);
        while pos < new.len() {
            let (_, len, _) = decode_header_v2(&new[pos..pos + FRAME_HEADER_V2]);
            pos += FRAME_HEADER_V2 + len as usize;
            payload += len;
        }
        assert_eq!(stats.bytes_written, payload + manifest.len() as u64);
        assert_eq!(s.store().image_segments(), segments);
        assert_eq!(listed_segments(&s), segments);
        s.crash();
        drop(s);

        let (s, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(matches!(outcome, RecoveryOutcome::MemoryAttached(_)));
        assert!(s.recovered_from_checkpoint());
        assert_eq!(s.store().image_segments(), segments);
        assert_eq!(count_and_seq_sum(&s, "logs"), exact_prefix(430));
        assert_eq!(count_and_seq_sum(&s, "quiet"), exact_prefix(50));
    }

    /// A commit lists the segments a crash start attached (extended in
    /// place) and one it wrote whole (a new table); `crash()` right after
    /// it leaves every one linked, and the next start attaches them all.
    #[test]
    fn a_crash_after_a_checkpoint_commit_leaves_every_listed_segment_linked() {
        use scuba_shmem::ShmSegment;
        let _x = scuba_faults::exclusive();
        let (cfg, dir) = kept_crash_config("cklinked");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        s.add_rows("a", &seq_rows(0, 200), 0).unwrap();
        s.add_rows("b", &seq_rows(0, 100), 0).unwrap();
        crash_to_checkpoint(&mut s);
        drop(s);

        let (mut s, _) = LeafServer::start(cfg.clone(), 0, None).unwrap();
        s.add_rows("a", &seq_rows(200, 20), 0).unwrap();
        s.add_rows("c", &seq_rows(0, 10), 0).unwrap();
        s.sync_disk().unwrap();
        s.checkpoint_and_wait().unwrap();
        let listed = listed_segments(&s);
        assert_eq!(listed.len(), 3);
        s.crash();
        for name in &listed {
            assert!(ShmSegment::exists(name), "{name} unlinked by the crash");
        }

        let (s, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(matches!(outcome, RecoveryOutcome::MemoryAttached(_)));
        assert!(s.recovered_from_checkpoint());
        assert_eq!(s.store().image_segments(), listed);
        for (table, rows) in [("a", 220), ("b", 100), ("c", 10)] {
            assert_eq!(count_and_seq_sum(&s, table), exact_prefix(rows), "{table}");
        }
    }

    /// Blocks leave a committed image — by expiry, or by demotion — and
    /// the leaf crashes at once. Expiry invalidates the image before it
    /// punches anything, so the start recovers the rewritten disk log;
    /// demotion defers the punch, so the start attaches the committed image
    /// whole. Either way it recovers exactly the durable rows.
    #[test]
    fn expiry_or_demotion_after_a_commit_then_a_crash_recovers_exactly_the_durable_rows() {
        // Blocks of many pages each: unique strings defeat the dictionary.
        const BLOCK: i64 = 3000;
        let rows = |first: i64| -> Vec<Row> {
            (first..first + BLOCK)
                .map(|i| {
                    let msg = format!("m-{i:06}-{:07}", i * 2654435761 % 9999991);
                    Row::at(i).with("seq", i).with("msg", msg)
                })
                .collect()
        };
        let _x = scuba_faults::exclusive();
        for demote in [false, true] {
            let (mut cfg, dir) = kept_crash_config("ckleave");
            cfg.retention = RetentionLimits {
                max_age_secs: Some(5000),
                max_bytes: None,
            };
            if demote {
                cfg.tiering = crate::config::TieringMode::Sieve;
            }
            let mut s = LeafServer::new(cfg.clone()).unwrap();
            let _c = Cleanup(s.namespace().clone(), dir);
            for b in 0..3 {
                s.add_rows("logs", &rows(b * BLOCK), 0).unwrap();
                s.store.map_mut().get_mut("logs").unwrap().seal(0).unwrap();
            }
            crash_to_checkpoint(&mut s);
            drop(s);

            // A commit of this life lists the attached segment.
            let (mut s, _) = LeafServer::start(cfg.clone(), 0, None).unwrap();
            s.checkpoint_and_wait().unwrap();
            let segment = s.store().image_segments().pop().unwrap();
            let resident = || {
                let seg = scuba_shmem::ShmSegment::open(&segment).unwrap();
                seg.resident_bytes().unwrap()
            };
            let before = resident();
            let want = if demote {
                s.config.memory_budget_bytes = 1;
                s.poll_tiering().unwrap();
                assert!(s.cold_blocks() > 0, "nothing demoted");
                assert_eq!(resident(), before, "a listed block was punched");
                exact_prefix(3 * BLOCK as u64)
            } else {
                // Now 9000: the first block's times are past the limit.
                assert_eq!(s.expire(9000).unwrap(), 1);
                assert!(resident() < before, "the expired block was not punched");
                (2 * BLOCK as u64, (BLOCK..3 * BLOCK).sum::<i64>() as f64)
            };
            s.crash();
            drop(s);

            let (s, outcome) = LeafServer::start(cfg, 9000, None).unwrap();
            assert_eq!(outcome.is_memory(), demote, "{outcome:?}");
            assert_eq!(count_and_seq_sum(&s, "logs"), want, "demote: {demote}");
        }
    }

    /// Seal before clear: expiry clears the log while the open block holds
    /// rows, so it seals them first. The next cycle (here after less than
    /// a block of new ingest, as another table's seal would start it)
    /// commits them, and a crash takes the fast path with every acked row.
    #[test]
    fn rows_open_at_an_expiry_reach_the_next_image() {
        let (mut cfg, dir) = crash_config("ckexpireopen");
        cfg.retention = RetentionLimits {
            max_age_secs: Some(50),
            max_bytes: None,
        };
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        let at = |first: i64, time: i64| -> Vec<Row> {
            (first..first + 50)
                .map(|i| Row::at(time).with("seq", i))
                .collect()
        };
        s.add_rows("logs", &at(0, 0), 0).unwrap();
        s.store.map_mut().get_mut("logs").unwrap().seal(0).unwrap();
        s.add_rows("logs", &at(50, 1000), 0).unwrap(); // open at the expiry
        assert_eq!(s.expire(1040).unwrap(), 1);
        s.add_rows("logs", &at(100, 1000), 1040).unwrap();
        assert!(s.crash.request(&mut s.store, &s.disk));
        s.crash.settle(&mut s.store);
        s.crash();
        drop(s);

        let (s, outcome) = LeafServer::start(cfg, 1040, None).unwrap();
        assert!(outcome.is_memory(), "{outcome:?}");
        assert!(s.recovered_from_checkpoint());
        let want = (100, (50..150).sum::<i64>() as f64);
        assert_eq!(count_and_seq_sum(&s, "logs"), want);
    }

    /// Expiry invalidates the crash path (the image's immutable prefix
    /// changed): a crash right after expire goes to disk, and the next
    /// checkpoint rebuilds a fresh image.
    #[test]
    fn expire_resets_crash_path() {
        // Replays the log: keep sibling tests' one-shot WAL faults out.
        let _x = scuba_faults::exclusive();
        let (mut cfg, dir) = crash_config("ckexpire");
        cfg.retention = RetentionLimits {
            max_age_secs: Some(50),
            max_bytes: None,
        };
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 100); // times 0..99
        s.sync_disk().unwrap();
        s.store.map_mut().get_mut("logs").unwrap().seal(0).unwrap();
        s.checkpoint_and_wait().unwrap();
        assert_eq!(s.expire(200).unwrap(), 1); // drops the sealed block
        s.crash();
        drop(s);
        let (s2, outcome) = LeafServer::start(cfg.clone(), 200, None).unwrap();
        assert!(
            !outcome.is_memory(),
            "stale image served expired rows: {outcome:?}"
        );
        drop(s2);
        let ns = ShmNamespace::new(&cfg.shm_prefix, cfg.leaf_id).unwrap();
        ns.unlink_all(16);
    }
}
