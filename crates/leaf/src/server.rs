//! The leaf server lifecycle: serve → clean shutdown to shared memory →
//! fast restart (or disk recovery).

use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use scuba_columnstore::{Row, RowBlock, Table};
use scuba_diskstore::{rowformat, ColdStore, DiskBackup, RecoveryStats, Throttle};
use scuba_obs::PhaseBreakdown;
use scuba_query::{execute_planned, LeafQueryResult, Query};
use scuba_restart::{
    attach_from_shm, backup_to_shm_with, read_segments, resolve_copy_threads,
    restore_from_shm_with, AttachReport, BackupReport, CopyOptions, LeafBackupState,
    LeafRestoreState, RestoreError, RestoreReport, SegmentedWal, TableBackupState,
    SHM_LAYOUT_VERSION,
};
use scuba_shmem::{LeafMetadata, ShmNamespace};

use crate::checkpoint::{snapshot_tables, CheckpointJob, CheckpointOutcome, CheckpointStats};
use crate::checkpoint::{Checkpointer, SEG_FLAG_CHECKPOINT};
use crate::compat;
use crate::config::{HydrationMode, LeafConfig, RestoreMode, TieringMode, WriterCompat};
use crate::error::{LeafError, LeafResult};
use crate::persist::LeafStore;
use crate::residency::ResidencyManager;

/// WAL segment directory inside `disk_root`. The disk backup only reads
/// `*.rows` files during recovery, so the log can live alongside them.
pub const WAL_DIR: &str = "wal";

/// The single-file log binaries before segmented logs wrote into
/// `disk_root`. A start adopts it as segment 0, so a binary swap across a
/// crash keeps the fast path.
const LEGACY_WAL_FILE: &str = "leaf.wal";

/// Check the failpoint guarding entry into a lifecycle phase. `error`
/// plans surface as [`LeafError::Injected`] (the caller treats the leaf as
/// crashed); `abort` plans kill the process at the phase itself, which is
/// how the chaos tests stand a real death on each [`LeafPhase`].
fn phase_failpoint(site: &'static str) -> LeafResult<()> {
    if scuba_faults::check(site).is_some() {
        return Err(LeafError::Injected { site });
    }
    Ok(())
}

/// WAL payload tag: an ingest batch.
const WAL_TAG_BATCH: u8 = 1;
/// WAL payload tag: a sync-coverage anchor (see [`encode_sync_anchor`]).
const WAL_TAG_SYNC: u8 = 2;

/// The header of one WAL batch record, read without decoding its rows:
/// enough to route the record to its table's replay worker and to skip it
/// when the restored image already covers it.
struct BatchHeader<'a> {
    /// Destination table.
    table: &'a str,
    /// The table's row count immediately *before* the batch was applied —
    /// the idempotence anchor: replay skips the record when the restored
    /// table already covers it, appends when it lines up exactly, and
    /// declares the image inconsistent otherwise.
    start_rows: u64,
    /// Rows in the batch.
    n_rows: u64,
    /// The batch's rowformat records, still encoded.
    rows: &'a [u8],
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

/// Encode a sync-coverage anchor: after a successful full disk sync, each
/// table's durable log provably holds its first `rows` in-memory rows in
/// exactly the first `bytes` file bytes. Crash recovery uses the *last*
/// anchor to bound the disk-coverage reconciliation scan to the file
/// suffix written since. Payload:
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

/// A WAL payload, decoded as far as the main thread needs.
enum WalRecord<'a> {
    /// An ingest batch to replay; its rows are decoded by the worker.
    Batch(BatchHeader<'a>),
    /// A sync-coverage anchor: per-table `(rows, bytes)` disk coverage.
    SyncAnchor(Vec<(String, u64, u64)>),
}

/// Decode a WAL record payload by its leading tag. The outer frame's CRC
/// already matched, so any structural problem here is a logic error worth
/// failing loudly on — the caller answers with a disk fallback, never a
/// partial apply.
fn decode_wal_record(payload: &[u8]) -> Result<WalRecord<'_>, String> {
    match payload.first() {
        Some(&WAL_TAG_BATCH) => read_batch_header(&payload[1..]).map(WalRecord::Batch),
        Some(&WAL_TAG_SYNC) => decode_sync_anchor(&payload[1..]).map(WalRecord::SyncAnchor),
        Some(&tag) => Err(format!("unknown wal record tag {tag}")),
        None => Err("empty wal record".to_owned()),
    }
}

/// Decode a sync-anchor payload (tag already stripped).
fn decode_sync_anchor(payload: &[u8]) -> Result<Vec<(String, u64, u64)>, String> {
    let need = |n: usize, pos: usize| -> Result<(), String> {
        if payload.len() < pos + n {
            return Err(format!(
                "wal anchor truncated at {pos}+{n} of {}",
                payload.len()
            ));
        }
        Ok(())
    };
    need(4, 0)?;
    let n = u32::from_le_bytes(payload[0..4].try_into().unwrap()) as usize;
    let mut pos = 4;
    let mut entries = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        need(2, pos)?;
        let name_len = u16::from_le_bytes(payload[pos..pos + 2].try_into().unwrap()) as usize;
        pos += 2;
        need(name_len + 16, pos)?;
        let name = String::from_utf8(payload[pos..pos + name_len].to_vec())
            .map_err(|e| format!("wal anchor table name: {e}"))?;
        pos += name_len;
        let rows = u64::from_le_bytes(payload[pos..pos + 8].try_into().unwrap());
        let bytes = u64::from_le_bytes(payload[pos + 8..pos + 16].try_into().unwrap());
        pos += 16;
        entries.push((name, rows, bytes));
    }
    if pos != payload.len() {
        return Err("trailing bytes in wal anchor".to_owned());
    }
    Ok(entries)
}

/// Read an ingest-batch header (tag already stripped).
fn read_batch_header(payload: &[u8]) -> Result<BatchHeader<'_>, String> {
    let need = |n: usize, pos: usize| -> Result<(), String> {
        if payload.len() < pos + n {
            return Err(format!(
                "wal record truncated at {pos}+{n} of {}",
                payload.len()
            ));
        }
        Ok(())
    };
    need(2, 0)?;
    let name_len = u16::from_le_bytes(payload[0..2].try_into().unwrap()) as usize;
    need(name_len, 2)?;
    let table = std::str::from_utf8(&payload[2..2 + name_len])
        .map_err(|e| format!("wal record table name: {e}"))?;
    let pos = 2 + name_len;
    need(12, pos)?;
    Ok(BatchHeader {
        table,
        start_rows: u64::from_le_bytes(payload[pos..pos + 8].try_into().unwrap()),
        n_rows: u64::from(u32::from_le_bytes(
            payload[pos + 8..pos + 12].try_into().unwrap(),
        )),
        rows: &payload[pos + 12..],
    })
}

/// Decode a batch's rows.
fn decode_batch_rows(batch: &BatchHeader<'_>) -> Result<Vec<Row>, String> {
    let mut rows = Vec::with_capacity((batch.n_rows as usize).min(1 << 20));
    let mut pos = 0;
    while (rows.len() as u64) < batch.n_rows {
        match rowformat::read_record(batch.rows, &mut pos) {
            rowformat::ReadOutcome::Record(row) => rows.push(row),
            rowformat::ReadOutcome::End => {
                return Err(format!(
                    "wal record short: {} of {} rows",
                    rows.len(),
                    batch.n_rows
                ))
            }
            rowformat::ReadOutcome::Torn(why) => return Err(format!("wal record torn: {why}")),
        }
    }
    Ok(rows)
}

/// What a non-destructive peek at the metadata region found, taken
/// *before* recovery claims (and thereby invalidates) the image.
#[derive(Debug, Default, Clone, Copy)]
struct CheckpointProbe {
    /// Parity of the checkpoint segments the registry points at, if the
    /// image was written by the checkpointer rather than a planned
    /// shutdown. The replacement's checkpointer takes the *other* parity,
    /// so segment views it inherited can never unlink its new image.
    image_parity: Option<u32>,
    /// True when a *valid* checkpoint image is present — i.e. the
    /// upcoming memory recovery, if it succeeds, is a crash-fast
    /// recovery (warm image + WAL tail), not a planned-restart one.
    warm_checkpoint: bool,
}

/// Peek at the metadata region without claiming it.
fn probe_checkpoint_image(ns: &ShmNamespace) -> CheckpointProbe {
    let mut probe = CheckpointProbe::default();
    let Ok(meta) = LeafMetadata::open(ns) else {
        return probe;
    };
    let Ok(contents) = meta.read() else {
        return probe;
    };
    // Checkpoint segment names are `…_k{parity}_{index}`; matching on the
    // index-0 stem covers every index.
    let stem = |parity: u32| {
        let n = ns.checkpoint_segment_name(parity, 0);
        n[..n.len() - 1].to_owned()
    };
    let (stem0, stem1) = (stem(0), stem(1));
    for entry in &contents.segments {
        if entry.flags & SEG_FLAG_CHECKPOINT == 0 {
            continue;
        }
        if entry.name.starts_with(&stem0) {
            probe.image_parity = Some(0);
        } else if entry.name.starts_with(&stem1) {
            probe.image_parity = Some(1);
        }
    }
    probe.warm_checkpoint = contents.valid && probe.image_parity.is_some();
    probe
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
        matches!(
            self,
            LeafPhase::Alive | LeafPhase::DiskRecovery | LeafPhase::Hydrating
        )
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
    /// Shared-memory *attach* succeeded ([`RestoreMode::TwoPhase`]): the
    /// leaf is serving over mapped segments and hydrating in background.
    /// The report's duration is the time to first query, not to full
    /// recovery — drive [`LeafServer::poll_hydration`] /
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

/// One hydrated row block coming back from a worker.
struct HydratedBlock {
    /// Table the block belongs to.
    table: String,
    /// The shm-backed block the worker started from (identity key for
    /// [`scuba_columnstore::Table::apply_block_patch`]).
    old: Arc<RowBlock>,
    /// Heap copy, or the deferred-CRC failure that makes the whole leaf
    /// fall back to disk.
    new: Result<RowBlock, String>,
}

/// Verify every mapped column's deferred RBC checksum — a no-op for
/// columns a query touch already latched — then copy the block to heap:
/// the one way a mapped block (shm or cold) becomes a heap block. Run by
/// the hydration workers and by cold promotion; no store access.
fn hydrate_block(block: &RowBlock) -> Result<RowBlock, String> {
    block.verify_columns().map_err(|e| e.to_string())?;
    Ok(block.to_heap())
}

/// One block awaiting hydration.
type HydrationJob = (String, Arc<RowBlock>);

/// Shared hydration work queue. Jobs sit in one of two lists: `ready`
/// (workers may take them) and `parked` (waiting for a query to touch
/// them — [`HydrationMode::OnAccess`] starts everything here). A query
/// touch promotes a block parked → front of ready, so the scan's working
/// set hydrates first; [`LeafServer::finish_hydration`] releases the
/// rest.
#[derive(Debug)]
struct QueueState {
    ready: std::collections::VecDeque<HydrationJob>,
    parked: Vec<HydrationJob>,
    closed: bool,
}

#[derive(Debug)]
struct HydrationQueue {
    state: std::sync::Mutex<QueueState>,
    cond: std::sync::Condvar,
}

impl HydrationQueue {
    fn new(jobs: Vec<HydrationJob>, mode: HydrationMode) -> HydrationQueue {
        let state = match mode {
            HydrationMode::Eager => QueueState {
                ready: jobs.into(),
                parked: Vec::new(),
                closed: false,
            },
            HydrationMode::OnAccess => QueueState {
                ready: std::collections::VecDeque::new(),
                parked: jobs,
                closed: false,
            },
        };
        HydrationQueue {
            state: std::sync::Mutex::new(state),
            cond: std::sync::Condvar::new(),
        }
    }

    /// Worker side: next ready job. Blocks while jobs are parked; `None`
    /// once the queue is closed or drained (nothing ready *or* parked).
    fn pop(&self) -> Option<HydrationJob> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.closed {
                return None;
            }
            if let Some(job) = st.ready.pop_front() {
                return Some(job);
            }
            if st.parked.is_empty() {
                return None;
            }
            st = self.cond.wait(st).unwrap();
        }
    }

    /// Query side: a scan touched `block` — if it is still parked, move
    /// it to the front of the ready list so it hydrates next.
    fn promote(&self, block: &Arc<RowBlock>) {
        let mut st = self.state.lock().unwrap();
        if let Some(i) = st.parked.iter().position(|(_, b)| Arc::ptr_eq(b, block)) {
            let job = st.parked.swap_remove(i);
            st.ready.push_front(job);
            self.cond.notify_one();
        }
    }

    /// Release every parked job to the workers (finish_hydration).
    fn release_all(&self) {
        let mut st = self.state.lock().unwrap();
        let parked = std::mem::take(&mut st.parked);
        st.ready.extend(parked);
        self.cond.notify_all();
    }

    /// Wake every worker and make further pops return `None` (fallback /
    /// crash teardown — without this, workers blocked on parked jobs
    /// would never join and their mapped segment refs would leak).
    fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.cond.notify_all();
    }

    /// Blocks still waiting for a query to touch them.
    fn parked_len(&self) -> usize {
        self.state.lock().unwrap().parked.len()
    }
}

/// Background worker pool converting mapped blocks to heap after an
/// attach. Results stream back over a channel; the server applies them
/// under its own `&mut` (the workers never touch the store).
#[derive(Debug)]
struct Hydrator {
    /// Result stream from the workers. Mutex-wrapped so the server stays
    /// `Sync` (concurrent readers share `&LeafServer`); only the server's
    /// own `&mut` polls ever take the lock.
    rx: std::sync::Mutex<mpsc::Receiver<HydratedBlock>>,
    workers: Vec<thread::JoinHandle<()>>,
    /// Blocks handed to workers whose results have not been applied yet.
    pending: usize,
    /// When phase two began — the `restart.hydration` span's base.
    started: Instant,
    /// The shared work queue (query touches promote through it).
    queue: Arc<HydrationQueue>,
    /// First in-place CRC failure seen by a query, if any. Queries take
    /// `&self`, so they can only *record* the condemnation here; the next
    /// poll/finish turns it into the disk fallback.
    poison: std::sync::Mutex<Option<String>>,
}

impl Hydrator {
    /// Snapshot every mapped block and fan the copy work out over the
    /// resolved copy-thread count.
    fn spawn(store: &LeafStore, copy_threads: usize, mode: HydrationMode) -> Hydrator {
        let mut jobs: Vec<HydrationJob> = Vec::new();
        for table in store.map().iter() {
            for block in table.mapped_blocks() {
                jobs.push((table.name().to_owned(), block));
            }
        }
        let pending = jobs.len();
        let threads = resolve_copy_threads(copy_threads).min(pending.max(1));
        let queue = Arc::new(HydrationQueue::new(jobs, mode));
        let (tx, rx) = mpsc::channel();
        let workers = (0..threads)
            .map(|_| {
                let tx = tx.clone();
                let queue = Arc::clone(&queue);
                thread::spawn(move || {
                    while let Some((table, old)) = queue.pop() {
                        let new = hydrate_block(&old);
                        if tx.send(HydratedBlock { table, old, new }).is_err() {
                            return; // server gone (crash/fallback); stop
                        }
                    }
                })
            })
            .collect();
        Hydrator {
            rx: std::sync::Mutex::new(rx),
            workers,
            pending,
            started: Instant::now(),
            queue,
            poison: std::sync::Mutex::new(None),
        }
    }

    /// A query is about to scan `blocks`: CRC-verify, in every mapped one,
    /// the columns the query reads (`columns`, [`Query::columns_read`]) —
    /// and only those — then promote the block to the head of the
    /// hydration queue. Each column's verify-once latch makes this
    /// first-touch-only and shares the pass with the workers: whoever
    /// reaches a column first pays, the other side reads the outcome. The
    /// columns the query does not read stay unverified, and unread, until
    /// a worker's whole-block [`hydrate_block`] checks them before the
    /// copy — so every byte is checked once before anyone trusts it, and
    /// a corrupt column nobody queried still condemns the attach there. A
    /// verification failure here poisons the hydrator — the caller fails
    /// the query and the next poll/finish falls back to disk.
    fn touch(&self, blocks: &[Arc<RowBlock>], columns: &[&str]) -> Result<(), String> {
        if let Some(reason) = self.poison.lock().unwrap().clone() {
            return Err(reason);
        }
        for block in blocks {
            // First touch only — read off the latches, so a repeat query
            // takes no lock at all: heap blocks and columns someone already
            // verified (the block hence already promoted, or with a
            // worker) skip.
            if block.columns_verified(columns) {
                continue;
            }
            if let Err(e) = block.verify_columns_for(columns) {
                let reason = format!("query touched corrupt mapped block: {e}");
                *self.poison.lock().unwrap() = Some(reason.clone());
                return Err(reason);
            }
            self.queue.promote(block);
        }
        Ok(())
    }

    /// The poison reason, if a query hit a corrupt mapped block.
    fn poison_reason(&self) -> Option<String> {
        self.poison.lock().unwrap().clone()
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

/// One Scuba leaf server.
#[derive(Debug)]
pub struct LeafServer {
    config: LeafConfig,
    store: LeafStore,
    disk: DiskBackup,
    ns: ShmNamespace,
    phase: LeafPhase,
    /// `{shm_prefix}:{leaf_id}` — the `leaf` label on this server's
    /// metric series, unique per leaf within the process.
    obs_key: String,
    /// Background hydration pool, present only while `Hydrating`.
    hydrator: Option<Hydrator>,
    /// The `now` the leaf started with; stamps blocks if hydration has to
    /// fall back to disk recovery.
    hydrate_now: i64,
    /// Why hydration fell back to disk, if it did.
    hydration_fallback: Option<String>,
    /// Units the last memory recovery skipped as format-incompatible and
    /// recovered from disk instead (per-table fallback).
    skipped_units: Vec<String>,
    /// Per-leaf write-ahead log covering post-checkpoint ingest. Present
    /// iff `config.checkpoint_enabled` and the log is healthy; a write
    /// error *poisons* it (set to `None`, checkpointer torn down) so a
    /// crash degrades to the disk path rather than replaying a log with
    /// holes. Ingest never fails because of the WAL.
    wal: Option<SegmentedWal>,
    /// Payload of the last sync-coverage anchor written to the WAL. Every
    /// rotation re-appends it as the new segment's first record, so the
    /// reconcile scan stays bounded after the segment that first held it
    /// is unlinked.
    last_sync_anchor: Option<Vec<u8>>,
    /// Background checkpoint worker, present iff `checkpoint_enabled`
    /// and the crash path is healthy.
    checkpointer: Option<Checkpointer>,
    /// Sealed blocks covered by the last committed checkpoint (feeds the
    /// `leaf_checkpoint_lag_blocks` gauge).
    committed_sealed: usize,
    /// Rows ingested since the last checkpoint request (auto-trigger).
    rows_since_checkpoint: usize,
    /// Whether a checkpoint request is in flight on the worker.
    checkpoint_inflight: bool,
    /// WAL records applied by the last recovery's replay.
    wal_replayed_records: usize,
    /// True when the last recovery came back through a *checkpoint*
    /// image (crash-fast path) rather than a planned-shutdown backup.
    recovered_from_checkpoint: bool,
    /// Why the WAL was poisoned, if it was.
    wal_poison_reason: Option<String>,
    /// The disk fast-format cold tier (`<disk_root>/cold`): one
    /// append-only file per table holding demoted block images, served by
    /// mmap.
    cold: ColdStore,
    /// SIEVE residency manager driving demotion and promotion under
    /// `memory_budget_bytes`. Idle unless `tiering == Sieve`.
    residency: ResidencyManager,
    /// Optional pacing for cold-tier demotion writes (the §4.4 lesson:
    /// never let a background copy starve the serving path).
    cold_throttle: Option<Throttle>,
    /// The most recent ingest `now`, stamping blocks rebuilt by a
    /// residency-fault per-table disk fallback.
    tier_now: i64,
}

impl LeafServer {
    /// Create an empty leaf (first boot; no recovery attempted).
    pub fn new(config: LeafConfig) -> LeafResult<LeafServer> {
        let mut server = LeafServer::new_core(config)?;
        if server.config.checkpoint_enabled {
            // Probe the parity first: a dying predecessor may still hold
            // unlink-on-last-drop views over its image's parity, so the
            // new checkpointer must take the other one.
            let probe = probe_checkpoint_image(&server.ns);
            let parity = probe.image_parity.map_or(0, |p| 1 - p);
            // First boot abandons any predecessor state. Sweep a dead
            // predecessor's image now — leaving a *valid* stale image
            // linked means a crash before our first checkpoint cycle
            // would let the next start() resurrect the abandoned life's
            // data over an empty WAL.
            server.ns.unlink_all(crate::checkpoint::STALE_SWEEP);
            server.open_crash_path(parity, true);
        }
        Ok(server)
    }

    /// Build the server shell without starting the crash path — the
    /// recovery path must read the WAL and probe the old image *before*
    /// the writer truncates torn tails or the checkpointer picks a parity.
    fn new_core(config: LeafConfig) -> LeafResult<LeafServer> {
        let disk = DiskBackup::open(&config.disk_root)?;
        let cold = ColdStore::open(config.disk_root.join("cold"))?;
        let ns = ShmNamespace::new(&config.shm_prefix, config.leaf_id)?;
        let obs_key = format!("{}:{}", config.shm_prefix, config.leaf_id);
        let mut server = LeafServer {
            config,
            store: LeafStore::new(),
            disk,
            ns,
            phase: LeafPhase::Alive,
            obs_key,
            hydrator: None,
            hydrate_now: 0,
            hydration_fallback: None,
            skipped_units: Vec::new(),
            wal: None,
            last_sync_anchor: None,
            checkpointer: None,
            committed_sealed: 0,
            rows_since_checkpoint: 0,
            checkpoint_inflight: false,
            wal_replayed_records: 0,
            recovered_from_checkpoint: false,
            wal_poison_reason: None,
            cold,
            residency: ResidencyManager::new(),
            cold_throttle: None,
            tier_now: 0,
        };
        if scuba_obs::enabled() {
            // Pre-register the tiering counters at zero so dashboards and
            // the obs lint see the full series set even before the first
            // demotion.
            let labels = [("leaf", server.obs_key.as_str())];
            scuba_obs::labeled_counter("leaf_demotions_total", &labels).add(0);
            scuba_obs::labeled_counter("leaf_promotions_total", &labels).add(0);
            scuba_obs::labeled_counter("leaf_residency_faults_total", &labels).add(0);
        }
        server.set_phase(LeafPhase::Alive);
        Ok(server)
    }

    /// Start the crash path: spawn the checkpoint worker on `parity` and
    /// open the WAL (clearing it when the log predates the state we now
    /// hold, e.g. after a disk recovery). Any WAL problem poisons the path
    /// instead of failing the server.
    fn open_crash_path(&mut self, parity: u32, clear_wal: bool) {
        debug_assert!(self.config.checkpoint_enabled);
        self.checkpointer = Some(Checkpointer::spawn(self.ns.clone(), parity));
        let opened = self
            .adopt_legacy_wal()
            .and_then(|()| SegmentedWal::open(self.wal_dir()));
        match opened {
            Ok(wal) => {
                self.wal = Some(wal);
                if clear_wal {
                    self.clear_wal();
                }
                self.publish_checkpoint_gauges();
            }
            Err(e) => self.poison_wal(format!("open: {e}")),
        }
    }

    fn wal_dir(&self) -> std::path::PathBuf {
        self.config.disk_root.join(WAL_DIR)
    }

    /// Move a previous binary's single-file log into the segment directory
    /// as segment 0 (no-op when there is none).
    fn adopt_legacy_wal(&self) -> Result<(), scuba_restart::WalError> {
        let legacy = self.config.disk_root.join(LEGACY_WAL_FILE);
        scuba_restart::wal::adopt_single_file(&self.wal_dir(), &legacy)
    }

    /// Drop every WAL record: the image (or the disk state a recovery just
    /// rebuilt) holds them all. The carried sync anchor goes too — the
    /// disk log it describes may have been rewritten.
    fn clear_wal(&mut self) {
        self.last_sync_anchor = None;
        if let Some(wal) = self.wal.as_mut() {
            if let Err(e) = wal.clear() {
                self.poison_wal(format!("clear: {e}"));
            }
        }
    }

    /// A WAL write failed: the log can no longer promise to cover every
    /// post-checkpoint batch, so a warm image + this log would silently
    /// drop rows. Drop the log *and* the checkpoint image — the next
    /// crash recovers from disk with exact durable fidelity.
    fn poison_wal(&mut self, reason: String) {
        self.wal = None;
        self.last_sync_anchor = None;
        if let Some(ck) = self.checkpointer.take() {
            ck.teardown();
        }
        self.checkpoint_inflight = false;
        scuba_obs::counter!("leaf_wal_poisoned_total").inc();
        if scuba_obs::enabled() {
            let labels = [("leaf", self.obs_key.as_str())];
            scuba_obs::labeled_gauge("leaf_wal_bytes", &labels).set(0);
            scuba_obs::labeled_counter("leaf_wal_poisoned", &labels).inc();
        }
        self.wal_poison_reason = Some(reason);
    }

    /// Record a phase edge: the admission-controlling field plus the
    /// per-leaf `leaf_phase` / `leaf_accepting_queries` gauges the
    /// dashboard feed reads. Every phase assignment goes through here.
    fn set_phase(&mut self, phase: LeafPhase) {
        self.phase = phase;
        if scuba_obs::enabled() {
            let labels = [("leaf", self.obs_key.as_str())];
            scuba_obs::labeled_gauge("leaf_phase", &labels).set(i64::from(phase.index()));
            scuba_obs::labeled_gauge("leaf_accepting_queries", &labels)
                .set(i64::from(phase.accepts_queries()));
        }
        self.publish_memory_gauges();
    }

    /// Publish the heap/shm/cold split (satellite of §4.4 accounting: a
    /// byte is heap-resident, shm-resident, or disk-cold — never counted
    /// twice).
    fn publish_memory_gauges(&self) {
        if scuba_obs::enabled() {
            let labels = [("leaf", self.obs_key.as_str())];
            scuba_obs::labeled_gauge("leaf_heap_bytes", &labels).set(self.memory_used() as i64);
            scuba_obs::labeled_gauge("leaf_shm_bytes", &labels).set(self.shm_resident() as i64);
            scuba_obs::labeled_gauge("leaf_cold_bytes", &labels)
                .set(self.store.map().cold_bytes() as i64);
            scuba_obs::labeled_gauge("leaf_cold_blocks", &labels)
                .set(self.store.map().cold_blocks() as i64);
            scuba_obs::labeled_gauge("leaf_hydration_pending_blocks", &labels)
                .set(self.hydrator.as_ref().map_or(0, |h| h.pending) as i64);
            scuba_obs::labeled_gauge("leaf_hydration_on_access_blocks", &labels)
                .set(self.hydrator.as_ref().map_or(0, |h| h.queue.parked_len()) as i64);
        }
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
    /// active trace id. These are explicit-duration records taken from
    /// the restart reports, so the telemetry table stores exactly the
    /// numbers the Figure-5 breakdown prints.
    fn emit_restart_span(&self, name: &'static str, op: &str, phase: &str, duration: Duration) {
        scuba_obs::emit_span(scuba_obs::SpanRecord {
            name,
            attrs: vec![
                ("leaf", self.obs_key.clone()),
                ("op", op.to_owned()),
                ("phase", phase.to_owned()),
            ],
            duration,
            bytes: 0,
            outcome: "ok",
            trace_id: self.span_trace_id(),
        });
    }

    /// Emit the restore side of the `restart.phase` timeline: one span
    /// per Figure-5 phase after a full restore, a single `attach` span
    /// after a two-phase attach, or `read`/`translate` spans for the
    /// disk path. Their per-leaf sum reproduces the `RestartReport`
    /// restore total (±5% — the trace-reconstruction acceptance check).
    fn emit_restore_spans(&self, outcome: &RecoveryOutcome) {
        if !scuba_obs::enabled() {
            return;
        }
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
        let started = std::time::Instant::now();
        match LeafServer::start_inner(config, now, disk_throttle) {
            Ok((server, outcome)) => {
                if scuba_obs::enabled() {
                    scuba_obs::counter!("restarts_completed").inc();
                    let labels = [("leaf", server.obs_key.as_str())];
                    scuba_obs::labeled_counter("leaf_recoveries_total", &labels).inc();
                    // Time to first query: the leaf accepts requests the
                    // moment start() returns — under TwoPhase that is
                    // attach cost, not full-restore cost.
                    scuba_obs::labeled_gauge("leaf_time_to_first_query_ns", &labels)
                        .set(started.elapsed().as_nanos().min(i64::MAX as u128) as i64);
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

    fn start_inner(
        config: LeafConfig,
        now: i64,
        disk_throttle: Option<&Throttle>,
    ) -> LeafResult<(LeafServer, RecoveryOutcome)> {
        let mut server = LeafServer::new_core(config)?;
        let mut state = LeafRestoreState::Init;
        // Peek before recovery claims the image: was it written by the
        // checkpointer (crash path), and on which parity? The new
        // checkpointer takes the other parity either way.
        let probe = if server.config.checkpoint_enabled {
            probe_checkpoint_image(&server.ns)
        } else {
            CheckpointProbe::default()
        };
        let ck_parity = probe.image_parity.map_or(0, |p| 1 - p);

        if server.config.shm_recovery_enabled {
            state = state.transition(LeafRestoreState::MemoryRecovery)?;
            server.set_phase(LeafPhase::MemoryRecovery);
            phase_failpoint("leaf::phase::memory_recovery")?;
            let attempt = match server.config.restore_mode {
                RestoreMode::Full => restore_from_shm_with(
                    &mut server.store,
                    &server.ns,
                    SHM_LAYOUT_VERSION,
                    CopyOptions::with_threads(server.config.copy_threads),
                )
                .map(RecoveryOutcome::Memory),
                RestoreMode::TwoPhase => {
                    attach_from_shm(&mut server.store, &server.ns, SHM_LAYOUT_VERSION)
                        .map(RecoveryOutcome::MemoryAttached)
                }
            };
            match attempt {
                Ok(outcome) => {
                    // Per-table fallback: units the protocol skipped as
                    // format-incompatible come back from disk — only
                    // those; every other table already restored from
                    // memory. (The paper's §4.3 conservatism is per-leaf;
                    // the self-describing layout narrows it per-table.)
                    let skipped = match &outcome {
                        RecoveryOutcome::Memory(r) => r.skipped.clone(),
                        RecoveryOutcome::MemoryAttached(r) => r.skipped.clone(),
                        RecoveryOutcome::Disk { .. } => Vec::new(),
                    };
                    if !skipped.is_empty() {
                        let (mut map, _stats) =
                            server.disk.recover_tables(&skipped, now, disk_throttle)?;
                        for (_, table) in map.take_tables() {
                            server.store.map_mut().insert(table);
                        }
                        scuba_obs::counter!("leaf_tables_disk_recovered").add(skipped.len() as u64);
                        // The disk log rebuilt these tables fully hot; any
                        // cold file left behind (missing frames, stale
                        // coldrefs) is now an orphan — drop it.
                        for name in &skipped {
                            let _ = server.cold.remove_table(name);
                        }
                        server.skipped_units = skipped;
                    }
                    // Crash path: the image is a consistent *prefix* of
                    // what the dead process held — replay the WAL tail on
                    // top of it, in parallel across tables, then make the
                    // disk backup cover every row now in memory *before*
                    // anything can unlink WAL segments (a crash discards the
                    // backup's buffered tail; without reconciliation those
                    // rows would live only in memory + volatile shm, and a
                    // later disk-path recovery would silently lose them).
                    // Any gap, unreadable log, or disk/memory mismatch
                    // condemns the whole memory recovery (§4.3
                    // conservatism) and the leaf rebuilds from disk.
                    if server.config.checkpoint_enabled {
                        let crash_sync = server.replay_wal_tail(now).and_then(|hints| {
                            // Reconcile on any crash-shaped recovery: a
                            // warm checkpoint image, or replayed records
                            // (which can exist even when the image probe
                            // failed). A planned restore has neither —
                            // shutdown already synced everything.
                            if probe.warm_checkpoint || server.wal_replayed_records > 0 {
                                server.reconcile_disk_coverage(&hints)
                            } else {
                                Ok(())
                            }
                        });
                        if let Err(reason) = crash_sync {
                            state = state.transition(LeafRestoreState::DiskRecovery)?;
                            server.store = LeafStore::new();
                            let outcome = server.disk_recover(now, disk_throttle, reason)?;
                            state = state.transition(LeafRestoreState::Alive)?;
                            debug_assert_eq!(state, LeafRestoreState::Alive);
                            server.open_crash_path(ck_parity, true);
                            return Ok((server, outcome));
                        }
                        if probe.warm_checkpoint {
                            server.recovered_from_checkpoint = true;
                            if scuba_obs::enabled() {
                                let labels = [("leaf", server.obs_key.as_str())];
                                scuba_obs::labeled_counter(
                                    "leaf_crash_fast_recoveries_total",
                                    &labels,
                                )
                                .inc();
                            }
                        }
                        // The replayed rows are in memory and still in the
                        // log's segments; the first checkpoint of this life
                        // rotates past them at its snapshot and unlinks them
                        // when it commits. Replay is idempotent, so keeping
                        // them until then is safe.
                        server.open_crash_path(ck_parity, false);
                    }
                    state = state.transition(LeafRestoreState::Alive)?;
                    debug_assert_eq!(state, LeafRestoreState::Alive);
                    if matches!(outcome, RecoveryOutcome::MemoryAttached(_)) {
                        server.hydrate_now = now;
                        if server.store.map().mapped_bytes() > 0 {
                            // Phase two starts now, in background; the
                            // leaf serves over the mapped segments.
                            server.set_phase(LeafPhase::Hydrating);
                            phase_failpoint("leaf::phase::hydrating")?;
                            server.hydrator = Some(Hydrator::spawn(
                                &server.store,
                                server.config.copy_threads,
                                server.config.hydration,
                            ));
                            server.publish_memory_gauges();
                            return Ok((server, outcome));
                        }
                    }
                    server.set_phase(LeafPhase::Alive);
                    return Ok((server, outcome));
                }
                Err(RestoreError::Fallback(fb)) => {
                    // Figure 5(b) "exception" edge: clear any partial
                    // restore and recover from disk.
                    state = state.transition(LeafRestoreState::DiskRecovery)?;
                    server.store = LeafStore::new();
                    let outcome = server.disk_recover(now, disk_throttle, fb.reason)?;
                    state = state.transition(LeafRestoreState::Alive)?;
                    debug_assert_eq!(state, LeafRestoreState::Alive);
                    if server.config.checkpoint_enabled {
                        server.open_crash_path(ck_parity, true);
                    }
                    return Ok((server, outcome));
                }
            }
        }
        // Memory recovery disabled.
        state = state.transition(LeafRestoreState::DiskRecovery)?;
        let outcome =
            server.disk_recover(now, disk_throttle, "memory recovery disabled".to_owned())?;
        state = state.transition(LeafRestoreState::Alive)?;
        debug_assert_eq!(state, LeafRestoreState::Alive);
        if server.config.checkpoint_enabled {
            server.open_crash_path(ck_parity, true);
        }
        Ok((server, outcome))
    }

    fn disk_recover(
        &mut self,
        now: i64,
        throttle: Option<&Throttle>,
        reason: String,
    ) -> LeafResult<RecoveryOutcome> {
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

    /// Decode a table's in-memory rows from index `from` onward, in
    /// ingest order (sealed blocks oldest-first, then the unsealed
    /// builder) — exactly the disk log's append order. Mapped
    /// (shm-backed) blocks are checksum-verified before decoding: bytes
    /// that never passed the deferred CRC must not be persisted.
    fn materialize_rows_from(table: &Table, from: usize) -> Result<Vec<Row>, String> {
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
        hints: &std::collections::BTreeMap<String, (u64, u64)>,
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
        if scuba_obs::enabled() {
            let labels = [("leaf", self.obs_key.as_str())];
            scuba_obs::labeled_counter("leaf_crash_reconciled_rows_total", &labels).add(reappended);
            scuba_obs::labeled_gauge("leaf_crash_reconcile_scanned_bytes", &labels)
                .set(scanned.min(i64::MAX as u64) as i64);
            scuba_obs::labeled_gauge("leaf_crash_reconcile_ns", &labels)
                .set(started.elapsed().as_nanos().min(i64::MAX as u128) as i64);
        }
        Ok(())
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

    /// Replay the WAL tail onto the freshly memory-recovered store. The
    /// main thread reads only each record's header, grouping the still
    /// encoded batches by table; decode and apply run per table on the
    /// copy-thread pool (the same parallelism knob as the restore copy
    /// itself). A table the WAL created after the last checkpoint starts
    /// empty. A torn tail in the last segment is fine — replay stops at
    /// the last intact record, which is exactly the durable prefix. An
    /// unreadable log, a torn earlier segment, or an image/log mismatch is
    /// an `Err`, answered by the caller with a full disk fallback.
    ///
    /// Returns the *last* sync anchor's per-table `(rows, bytes)` disk
    /// coverage (empty if the log holds none) — the scan hints for
    /// [`Self::reconcile_disk_coverage`].
    fn replay_wal_tail(
        &mut self,
        now: i64,
    ) -> Result<std::collections::BTreeMap<String, (u64, u64)>, String> {
        let started = Instant::now();
        let contents = self
            .adopt_legacy_wal()
            .and_then(|()| read_segments(&self.wal_dir()))
            .map_err(|e| format!("wal unreadable: {e}"))?;
        if contents.torn() {
            scuba_obs::counter!("leaf_wal_torn_tails_total").inc();
        }
        self.wal_replayed_records = 0;
        let mut hints = std::collections::BTreeMap::new();
        let mut groups: std::collections::BTreeMap<&str, Vec<BatchHeader<'_>>> =
            std::collections::BTreeMap::new();
        for record in contents.records() {
            match decode_wal_record(record)? {
                WalRecord::Batch(batch) => groups.entry(batch.table).or_default().push(batch),
                WalRecord::SyncAnchor(entries) => {
                    // Later anchors supersede earlier ones entirely.
                    hints = entries
                        .into_iter()
                        .map(|(name, rows, bytes)| (name, (rows, bytes)))
                        .collect();
                    self.last_sync_anchor = Some(record.to_vec());
                }
            }
        }
        if groups.is_empty() {
            return Ok(hints);
        }
        let mut tables = self.store.map_mut().take_tables();
        let jobs: Vec<(Table, Vec<BatchHeader<'_>>)> = groups
            .into_iter()
            .map(|(name, batches)| {
                let table = tables.remove(name).unwrap_or_else(|| Table::new(name, now));
                (table, batches)
            })
            .collect();
        let threads = resolve_copy_threads(self.config.copy_threads).min(jobs.len());
        let mut buckets: Vec<Vec<(Table, Vec<BatchHeader<'_>>)>> =
            (0..threads).map(|_| Vec::new()).collect();
        for (i, job) in jobs.into_iter().enumerate() {
            buckets[i % threads].push(job);
        }
        let results: Vec<Result<(Vec<Table>, usize), String>> = thread::scope(|scope| {
            let handles: Vec<_> = buckets
                .into_iter()
                .map(|bucket| {
                    scope.spawn(move || {
                        let mut done = Vec::with_capacity(bucket.len());
                        let mut applied = 0;
                        for (mut table, batches) in bucket {
                            applied += Self::apply_wal_batches(&mut table, &batches, now)?;
                            done.push(table);
                        }
                        Ok((done, applied))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("replay worker panicked".into()))
                })
                .collect()
        });
        let mut applied = 0;
        for result in results {
            let (done, n) = result?;
            applied += n;
            for table in done {
                tables.insert(table.name().to_owned(), table);
            }
        }
        for (_, table) in tables {
            self.store.map_mut().insert(table);
        }
        self.wal_replayed_records = applied;
        scuba_obs::counter!("leaf_wal_replayed_records_total").add(applied as u64);
        if scuba_obs::enabled() {
            let labels = [("leaf", self.obs_key.as_str())];
            scuba_obs::labeled_gauge("leaf_wal_replay_ns", &labels)
                .set(started.elapsed().as_nanos().min(i64::MAX as u128) as i64);
            self.emit_restart_span(
                "restart.wal_replay",
                "restore",
                "wal_replay",
                started.elapsed(),
            );
        }
        Ok(hints)
    }

    /// Publish the crash-path gauges: how far the image trails the store
    /// (sealed blocks not yet checkpointed) and how much WAL tail a crash
    /// would have to replay.
    fn publish_checkpoint_gauges(&self) {
        if !scuba_obs::enabled() || !self.config.checkpoint_enabled {
            return;
        }
        let labels = [("leaf", self.obs_key.as_str())];
        let sealed_now: usize = self.store.map().iter().map(|t| t.blocks().len()).sum();
        scuba_obs::labeled_gauge("leaf_checkpoint_lag_blocks", &labels)
            .set(sealed_now.saturating_sub(self.committed_sealed) as i64);
        scuba_obs::labeled_gauge("leaf_wal_bytes", &labels).set(self.wal_bytes() as i64);
    }

    /// Snapshot the store, cut the WAL at the same instant, and hand the
    /// worker a checkpoint job. False if the crash path is down (disabled
    /// or poisoned) or the worker died.
    fn request_checkpoint(&mut self) -> bool {
        if self.wal.is_none() || self.checkpointer.is_none() {
            return false; // poisoned: a log with holes must not pair with an image
        }
        let Ok(tables) = snapshot_tables(&self.store) else {
            return false;
        };
        let Some(covered_seq) = self.rotate_wal() else {
            return false;
        };
        let ok = self.checkpointer.as_ref().is_some_and(|ck| {
            ck.request(CheckpointJob {
                tables,
                covered_seq,
            })
        });
        if ok {
            self.checkpoint_inflight = true;
            self.rows_since_checkpoint = 0;
        }
        ok
    }

    /// Start a new WAL segment, carrying the last sync anchor into it, and
    /// return its seq. Runs on the ingest thread, so no batch can land
    /// between the snapshot just taken and the cut. A failure poisons the
    /// crash path.
    fn rotate_wal(&mut self) -> Option<u64> {
        let wal = self.wal.as_mut()?;
        let rotated = wal.rotate().and_then(|seq| {
            if let Some(anchor) = &self.last_sync_anchor {
                wal.append(anchor)?;
            }
            Ok(seq)
        });
        match rotated {
            Ok(seq) => Some(seq),
            Err(e) => {
                self.poison_wal(format!("rotate: {e}"));
                None
            }
        }
    }

    /// Fold one completed cycle into the server: remember coverage for
    /// the lag gauge and unlink the WAL segments the image now covers.
    fn apply_checkpoint_outcome(
        &mut self,
        outcome: CheckpointOutcome,
    ) -> Result<CheckpointStats, String> {
        self.checkpoint_inflight = false;
        match outcome.result {
            Ok(stats) => {
                self.committed_sealed = stats.sealed_blocks;
                if let Some(wal) = self.wal.as_mut() {
                    if let Err(e) = wal.drop_below(outcome.covered_seq) {
                        self.poison_wal(format!("unlink covered segments: {e}"));
                    }
                }
                self.publish_checkpoint_gauges();
                Ok(stats)
            }
            Err(reason) => {
                // The worker already invalidated the image and will
                // rebuild from scratch next cycle; until then a crash
                // falls back to disk. The segments stay: a later commit
                // covers them.
                self.publish_checkpoint_gauges();
                Err(reason)
            }
        }
    }

    /// Apply any checkpoint completions without blocking.
    fn drain_checkpoint_outcomes(&mut self) {
        while let Some(outcome) = self.checkpointer.as_ref().and_then(|ck| ck.try_done()) {
            let _ = self.apply_checkpoint_outcome(outcome);
        }
    }

    /// Auto-trigger: apply a finished cycle on the first batch after it
    /// lands (unlinking its covered segments then, not an interval later),
    /// and request a checkpoint when enough rows landed since the last one
    /// and the worker is idle.
    fn maybe_auto_checkpoint(&mut self) {
        if self.checkpoint_inflight {
            self.drain_checkpoint_outcomes();
        }
        let interval = self.config.checkpoint_interval_rows;
        if interval == 0 || self.rows_since_checkpoint < interval {
            return;
        }
        if self.checkpoint_inflight {
            return; // still copying the previous snapshot; try after
        }
        self.request_checkpoint();
    }

    /// Take a checkpoint now and wait for it to commit. The synchronous
    /// variant the chaos harness and tests drive; production leaves it to
    /// `checkpoint_interval_rows`.
    pub fn checkpoint_and_wait(&mut self) -> LeafResult<CheckpointStats> {
        if !self.phase.accepts_adds() {
            return Err(LeafError::Unavailable {
                operation: "checkpoint",
                phase: self.phase.name(),
            });
        }
        // Settle any in-flight auto cycle first so ours is next.
        if self.checkpoint_inflight {
            if let Some(outcome) = self.checkpointer.as_ref().and_then(|ck| ck.wait_done()) {
                let _ = self.apply_checkpoint_outcome(outcome);
            } else {
                self.checkpoint_inflight = false;
            }
        }
        if !self.request_checkpoint() {
            return Err(LeafError::Unavailable {
                operation: "checkpoint (crash path disabled or poisoned)",
                phase: self.phase.name(),
            });
        }
        let outcome = self
            .checkpointer
            .as_ref()
            .and_then(|ck| ck.wait_done())
            .ok_or(LeafError::Unavailable {
                operation: "checkpoint (worker died)",
                phase: self.phase.name(),
            })?;
        self.apply_checkpoint_outcome(outcome)
            .map_err(LeafError::Backup)
    }

    /// The store is about to change (or just changed) in a way the
    /// incremental writer cannot track — disk fallback mid-life, expiry.
    /// Tear the image down (same parity respawn) and drop the stale WAL;
    /// the next cycle rebuilds from scratch, and until then a crash goes
    /// to disk.
    fn reset_crash_path(&mut self) {
        if !self.config.checkpoint_enabled {
            return;
        }
        if let Some(ck) = self.checkpointer.take() {
            let parity = ck.parity();
            ck.teardown();
            self.checkpointer = Some(Checkpointer::spawn(self.ns.clone(), parity));
        }
        self.checkpoint_inflight = false;
        self.committed_sealed = 0;
        self.clear_wal();
        self.publish_checkpoint_gauges();
    }

    /// WAL records applied by the last recovery's replay.
    pub fn wal_replayed_records(&self) -> usize {
        self.wal_replayed_records
    }

    /// True when the last recovery came back through a checkpoint image
    /// (the crash-fast path) rather than a planned-shutdown backup.
    pub fn recovered_from_checkpoint(&self) -> bool {
        self.recovered_from_checkpoint
    }

    /// Record bytes currently in the WAL's segments, excluding their file
    /// headers (0 when the crash path is off or poisoned).
    pub fn wal_bytes(&self) -> u64 {
        self.wal.as_ref().map_or(0, |w| {
            let headers = w.seqs().len() as u64 * scuba_restart::wal::WAL_HEADER;
            w.len_bytes().saturating_sub(headers)
        })
    }

    /// Why the WAL was poisoned, if it was.
    pub fn wal_poison_reason(&self) -> Option<&str> {
        self.wal_poison_reason.as_deref()
    }

    /// True while background hydration is still converting mapped blocks
    /// to heap.
    pub fn is_hydrating(&self) -> bool {
        self.hydrator.is_some()
    }

    /// Blocks handed to hydration workers whose results have not been
    /// applied yet.
    pub fn hydration_pending(&self) -> usize {
        self.hydrator.as_ref().map_or(0, |h| h.pending)
    }

    /// Why hydration fell back to disk recovery, if it did.
    pub fn hydration_fallback_reason(&self) -> Option<&str> {
        self.hydration_fallback.as_deref()
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

    /// Apply any hydrated blocks the workers have finished, without
    /// blocking. Returns the number of blocks still pending; 0 means
    /// hydration is complete (or fell back to disk) and the leaf is
    /// `Alive`. Callers drive this from their event loop — queries take
    /// `&self`, so block swaps happen only here.
    pub fn poll_hydration(&mut self) -> LeafResult<usize> {
        // A query may have condemned the attach (in-place CRC failure on
        // first touch) — it could only record that; act on it here.
        if let Some(reason) = self.hydrator.as_ref().and_then(|h| h.poison_reason()) {
            self.fall_back_from_hydration(reason)?;
            return Ok(0);
        }
        loop {
            let received = match self.hydrator.as_ref() {
                None => return Ok(0),
                Some(h) => h.rx.lock().unwrap().try_recv(),
            };
            match received {
                Ok(msg) => self.apply_hydrated(msg)?,
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    // A worker died (panic) with results outstanding.
                    self.fall_back_from_hydration(
                        "hydration workers exited with blocks outstanding".to_owned(),
                    )?;
                    return Ok(0);
                }
            }
            if self.hydrator.is_none() {
                return Ok(0);
            }
        }
        Ok(self.hydration_pending())
    }

    /// Block until hydration is complete (or has fallen back to disk).
    /// The leaf is `Alive` with zero shm-resident bytes afterwards. Under
    /// [`HydrationMode::OnAccess`] this first releases every parked block
    /// to the workers — the "drain the lazy leaf" operation.
    pub fn finish_hydration(&mut self) -> LeafResult<()> {
        if let Some(reason) = self.hydrator.as_ref().and_then(|h| h.poison_reason()) {
            return self.fall_back_from_hydration(reason);
        }
        if let Some(h) = self.hydrator.as_ref() {
            h.queue.release_all();
        }
        loop {
            let received = match self.hydrator.as_ref() {
                None => return Ok(()),
                Some(h) => h.rx.lock().unwrap().recv(),
            };
            match received {
                Ok(msg) => self.apply_hydrated(msg)?,
                Err(_) => {
                    return self.fall_back_from_hydration(
                        "hydration workers exited with blocks outstanding".to_owned(),
                    );
                }
            }
        }
    }

    /// Swap one hydrated block into its table (or trigger the disk
    /// fallback on a deferred-CRC failure).
    fn apply_hydrated(&mut self, msg: HydratedBlock) -> LeafResult<()> {
        match msg.new {
            Err(reason) => {
                self.fall_back_from_hydration(format!("hydrating table {:?}: {reason}", msg.table))
            }
            Ok(block) => {
                if let Some(t) = self.store.map_mut().get_mut(&msg.table) {
                    // False means the block left the table meanwhile
                    // (cannot happen today: expire is blocked during
                    // hydration) — the heap copy is simply discarded.
                    t.apply_block_patch(&msg.old, Arc::new(block));
                }
                scuba_obs::counter!("hydrated_blocks_total").inc();
                let h = self.hydrator.as_mut().expect("hydrator present");
                h.pending -= 1;
                if h.pending == 0 {
                    let h = self.hydrator.take().expect("hydrator present");
                    if scuba_obs::enabled() {
                        self.emit_restart_span(
                            "restart.hydration",
                            "restore",
                            "hydration",
                            h.started.elapsed(),
                        );
                    }
                    drop(h.rx);
                    for worker in h.workers {
                        let _ = worker.join();
                    }
                    self.set_phase(LeafPhase::Alive);
                } else {
                    self.publish_memory_gauges();
                }
                Ok(())
            }
        }
        // `msg.old` drops here — when the last mapped reference to a
        // segment goes, the SegmentView unlinks it.
    }

    /// §4.3 conservatism applied to phase two: any hydration failure
    /// (torn payload caught by the deferred CRC, a dead worker) condemns
    /// the whole attach — throw away the mapped store and rebuild from
    /// disk. Rows ingested during hydration share crash semantics: only
    /// the synced prefix survives.
    fn fall_back_from_hydration(&mut self, reason: String) -> LeafResult<()> {
        if let Some(h) = self.hydrator.take() {
            h.queue.close(); // wake workers blocked on parked jobs
            drop(h.rx); // workers' sends now fail; they exit
            for worker in h.workers {
                let _ = worker.join();
            }
        }
        scuba_obs::counter!("hydration_fallbacks").inc();
        self.hydration_fallback = Some(reason.clone());
        // Dropping the store releases the last mapped references; the
        // SegmentViews unlink their segments.
        self.store = LeafStore::new();
        self.disk_recover(self.hydrate_now, None, reason)?;
        // The store was rebuilt under the incremental writer's feet and
        // the WAL's row anchors no longer line up: start the crash path
        // over from this state.
        self.reset_crash_path();
        Ok(())
    }

    /// Current phase.
    pub fn phase(&self) -> LeafPhase {
        self.phase
    }

    /// The `leaf` label on this server's metric series
    /// (`{shm_prefix}:{leaf_id}`), for dashboards that read the gauges.
    pub fn obs_key(&self) -> &str {
        &self.obs_key
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
            return Err(LeafError::Unavailable {
                operation: "add rows",
                phase: self.phase.name(),
            });
        }
        let start_rows = if self.config.checkpoint_enabled && self.wal.is_some() {
            self.store.map().get(table).map_or(0, |t| t.row_count()) as u64
        } else {
            0
        };
        self.store.append_rows(table, rows, now)?;
        if let Err(e) = self.disk.append(table, rows) {
            // Memory now holds rows the disk log skipped: the memory↔disk
            // prefix correspondence the crash path reconciles against is
            // broken mid-file, not at a suffix. Degrade the next crash to
            // the disk path rather than let a reconcile duplicate rows.
            if self.config.checkpoint_enabled {
                self.poison_wal(format!("disk append: {e}"));
            }
            return Err(e.into());
        }
        if self.config.checkpoint_enabled && !rows.is_empty() {
            self.rows_since_checkpoint += rows.len();
            if self.wal.is_some() {
                let payload = encode_wal_batch(table, start_rows, rows);
                // WAL problems never fail ingest: they poison the crash
                // path, degrading the next crash to the disk path.
                if let Err(e) = self.wal.as_mut().unwrap().append(&payload) {
                    self.poison_wal(format!("append: {e}"));
                }
            }
            self.maybe_auto_checkpoint();
            self.publish_checkpoint_gauges();
        }
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
            return Err(LeafError::Unavailable {
                operation: "query",
                phase: self.phase.name(),
            });
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
            return Err(LeafError::Unavailable {
                operation: "delete expired data",
                phase: self.phase.name(),
            });
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
                if self.config.checkpoint_enabled {
                    self.poison_wal(format!("expiry rewrite of {name:?}: {reason}"));
                }
            }
        }
        if dropped > 0 {
            // Expiry removed blocks the incremental writer thought were
            // the image's immutable prefix, and shrank row counts under
            // the WAL's start anchors. Rebuild the crash path.
            self.reset_crash_path();
        }
        if self.config.tiering == TieringMode::Sieve && !shrunk.is_empty() {
            // Expiry drops the oldest blocks first — exactly the ones most
            // likely to be cold. Tables whose cold count hit zero can shed
            // their fast-format file; the SIEVE ring re-syncs so the hand
            // doesn't walk freed blocks.
            for name in &shrunk {
                let gone = self
                    .store
                    .map()
                    .get(name)
                    .is_none_or(|t| t.cold_blocks() == 0);
                if gone {
                    let _ = self.cold.remove_table(name);
                }
            }
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
        if let Some(wal) = self.wal.as_mut() {
            if let Err(e) = wal.sync() {
                self.poison_wal(format!("fsync: {e}"));
            }
        }
        self.append_sync_anchor();
        Ok(bytes)
    }

    /// Record the just-synced per-table disk coverage in the WAL. The
    /// anchor is advisory (it bounds the reconcile scan); failing to
    /// write it is a WAL append failure like any other and poisons the
    /// crash path.
    fn append_sync_anchor(&mut self) {
        if self.wal.is_none() {
            return;
        }
        let mut entries: Vec<(String, u64, u64)> = Vec::new();
        for table in self.store.map().iter() {
            let len = match self.disk.file_len(table.name()) {
                Ok(len) => len,
                // Can't state the coverage: write no anchor (the next
                // recovery falls back to a full scan, which is always
                // correct).
                Err(_) => return,
            };
            entries.push((table.name().to_owned(), table.row_count() as u64, len));
        }
        let payload = encode_sync_anchor(&entries);
        match self.wal.as_mut().unwrap().append(&payload) {
            Ok(()) => self.last_sync_anchor = Some(payload),
            Err(e) => self.poison_wal(format!("append anchor: {e}")),
        }
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
            return Err(LeafError::Unavailable {
                operation: "shut down",
                phase: self.phase.name(),
            });
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

        // The planned shutdown supersedes the crash path: stop the
        // checkpointer and unlink its image *before* the backup rebuilds
        // the metadata region, so the two writers never interleave. Up to
        // this point any prepare failure still leaves the warm checkpoint
        // image for the replacement to crash-recover from.
        if let Some(ck) = self.checkpointer.take() {
            ck.teardown();
        }
        self.checkpoint_inflight = false;

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
        if scuba_obs::enabled() {
            for &(phase, d) in &backup.phases.phases {
                self.emit_restart_span("restart.phase", "backup", phase.name(), d);
            }
        }
        for (_, st) in &mut table_states {
            *st = st.transition(TableBackupState::Done)?;
        }

        // The backup's valid bit is committed: the image covers every
        // row, so the WAL is obsolete. Drop it before exit.
        self.clear_wal();
        self.wal = None;

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
        // Ordering matters: the checkpointer must be *abandoned* — never
        // torn down — before anything else drops, so the dying process
        // can't unlink the very image its replacement is about to attach.
        // (Checkpoint segments are plain `ShmSegment`s, which never
        // unlink on drop; the hazard is a teardown-style exit.)
        if let Some(ck) = self.checkpointer.take() {
            ck.abandon();
        }
        self.wal = None; // close the fds; never clear on a crash
                         // A SIGKILL loses the disk backup's userspace buffer too: drop it
                         // unflushed so the crash's durability is exactly the synced
                         // prefix, not whatever the allocator felt like flushing.
        self.disk.discard_buffered();
        // A crash mid-hydration abandons the workers: drop the receiver
        // so their sends fail and they exit; their mapped references (and
        // the store's) drop, unlinking the segments.
        if let Some(h) = self.hydrator.take() {
            h.queue.close();
            drop(h.rx);
            for worker in h.workers {
                let _ = worker.join();
            }
        }
        self.residency.clear();
        self.store = LeafStore::new();
        self.set_phase(LeafPhase::Down);
    }

    // ---- tiered storage (§6 future work: the shm format, on disk) ----

    /// Bytes demoted to the disk fast-format cold tier.
    pub fn cold_bytes(&self) -> usize {
        self.store.map().cold_bytes()
    }

    /// Number of cold (disk-mapped) blocks.
    pub fn cold_blocks(&self) -> usize {
        self.store.map().cold_blocks()
    }

    /// Throttle demotion writes (same knob shape as disk recovery —
    /// demotions share the spindle with the backup).
    pub fn set_cold_throttle(&mut self, throttle: Option<Throttle>) {
        self.cold_throttle = throttle;
    }

    /// Run one tiering pass outside the ingest path — tests and idle-time
    /// maintenance. Uses the last ingest timestamp for any sealing or
    /// disk fallback the pass needs.
    pub fn poll_tiering(&mut self) -> LeafResult<()> {
        self.run_tiering(self.tier_now)
    }

    /// One tiering pass: promote repeatedly-touched cold blocks back to
    /// heap, act on cold corruption (found by a query touch or by the
    /// promotion's own check), then demote until the resident set fits the
    /// budget.
    fn run_tiering(&mut self, now: i64) -> LeafResult<()> {
        if self.config.tiering != TieringMode::Sieve {
            return Ok(());
        }
        self.tier_now = now;
        self.apply_promotions();
        if let Some((table, reason)) = self.residency.take_poison() {
            self.recover_cold_table(&table, now, reason)?;
        }
        self.enforce_budget(now)?;
        self.publish_memory_gauges();
        Ok(())
    }

    /// A cold block failed its first-touch CRC: the paper's §4.3 answer,
    /// narrowed per-table — rebuild this one table from the disk row log
    /// and drop its cold file. Rows shrink to the durable prefix, so the
    /// crash path must rebuild too.
    fn recover_cold_table(&mut self, table: &str, now: i64, reason: String) -> LeafResult<()> {
        if scuba_obs::enabled() {
            let labels = [("leaf", self.obs_key.as_str())];
            scuba_obs::labeled_counter("leaf_residency_faults_total", &labels).inc();
        }
        scuba_obs::counter!("leaf_tables_disk_recovered").inc();
        let _ = reason; // recorded via the fault counter; detail stays in the query error
        let (mut map, _stats) = self.disk.recover_tables(&[table.to_owned()], now, None)?;
        self.store.map_mut().remove(table);
        for (_, t) in map.take_tables() {
            self.store.map_mut().insert(t);
        }
        let _ = self.cold.remove_table(table);
        self.residency.sync(self.store.map());
        if self.config.checkpoint_enabled {
            self.reset_crash_path();
        }
        Ok(())
    }

    /// Swap repeatedly-touched cold blocks back onto the heap. The touches
    /// verified only the columns their queries read, so the rest are
    /// checked here, before the copy (a latch read for the ones already
    /// paid); a failure condemns the table like a failed touch. Tables
    /// whose last cold block promoted shed their fast-format file.
    fn apply_promotions(&mut self) {
        let promotions = self.residency.drain_promotions();
        if promotions.is_empty() {
            return;
        }
        let obs_key = self.obs_key.clone();
        let mut touched_tables: Vec<String> = Vec::new();
        for (name, old) in promotions {
            if !old.is_cold() {
                continue;
            }
            let Some(t) = self.store.map_mut().get_mut(&name) else {
                continue;
            };
            let heap = match hydrate_block(&old) {
                Ok(heap) => Arc::new(heap),
                Err(e) => {
                    self.residency.condemn(&name, &e);
                    continue;
                }
            };
            if t.apply_block_patch(&old, heap) {
                if scuba_obs::enabled() {
                    let labels = [("leaf", obs_key.as_str())];
                    scuba_obs::labeled_counter("leaf_promotions_total", &labels).inc();
                }
                if !touched_tables.contains(&name) {
                    touched_tables.push(name);
                }
            }
        }
        for name in &touched_tables {
            let empty = self
                .store
                .map()
                .get(name)
                .is_none_or(|t| t.cold_blocks() == 0);
            if empty {
                let _ = self.cold.remove_table(name);
            }
        }
        self.residency.sync(self.store.map());
    }

    /// Demote SIEVE victims until heap + shm fit the budget. Blocks only
    /// ever become eligible once sealed and zone-mapped; if the ring runs
    /// dry while still over budget, seal once and retry — the builder may
    /// have been holding the bulk of the heap.
    fn enforce_budget(&mut self, now: i64) -> LeafResult<()> {
        let budget = self.config.memory_budget_bytes;
        if budget == 0 {
            return Ok(());
        }
        let resident = |s: &LeafStore| s.map().heap_bytes() + s.map().mapped_bytes();
        if resident(&self.store) <= budget {
            return Ok(());
        }
        self.residency.sync(self.store.map());
        let mut sealed = false;
        while resident(&self.store) > budget {
            match self.residency.evict_next() {
                Some((table, block)) => {
                    if self.demote_block(&table, &block).is_err() {
                        // A failing disk: leave the rest hot rather than
                        // spin. The next pass retries.
                        break;
                    }
                }
                None if !sealed => {
                    // Ring dry but still over budget: the unsealed builder
                    // may hold the bulk. Seal (zone maps attach at seal)
                    // and let the new blocks become candidates.
                    sealed = true;
                    self.store.seal_all(now)?;
                    self.residency.sync(self.store.map());
                }
                None => break,
            }
        }
        Ok(())
    }

    /// Demote one sealed block to the cold tier: append its image to the
    /// table's fast-format file, map it back, and swap the heap block for
    /// the disk-backed one. Any fault leaves the block hot (the appended
    /// bytes, if any, are unreferenced and harmless).
    fn demote_block(&mut self, table: &str, block: &Arc<RowBlock>) -> Result<(), String> {
        let result = self.build_cold_block(table, block);
        match result {
            Ok(cold) => {
                let swapped = self
                    .store
                    .map_mut()
                    .get_mut(table)
                    .is_some_and(|t| t.apply_block_patch(block, cold));
                if swapped && scuba_obs::enabled() {
                    let labels = [("leaf", self.obs_key.as_str())];
                    scuba_obs::labeled_counter("leaf_demotions_total", &labels).inc();
                }
                Ok(())
            }
            Err(e) => {
                if scuba_obs::enabled() {
                    let labels = [("leaf", self.obs_key.as_str())];
                    scuba_obs::labeled_counter("leaf_residency_faults_total", &labels).inc();
                }
                Err(e)
            }
        }
    }

    /// Write a block's image to the cold file and construct the mapped
    /// replacement block over those bytes.
    fn build_cold_block(
        &self,
        table: &str,
        block: &Arc<RowBlock>,
    ) -> Result<Arc<RowBlock>, String> {
        let cr = self
            .cold
            .append_block(table, block, self.cold_throttle.as_ref())
            .map_err(|e| format!("cold append: {e}"))?;
        let map = self
            .cold
            .map(&cr.path)
            .map_err(|e| format!("cold map: {e}"))?;
        let backing: Arc<dyn AsRef<[u8]> + Send + Sync> = map;
        let (parsed, _end) = RowBlock::deserialize_mapped(&backing, cr.offset as usize)
            .map_err(|e| format!("cold reparse: {e}"))?;
        Ok(Arc::new(
            parsed
                .with_zones(block.zones().cloned())
                .with_cold_ref(Some(cr)),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scuba_columnstore::table::RetentionLimits;
    use scuba_columnstore::{ColdRef, Value};
    use scuba_query::{AggSpec, GroupKey};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    static COUNTER: AtomicU32 = AtomicU32::new(0);

    fn test_config(tag: &str) -> (LeafConfig, PathBuf) {
        let id = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("scuba_leaf_{tag}_{}_{id}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = LeafConfig::new(id, format!("leafsrv{}", std::process::id()), &dir);
        (cfg, dir)
    }

    struct Cleanup(ShmNamespace, PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            self.0.unlink_all(16);
            let _ = std::fs::remove_dir_all(&self.1);
        }
    }

    fn fill(server: &mut LeafServer, rows: i64) {
        let batch: Vec<Row> = (0..rows)
            .map(|i| {
                Row::at(i)
                    .with("sev", if i % 10 == 0 { "error" } else { "info" })
                    .with("code", i % 7)
            })
            .collect();
        server.add_rows("logs", &batch, 0).unwrap();
    }

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

    /// Serializes the two-phase tests: they assert on the process-wide
    /// [`scuba_shmem::view_unlink_count`], and every hydration completing
    /// in another test would move it.
    static HYDRATE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Order-insensitive, backing-insensitive digest of a query result.
    fn result_fingerprint(r: &LeafQueryResult) -> (u64, Vec<(String, Vec<Value>)>) {
        let mut groups: Vec<(String, Vec<Value>)> = r
            .groups
            .iter()
            .map(|(k, aggs)| (format!("{k:?}"), aggs.iter().map(|a| a.finish()).collect()))
            .collect();
        groups.sort_by(|a, b| a.0.cmp(&b.0));
        (r.rows_matched, groups)
    }

    #[test]
    fn two_phase_attach_serves_identical_results_before_hydration() {
        let _l = HYDRATE_LOCK.lock().unwrap();
        let (mut cfg, dir) = test_config("twophase");
        cfg.restore_mode = RestoreMode::TwoPhase;
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 1000);
        let q = Query::new("logs", 0, 2000)
            .group_by("sev")
            .aggregates(vec![AggSpec::Count]);
        let expected = result_fingerprint(&s.query(&q).unwrap());
        s.shutdown_to_shm(10).unwrap();
        drop(s);

        let (mut s2, outcome) = LeafServer::start(cfg, 20, None).unwrap();
        assert!(outcome.is_memory());
        let rep = match outcome {
            RecoveryOutcome::MemoryAttached(rep) => rep,
            other => panic!("expected attach, got {other:?}"),
        };
        // Acceptance: attach performs zero per-value heap copies. The
        // footprint delta is block/schema metadata only — every column
        // buffer stays mapped.
        assert!(
            rep.heap_bytes_copied < 1024,
            "attach copied column bytes: {}",
            rep.heap_bytes_copied
        );
        assert!(rep.shm_bytes > 0);
        assert!(s2
            .store()
            .map()
            .iter()
            .flat_map(|t| t.blocks().iter())
            .all(|b| b.columns().iter().all(|c| c.is_mapped())));
        assert_eq!(s2.phase(), LeafPhase::Hydrating);
        assert!(s2.is_hydrating());
        assert!(s2.shm_resident() > 0);

        // Acceptance: a query over the shm-backed table is byte-identical
        // to the same query after hydration.
        let over_shm = result_fingerprint(&s2.query(&q).unwrap());
        assert_eq!(over_shm, expected);

        s2.finish_hydration().unwrap();
        assert_eq!(s2.phase(), LeafPhase::Alive);
        assert!(!s2.is_hydrating());
        assert_eq!(s2.shm_resident(), 0);
        assert!(s2.hydration_fallback_reason().is_none());
        let over_heap = result_fingerprint(&s2.query(&q).unwrap());
        assert_eq!(over_heap, expected);
        assert_eq!(s2.total_rows(), 1000);
    }

    #[test]
    fn segment_unlinked_exactly_once_and_never_while_read() {
        use scuba_shmem::{view_unlink_count, ShmSegment};
        let _l = HYDRATE_LOCK.lock().unwrap();
        let (mut cfg, dir) = test_config("seglife");
        cfg.restore_mode = RestoreMode::TwoPhase;
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 200);
        s.shutdown_to_shm(0).unwrap();
        drop(s);

        let (mut s2, _) = LeafServer::start(cfg, 0, None).unwrap();
        let seg_name = s2.namespace().table_segment_name(0);
        assert!(ShmSegment::exists(&seg_name));

        // A query snapshot: a cloned handle to a mapped block, held across
        // the table's hydration (and hypothetical drop).
        let held: Arc<RowBlock> =
            Arc::clone(&s2.store().map().get("logs").unwrap().mapped_blocks()[0]);
        let before = view_unlink_count();

        s2.finish_hydration().unwrap();
        assert_eq!(s2.phase(), LeafPhase::Alive);
        assert_eq!(s2.shm_resident(), 0);
        // The reader still borrows the mapping: not unlinked yet.
        assert!(
            ShmSegment::exists(&seg_name),
            "segment unlinked while a reader held it"
        );
        assert_eq!(view_unlink_count(), before);
        // The mapped bytes are still readable through the held block.
        assert_eq!(held.decode_rows().unwrap().len(), 200);

        drop(held); // last mapped reference
        assert!(!ShmSegment::exists(&seg_name));
        assert_eq!(view_unlink_count(), before + 1, "unlinked more than once");
    }

    /// Corrupt a payload byte deep in the shut-down leaf's first table
    /// segment: the middle of the largest column chunk's RBC *data region*
    /// (found by walking the TLV frames, offsets read from the RBC
    /// header), so only the deferred payload CRC can tell.
    fn corrupt_fattest_column_chunk(cfg: &LeafConfig) {
        use scuba_restart::framing::{decode_header_v2, FRAME_HEADER_V2, TAG_END};
        let ns = scuba_shmem::ShmNamespace::new(&cfg.shm_prefix, cfg.leaf_id).unwrap();
        let mut seg = scuba_shmem::ShmSegment::open(&ns.table_segment_name(0)).unwrap();
        let buf = seg.as_mut_slice();
        let mut pos = 0usize;
        let mut fattest = (0usize, 0usize);
        loop {
            let (desc, len, _crc) = decode_header_v2(&buf[pos..pos + FRAME_HEADER_V2]);
            if desc.tag == TAG_END {
                break;
            }
            let payload = pos + FRAME_HEADER_V2;
            if desc.tag == crate::image::TAG_COLUMN && len as usize > fattest.1 {
                fattest = (payload, len as usize);
            }
            pos = payload + len as usize;
        }
        assert!(fattest.1 > 0, "no column chunk found");
        let rbc = &mut buf[fattest.0..fattest.0 + fattest.1];
        let data_off = u64::from_le_bytes(rbc[48..56].try_into().unwrap()) as usize;
        let footer_off = u64::from_le_bytes(rbc[56..64].try_into().unwrap()) as usize;
        rbc[(data_off + footer_off) / 2] ^= 0xFF;
    }

    #[test]
    fn hydration_crc_mismatch_falls_back_to_disk() {
        let _l = HYDRATE_LOCK.lock().unwrap();
        let (mut cfg, dir) = test_config("hydcrc");
        cfg.restore_mode = RestoreMode::TwoPhase;
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 1000);
        s.shutdown_to_shm(0).unwrap(); // syncs disk before the copy
        drop(s);

        // Attach's structural checks cannot see this; the deferred CRC at
        // hydration must.
        corrupt_fattest_column_chunk(&cfg);

        let (mut s2, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(
            matches!(outcome, RecoveryOutcome::MemoryAttached(_)),
            "attach should not notice payload corruption: {outcome:?}"
        );
        // Nor does a query that never reads the corrupt column: it checks
        // only what it reads. The worker's whole-block check before the
        // copy is what condemns the attach.
        let count = Query::new("logs", 0, 2000);
        assert_eq!(s2.query(&count).unwrap().rows_matched, 1000);
        s2.finish_hydration().unwrap();
        assert_eq!(s2.phase(), LeafPhase::Alive);
        let reason = s2.hydration_fallback_reason().expect("fallback recorded");
        assert!(reason.contains("checksum"), "{reason}");
        // Disk had everything: full recovery despite the torn segment.
        assert_eq!(s2.total_rows(), 1000);
        assert_eq!(s2.shm_resident(), 0);
    }

    #[test]
    fn ingest_lands_in_heap_during_hydration() {
        let _l = HYDRATE_LOCK.lock().unwrap();
        let (mut cfg, dir) = test_config("hydingest");
        cfg.restore_mode = RestoreMode::TwoPhase;
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 500);
        s.shutdown_to_shm(0).unwrap();
        drop(s);

        let (mut s2, _) = LeafServer::start(cfg, 0, None).unwrap();
        assert_eq!(s2.phase(), LeafPhase::Hydrating);
        // Ingest is admitted mid-hydration and goes to fresh heap blocks.
        let heap_before = s2.memory_used();
        let extra: Vec<Row> = (500..600).map(|i| Row::at(i).with("sev", "late")).collect();
        s2.add_rows("logs", &extra, 30).unwrap();
        assert!(s2.memory_used() > heap_before);
        // Deletes stay blocked until hydration completes (same Figure 5(c)
        // conservatism as shutdown).
        assert!(s2.expire(1000).is_err());
        // Queries see old (mapped) and new (heap) rows together.
        let r = s2.query(&Query::new("logs", 0, 1000)).unwrap();
        assert_eq!(r.rows_matched, 600);

        s2.finish_hydration().unwrap();
        assert_eq!(s2.total_rows(), 600);
        assert!(s2.expire(0).is_ok());
    }

    #[test]
    fn memory_gauges_split_heap_and_shm() {
        let _l = HYDRATE_LOCK.lock().unwrap();
        let (mut cfg, dir) = test_config("hydmem");
        cfg.restore_mode = RestoreMode::TwoPhase;
        cfg.memory_capacity = 8 << 20;
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 1000);
        s.shutdown_to_shm(0).unwrap();
        drop(s);

        let (mut s2, _) = LeafServer::start(cfg, 0, None).unwrap();
        // Mid-hydration: every column byte is shm-resident; heap holds
        // only block/schema metadata. No byte counted twice.
        let shm_mid = s2.shm_resident();
        let heap_mid = s2.memory_used();
        assert!(shm_mid > 0);
        assert!(
            heap_mid < 1024,
            "column bytes on heap after attach: {heap_mid}"
        );
        assert_eq!(s2.free_memory(), (8 << 20) - shm_mid - heap_mid);

        s2.finish_hydration().unwrap();
        // After: the same column bytes are heap-resident, shm is empty —
        // the total footprint is unchanged.
        assert_eq!(s2.shm_resident(), 0);
        assert_eq!(s2.memory_used(), shm_mid + heap_mid);
        assert_eq!(s2.free_memory(), (8 << 20) - shm_mid - heap_mid);
    }

    #[test]
    fn poll_hydration_drains_incrementally() {
        let _l = HYDRATE_LOCK.lock().unwrap();
        let (mut cfg, dir) = test_config("hydpoll");
        cfg.restore_mode = RestoreMode::TwoPhase;
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        // Several sealed blocks so hydration has multiple results.
        for epoch in 0..4i64 {
            let rows: Vec<Row> = (0..100).map(|i| Row::at(epoch * 100 + i)).collect();
            s.add_rows("logs", &rows, 0).unwrap();
            s.store.map_mut().get_mut("logs").unwrap().seal(0).unwrap();
        }
        s.shutdown_to_shm(0).unwrap();
        drop(s);

        let (mut s2, _) = LeafServer::start(cfg, 0, None).unwrap();
        assert_eq!(s2.hydration_pending(), 4);
        // Poll until done; each poll applies whatever the workers
        // finished without blocking.
        while s2.poll_hydration().unwrap() > 0 {
            std::thread::yield_now();
        }
        assert_eq!(s2.phase(), LeafPhase::Alive);
        assert_eq!(s2.total_rows(), 400);
        assert_eq!(s2.shm_resident(), 0);
    }

    #[test]
    fn empty_leaf_attach_goes_straight_to_alive() {
        let _l = HYDRATE_LOCK.lock().unwrap();
        let (mut cfg, dir) = test_config("hydempty");
        cfg.restore_mode = RestoreMode::TwoPhase;
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        s.shutdown_to_shm(0).unwrap();
        drop(s);
        let (s2, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(matches!(outcome, RecoveryOutcome::MemoryAttached(_)));
        assert_eq!(s2.phase(), LeafPhase::Alive);
        assert!(!s2.is_hydrating());
    }

    /// Tentpole acceptance: under OnAccess, a cold (never-queried) table
    /// keeps every byte mapped — zero copies — while results stay
    /// identical to the eager path, and query-touched blocks jump the
    /// hydration queue.
    #[test]
    fn on_access_hydrates_only_what_queries_touch() {
        let _l = HYDRATE_LOCK.lock().unwrap();
        let (mut cfg, dir) = test_config("lazyhyd");
        cfg.restore_mode = RestoreMode::TwoPhase;
        cfg.hydration = HydrationMode::OnAccess;
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 600); // "logs": the hot table
        let cold: Vec<Row> = (0..400).map(|i| Row::at(i).with("v", i)).collect();
        s.add_rows("archive", &cold, 0).unwrap();
        let q_hot = Query::new("logs", 0, 1000)
            .group_by("sev")
            .aggregates(vec![AggSpec::Count, AggSpec::Sum("code".into())]);
        let q_cold = Query::new("archive", 0, 1000).aggregates(vec![AggSpec::Sum("v".into())]);
        let want_hot = result_fingerprint(&s.query(&q_hot).unwrap());
        let want_cold = result_fingerprint(&s.query(&q_cold).unwrap());
        s.shutdown_to_shm(0).unwrap();
        drop(s);

        let (mut s2, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(matches!(outcome, RecoveryOutcome::MemoryAttached(_)));
        assert_eq!(s2.phase(), LeafPhase::Hydrating);
        let total_blocks = s2.hydration_pending();
        let cold_blocks = s2.store().map().get("archive").unwrap().blocks().len();
        assert!(total_blocks > cold_blocks);

        // Nothing hydrates until a query touches it: everything parked.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(s2.poll_hydration().unwrap(), total_blocks);

        // Query the hot table: identical answer, served from mapped
        // bytes, and exactly its blocks released to the workers.
        assert_eq!(result_fingerprint(&s2.query(&q_hot).unwrap()), want_hot);
        loop {
            let pending = s2.poll_hydration().unwrap();
            if pending <= cold_blocks {
                break;
            }
            std::thread::yield_now();
        }
        // The cold table was never copied: every byte still mapped.
        assert!(s2
            .store()
            .map()
            .get("archive")
            .unwrap()
            .blocks()
            .iter()
            .all(|b| b.columns().iter().all(|c| c.is_mapped())));
        assert!(s2.shm_resident() > 0);
        // ... and still answers identically, in place.
        assert_eq!(result_fingerprint(&s2.query(&q_cold).unwrap()), want_cold);

        // Draining releases the parked remainder.
        s2.finish_hydration().unwrap();
        assert_eq!(s2.phase(), LeafPhase::Alive);
        assert_eq!(s2.shm_resident(), 0);
        assert_eq!(result_fingerprint(&s2.query(&q_cold).unwrap()), want_cold);
        assert_eq!(s2.total_rows(), 1000);
    }

    /// Column-granular first touch: a corrupt column a query does not
    /// read does not fail it (nor is it checked); a query that reads it
    /// fails closed (the first-touch CRC catches it) with the sticky
    /// error, and the recorded poison turns into the full disk fallback at
    /// the next poll — data intact from disk.
    #[test]
    fn query_over_corrupt_mapped_block_fails_then_falls_back() {
        let _l = HYDRATE_LOCK.lock().unwrap();
        let (mut cfg, dir) = test_config("lazycrc");
        cfg.restore_mode = RestoreMode::TwoPhase;
        cfg.hydration = HydrationMode::OnAccess; // workers stay parked: no racing hydrator
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 800);
        s.shutdown_to_shm(0).unwrap();
        drop(s);

        corrupt_fattest_column_chunk(&cfg);

        let (mut s2, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(matches!(outcome, RecoveryOutcome::MemoryAttached(_)));
        let bad = corrupt_column_of(&s2, "logs");
        assert_ne!(bad, "time", "the fixture is meant to spare the time column");
        let good = if bad == "sev" { "code" } else { "sev" };
        let count = Query::new("logs", 0, 1000);
        assert_eq!(s2.query(&count).unwrap().rows_matched, 800);
        let over_good = count
            .clone()
            .aggregates(vec![AggSpec::CountDistinct(good.into())]);
        assert_eq!(s2.query(&over_good).unwrap().rows_matched, 800);
        let block = Arc::clone(&s2.store().map().get("logs").unwrap().blocks()[0]);
        assert!(!block.column(&bad).unwrap().is_verified());

        let q = count.clone().aggregates(vec![AggSpec::CountDistinct(bad)]);
        let err = s2.query(&q).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        // Sticky: the poison now fails every query until the fallback.
        assert_eq!(s2.query(&count).unwrap_err().to_string(), err.to_string());
        // The poison condemns the attach at the next poll.
        assert_eq!(s2.poll_hydration().unwrap(), 0);
        assert_eq!(s2.phase(), LeafPhase::Alive);
        let reason = s2.hydration_fallback_reason().expect("fallback recorded");
        assert!(reason.contains("checksum"), "{reason}");
        // Disk recovery restored everything; queries serve heap bytes.
        assert_eq!(s2.total_rows(), 800);
        assert_eq!(s2.shm_resident(), 0);
        assert_eq!(s2.query(&q).unwrap().rows_matched, 800);
    }

    /// The touch contract: a query pays the deferred CRC of the columns it
    /// reads, the hydrator worker pays for the rest before it copies, and
    /// nobody pays twice — each column's latch is read through the
    /// original or any clone.
    #[test]
    fn query_touch_pays_the_crc_the_hydrator_would_have() {
        let _l = HYDRATE_LOCK.lock().unwrap();
        let (mut cfg, dir) = test_config("latchonce");
        cfg.restore_mode = RestoreMode::TwoPhase;
        cfg.hydration = HydrationMode::OnAccess; // workers parked until the touch
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 800);
        s.shutdown_to_shm(0).unwrap();
        drop(s);

        let (mut s2, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(matches!(outcome, RecoveryOutcome::MemoryAttached(_)));
        let blocks: Vec<Arc<RowBlock>> = s2.store().map().get("logs").unwrap().blocks().to_vec();
        // Fresh clones, so what we see is the shared latch, not a cache.
        let verified = |b: &RowBlock, name: &str| b.column(name).unwrap().clone().is_verified();
        assert!(blocks.iter().all(|b| b.is_mapped()));
        // Attach deferred every footer CRC, and parked every block.
        for b in &blocks {
            assert!(["time", "sev", "code"].iter().all(|c| !verified(b, c)));
        }
        let parked = || s2.hydrator.as_ref().unwrap().queue.parked_len();
        assert_eq!(parked(), blocks.len());

        // What a count(*) touches: `time` and nothing else. Touch copies
        // of the blocks — the columns share their latches with the
        // originals, but the copies are not the parked `Arc`s, so nothing
        // is promoted and no worker races these assertions.
        let copies: Vec<Arc<RowBlock>> = blocks.iter().map(|b| Arc::new((**b).clone())).collect();
        let h = s2.hydrator.as_ref().unwrap();
        h.touch(&copies, &Query::new("logs", 0, 1000).columns_read())
            .unwrap();
        for b in &blocks {
            assert!(verified(b, "time"));
            assert!(!verified(b, "sev") && !verified(b, "code"));
        }
        // A query over another column pays for that column only.
        h.touch(&copies, &["time", "sev"]).unwrap();
        for b in &blocks {
            assert!(verified(b, "sev") && !verified(b, "code"));
        }
        assert_eq!(parked(), blocks.len());

        // A real query promotes each block it had to verify something in
        // — once: finishing below would apply a block queued twice twice,
        // and trip the pending count.
        let sum_code = Query::new("logs", 0, 1000).aggregates(vec![AggSpec::Sum("code".into())]);
        assert_eq!(s2.query(&sum_code).unwrap().rows_matched, 800);
        assert_eq!(parked(), 0);
        assert_eq!(s2.query(&sum_code).unwrap().rows_matched, 800);
        // The worker finds every check paid, and copies.
        for b in &blocks {
            assert!(["time", "sev", "code"].iter().all(|c| verified(b, c)));
            assert!(!hydrate_block(b).unwrap().is_mapped());
        }
        s2.finish_hydration().unwrap();
        assert!(s2.hydration_fallback_reason().is_none());
        assert_eq!(s2.total_rows(), 800);
    }

    /// Name of the one column of `table` whose bytes fail their footer
    /// CRC, found through heap copies so no latch is touched.
    fn corrupt_column_of(server: &LeafServer, table: &str) -> String {
        let mut bad = Vec::new();
        for b in server.store().map().get(table).unwrap().blocks() {
            for (name, _) in b.schema().iter() {
                let bytes = b.column(name).unwrap().as_bytes().to_vec();
                if scuba_columnstore::RowBlockColumn::from_bytes(bytes.into()).is_err() {
                    bad.push(name.to_owned());
                }
            }
        }
        assert_eq!(bad.len(), 1, "expected one corrupt column, found {bad:?}");
        bad.pop().unwrap()
    }

    /// Plan once per query: planning snapshots (clones and re-encodes) the
    /// open block, so the hydrator touch, the tiering touch and the scan
    /// share one plan instead of making three.
    #[test]
    fn query_encodes_the_open_block_once() {
        let _l = HYDRATE_LOCK.lock().unwrap();
        let (mut cfg, dir) = tiered_config("planonce", 0);
        cfg.restore_mode = RestoreMode::TwoPhase;
        cfg.hydration = HydrationMode::OnAccess;
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 600);
        s.shutdown_to_shm(0).unwrap();
        drop(s);

        let (mut s2, _) = LeafServer::start(cfg, 0, None).unwrap();
        let tail: Vec<Row> = (600..650).map(|i| Row::at(i).with("sev", "late")).collect();
        s2.add_rows("logs", &tail, 0).unwrap();
        // All three consumers are live: hydrating, tiering, unsealed rows.
        assert!(s2.is_hydrating());
        assert!(s2.store().map().get("logs").unwrap().unsealed_rows() > 0);
        let before = scuba_columnstore::RowBlockBuilder::snapshots_on_thread();
        let r = s2
            .query(&Query::new("logs", 0, 1000).group_by("sev"))
            .unwrap();
        assert_eq!(r.rows_matched, 650);
        assert_eq!(
            scuba_columnstore::RowBlockBuilder::snapshots_on_thread() - before,
            1
        );
        s2.finish_hydration().unwrap();
    }

    /// A corrupt mapped column condemns itself once: the query touch, the
    /// hydrator worker and the disk-reconcile decode all report the same
    /// latched error, and the fallback is the usual one.
    #[test]
    fn corrupt_mapped_column_reports_one_sticky_error_to_every_toucher() {
        let _l = HYDRATE_LOCK.lock().unwrap();
        let (mut cfg, dir) = test_config("latchbad");
        cfg.restore_mode = RestoreMode::TwoPhase;
        cfg.hydration = HydrationMode::OnAccess;
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 800);
        s.shutdown_to_shm(0).unwrap();
        drop(s);
        corrupt_fattest_column_chunk(&cfg);

        let (mut s2, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(matches!(outcome, RecoveryOutcome::MemoryAttached(_)));
        let bad = corrupt_column_of(&s2, "logs");
        let q = Query::new("logs", 0, 1000).aggregates(vec![AggSpec::CountDistinct(bad)]);
        let from_query = s2.query(&q).unwrap_err().to_string();
        let table = s2.store().map().get("logs").unwrap();
        let bad = table
            .blocks()
            .iter()
            .find(|b| {
                b.columns()
                    .iter()
                    .any(|c| c.is_mapped() && !c.is_verified())
            })
            .expect("the query stopped at the corrupt block");
        let column_err = bad.verify_columns().unwrap_err().to_string();
        assert!(column_err.contains("checksum"), "{column_err}");
        assert!(from_query.ends_with(&column_err), "{from_query}");
        assert_eq!(hydrate_block(bad).unwrap_err(), column_err);
        assert_eq!(
            LeafServer::materialize_rows_from(table, 0).unwrap_err(),
            column_err
        );
        // Unchanged consequence: the poison becomes the disk fallback.
        assert_eq!(s2.poll_hydration().unwrap(), 0);
        assert!(s2.hydration_fallback_reason().unwrap().contains("checksum"));
        assert_eq!(s2.query(&q).unwrap().rows_matched, 800);
    }

    fn crash_config(tag: &str) -> (LeafConfig, PathBuf) {
        let (mut cfg, dir) = test_config(tag);
        cfg.checkpoint_enabled = true;
        (cfg, dir)
    }

    /// Batch records (sync anchors not counted) in the leaf's WAL.
    fn wal_batches(cfg: &LeafConfig) -> usize {
        scuba_restart::read_segments(&cfg.disk_root.join(WAL_DIR))
            .unwrap()
            .records()
            .filter(|r| r.first() == Some(&WAL_TAG_BATCH))
            .count()
    }

    /// Chop `bytes` off the end of a file: a torn write.
    fn tear(path: &std::path::Path, bytes: u64) {
        let len = std::fs::metadata(path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
        f.set_len(len - bytes).unwrap();
    }

    /// Rows `first..first + n` of a table whose `seq` column counts rows.
    fn seq_rows(first: i64, n: i64) -> Vec<Row> {
        (first..first + n)
            .map(|i| Row::at(i).with("seq", i))
            .collect()
    }

    /// Row count and Σ`seq` of a table: a table holding exactly rows
    /// `0..n` answers `(n, n(n-1)/2)`.
    fn count_and_seq_sum(s: &LeafServer, table: &str) -> (u64, f64) {
        let q = Query::new(table, 0, i64::MAX)
            .aggregates(vec![AggSpec::Count, AggSpec::Sum("seq".into())]);
        let r = s.query(&q).unwrap();
        let sum = r
            .groups
            .values()
            .next()
            .map_or(Value::Double(0.0), |a| a[1].finish());
        match sum {
            Value::Double(sum) => (r.rows_matched, sum),
            other => panic!("sum is {other:?}"),
        }
    }

    fn exact_prefix(n: u64) -> (u64, f64) {
        (n, (n * n.saturating_sub(1) / 2) as f64)
    }

    /// Take a checkpoint and let the worker commit it, but never drain the
    /// outcome: the state a crash finds between the worker's commit and
    /// the server's unlink of the covered segments.
    fn commit_without_draining(s: &mut LeafServer) {
        assert!(s.request_checkpoint());
        let outcome = s.checkpointer.as_ref().unwrap().wait_done().unwrap();
        assert!(outcome.result.is_ok(), "{:?}", outcome.result);
    }

    /// Under continuous ingest the log holds about one checkpoint interval,
    /// not everything since the last quiet moment: each committed cycle
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
                commits += usize::from(s.apply_checkpoint_outcome(outcome).is_ok());
            }
            if s.checkpoint_inflight {
                finished = s.checkpointer.as_ref().unwrap().wait_done();
            }
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
        let covered = s.wal.as_ref().unwrap().seqs();
        let stale: Vec<_> = covered
            .iter()
            .map(|&seq| {
                let path = scuba_restart::wal::segment_path(&wal_dir, seq);
                (path.clone(), std::fs::read(path).unwrap())
            })
            .collect();
        s.checkpoint_and_wait().unwrap();
        s.wal.as_mut().unwrap().wait_unlinked().unwrap();
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
        let first = s.wal.as_ref().unwrap().seqs()[0];
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

    /// Tentpole acceptance + the drop-ordering regression (a dying
    /// process must never unlink the live checkpoint image): checkpoint,
    /// ingest a WAL tail, crash — the replacement attaches the warm image
    /// and replays just the tail.
    #[test]
    fn crash_recovers_fast_from_checkpoint_plus_wal_tail() {
        let (cfg, dir) = crash_config("ckfast");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 400);
        s.sync_disk().unwrap();
        s.checkpoint_and_wait().unwrap();
        s.wal.as_mut().unwrap().wait_unlinked().unwrap();
        assert_eq!(wal_batches(&cfg), 0, "the checkpoint left covered batches");
        assert_eq!(s.wal.as_ref().unwrap().seqs().len(), 1);
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

    /// A torn WAL tail (partial last record) replays the durable prefix
    /// and stops cleanly at the last intact record — no fallback.
    #[test]
    fn torn_wal_tail_replays_durable_prefix() {
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

        scuba_faults::configure("restart::wal::append", "error@1").unwrap();
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

    /// Steady-state serving with auto-checkpointing: the image trails by
    /// at most the interval, the crash recovers everything up to the last
    /// WAL record, and repeated crashes flip the image parity.
    #[test]
    fn auto_checkpoint_and_repeated_crashes() {
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
    /// torn down, the planned backup image restores, and no checkpoint
    /// segment or WAL byte is left behind.
    #[test]
    fn clean_shutdown_supersedes_checkpoint_image() {
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
        for parity in 0..2u32 {
            for index in 0..8 {
                assert!(
                    !scuba_shmem::ShmSegment::exists(&ns.checkpoint_segment_name(parity, index)),
                    "orphan checkpoint segment k{parity}_{index}"
                );
            }
        }
        let (s2, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(outcome.is_memory());
        assert!(!s2.recovered_from_checkpoint());
        assert_eq!(s2.total_rows(), 300);
    }

    /// Expiry invalidates the crash path (the image's immutable prefix
    /// changed): a crash right after expire goes to disk, and the next
    /// checkpoint rebuilds a fresh image.
    #[test]
    fn expire_resets_crash_path() {
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

    /// REVIEW (high): rows that came back through WAL replay must reach
    /// the disk backup during recovery — a later disk-path recovery (the
    /// WAL is cleared by then) must still surface them.
    #[test]
    fn wal_replayed_rows_reach_disk_backup() {
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

    // ---- tiered storage ----

    fn tiered_config(tag: &str, budget: usize) -> (LeafConfig, PathBuf) {
        let (mut cfg, dir) = test_config(tag);
        cfg.tiering = TieringMode::Sieve;
        cfg.memory_budget_bytes = budget;
        (cfg, dir)
    }

    /// Ingest `batches * rows_per` rows of high-entropy data (unique
    /// strings defeat the dictionary encoder, so blocks actually weigh
    /// something). Each over-budget batch makes the ingest-path tiering
    /// pass seal and demote, leaving one cold block per batch.
    fn fill_wide(server: &mut LeafServer, batches: usize, rows_per: i64) {
        for b in 0..batches as i64 {
            let base = b * rows_per;
            let batch: Vec<Row> = (base..base + rows_per)
                .map(|i| {
                    Row::at(i)
                        .with("sev", if i % 10 == 0 { "error" } else { "info" })
                        .with(
                            "msg",
                            format!("payload-{i:08}-{:07}", i * 2654435761 % 9999991),
                        )
                })
                .collect();
            server.add_rows("logs", &batch, 0).unwrap();
        }
    }

    /// The core tentpole claim: a leaf under a memory budget demotes cold
    /// blocks to disk, keeps heap+shm within budget, and answers queries
    /// byte-identically to an untiered leaf over the same rows.
    #[test]
    fn tiering_demotes_to_budget_and_preserves_results() {
        let budget = 16 * 1024;
        let (cfg, dir) = tiered_config("tier_budget", budget);
        let mut s = LeafServer::new(cfg).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill_wide(&mut s, 5, 1000);
        s.poll_tiering().unwrap();
        assert!(s.cold_blocks() > 0, "no blocks were demoted");
        assert!(s.cold_bytes() > 0);
        let resident = s.memory_used() + s.shm_resident();
        assert!(
            resident <= budget,
            "resident {resident} exceeds budget {budget}"
        );

        // Same rows through an untiered leaf: results must be identical.
        let (cfg_u, dir_u) = test_config("tier_budget_ref");
        let mut u = LeafServer::new(cfg_u).unwrap();
        let _cu = Cleanup(u.namespace().clone(), dir_u);
        fill_wide(&mut u, 5, 1000);
        let q = Query::new("logs", 0, 10_000)
            .group_by("sev")
            .aggregates(vec![AggSpec::Count]);
        let rt = s.query(&q).unwrap();
        let ru = u.query(&q).unwrap();
        assert_eq!(rt.rows_matched, ru.rows_matched);
        for (key, aggs) in &ru.groups {
            let t_aggs = &rt.groups[key];
            assert_eq!(t_aggs[0].finish(), aggs[0].finish(), "group {key:?}");
        }
    }

    /// SIEVE promotion: a cold block touched by repeated scans comes back
    /// to the heap, and a table whose last cold block promoted sheds its
    /// fast-format file.
    #[test]
    fn repeatedly_touched_cold_blocks_promote() {
        let (cfg, dir) = tiered_config("tier_promote", 8 * 1024);
        let mut s = LeafServer::new(cfg).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill_wide(&mut s, 3, 1000);
        s.poll_tiering().unwrap();
        let before = s.cold_blocks();
        assert!(before > 0, "no blocks were demoted");

        // Lift the budget so promotions stick instead of re-demoting.
        s.config.memory_budget_bytes = 0;
        let q = Query::new("logs", 0, 10_000);
        s.query(&q).unwrap();
        s.query(&q).unwrap(); // second touch queues promotion
        s.poll_tiering().unwrap();
        assert!(
            s.cold_blocks() < before,
            "no promotions applied (still {before} cold)"
        );
        assert_eq!(s.query(&q).unwrap().rows_matched, 3000);
        if s.cold_blocks() == 0 {
            assert!(
                s.cold.tables().unwrap().is_empty(),
                "fully-promoted table kept its cold file"
            );
        }
    }

    /// A fault at the cold-append failpoint must leave the victim hot —
    /// data keeps serving from the heap and the next pass retries.
    #[test]
    fn cold_write_fault_leaves_blocks_hot() {
        let _x = scuba_faults::exclusive();
        scuba_faults::clear_all();
        let (cfg, dir) = tiered_config("tier_wfault", 4 * 1024);
        let mut s = LeafServer::new(cfg).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        {
            let _g = scuba_faults::guard("diskstore::fastformat::write", "error").unwrap();
            fill_wide(&mut s, 2, 1000);
            s.poll_tiering().unwrap();
            assert_eq!(s.cold_blocks(), 0, "demotion succeeded under a write fault");
        }
        let q = Query::new("logs", 0, 10_000);
        assert_eq!(s.query(&q).unwrap().rows_matched, 2000);
        // Fault cleared: the next pass demotes.
        s.poll_tiering().unwrap();
        assert!(s.cold_blocks() > 0, "retry after fault never demoted");
        assert_eq!(s.query(&q).unwrap().rows_matched, 2000);
    }

    /// Same at the cold-mmap failpoint (the map step right after a
    /// successful append): the victim stays hot, the next pass retries.
    #[test]
    fn cold_mmap_fault_leaves_blocks_hot() {
        let _x = scuba_faults::exclusive();
        scuba_faults::clear_all();
        let (cfg, dir) = tiered_config("tier_mfault", 4 * 1024);
        let mut s = LeafServer::new(cfg).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        {
            let _g = scuba_faults::guard("diskstore::fastformat::mmap", "error").unwrap();
            fill_wide(&mut s, 2, 1000);
            s.poll_tiering().unwrap();
            assert_eq!(s.cold_blocks(), 0, "demotion succeeded under an mmap fault");
        }
        let q = Query::new("logs", 0, 10_000);
        assert_eq!(s.query(&q).unwrap().rows_matched, 2000);
        s.poll_tiering().unwrap();
        assert!(s.cold_blocks() > 0, "retry after fault never demoted");
        assert_eq!(s.query(&q).unwrap().rows_matched, 2000);
    }

    /// A tiered leaf with some cold blocks, one of them stomped mid-image
    /// on disk (the mapping is MAP_SHARED, so the running leaf sees the
    /// rot) — which lands in the fat `msg` column. Returns the stomped
    /// block's cold ref.
    fn leaf_with_corrupt_cold_msg(tag: &str) -> (LeafServer, Cleanup, ColdRef) {
        let (cfg, dir) = tiered_config(tag, 8 * 1024);
        let mut s = LeafServer::new(cfg).unwrap();
        let cleanup = Cleanup(s.namespace().clone(), dir);
        fill_wide(&mut s, 2, 1000);
        let other: Vec<Row> = (0..100).map(Row::at).collect();
        s.add_rows("other", &other, 0).unwrap();
        s.sync_disk().unwrap();
        s.poll_tiering().unwrap();
        let cr = s
            .store()
            .map()
            .get("logs")
            .unwrap()
            .blocks()
            .iter()
            .find_map(|b| b.cold_ref().cloned())
            .expect("a cold block");
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut f = std::fs::OpenOptions::new()
                .write(true)
                .open(&cr.path)
                .unwrap();
            f.seek(SeekFrom::Start(cr.offset + cr.len / 2)).unwrap();
            f.write_all(&[0xFF; 16]).unwrap();
            f.sync_all().unwrap();
        }
        assert_eq!(corrupt_column_of(&s, "logs"), "msg");
        (s, cleanup, cr)
    }

    /// Column-granular first touch on the cold tier: queries that do not
    /// read the corrupt column answer, and leave it unverified; one that
    /// reads it fails closed and condemns only that table — the next
    /// tiering pass rebuilds it from the disk row log (§4.3 conservatism,
    /// narrowed per-table): no wedge, no other table disturbed.
    #[test]
    fn corrupt_unread_cold_column_fails_only_the_queries_that_read_it() {
        let _x = scuba_faults::exclusive();
        scuba_faults::clear_all();
        let (mut s, _c, cr) = leaf_with_corrupt_cold_msg("tier_colgran");

        let count = Query::new("logs", 0, 10_000);
        assert_eq!(s.query(&count).unwrap().rows_matched, 2000);
        let by_sev = count.clone().group_by("sev");
        assert_eq!(s.query(&by_sev).unwrap().groups.len(), 2);
        let cold = s
            .store()
            .map()
            .get("logs")
            .unwrap()
            .blocks()
            .iter()
            .find(|b| b.cold_ref() == Some(&cr))
            .cloned()
            .expect("still cold: one count is one touch");
        assert!(cold.column("time").unwrap().is_verified());
        assert!(cold.column("sev").unwrap().is_verified());
        assert!(!cold.column("msg").unwrap().is_verified());

        let over_msg = count
            .clone()
            .aggregates(vec![AggSpec::CountDistinct("msg".into())]);
        let err = s.query(&over_msg).unwrap_err().to_string();
        assert!(err.contains("cold scan condemned"), "{err}");
        // Budget off so the pass doesn't immediately re-demote the rebuilt
        // table (which would legitimately recreate the file).
        s.config.memory_budget_bytes = 0;
        s.poll_tiering().unwrap();
        let r = s.query(&over_msg).unwrap();
        assert_eq!(r.rows_matched, 2000);
        assert_eq!(r.groups[&GroupKey::Null][0].finish(), Value::Int(2000));
        assert_eq!(
            s.query(&Query::new("other", 0, 10_000))
                .unwrap()
                .rows_matched,
            100,
            "unrelated table disturbed by the fallback"
        );
        assert!(!cr.path.exists(), "condemned table kept its cold file");
    }

    /// ... and when no query ever reads the corrupt cold column, the
    /// whole-block check before promotion's copy still finds it.
    #[test]
    fn corrupt_cold_column_nobody_queried_condemns_at_promotion() {
        let _x = scuba_faults::exclusive();
        scuba_faults::clear_all();
        let (mut s, _c, cr) = leaf_with_corrupt_cold_msg("tier_colpromo");

        let count = Query::new("logs", 0, 10_000);
        s.config.memory_budget_bytes = 0; // let promotions stick
        assert_eq!(s.query(&count).unwrap().rows_matched, 2000);
        assert_eq!(s.query(&count).unwrap().rows_matched, 2000); // queues promotion
        s.poll_tiering().unwrap();
        // The corrupt image never reached the heap: the table was rebuilt
        // from the disk log instead, and its cold file dropped.
        assert!(!cr.path.exists(), "condemned table kept its cold file");
        let over_msg = count.aggregates(vec![AggSpec::CountDistinct("msg".into())]);
        let r = s.query(&over_msg).unwrap();
        assert_eq!(r.groups[&GroupKey::Null][0].finish(), Value::Int(2000));
    }

    /// Shutdown/restart re-attaches both tiers: cold blocks come back as
    /// cold blocks (no rehydration, no copying) and queries still match.
    #[test]
    fn tiered_shutdown_restart_reattaches_cold_tier() {
        let (cfg, dir) = tiered_config("tier_cycle", 8 * 1024);
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill_wide(&mut s, 3, 1000);
        s.poll_tiering().unwrap();
        let cold_blocks = s.cold_blocks();
        let cold_bytes = s.cold_bytes();
        assert!(cold_blocks > 0, "no blocks were demoted");

        s.shutdown_to_shm(10).unwrap();
        drop(s);
        let (s2, outcome) = LeafServer::start(cfg, 20, None).unwrap();
        assert!(outcome.is_memory(), "{outcome:?}");
        assert_eq!(
            s2.cold_blocks(),
            cold_blocks,
            "cold tier not re-attached as cold"
        );
        assert_eq!(s2.cold_bytes(), cold_bytes);
        let r = s2.query(&Query::new("logs", 0, 10_000)).unwrap();
        assert_eq!(r.rows_matched, 3000);
    }

    mod budget_prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]

            /// The budget is a hard ceiling under any ingest shape: after
            /// every tiering pass, either heap+shm fit the budget or the
            /// leaf has demoted everything demotable (only unsealed or
            /// zone-less bytes remain). Row totals and query results are
            /// never affected by where the blocks live.
            #[test]
            fn budget_never_exceeded_by_any_ingest_shape(
                batches in 1usize..5,
                rows_per in 100i64..400,
                budget_kib in 1usize..32,
            ) {
                let budget = budget_kib * 1024;
                let (cfg, dir) = tiered_config("tier_prop", budget);
                let mut s = LeafServer::new(cfg).unwrap();
                let _c = Cleanup(s.namespace().clone(), dir);
                for b in 0..batches as i64 {
                    let base = b * rows_per;
                    let batch: Vec<Row> = (base..base + rows_per)
                        .map(|i| {
                            Row::at(i).with(
                                "msg",
                                format!("payload-{i:08}-{:07}", i * 2654435761 % 9999991),
                            )
                        })
                        .collect();
                    s.add_rows("logs", &batch, 0).unwrap();
                    // add_rows ran a tiering pass; the invariant holds at
                    // every batch boundary, not just at the end.
                    let resident = s.memory_used() + s.shm_resident();
                    if resident > budget {
                        let t = s.store().map().get("logs").unwrap();
                        let demotable = t
                            .blocks()
                            .iter()
                            .filter(|b| !b.is_cold() && b.zones().is_some())
                            .count();
                        prop_assert!(
                            demotable == 0,
                            "over budget ({} > {}) with {} demotable blocks left",
                            resident,
                            budget,
                            demotable
                        );
                    }
                }
                let total = (batches as i64 * rows_per) as u64;
                let r = s.query(&Query::new("logs", 0, i64::MAX)).unwrap();
                prop_assert_eq!(r.rows_matched, total);
            }
        }
    }
}
