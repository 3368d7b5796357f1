//! Continuous incremental checkpointing: keep the shared-memory image
//! warm *during normal serving*, so a crash can recover via attach + WAL
//! tail replay instead of the paper's hours-long disk path.
//!
//! The paper only writes the shm image at planned shutdown and refuses to
//! trust it after a crash (§4.3). This module removes that limitation the
//! way the consistent-snapshot literature (arXiv:1810.04915) suggests: the
//! image is rebuilt *incrementally* under the same valid-bit protocol the
//! shutdown backup uses, so at any instant it is either (a) committed and
//! CRC-framed — crash recovery attaches it — or (b) mid-update with the
//! valid bit false — crash recovery falls back to disk, exactly as if the
//! image were absent. There is no third state.
//!
//! Incrementality exploits the store's own invariant: sealed row blocks
//! are immutable. Each table's checkpoint segment caches where its sealed
//! frames end; a steady-state cycle appends newly-sealed blocks there,
//! rewrites only the open-block tail + END frame, and patches the
//! manifest's block count in place. Unchanged tables are skipped outright.
//! Schema changes and expiry (sealed blocks disappearing) force a full
//! per-table rewrite.
//!
//! Checkpoint segments use their own name family
//! ([`ShmNamespace::checkpoint_segment_name`]) with a **parity** that
//! flips each process generation: a recovering process may still hold its
//! predecessor's segments through unlink-on-last-drop [`SegmentView`]s
//! (two-phase attach), and those views must never unlink the warm image
//! the *new* generation is building. Each segment's stream is written by
//! the shutdown backup's own writer ([`image::write_manifest`],
//! [`image::write_block`]) through the one segment writer
//! ([`SegmentWriter`]: `pwrite` into the segment's descriptor, one
//! `ftruncate` at the end of a cycle), so it is byte-identical to the
//! backup's image of the same blocks (`tests/format_compat.rs` pins both
//! to one golden fixture) and the existing restore, attach, and hydration
//! machinery consumes a checkpoint image unchanged.
//!
//! [`SegmentView`]: scuba_shmem::SegmentView

use std::collections::BTreeMap;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use scuba_columnstore::{RowBlock, Schema};
use scuba_restart::framing::{end_header_v2, FRAME_HEADER_V2, TAG_UNIT_NAME};
use scuba_restart::migrate::CURRENT_IMAGE_MIN_READER;
use scuba_restart::{ChunkDesc, ChunkSink, SHM_LAYOUT_VERSION};
use scuba_shmem::{LeafMetadata, SegmentEntry, SegmentWriter, ShmNamespace, ShmResult, ShmSegment};

use crate::image::{self, Frontier, MANIFEST_VERSION};
use crate::persist::LeafStore;

/// Registry-entry flag marking a segment as part of the continuous
/// checkpoint image (vs a planned-shutdown backup). Readers tolerate
/// unknown flag bits, so pre-checkpoint binaries still restore the image.
pub const SEG_FLAG_CHECKPOINT: u32 = 0x100;

/// How far the worker sweeps its own parity for stale segments before the
/// first cycle (leftovers of a crashed generation two restarts back).
/// `LeafServer::new` uses the same cap for its first-boot sweep of a dead
/// predecessor's image.
pub(crate) const STALE_SWEEP: usize = 64;

/// An immutable capture of one table, taken on the serving thread and
/// shipped to the checkpoint worker. Sealed blocks are `Arc`-shared (no
/// copy); the open block is a one-off snapshot of the builder.
#[derive(Debug)]
pub struct TableSnapshot {
    /// Table name (the unit name frame).
    pub name: String,
    /// Sealed, immutable blocks in order.
    pub sealed: Vec<Arc<RowBlock>>,
    /// Snapshot of the in-progress builder, if it holds any rows.
    pub open: Option<RowBlock>,
    /// Total rows (sealed + open) at snapshot time.
    pub rows: u64,
    /// Union schema across sealed and open blocks (the manifest schema).
    pub schema: Schema,
}

/// One checkpoint request: a consistent multi-table snapshot plus the
/// WAL segment the server rotated to at the same instant. Every record in
/// an older segment is in the snapshot, so once the cycle commits the
/// server unlinks them.
#[derive(Debug)]
pub struct CheckpointJob {
    /// Per-table snapshots, name order.
    pub tables: Vec<TableSnapshot>,
    /// First WAL segment the snapshot does *not* cover.
    pub covered_seq: u64,
}

/// What one committed checkpoint cycle did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Tables in the committed image.
    pub tables: usize,
    /// Sealed blocks now covered by the image (across all tables).
    pub sealed_blocks: usize,
    /// Rows covered by the image.
    pub rows: u64,
    /// Bytes actually written this cycle (the incrementality metric).
    pub bytes_written: u64,
    /// Tables skipped as unchanged.
    pub skipped: usize,
    /// Tables fully rewritten (new, schema change, or expiry).
    pub full_rewrites: usize,
}

/// Completion message for one cycle.
#[derive(Debug)]
pub struct CheckpointOutcome {
    /// The job's [`CheckpointJob::covered_seq`].
    pub covered_seq: u64,
    /// Stats on success; on failure the image has been marked invalid and
    /// the next cycle rebuilds it from scratch.
    pub result: Result<CheckpointStats, String>,
}

/// Build the per-table snapshots for a checkpoint job from the live
/// store. Called on the serving thread; cost is `Arc` clones for sealed
/// blocks plus one builder snapshot per table with open rows.
pub fn snapshot_tables(store: &LeafStore) -> Result<Vec<TableSnapshot>, crate::LeafError> {
    let mut out = Vec::new();
    for t in store.map().iter() {
        let open = t.unsealed_snapshot()?;
        let mut schema = t.schema_snapshot();
        if let Some(block) = &open {
            // The open block may carry columns no sealed block has yet;
            // the manifest schema is the union (first-seen type wins,
            // matching `Table::schema_snapshot`).
            for (name, ty) in block.schema().iter() {
                let _ = schema.add_column(name, ty);
            }
        }
        out.push(TableSnapshot {
            name: t.name().to_owned(),
            sealed: t.blocks().to_vec(),
            open,
            rows: t.row_count() as u64,
            schema,
        });
    }
    Ok(out)
}

enum CkMsg {
    Checkpoint(CheckpointJob),
    Teardown,
}

/// Handle to the background checkpoint worker. Three ways down:
///
/// * [`Checkpointer::teardown`] — planned: unlink the image and exit
///   (called before a shutdown backup reuses the metadata name);
/// * [`Checkpointer::abandon`] — crash: exit **without unlinking**, so
///   the committed image survives for the next process;
/// * plain drop — same as abandon (never destroys a possibly-live image).
#[derive(Debug)]
pub struct Checkpointer {
    tx: Option<Sender<CkMsg>>,
    /// Completion stream from the worker. Mutex-wrapped so the owning
    /// server stays `Sync` (concurrent readers share `&LeafServer`);
    /// only the server's own polls ever take the lock.
    done_rx: Mutex<Receiver<CheckpointOutcome>>,
    worker: Option<JoinHandle<()>>,
    parity: u32,
}

impl Checkpointer {
    /// Spawn the worker for `ns`, building the image under checkpoint
    /// names of the given `parity`.
    pub fn spawn(ns: ShmNamespace, parity: u32) -> Checkpointer {
        let (tx, rx) = mpsc::channel::<CkMsg>();
        let (done_tx, done_rx) = mpsc::channel::<CheckpointOutcome>();
        let worker = std::thread::Builder::new()
            .name(format!("ckpt-leaf{}", ns.leaf_id()))
            .spawn(move || {
                let mut w = Worker::new(ns, parity);
                while let Ok(msg) = rx.recv() {
                    match msg {
                        CkMsg::Checkpoint(job) => {
                            let covered_seq = job.covered_seq;
                            let result = w.run_cycle(job);
                            if result.is_err() {
                                w.reset_after_failure();
                            }
                            let _ = done_tx.send(CheckpointOutcome {
                                covered_seq,
                                result,
                            });
                        }
                        CkMsg::Teardown => {
                            w.teardown();
                            break;
                        }
                    }
                }
                // Channel closed without Teardown (abandon / crash): exit
                // leaving every segment linked — the committed image is
                // the next process's fast path.
            })
            .expect("spawn checkpoint worker");
        Checkpointer {
            tx: Some(tx),
            done_rx: Mutex::new(done_rx),
            worker: Some(worker),
            parity,
        }
    }

    /// The parity this worker writes under.
    pub fn parity(&self) -> u32 {
        self.parity
    }

    /// Queue a checkpoint cycle. Returns false if the worker is gone.
    pub fn request(&self, job: CheckpointJob) -> bool {
        match &self.tx {
            Some(tx) => tx.send(CkMsg::Checkpoint(job)).is_ok(),
            None => false,
        }
    }

    /// Non-blocking poll for a finished cycle.
    pub fn try_done(&self) -> Option<CheckpointOutcome> {
        self.done_rx.lock().unwrap().try_recv().ok()
    }

    /// Block until the next cycle finishes (None if the worker died).
    pub fn wait_done(&self) -> Option<CheckpointOutcome> {
        self.done_rx.lock().unwrap().recv().ok()
    }

    /// Planned teardown: unlink the whole checkpoint image (metadata +
    /// segments) and join the worker. Called before `shutdown_to_shm`
    /// writes its own image under the shared metadata name, and by
    /// `expire` when the image went stale.
    pub fn teardown(mut self) {
        if let Some(tx) = self.tx.take() {
            let _ = tx.send(CkMsg::Teardown);
            drop(tx);
        }
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }

    /// Crash-path teardown: join the worker **without** unlinking
    /// anything. The committed warm image must outlive the dying process —
    /// this is the `crash()`/drop-ordering fix: no destructor on this path
    /// touches a checkpoint segment name.
    pub fn abandon(mut self) {
        if let Some(tx) = self.tx.take() {
            drop(tx);
        }
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Drop for Checkpointer {
    fn drop(&mut self) {
        // Same contract as `abandon`: dropping the handle must never
        // destroy a possibly-live image.
        self.tx = None;
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// Cached layout of one table's checkpoint segment.
struct SegState {
    index: usize,
    name: String,
    segment: ShmSegment,
    /// The sealed blocks persisted, where their frames end (the start of
    /// the open/END tail) and where the manifest frame sits.
    frontier: Frontier,
    /// How many of those sealed blocks were cold (checkpointed as refs).
    /// Demotion swaps a block *inside* the immutable sealed prefix, so a
    /// changed cold count forces a full rewrite.
    cold_count: usize,
    /// Rows (sealed + open) covered by the committed frames.
    rows: u64,
    /// Serialized manifest schema (payload minus the block-count word);
    /// any difference forces a full rewrite.
    schema_bytes: Vec<u8>,
}

/// The background worker: owns the metadata handle, the per-table segment
/// cache, and the index allocator.
struct Worker {
    ns: ShmNamespace,
    parity: u32,
    meta: Option<LeafMetadata>,
    states: BTreeMap<String, SegState>,
    entries: Vec<SegmentEntry>,
    next_index: usize,
    free: Vec<usize>,
}

impl Worker {
    fn new(ns: ShmNamespace, parity: u32) -> Worker {
        Worker {
            ns,
            parity,
            meta: None,
            states: BTreeMap::new(),
            entries: Vec::new(),
            next_index: 0,
            free: Vec::new(),
        }
    }

    fn alloc_index(&mut self) -> usize {
        self.free.pop().unwrap_or_else(|| {
            self.next_index += 1;
            self.next_index - 1
        })
    }

    /// One checkpoint cycle under the valid-bit protocol: open the
    /// invalid window, write/patch segments, swap the registry if the
    /// segment set changed, commit. Any error leaves the valid bit false
    /// — crash recovery then takes the disk path, never a torn image.
    fn run_cycle(&mut self, job: CheckpointJob) -> Result<CheckpointStats, String> {
        let sw = scuba_obs::Stopwatch::start();
        if let Some(meta) = self.meta.as_mut() {
            meta.set_valid(false)
                .map_err(|e| format!("opening invalid window: {e}"))?;
        } else {
            // First cycle of this generation: clear stale state under our
            // parity (a crashed generation two restarts back) and create
            // the metadata region with the valid bit false.
            for i in 0..STALE_SWEEP {
                let _ = ShmSegment::unlink(&self.ns.checkpoint_segment_name(self.parity, i));
            }
            let _ = ShmSegment::unlink(&self.ns.metadata_name());
            let meta = LeafMetadata::create(&self.ns, SHM_LAYOUT_VERSION, CURRENT_IMAGE_MIN_READER)
                .map_err(|e| format!("creating checkpoint metadata: {e}"))?;
            self.meta = Some(meta);
        }

        // The invalid window is open: dying anywhere below costs only the
        // fast path, never fidelity.
        if scuba_faults::check("leaf::checkpoint::write").is_some() {
            return Err("injected fault at leaf::checkpoint::write".to_owned());
        }

        let mut stats = CheckpointStats {
            tables: job.tables.len(),
            sealed_blocks: 0,
            rows: 0,
            bytes_written: 0,
            skipped: 0,
            full_rewrites: 0,
        };

        // Drop tables that left the store (expiry / removal).
        let live: std::collections::BTreeSet<&str> =
            job.tables.iter().map(|t| t.name.as_str()).collect();
        let gone: Vec<String> = self
            .states
            .keys()
            .filter(|n| !live.contains(n.as_str()))
            .cloned()
            .collect();
        for name in gone {
            if let Some(st) = self.states.remove(&name) {
                let _ = ShmSegment::unlink(&st.name);
                self.free.push(st.index);
            }
        }

        for snap in &job.tables {
            stats.sealed_blocks += snap.sealed.len();
            stats.rows += snap.rows;
            let schema_bytes = {
                let mut b = Vec::with_capacity(snap.schema.serialized_size());
                snap.schema.serialize(&mut b);
                b
            };
            enum Action {
                Skip,
                Incremental,
                Full,
            }
            let cold_count = snap.sealed.iter().filter(|b| b.is_cold()).count();
            let action = match self.states.get(&snap.name) {
                // Append-only store: equal row, sealed-block, and cold
                // counts mean nothing changed.
                Some(st)
                    if st.rows == snap.rows
                        && st.frontier.blocks == snap.sealed.len()
                        && st.cold_count == cold_count =>
                {
                    Action::Skip
                }
                // The incremental path appends after the persisted prefix,
                // so the *prefix* must be untouched: same schema and no
                // demotion among the first `frontier.blocks` blocks (appended
                // blocks may be cold — `write_block` handles them).
                Some(st)
                    if st.schema_bytes == schema_bytes
                        && st.frontier.blocks <= snap.sealed.len()
                        && snap.sealed[..st.frontier.blocks]
                            .iter()
                            .filter(|b| b.is_cold())
                            .count()
                            == st.cold_count =>
                {
                    Action::Incremental
                }
                // New table, schema change, expiry, or a demotion inside
                // the sealed prefix: full rewrite.
                _ => Action::Full,
            };
            match action {
                Action::Skip => stats.skipped += 1,
                Action::Incremental => {
                    let st = self.states.get_mut(&snap.name).expect("present");
                    let written = incremental_write(st, snap)
                        .map_err(|e| format!("checkpointing {:?}: {e}", snap.name))?;
                    stats.bytes_written += written;
                }
                Action::Full => {
                    if !self.states.contains_key(&snap.name) {
                        let index = self.alloc_index();
                        let name = self.ns.checkpoint_segment_name(self.parity, index);
                        let _ = ShmSegment::unlink(&name);
                        let segment = ShmSegment::create(&name, 0)
                            .map_err(|e| format!("creating {name:?}: {e}"))?;
                        self.states.insert(
                            snap.name.clone(),
                            SegState {
                                index,
                                name,
                                segment,
                                frontier: Frontier {
                                    blocks: 0,
                                    end: 0,
                                    manifest_off: 0,
                                },
                                cold_count: 0,
                                rows: 0,
                                schema_bytes: Vec::new(),
                            },
                        );
                    }
                    let st = self.states.get_mut(&snap.name).expect("just inserted");
                    let written = full_write(st, snap, schema_bytes)
                        .map_err(|e| format!("checkpointing {:?}: {e}", snap.name))?;
                    stats.bytes_written += written;
                    stats.full_rewrites += 1;
                }
            }
        }

        // Registry swap, still inside the invalid window.
        let mut entries: Vec<(usize, SegmentEntry)> = self
            .states
            .values()
            .map(|st| {
                (
                    st.index,
                    SegmentEntry {
                        name: st.name.clone(),
                        format_version: MANIFEST_VERSION as u32,
                        flags: SEG_FLAG_CHECKPOINT,
                    },
                )
            })
            .collect();
        entries.sort_by_key(|(i, _)| *i);
        let entries: Vec<SegmentEntry> = entries.into_iter().map(|(_, e)| e).collect();
        let meta = self.meta.as_mut().expect("created above");
        if entries != self.entries {
            meta.replace_segments(entries.clone())
                .map_err(|e| format!("swapping checkpoint registry: {e}"))?;
            self.entries = entries;
        }

        // Commit: the image flips from "mid-update" to "attachable".
        meta.set_valid(true)
            .map_err(|e| format!("committing checkpoint: {e}"))?;
        if scuba_obs::enabled() {
            scuba_obs::counter!("leaf_checkpoints_total").inc();
            scuba_obs::gauge!("leaf_checkpoint_last_write_ns").set(sw.elapsed_ns() as i64);
        }
        Ok(stats)
    }

    /// After a failed cycle the per-table cache may describe half-written
    /// segments. Start the next cycle from scratch: the first-cycle path
    /// re-sweeps our parity and recreates the metadata region. The valid
    /// bit is already false (the cycle died inside the invalid window, or
    /// never opened it), so crash recovery meanwhile takes the disk path.
    fn reset_after_failure(&mut self) {
        if scuba_obs::enabled() {
            scuba_obs::counter!("leaf_checkpoint_failures_total").inc();
        }
        self.meta = None;
        self.states.clear();
        self.entries.clear();
        self.next_index = 0;
        self.free.clear();
    }

    /// Planned teardown: the image is redundant (a shutdown backup or a
    /// disk-only exit follows), so unlink everything this worker created.
    fn teardown(&mut self) {
        if self.meta.is_some() {
            let _ = ShmSegment::unlink(&self.ns.metadata_name());
        }
        for st in self.states.values() {
            let _ = ShmSegment::unlink(&st.name);
        }
        self.meta = None;
        self.states.clear();
        self.entries.clear();
    }
}

fn block_count(snap: &TableSnapshot) -> u64 {
    snap.sealed.len() as u64 + u64::from(snap.open.is_some())
}

/// Serialize the whole table into its segment from offset 0 — the same
/// stream the shutdown backup writes: name frame, manifest, the blocks
/// (the open block, if any, serialized as a final ordinary block), END.
/// Returns bytes written.
fn full_write(st: &mut SegState, snap: &TableSnapshot, schema_bytes: Vec<u8>) -> ShmResult<u64> {
    let mut w = SegmentWriter::new(&mut st.segment);
    w.put_chunk(ChunkDesc::new(TAG_UNIT_NAME, 1), snap.name.as_bytes())?;
    let manifest_off = w.position();
    image::write_manifest(block_count(snap), &snap.schema, &mut w)?;
    for block in &snap.sealed {
        image::write_block(block, &mut w)?;
    }
    let end = w.position();
    if let Some(open) = &snap.open {
        image::write_block(open, &mut w)?;
    }
    w.write(&end_header_v2())?;
    let used = w.position();
    w.finish()?;
    st.frontier = Frontier {
        blocks: snap.sealed.len(),
        end,
        manifest_off,
    };
    st.cold_count = snap.sealed.iter().filter(|b| b.is_cold()).count();
    st.rows = snap.rows;
    st.schema_bytes = schema_bytes;
    Ok(used as u64)
}

/// Steady-state incremental update through the one frontier appender
/// ([`image::append_at_frontier`]): blocks sealed since the last cycle go
/// at the cached sealed frontier, the open-block tail + END are rewritten
/// behind them, and the manifest's block count is patched in place. The
/// immutable prefix of sealed frames is never touched. Returns bytes
/// written.
fn incremental_write(st: &mut SegState, snap: &TableSnapshot) -> ShmResult<u64> {
    let mut w = SegmentWriter::at(&mut st.segment, st.frontier.end);
    let (frontier, written) = image::append_at_frontier(
        st.frontier,
        &snap.sealed,
        snap.open.as_ref(),
        &snap.schema,
        &mut w,
    )?;
    w.write(&end_header_v2())?;
    w.finish()?;
    st.frontier = frontier;
    st.cold_count = snap.sealed.iter().filter(|b| b.is_cold()).count();
    st.rows = snap.rows;
    Ok(written + FRAME_HEADER_V2 as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scuba_columnstore::Row;
    use scuba_restart::{restore_from_shm, RestoreError};
    use std::sync::atomic::{AtomicU32, Ordering};

    // Every test here runs cycles through `leaf::checkpoint::write`, which
    // one of them arms process-wide: each holds `scuba_faults::exclusive()`.

    static COUNTER: AtomicU32 = AtomicU32::new(0);

    fn test_ns() -> ShmNamespace {
        ShmNamespace::new(
            &format!("ckpt{}", std::process::id()),
            COUNTER.fetch_add(1, Ordering::Relaxed),
        )
        .unwrap()
    }

    struct Cleanup(ShmNamespace);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            self.0.unlink_all(16);
        }
    }

    fn ingest(store: &mut LeafStore, table: &str, base: i64, n: i64) {
        // High-entropy string payload so block size scales with rows and
        // fixed per-frame overheads stay negligible in the size asserts.
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                let t = base + i;
                Row::at(t).with("v", t).with(
                    "tag",
                    format!("payload-{:x}-{}", t.wrapping_mul(0x9E37_79B9), t),
                )
            })
            .collect();
        store.append_rows(table, &rows, 0).unwrap();
    }

    fn seal(store: &mut LeafStore, table: &str) {
        store.map_mut().get_mut(table).unwrap().seal(0).unwrap();
    }

    fn checkpoint(ck: &Checkpointer, store: &LeafStore, covered_seq: u64) -> CheckpointStats {
        let tables = snapshot_tables(store).unwrap();
        assert!(ck.request(CheckpointJob {
            tables,
            covered_seq
        }));
        let outcome = ck.wait_done().expect("worker alive");
        assert_eq!(outcome.covered_seq, covered_seq);
        outcome.result.expect("cycle committed")
    }

    fn restore_rows(ns: &ShmNamespace) -> (LeafStore, usize) {
        let mut fresh = LeafStore::new();
        restore_from_shm(&mut fresh, ns, SHM_LAYOUT_VERSION).unwrap();
        let rows = fresh.map().total_rows();
        (fresh, rows)
    }

    #[test]
    fn checkpoint_image_restores_sealed_and_open_rows() {
        let _x = scuba_faults::exclusive();
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let mut store = LeafStore::new();
        ingest(&mut store, "logs", 0, 500);
        store.seal_all(0).unwrap();
        ingest(&mut store, "logs", 500, 37); // open rows, never sealed
        ingest(&mut store, "metrics", 0, 80);

        let ck = Checkpointer::spawn(ns.clone(), 0);
        let stats = checkpoint(&ck, &store, 1);
        assert_eq!(stats.tables, 2);
        assert_eq!(stats.rows, 617);
        assert_eq!(stats.full_rewrites, 2);
        ck.abandon(); // crash path: image must survive

        let (fresh, rows) = restore_rows(&ns);
        assert_eq!(rows, 617);
        assert_eq!(fresh.map().get("logs").unwrap().row_count(), 537);
        assert_eq!(fresh.map().get("metrics").unwrap().row_count(), 80);
    }

    #[test]
    fn steady_state_cycles_are_incremental_and_skip_unchanged() {
        let _x = scuba_faults::exclusive();
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let mut store = LeafStore::new();
        ingest(&mut store, "logs", 0, 2000);
        store.seal_all(0).unwrap();
        ingest(&mut store, "quiet", 0, 50);

        let ck = Checkpointer::spawn(ns.clone(), 1);
        let first = checkpoint(&ck, &store, 1);
        assert_eq!(first.full_rewrites, 2);

        // Nothing changed: both tables skip, nothing written.
        let idle = checkpoint(&ck, &store, 2);
        assert_eq!(idle.skipped, 2);
        assert_eq!(idle.bytes_written, 0);

        // Seal a new block in one table (only that table — sealing all
        // would churn "quiet" too): its segment takes an append +
        // manifest patch, far smaller than its full image; the quiet
        // table still skips.
        ingest(&mut store, "logs", 2000, 300);
        seal(&mut store, "logs");
        let incr = checkpoint(&ck, &store, 3);
        assert_eq!(incr.skipped, 1);
        assert_eq!(incr.full_rewrites, 0);
        assert!(incr.bytes_written > 0);
        assert!(
            incr.bytes_written < first.bytes_written / 2,
            "incremental cycle wrote {} of a {}-byte image",
            incr.bytes_written,
            first.bytes_written
        );
        ck.abandon();

        let (fresh, rows) = restore_rows(&ns);
        assert_eq!(rows, 2350);
        assert_eq!(fresh.map().get("logs").unwrap().row_count(), 2300);
    }

    #[test]
    fn open_block_churn_rewrites_only_the_tail() {
        let _x = scuba_faults::exclusive();
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let mut store = LeafStore::new();
        ingest(&mut store, "logs", 0, 1000);
        store.seal_all(0).unwrap();

        let ck = Checkpointer::spawn(ns.clone(), 0);
        let first = checkpoint(&ck, &store, 1);

        // Open-block-only growth: no new sealed blocks, tail rewrite.
        ingest(&mut store, "logs", 1000, 10);
        let tail = checkpoint(&ck, &store, 2);
        assert_eq!(tail.full_rewrites, 0);
        assert!(tail.bytes_written < first.bytes_written / 2);
        ck.abandon();

        let (_, rows) = restore_rows(&ns);
        assert_eq!(rows, 1010);
    }

    #[test]
    fn schema_change_forces_full_rewrite_and_restores() {
        let _x = scuba_faults::exclusive();
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let mut store = LeafStore::new();
        ingest(&mut store, "logs", 0, 100);
        store.seal_all(0).unwrap();

        let ck = Checkpointer::spawn(ns.clone(), 0);
        checkpoint(&ck, &store, 1);

        // New column arrives: the manifest schema changes, so the table
        // takes the full-rewrite path.
        let rows: Vec<Row> = (0..40).map(|i| Row::at(100 + i).with("extra", i)).collect();
        store.append_rows("logs", &rows, 0).unwrap();
        store.seal_all(0).unwrap();
        let second = checkpoint(&ck, &store, 2);
        assert_eq!(second.full_rewrites, 1);
        ck.abandon();

        let (fresh, rows) = restore_rows(&ns);
        assert_eq!(rows, 140);
        let schema = fresh.map().get("logs").unwrap().schema_snapshot();
        assert!(schema.index_of("extra").is_some());
    }

    #[test]
    fn failed_cycle_leaves_invalid_image_then_recovers() {
        let _x = scuba_faults::exclusive();
        scuba_faults::clear_all();
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let mut store = LeafStore::new();
        ingest(&mut store, "logs", 0, 200);
        store.seal_all(0).unwrap();

        let ck = Checkpointer::spawn(ns.clone(), 0);
        checkpoint(&ck, &store, 1);

        // Wound the next cycle: it must leave the valid bit false, so a
        // crash now takes the disk path instead of a torn image.
        scuba_faults::configure("leaf::checkpoint::write", "error@1").unwrap();
        ingest(&mut store, "logs", 200, 10);
        let tables = snapshot_tables(&store).unwrap();
        assert!(ck.request(CheckpointJob {
            tables,
            covered_seq: 2
        }));
        let outcome = ck.wait_done().unwrap();
        assert!(outcome.result.is_err());
        scuba_faults::clear_all();
        {
            let mut probe = LeafStore::new();
            let err = restore_from_shm(&mut probe, &ns, SHM_LAYOUT_VERSION).unwrap_err();
            let RestoreError::Fallback(fb) = err;
            assert!(fb.reason.contains("valid bit"), "{}", fb.reason);
        }

        // The worker rebuilds from scratch on the next cycle.
        let rebuilt = checkpoint(&ck, &store, 3);
        assert_eq!(rebuilt.full_rewrites, 1);
        ck.abandon();
        let (_, rows) = restore_rows(&ns);
        assert_eq!(rows, 210);
    }

    #[test]
    fn teardown_unlinks_image_abandon_keeps_it() {
        let _x = scuba_faults::exclusive();
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let mut store = LeafStore::new();
        ingest(&mut store, "logs", 0, 50);

        let ck = Checkpointer::spawn(ns.clone(), 0);
        checkpoint(&ck, &store, 1);
        assert!(ShmSegment::exists(&ns.metadata_name()));
        assert!(ShmSegment::exists(&ns.checkpoint_segment_name(0, 0)));
        ck.teardown();
        assert!(!ShmSegment::exists(&ns.metadata_name()));
        assert!(!ShmSegment::exists(&ns.checkpoint_segment_name(0, 0)));

        let ck = Checkpointer::spawn(ns.clone(), 1);
        checkpoint(&ck, &store, 2);
        ck.abandon();
        assert!(ShmSegment::exists(&ns.metadata_name()));
        assert!(ShmSegment::exists(&ns.checkpoint_segment_name(1, 0)));
    }

    #[test]
    fn dropped_table_leaves_registry_and_segment() {
        let _x = scuba_faults::exclusive();
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let mut store = LeafStore::new();
        ingest(&mut store, "a", 0, 30);
        ingest(&mut store, "b", 0, 30);

        let ck = Checkpointer::spawn(ns.clone(), 0);
        checkpoint(&ck, &store, 1);

        store.map_mut().remove("a");
        let after = checkpoint(&ck, &store, 2);
        assert_eq!(after.tables, 1);
        ck.abandon();

        let (fresh, rows) = restore_rows(&ns);
        assert_eq!(rows, 30);
        assert!(fresh.map().get("a").is_none());
        assert!(fresh.map().get("b").is_some());
    }
}
