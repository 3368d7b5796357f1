//! Continuous checkpointing: keep the leaf's shared-memory image current
//! *during normal serving*, so a crash recovers by attaching it and
//! replaying the WAL tail instead of taking the paper's hours-long disk
//! path.
//!
//! The paper writes the image only at planned shutdown and refuses to
//! trust it after a crash (§4.3). A checkpoint cycle commits the same
//! image under the valid-bit protocol the shutdown backup uses, so at any
//! instant it is either (a) committed and CRC-framed — a crash start
//! attaches it — or (b) mid-update with the valid bit false — a crash start
//! takes the disk path, exactly as if the image were absent. There is no
//! third state, and only bytes a commit lists are trusted.
//!
//! There is one image, not a second one beside the planned image: each
//! table's segment is the one its record in the store names — the segment
//! a start attached, or one an earlier commit wrote. Sealed row blocks
//! are immutable and addressed by offset (§2.1), so a table that still
//! starts with the blocks its segment holds is extended at the segment's
//! frontier (`image::append_at_frontier`: the blocks sealed since, then the
//! open block and END behind them), and one whose rows did not change is
//! skipped; an append-only image forces no copy (arXiv:1810.04915). Any
//! other table — new, a changed schema, blocks expired, demoted or rebuilt
//! from disk — is written whole into a fresh table-segment name. The
//! serving thread decides per table (`LeafStore::target_images`) and
//! folds each commit back into the records (`LeafStore::commit_checkpoint`).
//!
//! The worker writes through the shutdown backup's own writer
//! ([`image::write_manifest`], [`image::write_block`]) and the one segment
//! writer ([`SegmentWriter`]: `pwrite` into the segment's descriptor, one
//! `ftruncate` at the end), so a table written whole is byte-identical to
//! the backup's image of the same blocks (`tests/format_compat.rs` pins
//! both to one golden fixture), and restore and attach read a checkpoint
//! image unchanged. It holds no segment and no metadata handle between
//! cycles: stopping it never touches the image.

use std::ops::Range;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;

use scuba_columnstore::{RowBlock, Schema};
use scuba_restart::framing::{end_header_v2, FRAME_HEADER_V2, TAG_UNIT_NAME};
use scuba_restart::migrate::CURRENT_IMAGE_MIN_READER;
use scuba_restart::{ChunkDesc, ChunkSink, SHM_LAYOUT_VERSION};
use scuba_shmem::{LeafMetadata, SegmentEntry, SegmentWriter, ShmNamespace, ShmResult, ShmSegment};

use crate::image::{self, Frontier, MANIFEST_VERSION};
use crate::persist::LeafStore;

/// Registry-entry flag marking a segment as part of a checkpoint image
/// (vs a planned-shutdown backup): a start that attaches it replays the
/// WAL tail on top. Readers tolerate unknown flag bits, so pre-checkpoint
/// binaries still restore the image.
pub const SEG_FLAG_CHECKPOINT: u32 = 0x100;

/// How one cycle writes a table into its segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Write {
    /// Whole, into a fresh segment.
    Whole,
    /// Behind the image's sealed frontier.
    Append(Frontier),
    /// Not at all: the segment already holds exactly these rows.
    Skip(Frontier),
}

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
    /// The table's image segment.
    pub(crate) segment: String,
    /// How the cycle writes it there.
    pub(crate) write: Write,
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
    /// Tables written whole into a fresh segment.
    pub full_rewrites: usize,
}

/// What a committed cycle left in one table's segment: what the store's
/// record of the table's image advances to.
#[derive(Debug)]
pub(crate) struct TableWrite {
    pub(crate) table: String,
    pub(crate) segment: String,
    /// Written whole into a fresh segment (else appended, or skipped).
    pub(crate) whole: bool,
    /// Where the segment's sealed frames end now.
    pub(crate) frontier: Frontier,
    /// The manifest's schema snapshot, serialized.
    pub(crate) schema: Vec<u8>,
    /// The sealed blocks written this cycle, with their frames' bytes.
    pub(crate) blocks: Vec<(Weak<RowBlock>, Range<usize>)>,
    /// Rows the segment's frames hold, open block included.
    pub(crate) rows: u64,
}

/// Completion message for one cycle.
#[derive(Debug)]
pub struct CheckpointOutcome {
    /// The job's [`CheckpointJob::covered_seq`].
    pub covered_seq: u64,
    /// Stats on success; on failure the image's valid bit is false until
    /// the next cycle commits.
    pub result: Result<CheckpointStats, String>,
    /// What each table's segment holds after a successful cycle.
    pub(crate) tables: Vec<TableWrite>,
}

/// Snapshot every table of the live store for a checkpoint job, each
/// pointed at its image segment (`LeafStore::target_images`). Called on
/// the serving thread; cost is `Arc` clones for sealed blocks plus one
/// builder snapshot per table with open rows.
pub fn snapshot_tables(
    store: &mut LeafStore,
    ns: &ShmNamespace,
) -> Result<Vec<TableSnapshot>, crate::LeafError> {
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
            segment: String::new(),
            write: Write::Whole,
        });
    }
    store.target_images(ns, &mut out);
    Ok(out)
}

/// Handle to the background checkpoint worker. Dropping it, or
/// [`Checkpointer::stop`], joins the worker and leaves the image as the
/// last cycle left it: committed, or invalid.
#[derive(Debug)]
pub struct Checkpointer {
    tx: Option<Sender<CheckpointJob>>,
    /// Completion stream from the worker. Mutex-wrapped so the owning
    /// server stays `Sync` (concurrent readers share `&LeafServer`);
    /// only the server's own polls ever take the lock.
    done_rx: Mutex<Receiver<CheckpointOutcome>>,
    worker: Option<JoinHandle<()>>,
}

impl Checkpointer {
    /// Spawn the worker for the leaf named by `ns`.
    pub fn spawn(ns: ShmNamespace) -> Checkpointer {
        let (tx, rx) = mpsc::channel::<CheckpointJob>();
        let (done_tx, done_rx) = mpsc::channel::<CheckpointOutcome>();
        let worker = std::thread::Builder::new()
            .name(format!("ckpt-leaf{}", ns.leaf_id()))
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    let (result, tables) = match run_cycle(&ns, &job) {
                        Ok((stats, tables)) => (Ok(stats), tables),
                        Err(e) => {
                            scuba_obs::counter!("leaf_checkpoint_failures_total").inc();
                            (Err(e), Vec::new())
                        }
                    };
                    let _ = done_tx.send(CheckpointOutcome {
                        covered_seq: job.covered_seq,
                        result,
                        tables,
                    });
                }
            })
            .expect("spawn checkpoint worker");
        Checkpointer {
            tx: Some(tx),
            done_rx: Mutex::new(done_rx),
            worker: Some(worker),
        }
    }

    /// Queue a checkpoint cycle. Returns false if the worker is gone.
    pub fn request(&self, job: CheckpointJob) -> bool {
        match &self.tx {
            Some(tx) => tx.send(job).is_ok(),
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

    /// Join the worker once it finishes the cycle it is on, and return that
    /// cycle's outcome if nobody collected it yet.
    pub fn stop(mut self) -> Option<CheckpointOutcome> {
        self.join();
        self.try_done()
    }

    fn join(&mut self) {
        self.tx = None;
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Drop for Checkpointer {
    fn drop(&mut self) {
        self.join();
    }
}

/// One cycle under the valid-bit protocol: open the invalid window, write
/// each table, list the job's segments, commit. Any error leaves the valid
/// bit false — a crash start then takes the disk path, never a torn image
/// — and unlinks the segments the cycle created.
fn run_cycle(
    ns: &ShmNamespace,
    job: &CheckpointJob,
) -> Result<(CheckpointStats, Vec<TableWrite>), String> {
    let sw = scuba_obs::Stopwatch::start();
    let mut meta = open_invalid(ns).map_err(|e| format!("opening invalid window: {e}"))?;
    let mut created = Vec::new();
    let committed = write_and_commit(&mut meta, job, &mut created);
    if committed.is_err() {
        for name in &created {
            let _ = ShmSegment::unlink(name);
        }
    } else if scuba_obs::enabled() {
        scuba_obs::counter!("leaf_checkpoints_total").inc();
        scuba_obs::gauge!("leaf_checkpoint_last_write_ns").set(sw.elapsed_ns() as i64);
    }
    committed
}

/// The leaf's metadata region with the valid bit false: the one this
/// life's cycles keep committing, or a fresh one when there is none (the
/// life's first cycle, or the image was invalidated since).
fn open_invalid(ns: &ShmNamespace) -> ShmResult<LeafMetadata> {
    let mut meta = match LeafMetadata::open(ns) {
        Ok(meta) => meta,
        Err(_) => {
            let _ = ShmSegment::unlink(&ns.metadata_name());
            LeafMetadata::create(ns, SHM_LAYOUT_VERSION, CURRENT_IMAGE_MIN_READER)?
        }
    };
    meta.set_valid(false)?;
    Ok(meta)
}

/// Inside the invalid window: write every table, swap the registry to the
/// job's segments, set the valid bit.
fn write_and_commit(
    meta: &mut LeafMetadata,
    job: &CheckpointJob,
    created: &mut Vec<String>,
) -> Result<(CheckpointStats, Vec<TableWrite>), String> {
    // Dying anywhere below costs only the fast path, never fidelity.
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
    let mut writes = Vec::with_capacity(job.tables.len());
    for snap in &job.tables {
        stats.sealed_blocks += snap.sealed.len();
        stats.rows += snap.rows;
        match snap.write {
            Write::Whole => stats.full_rewrites += 1,
            Write::Skip(_) => stats.skipped += 1,
            Write::Append(_) => {}
        }
        let (write, bytes) = write_table(snap, created)
            .map_err(|e| format!("checkpointing {:?}: {e}", snap.name))?;
        stats.bytes_written += bytes;
        writes.push(write);
    }
    let entries = job
        .tables
        .iter()
        .map(|t| SegmentEntry {
            name: t.segment.clone(),
            format_version: MANIFEST_VERSION as u32,
            flags: SEG_FLAG_CHECKPOINT,
        })
        .collect();
    meta.replace_segments(entries)
        .map_err(|e| format!("swapping checkpoint registry: {e}"))?;
    // Commit: the image flips from "mid-update" to "attachable".
    meta.set_valid(true)
        .map_err(|e| format!("committing checkpoint: {e}"))?;
    Ok((stats, writes))
}

/// Write one table as its snapshot says — whole from offset 0 (the stream
/// the shutdown backup writes: name frame, manifest, the blocks, the open
/// block as a final ordinary block, END), or behind the sealed frontier —
/// and return what its segment now holds with the bytes written.
fn write_table(snap: &TableSnapshot, created: &mut Vec<String>) -> ShmResult<(TableWrite, u64)> {
    let (frontier, ranges, written) = match snap.write {
        Write::Skip(frontier) => (frontier, Vec::new(), 0),
        Write::Append(frontier) => {
            let mut segment = ShmSegment::open(&snap.segment)?;
            let mut w = SegmentWriter::at(&mut segment, frontier.end);
            let (frontier, ranges, written) = image::append_at_frontier(
                frontier,
                &snap.sealed,
                snap.open.as_ref(),
                &snap.schema,
                &mut w,
            )?;
            w.write(&end_header_v2())?;
            w.finish()?;
            (frontier, ranges, written + FRAME_HEADER_V2 as u64)
        }
        Write::Whole => {
            let _ = ShmSegment::unlink(&snap.segment);
            let mut segment = ShmSegment::create(&snap.segment, 0)?;
            created.push(snap.segment.clone());
            let mut w = SegmentWriter::new(&mut segment);
            w.put_chunk(ChunkDesc::new(TAG_UNIT_NAME, 1), snap.name.as_bytes())?;
            let manifest_off = w.position();
            let blocks = snap.sealed.len() as u64 + u64::from(snap.open.is_some());
            image::write_manifest(blocks, &snap.schema, &mut w)?;
            let ranges = image::write_blocks(&snap.sealed, &mut w)?;
            let end = w.position();
            if let Some(open) = &snap.open {
                image::write_block(open, &mut w)?;
            }
            w.write(&end_header_v2())?;
            let used = w.position();
            w.finish()?;
            let frontier = Frontier {
                blocks: snap.sealed.len(),
                end,
                manifest_off,
            };
            (frontier, ranges, used as u64)
        }
    };
    let appended = &snap.sealed[snap.sealed.len() - ranges.len()..];
    let mut schema = Vec::with_capacity(snap.schema.serialized_size());
    snap.schema.serialize(&mut schema);
    let write = TableWrite {
        table: snap.name.clone(),
        segment: snap.segment.clone(),
        whole: snap.write == Write::Whole,
        frontier,
        schema,
        blocks: appended.iter().map(Arc::downgrade).zip(ranges).collect(),
        rows: snap.rows,
    };
    Ok((write, written))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scuba_columnstore::Row;
    use scuba_restart::restore_from_shm;
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

    /// Run one cycle, then fold its commit into the store's records as the
    /// serving thread does.
    fn run(
        ck: &Checkpointer,
        store: &mut LeafStore,
        ns: &ShmNamespace,
        covered_seq: u64,
    ) -> CheckpointOutcome {
        let tables = snapshot_tables(store, ns).unwrap();
        assert!(ck.request(CheckpointJob {
            tables,
            covered_seq
        }));
        let mut outcome = ck.wait_done().expect("worker alive");
        assert_eq!(outcome.covered_seq, covered_seq);
        if outcome.result.is_ok() {
            store.commit_checkpoint(std::mem::take(&mut outcome.tables));
        }
        outcome
    }

    fn checkpoint(
        ck: &Checkpointer,
        store: &mut LeafStore,
        ns: &ShmNamespace,
        covered_seq: u64,
    ) -> CheckpointStats {
        run(ck, store, ns, covered_seq)
            .result
            .expect("cycle committed")
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

        let ck = Checkpointer::spawn(ns.clone());
        let stats = checkpoint(&ck, &mut store, &ns, 1);
        assert_eq!(stats.tables, 2);
        assert_eq!(stats.rows, 617);
        assert_eq!(stats.full_rewrites, 2);
        // One table segment per table, in name order.
        assert_eq!(
            store.image_segments(),
            [ns.table_segment_name(0), ns.table_segment_name(1)]
        );
        drop(ck); // the image survives its worker

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

        let ck = Checkpointer::spawn(ns.clone());
        let first = checkpoint(&ck, &mut store, &ns, 1);
        assert_eq!(first.full_rewrites, 2);
        let segments = store.image_segments();

        // Nothing changed: both tables skip, nothing written.
        let idle = checkpoint(&ck, &mut store, &ns, 2);
        assert_eq!(idle.skipped, 2);
        assert_eq!(idle.bytes_written, 0);

        // Seal a new block in one table (only that table — sealing all
        // would churn "quiet" too): its segment takes an append +
        // manifest patch, far smaller than its full image; the quiet
        // table still skips.
        ingest(&mut store, "logs", 2000, 300);
        seal(&mut store, "logs");
        let incr = checkpoint(&ck, &mut store, &ns, 3);
        assert_eq!(incr.skipped, 1);
        assert_eq!(incr.full_rewrites, 0);
        assert!(incr.bytes_written > 0);
        assert!(
            incr.bytes_written < first.bytes_written / 2,
            "incremental cycle wrote {} of a {}-byte image",
            incr.bytes_written,
            first.bytes_written
        );
        assert_eq!(store.image_segments(), segments, "a cycle moved a table");
        drop(ck);

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

        let ck = Checkpointer::spawn(ns.clone());
        let first = checkpoint(&ck, &mut store, &ns, 1);

        // Open-block-only growth: no new sealed blocks, tail rewrite.
        ingest(&mut store, "logs", 1000, 10);
        let tail = checkpoint(&ck, &mut store, &ns, 2);
        assert_eq!(tail.full_rewrites, 0);
        assert!(tail.bytes_written < first.bytes_written / 2);
        drop(ck);

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

        let ck = Checkpointer::spawn(ns.clone());
        checkpoint(&ck, &mut store, &ns, 1);
        let old = store.image_segments();

        // New column arrives: the manifest schema changes, so the table
        // is written whole, into a fresh name; the old one is unlinked
        // once the commit no longer lists it.
        let rows: Vec<Row> = (0..40).map(|i| Row::at(100 + i).with("extra", i)).collect();
        store.append_rows("logs", &rows, 0).unwrap();
        store.seal_all(0).unwrap();
        let second = checkpoint(&ck, &mut store, &ns, 2);
        assert_eq!(second.full_rewrites, 1);
        assert_ne!(store.image_segments(), old);
        assert!(!ShmSegment::exists(&old[0]));
        drop(ck);

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

        let ck = Checkpointer::spawn(ns.clone());
        checkpoint(&ck, &mut store, &ns, 1);

        // Wound the next cycle: it must leave the valid bit false, so a
        // crash now takes the disk path instead of a torn image.
        scuba_faults::configure("leaf::checkpoint::write", "error@1").unwrap();
        ingest(&mut store, "logs", 200, 10);
        let outcome = run(&ck, &mut store, &ns, 2);
        assert!(outcome.result.is_err());
        scuba_faults::clear_all();
        let meta = LeafMetadata::open(&ns).unwrap().read().unwrap();
        assert!(!meta.valid, "a failed cycle left the image valid");

        // The next cycle extends the same segment and commits.
        let segments = store.image_segments();
        let again = checkpoint(&ck, &mut store, &ns, 3);
        assert_eq!((again.skipped, again.full_rewrites), (0, 0));
        assert_eq!(store.image_segments(), segments);
        drop(ck);
        let (_, rows) = restore_rows(&ns);
        assert_eq!(rows, 210);
    }

    #[test]
    fn stopping_the_worker_keeps_the_committed_image() {
        let _x = scuba_faults::exclusive();
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let mut store = LeafStore::new();
        ingest(&mut store, "logs", 0, 50);

        let ck = Checkpointer::spawn(ns.clone());
        checkpoint(&ck, &mut store, &ns, 1);
        assert!(ck.stop().is_none(), "the outcome was collected");
        assert!(ShmSegment::exists(&ns.metadata_name()));
        assert!(ShmSegment::exists(&ns.table_segment_name(0)));
        let (_, rows) = restore_rows(&ns);
        assert_eq!(rows, 50);
    }

    #[test]
    fn dropped_table_leaves_registry_and_segment() {
        let _x = scuba_faults::exclusive();
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let mut store = LeafStore::new();
        ingest(&mut store, "a", 0, 30);
        ingest(&mut store, "b", 0, 30);

        let ck = Checkpointer::spawn(ns.clone());
        checkpoint(&ck, &mut store, &ns, 1);
        let a = ns.table_segment_name(0);
        assert!(ShmSegment::exists(&a));

        store.map_mut().remove("a");
        let after = checkpoint(&ck, &mut store, &ns, 2);
        assert_eq!(after.tables, 1);
        assert!(
            !ShmSegment::exists(&a),
            "the dropped table's segment stayed"
        );
        drop(ck);

        let (fresh, rows) = restore_rows(&ns);
        assert_eq!(rows, 30);
        assert!(fresh.map().get("a").is_none());
        assert!(fresh.map().get("b").is_some());
    }
}
