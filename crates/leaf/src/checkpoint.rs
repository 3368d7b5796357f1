//! Continuous checkpointing: keep the leaf's shared-memory image current
//! *during normal serving*, so a crash recovers by attaching it and
//! replaying the WAL tail instead of taking the paper's hours-long disk
//! path. A seal starts a cycle, and the image holds sealed blocks only:
//! the checkpointer is not the tail, which stays in the WAL.
//!
//! The paper writes the image only at planned shutdown and refuses to
//! trust it after a crash (§4.3). A checkpoint cycle writes the same image
//! through the same writer: the planned shutdown's backup envelope
//! (`scuba_restart::backup_to_shm_with`) over an [`ImageJob`] cloned from
//! the live store. So at any instant the image is either (a) committed and
//! CRC-framed — a crash start attaches it — or (b) mid-update with no
//! valid bit — a crash start takes the disk path, exactly as if the image
//! were absent. There is no third state, and only bytes a commit lists are
//! trusted.
//!
//! A cycle's job has the shutdown's shape. What differs is set by the
//! job: its registry entries carry
//! [`SEG_FLAG_CHECKPOINT`] (a start that attaches them replays the WAL on
//! top), its breakdown is published as op `checkpoint`, it frees no heap
//! (its blocks are `Arc`-shared with the live store), and it runs at
//! width one. The serving thread folds each commit back into the store's
//! records (`LeafStore::commit_image`), as the shutdown does. No handle
//! outlives a cycle: stopping the worker never touches the image.

use std::thread::JoinHandle;
use std::time::Duration;

use scuba_obs::Phase;
use scuba_restart::{backup_to_shm_with, CopyOptions, SHM_LAYOUT_VERSION};
use scuba_shmem::ShmNamespace;

use crate::persist::{ImageJob, TableImage};

/// Registry-entry flag marking a segment as part of a checkpoint image
/// (vs a planned-shutdown backup): a start that attaches it replays the
/// WAL tail on top. Readers tolerate unknown flag bits, so pre-checkpoint
/// binaries still restore the image.
pub const SEG_FLAG_CHECKPOINT: u32 = 0x100;

/// What one committed checkpoint cycle did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Tables in the committed image.
    pub tables: usize,
    /// Sealed blocks now covered by the image (across all tables).
    pub sealed_blocks: usize,
    /// Rows covered by the image.
    pub rows: u64,
    /// Bytes copied this cycle, counted as a shutdown counts them (the
    /// incrementality metric).
    pub bytes_written: u64,
    /// Tables skipped as unchanged.
    pub skipped: usize,
    /// Tables written whole into a fresh segment.
    pub full_rewrites: usize,
}

/// Completion message for one cycle.
#[derive(Debug)]
pub struct CheckpointOutcome {
    /// The request's `covered_seq`.
    pub covered_seq: u64,
    /// Stats on success; on failure no valid image exists until the next
    /// cycle commits.
    pub result: Result<CheckpointStats, String>,
    /// The cycle's Figure-5 phases (empty unless it committed).
    pub(crate) phases: Vec<(Phase, Duration)>,
    /// Each table's image record after a successful cycle.
    pub(crate) tables: Vec<(String, TableImage)>,
}

/// The background checkpoint worker: each cycle runs on a thread of its
/// own, writing its job through the backup envelope at width 1.
/// Dropping it joins the cycle in flight and leaves the image as that
/// cycle left it: committed, or absent.
#[derive(Debug)]
pub struct Checkpointer {
    ns: ShmNamespace,
    cycle: Option<JoinHandle<CheckpointOutcome>>,
}

impl Checkpointer {
    /// A worker for the leaf named by `ns`, with no cycle in flight.
    pub fn new(ns: ShmNamespace) -> Checkpointer {
        Checkpointer { ns, cycle: None }
    }

    /// Start a cycle writing `job`, which covers every WAL record below
    /// segment `covered_seq`. False if a cycle is in flight, or no thread
    /// could be started.
    pub fn request(&mut self, mut job: ImageJob, covered_seq: u64) -> bool {
        if self.cycle.is_some() {
            return false;
        }
        let ns = self.ns.clone();
        let cycle = std::thread::Builder::new()
            .name(format!("ckpt-leaf{}", ns.leaf_id()))
            .spawn(move || {
                let options = CopyOptions::with_threads(1);
                let cycle = backup_to_shm_with(&mut job, &ns, SHM_LAYOUT_VERSION, options);
                let (result, phases) = match cycle {
                    Ok(report) => {
                        if scuba_obs::enabled() {
                            scuba_obs::counter!("leaf_checkpoints_total").inc();
                            scuba_obs::gauge!("leaf_checkpoint_last_write_ns")
                                .set(report.duration.as_nanos() as i64);
                        }
                        let bytes_written = report.bytes_copied;
                        let stats = CheckpointStats {
                            bytes_written,
                            ..job.stats.clone()
                        };
                        (Ok(stats), report.phases.phases)
                    }
                    Err(e) => {
                        scuba_obs::counter!("leaf_checkpoint_failures_total").inc();
                        (Err(e.to_string()), Vec::new())
                    }
                };
                let tables = job.written;
                CheckpointOutcome {
                    covered_seq,
                    result,
                    phases,
                    tables,
                }
            });
        self.cycle = cycle.ok();
        self.cycle.is_some()
    }

    /// Whether a cycle is in flight.
    pub fn in_flight(&self) -> bool {
        self.cycle.is_some()
    }

    /// The outcome of the cycle in flight, if it finished.
    pub fn try_done(&mut self) -> Option<CheckpointOutcome> {
        if !self.cycle.as_ref()?.is_finished() {
            return None;
        }
        self.wait_done()
    }

    /// Wait for the cycle in flight and return its outcome (None when no
    /// cycle is in flight).
    pub fn wait_done(&mut self) -> Option<CheckpointOutcome> {
        self.cycle.take()?.join().ok()
    }
}

impl Drop for Checkpointer {
    fn drop(&mut self) {
        let _ = self.wait_done();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::LeafStore;
    use scuba_columnstore::Row;
    use scuba_restart::restore_from_shm;
    use scuba_shmem::{LeafMetadata, ShmSegment};
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
    fn run(ck: &mut Checkpointer, store: &mut LeafStore, covered_seq: u64) -> CheckpointOutcome {
        assert!(ck.request(ImageJob::snapshot(store), covered_seq));
        let mut outcome = ck.wait_done().expect("worker alive");
        assert_eq!(outcome.covered_seq, covered_seq);
        if outcome.result.is_ok() {
            store.commit_image(std::mem::take(&mut outcome.tables));
        }
        outcome
    }

    fn checkpoint(
        ck: &mut Checkpointer,
        store: &mut LeafStore,
        covered_seq: u64,
    ) -> CheckpointStats {
        run(ck, store, covered_seq).result.expect("cycle committed")
    }

    fn restore_rows(ns: &ShmNamespace) -> (LeafStore, usize) {
        let mut fresh = LeafStore::new();
        restore_from_shm(&mut fresh, ns, SHM_LAYOUT_VERSION).unwrap();
        let rows = fresh.map().total_rows();
        (fresh, rows)
    }

    /// A cycle's image holds the sealed blocks only: the open ones are
    /// the WAL's. Once they seal, the next cycle holds every row.
    #[test]
    fn checkpoint_image_restores_sealed_rows_only() {
        let _x = scuba_faults::exclusive();
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let mut store = LeafStore::new();
        ingest(&mut store, "logs", 0, 500);
        store.seal_all(0).unwrap();
        ingest(&mut store, "logs", 500, 37); // open rows
        ingest(&mut store, "metrics", 0, 80);

        let mut ck = Checkpointer::new(ns.clone());
        let stats = checkpoint(&mut ck, &mut store, 1);
        assert_eq!(stats.tables, 2);
        assert_eq!(stats.rows, 500);
        assert_eq!(stats.full_rewrites, 2);
        // One table segment per table, in name order.
        assert_eq!(
            store.image_segments(),
            [ns.table_segment_name(0), ns.table_segment_name(1)]
        );

        store.seal_all(0).unwrap();
        let sealed = checkpoint(&mut ck, &mut store, 2);
        // `logs` is extended; `metrics` gains its first schema, so its
        // manifest is written whole.
        assert_eq!((sealed.rows, sealed.full_rewrites), (617, 1));
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
        ingest(&mut store, "quiet", 0, 50);
        store.seal_all(0).unwrap();

        let mut ck = Checkpointer::new(ns.clone());
        let first = checkpoint(&mut ck, &mut store, 1);
        assert_eq!(first.full_rewrites, 2);
        let segments = store.image_segments();

        // Nothing changed: both tables skip, nothing written.
        let idle = checkpoint(&mut ck, &mut store, 2);
        assert_eq!(idle.skipped, 2);
        assert_eq!(idle.bytes_written, 0);

        // Seal a new block in one table (only that table — sealing all
        // would churn "quiet" too): its segment takes an append +
        // manifest patch, far smaller than its full image; the quiet
        // table still skips.
        ingest(&mut store, "logs", 2000, 300);
        seal(&mut store, "logs");
        let incr = checkpoint(&mut ck, &mut store, 3);
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
    fn open_block_churn_writes_nothing() {
        let _x = scuba_faults::exclusive();
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let mut store = LeafStore::new();
        ingest(&mut store, "logs", 0, 1000);
        store.seal_all(0).unwrap();

        let mut ck = Checkpointer::new(ns.clone());
        let first = checkpoint(&mut ck, &mut store, 1);

        // Open-block-only growth: no new sealed block, nothing to write.
        ingest(&mut store, "logs", 1000, 10);
        let tail = checkpoint(&mut ck, &mut store, 2);
        assert_eq!((tail.skipped, tail.full_rewrites), (1, 0));
        assert_eq!(tail.bytes_written, 0);
        assert!(first.bytes_written > 0);
        drop(ck);

        let (_, rows) = restore_rows(&ns);
        assert_eq!(rows, 1000);
    }

    #[test]
    fn schema_change_forces_full_rewrite_and_restores() {
        let _x = scuba_faults::exclusive();
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let mut store = LeafStore::new();
        ingest(&mut store, "logs", 0, 100);
        store.seal_all(0).unwrap();

        let mut ck = Checkpointer::new(ns.clone());
        checkpoint(&mut ck, &mut store, 1);
        let old = store.image_segments();

        // New column arrives: the manifest schema changes, so the table
        // is written whole, into a fresh name; the old one is unlinked
        // once the commit no longer lists it.
        let rows: Vec<Row> = (0..40).map(|i| Row::at(100 + i).with("extra", i)).collect();
        store.append_rows("logs", &rows, 0).unwrap();
        store.seal_all(0).unwrap();
        let second = checkpoint(&mut ck, &mut store, 2);
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

        let mut ck = Checkpointer::new(ns.clone());
        checkpoint(&mut ck, &mut store, 1);

        // Wound the next cycle: it must leave no valid image, so a crash
        // now takes the disk path instead of a torn image.
        scuba_faults::configure("leaf::checkpoint::write", "error@1").unwrap();
        ingest(&mut store, "logs", 200, 10);
        seal(&mut store, "logs");
        let outcome = run(&mut ck, &mut store, 2);
        assert!(outcome.result.is_err());
        scuba_faults::clear_all();
        let valid = LeafMetadata::open(&ns).is_ok_and(|m| m.read().unwrap().valid);
        assert!(!valid, "a failed cycle left the image valid");

        // The next cycle extends the same segment and commits.
        let segments = store.image_segments();
        let again = checkpoint(&mut ck, &mut store, 3);
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
        store.seal_all(0).unwrap();

        let mut ck = Checkpointer::new(ns.clone());
        checkpoint(&mut ck, &mut store, 1);
        assert!(ck.wait_done().is_none(), "the outcome was collected");
        drop(ck);
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
        store.seal_all(0).unwrap();

        let mut ck = Checkpointer::new(ns.clone());
        checkpoint(&mut ck, &mut store, 1);
        let a = ns.table_segment_name(0);
        assert!(ShmSegment::exists(&a));

        store.map_mut().remove("a");
        let after = checkpoint(&mut ck, &mut store, 2);
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
