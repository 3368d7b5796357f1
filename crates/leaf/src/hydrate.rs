//! Phase two of a two-phase restore of a *checkpoint* image (DESIGN §11):
//! after the crash path's attach the leaf serves over the mapped segments
//! while the copy pool (`scuba_restart::fan_out`) copies every mapped
//! block to heap; the server applies the copies under its own `&mut`. A
//! planned image is not hydrated: the leaf keeps serving it in place
//! (`recover`), and [`LeafServer::finish_hydration`] /
//! [`LeafServer::poll_hydration`] return at once there. Both kinds of
//! mapped block share the first-touch check here
//! ([`LeafServer::touch_mapped`]) and its poison.

use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Instant;

use scuba_columnstore::RowBlock;
use scuba_restart::{fan_out, resolve_copy_threads};

use crate::error::LeafResult;
use crate::persist::LeafStore;
use crate::server::{phase_failpoint, LeafPhase, LeafServer};

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
pub(crate) fn hydrate_block(block: &RowBlock) -> Result<RowBlock, String> {
    block.verify_columns().map_err(|e| e.to_string())?;
    Ok(block.to_heap())
}

/// Phase two in the background: one thread runs the copy pool over a
/// snapshot of the mapped blocks, and results stream back over a channel;
/// the server applies them under its own `&mut` (the workers never touch
/// the store).
#[derive(Debug)]
pub(crate) struct Hydrator {
    /// Result stream from the pool. Mutex-wrapped so the server stays
    /// `Sync` (concurrent readers share `&LeafServer`); only the server's
    /// own `&mut` polls ever take the lock.
    rx: std::sync::Mutex<mpsc::Receiver<HydratedBlock>>,
    /// The thread running the pool.
    pool: thread::JoinHandle<()>,
    /// Blocks snapshotted for the pool whose results have not been
    /// applied yet.
    pending: usize,
    /// When phase two began — the `restart.hydration` span's base.
    started: Instant,
}

impl Hydrator {
    /// Snapshot every mapped block and fan the copy work out over the
    /// resolved copy-thread count, on a thread of its own.
    fn spawn(store: &LeafStore, copy_threads: usize) -> Hydrator {
        let mut jobs: Vec<(String, Arc<RowBlock>)> = Vec::new();
        for table in store.map().iter() {
            for block in table.mapped_blocks() {
                jobs.push((table.name().to_owned(), block));
            }
        }
        let pending = jobs.len();
        let threads = resolve_copy_threads(copy_threads).min(pending);
        let (tx, rx) = mpsc::channel();
        let pool = thread::spawn(move || {
            let mut jobs = jobs.into_iter();
            // A failed send means the server stopped listening (fallback,
            // crash): dispatch stops, and the blocks never handed out drop
            // with `jobs`.
            let _ = fan_out(
                threads,
                |_| jobs.next().map(Ok),
                |(table, old)| {
                    let new = hydrate_block(&old);
                    Ok(HydratedBlock { table, old, new })
                },
                drop,
                |msg| tx.send(msg).map_err(drop),
            );
        });
        Hydrator {
            rx: std::sync::Mutex::new(rx),
            pool,
            pending,
            started: Instant::now(),
        }
    }

    /// Stop the pool: drop the receiver so the next send fails, and join
    /// the pool's thread. Every mapped reference it held drops with it.
    fn stop(self) {
        drop(self.rx);
        let _ = self.pool.join();
    }
}

impl LeafServer {
    /// A query is about to scan `block`: if it is mapped, CRC-verify the
    /// columns the query reads (`columns`,
    /// [`scuba_query::Query::columns_read`]) — and only those. Each
    /// column's verify-once latch makes this first-touch-only and shares
    /// the pass with whoever copies the block: whoever reaches a column
    /// first pays, the other side reads the outcome. The columns
    /// the query does not read stay unverified, and unread, until a
    /// hydration worker's whole-block [`hydrate_block`] (or a demotion,
    /// or a disk reconcile) checks them before the copy — so every byte is
    /// checked once before anyone trusts it. A verification failure here
    /// poisons the attach: the caller fails the query, every later query
    /// fails at its start, and the next poll/finish falls back to disk.
    pub(crate) fn touch_mapped(&self, block: &RowBlock, columns: &[&str]) -> Result<(), String> {
        // First touch only — read off the latches, so a repeat query
        // takes no lock at all: heap blocks and columns someone already
        // verified skip. Cold blocks have their own first touch and
        // per-table fallback in the residency manager; only a hydrating
        // leaf checks them here too.
        let cold_elsewhere = block.is_cold() && self.hydrator.is_none();
        if !block.is_mapped() || cold_elsewhere || block.columns_verified(columns) {
            return Ok(());
        }
        block
            .verify_columns_for(columns)
            .map_err(|e| self.condemn_mapped(&e))
    }

    /// Record that a mapped block failed its deferred CRC (at a query
    /// touch, or before a demotion copies it) — the first failure sticks,
    /// and fails every later query — and return this failure's reason.
    pub(crate) fn condemn_mapped(&self, error: &dyn std::fmt::Display) -> String {
        let reason = format!("corrupt mapped block: {error}");
        let mut poison = self.mapped_poison.lock().unwrap();
        poison.get_or_insert_with(|| reason.clone());
        reason
    }

    /// Begin phase two after an attach that mapped bytes: the leaf serves
    /// over the mapped segments while the pool copies them to heap.
    pub(crate) fn start_hydration(&mut self) -> LeafResult<()> {
        self.set_phase(LeafPhase::Hydrating);
        phase_failpoint("leaf::phase::hydrating")?;
        self.hydrator = Some(Hydrator::spawn(&self.store, self.config.copy_threads));
        self.publish_memory_gauges();
        Ok(())
    }

    /// Stop a hydration in progress, if any (fallback, crash).
    pub(crate) fn stop_hydration(&mut self) {
        if let Some(h) = self.hydrator.take() {
            h.stop();
        }
    }

    /// True while background hydration is still converting mapped blocks
    /// to heap.
    pub fn is_hydrating(&self) -> bool {
        self.hydrator.is_some()
    }

    /// Mapped blocks whose heap copies have not been applied yet.
    pub fn hydration_pending(&self) -> usize {
        self.hydrator.as_ref().map_or(0, |h| h.pending)
    }

    /// Why hydration fell back to disk recovery, if it did.
    pub fn hydration_fallback_reason(&self) -> Option<&str> {
        self.hydration_fallback.as_deref()
    }

    /// Apply any hydrated blocks the workers have finished, without
    /// blocking. Returns the number of blocks still pending; 0 means
    /// hydration is complete (or fell back to disk) and the leaf is
    /// `Alive`. Callers drive this from their event loop — queries take
    /// `&self`, so block swaps happen only here. On a leaf that keeps its
    /// planned image this returns 0 at once, unless a query found a
    /// corrupt mapped block: then the leaf falls back to disk here.
    pub fn poll_hydration(&mut self) -> LeafResult<usize> {
        self.drain_hydration(false)
    }

    /// Block until hydration is complete (or has fallen back to disk).
    /// The leaf is `Alive` with zero shm-resident bytes afterwards. A leaf
    /// that keeps its planned image has nothing to wait for (see
    /// [`Self::poll_hydration`]).
    pub fn finish_hydration(&mut self) -> LeafResult<()> {
        self.drain_hydration(true).map(drop)
    }

    /// Apply what the workers have finished: everything, waiting for it,
    /// when `wait`; else only what is ready. Returns the blocks pending.
    fn drain_hydration(&mut self, wait: bool) -> LeafResult<usize> {
        // A query may have condemned the attach (in-place CRC failure on
        // first touch) — it could only record that; act on it here.
        if let Some(reason) = self.mapped_poison.get_mut().unwrap().take() {
            self.fall_back_from_hydration(reason)?;
            return Ok(0);
        }
        while let Some(h) = self.hydrator.as_ref() {
            let received = {
                let rx = h.rx.lock().unwrap();
                if wait {
                    rx.recv().map_err(|_| mpsc::TryRecvError::Disconnected)
                } else {
                    rx.try_recv()
                }
            };
            match received {
                Ok(msg) => self.apply_hydrated(msg)?,
                Err(mpsc::TryRecvError::Empty) => break,
                // The pool died (a worker panicked) with results
                // outstanding.
                Err(mpsc::TryRecvError::Disconnected) => self.fall_back_from_hydration(
                    "hydration workers exited with blocks outstanding".to_owned(),
                )?,
            }
        }
        Ok(self.hydration_pending())
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
                    self.emit_restart_span(
                        "restart.hydration",
                        "restore",
                        "hydration",
                        h.started.elapsed(),
                    );
                    h.stop();
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
    /// disk. Rows ingested since the attach share crash semantics: only
    /// the synced prefix survives. A kept image condemned by a query
    /// touch goes the same way.
    pub(crate) fn fall_back_from_hydration(&mut self, reason: String) -> LeafResult<()> {
        self.stop_hydration();
        scuba_obs::counter!("hydration_fallbacks").inc();
        self.hydration_fallback = Some(reason.clone());
        self.rebuild_from_disk(self.hydrate_now, None, reason)?;
        // The store was rebuilt under the incremental writer's feet and
        // the WAL's row anchors no longer line up: start the crash path
        // over from this state.
        self.crash.reset(&self.store);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LeafConfig, RestoreMode};
    use crate::server::RecoveryOutcome;
    use crate::testkit::*;
    use scuba_columnstore::Row;
    use scuba_query::{AggSpec, Query};

    #[test]
    fn two_phase_attach_serves_identical_results_before_hydration() {
        let _x = scuba_faults::exclusive();
        let (cfg, dir) = hydrating_config("twophase");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 1000);
        let q = Query::new("logs", 0, 2000)
            .group_by("sev")
            .aggregates(vec![AggSpec::Count]);
        let expected = result_fingerprint(&s.query(&q).unwrap());
        crash_to_checkpoint(&mut s);
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
        let _x = scuba_faults::exclusive();
        use scuba_shmem::ShmSegment;
        let (cfg, dir) = hydrating_config("seglife");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 200);
        crash_to_checkpoint(&mut s);
        drop(s);

        let (mut s2, _) = LeafServer::start(cfg, 0, None).unwrap();
        let seg_name = s2.namespace().checkpoint_segment_name(0, 0);
        assert!(ShmSegment::exists(&seg_name));

        // A query snapshot: a cloned handle to a mapped block, held across
        // the table's hydration (and hypothetical drop).
        let held: Arc<RowBlock> =
            Arc::clone(&s2.store().map().get("logs").unwrap().mapped_blocks()[0]);

        s2.finish_hydration().unwrap();
        assert_eq!(s2.phase(), LeafPhase::Alive);
        assert_eq!(s2.shm_resident(), 0);
        // The reader still borrows the mapping: not unlinked yet.
        assert!(
            ShmSegment::exists(&seg_name),
            "segment unlinked while a reader held it"
        );
        // The mapped bytes are still readable through the held block.
        assert_eq!(held.decode_rows().unwrap().len(), 200);

        // The last mapped reference unlinks the segment. (That a view's
        // release unlinks at most once is `shmem::view::tests`' to show.)
        drop(held);
        assert!(!ShmSegment::exists(&seg_name));
    }

    /// Corrupt a payload byte deep in an image's table segment `seg`: the
    /// middle of the largest column chunk's RBC *data region* (found by
    /// walking the TLV frames, offsets read from the RBC header), so only
    /// the deferred payload CRC can tell.
    fn corrupt_fattest_column_chunk(seg: &str) {
        use scuba_restart::framing::{decode_header_v2, FRAME_HEADER_V2, TAG_END};
        let mut seg = scuba_shmem::ShmSegment::open(seg).unwrap();
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

    /// The first table segment of a checkpoint image
    /// ([`crash_to_checkpoint`]'s).
    fn first_checkpoint_segment(cfg: &LeafConfig) -> String {
        let ns = scuba_shmem::ShmNamespace::new(&cfg.shm_prefix, cfg.leaf_id).unwrap();
        ns.checkpoint_segment_name(0, 0)
    }

    /// Shut a leaf holding 800 rows of `logs` down, and corrupt the
    /// planned image it left: its successor attaches and keeps the image,
    /// and no hydration worker races the first-touch latches.
    fn kept_leaf_with_a_corrupt_column(tag: &str) -> (LeafServer, Cleanup) {
        let (cfg, dir) = kept_config(tag);
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let cleanup = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 800);
        let summary = s.shutdown_to_shm(0).unwrap();
        drop(s);
        corrupt_fattest_column_chunk(&table_segment(&summary, "logs"));
        let (s, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(matches!(outcome, RecoveryOutcome::MemoryAttached(_)));
        assert!(!s.is_hydrating());
        (s, cleanup)
    }

    #[test]
    fn hydration_crc_mismatch_falls_back_to_disk() {
        let _x = scuba_faults::exclusive();
        let (cfg, dir) = hydrating_config("hydcrc");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 1000);
        crash_to_checkpoint(&mut s);
        drop(s);

        // Attach's structural checks cannot see this; the deferred CRC at
        // hydration must.
        corrupt_fattest_column_chunk(&first_checkpoint_segment(&cfg));

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
        let _x = scuba_faults::exclusive();
        let (cfg, dir) = hydrating_config("hydingest");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 500);
        crash_to_checkpoint(&mut s);
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
        let _x = scuba_faults::exclusive();
        let (mut cfg, dir) = hydrating_config("hydmem");
        cfg.memory_capacity = 8 << 20;
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 1000);
        crash_to_checkpoint(&mut s);
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
        let _x = scuba_faults::exclusive();
        let (cfg, dir) = hydrating_config("hydpoll");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        // Several sealed blocks so hydration has multiple results.
        for epoch in 0..4i64 {
            let rows: Vec<Row> = (0..100).map(|i| Row::at(epoch * 100 + i)).collect();
            s.add_rows("logs", &rows, 0).unwrap();
            s.store.map_mut().get_mut("logs").unwrap().seal(0).unwrap();
        }
        crash_to_checkpoint(&mut s);
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
        let _x = scuba_faults::exclusive();
        let (cfg, dir) = hydrating_config("hydempty");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        crash_to_checkpoint(&mut s);
        drop(s);
        let (s2, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(matches!(outcome, RecoveryOutcome::MemoryAttached(_)));
        assert_eq!(s2.phase(), LeafPhase::Alive);
        assert!(!s2.is_hydrating());
    }

    /// A kept planned image is served in place: a table no query touches
    /// stays mapped and copies nothing, the touched one answers from the
    /// mapped bytes, and both answer exactly as before the restart —
    /// through `finish_hydration` too, which has nothing to do.
    #[test]
    fn a_kept_image_never_hydrates_an_untouched_table() {
        let _x = scuba_faults::exclusive();
        let (cfg, dir) = kept_config("keptcold");
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
        let rep = match outcome {
            RecoveryOutcome::MemoryAttached(rep) => rep,
            other => panic!("expected attach, got {other:?}"),
        };
        assert!(
            rep.heap_bytes_copied < 1024,
            "attach copied column bytes: {}",
            rep.heap_bytes_copied
        );
        assert_eq!(s2.phase(), LeafPhase::Alive);
        assert_eq!(s2.hydration_pending(), 0);
        let archive_mapped = |s: &LeafServer| {
            s.store()
                .map()
                .get("archive")
                .unwrap()
                .blocks()
                .iter()
                .all(|b| b.columns().iter().all(|c| c.is_mapped()))
        };

        // Query the hot table: identical answer, from the mapped bytes.
        assert_eq!(result_fingerprint(&s2.query(&q_hot).unwrap()), want_hot);
        assert_eq!(s2.poll_hydration().unwrap(), 0);
        // The cold table was never copied: every byte still mapped ...
        assert!(archive_mapped(&s2));
        let mapped = s2.store().map().mapped_bytes();
        assert!(mapped > 0);
        // ... and still answers identically, in place.
        assert_eq!(result_fingerprint(&s2.query(&q_cold).unwrap()), want_cold);

        // Finishing copies nothing either.
        s2.finish_hydration().unwrap();
        assert_eq!(s2.phase(), LeafPhase::Alive);
        assert!(archive_mapped(&s2));
        assert_eq!(s2.store().map().mapped_bytes(), mapped);
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
        let _x = scuba_faults::exclusive();
        let (mut s2, _c) = kept_leaf_with_a_corrupt_column("lazycrc");
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
    /// reads, the copy ([`hydrate_block`], a hydration worker's or a
    /// demotion's) pays for the rest before it copies, and nobody pays
    /// twice — each column's latch is read through the original or any
    /// clone.
    #[test]
    fn query_touch_pays_the_crc_the_hydrator_would_have() {
        let _x = scuba_faults::exclusive();
        let (cfg, dir) = kept_config("latchonce");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 800);
        let (mut s2, _) = kept_restart(s, &cfg, 0);
        let blocks: Vec<Arc<RowBlock>> = s2.store().map().get("logs").unwrap().blocks().to_vec();
        // Fresh clones, so what we see is the shared latch, not a cache.
        let verified = |b: &RowBlock, name: &str| b.column(name).unwrap().clone().is_verified();
        assert!(blocks.iter().all(|b| b.is_mapped()));
        // Attach deferred every footer CRC.
        for b in &blocks {
            assert!(["time", "sev", "code"].iter().all(|c| !verified(b, c)));
        }

        // What a count(*) touches: `time` and nothing else. Touch copies
        // of the blocks: the columns share their latches with the
        // originals.
        let copies: Vec<Arc<RowBlock>> = blocks.iter().map(|b| Arc::new((**b).clone())).collect();
        let touch = |columns: &[&str]| {
            for b in &copies {
                s2.touch_mapped(b, columns).unwrap();
            }
        };
        touch(&Query::new("logs", 0, 1000).columns_read());
        for b in &blocks {
            assert!(verified(b, "time"));
            assert!(!verified(b, "sev") && !verified(b, "code"));
        }
        // A query over another column pays for that column only.
        touch(&["time", "sev"]);
        for b in &blocks {
            assert!(verified(b, "sev") && !verified(b, "code"));
        }

        // A real query pays for what is left, and a repeat finds it paid.
        let sum_code = Query::new("logs", 0, 1000).aggregates(vec![AggSpec::Sum("code".into())]);
        assert_eq!(s2.query(&sum_code).unwrap().rows_matched, 800);
        assert_eq!(s2.query(&sum_code).unwrap().rows_matched, 800);
        // The copy finds every check paid, and copies.
        for b in &blocks {
            assert!(["time", "sev", "code"].iter().all(|c| verified(b, c)));
            assert!(!hydrate_block(b).unwrap().is_mapped());
        }
        s2.finish_hydration().unwrap();
        assert!(s2.hydration_fallback_reason().is_none());
        assert_eq!(s2.total_rows(), 800);
    }

    /// Plan once per query: planning snapshots (clones and re-encodes) the
    /// open block, so the hydrator touch, the tiering touch and the scan
    /// share one plan instead of making three.
    #[test]
    fn query_encodes_the_open_block_once() {
        let _x = scuba_faults::exclusive();
        let (mut cfg, dir) = tiered_config("planonce", 0);
        cfg.restore_mode = RestoreMode::TwoPhase;
        cfg.checkpoint_enabled = true;
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 600);
        crash_to_checkpoint(&mut s);
        drop(s);

        let (mut s2, _) = LeafServer::start(cfg, 0, None).unwrap();
        let tail: Vec<Row> = (600..650).map(|i| Row::at(i).with("sev", "late")).collect();
        s2.add_rows("logs", &tail, 0).unwrap();
        // All three consumers are live: hydrating (the pool's copies wait
        // for a poll to apply them), tiering, unsealed rows.
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
    /// copy a hydration worker would make and the disk-reconcile decode
    /// all report the same latched error, and the fallback is the usual
    /// one.
    #[test]
    fn corrupt_mapped_column_reports_one_sticky_error_to_every_toucher() {
        let _x = scuba_faults::exclusive();
        let (mut s2, _c) = kept_leaf_with_a_corrupt_column("latchbad");
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

    /// Stopping a hydration in progress — a crash, or the fallback a
    /// query's poison forces — joins the pool: no worker and no queued
    /// result still holds a mapped block, so once the store lets go the
    /// checkpoint image's segment is unlinked.
    #[test]
    fn stopping_a_hydration_joins_the_pool_and_unlinks_the_image() {
        let _x = scuba_faults::exclusive();
        use scuba_shmem::ShmSegment;
        for fallback in [false, true] {
            let (cfg, dir) = hydrating_config("hydstop");
            let mut s = LeafServer::new(cfg.clone()).unwrap();
            let _c = Cleanup(s.namespace().clone(), dir);
            for epoch in 0..4i64 {
                let rows: Vec<Row> = (0..100)
                    .map(|i| Row::at(epoch * 100 + i).with("code", i % 7))
                    .collect();
                s.add_rows("logs", &rows, 0).unwrap();
                s.store.map_mut().get_mut("logs").unwrap().seal(0).unwrap();
            }
            crash_to_checkpoint(&mut s);
            drop(s);
            let seg = first_checkpoint_segment(&cfg);
            if fallback {
                corrupt_fattest_column_chunk(&seg);
            }

            let (mut s2, _) = LeafServer::start(cfg, 0, None).unwrap();
            assert!(s2.is_hydrating());
            let blocks: Vec<std::sync::Weak<RowBlock>> = s2
                .store()
                .map()
                .get("logs")
                .unwrap()
                .blocks()
                .iter()
                .map(Arc::downgrade)
                .collect();
            if fallback {
                let bad = corrupt_column_of(&s2, "logs");
                let q = Query::new("logs", 0, 1000).aggregates(vec![AggSpec::CountDistinct(bad)]);
                assert!(s2.query(&q).is_err());
                assert_eq!(s2.poll_hydration().unwrap(), 0);
                assert!(s2.hydration_fallback_reason().is_some());
                assert_eq!(s2.total_rows(), 400);
            } else {
                s2.crash();
            }
            assert!(!s2.is_hydrating());
            assert!(
                blocks.iter().all(|b| b.strong_count() == 0),
                "a mapped block outlived the pool (fallback: {fallback})"
            );
            assert!(!ShmSegment::exists(&seg), "fallback: {fallback}");
        }
    }
}
