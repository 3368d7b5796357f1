//! Phase two of a two-phase restore of a *checkpoint* image (DESIGN §11):
//! after the crash path's attach the leaf serves over the mapped segments
//! while a worker pool copies every mapped block to heap; the server
//! applies the copies under its own `&mut`. A planned image is not
//! hydrated: the leaf keeps serving it in place (`recover`), and
//! [`LeafServer::finish_hydration`] / [`LeafServer::poll_hydration`]
//! return at once there. Both kinds of mapped block share the first-touch
//! check here ([`LeafServer::touch_mapped`]) and its poison.

use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Instant;

use scuba_columnstore::RowBlock;
use scuba_restart::resolve_copy_threads;

use crate::config::HydrationMode;
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
pub(crate) struct Hydrator {
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
        }
    }

    /// A query had to verify something in `block`: hydrate it next.
    fn promote(&self, block: &Arc<RowBlock>) {
        self.queue.promote(block);
    }

    /// Blocks still waiting for a query to touch them.
    pub(crate) fn parked(&self) -> usize {
        self.queue.parked_len()
    }

    /// Stop the pool: wake workers blocked on parked jobs, drop the
    /// receiver so any send fails, and join them. Their mapped references
    /// drop with them.
    fn stop(self) {
        self.queue.close();
        drop(self.rx);
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

impl LeafServer {
    /// A query is about to scan `block`: if it is mapped, CRC-verify the
    /// columns the query reads (`columns`,
    /// [`scuba_query::Query::columns_read`]) — and only those — and, while
    /// hydrating, promote the block to the head of the hydration queue.
    /// Each column's verify-once latch makes this first-touch-only and
    /// shares the pass with whoever copies the block: whoever reaches a
    /// column first pays, the other side reads the outcome. The columns
    /// the query does not read stay unverified, and unread, until a
    /// hydration worker's whole-block [`hydrate_block`] (or a demotion,
    /// or a disk reconcile) checks them before the copy — so every byte is
    /// checked once before anyone trusts it. A verification failure here
    /// poisons the attach: the caller fails the query, every later query
    /// fails at its start, and the next poll/finish falls back to disk.
    pub(crate) fn touch_mapped(
        &self,
        block: &Arc<RowBlock>,
        columns: &[&str],
    ) -> Result<(), String> {
        // First touch only — read off the latches, so a repeat query
        // takes no lock at all: heap blocks and columns someone already
        // verified (the block hence already promoted, or with a worker)
        // skip. Cold blocks have their own first touch and per-table
        // fallback in the residency manager; only a hydrating leaf checks
        // them here too.
        let cold_elsewhere = block.is_cold() && self.hydrator.is_none();
        if !block.is_mapped() || cold_elsewhere || block.columns_verified(columns) {
            return Ok(());
        }
        if let Err(e) = block.verify_columns_for(columns) {
            return Err(self.condemn_mapped(&e));
        }
        if let Some(h) = &self.hydrator {
            h.promote(block);
        }
        Ok(())
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
        self.hydrator = Some(Hydrator::spawn(
            &self.store,
            self.config.copy_threads,
            self.config.hydration,
        ));
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

    /// Blocks handed to hydration workers whose results have not been
    /// applied yet.
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
    /// The leaf is `Alive` with zero shm-resident bytes afterwards. Under
    /// [`HydrationMode::OnAccess`] this first releases every parked block
    /// to the workers — the "drain the lazy leaf" operation. A leaf that
    /// keeps its planned image has nothing to wait for (see
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
        if let Some(h) = self.hydrator.as_ref().filter(|_| wait) {
            h.queue.release_all();
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
                // A worker died (panic) with results outstanding.
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
    use std::time::Duration;

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

    /// Corrupt a payload byte deep in the shut-down leaf's first table
    /// segment: the middle of the largest column chunk's RBC *data region*
    /// (found by walking the TLV frames, offsets read from the RBC
    /// header), so only the deferred payload CRC can tell.
    fn corrupt_fattest_column_chunk(cfg: &LeafConfig) {
        use scuba_restart::framing::{decode_header_v2, FRAME_HEADER_V2, TAG_END};
        let ns = scuba_shmem::ShmNamespace::new(&cfg.shm_prefix, cfg.leaf_id).unwrap();
        let mut seg = scuba_shmem::ShmSegment::open(&ns.checkpoint_segment_name(0, 0)).unwrap();
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
        let _x = scuba_faults::exclusive();
        let (cfg, dir) = hydrating_config("hydcrc");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 1000);
        crash_to_checkpoint(&mut s);
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

    /// Tentpole acceptance: under OnAccess, a cold (never-queried) table
    /// keeps every byte mapped — zero copies — while results stay
    /// identical to the eager path, and query-touched blocks jump the
    /// hydration queue.
    #[test]
    fn on_access_hydrates_only_what_queries_touch() {
        let _x = scuba_faults::exclusive();
        let (mut cfg, dir) = hydrating_config("lazyhyd");
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
        crash_to_checkpoint(&mut s);
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
        let _x = scuba_faults::exclusive();
        let (mut cfg, dir) = hydrating_config("lazycrc");
        cfg.hydration = HydrationMode::OnAccess; // workers stay parked: no racing hydrator
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 800);
        crash_to_checkpoint(&mut s);
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
        let _x = scuba_faults::exclusive();
        let (mut cfg, dir) = hydrating_config("latchonce");
        cfg.hydration = HydrationMode::OnAccess; // workers parked until the touch
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 800);
        crash_to_checkpoint(&mut s);
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

    /// Plan once per query: planning snapshots (clones and re-encodes) the
    /// open block, so the hydrator touch, the tiering touch and the scan
    /// share one plan instead of making three.
    #[test]
    fn query_encodes_the_open_block_once() {
        let _x = scuba_faults::exclusive();
        let (mut cfg, dir) = tiered_config("planonce", 0);
        cfg.restore_mode = RestoreMode::TwoPhase;
        cfg.checkpoint_enabled = true;
        cfg.hydration = HydrationMode::OnAccess;
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 600);
        crash_to_checkpoint(&mut s);
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
        let _x = scuba_faults::exclusive();
        let (mut cfg, dir) = hydrating_config("latchbad");
        cfg.hydration = HydrationMode::OnAccess;
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 800);
        crash_to_checkpoint(&mut s);
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
}
