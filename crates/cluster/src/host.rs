//! Hosted leaves: each leaf server runs on its own thread behind a
//! bounded admission queue, like the separate OS processes of the real
//! system.
//!
//! The single-threaded [`scuba_leaf::LeafServer`] is the paper's
//! per-server model ("without the complexity of multiple threads per
//! query per server", §2); concurrency in Scuba comes from running many
//! such servers. A [`LeafHost`] gives a leaf exactly that shape: one
//! thread owning the server, a bounded FIFO [`AdmissionQueue`] in front of
//! it, and a published status block others read without blocking — which
//! makes the §4.3 admission rules *observable*: in-flight requests drain
//! before a shutdown executes (the queue is FIFO), requests sent to a
//! recovering leaf are rejected up front rather than queued behind a
//! multi-second restore, and overload is shed at the door per
//! [`crate::admission::ShedPolicy`] instead of growing an unbounded
//! backlog.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crossbeam::channel::{bounded, Sender};
use scuba_columnstore::Row;
use scuba_ingest::PlacementState;
use scuba_leaf::{
    LeafConfig, LeafError, LeafPhase, LeafResult, LeafServer, RecoveryOutcome, ShutdownSummary,
};
use scuba_query::{LeafQueryResult, Query};

use crate::admission::{AdmissionConfig, AdmissionQueue, Request};

/// Phase encoding for the published status block.
const PHASE_ALIVE: u8 = 0;
const PHASE_MEMORY_RECOVERY: u8 = 1;
const PHASE_DISK_RECOVERY: u8 = 2;
const PHASE_SHUTTING_DOWN: u8 = 3;
const PHASE_DOWN: u8 = 4;

/// Lock-free status other threads read without touching the leaf thread.
/// This is the "asks them both for their current state and how much free
/// memory they have" probe of §2 — answered even mid-recovery.
#[derive(Debug)]
pub struct HostStatus {
    phase: AtomicU8,
    free_memory: AtomicUsize,
    total_rows: AtomicUsize,
    /// How this leaf's boot recovered; unset for a fresh boot.
    recovery: OnceLock<RecoveryOutcome>,
}

impl HostStatus {
    fn new(phase: u8) -> HostStatus {
        HostStatus {
            phase: AtomicU8::new(phase),
            free_memory: AtomicUsize::new(0),
            total_rows: AtomicUsize::new(0),
            recovery: OnceLock::new(),
        }
    }

    fn publish(&self, server: &LeafServer) {
        let phase = match server.phase() {
            LeafPhase::Alive => PHASE_ALIVE,
            LeafPhase::MemoryRecovery => PHASE_MEMORY_RECOVERY,
            LeafPhase::DiskRecovery => PHASE_DISK_RECOVERY,
            LeafPhase::Preparing | LeafPhase::CopyingToShm => PHASE_SHUTTING_DOWN,
            LeafPhase::Down => PHASE_DOWN,
        };
        self.store(phase, server.free_memory(), server.total_rows());
    }

    /// Numbers first, phase last. The `Release` store of `phase` is what
    /// publishes them: it pairs with the `Acquire` phase load in
    /// [`Self::accepts_queries`] / [`Self::placement_state`], so a reader
    /// that sees this phase reads numbers at least as new as the ones
    /// stored here — never a previous incarnation's.
    fn store(&self, phase: u8, free_memory: usize, total_rows: usize) {
        self.free_memory.store(free_memory, Ordering::Release);
        self.total_rows.store(total_rows, Ordering::Release);
        self.phase.store(phase, Ordering::Release);
    }

    /// Placement state as a tailer sees it.
    pub fn placement_state(&self) -> PlacementState {
        match self.phase.load(Ordering::Acquire) {
            PHASE_ALIVE => PlacementState::Alive,
            PHASE_DISK_RECOVERY => PlacementState::Restarting,
            _ => PlacementState::Down,
        }
    }

    /// Whether queries are admitted right now (§4.3).
    pub fn accepts_queries(&self) -> bool {
        matches!(
            self.phase.load(Ordering::Acquire),
            PHASE_ALIVE | PHASE_DISK_RECOVERY
        )
    }

    /// Whether adds are admitted right now (§4.3).
    pub fn accepts_adds(&self) -> bool {
        self.accepts_queries()
    }

    /// Published free memory in bytes.
    pub fn free_memory(&self) -> usize {
        self.free_memory.load(Ordering::Acquire)
    }

    /// Published row count.
    pub fn total_rows(&self) -> usize {
        self.total_rows.load(Ordering::Acquire)
    }

    /// True once the leaf thread has exited.
    pub fn is_down(&self) -> bool {
        self.phase.load(Ordering::Acquire) == PHASE_DOWN
    }

    /// How this leaf's boot recovered: `None` for a fresh boot (or while
    /// recovery is still running).
    pub fn recovery(&self) -> Option<&RecoveryOutcome> {
        self.recovery.get()
    }

    /// Whether this leaf's boot recovered through shared memory (`None`
    /// for a fresh boot or while recovery is still running).
    pub fn recovered_via_memory(&self) -> Option<bool> {
        self.recovery().map(RecoveryOutcome::is_memory)
    }
}

enum Command {
    /// Data plane: a typed ingest/query request, admitted through the
    /// bounded queue and subject to the shed policy.
    Request(Request),
    Expire {
        now: i64,
        reply: Sender<LeafResult<usize>>,
    },
    SyncDisk {
        reply: Sender<LeafResult<u64>>,
    },
    /// Clean shutdown: copy to shared memory, reply, exit the thread. A
    /// shutdown that fails crashes the server instead.
    Shutdown {
        now: i64,
        reply: Sender<LeafResult<ShutdownSummary>>,
    },
    /// Crash: drop everything, exit the thread.
    Kill,
}

impl Command {
    /// Answer whatever is waiting on this command with a down error —
    /// the exit-path drain: nothing queued is ever silently dropped.
    fn refuse_down(self) {
        match self {
            Command::Request(req) => {
                let operation = req.kind();
                req.refuse(LeafError::Unavailable {
                    operation,
                    phase: "DOWN",
                });
            }
            Command::Expire { reply, .. } => {
                let _ = reply.send(Err(down("expire")));
            }
            Command::SyncDisk { reply } => {
                let _ = reply.send(Err(down("sync disk")));
            }
            Command::Shutdown { reply, .. } => {
                let _ = reply.send(Err(down("shut down")));
            }
            Command::Kill => {}
        }
    }
}

/// A leaf server running on its own thread ("process").
#[derive(Debug)]
pub struct LeafHost {
    config: LeafConfig,
    status: Arc<HostStatus>,
    queue: AdmissionQueue<Command>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl LeafHost {
    /// Boot a fresh, empty leaf (first deployment) with default admission.
    /// The server is built on the calling thread, so the host is accepting
    /// immediately.
    pub fn fresh(config: LeafConfig) -> LeafResult<LeafHost> {
        Self::fresh_with(config, AdmissionConfig::default())
    }

    /// Boot a fresh leaf with explicit admission knobs.
    pub fn fresh_with(config: LeafConfig, admission: AdmissionConfig) -> LeafResult<LeafHost> {
        let server = LeafServer::new(config.clone())?;
        Ok(Self::spawn(config, admission, PHASE_ALIVE, move || {
            Ok((server, None))
        }))
    }

    /// Start a replacement process: recover from shared memory or disk on
    /// the leaf thread (so recovery blocks this leaf only, not the
    /// caller), then serve. The host rejects requests until recovery
    /// completes (§4.3).
    pub fn start(config: LeafConfig, now: i64) -> LeafHost {
        Self::start_with(config, now, AdmissionConfig::default())
    }

    /// Start a replacement with explicit admission knobs.
    pub fn start_with(config: LeafConfig, now: i64, admission: AdmissionConfig) -> LeafHost {
        let cfg = config.clone();
        Self::spawn(config, admission, PHASE_MEMORY_RECOVERY, move || {
            LeafServer::start(cfg, now, None).map(|(s, o)| (s, Some(o)))
        })
    }

    fn spawn(
        config: LeafConfig,
        admission: AdmissionConfig,
        initial_phase: u8,
        boot: impl FnOnce() -> LeafResult<(LeafServer, Option<RecoveryOutcome>)> + Send + 'static,
    ) -> LeafHost {
        let status = Arc::new(HostStatus::new(initial_phase));
        let leaf_key = format!("{}:{}", config.shm_prefix, config.leaf_id);
        let queue: AdmissionQueue<Command> = AdmissionQueue::new(&leaf_key, admission);
        let worker = queue.clone();
        let thread_status = Arc::clone(&status);
        let thread = std::thread::spawn(move || {
            let mut server = match boot() {
                Ok((server, outcome)) => {
                    if let Some(o) = outcome {
                        let _ = thread_status.recovery.set(o);
                    }
                    server
                }
                Err(_) => {
                    thread_status.phase.store(PHASE_DOWN, Ordering::Release);
                    // Anything that raced in during the failed boot is
                    // answered, not stranded.
                    for cmd in worker.drain_close() {
                        if matches!(cmd, Command::Request(_)) {
                            worker.finish();
                        }
                        cmd.refuse_down();
                    }
                    return;
                }
            };
            thread_status.publish(&server);
            // FIFO serve loop: every request enqueued before a shutdown is
            // answered before the shutdown runs — the Figure 5(c) "wait
            // for ADD/QUERY requests in progress to complete" barrier.
            while let Some(cmd) = worker.recv() {
                // Status is published BEFORE each reply so a caller that
                // just got an Ok sees its own write reflected in the
                // lock-free counters (read-your-writes for probes).
                match cmd {
                    Command::Request(Request::IngestBatch {
                        table,
                        rows,
                        now,
                        reply,
                    }) => {
                        let result = server.add_rows(&table, &rows, now);
                        thread_status.publish(&server);
                        // finish() before send(): once the caller sees the
                        // reply, the inflight gauge has already dropped.
                        worker.finish();
                        let _ = reply.send(result);
                    }
                    Command::Request(Request::Query { query, reply }) => {
                        let result = server.query(&query);
                        thread_status.publish(&server);
                        worker.finish();
                        let _ = reply.send(result);
                    }
                    Command::Expire { now, reply } => {
                        let result = server.expire(now);
                        thread_status.publish(&server);
                        let _ = reply.send(result);
                    }
                    Command::SyncDisk { reply } => {
                        let result = server.sync_disk();
                        thread_status.publish(&server);
                        let _ = reply.send(result);
                    }
                    Command::Shutdown { now, reply } => {
                        let result = server.shutdown_to_shm(now);
                        if result.is_err() {
                            // A leaf that cannot shut down cleanly is
                            // killed (§4.5): it loses what a real kill
                            // loses — rows not yet synced to disk.
                            server.crash();
                        }
                        thread_status.publish(&server);
                        let _ = reply.send(result);
                        break; // process exit
                    }
                    Command::Kill => {
                        server.crash();
                        thread_status.publish(&server);
                        break;
                    }
                }
            }
            // Process exit: whatever was admitted after the fatal command
            // is refused — never stranded with a dangling reply channel.
            for cmd in worker.drain_close() {
                if matches!(cmd, Command::Request(_)) {
                    worker.finish();
                }
                cmd.refuse_down();
            }
        });
        LeafHost {
            config,
            status,
            queue,
            thread: Some(thread),
        }
    }

    /// The leaf's configuration (for starting replacements).
    pub fn config(&self) -> &LeafConfig {
        &self.config
    }

    /// The published status block.
    pub fn status(&self) -> &Arc<HostStatus> {
        &self.status
    }

    /// The admission knobs this host runs with.
    pub fn admission(&self) -> &AdmissionConfig {
        self.queue.config()
    }

    /// Data-plane requests currently waiting in the admission queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Non-blocking data-plane entry point: admission-check the published
    /// phase, then push through the bounded queue per the shed policy. The
    /// caller keeps the reply receiver it built into `request`, so fan-out
    /// and open-loop senders never block on execution — only (under
    /// [`crate::admission::ShedPolicy::BlockWithDeadline`]) on admission.
    ///
    /// On shed the request's reply channel has already been answered with
    /// the same error this returns, so both waiters and fire-and-forget
    /// callers observe the outcome.
    pub fn submit(&self, request: Request) -> LeafResult<()> {
        let operation = request.kind();
        let accepts = match request {
            Request::IngestBatch { .. } => self.status.accepts_adds(),
            Request::Query { .. } => self.status.accepts_queries(),
        };
        if !accepts {
            let e = LeafError::Unavailable {
                operation,
                phase: "not accepting",
            };
            request.refuse(LeafError::Unavailable {
                operation,
                phase: "not accepting",
            });
            return Err(e);
        }
        match self.queue.admit(Command::Request(request)) {
            Ok(()) => Ok(()),
            Err((Command::Request(req), shed)) => {
                let e = shed.into_leaf_error(operation);
                req.refuse(shed.into_leaf_error(operation));
                Err(e)
            }
            Err(_) => unreachable!("admit returns the same command it was given"),
        }
    }

    /// Add rows (admission-checked against the published phase first, so
    /// callers are rejected instead of queued behind a recovery; shed per
    /// policy when the queue is at depth).
    pub fn add_rows(&self, table: &str, rows: Vec<Row>, now: i64) -> LeafResult<()> {
        let (reply, rx) = bounded(1);
        self.submit(Request::IngestBatch {
            table: table.to_owned(),
            rows,
            now,
            reply,
        })?;
        rx.recv().map_err(|_| down("add rows"))?
    }

    /// Send a query without waiting: returns the reply receiver so a
    /// caller can fan out to many hosts concurrently. Sheds (Busy /
    /// Deadline) surface here as an `Err`, before execution.
    pub fn query_async(
        &self,
        query: &Query,
    ) -> LeafResult<crossbeam::channel::Receiver<LeafResult<LeafQueryResult>>> {
        let (reply, rx) = bounded(1);
        self.submit(Request::Query {
            query: query.clone(),
            reply,
        })?;
        Ok(rx)
    }

    /// Blocking query.
    pub fn query(&self, query: &Query) -> LeafResult<LeafQueryResult> {
        self.query_async(query)?.recv().map_err(|_| down("query"))?
    }

    /// Apply retention (control plane: never shed by backpressure).
    pub fn expire(&self, now: i64) -> LeafResult<usize> {
        let (reply, rx) = bounded(1);
        self.queue
            .force(Command::Expire { now, reply })
            .map_err(|_| down("expire"))?;
        rx.recv().map_err(|_| down("expire"))?
    }

    /// Flush the disk backup (control plane).
    pub fn sync_disk(&self) -> LeafResult<u64> {
        let (reply, rx) = bounded(1);
        self.queue
            .force(Command::SyncDisk { reply })
            .map_err(|_| down("sync disk"))?;
        rx.recv().map_err(|_| down("sync disk"))?
    }

    /// Clean shutdown: drains queued requests first (FIFO), copies to
    /// shared memory, and terminates the thread. Consumes the host. On
    /// error the leaf has been killed, as [`Self::kill`] would.
    pub fn shutdown(mut self, now: i64) -> LeafResult<ShutdownSummary> {
        let (reply, rx) = bounded(1);
        self.queue
            .force(Command::Shutdown { now, reply })
            .map_err(|_| down("shut down"))?;
        let result = rx.recv().map_err(|_| down("shut down"))?;
        self.join();
        result
    }

    /// Crash the leaf (no shared-memory copy). Consumes the host.
    pub fn kill(mut self) {
        let _ = self.queue.force(Command::Kill);
        self.join();
    }

    fn join(&mut self) {
        self.queue.close(); // wake blocked producers; recv drains then ends
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.status.phase.store(PHASE_DOWN, Ordering::Release);
    }
}

impl Drop for LeafHost {
    fn drop(&mut self) {
        self.join();
    }
}

fn down(operation: &'static str) -> LeafError {
    LeafError::Unavailable {
        operation,
        phase: "DOWN",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scuba_columnstore::Value;
    use scuba_query::{merge_partials, AggSpec};
    use std::path::PathBuf;
    use std::sync::atomic::AtomicU32;

    static COUNTER: AtomicU32 = AtomicU32::new(0);

    fn config(tag: &str) -> (LeafConfig, Guard) {
        let faults = crate::hosted::tests::faults_lock();
        let id = COUNTER.fetch_add(1, Ordering::Relaxed);
        let prefix = format!("host{tag}{}", std::process::id());
        let dir =
            std::env::temp_dir().join(format!("scuba_host_{tag}_{}_{id}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (
            LeafConfig::new(id, &prefix, &dir),
            Guard {
                ns: scuba_shmem::ShmNamespace::new(&prefix, id).unwrap(),
                dir,
                _faults: faults,
            },
        )
    }

    struct Guard {
        ns: scuba_shmem::ShmNamespace,
        dir: PathBuf,
        _faults: crate::hosted::tests::FaultsLock,
    }
    impl Drop for Guard {
        fn drop(&mut self) {
            self.ns.unlink_all(8);
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    #[test]
    fn hosted_add_and_query() {
        let (cfg, _g) = config("aq");
        let host = LeafHost::fresh(cfg).unwrap();
        host.add_rows("t", (0..100).map(Row::at).collect(), 0)
            .unwrap();
        assert_eq!(host.status().total_rows(), 100);
        let r = host.query(&Query::new("t", 0, 100)).unwrap();
        assert_eq!(r.rows_matched, 100);
    }

    #[test]
    fn concurrent_clients_hammer_one_leaf() {
        let (cfg, _g) = config("conc");
        let host = Arc::new(LeafHost::fresh(cfg).unwrap());
        let mut handles = Vec::new();
        for w in 0..4i64 {
            let host = Arc::clone(&host);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    host.add_rows("t", vec![Row::at(w * 1000 + i)], 0).unwrap();
                    let r = host.query(&Query::new("t", 0, i64::MAX)).unwrap();
                    assert!(r.rows_matched >= 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(host.status().total_rows(), 200);
    }

    #[test]
    fn restart_cycle_through_hosts() {
        let (cfg, _g) = config("cycle");
        let host = LeafHost::fresh(cfg.clone()).unwrap();
        host.add_rows("t", (0..500).map(Row::at).collect(), 0)
            .unwrap();
        let summary = host.shutdown(0).unwrap();
        assert!(summary.backup.bytes_copied > 0);

        let host2 = LeafHost::start(cfg, 0);
        // Recovery happens on the leaf thread; wait for it.
        while !host2.status().accepts_queries() {
            std::thread::yield_now();
        }
        assert_eq!(host2.status().total_rows(), 500);
        let r = host2.query(&Query::new("t", 0, i64::MAX)).unwrap();
        assert_eq!(r.rows_matched, 500);
        host2.kill();
    }

    #[test]
    fn queued_queries_drain_before_shutdown() {
        // FIFO semantics: requests enqueued before the shutdown command
        // are answered (Figure 5(c)'s wait-for-in-flight).
        let (cfg, _g) = config("drain");
        let host = LeafHost::fresh(cfg).unwrap();
        host.add_rows("t", (0..100).map(Row::at).collect(), 0)
            .unwrap();
        let pending: Vec<_> = (0..8)
            .map(|_| host.query_async(&Query::new("t", 0, i64::MAX)).unwrap())
            .collect();
        let summary = host.shutdown(0).unwrap();
        assert!(summary.backup.chunks > 0);
        for rx in pending {
            let r = rx.recv().unwrap().unwrap();
            assert_eq!(r.rows_matched, 100);
        }
    }

    #[test]
    fn requests_rejected_after_down() {
        let (cfg, _g) = config("down");
        let host = LeafHost::fresh(cfg.clone()).unwrap();
        host.add_rows("t", vec![Row::at(1)], 0).unwrap();
        let status = Arc::clone(host.status());
        host.shutdown(0).unwrap();
        assert!(status.is_down());
        assert_eq!(status.placement_state(), PlacementState::Down);
        // A fresh handle on the same status rejects without blocking.
        assert!(!status.accepts_queries());
    }

    #[test]
    fn fan_out_query_across_hosts() {
        let mut hosts = Vec::new();
        let mut guards = Vec::new();
        for i in 0..3i64 {
            let (cfg, g) = config("fan");
            guards.push(g);
            let host = LeafHost::fresh(cfg).unwrap();
            host.add_rows(
                "t",
                (0..100)
                    .map(|k| Row::at(k).with("v", i * 100 + k))
                    .collect(),
                0,
            )
            .unwrap();
            hosts.push(host);
        }
        let q = Query::new("t", 0, i64::MAX).aggregates(vec![AggSpec::Count]);
        // Fan out: all leaves compute concurrently.
        let rxs: Vec<_> = hosts.iter().map(|h| h.query_async(&q).unwrap()).collect();
        let partials: Vec<_> = rxs
            .into_iter()
            .map(|rx| rx.recv().unwrap().unwrap())
            .collect();
        let merged = merge_partials(&q.aggregates, 3, &partials);
        assert_eq!(merged.totals().unwrap()[0], Value::Int(300));
        assert!(merged.is_complete());
    }

    #[test]
    fn expire_and_sync_through_host() {
        let (mut cfg, _g) = config("exp");
        cfg.retention = scuba_columnstore::table::RetentionLimits {
            max_age_secs: Some(50),
            max_bytes: None,
        };
        let host = LeafHost::fresh(cfg).unwrap();
        host.add_rows("t", (0..100).map(Row::at).collect(), 0)
            .unwrap();
        let synced = host.sync_disk().unwrap();
        assert!(synced > 0);
        // Seal happens at shutdown; expire only drops sealed blocks, so
        // nothing goes yet.
        assert_eq!(host.expire(1000).unwrap(), 0);
        assert_eq!(host.status().total_rows(), 100);
    }

    #[test]
    fn crash_then_disk_recovery_in_new_host() {
        let (cfg, _g) = config("crash");
        let host = LeafHost::fresh(cfg.clone()).unwrap();
        host.add_rows("t", (0..50).map(Row::at).collect(), 0)
            .unwrap();
        host.sync_disk().unwrap();
        host.kill();

        let host2 = LeafHost::start(cfg, 0);
        while !host2.status().accepts_queries() {
            std::thread::yield_now();
        }
        assert_eq!(host2.status().total_rows(), 50);
        host2.kill();
    }

    /// `HostStatus::store` publishes numbers before the phase: a reader
    /// already polling a recovering leaf's status must never see ALIVE
    /// with the numbers the status was born with. One writer, one reader,
    /// a fresh status per round; the writer holds each publish until the
    /// reader is spinning on that very status, which forces the
    /// interleaving every round.
    #[test]
    fn alive_is_never_published_ahead_of_its_numbers() {
        const ROUNDS: usize = 50_000;
        let statuses: Vec<HostStatus> = (0..ROUNDS)
            .map(|_| HostStatus::new(PHASE_MEMORY_RECOVERY))
            .collect();
        let reader_at = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for (i, status) in statuses.iter().enumerate() {
                    while reader_at.load(Ordering::Acquire) < i + 1 {
                        std::hint::spin_loop();
                    }
                    status.store(PHASE_ALIVE, i + 7, i + 1);
                }
            });
            // Count, don't assert, inside the scope: the writer waits on
            // this loop's progress, so a panic here would hang the join.
            let mut stale = 0usize;
            for (i, status) in statuses.iter().enumerate() {
                reader_at.store(i + 1, Ordering::Release);
                while !status.accepts_queries() {
                    std::hint::spin_loop();
                }
                if (status.total_rows(), status.free_memory()) != (i + 1, i + 7) {
                    stale += 1;
                }
            }
            assert_eq!(stale, 0, "rounds that saw ALIVE with stale numbers");
        });
    }
}
