//! The one copy pool behind every per-unit copy loop — the shutdown
//! copy-out, the full copy-back restore and the crash path's WAL replay —
//! plus thread-count resolution and the cross-thread footprint accounting
//! that keeps the §4.4 "memory footprint nearly unchanged" invariant
//! checkable while several units are in flight at once. Its fourth caller
//! is the leaf's query scan, one row block per job, through
//! [`fan_out_in_order`]: the same pool, its results consumed in job order
//! within a bounded window.
//!
//! [`fan_out`] owns the coordinator/worker contract; each caller supplies
//! only its per-unit closures, which is where the body of Figure 6's and
//! Figure 7's loops now lives. At one worker it runs those closures inline,
//! one unit at a time: the paper's loop, unchanged.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, OnceLock};

/// Environment override for the copy worker count. Takes precedence over
/// [`CopyOptions::threads`]; `0` or garbage is ignored.
pub const COPY_THREADS_ENV: &str = "SCUBA_COPY_THREADS";

/// Default [`CopyOptions::min_bytes_per_thread`]: one worker per 8 MiB of
/// estimated payload. Below that, pool startup plus channel handoff costs
/// more than the copy itself (a 7.5 MB leaf backed up ~8x *slower* on 4
/// threads than on 1 before this clamp existed).
pub const DEFAULT_MIN_BYTES_PER_THREAD: usize = 8 << 20;

/// Tuning knobs for the Figure 6/7 copy loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyOptions {
    /// Worker threads for the per-unit copy. `0` means auto
    /// ([`default_copy_threads`]); `1` runs [`fan_out`]'s inline case, one
    /// unit at a time on the caller's thread. The [`COPY_THREADS_ENV`]
    /// environment variable overrides this.
    pub threads: usize,
    /// Minimum estimated payload bytes per worker: the pool shrinks until
    /// every worker has at least this much to copy, down to the inline
    /// case for small leaves. `0` disables the clamp; a
    /// [`COPY_THREADS_ENV`] pin also bypasses it (an explicit env override
    /// means "use exactly this many", e.g. the CI thread matrix).
    pub min_bytes_per_thread: usize,
}

impl Default for CopyOptions {
    fn default() -> CopyOptions {
        CopyOptions {
            threads: 0,
            min_bytes_per_thread: DEFAULT_MIN_BYTES_PER_THREAD,
        }
    }
}

impl CopyOptions {
    /// Options with an explicit thread count (`0` = auto).
    pub fn with_threads(threads: usize) -> CopyOptions {
        CopyOptions {
            threads,
            ..CopyOptions::default()
        }
    }

    /// Disable the bytes-per-worker clamp (tests and benches that need a
    /// parallel pool over deliberately tiny fixtures).
    pub fn without_size_clamp(mut self) -> CopyOptions {
        self.min_bytes_per_thread = 0;
        self
    }

    /// The worker count after applying the env override and auto default.
    pub fn resolved_threads(&self) -> usize {
        resolve_copy_threads(self.threads)
    }

    /// The worker count for a run copying an estimated `total_bytes`:
    /// [`Self::resolved_threads`] shrunk so each worker gets at least
    /// [`Self::min_bytes_per_thread`] of payload.
    pub fn threads_for_bytes(&self, total_bytes: usize) -> usize {
        let threads = self.resolved_threads();
        if self.min_bytes_per_thread == 0 || env_copy_threads().is_some() {
            return threads;
        }
        threads.min((total_bytes / self.min_bytes_per_thread).max(1))
    }
}

/// The [`COPY_THREADS_ENV`] override, if set to a positive integer.
pub fn env_copy_threads() -> Option<usize> {
    std::env::var(COPY_THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .map(|n| n.min(64))
}

/// Default worker count: one per core, capped at 4. The copy is memory-
/// bandwidth-bound, so a handful of cores saturates it; more threads only
/// add coordination overhead (§4.3's 15 GB in 3–4 s is ~4 GiB/s). Cores
/// are counted once per process: on Linux each count reads the cgroup
/// files, and every leaf query sizes its scan from this.
pub fn default_copy_threads() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    cores.min(4)
}

/// Resolve a configured thread count: env override, then the configured
/// value, then the auto default. Clamped to 64 as a sanity bound.
pub fn resolve_copy_threads(configured: usize) -> usize {
    resolve_copy_threads_pinned(configured).0
}

/// [`resolve_copy_threads`], and whether [`COPY_THREADS_ENV`] pinned the
/// count (a pin bypasses every size clamp), from one read of the
/// environment.
pub fn resolve_copy_threads_pinned(configured: usize) -> (usize, bool) {
    if let Some(n) = env_copy_threads() {
        return (n, true);
    }
    if configured > 0 {
        return (configured.min(64), false);
    }
    (default_copy_threads(), false)
}

/// Run a stream of jobs through `threads` workers, keeping everything that
/// orders the run on the calling thread.
///
/// The coordinator (the caller's thread) pulls job `i` from `next(i)` until
/// it returns `None`, and hands each one to a worker over a
/// `sync_channel(1)`: at most `threads` jobs in work plus one queued, the
/// cap that keeps the §4.4 footprint flat. Workers run `work`; every result
/// comes back to the coordinator, which passes it to `consume` between
/// dispatches and after the last one. So `next` and `consume` — the only
/// closures that get the caller's `&mut` state — never leave its thread.
///
/// An error from any closure stops dispatch. Jobs handed off after the
/// failed one and not yet started go to `discard`, exactly once each; jobs
/// before it still run, so the run returns the error of the lowest failing
/// job index — the one the inline case returns — whatever the scheduling.
///
/// A `work` that panics stops dispatch, and the run re-raises the panic
/// once its workers are done.
///
/// With `threads <= 1` nothing is spawned: each job runs
/// `next → work → consume` inline and the first error returns at once, so
/// one job is in flight at a time.
pub fn fan_out<J, R, E>(
    threads: usize,
    next: impl FnMut(usize) -> Option<Result<J, E>>,
    work: impl Fn(J) -> Result<R, E> + Sync,
    discard: impl Fn(J) + Sync,
    consume: impl FnMut(R) -> Result<(), E>,
) -> Result<(), E>
where
    J: Send,
    R: Send,
    E: Send,
{
    pool(threads, None, next, work, discard, consume)
}

/// [`fan_out`], with `consume` called in job order: it sees exactly the
/// results the inline case's `consume` sees — jobs `0..f` for a run whose
/// lowest failing job is `f`, every job for a run that succeeds — in that
/// order. A result that finishes early waits for the earlier ones, and
/// job `i` is handed off only once job `i - 2 * threads` is consumed, so
/// at most `2 * threads - 1` results wait, however slow one job is.
pub fn fan_out_in_order<J, R, E>(
    threads: usize,
    next: impl FnMut(usize) -> Option<Result<J, E>>,
    work: impl Fn(J) -> Result<R, E> + Sync,
    discard: impl Fn(J) + Sync,
    consume: impl FnMut(R) -> Result<(), E>,
) -> Result<(), E>
where
    J: Send,
    R: Send,
    E: Send,
{
    pool(
        threads,
        Some(reorder_window(threads)),
        next,
        work,
        discard,
        consume,
    )
}

/// Most jobs [`fan_out_in_order`] keeps handed off and not yet consumed:
/// each worker can run about one job ahead of the slowest.
fn reorder_window(threads: usize) -> usize {
    2 * threads
}

/// Results that finished ahead of an earlier job's, and the job whose
/// result `consume` takes next.
struct InOrder<R> {
    held: BTreeMap<usize, R>,
    next: usize,
}

/// [`fan_out`] (`window: None`) and [`fan_out_in_order`].
fn pool<J, R, E>(
    threads: usize,
    window: Option<usize>,
    mut next: impl FnMut(usize) -> Option<Result<J, E>>,
    work: impl Fn(J) -> Result<R, E> + Sync,
    discard: impl Fn(J) + Sync,
    mut consume: impl FnMut(R) -> Result<(), E>,
) -> Result<(), E>
where
    J: Send,
    R: Send,
    E: Send,
{
    if threads <= 1 {
        let mut index = 0;
        while let Some(job) = next(index) {
            consume(work(job?)?)?;
            index += 1;
        }
        return Ok(());
    }

    // The lowest job index that failed so far (`usize::MAX`: none). It
    // publishes no other data; Release/Acquire only keeps a worker from
    // starting a job the coordinator already knows is doomed.
    let failed_at = AtomicUsize::new(usize::MAX);
    let failed = || failed_at.load(Ordering::Acquire) != usize::MAX;
    let mut first_err: Option<(usize, E)> = None;
    let fail = |index: usize, e: E, first_err: &mut Option<(usize, E)>| {
        failed_at.fetch_min(index, Ordering::AcqRel);
        if first_err.as_ref().is_none_or(|(i, _)| index < *i) {
            *first_err = Some((index, e));
        }
    };
    let mut order = InOrder {
        held: BTreeMap::new(),
        next: 0,
    };
    let (job_tx, job_rx) = mpsc::sync_channel::<(usize, J)>(1);
    let job_rx = Mutex::new(job_rx);
    std::thread::scope(|scope| {
        // `None`: the job's `work` panicked.
        let (res_tx, res_rx) = mpsc::channel::<(usize, Option<Result<R, E>>)>();
        for _ in 0..threads {
            let res_tx = res_tx.clone();
            let (job_rx, failed_at, work, discard) = (&job_rx, &failed_at, &work, &discard);
            scope.spawn(move || loop {
                let job = job_rx
                    .lock()
                    .expect("no worker panics holding the queue")
                    .recv();
                let Ok((index, job)) = job else { break };
                if index > failed_at.load(Ordering::Acquire) {
                    // Keep draining so the coordinator's send never blocks
                    // on a queue nobody reads.
                    discard(job);
                    continue;
                }
                let result = match panic::catch_unwind(AssertUnwindSafe(|| work(job))) {
                    Ok(result) => result,
                    Err(payload) => {
                        // Stop the run and wake the coordinator, which may
                        // be waiting on this very job; the scope re-raises
                        // the panic once every worker is done.
                        failed_at.store(0, Ordering::Release);
                        let _ = res_tx.send((index, None));
                        panic::resume_unwind(payload);
                    }
                };
                if result.is_err() {
                    failed_at.fetch_min(index, Ordering::AcqRel);
                }
                let _ = res_tx.send((index, Some(result)));
            });
        }
        drop(res_tx); // workers hold the remaining senders

        let mut settle = |(index, result): (usize, Option<Result<R, E>>),
                          first_err: &mut Option<_>,
                          order: &mut InOrder<R>| {
            let r = match result {
                Some(Ok(r)) => r,
                Some(Err(e)) => return fail(index, e, first_err),
                None => return,
            };
            if window.is_none() {
                if let Err(e) = consume(r) {
                    fail(index, e, first_err);
                }
                return;
            }
            // In order: nothing at or past a known failure is consumed.
            order.held.insert(index, r);
            while order.next < failed_at.load(Ordering::Acquire) {
                let Some(r) = order.held.remove(&order.next) else {
                    break;
                };
                if let Err(e) = consume(r) {
                    fail(order.next, e, first_err);
                    break;
                }
                order.next += 1;
            }
        };
        let mut index = 0;
        while !failed() {
            if let Some(window) = window {
                // Job `index` waits until job `index - window` is consumed.
                // The lowest unconsumed job is in work (it is not past a
                // failure, so no worker discards it): its result comes.
                while index >= order.next + window && !failed() {
                    let Ok(done) = res_rx.recv() else { break };
                    settle(done, &mut first_err, &mut order);
                }
                if failed() {
                    break;
                }
            }
            let Some(job) = next(index) else { break };
            match job {
                Ok(job) => {
                    if let Err(mpsc::SendError((_, job))) = job_tx.send((index, job)) {
                        discard(job); // every worker is gone: unreachable
                        break;
                    }
                }
                Err(e) => {
                    fail(index, e, &mut first_err);
                    break;
                }
            }
            index += 1;
            for done in res_rx.try_iter() {
                settle(done, &mut first_err, &mut order);
            }
        }
        drop(job_tx); // close the queue; workers drain and exit
        for done in res_rx.iter() {
            settle(done, &mut first_err, &mut order);
        }
    });
    first_err.map_or(Ok(()), |(_, e)| Err(e))
}

/// Shared footprint accounting for one backup or restore run.
///
/// The combined footprint at any instant is
/// `store heap + in-flight unit heap + live shm payload`: extraction moves
/// bytes from the first term to the second (no growth), and each chunk
/// copy moves bytes from the second to the third (heap freed as shm is
/// written), so the sum stays flat — that is exactly the §4.4 argument,
/// and the peak recorded here is what `footprint_tracked` asserts against.
/// All counters are atomics so worker threads update them lock-free; the
/// peak is a `fetch_max` over the instantaneous sum.
#[derive(Debug)]
pub(crate) struct FootprintTracker {
    /// Store heap, republished by the coordinator after each
    /// extract/install (workers cannot call `heap_bytes()`).
    store_heap: AtomicUsize,
    /// Heap held by units extracted but not yet fully serialized, or
    /// decoded but not yet installed.
    in_flight_heap: AtomicUsize,
    /// Live shared-memory payload: grows per frame during backup, shrinks
    /// per drained segment during restore.
    shm_bytes: AtomicUsize,
    /// Peak of the instantaneous sum.
    peak: AtomicUsize,
}

impl FootprintTracker {
    pub(crate) fn new(initial_heap: usize) -> FootprintTracker {
        FootprintTracker {
            store_heap: AtomicUsize::new(initial_heap),
            in_flight_heap: AtomicUsize::new(0),
            shm_bytes: AtomicUsize::new(0),
            peak: AtomicUsize::new(initial_heap),
        }
    }

    pub(crate) fn set_store_heap(&self, bytes: usize) {
        self.store_heap.store(bytes, Ordering::Relaxed);
    }

    pub(crate) fn add_in_flight(&self, bytes: usize) {
        self.in_flight_heap.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Saturating: estimate drift must never wrap the counter.
    pub(crate) fn sub_in_flight(&self, bytes: usize) {
        let _ = self
            .in_flight_heap
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(bytes))
            });
    }

    pub(crate) fn add_shm(&self, bytes: usize) {
        self.shm_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn sub_shm(&self, bytes: usize) {
        let _ = self
            .shm_bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(bytes))
            });
    }

    /// Record the current sum into the peak.
    pub(crate) fn sample(&self) {
        let sum = self.store_heap.load(Ordering::Relaxed)
            + self.in_flight_heap.load(Ordering::Relaxed)
            + self.shm_bytes.load(Ordering::Relaxed);
        self.peak.fetch_max(sum, Ordering::Relaxed);
    }

    pub(crate) fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn resolution_order() {
        // Configured value wins over auto (env handled in integration
        // contexts; not settable here without racing other tests).
        if std::env::var(COPY_THREADS_ENV).is_err() {
            assert_eq!(resolve_copy_threads(3), 3);
            let auto = resolve_copy_threads(0);
            assert!((1..=4).contains(&auto), "auto = {auto}");
            assert_eq!(resolve_copy_threads(1000), 64);
        }
    }

    #[test]
    fn byte_clamp_shrinks_small_pools() {
        // The e1 regression shape: a ~7.5 MB leaf must not fan out.
        if std::env::var(COPY_THREADS_ENV).is_err() {
            let opts = CopyOptions::with_threads(4);
            assert_eq!(opts.threads_for_bytes(7_500_000), 1);
            assert_eq!(opts.threads_for_bytes(DEFAULT_MIN_BYTES_PER_THREAD * 2), 2);
            assert_eq!(
                opts.threads_for_bytes(DEFAULT_MIN_BYTES_PER_THREAD * 100),
                4
            );
            assert_eq!(opts.threads_for_bytes(0), 1);
            // Opting out restores the configured count.
            assert_eq!(opts.without_size_clamp().threads_for_bytes(1), 4);
        }
    }

    #[test]
    fn tracker_peak_tracks_sum() {
        let t = FootprintTracker::new(100);
        assert_eq!(t.peak(), 100);
        t.add_in_flight(50);
        t.set_store_heap(50);
        t.sample();
        assert_eq!(t.peak(), 100);
        t.add_shm(30); // frame written before the heap chunk is released
        t.sample();
        assert_eq!(t.peak(), 130);
        t.sub_in_flight(30);
        t.sample();
        assert_eq!(t.peak(), 130);
        t.sub_in_flight(1000); // saturates, no wrap
        t.sub_shm(1000);
        t.sample();
        assert_eq!(t.peak(), 130);
    }

    /// Where a scripted run fails: in `next`, `work` or `consume`, by job
    /// index.
    #[derive(Default)]
    struct Script {
        jobs: usize,
        next: Vec<usize>,
        work: Vec<usize>,
        consume: Vec<usize>,
    }

    /// Run `script` through [`fan_out`]; the error is the failing job's
    /// index, the success value the consumed indices in order.
    fn run(threads: usize, script: &Script) -> Result<Vec<usize>, usize> {
        let mut consumed = Vec::new();
        run_with(false, threads, script, &mut consumed).map(|()| consumed)
    }

    /// Run `script` through [`fan_out_in_order`] (or [`fan_out`]),
    /// pushing the consumed indices onto `consumed` in the order `consume`
    /// saw them.
    fn run_with(
        in_order: bool,
        threads: usize,
        script: &Script,
        consumed: &mut Vec<usize>,
    ) -> Result<(), usize> {
        let next = |i| {
            (i < script.jobs).then(|| {
                if script.next.contains(&i) {
                    Err(i)
                } else {
                    Ok(i)
                }
            })
        };
        let work = |i| {
            if script.work.contains(&i) {
                Err(i)
            } else {
                Ok(i)
            }
        };
        let consume = |i| {
            if script.consume.contains(&i) {
                return Err(i);
            }
            consumed.push(i);
            Ok(())
        };
        if in_order {
            fan_out_in_order(threads, next, work, drop, consume)
        } else {
            fan_out(threads, next, work, drop, consume)
        }
    }

    #[test]
    fn fan_out_surfaces_the_lowest_failing_index() {
        let scripts = [
            (
                Script {
                    jobs: 40,
                    work: vec![5, 9, 30],
                    ..Script::default()
                },
                5,
            ),
            (
                Script {
                    jobs: 40,
                    work: vec![31],
                    next: vec![17],
                    ..Script::default()
                },
                17,
            ),
            (
                Script {
                    jobs: 40,
                    consume: vec![2, 3],
                    work: vec![4],
                    ..Script::default()
                },
                2,
            ),
            (
                Script {
                    jobs: 40,
                    next: vec![12],
                    consume: vec![11],
                    ..Script::default()
                },
                11,
            ),
            (
                Script {
                    jobs: 40,
                    work: vec![0],
                    consume: vec![39],
                    ..Script::default()
                },
                0,
            ),
            (
                Script {
                    jobs: 40,
                    work: vec![39],
                    ..Script::default()
                },
                39,
            ),
        ];
        for threads in [1, 2, 8] {
            for (script, lowest) in &scripts {
                // Repeat: the pool's interleaving differs run to run, the
                // surfaced error must not.
                for _ in 0..20 {
                    assert_eq!(run(threads, script), Err(*lowest), "threads {threads}");
                    // In order, `consume` sees what the inline case's
                    // does: the jobs below the lowest failing one.
                    let mut consumed = Vec::new();
                    let result = run_with(true, threads, script, &mut consumed);
                    assert_eq!(result, Err(*lowest), "threads {threads}");
                    assert_eq!(consumed, (0..*lowest).collect::<Vec<_>>());
                }
            }
            let mut consumed = Vec::new();
            let script = Script {
                jobs: 40,
                ..Script::default()
            };
            run_with(true, threads, &script, &mut consumed).unwrap();
            assert_eq!(consumed, (0..40).collect::<Vec<_>>(), "threads {threads}");
            let mut all = run(
                threads,
                &Script {
                    jobs: 40,
                    ..Script::default()
                },
            )
            .unwrap();
            all.sort_unstable();
            assert_eq!(all, (0..40).collect::<Vec<_>>(), "threads {threads}");
        }
    }

    /// A gate a test opens once and any number of threads wait on.
    #[derive(Default)]
    struct Gate(Mutex<bool>, std::sync::Condvar);

    impl Gate {
        fn open(&self) {
            *self.0.lock().unwrap() = true;
            self.1.notify_all();
        }
        fn wait(&self) {
            let mut open = self.0.lock().unwrap();
            while !*open {
                open = self.1.wait(open).unwrap();
            }
        }
    }

    #[test]
    fn fan_out_discards_every_unstarted_job_once() {
        for threads in [1usize, 2, 8] {
            // Job 0 fails once the pool is full: jobs 1..threads are taken
            // (and held in `work` if started), job `threads` is queued and
            // job `threads + 1` is being handed off. Those two reach a
            // worker only after the failure, so both are discarded; a taken
            // job may be too, if its worker had not started it yet. The
            // first discard lets the held jobs finish.
            let (fail_now, release) = (Gate::default(), Gate::default());
            let outstanding = AtomicUsize::new(0);
            let (worked, discarded) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let result = fan_out(
                threads,
                |i| {
                    if i == threads + 1 {
                        fail_now.open();
                    }
                    (i <= threads + 1).then(|| {
                        outstanding.fetch_add(1, Ordering::SeqCst);
                        Ok::<_, usize>(i)
                    })
                },
                |i| {
                    outstanding.fetch_sub(1, Ordering::SeqCst);
                    worked.fetch_add(1, Ordering::SeqCst);
                    match i {
                        0 if threads > 1 => fail_now.wait(),
                        0 => {}
                        _ => release.wait(),
                    }
                    if i == 0 {
                        Err(0)
                    } else {
                        Ok(())
                    }
                },
                |_| {
                    outstanding.fetch_sub(1, Ordering::SeqCst);
                    discarded.fetch_add(1, Ordering::SeqCst);
                    release.open();
                },
                |()| Ok(()),
            );
            assert_eq!(result, Err(0), "threads {threads}");
            assert_eq!(outstanding.load(Ordering::SeqCst), 0, "threads {threads}");
            let worked = worked.load(Ordering::SeqCst);
            let discarded = discarded.load(Ordering::SeqCst);
            if threads == 1 {
                // Inline: the failure stops the loop before job 1 exists.
                assert_eq!((worked, discarded), (1, 0));
            } else {
                assert_eq!(worked + discarded, threads + 2, "threads {threads}");
                assert!(discarded >= 2, "threads {threads}: {discarded} discarded");
            }
        }
    }

    /// A slow job holds back at most the reorder window: while job 0 runs,
    /// only jobs `1..2 * threads` are handed off, and their results wait
    /// for job 0's before `consume` sees them, in job order.
    #[test]
    fn fan_out_in_order_holds_at_most_its_window_behind_a_slow_job() {
        for threads in [2usize, 3, 8] {
            let window = reorder_window(threads);
            let (highest_started, done) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let started_behind_0 = AtomicUsize::new(0);
            let mut order = Vec::new();
            fan_out_in_order(
                threads,
                |i| (i < 64).then_some(Ok::<_, ()>(i)),
                |i| {
                    highest_started.fetch_max(i, Ordering::SeqCst);
                    if i == 0 {
                        // Wait for every job the window lets past this one,
                        // then give a job past the window time to start.
                        let deadline = Instant::now() + Duration::from_secs(10);
                        while done.load(Ordering::SeqCst) < window - 1 && Instant::now() < deadline
                        {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        std::thread::sleep(Duration::from_millis(20));
                        started_behind_0
                            .store(highest_started.load(Ordering::SeqCst), Ordering::SeqCst);
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                    Ok(i)
                },
                drop,
                |i| {
                    order.push(i);
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(order, (0..64).collect::<Vec<_>>(), "threads {threads}");
            assert_eq!(
                started_behind_0.into_inner(),
                window - 1,
                "threads {threads}"
            );
        }
    }

    /// A panicking job ends the run with its panic, in order or not,
    /// even while the coordinator waits on that job's result.
    #[test]
    fn a_panicking_job_panics_the_run() {
        for in_order in [false, true] {
            let run = std::panic::catch_unwind(|| {
                let work = |i: usize| {
                    if i == 0 {
                        std::thread::sleep(Duration::from_millis(20));
                        panic!("job 0");
                    }
                    Ok::<_, ()>(i)
                };
                let next = |i| (i < 64).then_some(Ok(i));
                if in_order {
                    fan_out_in_order(4, next, work, drop, |_| Ok(()))
                } else {
                    fan_out(4, next, work, drop, |_| Ok(()))
                }
            });
            assert!(run.is_err(), "in order: {in_order}");
        }
    }

    #[test]
    fn fan_out_consumes_on_the_callers_thread() {
        let caller = std::thread::current().id();
        for threads in [1, 2, 8] {
            let on_caller = |_| assert_eq!(std::thread::current().id(), caller);
            let mut consumed = 0;
            fan_out(
                threads,
                |i| {
                    on_caller(());
                    (i < 32).then_some(Ok::<_, ()>(i))
                },
                Ok,
                drop,
                |_| {
                    on_caller(());
                    consumed += 1;
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(consumed, 32, "threads {threads}");
        }
    }

    #[test]
    fn fan_out_at_one_worker_is_the_sequential_loop() {
        let caller = std::thread::current().id();
        // Jobs produced by `next` and not yet consumed.
        let in_flight = std::cell::Cell::new(0usize);
        let (mut peak, mut order) = (0, Vec::new());
        fan_out(
            1,
            |i| {
                in_flight.set(in_flight.get() + 1);
                peak = peak.max(in_flight.get());
                (i < 16).then_some(Ok::<_, ()>(i))
            },
            |i| {
                assert_eq!(std::thread::current().id(), caller, "work left the caller");
                Ok(i)
            },
            drop,
            |i| {
                in_flight.set(in_flight.get() - 1);
                order.push(i);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(peak, 1, "more than one job in flight");
        assert_eq!(order, (0..16).collect::<Vec<_>>());
    }
}
