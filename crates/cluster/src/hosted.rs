//! The cluster: machines × leaves, every leaf on its own thread behind
//! a bounded admission queue, queries fanned out concurrently and merged
//! (the two-level aggregator path of Figure 1), and the stop/start halves
//! the rollover loop ([`crate::rollover::rollover`]) restarts waves
//! with **while** clients keep querying from other threads — the §4.5
//! scenario with real concurrency.
//!
//! Each leaf slot sits behind its own `RwLock`, so restarting one leaf
//! never blocks traffic to the other `N-1`: a restart write-locks a slot
//! only for the instants it takes the old host out and puts the
//! replacement in, and the admission queues in front of every leaf keep
//! overload bounded while the fleet is degraded.

use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::RwLock;
use scuba_columnstore::table::RetentionLimits;
use scuba_columnstore::Row;
use scuba_ingest::{LeafClient, PlacementState};
use scuba_leaf::{LeafConfig, LeafResult, RecoveryOutcome};
use scuba_query::{merge_partials, LeafQueryResult, MergedResult, Query};
use scuba_shmem::ShmNamespace;

use crate::admission::AdmissionConfig;
use crate::host::LeafHost;
use crate::rollover::RolloverConfig;

/// Cluster construction parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of machines.
    pub machines: usize,
    /// Leaf servers per machine (the paper runs 8).
    pub leaves_per_machine: usize,
    /// Shared-memory name prefix for the whole cluster.
    pub shm_prefix: String,
    /// Root directory for all disk backups.
    pub disk_root: PathBuf,
    /// Per-leaf memory capacity in bytes.
    pub leaf_memory_capacity: usize,
    /// Retention limits for every leaf.
    pub retention: RetentionLimits,
}

/// A cluster whose leaves are threads behind bounded admission queues.
#[derive(Debug)]
pub struct HostedCluster {
    config: ClusterConfig,
    admission: AdmissionConfig,
    /// Flattened hosts: machine `m`, leaf `l` lives at `m * L + l`.
    /// `None` while the leaf is stopped. Per-slot locks: restarting one
    /// leaf never stalls traffic to the rest.
    hosts: Vec<RwLock<Option<LeafHost>>>,
}

/// Outcome of restarting one wave of leaves with
/// [`HostedCluster::restart_leaves`].
#[derive(Debug)]
pub struct WaveOutcome {
    /// Leaves restarted in this wave.
    pub restarted: usize,
    /// Of which recovered via shared memory.
    pub memory_recoveries: usize,
    /// Availability while the wave was down.
    pub min_availability: f64,
}

/// Per-leaf admission outcomes of one fan-out query.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QueryFanoutStats {
    /// Leaves that admitted and answered.
    pub answered: usize,
    /// Leaves that shed the query at admission (Busy / Deadline) — alive
    /// but overloaded.
    pub shed: usize,
    /// Leaves down or recovering (not counted as shed).
    pub unavailable: usize,
}

impl HostedCluster {
    /// Boot all leaves (each on its own thread) with default admission.
    pub fn new(config: ClusterConfig) -> LeafResult<HostedCluster> {
        Self::with_admission(config, AdmissionConfig::default())
    }

    /// Boot all leaves with explicit admission knobs (queue depth + shed
    /// policy, applied to every leaf).
    pub fn with_admission(
        config: ClusterConfig,
        admission: AdmissionConfig,
    ) -> LeafResult<HostedCluster> {
        let mut cluster = HostedCluster {
            config,
            admission,
            hosts: Vec::new(),
        };
        let total = cluster.config.machines * cluster.config.leaves_per_machine;
        for idx in 0..total {
            let host = LeafHost::fresh_with(cluster.leaf_config(idx), admission)?;
            cluster.hosts.push(RwLock::new(Some(host)));
        }
        Ok(cluster)
    }

    /// Leaf `idx`'s configuration: its own disk root and shared-memory
    /// namespace, derived from the cluster prefix and the global leaf
    /// numbering. Every process that ever serves the slot runs with it.
    fn leaf_config(&self, idx: usize) -> LeafConfig {
        let m = idx / self.config.leaves_per_machine;
        let l = idx % self.config.leaves_per_machine;
        let mut config = LeafConfig::new(
            idx as u32,
            &self.config.shm_prefix,
            self.config.disk_root.join(format!("m{m}_l{l}")),
        );
        config.memory_capacity = self.config.leaf_memory_capacity;
        config.retention = self.config.retention;
        config
    }

    /// The construction config.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The admission knobs every leaf runs with.
    pub fn admission(&self) -> &AdmissionConfig {
        &self.admission
    }

    /// Total leaf count.
    pub fn total_leaves(&self) -> usize {
        self.hosts.len()
    }

    /// Every leaf's metric label (`shm_prefix:leaf_id`), in slot order —
    /// the key its `leaf`-labeled series are published under.
    pub fn leaf_keys(&self) -> Vec<String> {
        (0..self.total_leaves())
            .map(|idx| format!("{}:{idx}", self.config.shm_prefix))
            .collect()
    }

    /// Unlink every leaf's shared-memory segments — cleanup once the
    /// cluster is done with them.
    pub fn unlink_shm(&self) {
        for idx in 0..self.total_leaves() {
            if let Ok(ns) = ShmNamespace::new(&self.config.shm_prefix, idx as u32) {
                ns.unlink_all(8);
            }
        }
    }

    /// Run `f` against leaf `idx` (or `None` while it is stopped). The
    /// slot's read lock is held for the duration.
    pub fn with_host<R>(&self, idx: usize, f: impl FnOnce(Option<&LeafHost>) -> R) -> R {
        let guard = self.hosts[idx].read();
        f(guard.as_ref())
    }

    /// Run `f` for every present leaf in slot order.
    pub fn for_each_host(&self, mut f: impl FnMut(usize, &LeafHost)) {
        for (i, slot) in self.hosts.iter().enumerate() {
            let guard = slot.read();
            if let Some(host) = guard.as_ref() {
                f(i, host);
            }
        }
    }

    /// Add rows to one leaf through its admission queue.
    pub fn add_rows(&self, leaf: usize, table: &str, rows: Vec<Row>, now: i64) -> LeafResult<()> {
        let guard = self.hosts[leaf].read();
        match guard.as_ref() {
            Some(host) => host.add_rows(table, rows, now),
            None => Err(scuba_leaf::LeafError::Unavailable {
                operation: "add rows",
                phase: "DOWN",
            }),
        }
    }

    /// Rows across all live leaves (published counters; lock-free reads
    /// behind the slot locks).
    pub fn total_rows(&self) -> usize {
        let mut total = 0;
        self.for_each_host(|_, h| total += h.status().total_rows());
        total
    }

    /// Fraction of leaves currently answering queries — the "98% of data
    /// online" dashboard number. A leaf that is *shedding* under overload
    /// still counts as answering — shedding is backpressure, not
    /// unavailability.
    pub fn availability(&self) -> f64 {
        let mut up = 0;
        self.for_each_host(|_, h| {
            if h.status().accepts_queries() {
                up += 1;
            }
        });
        up as f64 / self.total_leaves() as f64
    }

    /// Fan a query out to every leaf concurrently and merge what comes
    /// back; leaves that are down or recovering just don't contribute
    /// ("Scuba can and does return partial query results", §1).
    pub fn query(&self, query: &Query) -> MergedResult {
        self.query_detailed(query).0
    }

    /// Fan-out query with per-leaf admission accounting: how many leaves
    /// answered, shed (overload), or were unavailable (down/recovering).
    /// The load generator uses the split to prove no request is *lost* —
    /// every fan-out leg is answered, shed, or known-down.
    pub fn query_detailed(&self, query: &Query) -> (MergedResult, QueryFanoutStats) {
        let mut stats = QueryFanoutStats::default();
        let mut receivers = Vec::with_capacity(self.hosts.len());
        for slot in &self.hosts {
            let guard = slot.read();
            match guard.as_ref() {
                Some(host) => match host.query_async(query) {
                    Ok(rx) => receivers.push(rx),
                    Err(e) if e.is_shed() => stats.shed += 1,
                    Err(_) => stats.unavailable += 1,
                },
                None => stats.unavailable += 1,
            }
        }
        let partials: Vec<LeafQueryResult> = receivers
            .into_iter()
            .filter_map(|rx| rx.recv().ok().and_then(Result::ok))
            .collect();
        stats.answered = partials.len();
        let mut merged = merge_partials(&query.aggregates, self.total_leaves(), &partials);
        merged.leaves_total = self.total_leaves();
        (merged, stats)
    }

    /// Tailer-facing clients over the hosts (lock per call: they keep
    /// working across a concurrent rollover, routing around slots that
    /// are stopped).
    pub fn leaf_clients(&self) -> Vec<HostClient<'_>> {
        self.hosts.iter().map(|slot| HostClient { slot }).collect()
    }

    /// Take leaves `ids` (global ids) out of service: each is shut down
    /// through shared memory — or killed, with `cfg.use_shm` off — and
    /// its slot stays empty until [`Self::start_leaves`]. A leaf whose
    /// clean shutdown fails has been killed by its host, so its
    /// replacement recovers from disk (§4.5). Returns how many leaves
    /// were killed rather than cleanly shut down.
    pub fn stop_leaves(&self, ids: &[usize], cfg: &RolloverConfig) -> usize {
        let mut killed = 0;
        for &idx in ids {
            let host = self.hosts[idx].write().take().expect("leaf running");
            if !cfg.use_shm {
                host.kill();
                killed += 1;
            } else if host.shutdown(cfg.now).is_err() {
                killed += 1;
            }
        }
        killed
    }

    /// Boot a replacement for each stopped leaf in `ids` — each recovers
    /// from shared memory or disk on its own thread, concurrently — then
    /// wait until every one is answering or has failed to boot. Returns
    /// each replacement's recovery outcome in `ids` order; one that failed
    /// to boot has none.
    pub fn start_leaves(
        &self,
        ids: &[usize],
        cfg: &RolloverConfig,
    ) -> Vec<(usize, RecoveryOutcome)> {
        let mut statuses = Vec::with_capacity(ids.len());
        for &idx in ids {
            let mut config = self.leaf_config(idx);
            config.trace_id = cfg.trace_id;
            let replacement = LeafHost::start_with(config, cfg.now, self.admission);
            statuses.push(Arc::clone(replacement.status()));
            let previous = self.hosts[idx].write().replace(replacement);
            assert!(previous.is_none(), "leaf {idx} started while running");
        }
        let mut outcomes = Vec::with_capacity(ids.len());
        for (&idx, status) in ids.iter().zip(statuses) {
            while !status.accepts_queries() && !status.is_down() {
                std::thread::yield_now();
            }
            if let Some(outcome) = status.recovery() {
                outcomes.push((idx, outcome.clone()));
            }
        }
        outcomes
    }

    /// Restart one wave of leaves: [`Self::stop_leaves`], then
    /// [`Self::start_leaves`]. Traffic to the other slots keeps flowing
    /// throughout — the write lock is held only for the take/put instants.
    pub fn restart_leaves(&self, ids: &[usize], cfg: &RolloverConfig) -> WaveOutcome {
        self.stop_leaves(ids, cfg);
        // The wave is at its most degraded right before replacements land.
        let min_availability = self.availability();
        let outcomes = self.start_leaves(ids, cfg);
        WaveOutcome {
            restarted: ids.len(),
            memory_recoveries: outcomes.iter().filter(|(_, o)| o.is_memory()).count(),
            min_availability,
        }
    }

    /// Machine-major leaf order: consecutive ids land on different
    /// machines, so any contiguous wave of at most `machines` leaves
    /// restarts at most one leaf per machine (§4.5).
    pub fn rollover_order(&self) -> Vec<usize> {
        let lpm = self.config.leaves_per_machine;
        let mut order = Vec::with_capacity(self.hosts.len());
        for l in 0..lpm {
            for m in 0..self.config.machines {
                order.push(m * lpm + l);
            }
        }
        order
    }
}

/// [`LeafClient`] adapter over a hosted leaf slot. Locks per call, so one
/// client value stays valid across leaf replacements.
#[derive(Debug)]
pub struct HostClient<'a> {
    slot: &'a RwLock<Option<LeafHost>>,
}

impl LeafClient for HostClient<'_> {
    fn placement_state(&self) -> PlacementState {
        self.slot
            .read()
            .as_ref()
            .map(|h| h.status().placement_state())
            .unwrap_or(PlacementState::Down)
    }

    fn free_memory(&self) -> usize {
        self.slot
            .read()
            .as_ref()
            .map(|h| h.status().free_memory())
            .unwrap_or(0)
    }

    fn deliver(&mut self, table: &str, rows: &[Row]) -> Result<(), String> {
        let guard = self.slot.read();
        let host = guard.as_ref().ok_or("leaf is down")?;
        let now = rows.iter().map(Row::time).max().unwrap_or(0);
        host.add_rows(table, rows.to_vec(), now)
            .map_err(|e| e.to_string())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::admission::{Request, ShedPolicy};
    use crate::rollover::{rollover, NullSloFeed, RolloverReport, SloPolicy};
    use crossbeam::channel::bounded;
    use scuba_columnstore::Value;
    use scuba_query::AggSpec;
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
    use std::sync::Arc;

    static COUNTER: AtomicU32 = AtomicU32::new(0);

    std::thread_local! {
        static FAULTS_HELD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    /// Serializes this crate's leaf-driving tests with its chaos soaks:
    /// the failpoint registry is process-wide, so a fault a soak arms for
    /// its own leaf would otherwise fire in a sibling test's leaf (and the
    /// soak's deterministic wave trace would lose it). Re-entrant within a
    /// thread, since a test may build two clusters; taken before
    /// `scuba_obs::exclusive()`, in the soaks' order.
    pub(crate) struct FaultsLock(Option<std::sync::MutexGuard<'static, ()>>);

    pub(crate) fn faults_lock() -> FaultsLock {
        if FAULTS_HELD.get() {
            return FaultsLock(None);
        }
        let guard = scuba_faults::exclusive();
        FAULTS_HELD.set(true);
        FaultsLock(Some(guard))
    }

    impl Drop for FaultsLock {
        fn drop(&mut self) {
            if self.0.is_some() {
                FAULTS_HELD.set(false);
            }
        }
    }

    pub(crate) fn hosted(machines: usize, leaves: usize) -> (HostedCluster, Guard) {
        hosted_with(machines, leaves, AdmissionConfig::default())
    }

    pub(crate) fn hosted_with(
        machines: usize,
        leaves: usize,
        admission: AdmissionConfig,
    ) -> (HostedCluster, Guard) {
        let faults = faults_lock();
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let prefix = format!("hc{}x{n}", std::process::id());
        let dir = std::env::temp_dir().join(format!("scuba_hc_{prefix}"));
        let _ = std::fs::remove_dir_all(&dir);
        let c = HostedCluster::with_admission(
            ClusterConfig {
                machines,
                leaves_per_machine: leaves,
                shm_prefix: prefix.clone(),
                disk_root: dir.clone(),
                leaf_memory_capacity: 1 << 30,
                retention: RetentionLimits::NONE,
            },
            admission,
        )
        .unwrap();
        (
            c,
            Guard {
                prefix,
                dir,
                total: machines * leaves,
                _faults: faults,
            },
        )
    }

    pub(crate) struct Guard {
        prefix: String,
        dir: std::path::PathBuf,
        total: usize,
        _faults: FaultsLock,
    }
    impl Drop for Guard {
        fn drop(&mut self) {
            for id in 0..self.total {
                if let Ok(ns) = ShmNamespace::new(&self.prefix, id as u32) {
                    ns.unlink_all(8);
                }
            }
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    /// The paper's fixed 2%-at-a-time rollover: no SLO gating.
    pub(crate) fn roll(c: &HostedCluster, cfg: &RolloverConfig) -> RolloverReport {
        rollover(c, cfg, &SloPolicy::fixed(0.02), &mut NullSloFeed)
    }

    pub(crate) fn fill(c: &HostedCluster, rows_per_leaf: i64) {
        for leaf in 0..c.total_leaves() {
            c.add_rows(
                leaf,
                "t",
                (0..rows_per_leaf)
                    .map(|i| Row::at(i).with("v", i))
                    .collect(),
                0,
            )
            .unwrap();
        }
    }

    #[test]
    fn hosted_query_fans_out() {
        let (c, _g) = hosted(2, 2);
        fill(&c, 100);
        let (r, stats) = c.query_detailed(&Query::new("t", 0, i64::MAX));
        assert!(r.is_complete());
        assert_eq!(r.totals().unwrap()[0], Value::Int(400));
        assert_eq!(
            stats,
            QueryFanoutStats {
                answered: 4,
                shed: 0,
                unavailable: 0
            }
        );
    }

    /// Row `i` of `n` lands on leaf `i % total`, carrying `v = i`.
    fn spread_rows(c: &HostedCluster, n: i64) {
        let total = c.total_leaves() as i64;
        for leaf in 0..total {
            let rows = (leaf..n)
                .step_by(total as usize)
                .map(|i| Row::at(i).with("v", i))
                .collect();
            c.add_rows(leaf as usize, "t", rows, 0).unwrap();
        }
    }

    fn leaf_rows(c: &HostedCluster, idx: usize) -> Option<usize> {
        c.with_host(idx, |h| h.map(|h| h.status().total_rows()))
    }

    #[test]
    fn machine_hosts_independent_leaves() {
        let (c, _g) = hosted(1, 3);
        c.add_rows(0, "t", vec![Row::at(1)], 0).unwrap();
        assert_eq!(leaf_rows(&c, 0), Some(1));
        assert_eq!(leaf_rows(&c, 1), Some(0));
        assert_eq!(c.availability(), 1.0);
    }

    #[test]
    fn aggregator_merges_across_machines() {
        let (c, _g) = hosted(2, 2);
        spread_rows(&c, 100);
        assert_eq!(c.total_rows(), 100);
        let q = Query::new("t", 0, 1000).aggregates(vec![AggSpec::Count, AggSpec::Sum("v".into())]);
        let r = c.query(&q);
        assert!(r.is_complete());
        assert_eq!(r.leaves_total, 4);
        let totals = r.totals().unwrap();
        assert_eq!(totals[0], Value::Int(100));
        assert_eq!(totals[1], Value::Double((0..100).sum::<i64>() as f64));
    }

    #[test]
    fn partial_results_during_restart() {
        let (c, _g) = hosted(2, 2);
        spread_rows(&c, 100);
        // Take one leaf down (clean shutdown: data parked in shm).
        let cfg = RolloverConfig::default();
        assert_eq!(c.stop_leaves(&[0], &cfg), 0);
        let (r, stats) = c.query_detailed(&Query::new("t", 0, 1000));
        assert!(!r.is_complete());
        assert_eq!((r.leaves_responded, stats.unavailable), (3, 1));
        assert!((r.availability() - 0.75).abs() < 1e-9);
        // 25 of 100 rows lived on that leaf.
        assert_eq!(r.totals().unwrap()[0], Value::Int(75));
        assert!((c.availability() - 0.75).abs() < 1e-9);

        // Bring it back: full results again.
        let outcomes = c.start_leaves(&[0], &cfg);
        assert!(outcomes[0].1.is_memory());
        let r = c.query(&Query::new("t", 0, 1000));
        assert!(r.is_complete());
        assert_eq!(r.totals().unwrap()[0], Value::Int(100));
    }

    #[test]
    fn leaf_clients_reflect_phases() {
        let (c, _g) = hosted(1, 3);
        c.stop_leaves(&[1], &RolloverConfig::default());
        let clients = c.leaf_clients();
        assert_eq!(clients.len(), 3);
        assert_eq!(clients[0].placement_state(), PlacementState::Alive);
        assert_eq!(clients[1].placement_state(), PlacementState::Down);
        assert!(clients[0].free_memory() > 0);
        assert_eq!(clients[1].free_memory(), 0);
    }

    #[test]
    fn delivery_through_client_lands_in_leaf() {
        let (c, _g) = hosted(1, 2);
        {
            let mut clients = c.leaf_clients();
            clients[1]
                .deliver("t", &[Row::at(5).with("v", 1i64)])
                .unwrap();
            assert!(clients[0].deliver("t", &[]).is_ok());
        }
        assert_eq!(c.total_rows(), 1);
        assert_eq!(leaf_rows(&c, 1), Some(1));
    }

    #[test]
    fn slot_restart_cycle() {
        let (c, _g) = hosted(1, 2);
        c.add_rows(0, "t", (0..100).map(Row::at).collect(), 0)
            .unwrap();
        let cfg = RolloverConfig::default();
        c.stop_leaves(&[0], &cfg);
        assert_eq!(leaf_rows(&c, 0), None);
        let outcome = c.restart_leaves(&[1], &cfg);
        assert_eq!((outcome.restarted, outcome.memory_recoveries), (1, 1));
        assert!((outcome.min_availability - 0.0).abs() < 1e-9);
        let outcomes = c.start_leaves(&[0], &cfg);
        assert!(outcomes[0].1.is_memory());
        assert_eq!(leaf_rows(&c, 0), Some(100));
        c.with_host(0, |h| {
            assert_eq!(h.unwrap().status().recovered_via_memory(), Some(true))
        });
    }

    #[test]
    fn kill_forces_disk_recovery() {
        let (c, _g) = hosted(1, 1);
        c.add_rows(0, "t", (0..10).map(Row::at).collect(), 0)
            .unwrap();
        c.with_host(0, |h| h.unwrap().sync_disk().unwrap());
        let cfg = RolloverConfig {
            use_shm: false,
            ..Default::default()
        };
        assert_eq!(c.stop_leaves(&[0], &cfg), 1);
        let outcomes = c.start_leaves(&[0], &cfg);
        assert!(!outcomes[0].1.is_memory());
        assert_eq!(leaf_rows(&c, 0), Some(10));
        c.with_host(0, |h| {
            assert_eq!(h.unwrap().status().recovered_via_memory(), Some(false))
        });
    }

    #[test]
    fn hosted_rollover_preserves_data() {
        let (c, _g) = hosted(2, 2);
        fill(&c, 200);
        let report = roll(&c, &RolloverConfig::default());
        assert_eq!(report.restarted, 4);
        assert_eq!(c.total_rows(), 800);
        let r = c.query(&Query::new("t", 0, i64::MAX));
        assert!(r.is_complete());
        assert_eq!(r.totals().unwrap()[0], Value::Int(800));
    }

    #[test]
    fn queries_run_concurrently_with_rollover() {
        // The paper's whole point, under real concurrency: a client
        // thread hammers the cluster *during* the rollover — no outer
        // lock, the per-slot locks route around the leaf being replaced.
        // Every answer is internally consistent (a valid partial), and
        // the final answer is complete.
        let (c, _g) = hosted(3, 2);
        fill(&c, 300);
        let c = Arc::new(c);
        let stop = Arc::new(AtomicBool::new(false));

        let qc = Arc::clone(&c);
        let qstop = Arc::clone(&stop);
        let client = std::thread::spawn(move || {
            let q = Query::new("t", 0, i64::MAX);
            let mut observations = Vec::new();
            while !qstop.load(Ordering::Relaxed) {
                let r = qc.query(&q);
                let count = r.totals().map(|t| t[0].clone()).unwrap_or(Value::Int(0));
                observations.push((r.leaves_responded, count));
            }
            observations
        });

        let report = roll(&c, &RolloverConfig::default());
        assert_eq!(report.restarted, 6);
        stop.store(true, Ordering::Relaxed);
        let observations = client.join().unwrap();
        assert!(!observations.is_empty());
        for (responded, count) in &observations {
            // Each observation is a consistent partial: responded leaves
            // times 300 rows each.
            assert_eq!(*count, Value::Int(*responded as i64 * 300));
        }
        let r = c.query(&Query::new("t", 0, i64::MAX));
        assert_eq!(r.totals().unwrap()[0], Value::Int(1800));
    }

    #[test]
    fn shedding_leaf_counts_as_available_not_down() {
        // Availability accounting distinguishes "shedding" from "down":
        // a cluster whose queues shed every data request still reports
        // availability 1.0 and the fan-out stats say shed, not
        // unavailable.
        let (c, _g) = hosted_with(
            1,
            2,
            AdmissionConfig {
                depth: 1,
                policy: ShedPolicy::RejectNewest,
            },
        );
        fill(&c, 10);
        // Wedge both queues: a ballast batch (to a table no query reads)
        // occupies the worker, however fast a query runs, while a query
        // fills the depth-1 queue. Submit without waiting.
        let q = Query::new("t", 0, i64::MAX);
        let mut parked = Vec::new();
        let mut ballasts = Vec::new();
        for leaf in 0..2 {
            c.with_host(leaf, |h| {
                let h = h.unwrap();
                let (reply, ballast) = bounded(1);
                h.submit(Request::IngestBatch {
                    table: "ballast".to_owned(),
                    rows: (0..200_000).map(|i| Row::at(i).with("b", i)).collect(),
                    now: 0,
                    reply,
                })
                .unwrap();
                ballasts.push(ballast);
                while h.queue_len() > 0 {
                    std::thread::yield_now(); // until the worker takes it
                }
                loop {
                    match h.query_async(&q) {
                        Ok(rx) => parked.push(rx),
                        Err(e) => {
                            assert!(e.is_shed(), "{e}");
                            break;
                        }
                    }
                }
            });
        }
        // Both leaves alive and accounted available...
        assert_eq!(c.availability(), 1.0);
        // ...while the fan-out observes shed (or, if a worker drained its
        // queue between our probe and the fan-out, an answer — but never
        // "unavailable").
        let (_, stats) = c.query_detailed(&q);
        assert_eq!(stats.unavailable, 0);
        assert_eq!(stats.answered + stats.shed, 2);
        for rx in parked {
            let _ = rx.recv();
        }
        for rx in ballasts {
            rx.recv().unwrap().unwrap();
        }
    }

    #[test]
    fn tailer_clients_work_over_hosts() {
        use rand::SeedableRng;
        let (c, _g) = hosted(2, 2);
        let scribe = scuba_ingest::Scribe::new();
        scribe.log_batch("t", (0..1000).map(Row::at));
        let mut tailer = scuba_ingest::Tailer::new(
            &scribe,
            "t",
            scuba_ingest::TailerConfig {
                batch_rows: 100,
                batch_secs: 0,
                max_pair_tries: 4,
            },
        );
        let mut clients = c.leaf_clients();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let delivered = tailer.tick(&scribe, &mut clients, &mut rng, 0);
        assert_eq!(delivered, 1000);
        drop(clients);
        assert_eq!(c.total_rows(), 1000);
    }
}
