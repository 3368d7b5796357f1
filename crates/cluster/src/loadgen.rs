//! Seeded load generator for the hosted cluster: the "millions of users"
//! behind §4.5's dashboard, shrunk to worker threads.
//!
//! Two standard modes from the load-testing literature:
//!
//! * **Closed loop** — each worker issues its next request the moment the
//!   previous one completes (a fixed population of users; throughput
//!   tracks service rate).
//! * **Open loop** — requests arrive on a seeded exponential schedule at a
//!   target rate regardless of completions (the arrival process does not
//!   slow down because the cluster did — the mode that actually exposes
//!   queueing and shed behavior during a rollover).
//!
//! Every request leg gets exactly one of three outcomes — answered, shed
//! (admission backpressure), or unavailable (leaf down/recovering) — and
//! the report proves conservation: `issued == ok + shed + unavailable`.
//! Nothing is silently dropped.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scuba_columnstore::Row;
use scuba_query::Query;

use crate::hosted::HostedCluster;

/// Arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// Issue the next request as soon as the previous completes.
    Closed,
    /// Seeded exponential inter-arrivals at this many requests per second
    /// *per worker*; late requests are issued immediately (bursts are not
    /// forgiven).
    Open {
        /// Target per-worker request rate.
        qps: f64,
    },
}

/// Load generator knobs.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// RNG seed; worker `i` derives `seed ^ i`, so the request mix is
    /// reproducible per worker.
    pub seed: u64,
    /// Worker threads (concurrent users).
    pub workers: usize,
    /// Arrival process.
    pub mode: LoadMode,
    /// Stop after this long (the shared stop flag can stop earlier).
    pub duration: Duration,
    /// Probability a request is an ingest batch (the rest are fan-out
    /// queries).
    pub ingest_fraction: f64,
    /// Rows per ingest batch.
    pub rows_per_batch: usize,
    /// Table all traffic targets.
    pub table: String,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            seed: 42,
            workers: 4,
            mode: LoadMode::Closed,
            duration: Duration::from_millis(500),
            ingest_fraction: 0.5,
            rows_per_batch: 20,
            table: "t".to_string(),
        }
    }
}

/// Latency summary over the successful requests.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    /// Successful requests measured.
    pub count: u64,
    /// Median latency (ns).
    pub p50_ns: u64,
    /// 99th percentile latency (ns).
    pub p99_ns: u64,
    /// Worst observed latency (ns).
    pub max_ns: u64,
}

impl LatencySummary {
    fn from_samples(mut samples: Vec<u64>) -> LatencySummary {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_unstable();
        let nearest = |q: f64| {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            samples[rank - 1]
        };
        LatencySummary {
            count: samples.len() as u64,
            p50_ns: nearest(0.5),
            p99_ns: nearest(0.99),
            max_ns: *samples.last().unwrap(),
        }
    }
}

/// What a load run did. `issued` counts request *legs*: one per ingest
/// batch, one per leaf touched by a fan-out query.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Request legs issued.
    pub issued: u64,
    /// Legs answered successfully.
    pub ok: u64,
    /// Legs shed by admission control (leaf alive, queue full/deadline).
    pub shed: u64,
    /// Legs refused because the leaf was down or recovering.
    pub unavailable: u64,
    /// Fan-out queries issued.
    pub query_fanouts: u64,
    /// Ingest batches issued.
    pub ingest_batches: u64,
    /// Rows successfully ingested.
    pub rows_ingested: u64,
    /// Latency of successful ingest batches.
    pub ingest_latency: LatencySummary,
    /// Latency of fan-out queries (wall clock across the fan-out).
    pub query_latency: LatencySummary,
}

impl LoadReport {
    /// Legs with no recorded outcome. The generator's conservation
    /// invariant: always 0 — every request is answered, shed, or refused
    /// by a known-down leaf.
    pub fn lost(&self) -> u64 {
        self.issued - (self.ok + self.shed + self.unavailable)
    }

    fn absorb(&mut self, other: LoadReport) {
        self.issued += other.issued;
        self.ok += other.ok;
        self.shed += other.shed;
        self.unavailable += other.unavailable;
        self.query_fanouts += other.query_fanouts;
        self.ingest_batches += other.ingest_batches;
        self.rows_ingested += other.rows_ingested;
    }
}

/// Drive load at `cluster` until `duration` elapses or `stop` is set;
/// returns the merged per-worker accounting. Meant to run on its own
/// thread(s) while a rollover (paced or plain) churns the fleet.
pub fn run(cluster: &HostedCluster, config: &LoadgenConfig, stop: &AtomicBool) -> LoadReport {
    let deadline = Instant::now() + config.duration;
    // Monotone event-time across all workers, so ingested rows never
    // violate the table's time ordering expectations.
    let clock = AtomicI64::new(1);
    let mut merged = LoadReport::default();
    let mut ingest_samples: Vec<Vec<u64>> = Vec::new();
    let mut query_samples: Vec<Vec<u64>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(config.workers);
        for worker in 0..config.workers {
            let clock = &clock;
            handles.push(
                scope.spawn(move || {
                    worker_loop(cluster, config, stop, deadline, clock, worker as u64)
                }),
            );
        }
        for h in handles {
            let (report, ingest, query) = h.join().expect("loadgen worker panicked");
            merged.absorb(report);
            ingest_samples.push(ingest);
            query_samples.push(query);
        }
    });
    merged.ingest_latency =
        LatencySummary::from_samples(ingest_samples.into_iter().flatten().collect());
    merged.query_latency =
        LatencySummary::from_samples(query_samples.into_iter().flatten().collect());
    merged
}

fn worker_loop(
    cluster: &HostedCluster,
    config: &LoadgenConfig,
    stop: &AtomicBool,
    deadline: Instant,
    clock: &AtomicI64,
    worker: u64,
) -> (LoadReport, Vec<u64>, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(config.seed ^ (worker.wrapping_mul(0x9E37_79B9)));
    let mut report = LoadReport::default();
    let mut ingest_samples = Vec::new();
    let mut query_samples = Vec::new();
    let total_leaves = cluster.total_leaves();
    let mut next_arrival = Instant::now();

    while !stop.load(Ordering::Relaxed) && Instant::now() < deadline {
        if let LoadMode::Open { qps } = config.mode {
            // Exponential inter-arrival; a slow cluster does not slow the
            // arrival process down.
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            let gap = Duration::from_secs_f64(-u.ln() / qps.max(1e-9));
            next_arrival += gap;
            let now = Instant::now();
            if next_arrival > now {
                std::thread::sleep((next_arrival - now).min(Duration::from_millis(20)));
            }
        }

        if rng.gen_bool(config.ingest_fraction.clamp(0.0, 1.0)) {
            // One ingest batch to one (seeded) leaf.
            let leaf = rng.gen_range(0..total_leaves);
            let base = clock.fetch_add(config.rows_per_batch as i64, Ordering::Relaxed);
            let rows: Vec<Row> = (0..config.rows_per_batch as i64)
                .map(|i| Row::at(base + i).with("v", i))
                .collect();
            let now = base + config.rows_per_batch as i64 - 1;
            report.ingest_batches += 1;
            report.issued += 1;
            let started = Instant::now();
            match cluster.add_rows(leaf, &config.table, rows, now) {
                Ok(()) => {
                    report.ok += 1;
                    report.rows_ingested += config.rows_per_batch as u64;
                    ingest_samples.push(started.elapsed().as_nanos() as u64);
                }
                Err(e) if e.is_shed() => report.shed += 1,
                Err(_) => report.unavailable += 1,
            }
        } else {
            // One fan-out query over a (seeded) time range.
            let hi = clock.load(Ordering::Relaxed).max(1);
            let lo = rng.gen_range(0..hi);
            let query = Query::new(&config.table, lo, i64::MAX);
            report.query_fanouts += 1;
            report.issued += total_leaves as u64;
            let started = Instant::now();
            let (_result, stats) = cluster.query_detailed(&query);
            query_samples.push(started.elapsed().as_nanos() as u64);
            report.ok += stats.answered as u64;
            report.shed += stats.shed as u64;
            report.unavailable += stats.unavailable as u64;
        }
    }
    (report, ingest_samples, query_samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::{AdmissionConfig, ShedPolicy};
    use crate::hosted::tests::{hosted, hosted_with, roll};
    use crate::rollover::RolloverConfig;

    #[test]
    fn closed_loop_conserves_every_request() {
        let (c, _g) = hosted(2, 2);
        let stop = AtomicBool::new(false);
        let report = run(
            &c,
            &LoadgenConfig {
                workers: 3,
                duration: Duration::from_millis(200),
                ..Default::default()
            },
            &stop,
        );
        assert!(report.issued > 0);
        assert_eq!(report.lost(), 0, "{report:?}");
        assert_eq!(report.unavailable, 0, "healthy cluster: {report:?}");
        assert_eq!(c.total_rows() as u64, report.rows_ingested);
    }

    #[test]
    fn open_loop_paces_arrivals() {
        let (c, _g) = hosted(1, 1);
        let stop = AtomicBool::new(false);
        let report = run(
            &c,
            &LoadgenConfig {
                workers: 1,
                mode: LoadMode::Open { qps: 50.0 },
                duration: Duration::from_millis(400),
                ..Default::default()
            },
            &stop,
        );
        assert_eq!(report.lost(), 0);
        // ~50 qps for 0.4 s ≈ 20 arrivals; the pacer must not run closed
        // loop (which would do thousands).
        let requests = report.ingest_batches + report.query_fanouts;
        assert!(requests <= 60, "open loop issued {requests}");
    }

    #[test]
    fn load_through_rollover_is_conserved_and_data_survives() {
        let (c, _g) = hosted(2, 2);
        let stop = AtomicBool::new(false);
        let report = std::thread::scope(|scope| {
            let loadgen = scope.spawn(|| {
                run(
                    &c,
                    &LoadgenConfig {
                        workers: 2,
                        duration: Duration::from_secs(10),
                        ..Default::default()
                    },
                    &stop,
                )
            });
            // Let traffic build, then roll the whole fleet under it.
            std::thread::sleep(Duration::from_millis(50));
            let rollover = roll(&c, &RolloverConfig::default());
            assert_eq!(rollover.restarted, 4);
            stop.store(true, Ordering::Relaxed);
            loadgen.join().unwrap()
        });
        // Conservation holds even though leaves went down mid-run, and
        // everything that was acknowledged is still queryable.
        assert_eq!(report.lost(), 0, "{report:?}");
        assert!(report.ok > 0);
        assert_eq!(c.total_rows() as u64, report.rows_ingested);
    }

    #[test]
    fn tiny_queues_shed_under_closed_loop_hammer() {
        let (c, _g) = hosted_with(
            1,
            1,
            AdmissionConfig {
                depth: 1,
                policy: ShedPolicy::RejectNewest,
            },
        );
        let stop = AtomicBool::new(false);
        let report = run(
            &c,
            &LoadgenConfig {
                workers: 6,
                duration: Duration::from_millis(200),
                ingest_fraction: 1.0,
                ..Default::default()
            },
            &stop,
        );
        assert_eq!(report.lost(), 0);
        assert!(report.shed > 0, "depth-1 queue under 6 workers: {report:?}");
        // Shed ≠ down: the leaf was healthy the whole time.
        assert_eq!(report.unavailable, 0);
        assert_eq!(c.total_rows() as u64, report.rows_ingested);
    }
}
