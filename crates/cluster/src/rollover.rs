//! The system-wide rollover (§4.5): restart a small fraction of leaves at
//! a time — at most one per machine — while the rest keep serving.
//!
//! "Typically, we restart 2% of the leaf servers at a time ... The script
//! that issues the shutdown command to each leaf then waits in a loop for
//! the leaf server process to die. Usually, the leaf copies its data to
//! shared memory and exits in 3-4 seconds. However, the loop ensures that
//! we kill the leaf server if it has not shut down after 3 minutes. If
//! the old leaf server is killed, the new leaf server will restart from
//! disk." (§4.3, §4.5)
//!
//! [`rollover`] is the one loop that rolls a fleet. Waves are gated on an
//! [`SloFeed`] — p99 query latency and availability — pausing while
//! either is degraded and accelerating after a streak of healthy waves:
//! §4.5's "engineers watch the dashboard" loop, closed. The paper's fixed
//! 2%-at-a-time rollover is the same loop with [`SloPolicy::fixed`] and
//! the [`NullSloFeed`]. Every wave stops its leaves, samples the Figure 8
//! dashboard while they are down, and starts their replacements.

use std::time::{Duration, Instant};

use scuba_leaf::RecoveryOutcome;

use crate::dashboard::{Dashboard, DashboardFeed};
use crate::hosted::HostedCluster;

/// How each leaf of a wave is restarted.
#[derive(Debug, Clone)]
pub struct RolloverConfig {
    /// Use the shared-memory path (`false` kills every leaf instead,
    /// forcing disk recovery, for the comparison experiments).
    pub use_shm: bool,
    /// Timestamp stamped on recovered blocks.
    pub now: i64,
    /// Trace id stamped on every backup/restore/WAL-replay/hydration span
    /// this rollover causes, so a single query over the telemetry table
    /// reconstructs the whole fleet restart as a per-leaf timeline.
    /// 0 (the default) makes [`rollover`] allocate a fresh id; the report
    /// carries it.
    pub trace_id: u64,
}

impl Default for RolloverConfig {
    fn default() -> Self {
        RolloverConfig {
            use_shm: true,
            now: 0,
            trace_id: 0,
        }
    }
}

/// SLO thresholds and pacing knobs for [`rollover`].
#[derive(Debug, Clone)]
pub struct SloPolicy {
    /// Pause while the windowed p99 of `leaf_query_latency_ns` exceeds
    /// this (nanoseconds).
    pub max_p99_query_ns: u64,
    /// Pause while query availability is below this fraction.
    pub min_availability: f64,
    /// Wave fraction to start at (and to fall back to whenever the feed
    /// reports degradation) — the paper's cautious 2%.
    pub base_fraction: f64,
    /// Ceiling the accelerating scheduler will not exceed.
    pub max_fraction: f64,
    /// Consecutive healthy wave-gates before the fraction doubles.
    pub accelerate_after: usize,
    /// Safety valve: after this many consecutive pauses before one wave,
    /// proceed anyway at the base fraction (a stuck feed must not wedge
    /// the upgrade forever; the paper's 3-minute kill, at fleet scale).
    pub max_consecutive_pauses: usize,
    /// Sleep between SLO samples while paused.
    pub pause_backoff: Duration,
}

impl SloPolicy {
    /// A fixed-fraction policy: waves of `fraction` of the fleet that
    /// never accelerate. With the [`NullSloFeed`] this is the paper's
    /// "restart 2% of the leaf servers at a time".
    pub fn fixed(fraction: f64) -> SloPolicy {
        SloPolicy {
            base_fraction: fraction,
            max_fraction: fraction,
            ..SloPolicy::default()
        }
    }
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy {
            max_p99_query_ns: 500_000_000, // 500 ms: interactive-speed bound
            min_availability: 0.95,
            base_fraction: 0.02,
            max_fraction: 0.125,
            accelerate_after: 2,
            max_consecutive_pauses: 100,
            pause_backoff: Duration::from_millis(1),
        }
    }
}

/// One SLO observation the pacing loop gates on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSample {
    /// Windowed p99 of query latency in nanoseconds (`None`: no queries
    /// observed in the window — treated as healthy, not degraded).
    pub p99_query_ns: Option<u64>,
    /// Fraction of leaves answering queries.
    pub availability: f64,
}

impl SloSample {
    /// Whether this sample violates `policy`.
    pub fn degraded(&self, policy: &SloPolicy) -> bool {
        self.availability < policy.min_availability
            || self
                .p99_query_ns
                .is_some_and(|p99| p99 > policy.max_p99_query_ns)
    }
}

/// Source of SLO samples for the pacing loop. The live implementation is
/// [`LiveSloFeed`]; [`NullSloFeed`] never gates; tests script a feed to
/// make pause/accelerate decisions deterministic.
pub trait SloFeed {
    /// Take one observation.
    fn sample(&mut self, cluster: &HostedCluster) -> SloSample;
}

/// A feed that always reports healthy: waves run back to back at the
/// policy's fraction, never paused.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSloFeed;

impl SloFeed for NullSloFeed {
    fn sample(&mut self, _cluster: &HostedCluster) -> SloSample {
        SloSample {
            p99_query_ns: None,
            availability: 1.0,
        }
    }
}

/// Windowed quantile over a named log₂ histogram: each call reports the
/// quantile of the observations made *since the previous call* (bucket-count
/// deltas), so a latency spike ages out of the signal instead of being
/// averaged away by hours of healthy history.
#[derive(Debug)]
pub struct WindowedQuantile {
    hist: &'static scuba_obs::Histogram,
    last: [u64; scuba_obs::HISTOGRAM_BUCKETS],
}

impl WindowedQuantile {
    /// Start a window over histogram `name` (current counts become the
    /// baseline).
    pub fn new(name: &str) -> WindowedQuantile {
        let hist = scuba_obs::histogram(name);
        WindowedQuantile {
            hist,
            last: hist.bucket_counts(),
        }
    }

    /// Quantile of observations since the last call (then reset the
    /// window). `None` if the window saw nothing.
    pub fn quantile(&mut self, q: f64) -> Option<u64> {
        let now = self.hist.bucket_counts();
        let delta: [u64; scuba_obs::HISTOGRAM_BUCKETS] =
            std::array::from_fn(|i| now[i].saturating_sub(self.last[i]));
        self.last = now;
        quantile_of_buckets(&delta, q)
    }
}

/// Nearest-rank-with-interpolation quantile of raw log₂ bucket counts
/// (the same estimate as [`scuba_obs::Histogram::quantile`], over a delta).
fn quantile_of_buckets(counts: &[u64; scuba_obs::HISTOGRAM_BUCKETS], q: f64) -> Option<u64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let target = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cumulative = 0u64;
    for (i, &n) in counts.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let before = cumulative;
        cumulative += n;
        if cumulative >= target {
            if i == 0 {
                return Some(0);
            }
            let lo = 1u64 << (i - 1);
            let hi = scuba_obs::Histogram::bucket_bound(i).unwrap_or(u64::MAX);
            let frac = (target - before) as f64 / n as f64;
            let est = lo as f64 + frac * (hi - lo) as f64;
            return Some(est.clamp(lo as f64, hi as f64) as u64);
        }
    }
    unreachable!("cumulative bucket counts must reach the total")
}

/// The production feed: availability from the cluster's phase gauges,
/// p99 from a window over the global `leaf_query_latency_ns` SLO
/// histogram.
#[derive(Debug)]
pub struct LiveSloFeed {
    window: WindowedQuantile,
}

impl LiveSloFeed {
    /// Start a live feed (the current histogram counts become the window
    /// baseline).
    pub fn new() -> LiveSloFeed {
        LiveSloFeed {
            window: WindowedQuantile::new("leaf_query_latency_ns"),
        }
    }
}

impl Default for LiveSloFeed {
    fn default() -> Self {
        Self::new()
    }
}

impl SloFeed for LiveSloFeed {
    fn sample(&mut self, cluster: &HostedCluster) -> SloSample {
        SloSample {
            p99_query_ns: self.window.quantile(0.99),
            availability: cluster.availability(),
        }
    }
}

/// One pacing decision or action, in execution order.
#[derive(Debug, Clone, PartialEq)]
pub enum PaceEvent {
    /// A wave of `leaves` leaves restarted at the current `fraction`.
    Wave {
        /// Wave index.
        index: usize,
        /// Leaves restarted.
        leaves: usize,
        /// Fraction in force when the wave ran.
        fraction: f64,
    },
    /// The feed reported degradation; the scheduler held off a wave.
    Pause {
        /// Wave that was about to run.
        before_wave: usize,
        /// The degraded sample's p99.
        p99_query_ns: Option<u64>,
        /// The degraded sample's availability.
        availability: f64,
    },
    /// A healthy streak doubled the wave fraction.
    Accelerate {
        /// Wave at which the new fraction takes effect.
        wave: usize,
        /// The new fraction.
        fraction: f64,
    },
}

/// Outcome of a rollover.
#[derive(Debug)]
pub struct RolloverReport {
    /// The trace id every restart span of this rollover carries — the
    /// key for reconstructing it from the telemetry table.
    pub trace_id: u64,
    /// Leaves restarted (always the whole fleet: pauses delay, never
    /// abandon).
    pub restarted: usize,
    /// Leaves killed instead of cleanly shut down (a failed shutdown, or
    /// every leaf with `use_shm` off); their replacements recover from
    /// disk.
    pub killed: usize,
    /// Waves executed.
    pub waves: usize,
    /// Times the scheduler paused on a degraded sample.
    pub pauses: usize,
    /// Times the scheduler doubled the wave fraction.
    pub accelerations: usize,
    /// Every decision, in order — the auditable pacing trace.
    pub events: Vec<PaceEvent>,
    /// Lowest availability sampled while waves were down.
    pub min_availability: f64,
    /// Figure 8: one row per wave, sampled while the wave is down, then a
    /// closing row once the last replacement answers.
    pub dashboard: Dashboard,
    /// Each replacement's recovery, by global leaf id, in restart order.
    /// A replacement that failed to boot has no entry.
    pub recoveries: Vec<(usize, RecoveryOutcome)>,
    /// Wall-clock duration.
    pub duration: Duration,
}

impl RolloverReport {
    /// Leaves that recovered via shared memory.
    pub fn memory_recoveries(&self) -> usize {
        self.recoveries
            .iter()
            .filter(|(_, o)| o.is_memory())
            .count()
    }
}

/// Roll the whole cluster, pacing waves off the SLO feed: before each
/// wave, sample; while degraded, pause (and drop back to the base
/// fraction); after `accelerate_after` consecutive healthy gates, double
/// the fraction up to `max_fraction`. Waves take leaves in
/// [`HostedCluster::rollover_order`], at most one per machine. Serving
/// continues throughout on the cluster's per-slot locks — this is meant
/// to run *under load*.
pub fn rollover(
    cluster: &HostedCluster,
    cfg: &RolloverConfig,
    policy: &SloPolicy,
    feed: &mut dyn SloFeed,
) -> RolloverReport {
    let order = cluster.rollover_order();
    let total = order.len();
    let machines = cluster.config().machines.max(1);

    // One trace id for the whole rollover: process-wide for the outgoing
    // leaves' backup spans, and in every replacement's config so restore
    // spans stay attributed even when several clusters roll in one
    // process (parallel tests).
    let trace_id = match cfg.trace_id {
        0 => scuba_obs::next_trace_id(),
        id => id,
    };
    scuba_obs::set_trace_id(trace_id);
    let cfg = RolloverConfig {
        trace_id,
        ..cfg.clone()
    };

    let started = Instant::now();
    let mut dashboard = Dashboard::new(total);
    // Dashboard rows come from the live leaf metrics, not hand counting.
    let mut progress = DashboardFeed::new(cluster);
    let mut events = Vec::new();
    let mut recoveries = Vec::with_capacity(total);
    let mut fraction = policy.base_fraction;
    let mut healthy_streak = 0usize;
    let mut killed = 0usize;
    let mut waves = 0usize;
    let mut pauses = 0usize;
    let mut accelerations = 0usize;
    let mut min_availability = 1.0f64;

    let mut idx = 0usize;
    while idx < total {
        // Gate: hold this wave until the feed looks healthy (or the
        // safety valve opens).
        let mut consecutive = 0usize;
        loop {
            let sample = feed.sample(cluster);
            if !sample.degraded(policy) {
                healthy_streak += 1;
                break;
            }
            healthy_streak = 0;
            fraction = policy.base_fraction;
            pauses += 1;
            consecutive += 1;
            events.push(PaceEvent::Pause {
                before_wave: waves,
                p99_query_ns: sample.p99_query_ns,
                availability: sample.availability,
            });
            if consecutive >= policy.max_consecutive_pauses {
                break;
            }
            std::thread::sleep(policy.pause_backoff);
        }

        if healthy_streak >= policy.accelerate_after && fraction < policy.max_fraction {
            fraction = (fraction * 2.0).min(policy.max_fraction);
            accelerations += 1;
            healthy_streak = 0;
            events.push(PaceEvent::Accelerate {
                wave: waves,
                fraction,
            });
        }

        let per_wave = ((total as f64 * fraction).ceil() as usize).clamp(1, machines);
        let end = (idx + per_wave).min(total);
        let wave = &order[idx..end];
        killed += cluster.stop_leaves(wave, &cfg);
        // The wave is at its most degraded right before replacements land.
        min_availability = min_availability.min(cluster.availability());
        dashboard.push(progress.sample(cluster, started.elapsed()));
        recoveries.extend(cluster.start_leaves(wave, &cfg));
        events.push(PaceEvent::Wave {
            index: waves,
            leaves: wave.len(),
            fraction,
        });
        idx = end;
        waves += 1;
    }
    dashboard.push(progress.sample(cluster, started.elapsed()));
    scuba_obs::clear_trace_id();

    RolloverReport {
        trace_id,
        restarted: total,
        killed,
        waves,
        pauses,
        accelerations,
        events,
        min_availability,
        dashboard,
        recoveries,
        duration: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hosted::tests::{fill, hosted, roll};
    use scuba_columnstore::Value;
    use scuba_query::Query;

    #[test]
    fn shm_rollover_preserves_all_data() {
        let (c, _g) = hosted(3, 2);
        fill(&c, 50);
        let before = c.total_rows();

        let report = roll(&c, &RolloverConfig::default());
        assert_eq!(report.recoveries.len(), 6);
        assert_eq!(report.memory_recoveries(), 6);
        assert_eq!(report.killed, 0);
        assert!(report.trace_id != 0);
        assert_eq!(c.total_rows(), before);
        let r = c.query(&Query::new("t", 0, 100));
        assert!(r.is_complete());
        assert_eq!(r.totals().unwrap()[0], Value::Int(300));
        // One leaf at a time out of 6: availability never below 5/6.
        assert!(report.min_availability >= 5.0 / 6.0 - 1e-9);
    }

    #[test]
    fn waves_respect_fraction() {
        let (c, _g) = hosted(4, 2); // 8 leaves
        fill(&c, 5);
        let policy = SloPolicy::fixed(0.25); // 2 leaves per wave
        let report = rollover(&c, &RolloverConfig::default(), &policy, &mut NullSloFeed);
        assert_eq!(report.waves, 4);
        assert_eq!(report.accelerations, 0);
        // Waves restart at most one leaf per machine: no wave holds two
        // leaves of the same machine.
        let lpm = c.config().leaves_per_machine;
        for wave in report.recoveries.chunks(2) {
            let machines: Vec<usize> = wave.iter().map(|(id, _)| id / lpm).collect();
            assert_eq!(machines.len(), 2);
            assert_ne!(machines[0], machines[1], "{machines:?}");
        }
    }

    #[test]
    fn disk_mode_recovers_from_disk() {
        let (c, _g) = hosted(2, 2);
        fill(&c, 20);
        // Make data durable, as a real cluster continuously does.
        c.for_each_host(|_, h| {
            h.sync_disk().unwrap();
        });
        let cfg = RolloverConfig {
            use_shm: false,
            ..Default::default()
        };
        let report = roll(&c, &cfg);
        assert_eq!(report.memory_recoveries(), 0);
        assert_eq!(report.killed, 4);
        assert_eq!(c.total_rows(), 80);
    }

    #[test]
    fn feed_rows_match_hand_computation() {
        let (c, _g) = hosted(2, 2);
        fill(&c, 5);
        let total = c.total_leaves();
        let mut feed = DashboardFeed::new(&c);

        let row = feed.sample(&c, Duration::from_secs(0));
        assert_eq!(
            (row.old_version, row.rolling, row.new_version),
            (total, 0, 0)
        );
        assert_eq!(row.availability, c.availability());

        // One leaf down: it shows as rolling, and the metric-derived
        // availability equals the cluster's phase-based computation.
        let cfg = RolloverConfig::default();
        c.stop_leaves(&[0], &cfg);
        let row = feed.sample(&c, Duration::from_secs(1));
        assert_eq!(
            (row.old_version, row.rolling, row.new_version),
            (total - 1, 1, 0)
        );
        assert_eq!(row.availability, c.availability());
        assert!(row.availability < 1.0);

        // Back up: the advanced recovery counter moves it to "new".
        c.start_leaves(&[0], &cfg);
        let row = feed.sample(&c, Duration::from_secs(2));
        assert_eq!(
            (row.old_version, row.rolling, row.new_version),
            (total - 1, 0, 1)
        );
        assert_eq!(row.availability, c.availability());
        assert_eq!(row.availability, 1.0);
    }

    #[test]
    fn dashboard_progression() {
        let (c, _g) = hosted(2, 2);
        fill(&c, 5);
        let report = roll(&c, &RolloverConfig::default());
        let rows = report.dashboard.rows();
        // One row per wave plus the closing row.
        assert_eq!(rows.len(), report.waves + 1);
        assert_eq!(rows[0].new_version, 0);
        assert_eq!(rows[0].rolling, 1);
        let last = rows.last().unwrap();
        assert_eq!(last.new_version, 4);
        assert_eq!(last.rolling, 0);
        assert_eq!(last.availability, 1.0);
        // Monotonic progress, and every row partitions the fleet.
        assert!(rows
            .windows(2)
            .all(|w| w[0].new_version <= w[1].new_version));
        for r in rows {
            assert_eq!(r.old_version + r.rolling + r.new_version, 4);
        }
    }

    // --- SLO pacing ------------------------------------------------------

    /// Deterministic feed: the first `degraded_first` samples violate the
    /// SLO, everything after is healthy.
    struct Scripted {
        degraded_first: usize,
        calls: usize,
    }

    impl SloFeed for Scripted {
        fn sample(&mut self, _cluster: &HostedCluster) -> SloSample {
            let degraded = self.calls < self.degraded_first;
            self.calls += 1;
            if degraded {
                SloSample {
                    p99_query_ns: Some(10_000_000_000),
                    availability: 0.5,
                }
            } else {
                SloSample {
                    p99_query_ns: Some(1_000),
                    availability: 1.0,
                }
            }
        }
    }

    #[test]
    fn paced_rollover_pauses_on_degraded_feed_then_completes() {
        let (c, _g) = hosted(2, 2);
        fill(&c, 25);
        let policy = SloPolicy {
            base_fraction: 0.3,
            max_fraction: 0.3,
            accelerate_after: usize::MAX,
            pause_backoff: Duration::ZERO,
            ..Default::default()
        };
        let mut feed = Scripted {
            degraded_first: 3,
            calls: 0,
        };
        let report = rollover(&c, &RolloverConfig::default(), &policy, &mut feed);

        // Provably paused: three degraded samples → three Pause events,
        // all before wave 0 ran, then the rollover completed in full.
        assert_eq!(report.pauses, 3);
        for e in &report.events[0..3] {
            assert!(
                matches!(e, PaceEvent::Pause { before_wave: 0, .. }),
                "{e:?}"
            );
        }
        assert!(matches!(report.events[3], PaceEvent::Wave { index: 0, .. }));
        assert_eq!(report.restarted, 4);
        assert_eq!(report.memory_recoveries(), 4);
        assert_eq!(report.accelerations, 0);
        assert_eq!(c.total_rows(), 100);

        // Deterministic: the identical script on an identical cluster
        // produces the identical pacing trace.
        let (c2, _g2) = hosted(2, 2);
        fill(&c2, 25);
        let mut feed2 = Scripted {
            degraded_first: 3,
            calls: 0,
        };
        let report2 = rollover(&c2, &RolloverConfig::default(), &policy, &mut feed2);
        assert_eq!(report.events, report2.events);
    }

    #[test]
    fn paced_rollover_accelerates_while_healthy() {
        let (c, _g) = hosted(4, 2); // 8 leaves
        fill(&c, 10);
        let policy = SloPolicy {
            base_fraction: 0.02,
            max_fraction: 0.5,
            accelerate_after: 1,
            pause_backoff: Duration::ZERO,
            ..Default::default()
        };
        let mut feed = Scripted {
            degraded_first: 0,
            calls: 0,
        };
        let report = rollover(&c, &RolloverConfig::default(), &policy, &mut feed);

        assert_eq!(report.restarted, 8);
        assert_eq!(report.pauses, 0);
        // Healthy streaks doubled the fraction, so the rollover finished
        // in fewer waves than one-leaf-at-a-time would need.
        assert!(report.accelerations >= 3, "{report:?}");
        assert!(report.waves < 8, "{report:?}");
        // Wave sizes are monotonically non-decreasing until the tail.
        let sizes: Vec<usize> = report
            .events
            .iter()
            .filter_map(|e| match e {
                PaceEvent::Wave { leaves, .. } => Some(*leaves),
                _ => None,
            })
            .collect();
        assert_eq!(sizes.iter().sum::<usize>(), 8);
        assert!(sizes.windows(2).take(sizes.len() - 2).all(|w| w[0] <= w[1]));
        assert_eq!(c.total_rows(), 80);
    }

    #[test]
    fn paced_rollover_safety_valve_opens_after_max_pauses() {
        // A feed that never turns healthy must not wedge the upgrade: after
        // `max_consecutive_pauses` the wave proceeds at the base fraction.
        let (c, _g) = hosted(1, 2);
        fill(&c, 5);
        let policy = SloPolicy {
            base_fraction: 0.6,
            max_consecutive_pauses: 2,
            pause_backoff: Duration::ZERO,
            ..Default::default()
        };
        let mut feed = Scripted {
            degraded_first: usize::MAX,
            calls: 0,
        };
        let report = rollover(&c, &RolloverConfig::default(), &policy, &mut feed);
        assert_eq!(report.restarted, 2);
        assert_eq!(report.pauses, 2 * report.waves);
        assert_eq!(c.total_rows(), 10);
    }

    #[test]
    fn windowed_quantile_reports_per_window() {
        let _x = scuba_obs::exclusive();
        scuba_obs::set_enabled(true);
        let h = scuba_obs::histogram("rollover_test_window_ns");
        let mut w = WindowedQuantile::new("rollover_test_window_ns");
        assert_eq!(w.quantile(0.99), None);

        for _ in 0..100 {
            h.observe(100);
        }
        let p = w.quantile(0.99).unwrap();
        assert!((64..=127).contains(&p), "{p}");

        // A fresh window sees only the spike — hours of healthy history
        // can't average it away.
        for _ in 0..100 {
            h.observe(1_000_000);
        }
        let p = w.quantile(0.99).unwrap();
        assert!(p >= 524_288, "{p}");

        // And an idle window reports no signal at all.
        assert_eq!(w.quantile(0.99), None);
    }
}
