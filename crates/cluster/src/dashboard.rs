//! The rollover dashboard of Figure 8.
//!
//! "Dashboard shows progress of the restart. At time 1, about 2% of the
//! leaf servers have started a rollover. 98% of the data is available to
//! queries. At time 2, those leaf servers are now alive and another 2%
//! are restarting. By time 3, about half of the servers are running the
//! new version ... At time 4, the restart is nearly complete."
//!
//! [`Dashboard`] collects old/rolling/new counts over time (from the real
//! rollover or the simulator) and renders them as the stacked ASCII bars
//! an engineer would watch.

use std::fmt;
use std::time::Duration;

use crate::hosted::HostedCluster;

/// One sample of rollover progress.
#[derive(Debug, Clone, PartialEq)]
pub struct DashboardRow {
    /// Time since the rollover started.
    pub elapsed: Duration,
    /// Leaves still on the old version.
    pub old_version: usize,
    /// Leaves currently restarting.
    pub rolling: usize,
    /// Leaves already on the new version.
    pub new_version: usize,
    /// Query availability at this instant (fraction of leaves answering).
    pub availability: f64,
    /// Crash-path overlay, summed across leaves: sealed row blocks not
    /// yet covered by a warm checkpoint image (`leaf_checkpoint_lag_blocks`).
    /// Zero when the continuous-checkpoint path is off.
    pub checkpoint_lag_blocks: i64,
    /// WAL record bytes pending replay across leaves (`leaf_wal_bytes`).
    pub wal_bytes: i64,
    /// Slowest WAL tail replay seen on any leaf, in nanoseconds
    /// (`leaf_wal_replay_ns`).
    pub wal_replay_ns: i64,
    /// Cumulative fast crash recoveries across the fleet
    /// (`leaf_crash_fast_recoveries_total`).
    pub crash_fast_recoveries: u64,
    /// Tiered-storage overlay: row blocks demoted to the disk fast-format
    /// cold tier across the fleet (`leaf_cold_blocks`). Zero with tiering
    /// off.
    pub cold_blocks: i64,
    /// Bytes resident on the cold tier across the fleet
    /// (`leaf_cold_bytes`).
    pub cold_bytes: i64,
    /// Cumulative demotions to the cold tier (`leaf_demotions_total`).
    pub demotions: u64,
    /// Cumulative promotions back to heap (`leaf_promotions_total`).
    pub promotions: u64,
    /// Cumulative residency faults — failed demotions, or cold blocks
    /// condemned by their first-touch CRC (`leaf_residency_faults_total`).
    pub residency_faults: u64,
    /// Serving overlay: data-plane requests waiting in admission queues
    /// across the fleet (`leaf_admission_queue_depth`, summed).
    pub queue_depth: i64,
    /// Cumulative requests shed at admission across the fleet
    /// (`leaf_shed_total`, summed). A rising shed count with full
    /// availability is *backpressure*, not an outage.
    pub shed: u64,
    /// Admitted requests not yet answered, process-wide
    /// (`cluster_inflight_requests`).
    pub inflight: i64,
}

/// A time series of rollover progress.
#[derive(Debug, Clone, Default)]
pub struct Dashboard {
    total: usize,
    rows: Vec<DashboardRow>,
}

impl Dashboard {
    /// An empty dashboard over `total` leaves.
    pub fn new(total: usize) -> Dashboard {
        Dashboard {
            total,
            rows: Vec::new(),
        }
    }

    /// Total leaves being rolled.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Append a sample.
    pub fn push(&mut self, row: DashboardRow) {
        debug_assert_eq!(
            row.old_version + row.rolling + row.new_version,
            self.total,
            "dashboard row must partition the fleet"
        );
        self.rows.push(row);
    }

    /// The samples, oldest first.
    pub fn rows(&self) -> &[DashboardRow] {
        &self.rows
    }

    /// Render an ASCII dashboard: one bar per sample (down-sampled to at
    /// most `max_rows` lines), `#` = new version, `~` = rolling, `.` =
    /// old version.
    pub fn render(&self, max_rows: usize) -> String {
        let mut out = String::new();
        out.push_str("  elapsed    old / rolling / new    availability\n");
        if self.rows.is_empty() || self.total == 0 {
            out.push_str("  (no samples)\n");
            return out;
        }
        let stride = self.rows.len().div_ceil(max_rows.max(1));
        const WIDTH: usize = 40;
        for (i, row) in self.rows.iter().enumerate() {
            if i % stride != 0 && i != self.rows.len() - 1 {
                continue;
            }
            let new_w = row.new_version * WIDTH / self.total;
            let roll_w = row.rolling * WIDTH / self.total;
            let old_w = WIDTH - new_w - roll_w;
            out.push_str(&format!(
                "  {:>8.1}s  [{}{}{}]  {:>4} / {:>4} / {:>4}  {:>6.1}%\n",
                row.elapsed.as_secs_f64(),
                "#".repeat(new_w),
                "~".repeat(roll_w),
                ".".repeat(old_w),
                row.old_version,
                row.rolling,
                row.new_version,
                row.availability * 100.0
            ));
        }
        out
    }
}

impl fmt::Display for Dashboard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render(20))
    }
}

/// Produces [`DashboardRow`]s from the live per-leaf metrics published by
/// `scuba-leaf` (`leaf_recoveries_total`, `leaf_accepting_queries`)
/// instead of hand-constructed samples.
///
/// The feed snapshots each leaf's recovery counter at creation; a leaf
/// whose counter has advanced past that baseline has come back on the
/// "new version". A leaf whose gauge says it is not answering queries is
/// "rolling"; everyone else is still "old". Availability is the fraction
/// of leaves answering — by construction the same number
/// [`HostedCluster::availability`] computes from the hosts' published
/// status, because every phase transition in the leaf server routes
/// through the gauge.
///
/// When instrumentation is disabled ([`scuba_obs::enabled`] is false) the
/// gauges are never written, so [`DashboardFeed::sample`] falls back to
/// reading the hosts' status directly and classifies a leaf as "new" once
/// it has been observed down and then answering again.
#[derive(Debug)]
pub struct DashboardFeed {
    keys: Vec<String>,
    baseline: Vec<u64>,
    /// Fallback state for the metrics-disabled path: set once a leaf is
    /// seen not answering; a leaf that answers again afterwards is "new".
    seen_down: Vec<bool>,
}

fn recoveries(key: &str) -> u64 {
    let name = scuba_obs::labeled_name("leaf_recoveries_total", &[("leaf", key)]);
    scuba_obs::counter_value(&name).unwrap_or(0)
}

fn accepting(key: &str) -> Option<bool> {
    let name = scuba_obs::labeled_name("leaf_accepting_queries", &[("leaf", key)]);
    scuba_obs::gauge_value(&name).map(|v| v > 0)
}

fn leaf_gauge(name: &str, key: &str) -> i64 {
    let name = scuba_obs::labeled_name(name, &[("leaf", key)]);
    scuba_obs::gauge_value(&name).unwrap_or(0)
}

fn leaf_counter(name: &str, key: &str) -> u64 {
    let name = scuba_obs::labeled_name(name, &[("leaf", key)]);
    scuba_obs::counter_value(&name).unwrap_or(0)
}

impl DashboardFeed {
    /// A feed over every leaf in `cluster`, with recovery baselines taken
    /// now. Create it immediately before starting a rollover.
    pub fn new(cluster: &HostedCluster) -> DashboardFeed {
        DashboardFeed::from_keys(cluster.leaf_keys())
    }

    /// A feed over an explicit set of leaf metric keys (each leaf's
    /// `shm_prefix:leaf_id`), for callers without a cluster handle —
    /// the chaos soak rolls a single bare [`scuba_leaf::LeafServer`].
    pub fn from_keys(keys: Vec<String>) -> DashboardFeed {
        let baseline = keys.iter().map(|k| recoveries(k)).collect();
        let seen_down = vec![false; keys.len()];
        DashboardFeed {
            keys,
            baseline,
            seen_down,
        }
    }

    /// Sample the fleet: one row classifying every leaf as old/rolling/new
    /// from the metric registry, falling back to the hosts' published
    /// status when instrumentation is disabled.
    pub fn sample(&mut self, cluster: &HostedCluster, elapsed: Duration) -> DashboardRow {
        let accepts: Vec<bool> = (0..cluster.total_leaves())
            .map(|i| cluster.with_host(i, |h| h.is_some_and(|h| h.status().accepts_queries())))
            .collect();
        self.sample_inner(elapsed, &accepts)
    }

    /// Sample purely from the metric registry, with no cluster handle.
    /// With instrumentation disabled there is nothing to read, so every
    /// leaf reports as answering on the old version.
    pub fn sample_metrics(&mut self, elapsed: Duration) -> DashboardRow {
        let fallback = vec![true; self.keys.len()];
        self.sample_inner(elapsed, &fallback)
    }

    fn sample_inner(&mut self, elapsed: Duration, fallback_accepts: &[bool]) -> DashboardRow {
        let total = self.keys.len();
        let mut old_version = 0;
        let mut rolling = 0;
        let mut new_version = 0;
        let mut answering = 0;
        let mut checkpoint_lag_blocks = 0i64;
        let mut wal_bytes = 0i64;
        let mut wal_replay_ns = 0i64;
        let mut crash_fast_recoveries = 0u64;
        let mut cold_blocks = 0i64;
        let mut cold_bytes = 0i64;
        let mut demotions = 0u64;
        let mut promotions = 0u64;
        let mut residency_faults = 0u64;
        let mut queue_depth = 0i64;
        let mut shed = 0u64;
        for (i, key) in self.keys.iter().enumerate() {
            queue_depth += leaf_gauge(crate::admission::QUEUE_DEPTH_GAUGE, key);
            shed += leaf_counter(crate::admission::SHED_COUNTER, key);
            checkpoint_lag_blocks += leaf_gauge("leaf_checkpoint_lag_blocks", key);
            wal_bytes += leaf_gauge("leaf_wal_bytes", key);
            wal_replay_ns = wal_replay_ns.max(leaf_gauge("leaf_wal_replay_ns", key));
            crash_fast_recoveries += leaf_counter("leaf_crash_fast_recoveries_total", key);
            cold_blocks += leaf_gauge("leaf_cold_blocks", key);
            cold_bytes += leaf_gauge("leaf_cold_bytes", key);
            demotions += leaf_counter("leaf_demotions_total", key);
            promotions += leaf_counter("leaf_promotions_total", key);
            residency_faults += leaf_counter("leaf_residency_faults_total", key);
            let accepts =
                accepting(key).unwrap_or_else(|| fallback_accepts.get(i).copied().unwrap_or(true));
            if accepts {
                answering += 1;
            } else {
                self.seen_down[i] = true;
            }
            let recovered = match scuba_obs::enabled() {
                true => recoveries(key) > self.baseline[i],
                false => self.seen_down[i] && accepts,
            };
            if !accepts {
                rolling += 1;
            } else if recovered {
                new_version += 1;
            } else {
                old_version += 1;
            }
        }
        DashboardRow {
            elapsed,
            old_version,
            rolling,
            new_version,
            availability: if total == 0 {
                1.0
            } else {
                answering as f64 / total as f64
            },
            checkpoint_lag_blocks,
            wal_bytes,
            wal_replay_ns,
            crash_fast_recoveries,
            cold_blocks,
            cold_bytes,
            demotions,
            promotions,
            residency_faults,
            queue_depth,
            shed,
            inflight: scuba_obs::gauge_value(crate::admission::INFLIGHT_GAUGE).unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(elapsed: u64, old: usize, rolling: usize, new: usize, avail: f64) -> DashboardRow {
        DashboardRow {
            elapsed: Duration::from_secs(elapsed),
            old_version: old,
            rolling,
            new_version: new,
            availability: avail,
            checkpoint_lag_blocks: 0,
            wal_bytes: 0,
            wal_replay_ns: 0,
            crash_fast_recoveries: 0,
            cold_blocks: 0,
            cold_bytes: 0,
            demotions: 0,
            promotions: 0,
            residency_faults: 0,
            queue_depth: 0,
            shed: 0,
            inflight: 0,
        }
    }

    #[test]
    fn collects_rows() {
        let mut d = Dashboard::new(100);
        d.push(row(0, 98, 2, 0, 0.98));
        d.push(row(60, 96, 2, 2, 0.98));
        assert_eq!(d.rows().len(), 2);
        assert_eq!(d.total(), 100);
    }

    #[test]
    fn render_shows_progress_glyphs() {
        let mut d = Dashboard::new(10);
        d.push(row(0, 10, 0, 0, 1.0));
        d.push(row(30, 4, 1, 5, 0.9));
        d.push(row(60, 0, 0, 10, 1.0));
        let s = d.render(10);
        assert!(s.contains("availability"));
        // Final row is fully '#'.
        let last = s.lines().last().unwrap();
        assert!(last.contains(&"#".repeat(40)), "{last}");
        assert!(s.contains("~"), "{s}");
        assert!(s.contains("90.0%"));
    }

    #[test]
    fn render_downsamples_long_series() {
        let mut d = Dashboard::new(4);
        for i in 0..100 {
            d.push(row(i, 4, 0, 0, 1.0));
        }
        let s = d.render(10);
        let bars = s.lines().count() - 1; // minus header
        assert!(bars <= 12, "{bars} lines");
    }

    #[test]
    fn empty_dashboard_renders() {
        let d = Dashboard::new(0);
        assert!(d.render(5).contains("no samples"));
        assert!(d.to_string().contains("no samples"));
    }

    #[test]
    #[should_panic(expected = "partition")]
    fn bad_partition_panics_in_debug() {
        let mut d = Dashboard::new(10);
        d.push(row(0, 5, 0, 0, 1.0));
    }
}
