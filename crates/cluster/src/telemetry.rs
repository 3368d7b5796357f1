//! Scuba-on-scuba at the cluster level: ingest the process's own
//! telemetry into a reserved table and drive the rollover dashboard with
//! vectorized queries over it.
//!
//! [`TelemetryExporter`] runs the `scuba-obs` [`TelemetrySampler`] and
//! batches the resulting events through the normal ingest path into
//! [`TELEMETRY_TABLE`], sharded round-robin across live leaves — so the
//! system's observability survives leaf restarts because it is stored the
//! same way user data is. [`QueryDashboardFeed`] then rebuilds the
//! Figure-8 [`DashboardRow`] entirely from queries against that table,
//! and must agree with the direct-registry [`crate::dashboard::
//! DashboardFeed`] (availability exactly, gauge columns within tolerance).
//!
//! # Shed, never block
//!
//! Telemetry must not backpressure user traffic. The exporter's buffer is
//! bounded: when it is full, when no live leaf accepts the batch, or when
//! a leaf's admission queue sheds its shard, the excess events are
//! *dropped* and counted in `telemetry_events_dropped_total`. Nothing in
//! this module retries or waits for room.

use std::collections::{BTreeMap, VecDeque};

use scuba_columnstore::Row;
use scuba_obs::{TelemetryEvent, TelemetrySampler};
use scuba_query::{AggSpec, CmpOp, Filter, GroupKey, Query};

use crate::dashboard::DashboardRow;
use crate::hosted::HostedCluster;

/// The reserved self-telemetry table. The `__scuba_` prefix keeps it out
/// of the user namespace; it is queried like any other table.
pub const TELEMETRY_TABLE: &str = "__scuba_telemetry";

/// Default bounded-buffer capacity (events held between flushes).
pub const DEFAULT_BUFFER_CAPACITY: usize = 16 * 1024;

/// Samples the registry + span ring and ships the events into
/// [`TELEMETRY_TABLE`] through the normal leaf ingest path.
#[derive(Debug)]
pub struct TelemetryExporter {
    sampler: TelemetrySampler,
    buffer: VecDeque<TelemetryEvent>,
    capacity: usize,
    /// Rotates which live leaf gets the first shard of each flush.
    next_leaf: usize,
    dropped: u64,
}

impl Default for TelemetryExporter {
    fn default() -> Self {
        TelemetryExporter::new(DEFAULT_BUFFER_CAPACITY)
    }
}

impl TelemetryExporter {
    /// An exporter whose buffer holds at most `capacity` events.
    pub fn new(capacity: usize) -> TelemetryExporter {
        TelemetryExporter {
            sampler: TelemetrySampler::new(),
            buffer: VecDeque::new(),
            capacity: capacity.max(1),
            next_leaf: 0,
            dropped: 0,
        }
    }

    /// Events currently buffered.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Events this exporter has shed (buffer overflow or undeliverable
    /// batches) — mirrored in `telemetry_events_dropped_total`.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Sample the registry and span ring at logical time `ts`, buffering
    /// the events. Returns how many were buffered (excess is shed).
    pub fn collect(&mut self, ts: i64) -> usize {
        self.enqueue(self.sampler.sample(ts))
    }

    /// Buffer pre-built events, shedding (newest first) past capacity.
    pub fn enqueue(&mut self, events: Vec<TelemetryEvent>) -> usize {
        let room = self.capacity.saturating_sub(self.buffer.len());
        let take = room.min(events.len());
        let shed = events.len() - take;
        self.buffer.extend(events.into_iter().take(take));
        if shed > 0 {
            self.shed(shed as u64);
        }
        take
    }

    fn shed(&mut self, n: u64) {
        self.dropped += n;
        scuba_obs::counter!("telemetry_events_dropped_total").add(n);
    }

    /// Ship every buffered event into [`TELEMETRY_TABLE`], round-robin
    /// across the leaves currently accepting ingest, through each leaf's
    /// admission queue. Never fails: a batch no live leaf accepts — or
    /// one its leaf sheds — is dropped and counted. Returns the number of
    /// events delivered.
    pub fn flush(&mut self, cluster: &HostedCluster) -> usize {
        if self.buffer.is_empty() {
            return 0;
        }
        let events: Vec<TelemetryEvent> = self.buffer.drain(..).collect();
        let mut live = Vec::new();
        cluster.for_each_host(|idx, h| {
            if h.status().accepts_adds() {
                live.push(idx);
            }
        });
        if live.is_empty() {
            self.shed(events.len() as u64);
            return 0;
        }
        // Shard the batch: event i goes to live leaf (next_leaf + i) % n.
        let n = live.len();
        let mut batches: Vec<Vec<Row>> = vec![Vec::new(); n];
        for (i, e) in events.iter().enumerate() {
            batches[(self.next_leaf + i) % n].push(event_row(e));
        }
        self.next_leaf = (self.next_leaf + 1) % n;
        let mut delivered = 0usize;
        for (idx, rows) in live.into_iter().zip(batches) {
            if rows.is_empty() {
                continue;
            }
            let count = rows.len();
            let now = rows.iter().map(Row::time).max().unwrap_or(0);
            if cluster.add_rows(idx, TELEMETRY_TABLE, rows, now).is_ok() {
                delivered += count;
            } else {
                // Shed at admission, or the leaf went away since the
                // liveness scan: drop the shard rather than retry.
                self.shed(count as u64);
            }
        }
        delivered
    }
}

/// One telemetry event as a row of [`TELEMETRY_TABLE`].
fn event_row(e: &TelemetryEvent) -> Row {
    Row::at(e.ts)
        .with("kind", e.kind)
        .with("metric", e.metric.as_str())
        .with("leaf", e.leaf.as_str())
        .with("op", e.op.as_str())
        .with("phase", e.phase.as_str())
        .with("value", e.value)
        .with("trace_id", e.trace_id.min(i64::MAX as u64) as i64)
        .with("outcome", e.outcome.as_str())
}

/// Per-leaf values of one metric at one logical timestamp, read back out
/// of [`TELEMETRY_TABLE`] with a grouped vectorized query.
pub fn metric_by_leaf(
    cluster: &HostedCluster,
    ts: i64,
    kind: &str,
    metric: &str,
) -> BTreeMap<String, i64> {
    let q = Query::new(TELEMETRY_TABLE, ts, ts + 1)
        .filter(Filter::new("kind", CmpOp::Eq, kind))
        .filter(Filter::new("metric", CmpOp::Eq, metric))
        .group_by("leaf")
        .aggregates(vec![AggSpec::Max("value".into())]);
    let mut out = BTreeMap::new();
    for (key, values) in cluster.query(&q).groups {
        if let GroupKey::Str(leaf) = key {
            out.insert(leaf, value_i64(values.first()));
        }
    }
    out
}

/// Fleet-wide value of one *unlabeled* metric at one logical timestamp
/// (e.g. `cluster_inflight_requests`, which has no `leaf` label).
pub fn global_metric(cluster: &HostedCluster, ts: i64, kind: &str, metric: &str) -> i64 {
    let q = Query::new(TELEMETRY_TABLE, ts, ts + 1)
        .filter(Filter::new("kind", CmpOp::Eq, kind))
        .filter(Filter::new("metric", CmpOp::Eq, metric))
        .aggregates(vec![AggSpec::Max("value".into())]);
    value_i64(cluster.query(&q).totals().and_then(|t| t.first()))
}

fn value_i64(v: Option<&scuba_columnstore::Value>) -> i64 {
    match v {
        Some(scuba_columnstore::Value::Int(i)) => *i,
        Some(scuba_columnstore::Value::Double(d)) => *d as i64,
        _ => 0,
    }
}

/// The query-driven twin of [`crate::dashboard::DashboardFeed`]: produces
/// the same [`DashboardRow`]s, but every number is read back from
/// [`TELEMETRY_TABLE`] with vectorized queries instead of the live metric
/// registry.
///
/// Each [`sample`](QueryDashboardFeed::sample) call snapshots the
/// registry at a fresh logical timestamp, flushes the events to the
/// leaves that are live *right now*, then queries exactly that one-tick
/// window — so the current snapshot is always fully queryable, even while
/// part of the fleet is down mid-rollover.
#[derive(Debug)]
pub struct QueryDashboardFeed {
    keys: Vec<String>,
    baseline: Vec<u64>,
    next_ts: i64,
}

impl QueryDashboardFeed {
    /// A feed over every leaf in `cluster`, with recovery baselines taken
    /// now — through the telemetry table, like every later read. Create
    /// it (like the registry feed) immediately before a rollover.
    pub fn new(cluster: &HostedCluster, exporter: &mut TelemetryExporter) -> QueryDashboardFeed {
        let mut feed = QueryDashboardFeed {
            keys: cluster.leaf_keys(),
            baseline: Vec::new(),
            next_ts: 0,
        };
        let ts = feed.snapshot(cluster, exporter);
        let recoveries = metric_by_leaf(cluster, ts, "counter", "leaf_recoveries_total");
        feed.baseline = feed
            .keys
            .iter()
            .map(|k| recoveries.get(k).copied().unwrap_or(0).max(0) as u64)
            .collect();
        feed
    }

    /// Write one registry snapshot into the telemetry table and return
    /// its logical timestamp.
    fn snapshot(&mut self, cluster: &HostedCluster, exporter: &mut TelemetryExporter) -> i64 {
        let ts = self.next_ts;
        self.next_ts += 1;
        exporter.collect(ts);
        exporter.flush(cluster);
        ts
    }

    /// Sample the fleet: snapshot telemetry, then classify every leaf as
    /// old/rolling/new purely from queries over [`TELEMETRY_TABLE`] —
    /// the same classification [`crate::dashboard::DashboardFeed::
    /// sample_inner`] applies to the live registry.
    pub fn sample(
        &mut self,
        cluster: &HostedCluster,
        exporter: &mut TelemetryExporter,
        elapsed: std::time::Duration,
    ) -> DashboardRow {
        let ts = self.snapshot(cluster, exporter);
        let accepting = metric_by_leaf(cluster, ts, "gauge", "leaf_accepting_queries");
        let recoveries = metric_by_leaf(cluster, ts, "counter", "leaf_recoveries_total");
        let lag = metric_by_leaf(cluster, ts, "gauge", "leaf_checkpoint_lag_blocks");
        let wal = metric_by_leaf(cluster, ts, "gauge", "leaf_wal_bytes");
        let replay = metric_by_leaf(cluster, ts, "gauge", "leaf_wal_replay_ns");
        let crash = metric_by_leaf(cluster, ts, "counter", "leaf_crash_fast_recoveries_total");
        let cold_blocks = metric_by_leaf(cluster, ts, "gauge", "leaf_cold_blocks");
        let cold_bytes = metric_by_leaf(cluster, ts, "gauge", "leaf_cold_bytes");
        let demotions = metric_by_leaf(cluster, ts, "counter", "leaf_demotions_total");
        let promotions = metric_by_leaf(cluster, ts, "counter", "leaf_promotions_total");
        let faults = metric_by_leaf(cluster, ts, "counter", "leaf_residency_faults_total");
        let queue_depth = metric_by_leaf(cluster, ts, "gauge", crate::admission::QUEUE_DEPTH_GAUGE);
        let shed = metric_by_leaf(cluster, ts, "counter", crate::admission::SHED_COUNTER);

        let total = self.keys.len();
        let mut row = DashboardRow {
            elapsed,
            old_version: 0,
            rolling: 0,
            new_version: 0,
            availability: 1.0,
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
            inflight: global_metric(cluster, ts, "gauge", crate::admission::INFLIGHT_GAUGE),
        };
        let mut answering = 0usize;
        for (i, key) in self.keys.iter().enumerate() {
            row.checkpoint_lag_blocks += lag.get(key).copied().unwrap_or(0);
            row.wal_bytes += wal.get(key).copied().unwrap_or(0);
            row.wal_replay_ns = row.wal_replay_ns.max(replay.get(key).copied().unwrap_or(0));
            row.crash_fast_recoveries += crash.get(key).copied().unwrap_or(0).max(0) as u64;
            row.cold_blocks += cold_blocks.get(key).copied().unwrap_or(0);
            row.cold_bytes += cold_bytes.get(key).copied().unwrap_or(0);
            row.demotions += demotions.get(key).copied().unwrap_or(0).max(0) as u64;
            row.promotions += promotions.get(key).copied().unwrap_or(0).max(0) as u64;
            row.residency_faults += faults.get(key).copied().unwrap_or(0).max(0) as u64;
            row.queue_depth += queue_depth.get(key).copied().unwrap_or(0);
            row.shed += shed.get(key).copied().unwrap_or(0).max(0) as u64;
            // A leaf with no gauge row yet (instrumentation off, or a
            // series never written) defaults to answering-on-old, same as
            // the registry feed's fallback.
            let accepts = accepting.get(key).is_none_or(|v| *v > 0);
            if accepts {
                answering += 1;
            }
            let recovered =
                recoveries.get(key).copied().unwrap_or(0).max(0) as u64 > self.baseline[i];
            if !accepts {
                row.rolling += 1;
            } else if recovered {
                row.new_version += 1;
            } else {
                row.old_version += 1;
            }
        }
        row.availability = if total == 0 {
            1.0
        } else {
            answering as f64 / total as f64
        };
        row
    }
}

/// Reconstruct a rollover's per-leaf restore timeline from the telemetry
/// table: total restore nanoseconds per leaf, from the `restart.phase`
/// spans stamped with `trace_id`. One query — the Figure-5-per-leaf view
/// the tentpole promises.
pub fn restore_ns_by_leaf(cluster: &HostedCluster, trace_id: u64) -> BTreeMap<String, i64> {
    let q = Query::new(TELEMETRY_TABLE, i64::MIN, i64::MAX)
        .filter(Filter::new("kind", CmpOp::Eq, "span"))
        .filter(Filter::new("metric", CmpOp::Eq, "restart.phase"))
        .filter(Filter::new("op", CmpOp::Eq, "restore"))
        .filter(Filter::new(
            "trace_id",
            CmpOp::Eq,
            trace_id.min(i64::MAX as u64) as i64,
        ))
        .group_by("leaf")
        .aggregates(vec![AggSpec::Sum("value".into())]);
    let mut out = BTreeMap::new();
    for (key, values) in cluster.query(&q).groups {
        if let GroupKey::Str(leaf) = key {
            out.insert(leaf, value_i64(values.first()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dashboard::DashboardFeed;
    use crate::hosted::tests::{fill, hosted, roll};
    use crate::rollover::RolloverConfig;
    use scuba_leaf::RecoveryOutcome;
    use std::time::Duration;

    /// Gauge columns must agree within ±5% (they are read from the same
    /// snapshot, so in practice exactly).
    fn close(a: i64, b: i64, what: &str) {
        let tol = (a.abs().max(b.abs()) as f64 * 0.05).max(1.0);
        assert!(
            (a - b).abs() as f64 <= tol,
            "{what}: query feed {a} vs registry feed {b}"
        );
    }

    fn assert_rows_agree(q: &DashboardRow, d: &DashboardRow) {
        assert_eq!(
            (q.old_version, q.rolling, q.new_version),
            (d.old_version, d.rolling, d.new_version),
            "fleet partition"
        );
        assert_eq!(q.availability, d.availability, "availability");
        close(q.checkpoint_lag_blocks, d.checkpoint_lag_blocks, "lag");
        close(q.wal_bytes, d.wal_bytes, "wal_bytes");
        close(q.wal_replay_ns, d.wal_replay_ns, "wal_replay_ns");
        close(
            q.crash_fast_recoveries as i64,
            d.crash_fast_recoveries as i64,
            "crash_fast_recoveries",
        );
        close(q.cold_blocks, d.cold_blocks, "cold_blocks");
        close(q.cold_bytes, d.cold_bytes, "cold_bytes");
        close(q.demotions as i64, d.demotions as i64, "demotions");
        close(q.promotions as i64, d.promotions as i64, "promotions");
        close(
            q.residency_faults as i64,
            d.residency_faults as i64,
            "residency_faults",
        );
    }

    #[test]
    fn query_dashboard_matches_registry_dashboard_through_a_wave() {
        // Span-draining + registry-reading test: serialize with other
        // ring consumers (the sampler drains the process-global ring).
        let _f = crate::hosted::tests::faults_lock();
        let _x = scuba_obs::exclusive();
        scuba_obs::set_enabled(true);
        let (c, _g) = hosted(2, 2);
        fill(&c, 10);

        let mut exporter = TelemetryExporter::default();
        let mut qfeed = QueryDashboardFeed::new(&c, &mut exporter);
        let mut dfeed = DashboardFeed::new(&c);

        // All answering on the old version.
        let q0 = qfeed.sample(&c, &mut exporter, Duration::from_secs(0));
        let d0 = dfeed.sample(&c, Duration::from_secs(0));
        assert_rows_agree(&q0, &d0);
        assert_eq!((q0.old_version, q0.rolling, q0.new_version), (4, 0, 0));

        // A rollover wave: one leaf down. The wave's telemetry lands on
        // the three live leaves, so the snapshot is fully queryable.
        let cfg = RolloverConfig::default();
        c.stop_leaves(&[0], &cfg);
        let q1 = qfeed.sample(&c, &mut exporter, Duration::from_secs(1));
        let d1 = dfeed.sample(&c, Duration::from_secs(1));
        assert_rows_agree(&q1, &d1);
        assert_eq!((q1.old_version, q1.rolling, q1.new_version), (3, 1, 0));
        assert!(q1.availability < 1.0);

        // Replacement up: recovery counter moved past baseline → "new".
        c.start_leaves(&[0], &cfg);
        let q2 = qfeed.sample(&c, &mut exporter, Duration::from_secs(2));
        let d2 = dfeed.sample(&c, Duration::from_secs(2));
        assert_rows_agree(&q2, &d2);
        assert_eq!((q2.old_version, q2.rolling, q2.new_version), (3, 0, 1));
        assert_eq!(q2.availability, 1.0);

        assert_eq!(exporter.dropped(), 0, "nothing shed in normal operation");
    }

    #[test]
    fn one_query_reconstructs_a_rollover_trace() {
        // Consumes the span ring: serialize with other ring consumers and
        // widen the ring so parallel tests' spans can't evict ours.
        let _f = crate::hosted::tests::faults_lock();
        let _x = scuba_obs::exclusive();
        scuba_obs::set_enabled(true);
        scuba_obs::set_span_capacity(8192);
        let (c, _g) = hosted(3, 2);
        fill(&c, 40);

        let report = roll(&c, &RolloverConfig::default());
        assert!(report.trace_id != 0);
        assert_eq!(report.memory_recoveries(), 6);

        // Ship the rollover's spans into the telemetry table, then ask it
        // one question: restore nanoseconds per leaf for this trace.
        let mut exporter = TelemetryExporter::default();
        exporter.collect(100);
        exporter.flush(&c);
        let by_leaf = restore_ns_by_leaf(&c, report.trace_id);

        let keys = c.leaf_keys();
        for (idx, outcome) in &report.recoveries {
            let key = &keys[*idx];
            let RecoveryOutcome::Memory(r) = outcome else {
                panic!("expected a full memory restore, got {outcome:?}");
            };
            let want = r.phases.phase_sum().as_nanos() as i64;
            let got = by_leaf.get(key).copied().unwrap_or(0);
            // The spans carry the report's own phase durations, so the
            // reconstruction must land within ±5% of the RestartReport.
            let tol = (want as f64 * 0.05).max(1000.0);
            assert!(
                (got - want).abs() as f64 <= tol,
                "{key}: reconstructed {got} ns vs report {want} ns"
            );
        }
        assert_eq!(by_leaf.len(), report.recoveries.len(), "every leaf traced");
        scuba_obs::set_span_capacity(256);
    }

    #[test]
    fn exporter_sheds_and_never_blocks() {
        let _f = crate::hosted::tests::faults_lock();
        let _x = scuba_obs::exclusive();
        scuba_obs::set_enabled(true);
        let (c, _g) = hosted(1, 2);

        // Saturation: a buffer far smaller than one registry snapshot.
        let mut exporter = TelemetryExporter::new(8);
        let buffered = exporter.collect(0);
        assert!(buffered <= 8);
        assert!(
            exporter.dropped() > 0,
            "a full buffer must shed, not grow or block"
        );
        let before = exporter.dropped();
        exporter.collect(1); // buffer already full: everything sheds
        assert_eq!(exporter.buffered(), 8);
        assert!(exporter.dropped() > before);

        // Whole fleet down: flush sheds the batch instead of waiting.
        c.stop_leaves(&[0, 1], &RolloverConfig::default());
        let before = exporter.dropped();
        assert_eq!(exporter.flush(&c), 0);
        assert_eq!(exporter.buffered(), 0);
        assert_eq!(exporter.dropped(), before + 8);
        // The shed path is itself observable.
        assert!(
            scuba_obs::counter_value("telemetry_events_dropped_total").unwrap_or(0)
                >= exporter.dropped()
        );
    }
}
