//! E18 — Scuba-on-scuba: self-hosted telemetry cost and fidelity (§7,
//! tentpole PR 8).
//!
//! The system's own metrics and restart spans are ingested into the
//! reserved `__scuba_telemetry` table through the normal leaf ingest
//! path, and the rollover dashboard is rebuilt from vectorized queries
//! over that table. This experiment prices that loop:
//!
//! 1. **Ingest overhead** — telemetry sampling + self-ingest must cost
//!    <2% of leaf ingest throughput at a 1-snapshot-per-interval cadence.
//! 2. **Dashboard query latency** — how long one query-driven
//!    [`QueryDashboardFeed`] sample takes vs the direct registry feed.
//! 3. **Latency SLOs** — p50/p99/p999 of `leaf_ingest_latency_ns` and
//!    `leaf_query_latency_ns` from the log₂-bucket histograms.
//! 4. **Trace reconstruction** — one query filtered by the rollover's
//!    `trace_id` rebuilds every leaf's restore time within ±5% of the
//!    `RestartReport`.
//! 5. **Shed, never block** — a saturated exporter drops and counts;
//!    a collect against a full buffer stays sub-microsecond-per-event.
//!
//! ```sh
//! cargo run --release -p scuba-bench --bin exp_selfobs            # full
//! cargo run --release -p scuba-bench --bin exp_selfobs -- --smoke # CI
//! ```

use std::path::PathBuf;
use std::time::{Duration, Instant};

use scuba::cluster::dashboard::DashboardFeed;
use scuba::cluster::{
    restore_ns_by_leaf, rollover, ClusterConfig, HostedCluster, NullSloFeed, QueryDashboardFeed,
    RolloverConfig, SloPolicy, TelemetryExporter,
};
use scuba::columnstore::table::RetentionLimits;
use scuba::leaf::RecoveryOutcome;
use scuba_bench::{header, request_rows, row, table_header, BenchJson};

/// A disposable mini-cluster with its own shm namespace and disk root.
struct ClusterRig {
    cluster: HostedCluster,
    dir: PathBuf,
}

impl ClusterRig {
    fn new(machines: usize, leaves_per_machine: usize) -> ClusterRig {
        let prefix = format!("selfobs{}", std::process::id());
        let dir = std::env::temp_dir().join(format!("scuba_{prefix}"));
        let _ = std::fs::remove_dir_all(&dir);
        let cluster = HostedCluster::new(ClusterConfig {
            machines,
            leaves_per_machine,
            shm_prefix: prefix,
            disk_root: dir.clone(),
            leaf_memory_capacity: 1 << 30,
            retention: RetentionLimits::NONE,
        })
        .expect("boot cluster");
        ClusterRig { cluster, dir }
    }
}

impl Drop for ClusterRig {
    fn drop(&mut self) {
        self.cluster.unlink_shm();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Ingest `batches` × `batch_rows` user rows round-robin across every
/// leaf through its admission queue; returns the wall-clock seconds the
/// batches took, each one's copy into the request included.
fn ingest_rows(cluster: &HostedCluster, rows: &[scuba::columnstore::Row], batches: usize) -> f64 {
    let leaves = cluster.total_leaves();
    let now = rows
        .iter()
        .map(scuba::columnstore::Row::time)
        .max()
        .unwrap_or(0);
    let t = Instant::now();
    for b in 0..batches {
        cluster
            .add_rows(b % leaves, "requests", rows.to_vec(), now)
            .expect("ingest batch");
    }
    t.elapsed().as_secs_f64()
}

/// Part 1 — telemetry self-ingest cost as a fraction of user ingest.
///
/// Production cadence is one registry snapshot per dashboard interval
/// (seconds), amortized over however many user rows arrive in between.
/// We price one snapshot (collect + flush through the same leaves) and
/// compare against the user ingest it rides along with.
fn part_overhead(cluster: &HostedCluster, json: &mut BenchJson, smoke: bool) -> i64 {
    header(
        "E18a: telemetry ingest overhead",
        "self-telemetry must cost <2% of leaf ingest throughput",
    );
    let batch_rows = 2_000;
    let batches = if smoke { 64 } else { 256 };
    let rows = request_rows(batch_rows, 18);

    // Warm the path (allocator, table creation) before timing.
    ingest_rows(cluster, &rows, 4);

    // Best-of-3 user ingest time for the inter-sample interval.
    let user_secs = (0..3)
        .map(|_| ingest_rows(cluster, &rows, batches))
        .fold(f64::MAX, f64::min);
    let user_rows = (batches * batch_rows) as f64;

    // Price one snapshot: sample the registry + span ring, then ship the
    // events through the same ingest path the user rows took.
    let mut exporter = TelemetryExporter::default();
    let (mut tel_secs, mut tel_events) = (f64::MAX, 0usize);
    for ts in 0..3 {
        let t = Instant::now();
        let buffered = exporter.collect(1000 + ts);
        let delivered = exporter.flush(cluster);
        tel_secs = tel_secs.min(t.elapsed().as_secs_f64());
        tel_events = buffered.max(delivered).max(tel_events);
    }
    let overhead_pct = 100.0 * tel_secs / user_secs;

    table_header();
    row(
        "user ingest throughput",
        "baseline",
        &format!("{:.0} rows/s", user_rows / user_secs),
    );
    row(
        "one telemetry snapshot (collect+flush)",
        "amortized",
        &format!("{tel_events} events in {:.2} ms", tel_secs * 1e3),
    );
    row(
        "overhead per interval",
        "< 2%",
        &format!("{overhead_pct:.3}%"),
    );
    assert!(
        overhead_pct < 2.0,
        "telemetry self-ingest cost {overhead_pct:.3}% of user ingest (must be <2%)"
    );
    println!("\n  telemetry ingest overhead < 2% of leaf ingest: ok");

    json.push(
        "e18_ingest_overhead",
        &[
            ("user_rows_per_sec", user_rows / user_secs),
            ("snapshot_events", tel_events as f64),
            ("snapshot_ms", tel_secs * 1e3),
            ("overhead_pct", overhead_pct),
        ],
    );
    tel_events as i64
}

/// Part 2 — dashboard query latency: the query-driven feed vs the
/// registry feed, over the same fleet.
fn part_dashboard(cluster: &HostedCluster, json: &mut BenchJson, smoke: bool) {
    header(
        "E18b: dashboard query latency",
        "Figure-8 rows rebuilt from vectorized queries over __scuba_telemetry",
    );
    let samples = if smoke { 8 } else { 32 };
    let mut exporter = TelemetryExporter::default();
    let mut qfeed = QueryDashboardFeed::new(cluster, &mut exporter);
    let mut dfeed = DashboardFeed::new(cluster);

    let (mut q_total, mut q_max) = (0.0f64, 0.0f64);
    let mut d_total = 0.0f64;
    let mut last_availability = 1.0;
    for i in 0..samples {
        let t = Instant::now();
        let qrow = qfeed.sample(cluster, &mut exporter, Duration::from_secs(i as u64));
        let dt = t.elapsed().as_secs_f64();
        q_total += dt;
        q_max = q_max.max(dt);
        let t = Instant::now();
        let drow = dfeed.sample(cluster, Duration::from_secs(i as u64));
        d_total += t.elapsed().as_secs_f64();
        assert_eq!(
            qrow.availability, drow.availability,
            "query feed and registry feed disagree on availability"
        );
        last_availability = qrow.availability;
    }
    let (q_ms, d_ms) = (
        q_total / samples as f64 * 1e3,
        d_total / samples as f64 * 1e3,
    );

    table_header();
    row(
        "query-feed sample (8 grouped queries)",
        "interactive",
        &format!("{q_ms:.2} ms avg"),
    );
    row(
        "query-feed sample, worst",
        "-",
        &format!("{:.2} ms", q_max * 1e3),
    );
    row(
        "registry-feed sample (direct reads)",
        "-",
        &format!("{d_ms:.3} ms avg"),
    );
    row(
        "availability agreement",
        "exact",
        &format!("{last_availability:.3} == {last_availability:.3}"),
    );
    println!("\n  query dashboard matches registry dashboard on availability: ok");

    json.push(
        "e18_dashboard_query",
        &[
            ("query_feed_ms_avg", q_ms),
            ("query_feed_ms_max", q_max * 1e3),
            ("registry_feed_ms_avg", d_ms),
        ],
    );
}

/// Part 3 — p50/p99/p999 SLOs from the log₂-bucket histograms the leaf
/// now feeds on every ingest batch and query.
fn part_slo(json: &mut BenchJson) {
    header(
        "E18c: latency SLOs",
        "p50/p99/p999 from leaf_{ingest,query}_latency_ns log2-bucket histograms",
    );
    table_header();
    let mut fields: Vec<(&str, f64)> = Vec::new();
    let quantiles: &[(&str, f64, &str, &str)] = &[
        ("ingest_p50_ns", 0.5, "leaf_ingest_latency_ns", "p50"),
        ("ingest_p99_ns", 0.99, "leaf_ingest_latency_ns", "p99"),
        ("ingest_p999_ns", 0.999, "leaf_ingest_latency_ns", "p999"),
        ("query_p50_ns", 0.5, "leaf_query_latency_ns", "p50"),
        ("query_p99_ns", 0.99, "leaf_query_latency_ns", "p99"),
        ("query_p999_ns", 0.999, "leaf_query_latency_ns", "p999"),
    ];
    for &(field, q, metric, label) in quantiles {
        let ns = scuba::obs::histogram_quantile(metric, q)
            .unwrap_or_else(|| panic!("{metric} histogram is empty — instrumentation went dead"));
        row(
            &format!("{metric} {label}"),
            "within one log2 bucket",
            &format!("{:.3} ms", ns as f64 / 1e6),
        );
        fields.push((field, ns as f64));
    }
    println!("\n  both SLO histograms live and non-empty: ok");
    json.push("e18_slo_quantiles", &fields);
}

/// Part 4 — one query filtered by the rollover's trace id reconstructs
/// every leaf's restore time within ±5% of the RestartReport.
fn part_trace(cluster: &HostedCluster, json: &mut BenchJson) {
    header(
        "E18d: end-to-end restart tracing",
        "one trace_id query rebuilds the per-leaf restore timeline (±5%)",
    );
    // Every restart span of the rollover must survive until the sampler
    // drains the ring: widen it well past leaves × phases.
    scuba::obs::set_span_capacity(8192);
    let report = rollover(
        cluster,
        &RolloverConfig::default(),
        &SloPolicy::fixed(0.02),
        &mut NullSloFeed,
    );
    assert!(report.trace_id != 0, "rollover must allocate a trace id");

    let mut exporter = TelemetryExporter::default();
    exporter.collect(5000);
    exporter.flush(cluster);

    let t = Instant::now();
    let by_leaf = restore_ns_by_leaf(cluster, report.trace_id);
    let query_ms = t.elapsed().as_secs_f64() * 1e3;

    let keys = cluster.leaf_keys();
    let mut max_err_pct = 0.0f64;
    for (idx, outcome) in &report.recoveries {
        let key = &keys[*idx];
        let RecoveryOutcome::Memory(r) = outcome else {
            panic!("expected a shared-memory restore, got {outcome:?}");
        };
        let want = r.phases.phase_sum().as_nanos() as i64;
        let got = by_leaf.get(key).copied().unwrap_or(0);
        let tol = (want as f64 * 0.05).max(1000.0);
        assert!(
            (got - want).abs() as f64 <= tol,
            "{key}: reconstructed {got} ns vs report {want} ns"
        );
        if want > 0 {
            max_err_pct = max_err_pct.max(100.0 * (got - want).abs() as f64 / want as f64);
        }
    }
    assert_eq!(by_leaf.len(), report.recoveries.len(), "every leaf traced");
    scuba::obs::set_span_capacity(256);

    table_header();
    row(
        "leaves reconstructed",
        "all",
        &format!("{}/{}", by_leaf.len(), report.recoveries.len()),
    );
    row(
        "worst error vs RestartReport",
        "<= 5%",
        &format!("{max_err_pct:.2}%"),
    );
    row(
        "trace query",
        "one grouped query",
        &format!("{query_ms:.2} ms"),
    );
    println!("\n  per-leaf restore phase sums within ±5% of RestartReport: ok");

    json.push(
        "e18_trace_reconstruction",
        &[
            ("leaves", by_leaf.len() as f64),
            ("query_ms", query_ms),
            ("max_err_pct", max_err_pct),
        ],
    );
}

/// Part 5 — a saturated exporter sheds (and counts) instead of blocking.
fn part_shed(json: &mut BenchJson) {
    header(
        "E18e: shed, never block",
        "full buffer: events drop, drops are counted, collect stays cheap",
    );
    let mut exporter = TelemetryExporter::new(64);
    exporter.collect(9000); // fills: one snapshot is far more than 64 events
    assert!(exporter.dropped() > 0, "a full buffer must shed");
    let floor = exporter.dropped();

    // Collecting against a full buffer must stay cheap — it is the path
    // user traffic shares when telemetry ingest is wedged.
    let rounds = 50;
    let t = Instant::now();
    for ts in 0..rounds {
        exporter.collect(9001 + ts);
    }
    let per_collect_us = t.elapsed().as_secs_f64() / rounds as f64 * 1e6;
    assert!(
        exporter.dropped() > floor,
        "saturated collects shed everything"
    );
    let counted = scuba::obs::counter_value("telemetry_events_dropped_total").unwrap_or(0);
    assert!(counted >= exporter.dropped(), "drops must be counted");

    table_header();
    row(
        "events shed under saturation",
        "> 0",
        &format!("{}", exporter.dropped()),
    );
    row(
        "telemetry_events_dropped_total",
        ">= shed",
        &format!("{counted}"),
    );
    row(
        "saturated collect",
        "never blocks",
        &format!("{per_collect_us:.1} us"),
    );
    println!("\n  bounded buffer sheds with drops counted, never blocks: ok");

    json.push(
        "e18_shed",
        &[
            ("dropped", exporter.dropped() as f64),
            ("saturated_collect_us", per_collect_us),
        ],
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    scuba::obs::set_enabled(true);
    let mut json = BenchJson::new(&["e18_"]);

    let (machines, lpm) = if smoke { (2, 2) } else { (2, 4) };
    let rig = ClusterRig::new(machines, lpm);

    let events = part_overhead(&rig.cluster, &mut json, smoke);
    println!("\n  (one registry snapshot currently produces {events} events)");
    part_dashboard(&rig.cluster, &mut json, smoke);
    part_slo(&mut json);
    part_trace(&rig.cluster, &mut json);
    part_shed(&mut json);

    json.write();
}
