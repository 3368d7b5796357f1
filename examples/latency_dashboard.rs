//! A performance-debugging dashboard (the paper's §1 use case) on a fully
//! concurrent cluster: every leaf on its own thread, a latency time series
//! with p50/p95/p99, tag-set filters — refreshed live through a rolling
//! software upgrade.
//!
//! ```sh
//! cargo run --release --example latency_dashboard
//! ```

use scuba::cluster::{
    rollover, ClusterConfig, HostedCluster, NullSloFeed, RolloverConfig, SloPolicy,
};
use scuba::columnstore::table::RetentionLimits;
use scuba::columnstore::Value;
use scuba::ingest::{WorkloadKind, WorkloadSpec};
use scuba::query::{AggSpec, CmpOp, Filter, GroupKey, Query};

fn render_panel(cluster: &HostedCluster, label: &str) {
    // Latency percentiles per 2-second bucket — the classic latency chart.
    let q = Query::new("requests", 0, i64::MAX)
        .bucket_secs(2)
        .aggregates(vec![
            AggSpec::Count,
            AggSpec::p50("latency_ms"),
            AggSpec::Percentile("latency_ms".into(), 0.95),
            AggSpec::p99("latency_ms"),
        ]);
    let r = cluster.query(&q);
    println!(
        "[{label}] availability {:>5.1}%  ({} rows scanned)",
        r.availability() * 100.0,
        r.rows_scanned
    );
    println!("  bucket         rows      p50      p95      p99   p99 sparkline");
    let max_p99 = r
        .groups
        .values()
        .filter_map(|a| a[3].as_double())
        .fold(1.0f64, f64::max);
    for (key, aggs) in &r.groups {
        let GroupKey::Bucketed(t, _) = key else {
            continue;
        };
        let p99 = aggs[3].as_double().unwrap_or(0.0);
        let bar = "#".repeat(((p99 / max_p99) * 30.0) as usize);
        println!(
            "  t={:<10}  {:>6}  {:>6.1}  {:>6.1}  {:>6.1}   {bar}",
            t,
            aggs[0],
            aggs[1].as_double().unwrap_or(0.0),
            aggs[2].as_double().unwrap_or(0.0),
            p99,
        );
    }
    println!();
}

fn main() {
    let dir = std::env::temp_dir().join(format!("scuba_latdash_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cluster = HostedCluster::new(ClusterConfig {
        machines: 3,
        leaves_per_machine: 2,
        shm_prefix: format!("latdash{}", std::process::id()),
        disk_root: dir.clone(),
        leaf_memory_capacity: 1 << 30,
        retention: RetentionLimits::NONE,
    })
    .expect("boot hosted cluster");
    println!(
        "hosted cluster up: {} leaves, each on its own thread\n",
        cluster.total_leaves()
    );

    // Spread request logs across the leaves (short time range so the
    // bucketed panel stays readable).
    for i in 0..cluster.total_leaves() {
        let spec = WorkloadSpec {
            seed: i as u64,
            events_per_sec: 2000,
            ..WorkloadSpec::new(WorkloadKind::Requests, 0)
        };
        cluster
            .add_rows(i, "requests", spec.rows(20_000), 0)
            .expect("ingest");
    }
    println!("ingested {} rows\n", cluster.total_rows());

    render_panel(&cluster, "before upgrade");

    // Drill-down: error latency only, on the /api endpoints.
    let drill = Query::new("requests", 0, i64::MAX)
        .filter(Filter::new("status", CmpOp::Ge, 500i64))
        .filter(Filter::new("endpoint", CmpOp::Contains, "/api"))
        .group_by("endpoint")
        .aggregates(vec![AggSpec::Count, AggSpec::p99("latency_ms")]);
    let r = cluster.query(&drill);
    println!("[drill-down] 5xx on /api endpoints:");
    for (key, aggs) in &r.groups {
        println!("  {key:<12} errors={:<6} p99={}", aggs[0], aggs[1]);
    }
    let before = r.rows_matched;

    // Roll the cluster while the dashboard keeps working.
    println!("\nrolling upgrade (one leaf per machine per wave)...");
    let report = rollover(
        &cluster,
        &RolloverConfig::default(),
        &SloPolicy::fixed(0.02),
        &mut NullSloFeed,
    );
    println!(
        "upgrade: {} leaves in {} waves, {} via shared memory, {:?}\n",
        report.restarted,
        report.waves,
        report.memory_recoveries(),
        report.duration
    );

    render_panel(&cluster, "after upgrade ");
    let r = cluster.query(&drill);
    assert_eq!(
        r.rows_matched, before,
        "drill-down must survive the upgrade"
    );
    assert_eq!(
        cluster
            .query(&Query::new("requests", 0, i64::MAX))
            .totals()
            .unwrap()[0],
        Value::Int(120_000)
    );
    println!("identical drill-down results across the upgrade ✓");

    cluster.unlink_shm();
    let _ = std::fs::remove_dir_all(&dir);
}
