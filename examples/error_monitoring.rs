//! Error monitoring through an upgrade — the paper's motivating workload.
//!
//! ```sh
//! cargo run --release --example error_monitoring
//! ```
//!
//! §1: Scuba backs "detecting user-facing errors", where "even 10 minutes
//! is a long downtime". This example runs that scenario on a mini
//! cluster: products log error events through Scribe, tailers fan them
//! into leaves, an on-call dashboard polls fatal-error counts by product
//! — and a rolling upgrade happens in the middle without the dashboard
//! missing more than the 2%-ish of data that is mid-flight.

use rand::rngs::StdRng;
use rand::SeedableRng;
use scuba::cluster::{
    rollover, ClusterConfig, HostedCluster, NullSloFeed, RolloverConfig, SloPolicy,
};
use scuba::columnstore::table::RetentionLimits;
use scuba::ingest::{Scribe, Tailer, TailerConfig, WorkloadKind, WorkloadSpec};
use scuba::query::{AggSpec, CmpOp, Filter, Query};

fn dashboard_poll(cluster: &HostedCluster, label: &str) -> u64 {
    let q = Query::new("error_logs", 0, i64::MAX)
        .filter(Filter::new("severity", CmpOp::Eq, "fatal"))
        .group_by("product")
        .aggregates(vec![AggSpec::Count, AggSpec::Sum("count".into())]);
    let r = cluster.query(&q);
    println!(
        "[dashboard {label}] availability {:>5.1}%  fatal rows {}  top products:",
        r.availability() * 100.0,
        r.rows_matched
    );
    let mut groups: Vec<_> = r.groups.iter().collect();
    groups.sort_by(|a, b| {
        let ka = a.1[0].as_int().unwrap_or(0);
        let kb = b.1[0].as_int().unwrap_or(0);
        kb.cmp(&ka)
    });
    for (product, aggs) in groups.iter().take(3) {
        println!(
            "    {product:<12} events={} total_count={}",
            aggs[0], aggs[1]
        );
    }
    r.rows_matched
}

fn main() {
    let dir = std::env::temp_dir().join(format!("scuba_errmon_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cluster = HostedCluster::new(ClusterConfig {
        machines: 4,
        leaves_per_machine: 2,
        shm_prefix: format!("errmon{}", std::process::id()),
        disk_root: dir.clone(),
        leaf_memory_capacity: 1 << 30,
        retention: RetentionLimits::NONE,
    })
    .expect("boot cluster");
    println!(
        "cluster up: {} machines x {} leaves",
        cluster.config().machines,
        cluster.config().leaves_per_machine
    );

    // Products log error events into Scribe; a tailer drains them.
    let scribe = Scribe::new();
    let spec = WorkloadSpec::new(WorkloadKind::ErrorLogs, 42);
    let mut tailer = Tailer::new(
        &scribe,
        "error_logs",
        TailerConfig {
            batch_rows: 500,
            batch_secs: 0,
            max_pair_tries: 4,
        },
    );
    let mut rng = StdRng::seed_from_u64(1);

    scribe.log_batch("error_logs", spec.rows(50_000));
    tailer.tick(&scribe, &mut cluster.leaf_clients(), &mut rng, 0);
    println!("ingested {} error events\n", cluster.total_rows());

    let before = dashboard_poll(&cluster, "pre-upgrade ");

    // The weekly software upgrade, one leaf at a time.
    println!("\nrolling upgrade starting (one leaf per wave) ...");
    let report = rollover(
        &cluster,
        &RolloverConfig::default(),
        &SloPolicy::fixed(0.02),
        &mut NullSloFeed,
    );
    println!(
        "upgrade done: {} leaves, {} waves, {} via shared memory, {:?} total, min availability {:.1}%\n",
        report.restarted,
        report.waves,
        report.memory_recoveries(),
        report.duration,
        report.min_availability * 100.0
    );
    println!("{}", report.dashboard.render(12));

    let after = dashboard_poll(&cluster, "post-upgrade");
    assert_eq!(before, after, "dashboard must not lose events");
    println!("\nno error events lost across the upgrade ✓");

    // On-call keeps watching while new errors stream in.
    scribe.log_batch("error_logs", spec.rows(10_000));
    tailer.tick(&scribe, &mut cluster.leaf_clients(), &mut rng, 100);
    dashboard_poll(&cluster, "live        ");

    cluster.unlink_shm();
    let _ = std::fs::remove_dir_all(&dir);
}
