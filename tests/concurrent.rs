//! Integration: the fully concurrent cluster — every leaf on its own
//! thread, tailers and dashboard clients running on others, and a rolling
//! upgrade happening in the middle. This is the closest in-process
//! approximation of the production topology the paper describes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use scuba::cluster::{
    rollover, ClusterConfig, HostedCluster, NullSloFeed, RolloverConfig, RolloverReport, SloPolicy,
};
use scuba::columnstore::table::RetentionLimits;
use scuba::columnstore::{Row, Value};
use scuba::ingest::{Scribe, Tailer, TailerConfig, WorkloadKind, WorkloadSpec};
use scuba::query::{AggSpec, Query};

struct Guard {
    prefix: String,
    dir: std::path::PathBuf,
    total: usize,
}
impl Drop for Guard {
    fn drop(&mut self) {
        for id in 0..self.total {
            if let Ok(ns) = scuba::shmem::ShmNamespace::new(&self.prefix, id as u32) {
                ns.unlink_all(8);
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn hosted(machines: usize, leaves: usize, tag: &str) -> (HostedCluster, Guard) {
    let prefix = format!("cc{tag}{}", std::process::id());
    let dir = std::env::temp_dir().join(format!("scuba_cc_{prefix}"));
    let _ = std::fs::remove_dir_all(&dir);
    let c = HostedCluster::new(ClusterConfig {
        machines,
        leaves_per_machine: leaves,
        shm_prefix: prefix.clone(),
        disk_root: dir.clone(),
        leaf_memory_capacity: 1 << 30,
        retention: RetentionLimits::NONE,
    })
    .unwrap();
    (
        c,
        Guard {
            prefix,
            dir,
            total: machines * leaves,
        },
    )
}

/// The paper's fixed 2%-at-a-time rollover: no SLO gating.
fn roll(cluster: &HostedCluster, cfg: &RolloverConfig) -> RolloverReport {
    rollover(cluster, cfg, &SloPolicy::fixed(0.02), &mut NullSloFeed)
}

#[test]
fn live_pipeline_through_a_concurrent_rollover() {
    // No outer lock: the per-slot locks inside HostedCluster are the only
    // synchronization — tailer, dashboard, and rollover all hold `&self`.
    let (cluster, _g) = hosted(3, 2, "live");
    let cluster = Arc::new(cluster);
    let scribe = Scribe::new();
    let stop = Arc::new(AtomicBool::new(false));

    // Producer thread: products keep logging.
    let spec = WorkloadSpec::new(WorkloadKind::Requests, 21);
    let producer_scribe = scribe.clone();
    let producer_stop = Arc::clone(&stop);
    let producer = std::thread::spawn(move || {
        let mut total = 0usize;
        let mut chunk = 0u64;
        while !producer_stop.load(Ordering::Relaxed) {
            let rows = WorkloadSpec {
                seed: 1000 + chunk,
                ..spec.clone()
            }
            .rows(500);
            total += rows.len();
            producer_scribe.log_batch("requests", rows);
            chunk += 1;
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        total
    });

    // Tailer thread: drains Scribe into the cluster, routing around
    // restarting leaves.
    let tailer_cluster = Arc::clone(&cluster);
    let tailer_scribe = scribe.clone();
    let tailer_stop = Arc::clone(&stop);
    let tailer_thread = std::thread::spawn(move || {
        let mut tailer = Tailer::new(
            &tailer_scribe,
            "requests",
            TailerConfig {
                batch_rows: 250,
                batch_secs: 0,
                max_pair_tries: 6,
            },
        );
        let mut rng = StdRng::seed_from_u64(9);
        let mut now = 0i64;
        let mut clients = tailer_cluster.leaf_clients();
        loop {
            tailer.tick(&tailer_scribe, &mut clients, &mut rng, now);
            now += 1;
            if tailer_stop.load(Ordering::Relaxed) && tailer.pending_rows() == 0 {
                // Drain whatever is still in scribe, then exit.
                while tailer.tick(&tailer_scribe, &mut clients, &mut rng, now) > 0 {
                    now += 1;
                }
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        tailer.stats().rows_sent
    });

    // Dashboard thread: polls counts; every observation must be a valid
    // partial (never an error, never a panic).
    let dash_cluster = Arc::clone(&cluster);
    let dash_stop = Arc::clone(&stop);
    let dashboard = std::thread::spawn(move || {
        let q = Query::new("requests", 0, i64::MAX).aggregates(vec![AggSpec::Count]);
        let mut polls = 0usize;
        let mut min_availability = f64::INFINITY;
        while !dash_stop.load(Ordering::Relaxed) {
            let r = dash_cluster.query(&q);
            min_availability = min_availability.min(r.availability());
            polls += 1;
            std::thread::sleep(std::time::Duration::from_millis(3));
        }
        (polls, min_availability)
    });

    // Let the pipeline warm up, then roll the cluster while it all runs.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let report = roll(&cluster, &RolloverConfig::default());
    assert_eq!(report.restarted, 6);
    assert_eq!(
        report.memory_recoveries(),
        6,
        "all leaves should restart via shm"
    );

    // Wind down: stop producing, let the tailer drain, stop the dashboard.
    std::thread::sleep(std::time::Duration::from_millis(30));
    stop.store(true, Ordering::Relaxed);
    let produced = producer.join().unwrap();
    let delivered = tailer_thread.join().unwrap();
    let (polls, min_availability) = dashboard.join().unwrap();

    assert!(polls > 0);
    assert!(min_availability >= 0.0);
    assert_eq!(
        delivered as usize, produced,
        "tailer must deliver everything"
    );

    // Nothing lost: the cluster holds every produced row.
    let r = cluster.query(&Query::new("requests", 0, i64::MAX));
    assert!(r.is_complete());
    assert_eq!(r.totals().unwrap()[0], Value::Int(produced as i64));
}

#[test]
fn hosted_disk_rollover_preserves_synced_data() {
    let (cluster, _g) = hosted(2, 2, "disk");
    cluster.for_each_host(|_, host| {
        host.add_rows("t", (0..100).map(Row::at).collect(), 0)
            .unwrap();
        host.sync_disk().unwrap();
    });
    let report = roll(
        &cluster,
        &RolloverConfig {
            use_shm: false,
            ..Default::default()
        },
    );
    assert_eq!(report.restarted, 4);
    assert_eq!(report.memory_recoveries(), 0);
    let r = cluster.query(&Query::new("t", 0, i64::MAX));
    assert_eq!(r.totals().unwrap()[0], Value::Int(400));
}

#[test]
fn time_series_dashboard_across_hosted_cluster() {
    // The full feature stack: bucketed time series + percentiles +
    // distinct counts, fanned out and merged across threads.
    let (cluster, _g) = hosted(2, 2, "ts");
    let spec = WorkloadSpec::new(WorkloadKind::Requests, 77);
    for i in 0..cluster.total_leaves() {
        let rows = WorkloadSpec {
            seed: i as u64,
            ..spec.clone()
        }
        .rows(5000);
        cluster.add_rows(i, "requests", rows, 0).unwrap();
    }
    let q = Query::new("requests", 0, i64::MAX)
        .bucket_secs(2)
        .aggregates(vec![
            AggSpec::Count,
            AggSpec::p99("latency_ms"),
            AggSpec::CountDistinct("endpoint".into()),
        ]);
    let r = cluster.query(&q);
    assert!(r.is_complete());
    assert!(r.groups.len() > 1, "expected multiple time buckets");
    let total: i64 = r
        .groups
        .values()
        .map(|aggs| aggs[0].as_int().unwrap())
        .sum();
    assert_eq!(total, 20_000);
    for aggs in r.groups.values() {
        assert!(aggs[1].as_double().unwrap() > 0.0); // p99 present
        let distinct = aggs[2].as_int().unwrap();
        assert!((1..=8).contains(&distinct));
    }
}
