//! Integration: the whole Figure 1 pipeline — products log to Scribe,
//! tailers batch into leaves with two-random-choice placement, the
//! aggregator answers dashboard queries — carried across a software
//! upgrade, plus the §6 fast-disk-format path.

use rand::rngs::StdRng;
use rand::SeedableRng;
use scuba::cluster::{
    rollover, ClusterConfig, HostedCluster, NullSloFeed, RolloverConfig, SloPolicy,
};
use scuba::columnstore::table::RetentionLimits;
use scuba::diskstore::FastBackup;
use scuba::ingest::{Scribe, Tailer, TailerConfig, WorkloadKind, WorkloadSpec};
use scuba::query::{AggSpec, CmpOp, Filter, Query};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

static COUNTER: AtomicU32 = AtomicU32::new(0);

struct Guard {
    dir: PathBuf,
}
impl Drop for Guard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn cluster(machines: usize, leaves: usize) -> (HostedCluster, Guard) {
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let prefix = format!("e2e{}x{n}", std::process::id());
    let dir = std::env::temp_dir().join(format!("scuba_e2e_{prefix}"));
    let _ = std::fs::remove_dir_all(&dir);
    let c = HostedCluster::new(ClusterConfig {
        machines,
        leaves_per_machine: leaves,
        shm_prefix: prefix,
        disk_root: dir.clone(),
        leaf_memory_capacity: 1 << 30,
        retention: RetentionLimits::NONE,
    })
    .unwrap();
    (c, Guard { dir })
}

#[test]
fn products_to_dashboard_across_an_upgrade() {
    let (cluster, _g) = cluster(3, 2);
    let scribe = Scribe::new();
    let mut rng = StdRng::seed_from_u64(2024);

    // Three products log their events.
    let specs = [
        WorkloadSpec::new(WorkloadKind::ErrorLogs, 1),
        WorkloadSpec::new(WorkloadKind::Requests, 2),
        WorkloadSpec::new(WorkloadKind::AdsMetrics, 3),
    ];
    for spec in &specs {
        scribe.log_batch(spec.kind.table_name(), spec.rows(3000));
    }

    // One tailer per table drains Scribe into the cluster.
    let mut tailers: Vec<Tailer> = specs
        .iter()
        .map(|s| {
            Tailer::new(
                &scribe,
                s.kind.table_name(),
                TailerConfig {
                    batch_rows: 250,
                    batch_secs: 0,
                    max_pair_tries: 4,
                },
            )
        })
        .collect();
    let mut clients = cluster.leaf_clients();
    for t in &mut tailers {
        t.tick(&scribe, &mut clients, &mut rng, 0);
    }
    assert_eq!(cluster.total_rows(), 9000);

    // The "detecting user-facing errors" dashboard query (§1).
    let from = 1_699_999_999;
    let to = i64::MAX;
    let error_panel = Query::new("error_logs", from, to)
        .filter(Filter::new("severity", CmpOp::Eq, "fatal"))
        .group_by("product")
        .aggregates(vec![AggSpec::Count, AggSpec::Sum("count".into())]);
    let before = cluster.query(&error_panel);
    assert!(before.is_complete());
    assert!(before.rows_matched > 0);

    // Weekly software upgrade.
    let report = rollover(
        &cluster,
        &RolloverConfig::default(),
        &SloPolicy::fixed(0.02),
        &mut NullSloFeed,
    );
    assert_eq!(report.memory_recoveries(), 6);

    // Same dashboard, same numbers.
    let after = cluster.query(&error_panel);
    assert!(after.is_complete());
    assert_eq!(after.groups, before.groups);
    assert_eq!(after.rows_matched, before.rows_matched);

    // Latency percentile-ish panel on another table still answers too.
    let latency_panel = Query::new("requests", from, to)
        .group_by("endpoint")
        .aggregates(vec![
            AggSpec::Avg("latency_ms".into()),
            AggSpec::Max("latency_ms".into()),
        ]);
    let r = cluster.query(&latency_panel);
    assert!(!r.groups.is_empty());

    cluster.unlink_shm();
}

#[test]
fn two_choice_placement_balances_the_cluster() {
    // E12 at integration scale: leaf fill imbalance stays small.
    let (cluster, _g) = cluster(4, 2);
    let scribe = Scribe::new();
    let mut rng = StdRng::seed_from_u64(5);
    scribe.log_batch(
        "requests",
        WorkloadSpec::new(WorkloadKind::Requests, 9).rows(16_000),
    );
    let mut tailer = Tailer::new(
        &scribe,
        "requests",
        TailerConfig {
            batch_rows: 100,
            batch_secs: 0,
            max_pair_tries: 4,
        },
    );
    tailer.tick(&scribe, &mut cluster.leaf_clients(), &mut rng, 0);
    let mut counts = Vec::new();
    cluster.for_each_host(|_, h| counts.push(h.status().total_rows()));
    let max = *counts.iter().max().unwrap();
    let min = *counts.iter().min().unwrap();
    assert_eq!(counts.iter().sum::<usize>(), 16_000);
    assert!(
        (max - min) as f64 <= 16_000.0 / 8.0,
        "two-choice imbalance too high: {counts:?}"
    );
    cluster.unlink_shm();
}

#[test]
fn fast_disk_format_round_trips_a_leaf() {
    // §6 future work: write the shm-image format to disk, recover a leaf
    // from it, and verify query equivalence with the original.
    let tag = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("scuba_e2e_fast_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _g = Guard { dir: dir.clone() };

    let mut table = scuba::columnstore::Table::new("requests", 0);
    for row in WorkloadSpec::new(WorkloadKind::Requests, 77).rows(10_000) {
        table.append(&row, 0).unwrap();
    }
    table.seal(0).unwrap();
    let q = Query::new("requests", 0, i64::MAX)
        .group_by("status")
        .aggregates(vec![AggSpec::Count]);
    let before = scuba::query::execute(&table, &q).unwrap();

    let backup = FastBackup::open(&dir).unwrap();
    backup.write_table(&table).unwrap();
    let (map, stats) = backup.recover(0, None).unwrap();
    assert_eq!(stats.rows, 10_000);
    let after = scuba::query::execute(map.get("requests").unwrap(), &q).unwrap();
    assert_eq!(after.groups, before.groups);
}

#[test]
fn retention_continues_after_restart() {
    // Figure 5(c): "Scuba stops deleting expired table data once shutdown
    // starts. Any needed deletions are made after recovery."
    let tag = COUNTER.fetch_add(1, Ordering::Relaxed);
    let prefix = format!("e2eret{}x{tag}", std::process::id());
    let dir = std::env::temp_dir().join(format!("scuba_e2e_ret_{prefix}"));
    let _ = std::fs::remove_dir_all(&dir);
    let _g = Guard { dir: dir.clone() };

    let mut cfg = scuba::leaf::LeafConfig::new(0, &prefix, &dir);
    cfg.retention = RetentionLimits {
        max_age_secs: Some(100),
        max_bytes: None,
    };
    let mut server = scuba::leaf::LeafServer::new(cfg.clone()).unwrap();
    // Two sealed blocks: old (times 0..50) and fresh (times 500..550).
    for (base, _) in [(0i64, ()), (500, ())] {
        let rows: Vec<scuba::columnstore::Row> = (0..50)
            .map(|i| scuba::columnstore::Row::at(base + i))
            .collect();
        server.add_rows("t", &rows, base).unwrap();
        // force seal so expiry can drop whole blocks
        server.shutdown_to_shm(base + 50).unwrap();
        let (s, o) = scuba::leaf::LeafServer::start(cfg.clone(), base + 50, None).unwrap();
        assert!(o.is_memory());
        server = s;
    }
    assert_eq!(server.total_rows(), 100);
    // After recovery, expiry runs: now=560, cutoff=460 -> old block goes.
    let dropped = server.expire(560).unwrap();
    assert_eq!(dropped, 1);
    assert_eq!(server.total_rows(), 50);
    server.namespace().unlink_all(8);
}
