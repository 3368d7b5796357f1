//! Cluster rollover two ways: a real mini-cluster, then the paper-scale
//! simulator (Figure 8 + the §1/§4.5/§6 headline numbers).
//!
//! ```sh
//! cargo run --release --example cluster_rollover
//! ```

use scuba::cluster::{
    rollover, simulate_rollover_paths, ClusterConfig, HostedCluster, NullSloFeed, RolloverConfig,
    SloPolicy,
};
use scuba::columnstore::table::RetentionLimits;
use scuba::columnstore::Row;

fn main() {
    real_mini_cluster();
    paper_scale_simulation();
}

/// Part 1: a real rollover — real shared memory, every leaf on its own
/// thread, real queries.
fn real_mini_cluster() {
    println!("=== part 1: real mini-cluster rollover ===");
    let dir = std::env::temp_dir().join(format!("scuba_rollex_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cluster = HostedCluster::new(ClusterConfig {
        machines: 5,
        leaves_per_machine: 2,
        shm_prefix: format!("rollex{}", std::process::id()),
        disk_root: dir.clone(),
        leaf_memory_capacity: 1 << 30,
        retention: RetentionLimits::NONE,
    })
    .expect("boot cluster");

    // Fill every leaf with data.
    for idx in 0..cluster.total_leaves() {
        let rows: Vec<Row> = (0..20_000)
            .map(|i| Row::at(i).with("v", i).with("k", format!("key{}", i % 11)))
            .collect();
        cluster.add_rows(idx, "metrics", rows, 0).unwrap();
    }
    let total = cluster.total_rows();
    println!(
        "cluster holds {total} rows on {} leaves",
        cluster.total_leaves()
    );

    // The paper's rollover: 2% of the fleet at a time (here one leaf per
    // wave), no SLO gating.
    let report = rollover(
        &cluster,
        &RolloverConfig::default(),
        &SloPolicy::fixed(0.02),
        &mut NullSloFeed,
    );
    println!(
        "rollover: {} waves, {}/{} leaves via shared memory, wall time {:?}",
        report.waves,
        report.memory_recoveries(),
        report.restarted,
        report.duration
    );
    println!("dashboard (Figure 8, real run):");
    println!("{}", report.dashboard.render(12));
    assert_eq!(cluster.total_rows(), total);
    println!("all {total} rows intact ✓\n");

    cluster.unlink_shm();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Part 2: the production scale the paper reports — hundreds of servers,
/// 120 GB per machine — via the calibrated simulator.
fn paper_scale_simulation() {
    println!("=== part 2: paper-scale simulation (100 machines x 8 leaves x 15 GB) ===");
    let (shm, disk) = simulate_rollover_paths();

    println!("\n  path            per-leaf   rollover   incl. deploy   weekly full-availability");
    for r in [&shm, &disk] {
        println!(
            "  {:<14} {:>7.1}s  {:>8.2}h  {:>11.2}h   {:>8.2}%",
            format!("{:?}", r.path),
            r.mean_leaf_secs,
            r.restart_secs / 3600.0,
            r.total_secs / 3600.0,
            r.full_availability_weekly * 100.0
        );
    }
    println!(
        "\n  speedup: {:.0}x faster rollover; min data availability during either rollover: {:.1}%",
        disk.restart_secs / shm.restart_secs,
        shm.min_availability * 100.0
    );
    println!("\n  simulated dashboard (shared-memory path):");
    let mut dashboard = scuba::cluster::Dashboard::new(shm.leaves);
    for s in &shm.timeline {
        dashboard.push(scuba::cluster::DashboardRow {
            elapsed: std::time::Duration::from_secs_f64(s.t_secs),
            old_version: s.old,
            rolling: s.rolling,
            new_version: s.new,
            availability: s.availability,
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
        });
    }
    println!("{}", dashboard.render(10));
    println!("paper: \"2-3 minutes per server\" shm vs \"2.5-3 hours\" disk; cluster \"under an hour\" vs \"10-12 hours\"; availability 99.5% vs 93%.");
}
