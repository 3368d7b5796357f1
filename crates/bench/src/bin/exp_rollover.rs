//! E4 — System-wide rollover and the Figure 8 dashboard (§1, §4.5, §6).
//!
//! Paper: restarting 2% at a time, the full-cluster rollover takes 10-12
//! hours from disk vs under an hour with shared memory (≈40 min of which
//! is deployment tooling).
//!
//! ```sh
//! cargo run --release -p scuba-bench --bin exp_rollover
//! ```

use scuba::cluster::{
    rollover, simulate_rollover, ClusterConfig, Dashboard, DashboardRow, HostedCluster,
    NullSloFeed, RecoveryPath, RolloverConfig, SimConfig, SloPolicy,
};
use scuba::columnstore::table::RetentionLimits;
use scuba_bench::{fmt_dur, header, request_rows, row, table_header};

fn main() {
    header(
        "E4",
        "cluster rollover: 2% at a time, dashboard, total duration",
    );

    // -- Real mini-cluster: every mechanism actually executes. --
    println!("\n-- real mini-cluster (4 machines x 2 leaves, real shm + disk) --\n");
    let dir = std::env::temp_dir().join(format!("scuba_e4_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cluster = HostedCluster::new(ClusterConfig {
        machines: 4,
        leaves_per_machine: 2,
        shm_prefix: format!("e4x{}", std::process::id()),
        disk_root: dir.clone(),
        leaf_memory_capacity: 1 << 30,
        retention: RetentionLimits::NONE,
    })
    .expect("cluster");
    let lpm = cluster.config().leaves_per_machine;
    for idx in 0..cluster.total_leaves() {
        // Both leaves of a machine hold that machine's rows.
        let rows = request_rows(30_000, (idx / lpm) as u64);
        cluster.add_rows(idx, "requests", rows, 0).unwrap();
    }
    let report = rollover(
        &cluster,
        &RolloverConfig::default(),
        &SloPolicy::fixed(0.02),
        &mut NullSloFeed,
    );
    println!(
        "  {} leaves, {} waves, {} memory recoveries, wall time {:?}, min availability {:.1}%",
        report.restarted,
        report.waves,
        report.memory_recoveries(),
        report.duration,
        report.min_availability * 100.0
    );
    println!("{}", report.dashboard.render(10));
    cluster.unlink_shm();
    let _ = std::fs::remove_dir_all(&dir);

    // -- Paper scale. --
    println!("-- paper scale (simulator: 100 machines x 8 leaves x 15 GB, 2% at a time) --\n");
    let cfg = SimConfig::paper_defaults();
    let shm = simulate_rollover(&cfg, RecoveryPath::SharedMemory);
    let disk = simulate_rollover(&cfg, RecoveryPath::Disk);
    table_header();
    row(
        "rollover via shared memory (incl. deploy)",
        "under an hour",
        &fmt_dur(shm.total_secs),
    );
    row("rollover from disk", "10-12 h", &fmt_dur(disk.total_secs));
    row(
        "deployment tooling overhead",
        "~40 min",
        &fmt_dur(cfg.deploy_overhead_secs),
    );
    row(
        "data online during rollover",
        "98%",
        &format!("{:.1}%", shm.min_availability * 100.0),
    );
    row(
        "disk/shm rollover speedup",
        "~12x",
        &format!("{:.0}x", disk.restart_secs / shm.restart_secs),
    );

    println!("\n  simulated Figure 8 dashboard (disk path, down-sampled):");
    let mut dash = Dashboard::new(disk.leaves);
    for s in &disk.timeline {
        dash.push(DashboardRow {
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
    println!("{}", dash.render(8));
}
