//! E20 — Serving under load: a full fleet rollover under sustained
//! closed+open-loop traffic, paced by the live SLO feed (§4.5).
//!
//! The paper's rollover only matters because Scuba keeps serving millions
//! of users while 2% of machines are down. This experiment closes that
//! loop in-process: a seeded load generator (closed-loop hammer plus an
//! open-loop arrival process) drives every leaf's bounded admission queue
//! while [`rollover`] restarts the whole fleet, pacing waves off the
//! live `leaf_query_latency_ns` p99 and availability.
//!
//! Asserted invariants (the acceptance criteria, not just prints):
//!
//! * the rollover completes — every leaf restarts;
//! * **no unshed request is lost** — every request leg is answered, shed,
//!   or refused by a known-down leaf, and every acknowledged row is still
//!   queryable afterwards;
//! * p99 query latency stays bounded against the SLO histogram;
//! * availability never drops below the one-leaf-per-machine-per-wave
//!   floor.
//!
//! ```sh
//! cargo run --release -p scuba-bench --bin exp_serve            # full
//! cargo run --release -p scuba-bench --bin exp_serve -- --smoke # CI
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use scuba::cluster::{
    rollover, AdmissionConfig, ClusterConfig, HostedCluster, LiveSloFeed, LoadMode, LoadReport,
    LoadgenConfig, PaceEvent, RolloverConfig, ShedPolicy, SloPolicy,
};
use scuba::columnstore::table::RetentionLimits;
use scuba::columnstore::Row;
use scuba_bench::{header, row, table_header, BenchJson};

struct Rig {
    cluster: HostedCluster,
    dir: std::path::PathBuf,
}

impl Rig {
    fn new(machines: usize, leaves_per_machine: usize) -> Rig {
        let prefix = format!("serve{}", std::process::id());
        let dir = std::env::temp_dir().join(format!("scuba_{prefix}"));
        let _ = std::fs::remove_dir_all(&dir);
        let cluster = HostedCluster::with_admission(
            ClusterConfig {
                machines,
                leaves_per_machine,
                shm_prefix: prefix,
                disk_root: dir.clone(),
                leaf_memory_capacity: 1 << 30,
                retention: RetentionLimits::NONE,
            },
            AdmissionConfig {
                depth: 64,
                policy: ShedPolicy::RejectNewest,
            },
        )
        .expect("boot hosted cluster");
        Rig { cluster, dir }
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.cluster.unlink_shm();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    scuba::obs::set_enabled(true);
    let mut json = BenchJson::new(&["e20_"]);

    header(
        "E20",
        "sustained serving through a full fleet rollover: bounded p99, zero lost requests",
    );

    let (machines, lpm, workers, prefill) = if smoke {
        (2, 2, 2, 500i64)
    } else {
        (3, 2, 4, 2000i64)
    };
    let rig = Rig::new(machines, lpm);
    let cluster = &rig.cluster;
    let total = cluster.total_leaves();
    for leaf in 0..total {
        cluster
            .add_rows(
                leaf,
                "t",
                (0..prefill).map(|i| Row::at(i).with("v", i)).collect(),
                0,
            )
            .expect("prefill");
    }
    let prefill_total = (prefill as u64) * total as u64;

    // SLO policy the pacing runs against — also the bound we assert.
    let policy = SloPolicy {
        max_p99_query_ns: 500_000_000, // 500 ms
        min_availability: (total - machines) as f64 / total as f64 - 1e-9,
        base_fraction: 1.0 / total as f64, // one leaf per wave to start
        max_fraction: 2.0 / total as f64,  // at most two per wave
        accelerate_after: 2,
        max_consecutive_pauses: 200,
        pause_backoff: Duration::from_millis(1),
    };

    // Drive load from two generators at once: a closed-loop hammer (a
    // fixed user population) and an open-loop arrival process (requests
    // that do not slow down because the cluster did).
    let stop = AtomicBool::new(false);
    let slack = Duration::from_secs(600); // stop flag ends the run, not this
    let (report, closed, open) = std::thread::scope(|scope| {
        let closed_t = scope.spawn(|| {
            scuba::cluster::loadgen::run(
                cluster,
                &LoadgenConfig {
                    seed: 7,
                    workers,
                    mode: LoadMode::Closed,
                    duration: slack,
                    ingest_fraction: 0.5,
                    rows_per_batch: 20,
                    table: "t".into(),
                },
                &stop,
            )
        });
        let open_t = scope.spawn(|| {
            scuba::cluster::loadgen::run(
                cluster,
                &LoadgenConfig {
                    seed: 11,
                    workers: 2,
                    mode: LoadMode::Open { qps: 200.0 },
                    duration: slack,
                    ingest_fraction: 0.3,
                    rows_per_batch: 20,
                    table: "t".into(),
                },
                &stop,
            )
        });

        // Let traffic establish a latency baseline, then roll the fleet.
        std::thread::sleep(Duration::from_millis(if smoke { 50 } else { 200 }));
        let mut feed = LiveSloFeed::new();
        let report = rollover(cluster, &RolloverConfig::default(), &policy, &mut feed);

        // A short tail of traffic against the fully-new fleet.
        std::thread::sleep(Duration::from_millis(if smoke { 50 } else { 200 }));
        stop.store(true, Ordering::Relaxed);
        (report, closed_t.join().unwrap(), open_t.join().unwrap())
    });

    let mut load = LoadReport::default();
    let merged = |a: &LoadReport, b: &LoadReport, f: fn(&LoadReport) -> u64| f(a) + f(b);
    load.issued = merged(&closed, &open, |r| r.issued);
    load.ok = merged(&closed, &open, |r| r.ok);
    load.shed = merged(&closed, &open, |r| r.shed);
    load.unavailable = merged(&closed, &open, |r| r.unavailable);
    load.rows_ingested = merged(&closed, &open, |r| r.rows_ingested);
    load.query_fanouts = merged(&closed, &open, |r| r.query_fanouts);
    load.ingest_batches = merged(&closed, &open, |r| r.ingest_batches);

    // --- Acceptance assertions -------------------------------------------
    assert_eq!(
        report.restarted, total,
        "rollover must complete: {report:?}"
    );
    assert_eq!(
        load.lost(),
        0,
        "every request leg must be answered, shed, or known-down: {load:?}"
    );
    let p99 = scuba::obs::histogram_quantile("leaf_query_latency_ns", 0.99)
        .expect("queries must have hit the SLO histogram");
    assert!(
        p99 as u64 <= policy.max_p99_query_ns,
        "p99 {p99} ns breaches the {} ns SLO",
        policy.max_p99_query_ns
    );
    let floor = (total - machines) as f64 / total as f64;
    assert!(
        report.min_availability >= floor - 1e-9,
        "availability {:.3} below one-leaf-per-machine floor {:.3}",
        report.min_availability,
        floor
    );
    // Every acknowledged row survived the rollover.
    assert_eq!(
        cluster.total_rows() as u64,
        prefill_total + load.rows_ingested,
        "acknowledged rows must survive the rollover"
    );

    let waves = report.waves as f64;
    let shed_rate = load.shed as f64 / load.issued.max(1) as f64;
    table_header();
    row(
        "leaves restarted under load",
        "100%",
        &format!("{total}/{total}"),
    );
    row(
        "request legs issued / lost",
        "lost: 0",
        &format!("{} / {}", load.issued, load.lost()),
    );
    row(
        "answered / shed / known-down",
        "all accounted",
        &format!("{} / {} / {}", load.ok, load.shed, load.unavailable),
    );
    row(
        "p99 query latency (SLO histogram)",
        "< 500 ms",
        &format!("{:.2} ms", p99 as f64 / 1e6),
    );
    row(
        "min availability during waves",
        &format!(">= {floor:.2}"),
        &format!("{:.3}", report.min_availability),
    );
    row(
        "pacing: waves / pauses / accelerations",
        "-",
        &format!(
            "{} / {} / {}",
            report.waves, report.pauses, report.accelerations
        ),
    );
    let wave_sizes: Vec<usize> = report
        .events
        .iter()
        .filter_map(|e| match e {
            PaceEvent::Wave { leaves, .. } => Some(*leaves),
            _ => None,
        })
        .collect();
    println!("\n  wave sizes (SLO-paced): {wave_sizes:?}");

    json.push(
        "e20_serve",
        &[
            ("leaves", total as f64),
            ("issued", load.issued as f64),
            ("lost", load.lost() as f64),
            ("shed_rate", shed_rate),
            ("p99_query_ms", p99 as f64 / 1e6),
            ("min_availability", report.min_availability),
            ("waves", waves),
            ("pauses", report.pauses as f64),
            ("accelerations", report.accelerations as f64),
            ("rollover_secs", report.duration.as_secs_f64()),
            (
                "closed_query_p99_ms",
                closed.query_latency.p99_ns as f64 / 1e6,
            ),
            ("open_query_p99_ms", open.query_latency.p99_ns as f64 / 1e6),
        ],
    );
    json.write();

    // For the CI serving leg: dump both expositions so `obs_lint
    // --require-serving` can check the admission-control series offline.
    if let Ok(dir) = std::env::var("SCUBA_OBS_DIR") {
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("create SCUBA_OBS_DIR");
        std::fs::write(dir.join("metrics.prom"), scuba::obs::prometheus_text())
            .expect("write metrics.prom");
        std::fs::write(dir.join("metrics.json"), scuba::obs::json_snapshot())
            .expect("write metrics.json");
        println!("  obs dumps written to {}", dir.display());
    }
    println!("\n  all serving invariants held ✓");
}
