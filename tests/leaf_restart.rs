//! Integration: full leaf restart cycles through real `/dev/shm` segments
//! and a real disk backup — §4 end to end in one process.

use scuba::columnstore::{Row, Value};
use scuba::ingest::{WorkloadKind, WorkloadSpec};
use scuba::leaf::{LeafConfig, LeafPhase, LeafServer, RecoveryOutcome};
use scuba::query::{AggSpec, CmpOp, Filter, GroupKey, Query};
use scuba::shmem::ShmNamespace;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

static COUNTER: AtomicU32 = AtomicU32::new(0);

fn config(tag: &str) -> (LeafConfig, Guard) {
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    let prefix = format!("it{}{}", tag, std::process::id());
    let dir = std::env::temp_dir().join(format!("scuba_it_{tag}_{}_{id}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = LeafConfig::new(id, &prefix, &dir);
    let ns = ShmNamespace::new(&prefix, id).unwrap();
    (cfg, Guard { ns, dir })
}

struct Guard {
    ns: ShmNamespace,
    dir: PathBuf,
}

impl Drop for Guard {
    fn drop(&mut self) {
        self.ns.unlink_all(16);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Load all three paper workloads into a leaf.
fn load_workloads(server: &mut LeafServer, rows_each: usize) {
    for (kind, seed) in [
        (WorkloadKind::ErrorLogs, 11),
        (WorkloadKind::Requests, 22),
        (WorkloadKind::AdsMetrics, 33),
    ] {
        let spec = WorkloadSpec::new(kind, seed);
        let rows = spec.rows(rows_each);
        server
            .add_rows(kind.table_name(), &rows, spec.start_time)
            .unwrap();
    }
}

/// A query fingerprint taken before restart must match after restart.
fn fingerprint(server: &LeafServer) -> Vec<(String, u64, Vec<Value>)> {
    let mut out = Vec::new();
    let from = 1_699_999_999;
    let to = 1_800_000_000;
    for kind in [
        WorkloadKind::ErrorLogs,
        WorkloadKind::Requests,
        WorkloadKind::AdsMetrics,
    ] {
        let q = Query::new(kind.table_name(), from, to).aggregates(vec![AggSpec::Count]);
        let r = server.query(&q).unwrap();
        let totals = r
            .groups
            .get(&GroupKey::Null)
            .map(|sts| sts.iter().map(|s| s.finish()).collect())
            .unwrap_or_default();
        out.push((kind.table_name().to_owned(), r.rows_matched, totals));
    }
    // A grouped, filtered query too.
    let q = Query::new("requests", from, to)
        .filter(Filter::new("status", CmpOp::Ge, 400i64))
        .group_by("endpoint")
        .aggregates(vec![AggSpec::Count, AggSpec::Avg("latency_ms".into())]);
    let r = server.query(&q).unwrap();
    for (k, sts) in &r.groups {
        out.push((
            format!("requests/{k}"),
            r.rows_matched,
            sts.iter().map(|s| s.finish()).collect(),
        ));
    }
    out
}

#[test]
fn restart_preserves_query_results_exactly() {
    let (cfg, _g) = config("fp");
    let mut server = LeafServer::new(cfg.clone()).unwrap();
    load_workloads(&mut server, 20_000);
    let before = fingerprint(&server);
    assert!(before.iter().any(|(_, n, _)| *n > 0));

    server.shutdown_to_shm(1_800_000_000).unwrap();
    drop(server);

    let (server, outcome) = LeafServer::start(cfg, 1_800_000_000, None).unwrap();
    assert!(outcome.is_memory());
    assert_eq!(fingerprint(&server), before);
}

#[test]
fn repeated_restart_cycles_are_stable() {
    // Ship a new build every cycle; data must survive arbitrarily many
    // planned restarts, with ingest between them.
    let (cfg, _g) = config("rep");
    let mut server = LeafServer::new(cfg.clone()).unwrap();
    let mut expected = 0u64;
    for cycle in 0..5 {
        let rows: Vec<Row> = (0..500)
            .map(|i| Row::at(cycle * 1000 + i).with("cycle", cycle))
            .collect();
        server.add_rows("t", &rows, cycle * 1000).unwrap();
        expected += 500;

        server.shutdown_to_shm(cycle * 1000 + 999).unwrap();
        drop(server);
        let (s, outcome) = LeafServer::start(cfg.clone(), cycle * 1000 + 999, None).unwrap();
        assert!(outcome.is_memory(), "cycle {cycle}");
        server = s;
        let r = server.query(&Query::new("t", 0, 1_000_000)).unwrap();
        assert_eq!(r.rows_matched, expected, "cycle {cycle}");
    }
}

#[test]
fn memory_restart_is_much_faster_than_disk_restart() {
    // E1 at integration scale: same data, both paths, memory wins.
    let (cfg, _g) = config("speed");
    let mut server = LeafServer::new(cfg.clone()).unwrap();
    load_workloads(&mut server, 50_000);
    server.sync_disk().unwrap();
    let rows = server.total_rows();

    // Path A: clean shutdown + memory recovery.
    server.shutdown_to_shm(0).unwrap();
    drop(server);
    let (server, outcome) = LeafServer::start(cfg.clone(), 0, None).unwrap();
    let mem_time = outcome.duration();
    assert!(outcome.is_memory());
    assert_eq!(server.total_rows(), rows);

    // Path B: crash + disk recovery of the same data.
    let mut server = server;
    server.crash();
    drop(server);
    let (server, outcome) = LeafServer::start(cfg, 0, None).unwrap();
    let disk_time = outcome.duration();
    assert!(!outcome.is_memory());
    assert_eq!(server.total_rows(), rows);

    assert!(
        disk_time > mem_time,
        "disk {disk_time:?} should exceed memory {mem_time:?}"
    );
}

#[test]
fn version_skew_forces_disk_recovery() {
    // §4.2 relaxed: a (writer, min-reader) pair gates memory recovery
    // instead of one global version. Simulate a *future* writer whose
    // image this binary cannot read by raising the stored
    // min_reader_version (u32 at offset 8 of the v2 metadata region).
    let (cfg, g) = config("ver");
    let mut server = LeafServer::new(cfg.clone()).unwrap();
    load_workloads(&mut server, 2_000);
    server.sync_disk().unwrap();
    let rows = server.total_rows();
    server.shutdown_to_shm(0).unwrap();
    drop(server);

    let mut seg = scuba::shmem::ShmSegment::open(&g.ns.metadata_name()).unwrap();
    seg.as_mut_slice()[8] = 0xEE;
    drop(seg);

    let (server, outcome) = LeafServer::start(cfg, 0, None).unwrap();
    match outcome {
        RecoveryOutcome::Disk { reason, .. } => {
            assert!(
                reason.contains("requires reader version"),
                "unexpected reason: {reason}"
            );
        }
        other => panic!("expected disk fallback, got {other:?}"),
    }
    assert_eq!(server.total_rows(), rows);
}

#[test]
fn phases_gate_requests_through_lifecycle() {
    let (cfg, _g) = config("gate");
    let mut server = LeafServer::new(cfg).unwrap();
    assert_eq!(server.phase(), LeafPhase::Alive);
    assert!(server.phase().accepts_adds());
    load_workloads(&mut server, 100);
    server.shutdown_to_shm(0).unwrap();
    assert_eq!(server.phase(), LeafPhase::Down);
    assert!(!server.phase().accepts_queries());
    server.namespace().unlink_all(8);
}

#[test]
fn shm_segments_cleaned_up_after_restore() {
    // Figure 7's deletes: nothing may linger in /dev/shm after recovery.
    let (cfg, g) = config("clean");
    let mut server = LeafServer::new(cfg.clone()).unwrap();
    load_workloads(&mut server, 1_000);
    server.shutdown_to_shm(0).unwrap();
    assert!(scuba::shmem::ShmSegment::exists(&g.ns.metadata_name()));
    drop(server);

    let (_server, outcome) = LeafServer::start(cfg, 0, None).unwrap();
    assert!(outcome.is_memory());
    assert!(!scuba::shmem::ShmSegment::exists(&g.ns.metadata_name()));
    for i in 0..4 {
        assert!(!scuba::shmem::ShmSegment::exists(
            &g.ns.table_segment_name(i)
        ));
    }
}

#[test]
fn footprint_stays_flat_through_backup() {
    // §4.4: "this method keeps the total memory footprint of the leaf
    // nearly unchanged during both shutdown and restart".
    let (cfg, _g) = config("foot");
    let mut server = LeafServer::new(cfg).unwrap();
    load_workloads(&mut server, 30_000);
    let initial = server.memory_used();
    let summary = server.shutdown_to_shm(0).unwrap();
    let peak = summary.backup.peak_footprint;
    assert!(
        (peak as f64) < initial as f64 * 1.35,
        "peak footprint {peak} vs initial {initial}: not flat"
    );
    server.namespace().unlink_all(8);
}

/// Every (old writer) × (restore mode) combination must memory-restore
/// under the current binary with byte-identical query results — the
/// tentpole acceptance for the self-describing layout.
#[test]
fn old_writer_image_restores_under_current_binary() {
    use scuba::leaf::compat::{rewrite_as_old_writer, OldWriter};
    use scuba::leaf::RestoreMode;
    for (writer, tag) in [(OldWriter::LegacyV1, "owv1"), (OldWriter::AgedV2, "owv2")] {
        for (mode, mtag) in [(RestoreMode::Full, "f"), (RestoreMode::TwoPhase, "t")] {
            let (mut cfg, _g) = config(&format!("{tag}{mtag}"));
            let mut server = LeafServer::new(cfg.clone()).unwrap();
            load_workloads(&mut server, 5_000);
            let before = fingerprint(&server);

            // The "old binary" shuts down, leaving an old-format image.
            server.shutdown_to_shm(1_800_000_000).unwrap();
            rewrite_as_old_writer(server.namespace(), writer).unwrap();
            drop(server);

            // The "new binary" starts: current reader, current config.
            cfg.restore_mode = mode;
            let (server, outcome) = LeafServer::start(cfg, 1_800_000_000, None).unwrap();
            assert!(outcome.is_memory(), "{tag}/{mtag}: {outcome:?}");
            assert!(server.skipped_units().is_empty(), "{tag}/{mtag}");
            assert_eq!(fingerprint(&server), before, "{tag}/{mtag}");
        }
    }
}

#[test]
fn schema_evolves_forward_after_old_image_restore() {
    // Restore a pre-refactor image (no schema snapshot at all), then add
    // rows carrying a column the old writer never knew. Old rows must
    // read as null for it; the new column must filter and aggregate.
    use scuba::leaf::compat::{rewrite_as_old_writer, OldWriter};
    let (cfg, _g) = config("evo");
    let mut server = LeafServer::new(cfg.clone()).unwrap();
    let rows: Vec<Row> = (0..1_000).map(|i| Row::at(i).with("old_col", i)).collect();
    server.add_rows("t", &rows, 0).unwrap();
    server.shutdown_to_shm(1_000).unwrap();
    rewrite_as_old_writer(server.namespace(), OldWriter::LegacyV1).unwrap();
    drop(server);

    let (mut server, outcome) = LeafServer::start(cfg, 1_000, None).unwrap();
    assert!(outcome.is_memory());

    let newer: Vec<Row> = (1_000..1_500)
        .map(|i| Row::at(i).with("old_col", i).with("new_col", i * 2))
        .collect();
    server.add_rows("t", &newer, 1_000).unwrap();

    let all = server.query(&Query::new("t", 0, 1_000_000)).unwrap();
    assert_eq!(all.rows_matched, 1_500);
    let only_new = server
        .query(&Query::new("t", 0, 1_000_000).filter(Filter::new("new_col", CmpOp::Ge, 0i64)))
        .unwrap();
    assert_eq!(only_new.rows_matched, 500);
}

#[test]
fn incompatible_table_falls_back_to_disk_per_table() {
    // One table in the image carries a *required* chunk only a future
    // writer understands; the other restores fine. The leaf must keep the
    // good table from memory and disk-recover exactly the bad one —
    // per-table fallback, where the paper's §4.2 would have dropped the
    // whole leaf to disk.
    use scuba::columnstore::Table;
    use scuba::leaf::compat::{self, AgedImageOptions};

    let (cfg, g) = config("ptfb");
    let mut server = LeafServer::new(cfg.clone()).unwrap();
    let mk_rows =
        |base: i64| -> Vec<Row> { (0..300).map(|i| Row::at(base + i).with("v", i)).collect() };
    server.add_rows("poisoned", &mk_rows(0), 0).unwrap();
    server.add_rows("healthy", &mk_rows(0), 0).unwrap();
    server.sync_disk().unwrap();
    server.crash();
    drop(server);

    // Hand-build the same two tables and install an aged image where only
    // `poisoned` carries the required stranger chunk.
    let tables: Vec<Table> = ["healthy", "poisoned"]
        .iter()
        .map(|name| {
            let mut t = Table::new(*name, 0);
            for r in mk_rows(0) {
                t.append(&r, 0).unwrap();
            }
            t.seal(0).unwrap();
            t
        })
        .collect();
    compat::install_aged_v2_image_mixed(&g.ns, &tables, |name| AgedImageOptions {
        skippable_stranger: false,
        required_stranger: name == "poisoned",
    })
    .unwrap();

    let (server, outcome) = LeafServer::start(cfg, 0, None).unwrap();
    match &outcome {
        RecoveryOutcome::Memory(r) => assert_eq!(r.skipped, vec!["poisoned".to_owned()]),
        other => panic!("expected memory recovery with a skipped unit, got {other:?}"),
    }
    assert_eq!(server.skipped_units(), ["poisoned".to_owned()]);
    for table in ["healthy", "poisoned"] {
        let r = server.query(&Query::new(table, 0, 1_000_000)).unwrap();
        assert_eq!(r.rows_matched, 300, "{table}");
    }
}
