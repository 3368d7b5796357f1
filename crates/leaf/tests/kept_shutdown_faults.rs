//! A leaf that kept its planned image and then fails to shut down must
//! leave nothing behind: no image to attach, no segment linked. The
//! failpoints are process-wide, so this lives in its own test binary,
//! away from the library's concurrent shutdowns.

use scuba_columnstore::Row;
use scuba_leaf::{LeafConfig, LeafServer, RecoveryOutcome, RestoreMode};
use scuba_shmem::{ShmNamespace, ShmSegment};

fn rows_at(from: i64, n: i64) -> Vec<Row> {
    (from..from + n)
        .map(|i| Row::at(i).with("code", i % 7))
        .collect()
}

#[test]
fn a_failed_kept_shutdown_leaves_nothing_attachable_or_linked() {
    for (n, (site, plan)) in [
        // Between units: the first table is extended, the second never is.
        ("restart::backup::unit", "error@2"),
        // Every unit written and synced, the valid bit still false.
        ("restart::backup::commit", "error@1"),
    ]
    .into_iter()
    .enumerate()
    {
        let dir = std::env::temp_dir().join(format!("scuba_keptfail_{}_{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = LeafConfig::new(n as u32, format!("keptfail{}", std::process::id()), &dir);
        cfg.restore_mode = RestoreMode::TwoPhase;
        let ns = ShmNamespace::new(&cfg.shm_prefix, cfg.leaf_id).unwrap();

        let mut s = LeafServer::new(cfg.clone()).unwrap();
        s.add_rows("logs", &rows_at(0, 300), 0).unwrap();
        s.add_rows("metrics", &rows_at(0, 100), 0).unwrap();
        s.shutdown_to_shm(0).unwrap();
        drop(s);
        let (mut s, outcome) = LeafServer::start(cfg.clone(), 0, None).unwrap();
        assert!(matches!(outcome, RecoveryOutcome::MemoryAttached(_)));
        assert_eq!(s.store().image_segments().len(), 2, "both tables kept");
        s.add_rows("logs", &rows_at(300, 20), 1).unwrap();

        let guard = scuba_faults::guard(site, plan).unwrap();
        assert!(s.shutdown_to_shm(1).is_err(), "{site}");
        drop(guard);
        // Nothing attachable, even while the failed leaf still maps it...
        assert!(!ShmSegment::exists(&ns.metadata_name()), "{site}");
        drop(s);
        // ... and, once it is gone, nothing linked.
        for i in 0..8 {
            let name = ns.table_segment_name(i);
            assert!(!ShmSegment::exists(&name), "{site}: {name} still linked");
        }
        let (s, outcome) = LeafServer::start(cfg, 1, None).unwrap();
        assert!(!outcome.is_memory(), "{site}: {outcome:?}");
        assert_eq!(s.total_rows(), 420, "{site}");
        drop(s);
        ns.unlink_all(8);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
