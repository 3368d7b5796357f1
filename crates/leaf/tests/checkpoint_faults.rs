//! A checkpoint cycle writes through the backup envelope, so the
//! envelope's failpoints wound it as they wound a planned shutdown. A
//! wounded cycle on a leaf serving a kept crash image must leave the leaf
//! serving, every kept segment linked, nothing attachable — and the next
//! cycle must commit again. The failpoints are process-wide, so this lives
//! in its own test binary, one test looping over the sites.

use scuba_columnstore::Row;
use scuba_leaf::{LeafConfig, LeafServer, RecoveryOutcome, RestoreMode};
use scuba_query::Query;
use scuba_shmem::{ShmNamespace, ShmSegment};

fn rows_at(from: i64, n: i64) -> Vec<Row> {
    (from..from + n)
        .map(|i| Row::at(i).with("code", i % 7))
        .collect()
}

fn rows_of(s: &LeafServer, table: &str) -> u64 {
    s.query(&Query::new(table, 0, i64::MAX))
        .unwrap()
        .rows_matched
}

#[test]
fn a_wounded_checkpoint_keeps_serving_and_keeps_its_segments() {
    for (n, (site, plan)) in [
        // Between units: the first table is extended, the second never is.
        ("restart::backup::unit", "error@2"),
        // The first frame, behind the kept image's frontier.
        ("restart::backup::chunk", "error@1"),
        // A torn first frame: full header, four payload bytes.
        ("restart::backup::chunk", "short=4@1"),
        // Every unit written and synced, the valid bit still unset.
        ("restart::backup::commit", "error@1"),
    ]
    .into_iter()
    .enumerate()
    {
        let dir = std::env::temp_dir().join(format!("scuba_ckfault_{}_{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = LeafConfig::new(n as u32, format!("ckfault{}", std::process::id()), &dir);
        cfg.checkpoint_enabled = true;
        cfg.restore_mode = RestoreMode::TwoPhase;
        let ns = ShmNamespace::new(&cfg.shm_prefix, cfg.leaf_id).unwrap();

        // A crash start that kept the image its predecessor committed.
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        s.add_rows("logs", &rows_at(0, 300), 0).unwrap();
        s.add_rows("metrics", &rows_at(0, 100), 0).unwrap();
        s.sync_disk().unwrap();
        s.checkpoint_and_wait().unwrap();
        s.crash();
        drop(s);
        let (mut s, outcome) = LeafServer::start(cfg.clone(), 0, None).unwrap();
        assert!(matches!(outcome, RecoveryOutcome::MemoryAttached(_)));
        assert!(s.recovered_from_checkpoint());
        let kept = s.store().image_segments();
        assert_eq!(kept.len(), 2, "both tables kept");

        // Synced rows, then a tail only the WAL holds.
        s.add_rows("logs", &rows_at(300, 20), 1).unwrap();
        s.sync_disk().unwrap();
        s.add_rows("logs", &rows_at(320, 5), 1).unwrap();

        let guard = scuba_faults::guard(site, plan).unwrap();
        let err = s.checkpoint_and_wait().unwrap_err();
        drop(guard);
        assert!(err.to_string().contains(site), "{site}: {err}");
        // Still serving from the attached blocks, every kept segment
        // linked, nothing attachable.
        assert_eq!(rows_of(&s, "logs"), 325, "{site}");
        assert_eq!(rows_of(&s, "metrics"), 100, "{site}");
        assert!(s.store().map().get("metrics").unwrap().blocks()[0].is_mapped());
        for name in &kept {
            assert!(ShmSegment::exists(name), "{site}: {name} unlinked");
        }
        assert!(!ShmSegment::exists(&ns.metadata_name()), "{site}");

        // A crash now recovers from disk: exactly the synced prefix.
        s.crash();
        drop(s);
        let (mut s, outcome) = LeafServer::start(cfg.clone(), 1, None).unwrap();
        assert!(!outcome.is_memory(), "{site}: {outcome:?}");
        assert_eq!(rows_of(&s, "logs"), 320, "{site}");
        assert_eq!(rows_of(&s, "metrics"), 100, "{site}");

        // Disarmed, the next cycle commits and a crash takes the fast
        // path again.
        s.checkpoint_and_wait().unwrap();
        s.crash();
        drop(s);
        let (s, outcome) = LeafServer::start(cfg, 2, None).unwrap();
        assert!(outcome.is_memory(), "{site}: {outcome:?}");
        assert!(s.recovered_from_checkpoint(), "{site}");
        assert_eq!(s.total_rows(), 420, "{site}");
        drop(s);
        ns.unlink_all(8);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
