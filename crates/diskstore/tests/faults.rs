//! Failpoint-driven tests for the disk backup layer: partial writes, sync
//! failures, torn records, and the cold tier's write and mmap sites.
//! Isolated in their own binary so armed sites cannot wound unrelated unit
//! tests; each test takes `scuba_faults::exclusive()` to serialize with the
//! others.

use std::path::PathBuf;

use scuba_columnstore::{Row, Table};
use scuba_diskstore::{ColdStore, DiskBackup, DiskError};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scuba_dfault_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn rows(range: std::ops::Range<i64>) -> Vec<Row> {
    range.map(|i| Row::at(i).with("v", i)).collect()
}

#[test]
fn short_append_leaves_recoverable_prefix() {
    let _x = scuba_faults::exclusive();
    scuba_faults::clear_all();
    let dir = tmpdir("short");
    let mut b = DiskBackup::open(&dir).unwrap();
    b.append("t", &rows(0..50)).unwrap();
    b.sync().unwrap();

    // The next batch is torn 100 bytes in: the write errors and only a
    // prefix reaches the log.
    {
        let _g = scuba_faults::guard("diskstore::append", "short=100").unwrap();
        let err = b.append("t", &rows(50..100)).unwrap_err();
        assert!(matches!(err, DiskError::Io { .. }), "{err}");
    }
    b.sync().unwrap();

    // Recovery keeps every pre-fault row, detects the torn tail, and drops
    // only wounded records.
    let (map, stats) = b.recover(0, None).unwrap();
    assert_eq!(stats.torn_tails, 1);
    let n = map.get("t").unwrap().row_count();
    assert!((50..100).contains(&n), "recovered {n} rows");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn append_error_keeps_log_intact() {
    let _x = scuba_faults::exclusive();
    scuba_faults::clear_all();
    let dir = tmpdir("err");
    let mut b = DiskBackup::open(&dir).unwrap();
    b.append("t", &rows(0..20)).unwrap();
    {
        let _g = scuba_faults::guard("diskstore::append", "error").unwrap();
        assert!(b.append("t", &rows(20..40)).is_err());
    }
    b.sync().unwrap();
    let (map, stats) = b.recover(0, None).unwrap();
    assert_eq!(stats.torn_tails, 0);
    assert_eq!(map.get("t").unwrap().row_count(), 20);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sync_failure_surfaces_and_retry_succeeds() {
    let _x = scuba_faults::exclusive();
    scuba_faults::clear_all();
    let dir = tmpdir("sync");
    let mut b = DiskBackup::open(&dir).unwrap();
    b.append("t", &rows(0..10)).unwrap();
    {
        let _g = scuba_faults::guard("diskstore::sync", "error").unwrap();
        assert!(b.sync().is_err());
    }
    assert!(b.dirty_bytes() > 0, "failed sync must not claim durability");
    let synced = b.sync().unwrap();
    assert!(synced > 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_record_failpoint_is_detected_by_recovery() {
    let _x = scuba_faults::exclusive();
    scuba_faults::clear_all();
    let dir = tmpdir("torn");
    let mut b = DiskBackup::open(&dir).unwrap();
    b.append("t", &rows(0..30)).unwrap();
    // The 31st record written is torn 4 bytes into its payload.
    {
        let _g = scuba_faults::guard("diskstore::rowformat::record", "short=4@1").unwrap();
        b.append("t", &rows(30..31)).unwrap();
    }
    b.sync().unwrap();
    let (map, stats) = b.recover(0, None).unwrap();
    assert_eq!(stats.torn_tails, 1);
    assert_eq!(map.get("t").unwrap().row_count(), 30);
    std::fs::remove_dir_all(&dir).unwrap();
}

fn sealed_table(name: &str, rows: i64) -> Table {
    let mut t = Table::new(name, 0);
    for i in 0..rows {
        t.append(&Row::at(i).with("v", i).with("s", format!("x{}", i % 9)), 0)
            .unwrap();
    }
    t.seal(0).unwrap();
    t
}

#[test]
fn cold_write_failpoint_leaves_no_bytes() {
    let dir = tmpdir("cold_fp_write");
    let store = ColdStore::open(&dir).unwrap();
    let t = sealed_table("t", 10);
    let _x = scuba_faults::exclusive();
    let err = {
        let _g = scuba_faults::guard("diskstore::fastformat::write", "error").unwrap();
        store.append_block("t", &t.blocks()[0], None)
    };
    assert!(matches!(err, Err(DiskError::Io { .. })));
    assert!(store.tables().unwrap().is_empty(), "no torn cold file");
    let ok = store.append_block("t", &t.blocks()[0], None);
    assert!(ok.is_ok(), "recovers once the fault clears");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cold_mmap_failpoint_is_an_error() {
    let dir = tmpdir("cold_fp_mmap");
    let store = ColdStore::open(&dir).unwrap();
    let t = sealed_table("t", 10);
    let r = store.append_block("t", &t.blocks()[0], None).unwrap();
    let _x = scuba_faults::exclusive();
    let err = {
        let _g = scuba_faults::guard("diskstore::fastformat::mmap", "error").unwrap();
        store.map(&r.path)
    };
    assert!(matches!(err, Err(DiskError::Io { .. })));
    assert!(store.map(&r.path).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}
