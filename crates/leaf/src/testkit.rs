//! Fixtures shared by the leaf server's unit tests.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use scuba_columnstore::{Row, Value};
use scuba_query::{AggSpec, LeafQueryResult, Query};
use scuba_shmem::ShmNamespace;

use crate::config::{LeafConfig, RestoreMode, TieringMode};
use crate::ingest::{WAL_DIR, WAL_TAG_BATCH};
use crate::server::LeafServer;

static COUNTER: AtomicU32 = AtomicU32::new(0);

pub(crate) fn test_config(tag: &str) -> (LeafConfig, PathBuf) {
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("scuba_leaf_{tag}_{}_{id}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = LeafConfig::new(id, format!("leafsrv{}", std::process::id()), &dir);
    (cfg, dir)
}

pub(crate) struct Cleanup(pub(crate) ShmNamespace, pub(crate) PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        self.0.unlink_all(16);
        let _ = std::fs::remove_dir_all(&self.1);
    }
}

pub(crate) fn fill(server: &mut LeafServer, rows: i64) {
    let batch: Vec<Row> = (0..rows)
        .map(|i| {
            Row::at(i)
                .with("sev", if i % 10 == 0 { "error" } else { "info" })
                .with("code", i % 7)
        })
        .collect();
    server.add_rows("logs", &batch, 0).unwrap();
}

/// Order-insensitive, backing-insensitive digest of a query result.
pub(crate) fn result_fingerprint(r: &LeafQueryResult) -> (u64, Vec<(String, Vec<Value>)>) {
    let mut groups: Vec<(String, Vec<Value>)> = r
        .groups
        .iter()
        .map(|(k, aggs)| (format!("{k:?}"), aggs.iter().map(|a| a.finish()).collect()))
        .collect();
    groups.sort_by(|a, b| a.0.cmp(&b.0));
    (r.rows_matched, groups)
}

/// Name of the one column of `table` whose bytes fail their footer
/// CRC, found through heap copies so no latch is touched.
pub(crate) fn corrupt_column_of(server: &LeafServer, table: &str) -> String {
    let mut bad = Vec::new();
    for b in server.store().map().get(table).unwrap().blocks() {
        for (name, _) in b.schema().iter() {
            let bytes = b.column(name).unwrap().as_bytes().to_vec();
            if scuba_columnstore::RowBlockColumn::from_bytes(bytes.into()).is_err() {
                bad.push(name.to_owned());
            }
        }
    }
    assert_eq!(bad.len(), 1, "expected one corrupt column, found {bad:?}");
    bad.pop().unwrap()
}

pub(crate) fn crash_config(tag: &str) -> (LeafConfig, PathBuf) {
    let (mut cfg, dir) = test_config(tag);
    cfg.checkpoint_enabled = true;
    (cfg, dir)
}

/// A two-phase leaf with the crash path on: after
/// [`crash_to_checkpoint`], its next start attaches the checkpoint image
/// and hydrates it — the one attach that still hydrates.
pub(crate) fn hydrating_config(tag: &str) -> (LeafConfig, PathBuf) {
    let (mut cfg, dir) = crash_config(tag);
    cfg.restore_mode = RestoreMode::TwoPhase;
    (cfg, dir)
}

/// Sync every row to disk, commit a checkpoint image of them, and crash:
/// the next start recovers through that image with nothing to replay or
/// reconcile. The first life's image is checkpoint parity 0, one segment
/// per table in name order ([`ShmNamespace::checkpoint_segment_name`]).
pub(crate) fn crash_to_checkpoint(server: &mut LeafServer) {
    server.sync_disk().unwrap();
    server.checkpoint_and_wait().unwrap();
    server.crash();
}

/// Batch records (sync anchors not counted) in the leaf's WAL.
pub(crate) fn wal_batches(cfg: &LeafConfig) -> usize {
    scuba_restart::read_segments(&cfg.disk_root.join(WAL_DIR))
        .unwrap()
        .records()
        .filter(|r| r.first() == Some(&WAL_TAG_BATCH))
        .count()
}

/// Chop `bytes` off the end of a file: a torn write.
pub(crate) fn tear(path: &std::path::Path, bytes: u64) {
    let len = std::fs::metadata(path).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    f.set_len(len - bytes).unwrap();
}

/// Rows `first..first + n` of a table whose `seq` column counts rows.
pub(crate) fn seq_rows(first: i64, n: i64) -> Vec<Row> {
    (first..first + n)
        .map(|i| Row::at(i).with("seq", i))
        .collect()
}

/// Row count and Σ`seq` of a table: a table holding exactly rows
/// `0..n` answers `(n, n(n-1)/2)`.
pub(crate) fn count_and_seq_sum(s: &LeafServer, table: &str) -> (u64, f64) {
    let q =
        Query::new(table, 0, i64::MAX).aggregates(vec![AggSpec::Count, AggSpec::Sum("seq".into())]);
    let r = s.query(&q).unwrap();
    let sum = r
        .groups
        .values()
        .next()
        .map_or(Value::Double(0.0), |a| a[1].finish());
    match sum {
        Value::Double(sum) => (r.rows_matched, sum),
        other => panic!("sum is {other:?}"),
    }
}

pub(crate) fn exact_prefix(n: u64) -> (u64, f64) {
    (n, (n * n.saturating_sub(1) / 2) as f64)
}

pub(crate) fn tiered_config(tag: &str, budget: usize) -> (LeafConfig, PathBuf) {
    let (mut cfg, dir) = test_config(tag);
    cfg.tiering = TieringMode::Sieve;
    cfg.memory_budget_bytes = budget;
    (cfg, dir)
}

/// Ingest `batches * rows_per` rows of high-entropy data (unique
/// strings defeat the dictionary encoder, so blocks actually weigh
/// something). Each over-budget batch makes the ingest-path tiering
/// pass seal and demote, leaving one cold block per batch.
pub(crate) fn fill_wide(server: &mut LeafServer, batches: usize, rows_per: i64) {
    for b in 0..batches as i64 {
        let base = b * rows_per;
        let batch: Vec<Row> = (base..base + rows_per)
            .map(|i| {
                Row::at(i)
                    .with("sev", if i % 10 == 0 { "error" } else { "info" })
                    .with(
                        "msg",
                        format!("payload-{i:08}-{:07}", i * 2654435761 % 9999991),
                    )
            })
            .collect();
        server.add_rows("logs", &batch, 0).unwrap();
    }
}
