//! Fixtures shared by the leaf server's unit tests.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use scuba_columnstore::{ColdRef, Row, Table, Value};
use scuba_query::{AggSpec, LeafQueryResult, Query};
use scuba_shmem::ShmNamespace;

use crate::config::{LeafConfig, RestoreMode, TieringMode};
use crate::ingest::{WAL_DIR, WAL_TAG_BATCH};
use crate::server::{LeafPhase, LeafServer, RecoveryOutcome, ShutdownSummary};

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
/// and keeps it, as a planned start does.
pub(crate) fn kept_crash_config(tag: &str) -> (LeafConfig, PathBuf) {
    let (mut cfg, dir) = crash_config(tag);
    cfg.restore_mode = RestoreMode::TwoPhase;
    (cfg, dir)
}

/// A two-phase leaf without the crash path: after a planned shutdown, its
/// next start attaches the image and keeps it.
pub(crate) fn kept_config(tag: &str) -> (LeafConfig, PathBuf) {
    let (mut cfg, dir) = test_config(tag);
    cfg.restore_mode = RestoreMode::TwoPhase;
    (cfg, dir)
}

/// Shut `s` down and start its successor, which must attach the image
/// and keep it: serving, every sealed block mapped.
pub(crate) fn kept_restart(
    s: LeafServer,
    cfg: &LeafConfig,
    now: i64,
) -> (LeafServer, ShutdownSummary) {
    let mut s = s;
    let summary = s.shutdown_to_shm(now).unwrap();
    drop(s);
    let (s, outcome) = LeafServer::start(cfg.clone(), now, None).unwrap();
    assert!(
        matches!(outcome, RecoveryOutcome::MemoryAttached(_)),
        "{outcome:?}"
    );
    assert_eq!(s.phase(), LeafPhase::Alive);
    assert_eq!(s.shm_resident(), 0);
    for table in s.store().map().iter() {
        assert!(
            table.blocks().iter().all(|b| b.is_mapped()),
            "{}",
            table.name()
        );
    }
    (s, summary)
}

/// The segment a shutdown wrote `table` to.
pub(crate) fn table_segment(summary: &ShutdownSummary, table: &str) -> String {
    let at = summary
        .table_states
        .iter()
        .position(|(name, _)| name == table)
        .unwrap();
    summary.backup.segment_names[at].clone()
}

/// Sync every row to disk, commit a checkpoint image of them, and crash:
/// the next start recovers through that image with nothing to replay or
/// reconcile. A first life's image is one table segment per table, in
/// name order from [`ShmNamespace::table_segment_name`] 0.
pub(crate) fn crash_to_checkpoint(server: &mut LeafServer) {
    server.sync_disk().unwrap();
    server.checkpoint_and_wait().unwrap();
    server.crash();
}

/// Batch records (anchors not counted) in the leaf's WAL.
pub(crate) fn wal_batches(cfg: &LeafConfig) -> usize {
    scuba_restart::read_segments(&cfg.disk_root.join(WAL_DIR))
        .unwrap()
        .records()
        .filter(|(_, r)| r.first() == Some(&WAL_TAG_BATCH))
        .count()
}

/// A WAL batch payload written by hand: `n_rows` in the header, then
/// `records` (rowformat records, framed) as they are.
pub(crate) fn batch_payload(table: &str, start_rows: u64, n_rows: u32, records: &[u8]) -> Vec<u8> {
    let mut p = vec![WAL_TAG_BATCH];
    p.extend_from_slice(&(table.len() as u16).to_le_bytes());
    p.extend_from_slice(table.as_bytes());
    p.extend_from_slice(&start_rows.to_le_bytes());
    p.extend_from_slice(&n_rows.to_le_bytes());
    p.extend_from_slice(records);
    p
}

/// `rows` as framed rowformat records.
pub(crate) fn records(rows: &[Row]) -> Vec<u8> {
    let mut out = Vec::new();
    for row in rows {
        scuba_diskstore::rowformat::write_record(row, &mut out);
    }
    out
}

/// A CRC-valid record no `Row` writes: at `time` 5, an unsorted `tags`
/// set with a repeated element, a `time` cell of `time`, and `seq` set
/// twice (first a string, then `seq`). It reads as
/// `Row::at(time).with("tags", {"alpha","zeta"}).with("seq", seq)`.
pub(crate) fn hand_built_record(time: i64, seq: i64) -> Vec<u8> {
    use scuba_columnstore::ColumnType;
    let mut p = 5i64.to_le_bytes().to_vec();
    p.extend_from_slice(&4u16.to_le_bytes());
    let name = |p: &mut Vec<u8>, n: &str, ty: ColumnType| {
        p.extend_from_slice(&(n.len() as u16).to_le_bytes());
        p.extend_from_slice(n.as_bytes());
        p.push(ty.code());
    };
    name(&mut p, "tags", ColumnType::StrSet);
    p.extend_from_slice(&3u32.to_le_bytes());
    for item in ["zeta", "alpha", "zeta"] {
        p.extend_from_slice(&(item.len() as u32).to_le_bytes());
        p.extend_from_slice(item.as_bytes());
    }
    name(&mut p, "seq", ColumnType::Str);
    p.extend_from_slice(&5u32.to_le_bytes());
    p.extend_from_slice(b"first");
    name(&mut p, "time", ColumnType::Int64);
    p.extend_from_slice(&time.to_le_bytes());
    name(&mut p, "seq", ColumnType::Int64);
    p.extend_from_slice(&seq.to_le_bytes());
    let mut out = (p.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&scuba_shmem::crc32(&p).to_le_bytes());
    out.extend_from_slice(&p);
    out
}

/// Append raw payloads to a crashed leaf's WAL, as its live segment's
/// next records.
pub(crate) fn append_to_wal(cfg: &LeafConfig, payloads: &[Vec<u8>]) {
    let mut wal = scuba_restart::SegmentedWal::open(cfg.disk_root.join(WAL_DIR)).unwrap();
    for p in payloads {
        wal.append(p).unwrap();
    }
    wal.sync().unwrap();
}

/// Tables equal block for block (same boundaries, same encoded bytes)
/// and in their unsealed rows.
pub(crate) fn assert_same_table(got: &scuba_columnstore::Table, want: &scuba_columnstore::Table) {
    let name = want.name();
    assert_eq!(
        got.blocks().len(),
        want.blocks().len(),
        "{name}: block count"
    );
    for (i, (g, w)) in got.blocks().iter().zip(want.blocks()).enumerate() {
        assert_eq!(g.row_count(), w.row_count(), "{name}: block {i} boundary");
        assert_eq!(
            g.decode_rows().unwrap(),
            w.decode_rows().unwrap(),
            "{name}: block {i} cells"
        );
        assert_eq!(**g, **w, "{name}: block {i} bytes");
    }
    let open = |t: &Table| t.open_block().map(|b| (b.schema().clone(), b.rows_from(0)));
    assert_eq!(open(got), open(want), "{name}: unsealed rows");
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

/// A tiered leaf with some cold blocks, one of them stomped mid-image
/// on disk (the mapping is MAP_SHARED, so the running leaf sees the
/// rot) — which lands in the fat `msg` column. Returns the stomped
/// block's cold ref.
pub(crate) fn leaf_with_corrupt_cold_msg(tag: &str) -> (LeafServer, Cleanup, ColdRef) {
    let (cfg, dir) = tiered_config(tag, 8 * 1024);
    let mut s = LeafServer::new(cfg).unwrap();
    let cleanup = Cleanup(s.namespace().clone(), dir);
    fill_wide(&mut s, 2, 1000);
    let other: Vec<Row> = (0..100).map(Row::at).collect();
    s.add_rows("other", &other, 0).unwrap();
    s.sync_disk().unwrap();
    s.poll_tiering().unwrap();
    let cr = s
        .store()
        .map()
        .get("logs")
        .unwrap()
        .blocks()
        .iter()
        .find_map(|b| b.cold_ref().cloned())
        .expect("a cold block");
    {
        use std::io::{Seek, SeekFrom, Write};
        let mut f = std::fs::OpenOptions::new()
            .write(true)
            .open(&cr.path)
            .unwrap();
        f.seek(SeekFrom::Start(cr.offset + cr.len / 2)).unwrap();
        f.write_all(&[0xFF; 16]).unwrap();
        f.sync_all().unwrap();
    }
    assert_eq!(corrupt_column_of(&s, "logs"), "msg");
    (s, cleanup, cr)
}
