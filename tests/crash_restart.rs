//! Real process-death tests for the crash-path fast restart: SIGKILL a
//! forked child mid-ingest — after a continuous checkpoint has published a
//! warm image and the WAL holds a post-checkpoint tail — and prove the
//! replacement process comes back through the image + WAL replay with
//! every WAL'd row, not through disk recovery.
//!
//! This is the protocol the paper rules out (§4.3 "never use shared
//! memory after a crash"); the CRC-framed checkpoint image and the
//! anchored WAL records make it safe. The child *creates* its leaf after
//! the fork (the checkpointer's worker thread would not survive one), and
//! no destructor, flush, or cleanup runs in it — a genuine kill -9.
//!
//! The tests run one at a time (`scuba_faults::exclusive()`): a fork
//! copies only the forking thread, so a process-wide lock that a sibling
//! test's thread held at that instant (the metrics registry) would stay
//! locked in the child forever.

use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use scuba_columnstore::Row;
use scuba_leaf::{LeafConfig, LeafServer};
use scuba_query::Query;
use scuba_restart::wal::{list_segments, segment_path};
use scuba_shmem::{ShmNamespace, ShmSegment};

/// Wait for the child to signal readiness, kill it cold, and reap it.
/// The child is killed and reaped even when it never gets ready, so a
/// stuck child cannot outlive the test (and hold the harness's output
/// open) after the assert fails.
fn kill_when_ready(child: i32, ready: &Path) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !ready.exists() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let became_ready = ready.exists();
    unsafe {
        assert_eq!(libc::kill(child, libc::SIGKILL), 0, "kill failed");
    }
    let mut status = 0;
    let waited = unsafe { libc::waitpid(child, &mut status, 0) };
    assert_eq!(waited, child, "waitpid failed");
    assert!(became_ready, "child never became ready");
    assert!(
        libc::WIFSIGNALED(status),
        "child exited instead of dying by signal (status {status})"
    );
    assert_eq!(libc::WTERMSIG(status), libc::SIGKILL);
}

fn assert_no_orphans(prefix: &str) {
    let ns = ShmNamespace::new(prefix, 0).unwrap();
    assert!(
        !ShmSegment::exists(&ns.metadata_name()),
        "orphan metadata segment"
    );
    for i in 0..8 {
        assert!(
            !ShmSegment::exists(&ns.table_segment_name(i)),
            "orphan table segment {i}"
        );
        for parity in 0..2 {
            assert!(
                !ShmSegment::exists(&ns.checkpoint_segment_name(parity, i)),
                "orphan checkpoint segment k{parity}_{i}"
            );
        }
    }
}

/// The child's life: boot with the crash path on, build a checkpointed
/// base, a synced WAL tail, and an unsynced last batch, then wait to die.
///
/// Rows: `base` in the checkpoint image, `tail` synced after it, `last`
/// appended but never synced — in the WAL via the page cache, lost from
/// the disk backup's userspace buffer.
const BASE: i64 = 2000;
const TAIL: i64 = 500;
const LAST: i64 = 300;

fn child_serve_and_wait(cfg: LeafConfig, ready: &Path) -> ! {
    let run = || -> Result<(), String> {
        let mut server = LeafServer::new(cfg).map_err(|e| e.to_string())?;
        let base: Vec<Row> = (0..BASE).map(|i| Row::at(i).with("v", i)).collect();
        server
            .add_rows("data", &base, 0)
            .map_err(|e| e.to_string())?;
        server.sync_disk().map_err(|e| e.to_string())?;
        server.checkpoint_and_wait().map_err(|e| e.to_string())?;
        let tail: Vec<Row> = (BASE..BASE + TAIL)
            .map(|i| Row::at(i).with("v", i))
            .collect();
        server
            .add_rows("data", &tail, 0)
            .map_err(|e| e.to_string())?;
        server.sync_disk().map_err(|e| e.to_string())?;
        let last: Vec<Row> = (BASE + TAIL..BASE + TAIL + LAST)
            .map(|i| Row::at(i).with("v", i))
            .collect();
        server
            .add_rows("data", &last, 0)
            .map_err(|e| e.to_string())?;
        // No sync: these rows exist only in the WAL (page cache) and the
        // disk backup's in-process buffer, which the kill destroys.
        std::fs::write(ready, b"up").map_err(|e| e.to_string())?;
        std::thread::sleep(Duration::from_secs(30));
        Ok(())
    };
    // Reached only on error or if the kill missed; report as failure
    // without running the test harness's machinery in the forked copy.
    let code = if run().is_err() { 87 } else { 86 };
    unsafe { libc::_exit(code) }
}

#[test]
fn sigkill_mid_ingest_recovers_fast_from_checkpoint_and_wal() {
    let _x = scuba_faults::exclusive();
    let prefix = format!("crashfast{}", std::process::id());
    let dir = std::env::temp_dir().join(format!("scuba_{prefix}"));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = LeafConfig::new(0, prefix.clone(), dir.clone());
    cfg.checkpoint_enabled = true;
    let ready = dir.join("child_ready");
    std::fs::create_dir_all(&dir).unwrap();

    // Fork FIRST: the child must create the leaf itself so its
    // checkpointer thread exists in the process that dies.
    let child = unsafe { libc::fork() };
    assert!(child >= 0, "fork failed");
    if child == 0 {
        child_serve_and_wait(cfg.clone(), &ready);
    }
    kill_when_ready(child, &ready);

    // The replacement process: warm image + WAL tail replay, no disk scan.
    let (recovered, outcome) = LeafServer::start(cfg, 0, None).unwrap();
    assert!(
        outcome.is_memory(),
        "expected fast crash recovery, got {outcome:?}"
    );
    assert!(
        recovered.recovered_from_checkpoint(),
        "recovery must be attributed to the warm checkpoint image"
    );
    assert!(
        recovered.wal_replayed_records() > 0,
        "the WAL tail must actually have been replayed"
    );
    // Every WAL'd row is back: the checkpointed base, the synced tail,
    // and the never-synced last batch (direct WAL writes survive SIGKILL
    // in the page cache even though the disk backup's buffer died).
    let total = (BASE + TAIL + LAST) as usize;
    assert_eq!(recovered.total_rows(), total);
    let r = recovered.query(&Query::new("data", 0, i64::MAX)).unwrap();
    assert_eq!(r.rows_matched as usize, total);

    drop(recovered);
    assert_no_orphans(&prefix);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkill_with_torn_wal_tail_replays_valid_prefix() {
    let _x = scuba_faults::exclusive();
    let prefix = format!("crashtorn{}", std::process::id());
    let dir = std::env::temp_dir().join(format!("scuba_{prefix}"));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = LeafConfig::new(0, prefix.clone(), dir.clone());
    cfg.checkpoint_enabled = true;
    let ready = dir.join("child_ready");
    std::fs::create_dir_all(&dir).unwrap();

    let child = unsafe { libc::fork() };
    assert!(child >= 0, "fork failed");
    if child == 0 {
        child_serve_and_wait(cfg.clone(), &ready);
    }
    kill_when_ready(child, &ready);

    // Tear the WAL: chop 3 bytes off the last record of the live (last)
    // segment, the torn-write shape a real crash leaves. Replay must stop
    // cleanly at the last valid record — dropping exactly the final
    // (never-synced) batch — and still take the fast path.
    let wal_dir = dir.join(scuba_leaf::server::WAL_DIR);
    let live = *list_segments(&wal_dir).unwrap().last().unwrap();
    let wal_path = segment_path(&wal_dir, live);
    let mut wal = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal_path)
        .unwrap();
    let len = wal.seek(SeekFrom::End(0)).unwrap();
    wal.set_len(len - 3).unwrap();
    wal.flush().unwrap();
    drop(wal);

    let (recovered, outcome) = LeafServer::start(cfg, 0, None).unwrap();
    assert!(
        outcome.is_memory(),
        "a torn tail must not condemn the fast path, got {outcome:?}"
    );
    let total = (BASE + TAIL) as usize; // the torn last batch is gone
    assert_eq!(recovered.total_rows(), total);
    let r = recovered.query(&Query::new("data", 0, i64::MAX)).unwrap();
    assert_eq!(r.rows_matched as usize, total);

    drop(recovered);
    assert_no_orphans(&prefix);
    let _ = std::fs::remove_dir_all(&dir);
}

/// After a checkpoint commit unlinks the segment holding the last sync
/// anchor, the anchor carried into the next segment still bounds the
/// crash reconcile: it scans only what reached the table's disk log since
/// the last `sync_disk`, not the whole `.rows` file.
#[test]
fn reconcile_scan_stays_bounded_after_segment_drop() {
    let _x = scuba_faults::exclusive();
    scuba_obs::set_enabled(true);
    let prefix = format!("crashanchor{}", std::process::id());
    let dir = std::env::temp_dir().join(format!("scuba_{prefix}"));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = LeafConfig::new(0, prefix.clone(), dir.clone());
    cfg.checkpoint_enabled = true;
    let rows = |from: i64, to: i64| -> Vec<Row> {
        (from..to)
            .map(|i| Row::at(i).with("v", i).with("pad", format!("row-{i:012}")))
            .collect()
    };

    let mut server = LeafServer::new(cfg.clone()).unwrap();
    server.add_rows("data", &rows(0, BASE), 0).unwrap();
    server.sync_disk().unwrap(); // the anchor lands in the live segment
    let wal_dir = dir.join(scuba_leaf::server::WAL_DIR);
    let anchored = list_segments(&wal_dir).unwrap();
    server.checkpoint_and_wait().unwrap();
    let rows_file = dir.join("data.rows");
    let synced_len = std::fs::metadata(&rows_file).unwrap().len();
    // Unsynced ingest: large enough that the backup's buffer spills part
    // of it into the file before the crash discards the rest.
    server
        .add_rows("data", &rows(BASE, BASE + TAIL * 4), 0)
        .unwrap();
    let key = server.obs_key().to_owned();
    server.crash();
    drop(server);
    for seq in &anchored {
        assert!(
            !segment_path(&wal_dir, *seq).exists(),
            "segment {seq} with the anchor was not dropped"
        );
    }
    let crash_len = std::fs::metadata(&rows_file).unwrap().len();
    assert!(
        crash_len > synced_len,
        "nothing reached the disk log unsynced"
    );

    let (recovered, outcome) = LeafServer::start(cfg, 0, None).unwrap();
    assert!(outcome.is_memory(), "{outcome:?}");
    assert_eq!(recovered.total_rows(), (BASE + TAIL * 4) as usize);
    let gauge = scuba_obs::labeled_name("leaf_crash_reconcile_scanned_bytes", &[("leaf", &key)]);
    let scanned = scuba_obs::gauge_value(&gauge).expect("reconcile ran") as u64;
    assert!(
        scanned <= crash_len - synced_len,
        "reconcile scanned {scanned} bytes; only {} were written since the last sync \
         ({crash_len} in the file)",
        crash_len - synced_len
    );

    drop(recovered);
    ShmNamespace::new(&prefix, 0).unwrap().unlink_all(16);
    assert_no_orphans(&prefix);
    let _ = std::fs::remove_dir_all(&dir);
}
