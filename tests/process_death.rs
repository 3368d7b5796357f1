//! Real process-death test: SIGKILL a forked child mid-`backup_to_shm` and
//! prove the replacement process takes disk recovery with full durable
//! fidelity — the protocol's answer to a crash at the worst moment (§4.3).
//!
//! The child is slowed inside the copy loop by a `delay` plan on the
//! `restart::backup::chunk` failpoint, so the parent's SIGKILL is
//! guaranteed to land after the backup started and before the valid bit
//! could possibly be set. No destructor, no cleanup code, no flush runs in
//! the child — exactly what a kill -9 during a rollover looks like.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;

use scuba_columnstore::Row;
use scuba_leaf::{LeafConfig, LeafServer, RecoveryOutcome, RestoreMode};
use scuba_query::Query;
use scuba_shmem::{ShmNamespace, ShmSegment};

const ROWS: i64 = 5000;

/// How long a forked child may take to report, and how long it then
/// waits to be killed before it gives up and exits.
const CHILD_WAIT: std::time::Duration = std::time::Duration::from_secs(60);

#[test]
fn sigkill_mid_backup_forces_disk_recovery_with_full_fidelity() {
    let _x = scuba_faults::exclusive();
    scuba_faults::clear_all();

    let prefix = format!("pdeath{}", std::process::id());
    let dir = std::env::temp_dir().join(format!("scuba_{prefix}"));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = LeafConfig::new(0, prefix.clone(), dir.clone());

    // Build durable state in the parent before forking the "old process".
    let mut server = LeafServer::new(cfg.clone()).unwrap();
    let rows: Vec<Row> = (0..ROWS).map(|i| Row::at(i).with("v", i)).collect();
    server.add_rows("data", &rows, 0).unwrap();
    server.sync_disk().unwrap();

    // Every backup chunk copy stalls half a second. Armed before the fork
    // so the child inherits it; the child never touches the registry lock.
    scuba_faults::configure("restart::backup::chunk", "delay=500").unwrap();

    let child = unsafe { libc::fork() };
    assert!(child >= 0, "fork failed");
    if child == 0 {
        // Child: the old leaf, attempting a clean shutdown — it will crawl
        // through the copy loop until the parent kills it cold.
        let _ = server.shutdown_to_shm(0);
        // Reached only if the kill missed; report that as failure without
        // running the test harness's machinery in the forked copy.
        unsafe { libc::_exit(86) };
    }

    // Parent: give the child time to reach the copy loop's first stall,
    // then SIGKILL — no signal handler, no unwinding, nothing runs.
    std::thread::sleep(std::time::Duration::from_millis(150));
    unsafe {
        assert_eq!(libc::kill(child, libc::SIGKILL), 0, "kill failed");
    }
    let mut status = 0;
    let waited = unsafe { libc::waitpid(child, &mut status, 0) };
    assert_eq!(waited, child, "waitpid failed");
    assert!(
        libc::WIFSIGNALED(status),
        "child exited instead of dying by signal (status {status})"
    );
    assert_eq!(libc::WTERMSIG(status), libc::SIGKILL);

    scuba_faults::clear_all();
    drop(server); // the old process is gone; drop the parent's handle too

    // The replacement process: the valid bit was never set, so memory
    // recovery must refuse the partial state and fall back to disk — with
    // everything that was durably synced, row for row.
    let (recovered, outcome) = LeafServer::start(cfg, 0, None).unwrap();
    match &outcome {
        RecoveryOutcome::Disk { .. } => {}
        other => panic!("expected disk recovery after SIGKILL, got {other:?}"),
    }
    assert_eq!(recovered.total_rows(), ROWS as usize);
    let r = recovered.query(&Query::new("data", 0, i64::MAX)).unwrap();
    assert_eq!(r.rows_matched, ROWS as u64);

    // The fallback path frees the dead child's partial segments: nothing
    // may be left in /dev/shm.
    let ns = ShmNamespace::new(&prefix, 0).unwrap();
    assert!(
        !ShmSegment::exists(&ns.metadata_name()),
        "orphan metadata segment"
    );
    for i in 0..8 {
        assert!(
            !ShmSegment::exists(&ns.table_segment_name(i)),
            "orphan table segment {i}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGKILL a leaf that attached a planned image and kept serving it in
/// place, after it ingested and synced more rows. The dead leaf's table
/// segments are still linked — nothing ran to unlink them — but no
/// metadata names them any more: the next start must not attach them,
/// must come back with every synced row, and must leave no table segment
/// behind. With the crash path on, the dead leaf's checkpoint extended
/// the same segment and committed it: the next start attaches that image
/// and keeps it, copying nothing.
#[test]
fn sigkill_of_a_kept_leaf_leaves_nothing_attachable_or_linked() {
    let _x = scuba_faults::exclusive();
    scuba_faults::clear_all();

    for checkpoint in [false, true] {
        let prefix = format!("pdkept{}x{}", std::process::id(), u8::from(checkpoint));
        let dir = std::env::temp_dir().join(format!("scuba_{prefix}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = LeafConfig::new(0, prefix.clone(), dir.clone());
        cfg.restore_mode = RestoreMode::TwoPhase;
        cfg.checkpoint_enabled = checkpoint;
        let ns = ShmNamespace::new(&prefix, 0).unwrap();

        // A planned image of the first life.
        let mut server = LeafServer::new(cfg.clone()).unwrap();
        let rows: Vec<Row> = (0..ROWS).map(|i| Row::at(i).with("v", i)).collect();
        server.add_rows("data", &rows, 0).unwrap();
        server.shutdown_to_shm(0).unwrap();
        drop(server);

        let (mut parent_end, mut child_end) = UnixStream::pair().unwrap();
        let child = unsafe { libc::fork() };
        assert!(child >= 0, "fork failed");
        if child == 0 {
            // Child: the second life attaches the image, keeps it, takes
            // more rows and syncs them, says so, and waits to be killed.
            drop(parent_end);
            let kept = std::panic::catch_unwind(|| {
                let more: Vec<Row> = (ROWS..ROWS + 100)
                    .map(|i| Row::at(i).with("v", i))
                    .collect();
                let (mut s, outcome) = LeafServer::start(cfg.clone(), 0, None).ok()?;
                let attached =
                    matches!(outcome, RecoveryOutcome::MemoryAttached(_)) && s.shm_resident() == 0;
                s.add_rows("data", &more, 0).ok()?;
                s.sync_disk().ok()?;
                if checkpoint {
                    s.checkpoint_and_wait().ok()?;
                }
                Some((s, attached))
            });
            let _ = child_end.write_all(&[u8::from(matches!(kept, Ok(Some((_, true)))))]);
            std::thread::sleep(CHILD_WAIT);
            // Reached only if the kill missed; report that as failure
            // without running the test harness's machinery in the forked copy.
            unsafe { libc::_exit(86) };
        }

        // The parent's copy of the child's end goes, so a child that dies
        // early reads as end of file, and one that hangs as a timeout:
        // either way the child is killed and the assert below fails.
        drop(child_end);
        parent_end.set_read_timeout(Some(CHILD_WAIT)).unwrap();
        let mut byte = [0u8];
        let read = parent_end.read_exact(&mut byte);
        unsafe {
            assert_eq!(libc::kill(child, libc::SIGKILL), 0, "kill failed");
        }
        let mut status = 0;
        assert_eq!(unsafe { libc::waitpid(child, &mut status, 0) }, child);
        assert!(libc::WIFSIGNALED(status) && libc::WTERMSIG(status) == libc::SIGKILL);
        assert!(
            read.is_ok() && byte[0] == 1,
            "the child did not keep the image"
        );
        // What the kill left: the kept segments, linked, and no metadata.
        assert!(ShmSegment::exists(&ns.table_segment_name(0)));

        let (mut recovered, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        let kept = if checkpoint {
            // The checkpoint image over the same segment, kept in place.
            assert!(
                matches!(outcome, RecoveryOutcome::MemoryAttached(_)),
                "{outcome:?}"
            );
            assert!(recovered.recovered_from_checkpoint());
            assert_eq!(recovered.shm_resident(), 0);
            assert!(recovered
                .store()
                .map()
                .get("data")
                .unwrap()
                .blocks()
                .iter()
                .all(|b| b.is_mapped()));
            recovered.finish_hydration().unwrap();
            vec![ns.table_segment_name(0)]
        } else {
            assert!(
                matches!(outcome, RecoveryOutcome::Disk { .. }),
                "{outcome:?}"
            );
            Vec::new()
        };
        assert_eq!(recovered.store().image_segments(), kept);
        assert_eq!(recovered.total_rows(), ROWS as usize + 100);
        let r = recovered.query(&Query::new("data", 0, i64::MAX)).unwrap();
        assert_eq!(r.rows_matched, ROWS as u64 + 100);
        for i in 0..8 {
            let name = ns.table_segment_name(i);
            assert_eq!(
                ShmSegment::exists(&name),
                kept.contains(&name),
                "table segment {i} (checkpoint={checkpoint})"
            );
        }
        drop(recovered);
        ns.unlink_all(8);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
