//! E1 — Restart time: shared memory vs disk, per leaf (§1, §6).
//!
//! Paper: "We can restart one Scuba machine in 2-3 minutes using shared
//! memory versus 2-3 hours from disk." On laptop-scale data we measure
//! both real paths across a size sweep and report the ratio; the
//! paper-scale absolute numbers come from the calibrated simulator.
//!
//! ```sh
//! cargo run --release -p scuba-bench --bin exp_restart_time
//! ```

use std::time::Instant;

use scuba::cluster::{leaf_restart_secs, simulate_single_machine, RecoveryPath, SimConfig};
use scuba::columnstore::Row;
use scuba::leaf::{CrashReads, LeafServer, RecoveryOutcome, RestoreMode};
use scuba::query::Query;
use scuba::restart::wal::WAL_HEADER;
use scuba_bench::{
    build_leaf, fmt_bytes, fmt_dur, header, request_rows, row, table_header, BenchJson, LeafRig,
};

/// Rows of the instrumented single-thread restart whose phase sums are
/// checked against its totals.
const INSTRUMENTED_ROWS: usize = 3_000_000;

/// High-entropy rows: every string is distinct, so dictionary encoding
/// cannot shrink them and the resident bytes track the row count. The
/// E15 contrast needs that — attach cost is O(metadata) while full
/// restore is O(bytes), and dict-compressed workloads hide the gap.
fn dense_rows(n: usize, seed: u64) -> Vec<Row> {
    (0..n as i64)
        .map(|i| {
            Row::at(i)
                .with(
                    "trace",
                    format!("{seed:016x}-{i:016x}-{:016x}", i ^ 0x5DEE_CE66),
                )
                .with("latency_us", (i * 7919) % 100_000)
        })
        .collect()
}

/// Build a leaf with `tables` tables of `rows_per_table` dense rows
/// each, sealed and disk-synced — the table-count axis of the E15 sweep.
fn build_leaf_tables(rig: &LeafRig, tables: usize, rows_per_table: usize) -> LeafServer {
    let mut server = LeafServer::new(rig.config.clone()).expect("boot leaf");
    for t in 0..tables {
        let rows = dense_rows(rows_per_table, 1000 + t as u64);
        let name = format!("requests_{t}");
        for chunk in rows.chunks(50_000) {
            server
                .add_rows(&name, chunk, chunk[0].time())
                .expect("add rows");
        }
    }
    server
        .store_mut_for_bench()
        .seal_all(0)
        .expect("seal tables");
    server.sync_disk().expect("sync disk");
    server
}

/// One E15 measurement: returns (attach a.k.a. time-to-first-query,
/// first mapped query, full speed, full restore, disk recovery), all in
/// seconds. The attached planned image is kept, not hydrated: the leaf
/// is at full speed as soon as it serves, so the third number is the
/// attach plus a `finish_hydration` that has nothing to wait for.
///
/// Attach and full restore are repeatable (each shutdown re-seeds the
/// shared memory), so both report the minimum over `trials` runs — the
/// costs here are sub-millisecond and single shots mostly measure
/// scheduler jitter.
fn ttfq_once(tables: usize, rows_per_table: usize, trials: usize) -> (f64, f64, f64, f64, f64) {
    let mut rig = LeafRig::new("e15");
    let mut server = build_leaf_tables(&rig, tables, rows_per_table);
    let total_rows = server.total_rows();

    // Attach (queries answered from here); the image is kept in place.
    rig.config.restore_mode = RestoreMode::TwoPhase;
    let (mut attach_secs, mut first_query_secs, mut hydrate_secs) = (f64::MAX, f64::MAX, f64::MAX);
    for _ in 0..trials {
        server.shutdown_to_shm(0).expect("shutdown");
        drop(server);
        let t = Instant::now();
        let (restarted, outcome) = LeafServer::start(rig.config.clone(), 0, None).expect("start");
        let attach = t.elapsed().as_secs_f64();
        server = restarted;
        assert!(
            matches!(outcome, RecoveryOutcome::MemoryAttached(_)),
            "expected attach, got {outcome:?}"
        );
        let t = Instant::now();
        let r = server
            .query(&Query::new("requests_0", 0, i64::MAX))
            .expect("mapped query");
        first_query_secs = first_query_secs.min(t.elapsed().as_secs_f64());
        assert_eq!(r.rows_matched as usize, rows_per_table);
        let t = Instant::now();
        server.finish_hydration().expect("hydrate");
        attach_secs = attach_secs.min(attach);
        hydrate_secs = hydrate_secs.min(attach + t.elapsed().as_secs_f64());
        assert_eq!(server.total_rows(), total_rows);
        assert_eq!(server.shm_resident(), 0);
    }

    // Classic full restore of the same data.
    rig.config.restore_mode = RestoreMode::Full;
    let mut full_secs = f64::MAX;
    for _ in 0..trials {
        server.shutdown_to_shm(0).expect("shutdown");
        drop(server);
        let t = Instant::now();
        let (restarted, outcome) = LeafServer::start(rig.config.clone(), 0, None).expect("start");
        full_secs = full_secs.min(t.elapsed().as_secs_f64());
        server = restarted;
        assert!(matches!(outcome, RecoveryOutcome::Memory(_)));
    }

    // Disk recovery of the same data (one shot: it is orders slower).
    server.crash();
    drop(server);
    let t = Instant::now();
    let (server, outcome) = LeafServer::start(rig.config.clone(), 0, None).expect("start");
    let disk_secs = t.elapsed().as_secs_f64();
    assert!(!outcome.is_memory());
    assert_eq!(server.total_rows(), total_rows);

    (
        attach_secs,
        first_query_secs,
        hydrate_secs,
        full_secs,
        disk_secs,
    )
}

/// The crash path's attach: a leaf with checkpoints on commits an image
/// of its sealed tables and is killed; its replacement attaches that
/// image and keeps it, as a planned start does — at full speed once it
/// serves. Returns (attach, first mapped query, full speed) in seconds.
fn crash_attach_once(tables: usize, rows_per_table: usize) -> (f64, f64, f64) {
    let mut rig = LeafRig::new("e15c");
    rig.config.checkpoint_enabled = true;
    rig.config.restore_mode = RestoreMode::TwoPhase;
    let mut server = build_leaf_tables(&rig, tables, rows_per_table);
    let total_rows = server.total_rows();
    server.checkpoint_and_wait().expect("checkpoint");
    server.crash();
    drop(server);
    let t = Instant::now();
    let (mut server, outcome) = LeafServer::start(rig.config.clone(), 0, None).expect("start");
    let attach = t.elapsed().as_secs_f64();
    assert!(
        matches!(outcome, RecoveryOutcome::MemoryAttached(_)),
        "expected an attach, got {outcome:?}"
    );
    assert_kept(&server);
    let t = Instant::now();
    let r = server
        .query(&Query::new("requests_0", 0, i64::MAX))
        .expect("mapped query");
    let first_query = t.elapsed().as_secs_f64();
    assert_eq!(r.rows_matched as usize, rows_per_table);
    let t = Instant::now();
    server.finish_hydration().expect("hydrate");
    let full_speed = attach + t.elapsed().as_secs_f64();
    assert!(server.hydration_fallback_reason().is_none());
    assert_kept(&server);
    assert_eq!(server.total_rows(), total_rows);
    (attach, first_query, full_speed)
}

/// A crash attach keeps its image: nothing awaits a copy to heap, and the
/// column bytes are still served from shared memory.
fn assert_kept(server: &LeafServer) {
    assert_eq!(server.shm_resident(), 0);
    assert!(
        server.store().map().mapped_bytes() > 0,
        "the crash attach copied its image to heap"
    );
}

/// E15 — time-to-first-query: attach vs hydrate-complete vs full restore
/// vs disk, across table counts. When `assert_speedup` is set at least
/// one configuration must show attach ≥5x faster than the full restore.
fn ttfq_sweep(assert_speedup: bool, json: &mut BenchJson) {
    println!("\n-- E15: time to first query, two-phase attach (table-count sweep) --\n");
    // Untimed warmup: the first restart in a process pays one-time costs
    // (page faults, allocator growth, lazy statics) that would otherwise
    // pollute the smallest configuration's attach number.
    let _ = ttfq_once(1, 10_000, 1);
    println!(
        "  {:>7} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>9}",
        "tables", "rows", "attach/ttfq", "1st query", "full speed", "full rst", "disk", "full/ttfq"
    );
    let mut best_ratio = 0.0f64;
    for (tables, rows_per_table) in [(1usize, 200_000usize), (4, 100_000), (16, 50_000)] {
        let (attach, q, hydrate, full, disk) = ttfq_once(tables, rows_per_table, 3);
        let ratio = full / attach;
        best_ratio = best_ratio.max(ratio);
        json.push(
            "e15_ttfq",
            &[
                ("tables", tables as f64),
                ("rows", (tables * rows_per_table) as f64),
                ("attach_secs", attach),
                ("first_query_secs", q),
                ("hydrated_secs", hydrate),
                ("full_restore_secs", full),
                ("disk_recovery_secs", disk),
            ],
        );
        println!(
            "  {:>7} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8.1}x",
            tables,
            tables * rows_per_table,
            fmt_dur(attach),
            fmt_dur(q),
            fmt_dur(hydrate),
            fmt_dur(full),
            fmt_dur(disk),
            ratio,
        );
    }
    if assert_speedup {
        assert!(
            best_ratio >= 5.0,
            "time to first query must be >=5x lower than the full restore, got {best_ratio:.1}x"
        );
        println!("\n  time to first query >=5x lower than full restore: ok ({best_ratio:.1}x)");
    }
}

/// One E16 measurement: crash the leaf (no clean shutdown) and time the
/// three recovery paths over the same data:
///
/// * warm-image **attach** + WAL tail replay (two-phase, time to serving),
/// * warm-image **full restore** + WAL tail replay,
/// * disk recovery (what the paper's §4.3 conservatism always pays).
///
/// Every fast trial rebuilds its warm state — checkpoint, then a fresh
/// post-checkpoint WAL tail, then a sync and `crash()` — so the attach and
/// full numbers are minima over `trials`. Each start must replay at most
/// [`replay_bound`] records and read only what it replays
/// ([`check_reads`]). Returns (attach, full, disk, (replayed-records,
/// bound), total-rows, the last start's reads).
fn crash_once(rows: usize, trials: usize) -> (f64, f64, f64, (usize, usize), usize, CrashReads) {
    let mut rig = LeafRig::new("e16");
    rig.config.checkpoint_enabled = true;
    let server = build_leaf(&rig, rows);
    let mut total = server.total_rows();
    let tail_n = (rows / 20).max(100);
    let mut replayed = (0usize, 0usize);
    let mut reads = CrashReads::default();

    let mut measure = |rig: &mut LeafRig,
                       server: &mut Option<LeafServer>,
                       total: &mut usize,
                       trial: usize|
     -> f64 {
        let mut s = server.take().expect("leaf present");
        s.checkpoint_and_wait().expect("checkpoint");
        let tail = dense_rows(tail_n, 7000 + trial as u64);
        s.add_rows("wal_tail", &tail, 0).expect("add wal tail");
        s.sync_disk().expect("sync");
        *total += tail_n;
        s.crash();
        drop(s);
        let t = Instant::now();
        let (restarted, outcome) = LeafServer::start(rig.config.clone(), 0, None).expect("start");
        let secs = t.elapsed().as_secs_f64();
        assert!(
            outcome.is_memory() && restarted.recovered_from_checkpoint(),
            "expected warm-image crash recovery, got {outcome:?}"
        );
        replayed = (
            restarted.wal_replayed_records(),
            replay_bound(&restarted, tail_n),
        );
        assert!(replayed.0 > 0, "the WAL tail must have been replayed");
        assert!(
            replayed.0 <= replayed.1,
            "replayed {} records, more than one open block per table plus the in-flight batch ({})",
            replayed.0,
            replayed.1
        );
        reads = restarted.crash_reads();
        check_reads(&reads, 1);
        if matches!(outcome, RecoveryOutcome::MemoryAttached(_)) {
            assert_kept(&restarted);
        }
        assert_eq!(restarted.total_rows(), *total);
        *server = Some(restarted);
        secs
    };

    // Attach + replay: the leaf keeps the image and serves it in place.
    rig.config.restore_mode = RestoreMode::TwoPhase;
    let mut server = Some(server);
    let mut attach_secs = f64::MAX;
    for trial in 0..trials {
        attach_secs = attach_secs.min(measure(&mut rig, &mut server, &mut total, trial));
    }

    // Full restore + replay of the same crash state.
    rig.config.restore_mode = RestoreMode::Full;
    let mut full_secs = f64::MAX;
    for trial in 0..trials {
        full_secs = full_secs.min(measure(&mut rig, &mut server, &mut total, 100 + trial));
    }

    // Disk baseline: crash again with no warm image left (the recovery
    // just consumed it and nothing re-checkpointed), i.e. the only path
    // the paper allows after any crash.
    let mut s = server.take().expect("leaf present");
    s.crash();
    drop(s);
    let t = Instant::now();
    let (s, outcome) = LeafServer::start(rig.config.clone(), 0, None).expect("start");
    let disk_secs = t.elapsed().as_secs_f64();
    assert!(
        !outcome.is_memory(),
        "expected disk recovery, got {outcome:?}"
    );
    assert_eq!(s.total_rows(), total);

    (attach_secs, full_secs, disk_secs, replayed, total, reads)
}

/// A crash start reads only what it replays: every WAL byte it read is a
/// segment header, a record it applied, the one record the image may end
/// exactly at, or an anchor — at most one per segment, plus one per disk
/// sync since the last commit (`syncs`).
fn check_reads(reads: &CrashReads, syncs: usize) {
    let accounted = reads.segments as u64 * WAL_HEADER
        + reads.applied_bytes
        + reads.covered_bytes
        + reads.anchor_bytes;
    assert_eq!(
        reads.wal_bytes, accounted,
        "the crash start read WAL bytes it neither replayed nor anchored: {reads:?}"
    );
    assert!(
        reads.covered <= 1,
        "the crash start read {} records the image already held: {reads:?}",
        reads.covered
    );
    assert!(
        reads.anchors <= reads.segments + syncs,
        "{} anchors in {} segments after {syncs} sync(s): {reads:?}",
        reads.anchors,
        reads.segments
    );
    assert!(
        reads.reconcile_scanned_bytes.is_some(),
        "a crash start through the image reconciles: {reads:?}"
    );
}

/// The records a crash start may replay: each table's open block in
/// batches of `batch` rows (one more where the image ends inside a
/// record), plus the batch in flight at the crash.
fn replay_bound(s: &LeafServer, batch: usize) -> usize {
    let open = s.store().map().iter().map(|t| t.unsealed_rows());
    open.filter(|&rows| rows > 0)
        .map(|rows| rows.div_ceil(batch) + 1)
        .sum::<usize>()
        + 1
}

/// A checkpoint cycle publishes its Figure-5 breakdown as op `checkpoint`:
/// on one whole-image cycle its phases must sum to within 5 % of its
/// measured total, as the planned backup's do. With a worker pool (a
/// `SCUBA_COPY_THREADS` pin) the phase sum counts CPU time across workers
/// and legitimately exceeds the wall time, so only a width-1 cycle is
/// checked.
fn checkpoint_breakdown_check(rows: usize) {
    scuba::obs::set_enabled(true);
    let mut rig = LeafRig::new("e16b");
    rig.config.checkpoint_enabled = true;
    // Straight into the store, past `add_rows`: no seal starts a cycle of
    // its own, so the checkpoint below writes the whole image.
    let mut server = LeafServer::new(rig.config.clone()).expect("boot leaf");
    let store = server.store_mut_for_bench();
    store
        .append_rows("requests", &request_rows(rows, 202), 0)
        .expect("add rows");
    store.seal_all(0).expect("seal tables");
    server.checkpoint_and_wait().expect("checkpoint");
    let b = scuba::obs::last_checkpoint_breakdown()
        .expect("a committed checkpoint publishes its breakdown");
    assert_eq!(b.op, "checkpoint");
    assert!(b.complete && b.bytes > 0, "{b:?}");
    let sum = b.phase_sum().as_secs_f64();
    let total = b.total.as_secs_f64();
    println!(
        "  checkpoint breakdown: {} unit(s), {} thread(s), phase sum {:.3} ms of {:.3} ms",
        b.units,
        b.threads,
        sum * 1e3,
        total * 1e3
    );
    if b.threads == 1 {
        assert!(
            sum >= total * 0.95 && sum <= total * 1.05,
            "checkpoint phase sum {:.3} ms strays >5% from total {:.3} ms",
            sum * 1e3,
            total * 1e3
        );
        println!("  checkpoint phase sum within 5% of its total: ok");
    }
}

/// E16 — crash restarts: continuous checkpoint + WAL tail replay vs the
/// disk path, across sizes. When `assert_speedup` is set the default
/// scale must show the warm attach ≥10x faster than disk recovery.
fn crash_sweep(assert_speedup: bool, json: &mut BenchJson) {
    println!("\n-- E16: crash recovery, warm image + WAL replay vs disk (size sweep) --\n");
    let _ = crash_once(10_000, 1); // untimed warmup
    println!(
        "  {:>10} {:>12} {:>12} {:>12} {:>10} {:>11}",
        "rows", "attach+wal", "full+wal", "disk", "replayed", "disk/attach"
    );
    let mut default_ratio = 0.0f64;
    for rows in [100_000usize, 300_000, 1_000_000] {
        let (attach, full, disk, (replayed, _), total, _) = crash_once(rows, 3);
        let ratio = disk / attach;
        if rows == 1_000_000 {
            default_ratio = ratio;
        }
        json.push(
            "e16_crash",
            &[
                ("rows", total as f64),
                ("attach_replay_secs", attach),
                ("full_replay_secs", full),
                ("disk_recovery_secs", disk),
                ("wal_records_replayed", replayed as f64),
            ],
        );
        println!(
            "  {:>10} {:>12} {:>12} {:>12} {:>10} {:>10.1}x",
            total,
            fmt_dur(attach),
            fmt_dur(full),
            fmt_dur(disk),
            replayed,
            ratio,
        );
    }
    if assert_speedup {
        assert!(
            default_ratio >= 10.0,
            "crash recovery via warm image + WAL replay must be >=10x faster \
             than disk at default scale, got {default_ratio:.1}x"
        );
        println!(
            "\n  crash fast path >=10x faster than disk at default scale: ok ({default_ratio:.1}x)"
        );
    }
}

fn main() {
    let mut json = BenchJson::new(&["e1_", "e15_", "e16_"]);

    // CI smoke: exercise only the crash-recovery paths, quickly.
    if std::env::args().any(|a| a == "--crash") {
        header("E16", "crash-path fast restart smoke (--crash)");
        let (attach, full, disk, (replayed, bound), total, reads) = crash_once(30_000, 1);
        println!(
            "\n  rows {total} | attach+wal {} | full+wal {} | disk {} | replayed {replayed} records",
            fmt_dur(attach),
            fmt_dur(full),
            fmt_dur(disk),
        );
        println!(
            "  replayed {replayed} <= {bound} (one open block per table + the in-flight batch): ok"
        );
        println!(
            "  WAL read {} B in {} segment(s): {} B replayed, {} B held by the image, \
             {} anchor(s) in {} B; reconcile scanned {} B of disk log",
            reads.wal_bytes,
            reads.segments,
            reads.applied_bytes,
            reads.covered_bytes,
            reads.anchors,
            reads.anchor_bytes,
            reads.reconcile_scanned_bytes.unwrap_or(0),
        );
        println!("  the crash start reads only what it replays: ok");
        println!("  crash fast path healthy: ok");
        checkpoint_breakdown_check(1_000_000);
        json.push(
            "e16_crash_smoke",
            &[
                ("rows", total as f64),
                ("attach_replay_secs", attach),
                ("full_replay_secs", full),
                ("disk_recovery_secs", disk),
                ("wal_records_replayed", replayed as f64),
                ("wal_bytes_read", reads.wal_bytes as f64),
                (
                    "reconcile_scanned_bytes",
                    reads.reconcile_scanned_bytes.unwrap_or(0) as f64,
                ),
            ],
        );
        json.write();
        return;
    }

    // CI smoke: exercise only the attach paths, quickly — the planned
    // image and the crash path's image, each kept in place.
    if std::env::args().any(|a| a == "--attach-only") {
        header("E15", "two-phase attach smoke (--attach-only)");
        let (attach, q, full_speed, full, disk) = ttfq_once(4, 10_000, 1);
        println!(
            "\n  kept: attach {} | first query {} | full speed {} | full restore {} | disk {}",
            fmt_dur(attach),
            fmt_dur(q),
            fmt_dur(full_speed),
            fmt_dur(full),
            fmt_dur(disk)
        );
        let (crash_attach, crash_q, crash_full_speed) = crash_attach_once(4, 10_000);
        println!(
            "  crash: attach {} | first query {} | full speed {}",
            fmt_dur(crash_attach),
            fmt_dur(crash_q),
            fmt_dur(crash_full_speed)
        );
        println!("  attach paths healthy: ok");
        json.push(
            "e15_attach_smoke",
            &[
                ("attach_secs", attach),
                ("first_query_secs", q),
                ("hydrated_secs", full_speed),
                ("full_restore_secs", full),
                ("disk_recovery_secs", disk),
                ("crash_attach_secs", crash_attach),
                ("crash_first_query_secs", crash_q),
                ("crash_full_speed_secs", crash_full_speed),
            ],
        );
        json.write();
        return;
    }

    header(
        "E1",
        "per-server restart time: shared memory vs disk recovery",
    );

    println!("\n-- real execution (this machine), size sweep --\n");
    println!(
        "  {:>10} {:>12} {:>14} {:>14} {:>9}",
        "rows", "resident", "shm restart", "disk restart", "ratio"
    );
    for rows in [30_000usize, 100_000, 300_000, 1_000_000] {
        let rig = LeafRig::new("e1");
        let mut server = build_leaf(&rig, rows);
        let resident = server.memory_used();

        // Shared-memory path: clean shutdown + memory restore.
        let t = Instant::now();
        server.shutdown_to_shm(0).expect("shutdown");
        drop(server);
        let (server, outcome) = LeafServer::start(rig.config.clone(), 0, None).expect("start");
        let shm_secs = t.elapsed().as_secs_f64();
        assert!(outcome.is_memory());

        // Disk path: crash + disk recovery of the same data.
        let mut server = server;
        server.crash();
        drop(server);
        let t = Instant::now();
        let (server, outcome) = LeafServer::start(rig.config.clone(), 0, None).expect("start");
        let disk_secs = t.elapsed().as_secs_f64();
        assert!(!outcome.is_memory());
        assert_eq!(server.total_rows(), rows / 3 * 3);

        println!(
            "  {:>10} {:>12} {:>14} {:>14} {:>8.1}x",
            rows,
            fmt_bytes(resident as u64),
            fmt_dur(shm_secs),
            fmt_dur(disk_secs),
            disk_secs / shm_secs
        );
        json.push(
            "e1_restart",
            &[
                ("rows", rows as f64),
                ("resident_bytes", resident as f64),
                ("shm_restart_secs", shm_secs),
                ("disk_restart_secs", disk_secs),
            ],
        );
    }

    println!("\n-- parallel copy pipeline, thread sweep (1M rows) --\n");
    println!(
        "  {:>8} {:>7} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "threads", "used", "resident", "backup", "bak MB/s", "restore", "rst MB/s"
    );
    for threads in [1usize, 2, 4] {
        let mut rig = LeafRig::new("e1t");
        rig.config.copy_threads = threads;
        let mut server = build_leaf(&rig, 1_000_000);
        let resident = server.memory_used();

        // build_leaf already sealed + synced, so the shutdown window is
        // dominated by the shm copy itself.
        let t = Instant::now();
        let summary = server.shutdown_to_shm(0).expect("shutdown");
        let bak_secs = t.elapsed().as_secs_f64();
        drop(server);

        let t = Instant::now();
        let (_server, outcome) = LeafServer::start(rig.config.clone(), 0, None).expect("start");
        let rst_secs = t.elapsed().as_secs_f64();
        let restore = match outcome {
            RecoveryOutcome::Memory(rep) => rep,
            other => panic!("expected memory recovery, got {other:?}"),
        };

        println!(
            "  {:>8} {:>7} {:>12} {:>12} {:>12} {:>12} {:>12}",
            threads,
            summary.backup.threads,
            fmt_bytes(resident as u64),
            fmt_dur(bak_secs),
            format!("{:.0}", summary.backup.bytes_copied as f64 / bak_secs / 1e6),
            fmt_dur(rst_secs),
            format!("{:.0}", restore.bytes_copied as f64 / rst_secs / 1e6),
        );
        json.push(
            "e1_copy_threads",
            &[
                ("threads", threads as f64),
                ("threads_used", summary.backup.threads as f64),
                ("backup_secs", bak_secs),
                ("restore_secs", rst_secs),
                ("bytes_copied", summary.backup.bytes_copied as f64),
            ],
        );
    }
    println!("\n  (\"used\" is the pool size after clamping to the table count and");
    println!("  to one worker per 8 MiB of payload — small leaves stay sequential;");
    println!("  scaling requires a multi-core host — nproc gates the speedup.)");

    // -- Figure-5 phase breakdown from the instrumented protocol. --------
    // A dedicated single-thread run, so the per-phase nanoseconds are
    // wall-clock (with a worker pool the phase sum counts CPU time across
    // workers and legitimately exceeds the run's wall time). Sized so the
    // 5 % check below spans several hundred microseconds: on a run of a
    // millisecond or two, 5 % is within one scheduler hiccup.
    let mut rig = LeafRig::new("e1r");
    rig.config.copy_threads = 1;
    let mut server = build_leaf(&rig, INSTRUMENTED_ROWS);
    server.shutdown_to_shm(0).expect("shutdown");
    drop(server);
    let (_server, outcome) = LeafServer::start(rig.config.clone(), 0, None).expect("start");
    assert!(outcome.is_memory());

    println!(
        "\n-- instrumented phase breakdown (1 thread, {}k rows) --\n",
        INSTRUMENTED_ROWS / 1000
    );
    let report = scuba::obs::RestartReport::capture();
    print!("{report}");
    if scuba::obs::enabled() {
        for b in [&report.backup, &report.restore] {
            let b = b
                .as_ref()
                .expect("instrumented run must publish a breakdown");
            let sum = b.phase_sum().as_secs_f64();
            let total = b.total.as_secs_f64();
            assert!(
                sum >= total * 0.95 && sum <= total * 1.05,
                "{} phase sum {:.3} ms strays >5% from total {:.3} ms",
                b.op,
                sum * 1e3,
                total * 1e3
            );
        }
        println!("\n  phase sums within 5% of measured totals: ok");
    }

    ttfq_sweep(true, &mut json);
    crash_sweep(true, &mut json);

    println!("\n-- paper scale (simulator, 8 leaves x 15 GB per machine) --\n");
    let cfg = SimConfig::paper_defaults();
    table_header();
    row(
        "one machine via shared memory",
        "2-3 min",
        &fmt_dur(simulate_single_machine(&cfg, RecoveryPath::SharedMemory, 1)),
    );
    row(
        "one machine from disk (8 leaves at once)",
        "2.5-3 h",
        &fmt_dur(simulate_single_machine(
            &cfg,
            RecoveryPath::Disk,
            cfg.leaves_per_machine,
        )),
    );
    row(
        "one leaf via shared memory (alone)",
        "~ seconds + overhead",
        &fmt_dur(leaf_restart_secs(&cfg, RecoveryPath::SharedMemory, 1)),
    );
    row(
        "one leaf from disk (alone)",
        "(implied ~15-25 min)",
        &fmt_dur(leaf_restart_secs(&cfg, RecoveryPath::Disk, 1)),
    );
    println!("\nshape check: shared memory wins at every size; the gap grows with data volume.");

    // For the CI observability leg: dump both expositions for offline
    // linting (`obs_lint`) when asked.
    if let Ok(dir) = std::env::var("SCUBA_OBS_DIR") {
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("create SCUBA_OBS_DIR");
        std::fs::write(dir.join("metrics.prom"), scuba::obs::prometheus_text())
            .expect("write metrics.prom");
        std::fs::write(dir.join("metrics.json"), scuba::obs::json_snapshot())
            .expect("write metrics.json");
        println!("\nwrote metrics exposition to {}", dir.display());
    }

    json.write();
}
