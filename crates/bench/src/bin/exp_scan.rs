//! E17 — Vectorized in-place scans over mapped blocks.
//!
//! The scan engine claims: (1) columnar filter kernels beat the row-wise
//! oracle ≥2x on a filter-heavy mix, (2) scanning mapped (shm-resident)
//! blocks in place is within 1.3x of scanning heap blocks — so a leaf
//! serves the image it kept, planned or checkpoint, at nearly full
//! speed — and
//! (3) after a planned restart that keeps its image, a cold table that no
//! query touches is never copied at all, while every result stays
//! identical to the heap leaf's, (4) the open block — rows not yet
//! sealed, which every query over an ingesting table reads — scans in
//! place within 2x of the same rows sealed, and (5) an integer `Sum`
//! folded in `i64` over the stored form sums a delta-coded column at
//! least 2x faster than the `f64` loop over its decoded values, with the
//! same bits.
//!
//! ```sh
//! cargo run --release -p scuba-bench --bin exp_scan
//! cargo run --release -p scuba-bench --bin exp_scan -- --scan-only   # CI smoke
//! ```

use std::time::Instant;

use scuba::columnstore::encoding::CompressionCode;
use scuba::columnstore::scan::{sel_all, sel_for_each_present, IntCodes};
use scuba::columnstore::{ColumnView, Row, Table};
use scuba::ingest::{WorkloadKind, WorkloadSpec};
use scuba::leaf::{LeafServer, RecoveryOutcome, RestoreMode};
use scuba::query::{
    execute, execute_vectorized, plan_scan, AggSpec, AggState, CmpOp, Filter, GroupKey, Query,
};
use scuba_bench::{fmt_bytes, fmt_dur, header, BenchJson, LeafRig};

/// The filter-heavy query mix: selective predicates over every encoding
/// family the kernels special-case — integer equality, dictionary-id
/// string equality, double range — plus one grouped query through the
/// dictionary slot table.
fn query_mix() -> Vec<(&'static str, Query)> {
    vec![
        (
            "status == 500, count+avg(latency)",
            Query::new("requests", 0, i64::MAX)
                .filter(Filter::new("status", CmpOp::Eq, 500i64))
                .aggregates(vec![AggSpec::Count, AggSpec::Avg("latency_ms".into())]),
        ),
        (
            "endpoint == /api/ads, count",
            Query::new("requests", 0, i64::MAX)
                .filter(Filter::new("endpoint", CmpOp::Eq, "/api/ads"))
                .aggregates(vec![AggSpec::Count]),
        ),
        (
            "latency_ms >= 80, count+p99",
            Query::new("requests", 0, i64::MAX)
                .filter(Filter::new("latency_ms", CmpOp::Ge, 80.0))
                .aggregates(vec![AggSpec::Count, AggSpec::p99("latency_ms")]),
        ),
        (
            "status == 200 && endpoint == /home by host",
            Query::new("requests", 0, i64::MAX)
                .filter(Filter::new("status", CmpOp::Eq, 200i64))
                .filter(Filter::new("endpoint", CmpOp::Eq, "/home"))
                .group_by("host")
                .aggregates(vec![AggSpec::Count, AggSpec::Sum("latency_ms".into())]),
        ),
    ]
}

/// Encoded bytes a query may read: the columns it names (plus the time
/// column) of every block surviving pruning.
fn scanned_bytes(table: &Table, query: &Query) -> u64 {
    let plan = plan_scan(table, query).expect("plan");
    let touched = query.columns_read();
    let mut bytes = 0u64;
    for block in plan.blocks.iter().filter_map(|b| b.sealed()) {
        for name in &touched {
            if let Some(col) = block.column(name) {
                bytes += col.len_bytes() as u64;
            }
        }
    }
    bytes
}

/// Build a leaf holding `rows` request-log rows, sealed and synced.
fn build_requests_leaf(rig: &LeafRig, rows: usize) -> LeafServer {
    let mut server = LeafServer::new(rig.config.clone()).expect("boot leaf");
    let spec = WorkloadSpec::new(WorkloadKind::Requests, 4242);
    let data = spec.rows(rows);
    for chunk in data.chunks(50_000) {
        server
            .add_rows("requests", chunk, chunk[0].time())
            .expect("add rows");
    }
    server
        .store_mut_for_bench()
        .seal_all(0)
        .expect("seal tables");
    server.sync_disk().expect("sync disk");
    server
}

/// Kernel shootout: vectorized vs row-wise over the same heap table.
/// Differential equality is asserted on every query; timing is
/// min-over-reps. Returns (rowwise_secs, vectorized_secs) mix totals.
fn scan_kernels(
    rows: usize,
    reps: usize,
    assert_speedup: bool,
    json: &mut BenchJson,
) -> (f64, f64) {
    println!("\n-- kernels: vectorized vs row-wise, filter-heavy mix ({rows} rows) --\n");
    let rig = LeafRig::new("e17k");
    let server = build_requests_leaf(&rig, rows);
    let table = server
        .store()
        .map()
        .get("requests")
        .expect("requests table");

    println!(
        "  {:>42} {:>11} {:>11} {:>9} {:>10}",
        "query", "row-wise", "vectorized", "speedup", "vec GB/s"
    );
    let (mut mix_row, mut mix_vec) = (0.0f64, 0.0f64);
    for (label, query) in query_mix() {
        let bytes = scanned_bytes(table, &query) as f64;
        let (mut best_row, mut best_vec) = (f64::MAX, f64::MAX);
        for _ in 0..reps {
            let t = Instant::now();
            let row_result = execute(table, &query).expect("row-wise");
            best_row = best_row.min(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let vec_result = execute_vectorized(table, &query).expect("vectorized");
            best_vec = best_vec.min(t.elapsed().as_secs_f64());
            assert_eq!(
                row_result, vec_result,
                "vectorized diverged from the row-wise oracle on {label:?}"
            );
        }
        mix_row += best_row;
        mix_vec += best_vec;
        println!(
            "  {:>42} {:>11} {:>11} {:>8.1}x {:>10.2}",
            label,
            fmt_dur(best_row),
            fmt_dur(best_vec),
            best_row / best_vec,
            bytes / best_vec / 1e9,
        );
        json.push(
            "e17_kernels",
            &[
                ("rows", rows as f64),
                ("scanned_bytes", bytes),
                ("rowwise_secs", best_row),
                ("vectorized_secs", best_vec),
            ],
        );
    }
    let speedup = mix_row / mix_vec;
    println!(
        "\n  mix totals: row-wise {} | vectorized {} | speedup {speedup:.1}x",
        fmt_dur(mix_row),
        fmt_dur(mix_vec)
    );
    if assert_speedup {
        assert!(
            speedup >= 2.0,
            "vectorized scans must be >=2x the row-wise path on the \
             filter-heavy mix, got {speedup:.1}x"
        );
        println!("  vectorized >=2x row-wise on the filter-heavy mix: ok");
    }
    (mix_row, mix_vec)
}

/// Run the full mix once through the leaf's production query path,
/// returning total seconds (results are cross-checked by the caller).
fn run_mix(server: &LeafServer) -> f64 {
    let mut total = 0.0;
    for (_, query) in query_mix() {
        let t = Instant::now();
        server.query(&query).expect("query");
        total += t.elapsed().as_secs_f64();
    }
    total
}

/// Heap vs mapped: the same mix through `LeafServer::query`, first over
/// the live heap table, then over the attached table — a planned image,
/// which the leaf keeps serving in place.
fn heap_vs_mapped(rows: usize, reps: usize, assert_ratio: bool, json: &mut BenchJson) {
    println!("\n-- in-place mapped scans vs heap scans ({rows} rows) --\n");
    let mut rig = LeafRig::new("e17m");
    let mut server = build_requests_leaf(&rig, rows);
    let table = server.store().map().get("requests").expect("table");
    let bytes: u64 = query_mix()
        .iter()
        .map(|(_, q)| scanned_bytes(table, q))
        .sum();

    let mut heap_secs = f64::MAX;
    for _ in 0..reps {
        heap_secs = heap_secs.min(run_mix(&server));
    }
    let heap_results: Vec<_> = query_mix()
        .iter()
        .map(|(_, q)| server.query(q).expect("heap query"))
        .collect();

    // Attach: queries scan the mapped bytes in place. The first pass
    // pays verify-on-first-touch (CRC per block), later passes skip it —
    // report both.
    rig.config.restore_mode = RestoreMode::TwoPhase;
    server.shutdown_to_shm(0).expect("shutdown");
    drop(server);
    let (server, outcome) = LeafServer::start(rig.config.clone(), 0, None).expect("start");
    assert!(
        matches!(outcome, RecoveryOutcome::MemoryAttached(_)),
        "expected attach, got {outcome:?}"
    );
    let first_touch_secs = run_mix(&server);
    let mut mapped_secs = f64::MAX;
    for _ in 0..reps {
        mapped_secs = mapped_secs.min(run_mix(&server));
    }
    let table = server.store().map().get("requests").expect("table");
    assert!(
        table.mapped_bytes() > 0,
        "the measured table must still be shm-mapped"
    );
    for (result, (label, query)) in heap_results.iter().zip(query_mix()) {
        let mapped = server.query(&query).expect("mapped query");
        assert_eq!(*result, mapped, "mapped scan diverged on {label:?}");
    }

    let ratio = mapped_secs / heap_secs;
    println!(
        "  mix of {} scanned: heap {} ({:.2} GB/s) | mapped {} ({:.2} GB/s) | first touch {}",
        fmt_bytes(bytes),
        fmt_dur(heap_secs),
        bytes as f64 / heap_secs / 1e9,
        fmt_dur(mapped_secs),
        bytes as f64 / mapped_secs / 1e9,
        fmt_dur(first_touch_secs),
    );
    println!("  mapped/heap ratio: {ratio:.2}x");
    json.push(
        "e17_heap_vs_mapped",
        &[
            ("rows", rows as f64),
            ("scanned_bytes", bytes as f64),
            ("heap_secs", heap_secs),
            ("mapped_secs", mapped_secs),
            ("mapped_first_touch_secs", first_touch_secs),
        ],
    );
    if assert_ratio {
        assert!(
            ratio <= 1.3,
            "in-place mapped scans must run within 1.3x of heap scans, got {ratio:.2}x"
        );
        println!("  mapped within 1.3x of heap: ok");
    }
}

/// A planned image kept in place under a live query mix: the hot table is
/// queried from the mapped bytes, a cold table is never touched — it must
/// end the run fully mapped with zero bytes copied — and both tables'
/// results must equal the heap leaf's before the restart.
fn kept_image(rows_per_table: usize, json: &mut BenchJson) {
    println!("\n-- a kept planned image under a live mix ({rows_per_table} rows/table) --\n");
    let mut rig = LeafRig::new("e17k");
    let mut server = LeafServer::new(rig.config.clone()).expect("boot leaf");
    for (kind, seed) in [
        (WorkloadKind::Requests, 7001),
        (WorkloadKind::ErrorLogs, 7002),
    ] {
        let rows = WorkloadSpec::new(kind, seed).rows(rows_per_table);
        for chunk in rows.chunks(50_000) {
            server
                .add_rows(kind.table_name(), chunk, chunk[0].time())
                .expect("add rows");
        }
    }
    server.store_mut_for_bench().seal_all(0).expect("seal");
    server.sync_disk().expect("sync");

    let cold_query = Query::new("error_logs", 0, i64::MAX)
        .filter(Filter::new("severity", CmpOp::Eq, "error"))
        .group_by("product")
        .aggregates(vec![AggSpec::Count]);
    let expected_cold = server.query(&cold_query).expect("cold baseline");
    let expected_hot: Vec<_> = query_mix()
        .iter()
        .map(|(_, q)| server.query(q).expect("hot baseline"))
        .collect();

    rig.config.restore_mode = RestoreMode::TwoPhase;
    server.shutdown_to_shm(0).expect("shutdown");
    drop(server);

    let t = Instant::now();
    let (mut server, outcome) = LeafServer::start(rig.config.clone(), 0, None).expect("start");
    let attach_secs = t.elapsed().as_secs_f64();
    assert!(matches!(outcome, RecoveryOutcome::MemoryAttached(_)));
    assert_eq!(
        server.shm_resident(),
        0,
        "a planned image is kept, not copied"
    );
    let cold = server.store().map().get("error_logs").expect("cold table");
    let cold_blocks = cold.blocks().len();
    let cold_mapped_before = cold.mapped_bytes();
    assert!(cold_mapped_before > 0);

    // Time to first query: the hot mix answers from mapped bytes at once.
    let t = Instant::now();
    let first = server.query(&query_mix()[0].1).expect("first hot query");
    let ttfq_secs = t.elapsed().as_secs_f64();
    assert_eq!(first, expected_hot[0]);

    // Live mix: a few passes over the hot table, polling between them as
    // a serving loop would. Every answer is the heap leaf's.
    let t = Instant::now();
    for _ in 0..3 {
        for (expected, (label, q)) in expected_hot.iter().zip(query_mix()) {
            let got = server.query(&q).expect("hot query");
            assert_eq!(got, *expected, "kept image diverged on {label:?}");
        }
        server.poll_hydration().expect("poll");
    }
    let mix_secs = t.elapsed().as_secs_f64();

    // The cold table was never queried: every block is still mapped, zero
    // bytes were copied to heap on its behalf ...
    let cold_copied = |server: &LeafServer| {
        let cold = server.store().map().get("error_logs").expect("cold table");
        assert!(
            cold.blocks().iter().all(|b| b.is_mapped()),
            "cold blocks must still be mapped"
        );
        cold_mapped_before - cold.mapped_bytes()
    };
    let copied = cold_copied(&server);
    assert_eq!(copied, 0, "cold table must end the run with 0 bytes copied");
    // ... and it answers identically in place, also after
    // `finish_hydration`, which copies nothing.
    assert_eq!(
        server.query(&cold_query).expect("cold mapped query"),
        expected_cold
    );
    server.finish_hydration().expect("finish");
    assert_eq!(cold_copied(&server), 0);
    assert_eq!(
        server.query(&cold_query).expect("cold mapped query"),
        expected_cold
    );

    println!(
        "  attach {} | first query {} | live mix x3 {} | cold blocks {cold_blocks} still mapped ({})",
        fmt_dur(attach_secs),
        fmt_dur(ttfq_secs),
        fmt_dur(mix_secs),
        fmt_bytes(cold_mapped_before as u64),
    );
    println!("  cold table copied 0 bytes; kept image == heap on every result: ok");
    json.push(
        "e17_kept_image",
        &[
            ("rows", (2 * rows_per_table) as f64),
            ("attach_secs", attach_secs),
            ("first_query_secs", ttfq_secs),
            ("live_mix_secs", mix_secs),
            ("cold_mapped_bytes", cold_mapped_before as f64),
            ("cold_copied_bytes", copied as f64),
        ],
    );
}

/// Median seconds of `f` over `reps` runs.
fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[reps / 2]
}

/// The open block against the same rows sealed: a filtered count and a
/// group-by through `execute_vectorized`, planning included, at each row
/// count — all in one open block, then sealed. Both answers must equal
/// the row-wise oracle's, and the open block must scan within 2x of the
/// sealed one.
fn open_vs_sealed(sizes: &[usize], reps: usize, json: &mut BenchJson) {
    println!("\n-- the open block in place vs the same rows sealed (median of {reps}) --\n");
    let queries = [
        (
            "count where status == 500",
            Query::new("requests", 0, i64::MAX)
                .filter(Filter::new("status", CmpOp::Eq, 500i64))
                .aggregates(vec![AggSpec::Count]),
        ),
        (
            "count+avg(latency) by endpoint",
            Query::new("requests", 0, i64::MAX)
                .group_by("endpoint")
                .aggregates(vec![AggSpec::Count, AggSpec::Avg("latency_ms".into())]),
        ),
    ];
    println!(
        "  {:>32} {:>7} {:>11} {:>11} {:>7}",
        "query", "rows", "open", "sealed", "open/sealed"
    );
    let data: Vec<Row> =
        WorkloadSpec::new(WorkloadKind::Requests, 4242).rows(*sizes.iter().max().unwrap_or(&0));
    for &rows in sizes {
        let mut open = Table::new("requests", 0);
        open.append_batch(&data[..rows], 0).expect("append");
        assert_eq!(open.unsealed_rows(), rows, "the rows fit one open block");
        let mut sealed = open.clone();
        sealed.seal(0).expect("seal");
        for (label, query) in &queries {
            let want = execute(&sealed, query).expect("row-wise");
            assert_eq!(execute(&open, query).expect("row-wise open"), want);
            assert_eq!(execute_vectorized(&open, query).expect("open"), want);
            assert_eq!(execute_vectorized(&sealed, query).expect("sealed"), want);
            let open_secs = median_secs(reps, || execute_vectorized(&open, query));
            let sealed_secs = median_secs(reps, || execute_vectorized(&sealed, query));
            let ratio = open_secs / sealed_secs;
            println!(
                "  {label:>32} {rows:>7} {:>8.1} µs {:>8.1} µs {ratio:>6.2}x",
                open_secs * 1e6,
                sealed_secs * 1e6,
            );
            json.push(
                "e17_open_block",
                &[
                    ("rows", rows as f64),
                    ("open_secs", open_secs),
                    ("sealed_secs", sealed_secs),
                ],
            );
            assert!(
                ratio <= 2.0,
                "{label:?} over {rows} open rows took {ratio:.2}x the sealed scan"
            );
        }
    }
    println!("\n  open block within 2x of sealed at every size: ok");
}

/// `sum(column)` over `table`'s sealed blocks as the `f64` loop folded
/// it: each block's present values in row order — a delta chain decoded
/// into an array first, a frame of reference or dictionary read one value
/// at a time — widened and added to a fresh `f64`, the blocks' sums added
/// in block order, as the merge adds them.
fn f64_loop_sum(table: &Table, column: &str) -> f64 {
    let mut total = 0.0;
    for block in table.blocks() {
        let view = ColumnView::build(block.column(column).expect("column")).expect("view");
        let ColumnView::Int64 { presence, ints } = &view else {
            panic!("{column} is an integer column");
        };
        let sel = sel_all(block.row_count());
        let mut acc = 0.0f64;
        match ints.codes() {
            IntCodes::For { base, packed } => {
                sel_for_each_present(&sel, presence.as_ref(), |_, d| {
                    acc += base.wrapping_add(packed.get(d) as i64) as f64
                })
            }
            IntCodes::Dict { entries, ids } => {
                sel_for_each_present(&sel, presence.as_ref(), |_, d| {
                    acc += entries[ids.get(d).expect("id") as usize] as f64
                })
            }
            _ => {
                let values = ints.values().expect("decode");
                sel_for_each_present(&sel, presence.as_ref(), |_, d| acc += values[d] as f64)
            }
        }
        total += acc;
    }
    total
}

/// Integer sums: `count + sum(·)` over `rows` sealed request rows, for a
/// delta-coded (`seq`, the row number), a frame-of-reference (`bytes`,
/// scattered over 2^17) and a dictionary (`status`) column, through
/// `execute_vectorized` against [`f64_loop_sum`] over the same blocks
/// (which leaves out planning and the merge, so it favours the loop). Both
/// must give the row-wise oracle's bits, and the delta column must sum at
/// least 2x faster.
fn int_sum(rows: usize, reps: usize, json: &mut BenchJson) {
    println!("\n-- integer sums: i64 over the stored form vs the f64 loop ({rows} rows, median of {reps}) --\n");
    let mut table = Table::new("requests", 0);
    let mut seq = 0i64;
    while (seq as usize) < rows {
        let chunk = (rows - seq as usize).min(50_000);
        let spec = WorkloadSpec::new(WorkloadKind::Requests, 4242 + seq as u64);
        let batch: Vec<Row> = spec
            .rows(chunk)
            .into_iter()
            .map(|row| {
                seq += 1;
                let bytes = 200 + ((seq as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 47);
                row.with("seq", seq - 1).with("bytes", bytes as i64)
            })
            .collect();
        table.append_batch(&batch, 0).expect("append");
    }
    table.seal(0).expect("seal");
    println!(
        "  {:>8} {:>6} {:>11} {:>11} {:>8}",
        "column", "form", "f64 loop", "i64 fold", "speedup"
    );
    let mut delta_speedup = 0.0;
    for (column, form, code) in [
        ("seq", "delta", None),
        ("bytes", "FOR", Some(CompressionCode::FOR)),
        ("status", "dict", Some(CompressionCode::DICTIONARY)),
    ] {
        for block in table.blocks() {
            let stored = block
                .column(column)
                .expect("column")
                .compression()
                .expect("code");
            let is = |c| stored.has(c);
            match code {
                Some(c) => assert!(is(c), "{column} is stored as {form}"),
                None => assert!(
                    !is(CompressionCode::FOR) && !is(CompressionCode::DICTIONARY),
                    "{column} is stored as {form}"
                ),
            }
        }
        let query = Query::new("requests", 0, i64::MAX)
            .aggregates(vec![AggSpec::Count, AggSpec::Sum(column.into())]);
        let want = execute(&table, &query).expect("row-wise");
        let got = execute_vectorized(&table, &query).expect("vectorized");
        assert_eq!(got, want, "{column}: vectorized diverged from the oracle");
        let sum_bits = |states: &[AggState]| match states[1] {
            AggState::Sum(v) => v.to_bits(),
            ref other => panic!("{other:?}"),
        };
        let bits = sum_bits(&want.groups[&GroupKey::Null]);
        assert_eq!(bits, sum_bits(&got.groups[&GroupKey::Null]), "{column}");
        assert_eq!(f64_loop_sum(&table, column).to_bits(), bits, "{column}");
        let loop_secs = median_secs(reps, || f64_loop_sum(&table, column));
        let fold_secs = median_secs(reps, || execute_vectorized(&table, &query));
        let speedup = loop_secs / fold_secs;
        if form == "delta" {
            delta_speedup = speedup;
        }
        println!(
            "  {column:>8} {form:>6} {:>8.0} µs {:>8.0} µs {speedup:>7.2}x",
            loop_secs * 1e6,
            fold_secs * 1e6,
        );
        json.push(
            &format!("e17_int_sum_{form}"),
            &[
                ("rows", rows as f64),
                ("f64_loop_secs", loop_secs),
                ("i64_fold_secs", fold_secs),
            ],
        );
    }
    assert!(
        delta_speedup >= 2.0,
        "the i64 fold of a delta column must be >=2x the f64 loop, got {delta_speedup:.2}x"
    );
    println!("\n  delta column >=2x the f64 loop, every answer the oracle's bits: ok");
}

/// Open-block sizes `open_vs_sealed` measures: a young block, half of
/// one, and one just short of the 65 536-row seal.
const OPEN_SIZES: [usize; 3] = [8_192, 32_768, 65_000];

/// Sealed rows `int_sum` sums.
const INT_SUM_ROWS: usize = 1_000_000;

fn main() {
    let mut json = BenchJson::new(&["e17_"]);

    // CI smoke: small scale, correctness asserts only (the timing ratios
    // are asserted in the full run, where the scale makes them stable).
    if std::env::args().any(|a| a == "--scan-only") {
        header("E17", "vectorized scan + kept-image smoke (--scan-only)");
        let (row, vec) = scan_kernels(30_000, 2, false, &mut json);
        open_vs_sealed(&OPEN_SIZES, 15, &mut json);
        int_sum(INT_SUM_ROWS, 15, &mut json);
        heap_vs_mapped(30_000, 2, false, &mut json);
        kept_image(30_000, &mut json);
        println!(
            "\n  smoke mix: row-wise {} vs vectorized {}; scan paths healthy: ok",
            fmt_dur(row),
            fmt_dur(vec)
        );
        json.write();
        return;
    }

    header(
        "E17",
        "vectorized in-place scans over mapped blocks + a kept image",
    );
    scan_kernels(600_000, 5, true, &mut json);
    open_vs_sealed(&OPEN_SIZES, 31, &mut json);
    int_sum(INT_SUM_ROWS, 31, &mut json);
    heap_vs_mapped(600_000, 5, true, &mut json);
    kept_image(300_000, &mut json);
    json.write();
}
