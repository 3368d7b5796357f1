//! Differential tests: the vectorized executor must return results
//! identical to the row-wise oracle — groups, aggregate states, and every
//! scan statistic — across encodings, null patterns, mapped/heap
//! backings, and arbitrary queries. Zone-map pruning must never change
//! answers (a zone-stripped table gives the same groups/row counts).
//!
//! "Identical" is `LeafQueryResult == LeafQueryResult`: `AggState` compares
//! its `f64`s with `==`, and the two executors add the same values in the
//! same order — each block into fresh states, the blocks merged in block
//! order — so sums and means agree to the bit. The same holds when the
//! blocks are scanned on several threads, as the leaf scans them, and
//! where an integer sum is folded in `i64` instead: the `big` column's
//! values straddle the bound that decides it (`n · max |v| ≤ 2^53`), up
//! to the ends of `i64`, in every stored form.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::option;
use proptest::prelude::*;

use scuba_columnstore::encoding::CompressionCode;
use scuba_columnstore::scan::remap_block;
use scuba_columnstore::{
    ColumnData, ColumnType, Row, RowBlock, RowBlockColumn, RowBlockHeader, Schema, Table, Value,
    TIME_COLUMN,
};
use scuba_query::{
    execute, execute_vectorized, plan_scan, scan_block, AggSpec, AggState, CmpOp, Filter,
    LeafQueryResult, PartialMerge, Query, ScanCounts,
};
use scuba_restart::fan_out_in_order;

/// The bit pattern of every f64 a result holds, group by group — `==` on
/// the results themselves would let `0.0 == -0.0` through.
fn float_bits(r: &LeafQueryResult) -> Vec<Vec<Option<u64>>> {
    let bits = |s: &AggState| match s {
        AggState::Sum(v) | AggState::Avg { sum: v, .. } => Some(v.to_bits()),
        AggState::Min(v) | AggState::Max(v) => v.map(f64::to_bits),
        _ => None,
    };
    r.groups
        .values()
        .map(|states| states.iter().map(bits).collect())
        .collect()
}

/// The leaf's scan of `q` over `t` at `width` workers: each planned block
/// one job of the copy pool, each partial merged once every earlier
/// block's is. At width 1 it is the vectorized executor's loop.
fn execute_at_width(t: &Table, q: &Query, width: usize) -> (LeafQueryResult, ScanCounts) {
    let plan = plan_scan(t, q).unwrap();
    let (blocks, columns) = (&plan.blocks, q.columns_read());
    let mut merge = PartialMerge::new(&plan);
    fan_out_in_order(
        width,
        |i| (i < blocks.len()).then_some(Ok(i)),
        |i| scan_block(&blocks[i], q, &columns),
        |_| {},
        |p| {
            merge.push(p);
            Ok(())
        },
    )
    .unwrap();
    merge.finish()
}

/// Rows exercising every column type with independent null patterns:
/// `n` (int, sometimes null), `d` (double, sometimes null), `s` (string
/// via dictionary), `tags` (string set), plus schema drift (`extra` only
/// on some rows).
fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
    vec(
        (
            0i64..2000,             // time
            option::of(-50i64..50), // n
            option::of(0i32..400),  // d (scaled to double)
            option::of(0u8..6),     // s -> "s<k>"
            option::of(0u8..3),     // tags
            any::<bool>(),          // extra present?
        ),
        1..250,
    )
    .prop_map(|tuples| {
        tuples
            .into_iter()
            .map(|(t, n, d, s, tags, extra)| {
                let mut row = Row::at(t);
                if let Some(n) = n {
                    row.set("n", n);
                }
                if let Some(d) = d {
                    row.set("d", d as f64 / 8.0);
                }
                if let Some(s) = s {
                    row.set("s", format!("s{s}"));
                }
                if let Some(k) = tags {
                    row.set("tags", Value::set([format!("t{k}"), "all".to_string()]));
                }
                if extra {
                    row.set("extra", 1i64);
                }
                row
            })
            .collect()
    })
}

fn arb_literal() -> impl Strategy<Value = Value> {
    (0u8..5, -60i64..60, 0i32..400, 0u8..8, 0u8..3).prop_map(|(kind, i, d, s, t)| match kind {
        0 => Value::Int(i),
        1 => Value::Double(d as f64 / 8.0),
        2 => Value::Str(format!("s{s}")),
        3 => Value::Str("all".into()),
        _ => Value::set([format!("t{t}"), "all".to_string()]),
    })
}

const OPS: [CmpOp; 7] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
    CmpOp::Contains,
];

const COLUMNS: [&str; 8] = [
    "n",
    "d",
    "s",
    "tags",
    "extra",
    "missing",
    TIME_COLUMN,
    "big",
];

fn arb_op() -> impl Strategy<Value = CmpOp> {
    (0usize..OPS.len()).prop_map(|i| OPS[i])
}

fn arb_column() -> impl Strategy<Value = &'static str> {
    (0usize..COLUMNS.len()).prop_map(|i| COLUMNS[i])
}

/// Every aggregate kind over every column type (and a column no block
/// has); a query takes a random handful.
fn agg_pool() -> Vec<AggSpec> {
    vec![
        AggSpec::Count,
        AggSpec::Sum("n".into()),
        AggSpec::Sum("d".into()),
        AggSpec::Min("d".into()),
        AggSpec::Max("n".into()),
        AggSpec::Avg("d".into()),
        AggSpec::Avg("extra".into()),
        AggSpec::Min(TIME_COLUMN.into()),
        AggSpec::p50("d"),
        AggSpec::p99("n"),
        AggSpec::CountDistinct("s".into()),
        AggSpec::CountDistinct("n".into()),
        AggSpec::CountDistinct("d".into()),
        AggSpec::CountDistinct("tags".into()),
        AggSpec::Sum("s".into()),
        AggSpec::Max("missing".into()),
        AggSpec::Sum("big".into()),
        AggSpec::Avg("big".into()),
    ]
}

/// A deterministic scramble of `i`.
fn mix(i: u64) -> u64 {
    let mut x = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Magnitudes of the `big` column: `2^53` over block sizes the tests
/// seal (so a block's sum falls either side of the exactness bound), then
/// far past it.
const BIG: [i64; 7] = [
    (1 << 53) / 16,
    (1 << 53) / 40,
    (1 << 53) / 64,
    (1 << 53) / 100,
    (1 << 53) / 128,
    1 << 62,
    i64::MAX,
];

/// Give each row a `big` cell (one in five null) near `±BIG[scale]`,
/// shaped per run of 40 rows so blocks come out in each form: a chain
/// counting down by one (delta), a scatter over 12 bits (frame of
/// reference), or four values that may include an end of `i64`
/// (dictionary).
fn with_big(rows: Vec<Row>, scale: usize, seed: u64) -> Vec<Row> {
    let m = BIG[scale % BIG.len()];
    let sign = if seed & 1 == 0 { 1 } else { -1 };
    let end = [m - 3, i64::MAX, i64::MIN][(seed >> 1) as usize % 3];
    rows.into_iter()
        .enumerate()
        .map(|(i, r)| {
            let (i, x) = (i as i64, mix(seed ^ i as u64));
            if x % 5 == 0 {
                return r;
            }
            let v = match (i / 40 + seed as i64) % 3 {
                0 => sign * (m - i % 40),
                1 => sign * (m - (x >> 8) as i64 % 4096),
                _ => [m, -m, 7, end][(x >> 8) as usize % 4],
            };
            r.with("big", v)
        })
        .collect()
}

/// The selection-density axis over the `idx` (row number) and `pick`
/// (a permutation of it, mod 1000) columns: none, exactly one row, ~3 %,
/// ~30 %, every row.
fn density_filter(density: u8) -> Filter {
    match density {
        0 => Filter::new("pick", CmpOp::Lt, 0i64),
        1 => Filter::new("idx", CmpOp::Eq, 0i64),
        2 => Filter::new("pick", CmpOp::Lt, 30i64),
        3 => Filter::new("pick", CmpOp::Lt, 300i64),
        _ => Filter::new("pick", CmpOp::Ge, 0i64),
    }
}

/// Aggregates over the doubles `d` (nulls) and `dd` (none) and the
/// dictionaries `s` (nulls) and `ss` (none), the columns the density test
/// also filters and groups on.
fn density_aggs() -> Vec<AggSpec> {
    let mut aggs = vec![
        AggSpec::Count,
        AggSpec::Sum("n".into()),
        AggSpec::CountDistinct("s".into()),
        AggSpec::CountDistinct("ss".into()),
    ];
    for c in ["d", "dd"] {
        aggs.extend([
            AggSpec::Sum(c.into()),
            AggSpec::Avg(c.into()),
            AggSpec::Min(c.into()),
            AggSpec::Max(c.into()),
            AggSpec::p99(c),
            AggSpec::CountDistinct(c.into()),
        ]);
    }
    aggs
}

/// A time range: mostly inside the data's 0..2000 (so time-sorted blocks
/// fall inside, across and outside it), sometimes unbounded on either or
/// both sides.
fn arb_range() -> impl Strategy<Value = (i64, i64)> {
    ((0i64..1000, 1i64..2100), 0u8..8).prop_map(|((from, span), kind)| match kind {
        0 => (i64::MIN, i64::MAX),
        1 => (i64::MIN, from + span),
        2 => (from, i64::MAX),
        _ => (from, from + span),
    })
}

fn arb_query() -> impl Strategy<Value = Query> {
    (
        arb_range(),
        vec((arb_column(), arb_op(), arb_literal()), 0..3),
        option::of(arb_column()),
        option::of(1i64..500),
        vec(0usize..agg_pool().len(), 1..6),
    )
        .prop_map(|((from, to), filters, group_by, bucket, aggs)| {
            let pool = agg_pool();
            let mut q = Query::new("t", from, to)
                .aggregates(aggs.into_iter().map(|i| pool[i].clone()).collect());
            for (c, op, lit) in filters {
                q = q.filter(Filter {
                    column: c.to_string(),
                    op,
                    literal: lit,
                });
            }
            if let Some(g) = group_by {
                q = q.group_by(g);
            }
            if let Some(b) = bucket {
                q = q.bucket_secs(b);
            }
            q
        })
}

/// Build a table sealing every `seal_every` rows (several blocks, varied
/// encodings per block), leaving any tail unsealed.
fn build_table(rows: &[Row], seal_every: usize) -> Table {
    let mut t = Table::new("t", 0);
    for (i, r) in rows.iter().enumerate() {
        t.append(r, 0).unwrap();
        if (i + 1) % seal_every == 0 {
            t.seal(0).unwrap();
        }
    }
    t
}

/// The same table with every sealed block rebuilt onto a shared mapped
/// backing (the shm-resident layout).
fn map_table(t: &Table) -> Table {
    let blocks = t
        .blocks()
        .iter()
        .map(|b| Arc::new(remap_block(b).unwrap()))
        .collect();
    Table::from_blocks("t", blocks, 0)
}

proptest! {
    // Default config (64 cases per run here): CI's scan-kernels leg raises
    // it with PROPTEST_CASES, which an explicit `with_cases` would ignore.

    /// Vectorized == row-wise, bit for bit, over heap and mapped backings.
    #[test]
    fn vectorized_equals_row_wise(
        mut rows in arb_rows(),
        sorted in any::<bool>(),
        q in arb_query(),
        seal_every in 20usize..120,
        width in 2usize..=8,
        (scale, seed) in (0usize..BIG.len(), any::<u64>()),
    ) {
        // Time-sorted rows give blocks with disjoint time ranges, so the
        // query's range contains some, cuts through some and misses some.
        if sorted {
            rows.sort_by_key(Row::time);
        }
        let rows = with_big(rows, scale, seed);
        let heap = build_table(&rows, seal_every);
        let row_wise = execute(&heap, &q).unwrap();
        let vec_wise = execute_vectorized(&heap, &q).unwrap();
        prop_assert_eq!(&row_wise, &vec_wise);
        prop_assert_eq!(float_bits(&row_wise), float_bits(&vec_wise));

        let mapped = map_table(&heap);
        let vec_mapped = execute_vectorized(&mapped, &q).unwrap();
        let row_mapped = execute(&mapped, &q).unwrap();
        prop_assert_eq!(&row_mapped, &vec_mapped);
        // Backing never changes answers (the mapped table holds only the
        // sealed blocks, so compare against a sealed-only heap table).
        let heap_sealed = Table::from_blocks("t", heap.blocks().to_vec(), 0);
        prop_assert_eq!(&execute(&heap_sealed, &q).unwrap(), &vec_mapped);

        // Scanned on `width` threads, blocks merged in block order: the
        // same answer and the same scan counts as the one-thread loop.
        for t in [&heap, &mapped] {
            let one = execute_at_width(t, &q, 1);
            let many = execute_at_width(t, &q, width);
            prop_assert_eq!(&one, &many);
            prop_assert_eq!(float_bits(&one.0), float_bits(&many.0));
            prop_assert_eq!(&one.0, &execute_vectorized(t, &q).unwrap());
        }
        prop_assert_eq!(&execute_at_width(&heap, &q, width).0, &row_wise);
    }

    /// Vectorized == row-wise at every selection density — none, one row,
    /// ~3 %, ~30 %, all — with double and dictionary aggregate and group
    /// columns, with and without nulls, that are or are not also filter
    /// columns: a double input is then gathered from its lanes or read
    /// from the array its filter unshuffled, and a second filter runs its
    /// kernel over words the first left partly selected.
    #[test]
    fn vectorized_equals_row_wise_at_every_selection_density(
        rows in arb_rows(),
        density in 0u8..5,
        also in option::of((0usize..4, arb_op(), 0i32..50)),
        group_by in option::of(0usize..5),
        aggs in vec(0usize..density_aggs().len(), 1..5),
        seal_every in 20usize..120,
    ) {
        let rows: Vec<Row> = rows
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let i = i as i64;
                r.with("idx", i)
                    .with("pick", (i * 7919) % 1000)
                    .with("dd", ((i * 37) % 400) as f64 / 8.0)
                    .with("ss", format!("s{}", (i * 13) % 6))
            })
            .collect();
        let pool = density_aggs();
        let mut q = Query::new("t", i64::MIN, i64::MAX)
            .filter(density_filter(density))
            .aggregates(aggs.into_iter().map(|i| pool[i].clone()).collect());
        // A literal of the column's own type, so the second filter runs
        // its kernel instead of clearing the selection.
        if let Some((c, op, k)) = also {
            let column = ["d", "dd", "s", "ss"][c];
            q = q.filter(if c < 2 {
                Filter::new(column, op, k as f64)
            } else {
                Filter::new(column, op, format!("s{}", k % 6))
            });
        }
        if let Some(g) = group_by {
            q = q.group_by(["s", "ss", "d", "dd", "n"][g]);
        }
        let heap = build_table(&rows, seal_every);
        let row_wise = execute(&heap, &q).unwrap();
        let vec_wise = execute_vectorized(&heap, &q).unwrap();
        prop_assert_eq!(&row_wise, &vec_wise);
        prop_assert_eq!(float_bits(&row_wise), float_bits(&vec_wise));
        let mapped = map_table(&heap);
        let heap_sealed = Table::from_blocks("t", heap.blocks().to_vec(), 0);
        let vec_mapped = execute_vectorized(&mapped, &q).unwrap();
        prop_assert_eq!(&execute(&heap_sealed, &q).unwrap(), &vec_mapped);
    }

    /// The open block answers as its sealed form: a table whose tail is
    /// still open gives the rows, groups and f64 bits of the same table
    /// with the tail sealed, and of the row-wise oracle, at any width. Its
    /// pruning follows the sealed rule — the open block never counts as
    /// time-pruned, and it is zone-pruned exactly when its sealed form is
    /// — and it decodes nothing: the scan counts no value decoded beyond
    /// what the sealed blocks alone decode.
    #[test]
    fn an_open_tail_answers_as_its_sealed_form(
        mut rows in arb_rows(),
        sorted in any::<bool>(),
        q in arb_query(),
        seal_every in 20usize..120,
        width in 1usize..=8,
        (scale, seed) in (0usize..BIG.len(), any::<u64>()),
    ) {
        if sorted {
            rows.sort_by_key(Row::time);
        }
        let rows = with_big(rows, scale, seed);
        let open = build_table(&rows, seal_every);
        let mut sealed = open.clone();
        sealed.seal(0).unwrap();
        let (got, counts) = execute_at_width(&open, &q, width);
        let want = execute_vectorized(&sealed, &q).unwrap();
        prop_assert_eq!(&got, &execute(&open, &q).unwrap());
        prop_assert_eq!(float_bits(&got), float_bits(&want));
        let tail_time_pruned = open.unsealed_rows() > 0
            && !sealed.blocks().last().unwrap().overlaps_time(q.time_from, q.time_to);
        prop_assert_eq!(got.blocks_pruned + u64::from(tail_time_pruned), want.blocks_pruned);
        prop_assert_eq!(
            &LeafQueryResult { blocks_pruned: want.blocks_pruned, ..got.clone() },
            &want
        );
        let sealed_only = Table::from_blocks("t", open.blocks().to_vec(), 0);
        let (_, sealed_counts) = execute_at_width(&sealed_only, &q, 1);
        prop_assert_eq!(counts.values_decoded, sealed_counts.values_decoded);
    }

    /// Zone-map pruning is invisible: stripping zones changes only the
    /// pruning counters, never groups or matched rows.
    #[test]
    fn zone_pruning_never_changes_answers(rows in arb_rows(), q in arb_query(), seal_every in 20usize..120) {
        let t = build_table(&rows, seal_every);
        let stripped_blocks = t
            .blocks()
            .iter()
            .map(|b| {
                Arc::new(
                    scuba_columnstore::RowBlock::from_parts(
                        *b.header(),
                        b.schema().clone(),
                        b.columns().to_vec(),
                    )
                    .unwrap(),
                )
            })
            .collect();
        let stripped = Table::from_blocks("t", stripped_blocks, 0);
        let sealed = Table::from_blocks("t", t.blocks().to_vec(), 0);

        let with_zones = execute_vectorized(&sealed, &q).unwrap();
        let without = execute_vectorized(&stripped, &q).unwrap();
        prop_assert_eq!(&with_zones.groups, &without.groups);
        prop_assert_eq!(with_zones.rows_matched, without.rows_matched);
        // (Missing-column and cross-type pruning need no statistics, so
        // the stripped table may still prune some blocks.)
        prop_assert!(without.blocks_zonemap_pruned <= with_zones.blocks_zonemap_pruned);
        // Pruned blocks can only reduce work, never add it.
        prop_assert!(with_zones.rows_scanned <= without.rows_scanned);
    }
}

// ---------------------------------------------------------------------------
// Fixed cases: the shapes the slot-indexed fold and the header-answered
// time range special-case, each against the row-wise oracle.
// ---------------------------------------------------------------------------

/// Both executors over `t` and over its mapped twin, whole results.
fn assert_same(t: &Table, q: &Query) {
    let row_wise = execute(t, q).unwrap();
    let vec_wise = execute_vectorized(t, q).unwrap();
    assert_eq!(row_wise, vec_wise, "heap, {q:?}");
    assert_eq!(float_bits(&row_wise), float_bits(&vec_wise), "heap, {q:?}");
    let mapped = map_table(t);
    assert_eq!(
        execute(&mapped, q).unwrap(),
        execute_vectorized(&mapped, q).unwrap(),
        "mapped, {q:?}"
    );
}

/// A sealed block of `times.len()` rows whose time column holds the given
/// cells (`None` = a null timestamp, which the builder can never produce)
/// and whose header bounds cover the non-null ones, as a writer's would.
fn block_with_times(times: &[Option<i64>]) -> RowBlock {
    let mut t = Table::new("t", 0);
    for (i, _) in times.iter().enumerate() {
        t.append(
            &Row::at(0)
                .with("n", i as i64)
                .with("s", format!("k{}", i % 5)),
            0,
        )
        .unwrap();
    }
    t.seal(0).unwrap();
    let built = &t.blocks()[0];
    let mut time = ColumnData::new(ColumnType::Int64);
    for cell in times {
        match cell {
            Some(v) => time.push(Value::Int(*v)).unwrap(),
            None => time.push_null(),
        }
    }
    let mut columns = built.columns().to_vec();
    columns[built.schema().index_of(TIME_COLUMN).unwrap()] = RowBlockColumn::encode(&time).unwrap();
    let mut header = *built.header();
    header.min_time = times.iter().flatten().copied().min().unwrap();
    header.max_time = times.iter().flatten().copied().max().unwrap();
    RowBlock::from_parts(header, built.schema().clone(), columns).unwrap()
}

/// Four time-disjoint sealed blocks (100 rows each at 0.., 1000.., 2000..,
/// 3000..) plus an unsealed tail; `late` exists only from the third block
/// on; `wide` is a string column with 350 distinct values and some nulls.
fn epochs_table() -> Table {
    let mut t = Table::new("t", 0);
    let row = |time: i64, i: i64| {
        let mut row = Row::at(time);
        if i % 3 != 0 {
            row.set("n", i % 11 - 5);
        }
        if i % 4 != 0 {
            row.set("d", i as f64 * 0.37 + 1e-7 * ((i * 37) % 11) as f64);
        }
        if i % 7 != 0 {
            row.set("wide", format!("w{:03}", (i * 13) % 350));
        }
        if i % 5 != 4 {
            row.set("s", format!("s{}", i % 6));
        }
        if i % 6 == 0 {
            row.set(
                "tags",
                Value::set([format!("t{}", i % 3), "all".to_string()]),
            );
        }
        row
    };
    for epoch in 0..4i64 {
        for i in 0..400i64 {
            let mut r = row(epoch * 1000 + i / 4, epoch * 400 + i);
            if epoch >= 2 {
                r.set("late", i);
            }
            t.append(&r, 0).unwrap();
        }
        t.seal(0).unwrap();
    }
    for i in 0..30i64 {
        t.append(&row(4000 + i, 1600 + i), 0).unwrap();
    }
    t
}

#[test]
fn time_range_against_block_headers() {
    let t = epochs_table();
    let aggs = vec![AggSpec::Count, AggSpec::Sum("d".into())];
    for (from, to) in [
        (i64::MIN, i64::MAX), // every block inside
        (0, 5000),
        (1000, 3100),     // blocks 1–2 inside, 3 cut at its first row, 0 outside
        (1000, 3099 + 1), // exclusive bound exactly past block 3's max
        (1050, 2050),     // cuts through two blocks, contains none
        (999, 1000),      // empty in data
        (1099, 1100),     // a block's last second only
        (4010, 4020),     // the unsealed tail only
        (5000, 6000),     // outside everything
    ] {
        for q in [
            Query::new("t", from, to),
            Query::new("t", from, to).aggregates(aggs.clone()),
            Query::new("t", from, to).bucket_secs(64),
            Query::new("t", from, to)
                .group_by("s")
                .aggregates(aggs.clone()),
            Query::new("t", from, to).filter(Filter::new(TIME_COLUMN, CmpOp::Ge, 1010i64)),
            Query::new("t", from, to).aggregates(vec![AggSpec::Max(TIME_COLUMN.into())]),
        ] {
            assert_same(&t, &q);
        }
    }
}

/// A block whose `time` column holds doubles. No writer produces one, but
/// `from_parts` accepts it, and both executors read every such timestamp
/// as i64::MIN — whatever the header claims.
fn block_with_double_times(rows: usize) -> RowBlock {
    let mut schema = Schema::new();
    schema.add_column(TIME_COLUMN, ColumnType::Double).unwrap();
    let mut time = ColumnData::new(ColumnType::Double);
    for i in 0..rows {
        time.push(Value::Double(10.0 + i as f64)).unwrap();
    }
    let header = RowBlockHeader {
        size_bytes: 0, // recomputed by from_parts
        row_count: rows as u32,
        min_time: 10,
        max_time: 10 + rows as i64,
        created_at: 0,
    };
    RowBlock::from_parts(header, schema, vec![RowBlockColumn::encode(&time).unwrap()]).unwrap()
}

#[test]
fn null_timestamps_are_never_answered_by_the_header() {
    // Header bounds [10, 30] lie inside every range below, but rows 1 and
    // 3 have no timestamp: they read as i64::MIN, inside only a range
    // that starts there.
    let nulls = block_with_times(&[Some(10), None, Some(20), None, Some(30), Some(12)]);
    let full = block_with_times(&[Some(11), Some(12), Some(13), Some(14)]);
    let doubles = block_with_double_times(3);
    let blocks = vec![Arc::new(nulls), Arc::new(full), Arc::new(doubles)];
    let t = Table::from_blocks("t", blocks, 0);
    for (from, to) in [(0, 100), (i64::MIN, 100), (i64::MIN, i64::MAX), (15, 25)] {
        for q in [
            Query::new("t", from, to),
            Query::new("t", from, to).group_by("s"),
            Query::new("t", from, to).bucket_secs(64),
            Query::new("t", from, to)
                .bucket_secs(8)
                .group_by("s")
                .aggregates(vec![AggSpec::Count, AggSpec::Min(TIME_COLUMN.into())]),
            Query::new("t", from, to).filter(Filter::new(TIME_COLUMN, CmpOp::Lt, 25i64)),
        ] {
            assert_same(&t, &q);
        }
    }
    // The null rows are real rows: counted from i64::MIN, not otherwise.
    let count = |from| {
        execute_vectorized(&t, &Query::new("t", from, 100))
            .unwrap()
            .rows_matched
    };
    assert_eq!(count(i64::MIN), 13);
    assert_eq!(count(0), 8);
}

#[test]
fn group_sources_and_buckets() {
    let t = epochs_table();
    let aggs = vec![
        AggSpec::Count,
        AggSpec::Sum("d".into()),
        AggSpec::Avg("n".into()),
    ];
    for group in [
        None,
        Some("wide"),    // dictionary, 350 entries, nulls: the slot table
        Some("s"),       // small dictionary
        Some("n"),       // integers: boxed keys
        Some("d"),       // doubles group under Null
        Some("tags"),    // string sets: boxed keys
        Some("late"),    // absent from the first two blocks
        Some("missing"), // absent everywhere
        Some(TIME_COLUMN),
    ] {
        for bucket in [None, Some(1), Some(7), Some(250), Some(100_000)] {
            for filter in [None, Some(Filter::new("n", CmpOp::Ge, 0i64))] {
                let mut q = Query::new("t", 500, 3500).aggregates(aggs.clone());
                if let Some(g) = group {
                    q = q.group_by(g);
                }
                if let Some(b) = bucket {
                    q = q.bucket_secs(b);
                }
                if let Some(f) = filter {
                    q = q.filter(f);
                }
                assert_same(&t, &q);
            }
        }
    }
}

#[test]
fn every_aggregate_over_every_column_type() {
    let t = epochs_table();
    let columns = [
        "n",
        "d",
        "wide",
        "s",
        "tags",
        "late",
        "missing",
        TIME_COLUMN,
    ];
    for c in columns {
        let aggs = vec![
            AggSpec::Count,
            AggSpec::Sum(c.into()),
            AggSpec::Min(c.into()),
            AggSpec::Max(c.into()),
            AggSpec::Avg(c.into()),
            AggSpec::p50(c),
            AggSpec::Percentile(c.into(), 0.99),
            AggSpec::CountDistinct(c.into()),
        ];
        for q in [
            Query::new("t", 0, 5000).aggregates(aggs.clone()),
            Query::new("t", 0, 5000)
                .group_by("s")
                .aggregates(aggs.clone()),
            Query::new("t", 0, 5000)
                .group_by("wide")
                .aggregates(aggs.clone()),
            Query::new("t", 0, 5000)
                .bucket_secs(300)
                .group_by("n")
                .aggregates(aggs.clone()),
            Query::new("t", 1050, 3050)
                .filter(Filter::new("s", CmpOp::Ne, "s2"))
                .aggregates(aggs),
        ] {
            assert_same(&t, &q);
        }
    }
}

#[test]
fn one_double_column_filters_and_aggregates() {
    // The filter unshuffles `d`; every aggregate then reads that array
    // instead of gathering, grouped and not, bucketed and not.
    let t = epochs_table();
    let aggs = vec![
        AggSpec::Count,
        AggSpec::Sum("d".into()),
        AggSpec::Avg("d".into()),
        AggSpec::Min("d".into()),
        AggSpec::Max("d".into()),
        AggSpec::p50("d"),
        AggSpec::CountDistinct("d".into()),
    ];
    for group in [None, Some("s"), Some("wide"), Some("d")] {
        for bucket in [None, Some(250)] {
            for (op, bound) in [(CmpOp::Ge, 100.0f64), (CmpOp::Lt, 5.0), (CmpOp::Ne, -1.0)] {
                let mut q = Query::new("t", 0, 5000)
                    .filter(Filter::new("d", op, bound))
                    .aggregates(aggs.clone());
                if let Some(g) = group {
                    q = q.group_by(g);
                }
                if let Some(b) = bucket {
                    q = q.bucket_secs(b);
                }
                assert_same(&t, &q);
            }
        }
    }
}

#[test]
fn second_filters_over_partly_selected_words() {
    // A first filter leaves words ~3 %, ~30 % and ~70 % selected; the
    // second then runs over null-free integer, double and dictionary
    // columns, where a word with enough rows left is tested as a run.
    let rows: Vec<Row> = (0..500i64)
        .map(|i| {
            Row::at(i)
                .with("pick", (i * 7919) % 1000)
                .with("nn", i % 7)
                .with("dd", (i % 11) as f64 * 0.5)
                .with("ss", format!("s{}", (i * 13) % 6))
        })
        .collect();
    let t = build_table(&rows, 200);
    for bound in [30i64, 300, 700] {
        for second in [
            Filter::new("nn", CmpOp::Ge, 3i64),
            Filter::new("dd", CmpOp::Lt, 2.5f64),
            Filter::new("ss", CmpOp::Eq, "s3"),
            Filter::new("ss", CmpOp::Ne, "s1"),
        ] {
            let q = Query::new("t", i64::MIN, i64::MAX)
                .filter(Filter::new("pick", CmpOp::Lt, bound))
                .filter(second)
                .aggregates(vec![AggSpec::Count, AggSpec::Sum("dd".into())]);
            assert_same(&t, &q);
        }
    }
}

/// The `big` column at every magnitude, sealed in blocks of 20 to 120
/// rows (each form among them) with an open tail: ungrouped `Sum` and
/// `Avg` over all of it and over a third of its rows answer with the
/// oracle's bits at every width, open and sealed alike.
#[test]
fn integer_sums_keep_their_bits_across_the_bound() {
    let aggs = vec![
        AggSpec::Count,
        AggSpec::Sum("big".into()),
        AggSpec::Avg("big".into()),
    ];
    let queries = [
        Query::new("t", i64::MIN, i64::MAX).aggregates(aggs.clone()),
        Query::new("t", i64::MIN, i64::MAX)
            .filter(Filter::new("pick", CmpOp::Lt, 333i64))
            .aggregates(aggs),
    ];
    let mut forms = [false; 3];
    for scale in 0..BIG.len() {
        for seed in 0..6u64 {
            let rows: Vec<Row> = (0..701i64)
                .map(|i| Row::at(i).with("pick", (i * 7919) % 1000))
                .collect();
            let rows = with_big(rows, scale, seed);
            let seal_every = [20, 40, 64, 100, 120][seed as usize % 5];
            let open = build_table(&rows, seal_every);
            assert!(open.unsealed_rows() > 0);
            let mut sealed = open.clone();
            sealed.seal(0).unwrap();
            for block in sealed.blocks() {
                let code = block.column("big").unwrap().compression().unwrap();
                let form = match (
                    code.has(CompressionCode::FOR),
                    code.has(CompressionCode::DICTIONARY),
                ) {
                    (true, _) => 1,
                    (_, true) => 2,
                    _ => 0,
                };
                forms[form] = true;
            }
            for q in &queries {
                let want = execute(&sealed, q).unwrap();
                for t in [&open, &sealed] {
                    assert_eq!(execute(t, q).unwrap(), want);
                    for width in 1..=8 {
                        let (got, _) = execute_at_width(t, q, width);
                        assert_eq!(got, want, "scale {scale} seed {seed} width {width}");
                        assert_eq!(
                            float_bits(&got),
                            float_bits(&want),
                            "scale {scale} seed {seed}"
                        );
                    }
                }
            }
        }
    }
    assert_eq!(forms, [true; 3], "delta, frame of reference, dictionary");
}
