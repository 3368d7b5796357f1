//! Criterion micro-bench for E12: leaf-local query latency on the
//! production (vectorized) executor — full scans, a filtered group-by, a
//! 100-key group-by, a bucketed series, a pruned time slice, and the three
//! selective shapes of the ledger's `scan_mix` — with one row-wise series
//! for contrast, plus decode-only series for each column kernel and
//! aggregator merging.
//!
//! `cargo bench -p scuba-bench --bench query` (`-- --test` runs each once)

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use scuba::columnstore::scan::{sel_all, sel_retain_ids, DictMask, IntCodes};
use scuba::columnstore::{ColumnView, Table};
use scuba::query::{execute, execute_vectorized, merge_partials, AggSpec, CmpOp, Filter, Query};
use scuba_bench::request_rows;

fn build_table(rows: usize) -> Table {
    let mut t = Table::new("requests", 0);
    for r in request_rows(rows, 33) {
        t.append(&r, 0).unwrap();
    }
    t.seal(0).unwrap();
    t
}

fn bench_queries(c: &mut Criterion) {
    let rows = 500_000usize;
    let table = build_table(rows);
    let mut group = c.benchmark_group("leaf_query");
    group.throughput(Throughput::Elements(rows as u64));
    group.sample_size(20);

    let all = || Query::new("requests", 0, i64::MAX);
    // Narrow slice: pruning should make this far cheaper per total row.
    let start = 1_700_000_000;
    let queries = [
        // Answered from block headers: no column is decoded.
        ("count_full_scan", all()),
        (
            "sum_full_scan",
            all().aggregates(vec![AggSpec::Count, AggSpec::Sum("latency_ms".into())]),
        ),
        (
            "filter_group_avg",
            all()
                .filter(Filter::new("status", CmpOp::Ge, 500i64))
                .group_by("endpoint")
                .aggregates(vec![AggSpec::Count, AggSpec::Avg("latency_ms".into())]),
        ),
        // 100 hosts: the dictionary slot table.
        ("group_by_host", all().group_by("host")),
        ("bucketed_series", all().bucket_secs(60)),
        (
            "narrow_time_slice",
            Query::new("requests", start + 100, start + 130),
        ),
        // The ledger's scan_mix shapes. A ~2 % selective mean: the double
        // input is gathered at the kept rows only.
        (
            "selective_avg",
            all()
                .filter(Filter::new("status", CmpOp::Eq, 500i64))
                .aggregates(vec![AggSpec::Count, AggSpec::Avg("latency_ms".into())]),
        ),
        // Two filters, the second over packed dictionary ids, then a
        // dictionary group key and a gathered sum.
        (
            "two_filter_group_host",
            all()
                .filter(Filter::new("status", CmpOp::Eq, 200i64))
                .filter(Filter::new("endpoint", CmpOp::Eq, "/feed"))
                .group_by("host")
                .aggregates(vec![AggSpec::Count, AggSpec::Sum("latency_ms".into())]),
        ),
        // A percentile sketch over half the rows (the first half of the
        // time span): the histogram fold.
        (
            "p99_half",
            Query::new("requests", 0, start + rows as i64 / 2000)
                .aggregates(vec![AggSpec::Count, AggSpec::p99("latency_ms")]),
        ),
    ];
    for (name, query) in &queries {
        group.bench_function(*name, |b| {
            b.iter(|| execute_vectorized(&table, std::hint::black_box(query)).unwrap())
        });
    }
    // The oracle on the same grouped query: what per-row boxing costs.
    let (_, by_host) = &queries[3];
    group.bench_function("group_by_host/row_wise", |b| {
        b.iter(|| execute(&table, std::hint::black_box(by_host)).unwrap())
    });
    group.finish();
}

/// One column kernel at a time, over the same table's first block: what a
/// view costs to build, and what reading its values then costs.
fn bench_decode(c: &mut Criterion) {
    let table = build_table(500_000);
    let block = &table.blocks()[0];
    let column = |name| block.column(name).expect("requests column");
    let rows = block.row_count();
    let mut group = c.benchmark_group("decode");
    group.throughput(Throughput::Elements(rows as u64));
    group.sample_size(20);
    // Delta chain (`time`): decoded in full on first read.
    group.bench_function("int_delta", |b| {
        b.iter(|| {
            let view = ColumnView::build(black_box(column("time"))).unwrap();
            let ColumnView::Int64 { ints, .. } = &view else {
                unreachable!("time is an integer column")
            };
            black_box(ints.values().unwrap().len())
        })
    });
    // Integer dictionary (`status`, four values): filtered on its packed
    // ids, nothing decoded.
    group.bench_function("int_dict_filter", |b| {
        b.iter(|| {
            let view = ColumnView::build(black_box(column("status"))).unwrap();
            let ColumnView::Int64 { presence, ints } = &view else {
                unreachable!("status is an integer column")
            };
            let IntCodes::Dict { entries, ids } = ints.codes() else {
                unreachable!("four status values make a dictionary")
            };
            let mask = DictMask::build(entries, |&v| v == 500);
            let mut sel = sel_all(rows);
            sel_retain_ids(&mut sel, presence.as_ref(), ids, &mask).unwrap();
            black_box(sel)
        })
    });
    group.bench_function("double_full", |b| {
        b.iter(|| {
            let view = ColumnView::build(black_box(column("latency_ms"))).unwrap();
            let ColumnView::Double { lanes, .. } = &view else {
                unreachable!()
            };
            black_box(lanes.values().len())
        })
    });
    group.bench_function("double_gather_3pct", |b| {
        b.iter(|| {
            let view = ColumnView::build(black_box(column("latency_ms"))).unwrap();
            let ColumnView::Double { lanes, .. } = &view else {
                unreachable!()
            };
            let sum: f64 = (0..lanes.len()).step_by(33).map(|d| lanes.get(d)).sum();
            black_box(sum)
        })
    });
    group.bench_function("dict_ids", |b| {
        b.iter(|| {
            let view = ColumnView::build(black_box(column("host"))).unwrap();
            let ColumnView::Dict {
                presence,
                ids,
                entries,
            } = &view
            else {
                unreachable!("host is a string column")
            };
            let mask = DictMask::build(entries, |e| e == "web007");
            let mut sel = sel_all(rows);
            sel_retain_ids(&mut sel, presence.as_ref(), ids, &mask).unwrap();
            black_box(sel)
        })
    });
    group.finish();
}

fn bench_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("aggregator_merge");
    let q = Query::new("requests", 0, i64::MAX)
        .group_by("endpoint")
        .aggregates(vec![
            AggSpec::Count,
            AggSpec::Sum("latency_ms".into()),
            AggSpec::Max("latency_ms".into()),
        ]);
    // 64 leaves' partials, ~8 groups each (Figure 1's fan-in).
    let table = build_table(20_000);
    let partial = execute_vectorized(&table, &q).unwrap();
    let partials: Vec<_> = (0..64).map(|_| partial.clone()).collect();
    group.throughput(Throughput::Elements(64));
    group.bench_function("merge_64_leaves", |b| {
        b.iter(|| merge_partials(&q.aggregates, 64, std::hint::black_box(&partials)))
    });
    group.finish();
}

criterion_group!(benches, bench_queries, bench_decode, bench_merge);
criterion_main!(benches);
