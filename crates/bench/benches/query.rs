//! Criterion micro-bench for E12: leaf-local query latency on the
//! production (vectorized) executor — full scans, a filtered group-by, a
//! 100-key group-by, a bucketed series, a pruned time slice — with one
//! row-wise series for contrast, plus aggregator merging.
//!
//! `cargo bench -p scuba-bench --bench query` (`-- --test` runs each once)

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use scuba::columnstore::Table;
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

criterion_group!(benches, bench_queries, bench_merge);
criterion_main!(benches);
