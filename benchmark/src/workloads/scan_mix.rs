//! `scan_mix`: reads only.
//!
//! An in-process leaf holds one `requests` and one `dense` table. A *pass*
//! is six queries in fixed order, each using the same executor
//! differently (prune-, kernel- or fold-dominated). Each measured cycle
//! parks the leaf in shared memory and starts it again without hydrating:
//! pass 1 runs on never-touched mapped bytes (first touch), passes 2–5 on
//! touched mapped bytes (steady mapped); then the leaf hydrates and the
//! remaining passes run on heap blocks (hot). A last phase restarts the
//! leaf under a memory budget of a quarter of its resident set, so every
//! pass runs over demoted cold blocks. Every answer in every phase equals
//! the generator's brute-force recount.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::child::own_peak_rss_mib;
use crate::gen::{self, Agg, Answer, Lit, Op, QuerySpec, Records, Shape};
use crate::hygiene::Hygiene;
use crate::stats::{median, ms, Summary};
use crate::sut::{Leaf, LeafOpts, RowBatch};
use crate::trace::Tracer;
use crate::workloads::{
    lower_quartile, note, Ctx, CycleOps, EndToEnd, Outcome, Tally, Window, LOAD_CHUNK, NOW,
};

const ROWS_PER_TABLE: usize = 1_000_000;
/// Passes over mapped blocks per cycle: the first is the first-touch pass.
const MAPPED_PASSES: usize = 5;
/// Passes over heap blocks per cycle.
const HOT_PASSES: usize = 6;
/// Cold passes thrown away while the resident set settles.
const COLD_SETTLE: usize = 5;
/// Share of the measuring time for the attach cycles; the rest is the
/// cold phase.
const CYCLE_SHARE: f64 = 0.7;
/// Percentile the per-layer `op_tail_ms` reports here, over passes.
pub const TAIL_LEVEL: f64 = 90.0;

const QUERY_NAMES: [&str; 6] = [
    "q_status_eq",
    "q_endpoint_eq",
    "q_latency_p99",
    "q_group_host",
    "q_time_slice",
    "q_zone_prune",
];

fn queries(rows: usize) -> Vec<QuerySpec> {
    let end = gen::time_of(rows as u64) + 1;
    let span = end - gen::T0;
    let slice_from = gen::T0 + span / 2;
    let slice = (span / 50).max(4);
    vec![
        // int equality, count + mean: kernel-dominated.
        QuerySpec::count(QUERY_NAMES[0], "requests", 0, i64::MAX)
            .pred("status", Op::Eq, Lit::I(500))
            .aggs(vec![Agg::Count, Agg::Avg("latency_ms".to_owned())]),
        // dictionary equality, count.
        QuerySpec::count(QUERY_NAMES[1], "requests", 0, i64::MAX).pred(
            "endpoint",
            Op::Eq,
            Lit::S("/search".to_owned()),
        ),
        // double comparison, count + sketch: fold-dominated.
        QuerySpec::count(QUERY_NAMES[2], "dense", 0, i64::MAX)
            .pred("score", Op::Ge, Lit::F(0.5))
            .aggs(vec![Agg::Count, Agg::P99("latency_us".to_owned())]),
        // two filters, group by host, count + sum.
        QuerySpec::count(QUERY_NAMES[3], "requests", 0, i64::MAX)
            .pred("status", Op::Eq, Lit::I(200))
            .pred("endpoint", Op::Eq, Lit::S("/feed".to_owned()))
            .group_by("host")
            .aggs(vec![Agg::Count, Agg::Sum("latency_ms".to_owned())]),
        // a 2 % time window as a time series: pruned by block time range.
        QuerySpec::count(QUERY_NAMES[4], "requests", slice_from, slice_from + slice)
            .bucket((slice / 4).max(1)),
        // the newest 5 % by sequence number: pruned by zone map.
        QuerySpec::count(QUERY_NAMES[5], "requests", 0, i64::MAX).pred(
            "seq",
            Op::Ge,
            Lit::I((rows as f64 * 0.95) as i64),
        ),
    ]
}

struct Pass {
    total_ms: f64,
    query_ms: [f64; 6],
    rows_scanned: u64,
    blocks_seen: u64,
    blocks_time_pruned: u64,
    blocks_zonemap_pruned: u64,
}

/// Six queries in order, each checked; one pass is one operation.
fn pass(
    leaf: &Leaf,
    plan: &[(QuerySpec, Answer)],
    tracer: &mut Tracer,
    name: &'static str,
    parent: u64,
    op: u64,
    tally: &mut Tally,
) -> Pass {
    let span = tracer.begin(name, parent, op);
    let started = Instant::now();
    let mut out = Pass {
        total_ms: 0.0,
        query_ms: [0.0; 6],
        rows_scanned: 0,
        blocks_seen: 0,
        blocks_time_pruned: 0,
        blocks_zonemap_pruned: 0,
    };
    let mut verdict = Ok(());
    for (i, (q, want)) in plan.iter().enumerate() {
        let inner = tracer.begin("leaf.query", span.id(), op);
        let got = leaf.query(q);
        out.query_ms[i] = ms(tracer.end(inner));
        match got {
            Ok(got) => {
                out.rows_scanned += got.rows_scanned;
                out.blocks_time_pruned += got.blocks_time_pruned;
                out.blocks_zonemap_pruned += got.blocks_zonemap_pruned;
                out.blocks_seen +=
                    got.blocks_scanned + got.blocks_time_pruned + got.blocks_zonemap_pruned;
                if verdict.is_ok() {
                    verdict = gen::check(q, &got, want);
                }
            }
            Err(e) => verdict = Err(format!("{}: {e}", q.name)),
        }
    }
    out.total_ms = ms(started.elapsed());
    tracer.end(span);
    tally.record(verdict);
    out
}

#[derive(Default)]
struct Samples {
    first_answer: Vec<f64>,
    full_speed: Vec<f64>,
    first_touch: Vec<f64>,
    mapped: Vec<f64>,
    hot: Vec<f64>,
    hot_query: [Vec<f64>; 6],
    pooled_query: Vec<f64>,
    cycle_ops: CycleOps,
    rows_scanned: u64,
    scan_ms: f64,
    blocks_seen: u64,
    blocks_time_pruned: u64,
    blocks_zonemap_pruned: u64,
    memory_path: usize,
    cycles: usize,
}

impl Samples {
    fn count(&mut self, p: &Pass) {
        self.rows_scanned += p.rows_scanned;
        self.scan_ms += p.total_ms;
        self.blocks_seen += p.blocks_seen;
        self.blocks_time_pruned += p.blocks_time_pruned;
        self.blocks_zonemap_pruned += p.blocks_zonemap_pruned;
    }
}

#[allow(clippy::too_many_arguments)]
fn cycle(
    mut leaf: Leaf,
    opts: &LeafOpts,
    plan: &[(QuerySpec, Answer)],
    ctx: &Ctx,
    tracer: &mut Tracer,
    tally: &mut Tally,
    s: &mut Samples,
    op: u64,
) -> Result<Leaf, String> {
    let root = tracer.begin("scan.cycle", 0, op);
    let (mapped_before, hot_before) = (s.mapped.len(), s.hot.len());
    let t0 = Instant::now();
    let span = tracer.begin("leaf.shutdown_to_shm", root.id(), op);
    leaf.shutdown_to_shm(NOW)?;
    drop(leaf);
    tracer.end(span);
    let span = tracer.begin("leaf.start", root.id(), op);
    let (mut leaf, recovery) = Leaf::start(opts, NOW)?;
    tracer.end(span);
    s.memory_path += usize::from(recovery.is_memory());

    let first = pass(
        &leaf,
        plan,
        tracer,
        "scan.first_touch_pass",
        root.id(),
        op,
        tally,
    );
    s.first_answer.push(ms(t0.elapsed()));
    s.first_touch.push(first.total_ms);
    for _ in 1..if ctx.smoke { 2 } else { MAPPED_PASSES } {
        let p = pass(
            &leaf,
            plan,
            tracer,
            "scan.mapped_pass",
            root.id(),
            op,
            tally,
        );
        s.mapped.push(p.total_ms);
        s.pooled_query.extend(p.query_ms);
        s.count(&p);
    }
    let span = tracer.begin("leaf.finish_hydration", root.id(), op);
    leaf.finish_hydration()?;
    tracer.end(span);
    for i in 0..if ctx.smoke { 1 } else { HOT_PASSES } {
        let p = pass(&leaf, plan, tracer, "scan.hot_pass", root.id(), op, tally);
        if i == 0 {
            s.full_speed.push(ms(t0.elapsed()));
        }
        s.hot.push(p.total_ms);
        s.pooled_query.extend(p.query_ms);
        for (q, v) in p.query_ms.iter().enumerate() {
            s.hot_query[q].push(*v);
        }
        s.count(&p);
    }
    tracer.end(root);
    // The cycle's operations: its steady-mapped and hot passes, pooled.
    let mut passes = s.mapped[mapped_before..].to_vec();
    passes.extend(&s.hot[hot_before..]);
    s.cycle_ops.close(&passes, 0.0);
    s.cycles += 1;
    Ok(leaf)
}

pub fn run(ctx: &Ctx, hygiene: &Hygiene) -> Result<Outcome, String> {
    let began = Instant::now();
    let mut tracer = Tracer::new(ctx.trace, 0);
    let mut tally = Tally::default();
    let opts = LeafOpts::new(0, hygiene.prefix(), &hygiene.dir().join("leaf"));
    let rows = ctx.rows(ROWS_PER_TABLE);

    // ---- set-up: load both tables, recount the six answers, warm up ----
    let mut leaf = Leaf::fresh(&opts)?;
    let specs = queries(rows);
    let mut plan: Vec<Option<(QuerySpec, Answer)>> = vec![None; specs.len()];
    for (table, shape, stream) in [("requests", Shape::Requests, 1), ("dense", Shape::Dense, 2)] {
        let mut at = 0;
        while at < rows {
            let n = LOAD_CHUNK.min(rows - at);
            let batch =
                RowBatch::from_records(&Records::generate(shape, ctx.seed, stream, at as u64, n));
            leaf.add_rows(table, &batch, NOW)?;
            at += n;
        }
        let records = Records::generate(shape, ctx.seed, stream, 0, rows);
        for (slot, q) in plan.iter_mut().zip(&specs) {
            if q.table == table {
                *slot = Some((q.clone(), gen::oracle(&records, q)));
            }
        }
    }
    let plan: Vec<(QuerySpec, Answer)> = plan.into_iter().flatten().collect();
    if plan.len() != QUERY_NAMES.len() {
        return Err("a query names a table the workload does not load".to_owned());
    }
    let mut warm = Samples::default();
    // The first cycle also seals the tail blocks.
    for i in 0..1 + ctx.warmup_cycles() {
        leaf = cycle(
            leaf,
            &opts,
            &plan,
            ctx,
            &mut tracer,
            &mut tally,
            &mut warm,
            i as u64,
        )?;
    }
    let resident = leaf.sizes().memory_used;
    let setup_s = began.elapsed().as_secs_f64();

    // ---- attach cycles: first touch, steady mapped, hot ----
    let mut s = Samples::default();
    let mut window = Window::open(ctx.seconds * CYCLE_SHARE, if ctx.smoke { 1 } else { 3 });
    let mut op = 100;
    while window.again() {
        leaf = cycle(leaf, &opts, &plan, ctx, &mut tracer, &mut tally, &mut s, op)?;
        op += 1;
    }

    // ---- cold: the same data under a quarter of the memory ----
    let budget = resident / 4;
    let mut cold_opts = opts.clone();
    cold_opts.memory_budget_bytes = Some(budget);
    leaf.shutdown_to_shm(NOW)?;
    drop(leaf);
    let (mut leaf, _) = Leaf::start(&cold_opts, NOW)?;
    leaf.finish_hydration()?;
    let span = tracer.begin("leaf.poll_tiering", 0, op);
    leaf.poll_tiering()?;
    let demote_ms = ms(tracer.end(span));
    let mut cold = Vec::new();
    let mut window = Window::open(
        ctx.seconds * (1.0 - CYCLE_SHARE),
        if ctx.smoke { 1 } else { COLD_SETTLE + 8 },
    );
    let mut settled = 0;
    while window.again() {
        let p = pass(
            &leaf,
            &plan,
            &mut tracer,
            "scan.cold_pass",
            0,
            op,
            &mut tally,
        );
        // Demotion and promotion run between passes, as they would
        // between ingest batches.
        leaf.poll_tiering()?;
        if ctx.smoke || settled >= COLD_SETTLE {
            cold.push(p.total_ms);
        }
        settled += 1;
    }
    let sizes = leaf.sizes();
    let over_budget = sizes.memory_used as f64 / budget as f64;
    if over_budget > 1.0 {
        tally.fail(format!(
            "resident set is {over_budget:.3} of its budget after the cold phase"
        ));
    }
    // Leave through the front door so the sweep finds nothing mapped.
    leaf.shutdown_to_shm(NOW)?;
    drop(leaf);

    let mut pooled = s.mapped.clone();
    pooled.extend(&s.hot);
    let passes = Summary::of(&pooled);
    let hot = median(&s.hot);
    let mapped = median(&s.mapped);
    let good = tally.attempted - tally.failed;
    let end_to_end = EndToEnd {
        setup_s,
        restart_first_answer_ms: lower_quartile(&s.first_answer),
        restart_full_speed_ms: lower_quartile(&s.full_speed),
        op_p50_ms: lower_quartile(&s.cycle_ops.p50),
        op_mean_ms: lower_quartile(&s.cycle_ops.mean),
        goodput_fraction: good as f64 / tally.attempted as f64,
        peak_rss_mib: own_peak_rss_mib(),
    };
    let mut layers = BTreeMap::from([
        (
            "query.p99_ms",
            Summary::of(&s.pooled_query).percentile(99.0),
        ),
        (
            "query.rows_scanned_per_s",
            s.rows_scanned as f64 / (s.scan_ms / 1e3),
        ),
        (
            "query.blocks_time_pruned_fraction",
            s.blocks_time_pruned as f64 / s.blocks_seen as f64,
        ),
        (
            "query.blocks_zonemap_pruned_fraction",
            s.blocks_zonemap_pruned as f64 / s.blocks_seen as f64,
        ),
        ("query.hot_pass_ms", hot),
        ("query.mapped_pass_ms", mapped),
        ("query.mapped_over_hot_ratio", mapped / hot),
        ("query.first_touch_pass_ms", median(&s.first_touch)),
        (
            "query.first_touch_over_steady_ratio",
            median(&s.first_touch) / mapped,
        ),
        ("query.cold_pass_ms", median(&cold)),
        ("query.cold_over_hot_ratio", median(&cold) / hot),
        ("leaf.cold_blocks", sizes.cold_blocks as f64),
        ("leaf.cold_bytes", sizes.cold_bytes as f64),
        ("leaf.demote_ms", demote_ms),
        ("leaf.resident_over_budget_ratio", over_budget),
        (
            "restart.memory_path_fraction",
            s.memory_path as f64 / s.cycles as f64,
        ),
        (
            "leaf.resident_bytes_per_row",
            resident as f64 / (2 * rows) as f64,
        ),
        ("op_tail_ms", passes.percentile(TAIL_LEVEL)),
    ]);
    for (name, samples) in [
        "query.q_status_eq_ms",
        "query.q_endpoint_eq_ms",
        "query.q_latency_p99_ms",
        "query.q_group_host_ms",
        "query.q_time_slice_ms",
        "query.q_zone_prune_ms",
    ]
    .into_iter()
    .zip(&s.hot_query)
    {
        layers.insert(name, median(samples));
    }
    let notes = vec![
        format!(
            "{} measured cycles, {} rows per table, {:.1} MiB resident, cold budget {:.1} MiB",
            s.cycles,
            rows,
            resident as f64 / f64::from(1 << 20),
            budget as f64 / f64::from(1 << 20)
        ),
        note("restart_first_answer_ms", "ms", &s.first_answer),
        note(
            &format!("pass, hot + steady mapped (op, tail = p{TAIL_LEVEL})"),
            "ms",
            &pooled,
        ),
        note("hot pass", "ms", &s.hot),
        note("steady mapped pass", "ms", &s.mapped),
        note("first-touch pass", "ms", &s.first_touch),
        note("cold pass", "ms", &cold),
        note("single query, pooled", "ms", &s.pooled_query),
    ];
    Ok(Outcome {
        tally,
        end_to_end,
        layers,
        notes,
        tracer,
    })
}
