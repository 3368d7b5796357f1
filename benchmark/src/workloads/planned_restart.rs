//! `planned_restart`: the paper's headline path and nothing else.
//!
//! One leaf child holds four `dense` tables and one `requests` table.
//! Each cycle the driver writes `shutdown` (standing in for the rollover
//! script's SIGTERM; the clock starts there), the child copies its data to
//! shared memory and exits, the driver reaps it and spawns a replacement,
//! which attaches, answers a fingerprint of queries over the mapped bytes
//! (first answer), hydrates, and answers the fingerprint again (full
//! speed). Checkpointing is off; ingest, the cluster and the disk path do
//! no work here.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::child::{LeafChild, Mode};
use crate::gen::{self, Agg, Answer, Lit, Op, QuerySpec, Records, Shape};
use crate::hygiene::Hygiene;
use crate::stats::{median, ms, Summary};
use crate::sut::LeafOpts;
use crate::trace::Tracer;
use crate::workloads::{
    lower_quartile, note, Ctx, CycleOps, EndToEnd, Outcome, Tally, Window, NOW,
};

const DENSE_TABLES: usize = 4;
const DENSE_ROWS: usize = 1_500_000;
const REQUEST_ROWS: usize = 1_000_000;
/// The operation whose latency `op_p50_ms`/`op_mean_ms` report is one
/// filtered aggregate (`status_500`) on the hydrated leaf, asked this many
/// times per cycle.
const OP_QUERIES: usize = 15;
/// Percentile the per-layer `op_tail_ms` reports here.
pub const TAIL_LEVEL: f64 = 90.0;
const OP_QUERY: &str = "status_500";

struct Fingerprint {
    queries: Vec<(QuerySpec, Answer)>,
}

impl Fingerprint {
    /// Ask every query and check it; the time is from the first question
    /// to the last verified answer.
    fn verify(
        &self,
        child: &mut LeafChild,
        tracer: &mut Tracer,
        parent: u64,
        op: u64,
    ) -> Result<Result<(), String>, String> {
        let mut verdict = Ok(());
        for (q, want) in &self.queries {
            let (span, got) = child.query(q)?;
            tracer.adopt(
                "leaf.query",
                child.pid(),
                parent,
                op,
                span.wall_ns,
                span.dur_ns,
            );
            if verdict.is_ok() {
                verdict = gen::check(q, &got, want);
            }
        }
        Ok(verdict)
    }
}

#[derive(Default)]
struct Samples {
    first_answer: Vec<f64>,
    full_speed: Vec<f64>,
    op: Vec<f64>,
    cycle_ops: CycleOps,
    shutdown: Vec<f64>,
    exit: Vec<f64>,
    spawn: Vec<f64>,
    start: Vec<f64>,
    first_query: Vec<f64>,
    hydrate: Vec<f64>,
    residual_pct: Vec<f64>,
    copy_out_gbps: Vec<f64>,
    hydrate_gbps: Vec<f64>,
    footprint_ratio: Vec<f64>,
    shutdown_bytes: f64,
    attach_heap_bytes: f64,
    memory_path: usize,
    cycles: usize,
    peak_rss_kb: f64,
    pids: Vec<u32>,
}

pub fn run(ctx: &Ctx, hygiene: &Hygiene) -> Result<Outcome, String> {
    let began = Instant::now();
    let mut tracer = Tracer::new(ctx.trace, 0);
    let mut tally = Tally::default();
    // Checkpointing stays off: the planned path and nothing else.
    let opts = LeafOpts::new(0, hygiene.prefix(), &hygiene.dir().join("leaf"));

    // ---- set-up: load, oracle, warm-up ----
    let (mut child, _) = LeafChild::spawn(hygiene.children(), Mode::Fresh, &opts, ctx.seed, NOW)?;
    let dense_rows = ctx.rows(DENSE_ROWS);
    let request_rows = ctx.rows(REQUEST_ROWS);
    let mut queries = Vec::new();
    for t in 0..DENSE_TABLES {
        let table = format!("dense{t}");
        child.ingest(&table, Shape::Dense, 10 + t as u64, 0, dense_rows, NOW)?;
        let q = QuerySpec::count(&format!("count_{table}"), &table, 0, i64::MAX);
        let want = Answer {
            rows_matched: dense_rows as u64,
            groups: BTreeMap::from([("(null)".to_owned(), vec![dense_rows as f64])]),
            ..Answer::default()
        };
        queries.push((q, want));
    }
    // The oracle over `requests` is computed while the child loads it.
    child.send_ingest("requests", Shape::Requests, 1, 0, request_rows, NOW)?;
    let requests = Records::generate(Shape::Requests, ctx.seed, 1, 0, request_rows);
    for q in [
        QuerySpec::count("count_requests", "requests", 0, i64::MAX),
        QuerySpec::count(OP_QUERY, "requests", 0, i64::MAX)
            .pred("status", Op::Eq, Lit::I(500))
            .aggs(vec![Agg::Count, Agg::Avg("latency_ms".to_owned())]),
        QuerySpec::count("by_host", "requests", 0, i64::MAX).group_by("host"),
    ] {
        let want = gen::oracle(&requests, &q);
        queries.push((q, want));
    }
    drop(requests);
    child.reply()?;
    let fingerprint = Fingerprint { queries };

    let total_rows = (DENSE_TABLES * dense_rows + request_rows) as f64;
    let stats = child.stats()?;
    if stats.num("total_rows") != total_rows {
        return Err(format!(
            "loaded {} rows, meant to load {total_rows}",
            stats.num("total_rows")
        ));
    }
    let resident_mib = (stats.num("memory_used") + stats.num("shm_resident")) / f64::from(1 << 20);
    if !ctx.smoke && !(200.0..=320.0).contains(&resident_mib) {
        return Err(format!(
            "resident set is {resident_mib:.0} MiB, outside the 200–320 MiB the workload is sized for"
        ));
    }

    let mut warm = Samples::default();
    for i in 0..ctx.warmup_cycles() {
        child = cycle(
            child,
            &opts,
            ctx,
            hygiene,
            &fingerprint,
            &mut tracer,
            &mut tally,
            &mut warm,
            i as u64,
        )?;
    }
    let setup_s = began.elapsed().as_secs_f64();

    // ---- measured cycles ----
    let mut s = Samples::default();
    let mut window = Window::open(ctx.seconds, if ctx.smoke { 1 } else { 3 });
    let mut op = 100;
    while window.again() {
        child = cycle(
            child,
            &opts,
            ctx,
            hygiene,
            &fingerprint,
            &mut tracer,
            &mut tally,
            &mut s,
            op,
        )?;
        op += 1;
    }

    // The resident set after the last full hydration, exact.
    let stats = child.stats()?;
    let resident_bytes = stats.num("memory_used") + stats.num("shm_resident");
    s.peak_rss_kb = s.peak_rss_kb.max(stats.num("vm_hwm_kb"));
    child.shutdown()?;

    let ops = Summary::of(&s.op);
    let good = tally.attempted - tally.failed;
    let end_to_end = EndToEnd {
        setup_s,
        restart_first_answer_ms: lower_quartile(&s.first_answer),
        restart_full_speed_ms: lower_quartile(&s.full_speed),
        op_p50_ms: lower_quartile(&s.cycle_ops.p50),
        op_mean_ms: lower_quartile(&s.cycle_ops.mean),
        goodput_fraction: good as f64 / tally.attempted as f64,
        peak_rss_mib: s.peak_rss_kb / 1024.0,
    };
    let mut distinct = s.pids.clone();
    distinct.sort_unstable();
    distinct.dedup();
    if distinct.len() != s.pids.len() {
        tally.fail("two leaf generations shared a pid".to_owned());
    }
    let layers = BTreeMap::from([
        ("restart.shutdown_ms", median(&s.shutdown)),
        ("restart.shutdown_bytes", s.shutdown_bytes),
        ("restart.copy_out_gbps", median(&s.copy_out_gbps)),
        ("restart.footprint_peak_ratio", median(&s.footprint_ratio)),
        ("restart.exit_ms", median(&s.exit)),
        ("restart.spawn_ms", median(&s.spawn)),
        ("restart.start_ms", median(&s.start)),
        ("restart.attach_heap_bytes", s.attach_heap_bytes),
        ("restart.first_query_ms", median(&s.first_query)),
        ("restart.hydrate_ms", median(&s.hydrate)),
        ("restart.hydrate_gbps", median(&s.hydrate_gbps)),
        (
            "restart.memory_path_fraction",
            s.memory_path as f64 / s.cycles as f64,
        ),
        ("restart.breakdown_residual_pct", median(&s.residual_pct)),
        ("leaf.resident_bytes_per_row", resident_bytes / total_rows),
        ("op_tail_ms", ops.percentile(TAIL_LEVEL)),
    ]);
    let notes = vec![
        format!(
            "{} measured cycles over {} distinct leaf pids, {resident_mib:.1} MiB resident, {total_rows} rows",
            s.cycles,
            distinct.len()
        ),
        note("restart_first_answer_ms", "ms", &s.first_answer),
        note("restart_full_speed_ms", "ms", &s.full_speed),
        note(&format!("{OP_QUERY} query (op, tail = p{TAIL_LEVEL})"), "ms", &s.op),
    ];
    Ok(Outcome {
        tally,
        end_to_end,
        layers,
        notes,
        tracer,
    })
}

#[allow(clippy::too_many_arguments)]
fn cycle(
    old: LeafChild,
    opts: &LeafOpts,
    ctx: &Ctx,
    hygiene: &Hygiene,
    fingerprint: &Fingerprint,
    tracer: &mut Tracer,
    tally: &mut Tally,
    s: &mut Samples,
    op: u64,
) -> Result<LeafChild, String> {
    let root = tracer.begin("restart.cycle", 0, op);
    let root_id = root.id();
    let old_pid = old.pid();

    // The clock starts when the stand-in for SIGTERM is written.
    let t0 = Instant::now();
    let span = tracer.begin("restart.shutdown+exit", root_id, op);
    let stopped = old.shutdown()?;
    tracer.adopt(
        "leaf.shutdown_to_shm",
        old_pid,
        span.id(),
        op,
        stopped.span.wall_ns,
        stopped.span.dur_ns,
    );
    tracer.end(span);

    let span = tracer.begin("restart.spawn+start", root_id, op);
    let (mut child, started) =
        LeafChild::spawn(hygiene.children(), Mode::Start, opts, ctx.seed, NOW)?;
    tracer.adopt(
        "leaf.start",
        child.pid(),
        span.id(),
        op,
        started.span.wall_ns,
        started.span.dur_ns,
    );
    tracer.end(span);

    let span = tracer.begin("restart.first_query", root_id, op);
    let first = fingerprint.verify(&mut child, tracer, span.id(), op)?;
    let first_query = tracer.end(span);
    let first_answer = t0.elapsed();

    let span = tracer.begin("restart.hydrate", root_id, op);
    let (hydrated, _) = child.call("hydrate")?;
    tracer.adopt(
        "leaf.finish_hydration",
        child.pid(),
        span.id(),
        op,
        hydrated.wall_ns,
        hydrated.dur_ns,
    );
    let hydrate = tracer.end(span);

    let span = tracer.begin("restart.full_speed_query", root_id, op);
    let second = fingerprint.verify(&mut child, tracer, span.id(), op)?;
    tracer.end(span);
    let full_speed = t0.elapsed();
    tracer.end(root);

    // One restart is one operation: both fingerprints must verify.
    let memory = started.fields.str("recovery") == "attached";
    tally.record(first.and(second).and(if memory {
        Ok(())
    } else {
        Err(format!(
            "cycle {op} recovered by {} ({})",
            started.fields.str("recovery"),
            started.fields.str("reason")
        ))
    }));

    // Foreground queries on the hydrated leaf, outside the restart clock.
    let (q, want) = fingerprint
        .queries
        .iter()
        .find(|(q, _)| q.name == OP_QUERY)
        .expect("the fingerprint holds the op query");
    let ops_before = s.op.len();
    for _ in 0..if ctx.smoke { 2 } else { OP_QUERIES } {
        let span = tracer.begin("query.op", 0, op);
        let (inner, got) = child.query(q)?;
        tracer.adopt(
            "leaf.query",
            child.pid(),
            span.id(),
            op,
            inner.wall_ns,
            inner.dur_ns,
        );
        s.op.push(ms(tracer.end(span)));
        tally.record(gen::check(q, &got, want));
    }
    s.cycle_ops.close(&s.op[ops_before..], 0.0);

    let first_answer_ms = ms(first_answer);
    let parts = ms(stopped.shutdown)
        + ms(stopped.exit)
        + ms(started.spawn)
        + ms(started.start)
        + ms(first_query);
    let bytes = stopped.fields.num("bytes_copied");
    s.first_answer.push(first_answer_ms);
    s.full_speed.push(ms(full_speed));
    s.shutdown.push(ms(stopped.shutdown));
    s.exit.push(ms(stopped.exit));
    s.spawn.push(ms(started.spawn));
    s.start.push(ms(started.start));
    s.first_query.push(ms(first_query));
    s.hydrate.push(ms(hydrate));
    s.residual_pct
        .push((first_answer_ms - parts).abs() / first_answer_ms * 100.0);
    s.copy_out_gbps
        .push(bytes / stopped.span.dur_ns.max(1) as f64);
    s.hydrate_gbps.push(bytes / hydrated.dur_ns.max(1) as f64);
    s.footprint_ratio.push(
        stopped.fields.num("peak_footprint") / stopped.fields.num("initial_footprint").max(1.0),
    );
    s.shutdown_bytes = bytes;
    s.attach_heap_bytes = started.fields.num("heap_bytes_copied");
    s.memory_path += usize::from(memory);
    s.cycles += 1;
    s.peak_rss_kb = s.peak_rss_kb.max(stopped.fields.num("vm_hwm_kb"));
    s.pids.push(old_pid);
    Ok(child)
}
