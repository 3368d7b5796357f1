//! `ingest_crash`: writes, checkpoints and the crash path.
//!
//! One leaf child with the checkpointer on. Each cycle one closed-loop
//! client sends batches of `requests` rows alternating between two tables,
//! the child acknowledging each, with a disk sync every hundred batches;
//! at a seeded batch in the last tenth of the cycle the driver sends one
//! more batch and, without waiting, SIGKILLs the child. A replacement
//! starts, and its first answer must hold every acknowledged row — an
//! exact prefix, at most the one in-flight batch more. It then hydrates,
//! and a checkpoint at quiescence (outside the clock) empties the log for
//! the next cycle. Cycles fill the measuring time; the run then ends with a
//! clean shutdown and one start with shared memory disabled: the disk path,
//! once, over everything ingested.
//!
//! Durability here is process-crash durability: the page cache survives a
//! SIGKILL, which is the system's contract; machine loss is out of scope.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::child::{LeafChild, Mode};
use crate::gen::{self, Agg, Answer, QuerySpec, Rng, Shape};
use crate::hygiene::Hygiene;
use crate::stats::{median, ms, Summary};
use crate::sut::LeafOpts;
use crate::trace::Tracer;
use crate::workloads::{
    lower_quartile, note, Ctx, CycleOps, EndToEnd, Outcome, Tally, Window, NOW,
};

const BATCH_ROWS: usize = 1000;
const BATCHES_PER_CYCLE: usize = 600;
const SYNC_EVERY: usize = 100;
const CHECKPOINT_INTERVAL_ROWS: usize = 200_000;
/// Percentile the per-layer `op_tail_ms` reports here: a run acknowledges thousands of
/// batches, so p99 has its ten samples beyond.
pub const TAIL_LEVEL: f64 = 99.0;
/// One warm-up cycle, not the usual three: the first cycle alone is
/// unlike the rest (it starts from an empty leaf with no image to attach),
/// and every later cycle touches fresh pages anyway because the leaf grows.
const WARMUP_CYCLES: usize = 1;
const TABLES: [(&str, u64); 2] = [("req_a", 2), ("req_b", 3)];

/// Rows the driver knows each table holds: every acknowledged row.
#[derive(Debug, Clone, Copy, Default)]
struct Acked([u64; 2]);

fn prefix_query(table: &str) -> QuerySpec {
    QuerySpec::count(&format!("prefix_{table}"), table, 0, i64::MAX)
        .aggs(vec![Agg::Count, Agg::Sum("seq".to_owned())])
}

/// The answer a table holding exactly rows `0..n` gives to `prefix_query`.
fn prefix_answer(n: u64) -> Answer {
    let sum = (n as f64) * (n as f64 - 1.0) / 2.0;
    Answer {
        rows_matched: n,
        groups: if n == 0 {
            BTreeMap::new()
        } else {
            BTreeMap::from([("(null)".to_owned(), vec![n as f64, sum])])
        },
        ..Answer::default()
    }
}

#[derive(Default)]
struct Samples {
    add_ms: Vec<f64>,
    sync_ms: Vec<f64>,
    cycle_ops: CycleOps,
    first_answer: Vec<f64>,
    full_speed: Vec<f64>,
    spawn: Vec<f64>,
    start: Vec<f64>,
    first_query: Vec<f64>,
    hydrate: Vec<f64>,
    checkpoint: Vec<f64>,
    replayed: Vec<f64>,
    wal_bytes_at_kill: Vec<f64>,
    wal_bytes_per_row: Vec<f64>,
    fast_path: usize,
    cycles: usize,
    rows_lost: u64,
    extra_rows: u64,
    peak_rss_kb: f64,
    pids: Vec<u32>,
}

/// Ask both tables for their prefix; `Ok(extra)` is how many rows beyond
/// the acknowledged ones the in-flight batch left behind.
fn verify_prefix(
    child: &mut LeafChild,
    acked: Acked,
    in_flight: Option<usize>,
    tracer: &mut Tracer,
    parent: u64,
    op: u64,
) -> Result<Result<[u64; 2], String>, String> {
    let mut held = [0u64; 2];
    let mut verdict = Ok(());
    for (t, (table, _)) in TABLES.iter().enumerate() {
        let q = prefix_query(table);
        let (span, got) = child.query(&q)?;
        tracer.adopt(
            "leaf.query",
            child.pid(),
            parent,
            op,
            span.wall_ns,
            span.dur_ns,
        );
        held[t] = got.rows_matched;
        let may_hold_more = in_flight == Some(t);
        let want = if may_hold_more && got.rows_matched == acked.0[t] + BATCH_ROWS as u64 {
            prefix_answer(acked.0[t] + BATCH_ROWS as u64)
        } else {
            prefix_answer(acked.0[t])
        };
        if verdict.is_ok() {
            verdict = gen::check(&q, &got, &want);
        }
    }
    Ok(verdict.map(|()| held))
}

pub fn run(ctx: &Ctx, hygiene: &Hygiene) -> Result<Outcome, String> {
    let began = Instant::now();
    let mut tracer = Tracer::new(ctx.trace, 0);
    let mut tally = Tally::default();
    let mut opts = LeafOpts::new(0, hygiene.prefix(), &hygiene.dir().join("leaf"));
    opts.checkpoint_interval_rows = Some(ctx.rows(CHECKPOINT_INTERVAL_ROWS));
    let batches = ctx.rows(BATCHES_PER_CYCLE);
    let sync_every = ctx.rows(SYNC_EVERY);
    let mut kill_rng = Rng::new(ctx.seed ^ 0xC4A5);

    let (mut child, _) = LeafChild::spawn(hygiene.children(), Mode::Fresh, &opts, ctx.seed, NOW)?;
    let mut acked = Acked::default();
    let mut warm = Samples::default();
    for i in 0..WARMUP_CYCLES {
        child = cycle(
            child,
            &opts,
            ctx,
            hygiene,
            (batches, sync_every),
            &mut kill_rng,
            &mut acked,
            &mut tracer,
            &mut tally,
            &mut warm,
            i as u64,
        )?;
    }
    let setup_s = began.elapsed().as_secs_f64();

    let mut s = Samples::default();
    let mut window = Window::open(ctx.seconds, if ctx.smoke { 1 } else { 2 });
    let mut op = 100;
    while window.again() {
        child = cycle(
            child,
            &opts,
            ctx,
            hygiene,
            (batches, sync_every),
            &mut kill_rng,
            &mut acked,
            &mut tracer,
            &mut tally,
            &mut s,
            op,
        )?;
        op += 1;
    }

    // ---- the disk path, once, over everything ingested ----
    let stats = child.stats()?;
    s.peak_rss_kb = s.peak_rss_kb.max(stats.num("vm_hwm_kb"));
    child.shutdown()?;
    let mut disk_opts = opts.clone();
    disk_opts.shm_recovery = false;
    let root = tracer.begin("disk.recovery", 0, op);
    let t0 = Instant::now();
    let (mut child, started) =
        LeafChild::spawn(hygiene.children(), Mode::Start, &disk_opts, ctx.seed, NOW)?;
    tracer.adopt(
        "leaf.start",
        child.pid(),
        root.id(),
        op,
        started.span.wall_ns,
        started.span.dur_ns,
    );
    let verdict = verify_prefix(&mut child, acked, None, &mut tracer, root.id(), op)?;
    let disk_recovery_ms = ms(t0.elapsed());
    tracer.end(root);
    let on_disk = started.fields.str("recovery") == "disk";
    tally.record(verdict.and_then(|_| {
        if on_disk {
            Ok(())
        } else {
            Err(format!(
                "shared memory was disabled, yet the leaf recovered by {}",
                started.fields.str("recovery")
            ))
        }
    }));
    let total_rows = (acked.0[0] + acked.0[1]) as f64;
    let disk_bytes = dir_bytes(&opts.disk_root) as f64;
    let stats = child.stats()?;
    s.peak_rss_kb = s.peak_rss_kb.max(stats.num("vm_hwm_kb"));
    child.shutdown()?;

    let adds = Summary::of(&s.add_ms);
    let syncs = Summary::of(&s.sync_ms);
    let busy_s = (adds.sum() + syncs.sum()) / 1e3;
    let good = tally.attempted - tally.failed;
    let end_to_end = EndToEnd {
        setup_s,
        restart_first_answer_ms: lower_quartile(&s.first_answer),
        restart_full_speed_ms: lower_quartile(&s.full_speed),
        op_p50_ms: lower_quartile(&s.cycle_ops.p50),
        // Mean over busy time: unlike the median it carries the seals,
        // syncs and checkpoint stalls, so it is ingest throughput inverted.
        op_mean_ms: lower_quartile(&s.cycle_ops.mean),
        goodput_fraction: good as f64 / tally.attempted as f64,
        peak_rss_mib: s.peak_rss_kb / 1024.0,
    };
    if s.rows_lost > 0 {
        tally.fail(format!("{} acknowledged rows were lost", s.rows_lost));
    }
    let layers = BTreeMap::from([
        (
            "leaf.ingest_rows_per_s",
            (adds.n * BATCH_ROWS) as f64 / busy_s,
        ),
        ("leaf.add_rows_p50_ms", adds.p50),
        ("leaf.add_rows_max_ms", adds.max),
        ("leaf.slow_batch_fraction", adds.fraction_above(10.0)),
        ("leaf.add_rows_busy_s", adds.sum() / 1e3),
        ("leaf.sync_disk_p50_ms", syncs.p50),
        ("leaf.sync_disk_busy_s", syncs.sum() / 1e3),
        ("leaf.checkpoint_and_wait_ms", median(&s.checkpoint)),
        ("wal.bytes_per_row", median(&s.wal_bytes_per_row)),
        ("wal.bytes_at_kill", median(&s.wal_bytes_at_kill)),
        ("crash.spawn_ms", median(&s.spawn)),
        ("crash.start_ms", median(&s.start)),
        ("crash.replayed_records", median(&s.replayed)),
        ("crash.first_query_ms", median(&s.first_query)),
        ("crash.hydrate_ms", median(&s.hydrate)),
        (
            "crash.fast_path_fraction",
            s.fast_path as f64 / s.cycles as f64,
        ),
        ("crash.acked_rows_lost", s.rows_lost as f64),
        ("crash.extra_rows", s.extra_rows as f64),
        ("disk.recovery_ms", disk_recovery_ms),
        (
            "disk.recover_read_ms",
            started.fields.num("disk_read_ns") / 1e6,
        ),
        (
            "disk.recover_translate_ms",
            started.fields.num("disk_translate_ns") / 1e6,
        ),
        (
            "disk.recover_rows_per_s",
            started.fields.num("disk_rows") / (ms(started.start) / 1e3),
        ),
        ("disk.bytes_per_row", disk_bytes / total_rows),
        ("op_tail_ms", adds.percentile(TAIL_LEVEL)),
    ]);
    let notes = vec![
        format!(
            "{} measured cycles of {batches} batches x {BATCH_ROWS} rows, {} distinct killed pids, {total_rows} rows at the end",
            s.cycles,
            s.pids.len()
        ),
        note(&format!("add_rows batch (op, tail = p{TAIL_LEVEL})"), "ms", &s.add_ms),
        note("sync_disk", "ms", &s.sync_ms),
        note("crash first answer", "ms", &s.first_answer),
        note("crash full speed", "ms", &s.full_speed),
        format!("disk recovery of {total_rows} rows: {disk_recovery_ms:.1} ms"),
    ];
    Ok(Outcome {
        tally,
        end_to_end,
        layers,
        notes,
        tracer,
    })
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

#[allow(clippy::too_many_arguments)]
fn cycle(
    mut child: LeafChild,
    opts: &LeafOpts,
    ctx: &Ctx,
    hygiene: &Hygiene,
    (batches, sync_every): (usize, usize),
    kill_rng: &mut Rng,
    acked: &mut Acked,
    tracer: &mut Tracer,
    tally: &mut Tally,
    s: &mut Samples,
    op: u64,
) -> Result<LeafChild, String> {
    let tenth = (batches / 10).max(1);
    let kill_at = batches - tenth + kill_rng.below(tenth as u64) as usize;
    let rows_before = acked.0[0] + acked.0[1];

    // ---- ingest: closed loop, one client ----
    let ingest = tracer.begin("ingest.cycle", 0, op);
    let (adds_before, syncs_before) = (s.add_ms.len(), s.sync_ms.len());
    for b in 0..kill_at {
        let t = b % 2;
        let (table, stream) = TABLES[t];
        let span = child.ingest(table, Shape::Requests, stream, acked.0[t], BATCH_ROWS, NOW);
        if let Some(span) = tally.record(span) {
            tracer.adopt(
                "leaf.add_rows",
                child.pid(),
                ingest.id(),
                op,
                span.wall_ns,
                span.dur_ns,
            );
            acked.0[t] += BATCH_ROWS as u64;
            s.add_ms.push(span.dur_ns as f64 / 1e6);
        }
        if (b + 1) % sync_every == 0 {
            let (span, _) = child.call("sync")?;
            tracer.adopt(
                "leaf.sync_disk",
                child.pid(),
                ingest.id(),
                op,
                span.wall_ns,
                span.dur_ns,
            );
            s.sync_ms.push(span.dur_ns as f64 / 1e6);
        }
    }
    tracer.end(ingest);
    s.cycle_ops.close(
        &s.add_ms[adds_before..],
        s.sync_ms[syncs_before..].iter().sum(),
    );
    let stats = child.stats()?;
    s.peak_rss_kb = s.peak_rss_kb.max(stats.num("vm_hwm_kb"));
    let wal_bytes = stats.num("wal_bytes");

    // ---- crash: one batch in flight, then a real SIGKILL ----
    let in_flight = kill_at % 2;
    let (table, stream) = TABLES[in_flight];
    child.send_ingest(
        table,
        Shape::Requests,
        stream,
        acked.0[in_flight],
        BATCH_ROWS,
        NOW,
    )?;
    let killed_pid = child.pid();
    let root = tracer.begin("crash.cycle", 0, op);
    let t0 = Instant::now();
    let span = tracer.begin("crash.kill+reap", root.id(), op);
    child.kill_and_reap()?;
    drop(child);
    tracer.end(span);

    let span = tracer.begin("crash.spawn+start", root.id(), op);
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

    let span = tracer.begin("crash.first_query", root.id(), op);
    let first = verify_prefix(&mut child, *acked, Some(in_flight), tracer, span.id(), op)?;
    let first_query = tracer.end(span);
    let first_answer = t0.elapsed();

    let span = tracer.begin("crash.hydrate", root.id(), op);
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
    let span = tracer.begin("crash.full_speed_query", root.id(), op);
    let second = verify_prefix(&mut child, *acked, Some(in_flight), tracer, span.id(), op)?;
    tracer.end(span);
    let full_speed = t0.elapsed();
    tracer.end(root);

    let fast = started.fields.str("recovery") == "attached";
    match &first {
        Ok(held) => {
            let extra = held[in_flight] - acked.0[in_flight];
            s.extra_rows += extra;
            // Whatever landed is now part of what the table must hold.
            acked.0 = *held;
        }
        Err(_) => {
            // Lost rows: count them from what the table does hold.
            for (t, (table, _)) in TABLES.iter().enumerate() {
                let (_, got) = child.query(&prefix_query(table))?;
                s.rows_lost += acked.0[t].saturating_sub(got.rows_matched);
            }
        }
    }
    tally.record(first.and(second).map(|_| ()));
    s.fast_path += usize::from(fast);

    // Quiescent checkpoint, outside the clock: the next cycle starts from
    // an empty log.
    let (span, _) = child.call("checkpoint")?;
    tracer.adopt(
        "leaf.checkpoint_and_wait",
        child.pid(),
        0,
        op,
        span.wall_ns,
        span.dur_ns,
    );
    s.checkpoint.push(span.dur_ns as f64 / 1e6);

    s.first_answer.push(ms(first_answer));
    s.full_speed.push(ms(full_speed));
    s.spawn.push(ms(started.spawn));
    s.start.push(ms(started.start));
    s.first_query.push(ms(first_query));
    s.hydrate.push(ms(hydrate));
    s.replayed.push(started.fields.num("replayed"));
    s.wal_bytes_at_kill.push(wal_bytes);
    s.wal_bytes_per_row
        .push(wal_bytes / (acked.0[0] + acked.0[1] - rows_before) as f64);
    s.cycles += 1;
    s.pids.push(killed_pid);
    Ok(child)
}
