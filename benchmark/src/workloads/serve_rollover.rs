//! `serve_rollover`: serving through a rolling restart.
//!
//! An in-process hosted cluster of 2 machines × 2 leaves. Two client
//! threads issue an open-loop, seeded schedule of 60 requests a second —
//! three quarters fan-out queries over a 5–10 % time window, one quarter
//! ingest batches of 200 rows to a seeded leaf — and time each request
//! from when it was *due*, so a stall is charged to every request it
//! delays. After a steady stretch the driver restarts the leaves one at a
//! time, in rollover order, 250 ms apart, round after round. While a leaf
//! is away a quarter of every fan-out is unavailable: that is what the
//! paper's "98 % of data online during rollover" looks like at this size.
//!
//! Queries read only the preloaded time range and ingest writes only past
//! it, so every answer — complete, or partial with one leaf away — has an
//! exact expected value.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::child::own_peak_rss_mib;
use crate::gen::{self, Agg, Answer, Lit, Op, QuerySpec, Records, Rng, Shape};
use crate::hygiene::Hygiene;
use crate::stats::{median, ms, Summary};
use crate::sut::{Fleet, IngestOutcome, RowBatch};
use crate::trace::Tracer;
use crate::workloads::{
    lower_quartile, note, Ctx, CycleOps, EndToEnd, Outcome, Tally, LOAD_CHUNK, NOW,
};

const MACHINES: usize = 2;
const LEAVES_PER_MACHINE: usize = 2;
const LEAVES: usize = MACHINES * LEAVES_PER_MACHINE;
const ROWS_PER_LEAF: usize = 500_000;
const CLIENTS: usize = 2;
const REQUESTS_PER_SECOND: f64 = 60.0;
const INGEST_ROWS: usize = 200;
/// A request answered later than this after it was due is a miss.
const LATENCY_LIMIT: Duration = Duration::from_millis(50);
const WAVE_GAP: Duration = Duration::from_millis(250);
/// Shares of the run before the first wave and after the last.
const STEADY_SHARE: f64 = 0.1;
const TAIL_SHARE: f64 = 1.0 / 6.0;
/// Percentile the per-layer `op_tail_ms` reports here, over fan-out queries.
pub const TAIL_LEVEL: f64 = 90.0;

enum Work {
    Query {
        spec: QuerySpec,
        /// The oracle's answer leaf by leaf; a fan-out must equal the sum
        /// over the leaves that answered.
        per_leaf: Vec<Answer>,
    },
    Ingest {
        leaf: usize,
        rows: Option<RowBatch>,
    },
}

struct Request {
    due: Duration,
    work: Work,
}

#[derive(Default)]
struct ClientLog {
    query_ms: Vec<(Duration, f64)>,
    ingest_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    legs_issued: u64,
    legs_good: u64,
    legs_answered: u64,
    legs_shed: u64,
    legs_unavailable: u64,
    legs_late: u64,
    ingest_rows_acked: u64,
    tally: Tally,
}

fn stream_of(leaf: usize) -> u64 {
    20 + leaf as u64
}

/// Does `got` equal the sum of the oracle's answers over some `answered`
/// of the leaves?
fn check_fanout(
    spec: &QuerySpec,
    got: &Answer,
    per_leaf: &[Answer],
    answered: usize,
) -> Result<(), String> {
    let mut last = Err(format!("{}: {answered} legs answered", spec.name));
    for mask in 0u32..1 << per_leaf.len() {
        if mask.count_ones() as usize != answered {
            continue;
        }
        let mut want = Answer::default();
        for (i, a) in per_leaf.iter().enumerate() {
            if mask & 1 << i != 0 {
                want.add(a);
            }
        }
        last = gen::check(spec, got, &want);
        if last.is_ok() {
            break;
        }
    }
    last
}

fn build_schedule(ctx: &Ctx, rows_per_leaf: usize, data: &[Records]) -> Vec<Request> {
    let mut rng = Rng::new(ctx.seed ^ 0x5E77E);
    let total = (ctx.seconds * REQUESTS_PER_SECOND) as usize;
    let span = gen::time_of(rows_per_leaf as u64) - gen::T0;
    let mut next_row = [rows_per_leaf as u64; LEAVES];
    (0..total)
        .map(|i| {
            let due = Duration::from_secs_f64(i as f64 / REQUESTS_PER_SECOND);
            let work = if rng.below(4) == 0 {
                let leaf = rng.below(LEAVES as u64) as usize;
                let records = Records::generate(
                    Shape::Requests,
                    ctx.seed,
                    stream_of(leaf),
                    next_row[leaf],
                    INGEST_ROWS,
                );
                next_row[leaf] += INGEST_ROWS as u64;
                Work::Ingest {
                    leaf,
                    rows: Some(RowBatch::from_records(&records)),
                }
            } else {
                // A window of 5–10 % of the preloaded time range.
                let width = (span as f64 * (0.05 + 0.05 * rng.unit())) as i64;
                let from = gen::T0 + rng.below((span - width).max(1) as u64) as i64;
                let to = from + width.max(1);
                let spec = match rng.below(3) {
                    0 => QuerySpec::count("errors", "requests", from, to)
                        .pred("status", Op::Eq, Lit::I(500))
                        .aggs(vec![Agg::Count, Agg::Sum("latency_ms".to_owned())]),
                    1 => QuerySpec::count("by_host", "requests", from, to).group_by("host"),
                    _ => {
                        QuerySpec::count("series", "requests", from, to).bucket((width / 8).max(1))
                    }
                };
                let per_leaf = data.iter().map(|d| gen::oracle(d, &spec)).collect();
                Work::Query { spec, per_leaf }
            };
            Request { due, work }
        })
        .collect()
}

fn client(
    fleet: &Fleet,
    requests: Vec<(usize, Request)>,
    epoch: Instant,
    mut tracer: Tracer,
) -> (ClientLog, Tracer) {
    let mut log = ClientLog::default();
    for (index, mut request) in requests {
        let due = epoch + request.due;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        log.lateness_ms
            .push(ms(Instant::now().saturating_duration_since(due)));
        match &mut request.work {
            Work::Query { spec, per_leaf } => {
                let span = tracer.begin("serve.query", 0, index as u64);
                let (got, legs) = fleet.query(spec);
                tracer.end(span);
                let latency = due.elapsed();
                let on_time = latency <= LATENCY_LIMIT;
                log.query_ms.push((request.due, ms(latency)));
                log.legs_issued += LEAVES as u64;
                log.legs_answered += legs.answered as u64;
                log.legs_shed += legs.shed as u64;
                log.legs_unavailable += legs.unavailable as u64;
                let verdict = if legs.answered + legs.shed + legs.unavailable != LEAVES {
                    Err(format!("{}: a leg was lost: {legs:?}", spec.name))
                } else {
                    check_fanout(spec, &got, per_leaf, legs.answered)
                };
                if log.tally.record(verdict).is_some() {
                    if on_time {
                        log.legs_good += legs.answered as u64;
                    } else {
                        log.legs_late += legs.answered as u64;
                    }
                }
            }
            Work::Ingest { leaf, rows } => {
                let rows = rows.take().expect("each batch is sent once");
                let n = rows.len() as u64;
                let span = tracer.begin("serve.ingest", 0, index as u64);
                let outcome = fleet.add_rows(*leaf, "requests", rows, NOW);
                tracer.end(span);
                let latency = due.elapsed();
                log.ingest_ms.push(ms(latency));
                log.legs_issued += 1;
                match log.tally.record(outcome) {
                    Some(IngestOutcome::Ok) => {
                        log.legs_answered += 1;
                        log.ingest_rows_acked += n;
                        if latency <= LATENCY_LIMIT {
                            log.legs_good += 1;
                        } else {
                            log.legs_late += 1;
                        }
                    }
                    Some(IngestOutcome::Shed) => log.legs_shed += 1,
                    Some(IngestOutcome::Unavailable) => log.legs_unavailable += 1,
                    None => {}
                }
            }
        }
    }
    (log, tracer)
}

pub fn run(ctx: &Ctx, hygiene: &Hygiene) -> Result<Outcome, String> {
    let began = Instant::now();
    let mut tracer = Tracer::new(ctx.trace, 0);
    let rows_per_leaf = ctx.rows(ROWS_PER_LEAF);

    // ---- set-up: boot, load two leaves per loader thread, recount ----
    let fleet = Fleet::new(
        MACHINES,
        LEAVES_PER_MACHINE,
        hygiene.prefix(),
        &hygiene.dir().join("cluster"),
    )?;
    let data: Vec<Records> = std::thread::scope(|scope| {
        let loaders: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let fleet = &fleet;
                scope.spawn(move || -> Result<Vec<(usize, Records)>, String> {
                    let mut mine = Vec::new();
                    for leaf in (t..LEAVES).step_by(CLIENTS) {
                        let mut at = 0;
                        while at < rows_per_leaf {
                            let n = LOAD_CHUNK.min(rows_per_leaf - at);
                            let chunk = Records::generate(
                                Shape::Requests,
                                ctx.seed,
                                stream_of(leaf),
                                at as u64,
                                n,
                            );
                            match fleet.add_rows(
                                leaf,
                                "requests",
                                RowBatch::from_records(&chunk),
                                NOW,
                            )? {
                                IngestOutcome::Ok => {}
                                other => return Err(format!("load of leaf {leaf}: {other:?}")),
                            }
                            at += n;
                        }
                        // Kept for the oracle, which recounts leaf by leaf.
                        let all = Records::generate(
                            Shape::Requests,
                            ctx.seed,
                            stream_of(leaf),
                            0,
                            rows_per_leaf,
                        );
                        mine.push((leaf, all));
                    }
                    Ok(mine)
                })
            })
            .collect();
        let mut all: Vec<(usize, Records)> = Vec::new();
        for l in loaders {
            all.extend(
                l.join()
                    .map_err(|_| "a loader thread panicked".to_owned())??,
            );
        }
        all.sort_by_key(|(leaf, _)| *leaf);
        Ok::<_, String>(all.into_iter().map(|(_, r)| r).collect())
    })?;
    if fleet.total_rows() != LEAVES * rows_per_leaf {
        return Err(format!(
            "loaded {} rows, meant to load {}",
            fleet.total_rows(),
            LEAVES * rows_per_leaf
        ));
    }
    let schedule = build_schedule(ctx, rows_per_leaf, &data);
    drop(data);
    let issued = schedule.len();
    let mut per_client: Vec<Vec<(usize, Request)>> = (0..CLIENTS).map(|_| Vec::new()).collect();
    for (i, r) in schedule.into_iter().enumerate() {
        per_client[i % CLIENTS].push((i, r));
    }
    // One round of restarts before the clock, so no wave is a first.
    let order = fleet.rollover_order();
    for &id in &order {
        fleet.restart_leaf(id);
    }
    let setup_s = began.elapsed().as_secs_f64();

    // ---- the open loop, and the rollover beside it ----
    let run_for = Duration::from_secs_f64(ctx.seconds);
    let first_wave = run_for.mul_f64(STEADY_SHARE);
    let last_wave = run_for.mul_f64(1.0 - TAIL_SHARE);
    let mut waves_ms = Vec::new();
    // A cycle here is one whole round: every leaf restarted once.
    let mut rounds: Vec<(Duration, Duration)> = Vec::new();
    let mut round_wave_ms = Vec::new();
    let mut min_availability = 1.0f64;
    let mut restarted = 0usize;
    let mut memory_recoveries = 0usize;
    let epoch = Instant::now();
    let (logs, first_wave_at) = std::thread::scope(|scope| {
        let clients: Vec<_> = per_client
            .into_iter()
            .enumerate()
            .map(|(t, requests)| {
                let fleet = &fleet;
                let lane = Tracer::new(ctx.trace, 1 + t as u64);
                scope.spawn(move || client(fleet, requests, epoch, lane))
            })
            .collect();
        std::thread::sleep(first_wave);
        let first_wave_at = epoch.elapsed();
        let mut wave = 0u64;
        let mut done = false;
        while !done {
            let round_began = epoch.elapsed();
            let waves_before = waves_ms.len();
            for &id in &order {
                if epoch.elapsed() >= last_wave {
                    done = true;
                    break;
                }
                let span = tracer.begin("cluster.restart_leaves", 0, wave);
                let outcome = fleet.restart_leaf(id);
                waves_ms.push(ms(tracer.end(span)));
                min_availability = min_availability.min(outcome.min_availability);
                restarted += outcome.restarted;
                memory_recoveries += outcome.memory_recoveries;
                wave += 1;
                std::thread::sleep(WAVE_GAP);
            }
            // A round the end of the run cut short counts only when no
            // whole round does (a smoke run).
            if waves_ms.len() > waves_before && (!done || rounds.is_empty()) {
                rounds.push((round_began, epoch.elapsed()));
                round_wave_ms.push(median(&waves_ms[waves_before..]));
            }
        }
        let logs: Vec<_> = clients
            .into_iter()
            .map(|c| c.join().expect("a client thread panicked"))
            .collect();
        (logs, first_wave_at)
    });

    let mut log = ClientLog::default();
    for (l, lane) in logs {
        tracer.merge(lane);
        log.query_ms.extend(l.query_ms);
        log.ingest_ms.extend(l.ingest_ms);
        log.lateness_ms.extend(l.lateness_ms);
        log.legs_issued += l.legs_issued;
        log.legs_good += l.legs_good;
        log.legs_answered += l.legs_answered;
        log.legs_shed += l.legs_shed;
        log.legs_unavailable += l.legs_unavailable;
        log.legs_late += l.legs_late;
        log.ingest_rows_acked += l.ingest_rows_acked;
        log.tally.merge(l.tally);
    }
    let mut tally = log.tally;

    // Every acknowledged ingest row is there, and nothing else is.
    let past_preload = gen::time_of(rows_per_leaf as u64);
    let landed = QuerySpec::count("ingested", "requests", past_preload, i64::MAX);
    let (got, legs) = fleet.query(&landed);
    tally.record(if legs.answered != LEAVES {
        Err(format!("the fleet did not come back whole: {legs:?}"))
    } else if got.rows_matched != log.ingest_rows_acked {
        Err(format!(
            "{} ingested rows are there, {} were acknowledged",
            got.rows_matched, log.ingest_rows_acked
        ))
    } else {
        Ok(())
    });
    // A leg is answered, shed or known to be unavailable; anything else
    // was lost on the way.
    let legs_lost = log.legs_issued - log.legs_answered - log.legs_shed - log.legs_unavailable;
    drop(fleet);

    let all_query: Vec<f64> = log.query_ms.iter().map(|(_, v)| *v).collect();
    let steady: Vec<f64> = log
        .query_ms
        .iter()
        .filter(|(due, _)| *due < first_wave_at)
        .map(|(_, v)| *v)
        .collect();
    let mut cycle_ops = CycleOps::default();
    for (from, to) in &rounds {
        let during: Vec<f64> = log
            .query_ms
            .iter()
            .filter(|(due, _)| due >= from && due < to)
            .map(|(_, v)| *v)
            .collect();
        cycle_ops.close(&during, 0.0);
    }
    let queries = Summary::of(&all_query);
    let ingests = Summary::of(&log.ingest_ms);
    let waves = Summary::of(&waves_ms);
    let issued_legs = log.legs_issued as f64;
    let end_to_end = EndToEnd {
        setup_s,
        // The hosted cluster restores with the full copy, so a leaf that
        // answers at all answers at full speed: the two coincide.
        restart_first_answer_ms: lower_quartile(&round_wave_ms),
        restart_full_speed_ms: lower_quartile(&round_wave_ms),
        op_p50_ms: lower_quartile(&cycle_ops.p50),
        op_mean_ms: lower_quartile(&cycle_ops.mean),
        goodput_fraction: log.legs_good as f64 / issued_legs,
        peak_rss_mib: own_peak_rss_mib(),
    };
    let layers = BTreeMap::from([
        ("cluster.query_p50_ms", queries.p50),
        ("cluster.query_p90_ms", queries.percentile(90.0)),
        ("cluster.ingest_p50_ms", ingests.p50),
        ("cluster.ingest_p90_ms", ingests.percentile(90.0)),
        ("cluster.steady_query_p50_ms", median(&steady)),
        (
            "cluster.legs_shed_fraction",
            log.legs_shed as f64 / issued_legs,
        ),
        (
            "cluster.legs_unavailable_fraction",
            log.legs_unavailable as f64 / issued_legs,
        ),
        (
            "cluster.legs_late_fraction",
            log.legs_late as f64 / issued_legs,
        ),
        ("cluster.legs_lost", legs_lost as f64),
        ("cluster.min_availability", min_availability),
        (
            "cluster.memory_recoveries_fraction",
            memory_recoveries as f64 / restarted.max(1) as f64,
        ),
        ("cluster.waves", waves.n as f64),
        ("op_tail_ms", queries.percentile(TAIL_LEVEL)),
        ("cluster.wave_p90_ms", waves.percentile(90.0)),
        (
            "cluster.generator_lateness_p90_ms",
            Summary::of(&log.lateness_ms).percentile(90.0),
        ),
    ]);
    if memory_recoveries != restarted {
        tally.fail(format!(
            "{} of {restarted} restarted leaves did not recover from shared memory",
            restarted - memory_recoveries
        ));
    }
    let notes = vec![
        format!(
            "{issued} requests at {REQUESTS_PER_SECOND}/s from {CLIENTS} clients, {} legs, {} waves, limit {} ms",
            log.legs_issued,
            waves.n,
            LATENCY_LIMIT.as_millis()
        ),
        note(&format!("fan-out query from due (op, tail = p{TAIL_LEVEL})"), "ms", &all_query),
        note("ingest batch from due", "ms", &log.ingest_ms),
        note("restart_leaves wave", "ms", &waves_ms),
        note("generator lateness", "ms", &log.lateness_ms),
    ];
    Ok(Outcome {
        tally,
        end_to_end,
        layers,
        notes,
        tracer,
    })
}
