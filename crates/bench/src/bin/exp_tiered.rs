//! E19 — Tiered storage: cold row blocks on the §6 disk fast-format.
//!
//! PR 9's tentpole claims: (1) a leaf under `memory_budget_bytes` keeps
//! serving a dataset ≥4x its budget with query results identical to an
//! untiered leaf over the same rows, (2) the budget is a hard ceiling —
//! asserted from the `leaf_heap_bytes` obs gauge (heap plus mapped bytes)
//! after every ingest batch, never from internal accounting alone — and
//! (3) a shutdown/restart re-attaches BOTH tiers without copying cold
//! data: the cold tier comes back by mmap with 0 bytes copied.
//!
//! ```sh
//! cargo run --release -p scuba-bench --bin exp_tiered
//! cargo run --release -p scuba-bench --bin exp_tiered -- --smoke   # CI
//! ```

use std::time::Instant;

use scuba::columnstore::Row;
use scuba::ingest::{WorkloadKind, WorkloadSpec};
use scuba::leaf::{LeafServer, TieringMode};
use scuba::query::{AggSpec, CmpOp, Filter, Query};
use scuba_bench::{fmt_bytes, fmt_dur, header, BenchJson, LeafRig};

/// The query mix both leaves must answer identically: point filters,
/// a double range, and a grouped aggregate — enough to touch every
/// encoding family across hot and cold blocks.
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
            "count by host",
            Query::new("requests", 0, i64::MAX)
                .group_by("host")
                .aggregates(vec![AggSpec::Count, AggSpec::Sum("latency_ms".into())]),
        ),
    ]
}

/// The logical answer of a query: rows matched plus the finished
/// aggregate values per group, sorted. Physical counters (blocks
/// scanned/pruned) legitimately differ between leaves whose seal
/// boundaries differ, so they are excluded from the identity check.
fn answer(server: &LeafServer, q: &Query) -> (u64, Vec<(String, Vec<scuba::columnstore::Value>)>) {
    let r = server.query(q).expect("query");
    let mut groups: Vec<(String, Vec<scuba::columnstore::Value>)> = r
        .groups
        .iter()
        .map(|(k, sts)| (format!("{k}"), sts.iter().map(|s| s.finish()).collect()))
        .collect();
    groups.sort_by(|a, b| a.0.cmp(&b.0));
    (r.rows_matched, groups)
}

/// Read a per-leaf gauge by its full labeled series name.
fn leaf_gauge(name: &str, key: &str) -> i64 {
    scuba::obs::gauge_value(&scuba::obs::labeled_name(name, &[("leaf", key)])).unwrap_or(0)
}

/// Resident bytes as the *dashboards* see them: the heap gauge.
fn gauge_resident(key: &str) -> i64 {
    leaf_gauge("leaf_heap_bytes", key)
}

/// A deterministic pool of request-log rows, grown on demand. The
/// generator is prefix-stable (same seed ⇒ same rows), so regenerating a
/// longer run keeps every earlier batch identical — the tiered and the
/// reference leaf ingest the exact same slices.
struct RowPool {
    spec: WorkloadSpec,
    rows: Vec<Row>,
}

impl RowPool {
    fn new() -> RowPool {
        RowPool {
            spec: WorkloadSpec::new(WorkloadKind::Requests, 9001),
            rows: Vec::new(),
        }
    }

    fn batch(&mut self, no: usize, rows_per_batch: usize) -> &[Row] {
        let need = (no + 1) * rows_per_batch;
        if self.rows.len() < need {
            self.rows = self.spec.rows(need.max(self.rows.len() * 2));
        }
        &self.rows[no * rows_per_batch..need]
    }
}

/// Ingest batches into `tiered` until its total data volume (resident +
/// cold) reaches `target_bytes`, asserting the budget gauge ceiling
/// after every batch, and the same batches into `reference` in lock step.
/// A leaf over budget with its ring dry seals its open block early, so
/// block boundaries — and with them the per-block sums a query folds —
/// would differ: the reference is sealed wherever the tiered leaf was.
/// Returns the number of batches ingested, of such early seals, and the
/// seconds the tiered leaf's ingest took.
fn fill_to(
    tiered: &mut LeafServer,
    reference: &mut LeafServer,
    pool: &mut RowPool,
    target_bytes: usize,
    budget: usize,
    rows_per_batch: usize,
) -> (usize, usize, f64) {
    let (mut batch_no, mut early_seals, mut secs) = (0usize, 0usize, 0.0f64);
    loop {
        let resident = tiered.memory_used();
        if resident + tiered.cold_bytes() >= target_bytes {
            return (batch_no, early_seals, secs);
        }
        assert!(batch_no < 4096, "workload never reached the target volume");
        let rows = pool.batch(batch_no, rows_per_batch);
        let at = rows[0].time();
        let t = Instant::now();
        tiered.add_rows("requests", rows, at).expect("add rows");
        secs += t.elapsed().as_secs_f64();
        reference.add_rows("requests", rows, at).expect("add rows");
        early_seals += usize::from(seal_like(reference, tiered, at));
        batch_no += 1;
        // The ceiling, from the same gauges the dashboards read.
        let seen = gauge_resident(tiered.obs_key());
        assert!(
            seen as usize <= budget,
            "budget gauge ceiling broken after batch {batch_no}: {seen} > {budget}"
        );
    }
}

/// Seal `reference` if `tiered` sealed its open block early. Returns
/// whether it did.
fn seal_like(reference: &mut LeafServer, tiered: &LeafServer, now: i64) -> bool {
    let open = |s: &LeafServer| {
        s.store()
            .map()
            .get("requests")
            .map_or(0, |t| t.unsealed_rows())
    };
    if open(reference) == open(tiered) {
        return false;
    }
    assert_eq!(
        open(tiered),
        0,
        "the tiered leaf holds rows the reference sealed"
    );
    reference
        .store_mut_for_bench()
        .seal_all(now)
        .expect("seal reference");
    true
}

fn main() {
    scuba::obs::set_enabled(true);
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (budget, rows_per_batch) = if smoke {
        (256 * 1024, 5_000)
    } else {
        (2 * 1024 * 1024, 20_000)
    };
    let target = 4 * budget;
    header(
        "E19",
        "tiered storage: serving >=4x the memory budget from the disk fast-format",
    );
    println!(
        "\n  budget {} | target data volume {} ({})",
        fmt_bytes(budget as u64),
        fmt_bytes(target as u64),
        if smoke { "--smoke" } else { "full" },
    );

    // -- Untiered reference: same rows, no budget. --
    let ref_rig = LeafRig::new("e19r");
    let mut reference = LeafServer::new(ref_rig.config.clone()).expect("boot reference");

    // -- Tiered leaf under the budget. --
    let mut rig = LeafRig::new("e19t");
    rig.config.tiering = TieringMode::Sieve;
    rig.config.memory_budget_bytes = budget;
    let mut tiered = LeafServer::new(rig.config.clone()).expect("boot tiered");

    let mut pool = RowPool::new();
    let (batches, mut early_seals, tiered_ingest_secs) = fill_to(
        &mut tiered,
        &mut reference,
        &mut pool,
        target,
        budget,
        rows_per_batch,
    );
    tiered.poll_tiering().expect("tiering pass");
    let last_at = pool.batch(batches - 1, rows_per_batch)[0].time();
    early_seals += usize::from(seal_like(&mut reference, &tiered, last_at));
    let total_rows = tiered.total_rows();
    assert_eq!(reference.total_rows(), total_rows);

    let resident = tiered.memory_used();
    let cold_bytes = tiered.cold_bytes();
    let cold_blocks = tiered.cold_blocks();
    let volume = resident + cold_bytes;
    println!(
        "\n  {} rows | data volume {} = {:.1}x budget | resident {} | cold {} in {} blocks \
         | reference sealed early {early_seals}x with it",
        total_rows,
        fmt_bytes(volume as u64),
        volume as f64 / budget as f64,
        fmt_bytes(resident as u64),
        fmt_bytes(cold_bytes as u64),
        cold_blocks,
    );
    assert!(
        volume >= 4 * budget,
        "leaf must serve >=4x its budget ({volume} < {})",
        4 * budget
    );
    assert!(cold_blocks > 0, "nothing was demoted");
    assert!(
        resident <= budget,
        "resident {resident} exceeds budget {budget}"
    );

    // -- Identical query results, tiered vs untiered. --
    let mut ref_secs = 0.0f64;
    let mut tiered_secs = 0.0f64;
    for (label, q) in query_mix() {
        let t = Instant::now();
        let expected = answer(&reference, &q);
        ref_secs += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let got = answer(&tiered, &q);
        tiered_secs += t.elapsed().as_secs_f64();
        assert_eq!(got, expected, "tiered leaf diverged on {label:?}");
    }
    println!(
        "  query mix: untiered {} | tiered (cold scans in place) {} | ratio {:.2}x | results identical: ok",
        fmt_dur(ref_secs),
        fmt_dur(tiered_secs),
        tiered_secs / ref_secs,
    );

    // -- Shutdown/restart: both tiers re-attach, cold copied = 0. --
    let t = Instant::now();
    tiered.shutdown_to_shm(0).expect("shutdown");
    drop(tiered);
    let shutdown_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (restored, outcome) = LeafServer::start(rig.config.clone(), 0, None).expect("restart");
    let restart_secs = t.elapsed().as_secs_f64();
    assert!(outcome.is_memory(), "tiered leaf fell back to disk");
    assert_eq!(
        restored.cold_blocks(),
        cold_blocks,
        "cold tier not re-attached as cold"
    );
    assert_eq!(restored.cold_bytes(), cold_bytes);
    // Copy-free proof: ≥4x the budget lives cold, so if any of it had
    // been copied into heap or shm the resident gauges (which the budget
    // also bounds post-restart) could not stay under budget.
    let resident_after = restored.memory_used();
    let cold_copied = resident_after.saturating_sub(resident);
    assert!(
        resident_after <= budget,
        "restart copied cold data into memory: {resident_after} > {budget}"
    );
    assert_eq!(
        cold_copied, 0,
        "restart grew the resident set by {cold_copied} bytes"
    );
    println!(
        "  shutdown {} | restart {} | {} cold blocks re-attached by mmap, 0 bytes copied: ok",
        fmt_dur(shutdown_secs),
        fmt_dur(restart_secs),
        cold_blocks,
    );
    // Results still identical after the round trip.
    for (label, q) in query_mix() {
        let expected = answer(&reference, &q);
        let got = answer(&restored, &q);
        assert_eq!(got, expected, "restored tiered leaf diverged on {label:?}");
    }
    println!("  post-restart results identical: ok");

    let mut json = BenchJson::new(&["e19_"]);
    json.push(
        "e19_tiered_serving",
        &[
            ("rows", total_rows as f64),
            ("budget_bytes", budget as f64),
            ("data_bytes", volume as f64),
            ("cold_bytes", cold_bytes as f64),
            ("cold_blocks", cold_blocks as f64),
            ("ingest_secs", tiered_ingest_secs),
            ("untiered_mix_secs", ref_secs),
            ("tiered_mix_secs", tiered_secs),
        ],
    );
    json.push(
        "e19_tiered_restart",
        &[
            ("shutdown_secs", shutdown_secs),
            ("restart_secs", restart_secs),
            ("cold_blocks_reattached", cold_blocks as f64),
            ("cold_copied_bytes", cold_copied as f64),
        ],
    );
    json.write();
}
