//! Chaos soak for the restart protocol: repeated leaf rollovers, each with
//! one fault-injection site armed from a seeded script, asserting after
//! every wave that
//!
//! 1. the leaf comes back — a clean shared-memory restore or a
//!    [`RecoveryOutcome::Disk`] fallback, never a wedged process;
//! 2. recovered row counts and query results match everything that was
//!    durably synced before the wave (nothing synced is ever lost, nothing
//!    phantom appears);
//! 3. no shared-memory segments are left orphaned in `/dev/shm`.
//!
//! The soak drives a *real* leaf server — real segments, real disk logs —
//! through the same shutdown/restore cycle the rollover orchestrator uses,
//! standing on every ledge of the protocol: mid-chunk, between units, the
//! instant before and after each valid-bit edge, syscall failures, and
//! aborted lifecycle phases.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scuba_columnstore::Row;
use scuba_leaf::compat::{self, OldWriter};
use scuba_leaf::{
    LeafConfig, LeafError, LeafPhase, LeafServer, RecoveryOutcome, RestoreMode, TieringMode,
};
use scuba_query::Query;
use scuba_shmem::{ShmNamespace, ShmSegment};

use crate::dashboard::{Dashboard, DashboardFeed};

/// One scripted injection: the site to arm, its plan, and (for sites only
/// reachable on the disk path) a companion fault that steers the wave
/// there first.
struct Injection {
    site: &'static str,
    plan: &'static str,
    companion: Option<(&'static str, &'static str)>,
}

/// The injection script the seeded RNG draws from. Every ledge of the
/// protocol is represented; `error@1` fires on the first hit of the site
/// after arming, so each wave wounds exactly one step.
const INJECTIONS: &[Injection] = &[
    Injection {
        site: "shmem::segment::create",
        plan: "error@1",
        companion: None,
    },
    Injection {
        site: "shmem::segment::open",
        plan: "error@1",
        companion: None,
    },
    Injection {
        site: "shmem::segment::resize",
        plan: "error@1",
        companion: None,
    },
    Injection {
        site: "shmem::segment::sync",
        plan: "error@1",
        companion: None,
    },
    Injection {
        site: "shmem::segment::punch_hole",
        plan: "error@1",
        companion: None,
    },
    Injection {
        site: "shmem::metadata::commit",
        plan: "error@1",
        companion: None,
    },
    Injection {
        site: "restart::backup::chunk",
        plan: "error@1",
        companion: None,
    },
    Injection {
        site: "restart::backup::chunk",
        plan: "short=4@1",
        companion: None,
    },
    Injection {
        site: "restart::backup::unit",
        plan: "error@2",
        companion: None,
    },
    Injection {
        site: "restart::backup::commit",
        plan: "error@1",
        companion: None,
    },
    Injection {
        site: "restart::restore::chunk",
        plan: "error@1",
        companion: None,
    },
    Injection {
        site: "restart::restore::before_invalidate",
        plan: "error@1",
        companion: None,
    },
    Injection {
        site: "restart::restore::after_invalidate",
        plan: "error@1",
        companion: None,
    },
    Injection {
        site: "diskstore::sync",
        plan: "error@1",
        companion: None,
    },
    Injection {
        site: "leaf::phase::preparing",
        plan: "error@1",
        companion: None,
    },
    Injection {
        site: "leaf::phase::copying",
        plan: "error@1",
        companion: None,
    },
    Injection {
        site: "leaf::phase::exit",
        plan: "error@1",
        companion: None,
    },
    Injection {
        site: "leaf::phase::memory_recovery",
        plan: "error@1",
        companion: None,
    },
    Injection {
        site: "leaf::phase::disk_recovery",
        plan: "error@1",
        companion: Some(("restart::backup::unit", "error@1")),
    },
];

/// One scripted crash-wave wound. `pre_crash` sites arm *before* the
/// wave's checkpoint + ingest (they wound the continuous checkpoint or
/// the WAL while serving); the rest arm right before the kill and wound
/// the recovery itself. Every one of them must produce a disk fallback
/// with exact durable fidelity — never a wedge, never a phantom row.
struct CrashInjection {
    site: &'static str,
    plan: &'static str,
    pre_crash: bool,
}

/// The crash-wave wound script (drawn for ~1 in 3 crash waves; the rest
/// crash clean and must take the fast path).
const CRASH_INJECTIONS: &[CrashInjection] = &[
    CrashInjection {
        // Checkpoint cycle dies inside the invalid window: image stays
        // invalid, crash goes to disk.
        site: "leaf::checkpoint::write",
        plan: "error@1",
        pre_crash: true,
    },
    CrashInjection {
        // WAL append fails mid-ingest: the path poisons itself (image
        // torn down) rather than pair an image with a holed log.
        site: "restart::wal::append",
        plan: "error@1",
        pre_crash: true,
    },
    CrashInjection {
        // WAL fsync fails at the sync barrier: same poisoning contract.
        site: "restart::wal::fsync",
        plan: "error@1",
        pre_crash: true,
    },
    CrashInjection {
        // Replay finds the log unreadable: condemn the memory recovery.
        site: "restart::wal::replay",
        plan: "error@1",
        pre_crash: false,
    },
    CrashInjection {
        // Torn restore copy out of the warm image.
        site: "restart::restore::chunk",
        plan: "error@1",
        pre_crash: false,
    },
    CrashInjection {
        // Checkpoint segment vanished before the restore could open it.
        site: "shmem::segment::open",
        plan: "error@1",
        pre_crash: false,
    },
];

/// Soak parameters.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for the wave script (same seed → same waves, same outcomes).
    pub seed: u64,
    /// Restart cycles to run.
    pub waves: usize,
    /// Rows ingested into the main table before each wave.
    pub rows_per_wave: usize,
    /// Shared-memory prefix (keeps parallel soaks apart).
    pub shm_prefix: String,
    /// Disk backup directory.
    pub disk_root: PathBuf,
    /// Copy-pipeline worker threads for the leaf under test (0 = auto).
    pub copy_threads: usize,
    /// When true, odd waves restart with [`RestoreMode::TwoPhase`]
    /// (attach + background hydration) and even waves with the classic
    /// full restore, so one soak stands faults on both paths.
    pub two_phase: bool,
    /// When true, the seeded script also varies the *writer*: each planned
    /// wave's outgoing leaf shuts down as the current binary, the
    /// pre-refactor v1 binary, or an early-TLV v2 binary (its committed
    /// image rewritten by [`compat::rewrite_as_old_writer`]) — so faults
    /// and both restore modes are stood on cross-version images, not just
    /// same-version ones.
    pub mixed_writers: bool,
    /// When true, the leaf runs with the continuous-checkpoint + WAL
    /// crash path enabled and *even* waves die by mid-ingest kill
    /// (checkpoint → more ingest → unsynced tail → `crash()`) instead of
    /// a planned rollover. A clean kill must come back through the warm
    /// image + WAL replay with every WAL'd row; a wounded one must fall
    /// back to disk with exactly the durable rows.
    pub crash_waves: bool,
    /// When true, a seeded subset of waves restarts the leaf with SIEVE
    /// tiering under a 1-byte memory budget — the most hostile setting:
    /// every sealed, zone-mapped block must demote to the disk
    /// fast-format. Each such wave additionally asserts the budget
    /// invariant (no hot zone-mapped sealed block survives a pass) and
    /// that no fast-format file is left orphaned after any wave.
    pub tiering: bool,
    /// When true, every wave also serves *concurrent* query traffic: a
    /// seeded multi-threaded burst runs against the leaf while it is
    /// serving (before the wound), mid-hydration on two-phase waves (the
    /// zero-copy mapped read path), and again after recovery. Every leg
    /// is checked against the durable oracle — fidelity must hold under
    /// concurrent readers, and the span-ring invariant
    /// (`span_ring_dropped_total` unmoved) still applies at the end.
    pub loadgen: bool,
}

/// Writer drawn for a wave (stable across runs for a given seed): the
/// current binary, or an old one whose layout the committed image is
/// rewritten into.
const WRITERS: &[(Option<OldWriter>, &str)] = &[
    (None, "current"),
    (Some(OldWriter::LegacyV1), "legacy-v1"),
    (Some(OldWriter::AgedV2), "aged-v2"),
];

/// What one wave did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaveRecord {
    /// Wave index.
    pub wave: usize,
    /// The armed site.
    pub site: &'static str,
    /// Whether the site's trigger actually fired this wave.
    pub fired: bool,
    /// Whether the leaf came back via memory (shared-memory restore).
    pub memory: bool,
    /// Which writer format the outgoing leaf shut down with
    /// (`"current"` unless [`ChaosConfig::mixed_writers`] drew an old one).
    pub writer: &'static str,
    /// Whether this wave died by mid-ingest kill (crash wave) rather
    /// than a planned rollover.
    pub crash: bool,
    /// Whether the replacement leaf ran with SIEVE tiering (seeded
    /// subset; always false unless [`ChaosConfig::tiering`]).
    pub tiered: bool,
}

/// Soak summary; the wave trace is fully deterministic for a given
/// [`ChaosConfig`] (the dashboard rows carry wall-clock timings).
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Waves completed.
    pub waves: usize,
    /// Waves that came back via shared-memory restore.
    pub memory_recoveries: usize,
    /// Waves that came back via disk recovery.
    pub disk_recoveries: usize,
    /// Crash waves run (0 unless [`ChaosConfig::crash_waves`]).
    pub crash_waves: usize,
    /// Crash waves that recovered through the warm checkpoint image +
    /// WAL replay (the fast crash path).
    pub crash_fast_recoveries: usize,
    /// Crash waves that fell back to disk (wounded ones).
    pub crash_disk_fallbacks: usize,
    /// Trigger counts per site, over the whole soak.
    pub fired_by_site: BTreeMap<String, u64>,
    /// Waves whose replacement leaf ran with SIEVE tiering.
    pub tiered_waves: usize,
    /// Largest cold-block count observed after any wave's tiering pass.
    pub max_cold_blocks: usize,
    /// Query legs served by the concurrent load bursts (0 unless
    /// [`ChaosConfig::loadgen`]); every one passed its fidelity check.
    pub load_legs: u64,
    /// Rows held by the leaf after the final wave.
    pub final_rows: usize,
    /// Per-wave trace.
    pub records: Vec<WaveRecord>,
    /// Figure-8 style availability trace built from the live leaf
    /// metrics: one "down" and one "recovered" sample per wave.
    pub dashboard: Dashboard,
}

impl ChaosReport {
    /// Distinct sites whose trigger fired at least once.
    pub fn distinct_sites_fired(&self) -> usize {
        self.fired_by_site.len()
    }
}

fn err(wave: usize, what: &str, detail: impl std::fmt::Display) -> String {
    format!("wave {wave}: {what}: {detail}")
}

/// A seeded concurrent query burst: four reader threads, each running a
/// seeded mix of full-range, half-range, and aux queries against the
/// serving leaf, every result checked against the durable oracle. Query
/// results must be exact *while other readers are in flight* — the read
/// path holds no `&mut`, so this is real concurrent traffic. Returns the
/// number of legs served.
fn load_burst(
    server: &LeafServer,
    wave: usize,
    stage: &str,
    seed: u64,
    durable_data: usize,
    durable_aux: usize,
) -> Result<u64, String> {
    const WORKERS: u64 = 4;
    const LEGS_PER_WORKER: usize = 8;
    let results: Vec<Result<(), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ ((wave as u64) << 8) ^ w);
                    for _ in 0..LEGS_PER_WORKER {
                        let (query, want) = match rng.gen_range(0..3u32) {
                            0 => (Query::new("data", 0, i64::MAX), durable_data),
                            1 => (
                                Query::new("data", 0, (durable_data / 2) as i64),
                                durable_data / 2,
                            ),
                            _ => (Query::new("aux", 0, i64::MAX), durable_aux),
                        };
                        let got = server
                            .query(&query)
                            .map_err(|e| err(wave, "load-burst query", e))?
                            .rows_matched as usize;
                        if got != want {
                            return Err(err(
                                wave,
                                "load-burst fidelity violation",
                                format!("[{stage}] matched {got} != durable {want}"),
                            ));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load-burst reader panicked"))
            .collect()
    });
    for r in results {
        r?;
    }
    Ok(WORKERS * LEGS_PER_WORKER as u64)
}

/// Run the soak. Returns an error string describing the first violated
/// invariant, if any. Holds the fault registry's test lock for the whole
/// run (the registry is process-global).
pub fn run_chaos(cfg: &ChaosConfig) -> Result<ChaosReport, String> {
    let _x = scuba_faults::exclusive();
    // The soak drains the process-global span ring every wave (so its
    // span-loss invariant is meaningful); serialize with the other ring
    // consumers — the telemetry exporter tests do the same.
    let _obs = scuba_obs::exclusive();
    scuba_faults::clear_all();
    // Every restart now emits its phase timeline as spans. Widen the ring
    // for the soak and drain it each wave: with both in place, losing a
    // span (span_ring_dropped_total moving) is a real protocol bug.
    scuba_obs::set_span_capacity(8192);
    let spans_dropped_baseline = scuba_obs::counter_value("span_ring_dropped_total").unwrap_or(0);

    let mut leaf_cfg = LeafConfig::new(0, cfg.shm_prefix.clone(), cfg.disk_root.clone());
    leaf_cfg.copy_threads = cfg.copy_threads;
    leaf_cfg.checkpoint_enabled = cfg.crash_waves;
    let ns = ShmNamespace::new(&cfg.shm_prefix, 0).map_err(|e| e.to_string())?;
    let mut server = LeafServer::new(leaf_cfg.clone()).map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Dashboard rows come straight from the leaf's published metrics.
    let mut feed = DashboardFeed::from_keys(vec![server.obs_key().to_owned()]);
    let started = Instant::now();

    let mut report = ChaosReport {
        waves: 0,
        memory_recoveries: 0,
        disk_recoveries: 0,
        crash_waves: 0,
        crash_fast_recoveries: 0,
        crash_disk_fallbacks: 0,
        fired_by_site: BTreeMap::new(),
        tiered_waves: 0,
        max_cold_blocks: 0,
        load_legs: 0,
        final_rows: 0,
        records: Vec::with_capacity(cfg.waves),
        dashboard: Dashboard::new(1),
    };
    // Rows made durable (synced) so far, per table. Nothing is ever added
    // while a fault is armed, so recovery must reproduce these exactly.
    let mut durable_data = 0usize;
    let mut durable_aux = 0usize;
    // The crash-wave tail table: ingested *after* the last sync, killed
    // before the next one, so at kill time its newest rows live only in
    // the WAL (and, once checkpointed, the image). A fast recovery
    // replays them AND reconciles them into the disk backup, so from the
    // next wave on they are disk-durable too. `tail_rows` is what the
    // previous wave's recovery held; `tail_next` keys new rows.
    let mut tail_rows = 0usize;
    let mut tail_next = 0usize;
    // Recoveries the leaf itself attributed to a warm checkpoint image.
    // Usually equal to the fast crash recoveries, but a wound can hit the
    // pre-recovery probe (e.g. `shmem::segment::open` fires on the probe's
    // metadata open), leaving a fast recovery unattributed — so the metric
    // invariant compares against the leaf's own flag, not the outcome.
    let mut warm_recoveries = 0usize;

    for wave in 0..cfg.waves {
        // --- Ingest, then make everything durable before wounding. ---
        let batch: Vec<Row> = (durable_data..durable_data + cfg.rows_per_wave)
            .map(|i| Row::at(i as i64).with("v", i as i64))
            .collect();
        server
            .add_rows("data", &batch, 0)
            .map_err(|e| err(wave, "add data", e))?;
        let aux_n = cfg.rows_per_wave / 4 + 1;
        let aux_batch: Vec<Row> = (durable_aux..durable_aux + aux_n)
            .map(|i| Row::at(i as i64).with("w", i as i64))
            .collect();
        server
            .add_rows("aux", &aux_batch, 0)
            .map_err(|e| err(wave, "add aux", e))?;
        server.sync_disk().map_err(|e| err(wave, "sync", e))?;
        durable_data += cfg.rows_per_wave;
        durable_aux += aux_n;

        // --- Concurrent traffic against the healthy leaf, pre-wound. ---
        if cfg.loadgen {
            report.load_legs += load_burst(
                &server,
                wave,
                "serving",
                cfg.seed,
                durable_data,
                durable_aux,
            )?;
        }

        // --- Draw this wave's writer (before arming, so the fault script
        // stays aligned across seeds whether or not a fault fires). ---
        let (writer, writer_name) = if cfg.mixed_writers {
            WRITERS[rng.gen_range(0..WRITERS.len())]
        } else {
            WRITERS[0]
        };

        // --- Take the wave down: mid-ingest kill (even crash waves) or a
        // planned rollover with one scripted fault armed. ---
        let crash_wave = cfg.crash_waves && wave % 2 == 0;
        let mut armed_sites: Vec<&'static str> = Vec::new();
        let site_label: &'static str;
        let mut wounded = false;
        let mut c_n = 0usize;
        if crash_wave {
            wounded = rng.gen_range(0..3u32) == 0;
            let winj = if wounded {
                Some(&CRASH_INJECTIONS[rng.gen_range(0..CRASH_INJECTIONS.len())])
            } else {
                None
            };
            site_label = winj.map_or("crash::clean", |i| i.site);
            if let Some(i) = winj {
                armed_sites.push(i.site);
                if i.pre_crash {
                    scuba_faults::configure(i.site, i.plan)?;
                }
            }
            // Continuous checkpoint covering everything ingested so far.
            // Only a scripted wound is allowed to make it fail.
            if let Err(e) = server.checkpoint_and_wait() {
                if winj.is_none() {
                    return Err(err(wave, "unwounded checkpoint failed", e));
                }
            }
            // Post-checkpoint synced batch: the fast path gets it back by
            // WAL replay, the fallback from disk.
            let b_n = cfg.rows_per_wave / 2 + 1;
            let b: Vec<Row> = (durable_data..durable_data + b_n)
                .map(|i| Row::at(i as i64).with("v", i as i64))
                .collect();
            server
                .add_rows("data", &b, 0)
                .map_err(|e| err(wave, "add post-checkpoint data", e))?;
            server
                .sync_disk()
                .map_err(|e| err(wave, "post-checkpoint sync", e))?;
            durable_data += b_n;
            // Unsynced tail: rows only the WAL holds at kill time — the
            // crash discards the buffered disk writes. A fast recovery
            // must replay every one of them (and reconcile them into the
            // backup); a disk fallback surfaces only the tail rows
            // reconciled by *earlier* fast recoveries.
            c_n = cfg.rows_per_wave / 4 + 1;
            let c: Vec<Row> = (tail_next..tail_next + c_n)
                .map(|i| Row::at(i as i64).with("t", i as i64))
                .collect();
            server
                .add_rows("tail", &c, 0)
                .map_err(|e| err(wave, "add tail", e))?;
            tail_next += c_n;
            // Recovery-side wounds arm at the last instant; then the kill.
            if let Some(i) = winj {
                if !i.pre_crash {
                    scuba_faults::configure(i.site, i.plan)?;
                }
            }
            server.crash();
        } else {
            // --- Arm one scripted fault. ---
            let inj = &INJECTIONS[rng.gen_range(0..INJECTIONS.len())];
            site_label = inj.site;
            armed_sites.push(inj.site);
            scuba_faults::configure(inj.site, inj.plan)?;
            if let Some((site, plan)) = inj.companion {
                armed_sites.push(site);
                scuba_faults::configure(site, plan)?;
            }

            // --- One rollover under fire. A failed shutdown is a kill,
            // as in the hosted cluster: a crashed old process. A death at
            // the exit phase still committed the image.
            let committed = match server.shutdown_to_shm(0) {
                Ok(_) => true,
                Err(e) => {
                    server.crash();
                    matches!(
                        e,
                        LeafError::Injected {
                            site: "leaf::phase::exit"
                        }
                    )
                }
            };
            // An old binary shuts down by the same protocol and leaves its
            // own layout. The rewrite runs with the script paused, so the
            // fault wounds only the shutdown and the restart it was armed
            // for.
            if let Some(old) = writer.filter(|_| committed) {
                scuba_faults::paused(|| compat::rewrite_as_old_writer(&ns, old))
                    .map_err(|e| err(wave, "old-writer rewrite", e))?;
            }
        }
        // The leaf is down: the metric-fed dashboard must show the dip.
        report
            .dashboard
            .push(feed.sample_metrics(started.elapsed()));
        // With crash waves in play the even slots all crash, so alternate
        // the restore mode on wave *pairs* to keep both attach flavours
        // exercised on both the planned and the crash path.
        let two_phase_wave = if cfg.crash_waves {
            (wave / 2) % 2 == 1
        } else {
            wave % 2 == 1
        };
        leaf_cfg.restore_mode = if cfg.two_phase && two_phase_wave {
            RestoreMode::TwoPhase
        } else {
            RestoreMode::Full
        };
        // Tiering dimension: a seeded subset of replacements comes up
        // with SIEVE under a 1-byte budget (demote everything demotable),
        // the rest untiered — so tiered images are restored by untiered
        // leaves and vice versa. (`&&` keeps scripts for tiering-off
        // configs unchanged: the RNG is only drawn when the dimension is
        // in play.)
        let tiered_wave = cfg.tiering && rng.gen_range(0..2u32) == 0;
        if cfg.tiering {
            leaf_cfg.tiering = if tiered_wave {
                TieringMode::Sieve
            } else {
                TieringMode::Off
            };
            leaf_cfg.memory_budget_bytes = usize::from(tiered_wave);
        }
        // What the armed sites fired before a retry's reset cleared it.
        let mut fired_before: Vec<u64> = vec![0; armed_sites.len()];
        let (new_server, outcome) = match LeafServer::start(leaf_cfg.clone(), 0, None) {
            Ok(pair) => pair,
            Err(_) => {
                // The replacement was wounded at a recovery phase; the
                // supervisor starts another, now past the one-shot fault.
                fired_before = armed_sites
                    .iter()
                    .map(|site| scuba_faults::triggered(site))
                    .collect();
                scuba_faults::clear_all();
                LeafServer::start(leaf_cfg.clone(), 0, None)
                    .map_err(|e| err(wave, "clean restart failed", e))?
            }
        };
        server = new_server;

        // Two-phase waves come back serving the mapped segments of the
        // image they attached, planned or checkpoint, for good. Check
        // query fidelity over the mapped bytes (the zero-copy read path),
        // then poll for a poisoned attach like a serving event loop would.
        if matches!(outcome, RecoveryOutcome::MemoryAttached(_)) {
            let stage = "kept-image";
            let mapped = server
                .query(&Query::new("data", 0, i64::MAX))
                .map_err(|e| err(wave, "mapped query", e))?;
            if mapped.rows_matched as usize != durable_data {
                return Err(err(
                    wave,
                    "mapped query mismatch",
                    format!(
                        "{stage}: matched {} != durable {durable_data}",
                        mapped.rows_matched
                    ),
                ));
            }
            // Concurrent readers over the mapped (zero-copy) segments.
            if cfg.loadgen {
                report.load_legs +=
                    load_burst(&server, wave, stage, cfg.seed, durable_data, durable_aux)?;
            }
            server
                .finish_hydration()
                .map_err(|e| err(wave, "finish hydration", e))?;
            if let Some(reason) = server.hydration_fallback_reason() {
                return Err(err(wave, "unexpected hydration fallback", reason));
            }
        }

        // --- Tiering invariants (budget + demotion) on tiered waves. ---
        if server.config().tiering == TieringMode::Sieve {
            server
                .poll_tiering()
                .map_err(|e| err(wave, "tiering pass", e))?;
            // Budget invariant under a 1-byte budget: after a pass, no
            // hot zone-mapped sealed block may remain — every candidate
            // must have demoted (or the pass hit a real fault, which the
            // fidelity checks below would surface anyway).
            for table in server.store().map().iter() {
                for block in table.blocks() {
                    if !block.is_cold() && block.zones().is_some() {
                        return Err(err(
                            wave,
                            "budget invariant violated",
                            format!(
                                "table {:?} kept a hot zone-mapped block after a budget-1 pass",
                                table.name()
                            ),
                        ));
                    }
                }
            }
            report.max_cold_blocks = report.max_cold_blocks.max(server.cold_blocks());
        }

        // --- Bookkeeping, then disarm. ---
        let mut fired = false;
        for (site, before) in armed_sites.into_iter().zip(fired_before) {
            let t = before + scuba_faults::triggered(site);
            if t > 0 {
                fired = true;
                *report.fired_by_site.entry(site.to_owned()).or_insert(0) += t;
            }
        }
        scuba_faults::clear_all();

        // --- Invariant 1: the leaf is back and serving. ---
        if server.phase() != LeafPhase::Alive {
            return Err(err(wave, "leaf not alive", server.phase().name()));
        }

        // --- Crash-wave invariants: a clean kill MUST come back through
        // the warm image + WAL replay; the unsynced tail is recovered
        // exactly (fast path, which also reconciles it into the backup).
        // A disk fallback surfaces exactly the tail reconciled by earlier
        // fast recoveries — this wave's unsynced tail rows are gone (the
        // kill discards buffered writes), but no previously-recovered row
        // may vanish. ---
        if crash_wave && !wounded && !outcome.is_memory() {
            return Err(err(
                wave,
                "clean crash fell back to disk",
                format!("{outcome:?}"),
            ));
        }
        let tail_now = if cfg.crash_waves {
            server
                .query(&Query::new("tail", 0, i64::MAX))
                .map_err(|e| err(wave, "tail query", e))?
                .rows_matched as usize
        } else {
            0
        };
        let tail_want = if crash_wave && outcome.is_memory() {
            tail_rows + c_n
        } else {
            tail_rows
        };
        if tail_now != tail_want {
            return Err(err(
                wave,
                "tail fidelity violation",
                format!(
                    "recovered {tail_now} tail rows, want {tail_want} (crash={crash_wave}, \
                     memory={}, wounded={wounded})",
                    outcome.is_memory()
                ),
            ));
        }
        tail_rows = tail_now;

        // --- Invariant 2: durably synced data survived, exactly. ---
        let expected = durable_data + durable_aux + tail_rows;
        if server.total_rows() != expected {
            return Err(err(
                wave,
                "row count mismatch",
                format!("recovered {} != durable {}", server.total_rows(), expected),
            ));
        }
        let full = server
            .query(&Query::new("data", 0, i64::MAX))
            .map_err(|e| err(wave, "query", e))?;
        if full.rows_matched as usize != durable_data {
            return Err(err(
                wave,
                "query mismatch",
                format!("matched {} != durable {}", full.rows_matched, durable_data),
            ));
        }
        // Time-range fidelity: the first half of the keyspace, exactly.
        let half = server
            .query(&Query::new("data", 0, (durable_data / 2) as i64))
            .map_err(|e| err(wave, "half query", e))?;
        if half.rows_matched as usize != durable_data / 2 {
            return Err(err(
                wave,
                "half-range query mismatch",
                format!("matched {} != {}", half.rows_matched, durable_data / 2),
            ));
        }
        // The same fidelity, under concurrent readers on the recovered
        // leaf.
        if cfg.loadgen {
            report.load_legs += load_burst(
                &server,
                wave,
                "recovered",
                cfg.seed,
                durable_data,
                durable_aux,
            )?;
        }

        // --- Invariant 3: nothing orphaned in /dev/shm. The new leaf's
        // checkpointer has not committed yet at this point, so no metadata
        // region may exist. A table segment is linked only while one of
        // the leaf's images holds it: exactly its image segments. No
        // segment carries an older binary's checkpoint name. ---
        if ShmSegment::exists(&ns.metadata_name()) {
            return Err(err(wave, "orphan segment", ns.metadata_name()));
        }
        let kept = server.store().image_segments();
        for i in 0..8 {
            let name = ns.table_segment_name(i);
            if ShmSegment::exists(&name) != kept.contains(&name) {
                let what = if kept.contains(&name) {
                    "kept segment unlinked under its leaf"
                } else {
                    "orphan segment"
                };
                return Err(err(wave, what, name));
            }
            for parity in 0..2 {
                if ShmSegment::exists(&ns.checkpoint_segment_name(parity, i)) {
                    return Err(err(
                        wave,
                        "orphan checkpoint segment",
                        ns.checkpoint_segment_name(parity, i),
                    ));
                }
            }
        }

        // --- Invariant 4 (tiering): no orphaned fast-format files. Every
        // cold file on disk must belong to a live table that still holds
        // at least one cold block — kill waves and disk fallbacks must
        // never strand one. ---
        if cfg.tiering {
            if let Ok(entries) = std::fs::read_dir(cfg.disk_root.join("cold")) {
                for entry in entries.flatten() {
                    let path = entry.path();
                    if path.extension().and_then(|e| e.to_str()) != Some("cold") {
                        continue;
                    }
                    let stem = path
                        .file_stem()
                        .and_then(|s| s.to_str())
                        .unwrap_or_default();
                    let referenced = server
                        .store()
                        .map()
                        .get(stem)
                        .is_some_and(|t| t.cold_blocks() > 0);
                    if !referenced {
                        return Err(err(wave, "orphan cold file", path.display()));
                    }
                }
            }
        }

        // Back up: the same feed must report the leaf answering again.
        report
            .dashboard
            .push(feed.sample_metrics(started.elapsed()));

        report.records.push(WaveRecord {
            wave,
            site: site_label,
            fired,
            memory: outcome.is_memory(),
            writer: writer_name,
            crash: crash_wave,
            tiered: tiered_wave,
        });
        if tiered_wave {
            report.tiered_waves += 1;
        }
        if outcome.is_memory() {
            report.memory_recoveries += 1;
        } else {
            report.disk_recoveries += 1;
        }
        if crash_wave {
            report.crash_waves += 1;
            if outcome.is_memory() {
                report.crash_fast_recoveries += 1;
            } else {
                report.crash_disk_fallbacks += 1;
            }
        }
        if server.recovered_from_checkpoint() {
            warm_recoveries += 1;
        }
        // Hand the wave's spans off (a telemetry sampler would); the ring
        // never accumulates more than a couple of waves' worth.
        let _ = scuba_obs::drain_spans();
        report.waves += 1;
    }
    report.final_rows = server.total_rows();
    // Metric invariants: the leaf's own fast-crash-recovery counter must
    // agree with the warm recoveries the soak observed wave by wave, and
    // every warm recovery must have been a fast one.
    if cfg.crash_waves {
        if warm_recoveries > report.crash_fast_recoveries {
            return Err(format!(
                "warm recoveries {warm_recoveries} exceed fast crash recoveries {}",
                report.crash_fast_recoveries
            ));
        }
        if scuba_obs::enabled() {
            let labels = [("leaf", server.obs_key())];
            let fast =
                scuba_obs::labeled_counter("leaf_crash_fast_recoveries_total", &labels).get();
            if fast as usize != warm_recoveries {
                return Err(format!(
                    "metric invariant violated: leaf_crash_fast_recoveries_total {fast} != \
                     observed warm recoveries {warm_recoveries}"
                ));
            }
        }
    }
    // Metric invariant: hundreds of waves of restart spans, a widened
    // ring, and a drain every wave — not one span may have been dropped.
    if scuba_obs::enabled() {
        let dropped = scuba_obs::counter_value("span_ring_dropped_total").unwrap_or(0);
        if dropped != spans_dropped_baseline {
            return Err(format!(
                "span ring dropped {} spans during the soak (counter {spans_dropped_baseline} -> \
                 {dropped})",
                dropped - spans_dropped_baseline
            ));
        }
    }
    scuba_obs::set_span_capacity(256);
    ns.unlink_all(8);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn soak_config(tag: &str, waves: usize, seed: u64) -> ChaosConfig {
        let prefix = format!("chaosmod{}{}", tag, std::process::id());
        let dir = std::env::temp_dir().join(format!("scuba_{prefix}"));
        let _ = std::fs::remove_dir_all(&dir);
        ChaosConfig {
            seed,
            waves,
            rows_per_wave: 60,
            shm_prefix: prefix,
            disk_root: dir,
            copy_threads: 0,
            two_phase: true,
            mixed_writers: false,
            crash_waves: false,
            tiering: false,
            loadgen: false,
        }
    }

    #[test]
    fn short_soak_passes_and_is_deterministic() {
        let cfg_a = soak_config("a", 12, 7);
        let a = run_chaos(&cfg_a).unwrap();
        assert_eq!(a.waves, 12);
        assert!(a.records.iter().any(|r| r.fired));
        // The metric-fed dashboard saw each wave's dip and recovery.
        assert_eq!(a.dashboard.rows().len(), 2 * a.waves);
        if scuba_obs::enabled() {
            assert!(a.dashboard.rows().iter().any(|r| r.availability == 0.0));
            let last = a.dashboard.rows().last().unwrap();
            assert_eq!(last.availability, 1.0);
            assert_eq!(last.new_version, 1);
        }
        let _ = std::fs::remove_dir_all(&cfg_a.disk_root);

        // Same seed, fresh state: identical wave script and outcomes.
        let cfg_b = soak_config("b", 12, 7);
        let b = run_chaos(&cfg_b).unwrap();
        assert_eq!(a.records, b.records);
        assert_eq!(a.fired_by_site, b.fired_by_site);
        assert_eq!(a.final_rows, b.final_rows);
        let _ = std::fs::remove_dir_all(&cfg_b.disk_root);
    }

    /// A wound at `leaf::phase::memory_recovery` fails the replacement's
    /// first start, and the supervisor's retry resets the registry: the
    /// wave must still record that its site fired.
    #[test]
    fn a_wave_whose_first_start_fails_records_that_its_site_fired() {
        let cfg = soak_config("fired", 30, 3);
        let report = run_chaos(&cfg).unwrap();
        let _ = std::fs::remove_dir_all(&cfg.disk_root);
        let wounded: Vec<&WaveRecord> = report
            .records
            .iter()
            .filter(|r| r.site == "leaf::phase::memory_recovery")
            .collect();
        assert!(!wounded.is_empty(), "the script drew no such wave");
        assert!(wounded.iter().all(|r| r.fired), "{wounded:?}");
        assert_eq!(
            report.fired_by_site.get("leaf::phase::memory_recovery"),
            Some(&(wounded.len() as u64))
        );
    }

    #[test]
    fn a_tiered_crash_soak_leaves_no_cold_file_behind() {
        // Seed 3 of the tiered crash soak at its own scale: the third wave
        // once found `tail.cold` on disk for a table holding no cold block.
        let mut cfg = soak_config("orphan", 3, 3);
        cfg.rows_per_wave = 120;
        cfg.copy_threads = 4;
        cfg.crash_waves = true;
        cfg.tiering = true;
        cfg.loadgen = true;
        let report = run_chaos(&cfg).unwrap_or_else(|violation| panic!("{violation}"));
        let _ = std::fs::remove_dir_all(&cfg.disk_root);
        assert_eq!(report.waves, 3);
    }

    #[test]
    fn short_soak_outcomes_survive_parallel_copy() {
        // One-shot `@N` triggers fire on global hit counters and the
        // protocol outcome (abort → cleanup → disk fallback) does not
        // depend on worker scheduling, so the wave trace with the pool
        // enabled must match the sequential trace for the same seed.
        let cfg_seq = soak_config("s1", 10, 23);
        let seq = run_chaos(&cfg_seq).unwrap();
        let _ = std::fs::remove_dir_all(&cfg_seq.disk_root);

        let mut cfg_par = soak_config("s4", 10, 23);
        cfg_par.copy_threads = 4;
        let par = run_chaos(&cfg_par).unwrap();
        assert_eq!(seq.records, par.records);
        assert_eq!(seq.final_rows, par.final_rows);
        let _ = std::fs::remove_dir_all(&cfg_par.disk_root);
    }

    #[test]
    fn crash_wave_soak_recovers_fast_and_is_deterministic() {
        // Crash-wave soak: even waves die by mid-ingest kill. Clean kills
        // must come back through the warm checkpoint image + WAL replay
        // (asserted inside run_chaos, along with exact tail fidelity and
        // per-wave orphan sweeps); wounded ones fall back to disk. The
        // seeded script must exercise both outcomes, and the whole trace
        // must be deterministic.
        let mut cfg = soak_config("cw", 24, 41);
        cfg.crash_waves = true;
        let a = run_chaos(&cfg).unwrap();
        assert_eq!(a.waves, 24);
        assert_eq!(a.crash_waves, 12);
        assert_eq!(
            a.crash_fast_recoveries + a.crash_disk_fallbacks,
            a.crash_waves
        );
        assert!(
            a.crash_fast_recoveries > 0,
            "no crash wave took the fast path: {:?}",
            a.records
        );
        assert!(
            a.records.iter().any(|r| r.crash && !r.memory),
            "no wounded crash wave fell back to disk: {:?}",
            a.records
        );
        // Planned rollovers still interleave and still memory-restore.
        assert!(a.records.iter().any(|r| !r.crash && r.memory));
        // The metric-fed dashboard rows carry the crash-path overlay:
        // cumulative fast recoveries and (while the WAL has a tail) the
        // pending byte count.
        if scuba_obs::enabled() {
            assert!(
                a.dashboard
                    .rows()
                    .iter()
                    .any(|r| r.crash_fast_recoveries > 0),
                "dashboard never surfaced a fast crash recovery"
            );
            assert!(
                a.dashboard.rows().iter().any(|r| r.wal_bytes > 0),
                "dashboard never surfaced WAL bytes"
            );
        }
        let _ = std::fs::remove_dir_all(&cfg.disk_root);

        // Same seed, fresh state: identical crash script and outcomes.
        let mut cfg_b = soak_config("cwb", 24, 41);
        cfg_b.crash_waves = true;
        let b = run_chaos(&cfg_b).unwrap();
        assert_eq!(a.records, b.records);
        assert_eq!(a.crash_fast_recoveries, b.crash_fast_recoveries);
        assert_eq!(a.final_rows, b.final_rows);
        let _ = std::fs::remove_dir_all(&cfg_b.disk_root);
    }

    #[test]
    fn mixed_writer_soak_restores_old_images() {
        // Upgrade-wave soak: the outgoing leaf randomly shuts down as the
        // pre-refactor v1 binary or an early-TLV v2 binary, and the
        // replacement (always the current binary) must still memory-restore
        // whenever no fault wounded the wave — across both restore modes.
        let mut cfg = soak_config("mw", 18, 99);
        cfg.mixed_writers = true;
        let report = run_chaos(&cfg).unwrap();
        assert_eq!(report.waves, 18);
        // The seeded script must actually have drawn old writers, and an
        // old-writer wave must have come back through shared memory.
        assert!(report.records.iter().any(|r| r.writer == "legacy-v1"));
        assert!(report.records.iter().any(|r| r.writer == "aged-v2"));
        assert!(
            report
                .records
                .iter()
                .any(|r| r.writer != "current" && r.memory),
            "no old-writer image memory-restored: {:?}",
            report.records
        );
        let _ = std::fs::remove_dir_all(&cfg.disk_root);

        // Determinism holds with the writer dimension in play.
        let mut cfg_b = soak_config("mwb", 18, 99);
        cfg_b.mixed_writers = true;
        let b = run_chaos(&cfg_b).unwrap();
        assert_eq!(report.records, b.records);
        let _ = std::fs::remove_dir_all(&cfg_b.disk_root);
    }

    #[test]
    fn loadgen_soak_serves_concurrent_traffic_with_exact_fidelity() {
        // Loadgen + crash waves + two-phase: every wave serves a seeded
        // concurrent query burst before the wound, over the mapped
        // segments mid-hydration, and after recovery. run_chaos fails the
        // wave if any leg's result deviates from the durable oracle, and
        // (with obs enabled) if span_ring_dropped_total moves.
        let mut cfg = soak_config("lg", 12, 17);
        cfg.crash_waves = true;
        cfg.loadgen = true;
        let a = run_chaos(&cfg).unwrap();
        assert_eq!(a.waves, 12);
        // At least the serving + recovered bursts ran every wave (the
        // mid-hydration burst only on two-phase memory restores).
        assert!(
            a.load_legs >= 12 * 2 * 32,
            "expected >= 768 load legs, got {}",
            a.load_legs
        );
        let _ = std::fs::remove_dir_all(&cfg.disk_root);

        // The wave trace is untouched by the reader threads: same seed,
        // fresh state, identical script and outcomes — and the same leg
        // count (the burst schedule is seeded, not timing-dependent).
        let mut cfg_b = soak_config("lgb", 12, 17);
        cfg_b.crash_waves = true;
        cfg_b.loadgen = true;
        let b = run_chaos(&cfg_b).unwrap();
        assert_eq!(a.records, b.records);
        assert_eq!(a.load_legs, b.load_legs);
        assert_eq!(a.final_rows, b.final_rows);
        let _ = std::fs::remove_dir_all(&cfg_b.disk_root);
    }

    #[test]
    fn tiered_soak_holds_budget_and_leaves_no_orphans() {
        // Tiering + crash waves: a seeded subset of replacements runs
        // SIEVE under a 1-byte budget. run_chaos asserts the budget
        // invariant, durable fidelity, and the cold-file orphan sweep
        // after every wave; here we assert the dimension actually mixed
        // and that the trace is deterministic.
        let mut cfg = soak_config("tier", 16, 61);
        cfg.tiering = true;
        cfg.crash_waves = true;
        let a = run_chaos(&cfg).unwrap();
        assert_eq!(a.waves, 16);
        assert!(
            a.tiered_waves > 0 && a.tiered_waves < a.waves,
            "seeded subset must mix tiered and untiered waves: {} of {}",
            a.tiered_waves,
            a.waves
        );
        assert!(a.max_cold_blocks > 0, "tiering never demoted a block");
        assert!(
            a.records.iter().any(|r| r.tiered && r.memory),
            "no tiered wave memory-restored: {:?}",
            a.records
        );
        let _ = std::fs::remove_dir_all(&cfg.disk_root);

        // Same seed, fresh state: identical script and outcomes.
        let mut cfg_b = soak_config("tierb", 16, 61);
        cfg_b.tiering = true;
        cfg_b.crash_waves = true;
        let b = run_chaos(&cfg_b).unwrap();
        assert_eq!(a.records, b.records);
        assert_eq!(a.max_cold_blocks, b.max_cold_blocks);
        assert_eq!(a.final_rows, b.final_rows);
        let _ = std::fs::remove_dir_all(&cfg_b.disk_root);
    }
}
