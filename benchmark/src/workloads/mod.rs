//! The four workloads. Each sets up its data, measures for the requested
//! time, checks every answer against the generator's oracle and returns
//! the same seven end-to-end numbers plus whatever its layers showed.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::trace::Tracer;

pub mod ingest_crash;
pub mod planned_restart;
pub mod scan_mix;
pub mod serve_rollover;

/// Cycles run and thrown away before any cycle-based sample is kept: this
/// VM backs guest pages on first touch, so the first cycles of a run are
/// several times slower than the rest.
pub const WARMUP_CYCLES: usize = 3;

/// The ingest timestamp every workload stamps its rows with.
pub const NOW: i64 = crate::gen::T0;

/// Largest batch converted to product rows at once while loading.
pub const LOAD_CHUNK: usize = 50_000;

/// What the command line chose.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Sizes ÷ 20 and one cycle per phase; every check stays live.
    pub smoke: bool,
}

impl Ctx {
    /// A full-size row count, or a twentieth of it under `--smoke`.
    pub fn rows(&self, full: usize) -> usize {
        if self.smoke {
            full / 20
        } else {
            full
        }
    }

    pub fn warmup_cycles(&self) -> usize {
        if self.smoke {
            1
        } else {
            WARMUP_CYCLES
        }
    }
}

/// The end-to-end numbers; every workload reports every one (see the
/// README for what each means on each workload).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub restart_first_answer_ms: f64,
    pub restart_full_speed_ms: f64,
    pub op_p50_ms: f64,
    pub op_mean_ms: f64,
    pub goodput_fraction: f64,
    pub peak_rss_mib: f64,
}

impl EndToEnd {
    pub fn by_name(&self) -> [(&'static str, f64); 7] {
        [
            ("setup_s", self.setup_s),
            ("restart_first_answer_ms", self.restart_first_answer_ms),
            ("restart_full_speed_ms", self.restart_full_speed_ms),
            ("op_p50_ms", self.op_p50_ms),
            ("op_mean_ms", self.op_mean_ms),
            ("goodput_fraction", self.goodput_fraction),
            ("peak_rss_mib", self.peak_rss_mib),
        ]
    }
}

/// The lower quartile of a run's per-cycle values: with the five to eight
/// cycles a run has, its second-fastest cycle.
///
/// Every end-to-end timing is taken cycle by cycle and the run reports this
/// quartile, not the median. The shared host this runs on changes speed in
/// bursts of seconds (README, finding 8): mostly it adds time — over six
/// disturbed runs the median planned-restart cycle ranged 746–1008 ms
/// where the fastest ranged 709–798 ms — and now and then it runs a fifth
/// faster for a few seconds, which makes the fastest cycle as jumpy as the
/// median. The second-fastest cycle shrugs off one lucky cycle and up to
/// two thirds of unlucky ones. Medians and quartiles over all cycles are
/// still printed, and the per-layer metrics stay medians.
pub fn lower_quartile(per_cycle: &[f64]) -> f64 {
    crate::stats::Summary::of(per_cycle).p25
}

/// The foreground operations of each cycle, reduced to the cycle's median
/// and mean latency.
#[derive(Debug, Default)]
pub struct CycleOps {
    pub p50: Vec<f64>,
    pub mean: Vec<f64>,
}

impl CycleOps {
    /// Close a cycle over its operations' latencies. `other_busy_ms` is
    /// time the operations' mean has to carry besides their own (the disk
    /// syncs between ingest batches).
    pub fn close(&mut self, latencies_ms: &[f64], other_busy_ms: f64) {
        if latencies_ms.is_empty() {
            return;
        }
        self.p50.push(crate::stats::median(latencies_ms));
        self.mean
            .push((latencies_ms.iter().sum::<f64>() + other_busy_ms) / latencies_ms.len() as f64);
    }
}

/// Operations attempted and failed, with the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    /// Count one operation; an `Err` is a failed one.
    pub fn record<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(why) => {
                self.fail(why);
                None
            }
        }
    }

    /// A failure of something already counted as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(why);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(r);
            }
        }
    }
}

/// Everything one run of one workload produced.
#[derive(Debug)]
pub struct Outcome {
    pub tally: Tally,
    pub end_to_end: EndToEnd,
    /// Per-layer numbers this workload measured; the rest read 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// Sample counts and quartiles behind the medians, for the report.
    pub notes: Vec<String>,
    pub tracer: Tracer,
}

/// A measuring window: loops run until it closes, and at least `min`
/// times.
#[derive(Debug)]
pub struct Window {
    opened: Instant,
    length: Duration,
    min: usize,
    done: usize,
}

impl Window {
    pub fn open(seconds: f64, min: usize) -> Window {
        Window {
            opened: Instant::now(),
            length: Duration::from_secs_f64(seconds),
            min,
            done: 0,
        }
    }

    /// True while another iteration should run; counts it.
    pub fn again(&mut self) -> bool {
        let go = self.done < self.min || self.opened.elapsed() < self.length;
        if go {
            self.done += 1;
        }
        go
    }
}

/// A note line for a sample set: `name: n=… p25/p50/p75 … tail …`.
pub fn note(name: &str, unit: &str, samples: &[f64]) -> String {
    if samples.is_empty() {
        return format!("{name}: no samples");
    }
    let s = crate::stats::Summary::of(samples);
    let tail = match s.tail {
        Some((level, v)) => format!(" p{level}={v:.3}"),
        None => String::new(),
    };
    // A handful of cycles is shown whole, in the order they ran.
    let each = if samples.len() <= 16 {
        let each: Vec<String> = samples.iter().map(|v| format!("{v:.1}")).collect();
        format!(" [{}]", each.join(" "))
    } else {
        String::new()
    };
    format!(
        "{name} [{unit}]: n={} p25={:.3} p50={:.3} p75={:.3}{tail} max={:.3}{each}",
        s.n, s.p25, s.p50, s.p75, s.max
    )
}
