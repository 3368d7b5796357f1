//! `scuba-obs` — process-wide observability for the restart protocol.
//!
//! The paper tells its operational story through measurements: Figure 5's
//! restart-time breakdown, Figure 7's per-phase copy loop, and Figure 8's
//! fleet-wide rollover dashboard. This crate is the substrate those numbers
//! flow through in the reproduction:
//!
//! * a process-global **metrics registry** ([`counter`], [`gauge`],
//!   [`histogram`]) of relaxed-atomic counters/gauges and fixed-bucket
//!   log₂-scale histograms — lock-free on the hot path;
//! * a structured **span API** ([`span_start`], [`span!`]) recording
//!   start/duration/bytes/outcome into a bounded ring buffer, flushed on
//!   `Drop` so error paths keep their partial timings;
//! * two **sinks** — Prometheus text exposition and a JSON snapshot
//!   ([`prometheus_text`], [`json_snapshot`]);
//! * a **[`RestartReport`]** consumer that renders the Figure-5-style
//!   per-phase breakdown after every backup/restore.
//!
//! # Hot-path contract
//!
//! Like `scuba-faults`, the disabled path is one relaxed atomic load plus a
//! branch — cheap enough to leave instrumentation compiled into release
//! binaries. Instrumentation is **on by default** and disabled by setting
//! `SCUBA_OBS=0` (or `off`/`false`) in the environment; `set_enabled`
//! overrides the environment at runtime (used by tests and benches).

mod metrics;
mod report;
mod sink;
mod span;
mod telemetry;

pub use metrics::{
    counter, counter_value, gauge, gauge_value, gauge_values, histogram, histogram_quantile,
    labeled_counter, labeled_gauge, labeled_name, registry_snapshot, Counter, Gauge, Histogram,
    MetricSnapshot, HISTOGRAM_BUCKETS,
};
pub use report::{
    clear_breakdown, last_backup_breakdown, last_checkpoint_breakdown, last_restore_breakdown,
    publish_breakdown, Phase, PhaseAcc, PhaseBreakdown, RestartReport, TableSample, BACKUP_PHASES,
    RESTORE_PHASES,
};
pub use sink::{json_snapshot, prometheus_text, prometheus_text_for, promlint};
pub use span::{
    clear_spans, clear_trace_id, current_trace_id, drain_spans, emit_span, next_trace_id,
    recent_spans, set_span_capacity, set_trace_id, span_start, Span, SpanRecord,
};
pub use telemetry::{TelemetryEvent, TelemetrySampler, TELEMETRY_QUANTILES};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Environment variable controlling instrumentation. Unset or anything other
/// than `0`/`off`/`false` means **enabled**.
pub const ENV_VAR: &str = "SCUBA_OBS";

const UNINIT: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

/// Tri-state switch: 0 = not yet initialised from the environment,
/// 1 = disabled, 2 = enabled. The fast path is a single relaxed load.
static ENABLED: AtomicU8 = AtomicU8::new(UNINIT);

/// Is instrumentation live? One relaxed load + branch on the hot path; the
/// first call per process parses [`ENV_VAR`] in a `#[cold]` slow path.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = match std::env::var(ENV_VAR) {
        Ok(v) => {
            let v = v.trim().to_ascii_lowercase();
            !(v == "0" || v == "off" || v == "false")
        }
        Err(_) => true,
    };
    ENABLED.store(if on { ON } else { OFF }, Ordering::Relaxed);
    on
}

/// Force instrumentation on or off, overriding the environment. Tests and
/// benches use this; production code relies on [`ENV_VAR`].
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { ON } else { OFF }, Ordering::Relaxed);
}

/// A timer that only reads the clock when instrumentation is enabled, so
/// disabled runs skip the `Instant::now()` syscall entirely.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Start timing if instrumentation is enabled; otherwise an inert
    /// stopwatch whose readings are all zero.
    #[inline]
    pub fn start() -> Stopwatch {
        Stopwatch(if enabled() {
            Some(Instant::now())
        } else {
            None
        })
    }

    /// A stopwatch that never reads the clock (reads zero).
    pub fn inert() -> Stopwatch {
        Stopwatch(None)
    }

    /// Whether this stopwatch actually captured a start time.
    #[inline]
    pub fn active(&self) -> bool {
        self.0.is_some()
    }

    /// Nanoseconds since `start()`, or 0 for an inert stopwatch.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        match self.0 {
            Some(t) => t.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Elapsed time, or zero for an inert stopwatch.
    #[inline]
    pub fn elapsed(&self) -> Duration {
        self.0.map(|t| t.elapsed()).unwrap_or(Duration::ZERO)
    }
}

/// Serialise tests that toggle [`set_enabled`] or assert on process-global
/// registry state. Mirrors `scuba_faults::exclusive()`.
pub fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_tracks_enabled_state() {
        let _x = exclusive();
        set_enabled(true);
        let sw = Stopwatch::start();
        assert!(sw.active());
        set_enabled(false);
        let off = Stopwatch::start();
        assert!(!off.active());
        assert_eq!(off.elapsed_ns(), 0);
        assert_eq!(off.elapsed(), Duration::ZERO);
        set_enabled(true);
    }

    #[test]
    fn inert_stopwatch_reads_zero() {
        let sw = Stopwatch::inert();
        assert!(!sw.active());
        assert_eq!(sw.elapsed_ns(), 0);
    }
}
