//! Figure-5-style restart phase accounting and the `RestartReport` renderer.
//!
//! The backup path decomposes into prepare → extract → encode → CRC →
//! shm-write → commit; restore mirrors it as open → CRC → heap-copy →
//! decode → install → commit. A crash start that replays the WAL adds a
//! third breakdown: WAL read → apply → disk reconcile → writer reopen.
//! `PhaseAcc` collects nanoseconds per phase
//! (atomic, so parallel copy workers can add concurrently), and
//! `PhaseBreakdown` is the frozen result stashed after every run —
//! including failed ones, so partial timings survive for diagnosis.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::metrics::labeled_counter;

/// One phase of the restart protocol (backup and restore share the enum;
/// `Crc` and `Commit` appear on both sides).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Backup: segment estimate/create + metadata registration.
    Prepare,
    /// Backup: `backup_extract` pulling units out of the store.
    Extract,
    /// Backup: serialising extracted units into frames (store callback
    /// time minus sink-internal CRC + write time).
    Encode,
    /// Checksumming payload (both directions).
    Crc,
    /// Backup: writing frames into the shared-memory segment.
    ShmWrite,
    /// Valid-bit flip + metadata sync (both directions).
    Commit,
    /// Restore: opening and mapping the existing segments.
    Open,
    /// Restore: the one `memcpy` out of shared memory onto the heap.
    HeapCopy,
    /// Restore: deserialising frames back into units (store callback time
    /// minus source-internal CRC + copy time).
    Decode,
    /// Restore: installing decoded units into the store.
    Install,
    /// Crash replay: reading the WAL segments and checking their frames.
    WalRead,
    /// Crash replay: decoding WAL batches into the tables' builders.
    WalApply,
    /// Crash replay: making the disk backup cover the replayed rows.
    Reconcile,
    /// Crash replay: reopening the WAL writer at the valid length read.
    WalReopen,
}

/// Total number of [`Phase`] variants (array-acc size).
const PHASE_COUNT: usize = 14;

/// Backup phases in report order.
pub const BACKUP_PHASES: [Phase; 6] = [
    Phase::Prepare,
    Phase::Extract,
    Phase::Encode,
    Phase::Crc,
    Phase::ShmWrite,
    Phase::Commit,
];

/// Restore phases in report order.
pub const RESTORE_PHASES: [Phase; 6] = [
    Phase::Open,
    Phase::Crc,
    Phase::HeapCopy,
    Phase::Decode,
    Phase::Install,
    Phase::Commit,
];

impl Phase {
    /// Stable lower-case name used in metric labels and reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Prepare => "prepare",
            Phase::Extract => "extract",
            Phase::Encode => "encode",
            Phase::Crc => "crc",
            Phase::ShmWrite => "shm_write",
            Phase::Commit => "commit",
            Phase::Open => "open",
            Phase::HeapCopy => "heap_copy",
            Phase::Decode => "decode",
            Phase::Install => "install",
            Phase::WalRead => "wal_read",
            Phase::WalApply => "wal_apply",
            Phase::Reconcile => "reconcile",
            Phase::WalReopen => "wal_reopen",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Prepare => 0,
            Phase::Extract => 1,
            Phase::Encode => 2,
            Phase::Crc => 3,
            Phase::ShmWrite => 4,
            Phase::Commit => 5,
            Phase::Open => 6,
            Phase::HeapCopy => 7,
            Phase::Decode => 8,
            Phase::Install => 9,
            Phase::WalRead => 10,
            Phase::WalApply => 11,
            Phase::Reconcile => 12,
            Phase::WalReopen => 13,
        }
    }
}

/// Per-phase nanosecond accumulator for one backup/restore run. Atomic so
/// the parallel copy pool's workers can add without coordination.
#[derive(Debug, Default)]
pub struct PhaseAcc {
    slots: [AtomicU64; PHASE_COUNT],
}

impl PhaseAcc {
    /// Fresh accumulator with all phases at zero.
    pub fn new() -> PhaseAcc {
        PhaseAcc::default()
    }

    /// Add `ns` nanoseconds to `phase`.
    #[inline]
    pub fn add(&self, phase: Phase, ns: u64) {
        if ns > 0 {
            self.slots[phase.index()].fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Nanoseconds accumulated for `phase`.
    pub fn get(&self, phase: Phase) -> u64 {
        self.slots[phase.index()].load(Ordering::Relaxed)
    }
}

/// Per-table timing captured during a run; failed tables keep the partial
/// duration measured up to the failure point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSample {
    /// Table (unit) name.
    pub table: String,
    /// Wall time spent copying this table (partial if `!ok`).
    pub duration: Duration,
    /// Payload bytes moved for this table before success/failure.
    pub bytes: u64,
    /// Frames moved for this table.
    pub chunks: u64,
    /// Whether the table completed.
    pub ok: bool,
}

/// The frozen Figure-5-style result of one backup or restore run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// `"backup"`, `"checkpoint"`, `"restore"` or `"crash"`.
    pub op: &'static str,
    /// Phase durations in report order.
    pub phases: Vec<(Phase, Duration)>,
    /// End-to-end wall time of the run.
    pub total: Duration,
    /// Total payload bytes moved.
    pub bytes: u64,
    /// Total frames moved.
    pub chunks: u64,
    /// Units (tables) attempted.
    pub units: usize,
    /// Copy-pool width used.
    pub threads: usize,
    /// `false` if the run errored out (timings are partial).
    pub complete: bool,
    /// Per-table samples, including failed tables.
    pub tables: Vec<TableSample>,
}

impl PhaseBreakdown {
    /// Assemble a breakdown from an accumulator. `phases` selects and
    /// orders which slots appear (backup vs restore set); the run-level
    /// fields (`total`, `bytes`, …) start zeroed and are filled in by the
    /// caller.
    pub fn from_acc(op: &'static str, acc: &PhaseAcc, phases: &[Phase]) -> PhaseBreakdown {
        PhaseBreakdown {
            op,
            phases: phases
                .iter()
                .map(|&p| (p, Duration::from_nanos(acc.get(p))))
                .collect(),
            total: Duration::ZERO,
            bytes: 0,
            chunks: 0,
            units: 0,
            threads: 1,
            complete: true,
            tables: Vec::new(),
        }
    }

    /// Sum of the per-phase durations.
    pub fn phase_sum(&self) -> Duration {
        self.phases.iter().map(|&(_, d)| d).sum()
    }

    /// Duration recorded for one phase (zero if absent).
    pub fn phase(&self, phase: Phase) -> Duration {
        self.phases
            .iter()
            .find(|&&(p, _)| p == phase)
            .map(|&(_, d)| d)
            .unwrap_or(Duration::ZERO)
    }

    /// Throughput over the whole run in MB/s (0 when the total is 0).
    pub fn mb_per_sec(&self) -> f64 {
        let secs = self.total.as_secs_f64();
        if secs > 0.0 {
            self.bytes as f64 / secs / 1e6
        } else {
            0.0
        }
    }
}

/// Renders one or two [`PhaseBreakdown`]s as the Figure-5-style table that
/// `exp_restart_time` prints after each run.
#[derive(Debug, Clone, Default)]
pub struct RestartReport {
    /// Backup-side breakdown, if a backup ran.
    pub backup: Option<PhaseBreakdown>,
    /// Restore-side breakdown, if a restore ran.
    pub restore: Option<PhaseBreakdown>,
    /// Crash-replay breakdown, if a start replayed the WAL.
    pub crash: Option<PhaseBreakdown>,
}

impl RestartReport {
    /// Report over whatever the last backup/restore in this process were.
    pub fn capture() -> RestartReport {
        RestartReport {
            backup: last_backup_breakdown(),
            restore: last_restore_breakdown(),
            crash: last_breakdown("crash"),
        }
    }
}

fn fmt_phase_dur(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else {
        format!("{:.1} us", secs * 1e6)
    }
}

fn write_breakdown(f: &mut fmt::Formatter<'_>, b: &PhaseBreakdown) -> fmt::Result {
    writeln!(
        f,
        "  {} — {} unit(s), {} chunk(s), {} bytes, {} thread(s){}",
        b.op,
        b.units,
        b.chunks,
        b.bytes,
        b.threads,
        if b.complete { "" } else { "  [INCOMPLETE]" }
    )?;
    let total_ns = b.total.as_nanos().max(1) as f64;
    for &(phase, dur) in &b.phases {
        writeln!(
            f,
            "    {:<10} {:>12}  {:>5.1}%",
            phase.name(),
            fmt_phase_dur(dur),
            dur.as_nanos() as f64 / total_ns * 100.0
        )?;
    }
    writeln!(
        f,
        "    {:<10} {:>12}  (phase sum {}, {:.0} MB/s)",
        "total",
        fmt_phase_dur(b.total),
        fmt_phase_dur(b.phase_sum()),
        b.mb_per_sec()
    )?;
    for t in &b.tables {
        writeln!(
            f,
            "      table {:<16} {:>12}  {:>10} B  {:>6} chunk(s)  {}",
            t.table,
            fmt_phase_dur(t.duration),
            t.bytes,
            t.chunks,
            if t.ok { "ok" } else { "FAILED (partial)" }
        )?;
    }
    Ok(())
}

impl fmt::Display for RestartReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "restart report (Figure 5 phase breakdown):")?;
        let recorded = [&self.backup, &self.restore, &self.crash];
        if recorded.iter().all(|b| b.is_none()) {
            writeln!(f, "  (no backup or restore recorded)")?;
        }
        for b in recorded.into_iter().flatten() {
            write_breakdown(f, b)?;
        }
        Ok(())
    }
}

static LAST_BACKUP: Mutex<Option<PhaseBreakdown>> = Mutex::new(None);
static LAST_RESTORE: Mutex<Option<PhaseBreakdown>> = Mutex::new(None);
static LAST_CRASH: Mutex<Option<PhaseBreakdown>> = Mutex::new(None);
static LAST_CHECKPOINT: Mutex<Option<PhaseBreakdown>> = Mutex::new(None);

fn last_slot(op: &str) -> &'static Mutex<Option<PhaseBreakdown>> {
    match op {
        "restore" => &LAST_RESTORE,
        "crash" => &LAST_CRASH,
        "checkpoint" => &LAST_CHECKPOINT,
        _ => &LAST_BACKUP,
    }
}

fn last_breakdown(op: &str) -> Option<PhaseBreakdown> {
    last_slot(op)
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clone()
}

/// Stash a finished breakdown as the process-wide "last run" for its op and
/// mirror the per-phase nanoseconds into the
/// `restart_phase_nanos_total{op,phase}` counter family.
pub fn publish_breakdown(breakdown: PhaseBreakdown) {
    for &(phase, dur) in &breakdown.phases {
        labeled_counter(
            "restart_phase_nanos_total",
            &[("op", breakdown.op), ("phase", phase.name())],
        )
        .add(dur.as_nanos() as u64);
    }
    let slot = last_slot(breakdown.op);
    *slot.lock().unwrap_or_else(|p| p.into_inner()) = Some(breakdown);
}

/// Forget the last breakdown published for `op`, so a run that publishes
/// none does not leave an earlier run's breakdown standing as its own.
pub fn clear_breakdown(op: &str) {
    *last_slot(op).lock().unwrap_or_else(|p| p.into_inner()) = None;
}

/// The most recent backup breakdown published in this process.
pub fn last_backup_breakdown() -> Option<PhaseBreakdown> {
    last_breakdown("backup")
}

/// The most recent restore breakdown published in this process.
pub fn last_restore_breakdown() -> Option<PhaseBreakdown> {
    last_breakdown("restore")
}

/// The most recent checkpoint cycle's breakdown published in this process
/// (op `checkpoint`: the backup phases of the cycle's image write).
pub fn last_checkpoint_breakdown() -> Option<PhaseBreakdown> {
    last_breakdown("checkpoint")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_breakdown() -> PhaseBreakdown {
        let acc = PhaseAcc::new();
        acc.add(Phase::Extract, 1_000_000);
        acc.add(Phase::Crc, 500_000);
        acc.add(Phase::ShmWrite, 2_000_000);
        let mut b = PhaseBreakdown::from_acc("backup", &acc, &BACKUP_PHASES);
        b.total = Duration::from_nanos(3_600_000);
        b.bytes = 4096;
        b.chunks = 4;
        b.units = 2;
        b.tables = vec![TableSample {
            table: "t".into(),
            duration: Duration::from_millis(3),
            bytes: 4096,
            chunks: 4,
            ok: true,
        }];
        b
    }

    #[test]
    fn breakdown_math() {
        let b = sample_breakdown();
        assert_eq!(b.phase(Phase::Crc), Duration::from_nanos(500_000));
        assert_eq!(b.phase_sum(), Duration::from_nanos(3_500_000));
        assert!(b.mb_per_sec() > 0.0);
    }

    #[test]
    fn report_renders_phases_and_tables() {
        let report = RestartReport {
            backup: Some(sample_breakdown()),
            ..RestartReport::default()
        };
        let text = format!("{report}");
        assert!(text.contains("extract"), "{text}");
        assert!(text.contains("shm_write"), "{text}");
        assert!(text.contains("table t"), "{text}");
        assert!(!text.contains("INCOMPLETE"), "{text}");
    }

    #[test]
    fn report_renders_the_crash_split() {
        let crash = PhaseBreakdown {
            op: "crash",
            phases: vec![
                (Phase::WalRead, Duration::from_millis(17)),
                (Phase::WalApply, Duration::from_millis(120)),
                (Phase::Reconcile, Duration::from_millis(9)),
                (Phase::WalReopen, Duration::from_micros(40)),
            ],
            ..PhaseBreakdown::from_acc("crash", &PhaseAcc::new(), &[])
        };
        let text = format!(
            "{}",
            RestartReport {
                crash: Some(crash),
                ..RestartReport::default()
            }
        );
        for phase in ["wal_read", "wal_apply", "reconcile", "wal_reopen"] {
            assert!(text.contains(phase), "{text}");
        }
        assert!(!text.contains("no backup or restore"), "{text}");
    }

    #[test]
    fn publish_updates_last_and_counters() {
        let _x = crate::exclusive();
        crate::set_enabled(true);
        let before = crate::counter_value(&crate::labeled_name(
            "restart_phase_nanos_total",
            &[("op", "backup"), ("phase", "crc")],
        ))
        .unwrap_or(0);
        let b = sample_breakdown();
        publish_breakdown(b.clone());
        assert_eq!(last_backup_breakdown().as_ref(), Some(&b));
        let after = crate::counter_value(&crate::labeled_name(
            "restart_phase_nanos_total",
            &[("op", "backup"), ("phase", "crc")],
        ))
        .unwrap();
        assert_eq!(after - before, 500_000);
    }
}
