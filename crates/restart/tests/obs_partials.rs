//! A worker that errors mid-copy must still flush its partial per-table
//! timing — the failed table shows up in the published breakdown with the
//! chunks/bytes/duration it managed before the error, and its
//! `backup.table` / `restore.table` span lands in the ring with outcome
//! `"error"`.
//!
//! The error comes from the test store itself, per unit: [`WOUNDED`] fails
//! right after its first chunk, on backup and on restore. So the same
//! assertions hold at every copy-pool width, `SCUBA_COPY_THREADS` pins
//! included — a failpoint armed by global hit count would assume the
//! inline loop's order.
//!
//! These tests live in their own binary so the process-global metric
//! registry, span ring, and last-breakdown slots see only this file's
//! traffic; the obs test lock serializes the tests among themselves.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use scuba_restart::framing::TAG_STORE_BASE;
use scuba_restart::{
    backup_to_shm_with, restore_from_shm_with, ChunkDesc, ChunkSink, ChunkSource, CopyOptions,
    ShmBackup, ShmPersistable, SHM_LAYOUT_VERSION,
};
use scuba_shmem::{ShmError, ShmNamespace};

const CHUNK_LEN: usize = 64 * 1024;
const CHUNKS_PER_UNIT: usize = 3;

/// The unit that fails right after its first chunk: on backup when the
/// store is [`ObsStore::wounding_backup`], on every restore.
const WOUNDED: &str = "t01";

#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct ObsStore {
    units: BTreeMap<String, Vec<Vec<u8>>>,
    wound_backup: bool,
}

impl ObsStore {
    fn two_tables() -> ObsStore {
        let units = (0..2)
            .map(|u| {
                let chunks = (0..CHUNKS_PER_UNIT)
                    .map(|c| vec![(u * 31 + c) as u8; CHUNK_LEN])
                    .collect();
                (format!("t{u:02}"), chunks)
            })
            .collect();
        ObsStore {
            units,
            wound_backup: false,
        }
    }

    fn wounding_backup(mut self) -> ObsStore {
        self.wound_backup = true;
        self
    }
}

fn wound(unit: &str) -> ObsError {
    ObsError(format!("{unit} fails after its first chunk"))
}

#[derive(Debug)]
struct ObsError(String);
impl fmt::Display for ObsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl std::error::Error for ObsError {}
impl From<ShmError> for ObsError {
    fn from(e: ShmError) -> Self {
        ObsError(e.to_string())
    }
}

impl ShmBackup for ObsStore {
    type Error = ObsError;
    /// The unit's chunks, and whether backing it up fails after the first.
    type Unit = (Vec<Vec<u8>>, bool);
    type Written = ();
    fn unit_names(&self) -> Vec<String> {
        self.units.keys().cloned().collect()
    }
    fn estimate_unit_size(&self, unit: &str) -> usize {
        self.units
            .get(unit)
            .map(|cs| cs.iter().map(|c| c.len() + 16).sum())
            .unwrap_or(0)
    }
    fn extract_unit(&mut self, unit: &str) -> Result<Self::Unit, ObsError> {
        let chunks = self
            .units
            .remove(unit)
            .ok_or_else(|| ObsError(format!("unknown unit {unit}")))?;
        Ok((chunks, self.wound_backup && unit == WOUNDED))
    }
    fn backup_extracted(data: Self::Unit, sink: &mut dyn ChunkSink) -> Result<(), ObsError> {
        let (chunks, wounded) = data;
        for (i, c) in chunks.iter().enumerate() {
            if wounded && i == 1 {
                return Err(wound(WOUNDED));
            }
            sink.put_chunk(ChunkDesc::new(TAG_STORE_BASE, 1), c)?;
        }
        Ok(())
    }
    fn heap_bytes(&self) -> usize {
        self.units
            .values()
            .flat_map(|cs| cs.iter())
            .map(Vec::len)
            .sum()
    }
}

impl ShmPersistable for ObsStore {
    type Error = ObsError;
    /// The unit's chunks, and whether backing it up fails after the first.
    type Unit = (Vec<Vec<u8>>, bool);
    fn decode_unit(unit: &str, source: &mut dyn ChunkSource) -> Result<Self::Unit, ObsError> {
        let mut chunks = Vec::new();
        while let Some((_desc, c)) = source.next_chunk()? {
            chunks.push(c);
            if unit == WOUNDED {
                return Err(wound(unit));
            }
        }
        Ok((chunks, false))
    }
    fn install_unit(&mut self, unit: &str, data: Self::Unit) -> Result<(), ObsError> {
        self.units.insert(unit.to_owned(), data.0);
        Ok(())
    }
    fn heap_bytes(&self) -> usize {
        self.units
            .values()
            .flat_map(|cs| cs.iter())
            .map(Vec::len)
            .sum()
    }
}

const V: u32 = SHM_LAYOUT_VERSION;

static COUNTER: AtomicU32 = AtomicU32::new(0);

fn test_ns() -> ShmNamespace {
    ShmNamespace::new(
        &format!("obp{}", std::process::id()),
        COUNTER.fetch_add(1, Ordering::Relaxed),
    )
    .unwrap()
}

struct Cleanup(ShmNamespace);
impl Drop for Cleanup {
    fn drop(&mut self) {
        self.0.unlink_all(16);
    }
}

#[test]
fn failed_backup_flushes_partial_table_timings() {
    let _x = scuba_obs::exclusive();
    scuba_obs::set_enabled(true);
    scuba_obs::clear_spans();

    let ns = test_ns();
    let _c = Cleanup(ns.clone());
    // t00's three chunks pass; t01 lands one chunk and dies before its
    // second — mid-copy, not between units.
    let mut store = ObsStore::two_tables().wounding_backup();
    let err = backup_to_shm_with(&mut store, &ns, V, CopyOptions::with_threads(1));
    assert!(err.is_err(), "the wounded unit must abort the backup");

    let b = scuba_obs::last_backup_breakdown().expect("failed backup must publish a breakdown");
    assert_eq!(b.op, "backup");
    assert!(!b.complete, "failed run must be marked incomplete");
    assert_eq!(b.tables.len(), 2, "both tables must have samples: {b:?}");

    let full = &b.tables[0];
    assert_eq!(full.table, "t00");
    assert!(full.ok);
    assert_eq!(full.chunks, CHUNKS_PER_UNIT as u64);
    assert_eq!(full.bytes, (CHUNKS_PER_UNIT * CHUNK_LEN) as u64);

    // The regression: the failed table's *partial* progress survives.
    let partial = &b.tables[1];
    assert_eq!(partial.table, "t01");
    assert!(!partial.ok);
    assert_eq!(partial.chunks, 1, "one chunk landed before the error");
    assert_eq!(partial.bytes, CHUNK_LEN as u64);
    assert!(partial.duration > Duration::ZERO);

    // Run-level totals are summed from the partial tables, and the timed
    // phases the partial copy went through are non-zero.
    assert_eq!(b.bytes, full.bytes + partial.bytes);
    assert_eq!(b.chunks, full.chunks + partial.chunks);
    assert!(b.phase(scuba_obs::Phase::ShmWrite) > Duration::ZERO);
    assert!(b.phase(scuba_obs::Phase::Crc) > Duration::ZERO);

    // The failed table's span is in the ring with its partial bytes.
    let spans = scuba_obs::recent_spans();
    let span = spans
        .iter()
        .rfind(|s| s.name == "backup.table" && s.attrs.contains(&("table", "t01".to_string())))
        .expect("failed table must flush its span");
    assert_eq!(span.outcome, "error");
    assert_eq!(span.bytes, CHUNK_LEN as u64);
    assert!(span.duration > Duration::ZERO);
}

#[test]
fn failed_restore_flushes_partial_table_timings() {
    let _x = scuba_obs::exclusive();
    scuba_obs::set_enabled(true);
    scuba_obs::clear_spans();

    let ns = test_ns();
    let _c = Cleanup(ns.clone());
    let mut store = ObsStore::two_tables();
    backup_to_shm_with(&mut store, &ns, V, CopyOptions::with_threads(1)).unwrap();

    // t00 restores whole; t01 decodes one chunk and fails.
    let mut restored = ObsStore::default();
    let err = restore_from_shm_with(&mut restored, &ns, V, CopyOptions::with_threads(1));
    assert!(err.is_err(), "the wounded unit must abort the restore");

    let b = scuba_obs::last_restore_breakdown().expect("failed restore must publish a breakdown");
    assert_eq!(b.op, "restore");
    assert!(!b.complete);
    assert_eq!(b.tables.len(), 2, "both tables must have samples: {b:?}");

    let full = &b.tables[0];
    assert_eq!(full.table, "t00");
    assert!(full.ok);
    assert_eq!(full.chunks, CHUNKS_PER_UNIT as u64);

    let partial = &b.tables[1];
    assert_eq!(partial.table, "t01", "name frame was read before the error");
    assert!(!partial.ok);
    assert_eq!(partial.chunks, 1, "one chunk landed before the error");
    assert_eq!(partial.bytes, CHUNK_LEN as u64);
    assert!(partial.duration > Duration::ZERO);

    assert!(b.phase(scuba_obs::Phase::HeapCopy) > Duration::ZERO);
    assert!(b.phase(scuba_obs::Phase::Open) > Duration::ZERO);

    let spans = scuba_obs::recent_spans();
    let span = spans
        .iter()
        .rfind(|s| s.name == "restore.table" && s.attrs.contains(&("table", "t01".to_string())))
        .expect("failed table must flush its span");
    assert_eq!(span.outcome, "error");
    assert_eq!(span.bytes, CHUNK_LEN as u64);
}
