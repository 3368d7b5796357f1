//! Fault injection through the copy pool, at one worker (the inline loop)
//! and at four: failpoints that fire on worker threads must propagate
//! exactly like inline failures — backup aborts before the valid-bit
//! commit and leaves no shared memory; restore collapses into a
//! cleaned-up disk fallback.
//!
//! Every test takes the fault registry's process-global test lock, so
//! this file keeps armed failpoints away from the rest of the suite.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};

use scuba_restart::framing::TAG_STORE_BASE;
use scuba_restart::{
    backup_to_shm_with, restore_from_shm_with, BackupError, ChunkDesc, ChunkSink, ChunkSource,
    CopyOptions, RestoreError, ShmPersistable, SHM_LAYOUT_VERSION,
};
use scuba_shmem::{ShmError, ShmNamespace, ShmSegment};

#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct ParStore {
    units: BTreeMap<String, Vec<Vec<u8>>>,
}

impl ParStore {
    fn with_units(n_units: usize, chunks_per_unit: usize, chunk_len: usize) -> ParStore {
        let units = (0..n_units)
            .map(|u| {
                let chunks = (0..chunks_per_unit)
                    .map(|c| vec![(u * 31 + c) as u8; chunk_len])
                    .collect();
                (format!("t{u:02}"), chunks)
            })
            .collect();
        ParStore { units }
    }
}

#[derive(Debug)]
struct ParError(String);
impl fmt::Display for ParError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl std::error::Error for ParError {}
impl From<ShmError> for ParError {
    fn from(e: ShmError) -> Self {
        ParError(e.to_string())
    }
}

impl ShmPersistable for ParStore {
    type Error = ParError;
    type Unit = Vec<Vec<u8>>;
    fn unit_names(&self) -> Vec<String> {
        self.units.keys().cloned().collect()
    }
    fn estimate_unit_size(&self, unit: &str) -> usize {
        self.units
            .get(unit)
            .map(|cs| cs.iter().map(|c| c.len() + 16).sum())
            .unwrap_or(0)
    }
    fn extract_unit(&mut self, unit: &str) -> Result<Self::Unit, ParError> {
        self.units
            .remove(unit)
            .ok_or_else(|| ParError(format!("unknown unit {unit}")))
    }
    fn unit_heap_bytes(unit: &Self::Unit) -> usize {
        unit.iter().map(Vec::len).sum()
    }
    fn backup_extracted(data: Self::Unit, sink: &mut dyn ChunkSink) -> Result<(), ParError> {
        for c in data {
            sink.put_chunk(ChunkDesc::new(TAG_STORE_BASE, 1), &c)?;
        }
        Ok(())
    }
    fn decode_unit(_unit: &str, source: &mut dyn ChunkSource) -> Result<Self::Unit, ParError> {
        let mut chunks = Vec::new();
        while let Some((_desc, c)) = source.next_chunk()? {
            chunks.push(c);
        }
        Ok(chunks)
    }
    fn install_unit(&mut self, unit: &str, data: Self::Unit) -> Result<(), ParError> {
        self.units.insert(unit.to_owned(), data);
        Ok(())
    }
    fn heap_bytes(&self) -> usize {
        self.units.values().flatten().map(Vec::len).sum()
    }
}

const V: u32 = SHM_LAYOUT_VERSION;

static COUNTER: AtomicU32 = AtomicU32::new(0);

fn fresh_ns() -> ShmNamespace {
    ShmNamespace::new(
        &format!("parf{}", std::process::id()),
        COUNTER.fetch_add(1, Ordering::Relaxed),
    )
    .unwrap()
}

struct Cleanup(ShmNamespace);
impl Drop for Cleanup {
    fn drop(&mut self) {
        self.0.unlink_all(20);
    }
}

/// Every test runs once per width: the inline case and a pool.
const THREADS: [usize; 2] = [1, 4];

fn options(threads: usize) -> CopyOptions {
    CopyOptions::with_threads(threads).without_size_clamp()
}

fn assert_no_shm(ns: &ShmNamespace) {
    assert!(!ShmSegment::exists(&ns.metadata_name()));
    for i in 0..12 {
        assert!(
            !ShmSegment::exists(&ns.table_segment_name(i)),
            "segment {i} left behind"
        );
    }
}

#[test]
fn worker_chunk_error_aborts_backup_and_cleans_up() {
    let _x = scuba_faults::exclusive();
    for threads in THREADS {
        scuba_faults::clear_all();
        let ns = fresh_ns();
        let _c = Cleanup(ns.clone());
        scuba_faults::configure("restart::backup::chunk", "error@5").unwrap();

        let mut store = ParStore::with_units(8, 3, 512);
        let err = backup_to_shm_with(&mut store, &ns, V, options(threads)).unwrap_err();
        assert!(scuba_faults::triggered("restart::backup::chunk") > 0);
        scuba_faults::clear_all();
        // The sink error propagates through the store's serialization loop
        // at every width.
        assert!(err.to_string().contains("restart::backup::chunk"), "{err}");
        assert_no_shm(&ns);
    }
}

#[test]
fn worker_short_write_aborts_backup_and_cleans_up() {
    // The torn-frame plan: a worker writes a full header and a truncated
    // payload, then errors — the on-shm shape a crash mid-memcpy leaves.
    let _x = scuba_faults::exclusive();
    for threads in THREADS {
        scuba_faults::clear_all();
        let ns = fresh_ns();
        let _c = Cleanup(ns.clone());
        scuba_faults::configure("restart::backup::chunk", "short=4@6").unwrap();

        let mut store = ParStore::with_units(6, 4, 256);
        let err = backup_to_shm_with(&mut store, &ns, V, options(threads)).unwrap_err();
        scuba_faults::clear_all();
        assert!(err.to_string().contains("restart::backup::chunk"), "{err}");
        assert_no_shm(&ns);
    }
}

#[test]
fn worker_restore_chunk_error_falls_back_and_cleans_up() {
    let _x = scuba_faults::exclusive();
    for threads in THREADS {
        scuba_faults::clear_all();
        let ns = fresh_ns();
        let _c = Cleanup(ns.clone());

        let mut store = ParStore::with_units(8, 3, 512);
        let original = store.clone();
        backup_to_shm_with(&mut store, &ns, V, options(threads)).unwrap();

        scuba_faults::configure("restart::restore::chunk", "error@7").unwrap();
        let mut restored = ParStore::default();
        let err = restore_from_shm_with(&mut restored, &ns, V, options(threads)).unwrap_err();
        scuba_faults::clear_all();
        let RestoreError::Fallback(fb) = err;
        assert!(fb.cleaned_up);
        assert_no_shm(&ns);

        // And the original data was only ever durable on disk — a clean
        // retry must not see half-restored shared memory.
        let mut retry = ParStore::default();
        assert!(restore_from_shm_with(&mut retry, &ns, V, CopyOptions::default()).is_err());
        assert_ne!(retry, original);
    }
}

#[test]
fn commit_failpoint_still_single_shot_under_parallelism() {
    // The valid bit is committed once, by the coordinator, after every
    // unit is written: a fault at the commit point must fail the backup
    // with every segment already written — and still sweep everything.
    let _x = scuba_faults::exclusive();
    for threads in THREADS {
        scuba_faults::clear_all();
        let ns = fresh_ns();
        let _c = Cleanup(ns.clone());
        scuba_faults::configure("restart::backup::commit", "error@1").unwrap();

        let mut store = ParStore::with_units(6, 2, 128);
        let err = backup_to_shm_with(&mut store, &ns, V, options(threads)).unwrap_err();
        assert_eq!(scuba_faults::triggered("restart::backup::commit"), 1);
        scuba_faults::clear_all();
        assert!(matches!(err, BackupError::Shm(_)), "{err}");
        assert_no_shm(&ns);
    }
}
