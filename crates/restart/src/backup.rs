//! The shutdown procedure — Figure 6, literally:
//!
//! ```text
//! create shared memory segment for leaf metadata
//! set valid bit to false
//! for each table
//!     estimate size of table
//!     create table shared memory segment
//!     add table segment to the leaf metadata
//!     for each row block
//!         grow the table segment in size if needed
//!         for each row block column
//!             copy data from heap to the table segment
//!             delete row block column from heap
//!         delete row block from heap
//!     delete table from heap
//! set valid bit to true
//! ```
//!
//! The inner loops live in the store's
//! [`ShmPersistable::backup_extracted`]; this module owns the
//! metadata/valid-bit envelope, per-unit segments, chunk framing, and
//! footprint accounting.
//!
//! The per-table loop runs through [`crate::copy::fan_out`]: the
//! coordinator walks units in order — failpoint, estimate, create segment,
//! register it in the metadata, extract the unit from the store — and a
//! worker serializes and syncs each one. At one worker that is the loop
//! above, inline. The valid bit is committed exactly once, by the
//! coordinator, after every unit is written; any failure (first unit in
//! order wins) skips the commit and runs the same cleanup at every width.

use std::fmt;
use std::time::{Duration, Instant};

use scuba_obs::{Phase, PhaseBreakdown, Stopwatch, TableSample, BACKUP_PHASES};
use scuba_shmem::{LeafMetadata, SegmentWriter, ShmError, ShmNamespace, ShmSegment};

use crate::copy::{fan_out, CopyOptions, FootprintTracker};
use crate::framing::{encode_header_v2, end_header_v2, FRAME_HEADER_V2, TAG_UNIT_NAME};
use crate::migrate::CURRENT_IMAGE_MIN_READER;
use crate::phases::{RunAcc, UnitStats};
use crate::state::{LeafBackupState, StateError};
use crate::traits::{ChunkDesc, ChunkSink, ShmPersistable};

/// What the backup did, for logs and the experiments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackupReport {
    /// Units (tables) persisted.
    pub units: usize,
    /// Chunks (row block columns / block images) copied.
    pub chunks: usize,
    /// Payload bytes copied heap → shared memory.
    pub bytes_copied: u64,
    /// Wall-clock duration of the copy.
    pub duration: Duration,
    /// Peak of (store heap bytes + in-flight unit bytes + shared memory
    /// bytes written) observed during the copy — the §4.4 "footprint
    /// nearly unchanged" metric.
    pub peak_footprint: usize,
    /// Store footprint when the backup started, for comparison against
    /// `peak_footprint`.
    pub initial_footprint: usize,
    /// Names of the segments created, in unit order.
    pub segment_names: Vec<String>,
    /// Copy worker threads actually used.
    pub threads: usize,
    /// Figure-5-style per-phase timing (prepare/extract/encode/crc/
    /// shm-write/commit) plus per-table samples. All-zero when
    /// instrumentation is disabled.
    pub phases: PhaseBreakdown,
}

/// Backup failure.
#[derive(Debug)]
pub enum BackupError<E> {
    /// A shared-memory operation failed.
    Shm(ShmError),
    /// The store failed to serialize a unit.
    Store(E),
    /// Internal state-machine violation (a bug, not an environment issue).
    State(StateError),
}

impl<E: fmt::Display> fmt::Display for BackupError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackupError::Shm(e) => write!(f, "shared memory error during backup: {e}"),
            BackupError::Store(e) => write!(f, "store error during backup: {e}"),
            BackupError::State(e) => write!(f, "state machine error during backup: {e}"),
        }
    }
}

impl<E: std::error::Error + 'static> std::error::Error for BackupError<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BackupError::Shm(e) => Some(e),
            BackupError::Store(e) => Some(e),
            BackupError::State(e) => Some(e),
        }
    }
}

impl<E> From<ShmError> for BackupError<E> {
    fn from(e: ShmError) -> Self {
        BackupError::Shm(e)
    }
}

/// Sink wrapper that frames chunks into the unit segment and keeps the
/// footprint statistics. One per in-flight unit; safe to drive from a
/// worker thread (the tracker is atomic).
struct FramingSink<'a> {
    writer: &'a mut SegmentWriter,
    tracker: &'a FootprintTracker,
    /// Heap bytes of the unit not yet handed off, for in-flight
    /// accounting (decremented as chunks are emitted, saturating).
    heap_remaining: usize,
    chunks: usize,
    payload_bytes: u64,
    /// Nanoseconds spent checksumming / writing inside the store's
    /// `backup_extracted` callback, so the caller can attribute the
    /// remainder of the callback's wall time to the encode phase.
    crc_ns: u64,
    write_ns: u64,
}

impl ChunkSink for FramingSink<'_> {
    fn put_chunk(&mut self, desc: ChunkDesc, chunk: &[u8]) -> Result<(), ShmError> {
        match scuba_faults::check("restart::backup::chunk") {
            Some(scuba_faults::Fault::ShortWrite(n)) => {
                // Write a torn frame — full header, truncated payload — the
                // shape a crash mid-memcpy leaves behind.
                let header = encode_header_v2(desc, chunk.len() as u64, scuba_shmem::crc32(chunk));
                self.writer.write(&header)?;
                self.writer.write(&chunk[..n.min(chunk.len())])?;
                return Err(ShmError::injected("restart::backup::chunk", "failpoint"));
            }
            Some(_) => {
                return Err(ShmError::injected("restart::backup::chunk", "failpoint"));
            }
            None => {}
        }
        // Per-chunk CRC: the protocol verifies payload integrity itself
        // rather than trusting every store to (the column store's RBC
        // checksums are a second, inner layer for its own chunks).
        let (crc, crc_ns) = scuba_shmem::crc32_timed(chunk);
        self.crc_ns += crc_ns;
        let sw = Stopwatch::start();
        self.writer
            .write(&encode_header_v2(desc, chunk.len() as u64, crc))?;
        self.writer.write(chunk)?;
        self.write_ns += sw.elapsed_ns();
        self.chunks += 1;
        self.payload_bytes += chunk.len() as u64;
        // Footprint: the chunk's heap is freed by the store right after
        // this returns, so move its bytes from in-flight heap to shm.
        let consumed = self.heap_remaining.min(chunk.len());
        self.heap_remaining -= consumed;
        self.tracker.sub_in_flight(consumed);
        self.tracker.add_shm(FRAME_HEADER_V2 + chunk.len());
        self.tracker.sample();
        Ok(())
    }
}

/// Persist `store` into the shared memory named by `ns`, committing with
/// the valid bit, with default copy options (auto thread count). See
/// [`backup_to_shm_with`].
pub fn backup_to_shm<S: ShmPersistable>(
    store: &mut S,
    ns: &ShmNamespace,
    layout_version: u32,
) -> Result<BackupReport, BackupError<S::Error>> {
    backup_to_shm_with(store, ns, layout_version, CopyOptions::default())
}

/// Persist `store` into the shared memory named by `ns`, committing with
/// the valid bit. On success the store is empty and the next process can
/// recover everything with [`crate::restore_from_shm`]; on failure the
/// shared memory is cleaned up and the valid bit stays false, so the next
/// process will fall back to disk recovery.
pub fn backup_to_shm_with<S: ShmPersistable>(
    store: &mut S,
    ns: &ShmNamespace,
    layout_version: u32,
    options: CopyOptions,
) -> Result<BackupReport, BackupError<S::Error>> {
    let mut leaf_state = LeafBackupState::Alive;
    leaf_state = leaf_state
        .transition(LeafBackupState::CopyToShm)
        .map_err(BackupError::State)?;

    let start = Instant::now();
    scuba_obs::counter!("backups_started").inc();
    let acc = RunAcc::new();
    let initial_footprint = store.heap_bytes();
    let tracker = FootprintTracker::new(initial_footprint);
    let unit_names = store.unit_names();
    // Size the pool against the estimated payload: small leaves copy
    // inline, where pool startup would dominate the copy.
    let total_estimated: usize = unit_names.iter().map(|u| store.estimate_unit_size(u)).sum();
    let threads = options
        .threads_for_bytes(total_estimated)
        .clamp(1, unit_names.len().max(1));

    // Stale state from a previous crashed attempt must not block us: the
    // metadata region is recreated from scratch (valid bit false).
    let sw = Stopwatch::start();
    let _ = ShmSegment::unlink(&ns.metadata_name());
    let meta = LeafMetadata::create(ns, layout_version, CURRENT_IMAGE_MIN_READER);
    acc.add(Phase::Prepare, sw.elapsed_ns());
    let mut meta = match meta {
        Ok(m) => m,
        Err(e) => {
            finish_failed(&acc, &start, threads, unit_names.len());
            return Err(e.into());
        }
    };

    let (mut chunks, mut bytes_copied) = (0usize, 0u64);
    let result = fan_out(
        threads,
        |index| {
            let unit = unit_names.get(index)?;
            let prepared = prepare_unit(store, ns, &mut meta, index, unit, &tracker, &acc);
            Some(prepared.map(|job| (unit.as_str(), job)))
        },
        |(unit, (data, heap, writer))| write_unit::<S>(unit, data, heap, writer, &tracker, &acc),
        // Dropping an unwritten unit frees its heap.
        |(_, (_, heap, _))| tracker.sub_in_flight(heap),
        |(c, b)| {
            chunks += c;
            bytes_copied += b;
            Ok(())
        },
    )
    .and_then(|()| {
        // The instant before commit: every segment written and synced,
        // the valid bit still false. Dying here must cost only speed.
        if scuba_faults::check("restart::backup::commit").is_some() {
            return Err(BackupError::Shm(ShmError::injected(
                "restart::backup::commit",
                "failpoint",
            )));
        }
        // Commit point: everything is in shared memory and synced.
        let sw = Stopwatch::start();
        meta.set_valid(true)?;
        acc.add(Phase::Commit, sw.elapsed_ns());
        Ok(())
    });
    match result {
        Ok(()) => {
            leaf_state = leaf_state
                .transition(LeafBackupState::Exit)
                .map_err(BackupError::State)?;
            debug_assert_eq!(leaf_state, LeafBackupState::Exit);
            let mut phases = acc.snapshot("backup", &BACKUP_PHASES);
            phases.total = start.elapsed();
            phases.bytes = bytes_copied;
            phases.chunks = chunks as u64;
            phases.units = unit_names.len();
            phases.threads = threads;
            if scuba_obs::enabled() {
                scuba_obs::counter!("backups_completed").inc();
                scuba_obs::publish_breakdown(phases.clone());
            }
            Ok(BackupReport {
                units: unit_names.len(),
                chunks,
                bytes_copied,
                duration: start.elapsed(),
                peak_footprint: tracker.peak(),
                initial_footprint,
                // Unit `i` went to segment `i`.
                segment_names: (0..unit_names.len())
                    .map(|i| ns.table_segment_name(i))
                    .collect(),
                threads,
                phases,
            })
        }
        Err(e) => {
            // Leave nothing behind: an aborted backup must look exactly
            // like "no shared memory state" to the next process.
            ns.unlink_all(unit_names.len() + 1);
            finish_failed(&acc, &start, threads, unit_names.len());
            Err(e)
        }
    }
}

/// Publish the partial breakdown of a failed backup — per-table timings
/// up to the failure point survive in the "last backup" slot so failed
/// restarts stay diagnosable.
fn finish_failed(acc: &RunAcc, start: &Instant, threads: usize, units: usize) {
    if !scuba_obs::enabled() {
        return;
    }
    scuba_obs::counter!("backups_failed").inc();
    let mut phases = acc.snapshot("backup", &BACKUP_PHASES);
    phases.total = start.elapsed();
    phases.threads = threads;
    phases.units = units;
    phases.complete = false;
    phases.bytes = phases.tables.iter().map(|t| t.bytes).sum();
    phases.chunks = phases.tables.iter().map(|t| t.chunks).sum();
    scuba_obs::publish_breakdown(phases);
}

/// An extracted unit, its heap bytes and the writer of its segment.
type Extracted<S> = (<S as ShmPersistable>::Unit, usize, SegmentWriter);

/// Coordinator-side per-unit prologue: failpoint, estimate, segment
/// create, metadata registration, extraction from the store. Returns the
/// unit ready for [`write_unit`].
fn prepare_unit<S: ShmPersistable>(
    store: &mut S,
    ns: &ShmNamespace,
    meta: &mut LeafMetadata,
    index: usize,
    unit: &str,
    tracker: &FootprintTracker,
    acc: &RunAcc,
) -> Result<Extracted<S>, BackupError<S::Error>> {
    // Between units: some tables fully copied, others still heap-only.
    if scuba_faults::check("restart::backup::unit").is_some() {
        return Err(BackupError::Shm(ShmError::injected(
            "restart::backup::unit",
            "failpoint",
        )));
    }
    // Figure 6: estimate size of table; create table segment; add the
    // segment to the leaf metadata.
    let sw = Stopwatch::start();
    let estimate = store.estimate_unit_size(unit);
    let seg_name = ns.table_segment_name(index);
    let _ = ShmSegment::unlink(&seg_name); // clear stale
    let segment = ShmSegment::create(&seg_name, estimate);
    acc.add(Phase::Prepare, sw.elapsed_ns());
    let segment = segment?;
    let sw = Stopwatch::start();
    meta.add_segment_invalidating(&seg_name, store.unit_format_version(unit), 0)?;
    acc.add(Phase::Prepare, sw.elapsed_ns());
    let sw = Stopwatch::start();
    let data = store.extract_unit(unit);
    acc.add(Phase::Extract, sw.elapsed_ns());
    let data = data.map_err(BackupError::Store)?;
    let heap = S::unit_heap_bytes(&data);
    tracker.add_in_flight(heap);
    tracker.set_store_heap(store.heap_bytes());
    tracker.sample();
    Ok((data, heap, SegmentWriter::new(segment)))
}

/// Serialize one extracted unit into its segment: name frame, chunk
/// frames, end sentinel, trim + sync. Runs on a worker thread, or inline
/// at one worker.
///
/// Wraps [`write_unit_inner`] so a `backup.table` span and a
/// [`TableSample`] are flushed on *every* exit, including mid-copy
/// errors — partial chunk/byte counts and the duration up to the failure
/// point survive into the run's breakdown.
fn write_unit<S: ShmPersistable>(
    unit: &str,
    data: S::Unit,
    heap_bytes: usize,
    writer: SegmentWriter,
    tracker: &FootprintTracker,
    acc: &RunAcc,
) -> Result<(usize, u64), BackupError<S::Error>> {
    let mut span = scuba_obs::span!("backup.table", table = unit);
    let mut stats = UnitStats::default();
    let result = write_unit_inner::<S>(unit, data, heap_bytes, writer, tracker, acc, &mut stats);
    if span.active() {
        span.add_bytes(stats.bytes);
        acc.add_table(TableSample {
            table: unit.to_owned(),
            duration: span.elapsed(),
            bytes: stats.bytes,
            chunks: stats.chunks,
            ok: result.is_ok(),
        });
        if result.is_ok() {
            span.ok();
        }
    }
    result
}

fn write_unit_inner<S: ShmPersistable>(
    unit: &str,
    data: S::Unit,
    heap_bytes: usize,
    mut writer: SegmentWriter,
    tracker: &FootprintTracker,
    acc: &RunAcc,
    stats: &mut UnitStats,
) -> Result<(usize, u64), BackupError<S::Error>> {
    // Unit name frame so restore knows which table this segment holds;
    // CRC'd and TLV-framed like every other chunk.
    let (name_crc, name_crc_ns) = scuba_shmem::crc32_timed(unit.as_bytes());
    acc.add(Phase::Crc, name_crc_ns);
    let sw = Stopwatch::start();
    let name_desc = ChunkDesc::new(TAG_UNIT_NAME, 1);
    writer.write(&encode_header_v2(name_desc, unit.len() as u64, name_crc))?;
    writer.write(unit.as_bytes())?;
    acc.add(Phase::ShmWrite, sw.elapsed_ns());
    tracker.add_shm(FRAME_HEADER_V2 + unit.len());

    let mut sink = FramingSink {
        writer: &mut writer,
        tracker,
        heap_remaining: heap_bytes,
        chunks: 0,
        payload_bytes: 0,
        crc_ns: 0,
        write_ns: 0,
    };
    let encode_sw = Stopwatch::start();
    let result = S::backup_extracted(data, &mut sink).map_err(BackupError::Store);
    let encode_wall = encode_sw.elapsed_ns();
    let (chunks, payload_bytes, leftover) = (sink.chunks, sink.payload_bytes, sink.heap_remaining);
    // Encode = the callback's wall time minus what the sink itself spent
    // checksumming and writing (those are their own phases).
    acc.add(Phase::Crc, sink.crc_ns);
    acc.add(Phase::ShmWrite, sink.write_ns);
    acc.add(
        Phase::Encode,
        encode_wall.saturating_sub(sink.crc_ns + sink.write_ns),
    );
    stats.chunks = chunks as u64;
    stats.bytes = payload_bytes;
    // The unit's data is dropped by now; release whatever
    // in-flight heap the chunk loop did not already account for.
    tracker.sub_in_flight(leftover);
    result?;

    let sw = Stopwatch::start();
    writer.write(&end_header_v2())?;
    tracker.add_shm(FRAME_HEADER_V2);
    writer.finish()?; // trims to written, syncs
    acc.add(Phase::ShmWrite, sw.elapsed_ns());
    tracker.sample();
    Ok((chunks, payload_bytes))
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::framing::TAG_STORE_BASE;
    use crate::traits::ChunkSource;
    use std::collections::BTreeMap;

    /// The toy store's single chunk tag: an opaque byte buffer.
    pub const TAG_TOY: u16 = TAG_STORE_BASE + 16;

    /// A toy persistable store: named units each holding a list of byte
    /// chunks. Used to test the protocol without the column store.
    #[derive(Debug, Default, Clone, PartialEq, Eq)]
    pub struct ToyStore {
        pub units: BTreeMap<String, Vec<Vec<u8>>>,
        /// If set, extraction (backup) / installation (restore) of this
        /// unit fails (failure injection).
        pub poison: Option<String>,
        /// If set, installation of this unit fails with an error the
        /// store classifies as a per-table incompatibility (exercises the
        /// skip-one-table path rather than whole-leaf fallback).
        pub incompatible: Option<String>,
    }

    #[derive(Debug)]
    pub struct ToyError(pub String);

    impl fmt::Display for ToyError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "toy store error: {}", self.0)
        }
    }
    impl std::error::Error for ToyError {}
    impl From<ShmError> for ToyError {
        fn from(e: ShmError) -> Self {
            ToyError(e.to_string())
        }
    }

    impl ToyStore {
        pub fn with_units(units: &[(&str, &[&[u8]])]) -> ToyStore {
            ToyStore {
                units: units
                    .iter()
                    .map(|(n, cs)| {
                        (
                            n.to_string(),
                            cs.iter().map(|c| c.to_vec()).collect::<Vec<_>>(),
                        )
                    })
                    .collect(),
                poison: None,
                incompatible: None,
            }
        }

        /// A deterministic pseudo-random store: `units` units, up to
        /// `max_chunks` chunks each, up to `max_len` bytes per chunk.
        pub fn seeded(seed: u64, units: usize, max_chunks: usize, max_len: usize) -> ToyStore {
            let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
            let mut next = move || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let mut store = ToyStore::default();
            for u in 0..units {
                let n_chunks = (next() as usize) % (max_chunks + 1);
                let chunks = (0..n_chunks)
                    .map(|_| {
                        let len = (next() as usize) % (max_len + 1);
                        (0..len).map(|_| next() as u8).collect()
                    })
                    .collect();
                store.units.insert(format!("unit_{u:03}"), chunks);
            }
            store
        }
    }

    impl ShmPersistable for ToyStore {
        type Error = ToyError;
        type Unit = Vec<Vec<u8>>;

        fn unit_names(&self) -> Vec<String> {
            self.units.keys().cloned().collect()
        }

        fn estimate_unit_size(&self, unit: &str) -> usize {
            self.units
                .get(unit)
                .map(|cs| cs.iter().map(|c| c.len() + 8).sum())
                .unwrap_or(0)
        }

        fn extract_unit(&mut self, unit: &str) -> Result<Self::Unit, Self::Error> {
            if self.poison.as_deref() == Some(unit) {
                return Err(ToyError(format!("poisoned unit {unit}")));
            }
            self.units
                .remove(unit)
                .ok_or_else(|| ToyError(format!("unknown unit {unit}")))
        }

        fn unit_heap_bytes(unit: &Self::Unit) -> usize {
            unit.iter().map(Vec::len).sum()
        }

        fn backup_extracted(data: Self::Unit, sink: &mut dyn ChunkSink) -> Result<(), Self::Error> {
            for c in data {
                sink.put_chunk(ChunkDesc::new(TAG_TOY, 1), &c)?;
                // chunk freed here as it goes out of scope
            }
            Ok(())
        }

        fn decode_unit(
            _unit: &str,
            source: &mut dyn ChunkSource,
        ) -> Result<Self::Unit, Self::Error> {
            let mut chunks = Vec::new();
            while let Some((desc, c)) = source.next_chunk()? {
                if desc.is_legacy() || desc.tag == TAG_TOY {
                    chunks.push(c);
                } else if desc.is_skippable() {
                    // Unknown-but-skippable chunk from a different writer:
                    // ignore it, as the flag promises we may.
                } else {
                    return Err(ToyError(format!("incompatible chunk tag {}", desc.tag)));
                }
            }
            Ok(chunks)
        }

        fn install_unit(&mut self, unit: &str, data: Self::Unit) -> Result<(), Self::Error> {
            if self.poison.as_deref() == Some(unit) {
                return Err(ToyError(format!("poisoned unit {unit}")));
            }
            if self.incompatible.as_deref() == Some(unit) {
                return Err(ToyError(format!("incompatible unit {unit}")));
            }
            self.units.insert(unit.to_owned(), data);
            Ok(())
        }

        fn error_is_incompatible(e: &Self::Error) -> bool {
            e.0.starts_with("incompatible")
        }

        fn heap_bytes(&self) -> usize {
            self.units
                .values()
                .flat_map(|cs| cs.iter())
                .map(|c| c.len())
                .sum()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::ToyStore;
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    static COUNTER: AtomicU32 = AtomicU32::new(0);

    pub(crate) fn test_ns() -> ShmNamespace {
        ShmNamespace::new(
            &format!("bak{}", std::process::id()),
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
    fn backup_creates_segments_and_commits() {
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let mut store =
            ToyStore::with_units(&[("alpha", &[b"one", b"two"]), ("beta", &[b"three"])]);
        let report = backup_to_shm(&mut store, &ns, crate::SHM_LAYOUT_VERSION).unwrap();
        assert_eq!(report.units, 2);
        assert_eq!(report.chunks, 3);
        assert_eq!(report.bytes_copied, 11);
        assert!(store.units.is_empty(), "store must be drained");

        let meta = LeafMetadata::open(&ns).unwrap();
        let c = meta.read().unwrap();
        assert!(c.valid);
        assert_eq!(c.writer_version, crate::SHM_LAYOUT_VERSION);
        assert_eq!(c.min_reader_version, CURRENT_IMAGE_MIN_READER);
        assert_eq!(c.segments.len(), 2);
        for entry in &c.segments {
            assert!(ShmSegment::exists(&entry.name));
            // ToyStore uses the default unit format version.
            assert_eq!(entry.format_version, 1);
        }
    }

    #[test]
    fn backup_of_empty_store() {
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let mut store = ToyStore::default();
        let report = backup_to_shm(&mut store, &ns, crate::SHM_LAYOUT_VERSION).unwrap();
        assert_eq!(report.units, 0);
        assert!(LeafMetadata::open(&ns).unwrap().is_valid());
    }

    #[test]
    fn failed_backup_leaves_no_shared_memory() {
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let mut store = ToyStore::with_units(&[("a", &[b"x"]), ("b", &[b"y"])]);
        store.poison = Some("b".to_owned());
        let err = backup_to_shm(&mut store, &ns, crate::SHM_LAYOUT_VERSION).unwrap_err();
        assert!(matches!(err, BackupError::Store(_)));
        // Valid bit must not be set; in fact nothing should remain.
        assert!(!ShmSegment::exists(&ns.metadata_name()));
        assert!(!ShmSegment::exists(&ns.table_segment_name(0)));
    }

    #[test]
    fn failed_backup_leaves_no_shared_memory_parallel() {
        // Same invariant with the worker pool on: a poisoned extraction
        // aborts the run and every segment is unlinked.
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let mut store = ToyStore::seeded(11, 8, 4, 512);
        store.poison = Some("unit_005".to_owned());
        let err = backup_to_shm_with(
            &mut store,
            &ns,
            crate::SHM_LAYOUT_VERSION,
            CopyOptions::with_threads(8).without_size_clamp(),
        )
        .unwrap_err();
        assert!(matches!(err, BackupError::Store(_)));
        assert!(!ShmSegment::exists(&ns.metadata_name()));
        for i in 0..10 {
            assert!(!ShmSegment::exists(&ns.table_segment_name(i)));
        }
    }

    #[test]
    fn backup_overwrites_stale_state() {
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        // Simulate a crashed prior attempt: stale metadata + segment.
        let _ = LeafMetadata::create(&ns, 9, 9).unwrap();
        let _ = ShmSegment::create(&ns.table_segment_name(0), 64).unwrap();

        let mut store = ToyStore::with_units(&[("t", &[b"data"])]);
        backup_to_shm(&mut store, &ns, 2).unwrap();
        let c = LeafMetadata::open(&ns).unwrap().read().unwrap();
        assert!(c.valid);
        assert_eq!(c.writer_version, 2);
    }

    #[test]
    fn footprint_tracked() {
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let big = vec![0xAAu8; 200_000];
        let chunks: Vec<&[u8]> = vec![&big, &big, &big];
        let mut store = ToyStore::with_units(&[("big", &chunks)]);
        let initial = store.heap_bytes();
        let report = backup_to_shm(&mut store, &ns, crate::SHM_LAYOUT_VERSION).unwrap();
        assert_eq!(report.initial_footprint, initial);
        // Footprint may exceed initial by framing overhead but must stay
        // well under 2x (no full second copy).
        assert!(
            report.peak_footprint < initial * 3 / 2,
            "peak {} vs initial {}",
            report.peak_footprint,
            initial
        );
    }

    #[test]
    fn footprint_tracked_parallel() {
        // §4.4 must survive the worker pool: several big units in flight
        // at once, peak still bounded because extraction moves bytes
        // (heap → in-flight) rather than copying, and each chunk frees
        // heap as it lands in shm.
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let big = vec![0x55u8; 150_000];
        let chunks: Vec<&[u8]> = vec![&big, &big, &big];
        let mut store = ToyStore::with_units(&[
            ("b0", &chunks),
            ("b1", &chunks),
            ("b2", &chunks),
            ("b3", &chunks),
            ("b4", &chunks),
            ("b5", &chunks),
        ]);
        let initial = store.heap_bytes();
        let report = backup_to_shm_with(
            &mut store,
            &ns,
            crate::SHM_LAYOUT_VERSION,
            CopyOptions::with_threads(4).without_size_clamp(),
        )
        .unwrap();
        // The env override (CI matrix) may repin the pool; either way the
        // report must carry the resolved size, clamped to the unit count.
        assert_eq!(
            report.threads,
            crate::copy::resolve_copy_threads(4).clamp(1, 6)
        );
        assert!(
            report.peak_footprint < initial * 3 / 2,
            "peak {} vs initial {}",
            report.peak_footprint,
            initial
        );
    }

    #[test]
    fn small_backups_fall_back_to_sequential() {
        // Regression: a few-MB leaf must not pay worker-pool startup —
        // 4 configured threads used to make a 7.5 MB backup ~8x slower
        // than 1 thread. (Meaningless under an env pin, which bypasses
        // the clamp by design.)
        if std::env::var(crate::copy::COPY_THREADS_ENV).is_ok() {
            return;
        }
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let mut store = ToyStore::seeded(7, 6, 4, 2048); // ~50 KB total
        let report = backup_to_shm_with(
            &mut store,
            &ns,
            crate::SHM_LAYOUT_VERSION,
            CopyOptions::with_threads(4),
        )
        .unwrap();
        assert_eq!(
            report.threads, 1,
            "small input must use the sequential path"
        );
    }
}
