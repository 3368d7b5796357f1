//! The startup procedure — Figure 7, literally:
//!
//! ```text
//! if valid bit is false
//!     delete shared memory segments
//!     recover from disk
//!     return
//! set valid bit to false
//! for each table shared memory segment
//!     for each row block
//!         for each row block column
//!             allocate memory in heap
//!             copy data from table segment to heap
//!     truncate the table shared memory segment if needed
//!     delete the table shared memory segment
//! delete the metadata shared memory segment
//! ```
//!
//! "If this code path is interrupted, the valid bit will be false on the
//! next restart and disk recovery will be executed." Every failure mode —
//! missing metadata, unset valid bit, layout version skew, torn segment,
//! checksum mismatch, store decode error — collapses into [`Fallback`],
//! which tells the caller to run its disk recovery instead.
//!
//! The per-segment loop runs through [`crate::copy::fan_out`], as the
//! backup's does: the coordinator opens every segment up front (and owns
//! both valid-bit edges), a worker drains each segment into a decoded
//! unit, and the coordinator installs it into the store. At one worker
//! that is the loop above, inline. Any error aborts the run and falls back
//! the same way at every width.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use scuba_obs::{Phase, PhaseBreakdown, Stopwatch, TableSample, RESTORE_PHASES};
use scuba_shmem::{
    LeafMetadata, MetadataContents, SegmentReader, SegmentView, ShmError, ShmNamespace, ShmSegment,
};

use crate::copy::{fan_out, CopyOptions, FootprintTracker};
use crate::framing::{drain, read_frame_header, read_unit_name, FrameCursor, SharedCursor};
use crate::migrate;
use crate::phases::{RunAcc, UnitStats};
use crate::state::LeafRestoreState;
use crate::traits::{ChunkDesc, ChunkSource, MappedChunk, MappedChunkSource, ShmPersistable};

/// Index cap for the orphan sweep when the metadata registry is gone: no
/// deployment here runs anywhere near this many tables per leaf.
const ORPHAN_SWEEP_CAP: usize = 64;

/// What a successful memory restore did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreReport {
    /// Units (tables) restored.
    pub units: usize,
    /// Chunks copied shared memory → heap.
    pub chunks: usize,
    /// Payload bytes copied.
    pub bytes_copied: u64,
    /// Wall-clock duration of the copy.
    pub duration: Duration,
    /// Peak of (store heap bytes + decoded-but-uninstalled unit bytes +
    /// un-consumed shared memory bytes) observed during the restore.
    pub peak_footprint: usize,
    /// Copy worker threads actually used.
    pub threads: usize,
    /// Units whose format this binary could not understand (a true
    /// per-table incompatibility, classified by
    /// [`ShmPersistable::error_is_incompatible`]). Their segments were
    /// unlinked; the caller must disk-recover exactly these tables — the
    /// rest restored from memory.
    pub skipped: Vec<String>,
    /// Figure-5-style per-phase timing (open/crc/heap-copy/decode/
    /// install/commit) plus per-table samples. All-zero when
    /// instrumentation is disabled.
    pub phases: PhaseBreakdown,
}

/// What a successful zero-copy attach did. Unlike [`RestoreReport`], no
/// payload was copied: the tables installed in the store serve queries
/// straight out of the still-mapped segments, and `heap_bytes_copied`
/// measures only the framing/metadata the store had to own (names,
/// manifests, preludes). Whether the bytes are later hydrated to heap or
/// kept in place is the store's business, outside the protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttachReport {
    /// Units (tables) attached.
    pub units: usize,
    /// Chunk frames walked (none of their payloads copied).
    pub chunks: usize,
    /// Payload bytes left resident in shared memory.
    pub shm_bytes: u64,
    /// Heap bytes the store grew by while installing the attached units —
    /// the metadata cost of attach. The zero-per-value-copy acceptance
    /// check asserts this stays tiny relative to `shm_bytes`.
    pub heap_bytes_copied: u64,
    /// Wall-clock duration of the attach (time to first query).
    pub duration: Duration,
    /// Peak of (store heap bytes + mapped shared-memory bytes) observed.
    pub peak_footprint: usize,
    /// Units skipped as per-table incompatible (see
    /// [`RestoreReport::skipped`]); the caller disk-recovers these.
    pub skipped: Vec<String>,
}

/// Memory recovery is not possible; the caller must recover from disk.
/// Shared memory has already been cleaned up ("delete shared memory
/// segments") when `cleaned_up` is true.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fallback {
    /// Why memory recovery was abandoned.
    pub reason: String,
    /// Whether the protocol already unlinked the segments it knew about.
    pub cleaned_up: bool,
}

impl fmt::Display for Fallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "falling back to disk recovery: {}", self.reason)
    }
}

impl std::error::Error for Fallback {}

/// Restore failure. [`RestoreError::Fallback`] is the expected,
/// protocol-level outcome; store errors are also mapped into it by
/// [`restore_from_shm`], so callers usually only see `Fallback`.
#[derive(Debug)]
pub enum RestoreError {
    /// Fall back to disk recovery.
    Fallback(Fallback),
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Fallback(fb) => fb.fmt(f),
        }
    }
}

impl std::error::Error for RestoreError {}

/// Source wrapper that reads framed chunks from a unit's segment,
/// punching consumed pages out as it goes. Verifies each chunk's CRC on
/// the borrowed shared-memory bytes *before* paying the shm→heap memcpy,
/// so a torn chunk never allocates. Parses the self-describing v2 TLV
/// framing or, for images from a pre-refactor writer, the legacy bare
/// framing (yielding [`ChunkDesc::legacy`] descriptors).
struct FramingSource<'a> {
    reader: &'a mut SegmentReader,
    tracker: &'a FootprintTracker,
    /// Image uses the legacy v1 framing (selected by metadata writer
    /// version).
    legacy: bool,
    done: bool,
    chunks: usize,
    payload_bytes: u64,
    /// Nanoseconds spent verifying / copying inside the store's
    /// `decode_unit` callback, so the caller can attribute the remainder
    /// of the callback's wall time to the decode phase.
    crc_ns: u64,
    copy_ns: u64,
}

impl ChunkSource for FramingSource<'_> {
    fn next_chunk(&mut self) -> Result<Option<(ChunkDesc, Vec<u8>)>, ShmError> {
        if self.done {
            return Ok(None);
        }
        if scuba_faults::check("restart::restore::chunk").is_some() {
            return Err(ShmError::injected("restart::restore::chunk", "failpoint"));
        }
        let Some((desc, len, stored_crc)) = read_frame_header(self.reader, self.legacy)? else {
            self.done = true;
            return Ok(None);
        };
        let payload = self.reader.read_borrowed(len as usize)?;
        let (computed_crc, crc_ns) = scuba_shmem::crc32_timed(payload);
        self.crc_ns += crc_ns;
        if computed_crc != stored_crc {
            return Err(ShmError::Corrupt {
                name: "chunk framing".to_owned(),
                reason: "chunk checksum mismatch (torn or corrupted copy)".to_owned(),
            });
        }
        // Figure 7: "allocate memory in heap; copy data from table segment
        // to heap" — this to_vec is the one memcpy.
        let sw = Stopwatch::start();
        let chunk = payload.to_vec();
        self.copy_ns += sw.elapsed_ns();
        self.chunks += 1;
        self.payload_bytes += chunk.len() as u64;
        self.tracker.add_in_flight(chunk.len());
        self.tracker.sample();
        // "truncate the table shared memory segment if needed": release
        // the pages behind what we just consumed.
        self.reader.release_consumed()?;
        Ok(Some((desc, chunk)))
    }
}

/// Restore `store` from the shared memory named by `ns` with default copy
/// options (auto thread count). See [`restore_from_shm_with`].
pub fn restore_from_shm<S: ShmPersistable>(
    store: &mut S,
    ns: &ShmNamespace,
    reader_version: u32,
) -> Result<RestoreReport, RestoreError> {
    restore_from_shm_with(store, ns, reader_version, CopyOptions::default())
}

/// Restore `store` from the shared memory named by `ns`. Returns
/// [`Fallback`] (wrapped in [`RestoreError`]) whenever memory recovery is
/// impossible or anything goes wrong mid-way; in that case the shared
/// memory has been deleted, the valid bit (if the metadata survived) is
/// false, and the caller should clear any partially-restored units and
/// run disk recovery.
pub fn restore_from_shm_with<S: ShmPersistable>(
    store: &mut S,
    ns: &ShmNamespace,
    reader_version: u32,
    options: CopyOptions,
) -> Result<RestoreReport, RestoreError> {
    let mut leaf_state = LeafRestoreState::Init;
    leaf_state = leaf_state
        .transition(LeafRestoreState::MemoryRecovery)
        .expect("Init -> MemoryRecovery is always legal");

    let start = Instant::now();
    scuba_obs::counter!("restores_started").inc();
    let acc = RunAcc::new();

    let contents = claim_metadata(ns, reader_version, &acc)?;
    let segment_names = contents.segment_names();
    let legacy = contents.is_legacy_v1();

    let tracker = FootprintTracker::new(store.heap_bytes());
    let threads = options
        .resolved_threads()
        .clamp(1, segment_names.len().max(1));

    match copy_units_back(store, &segment_names, &tracker, &acc, threads, legacy) {
        Ok((units, chunks, bytes_copied, mut skipped)) => {
            // Figure 7 last line: delete the metadata segment. (Each table
            // segment was deleted as it was drained.)
            let sw = Stopwatch::start();
            let _ = ShmSegment::unlink(&ns.metadata_name());
            acc.add(Phase::Commit, sw.elapsed_ns());
            leaf_state = leaf_state
                .transition(LeafRestoreState::Alive)
                .expect("MemoryRecovery -> Alive is always legal");
            debug_assert_eq!(leaf_state, LeafRestoreState::Alive);
            skipped.sort();
            let mut phases = acc.snapshot("restore", &RESTORE_PHASES);
            phases.total = start.elapsed();
            phases.bytes = bytes_copied;
            phases.chunks = chunks as u64;
            phases.units = units;
            phases.threads = threads;
            if scuba_obs::enabled() {
                scuba_obs::counter!("restores_completed").inc();
                scuba_obs::publish_breakdown(phases.clone());
            }
            Ok(RestoreReport {
                units,
                chunks,
                bytes_copied,
                duration: start.elapsed(),
                peak_footprint: tracker.peak(),
                threads,
                skipped,
                phases,
            })
        }
        Err(reason) => {
            // The Figure 5(b) "exception" edge.
            let state = leaf_state
                .transition(LeafRestoreState::DiskRecovery)
                .expect("MemoryRecovery -> DiskRecovery is always legal");
            debug_assert_eq!(state, LeafRestoreState::DiskRecovery);
            cleanup(ns, &segment_names);
            if scuba_obs::enabled() {
                // Publish the partial breakdown — per-table timings up to
                // the failure point keep failed restores diagnosable.
                let mut phases = acc.snapshot("restore", &RESTORE_PHASES);
                phases.total = start.elapsed();
                phases.threads = threads;
                phases.units = segment_names.len();
                phases.complete = false;
                phases.bytes = phases.tables.iter().map(|t| t.bytes).sum();
                phases.chunks = phases.tables.iter().map(|t| t.chunks).sum();
                scuba_obs::publish_breakdown(phases);
            }
            Err(fallback(reason, true))
        }
    }
}

/// The shared Figure-7 prologue for both restore paths (full copy and
/// zero-copy attach): open and read the metadata segment, check the valid
/// bit and version compatibility ([`migrate::check_image_compat`] — a
/// range check, not the paper's exact-version equality), then clear the
/// valid bit so an interruption re-runs as disk recovery. On any failure
/// the shared memory is cleaned up and the matching [`Fallback`] is
/// returned.
fn claim_metadata(
    ns: &ShmNamespace,
    reader_version: u32,
    acc: &RunAcc,
) -> Result<MetadataContents, RestoreError> {
    // Figure 7 line 1: check the valid bit.
    let sw = Stopwatch::start();
    let opened = LeafMetadata::open(ns);
    acc.add(Phase::Open, sw.elapsed_ns());
    let mut meta = match opened {
        Ok(m) => m,
        Err(e) => {
            // No metadata at all usually just means "no prior shutdown";
            // corrupt metadata means a torn write. Either way: disk. The
            // segment list is gone with the metadata, so sweep the
            // deterministic name scheme for orphaned table segments.
            cleanup(ns, &[]);
            return Err(fallback(format!("metadata unavailable: {e}"), true));
        }
    };
    let sw = Stopwatch::start();
    let read = meta.read();
    acc.add(Phase::Open, sw.elapsed_ns());
    let contents = match read {
        Ok(c) => c,
        Err(e) => {
            cleanup(ns, &[]);
            return Err(fallback(format!("metadata unreadable: {e}"), true));
        }
    };
    let segment_names = contents.segment_names();
    if !contents.valid {
        cleanup(ns, &segment_names);
        return Err(fallback("valid bit is false".to_owned(), true));
    }
    if let Err(reason) = migrate::check_image_compat(&contents, reader_version) {
        cleanup(ns, &segment_names);
        return Err(fallback(reason, true));
    }

    // Failure here leaves the valid bit true. A *death* (abort/SIGKILL
    // plans) preserves the segments for the next process to memory-restore;
    // an in-process error means this process will fall back to disk, and
    // §4.3 requires the fallback to free the shared memory first.
    if scuba_faults::check("restart::restore::before_invalidate").is_some() {
        cleanup(ns, &segment_names);
        return Err(fallback(
            "injected fault before valid-bit clear".to_owned(),
            true,
        ));
    }

    // Figure 7 line 2: set the valid bit to false *before* consuming, so
    // an interruption re-runs as disk recovery.
    let sw = Stopwatch::start();
    let cleared = meta.set_valid(false);
    acc.add(Phase::Commit, sw.elapsed_ns());
    if let Err(e) = cleared {
        cleanup(ns, &segment_names);
        return Err(fallback(format!("could not clear valid bit: {e}"), true));
    }

    // A death here — valid bit cleared, nothing consumed — must send the
    // next attempt to disk even though every segment is intact.
    if scuba_faults::check("restart::restore::after_invalidate").is_some() {
        cleanup(ns, &segment_names);
        return Err(fallback(
            "injected fault after valid-bit clear".to_owned(),
            true,
        ));
    }
    Ok(contents)
}

/// Attach `store` to the shared memory named by `ns` without copying
/// payload bytes: phase one of the two-phase (attach-then-hydrate)
/// restore. Each table segment is opened as an `Arc`-shared read-only
/// [`SegmentView`]; metadata frames (unit names — and, for stores that
/// override [`ShmPersistable::attach_unit`], manifests and preludes) are
/// CRC-verified and copied to heap, while per-value chunks are installed
/// as windows into the mapping. Payload CRC verification is deferred to
/// hydration, where the per-column checksum covers the same bytes — this
/// is what keeps attach cost proportional to metadata, not data volume.
///
/// The valid-bit protocol is identical to [`restore_from_shm`]: the bit
/// is cleared before the first segment is touched and the metadata
/// segment is unlinked at the end, so a crash mid-attach or mid-hydration
/// sends the next start to disk recovery. Table segments are *not*
/// unlinked here — each one is unlinked when the last reference to its
/// view drops: when hydration swaps out the last mapped block, or, for a
/// store that keeps serving the image, when its blocks are gone — unless
/// a later backup listed the kept segment in a new image
/// ([`crate::UnitTarget::Extend`]).
pub fn attach_from_shm<S: ShmPersistable>(
    store: &mut S,
    ns: &ShmNamespace,
    reader_version: u32,
) -> Result<AttachReport, RestoreError> {
    let mut leaf_state = LeafRestoreState::Init;
    leaf_state = leaf_state
        .transition(LeafRestoreState::MemoryRecovery)
        .expect("Init -> MemoryRecovery is always legal");

    let start = Instant::now();
    scuba_obs::counter!("restores_started").inc();
    let acc = RunAcc::new();

    let contents = claim_metadata(ns, reader_version, &acc)?;
    let segment_names = contents.segment_names();
    let legacy = contents.is_legacy_v1();

    let tracker = FootprintTracker::new(store.heap_bytes());
    let heap_before = store.heap_bytes();

    match attach_units::<S>(store, &segment_names, &tracker, legacy) {
        Ok((units, chunks, shm_bytes, mut skipped)) => {
            // Figure 7 last line: delete the metadata segment. The table
            // segments stay linked — their views own the unlink now.
            let _ = ShmSegment::unlink(&ns.metadata_name());
            leaf_state = leaf_state
                .transition(LeafRestoreState::Alive)
                .expect("MemoryRecovery -> Alive is always legal");
            debug_assert_eq!(leaf_state, LeafRestoreState::Alive);
            scuba_obs::counter!("restores_completed").inc();
            skipped.sort();
            Ok(AttachReport {
                units,
                chunks,
                shm_bytes,
                heap_bytes_copied: store.heap_bytes().saturating_sub(heap_before) as u64,
                duration: start.elapsed(),
                peak_footprint: tracker.peak(),
                skipped,
            })
        }
        Err(reason) => {
            let state = leaf_state
                .transition(LeafRestoreState::DiskRecovery)
                .expect("MemoryRecovery -> DiskRecovery is always legal");
            debug_assert_eq!(state, LeafRestoreState::DiskRecovery);
            // Any views created so far are dropped by the failed attach
            // (the store's partial units go with the caller's store reset);
            // the sweep unlinks whatever names remain. A view dropping
            // after the sweep sees ENOENT, which is harmless.
            cleanup(ns, &segment_names);
            Err(fallback(reason, true))
        }
    }
}

/// One attached segment's outcome: a unit ready to install, or a
/// per-table incompatibility (classified by the store) to skip.
enum AttachOutcome<U> {
    Attached {
        unit: String,
        data: U,
        chunks: usize,
        bytes: u64,
    },
    Skipped {
        unit: String,
    },
}

/// Attach every segment in order: open a view, walk the frames, hand the
/// store mapped chunks, install the unit. Sequential by design — there is
/// no payload copy to parallelize; the worker pool earns its keep during
/// hydration instead. Units the store classifies as incompatible
/// ([`ShmPersistable::error_is_incompatible`]) are skipped and their
/// segments unlinked; everything else still attaches.
fn attach_units<S: ShmPersistable>(
    store: &mut S,
    segment_names: &[String],
    tracker: &FootprintTracker,
    legacy: bool,
) -> Result<(usize, usize, u64, Vec<String>), String> {
    let mut units = 0usize;
    let mut chunks = 0usize;
    let mut shm_bytes = 0u64;
    let mut skipped = Vec::new();
    for name in segment_names {
        let view =
            SegmentView::attach(name).map_err(|e| format!("segment {name:?} missing: {e}"))?;
        let view_len = view.len();
        tracker.add_shm(view_len);
        tracker.sample();
        match attach_one_unit::<S>(view, legacy)? {
            AttachOutcome::Attached {
                unit,
                data,
                chunks: c,
                bytes: b,
            } => match store.install_unit(&unit, data) {
                Ok(()) => {
                    units += 1;
                    chunks += c;
                    shm_bytes += b;
                    tracker.set_store_heap(store.heap_bytes());
                    tracker.sample();
                }
                Err(e) if S::error_is_incompatible(&e) => {
                    record_skip(&mut skipped, unit);
                    let _ = ShmSegment::unlink(name);
                    tracker.sub_shm(view_len);
                    tracker.set_store_heap(store.heap_bytes());
                    tracker.sample();
                }
                Err(e) => return Err(format!("attaching unit {unit:?}: {e}")),
            },
            AttachOutcome::Skipped { unit } => {
                record_skip(&mut skipped, unit);
                let _ = ShmSegment::unlink(name);
                tracker.sub_shm(view_len);
                tracker.sample();
            }
        }
    }
    Ok((units, chunks, shm_bytes, skipped))
}

/// Walk one attached segment: CRC-verify the name frame (metadata —
/// copied to heap anyway), then yield each chunk as a window into the
/// mapping for the store's `attach_unit`.
fn attach_one_unit<S: ShmPersistable>(
    view: Arc<SegmentView>,
    legacy: bool,
) -> Result<AttachOutcome<S::Unit>, String> {
    let name = view.name().to_owned();
    let mut cursor = SharedCursor::new(Arc::clone(&view) as _, name);
    let (unit, _) = read_unit_name(&mut cursor, legacy)?;

    let mut source = ViewSource {
        view,
        cursor,
        legacy,
        done: false,
        chunks: 0,
        payload_bytes: 0,
    };
    let mut result = match S::attach_unit(&unit, &mut source) {
        Ok(data) => Ok(Some(data)),
        // A format this store will never understand for this image: skip
        // just this table. Everything else (corruption, environment) stays
        // a whole-leaf fallback.
        Err(e) if S::error_is_incompatible(&e) => Ok(None),
        Err(e) => Err(format!("attaching unit {unit:?}: {e}")),
    };
    if matches!(result, Ok(Some(_))) {
        // Same drain-validate rule as the copying path; here each step is
        // O(1), no payload is touched.
        if let Err(e) = drain(|| source.next_mapped_chunk()) {
            result = Err(e.to_string());
        }
    }
    match result? {
        Some(data) => Ok(AttachOutcome::Attached {
            unit,
            data,
            chunks: source.chunks,
            bytes: source.payload_bytes,
        }),
        None => Ok(AttachOutcome::Skipped { unit }),
    }
}

/// [`MappedChunkSource`] over one segment view: reads the same framing as
/// [`FramingSource`] but yields windows instead of heap copies and leaves
/// the payload CRC to the consumer (verified either by
/// [`MappedChunk::to_heap`] for metadata chunks or by the per-column
/// checksum at hydration for payload chunks).
struct ViewSource {
    view: Arc<SegmentView>,
    cursor: SharedCursor,
    /// Image uses the legacy v1 framing.
    legacy: bool,
    done: bool,
    chunks: usize,
    payload_bytes: u64,
}

impl MappedChunkSource for ViewSource {
    fn next_mapped_chunk(&mut self) -> Result<Option<MappedChunk>, ShmError> {
        if self.done {
            return Ok(None);
        }
        if scuba_faults::check("restart::restore::chunk").is_some() {
            return Err(ShmError::injected("restart::restore::chunk", "failpoint"));
        }
        let Some((desc, len, stored_crc)) = read_frame_header(&mut self.cursor, self.legacy)?
        else {
            self.done = true;
            return Ok(None);
        };
        let offset = self.cursor.position();
        // Bounds-check the payload window without reading it.
        self.cursor.take(len as usize)?;
        self.chunks += 1;
        self.payload_bytes += len;
        Ok(Some(MappedChunk {
            desc,
            backing: Arc::clone(self.cursor.backing()),
            offset,
            len: len as usize,
            stored_crc,
        }))
    }

    fn segment(&self) -> Option<&Arc<SegmentView>> {
        Some(&self.view)
    }
}

/// One drained segment's outcome: a decoded unit ready to install, or a
/// per-table incompatibility (classified by the store) to skip.
enum UnitRead<U> {
    Decoded {
        unit: String,
        data: U,
        chunks: usize,
        bytes: u64,
    },
    Skipped {
        unit: String,
    },
}

/// Record a per-table skip: the unit's format was one this binary cannot
/// understand, so the caller disk-recovers just that table.
fn record_skip(skipped: &mut Vec<String>, unit: String) {
    scuba_obs::counter!("restore_units_skipped").inc();
    skipped.push(unit);
}

/// Drain one opened segment into a decoded unit: name frame, chunk
/// frames, drain-validate, unlink. Runs on a worker thread, or inline at
/// one worker. Store access is not needed — the decoded unit is installed
/// by the coordinator.
///
/// Wraps [`read_unit_inner`] so a `restore.table` span and a
/// [`TableSample`] are flushed on *every* exit, including mid-copy
/// errors — partial chunk/byte counts and the duration up to the failure
/// point survive into the run's breakdown. The table name is learned
/// from the name frame; until then the sample is keyed by segment name.
fn read_unit<S: ShmPersistable>(
    segment: ShmSegment,
    tracker: &FootprintTracker,
    acc: &RunAcc,
    legacy: bool,
) -> Result<UnitRead<S::Unit>, String> {
    let seg_name = segment.name().to_owned();
    let mut span = scuba_obs::span!("restore.table", segment = seg_name);
    let mut stats = UnitStats::default();
    let result = read_unit_inner::<S>(segment, tracker, acc, &mut stats, legacy);
    if span.active() {
        span.add_bytes(stats.bytes);
        let table = stats.table.take().unwrap_or(seg_name);
        span = span.attr("table", &table);
        acc.add_table(TableSample {
            table,
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

fn read_unit_inner<S: ShmPersistable>(
    segment: ShmSegment,
    tracker: &FootprintTracker,
    acc: &RunAcc,
    stats: &mut UnitStats,
    legacy: bool,
) -> Result<UnitRead<S::Unit>, String> {
    let seg_len = segment.len();
    let seg_name = segment.name().to_owned();
    let mut reader = SegmentReader::new(segment);
    let sw = Stopwatch::start();
    let name = read_unit_name(&mut reader, legacy);
    let name_ns = sw.elapsed_ns();
    let (unit, crc_ns) = name?;
    acc.add(Phase::Open, name_ns.saturating_sub(crc_ns));
    acc.add(Phase::Crc, crc_ns);
    stats.table = Some(unit.clone());

    let mut source = FramingSource {
        reader: &mut reader,
        tracker,
        legacy,
        done: false,
        chunks: 0,
        payload_bytes: 0,
        crc_ns: 0,
        copy_ns: 0,
    };
    let decode_sw = Stopwatch::start();
    let mut result = match S::decode_unit(&unit, &mut source) {
        Ok(data) => Ok(Some(data)),
        // A format this store will never understand for this image: skip
        // just this table (its disk recovery is the caller's job). All
        // other errors — corruption, environment — abandon the whole leaf
        // (§4.3 conservatism).
        Err(e) if S::error_is_incompatible(&e) => Ok(None),
        Err(e) => Err(format!("restoring unit {unit:?}: {e}")),
    };
    if matches!(result, Ok(Some(_))) {
        if let Err(e) = drain(|| source.next_chunk()) {
            result = Err(e.to_string());
        }
    }
    let decode_wall = decode_sw.elapsed_ns();
    let chunks = source.chunks;
    let payload_bytes = source.payload_bytes;
    // Decode = the callback's wall time minus what the source itself
    // spent verifying and copying (those are their own phases).
    acc.add(Phase::Crc, source.crc_ns);
    acc.add(Phase::HeapCopy, source.copy_ns);
    acc.add(
        Phase::Decode,
        decode_wall.saturating_sub(source.crc_ns + source.copy_ns),
    );
    stats.chunks = chunks as u64;
    stats.bytes = payload_bytes;
    let data = result?;

    // "delete the table shared memory segment": unmap (inside the timed
    // commit, as the backup's write unmaps inside its own) and unlink.
    let sw = Stopwatch::start();
    drop(reader);
    ShmSegment::unlink(&seg_name).map_err(|e| e.to_string())?;
    acc.add(Phase::Commit, sw.elapsed_ns());
    tracker.sub_shm(seg_len);
    match data {
        Some(data) => {
            tracker.sample();
            Ok(UnitRead::Decoded {
                unit,
                data,
                chunks,
                bytes: payload_bytes,
            })
        }
        None => {
            // The partial decode's heap copies die with it.
            tracker.sub_in_flight(payload_bytes as usize);
            tracker.sample();
            Ok(UnitRead::Skipped { unit })
        }
    }
}

/// Coordinator-side epilogue for one decoded unit: put it in the store
/// and move its bytes from in-flight to store heap. `Ok(false)` means the
/// store judged the unit incompatible at install time — the caller
/// records the skip.
fn install_unit<S: ShmPersistable>(
    store: &mut S,
    unit: &str,
    data: S::Unit,
    payload_bytes: u64,
    tracker: &FootprintTracker,
    acc: &RunAcc,
) -> Result<bool, String> {
    let sw = Stopwatch::start();
    let installed = store.install_unit(unit, data);
    acc.add(Phase::Install, sw.elapsed_ns());
    tracker.sub_in_flight(payload_bytes as usize);
    tracker.set_store_heap(store.heap_bytes());
    tracker.sample();
    match installed {
        Ok(()) => Ok(true),
        Err(e) if S::error_is_incompatible(&e) => Ok(false),
        Err(e) => Err(format!("restoring unit {unit:?}: {e}")),
    }
}

fn copy_units_back<S: ShmPersistable>(
    store: &mut S,
    segment_names: &[String],
    tracker: &FootprintTracker,
    acc: &RunAcc,
    threads: usize,
    legacy: bool,
) -> Result<(usize, usize, u64, Vec<String>), String> {
    // Open every segment up front: a missing one fails the whole restore
    // before any unit is decoded, and the sum of their sizes seeds the
    // footprint's shared-memory term.
    let sw = Stopwatch::start();
    let mut segments = Vec::with_capacity(segment_names.len());
    let mut total_shm = 0usize;
    for name in segment_names {
        let opened = ShmSegment::open(name);
        let seg = match opened {
            Ok(s) => s,
            Err(e) => {
                acc.add(Phase::Open, sw.elapsed_ns());
                return Err(format!("segment {name:?} missing: {e}"));
            }
        };
        total_shm += seg.len();
        segments.push(seg);
    }
    acc.add(Phase::Open, sw.elapsed_ns());
    tracker.add_shm(total_shm);
    tracker.sample();

    let (mut units, mut chunks, mut bytes_copied) = (0usize, 0usize, 0u64);
    let mut skipped = Vec::new();
    let mut segments = segments.into_iter();
    fan_out(
        threads,
        |_| segments.next().map(Ok),
        |segment| read_unit::<S>(segment, tracker, acc, legacy),
        // Dropped without unlinking: the error path's cleanup sweeps every
        // segment.
        drop,
        |read| {
            match read {
                UnitRead::Decoded {
                    unit,
                    data,
                    chunks: c,
                    bytes: b,
                } => {
                    if install_unit(store, &unit, data, b, tracker, acc)? {
                        units += 1;
                        chunks += c;
                        bytes_copied += b;
                    } else {
                        record_skip(&mut skipped, unit);
                    }
                }
                UnitRead::Skipped { unit } => record_skip(&mut skipped, unit),
            }
            Ok(())
        },
    )?;
    Ok((units, chunks, bytes_copied, skipped))
}

fn fallback(reason: String, cleaned_up: bool) -> RestoreError {
    // Every abandoned restore routes through here, so this is the one
    // place the failure counter moves (restores_started == completed +
    // failed is a chaos-soak invariant).
    scuba_obs::counter!("restores_failed").inc();
    RestoreError::Fallback(Fallback { reason, cleaned_up })
}

fn cleanup(ns: &ShmNamespace, segment_names: &[String]) {
    for name in segment_names {
        let _ = ShmSegment::unlink(name);
    }
    // Sweep orphans through the namespace (registry first, then the
    // contiguous walk, then a capped index fallback). A plain
    // `while exists(table_segment_name(i))` walk would stop at the first
    // numbering gap and strand every higher-numbered segment — exactly
    // the hole a partially-drained parallel restore leaves behind.
    ns.unlink_all(ORPHAN_SWEEP_CAP.max(segment_names.len()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backup::testutil::{ToyError, ToyStore, TAG_TOY};
    use crate::backup::{backup_to_shm, backup_to_shm_with, BackupError};
    use crate::framing::{
        encode_header_v2, end_header_v2, END_SENTINEL_V1, FRAME_HEADER_V2, TAG_STORE_BASE,
        TAG_UNIT_NAME,
    };
    use std::sync::atomic::{AtomicU32, Ordering};

    const V: u32 = crate::SHM_LAYOUT_VERSION;

    static COUNTER: AtomicU32 = AtomicU32::new(100);

    fn test_ns() -> ShmNamespace {
        ShmNamespace::new(
            &format!("rst{}", std::process::id()),
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

    fn sample_store() -> ToyStore {
        ToyStore::with_units(&[
            ("events", &[b"chunk-a" as &[u8], b"chunk-b", b"chunk-c"]),
            ("metrics", &[b"m1" as &[u8]]),
            ("empty_table", &[]),
        ])
    }

    #[test]
    fn full_round_trip_preserves_store() {
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let mut store = sample_store();
        let original = store.clone();
        let bak = backup_to_shm(&mut store, &ns, V).unwrap();
        assert!(store.units.is_empty());

        let mut restored = ToyStore::default();
        let rep = restore_from_shm(&mut restored, &ns, V).unwrap();
        assert_eq!(restored, original);
        assert_eq!(rep.units, 3);
        assert_eq!(rep.chunks, bak.chunks);
        assert_eq!(rep.bytes_copied, bak.bytes_copied);

        // Everything deleted afterwards.
        assert!(!ShmSegment::exists(&ns.metadata_name()));
        for i in 0..3 {
            assert!(!ShmSegment::exists(&ns.table_segment_name(i)));
        }
    }

    #[test]
    fn parallel_round_trip_matches_sequential() {
        // The tentpole fidelity property: for threads ∈ {1, 2, 8}, a
        // parallel backup/restore cycle yields exactly the store and chunk
        // counts the sequential protocol produces.
        let seq_ns = test_ns();
        let _c0 = Cleanup(seq_ns.clone());
        let original = ToyStore::seeded(42, 9, 6, 2048);
        let mut seq_store = original.clone();
        let seq_bak =
            backup_to_shm_with(&mut seq_store, &seq_ns, V, CopyOptions::with_threads(1)).unwrap();
        let mut seq_restored = ToyStore::default();
        let seq_res =
            restore_from_shm_with(&mut seq_restored, &seq_ns, V, CopyOptions::with_threads(1))
                .unwrap();
        assert_eq!(seq_restored, original);

        for threads in [2usize, 8] {
            let ns = test_ns();
            let _c = Cleanup(ns.clone());
            let mut store = original.clone();
            let bak = backup_to_shm_with(
                &mut store,
                &ns,
                V,
                CopyOptions::with_threads(threads).without_size_clamp(),
            )
            .unwrap();
            assert!(store.units.is_empty());
            assert_eq!(bak.chunks, seq_bak.chunks, "threads={threads}");
            assert_eq!(bak.bytes_copied, seq_bak.bytes_copied, "threads={threads}");

            let mut restored = ToyStore::default();
            let res =
                restore_from_shm_with(&mut restored, &ns, V, CopyOptions::with_threads(threads))
                    .unwrap();
            assert_eq!(restored, original, "threads={threads}");
            assert_eq!(res.chunks, seq_res.chunks, "threads={threads}");
            assert_eq!(res.bytes_copied, seq_res.bytes_copied, "threads={threads}");
            assert!(!ShmSegment::exists(&ns.metadata_name()));
            for i in 0..12 {
                assert!(!ShmSegment::exists(&ns.table_segment_name(i)));
            }
        }
    }

    #[test]
    fn second_restore_falls_back() {
        // The valid bit is single-shot: after one successful restore the
        // state is gone.
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let mut store = sample_store();
        backup_to_shm(&mut store, &ns, V).unwrap();
        let mut restored = ToyStore::default();
        restore_from_shm(&mut restored, &ns, V).unwrap();

        let mut again = ToyStore::default();
        let err = restore_from_shm(&mut again, &ns, V).unwrap_err();
        let RestoreError::Fallback(fb) = err;
        assert!(fb.reason.contains("metadata unavailable"), "{}", fb.reason);
    }

    #[test]
    fn missing_metadata_falls_back() {
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let mut store = ToyStore::default();
        let err = restore_from_shm(&mut store, &ns, V).unwrap_err();
        let RestoreError::Fallback(fb) = err;
        assert!(fb.cleaned_up);
    }

    #[test]
    fn unset_valid_bit_falls_back_and_cleans_up() {
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        // Manufacture committed-but-unset state: backup, then clear bit.
        let mut store = sample_store();
        backup_to_shm(&mut store, &ns, V).unwrap();
        let mut meta = LeafMetadata::open(&ns).unwrap();
        meta.set_valid(false).unwrap();
        drop(meta);

        let mut restored = ToyStore::default();
        let err = restore_from_shm(&mut restored, &ns, V).unwrap_err();
        let RestoreError::Fallback(fb) = err;
        assert!(fb.reason.contains("valid bit"), "{}", fb.reason);
        assert!(restored.units.is_empty());
        // Figure 7: "delete shared memory segments".
        assert!(!ShmSegment::exists(&ns.metadata_name()));
        assert!(!ShmSegment::exists(&ns.table_segment_name(0)));
    }

    #[test]
    fn too_new_image_falls_back() {
        // Version skew only falls back when the image genuinely demands a
        // newer reader than this binary — not on any mismatch (the paper's
        // §4.2 policy, deliberately relaxed here).
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let mut meta = LeafMetadata::create(&ns, 99, 99).unwrap();
        meta.set_valid(true).unwrap();
        drop(meta);
        let mut restored = ToyStore::default();
        let err = restore_from_shm(&mut restored, &ns, V).unwrap_err();
        let RestoreError::Fallback(fb) = err;
        assert!(
            fb.reason.contains("requires reader version"),
            "{}",
            fb.reason
        );
        assert!(!ShmSegment::exists(&ns.metadata_name()));
    }

    #[test]
    fn torn_segment_falls_back() {
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let mut store = sample_store();
        backup_to_shm(&mut store, &ns, V).unwrap();
        // Tear a table segment: truncate it mid-frame.
        let mut seg = ShmSegment::open(&ns.table_segment_name(0)).unwrap();
        let half = seg.len() / 2;
        seg.resize(half).unwrap();
        drop(seg);

        let mut restored = ToyStore::default();
        let err = restore_from_shm(&mut restored, &ns, V).unwrap_err();
        let RestoreError::Fallback(fb) = err;
        assert!(fb.cleaned_up);
        assert!(!ShmSegment::exists(&ns.table_segment_name(1)));
    }

    #[test]
    fn missing_table_segment_falls_back() {
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let mut store = sample_store();
        backup_to_shm(&mut store, &ns, V).unwrap();
        ShmSegment::unlink(&ns.table_segment_name(1)).unwrap();
        let mut restored = ToyStore::default();
        let err = restore_from_shm(&mut restored, &ns, V).unwrap_err();
        let RestoreError::Fallback(fb) = err;
        assert!(fb.reason.contains("missing"), "{}", fb.reason);
    }

    #[test]
    fn store_error_during_restore_falls_back() {
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let mut store = sample_store();
        backup_to_shm(&mut store, &ns, V).unwrap();
        let mut restored = ToyStore {
            poison: Some("metrics".to_owned()),
            ..Default::default()
        };
        let err = restore_from_shm(&mut restored, &ns, V).unwrap_err();
        let RestoreError::Fallback(fb) = err;
        assert!(fb.reason.contains("poisoned"), "{}", fb.reason);
        // Interrupted restore must leave the valid bit unusable.
        assert!(!ShmSegment::exists(&ns.metadata_name()));
    }

    #[test]
    fn store_error_during_parallel_restore_falls_back() {
        // Same invariant with workers: a poisoned install aborts the run,
        // the fallback fires, and the sweep leaves nothing behind — even
        // though other workers had already unlinked their segments
        // (numbering gaps must not strand the rest).
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let mut store = ToyStore::seeded(77, 8, 4, 512);
        backup_to_shm_with(&mut store, &ns, V, CopyOptions::with_threads(4)).unwrap();
        let mut restored = ToyStore {
            poison: Some("unit_004".to_owned()),
            ..Default::default()
        };
        let err =
            restore_from_shm_with(&mut restored, &ns, V, CopyOptions::with_threads(4)).unwrap_err();
        let RestoreError::Fallback(fb) = err;
        assert!(fb.reason.contains("poisoned"), "{}", fb.reason);
        assert!(fb.cleaned_up);
        assert!(!ShmSegment::exists(&ns.metadata_name()));
        for i in 0..10 {
            assert!(!ShmSegment::exists(&ns.table_segment_name(i)));
        }
    }

    #[test]
    fn cleanup_sweeps_past_numbering_gaps() {
        // Orphan sweep regression: segments t0 and t2 exist, t1 does not.
        // The old `while exists(i)` walk stopped at the gap and leaked t2.
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let _ = ShmSegment::create(&ns.table_segment_name(0), 64).unwrap();
        let _ = ShmSegment::create(&ns.table_segment_name(2), 64).unwrap();
        let _ = ShmSegment::create(&ns.table_segment_name(7), 64).unwrap();
        cleanup(&ns, &[]);
        for i in 0..10 {
            assert!(
                !ShmSegment::exists(&ns.table_segment_name(i)),
                "segment {i} leaked past the sweep"
            );
        }
    }

    #[test]
    fn interrupted_restore_cannot_be_replayed() {
        // Figure 7: "If this code path is interrupted, the valid bit will
        // be false on the next restart". Simulate the interruption by
        // poisoning the first unit, then verify a clean retry also falls
        // back (rather than restoring half the data).
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let mut store = sample_store();
        backup_to_shm(&mut store, &ns, V).unwrap();
        let mut broken = ToyStore {
            poison: Some("events".to_owned()),
            ..Default::default()
        };
        assert!(restore_from_shm(&mut broken, &ns, V).is_err());
        let mut retry = ToyStore::default();
        assert!(restore_from_shm(&mut retry, &ns, V).is_err());
        assert!(retry.units.is_empty());
    }

    #[test]
    fn backup_error_type_displays() {
        let e: BackupError<ToyError> = BackupError::Store(ToyError("x".into()));
        assert!(e.to_string().contains("store error"));
    }

    #[test]
    fn attach_round_trip_preserves_store() {
        // ToyStore uses the default attach_unit (copy + verify), so the
        // attach path must behave exactly like a restore for it — and with
        // no mapped references kept, every view drops inside the attach,
        // unlinking the table segments immediately.
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let mut store = sample_store();
        let original = store.clone();
        let bak = backup_to_shm(&mut store, &ns, V).unwrap();

        let mut restored = ToyStore::default();
        let rep = attach_from_shm(&mut restored, &ns, V).unwrap();
        assert_eq!(restored, original);
        assert_eq!(rep.units, 3);
        assert_eq!(rep.chunks, bak.chunks);
        assert_eq!(rep.shm_bytes, bak.bytes_copied);
        assert!(!ShmSegment::exists(&ns.metadata_name()));
        for i in 0..3 {
            assert!(!ShmSegment::exists(&ns.table_segment_name(i)));
        }

        // The valid bit is single-shot for attach too.
        let mut again = ToyStore::default();
        let err = attach_from_shm(&mut again, &ns, V).unwrap_err();
        let RestoreError::Fallback(fb) = err;
        assert!(fb.reason.contains("metadata unavailable"), "{}", fb.reason);
    }

    #[test]
    fn attach_missing_segment_falls_back() {
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let mut store = sample_store();
        backup_to_shm(&mut store, &ns, V).unwrap();
        ShmSegment::unlink(&ns.table_segment_name(1)).unwrap();
        let mut restored = ToyStore::default();
        let err = attach_from_shm(&mut restored, &ns, V).unwrap_err();
        let RestoreError::Fallback(fb) = err;
        assert!(fb.reason.contains("missing"), "{}", fb.reason);
        assert!(fb.cleaned_up);
        assert!(!ShmSegment::exists(&ns.metadata_name()));
        assert!(!ShmSegment::exists(&ns.table_segment_name(0)));
    }

    #[test]
    fn attach_torn_segment_falls_back_and_sweeps() {
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let mut store = sample_store();
        backup_to_shm(&mut store, &ns, V).unwrap();
        let mut seg = ShmSegment::open(&ns.table_segment_name(0)).unwrap();
        let half = seg.len() / 2;
        seg.resize(half).unwrap();
        drop(seg);

        let mut restored = ToyStore::default();
        let err = attach_from_shm(&mut restored, &ns, V).unwrap_err();
        let RestoreError::Fallback(fb) = err;
        assert!(fb.cleaned_up);
        for i in 0..3 {
            assert!(!ShmSegment::exists(&ns.table_segment_name(i)));
        }
    }

    #[test]
    fn attach_detects_corrupt_chunk_on_copy() {
        // The default attach_unit verifies each frame CRC when it copies,
        // so a flipped payload byte must fall back — pinning that the
        // copy-everything compatibility path loses no integrity coverage.
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let mut store = sample_store();
        backup_to_shm(&mut store, &ns, V).unwrap();
        // Segment order is BTreeMap key order: 0 = empty_table, 1 = events.
        let mut seg = ShmSegment::open(&ns.table_segment_name(1)).unwrap();
        let len = seg.len();
        // Flip a byte inside the first chunk's payload: the name frame for
        // "events" is a v2 header + 6 bytes, then the chunk's own header.
        let target = FRAME_HEADER_V2 + 6 + FRAME_HEADER_V2 + 2;
        assert!(target < len);
        seg.as_mut_slice()[target] ^= 0xFF;
        drop(seg);

        let mut restored = ToyStore::default();
        let err = attach_from_shm(&mut restored, &ns, V).unwrap_err();
        let RestoreError::Fallback(fb) = err;
        assert!(fb.reason.contains("checksum"), "{}", fb.reason);
        assert!(!ShmSegment::exists(&ns.metadata_name()));
    }

    #[test]
    fn attach_counters_balance() {
        // attach reuses the restores_* counters, so the chaos-soak
        // invariant (started == completed + failed) must keep holding.
        let _guard = scuba_obs::exclusive();
        let was = scuba_obs::enabled();
        scuba_obs::set_enabled(true);
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let mut store = sample_store();
        backup_to_shm(&mut store, &ns, V).unwrap();
        let started = scuba_obs::counter!("restores_started").get();
        let completed = scuba_obs::counter!("restores_completed").get();
        let failed = scuba_obs::counter!("restores_failed").get();

        let mut restored = ToyStore::default();
        attach_from_shm(&mut restored, &ns, V).unwrap();
        let mut again = ToyStore::default();
        assert!(attach_from_shm(&mut again, &ns, V).is_err());

        let d_started = scuba_obs::counter!("restores_started").get() - started;
        let d_completed = scuba_obs::counter!("restores_completed").get() - completed;
        let d_failed = scuba_obs::counter!("restores_failed").get() - failed;
        scuba_obs::set_enabled(was);
        assert_eq!(d_started, 2);
        assert_eq!(d_completed + d_failed, d_started);
    }

    /// Write `bytes` verbatim into a fresh segment named `name`.
    fn write_raw_segment(name: &str, bytes: &[u8]) {
        let mut seg = ShmSegment::create(name, bytes.len()).unwrap();
        seg.as_mut_slice()[..bytes.len()].copy_from_slice(bytes);
    }

    /// Append one v2 TLV frame to `buf`.
    fn frame_v2(buf: &mut Vec<u8>, desc: ChunkDesc, payload: &[u8]) {
        buf.extend_from_slice(&encode_header_v2(
            desc,
            payload.len() as u64,
            scuba_shmem::crc32(payload),
        ));
        buf.extend_from_slice(payload);
    }

    /// Hand-write the image a pre-refactor (v1) writer would have left:
    /// legacy metadata layout, bare len/crc framing, u64::MAX terminator.
    fn write_legacy_v1_image(ns: &ShmNamespace, unit: &str, chunks: &[&[u8]]) -> String {
        let seg_name = ns.table_segment_name(0);
        let mut buf = Vec::new();
        buf.extend_from_slice(&(unit.len() as u64).to_le_bytes());
        buf.extend_from_slice(&scuba_shmem::crc32(unit.as_bytes()).to_le_bytes());
        buf.extend_from_slice(unit.as_bytes());
        for c in chunks {
            buf.extend_from_slice(&(c.len() as u64).to_le_bytes());
            buf.extend_from_slice(&scuba_shmem::crc32(c).to_le_bytes());
            buf.extend_from_slice(c);
        }
        buf.extend_from_slice(&END_SENTINEL_V1.to_le_bytes());
        write_raw_segment(&seg_name, &buf);

        let mut meta = LeafMetadata::create_legacy_v1(ns).unwrap();
        meta.add_segment_invalidating(&seg_name, 1, 0).unwrap();
        meta.set_valid(true).unwrap();
        seg_name
    }

    #[test]
    fn legacy_v1_image_restores_under_current_binary() {
        // The tentpole backward-compat property: an image written by the
        // old (version-1) binary restores via shared memory under this
        // one, instead of the paper's disable-on-format-change fallback.
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let seg = write_legacy_v1_image(&ns, "events", &[b"chunk-a", b"chunk-b"]);

        let expected = ToyStore::with_units(&[("events", &[b"chunk-a" as &[u8], b"chunk-b"])]);
        let mut restored = ToyStore::default();
        let rep = restore_from_shm(&mut restored, &ns, V).unwrap();
        assert_eq!(restored, expected);
        assert_eq!(rep.units, 1);
        assert!(rep.skipped.is_empty());
        assert!(!ShmSegment::exists(&seg));
        assert!(!ShmSegment::exists(&ns.metadata_name()));
    }

    #[test]
    fn legacy_v1_image_attaches_under_current_binary() {
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        write_legacy_v1_image(&ns, "events", &[b"chunk-a", b"chunk-b"]);

        let expected = ToyStore::with_units(&[("events", &[b"chunk-a" as &[u8], b"chunk-b"])]);
        let mut restored = ToyStore::default();
        let rep = attach_from_shm(&mut restored, &ns, V).unwrap();
        assert_eq!(restored, expected);
        assert_eq!(rep.units, 1);
        assert!(rep.skipped.is_empty());
        assert!(!ShmSegment::exists(&ns.metadata_name()));
    }

    /// Hand-write a v2 image with two units: "events" (well-formed) and
    /// "weird" (containing one chunk with an unknown tag, flagged per
    /// `skippable`).
    fn write_v2_image_with_stranger(ns: &ShmNamespace, skippable: bool) {
        let stranger = if skippable {
            ChunkDesc::new(TAG_STORE_BASE + 40, 1).skippable()
        } else {
            ChunkDesc::new(TAG_STORE_BASE + 40, 1)
        };
        let seg0 = ns.table_segment_name(0);
        let mut buf = Vec::new();
        frame_v2(&mut buf, ChunkDesc::new(TAG_UNIT_NAME, 1), b"events");
        frame_v2(&mut buf, ChunkDesc::new(TAG_TOY, 1), b"chunk-a");
        frame_v2(&mut buf, ChunkDesc::new(TAG_TOY, 1), b"chunk-b");
        buf.extend_from_slice(&end_header_v2());
        write_raw_segment(&seg0, &buf);

        let seg1 = ns.table_segment_name(1);
        let mut buf = Vec::new();
        frame_v2(&mut buf, ChunkDesc::new(TAG_UNIT_NAME, 1), b"weird");
        frame_v2(&mut buf, ChunkDesc::new(TAG_TOY, 1), b"w1");
        frame_v2(&mut buf, stranger, b"mystery-payload");
        buf.extend_from_slice(&end_header_v2());
        write_raw_segment(&seg1, &buf);

        let mut meta = LeafMetadata::create(ns, V, migrate::CURRENT_IMAGE_MIN_READER).unwrap();
        meta.add_segment_invalidating(&seg0, 1, 0).unwrap();
        meta.add_segment_invalidating(&seg1, 1, 0).unwrap();
        meta.set_valid(true).unwrap();
    }

    #[test]
    fn unknown_skippable_chunk_is_ignored() {
        // A chunk from a newer writer that marked it FLAG_SKIPPABLE must
        // not cost the table (let alone the leaf) its memory restore.
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        write_v2_image_with_stranger(&ns, true);
        let mut restored = ToyStore::default();
        let rep = restore_from_shm(&mut restored, &ns, V).unwrap();
        assert_eq!(rep.units, 2);
        assert!(rep.skipped.is_empty());
        assert_eq!(restored.units["weird"], vec![b"w1".to_vec()]);
    }

    #[test]
    fn unknown_required_chunk_skips_only_that_table() {
        // A non-skippable unknown chunk is a true incompatibility — but a
        // *per-table* one: "weird" goes to disk recovery, "events" still
        // restores from memory.
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        write_v2_image_with_stranger(&ns, false);
        let mut restored = ToyStore::default();
        let rep = restore_from_shm(&mut restored, &ns, V).unwrap();
        assert_eq!(rep.units, 1);
        assert_eq!(rep.skipped, vec!["weird".to_owned()]);
        assert!(restored.units.contains_key("events"));
        assert!(!restored.units.contains_key("weird"));
        assert!(!ShmSegment::exists(&ns.table_segment_name(1)));
        assert!(!ShmSegment::exists(&ns.metadata_name()));
    }

    #[test]
    fn unknown_required_chunk_skips_only_that_table_on_attach() {
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        write_v2_image_with_stranger(&ns, false);
        let mut restored = ToyStore::default();
        let rep = attach_from_shm(&mut restored, &ns, V).unwrap();
        assert_eq!(rep.units, 1);
        assert_eq!(rep.skipped, vec!["weird".to_owned()]);
        assert!(restored.units.contains_key("events"));
        assert!(!restored.units.contains_key("weird"));
        assert!(!ShmSegment::exists(&ns.metadata_name()));
    }

    #[test]
    fn install_incompatibility_skips_per_table_in_parallel() {
        // The install-time classification and the parallel path: one unit
        // the store rejects as incompatible is skipped; the other five
        // restore, and nothing is left behind.
        let ns = test_ns();
        let _c = Cleanup(ns.clone());
        let original = ToyStore::seeded(7, 6, 4, 256);
        let mut store = original.clone();
        backup_to_shm_with(&mut store, &ns, V, CopyOptions::with_threads(4)).unwrap();
        let mut restored = ToyStore {
            incompatible: Some("unit_003".to_owned()),
            ..Default::default()
        };
        let rep =
            restore_from_shm_with(&mut restored, &ns, V, CopyOptions::with_threads(4)).unwrap();
        assert_eq!(rep.skipped, vec!["unit_003".to_owned()]);
        assert_eq!(rep.units, 5);
        assert!(!restored.units.contains_key("unit_003"));
        for (name, chunks) in &original.units {
            if name != "unit_003" {
                assert_eq!(&restored.units[name], chunks);
            }
        }
        for i in 0..8 {
            assert!(!ShmSegment::exists(&ns.table_segment_name(i)));
        }
        assert!(!ShmSegment::exists(&ns.metadata_name()));
    }
}
