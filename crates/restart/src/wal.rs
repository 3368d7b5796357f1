//! Per-leaf write-ahead log for the crash-restart fast path.
//!
//! The paper's protocol only trusts shared memory across a *planned*
//! shutdown (§4.3); this log is half of the extension that makes the shm
//! image useful after a crash. The continuous checkpointer keeps the image
//! warm; the WAL records every ingest batch since, as CRC-framed records,
//! so crash recovery is `attach_from_shm` + a short tail replay instead of
//! hours of disk translation (the recovery shape argued for in
//! arXiv:1604.03226's parallel log replay and the consistent-snapshot
//! taxonomy of arXiv:1810.04915).
//!
//! The log is deliberately dumb: an 8-byte header (`magic`, `version`)
//! followed by length+CRC framed opaque payloads. The *meaning* of a
//! payload (which table, which rows, what the table's row count was when
//! the batch landed) belongs to the leaf layer — this module only
//! guarantees that a reader gets back exactly the prefix of records that
//! were fully written, stopping cleanly at the first torn or corrupt
//! record (§4.1's truncate-at-first-bad-record durability contract,
//! applied to the WAL instead of the disk backup).
//!
//! A leaf keeps its log as a [`SegmentedWal`]: a directory of such files,
//! one per *segment*, named by a monotonically increasing sequence number.
//! Rotating to a fresh segment is the log's cut point — a checkpoint taken
//! at the rotation covers every record in the older segments, and once it
//! commits they are unlinked whole ([`SegmentedWal::drop_below`]). Crash
//! replay therefore reads only what the image lacks, bounded by the
//! checkpoint cadence instead of by the time since the last quiet moment
//! (arXiv:1604.03226's checkpoint-bounded log tail; the rotation is the
//! single well-defined cut arXiv:1810.04915 asks a snapshot to have).
//!
//! Failpoints: `restart::wal::append`, `restart::wal::fsync`,
//! `restart::wal::replay`.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

use scuba_shmem::crc32;

/// "SWAL" little-endian.
pub const WAL_MAGIC: u32 = 0x4C41_5753;
/// Current WAL file format version. Version 2 added a leading tag byte to
/// every leaf-level payload (batch vs. sync-coverage anchor); a v1 log is
/// treated as foreign rather than misparsed.
pub const WAL_VERSION: u32 = 2;
/// File header size: magic + version.
pub const WAL_HEADER: u64 = 8;
/// Per-record frame overhead: payload length + payload CRC-32.
pub const WAL_RECORD_HEADER: usize = 8;
/// Upper bound on a single record payload. The writer rejects anything
/// larger at append time; the reader treats a larger length word as a
/// torn/corrupt tail rather than trusting it for allocation.
pub const MAX_RECORD_LEN: usize = 1 << 30;

/// WAL operation failure.
#[derive(Debug)]
pub enum WalError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// A fault-injection site fired (tests only).
    Injected {
        /// The site that fired.
        site: &'static str,
    },
    /// An append payload exceeded [`MAX_RECORD_LEN`]. Writing it anyway
    /// would produce a frame the reader is guaranteed to reject as torn
    /// (and past `u32::MAX` the length word would silently truncate), so
    /// the failure surfaces at write time instead of recovery time.
    RecordTooLarge {
        /// The offending payload length.
        len: usize,
    },
    /// A segment other than the last ends in a torn or corrupt record.
    /// Only the live (last) segment is ever appended to, so this is not a
    /// crash shape: records after the tear are unreachable and the log no
    /// longer covers the tail, so replay must not be trusted.
    Gap {
        /// The damaged segment.
        seq: u64,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Injected { site } => write!(f, "injected fault at {site:?}"),
            WalError::RecordTooLarge { len } => {
                write!(
                    f,
                    "wal record payload of {len} bytes exceeds {MAX_RECORD_LEN}"
                )
            }
            WalError::Gap { seq } => {
                write!(f, "wal segment {seq:016x} is torn but not the last")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// What a read of the log found.
#[derive(Debug, Default)]
pub struct WalContents {
    /// Fully-written record payloads, append order.
    pub records: Vec<Vec<u8>>,
    /// Whether the log ended in a torn or corrupt record (replay stops at
    /// the last valid one either way; this is reporting, not an error).
    pub torn: bool,
    /// Byte offset just past the last valid record — where a writer must
    /// truncate to before appending again.
    pub valid_len: u64,
    /// Total file length on disk (>= `valid_len` when torn).
    pub file_len: u64,
}

/// Read the log at `path`. A missing file is an empty log; a torn tail
/// (crash mid-append) stops the scan cleanly at the last valid record.
/// The `restart::wal::replay` failpoint guards the scan — an `error` plan
/// surfaces as [`WalError::Injected`], which callers answer with a disk
/// fallback.
pub fn read_wal(path: &Path) -> Result<WalContents, WalError> {
    replay_failpoint()?;
    let file = read_file(path)?;
    Ok(WalContents {
        records: file.records().map(<[u8]>::to_vec).collect(),
        torn: file.torn,
        valid_len: file.valid_len,
        file_len: file.bytes.len() as u64,
    })
}

fn replay_failpoint() -> Result<(), WalError> {
    if scuba_faults::check("restart::wal::replay").is_some() {
        return Err(WalError::Injected {
            site: "restart::wal::replay",
        });
    }
    Ok(())
}

/// One log file read whole: its bytes plus where each valid record's
/// payload sits in them (no payload is copied).
#[derive(Debug, Default)]
struct LogFile {
    bytes: Vec<u8>,
    records: Vec<Range<usize>>,
    torn: bool,
    valid_len: u64,
}

impl LogFile {
    fn records(&self) -> impl Iterator<Item = &[u8]> {
        self.records.iter().map(|r| &self.bytes[r.clone()])
    }
}

/// Read and frame-check one log file (no failpoint: callers check it once
/// per read, not once per file).
fn read_file(path: &Path) -> Result<LogFile, WalError> {
    let mut out = LogFile::default();
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e.into()),
    };
    file.read_to_end(&mut out.bytes)?;
    let buf = &out.bytes;
    if buf.len() < WAL_HEADER as usize {
        out.torn = !buf.is_empty();
        return Ok(out);
    }
    let magic = u32::from_le_bytes(buf[0..4].try_into().unwrap());
    let version = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    if magic != WAL_MAGIC || version != WAL_VERSION {
        // Not a log this binary wrote: nothing trustworthy to replay.
        out.torn = true;
        return Ok(out);
    }
    let mut pos = WAL_HEADER as usize;
    out.valid_len = WAL_HEADER;
    while pos < buf.len() {
        if pos + WAL_RECORD_HEADER > buf.len() {
            out.torn = true;
            break;
        }
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap());
        let start = pos + WAL_RECORD_HEADER;
        if len > MAX_RECORD_LEN || start + len > buf.len() {
            out.torn = true;
            break;
        }
        if crc32(&buf[start..start + len]) != crc {
            out.torn = true;
            break;
        }
        out.records.push(start..start + len);
        pos = start + len;
        out.valid_len = pos as u64;
    }
    Ok(out)
}

/// Read the log at `path` for a writer about to resume it: the length of
/// its valid prefix. An armed replay fault must not wedge the writer: the
/// log counts as unreadable, and the writer starts it afresh.
fn resumable_len(path: &Path) -> Result<u64, WalError> {
    match replay_failpoint().and_then(|()| read_file(path)) {
        Ok(c) => Ok(c.valid_len),
        Err(WalError::Injected { .. }) => Ok(0),
        Err(e) => Err(e),
    }
}

fn write_header(file: &mut File) -> Result<u64, WalError> {
    file.write_all(&WAL_MAGIC.to_le_bytes())?;
    file.write_all(&WAL_VERSION.to_le_bytes())?;
    Ok(WAL_HEADER)
}

/// Append handle to a leaf's WAL. Opening scans the existing log and
/// truncates any torn tail, so appends always extend a valid prefix.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    /// Current file length (header + valid records + our appends).
    len: u64,
}

impl WalWriter {
    /// Open (or create) the log at `path`, truncating a torn tail left by
    /// a crashed predecessor.
    pub fn open(path: impl Into<PathBuf>) -> Result<WalWriter, WalError> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let valid_len = resumable_len(&path)?;
        WalWriter::resume(path, valid_len)
    }

    /// Open (or create) the log at `path` to append after its first
    /// `valid_len` bytes, which a read already checked: the rest is a torn
    /// tail and is cut off. Below a header's length the file is rewritten
    /// from scratch. Reads nothing.
    fn resume(path: PathBuf, valid_len: u64) -> Result<WalWriter, WalError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let len = if valid_len >= WAL_HEADER {
            // Valid header: keep the good prefix, drop the torn tail.
            file.set_len(valid_len)?;
            valid_len
        } else {
            // Empty, torn-header, or foreign file: rewrite from scratch.
            file.set_len(0)?;
            write_header(&mut file)?
        };
        file.seek(SeekFrom::Start(len))?;
        Ok(WalWriter { file, path, len })
    }

    /// Create an empty log at `path`, replacing any file there. Reads
    /// nothing, so unlike [`Self::open`] it never consults the replay
    /// failpoint.
    fn create(path: PathBuf) -> Result<WalWriter, WalError> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let len = write_header(&mut file)?;
        Ok(WalWriter { file, path, len })
    }

    /// Append one record. Buffered in the OS page cache; durable against
    /// machine failure only after [`Self::sync`] — the same contract as
    /// the disk backup's buffered appends (§4.1). Durable against *process*
    /// death immediately, which is what the crash-restart path needs.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), WalError> {
        if scuba_faults::check("restart::wal::append").is_some() {
            return Err(WalError::Injected {
                site: "restart::wal::append",
            });
        }
        if payload.len() > MAX_RECORD_LEN {
            return Err(WalError::RecordTooLarge { len: payload.len() });
        }
        let mut frame = Vec::with_capacity(WAL_RECORD_HEADER + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.write_all(&frame)?;
        self.len += frame.len() as u64;
        Ok(())
    }

    /// fsync the log (the leaf calls this alongside the disk backup's
    /// sync, so WAL and backup share one durability boundary).
    pub fn sync(&mut self) -> Result<(), WalError> {
        if scuba_faults::check("restart::wal::fsync").is_some() {
            return Err(WalError::Injected {
                site: "restart::wal::fsync",
            });
        }
        self.file.sync_data()?;
        Ok(())
    }

    /// Current log size in bytes (header included).
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// File name of segment `seq` inside a segment directory: sixteen hex
/// digits, so name order is sequence order.
pub fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("{seq:016x}.wal"))
}

/// The segment sequence numbers present in `dir`, ascending. A missing
/// directory holds none; files that are not segments are ignored.
pub fn list_segments(dir: &Path) -> Result<Vec<u64>, WalError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    let mut seqs = Vec::new();
    for entry in entries {
        let name = entry?.file_name();
        let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".wal")) else {
            continue;
        };
        if stem.len() == 16 {
            if let Ok(seq) = u64::from_str_radix(stem, 16) {
                seqs.push(seq);
            }
        }
    }
    seqs.sort_unstable();
    Ok(seqs)
}

/// Move a single-file log (the layout before segments) into `dir` as
/// segment 0, replacing any segments there: a segmented writer removes the
/// single file whenever it opens, so one that still exists was written
/// after them. No-op when `file` does not exist.
pub fn adopt_single_file(dir: &Path, file: &Path) -> Result<(), WalError> {
    if !file.exists() {
        return Ok(());
    }
    std::fs::create_dir_all(dir)?;
    for seq in list_segments(dir)? {
        remove_segment(dir, seq)?;
    }
    std::fs::rename(file, segment_path(dir, 0))?;
    File::open(dir)?.sync_all()?;
    Ok(())
}

fn remove_segment(dir: &Path, seq: u64) -> Result<(), WalError> {
    match std::fs::remove_file(segment_path(dir, seq)) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e.into()),
        _ => Ok(()),
    }
}

/// A segment directory read back whole, in sequence order.
#[derive(Debug, Default)]
pub struct SegmentedContents {
    segments: Vec<(u64, LogFile)>,
}

impl SegmentedContents {
    /// Every valid record payload, segment by segment, append order, each
    /// with the seq of the segment holding it.
    pub fn records(&self) -> impl Iterator<Item = (u64, &[u8])> {
        let segments = self.segments.iter();
        segments.flat_map(|(seq, f)| f.records().map(move |record| (*seq, record)))
    }

    /// Whether the last segment ended in a torn record (replay stops there
    /// either way; this is reporting, not an error).
    pub fn torn(&self) -> bool {
        self.segments.last().is_some_and(|(_, f)| f.torn)
    }

    /// Segments read.
    pub fn segments(&self) -> usize {
        self.segments.len()
    }

    /// Bytes read, across every segment.
    pub fn len_bytes(&self) -> u64 {
        self.segments
            .iter()
            .map(|(_, f)| f.bytes.len() as u64)
            .sum()
    }

    /// Where each segment's valid records end: what
    /// [`SegmentedWal::reopen`] needs to resume the log unread.
    pub fn layout(&self) -> WalLayout {
        WalLayout {
            segments: self
                .segments
                .iter()
                .map(|(seq, f)| (*seq, f.bytes.len() as u64, f.valid_len))
                .collect(),
        }
    }
}

/// Each segment of a log as one read found it: `(seq, file length, valid
/// length)`, ascending. Small enough to keep after the records are gone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalLayout {
    segments: Vec<(u64, u64, u64)>,
}

/// Read every segment in `dir`. A torn record ends replay only in the last
/// segment; in any earlier one it is [`WalError::Gap`]. Record CRCs are
/// checked here; payloads are not copied. Guarded by the same
/// `restart::wal::replay` failpoint as [`read_wal`].
pub fn read_segments(dir: &Path) -> Result<SegmentedContents, WalError> {
    replay_failpoint()?;
    let seqs = list_segments(dir)?;
    let mut out = SegmentedContents::default();
    for (i, &seq) in seqs.iter().enumerate() {
        let file = read_file(&segment_path(dir, seq))?;
        if file.torn && i + 1 < seqs.len() {
            return Err(WalError::Gap { seq });
        }
        out.segments.push((seq, file));
    }
    Ok(out)
}

/// The leaf's log: a directory of segments, each an ordinary WAL file
/// written by a [`WalWriter`]. Appends go to the live (highest) segment;
/// [`Self::rotate`] closes it and starts the next; [`Self::drop_below`]
/// unlinks whole closed segments a checkpoint has covered.
#[derive(Debug)]
pub struct SegmentedWal {
    dir: PathBuf,
    live: WalWriter,
    live_seq: u64,
    /// Closed segments the log still holds: `(seq, bytes)`, ascending.
    closed: Vec<(u64, u64)>,
    /// Closed segments not yet fsynced since they were rotated away from;
    /// the next [`Self::sync`] flushes them with the live one.
    unsynced: Vec<(u64, WalWriter)>,
    /// A rotation created a file the directory has not been fsynced for.
    dir_dirty: bool,
    /// Unlinks of dropped segments still running. Freeing the blocks of a
    /// synced segment a checkpoint interval long takes milliseconds, so
    /// it runs off the caller's (ingest) thread; its error surfaces at the
    /// next [`Self::drop_below`], [`Self::clear`] or
    /// [`Self::wait_unlinked`].
    unlinking: Option<JoinHandle<Result<(), WalError>>>,
}

impl SegmentedWal {
    /// Open (or create) the segment directory. The highest segment becomes
    /// the live one, its torn tail (if any) truncated as by
    /// [`WalWriter::open`]; an empty directory starts at segment 0.
    pub fn open(dir: impl Into<PathBuf>) -> Result<SegmentedWal, WalError> {
        let dir = dir.into();
        let seqs = list_segments(&dir)?;
        let mut segments = Vec::with_capacity(seqs.len());
        for (i, &seq) in seqs.iter().enumerate() {
            let path = segment_path(&dir, seq);
            let len = std::fs::metadata(&path)?.len();
            let valid_len = if i + 1 == seqs.len() {
                resumable_len(&path)?
            } else {
                len
            };
            segments.push((seq, len, valid_len));
        }
        SegmentedWal::reopen(dir, &WalLayout { segments })
    }

    /// [`Self::open`] from what [`read_segments`] already found in `dir`:
    /// the live segment resumes at the valid length that read checked, so
    /// a start that replayed the log never reads it again. The directory
    /// must not have changed since the read.
    pub fn reopen(dir: impl Into<PathBuf>, layout: &WalLayout) -> Result<SegmentedWal, WalError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let (&(live_seq, _, valid_len), closed) =
            layout.segments.split_last().unwrap_or((&(0, 0, 0), &[]));
        Ok(SegmentedWal {
            live: WalWriter::resume(segment_path(&dir, live_seq), valid_len)?,
            dir,
            live_seq,
            closed: closed.iter().map(|&(seq, len, _)| (seq, len)).collect(),
            unsynced: Vec::new(),
            dir_dirty: true,
            unlinking: None,
        })
    }

    /// Append one record to the live segment ([`WalWriter::append`]).
    pub fn append(&mut self, payload: &[u8]) -> Result<(), WalError> {
        self.live.append(payload)
    }

    /// fsync every segment written since the last sync, and the directory
    /// if a rotation added a file to it.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.live.sync()?;
        for (_, w) in &mut self.unsynced {
            w.sync()?;
        }
        self.unsynced.clear();
        if self.dir_dirty {
            File::open(&self.dir)?.sync_all()?;
            self.dir_dirty = false;
        }
        Ok(())
    }

    /// Close the live segment and start the next one. Returns the new
    /// segment's seq: every record appended before this call lies in a
    /// segment below it.
    pub fn rotate(&mut self) -> Result<u64, WalError> {
        let seq = self.live_seq + 1;
        let next = WalWriter::create(segment_path(&self.dir, seq))?;
        let old = std::mem::replace(&mut self.live, next);
        self.closed.push((self.live_seq, old.len_bytes()));
        self.unsynced.push((self.live_seq, old));
        self.live_seq = seq;
        self.dir_dirty = true;
        Ok(seq)
    }

    /// Drop every closed segment below `seq` from the log and unlink them
    /// in the background, oldest first. The live segment is never dropped.
    /// Reports the previous drop's unlink error, if it had one.
    pub fn drop_below(&mut self, seq: u64) -> Result<(), WalError> {
        self.wait_unlinked()?;
        let n = self.closed.partition_point(|&(s, _)| s < seq);
        if n == 0 {
            return Ok(());
        }
        let doomed: Vec<u64> = self.closed.drain(..n).map(|(s, _)| s).collect();
        self.unsynced.retain(|(u, _)| *u >= seq);
        let dir = self.dir.clone();
        self.unlinking = Some(std::thread::spawn(move || {
            doomed.iter().try_for_each(|&s| remove_segment(&dir, s))
        }));
        Ok(())
    }

    /// Wait for the segments [`Self::drop_below`] dropped to be unlinked.
    pub fn wait_unlinked(&mut self) -> Result<(), WalError> {
        match self.unlinking.take() {
            Some(handle) => handle
                .join()
                .unwrap_or_else(|_| Err(std::io::Error::other("segment unlink panicked").into())),
            None => Ok(()),
        }
    }

    /// Drop every record: unlink all segments and start an empty one (the
    /// sequence keeps counting up). Returns once the files are gone.
    pub fn clear(&mut self) -> Result<(), WalError> {
        let seq = self.rotate()?;
        self.drop_below(seq)?;
        self.wait_unlinked()
    }

    /// The seq of the live segment, which the next record lands in.
    pub fn live_seq(&self) -> u64 {
        self.live_seq
    }

    /// Bytes across the segments the log holds, headers included.
    pub fn len_bytes(&self) -> u64 {
        self.closed.iter().map(|&(_, len)| len).sum::<u64>() + self.live.len_bytes()
    }

    /// Seqs of the segments the log holds, ascending (the live one last).
    pub fn seqs(&self) -> Vec<u64> {
        let mut seqs: Vec<u64> = self.closed.iter().map(|&(seq, _)| seq).collect();
        seqs.push(self.live_seq);
        seqs
    }
}

impl Drop for SegmentedWal {
    fn drop(&mut self) {
        let _ = self.wait_unlinked();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("scuba_wal_{tag}_{}.wal", std::process::id()))
    }

    #[test]
    fn round_trips_records_in_order() {
        let _x = scuba_faults::exclusive(); // keep the one-shot replay fault in its test
        let path = tmp("rt");
        let _ = std::fs::remove_file(&path);
        let mut w = WalWriter::open(&path).unwrap();
        w.append(b"alpha").unwrap();
        w.append(b"").unwrap();
        w.append(&[7u8; 4096]).unwrap();
        w.sync().unwrap();
        drop(w);

        let c = read_wal(&path).unwrap();
        assert!(!c.torn);
        assert_eq!(c.records.len(), 3);
        assert_eq!(c.records[0], b"alpha");
        assert_eq!(c.records[1], b"");
        assert_eq!(c.records[2], vec![7u8; 4096]);
        assert_eq!(c.valid_len, c.file_len);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_empty_log() {
        let _x = scuba_faults::exclusive(); // keep the one-shot replay fault in its test
        let c = read_wal(Path::new("/nonexistent/scuba.wal")).unwrap();
        assert!(c.records.is_empty());
        assert!(!c.torn);
    }

    #[test]
    fn torn_tail_stops_at_last_valid_record() {
        let _x = scuba_faults::exclusive(); // keep the one-shot replay fault in its test
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        let mut w = WalWriter::open(&path).unwrap();
        w.append(b"good one").unwrap();
        w.append(b"good two").unwrap();
        drop(w);
        // A crash mid-append: half a record header, then garbage.
        let mut raw = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        raw.write_all(&[0x99, 0x04, 0x00]).unwrap();
        drop(raw);

        let c = read_wal(&path).unwrap();
        assert!(c.torn);
        assert_eq!(c.records.len(), 2);
        assert!(c.valid_len < c.file_len);

        // Reopening truncates the torn tail so appends extend a valid log.
        let mut w = WalWriter::open(&path).unwrap();
        w.append(b"good three").unwrap();
        drop(w);
        let c = read_wal(&path).unwrap();
        assert!(!c.torn);
        assert_eq!(c.records.len(), 3);
        assert_eq!(c.records[2], b"good three");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_crc_stops_replay_cleanly() {
        let _x = scuba_faults::exclusive(); // keep the one-shot replay fault in its test
        let path = tmp("crc");
        let _ = std::fs::remove_file(&path);
        let mut w = WalWriter::open(&path).unwrap();
        w.append(b"kept").unwrap();
        w.append(b"about to be scribbled on").unwrap();
        w.append(b"unreachable after the tear").unwrap();
        drop(w);
        // Flip a payload byte in the middle record.
        let mut bytes = std::fs::read(&path).unwrap();
        let off = WAL_HEADER as usize + WAL_RECORD_HEADER + 4 /* "kept" */ + WAL_RECORD_HEADER + 3;
        bytes[off] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let c = read_wal(&path).unwrap();
        assert!(c.torn);
        // Replay stops at the last valid record; nothing after the tear is
        // trusted, even though the third record's bytes are intact.
        assert_eq!(c.records, vec![b"kept".to_vec()]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn oversized_length_word_is_torn_not_allocated() {
        let _x = scuba_faults::exclusive(); // keep the one-shot replay fault in its test
        let path = tmp("huge");
        let _ = std::fs::remove_file(&path);
        let mut w = WalWriter::open(&path).unwrap();
        w.append(b"ok").unwrap();
        drop(w);
        let mut raw = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
        raw.write_all(&0u32.to_le_bytes()).unwrap();
        drop(raw);
        let c = read_wal(&path).unwrap();
        assert!(c.torn);
        assert_eq!(c.records.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn oversized_append_rejected_at_write_time() {
        let _x = scuba_faults::exclusive(); // keep the one-shot replay fault in its test
        let path = tmp("bigappend");
        let _ = std::fs::remove_file(&path);
        let mut w = WalWriter::open(&path).unwrap();
        w.append(b"fits").unwrap();
        let len_before = w.len_bytes();
        let huge = vec![0u8; MAX_RECORD_LEN + 1];
        assert!(matches!(
            w.append(&huge),
            Err(WalError::RecordTooLarge { len }) if len == MAX_RECORD_LEN + 1
        ));
        // The rejected append left no bytes behind: the log is still a
        // clean prefix the reader accepts in full.
        assert_eq!(w.len_bytes(), len_before);
        drop(w);
        let c = read_wal(&path).unwrap();
        assert!(!c.torn);
        assert_eq!(c.records, vec![b"fits".to_vec()]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_file_is_rewritten_not_replayed() {
        let _x = scuba_faults::exclusive(); // keep the one-shot replay fault in its test
        let path = tmp("foreign");
        std::fs::write(&path, b"this is not a wal at all, just bytes").unwrap();
        let c = read_wal(&path).unwrap();
        assert!(c.torn);
        assert!(c.records.is_empty());
        let mut w = WalWriter::open(&path).unwrap();
        w.append(b"fresh").unwrap();
        drop(w);
        let c = read_wal(&path).unwrap();
        assert!(!c.torn);
        assert_eq!(c.records, vec![b"fresh".to_vec()]);
        let _ = std::fs::remove_file(&path);
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("scuba_walseg_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn all_records(dir: &Path) -> Vec<Vec<u8>> {
        read_segments(dir)
            .unwrap()
            .records()
            .map(|(_, record)| record)
            .map(<[u8]>::to_vec)
            .collect()
    }

    #[test]
    fn segments_rotate_drop_and_read_in_seq_order() {
        let _x = scuba_faults::exclusive(); // keep the one-shot replay fault in its test
        let dir = tmp_dir("rot");
        let mut w = SegmentedWal::open(&dir).unwrap();
        assert_eq!(w.seqs(), vec![0]);
        w.append(b"a").unwrap();
        assert_eq!(w.rotate().unwrap(), 1);
        w.append(b"b").unwrap();
        assert_eq!(w.rotate().unwrap(), 2);
        w.append(b"c").unwrap();
        w.sync().unwrap();
        assert_eq!(w.seqs(), vec![0, 1, 2]);
        assert_eq!(list_segments(&dir).unwrap(), vec![0, 1, 2]);
        assert_eq!(
            w.len_bytes(),
            3 * (WAL_HEADER + WAL_RECORD_HEADER as u64 + 1)
        );
        assert_eq!(
            all_records(&dir),
            vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]
        );

        // Unlinks whole closed segments below the cut, never the live one.
        w.drop_below(2).unwrap();
        w.wait_unlinked().unwrap();
        assert_eq!(list_segments(&dir).unwrap(), vec![2]);
        assert_eq!(all_records(&dir), vec![b"c".to_vec()]);
        w.drop_below(u64::MAX).unwrap();
        assert_eq!(w.seqs(), vec![2]);
        drop(w);

        // Reopening appends to the highest segment.
        let mut w = SegmentedWal::open(&dir).unwrap();
        w.append(b"d").unwrap();
        assert_eq!(w.seqs(), vec![2]);
        assert_eq!(all_records(&dir), vec![b"c".to_vec(), b"d".to_vec()]);

        // Clear empties the log; the sequence keeps counting up.
        w.clear().unwrap();
        assert_eq!(w.seqs(), vec![3]);
        assert_eq!(w.len_bytes(), WAL_HEADER);
        assert!(all_records(&dir).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Reopening from a read's layout is `open` without the second read:
    /// same segments, same lengths, the torn tail cut, appends after the
    /// last valid record.
    #[test]
    fn reopen_from_the_read_layout_matches_open() {
        let _x = scuba_faults::exclusive(); // keep the one-shot replay fault in its test
        let dir = tmp_dir("reopen");
        let mut w = SegmentedWal::open(&dir).unwrap();
        w.append(b"first").unwrap();
        w.rotate().unwrap();
        w.append(b"second").unwrap();
        w.append(b"third").unwrap();
        drop(w);
        let live = segment_path(&dir, 1);
        let len = std::fs::metadata(&live).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&live)
            .unwrap()
            .set_len(len - 2)
            .unwrap();

        let contents = read_segments(&dir).unwrap();
        assert!(contents.torn());
        let layout = contents.layout();
        let opened_len = SegmentedWal::open(&dir).unwrap().len_bytes();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&live)
            .unwrap()
            .set_len(len - 2)
            .unwrap();
        let mut w = SegmentedWal::reopen(&dir, &layout).unwrap();
        assert_eq!(w.seqs(), vec![0, 1]);
        assert_eq!(w.len_bytes(), opened_len);
        w.append(b"fourth").unwrap();
        drop(w);
        assert_eq!(
            all_records(&dir),
            vec![b"first".to_vec(), b"second".to_vec(), b"fourth".to_vec()]
        );
        assert!(!read_segments(&dir).unwrap().torn());

        // An empty directory's layout reopens as a fresh segment 0.
        let empty = tmp_dir("reopen_empty");
        let layout = read_segments(&empty).unwrap().layout();
        let w = SegmentedWal::reopen(&empty, &layout).unwrap();
        assert_eq!((w.seqs(), w.len_bytes()), (vec![0], WAL_HEADER));
        drop(w);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&empty);
    }

    #[test]
    fn torn_record_ends_replay_only_in_the_last_segment() {
        let _x = scuba_faults::exclusive(); // keep the one-shot replay fault in its test
        let dir = tmp_dir("torn");
        let mut w = SegmentedWal::open(&dir).unwrap();
        w.append(b"first").unwrap();
        w.rotate().unwrap();
        w.append(b"second").unwrap();
        w.append(b"third").unwrap();
        drop(w);
        let tear = |seq: u64| {
            let path = segment_path(&dir, seq);
            let len = std::fs::metadata(&path).unwrap().len();
            let f = OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(len - 2).unwrap();
        };

        // Last segment torn: the durable prefix replays.
        tear(1);
        assert!(read_segments(&dir).unwrap().torn());
        assert_eq!(
            all_records(&dir),
            vec![b"first".to_vec(), b"second".to_vec()]
        );

        // Earlier segment torn: a gap, not a shorter log.
        tear(0);
        assert!(matches!(read_segments(&dir), Err(WalError::Gap { seq: 0 })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_file_log_is_adopted_as_segment_zero() {
        let _x = scuba_faults::exclusive(); // keep the one-shot replay fault in its test
        let dir = tmp_dir("adopt");
        let mut w = SegmentedWal::open(&dir).unwrap();
        w.append(b"stale").unwrap();
        w.rotate().unwrap();
        drop(w);
        let file = dir.with_extension("wal");
        let mut single = WalWriter::open(&file).unwrap();
        single.append(b"newer").unwrap();
        drop(single);

        adopt_single_file(&dir, &file).unwrap();
        assert!(!file.exists());
        assert_eq!(list_segments(&dir).unwrap(), vec![0]);
        assert_eq!(all_records(&dir), vec![b"newer".to_vec()]);
        adopt_single_file(&dir, &file).unwrap(); // nothing left to adopt
        assert_eq!(all_records(&dir), vec![b"newer".to_vec()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failpoints_guard_append_fsync_replay() {
        let _x = scuba_faults::exclusive();
        scuba_faults::clear_all();
        let path = tmp("fp");
        let _ = std::fs::remove_file(&path);
        let mut w = WalWriter::open(&path).unwrap();
        w.append(b"before").unwrap();

        scuba_faults::configure("restart::wal::append", "error@1").unwrap();
        assert!(matches!(
            w.append(b"wounded"),
            Err(WalError::Injected {
                site: "restart::wal::append"
            })
        ));
        w.append(b"after").unwrap(); // one-shot: next append succeeds

        scuba_faults::configure("restart::wal::fsync", "error@1").unwrap();
        assert!(matches!(
            w.sync(),
            Err(WalError::Injected {
                site: "restart::wal::fsync"
            })
        ));
        w.sync().unwrap();
        drop(w);

        scuba_faults::configure("restart::wal::replay", "error@1").unwrap();
        assert!(matches!(
            read_wal(&path),
            Err(WalError::Injected {
                site: "restart::wal::replay"
            })
        ));
        let c = read_wal(&path).unwrap();
        assert_eq!(c.records.len(), 2); // the wounded append left no trace
        scuba_faults::clear_all();
        let _ = std::fs::remove_file(&path);
    }
}
