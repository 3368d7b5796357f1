//! The §6 future-work disk format: row block images on disk.
//!
//! "One large overhead in Scuba's disk recovery is translating from the
//! disk format to the heap memory format. ... We are planning to use the
//! shared memory format described in this paper as the disk format,
//! instead. We expect that the much simpler translation to heap memory
//! format will speed up disk recovery significantly."
//!
//! A [`FastBackup`] stores each table as a stream of serialized
//! [`RowBlock`] images — the same bytes the shared-memory path copies —
//! so recovery is read + checksum-validate + adopt, with no row-by-row
//! rebuild. Experiment E10 compares this against the row format.
//!
//! A [`ColdStore`] is the incremental sibling backing the tiered-storage
//! cold tier: per-table append-only files of TLV-framed block images
//! (reusing `scuba_restart::framing`, each frame CRC'd), served back via
//! read-only [`ColdMap`] mmaps so a demoted block's columns stay
//! disk-resident and are scanned in place — the §6 "shared memory format
//! on disk" put to work as a residency tier rather than just a recovery
//! format.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use scuba_checksum::crc32;
use scuba_columnstore::{ColdRef, LeafMap, RowBlock, Table};
use scuba_restart::framing::{decode_header_v2, encode_header_v2, FRAME_HEADER_V2, TAG_STORE_BASE};
use scuba_restart::traits::ChunkDesc;

use crate::backup::RecoveryStats;
use crate::error::{DiskError, DiskResult};
use crate::throttle::Throttle;

/// File extension for block-image table files.
const BLOCKS_EXT: &str = "blocks";

/// File extension for cold-tier append files.
const COLD_EXT: &str = "cold";

/// TLV tag of a cold block-image frame inside a `.cold` file.
pub const TAG_COLD_BLOCK: u16 = TAG_STORE_BASE;

/// Format version of the cold block-image frame payload.
pub const COLD_BLOCK_VERSION: u16 = 1;

/// A leaf backup in the fast (shm-image) format.
#[derive(Debug)]
pub struct FastBackup {
    root: PathBuf,
}

fn stem(table: &str) -> DiskResult<String> {
    if table.is_empty()
        || table.len() > 200
        || !table
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return Err(DiskError::BadTableName(table.to_owned()));
    }
    Ok(table.to_owned())
}

impl FastBackup {
    /// Open (creating if needed) the backup directory.
    pub fn open(root: impl Into<PathBuf>) -> DiskResult<FastBackup> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| DiskError::io(&root, e))?;
        Ok(FastBackup { root })
    }

    /// The backup directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path(&self, table: &str) -> DiskResult<PathBuf> {
        Ok(self.root.join(format!("{}.{BLOCKS_EXT}", stem(table)?)))
    }

    /// Write a table's sealed blocks as one image file (atomic replace via
    /// a temp file so readers never see a half-written file).
    pub fn write_table(&self, table: &Table) -> DiskResult<u64> {
        let path = self.path(table.name())?;
        let tmp = path.with_extension("tmp");
        let mut buf = Vec::with_capacity(table.encoded_bytes() + 64);
        for block in table.blocks() {
            block.serialize(&mut buf);
        }
        let mut f = File::create(&tmp).map_err(|e| DiskError::io(&tmp, e))?;
        f.write_all(&buf).map_err(|e| DiskError::io(&tmp, e))?;
        f.sync_data().map_err(|e| DiskError::io(&tmp, e))?;
        fs::rename(&tmp, &path).map_err(|e| DiskError::io(&path, e))?;
        Ok(buf.len() as u64)
    }

    /// Tables present on disk.
    pub fn tables(&self) -> DiskResult<Vec<String>> {
        let mut names = Vec::new();
        let entries = fs::read_dir(&self.root).map_err(|e| DiskError::io(&self.root, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| DiskError::io(&self.root, e))?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some(BLOCKS_EXT) {
                if let Some(s) = path.file_stem().and_then(|s| s.to_str()) {
                    names.push(s.to_owned());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    /// Recover every table by adopting block images directly — the cheap
    /// translation the paper anticipates. Read and "translate" (validate +
    /// adopt) phases are timed separately for the E10 comparison.
    pub fn recover(
        &self,
        now: i64,
        throttle: Option<&Throttle>,
    ) -> DiskResult<(LeafMap, RecoveryStats)> {
        let mut map = LeafMap::new();
        let mut stats = RecoveryStats::default();
        for table in self.tables()? {
            let path = self.path(&table)?;

            let read_start = Instant::now();
            let mut bytes = Vec::new();
            File::open(&path)
                .map_err(|e| DiskError::io(&path, e))?
                .read_to_end(&mut bytes)
                .map_err(|e| DiskError::io(&path, e))?;
            if let Some(t) = throttle {
                t.consume(bytes.len() as u64);
            }
            stats.bytes_read += bytes.len() as u64;
            stats.read_duration += read_start.elapsed();

            let translate_start = Instant::now();
            let mut blocks = Vec::new();
            let mut pos = 0usize;
            while pos < bytes.len() {
                let (block, next) = RowBlock::deserialize(&bytes, pos).map_err(DiskError::Store)?;
                stats.rows += block.row_count() as u64;
                blocks.push(Arc::new(block));
                pos = next;
            }
            stats.translate_duration += translate_start.elapsed();
            map.insert(Table::from_blocks(&table, blocks, now));
            stats.tables += 1;
        }
        Ok((map, stats))
    }
}

/// A read-only mmap of one cold file. Implements `AsRef<[u8]>` so it can
/// back `ColumnBytes::Mapped` columns exactly like a shm `SegmentView`:
/// queries scan the disk-resident bytes in place, and the mapping stays
/// alive until the last block referencing it drops.
///
/// The mapping length is fixed at open; appends that grow the file are
/// invisible to an existing map, so each demotion takes a fresh map over
/// the grown file.
pub struct ColdMap {
    addr: *mut libc::c_void,
    /// Bytes actually mapped (page-rounded up from `len`, at least 1).
    map_len: usize,
    /// Logical file length exposed through `as_ref`.
    len: usize,
    path: PathBuf,
}

// The mapping is read-only (PROT_READ) for its whole lifetime.
unsafe impl Send for ColdMap {}
unsafe impl Sync for ColdMap {}

impl AsRef<[u8]> for ColdMap {
    fn as_ref(&self) -> &[u8] {
        unsafe { std::slice::from_raw_parts(self.addr as *const u8, self.len) }
    }
}

impl Drop for ColdMap {
    fn drop(&mut self) {
        unsafe {
            libc::munmap(self.addr, self.map_len);
        }
    }
}

impl std::fmt::Debug for ColdMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColdMap")
            .field("path", &self.path)
            .field("len", &self.len)
            .finish()
    }
}

impl ColdMap {
    /// mmap `path` read-only in its entirety.
    ///
    /// Failpoint: `diskstore::fastformat::mmap` — an injected mmap fault,
    /// the shape a flaky disk or exhausted vm.max_map_count produces.
    pub fn open(path: &Path) -> DiskResult<ColdMap> {
        if scuba_faults::check("diskstore::fastformat::mmap").is_some() {
            return Err(DiskError::Io {
                path: path.to_owned(),
                source: std::io::Error::other("injected fault at 'diskstore::fastformat::mmap'"),
            });
        }
        use std::os::unix::io::AsRawFd;
        let file = File::open(path).map_err(|e| DiskError::io(path, e))?;
        let len = file.metadata().map_err(|e| DiskError::io(path, e))?.len() as usize;
        let map_len = len.max(1);
        let addr = unsafe {
            libc::mmap(
                std::ptr::null_mut(),
                map_len,
                libc::PROT_READ,
                libc::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if addr == libc::MAP_FAILED {
            return Err(DiskError::Io {
                path: path.to_owned(),
                source: std::io::Error::last_os_error(),
            });
        }
        Ok(ColdMap {
            addr,
            map_len,
            len,
            path: path.to_owned(),
        })
    }

    /// Logical length of the mapped file at open time.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the file was empty at open time.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The mapped file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The cold tier: per-table append-only files of TLV-framed row block
/// images under one directory, plus the mmap loader that serves them
/// back. The leaf's residency manager appends on demotion and maps on
/// attach; the framing makes each file self-describing so recovery can
/// validate (and GC) cold files without any external index.
#[derive(Debug)]
pub struct ColdStore {
    root: PathBuf,
}

impl ColdStore {
    /// Open (creating if needed) the cold-tier directory.
    pub fn open(root: impl Into<PathBuf>) -> DiskResult<ColdStore> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| DiskError::io(&root, e))?;
        Ok(ColdStore { root })
    }

    /// The cold-tier directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The cold file a table's demoted blocks land in.
    pub fn path(&self, table: &str) -> DiskResult<PathBuf> {
        Ok(self.root.join(format!("{}.{COLD_EXT}", stem(table)?)))
    }

    /// Append one sealed block's image to `table`'s cold file as a
    /// CRC'd TLV frame, durably (`sync_data` before returning). Returns
    /// the [`ColdRef`] locating the image so the caller can re-attach it
    /// via [`ColdStore::map`] + `RowBlock::deserialize_mapped`.
    ///
    /// Demotion I/O is paced through `throttle` when given, keeping the
    /// cold tier's writes off the ingest/query hot path's disk budget.
    ///
    /// Failpoint: `diskstore::fastformat::write` — fails the append
    /// before any bytes reach the file (the block stays hot; no torn
    /// frame is left behind because the header+payload are written in
    /// one buffered write only after the failpoint).
    pub fn append_block(
        &self,
        table: &str,
        block: &RowBlock,
        throttle: Option<&Throttle>,
    ) -> DiskResult<ColdRef> {
        let path = self.path(table)?;
        if scuba_faults::check("diskstore::fastformat::write").is_some() {
            return Err(DiskError::Io {
                path,
                source: std::io::Error::other("injected fault at 'diskstore::fastformat::write'"),
            });
        }
        let mut image = Vec::with_capacity(block.image_bytes());
        block.serialize(&mut image);
        let header = encode_header_v2(
            ChunkDesc {
                tag: TAG_COLD_BLOCK,
                version: COLD_BLOCK_VERSION,
                flags: 0,
            },
            image.len() as u64,
            crc32(&image),
        );
        let mut file = OpenOptions::new()
            .append(true)
            .create(true)
            .open(&path)
            .map_err(|e| DiskError::io(&path, e))?;
        let frame_offset = file.metadata().map_err(|e| DiskError::io(&path, e))?.len();
        let mut frame = Vec::with_capacity(FRAME_HEADER_V2 + image.len());
        frame.extend_from_slice(&header);
        frame.extend_from_slice(&image);
        file.write_all(&frame)
            .map_err(|e| DiskError::io(&path, e))?;
        file.sync_data().map_err(|e| DiskError::io(&path, e))?;
        if let Some(t) = throttle {
            t.consume(frame.len() as u64);
        }
        Ok(ColdRef {
            path,
            offset: frame_offset + FRAME_HEADER_V2 as u64,
            len: image.len() as u64,
        })
    }

    /// mmap a cold file read-only (see [`ColdMap::open`] for the
    /// failpoint). `path` is the one a [`ColdRef`] carries.
    pub fn map(&self, path: &Path) -> DiskResult<Arc<ColdMap>> {
        Ok(Arc::new(ColdMap::open(path)?))
    }

    /// Tables that currently have a cold file.
    pub fn tables(&self) -> DiskResult<Vec<String>> {
        let mut names = Vec::new();
        let entries = fs::read_dir(&self.root).map_err(|e| DiskError::io(&self.root, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| DiskError::io(&self.root, e))?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some(COLD_EXT) {
                if let Some(s) = path.file_stem().and_then(|s| s.to_str()) {
                    names.push(s.to_owned());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    /// Delete `table`'s cold file, if any (idempotent). Called when a
    /// table no longer holds cold blocks — expiry, rewrite, or promotion
    /// of its last cold block — so kill waves cannot strand files for
    /// tables that no longer reference them.
    pub fn remove_table(&self, table: &str) -> DiskResult<()> {
        let path = self.path(table)?;
        match fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(DiskError::io(&path, e)),
        }
    }

    /// Delete every cold file (the disk-recovery wipe: after a full
    /// rebuild from the row-format log nothing references the cold tier).
    pub fn wipe(&self) -> DiskResult<()> {
        for table in self.tables()? {
            self.remove_table(&table)?;
        }
        Ok(())
    }

    /// Walk `table`'s cold file and return `(image_offset, image_len)`
    /// for every frame, verifying each frame's CRC. Used by tests, the
    /// chaos orphan check, and anything needing to audit a cold file
    /// without attaching it.
    pub fn frames(&self, table: &str) -> DiskResult<Vec<(u64, u64)>> {
        let path = self.path(table)?;
        let mut bytes = Vec::new();
        File::open(&path)
            .map_err(|e| DiskError::io(&path, e))?
            .read_to_end(&mut bytes)
            .map_err(|e| DiskError::io(&path, e))?;
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos < bytes.len() {
            if pos + FRAME_HEADER_V2 > bytes.len() {
                return Err(DiskError::Format {
                    path,
                    offset: pos as u64,
                    reason: "torn cold frame header".into(),
                });
            }
            let (desc, len, crc) = decode_header_v2(&bytes[pos..pos + FRAME_HEADER_V2]);
            let payload_start = pos + FRAME_HEADER_V2;
            let payload_end = payload_start + len as usize;
            if desc.tag != TAG_COLD_BLOCK || payload_end > bytes.len() {
                return Err(DiskError::Format {
                    path,
                    offset: pos as u64,
                    reason: format!("bad cold frame (tag {}, len {len})", desc.tag),
                });
            }
            if crc32(&bytes[payload_start..payload_end]) != crc {
                return Err(DiskError::Format {
                    path,
                    offset: pos as u64,
                    reason: "cold frame CRC mismatch".into(),
                });
            }
            out.push((payload_start as u64, len));
            pos = payload_end;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scuba_columnstore::{Row, Value};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "scuba_fast_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_table(name: &str, rows: i64) -> Table {
        let mut t = Table::new(name, 0);
        for i in 0..rows {
            t.append(&Row::at(i).with("v", i).with("s", format!("x{}", i % 9)), 0)
                .unwrap();
        }
        t.seal(0).unwrap();
        t
    }

    #[test]
    fn write_recover_round_trip() {
        let dir = tmpdir("rt");
        let b = FastBackup::open(&dir).unwrap();
        let t = sample_table("events", 500);
        let written = b.write_table(&t).unwrap();
        assert!(written > 0);

        let (map, stats) = b.recover(1, None).unwrap();
        assert_eq!(stats.tables, 1);
        assert_eq!(stats.rows, 500);
        let rt = map.get("events").unwrap();
        assert_eq!(rt.row_count(), 500);
        assert_eq!(rt.blocks()[0].cell(7, "v").unwrap(), Value::Int(7));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_replaces_atomically() {
        let dir = tmpdir("rw");
        let b = FastBackup::open(&dir).unwrap();
        b.write_table(&sample_table("t", 10)).unwrap();
        b.write_table(&sample_table("t", 20)).unwrap();
        let (map, _) = b.recover(0, None).unwrap();
        assert_eq!(map.get("t").unwrap().row_count(), 20);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_image_is_an_error_not_a_panic() {
        let dir = tmpdir("corrupt");
        let b = FastBackup::open(&dir).unwrap();
        b.write_table(&sample_table("t", 50)).unwrap();
        let path = dir.join("t.blocks");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(b.recover(0, None).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn multiple_tables_sorted() {
        let dir = tmpdir("multi");
        let b = FastBackup::open(&dir).unwrap();
        b.write_table(&sample_table("zz", 1)).unwrap();
        b.write_table(&sample_table("aa", 1)).unwrap();
        assert_eq!(b.tables().unwrap(), vec!["aa", "zz"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cold_append_map_round_trip() {
        let dir = tmpdir("cold_rt");
        let store = ColdStore::open(&dir).unwrap();
        let t = sample_table("events", 300);
        let block = Arc::clone(&t.blocks()[0]);

        let r1 = store.append_block("events", &block, None).unwrap();
        let r2 = store.append_block("events", &block, None).unwrap();
        assert_eq!(r1.offset, FRAME_HEADER_V2 as u64);
        assert!(r2.offset > r1.offset);

        let map = store.map(&r1.path).unwrap();
        let backing: Arc<dyn AsRef<[u8]> + Send + Sync> = map;
        for r in [&r1, &r2] {
            let (cold, end) = RowBlock::deserialize_mapped(&backing, r.offset as usize).unwrap();
            assert_eq!(end as u64, r.offset + r.len);
            assert_eq!(&cold, &*block);
            cold.verify_columns().unwrap();
            assert_eq!(cold.cell(7, "v").unwrap(), Value::Int(7));
        }
        assert_eq!(store.frames("events").unwrap().len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cold_frames_detect_corruption() {
        let dir = tmpdir("cold_corrupt");
        let store = ColdStore::open(&dir).unwrap();
        let t = sample_table("t", 100);
        let r = store.append_block("t", &t.blocks()[0], None).unwrap();
        let mut bytes = fs::read(&r.path).unwrap();
        let mid = r.offset as usize + r.len as usize / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&r.path, &bytes).unwrap();
        assert!(matches!(store.frames("t"), Err(DiskError::Format { .. })));
        // The flip is caught no later than the deferred column CRC check:
        // either the structural parse rejects it, or verify_columns does.
        let backing: Arc<dyn AsRef<[u8]> + Send + Sync> = store.map(&r.path).unwrap();
        let caught = match RowBlock::deserialize_mapped(&backing, r.offset as usize) {
            Err(_) => true,
            Ok((block, _)) => block.verify_columns().is_err(),
        };
        assert!(caught, "corruption slipped past both checks");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cold_remove_and_wipe() {
        let dir = tmpdir("cold_gc");
        let store = ColdStore::open(&dir).unwrap();
        let t = sample_table("a", 10);
        store.append_block("a", &t.blocks()[0], None).unwrap();
        store.append_block("b", &t.blocks()[0], None).unwrap();
        assert_eq!(store.tables().unwrap(), vec!["a", "b"]);
        store.remove_table("a").unwrap();
        store.remove_table("a").unwrap(); // idempotent
        assert_eq!(store.tables().unwrap(), vec!["b"]);
        store.wipe().unwrap();
        assert!(store.tables().unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cold_throttle_paces_demotion() {
        let dir = tmpdir("cold_throttle");
        let store = ColdStore::open(&dir).unwrap();
        let t = sample_table("t", 200);
        let throttle = Throttle::new(u64::MAX / 2);
        store
            .append_block("t", &t.blocks()[0], Some(&throttle))
            .unwrap();
        assert!(throttle.consumed() > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn strict_names_for_fast_format() {
        let dir = tmpdir("strict");
        let b = FastBackup::open(&dir).unwrap();
        assert!(b.write_table(&sample_table("ok_name", 1)).is_ok());
        let t = sample_table("ok", 1);
        let _ = t;
        assert!(matches!(
            b.path("has space"),
            Err(DiskError::BadTableName(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
