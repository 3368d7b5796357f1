//! The leaf metadata region (Figure 4, §4.2), extended to a
//! self-describing, evolvable format.
//!
//! "Each leaf has a unique hard coded location in shared memory for its
//! metadata. In that location, the leaf stores a valid bit, a layout
//! version number, and pointers to any shared memory segments it has
//! allocated. There is one segment per table. The layout version number
//! indicates whether the shared memory layout has changed; note that the
//! heap memory layout can change independently of the shared memory
//! layout."
//!
//! The paper disables the fast restart entirely whenever the layout
//! version changes. This region deliberately diverges: instead of one
//! global version int, v2 stores a **writer version** and a **minimum
//! reader version** (so a newer reader can accept an older image, and an
//! older reader knows when it must not), plus a per-table format
//! descriptor (format version + flags per segment) so incompatibility is
//! judged — and fallen back from — per table rather than per leaf.
//!
//! The valid bit is the protocol's commit point: shutdown creates the
//! metadata with the bit **false**, copies everything, syncs, and only
//! then sets it **true** (Figure 6). Restore checks it first, and flips it
//! back to false before consuming the data so an interrupted restore
//! re-runs as a disk recovery (Figure 7).
//!
//! # Region layouts
//!
//! The word at offset 4 discriminates the two layouts: exactly `1` means
//! the legacy v1 region, `>= 2` means the self-describing v2 region.
//!
//! v1 (legacy; still readable, writable via [`LeafMetadata::create_legacy_v1`]):
//!
//! ```text
//! 0  magic u32 ("SLMD")   4 layout version u32 (== 1)   8 valid u32
//! 12 segment count u32    16 crc32 of name region
//! 20 name region: per segment u16 length + UTF-8 name bytes
//! ```
//!
//! v2 (current):
//!
//! ```text
//! 0  magic u32 ("SLMD")   4 writer version u32 (>= 2)
//! 8  min reader version u32   12 valid u32
//! 16 entry count u32      20 crc32 of entry region
//! 24 entry region: per segment
//!      u16 name length + UTF-8 name bytes
//!      u32 table format version + u32 flags
//! ```
//!
//! The CRC covers the entry region only, so flipping the valid bit does
//! not require recomputing it.

use crate::checksum::crc32;
use crate::error::{ShmError, ShmResult};
use crate::namespace::ShmNamespace;
use crate::segment::ShmSegment;

/// "SLMD" little-endian.
pub const META_MAGIC: u32 = 0x444D_4C53;

/// The legacy region layout's version word (and only legal value for it).
pub const LEGACY_V1_VERSION: u32 = 1;

const HEADER_V1: usize = 20;
const VALID_OFFSET_V1: usize = 8;
const HEADER_V2: usize = 24;
const VALID_OFFSET_V2: usize = 12;

/// One registered table segment: its shm name plus the format descriptor
/// the writer recorded for it (v2 regions; v1 regions report the defaults
/// `format_version = 1`, `flags = 0`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentEntry {
    /// Shared-memory object name of the table segment.
    pub name: String,
    /// Format version of the unit stream inside the segment.
    pub format_version: u32,
    /// Per-table flags (reserved; readers must tolerate unknown bits).
    pub flags: u32,
}

impl SegmentEntry {
    /// Entry with the legacy defaults for a v1 image.
    pub fn legacy(name: String) -> SegmentEntry {
        SegmentEntry {
            name,
            format_version: 1,
            flags: 0,
        }
    }
}

/// Decoded metadata contents (either region layout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetadataContents {
    /// Version of the writer that produced the image. Legacy v1 regions
    /// decode as `1`.
    pub writer_version: u32,
    /// Oldest reader version that can still consume this image. Legacy v1
    /// regions decode as `1`.
    pub min_reader_version: u32,
    /// Whether the shared-memory state is usable for recovery.
    pub valid: bool,
    /// Registered table segments, table order.
    pub segments: Vec<SegmentEntry>,
}

impl MetadataContents {
    /// Whether this image uses the legacy v1 region + bare chunk framing.
    pub fn is_legacy_v1(&self) -> bool {
        self.writer_version == LEGACY_V1_VERSION
    }

    /// Segment names in table order (convenience for callers that do not
    /// care about per-table descriptors).
    pub fn segment_names(&self) -> Vec<String> {
        self.segments.iter().map(|s| s.name.clone()).collect()
    }
}

/// Handle to a leaf's metadata segment.
#[derive(Debug)]
pub struct LeafMetadata {
    segment: ShmSegment,
}

fn encode_v1(layout_version: u32, valid: bool, segments: &[SegmentEntry]) -> Vec<u8> {
    let mut name_region = Vec::new();
    for e in segments {
        name_region.extend_from_slice(&(e.name.len() as u16).to_le_bytes());
        name_region.extend_from_slice(e.name.as_bytes());
    }
    let mut buf = Vec::with_capacity(HEADER_V1 + name_region.len());
    buf.extend_from_slice(&META_MAGIC.to_le_bytes());
    buf.extend_from_slice(&layout_version.to_le_bytes());
    buf.extend_from_slice(&(valid as u32).to_le_bytes());
    buf.extend_from_slice(&(segments.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(&name_region).to_le_bytes());
    buf.extend_from_slice(&name_region);
    buf
}

fn encode_v2(
    writer_version: u32,
    min_reader_version: u32,
    valid: bool,
    segments: &[SegmentEntry],
) -> Vec<u8> {
    debug_assert!(
        writer_version >= 2,
        "v2 regions require writer_version >= 2"
    );
    let mut entry_region = Vec::new();
    for e in segments {
        entry_region.extend_from_slice(&(e.name.len() as u16).to_le_bytes());
        entry_region.extend_from_slice(e.name.as_bytes());
        entry_region.extend_from_slice(&e.format_version.to_le_bytes());
        entry_region.extend_from_slice(&e.flags.to_le_bytes());
    }
    let mut buf = Vec::with_capacity(HEADER_V2 + entry_region.len());
    buf.extend_from_slice(&META_MAGIC.to_le_bytes());
    buf.extend_from_slice(&writer_version.to_le_bytes());
    buf.extend_from_slice(&min_reader_version.to_le_bytes());
    buf.extend_from_slice(&(valid as u32).to_le_bytes());
    buf.extend_from_slice(&(segments.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(&entry_region).to_le_bytes());
    buf.extend_from_slice(&entry_region);
    buf
}

fn encode(contents: &MetadataContents) -> Vec<u8> {
    if contents.is_legacy_v1() {
        encode_v1(LEGACY_V1_VERSION, contents.valid, &contents.segments)
    } else {
        encode_v2(
            contents.writer_version,
            contents.min_reader_version,
            contents.valid,
            &contents.segments,
        )
    }
}

impl LeafMetadata {
    /// Create a v2 metadata region with the valid bit **false** (the first
    /// line of the Figure 6 shutdown procedure). Fails if it already
    /// exists; callers unlink stale state first. `writer_version` must be
    /// at least 2; use [`LeafMetadata::create_legacy_v1`] to emit the old
    /// region layout.
    pub fn create(
        ns: &ShmNamespace,
        writer_version: u32,
        min_reader_version: u32,
    ) -> ShmResult<LeafMetadata> {
        if writer_version < 2 {
            return Err(ShmError::Corrupt {
                name: ns.metadata_name(),
                reason: format!(
                    "v2 metadata requires writer_version >= 2 (got {}); \
                     use create_legacy_v1 for the old layout",
                    writer_version
                ),
            });
        }
        let bytes = encode_v2(writer_version, min_reader_version, false, &[]);
        let mut segment = ShmSegment::create(&ns.metadata_name(), bytes.len())?;
        segment.as_mut_slice().copy_from_slice(&bytes);
        segment.sync()?;
        Ok(LeafMetadata { segment })
    }

    /// Create a metadata region in the **legacy v1 layout** (one global
    /// layout version, no per-table descriptors). Only the old-writer
    /// simulation path and fixture generators use this; the production
    /// shutdown path always writes v2.
    pub fn create_legacy_v1(ns: &ShmNamespace) -> ShmResult<LeafMetadata> {
        let bytes = encode_v1(LEGACY_V1_VERSION, false, &[]);
        let mut segment = ShmSegment::create(&ns.metadata_name(), bytes.len())?;
        segment.as_mut_slice().copy_from_slice(&bytes);
        segment.sync()?;
        Ok(LeafMetadata { segment })
    }

    /// Open an existing metadata region (the first step of restore).
    pub fn open(ns: &ShmNamespace) -> ShmResult<LeafMetadata> {
        let segment = ShmSegment::open(&ns.metadata_name())?;
        let meta = LeafMetadata { segment };
        meta.read()?; // validate eagerly
        Ok(meta)
    }

    /// Decode and validate the region (either layout).
    pub fn read(&self) -> ShmResult<MetadataContents> {
        let buf = self.segment.as_slice();
        let name = self.segment.name();
        let corrupt = |reason: &str| ShmError::Corrupt {
            name: name.to_owned(),
            reason: reason.to_owned(),
        };
        if buf.len() < HEADER_V1 {
            return Err(corrupt("metadata shorter than header"));
        }
        let u32_at = |off: usize| u32::from_le_bytes(buf[off..off + 4].try_into().unwrap());
        if u32_at(0) != META_MAGIC {
            return Err(corrupt("bad metadata magic"));
        }
        let version_word = u32_at(4);
        if version_word == 0 {
            return Err(corrupt("metadata version word is zero"));
        }
        if version_word == LEGACY_V1_VERSION {
            return self.read_v1(buf, &corrupt);
        }
        self.read_v2(buf, &corrupt)
    }

    fn read_v1(
        &self,
        buf: &[u8],
        corrupt: &dyn Fn(&str) -> ShmError,
    ) -> ShmResult<MetadataContents> {
        let u32_at = |off: usize| u32::from_le_bytes(buf[off..off + 4].try_into().unwrap());
        let valid = match u32_at(VALID_OFFSET_V1) {
            0 => false,
            1 => true,
            _ => return Err(corrupt("valid bit is neither 0 nor 1")),
        };
        let count = u32_at(12) as usize;
        let stored_crc = u32_at(16);
        let name_region = &buf[HEADER_V1..];
        if crc32(name_region) != stored_crc {
            return Err(corrupt("metadata name region checksum mismatch"));
        }
        let mut segments = Vec::with_capacity(count.min(1 << 16));
        let mut pos = 0usize;
        for _ in 0..count {
            if pos + 2 > name_region.len() {
                return Err(corrupt("metadata name region truncated"));
            }
            let len = u16::from_le_bytes(name_region[pos..pos + 2].try_into().unwrap()) as usize;
            pos += 2;
            if pos + len > name_region.len() {
                return Err(corrupt("metadata name runs past region"));
            }
            let s = std::str::from_utf8(&name_region[pos..pos + len])
                .map_err(|_| corrupt("metadata name is not UTF-8"))?;
            segments.push(SegmentEntry::legacy(s.to_owned()));
            pos += len;
        }
        if pos != name_region.len() {
            return Err(corrupt("metadata name region has trailing bytes"));
        }
        Ok(MetadataContents {
            writer_version: LEGACY_V1_VERSION,
            min_reader_version: LEGACY_V1_VERSION,
            valid,
            segments,
        })
    }

    fn read_v2(
        &self,
        buf: &[u8],
        corrupt: &dyn Fn(&str) -> ShmError,
    ) -> ShmResult<MetadataContents> {
        if buf.len() < HEADER_V2 {
            return Err(corrupt("metadata shorter than v2 header"));
        }
        let u32_at = |off: usize| u32::from_le_bytes(buf[off..off + 4].try_into().unwrap());
        let writer_version = u32_at(4);
        let min_reader_version = u32_at(8);
        let valid = match u32_at(VALID_OFFSET_V2) {
            0 => false,
            1 => true,
            _ => return Err(corrupt("valid bit is neither 0 nor 1")),
        };
        let count = u32_at(16) as usize;
        let stored_crc = u32_at(20);
        let entry_region = &buf[HEADER_V2..];
        if crc32(entry_region) != stored_crc {
            return Err(corrupt("metadata entry region checksum mismatch"));
        }
        let mut segments = Vec::with_capacity(count.min(1 << 16));
        let mut pos = 0usize;
        for _ in 0..count {
            if pos + 2 > entry_region.len() {
                return Err(corrupt("metadata entry region truncated"));
            }
            let len = u16::from_le_bytes(entry_region[pos..pos + 2].try_into().unwrap()) as usize;
            pos += 2;
            if pos + len + 8 > entry_region.len() {
                return Err(corrupt("metadata entry runs past region"));
            }
            let s = std::str::from_utf8(&entry_region[pos..pos + len])
                .map_err(|_| corrupt("metadata name is not UTF-8"))?;
            pos += len;
            let format_version = u32::from_le_bytes(entry_region[pos..pos + 4].try_into().unwrap());
            let flags = u32::from_le_bytes(entry_region[pos + 4..pos + 8].try_into().unwrap());
            pos += 8;
            segments.push(SegmentEntry {
                name: s.to_owned(),
                format_version,
                flags,
            });
        }
        if pos != entry_region.len() {
            return Err(corrupt("metadata entry region has trailing bytes"));
        }
        Ok(MetadataContents {
            writer_version,
            min_reader_version,
            valid,
            segments,
        })
    }

    /// Register a table segment (Figure 6: "add table segment to the leaf
    /// metadata"), recording its per-table format descriptor.
    ///
    /// **Valid-bit semantics, explicitly:** registration rewrites the
    /// whole region and always encodes `valid = false`. A successful
    /// registration therefore can never leave a stale valid bit — the
    /// image is uncommitted until [`set_valid`](Self::set_valid)`(true)`
    /// runs afterwards. Registering *after* the bit is already set is a
    /// protocol violation and is rejected without touching the region, so
    /// a committed image is never silently invalidated either.
    pub fn add_segment_invalidating(
        &mut self,
        segment_name: &str,
        format_version: u32,
        flags: u32,
    ) -> ShmResult<()> {
        let mut contents = self.read()?;
        if contents.valid {
            return Err(ShmError::Corrupt {
                name: self.segment.name().to_owned(),
                reason: "cannot register segments after the valid bit is set".to_owned(),
            });
        }
        contents.segments.push(SegmentEntry {
            name: segment_name.to_owned(),
            format_version,
            flags,
        });
        contents.valid = false; // registration always leaves the image uncommitted
        let bytes = encode(&contents);
        self.segment.resize(bytes.len())?;
        self.segment.as_mut_slice().copy_from_slice(&bytes);
        self.segment.sync()?;
        Ok(())
    }

    /// Flip the valid bit. Setting it to `true` is the shutdown commit
    /// point; the region is synced before and the bit write is synced
    /// after, ordering the data before the commit. Works on either region
    /// layout (the valid word sits at a layout-dependent offset).
    pub fn set_valid(&mut self, valid: bool) -> ShmResult<()> {
        let sw = scuba_obs::Stopwatch::start();
        self.segment.sync()?;
        // The window the valid bit exists to protect: segments are written
        // and synced, the bit is not yet flipped.
        if scuba_faults::check("shmem::metadata::commit").is_some() {
            return Err(ShmError::injected(
                "shmem::metadata::commit",
                self.segment.name(),
            ));
        }
        let offset = self.valid_offset()?;
        let word = (valid as u32).to_le_bytes();
        self.segment.as_mut_slice()[offset..offset + 4].copy_from_slice(&word);
        self.segment.sync()?;
        // Valid-bit commit = barrier sync + word write + publish sync; its
        // latency distribution bounds the §4.2 commit point.
        scuba_obs::histogram!("shmem_valid_commit_ns").observe(sw.elapsed_ns());
        Ok(())
    }

    /// Offset of the valid word for this region's layout.
    fn valid_offset(&self) -> ShmResult<usize> {
        let buf = self.segment.as_slice();
        if buf.len() < 8 {
            return Err(ShmError::Corrupt {
                name: self.segment.name().to_owned(),
                reason: "metadata shorter than header".to_owned(),
            });
        }
        let version_word = u32::from_le_bytes(buf[4..8].try_into().unwrap());
        Ok(if version_word == LEGACY_V1_VERSION {
            VALID_OFFSET_V1
        } else {
            VALID_OFFSET_V2
        })
    }

    /// Convenience: the current valid bit (false if unreadable).
    pub fn is_valid(&self) -> bool {
        self.read().map(|c| c.valid).unwrap_or(false)
    }

    /// The underlying segment name.
    pub fn segment_name(&self) -> &str {
        self.segment.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    fn ns() -> ShmNamespace {
        ShmNamespace::new(
            &format!("meta{}", std::process::id()),
            COUNTER.fetch_add(1, Ordering::Relaxed) as u32,
        )
        .unwrap()
    }

    struct Cleanup(ShmNamespace);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            self.0.unlink_all(8);
        }
    }

    #[test]
    fn create_starts_invalid() {
        let ns = ns();
        let _c = Cleanup(ns.clone());
        let meta = LeafMetadata::create(&ns, 7, 2).unwrap();
        let c = meta.read().unwrap();
        assert!(!c.valid);
        assert_eq!(c.writer_version, 7);
        assert_eq!(c.min_reader_version, 2);
        assert!(c.segments.is_empty());
        assert!(!meta.is_valid());
    }

    #[test]
    fn create_rejects_legacy_writer_version() {
        let ns = ns();
        let _c = Cleanup(ns.clone());
        assert!(LeafMetadata::create(&ns, 1, 1).is_err());
    }

    #[test]
    fn register_then_commit_then_reopen() {
        let ns = ns();
        let _c = Cleanup(ns.clone());
        let mut meta = LeafMetadata::create(&ns, 2, 2).unwrap();
        meta.add_segment_invalidating(&ns.table_segment_name(0), 2, 0)
            .unwrap();
        meta.add_segment_invalidating(&ns.table_segment_name(1), 3, 0x10)
            .unwrap();
        meta.set_valid(true).unwrap();
        drop(meta); // "process exits"

        let meta = LeafMetadata::open(&ns).unwrap();
        let c = meta.read().unwrap();
        assert!(c.valid);
        assert_eq!(
            c.segment_names(),
            vec![ns.table_segment_name(0), ns.table_segment_name(1)]
        );
        assert_eq!(c.segments[0].format_version, 2);
        assert_eq!(c.segments[1].format_version, 3);
        assert_eq!(c.segments[1].flags, 0x10);
    }

    #[test]
    fn legacy_v1_round_trips_with_default_descriptors() {
        let ns = ns();
        let _c = Cleanup(ns.clone());
        let mut meta = LeafMetadata::create_legacy_v1(&ns).unwrap();
        meta.add_segment_invalidating("/legacy_seg", 99, 7).unwrap();
        meta.set_valid(true).unwrap();
        drop(meta);

        let meta = LeafMetadata::open(&ns).unwrap();
        let c = meta.read().unwrap();
        assert!(c.is_legacy_v1());
        assert_eq!(c.writer_version, 1);
        assert_eq!(c.min_reader_version, 1);
        assert!(c.valid);
        // The v1 layout cannot carry descriptors: defaults come back.
        assert_eq!(c.segments, vec![SegmentEntry::legacy("/legacy_seg".into())]);
    }

    #[test]
    fn registration_after_commit_rejected() {
        let ns = ns();
        let _c = Cleanup(ns.clone());
        let mut meta = LeafMetadata::create(&ns, 2, 2).unwrap();
        meta.set_valid(true).unwrap();
        assert!(meta.add_segment_invalidating("/x", 2, 0).is_err());
        // ...and the rejection leaves the committed image untouched.
        assert!(meta.is_valid());
    }

    /// Regression for the old `add_segment` silently re-encoding with
    /// `valid = false`: registration must never leave a stale valid bit,
    /// on either region layout, no matter how the calls interleave.
    #[test]
    fn registration_never_leaves_stale_valid_bit() {
        for legacy in [false, true] {
            let ns = ns();
            let _c = Cleanup(ns.clone());
            let mut meta = if legacy {
                LeafMetadata::create_legacy_v1(&ns).unwrap()
            } else {
                LeafMetadata::create(&ns, 2, 2).unwrap()
            };
            meta.add_segment_invalidating("/t0", 2, 0).unwrap();
            assert!(
                !meta.is_valid(),
                "legacy={legacy}: fresh registration must be invalid"
            );
            // Commit, roll the bit back, register again: still invalid.
            meta.set_valid(true).unwrap();
            meta.set_valid(false).unwrap();
            meta.add_segment_invalidating("/t1", 2, 0).unwrap();
            let c = meta.read().unwrap();
            assert!(
                !c.valid,
                "legacy={legacy}: re-registration left a stale valid bit"
            );
            assert_eq!(c.segment_names(), vec!["/t0".to_owned(), "/t1".to_owned()]);
        }
    }

    #[test]
    fn valid_bit_round_trips() {
        let ns = ns();
        let _c = Cleanup(ns.clone());
        let mut meta = LeafMetadata::create(&ns, 2, 2).unwrap();
        meta.set_valid(true).unwrap();
        assert!(meta.is_valid());
        meta.set_valid(false).unwrap();
        assert!(!meta.is_valid());
    }

    #[test]
    fn corrupt_magic_detected() {
        let ns = ns();
        let _c = Cleanup(ns.clone());
        let _meta = LeafMetadata::create(&ns, 2, 2).unwrap();
        // Scribble over the magic through a second mapping.
        let mut raw = ShmSegment::open(&ns.metadata_name()).unwrap();
        raw.as_mut_slice()[0] = 0xEE;
        assert!(LeafMetadata::open(&ns).is_err());
    }

    #[test]
    fn corrupt_entry_region_detected() {
        let ns = ns();
        let _c = Cleanup(ns.clone());
        let mut meta = LeafMetadata::create(&ns, 2, 2).unwrap();
        meta.add_segment_invalidating("/some_table_segment", 2, 0)
            .unwrap();
        let mut raw = ShmSegment::open(&ns.metadata_name()).unwrap();
        let len = raw.len();
        raw.as_mut_slice()[len - 1] ^= 0xFF;
        assert!(LeafMetadata::open(&ns).is_err());
    }

    #[test]
    fn garbage_valid_word_detected() {
        let ns = ns();
        let _c = Cleanup(ns.clone());
        let _meta = LeafMetadata::create(&ns, 2, 2).unwrap();
        let mut raw = ShmSegment::open(&ns.metadata_name()).unwrap();
        raw.as_mut_slice()[VALID_OFFSET_V2] = 0x42;
        assert!(LeafMetadata::open(&ns).is_err());
    }

    #[test]
    fn zero_version_word_detected() {
        let ns = ns();
        let _c = Cleanup(ns.clone());
        let _meta = LeafMetadata::create(&ns, 2, 2).unwrap();
        let mut raw = ShmSegment::open(&ns.metadata_name()).unwrap();
        raw.as_mut_slice()[4..8].copy_from_slice(&0u32.to_le_bytes());
        assert!(LeafMetadata::open(&ns).is_err());
    }

    #[test]
    fn open_missing_fails() {
        assert!(LeafMetadata::open(&ns()).is_err());
    }
}
