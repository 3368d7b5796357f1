//! Row block columns (Figure 3): one contiguous buffer per column.
//!
//! "Each row block column contains a header, a dictionary if needed, the
//! data (column values), and a footer. The header of the row block column
//! starts at a base address. All other addresses in the row block column
//! ... are offsets from this base address. ... Using offsets enables us to
//! copy the entire row block column between heap and shared memory in one
//! memory copy operation." (§2.1)
//!
//! That property is the mechanical heart of the paper: [`RowBlockColumn`]
//! is a single `Box<[u8]>` whose internal structure is located purely by
//! offsets stored in its header, so moving it anywhere — heap, shared
//! memory, disk — is a single `memcpy` plus re-pointing the one external
//! pointer to the buffer itself.
//!
//! # Buffer layout
//!
//! ```text
//! offset 0   header (64 bytes):
//!            magic u32 | version u32 | compression code u32 |
//!            column type u8 | pad [3] | n_bytes u64 | n_items u64 |
//!            n_dict_items u64 | dict_offset u64 | data_offset u64 |
//!            footer_offset u64
//! dict_offset    dictionary region (string columns, and integer columns
//!                in dictionary form; 0 = absent)
//! data_offset    data region (presence bitmap + typed payload)
//! footer_offset  footer (8 bytes): crc32 over [0, footer_offset) | end magic
//! ```
//!
//! An integer column's payload is in one of three forms, chosen per block
//! ([`crate::encoding::intcode`]); each is `i64 | width u8 | packed codes`
//! or `width u8 | packed ids`, the packed bytes LZ-framed:
//!
//! ```text
//! delta  DELTA|BITPACK       first i64 | width | zig-zag deltas (n - 1)
//! FOR    FOR|BITPACK         base i64  | width | v - base (n)
//! dict   DICTIONARY|BITPACK  width | ids (n); dict region: n_dict_items
//!                            ascending i64 entries, raw
//! ```
//!
//! The two random-access forms came after the format's first version, so
//! a column in either is stamped version 2 ([`RBC_VERSION`]) and every
//! other column keeps version 1 ([`RBC_VERSION_1`]): a block that needs
//! neither is written byte-identical to what earlier writers wrote, and an
//! earlier reader rejects a column it cannot read instead of misreading it.

use std::sync::{Arc, OnceLock};

use crate::column::{ColumnData, ColumnValues};
use crate::encoding::intcode::{self, IntForm, IntStats};
use crate::encoding::{bitpack, delta, dictionary, lz, shuffle, varint, CompressionCode};
use crate::error::{Error, Result};
use crate::scan::IntValues;
use crate::types::ColumnType;
use scuba_checksum::{crc32, Crc32};

/// "RBC\0" little-endian.
pub const RBC_MAGIC: u32 = 0x0043_4252;
/// "RBCF" end-of-buffer magic.
pub const RBC_END_MAGIC: u32 = 0x4643_4252;
/// Layout version of a column in one of the first format's codes.
pub const RBC_VERSION_1: u32 = 1;
/// Newest layout version: an integer column in frame-of-reference or
/// dictionary form.
pub const RBC_VERSION: u32 = 2;
/// Fixed header size in bytes.
pub const HEADER_SIZE: usize = 64;
/// Fixed footer size in bytes.
pub const FOOTER_SIZE: usize = 8;

/// Backing storage for one RBC buffer.
///
/// `Heap` is the classic owned buffer. `Mapped` borrows a byte range of an
/// `Arc`-shared read-only mapping (in practice a `scuba_shmem::SegmentView`
/// over a shared-memory segment), which is what lets an attached leaf serve
/// queries straight out of shared memory with zero per-value heap copies
/// (§6 "keep the data in shared memory at all times"). The columnstore
/// stays dependency-free: any `AsRef<[u8]> + Send + Sync` can back a
/// mapped column.
///
/// Layout rules: both variants hold the exact same offset-addressed RBC
/// image — header, dict, data, footer — so every reader goes through
/// [`RowBlockColumn::as_bytes`] and cannot tell the variants apart.
///
/// A mapped column is adopted with its footer CRC unchecked (attach cost
/// must not scale with data volume), so it carries a *verify-once latch*:
/// the outcome of the first [`RowBlockColumn::verify_checksum`], shared by
/// every clone. The bytes behind a mapping never change, so neither can
/// the outcome — a failure is as sticky as a success.
pub enum ColumnBytes {
    /// Owned heap bytes (`Box<[u8]>`), as produced by [`RowBlockColumn::encode`].
    Heap(Box<[u8]>),
    /// A `len`-byte window at `offset` into a shared read-only mapping.
    Mapped {
        /// The shared mapping keeping the bytes alive.
        backing: Arc<dyn AsRef<[u8]> + Send + Sync>,
        /// Start of this column's buffer within the mapping.
        offset: usize,
        /// Buffer length in bytes.
        len: usize,
        /// Verify-once latch: unset until someone runs the deferred
        /// footer check, then its result for good.
        verified: Arc<OnceLock<Result<()>>>,
    },
}

impl ColumnBytes {
    fn as_slice(&self) -> &[u8] {
        match self {
            ColumnBytes::Heap(buf) => buf,
            ColumnBytes::Mapped {
                backing,
                offset,
                len,
                ..
            } => &(**backing).as_ref()[*offset..*offset + *len],
        }
    }
}

impl Clone for ColumnBytes {
    fn clone(&self) -> Self {
        match self {
            ColumnBytes::Heap(buf) => ColumnBytes::Heap(buf.clone()),
            // Cloning a mapped column clones the Arcs, not the bytes: query
            // snapshots of attached tables stay zero-copy, keep the segment
            // alive until the last clone drops, and share one latch — a
            // check paid through any clone is paid for all of them.
            ColumnBytes::Mapped {
                backing,
                offset,
                len,
                verified,
            } => ColumnBytes::Mapped {
                backing: Arc::clone(backing),
                offset: *offset,
                len: *len,
                verified: Arc::clone(verified),
            },
        }
    }
}

impl std::fmt::Debug for ColumnBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColumnBytes::Heap(buf) => f.debug_tuple("Heap").field(&buf.len()).finish(),
            ColumnBytes::Mapped { offset, len, .. } => f
                .debug_struct("Mapped")
                .field("offset", offset)
                .field("len", len)
                .finish(),
        }
    }
}

impl PartialEq for ColumnBytes {
    /// Byte equality, backing-agnostic: a mapped column equals its hydrated
    /// heap copy.
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// An encoded column: one contiguous, checksummed, offset-addressed buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct RowBlockColumn {
    buf: ColumnBytes,
}

/// Parsed view of the fixed header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Header {
    pub(crate) compression: CompressionCode,
    pub(crate) column_type: ColumnType,
    pub(crate) n_bytes: u64,
    pub(crate) n_items: u64,
    pub(crate) n_dict_items: u64,
    pub(crate) dict_offset: u64,
    pub(crate) data_offset: u64,
    pub(crate) footer_offset: u64,
}

impl RowBlockColumn {
    /// Encode decoded column data into a fresh buffer, choosing the
    /// per-type pipeline described in [`crate::encoding`].
    pub fn encode(data: &ColumnData) -> Result<RowBlockColumn> {
        let mut version = RBC_VERSION_1;
        let mut code = 0u32;
        let mut dict_region = Vec::new();
        let mut data_region = Vec::new();
        let mut n_dict_items = 0u64;

        // Presence bitmap first.
        match data.presence() {
            None => data_region.push(0u8),
            Some(bits) => {
                data_region.push(1u8);
                let mut raw = Vec::with_capacity(bits.len() * 8);
                for w in bits {
                    raw.extend_from_slice(&w.to_le_bytes());
                }
                let used_lz = write_maybe_lz(&mut data_region, &raw);
                if used_lz {
                    code |= CompressionCode::LZ;
                }
            }
        }

        varint::write_u64(&mut data_region, data.present_count() as u64);
        match data.values() {
            ColumnValues::Int64(values) => {
                let stats = IntStats::of(values);
                let (codes, width) = match stats.choose() {
                    IntForm::Delta => {
                        code |= CompressionCode::DELTA | CompressionCode::BITPACK;
                        if values.is_empty() {
                            (Vec::new(), 0)
                        } else {
                            let (first, deltas) = delta::encode(values);
                            data_region.extend_from_slice(&first.to_le_bytes());
                            (deltas, stats.delta_width())
                        }
                    }
                    IntForm::For => {
                        code |= CompressionCode::FOR | CompressionCode::BITPACK;
                        version = RBC_VERSION;
                        data_region.extend_from_slice(&stats.min().to_le_bytes());
                        (intcode::for_codes(values, stats.min()), stats.for_width())
                    }
                    IntForm::Dict => {
                        code |= CompressionCode::DICTIONARY | CompressionCode::BITPACK;
                        version = RBC_VERSION;
                        let entries = stats.sorted_entries().expect("a dictionary was chosen");
                        n_dict_items = entries.len() as u64;
                        for e in &entries {
                            dict_region.extend_from_slice(&e.to_le_bytes());
                        }
                        (
                            intcode::dict_ids(values, &entries),
                            intcode::dict_width(entries.len()),
                        )
                    }
                };
                if width > 0 {
                    data_region.push(width as u8);
                    if write_maybe_lz(&mut data_region, &bitpack::pack(&codes, width)) {
                        code |= CompressionCode::LZ;
                    }
                }
            }
            ColumnValues::Double(values) => {
                code |= CompressionCode::SHUFFLE;
                let shuffled = shuffle::shuffle_f64(values);
                if write_maybe_lz(&mut data_region, &shuffled) {
                    code |= CompressionCode::LZ;
                }
            }
            ColumnValues::Str(_) | ColumnValues::Dict(_) => {
                code |= CompressionCode::DICTIONARY | CompressionCode::BITPACK;
                let built;
                let (entries, ids) = match data.values() {
                    ColumnValues::Dict(d) => (d.entries(), d.ids()),
                    ColumnValues::Str(values) => {
                        built = dictionary::encode(values);
                        (&built.entries[..], &built.indexes[..])
                    }
                    _ => unreachable!("matched a string column"),
                };
                n_dict_items = entries.len() as u64;
                let mut dict_blob = Vec::new();
                dictionary::serialize_entries(entries, &mut dict_blob);
                if write_maybe_lz(&mut dict_region, &dict_blob) {
                    code |= CompressionCode::LZ;
                }
                let indexes: Vec<u64> = ids.iter().map(|&i| i as u64).collect();
                let width = bitpack::width_for(&indexes);
                data_region.push(width as u8);
                let packed = bitpack::pack(&indexes, width);
                if write_maybe_lz(&mut data_region, &packed) {
                    code |= CompressionCode::LZ;
                }
            }
            ColumnValues::StrSet(sets) => {
                // Sets share one dictionary over all elements; each row
                // stores a var-int element count plus bit-packed indexes.
                code |= CompressionCode::DICTIONARY
                    | CompressionCode::BITPACK
                    | CompressionCode::VARINT;
                let flat: Vec<&str> = sets.iter().flatten().map(String::as_str).collect();
                let enc = dictionary::encode(&flat);
                n_dict_items = enc.entries.len() as u64;
                let mut dict_blob = Vec::new();
                dictionary::serialize_entries(&enc.entries, &mut dict_blob);
                if write_maybe_lz(&mut dict_region, &dict_blob) {
                    code |= CompressionCode::LZ;
                }
                let mut lengths = Vec::new();
                for set in sets {
                    varint::write_u64(&mut lengths, set.len() as u64);
                }
                if write_maybe_lz(&mut data_region, &lengths) {
                    code |= CompressionCode::LZ;
                }
                let indexes: Vec<u64> = enc.indexes.iter().map(|&i| i as u64).collect();
                let width = bitpack::width_for(&indexes);
                data_region.push(width as u8);
                let packed = bitpack::pack(&indexes, width);
                if write_maybe_lz(&mut data_region, &packed) {
                    code |= CompressionCode::LZ;
                }
            }
        }

        // Assemble: header | dict | data | footer.
        let dict_offset = if dict_region.is_empty() {
            0
        } else {
            HEADER_SIZE as u64
        };
        let data_offset = (HEADER_SIZE + dict_region.len()) as u64;
        let footer_offset = data_offset + data_region.len() as u64;
        let n_bytes = footer_offset + FOOTER_SIZE as u64;

        let mut buf = Vec::with_capacity(n_bytes as usize);
        buf.extend_from_slice(&RBC_MAGIC.to_le_bytes());
        buf.extend_from_slice(&version.to_le_bytes());
        buf.extend_from_slice(&code.to_le_bytes());
        buf.push(data.column_type().code());
        buf.extend_from_slice(&[0u8; 3]);
        buf.extend_from_slice(&n_bytes.to_le_bytes());
        buf.extend_from_slice(&(data.len() as u64).to_le_bytes());
        buf.extend_from_slice(&n_dict_items.to_le_bytes());
        buf.extend_from_slice(&dict_offset.to_le_bytes());
        buf.extend_from_slice(&data_offset.to_le_bytes());
        buf.extend_from_slice(&footer_offset.to_le_bytes());
        debug_assert_eq!(buf.len(), HEADER_SIZE);
        buf.extend_from_slice(&dict_region);
        buf.extend_from_slice(&data_region);
        let checksum = crc32(&buf);
        buf.extend_from_slice(&checksum.to_le_bytes());
        buf.extend_from_slice(&RBC_END_MAGIC.to_le_bytes());

        Ok(RowBlockColumn {
            buf: ColumnBytes::Heap(buf.into_boxed_slice()),
        })
    }

    /// Adopt a buffer copied from shared memory or read from disk,
    /// validating magic, version, offsets, and the footer checksum. This is
    /// the validation the restore path relies on to detect torn copies
    /// (§4.3: a failed restore falls back to disk recovery).
    pub fn from_bytes(buf: Box<[u8]>) -> Result<RowBlockColumn> {
        let rbc = RowBlockColumn {
            buf: ColumnBytes::Heap(buf),
        };
        rbc.parse_header()?; // validates structure
        rbc.verify_checksum()?;
        Ok(rbc)
    }

    /// Adopt a buffer whose integrity was already established by an
    /// enclosing checksum: the shm restore path CRC-verifies each chunk
    /// frame over exactly these bytes before handing them here, so the
    /// footer CRC would checksum the same bytes twice. Validates the full
    /// structure (magic, version, offsets, end magic) but skips the
    /// redundant CRC pass. The disk path keeps using [`Self::from_bytes`].
    pub fn from_bytes_trusted(buf: Box<[u8]>) -> Result<RowBlockColumn> {
        let rbc = RowBlockColumn {
            buf: ColumnBytes::Heap(buf),
        };
        rbc.parse_header()?;
        rbc.verify_end_magic()?;
        Ok(rbc)
    }

    /// Adopt a byte range of a shared read-only mapping without copying.
    /// Validates structure and the end magic (an O(1) torn-write guard);
    /// the footer CRC is deliberately deferred to the first
    /// [`Self::verify_checksum`] (first query touch or hydration,
    /// whichever comes first) so attach cost stays proportional to
    /// metadata, not data volume. The segment's valid bit guarantees the
    /// bytes were `msync`'d before the backup committed.
    pub fn from_mapped(
        backing: Arc<dyn AsRef<[u8]> + Send + Sync>,
        offset: usize,
        len: usize,
    ) -> Result<RowBlockColumn> {
        let total = (*backing).as_ref().len();
        let end = offset.saturating_add(len);
        if end > total {
            return Err(Error::Truncated {
                needed: end,
                available: total,
            });
        }
        let rbc = RowBlockColumn {
            buf: ColumnBytes::Mapped {
                backing,
                offset,
                len,
                verified: Arc::new(OnceLock::new()),
            },
        };
        rbc.parse_header()?;
        rbc.verify_end_magic()?;
        Ok(rbc)
    }

    /// Whether this column is served out of a shared mapping rather than
    /// owned heap bytes.
    pub fn is_mapped(&self) -> bool {
        matches!(self.buf, ColumnBytes::Mapped { .. })
    }

    /// Whether the footer CRC is known to match: always for a heap column
    /// (checked or vouched for at adoption), and for a mapped column once
    /// some clone's [`Self::verify_checksum`] has succeeded.
    pub fn is_verified(&self) -> bool {
        match &self.buf {
            ColumnBytes::Heap(_) => true,
            ColumnBytes::Mapped { verified, .. } => matches!(verified.get(), Some(Ok(()))),
        }
    }

    /// Copy a mapped column into owned heap bytes (identity for heap
    /// columns). Infallible: the buffer was validated at construction.
    pub fn to_heap(&self) -> RowBlockColumn {
        match &self.buf {
            ColumnBytes::Heap(_) => self.clone(),
            ColumnBytes::Mapped { .. } => RowBlockColumn {
                buf: ColumnBytes::Heap(self.bytes().to_vec().into_boxed_slice()),
            },
        }
    }

    /// Hydrate: verify the deferred footer CRC (unless a query touch
    /// already did), then copy to heap. This is the integrity check attach
    /// skipped; a mismatch here means the segment held torn data and the
    /// caller must fall back to disk recovery, exactly as a failed restore
    /// would (§4.3).
    pub fn to_heap_verified(&self) -> Result<RowBlockColumn> {
        self.verify_checksum()?;
        Ok(self.to_heap())
    }

    /// The raw buffer — what gets `memcpy`'d to and from shared memory.
    pub fn as_bytes(&self) -> &[u8] {
        self.bytes()
    }

    /// Total buffer size in bytes.
    pub fn len_bytes(&self) -> usize {
        self.bytes().len()
    }

    /// Number of rows covered (nulls included).
    pub fn n_items(&self) -> Result<usize> {
        Ok(self.parse_header()?.n_items as usize)
    }

    /// Number of dictionary entries (string columns).
    pub fn n_dict_items(&self) -> Result<usize> {
        Ok(self.parse_header()?.n_dict_items as usize)
    }

    /// The column's type.
    pub fn column_type(&self) -> Result<ColumnType> {
        Ok(self.parse_header()?.column_type)
    }

    /// The compression code: which encodings the pipeline applied.
    pub fn compression(&self) -> Result<CompressionCode> {
        Ok(self.parse_header()?.compression)
    }

    /// True when no cell is null: the data region opens with presence
    /// flag 0 (no bitmap). One byte read, nothing decoded — the scan uses
    /// it to decide whether a block header's time bounds speak for every
    /// row.
    pub fn is_fully_present(&self) -> Result<bool> {
        let h = self.parse_header()?;
        if h.data_offset == h.footer_offset {
            return Err(Error::Truncated {
                needed: 1,
                available: 0,
            });
        }
        match self.bytes()[h.data_offset as usize] {
            0 => Ok(true),
            1 => Ok(false),
            _ => Err(Error::Corrupt("bad presence flag")),
        }
    }

    /// Check the footer checksum. A heap column recomputes it on every
    /// call. A mapped column computes it at most once across all its
    /// clones: the first caller pays the pass (concurrent callers wait for
    /// it rather than repeating it) and everyone after gets the latched
    /// outcome, failure included.
    pub fn verify_checksum(&self) -> Result<()> {
        match &self.buf {
            ColumnBytes::Heap(_) => self.compute_checksum(),
            ColumnBytes::Mapped { verified, .. } => {
                verified.get_or_init(|| self.compute_checksum()).clone()
            }
        }
    }

    /// Recompute the checksum and compare with the footer.
    fn compute_checksum(&self) -> Result<()> {
        let buf = self.bytes();
        let h = self.parse_header()?;
        let footer = h.footer_offset as usize;
        let stored = u32::from_le_bytes(buf[footer..footer + 4].try_into().unwrap());
        let computed = crc32(&buf[..footer]);
        if stored != computed {
            return Err(Error::ChecksumMismatch {
                expected: stored,
                found: computed,
            });
        }
        self.verify_end_magic()
    }

    /// CRC-32 of the whole buffer — what a frame around it records —
    /// derived from the footer: the seal-time CRC of everything before the
    /// footer, resumed over the footer's own 8 bytes. O(1): the payload is
    /// not read, so a byte that changed after seal makes this disagree with
    /// the bytes rather than vouch for them. Every constructor checked that
    /// the footer closes the buffer, so it is found without a parse.
    pub fn frame_crc(&self) -> u32 {
        let buf = self.bytes();
        let footer_bytes = &buf[buf.len() - FOOTER_SIZE..];
        let sealed = u32::from_le_bytes(footer_bytes[..4].try_into().unwrap());
        let mut crc = Crc32::resume(sealed);
        crc.update(footer_bytes);
        crc.finish()
    }

    /// Check only the end-of-buffer magic (the last 4 bytes): an O(1)
    /// structural guard against truncation, without the O(n) CRC pass.
    fn verify_end_magic(&self) -> Result<()> {
        let buf = self.bytes();
        let h = self.parse_header()?;
        let footer = h.footer_offset as usize;
        let end = u32::from_le_bytes(buf[footer + 4..footer + 8].try_into().unwrap());
        if end != RBC_END_MAGIC {
            return Err(Error::BadMagic {
                expected: RBC_END_MAGIC,
                found: end,
            });
        }
        Ok(())
    }

    fn bytes(&self) -> &[u8] {
        self.buf.as_slice()
    }

    /// Decode the buffer back into heap column data.
    pub fn decode(&self) -> Result<ColumnData> {
        let buf = self.bytes();
        let h = self.parse_header()?;
        let n_items = h.n_items as usize;
        let data = &buf[h.data_offset as usize..h.footer_offset as usize];
        let mut pos = 0usize;

        // Presence bitmap.
        let presence_flag = *data.get(pos).ok_or(Error::Truncated {
            needed: 1,
            available: data.len(),
        })?;
        pos += 1;
        let presence = match presence_flag {
            0 => None,
            1 => {
                let (raw, p) = read_maybe_lz(data, pos)?;
                pos = p;
                if raw.len() != n_items.div_ceil(64) * 8 {
                    return Err(Error::Corrupt("presence bitmap size mismatch"));
                }
                let words: Vec<u64> = raw
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                    .collect();
                Some(words)
            }
            _ => return Err(Error::Corrupt("bad presence flag")),
        };

        let (present_count, p) = varint::read_u64(data, pos)?;
        pos = p;
        let present_count = present_count as usize;
        if present_count > n_items {
            return Err(Error::Corrupt("present count exceeds item count"));
        }

        let values = match h.column_type {
            ColumnType::Int64 => {
                ColumnValues::Int64(IntValues::parse(buf, &h, data, pos, present_count)?.decode()?)
            }
            ColumnType::Double => {
                let (shuffled, p) = read_maybe_lz(data, pos)?;
                pos = p;
                ColumnValues::Double(shuffle::unshuffle_f64(&shuffled, present_count)?)
            }
            ColumnType::Str => {
                let dict_region = &buf[h.dict_offset as usize..h.data_offset as usize];
                let entries = if h.n_dict_items == 0 && dict_region.is_empty() {
                    Vec::new()
                } else {
                    let (blob, _) = read_maybe_lz(dict_region, 0)?;
                    let (entries, _) = dictionary::deserialize_entries(&blob, 0)?;
                    if entries.len() as u64 != h.n_dict_items {
                        return Err(Error::Corrupt("dictionary entry count mismatch"));
                    }
                    entries
                };
                let width = *data.get(pos).ok_or(Error::Truncated {
                    needed: pos + 1,
                    available: data.len(),
                })? as u32;
                pos += 1;
                let (packed, p) = read_maybe_lz(data, pos)?;
                pos = p;
                let indexes = bitpack::unpack(&packed, width, present_count)?;
                let idx32: Vec<u32> = indexes
                    .into_iter()
                    .map(|i| {
                        u32::try_from(i).map_err(|_| Error::Corrupt("dictionary index too large"))
                    })
                    .collect::<Result<_>>()?;
                let decoded = dictionary::decode(&dictionary::DictEncoded {
                    entries,
                    indexes: idx32,
                })?;
                ColumnValues::Str(decoded)
            }
            ColumnType::StrSet => {
                let dict_region = &buf[h.dict_offset as usize..h.data_offset as usize];
                let entries = if h.n_dict_items == 0 && dict_region.is_empty() {
                    Vec::new()
                } else {
                    let (blob, _) = read_maybe_lz(dict_region, 0)?;
                    let (entries, _) = dictionary::deserialize_entries(&blob, 0)?;
                    if entries.len() as u64 != h.n_dict_items {
                        return Err(Error::Corrupt("dictionary entry count mismatch"));
                    }
                    entries
                };
                let (lengths_blob, p) = read_maybe_lz(data, pos)?;
                pos = p;
                let mut lengths = Vec::with_capacity(present_count);
                let mut lp = 0usize;
                let mut total_elements = 0u64;
                for _ in 0..present_count {
                    let (len, q) = varint::read_u64(&lengths_blob, lp)?;
                    lp = q;
                    total_elements = total_elements
                        .checked_add(len)
                        .ok_or(Error::Corrupt("set element count overflow"))?;
                    lengths.push(len as usize);
                }
                if lp != lengths_blob.len() {
                    return Err(Error::Corrupt("trailing bytes in set lengths"));
                }
                let width = *data.get(pos).ok_or(Error::Truncated {
                    needed: pos + 1,
                    available: data.len(),
                })? as u32;
                pos += 1;
                let (packed, p) = read_maybe_lz(data, pos)?;
                pos = p;
                let indexes = bitpack::unpack(&packed, width, total_elements as usize)?;
                let mut sets = Vec::with_capacity(present_count);
                let mut cursor = 0usize;
                for len in lengths {
                    let mut set = Vec::with_capacity(len);
                    for &idx in &indexes[cursor..cursor + len] {
                        let idx = usize::try_from(idx)
                            .map_err(|_| Error::Corrupt("dictionary index too large"))?;
                        let entry = entries
                            .get(idx)
                            .ok_or(Error::Corrupt("dictionary index out of range"))?;
                        set.push(entry.clone());
                    }
                    cursor += len;
                    sets.push(set);
                }
                ColumnValues::StrSet(sets)
            }
        };
        let _ = pos;

        ColumnData::from_parts(n_items, presence, values)
    }

    pub(crate) fn parse_header(&self) -> Result<Header> {
        let buf = self.bytes();
        if buf.len() < HEADER_SIZE + FOOTER_SIZE {
            return Err(Error::Truncated {
                needed: HEADER_SIZE + FOOTER_SIZE,
                available: buf.len(),
            });
        }
        let u32_at = |off: usize| u32::from_le_bytes(buf[off..off + 4].try_into().unwrap());
        let u64_at = |off: usize| u64::from_le_bytes(buf[off..off + 8].try_into().unwrap());
        let magic = u32_at(0);
        if magic != RBC_MAGIC {
            return Err(Error::BadMagic {
                expected: RBC_MAGIC,
                found: magic,
            });
        }
        let version = u32_at(4);
        if version != RBC_VERSION_1 && version != RBC_VERSION {
            return Err(Error::UnsupportedVersion(version));
        }
        let compression = CompressionCode(u32_at(8));
        if !compression.is_known() {
            return Err(Error::UnknownCompression(compression.0));
        }
        let column_type = ColumnType::from_code(buf[12])
            .ok_or(Error::Corrupt("unknown column type code in header"))?;
        if version != required_version(column_type, compression)? {
            return Err(Error::Corrupt("column version does not match its codes"));
        }
        let h = Header {
            compression,
            column_type,
            n_bytes: u64_at(16),
            n_items: u64_at(24),
            n_dict_items: u64_at(32),
            dict_offset: u64_at(40),
            data_offset: u64_at(48),
            footer_offset: u64_at(56),
        };
        if h.n_bytes as usize != buf.len() {
            return Err(Error::BadOffset("n_bytes does not match buffer length"));
        }
        if h.dict_offset != 0 && h.dict_offset as usize != HEADER_SIZE {
            return Err(Error::BadOffset("dictionary offset must follow header"));
        }
        if (h.data_offset as usize) < HEADER_SIZE
            || h.data_offset > h.footer_offset
            || h.footer_offset as usize + FOOTER_SIZE != buf.len()
        {
            return Err(Error::BadOffset("region offsets are not ordered"));
        }
        Ok(h)
    }
}

impl Header {
    /// The form of an integer column's payload. Only meaningful for
    /// `Int64` columns; [`required_version`] admitted the combination.
    pub(crate) fn int_form(&self) -> IntForm {
        if self.compression.has(CompressionCode::FOR) {
            IntForm::For
        } else if self.compression.has(CompressionCode::DICTIONARY) {
            IntForm::Dict
        } else {
            IntForm::Delta
        }
    }

    /// The dictionary region; empty when the header places none.
    pub(crate) fn dict_region<'b>(&self, buf: &'b [u8]) -> &'b [u8] {
        if self.dict_offset == 0 {
            &[]
        } else {
            &buf[self.dict_offset as usize..self.data_offset as usize]
        }
    }
}

/// The layout version a column of type `ty` coded as `code` carries:
/// [`RBC_VERSION`] for an integer column in frame-of-reference or
/// dictionary form, [`RBC_VERSION_1`] for everything else. Codes no
/// writer combines are `Corrupt`.
fn required_version(ty: ColumnType, code: CompressionCode) -> Result<u32> {
    let for_ = code.has(CompressionCode::FOR);
    let dict = code.has(CompressionCode::DICTIONARY);
    if for_ && (ty != ColumnType::Int64 || dict || code.has(CompressionCode::DELTA)) {
        return Err(Error::Corrupt(
            "frame-of-reference code on a column that cannot carry it",
        ));
    }
    if ty == ColumnType::Int64 && dict && code.has(CompressionCode::DELTA) {
        return Err(Error::Corrupt("integer column in two forms"));
    }
    Ok(if ty == ColumnType::Int64 && (for_ || dict) {
        RBC_VERSION
    } else {
        RBC_VERSION_1
    })
}

/// Write a length-prefixed, optionally-LZ-compressed block:
/// `u8 flag | varint raw_len | varint stored_len | bytes`. Compresses only
/// when it actually shrinks the block. Returns whether LZ was used.
fn write_maybe_lz(out: &mut Vec<u8>, raw: &[u8]) -> bool {
    let compressed = lz::compress(raw);
    if compressed.len() < raw.len() {
        out.push(1);
        varint::write_u64(out, raw.len() as u64);
        varint::write_u64(out, compressed.len() as u64);
        out.extend_from_slice(&compressed);
        true
    } else {
        out.push(0);
        varint::write_u64(out, raw.len() as u64);
        varint::write_u64(out, raw.len() as u64);
        out.extend_from_slice(raw);
        false
    }
}

/// Inverse of [`write_maybe_lz`]: returns the raw bytes and the position
/// just past the block.
fn read_maybe_lz(buf: &[u8], pos: usize) -> Result<(Vec<u8>, usize)> {
    let (raw, p) = read_maybe_lz_cow(buf, pos)?;
    Ok((raw.into_owned(), p))
}

/// Borrowing variant of [`read_maybe_lz`]: when the block was stored raw,
/// the returned bytes borrow `buf` directly — this is what lets the scan
/// path read packed payloads straight out of a shared mapping without the
/// copy that `decode()` pays.
pub(crate) fn read_maybe_lz_cow(
    buf: &[u8],
    pos: usize,
) -> Result<(std::borrow::Cow<'_, [u8]>, usize)> {
    let flag = *buf.get(pos).ok_or(Error::Truncated {
        needed: pos + 1,
        available: buf.len(),
    })?;
    let (raw_len, p) = varint::read_u64(buf, pos + 1)?;
    let (stored_len, p) = varint::read_u64(buf, p)?;
    let stored_len = stored_len as usize;
    if p + stored_len > buf.len() {
        return Err(Error::Truncated {
            needed: p + stored_len,
            available: buf.len(),
        });
    }
    let stored = &buf[p..p + stored_len];
    let raw = match flag {
        0 => {
            if raw_len as usize != stored_len {
                return Err(Error::Corrupt("raw block length mismatch"));
            }
            std::borrow::Cow::Borrowed(stored)
        }
        1 => std::borrow::Cow::Owned(lz::decompress(stored, raw_len as usize)?),
        _ => return Err(Error::Corrupt("bad LZ block flag")),
    };
    Ok((raw, p + stored_len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Value;

    fn int_column(values: &[i64]) -> ColumnData {
        ColumnData::from_values(ColumnValues::Int64(values.to_vec()))
    }

    fn round_trip(data: &ColumnData) -> RowBlockColumn {
        let rbc = RowBlockColumn::encode(data).unwrap();
        rbc.verify_checksum().unwrap();
        let decoded = rbc.decode().unwrap();
        assert_eq!(&decoded, data);
        // Adoption path (the memcpy-from-shm path) must also succeed.
        let adopted =
            RowBlockColumn::from_bytes(rbc.as_bytes().to_vec().into_boxed_slice()).unwrap();
        assert_eq!(adopted.decode().unwrap(), *data);
        // The derived frame CRC is the one-shot CRC of the whole buffer,
        // for every type and encoding this runs over, heap or mapped.
        assert_eq!(rbc.frame_crc(), crc32(rbc.as_bytes()));
        let backing: Arc<dyn AsRef<[u8]> + Send + Sync> = Arc::new(rbc.as_bytes().to_vec());
        let mapped = RowBlockColumn::from_mapped(backing, 0, rbc.len_bytes()).unwrap();
        assert_eq!(mapped.frame_crc(), crc32(rbc.as_bytes()));
        rbc
    }

    #[test]
    fn frame_crc_does_not_bless_a_byte_changed_after_seal() {
        let values: Vec<String> = (0..300).map(|i| format!("v{}", i % 7)).collect();
        let rbc =
            RowBlockColumn::encode(&ColumnData::from_values(ColumnValues::Str(values))).unwrap();
        let sealed = rbc.frame_crc();
        let mut bytes = rbc.as_bytes().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        let flipped = RowBlockColumn::from_bytes_trusted(bytes.clone().into_boxed_slice()).unwrap();
        // Still the seal-time CRC: it no longer matches the bytes.
        assert_eq!(flipped.frame_crc(), sealed);
        assert_ne!(flipped.frame_crc(), crc32(&bytes));
    }

    #[test]
    fn int_round_trip() {
        round_trip(&int_column(&[]));
        round_trip(&int_column(&[42]));
        round_trip(&int_column(&(0..10_000).collect::<Vec<_>>()));
        round_trip(&int_column(&[i64::MIN, i64::MAX, 0, -1, 1]));
    }

    /// One column per integer form — delta, frame of reference,
    /// dictionary — without and with nulls.
    fn int_forms() -> Vec<(IntForm, ColumnData)> {
        let mix = |i: i64| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15u64 as i64) >> 17) % 1000;
        let shapes: [(IntForm, Vec<i64>); 3] = [
            (IntForm::Delta, (0..300).map(|i| 5_000 + 2 * i).collect()),
            (
                IntForm::For,
                (0..300).map(|i| -400 + mix(i).abs()).collect(),
            ),
            (
                IntForm::Dict,
                (0..300)
                    .map(|i| [i64::MIN, 3, i64::MAX][(i % 3) as usize])
                    .collect(),
            ),
        ];
        let mut out = Vec::new();
        for (form, values) in shapes {
            out.push((form, int_column(&values)));
            let mut holes = ColumnData::new(ColumnType::Int64);
            for (i, &v) in values.iter().enumerate() {
                if i % 5 == 1 {
                    holes.push_null();
                } else {
                    holes.push(Value::Int(v)).unwrap();
                }
            }
            out.push((form, holes));
        }
        out
    }

    fn splitmix(i: u64) -> u64 {
        let mut x = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// `bytes` with its footer CRC recomputed: a column a writer could
    /// have sealed.
    fn resealed(mut bytes: Vec<u8>) -> Box<[u8]> {
        let footer = bytes.len() - FOOTER_SIZE;
        let crc = crc32(&bytes[..footer]);
        bytes[footer..footer + 4].copy_from_slice(&crc.to_le_bytes());
        bytes.into_boxed_slice()
    }

    #[test]
    fn int_forms_round_trip_and_stamp_their_version() {
        for (form, data) in int_forms() {
            let rbc = round_trip(&data);
            let h = rbc.parse_header().unwrap();
            assert_eq!(h.int_form(), form, "{data:?}");
            let version = u32::from_le_bytes(rbc.as_bytes()[4..8].try_into().unwrap());
            let want = if form == IntForm::Delta {
                RBC_VERSION_1
            } else {
                RBC_VERSION
            };
            assert_eq!(version, want, "{form:?}");
            assert!(h.compression.method_count() >= 2);
        }
    }

    #[test]
    fn a_new_int_code_under_the_old_version_is_rejected() {
        for (form, data) in int_forms() {
            let rbc = RowBlockColumn::encode(&data).unwrap();
            let mut bytes = rbc.as_bytes().to_vec();
            let other = if form == IntForm::Delta {
                RBC_VERSION
            } else {
                RBC_VERSION_1
            };
            bytes[4..8].copy_from_slice(&other.to_le_bytes());
            assert_eq!(
                RowBlockColumn::from_bytes(resealed(bytes)).unwrap_err(),
                Error::Corrupt("column version does not match its codes"),
                "{form:?} stamped {other}"
            );
        }
        // FOR on a string column, and two forms at once, are nobody's.
        let s =
            RowBlockColumn::encode(&ColumnData::from_values(ColumnValues::Str(
                vec!["a".into()],
            )))
            .unwrap();
        let mut bytes = s.as_bytes().to_vec();
        let code = CompressionCode::FOR | u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        bytes[8..12].copy_from_slice(&code.to_le_bytes());
        assert!(RowBlockColumn::from_bytes(resealed(bytes)).is_err());
        let d = RowBlockColumn::encode(&int_forms()[4].1).unwrap();
        let mut bytes = d.as_bytes().to_vec();
        let code = CompressionCode::DELTA | u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        bytes[8..12].copy_from_slice(&code.to_le_bytes());
        assert!(RowBlockColumn::from_bytes(resealed(bytes)).is_err());
    }

    #[test]
    fn an_int_dictionary_id_past_its_entries_is_corrupt() {
        // Three entries, two-bit ids: id 3 fits the width but names no
        // entry.
        let values: Vec<i64> = (0..32)
            .map(|i| [i64::MIN, 0, i64::MAX][(splitmix(i) % 3) as usize])
            .collect();
        let data = int_column(&values);
        let rbc = RowBlockColumn::encode(&data).unwrap();
        let h = rbc.parse_header().unwrap();
        assert_eq!((h.int_form(), h.n_dict_items), (IntForm::Dict, 3));
        // Data region: presence flag 0 | present count (one byte) | width
        // | raw flag 0 | raw len | stored len (one byte each) | ids.
        let mut bytes = rbc.as_bytes().to_vec();
        let data_at = h.data_offset as usize;
        assert_eq!(bytes[data_at..data_at + 4], [0, 32, 2, 0]);
        bytes[data_at + 6] |= 0b11;
        let bad = RowBlockColumn::from_bytes(resealed(bytes)).unwrap();
        let corrupt = Error::Corrupt("dictionary index out of range");
        assert_eq!(bad.decode().unwrap_err(), corrupt);
        let view = crate::scan::ColumnView::build(&bad).unwrap();
        assert_eq!(view.value(0).unwrap_err(), corrupt);
        assert_eq!(view.value(1).unwrap(), Value::Int(values[1]));
        let crate::scan::ColumnView::Int64 { ints, .. } = &view else {
            unreachable!()
        };
        assert_eq!(ints.values().unwrap_err(), corrupt);
    }

    #[test]
    fn int_forms_survive_every_flip_and_cut() {
        // The CRC is skipped (trusted adoption), so every damaged byte
        // reaches the parsers: each must fail or read, never panic.
        for (form, data) in int_forms() {
            let bytes = RowBlockColumn::encode(&data).unwrap().as_bytes().to_vec();
            for cut in 0..bytes.len() {
                let short = bytes[..cut].to_vec().into_boxed_slice();
                assert!(
                    RowBlockColumn::from_bytes_trusted(short).is_err(),
                    "{form:?} cut {cut}"
                );
            }
            for pos in 0..bytes.len() - FOOTER_SIZE {
                for xor in [0x01, 0x10, 0x80, 0xFF] {
                    let mut flipped = bytes.clone();
                    flipped[pos] ^= xor;
                    let Ok(col) = RowBlockColumn::from_bytes_trusted(flipped.into_boxed_slice())
                    else {
                        continue;
                    };
                    let _ = col.decode();
                    let Ok(view) = crate::scan::ColumnView::build(&col) else {
                        continue;
                    };
                    let rows = col.n_items().unwrap().min(data.len());
                    for row in 0..rows {
                        let _ = view.value(row);
                    }
                    if let crate::scan::ColumnView::Int64 { ints, .. } = &view {
                        let _ = ints.values();
                    }
                }
            }
        }
    }

    #[test]
    fn double_lanes_lz_cannot_shrink_carry_no_lz_bit() {
        let noise: Vec<f64> = (0..512u64).map(|i| f64::from_bits(splitmix(i))).collect();
        let rbc = round_trip(&ColumnData::from_values(ColumnValues::Double(noise)));
        let code = rbc.compression().unwrap();
        assert!(code.has(CompressionCode::SHUFFLE));
        assert!(!code.has(CompressionCode::LZ), "{code:?}");
        // Lanes LZ does shrink keep the bit.
        let smooth: Vec<f64> = (0..512).map(|i| i as f64 * 0.5).collect();
        let rbc = round_trip(&ColumnData::from_values(ColumnValues::Double(smooth)));
        assert!(rbc.compression().unwrap().has(CompressionCode::LZ));
    }

    #[test]
    fn double_round_trip() {
        let d = ColumnData::from_values(ColumnValues::Double(vec![1.5, -2.5, 1e300, 0.0]));
        round_trip(&d);
        round_trip(&ColumnData::from_values(ColumnValues::Double(vec![])));
    }

    #[test]
    fn string_round_trip() {
        let values: Vec<String> = (0..1000).map(|i| format!("endpoint_{}", i % 23)).collect();
        let rbc = round_trip(&ColumnData::from_values(ColumnValues::Str(values)));
        assert_eq!(rbc.n_dict_items().unwrap(), 23);
        assert!(rbc.compression().unwrap().has(CompressionCode::DICTIONARY));
    }

    #[test]
    fn empty_string_column() {
        round_trip(&ColumnData::from_values(ColumnValues::Str(vec![])));
    }

    #[test]
    fn strset_round_trip() {
        let sets: Vec<Vec<String>> = (0..500)
            .map(|i| {
                let mut v: Vec<String> = (0..(i % 5))
                    .map(|k| format!("tag{}", (i + k) % 13))
                    .collect();
                v.sort();
                v.dedup();
                v
            })
            .collect();
        let rbc = round_trip(&ColumnData::from_values(ColumnValues::StrSet(sets)));
        assert!(rbc.n_dict_items().unwrap() <= 13);
        let code = rbc.compression().unwrap();
        assert!(code.has(CompressionCode::DICTIONARY));
        assert!(code.has(CompressionCode::VARINT));
        assert!(code.method_count() >= 2);
    }

    #[test]
    fn strset_with_nulls_and_empties() {
        let mut c = ColumnData::new(ColumnType::StrSet);
        c.push(Value::set(["a", "b"])).unwrap();
        c.push_null();
        c.push(Value::set(Vec::<String>::new())).unwrap(); // empty set != null
        c.push(Value::set(["z"])).unwrap();
        let rbc = round_trip(&c);
        let decoded = rbc.decode().unwrap();
        assert_eq!(decoded.get(2), Value::set(Vec::<String>::new()));
        assert_eq!(decoded.get(1), Value::Null);
    }

    #[test]
    fn nullable_columns_round_trip() {
        let mut c = ColumnData::new(ColumnType::Int64);
        for i in 0..500i64 {
            if i % 7 == 0 {
                c.push_null();
            } else {
                c.push(Value::Int(i * 1000)).unwrap();
            }
        }
        round_trip(&c);

        let mut s = ColumnData::new(ColumnType::Str);
        s.push_null();
        s.push(Value::from("x")).unwrap();
        s.push_null();
        round_trip(&s);
    }

    #[test]
    fn fully_present_is_the_presence_flag() {
        let full = round_trip(&int_column(&[1, 2, 3]));
        assert!(full.is_fully_present().unwrap());
        let mut holes = ColumnData::new(ColumnType::Int64);
        holes.push(crate::types::Value::Int(1)).unwrap();
        holes.push_null();
        assert!(!round_trip(&holes).is_fully_present().unwrap());
        // An empty column has no nulls either.
        assert!(round_trip(&int_column(&[])).is_fully_present().unwrap());
    }

    #[test]
    fn all_null_column() {
        let mut c = ColumnData::new(ColumnType::Double);
        for _ in 0..100 {
            c.push_null();
        }
        round_trip(&c);
    }

    #[test]
    fn at_least_two_methods_per_column() {
        // §2.1: "at least two methods applied to each column".
        let cases = vec![
            int_column(&(0..1000).collect::<Vec<_>>()),
            ColumnData::from_values(ColumnValues::Double((0..1000).map(|i| i as f64).collect())),
            ColumnData::from_values(ColumnValues::Str(
                (0..1000).map(|i| format!("s{}", i % 5)).collect(),
            )),
        ];
        for data in cases {
            let rbc = RowBlockColumn::encode(&data).unwrap();
            assert!(
                rbc.compression().unwrap().method_count() >= 2,
                "type {:?} used {} methods",
                data.column_type(),
                rbc.compression().unwrap().method_count()
            );
        }
    }

    #[test]
    fn timestamps_compress_heavily() {
        // Near-monotonic unix timestamps, the `time` column workload.
        let ts: Vec<i64> = (0..65_536).map(|i| 1_700_000_000 + i / 10).collect();
        let rbc = RowBlockColumn::encode(&int_column(&ts)).unwrap();
        let raw = ts.len() * 8;
        assert!(
            rbc.len_bytes() * 20 < raw,
            "expected >20x compression, got {}x",
            raw / rbc.len_bytes()
        );
    }

    #[test]
    fn corruption_detected_by_checksum() {
        let rbc = RowBlockColumn::encode(&int_column(&(0..1000).collect::<Vec<_>>())).unwrap();
        let mut bytes = rbc.as_bytes().to_vec();
        // Flip one byte in the data region.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let err = RowBlockColumn::from_bytes(bytes.into_boxed_slice()).unwrap_err();
        assert!(matches!(
            err,
            Error::ChecksumMismatch { .. } | Error::BadOffset(_)
        ));
    }

    #[test]
    fn truncation_detected() {
        let rbc = RowBlockColumn::encode(&int_column(&[1, 2, 3])).unwrap();
        let bytes = rbc.as_bytes();
        for cut in [0, 10, HEADER_SIZE, bytes.len() - 1] {
            assert!(
                RowBlockColumn::from_bytes(bytes[..cut].to_vec().into_boxed_slice()).is_err(),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_detected() {
        let rbc = RowBlockColumn::encode(&int_column(&[1])).unwrap();
        let mut bytes = rbc.as_bytes().to_vec();
        bytes[0] = 0xEE;
        assert!(matches!(
            RowBlockColumn::from_bytes(bytes.clone().into_boxed_slice()).unwrap_err(),
            Error::BadMagic { .. }
        ));
        let mut bytes = rbc.as_bytes().to_vec();
        bytes[4] = 0xEE; // version
        assert!(matches!(
            RowBlockColumn::from_bytes(bytes.into_boxed_slice()).unwrap_err(),
            Error::UnsupportedVersion(_)
        ));
    }

    #[test]
    fn single_memcpy_property() {
        // The defining invariant: a byte-for-byte copy of the buffer is a
        // fully valid column with no fixups beyond the base pointer.
        let data = ColumnData::from_values(ColumnValues::Str(
            (0..100).map(|i| format!("value{i}")).collect(),
        ));
        let rbc = RowBlockColumn::encode(&data).unwrap();
        let mut shadow = vec![0u8; rbc.len_bytes()];
        shadow.copy_from_slice(rbc.as_bytes()); // the "memcpy"
        let copied = RowBlockColumn::from_bytes(shadow.into_boxed_slice()).unwrap();
        assert_eq!(copied.decode().unwrap(), data);
    }

    #[test]
    fn mapped_column_decodes_identically() {
        // Zero-copy adoption: the same buffer embedded at an offset inside
        // a larger shared mapping must decode byte-identically to the
        // owned original.
        let data = ColumnData::from_values(ColumnValues::Str(
            (0..200).map(|i| format!("value{}", i % 17)).collect(),
        ));
        let rbc = RowBlockColumn::encode(&data).unwrap();
        let mut arena = vec![0xAAu8; 128]; // unrelated leading bytes
        arena.extend_from_slice(rbc.as_bytes());
        arena.extend_from_slice(&[0xBB; 64]); // unrelated trailing bytes
        let backing: Arc<dyn AsRef<[u8]> + Send + Sync> = Arc::new(arena);
        let mapped = RowBlockColumn::from_mapped(backing, 128, rbc.len_bytes()).unwrap();
        assert!(mapped.is_mapped());
        assert!(!rbc.is_mapped());
        assert_eq!(mapped.as_bytes(), rbc.as_bytes());
        assert_eq!(mapped.decode().unwrap(), data);
        assert_eq!(mapped, rbc); // backing-agnostic equality
                                 // Clones share the backing instead of copying bytes.
        let clone = mapped.clone();
        assert!(clone.is_mapped());
        // Hydration produces an owned, still-identical column.
        let heap = mapped.to_heap_verified().unwrap();
        assert!(!heap.is_mapped());
        assert_eq!(heap, mapped);
        assert_eq!(heap.decode().unwrap(), data);
    }

    #[test]
    fn from_mapped_rejects_out_of_range_windows() {
        let rbc = RowBlockColumn::encode(&int_column(&[1, 2, 3])).unwrap();
        let backing: Arc<dyn AsRef<[u8]> + Send + Sync> = Arc::new(rbc.as_bytes().to_vec());
        assert!(RowBlockColumn::from_mapped(backing.clone(), 8, rbc.len_bytes()).is_err());
        assert!(RowBlockColumn::from_mapped(backing, usize::MAX, 2).is_err());
    }

    #[test]
    fn trusted_adoption_skips_footer_crc_but_keeps_structure() {
        // Satellite: the shm restore path verifies the chunk-frame CRC over
        // the same bytes, so from_bytes_trusted must accept a buffer whose
        // footer CRC is stale — while from_bytes (the disk path) rejects it.
        let rbc = RowBlockColumn::encode(&int_column(&(0..500).collect::<Vec<_>>())).unwrap();
        let mut bytes = rbc.as_bytes().to_vec();
        let footer = bytes.len() - FOOTER_SIZE;
        bytes[footer] ^= 0xFF; // corrupt the stored CRC, not the data
        assert!(matches!(
            RowBlockColumn::from_bytes(bytes.clone().into_boxed_slice()).unwrap_err(),
            Error::ChecksumMismatch { .. }
        ));
        let trusted = RowBlockColumn::from_bytes_trusted(bytes.into_boxed_slice()).unwrap();
        assert_eq!(trusted.decode().unwrap().len(), 500);

        // Structural damage is still caught: bad end magic, truncation.
        let mut bytes = rbc.as_bytes().to_vec();
        let len = bytes.len();
        bytes[len - 1] ^= 0xFF;
        assert!(matches!(
            RowBlockColumn::from_bytes_trusted(bytes.into_boxed_slice()).unwrap_err(),
            Error::BadMagic { .. }
        ));
        let bytes = rbc.as_bytes();
        assert!(RowBlockColumn::from_bytes_trusted(
            bytes[..bytes.len() - 1].to_vec().into_boxed_slice()
        )
        .is_err());
    }

    #[test]
    fn deferred_crc_caught_at_hydration() {
        // Attach accepts structurally-valid torn payloads (CRC deferred);
        // to_heap_verified is where the corruption must surface.
        let rbc = RowBlockColumn::encode(&int_column(&(0..500).collect::<Vec<_>>())).unwrap();
        let mut bytes = rbc.as_bytes().to_vec();
        bytes[HEADER_SIZE] ^= 0xFF; // first data-region byte: structurally silent
        let backing: Arc<dyn AsRef<[u8]> + Send + Sync> = Arc::new(bytes);
        let mapped = RowBlockColumn::from_mapped(backing, 0, rbc.len_bytes()).unwrap();
        assert!(mapped.to_heap_verified().is_err());
    }
    /// A backing whose bytes can be swapped under a mapped column — which
    /// no real mapping does — so a test can tell a latched answer from a
    /// recomputed one.
    struct Swappable {
        first: Vec<u8>,
        second: Vec<u8>,
        swapped: std::sync::atomic::AtomicBool,
    }

    impl AsRef<[u8]> for Swappable {
        fn as_ref(&self) -> &[u8] {
            if self.swapped.load(std::sync::atomic::Ordering::SeqCst) {
                &self.second
            } else {
                &self.first
            }
        }
    }

    /// (intact image, same image with one data-region byte flipped).
    fn intact_and_torn() -> (Vec<u8>, Vec<u8>) {
        let rbc = RowBlockColumn::encode(&int_column(&(0..500).collect::<Vec<_>>())).unwrap();
        let intact = rbc.as_bytes().to_vec();
        let mut torn = intact.clone();
        torn[HEADER_SIZE] ^= 0xFF; // structurally silent
        (intact, torn)
    }

    #[test]
    fn mapped_checksum_is_verified_once_and_clones_share_the_latch() {
        let (intact, torn) = intact_and_torn();
        let len = intact.len();
        let backing = Arc::new(Swappable {
            first: intact,
            second: torn,
            swapped: false.into(),
        });
        let mapped = RowBlockColumn::from_mapped(backing.clone(), 0, len).unwrap();
        let clone = mapped.clone();
        assert!(!mapped.is_verified() && !clone.is_verified());
        clone.verify_checksum().unwrap();
        assert!(
            mapped.is_verified(),
            "the clone's check counts for the original"
        );
        // With the bytes now torn, a second CRC pass would fail: every
        // later caller, on either handle, reads the latch instead.
        backing
            .swapped
            .store(true, std::sync::atomic::Ordering::SeqCst);
        mapped.verify_checksum().unwrap();
        clone.verify_checksum().unwrap();
        assert!(!mapped.to_heap_verified().unwrap().is_mapped());
        // A fresh adoption of the same range has its own, unset latch.
        let fresh = RowBlockColumn::from_mapped(backing, 0, len).unwrap();
        assert!(!fresh.is_verified());
        assert!(fresh.verify_checksum().is_err());
    }

    #[test]
    fn mapped_checksum_failure_is_sticky() {
        let (intact, torn) = intact_and_torn();
        let len = intact.len();
        let backing = Arc::new(Swappable {
            first: torn,
            second: intact,
            swapped: false.into(),
        });
        let mapped = RowBlockColumn::from_mapped(backing.clone(), 0, len).unwrap();
        let clone = mapped.clone();
        let err = mapped.verify_checksum().unwrap_err();
        assert!(matches!(err, Error::ChecksumMismatch { .. }));
        assert!(!mapped.is_verified());
        // Even if the bytes came good, a condemned column stays condemned,
        // with the same error for every caller.
        backing
            .swapped
            .store(true, std::sync::atomic::Ordering::SeqCst);
        assert_eq!(clone.verify_checksum().unwrap_err(), err);
        assert_eq!(mapped.to_heap_verified().unwrap_err(), err);
        assert!(!clone.is_verified());
    }
}
