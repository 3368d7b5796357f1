//! Row blocks (Figure 2): a header, a schema, and one row block column per
//! column, covering up to 65,536 consecutively-arrived rows.
//!
//! The header records "its size in bytes, the number of rows in it (it may
//! not be full), the minimum and maximum timestamps of rows it contains,
//! and when the row block was first created" (§2.1). The min/max
//! timestamps drive block pruning: "Nearly all queries contain predicates
//! on time; the minimum and maximum timestamps are used to decide whether
//! to even look at a row block when processing a query."
//!
//! A row block also knows how to serialize itself into a single contiguous
//! image (header | schema | column lengths | column buffers | crc). The
//! shared-memory layout (Figure 4) and the fast disk format both store
//! exactly this image.

use std::path::PathBuf;
use std::sync::Arc;

use scuba_checksum::crc32;

use crate::column::ColumnData;
use crate::error::{Error, Result};
use crate::rbc::RowBlockColumn;
use crate::schema::Schema;
use crate::types::Value;
use crate::zone::ZoneMap;

/// "RBLK" little-endian.
pub const ROWBLOCK_MAGIC: u32 = 0x4B4C_4252;
/// Layout version of the row block image.
pub const ROWBLOCK_VERSION: u32 = 1;

/// Fixed metadata kept for every row block (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowBlockHeader {
    /// Encoded size of the block in bytes (all column buffers + metadata).
    pub size_bytes: u64,
    /// Number of rows (may be less than the 65,536 cap).
    pub row_count: u32,
    /// Minimum `time` value of any row in the block.
    pub min_time: i64,
    /// Maximum `time` value of any row in the block.
    pub max_time: i64,
    /// Unix timestamp at which the block was first created.
    pub created_at: i64,
}

/// Where a cold (disk fast-format) block's serialized image lives: the
/// cold file plus the byte range of the block image inside it (past the
/// TLV frame header). Carried by the block so restart manifests can
/// re-attach the cold tier without any side-channel state, and so
/// demotion bookkeeping (file GC, budget accounting) is self-describing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColdRef {
    /// Absolute path of the fast-format cold file.
    pub path: PathBuf,
    /// Byte offset of the block image within the file.
    pub offset: u64,
    /// Length of the block image in bytes.
    pub len: u64,
}

/// An immutable, encoded block of rows.
#[derive(Debug, Clone)]
pub struct RowBlock {
    header: RowBlockHeader,
    schema: Schema,
    columns: Vec<RowBlockColumn>,
    /// Per-column min/max statistics computed at seal time. Derived
    /// metadata: not part of the serialized v1 image (blocks parsed from
    /// one run without pruning) and excluded from equality.
    zones: Option<ZoneMap>,
    /// Set when this block's columns are served from a disk fast-format
    /// mmap (the Cold residency state). Provenance metadata like `zones`:
    /// excluded from equality, cleared by [`RowBlock::to_heap`].
    cold_ref: Option<ColdRef>,
}

/// Zone maps are derived, best-effort metadata — two blocks holding the
/// same data are equal whether or not statistics were (re)computed.
impl PartialEq for RowBlock {
    fn eq(&self, other: &RowBlock) -> bool {
        self.header == other.header && self.schema == other.schema && self.columns == other.columns
    }
}

impl RowBlock {
    /// Assemble a block from encoded parts. `columns` must match `schema`
    /// in count and order; the builder is the normal caller.
    pub fn from_parts(
        mut header: RowBlockHeader,
        schema: Schema,
        columns: Vec<RowBlockColumn>,
    ) -> Result<RowBlock> {
        if columns.len() != schema.len() {
            return Err(Error::Corrupt("column count does not match schema"));
        }
        for (i, col) in columns.iter().enumerate() {
            let declared = schema.column(i).unwrap().1;
            let actual = col.column_type()?;
            if declared != actual {
                return Err(Error::TypeMismatch {
                    column: schema.column(i).unwrap().0.to_owned(),
                    expected: declared.name(),
                    found: actual.name(),
                });
            }
            if col.n_items()? != header.row_count as usize {
                return Err(Error::Corrupt("column row count does not match header"));
            }
        }
        header.size_bytes = Self::image_size(&schema, &columns) as u64;
        Ok(RowBlock {
            header,
            schema,
            columns,
            zones: None,
            cold_ref: None,
        })
    }

    /// Attach (or clear) zone statistics. The builder attaches freshly
    /// computed stats at seal; the restore path re-attaches persisted ones.
    pub fn with_zones(mut self, zones: Option<ZoneMap>) -> RowBlock {
        self.zones = zones;
        self
    }

    /// Zone statistics, if this block carries them.
    pub fn zones(&self) -> Option<&ZoneMap> {
        self.zones.as_ref()
    }

    /// Attach (or clear) the cold-tier provenance of this block. The leaf
    /// demotion path attaches it after writing the block image to a cold
    /// file; the restart attach path re-attaches persisted refs.
    pub fn with_cold_ref(mut self, cold_ref: Option<ColdRef>) -> RowBlock {
        self.cold_ref = cold_ref;
        self
    }

    /// Where this block's image lives on the cold tier, if demoted.
    pub fn cold_ref(&self) -> Option<&ColdRef> {
        self.cold_ref.as_ref()
    }

    /// True if this block is served from a disk fast-format mapping (the
    /// Cold residency state).
    pub fn is_cold(&self) -> bool {
        self.cold_ref.is_some()
    }

    /// The block header.
    pub fn header(&self) -> &RowBlockHeader {
        &self.header
    }

    /// The block schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.header.row_count as usize
    }

    /// True if the block's `[min_time, max_time]` intersects
    /// `[from, to)` — the pruning test from §2.1.
    pub fn overlaps_time(&self, from: i64, to: i64) -> bool {
        self.header.min_time < to && self.header.max_time >= from
    }

    /// The encoded column for `name`, if this block carries it.
    pub fn column(&self, name: &str) -> Option<&RowBlockColumn> {
        self.schema.index_of(name).map(|i| &self.columns[i])
    }

    /// All encoded columns, schema order.
    pub fn columns(&self) -> &[RowBlockColumn] {
        &self.columns
    }

    /// Decode one column to heap data; `None` if the block lacks it.
    pub fn decode_column(&self, name: &str) -> Option<Result<ColumnData>> {
        self.column(name).map(|c| c.decode())
    }

    /// Decode the whole block back into rows (used by disk-backup writes
    /// and tests; queries decode only the columns they touch).
    pub fn decode_rows(&self) -> Result<Vec<crate::row::Row>> {
        let time_col = self
            .decode_column(crate::TIME_COLUMN)
            .ok_or(Error::MissingTime)??;
        let mut decoded: Vec<(String, ColumnData)> = Vec::new();
        for (name, _) in self.schema.iter() {
            if name == crate::TIME_COLUMN {
                continue;
            }
            decoded.push((name.to_owned(), self.column(name).unwrap().decode()?));
        }
        let mut rows = Vec::with_capacity(self.row_count());
        for i in 0..self.row_count() {
            let t = time_col
                .get(i)
                .as_int()
                .ok_or(Error::Corrupt("time column contains a null"))?;
            let mut row = crate::row::Row::at(t);
            for (name, col) in &decoded {
                let v = col.get(i);
                if !v.is_null() {
                    row.set(name, v);
                }
            }
            rows.push(row);
        }
        Ok(rows)
    }

    /// Encoded size of the block image in bytes.
    pub fn image_bytes(&self) -> usize {
        self.header.size_bytes as usize
    }

    /// Sum of the encoded column buffer sizes (excludes image framing).
    pub fn column_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.len_bytes()).sum()
    }

    /// Bytes of this block served out of shared mappings instead of heap.
    pub fn mapped_bytes(&self) -> usize {
        self.columns
            .iter()
            .filter(|c| c.is_mapped())
            .map(|c| c.len_bytes())
            .sum()
    }

    /// True if any column is backed by a shared mapping (an attached
    /// block, or a cold one).
    pub fn is_mapped(&self) -> bool {
        self.columns.iter().any(|c| c.is_mapped())
    }

    /// Copy every mapped column to heap (identity for heap blocks). A
    /// promotion calls this after [`Self::verify_columns`]. Clears
    /// the cold ref: a heap copy is no longer served from the cold tier.
    pub fn to_heap(&self) -> RowBlock {
        RowBlock {
            header: self.header,
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.to_heap()).collect(),
            zones: self.zones.clone(),
            cold_ref: None,
        }
    }

    /// Check, in place and without copying, the footer CRC of every
    /// column whose construction deferred it — the mapped ones; heap
    /// columns were checked when adopted. Everyone about to copy or
    /// persist a cold or shm-backed block calls this (promotion, demotion,
    /// disk reconcile); a query checks only what it reads
    /// ([`Self::verify_columns_for`]). Each column's verify-once latch
    /// ([`RowBlockColumn::verify_checksum`]) makes the first toucher pay
    /// and hands the rest the same outcome.
    pub fn verify_columns(&self) -> Result<()> {
        for col in self.columns.iter().filter(|c| c.is_mapped()) {
            col.verify_checksum()?;
        }
        Ok(())
    }

    /// [`Self::verify_columns`] narrowed to the columns in `names` (names
    /// the block lacks are skipped): what a query owes before it scans.
    /// The columns it does not read stay unverified until whoever copies
    /// the block checks them.
    pub fn verify_columns_for(&self, names: &[&str]) -> Result<()> {
        for col in names.iter().filter_map(|n| self.column(n)) {
            if col.is_mapped() {
                col.verify_checksum()?;
            }
        }
        Ok(())
    }

    /// True once every mapped column in `names` has passed its deferred
    /// check (vacuously for heap columns and absent names) — a latch
    /// read, no CRC work.
    pub fn columns_verified(&self, names: &[&str]) -> bool {
        names
            .iter()
            .filter_map(|n| self.column(n))
            .all(|c| c.is_verified())
    }

    fn image_size(schema: &Schema, columns: &[RowBlockColumn]) -> usize {
        // header fields (fixed) + schema + per-column u64 length + buffers + crc
        4 + 4
            + 8
            + 4
            + 8
            + 8
            + 8
            + schema.serialized_size()
            + 4
            + columns.iter().map(|c| 8 + c.len_bytes()).sum::<usize>()
            + 4
    }

    /// Serialize the block into a contiguous image. The image is position
    /// independent: all internal structure is length-delimited, and each
    /// column buffer keeps its own offset-based addressing, so the image
    /// can be memcpy'd into shared memory or written to disk as-is.
    pub fn serialize(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&ROWBLOCK_MAGIC.to_le_bytes());
        out.extend_from_slice(&ROWBLOCK_VERSION.to_le_bytes());
        out.extend_from_slice(&self.header.size_bytes.to_le_bytes());
        out.extend_from_slice(&self.header.row_count.to_le_bytes());
        out.extend_from_slice(&self.header.min_time.to_le_bytes());
        out.extend_from_slice(&self.header.max_time.to_le_bytes());
        out.extend_from_slice(&self.header.created_at.to_le_bytes());
        self.schema.serialize(out);
        out.extend_from_slice(&(self.columns.len() as u32).to_le_bytes());
        for col in &self.columns {
            out.extend_from_slice(&(col.len_bytes() as u64).to_le_bytes());
            out.extend_from_slice(col.as_bytes());
        }
        let crc = crc32(&out[start..]);
        out.extend_from_slice(&crc.to_le_bytes());
        debug_assert_eq!(out.len() - start, self.header.size_bytes as usize);
    }

    /// Parse a block image from `buf` at `pos`; returns the block and the
    /// position just past it. Validates magics, version, per-column
    /// checksums, and the image CRC.
    pub fn deserialize(buf: &[u8], pos: usize) -> Result<(RowBlock, usize)> {
        let start = pos;
        let need = |n: usize| -> Result<()> {
            if pos + n > buf.len() {
                Err(Error::Truncated {
                    needed: pos + n,
                    available: buf.len(),
                })
            } else {
                Ok(())
            }
        };
        need(44)?;
        let u32_at = |off: usize| u32::from_le_bytes(buf[off..off + 4].try_into().unwrap());
        let u64_at = |off: usize| u64::from_le_bytes(buf[off..off + 8].try_into().unwrap());
        let i64_at = |off: usize| i64::from_le_bytes(buf[off..off + 8].try_into().unwrap());
        let magic = u32_at(pos);
        if magic != ROWBLOCK_MAGIC {
            return Err(Error::BadMagic {
                expected: ROWBLOCK_MAGIC,
                found: magic,
            });
        }
        let version = u32_at(pos + 4);
        if version != ROWBLOCK_VERSION {
            return Err(Error::UnsupportedVersion(version));
        }
        let size_bytes = u64_at(pos + 8);
        if size_bytes as usize > buf.len() - start {
            return Err(Error::Truncated {
                needed: start + size_bytes as usize,
                available: buf.len(),
            });
        }
        let header = RowBlockHeader {
            size_bytes,
            row_count: u32_at(pos + 16),
            min_time: i64_at(pos + 20),
            max_time: i64_at(pos + 28),
            created_at: i64_at(pos + 36),
        };
        let mut p = pos + 44;
        let (schema, q) = Schema::deserialize(buf, p)?;
        p = q;
        if p + 4 > buf.len() {
            return Err(Error::Truncated {
                needed: p + 4,
                available: buf.len(),
            });
        }
        let n_cols = u32::from_le_bytes(buf[p..p + 4].try_into().unwrap()) as usize;
        p += 4;
        if n_cols != schema.len() {
            return Err(Error::Corrupt("column count does not match schema"));
        }
        let mut columns = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            if p + 8 > buf.len() {
                return Err(Error::Truncated {
                    needed: p + 8,
                    available: buf.len(),
                });
            }
            let len = u64::from_le_bytes(buf[p..p + 8].try_into().unwrap()) as usize;
            p += 8;
            if p + len > buf.len() {
                return Err(Error::Truncated {
                    needed: p + len,
                    available: buf.len(),
                });
            }
            columns.push(RowBlockColumn::from_bytes(
                buf[p..p + len].to_vec().into_boxed_slice(),
            )?);
            p += len;
        }
        if p + 4 > buf.len() {
            return Err(Error::Truncated {
                needed: p + 4,
                available: buf.len(),
            });
        }
        let stored_crc = u32::from_le_bytes(buf[p..p + 4].try_into().unwrap());
        let computed = crc32(&buf[start..p]);
        if stored_crc != computed {
            return Err(Error::ChecksumMismatch {
                expected: stored_crc,
                found: computed,
            });
        }
        p += 4;
        if p - start != size_bytes as usize {
            return Err(Error::BadOffset("row block image size mismatch"));
        }
        let block = RowBlock::from_parts(header, schema, columns)?;
        Ok((block, p))
    }

    /// Parse a block image in place from a shared read-only mapping at
    /// `pos`, building `Mapped` columns that borrow the backing instead of
    /// copying. Validates magics, version, structure, and each column's
    /// header + end magic, but — unlike [`RowBlock::deserialize`] — defers
    /// the CRC work (per-column footer CRCs and the image CRC) so attach
    /// stays O(metadata) and does not page the whole mapping in. Callers
    /// must run [`RowBlock::verify_columns`] — or, to scan,
    /// [`RowBlock::verify_columns_for`] the columns they read — before
    /// first trusting the data, mirroring the shm attach path.
    pub fn deserialize_mapped(
        backing: &Arc<dyn AsRef<[u8]> + Send + Sync>,
        pos: usize,
    ) -> Result<(RowBlock, usize)> {
        let buf: &[u8] = (**backing).as_ref();
        let start = pos;
        if pos + 44 > buf.len() {
            return Err(Error::Truncated {
                needed: pos + 44,
                available: buf.len(),
            });
        }
        let u32_at = |off: usize| u32::from_le_bytes(buf[off..off + 4].try_into().unwrap());
        let u64_at = |off: usize| u64::from_le_bytes(buf[off..off + 8].try_into().unwrap());
        let i64_at = |off: usize| i64::from_le_bytes(buf[off..off + 8].try_into().unwrap());
        let magic = u32_at(pos);
        if magic != ROWBLOCK_MAGIC {
            return Err(Error::BadMagic {
                expected: ROWBLOCK_MAGIC,
                found: magic,
            });
        }
        let version = u32_at(pos + 4);
        if version != ROWBLOCK_VERSION {
            return Err(Error::UnsupportedVersion(version));
        }
        let size_bytes = u64_at(pos + 8);
        if size_bytes as usize > buf.len() - start {
            return Err(Error::Truncated {
                needed: start + size_bytes as usize,
                available: buf.len(),
            });
        }
        let header = RowBlockHeader {
            size_bytes,
            row_count: u32_at(pos + 16),
            min_time: i64_at(pos + 20),
            max_time: i64_at(pos + 28),
            created_at: i64_at(pos + 36),
        };
        let mut p = pos + 44;
        let (schema, q) = Schema::deserialize(buf, p)?;
        p = q;
        if p + 4 > buf.len() {
            return Err(Error::Truncated {
                needed: p + 4,
                available: buf.len(),
            });
        }
        let n_cols = u32::from_le_bytes(buf[p..p + 4].try_into().unwrap()) as usize;
        p += 4;
        if n_cols != schema.len() {
            return Err(Error::Corrupt("column count does not match schema"));
        }
        let mut columns = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            if p + 8 > buf.len() {
                return Err(Error::Truncated {
                    needed: p + 8,
                    available: buf.len(),
                });
            }
            let len = u64::from_le_bytes(buf[p..p + 8].try_into().unwrap()) as usize;
            p += 8;
            if p + len > buf.len() {
                return Err(Error::Truncated {
                    needed: p + len,
                    available: buf.len(),
                });
            }
            columns.push(RowBlockColumn::from_mapped(Arc::clone(backing), p, len)?);
            p += len;
        }
        if p + 4 > buf.len() {
            return Err(Error::Truncated {
                needed: p + 4,
                available: buf.len(),
            });
        }
        p += 4; // image CRC: present but deferred (see doc comment)
        if p - start != size_bytes as usize {
            return Err(Error::BadOffset("row block image size mismatch"));
        }
        let block = RowBlock::from_parts(header, schema, columns)?;
        Ok((block, p))
    }

    /// Project one cell (used by tests and the row-decode path).
    pub fn cell(&self, row: usize, column: &str) -> Result<Value> {
        match self.decode_column(column) {
            None => Ok(Value::Null),
            Some(col) => Ok(col?.get(row)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::RowBlockBuilder;
    use crate::row::Row;

    fn sample_block() -> RowBlock {
        let mut b = RowBlockBuilder::new(1000);
        for i in 0..50i64 {
            let mut row = Row::at(1000 + i).with("code", 200 + (i % 3) * 100);
            if i % 2 == 0 {
                row.set("msg", format!("error {}", i % 5));
            }
            b.push_row(&row).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn header_tracks_times_and_counts() {
        let block = sample_block();
        assert_eq!(block.row_count(), 50);
        assert_eq!(block.header().min_time, 1000);
        assert_eq!(block.header().max_time, 1049);
        assert_eq!(block.header().created_at, 1000);
        assert_eq!(block.image_bytes(), {
            let mut v = Vec::new();
            block.serialize(&mut v);
            v.len()
        });
    }

    #[test]
    fn time_pruning_overlap() {
        let block = sample_block(); // spans [1000, 1049]
        assert!(block.overlaps_time(1000, 1050));
        assert!(block.overlaps_time(1049, 1050));
        assert!(block.overlaps_time(0, 1001));
        assert!(!block.overlaps_time(1050, 2000));
        assert!(!block.overlaps_time(0, 1000));
    }

    #[test]
    fn serialize_round_trip() {
        let block = sample_block();
        let mut buf = vec![0xCC; 7]; // offset start
        let start = buf.len();
        block.serialize(&mut buf);
        let (parsed, end) = RowBlock::deserialize(&buf, start).unwrap();
        assert_eq!(end, buf.len());
        assert_eq!(parsed, block);
    }

    #[test]
    fn image_crc_detects_corruption() {
        let block = sample_block();
        let mut buf = Vec::new();
        block.serialize(&mut buf);
        // Flip a byte inside the schema region (not covered by RBC checksums).
        buf[50] ^= 0x55;
        assert!(RowBlock::deserialize(&buf, 0).is_err());
    }

    #[test]
    fn truncated_image_rejected() {
        let block = sample_block();
        let mut buf = Vec::new();
        block.serialize(&mut buf);
        for cut in [0, 10, 43, buf.len() / 2, buf.len() - 1] {
            assert!(RowBlock::deserialize(&buf[..cut], 0).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn decode_rows_matches_input() {
        let block = sample_block();
        let rows = block.decode_rows().unwrap();
        assert_eq!(rows.len(), 50);
        assert_eq!(rows[0].time(), 1000);
        assert_eq!(rows[0].get("code"), Some(&Value::Int(200)));
        assert_eq!(rows[0].get("msg"), Some(&Value::from("error 0")));
        assert_eq!(rows[1].get("msg"), None); // odd rows had no msg
    }

    #[test]
    fn cell_projection() {
        let block = sample_block();
        assert_eq!(block.cell(3, "code").unwrap(), Value::Int(200));
        assert_eq!(block.cell(3, "msg").unwrap(), Value::Null);
        assert_eq!(block.cell(0, "absent").unwrap(), Value::Null);
    }

    #[test]
    fn deserialize_mapped_is_zero_copy_and_equal() {
        let block = sample_block();
        let mut buf = vec![0xAB; 13]; // offset start
        let start = buf.len();
        block.serialize(&mut buf);
        let backing: Arc<dyn AsRef<[u8]> + Send + Sync> = Arc::new(buf.clone());
        let (parsed, end) = RowBlock::deserialize_mapped(&backing, start).unwrap();
        assert_eq!(end, buf.len());
        assert_eq!(parsed, block);
        assert!(parsed.is_mapped());
        assert!(parsed.columns().iter().all(|c| c.is_mapped()));
        parsed.verify_columns().unwrap();
        // The heap copy round-trips and drops the mapping.
        let heap = parsed.to_heap();
        assert_eq!(heap, block);
        assert!(!heap.is_mapped());
    }

    #[test]
    fn verify_columns_for_checks_only_the_named_columns() {
        let block = sample_block();
        let mut buf = Vec::new();
        block.serialize(&mut buf);
        let backing: Arc<dyn AsRef<[u8]> + Send + Sync> = Arc::new(buf);
        let (mapped, _) = RowBlock::deserialize_mapped(&backing, 0).unwrap();
        let verified = |name: &str| mapped.column(name).unwrap().is_verified();
        assert!(!mapped.columns_verified(&[crate::TIME_COLUMN]));
        // Names the block lacks are skipped, not errors.
        mapped
            .verify_columns_for(&[crate::TIME_COLUMN, "absent"])
            .unwrap();
        assert!(mapped.columns_verified(&[crate::TIME_COLUMN, "absent"]));
        assert!(verified(crate::TIME_COLUMN) && !verified("code") && !verified("msg"));
        assert!(!mapped.columns_verified(&["code"]));
        mapped.verify_columns().unwrap();
        assert!(verified("code") && verified("msg"));
        // Heap columns have nothing deferred.
        assert!(block.columns_verified(&["code", "msg"]));
        block.verify_columns_for(&["code"]).unwrap();
    }

    #[test]
    fn deserialize_mapped_rejects_truncation() {
        let block = sample_block();
        let mut buf = Vec::new();
        block.serialize(&mut buf);
        for cut in [0, 10, 43, buf.len() / 2, buf.len() - 1] {
            let backing: Arc<dyn AsRef<[u8]> + Send + Sync> = Arc::new(buf[..cut].to_vec());
            assert!(
                RowBlock::deserialize_mapped(&backing, 0).is_err(),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn cold_ref_is_provenance_not_identity() {
        let block = sample_block();
        let cold = block.clone().with_cold_ref(Some(ColdRef {
            path: PathBuf::from("/tmp/x.cold"),
            offset: 20,
            len: 1234,
        }));
        assert!(cold.is_cold());
        assert_eq!(cold, block); // excluded from equality, like zones
        let heap = cold.to_heap();
        assert!(!heap.is_cold()); // cleared by the heap copy
    }

    #[test]
    fn from_parts_validates_counts_and_types() {
        let block = sample_block();
        let schema = block.schema().clone();
        let mut columns: Vec<RowBlockColumn> = block.columns().to_vec();
        columns.pop();
        assert!(RowBlock::from_parts(*block.header(), schema, columns).is_err());
    }
}
