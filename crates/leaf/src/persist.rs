//! [`LeafStore`]: the leaf's in-memory state, wired into the restart
//! protocol via [`ShmPersistable`].
//!
//! Chunk granularity follows the paper exactly: within each table's
//! segment, the stream is a table manifest, then per row block a small
//! prelude (header + schema) followed by **one chunk per row block
//! column** — each of those chunks is the single-`memcpy` RBC buffer of
//! Figure 3. Heap memory is freed as chunks are emitted ("delete row
//! block column from heap ... delete row block from heap ... delete table
//! from heap", Figure 6), so the combined footprint stays flat (§4.4).
//!
//! The stream is written in the self-describing v2 TLV framing: every
//! chunk carries a tag ([`TAG_MANIFEST`], [`TAG_PRELUDE`],
//! [`TAG_COLUMN`]) and a per-tag format version, and the manifest carries
//! the table-level schema snapshot. Decode is tag-driven: older chunk
//! versions are upgraded through the [`ShimRegistry`], unknown-but-
//! skippable chunks are ignored, and an unknown *required* chunk is a
//! per-table incompatibility ([`PersistError::Incompatible`]) — the
//! protocol skips just that table. Images from the pre-TLV (v1) writer
//! surface with legacy descriptors and take the positional decode path.

use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use scuba_columnstore::{
    ColdRef, LeafMap, Result as StoreResult, Row, RowBlock, RowBlockColumn, Schema, Table, ZoneMap,
};
use scuba_restart::framing::TAG_STORE_BASE;
use scuba_restart::migrate::{MigrateError, ShimRegistry};
use scuba_restart::{
    ChunkDesc, ChunkSink, ChunkSource, MappedChunk, MappedChunkSource, ShmPersistable,
};
use scuba_shmem::ShmError;

/// Chunk tag: the table manifest (block count + schema snapshot).
pub const TAG_MANIFEST: u16 = TAG_STORE_BASE;
/// Chunk tag: one row block's prelude (header + block schema).
pub const TAG_PRELUDE: u16 = TAG_STORE_BASE + 1;
/// Chunk tag: one row block column's single-memcpy buffer.
pub const TAG_COLUMN: u16 = TAG_STORE_BASE + 2;
/// Chunk tag: one row block's zone map (per-column min/max statistics for
/// query-time block pruning). Written *skippable*: the image stays
/// readable by binaries that predate zone maps, which simply lose the
/// pruning, not the data.
pub const TAG_ZONES: u16 = TAG_STORE_BASE + 3;
/// Chunk tag: a cold-block reference (cold file path + image offset +
/// length) standing in for the prelude + column chunks of a block that
/// lives on the disk fast-format tier. Written *required* (not
/// skippable): a reader that skipped it would silently drop data, so an
/// old binary takes the per-table disk fallback instead — which is also
/// the correct recovery when the cold file itself is gone or corrupt.
pub const TAG_COLDREF: u16 = TAG_STORE_BASE + 4;

/// Current manifest payload version: v1 was the bare block count, v2
/// appends the table-level schema snapshot.
pub const MANIFEST_VERSION: u16 = 2;
/// Current prelude payload version.
pub const PRELUDE_VERSION: u16 = 1;
/// Current column payload version.
pub const COLUMN_VERSION: u16 = 1;
/// Current zone-map payload version.
pub const ZONES_VERSION: u16 = 1;
/// Current cold-ref payload version.
pub const COLDREF_VERSION: u16 = 1;

/// Error produced while (de)serializing leaf state for the protocol.
#[derive(Debug)]
pub enum PersistError {
    /// Column-store error (encode/decode/validation).
    Store(scuba_columnstore::Error),
    /// Shared-memory error propagated through a sink/source.
    Shm(ShmError),
    /// Framing violation (wrong chunk count, bad prelude...).
    Framing(String),
    /// A format this binary cannot understand: an unknown required chunk
    /// tag, or a chunk version with no shim path to the current one. The
    /// protocol treats this as *per-table* — the one unit is skipped and
    /// disk-recovered, the rest of the leaf restores from memory.
    Incompatible(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Store(e) => write!(f, "store error: {e}"),
            PersistError::Shm(e) => write!(f, "shared memory error: {e}"),
            PersistError::Framing(m) => write!(f, "framing error: {m}"),
            PersistError::Incompatible(m) => write!(f, "incompatible format: {m}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<ShmError> for PersistError {
    fn from(e: ShmError) -> Self {
        PersistError::Shm(e)
    }
}

impl From<scuba_columnstore::Error> for PersistError {
    fn from(e: scuba_columnstore::Error) -> Self {
        PersistError::Store(e)
    }
}

/// The leaf's in-memory store: a [`LeafMap`] plus persistence plumbing.
#[derive(Debug, Default)]
pub struct LeafStore {
    map: LeafMap,
}

impl LeafStore {
    /// An empty store.
    pub fn new() -> LeafStore {
        LeafStore {
            map: LeafMap::new(),
        }
    }

    /// Adopt a recovered leaf map (disk recovery path).
    pub fn from_map(map: LeafMap) -> LeafStore {
        LeafStore { map }
    }

    /// The underlying table map.
    pub fn map(&self) -> &LeafMap {
        &self.map
    }

    /// Mutable access to the table map.
    pub fn map_mut(&mut self) -> &mut LeafMap {
        &mut self.map
    }

    /// Append rows to a table, creating it if needed.
    pub fn append_rows(&mut self, table: &str, rows: &[Row], now: i64) -> StoreResult<()> {
        let t = self.map.get_or_create(table, now);
        for row in rows {
            t.append(row, now)?;
        }
        Ok(())
    }

    /// Seal every table's in-progress builder (pre-shutdown and
    /// pre-backup step: only sealed blocks are persisted to shm).
    pub fn seal_all(&mut self, now: i64) -> StoreResult<()> {
        for t in self.map.iter_mut() {
            t.seal(now)?;
        }
        Ok(())
    }
}

/// Serialize a row block prelude (everything but the column buffers).
pub(crate) fn write_prelude(block: &RowBlock, out: &mut Vec<u8>) {
    let h = block.header();
    out.extend_from_slice(&h.row_count.to_le_bytes());
    out.extend_from_slice(&h.min_time.to_le_bytes());
    out.extend_from_slice(&h.max_time.to_le_bytes());
    out.extend_from_slice(&h.created_at.to_le_bytes());
    out.extend_from_slice(&(block.columns().len() as u32).to_le_bytes());
    block.schema().serialize(out);
}

/// Parse a prelude; returns (header fields, n_columns, schema).
fn read_prelude(buf: &[u8]) -> Result<(u32, i64, i64, i64, u32, Schema), PersistError> {
    if buf.len() < 32 {
        return Err(PersistError::Framing("prelude too short".to_owned()));
    }
    let row_count = u32::from_le_bytes(buf[0..4].try_into().unwrap());
    let min_time = i64::from_le_bytes(buf[4..12].try_into().unwrap());
    let max_time = i64::from_le_bytes(buf[12..20].try_into().unwrap());
    let created_at = i64::from_le_bytes(buf[20..28].try_into().unwrap());
    let n_columns = u32::from_le_bytes(buf[28..32].try_into().unwrap());
    let (schema, end) = Schema::deserialize(buf, 32)?;
    if end != buf.len() {
        return Err(PersistError::Framing(
            "trailing bytes in prelude".to_owned(),
        ));
    }
    Ok((row_count, min_time, max_time, created_at, n_columns, schema))
}

/// Upgrade a v1 manifest (bare block count) to v2 by appending an empty
/// schema snapshot — "unknown, derive from the blocks", which is exactly
/// what a v1 writer's image can promise.
fn manifest_v1_to_v2(payload: &[u8]) -> Result<Vec<u8>, String> {
    if payload.len() != 8 {
        return Err(format!("bad v1 manifest size {}", payload.len()));
    }
    let mut out = payload.to_vec();
    Schema::new().serialize(&mut out);
    Ok(out)
}

/// The leaf's shim registry: every chunk tag it understands, its current
/// payload version per tag, and the upgrade edges from older versions.
fn shim_registry() -> &'static ShimRegistry {
    static REG: OnceLock<ShimRegistry> = OnceLock::new();
    REG.get_or_init(|| {
        let mut reg = ShimRegistry::new();
        reg.declare(TAG_MANIFEST, MANIFEST_VERSION)
            .shim(TAG_MANIFEST, 1, manifest_v1_to_v2)
            .declare(TAG_PRELUDE, PRELUDE_VERSION)
            .declare(TAG_COLUMN, COLUMN_VERSION)
            .declare(TAG_ZONES, ZONES_VERSION)
            .declare(TAG_COLDREF, COLDREF_VERSION);
        reg
    })
}

/// Map a migration failure onto the persist error taxonomy: a shim
/// rejecting its input means the payload is malformed (corruption-class,
/// whole-leaf fallback); everything else — unknown tag, missing shim,
/// from-the-future version — is a true per-table incompatibility.
fn migrate_err(e: MigrateError) -> PersistError {
    match e {
        MigrateError::ShimFailed { .. } => PersistError::Framing(e.to_string()),
        _ => PersistError::Incompatible(e.to_string()),
    }
}

/// Pull the next chunk the leaf understands: unknown-but-skippable chunks
/// are ignored (the writer promised we may), unknown required tags are a
/// per-table incompatibility, and known tags have their payloads upgraded
/// to the current version through the shim registry.
fn next_known(source: &mut dyn ChunkSource) -> Result<Option<(ChunkDesc, Vec<u8>)>, PersistError> {
    let reg = shim_registry();
    loop {
        let Some((desc, payload)) = source.next_chunk()? else {
            return Ok(None);
        };
        if reg.current_version(desc.tag).is_none() {
            if desc.is_skippable() {
                continue;
            }
            return Err(PersistError::Incompatible(format!(
                "unknown required chunk tag {} in unit stream",
                desc.tag
            )));
        }
        let payload = reg
            .upgrade(desc.tag, desc.version, payload)
            .map_err(migrate_err)?;
        return Ok(Some((desc, payload)));
    }
}

/// A [`ChunkSource`] with one chunk pushed back (the grammar-dispatch
/// peek in `decode_unit`).
struct Peeked<'a> {
    head: Option<(ChunkDesc, Vec<u8>)>,
    rest: &'a mut dyn ChunkSource,
}

impl ChunkSource for Peeked<'_> {
    fn next_chunk(&mut self) -> Result<Option<(ChunkDesc, Vec<u8>)>, ShmError> {
        match self.head.take() {
            Some(c) => Ok(Some(c)),
            None => self.rest.next_chunk(),
        }
    }
}

/// A [`MappedChunkSource`] with one chunk pushed back.
struct PeekedMapped<'a> {
    head: Option<MappedChunk>,
    rest: &'a mut dyn MappedChunkSource,
}

impl MappedChunkSource for PeekedMapped<'_> {
    fn next_mapped_chunk(&mut self) -> Result<Option<MappedChunk>, ShmError> {
        match self.head.take() {
            Some(c) => Ok(Some(c)),
            None => self.rest.next_mapped_chunk(),
        }
    }
}

impl ShmPersistable for LeafStore {
    type Error = PersistError;
    type Unit = Table;

    fn unit_names(&self) -> Vec<String> {
        self.map.names().map(str::to_owned).collect()
    }

    fn estimate_unit_size(&self, unit: &str) -> usize {
        // Figure 6: "estimate size of table". Encoded bytes plus framing
        // slack (prelude + zone chunk per block); the writer grows the
        // segment if this is low. Cold blocks contribute only their small
        // reference chunk (covered by the per-block slack), not their
        // image bytes — those stay on disk.
        self.map
            .get(unit)
            .map(|t| {
                let zone_bytes: usize = t
                    .blocks()
                    .iter()
                    .filter_map(|b| b.zones())
                    .map(|z| z.serialized_size())
                    .sum();
                t.encoded_bytes().saturating_sub(t.cold_bytes())
                    + t.blocks().len() * 256
                    + zone_bytes
                    + 1024
            })
            .unwrap_or(0)
    }

    fn extract_unit(&mut self, unit: &str) -> Result<Table, Self::Error> {
        // "delete table from heap" — the table leaves the map here, under
        // the coordinator; a worker thread serializes and frees it.
        self.map
            .remove(unit)
            .ok_or_else(|| PersistError::Framing(format!("unknown table {unit:?}")))
    }

    fn unit_heap_bytes(unit: &Table) -> usize {
        unit.heap_bytes()
    }

    fn backup_extracted(table: Table, sink: &mut dyn ChunkSink) -> Result<(), Self::Error> {
        let snapshot = table.schema_snapshot();
        let (blocks, _builder) = decompose(table);

        let mut manifest = Vec::with_capacity(8 + snapshot.serialized_size());
        manifest.extend_from_slice(&(blocks.len() as u64).to_le_bytes());
        snapshot.serialize(&mut manifest);
        sink.put_chunk(ChunkDesc::new(TAG_MANIFEST, MANIFEST_VERSION), &manifest)?;

        for block in blocks {
            // A cold block's bytes already live in a fast-format file on
            // disk: persist only the reference (plus zones), never copy
            // the image into shared memory. Restart re-attaches the cold
            // tier by mmap, keeping shm usage proportional to the *warm*
            // data only.
            if let Some(cr) = block.cold_ref() {
                let mut coldref = Vec::new();
                write_coldref(cr, &mut coldref);
                sink.put_chunk(ChunkDesc::new(TAG_COLDREF, COLDREF_VERSION), &coldref)?;
                write_zone_chunk(&block, sink)?;
                continue;
            }
            let mut prelude = Vec::new();
            write_prelude(&block, &mut prelude);
            sink.put_chunk(ChunkDesc::new(TAG_PRELUDE, PRELUDE_VERSION), &prelude)?;
            write_zone_chunk(&block, sink)?;
            // One chunk per row block column: the single-memcpy copy.
            // Unwrap the Arc if we are the last owner so the buffer is
            // freed as we go; clone-on-shared keeps correctness if a
            // query snapshot still holds the block.
            let block = Arc::try_unwrap(block).unwrap_or_else(|arc| (*arc).clone());
            for column in block.columns() {
                sink.put_chunk(
                    ChunkDesc::new(TAG_COLUMN, COLUMN_VERSION),
                    column.as_bytes(),
                )?;
            }
            // `block` (and each column buffer) freed here: "delete row
            // block column from heap; delete row block from heap".
        }
        Ok(())
    }

    fn decode_unit(unit: &str, source: &mut dyn ChunkSource) -> Result<Table, Self::Error> {
        // The first chunk's descriptor picks the grammar: legacy images
        // surface with tag 0 and decode positionally; TLV images decode
        // tag-driven.
        let Some(first) = source.next_chunk()? else {
            return Err(PersistError::Framing("missing table manifest".to_owned()));
        };
        if first.0.is_legacy() {
            decode_unit_legacy(unit, first.1, source)
        } else {
            decode_unit_v2(
                unit,
                &mut Peeked {
                    head: Some(first),
                    rest: source,
                },
            )
        }
    }

    fn attach_unit(unit: &str, source: &mut dyn MappedChunkSource) -> Result<Table, Self::Error> {
        // Zero-copy variant of `decode_unit`: small metadata chunks
        // (manifest, preludes) are copied to heap with their frame CRC
        // verified — they must outlive the mapping and cost O(metadata).
        // Column chunks stay *mapped*: structural validation only, with
        // the full payload CRC deferred to the first toucher
        // (`RowBlockColumn::verify_checksum`, once per column).
        let Some(first) = source.next_mapped_chunk()? else {
            return Err(PersistError::Framing("missing table manifest".to_owned()));
        };
        if first.desc.is_legacy() {
            attach_unit_legacy(unit, first, source)
        } else {
            attach_unit_v2(
                unit,
                &mut PeekedMapped {
                    head: Some(first),
                    rest: source,
                },
            )
        }
    }

    fn install_unit(&mut self, _unit: &str, table: Table) -> Result<(), Self::Error> {
        self.map.insert(table);
        Ok(())
    }

    fn unit_format_version(&self, _unit: &str) -> u32 {
        MANIFEST_VERSION as u32
    }

    fn error_is_incompatible(e: &Self::Error) -> bool {
        matches!(e, PersistError::Incompatible(_))
    }

    fn heap_bytes(&self) -> usize {
        self.map.heap_bytes()
    }
}

/// Emit a block's zone map as a skippable chunk (sits between the
/// prelude and the column chunks; absent when the block has no stats).
pub(crate) fn write_zone_chunk(
    block: &RowBlock,
    sink: &mut dyn ChunkSink,
) -> Result<(), PersistError> {
    if let Some(zones) = block.zones().filter(|z| !z.is_empty()) {
        let mut payload = Vec::new();
        zones.serialize(&mut payload);
        sink.put_chunk(
            ChunkDesc::new(TAG_ZONES, ZONES_VERSION).skippable(),
            &payload,
        )?;
    }
    Ok(())
}

/// Parse a zone-map payload; a malformed one is corruption-class
/// ([`PersistError::Framing`] → whole-unit disk fallback), never silently
/// dropped — wrong statistics would silently wrong query answers.
fn read_zones(payload: &[u8]) -> Result<scuba_columnstore::ZoneMap, PersistError> {
    scuba_columnstore::ZoneMap::deserialize(payload)
        .map_err(|e| PersistError::Framing(format!("bad zone chunk: {e}")))
}

/// Serialize a cold-block reference: the cold file path (u32 length +
/// UTF-8 bytes) followed by the block image's offset and length within
/// that file.
pub(crate) fn write_coldref(cr: &ColdRef, out: &mut Vec<u8>) {
    let path = cr.path.to_string_lossy();
    let bytes = path.as_bytes();
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
    out.extend_from_slice(&cr.offset.to_le_bytes());
    out.extend_from_slice(&cr.len.to_le_bytes());
}

/// Parse a cold-ref payload.
fn read_coldref(buf: &[u8]) -> Result<ColdRef, PersistError> {
    if buf.len() < 4 {
        return Err(PersistError::Framing("cold ref too short".to_owned()));
    }
    let path_len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    if buf.len() != 4 + path_len + 16 {
        return Err(PersistError::Framing(format!(
            "bad cold ref size {} (path {path_len} bytes)",
            buf.len()
        )));
    }
    let path = std::str::from_utf8(&buf[4..4 + path_len])
        .map_err(|_| PersistError::Framing("cold ref path is not utf-8".to_owned()))?;
    let offset = u64::from_le_bytes(buf[4 + path_len..12 + path_len].try_into().unwrap());
    let len = u64::from_le_bytes(buf[12 + path_len..20 + path_len].try_into().unwrap());
    Ok(ColdRef {
        path: PathBuf::from(path),
        offset,
        len,
    })
}

/// Per-unit cache of cold-file mappings: all cold blocks of one table
/// live in one fast-format file, which is mmapped once and shared.
type ColdMaps = HashMap<PathBuf, Arc<dyn AsRef<[u8]> + Send + Sync>>;

/// Re-attach one cold block from its fast-format file, without copying
/// its bytes. Any failure — missing file, mmap error, structural
/// corruption, ref out of bounds — is a *per-table* incompatibility: the
/// restore path disk-recovers just that table (the §4.3 conservatism,
/// narrowed per-table).
fn attach_cold_block(
    cr: ColdRef,
    zones: Option<ZoneMap>,
    maps: &mut ColdMaps,
) -> Result<Arc<RowBlock>, PersistError> {
    let backing = match maps.get(&cr.path) {
        Some(b) => Arc::clone(b),
        None => {
            let map = scuba_diskstore::ColdMap::open(&cr.path)
                .map_err(|e| PersistError::Incompatible(format!("cold file {:?}: {e}", cr.path)))?;
            let b: Arc<dyn AsRef<[u8]> + Send + Sync> = Arc::new(map);
            maps.insert(cr.path.clone(), Arc::clone(&b));
            b
        }
    };
    let (block, end) = RowBlock::deserialize_mapped(&backing, cr.offset as usize)
        .map_err(|e| PersistError::Incompatible(format!("cold block {:?}: {e}", cr.path)))?;
    if end as u64 != cr.offset + cr.len {
        return Err(PersistError::Incompatible(format!(
            "cold block {:?}: ref says {} bytes, image decoded {}",
            cr.path,
            cr.len,
            end as u64 - cr.offset
        )));
    }
    Ok(Arc::new(block.with_zones(zones).with_cold_ref(Some(cr))))
}

/// Pull the next known chunk, honoring a one-chunk lookahead buffer. The
/// buffer lives *outside* the per-block loop: a zone probe that finds the
/// next block's prelude (or the stream end) parks it here.
fn next_buffered(
    pending: &mut Option<(ChunkDesc, Vec<u8>)>,
    source: &mut dyn ChunkSource,
) -> Result<Option<(ChunkDesc, Vec<u8>)>, PersistError> {
    match pending.take() {
        Some(c) => Ok(Some(c)),
        None => next_known(source),
    }
}

/// Mapped-path variant of [`next_buffered`].
fn next_buffered_mapped(
    pending: &mut Option<MappedChunk>,
    source: &mut dyn MappedChunkSource,
) -> Result<Option<MappedChunk>, PersistError> {
    match pending.take() {
        Some(c) => Ok(Some(c)),
        None => next_known_mapped(source),
    }
}

/// Parse a (current-version) manifest payload: block count + schema
/// snapshot.
fn read_manifest(manifest: &[u8]) -> Result<(u64, Schema), PersistError> {
    if manifest.len() < 8 {
        return Err(PersistError::Framing("bad manifest size".to_owned()));
    }
    let n_blocks = u64::from_le_bytes(manifest[0..8].try_into().unwrap());
    let (snapshot, end) = Schema::deserialize(manifest, 8)?;
    if end != manifest.len() {
        return Err(PersistError::Framing(
            "trailing bytes in manifest".to_owned(),
        ));
    }
    Ok((n_blocks, snapshot))
}

fn block_header(
    row_count: u32,
    min_time: i64,
    max_time: i64,
    created_at: i64,
) -> scuba_columnstore::RowBlockHeader {
    scuba_columnstore::RowBlockHeader {
        size_bytes: 0, // recomputed by from_parts
        row_count,
        min_time,
        max_time,
        created_at,
    }
}

/// Tag-driven decode of the v2 TLV stream. Every chunk has already been
/// shim-upgraded to its tag's current version by [`next_known`]; chunk
/// order within the known tags is still manifest → (prelude → columns)*.
fn decode_unit_v2(unit: &str, source: &mut dyn ChunkSource) -> Result<Table, PersistError> {
    let (mdesc, manifest) = next_known(source)?
        .ok_or_else(|| PersistError::Framing("missing table manifest".to_owned()))?;
    if mdesc.tag != TAG_MANIFEST {
        return Err(PersistError::Framing(format!(
            "expected manifest chunk, found tag {}",
            mdesc.tag
        )));
    }
    // The schema snapshot is advisory on decode — blocks carry their own
    // schemas — but it must parse, as it is the readers' view of the
    // writer's column set.
    let (n_blocks, _snapshot) = read_manifest(&manifest)?;

    let mut blocks = Vec::with_capacity(n_blocks.min(1 << 20) as usize);
    let mut pending: Option<(ChunkDesc, Vec<u8>)> = None;
    let mut cold_maps = ColdMaps::new();
    for _ in 0..n_blocks {
        let (pdesc, prelude) = next_buffered(&mut pending, source)?
            .ok_or_else(|| PersistError::Framing("missing block prelude".to_owned()))?;
        if pdesc.tag == TAG_COLDREF {
            // A cold block: the image stays in its fast-format file and
            // is re-attached by mmap — never copied, even on the full
            // (copy-everything) restore path.
            let cr = read_coldref(&prelude)?;
            let mut zones = None;
            if let Some((zdesc, zpayload)) = next_buffered(&mut pending, source)? {
                if zdesc.tag == TAG_ZONES {
                    zones = Some(read_zones(&zpayload)?);
                } else {
                    pending = Some((zdesc, zpayload));
                }
            }
            blocks.push(attach_cold_block(cr, zones, &mut cold_maps)?);
            continue;
        }
        if pdesc.tag != TAG_PRELUDE {
            return Err(PersistError::Framing(format!(
                "expected prelude chunk, found tag {}",
                pdesc.tag
            )));
        }
        let (row_count, min_time, max_time, created_at, n_columns, schema) =
            read_prelude(&prelude)?;
        // Optional zone chunk between prelude and columns: anything else
        // parks in the lookahead buffer for the next expectation.
        let mut zones = None;
        if let Some((zdesc, zpayload)) = next_buffered(&mut pending, source)? {
            if zdesc.tag == TAG_ZONES {
                zones = Some(read_zones(&zpayload)?);
            } else {
                pending = Some((zdesc, zpayload));
            }
        }
        let mut columns = Vec::with_capacity(n_columns as usize);
        for _ in 0..n_columns {
            let (cdesc, chunk) = next_buffered(&mut pending, source)?
                .ok_or_else(|| PersistError::Framing("missing column chunk".to_owned()))?;
            if cdesc.tag != TAG_COLUMN {
                return Err(PersistError::Framing(format!(
                    "expected column chunk, found tag {}",
                    cdesc.tag
                )));
            }
            // Structural validation only (magic, offsets, end marker).
            // The enclosing chunk frame's CRC-32 already covered these
            // exact bytes — the RBC footer CRC over the same range is
            // redundant here, and skipping it nearly halves restore
            // CPU. The disk-recovery path (`RowBlock::deserialize`)
            // keeps the full footer check.
            columns.push(RowBlockColumn::from_bytes_trusted(
                chunk.into_boxed_slice(),
            )?);
        }
        blocks.push(Arc::new(
            RowBlock::from_parts(
                block_header(row_count, min_time, max_time, created_at),
                schema,
                columns,
            )?
            .with_zones(zones),
        ));
    }
    if next_buffered(&mut pending, source)?.is_some() {
        return Err(PersistError::Framing(
            "trailing chunks after last block".to_owned(),
        ));
    }
    Ok(Table::from_blocks(unit, blocks, 0))
}

/// Positional decode of a legacy (pre-TLV) image: the manifest is the
/// bare block count and chunks carry no descriptors.
fn decode_unit_legacy(
    unit: &str,
    manifest: Vec<u8>,
    source: &mut dyn ChunkSource,
) -> Result<Table, PersistError> {
    if manifest.len() != 8 {
        return Err(PersistError::Framing("bad manifest size".to_owned()));
    }
    let n_blocks = u64::from_le_bytes(manifest.as_slice().try_into().unwrap());

    let mut blocks = Vec::with_capacity(n_blocks.min(1 << 20) as usize);
    for _ in 0..n_blocks {
        let (_, prelude) = source
            .next_chunk()?
            .ok_or_else(|| PersistError::Framing("missing block prelude".to_owned()))?;
        let (row_count, min_time, max_time, created_at, n_columns, schema) =
            read_prelude(&prelude)?;
        let mut columns = Vec::with_capacity(n_columns as usize);
        for _ in 0..n_columns {
            let (_, chunk) = source
                .next_chunk()?
                .ok_or_else(|| PersistError::Framing("missing column chunk".to_owned()))?;
            columns.push(RowBlockColumn::from_bytes_trusted(
                chunk.into_boxed_slice(),
            )?);
        }
        blocks.push(Arc::new(RowBlock::from_parts(
            block_header(row_count, min_time, max_time, created_at),
            schema,
            columns,
        )?));
    }
    if source.next_chunk()?.is_some() {
        return Err(PersistError::Framing(
            "trailing chunks after last block".to_owned(),
        ));
    }
    Ok(Table::from_blocks(unit, blocks, 0))
}

/// Pull the next mapped chunk the leaf understands, mirroring
/// [`next_known`]'s skip/incompatible rules without touching payloads.
fn next_known_mapped(
    source: &mut dyn MappedChunkSource,
) -> Result<Option<MappedChunk>, PersistError> {
    let reg = shim_registry();
    loop {
        let Some(chunk) = source.next_mapped_chunk()? else {
            return Ok(None);
        };
        if reg.current_version(chunk.desc.tag).is_none() {
            if chunk.desc.is_skippable() {
                continue;
            }
            return Err(PersistError::Incompatible(format!(
                "unknown required chunk tag {} in unit stream",
                chunk.desc.tag
            )));
        }
        return Ok(Some(chunk));
    }
}

/// Tag-driven attach of the v2 TLV stream. Metadata chunks (manifest,
/// preludes) are copied to heap and shim-upgraded; column chunks stay
/// mapped when they are already at the current version and are upgraded
/// through a verified heap copy otherwise.
fn attach_unit_v2(unit: &str, source: &mut dyn MappedChunkSource) -> Result<Table, PersistError> {
    let reg = shim_registry();
    let upgraded = |chunk: &MappedChunk| -> Result<Vec<u8>, PersistError> {
        reg.upgrade(chunk.desc.tag, chunk.desc.version, chunk.to_heap()?)
            .map_err(migrate_err)
    };

    let mchunk = next_known_mapped(source)?
        .ok_or_else(|| PersistError::Framing("missing table manifest".to_owned()))?;
    if mchunk.desc.tag != TAG_MANIFEST {
        return Err(PersistError::Framing(format!(
            "expected manifest chunk, found tag {}",
            mchunk.desc.tag
        )));
    }
    let (n_blocks, _snapshot) = read_manifest(&upgraded(&mchunk)?)?;

    let mut blocks = Vec::with_capacity(n_blocks.min(1 << 20) as usize);
    let mut pending: Option<MappedChunk> = None;
    let mut cold_maps = ColdMaps::new();
    for _ in 0..n_blocks {
        let pchunk = next_buffered_mapped(&mut pending, source)?
            .ok_or_else(|| PersistError::Framing("missing block prelude".to_owned()))?;
        if pchunk.desc.tag == TAG_COLDREF {
            // Cold block: re-attach the fast-format file by mmap; the shm
            // image only carried the reference (plus zones).
            let cr = read_coldref(&upgraded(&pchunk)?)?;
            let mut zones = None;
            if let Some(zchunk) = next_buffered_mapped(&mut pending, source)? {
                if zchunk.desc.tag == TAG_ZONES {
                    zones = Some(read_zones(&upgraded(&zchunk)?)?);
                } else {
                    pending = Some(zchunk);
                }
            }
            blocks.push(attach_cold_block(cr, zones, &mut cold_maps)?);
            continue;
        }
        if pchunk.desc.tag != TAG_PRELUDE {
            return Err(PersistError::Framing(format!(
                "expected prelude chunk, found tag {}",
                pchunk.desc.tag
            )));
        }
        let (row_count, min_time, max_time, created_at, n_columns, schema) =
            read_prelude(&upgraded(&pchunk)?)?;
        // Zone maps are metadata: heap-copied (frame-CRC-verified) like
        // the prelude, never served from the mapping.
        let mut zones = None;
        if let Some(zchunk) = next_buffered_mapped(&mut pending, source)? {
            if zchunk.desc.tag == TAG_ZONES {
                zones = Some(read_zones(&upgraded(&zchunk)?)?);
            } else {
                pending = Some(zchunk);
            }
        }
        let mut columns = Vec::with_capacity(n_columns as usize);
        for _ in 0..n_columns {
            let chunk = next_buffered_mapped(&mut pending, source)?
                .ok_or_else(|| PersistError::Framing("missing column chunk".to_owned()))?;
            if chunk.desc.tag != TAG_COLUMN {
                return Err(PersistError::Framing(format!(
                    "expected column chunk, found tag {}",
                    chunk.desc.tag
                )));
            }
            if chunk.desc.version == COLUMN_VERSION {
                columns.push(RowBlockColumn::from_mapped(
                    Arc::clone(&chunk.backing),
                    chunk.offset,
                    chunk.len,
                )?);
            } else {
                // An older column version cannot be served in place — the
                // shim rewrites the payload, so this one column pays the
                // verified copy.
                columns.push(RowBlockColumn::from_bytes_trusted(
                    upgraded(&chunk)?.into_boxed_slice(),
                )?);
            }
        }
        blocks.push(Arc::new(
            RowBlock::from_parts(
                block_header(row_count, min_time, max_time, created_at),
                schema,
                columns,
            )?
            .with_zones(zones),
        ));
    }
    if next_buffered_mapped(&mut pending, source)?.is_some() {
        return Err(PersistError::Framing(
            "trailing chunks after last block".to_owned(),
        ));
    }
    Ok(Table::from_blocks(unit, blocks, 0))
}

/// Positional attach of a legacy (pre-TLV) image.
fn attach_unit_legacy(
    unit: &str,
    first: MappedChunk,
    source: &mut dyn MappedChunkSource,
) -> Result<Table, PersistError> {
    let manifest = first.to_heap()?;
    if manifest.len() != 8 {
        return Err(PersistError::Framing("bad manifest size".to_owned()));
    }
    let n_blocks = u64::from_le_bytes(manifest.as_slice().try_into().unwrap());

    let mut blocks = Vec::with_capacity(n_blocks.min(1 << 20) as usize);
    for _ in 0..n_blocks {
        let prelude = source
            .next_mapped_chunk()?
            .ok_or_else(|| PersistError::Framing("missing block prelude".to_owned()))?
            .to_heap()?;
        let (row_count, min_time, max_time, created_at, n_columns, schema) =
            read_prelude(&prelude)?;
        let mut columns = Vec::with_capacity(n_columns as usize);
        for _ in 0..n_columns {
            let chunk = source
                .next_mapped_chunk()?
                .ok_or_else(|| PersistError::Framing("missing column chunk".to_owned()))?;
            columns.push(RowBlockColumn::from_mapped(
                Arc::clone(&chunk.backing),
                chunk.offset,
                chunk.len,
            )?);
        }
        blocks.push(Arc::new(RowBlock::from_parts(
            block_header(row_count, min_time, max_time, created_at),
            schema,
            columns,
        )?));
    }
    if source.next_mapped_chunk()?.is_some() {
        return Err(PersistError::Framing(
            "trailing chunks after last block".to_owned(),
        ));
    }
    Ok(Table::from_blocks(unit, blocks, 0))
}

/// Split a table into its sealed blocks (the builder's unsealed rows must
/// have been sealed by the caller; any remainder is dropped, mirroring the
/// crash-tolerance of §4.1 — callers seal first so this is empty).
fn decompose(table: Table) -> (Vec<Arc<RowBlock>>, ()) {
    (table.blocks().to_vec(), ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use scuba_restart::framing::{decode_header_v2, FRAME_HEADER_V2, TAG_END};
    use scuba_restart::{backup_to_shm, restore_from_shm};
    use scuba_shmem::ShmNamespace;
    use std::sync::atomic::{AtomicU32, Ordering};

    const V: u32 = scuba_restart::SHM_LAYOUT_VERSION;

    static COUNTER: AtomicU32 = AtomicU32::new(0);

    fn ns() -> ShmNamespace {
        ShmNamespace::new(
            &format!("leafp{}", std::process::id()),
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

    fn populated_store() -> LeafStore {
        let mut s = LeafStore::new();
        for table in ["errors", "requests"] {
            let rows: Vec<Row> = (0..500)
                .map(|i| {
                    Row::at(i)
                        .with("code", 200 + (i % 4) * 100)
                        .with("msg", format!("event {} happened", i % 13))
                        .with("ms", i as f64 / 7.0)
                })
                .collect();
            s.append_rows(table, &rows, 0).unwrap();
        }
        s.seal_all(0).unwrap();
        s
    }

    fn table_fingerprint(map: &LeafMap) -> Vec<(String, usize, usize)> {
        map.iter()
            .map(|t| (t.name().to_owned(), t.row_count(), t.encoded_bytes()))
            .collect()
    }

    #[test]
    fn full_shm_round_trip_preserves_tables() {
        let ns = ns();
        let _c = Cleanup(ns.clone());
        let mut store = populated_store();
        let fingerprint = table_fingerprint(store.map());
        let expected_rows: Vec<_> = store
            .map()
            .iter()
            .flat_map(|t| t.blocks().iter().map(|b| b.decode_rows().unwrap()))
            .collect();

        backup_to_shm(&mut store, &ns, V).unwrap();
        assert_eq!(store.heap_bytes(), 0);
        assert!(store.map().is_empty());

        let mut restored = LeafStore::new();
        restore_from_shm(&mut restored, &ns, V).unwrap();
        assert_eq!(table_fingerprint(restored.map()), fingerprint);
        let restored_rows: Vec<_> = restored
            .map()
            .iter()
            .flat_map(|t| t.blocks().iter().map(|b| b.decode_rows().unwrap()))
            .collect();
        assert_eq!(restored_rows, expected_rows);
    }

    #[test]
    fn multi_block_tables_round_trip() {
        let ns = ns();
        let _c = Cleanup(ns.clone());
        let mut store = LeafStore::new();
        // Several small sealed blocks.
        for epoch in 0..5i64 {
            let rows: Vec<Row> = (0..50)
                .map(|i| Row::at(epoch * 100 + i).with("v", i))
                .collect();
            store.append_rows("t", &rows, 0).unwrap();
            store.map_mut().get_mut("t").unwrap().seal(0).unwrap();
        }
        backup_to_shm(&mut store, &ns, V).unwrap();
        let mut restored = LeafStore::new();
        restore_from_shm(&mut restored, &ns, V).unwrap();
        let t = restored.map().get("t").unwrap();
        assert_eq!(t.blocks().len(), 5);
        assert_eq!(t.row_count(), 250);
        // Pruning metadata survived.
        assert_eq!(t.blocks_in_range(200, 300).unwrap().len(), 1);
    }

    #[test]
    fn empty_store_round_trips() {
        let ns = ns();
        let _c = Cleanup(ns.clone());
        let mut store = LeafStore::new();
        backup_to_shm(&mut store, &ns, V).unwrap();
        let mut restored = LeafStore::new();
        let rep = restore_from_shm(&mut restored, &ns, V).unwrap();
        assert_eq!(rep.units, 0);
        assert!(restored.map().is_empty());
    }

    #[test]
    fn empty_table_round_trips() {
        let ns = ns();
        let _c = Cleanup(ns.clone());
        let mut store = LeafStore::new();
        store.map_mut().get_or_create("hollow", 0);
        backup_to_shm(&mut store, &ns, V).unwrap();
        let mut restored = LeafStore::new();
        restore_from_shm(&mut restored, &ns, V).unwrap();
        assert!(restored.map().get("hollow").is_some());
        assert_eq!(restored.map().get("hollow").unwrap().row_count(), 0);
    }

    #[test]
    fn corrupted_column_chunk_falls_back() {
        let ns = ns();
        let _c = Cleanup(ns.clone());
        let mut store = populated_store();
        backup_to_shm(&mut store, &ns, V).unwrap();

        // Flip a byte deep inside the first table segment (past the
        // framing, inside an RBC buffer) so the RBC checksum catches it.
        let mut seg = scuba_shmem::ShmSegment::open(&ns.table_segment_name(0)).unwrap();
        let len = seg.len();
        seg.as_mut_slice()[len - 100] ^= 0xFF;
        drop(seg);

        let mut restored = LeafStore::new();
        let err = restore_from_shm(&mut restored, &ns, V).unwrap_err();
        let scuba_restart::RestoreError::Fallback(fb) = err;
        assert!(fb.cleaned_up);
    }

    #[test]
    fn restore_skips_redundant_rbc_crc_when_frame_crc_passes() {
        // Satellite pin: the shm restore path trusts the enclosing chunk
        // frame CRC and skips the RBC footer CRC over the same bytes.
        // Corrupt the *footer CRC field* of the last column chunk, then
        // re-seal the frame CRC over the modified payload: restore must
        // succeed (footer never consulted), while the disk-path
        // constructor (`from_bytes`) must still reject the same buffer.
        let ns = ns();
        let _c = Cleanup(ns.clone());
        let mut store = LeafStore::new();
        let rows: Vec<Row> = (0..300).map(|i| Row::at(i).with("v", i)).collect();
        store.append_rows("t", &rows, 0).unwrap();
        store.seal_all(0).unwrap();
        backup_to_shm(&mut store, &ns, V).unwrap();

        let mut seg = scuba_shmem::ShmSegment::open(&ns.table_segment_name(0)).unwrap();
        let buf = seg.as_mut_slice();
        // Walk the segment's v2 TLV frames (name frame included) up to
        // the end frame, remembering the last payload — a column chunk.
        let mut pos = 0usize;
        let mut last = None;
        loop {
            let (desc, len, _crc) = decode_header_v2(&buf[pos..pos + FRAME_HEADER_V2]);
            if desc.tag == TAG_END {
                break;
            }
            let payload = pos + FRAME_HEADER_V2;
            last = Some((pos + 16, payload, len as usize));
            pos = payload + len as usize;
        }
        let (crc_off, payload_off, payload_len) = last.unwrap();
        // Flip a byte of the RBC footer CRC (first 4 of the trailing 8).
        buf[payload_off + payload_len - 8] ^= 0xFF;
        let disk_image = buf[payload_off..payload_off + payload_len].to_vec();
        let resealed = scuba_shmem::crc32(&buf[payload_off..payload_off + payload_len]);
        buf[crc_off..crc_off + 4].copy_from_slice(&resealed.to_le_bytes());
        drop(seg);

        let mut restored = LeafStore::new();
        restore_from_shm(&mut restored, &ns, V).unwrap();
        assert_eq!(restored.map().get("t").unwrap().row_count(), 300);

        // The disk-fallback constructor keeps the full footer check.
        let err = RowBlockColumn::from_bytes(disk_image.into_boxed_slice()).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn zone_maps_survive_shm_round_trip() {
        let ns = ns();
        let _c = Cleanup(ns.clone());
        let mut store = populated_store();
        let before: Vec<_> = store
            .map()
            .iter()
            .flat_map(|t| t.blocks().iter().map(|b| b.zones().cloned()))
            .collect();
        assert!(before.iter().all(|z| z.is_some()), "seed blocks have zones");

        backup_to_shm(&mut store, &ns, V).unwrap();
        let mut restored = LeafStore::new();
        restore_from_shm(&mut restored, &ns, V).unwrap();
        let after: Vec<_> = restored
            .map()
            .iter()
            .flat_map(|t| t.blocks().iter().map(|b| b.zones().cloned()))
            .collect();
        assert_eq!(after, before);
    }

    #[test]
    fn zone_chunk_is_skippable() {
        // An old reader that has never heard of TAG_ZONES must still read
        // the image — the chunk carries the skippable flag.
        let ns = ns();
        let _c = Cleanup(ns.clone());
        let mut store = populated_store();
        backup_to_shm(&mut store, &ns, V).unwrap();

        let seg = scuba_shmem::ShmSegment::open(&ns.table_segment_name(0)).unwrap();
        let buf = seg.as_slice();
        let mut pos = 0usize;
        let mut zone_chunks = 0;
        loop {
            let (desc, len, _crc) = decode_header_v2(&buf[pos..pos + FRAME_HEADER_V2]);
            if desc.tag == TAG_END {
                break;
            }
            if desc.tag == TAG_ZONES {
                zone_chunks += 1;
                assert!(desc.is_skippable(), "zone chunk must be skippable");
                assert_eq!(desc.version, ZONES_VERSION);
            }
            pos += FRAME_HEADER_V2 + len as usize;
        }
        assert!(zone_chunks > 0, "backup wrote no zone chunks");
    }

    #[test]
    fn corrupt_zone_chunk_is_rejected() {
        // Wrong statistics would silently wrong query answers, so a zone
        // chunk that passes the frame CRC but fails to parse is
        // corruption-class: the unit falls back to disk recovery.
        let ns = ns();
        let _c = Cleanup(ns.clone());
        let mut store = LeafStore::new();
        let rows: Vec<Row> = (0..100).map(|i| Row::at(i).with("v", i)).collect();
        store.append_rows("t", &rows, 0).unwrap();
        store.seal_all(0).unwrap();
        backup_to_shm(&mut store, &ns, V).unwrap();

        let mut seg = scuba_shmem::ShmSegment::open(&ns.table_segment_name(0)).unwrap();
        let buf = seg.as_mut_slice();
        let mut pos = 0usize;
        let mut zone = None;
        loop {
            let (desc, len, _crc) = decode_header_v2(&buf[pos..pos + FRAME_HEADER_V2]);
            if desc.tag == TAG_END {
                break;
            }
            if desc.tag == TAG_ZONES {
                zone = Some((pos + 16, pos + FRAME_HEADER_V2, len as usize));
            }
            pos += FRAME_HEADER_V2 + len as usize;
        }
        let (crc_off, payload_off, payload_len) = zone.expect("zone chunk present");
        // Zero the entry count so the parser sees trailing garbage, then
        // re-seal the frame CRC so only the zone *payload* is bad.
        assert!(payload_len > 1);
        buf[payload_off] = 0;
        let resealed = scuba_shmem::crc32(&buf[payload_off..payload_off + payload_len]);
        buf[crc_off..crc_off + 4].copy_from_slice(&resealed.to_le_bytes());
        drop(seg);

        let mut restored = LeafStore::new();
        let err = restore_from_shm(&mut restored, &ns, V).unwrap_err();
        let scuba_restart::RestoreError::Fallback(fb) = err;
        assert!(fb.cleaned_up);
    }

    #[test]
    fn unsealed_rows_are_not_persisted() {
        // Callers must seal first; backup drops unsealed rows, mirroring
        // the acceptable-tiny-loss semantics of §4.1.
        let ns = ns();
        let _c = Cleanup(ns.clone());
        let mut store = LeafStore::new();
        store
            .append_rows("t", &[Row::at(1).with("v", 1i64)], 0)
            .unwrap();
        // no seal_all
        backup_to_shm(&mut store, &ns, V).unwrap();
        let mut restored = LeafStore::new();
        restore_from_shm(&mut restored, &ns, V).unwrap();
        assert_eq!(restored.map().get("t").unwrap().row_count(), 0);
    }

    /// Demote the first sealed block of `table` to a cold file under
    /// `root`, patching the table in place. Returns the rows the block
    /// held (for fidelity checks).
    fn demote_first_block(store: &mut LeafStore, table: &str, root: &std::path::Path) -> Vec<Row> {
        let cold = scuba_diskstore::ColdStore::open(root).unwrap();
        let t = store.map_mut().get_mut(table).unwrap();
        let old = Arc::clone(&t.blocks()[0]);
        let rows = old.decode_rows().unwrap();
        let cr = cold.append_block(table, &old, None).unwrap();
        let backing: Arc<dyn AsRef<[u8]> + Send + Sync> =
            Arc::new(scuba_diskstore::ColdMap::open(&cr.path).unwrap());
        let (block, _) = RowBlock::deserialize_mapped(&backing, cr.offset as usize).unwrap();
        let new = Arc::new(
            block
                .with_zones(old.zones().cloned())
                .with_cold_ref(Some(cr)),
        );
        assert!(t.apply_block_patch(&old, new));
        rows
    }

    #[test]
    fn cold_blocks_round_trip_without_copying() {
        let ns = ns();
        let _c = Cleanup(ns.clone());
        let dir = std::env::temp_dir().join(format!(
            "scuba-persist-cold-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let mut store = populated_store();
        let cold_rows = demote_first_block(&mut store, "errors", &dir);
        let cold_bytes = store.map().cold_bytes();
        assert!(cold_bytes > 0);

        backup_to_shm(&mut store, &ns, V).unwrap();

        // The shm image must not contain the cold image bytes: the errors
        // segment holds a TAG_COLDREF chunk instead of the block's
        // prelude + columns.
        let seg = scuba_shmem::ShmSegment::open(&ns.table_segment_name(0)).unwrap();
        let buf = seg.as_slice();
        let mut pos = 0usize;
        let mut coldrefs = 0;
        loop {
            let (desc, len, _crc) = decode_header_v2(&buf[pos..pos + FRAME_HEADER_V2]);
            if desc.tag == TAG_END {
                break;
            }
            if desc.tag == TAG_COLDREF {
                coldrefs += 1;
                assert!(!desc.is_skippable(), "cold refs must be required chunks");
                assert!(
                    (len as usize) < 256,
                    "cold ref chunk should be tiny, got {len}"
                );
            }
            pos += FRAME_HEADER_V2 + len as usize;
        }
        assert_eq!(coldrefs, 1);
        drop(seg);

        let mut restored = LeafStore::new();
        restore_from_shm(&mut restored, &ns, V).unwrap();
        let t = restored.map().get("errors").unwrap();
        assert_eq!(restored.map().cold_bytes(), cold_bytes);
        assert_eq!(restored.map().cold_blocks(), 1);
        let back = t
            .blocks()
            .iter()
            .find(|b| b.is_cold())
            .expect("cold block survived restart");
        assert_eq!(back.decode_rows().unwrap(), cold_rows);
        assert!(back.zones().is_some(), "zones travel with the cold ref");

        drop(restored);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_cold_file_falls_back_per_table() {
        let ns = ns();
        let _c = Cleanup(ns.clone());
        let dir = std::env::temp_dir().join(format!(
            "scuba-persist-cold-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let mut store = populated_store();
        demote_first_block(&mut store, "errors", &dir);
        backup_to_shm(&mut store, &ns, V).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();

        // The table whose cold file vanished is Incompatible: skipped
        // per-table (the caller disk-recovers exactly it), while the
        // other table restores from memory as usual.
        let mut restored = LeafStore::new();
        let rep = restore_from_shm(&mut restored, &ns, V).unwrap();
        assert_eq!(rep.skipped, vec!["errors".to_owned()]);
        assert!(restored.map().get("errors").is_none());
        assert_eq!(restored.map().get("requests").unwrap().row_count(), 500);
    }

    #[test]
    fn coldref_payload_round_trips() {
        let cr = ColdRef {
            path: PathBuf::from("/somewhere/errors.cold"),
            offset: 12345,
            len: 678,
        };
        let mut buf = Vec::new();
        write_coldref(&cr, &mut buf);
        assert_eq!(read_coldref(&buf).unwrap(), cr);
        assert!(read_coldref(&buf[..3]).is_err());
        assert!(read_coldref(&buf[..buf.len() - 1]).is_err());
    }

    #[test]
    fn estimate_covers_actual_size() {
        let store = populated_store();
        for name in store.unit_names() {
            let est = store.estimate_unit_size(&name);
            let actual = store.map().get(&name).unwrap().encoded_bytes();
            assert!(est >= actual, "{name}: estimate {est} < actual {actual}");
        }
    }
}
