//! The leaf's unit-stream format, and the only code that knows it: the
//! chunk tags and their payload versions, the payload codecs (manifest,
//! prelude, zone map, cold-block reference), the shim registry, **one
//! writer** ([`write_table`], over [`write_manifest`] + [`write_block`])
//! and **one reader** ([`read_table`]).
//!
//! After the protocol's unit-name frame, a table's stream follows the
//! paper's Figure 3, one chunk per row block column, each the
//! single-`memcpy` RBC buffer:
//!
//! ```text
//! manifest                       block count + table schema snapshot
//! per block:  prelude | coldref  header + block schema, or a cold-file ref
//!             [zones]            skippable: per-column min/max
//!             column ...         one per schema column (warm blocks only)
//! ```
//!
//! The shutdown backup and the checkpointer are one job type
//! (`persist::ImageJob`) writing through `write_table`, so their images of
//! the same blocks are byte-identical. An image holds sealed blocks only:
//! both extend the one image a leaf holds — the segment it attached, or
//! one an earlier commit wrote — from its sealed frontier, through the
//! same function. A column chunk's frame CRC is the column's own, derived
//! from its seal-time footer (`RowBlockColumn::frame_crc`): no writer
//! reads a column payload to checksum it, and a byte that changed after
//! seal fails the frame.
//!
//! The copying restore (heap chunks) and the zero-copy attach (windows
//! into the mapping) read through the same walker, generic over
//! [`Chunk`]; read from windows, a table also comes with its `Layout`
//! in the mapping, which a kept image is extended by. Decode is
//! tag-driven: older chunk
//! versions are upgraded through the [`ShimRegistry`], unknown skippable
//! chunks are ignored, and an unknown *required* chunk is a per-table
//! incompatibility ([`PersistError::Incompatible`]) — the protocol skips
//! just that table. The first chunk picks the grammar: an image from the
//! pre-TLV (v1) writer surfaces with legacy descriptors, and the walker
//! reads each of its chunks positionally, as version 1 of whatever it
//! expects at that point (never as a zone map or a cold ref).

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock, Weak};

use scuba_columnstore::{
    ColdRef, RowBlock, RowBlockColumn, RowBlockHeader, Schema, Table, ZoneMap,
};
use scuba_restart::framing::{FRAME_HEADER_V2, TAG_STORE_BASE};
use scuba_restart::migrate::{MigrateError, ShimRegistry};
use scuba_restart::{ChunkDesc, ChunkSink, ChunkSource, MappedChunk, MappedChunkSource};
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

fn framing(msg: impl Into<String>) -> PersistError {
    PersistError::Framing(msg.into())
}

/// A row block prelude: the header fields, the column count and the block
/// schema — everything but the column buffers.
pub(crate) fn prelude(block: &RowBlock) -> Vec<u8> {
    let h = block.header();
    let mut out = Vec::with_capacity(32 + block.schema().serialized_size());
    out.extend_from_slice(&h.row_count.to_le_bytes());
    out.extend_from_slice(&h.min_time.to_le_bytes());
    out.extend_from_slice(&h.max_time.to_le_bytes());
    out.extend_from_slice(&h.created_at.to_le_bytes());
    out.extend_from_slice(&(block.columns().len() as u32).to_le_bytes());
    block.schema().serialize(&mut out);
    out
}

/// Parse a prelude into the block header and schema. The column count
/// must equal the schema's: it is read from the image, so it is checked
/// before anything is sized by it.
fn read_prelude(buf: &[u8]) -> Result<(RowBlockHeader, Schema), PersistError> {
    if buf.len() < 32 {
        return Err(framing("prelude too short"));
    }
    let i64_at = |at: usize| i64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
    let n_columns = u32::from_le_bytes(buf[28..32].try_into().unwrap());
    let (schema, end) = Schema::deserialize(buf, 32)?;
    if end != buf.len() {
        return Err(framing("trailing bytes in prelude"));
    }
    if n_columns as usize != schema.len() {
        return Err(framing(format!(
            "prelude claims {n_columns} columns, its schema has {}",
            schema.len()
        )));
    }
    let header = RowBlockHeader {
        size_bytes: 0, // recomputed by RowBlock::from_parts
        row_count: u32::from_le_bytes(buf[0..4].try_into().unwrap()),
        min_time: i64_at(4),
        max_time: i64_at(12),
        created_at: i64_at(20),
    };
    Ok((header, schema))
}

/// Parse a (current-version) manifest payload: block count + schema
/// snapshot.
fn read_manifest(manifest: &[u8]) -> Result<(u64, Schema), PersistError> {
    if manifest.len() < 8 {
        return Err(framing("bad manifest size"));
    }
    let n_blocks = u64::from_le_bytes(manifest[0..8].try_into().unwrap());
    let (snapshot, end) = Schema::deserialize(manifest, 8)?;
    if end != manifest.len() {
        return Err(framing("trailing bytes in manifest"));
    }
    Ok((n_blocks, snapshot))
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

/// A cold-block reference: the cold file path (u32 length + UTF-8 bytes)
/// followed by the block image's offset and length within that file.
fn coldref(cr: &ColdRef) -> Vec<u8> {
    let path = cr.path.to_string_lossy();
    let mut out = Vec::with_capacity(20 + path.len());
    out.extend_from_slice(&(path.len() as u32).to_le_bytes());
    out.extend_from_slice(path.as_bytes());
    out.extend_from_slice(&cr.offset.to_le_bytes());
    out.extend_from_slice(&cr.len.to_le_bytes());
    out
}

/// Parse a cold-ref payload.
fn read_coldref(buf: &[u8]) -> Result<ColdRef, PersistError> {
    if buf.len() < 4 {
        return Err(framing("cold ref too short"));
    }
    let path_len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    if buf.len() != 4 + path_len + 16 {
        return Err(framing(format!(
            "bad cold ref size {} (path {path_len} bytes)",
            buf.len()
        )));
    }
    let path = std::str::from_utf8(&buf[4..4 + path_len])
        .map_err(|_| framing("cold ref path is not utf-8"))?;
    let offset = u64::from_le_bytes(buf[4 + path_len..12 + path_len].try_into().unwrap());
    let len = u64::from_le_bytes(buf[12 + path_len..20 + path_len].try_into().unwrap());
    Ok(ColdRef {
        path: PathBuf::from(path),
        offset,
        len,
    })
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

/// Write a table's manifest: its block count and schema snapshot.
pub(crate) fn write_manifest(
    block_count: u64,
    schema: &Schema,
    sink: &mut dyn ChunkSink,
) -> Result<(), ShmError> {
    let mut payload = Vec::with_capacity(8 + schema.serialized_size());
    payload.extend_from_slice(&block_count.to_le_bytes());
    schema.serialize(&mut payload);
    sink.put_chunk(ChunkDesc::new(TAG_MANIFEST, MANIFEST_VERSION), &payload)
}

/// Write one row block: its prelude — or, for a cold block, the reference
/// to its fast-format file — then its zone map, if it has one, then one
/// chunk per row block column (Figure 6's single-memcpy copy). A cold
/// block's bytes stay on disk, so shared memory holds only warm data and
/// restart re-attaches the cold tier by mmap.
pub(crate) fn write_block(block: &RowBlock, sink: &mut dyn ChunkSink) -> Result<(), ShmError> {
    match block.cold_ref() {
        Some(cr) => sink.put_chunk(ChunkDesc::new(TAG_COLDREF, COLDREF_VERSION), &coldref(cr))?,
        None => sink.put_chunk(
            ChunkDesc::new(TAG_PRELUDE, PRELUDE_VERSION),
            &prelude(block),
        )?,
    }
    if let Some(zones) = block.zones().filter(|z| !z.is_empty()) {
        let mut payload = Vec::with_capacity(zones.serialized_size());
        zones.serialize(&mut payload);
        sink.put_chunk(
            ChunkDesc::new(TAG_ZONES, ZONES_VERSION).skippable(),
            &payload,
        )?;
    }
    if block.is_cold() {
        return Ok(());
    }
    for column in block.columns() {
        sink.put_chunk_crc(
            ChunkDesc::new(TAG_COLUMN, COLUMN_VERSION),
            column.as_bytes(),
            column.frame_crc(),
        )?;
    }
    Ok(())
}

/// Where a table image's sealed blocks end: what [`write_table`] needs to
/// extend the image in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Frontier {
    /// Sealed blocks the image holds.
    pub(crate) blocks: usize,
    /// Offset where their frames end: the next block's frame lands here.
    pub(crate) end: usize,
    /// Offset of the manifest frame's header.
    pub(crate) manifest_off: usize,
}

/// Sealed blocks, each with the bytes its frames occupy in a segment.
pub(crate) type BlockFrames = Vec<(Weak<RowBlock>, Range<usize>)>;

/// The one table writer. Through `sink`, write a table's frames: whole
/// (`at: None`: the manifest, then every sealed block), or behind an
/// image's sealed frontier (`at: Some`, the sink standing at its end: the
/// blocks sealed since, then the manifest frame patched in place with the
/// new block count — the schema must be the one the image was written
/// with, so the frame keeps its length, and no frame before the frontier
/// is touched). An image holds sealed blocks only. The caller writes END
/// and trims. Each block is dropped once written, so a block nothing else
/// holds is freed as it goes (Figure 6: "delete row block from heap").
/// Returns the new frontier and each written block with the bytes its
/// frames occupy.
pub(crate) fn write_table(
    at: Option<Frontier>,
    sealed: Vec<Arc<RowBlock>>,
    schema: &Schema,
    sink: &mut dyn ChunkSink,
) -> Result<(Frontier, BlockFrames), ShmError> {
    let count = sealed.len();
    let (skip, manifest_off) = match at {
        Some(frontier) => (frontier.blocks, frontier.manifest_off),
        None => {
            let off = sink.position();
            write_manifest(count as u64, schema, sink)?;
            (0, off)
        }
    };
    let mut blocks = Vec::with_capacity(count - skip);
    for block in sealed.into_iter().skip(skip) {
        let from = sink.position();
        write_block(&block, sink)?;
        blocks.push((Arc::downgrade(&block), from..sink.position()));
    }
    let end = sink.position();
    if at.is_some() {
        let mut manifest = Vec::new();
        write_manifest(count as u64, schema, &mut manifest)?;
        sink.patch(manifest_off, &manifest)?;
    }
    let frontier = Frontier {
        blocks: count,
        end,
        manifest_off,
    };
    Ok((frontier, blocks))
}

/// Where a table read from windows into a mapping sits in that mapping —
/// what a store needs to keep serving the image and extend it later.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Layout {
    /// The image's sealed frontier.
    pub(crate) frontier: Frontier,
    /// The manifest's schema snapshot as written: a table whose schema
    /// still serializes to these bytes may have its manifest patched.
    pub(crate) schema: Vec<u8>,
    /// Each block's frames, first header to last payload byte.
    pub(crate) blocks: Vec<Range<usize>>,
}

/// One chunk as [`read_table`] sees it: a heap copy (restore) or a window
/// into an attached mapping (attach).
pub(crate) trait Chunk {
    /// The chunk's frame descriptor.
    fn desc(&self) -> ChunkDesc;
    /// The payload as an owned heap buffer: moved out of a heap chunk;
    /// frame-CRC-verified and copied out of a mapped one.
    fn into_heap(self) -> Result<Vec<u8>, ShmError>;
    /// The payload as a column served in place, if the chunk is a window
    /// into a mapping: structural checks only, the payload CRC deferred to
    /// the first toucher (`RowBlockColumn::verify_checksum`, once per
    /// column).
    fn mapped_column(&self) -> Option<scuba_columnstore::Result<RowBlockColumn>>;
    /// The payload's byte range in the mapping, for a window into one.
    fn span(&self) -> Option<Range<usize>>;
}

impl Chunk for (ChunkDesc, Vec<u8>) {
    fn desc(&self) -> ChunkDesc {
        self.0
    }

    fn into_heap(self) -> Result<Vec<u8>, ShmError> {
        Ok(self.1)
    }

    fn mapped_column(&self) -> Option<scuba_columnstore::Result<RowBlockColumn>> {
        None
    }

    fn span(&self) -> Option<Range<usize>> {
        None
    }
}

impl Chunk for MappedChunk {
    fn desc(&self) -> ChunkDesc {
        self.desc
    }

    fn into_heap(self) -> Result<Vec<u8>, ShmError> {
        self.to_heap()
    }

    fn mapped_column(&self) -> Option<scuba_columnstore::Result<RowBlockColumn>> {
        Some(RowBlockColumn::from_mapped(
            Arc::clone(&self.backing),
            self.offset,
            self.len,
        ))
    }

    fn span(&self) -> Option<Range<usize>> {
        Some(self.offset..self.offset + self.len)
    }
}

/// Where [`read_table`] pulls its chunks from.
pub(crate) trait Chunks {
    /// What one chunk of this source is.
    type Chunk: Chunk;
    /// The next chunk, or `None` at the end of the unit.
    fn pull(&mut self) -> Result<Option<Self::Chunk>, ShmError>;
}

impl Chunks for &mut dyn ChunkSource {
    type Chunk = (ChunkDesc, Vec<u8>);

    fn pull(&mut self) -> Result<Option<Self::Chunk>, ShmError> {
        self.next_chunk()
    }
}

impl Chunks for &mut dyn MappedChunkSource {
    type Chunk = MappedChunk;

    fn pull(&mut self) -> Result<Option<Self::Chunk>, ShmError> {
        self.next_mapped_chunk()
    }
}

/// A chunk's payload on the heap, upgraded to its tag's current version.
fn payload(desc: ChunkDesc, chunk: impl Chunk) -> Result<Vec<u8>, PersistError> {
    shim_registry()
        .upgrade(desc.tag, desc.version, chunk.into_heap()?)
        .map_err(migrate_err)
}

/// A column chunk as a column. A current-version mapped column is served
/// in place. A heap column is adopted after structural validation only:
/// the enclosing frame CRC already covered these exact bytes, so the RBC
/// footer CRC would checksum them twice (the disk path,
/// `RowBlock::deserialize`, keeps it). An older mapped column version
/// cannot be served in place — its shim rewrites the payload — so that
/// one column pays the verified copy.
fn column(desc: ChunkDesc, chunk: impl Chunk) -> Result<RowBlockColumn, PersistError> {
    if desc.version == COLUMN_VERSION {
        if let Some(column) = chunk.mapped_column() {
            return Ok(column?);
        }
    }
    Ok(RowBlockColumn::from_bytes_trusted(
        payload(desc, chunk)?.into_boxed_slice(),
    )?)
}

/// The grammar's cursor over one unit's chunks.
struct Walker<C: Chunks> {
    chunks: C,
    /// The image came from the pre-TLV writer: every chunk is read
    /// positionally.
    legacy: bool,
    /// A chunk pulled but not yet consumed: the first one, or whatever a
    /// zone probe found instead of a zone map.
    pending: Option<C::Chunk>,
    /// Where the last consumed chunk's payload ends in the mapping, while
    /// every chunk so far was a window into one.
    consumed_end: Option<usize>,
}

impl<C: Chunks> Walker<C> {
    /// The next chunk the leaf understands. Unknown-but-skippable chunks
    /// are ignored (the writer promised we may); an unknown required tag
    /// is a per-table incompatibility. Legacy chunks carry no tag and pass
    /// as they are.
    fn next(&mut self) -> Result<Option<C::Chunk>, PersistError> {
        loop {
            let chunk = match self.pending.take() {
                Some(chunk) => chunk,
                None => match self.chunks.pull()? {
                    Some(chunk) => chunk,
                    None => return Ok(None),
                },
            };
            let desc = chunk.desc();
            if self.legacy || shim_registry().current_version(desc.tag).is_some() {
                return Ok(Some(chunk));
            }
            if !desc.is_skippable() {
                return Err(PersistError::Incompatible(format!(
                    "unknown required chunk tag {} in unit stream",
                    desc.tag
                )));
            }
        }
    }

    /// The next chunk where the grammar expects `tag`, with its
    /// descriptor: a legacy chunk reads as version 1 of `tag`.
    fn next_at(&mut self, tag: u16, what: &str) -> Result<(ChunkDesc, C::Chunk), PersistError> {
        let chunk = self
            .next()?
            .ok_or_else(|| framing(format!("missing {what} chunk")))?;
        let desc = if self.legacy {
            ChunkDesc::new(tag, 1)
        } else {
            chunk.desc()
        };
        self.consumed_end = chunk.span().map(|span| span.end);
        Ok((desc, chunk))
    }

    /// [`Self::next_at`], which must be a `tag` chunk.
    fn expect(&mut self, tag: u16, what: &str) -> Result<(ChunkDesc, C::Chunk), PersistError> {
        let (desc, chunk) = self.next_at(tag, what)?;
        if desc.tag != tag {
            return Err(framing(format!(
                "expected {what} chunk, found tag {}",
                desc.tag
            )));
        }
        Ok((desc, chunk))
    }

    /// The block's zone map, if the next chunk is one (a legacy chunk
    /// never is); anything else waits for the next expectation. A zone
    /// chunk that fails to parse is corruption-class, never dropped: wrong
    /// statistics would silently wrong query answers.
    fn zones(&mut self) -> Result<Option<ZoneMap>, PersistError> {
        match self.next()? {
            Some(chunk) if !self.legacy && chunk.desc().tag == TAG_ZONES => {
                self.consumed_end = chunk.span().map(|span| span.end);
                let payload = payload(chunk.desc(), chunk)?;
                ZoneMap::deserialize(&payload)
                    .map(Some)
                    .map_err(|e| framing(format!("bad zone chunk: {e}")))
            }
            other => {
                self.pending = other;
                Ok(None)
            }
        }
    }
}

/// Read one table back from its unit stream (everything after the
/// unit-name frame): the restore path hands in heap chunks, attach hands
/// in windows into the mapping. Every error is the whole unit's; the
/// protocol classifies it (per-table skip or whole-leaf fallback).
///
/// Read from windows into a current-format image, the table also comes
/// with its [`Layout`] in the mapping.
pub(crate) fn read_table<C: Chunks>(
    unit: &str,
    mut chunks: C,
) -> Result<(Table, Option<Layout>), PersistError> {
    let first = chunks.pull()?;
    let mut w = Walker {
        legacy: first.as_ref().is_some_and(|c| c.desc().is_legacy()),
        pending: first,
        chunks,
        consumed_end: None,
    };
    // The schema snapshot is advisory on read — blocks carry their own
    // schemas — but it must parse: it is the writer's view of the columns.
    let (desc, chunk) = w.expect(TAG_MANIFEST, "manifest")?;
    let manifest_at = frame_start(&chunk);
    let current = !w.legacy && desc.version == MANIFEST_VERSION;
    let manifest = payload(desc, chunk)?;
    let (n_blocks, _snapshot) = read_manifest(&manifest)?;
    let mut layout = manifest_at.filter(|_| current).map(|manifest_off| Layout {
        frontier: Frontier {
            blocks: n_blocks as usize,
            end: w.consumed_end.unwrap_or_default(),
            manifest_off,
        },
        schema: manifest[8..].to_vec(),
        blocks: Vec::new(),
    });

    let mut blocks = Vec::with_capacity(n_blocks.min(1 << 20) as usize);
    let mut cold_maps = ColdMaps::new();
    for _ in 0..n_blocks {
        let (desc, chunk) = w.next_at(TAG_PRELUDE, "prelude")?;
        let block_at = frame_start(&chunk);
        blocks.push(read_block(&mut w, desc, chunk, &mut cold_maps)?);
        layout = layout.and_then(|mut l| {
            l.blocks.push(block_at?..w.consumed_end?);
            l.frontier.end = w.consumed_end?;
            Some(l)
        });
    }
    if w.next()?.is_some() {
        return Err(framing("trailing chunks after last block"));
    }
    Ok((Table::from_blocks(unit, blocks, 0), layout))
}

/// Where a window's frame starts in its mapping: its header, before the
/// payload.
fn frame_start(chunk: &impl Chunk) -> Option<usize> {
    chunk.span()?.start.checked_sub(FRAME_HEADER_V2)
}

/// Read the rest of one block whose first chunk — its prelude, or a cold
/// block's reference — the walker just handed over.
fn read_block<C: Chunks>(
    w: &mut Walker<C>,
    desc: ChunkDesc,
    chunk: C::Chunk,
    cold_maps: &mut ColdMaps,
) -> Result<Arc<RowBlock>, PersistError> {
    if desc.tag == TAG_COLDREF {
        // A cold block: its image stays in its fast-format file and is
        // re-attached by mmap — never copied, on either restore path.
        let cold_ref = read_coldref(&payload(desc, chunk)?)?;
        let zones = w.zones()?;
        return attach_cold_block(cold_ref, zones, cold_maps);
    }
    if desc.tag != TAG_PRELUDE {
        return Err(framing(format!(
            "expected prelude chunk, found tag {}",
            desc.tag
        )));
    }
    let (header, schema) = read_prelude(&payload(desc, chunk)?)?;
    let zones = w.zones()?;
    let mut columns = Vec::with_capacity(schema.len());
    for _ in 0..schema.len() {
        let (desc, chunk) = w.expect(TAG_COLUMN, "column")?;
        columns.push(column(desc, chunk)?);
    }
    Ok(Arc::new(
        RowBlock::from_parts(header, schema, columns)?.with_zones(zones),
    ))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compat::v1_unit_stream;
    use crate::persist::LeafStore;
    use scuba_columnstore::Row;
    use scuba_restart::framing::{
        drain, end_header_v2, read_frame_header, read_unit_name, FrameCursor, SharedCursor,
        TAG_UNIT_NAME,
    };
    use scuba_restart::migrate::CURRENT_IMAGE_MIN_READER;
    use scuba_restart::{attach_from_shm, restore_from_shm, RestoreError, SHM_LAYOUT_VERSION};
    use scuba_shmem::{crc32, LeafMetadata, ShmNamespace, ShmSegment};
    use std::sync::atomic::{AtomicU32, Ordering};

    static COUNTER: AtomicU32 = AtomicU32::new(0);

    /// A v2 unit stream: the name frame, whatever `body` writes, END.
    fn unit_stream(name: &str, body: impl FnOnce(&mut Vec<u8>) -> Result<(), ShmError>) -> Vec<u8> {
        let mut sink = Vec::new();
        sink.put_chunk(ChunkDesc::new(TAG_UNIT_NAME, 1), name.as_bytes())
            .unwrap();
        body(&mut sink).unwrap();
        sink.extend_from_slice(&end_header_v2());
        sink
    }

    /// `blocks` sealed blocks of `rows` rows each, over three columns.
    fn sealed_table(name: &str, blocks: i64, rows: i64) -> Table {
        let mut t = Table::new(name, 0);
        for at in 0..blocks * rows {
            let row = Row::at(at)
                .with("v", at * 7)
                .with("tag", format!("t{}", at % 3));
            t.append(&row, 0).unwrap();
            if (at + 1) % rows == 0 {
                t.seal(0).unwrap();
            }
        }
        t
    }

    #[test]
    fn coldref_payload_round_trips() {
        let cr = ColdRef {
            path: PathBuf::from("/somewhere/errors.cold"),
            offset: 12345,
            len: 678,
        };
        let buf = coldref(&cr);
        assert_eq!(read_coldref(&buf).unwrap(), cr);
        assert!(read_coldref(&buf[..3]).is_err());
        assert!(read_coldref(&buf[..buf.len() - 1]).is_err());
    }

    #[test]
    fn prelude_column_count_is_checked_before_it_sizes_anything() {
        // A CRC-valid prelude claiming u32::MAX columns once sized a
        // ~170 GB allocation before anything compared it with the
        // schema. Both restore paths must fall back, naming the count.
        let table = sealed_table("t", 1, 10);
        let block = &table.blocks()[0];
        let mut bad = prelude(block);
        bad[28..32].copy_from_slice(&u32::MAX.to_le_bytes());
        let stream = unit_stream("t", |sink| {
            write_manifest(1, &table.schema_snapshot(), sink)?;
            sink.put_chunk(ChunkDesc::new(TAG_PRELUDE, PRELUDE_VERSION), &bad)?;
            for column in block.columns() {
                sink.put_chunk(
                    ChunkDesc::new(TAG_COLUMN, COLUMN_VERSION),
                    column.as_bytes(),
                )?;
            }
            Ok(())
        });

        let ns = ShmNamespace::new(
            &format!("img{}", std::process::id()),
            COUNTER.fetch_add(1, Ordering::Relaxed),
        )
        .unwrap();
        for attach in [false, true] {
            let seg_name = ns.table_segment_name(0);
            let _ = ShmSegment::unlink(&seg_name);
            let mut seg = ShmSegment::create(&seg_name, stream.len()).unwrap();
            seg.as_mut_slice().copy_from_slice(&stream);
            drop(seg);
            let _ = ShmSegment::unlink(&ns.metadata_name());
            let mut meta =
                LeafMetadata::create(&ns, SHM_LAYOUT_VERSION, CURRENT_IMAGE_MIN_READER).unwrap();
            meta.add_segment_invalidating(&seg_name, MANIFEST_VERSION as u32, 0)
                .unwrap();
            meta.set_valid(true).unwrap();

            let mut store = LeafStore::new();
            let outcome = if attach {
                attach_from_shm(&mut store, &ns, SHM_LAYOUT_VERSION).map(|_| ())
            } else {
                restore_from_shm(&mut store, &ns, SHM_LAYOUT_VERSION).map(|_| ())
            };
            let RestoreError::Fallback(fb) = outcome.unwrap_err();
            assert!(
                fb.reason.contains("claims 4294967295 columns"),
                "attach={attach}: {}",
                fb.reason
            );
        }
        ns.unlink_all(4);
    }

    /// Restore's view of an in-memory unit stream: each frame's CRC is
    /// checked before its payload is copied.
    struct HeapFrames {
        cur: SharedCursor,
        legacy: bool,
        done: bool,
    }

    impl ChunkSource for HeapFrames {
        fn next_chunk(&mut self) -> Result<Option<(ChunkDesc, Vec<u8>)>, ShmError> {
            if self.done {
                return Ok(None);
            }
            let Some((desc, len, crc)) = read_frame_header(&mut self.cur, self.legacy)? else {
                self.done = true;
                return Ok(None);
            };
            let payload = self.cur.take(len as usize)?;
            if crc32(payload) != crc {
                return Err(ShmError::Corrupt {
                    name: "sweep".to_owned(),
                    reason: "chunk checksum mismatch".to_owned(),
                });
            }
            Ok(Some((desc, payload.to_vec())))
        }
    }

    /// Attach's view: windows into the buffer, payload CRCs left to the
    /// reader.
    struct MappedFrames {
        cur: SharedCursor,
        legacy: bool,
        done: bool,
    }

    impl MappedChunkSource for MappedFrames {
        fn next_mapped_chunk(&mut self) -> Result<Option<MappedChunk>, ShmError> {
            if self.done {
                return Ok(None);
            }
            let Some((desc, len, stored_crc)) = read_frame_header(&mut self.cur, self.legacy)?
            else {
                self.done = true;
                return Ok(None);
            };
            let offset = self.cur.position();
            self.cur.take(len as usize)?;
            Ok(Some(MappedChunk {
                desc,
                backing: Arc::clone(self.cur.backing()),
                offset,
                len: len as usize,
                stored_crc,
            }))
        }
    }

    fn cursor(bytes: &[u8]) -> SharedCursor {
        SharedCursor::new(Arc::new(bytes.to_vec()), "sweep")
    }

    /// What restore makes of `bytes`: the table's rows, or why not.
    fn read_heap(bytes: &[u8], legacy: bool) -> Result<Vec<Vec<Row>>, String> {
        let mut cur = cursor(bytes);
        let (unit, _) = read_unit_name(&mut cur, legacy)?;
        let mut frames = HeapFrames {
            cur,
            legacy,
            done: false,
        };
        let table = read_table(&unit, &mut frames as &mut dyn ChunkSource);
        let (table, _) = table.map_err(|e| e.to_string())?;
        drain(|| frames.next_chunk()).map_err(|e| e.to_string())?;
        rows(&table)
    }

    /// What attach makes of `bytes`, including the column CRCs it defers
    /// to the first toucher.
    fn read_mapped(bytes: &[u8], legacy: bool) -> Result<Vec<Vec<Row>>, String> {
        let mut cur = cursor(bytes);
        let (unit, _) = read_unit_name(&mut cur, legacy)?;
        let mut frames = MappedFrames {
            cur,
            legacy,
            done: false,
        };
        let table = read_table(&unit, &mut frames as &mut dyn MappedChunkSource);
        let (table, _) = table.map_err(|e| e.to_string())?;
        drain(|| frames.next_mapped_chunk()).map_err(|e| e.to_string())?;
        for block in table.blocks() {
            block.verify_columns().map_err(|e| e.to_string())?;
        }
        rows(&table)
    }

    fn rows(table: &Table) -> Result<Vec<Vec<Row>>, String> {
        let blocks = table.blocks().iter();
        blocks
            .map(|b| b.decode_rows().map_err(|e| e.to_string()))
            .collect()
    }

    /// The byte ranges of the stored-CRC fields of a stream's column
    /// frames. A legacy stream's columns are known only by position:
    /// manifest, then per block a prelude and `columns_per_block[i]`
    /// columns.
    fn column_crc_fields(
        stream: &[u8],
        legacy: bool,
        columns_per_block: &[usize],
    ) -> Vec<Range<usize>> {
        let mut positional = vec![false];
        for &n in columns_per_block {
            positional.push(false);
            positional.extend(std::iter::repeat_n(true, n));
        }
        let mut positional = positional.into_iter();
        let mut cur = cursor(stream);
        read_unit_name(&mut cur, legacy).unwrap();
        let mut out = Vec::new();
        loop {
            let at = cur.position();
            let Some((desc, len, _)) = read_frame_header(&mut cur, legacy).unwrap() else {
                return out;
            };
            let is_column = if legacy {
                positional.next().unwrap()
            } else {
                desc.tag == TAG_COLUMN
            };
            if is_column {
                let crc_at = if legacy { at + 8 } else { at + 16 };
                out.push(crc_at..crc_at + 4);
            }
            cur.take(len as usize).unwrap();
        }
    }

    /// Feed every single-byte flip and every truncation of `stream` to the
    /// reader through both chunk kinds: neither may panic, and the heap
    /// reading rejects exactly when the mapped reading (with its deferred
    /// column CRCs) rejects. Accepted readings (a flip in the END frame's
    /// length, say) hold the original rows.
    fn sweep(stream: &[u8], legacy: bool, columns_per_block: &[usize]) {
        let expected = read_heap(stream, legacy).expect("pristine stream reads");
        assert_eq!(read_mapped(stream, legacy).unwrap(), expected);
        let crc_fields = column_crc_fields(stream, legacy, columns_per_block);
        assert_eq!(crc_fields.len(), columns_per_block.iter().sum::<usize>());

        let flips = (0..stream.len()).map(|at| {
            let mut bytes = stream.to_vec();
            bytes[at] ^= 0xFF;
            let in_column_crc = crc_fields.iter().any(|r| r.contains(&at));
            (format!("flip at {at}"), bytes, in_column_crc)
        });
        let cuts =
            (0..stream.len()).map(|len| (format!("cut to {len}"), stream[..len].to_vec(), false));
        for (what, bytes, in_column_crc) in flips.chain(cuts) {
            let heap = read_heap(&bytes, legacy);
            let mapped = read_mapped(&bytes, legacy);
            if in_column_crc {
                // The one named exception: only the copying path reads a
                // column frame's stored CRC; attach relies on the
                // column's own footer CRC, which the flip left intact.
                assert!(heap.is_err(), "{what}: heap accepted a bad frame CRC");
                assert_eq!(mapped.as_ref().ok(), Some(&expected), "{what}");
                continue;
            }
            assert_eq!(
                heap.is_ok(),
                mapped.is_ok(),
                "{what}: heap {:?}, mapped {:?}",
                heap.as_ref().err(),
                mapped.as_ref().err()
            );
            if let (Ok(h), Ok(m)) = (heap, mapped) {
                assert_eq!(h, expected, "{what}");
                assert_eq!(m, expected, "{what}");
            }
        }
    }

    #[test]
    fn heap_and_mapped_readings_agree_on_every_flip_and_cut() {
        // A cold file is opened through a failpoint site; keep sibling
        // tests' armed faults out of the sweep.
        let _x = scuba_faults::exclusive();
        let dir = std::env::temp_dir().join(format!(
            "scuba-image-sweep-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));

        // v2: a cold block (coldref + zones) and a warm one (prelude +
        // zones + columns).
        let mut table = sealed_table("sweep", 2, 12);
        let old = Arc::clone(&table.blocks()[0]);
        let cold_ref = scuba_diskstore::ColdStore::open(&dir)
            .unwrap()
            .append_block("sweep", &old, None)
            .unwrap();
        let backing: Arc<dyn AsRef<[u8]> + Send + Sync> =
            Arc::new(scuba_diskstore::ColdMap::open(&cold_ref.path).unwrap());
        let (block, _) = RowBlock::deserialize_mapped(&backing, cold_ref.offset as usize).unwrap();
        let demoted = block
            .with_zones(old.zones().cloned())
            .with_cold_ref(Some(cold_ref));
        assert!(table.apply_block_patch(&old, Arc::new(demoted)));
        let v2 = unit_stream("sweep", |sink| {
            write_manifest(2, &table.schema_snapshot(), sink)?;
            table.blocks().iter().try_for_each(|b| write_block(b, sink))
        });
        assert!(v2.windows(2).any(|w| w == TAG_ZONES.to_le_bytes()));
        assert!(v2.windows(2).any(|w| w == TAG_COLDREF.to_le_bytes()));
        let warm_columns = table.blocks()[1].columns().len();
        sweep(&v2, false, &[warm_columns]);

        // Legacy v1: two warm blocks, read positionally.
        let legacy = sealed_table("legacy", 2, 12);
        let per_block: Vec<usize> = legacy.blocks().iter().map(|b| b.columns().len()).collect();
        sweep(&v1_unit_stream(&legacy), true, &per_block);
        std::fs::remove_dir_all(&dir).ok();
    }
}
