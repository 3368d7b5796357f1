//! The two halves of a store the restart protocol preserves across
//! processes: [`ShmBackup`], a job the backup envelope writes, and
//! [`ShmPersistable`], a store the restore reads back into.
//!
//! The paper's procedures (Figures 6–7) walk tables → row blocks → row
//! block columns, moving **one row block column at a time** so the memory
//! footprint never doubles (§4.4). The protocol here is generic: a store
//! exposes named *units* (Scuba: tables) that stream themselves as
//! *chunks* (Scuba: row block column buffers / row block images). The
//! protocol owns segment naming, framing, the valid-bit commit, and
//! footprint bookkeeping; the store owns its own serialization.
//!
//! Each half is split so the copy loops can be parallelized across units:
//! taking a unit out of the job ([`ShmBackup::extract_unit`]) or putting
//! one into the store ([`ShmPersistable::install_unit`]) happens under the
//! coordinator, which owns `&mut self`; turning an owned unit into chunks
//! and back ([`ShmBackup::backup_extracted`],
//! [`ShmPersistable::decode_unit`]) needs no `self` at all, so worker
//! threads can run those steps for different units concurrently.

use std::sync::Arc;

use scuba_shmem::{crc32, SegmentView, ShmError};

/// A chunk marked with this flag may be ignored by readers that do not
/// recognize its tag — the writer guarantees the unit decodes correctly
/// without it. Unknown chunks *without* this flag are a true
/// incompatibility.
pub const FLAG_SKIPPABLE: u32 = 1;

/// Self-description of one chunk in the v2 TLV framing: what the payload
/// is (`tag`), which revision of that payload format the writer used
/// (`version`), and reader guidance (`flags`). Legacy v1 images have no
/// per-chunk descriptors; their chunks surface with [`ChunkDesc::legacy`]
/// so stores can switch to positional decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkDesc {
    /// What the payload is. Tags below
    /// [`crate::framing::TAG_STORE_BASE`] are protocol-reserved.
    pub tag: u16,
    /// Format version of this chunk's payload, independent per tag.
    pub version: u16,
    /// Reader guidance bits ([`FLAG_SKIPPABLE`], rest reserved).
    pub flags: u32,
}

impl ChunkDesc {
    /// A chunk descriptor with no flags set.
    pub fn new(tag: u16, version: u16) -> ChunkDesc {
        ChunkDesc {
            tag,
            version,
            flags: 0,
        }
    }

    /// Mark the chunk as ignorable by readers that don't know the tag.
    pub fn skippable(mut self) -> ChunkDesc {
        self.flags |= FLAG_SKIPPABLE;
        self
    }

    /// Whether readers may skip this chunk if they don't know the tag.
    pub fn is_skippable(&self) -> bool {
        self.flags & FLAG_SKIPPABLE != 0
    }

    /// The descriptor synthesized for chunks read from a legacy v1 image
    /// (tag 0 — below the store range — version 1, no flags).
    pub fn legacy() -> ChunkDesc {
        ChunkDesc {
            tag: 0,
            version: 1,
            flags: 0,
        }
    }

    /// Whether this chunk came from a legacy v1 image.
    pub fn is_legacy(&self) -> bool {
        self.tag == 0
    }
}

/// Receives chunks during backup. Implemented by the protocol over a
/// [`scuba_shmem::SegmentWriter`]; a store calls `put_chunk` once per row
/// block column (or other natural copy unit) and frees the corresponding
/// heap immediately after — that ordering is what keeps the footprint
/// flat.
pub trait ChunkSink {
    /// Append one chunk, framed with its descriptor and `crc`, the CRC-32
    /// of `chunk` — which a store that already holds it (a row block
    /// column derives it from its seal-time footer) passes instead of
    /// having every byte read again.
    fn put_chunk_crc(&mut self, desc: ChunkDesc, chunk: &[u8], crc: u32) -> Result<(), ShmError>;

    /// Append one chunk, framed with its descriptor and the CRC-32
    /// computed over it.
    fn put_chunk(&mut self, desc: ChunkDesc, chunk: &[u8]) -> Result<(), ShmError> {
        self.put_chunk_crc(desc, chunk, crc32(chunk))
    }

    /// Offset in the unit's image where the next frame lands.
    fn position(&self) -> usize;

    /// Overwrite bytes the image already holds, in place: how an image
    /// extended at its end gets its manifest's new block count.
    fn patch(&mut self, offset: usize, bytes: &[u8]) -> Result<(), ShmError>;
}

/// Yields chunks during restore, in the order they were written.
pub trait ChunkSource {
    /// The next chunk and its descriptor, or `None` at end of unit. Each
    /// returned buffer is a fresh heap allocation (the shm→heap memcpy);
    /// the protocol releases the consumed shared-memory pages behind it.
    fn next_chunk(&mut self) -> Result<Option<(ChunkDesc, Vec<u8>)>, ShmError>;
}

/// One chunk located inside an attached read-only mapping: a window into
/// the `Arc`-shared backing instead of a heap copy. The store decides per
/// chunk whether to borrow ([`MappedChunk::bytes`], zero-copy) or copy
/// ([`MappedChunk::to_heap`], which verifies the frame CRC first — right
/// for small metadata chunks that must live past the mapping).
pub struct MappedChunk {
    /// The chunk's descriptor (synthesized [`ChunkDesc::legacy`] for v1
    /// images).
    pub desc: ChunkDesc,
    /// The shared mapping (a `scuba_shmem::SegmentView` in production).
    pub backing: Arc<dyn AsRef<[u8]> + Send + Sync>,
    /// Chunk payload start within the mapping.
    pub offset: usize,
    /// Payload length in bytes.
    pub len: usize,
    /// The CRC-32 recorded in the chunk's frame. Not verified by the
    /// attach walk — payload integrity is deferred to hydration so attach
    /// cost stays proportional to metadata (the RBC footer CRC covers the
    /// same bytes).
    pub stored_crc: u32,
}

impl MappedChunk {
    /// The chunk's payload, borrowed from the mapping.
    pub fn bytes(&self) -> &[u8] {
        &(*self.backing).as_ref()[self.offset..self.offset + self.len]
    }

    /// Recompute the frame CRC over the mapped payload and compare.
    pub fn verify(&self) -> Result<(), ShmError> {
        let computed = crc32(self.bytes());
        if computed != self.stored_crc {
            return Err(ShmError::Corrupt {
                name: "chunk framing".to_owned(),
                reason: "chunk checksum mismatch (torn or corrupted copy)".to_owned(),
            });
        }
        Ok(())
    }

    /// Verify the frame CRC, then copy the payload to heap.
    pub fn to_heap(&self) -> Result<Vec<u8>, ShmError> {
        self.verify()?;
        Ok(self.bytes().to_vec())
    }
}

/// Yields mapped chunks during attach, in the order they were written.
pub trait MappedChunkSource {
    /// The next chunk window, or `None` at end of unit.
    fn next_mapped_chunk(&mut self) -> Result<Option<MappedChunk>, ShmError>;

    /// The attached segment the windows point into, for a store that keeps
    /// serving it and extends it at the next backup
    /// ([`UnitTarget::Extend`]). `None` when the chunks are not
    /// windows into a named segment.
    fn segment(&self) -> Option<&Arc<SegmentView>> {
        None
    }
}

/// Where the backup envelope puts one extracted unit
/// ([`ShmBackup::unit_target`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnitTarget {
    /// A fresh segment, the unit written whole.
    Fresh,
    /// The live segment `name`, extended in place from `at` (where its
    /// image's sealed frames end) with no name frame, and never left
    /// shorter than the `floor` bytes the store's views of it map.
    Extend {
        name: String,
        at: usize,
        floor: usize,
    },
    /// The live segment named, which already holds the unit: listed as it
    /// is, nothing written.
    Unchanged(String),
}

/// The backup half of a store: a job the backup envelope
/// ([`crate::backup_to_shm_with`]) writes into shared memory under the
/// valid bit, serializing its own units.
pub trait ShmBackup {
    /// Serialization error.
    type Error: std::error::Error + From<ShmError> + Send + Sync + 'static;
    /// One extracted unit, owned by value (Scuba: a table), which a worker
    /// thread serializes away from the job.
    type Unit: Send + 'static;
    /// What writing one unit leaves, handed back at the commit.
    type Written: Send;

    /// Names of the units to persist, in persist order (Scuba: table
    /// names). Captured once at the start of backup.
    fn unit_names(&self) -> Vec<String>;

    /// Estimated encoded size of a unit in bytes (Figure 6: "estimate
    /// size of table"). Pre-sizes the unit's segment; the writer grows it
    /// if the estimate was low and trims it afterwards.
    fn estimate_unit_size(&self, unit: &str) -> usize;

    /// Take `unit` out of the job by value (Figure 6: "delete table from
    /// heap" — its blocks are freed chunk by chunk in
    /// [`ShmBackup::backup_extracted`]). The heap bytes
    /// [`ShmBackup::heap_bytes`] drops by are the unit's, in flight until
    /// it is written: the §4.4 footprint accounting.
    fn extract_unit(&mut self, unit: &str) -> Result<Self::Unit, Self::Error>;

    /// Stream an extracted unit into `sink` chunk by chunk, freeing its
    /// heap as each chunk is handed off (Figure 6's inner loops). Takes no
    /// `&self`, so workers may run it for different units at once. An
    /// [`UnitTarget::Extend`] unit writes only the frames its live image
    /// lacks and patches what it must; an [`UnitTarget::Unchanged`] one
    /// is never written.
    fn backup_extracted(
        data: Self::Unit,
        sink: &mut dyn ChunkSink,
    ) -> Result<Self::Written, Self::Error>;

    /// Where an extracted unit goes. The default: a fresh segment.
    fn unit_target(_unit: &Self::Unit) -> &UnitTarget {
        static FRESH: UnitTarget = UnitTarget::Fresh;
        &FRESH
    }

    /// Names of live segments the store's images hold. A fresh unit
    /// segment never takes one.
    fn mapped_segments(&self) -> Vec<String> {
        Vec::new()
    }

    /// Every unit is written and synced, the valid bit about to be set:
    /// what each written unit left, with its segment's name, in no
    /// particular order. An error fails the backup.
    fn commit(&mut self, _written: Vec<(String, Self::Written)>) -> Result<(), Self::Error> {
        Ok(())
    }

    /// Format version of the unit's chunk stream, recorded per segment in
    /// the metadata registry so readers judge compatibility per table.
    fn unit_format_version(&self, _unit: &str) -> u32 {
        1
    }

    /// `Some(flags)`: the image is a checkpoint's — its registry entries
    /// carry `flags`, its breakdown is published as op `checkpoint`, and
    /// the `backups_*` counters do not count it.
    fn checkpoint_flags(&self) -> Option<u32> {
        None
    }

    /// Current heap footprint in bytes, excluding extracted units. Sampled
    /// to record the peak combined footprint, so it should be O(1).
    fn heap_bytes(&self) -> usize;
}

/// The restore half of a store: what [`crate::restore_from_shm`] and
/// [`crate::attach_from_shm`] read its in-memory state back into.
pub trait ShmPersistable {
    /// Store-level deserialization error.
    type Error: std::error::Error + From<ShmError> + Send + Sync + 'static;
    /// One decoded unit, owned by value (Scuba: a table), which a worker
    /// thread decodes away from the store.
    type Unit: Send + 'static;

    /// Rebuild one unit by draining `source` (Figure 7's inner loops:
    /// "allocate memory in heap; copy data from table segment to heap").
    /// Must validate chunk integrity and error on anything suspect — the
    /// protocol turns any error into a fall-back-to-disk. Takes no
    /// `&self`; the decoded unit is handed to
    /// [`ShmPersistable::install_unit`] under the coordinator.
    fn decode_unit(unit: &str, source: &mut dyn ChunkSource) -> Result<Self::Unit, Self::Error>;

    /// Rebuild one unit from an attached mapping without draining it to
    /// heap. The default implementation adapts the mapped source into a
    /// copying [`ChunkSource`] (verifying each frame CRC, exactly like the
    /// restore path) and delegates to [`ShmPersistable::decode_unit`] — so
    /// every store works under attach unchanged. Stores that can serve
    /// queries over borrowed bytes override this to keep per-value chunks
    /// mapped.
    fn attach_unit(
        unit: &str,
        source: &mut dyn MappedChunkSource,
    ) -> Result<Self::Unit, Self::Error> {
        struct CopyingSource<'a>(&'a mut dyn MappedChunkSource);
        impl ChunkSource for CopyingSource<'_> {
            fn next_chunk(&mut self) -> Result<Option<(ChunkDesc, Vec<u8>)>, ShmError> {
                match self.0.next_mapped_chunk()? {
                    None => Ok(None),
                    Some(chunk) => Ok(Some((chunk.desc, chunk.to_heap()?))),
                }
            }
        }
        Self::decode_unit(unit, &mut CopyingSource(source))
    }

    /// Put a decoded unit into the store (the only store mutation on the
    /// restore path, run under the coordinator's `&mut self`).
    fn install_unit(&mut self, unit: &str, data: Self::Unit) -> Result<(), Self::Error>;

    /// Classify a decode/install error: `true` means the unit's format is
    /// one this store cannot (and will never, for this image) understand —
    /// the protocol skips just that unit and reports it for per-table disk
    /// recovery instead of abandoning the whole leaf. Corruption and
    /// environment errors must return `false` (whole-leaf fallback keeps
    /// the §4.3 conservatism).
    fn error_is_incompatible(_e: &Self::Error) -> bool {
        false
    }

    /// Current heap footprint in bytes. Sampled by the restore to record
    /// the peak combined footprint, so it should be O(1) (a maintained
    /// counter, not a walk).
    fn heap_bytes(&self) -> usize;
}
