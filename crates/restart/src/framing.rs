//! The chunk frame formats shared by backup, restore, and attach.
//!
//! **v2 (current, self-describing TLV):** every frame carries a
//! [`ChunkDesc`](crate::traits::ChunkDesc) — a tag identifying what the
//! payload is, a per-chunk format version, and flags — so a reader can
//! recognize, shim, or (when the writer marked the chunk skippable) ignore
//! chunks it does not understand, instead of abandoning the whole image:
//!
//! ```text
//! tag u16 | version u16 | flags u32 | len u64 | crc u32 | payload
//! ```
//!
//! The stream ends with a frame whose tag is [`TAG_END`] (len 0, crc 0).
//! The first frame of every unit is the unit name, tagged
//! [`TAG_UNIT_NAME`]. Store-defined tags start at [`TAG_STORE_BASE`];
//! tags below it are reserved for the protocol.
//!
//! **v1 (legacy):** the pre-refactor bare framing — `len u64 | crc u32 |
//! payload` per chunk, name frame first, terminated by a length word of
//! `u64::MAX`. Still fully readable: restore selects the parser from the
//! image's metadata writer version, and yields legacy chunks with
//! [`ChunkDesc::legacy`] descriptors so stores can fall back to
//! positional decoding.
//!
//! Writers frame chunks through the [`ChunkSink`] impls here: v2 frames
//! appended to a segment ([`SegmentWriter`]) or to a heap buffer. Both
//! restore paths parse frames here, over a [`FrameCursor`] — a
//! segment being drained ([`SegmentReader`]) or shared bytes
//! ([`SharedCursor`]: an attached mapping, or a buffer in memory):
//! [`read_frame_header`] for every chunk, [`read_unit_name`] for the
//! first frame, and [`drain`] for the check that follows a store's read.

use std::sync::Arc;

use scuba_shmem::{SegmentReader, SegmentWriter, ShmError};

use crate::traits::{ChunkDesc, ChunkSink};

/// v2 frame header size in bytes: tag + version + flags + len + crc.
pub const FRAME_HEADER_V2: usize = 2 + 2 + 4 + 8 + 4;

/// v1 frame header size in bytes: len + crc.
pub const FRAME_HEADER_V1: usize = 8 + 4;

/// Tag of the end-of-unit frame (v2).
pub const TAG_END: u16 = 0xFFFF;

/// Tag of the unit-name frame, always first in a segment (v2).
pub const TAG_UNIT_NAME: u16 = 1;

/// First tag value available to stores; lower tags are protocol-reserved.
pub const TAG_STORE_BASE: u16 = 16;

/// End-of-unit sentinel in the legacy v1 framing.
pub const END_SENTINEL_V1: u64 = u64::MAX;

/// Encode a v2 frame header.
pub fn encode_header_v2(desc: ChunkDesc, len: u64, crc: u32) -> [u8; FRAME_HEADER_V2] {
    let mut h = [0u8; FRAME_HEADER_V2];
    h[0..2].copy_from_slice(&desc.tag.to_le_bytes());
    h[2..4].copy_from_slice(&desc.version.to_le_bytes());
    h[4..8].copy_from_slice(&desc.flags.to_le_bytes());
    h[8..16].copy_from_slice(&len.to_le_bytes());
    h[16..20].copy_from_slice(&crc.to_le_bytes());
    h
}

/// The end-of-unit frame header (v2).
pub fn end_header_v2() -> [u8; FRAME_HEADER_V2] {
    encode_header_v2(
        ChunkDesc {
            tag: TAG_END,
            version: 0,
            flags: 0,
        },
        0,
        0,
    )
}

/// A v2 frame — header with the payload's CRC, then the payload —
/// appended to a segment image. The checkpointer and the old-writer
/// installers write through this; the shutdown backup wraps the writer to
/// time each step and to carry its failpoint.
impl ChunkSink for SegmentWriter<'_> {
    fn put_chunk_crc(&mut self, desc: ChunkDesc, chunk: &[u8], crc: u32) -> Result<(), ShmError> {
        self.write(&encode_header_v2(desc, chunk.len() as u64, crc))?;
        self.write(chunk)
    }

    fn position(&self) -> usize {
        SegmentWriter::position(self)
    }

    fn patch(&mut self, offset: usize, bytes: &[u8]) -> Result<(), ShmError> {
        self.write_at(offset, bytes)
    }
}

/// The same v2 frame appended to a heap buffer: a frame built aside to be
/// patched into an image, or a unit stream assembled in memory.
impl ChunkSink for Vec<u8> {
    fn put_chunk_crc(&mut self, desc: ChunkDesc, chunk: &[u8], crc: u32) -> Result<(), ShmError> {
        self.extend_from_slice(&encode_header_v2(desc, chunk.len() as u64, crc));
        self.extend_from_slice(chunk);
        Ok(())
    }

    fn position(&self) -> usize {
        self.len()
    }

    fn patch(&mut self, offset: usize, bytes: &[u8]) -> Result<(), ShmError> {
        let size = self.len();
        self.get_mut(offset..offset + bytes.len())
            .ok_or(ShmError::OutOfBounds {
                name: "heap image".to_owned(),
                offset,
                len: bytes.len(),
                size,
            })?
            .copy_from_slice(bytes);
        Ok(())
    }
}

/// Decode a v2 frame header into `(desc, len, crc)`.
pub fn decode_header_v2(h: &[u8]) -> (ChunkDesc, u64, u32) {
    debug_assert!(h.len() >= FRAME_HEADER_V2);
    let desc = ChunkDesc {
        tag: u16::from_le_bytes(h[0..2].try_into().unwrap()),
        version: u16::from_le_bytes(h[2..4].try_into().unwrap()),
        flags: u32::from_le_bytes(h[4..8].try_into().unwrap()),
    };
    let len = u64::from_le_bytes(h[8..16].try_into().unwrap());
    let crc = u32::from_le_bytes(h[16..20].try_into().unwrap());
    (desc, len, crc)
}

/// A bounds-checked sequential reader over one unit's frames.
pub trait FrameCursor {
    /// Offset of the next unread byte.
    fn position(&self) -> usize;
    /// Borrow the next `len` bytes and move past them; an error if fewer
    /// remain.
    fn take(&mut self, len: usize) -> Result<&[u8], ShmError>;
}

impl FrameCursor for SegmentReader {
    fn position(&self) -> usize {
        SegmentReader::position(self)
    }

    fn take(&mut self, len: usize) -> Result<&[u8], ShmError> {
        self.read_borrowed(len)
    }
}

/// A [`FrameCursor`] over shared bytes that keeps the backing, so chunks
/// can be handed out as windows into it.
pub struct SharedCursor {
    backing: Arc<dyn AsRef<[u8]> + Send + Sync>,
    /// Names the bytes in errors (the segment name).
    name: String,
    pos: usize,
}

impl SharedCursor {
    /// A cursor at the start of `backing`.
    pub fn new(backing: Arc<dyn AsRef<[u8]> + Send + Sync>, name: impl Into<String>) -> Self {
        SharedCursor {
            backing,
            name: name.into(),
            pos: 0,
        }
    }

    /// The bytes this cursor reads.
    pub fn backing(&self) -> &Arc<dyn AsRef<[u8]> + Send + Sync> {
        &self.backing
    }
}

impl FrameCursor for SharedCursor {
    fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, len: usize) -> Result<&[u8], ShmError> {
        let bytes = (*self.backing).as_ref();
        let end = self.pos.saturating_add(len);
        if end > bytes.len() {
            return Err(ShmError::Corrupt {
                name: self.name.clone(),
                reason: format!(
                    "frame extends past segment end (need {end}, have {})",
                    bytes.len()
                ),
            });
        }
        let start = std::mem::replace(&mut self.pos, end);
        Ok(&bytes[start..end])
    }
}

/// Read the next frame header as `(descriptor, payload length, stored
/// CRC)`, or `None` at the end of the unit: the v1 `u64::MAX` length
/// sentinel or the v2 [`TAG_END`] frame. Legacy frames surface with
/// [`ChunkDesc::legacy`].
pub fn read_frame_header<C: FrameCursor + ?Sized>(
    cur: &mut C,
    legacy: bool,
) -> Result<Option<(ChunkDesc, u64, u32)>, ShmError> {
    if !legacy {
        let (desc, len, crc) = decode_header_v2(cur.take(FRAME_HEADER_V2)?);
        return Ok((desc.tag != TAG_END).then_some((desc, len, crc)));
    }
    let len = u64::from_le_bytes(cur.take(8)?.try_into().unwrap());
    if len == END_SENTINEL_V1 {
        return Ok(None);
    }
    let crc = u32::from_le_bytes(cur.take(4)?.try_into().unwrap());
    Ok(Some((ChunkDesc::legacy(), len, crc)))
}

/// Read and verify a unit's first frame, its name. Returns the name and
/// the nanoseconds its CRC took.
pub fn read_unit_name<C: FrameCursor + ?Sized>(
    cur: &mut C,
    legacy: bool,
) -> Result<(String, u64), String> {
    let frame_err = |e: ShmError| format!("unit name frame: {e}");
    let (desc, len, crc) = read_frame_header(cur, legacy)
        .map_err(frame_err)?
        .ok_or_else(|| "expected unit name frame, found end of unit".to_owned())?;
    if !legacy && desc.tag != TAG_UNIT_NAME {
        return Err(format!(
            "expected unit name frame, found chunk tag {}",
            desc.tag
        ));
    }
    let name = cur.take(len as usize).map_err(frame_err)?;
    let (computed, crc_ns) = scuba_shmem::crc32_timed(name);
    if computed != crc {
        return Err("unit name frame checksum mismatch".to_owned());
    }
    let name = std::str::from_utf8(name).map_err(|_| "unit name is not UTF-8".to_owned())?;
    Ok((name.to_owned(), crc_ns))
}

/// Pull a unit's remaining frames after its store stopped reading, so a
/// short read cannot silently drop data.
pub fn drain<T>(mut next: impl FnMut() -> Result<Option<T>, ShmError>) -> Result<(), ShmError> {
    while next()?.is_some() {}
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::FLAG_SKIPPABLE;

    #[test]
    fn header_round_trips() {
        let desc = ChunkDesc {
            tag: 17,
            version: 3,
            flags: FLAG_SKIPPABLE,
        };
        let h = encode_header_v2(desc, 1234, 0xDEAD_BEEF);
        let (d2, len, crc) = decode_header_v2(&h);
        assert_eq!(d2, desc);
        assert_eq!(len, 1234);
        assert_eq!(crc, 0xDEAD_BEEF);
    }

    #[test]
    fn end_header_is_recognizable() {
        let (desc, len, _) = decode_header_v2(&end_header_v2());
        assert_eq!(desc.tag, TAG_END);
        assert_eq!(len, 0);
    }
}
