//! Sequential writers/readers over a segment.
//!
//! Shutdown (Figure 6) and the checkpointer append frames to a table
//! segment through [`SegmentWriter`]; restore (Figure 7) reads them back in
//! order and truncates the segment as it goes so the freed pages return to
//! the OS while the heap refills — the trick that keeps the total
//! footprint flat (§4.4).

use std::os::unix::fs::FileExt;

use crate::error::{ShmError, ShmResult};
use crate::segment::ShmSegment;

/// Writes a segment through its descriptor: the one writer of every
/// shared-memory image (shutdown backup, checkpoints, old-writer images).
///
/// Bytes go in with `pwrite`, never through the mapping. On tmpfs a write
/// fault on a fresh mapping allocates, zeroes and maps each page; `pwrite`
/// allocates the page and copies into it without zeroing what it fully
/// overwrites and without the per-page fault, which measured about twice
/// the single-thread rate and scales with threads where the mapping path
/// does not (EXPERIMENTS.md E14). The segment is sized once, at
/// [`SegmentWriter::finish`]; a mapping of it — the read side's interface,
/// or the caller's own handle — sees the written bytes.
#[derive(Debug)]
pub struct SegmentWriter<'a> {
    segment: &'a mut ShmSegment,
    cursor: usize,
}

impl<'a> SegmentWriter<'a> {
    /// Append from offset 0.
    pub fn new(segment: &'a mut ShmSegment) -> SegmentWriter<'a> {
        SegmentWriter::at(segment, 0)
    }

    /// Append from `offset`: the bytes before it are kept, the ones after
    /// it are replaced (the checkpointer's sealed-frontier append).
    pub fn at(segment: &'a mut ShmSegment, offset: usize) -> SegmentWriter<'a> {
        SegmentWriter {
            segment,
            cursor: offset,
        }
    }

    /// Where the next append lands.
    pub fn position(&self) -> usize {
        self.cursor
    }

    /// Append `bytes` (Figure 6: "copy data from heap to the table
    /// segment"; the file grows as it is written).
    pub fn write(&mut self, bytes: &[u8]) -> ShmResult<()> {
        self.pwrite(self.cursor, bytes)?;
        self.cursor += bytes.len();
        Ok(())
    }

    /// Overwrite bytes already appended, in place (the checkpointer's
    /// manifest patch). The append position does not move.
    pub fn write_at(&self, offset: usize, bytes: &[u8]) -> ShmResult<()> {
        if offset + bytes.len() > self.cursor {
            return Err(ShmError::OutOfBounds {
                name: self.segment.name().to_owned(),
                offset,
                len: bytes.len(),
                size: self.cursor,
            });
        }
        self.pwrite(offset, bytes)
    }

    fn pwrite(&self, offset: usize, bytes: &[u8]) -> ShmResult<()> {
        self.segment
            .file()
            .write_all_at(bytes, offset as u64)
            .map_err(|source| ShmError::Syscall {
                call: "pwrite",
                name: self.segment.name().to_owned(),
                source,
            })
    }

    /// Finish: size the segment to exactly the bytes appended (one
    /// `ftruncate`, which drops anything a longer earlier image left past
    /// the end; the segment's mapping follows), then sync — the write
    /// barrier before a caller publishes the valid bit.
    pub fn finish(self) -> ShmResult<()> {
        self.segment.resize(self.cursor)?;
        self.segment.sync()
    }
}

/// Reads bytes sequentially from a segment, optionally truncating behind
/// the cursor to release memory during restore.
#[derive(Debug)]
pub struct SegmentReader {
    segment: ShmSegment,
    cursor: usize,
    /// End of the prefix already punched out.
    released: usize,
}

impl SegmentReader {
    /// Wrap a segment for sequential reading.
    pub fn new(segment: ShmSegment) -> SegmentReader {
        SegmentReader {
            segment,
            cursor: 0,
            released: 0,
        }
    }

    /// Bytes remaining after the cursor.
    pub fn remaining(&self) -> usize {
        self.segment.len() - self.cursor
    }

    /// Current read position.
    pub fn position(&self) -> usize {
        self.cursor
    }

    /// Read exactly `len` bytes into a fresh heap buffer (this copy *is*
    /// the shm→heap memcpy of Figure 7).
    pub fn read(&mut self, len: usize) -> ShmResult<Vec<u8>> {
        if len > self.remaining() {
            return Err(ShmError::OutOfBounds {
                name: self.segment.name().to_owned(),
                offset: self.cursor,
                len,
                size: self.segment.len(),
            });
        }
        let out = self.segment.as_slice()[self.cursor..self.cursor + len].to_vec();
        self.cursor += len;
        Ok(out)
    }

    /// Borrow the next `len` bytes directly out of the mapping without
    /// copying, advancing the cursor. This is the zero-copy read the
    /// restore path uses for framing fields and for checksum verification
    /// *before* paying the shm→heap memcpy: a torn chunk is rejected
    /// without ever allocating for it. The borrow ends before the next
    /// mutating call (`release_consumed` punches only *behind* the cursor,
    /// so a hole never invalidates data a previous borrow copied out).
    pub fn read_borrowed(&mut self, len: usize) -> ShmResult<&[u8]> {
        if len > self.remaining() {
            return Err(ShmError::OutOfBounds {
                name: self.segment.name().to_owned(),
                offset: self.cursor,
                len,
                size: self.segment.len(),
            });
        }
        let start = self.cursor;
        self.cursor += len;
        Ok(&self.segment.as_slice()[start..start + len])
    }

    /// Read a little-endian u64 length prefix.
    pub fn read_u64(&mut self) -> ShmResult<u64> {
        let bytes = self.read_borrowed(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().unwrap()))
    }

    /// Read a little-endian u32 (checksum fields).
    pub fn read_u32(&mut self) -> ShmResult<u32> {
        let bytes = self.read_borrowed(4)?;
        Ok(u32::from_le_bytes(bytes.try_into().unwrap()))
    }

    /// Punch out the fully-consumed, page-aligned prefix behind the
    /// cursor, returning those physical pages to the OS (Figure 7:
    /// "truncate the table shared memory segment if needed"). Already-read
    /// data is untouched by definition; unread data is never released.
    pub fn release_consumed(&mut self) -> ShmResult<usize> {
        const PAGE: usize = 4096;
        let target = self.cursor / PAGE * PAGE;
        if target <= self.released {
            return Ok(0);
        }
        let len = target - self.released;
        self.segment.punch_hole(self.released, len)?;
        self.released = target;
        Ok(len)
    }

    /// Physical bytes still backing the segment.
    pub fn resident_bytes(&self) -> ShmResult<usize> {
        self.segment.resident_bytes()
    }

    /// Consume the reader, returning the segment (e.g. to unlink it).
    pub fn into_segment(self) -> ShmSegment {
        self.segment
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    fn seg(tag: &str, size: usize) -> (ShmSegment, String) {
        let name = format!(
            "/scuba_arena_{}_{}_{}",
            tag,
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        );
        (ShmSegment::create(&name, size).unwrap(), name)
    }

    struct Cleanup(String);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = ShmSegment::unlink(&self.0);
        }
    }

    #[test]
    fn write_then_read_round_trip() {
        let (mut s, name) = seg("rt", 0);
        let _c = Cleanup(name);
        let mut w = SegmentWriter::new(&mut s);
        w.write(&3u64.to_le_bytes()).unwrap();
        w.write(b"abc").unwrap();
        w.write(&5u64.to_le_bytes()).unwrap();
        w.write(b"hello").unwrap();
        w.finish().unwrap();
        assert_eq!(s.len(), 8 + 3 + 8 + 5);

        let mut r = SegmentReader::new(s);
        let n = r.read_u64().unwrap();
        assert_eq!(r.read(n as usize).unwrap(), b"abc");
        let n = r.read_u64().unwrap();
        assert_eq!(r.read(n as usize).unwrap(), b"hello");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn fd_writes_are_what_a_fresh_open_maps() {
        let (mut s, name) = seg("fresh", 0);
        let _c = Cleanup(name.clone());
        let mut expected = Vec::new();
        let mut w = SegmentWriter::new(&mut s);
        for i in 0..1000u32 {
            let small: Vec<u8> = (0..(i % 37) as u8).map(|b| b ^ i as u8).collect();
            w.write(&small).unwrap();
            expected.extend_from_slice(&small);
        }
        // One write of many pages, past 1 MiB and not page-aligned.
        let large: Vec<u8> = (0..(3 << 20) + 123).map(|i| (i % 251) as u8).collect();
        w.write(&large).unwrap();
        expected.extend_from_slice(&large);
        w.write(b"tail").unwrap();
        expected.extend_from_slice(b"tail");
        assert_eq!(w.position(), expected.len());
        w.finish().unwrap();
        drop(s);

        let reopened = ShmSegment::open(&name).unwrap();
        assert_eq!(reopened.len(), expected.len());
        assert!(reopened.as_slice() == expected.as_slice());
    }

    #[test]
    fn write_at_patches_in_place_and_finish_drops_the_old_tail() {
        let (mut s, name) = seg("patch", 0);
        let _c = Cleanup(name);
        let mut w = SegmentWriter::new(&mut s);
        w.write(&[0xAA; 100]).unwrap();
        w.finish().unwrap();
        assert_eq!(s.len(), 100);

        // Rewrite from offset 40 with a shorter tail, then patch a prefix.
        let mut w = SegmentWriter::at(&mut s, 40);
        w.write(&[0xBB; 20]).unwrap();
        w.write_at(10, b"patch").unwrap();
        assert_eq!(w.position(), 60, "write_at does not move the cursor");
        assert!(matches!(
            w.write_at(58, b"past"),
            Err(ShmError::OutOfBounds { .. })
        ));
        w.finish().unwrap();

        let mut expected = vec![0xAA; 40];
        expected[10..15].copy_from_slice(b"patch");
        expected.extend_from_slice(&[0xBB; 20]);
        assert_eq!(s.len(), 60);
        assert_eq!(s.as_slice(), expected.as_slice());
    }

    #[test]
    fn a_live_mapping_sees_fd_writes_after_finish() {
        // The checkpointer keeps one handle per table across cycles and
        // writes each cycle through it: its mapping must follow.
        let (mut s, name) = seg("live", 0);
        let _c = Cleanup(name.clone());
        let mut w = SegmentWriter::new(&mut s);
        w.write(b"first cycle").unwrap();
        w.finish().unwrap();
        let reader = ShmSegment::open(&name).unwrap();
        assert_eq!(reader.as_slice(), b"first cycle");

        let mut w = SegmentWriter::at(&mut s, 6);
        w.write(b"CYCLE, then more").unwrap();
        w.finish().unwrap();
        assert_eq!(s.as_slice(), b"first CYCLE, then more");
        // Another process's (or thread's) older mapping sees the rewritten
        // prefix it already covers.
        assert_eq!(reader.as_slice(), b"first CYCLE");
    }

    #[test]
    fn finish_allocates_only_the_written_pages() {
        const PAGE: usize = 4096;
        for len in [1, PAGE, PAGE + 1, (1 << 20) + 5, 3 << 20] {
            let (mut s, name) = seg("resident", 0);
            let _c = Cleanup(name);
            let mut w = SegmentWriter::new(&mut s);
            w.write(&vec![0x11; len]).unwrap();
            w.finish().unwrap();
            assert_eq!(
                s.resident_bytes().unwrap(),
                len.div_ceil(PAGE) * PAGE,
                "{len} bytes written"
            );
        }
    }

    #[test]
    fn reader_rejects_overrun() {
        let (s, name) = seg("over", 4);
        let _c = Cleanup(name);
        let mut r = SegmentReader::new(s);
        assert!(r.read(5).is_err());
        assert_eq!(r.read(4).unwrap().len(), 4);
        assert!(r.read(1).is_err());
        assert!(matches!(r.read_u64(), Err(ShmError::OutOfBounds { .. })));
    }

    #[test]
    fn release_consumed_frees_pages_behind_cursor() {
        let (mut s, name) = seg("release", 0);
        let _c = Cleanup(name);
        let mut w = SegmentWriter::new(&mut s);
        let payload: Vec<u8> = (0..512 * 1024).map(|i| (i % 251) as u8).collect();
        w.write(&payload).unwrap();
        w.finish().unwrap();
        let full = s.resident_bytes().unwrap();

        let mut r = SegmentReader::new(s);
        assert_eq!(r.release_consumed().unwrap(), 0); // nothing consumed yet
        let half = payload.len() / 2;
        assert_eq!(r.read(half).unwrap(), &payload[..half]);
        let released = r.release_consumed().unwrap();
        assert!(released >= half - 4096, "released {released}");
        assert!(r.resident_bytes().unwrap() <= full - released + 4096);
        // Remaining data still reads correctly after the punch.
        assert_eq!(r.read(payload.len() - half).unwrap(), &payload[half..]);
        // Idempotent at the same cursor.
        r.release_consumed().unwrap();
    }

    #[test]
    fn read_borrowed_is_zero_copy_and_advances() {
        let (mut s, name) = seg("borrow", 0);
        let _c = Cleanup(name);
        let mut w = SegmentWriter::new(&mut s);
        w.write(b"abcdefgh").unwrap();
        w.write(&42u64.to_le_bytes()).unwrap();
        w.finish().unwrap();

        let mut r = SegmentReader::new(s);
        assert_eq!(r.read_borrowed(4).unwrap(), b"abcd");
        assert_eq!(r.position(), 4);
        assert_eq!(r.read_borrowed(4).unwrap(), b"efgh");
        assert_eq!(r.read_u64().unwrap(), 42);
        assert_eq!(r.remaining(), 0);
        assert!(matches!(
            r.read_borrowed(1),
            Err(ShmError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn finish_trims_to_written() {
        let (mut s, name) = seg("trim", 1 << 16);
        let _c = Cleanup(name);
        let mut w = SegmentWriter::new(&mut s);
        w.write(b"xy").unwrap();
        w.finish().unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn empty_writer_finishes_empty() {
        let (mut s, name) = seg("empty", 0);
        let _c = Cleanup(name);
        SegmentWriter::new(&mut s).finish().unwrap();
        assert!(s.is_empty());
        assert_eq!(SegmentReader::new(s).remaining(), 0);
    }
}
