//! A named POSIX shared-memory segment.
//!
//! The defining property (§3): the segment's lifetime is tied to the
//! *name* in the kernel, not to any process. Dropping an [`ShmSegment`]
//! unmaps and closes but does **not** unlink, so the bytes survive for the
//! replacement process to `open` — "the lifetimes of the two processes do
//! not overlap".
//!
//! # Safety
//!
//! This module owns the only `unsafe` blocks in the workspace's hot path:
//! `shm_open`, `mmap`/`munmap`, `msync`, `mprotect` and `fallocate`. The
//! descriptor is a [`File`], so closing, sizing (`set_len`), `fstat` and
//! the image writers' `pwrite` ([`crate::SegmentWriter`]) are safe calls.
//! The invariants each mapping upholds:
//!
//! * `ptr` is the non-null result of a successful `mmap` of exactly `len`
//!   bytes, and is unmapped exactly once (in `unmap`/`Drop`).
//! * `len` never exceeds the file size. A `pwrite` may grow the file past
//!   `len`; the mapping then covers a prefix of it until the next
//!   [`ShmSegment::resize`]. The kernel keeps the bytes written through
//!   the descriptor coherent with every `MAP_SHARED` mapping of the file.
//! * Slices handed out borrow `self`, so they cannot outlive the mapping,
//!   and `&mut` access goes through `&mut self`, so Rust aliasing rules
//!   hold within this process. Cross-process aliasing is inherent to
//!   shared memory; the restart protocol never has both processes alive
//!   and writing at once (the old process exits before the new one reads),
//!   and the valid-bit + checksum protocol detects torn writes.

use std::ffi::CString;
use std::fs::File;
use std::os::fd::{AsRawFd, FromRawFd};
use std::os::unix::fs::MetadataExt;
use std::ptr::NonNull;
use std::time::Duration;

use crate::error::{ShmError, ShmResult};

/// Attempts (initial try + retries) for syscalls that can fail transiently
/// with `EINTR`/`EAGAIN` — e.g. `shm_open` interrupted by a signal during
/// a rollover's SIGTERM window.
const RETRY_ATTEMPTS: u32 = 5;
/// First backoff; doubles per retry, capped at ~1 ms so a persistent
/// failure still surfaces in microseconds, not seconds.
const RETRY_BASE: Duration = Duration::from_micros(10);

fn is_transient(err: &std::io::Error) -> bool {
    matches!(
        err.raw_os_error(),
        Some(code) if code == libc::EINTR || code == libc::EAGAIN
    )
}

/// Run `op`, retrying transient `EINTR`/`EAGAIN` failures with bounded
/// exponential backoff. Other errors, and transient errors persisting past
/// [`RETRY_ATTEMPTS`], surface as a clean [`ShmError::Syscall`]. The
/// `site` failpoint injects synthetic `EINTR`s ahead of the real call, so
/// tests can prove both the retry-then-succeed and the give-up path.
fn retry_transient<T>(
    site: &str,
    call: &'static str,
    name: &str,
    mut op: impl FnMut() -> Result<T, std::io::Error>,
) -> ShmResult<T> {
    let mut backoff = RETRY_BASE;
    for attempt in 1..=RETRY_ATTEMPTS {
        let err = if scuba_faults::check(site).is_some() {
            std::io::Error::from_raw_os_error(libc::EINTR)
        } else {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) => e,
            }
        };
        if !is_transient(&err) || attempt == RETRY_ATTEMPTS {
            return Err(ShmError::Syscall {
                call,
                name: name.to_owned(),
                source: err,
            });
        }
        std::thread::sleep(backoff);
        backoff = (backoff * 2).min(Duration::from_millis(1));
    }
    unreachable!("loop returns on success or on the final attempt's error")
}

/// `shm_open(name, flags, 0600)` as an owned [`File`].
fn shm_open(name: &CString, flags: libc::c_int) -> Result<File, std::io::Error> {
    // SAFETY: `name` is NUL-terminated; a non-negative return is a fresh
    // descriptor that nothing else owns, so the File may close it.
    unsafe {
        let fd = libc::shm_open(name.as_ptr(), flags, 0o600);
        if fd < 0 {
            Err(std::io::Error::last_os_error())
        } else {
            Ok(File::from_raw_fd(fd))
        }
    }
}

/// `fstat` of a segment's descriptor.
fn fstat(file: &File, name: &str) -> ShmResult<std::fs::Metadata> {
    file.metadata().map_err(|source| ShmError::Syscall {
        call: "fstat",
        name: name.to_owned(),
        source,
    })
}

/// An open, mapped shared-memory segment.
#[derive(Debug)]
pub struct ShmSegment {
    name: String,
    file: File,
    ptr: NonNull<u8>,
    len: usize,
}

// The raw pointer is to process-shared memory owned by this handle; access
// is mediated by &/&mut self, so moving the handle across threads is fine.
unsafe impl Send for ShmSegment {}
unsafe impl Sync for ShmSegment {}

fn validate_name(name: &str) -> ShmResult<CString> {
    // POSIX: name should start with '/', contain no other '/', and fit in
    // NAME_MAX (255 on Linux).
    if name.is_empty() || !name.starts_with('/') || name[1..].contains('/') || name.len() > 250 {
        return Err(ShmError::BadName(name.to_owned()));
    }
    CString::new(name).map_err(|_| ShmError::BadName(name.to_owned()))
}

impl ShmSegment {
    /// Create a new segment of `size` bytes. Fails if the name exists
    /// (`O_EXCL`) — shutdown is expected to have cleaned up or the caller
    /// to have unlinked stale segments first.
    pub fn create(name: &str, size: usize) -> ShmResult<ShmSegment> {
        if scuba_faults::check("shmem::segment::create").is_some() {
            return Err(ShmError::injected("shmem::segment::create", name));
        }
        let cname = validate_name(name)?;
        let file = retry_transient("shmem::segment::shm_open", "shm_open", name, || {
            shm_open(&cname, libc::O_CREAT | libc::O_EXCL | libc::O_RDWR)
        })?;
        // The name exists in /dev/shm from this point on: bump the linked
        // gauge *before* finish_open so its failed-ftruncate cleanup path
        // (which unlinks the name) decrements a matching increment. The
        // gauge is the orphan detector — it must return to zero once every
        // created name has been unlinked.
        scuba_obs::counter!("shmem_segments_created").inc();
        scuba_obs::gauge!("shmem_segments_linked").inc();
        Self::finish_open(name, file, size, true)
    }

    /// Open an existing segment, mapping its current size.
    pub fn open(name: &str) -> ShmResult<ShmSegment> {
        if scuba_faults::check("shmem::segment::open").is_some() {
            return Err(ShmError::injected("shmem::segment::open", name));
        }
        let cname = validate_name(name)?;
        let file = retry_transient("shmem::segment::shm_open", "shm_open", name, || {
            shm_open(&cname, libc::O_RDWR)
        })?;
        let size = fstat(&file, name)?.len() as usize;
        Self::finish_open(name, file, size, false)
    }

    fn finish_open(name: &str, file: File, size: usize, truncate: bool) -> ShmResult<ShmSegment> {
        if truncate {
            let grown = retry_transient("shmem::segment::ftruncate", "ftruncate", name, || {
                file.set_len(size as u64)
            });
            if let Err(err) = grown {
                drop(file);
                // A failed create should not leave the name behind.
                let _ = Self::unlink(name);
                return Err(err);
            }
        }
        let map_len = size.max(1); // mmap rejects length 0
        let ptr = unsafe {
            libc::mmap(
                std::ptr::null_mut(),
                map_len,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == libc::MAP_FAILED {
            return Err(ShmError::syscall("mmap", name));
        }
        Ok(ShmSegment {
            name: name.to_owned(),
            file,
            ptr: NonNull::new(ptr as *mut u8).expect("mmap returned non-null"),
            len: size,
        })
    }

    /// The segment's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Mapped size in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the segment has zero bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read-only view of the whole segment.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: ptr/len describe a live mapping (module invariants).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Mutable view of the whole segment, for in-place edits of a mapped
    /// region (the metadata region's valid bit, tests that tear bytes).
    /// Images are written through the descriptor by
    /// [`crate::SegmentWriter`], never through this view.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: as above; &mut self gives in-process exclusivity.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }

    /// Resize the segment (grow or shrink) and remap. An image writer
    /// sizes its segment once this way, in [`crate::SegmentWriter::finish`],
    /// after writing it through the descriptor.
    pub fn resize(&mut self, new_size: usize) -> ShmResult<()> {
        if new_size == self.len {
            return Ok(());
        }
        if scuba_faults::check("shmem::segment::resize").is_some() {
            return Err(ShmError::injected("shmem::segment::resize", &self.name));
        }
        self.unmap();
        let file = &self.file;
        retry_transient("shmem::segment::ftruncate", "ftruncate", &self.name, || {
            file.set_len(new_size as u64)
        })?;
        let map_len = new_size.max(1);
        let ptr = unsafe {
            libc::mmap(
                std::ptr::null_mut(),
                map_len,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_SHARED,
                self.file.as_raw_fd(),
                0,
            )
        };
        if ptr == libc::MAP_FAILED {
            return Err(ShmError::syscall("mmap", &self.name));
        }
        self.ptr = NonNull::new(ptr as *mut u8).expect("mmap returned non-null");
        self.len = new_size;
        Ok(())
    }

    /// Flush the mapping to backing store (`msync(MS_SYNC)`). tmpfs-backed
    /// segments do not strictly need this, but the restart protocol calls
    /// it before publishing the valid bit as a write barrier.
    pub fn sync(&self) -> ShmResult<()> {
        if self.len == 0 {
            return Ok(());
        }
        if scuba_faults::check("shmem::segment::sync").is_some() {
            return Err(ShmError::injected("shmem::segment::sync", &self.name));
        }
        let ptr = self.ptr.as_ptr() as *mut libc::c_void;
        let len = self.len;
        let sw = scuba_obs::Stopwatch::start();
        retry_transient("shmem::segment::msync", "msync", &self.name, || {
            if unsafe { libc::msync(ptr, len, libc::MS_SYNC) } != 0 {
                Err(std::io::Error::last_os_error())
            } else {
                Ok(())
            }
        })?;
        if sw.active() {
            scuba_obs::counter!("shmem_segment_syncs").inc();
            scuba_obs::counter!("shmem_sync_nanos").add(sw.elapsed_ns());
        }
        Ok(())
    }

    /// Make the mapping read-only (`mprotect(PROT_READ)`). §3 lists
    /// mprotect among the POSIX calls the paper's implementation uses;
    /// the restore path can apply it after opening a committed segment so
    /// a buggy reader cannot corrupt the one good copy of the data before
    /// it has been checksum-verified. Mutating methods will fault after
    /// this; use [`Self::protect_readwrite`] to undo.
    pub fn protect_readonly(&mut self) -> ShmResult<()> {
        self.protect(libc::PROT_READ)
    }

    /// Restore read-write protection (`mprotect(PROT_READ|PROT_WRITE)`).
    pub fn protect_readwrite(&mut self) -> ShmResult<()> {
        self.protect(libc::PROT_READ | libc::PROT_WRITE)
    }

    fn protect(&mut self, prot: libc::c_int) -> ShmResult<()> {
        if self.len == 0 {
            return Ok(());
        }
        let rc = unsafe { libc::mprotect(self.ptr.as_ptr() as *mut libc::c_void, self.len, prot) };
        if rc != 0 {
            return Err(ShmError::syscall("mprotect", &self.name));
        }
        Ok(())
    }

    /// Release the physical pages behind `[offset, offset+len)` back to
    /// the OS while keeping the segment size and all other offsets intact
    /// (`fallocate(FALLOC_FL_PUNCH_HOLE)`, supported on tmpfs). The
    /// restore path punches out each row block column after copying it to
    /// heap, which is what keeps the total memory footprint flat (§4.4);
    /// a kept leaf punches the range of a block it expired or demoted.
    /// Reading the punched range again yields zeros. It goes through the
    /// descriptor, so a read-only mapping of the same file may punch too.
    pub fn punch_hole(&self, offset: usize, len: usize) -> ShmResult<()> {
        if len == 0 {
            return Ok(());
        }
        if offset + len > self.len {
            return Err(ShmError::OutOfBounds {
                name: self.name.clone(),
                offset,
                len,
                size: self.len,
            });
        }
        if scuba_faults::check("shmem::segment::punch_hole").is_some() {
            return Err(ShmError::injected("shmem::segment::punch_hole", &self.name));
        }
        let rc = unsafe {
            libc::fallocate(
                self.file.as_raw_fd(),
                libc::FALLOC_FL_PUNCH_HOLE | libc::FALLOC_FL_KEEP_SIZE,
                offset as libc::off_t,
                len as libc::off_t,
            )
        };
        if rc != 0 {
            return Err(ShmError::syscall("fallocate", &self.name));
        }
        Ok(())
    }

    /// Physical bytes currently backing the segment (`st_blocks * 512`),
    /// which shrinks as holes are punched. Used by the footprint
    /// experiment (E3).
    pub fn resident_bytes(&self) -> ShmResult<usize> {
        Ok(fstat(&self.file, &self.name)?.blocks() as usize * 512)
    }

    /// The segment's descriptor, for [`crate::SegmentWriter`].
    pub(crate) fn file(&self) -> &File {
        &self.file
    }

    /// Remove the segment *name* from the system. Existing mappings stay
    /// valid; the memory is freed once the last mapping goes away. Returns
    /// `Ok(false)` if the name did not exist.
    pub fn unlink(name: &str) -> ShmResult<bool> {
        let cname = validate_name(name)?;
        let rc = unsafe { libc::shm_unlink(cname.as_ptr()) };
        if rc == 0 {
            scuba_obs::counter!("shmem_segments_unlinked").inc();
            scuba_obs::gauge!("shmem_segments_linked").dec();
            Ok(true)
        } else if std::io::Error::last_os_error().raw_os_error() == Some(libc::ENOENT) {
            Ok(false)
        } else {
            Err(ShmError::syscall("shm_unlink", name))
        }
    }

    /// True if a segment with this name currently exists.
    pub fn exists(name: &str) -> bool {
        let Ok(cname) = validate_name(name) else {
            return false;
        };
        let fd = unsafe { libc::shm_open(cname.as_ptr(), libc::O_RDONLY, 0o600) };
        if fd >= 0 {
            unsafe { libc::close(fd) };
            true
        } else {
            false
        }
    }

    fn unmap(&mut self) {
        // SAFETY: ptr/len describe a live mapping; after this call the
        // struct is only used by resize (which remaps) or Drop.
        unsafe {
            libc::munmap(self.ptr.as_ptr() as *mut libc::c_void, self.len.max(1));
        }
    }
}

impl Drop for ShmSegment {
    fn drop(&mut self) {
        self.unmap();
        // The File closes the descriptor. Deliberately NOT shm_unlink: the
        // data must outlive this process.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    fn unique_name(tag: &str) -> String {
        format!(
            "/scuba_test_{}_{}_{}",
            tag,
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        )
    }

    /// Unlinks the named segment when dropped, even on test panic.
    struct Cleanup(String);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = ShmSegment::unlink(&self.0);
        }
    }

    #[test]
    fn create_write_open_read() {
        let name = unique_name("rw");
        let _c = Cleanup(name.clone());
        let mut seg = ShmSegment::create(&name, 4096).unwrap();
        assert_eq!(seg.len(), 4096);
        seg.as_mut_slice()[..5].copy_from_slice(b"hello");
        drop(seg); // unmaps but does not unlink

        let seg2 = ShmSegment::open(&name).unwrap();
        assert_eq!(&seg2.as_slice()[..5], b"hello");
        assert_eq!(seg2.len(), 4096);
    }

    #[test]
    fn data_survives_handle_drop() {
        // The paper's core property at segment granularity: writer handle
        // closed before reader handle opens.
        let name = unique_name("persist");
        let _c = Cleanup(name.clone());
        {
            let mut seg = ShmSegment::create(&name, 128).unwrap();
            for (i, b) in seg.as_mut_slice().iter_mut().enumerate() {
                *b = (i * 7) as u8;
            }
            seg.sync().unwrap();
        } // fully closed here
        let seg = ShmSegment::open(&name).unwrap();
        for (i, b) in seg.as_slice().iter().enumerate() {
            assert_eq!(*b, (i * 7) as u8);
        }
    }

    #[test]
    fn create_excl_rejects_existing() {
        let name = unique_name("excl");
        let _c = Cleanup(name.clone());
        let _seg = ShmSegment::create(&name, 64).unwrap();
        assert!(ShmSegment::create(&name, 64).is_err());
    }

    #[test]
    fn open_missing_fails() {
        assert!(ShmSegment::open(&unique_name("missing")).is_err());
    }

    #[test]
    fn resize_grows_and_preserves_prefix() {
        let name = unique_name("grow");
        let _c = Cleanup(name.clone());
        let mut seg = ShmSegment::create(&name, 8).unwrap();
        seg.as_mut_slice().copy_from_slice(b"ABCDEFGH");
        seg.resize(1 << 20).unwrap();
        assert_eq!(seg.len(), 1 << 20);
        assert_eq!(&seg.as_slice()[..8], b"ABCDEFGH");
        assert!(seg.as_slice()[8..].iter().all(|&b| b == 0));
    }

    #[test]
    fn resize_shrinks() {
        let name = unique_name("shrink");
        let _c = Cleanup(name.clone());
        let mut seg = ShmSegment::create(&name, 4096).unwrap();
        seg.as_mut_slice()[..4].copy_from_slice(b"keep");
        seg.resize(4).unwrap();
        assert_eq!(seg.as_slice(), b"keep");
        // Reopening sees the shrunk size.
        drop(seg);
        assert_eq!(ShmSegment::open(&name).unwrap().len(), 4);
    }

    #[test]
    fn unlink_and_exists() {
        let name = unique_name("unlink");
        let seg = ShmSegment::create(&name, 16).unwrap();
        assert!(ShmSegment::exists(&name));
        assert!(ShmSegment::unlink(&name).unwrap());
        assert!(!ShmSegment::exists(&name));
        assert!(!ShmSegment::unlink(&name).unwrap()); // second time: absent
        drop(seg); // mapping was still valid after unlink
    }

    #[test]
    fn zero_sized_segment() {
        let name = unique_name("zero");
        let _c = Cleanup(name.clone());
        let seg = ShmSegment::create(&name, 0).unwrap();
        assert!(seg.is_empty());
        assert!(seg.as_slice().is_empty());
        seg.sync().unwrap();
    }

    #[test]
    fn bad_names_rejected() {
        assert!(matches!(
            ShmSegment::create("noslash", 16),
            Err(ShmError::BadName(_))
        ));
        assert!(matches!(
            ShmSegment::create("/a/b", 16),
            Err(ShmError::BadName(_))
        ));
        assert!(matches!(
            ShmSegment::create("", 16),
            Err(ShmError::BadName(_))
        ));
        let long = format!("/{}", "x".repeat(300));
        assert!(matches!(
            ShmSegment::create(&long, 16),
            Err(ShmError::BadName(_))
        ));
        assert!(!ShmSegment::exists("not-a-name/"));
    }

    #[test]
    fn punch_hole_releases_pages_and_zeroes() {
        let name = unique_name("punch");
        let _c = Cleanup(name.clone());
        let size = 1 << 20;
        let mut seg = ShmSegment::create(&name, size).unwrap();
        seg.as_mut_slice().fill(0xAB);
        seg.sync().unwrap();
        let before = seg.resident_bytes().unwrap();
        assert!(before >= size, "expected fully backed, got {before}");
        // Punch the first half (page aligned).
        seg.punch_hole(0, size / 2).unwrap();
        let after = seg.resident_bytes().unwrap();
        assert!(
            after <= before - size / 2 + 4096,
            "before={before} after={after}"
        );
        // Punched range reads as zeros; the rest is intact.
        assert!(seg.as_slice()[..size / 2].iter().all(|&b| b == 0));
        assert!(seg.as_slice()[size / 2..].iter().all(|&b| b == 0xAB));
        // Size and offsets unchanged.
        assert_eq!(seg.len(), size);
    }

    #[test]
    fn protect_readonly_still_readable_and_reversible() {
        let name = unique_name("prot");
        let _c = Cleanup(name.clone());
        let mut seg = ShmSegment::create(&name, 4096).unwrap();
        seg.as_mut_slice()[0] = 0x7E;
        seg.protect_readonly().unwrap();
        assert_eq!(seg.as_slice()[0], 0x7E); // reads still fine
        seg.protect_readwrite().unwrap();
        seg.as_mut_slice()[0] = 0x7F; // writable again
        assert_eq!(seg.as_slice()[0], 0x7F);
        // Zero-length segments are a no-op.
        let mut empty = ShmSegment::create(&format!("{name}e"), 0).unwrap();
        empty.protect_readonly().unwrap();
        let _ = ShmSegment::unlink(&format!("{name}e"));
    }

    #[test]
    fn punch_hole_bounds_checked() {
        let name = unique_name("punchb");
        let _c = Cleanup(name.clone());
        let seg = ShmSegment::create(&name, 4096).unwrap();
        assert!(seg.punch_hole(0, 8192).is_err());
        seg.punch_hole(0, 0).unwrap(); // zero-length is a no-op
    }

    #[test]
    fn unlinked_mapping_still_readable() {
        // POSIX semantics the protocol relies on during restore cleanup.
        let name = unique_name("orphan");
        let mut seg = ShmSegment::create(&name, 32).unwrap();
        seg.as_mut_slice()[0] = 0xAB;
        ShmSegment::unlink(&name).unwrap();
        assert_eq!(seg.as_slice()[0], 0xAB);
        seg.as_mut_slice()[0] = 0xCD;
        assert_eq!(seg.as_slice()[0], 0xCD);
    }
}
