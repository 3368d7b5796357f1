//! Shared read-only views over segments, with unlink-on-last-drop.
//!
//! The zero-copy attach path (§6 future work: "keep the data in shared
//! memory at all times") installs table columns that point straight into a
//! mapped segment instead of copying them to heap. The mapping must then
//! outlive every such pointer — table blocks, query snapshots, scan
//! workers — and the segment name must be removed exactly when the last
//! one goes away. [`SegmentView`] encodes that protocol: it is always held
//! behind an `Arc`, and its `Drop` unlinks the segment name.
//!
//! Unlink is idempotent at the OS level (`shm_unlink` on a missing name is
//! `ENOENT`, which [`ShmSegment::unlink`] reports as `Ok(false)` without
//! touching the linked-segments gauge), so a view dropping after a cleanup
//! sweep already removed the name is harmless — the mapping itself stays
//! valid until `munmap`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::error::ShmResult;
use crate::segment::ShmSegment;

/// Page size the hole punching rounds to.
const PAGE: usize = 4096;

/// A read-only mapping of one shared-memory segment, shared behind an
/// `Arc` by everything that borrows its bytes. When the last clone drops,
/// the segment name is unlinked so the kernel can reclaim the pages —
/// unless the view was [disarmed](SegmentView::disarm): a leaf that kept
/// serving an attached image and then committed it again hands the name
/// to that new image, which the next process attaches.
#[derive(Debug)]
pub struct SegmentView {
    segment: ShmSegment,
    /// Whether the last drop unlinks the name.
    armed: AtomicBool,
}

impl SegmentView {
    /// Open `name` and make the mapping read-only. The attach path calls
    /// this once per table segment; cost is `shm_open` + `mmap` +
    /// `mprotect` — proportional to metadata, not data volume.
    pub fn attach(name: &str) -> ShmResult<Arc<SegmentView>> {
        let mut segment = ShmSegment::open(name)?;
        segment.protect_readonly()?;
        scuba_obs::gauge!("shmem_views_live").inc();
        Ok(Arc::new(SegmentView {
            segment,
            armed: AtomicBool::new(true),
        }))
    }

    /// The segment's shm name.
    pub fn name(&self) -> &str {
        self.segment.name()
    }

    /// Mapping length in bytes.
    pub fn len(&self) -> usize {
        self.segment.len()
    }

    /// True if the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.segment.len() == 0
    }

    /// The mapped bytes.
    pub fn bytes(&self) -> &[u8] {
        self.segment.as_slice()
    }

    /// Hand the name over: the last drop no longer unlinks it. Called only
    /// once a committed image that lists the name owns it.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Release);
    }

    /// Whether the last drop will unlink the name.
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Acquire)
    }

    /// Give back the pages wholly inside `[offset, offset + len)`: the
    /// range is rounded inward to page boundaries, so bytes outside it —
    /// frames and blocks still served — are never zeroed. Only for a range
    /// nothing borrows any more (a block that was expired or demoted and
    /// dropped). Returns the bytes punched.
    pub fn punch_hole(&self, offset: usize, len: usize) -> ShmResult<usize> {
        let start = offset.div_ceil(PAGE) * PAGE;
        let end = (offset + len) / PAGE * PAGE;
        if end <= start {
            return Ok(0);
        }
        self.segment.punch_hole(start, end - start)?;
        Ok(end - start)
    }
}

impl AsRef<[u8]> for SegmentView {
    fn as_ref(&self) -> &[u8] {
        self.segment.as_slice()
    }
}

impl SegmentView {
    /// Unlink-on-last-drop, the part of `Drop` with an outcome: true iff
    /// *this* call removed the name. `Ok(false)` means someone else (a
    /// cleanup sweep, an earlier fallback) already did; only a real unlink
    /// counts. Errors are swallowed: the segment stays linked and the next
    /// restart's orphan sweep will collect it.
    fn release(&mut self) -> bool {
        let unlinked = matches!(ShmSegment::unlink(self.segment.name()), Ok(true));
        if unlinked {
            scuba_obs::counter!("shmem_view_unlinks").inc();
        }
        unlinked
    }
}

impl Drop for SegmentView {
    fn drop(&mut self) {
        scuba_obs::gauge!("shmem_views_live").dec();
        if self.is_armed() {
            self.release();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::SegmentWriter;

    fn make_segment(name: &str, payload: &[u8]) -> ShmSegment {
        let _ = ShmSegment::unlink(name);
        let mut seg = ShmSegment::create(name, 0).unwrap();
        let mut w = SegmentWriter::new(&mut seg);
        w.write(payload).unwrap();
        w.finish().unwrap();
        seg
    }

    // These two assert on what *this* view's release did: sibling tests
    // drop views in parallel, so no process-wide count can tell.

    #[test]
    fn last_drop_unlinks_exactly_once() {
        let name = format!("/scuba-view-once-{}", std::process::id());
        let seg = make_segment(&name, b"hello view");
        drop(seg); // drop the writable mapping; name stays linked
        assert!(ShmSegment::exists(&name));

        let view = SegmentView::attach(&name).unwrap();
        assert_eq!(view.bytes(), b"hello view");

        // A second reader (query snapshot) keeps the segment alive.
        let reader = Arc::clone(&view);
        drop(view);
        assert!(ShmSegment::exists(&name), "unlinked while a reader held it");

        assert_eq!(reader.as_ref().as_ref(), b"hello view");
        let mut last = Arc::try_unwrap(reader).expect("sole owner");
        assert!(last.release(), "the last owner unlinks");
        assert!(!ShmSegment::exists(&name));
        assert!(!last.release(), "unlinked more than once");
    }

    #[test]
    fn drop_after_external_unlink_is_harmless() {
        let name = format!("/scuba-view-ext-{}", std::process::id());
        let seg = make_segment(&name, &[7u8; 4096]);
        drop(seg);

        let view = SegmentView::attach(&name).unwrap();
        // A cleanup sweep races ahead of the view.
        assert!(ShmSegment::unlink(&name).unwrap());
        // The mapping is still valid after the name is gone.
        assert_eq!(view.bytes()[100], 7);
        let mut view = Arc::try_unwrap(view).expect("sole owner");
        assert!(!view.release(), "must not count an unlink it did not do");
        drop(view); // and the real drop after it must not error
    }

    #[test]
    fn disarmed_view_leaves_the_name_to_its_image() {
        let name = format!("/scuba-view-disarm-{}", std::process::id());
        drop(make_segment(&name, b"kept image"));
        let view = SegmentView::attach(&name).unwrap();
        assert!(view.is_armed());
        view.disarm();
        drop(view);
        assert!(ShmSegment::exists(&name), "a disarmed view unlinked");
        assert!(ShmSegment::unlink(&name).unwrap());
    }

    #[test]
    fn punch_hole_frees_only_whole_pages_inside_the_range() {
        let name = format!("/scuba-view-punch-{}", std::process::id());
        drop(make_segment(&name, &vec![9u8; 8 * PAGE]));
        let view = SegmentView::attach(&name).unwrap();
        let file = ShmSegment::open(&name).unwrap();
        let full = file.resident_bytes().unwrap();
        // Pages 2..6, reached from a range that starts and ends mid-page.
        assert_eq!(view.punch_hole(PAGE + 100, 5 * PAGE).unwrap(), 4 * PAGE);
        assert_eq!(file.resident_bytes().unwrap(), full - 4 * PAGE);
        let bytes = view.bytes();
        assert!(
            bytes[..2 * PAGE].iter().all(|&b| b == 9),
            "bytes before the range zeroed"
        );
        assert!(bytes[2 * PAGE..6 * PAGE].iter().all(|&b| b == 0));
        assert!(
            bytes[6 * PAGE..].iter().all(|&b| b == 9),
            "bytes after the range zeroed"
        );
        // A range inside one page punches nothing.
        assert_eq!(view.punch_hole(7 * PAGE + 1, 100).unwrap(), 0);
    }

    #[test]
    fn view_is_readonly_and_shared() {
        let name = format!("/scuba-view-ro-{}", std::process::id());
        let seg = make_segment(&name, b"abc");
        drop(seg);
        let view = SegmentView::attach(&name).unwrap();
        assert_eq!(view.len(), 3);
        assert!(!view.is_empty());
        assert_eq!(view.name(), name);
        // Usable as the dependency-free backing the columnstore expects.
        let backing: Arc<dyn AsRef<[u8]> + Send + Sync> = view;
        assert_eq!((*backing).as_ref(), b"abc");
    }
}
