//! POSIX shared-memory substrate for the Scuba fast-restart reproduction.
//!
//! §3 of *Fast Database Restarts at Facebook*: "Shared memory allows
//! interprocess communication. For Scuba, shared memory allows a process
//! to communicate with its replacement, even though the lifetimes of the
//! two processes do not overlap. The first process writes to a location in
//! physical memory and the second process reads from it. We use the Posix
//! mmap (mmap, munmap, sync, mprotect) based API".
//!
//! This crate wraps `shm_open`/`ftruncate`/`mmap`/`munmap`/`shm_unlink`
//! (the paper used Boost::Interprocess over the same primitives), and
//! writes images with `pwrite` on the segment's descriptor:
//!
//! * [`ShmSegment`] — one named segment that **outlives the process**; the
//!   handle unmaps on drop but never unlinks, which is exactly the
//!   memory-lifetime/process-lifetime decoupling the paper is about.
//! * [`SegmentWriter`] / [`SegmentReader`] — sequential access: every
//!   image is written through the segment's descriptor (`pwrite`, the
//!   file growing as it is written — Figure 6's "grow the table segment in
//!   size if needed") and read back through its mapping.
//! * [`LeafMetadata`] — the per-leaf fixed-location metadata region of
//!   Figure 4: a valid bit, a layout version number, and the names of the
//!   table segments the leaf allocated.
//! * [`ShmNamespace`] — name scheme for a leaf's segments ("Each leaf has
//!   a unique hard coded location in shared memory for its metadata",
//!   §4.2), parameterized so concurrent tests and simulated clusters do
//!   not collide.
//! * [`alloc`] — a custom shared-memory allocator: the design the paper
//!   *rejected* (§3, method 1). Implemented as an ablation so the
//!   fragmentation argument can be measured (experiment E11).

pub mod alloc;
pub mod arena;
pub mod checksum;
pub mod error;
pub mod metadata;
pub mod namespace;
pub mod segment;
pub mod view;

pub use arena::{SegmentReader, SegmentWriter};
pub use checksum::{crc32, crc32_scalar, crc32_slice8, crc32_timed, Crc32};
pub use error::{ShmError, ShmResult};
pub use metadata::{LeafMetadata, MetadataContents, SegmentEntry, LEGACY_V1_VERSION};
pub use namespace::ShmNamespace;
pub use segment::ShmSegment;
pub use view::SegmentView;
