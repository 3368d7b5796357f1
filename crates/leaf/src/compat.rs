//! Simulated **old-writer** shared-memory images: test support, not a
//! shutdown path.
//!
//! The self-describing layout's whole point is that a *new* binary can
//! read an image a *pre-upgrade* binary left behind. To prove that
//! continuously — in unit tests, golden fixtures and chaos waves — this
//! module reimplements the two older writers:
//!
//! * [`install_legacy_v1_image`] — the pre-refactor format end to end:
//!   legacy v1 metadata region (one global layout version, no per-table
//!   descriptors), bare `len | crc | payload` chunk framing, positional
//!   chunk order, manifest without a schema snapshot.
//! * [`install_aged_v2_image`] — an early TLV writer: v2 frames and v2
//!   metadata, but v1-versioned manifests (the reader's shim upgrades
//!   them) and, optionally, stranger chunks the current binary has never
//!   heard of — skippable ones it must ignore, required ones that force
//!   the per-table disk fallback.
//!
//! [`rewrite_as_old_writer`] stands a pre-upgrade binary's whole clean
//! shutdown: the current protocol runs, then its committed image is
//! rewritten in an old layout.
//!
//! Both writers produce images whose *table contents* come from real
//! [`Table`]s, so restored results can be compared cell for cell against
//! what the old writer held. The byte streams are deterministic given the
//! tables, which is what makes the checked-in golden fixtures possible.
//! They are old formats on purpose, so they do not go through
//! [`crate::image`]'s writer; they share only its tags and its prelude
//! payload, which no format version has changed.

use scuba_columnstore::Table;
use scuba_restart::framing::{end_header_v2, END_SENTINEL_V1, TAG_UNIT_NAME};
use scuba_restart::migrate::CURRENT_IMAGE_MIN_READER;
use scuba_restart::{restore_from_shm, ChunkDesc, ChunkSink, SHM_LAYOUT_VERSION};
use scuba_shmem::{crc32, LeafMetadata, SegmentWriter, ShmError, ShmNamespace, ShmSegment};

use crate::image::{prelude, TAG_COLUMN, TAG_MANIFEST, TAG_PRELUDE};
use crate::persist::LeafStore;

/// A chunk tag no store in this workspace has ever defined — the
/// "written by a future/forked binary" stranger used by aged images.
pub const TAG_STRANGER: u16 = 0x7A7A;

/// Append one legacy (pre-TLV) frame: `len u64 | crc u32 | payload`.
fn frame_v1(out: &mut Vec<u8>, payload: &[u8]) {
    frame_v1_crc(out, payload, crc32(payload));
}

/// [`frame_v1`] with the payload's CRC already in hand (a column's,
/// derived from its footer).
fn frame_v1_crc(out: &mut Vec<u8>, payload: &[u8], crc: u32) {
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(payload);
}

/// Append one v2 TLV frame.
fn frame_v2(out: &mut Vec<u8>, desc: ChunkDesc, payload: &[u8]) {
    out.put_chunk(desc, payload)
        .expect("a heap buffer takes any frame");
}

/// The exact unit byte stream the pre-refactor writer produced: name
/// frame, bare-count manifest, per block a prelude then one frame per
/// column, closed by the `u64::MAX` sentinel.
pub fn v1_unit_stream(table: &Table) -> Vec<u8> {
    let mut out = Vec::new();
    frame_v1(&mut out, table.name().as_bytes());
    frame_v1(&mut out, &(table.blocks().len() as u64).to_le_bytes());
    for block in table.blocks() {
        frame_v1(&mut out, &prelude(block));
        for column in block.columns() {
            frame_v1_crc(&mut out, column.as_bytes(), column.frame_crc());
        }
    }
    out.extend_from_slice(&END_SENTINEL_V1.to_le_bytes());
    out
}

/// What strangers an aged image carries.
#[derive(Debug, Clone, Copy, Default)]
pub struct AgedImageOptions {
    /// Emit an unknown chunk flagged skippable in every unit — the
    /// current reader must ignore it and restore the table anyway.
    pub skippable_stranger: bool,
    /// Emit an unknown *required* chunk in every unit — a true
    /// incompatibility; the current reader must skip exactly these tables
    /// and disk-recover them, restoring the rest from memory.
    pub required_stranger: bool,
}

/// The unit byte stream of an early-TLV writer: v2 frames, but the
/// manifest at payload version 1 (bare block count, no schema snapshot)
/// and optional stranger chunks.
pub fn aged_v2_unit_stream(table: &Table, opts: &AgedImageOptions) -> Vec<u8> {
    let mut out = Vec::new();
    let name = table.name();
    frame_v2(&mut out, ChunkDesc::new(TAG_UNIT_NAME, 1), name.as_bytes());

    if opts.skippable_stranger {
        frame_v2(
            &mut out,
            ChunkDesc::new(TAG_STRANGER, 1).skippable(),
            b"from a future writer; safe to ignore",
        );
    }
    frame_v2(
        &mut out,
        ChunkDesc::new(TAG_MANIFEST, 1),
        &(table.blocks().len() as u64).to_le_bytes(),
    );
    if opts.required_stranger {
        frame_v2(
            &mut out,
            ChunkDesc::new(TAG_STRANGER, 1),
            b"load-bearing data only the future writer understands",
        );
    }
    for block in table.blocks() {
        frame_v2(&mut out, ChunkDesc::new(TAG_PRELUDE, 1), &prelude(block));
        for column in block.columns() {
            out.put_chunk_crc(
                ChunkDesc::new(TAG_COLUMN, 1),
                column.as_bytes(),
                column.frame_crc(),
            )
            .expect("a heap buffer takes any frame");
        }
    }
    out.extend_from_slice(&end_header_v2());
    out
}

/// Install a complete, committed legacy-v1 image of `tables` under `ns`,
/// exactly as the pre-refactor binary's clean shutdown left it: v1
/// metadata region, one bare-framed segment per table, valid bit set.
/// Returns the total segment bytes written.
pub fn install_legacy_v1_image(ns: &ShmNamespace, tables: &[Table]) -> Result<usize, ShmError> {
    let streams: Vec<Vec<u8>> = tables.iter().map(v1_unit_stream).collect();
    install_legacy_v1_image_raw(ns, &streams)
}

/// Install pre-serialized v1 unit streams verbatim — the entry point for
/// checked-in golden fixtures, whose bytes must reach shared memory
/// untouched by any current-code serializer.
pub fn install_legacy_v1_image_raw(
    ns: &ShmNamespace,
    streams: &[Vec<u8>],
) -> Result<usize, ShmError> {
    let _ = ShmSegment::unlink(&ns.metadata_name());
    let meta = LeafMetadata::create_legacy_v1(ns)?;
    install_units(ns, meta, streams)
}

/// Install a complete, committed aged-v2 image of `tables` under `ns`:
/// v2 metadata (current writer version, standard min-reader), early-TLV
/// segments per [`aged_v2_unit_stream`], valid bit set. Returns the total
/// segment bytes written.
pub fn install_aged_v2_image(
    ns: &ShmNamespace,
    tables: &[Table],
    opts: &AgedImageOptions,
) -> Result<usize, ShmError> {
    install_aged_v2_image_mixed(ns, tables, |_| *opts)
}

/// Like [`install_aged_v2_image`] but with per-table options, so an image
/// can mix restorable units with truly incompatible ones — the shape that
/// proves fallback is per-table, not per-leaf.
pub fn install_aged_v2_image_mixed(
    ns: &ShmNamespace,
    tables: &[Table],
    opts_for: impl Fn(&str) -> AgedImageOptions,
) -> Result<usize, ShmError> {
    let _ = ShmSegment::unlink(&ns.metadata_name());
    let meta = LeafMetadata::create(ns, SHM_LAYOUT_VERSION, CURRENT_IMAGE_MIN_READER)?;
    let streams: Vec<Vec<u8>> = tables
        .iter()
        .map(|t| aged_v2_unit_stream(t, &opts_for(t.name())))
        .collect();
    install_units(ns, meta, &streams)
}

/// A pre-upgrade writer binary, by the image its clean shutdown leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OldWriter {
    /// The pre-refactor writer: [`install_legacy_v1_image`].
    LegacyV1,
    /// An early TLV writer that leaves a skippable stranger chunk in every
    /// unit: [`install_aged_v2_image`].
    AgedV2,
}

/// Turn the committed image a current clean shutdown left under `ns` into
/// the one `writer` would have left of the same tables: copy the image
/// back (which consumes it), then install its tables in the old layout.
/// Returns the old image's segment bytes. On an error nothing restorable
/// is left under `ns`, as after a failed shutdown.
pub fn rewrite_as_old_writer(ns: &ShmNamespace, writer: OldWriter) -> Result<usize, String> {
    let mut store = LeafStore::new();
    let report = restore_from_shm(&mut store, ns, SHM_LAYOUT_VERSION).map_err(|e| e.to_string())?;
    if !report.skipped.is_empty() {
        return Err(format!("current image skipped {:?}", report.skipped));
    }
    let tables: Vec<Table> = store.map_mut().take_tables().into_values().collect();
    match writer {
        OldWriter::LegacyV1 => install_legacy_v1_image(ns, &tables),
        OldWriter::AgedV2 => install_aged_v2_image(
            ns,
            &tables,
            &AgedImageOptions {
                skippable_stranger: true,
                required_stranger: false,
            },
        ),
    }
    .map_err(|e| e.to_string())
}

/// Write each unit stream into a freshly created table segment, register
/// it, and commit the valid bit. Returns the total segment bytes written.
fn install_units(
    ns: &ShmNamespace,
    mut meta: LeafMetadata,
    streams: &[Vec<u8>],
) -> Result<usize, ShmError> {
    for (i, bytes) in streams.iter().enumerate() {
        let seg_name = ns.table_segment_name(i);
        let _ = ShmSegment::unlink(&seg_name);
        let mut seg = ShmSegment::create(&seg_name, 0)?;
        let mut w = SegmentWriter::new(&mut seg);
        w.write(bytes)?;
        w.finish()?;
        meta.add_segment_invalidating(&seg_name, 1, 0)?;
    }
    meta.set_valid(true)?;
    Ok(streams.iter().map(Vec::len).sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::LeafStore;
    use scuba_columnstore::Row;
    use scuba_restart::{attach_from_shm, restore_from_shm};
    use std::sync::atomic::{AtomicU32, Ordering};

    static COUNTER: AtomicU32 = AtomicU32::new(0);

    fn ns() -> ShmNamespace {
        ShmNamespace::new(
            &format!("compat{}", std::process::id()),
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

    /// Two sealed tables; the "old schema" deliberately lacks the `extra`
    /// column the current writer would add.
    fn old_tables() -> Vec<Table> {
        ["events", "metrics"]
            .iter()
            .map(|name| {
                let mut t = Table::new(*name, 0);
                for i in 0..200i64 {
                    t.append(&Row::at(i).with("old_col", i * 3), 0).unwrap();
                }
                t.seal(0).unwrap();
                t
            })
            .collect()
    }

    fn fingerprints(store: &LeafStore) -> Vec<(String, usize)> {
        store
            .map()
            .iter()
            .map(|t| (t.name().to_owned(), t.row_count()))
            .collect()
    }

    #[test]
    fn legacy_v1_image_restores_under_current_binary() {
        let ns = ns();
        let _c = Cleanup(ns.clone());
        install_legacy_v1_image(&ns, &old_tables()).unwrap();

        let mut restored = LeafStore::new();
        let rep = restore_from_shm(&mut restored, &ns, SHM_LAYOUT_VERSION).unwrap();
        assert_eq!(rep.units, 2);
        assert!(rep.skipped.is_empty());
        assert_eq!(
            fingerprints(&restored),
            vec![("events".to_owned(), 200), ("metrics".to_owned(), 200)]
        );
    }

    #[test]
    fn legacy_v1_image_attaches_under_current_binary() {
        let ns = ns();
        let _c = Cleanup(ns.clone());
        install_legacy_v1_image(&ns, &old_tables()).unwrap();

        let mut restored = LeafStore::new();
        let rep = attach_from_shm(&mut restored, &ns, SHM_LAYOUT_VERSION).unwrap();
        assert_eq!(rep.units, 2);
        assert!(rep.skipped.is_empty());
        assert_eq!(
            fingerprints(&restored),
            vec![("events".to_owned(), 200), ("metrics".to_owned(), 200)]
        );
        // Kept mapped.
        assert!(restored.map().mapped_bytes() > 0);
    }

    #[test]
    fn aged_v2_image_with_skippable_stranger_restores() {
        let ns = ns();
        let _c = Cleanup(ns.clone());
        let opts = AgedImageOptions {
            skippable_stranger: true,
            required_stranger: false,
        };
        install_aged_v2_image(&ns, &old_tables(), &opts).unwrap();

        let mut restored = LeafStore::new();
        let rep = restore_from_shm(&mut restored, &ns, SHM_LAYOUT_VERSION).unwrap();
        assert_eq!(rep.units, 2);
        assert!(rep.skipped.is_empty());
        assert_eq!(
            fingerprints(&restored),
            vec![("events".to_owned(), 200), ("metrics".to_owned(), 200)]
        );
    }

    #[test]
    fn aged_v2_image_with_required_stranger_skips_per_table() {
        let ns = ns();
        let _c = Cleanup(ns.clone());
        let opts = AgedImageOptions {
            skippable_stranger: false,
            required_stranger: true,
        };
        install_aged_v2_image(&ns, &old_tables(), &opts).unwrap();

        let mut restored = LeafStore::new();
        let rep = restore_from_shm(&mut restored, &ns, SHM_LAYOUT_VERSION).unwrap();
        // Every unit carries the stranger, so every unit is skipped — but
        // the restore itself succeeds (per-table, not per-leaf).
        assert_eq!(rep.units, 0);
        assert_eq!(rep.skipped, vec!["events".to_owned(), "metrics".to_owned()]);
        assert!(restored.map().is_empty());
    }

    #[test]
    fn aged_v2_attach_with_skippable_stranger_restores() {
        let ns = ns();
        let _c = Cleanup(ns.clone());
        let opts = AgedImageOptions {
            skippable_stranger: true,
            required_stranger: false,
        };
        install_aged_v2_image(&ns, &old_tables(), &opts).unwrap();

        let mut restored = LeafStore::new();
        let rep = attach_from_shm(&mut restored, &ns, SHM_LAYOUT_VERSION).unwrap();
        assert_eq!(rep.units, 2);
        assert!(rep.skipped.is_empty());
    }

    #[test]
    fn restored_legacy_rows_decode_identically() {
        // Cell-level equality: the old image's data, restored by the new
        // binary, decodes to exactly the rows the old writer held.
        let ns = ns();
        let _c = Cleanup(ns.clone());
        let tables = old_tables();
        let expected: Vec<_> = tables
            .iter()
            .flat_map(|t| t.blocks().iter().map(|b| b.decode_rows().unwrap()))
            .collect();
        install_legacy_v1_image(&ns, &tables).unwrap();

        let mut restored = LeafStore::new();
        restore_from_shm(&mut restored, &ns, SHM_LAYOUT_VERSION).unwrap();
        let got: Vec<_> = restored
            .map()
            .iter()
            .flat_map(|t| t.blocks().iter().map(|b| b.decode_rows().unwrap()))
            .collect();
        assert_eq!(got, expected);
    }
}
