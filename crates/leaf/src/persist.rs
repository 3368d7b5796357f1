//! [`LeafStore`]: the leaf's in-memory state, wired into the restart
//! protocol via [`ShmPersistable`].
//!
//! Backup streams each table through [`image::write_manifest`] and
//! [`image::write_block`] — a table manifest, then per row block a small
//! prelude followed by **one chunk per row block column** — freeing heap
//! as blocks are emitted ("delete row block column from heap ... delete
//! row block from heap ... delete table from heap", Figure 6), so the
//! combined footprint stays flat (§4.4). Restore and attach both read a
//! table back through [`image::read_table`]: heap copies on the copying
//! path, windows into the mapping on attach. The stream format itself
//! lives in [`crate::image`].
//!
//! A store that attached a planned image keeps serving it in place and
//! keeps track of it (`KeptImage`): at the next backup a table that
//! still starts with the blocks attached from its segment has only what
//! is new appended there (`image::append_at_frontier`); every other
//! table is written whole into a fresh segment.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Weak};

use scuba_columnstore::{LeafMap, Result as StoreResult, Row, RowBlock, Table};
use scuba_restart::framing::FRAME_HEADER_V2;
use scuba_restart::{ChunkSink, ChunkSource, MappedChunkSource, ShmPersistable};
use scuba_shmem::SegmentView;

use crate::image::{self, Layout, PersistError, MANIFEST_VERSION};

/// The leaf's in-memory store: a [`LeafMap`] plus persistence plumbing.
#[derive(Debug, Default)]
pub struct LeafStore {
    map: LeafMap,
    /// The image segments attached this life, by table.
    kept: BTreeMap<String, KeptImage>,
    /// Views of kept segments a running backup is extending: held until
    /// the commit disarms them, so that the blocks freed as their tables
    /// are written cannot unlink a name the new image lists.
    committing: Vec<Arc<SegmentView>>,
}

/// A table's image segment, attached and served in place.
#[derive(Debug)]
struct KeptImage {
    /// The segment; its blocks hold it, this does not.
    view: Weak<SegmentView>,
    /// Where the image's frames are, if it can be extended in place: a
    /// current-format image whose END frame closes the segment.
    layout: Option<Layout>,
    /// The blocks attached from the image, oldest first, with the bytes
    /// each one's frames occupy. A block is punched out of the segment
    /// once it is gone from the table and nothing else holds it.
    blocks: Vec<(Weak<RowBlock>, Range<usize>)>,
}

impl KeptImage {
    /// Whether `table` may be extended in place: the image can be, the
    /// table still starts with exactly the blocks attached from it, and
    /// its schema is the one the manifest records.
    fn heads(&self, table: &Table) -> bool {
        let Some(layout) = &self.layout else {
            return false;
        };
        let attached = &self.blocks;
        attached.len() == layout.frontier.blocks
            && table.blocks().len() >= attached.len()
            && attached
                .iter()
                .zip(table.blocks())
                .all(|((kept, _), block)| std::ptr::eq(kept.as_ptr(), Arc::as_ptr(block)))
            && {
                let mut schema = Vec::new();
                table.schema_snapshot().serialize(&mut schema);
                schema == layout.schema
            }
    }
}

/// One table crossing the restart protocol, with the image it came from
/// or extends.
#[derive(Debug)]
pub struct TableUnit {
    table: Table,
    /// Attach: the segment the table's blocks are windows into. Backup:
    /// the kept image the table is appended to, with its frontier.
    image: Option<(Arc<SegmentView>, Option<Layout>)>,
}

impl LeafStore {
    /// An empty store.
    pub fn new() -> LeafStore {
        LeafStore::default()
    }

    /// Adopt a recovered leaf map (disk recovery path).
    pub fn from_map(map: LeafMap) -> LeafStore {
        LeafStore {
            map,
            ..LeafStore::default()
        }
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

    /// The segment names of the attached images that are still mapped.
    pub fn image_segments(&self) -> Vec<String> {
        self.kept
            .values()
            .filter_map(|k| k.view.upgrade().map(|v| v.name().to_owned()))
            .collect()
    }

    /// Tables the next backup would extend in place.
    #[cfg(test)]
    pub(crate) fn appendable_tables(&self) -> Vec<String> {
        self.kept
            .iter()
            .filter(|(name, k)| self.map.get(name).is_some_and(|t| k.heads(t)))
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// Stop tracking the attached images: their blocks are about to be
    /// hydrated to heap, and each segment goes when its last block does.
    pub(crate) fn forget_images(&mut self) {
        self.kept.clear();
    }

    /// `table` lost or replaced blocks of its attached image (expiry,
    /// demotion, a per-table rebuild): it is rewritten whole at the next
    /// backup, and the pages of every attached block nothing holds any
    /// more go back to the OS. Returns the bytes punched.
    pub(crate) fn reclaim(&mut self, table: &str) -> usize {
        let Some(kept) = self.kept.get_mut(table) else {
            return 0;
        };
        kept.layout = None;
        let Some(view) = kept.view.upgrade() else {
            // Every block is gone, and the segment with them.
            self.kept.remove(table);
            return 0;
        };
        let mut punched = 0;
        kept.blocks.retain(|(block, range)| {
            if block.strong_count() > 0 {
                return true;
            }
            punched += view.punch_hole(range.start, range.len()).unwrap_or(0);
            false
        });
        punched
    }
}

impl ShmPersistable for LeafStore {
    type Error = PersistError;
    type Unit = TableUnit;

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

    fn extract_unit(&mut self, unit: &str) -> Result<TableUnit, Self::Error> {
        // "delete table from heap" — the table leaves the map here, under
        // the coordinator; a worker thread serializes and frees it.
        let table = self
            .map
            .remove(unit)
            .ok_or_else(|| PersistError::Framing(format!("unknown table {unit:?}")))?;
        let image = self
            .kept
            .remove(unit)
            .filter(|kept| kept.heads(&table))
            .and_then(|kept| Some((kept.view.upgrade()?, kept.layout)));
        if let Some((view, _)) = &image {
            self.committing.push(Arc::clone(view));
        }
        Ok(TableUnit { table, image })
    }

    fn unit_heap_bytes(unit: &TableUnit) -> usize {
        unit.table.heap_bytes()
    }

    fn backup_extracted(unit: TableUnit, sink: &mut dyn ChunkSink) -> Result<(), Self::Error> {
        // Only sealed blocks are persisted: callers seal first, and any
        // unsealed remainder is dropped with the table, mirroring the
        // crash tolerance of §4.1.
        let TableUnit { table, image } = unit;
        let blocks = table.blocks().to_vec();
        let schema = table.schema_snapshot();
        drop(table);
        if let Some((_, Some(layout))) = image {
            // A kept image: only the blocks sealed since attach are new.
            image::append_at_frontier(layout.frontier, &blocks, None, &schema, sink)?;
            return Ok(());
        }
        image::write_manifest(blocks.len() as u64, &schema, sink)?;
        for block in blocks {
            image::write_block(&block, sink)?;
            // `block` is freed here unless a query snapshot still holds
            // it: "delete row block column from heap; delete row block
            // from heap".
        }
        Ok(())
    }

    fn kept_segment(unit: &TableUnit) -> Option<(&str, usize)> {
        match &unit.image {
            Some((view, Some(layout))) => Some((view.name(), layout.frontier.end)),
            _ => None,
        }
    }

    fn mapped_segments(&self) -> Vec<String> {
        self.image_segments()
    }

    fn commit_kept(&mut self) {
        for view in self.committing.drain(..) {
            view.disarm();
        }
    }

    fn decode_unit(unit: &str, source: &mut dyn ChunkSource) -> Result<TableUnit, Self::Error> {
        let (table, _) = image::read_table(unit, source)?;
        Ok(TableUnit { table, image: None })
    }

    fn attach_unit(
        unit: &str,
        source: &mut dyn MappedChunkSource,
    ) -> Result<TableUnit, Self::Error> {
        // Zero-copy variant of `decode_unit`: metadata chunks are copied
        // to heap with their frame CRC verified; column chunks stay
        // mapped, their payload CRC deferred to the first toucher.
        let view = source.segment().cloned();
        let (table, layout) = image::read_table(unit, source)?;
        let image = view.map(|view| {
            // Extendable in place only if the END frame closes the
            // segment: nothing the appender would write over.
            let layout = layout.filter(|l| l.frontier.end + FRAME_HEADER_V2 == view.len());
            (view, layout)
        });
        Ok(TableUnit { table, image })
    }

    fn install_unit(&mut self, _unit: &str, unit: TableUnit) -> Result<(), Self::Error> {
        let TableUnit { table, image } = unit;
        if let Some((view, layout)) = image {
            let blocks = match &layout {
                Some(l) => table
                    .blocks()
                    .iter()
                    .zip(&l.blocks)
                    .map(|(block, range)| (Arc::downgrade(block), range.clone()))
                    .collect(),
                None => Vec::new(),
            };
            let kept = KeptImage {
                view: Arc::downgrade(&view),
                layout,
                blocks,
            };
            self.kept.insert(table.name().to_owned(), kept);
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{TAG_COLDREF, TAG_ZONES, ZONES_VERSION};
    use scuba_columnstore::{RowBlock, RowBlockColumn};
    use scuba_restart::framing::{decode_header_v2, FRAME_HEADER_V2, TAG_END};
    use scuba_restart::{backup_to_shm, restore_from_shm};
    use scuba_shmem::ShmNamespace;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

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
    fn estimate_covers_actual_size() {
        let store = populated_store();
        for name in store.unit_names() {
            let est = store.estimate_unit_size(&name);
            let actual = store.map().get(&name).unwrap().encoded_bytes();
            assert!(est >= actual, "{name}: estimate {est} < actual {actual}");
        }
    }
}
