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
//! Each table's image in shared memory has one record here
//! (`TableImage`): the segment a start attached or a commit wrote, how far
//! its frames reach, and the blocks it holds. Two commits advance it — a
//! checkpoint cycle's ([`LeafStore::commit_checkpoint`]) and the shutdown
//! backup's (`commit_kept`). A table that still starts with the blocks its
//! segment holds has only what is new appended there
//! (`image::append_at_frontier`); every other table is written whole into
//! a fresh segment, and the segment it left is retired once a commit no
//! longer lists it.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Weak};

use scuba_columnstore::{LeafMap, Result as StoreResult, Row, RowBlock, Schema, Table};
use scuba_restart::framing::FRAME_HEADER_V2;
use scuba_restart::{ChunkSink, ChunkSource, MappedChunkSource, ShmPersistable};
use scuba_shmem::{SegmentView, ShmNamespace, ShmSegment};

use crate::checkpoint::{TableSnapshot, TableWrite, Write};
use crate::image::{self, Frontier, Layout, PersistError, MANIFEST_VERSION};

/// The leaf's in-memory store: a [`LeafMap`] plus persistence plumbing.
#[derive(Debug, Default)]
pub struct LeafStore {
    map: LeafMap,
    /// Each table's image in shared memory, by table.
    images: BTreeMap<String, TableImage>,
    /// Views of segments a running backup is extending: held until the
    /// commit disarms them, so that the blocks freed as their tables are
    /// written cannot unlink a name the new image lists.
    committing: Vec<Arc<SegmentView>>,
    /// Images a running backup does not carry: retired at its commit.
    retiring: Vec<TableImage>,
}

/// One table's image: the segment holding it, how far its frames reach,
/// and the blocks it holds. While the record lives its segment stays
/// linked: a view it holds is unlinked only by [`TableImage::retire`].
#[derive(Debug)]
pub(crate) struct TableImage {
    /// The segment's name.
    name: String,
    /// The view this process serves the segment through, if it attached
    /// it; no view for a segment a checkpoint wrote from heap blocks.
    view: Option<Arc<SegmentView>>,
    /// Where the sealed frames end, if the image can be extended in place:
    /// a current-format image whose END frame closed the segment.
    frontier: Option<Frontier>,
    /// The manifest's schema snapshot as written: a table whose schema
    /// still serializes to these bytes may have its manifest patched.
    schema: Vec<u8>,
    /// The sealed blocks the image holds, oldest first, with the bytes
    /// each one's frames occupy. A block gone from its table and held by
    /// nothing else has its pages punched out of a viewed segment.
    blocks: Vec<(Weak<RowBlock>, Range<usize>)>,
    /// Rows the segment's frames hold, open block included: a checkpoint
    /// skips a table that still has exactly these.
    rows: u64,
    /// A committed image, or a cycle in flight, may list the segment: none
    /// of its bytes may be punched, and its name may not be unlinked.
    listed: bool,
}

impl TableImage {
    /// Whether a table holding `blocks`, with the manifest schema `schema`
    /// (serialized), may extend this image in place: the image can be
    /// extended, the table still starts with exactly the blocks it holds,
    /// and the schema is the one its manifest records.
    fn extends(&self, blocks: &[Arc<RowBlock>], schema: &[u8]) -> bool {
        let Some(frontier) = self.frontier else {
            return false;
        };
        self.blocks.len() == frontier.blocks
            && blocks.len() >= self.blocks.len()
            && self
                .blocks
                .iter()
                .zip(blocks)
                .all(|((kept, _), block)| std::ptr::eq(kept.as_ptr(), Arc::as_ptr(block)))
            && schema == self.schema
    }

    /// Give back the pages of every block of a viewed segment that nothing
    /// holds any more. Returns the bytes punched.
    fn punch_dropped(&mut self) -> usize {
        let Some(view) = &self.view else {
            return 0;
        };
        let mut punched = 0;
        self.blocks.retain(|(block, range)| {
            if block.strong_count() > 0 {
                return true;
            }
            punched += view.punch_hole(range.start, range.len()).unwrap_or(0);
            false
        });
        punched
    }

    /// No commit lists the segment any more: give back what nothing reads
    /// and unlink the name. Blocks still served from a view keep reading
    /// its mapping, and the disarmed view never unlinks the name again — a
    /// later image may reuse it.
    fn retire(mut self) {
        self.punch_dropped();
        if let Some(view) = &self.view {
            view.disarm();
        }
        let _ = ShmSegment::unlink(&self.name);
    }
}

/// The serialized form of a manifest schema.
fn schema_bytes(schema: &Schema) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(schema.serialized_size());
    schema.serialize(&mut bytes);
    bytes
}

/// One table crossing the restart protocol, with the image it came from
/// or extends.
#[derive(Debug)]
pub struct TableUnit {
    table: Table,
    /// Attach: the segment the table's blocks are windows into, with its
    /// layout if it can be extended in place.
    attached: Option<(Arc<SegmentView>, Option<Layout>)>,
    /// Backup: the image the table is appended to — its segment, its
    /// frontier, and the length a view of it maps (0 for none).
    kept: Option<(String, Frontier, usize)>,
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

    /// The segment names of the tables' images: every one is linked.
    pub fn image_segments(&self) -> Vec<String> {
        self.images.values().map(|i| i.name.clone()).collect()
    }

    /// Tables the next backup would extend in place.
    #[cfg(test)]
    pub(crate) fn appendable_tables(&self) -> Vec<String> {
        self.images
            .iter()
            .filter(|(name, image)| {
                self.map
                    .get(name)
                    .is_some_and(|t| image.extends(t.blocks(), &schema_bytes(&t.schema_snapshot())))
            })
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// `table` lost or replaced blocks of its image (expiry, demotion, a
    /// per-table rebuild): the next commit writes it whole. Unless a commit
    /// may list the segment, the pages of every block nothing holds any
    /// more go back to the OS now, and a segment no block reads is retired;
    /// otherwise both wait for the commit that no longer lists it. Returns
    /// the bytes punched.
    pub(crate) fn reclaim(&mut self, table: &str) -> usize {
        let Some(image) = self.images.get_mut(table) else {
            return 0;
        };
        image.frontier = None;
        if image.listed {
            return 0;
        }
        let punched = image.punch_dropped();
        if image
            .view
            .as_ref()
            .is_some_and(|v| Arc::strong_count(v) == 1)
        {
            let image = self.images.remove(table).expect("present");
            image.retire();
        }
        punched
    }

    /// Point each of `tables` at its image segment and say how the cycle
    /// writes it there: skipped when the segment already holds its rows,
    /// appended at the frontier when the table extends the image, else
    /// whole into a fresh table-segment name — never one an image holds, so
    /// never one this process maps. The segments a cycle extends may be
    /// listed from now on: their views are disarmed.
    pub(crate) fn target_images(&mut self, ns: &ShmNamespace, tables: &mut [TableSnapshot]) {
        let mut taken = self.image_segments();
        let mut next = 0;
        for snap in tables {
            let schema = schema_bytes(&snap.schema);
            let image = self
                .images
                .get_mut(&snap.name)
                .filter(|image| image.extends(&snap.sealed, &schema));
            let Some(image) = image else {
                let name = loop {
                    let name = ns.table_segment_name(next);
                    next += 1;
                    if !taken.contains(&name) {
                        break name;
                    }
                };
                taken.push(name.clone());
                snap.segment = name;
                snap.write = Write::Whole;
                continue;
            };
            let frontier = image.frontier.expect("extends");
            let unchanged = image.rows == snap.rows && frontier.blocks == snap.sealed.len();
            snap.segment = image.name.clone();
            snap.write = if unchanged {
                Write::Skip(frontier)
            } else {
                Write::Append(frontier)
            };
            image.listed = true;
            if let Some(view) = &image.view {
                view.disarm();
            }
        }
    }

    /// A checkpoint cycle committed `writes`: advance each table's record
    /// to what its segment now holds, and retire the records of segments
    /// the committed image no longer lists.
    pub(crate) fn commit_checkpoint(&mut self, writes: Vec<TableWrite>) {
        let mut images = BTreeMap::new();
        for w in writes {
            let old = self.images.remove(&w.table);
            let image = if w.whole {
                if let Some(old) = old {
                    old.retire();
                }
                TableImage {
                    name: w.segment,
                    view: None,
                    frontier: Some(w.frontier),
                    schema: w.schema,
                    blocks: w.blocks,
                    rows: w.rows,
                    listed: true,
                }
            } else {
                // Appended or skipped: the record the cycle extended, unless
                // the store was rebuilt under the cycle.
                let Some(mut image) = old else {
                    continue;
                };
                image.frontier = image.frontier.map(|_| w.frontier);
                image.blocks.extend(w.blocks);
                image.rows = w.rows;
                image
            };
            images.insert(w.table, image);
        }
        for (_, stale) in std::mem::replace(&mut self.images, images) {
            stale.retire();
        }
    }

    /// The image was invalidated: no commit lists any segment until the
    /// next one.
    pub(crate) fn unlist_images(&mut self) {
        for image in self.images.values_mut() {
            image.listed = false;
        }
    }

    /// The store is abandoned for a disk rebuild after its image was
    /// invalidated: retire every image.
    pub(crate) fn retire_images(self) {
        for (_, image) in self.images {
            image.retire();
        }
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
        let mut kept = None;
        if let Some(image) = self.images.remove(unit) {
            let schema = schema_bytes(&table.schema_snapshot());
            match image
                .frontier
                .filter(|_| image.extends(table.blocks(), &schema))
            {
                Some(frontier) => {
                    let floor = image.view.as_ref().map_or(0, |view| view.len());
                    kept = Some((image.name, frontier, floor));
                    self.committing.extend(image.view);
                }
                None => self.retiring.push(image),
            }
        }
        Ok(TableUnit {
            table,
            attached: None,
            kept,
        })
    }

    fn unit_heap_bytes(unit: &TableUnit) -> usize {
        unit.table.heap_bytes()
    }

    fn backup_extracted(unit: TableUnit, sink: &mut dyn ChunkSink) -> Result<(), Self::Error> {
        // Only sealed blocks are persisted: callers seal first, and any
        // unsealed remainder is dropped with the table, mirroring the
        // crash tolerance of §4.1.
        let TableUnit { table, kept, .. } = unit;
        let blocks = table.blocks().to_vec();
        let schema = table.schema_snapshot();
        drop(table);
        if let Some((_, frontier, _)) = kept {
            // A kept image: only the blocks sealed since it was committed
            // or attached are new.
            image::append_at_frontier(frontier, &blocks, None, &schema, sink)?;
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

    fn kept_segment(unit: &TableUnit) -> Option<(&str, usize, usize)> {
        let (name, frontier, floor) = unit.kept.as_ref()?;
        Some((name, frontier.end, *floor))
    }

    fn mapped_segments(&self) -> Vec<String> {
        self.image_segments()
    }

    fn commit_kept(&mut self) {
        for view in self.committing.drain(..) {
            view.disarm();
        }
        // The images of tables written whole, or gone from the store. This
        // life allocates no name after its backup, so a segment no commit
        // ever listed may go with its last block, as a view unlinks it.
        let stale = std::mem::take(&mut self.images).into_values();
        for mut image in self.retiring.drain(..).chain(stale) {
            if image.view.as_ref().is_some_and(|view| view.is_armed()) {
                image.punch_dropped();
            } else {
                image.retire();
            }
        }
    }

    fn decode_unit(unit: &str, source: &mut dyn ChunkSource) -> Result<TableUnit, Self::Error> {
        let (table, _) = image::read_table(unit, source)?;
        Ok(TableUnit {
            table,
            attached: None,
            kept: None,
        })
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
        let attached = view.map(|view| {
            // Extendable in place only if the END frame closes the
            // segment: nothing the appender would write over.
            let layout = layout.filter(|l| l.frontier.end + FRAME_HEADER_V2 == view.len());
            (view, layout)
        });
        Ok(TableUnit {
            table,
            attached,
            kept: None,
        })
    }

    fn install_unit(&mut self, _unit: &str, unit: TableUnit) -> Result<(), Self::Error> {
        let TableUnit {
            table, attached, ..
        } = unit;
        if let Some((view, layout)) = attached {
            let (frontier, schema, blocks) = match layout {
                Some(l) => {
                    let blocks = table
                        .blocks()
                        .iter()
                        .zip(l.blocks)
                        .map(|(block, range)| (Arc::downgrade(block), range))
                        .collect();
                    (Some(l.frontier), l.schema, blocks)
                }
                None => (None, Vec::new(), Vec::new()),
            };
            let image = TableImage {
                name: view.name().to_owned(),
                view: Some(view),
                frontier,
                schema,
                blocks,
                rows: table.row_count() as u64,
                listed: false,
            };
            self.images.insert(table.name().to_owned(), image);
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
