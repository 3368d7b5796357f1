//! [`LeafStore`]: the leaf's in-memory state, restored through
//! [`ShmPersistable`] — and [`ImageJob`], the one write half, which the
//! planned shutdown and a checkpoint cycle alike hand to the backup
//! envelope (`scuba_restart::backup_to_shm_with`).
//!
//! A job's unit is a table snapshot ([`TableSnapshot`]): its sealed
//! blocks — never an open one, which a checkpoint leaves to the WAL — and
//! where its image goes. The shutdown drains the store into its job, so
//! each block is freed as it is written (Figure 6: "delete row block from
//! heap") and the footprint stays flat (§4.4); a checkpoint clones `Arc`s.
//! Both write through [`image::write_table`]; restore and attach read
//! through [`image::read_table`].
//!
//! Each table's image in shared memory has one record here
//! (`TableImage`): the segment a start attached or a commit wrote, how far
//! its frames reach, and the blocks it holds. One decision points a job's
//! tables at their images (`ImageJob::new`): unchanged, extended in
//! place, or written whole into a fresh segment. One fold advances the
//! records once the job commits ([`LeafStore::commit_image`]), retiring
//! each segment a commit no longer lists.

use std::collections::BTreeMap;
use std::sync::Arc;

use scuba_columnstore::{LeafMap, Result as StoreResult, Row, RowBlock, Schema, Table};
use scuba_restart::framing::FRAME_HEADER_V2;
use scuba_restart::{
    ChunkSink, ChunkSource, MappedChunkSource, ShmBackup, ShmPersistable, UnitTarget,
};
use scuba_shmem::{SegmentView, ShmError, ShmSegment};

use crate::checkpoint::{CheckpointStats, SEG_FLAG_CHECKPOINT};
use crate::image::{self, BlockFrames, Frontier, Layout, PersistError, MANIFEST_VERSION};

/// The leaf's in-memory store: a [`LeafMap`] plus the records of its
/// tables' images.
#[derive(Debug, Default)]
pub struct LeafStore {
    map: LeafMap,
    /// Each table's image in shared memory, by table.
    images: BTreeMap<String, TableImage>,
}

/// One table's image: the segment holding it, how far its frames reach,
/// and the blocks it holds. While the record lives its segment stays
/// linked: a view it holds is unlinked only by [`TableImage::retire`].
#[derive(Debug)]
pub struct TableImage {
    /// The segment's name.
    name: String,
    /// The view this process serves the segment through, if it attached
    /// it; no view for a segment a commit wrote from heap blocks.
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
    blocks: BlockFrames,
    /// A committed image, or a job in flight, may list the segment: none
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

    /// The record of an image a job wrote into segment `name`, up to
    /// `frontier`: listed, served from no view of its own.
    fn written(name: String, frontier: Frontier) -> TableImage {
        TableImage {
            name,
            view: None,
            frontier: Some(frontier),
            schema: Vec::new(),
            blocks: Vec::new(),
            listed: true,
        }
    }
}

/// The serialized form of a manifest schema.
fn schema_bytes(schema: &Schema) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(schema.serialized_size());
    schema.serialize(&mut bytes);
    bytes
}

/// One table crossing the restore: the table, and the segment its blocks
/// are windows into (attach), with its layout if it can be extended in
/// place.
#[derive(Debug)]
pub struct TableUnit {
    table: Table,
    attached: Option<(Arc<SegmentView>, Option<Layout>)>,
}

/// One table of an [`ImageJob`]: its sealed blocks (`Arc`-shared with
/// nothing, when drained; with the live table, when cloned) and where its
/// image goes.
#[derive(Debug)]
pub struct TableSnapshot {
    /// Table name (the unit name frame).
    name: String,
    /// Sealed, immutable blocks in order.
    sealed: Vec<Arc<RowBlock>>,
    /// Union schema across the sealed blocks (the manifest schema).
    schema: Schema,
    /// Heap the snapshot frees as it is written (0 when cloned).
    heap: usize,
    /// Where the envelope puts it.
    target: UnitTarget,
    /// The sealed frontier of the image it extends, if it does.
    frontier: Option<Frontier>,
}

/// One image write through the backup envelope: every table of the store,
/// each pointed at its image (`ImageJob::new`). A planned
/// shutdown drains the store into its job; a checkpoint cycle clones it.
/// Once the envelope commits, its `written` records are what
/// [`LeafStore::commit_image`] folds back.
#[derive(Debug)]
pub struct ImageJob {
    tables: BTreeMap<String, TableSnapshot>,
    /// Names the store's images hold: a fresh segment never takes one.
    mapped: Vec<String>,
    /// A checkpoint cycle's image: flagged registry entries, op
    /// `checkpoint`, and the cycle's own failpoint.
    checkpoint: bool,
    /// Heap of the tables not yet extracted.
    heap: usize,
    /// What a checkpoint cycle over the job does, bytes aside.
    pub(crate) stats: CheckpointStats,
    /// Each table's image record once the job commits.
    pub(crate) written: Vec<(String, TableImage)>,
}

impl ImageJob {
    /// The planned shutdown's job: every table leaves the store ("delete
    /// table from heap"), its sealed blocks owned by the job alone so each
    /// is freed as it is written. Unsealed rows are not persisted: callers
    /// seal first, mirroring the crash tolerance of §4.1.
    pub fn drain(store: &mut LeafStore) -> ImageJob {
        let map = std::mem::take(&mut store.map);
        ImageJob::new(&map, &mut store.images, false)
    }

    /// A checkpoint cycle's job: the sealed blocks of every table of the
    /// live store, `Arc`-shared (no copy). Each open block stays in the
    /// WAL. Runs on the serving thread.
    pub fn snapshot(store: &mut LeafStore) -> ImageJob {
        ImageJob::new(&store.map, &mut store.images, true)
    }

    /// A job over the sealed blocks of `map`'s tables, each pointed at its
    /// record in `images`: left as it is when the segment already holds
    /// every block, appended at the frontier when the table extends the
    /// image, else written whole into a fresh segment (the envelope names
    /// it). The segments a job keeps may be listed from now on: their
    /// views are disarmed, so a block freed as it is written cannot unlink
    /// a name the new image lists.
    fn new(map: &LeafMap, images: &mut BTreeMap<String, TableImage>, checkpoint: bool) -> ImageJob {
        let mut job = ImageJob {
            tables: BTreeMap::new(),
            mapped: images.values().map(|i| i.name.clone()).collect(),
            checkpoint,
            heap: 0,
            stats: CheckpointStats {
                tables: map.len(),
                ..CheckpointStats::default()
            },
            written: Vec::new(),
        };
        for t in map.iter() {
            let mut snap = TableSnapshot {
                name: t.name().to_owned(),
                sealed: t.blocks().to_vec(),
                heap: if checkpoint { 0 } else { t.heap_bytes() },
                schema: t.schema_snapshot(),
                target: UnitTarget::Fresh,
                frontier: None,
            };
            job.heap += snap.heap;
            job.stats.sealed_blocks += snap.sealed.len();
            job.stats.rows += (t.row_count() - t.unsealed_rows()) as u64;
            let schema = schema_bytes(&snap.schema);
            match images
                .get_mut(&snap.name)
                .filter(|image| image.extends(&snap.sealed, &schema))
            {
                Some(image) => {
                    let frontier = image.frontier.expect("extends");
                    snap.target = if frontier.blocks == snap.sealed.len() {
                        job.stats.skipped += 1;
                        let kept = TableImage::written(image.name.clone(), frontier);
                        job.written.push((snap.name.clone(), kept));
                        UnitTarget::Unchanged(image.name.clone())
                    } else {
                        snap.frontier = Some(frontier);
                        UnitTarget::Extend {
                            name: image.name.clone(),
                            at: frontier.end,
                            floor: image.view.as_ref().map_or(0, |view| view.len()),
                        }
                    };
                    image.listed = true;
                    if let Some(view) = &image.view {
                        view.disarm();
                    }
                }
                None => job.stats.full_rewrites += 1,
            }
            job.tables.insert(snap.name.clone(), snap);
        }
        job
    }
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

    /// Append rows to a table, creating it if needed. The batch appends
    /// whole or not at all ([`Table::append_batch`]): a rejected batch
    /// changes nothing, not even a table it would have created.
    pub fn append_rows(&mut self, table: &str, rows: &[Row], now: i64) -> StoreResult<()> {
        if let Some(t) = self.map.get_mut(table) {
            return t.append_batch(rows, now);
        }
        let mut t = Table::new(table, now);
        t.append_batch(rows, now)?;
        self.map.insert(t);
        Ok(())
    }

    /// Seal every table's in-progress builder: only sealed blocks are
    /// persisted to shm, by a shutdown and a checkpoint alike.
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

    /// A job committed `writes`: each table's record advances to what its
    /// segment now holds — the record the job extended (same segment), or
    /// the one it wrote whole, which retires the old — and the records of
    /// segments the committed image no longer lists are retired.
    pub(crate) fn commit_image(&mut self, writes: Vec<(String, TableImage)>) {
        let mut images = BTreeMap::new();
        for (table, written) in writes {
            let image = match self.images.remove(&table) {
                Some(mut kept) if kept.name == written.name => {
                    kept.frontier = kept.frontier.and(written.frontier);
                    kept.blocks.extend(written.blocks);
                    kept
                }
                old => {
                    old.into_iter().for_each(TableImage::retire);
                    written
                }
            };
            images.insert(table, image);
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

impl ShmBackup for ImageJob {
    type Error = PersistError;
    type Unit = TableSnapshot;
    type Written = (String, TableImage);

    fn unit_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    fn estimate_unit_size(&self, unit: &str) -> usize {
        // Encoded bytes plus framing slack (prelude + zone chunk per
        // block); the writer grows the segment if this is low. A cold
        // block contributes only its small reference chunk (covered by the
        // slack), not its image bytes — those stay on disk.
        let Some(t) = self.tables.get(unit) else {
            return 0;
        };
        let block = |b: &Arc<RowBlock>| {
            let warm = if b.is_cold() { 0 } else { b.image_bytes() };
            warm + 256 + b.zones().map_or(0, |z| z.serialized_size())
        };
        t.sealed.iter().map(block).sum::<usize>() + 1024
    }

    fn extract_unit(&mut self, unit: &str) -> Result<TableSnapshot, PersistError> {
        let snap = self
            .tables
            .remove(unit)
            .ok_or_else(|| PersistError::Framing(format!("unknown table {unit:?}")))?;
        self.heap -= snap.heap;
        Ok(snap)
    }

    fn backup_extracted(
        t: TableSnapshot,
        sink: &mut dyn ChunkSink,
    ) -> Result<(String, TableImage), PersistError> {
        let (frontier, blocks) = image::write_table(t.frontier, t.sealed, &t.schema, sink)?;
        let image = TableImage {
            schema: schema_bytes(&t.schema),
            blocks,
            ..TableImage::written(String::new(), frontier)
        };
        Ok((t.name, image))
    }

    fn unit_target(unit: &TableSnapshot) -> &UnitTarget {
        &unit.target
    }

    fn mapped_segments(&self) -> Vec<String> {
        self.mapped.clone()
    }

    fn commit(&mut self, written: Vec<(String, (String, TableImage))>) -> Result<(), PersistError> {
        // A checkpoint cycle's own site, inside the invalid window: dying
        // anywhere here costs only the fast path, never fidelity.
        if self.checkpoint && scuba_faults::check("leaf::checkpoint::write").is_some() {
            return Err(ShmError::injected("leaf::checkpoint::write", "failpoint").into());
        }
        for (segment, (table, mut image)) in written {
            image.name = segment;
            self.written.push((table, image));
        }
        Ok(())
    }

    fn unit_format_version(&self, _unit: &str) -> u32 {
        MANIFEST_VERSION as u32
    }

    fn checkpoint_flags(&self) -> Option<u32> {
        self.checkpoint.then_some(SEG_FLAG_CHECKPOINT)
    }

    fn heap_bytes(&self) -> usize {
        self.heap
    }
}

impl ShmPersistable for LeafStore {
    type Error = PersistError;
    type Unit = TableUnit;

    fn decode_unit(unit: &str, source: &mut dyn ChunkSource) -> Result<TableUnit, Self::Error> {
        let (table, _) = image::read_table(unit, source)?;
        Ok(TableUnit {
            table,
            attached: None,
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
        Ok(TableUnit { table, attached })
    }

    fn install_unit(&mut self, _unit: &str, unit: TableUnit) -> Result<(), Self::Error> {
        let TableUnit { table, attached } = unit;
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
                listed: false,
            };
            self.images.insert(table.name().to_owned(), image);
        }
        self.map.insert(table);
        Ok(())
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
    use scuba_restart::{restore_from_shm, BackupError, BackupReport};
    use scuba_shmem::ShmNamespace;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    const V: u32 = scuba_restart::SHM_LAYOUT_VERSION;

    /// The planned shutdown's write: drain the store into a job, back it
    /// up, and fold the commit back.
    fn backup_to_shm(
        store: &mut LeafStore,
        ns: &ShmNamespace,
        version: u32,
    ) -> Result<BackupReport, BackupError<PersistError>> {
        let mut job = ImageJob::drain(store);
        let report = scuba_restart::backup_to_shm(&mut job, ns, version)?;
        store.commit_image(job.written);
        Ok(report)
    }

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
        assert_eq!(t.blocks_in_range(200, 300).len(), 1);
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
        let mut store = populated_store();
        let job = ImageJob::snapshot(&mut store);
        for name in job.unit_names() {
            let est = job.estimate_unit_size(&name);
            let actual = store.map().get(&name).unwrap().encoded_bytes();
            assert!(est >= actual, "{name}: estimate {est} < actual {actual}");
        }
    }
}
