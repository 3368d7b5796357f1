//! Tables (Figure 2): a header plus a vector of row blocks.
//!
//! "Each table has a vector of pointers to row blocks (RBs) plus a header.
//! The table name and a count of the row blocks are in the table header."
//! Leaf servers "add new data as it arrives and process queries over their
//! current data. They also delete data as it expires due to either age or
//! size limits." (§2)

use std::sync::Arc;

use crate::builder::RowBlockBuilder;
use crate::error::Result;
use crate::row::{Row, RowCells};
use crate::rowblock::RowBlock;
use crate::schema::Schema;

/// Table-level metadata (Figure 2: "Table Name, Number of Row Blocks").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableHeader {
    /// The table's name.
    pub name: String,
    /// Number of sealed row blocks.
    pub num_row_blocks: usize,
}

/// Retention limits applied by [`Table::expire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetentionLimits {
    /// Drop blocks whose newest row is older than this many seconds, if set.
    pub max_age_secs: Option<i64>,
    /// Drop oldest blocks until encoded size fits under this, if set.
    pub max_bytes: Option<usize>,
}

impl RetentionLimits {
    /// No limits: nothing ever expires.
    pub const NONE: RetentionLimits = RetentionLimits {
        max_age_secs: None,
        max_bytes: None,
    };
}

/// A leaf-local fraction of one Scuba table: sealed row blocks plus the
/// in-progress builder.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    blocks: Vec<Arc<RowBlock>>,
    builder: RowBlockBuilder,
}

impl Table {
    /// Create an empty table. `now` seeds the first block's creation
    /// timestamp.
    pub fn new(name: impl Into<String>, now: i64) -> Self {
        Table {
            name: name.into(),
            blocks: Vec::new(),
            builder: RowBlockBuilder::new(now),
        }
    }

    /// Rebuild a table from recovered row blocks (the disk and shared-
    /// memory restore paths both end here).
    pub fn from_blocks(name: impl Into<String>, blocks: Vec<Arc<RowBlock>>, now: i64) -> Self {
        Table {
            name: name.into(),
            blocks,
            builder: RowBlockBuilder::new(now),
        }
    }

    /// The table's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Header view (Figure 2).
    pub fn header(&self) -> TableHeader {
        TableHeader {
            name: self.name.clone(),
            num_row_blocks: self.blocks.len(),
        }
    }

    /// Append one row; seals the current block and starts a new one when a
    /// cap is reached. `now` stamps a freshly-started block.
    pub fn append(&mut self, row: &Row, now: i64) -> Result<()> {
        self.open_builder(now)?.push_row(row)
    }

    /// Append a batch whole or not at all: a row the open builder rejects
    /// (a cell whose type conflicts with its column) undoes the rows of
    /// the batch before it, so a rejected batch leaves the table as it
    /// was. Where the batch fills the builder, the rows left are checked
    /// among themselves ([`Schema::check_rows`]) before it seals, while
    /// the batch can still be undone; past that no row can fail. A column
    /// may change type at that seal, as row by row, but not at a later
    /// seal inside the same batch.
    pub fn append_batch(&mut self, rows: &[Row], now: i64) -> Result<()> {
        let mark = self.builder.mark();
        for (i, row) in rows.iter().enumerate() {
            if self.builder.is_full() {
                if let Err(e) = Schema::new().check_rows(&rows[i..]) {
                    self.builder.rollback(mark);
                    return Err(e);
                }
                self.seal(now)?;
                return rows[i..].iter().try_for_each(|row| self.append(row, now));
            }
            if let Err(e) = self.builder.push_row(row) {
                self.builder.rollback(mark);
                return Err(e);
            }
        }
        Ok(())
    }

    /// [`Self::append`] for a row given as cells, whose values move into
    /// the builder ([`RowBlockBuilder::push_cells`]).
    pub fn append_cells(&mut self, cells: &mut RowCells<'_>, now: i64) -> Result<()> {
        self.open_builder(now)?.push_cells(cells)
    }

    /// The builder, after sealing it if it is full.
    fn open_builder(&mut self, now: i64) -> Result<&mut RowBlockBuilder> {
        if self.builder.is_full() {
            self.seal(now)?;
        }
        Ok(&mut self.builder)
    }

    /// Seal the in-progress builder into a row block (no-op when empty).
    pub fn seal(&mut self, now: i64) -> Result<()> {
        if self.builder.is_empty() {
            return Ok(());
        }
        let builder = std::mem::replace(&mut self.builder, RowBlockBuilder::new(now));
        self.blocks.push(Arc::new(builder.finish()?));
        Ok(())
    }

    /// Sealed row blocks, oldest first.
    pub fn blocks(&self) -> &[Arc<RowBlock>] {
        &self.blocks
    }

    /// Number of buffered (not yet sealed) rows.
    pub fn unsealed_rows(&self) -> usize {
        self.builder.row_count()
    }

    /// The open block: the builder of the rows not yet sealed (`None`
    /// when none are buffered). Queries read it where it lies.
    pub fn open_block(&self) -> Option<&RowBlockBuilder> {
        (!self.builder.is_empty()).then_some(&self.builder)
    }

    /// Total rows, sealed + buffered.
    pub fn row_count(&self) -> usize {
        self.blocks.iter().map(|b| b.row_count()).sum::<usize>() + self.builder.row_count()
    }

    /// Sealed blocks whose time range intersects `[from, to)` — the §2.1
    /// min/max-timestamp pruning that lets queries skip cold blocks.
    pub fn blocks_in_range(&self, from: i64, to: i64) -> Vec<Arc<RowBlock>> {
        self.blocks
            .iter()
            .filter(|b| b.overlaps_time(from, to))
            .cloned()
            .collect()
    }

    /// The open block, if it holds a row in `[from, to)` by its time
    /// bounds.
    pub fn open_in_range(&self, from: i64, to: i64) -> Option<&RowBlockBuilder> {
        self.open_block()
            .filter(|b| b.min_time() < to && b.max_time() >= from)
    }

    /// The table-level schema snapshot: the union of every sealed block's
    /// schema, in first-seen column order. Different blocks of the same
    /// table may carry different schemas (§2.1); the snapshot is what gets
    /// persisted alongside the blocks so a restoring binary can see the
    /// writer's full column set without walking every block. On a type
    /// conflict between blocks the first-seen type wins.
    pub fn schema_snapshot(&self) -> Schema {
        let mut snap = Schema::new();
        for block in &self.blocks {
            for (name, ty) in block.schema().iter() {
                let _ = snap.add_column(name, ty);
            }
        }
        snap
    }

    /// Encoded bytes across sealed blocks (what shutdown will copy).
    pub fn encoded_bytes(&self) -> usize {
        self.blocks.iter().map(|b| b.image_bytes()).sum()
    }

    /// Approximate total heap footprint: encoded blocks plus the raw
    /// builder estimate, excluding column bytes resident in shared
    /// mappings (Warm) or on the cold tier (Cold) — those are accounted
    /// by [`Self::mapped_bytes`] and [`Self::cold_bytes`] so the gauges
    /// never double-count during a demotion or a promotion.
    pub fn heap_bytes(&self) -> usize {
        self.encoded_bytes()
            .saturating_sub(self.mapped_bytes())
            .saturating_sub(self.cold_bytes())
            + self.builder.raw_bytes()
    }

    /// Column bytes served out of shared-memory mappings (the Warm
    /// residency state): the attached image a leaf keeps. Cold (disk
    /// fast-format) blocks are excluded; see [`Self::cold_bytes`].
    pub fn mapped_bytes(&self) -> usize {
        self.blocks
            .iter()
            .filter(|b| !b.is_cold())
            .map(|b| b.mapped_bytes())
            .sum()
    }

    /// Encoded bytes of blocks demoted to the disk fast-format (the Cold
    /// residency state). These are mmap-backed and count against neither
    /// the heap nor the shm-resident gauges.
    pub fn cold_bytes(&self) -> usize {
        self.blocks
            .iter()
            .filter(|b| b.is_cold())
            .map(|b| b.image_bytes())
            .sum()
    }

    /// Number of blocks currently in the Cold residency state.
    pub fn cold_blocks(&self) -> usize {
        self.blocks.iter().filter(|b| b.is_cold()).count()
    }

    /// Blocks that still have shm-backed columns, as shared handles for
    /// the hydration worker pool. Cold blocks are excluded: they are
    /// disk-resident on purpose and must not be pulled to heap by the
    /// hydrator behind the residency manager's back.
    pub fn mapped_blocks(&self) -> Vec<Arc<RowBlock>> {
        self.blocks
            .iter()
            .filter(|b| b.is_mapped() && !b.is_cold())
            .cloned()
            .collect()
    }

    /// Swap `old` for `new` by pointer identity. This is how hydration
    /// lands: the worker copied `old` (a mapped block) to heap while the
    /// table kept serving queries and possibly sealed fresh blocks; the
    /// `Arc::ptr_eq` match guarantees the swap can never clobber anything
    /// but the exact block the worker started from. Returns false if the
    /// block is gone (expired or replaced), in which case the caller just
    /// drops its handle.
    pub fn apply_block_patch(&mut self, old: &Arc<RowBlock>, new: Arc<RowBlock>) -> bool {
        for slot in &mut self.blocks {
            if Arc::ptr_eq(slot, old) {
                *slot = new;
                return true;
            }
        }
        false
    }

    /// Apply retention limits (§2: "delete data as it expires due to either
    /// age or size limits"), dropping whole blocks oldest-first. Returns
    /// the number of blocks dropped.
    pub fn expire(&mut self, limits: RetentionLimits, now: i64) -> usize {
        let before = self.blocks.len();
        if let Some(max_age) = limits.max_age_secs {
            let cutoff = now - max_age;
            self.blocks.retain(|b| b.header().max_time >= cutoff);
        }
        if let Some(max_bytes) = limits.max_bytes {
            let mut total = self.encoded_bytes();
            let mut drop_upto = 0usize;
            for b in &self.blocks {
                if total <= max_bytes {
                    break;
                }
                total -= b.image_bytes();
                drop_upto += 1;
            }
            self.blocks.drain(..drop_upto);
        }
        before - self.blocks.len()
    }

    /// Drop all sealed blocks and buffered rows (used when a restore path
    /// replaces table contents wholesale).
    pub fn clear(&mut self, now: i64) {
        self.blocks.clear();
        self.builder = RowBlockBuilder::new(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Value;

    fn filled_table(rows: i64) -> Table {
        let mut t = Table::new("events", 0);
        for i in 0..rows {
            t.append(&Row::at(i).with("v", i * 10), i).unwrap();
        }
        t
    }

    #[test]
    fn append_and_count() {
        let t = filled_table(100);
        assert_eq!(t.row_count(), 100);
        assert_eq!(t.unsealed_rows(), 100); // under the cap: nothing sealed
        assert!(t.blocks().is_empty());
    }

    #[test]
    fn seal_moves_rows_to_blocks() {
        let mut t = filled_table(100);
        t.seal(100).unwrap();
        assert_eq!(t.blocks().len(), 1);
        assert_eq!(t.unsealed_rows(), 0);
        assert_eq!(t.row_count(), 100);
        assert_eq!(t.header().num_row_blocks, 1);
    }

    #[test]
    fn range_query_sees_unsealed_rows() {
        let t = filled_table(10); // times 0..9, unsealed
        assert!(t.blocks_in_range(0, 100).is_empty());
        assert_eq!(t.open_in_range(0, 100).unwrap().row_count(), 10);
        assert_eq!(t.open_in_range(9, 10).unwrap().row_count(), 10);
        // Disjoint ranges prune it.
        assert!(t.open_in_range(100, 200).is_none());
        assert!(t.open_in_range(-5, 0).is_none());
    }

    #[test]
    fn range_pruning_skips_blocks() {
        let mut t = Table::new("e", 0);
        for epoch in 0..5i64 {
            for i in 0..10 {
                t.append(&Row::at(epoch * 1000 + i), 0).unwrap();
            }
            t.seal(0).unwrap();
        }
        assert_eq!(t.blocks().len(), 5);
        let hits = t.blocks_in_range(2000, 3000);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].header().min_time, 2000);
    }

    #[test]
    fn expire_by_age() {
        let mut t = Table::new("e", 0);
        for epoch in 0..3i64 {
            for i in 0..5 {
                t.append(&Row::at(epoch * 100 + i), 0).unwrap();
            }
            t.seal(0).unwrap();
        }
        // now=300, max age 200 => cutoff 100: only epoch 0 (max_time 4) drops.
        let dropped = t.expire(
            RetentionLimits {
                max_age_secs: Some(200),
                max_bytes: None,
            },
            300,
        );
        assert_eq!(dropped, 1);
        assert_eq!(t.blocks().len(), 2);
    }

    #[test]
    fn expire_by_size_drops_oldest_first() {
        let mut t = Table::new("e", 0);
        for epoch in 0..4i64 {
            for i in 0..50 {
                t.append(&Row::at(epoch * 100 + i).with("pad", "x".repeat(50)), 0)
                    .unwrap();
            }
            t.seal(0).unwrap();
        }
        let total = t.encoded_bytes();
        let one_block = total / 4;
        let dropped = t.expire(
            RetentionLimits {
                max_age_secs: None,
                max_bytes: Some(total - one_block),
            },
            0,
        );
        assert!(dropped >= 1);
        // Oldest block (min_time 0) is gone.
        assert!(t.blocks().iter().all(|b| b.header().min_time >= 100));
    }

    #[test]
    fn auto_seal_on_block_cap() {
        let mut t = Table::new("e", 0);
        for i in 0..(crate::MAX_ROWS_PER_BLOCK as i64 + 10) {
            t.append(&Row::at(i), 0).unwrap();
        }
        assert_eq!(t.blocks().len(), 1);
        assert_eq!(t.unsealed_rows(), 10);
        assert_eq!(t.row_count(), crate::MAX_ROWS_PER_BLOCK + 10);
    }

    /// Each block's schema and rows, the open builder's last.
    fn contents(t: &Table) -> Vec<(Schema, Vec<Row>)> {
        let sealed = t
            .blocks()
            .iter()
            .map(|b| (b.schema().clone(), b.decode_rows().unwrap()));
        let open = t.open_block().map(|b| (b.schema().clone(), b.rows_from(0)));
        sealed.chain(open).collect()
    }

    /// A batch appends exactly what row-by-row appends build — columns
    /// that appear mid-batch, cells a row lacks, a seal inside the batch —
    /// and a rejected batch leaves the table as it was.
    #[test]
    fn a_batch_appends_whole_or_not_at_all() {
        let rows: Vec<Row> = (0..crate::MAX_ROWS_PER_BLOCK as i64 + 300)
            .map(|i| match i % 3 {
                0 => Row::at(i).with("v", i).with("s", format!("s{}", i % 7)),
                1 => Row::at(i).with("s", "one").with("v", i),
                _ => Row::at(i).with("d", i as f64 / 2.0),
            })
            .collect();
        let (mut by_row, mut by_batch) = (Table::new("t", 0), Table::new("t", 0));
        for chunk in rows.chunks(1000) {
            for row in chunk {
                by_row.append(row, 0).unwrap();
            }
            by_batch.append_batch(chunk, 0).unwrap();
        }
        assert_eq!(by_batch.blocks().len(), 1);
        assert_eq!(contents(&by_batch), contents(&by_row));

        let before = contents(&by_batch);
        let bad = [
            vec![Row::at(0).with("v", 1i64), Row::at(1).with("v", "one")],
            vec![Row::at(0).with("new", 1i64), Row::at(1).with("new", 2.5)],
            vec![Row::at(0).with("w", 1i64), Row::at(1).with("d", "half")],
        ];
        for batch in &bad {
            let err = by_batch.append_batch(batch, 0).unwrap_err();
            assert!(matches!(err, crate::Error::TypeMismatch { .. }), "{err:?}");
            assert_eq!(contents(&by_batch), before, "{batch:?} left rows behind");
        }
    }

    /// A rejected batch that would fill the open block leaves it open, as
    /// it was: the rows after a seal inside a batch are checked among
    /// themselves before the block seals. A column may change type across
    /// that seal, as row by row.
    #[test]
    fn a_batch_across_a_seal_is_checked_before_the_seal() {
        let mut t = Table::new("t", 0);
        let fill: Vec<Row> = (0..crate::MAX_ROWS_PER_BLOCK as i64 - 1)
            .map(|i| Row::at(i).with("v", i))
            .collect();
        t.append_batch(&fill, 0).unwrap();
        let before = contents(&t);
        let bad = [
            Row::at(0).with("v", 1i64),
            Row::at(1).with("w", "a string"),
            Row::at(2).with("w", 2.5),
        ];
        assert!(t.append_batch(&bad, 0).is_err());
        assert_eq!(contents(&t), before);
        assert!(t.blocks().is_empty(), "a rejected batch sealed a block");
        let across = [Row::at(0).with("v", 1i64), Row::at(1).with("v", "a string")];
        t.append_batch(&across, 0).unwrap();
        assert_eq!((t.blocks().len(), t.unsealed_rows()), (1, 1));
    }

    #[test]
    fn from_blocks_rebuilds() {
        let mut t = filled_table(50);
        t.seal(0).unwrap();
        let rebuilt = Table::from_blocks("events", t.blocks().to_vec(), 0);
        assert_eq!(rebuilt.row_count(), 50);
        assert_eq!(rebuilt.blocks()[0].cell(0, "v").unwrap(), Value::Int(0));
    }

    #[test]
    fn clear_empties_table() {
        let mut t = filled_table(50);
        t.seal(0).unwrap();
        t.clear(0);
        assert_eq!(t.row_count(), 0);
        assert_eq!(t.encoded_bytes(), 0);
    }
}
