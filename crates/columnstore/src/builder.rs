//! Accumulates arriving rows into a columnar [`RowBlock`].
//!
//! Rows that arrive consecutively go into the same block until it reaches
//! 65,536 rows or 1 GB pre-compression (§2.1). The builder grows its
//! schema dynamically: a row introducing a new column back-fills nulls for
//! the rows already buffered, and rows missing a known column get a null —
//! this is how "different row blocks may have different schemas" while each
//! individual block stays rectangular.

use crate::column::ColumnData;
use crate::error::{Error, Result};
use crate::rbc::RowBlockColumn;
use crate::row::{Row, RowCells};
use crate::rowblock::{RowBlock, RowBlockHeader};
use crate::schema::Schema;
use crate::types::{ColumnType, Value};
use crate::{MAX_BLOCK_BYTES, MAX_ROWS_PER_BLOCK, TIME_COLUMN};

thread_local! {
    static SNAPSHOTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Where a builder stood before a batch: what [`RowBlockBuilder::rollback`]
/// returns it to.
#[derive(Debug, Clone, Copy)]
pub struct BuilderMark {
    rows: usize,
    columns: usize,
    raw_bytes: usize,
    min_time: i64,
    max_time: i64,
}

/// Mutable accumulator for one in-progress row block.
#[derive(Debug, Clone)]
pub struct RowBlockBuilder {
    schema: Schema,
    columns: Vec<ColumnData>,
    row_count: usize,
    /// Running pre-compression size estimate, checked against the 1 GB cap.
    raw_bytes: usize,
    min_time: i64,
    max_time: i64,
    created_at: i64,
    /// Scratch for a push: the column index of each cell of the row
    /// being pushed (see [`Self::grow`]).
    slots: Vec<usize>,
}

impl RowBlockBuilder {
    /// Start an empty block. `created_at` is the block creation timestamp
    /// recorded in the header (callers pass their clock's "now").
    pub fn new(created_at: i64) -> Self {
        let mut schema = Schema::new();
        schema.add_column(TIME_COLUMN, ColumnType::Int64).unwrap();
        RowBlockBuilder {
            schema,
            columns: vec![ColumnData::new(ColumnType::Int64)],
            row_count: 0,
            raw_bytes: 0,
            min_time: i64::MAX,
            max_time: i64::MIN,
            created_at,
            slots: Vec::new(),
        }
    }

    /// Number of buffered rows.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// True if no rows are buffered.
    pub fn is_empty(&self) -> bool {
        self.row_count == 0
    }

    /// Pre-compression byte estimate of buffered rows.
    pub fn raw_bytes(&self) -> usize {
        self.raw_bytes
    }

    /// True once the block hit its row or byte cap and must be sealed.
    pub fn is_full(&self) -> bool {
        self.row_count >= MAX_ROWS_PER_BLOCK || self.raw_bytes >= MAX_BLOCK_BYTES
    }

    /// Minimum row timestamp buffered so far (meaningless while empty).
    pub fn min_time(&self) -> i64 {
        self.min_time
    }

    /// Maximum row timestamp buffered so far (meaningless while empty).
    pub fn max_time(&self) -> i64 {
        self.max_time
    }

    /// Append one row. Fails with [`Error::BlockFull`] when the caps are
    /// hit — the caller (the table) seals this block and starts a new one.
    /// The same push as [`Self::push_cells`], over clones of the row's
    /// values.
    pub fn push_row(&mut self, row: &Row) -> Result<()> {
        self.grow(row.columns())?;
        self.fill(
            row.time(),
            row.heap_size(),
            row.columns().map(|(_, v)| v.clone()),
        );
        Ok(())
    }

    /// Append one row given as cells, moving their values into the
    /// columns: how log replay appends the cells it decodes, without a
    /// [`Row`].
    pub fn push_cells(&mut self, cells: &mut RowCells<'_>) -> Result<()> {
        self.grow(cells.columns())?;
        self.fill(cells.time(), cells.heap_size(), cells.drain_values());
        Ok(())
    }

    /// The first half of a push: check the caps, then add any new column
    /// to the schema, back-filling nulls for the rows already buffered,
    /// and note each cell's column in `slots`. Growing the schema before
    /// any fill leaves the builder consistent when a later cell's type
    /// conflicts.
    fn grow<'v>(&mut self, columns: impl Iterator<Item = (&'v str, &'v Value)>) -> Result<()> {
        if self.is_full() {
            return Err(Error::BlockFull);
        }
        let mut n = 0;
        for (name, value) in columns {
            let ty = value
                .column_type()
                .expect("rows and cells never hold a null");
            // Rows mostly repeat one shape: the previous row's slot for
            // this cell is the column, unless the schema says otherwise.
            let hint = self.slots.get(n).copied();
            let idx = match hint {
                Some(idx) if self.schema.column(idx) == Some((name, ty)) => idx,
                _ => self.schema.add_column(name, ty)?,
            };
            if idx == self.columns.len() {
                self.add_column_data(ty);
            }
            match self.slots.get_mut(n) {
                Some(slot) => *slot = idx,
                None => self.slots.push(idx),
            }
            n += 1;
        }
        self.slots.truncate(n);
        Ok(())
    }

    /// The column data of a column the schema just gained, back-filled
    /// with nulls for the rows already buffered.
    fn add_column_data(&mut self, ty: ColumnType) {
        let mut col = ColumnData::new(ty);
        for _ in 0..self.row_count {
            col.push_null();
        }
        self.columns.push(col);
    }

    /// Where the builder stands, for [`Self::rollback`].
    pub fn mark(&self) -> BuilderMark {
        BuilderMark {
            rows: self.row_count,
            columns: self.columns.len(),
            raw_bytes: self.raw_bytes,
            min_time: self.min_time,
            max_time: self.max_time,
        }
    }

    /// Undo every push since `mark`: drop the rows, and the columns they
    /// added, as if the pushes never happened.
    pub fn rollback(&mut self, mark: BuilderMark) {
        self.schema.truncate(mark.columns);
        self.columns.truncate(mark.columns);
        for col in &mut self.columns {
            col.truncate(mark.rows);
        }
        self.row_count = mark.rows;
        self.raw_bytes = mark.raw_bytes;
        self.min_time = mark.min_time;
        self.max_time = mark.max_time;
    }

    /// The second half: push the time and each value into the column
    /// [`Self::grow`] noted for it, then a null into every column the row
    /// lacks.
    fn fill(&mut self, time: i64, raw_bytes: usize, values: impl Iterator<Item = Value>) {
        let typed = "grow matched every cell's type to its column";
        self.columns[0].push(Value::Int(time)).expect(typed);
        for (&idx, value) in self.slots.iter().zip(values) {
            self.columns[idx].push(value).expect(typed);
        }
        self.row_count += 1;
        for col in &mut self.columns[1..] {
            if col.len() < self.row_count {
                col.push_null();
            }
        }
        self.raw_bytes += raw_bytes;
        self.min_time = self.min_time.min(time);
        self.max_time = self.max_time.max(time);
    }

    /// Seal the builder into an immutable, encoded [`RowBlock`].
    pub fn finish(self) -> Result<RowBlock> {
        let header = RowBlockHeader {
            size_bytes: 0, // recomputed by from_parts
            row_count: self.row_count as u32,
            min_time: if self.row_count == 0 {
                0
            } else {
                self.min_time
            },
            max_time: if self.row_count == 0 {
                0
            } else {
                self.max_time
            },
            created_at: self.created_at,
        };
        let zones = crate::zone::ZoneMap::compute(&self.schema, &self.columns);
        let columns = self
            .columns
            .iter()
            .map(RowBlockColumn::encode)
            .collect::<Result<Vec<_>>>()?;
        Ok(RowBlock::from_parts(header, self.schema, columns)?.with_zones(Some(zones)))
    }

    /// Encode the current contents into a block *without* consuming the
    /// builder. Queries use this to see not-yet-sealed rows. It clones and
    /// re-encodes every buffered row, so a query should pay it once — see
    /// [`Self::snapshots_on_thread`].
    pub fn snapshot(&self) -> Result<RowBlock> {
        SNAPSHOTS.with(|n| n.set(n.get() + 1));
        self.clone().finish()
    }

    /// How many [`Self::snapshot`]s the calling thread has encoded. Tests
    /// pin "one per query" with a delta of this; it is per thread so that
    /// tests running in parallel do not see each other's.
    pub fn snapshots_on_thread() -> u64 {
        SNAPSHOTS.with(std::cell::Cell::get)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_column_always_first() {
        let b = RowBlockBuilder::new(0);
        assert_eq!(b.schema_len(), 1);
    }

    impl RowBlockBuilder {
        fn schema_len(&self) -> usize {
            self.schema.len()
        }
    }

    #[test]
    fn dynamic_schema_backfills_nulls() {
        let mut b = RowBlockBuilder::new(0);
        b.push_row(&Row::at(1).with("a", 10i64)).unwrap();
        b.push_row(&Row::at(2).with("b", "late")).unwrap();
        let block = b.finish().unwrap();
        // Row 0 has no `b`; row 1 has no `a`.
        assert_eq!(block.cell(0, "b").unwrap(), Value::Null);
        assert_eq!(block.cell(1, "a").unwrap(), Value::Null);
        assert_eq!(block.cell(0, "a").unwrap(), Value::Int(10));
        assert_eq!(block.cell(1, "b").unwrap(), Value::from("late"));
    }

    #[test]
    fn tracks_time_bounds() {
        let mut b = RowBlockBuilder::new(99);
        for t in [50i64, 10, 70, 30] {
            b.push_row(&Row::at(t)).unwrap();
        }
        assert_eq!(b.min_time(), 10);
        assert_eq!(b.max_time(), 70);
        let block = b.finish().unwrap();
        assert_eq!(block.header().min_time, 10);
        assert_eq!(block.header().max_time, 70);
        assert_eq!(block.header().created_at, 99);
    }

    #[test]
    fn row_cap_enforced() {
        let mut b = RowBlockBuilder::new(0);
        // Use a small stand-in: we can't push 65k rows cheaply in a unit
        // test loop with strings, but ints are fast enough.
        for i in 0..MAX_ROWS_PER_BLOCK {
            b.push_row(&Row::at(i as i64)).unwrap();
        }
        assert!(b.is_full());
        assert!(matches!(b.push_row(&Row::at(0)), Err(Error::BlockFull)));
        let block = b.finish().unwrap();
        assert_eq!(block.row_count(), MAX_ROWS_PER_BLOCK);
    }

    #[test]
    fn type_conflict_rejected_without_corruption() {
        let mut b = RowBlockBuilder::new(0);
        b.push_row(&Row::at(1).with("x", 5i64)).unwrap();
        assert!(b.push_row(&Row::at(2).with("x", "string")).is_err());
        // Builder remains usable and consistent.
        b.push_row(&Row::at(3).with("x", 6i64)).unwrap();
        let block = b.finish().unwrap();
        assert_eq!(block.row_count(), 2);
    }

    /// Cells set the way a log reader sets them — a `time` cell, a name
    /// set twice, a null — build the block their `Row` builds.
    #[test]
    fn push_cells_builds_what_push_row_builds() {
        let (mut by_cells, mut by_rows) = (RowBlockBuilder::new(0), RowBlockBuilder::new(0));
        let sets: [&[(&str, Value)]; 3] = [
            &[
                ("a", Value::Int(1)),
                ("time", Value::Int(40)),
                ("a", Value::from("x")),
            ],
            &[
                ("b", Value::Double(2.5)),
                ("gone", Value::Int(3)),
                ("gone", Value::Null),
            ],
            &[("a", Value::from("y")), ("s", Value::set(["q", "p"]))],
        ];
        for (i, cells) in sets.iter().enumerate() {
            let (mut c, mut row) = (RowCells::default(), Row::at(i as i64));
            c.reset(i as i64);
            for (name, value) in cells.iter() {
                c.set(name, value.clone());
                row.set(name, value.clone());
            }
            by_cells.push_cells(&mut c).unwrap();
            by_rows.push_row(&row).unwrap();
        }
        assert_eq!(by_cells.raw_bytes(), by_rows.raw_bytes());
        let block = by_cells.finish().unwrap();
        assert_eq!(block, by_rows.finish().unwrap());
        assert_eq!(
            block.header().max_time,
            40,
            "a time cell sets the timestamp"
        );
        assert_eq!(block.cell(0, "a").unwrap(), Value::from("x"));
        assert!(block.schema().index_of("gone").is_none());
    }

    #[test]
    fn snapshot_equals_finish() {
        let mut b = RowBlockBuilder::new(7);
        for i in 0..20i64 {
            b.push_row(&Row::at(i).with("v", i * 2)).unwrap();
        }
        let snap = b.snapshot().unwrap();
        let fin = b.finish().unwrap();
        assert_eq!(snap, fin);
    }

    #[test]
    fn empty_builder_finishes() {
        let block = RowBlockBuilder::new(0).finish().unwrap();
        assert_eq!(block.row_count(), 0);
    }
}
