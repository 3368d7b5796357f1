//! Accumulates arriving rows into a columnar [`RowBlock`].
//!
//! Rows that arrive consecutively go into the same block until it reaches
//! 65,536 rows or 1 GB pre-compression (§2.1). The builder grows its
//! schema dynamically: a row introducing a new column back-fills nulls for
//! the rows already buffered, and rows missing a known column get a null —
//! this is how "different row blocks may have different schemas" while each
//! individual block stays rectangular.
//!
//! The builder is also the open block's only form: a query reads its
//! columns where they lie ([`RowBlockBuilder::view`]), a string
//! column as the dictionary it keeps as rows arrive, and the seal encodes
//! that dictionary as it stands.

use std::borrow::Borrow;

use crate::column::{ColumnData, ColumnValues};
use crate::error::{Error, Result};
use crate::rbc::RowBlockColumn;
use crate::row::{Row, RowCells};
use crate::rowblock::{RowBlock, RowBlockHeader};
use crate::scan::ColumnView;
use crate::schema::Schema;
use crate::types::{ColumnType, Value};
use crate::zone::{ZoneMap, ZoneStats};
use crate::{MAX_BLOCK_BYTES, MAX_ROWS_PER_BLOCK, TIME_COLUMN};

/// Where a builder stood before a batch: what [`RowBlockBuilder::rollback`]
/// returns it to.
#[derive(Debug, Clone, Copy)]
pub struct BuilderMark {
    rows: usize,
    columns: usize,
    raw_bytes: usize,
}

/// The running bounds of one column's present integers or non-NaN
/// doubles, kept as rows arrive: the zone statistics its seal records,
/// which a query's zone test over the open block reads without a pass
/// over the cells.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Bounds {
    /// No integer or non-NaN double yet (a string or set column never
    /// has one).
    Empty,
    Int(i64, i64),
    Double(f64, f64),
}

impl Bounds {
    /// Widen the bounds to `value`; NaN, like any non-number, leaves them.
    #[inline]
    fn note(&mut self, value: &Value) {
        match (self, value) {
            (Bounds::Int(lo, hi), &Value::Int(x)) => (*lo, *hi) = ((*lo).min(x), (*hi).max(x)),
            (Bounds::Double(lo, hi), &Value::Double(x)) if !x.is_nan() => {
                (*lo, *hi) = (lo.min(x), hi.max(x))
            }
            (bounds @ Bounds::Empty, &Value::Int(x)) => *bounds = Bounds::Int(x, x),
            (bounds @ Bounds::Empty, &Value::Double(x)) if !x.is_nan() => {
                *bounds = Bounds::Double(x, x)
            }
            _ => {}
        }
    }

    /// The bounds of `col`'s cells, noted in row order as the pushes did.
    fn of(col: &ColumnData) -> Bounds {
        let mut bounds = Bounds::Empty;
        match col.values() {
            ColumnValues::Int64(v) => v.iter().for_each(|&x| bounds.note(&Value::Int(x))),
            ColumnValues::Double(v) => v.iter().for_each(|&x| bounds.note(&Value::Double(x))),
            _ => {}
        }
        bounds
    }
}

/// Mutable accumulator for one in-progress row block.
#[derive(Debug, Clone)]
pub struct RowBlockBuilder {
    schema: Schema,
    columns: Vec<ColumnData>,
    /// Per column, the bounds of its numbers; the time column's are the
    /// block's time range.
    bounds: Vec<Bounds>,
    row_count: usize,
    /// Running pre-compression size estimate, checked against the 1 GB cap.
    raw_bytes: usize,
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
            bounds: vec![Bounds::Empty],
            row_count: 0,
            raw_bytes: 0,
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
        match self.bounds[0] {
            Bounds::Int(min, _) => min,
            _ => i64::MAX,
        }
    }

    /// Maximum row timestamp buffered so far (meaningless while empty).
    pub fn max_time(&self) -> i64 {
        match self.bounds[0] {
            Bounds::Int(_, max) => max,
            _ => i64::MIN,
        }
    }

    /// The columns buffered so far; `time` first.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The cells of column `name` (`None` if no row named it). The time
    /// column is always fully present.
    pub fn column(&self, name: &str) -> Option<&ColumnData> {
        self.schema.index_of(name).map(|i| &self.columns[i])
    }

    /// A scan view of column `name`'s cells where they lie (`None` if no
    /// row named it), an integer column carrying the bounds kept as rows
    /// arrived (`ColumnView::in_place`).
    pub fn view(&self, name: &str) -> Option<ColumnView<'_>> {
        let i = self.schema.index_of(name)?;
        let range = match self.bounds[i] {
            Bounds::Int(min, max) => Some((min, max)),
            _ => None,
        };
        Some(ColumnView::in_place(&self.columns[i], range))
    }

    /// The zone statistics column `name`'s seal would record (`None` if
    /// no row named it, or for a string-set column with a present cell):
    /// the bounds kept as rows arrived, or a string dictionary's entries.
    pub fn zone(&self, name: &str) -> Option<ZoneStats> {
        self.schema.index_of(name).and_then(|i| self.zone_at(i))
    }

    fn zone_at(&self, i: usize) -> Option<ZoneStats> {
        match self.bounds[i] {
            Bounds::Int(min, max) => Some(ZoneStats::Int { min, max }),
            Bounds::Double(min, max) => Some(ZoneStats::Double { min, max }),
            // No number, or not a number column: read off the cells,
            // which for a string column means its dictionary entries.
            Bounds::Empty => ZoneStats::of(&self.columns[i]),
        }
    }

    /// Rows `from..` as they were pushed (a null cell is an absent column):
    /// what a log that lost them appends again.
    pub fn rows_from(&self, from: usize) -> Vec<Row> {
        let from = from.min(self.row_count);
        let mut rows: Vec<Row> = self.columns[0]
            .iter_from(from)
            .map(|t| Row::at(t.as_int().expect("the time column is fully present")))
            .collect();
        for ((name, _), col) in self.schema.iter().zip(&self.columns).skip(1) {
            for (row, value) in rows.iter_mut().zip(col.iter_from(from)) {
                if !value.is_null() {
                    row.set(name, value);
                }
            }
        }
        rows
    }

    /// Append one row. Fails with [`Error::BlockFull`] when the caps are
    /// hit — the caller (the table) seals this block and starts a new one.
    /// The same push as [`Self::push_cells`], over the row's values: a
    /// string is copied only when its column's dictionary meets it first.
    pub fn push_row(&mut self, row: &Row) -> Result<()> {
        self.grow(row.columns())?;
        self.fill(row.time(), row.heap_size(), row.columns().map(|(_, v)| v));
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
        self.bounds.push(Bounds::Empty);
    }

    /// Where the builder stands, for [`Self::rollback`].
    pub fn mark(&self) -> BuilderMark {
        BuilderMark {
            rows: self.row_count,
            columns: self.columns.len(),
            raw_bytes: self.raw_bytes,
        }
    }

    /// Undo every push since `mark`: drop the rows, and the columns they
    /// added, as if the pushes never happened — a string column's
    /// dictionary keeps only the values left.
    pub fn rollback(&mut self, mark: BuilderMark) {
        self.schema.truncate(mark.columns);
        self.columns.truncate(mark.columns);
        for col in &mut self.columns {
            col.truncate(mark.rows);
        }
        self.bounds = self.columns.iter().map(Bounds::of).collect();
        self.row_count = mark.rows;
        self.raw_bytes = mark.raw_bytes;
    }

    /// The second half: push the time and each value into the column
    /// [`Self::grow`] noted for it, then a null into every column the row
    /// lacks.
    fn fill(
        &mut self,
        time: i64,
        raw_bytes: usize,
        values: impl Iterator<Item = impl Borrow<Value>>,
    ) {
        let typed = "grow matched every cell's type to its column";
        self.bounds[0].note(&Value::Int(time));
        self.columns[0].push(Value::Int(time)).expect(typed);
        for (&idx, value) in self.slots.iter().zip(values) {
            self.bounds[idx].note(value.borrow());
            self.columns[idx].push_ref(value.borrow()).expect(typed);
        }
        self.row_count += 1;
        for col in &mut self.columns[1..] {
            if col.len() < self.row_count {
                col.push_null();
            }
        }
        self.raw_bytes += raw_bytes;
    }

    /// Seal the builder into an immutable, encoded [`RowBlock`]: a string
    /// column is written from the dictionary it kept, in the bytes
    /// [`RowBlockColumn::encode`] makes of the same cells.
    pub fn finish(self) -> Result<RowBlock> {
        let header = RowBlockHeader {
            size_bytes: 0, // recomputed by from_parts
            row_count: self.row_count as u32,
            min_time: if self.row_count == 0 {
                0
            } else {
                self.min_time()
            },
            max_time: if self.row_count == 0 {
                0
            } else {
                self.max_time()
            },
            created_at: self.created_at,
        };
        let zones: ZoneMap = (0..self.columns.len())
            .filter_map(|i| Some((self.schema.column(i)?.0.to_owned(), self.zone_at(i)?)))
            .collect();
        let columns = self
            .columns
            .iter()
            .map(RowBlockColumn::encode)
            .collect::<Result<Vec<_>>>()?;
        Ok(RowBlock::from_parts(header, self.schema, columns)?.with_zones(Some(zones)))
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

    /// A rejected batch rolls a string column's dictionary back to the
    /// values left — new entries, a column the batch added, all gone —
    /// and the seal writes each column in the bytes `RowBlockColumn::encode`
    /// makes of the same cells kept as plain strings.
    #[test]
    fn a_rolled_back_dictionary_seals_as_encode_writes_its_cells() {
        use crate::column::ColumnValues;
        let mut b = RowBlockBuilder::new(0);
        for i in 0..300i64 {
            let mut row = Row::at(i);
            if i % 4 != 1 {
                row.set("s", format!("v{}", (i * 7) % 23));
            }
            if i >= 150 && i % 3 == 0 {
                row.set("late", format!("l{}", i % 5));
            }
            b.push_row(&row).unwrap();
        }
        let mark = b.mark();
        for i in 300..340i64 {
            let row = Row::at(i).with("s", format!("new{i}")).with("gone", "x");
            b.push_row(&row).unwrap();
        }
        assert!(b.push_row(&Row::at(0).with("s", 1i64)).is_err());
        b.rollback(mark);
        assert_eq!(b.row_count(), 300);
        assert!(b.column("gone").is_none());

        let mut plain = Vec::new();
        for (name, ty) in b.schema().iter() {
            let col = b.column(name).unwrap();
            let mut want = match ty {
                ColumnType::Str => ColumnData::from_values(ColumnValues::Str(Vec::new())),
                _ => ColumnData::new(ty),
            };
            col.iter().for_each(|v| want.push(v).unwrap());
            if let ColumnValues::Dict(dict) = col.values() {
                let ColumnValues::Str(cells) = want.values() else {
                    unreachable!("built plain above")
                };
                let mut distinct: Vec<&String> = Vec::new();
                for v in cells {
                    if !distinct.contains(&v) {
                        distinct.push(v);
                    }
                }
                assert_eq!(
                    dict.entries().iter().collect::<Vec<_>>(),
                    distinct,
                    "{name}"
                );
            }
            plain.push((name.to_owned(), RowBlockColumn::encode(&want).unwrap()));
        }
        assert!(matches!(
            b.column("late").unwrap().values(),
            ColumnValues::Dict(_)
        ));
        let block = b.finish().unwrap();
        for (name, want) in plain {
            assert_eq!(
                block.column(&name).unwrap().as_bytes(),
                want.as_bytes(),
                "{name}"
            );
        }
    }

    /// The bounds kept as rows arrive are the statistics `ZoneStats::of`
    /// reads off the cells — nulls, NaNs, a NaN-only and an all-null
    /// column, strings, sets — and stay so across a rollback and a seal.
    #[test]
    fn kept_bounds_are_the_zone_stats_of_the_cells() {
        let check = |b: &RowBlockBuilder| {
            for (name, _) in b.schema().iter() {
                let want = ZoneStats::of(b.column(name).unwrap());
                assert_eq!(b.zone(name), want, "{name}");
            }
        };
        let mut b = RowBlockBuilder::new(0);
        for i in 0..200i64 {
            let mut row = Row::at(500 - i).with("n", (i * 37) % 101 - 50);
            row.set(
                "d",
                if i % 5 == 0 {
                    f64::NAN
                } else {
                    i as f64 / -3.0
                },
            );
            row.set("nan", f64::NAN);
            if i % 2 == 0 {
                row.set("s", format!("k{}", i % 9));
                row.set("tags", Value::set(["a"]));
            }
            b.push_row(&row).unwrap();
        }
        b.push_row(&Row::at(9).with("empty", Value::Null)).unwrap();
        check(&b);
        let mark = b.mark();
        b.push_row(&Row::at(-1000).with("n", 1_000_000i64).with("d", 1e9))
            .unwrap();
        assert_eq!(
            b.zone("n"),
            Some(ZoneStats::Int {
                min: -50,
                max: 1_000_000
            })
        );
        assert!(b.push_row(&Row::at(0).with("n", "x")).is_err());
        b.rollback(mark);
        check(&b);
        assert_eq!((b.min_time(), b.max_time()), (9, 500));
        let zones: Vec<_> = b
            .schema()
            .iter()
            .filter_map(|(name, _)| Some((name.to_owned(), b.zone(name)?)))
            .collect();
        let block = b.finish().unwrap();
        assert_eq!(block.zones().unwrap().entries(), &zones[..]);
    }

    /// `rows_from` hands back the rows pushed, from any row on: nulls as
    /// absent columns, a column that appeared mid-block only where set.
    #[test]
    fn rows_from_returns_the_rows_pushed() {
        let rows: Vec<Row> = (0..200i64)
            .map(|i| {
                let mut row = Row::at(1000 - i).with("n", i);
                if i % 3 == 0 {
                    row.set("s", format!("s{}", i % 4));
                }
                if i >= 70 {
                    row.set("d", i as f64 / 8.0);
                }
                row
            })
            .collect();
        let mut b = RowBlockBuilder::new(0);
        for row in &rows {
            b.push_row(row).unwrap();
        }
        for from in [0, 1, 63, 64, 70, 128, 199, 200, 500] {
            assert_eq!(b.rows_from(from), rows[from.min(200)..], "from {from}");
        }
    }

    #[test]
    fn empty_builder_finishes() {
        let block = RowBlockBuilder::new(0).finish().unwrap();
        assert_eq!(block.row_count(), 0);
    }
}
