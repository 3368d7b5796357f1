//! Rows as they arrive from the ingestion pipeline.
//!
//! A [`Row`] is a set of named values plus the required unix `time` column
//! (§2.1). Rows are the unit the tailers batch and send to leaf servers;
//! the leaf turns batches of rows into columnar row blocks.

use std::borrow::Borrow;

use crate::types::Value;
use crate::TIME_COLUMN;

/// One event row: a timestamp plus named column values.
#[derive(Debug, Clone)]
pub struct Row {
    time: i64,
    columns: Vec<(String, Value)>,
}

/// Rows are equal when they carry the same timestamp and the same named
/// values, regardless of the order the columns were set — column order is
/// an artifact of construction, not part of the row's identity (the
/// columnar store reorders them by schema anyway).
impl PartialEq for Row {
    fn eq(&self, other: &Row) -> bool {
        if self.time != other.time || self.columns.len() != other.columns.len() {
            return false;
        }
        self.columns
            .iter()
            .all(|(name, value)| other.get(name) == Some(value))
    }
}

impl Row {
    /// Create a row with the required timestamp and no other columns.
    pub fn at(time: i64) -> Self {
        Row {
            time,
            columns: Vec::new(),
        }
    }

    /// Builder-style: attach a named value. Setting `time` here overrides
    /// the timestamp. Nulls are dropped (an absent column is a null).
    pub fn with(mut self, name: &str, value: impl Into<Value>) -> Self {
        self.set(name, value);
        self
    }

    /// Attach a named value in place: see [`set_cell`] for the rules.
    pub fn set(&mut self, name: &str, value: impl Into<Value>) {
        set_cell(
            &mut self.time,
            &mut self.columns,
            name,
            value.into(),
            || name.to_owned(),
        );
    }

    /// The row's event timestamp (unix seconds).
    pub fn time(&self) -> i64 {
        self.time
    }

    /// Look up a column value; `time` resolves to the timestamp.
    pub fn get(&self, name: &str) -> Option<&Value> {
        if name == TIME_COLUMN {
            return None; // use `time()`; the timestamp is not stored as a cell
        }
        self.columns.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Iterate over the non-time columns.
    pub fn columns(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.columns.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Number of non-time columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Approximate in-memory size of the row, used for the 1 GB
    /// pre-compression block cap and batch sizing.
    pub fn heap_size(&self) -> usize {
        heap_size(&self.columns)
    }
}

/// A row whose column names borrow from the bytes it was decoded from:
/// what a log reader hands the builder ([`crate::RowBlockBuilder::push_cells`])
/// without building a [`Row`]. [`Self::set`] applies [`Row::set`]'s rules,
/// so a `RowCells` and a `Row` fed the same cells hold the same columns.
#[derive(Debug, Clone, Default)]
pub struct RowCells<'a> {
    time: i64,
    columns: Vec<(&'a str, Value)>,
}

impl<'a> RowCells<'a> {
    /// Empty the cells for the next row, at timestamp `time`; the column
    /// buffer is kept for reuse.
    pub fn reset(&mut self, time: i64) {
        self.time = time;
        self.columns.clear();
    }

    /// Attach a named value: see [`set_cell`] for the rules.
    pub fn set(&mut self, name: &'a str, value: Value) {
        set_cell(&mut self.time, &mut self.columns, name, value, || name);
    }

    /// The row's event timestamp.
    pub fn time(&self) -> i64 {
        self.time
    }

    /// The non-time columns, in first-set order.
    pub fn columns(&self) -> impl Iterator<Item = (&'a str, &Value)> + '_ {
        self.columns.iter().map(|(n, v)| (*n, v))
    }

    /// [`Row::heap_size`] of the same row.
    pub fn heap_size(&self) -> usize {
        heap_size(&self.columns)
    }

    /// Move the values out, in [`Self::columns`] order, leaving no columns.
    pub(crate) fn drain_values(&mut self) -> impl Iterator<Item = Value> + '_ {
        self.columns.drain(..).map(|(_, v)| v)
    }
}

/// The one definition of how a named value lands in a row, for [`Row`]
/// and [`RowCells`] alike: a `time` cell overrides the timestamp (a
/// non-integer one is dropped), a null removes the column, and a name set
/// twice keeps its first position and its last value. `owned` makes the
/// stored name when the column is new.
fn set_cell<N: Borrow<str>>(
    time: &mut i64,
    columns: &mut Vec<(N, Value)>,
    name: &str,
    value: Value,
    owned: impl FnOnce() -> N,
) {
    if name == TIME_COLUMN {
        if let Value::Int(t) = value {
            *time = t;
        }
        return;
    }
    if value.is_null() {
        columns.retain(|(n, _)| n.borrow() != name);
        return;
    }
    if let Some(slot) = columns.iter_mut().find(|(n, _)| n.borrow() == name) {
        slot.1 = value;
    } else {
        columns.push((owned(), value));
    }
}

fn heap_size<N: Borrow<str>>(columns: &[(N, Value)]) -> usize {
    8 + columns
        .iter()
        .map(|(n, v)| n.borrow().len() + v.heap_size())
        .sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_and_overwrites() {
        let r = Row::at(100)
            .with("sev", "error")
            .with("code", 500i64)
            .with("sev", "warn");
        assert_eq!(r.time(), 100);
        assert_eq!(r.get("sev"), Some(&Value::from("warn")));
        assert_eq!(r.get("code"), Some(&Value::Int(500)));
        assert_eq!(r.num_columns(), 2);
    }

    #[test]
    fn time_column_routes_to_timestamp() {
        let r = Row::at(1).with(TIME_COLUMN, 42i64);
        assert_eq!(r.time(), 42);
        assert_eq!(r.num_columns(), 0);
    }

    #[test]
    fn null_removes_column() {
        let mut r = Row::at(0).with("x", 1i64);
        r.set("x", Value::Null);
        assert_eq!(r.get("x"), None);
        // Setting a null on an absent column is a no-op.
        r.set("y", Value::Null);
        assert_eq!(r.num_columns(), 0);
    }

    #[test]
    fn heap_size_counts_names_and_values() {
        let small = Row::at(0).with("a", 1i64);
        let big = Row::at(0).with("a", 1i64).with("blob", "x".repeat(100));
        assert!(big.heap_size() > small.heap_size() + 100);
    }

    #[test]
    fn equality_ignores_column_order() {
        let a = Row::at(1).with("x", 1i64).with("y", "s");
        let b = Row::at(1).with("y", "s").with("x", 1i64);
        assert_eq!(a, b);
        let c = Row::at(1).with("x", 1i64);
        assert_ne!(a, c); // different column sets
        let d = Row::at(2).with("x", 1i64).with("y", "s");
        assert_ne!(a, d); // different time
        let e = Row::at(1).with("x", 2i64).with("y", "s");
        assert_ne!(a, e); // different value
    }
}
