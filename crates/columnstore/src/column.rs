//! In-heap, decoded column data: the bridge between rows and encoded row
//! block columns.
//!
//! A [`ColumnData`] holds one column's cells for every row of a row block.
//! Rows may omit columns (§2.1), so each column carries a presence bitmap;
//! the typed value vector stores only the present cells, densely.

use crate::encoding::dictionary::StrDict;
use crate::error::{Error, Result};
use crate::types::{ColumnType, Value};

/// Dense, typed storage for the present cells of a column.
#[derive(Debug, Clone)]
pub enum ColumnValues {
    /// 64-bit integers.
    Int64(Vec<i64>),
    /// 64-bit floats.
    Double(Vec<f64>),
    /// UTF-8 strings.
    Str(Vec<String>),
    /// UTF-8 strings as a dictionary: how a column built cell by cell
    /// ([`ColumnData::new`]) keeps them, one id per cell.
    Dict(StrDict),
    /// String sets (normalized: sorted, deduplicated per row).
    StrSet(Vec<Vec<String>>),
}

/// Values are equal cell for cell: a string column is the same whether
/// it holds its strings or a dictionary of them.
impl PartialEq for ColumnValues {
    fn eq(&self, other: &ColumnValues) -> bool {
        use ColumnValues::*;
        match (self, other) {
            (Int64(a), Int64(b)) => a == b,
            (Double(a), Double(b)) => a == b,
            (Str(a), Str(b)) => a == b,
            (Dict(a), Dict(b)) => a == b,
            (Str(s), Dict(d)) | (Dict(d), Str(s)) => {
                s.len() == d.len() && s.iter().enumerate().all(|(i, v)| v == d.get(i))
            }
            (StrSet(a), StrSet(b)) => a == b,
            _ => false,
        }
    }
}

impl ColumnValues {
    /// Number of present cells.
    pub fn len(&self) -> usize {
        match self {
            ColumnValues::Int64(v) => v.len(),
            ColumnValues::Double(v) => v.len(),
            ColumnValues::Str(v) => v.len(),
            ColumnValues::Dict(d) => d.len(),
            ColumnValues::StrSet(v) => v.len(),
        }
    }

    /// True if no cells are present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column type of this storage.
    pub fn column_type(&self) -> ColumnType {
        match self {
            ColumnValues::Int64(_) => ColumnType::Int64,
            ColumnValues::Double(_) => ColumnType::Double,
            ColumnValues::Str(_) | ColumnValues::Dict(_) => ColumnType::Str,
            ColumnValues::StrSet(_) => ColumnType::StrSet,
        }
    }

    /// Storage for a column built cell by cell: strings as a dictionary.
    fn empty_for(ty: ColumnType) -> ColumnValues {
        match ty {
            ColumnType::Int64 => ColumnValues::Int64(Vec::new()),
            ColumnType::Double => ColumnValues::Double(Vec::new()),
            ColumnType::Str => ColumnValues::Dict(StrDict::default()),
            ColumnType::StrSet => ColumnValues::StrSet(Vec::new()),
        }
    }

    /// Present value `dense`, boxed.
    fn value(&self, dense: usize) -> Value {
        match self {
            ColumnValues::Int64(v) => Value::Int(v[dense]),
            ColumnValues::Double(v) => Value::Double(v[dense]),
            ColumnValues::Str(v) => Value::Str(v[dense].clone()),
            ColumnValues::Dict(d) => Value::Str(d.get(dense).to_owned()),
            ColumnValues::StrSet(v) => Value::StrSet(v[dense].clone()),
        }
    }
}

/// One column's cells across all rows of a row block: a presence bitmap
/// plus dense typed values for the present cells.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnData {
    /// Total row count (present + null).
    len: usize,
    /// One bit per row; bit set = cell present. `None` means all present.
    presence: Option<Vec<u64>>,
    /// Dense values for present cells, in row order.
    values: ColumnValues,
}

impl ColumnData {
    /// An empty column of the given type, to be built cell by cell (a
    /// string column keeps a dictionary, see [`ColumnValues::Dict`]).
    pub fn new(ty: ColumnType) -> Self {
        ColumnData {
            len: 0,
            presence: None,
            values: ColumnValues::empty_for(ty),
        }
    }

    /// Build a fully-present column from dense values.
    pub fn from_values(values: ColumnValues) -> Self {
        ColumnData {
            len: values.len(),
            presence: None,
            values,
        }
    }

    /// Rebuild from parts, validating the presence/len/values invariant.
    /// Used by the decode path.
    pub fn from_parts(
        len: usize,
        presence: Option<Vec<u64>>,
        values: ColumnValues,
    ) -> Result<Self> {
        let present = match &presence {
            None => len,
            Some(bits) => {
                if bits.len() != len.div_ceil(64) {
                    return Err(Error::Corrupt("presence bitmap length mismatch"));
                }
                // Bits past `len` in the final word must be zero.
                if !len.is_multiple_of(64) {
                    if let Some(last) = bits.last() {
                        if last >> (len % 64) != 0 {
                            return Err(Error::Corrupt("presence bitmap has bits past len"));
                        }
                    }
                }
                bits.iter().map(|w| w.count_ones() as usize).sum()
            }
        };
        if present != values.len() {
            return Err(Error::Corrupt("present-cell count does not match values"));
        }
        Ok(ColumnData {
            len,
            presence,
            values,
        })
    }

    /// Total row count, including nulls.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the column covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of present (non-null) cells.
    pub fn present_count(&self) -> usize {
        self.values.len()
    }

    /// The column's type.
    pub fn column_type(&self) -> ColumnType {
        self.values.column_type()
    }

    /// The presence bitmap, if any row is null.
    pub fn presence(&self) -> Option<&[u64]> {
        self.presence.as_deref()
    }

    /// The dense present values.
    pub fn values(&self) -> &ColumnValues {
        &self.values
    }

    /// Append a present value. Errors on type mismatch.
    pub fn push(&mut self, value: Value) -> Result<()> {
        self.push_ref(&value)
    }

    /// [`Self::push`] of a borrowed value: a dictionary copies a string
    /// only when it meets it first.
    pub fn push_ref(&mut self, value: &Value) -> Result<()> {
        match (&mut self.values, value) {
            (_, Value::Null) => {
                self.push_null();
                return Ok(());
            }
            (ColumnValues::Int64(v), &Value::Int(x)) => v.push(x),
            (ColumnValues::Double(v), &Value::Double(x)) => v.push(x),
            (ColumnValues::Dict(d), Value::Str(x)) => d.push(x),
            (ColumnValues::Str(v), Value::Str(x)) => v.push(x.clone()),
            (ColumnValues::StrSet(v), Value::StrSet(x)) => v.push(x.clone()),
            (vals, other) => {
                return Err(Error::TypeMismatch {
                    column: String::new(),
                    expected: vals.column_type().name(),
                    found: other.type_name(),
                })
            }
        }
        if let Some(bits) = &mut self.presence {
            let needed = (self.len + 1).div_ceil(64);
            if bits.len() < needed {
                bits.resize(needed, 0);
            }
            set_bit(bits, self.len);
        }
        self.len += 1;
        Ok(())
    }

    /// Keep the first `len` rows (no-op past the end). A bitmap left with
    /// every row present goes, as if no null had been pushed.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        let present = match &mut self.presence {
            None => len,
            Some(bits) => {
                let present = rank(bits, len);
                bits.truncate(len.div_ceil(64));
                if !len.is_multiple_of(64) {
                    if let Some(last) = bits.last_mut() {
                        *last &= (1u64 << (len % 64)) - 1;
                    }
                }
                present
            }
        };
        if present == len {
            self.presence = None;
        }
        match &mut self.values {
            ColumnValues::Int64(v) => v.truncate(present),
            ColumnValues::Double(v) => v.truncate(present),
            ColumnValues::Str(v) => v.truncate(present),
            ColumnValues::Dict(d) => d.truncate(present),
            ColumnValues::StrSet(v) => v.truncate(present),
        }
        self.len = len;
    }

    /// Append a null cell.
    pub fn push_null(&mut self) {
        let bits = self.presence.get_or_insert_with(|| {
            // All rows so far were present: materialize a full bitmap.
            let mut bits = vec![0u64; self.len.div_ceil(64).max(1)];
            for i in 0..self.len {
                set_bit(&mut bits, i);
            }
            bits
        });
        let needed = (self.len + 1).div_ceil(64);
        if bits.len() < needed {
            bits.resize(needed, 0);
        }
        // Bit stays clear for a null.
        self.len += 1;
    }

    /// The cell at row `row`, or `Value::Null` if absent.
    pub fn get(&self, row: usize) -> Value {
        assert!(row < self.len, "row {row} out of range (len {})", self.len);
        let dense_idx = match &self.presence {
            None => row,
            Some(bits) => {
                if !get_bit(bits, row) {
                    return Value::Null;
                }
                rank(bits, row)
            }
        };
        self.values.value(dense_idx)
    }

    /// Iterate every cell, nulls included, in row order.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        self.iter_from(0)
    }

    /// Iterate the cells of rows `from..`, nulls included, in row order:
    /// one rank, then a running count of present cells.
    pub fn iter_from(&self, from: usize) -> impl Iterator<Item = Value> + '_ {
        let from = from.min(self.len);
        let mut dense = self
            .presence
            .as_deref()
            .map_or(from, |bits| rank(bits, from));
        (from..self.len).map(move |row| match &self.presence {
            Some(bits) if !get_bit(bits, row) => Value::Null,
            _ => {
                dense += 1;
                self.values.value(dense - 1)
            }
        })
    }

    /// Approximate heap footprint of the decoded column.
    pub fn heap_size(&self) -> usize {
        let presence = self.presence.as_ref().map_or(0, |b| b.len() * 8);
        let values = match &self.values {
            ColumnValues::Int64(v) => v.len() * 8,
            ColumnValues::Double(v) => v.len() * 8,
            ColumnValues::Str(v) => v.iter().map(|s| s.len() + 24).sum(),
            ColumnValues::Dict(d) => d.heap_size(),
            ColumnValues::StrSet(v) => v
                .iter()
                .map(|set| set.iter().map(|s| s.len() + 24).sum::<usize>() + 24)
                .sum(),
        };
        presence + values + 48
    }
}

#[inline]
fn set_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1u64 << (i % 64);
}

#[inline]
fn get_bit(bits: &[u64], i: usize) -> bool {
    bits[i / 64] & (1u64 << (i % 64)) != 0
}

/// Number of set bits strictly before position `i` (`i` may be the
/// position just past the bitmap).
fn rank(bits: &[u64], i: usize) -> usize {
    let word = i / 64;
    let mut count = 0usize;
    for w in &bits[..word] {
        count += w.count_ones() as usize;
    }
    let mask = (1u64 << (i % 64)) - 1;
    count
        + bits
            .get(word)
            .map_or(0, |w| (w & mask).count_ones() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Truncating to `n` rows leaves exactly the column the first `n`
    /// pushes build, at every cut, bitmap included.
    #[test]
    fn truncate_matches_the_shorter_column() {
        let cells: Vec<Value> = (0..150i64)
            .map(|i| match i {
                70 | 71 | 130 => Value::Null,
                i => Value::Str(format!("s{i}")),
            })
            .collect();
        let build = |n: usize| {
            let mut c = ColumnData::new(ColumnType::Str);
            for v in &cells[..n] {
                c.push(v.clone()).unwrap();
            }
            c
        };
        let full = build(cells.len());
        for n in 0..=cells.len() {
            let mut cut = full.clone();
            cut.truncate(n);
            assert_eq!(cut, build(n), "truncate to {n}");
        }
    }

    #[test]
    fn push_and_get_fully_present() {
        let mut c = ColumnData::new(ColumnType::Int64);
        for i in 0..100 {
            c.push(Value::Int(i)).unwrap();
        }
        assert_eq!(c.len(), 100);
        assert_eq!(c.present_count(), 100);
        assert!(c.presence().is_none());
        assert_eq!(c.get(42), Value::Int(42));
    }

    #[test]
    fn nulls_interleave() {
        let mut c = ColumnData::new(ColumnType::Str);
        c.push(Value::from("a")).unwrap();
        c.push_null();
        c.push(Value::from("b")).unwrap();
        c.push(Value::Null).unwrap(); // Null routed through push
        c.push(Value::from("c")).unwrap();
        assert_eq!(c.len(), 5);
        assert_eq!(c.present_count(), 3);
        let cells: Vec<Value> = c.iter().collect();
        assert_eq!(
            cells,
            vec![
                Value::from("a"),
                Value::Null,
                Value::from("b"),
                Value::Null,
                Value::from("c")
            ]
        );
    }

    #[test]
    fn null_first_then_values() {
        let mut c = ColumnData::new(ColumnType::Double);
        c.push_null();
        c.push(Value::Double(1.5)).unwrap();
        assert_eq!(c.get(0), Value::Null);
        assert_eq!(c.get(1), Value::Double(1.5));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut c = ColumnData::new(ColumnType::Int64);
        assert!(c.push(Value::from("oops")).is_err());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn bitmap_crosses_word_boundaries() {
        let mut c = ColumnData::new(ColumnType::Int64);
        for i in 0..200 {
            if i % 3 == 0 {
                c.push_null();
            } else {
                c.push(Value::Int(i)).unwrap();
            }
        }
        for i in 0..200 {
            if i % 3 == 0 {
                assert_eq!(c.get(i as usize), Value::Null);
            } else {
                assert_eq!(c.get(i as usize), Value::Int(i));
            }
        }
    }

    #[test]
    fn from_parts_validates() {
        // Bitmap says 1 present, but two values supplied.
        let r = ColumnData::from_parts(2, Some(vec![0b01]), ColumnValues::Int64(vec![1, 2]));
        assert!(r.is_err());
        // Stray bit past len.
        let r = ColumnData::from_parts(2, Some(vec![0b111]), ColumnValues::Int64(vec![1, 2]));
        assert!(r.is_err());
        // Wrong bitmap word count.
        let r = ColumnData::from_parts(2, Some(vec![0b11, 0]), ColumnValues::Int64(vec![1, 2]));
        assert!(r.is_err());
        // Valid.
        let c = ColumnData::from_parts(2, Some(vec![0b10]), ColumnValues::Int64(vec![7])).unwrap();
        assert_eq!(c.get(0), Value::Null);
        assert_eq!(c.get(1), Value::Int(7));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        ColumnData::new(ColumnType::Int64).get(0);
    }
}
