//! Row block schemas: ordered `(name, type)` pairs (Figure 2).
//!
//! A schema describes the columns present in one row block. Different row
//! blocks of the same table may have different schemas, "although they
//! usually have a large overlap in their columns" (§2.1). Schemas serialize
//! into both the heap and shared-memory row block layouts.

use crate::error::{Error, Result};
use crate::row::Row;
use crate::types::ColumnType;

/// An ordered set of named, typed columns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<(String, ColumnType)>,
}

impl Schema {
    /// An empty schema.
    pub fn new() -> Self {
        Schema {
            columns: Vec::new(),
        }
    }

    /// Build a schema from `(name, type)` pairs.
    pub fn from_columns<I, S>(cols: I) -> Self
    where
        I: IntoIterator<Item = (S, ColumnType)>,
        S: Into<String>,
    {
        Schema {
            columns: cols.into_iter().map(|(n, t)| (n.into(), t)).collect(),
        }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Position of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|(n, _)| n == name)
    }

    /// Type of a column by name.
    pub fn type_of(&self, name: &str) -> Option<ColumnType> {
        self.columns
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| *t)
    }

    /// Column `(name, type)` at an index.
    pub fn column(&self, idx: usize) -> Option<(&str, ColumnType)> {
        self.columns.get(idx).map(|(n, t)| (n.as_str(), *t))
    }

    /// Iterate over `(name, type)` pairs in column order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, ColumnType)> {
        self.columns.iter().map(|(n, t)| (n.as_str(), *t))
    }

    /// Add a column; returns its index. If a column with this name already
    /// exists with the same type, returns the existing index.
    pub fn add_column(&mut self, name: &str, ty: ColumnType) -> Result<usize> {
        if let Some(idx) = self.index_of(name) {
            let existing = self.columns[idx].1;
            if existing != ty {
                return Err(Error::TypeMismatch {
                    column: name.to_owned(),
                    expected: existing.name(),
                    found: ty.name(),
                });
            }
            return Ok(idx);
        }
        self.columns.push((name.to_owned(), ty));
        Ok(self.columns.len() - 1)
    }

    /// Check that `rows` can all join a builder of this schema, without
    /// changing it: every cell's type must match its column's here, or,
    /// for a column this schema lacks, the type an earlier row gave it.
    pub fn check_rows(&self, rows: &[Row]) -> Result<()> {
        // Rows mostly repeat one shape: the previous row's cells, in
        // order, settle most cells with one name compare.
        let mut last: Vec<(&str, ColumnType)> = Vec::new();
        let mut added: Vec<(&str, ColumnType)> = Vec::new();
        for row in rows {
            for (i, (name, value)) in row.columns().enumerate() {
                let ty = value
                    .column_type()
                    .expect("rows and cells never hold a null");
                let known = match last.get(i) {
                    Some(&(n, t)) if n == name => Some(t),
                    _ => self.type_of(name).or_else(|| {
                        let found = added.iter().find(|(n, _)| *n == name);
                        found.map(|&(_, t)| t)
                    }),
                };
                match known {
                    Some(expected) if expected != ty => {
                        return Err(Error::TypeMismatch {
                            column: name.to_owned(),
                            expected: expected.name(),
                            found: ty.name(),
                        })
                    }
                    Some(_) => {}
                    None => added.push((name, ty)),
                }
                match last.get_mut(i) {
                    Some(slot) => *slot = (name, ty),
                    None => last.push((name, ty)),
                }
            }
        }
        Ok(())
    }

    /// Keep the first `len` columns.
    pub fn truncate(&mut self, len: usize) {
        self.columns.truncate(len);
    }

    /// Serialize into `out`. Format: u32 column count, then per column a
    /// u16 name length, the UTF-8 name bytes, and one type-code byte.
    pub fn serialize(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.columns.len() as u32).to_le_bytes());
        for (name, ty) in &self.columns {
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.push(ty.code());
        }
    }

    /// Parse a schema from `buf` starting at `pos`; returns the schema and
    /// the position just past it.
    pub fn deserialize(buf: &[u8], pos: usize) -> Result<(Schema, usize)> {
        let mut p = pos;
        let take = |p: &mut usize, n: usize| -> Result<&[u8]> {
            if *p + n > buf.len() {
                return Err(Error::Truncated {
                    needed: *p + n,
                    available: buf.len(),
                });
            }
            let s = &buf[*p..*p + n];
            *p += n;
            Ok(s)
        };
        let count = u32::from_le_bytes(take(&mut p, 4)?.try_into().unwrap()) as usize;
        // Guard against absurd counts from corrupt buffers before allocating.
        if count > buf.len() {
            return Err(Error::Corrupt("schema column count exceeds buffer size"));
        }
        let mut columns = Vec::with_capacity(count);
        for _ in 0..count {
            let name_len = u16::from_le_bytes(take(&mut p, 2)?.try_into().unwrap()) as usize;
            let name_bytes = take(&mut p, name_len)?;
            let name = std::str::from_utf8(name_bytes)
                .map_err(|_| Error::Corrupt("schema column name is not UTF-8"))?
                .to_owned();
            let code = take(&mut p, 1)?[0];
            let ty = ColumnType::from_code(code)
                .ok_or(Error::Corrupt("unknown column type code in schema"))?;
            columns.push((name, ty));
        }
        Ok((Schema { columns }, p))
    }

    /// Serialized size in bytes, used when presizing buffers.
    pub fn serialized_size(&self) -> usize {
        4 + self
            .columns
            .iter()
            .map(|(n, _)| 2 + n.len() + 1)
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::from_columns([
            ("time", ColumnType::Int64),
            ("severity", ColumnType::Str),
            ("latency_ms", ColumnType::Double),
        ])
    }

    #[test]
    fn lookup_by_name() {
        let s = sample();
        assert_eq!(s.index_of("severity"), Some(1));
        assert_eq!(s.type_of("latency_ms"), Some(ColumnType::Double));
        assert_eq!(s.index_of("absent"), None);
        assert_eq!(s.column(0), Some(("time", ColumnType::Int64)));
    }

    #[test]
    fn add_column_dedupes_and_checks_types() {
        let mut s = sample();
        assert_eq!(s.add_column("severity", ColumnType::Str).unwrap(), 1);
        assert_eq!(s.len(), 3);
        assert!(s.add_column("severity", ColumnType::Int64).is_err());
        assert_eq!(s.add_column("host", ColumnType::Str).unwrap(), 3);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn serialize_round_trip() {
        let s = sample();
        let mut buf = vec![0xAB; 3]; // leading garbage to exercise `pos`
        let start = buf.len();
        s.serialize(&mut buf);
        assert_eq!(buf.len() - start, s.serialized_size());
        let (parsed, end) = Schema::deserialize(&buf, start).unwrap();
        assert_eq!(parsed, s);
        assert_eq!(end, buf.len());
    }

    #[test]
    fn deserialize_rejects_truncation() {
        let s = sample();
        let mut buf = Vec::new();
        s.serialize(&mut buf);
        for cut in [0, 3, 5, buf.len() - 1] {
            assert!(Schema::deserialize(&buf[..cut], 0).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn deserialize_rejects_bad_type_code() {
        let mut buf = Vec::new();
        sample().serialize(&mut buf);
        let last = buf.len() - 1;
        buf[last] = 0xFF; // clobber final type code
        assert!(Schema::deserialize(&buf, 0).is_err());
    }

    #[test]
    fn empty_schema_round_trips() {
        let s = Schema::new();
        let mut buf = Vec::new();
        s.serialize(&mut buf);
        let (parsed, end) = Schema::deserialize(&buf, 0).unwrap();
        assert!(parsed.is_empty());
        assert_eq!(end, 4);
    }
}
