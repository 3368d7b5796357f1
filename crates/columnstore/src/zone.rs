//! Per-block zone maps: min/max statistics per column, computed when a
//! block is sealed and used by the query planner to prune blocks that the
//! time-range check alone cannot eliminate.
//!
//! Zone maps are derived metadata: they are not part of the v1 row-block
//! image (so serialized images are unchanged) and blocks recovered from
//! sources that never carried them simply run without pruning. The leaf's
//! v2 shared-memory framing persists them as a SKIPPABLE TLV chunk so the
//! fast restart path keeps pruning while old readers skip the chunk.

use crate::column::{ColumnData, ColumnValues};
use crate::encoding::varint;
use crate::error::{Error, Result};

/// Statistics for one column of one block.
///
/// `AllNull` means the column has no cell a filter could ever match: every
/// row is null (or, for doubles, NaN — which no comparison matches either).
#[derive(Debug, Clone, PartialEq)]
pub enum ZoneStats {
    /// No present (matchable) cell in the block.
    AllNull,
    /// Present int64 cells span `[min, max]`.
    Int { min: i64, max: i64 },
    /// Present non-NaN double cells span `[min, max]`.
    Double { min: f64, max: f64 },
    /// Present string cells span `[min, max]` lexicographically.
    Str { min: String, max: String },
}

/// A zone map of `(column, statistics)` entries, in schema order.
impl FromIterator<(String, ZoneStats)> for ZoneMap {
    fn from_iter<I: IntoIterator<Item = (String, ZoneStats)>>(entries: I) -> ZoneMap {
        ZoneMap {
            entries: entries.into_iter().collect(),
        }
    }
}

impl ZoneStats {
    /// The statistics of one column's cells, `None` for a string-set
    /// column with present values. A string dictionary's entries are its
    /// distinct values, so its bounds are read off them, not off the rows.
    pub fn of(data: &ColumnData) -> Option<ZoneStats> {
        let str_bounds = |mut values: std::slice::Iter<'_, String>| {
            let first = values.next().expect("a present cell");
            let (min, max) = values.fold((first, first), |(lo, hi), v| (lo.min(v), hi.max(v)));
            ZoneStats::Str {
                min: min.clone(),
                max: max.clone(),
            }
        };
        match data.values() {
            _ if data.present_count() == 0 => Some(ZoneStats::AllNull),
            ColumnValues::Int64(v) => {
                let min = *v.iter().min().unwrap();
                let max = *v.iter().max().unwrap();
                Some(ZoneStats::Int { min, max })
            }
            ColumnValues::Double(v) => {
                // NaN cells match no comparison, so statistics over the
                // non-NaN values are exactly the prunable range; a block
                // of only NaNs is as unmatchable as a block of nulls.
                let mut bounds: Option<(f64, f64)> = None;
                for &x in v.iter().filter(|x| !x.is_nan()) {
                    bounds = Some(match bounds {
                        None => (x, x),
                        Some((lo, hi)) => (lo.min(x), hi.max(x)),
                    });
                }
                Some(match bounds {
                    None => ZoneStats::AllNull,
                    Some((min, max)) => ZoneStats::Double { min, max },
                })
            }
            ColumnValues::Str(v) => Some(str_bounds(v.iter())),
            ColumnValues::Dict(d) => Some(str_bounds(d.entries().iter())),
            // No ordering worth exploiting for sets; Contains-style
            // membership pruning is left to a future filter index.
            ColumnValues::StrSet(_) => None,
        }
    }
}

const KIND_ALL_NULL: u8 = 0;
const KIND_INT: u8 = 1;
const KIND_DOUBLE: u8 = 2;
const KIND_STR: u8 = 3;

/// Min/max statistics for the columns of one sealed block, in schema
/// order. Columns without an entry (e.g. string sets with present values)
/// carry no statistics and are never pruned on.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ZoneMap {
    entries: Vec<(String, ZoneStats)>,
}

impl ZoneMap {
    /// Statistics for `column`, if recorded.
    pub fn get(&self, column: &str) -> Option<&ZoneStats> {
        self.entries
            .iter()
            .find(|(name, _)| name == column)
            .map(|(_, stats)| stats)
    }

    /// All recorded entries, schema order.
    pub fn entries(&self) -> &[(String, ZoneStats)] {
        &self.entries
    }

    /// True if no column has statistics.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Exact byte length [`Self::serialize`] would append (for segment
    /// size estimates).
    pub fn serialized_size(&self) -> usize {
        let mut out = Vec::new();
        self.serialize(&mut out);
        out.len()
    }

    /// Append the serialized form (the payload of the TLV zone chunk).
    pub fn serialize(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, self.entries.len() as u64);
        for (name, stats) in &self.entries {
            varint::write_u64(out, name.len() as u64);
            out.extend_from_slice(name.as_bytes());
            match stats {
                ZoneStats::AllNull => out.push(KIND_ALL_NULL),
                ZoneStats::Int { min, max } => {
                    out.push(KIND_INT);
                    out.extend_from_slice(&min.to_le_bytes());
                    out.extend_from_slice(&max.to_le_bytes());
                }
                ZoneStats::Double { min, max } => {
                    out.push(KIND_DOUBLE);
                    out.extend_from_slice(&min.to_bits().to_le_bytes());
                    out.extend_from_slice(&max.to_bits().to_le_bytes());
                }
                ZoneStats::Str { min, max } => {
                    out.push(KIND_STR);
                    varint::write_u64(out, min.len() as u64);
                    out.extend_from_slice(min.as_bytes());
                    varint::write_u64(out, max.len() as u64);
                    out.extend_from_slice(max.as_bytes());
                }
            }
        }
    }

    /// Parse a serialized zone map. The whole buffer must be consumed.
    pub fn deserialize(buf: &[u8]) -> Result<ZoneMap> {
        let (count, mut p) = varint::read_u64(buf, 0)?;
        let mut entries = Vec::with_capacity(count.min(1024) as usize);
        for _ in 0..count {
            let (name, q) = read_string(buf, p)?;
            p = q;
            if p >= buf.len() {
                return Err(Error::Truncated {
                    needed: p + 1,
                    available: buf.len(),
                });
            }
            let kind = buf[p];
            p += 1;
            let stats = match kind {
                KIND_ALL_NULL => ZoneStats::AllNull,
                KIND_INT => {
                    let (min, q) = read_i64(buf, p)?;
                    let (max, r) = read_i64(buf, q)?;
                    p = r;
                    ZoneStats::Int { min, max }
                }
                KIND_DOUBLE => {
                    let (min, q) = read_i64(buf, p)?;
                    let (max, r) = read_i64(buf, q)?;
                    p = r;
                    ZoneStats::Double {
                        min: f64::from_bits(min as u64),
                        max: f64::from_bits(max as u64),
                    }
                }
                KIND_STR => {
                    let (min, q) = read_string(buf, p)?;
                    let (max, r) = read_string(buf, q)?;
                    p = r;
                    ZoneStats::Str { min, max }
                }
                _ => return Err(Error::Corrupt("unknown zone stats kind")),
            };
            entries.push((name, stats));
        }
        if p != buf.len() {
            return Err(Error::Corrupt("trailing bytes after zone map"));
        }
        Ok(ZoneMap { entries })
    }
}

fn read_i64(buf: &[u8], pos: usize) -> Result<(i64, usize)> {
    if pos + 8 > buf.len() {
        return Err(Error::Truncated {
            needed: pos + 8,
            available: buf.len(),
        });
    }
    let v = i64::from_le_bytes(buf[pos..pos + 8].try_into().unwrap());
    Ok((v, pos + 8))
}

fn read_string(buf: &[u8], pos: usize) -> Result<(String, usize)> {
    let (len, p) = varint::read_u64(buf, pos)?;
    let len = len as usize;
    if p + len > buf.len() {
        return Err(Error::Truncated {
            needed: p + len,
            available: buf.len(),
        });
    }
    let s = std::str::from_utf8(&buf[p..p + len])
        .map_err(|_| Error::Corrupt("zone map string is not UTF-8"))?
        .to_owned();
    Ok((s, p + len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::RowBlockBuilder;
    use crate::row::Row;
    use crate::types::Value;

    fn round_trip(z: &ZoneMap) -> ZoneMap {
        let mut buf = Vec::new();
        z.serialize(&mut buf);
        ZoneMap::deserialize(&buf).unwrap()
    }

    #[test]
    fn builder_computes_zones_at_seal() {
        let mut b = RowBlockBuilder::new(100);
        for i in 0..10i64 {
            let mut row = Row::at(100 + i).with("code", 200 + i);
            if i < 5 {
                row.set("host", format!("h{i}"));
            }
            b.push_row(&row).unwrap();
        }
        let block = b.finish().unwrap();
        let zones = block.zones().expect("sealed blocks carry zones");
        assert_eq!(
            zones.get("time"),
            Some(&ZoneStats::Int { min: 100, max: 109 })
        );
        assert_eq!(
            zones.get("code"),
            Some(&ZoneStats::Int { min: 200, max: 209 })
        );
        assert_eq!(
            zones.get("host"),
            Some(&ZoneStats::Str {
                min: "h0".into(),
                max: "h4".into()
            })
        );
        assert_eq!(zones.get("absent"), None);
    }

    #[test]
    fn all_null_and_nan_columns() {
        let mut b = RowBlockBuilder::new(0);
        let mut r0 = Row::at(1).with("x", f64::NAN);
        r0.set("tags", Value::StrSet(vec!["a".into()]));
        b.push_row(&r0).unwrap();
        b.push_row(&Row::at(2).with("y", 1i64)).unwrap();
        let block = b.finish().unwrap();
        let zones = block.zones().unwrap();
        // Only-NaN doubles are unmatchable, same as all-null.
        assert_eq!(zones.get("x"), Some(&ZoneStats::AllNull));
        // Sets carry no stats.
        assert_eq!(zones.get("tags"), None);
        assert_eq!(zones.get("y"), Some(&ZoneStats::Int { min: 1, max: 1 }));
    }

    #[test]
    fn serialization_round_trips() {
        let mut b = RowBlockBuilder::new(0);
        let mut row = Row::at(-5).with("d", 2.5f64).with("s", "zed");
        row.set("empty", Value::Null);
        b.push_row(&row).unwrap();
        b.push_row(&Row::at(7).with("d", -1.25f64).with("s", "abc"))
            .unwrap();
        let zones = b.finish().unwrap().zones().unwrap().clone();
        assert_eq!(round_trip(&zones), zones);
        assert!(!zones.is_empty());
    }

    #[test]
    fn deserialize_rejects_garbage() {
        assert!(ZoneMap::deserialize(&[9]).is_err()); // truncated entry
        let mut buf = Vec::new();
        ZoneMap::default().serialize(&mut buf);
        buf.push(0xFF); // trailing byte
        assert!(ZoneMap::deserialize(&buf).is_err());
        // Unknown kind code.
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 1);
        varint::write_u64(&mut buf, 1);
        buf.extend_from_slice(b"c");
        buf.push(42);
        assert!(ZoneMap::deserialize(&buf).is_err());
    }

    #[test]
    fn empty_map_round_trips() {
        let z = ZoneMap::default();
        assert!(z.is_empty());
        assert_eq!(round_trip(&z), z);
    }
}
