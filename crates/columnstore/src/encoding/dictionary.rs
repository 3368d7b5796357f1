//! Dictionary encoding for string columns.
//!
//! Service-log string columns (severity, endpoint, host, error message …)
//! have few distinct values repeated across tens of thousands of rows in a
//! block. The dictionary stores each distinct string once, in first-
//! occurrence order, and the column body becomes a stream of small indexes
//! that the bit packer then crushes. Figure 3 shows the dictionary as its
//! own region of the row block column, located by a header offset.
//!
//! A block still filling keeps its string columns in this form as the rows
//! arrive ([`StrDict`]): its entries are always exactly the distinct values
//! present, in first-occurrence order, so sealing writes them as they are
//! and a scan reads the ids where they lie.

use std::hash::{BuildHasher, Hasher};

use crate::error::{Error, Result};

use super::varint;

/// Output of dictionary encoding: distinct entries in first-occurrence
/// order plus one index per input value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DictEncoded {
    /// Distinct strings, index order.
    pub entries: Vec<String>,
    /// One entry index per input value.
    pub indexes: Vec<u32>,
}

/// Dictionary-encode `values`.
pub fn encode<S: AsRef<str>>(values: &[S]) -> DictEncoded {
    let mut dict = StrDict::default();
    for v in values {
        dict.push(v.as_ref());
    }
    DictEncoded {
        entries: dict.entries,
        indexes: dict.ids,
    }
}

/// A string dictionary built one value at a time: the distinct values in
/// first-occurrence order, one id per value pushed, and an index from
/// value to id. Truncating it keeps the entries exactly the values left,
/// so at any length it is what [`encode`] makes of the same values.
#[derive(Debug, Clone, Default)]
pub struct StrDict {
    entries: Vec<String>,
    ids: Vec<u32>,
    /// Open addressing over `entries`: each slot holds an entry's id
    /// (or [`EMPTY`]) beside the low 32 bits of its hash, which place it.
    /// A value probes from its hash, linearly, and reads an entry's bytes
    /// only where the hashes agree; growing moves each slot by the hash it
    /// holds, rehashing no string. At most half full, and never empty
    /// once an entry exists.
    slots: Vec<Slot>,
    hasher: std::hash::RandomState,
}

/// One index slot: an entry's id and its hash.
#[derive(Debug, Clone, Copy)]
struct Slot {
    id: u32,
    hash: u32,
}

const EMPTY: u32 = u32::MAX;
const VACANT: Slot = Slot { id: EMPTY, hash: 0 };

/// The low 32 bits of `value`'s bytes through `hasher` — without `str`'s
/// terminator byte, which only keeps a composite key prefix-free: the
/// index compares the whole string on every hit. An index of at most
/// 2^32 slots is placed by them.
fn hash(hasher: &std::hash::RandomState, value: &str) -> u32 {
    let mut h = hasher.build_hasher();
    h.write(value.as_bytes());
    h.finish() as u32
}

/// Two value dictionaries are equal when they hold the same values: the
/// index is how they were built, not what they hold.
impl PartialEq for StrDict {
    fn eq(&self, other: &StrDict) -> bool {
        self.entries == other.entries && self.ids == other.ids
    }
}

impl StrDict {
    /// The distinct values, in first-occurrence order.
    pub fn entries(&self) -> &[String] {
        &self.entries
    }

    /// One entry id per value pushed.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Number of values pushed.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if no value was pushed.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Value `i`.
    pub fn get(&self, i: usize) -> &str {
        &self.entries[self.ids[i] as usize]
    }

    /// Append `value`, allocating only when it is new.
    pub fn push(&mut self, value: &str) {
        let hash = hash(&self.hasher, value);
        let id = match self.find(value, hash) {
            Ok(id) => id,
            Err(slot) => self.insert(slot, value.to_owned(), hash),
        };
        self.ids.push(id);
    }

    /// Keep the first `len` values, and only the entries they use: the
    /// ids below the largest one left, first occurrence being the order.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.ids.len() {
            return;
        }
        self.ids.truncate(len);
        let used = self.ids.iter().max().map_or(0, |&m| m as usize + 1);
        if used < self.entries.len() {
            self.entries.truncate(used);
            self.rehash(self.slots.len(), used as u32);
        }
    }

    /// Approximate heap footprint.
    pub fn heap_size(&self) -> usize {
        let entries: usize = self.entries.iter().map(|s| s.len() + 24).sum();
        entries + 4 * self.ids.len() + std::mem::size_of::<Slot>() * self.slots.len()
    }

    /// The id of `value`, whose hash is `hash`, or the empty slot where
    /// it would go.
    fn find(&self, value: &str, hash: u32) -> std::result::Result<u32, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.slots[slot] {
                Slot { id: EMPTY, .. } => return Err(slot),
                Slot { id, hash: h } if h == hash && self.entries[id as usize] == value => {
                    return Ok(id)
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Add `value`, whose hash is `hash`, as a new entry at the empty
    /// `slot` [`Self::find`] gave.
    fn insert(&mut self, slot: usize, value: String, hash: u32) -> u32 {
        let id = self.entries.len() as u32;
        self.entries.push(value);
        let new = Slot { id, hash };
        if self.entries.len() * 2 > self.slots.len() {
            self.rehash((self.slots.len() * 2).max(16), id);
            self.place(new);
        } else {
            self.slots[slot] = new;
        }
        id
    }

    /// Rebuild the index with `capacity` slots over the entries below id
    /// `keep`, each moved by the hash its slot holds.
    fn rehash(&mut self, capacity: usize, keep: u32) {
        let old = std::mem::replace(&mut self.slots, vec![VACANT; capacity]);
        for slot in old.into_iter().filter(|s| s.id < keep) {
            self.place(slot);
        }
    }

    /// Put `slot` in the first empty slot from where its hash places it.
    fn place(&mut self, slot: Slot) {
        let mask = self.slots.len() - 1;
        let mut at = slot.hash as usize & mask;
        while self.slots[at].id != EMPTY {
            at = (at + 1) & mask;
        }
        self.slots[at] = slot;
    }
}

/// Inverse of [`encode`].
pub fn decode(encoded: &DictEncoded) -> Result<Vec<String>> {
    let mut out = Vec::with_capacity(encoded.indexes.len());
    for &idx in &encoded.indexes {
        let entry = encoded
            .entries
            .get(idx as usize)
            .ok_or(Error::Corrupt("dictionary index out of range"))?;
        out.push(entry.clone());
    }
    Ok(out)
}

/// Serialize the dictionary entries: var-int count, then per entry a
/// var-int length and the UTF-8 bytes.
pub fn serialize_entries(entries: &[String], out: &mut Vec<u8>) {
    varint::write_u64(out, entries.len() as u64);
    for e in entries {
        varint::write_u64(out, e.len() as u64);
        out.extend_from_slice(e.as_bytes());
    }
}

/// Parse dictionary entries from `buf` at `pos`; returns the entries and
/// the position just past them.
pub fn deserialize_entries(buf: &[u8], pos: usize) -> Result<(Vec<String>, usize)> {
    let (count, mut p) = varint::read_u64(buf, pos)?;
    if count > buf.len() as u64 {
        return Err(Error::Corrupt("dictionary entry count exceeds buffer size"));
    }
    let mut entries = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let (len, q) = varint::read_u64(buf, p)?;
        let len = len as usize;
        if q + len > buf.len() {
            return Err(Error::Truncated {
                needed: q + len,
                available: buf.len(),
            });
        }
        let s = std::str::from_utf8(&buf[q..q + len])
            .map_err(|_| Error::Corrupt("dictionary entry is not UTF-8"))?;
        entries.push(s.to_owned());
        p = q + len;
    }
    Ok((entries, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_assigns_first_occurrence_order() {
        let enc = encode(&["b", "a", "b", "c", "a"]);
        assert_eq!(enc.entries, vec!["b", "a", "c"]);
        assert_eq!(enc.indexes, vec![0, 1, 0, 2, 1]);
    }

    #[test]
    fn round_trip() {
        let values: Vec<String> = (0..500).map(|i| format!("host{:02}", i % 17)).collect();
        let enc = encode(&values);
        assert_eq!(enc.entries.len(), 17);
        assert_eq!(decode(&enc).unwrap(), values);
    }

    #[test]
    fn empty_and_single() {
        let enc = encode::<&str>(&[]);
        assert!(enc.entries.is_empty());
        assert!(decode(&enc).unwrap().is_empty());

        let enc = encode(&["only"]);
        assert_eq!(enc.entries, vec!["only"]);
        assert_eq!(enc.indexes, vec![0]);
    }

    /// Pushed one at a time and cut back at every length, the dictionary
    /// is what `encode` makes of the values left, and still finds every
    /// entry it kept.
    #[test]
    fn an_incremental_dictionary_truncates_to_what_encode_makes() {
        let values: Vec<String> = (0..300).map(|i| format!("v{}", (i * 7) % 41)).collect();
        let mut full = StrDict::default();
        for v in &values {
            full.push(v);
        }
        for len in (0..=values.len()).rev() {
            let mut cut = full.clone();
            cut.truncate(len);
            let want = encode(&values[..len]);
            assert_eq!(
                (cut.entries(), cut.ids()),
                (&want.entries[..], &want.indexes[..])
            );
            for v in &values[..len] {
                let before = cut.entries().len();
                cut.push(v);
                assert_eq!(
                    cut.entries().len(),
                    before,
                    "{v} lost from the index at {len}"
                );
            }
        }
    }

    /// First-occurrence entries and ids, without an index.
    fn naive(values: &[String]) -> (Vec<String>, Vec<u32>) {
        let mut first = std::collections::HashMap::new();
        let mut entries = Vec::new();
        let ids = values
            .iter()
            .map(|v| {
                *first.entry(v.clone()).or_insert_with(|| {
                    entries.push(v.clone());
                    entries.len() as u32 - 1
                })
            })
            .collect();
        (entries, ids)
    }

    /// Through ten doublings of the index, and cut back below and across
    /// them, the dictionary holds what `encode` and a first-occurrence
    /// reference make of the same values, and still finds every entry.
    #[test]
    fn an_index_grown_by_stored_hashes_equals_encode() {
        let values: Vec<String> = (0..20_000u64)
            .map(|i| format!("v{}", i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 6_000))
            .collect();
        let mut dict = StrDict::default();
        for v in &values {
            dict.push(v);
        }
        let (entries, ids) = naive(&values);
        assert!(entries.len() > 5_000);
        assert_eq!(dict.slots.len(), 16 << 10);
        assert_eq!((dict.entries(), dict.ids()), (&entries[..], &ids[..]));
        let enc = encode(&values);
        assert_eq!((&enc.entries, &enc.indexes), (&entries, &ids));
        for len in [19_999, 12_345, 4_000, 700, 9, 1, 0] {
            let mut cut = dict.clone();
            cut.truncate(len);
            let (entries, ids) = naive(&values[..len]);
            assert_eq!(
                (cut.entries(), cut.ids()),
                (&entries[..], &ids[..]),
                "{len}"
            );
            // The rest pushed again: the same dictionary as pushed whole.
            for v in &values[len..] {
                cut.push(v);
            }
            assert_eq!(cut, dict, "{len}");
        }
    }

    #[test]
    fn decode_rejects_out_of_range_index() {
        let enc = DictEncoded {
            entries: vec!["a".into()],
            indexes: vec![0, 1],
        };
        assert!(decode(&enc).is_err());
    }

    #[test]
    fn entries_serialize_round_trip() {
        let entries: Vec<String> = vec!["".into(), "short".into(), "x".repeat(300)];
        let mut buf = vec![0u8; 5];
        let start = buf.len();
        serialize_entries(&entries, &mut buf);
        let (parsed, end) = deserialize_entries(&buf, start).unwrap();
        assert_eq!(parsed, entries);
        assert_eq!(end, buf.len());
    }

    #[test]
    fn entries_deserialize_rejects_truncation() {
        let mut buf = Vec::new();
        serialize_entries(&["hello".to_owned()], &mut buf);
        assert!(deserialize_entries(&buf[..buf.len() - 1], 0).is_err());
    }

    #[test]
    fn entries_deserialize_rejects_invalid_utf8() {
        let mut buf = Vec::new();
        varint::write_u64(&mut buf, 1);
        varint::write_u64(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert!(deserialize_entries(&buf, 0).is_err());
    }
}
