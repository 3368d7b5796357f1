//! In-place columnar scan views over encoded row block columns.
//!
//! `RowBlockColumn::decode()` materializes a full heap `ColumnData` — for
//! string columns that means one owned `String` per row — which is exactly
//! the cost the vectorized query path avoids. A [`ColumnView`] is built
//! straight from the (possibly shared-memory-mapped) RBC buffer:
//!
//! * integers are delta-decoded into a dense `i64` array in one pass over
//!   the packed words (no intermediate delta vector),
//! * doubles are unshuffled into a dense `f64` array,
//! * strings stay as **dictionary ids** plus the (small) entry table, so
//!   filters compare ids against a per-entry match bitmap instead of
//!   materializing row strings — the dictionary-id-before-decode fast path,
//! * string sets fall back to the full decode (no ordering to exploit).
//!
//! Uncompressed payload regions are read borrowed
//! ([`crate::rbc::read_maybe_lz_cow`]), so a mapped column's packed words
//! are scanned in place without copying the buffer to heap first.
//!
//! The module also provides the u64-word selection vectors the vectorized
//! executor threads through its filter kernels.

use std::sync::Arc;

use crate::column::ColumnData;
use crate::encoding::{bitpack, dictionary, shuffle, varint};
use crate::error::{Error, Result};
use crate::rbc::{read_maybe_lz_cow, RowBlockColumn};
use crate::types::{ColumnType, Value};

/// A presence bitmap with per-word rank acceleration: `rank(row)` — the
/// dense value index of a present row — is O(1), which is what makes
/// random access from a selection vector cheap.
#[derive(Debug, Clone)]
pub struct Presence {
    bits: Vec<u64>,
    /// `prefix[w]` = number of set bits in words `0..w`.
    prefix: Vec<u32>,
}

impl Presence {
    fn new(bits: Vec<u64>) -> Presence {
        let mut prefix = Vec::with_capacity(bits.len());
        let mut acc = 0u32;
        for w in &bits {
            prefix.push(acc);
            acc += w.count_ones();
        }
        Presence { bits, prefix }
    }

    /// The raw bitmap words.
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// True if `row` is present (non-null).
    pub fn get(&self, row: usize) -> bool {
        self.bits[row / 64] & (1u64 << (row % 64)) != 0
    }

    /// Number of present rows strictly before `row`: the dense index of
    /// `row` when `get(row)` is true.
    pub fn rank(&self, row: usize) -> usize {
        self.dense_in_word(row / 64, row % 64)
    }

    /// [`Self::rank`] of the row at bit `b` of word `w`.
    fn dense_in_word(&self, w: usize, b: usize) -> usize {
        let below = self.bits[w] & ((1u64 << b) - 1);
        self.prefix[w] as usize + below.count_ones() as usize
    }
}

/// A typed, scan-ready view of one encoded column.
#[derive(Debug, Clone)]
pub enum ColumnView {
    /// Dense present int64 values, row order.
    Int64 {
        /// Null bitmap; `None` = fully present.
        presence: Option<Presence>,
        /// One value per present row.
        values: Vec<i64>,
    },
    /// Dense present double values, row order.
    Double {
        /// Null bitmap; `None` = fully present.
        presence: Option<Presence>,
        /// One value per present row.
        values: Vec<f64>,
    },
    /// String column kept in dictionary form: ids per present row plus the
    /// entry table. Row strings are only materialized for selected rows.
    Dict {
        /// Null bitmap; `None` = fully present.
        presence: Option<Presence>,
        /// One dictionary id per present row; always `< entries.len()`.
        ids: Vec<u32>,
        /// The dictionary, sorted unique entries.
        entries: Vec<String>,
    },
    /// String sets: full decode fallback.
    StrSet(ColumnData),
}

impl ColumnView {
    /// Build a view over `column`'s buffer. Works identically for heap and
    /// mapped backings; the caller is responsible for checksum policy
    /// (mapped columns defer CRC to first touch, see the leaf's hydrator).
    pub fn build(column: &RowBlockColumn) -> Result<ColumnView> {
        let buf = column.as_bytes();
        let h = column.parse_header()?;
        let n_items = h.n_items as usize;
        let data = &buf[h.data_offset as usize..h.footer_offset as usize];
        let mut pos = 0usize;

        let presence_flag = *data.get(pos).ok_or(Error::Truncated {
            needed: 1,
            available: data.len(),
        })?;
        pos += 1;
        let presence = match presence_flag {
            0 => None,
            1 => {
                let (raw, p) = read_maybe_lz_cow(data, pos)?;
                pos = p;
                if raw.len() != n_items.div_ceil(64) * 8 {
                    return Err(Error::Corrupt("presence bitmap size mismatch"));
                }
                let words: Vec<u64> = raw
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                    .collect();
                if !n_items.is_multiple_of(64) {
                    if let Some(last) = words.last() {
                        if last >> (n_items % 64) != 0 {
                            return Err(Error::Corrupt("presence bitmap has bits past len"));
                        }
                    }
                }
                Some(Presence::new(words))
            }
            _ => return Err(Error::Corrupt("bad presence flag")),
        };

        let (present_count, p) = varint::read_u64(data, pos)?;
        pos = p;
        let present_count = present_count as usize;
        if present_count > n_items {
            return Err(Error::Corrupt("present count exceeds item count"));
        }
        let expected_present = match &presence {
            None => n_items,
            Some(pr) => pr.bits.iter().map(|w| w.count_ones() as usize).sum(),
        };
        if present_count != expected_present {
            return Err(Error::Corrupt("present-cell count does not match values"));
        }

        match h.column_type {
            ColumnType::Int64 => {
                let mut values = Vec::with_capacity(present_count);
                if present_count > 0 {
                    if pos + 9 > data.len() {
                        return Err(Error::Truncated {
                            needed: pos + 9,
                            available: data.len(),
                        });
                    }
                    let first = i64::from_le_bytes(data[pos..pos + 8].try_into().unwrap());
                    let width = data[pos + 8] as u32;
                    pos += 9;
                    let (packed, _p) = read_maybe_lz_cow(data, pos)?;
                    // Fused unpack + zigzag + prefix-sum: one pass over the
                    // packed words, no intermediate delta vector.
                    values.push(first);
                    let mut prev = first;
                    bitpack::unpack_each(&packed, width, present_count - 1, |_, d| {
                        prev = prev.wrapping_add(varint::zigzag_decode(d));
                        values.push(prev);
                    })?;
                }
                Ok(ColumnView::Int64 { presence, values })
            }
            ColumnType::Double => {
                let (shuffled, _p) = read_maybe_lz_cow(data, pos)?;
                let values = shuffle::unshuffle_f64(&shuffled, present_count)?;
                Ok(ColumnView::Double { presence, values })
            }
            ColumnType::Str => {
                let dict_region = &buf[h.dict_offset as usize..h.data_offset as usize];
                let entries = if h.n_dict_items == 0 && dict_region.is_empty() {
                    Vec::new()
                } else {
                    let (blob, _) = read_maybe_lz_cow(dict_region, 0)?;
                    let (entries, _) = dictionary::deserialize_entries(&blob, 0)?;
                    if entries.len() as u64 != h.n_dict_items {
                        return Err(Error::Corrupt("dictionary entry count mismatch"));
                    }
                    entries
                };
                let width = *data.get(pos).ok_or(Error::Truncated {
                    needed: pos + 1,
                    available: data.len(),
                })? as u32;
                pos += 1;
                let (packed, _p) = read_maybe_lz_cow(data, pos)?;
                let mut ids = Vec::with_capacity(present_count);
                let mut out_of_range = false;
                bitpack::unpack_each(&packed, width, present_count, |_, v| {
                    if v >= entries.len() as u64 {
                        out_of_range = true;
                    } else {
                        ids.push(v as u32);
                    }
                })?;
                if out_of_range {
                    return Err(Error::Corrupt("dictionary index out of range"));
                }
                Ok(ColumnView::Dict {
                    presence,
                    ids,
                    entries,
                })
            }
            ColumnType::StrSet => Ok(ColumnView::StrSet(column.decode()?)),
        }
    }

    /// The column type this view scans.
    pub fn column_type(&self) -> ColumnType {
        match self {
            ColumnView::Int64 { .. } => ColumnType::Int64,
            ColumnView::Double { .. } => ColumnType::Double,
            ColumnView::Dict { .. } => ColumnType::Str,
            ColumnView::StrSet(_) => ColumnType::StrSet,
        }
    }

    /// The null bitmap, if any row is null.
    pub fn presence(&self) -> Option<&Presence> {
        match self {
            ColumnView::Int64 { presence, .. }
            | ColumnView::Double { presence, .. }
            | ColumnView::Dict { presence, .. } => presence.as_ref(),
            ColumnView::StrSet(_) => None,
        }
    }

    /// For `Dict` views: the dictionary id at `row`, `None` when the cell
    /// is null (or the view is not a dictionary). Lets the executor group
    /// by precomputed per-entry keys without materializing row strings.
    pub fn dict_id(&self, row: usize) -> Option<u32> {
        match self {
            ColumnView::Dict { presence, ids, .. } => {
                dense_index(presence.as_ref(), row).map(|i| ids[i])
            }
            _ => None,
        }
    }

    /// The cell at `row`, boxed — identical to `ColumnData::get`. The
    /// vectorized executor only calls this for *selected* rows (group keys
    /// and aggregate inputs); filters never box.
    pub fn value(&self, row: usize) -> Value {
        match self {
            ColumnView::Int64 { presence, values } => match dense_index(presence.as_ref(), row) {
                None => Value::Null,
                Some(i) => Value::Int(values[i]),
            },
            ColumnView::Double { presence, values } => match dense_index(presence.as_ref(), row) {
                None => Value::Null,
                Some(i) => Value::Double(values[i]),
            },
            ColumnView::Dict {
                presence,
                ids,
                entries,
            } => match dense_index(presence.as_ref(), row) {
                None => Value::Null,
                Some(i) => Value::Str(entries[ids[i] as usize].clone()),
            },
            ColumnView::StrSet(data) => data.get(row),
        }
    }
}

fn dense_index(presence: Option<&Presence>, row: usize) -> Option<usize> {
    match presence {
        None => Some(row),
        Some(p) => {
            if p.get(row) {
                Some(p.rank(row))
            } else {
                None
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Selection vectors: one bit per row of a block, LSB-first u64 words.
// ---------------------------------------------------------------------------

/// A selection vector with every one of `rows` bits set (bits past `rows`
/// in the last word stay zero, an invariant every kernel preserves).
pub fn sel_all(rows: usize) -> Vec<u64> {
    let mut sel = vec![u64::MAX; rows.div_ceil(64)];
    if !rows.is_multiple_of(64) {
        if let Some(last) = sel.last_mut() {
            *last = (1u64 << (rows % 64)) - 1;
        }
    }
    sel
}

/// Number of selected rows.
pub fn sel_count(sel: &[u64]) -> u64 {
    sel.iter().map(|w| w.count_ones() as u64).sum()
}

/// True if no row is selected.
pub fn sel_is_empty(sel: &[u64]) -> bool {
    sel.iter().all(|&w| w == 0)
}

/// Visit every selected row index in ascending order.
pub fn sel_for_each(sel: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in sel.iter().enumerate() {
        let mut m = word;
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            m &= m - 1;
            f(w * 64 + b);
        }
    }
}

/// AND the selection with a typed predicate over the present values of a
/// column: a selected row survives iff it is present *and* `pred` holds
/// for its value. Null rows never match (the row-wise `Filter::matches`
/// null rule). One pass, word-at-a-time, with an O(1) dense cursor.
///
/// The common case — a column without nulls under a still-full selection
/// word, i.e. the first filter of a query — takes a dense path: the mask
/// of 64 contiguous values is built branch-free, which the compiler
/// unrolls, instead of one `trailing_zeros` round trip per row.
pub fn sel_retain<T: Copy>(
    sel: &mut [u64],
    presence: Option<&Presence>,
    values: &[T],
    mut pred: impl FnMut(T) -> bool,
) {
    let Some(presence) = presence else {
        for (w, word) in sel.iter_mut().enumerate() {
            let mut keep = 0u64;
            if *word == u64::MAX {
                // A full word means all 64 rows exist (bits past the row
                // count are never set), so the slice is in bounds.
                for (b, &v) in values[w * 64..w * 64 + 64].iter().enumerate() {
                    keep |= (pred(v) as u64) << b;
                }
            } else {
                let mut bits = *word;
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    keep |= (pred(values[w * 64 + b]) as u64) << b;
                }
            }
            *word = keep;
        }
        return;
    };
    for (w, (word, &pw)) in sel.iter_mut().zip(&presence.bits).enumerate() {
        let mut keep = 0u64;
        let mut bits = *word & pw;
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            keep |= (pred(values[presence.dense_in_word(w, b)]) as u64) << b;
        }
        *word = keep;
    }
}

/// Visit every selected, non-null row in ascending order as
/// `(row, dense)`, `dense` being the row's index into the column's
/// present-values array — how the fold reads aggregate inputs without
/// boxing a cell.
pub fn sel_for_each_present(
    sel: &[u64],
    presence: Option<&Presence>,
    mut f: impl FnMut(usize, usize),
) {
    let Some(presence) = presence else {
        return sel_for_each(sel, |row| f(row, row));
    };
    for (w, (&word, &pw)) in sel.iter().zip(&presence.bits).enumerate() {
        let mut bits = word & pw;
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            f(w * 64 + b, presence.dense_in_word(w, b));
        }
    }
}

/// Clear every selected row: used when a filter can statically never match
/// the column's type (the cross-type rule of `Filter::matches`).
pub fn sel_clear(sel: &mut [u64]) {
    sel.iter_mut().for_each(|w| *w = 0);
}

/// A dictionary-id match bitmap: bit `i` set means dictionary entry `i`
/// satisfies the filter. Built by evaluating the string predicate once per
/// distinct entry — O(dict) instead of O(rows) — then tested against
/// packed ids.
pub struct DictMask {
    words: Vec<u64>,
    any: bool,
    all: bool,
}

impl DictMask {
    /// Evaluate `pred` over each dictionary entry.
    pub fn build(entries: &[String], mut pred: impl FnMut(&str) -> bool) -> DictMask {
        let mut words = vec![0u64; entries.len().div_ceil(64)];
        let mut count = 0usize;
        for (i, e) in entries.iter().enumerate() {
            if pred(e) {
                words[i / 64] |= 1u64 << (i % 64);
                count += 1;
            }
        }
        DictMask {
            words,
            any: count > 0,
            all: count == entries.len() && !entries.is_empty(),
        }
    }

    /// True if no entry matches: the whole column can be rejected without
    /// touching a single packed id.
    pub fn none_match(&self) -> bool {
        !self.any
    }

    /// True if every entry matches: selection reduces to the presence test.
    pub fn all_match(&self) -> bool {
        self.all
    }

    /// Does dictionary id `id` match?
    pub fn matches(&self, id: u32) -> bool {
        let i = id as usize;
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }
}

/// Helper for tests and benches: rebuild a block's columns onto a shared
/// mapped backing (`Arc<Vec<u8>>` arena), exercising the
/// `ColumnBytes::Mapped` code path without shared memory.
pub fn remap_block(block: &crate::rowblock::RowBlock) -> Result<crate::rowblock::RowBlock> {
    let mut arena = Vec::new();
    let mut spans = Vec::with_capacity(block.columns().len());
    for col in block.columns() {
        let start = arena.len();
        arena.extend_from_slice(col.as_bytes());
        spans.push((start, col.len_bytes()));
    }
    let backing: Arc<dyn AsRef<[u8]> + Send + Sync> = Arc::new(arena);
    let columns = spans
        .into_iter()
        .map(|(off, len)| RowBlockColumn::from_mapped(Arc::clone(&backing), off, len))
        .collect::<Result<Vec<_>>>()?;
    Ok(
        crate::rowblock::RowBlock::from_parts(*block.header(), block.schema().clone(), columns)?
            .with_zones(block.zones().cloned()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::RowBlockBuilder;
    use crate::row::Row;
    use crate::TIME_COLUMN as TIME;

    fn mixed_block() -> crate::rowblock::RowBlock {
        let mut b = RowBlockBuilder::new(0);
        for i in 0..200i64 {
            let mut row = Row::at(1000 + i);
            if i % 3 != 0 {
                row.set("n", i * 7 - 300);
            }
            if i % 2 == 0 {
                row.set("d", i as f64 / 4.0);
            }
            if i % 5 != 4 {
                row.set("host", format!("host-{}", i % 7));
            }
            if i % 4 == 0 {
                row.set(
                    "tags",
                    Value::StrSet(vec![format!("t{}", i % 3), "common".into()]),
                );
            }
            b.push_row(&row).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn views_agree_with_decode_for_every_column() {
        let block = mixed_block();
        for (name, _) in block.schema().iter() {
            let col = block.column(name).unwrap();
            let data = col.decode().unwrap();
            let view = ColumnView::build(col).unwrap();
            for row in 0..block.row_count() {
                assert_eq!(view.value(row), data.get(row), "column {name} row {row}");
            }
        }
    }

    #[test]
    fn views_agree_over_mapped_backing() {
        let heap = mixed_block();
        let mapped = remap_block(&heap).unwrap();
        assert!(mapped.is_mapped());
        for (name, _) in heap.schema().iter() {
            let view = ColumnView::build(mapped.column(name).unwrap()).unwrap();
            let data = heap.column(name).unwrap().decode().unwrap();
            for row in 0..heap.row_count() {
                assert_eq!(view.value(row), data.get(row), "column {name} row {row}");
            }
        }
        // Zones survive the remap.
        assert_eq!(mapped.zones(), heap.zones());
    }

    #[test]
    fn sel_vectors_basics() {
        let sel = sel_all(70);
        assert_eq!(sel.len(), 2);
        assert_eq!(sel_count(&sel), 70);
        assert_eq!(sel[1], (1u64 << 6) - 1);
        let mut seen = Vec::new();
        sel_for_each(&sel, |r| seen.push(r));
        assert_eq!(seen, (0..70).collect::<Vec<_>>());
        assert!(!sel_is_empty(&sel));
        let mut sel = sel;
        sel_clear(&mut sel);
        assert!(sel_is_empty(&sel));
    }

    #[test]
    fn sel_retain_respects_presence_and_pred() {
        let block = mixed_block();
        let view = ColumnView::build(block.column("n").unwrap()).unwrap();
        let (presence, values) = match &view {
            ColumnView::Int64 { presence, values } => (presence.as_ref(), values.as_slice()),
            _ => unreachable!(),
        };
        let mut sel = sel_all(block.row_count());
        sel_retain(&mut sel, presence, values, |v| v > 0);
        let data = block.column("n").unwrap().decode().unwrap();
        let mut expected = Vec::new();
        for row in 0..block.row_count() {
            if matches!(data.get(row), Value::Int(v) if v > 0) {
                expected.push(row);
            }
        }
        let mut got = Vec::new();
        sel_for_each(&sel, |r| got.push(r));
        assert_eq!(got, expected);
    }

    #[test]
    fn sel_retain_dense_and_sparse_words_agree() {
        // 200 rows, no nulls: words 0–2 are full (dense path), word 3 is
        // the 8-row tail; a second pass then runs over sparse words.
        let values: Vec<i64> = (0..200).map(|i| (i * 37) % 101).collect();
        let expect = |pred: &dyn Fn(i64) -> bool| -> Vec<usize> {
            (0..200).filter(|&r| pred(values[r])).collect()
        };
        let rows = |sel: &[u64]| {
            let mut got = Vec::new();
            sel_for_each(sel, |r| got.push(r));
            got
        };
        let mut sel = sel_all(200);
        sel_retain(&mut sel, None, &values, |v| v % 3 == 0);
        assert_eq!(rows(&sel), expect(&|v| v % 3 == 0));
        sel_retain(&mut sel, None, &values, |v| v > 40);
        assert_eq!(rows(&sel), expect(&|v| v % 3 == 0 && v > 40));
        // Nothing, and everything.
        let mut sel = sel_all(200);
        sel_retain(&mut sel, None, &values, |_| true);
        assert_eq!(sel, sel_all(200));
        sel_retain(&mut sel, None, &values, |_| false);
        assert!(sel_is_empty(&sel));
    }

    #[test]
    fn sel_for_each_present_pairs_rows_with_dense_indexes() {
        let block = mixed_block();
        for name in ["n", "d", "host", TIME] {
            let view = ColumnView::build(block.column(name).unwrap()).unwrap();
            let mut sel = sel_all(block.row_count());
            sel[1] &= 0x0F0F_0F0F_0F0F_0F0F; // a sparse word too
            let mut got = Vec::new();
            sel_for_each_present(&sel, view.presence(), |row, dense| got.push((row, dense)));
            let mut want = Vec::new();
            sel_for_each(&sel, |row| {
                if let Some(dense) = dense_index(view.presence(), row) {
                    want.push((row, dense));
                }
            });
            assert_eq!(got, want, "column {name}");
        }
    }

    #[test]
    fn dict_mask_short_circuits() {
        let entries: Vec<String> = (0..5).map(|i| format!("e{i}")).collect();
        let none = DictMask::build(&entries, |_| false);
        assert!(none.none_match() && !none.all_match());
        let all = DictMask::build(&entries, |_| true);
        assert!(all.all_match() && !all.none_match());
        let one = DictMask::build(&entries, |e| e == "e3");
        assert!(!one.none_match() && !one.all_match());
        assert!(one.matches(3));
        assert!(!one.matches(2));
    }

    #[test]
    fn presence_rank_is_consistent() {
        let block = mixed_block();
        let view = ColumnView::build(block.column("d").unwrap()).unwrap();
        let p = view.presence().unwrap();
        let mut naive = 0usize;
        for row in 0..block.row_count() {
            assert_eq!(p.rank(row), naive, "row {row}");
            if p.get(row) {
                naive += 1;
            }
        }
    }
}
