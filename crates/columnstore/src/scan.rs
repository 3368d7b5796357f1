//! In-place columnar scan views over encoded row block columns.
//!
//! `RowBlockColumn::decode()` materializes a full heap `ColumnData` — for
//! string columns that means one owned `String` per row — which is exactly
//! the cost the vectorized query path avoids. A [`ColumnView`] is built
//! straight from the (possibly shared-memory-mapped) RBC buffer:
//!
//! * integers stay in the form the writer chose for the block
//!   ([`IntValues`]): a frame-of-reference or dictionary column is read in
//!   place — filters test the packed codes ([`sel_retain_packed`],
//!   [`sel_retain_ids`]) and aggregates read one value per selected row —
//!   and a delta chain, which has no random access, is decoded into a
//!   dense `i64` array in one pass the first time something reads it; an
//!   integer sum reads each form in place in one pass
//!   ([`IntValues::exact_sum`]), a whole chain without an array,
//! * doubles stay **shuffled**: a value is gathered from its eight byte
//!   lanes when an aggregate reads it at a selected row, and the lanes are
//!   unshuffled into a dense `f64` array only when a filter needs every
//!   value ([`DoubleLanes::values`], built once per view),
//! * strings stay as **packed dictionary ids** plus the (small) entry
//!   table: filters test the packed ids against a per-entry match bitmap
//!   ([`sel_retain_ids`]) and group keys read one id per selected row, so
//!   neither row strings nor an id array are ever materialized,
//! * string sets fall back to the full decode (no ordering to exploit).
//!
//! The block still filling is scanned where it lies
//! ([`crate::RowBlockBuilder::view`]): its integers and doubles are read
//! from the builder's dense vectors, a string column from the builder's
//! dictionary ids and entries, and a string set from its cells — nothing
//! is encoded, decoded or copied but the presence bitmap.
//!
//! Uncompressed payload regions are read borrowed
//! ([`crate::rbc::read_maybe_lz_cow`]), so a mapped column's packed words
//! and byte lanes are scanned in place without copying the buffer to heap
//! first; a view therefore borrows the column it was built from.
//!
//! The module also provides the u64-word selection vectors the vectorized
//! executor threads through its filter kernels.

use std::borrow::Cow;
use std::cell::{Cell, OnceCell};
use std::sync::Arc;

use crate::column::{ColumnData, ColumnValues};
use crate::encoding::bitpack::Packed;
use crate::encoding::intcode::IntForm;
use crate::encoding::{dictionary, shuffle, varint};
use crate::error::{Error, Result};
use crate::rbc::{read_maybe_lz_cow, Header, RowBlockColumn};
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

    /// Number of present rows. Read off the prefix sums: no second
    /// popcount pass.
    pub fn count(&self) -> usize {
        match (self.prefix.last(), self.bits.last()) {
            (Some(&below), Some(last)) => below as usize + last.count_ones() as usize,
            _ => 0,
        }
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

/// A typed, scan-ready view of one encoded column, borrowing the column's
/// buffer wherever a payload is stored raw.
#[derive(Debug, Clone)]
pub enum ColumnView<'a> {
    /// Present int64 values in their stored form.
    Int64 {
        /// Null bitmap; `None` = fully present.
        presence: Option<Presence>,
        /// One value per present row.
        ints: IntValues<'a>,
    },
    /// Present double values, still in their shuffled byte lanes.
    Double {
        /// Null bitmap; `None` = fully present.
        presence: Option<Presence>,
        /// One value per present row.
        lanes: DoubleLanes<'a>,
    },
    /// String column kept in dictionary form: packed ids per present row
    /// plus the entry table. Row strings are only materialized for
    /// selected rows.
    Dict {
        /// Null bitmap; `None` = fully present.
        presence: Option<Presence>,
        /// One dictionary id per present row, still bit-packed (or the
        /// builder's, in place).
        ids: DictIds<'a>,
        /// The dictionary, in first-occurrence order
        /// ([`dictionary::encode`]).
        entries: Cow<'a, [String]>,
    },
    /// String sets: full decode fallback (the builder's cells, in place).
    StrSet(Cow<'a, ColumnData>),
}

/// The present values of a double column as the writer shuffled them:
/// byte `b` of value `i` sits at `bytes[b * count + i]` — or, in place,
/// the builder's values, which every read takes as already decoded.
#[derive(Debug, Clone)]
pub struct DoubleLanes<'a> {
    bytes: Cow<'a, [u8]>,
    count: usize,
    values: OnceCell<Cow<'a, [f64]>>,
}

impl<'a> DoubleLanes<'a> {
    /// `values`, read where they lie.
    fn in_place(values: &'a [f64]) -> DoubleLanes<'a> {
        DoubleLanes {
            bytes: Cow::Borrowed(&[]),
            count: values.len(),
            values: OnceCell::from(Cow::Borrowed(values)),
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if the column holds no present value.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Value `dense`, gathered from its eight lanes: for a column no one
    /// decoded. Panics if `dense >= len()`, or if the values are in place
    /// — they have no lanes, and [`Self::decoded`] holds them.
    #[inline]
    pub fn get(&self, dense: usize) -> f64 {
        assert!(dense < self.count, "double index out of range");
        let bytes = &self.bytes;
        f64::from_le_bytes(std::array::from_fn(|lane| bytes[lane * self.count + dense]))
    }

    /// Every value, unshuffled on the first call and kept: what a filter,
    /// which tests every selected row, reads.
    pub fn values(&self) -> &[f64] {
        self.values.get_or_init(|| {
            let values = shuffle::unshuffle_f64(&self.bytes, self.count);
            Cow::Owned(values.expect("lane length checked at build"))
        })
    }

    /// The values, if [`Self::values`] already unshuffled them or they
    /// are in place.
    pub fn decoded(&self) -> Option<&[f64]> {
        self.values.get().map(|v| &**v)
    }
}

/// How an integer column's present values are stored in one block.
#[derive(Debug, Clone)]
pub enum IntCodes<'a> {
    /// A delta chain: value 0 is `first`, value `i + 1` adds zig-zag
    /// delta `i`. No random access.
    Delta {
        /// The first value.
        first: i64,
        /// `len - 1` zig-zag deltas.
        deltas: Packed<'a>,
    },
    /// Frame of reference: value `i` is `base + packed[i]`, wrapping.
    For {
        /// The block's smallest value.
        base: i64,
        /// One code per value.
        packed: Packed<'a>,
    },
    /// Value `i` is `entries[ids[i]]`.
    Dict {
        /// Distinct values, strictly ascending: id order is value order.
        entries: Vec<i64>,
        /// One id per value, still bit-packed.
        ids: DictIds<'a>,
    },
    /// The builder's values, in place: every read takes them as already
    /// decoded ([`IntValues::decoded`]).
    InPlace {
        /// The largest `|v|`, from the bounds the builder kept as rows
        /// arrived; `u64::MAX` when none were given.
        bound: u64,
    },
}

/// The largest magnitude every partial sum of a row-order `f64` fold of
/// integers may reach and still be exact: `f64` holds every integer up to
/// `2^53`.
const F64_EXACT: u128 = 1 << 53;

/// The present values of an integer column, read in place where the
/// stored form allows it ([`IntCodes`]). Every form reads one value with
/// [`Self::get`]; [`Self::values`] materializes them all, once per view —
/// which a delta chain does for any read.
#[derive(Debug, Clone)]
pub struct IntValues<'a> {
    codes: IntCodes<'a>,
    count: usize,
    values: OnceCell<Cow<'a, [i64]>>,
    /// True once [`Self::exact_sum`] decoded the whole chain in one pass,
    /// keeping no array: it counts as decoded, once.
    streamed: Cell<bool>,
}

impl<'a> IntValues<'a> {
    /// `values`, read where they lie; `range` is their smallest and
    /// largest, if known.
    fn in_place(values: &'a [i64], range: Option<(i64, i64)>) -> IntValues<'a> {
        let bound = range.map_or(u64::MAX, |(lo, hi)| {
            lo.unsigned_abs().max(hi.unsigned_abs())
        });
        IntValues {
            codes: IntCodes::InPlace { bound },
            count: values.len(),
            values: OnceCell::from(Cow::Borrowed(values)),
            streamed: Cell::new(false),
        }
    }

    /// Parse the integer payload at `pos` of the data region `data` of
    /// the column `buf` with header `h`: the one parser
    /// [`RowBlockColumn::decode`] and [`ColumnView::build`] share. Checks
    /// every length; dictionary ids are checked as they are read.
    pub(crate) fn parse(
        buf: &'a [u8],
        h: &Header,
        data: &'a [u8],
        pos: usize,
        count: usize,
    ) -> Result<IntValues<'a>> {
        let form = h.int_form();
        let codes = if form == IntForm::Delta && count == 0 {
            IntCodes::Delta {
                first: 0,
                deltas: Packed::new(Cow::Borrowed(&[]), 1, 0)?,
            }
        } else {
            // `i64 | width | packed` or `width | packed`.
            let lead = if form == IntForm::Dict { 0 } else { 8 };
            let head = data.get(pos..pos + lead + 1).ok_or(Error::Truncated {
                needed: pos + lead + 1,
                available: data.len(),
            })?;
            let word = |b: &[u8]| i64::from_le_bytes(b.try_into().unwrap());
            let width = head[lead] as u32;
            let (packed, _) = read_maybe_lz_cow(data, pos + lead + 1)?;
            match form {
                IntForm::Delta => IntCodes::Delta {
                    first: word(&head[..8]),
                    deltas: Packed::new(packed, width, count - 1)?,
                },
                IntForm::For => IntCodes::For {
                    base: word(&head[..8]),
                    packed: Packed::new(packed, width, count)?,
                },
                IntForm::Dict => {
                    let region = h.dict_region(buf);
                    if Some(region.len() as u64) != h.n_dict_items.checked_mul(8) {
                        return Err(Error::Corrupt("integer dictionary size mismatch"));
                    }
                    let entries: Vec<i64> = region.chunks_exact(8).map(word).collect();
                    if entries.windows(2).any(|w| w[0] >= w[1]) {
                        return Err(Error::Corrupt("integer dictionary out of order"));
                    }
                    let ids = DictIds::packed(Packed::new(packed, width, count)?, entries.len());
                    IntCodes::Dict { entries, ids }
                }
            }
        };
        Ok(IntValues {
            codes,
            count,
            values: OnceCell::new(),
            streamed: Cell::new(false),
        })
    }

    /// The stored form.
    pub fn codes(&self) -> &IntCodes<'a> {
        &self.codes
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if the column holds no present value.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// True for a delta chain, which every read decodes in full.
    pub fn is_chain(&self) -> bool {
        matches!(self.codes, IntCodes::Delta { .. })
    }

    /// Value `dense`, read in place (a delta chain is decoded first).
    /// Panics if `dense >= len()`; an id past the dictionary is
    /// `Corrupt`.
    #[inline]
    pub fn get(&self, dense: usize) -> Result<i64> {
        if let Some(values) = self.values.get() {
            return Ok(values[dense]);
        }
        match &self.codes {
            IntCodes::Delta { .. } | IntCodes::InPlace { .. } => Ok(self.values()?[dense]),
            IntCodes::For { base, packed } => Ok(base.wrapping_add(packed.get(dense) as i64)),
            IntCodes::Dict { entries, ids } => Ok(entries[ids.get(dense)? as usize]),
        }
    }

    /// Every value, decoded on the first call and kept.
    pub fn values(&self) -> Result<&[i64]> {
        if let Some(values) = self.values.get() {
            return Ok(values);
        }
        let values = Cow::Owned(self.decode()?);
        Ok(self.values.get_or_init(|| values))
    }

    /// The values, if [`Self::values`] already decoded them or they are
    /// in place.
    pub fn decoded(&self) -> Option<&[i64]> {
        self.values.get().map(|v| &**v)
    }

    /// Every value, decoded afresh.
    pub(crate) fn decode(&self) -> Result<Vec<i64>> {
        let mut out = Vec::with_capacity(self.count);
        match &self.codes {
            IntCodes::Delta { first, deltas } => {
                if self.count > 0 {
                    // Fused unpack + zigzag + prefix sum: one pass over
                    // the packed words, no intermediate delta vector.
                    let mut prev = *first;
                    out.push(prev);
                    deltas.for_each_in(0..deltas.len(), |_, d| {
                        prev = prev.wrapping_add(varint::zigzag_decode(d));
                        out.push(prev);
                    });
                }
            }
            IntCodes::For { base, packed } => {
                packed.for_each_in(0..self.count, |_, c| out.push(base.wrapping_add(c as i64)))
            }
            IntCodes::Dict { entries, ids } => {
                let mut bad = false;
                ids.for_each(|id| match entries.get(id as usize) {
                    Some(&v) => out.push(v),
                    None => bad = true,
                });
                if bad {
                    return Err(Error::Corrupt("dictionary index out of range"));
                }
            }
            IntCodes::InPlace { .. } => out.extend_from_slice(self.values()?),
        }
        Ok(out)
    }

    /// A bound on `|v|` over every value, read off the stored form in
    /// O(1): a frame of reference's base and code width, a chain's first
    /// value plus its length times the widest delta a code width allows,
    /// a dictionary's first and last entries, the builder's bounds.
    pub fn magnitude_bound(&self) -> u128 {
        match &self.codes {
            _ if self.count == 0 => 0,
            // A zig-zag code below 2^w decodes to at most 2^(w-1) away.
            IntCodes::Delta { first, deltas } => {
                first.unsigned_abs() as u128 + (((self.count - 1) as u128) << (deltas.width() - 1))
            }
            IntCodes::For { base, packed } => {
                let top = *base as i128 + ((1i128 << packed.width()) - 1);
                (base.unsigned_abs() as u128).max(top.unsigned_abs())
            }
            IntCodes::Dict { entries, .. } => match (entries.first(), entries.last()) {
                (Some(lo), Some(hi)) => lo.unsigned_abs().max(hi.unsigned_abs()) as u128,
                _ => 0,
            },
            IntCodes::InPlace { bound } => *bound as u128,
        }
    }

    /// The sum of the values at the selected present rows, in `i64`, when
    /// the row-order `f64` fold of them from `0.0` is exact: `n` values
    /// each at most [`Self::magnitude_bound`] keep every partial sum an
    /// integer of magnitude at most `n · bound`, and while that is at most
    /// `2^53` each `f64` addition is exact, so the total converted once
    /// has the fold's bits. `None`, having read nothing, otherwise.
    ///
    /// Each form is summed in place: a frame of reference as `n · base`
    /// plus its codes, a dictionary through its entries, a whole chain in
    /// one unpack pass that keeps no array (and counts as decoded, as
    /// [`Self::values`] would). A chain summed at some rows
    /// only is decoded first, as any read of it is. An id past the
    /// dictionary is `Corrupt`.
    pub fn exact_sum(&self, sel: &[u64], presence: Option<&Presence>) -> Result<Option<i64>> {
        let n = sel_count_present(sel, presence);
        if (n as u128)
            .checked_mul(self.magnitude_bound())
            .is_none_or(|most| most > F64_EXACT)
        {
            return Ok(None);
        }
        let whole = n == self.count as u64;
        let mut sum = 0i64;
        let mut add = |v: i64| sum = sum.wrapping_add(v);
        if let Some(values) = self.values.get() {
            sum_at(sel, presence, whole, values, add);
            return Ok(Some(sum));
        }
        match &self.codes {
            IntCodes::Delta { first, deltas } if whole => {
                // Delta `j` is in the last `n - 1 - j` values: the sum is
                // `n · first + Σ (n - 1 - j) · delta_j`, each term
                // independent of the others (wrapping, exact once
                // bounded).
                let m = deltas.len() as i64;
                let (mut plain, mut weighted) = (0i64, 0i64);
                deltas.for_each_in(0..deltas.len(), |j, d| {
                    let d = varint::zigzag_decode(d);
                    plain = plain.wrapping_add(d);
                    weighted = weighted.wrapping_add(d.wrapping_mul(j as i64));
                });
                add(first.wrapping_mul(n as i64));
                add(plain.wrapping_mul(m).wrapping_sub(weighted));
                self.streamed.set(n > 0);
            }
            IntCodes::Delta { .. } | IntCodes::InPlace { .. } => {
                sum_at(sel, presence, whole, self.values()?, add)
            }
            IntCodes::For { base, packed } => {
                let mut codes = 0u64;
                if whole {
                    packed.for_each_in(0..self.count, |_, c| codes = codes.wrapping_add(c));
                } else {
                    sel_for_each_present(sel, presence, |_, d| {
                        codes = codes.wrapping_add(packed.get(d))
                    });
                }
                add(base.wrapping_mul(n as i64).wrapping_add(codes as i64));
            }
            IntCodes::Dict { entries, ids } => {
                let mut bad = false;
                if whole {
                    ids.for_each(|id| match entries.get(id as usize) {
                        Some(&v) => add(v),
                        None => bad = true,
                    });
                } else {
                    sel_for_each_present(sel, presence, |_, d| match ids.get(d) {
                        Ok(id) => add(entries[id as usize]),
                        Err(_) => bad = true,
                    });
                }
                if bad {
                    return Err(Error::Corrupt("dictionary index out of range"));
                }
            }
        }
        Ok(Some(sum))
    }
}

/// Feed `add` the values at the selected present rows of a dense array;
/// `whole` when that is every value.
fn sum_at(
    sel: &[u64],
    presence: Option<&Presence>,
    whole: bool,
    values: &[i64],
    mut add: impl FnMut(i64),
) {
    if whole {
        add(values.iter().fold(0i64, |a, &v| a.wrapping_add(v)));
    } else {
        sel_for_each_present(sel, presence, |_, d| add(values[d]));
    }
}

/// Dictionary ids, bit-packed or the builder's in place. The ids are
/// range-checked as they are read: every id a scan reads is checked
/// against the entry count.
#[derive(Debug, Clone)]
pub struct DictIds<'a> {
    ids: Ids<'a>,
    entries: usize,
}

#[derive(Debug, Clone)]
enum Ids<'a> {
    Packed(Packed<'a>),
    InPlace(Cow<'a, [u32]>),
}

impl<'a> DictIds<'a> {
    fn packed(packed: Packed<'a>, entries: usize) -> DictIds<'a> {
        DictIds {
            ids: Ids::Packed(packed),
            entries,
        }
    }

    fn in_place(ids: Cow<'a, [u32]>, entries: usize) -> DictIds<'a> {
        DictIds {
            ids: Ids::InPlace(ids),
            entries,
        }
    }

    /// Number of ids (present rows).
    pub fn len(&self) -> usize {
        match &self.ids {
            Ids::Packed(packed) => packed.len(),
            Ids::InPlace(ids) => ids.len(),
        }
    }

    /// True if the column holds no present value.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visit every id in order, unchecked.
    fn for_each(&self, mut f: impl FnMut(u64)) {
        match &self.ids {
            Ids::Packed(packed) => packed.for_each_in(0..packed.len(), |_, id| f(id)),
            Ids::InPlace(ids) => ids.iter().for_each(|&id| f(id as u64)),
        }
    }

    /// The id of present value `dense`. Panics if `dense >= len()`.
    #[inline]
    pub fn get(&self, dense: usize) -> Result<u32> {
        let id = match &self.ids {
            Ids::Packed(packed) => packed.get(dense),
            Ids::InPlace(ids) => ids[dense] as u64,
        };
        if id >= self.entries as u64 {
            return Err(Error::Corrupt("dictionary index out of range"));
        }
        Ok(id as u32)
    }
}

impl<'a> ColumnView<'a> {
    /// Build a view over `column`'s buffer. Works identically for heap and
    /// mapped backings; the caller is responsible for checksum policy
    /// (mapped columns defer CRC to first touch, see the leaf's
    /// `touch_mapped`).
    pub fn build(column: &'a RowBlockColumn) -> Result<ColumnView<'a>> {
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
        let expected_present = presence.as_ref().map_or(n_items, Presence::count);
        if present_count != expected_present {
            return Err(Error::Corrupt("present-cell count does not match values"));
        }

        match h.column_type {
            ColumnType::Int64 => Ok(ColumnView::Int64 {
                presence,
                ints: IntValues::parse(buf, &h, data, pos, present_count)?,
            }),
            ColumnType::Double => {
                let (bytes, _p) = read_maybe_lz_cow(data, pos)?;
                if bytes.len() < present_count * 8 {
                    return Err(Error::Truncated {
                        needed: present_count * 8,
                        available: bytes.len(),
                    });
                }
                let lanes = DoubleLanes {
                    bytes,
                    count: present_count,
                    values: OnceCell::new(),
                };
                Ok(ColumnView::Double { presence, lanes })
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
                let ids =
                    DictIds::packed(Packed::new(packed, width, present_count)?, entries.len());
                Ok(ColumnView::Dict {
                    presence,
                    ids,
                    entries: Cow::Owned(entries),
                })
            }
            ColumnType::StrSet => Ok(ColumnView::StrSet(Cow::Owned(column.decode()?))),
        }
    }

    /// A view over the cells of a column still being built, read where
    /// they lie: the dense integers and doubles, a string dictionary's ids
    /// and entries, a string set's cells. Only the presence bitmap is
    /// copied (it gains its rank table). `int_range` is an integer
    /// column's smallest and largest value, if the caller kept them
    /// (`RowBlockBuilder::view` does); without it no integer sum is proved
    /// exact ([`IntValues::exact_sum`]).
    pub(crate) fn in_place(data: &'a ColumnData, int_range: Option<(i64, i64)>) -> ColumnView<'a> {
        let presence = data.presence().map(|bits| Presence::new(bits.to_vec()));
        match data.values() {
            ColumnValues::Int64(values) => ColumnView::Int64 {
                presence,
                ints: IntValues::in_place(values, int_range),
            },
            ColumnValues::Double(values) => ColumnView::Double {
                presence,
                lanes: DoubleLanes::in_place(values),
            },
            ColumnValues::Dict(dict) => ColumnView::Dict {
                presence,
                ids: DictIds::in_place(Cow::Borrowed(dict.ids()), dict.entries().len()),
                entries: Cow::Borrowed(dict.entries()),
            },
            ColumnValues::Str(values) => {
                let dict = dictionary::encode(values);
                ColumnView::Dict {
                    presence,
                    ids: DictIds::in_place(Cow::Owned(dict.indexes), dict.entries.len()),
                    entries: Cow::Owned(dict.entries),
                }
            }
            ColumnValues::StrSet(_) => ColumnView::StrSet(Cow::Borrowed(data)),
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

    /// How many values this view has decoded in full so far: integers
    /// and doubles once something asked for [`IntValues::values`] or
    /// [`DoubleLanes::values`] (any read of a delta chain does, a sum of a
    /// whole chain too, which keeps no array), string sets (every row) at
    /// build, dictionary ids never. A view of the open block
    /// (`RowBlockBuilder::view`) decodes nothing: its values are already
    /// the builder's.
    pub fn values_decoded(&self) -> u64 {
        fn owned<T: Clone>(values: &OnceCell<Cow<'_, [T]>>) -> u64 {
            match values.get() {
                Some(Cow::Owned(v)) => v.len() as u64,
                _ => 0,
            }
        }
        match self {
            ColumnView::Int64 { ints, .. } => match owned(&ints.values) {
                0 if ints.streamed.get() => ints.count as u64,
                decoded => decoded,
            },
            ColumnView::Double { lanes, .. } => owned(&lanes.values),
            ColumnView::Dict { .. } => 0,
            ColumnView::StrSet(Cow::Owned(data)) => data.len() as u64,
            ColumnView::StrSet(Cow::Borrowed(_)) => 0,
        }
    }

    /// The cell at `row`, boxed — identical to `ColumnData::get`. The
    /// vectorized executor only calls this for *selected* rows (group keys
    /// and aggregate inputs); filters never box.
    pub fn value(&self, row: usize) -> Result<Value> {
        let dense = |presence: &Option<Presence>| dense_index(presence.as_ref(), row);
        Ok(match self {
            ColumnView::Int64 { presence, ints } => match dense(presence) {
                None => Value::Null,
                Some(i) => Value::Int(ints.get(i)?),
            },
            ColumnView::Double { presence, lanes } => dense(presence).map_or(Value::Null, |i| {
                Value::Double(lanes.decoded().map_or_else(|| lanes.get(i), |v| v[i]))
            }),
            ColumnView::Dict {
                presence,
                ids,
                entries,
            } => match dense(presence) {
                None => Value::Null,
                Some(i) => Value::Str(entries[ids.get(i)? as usize].clone()),
            },
            ColumnView::StrSet(data) => data.get(row),
        })
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

/// Number of selected rows that are present.
#[inline]
pub fn sel_count_present(sel: &[u64], presence: Option<&Presence>) -> u64 {
    match presence {
        None => sel_count(sel),
        Some(p) => sel
            .iter()
            .zip(&p.bits)
            .map(|(s, pw)| (s & pw).count_ones() as u64)
            .sum(),
    }
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

/// Selected rows in a word from which the filter kernels test all 64
/// values branch-free rather than visiting each selected row.
const RUN_MIN: u32 = 16;

/// AND the selection with a typed predicate over the present values of a
/// column: a selected row survives iff it is present *and* `pred` holds
/// for its value. Null rows never match (the row-wise `Filter::matches`
/// null rule). One pass, word-at-a-time, with an O(1) dense cursor.
///
/// The common case — a column without nulls under a selection word with
/// at least `RUN_MIN` rows left, i.e. the first filter of a query and
/// most second ones — takes a dense path: the mask of 64 contiguous values
/// is built branch-free, which the compiler unrolls, and ANDed with the
/// word, instead of one `trailing_zeros` round trip per selected row.
pub fn sel_retain<T: Copy>(
    sel: &mut [u64],
    presence: Option<&Presence>,
    values: &[T],
    mut pred: impl FnMut(T) -> bool,
) {
    let Some(presence) = presence else {
        for (w, word) in sel.iter_mut().enumerate() {
            let mut keep = 0u64;
            if word.count_ones() >= RUN_MIN && values.len() >= w * 64 + 64 {
                for (b, &v) in values[w * 64..w * 64 + 64].iter().enumerate() {
                    keep |= (pred(v) as u64) << b;
                }
                keep &= *word;
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

/// [`sel_retain`] over a bit-packed code stream (dictionary ids,
/// frame-of-reference codes), testing each selected present row's code in
/// place: no array is unpacked first. A selection word of a column without
/// nulls with at least `RUN_MIN` rows left reads its 64 codes as one run
/// of the word-speed unpack kernel; other words read the codes of their
/// selected present rows one by one.
pub fn sel_retain_packed(
    sel: &mut [u64],
    presence: Option<&Presence>,
    packed: &Packed<'_>,
    mut test: impl FnMut(u64) -> bool,
) {
    let Some(presence) = presence else {
        for (w, word) in sel.iter_mut().enumerate() {
            let mut keep = 0u64;
            if word.count_ones() >= RUN_MIN && packed.len() >= w * 64 + 64 {
                packed.for_each_in(w * 64..w * 64 + 64, |i, c| {
                    keep |= (test(c) as u64) << (i % 64)
                });
                keep &= *word;
            } else {
                let mut bits = *word;
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    keep |= (test(packed.get(w * 64 + b)) as u64) << b;
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
            keep |= (test(packed.get(presence.dense_in_word(w, b))) as u64) << b;
        }
        *word = keep;
    }
}

/// [`sel_retain_packed`] for a dictionary column, testing the packed ids
/// against `mask` — through a byte per possible id when ids are at most 8
/// bits wide. An id past the dictionary is `Corrupt`.
pub fn sel_retain_ids(
    sel: &mut [u64],
    presence: Option<&Presence>,
    ids: &DictIds<'_>,
    mask: &DictMask,
) -> Result<()> {
    let (entries, mut bad) = (ids.entries as u64, false);
    match &ids.ids {
        Ids::Packed(packed) if packed.width() <= 8 => {
            // 1 = match, 2 = past the dictionary: one table load per id,
            // no shift by the id.
            let mut lut = [2u8; 256];
            for (id, t) in lut.iter_mut().enumerate().take(ids.entries) {
                *t = mask.matches(id as u64) as u8;
            }
            let mut flags = 0u8;
            sel_retain_packed(sel, presence, packed, |id| {
                let t = lut[id as usize & 255];
                flags |= t;
                t & 1 != 0
            });
            bad = flags & 2 != 0;
        }
        Ids::Packed(packed) => sel_retain_packed(sel, presence, packed, |id| {
            bad |= id >= entries;
            mask.matches(id)
        }),
        Ids::InPlace(in_place) => sel_retain(sel, presence, in_place, |id| {
            bad |= id as u64 >= entries;
            mask.matches(id as u64)
        }),
    }
    if bad {
        return Err(Error::Corrupt("dictionary index out of range"));
    }
    Ok(())
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

/// Visit every selected row in ascending order as `(row, dense)`, with
/// `dense` `None` where the column is null: how group keys read a
/// dictionary id at each selected row and send null cells to the `Null`
/// key.
pub fn sel_for_each_dense(
    sel: &[u64],
    presence: Option<&Presence>,
    mut f: impl FnMut(usize, Option<usize>),
) {
    let Some(presence) = presence else {
        return sel_for_each(sel, |row| f(row, Some(row)));
    };
    for (w, (&word, &pw)) in sel.iter().zip(&presence.bits).enumerate() {
        let mut bits = word;
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let dense = (pw >> b & 1 != 0).then(|| presence.dense_in_word(w, b));
            f(w * 64 + b, dense);
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
    pub fn build<T>(entries: &[T], mut pred: impl FnMut(&T) -> bool) -> DictMask {
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

    /// Does dictionary id `id` match? An id past the dictionary never
    /// does.
    #[inline]
    pub fn matches(&self, id: u64) -> bool {
        self.words
            .get((id / 64) as usize)
            .is_some_and(|w| w & (1u64 << (id % 64)) != 0)
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
        mixed_builder().finish().unwrap()
    }

    fn mixed_builder() -> RowBlockBuilder {
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
        b
    }

    #[test]
    fn views_agree_with_decode_for_every_column() {
        let block = mixed_block();
        for (name, _) in block.schema().iter() {
            let col = block.column(name).unwrap();
            let data = col.decode().unwrap();
            let view = ColumnView::build(col).unwrap();
            for row in 0..block.row_count() {
                assert_eq!(
                    view.value(row).unwrap(),
                    data.get(row),
                    "column {name} row {row}"
                );
            }
        }
    }

    /// A view built in place reads the builder's cells, nulls included,
    /// and decodes nothing.
    #[test]
    fn in_place_views_agree_with_the_builders_cells() {
        let b = mixed_builder();
        for (name, _) in b.schema().iter() {
            let data = b.column(name).unwrap();
            let view = b.view(name).unwrap();
            for row in 0..b.row_count() {
                assert_eq!(view.value(row).unwrap(), data.get(row), "{name} row {row}");
            }
            assert_eq!(view.values_decoded(), 0, "{name}");
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
                assert_eq!(
                    view.value(row).unwrap(),
                    data.get(row),
                    "column {name} row {row}"
                );
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
            ColumnView::Int64 { presence, ints } => (presence.as_ref(), ints.values().unwrap()),
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

    /// 300 rows, every fifth null, over `distinct` dictionary entries.
    fn dict_block(distinct: usize) -> crate::rowblock::RowBlock {
        let mut b = RowBlockBuilder::new(0);
        for i in 0..300usize {
            let mut row = Row::at(i as i64);
            if i % 5 != 2 {
                row.set("k", format!("k{}", (i * 7919) % distinct));
                row.set("d", i as f64 * -0.75);
            }
            b.push_row(&row).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn packed_ids_read_at_a_row_equal_the_full_unpack() {
        for distinct in [1, 2, 3, 64, 200] {
            let block = dict_block(distinct);
            let col = block.column("k").unwrap();
            let view = ColumnView::build(col).unwrap();
            let ColumnView::Dict { ids, entries, .. } = &view else {
                panic!("a string column views as a dictionary");
            };
            let mut unpacked = Vec::new();
            ids.for_each(|id| unpacked.push(id));
            let data = col.decode().unwrap();
            let mut dense = 0;
            for row in 0..block.row_count() {
                let Value::Str(s) = data.get(row) else {
                    continue;
                };
                let id = ids.get(dense).unwrap();
                assert_eq!(
                    id as u64, unpacked[dense],
                    "distinct {distinct} dense {dense}"
                );
                assert_eq!(entries[id as usize], s);
                dense += 1;
            }
            assert_eq!(dense, ids.len());
        }
    }

    #[test]
    fn packed_id_filter_equals_row_wise_test() {
        for distinct in [3, 64, 200] {
            let block = dict_block(distinct);
            let col = block.column("k").unwrap();
            let data = col.decode().unwrap();
            let view = ColumnView::build(col).unwrap();
            let ColumnView::Dict {
                presence,
                ids,
                entries,
            } = &view
            else {
                unreachable!()
            };
            let mask = DictMask::build(entries, |e| e.ends_with('1') || e == "k0");
            // Full words first (the run path), then a sparse selection.
            for sparse in [false, true] {
                let mut sel = sel_all(block.row_count());
                if sparse {
                    sel[0] &= 0x5555_5555_5555_5555;
                    sel[2] = 0;
                }
                let want: Vec<usize> = (0..block.row_count())
                    .filter(|&r| sel[r / 64] >> (r % 64) & 1 != 0)
                    .filter(
                        |&r| matches!(data.get(r), Value::Str(s) if s.ends_with('1') || s == "k0"),
                    )
                    .collect();
                sel_retain_ids(&mut sel, presence.as_ref(), ids, &mask).unwrap();
                let mut got = Vec::new();
                sel_for_each(&sel, |r| got.push(r));
                assert_eq!(got, want, "distinct {distinct} sparse {sparse}");
            }
            // Without nulls: full and half-full words take the run path,
            // a word below `RUN_MIN` rows the per-row one.
            let no_nulls = DictIds {
                ids: ids.ids.clone(),
                entries: entries.len(),
            };
            let mut sel = sel_all(ids.len());
            sel[1] = 0x00FF_00FF_00FF_00FF;
            sel[2] = 0x8000_0000_0000_0101;
            let before = sel.clone();
            sel_retain_ids(&mut sel, None, &no_nulls, &mask).unwrap();
            let mut got = Vec::new();
            sel_for_each(&sel, |r| got.push(r));
            let want: Vec<usize> = (0..ids.len())
                .filter(|&d| before[d / 64] >> (d % 64) & 1 != 0)
                .filter(|&d| mask.matches(ids.get(d).unwrap() as u64))
                .collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn ids_past_the_dictionary_are_corrupt_when_read() {
        let block = dict_block(3);
        let view = ColumnView::build(block.column("k").unwrap()).unwrap();
        let ColumnView::Dict { presence, ids, .. } = &view else {
            unreachable!()
        };
        // Pretend the dictionary lost its last entry: id 2 is now past it.
        let short = DictIds {
            ids: ids.ids.clone(),
            entries: 2,
        };
        let mask = DictMask::build(&["k0".to_owned(), "k1".to_owned()], |_| true);
        let mut sel = sel_all(block.row_count());
        assert_eq!(
            sel_retain_ids(&mut sel, presence.as_ref(), &short, &mask),
            Err(Error::Corrupt("dictionary index out of range"))
        );
        let past = (0..short.len())
            .find(|&d| ids.get(d).unwrap() == 2)
            .unwrap();
        assert!(short.get(past).is_err());
    }

    #[test]
    fn gathered_doubles_equal_unshuffled_ones() {
        let block = dict_block(3);
        let view = ColumnView::build(block.column("d").unwrap()).unwrap();
        let ColumnView::Double { lanes, .. } = &view else {
            unreachable!()
        };
        assert_eq!(view.values_decoded(), 0);
        assert!(lanes.decoded().is_none());
        let gathered: Vec<u64> = (0..lanes.len()).map(|d| lanes.get(d).to_bits()).collect();
        let values: Vec<u64> = lanes.values().iter().map(|v| v.to_bits()).collect();
        assert_eq!(gathered, values);
        assert_eq!(view.values_decoded(), lanes.len() as u64);
    }

    #[test]
    fn sel_for_each_dense_reports_nulls() {
        let block = mixed_block();
        for name in ["n", "d", "host", TIME] {
            let view = ColumnView::build(block.column(name).unwrap()).unwrap();
            let mut sel = sel_all(block.row_count());
            sel[1] &= 0x0F0F_0F0F_0F0F_0F0F;
            let mut got = Vec::new();
            sel_for_each_dense(&sel, view.presence(), |row, dense| got.push((row, dense)));
            let mut want = Vec::new();
            sel_for_each(&sel, |row| {
                want.push((row, dense_index(view.presence(), row)))
            });
            assert_eq!(got, want, "column {name}");
        }
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
        assert_eq!(p.count(), naive);
    }
}
