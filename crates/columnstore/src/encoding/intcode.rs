//! The per-block choice of how an integer column's present values are
//! coded before bit packing (§2.1: "at least two" methods per column, the
//! mix chosen per column and per block).
//!
//! * [`IntForm::Delta`]: the first value, then zig-zag deltas — small for
//!   near-monotonic columns (`time`, sequence numbers), but a chain: value
//!   `i` needs every delta before it.
//! * [`IntForm::For`]: frame of reference — `v - min` as unsigned codes,
//!   random access, for values spread over a narrow range.
//! * [`IntForm::Dict`]: sorted ascending distinct values plus one id per
//!   value, random access, for columns with few distinct values (status
//!   codes, enums).
//!
//! [`IntStats::of`] gathers what the choice needs — one pass for the
//! range and the widest delta, then distinct values only while a
//! dictionary could still win — and [`IntStats::choose`] picks the form
//! with the fewest packed bytes, keeping the delta form on a tie.

use super::bitpack;
use super::varint::zigzag_encode;

/// Most distinct values an integer dictionary holds. Counting stops past
/// it, so a high-cardinality column pays for at most this many inserts.
pub const DICT_MAX_ENTRIES: usize = 1 << DICT_MAX_BITS;
const DICT_MAX_BITS: u32 = 12;

/// How an integer column's present values are coded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntForm {
    /// First value plus bit-packed zig-zag deltas.
    Delta,
    /// Minimum plus bit-packed `v - min` codes.
    For,
    /// Sorted distinct values plus bit-packed ids.
    Dict,
}

/// What a block's present values tell the choice of form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntStats {
    count: usize,
    min: i64,
    max: i64,
    /// OR of every zig-zag delta: its bit width is the widest delta's.
    delta_bits: u64,
    /// The distinct values, unsorted; `None` when a dictionary cannot
    /// win: more values than ids narrower than the other forms' codes
    /// can name, or than [`DICT_MAX_ENTRIES`].
    distinct: Option<Vec<i64>>,
}

impl IntStats {
    /// Scan `values`: once for the range and the widest delta, then for
    /// distinct values only up to the count at which a dictionary stops
    /// paying. Its ids must be narrower than the narrower of the delta
    /// and frame-of-reference codes, since its entries cost more than
    /// their 9-byte header — so a `time` or sequence column, whose deltas
    /// are a bit or two wide, is never hashed.
    pub fn of(values: &[i64]) -> IntStats {
        let Some(&first) = values.first() else {
            return IntStats {
                count: 0,
                min: 0,
                max: 0,
                delta_bits: 0,
                distinct: Some(Vec::new()),
            };
        };
        let (mut min, mut max, mut prev, mut delta_bits) = (first, first, first, 0u64);
        for &v in values {
            min = min.min(v);
            max = max.max(v);
            delta_bits |= zigzag_encode(v.wrapping_sub(prev));
            prev = v;
        }
        let mut stats = IntStats {
            count: values.len(),
            min,
            max,
            delta_bits,
            distinct: None,
        };
        let narrowest = stats.for_width().min(stats.delta_width());
        let cap = match narrowest {
            1 => 0,
            w => 1 << (w - 1).min(DICT_MAX_BITS),
        };
        let mut set = DistinctSet::new();
        if values.iter().all(|&v| set.insert(v, cap)) {
            stats.distinct = Some(set.into_values());
        }
        stats
    }

    /// The smallest value.
    pub fn min(&self) -> i64 {
        self.min
    }

    /// Bit width of the frame-of-reference codes.
    pub fn for_width(&self) -> u32 {
        bitpack::width_for(&[self.max.wrapping_sub(self.min) as u64])
    }

    /// Bit width of the delta codes.
    pub fn delta_width(&self) -> u32 {
        bitpack::width_for(&[self.delta_bits])
    }

    /// The form with the fewest bytes before LZ: payload header, entries
    /// and packed codes. Ties keep the earlier of delta, frame of
    /// reference, dictionary — so a column today's delta form serves as
    /// well is written as it always was.
    pub fn choose(&self) -> IntForm {
        if self.count == 0 {
            return IntForm::Delta;
        }
        // first/min i64 + width byte + packed codes.
        let delta = 9 + bitpack::packed_size(self.count - 1, self.delta_width());
        let for_ = 9 + bitpack::packed_size(self.count, self.for_width());
        let dict = self.distinct.as_ref().map_or(usize::MAX, |d| {
            8 * d.len() + 1 + bitpack::packed_size(self.count, dict_width(d.len()))
        });
        let mut best = (delta, IntForm::Delta);
        for candidate in [(for_, IntForm::For), (dict, IntForm::Dict)] {
            if candidate.0 < best.0 {
                best = candidate;
            }
        }
        best.1
    }

    /// The dictionary entries, sorted ascending; `None` when a
    /// dictionary cannot win.
    pub fn sorted_entries(&self) -> Option<Vec<i64>> {
        let mut entries = self.distinct.clone()?;
        entries.sort_unstable();
        Some(entries)
    }
}

/// Bit width of ids into a dictionary of `entries` values.
pub fn dict_width(entries: usize) -> u32 {
    bitpack::width_for(&[entries.saturating_sub(1) as u64])
}

/// Frame-of-reference codes: `v - base`, wrapping, as unsigned.
pub fn for_codes(values: &[i64], base: i64) -> Vec<u64> {
    values
        .iter()
        .map(|&v| v.wrapping_sub(base) as u64)
        .collect()
}

/// Dictionary ids of `values` in `entries` (sorted ascending, holding
/// every value).
pub fn dict_ids(values: &[i64], entries: &[i64]) -> Vec<u64> {
    values
        .iter()
        .map(|v| entries.binary_search(v).expect("every value has an entry") as u64)
        .collect()
}

/// An open-addressing set of `i64` that refuses to grow past a cap.
struct DistinctSet {
    slots: Vec<Option<i64>>,
    len: usize,
}

impl DistinctSet {
    fn new() -> DistinctSet {
        DistinctSet {
            slots: vec![None; 16],
            len: 0,
        }
    }

    /// Insert `v`; false if that would make more than `cap` values.
    #[inline]
    fn insert(&mut self, v: i64, cap: usize) -> bool {
        let mask = self.slots.len() - 1;
        let mut i = Self::hash(v, self.slots.len());
        loop {
            match self.slots[i] {
                Some(x) if x == v => return true,
                Some(_) => i = (i + 1) & mask,
                None => break,
            }
        }
        if self.len == cap {
            return false;
        }
        self.slots[i] = Some(v);
        self.len += 1;
        if self.len * 2 > self.slots.len() {
            self.grow();
        }
        true
    }

    fn hash(v: i64, slots: usize) -> usize {
        ((v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - slots.trailing_zeros())) as usize
    }

    fn grow(&mut self) {
        let grown = vec![None; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, grown);
        let mask = self.slots.len() - 1;
        for v in old.into_iter().flatten() {
            let mut i = Self::hash(v, self.slots.len());
            while self.slots[i].is_some() {
                i = (i + 1) & mask;
            }
            self.slots[i] = Some(v);
        }
    }

    fn into_values(self) -> Vec<i64> {
        self.slots.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_columns_stay_delta() {
        let seq: Vec<i64> = (0..65_536).collect();
        assert_eq!(IntStats::of(&seq).choose(), IntForm::Delta);
        let ts: Vec<i64> = (0..65_536).map(|i| 1_700_000_000 + i / 10).collect();
        assert_eq!(IntStats::of(&ts).choose(), IntForm::Delta);
    }

    #[test]
    fn few_values_become_a_dictionary() {
        let status: Vec<i64> = (0..65_536)
            .map(|i| [200, 200, 200, 302, 404, 500][i % 6])
            .collect();
        let stats = IntStats::of(&status);
        assert_eq!(stats.choose(), IntForm::Dict);
        assert_eq!(stats.sorted_entries().unwrap(), [200, 302, 404, 500]);
        assert_eq!(dict_width(4), 2);
        assert_eq!(dict_width(1), 1);
    }

    #[test]
    fn a_narrow_spread_becomes_a_frame_of_reference() {
        // Scattered values in [50, 1_000_050): 20-bit codes, no order.
        let mut x = 7u64;
        let values: Vec<i64> = (0..65_536)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                50 + ((x >> 33) % 1_000_000) as i64
            })
            .collect();
        let stats = IntStats::of(&values);
        assert_eq!(stats.for_width(), 20);
        assert_eq!(stats.choose(), IntForm::For);
        assert!(stats.sorted_entries().is_none());
    }

    #[test]
    fn ties_keep_the_delta_form() {
        // A constant: every form packs one-bit codes into the same words.
        assert_eq!(IntStats::of(&[5; 640]).choose(), IntForm::Delta);
        // A 17-value cycle: 5-bit deltas and 5-bit offsets, same words.
        let cycle: Vec<i64> = (0..600).map(|i| 100 + i % 17).collect();
        assert_eq!(IntStats::of(&cycle).choose(), IntForm::Delta);
        // 0, 1, 0, 1 …: two-bit deltas, one-bit offsets.
        let values: Vec<i64> = (0..640).map(|i| i % 2).collect();
        assert_eq!(IntStats::of(&values).choose(), IntForm::For);
        assert_eq!(IntStats::of(&[]).choose(), IntForm::Delta);
        assert_eq!(IntStats::of(&[42]).choose(), IntForm::Delta);
    }

    #[test]
    fn the_whole_range_codes_and_round_trips() {
        let values = [i64::MIN, i64::MAX, 0, -1, i64::MIN + 1];
        let stats = IntStats::of(&values);
        assert_eq!(stats.for_width(), 64);
        let codes = for_codes(&values, stats.min());
        let back: Vec<i64> = codes
            .iter()
            .map(|&c| stats.min().wrapping_add(c as i64))
            .collect();
        assert_eq!(back, values);
        let entries = stats.sorted_entries().unwrap();
        let ids = dict_ids(&values, &entries);
        let back: Vec<i64> = ids.iter().map(|&i| entries[i as usize]).collect();
        assert_eq!(back, values);
    }

    #[test]
    fn distinct_counting_stops_past_the_cap() {
        let values: Vec<i64> = (0..DICT_MAX_ENTRIES as i64 + 1)
            .map(|i| i * 1_000_003)
            .collect();
        assert!(IntStats::of(&values).sorted_entries().is_none());
        let values = &values[..DICT_MAX_ENTRIES];
        let entries = IntStats::of(values).sorted_entries().unwrap();
        assert_eq!(entries.len(), DICT_MAX_ENTRIES);
        assert!(entries.windows(2).all(|w| w[0] < w[1]));
    }
}
