//! Fixed-width bit packing of unsigned integers.
//!
//! After delta (ints) or dictionary (strings) encoding, column payloads are
//! small unsigned numbers; packing them at the minimum width needed for the
//! largest value is where most of the integer-column compression comes from.

use std::borrow::Cow;
use std::ops::Range;

use crate::error::{Error, Result};

/// Minimum bit width able to represent every value in `values` (1..=64;
/// returns 1 for empty or all-zero input so the decoder never divides by
/// zero).
pub fn width_for(values: &[u64]) -> u32 {
    let max = values.iter().copied().max().unwrap_or(0);
    if max == 0 {
        1
    } else {
        64 - max.leading_zeros()
    }
}

/// Pack `values` at `width` bits each, LSB-first within a little-endian
/// 64-bit word stream. Panics in debug builds if a value exceeds `width`.
pub fn pack(values: &[u64], width: u32) -> Vec<u8> {
    assert!((1..=64).contains(&width), "bit width must be in 1..=64");
    let total_bits = values.len() as u64 * width as u64;
    let n_words = total_bits.div_ceil(64) as usize;
    let mut words = vec![0u64; n_words];
    let mut bit = 0u64;
    for &v in values {
        debug_assert!(width == 64 || v < (1u64 << width), "value exceeds width");
        let word = (bit / 64) as usize;
        let off = (bit % 64) as u32;
        words[word] |= v << off;
        let spill = off + width;
        if spill > 64 {
            words[word + 1] |= v >> (64 - off);
        }
        bit += width as u64;
    }
    let mut out = Vec::with_capacity(n_words * 8);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

/// Unpack `count` values of `width` bits each from `bytes`.
pub fn unpack(bytes: &[u8], width: u32, count: usize) -> Result<Vec<u64>> {
    let mut out = Vec::with_capacity(count);
    unpack_each(bytes, width, count, |_, v| out.push(v))?;
    Ok(out)
}

/// Widest value one unaligned 8-byte load always holds whole: a value
/// starts at most 7 bits into its first byte.
const LOAD_WIDTH_MAX: u32 = 56;

/// Check `width` and that `bytes` holds `count` values at it; returns the
/// value mask.
fn check(bytes: &[u8], width: u32, count: usize) -> Result<u64> {
    if !(1..=64).contains(&width) {
        return Err(Error::Corrupt("bit width out of range"));
    }
    let needed_bytes = packed_size(count, width);
    if bytes.len() < needed_bytes {
        return Err(Error::Truncated {
            needed: needed_bytes,
            available: bytes.len(),
        });
    }
    Ok(if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    })
}

/// The value at bit `bit` read from the aligned little-endian words it
/// spans; `bytes` must hold them. Serves the tail of a stream, and widths
/// a single load cannot hold.
fn read_words(bytes: &[u8], width: u32, mask: u64, bit: u64) -> u64 {
    let word_at = |i: usize| u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap());
    let word = (bit / 64) as usize;
    let off = (bit % 64) as u32;
    let mut v = word_at(word) >> off;
    if off + width > 64 {
        v |= word_at(word + 1) << (64 - off);
    }
    v & mask
}

/// The value at bit `bit` read with one unaligned load of the 8 bytes
/// starting at its first byte; `None` when fewer than 8 bytes remain.
/// Only for widths up to [`LOAD_WIDTH_MAX`].
#[inline]
fn read_load(bytes: &[u8], mask: u64, bit: u64) -> Option<u64> {
    let at = (bit / 8) as usize;
    let chunk: [u8; 8] = bytes.get(at..at + 8)?.try_into().unwrap();
    Some((u64::from_le_bytes(chunk) >> (bit % 8)) & mask)
}

/// Visit `count` values of `width` bits each straight out of `bytes`,
/// without allocating a `Vec<u64>` word buffer first. Scan kernels use
/// this to test packed dictionary ids and deltas in place over (possibly
/// shared-memory-mapped) buffers; `f` receives `(index, value)`.
///
/// Widths up to 56 take one unaligned 8-byte load per value while 8 bytes
/// remain; the stream's last few values, and wider widths, are read from
/// the aligned words they span.
pub fn unpack_each(
    bytes: &[u8],
    width: u32,
    count: usize,
    f: impl FnMut(usize, u64),
) -> Result<()> {
    let mask = check(bytes, width, count)?;
    visit(bytes, width, mask, 0..count, f);
    Ok(())
}

/// The loop behind [`unpack_each`] and [`Packed::for_each_in`], over
/// values `range` of a stream [`check`] accepted.
#[inline]
fn visit(bytes: &[u8], width: u32, mask: u64, range: Range<usize>, mut f: impl FnMut(usize, u64)) {
    let mut i = range.start;
    if width <= LOAD_WIDTH_MAX && bytes.len() >= 8 {
        // Value `i` starts in byte `i * width / 8`; every value starting
        // at or before byte `len - 8` has a full load behind it.
        let last_loadable = ((bytes.len() - 8) as u64 * 8 + 7) / width as u64;
        let loadable = range.end.min(last_loadable as usize + 1);
        while i < loadable {
            let bit = i as u64 * width as u64;
            let at = (bit / 8) as usize;
            let chunk: [u8; 8] = bytes[at..at + 8].try_into().unwrap();
            f(i, (u64::from_le_bytes(chunk) >> (bit % 8)) & mask);
            i += 1;
        }
    }
    while i < range.end {
        f(i, read_words(bytes, width, mask, i as u64 * width as u64));
        i += 1;
    }
}

/// A packed stream checked once, then read at any index: what lets a scan
/// read a dictionary id at a selected row without unpacking the rest.
#[derive(Debug, Clone)]
pub struct Packed<'a> {
    bytes: Cow<'a, [u8]>,
    width: u32,
    count: usize,
    mask: u64,
}

impl<'a> Packed<'a> {
    /// Wrap `bytes` holding `count` values at `width` bits; fails exactly
    /// as [`unpack`] would.
    pub fn new(bytes: Cow<'a, [u8]>, width: u32, count: usize) -> Result<Packed<'a>> {
        let mask = check(&bytes, width, count)?;
        Ok(Packed {
            bytes,
            width,
            count,
            mask,
        })
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Bits per value.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// True if the stream holds no value.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The value at `index`. Panics if `index >= len()`.
    #[inline]
    pub fn get(&self, index: usize) -> u64 {
        assert!(index < self.count, "packed index out of range");
        let bit = index as u64 * self.width as u64;
        if self.width <= LOAD_WIDTH_MAX {
            if let Some(v) = read_load(&self.bytes, self.mask, bit) {
                return v;
            }
        }
        read_words(&self.bytes, self.width, self.mask, bit)
    }

    /// Visit the values at `range` in order, as [`unpack_each`] visits
    /// them. Panics if the range runs past `len()`.
    #[inline]
    pub fn for_each_in(&self, range: Range<usize>, f: impl FnMut(usize, u64)) {
        assert!(range.end <= self.count, "packed range out of bounds");
        visit(&self.bytes, self.width, self.mask, range, f);
    }
}

/// Packed size in bytes for `count` values at `width` bits.
pub fn packed_size(count: usize, width: u32) -> usize {
    ((count as u64 * width as u64).div_ceil(64) * 8) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(values: &[u64]) {
        let width = width_for(values);
        let packed = pack(values, width);
        assert_eq!(packed.len(), packed_size(values.len(), width));
        assert_eq!(unpack(&packed, width, values.len()).unwrap(), values);
        // The allocation-free visitor must see the same stream.
        let mut seen = Vec::new();
        unpack_each(&packed, width, values.len(), |i, v| {
            assert_eq!(i, seen.len());
            seen.push(v);
        })
        .unwrap();
        assert_eq!(seen, values);
    }

    #[test]
    fn round_trips_at_inferred_width() {
        round_trip(&[]);
        round_trip(&[0]);
        round_trip(&[0, 0, 0]);
        round_trip(&[1, 2, 3, 4, 5, 6, 7]);
        round_trip(&[u64::MAX, 0, u64::MAX / 2]);
        round_trip(&(0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn every_width_round_trips() {
        for width in 1..=64u32 {
            let max = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let values: Vec<u64> = (0..130).map(|i| (i * 2654435761u64) & max).collect();
            let packed = pack(&values, width);
            assert_eq!(
                unpack(&packed, width, values.len()).unwrap(),
                values,
                "width={width}"
            );
        }
    }

    /// Bit-at-a-time reference reader: value `i` is bits
    /// `i * width .. (i + 1) * width` of the little-endian stream.
    fn naive(bytes: &[u8], width: u32, count: usize) -> Vec<u64> {
        (0..count)
            .map(|i| {
                (0..width as usize).fold(0u64, |v, b| {
                    let bit = i * width as usize + b;
                    v | (((bytes[bit / 8] >> (bit % 8)) & 1) as u64) << b
                })
            })
            .collect()
    }

    #[test]
    fn kernels_agree_with_naive_reader_at_every_width_and_count() {
        for width in 1..=64u32 {
            let max = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let all: Vec<u64> = (0..130u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(i as u32) & max)
                .collect();
            for count in 0..=130usize {
                let values = &all[..count];
                // Exactly `packed_size` bytes: the last values take the
                // aligned-word tail path.
                let packed = pack(values, width);
                assert_eq!(packed.len(), packed_size(count, width));
                let want = naive(&packed, width, count);
                assert_eq!(want, values, "naive reader, width {width} count {count}");
                assert_eq!(unpack(&packed, width, count).unwrap(), want);
                let mut seen = Vec::new();
                unpack_each(&packed, width, count, |i, v| {
                    assert_eq!(i, seen.len());
                    seen.push(v);
                })
                .unwrap();
                assert_eq!(seen, want, "unpack_each, width {width} count {count}");
                let ids = Packed::new(Cow::Borrowed(&packed), width, count).unwrap();
                for (i, &v) in want.iter().enumerate() {
                    assert_eq!(ids.get(i), v, "get({i}), width {width} count {count}");
                }
                if count > 0 {
                    let mut tail = Vec::new();
                    ids.for_each_in(count / 2..count, |_, v| tail.push(v));
                    assert_eq!(tail, want[count / 2..]);
                }
                // A longer buffer reads the same values.
                let mut padded = packed.clone();
                padded.extend_from_slice(&[0xA5; 11]);
                assert_eq!(unpack(&padded, width, count).unwrap(), want);
                // One byte short is rejected, as it always was.
                if !packed.is_empty() {
                    let short = &packed[..packed.len() - 1];
                    let err = Error::Truncated {
                        needed: packed.len(),
                        available: packed.len() - 1,
                    };
                    assert_eq!(unpack(short, width, count).unwrap_err(), err);
                    assert_eq!(
                        unpack_each(short, width, count, |_, _| {}).unwrap_err(),
                        err
                    );
                    assert!(Packed::new(Cow::Borrowed(short), width, count).is_err());
                }
            }
        }
    }

    #[test]
    fn width_for_is_minimal() {
        assert_eq!(width_for(&[]), 1);
        assert_eq!(width_for(&[0]), 1);
        assert_eq!(width_for(&[1]), 1);
        assert_eq!(width_for(&[2]), 2);
        assert_eq!(width_for(&[255]), 8);
        assert_eq!(width_for(&[256]), 9);
        assert_eq!(width_for(&[u64::MAX]), 64);
    }

    #[test]
    fn unpack_rejects_truncated_input() {
        let packed = pack(&[1, 2, 3, 4], 16);
        assert!(unpack(&packed[..packed.len() - 1], 16, 4).is_err());
        assert!(unpack(&[], 8, 1).is_err());
    }

    #[test]
    fn unpack_rejects_bad_width() {
        assert!(unpack(&[0u8; 8], 0, 1).is_err());
        assert!(unpack(&[0u8; 16], 65, 1).is_err());
    }

    #[test]
    fn dense_savings_vs_raw() {
        // 10k values < 16: packed at 4 bits -> 8x smaller than u64s.
        let values: Vec<u64> = (0..10_000).map(|i| i % 16).collect();
        let width = width_for(&values);
        assert_eq!(width, 4);
        let packed = pack(&values, width);
        assert!(packed.len() * 8 <= values.len() * 8 + 64);
    }
}
