//! Byte shuffle (transpose) for fixed-width values.
//!
//! Doubles rarely delta-compress, but their high-order exponent/sign bytes
//! are highly repetitive across a column. Transposing an `n x 8` byte
//! matrix groups byte 0 of every value together, then byte 1, and so on,
//! which turns that repetition into long runs the LZ stage can exploit.

use crate::error::{Error, Result};

/// Transpose `values.len() x 8` bytes: output holds byte 0 of every value,
/// then byte 1 of every value, etc.
pub fn shuffle_f64(values: &[f64]) -> Vec<u8> {
    let n = values.len();
    let mut out = vec![0u8; n * 8];
    for (i, v) in values.iter().enumerate() {
        let bytes = v.to_le_bytes();
        for (lane, &b) in bytes.iter().enumerate() {
            out[lane * n + i] = b;
        }
    }
    out
}

/// Inverse of [`shuffle_f64`]: reconstruct `count` doubles.
pub fn unshuffle_f64(bytes: &[u8], count: usize) -> Result<Vec<f64>> {
    if bytes.len() < count * 8 {
        return Err(Error::Truncated {
            needed: count * 8,
            available: bytes.len(),
        });
    }
    // One slice per byte lane, each exactly `count` long, so the loop
    // below indexes them without a bounds check per byte.
    let lanes: [&[u8]; 8] = std::array::from_fn(|lane| &bytes[lane * count..(lane + 1) * count]);
    let out = (0..count)
        .map(|i| f64::from_le_bytes(std::array::from_fn(|lane| lanes[lane][i])))
        .collect();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        for values in [
            vec![],
            vec![0.0],
            vec![1.5, -2.25, 1e300, -1e-300, f64::INFINITY, f64::NEG_INFINITY],
            (0..1000).map(|i| i as f64 * 0.001).collect::<Vec<_>>(),
        ] {
            let shuffled = shuffle_f64(&values);
            assert_eq!(shuffled.len(), values.len() * 8);
            let back = unshuffle_f64(&shuffled, values.len()).unwrap();
            assert_eq!(back, values);
        }
    }

    #[test]
    fn nan_bit_patterns_preserved() {
        let weird = f64::from_bits(0x7FF8_DEAD_BEEF_0001);
        let back = unshuffle_f64(&shuffle_f64(&[weird]), 1).unwrap();
        assert_eq!(back[0].to_bits(), weird.to_bits());
    }

    #[test]
    fn rejects_truncation() {
        let shuffled = shuffle_f64(&[1.0, 2.0]);
        assert!(unshuffle_f64(&shuffled[..15], 2).is_err());
    }

    #[test]
    fn groups_high_bytes_together() {
        // Similar-magnitude doubles share exponent bytes; after the shuffle
        // the final lane (byte 7 of each value) is a constant run.
        let values: Vec<f64> = (0..64).map(|i| 1000.0 + i as f64).collect();
        let shuffled = shuffle_f64(&values);
        let last_lane = &shuffled[7 * values.len()..];
        assert!(last_lane.windows(2).all(|w| w[0] == w[1]));
    }
}
