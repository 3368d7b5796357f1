//! LZ77 byte compressor with an lz4-like block format.
//!
//! The paper's final compression stage is lz4 (its reference 7); we implement our own
//! equivalent from scratch (see the substitution table in DESIGN.md): a
//! greedy hash-table match finder with a 64 KiB window, 4-byte minimum
//! matches, and a token/extension-byte sequence format modeled on lz4's.
//!
//! # Block format
//!
//! A block is a sequence of *sequences*. Each sequence is:
//!
//! ```text
//! token (1 byte): high nibble = literal count, low nibble = match length - 4
//! [literal-count extension bytes, 255-continuation, if nibble == 15]
//! literal bytes
//! match offset (2 bytes, little-endian, 1..=65535)   -- absent in the final sequence
//! [match-length extension bytes, if nibble == 15]
//! ```
//!
//! The final sequence of a block carries only literals: the decompressor
//! stops when the output reaches the expected length.

use crate::error::{Error, Result};

const MIN_MATCH: usize = 4;
const WINDOW: usize = 65_535;
const HASH_BITS: u32 = 14;

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

fn write_len(out: &mut Vec<u8>, mut extra: usize) {
    // lz4-style: 255-continuation bytes, terminated by a byte < 255.
    while extra >= 255 {
        out.push(255);
        extra -= 255;
    }
    out.push(extra as u8);
}

fn read_len(buf: &[u8], pos: &mut usize, base: usize) -> Result<usize> {
    let mut len = base;
    if base == 15 {
        loop {
            let b = *buf.get(*pos).ok_or(Error::Truncated {
                needed: *pos + 1,
                available: buf.len(),
            })?;
            *pos += 1;
            len += b as usize;
            if b != 255 {
                break;
            }
        }
    }
    Ok(len)
}

fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], match_len: usize, offset: usize) {
    let lit_nibble = literals.len().min(15);
    let match_nibble = if match_len == 0 {
        0
    } else {
        (match_len - MIN_MATCH).min(15)
    };
    out.push(((lit_nibble as u8) << 4) | match_nibble as u8);
    if lit_nibble == 15 {
        write_len(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
    if match_len > 0 {
        out.extend_from_slice(&(offset as u16).to_le_bytes());
        if match_nibble == 15 {
            write_len(out, match_len - MIN_MATCH - 15);
        }
    }
}

/// Compress `input`. The output does not record the input length; callers
/// store it alongside (the row block column header records item and byte
/// counts) and pass it to [`decompress`].
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let mut table = vec![usize::MAX; 1 << HASH_BITS];
    let mut pos = 0usize;
    let mut literal_start = 0usize;

    if input.len() >= MIN_MATCH {
        while pos + MIN_MATCH <= input.len() {
            let h = hash4(&input[pos..]);
            let candidate = table[h];
            table[h] = pos;
            if candidate != usize::MAX
                && pos - candidate <= WINDOW
                && input[candidate..candidate + MIN_MATCH] == input[pos..pos + MIN_MATCH]
            {
                // Extend the match forward.
                let mut len = MIN_MATCH;
                while pos + len < input.len() && input[candidate + len] == input[pos + len] {
                    len += 1;
                }
                emit_sequence(&mut out, &input[literal_start..pos], len, pos - candidate);
                // Seed the table inside the match so later data can refer
                // back into it (sparse stride keeps compression fast).
                let end = pos + len;
                let mut p = pos + 1;
                while p + MIN_MATCH <= end.min(input.len()) && p + MIN_MATCH <= input.len() {
                    table[hash4(&input[p..])] = p;
                    p += 2;
                }
                pos = end;
                literal_start = pos;
            } else {
                pos += 1;
            }
        }
    }
    // Final literal-only sequence.
    emit_sequence(&mut out, &input[literal_start..], 0, 0);
    out
}

/// Decompress a block produced by [`compress`] into exactly `expected_len`
/// bytes.
pub fn decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(expected_len);
    let mut pos = 0usize;
    while out.len() < expected_len || pos < input.len() {
        let token = *input.get(pos).ok_or(Error::Truncated {
            needed: pos + 1,
            available: input.len(),
        })?;
        pos += 1;
        let lit_len = read_len(input, &mut pos, (token >> 4) as usize)?;
        if pos + lit_len > input.len() {
            return Err(Error::Truncated {
                needed: pos + lit_len,
                available: input.len(),
            });
        }
        out.extend_from_slice(&input[pos..pos + lit_len]);
        pos += lit_len;
        if out.len() > expected_len {
            return Err(Error::Corrupt("LZ output exceeds expected length"));
        }
        if pos == input.len() {
            break; // final, literal-only sequence
        }
        if pos + 2 > input.len() {
            return Err(Error::Truncated {
                needed: pos + 2,
                available: input.len(),
            });
        }
        let offset = u16::from_le_bytes([input[pos], input[pos + 1]]) as usize;
        pos += 2;
        if offset == 0 || offset > out.len() {
            return Err(Error::Corrupt("LZ match offset out of range"));
        }
        let match_len = read_len(input, &mut pos, (token & 0x0F) as usize)? + MIN_MATCH;
        if out.len() + match_len > expected_len {
            return Err(Error::Corrupt("LZ match overruns expected length"));
        }
        // A match may overlap its own output (offset < length, e.g. RLE):
        // the bytes from `start` on then repeat with period `offset`, so
        // copying everything written since `start` — a whole number of
        // periods, doubling each round — continues the pattern exactly as
        // a byte-by-byte copy would. A non-overlapping match is one round.
        let start = out.len() - offset;
        let mut remaining = match_len;
        while remaining > 0 {
            let n = (out.len() - start).min(remaining);
            out.extend_from_within(start..start + n);
            remaining -= n;
        }
    }
    if out.len() != expected_len {
        return Err(Error::Corrupt("LZ output shorter than expected length"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) -> usize {
        let compressed = compress(data);
        let back = decompress(&compressed, data.len()).unwrap();
        assert_eq!(back, data);
        compressed.len()
    }

    #[test]
    fn round_trips_edge_cases() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abc");
        round_trip(b"abcd");
        round_trip(b"abcdabcd");
        round_trip(&[0u8; 1]);
    }

    #[test]
    fn compresses_runs() {
        let data = vec![7u8; 10_000];
        let size = round_trip(&data);
        assert!(size < 100, "run of 10k bytes compressed to {size}");
    }

    #[test]
    fn compresses_repeated_patterns() {
        let data: Vec<u8> = b"GET /api/v1/users 200 ".repeat(500);
        let size = round_trip(&data);
        assert!(size < data.len() / 10, "{size} vs {}", data.len());
    }

    #[test]
    fn handles_incompressible_data() {
        // Pseudo-random bytes: output may expand slightly but must round-trip.
        let mut state = 0x12345678u64;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect();
        let compressed = compress(&data);
        assert!(compressed.len() <= data.len() + data.len() / 16 + 16);
        assert_eq!(decompress(&compressed, data.len()).unwrap(), data);
    }

    #[test]
    fn long_literal_and_match_extensions() {
        // >15 literals then >19 match bytes to force extension bytes.
        let mut data = Vec::new();
        for i in 0..100u8 {
            data.push(i);
        }
        data.extend(std::iter::repeat_n(b'z', 1000));
        round_trip(&data);
    }

    #[test]
    fn overlapping_match_rle() {
        let mut data = vec![b'x'];
        data.extend(std::iter::repeat_n(b'x', 300));
        round_trip(&data);
        // Period 3, ending mid-period: the match overlaps itself and its
        // length is not a whole number of periods.
        let data: Vec<u8> = b"abc".iter().copied().cycle().take(305).collect();
        assert!(round_trip(&data) < 20);
    }

    #[test]
    fn decompress_rejects_truncation() {
        let data = b"hello hello hello hello hello".to_vec();
        let compressed = compress(&data);
        for cut in 0..compressed.len() {
            // Either errors, or (for cuts that land on a valid prefix) the
            // length check must fire; it must never panic or return wrong data.
            if let Ok(out) = decompress(&compressed[..cut], data.len()) {
                assert_eq!(out, data);
            }
        }
    }

    #[test]
    fn decompress_rejects_bad_offset() {
        // token: 1 literal, match nibble 0 (len 4); offset 5 > output so far (1).
        let bad = [0x10, b'a', 5, 0];
        assert!(decompress(&bad, 10).is_err());
        // Zero offset is invalid too.
        let bad = [0x10, b'a', 0, 0];
        assert!(decompress(&bad, 10).is_err());
    }

    #[test]
    fn decompress_rejects_wrong_expected_len() {
        let data = b"some data that is long enough to matter".to_vec();
        let compressed = compress(&data);
        assert!(decompress(&compressed, data.len() + 1).is_err());
        assert!(decompress(&compressed, data.len().saturating_sub(1)).is_err());
    }

    #[test]
    fn window_limit_respected() {
        // Two identical 1k chunks separated by > 64 KiB of varying data:
        // the second chunk cannot reference the first, but must round-trip.
        let chunk: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let mut data = chunk.clone();
        let mut state = 1u64;
        data.extend((0..70_000).map(|_| {
            state = state.wrapping_mul(48271) % 0x7FFFFFFF;
            state as u8
        }));
        data.extend_from_slice(&chunk);
        round_trip(&data);
    }
}
