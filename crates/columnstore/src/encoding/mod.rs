//! Column compression, §2.1: "Scuba's compression methods are a combination
//! of dictionary encoding, bit packing, delta encoding, and lz4 compression,
//! with at least two methods applied to each column."
//!
//! Each encoding is a standalone, individually-tested transform; the
//! [`crate::rbc`] module composes them into per-type pipelines and records
//! which were applied in the column header's compression code:
//!
//! * `Int64` columns: per block, the cheapest of zig-zag **delta**
//!   encoding, a **frame of reference** (`v - min`) or an integer
//!   **dictionary** ([`intcode`]), then **bit packing** of the codes, then
//!   [`lz`] over the packed bytes.
//! * `Double` columns: byte **shuffle** (transpose), then [`lz`].
//! * `Str` columns: **dictionary** encoding, with bit-packed indexes and an
//!   [`lz`]-compressed dictionary blob.
//!
//! The paper uses lz4; [`lz`] is our own LZ77-style byte compressor with an
//! lz4-like token format (see the substitution note in DESIGN.md).

pub mod bitpack;
pub mod delta;
pub mod dictionary;
pub mod intcode;
pub mod lz;
pub mod shuffle;
pub mod varint;

/// Bit flags recording which encodings a column's pipeline applied. Stored
/// in the row block column header as the "compression code" (Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressionCode(pub u32);

impl CompressionCode {
    /// Dictionary encoding was applied.
    pub const DICTIONARY: u32 = 1 << 0;
    /// Delta encoding was applied.
    pub const DELTA: u32 = 1 << 1;
    /// Bit packing was applied.
    pub const BITPACK: u32 = 1 << 2;
    /// LZ byte compression was applied.
    pub const LZ: u32 = 1 << 3;
    /// Byte shuffle (transpose) was applied.
    pub const SHUFFLE: u32 = 1 << 4;
    /// Var-int encoding was applied.
    pub const VARINT: u32 = 1 << 5;
    /// Frame-of-reference coding (`v - min`) was applied. Column version
    /// 2 only.
    pub const FOR: u32 = 1 << 6;

    /// Mask of all known flags; anything outside is an unknown code.
    pub const KNOWN_MASK: u32 = (1 << 7) - 1;

    /// True if `flag` is set.
    pub fn has(self, flag: u32) -> bool {
        self.0 & flag != 0
    }

    /// Number of distinct methods applied (the paper promises >= 2).
    pub fn method_count(self) -> u32 {
        self.0.count_ones()
    }

    /// True if no unknown bits are set.
    pub fn is_known(self) -> bool {
        self.0 & !Self::KNOWN_MASK == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_compose() {
        let code = CompressionCode(CompressionCode::DELTA | CompressionCode::BITPACK);
        assert!(code.has(CompressionCode::DELTA));
        assert!(code.has(CompressionCode::BITPACK));
        assert!(!code.has(CompressionCode::LZ));
        assert_eq!(code.method_count(), 2);
        assert!(code.is_known());
    }

    #[test]
    fn unknown_bits_detected() {
        assert!(!CompressionCode(1 << 20).is_known());
        assert!(CompressionCode(CompressionCode::KNOWN_MASK).is_known());
    }
}
