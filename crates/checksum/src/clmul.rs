//! Carry-less-multiply folding kernel for CRC-32/IEEE on x86_64.
//!
//! The construction is the one from Intel's "Fast CRC Computation for
//! Generic Polynomials Using PCLMULQDQ" as shipped in zlib and
//! `crc32fast`: keep four 128-bit accumulators, fold each over the next
//! 64 input bytes with two `PCLMULQDQ`s (multiplying by `x^544 mod P` and
//! `x^480 mod P`), fold the four lanes into one, fold that 128 → 64 → 32
//! bits and finish with a Barrett reduction. The polynomial is the
//! reflected IEEE one the slicing tables use — every constant below is
//! derived from [`POLY`](super::POLY) at compile time — so the result is
//! bit-identical to [`advance_slice8`](super::advance_slice8) and no
//! stored checksum changes.

use core::arch::x86_64::{
    __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
    _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
};

use super::{advance_slice8, POLY};

/// Shortest input the kernel folds: one load of the four accumulators.
/// Below this the setup and the final reduction cost more than slicing.
pub(crate) const MIN_LEN: usize = 64;

/// `x^n mod P(x)` in the bit-reflected domain, pre-shifted left by one
/// (the carry-less product of two reflected operands comes out one bit
/// low; the shift puts it back).
const fn x_pow_mod_p(n: u32) -> i64 {
    let mut v = 0x8000_0000u32; // x^0, reflected
    let mut i = 0;
    while i < n {
        v = if v & 1 != 0 { (v >> 1) ^ POLY } else { v >> 1 };
        i += 1;
    }
    (v as i64) << 1
}

/// `P(x)` itself as a reflected 33-bit value.
const P_X: i64 = ((POLY as i64) << 1) | 1;

/// Barrett constant `floor(x^64 / P(x))`, reflected over 33 bits.
const fn barrett_mu() -> i64 {
    let p = ((POLY.reverse_bits() as u128) | 1 << 32) << 32; // P(x) · x^32
    let mut rem = 1u128 << 64;
    let mut quotient = 0u64;
    let mut bit = 32;
    loop {
        if rem >> (bit + 32) & 1 != 0 {
            quotient |= 1 << bit;
            rem ^= p >> (32 - bit);
        }
        if bit == 0 {
            break;
        }
        bit -= 1;
    }
    (quotient.reverse_bits() >> 31) as i64
}

/// Fold distance 4 lanes (64 bytes): `x^(512+32)`, `x^(512-32)`.
const K1: i64 = x_pow_mod_p(544);
const K2: i64 = x_pow_mod_p(480);
/// Fold distance 1 lane (16 bytes): `x^(128+32)`, `x^(128-32)`.
const K3: i64 = x_pow_mod_p(160);
const K4: i64 = x_pow_mod_p(96);
/// 96 → 64 bit fold: `x^64`.
const K5: i64 = x_pow_mod_p(64);
const MU: i64 = barrett_mu();

/// Whether this CPU has the instructions [`advance`] needs. `std` caches
/// the CPUID probe, so after the first call this is one relaxed load.
pub(crate) fn available() -> bool {
    is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
}

/// The 16 bytes of `bytes` starting at `at`, as one unaligned vector load.
///
/// # Safety
/// The CPU must support SSE2 (baseline on x86_64).
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn load(bytes: &[u8], at: usize) -> __m128i {
    let lane = &bytes[at..at + 16];
    // SAFETY: `lane` is exactly 16 readable bytes (the slice above is
    // bounds-checked) and `_mm_loadu_si128` has no alignment requirement.
    unsafe { _mm_loadu_si128(lane.as_ptr().cast()) }
}

/// Carry `acc` forward by the distance `keys` encodes and add the input
/// found there: `acc.lo · keys.lo  ^  acc.hi · keys.hi  ^  next`.
///
/// # Safety
/// The CPU must support PCLMULQDQ and SSE2.
#[inline]
#[target_feature(enable = "pclmulqdq", enable = "sse2")]
unsafe fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
    // SAFETY: register-only intrinsics; the caller vouches for PCLMULQDQ.
    let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
    let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
    _mm_xor_si128(_mm_xor_si128(lo, hi), next)
}

/// Advance a raw (pre-inversion) CRC state over `bytes`, folding 64 bytes
/// per iteration. Panics if `bytes` is shorter than [`MIN_LEN`].
///
/// # Safety
/// The CPU must support PCLMULQDQ and SSE4.1, i.e. [`available`] returned
/// true. Nothing else: every load is bounds-checked.
#[target_feature(enable = "pclmulqdq", enable = "sse2", enable = "sse4.1")]
pub(crate) unsafe fn advance(crc: u32, bytes: &[u8]) -> u32 {
    // SAFETY: everything below is a register-only intrinsic or a call to
    // `load`/`fold`, whose requirements (SSE2, PCLMULQDQ) are a subset of
    // what the caller vouches for; memory is only read through `load`.
    let mut blocks = bytes.chunks_exact(64);
    let first = blocks
        .next()
        .expect("clmul::advance needs at least MIN_LEN bytes");

    // The incoming state is a polynomial over the first 32 message bits.
    let mut x0 = _mm_xor_si128(load(first, 0), _mm_cvtsi32_si128(crc as i32));
    let mut x1 = load(first, 16);
    let mut x2 = load(first, 32);
    let mut x3 = load(first, 48);

    let k1k2 = _mm_set_epi64x(K2, K1);
    for block in &mut blocks {
        x0 = fold(x0, load(block, 0), k1k2);
        x1 = fold(x1, load(block, 16), k1k2);
        x2 = fold(x2, load(block, 32), k1k2);
        x3 = fold(x3, load(block, 48), k1k2);
    }

    // Four lanes into one, then whatever whole 16-byte lanes remain.
    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut x = fold(x0, x1, k3k4);
    x = fold(x, x2, k3k4);
    x = fold(x, x3, k3k4);
    let mut lanes = blocks.remainder().chunks_exact(16);
    for lane in &mut lanes {
        x = fold(x, load(lane, 0), k3k4);
    }

    // 128 → 96 → 64 bits.
    let low32 = _mm_set_epi32(0, 0, 0, !0);
    let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
        _mm_srli_si128(x, 4),
    );

    // Barrett reduction 64 → 32 bits (reflected: the answer is the high
    // half of the low quadword).
    let p_mu = _mm_set_epi64x(MU, P_X);
    let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), p_mu, 0x10);
    let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), p_mu, 0x00);
    let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;

    advance_slice8(crc, lanes.remainder())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_constants_match_the_published_ones() {
        // Intel white paper / zlib crc32_simd.c / crc32fast, IEEE reflected.
        assert_eq!(K1, 0x1_5444_2bd4);
        assert_eq!(K2, 0x1_c6e4_1596);
        assert_eq!(K3, 0x1_7519_97d0);
        assert_eq!(K4, 0x0_ccaa_009e);
        assert_eq!(K5, 0x1_63cd_6124);
        assert_eq!(P_X, 0x1_db71_0641);
        assert_eq!(MU, 0x1_f701_1641);
    }
}
