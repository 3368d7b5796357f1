//! A mergeable log-scaled histogram for percentile aggregates.
//!
//! Scuba's interactive use cases — "performance debugging" (§1) — live on
//! latency percentiles. Percentiles are not decomposable like sums, so
//! leaves ship a compact sketch: a histogram with logarithmically-spaced
//! buckets (relative error bounded by the bucket growth factor), which the
//! aggregator merges bucket-wise. This is the classic HDR-histogram idea,
//! implemented from scratch.

/// Bucket growth factor: each bucket's upper bound is `GROWTH`× the
/// previous. 2^(1/8) ≈ 1.09 keeps relative quantile error under ~9%.
const GROWTH_LOG2: f64 = 0.125;

/// Number of buckets covering magnitudes 2^-16 .. 2^48 at 8 buckets per
/// octave (plus the two tails).
const OCTAVE_LO: i32 = -16;
const OCTAVE_HI: i32 = 48;
const BUCKETS: usize = ((OCTAVE_HI - OCTAVE_LO) as usize * 8) + 2;

/// A mergeable histogram over non-negative magnitudes; negative samples
/// are tracked separately by sign (rare in latency data but handled).
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    /// Counts for positive magnitudes (index 0 = underflow tail).
    buckets: Vec<u64>,
    /// Count of exact zeros.
    zeros: u64,
    /// Negative samples (stored as a mirrored histogram, magnitude-based).
    negative: Option<Box<LogHistogram>>,
    /// Total samples.
    count: u64,
    /// Exact min/max for tail correctness.
    min: f64,
    max: f64,
}

/// The bucket of a positive magnitude, by definition: one `log2` per call.
/// Infinity belongs in the overflow tail; the cast below would saturate
/// it to `isize::MAX` and the `+ 1` wrap it into the underflow tail.
fn bucket_index_by_log2(magnitude: f64) -> usize {
    if magnitude.is_infinite() {
        return BUCKETS - 1;
    }
    let idx =
        (((magnitude.log2() - OCTAVE_LO as f64) / GROWTH_LOG2).floor() as isize).wrapping_add(1);
    idx.clamp(0, BUCKETS as isize - 1) as usize
}

const MANTISSA_BITS: u32 = 52;
const MANTISSA_MASK: u64 = (1 << MANTISSA_BITS) - 1;
const EXPONENT_BIAS: i64 = 1023;
const EXPONENT_MAX: i64 = 0x7FF;

/// Mantissa bits of 2^(j/8) for j = 1..=7: the bucket edges inside every
/// octave. (A test recomputes them with `powf`.)
const SUB_EDGES: [u64; 7] = [
    0x1_72b8_3c7d_517b,
    0x3_06fe_0a31_b715,
    0x4_bfda_d536_2a27,
    0x6_a09e_667f_3bcd,
    0x8_ace5_422a_a0db,
    0xa_e89f_995a_d3ad,
    0xd_5818_dcfb_a487,
];

/// Mantissas within this many units of an edge — 2^-40 relative — are
/// bucketed by the `log2` definition, whose rounding decides them.
const EDGE_GUARD: u64 = 1 << 12;

/// The top mantissa bits that index [`SUB_BUCKET`].
const CELL_SHIFT: u32 = MANTISSA_BITS - 8;
/// A [`SUB_BUCKET`] cell holding, or lying within [`EDGE_GUARD`] of, an
/// edge: its mantissas take the `log2` definition.
const NEAR_EDGE: u8 = u8::MAX;

/// The sub-bucket (0..8) of every mantissa whose top 8 bits are the
/// index, computed at compile time from [`SUB_EDGES`]; [`NEAR_EDGE`] for
/// the 9 cells that an edge (the octave's own two included) decides.
const SUB_BUCKET: [u8; 256] = {
    let mut cells = [0u8; 256];
    let mut c = 0;
    while c < 256 {
        let lo = (c as u64) << CELL_SHIFT;
        let hi = lo + (1 << CELL_SHIFT) - 1;
        let mut sub = 0u8;
        let mut near = lo < EDGE_GUARD || hi > MANTISSA_MASK - EDGE_GUARD;
        let mut j = 0;
        while j < SUB_EDGES.len() {
            let edge = SUB_EDGES[j];
            if edge <= lo {
                sub += 1;
            }
            if edge + EDGE_GUARD > lo && edge < hi + EDGE_GUARD {
                near = true;
            }
            j += 1;
        }
        cells[c] = if near { NEAR_EDGE } else { sub };
        c += 1;
    }
    cells
};

/// The bucket of a positive magnitude, from its exponent bits and the top
/// bits of its mantissa. Equal to [`bucket_index_by_log2`] for every
/// sample: near any bucket edge, and for subnormals and infinity, it
/// defers to that definition.
#[inline]
fn bucket_index(magnitude: f64) -> usize {
    debug_assert!(magnitude > 0.0);
    let bits = magnitude.to_bits();
    let biased = (bits >> MANTISSA_BITS) as i64 & EXPONENT_MAX;
    let sub = SUB_BUCKET[((bits & MANTISSA_MASK) >> CELL_SHIFT) as usize];
    if sub == NEAR_EDGE || biased == 0 || biased == EXPONENT_MAX {
        return bucket_index_by_log2(magnitude);
    }
    let idx = (biased - EXPONENT_BIAS - OCTAVE_LO as i64) * 8 + sub as i64 + 1;
    idx.clamp(0, BUCKETS as i64 - 1) as usize
}

/// Representative value (geometric midpoint) of a bucket.
fn bucket_value(index: usize) -> f64 {
    if index == 0 {
        return 2f64.powi(OCTAVE_LO); // underflow tail
    }
    let log2 = OCTAVE_LO as f64 + (index as f64 - 0.5) * GROWTH_LOG2;
    2f64.powf(log2)
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            buckets: vec![0; BUCKETS],
            zeros: 0,
            negative: None,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one sample (NaN is ignored).
    pub fn record(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v == 0.0 {
            self.zeros += 1;
        } else if v > 0.0 {
            self.buckets[bucket_index(v)] += 1;
        } else {
            self.negative
                .get_or_insert_with(|| Box::new(LogHistogram::new()))
                .record_magnitude(-v);
        }
    }

    fn record_magnitude(&mut self, m: f64) {
        self.count += 1;
        self.buckets[bucket_index(m)] += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Merge another histogram into this one (bucket-wise; exact).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.zeros += other.zeros;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if let Some(on) = &other.negative {
            let sn = self
                .negative
                .get_or_insert_with(|| Box::new(LogHistogram::new()));
            for (a, b) in sn.buckets.iter_mut().zip(&on.buckets) {
                *a += b;
            }
            sn.count += on.count;
        }
    }

    /// Estimate the q-quantile (0.0 ..= 1.0). Returns `None` when empty.
    /// Min and max are exact; interior quantiles carry the bucket's
    /// relative error (~9%).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return Some(self.min);
        }
        if q == 1.0 {
            return Some(self.max);
        }
        // Rank within: negatives (largest magnitude = smallest value),
        // then zeros, then positives.
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        if let Some(neg) = &self.negative {
            // Iterate negative magnitudes downward: most-negative first.
            for i in (0..BUCKETS).rev() {
                let c = neg.buckets[i];
                if c == 0 {
                    continue;
                }
                seen += c;
                if seen >= target {
                    return Some((-bucket_value(i)).max(self.min));
                }
            }
        }
        seen += self.zeros;
        if seen >= target {
            return Some(0.0);
        }
        for i in 0..BUCKETS {
            let c = self.buckets[i];
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= target {
                return Some(bucket_value(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(values: &[f64]) -> LogHistogram {
        let mut h = LogHistogram::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn quantiles_of_uniform_data() {
        let values: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let h = filled(&values);
        assert_eq!(h.count(), 1000);
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(1000.0));
        let p50 = h.quantile(0.5).unwrap();
        assert!((p50 - 500.0).abs() / 500.0 < 0.10, "p50 = {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((p99 - 990.0).abs() / 990.0 < 0.10, "p99 = {p99}");
    }

    #[test]
    fn merge_equals_combined_stream() {
        let a: Vec<f64> = (1..500).map(|i| i as f64 * 0.37).collect();
        let b: Vec<f64> = (1..700).map(|i| i as f64 * 1.91).collect();
        let mut ha = filled(&a);
        let hb = filled(&b);
        let combined = filled(&a.iter().chain(&b).copied().collect::<Vec<_>>());
        ha.merge(&hb);
        assert_eq!(ha, combined);
    }

    #[test]
    fn handles_zeros_and_negatives() {
        let h = filled(&[-10.0, -1.0, 0.0, 0.0, 1.0, 10.0]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.quantile(0.0), Some(-10.0));
        assert_eq!(h.quantile(1.0), Some(10.0));
        // Median lands on the zeros.
        assert_eq!(h.quantile(0.5), Some(0.0));
        // First third is negative.
        assert!(h.quantile(0.2).unwrap() < 0.0);
    }

    #[test]
    fn empty_histogram() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn single_value() {
        let h = filled(&[42.0]);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = h.quantile(q).unwrap();
            assert!((v - 42.0).abs() / 42.0 < 0.10, "q={q} v={v}");
        }
    }

    #[test]
    fn extreme_magnitudes_clamped_not_lost() {
        let h = filled(&[1e-30, 1e30]);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.0), Some(1e-30));
        assert_eq!(h.quantile(1.0), Some(1e30));
    }

    #[test]
    fn nan_ignored() {
        let mut h = LogHistogram::new();
        h.record(f64::NAN);
        h.record(5.0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn sub_edges_are_the_octave_fractions() {
        for (j, &edge) in SUB_EDGES.iter().enumerate() {
            let exact = 2f64.powf((j + 1) as f64 / 8.0).to_bits() & MANTISSA_MASK;
            assert_eq!(edge, exact, "edge {}", j + 1);
        }
        // Each inner edge decides one cell, and the octave's ends one each.
        let near = SUB_BUCKET.iter().filter(|&&c| c == NEAR_EDGE).count();
        assert_eq!(near, SUB_EDGES.len() + 2);
    }

    #[test]
    fn bucket_index_equals_log2_definition_around_every_edge() {
        let check = |m: f64| {
            assert_eq!(
                bucket_index(m),
                bucket_index_by_log2(m),
                "magnitude {m:e} ({:#x})",
                m.to_bits()
            );
        };
        // ±64 ulps around every edge of every octave, one octave past
        // each end of the covered range.
        for octave in OCTAVE_LO - 1..=OCTAVE_HI + 1 {
            for j in 0..8 {
                let edge = 2f64.powf(octave as f64 + j as f64 / 8.0);
                for ulps in -64i64..=64 {
                    check(f64::from_bits(edge.to_bits().wrapping_add_signed(ulps)));
                }
            }
        }
        // Subnormals, the smallest normals, the largest finite, infinity.
        for m in [
            f64::from_bits(1),
            f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
        ] {
            check(m);
        }
        // A spread of random magnitudes across the whole exponent range.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..1_000_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let m = f64::from_bits(state & 0x7FFF_FFFF_FFFF_FFFF);
            if m > 0.0 && !m.is_nan() {
                check(m);
            }
        }
        // Random magnitudes where latencies live.
        for i in 0..1_000_000u64 {
            let m = (i as f64 * 0.618_033_988_749).fract() * 10f64.powi((i % 12) as i32 - 4);
            if m > 0.0 {
                check(m);
            }
        }
    }

    #[test]
    fn infinite_samples_land_in_the_tails() {
        let h = filled(&[f64::INFINITY, f64::NEG_INFINITY, 1.0]);
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(1.0), Some(f64::INFINITY));
        assert_eq!(h.quantile(0.0), Some(f64::NEG_INFINITY));
    }

    #[test]
    fn infinite_samples_count_in_the_overflow_tail() {
        let h = filled(&[1.0, f64::INFINITY, f64::INFINITY, f64::INFINITY]);
        let p50 = h.quantile(0.5).unwrap();
        assert!(p50 >= 2f64.powi(47), "p50 = {p50}");
        let h = filled(&[
            -1.0,
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
        ]);
        let p50 = h.quantile(0.5).unwrap();
        assert!(p50 <= -(2f64.powi(47)), "p50 = {p50}");
    }

    #[test]
    fn relative_error_bound_on_lognormalish_data() {
        // Latency-shaped data: the use case percentiles exist for.
        let mut values = Vec::new();
        let mut state = 7u64;
        for _ in 0..10_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            values.push(10.0 * (1.0 + 20.0 * u * u * u)); // heavy tail
        }
        let h = filled(&values);
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.5, 0.9, 0.95, 0.99] {
            let exact = sorted[((q * sorted.len() as f64) as usize).min(sorted.len() - 1)];
            let approx = h.quantile(q).unwrap();
            let err = (approx - exact).abs() / exact;
            assert!(
                err < 0.10,
                "q={q}: exact {exact}, approx {approx}, err {err}"
            );
        }
    }
}
