//! Order statistics over timing samples.

/// The 1-based nearest rank of percentile `p` among `n` samples. The
/// small allowance keeps `99.9 % of 10 000` at 9990 although the product
/// is not exact in binary.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p));
    sorted[rank(p, sorted.len()) - 1]
}

/// Percentile levels a tail may be reported at.
pub const TAIL_LEVELS: [f64; 4] = [90.0, 99.0, 99.9, 99.99];

/// The highest level of [`TAIL_LEVELS`] that still has at least ten
/// samples beyond it, or `None` when even p90 does not (n < 100).
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LEVELS
        .iter()
        .copied()
        .rfind(|&p| n >= 10 && n - rank(p, n) >= 10)
}

/// Median, quartiles, the supported tail and the count of one sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub max: f64,
    /// `(level, value)` of the highest supported percentile.
    pub tail: Option<(f64, f64)>,
    sorted: Vec<f64>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail = supported_tail(sorted.len()).map(|p| (p, nearest_rank(&sorted, p)));
        Summary {
            n: sorted.len(),
            p25: nearest_rank(&sorted, 25.0),
            p50: nearest_rank(&sorted, 50.0),
            p75: nearest_rank(&sorted, 75.0),
            max: sorted[sorted.len() - 1],
            tail,
            sorted,
        }
    }

    pub fn percentile(&self, p: f64) -> f64 {
        nearest_rank(&self.sorted, p)
    }

    pub fn sum(&self) -> f64 {
        self.sorted.iter().sum()
    }

    /// Share of samples above `k` times the median.
    pub fn fraction_above(&self, k: f64) -> f64 {
        let limit = self.p50 * k;
        self.sorted.iter().filter(|&&v| v > limit).count() as f64 / self.n as f64
    }
}

pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).p50
}

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_the_textbook_definition() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 5.0);
        assert_eq!(nearest_rank(&v, 90.0), 9.0);
        assert_eq!(nearest_rank(&v, 91.0), 10.0);
        assert_eq!(nearest_rank(&v, 100.0), 10.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(999), Some(90.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        let s = Summary::of(&(1..=1000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail, Some((99.0, 990.0)));
        assert_eq!((s.p25, s.p50, s.p75, s.n), (250.0, 500.0, 750.0, 1000));
    }

    #[test]
    fn slow_fraction_counts_outliers() {
        let mut v = vec![1.0; 98];
        v.extend([50.0, 60.0]);
        assert_eq!(Summary::of(&v).fraction_above(10.0), 0.02);
    }
}
