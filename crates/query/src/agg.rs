//! Aggregate functions with mergeable partial states.
//!
//! Leaves compute partial aggregates; the aggregator merges them (Figure
//! 1: "aggregate the results as they arrive from the leaves"). Every
//! aggregate therefore has a commutative, associative [`AggState::merge`].

use std::collections::BTreeSet;

use scuba_columnstore::Value;

use crate::histogram::LogHistogram;

/// Which aggregate to compute, over which column.
#[derive(Debug, Clone, PartialEq)]
pub enum AggSpec {
    /// Row count (no column).
    Count,
    /// Sum of a numeric column.
    Sum(String),
    /// Minimum of a numeric column.
    Min(String),
    /// Maximum of a numeric column.
    Max(String),
    /// Mean of a numeric column.
    Avg(String),
    /// Approximate q-quantile (0.0..=1.0) of a numeric column, via a
    /// mergeable log-histogram sketch (~9% relative error) — the latency
    /// percentiles Scuba's performance-debugging use case lives on (§1).
    Percentile(String, f64),
    /// Exact distinct-value count of a column (mergeable set state).
    CountDistinct(String),
}

impl AggSpec {
    /// Convenience: the median.
    pub fn p50(column: impl Into<String>) -> AggSpec {
        AggSpec::Percentile(column.into(), 0.5)
    }

    /// Convenience: the 99th percentile.
    pub fn p99(column: impl Into<String>) -> AggSpec {
        AggSpec::Percentile(column.into(), 0.99)
    }

    /// Column this aggregate reads, if any.
    pub fn column(&self) -> Option<&str> {
        match self {
            AggSpec::Count => None,
            AggSpec::Sum(c)
            | AggSpec::Min(c)
            | AggSpec::Max(c)
            | AggSpec::Avg(c)
            | AggSpec::Percentile(c, _)
            | AggSpec::CountDistinct(c) => Some(c),
        }
    }

    /// Fresh accumulator for this aggregate.
    pub fn new_state(&self) -> AggState {
        match self {
            AggSpec::Count => AggState::Count(0),
            AggSpec::Sum(_) => AggState::Sum(0.0),
            AggSpec::Min(_) => AggState::Min(None),
            AggSpec::Max(_) => AggState::Max(None),
            AggSpec::Avg(_) => AggState::Avg { sum: 0.0, count: 0 },
            AggSpec::Percentile(_, q) => AggState::Percentile {
                histogram: Box::new(LogHistogram::new()),
                q: *q,
            },
            AggSpec::CountDistinct(_) => AggState::Distinct(BTreeSet::new()),
        }
    }
}

/// A normalized cell value usable as a set member for COUNT DISTINCT.
/// Doubles compare by bit pattern (so two NaNs with the same bits are one
/// distinct value).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum DistinctValue {
    /// Integer cell.
    Int(i64),
    /// String cell.
    Str(String),
    /// Double cell, by bit pattern.
    Bits(u64),
}

impl DistinctValue {
    pub(crate) fn from_value(v: &Value) -> Option<DistinctValue> {
        match v {
            Value::Null => None,
            Value::Int(i) => Some(DistinctValue::Int(*i)),
            Value::Str(s) => Some(DistinctValue::Str(s.clone())),
            Value::Double(d) => Some(DistinctValue::Bits(d.to_bits())),
            // A whole set is one distinct value (sets are normalized, so
            // the joined form is canonical). Element-level distinctness
            // would be a different aggregate.
            Value::StrSet(items) => Some(DistinctValue::Str(items.join("\u{1f}"))),
        }
    }
}

/// A partial aggregate value. Numeric aggregates accumulate as f64 (ints
/// widen), matching Scuba's analytics-oriented semantics.
#[derive(Debug, Clone, PartialEq)]
pub enum AggState {
    /// Row count.
    Count(u64),
    /// Running sum.
    Sum(f64),
    /// Running minimum (None until a value arrives).
    Min(Option<f64>),
    /// Running maximum.
    Max(Option<f64>),
    /// Running mean components.
    Avg { sum: f64, count: u64 },
    /// Quantile sketch (boxed: the histogram is large).
    Percentile {
        /// Mergeable log-histogram of samples.
        histogram: Box<LogHistogram>,
        /// Which quantile to report.
        q: f64,
    },
    /// Exact distinct-value set.
    Distinct(BTreeSet<DistinctValue>),
}

impl AggState {
    /// Fold one cell into the accumulator. Nulls and non-numeric cells are
    /// skipped (except Count, which counts the row regardless).
    pub fn update(&mut self, cell: &Value) {
        match self {
            AggState::Count(_) => self.add_count(1),
            AggState::Distinct(_) => {
                if let Some(dv) = DistinctValue::from_value(cell) {
                    self.insert_distinct(dv);
                }
            }
            _ => {
                if let Some(v) = cell.as_numeric() {
                    self.update_num(v);
                }
            }
        }
    }

    // The three typed updaters below are what `update` is made of, exposed
    // so the vectorized fold can feed an accumulator straight from a typed
    // column without boxing a `Value` per row. Each accepts only the kinds
    // named; the fold picks the updater from the `AggSpec` the state was
    // built from, so a mismatch is a bug, as in `merge`.

    /// Count `n` rows at once.
    pub fn add_count(&mut self, n: u64) {
        match self {
            AggState::Count(c) => *c += n,
            other => panic!("add_count on {other:?}"),
        }
    }

    /// Fold one non-null numeric cell, already widened to f64 the way
    /// [`Value::as_numeric`] widens it, into a Sum/Min/Max/Avg/Percentile.
    pub fn update_num(&mut self, v: f64) {
        match self {
            AggState::Sum(s) => *s += v,
            AggState::Min(m) => *m = Some(m.map_or(v, |cur| cur.min(v))),
            AggState::Max(m) => *m = Some(m.map_or(v, |cur| cur.max(v))),
            AggState::Avg { sum, count } => {
                *sum += v;
                *count += 1;
            }
            AggState::Percentile { histogram, .. } => histogram.record(v),
            other => panic!("update_num on {other:?}"),
        }
    }

    /// Add one non-null cell to a Distinct set.
    pub fn insert_distinct(&mut self, v: DistinctValue) {
        match self {
            AggState::Distinct(set) => {
                set.insert(v);
            }
            other => panic!("insert_distinct on {other:?}"),
        }
    }

    /// Merge another partial state of the same kind. Panics on kind
    /// mismatch (states are always built from the same [`AggSpec`] list).
    pub fn merge(&mut self, other: &AggState) {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::Sum(a), AggState::Sum(b)) => *a += b,
            (AggState::Min(a), AggState::Min(b)) => {
                if let Some(bv) = b {
                    *a = Some(a.map_or(*bv, |av| av.min(*bv)));
                }
            }
            (AggState::Max(a), AggState::Max(b)) => {
                if let Some(bv) = b {
                    *a = Some(a.map_or(*bv, |av| av.max(*bv)));
                }
            }
            (AggState::Avg { sum, count }, AggState::Avg { sum: s2, count: c2 }) => {
                *sum += s2;
                *count += c2;
            }
            (
                AggState::Percentile { histogram, .. },
                AggState::Percentile { histogram: h2, .. },
            ) => histogram.merge(h2),
            (AggState::Distinct(a), AggState::Distinct(b)) => {
                a.extend(b.iter().cloned());
            }
            (a, b) => panic!("cannot merge {a:?} with {b:?}"),
        }
    }

    /// [`Self::merge`], taking `other` by value: a Distinct set moves its
    /// values into the larger of the two sets instead of cloning them.
    pub fn merge_owned(&mut self, other: AggState) {
        match (self, other) {
            (AggState::Distinct(a), AggState::Distinct(mut b)) => {
                if b.len() > a.len() {
                    std::mem::swap(a, &mut b);
                }
                a.append(&mut b);
            }
            (a, b) => a.merge(&b),
        }
    }

    /// Final value for output. Empty Min/Max/Avg yield `Value::Null`.
    pub fn finish(&self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(*n as i64),
            AggState::Sum(s) => Value::Double(*s),
            AggState::Min(m) => m.map(Value::Double).unwrap_or(Value::Null),
            AggState::Max(m) => m.map(Value::Double).unwrap_or(Value::Null),
            AggState::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Double(sum / *count as f64)
                }
            }
            AggState::Percentile { histogram, q } => histogram
                .quantile(*q)
                .map(Value::Double)
                .unwrap_or(Value::Null),
            AggState::Distinct(set) => Value::Int(set.len() as i64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_counts_everything_including_nulls() {
        let mut s = AggSpec::Count.new_state();
        s.update(&Value::Int(1));
        s.update(&Value::Null);
        s.update(&Value::from("x"));
        assert_eq!(s.finish(), Value::Int(3));
    }

    #[test]
    fn sum_min_max_avg() {
        let cells = [
            Value::Int(4),
            Value::Double(1.5),
            Value::Null,
            Value::from("skip"),
        ];
        let mut sum = AggSpec::Sum("c".into()).new_state();
        let mut min = AggSpec::Min("c".into()).new_state();
        let mut max = AggSpec::Max("c".into()).new_state();
        let mut avg = AggSpec::Avg("c".into()).new_state();
        for c in &cells {
            sum.update(c);
            min.update(c);
            max.update(c);
            avg.update(c);
        }
        assert_eq!(sum.finish(), Value::Double(5.5));
        assert_eq!(min.finish(), Value::Double(1.5));
        assert_eq!(max.finish(), Value::Double(4.0));
        assert_eq!(avg.finish(), Value::Double(2.75));
    }

    #[test]
    fn empty_aggregates_are_null_except_count() {
        assert_eq!(AggSpec::Count.new_state().finish(), Value::Int(0));
        assert_eq!(AggSpec::Min("c".into()).new_state().finish(), Value::Null);
        assert_eq!(AggSpec::Max("c".into()).new_state().finish(), Value::Null);
        assert_eq!(AggSpec::Avg("c".into()).new_state().finish(), Value::Null);
        assert_eq!(
            AggSpec::Sum("c".into()).new_state().finish(),
            Value::Double(0.0)
        );
    }

    #[test]
    fn merge_equals_single_pass() {
        // Property: splitting the stream and merging gives the same answer.
        let values: Vec<Value> = (0..100).map(|i| Value::Int(i * 3 - 50)).collect();
        for spec in [
            AggSpec::Count,
            AggSpec::Sum("c".into()),
            AggSpec::Min("c".into()),
            AggSpec::Max("c".into()),
            AggSpec::Avg("c".into()),
        ] {
            let mut whole = spec.new_state();
            for v in &values {
                whole.update(v);
            }
            let mut left = spec.new_state();
            let mut right = spec.new_state();
            for (i, v) in values.iter().enumerate() {
                if i % 2 == 0 {
                    left.update(v)
                } else {
                    right.update(v)
                }
            }
            left.merge(&right);
            assert_eq!(left.finish(), whole.finish(), "spec {spec:?}");
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = AggSpec::Min("c".into()).new_state();
        a.update(&Value::Int(5));
        let empty = AggSpec::Min("c".into()).new_state();
        a.merge(&empty);
        assert_eq!(a.finish(), Value::Double(5.0));
    }

    #[test]
    #[should_panic(expected = "cannot merge")]
    fn kind_mismatch_panics() {
        let mut a = AggState::Count(1);
        a.merge(&AggState::Sum(1.0));
    }

    #[test]
    fn spec_columns() {
        assert_eq!(AggSpec::Count.column(), None);
        assert_eq!(AggSpec::Sum("x".into()).column(), Some("x"));
        assert_eq!(AggSpec::p99("lat").column(), Some("lat"));
        assert_eq!(AggSpec::CountDistinct("u".into()).column(), Some("u"));
    }

    #[test]
    fn percentile_state_merges_like_combined_stream() {
        let spec = AggSpec::p50("c");
        let mut left = spec.new_state();
        let mut right = spec.new_state();
        let mut whole = spec.new_state();
        for i in 0..1000i64 {
            let v = Value::Int(i);
            whole.update(&v);
            if i % 2 == 0 {
                left.update(&v)
            } else {
                right.update(&v)
            }
        }
        left.merge(&right);
        assert_eq!(left.finish(), whole.finish());
    }

    #[test]
    fn distinct_counts_each_value_once() {
        let mut s = AggSpec::CountDistinct("c".into()).new_state();
        for v in [
            Value::Int(1),
            Value::Int(1),
            Value::Int(2),
            Value::from("a"),
            Value::from("a"),
            Value::Double(1.5),
            Value::Double(1.5),
            Value::Null, // nulls don't count
        ] {
            s.update(&v);
        }
        assert_eq!(s.finish(), Value::Int(4));
    }

    #[test]
    fn distinct_merge_unions() {
        let spec = AggSpec::CountDistinct("c".into());
        let mut a = spec.new_state();
        let mut b = spec.new_state();
        a.update(&Value::Int(1));
        a.update(&Value::Int(2));
        b.update(&Value::Int(2));
        b.update(&Value::Int(3));
        a.merge(&b);
        assert_eq!(a.finish(), Value::Int(3));
    }

    #[test]
    fn owned_merge_equals_borrowed_merge() {
        let specs = [
            AggSpec::Count,
            AggSpec::Sum("c".into()),
            AggSpec::Min("c".into()),
            AggSpec::Max("c".into()),
            AggSpec::Avg("c".into()),
            AggSpec::p99("c"),
            AggSpec::CountDistinct("c".into()),
        ];
        // Either side the larger: the distinct merge keeps the larger set.
        for (left_len, right_len) in [(40, 7), (7, 40), (0, 9), (9, 0)] {
            for spec in &specs {
                let (mut a, mut b) = (spec.new_state(), spec.new_state());
                for i in 0..left_len {
                    a.update(&Value::Double(i as f64 * 0.3 - 2.0));
                }
                for i in 0..right_len {
                    b.update(&Value::from(format!("v{}", i % 5)));
                    b.update(&Value::Double(i as f64 * 0.7));
                }
                let mut borrowed = a.clone();
                borrowed.merge(&b);
                a.merge_owned(b);
                assert_eq!(a, borrowed, "{spec:?} {left_len}/{right_len}");
            }
        }
    }

    #[test]
    fn empty_percentile_is_null() {
        assert_eq!(AggSpec::p50("c").new_state().finish(), Value::Null);
        assert_eq!(
            AggSpec::CountDistinct("c".into()).new_state().finish(),
            Value::Int(0)
        );
    }
}
