//! Query descriptions and group keys.

use scuba_columnstore::{Value, TIME_COLUMN};

use crate::agg::AggSpec;
use crate::expr::Filter;

/// Key of one result group. Doubles are excluded (grouping on floats is a
/// footgun Scuba-style UIs avoid); nulls group together under `Null`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GroupKey {
    /// No group-by, or the row's group cell was null.
    Null,
    /// Integer group.
    Int(i64),
    /// String group.
    Str(String),
    /// Time-series bucket: the bucket's start timestamp plus the inner
    /// group key. Produced when [`Query::bucket_secs`] is set — every
    /// Scuba chart is a time series, so bucketing is first-class.
    Bucketed(i64, Box<GroupKey>),
}

impl GroupKey {
    /// Build a key from a cell value. Doubles map to `Null` (ungrouped);
    /// sets group by their canonical (sorted) joined form.
    pub fn from_value(v: &Value) -> GroupKey {
        match v {
            Value::Int(i) => GroupKey::Int(*i),
            Value::Str(s) => GroupKey::Str(s.clone()),
            Value::StrSet(items) => GroupKey::Str(items.join(",")),
            Value::Null | Value::Double(_) => GroupKey::Null,
        }
    }
}

impl std::fmt::Display for GroupKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GroupKey::Null => f.write_str("(null)"),
            GroupKey::Int(i) => write!(f, "{i}"),
            GroupKey::Str(s) => f.write_str(s),
            GroupKey::Bucketed(t, inner) => match inner.as_ref() {
                GroupKey::Null => write!(f, "t={t}"),
                other => write!(f, "t={t}/{other}"),
            },
        }
    }
}

/// The start of the `width`-second bucket holding `t`: `t` floored to a
/// multiple of `width`, or `i64::MIN` where that multiple lies below it.
/// Both executors bucket through this one function.
pub(crate) fn bucket_start(t: i64, width: i64) -> i64 {
    t.checked_sub(t.rem_euclid(width)).unwrap_or(i64::MIN)
}

/// An aggregation query against one table: time range, filters, optional
/// group-by, and a list of aggregates — the shape of a Scuba dashboard
/// panel.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Table to read.
    pub table: String,
    /// Inclusive lower time bound ("nearly all queries contain predicates
    /// on time", §2.1).
    pub time_from: i64,
    /// Exclusive upper time bound.
    pub time_to: i64,
    /// Conjunctive filters.
    pub filters: Vec<Filter>,
    /// Optional group-by column.
    pub group_by: Option<String>,
    /// Optional time-series bucketing: rows group by `time` floored to a
    /// multiple of `bucket_secs` (saturating at `i64::MIN`), in addition
    /// to `group_by`.
    pub bucket_secs: Option<i64>,
    /// Aggregates to compute (at least one).
    pub aggregates: Vec<AggSpec>,
}

impl Query {
    /// Start building a count-rows query over a table and time range.
    pub fn new(table: impl Into<String>, time_from: i64, time_to: i64) -> Query {
        Query {
            table: table.into(),
            time_from,
            time_to,
            filters: Vec::new(),
            group_by: None,
            bucket_secs: None,
            aggregates: vec![AggSpec::Count],
        }
    }

    /// Add a filter.
    pub fn filter(mut self, f: Filter) -> Query {
        self.filters.push(f);
        self
    }

    /// Set the group-by column.
    pub fn group_by(mut self, column: impl Into<String>) -> Query {
        self.group_by = Some(column.into());
        self
    }

    /// Bucket results into time-series intervals of `secs` seconds.
    pub fn bucket_secs(mut self, secs: i64) -> Query {
        assert!(secs > 0, "bucket width must be positive");
        self.bucket_secs = Some(secs);
        self
    }

    /// Replace the aggregate list.
    pub fn aggregates(mut self, aggs: Vec<AggSpec>) -> Query {
        assert!(!aggs.is_empty(), "a query needs at least one aggregate");
        self.aggregates = aggs;
        self
    }

    /// Every column the query touches (filters + group + aggregates),
    /// deduplicated — execution decodes only these.
    pub fn touched_columns(&self) -> Vec<&str> {
        let mut cols: Vec<&str> = Vec::new();
        for f in &self.filters {
            if !cols.contains(&f.column.as_str()) {
                cols.push(&f.column);
            }
        }
        if let Some(g) = &self.group_by {
            if !cols.contains(&g.as_str()) {
                cols.push(g);
            }
        }
        for a in &self.aggregates {
            if let Some(c) = a.column() {
                if !cols.contains(&c) {
                    cols.push(c);
                }
            }
        }
        cols
    }

    /// Every column the scan may read a byte of: `time` (the range
    /// predicate, or the presence flag that lets a block header answer it)
    /// plus [`Self::touched_columns`]. The leaf verifies exactly these
    /// columns of a mapped block before the first scan over it.
    pub fn columns_read(&self) -> Vec<&str> {
        let mut cols = vec![TIME_COLUMN];
        cols.extend(
            self.touched_columns()
                .into_iter()
                .filter(|c| *c != TIME_COLUMN),
        );
        cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;

    #[test]
    fn group_key_from_values() {
        assert_eq!(GroupKey::from_value(&Value::Int(3)), GroupKey::Int(3));
        assert_eq!(
            GroupKey::from_value(&Value::from("a")),
            GroupKey::Str("a".into())
        );
        assert_eq!(GroupKey::from_value(&Value::Null), GroupKey::Null);
        assert_eq!(GroupKey::from_value(&Value::Double(1.0)), GroupKey::Null);
    }

    #[test]
    fn group_keys_order_deterministically() {
        let mut keys = vec![
            GroupKey::Str("b".into()),
            GroupKey::Int(2),
            GroupKey::Null,
            GroupKey::Int(1),
            GroupKey::Str("a".into()),
        ];
        keys.sort();
        assert_eq!(
            keys,
            vec![
                GroupKey::Null,
                GroupKey::Int(1),
                GroupKey::Int(2),
                GroupKey::Str("a".into()),
                GroupKey::Str("b".into()),
            ]
        );
    }

    #[test]
    fn touched_columns_dedupes() {
        let q = Query::new("t", 0, 10)
            .filter(Filter::new("sev", CmpOp::Eq, "error"))
            .filter(Filter::new("code", CmpOp::Ge, 500i64))
            .group_by("sev")
            .aggregates(vec![AggSpec::Count, AggSpec::Avg("latency".into())]);
        assert_eq!(q.touched_columns(), vec!["sev", "code", "latency"]);
        assert_eq!(
            q.columns_read(),
            vec![TIME_COLUMN, "sev", "code", "latency"]
        );
        // Naming `time` explicitly does not list it twice.
        let q = Query::new("t", 0, 10).aggregates(vec![AggSpec::Max(TIME_COLUMN.into())]);
        assert_eq!(q.columns_read(), vec![TIME_COLUMN]);
    }

    #[test]
    #[should_panic(expected = "at least one aggregate")]
    fn empty_aggregates_rejected() {
        let _ = Query::new("t", 0, 1).aggregates(vec![]);
    }

    #[test]
    fn display_group_keys() {
        assert_eq!(GroupKey::Null.to_string(), "(null)");
        assert_eq!(GroupKey::Int(7).to_string(), "7");
        assert_eq!(GroupKey::Str("web".into()).to_string(), "web");
    }
}
