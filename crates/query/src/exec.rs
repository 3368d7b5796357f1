//! Leaf-local query execution.
//!
//! The plan is fixed and columnar: select row blocks by time overlap
//! (§2.1 pruning), decode only the touched columns of each surviving
//! block, apply the time predicate and filters row-wise, then fold rows
//! into per-group aggregate states.
//!
//! A row block is the unit of a query. Each block folds into fresh
//! states — a [`BlockPartial`] — and a [`PartialMerge`] folds those into
//! the answer with [`AggState::merge`], in block order. Both executors
//! (and the leaf, however many threads scanned the blocks) go through
//! that one merge, so their answers agree to the bit by construction.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use std::borrow::Cow;

use scuba_columnstore::{ColumnData, Result as StoreResult, Table, Value, TIME_COLUMN};

use crate::agg::AggState;
use crate::plan::{PlannedBlock, ScanPlan};
use crate::query::{bucket_start, GroupKey, Query};
use crate::vectorized::ScanCounts;

/// A leaf's partial answer: per-group aggregate states plus scan stats.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafQueryResult {
    /// Per-group partial aggregates, one state per requested aggregate.
    pub groups: BTreeMap<GroupKey, Vec<AggState>>,
    /// Rows that passed all predicates.
    pub rows_matched: u64,
    /// Rows examined (in blocks that survived pruning).
    pub rows_scanned: u64,
    /// Row blocks skipped by the min/max-timestamp pruning.
    pub blocks_pruned: u64,
    /// Row blocks skipped by zone-map statistics on filter columns.
    pub blocks_zonemap_pruned: u64,
    /// Row blocks actually decoded.
    pub blocks_scanned: u64,
}

impl LeafQueryResult {
    /// An empty result (leaf holds none of the table).
    pub fn empty() -> LeafQueryResult {
        LeafQueryResult {
            groups: BTreeMap::new(),
            rows_matched: 0,
            rows_scanned: 0,
            blocks_pruned: 0,
            blocks_zonemap_pruned: 0,
            blocks_scanned: 0,
        }
    }
}

/// One row block's share of a query's answer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockPartial {
    /// Rows in the block.
    pub(crate) rows_scanned: u64,
    /// Rows of the block that passed all predicates.
    pub(crate) rows_matched: u64,
    /// What the block's scan read (zero from the row-wise oracle).
    pub(crate) counts: ScanCounts,
    /// The block's groups, each with states that started fresh at this
    /// block.
    pub(crate) groups: Vec<(GroupKey, Vec<AggState>)>,
}

/// Folds a plan's [`BlockPartial`]s into its answer. Push them in block
/// order: float sums then round the same way whoever made the partials.
#[derive(Debug)]
pub struct PartialMerge {
    result: LeafQueryResult,
    counts: ScanCounts,
}

impl PartialMerge {
    /// An empty answer carrying `plan`'s pruning accounting.
    pub fn new(plan: &ScanPlan) -> PartialMerge {
        let mut result = LeafQueryResult::empty();
        result.blocks_pruned = plan.blocks_pruned;
        result.blocks_zonemap_pruned = plan.blocks_zonemap_pruned;
        result.blocks_scanned = plan.blocks.len() as u64;
        PartialMerge {
            result,
            counts: ScanCounts::default(),
        }
    }

    /// Fold in the next block's partial.
    pub fn push(&mut self, partial: BlockPartial) {
        let BlockPartial {
            rows_scanned,
            rows_matched,
            counts,
            groups,
        } = partial;
        self.result.rows_scanned += rows_scanned;
        self.result.rows_matched += rows_matched;
        self.counts.add(&counts);
        for (key, states) in groups {
            match self.result.groups.entry(key) {
                Entry::Vacant(slot) => {
                    slot.insert(states);
                }
                Entry::Occupied(mut merged) => {
                    for (m, s) in merged.get_mut().iter_mut().zip(states) {
                        m.merge_owned(s);
                    }
                }
            }
        }
    }

    /// The answer, and what the scans read.
    pub fn finish(self) -> (LeafQueryResult, ScanCounts) {
        (self.result, self.counts)
    }
}

/// Execute `query` over one leaf-local table fraction.
pub fn execute(table: &Table, query: &Query) -> StoreResult<LeafQueryResult> {
    debug_assert_eq!(table.name(), query.table);
    let plan = crate::plan::plan_scan(table, query)?;
    let touched = query.touched_columns();
    let mut merge = PartialMerge::new(&plan);
    for block in &plan.blocks {
        merge.push(fold_block(block, query, &touched)?);
    }
    Ok(merge.finish().0)
}

/// Fold one block's rows, one at a time, into fresh states. The open
/// block's cells are the builder's own, read through [`ColumnData::get`].
fn fold_block(
    block: &PlannedBlock<'_>,
    query: &Query,
    touched: &[&str],
) -> StoreResult<BlockPartial> {
    let rows = block.row_count();
    let mut partial = BlockPartial {
        rows_scanned: rows as u64,
        ..BlockPartial::default()
    };
    if rows == 0 {
        return Ok(partial);
    }
    let time_col = block
        .cells(TIME_COLUMN)?
        .expect("every block has a time column");
    // Decode touched columns once per block; missing columns read as
    // all-null.
    let mut cols: Vec<(&str, Option<Cow<'_, ColumnData>>)> = Vec::with_capacity(touched.len());
    for &name in touched {
        cols.push((name, block.cells(name)?));
    }
    let cell = |name: &str, row: usize| -> Value {
        if name == TIME_COLUMN {
            return time_col.get(row);
        }
        cols.iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, c)| c.as_ref())
            .map(|c| c.get(row))
            .unwrap_or(Value::Null)
    };

    let mut groups: BTreeMap<GroupKey, Vec<AggState>> = BTreeMap::new();
    'rows: for row in 0..rows {
        let t = time_col.get(row).as_int().unwrap_or(i64::MIN);
        if t < query.time_from || t >= query.time_to {
            continue;
        }
        for f in &query.filters {
            if !f.matches(&cell(&f.column, row)) {
                continue 'rows;
            }
        }
        partial.rows_matched += 1;
        let inner = match &query.group_by {
            None => GroupKey::Null,
            Some(g) => GroupKey::from_value(&cell(g, row)),
        };
        let key = match query.bucket_secs {
            None => inner,
            Some(w) => GroupKey::Bucketed(bucket_start(t, w), Box::new(inner)),
        };
        let states = groups
            .entry(key)
            .or_insert_with(|| query.aggregates.iter().map(|a| a.new_state()).collect());
        for (state, spec) in states.iter_mut().zip(&query.aggregates) {
            match spec.column() {
                None => state.update(&Value::Int(1)), // Count ignores the cell
                Some(c) => state.update(&cell(c, row)),
            }
        }
    }
    partial.groups = groups.into_iter().collect();
    Ok(partial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggSpec;
    use crate::expr::{CmpOp, Filter};
    use scuba_columnstore::Row;

    /// 100 request-log rows at times 0..100: status alternates 200/500,
    /// endpoint cycles over 3 values, latency = row index.
    fn service_table() -> Table {
        let mut t = Table::new("requests", 0);
        for i in 0..100i64 {
            let row = Row::at(i)
                .with("status", if i % 2 == 0 { 200i64 } else { 500 })
                .with("endpoint", format!("/api/{}", i % 3))
                .with("latency", i as f64);
            t.append(&row, 0).unwrap();
        }
        t.seal(0).unwrap();
        t
    }

    #[test]
    fn count_all() {
        let t = service_table();
        let q = Query::new("requests", 0, 100);
        let r = execute(&t, &q).unwrap();
        assert_eq!(r.rows_matched, 100);
        assert_eq!(r.groups[&GroupKey::Null][0].finish(), Value::Int(100));
    }

    #[test]
    fn time_range_is_half_open() {
        let t = service_table();
        let r = execute(&t, &Query::new("requests", 10, 20)).unwrap();
        assert_eq!(r.rows_matched, 10);
        let r = execute(&t, &Query::new("requests", 99, 99)).unwrap();
        assert_eq!(r.rows_matched, 0);
    }

    #[test]
    fn filters_conjoin() {
        let t = service_table();
        let q = Query::new("requests", 0, 100)
            .filter(Filter::new("status", CmpOp::Eq, 500i64))
            .filter(Filter::new("endpoint", CmpOp::Eq, "/api/1"));
        let r = execute(&t, &q).unwrap();
        // status==500 => odd i; endpoint 1 => i % 3 == 1; both => i in {1,7,13,...}
        let expected = (0..100).filter(|i| i % 2 == 1 && i % 3 == 1).count() as u64;
        assert_eq!(r.rows_matched, expected);
    }

    #[test]
    fn group_by_with_multiple_aggregates() {
        let t = service_table();
        let q = Query::new("requests", 0, 100)
            .group_by("endpoint")
            .aggregates(vec![
                AggSpec::Count,
                AggSpec::Avg("latency".into()),
                AggSpec::Max("latency".into()),
            ]);
        let r = execute(&t, &q).unwrap();
        assert_eq!(r.groups.len(), 3);
        let g1 = &r.groups[&GroupKey::Str("/api/1".into())];
        // endpoint 1: i = 1, 4, ..., 97 -> 33 rows, max 97.
        assert_eq!(g1[0].finish(), Value::Int(33));
        assert_eq!(g1[2].finish(), Value::Double(97.0));
    }

    #[test]
    fn pruning_counts_blocks() {
        let mut t = Table::new("requests", 0);
        for epoch in 0..10i64 {
            for i in 0..20 {
                t.append(&Row::at(epoch * 100 + i), 0).unwrap();
            }
            t.seal(0).unwrap();
        }
        let r = execute(&t, &Query::new("requests", 200, 250)).unwrap();
        assert_eq!(r.blocks_scanned, 1);
        assert_eq!(r.blocks_pruned, 9);
        assert_eq!(r.rows_scanned, 20); // only the surviving block decoded
        assert_eq!(r.rows_matched, 20);
    }

    #[test]
    fn sees_unsealed_rows() {
        let mut t = Table::new("requests", 0);
        t.append(&Row::at(5).with("status", 200i64), 0).unwrap();
        let r = execute(&t, &Query::new("requests", 0, 10)).unwrap();
        assert_eq!(r.rows_matched, 1);
    }

    #[test]
    fn missing_column_is_null() {
        let t = service_table();
        // Filter on a column the table doesn't have: nothing matches.
        let q = Query::new("requests", 0, 100).filter(Filter::new("nope", CmpOp::Eq, 1i64));
        let r = execute(&t, &q).unwrap();
        assert_eq!(r.rows_matched, 0);
        // Aggregating a missing column: count still works, avg is null.
        let q = Query::new("requests", 0, 100)
            .aggregates(vec![AggSpec::Count, AggSpec::Avg("nope".into())]);
        let r = execute(&t, &q).unwrap();
        let g = &r.groups[&GroupKey::Null];
        assert_eq!(g[0].finish(), Value::Int(100));
        assert_eq!(g[1].finish(), Value::Null);
    }

    #[test]
    fn filter_on_time_column_works() {
        let t = service_table();
        let q = Query::new("requests", 0, 100).filter(Filter::new(TIME_COLUMN, CmpOp::Lt, 5i64));
        let r = execute(&t, &q).unwrap();
        assert_eq!(r.rows_matched, 5);
    }

    #[test]
    fn time_buckets_produce_series() {
        let t = service_table(); // times 0..99
        let q = Query::new("requests", 0, 100)
            .bucket_secs(25)
            .aggregates(vec![AggSpec::Count]);
        let r = execute(&t, &q).unwrap();
        assert_eq!(r.groups.len(), 4);
        for start in [0i64, 25, 50, 75] {
            let key = GroupKey::Bucketed(start, Box::new(GroupKey::Null));
            assert_eq!(r.groups[&key][0].finish(), Value::Int(25), "bucket {start}");
        }
    }

    #[test]
    fn time_buckets_compose_with_group_by() {
        let t = service_table();
        let q = Query::new("requests", 0, 100)
            .bucket_secs(50)
            .group_by("status")
            .aggregates(vec![AggSpec::Count]);
        let r = execute(&t, &q).unwrap();
        assert_eq!(r.groups.len(), 4); // 2 buckets x 2 statuses
        let key = GroupKey::Bucketed(0, Box::new(GroupKey::Int(200)));
        assert_eq!(r.groups[&key][0].finish(), Value::Int(25));
    }

    #[test]
    fn negative_times_bucket_correctly() {
        let mut t = Table::new("requests", 0);
        for i in -10i64..10 {
            t.append(&Row::at(i), 0).unwrap();
        }
        let q = Query::new("requests", -10, 10)
            .bucket_secs(10)
            .aggregates(vec![AggSpec::Count]);
        let r = execute(&t, &q).unwrap();
        // rem_euclid floors toward -inf: buckets -10 and 0.
        assert_eq!(r.groups.len(), 2);
        let key = GroupKey::Bucketed(-10, Box::new(GroupKey::Null));
        assert_eq!(r.groups[&key][0].finish(), Value::Int(10));
    }

    #[test]
    fn percentile_and_distinct_aggregates() {
        let t = service_table(); // latency = row index 0..99
        let q = Query::new("requests", 0, 100).aggregates(vec![
            AggSpec::p50("latency"),
            AggSpec::p99("latency"),
            AggSpec::CountDistinct("endpoint".into()),
            AggSpec::CountDistinct("status".into()),
        ]);
        let r = execute(&t, &q).unwrap();
        let g = &r.groups[&GroupKey::Null];
        let p50 = g[0].finish().as_double().unwrap();
        assert!((p50 - 50.0).abs() < 8.0, "p50 = {p50}");
        let p99 = g[1].finish().as_double().unwrap();
        assert!(p99 > 90.0 && p99 <= 99.0 * 1.1, "p99 = {p99}");
        assert_eq!(g[2].finish(), Value::Int(3)); // 3 endpoints
        assert_eq!(g[3].finish(), Value::Int(2)); // 200/500
    }

    #[test]
    fn empty_table_empty_result() {
        let t = Table::new("requests", 0);
        let r = execute(&t, &Query::new("requests", 0, 100)).unwrap();
        assert_eq!(r.rows_matched, 0);
        assert!(r.groups.is_empty());
    }
}
