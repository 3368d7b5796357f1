//! Scan planning shared by the row-wise and vectorized executors: block
//! selection by time range (§2.1 min/max pruning) plus zone-map pruning
//! on filter columns.
//!
//! Both executors MUST plan through [`plan_scan`] so their pruning
//! decisions — and therefore `rows_scanned` / `blocks_*` accounting — are
//! identical; the differential suite relies on that.
//!
//! Zone pruning is conservative: a block is dropped only when its
//! statistics *prove* no row can satisfy some filter (filters conjoin, so
//! one impossible filter kills the block). Blocks without zone maps (disk
//! recovery, legacy images) simply scan.
//!
//! A plan borrows the table: besides the sealed blocks it may hold the
//! table's open block, the builder itself ([`PlannedBlock::Open`]), which
//! the scan reads where it lies. The open block never counts as
//! time-pruned, and its zone test reads, for the filter's column only,
//! the statistics its seal would record ([`RowBlockBuilder::zone`]).

use std::borrow::Cow;
use std::sync::Arc;

use scuba_columnstore::{
    ColumnData, ColumnType, ColumnView, Result as StoreResult, RowBlock, RowBlockBuilder, Schema,
    Table, Value, ZoneStats,
};

use crate::expr::{CmpOp, Filter};
use crate::query::Query;

/// The blocks a query will scan, plus pruning accounting.
#[derive(Debug)]
pub struct ScanPlan<'t> {
    /// Surviving blocks, sealed ones oldest first, then the open block.
    pub blocks: Vec<PlannedBlock<'t>>,
    /// Sealed blocks skipped by the min/max-timestamp test.
    pub blocks_pruned: u64,
    /// Blocks skipped by zone-map statistics on filter columns.
    pub blocks_zonemap_pruned: u64,
}

/// One block a plan scans.
#[derive(Debug, Clone)]
pub enum PlannedBlock<'t> {
    /// A sealed row block.
    Sealed(Arc<RowBlock>),
    /// The table's open block: rows `[0, n)` of its builder, `n` its row
    /// count while the plan borrows it.
    Open(&'t RowBlockBuilder),
}

impl PlannedBlock<'_> {
    /// The sealed block, if this is one.
    pub fn sealed(&self) -> Option<&Arc<RowBlock>> {
        match self {
            PlannedBlock::Sealed(block) => Some(block),
            PlannedBlock::Open(_) => None,
        }
    }

    /// Rows in the block.
    pub fn row_count(&self) -> usize {
        match self {
            PlannedBlock::Sealed(block) => block.row_count(),
            PlannedBlock::Open(open) => open.row_count(),
        }
    }

    /// A scan view of column `name` (`None` when the block lacks it): over
    /// the encoded buffer of a sealed block, in place over the builder's
    /// cells of the open one.
    pub fn view(&self, name: &str) -> StoreResult<Option<ColumnView<'_>>> {
        match self {
            PlannedBlock::Sealed(block) => block.column(name).map(ColumnView::build).transpose(),
            PlannedBlock::Open(open) => Ok(open.view(name)),
        }
    }

    /// Column `name`'s cells (`None` when the block lacks it): decoded
    /// from a sealed block, the builder's own for the open one.
    pub fn cells(&self, name: &str) -> StoreResult<Option<Cow<'_, ColumnData>>> {
        Ok(match self {
            PlannedBlock::Sealed(block) => block.decode_column(name).transpose()?.map(Cow::Owned),
            PlannedBlock::Open(open) => open.column(name).map(Cow::Borrowed),
        })
    }

    /// True if `filter` provably matches no row of the block: for the
    /// open block, exactly what its seal's zone map would decide.
    pub fn prunes(&self, filter: &Filter) -> bool {
        match self {
            PlannedBlock::Sealed(block) => filter_prunes_block(block, filter),
            PlannedBlock::Open(open) => prunes(open.schema(), filter, || {
                open.zone(&filter.column).map(Cow::Owned)
            }),
        }
    }
}

/// Select the blocks `query` must scan over `table`.
pub fn plan_scan<'t>(table: &'t Table, query: &Query) -> StoreResult<ScanPlan<'t>> {
    let (from, to) = (query.time_from, query.time_to);
    let sealed = table.blocks_in_range(from, to);
    let mut plan = ScanPlan {
        blocks: Vec::with_capacity(sealed.len() + 1),
        blocks_pruned: (table.blocks().len() - sealed.len()) as u64,
        blocks_zonemap_pruned: 0,
    };
    let open = table.open_in_range(from, to).map(PlannedBlock::Open);
    for block in sealed.into_iter().map(PlannedBlock::Sealed).chain(open) {
        if query.filters.iter().any(|f| block.prunes(f)) {
            plan.blocks_zonemap_pruned += 1;
        } else {
            plan.blocks.push(block);
        }
    }
    Ok(plan)
}

/// True if `filter` provably matches no row of `block`.
pub fn filter_prunes_block(block: &RowBlock, filter: &Filter) -> bool {
    prunes(block.schema(), filter, || {
        block
            .zones()
            .and_then(|z| z.get(&filter.column))
            .map(Cow::Borrowed)
    })
}

/// True if `filter` provably matches no row of a block of `schema` whose
/// filter column has the statistics `stats` returns.
fn prunes<'z>(
    schema: &Schema,
    filter: &Filter,
    stats: impl FnOnce() -> Option<Cow<'z, ZoneStats>>,
) -> bool {
    // A column the block lacks reads as all-null, and nulls never match.
    let Some(idx) = schema.index_of(&filter.column) else {
        return true;
    };
    let col_ty = schema.column(idx).expect("index from schema").1;
    // Statically impossible (cell type, literal type, op) combinations.
    if !type_can_match(col_ty, &filter.literal, filter.op) {
        return true;
    }
    // Range pruning needs statistics.
    let Some(stats) = stats() else {
        return false;
    };
    match &*stats {
        ZoneStats::AllNull => true,
        // Same-type comparisons only: widening an i64 zone bound to f64
        // (or vice versa) rounds for |v| > 2^53, so cross-type numeric
        // filters scan rather than risk an unsound prune.
        ZoneStats::Int { min, max } => match &filter.literal {
            Value::Int(b) => !range_can_match(filter.op, min, max, b),
            _ => false,
        },
        ZoneStats::Double { min, max } => match &filter.literal {
            Value::Double(b) => !range_can_match(filter.op, min, max, b),
            _ => false,
        },
        ZoneStats::Str { min, max } => match (&filter.literal, filter.op) {
            // Substrings aren't bounded by lexicographic min/max.
            (Value::Str(_), CmpOp::Contains) => false,
            (Value::Str(b), op) => !range_can_match(op, min, max, b),
            _ => false,
        },
    }
}

/// Can a cell of `cell_ty` ever satisfy `op literal`? Mirrors the type
/// dispatch of [`Filter::matches`].
fn type_can_match(cell_ty: ColumnType, literal: &Value, op: CmpOp) -> bool {
    match cell_ty {
        // Numeric cells compare (with widening) against numeric literals;
        // Contains is never true for numbers.
        ColumnType::Int64 | ColumnType::Double => {
            matches!(literal, Value::Int(_) | Value::Double(_)) && op != CmpOp::Contains
        }
        ColumnType::Str => matches!(literal, Value::Str(_)),
        ColumnType::StrSet => match literal {
            Value::Str(_) => op == CmpOp::Contains,
            Value::StrSet(_) => matches!(op, CmpOp::Eq | CmpOp::Ne),
            _ => false,
        },
    }
}

/// Given present values confined to `[min, max]`, can `v op b` hold for
/// some v? (`PartialOrd` so a NaN literal conservatively reports
/// "cannot match" for the ordered ops, which is exact: NaN comparisons
/// are always false.)
fn range_can_match<T: PartialOrd + ?Sized>(op: CmpOp, min: &T, max: &T, b: &T) -> bool {
    match op {
        CmpOp::Eq => min <= b && b <= max,
        CmpOp::Ne => !(min == b && max == b),
        CmpOp::Lt => min < b,
        CmpOp::Le => min <= b,
        CmpOp::Gt => max > b,
        CmpOp::Ge => max >= b,
        CmpOp::Contains => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scuba_columnstore::Row;

    fn table_with_epochs() -> Table {
        // 4 sealed blocks: codes 0..10, 10..20, 20..30, 30..40; hosts only
        // in the last block.
        let mut t = Table::new("t", 0);
        for epoch in 0..4i64 {
            for i in 0..10 {
                let mut row = Row::at(epoch * 100 + i).with("code", epoch * 10 + i);
                if epoch == 3 {
                    row.set("host", format!("h{i}"));
                }
                t.append(&row, 0).unwrap();
            }
            t.seal(0).unwrap();
        }
        t
    }

    #[test]
    fn time_pruning_counts_in_one_pass() {
        let t = table_with_epochs();
        let q = Query::new("t", 100, 150);
        let plan = plan_scan(&t, &q).unwrap();
        assert_eq!(plan.blocks.len(), 1);
        assert_eq!(plan.blocks_pruned, 3);
        assert_eq!(plan.blocks_zonemap_pruned, 0);
    }

    #[test]
    fn zone_maps_prune_disjoint_ranges() {
        let t = table_with_epochs();
        // code >= 35 lives only in the last block.
        let q = Query::new("t", 0, 1000).filter(Filter::new("code", CmpOp::Ge, 35i64));
        let plan = plan_scan(&t, &q).unwrap();
        assert_eq!(plan.blocks.len(), 1);
        assert_eq!(plan.blocks_pruned, 0);
        assert_eq!(plan.blocks_zonemap_pruned, 3);
        // Eq out of every range prunes everything.
        let q = Query::new("t", 0, 1000).filter(Filter::new("code", CmpOp::Eq, 99i64));
        let plan = plan_scan(&t, &q).unwrap();
        assert!(plan.blocks.is_empty());
        assert_eq!(plan.blocks_zonemap_pruned, 4);
    }

    #[test]
    fn missing_column_and_cross_type_prune() {
        let t = table_with_epochs();
        // `host` exists only in the last block; the other three prune.
        let q = Query::new("t", 0, 1000).filter(Filter::new("host", CmpOp::Eq, "h3"));
        let plan = plan_scan(&t, &q).unwrap();
        assert_eq!(plan.blocks.len(), 1);
        assert_eq!(plan.blocks_zonemap_pruned, 3);
        // A string literal can never match an int column: all blocks prune.
        let q = Query::new("t", 0, 1000).filter(Filter::new("code", CmpOp::Eq, "nope"));
        let plan = plan_scan(&t, &q).unwrap();
        assert!(plan.blocks.is_empty());
    }

    #[test]
    fn blocks_without_zones_are_not_pruned() {
        let t = table_with_epochs();
        // Strip zones by round-tripping blocks through from_parts.
        let stripped: Vec<_> = t
            .blocks()
            .iter()
            .map(|b| {
                Arc::new(
                    RowBlock::from_parts(*b.header(), b.schema().clone(), b.columns().to_vec())
                        .unwrap(),
                )
            })
            .collect();
        let t2 = Table::from_blocks("t", stripped, 0);
        let q = Query::new("t", 0, 1000).filter(Filter::new("code", CmpOp::Eq, 99i64));
        let plan = plan_scan(&t2, &q).unwrap();
        // Type matches and no stats: every block scans.
        assert_eq!(plan.blocks.len(), 4);
        assert_eq!(plan.blocks_zonemap_pruned, 0);
    }

    #[test]
    fn range_logic_is_sound_at_bounds() {
        // [10, 20] zone.
        for (op, b, can) in [
            (CmpOp::Eq, 10, true),
            (CmpOp::Eq, 20, true),
            (CmpOp::Eq, 9, false),
            (CmpOp::Eq, 21, false),
            (CmpOp::Lt, 10, false),
            (CmpOp::Lt, 11, true),
            (CmpOp::Le, 9, false),
            (CmpOp::Le, 10, true),
            (CmpOp::Gt, 20, false),
            (CmpOp::Gt, 19, true),
            (CmpOp::Ge, 21, false),
            (CmpOp::Ge, 20, true),
            (CmpOp::Ne, 15, true),
        ] {
            assert_eq!(range_can_match(op, &10, &20, &b), can, "{op:?} {b}");
        }
        // Ne prunes only a constant block equal to the literal.
        assert!(!range_can_match(CmpOp::Ne, &7, &7, &7));
        assert!(range_can_match(CmpOp::Ne, &7, &7, &8));
    }
}
