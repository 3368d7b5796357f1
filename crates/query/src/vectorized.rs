//! Vectorized leaf-local query execution.
//!
//! Same plan shape as [`crate::exec::execute`] — prune blocks, filter,
//! fold into per-group aggregate states — but the cost is per block and
//! per distinct key, not per row:
//!
//! * a block whose header proves it lies inside the query's time range
//!   skips the time predicate, and does not decode the time column at all
//!   unless something else names it — an unfiltered `count(*)` reads no
//!   column payload,
//! * integers and doubles filter over dense typed arrays
//!   ([`scan::sel_retain`]), nulls handled by the presence bitmap,
//! * string filters evaluate once per *dictionary entry*
//!   ([`scan::DictMask`]) and then compare packed ids — never
//!   materializing row strings; all-match/none-match dictionaries skip the
//!   id pass entirely,
//! * groups live in an executor-local arena addressed by slot; a
//!   dictionary group column resolves `dict id → slot` once per distinct
//!   entry per block, and aggregate inputs are read typed from the views —
//!   no `String`, `Box` or [`Value`] per row.
//!
//! Views are built straight from the encoded buffers, so mapped
//! (shm-resident) blocks are scanned in place. The row-wise executor stays
//! as the differential oracle: for every query both paths must produce
//! identical results — scan statistics and f64 bit patterns included, which
//! is why every accumulator still sees its rows in ascending order — see
//! the tests here and `tests/differential.rs`.

use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::{BTreeMap, HashMap, HashSet};

use scuba_columnstore::scan::{
    self, sel_all, sel_clear, sel_count, sel_for_each, sel_for_each_present, sel_is_empty,
    DictMask, Presence,
};
use scuba_columnstore::{
    ColumnType, ColumnView, Result as StoreResult, RowBlock, Table, Value, TIME_COLUMN,
};

use crate::agg::{AggSpec, AggState, DistinctValue};
use crate::exec::LeafQueryResult;
use crate::expr::{cmp_ord, CmpOp, Filter};
use crate::plan::ScanPlan;
use crate::query::{GroupKey, Query};

/// Execute `query` over one leaf-local table fraction, vectorized.
/// Differentially equal to [`crate::exec::execute`].
pub fn execute_vectorized(table: &Table, query: &Query) -> StoreResult<LeafQueryResult> {
    debug_assert_eq!(table.name(), query.table);
    execute_planned(&crate::plan::plan_scan(table, query)?, query)
}

/// [`execute_vectorized`] over a plan the caller already made with
/// [`crate::plan::plan_scan`] for this same `query` — the leaf plans once
/// and hands the same blocks to its first-touch checks and to the scan.
pub fn execute_planned(plan: &ScanPlan, query: &Query) -> StoreResult<LeafQueryResult> {
    let mut result = LeafQueryResult::empty();
    result.blocks_pruned = plan.blocks_pruned;
    result.blocks_zonemap_pruned = plan.blocks_zonemap_pruned;
    result.blocks_scanned = plan.blocks.len() as u64;
    let columns = query.columns_read();
    let mut fold = Fold::new(query);
    for block in &plan.blocks {
        scan_block(block, query, &columns, &mut fold, &mut result)?;
    }
    result.groups = fold.arena.finish();
    Ok(result)
}

#[cfg(test)]
thread_local! {
    /// Column views built by this thread's scans — how the tests see that
    /// a header-answered block decoded nothing.
    static VIEWS_BUILT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The scan views of one block's columns, each built on first use.
struct BlockViews<'a> {
    block: &'a RowBlock,
    /// [`Query::columns_read`]: every name the scan can ask for.
    names: &'a [&'a str],
    cells: Vec<OnceCell<Option<ColumnView>>>,
}

impl<'a> BlockViews<'a> {
    fn new(block: &'a RowBlock, names: &'a [&'a str]) -> Self {
        BlockViews {
            block,
            names,
            cells: names.iter().map(|_| OnceCell::new()).collect(),
        }
    }

    /// The view for `name`; `None` when the block lacks the column (reads
    /// as all-null).
    fn get(&self, name: &str) -> StoreResult<Option<&ColumnView>> {
        let i = self
            .names
            .iter()
            .position(|n| *n == name)
            .expect("columns_read lists every column the scan asks for");
        if let Some(view) = self.cells[i].get() {
            return Ok(view.as_ref());
        }
        let built = match self.block.column(name) {
            None => None,
            Some(col) => {
                #[cfg(test)]
                VIEWS_BUILT.with(|n| n.set(n.get() + 1));
                Some(ColumnView::build(col)?)
            }
        };
        Ok(self.cells[i].get_or_init(|| built).as_ref())
    }
}

/// Does the block header alone prove every row lies in `[from, to)`?
/// Planning already trusts the header to drop blocks outside the range;
/// this is the same trust for blocks inside it. The header's bounds cover
/// real timestamps only — a null one reads as `i64::MIN` — so the time
/// column must hold no null (its presence flag, one byte).
fn header_answers_range(block: &RowBlock, from: i64, to: i64) -> StoreResult<bool> {
    let h = block.header();
    if h.min_time < from || h.max_time >= to {
        return Ok(false);
    }
    let time = block
        .column(TIME_COLUMN)
        .expect("every block has a time column");
    Ok(time.column_type()? == ColumnType::Int64 && time.is_fully_present()?)
}

/// Dense per-row timestamps with nulls as `i64::MIN` — the same
/// substitution the row-wise path makes for range tests and bucketing.
/// (TIME *filters* still see the real cell via the view's presence.)
fn dense_times(view: &ColumnView, rows: usize) -> Cow<'_, [i64]> {
    match view {
        ColumnView::Int64 {
            presence: None,
            values,
        } => Cow::Borrowed(values),
        _ => (0..rows)
            .map(|r| view.value(r).as_int().unwrap_or(i64::MIN))
            .collect(),
    }
}

fn scan_block(
    block: &RowBlock,
    query: &Query,
    columns: &[&str],
    fold: &mut Fold<'_>,
    result: &mut LeafQueryResult,
) -> StoreResult<()> {
    let rows = block.row_count();
    if rows == 0 {
        return Ok(());
    }
    result.rows_scanned += rows as u64;
    let views = BlockViews::new(block, columns);

    // Selection = time range, then each filter, with an early exit the
    // moment nothing survives.
    let (from, to) = (query.time_from, query.time_to);
    let in_range = header_answers_range(block, from, to)?;
    let times = if in_range && query.bucket_secs.is_none() {
        None
    } else {
        let view = views
            .get(TIME_COLUMN)?
            .expect("every block has a time column");
        Some(dense_times(view, rows))
    };
    let mut sel = sel_all(rows);
    if !in_range {
        let times = times.as_deref().expect("decoded above");
        scan::sel_retain(&mut sel, None, times, |t| t >= from && t < to);
    }
    for f in &query.filters {
        if sel_is_empty(&sel) {
            break;
        }
        match views.get(&f.column)? {
            None => sel_clear(&mut sel),
            Some(view) => apply_filter(&mut sel, view, f),
        }
    }
    result.rows_matched += sel_count(&sel);
    if sel_is_empty(&sel) {
        return Ok(());
    }
    fold.block(&sel, times.as_deref(), &views)
}

/// Every group the query has produced so far: key → slot, and per slot one
/// accumulator per aggregate. Rows address their group by slot, so the key
/// is built, hashed and compared once per distinct value per block instead
/// of once per row; the sorted map the result wants is built once, at the
/// end.
struct Arena<'q> {
    aggregates: &'q [AggSpec],
    index: HashMap<GroupKey, u32>,
    states: Vec<Vec<AggState>>,
}

impl Arena<'_> {
    fn slot(&mut self, key: GroupKey) -> u32 {
        let Arena {
            aggregates,
            index,
            states,
        } = self;
        *index.entry(key).or_insert_with(|| {
            states.push(aggregates.iter().map(AggSpec::new_state).collect());
            (states.len() - 1) as u32
        })
    }

    fn state(&mut self, slot: u32, agg: usize) -> &mut AggState {
        &mut self.states[slot as usize][agg]
    }

    fn finish(mut self) -> BTreeMap<GroupKey, Vec<AggState>> {
        self.index
            .into_iter()
            .map(|(key, slot)| (key, std::mem::take(&mut self.states[slot as usize])))
            .collect()
    }
}

/// One block's map from a row's inner group id (0 = the `Null` key, else
/// dictionary id + 1) to its arena slot, filled as ids are first seen.
/// Under time bucketing the slot also depends on the bucket, so the table
/// speaks for one bucket at a time: [`Self::invalidate`] empties it in
/// O(1) by bumping the stamp the live cells must carry.
#[derive(Default)]
struct SlotTable {
    cells: Vec<(u64, u32)>,
    stamp: u64,
}

impl SlotTable {
    fn reset(&mut self, ids: usize) {
        self.cells.clear();
        self.cells.resize(ids, (0, 0));
        self.stamp = 1;
    }

    fn invalidate(&mut self) {
        self.stamp += 1;
    }

    fn get(&self, id: usize) -> Option<u32> {
        let (stamp, slot) = self.cells[id];
        (stamp == self.stamp).then_some(slot)
    }

    fn set(&mut self, id: usize, slot: u32) {
        self.cells[id] = (self.stamp, slot);
    }
}

/// Which slot each selected row of the current block folds into.
enum Slots<'a> {
    /// Every row: no group-by (or an all-null group column), no bucketing.
    One(u32),
    /// Indexed by row; only selected rows are filled in.
    PerRow(&'a [u32]),
}

impl Slots<'_> {
    fn of(&self, row: usize) -> u32 {
        match self {
            Slots::One(slot) => *slot,
            Slots::PerRow(slots) => slots[row],
        }
    }
}

/// How the fold finds a row's inner (pre-bucket) group key.
enum GroupSource<'a> {
    /// By id through the [`SlotTable`]: 0 is the `Null` key, and a
    /// dictionary group column (the view and its entries) adds one id per
    /// entry, so no row string is materialized. Without a view — no
    /// group-by, the column is absent, or it holds doubles (see
    /// [`GroupKey::from_value`]) — every row is `Null`.
    ById(Option<&'a ColumnView>, &'a [String]),
    /// Integers and string sets: box the cell and convert.
    Boxed(&'a ColumnView),
}

/// The fold state of one query: the arena plus per-block scratch whose
/// allocations are reused from block to block.
struct Fold<'q> {
    query: &'q Query,
    arena: Arena<'q>,
    table: SlotTable,
    row_slots: Vec<u32>,
    /// `(slot, dictionary id)` pairs a `CountDistinct` already inserted
    /// from the current block.
    seen: HashSet<(u32, u32)>,
}

impl<'q> Fold<'q> {
    fn new(query: &'q Query) -> Self {
        Fold {
            query,
            arena: Arena {
                aggregates: &query.aggregates,
                index: HashMap::new(),
                states: Vec::new(),
            },
            table: SlotTable::default(),
            row_slots: Vec::new(),
            seen: HashSet::new(),
        }
    }

    /// Fold the selected rows of one block. `times` is present whenever
    /// the query buckets.
    fn block(
        &mut self,
        sel: &[u64],
        times: Option<&[i64]>,
        views: &BlockViews<'_>,
    ) -> StoreResult<()> {
        let query = self.query;
        let source = match &query.group_by {
            None => GroupSource::ById(None, &[]),
            Some(g) => match views.get(g)? {
                None | Some(ColumnView::Double { .. }) => GroupSource::ById(None, &[]),
                Some(view @ ColumnView::Dict { entries, .. }) => {
                    GroupSource::ById(Some(view), entries)
                }
                Some(view) => GroupSource::Boxed(view),
            },
        };
        let bucket_of = |row: usize| {
            query.bucket_secs.map(|w| {
                let t = times.expect("bucketing decodes the time column")[row];
                t - t.rem_euclid(w)
            })
        };
        let keyed = |bucket: Option<i64>, inner: GroupKey| match bucket {
            None => inner,
            Some(start) => GroupKey::Bucketed(start, Box::new(inner)),
        };

        let Fold {
            arena,
            table,
            row_slots,
            seen,
            ..
        } = self;
        let slots = match source {
            GroupSource::ById(None, _) if query.bucket_secs.is_none() => {
                Slots::One(arena.slot(GroupKey::Null))
            }
            GroupSource::ById(view, entries) => {
                row_slots.clear();
                row_slots.resize(sel.len() * 64, 0);
                table.reset(entries.len() + 1);
                let mut current = None;
                sel_for_each(sel, |row| {
                    let bucket = bucket_of(row);
                    if bucket != current {
                        table.invalidate();
                        current = bucket;
                    }
                    let id = view
                        .and_then(|v| v.dict_id(row))
                        .map_or(0, |id| id as usize + 1);
                    row_slots[row] = table.get(id).unwrap_or_else(|| {
                        let inner = match id {
                            0 => GroupKey::Null,
                            _ => GroupKey::Str(entries[id - 1].clone()),
                        };
                        let slot = arena.slot(keyed(bucket, inner));
                        table.set(id, slot);
                        slot
                    });
                });
                Slots::PerRow(row_slots)
            }
            GroupSource::Boxed(view) => {
                row_slots.clear();
                row_slots.resize(sel.len() * 64, 0);
                sel_for_each(sel, |row| {
                    let inner = GroupKey::from_value(&view.value(row));
                    row_slots[row] = arena.slot(keyed(bucket_of(row), inner));
                });
                Slots::PerRow(row_slots)
            }
        };

        // One pass per aggregate, each a loop over one typed array. Every
        // accumulator still meets its rows in ascending order, so float
        // sums round exactly as the row-wise fold's do.
        for (agg, spec) in query.aggregates.iter().enumerate() {
            let Some(column) = spec.column() else {
                match slots {
                    Slots::One(slot) => arena.state(slot, agg).add_count(sel_count(sel)),
                    Slots::PerRow(slots) => {
                        sel_for_each(sel, |row| arena.state(slots[row], agg).add_count(1))
                    }
                }
                continue;
            };
            // A column the block lacks is all-null: nothing to fold.
            let Some(view) = views.get(column)? else {
                continue;
            };
            if matches!(spec, AggSpec::CountDistinct(_)) {
                fold_distinct(arena, agg, sel, &slots, view, seen);
                continue;
            }
            match view {
                ColumnView::Int64 { presence, values } => {
                    fold_num(arena, agg, sel, &slots, presence.as_ref(), values, |v| {
                        v as f64
                    })
                }
                ColumnView::Double { presence, values } => {
                    fold_num(arena, agg, sel, &slots, presence.as_ref(), values, |v| v)
                }
                // Strings and sets are not numeric: every cell is skipped.
                ColumnView::Dict { .. } | ColumnView::StrSet(_) => {}
            }
        }
        Ok(())
    }
}

/// Feed one numeric aggregate from a typed column: selected non-null rows,
/// ascending, widened exactly as [`Value::as_numeric`] widens.
fn fold_num<T: Copy>(
    arena: &mut Arena<'_>,
    agg: usize,
    sel: &[u64],
    slots: &Slots<'_>,
    presence: Option<&Presence>,
    values: &[T],
    widen: impl Fn(T) -> f64,
) {
    sel_for_each_present(sel, presence, |row, dense| {
        arena
            .state(slots.of(row), agg)
            .update_num(widen(values[dense]));
    });
}

/// Feed one `CountDistinct`. A dictionary column inserts each entry a
/// group meets once per block, not once per row.
fn fold_distinct(
    arena: &mut Arena<'_>,
    agg: usize,
    sel: &[u64],
    slots: &Slots<'_>,
    view: &ColumnView,
    seen: &mut HashSet<(u32, u32)>,
) {
    match view {
        ColumnView::Int64 { presence, values } => {
            sel_for_each_present(sel, presence.as_ref(), |row, dense| {
                arena
                    .state(slots.of(row), agg)
                    .insert_distinct(DistinctValue::Int(values[dense]));
            })
        }
        ColumnView::Double { presence, values } => {
            sel_for_each_present(sel, presence.as_ref(), |row, dense| {
                arena
                    .state(slots.of(row), agg)
                    .insert_distinct(DistinctValue::Bits(values[dense].to_bits()));
            })
        }
        ColumnView::Dict {
            presence,
            ids,
            entries,
        } => {
            seen.clear();
            sel_for_each_present(sel, presence.as_ref(), |row, dense| {
                let (slot, id) = (slots.of(row), ids[dense]);
                if seen.insert((slot, id)) {
                    arena
                        .state(slot, agg)
                        .insert_distinct(DistinctValue::Str(entries[id as usize].clone()));
                }
            })
        }
        ColumnView::StrSet(data) => sel_for_each(sel, |row| {
            if let Some(v) = DistinctValue::from_value(&data.get(row)) {
                arena.state(slots.of(row), agg).insert_distinct(v);
            }
        }),
    }
}

/// AND `sel` with one filter over a typed view, without boxing values.
/// Must decide exactly as [`Filter::matches`] over the boxed cell.
fn apply_filter(sel: &mut [u64], view: &ColumnView, f: &Filter) {
    let op = f.op;
    match view {
        ColumnView::Int64 { presence, values } => match &f.literal {
            Value::Int(b) => {
                let b = *b;
                scan::sel_retain(sel, presence.as_ref(), values, |v| {
                    cmp_ord(op, v.partial_cmp(&b))
                });
            }
            Value::Double(b) => {
                let b = *b;
                scan::sel_retain(sel, presence.as_ref(), values, |v| {
                    cmp_ord(op, (v as f64).partial_cmp(&b))
                });
            }
            _ => sel_clear(sel),
        },
        ColumnView::Double { presence, values } => match &f.literal {
            Value::Double(b) => {
                let b = *b;
                scan::sel_retain(sel, presence.as_ref(), values, |v| {
                    cmp_ord(op, v.partial_cmp(&b))
                });
            }
            Value::Int(b) => {
                let b = *b as f64;
                scan::sel_retain(sel, presence.as_ref(), values, |v| {
                    cmp_ord(op, v.partial_cmp(&b))
                });
            }
            _ => sel_clear(sel),
        },
        ColumnView::Dict {
            presence,
            ids,
            entries,
        } => match &f.literal {
            Value::Str(b) => {
                let mask = DictMask::build(entries, |e| match op {
                    CmpOp::Contains => e.contains(b.as_str()),
                    _ => cmp_ord(op, e.partial_cmp(b.as_str())),
                });
                if mask.none_match() {
                    sel_clear(sel);
                } else if mask.all_match() {
                    // Every present value matches: selection reduces to
                    // the presence test.
                    if let Some(p) = presence {
                        for (s, pw) in sel.iter_mut().zip(p.words()) {
                            *s &= pw;
                        }
                    }
                } else {
                    scan::sel_retain(sel, presence.as_ref(), ids, |id| mask.matches(id));
                }
            }
            _ => sel_clear(sel),
        },
        // String sets have no ordered encoding to exploit: evaluate the
        // row-wise predicate per selected row.
        ColumnView::StrSet(data) => {
            for (w, word) in sel.iter_mut().enumerate() {
                let mut keep = 0u64;
                let mut bits = *word;
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if f.matches(&data.get(w * 64 + b)) {
                        keep |= 1u64 << b;
                    }
                }
                *word = keep;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggSpec;
    use crate::exec::execute;
    use scuba_columnstore::Row;

    fn assert_same(table: &Table, q: &Query) {
        let row_wise = execute(table, q).unwrap();
        let vec_wise = execute_vectorized(table, q).unwrap();
        assert_eq!(row_wise, vec_wise, "query {q:?}");
    }

    /// Rows with every column type, nulls, and multiple sealed blocks.
    fn mixed_table() -> Table {
        let mut t = Table::new("t", 0);
        for epoch in 0..3i64 {
            for i in 0..50 {
                let n = epoch * 50 + i;
                let mut row = Row::at(epoch * 1000 + i);
                if n % 3 != 0 {
                    row.set("status", if n % 2 == 0 { 200i64 } else { 500 });
                }
                if n % 4 != 0 {
                    row.set("latency", n as f64 / 3.0);
                }
                if n % 5 != 4 {
                    row.set("host", format!("host-{}", n % 7));
                }
                if n % 6 == 0 {
                    row.set(
                        "tags",
                        Value::StrSet(vec![format!("t{}", n % 3), "common".into()]),
                    );
                }
                t.append(&row, 0).unwrap();
            }
            t.seal(0).unwrap();
        }
        // Leave some rows unsealed so the snapshot block is exercised.
        for i in 0..10i64 {
            t.append(&Row::at(3000 + i).with("status", 200i64), 0)
                .unwrap();
        }
        t
    }

    #[test]
    fn matches_row_wise_on_filters() {
        let t = mixed_table();
        for q in [
            Query::new("t", 0, 5000),
            Query::new("t", 0, 5000).filter(Filter::new("status", CmpOp::Eq, 500i64)),
            Query::new("t", 0, 5000).filter(Filter::new("status", CmpOp::Ne, 200i64)),
            Query::new("t", 0, 5000).filter(Filter::new("latency", CmpOp::Lt, 10.5f64)),
            Query::new("t", 0, 5000).filter(Filter::new("latency", CmpOp::Ge, 20i64)),
            Query::new("t", 0, 5000).filter(Filter::new("status", CmpOp::Le, 350.0f64)),
            Query::new("t", 0, 5000).filter(Filter::new("host", CmpOp::Eq, "host-3")),
            Query::new("t", 0, 5000).filter(Filter::new("host", CmpOp::Contains, "ost-5")),
            Query::new("t", 0, 5000).filter(Filter::new("host", CmpOp::Lt, "host-2")),
            Query::new("t", 0, 5000).filter(Filter::new("tags", CmpOp::Contains, "common")),
            Query::new("t", 0, 5000).filter(Filter::new("tags", CmpOp::Contains, "t1")),
            Query::new("t", 0, 5000).filter(Filter::new("nope", CmpOp::Eq, 1i64)),
            Query::new("t", 0, 5000).filter(Filter::new("host", CmpOp::Eq, 7i64)),
            Query::new("t", 0, 5000).filter(Filter::new(TIME_COLUMN, CmpOp::Lt, 25i64)),
            Query::new("t", 1000, 2050)
                .filter(Filter::new("status", CmpOp::Eq, 200i64))
                .filter(Filter::new("host", CmpOp::Ne, "host-1")),
        ] {
            assert_same(&t, &q);
        }
    }

    #[test]
    fn matches_row_wise_on_groups_and_aggregates() {
        let t = mixed_table();
        for q in [
            Query::new("t", 0, 5000).group_by("host"),
            Query::new("t", 0, 5000).group_by("status").aggregates(vec![
                AggSpec::Count,
                AggSpec::Avg("latency".into()),
                AggSpec::Max("latency".into()),
                AggSpec::Min(TIME_COLUMN.into()),
            ]),
            Query::new("t", 0, 5000).group_by("tags"),
            Query::new("t", 0, 5000).group_by("latency"),
            Query::new("t", 0, 5000).group_by("nope"),
            Query::new("t", 0, 5000)
                .bucket_secs(500)
                .group_by("host")
                .aggregates(vec![AggSpec::Count, AggSpec::Sum("status".into())]),
            Query::new("t", 0, 5000)
                .filter(Filter::new("status", CmpOp::Eq, 200i64))
                .bucket_secs(1000)
                .aggregates(vec![
                    AggSpec::p50("latency"),
                    AggSpec::CountDistinct("host".into()),
                ]),
        ] {
            assert_same(&t, &q);
        }
    }

    #[test]
    fn matches_row_wise_over_mapped_blocks() {
        let t = mixed_table();
        let mapped_blocks = t
            .blocks()
            .iter()
            .map(|b| std::sync::Arc::new(scan::remap_block(b).unwrap()))
            .collect();
        let tm = Table::from_blocks("t", mapped_blocks, 0);
        for q in [
            Query::new("t", 0, 5000)
                .filter(Filter::new("host", CmpOp::Contains, "ost-5"))
                .group_by("status")
                .aggregates(vec![AggSpec::Count, AggSpec::Avg("latency".into())]),
            Query::new("t", 0, 2050).filter(Filter::new("latency", CmpOp::Gt, 5.0f64)),
        ] {
            // Mapped vs heap backing must not change results either.
            let heap_sealed = Table::from_blocks("t", t.blocks().to_vec(), 0);
            assert_eq!(
                execute(&heap_sealed, &q).unwrap(),
                execute_vectorized(&tm, &q).unwrap()
            );
            assert_same(&tm, &q);
        }
    }

    #[test]
    fn pruning_stats_match_row_wise() {
        let t = mixed_table();
        // Time pruning and zone pruning paths both exercised.
        for q in [
            Query::new("t", 1000, 1050),
            Query::new("t", 0, 5000).filter(Filter::new("status", CmpOp::Gt, 1000i64)),
            Query::new("t", 0, 5000).filter(Filter::new("host", CmpOp::Eq, "zzz")),
        ] {
            let a = execute(&t, &q).unwrap();
            let b = execute_vectorized(&t, &q).unwrap();
            assert_eq!(a.blocks_pruned, b.blocks_pruned);
            assert_eq!(a.blocks_zonemap_pruned, b.blocks_zonemap_pruned);
            assert_eq!(a.blocks_scanned, b.blocks_scanned);
            assert_eq!(a.rows_scanned, b.rows_scanned);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn float_aggregation_is_bit_identical() {
        // Same fold order => identical float accumulation, not just close:
        // ungrouped, and per group when rows of different groups
        // interleave and the table spans several blocks.
        let mut t = Table::new("t", 0);
        for i in 0..1000i64 {
            let x = (i as f64) * 0.1 + 1e-7 * ((i * 37) % 11) as f64;
            let row = Row::at(i)
                .with("x", x)
                .with("g", format!("g{}", (i * 7) % 13));
            t.append(&row, 0).unwrap();
            if i % 300 == 299 {
                t.seal(0).unwrap();
            }
        }
        let aggs = vec![AggSpec::Sum("x".into()), AggSpec::Avg("x".into())];
        for q in [
            Query::new("t", 0, 1000).aggregates(aggs.clone()),
            Query::new("t", 0, 1000)
                .group_by("g")
                .aggregates(aggs.clone()),
            Query::new("t", 100, 900)
                .bucket_secs(64)
                .group_by("g")
                .aggregates(aggs),
        ] {
            let a = execute(&t, &q).unwrap();
            let b = execute_vectorized(&t, &q).unwrap();
            assert_eq!(a, b);
            let bits = |r: &LeafQueryResult| -> Vec<u64> {
                r.groups
                    .values()
                    .flatten()
                    .map(|s| match s {
                        AggState::Sum(v) | AggState::Avg { sum: v, .. } => v.to_bits(),
                        other => panic!("unexpected {other:?}"),
                    })
                    .collect()
            };
            assert_eq!(bits(&a), bits(&b), "query {q:?}");
        }
    }

    /// Views built by `f` on this thread.
    fn views_built_by(f: impl FnOnce()) -> usize {
        let before = VIEWS_BUILT.with(std::cell::Cell::get);
        f();
        VIEWS_BUILT.with(std::cell::Cell::get) - before
    }

    #[test]
    fn header_answered_blocks_decode_nothing_they_do_not_need() {
        // Three sealed blocks of 50 rows at 0.., 1000.., 2000...
        let mut t = Table::new("t", 0);
        for epoch in 0..3i64 {
            for i in 0..50 {
                let row = Row::at(epoch * 1000 + i).with("status", 200 + i % 2);
                t.append(&row, 0).unwrap();
            }
            t.seal(0).unwrap();
        }
        let built = |q: &Query| {
            views_built_by(|| {
                assert_same(&t, q);
            })
        };
        // `assert_same` also runs the oracle, which builds no views.
        // count(*) over blocks the range contains: headers answer it all.
        assert_eq!(built(&Query::new("t", 0, i64::MAX)), 0);
        assert_eq!(built(&Query::new("t", i64::MIN, 2050)), 0);
        // A range that cuts through the last block decodes that block's
        // time column, and only that.
        assert_eq!(built(&Query::new("t", 0, 2025)), 1);
        // A filter column is decoded per block; time still is not.
        let filtered =
            Query::new("t", 0, i64::MAX).filter(Filter::new("status", CmpOp::Eq, 200i64));
        assert_eq!(built(&filtered), 3);
        // Bucketing, a time filter or a time aggregate each need the
        // values even where the header answers the range — once per block.
        assert_eq!(built(&Query::new("t", 0, i64::MAX).bucket_secs(10)), 3);
        let time_filter =
            Query::new("t", 0, i64::MAX).filter(Filter::new(TIME_COLUMN, CmpOp::Ne, 1010i64));
        assert_eq!(built(&time_filter), 3);
        let time_agg = Query::new("t", 0, 2025)
            .bucket_secs(10)
            .aggregates(vec![AggSpec::Max(TIME_COLUMN.into())]);
        assert_eq!(built(&time_agg), 3);
    }
}
