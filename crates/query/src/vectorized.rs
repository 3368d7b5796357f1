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
//! * doubles and delta-coded integers filter over dense typed arrays
//!   ([`scan::sel_retain`]), nulls handled by the presence bitmap;
//!   frame-of-reference integers filter on their packed codes
//!   ([`scan::sel_retain_packed`]), each read as `base + code`,
//! * string and integer dictionary filters evaluate once per *dictionary
//!   entry* ([`scan::DictMask`]) and then test the packed ids in place
//!   ([`scan::sel_retain_ids`]) — never materializing row values or an id
//!   array; all-match/none-match dictionaries skip the id pass entirely,
//! * groups live in an executor-local arena addressed by slot; a
//!   dictionary group column resolves `dict id → slot` once per distinct
//!   entry per block, reading one packed id per selected row,
//! * aggregate inputs are read typed from the views — no `String`, `Box`
//!   or [`Value`] per row — and a double or a random-access integer input
//!   no filter decoded is gathered at the selected rows only; the fold
//!   matches each accumulator's kind once per block, not once per row,
//! * an ungrouped `Sum` or `Avg` of integers folds in `i64` over the
//!   stored form ([`IntValues::exact_sum`]) wherever the block's bounds
//!   prove the `f64` fold exact — the same bits, the same [`ScanCounts`],
//!   no `f64` add chain and, over a whole delta chain, no decoded array.
//!
//! The unit of work is one row block: [`scan_block`] turns a block into a
//! [`BlockPartial`] (its rows, its [`ScanCounts`], its groups with fresh
//! states), and [`execute_vectorized`] scans each block in turn and
//! merges the partials in block order ([`PartialMerge`]). The leaf runs
//! the same two stages with the blocks spread over its threads.
//!
//! Views are built straight from the encoded buffers, so mapped
//! (shm-resident) blocks are scanned in place. The row-wise executor stays
//! as the differential oracle: for every query both paths must produce
//! identical results — scan statistics and f64 bit patterns included. The
//! rule that makes them agree: inside a block every accumulator starts
//! fresh and meets its rows in ascending order, and the blocks' states
//! merge in block order, so an answer depends neither on the executor nor
//! on how many threads scanned it — see the tests here and
//! `tests/differential.rs`.

use std::borrow::Cow;
use std::cell::{Cell, OnceCell};
use std::collections::{HashMap, HashSet};

use scuba_columnstore::scan::{
    self, sel_all, sel_clear, sel_count, sel_count_present, sel_for_each, sel_for_each_dense,
    sel_for_each_present, sel_is_empty, DictIds, DictMask, IntCodes, IntValues, Presence,
};
use scuba_columnstore::{ColumnType, ColumnView, Result as StoreResult, Table, Value, TIME_COLUMN};

use crate::agg::{AggSpec, AggState, DistinctValue};
use crate::exec::{BlockPartial, LeafQueryResult, PartialMerge};
use crate::expr::{cmp_ord, CmpOp, Filter};
use crate::plan::{PlannedBlock, ScanPlan};
use crate::query::{bucket_start, GroupKey, Query};

/// What one query's scan read, exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanCounts {
    /// Column views built: at most one per column a scanned block holds
    /// and the query reads.
    pub views_built: u64,
    /// Values decoded in full: every value of a delta-coded integer column
    /// anything reads, of a double column a filter tests, of an integer
    /// time column a bucket or range test reads, of a string-set column's
    /// rows. The open block decodes nothing: its integers, doubles and
    /// string sets are the builder's own cells, read in place, and its
    /// string columns are dictionary ids, which no view ever decodes.
    pub values_decoded: u64,
    /// Values read one at a time at selected rows: doubles an aggregate
    /// gathers from their byte lanes, frame-of-reference or dictionary
    /// integers an aggregate or group key reads, dictionary ids a group key
    /// or a distinct count reads — the open block's included. Filters over
    /// packed codes count nothing, nor do reads of the open block's
    /// integers and doubles, which are already a dense array.
    pub values_gathered: u64,
}

impl ScanCounts {
    /// Add another block's counts.
    pub(crate) fn add(&mut self, other: &ScanCounts) {
        self.views_built += other.views_built;
        self.values_decoded += other.values_decoded;
        self.values_gathered += other.values_gathered;
    }
}

/// Execute `query` over one leaf-local table fraction, vectorized.
/// Differentially equal to [`crate::exec::execute`].
pub fn execute_vectorized(table: &Table, query: &Query) -> StoreResult<LeafQueryResult> {
    debug_assert_eq!(table.name(), query.table);
    Ok(execute_planned(&crate::plan::plan_scan(table, query)?, query)?.0)
}

/// [`execute_vectorized`] over `query`'s plan: [`scan_block`] over each
/// block in turn, merged in block order. Also returns what the scan
/// decoded.
fn execute_planned(plan: &ScanPlan, query: &Query) -> StoreResult<(LeafQueryResult, ScanCounts)> {
    let columns = query.columns_read();
    let mut merge = PartialMerge::new(plan);
    for block in &plan.blocks {
        merge.push(scan_block(block, query, &columns)?);
    }
    Ok(merge.finish())
}

/// Scan one planned block of `query` into its [`BlockPartial`]: the unit
/// of a leaf query, which the leaf runs on as many threads as it likes
/// and merges with [`PartialMerge`] in block order. `columns` is
/// [`Query::columns_read`], computed once per query. The open block is
/// scanned where it lies, through the same kernels.
pub fn scan_block(
    block: &PlannedBlock<'_>,
    query: &Query,
    columns: &[&str],
) -> StoreResult<BlockPartial> {
    debug_assert_eq!(columns, query.columns_read());
    let views = BlockViews::new(block, columns);
    let mut fold = Fold::new(query);
    let mut partial = BlockPartial::default();
    select_and_fold(&views, query, &mut fold, &mut partial)?;
    views.count_into(&mut partial.counts);
    partial.counts.values_gathered = fold.scratch.gathered;
    partial.groups = fold.arena.finish();
    Ok(partial)
}

/// The scan views of one block's columns, each built on first use.
struct BlockViews<'a> {
    block: &'a PlannedBlock<'a>,
    /// [`Query::columns_read`]: every name the scan can ask for.
    names: &'a [&'a str],
    cells: Vec<OnceCell<Option<ColumnView<'a>>>>,
}

impl<'a> BlockViews<'a> {
    fn new(block: &'a PlannedBlock<'a>, names: &'a [&'a str]) -> Self {
        BlockViews {
            block,
            names,
            cells: names.iter().map(|_| OnceCell::new()).collect(),
        }
    }

    /// The view for `name`; `None` when the block lacks the column (reads
    /// as all-null).
    fn get(&self, name: &str) -> StoreResult<Option<&ColumnView<'a>>> {
        let i = self
            .names
            .iter()
            .position(|n| *n == name)
            .expect("columns_read lists every column the scan asks for");
        if let Some(view) = self.cells[i].get() {
            return Ok(view.as_ref());
        }
        let built = self.block.view(name)?;
        Ok(self.cells[i].get_or_init(|| built).as_ref())
    }

    /// Add the views built, and the values they decoded, to `counts`.
    fn count_into(&self, counts: &mut ScanCounts) {
        for view in self.cells.iter().filter_map(|c| c.get()).flatten() {
            counts.views_built += 1;
            counts.values_decoded += view.values_decoded();
        }
    }
}

/// Does the block header alone prove every row lies in `[from, to)`?
/// Planning already trusts the header to drop blocks outside the range;
/// this is the same trust for blocks inside it. The header's bounds cover
/// real timestamps only — a null one reads as `i64::MIN` — so the time
/// column must hold no null (its presence flag, one byte). The open
/// block's bounds are its builder's, whose time column is always fully
/// present.
fn header_answers_range(block: &PlannedBlock<'_>, from: i64, to: i64) -> StoreResult<bool> {
    let block = match block {
        PlannedBlock::Open(open) => return Ok(open.min_time() >= from && open.max_time() < to),
        PlannedBlock::Sealed(block) => block,
    };
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
fn dense_times<'v>(view: &'v ColumnView<'_>, rows: usize) -> StoreResult<Cow<'v, [i64]>> {
    Ok(match view {
        ColumnView::Int64 {
            presence: None,
            ints,
        } => Cow::Borrowed(ints.values()?),
        _ => (0..rows)
            .map(|r| Ok(view.value(r)?.as_int().unwrap_or(i64::MIN)))
            .collect::<StoreResult<_>>()?,
    })
}

fn select_and_fold(
    views: &BlockViews<'_>,
    query: &Query,
    fold: &mut Fold<'_>,
    partial: &mut BlockPartial,
) -> StoreResult<()> {
    let block = views.block;
    let rows = block.row_count();
    if rows == 0 {
        return Ok(());
    }
    partial.rows_scanned = rows as u64;

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
        Some(dense_times(view, rows)?)
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
            Some(view) => apply_filter(&mut sel, view, f)?,
        }
    }
    partial.rows_matched = sel_count(&sel);
    if sel_is_empty(&sel) {
        return Ok(());
    }
    fold.block(&sel, times.as_deref(), views)
}

/// Every group the block has produced so far: key → slot, and per slot one
/// accumulator per aggregate. Rows address their group by slot, so the key
/// is built, hashed and compared once per distinct value instead of once
/// per row.
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

    /// Every group and its states.
    fn finish(mut self) -> Vec<(GroupKey, Vec<AggState>)> {
        self.index
            .into_iter()
            .map(|(key, slot)| (key, std::mem::take(&mut self.states[slot as usize])))
            .collect()
    }
}

/// A `usize → u32` map over small dense keys that [`Self::clear`] empties
/// in O(1), by bumping the stamp its live cells must carry. Cells are
/// kept (and grown) from bucket to bucket.
#[derive(Default)]
struct StampMap {
    cells: Vec<(u64, u32)>,
    stamp: u64,
}

impl StampMap {
    fn clear(&mut self) {
        self.stamp += 1;
    }

    fn get(&self, key: usize) -> Option<u32> {
        match self.cells.get(key) {
            Some(&(stamp, v)) if stamp == self.stamp => Some(v),
            _ => None,
        }
    }

    fn set(&mut self, key: usize, v: u32) {
        if key >= self.cells.len() {
            self.cells.resize(key + 1, (0, 0));
        }
        self.cells[key] = (self.stamp, v);
    }
}

/// The arena slots the block folds into, numbered densely in the order
/// it first meets them: what the grouped fold's flat accumulator arrays
/// are indexed by.
#[derive(Default)]
struct Touched {
    /// The arena slot of each local index.
    slots: Vec<u32>,
    /// Arena slot → local index, for this block.
    local: StampMap,
}

impl Touched {
    fn begin(&mut self) {
        self.slots.clear();
        self.local.clear();
    }

    fn local(&mut self, slot: u32) -> u32 {
        self.local.get(slot as usize).unwrap_or_else(|| {
            let l = self.slots.len() as u32;
            self.slots.push(slot);
            self.local.set(slot as usize, l);
            l
        })
    }
}

/// Which slot each selected row of the current block folds into.
enum Slots<'a> {
    /// Every row: no group-by (or an all-null group column), no bucketing.
    One(u32),
    /// `local[row]` (filled in for selected rows only) indexes `touched`,
    /// the block's slots.
    PerRow {
        local: &'a [u32],
        touched: &'a [u32],
    },
}

impl Slots<'_> {
    fn of(&self, row: usize) -> u32 {
        match self {
            Slots::One(slot) => *slot,
            Slots::PerRow { local, touched } => touched[local[row] as usize],
        }
    }
}

/// A dictionary group column, read by id.
#[derive(Clone, Copy)]
struct DictColumn<'v, 'a> {
    presence: Option<&'v Presence>,
    ids: &'v DictIds<'a>,
    keys: DictKeys<'v>,
}

/// A dictionary's entries, as group keys.
#[derive(Clone, Copy)]
enum DictKeys<'v> {
    Str(&'v [String]),
    Int(&'v [i64]),
}

impl DictKeys<'_> {
    fn key(self, id: usize) -> GroupKey {
        match self {
            DictKeys::Str(entries) => GroupKey::Str(entries[id].clone()),
            DictKeys::Int(entries) => GroupKey::Int(entries[id]),
        }
    }
}

/// How the fold finds a row's inner (pre-bucket) group key.
enum GroupSource<'v, 'a> {
    /// By id through a [`StampMap`]: 0 is the `Null` key, and a dictionary
    /// group column (strings, or integers in dictionary form) adds one id
    /// per entry, so no row value is materialized. Without one — no
    /// group-by, the column is absent, or it holds doubles (see
    /// [`GroupKey::from_value`]) — every row is `Null`.
    ById(Option<DictColumn<'v, 'a>>),
    /// Other integers and string sets: box the cell and convert.
    Boxed(&'v ColumnView<'a>),
}

/// The fold state of one block: the arena plus the scratch its passes
/// reuse.
struct Fold<'q> {
    query: &'q Query,
    arena: Arena<'q>,
    /// Inner group id → local index, for the current bucket.
    table: StampMap,
    touched: Touched,
    row_slots: Vec<u32>,
    scratch: AggScratch,
}

/// What the aggregate passes reuse from one aggregate to the next.
#[derive(Default)]
struct AggScratch {
    /// Flat per-touched-slot accumulators of the grouped Sum/Avg/Count
    /// fold.
    sums: Vec<f64>,
    counts: Vec<u64>,
    /// `(slot, dictionary id)` pairs a `CountDistinct` already inserted
    /// from the current block.
    seen: HashSet<(u32, u32)>,
    /// [`ScanCounts::values_gathered`] so far.
    gathered: u64,
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
            table: StampMap::default(),
            touched: Touched::default(),
            row_slots: Vec::new(),
            scratch: AggScratch::default(),
        }
    }

    /// Fold the block's selected rows. `times` is present whenever the
    /// query buckets.
    fn block(
        &mut self,
        sel: &[u64],
        times: Option<&[i64]>,
        views: &BlockViews<'_>,
    ) -> StoreResult<()> {
        let query = self.query;
        let source = match &query.group_by {
            None => GroupSource::ById(None),
            Some(g) => match views.get(g)? {
                None | Some(ColumnView::Double { .. }) => GroupSource::ById(None),
                Some(ColumnView::Dict {
                    presence,
                    ids,
                    entries,
                }) => GroupSource::ById(Some(DictColumn {
                    presence: presence.as_ref(),
                    ids,
                    keys: DictKeys::Str(entries),
                })),
                Some(view) => match view {
                    ColumnView::Int64 { presence, ints } => match ints.codes() {
                        IntCodes::Dict { entries, ids } => GroupSource::ById(Some(DictColumn {
                            presence: presence.as_ref(),
                            ids,
                            keys: DictKeys::Int(entries),
                        })),
                        _ => GroupSource::Boxed(view),
                    },
                    _ => GroupSource::Boxed(view),
                },
            },
        };
        let bucket_of = |row: usize| {
            query
                .bucket_secs
                .map(|w| bucket_start(times.expect("bucketing decodes the time column")[row], w))
        };
        let keyed = |bucket: Option<i64>, inner: GroupKey| match bucket {
            None => inner,
            Some(start) => GroupKey::Bucketed(start, Box::new(inner)),
        };

        let Fold {
            arena,
            table,
            touched,
            row_slots,
            scratch,
            ..
        } = self;
        touched.begin();
        let per_row = match source {
            GroupSource::ById(None) if query.bucket_secs.is_none() => {
                touched.local(arena.slot(GroupKey::Null));
                false
            }
            GroupSource::ById(dict) => {
                row_slots.clear();
                row_slots.resize(sel.len() * 64, 0);
                table.clear();
                let mut current = None;
                let mut failed = Ok(());
                sel_for_each_dense(sel, dict.and_then(|d| d.presence), |row, dense| {
                    let bucket = bucket_of(row);
                    if bucket != current {
                        table.clear();
                        current = bucket;
                    }
                    let id = match (dict, dense) {
                        (Some(d), Some(dense)) => {
                            scratch.gathered += 1;
                            d.ids.get(dense).map_or_else(
                                |e| {
                                    failed = Err(e);
                                    0
                                },
                                |id| id as usize + 1,
                            )
                        }
                        _ => 0,
                    };
                    row_slots[row] = table.get(id).unwrap_or_else(|| {
                        let inner = match (id, dict) {
                            (0, _) | (_, None) => GroupKey::Null,
                            (_, Some(d)) => d.keys.key(id - 1),
                        };
                        let local = touched.local(arena.slot(keyed(bucket, inner)));
                        table.set(id, local);
                        local
                    });
                });
                failed?;
                true
            }
            GroupSource::Boxed(view) => {
                if let ColumnView::Int64 { presence, ints } = view {
                    if !ints.is_chain() && ints.decoded().is_none() {
                        scratch.gathered += sel_count_present(sel, presence.as_ref());
                    }
                }
                row_slots.clear();
                row_slots.resize(sel.len() * 64, 0);
                let mut failed = Ok(());
                sel_for_each(sel, |row| {
                    let inner = match view.value(row) {
                        Ok(v) => GroupKey::from_value(&v),
                        Err(e) => {
                            failed = Err(e);
                            GroupKey::Null
                        }
                    };
                    row_slots[row] = touched.local(arena.slot(keyed(bucket_of(row), inner)));
                });
                failed?;
                true
            }
        };
        let mut pass = AggPass {
            arena,
            sel,
            slots: if per_row {
                Slots::PerRow {
                    local: row_slots,
                    touched: &touched.slots,
                }
            } else {
                Slots::One(touched.slots[0])
            },
            scratch,
        };

        // One pass per aggregate, each a loop over one typed column. Every
        // accumulator starts fresh at this block and meets its rows in
        // ascending order, so float sums round exactly as the row-wise
        // fold's do.
        for (agg, spec) in query.aggregates.iter().enumerate() {
            let Some(column) = spec.column() else {
                pass.count(agg);
                continue;
            };
            // A column the block lacks is all-null: nothing to fold.
            let Some(view) = views.get(column)? else {
                continue;
            };
            if matches!(spec, AggSpec::CountDistinct(_)) {
                pass.distinct(agg, view)?;
                continue;
            }
            match view {
                ColumnView::Int64 { presence, ints } => {
                    pass.ints(agg, spec, presence.as_ref(), ints)?
                }
                ColumnView::Double { presence, lanes } => {
                    // Unshuffled already if a filter tested this column;
                    // otherwise gather just the selected rows.
                    let decoded = lanes.decoded();
                    if decoded.is_none() {
                        pass.scratch.gathered += sel_count_present(sel, presence.as_ref());
                    }
                    pass.num(agg, spec, presence.as_ref(), |d| {
                        decoded.map_or_else(|| lanes.get(d), |v| v[d])
                    })
                }
                // Strings and sets are not numeric: every cell is skipped.
                ColumnView::Dict { .. } | ColumnView::StrSet(_) => {}
            }
        }
        Ok(())
    }
}

/// An integer column's values as a dense array when reading them needs
/// one: a delta chain (decoded here, once per view) or values something
/// already decoded. `None` for a random-access form, read at the selected
/// rows instead.
fn dense_ints<'v>(ints: &'v IntValues<'_>) -> StoreResult<Option<&'v [i64]>> {
    Ok(match ints.decoded() {
        Some(values) => Some(values),
        None if ints.is_chain() => Some(ints.values()?),
        None => None,
    })
}

/// Visit the selected present rows of a numeric column as `(row, value)`;
/// `read` returns the value at a dense index.
#[inline]
fn each_value(
    sel: &[u64],
    presence: Option<&Presence>,
    read: &impl Fn(usize) -> f64,
    mut f: impl FnMut(usize, f64),
) {
    sel_for_each_present(sel, presence, |row, dense| f(row, read(dense)));
}

/// One block's aggregate pass over its selected rows.
struct AggPass<'p, 'q> {
    arena: &'p mut Arena<'q>,
    sel: &'p [u64],
    slots: Slots<'p>,
    scratch: &'p mut AggScratch,
}

impl AggPass<'_, '_> {
    /// Feed one `Count`: per touched slot, the number of its selected rows.
    fn count(&mut self, agg: usize) {
        match self.slots {
            Slots::One(slot) => self.arena.state(slot, agg).add_count(sel_count(self.sel)),
            Slots::PerRow { local, touched } => {
                let counts = &mut self.scratch.counts;
                counts.clear();
                counts.resize(touched.len(), 0);
                sel_for_each(self.sel, |row| counts[local[row] as usize] += 1);
                for (&slot, &n) in touched.iter().zip(counts.iter()) {
                    self.arena.state(slot, agg).add_count(n);
                }
            }
        }
    }

    /// Feed one numeric aggregate from an integer column in its stored
    /// form. An ungrouped `Sum` or `Avg` takes the block's `i64` total when
    /// [`IntValues::exact_sum`] proves it the `f64` fold's: the state is
    /// fresh at every block, so the fold would start from `0.0`. Otherwise
    /// [`Self::num`] widens and folds each value: a delta chain's decoded
    /// array, or a random-access form's value at each selected row. Either
    /// way a random-access form no filter decoded counts its selected
    /// values as gathered.
    fn ints(
        &mut self,
        agg: usize,
        spec: &AggSpec,
        presence: Option<&Presence>,
        ints: &IntValues<'_>,
    ) -> StoreResult<()> {
        let sel = self.sel;
        if ints.decoded().is_none() && !ints.is_chain() {
            self.scratch.gathered += sel_count_present(sel, presence);
        }
        if let Slots::One(slot) = self.slots {
            let state = self.arena.state(slot, agg);
            let fresh =
                matches!(state, AggState::Sum(s) | AggState::Avg { sum: s, .. } if *s == 0.0);
            if let Some(total) = fresh
                .then(|| ints.exact_sum(sel, presence))
                .transpose()?
                .flatten()
            {
                let n = sel_count_present(sel, presence);
                match self.arena.state(slot, agg) {
                    _ if n == 0 => {}
                    AggState::Sum(sum) => *sum = total as f64,
                    AggState::Avg { sum, count } => (*sum, *count) = (total as f64, *count + n),
                    _ => unreachable!("kinds checked above"),
                }
                return Ok(());
            }
        }
        match (dense_ints(ints)?, ints.codes()) {
            (Some(values), _) => self.num(agg, spec, presence, |d| values[d] as f64),
            (None, IntCodes::For { base, packed }) => self.num(agg, spec, presence, |d| {
                base.wrapping_add(packed.get(d) as i64) as f64
            }),
            (None, IntCodes::Dict { entries, ids }) => {
                let failed = Cell::new(None);
                self.num(agg, spec, presence, |d| match ids.get(d) {
                    Ok(id) => entries[id as usize] as f64,
                    Err(e) => {
                        failed.set(Some(e));
                        0.0
                    }
                });
                if let Some(e) = failed.into_inner() {
                    return Err(e);
                }
            }
            (None, IntCodes::Delta { .. } | IntCodes::InPlace { .. }) => {
                unreachable!("a chain is decoded, in-place values are")
            }
        }
        Ok(())
    }

    /// Feed one numeric aggregate from a typed column: selected non-null
    /// rows, ascending, widened exactly as [`Value::as_numeric`] widens.
    /// The accumulator's kind is matched once per block, not once per row:
    /// a single slot accumulates in locals, and grouped Sum/Avg in flat
    /// arrays over the block's touched slots.
    fn num(
        &mut self,
        agg: usize,
        spec: &AggSpec,
        presence: Option<&Presence>,
        read: impl Fn(usize) -> f64,
    ) {
        let (sel, arena) = (self.sel, &mut *self.arena);
        let (local, touched) = match self.slots {
            Slots::One(slot) => {
                match arena.state(slot, agg) {
                    AggState::Sum(sum) => {
                        let mut acc = *sum;
                        each_value(sel, presence, &read, |_, v| acc += v);
                        *sum = acc;
                    }
                    AggState::Avg { sum, count } => {
                        let (mut acc, mut n) = (*sum, *count);
                        each_value(sel, presence, &read, |_, v| {
                            acc += v;
                            n += 1;
                        });
                        (*sum, *count) = (acc, n);
                    }
                    AggState::Min(m) => {
                        let mut cur = *m;
                        each_value(sel, presence, &read, |_, v| {
                            cur = Some(cur.map_or(v, |c| c.min(v)))
                        });
                        *m = cur;
                    }
                    AggState::Max(m) => {
                        let mut cur = *m;
                        each_value(sel, presence, &read, |_, v| {
                            cur = Some(cur.map_or(v, |c| c.max(v)))
                        });
                        *m = cur;
                    }
                    AggState::Percentile { histogram, .. } => {
                        each_value(sel, presence, &read, |_, v| histogram.record(v))
                    }
                    other => panic!("numeric fold on {other:?}"),
                }
                return;
            }
            Slots::PerRow { local, touched } => (local, touched),
        };
        let at = |row: usize| local[row] as usize;
        if !matches!(spec, AggSpec::Sum(_) | AggSpec::Avg(_)) {
            each_value(sel, presence, &read, |row, v| {
                arena.state(touched[at(row)], agg).update_num(v)
            });
            return;
        }
        let AggScratch { sums, counts, .. } = &mut *self.scratch;
        sums.clear();
        counts.clear();
        for &slot in touched {
            match arena.state(slot, agg) {
                AggState::Sum(s) => sums.push(*s),
                AggState::Avg { sum, count } => {
                    sums.push(*sum);
                    counts.push(*count);
                }
                other => panic!("sum fold on {other:?}"),
            }
        }
        if counts.is_empty() {
            each_value(sel, presence, &read, |row, v| sums[at(row)] += v);
        } else {
            each_value(sel, presence, &read, |row, v| {
                sums[at(row)] += v;
                counts[at(row)] += 1;
            });
        }
        for (l, &slot) in touched.iter().enumerate() {
            match arena.state(slot, agg) {
                AggState::Sum(s) => *s = sums[l],
                AggState::Avg { sum, count } => (*sum, *count) = (sums[l], counts[l]),
                _ => unreachable!("kinds checked above"),
            }
        }
    }

    /// Feed one `CountDistinct`. A dictionary column inserts each entry a
    /// group meets once per block, not once per row.
    fn distinct(&mut self, agg: usize, view: &ColumnView<'_>) -> StoreResult<()> {
        let (sel, slots, arena) = (self.sel, &self.slots, &mut *self.arena);
        match view {
            ColumnView::Int64 { presence, ints } => match (dense_ints(ints)?, ints.codes()) {
                (Some(values), _) => sel_for_each_present(sel, presence.as_ref(), |row, dense| {
                    arena
                        .state(slots.of(row), agg)
                        .insert_distinct(DistinctValue::Int(values[dense]));
                }),
                (None, IntCodes::For { base, packed }) => {
                    self.scratch.gathered += sel_count_present(sel, presence.as_ref());
                    sel_for_each_present(sel, presence.as_ref(), |row, dense| {
                        let v = base.wrapping_add(packed.get(dense) as i64);
                        arena
                            .state(slots.of(row), agg)
                            .insert_distinct(DistinctValue::Int(v));
                    })
                }
                (None, IntCodes::Dict { entries, ids }) => {
                    self.distinct_ids(agg, presence.as_ref(), ids, |id| {
                        DistinctValue::Int(entries[id as usize])
                    })?
                }
                (None, IntCodes::Delta { .. } | IntCodes::InPlace { .. }) => {
                    unreachable!("a chain is decoded, in-place values are")
                }
            },
            ColumnView::Double { presence, lanes } => {
                let decoded = lanes.decoded();
                if decoded.is_none() {
                    self.scratch.gathered += sel_count_present(sel, presence.as_ref());
                }
                sel_for_each_present(sel, presence.as_ref(), |row, dense| {
                    let v = decoded.map_or_else(|| lanes.get(dense), |v| v[dense]);
                    arena
                        .state(slots.of(row), agg)
                        .insert_distinct(DistinctValue::Bits(v.to_bits()));
                })
            }
            ColumnView::Dict {
                presence,
                ids,
                entries,
            } => self.distinct_ids(agg, presence.as_ref(), ids, |id| {
                DistinctValue::Str(entries[id as usize].clone())
            })?,
            ColumnView::StrSet(data) => sel_for_each(sel, |row| {
                if let Some(v) = DistinctValue::from_value(&data.get(row)) {
                    arena.state(slots.of(row), agg).insert_distinct(v);
                }
            }),
        }
        Ok(())
    }

    /// Feed one `CountDistinct` from a dictionary column: each entry a
    /// group meets is inserted once per block, not once per row.
    fn distinct_ids(
        &mut self,
        agg: usize,
        presence: Option<&Presence>,
        ids: &DictIds<'_>,
        value: impl Fn(u32) -> DistinctValue,
    ) -> StoreResult<()> {
        let (sel, slots, arena) = (self.sel, &self.slots, &mut *self.arena);
        let seen = &mut self.scratch.seen;
        seen.clear();
        self.scratch.gathered += sel_count_present(sel, presence);
        let mut failed = Ok(());
        sel_for_each_present(sel, presence, |row, dense| {
            let id = match ids.get(dense) {
                Ok(id) => id,
                Err(e) => {
                    failed = Err(e);
                    return;
                }
            };
            let slot = slots.of(row);
            if seen.insert((slot, id)) {
                arena.state(slot, agg).insert_distinct(value(id));
            }
        });
        failed
    }
}

/// AND `sel` with one filter over a typed view, without boxing values.
/// Must decide exactly as [`Filter::matches`] over the boxed cell.
fn apply_filter(sel: &mut [u64], view: &ColumnView<'_>, f: &Filter) -> StoreResult<()> {
    let op = f.op;
    match view {
        ColumnView::Int64 { presence, ints } => {
            let presence = presence.as_ref();
            match &f.literal {
                Value::Int(b) => {
                    let b = *b;
                    retain_ints(sel, presence, ints, |v| cmp_ord(op, v.partial_cmp(&b)))?;
                }
                Value::Double(b) => {
                    let b = *b;
                    retain_ints(sel, presence, ints, |v| {
                        cmp_ord(op, (v as f64).partial_cmp(&b))
                    })?;
                }
                _ => sel_clear(sel),
            }
        }
        ColumnView::Double { presence, lanes } => {
            let b = match &f.literal {
                Value::Double(b) => *b,
                Value::Int(b) => *b as f64,
                _ => {
                    sel_clear(sel);
                    return Ok(());
                }
            };
            scan::sel_retain(sel, presence.as_ref(), lanes.values(), |v| {
                cmp_ord(op, v.partial_cmp(&b))
            });
        }
        ColumnView::Dict {
            presence,
            ids,
            entries,
        } => match &f.literal {
            Value::Str(b) => {
                let mask = DictMask::build(entries, |e| match op {
                    CmpOp::Contains => e.contains(b.as_str()),
                    _ => cmp_ord(op, e.as_str().partial_cmp(b.as_str())),
                });
                retain_dict(sel, presence.as_ref(), ids, &mask)?;
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
    Ok(())
}

/// AND `sel` with `pred` over an integer column in its stored form: a
/// dictionary evaluates `pred` once per entry and tests the packed ids, a
/// frame of reference tests `base + code` in place, and a delta chain (or
/// values already decoded) tests the dense array.
fn retain_ints(
    sel: &mut [u64],
    presence: Option<&Presence>,
    ints: &IntValues<'_>,
    pred: impl Fn(i64) -> bool,
) -> StoreResult<()> {
    match (ints.codes(), ints.decoded()) {
        (IntCodes::Dict { entries, ids }, _) => {
            retain_dict(sel, presence, ids, &DictMask::build(entries, |&v| pred(v)))?
        }
        (IntCodes::For { base, packed }, None) => {
            scan::sel_retain_packed(sel, presence, packed, |c| pred(base.wrapping_add(c as i64)))
        }
        _ => scan::sel_retain(sel, presence, ints.values()?, pred),
    }
    Ok(())
}

/// AND `sel` with a dictionary column's `mask`, skipping the id pass when
/// no entry, or every entry, matches.
fn retain_dict(
    sel: &mut [u64],
    presence: Option<&Presence>,
    ids: &DictIds<'_>,
    mask: &DictMask,
) -> StoreResult<()> {
    if mask.none_match() {
        sel_clear(sel);
    } else if mask.all_match() {
        // Every present value matches: selection reduces to the presence
        // test.
        if let Some(p) = presence {
            for (s, pw) in sel.iter_mut().zip(p.words()) {
                *s &= pw;
            }
        }
    } else {
        scan::sel_retain_ids(sel, presence, ids, mask)?;
    }
    Ok(())
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

    #[test]
    fn buckets_floor_without_overflow_near_the_minimum_time() {
        // The floor of i64::MIN + 5 to a multiple of 60 lies below
        // i64::MIN: its bucket starts at i64::MIN, before every other.
        let mut t = Table::new("t", 0);
        for time in [i64::MIN + 5, -61, 0, 59, 60] {
            t.append(&Row::at(time).with("x", 1.5f64), 0).unwrap();
        }
        t.seal(0).unwrap();
        t.append(&Row::at(i64::MIN), 0).unwrap(); // unsealed, too
        let q = Query::new("t", i64::MIN, i64::MAX)
            .bucket_secs(60)
            .aggregates(vec![AggSpec::Count, AggSpec::Sum("x".into())]);
        assert_same(&t, &q);
        let r = execute_vectorized(&t, &q).unwrap();
        let starts: Vec<(i64, Value)> = r
            .groups
            .iter()
            .map(|(k, states)| match k {
                GroupKey::Bucketed(start, _) => (*start, states[0].finish()),
                other => panic!("unbucketed key {other:?}"),
            })
            .collect();
        assert_eq!(
            starts,
            [
                (i64::MIN, Value::Int(2)),
                (-120, Value::Int(1)),
                (0, Value::Int(2)),
                (60, Value::Int(1)),
            ]
        );
        assert_eq!(crate::query::bucket_start(-61, 60), -120);
        assert_eq!(crate::query::bucket_start(i64::MAX, 60), i64::MAX - 7);
    }

    /// What the vectorized scan of `q` over `t` read, after checking its
    /// answer against the oracle.
    fn counts_of(t: &Table, q: &Query) -> ScanCounts {
        let (got, counts) = execute_planned(&crate::plan::plan_scan(t, q).unwrap(), q).unwrap();
        assert_eq!(execute(t, q).unwrap(), got, "query {q:?}");
        counts
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
        let built = |q: &Query| counts_of(&t, q).views_built;
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

    #[test]
    fn selective_aggregates_gather_only_the_rows_they_keep() {
        // Two sealed blocks of 1000 rows; 3 % carry status 500.
        let mut t = Table::new("t", 0);
        for i in 0..2000i64 {
            let status = if i % 100 < 3 { 500i64 } else { 200 };
            let row = Row::at(i)
                .with("status", status)
                .with("latency", i as f64 * 0.25)
                .with("host", format!("h{}", i % 9));
            t.append(&row, 0).unwrap();
            if i % 1000 == 999 {
                t.seal(0).unwrap();
            }
        }
        let selective = Query::new("t", 0, i64::MAX)
            .filter(Filter::new("status", CmpOp::Eq, 500i64))
            .aggregates(vec![AggSpec::Count, AggSpec::Avg("latency".into())]);
        let matched = execute(&t, &selective).unwrap().rows_matched;
        assert_eq!(matched, 60);
        let counts = counts_of(&t, &selective);
        // The int filter column, two values, is a dictionary filtered on
        // its packed ids; the double input decodes nothing and is gathered
        // at exactly the matched rows.
        assert_eq!(counts.views_built, 4);
        assert_eq!(counts.values_decoded, 0);
        assert_eq!(counts.values_gathered, matched);

        // A double that is also a filter column is unshuffled once for the
        // filter and then read from that array, not gathered.
        let filtered_too = Query::new("t", 0, i64::MAX)
            .filter(Filter::new("latency", CmpOp::Lt, 400.0f64))
            .aggregates(vec![AggSpec::Sum("latency".into())]);
        let counts = counts_of(&t, &filtered_too);
        assert_eq!(counts.values_decoded, 2000);
        assert_eq!(counts.values_gathered, 0);

        // A dictionary group key reads one id per selected row, and a
        // dictionary filter decodes none.
        let grouped = Query::new("t", 0, i64::MAX)
            .filter(Filter::new("host", CmpOp::Ne, "h3"))
            .group_by("host")
            .aggregates(vec![AggSpec::Count]);
        let kept = execute(&t, &grouped).unwrap().rows_matched;
        let counts = counts_of(&t, &grouped);
        assert_eq!(counts.values_decoded, 0);
        assert_eq!(counts.values_gathered, kept);
    }

    #[test]
    fn integer_sums_count_what_the_f64_fold_read() {
        // Two sealed blocks of 1000 rows: `seq` a delta chain, `bytes` a
        // frame of reference, `status` a dictionary.
        let mut t = Table::new("t", 0);
        for i in 0..2000i64 {
            let row = Row::at(i)
                .with("seq", i)
                .with("bytes", 100 + (i * 7919) % 1000)
                .with("status", [200i64, 404, 500][(i % 3) as usize]);
            t.append(&row, 0).unwrap();
            if i % 1000 == 999 {
                t.seal(0).unwrap();
            }
        }
        let sums = |c: &str| {
            vec![
                AggSpec::Count,
                AggSpec::Sum(c.into()),
                AggSpec::Avg(c.into()),
            ]
        };
        let all = || Query::new("t", 0, i64::MAX);
        // A whole chain summed in one pass counts as decoded, once — also
        // when another aggregate then decodes it.
        let counts = counts_of(&t, &all().aggregates(sums("seq")));
        assert_eq!((counts.values_decoded, counts.values_gathered), (2000, 0));
        let mut both = sums("seq");
        both.push(AggSpec::Min("seq".into()));
        let counts = counts_of(&t, &all().aggregates(both));
        assert_eq!((counts.values_decoded, counts.values_gathered), (2000, 0));
        // A random-access form gathers its selected values, per aggregate.
        for c in ["bytes", "status"] {
            let counts = counts_of(&t, &all().aggregates(sums(c)));
            assert_eq!((counts.values_decoded, counts.values_gathered), (0, 4000));
        }
        // A chain summed at some rows only is decoded first.
        let some = all().filter(Filter::new("bytes", CmpOp::Lt, 400i64));
        let counts = counts_of(&t, &some.aggregates(sums("seq")));
        assert_eq!((counts.values_decoded, counts.values_gathered), (2000, 0));
    }
}
