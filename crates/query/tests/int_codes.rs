//! Integer columns in every stored form — delta chain, frame of reference,
//! dictionary — with and without nulls, scanned in place: every operator
//! against Int and Double literals below, inside and above each block's
//! range and at the ends of `i64`, plus every aggregate and an integer
//! group key, over heap, mapped and cold blocks at widths 1, 2, 3 and 8.
//! Each answer must equal the row-wise oracle's over the heap blocks, f64
//! bit patterns included. At the edge of the integer sum's exactness
//! rule, each form sums in `i64` at `n · bound = 2^53` and falls back to
//! the `f64` loop at `2^53 + 1`, with the oracle's bits either way.

use std::sync::Arc;

use scuba_columnstore::encoding::CompressionCode;
use scuba_columnstore::scan::{remap_block, sel_all};
use scuba_columnstore::{ColumnView, Row, RowBlock, Table, Value};
use scuba_diskstore::{ColdMap, ColdStore};
use scuba_query::{
    execute, plan_scan, scan_block, AggSpec, AggState, CmpOp, Filter, LeafQueryResult,
    PartialMerge, Query,
};
use scuba_restart::fan_out_in_order;

const OPS: [CmpOp; 7] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
    CmpOp::Contains,
];

const WIDTHS: [usize; 4] = [1, 2, 3, 8];

/// How a block's `n` column must come out of the writer.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Form {
    Delta,
    For,
    Dict,
}

fn form_of(block: &RowBlock) -> Form {
    let code = block.column("n").unwrap().compression().unwrap();
    if code.has(CompressionCode::FOR) {
        Form::For
    } else if code.has(CompressionCode::DICTIONARY) {
        Form::Dict
    } else {
        Form::Delta
    }
}

/// A deterministic scramble of `i`.
fn mix(i: u64) -> u64 {
    let mut x = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The blocks, each `(form, values)`: a near-monotonic chain; a narrow
/// scatter; a scatter over more than half of `u64` (63-bit codes, from
/// below `-2^62` to above `2^62`); five values that include both ends of
/// `i64` (a dictionary whose range is all of it); some 280 values spread
/// wide (a dictionary too wide for the one-byte id table).
fn shapes() -> Vec<(Form, Vec<i64>)> {
    let n = 200u64;
    vec![
        (
            Form::Delta,
            (0..n)
                .map(|i| 1_000 + 3 * i as i64 + (i % 2) as i64)
                .collect(),
        ),
        (
            Form::For,
            (0..n).map(|i| -500 + (mix(i) % 2000) as i64).collect(),
        ),
        (
            Form::For,
            (0..n)
                .map(|i| (mix(i + 7) % (3 << 61)) as i64 - (3 << 60))
                .collect(),
        ),
        (
            Form::Dict,
            (0..n)
                .map(|i| [i64::MIN, -7, 0, 42, i64::MAX][(mix(i) % 5) as usize])
                .collect(),
        ),
        (
            Form::Dict,
            (0..800u64)
                .map(|i| ((mix(i) % 300) as i64 - 150) * 1_000_000_007)
                .collect(),
        ),
    ]
}

/// One sealed block per shape, without and with nulls (every seventh
/// row), each carrying a string key too.
fn heap_table() -> Table {
    let mut t = Table::new("t", 0);
    let mut time = 0i64;
    for (form, values) in shapes() {
        for nullable in [false, true] {
            for (i, &v) in values.iter().enumerate() {
                let mut row = Row::at(time).with("k", format!("k{}", i % 3));
                if !(nullable && i % 7 == 3) {
                    row.set("n", v);
                }
                t.append(&row, 0).unwrap();
                time += 1;
            }
            t.seal(0).unwrap();
            let block = t.blocks().last().unwrap();
            assert_eq!(form_of(block), form, "nullable {nullable}");
            assert_eq!(
                block.column("n").unwrap().is_fully_present().unwrap(),
                !nullable
            );
        }
    }
    t
}

/// The same blocks on a shared mapped backing, as an attached image
/// serves them.
fn mapped_table(t: &Table) -> Table {
    let blocks = t
        .blocks()
        .iter()
        .map(|b| Arc::new(remap_block(b).unwrap()))
        .collect();
    Table::from_blocks("t", blocks, 0)
}

/// The same blocks demoted to a fast-format file and read back through
/// its mapping, as a tiered leaf serves them.
fn cold_table(t: &Table, dir: &std::path::Path) -> Table {
    let store = ColdStore::open(dir).unwrap();
    let blocks = t
        .blocks()
        .iter()
        .map(|b| {
            let at = store.append_block("t", b, None).unwrap();
            let backing: Arc<dyn AsRef<[u8]> + Send + Sync> =
                Arc::new(ColdMap::open(&at.path).unwrap());
            let (block, _) = RowBlock::deserialize_mapped(&backing, at.offset as usize).unwrap();
            Arc::new(block.with_zones(b.zones().cloned()).with_cold_ref(Some(at)))
        })
        .collect();
    Table::from_blocks("t", blocks, 0)
}

/// The leaf's scan of `q` at `width` workers: one job per planned block,
/// merged in block order.
fn execute_at_width(t: &Table, q: &Query, width: usize) -> LeafQueryResult {
    let plan = plan_scan(t, q).unwrap();
    let (blocks, columns) = (&plan.blocks, q.columns_read());
    let mut merge = PartialMerge::new(&plan);
    fan_out_in_order(
        width,
        |i| (i < blocks.len()).then_some(Ok(i)),
        |i| scan_block(&blocks[i], q, &columns),
        |_| {},
        |p| {
            merge.push(p);
            Ok(())
        },
    )
    .unwrap();
    merge.finish().0
}

fn float_bits(r: &LeafQueryResult) -> Vec<Vec<Option<u64>>> {
    let bits = |s: &AggState| match s {
        AggState::Sum(v) | AggState::Avg { sum: v, .. } => Some(v.to_bits()),
        AggState::Min(v) | AggState::Max(v) => v.map(f64::to_bits),
        _ => None,
    };
    r.groups
        .values()
        .map(|states| states.iter().map(bits).collect())
        .collect()
}

/// Int literals around every block's range, and the ends of `i64`; each
/// also as a Double (with a half step, so "inside" falls between values).
fn literals() -> Vec<Value> {
    let mut ints = vec![i64::MIN, i64::MIN + 1, i64::MAX - 1, i64::MAX];
    for (_, values) in shapes() {
        let (min, max) = (*values.iter().min().unwrap(), *values.iter().max().unwrap());
        ints.extend([
            min.saturating_sub(1),
            min,
            values[values.len() / 2],
            max,
            max.saturating_add(1),
        ]);
    }
    ints.sort_unstable();
    ints.dedup();
    let mut out: Vec<Value> = ints.iter().map(|&i| Value::Int(i)).collect();
    out.extend(ints.iter().map(|&i| Value::Double(i as f64 + 0.5)));
    out.extend([
        Value::Double(i64::MIN as f64),
        Value::Double(i64::MAX as f64),
        Value::Double(f64::NAN),
        Value::Str("42".into()),
    ]);
    out
}

fn aggregates() -> Vec<AggSpec> {
    vec![
        AggSpec::Count,
        AggSpec::Sum("n".into()),
        AggSpec::Avg("n".into()),
        AggSpec::Min("n".into()),
        AggSpec::Max("n".into()),
        AggSpec::p99("n"),
        AggSpec::CountDistinct("n".into()),
    ]
}

fn queries() -> Vec<Query> {
    let all = || Query::new("t", i64::MIN, i64::MAX);
    let mut out = Vec::new();
    for literal in literals() {
        for op in OPS {
            out.push(
                all()
                    .filter(Filter::new("n", op, literal.clone()))
                    .aggregates(aggregates()),
            );
        }
    }
    out.extend([
        all().aggregates(aggregates()),
        all().group_by("n").aggregates(aggregates()),
        all().group_by("k").aggregates(aggregates()),
        all()
            .filter(Filter::new("k", CmpOp::Ne, "k1"))
            .group_by("n")
            .aggregates(vec![AggSpec::Count, AggSpec::Sum("n".into())]),
        all()
            .filter(Filter::new("n", CmpOp::Ge, 0i64))
            .filter(Filter::new("n", CmpOp::Lt, 1_000_000i64))
            .bucket_secs(97)
            .group_by("k")
            .aggregates(aggregates()),
    ]);
    out
}

#[test]
fn int_codes_answer_like_the_oracle_on_every_backing_and_width() {
    let heap = heap_table();
    let dir = std::env::temp_dir().join(format!("scuba-int-codes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let backings = [
        ("heap", heap_table()),
        ("mapped", mapped_table(&heap)),
        ("cold", cold_table(&heap, &dir)),
    ];
    assert!(backings[1].1.blocks().iter().all(|b| b.is_mapped()));
    assert!(backings[2].1.blocks().iter().all(|b| b.is_cold()));
    assert!(heap
        .blocks()
        .iter()
        .any(|b| b.column("n").unwrap().n_dict_items().unwrap() > 256));
    let mut matched_some = 0;
    for q in queries() {
        let want = execute(&heap, &q).unwrap();
        matched_some += usize::from(want.rows_matched > 0);
        for (name, table) in &backings {
            for width in WIDTHS {
                let got = execute_at_width(table, &q, width);
                assert_eq!(got, want, "{name} at width {width}, {q:?}");
                assert_eq!(
                    float_bits(&got),
                    float_bits(&want),
                    "{name} at width {width}, {q:?}"
                );
            }
        }
    }
    // The literals cut through the blocks: some filters keep rows.
    assert!(matched_some > 100, "{matched_some}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The largest `n · bound` an integer sum folds in `i64`.
const EXACT: u128 = 1 << 53;

/// `values` as one sealed block and as the same rows still open. At
/// `exact`, `n · bound` is `2^53` — where the `i64` fold must take the sum
/// — else `2^53 + 1`, where it must leave it to the `f64` loop; `form` is
/// how the sealed block stores the column (`None`: the open block, whose
/// bound is its builder's). Either way `Sum` and `Avg` must answer with
/// the oracle's bits at every width.
fn assert_sum_edge(form: Option<Form>, values: &[i64], exact: bool) {
    let n = values.len() as u128;
    let bound = values
        .iter()
        .map(|v| v.unsigned_abs() as u128)
        .max()
        .unwrap();
    let mut open = Table::new("t", 0);
    for (i, &v) in values.iter().enumerate() {
        open.append(&Row::at(i as i64).with("n", v), 0).unwrap();
    }
    let mut sealed = open.clone();
    sealed.seal(0).unwrap();
    let block = &sealed.blocks()[0];
    let view = match form {
        Some(form) => {
            assert_eq!(form_of(block), form);
            ColumnView::build(block.column("n").unwrap()).unwrap()
        }
        None => open.open_block().unwrap().view("n").unwrap(),
    };
    let ColumnView::Int64 { presence, ints } = &view else {
        panic!("an integer column views as integers");
    };
    // The form's bound is the values' own largest magnitude here.
    assert_eq!(ints.magnitude_bound(), bound, "{form:?}");
    assert_eq!(n * bound, EXACT + u128::from(!exact), "{form:?}");
    let sum = ints
        .exact_sum(&sel_all(values.len()), presence.as_ref())
        .unwrap();
    let want: i128 = values.iter().map(|&v| v as i128).sum();
    assert_eq!(sum.map(i128::from), exact.then_some(want), "{form:?}");

    let q = Query::new("t", i64::MIN, i64::MAX).aggregates(vec![
        AggSpec::Count,
        AggSpec::Sum("n".into()),
        AggSpec::Avg("n".into()),
    ]);
    let table = if form.is_some() { &sealed } else { &open };
    let oracle = execute(table, &q).unwrap();
    for width in WIDTHS {
        let got = execute_at_width(table, &q, width);
        assert_eq!(got, oracle, "{form:?} at width {width}");
        assert_eq!(
            float_bits(&got),
            float_bits(&oracle),
            "{form:?} at width {width}"
        );
    }
}

/// `n` values whose largest magnitude is `2^53 / n` (rounded up, so
/// `n · bound` is `2^53 + 1` where `n` divides that, `2^53` where it
/// divides `2^53`).
fn edge_bound(n: usize) -> i64 {
    EXACT.div_ceil(n as u128) as i64
}

/// `2^53 + 1 = 3 · 107 · 28 059 810 762 433`: a block of 321 values can
/// sit one past the bound, one of 256 exactly on it.
const PAST: usize = 321;
const ON: usize = 256;

#[test]
fn a_delta_chain_sums_in_i64_up_to_the_bound() {
    assert_eq!((EXACT + 1) % PAST as u128, 0);
    for (n, exact) in [(ON, true), (PAST, false)] {
        // Descending by one: one-bit zig-zag deltas, so the chain's bound
        // is `|first| + (n - 1)`, which its last value reaches.
        let b = edge_bound(n);
        let first = -b + (n as i64 - 1);
        let values: Vec<i64> = (0..n as i64).map(|i| first - i).collect();
        assert_sum_edge(Some(Form::Delta), &values, exact);
    }
}

#[test]
fn a_frame_of_reference_sums_in_i64_up_to_the_bound() {
    for (n, exact) in [(ON, true), (PAST, false)] {
        // `b - 1` and `b`: one-bit codes above base `b - 1`, so the bound
        // is the top code's value, not the base's.
        let b = edge_bound(n);
        let values: Vec<i64> = (0..n).map(|i| b - 1 + (mix(i as u64) % 2) as i64).collect();
        assert_sum_edge(Some(Form::For), &values, exact);
    }
}

#[test]
fn a_dictionary_sums_in_i64_up_to_the_bound() {
    for (n, exact) in [(ON, true), (PAST, false)] {
        let b = edge_bound(n);
        let values: Vec<i64> = (0..n).map(|i| [b, -7, -b + 1][i % 3]).collect();
        assert_sum_edge(Some(Form::Dict), &values, exact);
    }
}

#[test]
fn the_open_block_sums_in_i64_up_to_its_kept_bounds() {
    for (n, exact) in [(ON, true), (PAST, false)] {
        let b = edge_bound(n);
        let values: Vec<i64> = (0..n).map(|i| [b - 1, -b, 5][i % 3]).collect();
        assert_sum_edge(None, &values, exact);
    }
}
