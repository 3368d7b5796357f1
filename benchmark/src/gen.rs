//! Seeded inputs and the brute-force oracle.
//!
//! Row `i` of stream `s` under seed `k` is a pure function of `(k, s, i)`,
//! so the driver and a leaf child generate the same rows independently and
//! only the coordinates travel over the pipe. Nothing here names a product
//! symbol: rows stay plain structs until `sut` converts them, and the
//! oracle is a recount over those structs.

use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Event time of row 0.
pub const T0: i64 = 1_700_000_000;
/// Rows per second of event time; row `i` happened at `T0 + i / RATE`.
pub const RATE: i64 = 1000;

pub const ENDPOINTS: [&str; 8] = [
    "/feed", "/profile", "/search", "/login", "/photo", "/message", "/notify", "/ads",
];
pub const HOSTS: usize = 100;

pub fn host_names() -> &'static [String] {
    static NAMES: OnceLock<Vec<String>> = OnceLock::new();
    NAMES.get_or_init(|| (0..HOSTS).map(|h| format!("host{h:03}")).collect())
}

pub fn time_of(i: u64) -> i64 {
    T0 + i as i64 / RATE
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// xorshift64*.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // A zero state is a fixed point of xorshift.
        Rng(splitmix64(seed) | 1)
    }

    /// The generator for one row: independent of every other row's.
    pub fn for_row(seed: u64, stream: u64, i: u64) -> Rng {
        Rng::new(splitmix64(seed ^ splitmix64(stream)) ^ i.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        (((self.next_u64() >> 11) as u128 * n as u128) >> 53) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One `requests` row.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    pub time: i64,
    pub endpoint: u8,
    pub status: i64,
    pub latency_ms: f64,
    pub host: u8,
    pub seq: i64,
}

/// One `dense` row: a high-entropy string column that neither dictionary
/// nor run-length encoding can shrink, so bytes per row stay high.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    pub time: i64,
    pub trace: [u64; 2],
    pub latency_us: i64,
    pub score: f64,
}

impl Dense {
    pub fn trace_hex(&self) -> String {
        format!("{:016x}{:016x}", self.trace[0], self.trace[1])
    }
}

pub fn gen_requests(seed: u64, stream: u64, start: u64, n: usize) -> Vec<Req> {
    (start..start + n as u64)
        .map(|i| {
            let mut r = Rng::for_row(seed, stream, i);
            // Endpoints are skewed (half the traffic on the first two).
            let e = r.below(16);
            let endpoint = match e {
                0..=4 => 0,
                5..=7 => 1,
                8..=9 => 2,
                10..=11 => 3,
                _ => (e - 8) as u8,
            };
            let s = r.below(100);
            let status = match s {
                0..=89 => 200,
                90..=92 => 302,
                93..=96 => 404,
                _ => 500,
            };
            // Exponential tail on a floor: p99 sits far from the median.
            let latency_ms = 2.0 + -(1.0 - r.unit()).ln() * 25.0;
            Req {
                time: time_of(i),
                endpoint,
                status,
                latency_ms,
                host: r.below(HOSTS as u64) as u8,
                seq: i as i64,
            }
        })
        .collect()
}

pub fn gen_dense(seed: u64, stream: u64, start: u64, n: usize) -> Vec<Dense> {
    (start..start + n as u64)
        .map(|i| {
            let mut r = Rng::for_row(seed, stream, i);
            Dense {
                time: time_of(i),
                trace: [r.next_u64(), r.next_u64()],
                latency_us: 50 + r.below(1_000_000) as i64,
                score: r.unit(),
            }
        })
        .collect()
}

/// Which of the two row shapes a table holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Requests,
    Dense,
}

impl Shape {
    pub fn name(self) -> &'static str {
        match self {
            Shape::Requests => "requests",
            Shape::Dense => "dense",
        }
    }

    pub fn parse(s: &str) -> Option<Shape> {
        match s {
            "requests" => Some(Shape::Requests),
            "dense" => Some(Shape::Dense),
            _ => None,
        }
    }
}

/// Rows of either shape, still plain data.
#[derive(Debug, Clone)]
pub enum Records {
    Requests(Vec<Req>),
    Dense(Vec<Dense>),
}

impl Records {
    pub fn generate(shape: Shape, seed: u64, stream: u64, start: u64, n: usize) -> Records {
        match shape {
            Shape::Requests => Records::Requests(gen_requests(seed, stream, start, n)),
            Shape::Dense => Records::Dense(gen_dense(seed, stream, start, n)),
        }
    }

    /// FNV-1a over every field: the determinism self-test's row hash.
    #[cfg(test)]
    pub fn hash(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        match self {
            Records::Requests(v) => {
                for r in v {
                    eat(r.time as u64);
                    eat(r.endpoint as u64);
                    eat(r.status as u64);
                    eat(r.latency_ms.to_bits());
                    eat(r.host as u64);
                    eat(r.seq as u64);
                }
            }
            Records::Dense(v) => {
                for r in v {
                    eat(r.time as u64);
                    eat(r.trace[0]);
                    eat(r.trace[1]);
                    eat(r.latency_us as u64);
                    eat(r.score.to_bits());
                }
            }
        }
        h
    }
}

// ---- queries, described without product types ----

#[derive(Debug, Clone, PartialEq)]
pub enum Lit {
    I(i64),
    F(f64),
    S(String),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Eq,
    Ge,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Pred {
    pub col: String,
    pub op: Op,
    pub lit: Lit,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Agg {
    Count,
    Sum(String),
    Avg(String),
    P99(String),
}

#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    pub name: String,
    pub table: String,
    /// Inclusive.
    pub from: i64,
    /// Exclusive.
    pub to: i64,
    pub preds: Vec<Pred>,
    pub group_by: Option<String>,
    pub bucket_secs: Option<i64>,
    pub aggs: Vec<Agg>,
}

impl QuerySpec {
    pub fn count(name: &str, table: &str, from: i64, to: i64) -> QuerySpec {
        QuerySpec {
            name: name.to_owned(),
            table: table.to_owned(),
            from,
            to,
            preds: Vec::new(),
            group_by: None,
            bucket_secs: None,
            aggs: vec![Agg::Count],
        }
    }

    pub fn pred(mut self, col: &str, op: Op, lit: Lit) -> QuerySpec {
        self.preds.push(Pred {
            col: col.to_owned(),
            op,
            lit,
        });
        self
    }

    pub fn group_by(mut self, col: &str) -> QuerySpec {
        self.group_by = Some(col.to_owned());
        self
    }

    pub fn bucket(mut self, secs: i64) -> QuerySpec {
        self.bucket_secs = Some(secs);
        self
    }

    pub fn aggs(mut self, aggs: Vec<Agg>) -> QuerySpec {
        self.aggs = aggs;
        self
    }

    /// One whitespace-free token per field, for the child's pipe.
    pub fn to_line(&self) -> String {
        let preds: Vec<String> = self
            .preds
            .iter()
            .map(|p| {
                let op = match p.op {
                    Op::Eq => "eq",
                    Op::Ge => "ge",
                };
                let lit = match &p.lit {
                    Lit::I(v) => format!("i{v}"),
                    Lit::F(v) => format!("f{v}"),
                    Lit::S(v) => format!("s{v}"),
                };
                format!("{}:{op}:{lit}", p.col)
            })
            .collect();
        let aggs: Vec<String> = self
            .aggs
            .iter()
            .map(|a| match a {
                Agg::Count => "count".to_owned(),
                Agg::Sum(c) => format!("sum:{c}"),
                Agg::Avg(c) => format!("avg:{c}"),
                Agg::P99(c) => format!("p99:{c}"),
            })
            .collect();
        format!(
            "{} {} {} {} {} {} {} {}",
            self.name,
            self.table,
            self.from,
            self.to,
            if preds.is_empty() {
                "-".to_owned()
            } else {
                preds.join(",")
            },
            self.group_by.as_deref().unwrap_or("-"),
            self.bucket_secs.unwrap_or(0),
            aggs.join(",")
        )
    }

    pub fn from_line(line: &str) -> Option<QuerySpec> {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 8 {
            return None;
        }
        let mut preds = Vec::new();
        if f[4] != "-" {
            for p in f[4].split(',') {
                let mut it = p.splitn(3, ':');
                let col = it.next()?.to_owned();
                let op = match it.next()? {
                    "eq" => Op::Eq,
                    "ge" => Op::Ge,
                    _ => return None,
                };
                let lit = it.next()?;
                let (kind, body) = lit.split_at(1);
                let lit = match kind {
                    "i" => Lit::I(body.parse().ok()?),
                    "f" => Lit::F(body.parse().ok()?),
                    "s" => Lit::S(body.to_owned()),
                    _ => return None,
                };
                preds.push(Pred { col, op, lit });
            }
        }
        let mut aggs = Vec::new();
        for a in f[7].split(',') {
            aggs.push(match a.split_once(':') {
                None if a == "count" => Agg::Count,
                Some(("sum", c)) => Agg::Sum(c.to_owned()),
                Some(("avg", c)) => Agg::Avg(c.to_owned()),
                Some(("p99", c)) => Agg::P99(c.to_owned()),
                _ => return None,
            });
        }
        let bucket: i64 = f[6].parse().ok()?;
        Some(QuerySpec {
            name: f[0].to_owned(),
            table: f[1].to_owned(),
            from: f[2].parse().ok()?,
            to: f[3].parse().ok()?,
            preds,
            group_by: (f[5] != "-").then(|| f[5].to_owned()),
            bucket_secs: (bucket > 0).then_some(bucket),
            aggs,
        })
    }
}

/// What a query returned, or what it should have: the matched-row count
/// and one value per aggregate per group. Group keys are spelled the way
/// the product prints them (`(null)` ungrouped, `t=<start>` for a bucket).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Answer {
    pub rows_matched: u64,
    pub groups: BTreeMap<String, Vec<f64>>,
    /// Execution counts; zero in an oracle answer.
    pub rows_scanned: u64,
    pub blocks_time_pruned: u64,
    pub blocks_zonemap_pruned: u64,
    pub blocks_scanned: u64,
}

impl Answer {
    /// `a + b` for answers whose aggregates are all additive (count, sum).
    pub fn add(&mut self, other: &Answer) {
        self.rows_matched += other.rows_matched;
        for (k, vs) in &other.groups {
            let mine = self
                .groups
                .entry(k.clone())
                .or_insert_with(|| vec![0.0; vs.len()]);
            for (m, v) in mine.iter_mut().zip(vs) {
                *m += v;
            }
        }
    }

    pub fn to_line(&self) -> String {
        let groups: Vec<String> = self
            .groups
            .iter()
            .map(|(k, vs)| {
                let vs: Vec<String> = vs.iter().map(|v| format!("{v:?}")).collect();
                format!("{k}|{}", vs.join(","))
            })
            .collect();
        format!(
            "{} {} {} {} {} {}",
            self.rows_matched,
            self.rows_scanned,
            self.blocks_time_pruned,
            self.blocks_zonemap_pruned,
            self.blocks_scanned,
            if groups.is_empty() {
                "-".to_owned()
            } else {
                groups.join(";")
            }
        )
    }

    pub fn from_line(line: &str) -> Option<Answer> {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 6 {
            return None;
        }
        let mut groups = BTreeMap::new();
        if f[5] != "-" {
            for g in f[5].split(';') {
                let (k, vs) = g.split_once('|')?;
                let vs: Option<Vec<f64>> = vs.split(',').map(|v| v.parse().ok()).collect();
                groups.insert(k.to_owned(), vs?);
            }
        }
        Some(Answer {
            rows_matched: f[0].parse().ok()?,
            rows_scanned: f[1].parse().ok()?,
            blocks_time_pruned: f[2].parse().ok()?,
            blocks_zonemap_pruned: f[3].parse().ok()?,
            blocks_scanned: f[4].parse().ok()?,
            groups,
        })
    }
}

enum Cell<'a> {
    I(i64),
    F(f64),
    S(&'a str),
}

trait Record {
    fn time(&self) -> i64;
    fn cell(&self, col: &str) -> Cell<'_>;
}

impl Record for Req {
    fn time(&self) -> i64 {
        self.time
    }
    fn cell(&self, col: &str) -> Cell<'_> {
        match col {
            "endpoint" => Cell::S(ENDPOINTS[self.endpoint as usize]),
            "status" => Cell::I(self.status),
            "latency_ms" => Cell::F(self.latency_ms),
            "host" => Cell::S(&host_names()[self.host as usize]),
            "seq" => Cell::I(self.seq),
            other => panic!("requests has no column {other}"),
        }
    }
}

impl Record for Dense {
    fn time(&self) -> i64 {
        self.time
    }
    fn cell(&self, col: &str) -> Cell<'_> {
        match col {
            "latency_us" => Cell::I(self.latency_us),
            "score" => Cell::F(self.score),
            other => panic!("the oracle does not read dense column {other}"),
        }
    }
}

fn number(c: Cell<'_>) -> f64 {
    match c {
        Cell::I(v) => v as f64,
        Cell::F(v) => v,
        Cell::S(_) => panic!("aggregate over a string column"),
    }
}

fn matches(p: &Pred, c: Cell<'_>) -> bool {
    match (c, &p.lit, p.op) {
        (Cell::I(a), Lit::I(b), Op::Eq) => a == *b,
        (Cell::I(a), Lit::I(b), Op::Ge) => a >= *b,
        (Cell::F(a), Lit::F(b), Op::Eq) => a == *b,
        (Cell::F(a), Lit::F(b), Op::Ge) => a >= *b,
        (Cell::S(a), Lit::S(b), Op::Eq) => a == b,
        (Cell::S(a), Lit::S(b), Op::Ge) => a >= b.as_str(),
        _ => panic!("predicate {p:?} does not fit its column"),
    }
}

enum Acc {
    Count(u64),
    Sum(f64),
    Avg(f64, u64),
    P99(Vec<f64>),
}

fn recount<R: Record>(rows: &[R], q: &QuerySpec) -> Answer {
    // Rows are in time order, so the window is one contiguous run.
    let lo = rows.partition_point(|r| r.time() < q.from);
    let hi = rows.partition_point(|r| r.time() < q.to);
    let mut groups: BTreeMap<String, Vec<Acc>> = BTreeMap::new();
    let mut matched = 0u64;
    for r in &rows[lo..hi.max(lo)] {
        if !q.preds.iter().all(|p| matches(p, r.cell(&p.col))) {
            continue;
        }
        matched += 1;
        let inner = q.group_by.as_ref().map(|col| match r.cell(col) {
            Cell::S(s) => s.to_owned(),
            Cell::I(v) => v.to_string(),
            Cell::F(_) => panic!("group by a double"),
        });
        let key = match (q.bucket_secs, inner) {
            (None, None) => "(null)".to_owned(),
            (None, Some(k)) => k,
            (Some(b), None) => format!("t={}", r.time() - r.time().rem_euclid(b)),
            (Some(b), Some(k)) => format!("t={}/{k}", r.time() - r.time().rem_euclid(b)),
        };
        let accs = groups.entry(key).or_insert_with(|| {
            q.aggs
                .iter()
                .map(|a| match a {
                    Agg::Count => Acc::Count(0),
                    Agg::Sum(_) => Acc::Sum(0.0),
                    Agg::Avg(_) => Acc::Avg(0.0, 0),
                    Agg::P99(_) => Acc::P99(Vec::new()),
                })
                .collect()
        });
        for (acc, agg) in accs.iter_mut().zip(&q.aggs) {
            match (acc, agg) {
                (Acc::Count(n), Agg::Count) => *n += 1,
                (Acc::Sum(s), Agg::Sum(c)) => *s += number(r.cell(c)),
                (Acc::Avg(s, n), Agg::Avg(c)) => {
                    *s += number(r.cell(c));
                    *n += 1;
                }
                (Acc::P99(v), Agg::P99(c)) => v.push(number(r.cell(c))),
                _ => unreachable!("accumulators are built from the same list"),
            }
        }
    }
    let groups = groups
        .into_iter()
        .map(|(k, accs)| {
            let vs = accs
                .into_iter()
                .map(|a| match a {
                    Acc::Count(n) => n as f64,
                    Acc::Sum(s) => s,
                    Acc::Avg(s, n) => s / n as f64,
                    Acc::P99(mut v) => {
                        v.sort_by(f64::total_cmp);
                        crate::stats::nearest_rank(&v, 99.0)
                    }
                })
                .collect();
            (k, vs)
        })
        .collect();
    Answer {
        rows_matched: matched,
        groups,
        ..Answer::default()
    }
}

/// The answer `q` must give over `rows`, by brute force.
pub fn oracle(rows: &Records, q: &QuerySpec) -> Answer {
    match rows {
        Records::Requests(v) => recount(v, q),
        Records::Dense(v) => recount(v, q),
    }
}

/// Does `got` answer `q` as `want` says? Counts are exact; sums and means
/// allow for a different order of floating-point addition; `P99` allows
/// for the product's log-histogram sketch (documented at ~9 %).
pub fn check(q: &QuerySpec, got: &Answer, want: &Answer) -> Result<(), String> {
    if got.rows_matched != want.rows_matched {
        return Err(format!(
            "{}: matched {} rows, oracle says {}",
            q.name, got.rows_matched, want.rows_matched
        ));
    }
    if got.groups.len() != want.groups.len() {
        return Err(format!(
            "{}: {} groups, oracle says {}",
            q.name,
            got.groups.len(),
            want.groups.len()
        ));
    }
    for (key, want_vs) in &want.groups {
        let Some(got_vs) = got.groups.get(key) else {
            return Err(format!("{}: group {key} missing", q.name));
        };
        if got_vs.len() != q.aggs.len() || want_vs.len() != q.aggs.len() {
            return Err(format!("{}: group {key} has the wrong arity", q.name));
        }
        for ((g, w), agg) in got_vs.iter().zip(want_vs).zip(&q.aggs) {
            let tol = match agg {
                Agg::Count => 0.0,
                Agg::Sum(_) | Agg::Avg(_) => 1e-9,
                Agg::P99(_) => 0.12,
            };
            // NaN (a null aggregate) is within no tolerance.
            let within = (g - w).abs() <= tol * w.abs();
            if !within {
                return Err(format!(
                    "{}: group {key} {agg:?} = {g}, oracle says {w}",
                    q.name
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_rows() {
        for shape in [Shape::Requests, Shape::Dense] {
            let a = Records::generate(shape, 42, 3, 0, 5000);
            let b = Records::generate(shape, 42, 3, 0, 5000);
            assert_eq!(a.hash(), b.hash());
            assert_ne!(a.hash(), Records::generate(shape, 43, 3, 0, 5000).hash());
            assert_ne!(a.hash(), Records::generate(shape, 42, 4, 0, 5000).hash());
            // A row does not depend on where its batch started.
            let tail = Records::generate(shape, 42, 3, 4000, 1000);
            match (&a, &tail) {
                (Records::Requests(a), Records::Requests(t)) => assert_eq!(&a[4000..], &t[..]),
                (Records::Dense(a), Records::Dense(t)) => assert_eq!(&a[4000..], &t[..]),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn the_oracle_equals_a_recount_by_hand() {
        let rows = gen_requests(7, 1, 0, 20_000);
        let from = T0 + 5;
        let to = T0 + 15;
        let q = QuerySpec::count("t", "requests", from, to)
            .pred("status", Op::Eq, Lit::I(200))
            .pred("endpoint", Op::Eq, Lit::S("/feed".to_owned()))
            .group_by("host")
            .aggs(vec![Agg::Count, Agg::Sum("latency_ms".to_owned())]);
        let got = oracle(&Records::Requests(rows.clone()), &q);
        let mut by_hand: BTreeMap<String, (f64, f64)> = BTreeMap::new();
        let mut matched = 0;
        for r in &rows {
            if r.time >= from && r.time < to && r.status == 200 && r.endpoint == 0 {
                matched += 1;
                let e = by_hand
                    .entry(host_names()[r.host as usize].clone())
                    .or_default();
                e.0 += 1.0;
                e.1 += r.latency_ms;
            }
        }
        assert!(matched > 100, "the window should hold rows");
        assert_eq!(got.rows_matched, matched);
        assert_eq!(got.groups.len(), by_hand.len());
        for (k, (n, sum)) in by_hand {
            assert_eq!(got.groups[&k], vec![n, sum]);
        }
        // Buckets and the ungrouped key are spelled as the product spells them.
        let series = QuerySpec::count("s", "requests", T0, T0 + 20).bucket(10);
        let got = oracle(&Records::Requests(rows.clone()), &series);
        assert_eq!(
            got.groups.keys().collect::<Vec<_>>(),
            vec![&format!("t={T0}"), &format!("t={}", T0 + 10)]
        );
        assert_eq!(got.groups[&format!("t={T0}")], vec![(10 * RATE) as f64]);
        let all = oracle(
            &Records::Requests(rows),
            &QuerySpec::count("c", "requests", 0, i64::MAX),
        );
        assert_eq!(all.groups["(null)"], vec![20_000.0]);
    }

    #[test]
    fn check_is_exact_on_counts_and_tolerant_on_sketches() {
        let q = QuerySpec::count("q", "dense", 0, 1).aggs(vec![
            Agg::Count,
            Agg::Avg("score".to_owned()),
            Agg::P99("latency_us".to_owned()),
        ]);
        let want = Answer {
            rows_matched: 10,
            groups: BTreeMap::from([("(null)".to_owned(), vec![10.0, 0.5, 1000.0])]),
            ..Answer::default()
        };
        let mut got = want.clone();
        got.groups
            .insert("(null)".to_owned(), vec![10.0, 0.5 + 1e-12, 1090.0]);
        assert!(check(&q, &got, &want).is_ok());
        got.groups
            .insert("(null)".to_owned(), vec![11.0, 0.5, 1000.0]);
        assert!(check(&q, &got, &want).is_err());
        got.groups
            .insert("(null)".to_owned(), vec![10.0, 0.5, 1200.0]);
        assert!(check(&q, &got, &want).is_err());
        got.groups
            .insert("(null)".to_owned(), vec![10.0, f64::NAN, 1000.0]);
        assert!(check(&q, &got, &want).is_err());
    }

    #[test]
    fn queries_and_answers_survive_the_pipe() {
        let q = QuerySpec::count("q_x", "requests", T0, T0 + 9)
            .pred("status", Op::Eq, Lit::I(500))
            .pred("endpoint", Op::Eq, Lit::S("/feed".to_owned()))
            .pred("latency_ms", Op::Ge, Lit::F(12.5))
            .group_by("host")
            .bucket(3)
            .aggs(vec![Agg::Count, Agg::Avg("latency_ms".to_owned())]);
        assert_eq!(QuerySpec::from_line(&q.to_line()), Some(q));
        let plain = QuerySpec::count("c", "dense", 0, i64::MAX);
        assert_eq!(QuerySpec::from_line(&plain.to_line()), Some(plain));
        let a = Answer {
            rows_matched: 3,
            groups: BTreeMap::from([
                ("(null)".to_owned(), vec![3.0, 0.1 + 0.2]),
                ("t=5/host001".to_owned(), vec![1e-300, 2.5e17]),
            ]),
            rows_scanned: 9,
            blocks_time_pruned: 1,
            blocks_zonemap_pruned: 2,
            blocks_scanned: 4,
        };
        assert_eq!(Answer::from_line(&a.to_line()), Some(a));
        assert_eq!(
            Answer::from_line(&Answer::default().to_line()),
            Some(Answer::default())
        );
    }
}
