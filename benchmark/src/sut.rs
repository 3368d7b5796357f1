//! The system under test. This is the only file of the benchmark that
//! names a product symbol (the list is in the README); everything else
//! sees rows, queries and answers as the plain types of `gen`.
//!
//! Nothing here takes a time: callers wrap these calls in their own spans.

use std::path::{Path, PathBuf};
use std::time::Duration;

use scuba::cluster::{AdmissionQueue, ClusterConfig, HostedCluster, RolloverConfig};
use scuba::columnstore::table::RetentionLimits;
use scuba::columnstore::{Row, Table, Value};
use scuba::leaf::{LeafConfig, LeafServer, RecoveryOutcome, RestoreMode, TieringMode};
use scuba::query::{
    merge_partials, plan_scan, AggSpec, CmpOp, Filter, LeafQueryResult, MergedResult, Query,
};
use scuba::restart::{read_wal, WalWriter};
use scuba::shmem::{crc32, ShmSegment};

use crate::gen::{host_names, Agg, Answer, Lit, Op, QuerySpec, Records, ENDPOINTS};

pub type SutResult<T> = Result<T, String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Environment variables that change the product's behaviour; the
/// benchmark clears them so product defaults apply.
pub const PRODUCT_ENV: [&str; 3] = ["SCUBA_OBS", "SCUBA_COPY_THREADS", "SCUBA_BENCH_JSON"];

/// A batch of product rows, converted before any timed call.
pub struct RowBatch(Vec<Row>);

impl RowBatch {
    pub fn from_records(records: &Records) -> RowBatch {
        RowBatch(match records {
            Records::Requests(v) => v
                .iter()
                .map(|r| {
                    Row::at(r.time)
                        .with("endpoint", ENDPOINTS[r.endpoint as usize])
                        .with("status", r.status)
                        .with("latency_ms", r.latency_ms)
                        .with("host", host_names()[r.host as usize].as_str())
                        .with("seq", r.seq)
                })
                .collect(),
            Records::Dense(v) => v
                .iter()
                .map(|r| {
                    Row::at(r.time)
                        .with("trace", r.trace_hex())
                        .with("latency_us", r.latency_us)
                        .with("score", r.score)
                })
                .collect(),
        })
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }
}

fn product_query(q: &QuerySpec) -> Query {
    let mut out = Query::new(q.table.as_str(), q.from, q.to);
    for p in &q.preds {
        let op = match p.op {
            Op::Eq => CmpOp::Eq,
            Op::Ge => CmpOp::Ge,
        };
        let lit: Value = match &p.lit {
            Lit::I(v) => (*v).into(),
            Lit::F(v) => (*v).into(),
            Lit::S(v) => v.as_str().into(),
        };
        out = out.filter(Filter::new(p.col.as_str(), op, lit));
    }
    if let Some(g) = &q.group_by {
        out = out.group_by(g.as_str());
    }
    if let Some(b) = q.bucket_secs {
        out = out.bucket_secs(b);
    }
    out.aggregates(
        q.aggs
            .iter()
            .map(|a| match a {
                Agg::Count => AggSpec::Count,
                Agg::Sum(c) => AggSpec::Sum(c.clone()),
                Agg::Avg(c) => AggSpec::Avg(c.clone()),
                Agg::P99(c) => AggSpec::p99(c.clone()),
            })
            .collect(),
    )
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Int(i) => *i as f64,
        Value::Double(d) => *d,
        // A null or non-numeric aggregate can equal no oracle value.
        _ => f64::NAN,
    }
}

fn answer_of_leaf(r: &LeafQueryResult) -> Answer {
    Answer {
        rows_matched: r.rows_matched,
        groups: r
            .groups
            .iter()
            .map(|(k, states)| {
                (
                    k.to_string(),
                    states.iter().map(|s| number(&s.finish())).collect(),
                )
            })
            .collect(),
        rows_scanned: r.rows_scanned,
        blocks_time_pruned: r.blocks_pruned,
        blocks_zonemap_pruned: r.blocks_zonemap_pruned,
        blocks_scanned: r.blocks_scanned,
    }
}

fn answer_of_merged(r: &MergedResult) -> Answer {
    Answer {
        rows_matched: r.rows_matched,
        groups: r
            .groups
            .iter()
            .map(|(k, vs)| (k.to_string(), vs.iter().map(number).collect()))
            .collect(),
        rows_scanned: r.rows_scanned,
        ..Answer::default()
    }
}

// ---- one leaf ----

/// The leaf settings a workload may choose; every other field of the
/// product's configuration keeps its default.
#[derive(Debug, Clone)]
pub struct LeafOpts {
    pub leaf_id: u32,
    pub shm_prefix: String,
    pub disk_root: PathBuf,
    /// `Some(rows)` turns the checkpointer and WAL on, checkpointing
    /// every `rows` rows.
    pub checkpoint_interval_rows: Option<usize>,
    pub shm_recovery: bool,
    /// `Some(bytes)` turns SIEVE tiering on under that budget.
    pub memory_budget_bytes: Option<usize>,
}

impl LeafOpts {
    pub fn new(leaf_id: u32, shm_prefix: &str, disk_root: &Path) -> LeafOpts {
        LeafOpts {
            leaf_id,
            shm_prefix: shm_prefix.to_owned(),
            disk_root: disk_root.to_owned(),
            checkpoint_interval_rows: None,
            shm_recovery: true,
            memory_budget_bytes: None,
        }
    }

    fn config(&self) -> LeafConfig {
        let mut c = LeafConfig::new(self.leaf_id, self.shm_prefix.as_str(), &self.disk_root);
        c.memory_capacity = 4 << 30;
        // Attach, then hydrate: the path ROADMAP item 3 keeps.
        c.restore_mode = RestoreMode::TwoPhase;
        c.shm_recovery_enabled = self.shm_recovery;
        if let Some(rows) = self.checkpoint_interval_rows {
            c.checkpoint_enabled = true;
            c.checkpoint_interval_rows = rows;
        }
        if let Some(bytes) = self.memory_budget_bytes {
            c.tiering = TieringMode::Sieve;
            c.memory_budget_bytes = bytes;
        }
        c
    }
}

/// How a started leaf got its data back.
#[derive(Debug, Clone, PartialEq)]
pub enum Recovery {
    /// Copied back from shared memory before serving.
    Memory,
    /// Attached to shared memory; `heap_bytes_copied` is what the attach
    /// itself put on the heap.
    Attached { heap_bytes_copied: u64 },
    Disk {
        reason: String,
        read: Duration,
        translate: Duration,
        rows: u64,
    },
}

impl Recovery {
    pub fn is_memory(&self) -> bool {
        !matches!(self, Recovery::Disk { .. })
    }
}

/// What a clean shutdown reported.
#[derive(Debug, Clone, PartialEq)]
pub struct Shutdown {
    pub bytes_copied: u64,
    pub peak_footprint: usize,
    pub initial_footprint: usize,
}

/// Sizes of a live leaf.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LeafSizes {
    pub total_rows: usize,
    pub memory_used: usize,
    pub shm_resident: usize,
    pub wal_bytes: u64,
    pub wal_replayed_records: usize,
    pub cold_blocks: usize,
    pub cold_bytes: usize,
}

pub struct Leaf(LeafServer);

impl Leaf {
    pub fn fresh(opts: &LeafOpts) -> SutResult<Leaf> {
        LeafServer::new(opts.config()).map(Leaf).map_err(err)
    }

    pub fn start(opts: &LeafOpts, now: i64) -> SutResult<(Leaf, Recovery)> {
        let (server, outcome) = LeafServer::start(opts.config(), now, None).map_err(err)?;
        let recovery = match outcome {
            RecoveryOutcome::Memory(_) => Recovery::Memory,
            RecoveryOutcome::MemoryAttached(r) => Recovery::Attached {
                heap_bytes_copied: r.heap_bytes_copied,
            },
            RecoveryOutcome::Disk { reason, stats } => Recovery::Disk {
                reason,
                read: stats.read_duration,
                translate: stats.translate_duration,
                rows: stats.rows,
            },
        };
        Ok((Leaf(server), recovery))
    }

    pub fn add_rows(&mut self, table: &str, rows: &RowBatch, now: i64) -> SutResult<()> {
        self.0.add_rows(table, &rows.0, now).map_err(err)
    }

    pub fn query(&self, q: &QuerySpec) -> SutResult<Answer> {
        let r = self.0.query(&product_query(q)).map_err(err)?;
        Ok(answer_of_leaf(&r))
    }

    pub fn query_partial(&self, q: &QuerySpec) -> SutResult<Partial> {
        self.0.query(&product_query(q)).map(Partial).map_err(err)
    }

    pub fn sync_disk(&mut self) -> SutResult<u64> {
        self.0.sync_disk().map_err(err)
    }

    pub fn shutdown_to_shm(&mut self, now: i64) -> SutResult<Shutdown> {
        let s = self.0.shutdown_to_shm(now).map_err(err)?;
        Ok(Shutdown {
            bytes_copied: s.backup.bytes_copied,
            peak_footprint: s.backup.peak_footprint,
            initial_footprint: s.backup.initial_footprint,
        })
    }

    pub fn finish_hydration(&mut self) -> SutResult<()> {
        self.0.finish_hydration().map_err(err)
    }

    pub fn checkpoint_and_wait(&mut self) -> SutResult<()> {
        self.0.checkpoint_and_wait().map(|_| ()).map_err(err)
    }

    pub fn poll_tiering(&mut self) -> SutResult<()> {
        self.0.poll_tiering().map_err(err)
    }

    pub fn sizes(&self) -> LeafSizes {
        LeafSizes {
            total_rows: self.0.total_rows(),
            memory_used: self.0.memory_used(),
            shm_resident: self.0.shm_resident(),
            wal_bytes: self.0.wal_bytes(),
            wal_replayed_records: self.0.wal_replayed_records(),
            cold_blocks: self.0.cold_blocks(),
            cold_bytes: self.0.cold_bytes(),
        }
    }
}

// ---- a hosted cluster ----

/// How the legs of one fan-out fared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Legs {
    pub answered: usize,
    pub shed: usize,
    pub unavailable: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    Ok,
    Shed,
    Unavailable,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wave {
    pub restarted: usize,
    pub memory_recoveries: usize,
    pub min_availability: f64,
}

pub struct Fleet(HostedCluster);

impl Fleet {
    pub fn new(
        machines: usize,
        leaves_per_machine: usize,
        shm_prefix: &str,
        disk_root: &Path,
    ) -> SutResult<Fleet> {
        HostedCluster::new(ClusterConfig {
            machines,
            leaves_per_machine,
            shm_prefix: shm_prefix.to_owned(),
            disk_root: disk_root.to_owned(),
            leaf_memory_capacity: 1 << 30,
            retention: RetentionLimits::NONE,
        })
        .map(Fleet)
        .map_err(err)
    }

    /// Takes the batch by value, as the product's queue does; the caller
    /// keeps no copy.
    pub fn add_rows(
        &self,
        leaf: usize,
        table: &str,
        rows: RowBatch,
        now: i64,
    ) -> SutResult<IngestOutcome> {
        match self.0.add_rows(leaf, table, rows.0, now) {
            Ok(()) => Ok(IngestOutcome::Ok),
            Err(e) if e.is_shed() => Ok(IngestOutcome::Shed),
            Err(scuba::leaf::LeafError::Unavailable { .. }) => Ok(IngestOutcome::Unavailable),
            Err(e) => Err(err(e)),
        }
    }

    pub fn query(&self, q: &QuerySpec) -> (Answer, Legs) {
        let (merged, stats) = self.0.query_detailed(&product_query(q));
        (
            answer_of_merged(&merged),
            Legs {
                answered: stats.answered,
                shed: stats.shed,
                unavailable: stats.unavailable,
            },
        )
    }

    pub fn restart_leaf(&self, id: usize) -> Wave {
        let w = self.0.restart_leaves(&[id], &RolloverConfig::default());
        Wave {
            restarted: w.restarted,
            memory_recoveries: w.memory_recoveries,
            min_availability: w.min_availability,
        }
    }

    pub fn rollover_order(&self) -> Vec<usize> {
        self.0.rollover_order()
    }

    pub fn total_rows(&self) -> usize {
        self.0.total_rows()
    }
}

// ---- probes: short direct calls into one layer, traced pass only ----

pub fn probe_crc32(bytes: &[u8]) -> u32 {
    crc32(bytes)
}

pub struct ShmProbe(ShmSegment);

impl ShmProbe {
    pub fn create(name: &str, size: usize) -> SutResult<ShmProbe> {
        ShmSegment::create(name, size).map(ShmProbe).map_err(err)
    }

    pub fn open(name: &str) -> SutResult<ShmProbe> {
        ShmSegment::open(name).map(ShmProbe).map_err(err)
    }

    pub fn bytes_mut(&mut self) -> &mut [u8] {
        self.0.as_mut_slice()
    }

    pub fn bytes(&self) -> &[u8] {
        self.0.as_slice()
    }

    pub fn unlink(name: &str) -> SutResult<bool> {
        ShmSegment::unlink(name).map_err(err)
    }
}

pub struct WalProbe(WalWriter);

impl WalProbe {
    pub fn open(path: &Path) -> SutResult<WalProbe> {
        WalWriter::open(path).map(WalProbe).map_err(err)
    }

    pub fn append(&mut self, payload: &[u8]) -> SutResult<()> {
        self.0.append(payload).map_err(err)
    }

    pub fn sync(&mut self) -> SutResult<()> {
        self.0.sync().map_err(err)
    }

    /// Records read back and their total payload bytes.
    pub fn read(path: &Path) -> SutResult<(usize, usize)> {
        let w = read_wal(path).map_err(err)?;
        Ok((w.records.len(), w.records.iter().map(Vec::len).sum()))
    }
}

/// A bare column-store table, outside any leaf.
pub struct TableProbe(Table);

impl TableProbe {
    pub fn new(name: &str) -> TableProbe {
        TableProbe(Table::new(name, 0))
    }

    pub fn append_all(&mut self, rows: &RowBatch) -> SutResult<()> {
        for r in &rows.0 {
            self.0.append(r, 0).map_err(err)?;
        }
        Ok(())
    }

    pub fn seal(&mut self) -> SutResult<()> {
        self.0.seal(0).map_err(err)
    }

    pub fn encoded_bytes(&self) -> usize {
        self.0.encoded_bytes()
    }

    /// Plan only: how many blocks survive pruning.
    pub fn plan(&self, q: &QuerySpec) -> SutResult<usize> {
        plan_scan(&self.0, &product_query(q))
            .map(|p| p.blocks.len())
            .map_err(err)
    }
}

/// One leaf's partial result, kept in the product's form for the merge
/// probe.
pub struct Partial(LeafQueryResult);

/// The aggregator's merge of leaf partials for `q`.
pub fn merge(q: &QuerySpec, partials: &[Partial]) -> Answer {
    let aggs = product_query(q).aggregates;
    let partials: Vec<LeafQueryResult> = partials.iter().map(|p| p.0.clone()).collect();
    answer_of_merged(&merge_partials(&aggs, partials.len(), &partials))
}

/// One admit → recv → finish round trip on an admission queue.
pub struct AdmissionProbe(AdmissionQueue<u64>);

impl AdmissionProbe {
    pub fn new(key: &str) -> AdmissionProbe {
        AdmissionProbe(AdmissionQueue::new(key, Default::default()))
    }

    pub fn roundtrip(&self, item: u64) -> bool {
        let admitted = self.0.admit(item).is_ok();
        let got = self.0.recv();
        self.0.finish();
        admitted && got == Some(item)
    }
}
