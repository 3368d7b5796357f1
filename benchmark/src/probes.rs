//! Probes: short direct calls into one layer's public functions, made
//! only in the traced pass. They give the denominators (what this host
//! can copy or checksum per second) and the unit costs (one append, one
//! seal, one merge) that the workloads' layer times are read against.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::gen::{self, Agg, QuerySpec, Records, Shape};
use crate::hygiene::Hygiene;
use crate::stats::median;
use crate::sut::{self, AdmissionProbe, Leaf, LeafOpts, RowBatch, ShmProbe, TableProbe, WalProbe};
use crate::trace::Tracer;

const MIB: usize = 1 << 20;
const PROBE_BYTES: usize = 64 * MIB;
/// Rows of one full row block.
const BLOCK_ROWS: usize = 65_536;

fn gbps(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / secs / 1e9
}

/// Cost of recording one span, measured on a tracer of its own.
pub fn span_cost_ns() -> f64 {
    const N: u64 = 20_000;
    let mut t = Tracer::new(true, 63);
    let started = Instant::now();
    for i in 0..N {
        let open = t.begin("probe.span", 0, i);
        black_box(t.end(open));
    }
    started.elapsed().as_nanos() as f64 / N as f64
}

fn page_bytes() -> f64 {
    // The auxiliary vector is (key, value) pairs of native words; key 6 is
    // AT_PAGESZ.
    std::fs::read("/proc/self/auxv")
        .ok()
        .and_then(|raw| {
            raw.chunks_exact(16).find_map(|pair| {
                let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("eight bytes"));
                (word(&pair[..8]) == 6).then(|| word(&pair[8..]) as f64)
            })
        })
        .unwrap_or(4096.0)
}

pub fn run(hygiene: &Hygiene, tracer: &mut Tracer) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut out = BTreeMap::new();
    let root = tracer.begin("probe", 0, 0);
    let root_id = root.id();

    // host: the fingerprint. Numbers from different fingerprints are
    // never compared.
    let span = tracer.begin("probe.host", root_id, 0);
    out.insert(
        "host.nproc",
        std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64),
    );
    out.insert("host.page_bytes", page_bytes());
    let src: Vec<u8> = (0..PROBE_BYTES).map(|i| ((i * 31) >> 3) as u8).collect();
    let mut dst = vec![0u8; PROBE_BYTES];
    let best = (0..5)
        .map(|_| {
            let started = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            started.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    out.insert("host.memcpy_gbps", gbps(PROBE_BYTES, best));
    drop(dst);
    tracer.end(span);

    let span = tracer.begin("probe.checksum", root_id, 0);
    let best = (0..3)
        .map(|_| {
            let started = Instant::now();
            black_box(sut::probe_crc32(black_box(&src)));
            started.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    out.insert("checksum.crc_gbps", gbps(PROBE_BYTES, best));
    tracer.end(span);

    let span = tracer.begin("probe.shmem", root_id, 0);
    let name = format!("/{}_probe", hygiene.prefix());
    let started = Instant::now();
    let mut seg = ShmProbe::create(&name, PROBE_BYTES)?;
    seg.bytes_mut().copy_from_slice(&src);
    out.insert(
        "shmem.first_touch_gbps",
        gbps(PROBE_BYTES, started.elapsed().as_secs_f64()),
    );
    drop(seg);
    let started = Instant::now();
    let seg = ShmProbe::open(&name)?;
    out.insert("shmem.open_map_ms", started.elapsed().as_secs_f64() * 1e3);
    if seg.bytes().len() != PROBE_BYTES || seg.bytes()[4097] != src[4097] {
        return Err("shared-memory probe read back something else".to_owned());
    }
    drop(seg);
    ShmProbe::unlink(&name)?;
    tracer.end(span);

    // restart::wal: 64 MiB of 100 KiB payloads.
    let span = tracer.begin("probe.wal", root_id, 0);
    let path = hygiene.dir().join("probe.wal");
    let payload = &src[..100 << 10];
    let records = PROBE_BYTES / payload.len();
    let mut wal = WalProbe::open(&path)?;
    let started = Instant::now();
    for _ in 0..records {
        wal.append(payload)?;
    }
    let append_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    wal.sync()?;
    out.insert("wal.sync_ms", started.elapsed().as_secs_f64() * 1e3);
    drop(wal);
    let started = Instant::now();
    let (read_records, read_bytes) = WalProbe::read(&path)?;
    let read_s = started.elapsed().as_secs_f64();
    if read_records != records || read_bytes != records * payload.len() {
        return Err("WAL probe read back something else".to_owned());
    }
    out.insert("wal.append_mbps", read_bytes as f64 / append_s / 1e6);
    out.insert("wal.read_mbps", read_bytes as f64 / read_s / 1e6);
    let _ = std::fs::remove_file(&path);
    tracer.end(span);
    drop(src);

    // columnstore: one full block of each shape.
    let span = tracer.begin("probe.columnstore", root_id, 0);
    let mut tables = Vec::new();
    let mut append_us = Vec::new();
    let mut seal_ms = Vec::new();
    for (shape, key) in [
        (
            Shape::Requests,
            "columnstore.encoded_bytes_per_row.requests",
        ),
        (Shape::Dense, "columnstore.encoded_bytes_per_row.dense"),
    ] {
        let rows = RowBatch::from_records(&Records::generate(shape, 7, 99, 0, BLOCK_ROWS));
        let mut table = TableProbe::new(shape.name());
        let started = Instant::now();
        table.append_all(&rows)?;
        append_us.push(started.elapsed().as_secs_f64() * 1e6 / BLOCK_ROWS as f64);
        let started = Instant::now();
        table.seal()?;
        seal_ms.push(started.elapsed().as_secs_f64() * 1e3);
        out.insert(key, table.encoded_bytes() as f64 / BLOCK_ROWS as f64);
        tables.push(table);
    }
    out.insert("columnstore.append_us_per_row", median(&append_us));
    out.insert("columnstore.seal_ms_per_block", median(&seal_ms));
    tracer.end(span);

    // query: planning alone, and the aggregator's merge of four partials.
    let span = tracer.begin("probe.query", root_id, 0);
    let q = QuerySpec::count("by_host", "requests", 0, i64::MAX)
        .group_by("host")
        .aggs(vec![Agg::Count, Agg::Sum("latency_ms".to_owned())]);
    let plan_us: Vec<f64> = (0..200)
        .map(|_| {
            let started = Instant::now();
            black_box(tables[0].plan(black_box(&q))).map(|_| started.elapsed().as_secs_f64() * 1e6)
        })
        .collect::<Result<_, _>>()?;
    out.insert("query.plan_us", median(&plan_us));
    let opts = LeafOpts::new(
        9,
        &format!("{}p", hygiene.prefix()),
        &hygiene.dir().join("probe-leaf"),
    );
    let mut leaf = Leaf::fresh(&opts)?;
    let records = Records::generate(Shape::Requests, 7, 98, 0, 20_000);
    leaf.add_rows("requests", &RowBatch::from_records(&records), gen::T0)?;
    let partial = || leaf.query_partial(&q);
    let partials = [partial()?, partial()?, partial()?, partial()?];
    let merge_us: Vec<f64> = (0..200)
        .map(|_| {
            let started = Instant::now();
            black_box(sut::merge(&q, black_box(&partials)));
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let merged = sut::merge(&q, &partials);
    let mut want = gen::oracle(&records, &q);
    for vs in want.groups.values_mut() {
        vs.iter_mut().for_each(|v| *v *= 4.0);
    }
    want.rows_matched *= 4;
    gen::check(&q, &merged, &want).map_err(|e| format!("merge probe: {e}"))?;
    out.insert("query.merge_us", median(&merge_us));
    drop(leaf);
    tracer.end(span);

    let span = tracer.begin("probe.cluster", root_id, 0);
    let queue = AdmissionProbe::new(&format!("{}:probe", hygiene.prefix()));
    const TRIPS: u64 = 20_000;
    let started = Instant::now();
    for i in 0..TRIPS {
        if !queue.roundtrip(black_box(i)) {
            return Err("admission probe lost an item".to_owned());
        }
    }
    out.insert(
        "cluster.admit_roundtrip_us",
        started.elapsed().as_secs_f64() * 1e6 / TRIPS as f64,
    );
    tracer.end(span);

    tracer.end(root);
    Ok(out)
}
