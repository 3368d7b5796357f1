//! Backward compatibility against **checked-in** pre-refactor images.
//!
//! `tests/fixtures/golden_v1_*.bin` hold the exact unit-stream bytes the
//! v1 (pre-TLV) writer produced for two fixed tables. Every future binary
//! must keep restoring those bytes through shared memory with query
//! results identical to a live server holding the same rows — the CI
//! `format-compat` gate. `tests/fixtures/golden_v2_*.bin` pins the current
//! writer: the shutdown backup and the checkpointer must both reproduce it.
//! `tests/fixtures/golden_v3_*.bin` pins it on a table whose integer
//! columns take the random-access forms — one frame-of-reference column,
//! one integer dictionary — and must restore to the same answers.
//!
//! Regenerate after an *intentional* fixture change with
//! `SCUBA_REGEN_FIXTURES=1 cargo test --test format_compat`.

use scuba::columnstore::encoding::CompressionCode;
use scuba::columnstore::{Row, RowBlock, Table, Value};
use scuba::diskstore::{ColdMap, ColdStore};
use scuba::leaf::{
    compat, Checkpointer, ImageJob, LeafConfig, LeafServer, LeafStore, RecoveryOutcome,
    RestoreMode, TieringMode,
};
use scuba::query::{AggSpec, CmpOp, Filter, Query};
use scuba::restart::migrate::CURRENT_IMAGE_MIN_READER;
use scuba::restart::{backup_to_shm, SHM_LAYOUT_VERSION};
use scuba::shmem::{LeafMetadata, SegmentWriter, ShmNamespace, ShmSegment};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

static COUNTER: AtomicU32 = AtomicU32::new(0);

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures")
}

/// The fixture tables' names, in segment-index order.
const FIXTURE_TABLES: &[&str] = &["golden_events", "golden_metrics"];

const FIXTURE_EPOCH: i64 = 1_700_000_000;

/// Deterministic rows for one fixture table. Mixed types (int, string,
/// double), a dictionary-friendly low-cardinality column, and a sparse
/// column that is Null on most rows.
fn fixture_rows(salt: i64) -> Vec<Row> {
    (0..600)
        .map(|i| {
            let severity = ["info", "warn", "error"][(i % 3) as usize];
            let mut row = Row::at(FIXTURE_EPOCH + i)
                .with("severity", severity)
                .with("code", salt * 100 + i % 17)
                .with("latency_ms", (i as f64) * 0.5 + salt as f64);
            if i % 5 == 0 {
                row = row.with("trace_id", format!("trace-{salt}-{i}"));
            }
            row
        })
        .collect()
}

/// Build the fixture tables exactly as the pre-refactor writer held them:
/// fixed rows, sealed at a fixed timestamp.
fn fixture_tables() -> Vec<Table> {
    FIXTURE_TABLES
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let salt = i as i64 + 1;
            let mut t = Table::new(*name, FIXTURE_EPOCH);
            for row in fixture_rows(salt) {
                t.append(&row, FIXTURE_EPOCH).unwrap();
            }
            t.seal(FIXTURE_EPOCH + 600).unwrap();
            t
        })
        .collect()
}

fn fixture_path(table: &str) -> PathBuf {
    fixtures_dir().join(format!("golden_v1_{table}.bin"))
}

/// One query's result: label, rows matched, sorted (group key, finished
/// aggregate values) pairs.
type QueryResult = (String, u64, Vec<(String, Vec<Value>)>);

/// The query battery whose results must be byte-identical between a live
/// server and one restored from the golden image.
fn fingerprint(server: &LeafServer) -> Vec<QueryResult> {
    let mut out = Vec::new();
    let (from, to) = (FIXTURE_EPOCH - 1, FIXTURE_EPOCH + 601);
    for &table in FIXTURE_TABLES {
        for (label, q) in [
            (
                "count",
                Query::new(table, from, to).aggregates(vec![AggSpec::Count]),
            ),
            (
                "errors-by-latency",
                Query::new(table, from, to)
                    .filter(Filter::new("severity", CmpOp::Eq, "error"))
                    .aggregates(vec![
                        AggSpec::Count,
                        AggSpec::Avg("latency_ms".into()),
                        AggSpec::Max("code".into()),
                    ]),
            ),
            (
                "grouped",
                Query::new(table, from, to)
                    .group_by("severity")
                    .aggregates(vec![AggSpec::Count, AggSpec::Sum("code".into())]),
            ),
            (
                "sparse",
                Query::new(table, from, to)
                    .filter(Filter::new("trace_id", CmpOp::Eq, "trace-1-100"))
                    .aggregates(vec![AggSpec::Count]),
            ),
        ] {
            let r = server.query(&q).unwrap();
            let mut groups: Vec<(String, Vec<Value>)> = r
                .groups
                .iter()
                .map(|(k, sts)| (format!("{k}"), sts.iter().map(|s| s.finish()).collect()))
                .collect();
            groups.sort_by(|a, b| a.0.cmp(&b.0));
            out.push((format!("{table}/{label}"), r.rows_matched, groups));
        }
    }
    out
}

fn config(tag: &str) -> (LeafConfig, Guard) {
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    let prefix = format!("gold{}{}", tag, std::process::id());
    let dir = std::env::temp_dir().join(format!("scuba_gold_{tag}_{}_{id}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = LeafConfig::new(id, &prefix, &dir);
    let ns = ShmNamespace::new(&prefix, id).unwrap();
    (cfg, Guard { ns, dir })
}

struct Guard {
    ns: ShmNamespace,
    dir: PathBuf,
}

impl Drop for Guard {
    fn drop(&mut self) {
        self.ns.unlink_all(8);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn golden_v1_fixtures_are_stable() {
    // The current code, asked to serialize the fixture tables the v1 way,
    // must reproduce the checked-in bytes exactly. Fails on any
    // unintentional change to row-block encoding, CRC, or v1 framing.
    for table in fixture_tables() {
        let path = fixture_path(table.name());
        let bytes = compat::v1_unit_stream(&table);
        if std::env::var_os("SCUBA_REGEN_FIXTURES").is_some() {
            std::fs::create_dir_all(fixtures_dir()).unwrap();
            std::fs::write(&path, &bytes).unwrap();
            continue;
        }
        let golden = std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "missing fixture {} ({e}); regenerate with SCUBA_REGEN_FIXTURES=1",
                path.display()
            )
        });
        assert_eq!(
            bytes,
            golden,
            "{}: regenerated v1 stream diverges from the checked-in fixture",
            table.name()
        );
    }
}

#[test]
fn golden_v1_image_restores_byte_identical() {
    if std::env::var_os("SCUBA_REGEN_FIXTURES").is_some() {
        return; // fixtures are being rewritten by the sibling test
    }
    // Reference: a live server holding the fixture rows.
    let (ref_cfg, _rg) = config("ref");
    let mut reference = LeafServer::new(ref_cfg).unwrap();
    for (i, table) in FIXTURE_TABLES.iter().enumerate() {
        reference
            .add_rows(table, &fixture_rows(i as i64 + 1), FIXTURE_EPOCH)
            .unwrap();
    }
    let expected = fingerprint(&reference);
    assert!(expected.iter().any(|(_, n, _)| *n > 0));

    // Under test: the checked-in image bytes, through both restore modes.
    let streams: Vec<Vec<u8>> = FIXTURE_TABLES
        .iter()
        .map(|t| std::fs::read(fixture_path(t)).expect("fixture present"))
        .collect();
    for (mode, tag) in [(RestoreMode::Full, "full"), (RestoreMode::TwoPhase, "two")] {
        let (mut cfg, g) = config(tag);
        cfg.restore_mode = mode;
        compat::install_legacy_v1_image_raw(&g.ns, &streams).unwrap();

        let (server, outcome) = LeafServer::start(cfg, FIXTURE_EPOCH + 601, None).unwrap();
        assert!(outcome.is_memory(), "{tag}: {outcome:?}");
        match &outcome {
            RecoveryOutcome::Memory(r) => assert!(r.skipped.is_empty(), "{tag}"),
            RecoveryOutcome::MemoryAttached(r) => assert!(r.skipped.is_empty(), "{tag}"),
            other => panic!("{tag}: {other:?}"),
        }
        assert_eq!(fingerprint(&server), expected, "{tag}");
    }
}

/// The golden v2 table: the first fixture table's rows, sealed as two
/// blocks, each with a zone map. No cold block: a cold ref carries an
/// absolute path, which no checked-in fixture can hold.
fn golden_v2_table() -> Table {
    let mut t = Table::new("golden_blocks", FIXTURE_EPOCH);
    for (i, row) in fixture_rows(1).iter().enumerate() {
        if i == 300 {
            t.seal(FIXTURE_EPOCH + 300).unwrap();
        }
        t.append(row, FIXTURE_EPOCH).unwrap();
    }
    t.seal(FIXTURE_EPOCH + 600).unwrap();
    assert_eq!(t.blocks().len(), 2);
    assert!(t.blocks().iter().all(|b| b.zones().is_some()));
    t
}

/// The unit stream (name frame through END) the checkpointer writes for
/// `store`, then the one the shutdown backup writes — in that order,
/// because the backup empties the store.
fn checkpoint_and_backup_streams(store: &mut LeafStore, tag: &str) -> (Vec<u8>, Vec<u8>) {
    let (_, ck_guard) = config(&format!("{tag}c"));
    let mut ck = Checkpointer::new(ck_guard.ns.clone());
    assert!(ck.request(ImageJob::snapshot(store), 1));
    ck.wait_done().unwrap().result.unwrap();
    let checkpoint = ShmSegment::open(&ck_guard.ns.table_segment_name(0))
        .unwrap()
        .as_slice()
        .to_vec();
    drop(ck);

    let (_, bk_guard) = config(&format!("{tag}b"));
    backup_to_shm(
        &mut ImageJob::drain(store),
        &bk_guard.ns,
        SHM_LAYOUT_VERSION,
    )
    .unwrap();
    let backup = ShmSegment::open(&bk_guard.ns.table_segment_name(0))
        .unwrap()
        .as_slice()
        .to_vec();
    (checkpoint, backup)
}

fn golden_v2_path() -> PathBuf {
    fixtures_dir().join("golden_v2_golden_blocks.bin")
}

#[test]
fn golden_v2_backup_and_checkpoint_write_the_fixture_bytes() {
    // The one writer's bytes, pinned: the shutdown backup and a full
    // checkpoint of the same sealed table both produce exactly the
    // checked-in unit stream.
    let mut store = LeafStore::new();
    store.map_mut().insert(golden_v2_table());
    let (checkpoint, backup) = checkpoint_and_backup_streams(&mut store, "v2");
    if std::env::var_os("SCUBA_REGEN_FIXTURES").is_some() {
        std::fs::create_dir_all(fixtures_dir()).unwrap();
        std::fs::write(golden_v2_path(), &backup).unwrap();
    }
    let golden = std::fs::read(golden_v2_path()).unwrap_or_else(|e| {
        panic!("missing fixture ({e}); regenerate with SCUBA_REGEN_FIXTURES=1")
    });
    assert_eq!(backup, golden, "shutdown backup diverges from the fixture");
    assert_eq!(checkpoint, golden, "checkpoint diverges from the fixture");
}

#[test]
fn backup_and_checkpoint_agree_on_a_demoted_block() {
    let (_, g) = config("v2cold");
    let mut table = golden_v2_table();
    let cold = ColdStore::open(g.dir.join("cold")).unwrap();
    let old = Arc::clone(&table.blocks()[0]);
    let cold_ref = cold.append_block(table.name(), &old, None).unwrap();
    let backing: Arc<dyn AsRef<[u8]> + Send + Sync> =
        Arc::new(ColdMap::open(&cold_ref.path).unwrap());
    let (block, _) = RowBlock::deserialize_mapped(&backing, cold_ref.offset as usize).unwrap();
    let demoted = block
        .with_zones(old.zones().cloned())
        .with_cold_ref(Some(cold_ref));
    assert!(table.apply_block_patch(&old, Arc::new(demoted)));

    let mut store = LeafStore::new();
    store.map_mut().insert(table);
    let (checkpoint, backup) = checkpoint_and_backup_streams(&mut store, "v2d");
    assert_eq!(checkpoint, backup);
}

/// The golden v3 table's rows: `status` (four values: an integer
/// dictionary), `latency_us` (scattered over a thousand values: a frame
/// of reference), `seq` (a delta chain) and an `endpoint` string.
fn golden_v3_rows() -> Vec<Row> {
    (0..600i64)
        .map(|i| {
            Row::at(FIXTURE_EPOCH + i)
                .with("status", [200i64, 200, 200, 404, 500][(i * 7 % 5) as usize])
                .with("latency_us", 50 + (i * 7919) % 1000)
                .with("seq", i)
                .with("endpoint", ["/feed", "/search", "/ads"][(i % 3) as usize])
        })
        .collect()
}

/// The golden v3 table: [`golden_v3_rows`] sealed as two blocks.
fn golden_v3_table() -> Table {
    let mut t = Table::new("golden_ints", FIXTURE_EPOCH);
    for (i, row) in golden_v3_rows().iter().enumerate() {
        if i == 300 {
            t.seal(FIXTURE_EPOCH + 300).unwrap();
        }
        t.append(row, FIXTURE_EPOCH).unwrap();
    }
    t.seal(FIXTURE_EPOCH + 600).unwrap();
    for block in t.blocks() {
        let code = |c: &str| block.column(c).unwrap().compression().unwrap();
        assert!(code("status").has(CompressionCode::DICTIONARY));
        assert!(code("latency_us").has(CompressionCode::FOR));
        assert!(code("seq").has(CompressionCode::DELTA));
    }
    t
}

fn golden_v3_path() -> PathBuf {
    fixtures_dir().join("golden_v3_golden_ints.bin")
}

/// Queries over every integer form of the golden v3 table.
fn golden_v3_fingerprint(server: &LeafServer) -> Vec<QueryResult> {
    let all = || Query::new("golden_ints", FIXTURE_EPOCH - 1, FIXTURE_EPOCH + 601);
    let mut out = Vec::new();
    for (label, q) in [
        (
            "status-500",
            all()
                .filter(Filter::new("status", CmpOp::Eq, 500i64))
                .aggregates(vec![AggSpec::Count, AggSpec::Avg("latency_us".into())]),
        ),
        (
            "by-status",
            all().group_by("status").aggregates(vec![
                AggSpec::Count,
                AggSpec::Sum("latency_us".into()),
                AggSpec::Max("seq".into()),
            ]),
        ),
        (
            "slow",
            all()
                .filter(Filter::new("latency_us", CmpOp::Ge, 800.5f64))
                .group_by("endpoint")
                .aggregates(vec![
                    AggSpec::Count,
                    AggSpec::p99("latency_us"),
                    AggSpec::CountDistinct("status".into()),
                ]),
        ),
    ] {
        let r = server.query(&q).unwrap();
        let mut groups: Vec<(String, Vec<Value>)> = r
            .groups
            .iter()
            .map(|(k, sts)| (format!("{k}"), sts.iter().map(|s| s.finish()).collect()))
            .collect();
        groups.sort_by(|a, b| a.0.cmp(&b.0));
        out.push((label.to_owned(), r.rows_matched, groups));
    }
    out
}

#[test]
fn golden_v3_backup_and_checkpoint_write_the_fixture_bytes() {
    let mut store = LeafStore::new();
    store.map_mut().insert(golden_v3_table());
    let (checkpoint, backup) = checkpoint_and_backup_streams(&mut store, "v3");
    if std::env::var_os("SCUBA_REGEN_FIXTURES").is_some() {
        std::fs::create_dir_all(fixtures_dir()).unwrap();
        std::fs::write(golden_v3_path(), &backup).unwrap();
    }
    let golden = std::fs::read(golden_v3_path()).unwrap_or_else(|e| {
        panic!("missing fixture ({e}); regenerate with SCUBA_REGEN_FIXTURES=1")
    });
    assert_eq!(backup, golden, "shutdown backup diverges from the fixture");
    assert_eq!(checkpoint, golden, "checkpoint diverges from the fixture");
}

#[test]
fn golden_v3_image_restores_and_answers_identically() {
    if std::env::var_os("SCUBA_REGEN_FIXTURES").is_some() {
        return; // the fixture is being rewritten by the sibling test
    }
    let (ref_cfg, _rg) = config("v3ref");
    let mut reference = LeafServer::new(ref_cfg).unwrap();
    reference
        .add_rows("golden_ints", &golden_v3_rows(), FIXTURE_EPOCH)
        .unwrap();
    let expected = golden_v3_fingerprint(&reference);
    assert!(expected.iter().all(|(_, n, _)| *n > 0));

    // The checked-in unit stream, installed verbatim as a committed image
    // of the current layout, through both restore modes.
    let stream = std::fs::read(golden_v3_path()).expect("fixture present");
    for (mode, tag) in [
        (RestoreMode::Full, "v3full"),
        (RestoreMode::TwoPhase, "v3two"),
    ] {
        let (mut cfg, g) = config(tag);
        cfg.restore_mode = mode;
        let name = g.ns.table_segment_name(0);
        let mut meta =
            LeafMetadata::create(&g.ns, SHM_LAYOUT_VERSION, CURRENT_IMAGE_MIN_READER).unwrap();
        let mut seg = ShmSegment::create(&name, 0).unwrap();
        let mut w = SegmentWriter::new(&mut seg);
        w.write(&stream).unwrap();
        w.finish().unwrap();
        drop(seg);
        meta.add_segment_invalidating(&name, 1, 0).unwrap();
        meta.set_valid(true).unwrap();
        drop(meta);

        let (server, outcome) = LeafServer::start(cfg, FIXTURE_EPOCH + 601, None).unwrap();
        assert!(outcome.is_memory(), "{tag}: {outcome:?}");
        assert_eq!(golden_v3_fingerprint(&server), expected, "{tag}");
    }
}

fn cold_fixture_path(table: &str) -> PathBuf {
    fixtures_dir().join(format!("golden_fastformat_{table}.cold"))
}

#[test]
fn golden_fastformat_fixtures_are_stable() {
    // The §6 disk fast-format: demoting the fixture tables' sealed blocks
    // must reproduce the checked-in `.cold` bytes exactly. Fails on any
    // unintentional change to block serialization, the TLV cold-frame
    // header, or its CRC.
    let dir = std::env::temp_dir().join(format!("scuba_goldcold_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ColdStore::open(&dir).unwrap();
    for table in fixture_tables() {
        for block in table.blocks() {
            store.append_block(table.name(), block, None).unwrap();
        }
        let bytes = std::fs::read(store.path(table.name()).unwrap()).unwrap();
        let path = cold_fixture_path(table.name());
        if std::env::var_os("SCUBA_REGEN_FIXTURES").is_some() {
            std::fs::create_dir_all(fixtures_dir()).unwrap();
            std::fs::write(&path, &bytes).unwrap();
            continue;
        }
        let golden = std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "missing fixture {} ({e}); regenerate with SCUBA_REGEN_FIXTURES=1",
                path.display()
            )
        });
        assert_eq!(
            bytes,
            golden,
            "{}: regenerated fast-format stream diverges from the checked-in fixture",
            table.name()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn golden_fastformat_cold_blocks_query_byte_identical() {
    if std::env::var_os("SCUBA_REGEN_FIXTURES").is_some() {
        return; // fixtures are being rewritten by the sibling test
    }
    // Reference: a live untiered server holding the fixture rows.
    let (ref_cfg, _rg) = config("cref");
    let mut reference = LeafServer::new(ref_cfg).unwrap();
    for (i, table) in FIXTURE_TABLES.iter().enumerate() {
        reference
            .add_rows(table, &fixture_rows(i as i64 + 1), FIXTURE_EPOCH)
            .unwrap();
    }
    let expected = fingerprint(&reference);

    // Under test: a tiered server under a 1-byte budget, so every fixture
    // block demotes to the disk fast-format and queries scan it cold.
    let (mut cfg, g) = config("cold");
    cfg.tiering = TieringMode::Sieve;
    cfg.memory_budget_bytes = 1;
    let mut tiered = LeafServer::new(cfg).unwrap();
    for (i, table) in FIXTURE_TABLES.iter().enumerate() {
        tiered
            .add_rows(table, &fixture_rows(i as i64 + 1), FIXTURE_EPOCH)
            .unwrap();
    }
    tiered.poll_tiering().unwrap();
    assert_eq!(
        tiered.cold_blocks(),
        FIXTURE_TABLES.len(),
        "every fixture block must demote under a 1-byte budget"
    );
    assert_eq!(fingerprint(&tiered), expected);

    // The cold files the leaf produced are byte-identical to the
    // checked-in fixtures: the live demotion path and the golden
    // generator agree on every frame.
    for table in FIXTURE_TABLES {
        let live = std::fs::read(g.dir.join("cold").join(format!("{table}.cold"))).unwrap();
        let golden = std::fs::read(cold_fixture_path(table)).unwrap();
        assert_eq!(
            live, golden,
            "{table}: leaf cold file diverges from fixture"
        );
    }
}
