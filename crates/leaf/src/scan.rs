//! The leaf's query path: plan once, then scan the plan's row blocks as
//! the copy pool's jobs ([`fan_out_in_order`]) and merge their partials
//! in block order as they come back.
//!
//! A row block is the unit of a leaf query, as a unit is of the copy
//! pool's other callers (copy-out, copy-back restore, WAL replay): each
//! job runs its block's first-touch checks ([`LeafServer::touch_mapped`],
//! the residency manager's cold touch) and then
//! [`scuba_query::scan_block`]. The plan borrows each table's open block,
//! which the scan reads where it lies: the query holds `&self`, so no
//! batch can append to it meanwhile. The partials merge in block order
//! ([`PartialMerge`]), so an answer — f64 bits, pruning counters and
//! [`ScanCounts`] included — is the same at every width, and a failing
//! query reports the lowest failing block's error, as the inline case
//! would. A partial is merged as soon as every earlier block's is, and the
//! pool runs only a few blocks ahead of the lowest unmerged one, so a
//! query holds a few blocks' groups at a time, not one per planned block.

use std::time::Instant;

use scuba_query::{scan_block, LeafQueryResult, PartialMerge, PlannedBlock, Query, ScanCounts};
use scuba_restart::{fan_out_in_order, resolve_copy_threads_pinned};

use crate::config::TieringMode;
use crate::error::{LeafError, LeafResult};
use crate::server::LeafServer;

/// Fewest blocks a scan worker is given: below this, a thread's start and
/// handoff cost more than the blocks it would scan.
const MIN_BLOCKS_PER_SCAN_WORKER: usize = 2;

/// Workers for a query that scans `blocks` blocks, given the copy pool's
/// resolved width `threads`: shrunk until each worker gets
/// [`MIN_BLOCKS_PER_SCAN_WORKER`] blocks, so a plan of fewer than twice
/// that runs inline. A `SCUBA_COPY_THREADS` pin (`pinned`) bypasses that
/// clamp, as it does the copy pool's bytes-per-worker one; no width
/// exceeds the block count.
pub(crate) fn scan_workers(threads: usize, pinned: bool, blocks: usize) -> usize {
    let per_worker = if pinned {
        1
    } else {
        MIN_BLOCKS_PER_SCAN_WORKER
    };
    threads.min(blocks / per_worker).max(1)
}

/// Nanoseconds since `at`, saturated.
fn elapsed_ns(at: Instant) -> u64 {
    at.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

impl LeafServer {
    /// Execute a query against this leaf's fraction of the table, on the
    /// vectorized scan path (in-place over mapped blocks — no hydration
    /// forced). Each planned block is one job of [`fan_out_in_order`]: its
    /// first-touch checks, then its scan into a [`BlockPartial`]; the
    /// partials merge in block order, so the answer is the same at any
    /// width: the copy pool's, at least two blocks per worker. First touch
    /// CRC-verifies, in a mapped or cold block, the columns the query
    /// reads. A verification failure fails the query — with the lowest
    /// failing block's error — and condemns the attach (or the cold table)
    /// at the next poll.
    pub fn query(&self, query: &Query) -> LeafResult<LeafQueryResult> {
        self.query_at(query, None).map(|(result, _)| result)
    }

    /// [`Self::query`] at `width` workers (`None`: [`scan_workers`] of
    /// the configured copy pool), also returning what the scan read.
    pub(crate) fn query_at(
        &self,
        query: &Query,
        width: Option<usize>,
    ) -> LeafResult<(LeafQueryResult, ScanCounts)> {
        let latency = scuba_obs::Stopwatch::start();
        if !self.phase().accepts_queries() {
            return Err(self.unavailable("query"));
        }
        let Some(t) = self.store.map().get(&query.table) else {
            return Ok((LeafQueryResult::empty(), ScanCounts::default()));
        };
        // Every block's first touch must see the very block its scan reads.
        let plan = scuba_query::plan_scan(t, query).map_err(|e| LeafError::Query(e.to_string()))?;
        if let Some(reason) = self
            .mapped_poison
            .lock()
            .expect("no thread panics holding the poison")
            .clone()
        {
            return Err(LeafError::Query(format!("mapped scan condemned: {reason}")));
        }
        let columns = query.columns_read();
        let blocks = &plan.blocks;
        let workers = width.unwrap_or_else(|| {
            let (threads, pinned) = resolve_copy_threads_pinned(self.config.copy_threads);
            scan_workers(threads, pinned, blocks.len())
        });
        let timed = scuba_obs::enabled();
        let mut merge = PartialMerge::new(&plan);
        let mut verify_ns = 0u64;
        let scan = Instant::now();
        fan_out_in_order(
            workers,
            |i| (i < blocks.len()).then_some(Ok(i)),
            |i| {
                let touch = timed.then(Instant::now);
                self.first_touch(&query.table, &blocks[i], &columns)?;
                let verify = touch.map_or(0, elapsed_ns);
                Ok((scan_block(&blocks[i], query, &columns)?, verify))
            },
            |_| {},
            |(partial, verify)| {
                merge.push(partial);
                verify_ns += verify;
                Ok::<_, LeafError>(())
            },
        )?;
        let (result, counts) = merge.finish();
        if timed {
            scuba_obs::histogram!("query_scan_ns").observe(elapsed_ns(scan));
            scuba_obs::histogram!("query_scan_workers").observe(workers as u64);
            scuba_obs::histogram!("query_verify_ns").observe(verify_ns);
            scuba_obs::counter!("query_rows_scanned_total").add(result.rows_scanned);
            scuba_obs::counter!("query_values_decoded_total").add(counts.values_decoded);
            scuba_obs::counter!("query_values_gathered_total").add(counts.values_gathered);
            scuba_obs::counter!("query_blocks_zonemap_pruned_total")
                .add(result.blocks_zonemap_pruned);
            scuba_obs::histogram!("leaf_query_latency_ns").observe(latency.elapsed_ns());
        }
        Ok((result, counts))
    }

    /// A query is about to scan `block`: its first-touch checks. A mapped
    /// block verifies the columns the query reads ([`Self::touch_mapped`]);
    /// under tiering, a cold block does too and counts the touch toward
    /// promotion, and any other sealed block gets its SIEVE visited bit.
    /// The open block has none of these: nothing mapped, nothing cold, no
    /// SIEVE entry. A cold failure poisons its table, acted on at the next
    /// tiering poll.
    fn first_touch(
        &self,
        table: &str,
        block: &PlannedBlock<'_>,
        columns: &[&str],
    ) -> LeafResult<()> {
        let Some(block) = block.sealed() else {
            return Ok(());
        };
        self.touch_mapped(block, columns)
            .map_err(|reason| LeafError::Query(format!("mapped scan condemned: {reason}")))?;
        if self.config.tiering == TieringMode::Sieve {
            if block.is_cold() {
                self.residency
                    .touch_cold(table, block, columns)
                    .map_err(|reason| LeafError::Query(format!("cold scan condemned: {reason}")))?;
            } else {
                self.residency.record_touch(block);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RestoreMode;
    use crate::residency::Residency;
    use crate::server::RecoveryOutcome;
    use crate::testkit::*;
    use scuba_columnstore::{
        ColumnData, ColumnType, Row, RowBlock, RowBlockColumn, RowBlockHeader, Schema, Table,
        TIME_COLUMN,
    };
    use scuba_query::{AggSpec, AggState, CmpOp, Filter};
    use std::sync::Arc;

    /// Explicit widths, so the tests hold whatever `SCUBA_COPY_THREADS`
    /// says.
    const WIDTHS: [usize; 4] = [1, 2, 3, 8];

    #[test]
    fn scan_width_gives_each_worker_two_blocks_unless_pinned() {
        // Fewer than four blocks run inline, whatever the pool.
        for threads in [1, 2, 4, 64] {
            for blocks in 0..4 {
                assert_eq!(
                    scan_workers(threads, false, blocks),
                    1,
                    "{threads}/{blocks}"
                );
            }
        }
        assert_eq!(scan_workers(2, false, 4), 2);
        assert_eq!(scan_workers(2, false, 100), 2);
        assert_eq!(scan_workers(4, false, 7), 3);
        assert_eq!(scan_workers(1, false, 100), 1);
        // A pin bypasses the clamp, down to one block per worker.
        assert_eq!(scan_workers(8, true, 3), 3);
        assert_eq!(scan_workers(8, true, 20), 8);
        assert_eq!(scan_workers(8, true, 1), 1);
        assert_eq!(scan_workers(8, true, 0), 1);
    }

    const BATCH: i64 = 200;

    /// Rows `first..first + n` at times `first..`: an int `n`, a `status`
    /// of two values, a `host` dictionary with nulls, a double `x` whose
    /// sums round differently in another order, and a double `lat` that
    /// is `x` with NaNs and negatives mixed in.
    fn rows(first: i64, n: i64) -> Vec<Row> {
        (first..first + n)
            .map(|i| {
                let x = i as f64 * 0.1 + 1e-7 * (i % 13) as f64;
                let lat = match i % 11 {
                    0 => f64::NAN,
                    1 => -(i as f64) * 0.37,
                    _ => x,
                };
                let status = if i % 3 == 0 { 500i64 } else { 200 };
                let mut row = Row::at(i)
                    .with("n", i)
                    .with("status", status)
                    .with("x", x)
                    .with("lat", lat);
                if i % 9 != 0 {
                    row.set("host", format!("h{}", i % 7));
                }
                row
            })
            .collect()
    }

    /// Append batch `b` of table `t` and seal it into a block of its own.
    fn sealed_batch(s: &mut LeafServer, b: i64) {
        s.add_rows("t", &rows(b * BATCH, BATCH), 0).unwrap();
        s.store.seal_all(0).unwrap();
    }

    /// A sealed block of no rows whose header says `time`.
    fn empty_block(time: i64) -> RowBlock {
        let mut schema = Schema::new();
        schema.add_column(TIME_COLUMN, ColumnType::Int64).unwrap();
        let header = RowBlockHeader {
            size_bytes: 0,
            row_count: 0,
            min_time: time,
            max_time: time,
            created_at: 0,
        };
        let time = RowBlockColumn::encode(&ColumnData::new(ColumnType::Int64)).unwrap();
        RowBlock::from_parts(header, schema, vec![time]).unwrap()
    }

    /// A leaf whose table `t` holds, in time order: three cold blocks,
    /// three blocks of a kept planned image, three heap blocks with a
    /// 0-row block before the last, and unsealed rows (the plan's
    /// snapshot block).
    fn leaf_of_every_block_kind(tag: &str) -> (LeafServer, Cleanup) {
        let (mut cfg, dir) = tiered_config(tag, 0);
        cfg.restore_mode = RestoreMode::TwoPhase;
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let cleanup = Cleanup(s.namespace().clone(), dir);
        for b in 0..3 {
            sealed_batch(&mut s, b);
        }
        // A budget of one byte demotes every sealed block.
        s.config.memory_budget_bytes = 1;
        s.poll_tiering().unwrap();
        s.config.memory_budget_bytes = 0;
        for b in 3..6 {
            sealed_batch(&mut s, b);
        }
        s.shutdown_to_shm(0).unwrap();
        drop(s);
        let (mut s, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(
            matches!(outcome, RecoveryOutcome::MemoryAttached(_)),
            "{outcome:?}"
        );
        for b in 6..9 {
            sealed_batch(&mut s, b);
        }
        let mut blocks = s.store.map().get("t").unwrap().blocks().to_vec();
        blocks.insert(8, Arc::new(empty_block(8 * BATCH - 1)));
        s.store.map_mut().insert(Table::from_blocks("t", blocks, 0));
        s.add_rows("t", &rows(9 * BATCH, 50), 0).unwrap();

        let t = s.store.map().get("t").unwrap();
        let kinds: Vec<(Residency, usize)> = t
            .blocks()
            .iter()
            .map(|b| (Residency::of(b), b.row_count()))
            .collect();
        let of = |r: Residency| kinds.iter().filter(|(k, _)| *k == r).count();
        assert_eq!(
            (of(Residency::Cold), of(Residency::Warm), of(Residency::Hot)),
            (3, 3, 4),
            "{kinds:?}"
        );
        assert_eq!(kinds[8], (Residency::Hot, 0));
        assert_eq!(t.unsealed_rows(), 50);
        (s, cleanup)
    }

    /// Everything a scan returns, f64 bit patterns included (`==` on
    /// results would fail a NaN sum against itself).
    fn exact(result: &LeafQueryResult, counts: &ScanCounts) -> (String, Vec<u64>) {
        let bits = result
            .groups
            .values()
            .flatten()
            .filter_map(|s| match s {
                AggState::Sum(v) | AggState::Avg { sum: v, .. } => Some(v.to_bits()),
                AggState::Min(v) | AggState::Max(v) => v.map(f64::to_bits),
                _ => None,
            })
            .collect();
        (format!("{result:?} {counts:?}"), bits)
    }

    #[test]
    fn an_answer_is_the_same_at_every_width() {
        let _x = scuba_faults::exclusive();
        let (s, _c) = leaf_of_every_block_kind("scanwidth");
        let all = Query::new("t", i64::MIN, i64::MAX);
        let lat = || "lat".to_owned();
        let queries = [
            all.clone(),
            all.clone().group_by("host").aggregates(vec![
                AggSpec::Count,
                AggSpec::Sum("x".into()),
                AggSpec::Sum(lat()),
                AggSpec::Avg(lat()),
                AggSpec::Min(lat()),
                AggSpec::Max(lat()),
            ]),
            Query::new("t", 450, 1250)
                .bucket_secs(128)
                .group_by("status")
                .aggregates(vec![
                    AggSpec::p99("lat"),
                    AggSpec::CountDistinct("host".into()),
                    AggSpec::Sum("n".into()),
                    AggSpec::Avg("x".into()),
                ]),
            all.clone()
                .filter(Filter::new("lat", CmpOp::Lt, 0.0f64))
                .aggregates(vec![AggSpec::p50("lat"), AggSpec::Sum(lat())]),
            all.clone()
                .filter(Filter::new("n", CmpOp::Ge, 1500i64))
                .group_by("host")
                .aggregates(vec![AggSpec::CountDistinct(lat()), AggSpec::Avg(lat())]),
        ];
        for q in &queries {
            let (result, counts) = s.query_at(q, Some(1)).unwrap();
            let want = exact(&result, &counts);
            for width in WIDTHS {
                let (r, c) = s.query_at(q, Some(width)).unwrap();
                assert_eq!(exact(&r, &c), want, "{q:?} at width {width}");
            }
            assert_eq!(exact(&s.query(q).unwrap(), &counts), want, "{q:?}");
        }
        // The fixture exercised what it is meant to: every block kind
        // scanned, NaN sums, and both kinds of pruning.
        let (r, _) = s.query_at(&queries[0], Some(8)).unwrap();
        assert_eq!((r.blocks_scanned, r.rows_matched), (11, 9 * 200 + 50));
        let (r, _) = s.query_at(&queries[1], Some(8)).unwrap();
        assert!(r
            .groups
            .values()
            .any(|g| g[2].finish().as_double().unwrap().is_nan()));
        assert_eq!(s.query_at(&queries[2], Some(8)).unwrap().0.blocks_pruned, 5);
        assert_eq!(
            s.query_at(&queries[4], Some(8))
                .unwrap()
                .0
                .blocks_zonemap_pruned,
            8
        );
    }

    /// A kept planned image of table `t`, five blocks, whose `lat` column
    /// has one byte flipped in each block of `bad`: the column's encoded
    /// bytes are found in the shut-down segment before the successor
    /// attaches it, and only the deferred payload CRC can tell.
    fn kept_leaf_with_corrupt_lat(tag: &str, bad: &[usize]) -> (LeafServer, Cleanup) {
        let (mut cfg, dir) = test_config(tag);
        cfg.restore_mode = RestoreMode::TwoPhase;
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let cleanup = Cleanup(s.namespace().clone(), dir);
        for b in 0..5 {
            sealed_batch(&mut s, b);
        }
        let blocks = s.store.map().get("t").unwrap().blocks().to_vec();
        let summary = s.shutdown_to_shm(0).unwrap();
        drop(s);
        let mut seg = scuba_shmem::ShmSegment::open(&summary.backup.segment_names[0]).unwrap();
        let buf = seg.as_mut_slice();
        for &i in bad {
            let rbc = blocks[i].column("lat").unwrap().as_bytes();
            let at = buf
                .windows(rbc.len())
                .position(|w| w == rbc)
                .expect("the column's bytes are in the image");
            let data_off = u64::from_le_bytes(rbc[48..56].try_into().unwrap()) as usize;
            let footer_off = u64::from_le_bytes(rbc[56..64].try_into().unwrap()) as usize;
            buf[at + (data_off + footer_off) / 2] ^= 0xFF;
        }
        drop(seg);
        let (s, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(
            matches!(outcome, RecoveryOutcome::MemoryAttached(_)),
            "{outcome:?}"
        );
        (s, cleanup)
    }

    /// A corrupt mapped block fails the query at every width with width
    /// 1's error — the lowest failing block's — and no answer; the poison
    /// fails the next query at its start and turns into the disk fallback
    /// at the next poll.
    #[test]
    fn a_corrupt_mapped_block_fails_the_query_alike_at_every_width() {
        let _x = scuba_faults::exclusive();
        let q = Query::new("t", 0, i64::MAX).aggregates(vec![AggSpec::Sum("lat".into())]);
        let mut errors = Vec::new();
        for bad in [&[0][..], &[2], &[4], &[2, 4]] {
            let mut at_width_1 = None;
            for width in WIDTHS {
                let (mut s, _c) = kept_leaf_with_corrupt_lat("scancrc", bad);
                let err = s.query_at(&q, Some(width)).unwrap_err().to_string();
                assert!(err.contains("checksum"), "{err}");
                let want = at_width_1.get_or_insert_with(|| err.clone());
                assert_eq!(&err, want, "blocks {bad:?} at width {width}");
                assert!(s.mapped_poison.lock().unwrap().is_some());
                assert!(s.query_at(&Query::new("t", 0, 10), Some(width)).is_err());
                s.poll_hydration().unwrap();
                let reason = s.hydration_fallback_reason().expect("fallback recorded");
                assert!(reason.contains("checksum"), "{reason}");
                assert_eq!(s.query_at(&q, Some(width)).unwrap().0.rows_matched, 1000);
            }
            errors.push(at_width_1.unwrap());
        }
        // Blocks 2 and 4 both corrupt: block 2's error, at every width.
        assert_eq!(errors[3], errors[1]);
        assert_ne!(errors[1], errors[2]);
    }

    /// A cold block's CRC failure fails the query alike at every width and
    /// condemns its table, which the next tiering pass rebuilds from disk.
    #[test]
    fn a_corrupt_cold_block_fails_the_query_alike_at_every_width() {
        let _x = scuba_faults::exclusive();
        scuba_faults::clear_all();
        let q =
            Query::new("logs", 0, 10_000).aggregates(vec![AggSpec::CountDistinct("msg".into())]);
        let mut at_width_1 = None;
        for width in WIDTHS {
            let (mut s, _c, cr) = leaf_with_corrupt_cold_msg("scancold");
            let err = s.query_at(&q, Some(width)).unwrap_err().to_string();
            assert!(err.contains("cold scan condemned"), "{err}");
            assert_eq!(&err, at_width_1.get_or_insert_with(|| err.clone()));
            s.config.memory_budget_bytes = 0;
            s.poll_tiering().unwrap();
            assert!(!cr.path.exists(), "condemned table kept its cold file");
            assert_eq!(s.query_at(&q, Some(width)).unwrap().0.rows_matched, 2000);
        }
    }
}
