//! The first-touch checks of mapped blocks (DESIGN §11). A leaf serves
//! every image it attaches in place, planned or checkpoint, so the
//! deferred payload CRCs of a mapped block are paid by whoever touches a
//! column first: a query ([`LeafServer::touch_mapped`]), or a copy
//! ([`hydrate_block`]: a demotion, a promotion, a disk reconcile). A
//! failure poisons the attach, and [`LeafServer::poll_hydration`] /
//! [`LeafServer::finish_hydration`] turn the poison into the disk
//! fallback.

use scuba_columnstore::RowBlock;

use crate::error::LeafResult;
use crate::server::LeafServer;

/// Verify every mapped column's deferred RBC checksum — a no-op for
/// columns a query touch already latched — then copy the block to heap:
/// the one way a mapped block (shm or cold) becomes a heap block. Run by
/// cold promotion; no store access.
pub(crate) fn hydrate_block(block: &RowBlock) -> Result<RowBlock, String> {
    block.verify_columns().map_err(|e| e.to_string())?;
    Ok(block.to_heap())
}

impl LeafServer {
    /// A query is about to scan `block`: if it is mapped, CRC-verify the
    /// columns the query reads (`columns`,
    /// [`scuba_query::Query::columns_read`]) — and only those. Each
    /// column's verify-once latch makes this first-touch-only and shares
    /// the pass with whoever copies the block: whoever reaches a column
    /// first pays, the other side reads the outcome. The columns the query
    /// does not read stay unverified, and unread, until a copy
    /// ([`hydrate_block`], a demotion, or a disk reconcile) checks them —
    /// so every byte is checked once before anyone trusts it. A
    /// verification failure here poisons the attach: the caller fails the
    /// query, every later query fails at its start, and the next
    /// poll/finish falls back to disk.
    pub(crate) fn touch_mapped(&self, block: &RowBlock, columns: &[&str]) -> Result<(), String> {
        // First touch only — read off the latches, so a repeat query
        // takes no lock at all: heap blocks and columns someone already
        // verified skip. Cold blocks have their own first touch and
        // per-table fallback in the residency manager.
        if !block.is_mapped() || block.is_cold() || block.columns_verified(columns) {
            return Ok(());
        }
        block
            .verify_columns_for(columns)
            .map_err(|e| self.condemn_mapped(&e))
    }

    /// Record that a mapped block failed its deferred CRC (at a query
    /// touch, or before a demotion copies it) — the first failure sticks,
    /// and fails every later query — and return this failure's reason.
    pub(crate) fn condemn_mapped(&self, error: &dyn std::fmt::Display) -> String {
        let reason = format!("corrupt mapped block: {error}");
        let mut poison = self.mapped_poison.lock().unwrap();
        poison.get_or_insert_with(|| reason.clone());
        reason
    }

    /// Why the leaf fell back from its attached image to disk recovery,
    /// if it did.
    pub fn hydration_fallback_reason(&self) -> Option<&str> {
        self.hydration_fallback.as_deref()
    }

    /// Act on what queries found, without blocking: if one found a corrupt
    /// mapped block, condemn the attached image and fall back to disk here
    /// (queries take `&self`, so only this `&mut` call can). Callers drive
    /// it from their event loop.
    pub fn poll_hydration(&mut self) -> LeafResult<()> {
        if let Some(reason) = self.mapped_poison.get_mut().unwrap().take() {
            self.fall_back_to_disk(reason)?;
        }
        Ok(())
    }

    /// The same as [`Self::poll_hydration`]: the leaf serves its attached
    /// image in place, so there is no copy to wait for.
    pub fn finish_hydration(&mut self) -> LeafResult<()> {
        self.poll_hydration()
    }

    /// §4.3 conservatism applied to an attached image: a corrupt mapped
    /// block condemns the whole attach — throw away the mapped store and
    /// rebuild from disk. Rows ingested since the attach share crash
    /// semantics: only the synced prefix survives.
    pub(crate) fn fall_back_to_disk(&mut self, reason: String) -> LeafResult<()> {
        scuba_obs::counter!("hydration_fallbacks").inc();
        self.hydration_fallback = Some(reason.clone());
        self.rebuild_from_disk(self.hydrate_now, None, reason)?;
        // The store was rebuilt under the WAL's row anchors: start the
        // crash path over from this state.
        self.crash.reset(&mut self.store, self.hydrate_now);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LeafConfig, RestoreMode};
    use crate::server::{LeafPhase, RecoveryOutcome};
    use crate::testkit::*;
    use scuba_columnstore::Row;
    use scuba_query::{AggSpec, CmpOp, Filter, Query};
    use std::sync::Arc;

    /// Whether every column of every block of `table` is a window into
    /// shared memory.
    fn all_mapped(s: &LeafServer, table: &str) -> bool {
        let blocks = s.store().map().get(table).unwrap().blocks();
        blocks
            .iter()
            .all(|b| b.columns().iter().all(|c| c.is_mapped()))
    }

    /// A crash start keeps the checkpoint image it attached, as a planned
    /// start does: every column stays mapped, the leaf is `Alive` at once,
    /// and it answers exactly as before the crash — before and after
    /// `finish_hydration`, which has nothing to copy.
    #[test]
    fn two_phase_attach_serves_identical_results_before_hydration() {
        let _x = scuba_faults::exclusive();
        let (cfg, dir) = kept_crash_config("twophase");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 1000);
        let q = Query::new("logs", 0, 2000)
            .group_by("sev")
            .aggregates(vec![AggSpec::Count]);
        let expected = result_fingerprint(&s.query(&q).unwrap());
        crash_to_checkpoint(&mut s);
        drop(s);

        let (mut s2, outcome) = LeafServer::start(cfg, 20, None).unwrap();
        let rep = match outcome {
            RecoveryOutcome::MemoryAttached(rep) => rep,
            other => panic!("expected attach, got {other:?}"),
        };
        // Acceptance: attach performs zero per-value heap copies. The
        // footprint delta is block/schema metadata only — every column
        // buffer stays mapped.
        assert!(
            rep.heap_bytes_copied < 1024,
            "attach copied column bytes: {}",
            rep.heap_bytes_copied
        );
        assert!(rep.shm_bytes > 0);
        assert!(all_mapped(&s2, "logs"));
        assert_eq!(s2.phase(), LeafPhase::Alive);
        assert_eq!(s2.shm_resident(), 0);
        assert_eq!(result_fingerprint(&s2.query(&q).unwrap()), expected);

        s2.finish_hydration().unwrap();
        assert!(all_mapped(&s2, "logs"), "finish_hydration copied");
        assert!(s2.hydration_fallback_reason().is_none());
        assert_eq!(result_fingerprint(&s2.query(&q).unwrap()), expected);
        assert_eq!(s2.total_rows(), 1000);
    }

    /// Until a commit of its own lists them, a crash start's views own the
    /// segments they map: a crash then unlinks each one exactly when its
    /// last reader lets go, never while a reader holds it.
    #[test]
    fn segment_unlinked_exactly_once_and_never_while_read() {
        let _x = scuba_faults::exclusive();
        use scuba_shmem::ShmSegment;
        let (cfg, dir) = kept_crash_config("seglife");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 200);
        crash_to_checkpoint(&mut s);
        drop(s);

        let (mut s2, _) = LeafServer::start(cfg, 0, None).unwrap();
        let seg_name = first_image_segment(s2.config());
        assert_eq!(s2.store().image_segments(), std::slice::from_ref(&seg_name));

        // A query snapshot: a cloned handle to a mapped block, held across
        // the leaf's death.
        let held: Arc<RowBlock> = Arc::clone(&s2.store().map().get("logs").unwrap().blocks()[0]);
        s2.crash();
        assert!(
            ShmSegment::exists(&seg_name),
            "segment unlinked while a reader held it"
        );
        // The mapped bytes are still readable through the held block.
        assert_eq!(held.decode_rows().unwrap().len(), 200);

        // The last mapped reference unlinks the segment. (That a view's
        // release unlinks at most once is `shmem::view::tests`' to show.)
        drop(held);
        assert!(!ShmSegment::exists(&seg_name));
    }

    /// Corrupt a payload byte deep in an image's table segment `seg`: the
    /// middle of the largest column chunk's RBC *data region* (found by
    /// walking the TLV frames, offsets read from the RBC header), so only
    /// the deferred payload CRC can tell.
    fn corrupt_fattest_column_chunk(seg: &str) {
        use scuba_restart::framing::{decode_header_v2, FRAME_HEADER_V2, TAG_END};
        let mut seg = scuba_shmem::ShmSegment::open(seg).unwrap();
        let buf = seg.as_mut_slice();
        let mut pos = 0usize;
        let mut fattest = (0usize, 0usize);
        loop {
            let (desc, len, _crc) = decode_header_v2(&buf[pos..pos + FRAME_HEADER_V2]);
            if desc.tag == TAG_END {
                break;
            }
            let payload = pos + FRAME_HEADER_V2;
            if desc.tag == crate::image::TAG_COLUMN && len as usize > fattest.1 {
                fattest = (payload, len as usize);
            }
            pos = payload + len as usize;
        }
        assert!(fattest.1 > 0, "no column chunk found");
        let rbc = &mut buf[fattest.0..fattest.0 + fattest.1];
        let data_off = u64::from_le_bytes(rbc[48..56].try_into().unwrap()) as usize;
        let footer_off = u64::from_le_bytes(rbc[56..64].try_into().unwrap()) as usize;
        rbc[(data_off + footer_off) / 2] ^= 0xFF;
    }

    /// The first table segment of a checkpoint image
    /// ([`crash_to_checkpoint`]'s).
    fn first_image_segment(cfg: &LeafConfig) -> String {
        let ns = scuba_shmem::ShmNamespace::new(&cfg.shm_prefix, cfg.leaf_id).unwrap();
        ns.table_segment_name(0)
    }

    /// Shut a leaf holding 800 rows of `logs` down, and corrupt the
    /// planned image it left: its successor attaches and keeps the image.
    fn kept_leaf_with_a_corrupt_column(tag: &str) -> (LeafServer, Cleanup) {
        let (cfg, dir) = kept_config(tag);
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let cleanup = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 800);
        let summary = s.shutdown_to_shm(0).unwrap();
        drop(s);
        corrupt_fattest_column_chunk(&table_segment(&summary, "logs"));
        let (s, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(matches!(outcome, RecoveryOutcome::MemoryAttached(_)));
        (s, cleanup)
    }

    /// A corrupt payload byte in a crash image: the attach cannot see it,
    /// and neither can a query that never reads the column nor
    /// `finish_hydration`, which copies nothing. The query that reads the
    /// column fails closed, and the next poll falls back to disk.
    #[test]
    fn hydration_crc_mismatch_falls_back_to_disk() {
        let _x = scuba_faults::exclusive();
        let (cfg, dir) = kept_crash_config("hydcrc");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 1000);
        crash_to_checkpoint(&mut s);
        drop(s);
        corrupt_fattest_column_chunk(&first_image_segment(&cfg));

        let (mut s2, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(
            matches!(outcome, RecoveryOutcome::MemoryAttached(_)),
            "attach should not notice payload corruption: {outcome:?}"
        );
        let count = Query::new("logs", 0, 2000);
        assert_eq!(s2.query(&count).unwrap().rows_matched, 1000);
        s2.finish_hydration().unwrap();
        assert!(s2.hydration_fallback_reason().is_none());

        let bad = corrupt_column_of(&s2, "logs");
        let q = count.aggregates(vec![AggSpec::CountDistinct(bad)]);
        let err = s2.query(&q).unwrap_err().to_string();
        assert!(err.contains("checksum"), "{err}");
        s2.poll_hydration().unwrap();
        assert_eq!(s2.phase(), LeafPhase::Alive);
        let reason = s2.hydration_fallback_reason().expect("fallback recorded");
        assert!(reason.contains("checksum"), "{reason}");
        // Disk had everything: full recovery despite the torn segment.
        assert_eq!(s2.total_rows(), 1000);
        assert_eq!(s2.store().map().mapped_bytes(), 0);
    }

    /// A crash start serves at once and for good: ingest lands in fresh
    /// heap blocks beside the mapped ones, queries see both, and deletes
    /// run — nothing is copying the image.
    #[test]
    fn ingest_and_expiry_run_at_once_beside_a_kept_crash_image() {
        let _x = scuba_faults::exclusive();
        let (cfg, dir) = kept_crash_config("hydingest");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 500);
        crash_to_checkpoint(&mut s);
        drop(s);

        let (mut s2, _) = LeafServer::start(cfg, 0, None).unwrap();
        assert_eq!(s2.phase(), LeafPhase::Alive);
        let heap_before = s2.store().map().heap_bytes();
        let extra: Vec<Row> = (500..600).map(|i| Row::at(i).with("sev", "late")).collect();
        s2.add_rows("logs", &extra, 30).unwrap();
        assert!(s2.store().map().heap_bytes() > heap_before);
        assert!(s2.expire(1000).is_ok());
        let r = s2.query(&Query::new("logs", 0, 1000)).unwrap();
        assert_eq!(r.rows_matched, 600);
        assert!(s2.store().map().get("logs").unwrap().blocks()[0].is_mapped());
        s2.finish_hydration().unwrap();
        assert_eq!(s2.total_rows(), 600);
    }

    /// A crash start's memory split: every column byte is mapped and
    /// counts in `memory_used` once, heap holds only block and schema
    /// metadata, nothing awaits a copy — and finishing moves nothing.
    #[test]
    fn memory_gauges_split_heap_and_shm() {
        let _x = scuba_faults::exclusive();
        let (mut cfg, dir) = kept_crash_config("hydmem");
        cfg.memory_capacity = 8 << 20;
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 1000);
        crash_to_checkpoint(&mut s);
        drop(s);

        let (mut s2, _) = LeafServer::start(cfg, 0, None).unwrap();
        let split = |s: &LeafServer| (s.store().map().heap_bytes(), s.store().map().mapped_bytes());
        let (heap, mapped) = split(&s2);
        assert!(mapped > 0);
        assert!(heap < 1024, "column bytes on heap after attach: {heap}");
        assert_eq!(s2.memory_used(), heap + mapped);
        assert_eq!(s2.shm_resident(), 0);
        assert_eq!(s2.free_memory(), (8 << 20) - heap - mapped);

        s2.finish_hydration().unwrap();
        assert_eq!(split(&s2), (heap, mapped));
        assert_eq!(s2.free_memory(), (8 << 20) - heap - mapped);
    }

    /// Polling a clean crash image acts on nothing: every block of a
    /// multi-block table stays mapped through any number of polls.
    #[test]
    fn poll_hydration_keeps_every_block_of_a_clean_crash_image_mapped() {
        let _x = scuba_faults::exclusive();
        let (cfg, dir) = kept_crash_config("hydpoll");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        for epoch in 0..4i64 {
            let rows: Vec<Row> = (0..100).map(|i| Row::at(epoch * 100 + i)).collect();
            s.add_rows("logs", &rows, 0).unwrap();
            s.store.map_mut().get_mut("logs").unwrap().seal(0).unwrap();
        }
        crash_to_checkpoint(&mut s);
        drop(s);

        let (mut s2, _) = LeafServer::start(cfg, 0, None).unwrap();
        assert_eq!(s2.store().map().get("logs").unwrap().blocks().len(), 4);
        for _ in 0..3 {
            s2.poll_hydration().unwrap();
            assert!(all_mapped(&s2, "logs"));
        }
        assert_eq!(s2.phase(), LeafPhase::Alive);
        assert_eq!(s2.total_rows(), 400);
    }

    #[test]
    fn empty_leaf_attach_goes_straight_to_alive() {
        let _x = scuba_faults::exclusive();
        let (cfg, dir) = kept_crash_config("hydempty");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        crash_to_checkpoint(&mut s);
        drop(s);
        let (s2, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        assert!(matches!(outcome, RecoveryOutcome::MemoryAttached(_)));
        assert_eq!(s2.phase(), LeafPhase::Alive);
    }

    /// A kept planned image is served in place: a table no query touches
    /// stays mapped and copies nothing, the touched one answers from the
    /// mapped bytes, and both answer exactly as before the restart —
    /// through `finish_hydration` too, which has nothing to do.
    #[test]
    fn a_kept_image_never_hydrates_an_untouched_table() {
        let (cfg, dir) = kept_config("keptcold");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 600); // "logs": the hot table
        let cold: Vec<Row> = (0..400).map(|i| Row::at(i).with("v", i)).collect();
        s.add_rows("archive", &cold, 0).unwrap();
        let q_hot = Query::new("logs", 0, 1000)
            .group_by("sev")
            .aggregates(vec![AggSpec::Count, AggSpec::Sum("code".into())]);
        let q_cold = Query::new("archive", 0, 1000).aggregates(vec![AggSpec::Sum("v".into())]);
        let want_hot = result_fingerprint(&s.query(&q_hot).unwrap());
        let want_cold = result_fingerprint(&s.query(&q_cold).unwrap());
        s.shutdown_to_shm(0).unwrap();
        drop(s);

        let (mut s2, outcome) = LeafServer::start(cfg, 0, None).unwrap();
        let rep = match outcome {
            RecoveryOutcome::MemoryAttached(rep) => rep,
            other => panic!("expected attach, got {other:?}"),
        };
        assert!(
            rep.heap_bytes_copied < 1024,
            "attach copied column bytes: {}",
            rep.heap_bytes_copied
        );
        assert_eq!(s2.phase(), LeafPhase::Alive);
        let archive_mapped = |s: &LeafServer| all_mapped(s, "archive");

        // Query the hot table: identical answer, from the mapped bytes.
        assert_eq!(result_fingerprint(&s2.query(&q_hot).unwrap()), want_hot);
        s2.poll_hydration().unwrap();
        // The cold table was never copied: every byte still mapped ...
        assert!(archive_mapped(&s2));
        let mapped = s2.store().map().mapped_bytes();
        assert!(mapped > 0);
        // ... and still answers identically, in place.
        assert_eq!(result_fingerprint(&s2.query(&q_cold).unwrap()), want_cold);

        // Finishing copies nothing either.
        s2.finish_hydration().unwrap();
        assert_eq!(s2.phase(), LeafPhase::Alive);
        assert!(archive_mapped(&s2));
        assert_eq!(s2.store().map().mapped_bytes(), mapped);
        assert_eq!(s2.shm_resident(), 0);
        assert_eq!(result_fingerprint(&s2.query(&q_cold).unwrap()), want_cold);
        assert_eq!(s2.total_rows(), 1000);
    }

    /// Column-granular first touch: a corrupt column a query does not
    /// read does not fail it (nor is it checked); a query that reads it
    /// fails closed (the first-touch CRC catches it) with the sticky
    /// error, and the recorded poison turns into the full disk fallback at
    /// the next poll — data intact from disk.
    #[test]
    fn query_over_corrupt_mapped_block_fails_then_falls_back() {
        let (mut s2, _c) = kept_leaf_with_a_corrupt_column("lazycrc");
        let bad = corrupt_column_of(&s2, "logs");
        assert_ne!(bad, "time", "the fixture is meant to spare the time column");
        let good = if bad == "sev" { "code" } else { "sev" };
        let count = Query::new("logs", 0, 1000);
        assert_eq!(s2.query(&count).unwrap().rows_matched, 800);
        let over_good = count
            .clone()
            .aggregates(vec![AggSpec::CountDistinct(good.into())]);
        assert_eq!(s2.query(&over_good).unwrap().rows_matched, 800);
        let block = Arc::clone(&s2.store().map().get("logs").unwrap().blocks()[0]);
        assert!(!block.column(&bad).unwrap().is_verified());

        let q = count.clone().aggregates(vec![AggSpec::CountDistinct(bad)]);
        let err = s2.query(&q).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        // Sticky: the poison now fails every query until the fallback.
        assert_eq!(s2.query(&count).unwrap_err().to_string(), err.to_string());
        // The poison condemns the attach at the next poll.
        s2.poll_hydration().unwrap();
        assert_eq!(s2.phase(), LeafPhase::Alive);
        let reason = s2.hydration_fallback_reason().expect("fallback recorded");
        assert!(reason.contains("checksum"), "{reason}");
        // Disk recovery restored everything; queries serve heap bytes.
        assert_eq!(s2.total_rows(), 800);
        assert_eq!(s2.shm_resident(), 0);
        assert_eq!(s2.query(&q).unwrap().rows_matched, 800);
    }

    /// The touch contract: a query pays the deferred CRC of the columns it
    /// reads, the copy ([`hydrate_block`], a promotion's, or a demotion's)
    /// pays for the rest before it copies, and nobody pays twice — each
    /// column's latch is read through the original or any clone.
    #[test]
    fn query_touch_pays_the_crc_the_hydrator_would_have() {
        let (cfg, dir) = kept_config("latchonce");
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 800);
        let (mut s2, _) = kept_restart(s, &cfg, 0);
        let blocks: Vec<Arc<RowBlock>> = s2.store().map().get("logs").unwrap().blocks().to_vec();
        // Fresh clones, so what we see is the shared latch, not a cache.
        let verified = |b: &RowBlock, name: &str| b.column(name).unwrap().clone().is_verified();
        assert!(blocks.iter().all(|b| b.is_mapped()));
        // Attach deferred every footer CRC.
        for b in &blocks {
            assert!(["time", "sev", "code"].iter().all(|c| !verified(b, c)));
        }

        // What a count(*) touches: `time` and nothing else. Touch copies
        // of the blocks: the columns share their latches with the
        // originals.
        let copies: Vec<Arc<RowBlock>> = blocks.iter().map(|b| Arc::new((**b).clone())).collect();
        let touch = |columns: &[&str]| {
            for b in &copies {
                s2.touch_mapped(b, columns).unwrap();
            }
        };
        touch(&Query::new("logs", 0, 1000).columns_read());
        for b in &blocks {
            assert!(verified(b, "time"));
            assert!(!verified(b, "sev") && !verified(b, "code"));
        }
        // A query over another column pays for that column only.
        touch(&["time", "sev"]);
        for b in &blocks {
            assert!(verified(b, "sev") && !verified(b, "code"));
        }

        // A real query pays for what is left, and a repeat finds it paid.
        let sum_code = Query::new("logs", 0, 1000).aggregates(vec![AggSpec::Sum("code".into())]);
        assert_eq!(s2.query(&sum_code).unwrap().rows_matched, 800);
        assert_eq!(s2.query(&sum_code).unwrap().rows_matched, 800);
        // The copy finds every check paid, and copies.
        for b in &blocks {
            assert!(["time", "sev", "code"].iter().all(|c| verified(b, c)));
            assert!(!hydrate_block(b).unwrap().is_mapped());
        }
        s2.finish_hydration().unwrap();
        assert!(s2.hydration_fallback_reason().is_none());
        assert_eq!(s2.total_rows(), 800);
    }

    /// A query over the open block encodes nothing: the scan reads the
    /// builder where it lies, beside mapped blocks under tiering. The open
    /// block adds one view per column it holds and the dictionary ids its
    /// group key reads, and not one value decoded: its integers and
    /// doubles are the builder's, and a string column is never decoded.
    #[test]
    fn a_query_reads_the_open_block_in_place() {
        let _x = scuba_faults::exclusive();
        let (mut cfg, dir) = tiered_config("openview", 0);
        cfg.restore_mode = RestoreMode::TwoPhase;
        cfg.checkpoint_enabled = true;
        let mut s = LeafServer::new(cfg.clone()).unwrap();
        let _c = Cleanup(s.namespace().clone(), dir);
        fill(&mut s, 600);
        crash_to_checkpoint(&mut s);
        drop(s);

        let (mut s2, _) = LeafServer::start(cfg, 0, None).unwrap();
        let q = Query::new("logs", 0, 1000)
            .bucket_secs(100)
            .filter(Filter::new("code", CmpOp::Ge, 1i64))
            .filter(Filter::new("sev", CmpOp::Ne, "debug"))
            .group_by("sev")
            .aggregates(vec![
                AggSpec::Count,
                AggSpec::Sum("code".into()),
                AggSpec::Avg("lat".into()),
            ]);
        let (sealed, sealed_counts) = s2.query_at(&q, Some(1)).unwrap();
        let tail: Vec<Row> = (600..650)
            .map(|i| {
                Row::at(i)
                    .with("sev", "late")
                    .with("code", i % 7)
                    .with("lat", i as f64 / 3.0)
            })
            .collect();
        s2.add_rows("logs", &tail, 0).unwrap();
        let t = s2.store().map().get("logs").unwrap();
        assert!(t.blocks().iter().all(|b| b.is_mapped()));
        assert_eq!(t.unsealed_rows(), 50);

        let (r, counts) = s2.query_at(&q, Some(1)).unwrap();
        let open_rows = r.rows_matched - sealed.rows_matched;
        assert_eq!(open_rows, 50 - 50 / 7);
        assert_eq!(r.blocks_scanned, sealed.blocks_scanned + 1);
        assert_eq!(counts.values_decoded, sealed_counts.values_decoded);
        // time, code, sev, lat.
        assert_eq!(counts.views_built, sealed_counts.views_built + 4);
        assert_eq!(
            counts.values_gathered,
            sealed_counts.values_gathered + open_rows
        );
        s2.finish_hydration().unwrap();
    }

    /// A corrupt mapped column condemns itself once: the query touch, the
    /// copy a demotion would make and the disk-reconcile decode all report
    /// the same latched error, and the fallback is the usual one.
    #[test]
    fn corrupt_mapped_column_reports_one_sticky_error_to_every_toucher() {
        let (mut s2, _c) = kept_leaf_with_a_corrupt_column("latchbad");
        let bad = corrupt_column_of(&s2, "logs");
        let q = Query::new("logs", 0, 1000).aggregates(vec![AggSpec::CountDistinct(bad)]);
        let from_query = s2.query(&q).unwrap_err().to_string();
        let table = s2.store().map().get("logs").unwrap();
        let bad = table
            .blocks()
            .iter()
            .find(|b| {
                b.columns()
                    .iter()
                    .any(|c| c.is_mapped() && !c.is_verified())
            })
            .expect("the query stopped at the corrupt block");
        let column_err = bad.verify_columns().unwrap_err().to_string();
        assert!(column_err.contains("checksum"), "{column_err}");
        assert!(from_query.ends_with(&column_err), "{from_query}");
        assert_eq!(hydrate_block(bad).unwrap_err(), column_err);
        assert_eq!(
            LeafServer::materialize_rows_from(table, 0).unwrap_err(),
            column_err
        );
        // Unchanged consequence: the poison becomes the disk fallback.
        s2.poll_hydration().unwrap();
        assert!(s2.hydration_fallback_reason().unwrap().contains("checksum"));
        assert_eq!(s2.query(&q).unwrap().rows_matched, 800);
    }

    /// A crash, or the fallback a query's poison forces, lets go of every
    /// mapped block of a crash image this life never committed again, and
    /// its segment is unlinked with the last of them.
    #[test]
    fn a_crash_or_a_fallback_lets_go_of_every_mapped_block_and_the_image() {
        let _x = scuba_faults::exclusive();
        use scuba_shmem::ShmSegment;
        for fallback in [false, true] {
            let (cfg, dir) = kept_crash_config("hydstop");
            let mut s = LeafServer::new(cfg.clone()).unwrap();
            let _c = Cleanup(s.namespace().clone(), dir);
            for epoch in 0..4i64 {
                let rows: Vec<Row> = (0..100)
                    .map(|i| Row::at(epoch * 100 + i).with("code", i % 7))
                    .collect();
                s.add_rows("logs", &rows, 0).unwrap();
                s.store.map_mut().get_mut("logs").unwrap().seal(0).unwrap();
            }
            crash_to_checkpoint(&mut s);
            drop(s);
            let seg = first_image_segment(&cfg);
            if fallback {
                corrupt_fattest_column_chunk(&seg);
            }

            let (mut s2, _) = LeafServer::start(cfg, 0, None).unwrap();
            let blocks: Vec<std::sync::Weak<RowBlock>> = s2
                .store()
                .map()
                .get("logs")
                .unwrap()
                .blocks()
                .iter()
                .map(Arc::downgrade)
                .collect();
            if fallback {
                let bad = corrupt_column_of(&s2, "logs");
                let q = Query::new("logs", 0, 1000).aggregates(vec![AggSpec::CountDistinct(bad)]);
                assert!(s2.query(&q).is_err());
                s2.poll_hydration().unwrap();
                assert!(s2.hydration_fallback_reason().is_some());
                assert_eq!(s2.total_rows(), 400);
            } else {
                s2.crash();
            }
            assert!(
                blocks.iter().all(|b| b.strong_count() == 0),
                "a mapped block outlived the image (fallback: {fallback})"
            );
            assert!(!ShmSegment::exists(&seg), "fallback: {fallback}");
        }
    }
}
