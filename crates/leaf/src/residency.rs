//! Block residency: the three-state Hot / Warm / Cold concept and the
//! SIEVE eviction policy that decides which blocks leave memory.
//!
//! The paper keeps every row block memory-resident (heap or shared
//! memory); its §6 future work puts the shared-memory format on disk for
//! faster *recovery*. This module goes one step further and uses that
//! disk format as a live residency tier: when a leaf's memory footprint
//! exceeds `LeafConfig::memory_budget_bytes`, sealed blocks are demoted
//! to per-table fast-format cold files and served from read-only mmaps.
//!
//! Eviction is SIEVE (Zhang et al., NSDI'24): a FIFO of candidates with
//! one "visited" bit each and a hand that sweeps from the oldest entry.
//! A visited candidate survives one sweep (bit cleared, hand advances);
//! an unvisited one is evicted where the hand stands. Unlike LRU there
//! is no per-hit reordering — queries only set a bit — which matters
//! here because the query path is `&self` and must not contend with
//! ingest for list locks. SIEVE also keeps newly-inserted blocks near
//! the eviction hand, so scan-heavy workloads that touch everything once
//! cannot flush the genuinely-hot working set (the bit saves survivors,
//! and one-hit-wonder scans get evicted first).
//!
//! The [`ResidencyManager`] tracks *candidates* (sealed, zone-mapped,
//! heap-resident blocks) for demotion and the touch/verify/promotion
//! bookkeeping for cold blocks. It never does I/O: the leaf server owns
//! the demotion writes, promotion copies, and budget loop, applying them
//! under `&mut self` where the store can be patched safely.

use std::collections::HashSet;
use std::sync::Arc;
use std::sync::Mutex;

use scuba_columnstore::{LeafMap, RowBlock};

/// The three residency states of a sealed row block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// Heap-resident: columns are owned `Box<[u8]>` buffers.
    Hot,
    /// Served from a shared-memory mapping (attached, not yet hydrated).
    Warm,
    /// Served from a disk fast-format mmap (demoted by tiering).
    Cold,
}

impl Residency {
    /// Classify a block by its backing.
    pub fn of(block: &RowBlock) -> Residency {
        if block.is_cold() {
            Residency::Cold
        } else if block.is_mapped() {
            Residency::Warm
        } else {
            Residency::Hot
        }
    }
}

/// One SIEVE candidate: a demotable block and its visited bit.
#[derive(Debug)]
struct SieveEntry {
    table: String,
    block: Arc<RowBlock>,
    visited: bool,
}

/// How many times a cold block must be touched by queries before it is
/// queued for promotion back to heap. The first touch CRC-verifies and
/// serves in place (one cold scan is not evidence the block is hot
/// again); the second queues the promotion.
const PROMOTE_AFTER_TOUCHES: u32 = 2;

/// Tracks demotion candidates under SIEVE and cold-block touch state.
///
/// Interior-mutability split: the query path (`&self`) records touches
/// into small mutex-guarded sets; the ingest/maintenance path (`&mut
/// self`) drains them into the SIEVE bits and runs eviction. The mutexes
/// are never held across I/O.
#[derive(Debug)]
pub struct ResidencyManager {
    /// Demotion candidates, insertion (FIFO) order.
    entries: Vec<SieveEntry>,
    /// SIEVE hand: index of the next eviction probe, sweeping old→new.
    hand: usize,
    /// `Arc::as_ptr` of blocks touched by queries since the last sync.
    touched: Mutex<HashSet<usize>>,
    /// Cold blocks touched by queries: ptr → touch count. Cleared for a
    /// block when it is drained for promotion.
    cold_touches: Mutex<std::collections::HashMap<usize, u32>>,
    /// Cold blocks due for promotion (table, block), deduped by ptr.
    promotions: Mutex<Vec<(String, Arc<RowBlock>)>>,
    /// First cold-block verification failure: (table, reason). The
    /// server turns this into a per-table disk-log fallback.
    poison: Mutex<Option<(String, String)>>,
}

impl Default for ResidencyManager {
    fn default() -> Self {
        Self::new()
    }
}

impl ResidencyManager {
    /// An empty manager.
    pub fn new() -> ResidencyManager {
        ResidencyManager {
            entries: Vec::new(),
            hand: 0,
            touched: Mutex::new(HashSet::new()),
            cold_touches: Mutex::new(std::collections::HashMap::new()),
            promotions: Mutex::new(Vec::new()),
            poison: Mutex::new(None),
        }
    }

    /// Number of tracked demotion candidates.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no candidates are tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if `block` can be demoted: sealed (every block in
    /// `Table::blocks()` is), zone-mapped (demotion must not cost the
    /// pruning stats — they are what lets queries skip the cold tier
    /// without faulting it in), and heap-resident (warm shm blocks
    /// belong to the hydrator; cold blocks already left).
    pub fn is_candidate(block: &RowBlock) -> bool {
        Residency::of(block) == Residency::Hot && block.zones().is_some()
    }

    /// Record a query touch on any sealed block (`&self`: called from
    /// the query path). Hot candidates get their SIEVE bit set at the
    /// next [`ResidencyManager::sync`]; non-candidates are ignored.
    pub fn record_touch(&self, block: &Arc<RowBlock>) {
        self.touched
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(Arc::as_ptr(block) as usize);
    }

    /// Record a query touch on a *cold* block (`&self`). The deferred
    /// CRCs of the columns the query reads (`columns`) are verified in
    /// place — once: each column's verify-once latch answers every later
    /// touch. The other columns stay unverified until promotion checks
    /// the whole block before copying it. A mismatch poisons the manager
    /// (see [`ResidencyManager::take_poison`]) and returns the reason as
    /// `Err` so the query can fail closed. Repeated touches queue the
    /// block for promotion back to heap.
    pub fn touch_cold(
        &self,
        table: &str,
        block: &Arc<RowBlock>,
        columns: &[&str],
    ) -> Result<(), String> {
        if let Err(e) = block.verify_columns_for(columns) {
            return Err(self.condemn(table, &e));
        }
        let key = Arc::as_ptr(block) as usize;
        let touches = {
            let mut map = self.cold_touches.lock().unwrap_or_else(|e| e.into_inner());
            let n = map.entry(key).or_insert(0);
            *n += 1;
            *n
        };
        if touches == PROMOTE_AFTER_TOUCHES {
            let mut promos = self.promotions.lock().unwrap_or_else(|e| e.into_inner());
            if !promos.iter().any(|(_, b)| Arc::ptr_eq(b, block)) {
                promos.push((table.to_owned(), Arc::clone(block)));
            }
        }
        Ok(())
    }

    /// A cold block of `table` failed its CRC (at a query touch, or at the
    /// whole-block check before promotion): record the first such failure
    /// for [`ResidencyManager::take_poison`] and return the reason.
    pub fn condemn(&self, table: &str, error: &dyn std::fmt::Display) -> String {
        let reason = format!("cold block of table {table:?} failed CRC: {error}");
        let mut poison = self.poison.lock().unwrap_or_else(|e| e.into_inner());
        if poison.is_none() {
            *poison = Some((table.to_owned(), reason.clone()));
        }
        reason
    }

    /// Reconcile the candidate list with the live store and fold queued
    /// query touches into the SIEVE visited bits. Call under `&mut self`
    /// (ingest or maintenance) before budget enforcement:
    ///
    /// * blocks that vanished (expired, rewritten, demoted) are dropped,
    /// * new candidate blocks are appended in table-scan order (FIFO),
    /// * touched survivors get their visited bit set.
    pub fn sync(&mut self, store: &LeafMap) {
        let mut live: HashSet<usize> = HashSet::new();
        let mut fresh: Vec<(String, Arc<RowBlock>)> = Vec::new();
        let known: HashSet<usize> = self
            .entries
            .iter()
            .map(|e| Arc::as_ptr(&e.block) as usize)
            .collect();
        for table in store.iter() {
            for block in table.blocks() {
                if !Self::is_candidate(block) {
                    continue;
                }
                let key = Arc::as_ptr(block) as usize;
                live.insert(key);
                if !known.contains(&key) {
                    fresh.push((table.name().to_owned(), Arc::clone(block)));
                }
            }
        }
        // Drop dead entries, keeping the hand pointed at the same
        // survivor it was about to probe.
        let mut kept_before_hand = 0usize;
        let mut kept: Vec<SieveEntry> = Vec::with_capacity(self.entries.len());
        for (i, e) in self.entries.drain(..).enumerate() {
            if live.contains(&(Arc::as_ptr(&e.block) as usize)) {
                if i < self.hand {
                    kept_before_hand += 1;
                }
                kept.push(e);
            }
        }
        self.entries = kept;
        self.hand = kept_before_hand;
        for (table, block) in fresh {
            self.entries.push(SieveEntry {
                table,
                block,
                visited: false,
            });
        }
        let touched = std::mem::take(&mut *self.touched.lock().unwrap_or_else(|e| e.into_inner()));
        if !touched.is_empty() {
            for e in &mut self.entries {
                if touched.contains(&(Arc::as_ptr(&e.block) as usize)) {
                    e.visited = true;
                }
            }
        }
        // Cold-side bookkeeping for blocks that no longer exist.
        self.gc_cold_state(store);
    }

    /// Drop touch state for cold blocks that are gone (promoted, expired)
    /// so the map cannot grow without bound.
    fn gc_cold_state(&mut self, store: &LeafMap) {
        let mut live_cold: HashSet<usize> = HashSet::new();
        for table in store.iter() {
            for block in table.blocks() {
                if block.is_cold() {
                    live_cold.insert(Arc::as_ptr(block) as usize);
                }
            }
        }
        self.cold_touches
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|k, _| live_cold.contains(k));
    }

    /// Run one SIEVE step: sweep the hand until an unvisited candidate
    /// is found, evict it (remove + return), clearing visited bits along
    /// the way. Returns `None` when no candidates remain. If every entry
    /// is visited, one full sweep clears all bits and the oldest entry
    /// is evicted — SIEVE degenerates to FIFO under uniform heat, which
    /// is the correct pressure valve.
    pub fn evict_next(&mut self) -> Option<(String, Arc<RowBlock>)> {
        if self.entries.is_empty() {
            return None;
        }
        // At most two passes: one clearing visited bits, one evicting.
        for _ in 0..(2 * self.entries.len() + 1) {
            if self.hand >= self.entries.len() {
                self.hand = 0;
            }
            if self.entries[self.hand].visited {
                self.entries[self.hand].visited = false;
                self.hand += 1;
                continue;
            }
            let e = self.entries.remove(self.hand);
            return Some((e.table, e.block));
        }
        unreachable!("SIEVE sweep did not terminate");
    }

    /// Take the cold blocks queued for promotion (repeat-touched).
    pub fn drain_promotions(&mut self) -> Vec<(String, Arc<RowBlock>)> {
        std::mem::take(&mut *self.promotions.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Take the first cold CRC failure, if any: `(table, reason)`.
    pub fn take_poison(&mut self) -> Option<(String, String)> {
        self.poison.lock().unwrap_or_else(|e| e.into_inner()).take()
    }

    /// Forget everything (the store was replaced wholesale — disk
    /// recovery, restore).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.hand = 0;
        self.touched
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        self.cold_touches
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        self.promotions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        *self.poison.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scuba_columnstore::{Row, Table};

    fn store_with_blocks(table: &str, blocks: usize, rows_per_block: i64) -> LeafMap {
        let mut t = Table::new(table, 0);
        for b in 0..blocks as i64 {
            for i in 0..rows_per_block {
                t.append(&Row::at(b * 10_000 + i).with("v", i), 0).unwrap();
            }
            t.seal(0).unwrap();
        }
        // Sealed blocks carry zone maps from the builder, so they are
        // demotion candidates as-is.
        let mut map = LeafMap::new();
        map.insert(t);
        map
    }

    #[test]
    fn sieve_evicts_fifo_when_untouched() {
        let store = store_with_blocks("t", 4, 10);
        let mut m = ResidencyManager::new();
        m.sync(&store);
        assert_eq!(m.len(), 4);
        let first = Arc::clone(&store.get("t").unwrap().blocks()[0]);
        let (_, victim) = m.evict_next().unwrap();
        assert!(Arc::ptr_eq(&victim, &first), "oldest evicted first");
    }

    #[test]
    fn touched_blocks_survive_one_sweep() {
        let store = store_with_blocks("t", 3, 10);
        let mut m = ResidencyManager::new();
        m.sync(&store);
        let blocks = store.get("t").unwrap().blocks().to_vec();
        m.record_touch(&blocks[0]);
        m.sync(&store); // folds the touch into the visited bit
        let (_, v1) = m.evict_next().unwrap();
        assert!(
            Arc::ptr_eq(&v1, &blocks[1]),
            "visited head is skipped; second-oldest goes first"
        );
        // The hand keeps sweeping forward: blocks[2] goes next, and only
        // after wrap-around does blocks[0] (bit now cleared) get evicted.
        let (_, v2) = m.evict_next().unwrap();
        assert!(Arc::ptr_eq(&v2, &blocks[2]));
        let (_, v3) = m.evict_next().unwrap();
        assert!(Arc::ptr_eq(&v3, &blocks[0]));
        assert!(m.evict_next().is_none());
    }

    #[test]
    fn all_visited_degenerates_to_fifo() {
        let store = store_with_blocks("t", 3, 10);
        let mut m = ResidencyManager::new();
        m.sync(&store);
        for b in store.get("t").unwrap().blocks() {
            m.record_touch(b);
        }
        m.sync(&store);
        let first = Arc::clone(&store.get("t").unwrap().blocks()[0]);
        let (_, victim) = m.evict_next().unwrap();
        assert!(Arc::ptr_eq(&victim, &first));
    }

    #[test]
    fn sync_drops_dead_blocks() {
        let mut store = store_with_blocks("t", 3, 10);
        let mut m = ResidencyManager::new();
        m.sync(&store);
        assert_eq!(m.len(), 3);
        store.get_mut("t").unwrap().clear(0);
        m.sync(&store);
        assert!(m.is_empty());
        assert!(m.evict_next().is_none());
    }

    #[test]
    fn unzoned_and_cold_blocks_are_not_candidates() {
        let store = store_with_blocks("t", 1, 10);
        let sealed = Arc::clone(&store.get("t").unwrap().blocks()[0]);
        // Strip the zones: restore paths can produce zone-less blocks,
        // which must not be demoted (pruning stats gate the cold tier).
        let unzoned = Arc::new((*sealed).clone().with_zones(None));
        let cold = Arc::new(
            (*sealed)
                .clone()
                .with_cold_ref(Some(scuba_columnstore::ColdRef {
                    path: "/tmp/t.cold".into(),
                    offset: 20,
                    len: 9,
                })),
        );
        assert!(ResidencyManager::is_candidate(&sealed));
        assert!(!ResidencyManager::is_candidate(&unzoned));
        assert!(!ResidencyManager::is_candidate(&cold));
        let mut map = LeafMap::new();
        map.insert(Table::from_blocks("t", vec![unzoned, cold], 0));
        let mut m = ResidencyManager::new();
        m.sync(&map);
        assert!(m.is_empty());
    }

    #[test]
    fn cold_touch_verifies_then_promotes() {
        let store = store_with_blocks("t", 1, 50);
        let block = Arc::clone(&store.get("t").unwrap().blocks()[0]);
        // Fake a cold block: provenance only, bytes still heap — verify
        // passes and the promotion threshold applies.
        let cold = Arc::new(
            (*block)
                .clone()
                .with_cold_ref(Some(scuba_columnstore::ColdRef {
                    path: "/tmp/t.cold".into(),
                    offset: 20,
                    len: 9,
                })),
        );
        let mut m = ResidencyManager::new();
        m.touch_cold("t", &cold, &["time", "v"]).unwrap();
        assert!(
            m.drain_promotions().is_empty(),
            "first touch serves in place"
        );
        m.touch_cold("t", &cold, &["time", "v"]).unwrap();
        let promos = m.drain_promotions();
        assert_eq!(promos.len(), 1);
        assert!(Arc::ptr_eq(&promos[0].1, &cold));
        // Re-touching after the drain does not re-queue (count moved past
        // the threshold).
        m.touch_cold("t", &cold, &["time", "v"]).unwrap();
        assert!(m.drain_promotions().is_empty());
        assert!(m.take_poison().is_none());
    }

    mod sieve_prop {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// Demote `block` in the fake store: patch it to a cold clone so
        /// `sync` stops seeing it as a candidate, exactly as the server's
        /// demotion path does.
        fn patch_cold(store: &mut LeafMap, table: &str, block: &Arc<RowBlock>) {
            let cold = Arc::new((**block).clone().with_cold_ref(Some(
                scuba_columnstore::ColdRef {
                    path: "/tmp/prop.cold".into(),
                    offset: 20,
                    len: 9,
                },
            )));
            assert!(store.get_mut(table).unwrap().apply_block_patch(block, cold));
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// The SIEVE pitch: one-hit-wonder scans cannot flush the
            /// genuinely hot working set. One block is re-touched before
            /// every budget pass; scan blocks keep pouring in (sealed,
            /// never touched again — their insertion *was* the scan) at
            /// random rates while random amounts of eviction pressure
            /// are applied. The hot block must always be evicted last,
            /// no matter how insertions and evictions interleave.
            #[test]
            fn scan_heavy_workload_cannot_flush_the_hot_block(
                blocks in 2usize..8,
                hot_pick in 0usize..4096,
                rounds in vec((0usize..3, 1usize..3), 1..10),
            ) {
                let mut store = store_with_blocks("t", blocks, 8);
                let hot = hot_pick % blocks;
                let hot_block = Arc::clone(&store.get("t").unwrap().blocks()[hot]);
                let mut m = ResidencyManager::new();
                m.sync(&store);
                let mut next_ts = blocks as i64 * 10_000;
                for &(inject, evictions) in &rounds {
                    // The scan pours in fresh sealed blocks (new
                    // candidates, untouched after insertion).
                    let t = store.get_mut("t").unwrap();
                    for _ in 0..inject {
                        for i in 0..8 {
                            t.append(&Row::at(next_ts + i).with("v", i), 0).unwrap();
                        }
                        t.seal(0).unwrap();
                        next_ts += 10_000;
                    }
                    // One budget pass: fold the hot touch, then evict.
                    m.record_touch(&hot_block);
                    m.sync(&store);
                    for _ in 0..evictions {
                        let Some((table, victim)) = m.evict_next() else {
                            break;
                        };
                        if Arc::ptr_eq(&victim, &hot_block) {
                            // Only legal when the budget demanded the
                            // whole working set: nothing else was left.
                            prop_assert!(
                                m.is_empty(),
                                "hot block evicted while scan blocks remained"
                            );
                            return Ok(());
                        }
                        patch_cold(&mut store, &table, &victim);
                    }
                }
                // Drain: everything else goes before the hot block.
                m.record_touch(&hot_block);
                m.sync(&store);
                let mut last = None;
                while let Some((table, victim)) = m.evict_next() {
                    patch_cold(&mut store, &table, &victim);
                    last = Some(victim);
                }
                prop_assert!(
                    Arc::ptr_eq(&last.unwrap(), &hot_block),
                    "hot block was not the last one evicted"
                );
            }

            /// The budget loop's termination guarantee: under arbitrary
            /// touch/sync interleavings, draining the sieve returns every
            /// candidate exactly once (no duplicates, no omissions) and
            /// then `None` — so `enforce_budget` can always reach the
            /// all-cold floor.
            #[test]
            fn eviction_drains_every_candidate_exactly_once(
                blocks in 1usize..12,
                touches in vec((0usize..4096, any::<bool>()), 0..40),
            ) {
                let mut store = store_with_blocks("t", blocks, 8);
                let mut m = ResidencyManager::new();
                m.sync(&store);
                let mut evicted: Vec<usize> = Vec::new();
                let mut step = 0usize;
                loop {
                    // Random touches (and re-syncs) between evictions.
                    if let Some((idx, resync)) = touches.get(step) {
                        let live = store.get("t").unwrap().blocks().to_vec();
                        m.record_touch(&live[idx % live.len()]);
                        if *resync {
                            m.sync(&store);
                        }
                    }
                    step += 1;
                    let Some((table, victim)) = m.evict_next() else {
                        break;
                    };
                    let key = Arc::as_ptr(&victim) as usize;
                    prop_assert!(!evicted.contains(&key), "block evicted twice");
                    evicted.push(key);
                    patch_cold(&mut store, &table, &victim);
                }
                prop_assert!(evicted.len() == blocks, "some candidate never evicted");
                prop_assert!(m.evict_next().is_none());
                m.sync(&store);
                prop_assert!(m.is_empty(), "cold blocks re-entered the sieve");
            }
        }
    }

    #[test]
    fn sieve_hand_survives_reconcile() {
        let store = store_with_blocks("t", 5, 10);
        let mut m = ResidencyManager::new();
        m.sync(&store);
        let blocks = store.get("t").unwrap().blocks().to_vec();
        for b in &blocks {
            m.record_touch(b);
        }
        m.sync(&store);
        // Advance the hand past two entries (clearing their bits).
        let (_, v) = m.evict_next().unwrap();
        assert!(Arc::ptr_eq(&v, &blocks[0]));
        // Reconcile with an unchanged store must not reset the sweep.
        m.sync(&store);
        let (_, v2) = m.evict_next().unwrap();
        assert!(Arc::ptr_eq(&v2, &blocks[1]));
    }
}
