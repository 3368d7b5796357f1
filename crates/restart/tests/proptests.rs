//! Property-based tests for the restart protocol: arbitrary stores must
//! round-trip through real shared memory, and arbitrary corruption of the
//! shared state must fall back, never panic, never yield wrong data.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};

use proptest::collection::{btree_map, vec};
use proptest::prelude::*;

use scuba_restart::framing::TAG_STORE_BASE;
use scuba_restart::{
    backup_to_shm, backup_to_shm_with, restore_from_shm, restore_from_shm_with, ChunkDesc,
    ChunkSink, ChunkSource, CopyOptions, RestoreError, ShmBackup, ShmPersistable,
    SHM_LAYOUT_VERSION,
};
use scuba_shmem::{ShmError, ShmNamespace, ShmSegment};

/// Minimal persistable store for protocol-level properties.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct PropStore {
    units: BTreeMap<String, Vec<Vec<u8>>>,
}

#[derive(Debug)]
struct PropError(String);
impl fmt::Display for PropError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl std::error::Error for PropError {}
impl From<ShmError> for PropError {
    fn from(e: ShmError) -> Self {
        PropError(e.to_string())
    }
}

impl ShmBackup for PropStore {
    type Error = PropError;
    type Unit = Vec<Vec<u8>>;
    type Written = ();
    fn unit_names(&self) -> Vec<String> {
        self.units.keys().cloned().collect()
    }
    fn estimate_unit_size(&self, unit: &str) -> usize {
        self.units
            .get(unit)
            .map(|cs| cs.iter().map(Vec::len).sum())
            .unwrap_or(0)
    }
    fn extract_unit(&mut self, unit: &str) -> Result<Self::Unit, PropError> {
        Ok(self.units.remove(unit).unwrap_or_default())
    }
    fn backup_extracted(data: Self::Unit, sink: &mut dyn ChunkSink) -> Result<(), PropError> {
        for chunk in data {
            sink.put_chunk(ChunkDesc::new(TAG_STORE_BASE, 1), &chunk)?;
        }
        Ok(())
    }
    fn heap_bytes(&self) -> usize {
        self.units.values().flatten().map(Vec::len).sum()
    }
}

impl ShmPersistable for PropStore {
    type Error = PropError;
    type Unit = Vec<Vec<u8>>;
    fn decode_unit(_unit: &str, source: &mut dyn ChunkSource) -> Result<Self::Unit, PropError> {
        let mut chunks = Vec::new();
        while let Some((_desc, c)) = source.next_chunk()? {
            chunks.push(c);
        }
        Ok(chunks)
    }
    fn install_unit(&mut self, unit: &str, data: Self::Unit) -> Result<(), PropError> {
        self.units.insert(unit.to_owned(), data);
        Ok(())
    }
    fn heap_bytes(&self) -> usize {
        self.units.values().flatten().map(Vec::len).sum()
    }
}

const V: u32 = SHM_LAYOUT_VERSION;

static COUNTER: AtomicU32 = AtomicU32::new(0);

fn fresh_ns() -> ShmNamespace {
    ShmNamespace::new(
        &format!("prop{}", std::process::id()),
        COUNTER.fetch_add(1, Ordering::Relaxed),
    )
    .unwrap()
}

struct Cleanup(ShmNamespace);
impl Drop for Cleanup {
    fn drop(&mut self) {
        self.0.unlink_all(20);
    }
}

/// Arbitrary stores: up to 6 units, each with up to 8 chunks of up to
/// 2 KiB. Unit names exercise unicode and empty chunks.
fn arb_store() -> impl Strategy<Value = PropStore> {
    btree_map(
        "[a-zA-Z0-9_./ -]{1,24}",
        vec(vec(any::<u8>(), 0..2048), 0..8),
        0..6,
    )
    .prop_map(|units| PropStore { units })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn backup_restore_is_identity(store in arb_store(), threads in 1usize..=8) {
        let ns = fresh_ns();
        let _c = Cleanup(ns.clone());
        let original = store.clone();
        let mut store = store;
        let opts = CopyOptions::with_threads(threads).without_size_clamp();
        let bak = backup_to_shm_with(&mut store, &ns, V, opts).unwrap();
        prop_assert!(store.units.is_empty());

        let mut restored = PropStore::default();
        let res = restore_from_shm_with(&mut restored, &ns, V, opts).unwrap();
        prop_assert_eq!(&restored, &original);
        prop_assert_eq!(res.chunks, bak.chunks);
        prop_assert_eq!(res.bytes_copied, bak.bytes_copied);
        // All shared memory consumed.
        prop_assert!(!ShmSegment::exists(&ns.metadata_name()));
    }

    #[test]
    fn corruption_anywhere_falls_back_or_preserves(
        store in arb_store(),
        seg_seed in any::<usize>(),
        pos_seed in any::<usize>(),
        xor in 1u8..=255,
    ) {
        prop_assume!(!store.units.is_empty());
        let ns = fresh_ns();
        let _c = Cleanup(ns.clone());
        let original = store.clone();
        let mut store = store;
        backup_to_shm(&mut store, &ns, V).unwrap();

        // Corrupt one byte of one segment (metadata or a table segment).
        let mut names = vec![ns.metadata_name()];
        let mut i = 0;
        while ShmSegment::exists(&ns.table_segment_name(i)) {
            names.push(ns.table_segment_name(i));
            i += 1;
        }
        let target = &names[seg_seed % names.len()];
        {
            let mut seg = ShmSegment::open(target).unwrap();
            if !seg.is_empty() {
                let pos = pos_seed % seg.len();
                seg.as_mut_slice()[pos] ^= xor;
            }
        }

        let mut restored = PropStore::default();
        match restore_from_shm(&mut restored, &ns, V) {
            Ok(_) => {
                // The flip hit a non-load-bearing byte... there are none
                // that affect content; restored data must equal original.
                prop_assert_eq!(&restored, &original);
            }
            Err(RestoreError::Fallback(_)) => {
                // Fallback is always acceptable; shared memory must be gone.
                prop_assert!(!ShmSegment::exists(&ns.metadata_name()));
            }
        }
    }

    #[test]
    fn old_reader_falls_back_new_reader_succeeds(
        store in arb_store(),
        newer in 0u32..1000,
        older in 0u32..2,
    ) {
        // The paper's §4.2 policy (any version change ⇒ disk) is relaxed
        // to a (writer, min-reader) pair: any reader at or above the
        // image's min_reader_version succeeds, any reader below it falls
        // back.
        let ns = fresh_ns();
        let _c = Cleanup(ns.clone());
        let original = store.clone();
        let mut store = store;
        backup_to_shm(&mut store, &ns, V).unwrap();
        let mut restored = PropStore::default();
        let err = restore_from_shm(&mut restored, &ns, older).unwrap_err();
        let RestoreError::Fallback(fb) = err;
        prop_assert!(fb.reason.contains("requires reader version"));
        prop_assert!(restored.units.is_empty());

        // A fresh image read by a same-or-newer binary restores fine.
        let mut store = original.clone();
        backup_to_shm(&mut store, &ns, V).unwrap();
        let mut restored = PropStore::default();
        restore_from_shm(&mut restored, &ns, V + newer).unwrap();
        prop_assert_eq!(&restored, &original);
    }

    #[test]
    fn double_restore_always_falls_back(store in arb_store()) {
        let ns = fresh_ns();
        let _c = Cleanup(ns.clone());
        let mut store = store;
        backup_to_shm(&mut store, &ns, V).unwrap();
        let mut first = PropStore::default();
        restore_from_shm(&mut first, &ns, V).unwrap();
        let mut second = PropStore::default();
        prop_assert!(restore_from_shm(&mut second, &ns, V).is_err());
        prop_assert!(second.units.is_empty());
    }
}
