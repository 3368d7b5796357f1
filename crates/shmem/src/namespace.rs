//! Segment naming: the "unique hard coded location" of §4.2.
//!
//! "Each leaf has a unique hard coded location in shared memory for its
//! metadata. In that location, the leaf stores a valid bit, a layout
//! version number, and pointers to any shared memory segments it has
//! allocated. There is one segment per table."
//!
//! A [`ShmNamespace`] derives those names deterministically from a cluster
//! prefix and a leaf id, so the replacement process computes the same
//! names without any handshake with its predecessor — the only rendezvous
//! is the name scheme itself.

use crate::error::{ShmError, ShmResult};
use crate::segment::ShmSegment;

/// Deterministic name scheme for one leaf server's segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShmNamespace {
    prefix: String,
    leaf_id: u32,
}

impl ShmNamespace {
    /// Create a namespace. `prefix` identifies the cluster/deployment
    /// (and keeps parallel test runs apart); `leaf_id` is the leaf's
    /// machine-local index.
    pub fn new(prefix: &str, leaf_id: u32) -> ShmResult<ShmNamespace> {
        if prefix.is_empty()
            || prefix.len() > 80
            || !prefix
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            return Err(ShmError::BadName(prefix.to_owned()));
        }
        Ok(ShmNamespace {
            prefix: prefix.to_owned(),
            leaf_id,
        })
    }

    /// The cluster prefix.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// The leaf id.
    pub fn leaf_id(&self) -> u32 {
        self.leaf_id
    }

    /// Name of the leaf's fixed metadata segment.
    pub fn metadata_name(&self) -> String {
        format!("/{}_leaf{}_meta", self.prefix, self.leaf_id)
    }

    /// Name of the segment holding table number `index` (one segment per
    /// table, §4.2).
    pub fn table_segment_name(&self, index: usize) -> String {
        format!("/{}_leaf{}_t{}", self.prefix, self.leaf_id, index)
    }

    /// Name of a checkpoint segment as older binaries named them: a
    /// second, parity-alternating image (`parity` 0 or 1) beside the
    /// table segments. This binary writes every image under
    /// [`Self::table_segment_name`]; the old names still attach, since
    /// names come from the registry, and [`Self::unlink_all`] still sweeps
    /// them.
    pub fn checkpoint_segment_name(&self, parity: u32, index: usize) -> String {
        format!(
            "/{}_leaf{}_k{}_{}",
            self.prefix,
            self.leaf_id,
            parity % 2,
            index
        )
    }

    /// Unlink every table segment name — layers 2 and 3 of
    /// [`Self::unlink_all`], leaving the metadata and older binaries'
    /// checkpoint segments alone. Returns how many names were removed.
    fn unlink_table_segments(&self, max_tables: usize) -> usize {
        let mut removed = 0;
        // Layer 2: contiguous sweep from 0.
        let mut index = 0;
        while ShmSegment::exists(&self.table_segment_name(index)) {
            if ShmSegment::unlink(&self.table_segment_name(index)).unwrap_or(false) {
                removed += 1;
            }
            index += 1;
        }
        // Layer 3: capped fallback beyond the contiguous run.
        for i in index..max_tables {
            if ShmSegment::unlink(&self.table_segment_name(i)).unwrap_or(false) {
                removed += 1;
            }
        }
        removed
    }

    /// Unlink the metadata segment and every table segment this leaf may
    /// have left behind. Used on fallback-to-disk ("frees any shared
    /// memory in use", §4.3) and by tests. Returns how many names were
    /// actually removed.
    ///
    /// The sweep is three-layered, most-authoritative first:
    ///
    /// 1. the segment names listed in the metadata registry, when it is
    ///    present and readable — these are exact, even past `max_tables`;
    /// 2. a contiguous walk of the deterministic name scheme from index 0,
    ///    which catches segments created before they were registered;
    /// 3. a capped `0..max_tables` fallback for non-contiguous leftovers
    ///    (e.g. `t1` orphaned after `t0` was already removed).
    pub fn unlink_all(&self, max_tables: usize) -> usize {
        let mut removed = 0;
        // Layer 1: read the registry before destroying it. A missing or
        // corrupt registry just means the later layers do the work.
        let listed = crate::metadata::LeafMetadata::open(self)
            .ok()
            .and_then(|meta| meta.read().ok())
            .map(|contents| contents.segment_names())
            .unwrap_or_default();
        for name in &listed {
            if ShmSegment::unlink(name).unwrap_or(false) {
                removed += 1;
            }
        }
        if ShmSegment::unlink(&self.metadata_name()).unwrap_or(false) {
            removed += 1;
        }
        removed += self.unlink_table_segments(max_tables);
        // Older binaries' checkpoint segments, both parities: same
        // contiguous walk plus capped fallback as the table names. (Layer
        // 1 already caught any that were listed in the registry.)
        for parity in 0..2u32 {
            let mut index = 0;
            while ShmSegment::exists(&self.checkpoint_segment_name(parity, index)) {
                if ShmSegment::unlink(&self.checkpoint_segment_name(parity, index)).unwrap_or(false)
                {
                    removed += 1;
                }
                index += 1;
            }
            for i in index..max_tables {
                if ShmSegment::unlink(&self.checkpoint_segment_name(parity, i)).unwrap_or(false) {
                    removed += 1;
                }
            }
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_deterministic_and_distinct() {
        let ns = ShmNamespace::new("prod", 3).unwrap();
        assert_eq!(ns.metadata_name(), "/prod_leaf3_meta");
        assert_eq!(ns.table_segment_name(0), "/prod_leaf3_t0");
        assert_eq!(ns.table_segment_name(12), "/prod_leaf3_t12");
        let other = ShmNamespace::new("prod", 4).unwrap();
        assert_ne!(ns.metadata_name(), other.metadata_name());
        // Two processes computing independently agree — the rendezvous.
        let again = ShmNamespace::new("prod", 3).unwrap();
        assert_eq!(ns.metadata_name(), again.metadata_name());
    }

    #[test]
    fn table_sweep_leaves_metadata_and_checkpoints() {
        let ns = ShmNamespace::new(&format!("swptab{}", std::process::id()), 5).unwrap();
        let _m = ShmSegment::create(&ns.metadata_name(), 16).unwrap();
        let _k = ShmSegment::create(&ns.checkpoint_segment_name(0, 0), 16).unwrap();
        let _t0 = ShmSegment::create(&ns.table_segment_name(0), 16).unwrap();
        let _t3 = ShmSegment::create(&ns.table_segment_name(3), 16).unwrap();
        assert_eq!(ns.unlink_table_segments(4), 2);
        assert!(ShmSegment::exists(&ns.metadata_name()));
        assert!(ShmSegment::exists(&ns.checkpoint_segment_name(0, 0)));
        assert_eq!(ns.unlink_all(4), 2);
    }

    #[test]
    fn invalid_prefixes_rejected() {
        assert!(ShmNamespace::new("", 0).is_err());
        assert!(ShmNamespace::new("has space", 0).is_err());
        assert!(ShmNamespace::new("has/slash", 0).is_err());
        assert!(ShmNamespace::new(&"x".repeat(100), 0).is_err());
        assert!(ShmNamespace::new("ok_name_9", 0).is_ok());
    }

    #[test]
    fn unlink_all_sweeps_scheme() {
        let ns = ShmNamespace::new(&format!("swp{}", std::process::id()), 7).unwrap();
        let _m = ShmSegment::create(&ns.metadata_name(), 16).unwrap();
        let _t = ShmSegment::create(&ns.table_segment_name(0), 16).unwrap();
        assert_eq!(ns.unlink_all(4), 2);
        assert!(!ShmSegment::exists(&ns.metadata_name()));
        assert_eq!(ns.unlink_all(4), 0);
    }

    #[test]
    fn unlink_all_reads_registry_beyond_cap() {
        use crate::metadata::LeafMetadata;
        let ns = ShmNamespace::new(&format!("swpreg{}", std::process::id()), 8).unwrap();
        // Register a segment far past the cap: only the registry knows it.
        let far = ns.table_segment_name(9);
        let mut meta = LeafMetadata::create(&ns, 2, 2).unwrap();
        let _t = ShmSegment::create(&far, 16).unwrap();
        meta.add_segment_invalidating(&far, 2, 0).unwrap();
        drop(meta);
        assert_eq!(ns.unlink_all(2), 2); // metadata + t9, despite cap 2
        assert!(!ShmSegment::exists(&far));
        assert!(!ShmSegment::exists(&ns.metadata_name()));
    }

    #[test]
    fn checkpoint_names_are_parity_distinct_and_swept() {
        let prefix = format!("swpck{}", std::process::id());
        let ns = ShmNamespace::new(&prefix, 11).unwrap();
        assert_eq!(
            ns.checkpoint_segment_name(0, 3),
            format!("/{prefix}_leaf11_k0_3")
        );
        assert_ne!(
            ns.checkpoint_segment_name(0, 0),
            ns.checkpoint_segment_name(1, 0)
        );
        // Parity wraps: 2 is parity 0 again.
        assert_eq!(
            ns.checkpoint_segment_name(2, 0),
            ns.checkpoint_segment_name(0, 0)
        );
        // Orphaned checkpoint segments on both parities are swept.
        let _a = ShmSegment::create(&ns.checkpoint_segment_name(0, 0), 16).unwrap();
        let _b = ShmSegment::create(&ns.checkpoint_segment_name(1, 2), 16).unwrap();
        assert_eq!(ns.unlink_all(4), 2);
        assert!(!ShmSegment::exists(&ns.checkpoint_segment_name(0, 0)));
        assert!(!ShmSegment::exists(&ns.checkpoint_segment_name(1, 2)));
    }

    #[test]
    fn unlink_all_cap_fallback_catches_noncontiguous_orphans() {
        let ns = ShmNamespace::new(&format!("swporph{}", std::process::id()), 9).unwrap();
        // No metadata, no t0 — t2 is a non-contiguous orphan only the
        // capped fallback can find.
        let _t = ShmSegment::create(&ns.table_segment_name(2), 16).unwrap();
        assert_eq!(ns.unlink_all(1), 0); // cap too small: missed
        assert!(ShmSegment::exists(&ns.table_segment_name(2)));
        assert_eq!(ns.unlink_all(4), 1);
        assert!(!ShmSegment::exists(&ns.table_segment_name(2)));
    }
}
