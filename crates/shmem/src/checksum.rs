//! CRC-32 (IEEE) used by the metadata region and the restart protocol's
//! chunk framing.
//!
//! The implementation lives in the shared `scuba-checksum` crate (one set
//! of kernels — carry-less-multiply folding, slicing-by-8, Sarwate — for
//! both this crate and the column store, so the two layers cannot drift
//! apart); this module re-exports it and adds the instrumented wrapper
//! used on the copy path.

pub use scuba_checksum::{crc32, crc32_scalar, crc32_slice8, Crc32};

/// [`crc32`] with the elapsed time measured and recorded into the
/// `shmem_crc_nanos_total` / `shmem_crc_bytes_total` counters, so the
/// CRC share of the copy budget (vs. the memcpy itself) is visible in the
/// exposition. Returns `(crc, elapsed_ns)`; callers on the restart path
/// feed the nanoseconds into their per-phase accumulator rather than
/// timing the call a second time. When instrumentation is disabled the
/// clock is never read and the reported time is 0.
pub fn crc32_timed(bytes: &[u8]) -> (u32, u64) {
    let sw = scuba_obs::Stopwatch::start();
    let crc = crc32(bytes);
    let ns = sw.elapsed_ns();
    if sw.active() {
        scuba_obs::counter!("shmem_crc_nanos").add(ns);
        scuba_obs::counter!("shmem_crc_bytes").add(bytes.len() as u64);
    }
    (crc, ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexport_matches_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_scalar(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn timed_wrapper_matches_untimed() {
        let data = vec![42u8; 4096];
        let (crc, _ns) = crc32_timed(&data);
        assert_eq!(crc, crc32(&data));
    }
}
