//! CRC-32 (IEEE 802.3 polynomial), shared by the column store (row block
//! column footers, Figure 3 of the paper) and the shared-memory restart
//! protocol (metadata region, chunk framing).
//!
//! Every byte the restart protocol moves between heap and shared memory is
//! checksummed, so the CRC sits directly on the restart critical path:
//! §4.3's "15 GB in 3-4 seconds" budget is a memcpy budget, and a
//! checksum slower than memcpy becomes the restart. Three kernels compute
//! the same function:
//!
//! * a PCLMULQDQ folding kernel (x86_64, runtime-detected; 64 bytes per
//!   iteration, faster than memcpy) that [`crc32`] and [`Crc32::update`]
//!   use for inputs of 64 bytes and more;
//! * slicing-by-8 ([`crc32_slice8`]: 8 table lookups per 8 input bytes) —
//!   the path for short inputs, for the tail the folding kernel leaves,
//!   and for CPUs without carry-less multiply;
//! * the one-table Sarwate loop ([`crc32_scalar`]), the reference the
//!   other two are differentially tested against.
//!
//! [`Crc32`] is the streaming form used where the input arrives in pieces
//! (row block column footers built during sealing).
//!
//! All tables and folding constants are built at compile time from the
//! one reflected IEEE polynomial, so the kernels cannot drift apart and no
//! stored checksum depends on which of them ran.

#[cfg(target_arch = "x86_64")]
mod clmul;

const POLY: u32 = 0xEDB8_8320;

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Slicing-by-8 tables: `TABLES[0]` is the classic byte table; entry
/// `TABLES[k][b]` is the CRC contribution of byte `b` seen `k` positions
/// before the end of an 8-byte group.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    tables[0] = build_table();
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Advance a raw (pre-inversion) CRC state over `bytes` with the fastest
/// kernel this CPU and this length allow.
fn advance(crc: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::MIN_LEN && clmul::available() {
        // SAFETY: `available()` just confirmed PCLMULQDQ and SSE4.1, the
        // kernel's only requirement.
        return unsafe { clmul::advance(crc, bytes) };
    }
    advance_slice8(crc, bytes)
}

/// Advance a raw (pre-inversion) CRC state over `bytes` with slicing-by-8.
pub(crate) fn advance_slice8(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for group in &mut chunks {
        let lo = u32::from_le_bytes(group[0..4].try_into().unwrap()) ^ crc;
        let hi = u32::from_le_bytes(group[4..8].try_into().unwrap());
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// One-shot CRC-32 of a byte slice: carry-less-multiply folding where the
/// CPU has it and the input is at least 64 bytes, slicing-by-8 otherwise.
pub fn crc32(bytes: &[u8]) -> u32 {
    advance(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// One-shot CRC-32 on the portable slicing-by-8 path, whatever the CPU.
/// Same value as [`crc32`]; public so benchmarks can put the two side by
/// side.
pub fn crc32_slice8(bytes: &[u8]) -> u32 {
    advance_slice8(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Reference byte-at-a-time CRC-32 (Sarwate). Kept for differential tests
/// and benchmarks against [`crc32`]; not used on the copy path.
pub fn crc32_scalar(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

/// Streaming CRC-32 hasher. Each `update` call runs the same kernels as
/// [`crc32`] (chosen per piece by its length), so a streamed checksum over
/// N pieces equals the one-shot checksum of their concatenation.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Resume a checksum already finished: a hasher whose state is the
    /// one that produced `crc`, so feeding it more bytes yields the CRC of
    /// the original input followed by them. This is how a row block
    /// column's frame CRC is derived from its seal-time footer CRC without
    /// reading the payload again.
    pub fn resume(crc: u32) -> Self {
        Crc32 {
            state: crc ^ 0xFFFF_FFFF,
        }
    }

    /// Feed bytes into the hasher.
    pub fn update(&mut self, bytes: &[u8]) {
        self.state = advance(self.state, bytes);
    }

    /// Finish and return the checksum.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32_scalar(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_scalar(b""), 0);
    }

    #[test]
    fn detects_flips() {
        let mut data = vec![7u8; 100];
        let base = crc32(&data);
        data[50] ^= 1;
        assert_ne!(crc32(&data), base);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data = b"hello shared memory world";
        let mut h = Crc32::new();
        h.update(&data[..5]);
        h.update(&data[5..]);
        assert_eq!(h.finish(), crc32(data));
    }

    #[test]
    fn resume_continues_a_finished_checksum() {
        let buf = random_bytes(0x0BAD_5EED, 4096 + 13);
        for split in [0, 1, 8, 63, 64, 65, 1000, 4096, buf.len()] {
            let mut h = Crc32::resume(crc32(&buf[..split]));
            h.update(&buf[split..]);
            assert_eq!(h.finish(), crc32_scalar(&buf), "split at {split}");
        }
        assert_eq!(Crc32::resume(crc32(b"")).finish(), 0);
    }

    /// Seeded splitmix64 byte stream for the differential tests.
    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn differential_sliced_vs_scalar() {
        // Random buffers at every alignment/length class around the 8-byte
        // group size. Calls the slicing path directly, so it stays covered
        // on hosts where `crc32` dispatches to the folding kernel.
        for len in (0..64).chain([100, 1000, 4096, 4097, 65_536 + 3]) {
            let buf = random_bytes(0x5EED_CAFE_F00D ^ len as u64, len);
            assert_eq!(crc32_slice8(&buf), crc32_scalar(&buf), "len {len}");
            assert_eq!(crc32(&buf), crc32_scalar(&buf), "len {len}");
            // Unaligned starts too: slicing must not assume alignment.
            if buf.len() > 3 {
                assert_eq!(crc32_slice8(&buf[3..]), crc32_scalar(&buf[3..]));
            }
            // Streaming splits must agree with one-shot at every length.
            let split = buf.len() / 3;
            let mut h = Crc32::new();
            h.update(&buf[..split]);
            h.update(&buf[split..]);
            assert_eq!(h.finish(), crc32_scalar(&buf));
        }
    }

    /// The folding kernel on its own (not through the dispatcher), as a
    /// one-shot checksum. `None` on a CPU without carry-less multiply.
    #[cfg(target_arch = "x86_64")]
    fn crc32_clmul(bytes: &[u8]) -> Option<u32> {
        if !clmul::available() {
            return None;
        }
        // SAFETY: `available()` confirmed the CPU features.
        Some(unsafe { clmul::advance(0xFFFF_FFFF, bytes) } ^ 0xFFFF_FFFF)
    }

    /// Vectors of at least 64 bytes computed by an independent
    /// implementation (zlib's `crc32`), so every kernel can be held to them.
    fn long_vectors() -> [(Vec<u8>, u32); 4] {
        [
            (vec![b'a'; 64], 0x89B4_6555),
            (vec![0xFF; 64], 0x0F61_87BA),
            ((0..=255).collect(), 0x2905_8C73),
            (b"123456789".repeat(100), 0x09FD_0FD7),
        ]
    }

    #[test]
    fn long_known_vectors() {
        for (bytes, want) in long_vectors() {
            assert_eq!(crc32(&bytes), want);
            assert_eq!(crc32_slice8(&bytes), want);
            assert_eq!(crc32_scalar(&bytes), want);
            #[cfg(target_arch = "x86_64")]
            if let Some(folded) = crc32_clmul(&bytes) {
                assert_eq!(folded, want);
            }
        }
        // The raw-state plumbing is the same on every kernel: an all-zero
        // state fed zeros stays zero (no hidden inversion inside `advance`).
        assert_eq!(advance(0, &[0u8; 200]), 0);
        assert_eq!(advance_slice8(0, &[0u8; 200]), 0);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn differential_clmul_vs_scalar_every_length_and_alignment() {
        if !clmul::available() {
            return;
        }
        // Every length 64..=1024 (below 64 the kernel does not apply; the
        // dispatcher is checked over 0..=1024 below) at every start offset
        // within a 16-byte lane.
        let arena = random_bytes(0x00C1_3A11, 1024 + 16);
        for offset in 0..16 {
            for len in 0..=1024 {
                let buf = &arena[offset..offset + len];
                let want = crc32_scalar(buf);
                assert_eq!(crc32(buf), want, "dispatch offset {offset} len {len}");
                if len >= clmul::MIN_LEN {
                    assert_eq!(crc32_clmul(buf), Some(want), "offset {offset} len {len}");
                }
            }
        }
        // Multi-MiB: many fold iterations, with and without a ragged tail.
        for len in [1 << 20, (4 << 20) + 61, (3 << 20) - 1] {
            let arena = random_bytes(len as u64, len + 16);
            for offset in [0, 1, 7, 15] {
                let buf = &arena[offset..offset + len];
                let want = crc32_scalar(buf);
                assert_eq!(crc32_clmul(buf), Some(want), "offset {offset} len {len}");
                assert_eq!(crc32_slice8(buf), want, "offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn streaming_splits_around_the_kernel_boundaries() {
        // Split points on both sides of the 64-byte threshold and of each
        // 64-byte fold boundary, so a stream mixes pieces that fold with
        // pieces that slice — in both orders.
        let buf = random_bytes(0x0005_7117, 1024);
        let want = crc32_scalar(&buf);
        let edges = [0usize, 1, 15, 16, 17, 63, 64, 65];
        let around_folds = (0..=buf.len())
            .step_by(64)
            .flat_map(|fold| [fold.wrapping_sub(1), fold, fold + 1])
            .filter(|&a| a <= buf.len());
        for a in around_folds {
            for gap in edges {
                let b = (a + gap).min(buf.len());
                let mut h = Crc32::new();
                h.update(&buf[..a]);
                h.update(&buf[a..b]);
                h.update(&buf[b..]);
                assert_eq!(h.finish(), want, "splits at {a} and {b}");
            }
        }
    }
}
