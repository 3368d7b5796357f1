//! Criterion micro-bench for the chunk checksum: the three CRC-32 kernels
//! side by side — `clmul` is `crc32` as the product calls it (PCLMULQDQ
//! folding where the CPU has it, else it equals `slice8`), `slice8` the
//! portable slicing-by-8 path, `scalar` the byte-at-a-time Sarwate
//! reference. Every chunk header the restart protocol writes or verifies
//! pays this cost, so it sits directly on the memory-bandwidth copy path.
//!
//! `cargo bench -p scuba-bench --bench checksum`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use scuba::shmem::{crc32, crc32_scalar, crc32_slice8};

fn bench_crc32(c: &mut Criterion) {
    let mut group = c.benchmark_group("crc32");
    for &len in &[64usize, 4 << 10, 256 << 10, 4 << 20] {
        let data: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_with_input(BenchmarkId::new("clmul", len), &data, |b, data| {
            b.iter(|| crc32(std::hint::black_box(data)));
        });
        group.bench_with_input(BenchmarkId::new("slice8", len), &data, |b, data| {
            b.iter(|| crc32_slice8(std::hint::black_box(data)));
        });
        group.bench_with_input(BenchmarkId::new("scalar", len), &data, |b, data| {
            b.iter(|| crc32_scalar(std::hint::black_box(data)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_crc32);
criterion_main!(benches);
