//! Criterion micro-bench for E2/E3: the copy-to-shared-memory shutdown,
//! the raw protocol round trip without a leaf around it, and the raw
//! write into fresh shared memory under both (E14).
//!
//! `cargo bench -p scuba-bench --bench shutdown`

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use scuba::leaf::ImageJob;
use scuba::restart::{backup_to_shm, restore_from_shm, SHM_LAYOUT_VERSION};
use scuba::shmem::{SegmentWriter, ShmNamespace, ShmSegment};
use scuba_bench::{build_leaf, LeafRig};

fn bench_shutdown(c: &mut Criterion) {
    let mut group = c.benchmark_group("shutdown_to_shm");
    group.sample_size(10);
    for &rows in &[30_000usize, 120_000] {
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, &rows| {
            b.iter_with_setup(
                || {
                    let rig = LeafRig::new("bs");
                    let server = build_leaf(&rig, rows);
                    (rig, server)
                },
                |(rig, mut server)| {
                    let summary = server.shutdown_to_shm(0).unwrap();
                    assert!(summary.backup.bytes_copied > 0);
                    (rig, server)
                },
            );
        });
    }
    group.finish();
}

fn bench_protocol_round_trip(c: &mut Criterion) {
    // Protocol-only cost: ToyStore-free — use the leaf store directly via
    // the trait, measuring backup+restore of raw bytes.
    let mut group = c.benchmark_group("protocol_round_trip");
    group.sample_size(10);
    let rows = 120_000usize;
    let rig = LeafRig::new("bp");
    let server = build_leaf(&rig, rows);
    let bytes = server.memory_used() as u64;
    drop(server);
    drop(rig);
    group.throughput(Throughput::Bytes(bytes * 2)); // out + back

    group.bench_function(BenchmarkId::from_parameter(rows), |b| {
        b.iter_with_setup(
            || {
                let rig = LeafRig::new("bp");
                let server = build_leaf(&rig, rows);
                (rig, server)
            },
            |(rig, mut server)| {
                let ns = ShmNamespace::new(&rig.config.shm_prefix, rig.config.leaf_id).unwrap();
                // Drive the protocol directly over the leaf's store.
                let store = server.store_mut_for_bench();
                backup_to_shm(&mut ImageJob::drain(store), &ns, SHM_LAYOUT_VERSION).unwrap();
                restore_from_shm(store, &ns, SHM_LAYOUT_VERSION).unwrap();
                (rig, server)
            },
        );
    });
    group.finish();
}

/// Bytes each `shm_write` iteration copies out of the heap.
const SHM_WRITE_BYTES: usize = 64 << 20;
/// Copy granularity: about one real column chunk.
const SHM_WRITE_CHUNK: usize = 256 << 10;

/// Fresh, already-unlinked segments, one per thread, sized `size` each.
fn fresh_segments(threads: usize, size: usize) -> Vec<ShmSegment> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    (0..threads)
        .map(|_| {
            let name = format!(
                "/scuba-bench-shmw-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            );
            let seg = ShmSegment::create(&name, size).unwrap();
            ShmSegment::unlink(&name).unwrap(); // pages live until the drop
            seg
        })
        .collect()
}

/// The layer under every shutdown copy: 64 MiB from the heap into fresh
/// tmpfs pages, split over one segment per thread. `mapping` writes
/// through a mapping the size of the data (`as_mut_slice`, every page
/// write-faulted and zeroed first — the path images took before they were
/// written through the descriptor, without its 1 MiB remaps); `writer` is
/// the product's `SegmentWriter` (`pwrite`, then `finish`).
fn bench_shm_write(c: &mut Criterion) {
    let mut group = c.benchmark_group("shm_write");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(SHM_WRITE_BYTES as u64));
    let source: Vec<u8> = (0..SHM_WRITE_BYTES).map(|i| (i % 251) as u8).collect();
    // Dropped in the next setup, so freeing the pages is not timed.
    let spent: RefCell<Vec<ShmSegment>> = RefCell::new(Vec::new());
    for threads in [1usize, 2] {
        let share = SHM_WRITE_BYTES / threads;
        let shares = || source.chunks(share);
        group.bench_function(BenchmarkId::new("mapping", threads), |b| {
            b.iter_with_setup(
                || {
                    spent.borrow_mut().clear();
                    fresh_segments(threads, share)
                },
                |mut segs| {
                    std::thread::scope(|s| {
                        for (seg, bytes) in segs.iter_mut().zip(shares()) {
                            s.spawn(move || {
                                let map = seg.as_mut_slice();
                                for (i, chunk) in bytes.chunks(SHM_WRITE_CHUNK).enumerate() {
                                    let at = i * SHM_WRITE_CHUNK;
                                    map[at..at + chunk.len()].copy_from_slice(chunk);
                                }
                                seg.sync().unwrap();
                            });
                        }
                    });
                    spent.borrow_mut().extend(segs);
                },
            );
        });
        group.bench_function(BenchmarkId::new("writer", threads), |b| {
            b.iter_with_setup(
                || {
                    spent.borrow_mut().clear();
                    fresh_segments(threads, 0)
                },
                |mut segs| {
                    std::thread::scope(|s| {
                        for (seg, bytes) in segs.iter_mut().zip(shares()) {
                            s.spawn(move || {
                                let mut w = SegmentWriter::new(seg);
                                for chunk in bytes.chunks(SHM_WRITE_CHUNK) {
                                    w.write(chunk).unwrap();
                                }
                                w.finish().unwrap();
                            });
                        }
                    });
                    spent.borrow_mut().extend(segs);
                },
            );
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_shutdown,
    bench_protocol_round_trip,
    bench_shm_write
);
criterion_main!(benches);
