//! E3 — Memory footprint during the copy (§4.4).
//!
//! Paper: "there is still not enough physical memory free to allocate
//! enough space for it in shared memory, copy it all, and then free it
//! from the heap. Instead, we copy data gradually ... this method keeps
//! the total memory footprint of the leaf nearly unchanged during both
//! shutdown and restart."
//!
//! We compare the protocol's incremental strategy against the naive
//! all-at-once strategy it replaced, measuring peak (heap + shm) bytes.
//!
//! ```sh
//! cargo run --release -p scuba-bench --bin exp_footprint
//! ```

use scuba::restart::ShmPersistable;
use scuba::shmem::{SegmentWriter, ShmSegment};
use scuba_bench::{build_leaf, fmt_bytes, header, LeafRig};

fn main() {
    header(
        "E3",
        "memory footprint during backup: incremental vs naive full copy",
    );

    println!(
        "\n  {:>10} {:>12} {:>16} {:>14} {:>16} {:>14}",
        "rows", "initial", "incremental pk", "overhead", "naive peak", "overhead"
    );
    for rows in [100_000usize, 300_000, 1_000_000] {
        // Incremental (the paper's method 2, as implemented): one row
        // block column at a time, freeing heap as it goes.
        let rig = LeafRig::new("e3i");
        let mut server = build_leaf(&rig, rows);
        let initial = server.memory_used();
        let summary = server.shutdown_to_shm(0).expect("shutdown");
        let incremental_peak = summary.backup.peak_footprint;

        // Naive: serialize EVERYTHING into one shm segment while the heap
        // copy still exists, then free the heap — the strategy §4.4 says
        // does not fit in memory at production scale.
        let rig2 = LeafRig::new("e3n");
        let server2 = build_leaf(&rig2, rows);
        let initial2 = server2.memory_used();
        let mut seg = ShmSegment::create(&rig2.namespace().table_segment_name(0), 0).unwrap();
        let mut writer = SegmentWriter::new(&mut seg);
        // Write all table images while the store still holds them.
        {
            let store = server2.store();
            for table in store.map().iter() {
                let mut image = Vec::new();
                for block in table.blocks() {
                    block.serialize(&mut image);
                }
                writer.write(&image).unwrap();
            }
        }
        let shm_bytes = writer.position();
        // Peak: full heap + full shm copy + the transient serialization
        // buffer (we charge only heap+shm, the favorable case).
        let naive_peak = server2.store().heap_bytes() + shm_bytes;
        writer.finish().unwrap();

        println!(
            "  {:>10} {:>12} {:>16} {:>13.1}% {:>16} {:>13.1}%",
            rows,
            fmt_bytes(initial as u64),
            fmt_bytes(incremental_peak as u64),
            (incremental_peak as f64 / initial as f64 - 1.0) * 100.0,
            fmt_bytes(naive_peak as u64),
            (naive_peak as f64 / initial2 as f64 - 1.0) * 100.0,
        );
    }

    println!("\npaper: incremental copy keeps the footprint \"nearly unchanged\"; the naive");
    println!(
        "strategy needs ~2x the data size (impossible at 10-15 GB per leaf on a full machine)."
    );
    println!("\nrestore side: consumed shared-memory pages are punched out (fallocate");
    println!("PUNCH_HOLE) as data returns to heap, so the restore peak is also ~1x; the");
    println!("restore report's peak_footprint field asserts this in the integration tests.");
}
