//! E2 — Shutdown (copy-to-shm) latency (§4.3).
//!
//! Paper: "Usually, the leaf copies its data to shared memory and exits
//! in 3-4 seconds. However, the loop ensures that we kill the leaf server
//! if it has not shut down after 3 minutes."
//!
//! ```sh
//! cargo run --release -p scuba-bench --bin exp_shutdown
//! ```

use scuba::cluster::SimConfig;
use scuba_bench::{build_leaf, fmt_bytes, fmt_dur, header, row, table_header, LeafRig};

fn main() {
    header(
        "E2",
        "clean-shutdown latency: copying the heap into shared memory",
    );

    println!("\n-- real execution, size sweep --\n");
    println!(
        "  {:>10} {:>12} {:>12} {:>14} {:>16}",
        "rows", "resident", "copied", "shutdown", "copy rate"
    );
    let mut last_rate = 0.0;
    for rows in [30_000usize, 100_000, 300_000, 1_000_000] {
        let rig = LeafRig::new("e2");
        let mut server = build_leaf(&rig, rows);
        let resident = server.memory_used() as u64;
        let summary = server.shutdown_to_shm(0).expect("shutdown");
        let secs = summary.backup.duration.as_secs_f64();
        last_rate = summary.backup.bytes_copied as f64 / secs;
        println!(
            "  {:>10} {:>12} {:>12} {:>14} {:>11}/s",
            rows,
            fmt_bytes(resident),
            fmt_bytes(summary.backup.bytes_copied),
            fmt_dur(secs),
            fmt_bytes(last_rate as u64),
        );
    }

    println!("\n-- projection to paper scale --\n");
    let cfg = SimConfig::paper_defaults();
    table_header();
    row(
        "copy 15 GB leaf to shm at paper's mem bw",
        "3-4 s",
        &fmt_dur(cfg.data_per_leaf_bytes as f64 / cfg.mem_bw_machine as f64),
    );
    row(
        "copy 15 GB at our measured copy rate",
        "(same order)",
        &fmt_dur(15.0 * 1024.0 * 1024.0 * 1024.0 / last_rate),
    );
    println!("\nthe kill path (a failed shutdown is a kill; the replacement recovers from disk) is exercised by tests/rollover.rs.");
}
