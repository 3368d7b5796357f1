//! E6 — Compression factor (§2.1).
//!
//! Paper: "The data in the row block column is stored in a compressed
//! form. Compression reduces the size of the row block column by a factor
//! of about 30 ... a combination of dictionary encoding, bit packing,
//! delta encoding, and lz4 compression, with at least two methods applied
//! to each column."
//!
//! ```sh
//! cargo run --release -p scuba-bench --bin exp_compression
//! ```

use scuba::columnstore::encoding::CompressionCode;
use scuba::columnstore::{Table, Value};
use scuba::ingest::{WorkloadKind, WorkloadSpec};
use scuba_bench::{fmt_bytes, header};

fn raw_cell_bytes(v: &Value) -> usize {
    v.heap_size()
}

fn main() {
    header("E6", "column compression: ratio and methods per column");

    for kind in [
        WorkloadKind::ErrorLogs,
        WorkloadKind::Requests,
        WorkloadKind::AdsMetrics,
    ] {
        let rows = WorkloadSpec::new(kind, 7).rows(65_536);
        let mut table = Table::new(kind.table_name(), 0);
        for r in &rows {
            table.append(r, 0).unwrap();
        }
        table.seal(0).unwrap();
        let block = &table.blocks()[0];

        println!(
            "\n  table {:?} ({} rows, one row block)",
            kind.table_name(),
            rows.len()
        );
        println!(
            "    {:<14} {:>10} {:>12} {:>8} {:>9}  methods",
            "column", "raw", "encoded", "ratio", "methods#"
        );
        let mut total_raw = 0usize;
        let mut total_enc = 0usize;
        for (name, _ty) in block.schema().iter() {
            let rbc = block.column(name).unwrap();
            let raw: usize = if name == "time" {
                rows.len() * 8
            } else {
                rows.iter()
                    .map(|r| r.get(name).map(raw_cell_bytes).unwrap_or(0))
                    .sum()
            };
            let enc = rbc.len_bytes();
            total_raw += raw;
            total_enc += enc;
            let code = rbc.compression().unwrap();
            let mut methods = Vec::new();
            for (flag, label) in [
                (CompressionCode::DICTIONARY, "dict"),
                (CompressionCode::DELTA, "delta"),
                (CompressionCode::FOR, "for"),
                (CompressionCode::BITPACK, "bitpack"),
                (CompressionCode::SHUFFLE, "shuffle"),
                (CompressionCode::LZ, "lz"),
            ] {
                if code.has(flag) {
                    methods.push(label);
                }
            }
            println!(
                "    {:<14} {:>10} {:>12} {:>7.1}x {:>9}  {}",
                name,
                fmt_bytes(raw as u64),
                fmt_bytes(enc as u64),
                raw as f64 / enc as f64,
                code.method_count(),
                methods.join("+"),
            );
            assert!(
                code.method_count() >= 2,
                "paper promises >=2 methods per column"
            );
        }
        println!(
            "    {:<14} {:>10} {:>12} {:>7.1}x   (paper: ~30x overall)",
            "TOTAL",
            fmt_bytes(total_raw as u64),
            fmt_bytes(total_enc as u64),
            total_raw as f64 / total_enc as f64
        );
    }

    println!("\nnote: absolute ratios depend on the synthetic data's entropy; the shape to");
    println!("check is tens-of-x on service-log shaped columns with >=2 methods each.");
}
