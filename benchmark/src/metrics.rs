//! The catalogue: every workload and metric by name, with its unit,
//! direction, regression bound and — for a per-layer metric — the
//! end-to-end metric it is expected to move, and on which workload.
//! `BENCHMARK.json` is this table written out; a self-test keeps the two
//! in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct EndToEndMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `(end-to-end metric, workload)` pairs this metric should move; on
    /// every other pairing the prediction is no change. Empty for a
    /// denominator or a must-hold check.
    pub moves: &'static [(&'static str, &'static str)],
}

pub const PLANNED: &str = "planned_restart";
pub const CRASH: &str = "ingest_crash";
pub const SCAN: &str = "scan_mix";
pub const SERVE: &str = "serve_rollover";

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: PLANNED,
        why: "planned restart across a process boundary: restart, shmem, checksum and exit/exec do the work; ingest, cluster and disk do none",
    },
    Workload {
        name: CRASH,
        why: "steady ingest under checkpoints, then SIGKILL: columnstore append, WAL, checkpointer, diskstore carry ingest; attach, WAL replay, reconcile carry recovery",
    },
    Workload {
        name: SCAN,
        why: "reads only: six query shapes over hot, freshly attached and budget-exceeding cold blocks; restart layers appear only as the attach",
    },
    Workload {
        name: SERVE,
        why: "open-loop queries and ingest on a 2x2 hosted cluster while leaves restart one by one: admission, fan-out, merge under rollover",
    },
];

pub const END_TO_END: [EndToEndMetric; 7] = [
    EndToEndMetric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndMetric {
        name: "restart_first_answer_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndMetric {
        name: "restart_full_speed_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndMetric {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndMetric {
        name: "op_mean_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndMetric {
        name: "goodput_fraction",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.05,
    },
    EndToEndMetric {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.2,
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static [(&'static str, &'static str)],
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const FIRST: &str = "restart_first_answer_ms";
const FULL: &str = "restart_full_speed_ms";
const P50: &str = "op_p50_ms";
const MEAN: &str = "op_mean_ms";
const GOOD: &str = "goodput_fraction";
const RSS: &str = "peak_rss_mib";

pub const PER_LAYER: &[LayerMetric] = &[
    // host: roofline denominators, the fingerprint of the machine.
    layer("host.nproc", "count", Higher, &[]),
    layer("host.page_bytes", "B", Lower, &[]),
    layer("host.memcpy_gbps", "GB/s", Higher, &[]),
    // checksum
    layer(
        "checksum.crc_gbps",
        "GB/s",
        Higher,
        &[(FULL, PLANNED), (FIRST, SCAN)],
    ),
    // shmem
    layer(
        "shmem.first_touch_gbps",
        "GB/s",
        Higher,
        &[(FIRST, PLANNED)],
    ),
    layer("shmem.open_map_ms", "ms", Lower, &[(FIRST, PLANNED)]),
    // restart, planned path
    layer("restart.shutdown_ms", "ms", Lower, &[(FIRST, PLANNED)]),
    layer("restart.shutdown_bytes", "B", Lower, &[(FIRST, PLANNED)]),
    layer("restart.copy_out_gbps", "GB/s", Higher, &[(FIRST, PLANNED)]),
    layer(
        "restart.copy_out_roofline",
        "ratio",
        Higher,
        &[(FIRST, PLANNED)],
    ),
    layer(
        "restart.footprint_peak_ratio",
        "ratio",
        Lower,
        &[(RSS, PLANNED)],
    ),
    layer("restart.exit_ms", "ms", Lower, &[(FIRST, PLANNED)]),
    layer("restart.spawn_ms", "ms", Lower, &[(FIRST, PLANNED)]),
    layer("restart.start_ms", "ms", Lower, &[(FIRST, PLANNED)]),
    layer("restart.attach_heap_bytes", "B", Lower, &[(FIRST, PLANNED)]),
    layer("restart.first_query_ms", "ms", Lower, &[(FIRST, PLANNED)]),
    layer("restart.hydrate_ms", "ms", Lower, &[(FULL, PLANNED)]),
    layer("restart.hydrate_gbps", "GB/s", Higher, &[(FULL, PLANNED)]),
    layer("restart.memory_path_fraction", "ratio", Higher, &[]),
    layer("restart.breakdown_residual_pct", "%", Lower, &[]),
    // leaf, ingest path
    layer(
        "leaf.resident_bytes_per_row",
        "B/row",
        Lower,
        &[(RSS, PLANNED), (FIRST, PLANNED)],
    ),
    layer("leaf.ingest_rows_per_s", "rows/s", Higher, &[(MEAN, CRASH)]),
    layer("leaf.add_rows_p50_ms", "ms", Lower, &[(P50, CRASH)]),
    layer("leaf.add_rows_max_ms", "ms", Lower, &[(MEAN, CRASH)]),
    layer("leaf.slow_batch_fraction", "ratio", Lower, &[(MEAN, CRASH)]),
    layer("leaf.add_rows_busy_s", "s", Lower, &[(MEAN, CRASH)]),
    layer("leaf.sync_disk_p50_ms", "ms", Lower, &[(MEAN, CRASH)]),
    layer("leaf.sync_disk_busy_s", "s", Lower, &[(MEAN, CRASH)]),
    layer("leaf.checkpoint_and_wait_ms", "ms", Lower, &[(MEAN, CRASH)]),
    // restart::wal and the crash path
    layer("wal.bytes_per_row", "B/row", Lower, &[(FIRST, CRASH)]),
    layer("wal.bytes_at_kill", "B", Lower, &[(FIRST, CRASH)]),
    layer("wal.append_mbps", "MB/s", Higher, &[(P50, CRASH)]),
    layer("wal.sync_ms", "ms", Lower, &[(MEAN, CRASH)]),
    layer("wal.read_mbps", "MB/s", Higher, &[(FIRST, CRASH)]),
    layer("crash.spawn_ms", "ms", Lower, &[(FIRST, CRASH)]),
    layer("crash.start_ms", "ms", Lower, &[(FIRST, CRASH)]),
    layer("crash.replayed_records", "count", Lower, &[(FIRST, CRASH)]),
    layer("crash.first_query_ms", "ms", Lower, &[(FIRST, CRASH)]),
    layer("crash.hydrate_ms", "ms", Lower, &[(FULL, CRASH)]),
    layer("crash.fast_path_fraction", "ratio", Higher, &[]),
    layer("crash.acked_rows_lost", "rows", Lower, &[]),
    layer("crash.extra_rows", "rows", Lower, &[]),
    // diskstore
    layer("disk.recovery_ms", "ms", Lower, &[]),
    layer("disk.recover_read_ms", "ms", Lower, &[]),
    layer("disk.recover_translate_ms", "ms", Lower, &[]),
    layer("disk.recover_rows_per_s", "rows/s", Higher, &[]),
    layer("disk.bytes_per_row", "B/row", Lower, &[(MEAN, CRASH)]),
    // columnstore
    layer(
        "columnstore.append_us_per_row",
        "us/row",
        Lower,
        &[(P50, CRASH)],
    ),
    layer(
        "columnstore.seal_ms_per_block",
        "ms",
        Lower,
        &[(MEAN, CRASH)],
    ),
    layer(
        "columnstore.encoded_bytes_per_row.requests",
        "B/row",
        Lower,
        &[(RSS, PLANNED), (FIRST, PLANNED)],
    ),
    layer(
        "columnstore.encoded_bytes_per_row.dense",
        "B/row",
        Lower,
        &[(RSS, PLANNED), (FIRST, PLANNED)],
    ),
    // query
    layer("query.q_status_eq_ms", "ms", Lower, &[(P50, SCAN)]),
    layer("query.q_endpoint_eq_ms", "ms", Lower, &[(P50, SCAN)]),
    layer("query.q_latency_p99_ms", "ms", Lower, &[(P50, SCAN)]),
    layer("query.q_group_host_ms", "ms", Lower, &[(P50, SCAN)]),
    layer("query.q_time_slice_ms", "ms", Lower, &[(P50, SCAN)]),
    layer("query.q_zone_prune_ms", "ms", Lower, &[(P50, SCAN)]),
    layer("query.p99_ms", "ms", Lower, &[(MEAN, SCAN)]),
    layer("query.plan_us", "us", Lower, &[(P50, SCAN)]),
    layer("query.rows_scanned_per_s", "rows/s", Higher, &[(P50, SCAN)]),
    layer(
        "query.blocks_time_pruned_fraction",
        "ratio",
        Higher,
        &[(P50, SCAN)],
    ),
    layer(
        "query.blocks_zonemap_pruned_fraction",
        "ratio",
        Higher,
        &[(P50, SCAN)],
    ),
    layer("query.hot_pass_ms", "ms", Lower, &[(P50, SCAN)]),
    layer("query.mapped_pass_ms", "ms", Lower, &[(P50, SCAN)]),
    layer(
        "query.mapped_over_hot_ratio",
        "ratio",
        Lower,
        &[(P50, SCAN)],
    ),
    layer("query.first_touch_pass_ms", "ms", Lower, &[(FIRST, SCAN)]),
    layer(
        "query.first_touch_over_steady_ratio",
        "ratio",
        Lower,
        &[(FIRST, SCAN)],
    ),
    layer("query.cold_pass_ms", "ms", Lower, &[]),
    layer("query.cold_over_hot_ratio", "ratio", Lower, &[]),
    layer(
        "query.merge_us",
        "us",
        Lower,
        &[(GOOD, SERVE), (P50, SERVE)],
    ),
    // leaf::residency
    layer("leaf.cold_blocks", "count", Higher, &[]),
    layer("leaf.cold_bytes", "B", Higher, &[]),
    layer("leaf.demote_ms", "ms", Lower, &[]),
    layer("leaf.resident_over_budget_ratio", "ratio", Lower, &[]),
    // cluster
    layer("cluster.query_p50_ms", "ms", Lower, &[(P50, SERVE)]),
    layer("cluster.query_p90_ms", "ms", Lower, &[(MEAN, SERVE)]),
    layer("cluster.ingest_p50_ms", "ms", Lower, &[(GOOD, SERVE)]),
    layer("cluster.ingest_p90_ms", "ms", Lower, &[(GOOD, SERVE)]),
    layer("cluster.steady_query_p50_ms", "ms", Lower, &[(P50, SERVE)]),
    layer(
        "cluster.legs_shed_fraction",
        "ratio",
        Lower,
        &[(GOOD, SERVE)],
    ),
    layer(
        "cluster.legs_unavailable_fraction",
        "ratio",
        Lower,
        &[(GOOD, SERVE)],
    ),
    layer(
        "cluster.legs_late_fraction",
        "ratio",
        Lower,
        &[(GOOD, SERVE)],
    ),
    layer("cluster.legs_lost", "count", Lower, &[]),
    layer(
        "cluster.min_availability",
        "ratio",
        Higher,
        &[(GOOD, SERVE)],
    ),
    layer("cluster.memory_recoveries_fraction", "ratio", Higher, &[]),
    layer("cluster.waves", "count", Higher, &[]),
    layer(
        "cluster.wave_p90_ms",
        "ms",
        Lower,
        &[(FIRST, SERVE), (GOOD, SERVE)],
    ),
    layer("cluster.generator_lateness_p90_ms", "ms", Lower, &[]),
    layer("cluster.admit_roundtrip_us", "us", Lower, &[(P50, SERVE)]),
    // The tail of the foreground operation. It left the end-to-end list
    // because it does not repeat within 25 % on this host (see the README).
    layer("op_tail_ms", "ms", Lower, &[]),
    // the benchmark itself
    layer("trace.spans", "count", Lower, &[]),
    layer("trace.span_cost_pct", "%", Lower, &[]),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEndMetric> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static LayerMetric> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// `BENCHMARK.json`, as the catalogue says it should read.
pub fn manifest(run_seconds: u32) -> String {
    use crate::json::quote;
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.word()),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.word())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// Seconds one run measures for; `BENCHMARK.json` carries the same number.
pub const RUN_SECONDS: u32 = 10;

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit)));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn every_workload_reports_exactly_the_catalogued_end_to_end_metrics() {
        let reported = crate::workloads::EndToEnd::default().by_name();
        let reported: Vec<&str> = reported.iter().map(|(name, _)| *name).collect();
        let catalogued: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(reported, catalogued);
    }

    #[test]
    fn every_layer_metric_moves_something_that_exists() {
        for m in PER_LAYER {
            for (metric, on) in m.moves {
                assert!(
                    end_to_end(metric).is_some(),
                    "{}: no metric {metric}",
                    m.name
                );
                assert!(workload(on).is_some(), "{}: no workload {on}", m.name);
            }
        }
    }

    #[test]
    fn benchmark_json_is_the_catalogue() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest(RUN_SECONDS),
            "regenerate with `ledger manifest > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 << 10);
    }
}
