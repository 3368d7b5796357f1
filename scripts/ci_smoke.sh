#!/usr/bin/env bash
# The CI steps that must run by name: experiment smokes that carry their
# own asserts, suites run again under another env or profile than tier-1,
# and the ledger smoke. Each section below was one CI job and keeps that
# job's env.
#
#   scripts/ci_smoke.sh               every section but `crash`
#   scripts/ci_smoke.sh crash [...]   only the named sections
#
# Run from anywhere; it works in the repository root. tests/ci_workflow.rs
# (tier-1) checks that every target and test filter named here exists.
set -euo pipefail
cd "$(dirname "$0")/.."

# The crash-wave chaos soak, the replay differential (WAL records decoded
# straight into the builders must build what row-by-row appends build,
# through replay's fan_out at this width), the one-image tests (a crash
# start keeps its image and the next checkpoint extends it; a crash right
# after a commit leaves every listed segment linked; expiry or demotion
# right after a commit, then a crash, recovers exactly the durable rows),
# the open-block tests (a crash replays at most one open block per table;
# a record the image ends inside applies exactly its tail; the lag cap
# seals a slow table and frees the log behind it; rows open at an expiry
# reach the next image), the read-only-what-it-replays tests (a seal
# starts a segment and a crash start reads only the open blocks; a
# rotation anchors the disk logs it finds flushed; a disk start never
# reads an anchor; a rejected batch leaves memory, disk and log as they
# were; a seal rotates once; the reconcile re-appends the rows memory
# holds; a crash start keeps its own replay split), the checkpoint-fault test (a cycle wounded at each of the backup
# envelope's sites keeps serving and keeps its segments linked) and the
# E16 crash-recovery smoke (which asserts a crash attach copies nothing,
# replays at most one open block per table and reads only what it
# replays, prints the WAL and disk-log bytes it read, checks the checkpoint
# breakdown's phase sum against its total, and
# publishes crash numbers into BENCH_restart.json). The test job runs this
# after tier-1, once per copy-pool width.
crash() (
    SCUBA_CHAOS_CRASH_WAVES=40 cargo test --release --test chaos chaos_soak_with_crash_waves -- --nocapture
    cargo test --release -p scuba-leaf cell_replay_matches_row_replay -- --nocapture
    cargo test --release -p scuba-leaf --lib -- a_crash_start_keeps_its_image_and_the_next_checkpoint_extends_it \
        a_crash_after_a_checkpoint_commit_leaves_every_listed_segment_linked \
        expiry_or_demotion_after_a_commit_then_a_crash_recovers_exactly_the_durable_rows \
        a_crash_replays_at_most_one_open_block_per_table \
        a_record_the_image_ends_inside_applies_exactly_its_tail \
        the_lag_cap_seals_a_slow_table_and_frees_the_log_behind_it \
        rows_open_at_an_expiry_reach_the_next_image \
        a_seal_starts_a_segment_and_a_crash_start_reads_only_the_open_blocks \
        a_rotation_anchors_the_disk_logs_it_finds_flushed \
        a_disk_start_never_reads_an_anchor \
        a_rejected_batch_leaves_memory_disk_and_log_as_they_were \
        a_seal_rotates_once \
        a_reappended_tail_is_the_rows_memory_holds \
        crash_start_reports_its_replay_split --nocapture
    cargo test --release -p scuba-leaf --test checkpoint_faults a_wounded_checkpoint_keeps_serving_and_keeps_its_segments -- --nocapture
    cargo run --release -p scuba-bench --bin exp_restart_time -- --crash
)

# Run the restart-time experiment with metrics enabled, dump both
# expositions, then lint them offline: promtool-style checks on the text
# format and a zero-duration check on every instrumented phase. The
# overhead bench asserts the disabled hot path stays single-digit
# nanoseconds.
observability() (
    export SCUBA_OBS=1 SCUBA_OBS_DIR=/tmp/scuba-obs
    cargo run --release -p scuba-bench --bin exp_restart_time
    cargo run --release -p scuba-bench --bin exp_restart_time -- --attach-only
    cargo run --release -p scuba-bench --bin obs_lint -- /tmp/scuba-obs
    cargo bench -p scuba-bench --bench obs_overhead
)

# Layout-evolution gate: the checked-in pre-refactor (v1) images must keep
# restoring byte-identically under the current binary, a committed image
# rewritten in each old writer's layout (`leaf::compat`, test support)
# must memory-restore in both restore modes, and a mixed-writer chaos
# soak stands faults on cross-version images — the backup protocol's
# own faults included, since every wave shuts down through it. The
# attach smoke also publishes BENCH_restart.json for trend tracking.
format_compat() (
    export SCUBA_CHAOS_WAVES=30
    cargo test --release --test format_compat -- --nocapture
    cargo test --release --test leaf_restart old_writer -- --nocapture
    cargo test --release --test leaf_restart incompatible_table -- --nocapture
    cargo test --release --test chaos -- --nocapture
    cargo run --release -p scuba-bench --bin exp_restart_time -- --attach-only
)

# Vectorized-scan gate: the columnar kernels must stay differentially
# equal to the row-wise oracle (groups, counts, pruning stats) across
# encodings x null patterns x heap/mapped backing, and the leaf's
# kept-image and first-touch tests (`hydrat` selects the `hydrate` module
# and the `*_hydration` tests) must hold: a crash image and a planned
# image alike served in place, a corrupt mapped column failing the query
# that reads it and falling back at the next poll. The E17
# smoke then drives the full path — kernels, in-place mapped scans, a
# kept image whose untouched cold table copies 0 bytes — end to end,
# asserting every result equal to the heap leaf's. The differential suite runs again in release at 2000 cases
# (whole results, f64 bit patterns included — release is where float
# codegen could differ), and the query bench runs each series once so the
# production-executor bench cannot rot. A leaf scans a query's blocks on
# several threads and merges them in block order: its whole answer, and a
# corrupt block's error, must be the same at widths 1, 2, 3 and 8.
# Integer columns in each stored form (delta, frame of reference,
# dictionary) answer like the oracle on heap, mapped and cold blocks at
# those widths, and their parsers survive every byte flip and cut. The
# open block is scanned in place: a table with an open tail answers as
# with the tail sealed (pruning counters included) and decodes nothing
# more; the builder's string dictionary rolls back to the values left and
# seals in the bytes `RowBlockColumn::encode` writes; its kept bounds are
# the zone statistics of its cells; a leaf query over it encodes nothing;
# its dictionary index, grown by the hashes its slots keep, equals
# `encode`'s. An ungrouped integer Sum/Avg folds in i64 exactly where the
# f64 fold would be exact: each form sums in i64 at n·bound = 2^53 and
# falls back at 2^53 + 1, and the differential proptest's `big` column
# straddles that bound up to the ends of i64 (2000 cases, below), with
# the oracle's bits and scan counts.
scan_kernels() (
    cargo test -q -p scuba-columnstore
    cargo test -q -p scuba-query
    PROPTEST_CASES=2000 cargo test --release -q -p scuba-query --test differential
    cargo test --release -q -p scuba-query --test int_codes
    cargo test --release -q -p scuba-query --test int_codes -- sums_in_i64_up_to
    cargo test --release -q -p scuba-query --lib -- integer_sums_count_what_the_f64_fold_read
    cargo test --release -q -p scuba-columnstore --lib -- int_forms \
        an_int_dictionary_id_past_its_entries_is_corrupt double_lanes_lz_cannot_shrink \
        a_rolled_back_dictionary_seals_as_encode_writes_its_cells \
        an_incremental_dictionary_truncates_to_what_encode_makes \
        an_index_grown_by_stored_hashes_equals_encode \
        kept_bounds_are_the_zone_stats_of_the_cells rows_from_returns_the_rows_pushed
    PROPTEST_CASES=2000 cargo test --release -q -p scuba-query --test differential \
        an_open_tail_answers_as_its_sealed_form
    cargo test --release -q -p scuba-leaf --lib -- an_answer_is_the_same_at_every_width \
        fails_the_query_alike_at_every_width scan_width_gives_each_worker_two_blocks \
        a_query_reads_the_open_block_in_place
    cargo test --release -q -p scuba-restart --lib -- fan_out a_panicking_job_panics_the_run
    cargo test --release -p scuba-leaf hydrat -- --nocapture
    cargo run --release -p scuba-bench --bin exp_scan -- --scan-only
    cargo bench -p scuba-bench --bench query -- --test
)

# Scuba-on-scuba gate: the telemetry exporter ships the registry + restart
# spans through the normal ingest path into __scuba_telemetry, and the
# query-driven dashboard must agree with the registry-driven one through a
# rollover wave. The E18 smoke prices the loop end to end (ingest overhead
# <2%, SLO quantiles live, one-query trace reconstruction,
# shed-never-block) and publishes its numbers.
self_telemetry() (
    export SCUBA_OBS=1
    cargo test --release -p scuba-cluster telemetry -- --nocapture
    cargo run --release -p scuba-bench --bin exp_selfobs -- --smoke
)

# Tiered-storage gate: SIEVE residency (unit + property tests), the leaf's
# demotion/promotion/fault paths, the golden fast-format fixtures (byte
# stability + byte-identical cold queries), the tiered chaos soak (budget
# invariant, orphan sweep, crash waves with a cold tier) and the seed
# that once left a cold file no block read, and the E19
# smoke — a leaf serving 4x its budget with identical results and a
# copy-free cold re-attach.
tiered_storage() (
    export SCUBA_OBS=1 SCUBA_CHAOS_TIERING_WAVES=40
    cargo test -q -p scuba-diskstore
    cargo test --release -p scuba-leaf -- residency tier cold budget_never --nocapture
    cargo test --release --test format_compat fastformat -- --nocapture
    cargo test --release --test chaos chaos_soak_with_tiering -- --nocapture
    cargo test --release -q -p scuba-cluster --lib a_tiered_crash_soak_leaves_no_cold_file_behind
    cargo run --release -p scuba-bench --bin exp_tiered -- --smoke
)

# Serving-pipeline gate (DESIGN §17): admission queues (bounded depth,
# both shed policies, drain-on-close), the seeded load generator's
# conservation invariant (issued == ok + shed + unavailable), the hosted
# cluster's stop/start halves, the one rollover loop (pauses on a degraded
# feed, accelerates while healthy, deterministic event trace, a failed
# shutdown is a kill), the integration shed-path suite (shedding is
# backpressure, not an outage), the chaos soak with concurrent reader
# traffic, and the E20 smoke — a fleet rollover under closed+open-loop
# load with bounded p99, zero lost requests, and an availability floor —
# whose obs dump must carry every admission-control series. E4 and the
# two rollover examples then roll a real fleet end to end;
# error_monitoring asserts its dashboard loses no events.
serving() (
    export SCUBA_OBS=1 SCUBA_OBS_DIR=/tmp/scuba-serve-obs
    cargo test --release -p scuba-cluster -- admission host:: hosted:: loadgen rollover --nocapture
    cargo test --release -p scuba-cluster chaos::tests::loadgen -- --nocapture
    cargo test --release --test serving -- --nocapture
    cargo test --release --test rollover -- --nocapture
    cargo run --release -p scuba-bench --bin exp_serve -- --smoke
    cargo run --release -p scuba-bench --bin obs_lint -- --require-serving /tmp/scuba-serve-obs
    cargo run --release -p scuba-bench --bin exp_rollover
    cargo run --release --example cluster_rollover
    cargo run --release --example error_monitoring
)

# The ledger (benchmark/, a workspace of its own) at smoke size: every
# workload untraced, then traced, each answer checked against the
# generator's brute-force oracle. run.sh already exits non-zero when an
# operation fails; the result set is checked again so a run that wrote
# failures or wrong answers can never pass.
ledger() (
    dir="$(mktemp -d)"
    trap 'rm -rf "$dir"' EXIT
    benchmark/run.sh --smoke --out "$dir/ledger-smoke.json"
    if grep -Eo '"ops_failed": ([1-9]|null)|"correct": false' "$dir/ledger-smoke.json" >&2; then
        echo "ledger: failed operations or wrong answers" >&2
        exit 1
    fi
)

sections=("$@")
if [ ${#sections[@]} -eq 0 ]; then
    sections=(observability format_compat scan_kernels self_telemetry tiered_storage serving ledger)
fi
for section in "${sections[@]}"; do
    if ! declare -F "$section" >/dev/null; then
        echo "ci_smoke.sh: no section named $section" >&2
        exit 2
    fi
    echo "::group::$section"
    "$section"
    echo "::endgroup::"
done
