#!/usr/bin/env bash
# The CI steps that must run by name: experiment smokes that carry their
# own asserts, and suites run again under another env or profile than
# tier-1. Each section below was one CI job and keeps that job's env.
#
#   scripts/ci_smoke.sh               every section but `crash`
#   scripts/ci_smoke.sh crash [...]   only the named sections
#
# Run from anywhere; it works in the repository root. tests/ci_workflow.rs
# (tier-1) checks that every target and test filter named here exists.
set -euo pipefail
cd "$(dirname "$0")/.."

# The crash-wave chaos soak and the E16 crash-recovery smoke (which also
# publishes crash numbers into BENCH_restart.json). The test job runs this
# after tier-1, once per copy-pool width.
crash() (
    SCUBA_CHAOS_CRASH_WAVES=40 cargo test --release --test chaos chaos_soak_with_crash_waves -- --nocapture
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
# restoring byte-identically under the current binary, simulated
# old-writer images must memory-restore in both restore modes, and a
# mixed-writer chaos soak stands faults on cross-version images. The
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
# hydration tests must hold under both Eager and OnAccess semantics. The
# E17 smoke then drives the full path — kernels, in-place mapped scans,
# lazy hydration with an untouched cold table — end to end (its lazy
# section runs both hydration modes and asserts their results
# identical). The differential suite runs again in release at 2000 cases
# (whole results, f64 bit patterns included — release is where float
# codegen could differ), and the query bench runs each series once so the
# production-executor bench cannot rot.
scan_kernels() (
    cargo test -q -p scuba-columnstore
    cargo test -q -p scuba-query
    PROPTEST_CASES=2000 cargo test --release -q -p scuba-query --test differential
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
# invariant, orphan sweep, crash waves with a cold tier), and the E19
# smoke — a leaf serving 4x its budget with identical results and a
# copy-free cold re-attach.
tiered_storage() (
    export SCUBA_OBS=1 SCUBA_CHAOS_TIERING_WAVES=40
    cargo test -q -p scuba-diskstore
    cargo test --release -p scuba-leaf -- residency tier cold budget_never --nocapture
    cargo test --release --test format_compat fastformat -- --nocapture
    cargo test --release --test chaos chaos_soak_with_tiering -- --nocapture
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

sections=("$@")
if [ ${#sections[@]} -eq 0 ]; then
    sections=(observability format_compat scan_kernels self_telemetry tiered_storage serving)
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
