#!/usr/bin/env bash
# Tier-1 verification, run exactly as the evaluation driver runs it but
# with --offline forced, so a network regression (any reintroduced
# external dependency) fails fast and loudly instead of hanging on
# registry retries. `.cargo/config.toml` additionally pins
# `net.offline = true` for plain cargo invocations.
#
# See DESIGN.md "Hermetic build policy" for why the workspace has zero
# external crates and how to vendor a substitute if one is ever needed.
set -euo pipefail
cd "$(dirname "$0")/.."

# Guard: no external registry dependencies may appear in any manifest.
if grep -RInE '^\s*(rand|proptest|criterion|crossbeam|parking_lot|bytes|serde|tokio|rayon)\b.*=' \
    Cargo.toml crates/*/Cargo.toml; then
    echo "ERROR: external registry dependency found in a manifest." >&2
    echo "This workspace is hermetic (DESIGN.md); vendor a substitute instead." >&2
    exit 1
fi

# Zero-tolerance static gates (ISSUE 4, extended by ISSUE 9):
#  * `-D warnings` turns every rustc warning into a build failure;
#  * `scalewall-lint --workspace` enforces the semantic determinism
#    rules D1–D7 (DESIGN.md "Determinism invariants" and "Semantic
#    determinism invariants") across the tiered tree. The scan emits a
#    `scalewall-lint/v2` JSON report which is then re-validated by the
#    in-repo parser: any violation, unused/malformed pragma, or
#    schema-invalid report fails the build.
export RUSTFLAGS="-D warnings"

cargo build --release --offline

lint_json="$(mktemp /tmp/scalewall-lint.XXXXXX.json)"
trap 'rm -f "$lint_json" "${kernel_bench:-}" "${zk_bench:-}" "${qos_bench:-}"' EXIT
cargo run --release --offline -p scalewall-lint -- --workspace --json "$lint_json"
cargo run --release --offline -p scalewall-lint -- --validate "$lint_json"

cargo test -q --offline --workspace

# Benchmark self-tests: `perfbench/` is a workspace of its own (path
# dependencies on the crates), so the workspace test above never builds
# it. Running its suite here makes removing or renaming a public name the
# benchmark uses fail verification instead of the benchmark run.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

# Correlated-fault scenario suite (ISSUE 2): replayable rack/region
# outage, partition, and drain-storm scenarios must stay green, and the
# fig2b bench binary must not bit-rot (tiny smoke sweep, output dropped).
cargo test -q --offline --test fault_scenarios
cargo run --release --offline -p scalewall-bench --bin fig2b_correlated_sweep -- --fast >/dev/null

# Replicated coordination plane (ISSUE 8): the linearizability-vs-oracle
# property suite and the replay-order pins must stay green.
cargo test -q --offline --test zk_replication
cargo test -q --offline --test replay_order

# Event-kernel microbench gate (ISSUE 7): smoke-run the kernel bench
# (every body once, no --bench), emit a JSON report, and validate both
# the fresh emission and the checked-in trajectory with the in-repo
# parser. Malformed output fails the build.
kernel_bench="$(mktemp /tmp/scalewall-event-kernel.XXXXXX.json)"
zk_bench="$(mktemp /tmp/scalewall-zk-replication.XXXXXX.json)"
# (`cargo test --bench` runs the target *without* cargo's `--bench` flag,
# i.e. in single-shot smoke mode; `--validate` exits before any timing.)
cargo test -q --offline -p scalewall-bench --bench event_kernel -- --json "$kernel_bench" >/dev/null
cargo test -q --offline -p scalewall-bench --bench event_kernel -- --validate "$kernel_bench"
cargo test -q --offline -p scalewall-bench --bench event_kernel -- --validate "$PWD/BENCH_event_kernel.json"

# Coordination-replication microbench gate (ISSUE 8): same smoke +
# validate recipe for the zk_replication bench and its trajectory.
cargo test -q --offline -p scalewall-bench --bench zk_replication -- --json "$zk_bench" >/dev/null
cargo test -q --offline -p scalewall-bench --bench zk_replication -- --validate "$zk_bench"
cargo test -q --offline -p scalewall-bench --bench zk_replication -- --validate "$PWD/BENCH_zk_replication.json"

# QoS/SLA overload suite (ISSUE 10): the diurnal-load admission sweep
# must not bit-rot (tiny smoke sweep, output dropped), and the qos_sla
# bench smoke run plus the checked-in trajectory must stay
# schema-valid.
qos_bench="$(mktemp /tmp/scalewall-qos-sla.XXXXXX.json)"
cargo run --release --offline -p scalewall-bench --bin fig_qos_sla -- --fast >/dev/null
cargo test -q --offline -p scalewall-bench --bench qos_sla -- --json "$qos_bench" >/dev/null
cargo test -q --offline -p scalewall-bench --bench qos_sla -- --validate "$qos_bench"
cargo test -q --offline -p scalewall-bench --bench qos_sla -- --validate "$PWD/BENCH_qos_sla.json"

echo "tier-1 verify: OK (offline)"
