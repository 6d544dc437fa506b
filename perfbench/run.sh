#!/usr/bin/env bash
# Builds the release `simc` binary and the benchmark binary from the
# checkout this script sits in, then runs the benchmark:
#
#   bash perfbench/run.sh --workload all --seed 1994 --seconds 30 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON result.
# Honours CARGO_TARGET_DIR like cargo itself.
#
# The benchmark, and every process it starts, runs pinned to one CPU
# (the last this shell may use) when `taskset` is available. On a small
# shared virtual machine a hand-off between processes or threads on
# different virtual CPUs waits for the host to run the other one, and
# that wait swings with the host's load; on one CPU the hand-offs stay
# local. The daemon's worker threads then share that CPU.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --quiet --bin simc >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
simc_dir="${CARGO_TARGET_DIR:-target}"
bench_dir="${CARGO_TARGET_DIR:-perfbench/target}"
pin=()
if cpus=$(taskset -pc $$ 2>/dev/null); then
    cpus="${cpus##*: }"
    pin=(taskset -c "${cpus##*[,-]}")
fi
exec "${pin[@]}" "$bench_dir/release/perfbench" --simc "$simc_dir/release/simc" "$@"
