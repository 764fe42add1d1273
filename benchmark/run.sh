#!/usr/bin/env bash
# The repo's benchmark, one command.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
#                    [--smoke] [--repeat K]
#
# Builds the system under test (the real annoda-serve, release profile)
# and the harness, then runs the harness from the repository root. With
# --workload it runs that one workload and prints one JSON object as the
# last line of stdout (the form BENCHMARK.json's driver uses); without,
# it runs all four, prints one row per workload x metric and appends the
# set to benchmark/history.jsonl. See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

if [ ! -f Cargo.toml ] || [ ! -d crates/serve ] || [ ! -d vendor/rand ]; then
    echo "error: benchmark/run.sh measures the repository around it; $root has no crates/ to build" >&2
    exit 2
fi

# One target directory for both builds when the caller names one;
# otherwise the root workspace's own and a private one for the harness.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    case "$CARGO_TARGET_DIR" in
        /*) ;;
        *) CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR" ;;
    esac
    export CARGO_TARGET_DIR
    sut_target="$CARGO_TARGET_DIR"
    harness_target="$CARGO_TARGET_DIR"
else
    sut_target="$root/target"
    harness_target="$here/target"
fi

# Everything is vendored: never touch the network. Cargo reports on
# stderr, so stdout stays the harness's.
cargo build --release --offline -p annoda-serve --bin annoda-serve >&2
CARGO_TARGET_DIR="$harness_target" cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2

commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$harness_target/release/annoda-benchmark" \
    --sut "$sut_target/release/annoda-serve" \
    --out "benchmark/out" \
    --commit "$commit" \
    "$@"
