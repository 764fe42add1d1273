#!/usr/bin/env bash
# Full local gate: everything CI would run, offline.
#
#   scripts/check.sh            # build + tests + fmt + clippy
#
# The build is fully vendored (see vendor/), so --offline always works.
# The workspace build and the harness tests run --locked: a manifest edit
# that would rewrite Cargo.lock or benchmark/Cargo.lock (which records
# annoda-serve's crate graph for the frozen harness) stops there with
# cargo's own message instead of at the clean-tree check at the end.
set -euo pipefail
cd "$(dirname "$0")/.."
before="$(git status --porcelain)"

echo "== cargo build --release --locked =="
cargo build --release --offline --locked --workspace

echo "== cargo build --examples =="
cargo build --release --offline --examples

# The root package (annoda-repro) is a workspace member, so this one run
# covers every tests/*.rs suite and every crate's own unit and
# integration tests; none is re-run below.
echo "== cargo test =="
cargo test -q --offline --workspace

# The B15 smoke shards the store 1 -> 2 -> 4 ways under 4 concurrent
# MVCC writers and fails if commit throughput stops growing with the
# shard count or concurrent readers' pinned-snapshot p99 leaves 2x of
# the idle baseline.
echo "== sharded MVCC store smoke (B15) =="
cargo run --release --offline -p annoda-bench --bin bench_report -- sharded --smoke

# The benchmark harness justifies deletions, so the gate builds and
# exercises it: its unit tests, then every workload for 2 s against the
# real annoda-serve (writes nothing). It is a package of its own with
# path deps on crates/*, so this is also what notices an API the frozen
# harness depends on being removed.
echo "== benchmark harness unit tests =="
(cd benchmark && cargo test -q --offline --locked)

echo "== benchmark smoke (all four workloads, oracle-checked) =="
benchmark/run.sh --smoke

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy =="
cargo clippy --offline --workspace --all-targets -- -D warnings

# A doc link to a deleted or private item is an error, not a warning.
echo "== cargo doc (links cannot dangle) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

# Smoke runs write no artefact and every build output is ignored, so a
# green gate leaves the tree exactly as it found it.
echo "== the gate left the tree clean =="
if [ "$(git status --porcelain)" != "$before" ]; then
    echo "error: the gate changed the working tree:" >&2
    git status --porcelain >&2
    exit 1
fi

echo "== OK =="
