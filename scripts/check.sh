#!/usr/bin/env bash
# Full local gate: everything CI would run, offline.
#
#   scripts/check.sh            # build + tests + fmt + clippy
#
# The build is fully vendored (see vendor/), so --offline always works.
set -euo pipefail
cd "$(dirname "$0")/.."
before="$(git status --porcelain)"

echo "== cargo build --release =="
cargo build --release --offline --workspace

echo "== cargo build --examples =="
cargo build --release --offline --examples

# The root package (annoda-repro) is a workspace member, so this one run
# covers tests/*.rs — persist_recovery, sharded_props, replica_e2e,
# replica_props, stream_props, federation_e2e — and every crate's own
# suites (annoda-stream's feed failover among them); none is re-run below.
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
(cd benchmark && cargo test -q --offline)

echo "== benchmark smoke (all four workloads, oracle-checked) =="
benchmark/run.sh --smoke

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy =="
cargo clippy --offline --workspace --all-targets -- -D warnings

# Smoke runs write no artefact and every build output is ignored, so a
# green gate leaves the tree exactly as it found it.
echo "== the gate left the tree clean =="
if [ "$(git status --porcelain)" != "$before" ]; then
    echo "error: the gate changed the working tree:" >&2
    git status --porcelain >&2
    exit 1
fi

echo "== OK =="
