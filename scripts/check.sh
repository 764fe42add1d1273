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

echo "== cargo test =="
cargo test -q --offline --workspace

echo "== crash-consistency harness (annoda-persist) =="
cargo test -q --offline --test persist_recovery

# The B12 smoke run fails if throughput at 16 connections drops below
# throughput at 1 connection — the event-loop regression guard.
echo "== serve loadgen smoke (B12) =="
cargo run --release --offline -p annoda-bench --bin bench_report -- serve --smoke

echo "== persistence smoke (B9) =="
cargo run --release --offline -p annoda-bench --bin bench_report -- persist --smoke

echo "== query-serving smoke (B10) =="
cargo run --release --offline -p annoda-bench --bin bench_report -- query-serve --smoke

echo "== federation smoke (B11) =="
cargo run --release --offline -p annoda-bench --bin bench_report -- federation --smoke

# The B13 smoke keeps the full 10k-locus corpus and fails if indexed
# top-k diverges from the naive-scan oracle (recall < 1.0), if the p50
# speedup falls under 10x, or if the tri-source locus stops outranking
# single-source hits.
echo "== ranked-search smoke (B13) =="
cargo run --release --offline -p annoda-bench --bin bench_report -- search --smoke

# The B14 smoke spins up a leader plus two WAL-shipping followers,
# checks aggregate read throughput does not fall as serving nodes are
# added, and fails if follower lag does not converge to zero after the
# write load stops.
echo "== replication smoke (B14) =="
cargo run --release --offline -p annoda-bench --bin bench_report -- replication --smoke

# The B15 smoke shards the store 1 -> 2 -> 4 ways under 4 concurrent
# MVCC writers and fails if commit throughput stops growing with the
# shard count or concurrent readers' pinned-snapshot p99 leaves 2x of
# the idle baseline.
echo "== sharded MVCC store smoke (B15) =="
cargo run --release --offline -p annoda-bench --bin bench_report -- sharded --smoke

# The B16 smoke tails a live change feed into a serving node under a
# mixed read load and fails if read p99 leaves 2x of the idle baseline
# at any mutation rate, or if the absorbed state is not byte-identical
# to a full re-fetch.
echo "== streaming change-feed smoke (B16) =="
cargo run --release --offline -p annoda-bench --bin bench_report -- stream --smoke

echo "== sharded store byte-identity + commit-conflict properties =="
cargo test -q --offline --test sharded_props

echo "== kill-the-leader failover e2e (leader + 2 followers over TCP) =="
cargo test -q --offline --test replica_e2e

echo "== replication resume/corruption properties =="
cargo test -q --offline --test replica_props

echo "== stream absorb-equivalence + resume properties =="
cargo test -q --offline --test stream_props

echo "== kill-the-source feed failover e2e (tailer resumes at acked seq) =="
cargo test -q --offline -p annoda-stream

echo "== federation e2e (3 source-servers over TCP) =="
cargo test -q --offline --test federation_e2e

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
