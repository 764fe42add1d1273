#!/usr/bin/env bash
# Non-test source lines per crate and in total.
#
#   scripts/loc.sh
#
# Counts, for every .rs file under crates/*/src, the lines before its
# first `#[cfg(test)]` (the whole file when it has none), so unit-test
# modules at the bottom of a file are left out. Integration tests,
# benches, examples and vendored crates are not under crates/*/src and
# are not counted.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/src; do
    crate="$(basename "$(dirname "$dir")")"
    lines=0
    while IFS= read -r -d '' file; do
        n="$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")"
        lines=$((lines + n))
    done < <(find "$dir" -name '*.rs' -print0)
    printf '%-12s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
