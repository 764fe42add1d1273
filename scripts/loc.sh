#!/usr/bin/env bash
# Non-test source lines per crate and in total.
#
#   scripts/loc.sh          # the working tree
#   scripts/loc.sh REV      # REV's counts next to the working tree's
#
# Counts, for every .rs file under crates/*/src, the lines before its
# first `#[cfg(test)]` (the whole file when it has none), so unit-test
# modules at the bottom of a file are left out. A `#[cfg(test)]` that
# only declares a module (`#[cfg(test)] mod name;`) does not end the
# count of the file it sits in; the module's own file is test-only and
# is not counted at all. Integration tests, benches, examples and
# vendored crates are not under crates/*/src and are not counted.
#
# With REV, that revision's crates/ is exported into a temporary
# directory (the working tree is left untouched) and both counts are
# printed with their difference.
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints "<crate> <lines>" for every crate under $1/crates, then
# "total <lines>".
count_tree() {
    local root="$1" total=0 dir crate lines file n
    for dir in "$root"/crates/*/src; do
        crate="$(basename "$(dirname "$dir")")"
        lines=0
        # Files declared by `#[cfg(test)] mod name;`, resolved like rustc:
        # next to lib.rs/main.rs/mod.rs, under foo/ for foo.rs.
        local skip=()
        while IFS= read -r -d '' file; do
            while IFS= read -r name; do
                local base
                case "$(basename "$file")" in
                    lib.rs | main.rs | mod.rs) base="$(dirname "$file")" ;;
                    *) base="${file%.rs}" ;;
                esac
                skip+=("$base/$name.rs" "$base/$name/mod.rs")
            done < <(awk '
                pending && match($0, /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z0-9_]+[[:space:]]*;/) {
                    line = $0
                    sub(/^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]+/, "", line)
                    sub(/[[:space:]]*;.*/, "", line)
                    print line
                }
                { pending = ($0 ~ /^[[:space:]]*#\[cfg\(test\)\]/) }
            ' "$file")
        done < <(find "$dir" -name '*.rs' -print0)
        while IFS= read -r -d '' file; do
            local skipped=0 s
            for s in "${skip[@]+"${skip[@]}"}"; do
                [ "$s" = "$file" ] && skipped=1
            done
            [ "$skipped" = 1 ] && continue
            # A `#[cfg(test)]` line is held until the next line shows
            # whether it gates a module declaration (skip both) or the
            # test code that ends the count.
            n="$(awk '
                pending {
                    pending = 0
                    if ($0 ~ /^[[:space:]]*(pub(\([^)]*\))?[[:space:]]+)?mod[[:space:]]+[A-Za-z0-9_]+[[:space:]]*;/) next
                    exit
                }
                /^[[:space:]]*#\[cfg\(test\)\]/ { pending = 1; next }
                { n++ }
                END { print n + 0 }
            ' "$file")"
            lines=$((lines + n))
        done < <(find "$dir" -name '*.rs' -print0)
        printf '%s %d\n' "$crate" "$lines"
        total=$((total + lines))
    done
    printf 'total %d\n' "$total"
}

if [ $# -eq 0 ]; then
    count_tree . | while read -r crate lines; do
        printf '%-12s %6d\n' "$crate" "$lines"
    done
    exit 0
fi

rev="$1"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
git archive "$rev" crates | tar -x -C "$tmp"
count_tree "$tmp" > "$tmp/rev.txt"
count_tree . > "$tmp/tree.txt"
short="$(git rev-parse --short "$rev")"
printf '%-12s %8s %8s %7s\n' crate "$short" tree delta
# Every crate of either side, in order, with total last.
awk '
    FNR == NR { a[$1] = $2; if (!($1 in seen)) { seen[$1] = 1; order[n++] = $1 }; next }
    { b[$1] = $2; if (!($1 in seen)) { seen[$1] = 1; order[n++] = $1 } }
    END {
        for (i = 0; i < n; i++) {
            c = order[i]
            if (c == "total") continue
            printf "%-12s %8d %8d %+7d\n", c, a[c], b[c], b[c] - a[c]
        }
        printf "%-12s %8d %8d %+7d\n", "total", a["total"], b["total"], b["total"] - a["total"]
    }
' "$tmp/rev.txt" "$tmp/tree.txt"
