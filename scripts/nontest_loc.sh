#!/usr/bin/env bash
# Non-test Rust lines under crates/: for each .rs file outside tests/ and
# benches/, the lines before its first `#[cfg(test)]` (the whole file if
# it has none). Prints one `count path` line per file, sorted by path,
# then `total N`. Run from anywhere; it reads the repo it lives in.
set -euo pipefail
cd "$(dirname "$0")/.."
find crates -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' \
    | LC_ALL=C sort \
    | while read -r f; do
        awk -v f="$f" '/#\[cfg\(test\)\]/ { exit } { n++ } END { printf "%d %s\n", n, f }' "$f"
    done \
    | awk '{ print; total += $1 } END { printf "total %d\n", total }'
