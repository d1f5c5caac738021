#!/usr/bin/env bash
# Non-test source lines per crate, then per shim: every
# `crates/*/src/**/*.rs` and `shims/*/src/**/*.rs` file counted up to
# its first `#[cfg(test)]` line (the cut ci/panic_lint.sh makes), with
# a total after each section. Informational: no gate. Run from
# anywhere:
#
#   ci/src_lines.sh
set -euo pipefail

cd "$(dirname "$0")/.."

# Prints one line per package under $1, then $2 and their sum.
count_section() {
    local total=0 dir name lines
    for dir in "$1"/*/; do
        name=$(basename "$dir")
        lines=$(find "$1/$name/src" -name '*.rs' | sort | while IFS= read -r file; do
            awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file"
        done | awk '{ s += $1 } END { print s + 0 }')
        printf '%-18s %6d\n' "$name" "$lines"
        total=$((total + lines))
    done
    printf '%-18s %6d\n' "$2" "$total"
}

count_section crates total
echo
count_section shims 'shims total'
