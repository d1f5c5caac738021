#!/usr/bin/env bash
# Non-test source lines and `pub fn` items per crate, then per shim:
# every `crates/*/src/**/*.rs` and `shims/*/src/**/*.rs` file counted up
# to its first `#[cfg(test)]` line (the cut ci/panic_lint.sh makes), with
# a total after each section. A `pub fn` is a line that opens with
# `pub fn` (or `pub const`/`async`/`unsafe fn`); `pub(crate)` and
# narrower are not counted. Informational: no gate. Run from anywhere:
#
#   ci/src_lines.sh
set -euo pipefail

cd "$(dirname "$0")/.."

# Prints a header and one `name lines pub_fns` line per package under
# $1, then $2 and the sums.
count_section() {
    local total=0 total_fns=0 dir name counts lines fns
    printf '%-18s %6s %7s\n' package lines pub_fns
    for dir in "$1"/*/; do
        name=$(basename "$dir")
        counts=$(find "$1/$name/src" -name '*.rs' | sort | while IFS= read -r file; do
            awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
                 { n++ }
                 /^[[:space:]]*pub ((const|async|unsafe) )*fn / { f++ }
                 END { print n + 0, f + 0 }' "$file"
        done | awk '{ s += $1; f += $2 } END { print s + 0, f + 0 }')
        read -r lines fns <<<"$counts"
        printf '%-18s %6d %7d\n' "$name" "$lines" "$fns"
        total=$((total + lines))
        total_fns=$((total_fns + fns))
    done
    printf '%-18s %6d %7d\n' "$2" "$total" "$total_fns"
}

count_section crates total
echo
count_section shims 'shims total'
