#!/usr/bin/env bash
# Non-test source lines per crate: every `crates/*/src/**/*.rs` file
# counted up to its first `#[cfg(test)]` line (the cut
# ci/panic_lint.sh makes), then a total. Informational: no gate. Run
# from anywhere:
#
#   ci/src_lines.sh
set -euo pipefail

cd "$(dirname "$0")/.."

total=0
for dir in crates/*/; do
    crate=$(basename "$dir")
    lines=$(find "crates/$crate/src" -name '*.rs' | sort | while IFS= read -r file; do
        awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file"
    done | awk '{ s += $1 } END { print s + 0 }')
    printf '%-12s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
