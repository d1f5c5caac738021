#!/usr/bin/env bash
# Panic lint: the answer path returns errors, it does not abort. A
# statement, a record or a model state arriving from outside must never
# reach an `unwrap()`, `expect(`, `unreachable!` or `panic!` — a NaN in
# a comparator and an empty input behind a `min_by` did, four times.
#
# Scans the non-test source of every crate under crates/ but the ones
# EXEMPT names (a file's code up to its `#[cfg(test)]`, comments cut at
# `//`) and fails on a site that ci/panic_allowlist.txt does not list.
# A new crate is linted unless it is added to EXEMPT with its reason. An entry is the site as
# `<file>: <source line, trimmed>` under a `#` line giving the reason:
# the invariant the surrounding code establishes, not "cannot happen".
# The list cannot grow silently, and an entry whose site is gone fails
# too. Run from the repo root:
#
#   ci/panic_lint.sh
set -euo pipefail

cd "$(dirname "$0")/.."

ALLOWLIST=ci/panic_allowlist.txt

# Crates off the answer path, one line each: `<crate dir> <reason>`.
EXEMPT='
bench the experiment harness: it reports answers, it computes none
workload seeded generators of tables and query streams, run before a statement
graph the in-memory graph cache of E6, which never reads storage
'

# `<file>: <trimmed line>` for every panicking call outside tests.
sites() {
    for dir in crates/*/; do
        crate=$(basename "$dir")
        grep -q "^$crate " <<<"$EXEMPT" && continue
        find "crates/$crate/src" -name '*.rs' | sort | while IFS= read -r file; do
            awk -v file="$file" '
                /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
                {
                    code = $0
                    sub(/\/\/.*/, "", code)
                    if (code ~ /unwrap\(\)|expect\(|unreachable!|panic!/) {
                        sub(/^[[:space:]]+/, "")
                        print file ": " $0
                    }
                }' "$file"
        done
    done
}

status=0
found=$(sites)
while IFS= read -r site; do
    [ -n "$site" ] || continue
    if ! grep -qxF -- "$site" "$ALLOWLIST"; then
        echo "panic-lint: unlisted panic site (return an error, or list it with the invariant that rules it out):" >&2
        echo "  $site" >&2
        status=1
    fi
done <<<"$found"

# Every entry names a live site and sits under its reason.
previous=''
while IFS= read -r entry; do
    case "$entry" in
    '' | '#'*) ;;
    *)
        if ! grep -qxF -- "$entry" <<<"$found"; then
            echo "panic-lint: allowlist entry matches no site (remove it): $entry" >&2
            status=1
        fi
        case "$previous" in
        '#'*) ;;
        *)
            echo "panic-lint: allowlist entry without a reason line above it: $entry" >&2
            status=1
            ;;
        esac
        ;;
    esac
    previous=$entry
done <"$ALLOWLIST"

if [ "$status" -eq 0 ]; then
    echo "panic-lint: $(grep -c . <<<"$found") listed panic sites on the answer path, none new"
fi
exit "$status"
