#!/usr/bin/env bash
# Unused-dependency lint: a manifest declares what the source names. For
# every crate under crates/, each `[dependencies]` entry must be named
# (as an identifier: `sea-knn` is `sea_knn`) in the crate's src/, and
# each `[dev-dependencies]` entry in its src/ (test modules, doctests),
# its tests/ or a file one of its `[[test]]` / `[[example]]` targets
# points at. An entry only the tests name belongs under
# `[dev-dependencies]`; an entry nothing names is deleted. There are no
# exceptions and no allowlist.
#
# Grep-level on purpose (like ci/orphan_lint.sh): plain `//` comments are
# cut, doc comments are kept because doctests build against the
# manifest too. Run from the repo root:
#
#   ci/unused_deps.sh
set -euo pipefail

cd "$(dirname "$0")/.."

# Whether identifier $1 occurs in the code of any of the remaining
# arguments (files or directories; missing ones are skipped).
named() {
    local ident=$1
    shift
    local paths=()
    for p in "$@"; do
        [ -e "$p" ] && paths+=("$p")
    done
    [ ${#paths[@]} -gt 0 ] || return 1
    find "${paths[@]}" -name '*.rs' -print0 |
        xargs -0 sed -E 's#(^|[^/])//([^/!].*)?$#\1#' |
        grep -E "(^|[^A-Za-z0-9_])${ident}([^A-Za-z0-9_]|\$)" >/dev/null
}

# `<section> <name>` for every entry of the two dependency tables.
entries() {
    awk '
        /^\[/ { section = $0; gsub(/[][]/, "", section) }
        (section == "dependencies" || section == "dev-dependencies") &&
            /^[A-Za-z0-9_-]+(\.workspace)? *=/ {
            name = $1
            sub(/\.workspace$/, "", name)
            sub(/=.*/, "", name)
            print section, name
        }' "$1"
}

status=0
for manifest in crates/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    # Files the manifest builds from outside the crate directory.
    mapfile -t targets < <(sed -nE 's|^path = "(.*)"$|'"$dir"'/\1|p' "$manifest")
    while read -r section name; do
        ident=${name//-/_}
        if [ "$section" = dependencies ]; then
            named "$ident" "$dir/src" && continue
            if named "$ident" "$dir/tests" "${targets[@]}"; then
                echo "unused-deps: $manifest: $name is named by tests/examples only: move it to [dev-dependencies]" >&2
            else
                echo "unused-deps: $manifest: $name is declared but never named" >&2
            fi
        else
            named "$ident" "$dir/src" "$dir/tests" "${targets[@]}" && continue
            echo "unused-deps: $manifest: dev-dependency $name is declared but never named" >&2
        fi
        status=1
    done < <(entries "$manifest")
done

if [ "$status" -eq 0 ]; then
    echo "unused-deps: every manifest entry under crates/ is named by the code it builds"
fi
exit "$status"
