#!/usr/bin/env bash
# Orphan lint: a `pub fn` nothing calls is surface every refactor must
# keep compiling and every reader must rule out. A public function under
# crates/*/src whose name occurs in no other file of the code the
# repository builds — crates/, examples/, tests/, benchmark/src — has no
# caller and no test outside its own file: delete it or make it private.
# There are no exceptions and no allowlist.
#
# Grep-level on purpose (like ci/determinism_lint.sh): a name counts as
# used when the identifier appears in the code of another file, so a
# common name (`new`, `len`) never trips it. Two mentions name a function
# without calling it and are stripped before identifiers are collected:
# `//` comments (doc comments included) and `pub use` re-exports. Run
# from the repo root:
#
#   ci/orphan_lint.sh
set -euo pipefail

cd "$(dirname "$0")/.."

# `<file>:<identifier>` for every identifier in a file's code: comments
# are cut at `//`, a `pub use` statement is skipped up to its `;`.
identifiers() {
    find crates examples tests benchmark/src -name '*.rs' -not -path '*/target/*' -print0 |
        xargs -0 awk '
            FNR == 1 { in_use = 0 }
            {
                line = $0
                sub(/\/\/.*/, "", line)
                if (in_use || line ~ /^[[:space:]]*pub use /) {
                    in_use = (line !~ /;/)
                    next
                }
                while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
                    print FILENAME ":" substr(line, RSTART, RLENGTH)
                    line = substr(line, RSTART + RLENGTH)
                }
            }'
}

# Every `<defining file>:<name>` whose name appears in no other file.
orphans() {
    identifiers |
        sort -u |
        awk -F: '
            { files[$2]++ }
            $1 ~ /^crates\/[^\/]+\/src\// { src[$1] = 1 }
            END {
                for (f in src) {
                    while ((getline line < f) > 0) {
                        rest = line
                        sub(/\/\/.*/, "", rest)
                        while (match(rest, /pub fn [A-Za-z_][A-Za-z0-9_]*/)) {
                            name = substr(rest, RSTART + 7, RLENGTH - 7)
                            if (files[name] == 1) print f ":" name
                            rest = substr(rest, RSTART + RLENGTH)
                        }
                    }
                    close(f)
                }
            }' |
        sort -u
}

found=$(orphans)
if [ -n "$found" ]; then
    sed 's/^/orphan-lint: pub fn used nowhere outside its file: /' <<<"$found" >&2
    exit 1
fi
echo "orphan-lint: every pub fn under crates/*/src is named outside its file"
