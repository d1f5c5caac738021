#!/usr/bin/env bash
# Orphan lint: a `pub fn` nothing calls is surface every refactor must
# keep compiling and every reader must rule out. A public function under
# crates/*/src whose name occurs in no other file of the code the
# repository builds — crates/, examples/, tests/, benchmark/src — has no
# caller and no test outside its own file: delete it or make it private.
# There are no exceptions and no allowlist.
#
# Grep-level on purpose (like ci/determinism_lint.sh): a name counts as
# used when another file's code calls it or names it by path — `.name(`,
# `name(` (or `name::<` with a turbofish) and `::name` — so a common name
# (`new`, `len`) never trips it, and a field, variable or declaration
# (`fn name(`) that shares a function's name does not keep it alive.
# Two more mentions name a function without calling it and are stripped
# before names are collected: `//` comments (doc comments included) and
# `pub use` re-exports. Run from the repo root:
#
#   ci/orphan_lint.sh
#
# It then prints, for information only (the exit status is the orphan
# check's), the census of second paths: every `pub fn` under
# crates/*/src whose name, outside its own file, occurs only in test
# code — crates/*/tests, tests/, or the part of a file after its
# `#[cfg(test)]`. Such a function has no caller in the experiments, the
# examples, seabench or the library itself; each one is either a
# reference kept on purpose or a candidate for deletion. A second list
# names every `pub fn` that, outside its own file, only test code and
# seabench (benchmark/src) name, and seabench does: what only the
# wall-clock benchmark keeps alive, to go in a change to the benchmark.
set -euo pipefail

cd "$(dirname "$0")/.."

# `<file>:<identifier>:<T|B|N>` for every identifier a file's code calls
# or names by path (T: test code, B: seabench's, N: the rest): comments are cut at
# `//`, a `pub use` statement is skipped up to its `;`, and a file's
# lines from its first `#[cfg(test)]` on are test code, as is every file
# under a `tests` directory.
identifiers() {
    find crates examples tests benchmark/src -name '*.rs' -not -path '*/target/*' -print0 |
        xargs -0 awk '
            FNR == 1 {
                in_use = 0
                in_test = (FILENAME ~ /^tests\// || FILENAME ~ /^crates\/[^\/]+\/tests\//)
                in_bench = (FILENAME ~ /^benchmark\//)
            }
            {
                line = $0
                sub(/\/\/.*/, "", line)
                if (line ~ /#\[cfg\(test\)\]/) in_test = 1
                if (in_use || line ~ /^[[:space:]]*pub use /) {
                    in_use = (line !~ /;/)
                    next
                }
                pos = 1
                while (match(substr(line, pos), /[A-Za-z_][A-Za-z0-9_]*/)) {
                    start = pos + RSTART - 1
                    pos = start + RLENGTH
                    before = substr(line, 1, start - 1)
                    path = before ~ /::$/
                    call = substr(line, pos) ~ /^[[:space:]]*(\(|::<)/ &&
                        before !~ /(^|[^A-Za-z0-9_])fn[[:space:]]+$/
                    if (path || call)
                        print FILENAME ":" substr(line, start, RLENGTH) ":" (in_test ? "T" : in_bench ? "B" : "N")
                }
            }'
}

# Every `<defining file>:<name>` whose name appears in no other file
# (`orphans`), every one named outside its file only in test code
# (`test_only`), and every one named outside its file only in test code
# and seabench's, seabench's among them (`bench_only`).
census() {
    identifiers |
        sort -u |
        awk -F: -v want="$1" '
            {
                key = $1 ":" $2
                if (!(key in seen)) { seen[key] = 1; files[$2]++ }
                if ($3 != "T") { plain[key] = 1 }
                if ($3 == "N") { library[key] = 1 }
                if ($3 == "B") { bench[$2] = 1 }
            }
            $1 ~ /^crates\/[^\/]+\/src\// { src[$1] = 1 }
            END {
                for (key in plain) {
                    split(key, parts, ":")
                    plain_files[parts[2]]++
                }
                for (key in library) {
                    split(key, parts, ":")
                    library_files[parts[2]]++
                }
                for (f in src) {
                    while ((getline line < f) > 0) {
                        rest = line
                        sub(/\/\/.*/, "", rest)
                        while (match(rest, /pub fn [A-Za-z_][A-Za-z0-9_]*/)) {
                            name = substr(rest, RSTART + 7, RLENGTH - 7)
                            rest = substr(rest, RSTART + RLENGTH)
                            others = files[name] - ((f ":" name) in seen)
                            if (want == "orphans" && others == 0) print f ":" name
                            if (want == "test_only" && others > 0 &&
                                plain_files[name] - ((f ":" name) in plain) == 0) print f ":" name
                            if (want == "bench_only" && (name in bench) &&
                                library_files[name] - ((f ":" name) in library) == 0) print f ":" name
                        }
                    }
                    close(f)
                }
            }' |
        sort -u
}

status=0
found=$(census orphans)
if [ -n "$found" ]; then
    sed 's/^/orphan-lint: pub fn used nowhere outside its file: /' <<<"$found" >&2
    status=1
else
    echo "orphan-lint: every pub fn under crates/*/src is named outside its file"
fi

test_only=$(census test_only)
echo "orphan-lint (information): pub fns named outside their file only in test code: $(grep -c . <<<"$test_only" || true)"
if [ -n "$test_only" ]; then
    sed 's/^/  /' <<<"$test_only"
fi

bench_only=$(census bench_only)
echo "orphan-lint (information): pub fns named outside their file only in test code and seabench's: $(grep -c . <<<"$bench_only" || true)"
if [ -n "$bench_only" ]; then
    sed 's/^/  /' <<<"$bench_only"
fi
exit "$status"
