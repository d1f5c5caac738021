#!/usr/bin/env bash
# Paired wall-clock runs of one seabench workload: the loop every
# performance claim in this repository rests on (choosing-metrics, "at
# least ten pairs of parent and change, alternating which side runs
# first"). Give it two built seabench binaries — the parent commit's and
# the change's, each built into its own target directory (see the verify
# skill) — and it runs them in alternating pairs, one process at a time,
# then prints for every end-to-end metric of BENCHMARK.json both sides'
# median with [q1, q3], the interquartile range over the median, and in
# how many pairs the change read better (a tie counts for neither side).
#
#   ci/bench_pairs.sh PARENT_BIN CHANGE_BIN --workload W --seed S [--pairs 10]
#       [--record FILE --label TEXT]
#
# `--record FILE` also appends the table to FILE, a JSON array (created
# when missing; BENCH_trajectory.json at the repo root is the project's),
# as one object: the label naming the two builds compared (required with
# `--record`, e.g. `909df55 -> 3c1e2aa`), workload, seed,
# pairs, UTC date, both load averages, and per end-to-end metric its
# direction, both sides' median, q1 and q3, and the pairs the change led
# and tied.
#
# Exits 1 if any run reports `failed` > 0, 2 on a usage error. The host's
# load average is printed before and after: a pair run beside a busy
# neighbour measures the neighbour.
set -euo pipefail

usage() {
    echo "usage: ci/bench_pairs.sh PARENT_BIN CHANGE_BIN --workload W --seed S [--pairs 10] [--record FILE --label TEXT]" >&2
    exit 2
}

[ $# -ge 2 ] || usage
parent=$1
change=$2
shift 2
workload=
seed=
pairs=10
record=
label=
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
    --workload) workload=$2 ;;
    --seed) seed=$2 ;;
    --pairs) pairs=$2 ;;
    --record) record=$2 ;;
    --label) label=$2 ;;
    *) usage ;;
    esac
    shift 2
done
[ -n "$workload" ] && [ -n "$seed" ] || usage
[ -x "$parent" ] && [ -x "$change" ] || usage
# A label names the two builds; only a recorded run has one.
[ -z "$record$label" ] || { [ -n "$record" ] && [ -n "$label" ]; } || usage

root="$(cd "$(dirname "$0")/.." && pwd)"
spec="$root/BENCHMARK.json"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# One run: its `workload metric value unit` lines become
# `pair side metric value` rows; its last line is the JSON summary.
failed=0
run() {
    local side=$1 bin=$2 pair=$3
    "$bin" run --workload "$workload" --seed "$seed" --seconds 12 --trace 0 \
        --out "$tmp/$side-$pair" >"$tmp/stdout"
    awk -v w="$workload" -v p="$pair" -v s="$side" \
        '$1 == w && NF == 4 { print p, s, $2, $3 }' "$tmp/stdout" >>"$tmp/rows"
    if ! tail -n 1 "$tmp/stdout" | grep -q '"failed":0[,}]'; then
        echo "bench_pairs: pair $pair, $side: failed > 0" >&2
        tail -n 1 "$tmp/stdout" >&2
        failed=1
    fi
}

load() { cut -d' ' -f1-3 /proc/loadavg 2>/dev/null || echo "unknown"; }

load_before=$(load)
date=$(date -u +%Y-%m-%dT%H:%M:%SZ)
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run parent "$parent" "$pair"
        run change "$change" "$pair"
    else
        run change "$change" "$pair"
        run parent "$parent" "$pair"
    fi
done
load_after=$(load)
echo "$workload seed $seed: $pairs alternating pairs, load average $load_before before, $load_after after"

# Metric names and directions from BENCHMARK.json's `end_to_end` array
# (pretty-printed, one key per line), then the table.
awk '
    /"end_to_end"/ { inside = 1 }
    /"per_layer"/ { inside = 0 }
    inside && /"name"/ { gsub(/[",]/, ""); name = $2 }
    inside && /"better"/ { gsub(/[",]/, ""); print "direction", name, $2 }
' "$spec" | cat - "$tmp/rows" | awk '
    function quantile(v, n, q,    pos, lo, frac) {
        pos = (n - 1) * q
        lo = int(pos)
        frac = pos - lo
        return lo + 1 < n ? v[lo + 1] + frac * (v[lo + 2] - v[lo + 1]) : v[n]
    }
    # Median [q1, q3] and the interquartile range over the median of one
    # side of one metric.
    # `json` gets the same three numbers as a JSON object.
    function summary(side, m,    n, i, j, t, v, med, q1, q3) {
        n = 0
        for (i = 1; i <= pairs; i++) if ((i, side, m) in val) v[++n] = val[i, side, m]
        for (i = 2; i <= n; i++) {
            t = v[i]
            for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]
            v[j + 1] = t
        }
        med = quantile(v, n, 0.5); q1 = quantile(v, n, 0.25); q3 = quantile(v, n, 0.75)
        json = sprintf("{\"median\": %.6g, \"q1\": %.6g, \"q3\": %.6g}", med, q1, q3)
        return sprintf("%.6g [%.6g, %.6g] %.1f%%", med, q1, q3, med == 0 ? 0 : 100 * (q3 - q1) / med)
    }
    $1 == "direction" { order[++metrics] = $2; better[$2] = $3; next }
    { val[$1, $2, $3] = $4 + 0; if ($1 + 0 > pairs) pairs = $1 + 0 }
    END {
        printf "%-16s | %-40s | %-40s | %s\n", "metric", "parent: median [q1, q3] iqr/median", "change: median [q1, q3] iqr/median", "change ahead"
        for (k = 1; k <= metrics; k++) {
            m = order[k]
            ahead = ties = 0
            for (i = 1; i <= pairs; i++) {
                p = val[i, "parent", m]; c = val[i, "change", m]
                if (c == p) ties++
                else if ((better[m] == "higher") == (c > p)) ahead++
            }
            p = summary("parent", m); pj = json
            c = summary("change", m); cj = json
            printf "%-16s | %-40s | %-40s | %d of %d (%d tied)\n", m, p, c, ahead, pairs, ties
            if (out != "") {
                printf("%s\"%s\": {\"better\": \"%s\", \"parent\": %s, \"change\": %s, \"change_ahead\": %d, \"tied\": %d}", \
                    k > 1 ? ",\n    " : "", m, better[m], pj, cj, ahead, ties) > out
            }
        }
    }
' out="${record:+$tmp/metrics}"

# The object, appended to the array in $record: its closing bracket
# goes, the last element gains a comma, and the new one closes it again.
if [ -n "$record" ]; then
    entry=$(printf '  {"label": "%s", "workload": "%s", "seed": %s, "pairs": %s, "date": "%s",\n   "load_before": "%s", "load_after": "%s",\n   "metrics": {\n    %s\n  }}' \
        "$label" "$workload" "$seed" "$pairs" "$date" "$load_before" "$load_after" "$(cat "$tmp/metrics")")
    if [ -s "$record" ]; then
        sed '$d' "$record" | sed '$s/$/,/' >"$tmp/record"
        printf '%s\n]\n' "$entry" >>"$tmp/record"
        cp "$tmp/record" "$record"
    else
        printf '[\n%s\n]\n' "$entry" >"$record"
    fi
fi
exit "$failed"
