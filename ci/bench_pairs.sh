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
#
# Exits 1 if any run reports `failed` > 0, 2 on a usage error. The host's
# load average is printed before and after: a pair run beside a busy
# neighbour measures the neighbour.
set -euo pipefail

usage() {
    echo "usage: ci/bench_pairs.sh PARENT_BIN CHANGE_BIN --workload W --seed S [--pairs 10]" >&2
    exit 2
}

[ $# -ge 2 ] || usage
parent=$1
change=$2
shift 2
workload=
seed=
pairs=10
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
    --workload) workload=$2 ;;
    --seed) seed=$2 ;;
    --pairs) pairs=$2 ;;
    *) usage ;;
    esac
    shift 2
done
[ -n "$workload" ] && [ -n "$seed" ] || usage
[ -x "$parent" ] && [ -x "$change" ] || usage

spec="$(cd "$(dirname "$0")/.." && pwd)/BENCHMARK.json"
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
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run parent "$parent" "$pair"
        run change "$change" "$pair"
    else
        run change "$change" "$pair"
        run parent "$parent" "$pair"
    fi
done
echo "$workload seed $seed: $pairs alternating pairs, load average $load_before before, $(load) after"

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
    function summary(side, m,    n, i, j, t, v, med, q1, q3) {
        n = 0
        for (i = 1; i <= pairs; i++) if ((i, side, m) in val) v[++n] = val[i, side, m]
        for (i = 2; i <= n; i++) {
            t = v[i]
            for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]
            v[j + 1] = t
        }
        med = quantile(v, n, 0.5); q1 = quantile(v, n, 0.25); q3 = quantile(v, n, 0.75)
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
            printf "%-16s | %-40s | %-40s | %d of %d (%d tied)\n", m, summary("parent", m), summary("change", m), ahead, pairs, ties
        }
    }
'
exit "$failed"
