#!/usr/bin/env bash
# Prints the stdout of every example under a `== <name>` header: the text
# examples_output.txt pins. No example reads a clock, so the text is the
# same at every SEA_EXEC_THREADS; the checkout's own path (the replay
# example prints the file it reads) is cut to a repo-relative one. Run
# from anywhere:
#
#   ci/examples_output.sh | diff - examples_output.txt
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
for example in quickstart exploratory_analytics geo_deployment operator_suite \
  raw_data_session tenant_stats repl; do
  echo "== $example"
  cargo run -q -p sea-bench --release --example "$example" | sed "s|$root/||g"
done
