#!/usr/bin/env bash
# The one command: builds the benchmark package and runs it.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds N] [--quick]
#       Runs the four workloads (or the one named), each in two fresh
#       processes: untraced for the end-to-end metrics, then traced for the
#       per-layer ones. Prints every metric as `workload name value unit`,
#       writes benchmark/results/latest.json, and exits non-zero if any
#       oracle failed. --quick: 1 round x 1 s per phase, oracles still on.
#
#   benchmark/run.sh --workload NAME --seed N --seconds N --trace 0|1
#       One run of one workload, as BENCHMARK.json's `command` is invoked:
#       the last line of standard output is the result object.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

# The default seed, the same as the binary's own; recorded in latest.json.
workload="" trace="" seed=20050404 quick=0
pass=()
while (($#)); do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) pass+=(--seconds "$2"); shift 2 ;;
    --quick) quick=1; pass+=(--quick); shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

pass+=(--seed "$seed")

# Cargo's own output goes to standard error: standard output is the report.
cargo build --release --offline --manifest-path benchmark/Cargo.toml 1>&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/wfrc-benchmark"

if [[ -n "$trace" ]]; then
  exec "$bin" --workload "$workload" --trace "$trace" "${pass[@]}"
fi

workloads=(pq churn graph server)
[[ -n "$workload" ]] && workloads=("$workload")
status=0
body=""
for w in "${workloads[@]}"; do
  lines=()
  for t in 0 1; do
    if ! out="$("$bin" --workload "$w" --trace "$t" "${pass[@]}")"; then
      echo "run.sh: $w (trace $t) FAILED" >&2
      status=1
      continue 2
    fi
    sed '$d' <<<"$out"
    lines+=("$(tail -n 1 <<<"$out")")
  done
  body+="${body:+, }\"$w\": {\"end_to_end\": ${lines[0]}, \"per_layer\": ${lines[1]}}"
done

mkdir -p benchmark/results
printf '{"seed": %s, "quick": %s, "workloads": {%s}}\n' \
  "$seed" "$([[ $quick == 1 ]] && echo true || echo false)" "$body" \
  >benchmark/results/latest.json
echo "run.sh: wrote benchmark/results/latest.json" >&2
exit "$status"
