#!/usr/bin/env bash
# A/A (or A/B) check of the end-to-end metrics against their bounds.
#
#   benchmark/aa.sh [--runs N] [--seconds N] [--seed N] [--out FILE]
#                   [--a BINARY] [--b BINARY]
#
# Runs every workload of BENCHMARK.json N times (default 1) on each of two
# sides, in pairs that share a seed and alternate which side goes first.
# Without --a/--b both sides are the current tree's build, so any
# difference is noise: that is the A/A check. With two `wfrc-benchmark`
# binaries (build each commit once, into its own target directory) it is
# the comparison a later change reports. Prints, per workload and metric,
# both medians, by how much side B is worse than side A as a share of A,
# the bound, and each side's spread (quartile distance over median, from 4
# runs up). Exits non-zero if any metric is outside its bound — for an A/A
# check in either direction, for A/B only if B is the worse side. `setup_s`
# is outside only if it also differs by more than 0.05 s: BENCHMARK.json can
# state a bound as a share only, and a millisecond moves by a large share.
# A claim of "no regression" needs --runs 10 (about 40 minutes).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

runs=1 seconds="" seed=1000 out=benchmark/results/aa-latest.json a="" b=""
while (($#)); do
  case "$1" in
    --runs) runs="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --a) a="$2"; shift 2 ;;
    --b) b="$2"; shift 2 ;;
    *) echo "aa.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

if [[ -z "$a" ]]; then
  cargo build --release --offline --manifest-path benchmark/Cargo.toml 1>&2
  a="${CARGO_TARGET_DIR:-benchmark/target}/release/wfrc-benchmark"
fi
[[ -z "$b" ]] && b="$a"
mkdir -p "$(dirname "$out")"

exec python3 - "$a" "$b" "$runs" "$seconds" "$seed" "$out" <<'PY'
import json, os, statistics, subprocess, sys

a, b, runs, seconds, seed, out = sys.argv[1:7]
runs, seed = int(runs), int(seed)
spec = json.load(open("BENCHMARK.json"))
seconds = int(seconds) if seconds else spec["run_seconds"]
same = os.path.realpath(a) == os.path.realpath(b)
# Absolute floors under the relative bounds, in the metric's unit.
FLOOR = {"setup_s": 0.05}

def run(binary, workload, s):
    p = subprocess.run(
        [binary, "--workload", workload, "--seed", str(s), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    if p.returncode != 0:
        sys.exit(f"aa.sh: {binary} failed on {workload} (seed {s})")
    r = json.loads(p.stdout.strip().splitlines()[-1])
    if not r["correct"] or r["failed"]:
        sys.exit(f"aa.sh: {workload} (seed {s}): correct={r['correct']} failed={r['failed']}")
    return {k: v["value"] for k, v in r["metrics"].items()}

def spread(values):
    if len(values) < 4:
        return None
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

rows, ok = [], True
for w in [x["name"] for x in spec["workloads"]]:
    sides = {"a": [], "b": []}
    for i in range(runs):
        order = [("a", a), ("b", b)]
        for side, binary in (order if i % 2 == 0 else order[::-1]):
            sides[side].append(run(binary, w, seed + i))
            print(f"aa.sh: {w} run {i + 1}/{runs} side {side} done", file=sys.stderr)
    for m in spec["end_to_end"]:
        va = [r[m["name"]] for r in sides["a"]]
        vb = [r[m["name"]] for r in sides["b"]]
        ma, mb = statistics.median(va), statistics.median(vb)
        worse_by = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        allowed = max(m["bound"], FLOOR.get(m["name"], 0) / ma)
        within = abs(worse_by) <= allowed if same else worse_by <= allowed
        ok &= within
        rows.append({"workload": w, "metric": m["name"], "unit": m["unit"], "better": m["better"],
                     "bound": m["bound"], "median_a": ma, "median_b": mb, "b_worse_by": worse_by,
                     "spread_a": spread(va), "spread_b": spread(vb), "within_bound": within})

fmt = lambda x: "      -" if x is None else f"{x:7.4f}"
print(f"{'workload':8} {'metric':12} {'median A':>14} {'median B':>14} {'B worse by':>10} {'bound':>6} {'spread A':>8} {'spread B':>8}")
for r in rows:
    flag = "" if r["within_bound"] else "  OUTSIDE"
    print(f"{r['workload']:8} {r['metric']:12} {r['median_a']:14.4f} {r['median_b']:14.4f} "
          f"{r['b_worse_by']:10.4f} {r['bound']:6.2f} {fmt(r['spread_a'])}  {fmt(r['spread_b'])}{flag}")
json.dump({"same_build": same, "runs_per_side": runs, "seconds": seconds, "first_seed": seed,
           "nproc": os.cpu_count(), "ok": ok, "rows": rows}, open(out, "w"), indent=1)
print(f"aa.sh: {'all within bounds' if ok else 'OUTSIDE BOUNDS'}; wrote {out}", file=sys.stderr)
sys.exit(0 if ok else 1)
PY
