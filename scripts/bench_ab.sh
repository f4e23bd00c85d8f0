#!/usr/bin/env bash
# Interleaved A/B comparison of the working tree against a base git ref on
# the repository benchmark (perfbench/, declared in BENCHMARK.json).
#
#   scripts/bench_ab.sh <base-ref> [pairs] [seconds] [workload...]
#
# pairs defaults to 5, seconds to 10, the workloads to every one that
# BENCHMARK.json declares. The base is exported with `git archive` into a
# temporary directory (a killed run leaves nothing registered in the
# repository) and each tree builds into its own .bench_build/. Per workload,
# at the fixed seed 1, the script runs `perfbench/run.py --trace 0` once on
# each tree per pair, alternating which tree goes first. Then it prints, for
# every workload x end-to-end metric: both medians, both interquartile
# ranges, the median delta, the pairs the working tree won, and the failed
# ops on each side. A delta worse than the metric's BENCHMARK.json bound,
# or any failed op, is flagged and makes the exit status non-zero.
#
# Wall numbers drift with host load, so only interleaved runs of both trees
# compare; a number taken at another time or on another machine does not.
set -euo pipefail

if [[ $# -lt 1 ]]; then
  sed -n '2,19p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
fi
base_ref="$1"
pairs="${2:-5}"
seconds="${3:-10}"
shift $(($# < 3 ? $# : 3))

root="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
base_tree="$tmp/base"
results="$tmp/results"
mkdir -p "$base_tree" "$results"
git -C "$root" archive "$base_ref" | tar -x -C "$base_tree"
echo "base: $base_ref ($(git -C "$root" rev-parse --short "$base_ref")) in $base_tree"
echo "head: working tree $root ($(git -C "$root" rev-parse --short HEAD) + local changes)"

if [[ $# -gt 0 ]]; then
  workloads=("$@")
else
  mapfile -t workloads < <(python3 -c 'import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]: print(w["name"])' "$root/BENCHMARK.json")
fi

# Build both trees before anything is timed.
for tree in "$base_tree" "$root"; do
  (cd "$tree" && python3 perfbench/run.py --describe >/dev/null)
done

run_one() {  # tree side workload pair
  local out="$results/$3.$2.$4"
  if ! (cd "$1" && python3 perfbench/run.py --workload "$3" --seed 1 \
          --seconds "$seconds" --trace 0) >"$out.log" 2>&1; then
    echo "  $2 run $4 of $3 exited non-zero (see the failed-ops column)" >&2
  fi
  tail -n 1 "$out.log" >"$out.json"
}

for w in "${workloads[@]}"; do
  for ((i = 0; i < pairs; i++)); do
    echo "$w: pair $((i + 1))/$pairs"
    if ((i % 2 == 0)); then
      run_one "$base_tree" base "$w" "$i"
      run_one "$root" head "$w" "$i"
    else
      run_one "$root" head "$w" "$i"
      run_one "$base_tree" base "$w" "$i"
    fi
  done
done

python3 - "$root/BENCHMARK.json" "$results" "$pairs" "${workloads[@]}" <<'EOF'
import json
import os
import statistics
import sys

spec_path, results, pairs, workloads = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
metrics = json.load(open(spec_path))["end_to_end"]


def load(workload, side, i):
    try:
        with open(os.path.join(results, "%s.%s.%d.json" % (workload, side, i))) as f:
            return json.loads(f.read())
    except (OSError, ValueError):
        return None  # the run died before printing its result object


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


flagged = []
print("\n%-11s %-20s %12s %10s %12s %10s %9s %6s %7s %s" %
      ("workload", "metric", "base median", "base IQR", "head median", "head IQR", "delta",
       "won", "bound", "failed base/head"))
for w in workloads:
    runs = {side: [load(w, side, i) for i in range(pairs)] for side in ("base", "head")}
    failed = {side: sum(r["failed"] if r else 1 for r in runs[side]) for side in runs}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        vals = {side: [r["metrics"][name]["value"] if r else None for r in runs[side]]
                for side in runs}
        b = [v for v in vals["base"] if v is not None]
        h = [v for v in vals["head"] if v is not None]
        if not b or not h:
            print("%-11s %-20s no complete runs" % (w, name))
            flagged.append((w, name))
            continue
        bm, hm = statistics.median(b), statistics.median(h)
        bq, hq = quartiles(b), quartiles(h)
        delta = (hm - bm) / bm if bm else 0.0
        won = sum(1 for x, y in zip(vals["base"], vals["head"])
                  if x is not None and y is not None and (y < x if lower else y > x))
        worse = delta > m["bound"] if lower else -delta > m["bound"]
        bad = worse or failed["base"] or failed["head"]
        if bad:
            flagged.append((w, name))
        print("%-11s %-20s %12.4g %10.3g %12.4g %10.3g %+8.2f%% %3d/%-2d %6.0f%% %d/%d%s" %
              (w, name, bm, bq[1] - bq[0], hm, hq[1] - hq[0], 100 * delta, won, pairs,
               100 * m["bound"], failed["base"], failed["head"], "  <-- FLAG" if bad else ""))
print("\n%d pair(s) per workload; won = pairs where the working tree was better." % pairs)
if flagged:
    print("flagged: " + ", ".join("%s/%s" % f for f in flagged))
    sys.exit(1)
EOF
