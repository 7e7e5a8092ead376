#!/usr/bin/env bash
# A/A check: two interleaved sets of runs of the same build must agree.
# Per workload and end-to-end metric it prints both medians, the quartiles,
# the spread of each set (interquartile range over median, as Python's
# statistics.quantiles(n=4) gives it), the relative gap between the medians
# and the bound from BENCHMARK.json; it fails if a gap or a spread (setup_s
# excepted for the spread) exceeds its bound, or if any packet failed.
#
#   benchmark/aa.sh [runs per set, default 5] [workload ...]
set -euo pipefail
cd "$(dirname "$0")/.."

runs=${1:-5}
shift || true
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || workloads=(gates3 drr churn scale1m wire_par)
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-benchmark/target}
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin=$CARGO_TARGET_DIR/release/rp-benchmark

dir=benchmark/out/aa
rm -rf "$dir"
mkdir -p "$dir"
for i in $(seq 1 "$runs"); do
  for set in a b; do
    for w in "${workloads[@]}"; do
      # Every run has its own seed, as the driver's runs have.
      seed=$(( i * 2 + $([ $set = a ] && echo 0 || echo 1) ))
      "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1 > "$dir/$set-$w-$i.json"
    done
  done
done

python3 - "$dir" "$runs" "${workloads[@]}" <<'PY'
import json, statistics, sys
d, runs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
bounds = {m["name"]: (m["bound"], m["better"]) for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
bad = 0
print(f"{'workload':9} {'metric':8} {'median a':>10} {'median b':>10} {'q1..q3 a':>21} {'spread a':>8} {'spread b':>8} {'gap':>7} {'bound':>6}")
for w in workloads:
    sets = {s: [json.load(open(f"{d}/{s}-{w}-{i}.json")) for i in range(1, runs + 1)] for s in "ab"}
    for s in "ab":
        for r in sets[s]:
            if not r["correct"] or r["failed"]:
                print(f"FAIL {w}: {r['failed']} of {r['attempted']} packets failed")
                bad += 1
    for name, (bound, better) in bounds.items():
        v = {s: [r["metrics"][name]["value"] for r in sets[s]] for s in "ab"}
        med = {s: statistics.median(v[s]) for s in "ab"}
        q = {s: statistics.quantiles(v[s], n=4) for s in "ab"}
        spread = {s: (q[s][2] - q[s][0]) / med[s] for s in "ab"}
        gap = abs(med["b"] - med["a"]) / med["a"]
        ok = gap <= bound and (name == "setup_s" or max(spread.values()) <= bound)
        bad += not ok
        print(f"{w:9} {name:8} {med['a']:10.4f} {med['b']:10.4f} {q['a'][0]:10.4f}..{q['a'][2]:<9.4f} {spread['a']:8.4f} {spread['b']:8.4f} {gap:7.4f} {bound:6.2f} {'' if ok else 'FAIL'}")
sys.exit(1 if bad else 0)
PY
