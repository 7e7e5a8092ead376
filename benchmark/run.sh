#!/usr/bin/env bash
# The single command: build, run all five workloads untraced (end-to-end
# metrics) and traced (per-layer metrics), print every metric by name with
# its unit, and write benchmark/out/result.json.
#
#   benchmark/run.sh [--seed N] [--seconds S] [workload ...]
set -euo pipefail
cd "$(dirname "$0")/.."

seed=1
seconds=12
workloads=()
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    *) workloads+=("$1"); shift ;;
  esac
done
[ ${#workloads[@]} -gt 0 ] || workloads=(gates3 drr churn scale1m wire_par)

export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-benchmark/target}
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin=$CARGO_TARGET_DIR/release/rp-benchmark

mkdir -p benchmark/out
status=0
rows=()
for w in "${workloads[@]}"; do
  for trace in 0 1; do
    out=benchmark/out/run-$w-trace$trace.txt
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" | tee "$out" || status=1
    rows+=("\"$w.trace$trace\": $(tail -n 1 "$out")")
  done
done
{
  echo "{"
  printf '  %s' "${rows[0]}"
  printf ',\n  %s' "${rows[@]:1}"
  printf '\n}\n'
} > benchmark/out/result.json
echo "wrote benchmark/out/result.json"
exit $status
