#!/bin/bash
# Run every figure/table-level bench sequentially, echoing each section
# header the assemble.sh extractor expects. Any bench failing or timing out
# fails the whole script (CI-safe); micro-benchmarks are skipped here (the
# perf record comes from `build/bench/perf_smoke --repeat 3 --out FILE`).
#
# Usage: bench_logs/run_suite.sh [timeout-seconds-per-bench]
set -euo pipefail
cd "$(dirname "$0")/.."

limit="${1:-2400}"
for b in build/bench/*; do
  [[ -x "$b" && -f "$b" ]] || continue
  n=$(basename "$b")
  case "$n" in micro_kernels | perf_smoke) continue ;; esac
  echo "=== $n ==="
  timeout "$limit" "./$b"
  echo
done
echo "SUITE DONE"
