#!/usr/bin/env bash
# End-to-end benchmark of record: builds bench/e2e in Release and runs it.
#
#   bench/e2e/run.sh                  every workload untraced, each in its own
#                                     process, then the traced pass
#   bench/e2e/run.sh --seed 7777      the same on the held-out seed
#   bench/e2e/run.sh --smoke          every workload at 1/50 size, both passes
#   bench/e2e/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#                    [--threads T]    one workload in one process; the last
#                                     line of stdout is its JSON result
#
# The build goes to .bench_build/e2e and results and Chrome traces to
# .bench_out/, both under the repository root and ignored by git. Exits
# non-zero when the build fails or any run reports a failed operation.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/e2e"
out="$root/.bench_out"
workloads=(domains_audit_1m deps_audit_100k service_churn_200k
           attack_rounds_50k)

jobs="$(nproc 2>/dev/null || echo 1)"
if (( jobs > 4 )); then jobs=4; fi

# Build output goes to stderr so a run's JSON stays the last stdout line.
{
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" --target metaleak_e2e -j "$jobs"
} >&2
bin="$build/metaleak_e2e"

for arg in "$@"; do
  if [[ "$arg" == "--workload" ]]; then
    exec "$bin" --out-dir "$out" "$@"
  fi
done

extra=()
for arg in "$@"; do
  if [[ "$arg" == "--smoke" ]]; then extra=(--seconds 1); fi
done
mkdir -p "$out"
status=0
for trace in 0 1; do
  for w in "${workloads[@]}"; do
    echo "== $w (trace $trace)"
    "$bin" --out-dir "$out" --workload "$w" --trace "$trace" \
      "${extra[@]}" "$@" | tee "$out/log-$w-trace$trace.txt" || status=1
  done
done
if (( status != 0 )); then echo "some runs failed; see $out" >&2; fi
exit "$status"
