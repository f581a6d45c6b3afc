#!/usr/bin/env bash
# Builds the ledger (bench/ledger/CMakeLists.txt) and runs workloads, each in
# a fresh process, from the root of the checkout:
#
#   bash bench/ledger/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash bench/ledger/run.sh [--seed N] [--out FILE]      # all four workloads
#
# Every metric prints as `workload metric value unit`; each run's last line
# is its JSON result, and --out FILE appends one tagged JSON line per run
# (the input compare.py reads). Exits non-zero if any correctness check
# fails. Other flags pass through to carbonedge_ledger (--smoke, ...).
#
# The build goes to $CARGO_TARGET_DIR/ledger (default .bench_build/ledger)
# and its log to build.log there; CARBONEDGE_THREADS is min(4, nproc).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
build_dir="${CARGO_TARGET_DIR:-.bench_build}/ledger"
mkdir -p "$build_dir"

if ! { [ -f "$build_dir/Makefile" ] || [ -f "$build_dir/build.ninja" ] ||
       cmake -S bench/ledger -B "$build_dir" -DCMAKE_BUILD_TYPE=Release; } \
       > "$build_dir/build.log" 2>&1 ||
   ! cmake --build "$build_dir" --target carbonedge_ledger -j "$(nproc)" \
       >> "$build_dir/build.log" 2>&1; then
  tail -n 30 "$build_dir/build.log" >&2
  echo "run.sh: build failed (log: $build_dir/build.log)" >&2
  exit 2
fi

threads="$(nproc)"
[ "$threads" -gt 4 ] && threads=4
export CARBONEDGE_THREADS="$threads"
unset CARBONEDGE_STORE_DIR CARBONEDGE_SMOKE_EPOCHS

ledger=("$build_dir/carbonedge_ledger" --scratch "$build_dir/scratch")

workload=""
args=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --workload=*) workload="${1#*=}"; shift ;;
    *) args+=("$1"); shift ;;
  esac
done

if [ -n "$workload" ]; then
  exec "${ledger[@]}" --workload "$workload" "${args[@]}"
fi
status=0
for w in cdn_sweep dense_cell serve_replay catalog_1k; do
  "${ledger[@]}" --workload "$w" "${args[@]}" || status=1
done
exit "$status"
