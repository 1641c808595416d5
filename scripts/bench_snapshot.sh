#!/usr/bin/env bash
# Emits BENCH_compress.json: chunked compressor throughput (MB/s) on
# this host, best-of-N round trips at 16 MiB.
#
# Usage: scripts/bench_snapshot.sh [output.json]
# For the committed snapshot run it pinned to one core
# (`taskset -c 0 scripts/bench_snapshot.sh`): bench_check.sh's floors are
# half the committed values, and the multi-core `pipeline` speedups
# (~2.1x/2.8x on 2 cores vs ~1.3x/1.8x pinned) put those floors inside
# the reduced-size smoke run's noise.
# Knobs: COMPSO_BENCH_ELEMS (f32 count, default 4Mi = 16 MiB),
#        COMPSO_BENCH_REPS  (default 3).
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_compress.json}"
cargo run -p compso-bench --release --bin bench_compress -- "$OUT"
