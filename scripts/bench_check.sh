#!/usr/bin/env bash
# Bench regression gate: compares a fresh reduced-size bench_compress
# smoke run against the committed full-size snapshot and fails when the
# chunked-path numbers regress beyond tolerance.
#
#   bench_check.sh [SMOKE_JSON] [COMMITTED_JSON]
#
# Defaults: target/BENCH_compress_smoke.json vs BENCH_compress.json.
#
# Gated metrics:
#   - chunked_nthread.compress_MBps / .decompress_MBps  (absolute
#     throughput of the production row; a snapshot taken at one thread
#     prints that row as "n/a" and is read from chunked_1thread instead)
#   - pipeline.speedup_2w / speedup_4w      (pipelined vs serial gather;
#     1w is legitimately ~1.0 — no wire to overlap — so it is not gated)
#   - powersgd.compress_MBps                (low-rank encode throughput)
#   - controller.overhead_frac              (absolute gate: an adaptive
#     decision must cost < 1% of the chunked compress wall)
#   - eigen.cliff_289                       (absolute gate: sym_eig at
#     n = 289 may cost at most 2.0x its n^3 share of the n = 145 time —
#     a stride-n walk in an O(n^3) loop reads 2.6 to 3.4; a ratio of two
#     timings taken back to back holds through this host's noisy
#     stretches where a ms floor would not)
#   - eigen.gemm_ratio_289                  (absolute gate: sym_eig at
#     n = 289 may cost at most GEMM_CEILING 289^3 Matrix::matmul calls.
#     Tridiagonalisation + QL reads 6.4 to 7.5, the cyclic Jacobi it
#     replaced 94 to 115; the ceiling is the geometric mean of the two
#     pinned readings, so a relapse to a Jacobi-class flop count fails
#     without a millisecond floor)
#   - covariance.syrk_speedup               (absolute gate: Matrix::gram,
#     the SYRK covariance() runs, must beat t_matmul of the matrix with
#     itself by >= 1.3x — it does half the flops; again a back-to-back
#     ratio)
#
# The smoke run is much smaller than the committed snapshot (2^18 vs
# 2^22 elements) and CI machines are noisy, so the floor is
# `committed * (1 - COMPSO_BENCH_TOL)` with a deliberately loose default
# tolerance of 0.5: the gate exists to catch a kernel falling off a
# cliff (an accidental debug path, a lost parallel dispatch, a codec
# misroute), not 10% jitter.
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE="${1:-target/BENCH_compress_smoke.json}"
BASE="${2:-BENCH_compress.json}"
TOL="${COMPSO_BENCH_TOL:-0.5}"

[ -f "$SMOKE" ] || { echo "bench_check: smoke snapshot $SMOKE missing (run bench_compress first)" >&2; exit 1; }
[ -f "$BASE" ] || { echo "bench_check: committed snapshot $BASE missing" >&2; exit 1; }

python3 - "$SMOKE" "$BASE" "$TOL" <<'EOF'
import json, sys

smoke = json.load(open(sys.argv[1]))
base = json.load(open(sys.argv[2]))
tol = float(sys.argv[3])

def chunked(snapshot):
    row = snapshot["chunked_nthread"]
    return snapshot["chunked_1thread"] if row == "n/a" else row


checks = [
    (
        "chunked_nthread.compress_MBps",
        chunked(smoke)["compress_MBps"],
        chunked(base)["compress_MBps"],
    ),
    (
        "chunked_nthread.decompress_MBps",
        chunked(smoke)["decompress_MBps"],
        chunked(base)["decompress_MBps"],
    ),
    (
        "pipeline.speedup_2w",
        smoke["pipeline"]["speedup_2w"],
        base["pipeline"]["speedup_2w"],
    ),
    (
        "pipeline.speedup_4w",
        smoke["pipeline"]["speedup_4w"],
        base["pipeline"]["speedup_4w"],
    ),
    (
        "powersgd.compress_MBps",
        smoke["powersgd"]["compress_MBps"],
        base["powersgd"]["compress_MBps"],
    ),
]

failed = []
for name, got, want in checks:
    floor = want * (1.0 - tol)
    ok = got >= floor
    print(
        f"bench_check: {name}: smoke={got:.2f} committed={want:.2f} "
        f"floor={floor:.2f} -> {'ok' if ok else 'REGRESSION'}"
    )
    if not ok:
        failed.append(name)

# Absolute gate, no tolerance scaling: the controller's decision cost
# must stay under 1% of the step's compress wall even on the small smoke
# buffer (which makes the fraction *larger*, so this is conservative).
frac = smoke["controller"]["overhead_frac"]
ok = frac < 0.01
print(
    f"bench_check: controller.overhead_frac: smoke={frac:.6f} "
    f"ceiling=0.010000 -> {'ok' if ok else 'REGRESSION'}"
)
if not ok:
    failed.append("controller.overhead_frac")

cliff = smoke["eigen"]["cliff_289"]
ok = cliff <= 2.0
print(
    f"bench_check: eigen.cliff_289: smoke={cliff:.2f} "
    f"ceiling=2.00 -> {'ok' if ok else 'REGRESSION'}"
)
if not ok:
    failed.append("eigen.cliff_289")

GEMM_CEILING = 26.5
gemm = smoke["eigen"]["gemm_ratio_289"]
ok = gemm <= GEMM_CEILING
print(
    f"bench_check: eigen.gemm_ratio_289: smoke={gemm:.2f} "
    f"ceiling={GEMM_CEILING:.2f} -> {'ok' if ok else 'REGRESSION'}"
)
if not ok:
    failed.append("eigen.gemm_ratio_289")

syrk = smoke["covariance"]["syrk_speedup"]
ok = syrk >= 1.3
print(
    f"bench_check: covariance.syrk_speedup: smoke={syrk:.2f} "
    f"floor=1.30 -> {'ok' if ok else 'REGRESSION'}"
)
if not ok:
    failed.append("covariance.syrk_speedup")

if failed:
    print(f"bench_check: regression in {', '.join(failed)}", file=sys.stderr)
    sys.exit(1)
print("bench_check: within tolerance")
EOF
