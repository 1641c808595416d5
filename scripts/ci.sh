#!/usr/bin/env bash
# Tier-1 CI gate: format, lint, build, test, smoke runs and the kernel gates.
# Everything here must pass before a change lands (see ROADMAP.md).
#
# Each step is timed; a wall-clock summary prints at the end so a CI
# slowdown can be attributed to a step without spelunking the log.
set -euo pipefail
cd "$(dirname "$0")/.."

STEP_NAMES=()
STEP_SECS=()
STEP_NAME=""
STEP_T0=0

step_start() {
  STEP_NAME="$1"
  STEP_T0=$SECONDS
  echo "==> $1"
}

step_end() {
  STEP_NAMES+=("$STEP_NAME")
  STEP_SECS+=($((SECONDS - STEP_T0)))
}

step_start "cargo fmt --check"
cargo fmt --all -- --check
step_end

step_start "cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings
step_end

step_start "cargo build --release"
cargo build --release --workspace
step_end

step_start "cargo test"
cargo test -q --workspace
step_end

step_start "compso-lint --deny"
# Invariant lint over the whole workspace: wire magics, comm-path
# unwraps, unchecked length prefixes, counter registry, nondeterministic
# wire iteration, plus the call-graph rules (collective-order,
# deterministic-state, float-reduction-order, swallowed-comm-error).
# One cold pass of the binary the release build above just produced; the
# outer timeout is the hang backstop and the timing summary below shows
# a slow run. The JSON report (per-rule counts) is uploaded as a CI
# artifact (see .github/workflows/ci.yml).
timeout --kill-after=5 10 \
  target/release/compso-lint --deny --json-out target/lint-report.json \
  || { echo "compso-lint: violations (or the 10s hang backstop fired)" >&2; exit 1; }
step_end

step_start "one lint pass (no cache, no rewriter, no millisecond budget)"
# scripts/ is not searched: this line would match itself.
if grep -rnE -e 'check_workspace_cached|CacheStats|run_fix|--cache|--fix|--budget-ms' \
  crates/lint/src README.md DESIGN.md .github .claude; then
  echo "compso-lint's incremental cache, --fix or --budget-ms is back" >&2; exit 1
fi
step_end

step_start "one gather path (kfac/src/distributed.rs ahead of mod tests)"
GATHER_SRC=$(sed '/^mod tests/,$d' crates/kfac/src/distributed.rs)
if grep -Eq 'allgather_var\(|par_iter|use rayon' <<<"$GATHER_SRC" \
  || [ "$(grep -c 'pipelined_allgather(' <<<"$GATHER_SRC")" -ne 1 ]; then
  echo "DistKfac step 5 must stay one pipelined_allgather call, no serial twin" >&2; exit 1
fi
step_end

step_start "one gradient collective (kfac/src/distributed.rs ahead of mod tests)"
# Step 2 is one reduce_scatter_sum to the owners; the only all-reduces
# left in the step are the factor bucket and the non-K-FAC tail.
if [ "$(grep -c 'reduce_scatter_sum(' <<<"$GATHER_SRC")" -ne 1 ] \
  || [ "$(grep -c 'allreduce_mean(' <<<"$GATHER_SRC")" -gt 2 ]; then
  echo "DistKfac step 2 must stay one reduce_scatter_sum, no all-reduce of K-FAC gradients" >&2; exit 1
fi
step_end

step_start "one COMPSO (no serial pipeline, no configured kernel or tile)"
# ChunkedCompso is the only implementation and 0xC6 the only stream; the
# lint fixtures carry their own registry and are not searched.
if grep -rnE 'MAGIC_STREAM_V1|struct Compso\b|compress_layers|with_adaptive_chunking|with_kernel' \
  crates/core crates/ctrl crates/kfac crates/bench src tests examples; then
  echo "the serial COMPSO pipeline or a ChunkedCompso kernel/tile knob is back" >&2; exit 1
fi
step_end

step_start "one perf instrument, one rANS layout"
# benchmark/ is the only thing that reports throughput and kernel_gates
# carries no baseline, tolerance or env knob; rans::encode is the encoder
# production runs. scripts/ci.sh is not searched: this line would match
# itself.
if grep -rnE 'BENCH_compress|bench_check|bench_snapshot|COMPSO_BENCH_|criterion|encode_fast|encode_interleaved' \
  crates shims scripts .github Cargo.toml --exclude=ci.sh; then
  echo "the snapshot bench, its knobs, the criterion shim or the second rANS encoder is back" >&2; exit 1
fi
step_end

step_start "one GEMM core (tensor/src/matrix.rs ahead of mod tests)"
# matmul / t_matmul / gram / matmul_t are entry points of one packed
# `gemm`, and `tile` is the only multiply-accumulate microkernel: besides
# axpy's `scale * b` and the Gram–Schmidt norms' `v * v`, exactly one
# line accumulates a product.
GEMM_SRC=$(sed '/^mod tests/,$d' crates/tensor/src/matrix.rs)
GEMM_MACS=$(grep -E '\+= [a-z_0-9]+(\[[a-z_0-9]+\])? \* [a-z_0-9]+(\[[a-z_0-9]+\])?;' <<<"$GEMM_SRC" \
  | grep -vcE 'scale \* b;|v \* v;' || true)
if grep -q 't_matmul_from' <<<"$GEMM_SRC" \
  || [ "$GEMM_MACS" -ne 1 ] \
  || [ "$(grep -c '^fn tile(' <<<"$GEMM_SRC")" -ne 1 ] \
  || [ "$(grep -c ' gemm(' <<<"$GEMM_SRC")" -ne 5 ]; then
  echo "a second GEMM kernel is back: one gemm, one tile, four entry points" >&2; exit 1
fi
step_end

step_start "gradient sync smoke (tests/grad_sync.rs)"
cargo test --release --test grad_sync -q
step_end

step_start "chaos smoke (hard 300s wall-clock cap)"
# The chaos campaigns assert liveness ("no collective can block
# forever"); a regression there would otherwise hang CI instead of
# failing it, so the smoke runs under a hard external timeout.
timeout --kill-after=10 300 \
  cargo test --release --test chaos -q -- \
  chaos_campaign_converges_with_exact_fault_accounting \
  scheduled_crash_poisons_the_group_and_names_the_rank \
  || { echo "chaos smoke failed or timed out" >&2; exit 1; }
step_end

step_start "checkpoint smoke: save -> kill -> resume (hard 240s wall-clock cap)"
# A real whole-process SIGKILL: the fresh run is killed as soon as its
# first coordinated snapshot lands on disk; --resume must restore it and
# finish. (The in-process rank-kill variant with bit-identity checks is
# tests/checkpoint.rs::crash_campaign_..., gated below.)
cargo build --release --example distributed_kfac
CKPT_DIR=$(mktemp -d)
target/release/examples/distributed_kfac --ckpt-dir "$CKPT_DIR" >/dev/null &
CKPT_PID=$!
for _ in $(seq 1 600); do
  if compgen -G "$CKPT_DIR/step-*" >/dev/null; then break; fi
  if ! kill -0 "$CKPT_PID" 2>/dev/null; then break; fi
  sleep 0.1
done
kill -9 "$CKPT_PID" 2>/dev/null || true
wait "$CKPT_PID" 2>/dev/null || true
# Capture then grep: piping straight into `grep -q` races — grep exits
# at first match and the example dies on SIGPIPE under pipefail.
RESUME_LOG=$(mktemp)
timeout --kill-after=10 240 \
  target/release/examples/distributed_kfac --ckpt-dir "$CKPT_DIR" --resume \
  > "$RESUME_LOG" \
  || { echo "checkpoint resume smoke failed" >&2; exit 1; }
grep -q "resumed from snapshot" "$RESUME_LOG" \
  || { echo "checkpoint resume smoke: no resume line in output" >&2; exit 1; }
rm -f "$RESUME_LOG"
rm -rf "$CKPT_DIR"
step_end

step_start "elastic soak smoke (hard 240s wall-clock cap)"
# Elastic membership end-to-end: a rank crashes mid-run, survivors agree
# a shrunk view and keep training, the crashed rank restores from the
# latest snapshot and rejoins live. The example's exit code already
# encodes the contract — membership churn must have happened (shrinks
# AND rejoins observed) and the elastic run's final loss must match a
# fixed-membership reference within tolerance — so CI only needs the
# exit status plus the counter line in the log. The ledger/Resilience
# counters are reconciled inside the run (tests/chaos.rs pins exact
# values); the grep below keeps the CI log honest about what ran.
ELASTIC_LOG=$(mktemp)
timeout --kill-after=10 240 \
  target/release/examples/distributed_kfac --elastic \
  > "$ELASTIC_LOG" \
  || { echo "elastic soak smoke failed or timed out" >&2; cat "$ELASTIC_LOG" >&2; exit 1; }
grep -Eq "membership: [0-9]+ epochs" "$ELASTIC_LOG" \
  || { echo "elastic soak smoke: no membership counter line in output" >&2; exit 1; }
grep -q "within tolerance" "$ELASTIC_LOG" \
  || { echo "elastic soak smoke: no tolerance line in output" >&2; exit 1; }
rm -f "$ELASTIC_LOG"
step_end

step_start "checkpoint crash-campaign smoke (hard 300s wall-clock cap)"
timeout --kill-after=10 300 \
  cargo test --release --test checkpoint -q -- \
  crash_campaign_restores_last_snapshot_and_matches_uninterrupted_run \
  || { echo "checkpoint crash smoke failed or timed out" >&2; exit 1; }
step_end

step_start "benchmark surface: selfcheck (hard 300s wall-clock cap)"
# benchmark/ is its own workspace and names the program only through
# benchmark/src/surface.rs. Building it and running every workload twice
# at a tenth of its steps fails here — not in the BENCHMARK.json driver —
# when a change breaks that surface or replica determinism.
timeout --kill-after=10 300 \
  cargo run --release --offline --manifest-path benchmark/Cargo.toml -- selfcheck \
  || { echo "benchmark selfcheck failed or timed out" >&2; exit 1; }
step_end

step_start "bench smoke: fig1"
cargo run -p compso-bench --release --bin fig1 >/dev/null
step_end

step_start "bench smoke: obs_report"
cargo run -p compso-bench --release --bin obs_report >/dev/null
step_end

step_start "kernel gates (back-to-back ratios; the binary fails by itself)"
cargo run -p compso-bench --release --bin kernel_gates
step_end

echo "==> step timing summary"
for i in "${!STEP_NAMES[@]}"; do
  printf '%4ss  %s\n' "${STEP_SECS[$i]}" "${STEP_NAMES[$i]}"
done
printf '%4ss  total\n' "$SECONDS"
# The suppression audit's number to watch (the lint crate's own fixtures
# and rule docs spell the marker too, so it is left out).
printf '%4s   inline lint:allow markers under crates/\n' \
  "$(grep -rn 'lint:allow(' --include='*.rs' crates | grep -vc '^crates/lint/')"

echo "CI green."
