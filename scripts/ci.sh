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
# deterministic-state, swallowed-comm-error). counter-registry also fails
# on a registered name nothing reads, and reachable-pub on a library pub
# fn/const/static nothing outside its crate names (benchmark/src counts as
# a reader for both).
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

step_start "rustc's dead-code analysis stays on (program code)"
# compso-lint's reachable-pub takes `pub` from an item nothing outside its
# crate names; rustc's dead_code (the clippy step above, -D warnings) then
# reports what nothing reaches, and it is deleted. An allow or expect of
# dead_code, unused or all warnings would switch that half off: in the
# code (an attribute, also split across lines or inside cfg_attr), in a
# manifest's [lints] table, or as a -A/--allow/--cap-lints flag in a
# .cargo config, this script or the CI workflow.
# scripts/ is not searched by the first grep: its pattern would match itself.
if grep -rlPz '#!?\[[^\]]*\b(allow|expect)\s*\([^\]]*\b(dead_code|unused\w*|warnings)\b' \
  src crates/*/src examples; then
  echo "program code silences dead_code or unused lints; delete what rustc reports instead" >&2; exit 1
fi
LINT_LEVEL='^\s*([\w.]*\.)?"?(dead_code|unused\w*|warnings)"?\s*=.*"allow"'
SILENCE='(-A|--allow|--cap-lints)[ =",]*(dead[_-]code|unused|warnings|allow)'
MANIFESTS=$(find . -path ./target -prune -o \( -name Cargo.toml -o -path '*/.cargo/config*' \) -print)
# shellcheck disable=SC2086 # one path per line, none with spaces
if grep -nPH "$LINT_LEVEL|$SILENCE" $MANIFESTS \
  || grep -nPH "$SILENCE" scripts/*.sh .github/workflows/* | grep -vP '^[^:]+:\d+:\s*#'; then
  echo "a manifest, cargo config or CI flag silences dead_code or unused lints" >&2; exit 1
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
# Step 2 is one reduce_scatter_pieced to the owners (the reduce-scatter
# whose waits carry the fold and the landed layers' preconditioning); the
# only all-reduces left in the step are the factor bucket and the
# non-K-FAC tail. The owner-bound hop's codec lives in that collective:
# sync_gradients hands it the compressor and moves no bytes of its own.
SYNC_SRC=$(awk '/fn sync_gradients\(/,/^    }$/' <<<"$GATHER_SRC")
if [ "$(grep -c 'reduce_scatter_pieced(' <<<"$GATHER_SRC")" -ne 1 ] \
  || grep -q 'reduce_scatter_sum(' <<<"$GATHER_SRC" \
  || [ "$(grep -c 'allreduce_mean(' <<<"$GATHER_SRC")" -gt 2 ] \
  || [ -z "$SYNC_SRC" ] \
  || grep -q 'Payload::Bytes' <<<"$SYNC_SRC"; then
  echo "DistKfac step 2 must stay one reduce_scatter_pieced carrying its own codec, no all-reduce of K-FAC gradients" >&2; exit 1
fi
step_end

step_start "one clock (comm/src ahead of mod tests)"
# compso-comm reads time in one module: every time read, sleep and timed
# channel wait goes through clock.rs's Clock, which also paces the
# modeled wire. Tests keep their own stopwatches.
for f in crates/comm/src/*.rs; do
  [ "$f" = crates/comm/src/clock.rs ] && continue
  if sed '/^mod tests/,$d' "$f" | grep -nE 'Instant::now|thread::sleep|recv_timeout\('; then
    echo "$f reads time outside crates/comm/src/clock.rs" >&2; exit 1
  fi
done
step_end

step_start "one COMPSO (no serial pipeline, no configured kernel or tile, one set of kernels)"
# ChunkedCompso is the only implementation and 0xC6 the only stream; the
# tile comes with the LayerSchedule (kernels::CHUNK_ELEMS up to 1 Mi
# elements), so KernelConfig carries no chunk_elems field. The lint
# fixtures carry their own registry and are not searched. The staged
# ablation path and the Quantizer run the production microkernels: the
# scalar chunk compressor is the tests' oracle, and neither body names it.
COMPRESS_SRC=$(awk '/^fn compress_chunked_reconstructing/,/^}/' crates/core/src/kernels.rs)
QUANTIZE_SRC=$(awk '/^    pub\(crate\) fn quantize_with_range/,/^    }/' crates/core/src/quantize.rs)
if grep -rnE 'MAGIC_STREAM_V1|struct Compso\b|compress_layers|with_adaptive_chunking|with_kernel' \
  crates/core crates/ctrl crates/kfac crates/bench src tests examples \
  || grep -rnE 'pub chunk_elems:|KernelConfig::default\(\)\.chunk_elems|kc\.chunk_elems' \
  crates src tests examples \
  || [ -z "$COMPRESS_SRC" ] || [ -z "$QUANTIZE_SRC" ] \
  || grep -nE 'filter_chunk|quantize_chunk|serialize_chunk|FilteredChunk|quantize_on_grid' \
    <<<"$COMPRESS_SRC$QUANTIZE_SRC"; then
  echo "the serial COMPSO pipeline, a ChunkedCompso kernel/tile knob or the scalar chunk compressor is back" >&2; exit 1
fi
step_end

step_start "one hand-back of own frames (no Compressor method, no decode twin)"
# An origin installs its own groups from the values ChunkedCompso wrote
# while compressing them, handed back by decompress_group: the Compressor
# trait keeps its four overridable methods (name, compress_group_keyed,
# decompress_group, chunk_elems_for) and its four provided ones, the
# own-frame list is named in crates/core/src/kernels.rs alone, and DistKfac
# still installs its own groups through decode_run like any origin's.
# scripts/ is not searched: this line would match itself.
TRAIT_FNS=$(awk '/^pub trait Compressor/,/^}/' crates/core/src/traits.rs \
  | grep -oE '^    fn [a-z_]+' | awk '{print $2}' | sort | tr '\n' ' ')
if [ "$TRAIT_FNS" != "chunk_elems_for compress compress_group compress_group_keyed decompress decompress_group name ratio " ] \
  || grep -rn 'OWN_FRAMES' crates src tests examples benchmark/src | grep -v '^crates/core/src/kernels.rs:' \
  || [ "$(grep -c 'decode_run(&gathered.clean' <<<"$GATHER_SRC")" -ne 1 ] \
  || grep -nE 'decode_own|reconstruct' <<<"$GATHER_SRC"; then
  echo "the own-frame hand-back grew a Compressor method, a second list or a decode twin in DistKfac" >&2; exit 1
fi
step_end

step_start "one activation layout (dnn/src/conv.rs ahead of mod tests)"
# Feature maps travel as HWC rows: Conv2d's GEMM product is its output and
# dY is its g as they lie, so conv.rs indexes no channel-major
# `oc * positions` slot and allocates no output-shaped relayout buffer.
CONV_SRC=$(sed '/^mod tests/,$d' crates/dnn/src/conv.rs)
if grep -nE 'oc \* positions|Matrix::zeros\([^;]*(out_elems|positions, s\.out_c)' <<<"$CONV_SRC"; then
  echo "Conv2d relays its output or dY through a CHW copy again" >&2; exit 1
fi
step_end

step_start "one report (StepReport is its counter map plus what it derives)"
# A counter is read from the snapshot or report map by its registered name;
# no struct copies entries of that map field by field. The lint fixtures
# are not searched, and scripts/ is not: this line would match itself.
if grep -rnE --exclude-dir=fixtures 'struct Resilience|struct ControlBlock|ActiveSetting|fn describe\(' \
  crates src tests examples; then
  echo "a hand-kept copy of the counter map is back: read snap.counter(names::X)" >&2; exit 1
fi
step_end

step_start "one snapshot reader, one tensor envelope"
# Snapshots have one reader, CheckpointCoordinator::restore. A rejoining
# rank restores from its peers through restore's own two transfers, and
# its catch-up shard is a 0xCF-framed 0xCB blob like every other tensor
# list. The lint fixtures are not searched, and scripts/ is not: this
# line would match itself.
if grep -rnE --exclude-dir=fixtures 'restore_local|encode_rejoin_delta|decode_rejoin_delta|MAGIC_REJOIN' \
  crates src tests examples; then
  echo "a second snapshot reader or the 0xCC rejoin delta is back" >&2; exit 1
fi
step_end

step_start "one cost model (compso-sim prices communication and the step)"
# The alpha-beta network model, compressor profiles, Eq. 5 and the
# encoder/aggregation choices live in compso-sim; compso-core keeps the
# codec's tile and pipelined_wall, compso-comm prices nothing, and the
# unqueried lookup table and the duplicate profiler stay deleted.
# scripts/ is not searched: this line would match itself.
CORE_SRC=$(find crates/core/src -name '*.rs' -exec sed -s '/^mod tests/,$d' {} +)
if grep -rnE 'netmodel|NetworkSpec' crates/comm/src \
  || grep -nE '(struct|fn) (CompressorProfile|choose_aggregation|comm_speedup|end_to_end_gain)\b' <<<"$CORE_SRC" \
  || grep -rnE 'ThroughputTable|CollectiveKind|OnlineProfiler' crates src tests examples \
  || grep -q 'compso-comm' crates/sim/Cargo.toml; then
  echo "a second cost model is back: price communication and steps in compso-sim only" >&2; exit 1
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

step_start "one GEMM core, one instance selection (crates/*/src ahead of mod tests)"
# matmul / t_matmul / gram / matmul_t (through matmul_t_first) are entry
# points of one packed `gemm`, and `tile` is the only multiply-accumulate
# microkernel: besides axpy's `scale * b` and the Gram–Schmidt norms'
# `v * v`, exactly one line accumulates a product. `tile` and its job body
# are generic over the strip height.
GEMM_SRC=$(sed '/^mod tests/,$d' crates/tensor/src/matrix.rs)
GEMM_MACS=$(grep -E '\+= [a-z_0-9]+(\[[a-z_0-9]+\])? \* [a-z_0-9]+(\[[a-z_0-9]+\])?;' <<<"$GEMM_SRC" \
  | grep -vcE 'scale \* b;|v \* v;' || true)
if grep -q 't_matmul_from' <<<"$GEMM_SRC" \
  || [ "$GEMM_MACS" -ne 1 ] \
  || [ "$(grep -cE '^fn tile[<(]' <<<"$GEMM_SRC")" -ne 1 ] \
  || [ "$(grep -c ' gemm(' <<<"$GEMM_SRC")" -ne 5 ]; then
  echo "a second GEMM kernel is back: one gemm, one tile, four entry points" >&2; exit 1
fi
# compso-tensor's `Instance` is the one run-time choice of instruction
# set: every wide job body is a `#[target_feature(enable = "avx2")]` fn
# entered from the one `unsafe` block of its kernel's `Instance::Avx2`
# arm (the last match arm before the block). Nothing fuses a
# multiply-add (that would move rounding) and no intrinsic takes a
# pointer. Comment lines and the lint's keyword table ("unsafe") are not
# code.
CRATE_SRC=$(find crates/*/src -name '*.rs' -exec sed -s '/^mod tests/,$d' {} + \
  | grep -vE '^[[:space:]]*//' | grep -v '"unsafe"')
WIDE_FNS=$(grep -c '#\[target_feature' <<<"$CRATE_SRC" || true)
AVX2_ARMS=$(awk '/=>/ { arm = $0 }
  /(^|[^A-Za-z0-9_])unsafe \{/ && arm ~ /Instance::Avx2 =>/ { n++ }
  END { print n + 0 }' <<<"$CRATE_SRC")
if [ "$WIDE_FNS" -eq 0 ] \
  || grep '#\[target_feature' <<<"$CRATE_SRC" | grep -qvF '#[target_feature(enable = "avx2")]' \
  || [ "$(grep -cw 'unsafe' <<<"$CRATE_SRC")" -ne "$WIDE_FNS" ] \
  || [ "$(grep -cE '\bunsafe \{' <<<"$CRATE_SRC")" -ne "$WIDE_FNS" ] \
  || [ "$AVX2_ARMS" -ne "$WIDE_FNS" ] \
  || grep -qE 'mul_add|\bfma\b|_fn?m(add|sub)' <<<"$CRATE_SRC" \
  || grep -qE '_mm[0-9]*_[a-z0-9_]*(load|store|gather|lddqu|prefetch|broadcast_[sp][sd]\b)' <<<"$CRATE_SRC"; then
  echo "one instance selection: each #[target_feature(enable = \"avx2\")] fn entered from one unsafe block in an Instance::Avx2 arm; no fused multiply-add, no pointer-taking intrinsic under crates/*/src" >&2; exit 1
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
# a shrunk view and keep training, the crashed rank rejoins live and
# restores from its peers. The example's exit code already
# encodes the contract — membership churn must have happened (shrinks
# AND rejoins observed) and the elastic run's final loss must match a
# fixed-membership reference within tolerance — so CI only needs the
# exit status plus the counter line in the log. The ledger and membership
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

step_start "bench smoke: fig1, fig7, examples/performance_model"
cargo run -p compso-bench --release --bin fig1 >/dev/null
cargo run -p compso-bench --release --bin fig7 >/dev/null
# The only caller of encoder selection and Eq. 5 outside tests.
cargo run --release --example performance_model >/dev/null
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
