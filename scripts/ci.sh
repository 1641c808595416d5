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
# The per-instance tests run every instance this host has (one line).
cargo test -q -p compso-tensor --lib current_is_the_widest_available_instance -- --nocapture \
  | grep 'instances this host runs'
step_end

step_start "compso-lint --deny"
# Invariant lint over the whole workspace: its rules are the table
# `rules::RULES` in crates/lint/src/rules/mod.rs (DESIGN.md §11.2), each
# with firing, clean and suppressed fixtures under crates/lint/fixtures/.
# One cold pass of the binary the release build above just produced; the
# outer timeout is the hang backstop and the timing summary below shows
# a slow run. The JSON report (per-rule counts) is uploaded as a CI
# artifact (see .github/workflows/ci.yml).
timeout --kill-after=5 10 \
  target/release/compso-lint --deny --json-out target/lint-report.json \
  || { echo "compso-lint: violations (or the 10s hang backstop fired)" >&2; exit 1; }
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

step_start "what no compiler, lint or test check sees"
# Each "one X" contract is pinned where it can be tested (DESIGN.md §5,
# "Contracts and their pins"): lint rules, counter and bit-for-bit tests,
# and reachable-pub plus dead_code for a deleted fn or const. These come
# back unflagged: rustc's dead_code stops at `pub` and reachable-pub
# checks fns, consts and statics by name, so a deleted type or field,
# or a pricing fn that compso-sim also names, compiles unseen; so do a
# sub-byte bit-packer and its unpacker back beside the one code layout
# under their old names (a test-only caller keeps them alive), a
# provided trait method, a second thread-local own-frame list, a manifest
# dependency, an env knob or shim, and a second kernel that is as
# bit-identical to its oracle as the production one: a GEMM loop, or the
# scalar chunk compressor (the tests' oracle) called from the staged path
# or the Quantizer. The lint fixtures and this script are not searched:
# they spell these names.
fence() { echo "$1" >&2; exit 1; }
TRAIT_FNS=$(awk '/^pub trait Compressor/,/^}/' crates/core/src/traits.rs \
  | grep -oE '^    fn [a-z_]+' | awk '{print $2}' | sort | tr '\n' ' ')
COMPRESS_SRC=$(awk '/^fn compress_chunked_reconstructing/,/^}/' crates/core/src/kernels.rs)
QUANTIZE_SRC=$(awk '/^    pub\(crate\) fn quantize_with_range/,/^    }/' crates/core/src/quantize.rs)
GEMM_SRC=$(sed '/^mod tests/,$d' crates/tensor/src/matrix.rs)
GEMM_MACS=$(grep -E '\+= [a-z_0-9]+(\[[a-z_0-9]+\])? \* [a-z_0-9]+(\[[a-z_0-9]+\])?;' <<<"$GEMM_SRC" \
  | grep -vcE 'scale \* b;|v \* v;' || true)
GEMM_COUNTS="$GEMM_MACS:$(grep -cE '^fn tile[<(]' <<<"$GEMM_SRC" || true):$(grep -c ' gemm(' <<<"$GEMM_SRC" || true)"
grep -rnE --exclude-dir=fixtures 'struct (Compso|Resilience|ControlBlock)\b|ActiveSetting|ThroughputTable|CollectiveKind|OnlineProfiler|DequantTable|TableView|dequantize_codes|pub chunk_elems:|KernelConfig::default\(\)\.chunk_elems|kc\.chunk_elems' \
  crates src tests examples && fence "a deleted type, field or knob is back"
grep -rnE 'pack_into|unpack_map|SPLIT_MIN_WIDTH|read_wide_ref' crates src tests examples \
  && fence "a second code layout is back: every chunk's codes reach the coder one byte each"
grep -rnE 'netmodel|NetworkSpec' crates/comm/src \
  || grep -rnE '(struct|fn) (CompressorProfile|choose_aggregation|comm_speedup|end_to_end_gain)\b' crates/core/src \
  || grep -n 'compso-comm' crates/sim/Cargo.toml && fence "a second cost model is back: price in compso-sim only"
grep -rnE 'BENCH_compress|bench_check|bench_snapshot|COMPSO_BENCH_|criterion' crates shims scripts .github Cargo.toml \
  --exclude=ci.sh && fence "the snapshot bench, its knobs or the criterion shim is back"
grep -rn 'OWN_FRAMES' crates src tests examples benchmark/src | grep -v '^crates/core/src/kernels.rs:' \
  && fence "a second own-frame list: OWN_FRAMES belongs to crates/core/src/kernels.rs"
[ "$TRAIT_FNS" != "chunk_elems_for compress compress_group compress_group_keyed decompress decompress_group name ratio " ] \
  && fence "the Compressor trait's methods are now: $TRAIT_FNS"
{ [ -z "$COMPRESS_SRC" ] || [ -z "$QUANTIZE_SRC" ]; } \
  && fence "compress_chunked_reconstructing or Quantizer::quantize_with_range not found"
grep -nE 'filter_chunk|quantize_chunk|serialize_chunk|FilteredChunk|quantize_on_grid' <<<"$COMPRESS_SRC$QUANTIZE_SRC" \
  && fence "the scalar chunk compressor runs in a production body again"
[ "$GEMM_COUNTS" != 1:1:5 ] \
  && fence "matrix.rs: multiply-accumulate lines:fn tile:gemm( calls read $GEMM_COUNTS, not 1:1:5"
step_end

step_start "gradient sync smoke (tests/grad_sync.rs)"
cargo test --release --test grad_sync -q
step_end

step_start "chaos smoke (hard 300s wall-clock cap)"
# The chaos campaigns assert liveness ("no collective can block
# forever"); a regression there would otherwise hang CI instead of
# failing it, so the smoke runs under a hard external timeout. The
# ladder campaigns drive both repair rungs' resend/ack handshake.
timeout --kill-after=10 300 \
  cargo test --release --test chaos -q -- \
  chaos_campaign_converges_with_exact_fault_accounting \
  scheduled_crash_poisons_the_group_and_names_the_rank \
  ladder_rung_two_absorbs_corrupted_compressed_resends \
  ladder_rung_two_resends_the_clean_frames_and_a_one_byte_ack \
  ladder_bottom_rung_degrades_locally_and_training_survives \
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
# The suppression audit's number to watch: compso-lint's `lint:allow`
# markers and clippy's `#[expect(clippy::…)]` attributes, which rustfmt
# may break after the `(` (the lint crate's own fixtures and rule docs
# spell the marker too, so it is left out).
ALLOWS=$(grep -rn 'lint:allow(' --include='*.rs' crates | grep -vc '^crates/lint/' || true)
EXPECTS=$(grep -rzoP '#\[expect\(\s*clippy::' --include='*.rs' crates | tr '\0' '\n' \
  | grep '^crates/' | grep -vc '^crates/lint/' || true)
printf '%4s   inline suppressions under crates/ (%s lint:allow, %s #[expect(clippy::…)])\n' \
  "$((ALLOWS + EXPECTS))" "$ALLOWS" "$EXPECTS"

echo "CI green."
