#!/usr/bin/env sh
# The offline CI gate — exactly what .github/workflows/ci.yml runs.
#
# The workspace is hermetic (zero external crates), so every step runs with
# --offline and must pass with no registry reachable. Run from the repo root:
#
#   ./ci.sh
#
# Each step is timed; the run fails fast on the first broken step (naming
# it) and always ends with a per-step summary table.
set -u

SUMMARY=$(mktemp)
trap 'rm -f "$SUMMARY"' EXIT

print_summary() {
    echo ""
    echo "== step summary =="
    cat "$SUMMARY"
}

# step <name> <command...> — run, time, and record one CI step; on failure
# print the failing step's name and the summary so far, then exit.
step() {
    STEP_NAME=$1
    shift
    echo "==> $STEP_NAME"
    STEP_START=$(date +%s)
    "$@"
    STEP_RC=$?
    STEP_ELAPSED=$(( $(date +%s) - STEP_START ))
    if [ "$STEP_RC" -ne 0 ]; then
        printf '%-42s %5ss  FAIL\n' "$STEP_NAME" "$STEP_ELAPSED" >> "$SUMMARY"
        echo ""
        echo "CI FAILED at step: $STEP_NAME (exit $STEP_RC after ${STEP_ELAPSED}s)"
        print_summary
        exit "$STEP_RC"
    fi
    printf '%-42s %5ss  ok\n' "$STEP_NAME" "$STEP_ELAPSED" >> "$SUMMARY"
}

step "cargo fmt --check" cargo fmt --check

step "cargo clippy (all targets, -D warnings)" \
    cargo clippy --offline --all-targets -- -D warnings

step "cargo build --release" cargo build --release --offline

step "cargo test" cargo test -q --offline --release

# The wake-serving benchmark (wakebench/) is its own crate that no
# workspace target builds, yet it compiles against public pipeline and
# serving APIs (decide_batch, orientation_features, liveness_input,
# streamer_with, FrameAnalyzer::set_quant_mode, the ServeConfig fields).
# Building and unit-testing it here makes an API break fail CI rather than
# the benchmark run.
step "wakebench build + unit tests" \
    cargo test -q --offline --release --manifest-path wakebench/Cargo.toml

# The ht-par determinism contract says thread count must never change any
# result, so the whole suite must stay green at both extremes of the
# HT_THREADS override (1 = serial global pool, 4 = oversubscribed on small
# runners).
step "cargo test (HT_THREADS=1)" \
    env HT_THREADS=1 cargo test -q --offline --release

step "cargo test (HT_THREADS=4)" \
    env HT_THREADS=4 cargo test -q --offline --release

# Observability must be read-only: recording spans/counters through every
# instrumented layer may cost time but can never change a computed result
# (the golden-determinism test additionally proves report-byte identity).
step "cargo test (HT_OBS=json)" \
    env HT_OBS=json cargo test -q --offline --release

# Disabled-path overhead gate: spans compiled into the hot layers must cost
# an atomic load + branch when HT_OBS is off. The obs bench binary asserts
# a 50 ns median bound on the disabled span/counter paths (the measured
# cost is ~2 ns; the bound's headroom absorbs CI-runner noise) and fails
# the run on violation. BENCH_obs.json lands in target/bench_out.
step "obs overhead gate (bench obs)" \
    env HT_BENCH_FAST=1 HT_BENCH_DIR="$PWD/target/bench_out" \
    cargo bench -q --offline -p ht-bench --bench obs

# FFT plan-cache gate: the fft_plans bench ends with a steady-state workload
# run under HT_OBS recording and asserts, via the fft.plan_hits /
# fft.plan_misses counters, that misses stay bounded by the number of
# distinct transform sizes and that the warmed steady state adds zero
# misses. A regression that rebuilds plans per call fails here.
# BENCH_fft.json lands in target/bench_out.
step "fft plan-cache gate (bench fft_plans)" \
    env HT_BENCH_FAST=1 HT_BENCH_DIR="$PWD/target/bench_out" \
    cargo bench -q --offline -p ht-bench --bench fft_plans

# Streaming latency gate: the stream_latency bench drives the frame-by-frame
# wake pipeline over rendered scenarios with observability on and asserts
# (a) the stream.frame p95 stays inside half the 10 ms hop deadline,
# (b) the steady-state push loop makes zero heap allocations, counted by a
# wrapping global allocator, and (c) the frame analyzer runs exactly one
# inverse FFT per analyzed frame plus one per microphone pair per assembly
# (a count, so it cannot flake). BENCH_stream.json lands in
# target/bench_out.
step "stream latency gate (bench stream_latency)" \
    env HT_BENCH_FAST=1 HT_BENCH_DIR="$PWD/target/bench_out" \
    cargo bench -q --offline -p ht-bench --bench stream_latency

# Server throughput gate: the server_throughput bench replays a seeded
# multi-tenant load drive (thousands of interleaved sessions) through the
# sharded WakeServer (slots prewarmed, int8 decision backends calibrated)
# and asserts (a) sustained end-to-end wake decisions/sec stays above the
# floor, (b) the incremental decision path (serve.assemble +
# serve.decision) sustains 1200/s at the median — above anything the old
# full-segment directivity flush could reach, (c) the median
# serve.assemble stays under 300 µs, and (d) the serve.decision and
# serve.push p99 tails stay under their ceilings. BENCH_server.json lands
# in target/bench_out.
step "server throughput gate (bench server_throughput)" \
    env HT_BENCH_FAST=1 HT_BENCH_DIR="$PWD/target/bench_out" \
    cargo bench -q --offline -p ht-bench --bench server_throughput

# Quantized decision-path gate: the kernel_quant bench times the reference
# vs vectorized GCC-PHAT whitening kernels and the f64 vs int8 liveness /
# orientation inference backends, asserting the per-size cross-spectrum
# speedup floors, a 2x floor on int8 liveness inference, an accuracy delta
# within 0.5 pp of the f64 reference, byte-stability of the reference
# path (building the int8 backends must not move a bit), and — on AVX2
# machines — exact i32 agreement between the std::arch i8 kernels and the
# scalar reference on every tested shape (non-AVX2 runners log a notice
# and skip). BENCH_quant.json lands in target/bench_out.
step "quantized kernel gate (bench kernel_quant)" \
    env HT_BENCH_FAST=1 HT_BENCH_DIR="$PWD/target/bench_out" \
    cargo bench -q --offline -p ht-bench --bench kernel_quant

# Serving soak: 10k sessions through the load generator with a counting
# global allocator — the steady-state push path AND the incremental
# evidence assembly must make zero heap allocations, and the session
# arenas must never grow past warmup.
step "serve soak (10k sessions, zero steady-state allocs)" \
    cargo test -q --offline --release -p ht-serve --test serve_soak -- --ignored

print_summary
echo ""
echo "CI green"
