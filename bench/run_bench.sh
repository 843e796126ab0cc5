#!/bin/sh
# Run the google-benchmark microbenchmarks and write the results as
# JSON to BENCH_microbench.json at the repository root. The file is
# committed so the repo carries a perf trajectory: rerun after perf
# work and compare against the checked-in numbers (see
# bench/compare_bench.py).
#
# The default (no-argument) invocation configures and builds a
# dedicated Release tree under build-bench/ so the committed numbers
# always come from an optimized, assertion-free binary. Passing a
# build dir skips that and uses its microbench as-is — but whatever
# the source, a binary whose JSON does not report
# "fvc_build_type": "release" is refused: debug numbers in the perf
# trajectory are worse than no numbers.
#
# Usage: bench/run_bench.sh [build-dir] [extra benchmark args...]
# Env:   FVC_BENCH_MIN_TIME  per-benchmark min time (default 0.3)
#        FVC_BENCH_PREWARM   set to 1 to pre-warm the result cache
#                            (cold+warm fig13 through
#                            check_result_cache.py, proving the
#                            >= 20x warm serve in the same
#                            optimized tree before recording)
set -eu

repo_root=$(cd "$(dirname "$0")/.." && pwd)
if [ $# -gt 0 ]; then
    build_dir=$1
    shift
else
    build_dir="$repo_root/build-bench"
    cmake -S "$repo_root" -B "$build_dir" \
        -DCMAKE_BUILD_TYPE=Release >/dev/null
fi

cmake --build "$build_dir" --target microbench \
    -j "$(nproc 2>/dev/null || echo 2)" >/dev/null

# Keep an optimized fvc_sweepd alongside the bench binaries: a
# daemon-served recording (FVC_DAEMON=on against a Release daemon)
# must never mix a Debug daemon into Release numbers.
cmake --build "$build_dir" --target fvc_sweepd \
    -j "$(nproc 2>/dev/null || echo 2)" >/dev/null

bin="$build_dir/bench/microbench"
if [ ! -x "$bin" ]; then
    echo "error: $bin not built (cmake --build $build_dir)" >&2
    exit 1
fi

# Optional pre-warm: run the result-cache gate against this
# optimized tree. It builds fig13, walks a private store cold then
# warm, and fails loudly unless the warm serve is >= 20x faster
# with byte-identical output — the Release-tree proof
# bench_result_cache_gate relies on.
if [ "${FVC_BENCH_PREWARM:-0}" = "1" ]; then
    cmake --build "$build_dir" --target fig13_dmc_vs_fvc \
        -j "$(nproc 2>/dev/null || echo 2)" >/dev/null
    python3 "$repo_root/bench/check_result_cache.py" \
        --build-dir "$build_dir"
fi

out="$repo_root/BENCH_microbench.json"
tmp="$out.tmp"
trap 'rm -f "$tmp"' EXIT

"$bin" \
    --benchmark_out="$tmp" \
    --benchmark_out_format=json \
    --benchmark_min_time="${FVC_BENCH_MIN_TIME:-0.3}" \
    "$@"

if ! grep -q '"fvc_build_type": "release"' "$tmp"; then
    echo "error: refusing to record benchmark numbers from a" \
         "non-release microbench binary (fvc_build_type !=" \
         "release in $tmp); build with -DCMAKE_BUILD_TYPE=Release" >&2
    exit 1
fi

mv "$tmp" "$out"
trap - EXIT

# Surface the recorded trace-store state, replay-kernel ISA and
# daemon serving mode: comparisons are only valid between runs with
# the same state, ISA and serving mode (compare_bench.py enforces
# all three). The host CPU and its frequency-scaling governor, which
# the microbench reads itself, are printed back the same way.
store_state=$(sed -n \
    's/.*"fvc_trace_store": "\([a-z]*\)".*/\1/p' "$out" | head -n1)
simd_isa=$(sed -n \
    's/.*"fvc_simd_isa": "\([a-z0-9]*\)".*/\1/p' "$out" | head -n1)
daemon_state=$(sed -n \
    's/.*"fvc_daemon": "\([a-z]*\)".*/\1/p' "$out" | head -n1)
echo "wrote $out (fvc_trace_store: ${store_state:-unknown}," \
     "fvc_simd_isa: ${simd_isa:-unknown}," \
     "fvc_daemon: ${daemon_state:-unknown})"
cpu_model=$(sed -n \
    's/.*"fvc_cpu_model": "\([^"]*\)".*/\1/p' "$out" | head -n1)
governor=$(sed -n \
    's/.*"fvc_cpu_governor": "\([^"]*\)".*/\1/p' "$out" | head -n1)
echo "host: ${cpu_model:-unknown} (governor: ${governor:-unknown})"
