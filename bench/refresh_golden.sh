#!/bin/sh
# Regenerate the golden-figure regression store under golden/.
#
# Every fig/tab bench is run with CSV export enabled and its outputs
# captured as the canonical ("golden") results the golden_gate ctest
# diffs future runs against. Like bench/run_bench.sh, the default
# (no-argument) invocation configures and builds a dedicated Release
# tree under build-golden/ so the committed numbers always come from
# an optimized, assertion-free binary; passing a build dir skips
# that, but a tree whose CMakeCache.txt does not say
# CMAKE_BUILD_TYPE=Release is refused — debug-build goldens would
# make the gate compare against numbers nobody ships.
#
# The manifest (golden/MANIFEST) is stamped with the trace-generator
# version and every profile's content fingerprint (via the
# golden_manifest tool), plus the trace length used and the CSV file
# list. golden_gate.py refuses to diff when the header drifts.
#
# Usage: bench/refresh_golden.sh [build-dir]
# Env:   FVC_GOLDEN_ACCESSES  trace length per benchmark
#                             (default 40000; becomes
#                             FVC_TRACE_ACCESSES for every bench)
set -eu

repo_root=$(cd "$(dirname "$0")/.." && pwd)
if [ $# -gt 0 ]; then
    build_dir=$1
    cache="$build_dir/CMakeCache.txt"
    if [ ! -f "$cache" ]; then
        echo "error: $build_dir is not a configured build tree" >&2
        exit 1
    fi
    if ! grep -q '^CMAKE_BUILD_TYPE:[A-Z]*=Release$' "$cache"; then
        echo "error: refusing to generate golden data from a" \
             "non-Release build tree ($build_dir); configure with" \
             "-DCMAKE_BUILD_TYPE=Release" >&2
        exit 1
    fi
else
    build_dir="$repo_root/build-golden"
    cmake -S "$repo_root" -B "$build_dir" \
        -DCMAKE_BUILD_TYPE=Release >/dev/null
fi

benches="fig01_int_locality fig02_fp_locality fig03_gcc_timeline \
fig04_miss_attribution fig05_uniformity tab01_top_values \
tab02_input_sensitivity tab03_stability tab04_constancy \
fig09_access_time fig10_fvc_size_sweep fig11_fvc_content \
fig12_reduction_grid fig13_dmc_vs_fvc fig14_set_assoc \
fig15_victim_cache"

# shellcheck disable=SC2086
cmake --build "$build_dir" --target $benches golden_manifest \
    -j "$(nproc 2>/dev/null || echo 2)" >/dev/null

golden_dir="$repo_root/golden"
mkdir -p "$golden_dir"
rm -f "$golden_dir"/*.csv "$golden_dir/MANIFEST"

# Start from an environment with no FVC_* knob at all, then pin only
# what golden_gate.py pins too, so golden data is always produced by
# default-configuration, in-process runs.
accesses="${FVC_GOLDEN_ACCESSES:-40000}"
for var in $(env | sed -n 's/^\(FVC_[A-Za-z0-9_]*\)=.*/\1/p'); do
    unset "$var"
done

FVC_TRACE_ACCESSES=$accesses
export FVC_TRACE_ACCESSES
FVC_CSV_DIR="$golden_dir"
export FVC_CSV_DIR
FVC_STRICT=1
export FVC_STRICT
FVC_DAEMON=off
export FVC_DAEMON

for bench in $benches; do
    echo "golden: $bench (accesses=$FVC_TRACE_ACCESSES)"
    "$build_dir/bench/$bench" >/dev/null
done

manifest="$golden_dir/MANIFEST"
"$build_dir/bench/golden_manifest" > "$manifest"
(cd "$golden_dir" && ls *.csv | LC_ALL=C sort) | \
    sed 's/^/csv /' >> "$manifest"

echo "wrote $manifest ($(grep -c '^csv ' "$manifest") CSV files)"
