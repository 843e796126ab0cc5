#!/usr/bin/env python3
"""Gate: the vector lane kernel must beat the scalar lane kernel.

Usage:
    bench/check_simd_speedup.py BENCH_microbench.json
                                [--min-speedup X]
    bench/check_simd_speedup.py --self-test

Reads the committed microbenchmark results and asserts that the
default sweep engine (BM_GridSweepSinglePass, which dispatches the
lane kernel at the best available ISA) is at least --min-speedup
times faster than the same grid pinned to the lane kernel's scalar
ISA level (BM_GridSweepLaneScalar, what portable builds and
FVC_SIMD=off run). If the vector kernels ever lose their reason to
exist — a vector-trait regression, a scalar level that catches up
— this gate fails and the AVX2/AVX-512 translation units should be
re-justified or removed.

The default floor is 1.2x, and that is a measured ceiling, not
timidity: on the gate grid ~20% of lane-records take the in-order
FVC-coupled miss path (every access to an FVC-resident line is a
DMC tag miss the FVC serves, by protocol design), which with the
per-block encode/shared work is roughly half the kernel's cycles —
Amdahl caps it well short of 2x. A two-phase batched miss engine
(hit loop defers misses to a per-lane queue, drained with vertical
victim selection and gathered FVC probes) was built to break that
ceiling and measured *slower* than the inline engine at both block
and chunk drain granularity — a queue must also defer the same-set
records behind each pending miss, which the inline walk's
post-miss prediction repair instead retires in bulk; see
EXPERIMENTS.md, "SIMD lane kernel" section, for the numbers. The
gate judges the committed JSON — not a fresh run — so it catches
the vector kernels losing their advantage without flaking on
shared-host variance.

Runs as the bench_simd_speedup_gate ctest entry against the
checked-in BENCH_microbench.json, so the committed perf trajectory
itself is what proves the speedup. The results must be recorded in
a Release build on a machine with a vector ISA (the committed file
is); bench/run_bench.sh enforces the build type when refreshing.
"""

import argparse
import json
import sys

LANE = "BM_GridSweepSinglePass"
SCALAR = "BM_GridSweepLaneScalar"


def load_doc(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def load_times(doc):
    """Map benchmark name -> cpu_time from a google-benchmark doc."""
    times = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name")
        time = bench.get("cpu_time")
        if name is not None and time is not None:
            times[name] = float(time)
    return times


def check_speedup(times, isa, min_speedup):
    """Error string when the SIMD speedup gate fails, else None."""
    # Older files spell a scalar-only recording "off".
    if isa in ("off", "scalar"):
        return (
            f"results were recorded with fvc_simd_isa={isa!r}; the "
            f"gate needs a run where the lane kernel dispatched a "
            f"vector ISA (refresh on an AVX2/AVX-512 machine with "
            f"FVC_SIMD unset)"
        )
    lane = times.get(LANE)
    scalar = times.get(SCALAR)
    if lane is None or scalar is None:
        missing = [n for n in (LANE, SCALAR) if times.get(n) is None]
        return (
            f"missing benchmark(s) {', '.join(missing)}: rerun "
            f"bench/run_bench.sh to refresh the committed results"
        )
    if lane <= 0:
        return f"nonsensical {LANE} time {lane}"
    speedup = scalar / lane
    if speedup < min_speedup:
        return (
            f"lane kernel ({isa}) is only {speedup:.2f}x faster "
            f"than lane-scalar ({LANE} {lane:.1f} vs {SCALAR} "
            f"{scalar:.1f}); the gate requires >= "
            f"{min_speedup:.1f}x"
        )
    return None


def self_test():
    """Exercise the gate logic on synthetic inputs."""
    ok = {LANE: 10.0, SCALAR: 40.0}
    assert check_speedup(ok, "avx512", 1.2) is None

    slow = {LANE: 40.0, SCALAR: 44.0}
    err = check_speedup(slow, "avx2", 1.2)
    assert err is not None and "1.10x" in err, err

    missing = {SCALAR: 40.0}
    err = check_speedup(missing, "avx512", 1.2)
    assert err is not None and LANE in err, err

    err = check_speedup(ok, "off", 1.2)
    assert err is not None and "fvc_simd_isa" in err, err
    err = check_speedup(ok, "scalar", 1.2)
    assert err is not None and "fvc_simd_isa" in err, err

    print("check_simd_speedup.py self-test: all checks passed")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("results", nargs="?",
                        help="BENCH_microbench.json")
    parser.add_argument("--min-speedup", type=float, default=1.2,
                        help="required scalar/lane time ratio "
                             "(default 1.2)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in logic checks and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.results:
        parser.error("a results JSON file is required "
                     "(or use --self-test)")

    doc = load_doc(args.results)
    times = load_times(doc)
    isa = doc.get("context", {}).get("fvc_simd_isa", "scalar")
    err = check_speedup(times, isa, args.min_speedup)
    if err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    speedup = times[SCALAR] / times[LANE]
    print(f"lane kernel ({isa}) is {speedup:.2f}x faster than "
          f"lane-scalar (gate: {args.min_speedup:.1f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
