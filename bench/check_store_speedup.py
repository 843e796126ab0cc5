#!/usr/bin/env python3
"""Gate: the persistent trace store must beat cold generation.

Usage:
    bench/check_store_speedup.py BENCH_microbench.json
                                 [--min-speedup X]
    bench/check_store_speedup.py --self-test

Reads the committed microbenchmark results and asserts that loading
a trace from a v3 store file (BM_TraceLoad: mmap + full CRC
validation + zero-copy column views) is at least --min-speedup times
faster than regenerating the same trace from the synthetic workload
(BM_TracePrepareCold). If the store ever loses its reason to exist —
say the validator grows quadratic, or generation becomes trivially
cheap — this gate fails and the store should be re-justified or
removed.

Runs as the bench_store_smoke ctest entry against the checked-in
BENCH_microbench.json, so the committed perf trajectory itself is
what proves the speedup.
"""

import argparse
import json
import sys

import gatelib

LOAD = "BM_TraceLoad"
COLD = "BM_TracePrepareCold"


def load_times(path):
    """Map benchmark name -> cpu_time (a repeated row at its median)
    from a google-benchmark JSON file."""
    with open(path, "r", encoding="utf-8") as f:
        return gatelib.bench_times(json.load(f))


def check_speedup(times, min_speedup):
    """Error string when the store speedup gate fails, else None."""
    load = times.get(LOAD)
    cold = times.get(COLD)
    if load is None or cold is None:
        missing = [n for n in (LOAD, COLD) if times.get(n) is None]
        return (
            f"missing benchmark(s) {', '.join(missing)}: rerun "
            f"bench/run_bench.sh to refresh the committed results"
        )
    if load <= 0:
        return f"nonsensical {LOAD} time {load}"
    speedup = cold / load
    if speedup < min_speedup:
        return (
            f"store load is only {speedup:.1f}x faster than cold "
            f"generation ({LOAD} {load:.0f} ns vs {COLD} "
            f"{cold:.0f} ns); the gate requires >= "
            f"{min_speedup:.1f}x"
        )
    return None


def self_test():
    """Exercise the gate logic on synthetic inputs."""
    ok = {LOAD: 10.0, COLD: 100.0}
    assert check_speedup(ok, 5.0) is None

    slow = {LOAD: 50.0, COLD: 100.0}
    err = check_speedup(slow, 5.0)
    assert err is not None and "2.0x" in err, err

    missing = {COLD: 100.0}
    err = check_speedup(missing, 5.0)
    assert err is not None and LOAD in err, err

    print("check_store_speedup.py self-test: all checks passed")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("results", nargs="?",
                        help="BENCH_microbench.json")
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="required cold/load time ratio "
                             "(default 5)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in logic checks and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.results:
        parser.error("a results JSON file is required "
                     "(or use --self-test)")

    times = load_times(args.results)
    err = check_speedup(times, args.min_speedup)
    if err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    speedup = times[COLD] / times[LOAD]
    print(f"trace store load is {speedup:.1f}x faster than cold "
          f"generation (gate: {args.min_speedup:.1f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
