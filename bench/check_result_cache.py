#!/usr/bin/env python3
"""Gate: the persistent result cache must beat re-simulation.

Usage:
    bench/check_result_cache.py --build-dir BUILD
                                [--accesses N] [--min-speedup X]
    bench/check_result_cache.py --self-test

Runs the Figure 13 sweep twice against one FVC_RESULT_DIR: once
cold (empty store, every cell simulated and published) and once
warm with FVC_RESULT_EXPECT_WARM=1, which turns any simulation into
an immediate fatal error — the warm run finishing at all proves the
engine never ran. The gate then demands:

  1. warm stdout and every exported CSV byte-identical to cold
     (served counters are the simulated counters, bit for bit), and
  2. the warm run at least --min-speedup times faster wall-clock
     than the cold run (default 20x; a warm serve is an mmap walk,
     the cold run replays every cell's trace).

If the result cache ever loses its reason to exist — the store
read amortizes worse than the engine, or a codec bug breaks the
round trip — this gate fails before the change can land.
"""

import argparse
import os
import sys
import tempfile

import gatelib


def check_speedup(cold_seconds, warm_seconds, min_speedup):
    """Error string when the warm run is not fast enough, else
    None."""
    if warm_seconds <= 0:
        return None
    speedup = cold_seconds / warm_seconds
    if speedup < min_speedup:
        return (
            f"warm serve is only {speedup:.1f}x faster than the "
            f"cold run (cold {cold_seconds:.2f}s vs warm "
            f"{warm_seconds:.2f}s); the gate requires >= "
            f"{min_speedup:.1f}x"
        )
    return None


def bench_env(base, accesses, result_dir, expect_warm):
    """The environment of one fig13 run (gatelib.hermetic_env).
    FVC_DAEMON=off keeps a running fvc_sweepd from serving the run,
    so the warm checks test this gate's own store, not the
    daemon's."""
    return gatelib.hermetic_env(base, {
        "FVC_TRACE_ACCESSES": accesses,
        "FVC_DAEMON": "off",
        "FVC_RESULT_DIR": result_dir,
        "FVC_RESULT_CACHE": "on",
        "FVC_RESULT_EXPECT_WARM": "1" if expect_warm else None,
    })


def run_fig13(binary, label, result_dir, accesses, expect_warm):
    """Run the Figure 13 sweep; return (bundle, wall_seconds).

    The result store lives in the caller's `result_dir` so the
    second run sees the first run's published records.
    FVC_RESULT_EXPECT_WARM=1 makes any store miss fatal inside the
    binary.
    """
    env = bench_env(os.environ, accesses, result_dir, expect_warm)
    return gatelib.run_bench(binary, label, env, timeout=600)


def self_test():
    """Exercise the comparison, speedup and environment logic."""
    gatelib.self_test()

    # The speedup floor flags a slow warm serve and passes a fast
    # one.
    assert check_speedup(100.0, 1.0, 20.0) is None
    err = check_speedup(100.0, 10.0, 20.0)
    assert err is not None and "10.0x" in err, err

    # The bench environment is hermetic: injected FVC_* knobs are
    # dropped, the pinned ones set, everything else kept.
    injected = {"FVC_DAEMON": "on", "FVC_SIMD": "off",
                "FVC_FAULT_SPEC": "sweep_job=0",
                "FVC_RESULT_DIR": "/elsewhere", "PATH": "/bin"}
    for expect_warm in (False, True):
        env = bench_env(injected, 20000, "/store", expect_warm)
        assert env["FVC_DAEMON"] == "off", env
        assert "FVC_SIMD" not in env, env
        assert "FVC_FAULT_SPEC" not in env, env
        assert env["FVC_RESULT_DIR"] == "/store", env
        assert env["FVC_RESULT_CACHE"] == "on", env
        assert env["PATH"] == "/bin", env
        assert ("FVC_RESULT_EXPECT_WARM" in env) == expect_warm, env

    print("check_result_cache.py self-test: all checks passed")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir",
                        help="CMake build dir holding bench/")
    parser.add_argument("--accesses", type=int, default=2000000,
                        help="FVC_TRACE_ACCESSES per cell (default "
                             "2000000: the Release engine clears "
                             "200k accesses in ~0.1s, inside the "
                             "process-startup noise floor; the "
                             "cold run must be long enough that "
                             "the warm/cold ratio measures the "
                             "store, not startup)")
    parser.add_argument("--min-speedup", type=float, default=20.0,
                        help="required cold/warm wall-clock ratio "
                             "(default 20)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in logic checks and "
                             "exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.build_dir:
        parser.error("--build-dir is required (or use --self-test)")

    binary = os.path.join(args.build_dir, "bench",
                          "fig13_dmc_vs_fvc")
    if not os.path.exists(binary):
        print(f"error: {binary} not found (build the bench targets "
              f"first)", file=sys.stderr)
        return 1

    with tempfile.TemporaryDirectory(prefix="fvc-rcache-") as rdir:
        cold, cold_s = run_fig13(binary, "cold", rdir,
                                 args.accesses, expect_warm=False)
        print(f"cold run: {cold_s:.2f}s, "
              f"{len(cold['stdout'])} stdout bytes, "
              f"{len(cold['csvs'])} CSVs")
        if not cold["csvs"]:
            print("error: cold run exported no CSVs; FVC_CSV_DIR "
                  "plumbing is broken", file=sys.stderr)
            return 1
        warm, warm_s = run_fig13(binary, "warm", rdir,
                                 args.accesses, expect_warm=True)
        print(f"warm run: {warm_s:.2f}s (FVC_RESULT_EXPECT_WARM=1: "
              f"zero simulations, or it would have died)")

    failures = gatelib.compare_runs(cold, warm)
    err = check_speedup(cold_s, warm_s, args.min_speedup)
    if err:
        failures.append(err)
    if gatelib.report_failures(failures, "result-cache gate"):
        return 1
    print(f"\nwarm serve {cold_s / max(warm_s, 1e-9):.1f}x faster "
          f"than cold, output byte-identical "
          f"(gate: {args.min_speedup:.1f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
