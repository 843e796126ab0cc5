#!/usr/bin/env python3
"""Gate: the result cache must not change simulation output.

Usage:
    bench/check_result_cache_determinism.py --build-dir BUILD
                                            [--accesses N]
                                            [--jobs ...]
    bench/check_result_cache_determinism.py --self-test

Runs the Figure 13 sweep with the result cache off (the reference),
then for each requested FVC_JOBS value walks a fresh store through
its whole life cycle — cold (simulate and publish), warm (serve
with FVC_RESULT_EXPECT_WARM=1), readonly (serve without write
access) — and demands that every run's stdout table and every
exported CSV be byte-identical to the reference. The cache's whole
contract is that fingerprint lookup, dedup and the disk round trip
are invisible in the output; any drift — a counter that fails to
round-trip through the record codec, a reordered row, a float
formatting change — fails this gate before it can land.

The cache-off reference runs first so the comparison blames the
result cache, not the baseline.
"""

import argparse
import os
import sys
import tempfile

import gatelib


def bench_env(base, accesses, jobs, mode, result_dir, expect_warm):
    """The environment of one fig13 run (gatelib.hermetic_env).
    FVC_DAEMON=off keeps a running fvc_sweepd from serving the run,
    so every stage tests this gate's own store and FVC_JOBS, not
    the daemon's."""
    return gatelib.hermetic_env(base, {
        "FVC_TRACE_ACCESSES": accesses,
        "FVC_DAEMON": "off",
        "FVC_JOBS": jobs,
        "FVC_RESULT_DIR": None if mode is None else result_dir,
        "FVC_RESULT_CACHE": mode,
        "FVC_RESULT_EXPECT_WARM": "1" if expect_warm else None,
    })


def run_fig13(binary, label, accesses, jobs, mode, result_dir,
              expect_warm=False):
    """Run the Figure 13 sweep; return its gathered output bundle.

    `mode` of None disables the cache (no FVC_RESULT_DIR at all);
    otherwise it is the FVC_RESULT_CACHE value and `result_dir`
    holds the store.
    """
    env = bench_env(os.environ, accesses, jobs, mode, result_dir,
                    expect_warm)
    return gatelib.run_bench(binary, label, env)[0]


def self_test():
    """Exercise the comparison logic and the run environment."""
    gatelib.self_test()

    # The bench environment is hermetic: injected FVC_* knobs are
    # dropped, the pinned ones set, everything else kept.
    injected = {"FVC_DAEMON": "on", "FVC_SIMD": "off",
                "FVC_FAULT_SPEC": "sweep_job=0",
                "FVC_RESULT_DIR": "/elsewhere", "PATH": "/bin"}
    off = bench_env(injected, 20000, None, None, None, False)
    assert "FVC_RESULT_DIR" not in off and "FVC_JOBS" not in off, off
    warm = bench_env(injected, 20000, 8, "readonly", "/store", True)
    assert warm["FVC_RESULT_DIR"] == "/store", warm
    assert warm["FVC_RESULT_CACHE"] == "readonly", warm
    assert warm["FVC_JOBS"] == "8", warm
    assert warm["FVC_RESULT_EXPECT_WARM"] == "1", warm
    for env in (off, warm):
        assert env["FVC_DAEMON"] == "off", env
        assert "FVC_SIMD" not in env, env
        assert "FVC_FAULT_SPEC" not in env, env
        assert env["PATH"] == "/bin", env

    print("check_result_cache_determinism.py self-test: "
          "all checks passed")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir",
                        help="CMake build dir holding bench/")
    parser.add_argument("--accesses", type=int, default=20000,
                        help="FVC_TRACE_ACCESSES per cell "
                             "(default 20000: small but nonzero "
                             "miss counts)")
    parser.add_argument("--jobs", type=int, nargs="*",
                        default=[1, 8],
                        help="FVC_JOBS values to sweep "
                             "(default 1 8)")
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

    reference = run_fig13(binary, "cache-off", args.accesses,
                          None, None, None)
    print(f"cache-off reference: {len(reference['stdout'])} stdout "
          f"bytes, {len(reference['csvs'])} CSVs")
    if not reference["csvs"]:
        print("error: reference run exported no CSVs; FVC_CSV_DIR "
              "plumbing is broken", file=sys.stderr)
        return 1

    failures = []
    for jobs in args.jobs:
        with tempfile.TemporaryDirectory(
                prefix="fvc-rcd-store-") as rdir:
            stages = [
                (f"cold jobs={jobs}", "on", False),
                (f"warm jobs={jobs}", "on", True),
                (f"readonly jobs={jobs}", "readonly", True),
            ]
            for label, mode, expect_warm in stages:
                candidate = run_fig13(binary, label, args.accesses,
                                      jobs, mode, rdir,
                                      expect_warm=expect_warm)
                errors = gatelib.compare_runs(reference, candidate)
                tag = "ok" if not errors else "MISMATCH"
                print(f"  {tag:<8} {label}")
                failures.extend(errors)

    if gatelib.report_failures(failures, "determinism"):
        return 1
    print(f"\nresult-cache output byte-identical to cache-off "
          f"across cold/warm/readonly and FVC_JOBS {args.jobs}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
