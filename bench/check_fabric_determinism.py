#!/usr/bin/env python3
"""Gate: the process fabric must not change simulation output.

Usage:
    bench/check_fabric_determinism.py --build-dir BUILD
                                      [--accesses N] [--workers ...]
    bench/check_fabric_determinism.py --self-test

Runs the Figure 13 sweep (the figure wired through the fabric) once
serially (FVC_WORKERS unset) and once per requested worker count
(default 1, 2 and 4), each with its own FVC_CSV_DIR, then demands
the stdout table and every exported CSV be byte-identical to the
serial run. The fabric's whole contract is that forking, lease
stealing and spill merging are invisible in the output; any
drift — row ordering, a dropped cell, a float formatting change —
fails this gate before it can land.

The serial reference runs first so the comparison blames the fabric,
not the baseline.
"""

import argparse
import os
import sys

import gatelib


def bench_env(base, accesses, workers):
    """The environment of one fig13 run (gatelib.hermetic_env).
    FVC_DAEMON=off keeps a running fvc_sweepd from serving it: the
    cells must come from this process or its forked workers."""
    return gatelib.hermetic_env(base, {
        "FVC_TRACE_ACCESSES": accesses,
        "FVC_DAEMON": "off",
        "FVC_WORKERS": workers,
    })


def run_fig13(binary, workers, accesses):
    """Run the Figure 13 sweep; return its gathered output bundle.

    `workers` of None leaves FVC_WORKERS unset (serial in-process
    path); otherwise the fabric forks that many workers. Each run
    gets a private FVC_CSV_DIR and no FVC_FABRIC_DIR, so fabric
    scratch stays ephemeral and runs cannot see each other's
    spills.
    """
    label = "serial" if workers is None else f"workers={workers}"
    env = bench_env(os.environ, accesses, workers)
    return gatelib.run_bench(binary, label, env)[0]


def self_test():
    """Exercise the comparison logic and the run environment."""
    gatelib.self_test()

    # The bench environment is hermetic: injected FVC_* knobs are
    # dropped, the pinned ones set, everything else kept.
    injected = {"FVC_DAEMON": "on", "FVC_SIMD": "off",
                "FVC_FAULT_SPEC": "sweep_job=0", "PATH": "/bin"}
    for workers in (None, 2):
        env = bench_env(injected, 20000, workers)
        assert env["FVC_DAEMON"] == "off", env
        assert "FVC_SIMD" not in env, env
        assert "FVC_FAULT_SPEC" not in env, env
        assert env["FVC_TRACE_ACCESSES"] == "20000", env
        assert env["PATH"] == "/bin", env
        assert env.get("FVC_WORKERS") == (
            None if workers is None else "2"), env

    print("check_fabric_determinism.py self-test: "
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
    parser.add_argument("--workers", type=int, nargs="*",
                        default=[1, 2, 4],
                        help="worker counts to sweep "
                             "(default 1 2 4)")
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

    reference = run_fig13(binary, None, args.accesses)
    print(f"serial reference: {len(reference['stdout'])} stdout "
          f"bytes, {len(reference['csvs'])} CSVs")
    if not reference["csvs"]:
        print("error: serial run exported no CSVs; FVC_CSV_DIR "
              "plumbing is broken", file=sys.stderr)
        return 1

    failures = []
    for workers in args.workers:
        candidate = run_fig13(binary, workers, args.accesses)
        errors = gatelib.compare_runs(reference, candidate)
        tag = "ok" if not errors else "MISMATCH"
        print(f"  {tag:<8} {candidate['label']}")
        failures.extend(errors)

    if gatelib.report_failures(failures, "determinism"):
        return 1
    print(f"\nfabric output byte-identical to serial across "
          f"worker counts {args.workers}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
