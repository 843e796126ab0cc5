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
import subprocess
import sys
import tempfile
import time


def gather_run(label, stdout_bytes, csv_dir):
    """Bundle one run's observable output for comparison."""
    csvs = {}
    for name in sorted(os.listdir(csv_dir)):
        if not name.endswith(".csv"):
            continue
        with open(os.path.join(csv_dir, name), "rb") as f:
            csvs[name] = f.read()
    return {"label": label, "stdout": stdout_bytes, "csvs": csvs}


def compare_runs(reference, candidate):
    """List of mismatch descriptions between two gathered runs."""
    errors = []
    ref_label = reference["label"]
    cand_label = candidate["label"]
    if reference["stdout"] != candidate["stdout"]:
        errors.append(
            f"{cand_label}: stdout differs from {ref_label} "
            f"({len(reference['stdout'])} vs "
            f"{len(candidate['stdout'])} bytes)"
        )
    ref_csvs = reference["csvs"]
    cand_csvs = candidate["csvs"]
    for name in sorted(set(ref_csvs) - set(cand_csvs)):
        errors.append(f"{cand_label}: missing CSV {name}")
    for name in sorted(set(cand_csvs) - set(ref_csvs)):
        errors.append(f"{cand_label}: unexpected extra CSV {name}")
    for name in sorted(set(ref_csvs) & set(cand_csvs)):
        if ref_csvs[name] != cand_csvs[name]:
            errors.append(
                f"{cand_label}: CSV {name} differs from "
                f"{ref_label}"
            )
    return errors


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


def bench_env(base, accesses, result_dir, expect_warm, csv_dir):
    """The environment of one fig13 run: `base` minus every FVC_*
    knob, plus only the knobs this gate pins. FVC_DAEMON=off keeps
    a running fvc_sweepd from serving the run, so the warm checks
    test this gate's own store, not the daemon's."""
    env = {k: v for k, v in base.items() if not k.startswith("FVC_")}
    env["FVC_TRACE_ACCESSES"] = str(accesses)
    env["FVC_DAEMON"] = "off"
    env["FVC_RESULT_DIR"] = result_dir
    env["FVC_RESULT_CACHE"] = "on"
    env["FVC_CSV_DIR"] = csv_dir
    if expect_warm:
        env["FVC_RESULT_EXPECT_WARM"] = "1"
    return env


def run_fig13(binary, label, result_dir, accesses, expect_warm):
    """Run the Figure 13 sweep; return (bundle, wall_seconds).

    Every run gets a private FVC_CSV_DIR; the result store lives in
    the caller's `result_dir` so the second run sees the first
    run's published records. FVC_RESULT_EXPECT_WARM=1 makes any
    store miss fatal inside the binary.
    """
    with tempfile.TemporaryDirectory(prefix="fvc-rc-") as csv_dir:
        env = bench_env(os.environ, accesses, result_dir,
                        expect_warm, csv_dir)
        start = time.monotonic()
        proc = subprocess.run(
            [binary], env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, timeout=600, check=False)
        elapsed = time.monotonic() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise RuntimeError(
                f"{label}: fig13 exited {proc.returncode}")
        return gather_run(label, proc.stdout, csv_dir), elapsed


def self_test():
    """Exercise the comparison and speedup logic."""
    ref = {"label": "cold", "stdout": b"table\n",
           "csvs": {"a.csv": b"1,2\n"}}

    # 1. Byte-identical runs pass.
    same = {"label": "warm", "stdout": b"table\n",
            "csvs": {"a.csv": b"1,2\n"}}
    assert compare_runs(ref, same) == []

    # 2. stdout drift and CSV drift are both caught.
    drift = dict(same, stdout=b"table!\n")
    errors = compare_runs(ref, drift)
    assert len(errors) == 1 and "stdout" in errors[0], errors
    changed = dict(same, csvs={"a.csv": b"1,9\n"})
    errors = compare_runs(ref, changed)
    assert len(errors) == 1 and "a.csv" in errors[0], errors

    # 3. The speedup floor flags a slow warm serve and passes a
    #    fast one.
    assert check_speedup(100.0, 1.0, 20.0) is None
    err = check_speedup(100.0, 10.0, 20.0)
    assert err is not None and "10.0x" in err, err

    # 4. The bench environment is hermetic: injected FVC_* knobs
    #    are dropped, the pinned ones set, everything else kept.
    injected = {"FVC_DAEMON": "on", "FVC_GEN_SHARDS": "4",
                "FVC_FAULT_SPEC": "sweep_job=0",
                "FVC_RESULT_DIR": "/elsewhere", "PATH": "/bin"}
    for expect_warm in (False, True):
        env = bench_env(injected, 20000, "/store", expect_warm,
                        "/csv")
        assert env["FVC_DAEMON"] == "off", env
        assert "FVC_GEN_SHARDS" not in env, env
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

    failures = compare_runs(cold, warm)
    err = check_speedup(cold_s, warm_s, args.min_speedup)
    if err:
        failures.append(err)
    if failures:
        print(f"\n{len(failures)} result-cache gate failure(s):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"\nwarm serve {cold_s / max(warm_s, 1e-9):.1f}x faster "
          f"than cold, output byte-identical "
          f"(gate: {args.min_speedup:.1f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
