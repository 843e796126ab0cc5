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
import subprocess
import sys
import tempfile


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
    """List of mismatch descriptions between two gathered runs.

    Empty list means byte-identical stdout and byte-identical CSV
    sets (same file names, same contents).
    """
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


def bench_env(base, accesses, workers, csv_dir):
    """The environment of one fig13 run: `base` minus every FVC_*
    knob, plus only the knobs this gate pins. No inherited knob (a
    result store, a fault spec, a generation shard count) reaches
    the run, and FVC_DAEMON=off keeps a running fvc_sweepd from
    serving it: the cells must come from this process or its
    forked workers."""
    env = {k: v for k, v in base.items() if not k.startswith("FVC_")}
    env["FVC_TRACE_ACCESSES"] = str(accesses)
    env["FVC_DAEMON"] = "off"
    env["FVC_CSV_DIR"] = csv_dir
    if workers is not None:
        env["FVC_WORKERS"] = str(workers)
    return env


def run_fig13(binary, workers, accesses):
    """Run the Figure 13 sweep; return its gathered output bundle.

    `workers` of None leaves FVC_WORKERS unset (serial in-process
    path); otherwise the fabric forks that many workers. Each run
    gets a private FVC_CSV_DIR and no FVC_FABRIC_DIR, so fabric
    scratch stays ephemeral and runs cannot see each other's
    spills.
    """
    label = "serial" if workers is None else f"workers={workers}"
    with tempfile.TemporaryDirectory(prefix="fvc-det-") as csv_dir:
        env = bench_env(os.environ, accesses, workers, csv_dir)
        proc = subprocess.run(
            [binary], env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, timeout=300, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise RuntimeError(
                f"{label}: fig13 exited {proc.returncode}")
        return gather_run(label, proc.stdout, csv_dir)


def self_test():
    """Exercise the comparison logic on synthetic run bundles."""
    ref = {"label": "serial", "stdout": b"table\n",
           "csvs": {"a.csv": b"1,2\n", "b.csv": b"3,4\n"}}

    # 1. Byte-identical runs pass.
    same = {"label": "workers=2", "stdout": b"table\n",
            "csvs": {"a.csv": b"1,2\n", "b.csv": b"3,4\n"}}
    assert compare_runs(ref, same) == []

    # 2. A stdout drift is caught and names both runs.
    drift = dict(same, stdout=b"table!\n")
    errors = compare_runs(ref, drift)
    assert len(errors) == 1 and "stdout" in errors[0], errors
    assert "workers=2" in errors[0] and "serial" in errors[0]

    # 3. A single changed CSV byte is caught by file name.
    changed = dict(same, csvs={"a.csv": b"1,9\n", "b.csv": b"3,4\n"})
    errors = compare_runs(ref, changed)
    assert len(errors) == 1 and "a.csv" in errors[0], errors

    # 4. A missing CSV and an extra CSV are both caught.
    moved = dict(same, csvs={"b.csv": b"3,4\n", "c.csv": b""})
    errors = compare_runs(ref, moved)
    assert len(errors) == 2, errors
    assert any("missing CSV a.csv" in e for e in errors), errors
    assert any("extra CSV c.csv" in e for e in errors), errors

    # 5. gather_run picks up only CSVs, sorted, and keeps bytes.
    with tempfile.TemporaryDirectory() as d:
        with open(os.path.join(d, "x.csv"), "wb") as f:
            f.write(b"x\n")
        with open(os.path.join(d, "notes.txt"), "wb") as f:
            f.write(b"ignored")
        bundle = gather_run("t", b"out", d)
        assert bundle["csvs"] == {"x.csv": b"x\n"}, bundle

    # 6. The bench environment is hermetic: injected FVC_* knobs
    #    are dropped, the pinned ones set, everything else kept.
    injected = {"FVC_DAEMON": "on", "FVC_GEN_SHARDS": "4",
                "FVC_FAULT_SPEC": "sweep_job=0", "PATH": "/bin"}
    for workers in (None, 2):
        env = bench_env(injected, 20000, workers, "/csv")
        assert env["FVC_DAEMON"] == "off", env
        assert "FVC_GEN_SHARDS" not in env, env
        assert "FVC_FAULT_SPEC" not in env, env
        assert env["FVC_TRACE_ACCESSES"] == "20000", env
        assert env["FVC_CSV_DIR"] == "/csv", env
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
        errors = compare_runs(reference, candidate)
        tag = "ok" if not errors else "MISMATCH"
        print(f"  {tag:<8} {candidate['label']}")
        failures.extend(errors)

    if failures:
        print(f"\n{len(failures)} determinism failure(s):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"\nfabric output byte-identical to serial across "
          f"worker counts {args.workers}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
