"""Shared pieces of the bench gate scripts.

A gate compares whole runs of a bench binary: its stdout and every
CSV it exports to FVC_CSV_DIR. Every run gets a hermetic environment,
the caller's minus every FVC_* knob plus only the knobs the gate
pins, so no inherited knob (a daemon socket, a result store, a fault
spec) can pass or fail a gate for reasons unrelated to the code.
The gates that judge microbenchmark results read them one way
(bench_times): a row recorded with repetitions counts at its median.
"""

import os
import re
import subprocess
import sys
import tempfile
import time


def hermetic_env(base, pinned):
    """`base` minus every FVC_* knob, plus the `pinned` knobs as
    strings; a pinned value of None leaves that knob unset."""
    env = {k: v for k, v in base.items() if not k.startswith("FVC_")}
    env.update({k: str(v) for k, v in pinned.items() if v is not None})
    return env


def bench_times(doc):
    """Map benchmark name -> cpu_time from a google-benchmark JSON
    document. A row recorded with repetitions reads at its median
    aggregate, under its name without the "/repeats:N" that
    ->Repetitions() appends; its other aggregates (mean, stddev, cv)
    are skipped."""
    times, medians = {}, {}
    for bench in doc.get("benchmarks", []):
        name = re.sub(r"/repeats:\d+$", "",
                      bench.get("run_name", bench.get("name", "")))
        time = bench.get("cpu_time")
        if not name or time is None:
            continue
        if bench.get("run_type") != "aggregate":
            times[name] = float(time)
        elif bench.get("aggregate_name") == "median":
            medians[name] = float(time)
    times.update(medians)
    return times


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


def run_bench(binary, label, env, timeout=300):
    """Run `binary` under `env` plus a private FVC_CSV_DIR; return
    (gathered bundle, wall seconds). A nonzero exit echoes the
    bench's stderr and raises."""
    with tempfile.TemporaryDirectory(prefix="fvc-gate-") as csv_dir:
        env = dict(env, FVC_CSV_DIR=csv_dir)
        start = time.monotonic()
        proc = subprocess.run(
            [binary], env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, timeout=timeout, check=False)
        elapsed = time.monotonic() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise RuntimeError(
                f"{label}: {os.path.basename(binary)} exited "
                f"{proc.returncode}")
        return gather_run(label, proc.stdout, csv_dir), elapsed


def report_failures(failures, kind):
    """Print every failure under one heading; the exit status."""
    if not failures:
        return 0
    print(f"\n{len(failures)} {kind} failure(s):")
    for failure in failures:
        print(f"  {failure}")
    return 1


def self_test():
    """Check the shared comparison and environment logic."""
    ref = {"label": "reference", "stdout": b"table\n",
           "csvs": {"a.csv": b"1,2\n", "b.csv": b"3,4\n"}}

    # 1. Byte-identical runs pass.
    same = dict(ref, label="candidate")
    assert compare_runs(ref, same) == []

    # 2. A stdout drift is caught and names both runs.
    errors = compare_runs(ref, dict(same, stdout=b"table!\n"))
    assert len(errors) == 1 and "stdout" in errors[0], errors
    assert "candidate" in errors[0] and "reference" in errors[0]

    # 3. A changed, a missing and an extra CSV are all caught.
    changed = dict(same, csvs={"a.csv": b"1,9\n", "c.csv": b""})
    errors = compare_runs(ref, changed)
    assert len(errors) == 3, errors
    assert any("a.csv differs" in e for e in errors), errors
    assert any("missing CSV b.csv" in e for e in errors), errors
    assert any("extra CSV c.csv" in e for e in errors), errors

    # 4. gather_run picks up only CSVs, sorted, and keeps bytes.
    with tempfile.TemporaryDirectory() as d:
        with open(os.path.join(d, "x.csv"), "wb") as f:
            f.write(b"x\n")
        with open(os.path.join(d, "notes.txt"), "wb") as f:
            f.write(b"ignored")
        bundle = gather_run("t", b"out", d)
        assert bundle["csvs"] == {"x.csv": b"x\n"}, bundle

    # 5. A repeated row reads at its median, whatever its last
    #    repetition or its mean; a single row reads as recorded.
    doc = {"benchmarks": [
        {"name": "BM_One", "run_type": "iteration", "cpu_time": 4.0},
        *({"name": "BM_Rep/repeats:3", "run_name": "BM_Rep/repeats:3",
           "run_type": "iteration", "cpu_time": t} for t in (2, 9, 1)),
        *({"name": "BM_Rep/repeats:3_" + agg,
           "run_name": "BM_Rep/repeats:3",
           "run_type": "aggregate", "aggregate_name": agg,
           "cpu_time": t}
          for agg, t in (("mean", 4.0), ("median", 2.0),
                         ("stddev", 4.4), ("cv", 1.1))),
    ]}
    assert bench_times(doc) == {"BM_One": 4.0, "BM_Rep": 2.0}, doc

    # 6. The hermetic environment drops every inherited FVC_* knob,
    #    pins the given ones as strings, skips None, keeps the rest.
    env = hermetic_env({"FVC_SIMD": "off", "PATH": "/bin"},
                       {"FVC_JOBS": 8, "FVC_WORKERS": None})
    assert env == {"PATH": "/bin", "FVC_JOBS": "8"}, env
