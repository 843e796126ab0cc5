#!/usr/bin/env python3
"""Golden-figure regression gate.

Re-runs every fig/tab bench with CSV export into a scratch
directory and diffs each file against the committed golden store
(golden/) cell by cell:

- cells that parse as decimal/scientific numbers (contain '.' or an
  exponent) compare with 1e-9 relative tolerance — they are derived
  rates/averages whose last printed digit must not wiggle;
- every other cell (integer counts, labels, hex values) compares
  exactly.

Before any CSV is diffed, the manifest header is revalidated by
re-running the golden_manifest tool: if the trace-generator version
or any profile fingerprint changed, the golden data describes traces
the current tree can no longer generate, and the gate fails with a
"refresh, don't diff" message instead of producing nonsense cell
diffs.

Usage:
  golden_gate.py --build-dir BUILD --golden GOLDEN_DIR
  golden_gate.py --self-test

Every bench runs hermetically: the caller's environment minus every
FVC_* knob, plus only the knobs the gate pins (trace length,
FVC_STRICT=1, FVC_DAEMON=off). An exported FVC_FAULT_SPEC or
FVC_DAEMON cannot fail the gate for reasons unrelated to the code.

--self-test exercises the comparison logic in memory (equal files
pass, a sub-tolerance float wiggle passes, a beyond-tolerance
perturbation fails, an integer perturbation fails, a header drift
fails, the bench environment drops injected knobs) and is wired
into tier-1 as golden_gate_selftest.
"""

import argparse
import os
import subprocess
import sys
import tempfile

import gatelib

REL_TOL = 1e-9

BENCHES = [
    "fig01_int_locality",
    "fig02_fp_locality",
    "fig03_gcc_timeline",
    "fig04_miss_attribution",
    "fig05_uniformity",
    "tab01_top_values",
    "tab02_input_sensitivity",
    "tab03_stability",
    "tab04_constancy",
    "fig09_access_time",
    "fig10_fvc_size_sweep",
    "fig11_fvc_content",
    "fig12_reduction_grid",
    "fig13_dmc_vs_fvc",
    "fig14_set_assoc",
    "fig15_victim_cache",
]


def split_csv_line(line):
    """Split one CSV line with the writer's quoting rules."""
    cells = []
    cell = []
    in_quotes = False
    i = 0
    while i < len(line):
        ch = line[i]
        if in_quotes:
            if ch == '"':
                if i + 1 < len(line) and line[i + 1] == '"':
                    cell.append('"')
                    i += 1
                else:
                    in_quotes = False
            else:
                cell.append(ch)
        elif ch == '"':
            in_quotes = True
        elif ch == ",":
            cells.append("".join(cell))
            cell = []
        else:
            cell.append(ch)
        i += 1
    cells.append("".join(cell))
    return cells


def is_tolerant_number(token):
    """True for decimal/scientific numbers (not bare integers)."""
    if not any(c in token for c in ".eE"):
        return False
    try:
        float(token)
        return True
    except ValueError:
        return False


def compare_cells(golden, current):
    """None when cells agree, else a human-readable reason."""
    if golden == current:
        return None
    if is_tolerant_number(golden) and is_tolerant_number(current):
        g, c = float(golden), float(current)
        scale = max(abs(g), abs(c))
        if scale == 0.0 or abs(g - c) <= REL_TOL * scale:
            return None
        return (f"number {current} deviates from golden {golden} "
                f"(rel {abs(g - c) / scale:.3e} > {REL_TOL:.0e})")
    return f"cell '{current}' != golden '{golden}' (exact match)"


def compare_csv(name, golden_text, current_text):
    """List of cell-level differences between two CSV bodies."""
    diffs = []
    golden_lines = golden_text.splitlines()
    current_lines = current_text.splitlines()
    if len(golden_lines) != len(current_lines):
        diffs.append(f"{name}: {len(current_lines)} rows, golden "
                     f"has {len(golden_lines)}")
        return diffs
    for row, (gl, cl) in enumerate(
            zip(golden_lines, current_lines)):
        gcells = split_csv_line(gl)
        ccells = split_csv_line(cl)
        if len(gcells) != len(ccells):
            diffs.append(f"{name}:{row + 1}: {len(ccells)} cells, "
                         f"golden has {len(gcells)}")
            continue
        for col, (g, c) in enumerate(zip(gcells, ccells)):
            reason = compare_cells(g, c)
            if reason:
                diffs.append(f"{name}:{row + 1}:col{col + 1}: "
                             f"{reason}")
    return diffs


def parse_manifest(text):
    """-> (header lines, accesses, csv file list)."""
    header = []
    csvs = []
    accesses = None
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("csv "):
            csvs.append(line[4:].strip())
        else:
            header.append(line)
            if line.startswith("accesses "):
                accesses = line.split()[1]
    return header, accesses, csvs


def gate_env(accesses, base):
    """The environment every bench runs under
    (gatelib.hermetic_env; refresh_golden.sh builds the same one),
    so the gate always compares default-configuration, in-process
    runs."""
    return gatelib.hermetic_env(base, {
        "FVC_TRACE_ACCESSES": accesses,
        "FVC_STRICT": "1",
        "FVC_DAEMON": "off",
    })


def run_gate(build_dir, golden_dir):
    manifest_path = os.path.join(golden_dir, "MANIFEST")
    if not os.path.isfile(manifest_path):
        print(f"golden_gate: {manifest_path} missing — run "
              "bench/refresh_golden.sh first", file=sys.stderr)
        return 1
    with open(manifest_path, encoding="utf-8") as f:
        header, accesses, csvs = parse_manifest(f.read())
    if accesses is None or not csvs:
        print("golden_gate: malformed MANIFEST (no accesses line "
              "or no csv entries)", file=sys.stderr)
        return 1

    env = gate_env(accesses, os.environ)

    # Header revalidation: generator version + profile fingerprints.
    manifest_bin = os.path.join(build_dir, "bench",
                                "golden_manifest")
    result = subprocess.run([manifest_bin], capture_output=True,
                            text=True, env=env, check=True)
    current_header = [l for l in result.stdout.splitlines()
                     if l.strip()]
    if current_header != header:
        print("golden_gate: manifest header drift — the golden "
              "store was generated by a different trace generator "
              "or profile set; refresh with "
              "bench/refresh_golden.sh instead of diffing:",
              file=sys.stderr)
        for line in sorted(set(header) - set(current_header)):
            print(f"  only in golden:  {line}", file=sys.stderr)
        for line in sorted(set(current_header) - set(header)):
            print(f"  only in current: {line}", file=sys.stderr)
        return 1

    failures = []
    with tempfile.TemporaryDirectory(
            prefix="fvc_golden_gate_") as tmp:
        env["FVC_CSV_DIR"] = tmp
        for bench in BENCHES:
            bench_bin = os.path.join(build_dir, "bench", bench)
            if not os.path.isfile(bench_bin):
                failures.append(f"{bench}: binary not built at "
                                f"{bench_bin}")
                continue
            proc = subprocess.run([bench_bin],
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE,
                                  text=True, env=env)
            if proc.returncode != 0:
                failures.append(
                    f"{bench}: exit {proc.returncode}\n"
                    f"{proc.stderr.strip()}")

        produced = sorted(f for f in os.listdir(tmp)
                          if f.endswith(".csv"))
        if produced != sorted(csvs):
            missing = sorted(set(csvs) - set(produced))
            extra = sorted(set(produced) - set(csvs))
            if missing:
                failures.append(
                    "CSV set drift, missing: " + ", ".join(missing))
            if extra:
                failures.append(
                    "CSV set drift, not in MANIFEST: "
                    + ", ".join(extra))

        for name in csvs:
            current_path = os.path.join(tmp, name)
            if not os.path.isfile(current_path):
                continue  # already reported as missing
            with open(os.path.join(golden_dir, name),
                      encoding="utf-8") as f:
                golden_text = f.read()
            with open(current_path, encoding="utf-8") as f:
                current_text = f.read()
            failures.extend(
                compare_csv(name, golden_text, current_text))

    if failures:
        print(f"golden_gate: {len(failures)} difference(s) from "
              "the golden store:", file=sys.stderr)
        for failure in failures[:50]:
            print(f"  {failure}", file=sys.stderr)
        if len(failures) > 50:
            print(f"  ... and {len(failures) - 50} more",
                  file=sys.stderr)
        return 1

    print(f"golden_gate: {len(csvs)} CSV files match the golden "
          f"store (accesses={accesses})")
    return 0


def self_test():
    """Exercise the comparison logic without a build tree."""
    golden = ("benchmark,miss %,fills\n"
              "126.gcc,2.791,12345\n"
              "130.li,0.523,999\n")

    # 1. Equal text passes.
    assert compare_csv("t", golden, golden) == []

    # 2. A sub-tolerance float wiggle passes (display-level noise
    #    is below 1e-9 only when the text differs yet parses equal;
    #    here: trailing-zero form).
    wiggled = golden.replace("2.791", "2.7910000000")
    assert compare_csv("t", golden, wiggled) == []

    # 3. A beyond-tolerance float perturbation fails.
    perturbed = golden.replace("2.791", "2.792")
    diffs = compare_csv("t", golden, perturbed)
    assert len(diffs) == 1 and "deviates" in diffs[0], diffs

    # 4. An integer count is exact: off-by-one fails.
    counted = golden.replace("12345", "12346")
    diffs = compare_csv("t", golden, counted)
    assert len(diffs) == 1 and "exact" in diffs[0], diffs

    # 5. A label change fails.
    relabeled = golden.replace("130.li", "130.lisp")
    assert len(compare_csv("t", golden, relabeled)) == 1

    # 6. Row-count drift fails.
    assert compare_csv("t", golden, golden + "extra,1.0,2\n")

    # 7. Quoted cells (thousands separators) split correctly.
    quoted = 'a,b\n"1,234",x\n'
    assert split_csv_line(quoted.splitlines()[1]) == ["1,234", "x"]
    assert compare_csv("t", quoted, quoted) == []

    # 8. Manifest parsing and header drift detection.
    manifest = ("generator_version 2\naccesses 40000\n"
                "profile 126.gcc 00000000deadbeef\n"
                "csv a.csv\ncsv b.csv\n")
    header, accesses, csvs = parse_manifest(manifest)
    assert header == ["generator_version 2", "accesses 40000",
                      "profile 126.gcc 00000000deadbeef"]
    assert accesses == "40000" and csvs == ["a.csv", "b.csv"]

    # 9. The bench environment is hermetic: injected FVC_* knobs
    #    are dropped, the pinned ones set, everything else kept.
    env = gate_env("40000", {"FVC_FAULT_SPEC": "sweep_job=0",
                             "FVC_DAEMON": "on", "FVC_JOBS": "3",
                             "PATH": "/bin", "LANG": "C"})
    assert "FVC_FAULT_SPEC" not in env and "FVC_JOBS" not in env
    assert env["FVC_DAEMON"] == "off", env
    assert env["FVC_TRACE_ACCESSES"] == "40000", env
    assert env["FVC_STRICT"] == "1", env
    assert env["PATH"] == "/bin" and env["LANG"] == "C", env

    print("golden_gate: self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir",
                        help="build tree with bench binaries")
    parser.add_argument("--golden",
                        help="golden store directory")
    parser.add_argument("--self-test", action="store_true",
                        help="check the comparison logic only")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.build_dir or not args.golden:
        parser.error("--build-dir and --golden are required "
                     "unless --self-test")
    return run_gate(args.build_dir, args.golden)


if __name__ == "__main__":
    sys.exit(main())
