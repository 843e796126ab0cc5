#!/usr/bin/env python3
"""Compare two google-benchmark JSON files for perf regressions.

Usage:
    bench/compare_bench.py BASELINE.json NEW.json [--threshold PCT]
                           [--hot NAME ...]
    bench/compare_bench.py --self-test

Flags a named hot benchmark when its new cpu_time exceeds the
baseline by more than --threshold percent (default 10), or when it
disappeared from the new file entirely. Exits nonzero if anything is
flagged, so it can gate CI or a pre-commit check:

    bench/compare_bench.py BENCH_microbench.json /tmp/new.json

Non-hot benchmarks are reported but never fail the run (short-lived
probes are too noisy for a hard gate).
"""

import argparse
import json
import sys

# The hot paths whose regressions block: the replay engines and the
# encoders dominate every sweep bench's wall clock.
DEFAULT_HOT = [
    "BM_DmcSimulation",
    "BM_DmcFvcSimulation",
    "BM_Encoding",
    "BM_FvcProbe",
    "BM_GridSweepSinglePass",
    "BM_BatchEncoding",
]


def load_times(path):
    """Map benchmark name -> cpu_time from a google-benchmark JSON."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    times = {}
    for bench in doc.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev repetitions).
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name")
        time = bench.get("cpu_time")
        if name is not None and time is not None:
            times[name] = float(time)
    return times


# Run-context keys that must match for two result files to be
# comparable. Each row: (context key, the value assumed for files
# recorded before the key existed, the knob to name in the error).
# Why each one refuses rather than warns:
#   fvc_trace_store  - a warm trace store replaces generation with an
#                      mmap and would fake a generation speedup;
#                      older files predate the store ("disabled").
#   fvc_simd_isa     - sweep wall clock moves with the dispatched
#                      vector width; older files predate the lane
#                      kernel, so the scalar loop ran ("scalar").
#   fvc_workers      - a fabric run pays fork, lease and spill
#                      overhead the in-process path never sees;
#                      older files predate the fabric ("serial").
#   fvc_result_cache - a warm result cache serves sweeps without
#                      the engine and would fake any sweep speedup;
#                      older files predate the cache ("off").
#   fvc_daemon       - a daemon-served run pays socket framing and
#                      batching latency; older files predate the
#                      daemon ("off").
CONTEXT_RULES = [
    ("fvc_trace_store", "disabled", "FVC_TRACE_DIR / FVC_TRACE_STORE"),
    ("fvc_simd_isa", "scalar", "FVC_SIMD"),
    ("fvc_workers", "serial", "FVC_WORKERS"),
    ("fvc_result_cache", "off", "FVC_RESULT_DIR / FVC_RESULT_CACHE"),
    ("fvc_daemon", "off", "FVC_DAEMON"),
]


def load_context(path):
    """The run-context object of a result file ({} when absent)."""
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f).get("context", {})


def check_context(base_ctx, new_ctx, rule):
    """Error string when two runs' contexts differ on @rule's key
    (a missing key counts as the rule's default), else None. Only
    like-for-like runs are comparable."""
    key, default, knob = rule
    base = str(base_ctx.get(key, default))
    new = str(new_ctx.get(key, default))
    if base == new:
        return None
    return (
        f"context mismatch: baseline ran with {key}={base!r} but "
        f"new ran with {new!r}; rerun both with the same {knob} "
        f"setting"
    )


def check_governors(base_gov, new_gov):
    """Warning string when both runs' scaling governors are known
    and differ, else None.

    A governor switch (say performance -> powersave) moves the clock
    under every benchmark, so a diff across one mostly measures the
    frequency policy. Unlike CONTEXT_RULES this only warns:
    "unknown" is common (pre-context files, hosts without cpufreq)
    and refusing every such pair would block legitimate
    comparisons.
    """
    if base_gov == new_gov or "unknown" in (base_gov, new_gov):
        return None
    return (
        f"cpu governor mismatch: baseline recorded "
        f"fvc_cpu_governor={base_gov!r} but new recorded "
        f"{new_gov!r}; timings move with the frequency policy, so "
        f"treat any delta below with suspicion"
    )


# The per-phase lane kernel counters (recorded under
# FVC_KERNEL_STATS=1) that attribute a sweep regression to the
# hit loop, the miss drain, or the encode/store-log front end.
PHASE_COUNTERS = [
    "fvc_hit_cycles",
    "fvc_drain_cycles",
    "fvc_encode_cycles",
    "fvc_hit_records",
    "fvc_drain_records",
]


def load_phase_counters(path):
    """name -> {counter: value} for benchmarks carrying the lane
    kernel's per-phase counters. Google-benchmark flattens user
    counters into the per-benchmark JSON object."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    out = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name")
        phases = {key: float(bench[key]) for key in PHASE_COUNTERS
                  if key in bench}
        if name is not None and phases:
            out[name] = phases
    return out


def attribute_phases(name, base_phases, new_phases):
    """Report lines attributing benchmark @name's regression to the
    kernel phases, or [] when either run lacks the counters (not
    recorded with FVC_KERNEL_STATS=1)."""
    base = base_phases.get(name)
    cur = new_phases.get(name)
    if not base or not cur:
        return []
    lines = [f"    phase attribution (per iteration, "
             f"FVC_KERNEL_STATS counters):"]
    for key in PHASE_COUNTERS:
        if key not in base or key not in cur:
            continue
        b = base[key]
        c = cur[key]
        delta = 100.0 * (c - b) / b if b > 0 else 0.0
        lines.append(
            f"      {key}: {b:.0f} -> {c:.0f} ({delta:+.1f}%)")
    return lines


def compare(baseline, new, hot, threshold_pct):
    """Return (report_lines, failures) for the two name->time maps."""
    lines = []
    failures = []
    for name in sorted(set(baseline) | set(new)):
        base = baseline.get(name)
        cur = new.get(name)
        is_hot = name in hot
        if base is None:
            lines.append(f"  NEW      {name}")
            continue
        if cur is None:
            lines.append(f"  MISSING  {name}")
            if is_hot:
                failures.append(f"{name}: missing from new results")
            continue
        delta_pct = 100.0 * (cur - base) / base if base > 0 else 0.0
        tag = "ok"
        if delta_pct > threshold_pct:
            tag = "REGRESSION" if is_hot else "slower"
            if is_hot:
                failures.append(
                    f"{name}: {delta_pct:+.1f}% "
                    f"(> {threshold_pct:.0f}% threshold)"
                )
        elif delta_pct < -threshold_pct:
            tag = "faster"
        lines.append(
            f"  {tag:<10} {name}: {base:.1f} -> {cur:.1f} ns "
            f"({delta_pct:+.1f}%)"
        )
    return lines, failures


def self_test():
    """Exercise the comparison logic on synthetic inputs."""
    base = {"BM_DmcSimulation": 100.0, "BM_Encoding": 10.0,
            "BM_Cold": 50.0}

    # 1. A hot regression beyond threshold must be flagged.
    _, failures = compare(
        base, {"BM_DmcSimulation": 150.0, "BM_Encoding": 10.0,
               "BM_Cold": 50.0},
        DEFAULT_HOT, 10.0)
    assert len(failures) == 1 and "BM_DmcSimulation" in failures[0], \
        failures

    # 2. Inside the threshold: clean.
    _, failures = compare(
        base, {"BM_DmcSimulation": 105.0, "BM_Encoding": 10.5,
               "BM_Cold": 55.0},
        DEFAULT_HOT, 10.0)
    assert failures == [], failures

    # 3. A cold benchmark regressing is reported but never fails.
    _, failures = compare(
        base, {"BM_DmcSimulation": 100.0, "BM_Encoding": 10.0,
               "BM_Cold": 500.0},
        DEFAULT_HOT, 10.0)
    assert failures == [], failures

    # 4. A hot benchmark vanishing from the new file is a failure.
    _, failures = compare(
        base, {"BM_Encoding": 10.0, "BM_Cold": 50.0},
        DEFAULT_HOT, 10.0)
    assert len(failures) == 1 and "missing" in failures[0], failures

    # 5. An improvement is never a failure.
    _, failures = compare(
        base, {"BM_DmcSimulation": 40.0, "BM_Encoding": 10.0,
               "BM_Cold": 50.0},
        DEFAULT_HOT, 10.0)
    assert failures == [], failures

    # 6-9b. Every context rule refuses a mismatch and names its
    #       key and knob; equal values pass, and a file recorded
    #       before the key existed counts as the rule's default.
    mismatches = {
        "fvc_trace_store": [("warm", "cold"), ("disabled", "warm")],
        "fvc_simd_isa": [("avx512", "scalar"), ("off", "avx2")],
        "fvc_workers": [("4", "serial"), ("2", "4")],
        "fvc_result_cache": [("warm", "cold"), ("cold", "off")],
        "fvc_daemon": [("on", "off"), ("off", "on")],
    }
    assert set(mismatches) == {rule[0] for rule in CONTEXT_RULES}
    for rule in CONTEXT_RULES:
        key, default, knob = rule
        for base_value, new_value in mismatches[key]:
            err = check_context({key: base_value}, {key: new_value},
                                rule)
            assert err and key in err and knob in err, err
            assert check_context({key: new_value},
                                 {key: new_value}, rule) is None
        other = mismatches[key][0][0]
        assert check_context({}, {}, rule) is None
        assert check_context({}, {key: default}, rule) is None
        assert check_context({}, {key: other}, rule) is not None
    workers = CONTEXT_RULES[2]
    assert check_context({"fvc_workers": 4}, {"fvc_workers": "4"},
                         workers) is None

    # 10. Governor mismatch warns only when both sides are known;
    #     an unknown side (pre-context file, host without cpufreq)
    #     never warns, and never refuses anything.
    assert check_governors("performance", "powersave") is not None
    assert check_governors("performance", "performance") is None
    assert check_governors("unknown", "performance") is None
    assert check_governors("performance", "unknown") is None
    assert check_governors("unknown", "unknown") is None

    # 11. Phase attribution pinpoints the regressing phase, and
    #     stays silent when either run lacks the counters.
    base_phases = {"BM_GridSweepSinglePass": {
        "fvc_hit_cycles": 100.0, "fvc_drain_cycles": 50.0}}
    new_phases = {"BM_GridSweepSinglePass": {
        "fvc_hit_cycles": 110.0, "fvc_drain_cycles": 200.0}}
    lines = attribute_phases("BM_GridSweepSinglePass", base_phases,
                             new_phases)
    assert any("fvc_drain_cycles" in ln and "+300.0%" in ln
               for ln in lines), lines
    assert any("fvc_hit_cycles" in ln and "+10.0%" in ln
               for ln in lines), lines
    assert attribute_phases("BM_GridSweepSinglePass", {},
                            new_phases) == []
    assert attribute_phases("BM_Other", base_phases,
                            new_phases) == []

    print("compare_bench.py self-test: all checks passed")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", nargs="?",
                        help="baseline BENCH_*.json")
    parser.add_argument("new", nargs="?", help="new BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="regression threshold in percent "
                             "(default 10)")
    parser.add_argument("--hot", nargs="*", default=None,
                        help="hot benchmark names that gate "
                             "(default: the replay/encoding set)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in logic checks and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.baseline or not args.new:
        parser.error("baseline and new JSON files are required "
                     "(or use --self-test)")

    hot = args.hot if args.hot is not None else DEFAULT_HOT
    base_ctx = load_context(args.baseline)
    new_ctx = load_context(args.new)
    for rule in CONTEXT_RULES:
        mismatch = check_context(base_ctx, new_ctx, rule)
        if mismatch:
            print(f"error: {mismatch}", file=sys.stderr)
            return 1
    warning = check_governors(
        base_ctx.get("fvc_cpu_governor", "unknown"),
        new_ctx.get("fvc_cpu_governor", "unknown"))
    if warning:
        print(f"warning: {warning}", file=sys.stderr)
    baseline = load_times(args.baseline)
    new = load_times(args.new)
    lines, failures = compare(baseline, new, set(hot),
                              args.threshold)

    print(f"comparing {args.baseline} -> {args.new} "
          f"(threshold {args.threshold:.0f}% on {len(hot)} hot "
          f"benchmarks)")
    for line in lines:
        print(line)
    if failures:
        print(f"\n{len(failures)} hot regression(s):")
        base_phases = load_phase_counters(args.baseline)
        new_phases = load_phase_counters(args.new)
        for failure in failures:
            print(f"  {failure}")
            for line in attribute_phases(failure.split(":")[0],
                                         base_phases, new_phases):
                print(line)
        return 1
    print("\nno hot regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
