#!/usr/bin/env python3
"""Gate: daemon-served sweeps are byte-identical to in-process ones.

Usage:
    bench/check_daemon.py --build-dir BUILD [--accesses N]
                          [--clients ...]
    bench/check_daemon.py --self-test

Runs the Figure 13 sweep with FVC_DAEMON=off (the in-process
reference), then starts a private fvc_sweepd on its own socket and
fresh result store and demands that every daemon-served run's stdout
table and every exported CSV be byte-identical to the reference:

  - cold: the daemon simulates and publishes every cell;
  - warm: the daemon is restarted with FVC_RESULT_EXPECT_WARM=1, so
    a single simulation dispatch aborts it — byte-identical output
    here proves the whole sweep was served from the store without
    touching the engine;
  - concurrent: N fig13 clients run against one daemon at once, and
    each client's output must still match the reference exactly.

The daemon's whole contract is that serving through a socket is
invisible in the output; any drift — a counter lost in the result
frame codec, a batch coalescing reorder, a FAILED cell invented by
the transport — fails this gate before it can land. FVC_DAEMON=on
(not auto) for every daemon-served run, so an accidental in-process
fallback fails loudly instead of passing vacuously.
"""

import argparse
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time

import gatelib


def daemon_env(result_dir, expect_warm, base=os.environ):
    """The daemon's environment (gatelib.hermetic_env): nothing
    inherited (a socket, a result store, a fault spec) reaches it.
    The *daemon* carries the warm expectation: one simulation
    dispatch while serving aborts it mid-sweep, which the client
    surfaces as a failed run."""
    return gatelib.hermetic_env(base, {
        "FVC_RESULT_DIR": result_dir,
        "FVC_RESULT_EXPECT_WARM": "1" if expect_warm else None,
    })


def client_env(accesses, daemon_sock, base=os.environ):
    """Environment of one fig13 run. `daemon_sock` of None runs
    in-process (FVC_DAEMON=off); otherwise the run must be served
    by the daemon on that socket (FVC_DAEMON=on: fallback is fatal,
    not silent)."""
    return gatelib.hermetic_env(base, {
        "FVC_TRACE_ACCESSES": accesses,
        "FVC_DAEMON": "off" if daemon_sock is None else "on",
        "FVC_DAEMON_SOCK": daemon_sock,
    })


class Daemon:
    """A private fvc_sweepd on its own socket, torn down on exit."""

    def __init__(self, binary, sock_path, result_dir,
                 expect_warm=False):
        self.sock_path = sock_path
        self.proc = subprocess.Popen(
            [binary, "--sock", sock_path, "--batch-ms", "5"],
            env=daemon_env(result_dir, expect_warm),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    def wait_ready(self, timeout=10.0):
        """Poll until the daemon accepts connections."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    "fvc_sweepd exited while starting: "
                    + self.proc.stderr.read().decode(
                        errors="replace"))
            try:
                probe = socket.socket(socket.AF_UNIX,
                                      socket.SOCK_STREAM)
                probe.settimeout(1.0)
                probe.connect(self.sock_path)
                probe.close()
                return
            except OSError:
                time.sleep(0.05)
        raise RuntimeError(
            f"fvc_sweepd never listened on {self.sock_path}")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        # Surface daemon-side trouble in the gate log.
        stderr = self.proc.stderr.read().decode(errors="replace")
        if stderr:
            sys.stderr.write(stderr)

    def __enter__(self):
        self.wait_ready()
        return self

    def __exit__(self, *exc):
        self.stop()


def run_fig13(binary, label, accesses, daemon_sock):
    """Run one fig13 sweep (see client_env); return its gathered
    output bundle."""
    env = client_env(accesses, daemon_sock)
    return gatelib.run_bench(binary, label, env)[0]


def run_fig13_concurrently(binary, label, accesses, daemon_sock,
                           clients):
    """Launch N fig13 clients at once; gather each one's bundle."""
    procs = []
    for i in range(clients):
        env = client_env(accesses, daemon_sock)
        csv_dir = tempfile.mkdtemp(prefix=f"fvc-dmn-c{i}-")
        env["FVC_CSV_DIR"] = csv_dir
        procs.append((csv_dir, subprocess.Popen(
            [binary], env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE)))
    bundles = []
    try:
        for i, (csv_dir, proc) in enumerate(procs):
            out, err = proc.communicate(timeout=300)
            if proc.returncode != 0:
                sys.stderr.write(err.decode(errors="replace"))
                raise RuntimeError(
                    f"{label} client {i}: fig13 exited "
                    f"{proc.returncode}")
            bundles.append(gatelib.gather_run(
                f"{label} client {i}", out, csv_dir))
    finally:
        for csv_dir, proc in procs:
            if proc.poll() is None:
                proc.kill()
            for name in os.listdir(csv_dir):
                os.unlink(os.path.join(csv_dir, name))
            os.rmdir(csv_dir)
    return bundles


def self_test():
    """Exercise the comparison logic and the run environments."""
    gatelib.self_test()

    # Run environments are hermetic: injected FVC_* knobs are
    # dropped, the pinned ones set, everything else kept.
    injected = {"FVC_DAEMON": "on", "FVC_SIMD": "off",
                "FVC_FAULT_SPEC": "sweep_job=0",
                "FVC_DAEMON_SOCK": "/elsewhere.sock", "PATH": "/bin"}
    local = client_env(20000, None, injected)
    assert local["FVC_DAEMON"] == "off", local
    assert "FVC_DAEMON_SOCK" not in local, local
    served = client_env(20000, "/gate.sock", injected)
    assert served["FVC_DAEMON"] == "on", served
    assert served["FVC_DAEMON_SOCK"] == "/gate.sock", served
    daemon = daemon_env("/store", False, injected)
    assert daemon["FVC_RESULT_DIR"] == "/store", daemon
    assert "FVC_RESULT_EXPECT_WARM" not in daemon, daemon
    assert daemon_env("/store", True, injected)[
        "FVC_RESULT_EXPECT_WARM"] == "1"
    for env in (local, served, daemon):
        assert "FVC_SIMD" not in env, env
        assert "FVC_FAULT_SPEC" not in env, env
        assert env["PATH"] == "/bin", env
    assert "FVC_DAEMON" not in daemon, daemon

    print("check_daemon.py self-test: all checks passed")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir",
                        help="CMake build dir holding bench/ and "
                             "src/daemon/")
    parser.add_argument("--accesses", type=int, default=20000,
                        help="FVC_TRACE_ACCESSES per cell "
                             "(default 20000: small but nonzero "
                             "miss counts)")
    parser.add_argument("--clients", type=int, default=4,
                        help="concurrent fig13 clients against one "
                             "daemon (default 4)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in logic checks and "
                             "exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.build_dir:
        parser.error("--build-dir is required (or use --self-test)")

    fig13 = os.path.join(args.build_dir, "bench", "fig13_dmc_vs_fvc")
    sweepd = os.path.join(args.build_dir, "src", "daemon",
                          "fvc_sweepd")
    for binary in (fig13, sweepd):
        if not os.path.exists(binary):
            print(f"error: {binary} not found (build the bench "
                  f"targets first)", file=sys.stderr)
            return 1

    reference = run_fig13(fig13, "daemon-off", args.accesses, None)
    print(f"daemon-off reference: {len(reference['stdout'])} stdout "
          f"bytes, {len(reference['csvs'])} CSVs")
    if not reference["csvs"]:
        print("error: reference run exported no CSVs; FVC_CSV_DIR "
              "plumbing is broken", file=sys.stderr)
        return 1

    failures = []
    with tempfile.TemporaryDirectory(prefix="fvc-dmn-run-") as work:
        sock = os.path.join(work, "sweepd.sock")
        store = os.path.join(work, "results")
        os.makedirs(store)

        # Cold daemon: every cell simulated through the daemon and
        # published to the fresh store.
        with Daemon(sweepd, sock, store):
            candidate = run_fig13(fig13, "daemon cold",
                                  args.accesses, sock)
            errors = gatelib.compare_runs(reference, candidate)
            print(f"  {'ok' if not errors else 'MISMATCH':<8} "
                  f"daemon cold")
            failures.extend(errors)

            # Concurrent clients against the warm store: every
            # client's output matches, and the daemon coalesces the
            # identical grids instead of re-simulating.
            label = f"daemon warm x{args.clients}"
            bundles = run_fig13_concurrently(
                fig13, label, args.accesses, sock, args.clients)
            bad = 0
            for bundle in bundles:
                errors = gatelib.compare_runs(reference, bundle)
                bad += bool(errors)
                failures.extend(errors)
            print(f"  {'ok' if not bad else 'MISMATCH':<8} {label}")

        # Warm daemon under FVC_RESULT_EXPECT_WARM: a restarted
        # daemon that so much as dispatches one simulation aborts,
        # so identical output proves the sweep was served entirely
        # from the store.
        with Daemon(sweepd, sock, store, expect_warm=True):
            candidate = run_fig13(fig13, "daemon expect-warm",
                                  args.accesses, sock)
            errors = gatelib.compare_runs(reference, candidate)
            print(f"  {'ok' if not errors else 'MISMATCH':<8} "
                  f"daemon expect-warm")
            failures.extend(errors)

    if gatelib.report_failures(failures, "determinism"):
        return 1
    print(f"\ndaemon-served output byte-identical to in-process "
          f"across cold/warm and {args.clients} concurrent clients")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
