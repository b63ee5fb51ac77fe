#!/usr/bin/env python3
"""Self-tests of the benchmark: does it repeat, and does it measure?

    python3 perfbench/selftest.py [--seed N]

Run from the repository root. Uses only the benchmark's public inputs and
options, never a patched program.

Exact repeat: two short runs of each workload with one seed must give
bitwise-equal sim_* metrics (--trace 0) and bitwise-equal deterministic
per-layer metrics (--trace 1; host-clock layer metrics are excluded).

Sensitivity:
  * a larger grid (--scale) raises host_p50_ms and sim_p50_ms on
    cold-planar and warm-3d;
  * PanelOptions::async = false (--panel-sync) raises sim_p50_ms on warm-3d;
  * a fleet rate above the knee (--rate) raises sim_p99_ms and lowers
    ok_frac on fleet-solve.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["cold-planar", "warm-3d", "fleet-solve"]
# Per-layer metrics read from the host clock or the OS; all others are
# functions of the seed alone.
HOST_LAYER_METRICS = {
    "order.nd_ms", "symbolic.ms", "analysis.host_ms", "numeric.gemm_gflops",
    "numeric.getrf_gflops", "numeric.trsm_gflops", "numeric.seq_ms",
    "simmpi.run_us", "simmpi.us_per_msg", "simmpi.csw_per_req",
    "lu3d.factor_host_ms", "lu3d.solve_host_ms", "service.factor_ms",
    "service.solve_ms", "fleet.submit_us", "fleet.drain_ms",
    "trace.overhead_pct",
}
FAST_RATE = 1200  # arrivals per simulated second, above the fleet's knee

failures = []


def bench(workload, seed, trace=0, seconds=1, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + list(extra)
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    if out.returncode != 0:
        sys.exit("benchmark run failed: " + " ".join(cmd))
    res = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in res["metrics"].items()}


def expect(ok, what):
    print("%s  %s" % ("PASS" if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def exact_repeat(seed):
    for w in WORKLOADS:
        a, b = bench(w, seed), bench(w, seed)
        for k in sorted(a):
            if k.startswith("sim_"):
                expect(a[k] == b[k], "%s %s repeats (%r vs %r)" %
                       (w, k, a[k], b[k]))
        a, b = bench(w, seed, trace=1), bench(w, seed, trace=1)
        diff = [k for k in a if k not in HOST_LAYER_METRICS and a[k] != b[k]]
        expect(not diff, "%s per-layer counts repeat %s" % (w, diff or ""))


def sensitivity(seed):
    for w, scale in (("cold-planar", 8), ("warm-3d", 2)):
        base = bench(w, seed)
        big = bench(w, seed, extra=["--scale", str(scale)])
        for k in ("host_p50_ms", "sim_p50_ms"):
            expect(big[k] > base[k], "%s --scale %d raises %s (%.4g -> %.4g)" %
                   (w, scale, k, base[k], big[k]))
    base = bench("warm-3d", seed)
    sync = bench("warm-3d", seed, extra=["--panel-sync"])
    expect(sync["sim_p50_ms"] > base["sim_p50_ms"],
           "warm-3d --panel-sync raises sim_p50_ms (%.4g -> %.4g)" %
           (base["sim_p50_ms"], sync["sim_p50_ms"]))
    base = bench("fleet-solve", seed)
    fast = bench("fleet-solve", seed, extra=["--rate", str(FAST_RATE)])
    expect(fast["sim_p99_ms"] > base["sim_p99_ms"],
           "fleet-solve --rate %d raises sim_p99_ms (%.4g -> %.4g)" %
           (FAST_RATE, base["sim_p99_ms"], fast["sim_p99_ms"]))
    expect(fast["ok_frac"] < base["ok_frac"],
           "fleet-solve --rate %d lowers ok_frac (%.4g -> %.4g)" %
           (FAST_RATE, base["ok_frac"], fast["ok_frac"]))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=11)
    a = ap.parse_args()
    exact_repeat(a.seed)
    sensitivity(a.seed)
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
