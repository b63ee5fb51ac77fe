#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises every metric.

    python3 perfbench/baseline.py --runs 10 [--workloads cold-planar,...]
                                  [--seconds S] [--out FILE]

Run from the repository root. For each workload and end-to-end metric it
prints the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json,
flagging spreads above a third of the bound. --out writes the summary,
with the host's core count and CPU model, as JSON.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    if out.returncode != 0:
        sys.exit("run failed (%d): %s" % (out.returncode, " ".join(cmd)))
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        sys.exit("incorrect result: " + " ".join(cmd))
    return res


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    spec = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out")
    a = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {"cores": os.cpu_count(), "cpu_model": cpu_model(),
               "runs": a.runs, "seconds": a.seconds,
               "seeds": list(range(a.seed_base, a.seed_base + a.runs)),
               "workloads": {}}
    for w in a.workloads.split(","):
        per_metric = {}
        attempted = failed = 0
        for seed in summary["seeds"]:
            res = run_once(w, seed, a.seconds)
            attempted += res["attempted"]
            failed += res["failed"]
            for k, v in res["metrics"].items():
                per_metric.setdefault(k, {"unit": v["unit"], "values": []})
                per_metric[k]["values"].append(v["value"])
            print("%s seed %d done" % (w, seed), file=sys.stderr)
        rows = {}
        print("== %s (%d runs, %d attempted, %d failed)" %
              (w, a.runs, attempted, failed))
        for k, m in per_metric.items():
            s = summarise(m["values"])
            s["unit"] = m["unit"]
            rows[k] = s
            b = bounds.get(k)
            flag = ""
            if b is not None and k != "setup_s" and s["spread"] > b / 3:
                flag = "  <-- spread above bound/3"
            print("  %-22s median %12.6g  q1 %12.6g  q3 %12.6g  spread %.4f"
                  "  bound %s%s" % (k, s["median"], s["q1"], s["q3"],
                                    s["spread"], b, flag))
        summary["workloads"][w] = {"attempted": attempted, "failed": failed,
                                   "metrics": rows}
    if a.out:
        with open(a.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
