#!/usr/bin/env python3
"""Steadiness self-check for the benchmark.

    python3 perfbench/selfcheck.py [--runs 5] [--workloads campaign,fuzz]

Run from the root of a tlsharm checkout. Runs two sets of --runs runs per
workload, interleaving the sets run by run, each run with its own seed.
For every workload and end-to-end metric, setup_s included, it reports
each set's median and quartile spread (as a share of the median) against
the bound in BENCHMARK.json, and whether the second set's median is worse
than the first's by more than the bound.
It also reports each run's duration, since the whole protocol has a time
budget. Exits 1 if any check fails.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

from harness import iqr_share, median  # noqa: E402

RUNNER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SETS = 2


def run_once(workload, seed, seconds):
    t0 = time.perf_counter()
    p = subprocess.run([sys.executable, RUNNER, "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", "0"],
                       capture_output=True, text=True, timeout=900)
    took = time.perf_counter() - t0
    if p.returncode != 0:
        raise SystemExit("run failed (%s seed %d): %s" % (workload, seed, p.stderr.strip()[-2000:]))
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2]) if len(lines) > 1 else {}, took


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--workloads", default=None, help="comma-separated; default all")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--log", default="perfbench-selfcheck.json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {(s, w): [] for s in range(SETS) for w in workloads}
    log = []
    for i in range(args.runs):
        for s in range(SETS):
            for w in workloads:
                seed = args.first_seed + s * args.runs + i
                result, info, took = run_once(w, seed, seconds)
                if not result["correct"]:
                    raise SystemExit("incorrect result: %s seed %d" % (w, seed))
                results[(s, w)].append(result)
                log.append({"set": s, "workload": w, "seed": seed, "took_s": took,
                            "result": result, "info": info})
                print("set %d %-13s seed %3d  %5.1fs  %s" % (
                    s, w, seed, took, "  ".join("%s=%.4g" % (k, v["value"])
                                                for k, v in result["metrics"].items())),
                      flush=True)
                with open(args.log, "w") as f:
                    json.dump(log, f, indent=1)

    ok = True
    print("\n%-13s %-13s %6s  %s" % ("workload", "metric", "bound",
                                      "  ".join("set%d median  spread" % s for s in range(SETS))))
    for w in workloads:
        shares = {s: sum(r["failed"] for r in results[(s, w)]) / sum(r["attempted"] for r in results[(s, w)])
                  for s in range(SETS)}
        if len(set(shares.values())) != 1:
            ok = False
            print("%-13s failed shares differ between sets: %s" % (w, shares))
        for metric, bound in bounds.items():
            cols, meds = [], []
            for s in range(SETS):
                vals = [r["metrics"][metric]["value"] for r in results[(s, w)]]
                spread = iqr_share(vals)
                meds.append(median(vals))
                ok &= spread <= bound
                cols.append("%12.5g %6.1f%%%s" % (meds[-1], 100 * spread,
                                                   "" if spread <= bound / 3 else "!"))
            better = next(m["better"] for m in spec["end_to_end"] if m["name"] == metric)
            worse = (meds[1] - meds[0]) / meds[0] * (1 if better == "lower" else -1)
            ok &= worse <= bound
            print("%-13s %-13s %5.0f%%  %s  worse by %+.1f%%" % (w, metric, 100 * bound,
                                                                "  ".join(cols), 100 * worse))
        took = [e["took_s"] for e in log if e["workload"] == w]
        print("%-13s run duration: median %.1fs, max %.1fs" % (w, median(took), max(took)))
    print("\nsteady" if ok else "\nNOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
