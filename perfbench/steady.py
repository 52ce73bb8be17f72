"""Steadiness check: run each workload repeatedly and compare with its bounds.

    python3 perfbench/steady.py

Runs every workload of BENCHMARK.json in two sets of ten runs, one run at
a time, for ``run_seconds`` each: seeds 0-9 make the first set and 10-19
the second.  For each end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread (IQR /
median) beside the metric's bound, and the change of the second median
against the first.  ``setup_s`` is exempt from the spread test; every
metric must keep its second median within the bound of the first, and the
share of failed operations must be the same in every run.  Exits 1 when
any test fails.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

from common import ROOT

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
RUNS = 10
SETS = 2


def one_run(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n{completed.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for index in range(SETS):
            runs = []
            for seed in range(index * RUNS, (index + 1) * RUNS):
                result = one_run(workload, seed, seconds)
                runs.append(result)
                print(f"{workload} set {index + 1} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                ), flush=True)
            sets.append(runs)
        print(f"\n{workload}: {RUNS} runs per set, {seconds} s each")
        print(f"  {'metric':16s} {'set':>3s} {'median':>11s} {'q1':>11s} {'q3':>11s}"
              f" {'spread':>7s} {'bound':>6s} {'vs set 1':>8s}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = None
            for index, runs in enumerate(sets):
                stats = summarize([r["metrics"][name]["value"] for r in runs])
                change = ""
                if first is None:
                    first = stats
                else:
                    worse = (stats["median"] - first["median"]) / first["median"]
                    if metric["better"] == "higher":
                        worse = -worse
                    change = f"{worse:+8.1%}"
                    ok &= worse <= bound
                if name != "setup_s":
                    ok &= stats["spread"] <= bound
                print(f"  {name:16s} {index + 1:3d} {stats['median']:11.4f} {stats['q1']:11.4f}"
                      f" {stats['q3']:11.4f} {stats['spread']:7.1%} {bound:6.0%} {change:>8s}")
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"  failed share(s): {sorted(shares)}; all outputs correct: {correct}\n")
        ok &= len(shares) == 1 and correct
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
