"""Benchmark command: one workload, one seed, one run.

    python3 perfbench/run.py --workload {suite,serve,cluster} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout of the program.  Each workload runs in
child processes (``child.py``) so that set-up is measured from process
start: ``setup_s`` is the median over three cold starts (one set-up-only
child plus the measuring children for ``suite``; two set-up-only children
plus the measuring one for ``serve`` and ``cluster``).  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the ``end_to_end`` metrics of BENCHMARK.json with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.  The exit code
is 1 when an output check fails and 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List

from common import ROOT, WORK, percentile, round_count

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("suite", "serve", "cluster")
#: Whole-run budget; every child still running at this point is killed.
BUDGET_S = 170.0
SETUP_SAMPLES = 3
#: Reference time of one ``suite`` round (one cold ``run_all``) on a 2-vCPU box.
SUITE_ROUND_S = 10.0


class ChildFailed(RuntimeError):
    pass


class Child:
    """One ``child.py`` process in its own process group."""

    def __init__(self, args: argparse.Namespace, work: str, trace: bool, deadline: float) -> None:
        command = [
            sys.executable, os.path.join(HERE, "child.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(int(trace)), "--work", work,
        ]
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        self.timer = threading.Timer(max(0.0, deadline - time.monotonic()), self.kill)
        self.timer.daemon = True
        self.timer.start()
        self.code = None

    def kill(self) -> None:
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def expect(self, tag: str) -> dict:
        line = self.process.stdout.readline()
        if not line.startswith(tag + " "):
            self.finish()
            raise ChildFailed(f"{tag} expected from the {tag.lower()} step, got {line!r}")
        return json.loads(line[len(tag) + 1:])

    def ready(self) -> float:
        """Wait for set-up; return seconds since the process started."""
        self.expect("READY")
        return time.perf_counter() - self.started

    def send(self, command: str) -> None:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()

    def finish(self) -> int:
        """Wait for exit, then kill whatever the child left in its group."""
        if self.code is None:
            self.process.stdin.close()
            # Wait without reaping, so the group id cannot be reused before
            # the group is cleared.
            os.waitid(os.P_PID, self.process.pid, os.WEXITED | os.WNOWAIT)
            self.kill()
            self.timer.cancel()
            self.code = self.process.wait()
        return self.code


def setup_only(args, work: str, deadline: float) -> float:
    child = Child(args, work, False, deadline)
    try:
        sample = child.ready()
        child.send("QUIT")
    finally:
        child.finish()
    return sample


def measured(args, work: str, trace: bool, deadline: float) -> tuple:
    child = Child(args, work, trace, deadline)
    try:
        sample = child.ready()
        child.send("GO")
        result = child.expect("RESULT")
    finally:
        code = child.finish()
    if code != 0:
        raise ChildFailed(f"measuring child exited with {code}")
    return sample, result


def run_workload(args, work: str) -> tuple:
    """Returns (setup samples, child results)."""
    deadline = time.monotonic() + BUDGET_S
    samples: List[float] = []
    results: List[dict] = []
    if args.workload == "suite":
        # Every round is a cold process; one extra set-up-only start makes
        # the third set-up sample.
        samples.append(setup_only(args, work, deadline))
        for _ in range(round_count(args.seconds, SUITE_ROUND_S, 2)):
            sample, result = measured(args, work, bool(args.trace), deadline)
            samples.append(sample)
            results.append(result)
    else:
        for _ in range(SETUP_SAMPLES - 1):
            samples.append(setup_only(args, work, deadline))
        sample, result = measured(args, work, bool(args.trace), deadline)
        samples.append(sample)
        results.append(result)
    return samples, results


def end_to_end(samples: List[float], results: List[dict]) -> Dict[str, float]:
    rounds = [r for result in results for r in result["rounds"] if not r["traced"]]
    latencies = [v for result in results for v in result["latencies_ms"]]
    return {
        "setup_s": statistics.median(samples),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "jobs_per_s": sum(r["jobs"] for r in rounds) / sum(r["wall_s"] for r in rounds),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p95_ms": percentile(latencies, 95),
        "peak_rss_mb": statistics.median(result["peak_rss_mb"] for result in results),
    }


def per_layer(results: List[dict], deterministic) -> Dict[str, float]:
    traced = [layers for result in results for layers in result.get("layers", [])]
    out = {}
    for name in traced[0]:
        values = [layers[name] for layers in traced]
        # Counts come from the first traced round, which is the same work
        # on every run with this seed; times are medians over the rounds.
        out[name] = values[0] if name in deterministic else statistics.median(values)
    out["setup.import_s"] = statistics.median(r["import_s"] for r in results)
    out["setup.warmup_s"] = statistics.median(r["warmup_s"] for r in results)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program under {ROOT}/src/repro; run from a checkout", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    import probes

    if [m["name"] for m in spec["per_layer"]] != list(probes.PER_LAYER):
        print("error: BENCHMARK.json per_layer differs from probes.PER_LAYER", file=sys.stderr)
        return 2

    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        samples, results = run_workload(args, work)
    except ChildFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        for name in os.listdir(work):
            if name.endswith(".jsonl") and name != "spans.jsonl":
                os.remove(os.path.join(work, name))
        shutil.rmtree(os.path.join(work, "cluster"), ignore_errors=True)

    failures = [f for result in results for f in result["checks"]["failures"]]
    passed = sum(result["checks"]["passed"] for result in results)
    if args.trace:
        values = per_layer(results, probes.DETERMINISTIC)
        chosen = spec["per_layer"]
    else:
        values = end_to_end(samples, results)
        chosen = spec["end_to_end"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"  setup samples (s): {', '.join(f'{s:.3f}' for s in samples)}")
    if "recovery_s" in results[-1]:
        print(f"  recovery_s: {results[-1]['recovery_s']:.4f} s (serve crash drill)")
    for result in results:
        if "layer_table" in result:
            print(result["layer_table"])
    for metric in chosen:
        print(f"  {metric['name']:30s} {values[metric['name']]:14.6f} {metric['unit']}")
    print(f"  checks: {passed} passed, {len(failures)} failed")
    for failure in failures:
        print(f"  FAILED: {failure}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": sum(result["attempted"] for result in results),
                "failed": sum(result["failed"] for result in results),
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen
                },
            }
        )
    )
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
