"""One benchmark process: import the program, set up, then measure on request.

``run.py`` starts this script and talks to it over its pipes:

* the child prints ``READY {"import_s": ..., "warmup_s": ...}`` once the
  workload is set up (the parent's clock from process start to this line
  is one ``setup_s`` sample);
* the parent answers ``GO`` to run the timed phase, or ``QUIT`` to tear
  down (a set-up-only sample);
* after ``GO`` the child prints ``RESULT {...}`` and exits.

Everything else the child prints goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def main() -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()

    import common

    common.use_source_tree()
    if args.workload == "suite":
        from wl_suite import Suite as Workload
    elif args.workload == "serve":
        from wl_serve import Serve as Workload
    else:
        from wl_cluster import Cluster as Workload
    workload = Workload(args.seed, args.work)
    workload.load()
    import_s = time.perf_counter() - start
    workload.setup()
    warmup_s = time.perf_counter() - start - import_s
    print("READY " + json.dumps({"import_s": import_s, "warmup_s": warmup_s}), flush=True)
    try:
        if sys.stdin.readline().strip() != "GO":
            return 0
        from tracer import Tracer

        tracer = Tracer()
        result = workload.measure(args.seconds, bool(args.trace), tracer)
        result["import_s"], result["warmup_s"] = import_s, warmup_s
        if tracer.spans:
            tracer.write(os.path.join(args.work, "spans.jsonl"))
        print("RESULT " + json.dumps(result), flush=True)
    finally:
        workload.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
