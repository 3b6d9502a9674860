"""One pass of one workload in a fresh interpreter.

Started by run.py for every measured pass, so no pass inherits warm
module state (the N lift cache in `liftproject` is process-global).
Writes its measurements as JSON to --result.

    python3 bench/child.py --workload lift --seed 1 --trace 0 \
        --workdir bench/.work/x --result bench/.work/x/result.json
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    import webrank  # noqa: F401  (set-up: the import a CLI user pays)
    import workloads
    from clock import QueryClock
    from spans import SpanRecorder

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = workloads.make_inputs(args.workload, args.seed, args.smoke)
    clock = QueryClock()
    recorder = None
    if args.trace:
        recorder = SpanRecorder(clock)
        recorder.install()
    p = workloads.Pass(workdir, clock)

    first_query = time.monotonic_ns()
    clock.calibrate(force=True)
    start = time.perf_counter_ns()
    workloads.RUN[args.workload](p, inputs)
    end = time.perf_counter_ns()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = p.finish(start, end)
    result.update(first_query_monotonic_ns=first_query, setup_factor=clock.first_factor,
                  peak_rss_kb=peak_kb)
    if recorder is not None:
        recorder.uninstall()
        # per-layer seconds in reference time, at the pass's average speed
        result["layers"] = recorder.layer_metrics(result["wall_ns"] / result["raw_wall_ns"])
        if args.spans:
            Path(args.spans).write_text(json.dumps(recorder.spans_json()))
    p.run_checks()
    result.update(attempted=p.attempted, failures=p.failures, digest=p.digest)
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
