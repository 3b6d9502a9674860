"""webrank benchmark: seeded certify, lift and combinatorial workloads.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                  # every workload, timed then traced

Run from the root of a source checkout; the package is imported from
`src/`.  Each measured pass runs in a fresh child process (child.py).
Passes repeat until --seconds have been spent (at least MIN_PASSES).
With --trace 1, one more pass runs with the span recorder after the
timed passes, and the per-layer metrics come from it.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
OUT = BENCH / "out"

MIN_PASSES = 3
MAX_PASSES = 40
RUN_LIMIT_S = 170            # a single-workload run must end well within 180 s
PASS_TIMEOUT_S = 120


def provenance(seed):
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": seed, "git_commit": _git_commit(), "source_sha256": _source_digest()}


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "webrank").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_pass(workload, seed, trace, smoke, timeout):
    """One fresh child; returns its result dict plus the set-up time."""
    # the same relative path on every pass, so that the CLI's output (which
    # names the report it wrote) is byte-identical across passes
    workdir = (WORK / f"{workload}-{seed}").relative_to(ROOT)
    shutil.rmtree(ROOT / workdir, ignore_errors=True)
    (ROOT / workdir).mkdir(parents=True)
    result = ROOT / workdir / "result.json"
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--workdir", str(workdir),
           "--result", str(result)]
    if smoke:
        cmd.append("--smoke")
    if trace:
        OUT.mkdir(exist_ok=True)
        cmd += ["--spans", str(OUT / f"spans-{workload}-{seed}.json")]
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    spawned = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"pass timed out after {timeout:.0f} s"}
    finally:
        pass_s = (time.monotonic_ns() - spawned) / 1e9
    if proc.returncode != 0 or not result.is_file():
        tail = (proc.stderr or "").strip().splitlines()[-3:]
        return {"error": f"child exit {proc.returncode}: {' | '.join(tail)}"}
    out = json.loads(result.read_text())
    shutil.rmtree(ROOT / workdir, ignore_errors=True)
    out["setup_s"] = (out["first_query_monotonic_ns"] - spawned) * out["setup_factor"] / 1e9
    out["pass_s"] = pass_s
    return out


def run_workload(workload, seed, seconds, trace, smoke):
    """Timed passes for `seconds`, then (trace) one traced pass."""
    t0 = time.monotonic()
    passes, errors = [], []
    while True:
        elapsed = time.monotonic() - t0
        res = run_pass(workload, seed, 0, smoke, min(PASS_TIMEOUT_S, RUN_LIMIT_S - elapsed))
        if "error" in res:
            errors.append(res["error"])
        else:
            passes.append(res)
        elapsed = time.monotonic() - t0
        if errors or len(passes) >= MAX_PASSES:
            break
        est = statistics.median(p["pass_s"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + est > seconds:
            break
        if elapsed + est * (1 + trace) > RUN_LIMIT_S - 10:
            break
    traced = None
    if trace and not errors:
        traced = run_pass(workload, seed, 1, smoke, RUN_LIMIT_S - (time.monotonic() - t0))
        if "error" in traced:
            errors.append(traced["error"])
            traced = None
    return summarize(workload, passes, traced, errors)


def summarize(workload, passes, traced, errors):
    runs = passes + ([traced] if traced else [])
    failures = list(errors)
    attempted = sum(p["attempted"] for p in runs) + len(errors)
    for p in runs:
        failures += p["failures"]
        if p["digest"] != runs[0]["digest"]:
            failures.append(f"report digest {p['digest'][:12]} != {runs[0]['digest'][:12]}")
    lat = sorted(x for p in passes for x in p["latencies_ns"])
    med = lambda key: statistics.median(p[key] for p in passes)  # noqa: E731
    e2e = {}
    if passes:
        e2e = {
            "wall_s": (med("wall_ns") / 1e9, "s"),
            "query_p50_ms": (statistics.median(lat) / 1e6, "ms"),
            "query_p90_ms": (statistics.quantiles(lat, n=10)[-1] / 1e6, "ms"),
            "setup_s": (med("setup_s"), "s"),
            "peak_rss_mb": (med("peak_rss_kb") / 1024, "MiB"),
            "recheck_s": (med("recheck_ns") / 1e9, "s"),
        }
    layers = {}
    if traced:
        layers = dict(traced["layers"])
        layers["trace.wall_s"] = traced["wall_ns"] / 1e9
        layers["trace.untraced_wall_s"] = e2e["wall_s"][0]
    raw_wall = med("raw_wall_ns") / 1e9 if passes else None
    return {"workload": workload, "passes": len(passes), "queries": len(lat),
            "raw_wall_s": raw_wall,
            "pass_wall_s": [[p["wall_ns"] / 1e9, p["raw_wall_ns"] / 1e9] for p in passes],
            "attempted": max(attempted, 1), "failed": len(failures),
            "failures": failures, "end_to_end": e2e, "layers": layers}


def metric_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def report(s, units, prefix, e2e, layers):
    """Print one workload's summary; return the requested metrics."""
    w = s["workload"]
    print(f"[{w}] passes={s['passes']} queries={s['queries']} attempted={s['attempted']} "
          f"failed={s['failed']} fail_ratio={s['failed'] / s['attempted']:.4f}")
    for f in s["failures"][:20]:
        print(f"[{w}] FAIL {f}")
    metrics = {}
    for name, (value, unit) in s["end_to_end"].items():
        samples = s["queries"] if name.startswith("query_") else s["passes"]
        print(f"[{w}] {name} = {value:.6g} {unit} (median, n={samples})")
        if e2e:
            metrics[prefix + name] = {"value": value, "unit": unit}
    if s["passes"]:
        print(f"[{w}] raw wall_s = {s['raw_wall_s']:.6g} s (median, n={s['passes']})")
    if s["layers"]:
        print(f"[{w}] traced wall_s = {s['layers']['trace.wall_s']:.6g} s, "
              f"untraced median {s['layers']['trace.untraced_wall_s']:.6g} s")
    if layers:
        for name, value in s["layers"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="1: add a traced pass and report per-layer metrics "
                         "(default: 0 for one workload, 1 for all)")
    ap.add_argument("--smoke", action="store_true",
                    help="reduced inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (SRC / "webrank" / "__init__.py").is_file() or \
            not (ROOT / "BENCHMARK.json").is_file():
        print(f"no webrank sources under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = args.trace if args.trace is not None else int(args.workload == "all")
    units = metric_units()
    prov = provenance(args.seed)
    print("provenance " + json.dumps(prov, sort_keys=True))

    summaries, metrics = [], {}
    for name in names:
        s = run_workload(name, args.seed, args.seconds, trace, args.smoke)
        summaries.append(s)
        if len(names) > 1:
            metrics.update(report(s, units, f"{name}.", e2e=True, layers=trace))
        else:
            metrics.update(report(s, units, "", e2e=not trace, layers=trace))
    OUT.mkdir(exist_ok=True)
    tag = "all" if len(names) > 1 else names[0]
    (OUT / f"result-{tag}-{args.seed}-trace{trace}.json").write_text(
        json.dumps({"provenance": prov, "summaries": summaries}, indent=1))
    failed = sum(s["failed"] for s in summaries)
    line = {"correct": failed == 0,
            "attempted": sum(s["attempted"] for s in summaries),
            "failed": failed, "metrics": metrics}
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
