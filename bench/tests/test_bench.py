"""Tests of the benchmark itself: recorder counts, oracles, smoke runs.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
from clock import QueryClock  # noqa: E402
from spans import SpanRecorder, patch_function  # noqa: E402
from webrank import graphs, liftproject, polyhedra, rank  # noqa: E402


def recorded(fn):
    rec = SpanRecorder()
    rec.install()
    try:
        out = fn()
    finally:
        rec.uninstall()
    return rec, out


def test_valid_over_c5_runs_two_piece_lps():
    g = graphs.cycle_graph(5)
    row = polyhedra.LinearInequality({v: 1 for v in g.nodes}, 2)
    h = polyhedra.qstab(g)
    for caller in (liftproject, rank):
        rec, (ok, _) = recorded(lambda: caller.disjunctive_valid(row, h, (1,)))
        assert ok
        layers = rec.layer_metrics()
        assert layers["liftproject.valid_calls"] == 1
        assert layers["liftproject.piece_lps"] == 2
        assert layers["simplex.solves"] == 2


def test_every_binding_is_patched_and_restored():
    orig = liftproject.piece_lp_max
    rec = SpanRecorder()
    rec.install()
    try:
        assert rank.piece_lp_max is liftproject.piece_lp_max is not orig
    finally:
        rec.uninstall()
    assert rank.piece_lp_max is liftproject.piece_lp_max is orig


def test_pivots_are_counted_per_call_across_resolves():
    g = graphs.web(9, 2)
    h = polyhedra.qstab(g)
    objectives = [{v: (v * j) % 5 + 1 for v in g.nodes} for j in range(1, 5)]
    running, per_call = [], []
    rec = SpanRecorder()
    rec.install()
    try:
        sys_ = liftproject.n_lift_system(h, 1, cache=False)
        for obj in objectives:
            before = rec.counts.get("pivots", 0)
            _, res = sys_.maximize(obj)
            running.append(res.pivots)
            per_call.append(rec.counts["pivots"] - before)
    finally:
        rec.uninstall()
    assert rec.calls["simplex.solve"] == 1 and rec.calls["simplex.resolve"] == 3
    assert per_call == [b - a for a, b in zip([0] + running, running)]
    assert rec.counts["pivots"] == running[-1]


def test_query_clock_marks_outermost_calls_only():
    clock = QueryClock()
    calls = []

    class Mod:
        __name__ = "fake"

    mod = Mod()
    mod.inner = lambda: calls.append("inner")
    mod.outer = lambda: (mod.inner(), mod.inner())
    patch_function(mod, "inner", clock.marker("inner"), only_in=[mod])
    patch_function(mod, "outer", clock.marker("outer"), only_in=[mod])
    mod.outer()                  # the nested inner calls end no query
    mod.inner()
    assert len(clock.marks) == 2 and calls == ["inner"] * 3


def test_closed_forms():
    assert [oracle.web_rank(n, 2) for n in range(6, 12)] == [0, 1, 2, 2, 2, 2]
    assert oracle.web_rank(14, 4) == 4 and oracle.web_rank(13, 4) == 3
    assert oracle.antiweb_row_rank(11, 3) == 2 and oracle.antiweb_row_rank(7, 2) == 1
    c5 = oracle.web_adj(5, 1)
    sets = oracle.stable_sets(c5)
    assert max(len(s) for s in sets) == oracle.ALPHA_C5
    ones = {v: Fraction(1) for v in c5}
    assert oracle.is_stab_facet(ones, 2, list(c5), sets)
    assert not oracle.is_stab_facet(ones, 3, list(c5), sets)      # valid, not tight
    assert not oracle.is_stab_facet({1: Fraction(1)}, 0, list(c5), sets)


def test_member_and_separating_checks():
    adj = oracle.web_adj(5, 1)
    cl = oracle.cliques(adj)
    half = {v: Fraction(1, 2) for v in adj}
    zero = {v: Fraction(0) for v in adj}
    one = {**zero, 1: Fraction(1), 3: Fraction(1)}
    mult = [((0,), Fraction(1, 2), zero), ((1,), Fraction(1, 2), one)]
    x = {v: Fraction(1, 2) * one[v] for v in adj}
    assert oracle.check_member(x, [1], mult, cl)
    assert not oracle.check_member(half, [1], mult, cl)
    ones = {v: Fraction(1) for v in adj}
    sets = oracle.stable_sets(adj)
    assert oracle.check_separating(half, ones, Fraction(2), sets)
    assert not oracle.check_separating(half, ones, Fraction(1), sets)   # invalid row


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_smoke_run_is_correct_and_reports_every_metric():
    proc = _run(ROOT, "--workload", "all", "--smoke", "--seconds", "0", "--seed", "3")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in (wl["name"] for wl in spec["workloads"]):
        for m in spec["end_to_end"] + spec["per_layer"]:
            assert line["metrics"][f"{w}.{m['name']}"]["unit"] == m["unit"]
        for m in spec["end_to_end"]:
            assert line["metrics"][f"{w}.{m['name']}"]["value"] > 0


def test_single_workload_prints_its_metric_set():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, "--workload", "lift", "--smoke", "--seconds", "0",
                    "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == {m["name"] for m in spec[key]}


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "certify", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
