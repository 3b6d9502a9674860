"""`recheck` without a solver: piece multipliers, mutations, the piece cap.

Every piece record of a validity proof carries multipliers y over the
rows of the system, and `recheck.check_pieces` checks them by plain
arithmetic.  On random graphs of at most 8 nodes the multipliers of each
piece prove exactly the value its LP found.  Every mutation of a piece
record of a `verify rdfar --nmax 8` report (one multiplier's sign
flipped, all of them halved, all of them dropped, the record dropped)
makes `recheck` fail the certificate.
"""

import ast
import copy
import json
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import webrank
from webrank.cli import main
from webrank.graphs import Graph
from webrank.liftproject import disjunctive_valid, piece_max, piece_systems
from webrank.polyhedra import LinearInequality, frac, qstab
from webrank.recheck import _piece_bound, check_pieces, recheck_certificate
from webrank.reporting import dumps


@st.composite
def row_cases(draw):
    n = draw(st.integers(1, 8))
    nodes = range(1, n + 1)
    pairs = list(combinations(nodes, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(nodes, [e for e, k in zip(pairs, keep) if k])
    h = draw(st.sampled_from((qstab, frac)))(g)
    f = tuple(sorted(draw(st.lists(st.sampled_from(nodes), unique=True, max_size=3))))
    coeffs = {v: draw(st.integers(-2, 4)) for v in nodes}
    return h, f, coeffs


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(row_cases())
def test_piece_multipliers_prove_each_piece_value(case):
    h, f, coeffs = case
    out = piece_max(piece_systems(h, f), coeffs)
    top = out.value if out.status == "optimal" else Fraction(0)
    row = LinearInequality(coeffs, top)
    ok, cert = disjunctive_valid(row, h, f)
    assert ok
    for p in cert["pieces"]:
        fixing = dict(zip(f, p["z"]))
        if p["status"] == "optimal":
            assert _piece_bound(h, fixing, p["y"], row.coeffs) == p["value"]
        else:
            assert _piece_bound(h, fixing, p["y"], {}) < 0
    check_pieces(h, row, f, cert["pieces"])
    check_pieces(h, row, f, json.loads(dumps(cert["pieces"])))
    if out.status == "optimal":             # the bound is tight: below it the row fails
        assert not disjunctive_valid(LinearInequality(coeffs, top - 1), h, f)[0]


def _rdfar_report(tmp_path, nmax):
    path = tmp_path / "rdfar.json"
    assert main(["verify", "rdfar", "--nmax", str(nmax), "--format", "json",
                 "--out", str(path)]) == 0
    return path, json.loads(path.read_text())


def _mutants(records):
    """(kind, mutated copy of records) for each mutation of each record."""
    for r, rec in enumerate(records):
        for i in rec["y"]:
            out = copy.deepcopy(records)
            out[r]["y"][i] = str(-Fraction(rec["y"][i]))
            yield "sign", out
        out = copy.deepcopy(records)
        out[r]["y"] = {i: str(Fraction(v) / 2) for i, v in rec["y"].items()}
        yield "halve", out
        out = copy.deepcopy(records)
        out[r]["y"] = {}
        yield "empty", out
        yield "drop", records[:r] + records[r + 1:]


def test_every_mutation_of_a_piece_record_fails(tmp_path, capsys):
    _, report = _rdfar_report(tmp_path, 8)
    certs = [e["certificate"] for e in report["entries"]
             if e.get("certificate", {}).get("type") in ("disjunctive-validity", "ineq-rank")]
    counts = {}
    for cert in certs:
        assert recheck_certificate(cert)[0]
        for kind, pieces in _mutants(cert["pieces"]):
            ok, detail = recheck_certificate({**cert, "pieces": pieces})
            assert not ok, (kind, cert["type"])
            counts[kind] = counts.get(kind, 0) + 1
    # 20 records over the 4 proofs and 4 witnesses, 69 nonzero multipliers
    assert counts == {"sign": 69, "halve": 20, "empty": 20, "drop": 20}


def test_recheck_piece_cap_bounds_the_piece_checks(tmp_path, capsys):
    path, report = _rdfar_report(tmp_path, 7)
    proof = next(e for e in report["entries"]
                 if e.get("certificate", {}).get("type") == "disjunctive-validity")
    label = proof["certificate"]["f"][0]
    proof["certificate"]["f"] = [label] * 28
    path.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["recheck", str(path), "--piece-cap", "3"]) == 1
    out = capsys.readouterr().out
    failed = [ln for ln in out.splitlines() if "FAIL" in ln and "recheck:" in ln]
    assert len(failed) == 1 and proof["name"] in failed[0] and "repeats a label" in failed[0]
    proof["certificate"]["f"] = list(range(1, 14))
    path.write_text(json.dumps(report))
    assert main(["recheck", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "piece cap exceeded: |F|=13 > 12" in captured.err


def test_recheck_imports_no_solver():
    tree = ast.parse((Path(webrank.__file__).parent / "recheck.py").read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for a in node.names}
    assert not {m for m in imported if m and m.split(".")[-1] in ("simplex", "liftproject")}
