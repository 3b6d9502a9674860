"""`recheck` without a solver: piece multipliers, mutations, the piece cap.

Every piece record of a validity proof carries multipliers y over the
rows of the system, and `recheck.check_pieces` checks them by plain
arithmetic.  On random graphs of at most 8 nodes the multipliers of each
piece prove exactly the value its LP found.  Every mutation of a piece
record of a `verify rdfar --nmax 8` report (one multiplier's sign
flipped, all of them halved, all of them dropped, the record dropped)
makes `recheck` fail the certificate, and so does every mutation of the
Farkas piece record of a nonempty piece of a non-member (its y negated,
halved or dropped, the record relabelled infeasible).  A row-rank
certificate must also pin its lower bound: a raised or lowered rank
fails; so do a raised or lowered point bound, a bound point moved out of
the system and a row of mixed signs added to it; and where the bound is
below the rank, a dropped violation or a swapped point fails exactly
when the brute-force coverage oracle finds an F of size rank-1 left
unrefuted.  So must a graph-rank
certificate: a raised or lowered rank fails, and so does a pool with one
hole dropped exactly when that oracle finds an F of size rank-1 that
meets every hole left.  The checks run in integers: their rational
reader takes the report grammar and rejects everything else with one
message, a doctored rational at each place recheck reads one gives a
pinned entry, a label that Python's int reads but the grammar does not
hold fails as malformed at each place recheck reads one, so does a list
of labels written as a string, a rank written 2.0 and a piece pattern
written with false, and `check_member` and `_piece_bound` agree with
their Fraction oracles on the certificates of antiwebs with n <= 11 and
doctored copies.  Every key of every certificate of seven small reports,
deleted once, fails `recheck` or falls in a named class whose count is
pinned (no graph-rank key does); and reports that still carry the fields
dropped as unread (kind, piece values, row tags, violation f, a graph's
n and provenance) recheck as before.
"""

import ast
import copy
import functools
import hashlib
import json
import math
import random
import time
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import webrank
from webrank.cli import main
from webrank.graphs import (AntiwebId, CertificateError, Graph, SearchTimeout, antiweb,
                            delete_nodes, is_circulant, limits, parse_graph_spec, web)
from webrank.inequalities import (antiweb_constraint, join_blocks_of, joined_inequality,
                                   rank_constraint)
from webrank.liftproject import (disjunctive_member, disjunctive_valid, piece_lp_max, piece_max,
                                 piece_systems)
from webrank.polyhedra import (HPolytope, LinearInequality, frac, nonneg_row, qstab,
                               rotation_invariant)
from webrank.rank import disjunctive_rank_graph, disjunctive_rank_inequality
from webrank.recheck import (_piece_bound, _system, check_member, check_pieces, check_point,
                             hitting_set, parse_point, recheck_certificate, recheck_report)
from webrank.reporting import dumps, frac_to_str, read_label, read_rational

from oracles import (check_member_by_fractions, contains, piece_bound_by_fractions,
                     pool_refutes_all, with_mixed_rows)


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
            assert _piece_bound(h, fixing, p["y"], row.coeffs) == \
                piece_lp_max(h, row.coeffs, fixing).value
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


def _non_member_certificates():
    """(h, membership certificate) of each non-member among seeded points
    of [1/12, 1/2]^n and F of size 1 to 3 on nine prime antiwebs."""
    rng = random.Random(1)
    for n, k in ((7, 2), (7, 3), (8, 3), (9, 2), (9, 4), (10, 3), (11, 2), (11, 3), (11, 4)):
        h = qstab(antiweb(n, k))
        for size in (1, 2, 3):
            f = sorted(rng.sample(h.index, size))
            x = {v: Fraction(rng.randint(1, 6), 12) for v in h.index}
            member, cert = disjunctive_member(x, h, f)
            if not member:
                yield h, json.loads(dumps({**cert, "type": "membership", "member": False,
                                           "system": h.to_json(), "point": x}))


def test_every_mutation_of_a_farkas_piece_record_fails():
    """A non-member's piece records are read off the Farkas vector of its
    membership LP: status "bounded", the multipliers y and no value.  On
    every piece that holds a point (the one equal to z on F and 0 off
    it), the record's y negated, halved or dropped fails `recheck`, and so
    does the record relabelled "infeasible".  (On an empty piece the
    Farkas block may prove emptiness too, and the relabelled record then
    holds.)  Only points of h are taken: one outside h is cut off by the
    row of h it exceeds, with no LP, and its records are that row."""
    counts, certs = {}, 0
    for h, cert in _non_member_certificates():
        if not contains(h, {int(v): Fraction(q) for v, q in cert["point"].items()}):
            continue
        assert recheck_certificate(cert) == (
            True, "separating row valid on every piece, by its multipliers")
        certs += 1
        for r, rec in enumerate(cert["pieces"]):
            assert ("value" not in rec and rec["status"] == "bounded") or \
                rec["status"] == "infeasible" and len(rec["y"]) == 1
            if rec["status"] != "bounded" or not contains(
                    h, {int(v): Fraction(z) for v, z in zip(cert["f"], rec["z"])}):
                continue
            mutants = [("relabel", {**rec, "status": "infeasible"}), ("drop", {**rec, "y": {}})]
            for kind, scale in (("negate", -1), ("halve", Fraction(1, 2))):
                y = {i: str(Fraction(v) * scale) for i, v in rec["y"].items()}
                mutants.append((kind, {**rec, "y": y}))
            for kind, mutant in mutants:
                pieces = [*cert["pieces"][:r], mutant, *cert["pieces"][r + 1:]]
                assert not recheck_certificate({**cert, "pieces": pieces})[0], kind
                counts[kind] = counts.get(kind, 0) + 1
    assert certs == 2           # 8 records of nonempty pieces among them
    assert counts == {"relabel": 8, "drop": 8, "negate": 8, "halve": 8}


def _sweep_reports(tmp_path):
    """The reports of `verify rdfar --nmax 7`, `rank ineq antiweb A:8:3
    --cert`, `rank ineq rank-constraint W:9:2 --cert`, `verify join
    --spec join:A:5:2,A:5:2` and `rank graph --cert` of W:10:2,
    join:C:5,C:7 and A:13:4, as JSON: every certificate type among them."""
    reports = []
    for name, argv in (("rdfar", ["verify", "rdfar", "--nmax", "7", "--out"]),
                       ("a83", ["rank", "ineq", "antiweb", "A:8:3", "--cert"]),
                       ("w92", ["rank", "ineq", "rank-constraint", "W:9:2", "--cert"]),
                       ("join", ["verify", "join", "--spec", "join:A:5:2,A:5:2", "--out"]),
                       ("w102", ["rank", "graph", "W:10:2", "--cert"]),
                       ("c5c7", ["rank", "graph", "join:C:5,C:7", "--cert"]),
                       ("a134", ["rank", "graph", "A:13:4", "--cert"])):
        path = tmp_path / f"{name}.json"
        assert main([*argv, str(path)]) == 0
        reports.append(json.loads(path.read_text()))
    return reports


def _key_paths(node, path=()):
    """The path of every dict key in node, depth first."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield (*path, k)
            yield from _key_paths(v, (*path, k))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _key_paths(v, (*path, i))


def _rechecks(cert) -> bool:
    [entry] = recheck_report({"entries": [{"name": "swept", "certificate": cert}]}).entries
    return entry.status == "pass"


def _deletion_class(cert, path):
    """The class of a key deletion that `recheck` lets pass, or None."""
    *where, key = path
    parent = functools.reduce(lambda node, k: node[k], where, cert)
    if where[-1] == "coeffs":
        return "system coefficient" if where[0] == "system" else "row coefficient"
    if where[-1] == "point" and parent[key] == "0":
        return "point coordinate at 0"
    if where[-1] == "y" and cert["pieces"][where[1]]["status"] == "infeasible":
        return "multiplier of an empty piece with slack"
    return None


# the key deletions that still pass `recheck`, by class:
# - a coefficient deleted changes the subject, so the certificate proves its
#   claim about another system or row (nothing yet ties the subject to the
#   entry's claim);
# - a point's missing coordinate reads 0;
# - on the piece z = (1, 1) of the joined row of join:A:5:2,A:5:2 each of
#   the four rows of y proves the piece empty alone.
# No key of a graph-rank certificate is among them: its graph is its nodes
# and edges, and recheck reads both.
DELETION_CLASSES = {"system coefficient": 244, "row coefficient": 28,
                    "point coordinate at 0": 20, "multiplier of an empty piece with slack": 4}


def test_every_key_deletion_fails_or_falls_in_a_named_class(tmp_path):
    """Each key of each certificate of the sweep reports, deleted once:
    recheck fails the certificate, or the deletion falls in a class of
    DELETION_CLASSES, whose counts are pinned.  No certificate carries a
    key recheck does not read: no kind, no piece or top-level value, no
    row tag, no violation f, and no graph n or provenance."""
    certs = [e["certificate"] for report in _sweep_reports(tmp_path)
             for e in report["entries"] if e.get("certificate")]
    counts, deletions = {}, 0
    for cert in certs:
        assert _rechecks(cert)
        for path in _key_paths(cert):
            deletions += 1
            out = copy.deepcopy(cert)
            node = functools.reduce(lambda node, k: node[k], path[:-1], out)
            del node[path[-1]]
            if _rechecks(out):
                kind = _deletion_class(cert, path)
                assert kind is not None, (cert["type"], path)
                counts[kind] = counts.get(kind, 0) + 1
    assert (len(certs), deletions) == (16, 1248)
    assert counts == DELETION_CLASSES


def _legacy(cert):
    """A copy of cert with the fields that reports carried before they were
    dropped as unread: kind, each solved piece's value and a validity
    proof's top-level value (the piece max, as its multipliers bound it),
    every row's tag, and each violation's f (here the coordinates where
    its point is 0 or 1), or for a graph-rank certificate its graph's n
    and provenance (a family tag and one block of every node)."""
    out = copy.deepcopy(cert)
    if cert["type"] == "graph-rank":
        g = out["graph"]
        g.update(n=len(g["nodes"]), family_tag="W:10:2", blocks=[g["nodes"]], block_tags=[None])
        return out
    h = _system(cert["system"])
    for r in out["system"]["rows"]:
        r["tag"] = "other"
    for key in ("row", "separating"):
        if key in out:
            out[key]["tag"] = key
    if cert["type"] != "ineq-rank":
        holds = cert["valid"] if "valid" in cert else cert["member"]
        out["kind"] = "validity-proof" if holds else "violating-point"
    if "row" in cert:           # a non-member's records carried no value
        c = LinearInequality.from_json(cert["row"]).coeffs
        f = cert["f"] if "f" in cert else cert["witness_f"]
        values = [_piece_bound(h, dict(zip(map(int, f), p["z"])), p["y"], c)
                  if p["status"] == "optimal" else None for p in cert.get("pieces", ())]
        for p, value in zip(out.get("pieces", ()), values):
            p["value"] = None if value is None else frac_to_str(value)
        if cert["type"] == "disjunctive-validity" and any(v is not None for v in values):
            out["value"] = frac_to_str(max(v for v in values if v is not None))
    for v in out.get("violations", ()):
        v["f"] = [int(u) for u, x in v["point"].items() if Fraction(x) in (0, 1)]
    return out


def test_a_report_with_the_dropped_fields_still_rechecks(tmp_path):
    """Reports written before kind, piece values, row tags, violation f
    and a graph's n and provenance were dropped still recheck, entry for
    entry as the fresh ones."""
    reports = _sweep_reports(tmp_path)
    reports.append({"entries": [{"name": f"non-member {i}", "certificate": cert}
                                for i, (_, cert) in enumerate(_non_member_certificates())]})
    legacy = 0
    for report in reports:
        old = copy.deepcopy(report)
        for e in old["entries"]:
            if e.get("certificate"):
                e["certificate"] = _legacy(e["certificate"])
                legacy += 1
        fresh, rechecked = recheck_report(report), recheck_report(old)
        assert not fresh.failures and rechecked.to_json() == fresh.to_json()
    assert legacy == 31


def _row_certificate(spec, family, mixed=False):
    g = parse_graph_spec(spec)
    row = (antiweb_constraint(AntiwebId(*g.family[1:])) if family == "antiweb"
           else joined_inequality(join_blocks_of(g)))
    h = with_mixed_rows(qstab(g)) if mixed else qstab(g)
    return json.loads(dumps(disjunctive_rank_inequality(row, h).to_json(row, h)))


def _support(violation):
    return tuple(sorted(int(v) for v, x in violation["point"].items()
                        if Fraction(x) not in (0, 1)))


def _inflated(cert, extra):
    """rank + 1 with extra appended to the witness, each piece record
    duplicated with it at 0 and at 1: the witness pieces still check."""
    out = copy.deepcopy(cert)
    out["witness_f"].append(extra)
    out["rank"] += 1
    out["pieces"] = [{**p, "z": [*p["z"], z]} for p in cert["pieces"] for z in (0, 1)]
    return out


ROW_RANK_CASES = [("A:8:3", "antiweb"), ("A:11:3", "antiweb"), ("A:11:4", "antiweb"),
                  ("join:A:5:2,A:5:2", "joined")]


@pytest.mark.parametrize("spec, family", ROW_RANK_CASES)
def test_every_mutation_of_a_row_rank_bound_fails(spec, family):
    """Over QSTAB the point bound equals the rank, so the certificate has
    no coverage step.  Raising or lowering the rank fails, with or without
    the witness extended to match (the inflated rank fails at the bound's
    arithmetic once the bound is raised with it, and at the coverage
    while it is not).  So do a bound raised by one, a bound point moved
    out of the system, a row of mixed signs added to the system, and a
    bound lowered below the rank, which the empty violation list cannot
    cover."""
    cert = _row_certificate(spec, family)
    rank, bound = cert["rank"], cert["bound"]
    assert recheck_certificate(cert)[0] and bound == rank >= 2 and cert["bound_point"]
    for delta in (1, -1):
        assert not recheck_certificate({**cert, "rank": rank + delta})[0]
    h = _system(cert["system"])
    inflated = _inflated(cert, next(v for v in h.index if v not in cert["witness_f"]))
    ok, detail = recheck_certificate(inflated)
    assert not ok and detail.startswith("coverage failed")
    ok, detail = recheck_certificate({**inflated, "bound": bound + 1})
    assert not ok and detail == (f"bound {bound + 1} failed: c.u less its {bound} largest "
                                 "terms is not above the row's right-hand side")
    shortened = {**cert, "rank": rank - 1, "witness_f": cert["witness_f"][:-1]}
    assert not recheck_certificate(shortened)[0]

    assert recheck_certificate({**cert, "bound": bound + 1}) == (
        False, f"bound {bound + 1} not in 0..{rank}")
    ok, detail = recheck_certificate({**cert, "bound": bound - 1})
    assert not ok and detail.startswith("coverage failed")
    outside = copy.deepcopy(cert)
    v = next(iter(outside["bound_point"]))
    outside["bound_point"][v] = str(Fraction(outside["bound_point"][v]) + 1)
    assert recheck_certificate(outside) == (False, f"bound {bound} failed: point outside "
                                                   "the system")
    mixed = copy.deepcopy(cert)
    mixed["system"]["rows"].append({"coeffs": {h.index[0]: "1", h.index[1]: "-1"},
                                    "rhs": "1"})
    assert recheck_certificate(mixed) == (False, f"bound {bound} failed: a row of the "
                                                 "system has coefficients of both signs")


@pytest.mark.parametrize("spec, family", ROW_RANK_CASES)
def test_every_mutation_of_a_row_rank_fails(spec, family):
    """Over a system that is not down-closed (`with_mixed_rows`) the bound
    is 0 and the lower bound rests on the violations.  Raising or lowering the
    rank fails, with or without the witness extended to match.  Dropping
    the violations of one fractional support fails exactly when the rest
    leave some F of size rank-1 unrefuted (by the brute-force oracle), and
    for some support it does.  On an anchored row, a point fractional on
    the anchor in place of each point that is not fails the coverage
    step."""
    cert = _row_certificate(spec, family, mixed=True)
    h = _system(cert["system"])
    anchor = h.index[0] if rotation_invariant(LinearInequality.from_json(cert["row"]), h) \
        else None
    assert recheck_certificate(cert)[0] and (anchor is not None) == (family == "antiweb")
    assert cert["bound"] == 0 and "bound_point" not in cert
    assert cert["rank"] == _row_certificate(spec, family)["rank"]
    rank = cert["rank"]
    assert rank >= 2
    for delta in (1, -1):
        assert not recheck_certificate({**cert, "rank": rank + delta})[0]
    ok, detail = recheck_certificate(
        _inflated(cert, next(v for v in h.index if v not in cert["witness_f"])))
    assert not ok and detail.startswith("coverage failed")
    shortened = {**cert, "rank": rank - 1, "witness_f": cert["witness_f"][:-1]}
    assert not recheck_certificate(shortened)[0]

    g = Graph(h.index, [])
    failed = 0
    for support in {_support(v) for v in cert["violations"]}:
        kept = [v for v in cert["violations"] if _support(v) != support]
        ok, detail = recheck_certificate({**cert, "violations": kept})
        pool = [("support", _support(v)) for v in kept]
        assert ok == pool_refutes_all(g, pool, rank - 1, anchor)
        assert ok or detail.startswith("coverage failed")
        failed += not ok
    assert failed

    if anchor is not None:
        fractional = cert["violations"][0]["point"]
        assert 0 < Fraction(fractional[str(anchor)]) < 1
        swapped = [v if anchor in _support(v) else {"f": [], "point": fractional}
                   for v in cert["violations"]]
        ok, detail = recheck_certificate({**cert, "violations": swapped})
        assert not ok and detail.startswith("coverage failed: F=[1]")


def _graph_certificate(spec, drop=()):
    g = parse_graph_spec(spec)
    g = delete_nodes(g, drop) if drop else g
    return g, json.loads(dumps(disjunctive_rank_graph(g).to_json(g)))


def test_an_inflated_graph_rank_with_an_empty_pool_fails(tmp_path, capsys):
    """The `rank graph W:10:2 --cert` certificate with node 3 appended to
    its deletion set, rank 3 and an empty pool: W_10^2 minus {1, 2, 3} is
    still perfect and |F| = rank, so only the lower bound is wrong, and
    `recheck` exits 1 at the coverage step."""
    path = tmp_path / "w102.json"
    assert main(["rank", "graph", "W:10:2", "--cert", str(path)]) == 0
    report = json.loads(path.read_text())
    cert = report["entries"][0]["certificate"]
    assert (cert["rank"], cert["deletion_set"], len(cert["pool"])) == (2, [1, 2], 2)
    cert.update(deletion_set=[1, 2, 3], rank=3, pool=[])
    path.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["recheck", str(path)]) == 1
    assert "coverage failed: F=[1] meets every pool hole" in capsys.readouterr().out


@pytest.mark.parametrize("spec, drop", [("W:10:2", ()), ("W:13:3", ()), ("A:13:4", ()),
                                        ("W:14:3", (4,)), ("W:16:3", (2, 9)),
                                        ("join:C:5,C:7", ())])
def test_every_mutation_of_a_graph_rank_fails(spec, drop):
    """Raising or lowering the rank fails, with or without the deletion
    set changed to match.  Dropping one pool hole fails exactly when the
    rest leave some F of size rank-1 unrefuted (by the brute-force
    oracle, over the F holding node 1 when rotation is an automorphism),
    and for some hole it does."""
    g, cert = _graph_certificate(spec, drop)
    anchor = g.nodes[0] if is_circulant(g) else None
    assert recheck_certificate(cert)[0] and (anchor is not None) == (spec[0] in "WA" and not drop)
    rank, f = cert["rank"], cert["deletion_set"]
    assert rank >= 2
    for delta in (1, -1):
        assert not recheck_certificate({**cert, "rank": rank + delta})[0]
    extra = next(v for v in g.nodes if v not in f)
    ok, detail = recheck_certificate({**cert, "rank": rank + 1, "deletion_set": [*f, extra]})
    assert not ok and detail.startswith("coverage failed")
    ok, detail = recheck_certificate({**cert, "rank": rank - 1, "deletion_set": f[:-1]})
    assert not ok and detail.startswith("perfection failed")

    failed = 0
    for i in range(len(cert["pool"])):
        kept = cert["pool"][:i] + cert["pool"][i + 1:]
        ok, detail = recheck_certificate({**cert, "pool": kept})
        pool = [(c["type"], c["nodes"]) for c in kept]
        assert ok == pool_refutes_all(g, pool, rank - 1, anchor)
        assert ok or detail.startswith("coverage failed")
        failed += not ok
    assert failed


def test_a_past_deadline_stops_the_coverage_search():
    cert = _row_certificate("A:8:3", "antiweb", mixed=True)
    assert cert["bound"] < cert["rank"]
    with limits(deadline=time.monotonic() - 1):
        with pytest.raises(SearchTimeout):
            hitting_set([1, 2], 1)
        with pytest.raises(SearchTimeout):
            recheck_certificate(cert)


def test_a_violated_row_must_lie_in_the_system():
    """The row is tested in integers on the point cleared over the
    system's index, so a row naming another coordinate is rejected."""
    h = HPolytope((1,), [nonneg_row(1), LinearInequality({1: 1}, 1)])
    with pytest.raises(CertificateError, match="the row leaves the system"):
        check_point(h, [], {"1": "1/2", "2": "1"}, LinearInequality({1: 1, 2: 1}, 1))


def test_a_coordinate_above_one_is_not_zero_one():
    """On 0 <= x_1 <= 2, 0 <= x_2 <= 1 the row x_1 <= 1 has rank 1 (F =
    {1}).  Claimed rank 2 with witness {1, 2}, its pieces check; the one
    violation (2, 0) is 0/1 at 2 only, so it refutes {2} but not {1}, and
    the coverage step must find F = {1}."""
    system = {"index": [1, 2], "rows": [{"coeffs": {"1": "-1"}, "rhs": "0"},
                                        {"coeffs": {"2": "-1"}, "rhs": "0"},
                                        {"coeffs": {"1": "1"}, "rhs": "2"},
                                        {"coeffs": {"2": "1"}, "rhs": "1"}]}
    cert = {"type": "ineq-rank", "system": system, "row": {"coeffs": {"1": "1"}, "rhs": "1"},
            "rank": 2, "witness_f": [1, 2], "bound": 0,
            "pieces": [{"z": [a, b], "status": "optimal", "y": {}}
                       for a in (0, 1) for b in (0, 1)],
            "violations": [{"f": [2], "point": {"1": "2", "2": "0"}}]}
    assert recheck_certificate(cert) == (
        False, "coverage failed: F=[1] meets the fractional support of every violation")
    cert.update(rank=1, witness_f=[1], pieces=[{"z": [z], "status": "optimal", "y": {}}
                                               for z in (0, 1)])
    assert recheck_certificate(cert)[0]


def test_a_violating_point_of_a_validity_certificate_is_checked_by_arithmetic():
    # the rank row of W_8^2 is not valid for P_F(QSTAB) with F = {1}: the
    # certificate's point violates it, and moved to 0 it no longer does
    g = web(8, 2)
    h, row = qstab(g), rank_constraint(g)
    ok, cert = disjunctive_valid(row, h, (1,))
    assert not ok
    cert = json.loads(dumps({**cert, "type": "disjunctive-validity", "system": h.to_json(),
                             "row": row.to_json(), "valid": ok}))
    assert recheck_certificate(cert) == (True, "violating point, pure arithmetic")
    cert["point"] = dict.fromkeys(cert["point"], "0")
    assert recheck_certificate(cert) == (False, "point satisfies the row")


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


def test_a_doctored_copy_of_a_shared_system_is_parsed_on_its_own(tmp_path, capsys):
    """`recheck` parses each distinct system once: equal content shares
    one parse, and a copy with one row tightened, so that its point falls
    outside, gets its own and fails, before or after the intact one."""
    _, report = _rdfar_report(tmp_path, 8)
    good = next(e for e in report["entries"]
                if e.get("certificate", {}).get("type") == "membership")
    cert = good["certificate"]
    assert _system(cert["system"]) is _system(copy.deepcopy(cert["system"]))
    bad = copy.deepcopy(good)
    system = bad["certificate"]["system"]
    i = next(i for i, r in enumerate(system["rows"]) if r["rhs"] == "1"
             and any(Fraction(cert["point"][v]) for v in r["coeffs"]))
    system["rows"][i]["rhs"] = "0"
    bad["name"] = "doctored"
    for entries in ([good, bad], [bad, good], [good, bad]):
        rep = recheck_report({"entries": entries})
        assert [e.status for e in rep.entries] == ["fail" if e is bad else "pass"
                                                   for e in entries]
        assert rep.failures[0].detail == "piece point outside the relaxation"


def test_an_unhashable_system_value_is_a_malformed_certificate():
    cert = {"type": "membership", "member": True, "f": [], "point": {"1": "0"},
            "multipliers": [{"z": [], "lambda": "1", "point": {"1": "0"}}],
            "system": {"index": [1], "rows": [{"coeffs": {"1": "-1"}, "rhs": "0"},
                                             {"coeffs": {"1": "1"}, "rhs": ["1"]}]}}
    # the reader names the value, as it does a list at a point, for a
    # right-hand side and for a coefficient alike
    for where in ("rhs", "coeff"):
        [entry] = recheck_report({"entries": [{"name": where, "certificate": cert}]}).entries
        assert entry.status == "fail"
        assert entry.detail.startswith("malformed certificate: not a rational: ['1']")
        cert["system"]["rows"][1].update(coeffs={"1": ["1"]}, rhs="1")
    cert["system"]["rows"][1]["coeffs"] = {"1": "1"}
    assert recheck_certificate(cert) == (True, "convex combination re-assembled exactly")


def test_a_system_value_equal_to_a_cached_one_in_another_type_is_parsed_on_its_own():
    """True == 1, so a system whose rhs is true must not reuse the parse of
    one whose rhs is 1: in either order the intact certificate passes and
    the doctored one fails with the reader's message."""
    def membership(rhs):
        return {"type": "membership", "member": True, "f": [], "point": {"1": "0"},
                "multipliers": [{"z": [], "lambda": "1", "point": {"1": "0"}}],
                "system": {"index": [1], "rows": [{"coeffs": {"1": "-1"}, "rhs": "0"},
                                                 {"coeffs": {"1": "1"}, "rhs": rhs}]}}
    intact = {"name": "intact", "certificate": membership(1)}
    doctored = {"name": "doctored", "certificate": membership(True)}
    for entries in ([intact, doctored], [doctored, intact]):
        rep = recheck_report({"entries": entries})
        assert [(e.status, e.detail) for e in rep.entries] == [
            ("pass", "convex combination re-assembled exactly") if e is intact else
            ("fail", "malformed certificate: " + _not_rational(True)) for e in entries]


def test_recheck_imports_no_solver():
    tree = ast.parse((Path(webrank.__file__).parent / "recheck.py").read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for a in node.names}
    assert not {m for m in imported if m and m.split(".")[-1] in ("simplex", "liftproject")}


# the reader's inputs: values Fraction parses, reduces or rejects, strings and not
RATIONALS = ["2/4", "-0", "+3", " 1/3", "1_0", "1.5", "1e-1", "1/0", "3/-2", "", "abc",
             0.5, True, None, []]


def _rational_sites(tmp_path):
    """(name, certificate, path) for each place recheck reads a rational:
    a member's point, lambda and piece point, a validity proof's piece
    multiplier, a row rank's bound point, violation and piece multiplier,
    a non-member's point, piece multiplier and separating row."""
    _, report = _rdfar_report(tmp_path, 7)
    certs = [e["certificate"] for e in report["entries"] if "certificate" in e]
    member = next(c for c in certs if c["type"] == "membership")
    proof = next(c for c in certs if c["type"] == "disjunctive-validity")
    bounded = next(c for c in certs if c["type"] == "ineq-rank")
    covered = _row_certificate("A:8:3", "antiweb", mixed=True)
    _, non_member = next(_non_member_certificates())
    bounded_y = next(i for i, p in enumerate(non_member["pieces"]) if p["status"] == "bounded")
    yield "member point", member, ("point", "1")
    yield "member lambda", member, ("multipliers", 0, "lambda")
    yield "member piece point", member, ("multipliers", 0, "point", "1")
    yield "validity y", proof, ("pieces", 0, "y", next(iter(proof["pieces"][0]["y"])))
    yield "bound point", bounded, ("bound_point", "1")
    yield "violation point", covered, ("violations", 0, "point", "1")
    yield "row-rank y", covered, ("pieces", 0, "y", next(iter(covered["pieces"][0]["y"])))
    yield "non-member point", non_member, ("point", "1")
    yield "non-member y", non_member, ("pieces", bounded_y, "y",
                                       next(iter(non_member["pieces"][bounded_y]["y"])))
    yield "separating rhs", non_member, ("separating", "rhs")


def _doctored_detail(cert, path, value):
    """The recheck entry of cert with the value at path replaced."""
    cert = copy.deepcopy(cert)
    node = cert
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    [entry] = recheck_report({"entries": [{"name": "doctored", "certificate": cert}]}).entries
    return f"{entry.status}: {entry.detail}"


def _not_rational(value):
    """The one message of every value `read_rational` rejects."""
    return (f'not a rational: {value!r:.40} (an int, or "p" or "p/q" in ASCII digits, p maybe'
            ' after "-", q nonzero, at most 4300 digits each)')


def test_doctored_rationals_keep_their_recheck_details(tmp_path):
    """Each reader input at each place recheck reads a rational gives a
    pinned recheck entry, the same on every Python."""
    digest, sites = hashlib.sha256(), list(_rational_sites(tmp_path))
    assert len(sites) == 10
    for name, cert, path in sites:
        for value in RATIONALS:
            digest.update(f"{name} {value!r} {_doctored_detail(cert, path, value)}\n".encode())
    for value in ("1/0", "1_0"):
        assert _doctored_detail(sites[1][1], sites[1][2], value) == \
            "fail: malformed certificate: " + _not_rational(value)
    assert _doctored_detail(sites[3][1], sites[3][2], None) == \
        "fail: malformed certificate: " + _not_rational(None)
    assert digest.hexdigest() == \
        "eb713ba214e9640192be5491ae02c416db3cc4bb50436fc3f4ef23c73c7f7ad4"


def _outcome(check, *args):
    """What check(*args) gives: ("ok", its value), or the type and the
    message of what it raises."""
    try:
        return "ok", check(*args)
    except Exception as exc:        # the verdict and the message are what is compared
        return type(exc).__name__, str(exc)


def test_the_reader_takes_the_report_grammar_and_nothing_else():
    """`read_rational` reads an int, a Fraction and an ASCII "p" or "p/q"
    as written; every other reader input, and each string at the edge of
    the grammar, raises its one ValueError."""
    accepted = {"2/4": (2, 4), "-0": (0, 1), "007/010": (7, 10), "-12/8": (-12, 8),
                "9" * 4300: (10 ** 4300 - 1, 1), "-1/" + "9" * 4300: (-1, 10 ** 4300 - 1)}
    for value, pair in accepted.items():
        assert read_rational(value) == pair
    for value in (3, -4, 0, Fraction(-5, 6)):
        assert read_rational(value) == value.as_integer_ratio()
    edges = ["1/00", "1/", "/2", "-", "-/2", "--1", "1/2/3", "1 ", "²", "١/2", "3/٢",
             "1" * 5000, "1/" + "1" * 5000, "-" + "1" * 4301, False, 2.0, Fraction]
    for value in RATIONALS + edges:
        if not (type(value) is str and value in accepted):
            assert _outcome(read_rational, value) == ("ValueError", _not_rational(value))


def _not_label(value):
    """The one message of every value `read_label` rejects."""
    return (f'not a label: {value!r:.40} (an int, or "p" in ASCII digits, maybe after "-",'
            ' at most 4300 digits)')


def _label_sites(tmp_path):
    """(name, certificate, path) for each place recheck reads a label: the
    path ends at a key of a dict, or at a position in a list of labels."""
    _, report = _rdfar_report(tmp_path, 7)
    certs = [e["certificate"] for e in report["entries"] if "certificate" in e]
    h = qstab(antiweb(11, 4))
    x = dict(zip(h.index, map(Fraction, "1/4 1/6 5/12 1/6 1/2 1/6 1/4 1/12 1/2 1/12 1/12".split())))
    ok, cert = disjunctive_member(x, h, (5, 6, 8))
    member = json.loads(dumps({**cert, "type": "membership", "member": ok, "system": h.to_json(),
                               "point": x}))
    proof = next(c for c in certs if c["type"] == "disjunctive-validity" and c["valid"])
    bounded = next(c for c in certs if c["type"] == "ineq-rank" and c["bound"])
    covered = _row_certificate("A:8:3", "antiweb", mixed=True)
    _, graph = _graph_certificate("W:10:2")
    yield "member point", member, ("point", next(iter(member["point"])))
    yield "member piece point", member, ("multipliers", 0, "point",
                                         next(iter(member["multipliers"][0]["point"])))
    yield "member f", member, ("f", 0)
    yield "system index", member, ("system", "index", 0)
    yield "system row coeffs", member, ("system", "rows", -1, "coeffs",
                                        next(iter(member["system"]["rows"][-1]["coeffs"])))
    yield "row coeffs", proof, ("row", "coeffs", next(iter(proof["row"]["coeffs"])))
    yield "validity f", proof, ("f", 0)
    yield "validity y", proof, ("pieces", 0, "y", next(iter(proof["pieces"][0]["y"])))
    yield "bound point", bounded, ("bound_point", "1")
    yield "witness_f", covered, ("witness_f", 0)
    yield "violation point", covered, ("violations", 0, "point", "1")
    yield "deletion_set", graph, ("deletion_set", 0)
    yield "pool nodes", graph, ("pool", 0, "nodes", 0)


def _relabelled(cert, path, form):
    """The recheck entry of cert with the label at path written as form."""
    cert = copy.deepcopy(cert)
    node = cert
    for key in path[:-1]:
        node = node[key]
    if isinstance(node, dict):
        node[form] = node.pop(path[-1])
    else:
        node[path[-1]] = form
    [entry] = recheck_report({"entries": [{"name": "doctored", "certificate": cert}]}).entries
    return entry.status, entry.detail


def test_a_doctored_label_is_a_malformed_certificate(tmp_path):
    """Every form of a label that Python's int reads (as the label, or as
    ten times it) but the report grammar does not hold fails its
    certificate with the reader's one message, at each place recheck reads
    a label; the certificates pass as written."""
    arabic = {ord(d): chr(0x660 + int(d)) for d in "0123456789"}
    sites = list(_label_sites(tmp_path))
    assert len(sites) == 13
    for name, cert, path in sites:
        assert recheck_certificate(cert)[0], name
        node = cert
        for key in path[:-1]:
            node = node[key]
        label = int(path[-1]) if isinstance(node, dict) else node[path[-1]]
        forms = [f" {label}", f"+{label}", f"{label}_0", str(label).translate(arabic),
                 f"{label}\n"]
        if isinstance(node, list):
            forms += [float(label)] + [True] * (label == 1)
        for form in forms:
            assert _relabelled(cert, path, form) == (
                "fail", "malformed certificate: " + _not_label(form)), (name, form)
    for value, label in (("007", 7), ("-3", -3), (5, 5), ("9" * 4300, 10 ** 4300 - 1)):
        assert read_label(value) == label
    for value in ("", "-", "1/2", "1 ", "1" * 4301, "²", None, False, 1.0, Fraction(1)):
        assert _outcome(read_label, value) == ("ValueError", _not_label(value))


def test_a_doctored_graph_label_is_a_malformed_certificate():
    """A node or an edge end of a graph certificate written as a float,
    with a space or a plus before it, or (for 1) as true fails with the
    reader's message; the certificates pass as written."""
    _, cert = _graph_certificate("W:10:2")
    _, joined = _graph_certificate("join:C:5,C:7")
    sites = [(cert, ("graph", "nodes", 0)), (cert, ("graph", "edges", 0, 0)),
             (cert, ("graph", "edges", 0, 1)), (joined, ("graph", "nodes", 5))]
    for c, path in sites:
        assert recheck_certificate(c)[0]
        node = c
        for key in path[:-1]:
            node = node[key]
        label = node[path[-1]]
        for form in [float(label), f" {label}", f"+{label}"] + [True] * (label == 1):
            assert _relabelled(c, path, form) == (
                "fail", "malformed certificate: " + _not_label(form)), (path, form)


def _misshapen(tmp_path):
    """(name, certificate, path, form) for each value of the wrong shape
    that a reader taking any iterable or any number would accept: a list
    of one-digit labels written as a string of its digits, a rank written
    2.0 and a piece pattern written with false for 0."""
    _, report = _rdfar_report(tmp_path, 5)
    proof = next(e["certificate"] for e in report["entries"]
                 if (e.get("certificate") or {}).get("type") == "disjunctive-validity")
    _, graph = _graph_certificate("W:8:2")
    row = _row_certificate("A:8:3", "antiweb")
    assert (proof["f"], proof["system"]["index"]) == ([5], [1, 2, 3, 4, 5])
    assert (graph["deletion_set"], graph["pool"][0]["nodes"], graph["rank"]) == \
        ([1, 2], [1, 2, 4, 5, 7], 2)
    assert (row["witness_f"], row["rank"], row["pieces"][0]["z"]) == ([1, 2], 2, [0, 0])
    yield "witness_f", row, ("witness_f",), "12"
    yield "deletion_set", graph, ("deletion_set",), "12"
    yield "pool nodes", graph, ("pool", 0, "nodes"), "12457"
    yield "edges", graph, ("graph", "edges"), [f"{u}{v}" for u, v in graph["graph"]["edges"]]
    yield "validity f", proof, ("f",), "5"
    yield "system index", proof, ("system", "index"), "12345"
    yield "graph rank", graph, ("rank",), 2.0
    yield "row rank", row, ("rank",), 2.0
    yield "piece z", row, ("pieces", 0, "z"), [False, False]


def test_a_value_of_the_wrong_shape_is_a_malformed_certificate(tmp_path):
    """A list of labels is a JSON list and never a string, a rank is an
    integer and a piece pattern holds integers: each misshapen form fails
    as malformed, with its reader's message, where reading a string one
    digit at a time, or comparing 2.0 == 2 and false == 0, would pass."""
    sites = list(_misshapen(tmp_path))
    assert len(sites) == 9
    for name, cert, path, form in sites:
        assert recheck_certificate(cert)[0], name
        shown = form[0] if type(form) is list else form
        want = (f"not a list of labels: {shown!r:.40}" if type(shown) is str
                else f"not an integer >= 0: {shown!r:.40}")
        assert _doctored_detail(cert, path, form) == "fail: malformed certificate: " + want, name


@functools.cache
def _antiweb_row_rank(n, k):
    return disjunctive_rank_inequality(antiweb_constraint(AntiwebId(n, k)),
                                       qstab(antiweb(n, k)))


@st.composite
def antiweb_answers(draw):
    """(h, f, answer, c, rng) on QSTAB of an antiweb with n <= 11: the
    witness pieces of the antiweb row's rank; or, with every row of QSTAB
    scaled by 1, 1/2 or 2/3, the membership answer for a point of [0,
    1/2]^n (a member's {"point", "multipliers"}, or a non-member's
    {"pieces"} with c its separating row) or, for a row c of small
    rational coefficients, the piece records {"pieces"} of a validity
    proof, each piece solved by `piece_lp_max` whether or not the row
    holds on it."""
    n = draw(st.integers(4, 11))
    k = draw(st.integers(2, n // 2))
    h, rng = qstab(antiweb(n, k)), draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(("member", "valid", "rank")))
    if kind == "rank":
        res = _antiweb_row_rank(n, k)
        return h, res.witness_f, {"pieces": res.pieces}, dict.fromkeys(h.index, 1), rng
    scale = draw(st.sampled_from((1, Fraction(1, 2), Fraction(2, 3))))
    h = HPolytope(h.index, [LinearInequality({v: a * scale for v, a in r.coeffs.items()},
                                             r.rhs * scale) for r in h.rows])
    f = tuple(sorted(draw(st.lists(st.sampled_from(h.index), min_size=1, max_size=3,
                                   unique=True))))
    if kind == "member":
        x = {v: Fraction(draw(st.integers(0, 6)), 12) for v in h.index}
        member, cert = disjunctive_member(x, h, f)
        if member:
            return h, f, {"point": x, "multipliers": cert["multipliers"]}, None, rng
        return h, f, {"pieces": cert["pieces"]}, cert["separating"]["coeffs"], rng
    row = LinearInequality({v: Fraction(draw(st.integers(-1, 3)), draw(st.integers(1, 3)))
                            for v in h.index}, draw(st.integers(0, 4)))
    pieces = []
    for z in product((0, 1), repeat=len(f)):
        out = piece_lp_max(h, row.coeffs, dict(zip(f, z)))
        pieces.append({"z": z, "status": out.status, "y": out.duals})
    return h, f, {"pieces": pieces}, row.coeffs, rng


def _moved(point, rng):
    """A copy of the point with one coordinate moved up or down by 1/L,
    L the lcm of the point's denominators."""
    v = rng.choice(list(point))
    step = Fraction(1, math.lcm(*(Fraction(q).denominator for q in point.values())))
    return {**point, v: str(Fraction(point[v]) + rng.choice((step, -step)))}


def _doctored_members(answer, rng):
    """Copies of a member's answer with one lambda scaled, one point
    coordinate (of x or of a piece point) moved by 1/L, or one convex
    multiplier dropped."""
    mults = answer["multipliers"]
    yield {**answer, "point": _moved(answer["point"], rng)}
    for j, m in enumerate(mults):
        for scale in (2, Fraction(1, 2), Fraction(3, 2)):
            yield {**answer, "multipliers": [*mults[:j], {**m, "lambda": str(
                Fraction(m["lambda"]) * scale)}, *mults[j + 1:]]}
        yield {**answer, "multipliers": [*mults[:j], {**m, "point": _moved(m["point"], rng)},
                                         *mults[j + 1:]]}
        yield {**answer, "multipliers": mults[:j] + mults[j + 1:]}


def _doctored_records(records):
    """Copies of each piece record with one multiplier y halved, negated
    or dropped."""
    for rec in records:
        for i, yi in rec["y"].items():
            for scale in (Fraction(1, 2), -1):
                yield {**rec, "y": {**rec["y"], i: str(Fraction(yi) * scale)}}
            yield {**rec, "y": {j: yj for j, yj in rec["y"].items() if j != i}}


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(antiweb_answers())
def test_integer_checks_agree_with_the_fraction_oracles(case):
    """`check_member` and `_piece_bound` give the verdict and the message
    of their Fraction oracles on the certificates the oracles of P_F(h)
    build, in memory and as JSON, and on doctored copies of them."""
    h, f, answer, c, rng = case
    as_json = json.loads(dumps(answer))
    if "multipliers" in answer:
        for cert in [answer, as_json, *_doctored_members(as_json, rng)]:
            x, mults = cert["point"], cert["multipliers"]
            got = _outcome(check_member, h, f, parse_point(x), mults)
            assert got == _outcome(check_member_by_fractions, h, f,
                                   {int(v): Fraction(q) for v, q in x.items()}, mults)
            assert cert is not answer or got == ("ok", None)
        return
    c = {int(v): Fraction(q) for v, q in c.items()}
    for rec in [*answer["pieces"], *as_json["pieces"], *_doctored_records(as_json["pieces"])]:
        fixing, objective = dict(zip(f, rec["z"])), {} if rec["status"] == "infeasible" else c
        assert _outcome(_piece_bound, h, fixing, rec["y"], objective) == \
            _outcome(piece_bound_by_fractions, h, fixing, rec["y"], objective)
