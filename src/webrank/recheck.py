"""Independent re-verification of archived certificates.

Every FAIL or PASS a suite emits is backed by a machine-checkable
certificate; `recheck` re-validates them through different code paths:
LP values are re-solved with pure Bland pivoting (a different decision
path than the default hybrid rule), holes are re-validated by direct
adjacency counting, perfection attestations re-run the odd-hole search
in reversed scan order, and point/multiplier certificates are checked
by plain rational arithmetic with no LP at all.
"""

from __future__ import annotations

from fractions import Fraction

from .graphs import (
    complement,
    delete_nodes,
    from_json_dict,
    is_odd_hole,
    is_perfect,
)
from .liftproject import piece_lp_max
from .polyhedra import HPolytope, LinearInequality
from .reporting import Report


def _point(d: dict) -> dict:
    return {int(k): Fraction(v) for k, v in d.items()}


def _system(d: dict) -> HPolytope:
    return HPolytope(tuple(d["index"]),
                     [LinearInequality.from_json(r) for r in d["rows"]])


def recheck_certificate(cert: dict):
    """(ok, detail) for one certificate dict."""
    kind = cert.get("type")
    if kind == "graph-rank":
        oks = [recheck_certificate(cert["perfection"])[0]]
        oks += [recheck_certificate(c)[0] for c in cert.get("pool", [])]
        oks.append(len(cert["deletion_set"]) == cert["rank"])
        return all(oks), f"perfection + {len(cert.get('pool', []))} pool certs"
    if kind == "perfection":
        g = from_json_dict(cert["graph"])
        f = tuple(cert["deletion_set"])
        gg = delete_nodes(g, f) if f else g
        return is_perfect(gg, reverse=True), "reversed-order odd hole search"
    if kind == "odd-hole":
        g = from_json_dict(cert["graph"])
        return is_odd_hole(g, cert["nodes"]), "adjacency re-count"
    if kind == "odd-antihole":
        g = from_json_dict(cert["graph"])
        return is_odd_hole(complement(g), cert["nodes"]), "adjacency re-count"
    if kind == "ineq-rank":
        h = _system(cert["system"])
        row = LinearInequality.from_json(cert["row"])
        ok = _revalidate_pieces(h, row, cert["witness_f"], None)
        for v in cert.get("violations", []):
            ok = ok and recheck_certificate(v)[0]
        ok = ok and len(cert["witness_f"]) == cert["rank"]
        return ok, f"witness re-solve + {len(cert.get('violations', []))} violations"
    if kind == "disjunctive-validity":
        h = _system(cert["system"])
        row = LinearInequality.from_json(cert["row"])
        stored = {tuple(p["z"]): p for p in cert.get("pieces", [])}
        ok = _revalidate_pieces(h, row, cert.get("f", []), stored) == cert["valid"]
        return ok, "piece LPs re-solved with Bland's rule"
    if kind == "violating-point":
        h = _system(cert["system"])
        row = LinearInequality.from_json(cert["row"])
        pt = _point(cert["point"])
        ok = h.contains(pt)
        for v in cert.get("f", []):
            ok = ok and pt.get(int(v), Fraction(0)) in (0, 1)
        ok = ok and row.evaluate(pt) > row.rhs
        return ok, "pure arithmetic"
    if kind == "membership":
        return _recheck_membership(cert)
    return False, f"unknown certificate type {kind!r}"


def _revalidate_pieces(h, row, f, stored):
    """All-pieces validity via fresh Bland-rule LPs; also cross-checks the
    stored piece values when given."""
    from itertools import product
    f = [int(v) for v in f]
    for z in product((0, 1), repeat=len(f)):
        out = piece_lp_max(h, row.coeffs, dict(zip(f, z)), pivot_rule="bland")
        if stored is not None and z in stored:
            rec = stored[z]
            if rec["status"] != out.status:
                return False
            if out.status == "optimal" and Fraction(rec["value"]) != out.value:
                return False
        if out.status == "optimal" and out.value > row.rhs:
            return False
    return True


def _recheck_membership(cert):
    h = _system(cert["system"])
    pt = _point(cert["point"])
    f = [int(v) for v in cert.get("f", [])]
    if cert.get("member"):
        mults = cert.get("multipliers", [])
        total = Fraction(0)
        combo = {v: Fraction(0) for v in h.index}
        for m in mults:
            lam = Fraction(m["lambda"])
            if lam <= 0:
                return False, "nonpositive multiplier"
            q = _point(m["point"])
            if not h.contains(q):
                return False, "piece point outside the relaxation"
            for v, z in zip(f, m["z"]):
                if q.get(v, Fraction(0)) != z:
                    return False, "piece point violates its 0/1 pattern"
            total += lam
            for v in h.index:
                combo[v] += lam * q.get(v, Fraction(0))
        ok = total == 1 and all(combo[v] == pt.get(v, Fraction(0)) for v in h.index)
        return ok, "convex combination re-assembled exactly"
    sep = cert.get("separating")
    if sep is None:
        return False, "non-member certificate lacks a separating row"
    row = LinearInequality.from_json(sep)
    if row.evaluate(pt) <= row.rhs:
        return False, "separating row not violated by the point"
    ok = _revalidate_pieces(h, row, f, None)
    return ok, "separating row valid on every piece (Bland re-solve)"


def recheck_report(report_json: dict) -> Report:
    """Re-verify every certificate embedded in a suite/rank report."""
    rep = Report("recheck", {"source_suite": report_json.get("suite", "?")})
    found = 0
    for e in report_json.get("entries", []):
        cert = e.get("certificate")
        if not cert or not isinstance(cert, dict) or "type" not in cert:
            continue
        found += 1
        ok, detail = recheck_certificate(cert)
        rep.check(f"recheck: {e['name']}", True, ok, detail=detail)
    if found == 0:
        rep.add("no embedded certificates found", "info")
    return rep
