"""Independent re-verification of archived certificates.

Every FAIL or PASS a suite emits is backed by a machine-checkable
certificate; `recheck` re-validates them through different code paths:
LP values are re-solved with pure Bland pivoting (a different decision
path than the default hybrid rule), holes are re-validated by direct
adjacency counting, perfection attestations re-run the odd-hole search
in reversed scan order, and point/multiplier certificates are checked
by plain rational arithmetic with no LP at all.  A failed certificate's
detail names the first step that failed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

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
    """(ok, detail) for one certificate dict; anything else fails."""
    if not isinstance(cert, dict):
        return False, f"certificate {cert!r} is not an object"
    kind = cert.get("type")
    if kind == "graph-rank":
        pool = cert.get("pool", [])
        ok, why = recheck_certificate(cert["perfection"])
        if not ok:
            return False, f"perfection failed: {why}"
        for i, c in enumerate(pool):
            ok, why = recheck_certificate(c)
            if not ok:
                what = c.get("type") if isinstance(c, dict) else "not an object"
                return False, f"pool[{i}] ({what}) failed: {why}"
        if len(cert["deletion_set"]) != cert["rank"]:
            return False, (f"|deletion_set| = {len(cert['deletion_set'])} "
                           f"but rank = {cert['rank']}")
        return True, f"perfection + {len(pool)} pool certs"
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
        violations = cert.get("violations", [])
        bad = _revalidate_pieces(h, row, cert["witness_f"], None)
        if bad is not None:
            return False, f"witness piece z={list(bad)} fails the row"
        for i, v in enumerate(violations):
            ok, why = recheck_certificate(v)
            if not ok:
                return False, f"violations[{i}] failed: {why}"
        if len(cert["witness_f"]) != cert["rank"]:
            return False, (f"|witness_f| = {len(cert['witness_f'])} "
                           f"but rank = {cert['rank']}")
        return True, f"witness re-solve + {len(violations)} violations"
    if kind == "disjunctive-validity":
        h = _system(cert["system"])
        row = LinearInequality.from_json(cert["row"])
        stored = {tuple(p["z"]): p for p in cert.get("pieces", [])}
        valid = _revalidate_pieces(h, row, cert.get("f", []), stored) is None
        return valid == cert["valid"], "piece LPs re-solved with Bland's rule"
    if kind == "violating-point":
        h = _system(cert["system"])
        row = LinearInequality.from_json(cert["row"])
        pt = _point(cert["point"])
        if not h.contains(pt):
            return False, "point outside the system"
        off = [v for v in cert.get("f", []) if pt.get(int(v), Fraction(0)) not in (0, 1)]
        if off:
            return False, f"point not 0/1 at f coordinate {off[0]}"
        if row.evaluate(pt) <= row.rhs:
            return False, "point satisfies the row"
        return True, "pure arithmetic"
    if kind == "membership":
        return _recheck_membership(cert)
    return False, f"unknown certificate type {kind!r}"


def _revalidate_pieces(h, row, f, stored):
    """The first piece z on which the row fails, by fresh Bland-rule LPs,
    or None when it holds on every piece; a piece whose stored record
    (when given) disagrees with the re-solve also fails."""
    f = [int(v) for v in f]
    for z in product((0, 1), repeat=len(f)):
        out = piece_lp_max(h, row.coeffs, dict(zip(f, z)), pivot_rule="bland")
        if stored is not None and z in stored:
            rec = stored[z]
            if rec["status"] != out.status:
                return z
            if out.status == "optimal" and Fraction(rec["value"]) != out.value:
                return z
        if out.status == "optimal" and out.value > row.rhs:
            return z
    return None


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
    ok = _revalidate_pieces(h, row, f, None) is None
    return ok, "separating row valid on every piece (Bland re-solve)"


def recheck_report(report_json: dict) -> Report:
    """Re-verify every certificate embedded in a suite/rank report.

    A report that is not a JSON object with a list of entry objects is
    an input error (ValueError); a certificate that lacks a field or
    holds a value of the wrong shape (a rational that does not parse, a
    number where a list belongs) fails its entry.
    """
    entries = report_json.get("entries", []) if isinstance(report_json, dict) else None
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError("a report is a JSON object with a list of entry objects")
    rep = Report("recheck", {"source_suite": report_json.get("suite", "?")})
    found = 0
    for e in entries:
        cert = e.get("certificate")
        if not cert or not isinstance(cert, dict) or "type" not in cert:
            continue
        found += 1
        try:
            ok, detail = recheck_certificate(cert)
        except KeyError as exc:
            ok, detail = False, f"malformed certificate: no field {exc.args[0]!r}"
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            ok, detail = False, f"malformed certificate: {exc}"
        rep.check(f"recheck: {e.get('name', '?')}", True, ok, detail=detail)
    if found == 0:
        rep.add("no embedded certificates found", "info")
    return rep
