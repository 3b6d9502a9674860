"""Independent re-verification of archived certificates, with no LP built.

The trusted base is the graph reader, chordality test, odd-hole search
and rotation test of `graphs`, the row classes of `polyhedra` and the
`simplex` helpers they run (`_exact`, `_intify`, `_coprime`); no LP is
built.  Neither the simplex, the lift-and-project oracles nor the rank
searches (which import `hitting_set` from here) are imported here, and
the CI grep reads only this module's own imports.  A graph rank is
re-checked by `graphs.is_perfect` (a chordality test of G - F and of its
complement, else its own odd-hole searches, which read no cache of the
rank search), by adjacency counts and by `hitting_set`, every other
claim in integers, one function per claim.  Every rational, label, list
of labels and integer is read once, by `reporting.read_rational`,
`read_label`, `read_labels` and `_natural` (the README's report grammar;
anything else is malformed); each point is cleared to num / L and tested
on the rows' integer form, and sums of multipliers run over the lcm of
their denominators.  `fractions` parses nothing; it builds each piece bound.

A `graph-rank` certificate means what it says through one lemma:
P_F(QSTAB(G)) = STAB(G) exactly when G - F is perfect.  If G - F is
perfect, each nonempty piece x_F = z is QSTAB of an induced subgraph of
G - F, which is integral.  If not, G - F has an odd hole or odd
antihole H (strong perfect graph theorem); the point 1_H/omega(H) lies
in QSTAB(G) and in the piece z = 0, and violates x(H) <= alpha(H), as
|H| = alpha(H) omega(H) + 1.  So a perfect G - F with |F| = rank is the
upper bound, and each pool hole refutes every F that misses it.  The
lower bound is that no F of size rank - 1 meets every pool hole
(`hitting_set`).  When rotation is an automorphism of G
(`graphs.is_circulant`, computed here, as the search's anchoring rule)
the F holding node 1 stand for all: F rotated to hold node 1 misses a
pool hole, so F misses that hole rotated back, an odd hole or antihole
of G as well.

An `ineq-rank` certificate pins both bounds.  Its witness pieces are the
upper bound.  The lower bound starts at its point bound (`check_bound`):
on a down-closed system (a sign test per row, `down_closed`) the bound
point u with any m coordinates set to 0 stays in h and is 0/1 on every F
inside those m, so it lies in P_F(h); when c.u less its m largest terms
c_v u_v exceeds b (`point_bound`), it refutes every F with |F| <= m, and
the rank is at least m + 1.  With the bound equal to the rank that is
the whole lower bound.  Below it, a violating point that is 0/1 on F
lies in P_F(h), so it refutes every F missing its fractional support
(the coordinates where it is not 0 or 1), and the lower bound is that no
F of size rank - 1 meets every such support (`hitting_set`: no LP); the
bound does not help there, as rank - 1 is over its m.  When rotation
along the index maps row and system to themselves
(`polyhedra.rotation_invariant`, the search's anchoring rule), the F
holding index[0] stand for all.  A piece claim (`check_pieces`) rests on
x >= 0, part of what an HPolytope means: with y >= 0 and y.A >= c on the
free coordinates, max c.x over the piece {x : A x <= b, x_F = z} is at
most y.(b - A_F z) + c_F z, so a row is valid on a piece (solved,
"optimal", or not, "bounded") whose bound is <= its right-hand side, and
a piece whose bound is < 0 with c = 0 is empty.  The lift-and-project
oracles run the point, member, separating-row, piece and (at depth 1)
lifted-matrix checks on each certificate they build.  A failed check
raises CertificateError naming the step; an F longer than the piece cap
raises ResourceCapExceeded.
"""

from __future__ import annotations

import pickle
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm

from .graphs import (
    CertificateError,
    ResourceCapExceeded,
    _bits,
    _check_deadline,
    _check_piece_cap,
    complement,
    delete_nodes,
    from_json_dict,
    is_circulant,
    is_odd_hole,
    is_perfect,
)
from .polyhedra import (HPolytope, LinearInequality, clear_denominators, implied_by_nonneg,
                        rotation_invariant)
from .reporting import Report, read_label, read_labels, read_rational


def parse_point(d: dict) -> dict:
    """A point as {int label: (numerator, denominator)} (`read_label`, `read_rational`)."""
    return {read_label(k): read_rational(v) for k, v in d.items()}


def _natural(v) -> int:
    """v, a JSON integer >= 0 (not a bool); anything else raises one ValueError."""
    if type(v) is int and v >= 0:
        return v
    raise ValueError(f"not an integer >= 0: {v!r:.40}")


def _system(d: dict) -> HPolytope:
    """The system of a certificate, parsed once per distinct JSON content
    (a report repeats one system in many certificates).  The key is the
    system's pickle, an exact serialization, so values that compare equal
    but differ in type (true, 1 and 1.0) get parses of their own, and
    every JSON value has a key."""
    return _parsed_system(pickle.dumps(d))


@lru_cache(maxsize=16)
def _parsed_system(key: bytes) -> HPolytope:
    # the key is `_system`'s pickle of a certificate's system; HPolytope is
    # immutable, so every certificate with this content shares the parse
    d = pickle.loads(key)
    index = tuple(read_labels(d["index"]))
    return HPolytope(index, [LinearInequality.from_json(r) for r in d["rows"]])


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CertificateError(message)


def _step(name: str, check, *args):
    """check(*args), a failure's message prefixed with the step's name."""
    try:
        return check(*args)
    except CertificateError as exc:
        raise CertificateError(f"{name} failed: {exc}") from None


def _piece_bound(h: HPolytope, fixing: dict, y: dict, c: dict) -> Fraction:
    """y.(b - A_F z) + c_F z, after checking y >= 0 and y.A >= c on the
    free coordinates; y keyed by row index in h.  In integers, with y = u/Q
    and c = k/D over the lcm of their denominators: QD times the bound is
    D u.(b - A_F z) + Q k_F z, and y.A >= c reads D u.A >= Q k."""
    rows, ys = h.rows, []
    for i, yi in y.items():
        i, (p, q) = read_label(i), read_rational(yi)
        if not (0 <= i < len(rows) and p >= 0):
            raise CertificateError(
                f"multiplier {Fraction(p, q)} on row {i}: negative or no such row")
        ys.append((i, p, q))
    Q = lcm(*(q for _, _, q in ys))
    k, D = clear_denominators({v: a.as_integer_ratio() for v, a in c.items()}, c)
    bound, ya = 0, {}
    for i, p, q in ys:
        u, r = p * (Q // q), rows[i]
        bound += u * r.rhs
        for v, a in r.coeffs.items():
            z = fixing.get(v)
            if z is None:
                ya[v] = ya.get(v, 0) + u * a
            elif z:
                bound -= u * a
    for v in h.index:
        if v not in fixing and ya.get(v, 0) * D < k.get(v, 0) * Q:
            raise CertificateError(f"y.A falls short of the objective at coordinate {v}")
    return Fraction(D * bound + Q * sum(k.get(v, 0) * z for v, z in fixing.items()), Q * D)


def check_pieces(h: HPolytope, row: LinearInequality, f, pieces) -> None:
    """The row is valid on every piece of f, by one record {"z", "status",
    "y"} per 0/1 pattern z: status "optimal" (the piece's max was solved)
    or "bounded" (no max claimed) when y bounds the row on the piece,
    "infeasible" when y proves the piece empty."""
    f = read_labels(f)
    _require(len(set(f)) == len(f), f"f {f} repeats a label")
    _check_piece_cap(f)
    _require(set(f) | set(row.coeffs) <= set(h.index), "f or the row leaves the system")
    records = {tuple(map(_natural, p["z"])): p for p in pieces}
    for z in product((0, 1), repeat=len(f)):
        p = records.get(z, {})
        optimal = p.get("status") in ("optimal", "bounded")
        _require(optimal or p.get("status") == "infeasible", f"no record of piece z={list(z)}")
        bound = _step(f"piece z={list(z)}", _piece_bound, h, dict(zip(f, z)), p["y"],
                      row.coeffs if optimal else {})
        _require(bound <= row.rhs if optimal else bound < 0, f"piece z={list(z)} failed: "
                 + ("bound over the row" if optimal else "not proven empty"))


def check_point(h: HPolytope, f, point: dict, row: LinearInequality) -> dict:
    """The point lies in h, is 0/1 on f and violates the row; returned parsed."""
    pt = parse_point(point)
    num, L = clear_denominators(pt, h.index)
    _require(h.holds(num, L), "point outside the system")
    _require(set(row.coeffs) <= set(h.index), "the row leaves the system")
    for v in read_labels(f):
        n, d = pt.get(v, (0, 1))
        _require(n in (0, d), f"point not 0/1 at f coordinate {v}")
    _require(row.exceeds(num, L), "point satisfies the row")
    return pt


def down_closed(h: HPolytope) -> bool:
    """Every row has only coefficients >= 0, or is one that x >= 0 implies
    (`implied_by_nonneg`): then with x in h, every 0 <= x' <= x is in h.
    Read off each row's integer form, a positive multiple of the row."""
    return all(all(c >= 0 for _, c in key) or implied_by_nonneg((c for _, c in key), rhs)
               for key, rhs in (r.canonical() for r in h.rows))


def point_bound(h: HPolytope, row: LinearInequality, num: dict, L: int) -> int:
    """m + 1 for the largest m <= h.dim with c.u, less its m largest terms
    c_v u_v, above b at u = num / L (in integers); 0 when there is none.
    For u in a down-closed h that bounds the row rank from below: u with
    any m coordinates set to 0 stays in h and violates the row, and it is
    0/1 on every F inside those m, so it lies in P_F(h)."""
    key, rhs = row.canonical()
    terms = dict.fromkeys(h.index, 0)
    terms.update((v, c * num[v]) for v, c in key)
    excess = sum(terms.values()) - rhs * L
    bound = int(excess > 0)
    for m, t in enumerate(sorted(terms.values(), reverse=True), start=1):
        excess -= t
        if excess > 0:
            bound = m + 1
    return bound


def check_bound(h: HPolytope, row: LinearInequality, point: dict, bound: int) -> None:
    """One point refutes every F of size < bound (`point_bound`)."""
    _require(down_closed(h), "a row of the system has coefficients of both signs")
    num, L = clear_denominators(parse_point(point), h.index)
    _require(h.holds(num, L), "point outside the system")
    _require(point_bound(h, row, num, L) >= bound,
             f"c.u less its {bound - 1} largest terms is not above the row's right-hand side")


def check_member(h: HPolytope, f, x: dict, multipliers) -> None:
    """x, a parsed point (`parse_point`), is the convex combination of
    the multipliers' points ({"z", "lambda", "point"} each), each in h and
    equal to its z on f: with lambda = a / b and the point num / L, the
    combination is sum a num (D / bL) over the lcm D of the bL."""
    terms, labels = [], read_labels(f)
    for m in multipliers:
        (a, b), q = read_rational(m["lambda"]), parse_point(m["point"])
        _require(a > 0, "nonpositive multiplier")
        num, L = clear_denominators(q, h.index)
        _require(h.holds(num, L), "piece point outside the relaxation")
        _require(list(map(_natural, m["z"])) == [
            n // d if n in (0, d) else None for n, d in (q.get(v, (0, 1)) for v in labels)],
            "piece point violates its 0/1 pattern")
        terms.append((a, b, b * L, num))
    B, D = lcm(*(t[1] for t in terms)), lcm(*(t[2] for t in terms))
    _require(sum(a * (B // b) for a, b, _, _ in terms) == B, "convex multipliers do not sum to 1")
    xn, xl = clear_denominators(x, h.index)
    w = [(a * (D // bl), num) for a, _, bl, num in terms]
    _require(all(sum(s * num[v] for s, num in w) * xl == xn[v] * D for v in h.index),
             "x is not the convex combination")


def check_separating(row: LinearInequality, x: dict) -> None:
    _require(row.exceeds(*clear_denominators(x, row.coeffs)),
             "separating row not violated by the point")


def check_n_matrix(h: HPolytope, y: list) -> None:
    """Y, an (n+1)x(n+1) grid over (0, *h.index), lies in M(cone(h)) with
    Y_00 = 1: Y is symmetric, Ye_0 = diag(Y), and for each i both Ye_i
    and Y(e_0 - e_i) lie in the cone {(x_0, x) >= 0 : a.x <= b x_0 for
    every row a.x <= b of h}, each column tested in integers with its
    denominators cleared."""
    n = h.dim
    _require(y[0][0] == 1, "Y_00 is not 1")
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            _require(y[i][j] == y[j][i], f"Y is not symmetric at ({i}, {j})")
        _require(y[i][0] == y[i][i], f"Ye_0 = diag(Y) fails at {i}")
    for i in range(1, n + 1):
        for side, col in ((f"Ye_{i}", [y[j][i] for j in range(n + 1)]),
                          (f"Y(e_0 - e_{i})", [y[j][0] - y[j][i] for j in range(n + 1)])):
            num, _ = clear_denominators({j: q.as_integer_ratio() for j, q in enumerate(col)},
                                        range(n + 1))
            _require(min(num.values()) >= 0, f"column {side} has a negative entry")
            x = dict(zip(h.index, (num[j] for j in range(1, n + 1))))
            for k, row in enumerate(h.rows):
                _require(not row.exceeds(x, num[0]), f"column {side} violates row {k} of h")


def _known(nodes: set, labels, where: str) -> None:
    """Every label is one of the graph's nodes."""
    if not nodes.issuperset(labels):
        unknown = [v for v in labels if v not in nodes]
        raise CertificateError(f"{where} names {unknown}, not nodes of the graph")


def _graph_rank(cert):
    g = from_json_dict(cert["graph"])
    hole_in = {"odd-hole": g, "odd-antihole": complement(g)}
    f, pool, rank = read_labels(cert["deletion_set"]), cert["pool"], _natural(cert["rank"])
    nodes = set(g.nodes)
    _known(nodes, f, "deletion_set")
    _require(is_perfect(delete_nodes(g, f) if f else g), "perfection failed: odd hole search")
    masks = []
    for i, c in enumerate(pool):
        _require(isinstance(c, dict) and c.get("type") in hole_in,
                 f"pool[{i}] is not an odd-hole or odd-antihole object")
        hole = read_labels(c["nodes"])
        _known(nodes, hole, f"pool[{i}]")
        _require(is_odd_hole(hole_in[c["type"]], hole),
                 f"pool[{i}] ({c['type']}) failed: adjacency re-count")
        masks.append(sum(1 << g._pos[v] for v in set(hole)))
    _require(len(f) == rank, f"|deletion_set| = {len(f)} but rank = {rank}")
    return f"perfection + {len(pool)} pool holes" + _covered(
        masks, rank, rank > 1 and is_circulant(g), g.nodes, "every pool hole")


def _covered(masks: list, rank: int, anchored: bool, labels, what: str) -> str:
    """The lower bound of a rank: no F of size rank - 1 (holding labels[0]
    when anchored) meets every mask, a set of positions in labels.
    Returns the detail's coverage clause."""
    if not rank:
        return ""
    f = hitting_set(masks, rank - 1, 1 if anchored else 0)
    if f is not None:
        raise CertificateError(f"coverage failed: F={[labels[i] for i in _bits(f)]} meets {what}")
    return f" covering every F of size {rank - 1}" + (f" holding {labels[0]}" if anchored else "")


def hitting_set(masks: list, size: int, seed: int = 0, refute=None):
    """A bitmask F with seed <= F and |F| <= size that meets every mask, or
    None: a branching search on the bits of the first mask F misses.  An
    F that meets every mask goes to refute(F) when given, which returns a
    mask F misses (appended to `masks` and branched on) or None (F is
    accepted).  A child F | bit meets every mask its parent met and the
    one it branched on, so its scan starts one past that mask; masks
    only grow, so the answer of each F is kept (keyed by F alone,
    whatever the start).  Each node checks the deadline.  The scan for
    the first unhit mask and the branch over its bits (lowest first) are
    plain loops, as a graph-rank table visits tens of thousands of nodes."""
    memo = {}

    def rec(f, start):
        if f in memo:
            return memo[f]
        _check_deadline()
        k, n = start, len(masks)
        while k < n and masks[k] & f:
            k += 1
        if k == n:
            if refute is None or (miss := refute(f)) is None:
                memo[f] = f
                return f
            masks.append(miss)
        got = None
        if f.bit_count() < size:
            m = masks[k]
            while m:            # lowest bit first
                low = m & -m
                m ^= low
                if (got := rec(f | low, k + 1)) is not None:
                    break
        memo[f] = got
        return got

    return rec(seed, 0)


def _ineq_rank(cert):
    h, row = _system(cert["system"]), LinearInequality.from_json(cert["row"])
    wf, rank, bound = read_labels(cert["witness_f"]), _natural(cert["rank"]), cert["bound"]
    violations = cert["violations"]
    _step(f"witness F={wf}", check_pieces, h, row, wf, cert["pieces"])
    bit, supports = {v: 1 << i for i, v in enumerate(h.index)}, []
    for i, v in enumerate(violations):
        _require(isinstance(v, dict), f"violations[{i}] is not an object")
        pt = _step(f"violations[{i}]", check_point, h, (), v["point"], row)
        supports.append(sum(bit.get(u, 0) for u, (n, d) in pt.items() if n not in (0, d)))
    _require(len(wf) == rank, f"|witness_f| = {len(wf)} but rank = {rank}")
    _require(type(bound) is int and 0 <= bound <= rank, f"bound {bound!r} not in 0..{rank}")
    if bound:
        _step(f"bound {bound}", check_bound, h, row, cert["bound_point"], bound)
    detail = f"witness pieces + bound {bound} + {len(violations)} violations"
    if bound == rank:
        return detail
    return detail + _covered(supports, rank, rank > 1 and rotation_invariant(row, h),
                             h.index, "the fractional support of every violation")


def _validity(cert):
    h, row = _system(cert["system"]), LinearInequality.from_json(cert["row"])
    if not cert["valid"]:
        check_point(h, cert["f"], cert["point"], row)
        return "violating point, pure arithmetic"
    check_pieces(h, row, cert["f"], cert["pieces"])
    return "row valid on every piece, by its multipliers"


def _membership(cert):
    h, x = _system(cert["system"]), parse_point(cert["point"])
    if cert["member"]:
        check_member(h, cert["f"], x, cert["multipliers"])
        return "convex combination re-assembled exactly"
    row = LinearInequality.from_json(cert["separating"])
    check_separating(row, x)
    check_pieces(h, row, cert["f"], cert["pieces"])
    return "separating row valid on every piece, by its multipliers"


_CHECKS = {"graph-rank": _graph_rank, "ineq-rank": _ineq_rank,
           "disjunctive-validity": _validity, "membership": _membership}


def recheck_certificate(cert: dict):
    """(ok, detail) for one certificate dict; anything else fails."""
    check = _CHECKS.get(cert.get("type")) if isinstance(cert, dict) else None
    if check is None:
        return False, f"certificate {cert!r:.60} is not an object of a known type"
    try:
        return True, check(cert)
    except CertificateError as exc:
        return False, str(exc)


def recheck_report(report_json: dict) -> Report:
    """Re-verify every certificate embedded in a suite/rank report.

    A report that is not a JSON object with a list of entry objects is an
    input error (ValueError), an f over the piece cap a
    ResourceCapExceeded; a certificate that lacks a field or holds a value
    of the wrong shape (a rational that does not parse, a number where a
    list belongs) fails.  Each certificate checks the deadline, and so do
    the searches inside it.
    """
    entries = report_json.get("entries") if isinstance(report_json, dict) else None
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError("a report is a JSON object with a list of entry objects")
    rep = Report("recheck", {"source_suite": report_json.get("suite", "?")})
    found = 0
    for e in entries:
        cert = e.get("certificate")
        if not cert or not isinstance(cert, dict) or "type" not in cert:
            continue
        found += 1
        _check_deadline()
        try:
            ok, detail = recheck_certificate(cert)
        except ResourceCapExceeded:
            raise
        except KeyError as exc:
            ok, detail = False, f"malformed certificate: no field {exc.args[0]!r}"
        except (ValueError, TypeError, AttributeError, ZeroDivisionError) as exc:
            ok, detail = False, f"malformed certificate: {exc}"
        rep.check(f"recheck: {e.get('name', '?')}", True, ok, detail=detail)
    if found == 0:
        rep.add("no embedded certificates found", "info")
    return rep
