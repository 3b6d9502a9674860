"""Exact H- and V-representations for stable set relaxations.

QSTAB(G) is the clique relaxation (nonnegativity plus x(Q) <= 1 for
every maximal clique Q), FRAC(G) the edge relaxation, STAB(G) the list
of stable-set incidence vectors.  Coordinates are indexed by node
labels, so relaxations of deleted subgraphs keep pointing at original
web positions.

Facet enumeration of 0/1 point sets and vertex enumeration of bounded
H-polytopes both go through one double description core: the extreme
rays of a pointed cone {y : M y >= 0}, computed with integer vectors
and the combinatorial adjacency test.

Exact elimination here is the simplex tableau's: rows are cleared of
denominators by ``simplex._intify`` and updated by ``simplex._eliminate``
(the gcd-reduced fraction-free row update of Bareiss 1968).  One in-order
pass over sparse integer rows gives both the matrix rank and the initial
simplicial cone of the double description method, whose rays it reads
from unit marker columns, as the tableau reads duals from its slacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, lcm

from .graphs import (Graph, ResourceCapExceeded, as_nodeset,
                     enumerate_maximal_cliques, enumerate_stable_sets)
from .simplex import LinearProgram, _eliminate, _intify

HULL_BOUND = 12


def frac_to_str(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


class LinearInequality:
    """A row a.x <= b over node-indexed coordinates.

    Equality and hashing use the canonical integer form (coprime
    coefficients, positive scale), so the same facet built by different
    routes compares equal; the provenance tag is ignored by equality.
    """

    __slots__ = ("coeffs", "rhs", "tag", "_canon")

    def __init__(self, coeffs: dict, rhs, tag: str = "other"):
        object.__setattr__(self, "coeffs",
                           {v: Fraction(c) for v, c in coeffs.items() if Fraction(c) != 0})
        object.__setattr__(self, "rhs", Fraction(rhs))
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "_canon", None)

    def __setattr__(self, name, value):
        raise AttributeError("LinearInequality is immutable")

    def __reduce__(self):
        return (LinearInequality, (self.coeffs, self.rhs, self.tag))

    @property
    def support(self) -> tuple:
        return as_nodeset(self.coeffs)

    def evaluate(self, point: dict) -> Fraction:
        return sum((c * point.get(v, Fraction(0)) for v, c in self.coeffs.items()),
                   Fraction(0))

    def satisfied_by(self, point: dict) -> bool:
        return self.evaluate(point) <= self.rhs

    def canonical(self) -> tuple:
        if self._canon is None:
            ints, _ = _intify([*self.coeffs.items(), ("rhs", self.rhs)])
            r = ints.pop("rhs")
            g = gcd(r, *ints.values()) or 1
            key = (tuple(sorted((v, c // g) for v, c in ints.items())), r // g)
            object.__setattr__(self, "_canon", key)
        return self._canon

    def integer_form(self) -> tuple:
        """(coeff dict, rhs) scaled to coprime integers."""
        key, r = self.canonical()
        return dict(key), r

    def __eq__(self, other):
        if not isinstance(other, LinearInequality):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def __repr__(self):
        ints, r = self.canonical()
        terms = []
        for v, c in ints:
            if c == 1:
                terms.append(f"+x{v}")
            elif c == -1:
                terms.append(f"-x{v}")
            else:
                terms.append(f"{c:+d}x{v}")
        lhs = " ".join(terms) if terms else "0"
        return f"<{lhs} <= {r} [{self.tag}]>"

    def to_json(self) -> dict:
        return {"coeffs": {str(v): frac_to_str(c) for v, c in sorted(self.coeffs.items())},
                "rhs": frac_to_str(self.rhs), "tag": self.tag}

    @staticmethod
    def from_json(d: dict) -> "LinearInequality":
        return LinearInequality({int(v): Fraction(c) for v, c in d["coeffs"].items()},
                                Fraction(d["rhs"]), d.get("tag", "other"))


def nonneg_row(v: int) -> LinearInequality:
    return LinearInequality({v: -1}, 0, tag="nonneg")


class HPolytope:
    """Row list over node-indexed coordinates, kept inside x >= 0.

    All relaxations built here carry explicit nonnegativity rows and a
    bound on every coordinate (a singleton-clique or edge row), so they
    live in [0,1]^n.
    """

    __slots__ = ("index", "rows")

    def __init__(self, index, rows):
        object.__setattr__(self, "index", tuple(index))
        object.__setattr__(self, "rows", tuple(rows))
        for r in rows:
            if not set(r.support) <= set(self.index):
                raise ValueError(f"row {r} outside coordinate index")

    def __setattr__(self, name, value):
        raise AttributeError("HPolytope is immutable")

    def __reduce__(self):
        return (HPolytope, (self.index, self.rows))

    def __eq__(self, other):
        if not isinstance(other, HPolytope):
            return NotImplemented
        return self.index == other.index and frozenset(self.rows) == frozenset(other.rows)

    def __hash__(self):
        return hash((self.index, frozenset(self.rows)))

    @property
    def dim(self) -> int:
        return len(self.index)

    def dense(self, coeffs: dict) -> list:
        return [Fraction(coeffs.get(v, 0)) for v in self.index]

    def contains(self, point: dict) -> bool:
        return all(r.satisfied_by(point) for r in self.rows) and all(
            point.get(v, Fraction(0)) >= 0 for v in self.index)

    def with_rows(self, extra) -> "HPolytope":
        return HPolytope(self.index, list(self.rows) + list(extra))

    def to_json(self) -> dict:
        return {"index": list(self.index), "rows": [r.to_json() for r in self.rows]}


@dataclass
class LPOutcome:
    """lp_max result with points keyed by node label."""

    status: str
    value: Fraction | None = None
    point: dict | None = None
    duals: list | None = None
    pivots: int = 0


def lp_max(h: HPolytope, objective, pivot_rule: str = "hybrid") -> LPOutcome:
    """Exact maximum of a linear objective over h (with x >= 0).

    Every optimal answer is certified on the spot: primal feasibility,
    strong duality and complementary slackness are re-checked in exact
    arithmetic before returning.  Relaxations built here are bounded,
    so an unbounded status is an internal inconsistency and raises.
    """
    obj = objective if isinstance(objective, dict) else dict(zip(h.index, objective))
    dense_obj = h.dense(obj)
    lp = LinearProgram(len(h.index))
    for r in h.rows:
        lp.add_le(h.dense(r.coeffs), r.rhs)
    res = lp.solve(dense_obj, pivot_rule=pivot_rule)
    if res.status == "unbounded":
        raise RuntimeError("relaxation unbounded: missing bound rows")
    if res.status == "infeasible":
        return LPOutcome(status="infeasible", pivots=res.pivots)
    lp.check_optimal(res, dense_obj)
    point = dict(zip(h.index, res.x))
    return LPOutcome(status="optimal", value=res.value, point=point,
                     duals=res.duals, pivots=res.pivots)


def is_valid(ineq: LinearInequality, h: HPolytope, pivot_rule: str = "hybrid"):
    """(True, None) when a.x <= b holds over h; else (False, maximizer).

    An infeasible h makes every inequality vacuously valid.
    """
    out = lp_max(h, ineq.coeffs, pivot_rule=pivot_rule)
    if out.status == "infeasible":
        return True, None
    if out.value <= ineq.rhs:
        return True, None
    return False, out.point


def qstab(g: Graph) -> HPolytope:
    """Clique relaxation: nonnegativity plus one row per maximal clique."""
    rows = [nonneg_row(v) for v in g.nodes]
    for q in enumerate_maximal_cliques(g):
        rows.append(LinearInequality({v: 1 for v in q}, 1, tag="clique"))
    return HPolytope(g.nodes, rows)


def frac(g: Graph) -> HPolytope:
    """Edge relaxation; isolated nodes get their singleton clique row so
    every coordinate stays bounded."""
    rows = [nonneg_row(v) for v in g.nodes]
    for u, v in g.edges():
        rows.append(LinearInequality({u: 1, v: 1}, 1, tag="clique"))
    for v in g.nodes:
        if g.degree(v) == 0:
            rows.append(LinearInequality({v: 1}, 1, tag="clique"))
    return HPolytope(g.nodes, rows)


class VPolytope:
    """Finite rational point list (here: stable set incidence vectors)."""

    __slots__ = ("index", "points")

    def __init__(self, index, points):
        object.__setattr__(self, "index", tuple(index))
        pts = sorted(set(tuple(Fraction(c) for c in p) for p in points))
        object.__setattr__(self, "points", tuple(pts))

    def __setattr__(self, name, value):
        raise AttributeError("VPolytope is immutable")

    @property
    def dim(self) -> int:
        return len(self.index)

    def as_dicts(self):
        return [dict(zip(self.index, p)) for p in self.points]

    def max_over(self, objective: dict):
        """(value, best point dict) of a linear objective over the points."""
        dense = [Fraction(objective.get(v, 0)) for v in self.index]
        best, arg = None, None
        for p in self.points:
            val = sum((c * x for c, x in zip(dense, p)), Fraction(0))
            if best is None or val > best:
                best, arg = val, p
        return best, dict(zip(self.index, arg))

    def to_json(self) -> dict:
        return {"index": list(self.index),
                "points": [[frac_to_str(c) for c in p] for p in self.points]}


def stab(g: Graph, bound: int = 18) -> VPolytope:
    """Incidence vectors of all stable sets (the origin included)."""
    pts = []
    for s in enumerate_stable_sets(g, bound):
        sset = set(s)
        pts.append(tuple(Fraction(1 if v in sset else 0) for v in g.nodes))
    return VPolytope(g.nodes, pts)


# ---------------------------------------------------------------------------
# exact linear algebra: the row update of the simplex tableau

def _int_row(values) -> dict:
    """Sparse integer row (column -> nonzero) of a rational row, scaled by
    the lcm of its denominators."""
    row, _ = _intify([(j, v) for j, v in enumerate(values) if v])
    return row


def _echelon(rows, ncols):
    """In-order elimination of sparse integer rows.

    Yields (i, row, div, col) for each input row i that is independent of
    the rows before it: the row reduced by the earlier yielded rows, over
    the positive divisor div, and its pivot column col (the lowest
    nonzero column below ncols; keys from ncols up are carried along but
    never pivoted on).  Stops once ncols rows are yielded.
    """
    found = []
    for i, row in enumerate(rows):
        div = 1
        for prow, p, col in found:
            if col in row:
                div = _eliminate(row, div, prow, p, col)
        col = min((j for j in row if j < ncols), default=None)
        if col is None:
            continue
        found.append((row, row[col], col))
        yield i, row, div, col
        if len(found) == ncols:
            return


def matrix_rank(rows) -> int:
    """Rank over the rationals by fraction-free Gaussian elimination."""
    rows = [_int_row(r) for r in rows]
    ncols = max((max(r) + 1 for r in rows if r), default=0)
    return sum(1 for _ in _echelon(rows, ncols))


def affine_rank(points) -> int:
    """Dimension of the affine hull of the given points."""
    pts = [list(p) for p in points]
    if not pts:
        return -1
    p0 = pts[0]
    diffs = [[a - b for a, b in zip(p, p0)] for p in pts[1:]]
    return matrix_rank(diffs) if diffs else 0


# ---------------------------------------------------------------------------
# double description core

def _primitive(values) -> tuple:
    """An integer vector divided by the gcd of its entries."""
    g = gcd(*values) or 1
    return tuple(x // g for x in values)


def cone_extreme_rays(m_rows) -> list:
    """Extreme rays of the pointed cone {y : M y >= 0}.

    Starts from a simplicial subcone spanned by the first d independent
    rows and inserts the remaining halfspaces with the double description
    step; adjacency of rays is the combinatorial zero-set test.  Exact
    integer arithmetic throughout; raises if the rows do not have full
    rank (cone not pointed).
    """
    rows = [_int_row(r) for r in m_rows]
    d = len(m_rows[0])

    # Gauss-Jordan on the first d independent rows B, each carrying a unit
    # marker column d + i for its input row i, as the tableau's slack
    # columns do; after it, row k reads q_k y_{col_k} = sum_i m_ki (M y)_i
    # with q_k its pivot and m_ki its marker entries, so the ray that is
    # positive on basis row i alone has entry m_ki / q_k at col_k (a ratio
    # within one row: _normalize may negate a row)
    marked = ({**r, d + i: 1} for i, r in enumerate(rows))
    basis = list(islice(_echelon(marked, d), d))
    if len(basis) < d:
        raise ValueError("cone is not pointed / input not full-dimensional")
    basis_idx, brows, divs, cols = map(list, zip(*basis))
    for k in reversed(range(d)):
        prow, col = brows[k], cols[k]
        for i in range(k):
            if col in brows[i]:
                divs[i] = _eliminate(brows[i], divs[i], prow, prow[col], col)
    pivots = sorted(zip(cols, brows))
    L = lcm(*(row[col] for col, row in pivots))
    rays = [_primitive([row.get(d + i, 0) * (L // row[col]) for col, row in pivots])
            for i in basis_idx]
    # each ray is tight on every basis row but its own
    zeros = [((1 << d) - 1) ^ (1 << j) for j in range(d)]

    in_basis = set(basis_idx)
    rest = [t for t in range(len(rows)) if t not in in_basis]
    for n, t in enumerate(rest, start=d):
        m = rows[t]
        bit = 1 << n
        sig = [_dot(m, r) for r in rays]
        plus = [i for i, s in enumerate(sig) if s > 0]
        minus = [i for i, s in enumerate(sig) if s < 0]
        zero = [i for i, s in enumerate(sig) if s == 0]
        new_rays, new_zeros = [], []
        for i in plus:
            new_rays.append(rays[i])
            new_zeros.append(zeros[i])
        for i in zero:
            new_rays.append(rays[i])
            new_zeros.append(zeros[i] | bit)
        if minus and plus:
            for i in plus:
                for j in minus:
                    z = zeros[i] & zeros[j]
                    if not _adjacent(z, i, j, zeros, d):
                        continue
                    comb = [sig[i] * rays[j][c] - sig[j] * rays[i][c] for c in range(d)]
                    new_rays.append(_primitive(comb))
                    new_zeros.append(z | bit)
        rays, zeros = new_rays, new_zeros
    return rays


def _adjacent(z_common, i, j, zeros, d) -> bool:
    if z_common.bit_count() < d - 2:
        return False
    for k, zk in enumerate(zeros):
        if k != i and k != j and z_common & zk == z_common:
            return False
    return True


def _dot(row: dict, ray) -> int:
    return sum(v * ray[j] for j, v in row.items())


def convex_hull_facets(v: VPolytope, bound: int = HULL_BOUND) -> list:
    """Irredundant facet list of conv(points) for a full-dimensional set.

    Facets are the extreme rays of the polar cone
    {(b, a) : b - a.p >= 0 for all points p}; output rows are
    canonicalized to coprime integers.
    """
    n = v.dim
    if n > bound:
        raise ResourceCapExceeded(f"hull bound exceeded: dim={n} > {bound}")
    if affine_rank(v.points) != n:
        raise ValueError("convex_hull_facets needs a full-dimensional point set")
    m_rows = [[Fraction(1)] + [-c for c in p] for p in v.points]
    rays = cone_extreme_rays(m_rows)
    out = []
    for ray in rays:
        b, a = ray[0], ray[1:]
        if all(c == 0 for c in a):
            continue  # the trivial 0.x <= b direction, never extreme here
        coeffs = {vlab: Fraction(c) for vlab, c in zip(v.index, a)}
        ineq = LinearInequality(coeffs, b, tag="hull")
        out.append(ineq)
    return sorted(out, key=lambda r: r.canonical())


def enumerate_vertices(h: HPolytope, bound: int = HULL_BOUND) -> list:
    """Vertices of a bounded HPolytope via the homogenized cone.

    Used by the piecewise hull cross-checks of the disjunctive operator.
    """
    n = h.dim
    if n > bound:
        raise ResourceCapExceeded(f"vertex enumeration bound exceeded: dim={n} > {bound}")
    m_rows = [[Fraction(1)] + [Fraction(0)] * n]           # x0 >= 0
    for r in h.rows:
        dense = h.dense(r.coeffs)
        m_rows.append([r.rhs] + [-c for c in dense])
    for j in range(n):                                      # x >= 0 structurally
        row = [Fraction(0)] * (n + 1)
        row[j + 1] = Fraction(1)
        m_rows.append(row)
    rays = cone_extreme_rays(m_rows)
    verts = []
    for ray in rays:
        if ray[0] == 0:
            if any(c != 0 for c in ray[1:]):
                raise RuntimeError("unbounded direction in a supposedly bounded polytope")
            continue
        x0 = Fraction(ray[0])
        verts.append(dict(zip(h.index, (Fraction(c) / x0 for c in ray[1:]))))
    return verts


def is_vertex(point: dict, h: HPolytope) -> bool:
    """Exact vertex test: tight rows (plus tight x >= 0) have rank n."""
    if not h.contains(point):
        return False
    tight = []
    for r in h.rows:
        if r.evaluate(point) == r.rhs:
            tight.append(h.dense(r.coeffs))
    for j, vlab in enumerate(h.index):
        if point.get(vlab, Fraction(0)) == 0:
            row = [Fraction(0)] * h.dim
            row[j] = Fraction(1)
            tight.append(row)
    return matrix_rank(tight) == h.dim if tight else h.dim == 0


def is_facet(ineq: LinearInequality, g: Graph, stab_bound: int = 18) -> bool:
    """Facet test against STAB(G): valid and tight on affine rank n-1.

    Raises when the inequality is not even valid for STAB(G), which is a
    different failure from being a valid non-facet.
    """
    vp = stab(g, stab_bound)
    val, arg = vp.max_over(ineq.coeffs)
    if val > ineq.rhs:
        raise ValueError(f"inequality {ineq} is not valid for STAB: violated by {arg}")
    tight = [p for p in vp.points
             if sum((c * x for c, x in zip([ineq.coeffs.get(v, Fraction(0))
                                            for v in vp.index], p)), Fraction(0))
             == ineq.rhs]
    return affine_rank(tight) == g.n - 1


def remove_redundant_rows(h: HPolytope) -> HPolytope:
    """Drop rows implied by the others (per-row LP test).

    A sub-LP going unbounded means the dropped row was load-bearing,
    so it is kept.
    """
    rows = list(h.rows)
    kept = []
    for i, r in enumerate(rows):
        others = kept + rows[i + 1:]
        lp = LinearProgram(len(h.index))
        for o in others:
            lp.add_le(h.dense(o.coeffs), o.rhs)
        res = lp.solve(h.dense(r.coeffs))
        implied = res.status == "optimal" and res.value <= r.rhs
        implied = implied or res.status == "infeasible"
        if not implied:
            kept.append(r)
    return HPolytope(h.index, kept)


def feasible_sets_equal(h1: HPolytope, h2: HPolytope) -> bool:
    """Mutual LP implication: every row of each holds over the other."""
    return all(is_valid(r, h1)[0] for r in h2.rows) and \
        all(is_valid(r, h2)[0] for r in h1.rows)
