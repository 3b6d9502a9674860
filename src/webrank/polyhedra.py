"""Exact H- and V-representations for stable set relaxations.

QSTAB(G) is the clique relaxation (nonnegativity plus x(Q) <= 1 for
every maximal clique Q), FRAC(G) the edge relaxation, STAB(G) the list
of stable-set incidence vectors.  Coordinates are indexed by node
labels, so relaxations of deleted subgraphs keep pointing at original
web positions.  Every LP over a relaxation skips rows that x >= 0 implies.

Facet enumeration of point sets (the hull of STAB) goes through one
double description core: the extreme rays of a pointed cone
{y : M y >= 0}, computed with integer vectors and the combinatorial
adjacency test.  It runs on one of two row sets.  The polar cone has a
row [1, -p] per point p.  The anti-blocker (Fulkerson 1972) has a row
a_v >= 0 per coordinate and a row [1, -S] per maximal point S; it serves
a down-closed 0/1 set that holds every unit vector, has no more maximal
points than coordinates and more than ANTI_BLOCKER_RATIO points per
maximal one (`anti_blocker_maximal`): STAB of A_n^k for k >= 4 and
n >= 3k - 2.

Exact elimination here is the simplex tableau's: rows are cleared of
denominators by ``simplex._intify`` and updated by ``simplex._eliminate``
(the gcd-reduced fraction-free row update of Bareiss 1968).  One in-order
pass over sparse integer rows gives the initial simplicial cone of the
double description method, whose rays it reads from unit marker columns,
as the tableau reads duals from its slacks; the same pass is the
full-rank test of the hull input.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd, lcm

from .graphs import (Graph, _check_deadline, _check_hull_bound, as_nodeset,
                     enumerate_maximal_cliques, enumerate_stable_sets)
from .reporting import read_label, read_rational
from .simplex import LinearProgram, _coprime, _eliminate, _exact, _intify


class LinearInequality:
    """A row a.x <= b over node-indexed coordinates, each value an int
    where it is integral, else a Fraction (`simplex._exact`).

    Equality and hashing use the canonical integer form (coprime
    coefficients, positive scale), so the same facet built by different
    routes compares equal.
    """

    __slots__ = ("coeffs", "rhs", "_canon")

    def __init__(self, coeffs: dict, rhs):
        object.__setattr__(self, "coeffs", {v: q for v, c in coeffs.items() if (q := _exact(c))})
        object.__setattr__(self, "rhs", _exact(rhs))
        object.__setattr__(self, "_canon", None)

    def __setattr__(self, name, value):
        raise AttributeError("LinearInequality is immutable")

    @property
    def support(self) -> tuple:
        return as_nodeset(self.coeffs)

    def canonical(self) -> tuple:
        if self._canon is None:
            ints, _ = _intify([*self.coeffs.items(), ("rhs", self.rhs)])
            ints, r = _coprime(ints, ints.pop("rhs"))
            object.__setattr__(self, "_canon", (tuple(sorted(ints.items())), r))
        return self._canon

    def exceeds(self, num: dict, L: int) -> bool:
        """a.x > b at x = num / L, in integers (missing keys read 0)."""
        key, rhs = self.canonical()
        return sum(c * num.get(v, 0) for v, c in key) > rhs * L

    def __eq__(self, other):
        if not isinstance(other, LinearInequality):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def __repr__(self):
        ints, r = self.canonical()
        lhs = " ".join({1: "+", -1: "-"}.get(c, f"{c:+d}") + f"x{v}" for v, c in ints) or "0"
        return f"<{lhs} <= {r}>"

    def to_json(self) -> dict:
        """The row with every value a Fraction, as reports write rows."""
        return {"coeffs": {v: Fraction(c) for v, c in self.coeffs.items()},
                "rhs": Fraction(self.rhs)}

    @staticmethod
    def from_json(d: dict) -> "LinearInequality":
        return LinearInequality(
            {read_label(v): Fraction(*read_rational(c)) for v, c in d["coeffs"].items()},
            Fraction(*read_rational(d["rhs"])))


def clear_denominators(point: dict, index) -> tuple:
    """(num, L) with x = num / L on the index, in integers, for a point of
    (numerator, denominator > 0) pairs: L is the lcm of the denominators;
    keys outside the index are ignored."""
    pairs = [point.get(v, (0, 1)) for v in index]
    L = lcm(*(d for _, d in pairs))
    return {v: n * (L // d) for v, (n, d) in zip(index, pairs)}, L


def nonneg_row(v: int) -> LinearInequality:
    return LinearInequality({v: -1}, 0)


def implied_by_nonneg(coeffs, rhs) -> bool:
    """Whether x >= 0 implies sum(c x) <= rhs (c the coefficient values):
    no c > 0, rhs >= 0.  Its slack, rhs plus a nonnegative sum of x, never
    leaves the basis (a lower structural column ties), so no LP needs it."""
    return rhs >= 0 and all(c <= 0 for c in coeffs)


class HPolytope:
    """Row list over node-indexed coordinates, kept inside x >= 0.

    All relaxations built here carry explicit nonnegativity rows and a
    bound on every coordinate (a singleton-clique or edge row), so they
    live in [0,1]^n.

    `lp_max`, the piece and membership LPs of `liftproject` and its N
    lift are built from the rows but those `implied_by_nonneg` (the rest
    are `_kept`), the N lift from each row's `canonical` form: integer
    rows reach the tableau as ints.  Polytopes compare by identity: the
    LP kept on one (`_lp`) and the N lift kept for it belong to that object.
    """

    __slots__ = ("index", "rows", "_kept", "_tests", "_lp")

    def __init__(self, index, rows):
        object.__setattr__(self, "index", tuple(index))
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "_kept", tuple(
            i for i, r in enumerate(self.rows) if not implied_by_nonneg(r.coeffs.values(), r.rhs)))
        object.__setattr__(self, "_tests", None)
        object.__setattr__(self, "_lp", None)
        for r in rows:
            if not set(r.support) <= set(self.index):
                raise ValueError(f"row {r} outside coordinate index")

    def __setattr__(self, name, value):
        raise AttributeError("HPolytope is immutable")

    @property
    def dim(self) -> int:
        return len(self.index)

    def holds(self, num: dict, L: int) -> bool:
        """x = num / L (num keyed by the index) lies in h, in integers: each
        row but those x >= 0 implies is tested as a.num <= b L in its
        integer form, built once per HPolytope."""
        if self._tests is None:
            object.__setattr__(self, "_tests", tuple(self.rows[i].canonical() for i in self._kept))
        return all(a >= 0 for a in num.values()) and not any(
            sum(c * num[v] for v, c in key) > rhs * L for key, rhs in self._tests)

    def to_json(self) -> dict:
        return {"index": self.index, "rows": [r.to_json() for r in self.rows]}


class LPOutcome:
    """lp_max result with points keyed by node label.  The point may be
    given as a function of no arguments instead, which builds it on the
    first read.  Only `piece_lp_max` sets `duals`: the piece's multipliers."""

    __slots__ = ("status", "value", "duals", "_point")

    def __init__(self, status: str, value=None, point=None):
        self.status, self.value, self._point = status, value, point
        self.duals = None

    @property
    def point(self) -> dict | None:
        if callable(self._point):
            self._point = self._point()
        return self._point


def lp_max(h: HPolytope, objective: dict) -> LPOutcome:
    """Exact maximum of a linear objective, by node, over h (with x >= 0).

    The LP of h's `_kept` rows is kept on h (`_lp`) and re-solved from its
    last feasible basis on each later call.  Every optimal answer is
    certified on the spot, with the LP's duals, in exact integer
    arithmetic: feasibility, strong duality, complementary slackness.  The
    outcome carries the value and the point.  Relaxations built here are
    bounded; an unbounded status raises.
    """
    pos = {v: i for i, v in enumerate(h.index)}
    lp_obj = {pos[v]: c for v, c in objective.items() if v in pos}
    if (lp := h._lp) is None:
        lp = LinearProgram(len(h.index))
        for r in (h.rows[i] for i in h._kept):
            lp.add_le({pos[v]: c for v, c in r.coeffs.items()}, r.rhs)
        object.__setattr__(h, "_lp", lp)
    res = lp.maximize(lp_obj)
    if res.status == "unbounded":
        raise RuntimeError("relaxation unbounded: missing bound rows")
    if res.status == "infeasible":
        return LPOutcome(status="infeasible")
    lp.check_optimal(res, lp_obj)
    return LPOutcome(status="optimal", value=res.value, point=dict(zip(h.index, res.x)))


def symmetries(h: HPolytope, coeffs: dict, maps=None) -> list:
    """The position maps among `maps` (by default every rotation and
    reflection of the positions of h.index, the identity first) that map
    the coefficients and the set of h's rows (by canonical keys) to
    themselves.  A map p moves the coordinate at position i to position
    p[i]."""
    index, n = h.index, h.dim
    vals = [coeffs.get(v, 0).as_integer_ratio() for v in index]
    if maps is None:        # a rotation or reflection is known by where it moves position 0
        starts = [s for s in range(n) if vals[s] == vals[0]]
        maps = dict.fromkeys(tuple((s + e * i) % n for i in range(n))
                             for e in (1, -1) for s in starts)
    rows, out, identity = None, [], tuple(range(n))
    for p in maps:
        if [vals[q] for q in p] != vals:
            continue
        if p == identity:
            out.append(p)
            continue
        if rows is None:
            rows = {(frozenset(key), b) for key, b in (r.canonical() for r in h.rows)}
        move = dict(zip(index, (index[q] for q in p)))
        if all((frozenset((move[v], c) for v, c in key), b) in rows for key, b in rows):
            out.append(p)
    return out


def rotation_invariant(row: LinearInequality, h: HPolytope) -> bool:
    """Whether the shift by one position along h.index is among the
    symmetries of h and the row; a search over F may then hold index[0]."""
    return bool(symmetries(h, row.coeffs, [tuple((i + 1) % h.dim for i in range(h.dim))]))


def is_valid(ineq: LinearInequality, h: HPolytope):
    """(True, None) when a.x <= b holds over h; else (False, maximizer).

    An infeasible h makes every inequality vacuously valid.
    """
    out = lp_max(h, ineq.coeffs)
    if out.status == "infeasible" or out.value <= ineq.rhs:
        return True, None
    return False, out.point


def qstab(g: Graph) -> HPolytope:
    """Clique relaxation: nonnegativity plus one row per maximal clique."""
    rows = [nonneg_row(v) for v in g.nodes]
    for q in enumerate_maximal_cliques(g):
        rows.append(LinearInequality({v: 1 for v in q}, 1))
    return HPolytope(g.nodes, rows)


def frac(g: Graph) -> HPolytope:
    """Edge relaxation; isolated nodes get their singleton clique row so
    every coordinate stays bounded."""
    rows = [nonneg_row(v) for v in g.nodes]
    for u, v in g.edges():
        rows.append(LinearInequality({u: 1, v: 1}, 1))
    for v in g.nodes:
        if g.degree(v) == 0:
            rows.append(LinearInequality({v: 1}, 1))
    return HPolytope(g.nodes, rows)


class VPolytope:
    """Finite rational point list, sorted and without repeats; entries are
    kept as given, int or Fraction (stab gives 0/1 ints)."""

    __slots__ = ("index", "points")

    def __init__(self, index, points):
        object.__setattr__(self, "index", tuple(index))
        object.__setattr__(self, "points", tuple(sorted(set(map(tuple, points)))))

    def __setattr__(self, name, value):
        raise AttributeError("VPolytope is immutable")

    @property
    def dim(self) -> int:
        return len(self.index)


def stab(g: Graph) -> VPolytope:
    """Incidence vectors of all stable sets (the origin included): the
    points of a hull, so n is capped like the hull dimension.  A max over
    STAB needs no list (graphs.max_weight_stable_set)."""
    _check_hull_bound(g.n)
    pts = []
    for s in enumerate_stable_sets(g):
        p = [0] * g.n
        for v in s:
            p[g._pos[v]] = 1
        pts.append(tuple(p))
    return VPolytope(g.nodes, pts)


# ---------------------------------------------------------------------------
# exact linear algebra: the row update of the simplex tableau

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
    rank (cone not pointed).  Each insertion checks the deadline.
    """
    return _double_description(m_rows)[0]


def _double_description(m_rows) -> tuple:
    """(rays, zeros) of `cone_extreme_rays`: zeros[i] has bit t set when
    ray i is tight on input row t."""
    rows = [_intify([(j, v) for j, v in enumerate(r) if v])[0] for r in m_rows]
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
    # each ray is tight on every basis row but its own; bit t is input row t
    full = sum(1 << i for i in basis_idx)
    zeros = [full ^ (1 << i) for i in basis_idx]

    in_basis = set(basis_idx)
    rest = [t for t in range(len(rows)) if t not in in_basis]
    for t in rest:
        _check_deadline()
        m = rows[t]
        bit = 1 << t
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
            # rays i (plus) and j (minus) are adjacent when their common zero
            # set z has d-2 bits or more and no third ray k is zero on all of
            # z.  Such a k shares z with zeros[i], so the scan covers only
            # the rays near i, after the last k found, often a k again.
            need = d - 2
            minus_zeros = [(j, zeros[j]) for j in minus]
            last = -1
            for i in plus:
                zi = zeros[i]
                near = None
                for j, z in [(j, z) for j, zj in minus_zeros
                             if (z := zi & zj).bit_count() >= need]:
                    if last not in (-1, i, j) and z & zeros[last] == z:
                        continue
                    if near is None:
                        near = [(k, zk) for k, zk in enumerate(zeros)
                                if k != i and (zi & zk).bit_count() >= need]
                    for k, zk in near:
                        if z & zk == z and k != j:
                            last = k
                            break
                    else:
                        comb = [sig[i] * rays[j][c] - sig[j] * rays[i][c] for c in range(d)]
                        new_rays.append(_primitive(comb))
                        new_zeros.append(z | bit)
        rays, zeros = new_rays, new_zeros
    return rays, zeros


def _dot(row: dict, ray) -> int:
    return sum(v * ray[j] for j, v in row.items())


# the anti-blocker rows are used for a down-closed 0/1 set with at most
# one maximal point per coordinate and more than this many points per
# maximal one: A_n^k has n maximal stable sets and 4 + 1/n points per
# maximal one at k = 3, where the polar cone is faster, 8 + 1/n at k = 4,
# where the anti-blocker is; webs have more maximal stable sets than nodes,
# and their anti-blockers have many dominated vertices
ANTI_BLOCKER_RATIO = 6


def anti_blocker_maximal(v: VPolytope) -> list | None:
    """The maximal points of v as bit masks (bit j for coordinate j), in
    the order of v.points, when `convex_hull_facets` takes the
    anti-blocker rows; else None.

    It takes them when v is 0/1, down-closed and holds every unit vector
    (and so 0: the set is full-dimensional), has at most v.dim maximal
    points, and more than ANTI_BLOCKER_RATIO points per maximal one.
    """
    n = v.dim
    if not all(c == 0 or c == 1 for p in v.points for c in p):
        return None
    masks = [sum(1 << j for j, c in enumerate(p) if c) for p in v.points]
    have = set(masks)
    if not all(1 << j in have for j in range(n)) or not all(
            m ^ (1 << j) in have for m in masks for j in range(n) if m >> j & 1):
        return None
    maximal = [m for m in masks
               if not any(m | (1 << j) in have for j in range(n) if not m >> j & 1)]
    if len(maximal) > n or len(masks) <= ANTI_BLOCKER_RATIO * len(maximal):
        return None
    return maximal


def convex_hull_facets(v: VPolytope) -> list:
    """Irredundant facet list of conv(points) for a full-dimensional set,
    sorted by canonical form, each row in coprime integers.

    Polar cone: the facets are the extreme rays, but the one with a = 0,
    of {(b, a) : b - a.p >= 0 for all points p}, whose rows [1, -p] have
    full column rank exactly when the points span the n dimensions: the
    cone core's own rank test rejects a point set that does not.

    Anti-blocker, for the sets `anti_blocker_maximal` accepts (STAB of a
    graph with many stable sets per maximal one; Fulkerson 1972): P =
    conv(points) is down-closed, so its facets are the n rows -x_v <= 0
    and a.x <= b with a >= 0, b > 0.  These are the extreme rays (b, a) of
    the cone of rows a_v >= 0 (one per coordinate, first) and b - a.S >= 0
    (one per maximal point S, in the order of the points) whose tight
    maximal points cover every coordinate; the ray a = 0 is tight on none.
    Proof: with b = 1, the rays are the vertices of the anti-blocker A =
    {a >= 0 : a(S) <= 1 for every maximal S}, which for a >= 0 is a.x <= 1
    over all of P.  The polar {a : a.x <= 1 on P} of P is A - R^n_+ (the
    max of a.x over the down-closed P is reached with x_v = 0 where a_v <
    0), whose vertices, the facets of P with b = 1, are the vertices of A
    that no other point of A dominates.  A vertex a with some v in no
    tight maximal set is dominated: a + e_v t stays in A for a small t >
    0.  If every v lies in a tight maximal S_v, and a' >= a lies in A,
    then a'(S_v) <= 1 = a(S_v) forces a' = a on S_v, so a' = a.  The zero
    sets of the double description give the tight rows.
    """
    _check_hull_bound(v.dim)
    if not v.points:
        raise ValueError("convex_hull_facets needs a full-dimensional point set")
    n = v.dim
    maximal = anti_blocker_maximal(v)
    if maximal is None:
        rays = cone_extreme_rays([[1, *(-c for c in p)] for p in v.points])
        out = [LinearInequality(dict(zip(v.index, ray[1:])), ray[0])
               for ray in rays if any(ray[1:])]
    else:
        units = [[0] * (j + 1) + [1] + [0] * (n - 1 - j) for j in range(n)]
        rays, zeros = _double_description(
            units + [[1, *(-(m >> j & 1) for j in range(n))] for m in maximal])
        out = [nonneg_row(u) for u in v.index]
        for ray, z in zip(rays, zeros):
            cover, z = 0, z >> n
            for m in maximal:
                if z & 1:
                    cover |= m
                z >>= 1
            if cover == (1 << n) - 1:
                out.append(LinearInequality(dict(zip(v.index, ray[1:])), ray[0]))
    return sorted(out, key=lambda r: r.canonical())
