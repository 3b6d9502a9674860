"""Test-only oracles: slow, independent routes the tests compare against.

None of these is used by the package itself.
"""

from fractions import Fraction
from math import gcd

from webrank.graphs import Graph, ResourceCapExceeded, mod1
from webrank.polyhedra import (
    HULL_BOUND,
    HPolytope,
    cone_extreme_rays,
    is_valid,
    matrix_rank,
)
from webrank.simplex import LinearProgram


# ---------------------------------------------------------------------------
# graphs

def has_induced_embedding(inner: Graph, outer: Graph) -> bool:
    """Backtracking search for an induced-subgraph embedding inner -> outer.

    Both edges and non-edges of `inner` must be preserved, which is the
    subweb notion Trotter's characterization describes (a web embedded
    as a mere partial subgraph sits inside almost any denser web).
    Used as the independent oracle for is_subweb.
    """
    if inner.n > outer.n:
        return False
    iv = inner.nodes
    adj = []  # adj[i] = (positions j < i adjacent, positions j < i non-adjacent)
    for i, v in enumerate(iv):
        yes = [j for j in range(i) if inner.has_edge(v, iv[j])]
        no = [j for j in range(i) if not inner.has_edge(v, iv[j])]
        adj.append((yes, no))
    used = [None] * len(iv)

    def extend(i):
        if i == len(iv):
            return True
        yes, no = adj[i]
        for cand in outer.nodes:
            if cand in used[:i]:
                continue
            if all(outer.has_edge(cand, used[j]) for j in yes) and \
                    not any(outer.has_edge(cand, used[j]) for j in no):
                used[i] = cand
                if extend(i + 1):
                    return True
        used[i] = None
        return False

    return extend(0)


def cyclic_relabel_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Isomorphism via i -> a(i-1)+b (mod n), for circulant-style graphs.

    Only affine relabelings are tried; general isomorphism is out of scope.
    """
    if g1.nodes != g2.nodes or g1.nodes != tuple(range(1, g1.n + 1)):
        return False
    n = g1.n
    e1 = g1.edge_count()
    if e1 != g2.edge_count():
        return False
    for a in range(1, n):
        if gcd(a, n) != 1:
            continue
        for b in range(n):
            mapping = {i: mod1(a * (i - 1) + b + 1, n) for i in g1.nodes}
            if all(g2.has_edge(mapping[u], mapping[v]) for u, v in g1.edges()):
                return True
    return False


# ---------------------------------------------------------------------------
# polyhedra

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
