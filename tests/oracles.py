"""Test-only oracles: slow, independent routes the tests compare against.

None of these is used by the package itself.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, islice, product
from math import gcd, lcm

from webrank.graphs import (
    Graph,
    ResourceCapExceeded,
    WebId,
    _bits,
    _check_deadline,
    _check_hull_bound,
    _check_piece_cap,
    _is_hole,
    alpha,
    alpha_induced,
    as_nodeset,
    complement,
    delete_nodes,
    find_induced_odd_hole,
    is_circulant,
    is_odd_hole,
    is_perfect,
    mod1,
    web,
)
from webrank.liftproject import _ONE, _fixed_rows, _lift_rows, _lin, disjunctive_valid
from webrank.polyhedra import (
    HPolytope,
    LinearInequality,
    VPolytope,
    _dot,
    _echelon,
    _primitive,
    clear_denominators,
    cone_extreme_rays,
    convex_hull_facets,
    is_valid,
    lp_max,
    qstab,
    stab,
)
from webrank.rank import RANK_SEARCH_BOUND, GraphRankResult, _f_candidates
from webrank.reporting import frac_to_str
from webrank.simplex import CertificateError, LinearProgram, _eliminate, _intify, _require


def contains(h: HPolytope, point: dict) -> bool:
    """x in h, for a point of ints and Fractions, tested in integers
    (`HPolytope.holds`)."""
    return h.holds(*clear_denominators(
        {v: q.as_integer_ratio() for v, q in point.items()}, h.index))


def evaluate(row: LinearInequality, point: dict) -> Fraction:
    """a.x of the row at the point, in Fractions (missing keys read 0)."""
    return sum((c * point.get(v, Fraction(0)) for v, c in row.coeffs.items()), Fraction(0))


# ---------------------------------------------------------------------------
# simplex

def check_optimal_by_fractions(lp: LinearProgram, res, objective) -> None:
    """The optimality check of `LinearProgram.check_optimal` in Fraction
    arithmetic: the same conditions in the same order, with the same
    messages, on the rows as added."""
    obj = dict(lp._pairs(objective))
    _require(res.status == "optimal", "not an optimal result")
    _require(len(res.duals) == len(lp.rows), "not one dual per row")
    x = res.x
    _require(all(v >= 0 for v in x), "negative primal value")
    support = {j: v for j, v in enumerate(x) if v}
    red = {j: -c for j, c in obj.items()}   # sum_i y_i a_ij - c_j, one pass per row
    for (coeffs, rhs, kind), y in zip(lp.rows, res.duals):
        lhs = Fraction(0)
        for j, c in coeffs:
            if j in support:
                lhs += c * support[j]
            if y:
                red[j] = red.get(j, 0) + y * c
        if kind == "<=":
            _require(lhs <= rhs, "primal infeasible")
            _require(y >= 0, "negative dual on <= row")
            _require(y == 0 or lhs == rhs, "complementary slackness (row)")
        else:
            _require(lhs == rhs, "equality violated")
    _require(sum(obj.get(j, 0) * v for j, v in support.items()) == res.value,
             "value mismatch")
    for j, r in sorted(red.items()):     # a column missing from red has r = 0
        _require(r >= 0, "dual infeasible")
        _require(j not in support or r == 0, "complementary slackness (column)")
    _require(sum(y * r[1] for y, r in zip(res.duals, lp.rows)) == res.value,
             "strong duality")


def check_farkas(lp: LinearProgram, res) -> None:
    """Exact check of an infeasibility certificate of lp.

    Raises CertificateError naming the first condition that fails.
    """
    _require(res.status == "infeasible" and res.farkas is not None,
             "not an infeasibility certificate")
    y = res.farkas
    col = {}
    for (coeffs, rhs, kind), yi in zip(lp.rows, y):
        if kind == "<=":
            _require(yi >= 0, "negative multiplier on <= row")
        if yi:
            for j, c in coeffs:
                col[j] = col.get(j, 0) + yi * c
    _require(all(v >= 0 for v in col.values()), "negative column in the Farkas combination")
    _require(sum(yi * r[1] for yi, r in zip(y, lp.rows)) < 0,
             "nonnegative right-hand side in the Farkas combination")


# ---------------------------------------------------------------------------
# graphs

def edgeless_graph(n: int) -> Graph:
    return Graph(range(1, n + 1), [])


def from_dimacs(text: str) -> Graph:
    """The graph of a DIMACS edge file, the format `generate` writes."""
    n = None
    edges = []
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "p":
            n = int(parts[2])
        elif parts[0] == "e":
            edges.append((int(parts[1]), int(parts[2])))
    if n is None:
        raise ValueError("missing 'p edge' line")
    return Graph(range(1, n + 1), edges)


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


def complement_by_edges(g: Graph) -> Graph:
    """The complement built from the non-edge list through Graph()."""
    edges = [
        (u, v) for u, v in combinations(g.nodes, 2) if not g.has_edge(u, v)
    ]
    family = None
    if g.family and g.family[0] == "web":
        family = ("antiweb", g.family[1], g.family[2] + 1)
    elif g.family and g.family[0] == "antiweb":
        family = ("web", g.family[1], g.family[2] - 1)
    return Graph(g.nodes, edges, family=family)


def delete_nodes_by_edges(g: Graph, f) -> Graph:
    """Node deletion that filters the edge list and rebuilds through Graph()."""
    f = as_nodeset(f)
    for v in f:
        if v not in g._pos:
            raise ValueError(f"cannot delete unknown node label {v}")
    keep = [v for v in g.nodes if v not in set(f)]
    if not keep:
        raise ValueError("deletion would empty the graph")
    edges = [(u, v) for u, v in g.edges() if u not in set(f) and v not in set(f)]
    family = g.family if not f else None
    return Graph(keep, edges, family=family)


def find_induced_odd_hole_by_generators(g: Graph):
    """The odd-hole DFS with a path list, one closure per base node and
    generator bit loops: the scan order graphs.find_induced_odd_hole
    must keep."""
    _check_deadline()
    adj = g._adj
    n = g.n
    steps = 0
    for b in range(n):
        nb_b = adj[b]
        gt_b = ~((1 << (b + 1)) - 1) & ((1 << n) - 1)

        def dfs(p1, last, mid_ok, length):
            nonlocal steps
            steps += 1
            if steps % 2048 == 0:
                _check_deadline()
            reach = mid_ok & adj[last]
            if length >= 4 and length % 2 == 0:
                for w in _bits(reach & nb_b):
                    if w > p1:
                        hole = as_nodeset(g.nodes[i] for i in path + [w])
                        if not _is_hole(g, sum(1 << i for i in path + [w])):
                            raise RuntimeError(f"odd-hole search returned a non-hole {hole}")
                        return hole
            for w in _bits(reach & ~nb_b):
                path.append(w)
                res = dfs(p1, w, mid_ok & ~adj[last], length + 1)
                path.pop()
                if res is not None:
                    return res
            return None

        for p1 in _bits(nb_b & gt_b):
            path = [b, p1]
            res = dfs(p1, p1, gt_b & ~(1 << p1), 2)
            if res is not None:
                return res
    return None


def is_hole_by_pairs(g: Graph, nodes) -> bool:
    """The hole re-check over node pairs and neighbor tuples: degrees
    from has_edge on every pair, then a search over g.neighbors."""
    nodes = as_nodeset(nodes)
    if len(nodes) < 4:
        return False
    degs = {}
    for u, v in combinations(nodes, 2):
        if g.has_edge(u, v):
            degs[u] = degs.get(u, 0) + 1
            degs[v] = degs.get(v, 0) + 1
    if any(degs.get(v, 0) != 2 for v in nodes):
        return False
    seen = {nodes[0]}
    frontier = [nodes[0]]
    inset = set(nodes)
    while frontier:
        u = frontier.pop()
        for w in g.neighbors(u):
            if w in inset and w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == len(nodes)


def chordless_cycles(g: Graph, min_len: int = 4):
    """Every node set of at least min_len nodes that induces a cycle, by
    trying each subset with `is_hole_by_pairs` (2^n of them: keep n small)."""
    for size in range(min_len, g.n + 1):
        for nodes in combinations(g.nodes, size):
            if is_hole_by_pairs(g, nodes):
                yield nodes


# ---------------------------------------------------------------------------
# the constructive odd-hole claim behind the web rank theorem

@dataclass(frozen=True)
class ConstructedHole:
    """Odd hole disjoint from a deletion set, with the recipe branch used.

    method is one of "constructive-a", "constructive-b", "fallback-search".
    """

    nodes: tuple
    method: str


def construct_odd_hole_avoiding(w: WebId, f) -> ConstructedHole:
    """Odd hole of W_n^k avoiding F, |F| = k-1, for n >= 3k+2.

    Follows the constructive case analysis over the families
    D_j = {j, j+k, ..., j+(s-1)k} and L_j = D_j + {j+sk} (indices mod n,
    n = s k + r).  Every candidate is re-verified as a chordless odd
    cycle disjoint from F; if a case does not apply cleanly the generic
    odd-hole search takes over and the result is tagged accordingly.
    """
    n, k = w.n, w.k
    if k < 2:
        raise ValueError("constructive odd-hole claim needs k >= 2")
    if n < 3 * k + 2:
        raise ValueError(
            f"W_{n}^{k}: the claim needs n >= 3k+2 = {3 * k + 2}"
        )
    f = as_nodeset(f)
    if len(f) != k - 1:
        raise ValueError(f"|F| must be k-1 = {k - 1}, got {len(f)}")
    g = web(n, k)
    fset = set(f)
    s, r = divmod(n, k)

    def D(j):
        return [mod1(j + t * k, n) for t in range(s)]

    def L(j):
        d = D(j)
        extra = mod1(j + s * k, n)
        return d if extra == d[0] else d + [extra]

    def verified(nodes, method):
        nodes = as_nodeset(nodes)
        if not set(nodes) & fset and is_odd_hole(g, nodes):
            return ConstructedHole(nodes, method)
        return None

    for cand in _recipe_candidates(n, k, s, r, fset, D, L):
        res = verified(*cand)
        if res is not None:
            return res

    hole = find_induced_odd_hole(delete_nodes(g, f))
    if hole is None:
        raise RuntimeError(
            f"no odd hole in W_{n}^{k} - F for F={f}; claim violated"
        )
    res = verified(hole, "fallback-search")
    if res is None:
        raise RuntimeError(f"odd hole {hole} of W_{n}^{k} - F for F={f} failed verification")
    return res


def _recipe_candidates(n, k, s, r, fset, D, L):
    """Candidate odd sets from the proof's case analysis, best first.

    Case a yields one candidate per index i with L_i disjoint from F;
    case b one per (rotation, offset) pair.  Each candidate is verified
    by the caller, so boundary quirks of the written recipe (wrap-around
    chords near the seam) just advance to the next candidate.
    """
    for i in range(1, n + 1):
        li = L(i)
        if set(li) & fset:
            continue
        if len(li) % 2 == 1:
            yield li, "constructive-a"
            continue
        di = D(i)
        tail = {mod1(i + (s - 2) * k, n), mod1(i + (s - 1) * k, n)}
        window_hit = False
        for t in di:
            ct = {mod1(t + a, n) for a in range(k)}
            if len(ct & fset) == k - 1:
                window_hit = True
                if t not in tail:
                    drop = mod1(t + 2 * k, n)
                    add = [mod1(t + 2 * k - 1, n), mod1(t + 2 * k + 1, n)]
                else:
                    drop = mod1(t - k, n)
                    add = [mod1(t - 1, n), mod1(t - k - 1, n)]
                yield [x for x in li if x != drop] + add, "constructive-a"
                break
        if window_hit:
            continue
        # every window around D_i has spare room; walk out of C_i instead
        l = max(a for a in range(k) if mod1(i + a, n) not in fset)
        if l == 0:
            continue
        c_next = {mod1(i + l + 1 + a, n) for a in range(k)}
        if len(c_next & fset) < k - 1:
            for m in range(1, l + 1):
                if mod1(i + k + m, n) not in fset:
                    drop = mod1(i + k, n)
                    add = [mod1(i + l, n), mod1(i + k + m, n)]
                    yield [x for x in li if x != drop] + add, "constructive-a"
                    break
        else:
            drop = mod1(i + 2 * k, n)
            add = [mod1(i + 2 * k - 1, n), mod1(i + 2 * k + 1, n)]
            yield [x for x in li if x != drop] + add, "constructive-a"
    if r == 0:
        return
    for b in range(1, n + 1):
        if set(D(b)) & fset or mod1(b + s * k, n) not in fset:
            continue
        shift = b - 1
        fs = {mod1(x - shift, n) for x in fset}

        def Ds(j):
            return [mod1(j + t * k, n) for t in range(s)]

        for j in range(r + 1, k + 1):
            if set(Ds(j)) & fs:
                continue
            if mod1(j + s * k, n) not in fs or j - r < 2:
                continue
            dprime = [1] + Ds(j)
            if len(dprime) % 2 == 1:
                yield [mod1(x + shift, n) for x in dprime], "constructive-b"
                continue
            hi = min(2 * k, j + k - 1)
            for jm in range(k + 2, hi + 1):
                if mod1(jm, n) not in fs:
                    nodes = [1, jm, 1 + 2 * k] + \
                        [x for x in Ds(j) if x != mod1(j + k, n)]
                    yield [mod1(x + shift, n) for x in nodes], "constructive-b"
                    break



# ---------------------------------------------------------------------------
# reports

def jsonable_by_isinstance(v):
    """The report encoder as one isinstance chain, Fraction first."""
    if isinstance(v, Fraction):
        return frac_to_str(v)
    if isinstance(v, bool) or v is None:
        return v
    if isinstance(v, int):
        return v
    if isinstance(v, (list, tuple)):
        return [jsonable_by_isinstance(x) for x in v]
    if isinstance(v, dict):
        return {str(k): jsonable_by_isinstance(x) for k, x in v.items()}
    return str(v)


# ---------------------------------------------------------------------------
# polyhedra

def matrix_rank(rows) -> int:
    """Rank over the rationals by the fraction-free elimination that
    starts the double description core (`polyhedra._echelon`)."""
    rows = [_intify([(j, v) for j, v in enumerate(r) if v])[0] for r in rows]
    ncols = max((max(r) + 1 for r in rows if r), default=0)
    return sum(1 for _ in _echelon(rows, ncols))


def affine_rank(points) -> int:
    """Dimension of the affine hull of the given points (-1 for none)."""
    pts = [list(p) for p in points]
    if not pts:
        return -1
    p0 = pts[0]
    diffs = [[a - b for a, b in zip(p, p0)] for p in pts[1:]]
    return matrix_rank(diffs) if diffs else 0


def tag_inequality_by_alpha(g: Graph, ineq: LinearInequality) -> str:
    """The family tag of a row by stability numbers: "clique" for x(S) <= 1
    on a clique S, "rank" for x(V) <= alpha(G), "one-interval" for any
    other x(S) <= alpha(G[S]), "nonneg" for -x_v <= 0, else "other"; the
    reference for `inequalities.tag_inequality`, which reads the tag off
    a facet."""
    key, rhs = ineq.canonical()
    ints = dict(key)
    if len(ints) == 1:
        (v, c), = ints.items()
        if c == -1 and rhs == 0:
            return "nonneg"
    if all(c == 1 for c in ints.values()) and rhs == 1:
        sup = list(ints)
        if all(g.has_edge(u, v) for i, u in enumerate(sup) for v in sup[i + 1:]):
            return "clique"
    if set(ints) == set(g.nodes) and all(c == 1 for c in ints.values()):
        if rhs == alpha(g):
            return "rank"
    if all(c == 1 for c in ints.values()) and rhs == alpha_induced(g, list(ints)):
        return "one-interval" if len(ints) < g.n else "rank"
    return "other"


def cone_extreme_rays_full_scan(m_rows) -> list:
    """Double description with an adjacency test that scans every ray for
    each candidate pair: the rays, in order, cone_extreme_rays must give."""
    rows = [_intify([(j, v) for j, v in enumerate(r) if v])[0] for r in m_rows]
    d = len(m_rows[0])
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
    zeros = [((1 << d) - 1) ^ (1 << j) for j in range(d)]
    in_basis = set(basis_idx)
    rest = [t for t in range(len(rows)) if t not in in_basis]
    for n, t in enumerate(rest, start=d):
        bit = 1 << n
        sig = [_dot(rows[t], r) for r in rays]
        plus = [i for i, s in enumerate(sig) if s > 0]
        minus = [i for i, s in enumerate(sig) if s < 0]
        new_rays = [rays[i] for i in plus] + [rays[i] for i, s in enumerate(sig) if s == 0]
        new_zeros = [zeros[i] for i in plus] + \
            [zeros[i] | bit for i, s in enumerate(sig) if s == 0]
        for i in plus:
            for j in minus:
                z = zeros[i] & zeros[j]
                if not _adjacent_full_scan(z, i, j, zeros, d):
                    continue
                comb = [sig[i] * rays[j][c] - sig[j] * rays[i][c] for c in range(d)]
                new_rays.append(_primitive(comb))
                new_zeros.append(z | bit)
        rays, zeros = new_rays, new_zeros
    return rays


def _adjacent_full_scan(z_common, i, j, zeros, d) -> bool:
    if z_common.bit_count() < d - 2:
        return False
    for k, zk in enumerate(zeros):
        if k != i and k != j and z_common & zk == z_common:
            return False
    return True


def dense(h: HPolytope, coeffs: dict) -> list:
    """coeffs as one Fraction per coordinate of h, in index order."""
    return [Fraction(coeffs.get(v, 0)) for v in h.index]


def enumerate_vertices(h: HPolytope) -> list:
    """Vertices of a bounded HPolytope via the homogenized cone.

    Used by the piecewise hull cross-checks of the disjunctive operator.
    """
    n = h.dim
    _check_hull_bound(n)
    m_rows = [[Fraction(1)] + [Fraction(0)] * n]           # x0 >= 0
    for r in h.rows:
        m_rows.append([r.rhs] + [-c for c in dense(h, r.coeffs)])
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
    if not contains(h, point):
        return False
    tight = []
    for r in h.rows:
        if evaluate(r, point) == r.rhs:
            tight.append(dense(h, r.coeffs))
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
    pos = {v: j for j, v in enumerate(h.index)}
    kept = []
    for i, r in enumerate(rows):
        others = kept + rows[i + 1:]
        lp = LinearProgram(len(h.index))
        for o in others:
            lp.add_le({pos[v]: c for v, c in o.coeffs.items()}, o.rhs)
        res = lp.solve({pos[v]: c for v, c in r.coeffs.items()})
        implied = res.status == "optimal" and res.value <= r.rhs
        implied = implied or res.status == "infeasible"
        if not implied:
            kept.append(r)
    return HPolytope(h.index, kept)


def feasible_sets_equal(h1: HPolytope, h2: HPolytope) -> bool:
    """Mutual LP implication: every row of each holds over the other."""
    return all(is_valid(r, h1)[0] for r in h2.rows) and \
        all(is_valid(r, h2)[0] for r in h1.rows)


def with_rows(h: HPolytope, extra) -> HPolytope:
    """h with the rows `extra` appended."""
    return HPolytope(h.index, list(h.rows) + list(extra))


def with_mixed_rows(h: HPolytope) -> HPolytope:
    """h with the rows x_v - x_w <= 1, w the coordinate after v along the
    index (cyclically): redundant in [0,1]^n, so every P_F and every rank
    stays, and rotation still maps h to itself when it did; but h is no
    longer down-closed, so a row search over it has no point bound and
    scans every size from 0."""
    nxt = dict(zip(h.index, h.index[1:] + h.index[:1]))
    return with_rows(h, [LinearInequality({v: 1, w: -1}, 1) for v, w in nxt.items()])


def polar_vertices(h: HPolytope, q: dict) -> list:
    """The vertices of a bounded h with q in its interior, from the facets
    of its polar: with s = b - a.q > 0 for each row a.x <= b of h, the
    polar of h - q is conv(a / s), and its facet d.p <= e (e > 0, as 0 is
    interior) is the vertex q + d / e of h."""
    points = []
    for r in h.rows:
        s = r.rhs - evaluate(r, q)
        points.append(tuple(Fraction(r.coeffs.get(v, 0)) / s for v in h.index))
    return [{v: q[v] + Fraction(facet.coeffs.get(v, 0)) / facet.rhs for v in h.index}
            for facet in convex_hull_facets(VPolytope(h.index, points))]


def polar_facets(v: VPolytope) -> list:
    """convex_hull_facets of v by the polar cone alone: the extreme rays
    (b, a), a != 0, of the cone of rows [1, -p], one per point p."""
    if not v.points:
        raise ValueError("polar_facets needs a full-dimensional point set")
    rays = cone_extreme_rays([[1, *(-c for c in p)] for p in v.points])
    return sorted((LinearInequality(dict(zip(v.index, ray[1:])), ray[0])
                   for ray in rays if any(ray[1:])), key=lambda r: r.canonical())


def as_dicts(vp: VPolytope) -> list:
    """The points of vp as dicts keyed by its index."""
    return [dict(zip(vp.index, p)) for p in vp.points]


def max_over(vp: VPolytope, objective: dict):
    """(value, best point dict) of a linear objective over the points."""
    dense_obj = [Fraction(objective.get(v, 0)) for v in vp.index]
    best, arg = None, None
    for p in vp.points:
        val = sum((c * x for c, x in zip(dense_obj, p)), Fraction(0))
        if best is None or val > best:
            best, arg = val, p
    return best, dict(zip(vp.index, arg))


def stable_sets_by_subsets(g: Graph) -> list:
    """Incidence vectors over g.nodes of every node subset that holds no
    edge, by trying all 2^n subsets."""
    edges = list(g.edges())
    out = []
    for bits in product((0, 1), repeat=g.n):
        chosen = {v for v, b in zip(g.nodes, bits) if b}
        if not any(u in chosen and v in chosen for u, v in edges):
            out.append(tuple(Fraction(b) for b in bits))
    return out


def rank_by_fractions(rows) -> int:
    """Rank of a rational matrix by Gaussian elimination in Fractions."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        i = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if i is None:
            continue
        rows[rank], rows[i] = rows[i], rows[rank]
        pivot = rows[rank]
        for r in rows[rank + 1:]:
            if r[col]:
                q = r[col] / pivot[col]
                r[:] = [a - q * b for a, b in zip(r, pivot)]
        rank += 1
    return rank


def is_facet(ineq: LinearInequality, g: Graph) -> bool:
    """Facet test against STAB(G): valid and tight on affine rank n-1.

    Raises when the inequality is not even valid for STAB(G), which is a
    different failure from being a valid non-facet.
    """
    vp = stab(g)
    val, arg = max_over(vp, ineq.coeffs)
    if val > ineq.rhs:
        raise ValueError(f"inequality {ineq} is not valid for STAB: violated by {arg}")
    coeffs = [ineq.coeffs.get(v, Fraction(0)) for v in vp.index]
    tight = [p for p in vp.points
             if sum((c * x for c, x in zip(coeffs, p)), Fraction(0)) == ineq.rhs]
    return affine_rank(tight) == g.n - 1


# ---------------------------------------------------------------------------
# the disjunctive operator

def fixed_rows_by_fractions(h: HPolytope, fixing: dict, col: dict):
    """`liftproject._fixed_rows` with every value of the rows of h made a
    Fraction first, so every value of its rows is a Fraction."""
    rows = []
    for i, r in enumerate(h.rows):
        coeffs, rhs = {}, Fraction(r.rhs)
        for v, c in r.coeffs.items():
            c = Fraction(c)
            z = fixing.get(v)
            if z is None:
                coeffs[col[v]] = c
            elif z == 1:
                rhs -= c
            elif z:
                rhs -= c * z
        if coeffs:
            rows.append((i, coeffs, rhs))
        elif rhs < 0:
            return None, i
    return rows, None


def lp_max_all_rows(h: HPolytope) -> LinearProgram:
    """The LP of `polyhedra.lp_max` over every row of h, the rows that
    x >= 0 implies included: the LP lp_max built before it left them out."""
    pos = {v: i for i, v in enumerate(h.index)}
    lp = LinearProgram(h.dim)
    for r in h.rows:
        lp.add_le({pos[v]: c for v, c in r.coeffs.items()}, r.rhs)
    return lp


def piece_lp_all_rows(h: HPolytope, fixing: dict):
    """(LP, the row of h behind each LP row) of the piece h n {x_F = z}
    over every row `liftproject._fixed_rows` returns, the rows that x >= 0
    implies included: the LP `PieceSystem` built before it left them out.
    None for an empty piece and for one with every coordinate fixed."""
    free = [v for v in h.index if v not in fixing]
    rows, _ = _fixed_rows(h, fixing, {v: i for i, v in enumerate(free)})
    if rows is None or not free:
        return None
    lp = LinearProgram(len(free))
    for _, coeffs, rhs in rows:
        lp.add_le(coeffs, rhs)
    return lp, [i for i, _, _ in rows]


def n_lift_rows(h: HPolytope, depth: int) -> tuple:
    """(keys, rows) of the lift of N^depth(h) as `liftproject.NLiftSystem`
    builds it, before the presolve: `_lift_rows` fed the coprime integer
    form of each row of h but those x >= 0 implies (`h._kept`)."""
    return _lift_rows(h.index, [h.rows[i].canonical() for i in h._kept], depth)


def n_lift_rows_by_fractions(h: HPolytope, depth: int) -> tuple:
    """`n_lift_rows` with `_lift_rows` fed the rows of h with every value
    made a Fraction (not their coprime integer form)."""
    return _lift_rows(h.index, [([(v, Fraction(c)) for v, c in r.coeffs.items()], Fraction(r.rhs))
                                for r in (h.rows[i] for i in h._kept)], depth)


class NLiftWithEqualities:
    """The lift LP of N^depth(h) with a diagonal of its own in every
    nested matrix: variables Y_00 and Y_jj tied to the column expr the
    matrix proves by the n+1 rows Y_jj = expr[j], and an x >= 0 row on
    every entry of every cone column.  `lp` is that LP after the presolve
    of `presolve_with_equalities`; `maximize` re-solves it warm."""

    def __init__(self, h: HPolytope, depth: int):
        self.h, self.nv = h, 0
        self.le, self.eq = [], []       # lift expressions: e <= 0, e = 0
        top = self._matrix({_ONE: 1})
        self.diag = {v: next(iter(top[j, j])) for j, v in enumerate(h.index, start=1)}
        self._columns(top, depth - 1)
        rows = [(e, -e.pop(_ONE, 0), "<=") for e in self.le] + \
               [(e, -e.pop(_ONE, 0), "=") for e in self.eq]
        rows, self.col = presolve_with_equalities(rows, self.nv)
        self.lp = LinearProgram(len(self.col))
        for coeffs, rhs, kind in rows:
            (self.lp.add_le if kind == "<=" else self.lp.add_eq)(coeffs, rhs)

    def _matrix(self, y00):
        n = self.h.dim
        mat = {(0, 0): y00}
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                mat[i, j] = mat[j, i] = {self.nv: 1}
                self.nv += 1
            mat[0, i] = mat[i, 0] = mat[i, i]
        return mat

    def _columns(self, mat, inner):
        n = self.h.dim
        for i in range(1, n + 1):
            col = [mat[j, i] for j in range(n + 1)]
            self._in_cone(col, inner)
            self._in_cone([_lin((1, mat[j, 0]), (-1, col[j])) for j in range(n + 1)], inner)

    def _in_cone(self, expr, inner):
        if inner:
            self.nv += 1
            mat = self._matrix({self.nv - 1: 1})
            self.eq.extend(_lin((1, mat[j, j]), (-1, expr[j])) for j in range(len(expr)))
            self._columns(mat, inner - 1)
            return
        pos = {v: j + 1 for j, v in enumerate(self.h.index)}
        self.le.extend(_lin((-1, e)) for e in expr)
        self.le.extend(_lin((-r.rhs, expr[0]), *((c, expr[pos[v]]) for v, c in r.coeffs.items()))
                       for r in (self.h.rows[i] for i in self.h._kept))

    def maximize(self, objective: dict):
        """The max of objective over N^depth(h)."""
        return self.lp.maximize({self.col[self.diag[v]]: c for v, c in objective.items()
                                 if c and self.diag[v] in self.col}).value


def presolve_with_equalities(rows, nv):
    """(rows, col): the (dict var->coefficient, rhs, kind) rows, kind "<="
    or "=", over nv variables >= 0, over the columns col numbers densely
    among the variables not forced to 0: a row with rhs 0 whose remaining
    coefficients are all positive, or for an = row all of one sign, forces
    its variables to 0, to a fixpoint; rows left empty, lone -x <= 0 rows
    and exact duplicates go."""
    zero, grew = set(), True
    while grew:
        grew = False
        for coeffs, rhs, kind in rows:
            live = [c for v, c in coeffs.items() if v not in zero]
            if not rhs and live and (min(live) > 0 or kind == "=" and max(live) < 0):
                zero.update(coeffs)
                grew = True
    col = {v: i for i, v in enumerate(v for v in range(nv) if v not in zero)}
    out = {}
    for coeffs, rhs, kind in rows:
        live = {col[v]: c for v, c in coeffs.items() if v not in zero}
        if not live:
            if rhs < 0 or kind == "=" and rhs:
                raise RuntimeError("inconsistent constant row in lift")
        elif len(live) > 1 or kind == "=" or rhs or min(live.values()) > 0:
            out.setdefault((kind, rhs, frozenset(live.items())), (live, rhs, kind))
    return list(out.values()), col


def piece_max_by_rows(h: HPolytope, objective: dict, fixing: dict):
    """max of objective over the piece h n {x_v = z_v for v in fixing} by
    lp_max over h plus the rows x_v <= z_v and -x_v <= -z_v, nothing
    substituted."""
    return lp_max(with_rows(h, [r for v, z in fixing.items()
                                for r in (LinearInequality({v: 1}, z),
                                          LinearInequality({v: -1}, -z))]), objective)


def satisfied_by(row: LinearInequality, point: dict) -> bool:
    return evaluate(row, point) <= row.rhs


def pt_matches(point: dict, fixing: dict) -> bool:
    """The point equals fixing[v] at each fixed coordinate v."""
    return all(point.get(v, Fraction(0)) == z for v, z in fixing.items())


def contains_by_fractions(h: HPolytope, point: dict) -> bool:
    """x in h, each row evaluated in Fractions (`contains` works in
    integers)."""
    return all(satisfied_by(r, point) for r in h.rows) and all(
        point.get(v, Fraction(0)) >= 0 for v in h.index)


def piece_bound_by_fractions(h: HPolytope, fixing: dict, y: dict, c: dict) -> Fraction:
    """`recheck._piece_bound` in Fraction arithmetic: the same checks in
    the same order, with the same messages, each multiplier parsed by
    Fraction."""
    bound = sum((c.get(v, 0) * z for v, z in fixing.items()), Fraction(0))
    ya = {}
    for i, yi in y.items():
        i, yi = int(i), Fraction(yi)
        if not (0 <= i < len(h.rows) and yi >= 0):
            raise CertificateError(f"multiplier {yi} on row {i}: negative or no such row")
        bound += yi * h.rows[i].rhs
        for v, a in h.rows[i].coeffs.items():
            z = fixing.get(v)
            if z is None:
                ya[v] = ya.get(v, 0) + yi * a
            elif z:
                bound -= yi * a
    for v in h.index:
        if v not in fixing and ya.get(v, 0) < c.get(v, 0):
            raise CertificateError(f"y.A falls short of the objective at coordinate {v}")
    return bound


def check_member_by_fractions(h: HPolytope, f, x: dict, multipliers) -> None:
    """`recheck.check_member` in Fraction arithmetic, x a point of
    Fractions: the same checks in the same order, with the same
    messages, each lambda and point parsed by Fraction."""
    combo = dict.fromkeys(h.index, Fraction(0))
    for m in multipliers:
        lam = Fraction(m["lambda"])
        q = {int(k): Fraction(v) for k, v in m["point"].items()}
        _require(lam > 0, "nonpositive multiplier")
        _require(contains_by_fractions(h, q), "piece point outside the relaxation")
        _require(set(m["z"]) <= {0, 1} and [q.get(v, 0) for v in f] == list(m["z"]),
                 "piece point violates its 0/1 pattern")
        combo = {v: s + lam * q.get(v, 0) for v, s in combo.items()}
    _require(sum(Fraction(m["lambda"]) for m in multipliers) == 1,
             "convex multipliers do not sum to 1")
    _require(combo == {v: x.get(v, 0) for v in h.index}, "x is not the convex combination")


def disjunctive_member_unreduced(x: dict, h: HPolytope, f):
    """disjunctive_member over the unreduced extended formulation: one
    y^z block of n variables and one lambda_z per piece z, empty pieces
    included, with x = sum_z y^z, A y^z <= lambda_z b, y^z_F = lambda_z z
    and sum lambda_z = 1 as they stand."""
    f = as_nodeset(f)
    _check_piece_cap(f)
    n = h.dim
    zs = list(product((0, 1), repeat=len(f)))
    npieces = len(zs)
    # variable layout: y^p (n each), then lambda_p
    nv = npieces * n + npieces
    lam0 = npieces * n
    pos = {v: i for i, v in enumerate(h.index)}
    lp = LinearProgram(nv)
    for p in range(npieces):
        base = p * n
        for r in h.rows:
            row = {base + pos[v]: c for v, c in r.coeffs.items()}
            row[lam0 + p] = -r.rhs
            lp.add_le(row, 0)
        for v, z in zip(f, zs[p]):
            lp.add_eq({base + pos[v]: 1, lam0 + p: -z}, 0)
    coord_rows = []
    for j, v in enumerate(h.index):
        coord_rows.append(len(lp.rows))
        lp.add_eq({p * n + j: 1 for p in range(npieces)}, Fraction(x.get(v, 0)))
    convex_row = len(lp.rows)
    lp.add_eq({lam0 + p: 1 for p in range(npieces)}, 1)
    res = lp.solve(None)
    if res.status == "optimal":
        mult = []
        for p in range(npieces):
            lam = res.x[lam0 + p]
            if lam == 0:
                continue
            pt = {v: res.x[p * n + j] / lam for j, v in enumerate(h.index)}
            if not (contains_by_fractions(h, pt) and pt_matches(pt, dict(zip(f, zs[p])))):
                raise CertificateError(f"point of piece z={zs[p]} lies outside it")
            mult.append({"z": zs[p], "lambda": lam, "point": pt})
        if sum(m["lambda"] for m in mult) != 1:
            raise CertificateError("convex multipliers do not sum to 1")
        for v in h.index:
            if sum((m["lambda"] * m["point"][v] for m in mult), Fraction(0)) \
                    != Fraction(x.get(v, 0)):
                raise CertificateError(f"coordinate {v} is not the convex combination")
        return True, {"f": f, "multipliers": mult}
    if res.status != "infeasible":
        raise RuntimeError(f"membership LP ended {res.status}")
    sep = LinearInequality({v: -res.farkas[coord_rows[j]] for j, v in enumerate(h.index)},
                           res.farkas[convex_row])
    if not evaluate(sep, {v: Fraction(x.get(v, 0)) for v in h.index}) > sep.rhs:
        raise CertificateError("separating inequality does not cut off the point")
    if not disjunctive_valid(sep, h, f)[0]:
        raise CertificateError("separating inequality is violated on a piece")
    return False, {"f": f, "point": dict(x), "separating": sep.to_json()}


def disjunctive_rank_graph_polyhedral(g: Graph) -> int:
    """The disjunctive rank of g by its definition: the smallest |F| with
    every STAB facet valid for P_F(qstab), F by ascending size and then
    lexicographically (orbit-anchored for circulants, as
    rank.disjunctive_rank_graph is)."""
    facets = convex_hull_facets(stab(g))
    h = qstab(g)
    for m in range(h.dim + 1):
        for f in _f_candidates(h.index, m, is_circulant(g)):
            if all(disjunctive_valid(row, h, f)[0] for row in facets):
                return m
    raise RuntimeError(f"no F of size <= {h.dim} makes the facets valid")


def minimally_imperfect_certificate(g: Graph):
    """("odd-hole", nodes) for an induced odd hole of g, ("odd-antihole",
    nodes) for one of its complement, or None when g is perfect: the
    reference for `rank._imperfect`, with no shared odd-hole answers."""
    hole = find_induced_odd_hole(g)
    if hole is not None:
        return ("odd-hole", hole)
    hole = find_induced_odd_hole(complement(g))
    if hole is not None:
        return ("odd-antihole", hole)
    return None


def hitting_search_by_frozensets(g: Graph, size: int, pool: list, seed=()):
    """The graph-rank search of `rank.disjunctive_rank_graph` on label
    sets, with no shared odd-hole answers: every visited F meeting the
    pool runs its own odd-hole searches."""
    visited = set()
    members = [frozenset(c[1]) for c in pool]       # node sets, in pool order

    def rec(fset):
        key = frozenset(fset)
        if key in visited:
            return None
        visited.add(key)
        unhit = next((c for c, nodes in zip(pool, members) if fset.isdisjoint(nodes)), None)
        if unhit is None:
            gg = delete_nodes(g, fset) if fset else g
            cert = minimally_imperfect_certificate(gg)
            if cert is None:
                return as_nodeset(fset)
            pool.append(cert)
            members.append(frozenset(cert[1]))
            unhit = cert
        if len(fset) >= size:
            return None
        for v in unhit[1]:
            got = rec(fset | {v})
            if got is not None:
                return got
        return None

    return rec(set(seed))


def pool_refutes_all(g: Graph, pool, size: int, anchor=None) -> bool:
    """Every size-`size` set of g's nodes misses a pool member, by trying
    each one; with `anchor`, only the sets that hold it."""
    for f in combinations(g.nodes, size):
        if anchor is not None and anchor not in f:
            continue
        if all(set(c[1]) & set(f) for c in pool):
            return False
    return True


def hitting_set_by_full_scan(masks: list, size: int, seed: int = 0, refute=None):
    """`recheck.hitting_set` with every node scanning the masks from the
    first one, not from one past the mask its parent branched on."""
    @cache
    def rec(f):
        _check_deadline()
        miss = next((m for m in masks if not m & f), None)
        if miss is None:
            if refute is None or (miss := refute(f)) is None:
                return f
            masks.append(miss)
        if f.bit_count() >= size:
            return None
        for i in _bits(miss):
            if (got := rec(f | 1 << i)) is not None:
                return got
        return None

    return rec(seed)


def disjunctive_rank_graph_uncached(g: Graph) -> GraphRankResult:
    """`rank.disjunctive_rank_graph` on `hitting_search_by_frozensets`,
    ending in a fresh perfection check of g - F."""
    if g.n > RANK_SEARCH_BOUND:
        raise ResourceCapExceeded(f"graph rank search bound exceeded: n={g.n}")
    cert = minimally_imperfect_certificate(g)
    if cert is None:
        return GraphRankResult(0, (), ())
    anchored = is_circulant(g)
    pool = [cert]
    seed = (g.nodes[0],) if anchored else ()
    for r in range(1, g.n):
        f = hitting_search_by_frozensets(g, r, pool, seed=seed)
        if f is not None:
            if len(f) != r or not is_perfect(delete_nodes(g, f)):
                raise RuntimeError(f"hitting-set search returned {f}, not {r} deletions "
                                   "leaving a perfect graph")
            return GraphRankResult(r, f, tuple(pool))
    raise RuntimeError(f"no deletion set of size < {g.n} leaves a perfect graph")
