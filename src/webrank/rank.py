"""Rank computations with certificates, and the formula verifiers.

The ranks of one row are ascending searches for the first level at
which it is valid: the disjunctive rank is the smallest |F| with the
row valid for P_F(h), the N-rank the smallest r with it valid for
N^r(h), where N^0(h) = h.  The N-rank of a graph is the smallest r with
every facet of STAB valid for N^r(QSTAB).  One candidate generator
lists the m-subsets F in lexicographic order, or only those holding
the first coordinate when rotation along the index maps the row and the
system to themselves (`polyhedra.rotation_invariant`).  On a down-closed
system the row search starts at the point bound: one point u of h such
that u with any m coordinates set to 0 still violates the row refutes
every F with |F| <= m (`recheck.point_bound`), with no LP; that is the
paper's point 1/w off T for the antiweb constraint, for any row.  Each F
rejected from the bound up leaves its violating point, so a row rank is
certified by the witness F, the bound point, and when the bound is below
the rank the points that `recheck` finds to refute every F of size
rank-1.

The disjunctive rank of a graph is the minimum number of nodes whose
deletion leaves a perfect graph, since P_F(QSTAB(G)) = STAB(G) exactly
when G - F is perfect (the lemma `recheck` states).  The search is an
implicit hitting set over discovered minimally imperfect induced
subgraphs (odd holes / odd antiholes), run by `recheck.hitting_set`: a
candidate deletion set must hit every certificate in the pool, one
that does is refuted by an odd hole or antihole of G - F, and
exhaustion of the tree at size m proves that every m-subset misses
some recorded certificate.  It is anchored at node 1 when rotation is
an automorphism of the graph (`graphs.is_circulant`).  Both searches
skip dead work and keep every answer and their scan orders: the
odd-hole DFS cuts a path whose extensions reach no closing node through
the nodes a longer path may use (a flood over the adjacency masks), and
each hitting-set node scans the pool and its branch bits in plain
loops, with no generator.

Each odd-hole search runs once per graph.  The answers of the last
graph-rank search stay in `_HOLES`, keyed by graph, and the next search
reuses them when it runs on the same graph or on its complement; any
other graph empties the cache first, so it holds one web/antiweb pair
at most.  An antiweb is the complement of a web, and G - F of the one
is the complement of G - F of the other (Lovász: a graph is perfect
exactly when its complement is), so `verify_web_rank_formulas` ranks
each antiweb mostly from its web's answers.  A cached answer still
checks the deadline, and a deletion set other than the one found is a
graph the cache lacks, so the closing perfection check stays a real
search.  `recheck` never reads the cache.  It proves G - F perfect by
`graphs.is_perfect`: a chordality test of G - F and of its complement
first (a chordal graph and its complement are perfect), which settles
most certificates of the web and antiweb table, else its own odd-hole
searches.  The search here keeps its odd-hole route: most graphs it
meets have an odd hole, which that route finds fast, so a chordality
test first costs more than it saves.

Everything reported carries a machine-checkable certificate; the
verify_* suites compare computed values against the closed-form ranks
and never silently trust external facts (entries for those are marked
"assumed").
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd

from .graphs import (
    AntiwebId,
    ResourceCapExceeded,
    Graph,
    WebId,
    _check_deadline,
    _check_depth_cap,
    antiweb,
    complement,
    delete_nodes,
    find_induced_odd_hole,
    is_circulant,
    is_subweb,
    max_weight_stable_set,
    omega,
    read_family,
    to_json_dict,
    web,
)
from .inequalities import (
    JoinBlocks,
    antiweb_constraint,
    joined_inequality,
    one_interval_inequality,
    enumerate_one_interval_sets,
    rank_constraint,
    w2_description,
)
from .liftproject import (
    disjunctive_member,
    disjunctive_valid,
    min_piece_max,
    n_operator_max,
    n_operator_valid,
    piece_lp_max,  # noqa: F401  (bench/tests/test_bench.py patches this binding)
    piece_systems,
)
from .polyhedra import (
    HPolytope,
    LinearInequality,
    convex_hull_facets,
    is_valid,
    lp_max,
    qstab,
    rotation_invariant,
    stab,
)
from .recheck import down_closed, hitting_set, point_bound
from .reporting import Report, frac_to_str

RANK_SEARCH_BOUND = 25


@dataclass
class GraphRankResult:
    """Exact disjunctive rank of a graph with both-sided witnesses.

    deletion_set makes the graph perfect; lower_bound_witnesses is the
    certificate pool from the exhausted hitting-set search at size
    rank-1 (every smaller deletion set misses one of them; on a
    circulant graph the pool refutes the sets containing node 1, which
    covers everything by rotation, as `recheck` checks).
    """

    rank: int
    deletion_set: tuple
    lower_bound_witnesses: tuple

    def to_json(self, g: Graph) -> dict:
        return {
            "type": "graph-rank",
            "graph": to_json_dict(g),
            "rank": self.rank,
            "deletion_set": list(self.deletion_set),
            "pool": [{"type": kind, "nodes": list(nodes)}
                     for kind, nodes in self.lower_bound_witnesses],
        }


@dataclass
class IneqRankResult:
    """Disjunctive rank of one row: witness F, its pieces, the point
    bound and the violations of the F scanned from the bound up."""

    rank: int
    witness_f: tuple
    violating_points: list = field(default_factory=list)  # (F, point dict)
    pieces: list = field(default_factory=list)             # of the witness F
    bound: int = 0                  # every F smaller than this is refuted by bound_point
    bound_point: dict | None = None

    def to_json(self, ineq: LinearInequality, h: HPolytope) -> dict:
        cert = {
            "type": "ineq-rank",
            "row": ineq.to_json(),
            "system": h.to_json(),
            "rank": self.rank,
            "witness_f": self.witness_f,
            "pieces": self.pieces,
            "bound": self.bound,
            "violations": [{"point": pt} for _, pt in self.violating_points],
        }
        if self.bound_point is not None:
            cert["bound_point"] = self.bound_point
        return cert


_HOLES: dict = {}       # Graph -> its first odd hole or None, for the last search's graphs
_HOLES_ROOT = None      # the graph that search started on


def _hole(g: Graph):
    """find_induced_odd_hole(g), looked up in _HOLES first; only completed
    answers are stored, and a lookup still checks the deadline."""
    try:
        hole = _HOLES[g]
    except KeyError:
        hole = _HOLES[g] = find_induced_odd_hole(g)
    else:
        _check_deadline()
    return hole


def _imperfect(g: Graph):
    """("odd-hole", nodes) for an induced odd hole of g, ("odd-antihole",
    nodes) for one of its complement, or None when g is perfect; G - F
    of an antiweb is the complement of G - F of its web, so `_hole`
    answers the two searches of a pair from the same graphs."""
    hole = _hole(g)
    if hole is not None:
        return ("odd-hole", hole)
    hole = _hole(complement(g))
    if hole is not None:
        return ("odd-antihole", hole)
    return None


def disjunctive_rank_graph(g: Graph) -> GraphRankResult:
    """Minimum deletions to a perfect graph = the disjunctive rank.

    Ascending implicit hitting-set search (`recheck.hitting_set`); for
    circulant graphs a nonempty deletion set is anchored at node 1
    (exact by symmetry).  The odd-hole answers of the last search are
    kept for a search on the same graph or its complement (`_HOLES`).
    """
    global _HOLES_ROOT
    if g.n > RANK_SEARCH_BOUND:
        raise ResourceCapExceeded(f"graph rank search bound exceeded: n={g.n}")
    if _HOLES_ROOT is None or g != _HOLES_ROOT and complement(g) != _HOLES_ROOT:
        _HOLES.clear()
    _HOLES_ROOT = g
    cert = _imperfect(g)
    if cert is None:
        return GraphRankResult(0, (), ())
    anchored = is_circulant(g)
    pool, pos = [cert], g._pos
    masks = [sum(1 << pos[v] for v in cert[1])]

    def refute(fmask):
        found = _imperfect(delete_nodes(g, g._labels_of(fmask)))
        if found is None:
            return None
        pool.append(found)
        return sum(1 << pos[v] for v in found[1])

    for r in range(1, g.n):
        fmask = hitting_set(masks, r, 1 if anchored else 0, refute)
        if fmask is not None:
            f = g._labels_of(fmask)
            if len(f) != r or _imperfect(delete_nodes(g, f)):
                raise RuntimeError(f"hitting-set search returned {f}, not {r} deletions "
                                   "leaving a perfect graph")
            return GraphRankResult(r, f, tuple(pool))
    raise RuntimeError(f"no deletion set of size < {g.n} leaves a perfect graph")


# ---------------------------------------------------------------------------
# the ascending searches over F and over the N depth

def _f_candidates(index, m: int, anchored: bool):
    """The m-subsets of index in lexicographic order; when anchored, only
    those holding index[0]."""
    if anchored and m:
        return ((index[0],) + rest for rest in combinations(index[1:], m - 1))
    return combinations(index, m)


def _smallest_depth(rows, h: HPolytope, rmax: int):
    """Smallest r <= rmax with every row valid for N^r(h), where
    N^0(h) = h; None when there is none.  N^(r+1)(h) lies in N^r(h), so
    a row valid at depth r stays valid, and each depth checks only the
    rows the depths before it left undecided."""
    for r in range(rmax + 1):
        rows = [row for row in rows
                if not (n_operator_valid(row, h, r) if r else is_valid(row, h))[0]]
        if not rows:
            return r
    return None


def _uniform_bound(ineq: LinearInequality, h: HPolytope) -> tuple:
    """(`recheck.point_bound`, u) for u = t on every coordinate, t the
    least b / a(row) over the rows whose coefficient sum a(row) is
    positive (1/omega on QSTAB); (0, None) without such a row, when u
    lies outside h or when it refutes no F."""
    t = min((Fraction(r.rhs, a) for r in h.rows if (a := sum(r.coeffs.values())) > 0),
            default=None)
    if t is None or not h.holds(num := dict.fromkeys(h.index, t.numerator), t.denominator):
        return 0, None
    bound = point_bound(h, ineq, num, t.denominator)
    return (bound, dict.fromkeys(h.index, t)) if bound else (0, None)


def disjunctive_rank_inequality(ineq: LinearInequality, h: HPolytope,
                                graph: Graph | None = None) -> IneqRankResult:
    """Smallest |F| with the row valid for P_F(h): the first valid F by
    size, then lexicographically, from the point bound up, with the
    violating point of each F rejected on the way.

    On a down-closed h (`recheck.down_closed`) the uniform point
    (`_uniform_bound`) refutes every F below its `recheck.point_bound`,
    with no LP.  A nonempty F holds the first coordinate when rotation
    along h.index maps the row and h to themselves (`rotation_invariant`).
    Given the graph of h = QSTAB(graph), the row is first checked valid
    for STAB(graph) by a maximum-weight stable set search.
    """
    if graph is not None:
        val, arg = max_weight_stable_set(graph, ineq.coeffs)
        if val > ineq.rhs:
            raise ValueError(f"row {ineq} invalid for the integer hull at the "
                             f"stable set {list(arg)}")
    anchored, violations = rotation_invariant(ineq, h), []
    bound, point = _uniform_bound(ineq, h) if down_closed(h) else (0, None)
    for m in range(bound, h.dim + 1):
        for f in _f_candidates(h.index, m, anchored):
            ok, cert = disjunctive_valid(ineq, h, f)
            if ok:
                return IneqRankResult(m, f, violations, cert["pieces"], bound, point)
            violations.append((f, cert["point"]))
    raise RuntimeError(f"no F of size <= {h.dim} makes the row valid")


def n_rank_graph_upto(g: Graph, rmax: int):
    """Smallest r <= rmax with N^r(qstab) = STAB, else None.

    Equality holds iff every facet of STAB(g), from the hull, is valid
    for the lift.
    """
    return _smallest_depth(convex_hull_facets(stab(g)), qstab(g), rmax)


def n_rank_inequality_upto(ineq: LinearInequality, h: HPolytope, rmax: int):
    """Smallest r <= rmax with the row valid for N^r(h), else None.

    r = 0 means the row already holds for h itself (rank-of-row
    semantics aligned between the two operators).  An rmax over the
    depth cap is refused up front.
    """
    _check_depth_cap(rmax)
    return _smallest_depth([ineq], h, rmax)


# ---------------------------------------------------------------------------
# closed-form ranks

def formula_web_rank(n: int, k: int) -> int:
    """r_d(W_n^k): parity for k=1; n-2(k+1) up to 3k+2, then k."""
    WebId(n, k)
    if k == 1:
        return 0 if n % 2 == 0 else 1
    if n >= 3 * k + 2:
        return k
    return n - 2 * (k + 1)


# ---------------------------------------------------------------------------
# verify suites

def verify_web_rank_formulas(ks=(2, 3, 4), n_max: int = 16,
                             complements: bool = True) -> Report:
    """Computed web ranks vs the closed forms, and complement invariance.

    N-rank facts that need lifts this suite does not run (the webs
    W_{s(k+1)+k}^k with k >= 3, and the subweb-based N lower bound) are
    never asserted: their combinatorial subweb ingredient is checked
    and the external equality is reported with status "assumed".
    """
    rep = Report("web-formulas", {"ks": list(ks), "n_max": n_max,
                                  "complements": complements})
    for k in ks:
        for n in range(2 * (k + 1), n_max + 1):
            g = web(n, k)
            expected = formula_web_rank(n, k)
            res = disjunctive_rank_graph(g)
            rep.check(f"r_d(W:{n}:{k})", expected, res.rank,
                      certificate=res.to_json(g))
            if complements:
                gc = complement(g)
                res_c = disjunctive_rank_graph(gc)
                rep.check(f"r_d(A:{n}:{k + 1})", res.rank, res_c.rank,
                          detail="complement invariance",
                          certificate=res_c.to_json(gc))
            _flag_n_rank_assumptions(rep, n, k)
    return rep


def _flag_n_rank_assumptions(rep: Report, n: int, k: int):
    """Assumption entries for the deep-lift N-rank facts at this web."""
    s, r = divmod(n, k + 1)
    if k >= 3 and r == k and s >= 2:
        rep.add(f"N-rank(W:{n}:{k}) = {k}", "assumed",
                detail=f"needs an N^{k - 1} lift that this suite does not run; "
                       f"external fact, not asserted")
    if k >= 3 and s >= 3 and 0 <= r <= k - 1:
        t = -((-k * (1 + r)) // (r + s))
        kp = k - t
        if kp >= 1:
            np_ = (s - 1) * (kp + 1) + kp
            ok = is_subweb(WebId(np_, kp), WebId(n, k))
            rep.check(f"subweb ingredient W:{np_}:{kp} <= W:{n}:{k}", True, ok,
                      detail="combinatorial ingredient of the N lower bound")
            rep.add(f"N-rank(W:{n}:{k}) >= {kp}", "assumed",
                    detail="rests on the subweb's external N-rank; not asserted")


def verify_rdfar(a: AntiwebId) -> Report:
    """The antiweb-constraint rank theorem on one prime antiweb.

    (i) validity under the proof's deletion set F = {wk+1, ..., wk+beta};
    (ii) for every |T| = beta-1 the point at 1/w off T lies in
    P_T(qstab) and violates the row; (iii) minimal-F search agrees with
    n - w k.  Each point of (ii) is 0/1 on T, so its membership needs no
    LP.
    """
    if not a.prime:
        raise ValueError(f"A_{a.n}^{a.k} is not prime (gcd={gcd(a.n, a.k)}); "
                         "theorem hypothesis rejected")
    n, k = a.n, a.k
    g = antiweb(n, k)
    h = qstab(g)
    row = antiweb_constraint(a)
    w = n // k
    beta = n - w * k
    rep = Report("rdfar", {"antiweb": f"A:{n}:{k}"})
    rep.check(f"omega(A:{n}:{k})", w, omega(g), detail="clique number floor(n/k)")
    system = h.to_json()        # self-contained certificates for `recheck`

    f_proof = tuple(range(w * k + 1, w * k + beta + 1))
    ok, cert = disjunctive_valid(row, h, f_proof)
    rep.check(f"valid under proof F={list(f_proof)}", True, ok,
              certificate={**cert, "type": "disjunctive-validity", "system": system,
                           "row": row.to_json(), "valid": ok})

    for tset in combinations(g.nodes, beta - 1):
        xbar = {v: (Fraction(0) if v in tset else Fraction(1, w)) for v in g.nodes}
        total = sum(xbar.values())
        member, mcert = disjunctive_member(xbar, h, tset)
        okt = member and total > row.rhs
        rep.check(f"violating point off T={list(tset)}", True, okt,
                  detail=f"x(V) = {frac_to_str(total)} > {row.rhs}",
                  certificate={**mcert, "type": "membership", "system": system,
                               "point": xbar, "member": member})

    res = disjunctive_rank_inequality(row, h, graph=g)
    rep.check(f"r_d(antiweb row A:{n}:{k})", beta, res.rank,
              certificate=res.to_json(row, h))
    return rep


def verify_join_bound(blocks: JoinBlocks) -> Report:
    """Join superadditivity of row ranks and the induced graph bound."""
    host = blocks.host
    rep = Report("join", {"blocks": [list(b) for b in blocks.blocks],
                          "tags": list(blocks.tags)})
    hq = qstab(host)
    block_ranks = []
    formula_sum = 0
    for blk, tag, bg in zip(blocks.blocks, blocks.tags, blocks.block_graphs()):
        row = rank_constraint(bg)
        res = disjunctive_rank_inequality(row, qstab(bg), graph=bg)
        block_ranks.append(res.rank)
        rep.add(f"r_d(rank row of block {tag or list(blk)})", "info",
                computed=res.rank)
        family = read_family(tag) if tag else None
        if family and family[0] == "antiweb":
            formula_sum += family[1] % family[2]
    if len(blocks.blocks) == 1:
        joined = rank_constraint(blocks.block_graphs()[0])
    else:
        joined = joined_inequality(blocks)
    res_j = disjunctive_rank_inequality(joined, hq, graph=host)
    rep.add("r_d(joined row)", "info", computed=res_j.rank,
            certificate=res_j.to_json(joined, hq))
    rep.check("joined rank >= sum of block ranks",
              True, res_j.rank >= sum(block_ranks),
              detail=f"{res_j.rank} >= {'+'.join(map(str, block_ranks))}")
    host_res = disjunctive_rank_graph(host)
    rep.add("r_d(host)", "info", computed=host_res.rank,
            certificate=host_res.to_json(host))
    rep.check("r_d(host) >= r_d(joined row)", True, host_res.rank >= res_j.rank)
    if formula_sum:
        rep.check("r_d(host) >= sum(n_i - w_i k_i) over antiweb blocks",
                  True, host_res.rank >= formula_sum,
                  detail=f"{host_res.rank} >= {formula_sum}")
    return rep


def verify_w2_description(n_values=(6, 7, 8, 9, 10)) -> Report:
    """Dahl's description equals the stable set polytope for W_n^2.  Each
    1-interval alpha(T) is searched once; a mismatch gives no row."""
    rep = Report("w2", {"n_values": list(n_values)})
    for n in n_values:
        g = web(n, 2)
        w = WebId(n, 2)
        ones, mism = [], 0
        for s in enumerate_one_interval_sets(n):
            try:
                ones.append(one_interval_inequality(w, s))
            except RuntimeError:
                mism += 1
        desc = HPolytope(g.nodes, w2_description(n, ones))
        hull = HPolytope(g.nodes, convex_hull_facets(stab(g)))
        missing = [r for r in hull.rows if not is_valid(r, desc)[0]]
        extra = [r for r in desc.rows if not is_valid(r, hull)[0]]
        rep.check(f"description(W:{n}:2) = conv(STAB)", True,
                  not missing and not extra,
                  detail=f"{len(desc.rows)} assembled rows vs {len(hull.rows)} facets",
                  certificate=None if not (missing or extra) else
                  {"missing": [str(r) for r in missing],
                   "extra": [str(r) for r in extra]})
        rep.check(f"closed-form alpha(T) matches search (n={n})", 0, mism,
                  detail="per 1-interval set")
    return rep


def verify_operator_sandwich(n_max: int = 9, objectives: int = 20,
                             seed: int = 0) -> Report:
    """max STAB <= max N(K) <= min_j max P_j(K) <= max K on random
    objectives, K = QSTAB of a web.

    The third term, the least of the maxima over the single pieces
    P_j(K), bounds the max over their intersection from above.  The max
    over STAB is a maximum-weight stable set search (no enumeration, so
    no cap on n).  The 2n piece systems K n {x_j = z}, the N lift and the
    LP of K are each built once per web and re-solved from their last
    optimal basis for each objective.  The max over K comes first, and
    its certified optimum x* settles the two terms between: when x* is
    0/1 it lies in N(K), which lies in K, so max N(K) = max K with no
    lift LP (`n_operator_max`'s `known`); and each j with x*_j in {0, 1}
    has a piece that holds x*, so max P_j(K) = max K, and only the j
    where x* is fractional get piece LPs (`min_piece_max`).  Of the piece
    and lift maxima only values are read, so no point of theirs is
    built.  Each objective checks the deadline before its stable set
    search, which has none of its own.
    """
    rep = Report("operators", {"n_max": n_max, "objectives": objectives,
                               "seed": seed})
    rng = random.Random(seed)
    for k in range(1, n_max // 2):
        for n in range(2 * (k + 1), n_max + 1):
            g = web(n, k)
            h = qstab(g)
            pieces = [piece_systems(h, (j,)) for j in g.nodes]
            bad = []
            for _ in range(objectives):
                _check_deadline()
                c = {v: Fraction(rng.randint(0, 9)) for v in g.nodes}
                smax = max_weight_stable_set(g, c)[0]
                qmax = lp_max(h, c)
                nmax = n_operator_max(c, h, 1, known=qmax).value
                inter = min_piece_max(pieces, c, qmax)
                if not (smax <= nmax <= inter <= qmax.value):
                    bad.append({"objective": {v: int(x) for v, x in c.items()},
                                "chain": [smax, nmax, inter, qmax.value]})
            rep.check(f"sandwich chain W:{n}:{k}", 0, len(bad),
                      detail=f"{objectives} seeded objectives",
                      certificate={"violations": bad} if bad else None)
    return rep
