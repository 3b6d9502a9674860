"""Rank computations with certificates, and the formula verifiers.

The disjunctive rank of a graph equals the minimum number of nodes
whose deletion leaves a perfect graph, so the graph-side search is an
implicit hitting set over discovered minimally imperfect induced
subgraphs (odd holes / odd antiholes): a candidate deletion set must
hit every certificate in the pool, branching happens on the nodes of
an unhit certificate, and exhaustion of the tree at size m proves that
every m-subset misses some recorded certificate.  For circulant inputs
(webs, antiwebs) one element of a nonempty deletion set is pinned to
node 1, which is exact by rotational symmetry.

Inequality ranks search deletion-set sizes in ascending order: the
rank is the smallest |F| with the row valid for P_F, certified by the
witness F plus violating points for the probed smaller sets.  N-ranks
of rows use the lift LP at increasing depth.

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
    alpha,
    antiweb,
    as_nodeset,
    complement,
    delete_nodes,
    find_induced_odd_hole,
    is_circulant,
    is_perfect,
    is_subweb,
    omega,
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
    stab_description_w2_polytope,
)
from .liftproject import (
    LiftCertificate,
    PieceSystem,
    disjunctive_member,
    disjunctive_valid,
    n_operator_max,
    n_operator_valid,
    piece_lp_max,  # noqa: F401  (bench/tests/test_bench.py patches this binding)
    piece_max,
)
from .polyhedra import (
    HPolytope,
    LinearInequality,
    convex_hull_facets,
    frac_to_str,
    is_valid,
    lp_max,
    qstab,
    stab,
)
from .reporting import Report

RANK_SEARCH_BOUND = 25


@dataclass
class GraphRankResult:
    """Exact disjunctive rank of a graph with both-sided witnesses.

    deletion_set makes the graph perfect; lower_bound_witnesses is the
    certificate pool from the exhausted hitting-set search at size
    rank-1 (every smaller deletion set misses one of them; when
    `anchored` is set the pool refutes the sets containing node 1,
    which covers everything by rotation).
    """

    rank: int
    deletion_set: tuple
    lower_bound_witnesses: tuple
    anchored: bool = False

    def to_json(self, g: Graph) -> dict:
        return {
            "type": "graph-rank",
            "graph": to_json_dict(g),
            "rank": self.rank,
            "deletion_set": list(self.deletion_set),
            "anchored": self.anchored,
            "perfection": {"type": "perfection", "graph": to_json_dict(g),
                           "deletion_set": list(self.deletion_set)},
            "pool": [{"type": "odd-hole" if kind == "odd-hole" else "odd-antihole",
                      "graph": to_json_dict(g), "nodes": list(nodes)}
                     for kind, nodes in self.lower_bound_witnesses],
        }


@dataclass
class IneqRankResult:
    """Disjunctive rank of one row: witness F plus probed violations."""

    rank: int
    witness_f: tuple
    violating_points: list = field(default_factory=list)  # (F, point dict)
    exhaustive: bool = False

    def to_json(self, ineq: LinearInequality, h: HPolytope) -> dict:
        return {
            "type": "ineq-rank",
            "row": ineq.to_json(),
            "system": h.to_json(),
            "rank": self.rank,
            "witness_f": list(self.witness_f),
            "exhaustive": self.exhaustive,
            "violations": [
                {"type": "violating-point", "system": h.to_json(),
                 "f": list(f), "row": ineq.to_json(),
                 "point": {str(k): frac_to_str(v) for k, v in sorted(pt.items())}}
                for f, pt in self.violating_points
            ],
        }


def minimally_imperfect_certificate(g: Graph, deadline=None):
    """An induced odd hole of g or of its complement, or None."""
    h = find_induced_odd_hole(g, deadline=deadline)
    if h is not None:
        return ("odd-hole", h)
    hc = find_induced_odd_hole(complement(g), deadline=deadline)
    if hc is not None:
        return ("odd-antihole", hc)
    return None


def _hitting_search(g: Graph, size: int, pool: list, seed=(), deadline=None):
    """F with seed <= F, |F| <= size and g-F perfect, or None (pool grows)."""
    visited = set()

    def rec(fset):
        key = frozenset(fset)
        if key in visited:
            return None
        visited.add(key)
        unhit = next((c for c in pool if not set(c[1]) & fset), None)
        if unhit is None:
            gg = delete_nodes(g, fset) if fset else g
            cert = minimally_imperfect_certificate(gg, deadline)
            if cert is None:
                return as_nodeset(fset)
            pool.append(cert)
            unhit = cert
        if len(fset) >= size:
            return None
        for v in unhit[1]:
            got = rec(fset | {v})
            if got is not None:
                return got
        return None

    return rec(set(seed))


def disjunctive_rank_graph(g: Graph, max_rank=None, deadline=None) -> GraphRankResult:
    """Minimum deletions to a perfect graph = the disjunctive rank.

    Ascending implicit hitting-set search; for circulant graphs a
    nonempty deletion set is anchored at node 1 (exact by symmetry).
    """
    if g.n > RANK_SEARCH_BOUND:
        raise ResourceCapExceeded(f"graph rank search bound exceeded: n={g.n}")
    if max_rank is None:
        max_rank = g.n - 1
    anchored = is_circulant(g)
    pool = []
    if is_perfect(g, deadline=deadline):
        return GraphRankResult(0, (), (), anchored=False)
    pool.append(minimally_imperfect_certificate(g, deadline))
    for r in range(1, max_rank + 1):
        seed = (g.nodes[0],) if anchored else ()
        f = _hitting_search(g, r, pool, seed=seed, deadline=deadline)
        if f is not None:
            if len(f) != r or not is_perfect(delete_nodes(g, f), deadline=deadline):
                raise RuntimeError(f"hitting-set search returned {f}, not {r} deletions "
                                   "leaving a perfect graph")
            return GraphRankResult(r, f, tuple(pool), anchored=anchored)
    raise RuntimeError("rank search exhausted max_rank without success")


def pool_refutes_all(g: Graph, pool, size: int, anchor=None) -> bool:
    """Spot-check: every size-`size` deletion set misses a pool member.

    With `anchor` only the sets containing it are checked (the rest are
    covered by the rotational symmetry that justified anchoring).
    """
    nodes = g.nodes
    for f in combinations(nodes, size):
        if anchor is not None and anchor not in f:
            continue
        if all(set(c[1]) & set(f) for c in pool):
            return False
    return True


def disjunctive_rank_graph_polyhedral(g: Graph, hull_bound: int = 12,
                                      stab_bound: int = 18,
                                      piece_cap: int = 12) -> int:
    """Oracle route: smallest |F| with every STAB facet valid for P_F(qstab).

    Exhaustive over F by ascending size (orbit-anchored for circulants);
    cross-validates the combinatorial route on small graphs.
    """
    facets = convex_hull_facets(stab(g, stab_bound), hull_bound)
    h = qstab(g)
    anchored = is_circulant(g)
    for r in range(0, g.n):
        if r == 0:
            cands = [()]
        elif anchored:
            cands = [(g.nodes[0],) + rest
                     for rest in combinations(g.nodes[1:], r - 1)]
        else:
            cands = combinations(g.nodes, r)
        for f in cands:
            if all(disjunctive_valid(fac, h, f, piece_cap)[0] for fac in facets):
                return r
    raise RuntimeError("no F makes the relaxation integral")


def disjunctive_rank_inequality(ineq: LinearInequality, h: HPolytope,
                                cyclic: bool = False, exhaustive_lb=None,
                                max_size=None, piece_cap: int = 12,
                                integer_hull=None) -> IneqRankResult:
    """Smallest |F| with the row valid for P_F(h), ascending search.

    cyclic=True pins the first element of a nonempty F to the first
    coordinate (exact when rotation is a symmetry of both h and the
    row).  Exhaustive lower-bound mode additionally shows EVERY F of
    size rank-1 violated (default on for dim <= 10).
    """
    if integer_hull is not None:
        val, arg = integer_hull.max_over(ineq.coeffs)
        if val > ineq.rhs:
            raise ValueError(f"row {ineq} invalid for the integer hull at {arg}")
    if max_size is None:
        max_size = h.dim
    if exhaustive_lb is None:
        exhaustive_lb = h.dim <= 10
    violations = []
    for m in range(0, max_size + 1):
        if m == 0:
            cands = [()]
        elif cyclic:
            cands = [(h.index[0],) + rest
                     for rest in combinations(h.index[1:], m - 1)]
        else:
            cands = combinations(h.index, m)
        witness = None
        for f in cands:
            ok, cert = disjunctive_valid(ineq, h, f, piece_cap)
            if ok:
                witness = f
                break
            violations.append((f, cert.point))
        if witness is not None:
            exhaustive = False
            if exhaustive_lb and m > 0:
                exhaustive = True
                for f in combinations(h.index, m - 1):
                    ok, cert = disjunctive_valid(ineq, h, f, piece_cap)
                    if ok:
                        raise RuntimeError(f"symmetry reduction unsound at {f}")
                    if (f, cert.point) not in violations:
                        violations.append((f, cert.point))
            return IneqRankResult(m, witness, violations, exhaustive)
    raise RuntimeError(f"row not valid even for |F| = {max_size}")


def n_rank_graph_upto(g: Graph, rmax: int, hull_bound: int = 12,
                      stab_bound: int = 18, depth_cap: int = 2):
    """Smallest r <= rmax with N^r(qstab) = STAB, else None.

    Equality holds iff every facet of STAB(g) is valid for the lift,
    mirroring the polyhedral route for the disjunctive graph rank.
    """
    facets = convex_hull_facets(stab(g, stab_bound), hull_bound)
    h = qstab(g)
    if all(is_valid(fac, h)[0] for fac in facets):
        return 0
    for r in range(1, rmax + 1):
        if all(n_operator_valid(fac, h, r, depth_cap)[0] for fac in facets):
            return r
    return None


def wrap_validity_cert(cert: LiftCertificate, h: HPolytope,
                       row: LinearInequality, valid: bool) -> dict:
    """Self-contained disjunctive-validity certificate for `recheck`."""
    d = cert.to_json()
    d.update({"type": "disjunctive-validity", "system": h.to_json(),
              "row": row.to_json(), "valid": valid})
    return d


def wrap_membership_cert(cert: LiftCertificate, h: HPolytope, point: dict,
                         member: bool) -> dict:
    d = cert.to_json()
    d.update({"type": "membership", "system": h.to_json(),
              "point": {str(k): frac_to_str(Fraction(v))
                        for k, v in sorted(point.items())},
              "member": member})
    return d


def n_rank_inequality_upto(ineq: LinearInequality, h: HPolytope, rmax: int,
                           depth_cap: int = 2):
    """Smallest r <= rmax with the row valid for N^r(h), else None.

    r = 0 means the row already holds for h itself (rank-of-row
    semantics aligned between the two operators).
    """
    if rmax > depth_cap:
        raise ResourceCapExceeded(f"N depth cap exceeded: rmax={rmax} > {depth_cap}")
    if is_valid(ineq, h)[0]:
        return 0
    for r in range(1, rmax + 1):
        ok, _ = n_operator_valid(ineq, h, r, depth_cap)
        if ok:
            return r
    return None


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

def verify_web_rank_formulas(ks=(2, 3, 4), n_max: int = 16, n_min=None,
                             complements: bool = True, deadline=None) -> Report:
    """Computed web ranks vs the closed forms, and complement invariance.

    N-rank facts that would need lifts beyond the depth cap (the webs
    W_{s(k+1)+k}^k with k >= 3, and the subweb-based N lower bound) are
    never asserted: their combinatorial subweb ingredient is checked
    and the external equality is reported with status "assumed".
    """
    rep = Report("web-formulas", {"ks": list(ks), "n_max": n_max,
                                  "complements": complements})
    for k in ks:
        lo = n_min if n_min is not None else 2 * (k + 1)
        for n in range(max(lo, 2 * (k + 1)), n_max + 1):
            g = web(n, k)
            expected = formula_web_rank(n, k)
            res = disjunctive_rank_graph(g, deadline=deadline)
            rep.check(f"r_d(W:{n}:{k})", expected, res.rank,
                      certificate=res.to_json(g))
            if complements:
                gc = complement(g)
                res_c = disjunctive_rank_graph(gc, deadline=deadline)
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
                detail=f"needs an N^{k - 1} lift beyond the depth cap; "
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


def verify_rdfar(a: AntiwebId, exhaustive: bool = True, piece_cap: int = 12,
                 sample: int = 8, seed: int = 0) -> Report:
    """The antiweb-constraint rank theorem on one prime antiweb.

    (i) validity under the proof's deletion set F = {wk+1, ..., wk+beta};
    (ii) for every |T| = beta-1 the point at 1/w off T lies in
    P_T(qstab) and violates the row; (iii) minimal-F search agrees with
    n - w k.
    """
    if not a.prime:
        raise ValueError(f"A_{a.n}^{a.k} is not prime (gcd={gcd(a.n, a.k)}); "
                         "theorem hypothesis rejected")
    n, k = a.n, a.k
    g = antiweb(n, k)
    h = qstab(g)
    row, _ = antiweb_constraint(a)
    w = n // k
    beta = n - w * k
    rep = Report("rdfar", {"antiweb": f"A:{n}:{k}", "exhaustive": exhaustive})
    rep.check(f"omega(A:{n}:{k})", w, omega(g), detail="clique number floor(n/k)")

    f_proof = tuple(range(w * k + 1, w * k + beta + 1))
    ok, cert = disjunctive_valid(row, h, f_proof, piece_cap)
    rep.check(f"valid under proof F={list(f_proof)}", True, ok,
              certificate=wrap_validity_cert(cert, h, row, ok))

    tsets = list(combinations(g.nodes, beta - 1))
    if not exhaustive and len(tsets) > sample:
        rng = random.Random(seed)
        tsets = sorted(rng.sample(tsets, sample))
    for tset in tsets:
        xbar = {v: (Fraction(0) if v in tset else Fraction(1, w)) for v in g.nodes}
        total = sum(xbar.values())
        member, mcert = disjunctive_member(xbar, h, tset, piece_cap)
        okt = member and total > row.rhs
        rep.check(f"violating point off T={list(tset)}", True, okt,
                  detail=f"x(V) = {frac_to_str(total)} > {row.rhs}",
                  certificate=wrap_membership_cert(mcert, h, xbar, member))

    res = disjunctive_rank_inequality(row, h, cyclic=True, piece_cap=piece_cap,
                                      integer_hull=stab(g) if n <= 18 else None)
    rep.check(f"r_d(antiweb row A:{n}:{k})", beta, res.rank,
              certificate=res.to_json(row, h))
    return rep


def verify_join_bound(blocks: JoinBlocks, piece_cap: int = 12,
                      deadline=None) -> Report:
    """Join superadditivity of row ranks and the induced graph bound."""
    host = blocks.host
    rep = Report("join", {"blocks": [list(b) for b in blocks.blocks],
                          "tags": list(blocks.tags)})
    hq = qstab(host)
    block_ranks = []
    formula_sum = 0
    for blk, tag, bg in zip(blocks.blocks, blocks.tags, blocks.block_graphs()):
        row = rank_constraint(bg)
        res = disjunctive_rank_inequality(row, qstab(bg), cyclic=is_circulant(bg),
                                          piece_cap=piece_cap,
                                          integer_hull=stab(bg))
        block_ranks.append(res.rank)
        rep.add(f"r_d(rank row of block {tag or list(blk)})", "info",
                computed=res.rank)
        if tag and tag.startswith("A:"):
            _, ns, ks = tag.split(":")
            ns, ks = int(ns), int(ks)
            formula_sum += ns - (ns // ks) * ks
    if len(blocks.blocks) == 1:
        joined = rank_constraint(blocks.block_graphs()[0])
    else:
        joined = joined_inequality(blocks)
    res_j = disjunctive_rank_inequality(joined, hq, piece_cap=piece_cap,
                                        integer_hull=stab(host))
    rep.add("r_d(joined row)", "info", computed=res_j.rank,
            certificate=res_j.to_json(joined, hq))
    rep.check("joined rank >= sum of block ranks",
              True, res_j.rank >= sum(block_ranks),
              detail=f"{res_j.rank} >= {'+'.join(map(str, block_ranks))}")
    host_res = disjunctive_rank_graph(host, deadline=deadline)
    rep.add("r_d(host)", "info", computed=host_res.rank,
            certificate=host_res.to_json(host))
    rep.check("r_d(host) >= r_d(joined row)", True, host_res.rank >= res_j.rank)
    if formula_sum:
        rep.check("r_d(host) >= sum(n_i - w_i k_i) over antiweb blocks",
                  True, host_res.rank >= formula_sum,
                  detail=f"{host_res.rank} >= {formula_sum}")
    return rep


def verify_w2_description(n_values=(6, 7, 8, 9, 10), hull_bound: int = 12,
                          stab_bound: int = 18) -> Report:
    """Dahl's description equals the stable set polytope for W_n^2."""
    rep = Report("w2", {"n_values": list(n_values)})
    for n in n_values:
        g = web(n, 2)
        desc = stab_description_w2_polytope(n, stab_bound)
        hull = HPolytope(g.nodes, convex_hull_facets(stab(g, stab_bound), hull_bound))
        missing = [r for r in hull.rows if not is_valid(r, desc)[0]]
        extra = [r for r in desc.rows if not is_valid(r, hull)[0]]
        rep.check(f"description(W:{n}:2) = conv(STAB)", True,
                  not missing and not extra,
                  detail=f"{len(desc.rows)} assembled rows vs {len(hull.rows)} facets",
                  certificate=None if not (missing or extra) else
                  {"missing": [str(r) for r in missing],
                   "extra": [str(r) for r in extra]})
        mism = 0
        w = WebId(n, 2)
        for s in enumerate_one_interval_sets(n):
            try:
                one_interval_inequality(w, s, stab_bound)
            except RuntimeError:
                mism += 1
        rep.check(f"closed-form alpha(T) matches enumeration (n={n})", 0, mism,
                  detail="per 1-interval set")
    return rep


def verify_operator_sandwich(n_max: int = 9, objectives: int = 20,
                             seed: int = 0, stab_bound: int = 18) -> Report:
    """STAB <= N(K) <= intersection of P_j(K) <= K on random objectives.

    The 2n piece systems K n {x_j = z} of a web are built once and
    re-solved from their last optimal basis for each objective.
    """
    rep = Report("operators", {"n_max": n_max, "objectives": objectives,
                               "seed": seed})
    rng = random.Random(seed)
    for k in range(1, n_max // 2):
        for n in range(2 * (k + 1), n_max + 1):
            g = web(n, k)
            h = qstab(g)
            vp = stab(g, stab_bound)
            pieces = [[PieceSystem(h, {j: z}) for z in (0, 1)] for j in g.nodes]
            bad = []
            for _ in range(objectives):
                c = {v: Fraction(rng.randint(0, 9)) for v in g.nodes}
                smax = vp.max_over(c)[0]
                nmax = n_operator_max(c, h, 1).value
                inter = min(piece_max(systems, c).value for systems in pieces)
                qmax = lp_max(h, c).value
                if not (smax <= nmax <= inter <= qmax):
                    bad.append({"objective": {str(v): int(x) for v, x in c.items()},
                                "chain": [frac_to_str(t)
                                          for t in (smax, nmax, inter, qmax)]})
            rep.check(f"sandwich chain W:{n}:{k}", 0, len(bad),
                      detail=f"{objectives} seeded objectives",
                      certificate={"violations": bad} if bad else None)
    return rep
