"""Constructors for the named inequality families.

Rank constraints x(V) <= alpha(G); Dahl's 1-interval inequalities
x(T) <= alpha(T) for W_n^2, where T is a union of circular intervals
I_1, ..., I_t separated by singletons and |I_j| = 3 k_j + 1 with t >= 3
odd; antiweb constraints x(V(A_n^k)) <= k (prime when gcd(n,k) = 1);
and joined inequalities sum x(V(A_i)) / alpha(A_i) <= 1 over the blocks
of a complete join.

The 1-interval right-hand side is computed by the closed form
sum k_j + (t-1)/2 AND cross-checked against the stability number of the
induced subgraph, found by a maximum stable set search; a mismatch is a
hard error, never a silently emitted row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import (
    AntiwebId,
    Graph,
    WebId,
    alpha,
    alpha_induced,
    as_nodeset,
    induced_subgraph,
    mod1,
    web,
)
from .polyhedra import HPolytope, LinearInequality, qstab


def rank_constraint(g: Graph) -> LinearInequality:
    """x(V) <= alpha(G), all-ones coefficients."""
    return LinearInequality({v: 1 for v in g.nodes}, alpha(g))


def antiweb_constraint(a: AntiwebId) -> LinearInequality:
    """The rank constraint x(V(A_n^k)) <= k."""
    return LinearInequality({v: 1 for v in range(1, a.n + 1)}, a.k)


# ---------------------------------------------------------------------------
# 1-interval sets (Dahl's description of STAB(W_n^2))

@dataclass(frozen=True)
class OneIntervalSet:
    """Circular partition I_1,J_1,...,I_t,J_t with |J_j|=1, |I_j|=3k_j+1.

    T is the union of the intervals; the singletons separate them.
    """

    n: int
    intervals: tuple          # tuple of node tuples, circular order
    singletons: tuple         # one node after each interval

    def __post_init__(self):
        t = len(self.intervals)
        if t < 3 or t % 2 == 0:
            raise ValueError(f"need t >= 3 odd intervals, got t={t}")
        if len(self.singletons) != t:
            raise ValueError("need exactly one singleton per interval")
        flat = []               # the circular order I_1, J_1, ..., I_t, J_t
        for iv, j in zip(self.intervals, self.singletons):
            if (len(iv) - 1) % 3 != 0:
                raise ValueError(f"interval size {len(iv)} is not 1 mod 3")
            flat.extend(iv)
            flat.append(j)
        if sorted(flat) != list(range(1, self.n + 1)):
            raise ValueError("blocks do not partition 1..n")
        if flat != [mod1(flat[0] + i, self.n) for i in range(self.n)]:
            raise ValueError("blocks are not circularly consecutive in order")

    @property
    def t(self) -> int:
        return len(self.intervals)

    @property
    def k_values(self) -> tuple:
        return tuple((len(iv) - 1) // 3 for iv in self.intervals)

    @property
    def T(self) -> tuple:
        return as_nodeset(v for iv in self.intervals for v in iv)

    def closed_form_alpha(self) -> int:
        return sum(self.k_values) + (self.t - 1) // 2


def one_interval_set(n: int, sizes, start: int) -> OneIntervalSet:
    """Blocks of the given interval sizes, I_1 starting at `start`."""
    intervals, singletons = [], []
    p = start
    for s in sizes:
        intervals.append(tuple(mod1(p + i, n) for i in range(s)))
        p += s
        singletons.append(mod1(p, n))
        p += 1
    return OneIntervalSet(n, tuple(intervals), tuple(singletons))


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_one_interval_sets(n: int) -> list:
    """All 1-interval configurations on W_n^2, rotations included, one
    per T: different block partitions can induce the same T, and the
    inequality depends only on T."""
    if n < 6:
        raise ValueError("1-interval sets need n >= 6")
    out = []
    seen = set()
    t = 3
    while 2 * t <= n:
        need = n - 2 * t              # sum of k_j interval surplus: 3*sum(k) = n-2t
        if need >= 0 and need % 3 == 0:
            ksum = need // 3
            for comp in _compositions(ksum, t):
                sizes = tuple(3 * k + 1 for k in comp)
                for start in range(1, n + 1):
                    s = one_interval_set(n, sizes, start)
                    if s.T not in seen:
                        seen.add(s.T)
                        out.append(s)
        t += 2
    return out


def one_interval_inequality(w: WebId, s: OneIntervalSet) -> LinearInequality:
    """x(T) <= alpha(T) on W_n^2, rhs by the closed form AND search.

    Refuses to emit the row when the closed form disagrees with the
    searched stability number of the induced subgraph.
    """
    if w.k != 2:
        raise ValueError("1-interval inequalities are defined for webs with k=2")
    if w.n != s.n:
        raise ValueError(f"set lives on n={s.n}, web has n={w.n}")
    rhs = s.closed_form_alpha()
    searched = alpha_induced(web(w.n, 2), s.T)
    if rhs != searched:
        raise RuntimeError(
            f"1-interval rhs mismatch on T={s.T}: closed form {rhs}, "
            f"searched {searched}")
    return LinearInequality({v: 1 for v in s.T}, rhs)


def stab_description_w2(n: int) -> list:
    """Dahl's full description of STAB(W_n^2) as a row list.

    Nonnegativity, maximal clique rows, the rank constraint when n is
    not a multiple of 3, and all 1-interval rows (dedup by T), each rhs
    checked against its search (`one_interval_inequality`)."""
    w = WebId(n, 2)
    return w2_description(n, [one_interval_inequality(w, s)
                              for s in enumerate_one_interval_sets(n)])


def w2_description(n: int, one_interval_rows) -> list:
    """The rows of QSTAB(W_n^2), the rank constraint when n is not a
    multiple of 3, then the given 1-interval rows, without repeats
    (triangle-sized intervals reproduce clique rows)."""
    g = web(n, 2)
    rows = list(qstab(g).rows)
    if n % 3 != 0:
        rows.append(rank_constraint(g))
    return list(dict.fromkeys(rows + list(one_interval_rows)))


def stab_description_w2_polytope(n: int) -> HPolytope:
    return HPolytope(tuple(range(1, n + 1)), stab_description_w2(n))


# ---------------------------------------------------------------------------
# complete joins

@dataclass(frozen=True)
class JoinBlocks:
    """Verified complete-join decomposition of a host graph.

    blocks are disjoint node tuples with every cross-block pair
    adjacent; tags name each block ("A:n:k", "K:n", ...) when known.
    """

    host: Graph
    blocks: tuple
    tags: tuple

    def __post_init__(self):
        seen = set()
        for blk in self.blocks:
            if set(blk) & seen:
                raise ValueError("join blocks are not disjoint")
            seen |= set(blk)
        if seen != set(self.host.nodes):
            raise ValueError("join blocks do not cover the host graph")
        for i, b1 in enumerate(self.blocks):
            for b2 in self.blocks[i + 1:]:
                for u in b1:
                    for v in b2:
                        if not self.host.has_edge(u, v):
                            raise ValueError(
                                f"join witness fails: {u} and {v} are in "
                                f"different blocks but not adjacent")

    def block_graphs(self):
        return [induced_subgraph(self.host, blk) for blk in self.blocks]


def join_blocks_of(host: Graph) -> JoinBlocks:
    """Read the recorded block metadata off a graph built by complete_join."""
    if not host.blocks:
        raise ValueError("graph carries no join block metadata")
    return JoinBlocks(host, host.blocks, host.block_tags or (None,) * len(host.blocks))


def joined_inequality(blocks: JoinBlocks) -> LinearInequality:
    """sum_i x(V(A_i)) / alpha(A_i) <= 1 over the verified join blocks."""
    coeffs = {}
    for blk, bg in zip(blocks.blocks, blocks.block_graphs()):
        a = alpha(bg)
        for v in blk:
            coeffs[v] = Fraction(1, a)
    return LinearInequality(coeffs, 1)


# ---------------------------------------------------------------------------
# family tags of hull facets

def tag_inequality(g: Graph, ineq: LinearInequality) -> str:
    """Family tag of a facet of STAB(G), read off the facet itself.

    An all-ones facet x(S) <= b has b = alpha(G[S]): it holds at every
    stable set and is tight at one.  So b = 1 makes S a clique, S = V
    makes it the rank constraint, and any other S gets "one-interval";
    -x_v <= 0 is "nonneg" and anything else "other".
    """
    key, rhs = ineq.canonical()
    ints = dict(key)
    if rhs == 0 and list(ints.values()) == [-1]:
        return "nonneg"
    if any(c != 1 for c in ints.values()):
        return "other"
    if rhs == 1:
        return "clique"
    return "rank" if set(ints) == set(g.nodes) else "one-interval"
