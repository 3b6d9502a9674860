"""Webs, antiwebs, joins and the combinatorial machinery around them.

A web W_n^k has nodes 1..n and an edge ij whenever the circular distance
min(|i-j|, n-|i-j|) is between 1 and k; it requires n >= 2(k+1).  The
antiweb A_n^k is the complement of W_n^{k-1}.  Node labels are 1-based
and survive deletions, so certificates can always point back at the
original circular positions.

Everything here is pure and immutable but `LIMITS`, the limits of a
run: a deadline (a time.monotonic() value or None) and the caps.  Each
check reads it where it is made, `limits(...)` sets it for a block, and
past the deadline a search or an LP raises SearchTimeout.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .reporting import read_labels


class SearchTimeout(Exception):
    """A search or an LP ran past the deadline of LIMITS."""


class ResourceCapExceeded(ValueError):
    """A configured size/depth cap would be exceeded (CLI exit code 2)."""


class CertificateError(RuntimeError):
    """A certificate failed its exact check; the message names the step."""


HULL_BOUND = 12     # cap on the hull dimension, and so on the nodes behind STAB
PIECE_CAP = 12      # cap on |F| in a piece scan; pieces number 2^|F|
DEPTH_CAP = 2       # N iterations; lift size grows as (2n)^(r-1) matrices


@dataclass(slots=True)
class Limits:
    """The limits of a run: a deadline (a time.monotonic() value, or None
    for none) and the caps, each one a CLI option."""

    deadline: float | None = None
    piece_cap: int = PIECE_CAP
    hull_bound: int = HULL_BOUND
    depth_cap: int = DEPTH_CAP


LIMITS = Limits()       # the one instance, which every check reads


@contextmanager
def limits(**values):
    """Set fields of LIMITS for the block, restored when it ends however
    it ends; an unknown field raises AttributeError."""
    saved = {name: getattr(LIMITS, name) for name in values}
    try:
        for name, value in values.items():
            setattr(LIMITS, name, value)
        yield
    finally:
        for name, value in saved.items():
            setattr(LIMITS, name, value)


def _check_deadline(what="search"):
    deadline = LIMITS.deadline
    if deadline is not None and time.monotonic() > deadline:
        raise SearchTimeout(f"{what} deadline exceeded")


def _check_piece_cap(f):
    if len(f) > LIMITS.piece_cap:
        raise ResourceCapExceeded(f"piece cap exceeded: |F|={len(f)} > {LIMITS.piece_cap} "
                                  f"(2^|F| pieces)")


def _check_hull_bound(n: int):
    if n > LIMITS.hull_bound:
        raise ResourceCapExceeded(f"hull bound exceeded: dim={n} > {LIMITS.hull_bound} "
                                  "(raise --hull-bound)")


def _check_depth_cap(depth: int):
    if depth > LIMITS.depth_cap:
        raise ResourceCapExceeded(f"N depth cap exceeded: r={depth} > {LIMITS.depth_cap}")


def mod1(x: int, n: int) -> int:
    """Normalize a node label to 1..n (the circular arithmetic of webs)."""
    return (x - 1) % n + 1


def circular_distance(i: int, j: int, n: int) -> int:
    d = abs(i - j) % n
    return min(d, n - d)


def as_nodeset(nodes) -> tuple:
    """Sorted duplicate-free tuple of node labels."""
    return tuple(sorted(set(nodes)))


@dataclass(frozen=True)
class WebId:
    """Parameters (n, k) of a web; validates n >= 2(k+1)."""

    n: int
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"web W_{self.n}^{self.k}: k must be >= 1")
        if self.n < 2 * (self.k + 1):
            raise ValueError(
                f"web W_{self.n}^{self.k}: requires n >= 2(k+1) = {2 * (self.k + 1)}"
            )


@dataclass(frozen=True)
class AntiwebId:
    """Parameters (n, k) of an antiweb A_n^k = complement of W_n^{k-1}."""

    n: int
    k: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"antiweb A_{self.n}^{self.k}: k must be >= 2")
        if self.n < 2 * self.k:
            raise ValueError(
                f"antiweb A_{self.n}^{self.k}: requires n >= 2k = {2 * self.k}"
            )

    @property
    def prime(self) -> bool:
        return gcd(self.n, self.k) == 1


class Graph:
    """Simple undirected graph on immutable, possibly non-contiguous labels.

    `family` tags circulant provenance, e.g. ("web", n, k) or
    ("antiweb", n, k); it is dropped by operations that break the
    rotational symmetry.  `blocks` records the node blocks of a complete
    join (with `block_tags` naming each block when known).
    """

    __slots__ = ("nodes", "_pos", "_adj", "family", "blocks", "block_tags")

    def __init__(self, nodes, edges, family=None, blocks=None, block_tags=None):
        nodes = as_nodeset(nodes)
        if not nodes:
            raise ValueError("graph needs at least one node")
        pos = {v: i for i, v in enumerate(nodes)}
        adj = [0] * len(nodes)
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if u not in pos or v not in pos:
                raise ValueError(f"edge ({u},{v}) uses unknown node label")
            adj[pos[u]] |= 1 << pos[v]
            adj[pos[v]] |= 1 << pos[u]
        self._set(nodes, pos, adj, family, blocks, block_tags)

    def _set(self, nodes, pos, adj, family=None, blocks=None, block_tags=None):
        """Set the six slots, the one place a Graph gets its state."""
        for name, v in zip(self.__slots__, (nodes, pos, tuple(adj), family, blocks, block_tags)):
            object.__setattr__(self, name, v)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def n(self) -> int:
        return len(self.nodes)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[self._pos[u]] >> self._pos[v] & 1)

    def neighbors(self, u: int) -> tuple:
        m = self._adj[self._pos[u]]
        return tuple(self.nodes[i] for i in _bits(m))

    def degree(self, u: int) -> int:
        return self._adj[self._pos[u]].bit_count()

    def edges(self):
        out = []
        for i, v in enumerate(self.nodes):
            m = self._adj[i] >> (i + 1)
            for j in _bits(m):
                out.append((v, self.nodes[i + 1 + j]))
        return out

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.nodes == other.nodes and self._adj == other._adj

    def __hash__(self):
        return hash((self.nodes, self._adj))

    def __repr__(self):
        tag = f" family={self.family}" if self.family else ""
        return f"Graph(n={self.n}, m={self.edge_count()}{tag})"

    def _labels_of(self, mask: int) -> tuple:
        return tuple(self.nodes[i] for i in _bits(mask))


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def web(n: int, k: int) -> Graph:
    """W_n^k: edge ij iff circular distance of i, j is in [1, k]."""
    WebId(n, k)
    edges = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if circular_distance(i, j, n) <= k
    ]
    return Graph(range(1, n + 1), edges, family=("web", n, k))


def antiweb(n: int, k: int) -> Graph:
    """A_n^k = complement of W_n^{k-1}."""
    AntiwebId(n, k)
    return complement(web(n, k - 1))        # family ("antiweb", n, k)


def complete_graph(n: int) -> Graph:
    return Graph(range(1, n + 1), combinations(range(1, n + 1), 2), family=("clique", n))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs >= 3 nodes")
    if n == 3:
        return complete_graph(3)
    return web(n, 1)


def _from_masks(nodes, adj, family=None) -> Graph:
    """Graph on sorted labels with one adjacency bitmask per position."""
    return object.__new__(Graph)._set(nodes, {v: i for i, v in enumerate(nodes)}, adj, family)


def complement(g: Graph) -> Graph:
    """Edge iff non-edge of g, on the same labels.  Involutive."""
    full = (1 << g.n) - 1
    family = None
    if g.family and g.family[0] == "web":
        family = ("antiweb", g.family[1], g.family[2] + 1)
    elif g.family and g.family[0] == "antiweb":
        family = ("web", g.family[1], g.family[2] - 1)
    return _from_masks(g.nodes, [full ^ m ^ (1 << i) for i, m in enumerate(g._adj)],
                       family)


def delete_nodes(g: Graph, f) -> Graph:
    """Induced subgraph on nodes(g) minus f, original labels kept."""
    f = as_nodeset(f)
    for v in f:
        if v not in g._pos:
            raise ValueError(f"cannot delete unknown node label {v}")
    if len(f) == g.n:
        raise ValueError("deletion would empty the graph")
    fset = set(f)
    drop = sorted((g._pos[v] for v in f), reverse=True)
    keep, adj = [], []
    for v, m in zip(g.nodes, g._adj):
        if v in fset:
            continue
        for p in drop:                   # close the gap at position p, highest first
            m = (m & ((1 << p) - 1)) | (m >> (p + 1) << p)
        keep.append(v)
        adj.append(m)
    return _from_masks(tuple(keep), adj, g.family if not f else None)


def induced_subgraph(g: Graph, keep) -> Graph:
    keep = set(keep)
    drop = [v for v in g.nodes if v not in keep]
    return delete_nodes(g, drop) if drop else g


def complete_join(g1: Graph, g2: Graph) -> Graph:
    """G1 v G2: disjoint union plus all cross edges, g2 labels shifted up.

    Block structure is recorded (and flattened through nested joins) so
    joined inequalities can be built without re-detecting the join.
    """
    off = max(g1.nodes)
    n2map = {v: v + off for v in g2.nodes}
    nodes = list(g1.nodes) + [n2map[v] for v in g2.nodes]
    edges = list(g1.edges())
    edges += [(n2map[u], n2map[v]) for u, v in g2.edges()]
    edges += [(u, n2map[v]) for u in g1.nodes for v in g2.nodes]
    b1 = g1.blocks if g1.blocks else (g1.nodes,)
    t1 = g1.block_tags if g1.block_tags else (family_tag(g1),)
    b2 = g2.blocks if g2.blocks else (g2.nodes,)
    t2 = g2.block_tags if g2.block_tags else (family_tag(g2),)
    b2 = tuple(tuple(v + off for v in blk) for blk in b2)
    return Graph(nodes, edges, blocks=b1 + b2, block_tags=t1 + t2)


# the letter of each family tag: the family's kind, its number of
# parameters and the builder that takes them
_FAMILIES = {"W": ("web", 2, web), "A": ("antiweb", 2, antiweb),
             "K": ("clique", 1, complete_graph)}
_LETTERS = {kind: letter for letter, (kind, _, _) in _FAMILIES.items()}


def family_tag(g: Graph):
    """The tag "W:n:k", "A:n:k" or "K:n" of g's family (`read_family`
    reads it back), or None."""
    letter = _LETTERS.get(g.family[0]) if g.family else None
    return letter and ":".join([letter, *map(str, g.family[1:])])


def read_family(tag: str):
    """The family of a tag "W:n:k", "A:n:k" or "K:n", its parameters read
    with int (a bad one raises ValueError); None for any other text."""
    letter, *params = tag.split(":")
    if letter not in _FAMILIES or len(params) != _FAMILIES[letter][1]:
        return None
    return (_FAMILIES[letter][0], *map(int, params))


def is_circulant(g: Graph) -> bool:
    """True when the nodes are 1..n and rotation i -> i+1 (mod n) is an
    automorphism: rotating each position's adjacency mask gives the next."""
    n, adj = g.n, g._adj
    full = (1 << n) - 1
    return g.nodes == tuple(range(1, n + 1)) and all(
        (m << 1 | m >> (n - 1)) & full == adj[(i + 1) % n] for i, m in enumerate(adj))


# ---------------------------------------------------------------------------
# subwebs (Trotter's characterization)

def is_subweb(inner: WebId, outer: WebId) -> bool:
    """Trotter: W_{n'}^{k'} <= W_n^k iff n k'/k <= n' <= n (k'+1)/(k+1).

    Evaluated in exact rationals (integer cross-multiplication).
    """
    n, k = outer.n, outer.k
    np_, kp = inner.n, inner.k
    return n * kp * (k + 1) <= np_ * k * (k + 1) and np_ * (k + 1) <= (kp + 1) * n


# ---------------------------------------------------------------------------
# cliques and stable sets

def enumerate_maximal_cliques(g: Graph) -> list:
    """All maximal cliques (Bron-Kerbosch with pivoting), as label tuples."""
    adj = g._adj
    out = []

    def bk(r, p, x):
        if p == 0 and x == 0:
            out.append(r)
            return
        # pivot: most candidate-neighbors, lowest position on ties
        best, best_cnt = -1, -1
        pool = p | x
        for u in _bits(pool):
            c = (p & adj[u]).bit_count()
            if c > best_cnt:
                best, best_cnt = u, c
        for v in _bits(p & ~adj[best]):
            bit = 1 << v
            bk(r | bit, p & adj[v], x & adj[v])
            p &= ~bit
            x |= bit

    bk(0, (1 << g.n) - 1, 0)
    return sorted(g._labels_of(m) for m in out)


def omega(g: Graph) -> int:
    return max(len(c) for c in enumerate_maximal_cliques(g))


def enumerate_stable_sets(g: Graph) -> list:
    """All stable sets including the empty set, as label tuples (up to
    2^n of them: polyhedra.stab caps n)."""
    adj = g._adj
    masks = [0]
    for v in range(g.n):
        bit = 1 << v
        nb = adj[v]
        masks += [m | bit for m in masks if not m & nb]
    return [g._labels_of(m) for m in masks]


def alpha(g: Graph) -> int:
    """Stability number: a maximum-weight stable set under unit weights."""
    return len(max_weight_stable_set(g, dict.fromkeys(g.nodes, 1))[1])


def alpha_induced(g: Graph, t) -> int:
    """Stability number of the subgraph induced by node set t."""
    t = as_nodeset(t)
    if not t:
        return 0
    return alpha(induced_subgraph(g, t))


def max_weight_stable_set(g: Graph, weights: dict) -> tuple:
    """(value, node tuple) of a maximum-weight stable set; the empty set
    (value 0) when no weight is positive.

    Branch and bound on bitmasks in the style of Östergård's weighted
    clique search, run on the complement: weights are integers over one
    common denominator, nodes of weight <= 0 are dropped (they never
    help), and each subproblem is bounded by a greedy clique cover of its
    candidates (a colouring of the complement), whose classes add at most
    their heaviest node each.  Candidates are ordered heaviest first, so a
    class's first node is its heaviest.
    """
    ws = {v: Fraction(weights.get(v, 0)) for v in g.nodes}
    order = sorted((v for v in g.nodes if ws[v] > 0), key=lambda v: (-ws[v], g._pos[v]))
    den = lcm(*(ws[v].denominator for v in order))
    w = [ws[v].numerator * (den // ws[v].denominator) for v in order]
    at = {v: i for i, v in enumerate(order)}
    adj = [sum(1 << at[u] for u in g.neighbors(v) if u in at) for v in order]
    best = [0, 0]                        # value, mask

    def expand(value, chosen, cand):
        if not cand:
            if value > best[0]:
                best[:] = value, chosen
            return
        cover = []                       # (node, bound: its class and the earlier ones)
        bound, rest = 0, cand
        while rest:
            q = rest
            bound += w[(q & -q).bit_length() - 1]
            while q:
                v = (q & -q).bit_length() - 1
                cover.append((v, bound))
                rest &= ~(1 << v)
                q &= adj[v]
        for v, b in reversed(cover):
            if value + b <= best[0]:
                return
            bit = 1 << v
            cand &= ~bit
            expand(value + w[v], chosen | bit, cand & ~adj[v])

    expand(0, 0, (1 << len(order)) - 1)
    return Fraction(best[0], den), tuple(sorted(order[i] for i in _bits(best[1])))


# ---------------------------------------------------------------------------
# odd holes and perfection

def find_induced_odd_hole(g: Graph):
    """A chordless odd cycle of length >= 5, or None.

    DFS over chordless path extensions: the path's interior may not touch
    the base node or any non-consecutive path node, which prunes hard in
    dense graphs.  Before extending, a flood from the extensions through
    the nodes a longer path may still use must meet a node that could
    close it, else the branch returns None; the allowed nodes only shrink
    with depth, so the cut drops no hole and keeps the scan order, and it
    prunes the sparse, perfect graphs where the DFS finds nothing.  A
    hole's position mask is re-verified (`_is_hole`) before it is turned
    into labels and handed out.  The scan order is fixed: base nodes
    ascending, each with its higher neighbours ascending.
    """
    _check_deadline()
    adj = g._adj
    n = g.n
    steps = 0

    # path b, p1, ..., last, with on_path its position mask; mid_ok excludes
    # neighbors of interior nodes; nb_b (b's neighbors) and above_p1 (the
    # positions above p1) are set by the loop over b and p1 below
    def dfs(last, mid_ok, length, on_path):
        nonlocal steps
        steps += 1
        if steps % 2048 == 0:
            _check_deadline()
        reach = mid_ok & adj[last]
        if length >= 4 and length % 2 == 0:     # closing at w: odd, >= 5 nodes
            close = reach & nb_b & above_p1      # the lowest w > p1
            if close:
                hole = on_path | (close & -close)
                if not _is_hole(g, hole):
                    raise RuntimeError(f"odd-hole search returned a non-hole "
                                       f"{g._labels_of(hole)}")
                return g._labels_of(hole)
        ext = reach & ~nb_b
        if ext:
            nxt = mid_ok & ~adj[last]
            # mid_ok only shrinks, so below here every closing node lies in
            # goal and every interior node in region: when no path from ext
            # through region meets a neighbour in goal, nothing below closes
            goal = nxt & nb_b & above_p1
            region = nxt & ~nb_b
            if not goal:
                return None
            seen = frontier = ext
            while frontier:
                hit = 0
                while frontier and not hit & goal:
                    low = frontier & -frontier
                    frontier ^= low
                    hit |= adj[low.bit_length() - 1]
                if hit & goal:
                    break
                frontier = hit & region & ~seen
                seen |= frontier
            else:
                return None
            while ext:
                low = ext & -ext
                ext ^= low
                res = dfs(low.bit_length() - 1, nxt, length + 1, on_path | low)
                if res is not None:
                    return res
        return None

    for b in range(n):
        nb_b = adj[b]
        gt_b = ~((1 << (b + 1)) - 1) & ((1 << n) - 1)
        m = nb_b & gt_b
        while m:
            low = m & -m
            m ^= low
            p1 = low.bit_length() - 1
            above_p1 = -(low << 1)
            res = dfs(p1, gt_b & ~low, 2, (1 << b) | low)
            if res is not None:
                return res
    return None


def _is_hole(g: Graph, inset: int) -> bool:
    """Independent re-check: the induced subgraph on the positions in the
    mask inset is a single cycle.

    Read off the adjacency masks alone: every node has exactly two
    neighbors in the set, and a flood fill from one node reaches all."""
    if inset.bit_count() < 4:
        return False
    adj, m = g._adj, inset
    while m:
        low = m & -m
        m ^= low
        if (adj[low.bit_length() - 1] & inset).bit_count() != 2:
            return False
    seen = frontier = inset & -inset
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            reach |= adj[low.bit_length() - 1]
        frontier = reach & inset & ~seen
        seen |= frontier
    return seen == inset


def is_odd_hole(g: Graph, nodes) -> bool:
    inset = sum(1 << g._pos[v] for v in set(nodes))
    return inset.bit_count() >= 5 and inset.bit_count() % 2 == 1 and _is_hole(g, inset)


def is_chordal(g: Graph) -> bool:
    """No chordless cycle of length >= 4, by maximum cardinality search
    (Tarjan and Yannakakis 1984): visit next a node with the most visited
    neighbours.  g is chordal exactly when the reversed visit order is a
    perfect elimination ordering (Rose, Tarjan and Lueker 1976), that is,
    when each node's neighbours visited before it form a clique; the
    search stops at the first node whose do not."""
    adj = g._adj
    weight, left, visited = [0] * g.n, list(range(g.n)), 0
    while left:
        v = max(left, key=weight.__getitem__)
        left.remove(v)
        before = adj[v] & visited
        for u in _bits(before):
            if before & ~adj[u] & ~(1 << u):
                return False
        visited |= 1 << v
        for u in _bits(adj[v] & ~visited):
            weight[u] += 1
    return True


def is_perfect(g: Graph) -> bool:
    """A chordal graph is perfect (Dirac 1961, Berge), and so is its
    complement (Lovász 1972), so `is_chordal` of g or of its complement
    answers first.  Otherwise the Strong Perfect Graph Theorem route: no
    induced odd hole in g or its complement (on a perfect g a search
    visits every path in any scan order, so one order is all it needs)."""
    _check_deadline()
    co = complement(g)
    if is_chordal(g) or is_chordal(co):
        return True
    return find_induced_odd_hole(g) is None and find_induced_odd_hole(co) is None


# ---------------------------------------------------------------------------
# I/O

def to_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.edge_count()}"]
    lines += [f"e {u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def to_json_dict(g: Graph) -> dict:
    """The one JSON form of a graph: its nodes and its edges (`cmd_generate`
    adds the provenance it prints beside them)."""
    return {"nodes": list(g.nodes), "edges": [list(e) for e in g.edges()]}


def from_json_dict(d: dict) -> Graph:
    """The graph of `to_json_dict`, read from its `nodes` and `edges` alone:
    the nodes and each edge, a pair, by `reporting.read_labels`."""
    return Graph(read_labels(d["nodes"]), [read_labels(e) for e in d["edges"]])


def parse_graph_spec(spec: str) -> Graph:
    """Build a graph from "W:n:k", "A:n:k", "K:n", "C:n" or "join:...,...".

    The join form joins the comma-separated member specs left to right.
    """
    spec = spec.strip()
    if spec.startswith("join:"):
        parts = spec[len("join:"):].split(",")
        if len(parts) < 2:
            raise ValueError(f"join spec needs >= 2 blocks: {spec!r}")
        gs = [parse_graph_spec(p) for p in parts]
        out = gs[0]
        for h in gs[1:]:
            out = complete_join(out, h)
        return out
    parts = spec.split(":")
    try:
        family = read_family(spec)
        if family is not None:
            return _FAMILIES[parts[0]][2](*family[1:])
        if parts[0] == "C" and len(parts) == 2:
            return cycle_graph(int(parts[1]))
    except ValueError as exc:
        # re-raise bound violations etc. with the spec string attached
        raise ValueError(f"{spec!r}: {exc}") from exc
    raise ValueError(f"unrecognized graph spec {spec!r}")
