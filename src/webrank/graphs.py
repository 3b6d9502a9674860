"""Webs, antiwebs, joins and the combinatorial machinery around them.

A web W_n^k has nodes 1..n and an edge ij whenever the circular distance
min(|i-j|, n-|i-j|) is between 1 and k; it requires n >= 2(k+1).  The
antiweb A_n^k is the complement of W_n^{k-1}.  Node labels are 1-based
and survive deletions, so certificates can always point back at the
original circular positions.

Everything here is pure and immutable; search routines accept an
optional deadline (time.monotonic() value) and raise SearchTimeout when
they run past it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from math import gcd


class SearchTimeout(Exception):
    """A combinatorial search ran past its deadline."""


class ResourceCapExceeded(ValueError):
    """A configured size/depth cap would be exceeded (CLI exit code 2)."""


def _check_deadline(deadline):
    if deadline is not None and time.monotonic() > deadline:
        raise SearchTimeout("search deadline exceeded")


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

    @property
    def complement_web(self) -> WebId:
        return WebId(self.n, self.k - 1)


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
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "_adj", tuple(adj))
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "block_tags", block_tags)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        return (Graph, (self.nodes, self.edges(), self.family, self.blocks,
                        self.block_tags))

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

    # positions <-> labels helpers used throughout the module
    def _mask_of(self, labels) -> int:
        m = 0
        for v in labels:
            m |= 1 << self._pos[v]
        return m

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
    g = complement(web(n, k - 1))
    return Graph(g.nodes, g.edges(), family=("antiweb", n, k))


def complete_graph(n: int) -> Graph:
    return Graph(range(1, n + 1), combinations(range(1, n + 1), 2), family=("clique", n))


def edgeless_graph(n: int) -> Graph:
    return Graph(range(1, n + 1), [])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs >= 3 nodes")
    if n == 3:
        return complete_graph(3)
    return web(n, 1)


def complement(g: Graph) -> Graph:
    """Edge iff non-edge of g, on the same labels.  Involutive."""
    edges = [
        (u, v) for u, v in combinations(g.nodes, 2) if not g.has_edge(u, v)
    ]
    family = None
    if g.family and g.family[0] == "web":
        family = ("antiweb", g.family[1], g.family[2] + 1)
    elif g.family and g.family[0] == "antiweb":
        family = ("web", g.family[1], g.family[2] - 1)
    return Graph(g.nodes, edges, family=family)


def delete_nodes(g: Graph, f) -> Graph:
    """Induced subgraph on nodes(g) minus f, original labels kept."""
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


def induced_subgraph(g: Graph, keep) -> Graph:
    keep = as_nodeset(keep)
    drop = [v for v in g.nodes if v not in set(keep)]
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


def family_tag(g: Graph):
    if g.family is None:
        return None
    kind = g.family[0]
    if kind == "web":
        return f"W:{g.family[1]}:{g.family[2]}"
    if kind == "antiweb":
        return f"A:{g.family[1]}:{g.family[2]}"
    if kind == "clique":
        return f"K:{g.family[1]}"
    return None


def is_circulant(g: Graph) -> bool:
    """True when rotation i -> i+1 (mod n) is a known automorphism."""
    return (
        g.family is not None
        and g.family[0] in ("web", "antiweb")
        and g.nodes == tuple(range(1, g.n + 1))
    )


# ---------------------------------------------------------------------------
# subwebs (Trotter's characterization)

def is_subweb(inner: WebId, outer: WebId) -> bool:
    """Trotter: W_{n'}^{k'} <= W_n^k iff n k'/k <= n' <= n (k'+1)/(k+1).

    Evaluated in exact rationals (integer cross-multiplication).
    """
    n, k = outer.n, outer.k
    np_, kp = inner.n, inner.k
    return n * kp * (k + 1) <= np_ * k * (k + 1) and np_ * (k + 1) <= (kp + 1) * n


def has_induced_embedding(inner: Graph, outer: Graph, deadline=None) -> bool:
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
        _check_deadline(deadline)
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


STABLE_SET_BOUND = 18


def enumerate_stable_sets(g: Graph, bound: int = STABLE_SET_BOUND) -> list:
    """All stable sets including the empty set, as label tuples."""
    if g.n > bound:
        raise ResourceCapExceeded(
            f"stable set enumeration bound exceeded: n={g.n} > {bound}")
    adj = g._adj
    masks = [0]
    for v in range(g.n):
        bit = 1 << v
        nb = adj[v]
        masks += [m | bit for m in masks if not m & nb]
    return [g._labels_of(m) for m in masks]


def alpha(g: Graph, bound: int = STABLE_SET_BOUND) -> int:
    return max(len(s) for s in enumerate_stable_sets(g, bound))


def alpha_induced(g: Graph, t, bound: int = STABLE_SET_BOUND) -> int:
    """Stability number of the subgraph induced by node set t."""
    t = as_nodeset(t)
    if not t:
        return 0
    return alpha(induced_subgraph(g, t), bound)


# ---------------------------------------------------------------------------
# odd holes and perfection

def find_induced_odd_hole(g: Graph, min_len: int = 5, deadline=None, reverse=False):
    """A chordless odd cycle of length >= min_len, or None.

    DFS over chordless path extensions: the path's interior may not touch
    the base node or any non-consecutive path node, which prunes hard in
    dense graphs.  The returned node set is re-verified before handing out.
    `reverse` flips the deterministic scan order (used by `recheck` as an
    independent search path).
    """
    _check_deadline(deadline)
    adj = g._adj
    n = g.n
    order = range(n - 1, -1, -1) if reverse else range(n)
    steps = 0
    for b in order:
        nb_b = adj[b]
        gt_b = ~((1 << (b + 1)) - 1) & ((1 << n) - 1)

        # path = [b, p1, ..., last]; mid_ok excludes neighbors of interior nodes
        def dfs(p1, last, mid_ok, length):
            nonlocal steps
            steps += 1
            if steps % 2048 == 0:
                _check_deadline(deadline)
            reach = mid_ok & adj[last]
            if length + 1 >= min_len and (length + 1) % 2 == 1:
                for w in _bits(reach & nb_b):
                    if w > p1:
                        cyc = path + [w]
                        hole = as_nodeset(g.nodes[i] for i in cyc)
                        if not _is_hole(g, hole):
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


def _is_hole(g: Graph, nodes) -> bool:
    """Independent re-check: induced subgraph on `nodes` is a single cycle."""
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
    # connectivity of the 2-regular induced subgraph = one cycle
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


def is_odd_hole(g: Graph, nodes) -> bool:
    nodes = as_nodeset(nodes)
    return len(nodes) >= 5 and len(nodes) % 2 == 1 and _is_hole(g, nodes)


def is_perfect(g: Graph, deadline=None, reverse=False) -> bool:
    """Strong Perfect Graph Theorem route: no induced odd hole in g or its
    complement."""
    if find_induced_odd_hole(g, deadline=deadline, reverse=reverse) is not None:
        return False
    return find_induced_odd_hole(complement(g), deadline=deadline, reverse=reverse) is None


# ---------------------------------------------------------------------------
# the constructive odd-hole claim behind the web rank theorem

@dataclass(frozen=True)
class ConstructedHole:
    """Odd hole disjoint from a deletion set, with the recipe branch used.

    method is one of "constructive-a", "constructive-b", "fallback-search".
    """

    nodes: tuple
    method: str


def construct_odd_hole_avoiding(w: WebId, f, deadline=None) -> ConstructedHole:
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

    hole = find_induced_odd_hole(delete_nodes(g, f), deadline=deadline)
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
# I/O

def to_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.edge_count()}"]
    lines += [f"e {u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def from_dimacs(text: str) -> Graph:
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


def to_json_dict(g: Graph) -> dict:
    d = {"n": g.n, "nodes": list(g.nodes), "edges": [list(e) for e in g.edges()],
         "family_tag": family_tag(g)}
    if g.blocks:
        d["blocks"] = [list(b) for b in g.blocks]
        d["block_tags"] = list(g.block_tags)
    return d


def from_json_dict(d: dict) -> Graph:
    nodes = d.get("nodes") or range(1, d["n"] + 1)
    blocks = tuple(tuple(b) for b in d["blocks"]) if d.get("blocks") else None
    tags = tuple(d["block_tags"]) if d.get("block_tags") else None
    family = None
    tag = d.get("family_tag")
    if tag:
        parts = tag.split(":")
        if parts[0] == "W":
            family = ("web", int(parts[1]), int(parts[2]))
        elif parts[0] == "A":
            family = ("antiweb", int(parts[1]), int(parts[2]))
        elif parts[0] == "K":
            family = ("clique", int(parts[1]))
    return Graph(nodes, [tuple(e) for e in d["edges"]], family=family,
                 blocks=blocks, block_tags=tags)


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
        if parts[0] == "W" and len(parts) == 3:
            return web(int(parts[1]), int(parts[2]))
        if parts[0] == "A" and len(parts) == 3:
            return antiweb(int(parts[1]), int(parts[2]))
        if parts[0] == "K" and len(parts) == 2:
            return complete_graph(int(parts[1]))
        if parts[0] == "C" and len(parts) == 2:
            return cycle_graph(int(parts[1]))
    except ValueError as exc:
        # re-raise bound violations etc. with the spec string attached
        raise ValueError(f"{spec!r}: {exc}") from exc
    raise ValueError(f"unrecognized graph spec {spec!r}")
