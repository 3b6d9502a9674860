"""Answers known independently of the code under test.

Nothing here imports `webrank`: graphs are rebuilt from their
definitions as adjacency bitmasks, and every check is plain rational
or modular arithmetic.  The closed forms are the theorems the package
is meant to reproduce.
"""

from __future__ import annotations

from fractions import Fraction

PRIME = (1 << 61) - 1


def circ_dist(i, j, n):
    d = abs(i - j) % n
    return min(d, n - d)


def web_adj(n, k):
    """W_n^k on nodes 1..n: i ~ j iff circular distance in [1, k]."""
    return {i: {j for j in range(1, n + 1) if j != i and circ_dist(i, j, n) <= k}
            for i in range(1, n + 1)}


def antiweb_adj(n, k):
    """A_n^k = complement of W_n^{k-1}: i ~ j iff circular distance >= k."""
    return {i: {j for j in range(1, n + 1) if j != i and circ_dist(i, j, n) >= k}
            for i in range(1, n + 1)}


def stable_sets(adj):
    """Every stable set (the empty one included) as a tuple of nodes."""
    out = [()]
    for v in sorted(adj):
        out += [s + (v,) for s in out if not adj[v] & set(s)]
    return out


def cliques(adj):
    """Every nonempty clique as a tuple of nodes."""
    out = [()]
    for v in sorted(adj):
        out += [s + (v,) for s in out if set(s) <= adj[v]]
    return out[1:]


def web_rank(n, k):
    """r_d(W_n^k) for k >= 2: n - 2(k+1) below n = 3k+2, k from there on."""
    return n - 2 * (k + 1) if n < 3 * k + 2 else k


def antiweb_row_rank(n, k):
    """Disjunctive rank of x(V(A_n^k)) <= k for prime A_n^k."""
    return n - (n // k) * k


ALPHA_C5 = 2                          # the N^2 max of x(V) over QSTAB(C_5)


def in_qstab(point, clique_list):
    return (all(v >= 0 for v in point.values())
            and all(sum(point.get(v, 0) for v in q) <= 1 for q in clique_list))


def max_over_stable(coeffs, sets):
    return max(sum((coeffs.get(v, 0) for v in s), Fraction(0)) for s in sets)


def check_member(x, f, multipliers, clique_list):
    """A member certificate: pieces in QSTAB with x_F = z, summing to x."""
    total = Fraction(0)
    combo = {v: Fraction(0) for v in x}
    for z, lam, pt in multipliers:
        if lam <= 0 or not in_qstab(pt, clique_list):
            return False
        if any(pt.get(v, 0) != zv for v, zv in zip(f, z)):
            return False
        total += lam
        for v in combo:
            combo[v] += lam * pt.get(v, 0)
    return total == 1 and combo == x


def check_separating(x, coeffs, rhs, sets):
    """A non-member certificate: violated at x, valid on every stable set."""
    at_x = sum((c * x.get(v, 0) for v, c in coeffs.items()), Fraction(0))
    return at_x > rhs and max_over_stable(coeffs, sets) <= rhs


def _rank_mod_p(rows):
    rows = [[v % PRIME for v in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], PRIME - 2, PRIME)
        pr = [v * inv % PRIME for v in rows[rank]]
        rows[rank] = pr
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                m = rows[i][c]
                rows[i] = [(a - m * b) % PRIME for a, b in zip(rows[i], pr)]
        rank += 1
    return rank


def is_stab_facet(coeffs, rhs, nodes, sets):
    """a.x <= b is valid on STAB and tight on n affinely independent points.

    The tight points lie on the hyperplane a.x = b (a != 0), so their
    affine rank is at most n - 1; a rank of n - 1 modulo a prime is a
    lower bound on the rational rank, which settles equality.
    """
    if not any(coeffs.values()):
        return False
    tight = []
    for s in sets:
        val = sum((coeffs.get(v, 0) for v in s), Fraction(0))
        if val > rhs:
            return False
        if val == rhs:
            tight.append(s)
    if len(tight) < len(nodes):
        return False
    members = [set(s) for s in tight]
    base = members[0]
    diffs = [[(v in m) - (v in base) for v in nodes] for m in members[1:]]
    return _rank_mod_p(diffs) == len(nodes) - 1
