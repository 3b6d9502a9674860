"""QSTAB/FRAC/STAB, exact LP over them, hulls and facet tests."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from webrank.graphs import (
    AntiwebId,
    antiweb,
    complete_graph,
    complete_join,
    web,
    Graph,
)
from webrank.inequalities import rank_constraint
from webrank.polyhedra import (
    HPolytope,
    LinearInequality,
    VPolytope,
    affine_rank,
    cone_extreme_rays,
    convex_hull_facets,
    enumerate_vertices,
    feasible_sets_equal,
    frac,
    is_facet,
    is_valid,
    is_vertex,
    lp_max,
    matrix_rank,
    nonneg_row,
    qstab,
    remove_redundant_rows,
    stab,
)

ones = lambda g: {v: 1 for v in g.nodes}


def k23():
    return Graph(range(1, 6), [(u, v) for u in (1, 2) for v in (3, 4, 5)])


def test_qstab_row_counts():
    assert len(qstab(web(5, 1)).rows) == 10            # 5 edges + 5 nonneg
    g = web(8, 2)
    rows = [r for r in qstab(g).rows if r.tag == "clique"]
    assert len(rows) == 8 and all(len(r.support) == 3 for r in rows)


def test_lp_max_examples():
    assert lp_max(qstab(web(5, 1)), ones(web(5, 1))).value == Fraction(5, 2)
    out = lp_max(qstab(web(8, 2)), ones(web(8, 2)))
    assert out.value == Fraction(8, 3)
    assert all(x == Fraction(1, 3) for x in out.point.values())
    # rank inequality of W_{3s+1}^2 violated at 1/3 * ones for s=3
    out = lp_max(qstab(web(10, 2)), ones(web(10, 2)))
    assert out.value == Fraction(10, 3) > 3


def test_lp_max_trivial_system():
    h = HPolytope((1, 2), [nonneg_row(1), nonneg_row(2)])
    out = lp_max(h, {})
    assert out.status == "optimal" and out.value == 0
    assert all(v == 0 for v in out.point.values())


def test_lp_duals_certify_each_solve():
    rng = random.Random(3)
    for n, k in [(5, 1), (7, 2), (8, 3)]:
        g = web(n, k)
        h = qstab(g)
        for _ in range(5):
            c = {v: Fraction(rng.randint(0, 7)) for v in g.nodes}
            out = lp_max(h, c)
            assert out.status == "optimal"
            # strong duality, exactly
            assert sum((y * r.rhs for y, r in zip(out.duals, h.rows)), Fraction(0)) \
                == out.value


def test_frac_k3_has_the_half_vertex():
    h = frac(complete_graph(3))
    half = {v: Fraction(1, 2) for v in (1, 2, 3)}
    assert is_vertex(half, h)
    out = lp_max(h, {1: 1, 2: 1, 3: 1})
    assert out.value == Fraction(3, 2) and out.point == half


def test_frac_equals_stab_on_bipartite():
    g = k23()
    hull_rows = convex_hull_facets(stab(g))
    hf = frac(g)
    assert all(is_valid(r, hf)[0] for r in hull_rows)


def test_frac_contains_qstab_on_webs():
    g = web(8, 2)
    hq = qstab(g)
    for r in frac(g).rows:
        assert is_valid(r, hq)[0]


def test_stab_point_lists():
    assert stab(complete_graph(2)).points == ((0, 0), (0, 1), (1, 0))
    assert len(stab(web(5, 1)).points) == 11
    assert max(sum(p) for p in stab(web(6, 2)).points) == 2


def test_is_valid_examples():
    h = qstab(web(5, 1))
    row = LinearInequality({v: 1 for v in range(1, 6)}, 2, tag="rank")
    ok, witness = is_valid(row, h)
    assert not ok and witness == {v: Fraction(1, 2) for v in range(1, 6)}
    ok, _ = is_valid(h.rows[-1], h)
    assert ok


def test_vacuous_validity_on_empty_polytope():
    h = HPolytope((1,), [nonneg_row(1), LinearInequality({1: 1}, -1)])
    ok, w = is_valid(LinearInequality({1: 1}, -5), h)
    assert ok and w is None


def test_hull_of_stab_c5():
    g = web(5, 1)
    facets = convex_hull_facets(stab(g))
    assert len(facets) == 11
    assert rank_constraint(g) in facets


def test_hull_equals_qstab_for_perfect_graphs():
    for g in (web(6, 2), web(8, 1), web(8, 3), web(10, 4), k23()):
        hull = HPolytope(g.nodes, convex_hull_facets(stab(g)))
        assert feasible_sets_equal(hull, qstab(g)), g


def test_hull_of_minimally_imperfect_is_qstab_plus_rank():
    for g in (web(5, 1), web(7, 1), web(9, 1), web(11, 1),
              web(7, 2), web(9, 3), web(11, 4)):      # odd holes + antiholes
        facets = set(convex_hull_facets(stab(g)))
        expected = set(qstab(g).rows) | {rank_constraint(g)}
        assert facets == expected, g


def test_membership_chain_stab_qstab_frac():
    webs = [(n, k) for k in range(1, 5) for n in range(2 * (k + 1), 11)]
    for n, k in webs:
        g = web(n, k)
        hq, hf = qstab(g), frac(g)
        for pt in stab(g).as_dicts():
            assert hq.contains(pt) and hf.contains(pt)
            assert all(0 <= x <= 1 for x in pt.values())


def test_is_facet_antiweb_prime_criterion():
    row7 = LinearInequality({v: 1 for v in range(1, 8)}, 2, tag="antiweb")
    assert is_facet(row7, antiweb(7, 2))
    row8 = LinearInequality({v: 1 for v in range(1, 9)}, 2, tag="antiweb")
    assert not is_facet(row8, antiweb(8, 2))
    assert is_facet(LinearInequality({1: 1, 2: 1, 3: 1}, 1), complete_graph(3))


def test_is_facet_rejects_invalid_rows_distinctly():
    bad = LinearInequality({v: 1 for v in range(1, 6)}, 1)
    with pytest.raises(ValueError, match="not valid"):
        is_facet(bad, web(5, 1))


def test_vertex_enumeration_of_qstab_c5():
    # the 11 stable set incidence vectors plus the all-half point
    verts = enumerate_vertices(qstab(web(5, 1)))
    assert len(verts) == 12
    assert {v: Fraction(1, 2) for v in range(1, 6)} in verts


def test_affine_rank_and_redundancy_removal():
    pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert affine_rank(pts) == 2
    h = HPolytope((1, 2), [nonneg_row(1), nonneg_row(2),
                           LinearInequality({1: 1, 2: 1}, 2),
                           LinearInequality({1: 1, 2: 1}, 3),
                           LinearInequality({1: 1}, 1),
                           LinearInequality({2: 1}, 1)])
    slim = remove_redundant_rows(h)
    assert LinearInequality({1: 1, 2: 1}, 3) not in slim.rows
    assert feasible_sets_equal(h, slim)


def test_hull_requires_full_dimension():
    flat = VPolytope((1, 2), [(0, 0), (1, 1)])
    with pytest.raises(ValueError, match="full-dimensional"):
        convex_hull_facets(flat)


def test_hull_bound_enforced():
    g = web(13, 2)
    with pytest.raises(ValueError, match="hull bound"):
        convex_hull_facets(stab(g), bound=12)


def test_canonical_equality_ignores_scaling_and_tag():
    a = LinearInequality({1: 2, 2: 2}, 4, tag="clique")
    b = LinearInequality({1: Fraction(1, 2), 2: Fraction(1, 2)}, 1, tag="other")
    c = LinearInequality({1: Fraction(-3, 4), 2: Fraction(-3, 4)}, Fraction(-3, 2))
    d = LinearInequality({1: -2, 2: -2}, -4, tag="hull")
    assert a == b and hash(a) == hash(b)
    assert c == d and hash(c) == hash(d)
    assert c.canonical() == (((1, -1), (2, -1)), -2) and c != a   # the sign is kept


def reference_rank(rows):
    """Gaussian elimination in Fractions, column by column."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        sel = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if sel is None:
            continue
        m[rank], m[sel] = m[sel], m[rank]
        pr = m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / pr[c]
                m[i] = [a - f * b for a, b in zip(m[i], pr)]
        rank += 1
    return rank


def random_rational_matrix(rng, nrows, ncols, rank):
    """nrows x ncols rows spanning at most `rank` dimensions, with zero and
    duplicate rows mixed in."""
    entry = lambda: Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))
    gens = [[entry() for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        pick = rng.random()
        if pick < 0.1:
            rows.append([Fraction(0)] * ncols)
        elif pick < 0.2 and rows:
            rows.append(list(rng.choice(rows)))
        else:
            coef = [entry() for _ in gens]
            rows.append([sum((k * g[j] for k, g in zip(coef, gens)), Fraction(0))
                         for j in range(ncols)])
    return rows


@pytest.mark.parametrize("shape", [(3, 7), (7, 3), (6, 6), (12, 5), (4, 11)])
def test_matrix_rank_matches_fraction_elimination(shape):
    rng = random.Random(f"rank:{shape}")
    nrows, ncols = shape
    ranks = set()
    for _ in range(40):
        rows = random_rational_matrix(rng, nrows, ncols, rng.randint(0, min(shape) + 1))
        want = reference_rank(rows)
        assert matrix_rank(rows) == want, rows
        ranks.add(want)
    assert len(ranks) > 2             # the seeds reach several ranks per shape


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_simplicial_cone_rays_invert_the_rows(d):
    rng = random.Random(f"cone:{d}")
    for _ in range(20):
        while True:
            b = [[rng.randint(-6, 6) for _ in range(d)] for _ in range(d)]
            b[0][0] = -abs(b[0][0]) or -1       # a negative first pivot
            if reference_rank(b) == d:
                break
        rays = cone_extreme_rays(b)
        assert len(rays) == d
        for j, r in enumerate(rays):
            assert all(isinstance(x, int) for x in r) and gcd(*r) == 1
            image = [sum(a * x for a, x in zip(row, r)) for row in b]
            assert image[j] > 0 and all(v == 0 for i, v in enumerate(image) if i != j)


def test_hull_on_join_host():
    host = complete_join(web(5, 1), web(5, 1))
    facets = convex_hull_facets(stab(host))
    joined = LinearInequality({v: Fraction(1, 2) for v in host.nodes}, 1)
    assert joined in facets
