"""Inequality families: rank rows, 1-interval rows, antiweb and joined rows."""

from fractions import Fraction

import pytest

from webrank.graphs import (
    AntiwebId,
    WebId,
    alpha_induced,
    antiweb,
    complete_graph,
    complete_join,
    web,
)
from webrank.inequalities import (
    JoinBlocks,
    OneIntervalSet,
    antiweb_constraint,
    enumerate_one_interval_sets,
    join_blocks_of,
    joined_inequality,
    one_interval_inequality,
    one_interval_set,
    rank_constraint,
    stab_description_w2,
    stab_description_w2_polytope,
    tag_inequality,
)
from webrank.polyhedra import (
    HPolytope,
    LinearInequality,
    convex_hull_facets,
    stab,
)

from oracles import feasible_sets_equal, is_facet


def test_rank_constraint_examples():
    assert rank_constraint(web(5, 1)).rhs == 2
    assert rank_constraint(web(8, 2)).rhs == 2        # W_{s(k+1)+k}^k with s=2
    row = antiweb_constraint(AntiwebId(9, 3))
    assert row.rhs == 3 and set(row.support) == set(range(1, 10))


def test_one_interval_sets_n9():
    sets = enumerate_one_interval_sets(9)
    assert len(sets) == 9
    wanted = one_interval_set(9, (1, 1, 4), 1)
    assert wanted.T == (1, 3, 5, 6, 7, 8)
    assert wanted.T in [s.T for s in sets]
    assert wanted.k_values == (0, 0, 1)


def test_one_interval_sets_n6_are_triangles():
    sets = enumerate_one_interval_sets(6)
    assert all(len(s.T) == 3 for s in sets)
    g = web(6, 2)
    for s in sets:
        t = s.T
        assert all(g.has_edge(u, v) for i, u in enumerate(t) for v in t[i + 1:])


def test_one_interval_sets_n7_empty():
    assert enumerate_one_interval_sets(7) == []


def test_one_interval_inequality_rhs():
    s = one_interval_set(9, (1, 1, 4), 1)
    row = one_interval_inequality(WebId(9, 2), s)
    assert row.rhs == 2 and row.support == (1, 3, 5, 6, 7, 8)
    # all k_j = 0 with t = 3 gives a triangle row
    s6 = one_interval_set(6, (1, 1, 1), 1)
    assert one_interval_inequality(WebId(6, 2), s6).rhs == 1
    # n = 12 with sizes (1, 1, 7): rhs = 0 + 0 + 2 + 1
    s12 = one_interval_set(12, (1, 1, 7), 1)
    assert one_interval_inequality(WebId(12, 2), s12).rhs == 3


def test_closed_form_matches_enumeration_up_to_13():
    for n in range(6, 14):
        for s in enumerate_one_interval_sets(n):
            assert s.closed_form_alpha() == alpha_induced(web(n, 2), s.T), (n, s.T)


def test_one_interval_set_validation():
    with pytest.raises(ValueError, match="odd"):
        OneIntervalSet(8, ((1,), (3,)), (2, 4))
    with pytest.raises(ValueError, match="1 mod 3"):
        one_interval_set(9, (2, 1, 1), 1)
    with pytest.raises(ValueError, match="partition"):
        OneIntervalSet(9, ((1,), (3,), (5, 6, 7, 8)), (2, 4, 1))
    with pytest.raises(ValueError, match="k=2"):
        one_interval_inequality(WebId(9, 3), one_interval_set(9, (1, 1, 4), 1))


def test_description_w2_rank_row_presence():
    d9 = stab_description_w2(9)
    assert not any(tag_inequality(web(9, 2), r) == "rank" for r in d9)        # 3 | 9
    d10 = stab_description_w2(10)
    rank_rows = [r for r in d10 if tag_inequality(web(10, 2), r) == "rank"]
    assert len(rank_rows) == 1 and rank_rows[0].rhs == 3


def test_description_w2_matches_hull_on_w8():
    g = web(8, 2)
    desc = stab_description_w2_polytope(8)
    hull = HPolytope(g.nodes, convex_hull_facets(stab(g)))
    assert feasible_sets_equal(desc, hull)


def test_antiweb_constraint_examples():
    for (n, k), prime in (((7, 2), True), ((8, 2), False), ((25, 4), True)):
        a = AntiwebId(n, k)
        assert antiweb_constraint(a).rhs == k and a.prime == prime
    # desk-scale facet confirmation on the analogous prime antiweb A_9^4
    a9 = AntiwebId(9, 4)
    assert a9.prime and is_facet(antiweb_constraint(a9), antiweb(9, 4))


def test_antiweb_facet_iff_prime_exhaustively():
    for n in range(4, 13):
        for k in range(2, n // 2 + 1):
            a = AntiwebId(n, k)
            assert is_facet(antiweb_constraint(a), antiweb(n, k)) == a.prime, (n, k)


def test_joined_inequality_c5_join_c5():
    host = complete_join(web(5, 1), web(5, 1))
    row = joined_inequality(join_blocks_of(host))
    assert row.rhs == 1
    assert all(c == Fraction(1, 2) for c in row.coeffs.values())


def test_joined_inequality_k1_join_c5():
    host = complete_join(complete_graph(1), web(5, 1))
    row = joined_inequality(join_blocks_of(host))
    assert row.coeffs[1] == 1
    assert all(row.coeffs[v] == Fraction(1, 2) for v in range(2, 7))


def test_joined_rows_are_facets_of_the_join():
    hosts = [complete_join(web(5, 1), web(5, 1)),
             complete_join(complete_graph(3), web(5, 1)),
             complete_join(antiweb(7, 2), complete_graph(3)),
             complete_join(antiweb(7, 2), web(5, 1))]
    for host in hosts:
        row = joined_inequality(join_blocks_of(host))
        assert is_facet(row, host), host


def test_join_blocks_witness_verification():
    g = web(6, 2)  # not a complete join of these blocks
    with pytest.raises(ValueError, match="join witness"):
        JoinBlocks(g, ((1, 2, 3), (4, 5, 6)), (None, None))
    with pytest.raises(ValueError, match="metadata"):
        join_blocks_of(g)


def test_tag_inference_on_w9_hull():
    g = web(9, 2)
    tags = sorted(tag_inequality(g, f) for f in convex_hull_facets(stab(g)))
    assert tags.count("nonneg") == 9
    assert tags.count("clique") == 9
    assert tags.count("one-interval") == 9
