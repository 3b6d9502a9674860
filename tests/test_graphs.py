"""Web/antiweb construction, cliques, stable sets, odd holes, perfection."""

import json
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from webrank.graphs import (
    AntiwebId,
    _is_hole,
    Graph,
    SearchTimeout,
    WebId,
    alpha,
    alpha_induced,
    antiweb,
    circular_distance,
    complement,
    complete_graph,
    complete_join,
    delete_nodes,
    enumerate_maximal_cliques,
    enumerate_stable_sets,
    family_tag,
    find_induced_odd_hole,
    from_json_dict,
    is_circulant,
    is_odd_hole,
    is_perfect,
    is_subweb,
    limits,
    max_weight_stable_set,
    mod1,
    omega,
    parse_graph_spec,
    read_family,
    to_dimacs,
    to_json_dict,
    web,
)
from webrank.polyhedra import stab
from webrank.reporting import dumps

from oracles import (
    ConstructedHole,
    complement_by_edges,
    construct_odd_hole_avoiding,
    cyclic_relabel_isomorphic,
    delete_nodes_by_edges,
    edgeless_graph,
    find_induced_odd_hole_by_generators,
    from_dimacs,
    has_induced_embedding,
    is_hole_by_pairs,
    max_over,
)


def random_graph(rng, n, labels=None):
    labels = labels or range(1, n + 1)
    p = rng.random()
    return Graph(labels, [e for e in combinations(sorted(labels), 2) if rng.random() < p])


def same_graph(a, b):
    return (a == b and a.nodes == b.nodes and a.edges() == b.edges()
            and a._pos == b._pos and a.family == b.family
            and a.blocks == b.blocks and a.block_tags == b.block_tags)


def test_web_5_1_is_the_5_cycle():
    g = web(5, 1)
    assert sorted(g.edges()) == [(1, 2), (1, 5), (2, 3), (3, 4), (4, 5)]


def test_web_8_2_degrees_and_clique_number():
    g = web(8, 2)
    assert all(g.degree(v) == 4 for v in g.nodes)
    assert omega(g) == 3


def test_web_6_2_complement_is_perfect_matching():
    # oracle: enumerate the non-edges, i.e. pairs at circular distance 3
    g = web(6, 2)
    non_edges = [(u, v) for u, v in combinations(g.nodes, 2) if not g.has_edge(u, v)]
    assert non_edges == [(1, 4), (2, 5), (3, 6)]


def test_web_bound_rejected_with_diagnostic():
    with pytest.raises(ValueError, match=r"2\(k\+1\)"):
        web(7, 3)
    with pytest.raises(ValueError):
        WebId(5, 2)


def test_antiweb_5_2_is_self_complementary_c5():
    assert cyclic_relabel_isomorphic(antiweb(5, 2), web(5, 1))


def test_antiweb_7_2_is_an_odd_antihole():
    a = antiweb(7, 2)
    assert a == complement(web(7, 1))
    assert not is_perfect(a)


def test_antiweb_8_3_alpha_and_omega_by_enumeration():
    a = antiweb(8, 3)
    assert alpha(a) == 3
    assert omega(a) == 8 // 3 == 2


def test_antiweb_bounds():
    with pytest.raises(ValueError):
        antiweb(5, 3)
    with pytest.raises(ValueError):
        AntiwebId(6, 1)
    assert AntiwebId(7, 2).prime
    assert not AntiwebId(8, 2).prime


def test_complement_is_involutive():
    g = web(8, 2)
    assert complement(complement(g)) == g


def test_complement_of_c5_is_c5_up_to_cyclic_relabel():
    assert cyclic_relabel_isomorphic(complement(web(5, 1)), web(5, 1))


def test_complement_of_complete_graph_is_edgeless():
    c = complement(complete_graph(4))
    assert c.edge_count() == 0


def test_delete_consecutive_nodes_of_web_gives_perfect_graph():
    # deleting k consecutive nodes of W_n^k leaves a perfect graph
    assert is_perfect(delete_nodes(web(8, 2), (1, 2)))
    assert is_perfect(delete_nodes(web(11, 3), (1, 2, 3)))


def test_delete_nothing_is_identity():
    g = web(8, 2)
    assert delete_nodes(g, ()) == g


def test_delete_one_node_of_w9_2_leaves_an_odd_hole():
    hole = find_induced_odd_hole(delete_nodes(web(9, 2), (1,)))
    assert hole is not None and len(hole) % 2 == 1


def test_graph_edits_match_the_edge_list_route():
    rng = random.Random(8)
    graphs = [complete_join(antiweb(7, 3), web(5, 1)), web(9, 2), antiweb(11, 4),
              edgeless_graph(1), complete_graph(4)]
    for _ in range(120):
        n = rng.randint(1, 14)
        graphs.append(random_graph(rng, n, rng.sample(range(1, 40), n)))
    for g in graphs:
        assert same_graph(complement(g), complement_by_edges(g))
        for _ in range(4):
            f = rng.sample(g.nodes, rng.randint(0, g.n - 1))
            assert same_graph(delete_nodes(g, f), delete_nodes_by_edges(g, f)), (g, f)
        with pytest.raises(ValueError, match="empty the graph"):
            delete_nodes(g, g.nodes)
        with pytest.raises(ValueError, match="unknown node label"):
            delete_nodes(g, [max(g.nodes) + 1])


def test_delete_unknown_label_rejected():
    with pytest.raises(ValueError, match="unknown"):
        delete_nodes(web(6, 2), (9,))


def test_join_degrees_and_blocks():
    j = complete_join(web(5, 1), web(5, 1))
    assert all(j.degree(v) == 7 for v in j.nodes)
    assert j.blocks == ((1, 2, 3, 4, 5), (6, 7, 8, 9, 10))


def test_join_with_k1_adds_universal_node():
    j = complete_join(complete_graph(1), web(5, 1))
    u = 1
    assert j.degree(u) == 5


def test_alpha_of_join_is_max_of_blocks():
    j = complete_join(web(5, 1), web(5, 1))
    assert alpha(j) == 2 == max(alpha(web(5, 1)), alpha(web(5, 1)))


def test_join_complement_is_disjoint_union_of_complements():
    g1, g2 = web(5, 1), complete_graph(3)
    j = complete_join(g1, g2)
    cj = complement(j)
    for u in range(1, 6):
        for v in range(6, 9):
            assert not cj.has_edge(u, v)
    assert cj.edge_count() == complement(g1).edge_count() + complement(g2).edge_count()


# ---------------------------------------------------------------------------
# subwebs

def test_subweb_remark_instance():
    # the subweb behind "A_17^3 is a subantiweb of A_25^4"
    assert is_subweb(WebId(17, 2), WebId(25, 3))


def test_subweb_is_reflexive():
    assert is_subweb(WebId(10, 3), WebId(10, 3))


def test_subweb_instance_from_the_n_rank_lower_bound_construction():
    # k=4, s=3, r=2: W_{n'}^{k'} with k'=k-t, n'=(s-1)(k'+1)+k' sits inside W_17^4
    k, s, r = 4, 3, 2
    n = s * (k + 1) + r
    t = -((-k * (1 + r)) // (r + s))  # ceil
    kp = k - t
    np_ = (s - 1) * (kp + 1) + kp
    assert t == 3 and (np_, kp) == (5, 1)
    assert is_subweb(WebId(np_, kp), WebId(n, k))


def test_subweb_formula_agrees_with_induced_embedding_search():
    ids = [WebId(n, k) for n in range(4, 13) for k in range(1, n // 2)
           if n >= 2 * (k + 1)]
    for outer in ids:
        og = web(outer.n, outer.k)
        for inner in ids:
            if inner.n > outer.n:
                continue
            formula = is_subweb(inner, outer)
            oracle = has_induced_embedding(web(inner.n, inner.k), og)
            assert formula == oracle, (inner, outer)


# ---------------------------------------------------------------------------
# cliques and stable sets

def test_maximal_cliques_of_webs_are_the_windows():
    g = web(8, 2)
    cliques = enumerate_maximal_cliques(g)
    expected = sorted(tuple(sorted(mod1(i + d, 8) for d in range(3)))
                      for i in range(1, 9))
    assert cliques == expected
    assert omega(g) == 3


def test_maximal_cliques_of_edgeless_graph_are_singletons():
    assert enumerate_maximal_cliques(edgeless_graph(4)) == [(1,), (2,), (3,), (4,)]


def test_antiweb_25_4_clique_number():
    assert omega(antiweb(25, 4)) == 25 // 4 == 6


def test_web_alpha_omega_formulas_by_enumeration():
    for n in range(4, 21):
        for k in range(1, n // 2):
            if n < 2 * (k + 1):
                continue
            g = web(n, k)
            assert omega(g) == k + 1, (n, k)
            assert alpha(g) == n // (k + 1), (n, k)


def test_alpha_matches_enumeration_on_random_graphs():
    rng = random.Random(21)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 14))
        assert alpha(g) == max(len(s) for s in enumerate_stable_sets(g))


def test_alpha_has_no_enumeration_cap():
    assert alpha(web(20, 2)) == 6
    assert alpha(antiweb(25, 4)) == 4


def test_alpha_examples():
    assert alpha(web(8, 2)) == 2
    assert alpha(complete_graph(6)) == 1
    assert alpha_induced(web(9, 2), (1, 3, 5, 6, 7, 8)) == 2


def test_stable_set_enumeration_counts():
    assert len(enumerate_stable_sets(web(5, 1))) == 11
    assert () in enumerate_stable_sets(complete_graph(3))


def test_max_weight_stable_set_matches_enumeration():
    """Against every stable set, the points of STAB; summing over the sets
    is 10x cheaper than oracles.max_over on stab(g)."""
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 14)
        p = rng.random()
        g = Graph(range(1, n + 1), [e for e in combinations(range(1, n + 1), 2)
                                    if rng.random() < p])
        w = {v: Fraction(rng.randint(-3, 9), rng.choice((1, 1, 2, 3, 7)))
             for v in g.nodes if rng.random() < 0.9}        # some nodes unweighted
        value, nodes = max_weight_stable_set(g, w)
        assert value == max(sum((w.get(v, 0) for v in s), Fraction(0))
                            for s in enumerate_stable_sets(g))
        assert all(not g.has_edge(u, v) for u, v in combinations(nodes, 2))
        assert sum((w.get(v, 0) for v in nodes), Fraction(0)) == value


def test_max_weight_stable_set_has_no_size_cap():
    for n in range(4, 41):
        for k in range(1, (n - 2) // 2 + 1):
            g = web(n, k)
            value, nodes = max_weight_stable_set(g, {v: 1 for v in g.nodes})
            assert value == n // (k + 1) == len(nodes)
    assert max_weight_stable_set(web(5, 1), {1: -1, 2: 0}) == (0, ())
    g = web(9, 2)
    w = {v: Fraction(v % 4, 3) for v in g.nodes}
    assert max_weight_stable_set(g, w)[0] == max_over(stab(g), w)[0] == 2


# ---------------------------------------------------------------------------
# odd holes and perfection

def test_c5_is_its_own_odd_hole():
    assert find_induced_odd_hole(web(5, 1)) == (1, 2, 3, 4, 5)


def test_w6_2_has_no_odd_hole_and_is_perfect():
    assert find_induced_odd_hole(web(6, 2)) is None
    assert is_perfect(web(6, 2))


def test_deleting_one_node_of_w11_2_leaves_an_odd_hole():
    hole = find_induced_odd_hole(delete_nodes(web(11, 2), (1,)))
    assert hole is not None


def test_perfection_of_bipartite_complement_case():
    # delete s consecutive nodes from W_{2(k+1)+s}^k (k=3, s=2)
    g = delete_nodes(web(10, 3), (1, 2))
    assert is_perfect(g)
    assert not is_perfect(web(7, 2))
    assert is_perfect(web(8, 1))


def test_perfection_is_self_complementary_on_small_catalog():
    cat = [web(6, 2), web(7, 2), web(8, 2), web(8, 3), web(9, 2),
           complete_graph(5), edgeless_graph(5),
           complete_join(web(5, 1), complete_graph(2))]
    for g in cat:
        assert is_perfect(g) == is_perfect(complement(g))


def test_odd_hole_search_matches_the_generator_dfs():
    rng = random.Random(14)
    found = 0
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 14))
        for h in (g, complement(g)):
            hole = find_induced_odd_hole(h)
            assert hole == find_induced_odd_hole_by_generators(h)
            found += hole is not None
    assert 100 < found < 500           # both outcomes are well represented


def test_odd_hole_search_matches_the_generator_dfs_on_webs_minus_nodes():
    # webs and antiwebs less a few nodes, and their complements, are the
    # searches of a graph rank: many are chordal, where the reachability
    # cut of the DFS prunes, and the answer must still be the uncut one
    rng = random.Random(31)
    graphs = [web(n, k) for n in range(4, 21) for k in range(1, n // 2)] + \
             [antiweb(n, k) for n in range(4, 21) for k in range(2, n // 2 + 1)]
    found = {True: 0, False: 0}
    for g in graphs:
        for _ in range(rng.randint(2, 3)):
            h = delete_nodes(g, rng.sample(g.nodes, rng.randint(1, 3)))
            for x in (h, complement(h)):
                hole = find_induced_odd_hole(x)
                assert hole == find_induced_odd_hole_by_generators(x)
                found[hole is not None] += 1
    assert len(graphs) == 162 and min(found.values()) > 300


def test_masked_search_is_the_search_on_the_graph_minus_the_mask():
    # the search on g with the positions of F as its deleted mask scans,
    # finds and labels as the search on delete_nodes(g, F), on g and on
    # its complement (co(G - F) = co(G) - F); F = () and F leaving fewer
    # than 5 nodes, too few for a hole, are among them
    rng = random.Random(46)
    graphs = [random_graph(rng, n, rng.sample(range(1, 60), n))
              for n in (rng.randint(1, 14) for _ in range(150))]
    graphs += [web(n, k) for n in range(4, 13) for k in range(1, (n - 2) // 2 + 1)]
    graphs += [antiweb(n, k) for n in range(4, 13) for k in range(2, n // 2 + 1)]
    found = {True: 0, False: 0}
    for g in graphs:
        co = complement(g)
        sizes = (0, rng.randint(1, g.n - 1) if g.n > 1 else 0, g.n - rng.randint(1, min(4, g.n)))
        for f in (rng.sample(g.nodes, size) for size in sizes):
            mask, rest = sum(1 << g._pos[v] for v in f), delete_nodes(g, f)
            assert complement(rest) == delete_nodes(co, f)
            for h, h_minus_f in ((g, rest), (co, complement(rest))):
                hole = find_induced_odd_hole(h, mask)
                assert hole == find_induced_odd_hole(h_minus_f), (h.edges(), f)
                found[hole is not None] += 1
    assert len(graphs) == 200 and min(found.values()) > 100


def test_the_rank_search_builds_no_graph_after_its_root_pair(monkeypatch):
    # disjunctive_rank_graph builds (g, complement(g)) once and searches
    # every G - F on its masks: no complement, no delete_nodes after that
    from webrank import graphs, rank
    w, u = web(13, 3), delete_nodes(web(12, 2), (5,))
    pairs = [(w, complement(w)), (u, complement(u))]
    built = []
    for name in ("complement", "delete_nodes"):
        real = getattr(graphs, name)

        def counting(*args, name=name, real=real):
            built.append(name)
            return real(*args)
        for module in (graphs, rank):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    monkeypatch.setattr(rank, "_HOLES", {})
    monkeypatch.setattr(rank, "_HOLES_PAIR", None)
    for g, co in pairs:
        assert rank.disjunctive_rank_graph(g).rank > 0 and built == ["complement"]
        built.clear()
        for h in (co, g, co):
            assert rank.disjunctive_rank_graph(h).rank > 0
        assert built == []


def planted_cycles(rng, n):
    """(graph, node list, expected verdict or None) triples on a random graph
    with n non-contiguous labels: a planted hole, the same graph with a
    chord across it, two disjoint planted cycles, the holes the odd-hole
    search finds, and random node lists of any size."""
    labels = sorted(rng.sample(range(1, 40), n))
    p = rng.random()
    edges = {e for e in combinations(labels, 2) if rng.random() < p}
    order = rng.sample(labels, n)

    def plant(cycle):
        inside = set(cycle)
        edges.difference_update({e for e in edges if e[0] in inside and e[1] in inside})
        edges.update(tuple(sorted(e)) for e in zip(cycle, cycle[1:] + cycle[:1]))

    planted = []
    if n >= 4:
        k = rng.randint(4, n)
        hole, order = order[:k], order[k:]
        plant(hole)
        planted.append((hole, True))
    if len(order) >= 6:
        a = rng.randint(3, len(order) - 3)
        first, second = order[:a], order[a:a + rng.randint(3, len(order) - a)]
        plant(first)
        plant(second)
        planted.append((first + second, False))
    g = Graph(labels, edges)
    cases = [(g, nodes, expected) for nodes, expected in planted]
    if n >= 4:
        i = rng.randrange(len(hole))
        j = (i + rng.randint(2, len(hole) - 2)) % len(hole)
        cases.append((Graph(labels, edges | {tuple(sorted((hole[i], hole[j])))}), hole, False))
    cases += [(g, rng.sample(labels, rng.randint(0, n)), None) for _ in range(6)]
    found = find_induced_odd_hole(g)
    if found is not None:
        cases.append((g, list(found), True))
    return cases


def test_hole_recheck_on_masks_matches_the_pair_scan():
    rng = random.Random(9)
    seen = {True: 0, False: 0}
    for _ in range(400):
        for g, nodes, expected in planted_cycles(rng, rng.randint(1, 14)):
            verdict = _is_hole(g, sum(1 << g._pos[v] for v in set(nodes)))
            assert verdict == is_hole_by_pairs(g, nodes), (g.edges(), nodes)
            assert expected is None or verdict == expected, (g.edges(), nodes)
            seen[verdict] += 1
    for small in (0, 0b1, 0b11, 0b111):     # a triangle is no hole
        assert not _is_hole(complete_graph(3), small)
    assert seen[True] > 300 and seen[False] > 1000


def test_odd_hole_search_deadline():
    for deleted in (0, 0b101):
        with limits(deadline=time.monotonic() - 1), pytest.raises(SearchTimeout):
            find_induced_odd_hole(web(14, 2), deleted)


def test_is_odd_hole_recheck_rejects_chords_and_even_cycles():
    g = web(8, 2)
    assert not is_odd_hole(g, (1, 2, 3, 4, 5))       # chords everywhere
    assert not is_odd_hole(web(6, 1), (1, 2, 3, 4, 5, 6))  # even


# ---------------------------------------------------------------------------
# the constructive odd-hole claim

def test_construct_odd_hole_small_examples():
    res = construct_odd_hole_avoiding(WebId(8, 2), (1,))
    assert 1 not in res.nodes and len(res.nodes) in (5, 7)
    res = construct_odd_hole_avoiding(WebId(11, 3), (1, 2))
    assert not {1, 2} & set(res.nodes) and len(res.nodes) % 2 == 1


def test_construct_odd_hole_postcondition_everywhere_small():
    for k in (2, 3):
        for n in range(3 * k + 2, 13):
            g = web(n, k)
            for f in combinations(range(1, n + 1), k - 1):
                res = construct_odd_hole_avoiding(WebId(n, k), f)
                assert isinstance(res, ConstructedHole)
                assert not set(res.nodes) & set(f)
                assert is_odd_hole(g, res.nodes)


def test_construct_odd_hole_case_b_instance():
    # every L_i meets this F, so the second branch of the case analysis
    # must produce the hole (frozen instance found by search)
    f = (1, 3, 6, 11, 16, 21)
    res = construct_odd_hole_avoiding(WebId(23, 7), f)
    assert res.method == "constructive-b"
    assert not set(res.nodes) & set(f)
    assert is_odd_hole(web(23, 7), res.nodes)


def test_construct_odd_hole_hypothesis_errors():
    with pytest.raises(ValueError, match="3k\\+2"):
        construct_odd_hole_avoiding(WebId(7, 2), (1,))
    with pytest.raises(ValueError, match="k-1"):
        construct_odd_hole_avoiding(WebId(9, 2), (1, 2))


# ---------------------------------------------------------------------------
# I/O

def test_dimacs_round_trip():
    g = web(8, 2)
    assert from_dimacs(to_dimacs(g)) == Graph(g.nodes, g.edges())


def test_circulance_is_read_off_the_adjacency():
    """`is_circulant` holds on every web and antiweb with n <= 25, agrees
    with rotating the edge list on random graphs and circulants, fails on
    every seeded deletion of the benchmark's `combinatorial` inputs, and
    ignores a doctored family tag."""
    assert all(is_circulant(web(n, k)) for k in range(1, 12) for n in range(2 * k + 2, 26))
    assert all(is_circulant(antiweb(n, k)) for k in range(2, 13) for n in range(2 * k, 26))
    for seed in (1, 2, 3):
        rng = random.Random(f"combinatorial:{seed}")      # drawn as bench/workloads.py does
        for k in range(2, 8):
            for n in range(2 * (k + 1), 26):
                f = sorted(rng.sample(range(1, n + 1), 1 + n % 3))
                assert not is_circulant(delete_nodes(web(n, k), f)), (n, k, f)
    rng = random.Random(4)
    for trial in range(300):
        n = rng.randint(1, 9)
        if trial % 2:
            dists = set(rng.sample(range(1, n // 2 + 1), rng.randint(0, n // 2)))
            g = Graph(range(1, n + 1), [(i, j) for i, j in combinations(range(1, n + 1), 2)
                                        if circular_distance(i, j, n) in dists])
        else:
            g = random_graph(rng, n)
        rotated = {tuple(sorted((mod1(u + 1, n), mod1(v + 1, n)))) for u, v in g.edges()}
        assert is_circulant(g) == (rotated == set(g.edges())), g.edges()
        assert is_circulant(g) or not trial % 2          # each C_n(dists) is circulant
    shifted = Graph(range(2, 7), [(2, 3), (3, 4), (4, 5), (5, 6), (2, 6)])
    assert not is_circulant(shifted)               # a 5-cycle, but not on 1..5
    tagged = Graph(range(1, 7), [(2, 3), (3, 4), (4, 5), (5, 6), (2, 6)], family=("web", 6, 1))
    assert tagged.family == ("web", 6, 1) and not is_circulant(tagged)


def test_json_form_of_a_graph_is_its_nodes_and_edges():
    """`to_json_dict` of a join writes its nodes and edges alone, and
    `from_json_dict` rebuilds an equal graph from them, through the JSON
    text too; the family and blocks stay with the program."""
    j = complete_join(antiweb(5, 2), complete_graph(3))
    d = to_json_dict(j)
    assert set(d) == {"nodes", "edges"} and j.blocks
    for back in (from_json_dict(d), from_json_dict(json.loads(dumps(d)))):
        assert back == j and back.edges() == j.edges()
        assert back.family is None and back.blocks is None


def test_read_family_reads_back_every_family_tag():
    """Each W, A and K graph with n <= 12 reads its family back from its
    tag; any other text reads None, and a parameter that int cannot read
    raises."""
    graphs = [web(n, k) for n in range(4, 13) for k in range(1, n // 2)]
    graphs += [antiweb(n, k) for n in range(4, 13) for k in range(2, n // 2 + 1)]
    graphs += [complete_graph(n) for n in range(1, 13)]
    assert len({g.family[0] for g in graphs}) == 3
    for g in graphs:
        assert read_family(family_tag(g)) == g.family, g.family
    for text in ("", "W", "W:10", "W:10:2:1", "K:3:1", "A:9", "C:5", "X:5:2", "w:10:2",
                 "join:A:5:2,K:3", "web:10:2", ":10:2"):
        assert read_family(text) is None, text
    assert family_tag(complete_join(web(6, 1), complete_graph(2))) is None
    with pytest.raises(ValueError, match="invalid literal for int"):
        read_family("W:x:2")


def test_parse_graph_spec_forms():
    assert parse_graph_spec("W:8:2").edge_count() == 16
    assert parse_graph_spec("A:5:2").edge_count() == 5
    assert parse_graph_spec("K:4").edge_count() == 6
    assert parse_graph_spec("C:5") == web(5, 1)
    j = parse_graph_spec("join:A:5:2,A:5:2")
    assert j.n == 10 and j.block_tags == ("A:5:2", "A:5:2")
    with pytest.raises(ValueError):
        parse_graph_spec("X:3")
    with pytest.raises(ValueError):
        parse_graph_spec("W:7:3")  # web bound violation via spec string
