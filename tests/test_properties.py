"""Property tests: the row-rank coverage check, the rotation symmetry that
anchors a row-rank search, the facets of the STAB hull and the
chordality test.

`recheck.hitting_set` decides the lower bound of a row rank; on seeded
random set families it agrees with the brute-force `pool_refutes_all` of
tests/oracles.py, anchored and not.  Its scan for an unmet mask starts
one past the mask the parent branched on; on random families with a
refuting callback, and in the graph-rank search of every web of `verify
web-formulas --ks 2,...,7` with n <= 16 and of its complement, it gives
the answers, refute calls and appended masks of the full-scan search of
tests/oracles.py.  `polyhedra.rotation_invariant` holds
on the rank row and QSTAB of every web, antiweb, clique and cycle with at
most 12 nodes, and fails on join hosts and on one-interval rows with
T != V.  Every facet that `convex_hull_facets` finds for a random graph
on at most 8 nodes is valid on each stable set and tight on n affinely
independent ones, both counted by enumeration in tests/oracles.py, and
its family tag (`inequalities.tag_inequality`, read off the facet) is the
one the stability-number reference of tests/oracles.py gives.
`graphs.is_chordal` accepts a graph on at most 10 nodes exactly when it
has no chordless cycle of length 4 or more (enumerated by subsets), and
when it accepts a graph or its complement, neither has an odd hole.  On
random polytopes in at most 4 dimensions, the `lp_max` optimum is the
best vertex, with the vertices read off the facets of the polar by the
double description core (and equal to those of the homogenized cone).
`recheck.point_bound` at the uniform point of QSTAB or FRAC is one more
than the largest m for which zeroing any m coordinates leaves a
violating point, and at most the row rank.
"""

from fractions import Fraction
from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from webrank import rank
from webrank.graphs import (Graph, WebId, antiweb, complement, complete_graph, cycle_graph,
                            is_chordal, max_weight_stable_set, parse_graph_spec, web)
from webrank.inequalities import (
    enumerate_one_interval_sets,
    join_blocks_of,
    joined_inequality,
    one_interval_inequality,
    rank_constraint,
    tag_inequality,
)
from webrank.polyhedra import (HPolytope, LinearInequality, convex_hull_facets, frac, lp_max,
                               nonneg_row, qstab, rotation_invariant, stab)
from webrank.rank import disjunctive_rank_graph, disjunctive_rank_inequality
from webrank.recheck import down_closed, hitting_set, point_bound

from oracles import (chordless_cycles, contains, enumerate_vertices, evaluate,
                     find_induced_odd_hole_by_generators,
                     hitting_set_by_full_scan, polar_vertices, pool_refutes_all,
                     rank_by_fractions, stable_sets_by_subsets, tag_inequality_by_alpha,
                     with_mixed_rows)


@st.composite
def set_families(draw):
    n = draw(st.integers(1, 9))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
    size = draw(st.integers(0, n))
    anchored = size >= 1 and draw(st.booleans())
    return n, masks, size, anchored


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(set_families())
def test_coverage_agrees_with_the_brute_force_oracle(case):
    n, masks, size, anchored = case
    g = Graph(range(1, n + 1), [])
    pool = [("support", [v for v in g.nodes if m >> (v - 1) & 1]) for m in masks]
    f = hitting_set(masks, size, 1 if anchored else 0)
    assert (f is None) == pool_refutes_all(g, pool, size, 1 if anchored else None)
    if f is not None:
        assert f.bit_count() <= size and all(m & f for m in masks)
        assert not anchored or f & 1


def _same_search(masks: list, size: int, seed: int, refute=None):
    """hitting_set's answer, after checking that the full-scan search of
    tests/oracles.py gives it too, with the same refute calls (replayed
    from hitting_set's, in order) and the same masks appended."""
    calls, replay = [], []

    def recorded(f):
        calls.append((f, miss := refute(f)))
        return miss

    def replayed(f):
        f_then, miss = calls[len(replay)]
        assert f == f_then
        replay.append(f)
        return miss

    before = list(masks)
    got = hitting_set(masks, size, seed, refute and recorded)
    assert hitting_set_by_full_scan(before, size, seed, refute and replayed) == got
    assert len(replay) == len(calls) and before == masks
    return got


@st.composite
def refuted_families(draw):
    """A set family, and a hidden one that refutes an F meeting the first
    with the first hidden mask F misses."""
    n, masks, size, anchored = draw(set_families())
    hidden = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=6))
    return masks, size, 1 if anchored else 0, hidden


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(refuted_families())
def test_hitting_set_resumes_its_scan_as_the_full_scan_search_decides(case):
    masks, size, seed, hidden = case
    _same_search(list(masks), size, seed)
    _same_search(masks, size, seed, lambda f: next((m for m in hidden if not m & f), None))


def test_graph_rank_searches_call_refute_as_the_full_scan_search(monkeypatch):
    """Every web of `verify web-formulas --ks 2,...,7` with n <= 16, and
    its complement: the graph-rank search's refute calls and answers."""
    searches = []

    def checked(masks, size, seed=0, refute=None):
        searches.append(size)
        return _same_search(masks, size, seed, refute)

    monkeypatch.setattr(rank, "hitting_set", checked)
    for k in range(2, 8):
        for n in range(2 * (k + 1), 17):
            g = web(n, k)
            assert disjunctive_rank_graph(g).rank == disjunctive_rank_graph(complement(g)).rank
    assert len(searches) > 72


def _small_circulants():
    for n in range(3, 13):
        yield complete_graph(n)
        yield cycle_graph(n)
        for k in range(1, (n - 2) // 2 + 1):
            yield web(n, k)
        for k in range(2, n // 2 + 1):
            yield antiweb(n, k)


def test_rotation_invariant_on_every_small_web_antiweb_clique_and_cycle():
    graphs = list(_small_circulants())
    assert len(graphs) == 70         # 10 cliques, 10 cycles, 25 webs, 25 antiwebs
    for g in graphs:
        assert rotation_invariant(rank_constraint(g), qstab(g)), g


@pytest.mark.parametrize("spec", ["join:A:5:2,A:5:2", "join:K:3,A:5:2", "join:C:5,C:7",
                                  "join:W:7:2,A:8:3"])
def test_rotation_invariant_fails_on_join_hosts(spec):
    host = parse_graph_spec(spec)
    h = qstab(host)
    assert not rotation_invariant(joined_inequality(join_blocks_of(host)), h)
    assert not rotation_invariant(rank_constraint(host), h)


def test_rotation_invariant_fails_on_one_interval_rows_off_v():
    checked = 0
    for n in range(6, 11):
        g = web(n, 2)
        h = qstab(g)
        for s in enumerate_one_interval_sets(n):
            if s.T != g.nodes:
                assert not rotation_invariant(one_interval_inequality(WebId(n, 2), s), h)
                checked += 1
    assert checked > 0


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = list(combinations(range(1, n + 1), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(range(1, n + 1), [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(small_graphs())
def test_hull_facets_are_valid_and_tight_on_n_independent_stable_sets(g):
    points = stable_sets_by_subsets(g)
    for row in convex_hull_facets(stab(g)):
        a = [row.coeffs.get(v, 0) for v in g.nodes]
        values = [sum(c * x for c, x in zip(a, p)) for p in points]
        assert max(values) <= row.rhs, row
        tight = [p for p, value in zip(points, values) if value == row.rhs]
        diffs = [[x - y for x, y in zip(p, tight[0])] for p in tight[1:]]
        assert rank_by_fractions(diffs) == g.n - 1, row


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(small_graphs())
def test_facet_tags_agree_with_the_stability_number_reference(g):
    for row in convex_hull_facets(stab(g)):
        assert tag_inequality(g, row) == tag_inequality_by_alpha(g, row), row


@st.composite
def graphs_up_to_10(draw):
    """A graph on at most 10 nodes: random edges, or the overlaps of random
    intervals (an interval graph, which is chordal)."""
    nodes = range(1, draw(st.integers(1, 10)) + 1)
    pairs = list(combinations(nodes, 2))
    if draw(st.booleans()):
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return Graph(nodes, [e for e, k in zip(pairs, keep) if k])
    ends = [sorted(draw(st.tuples(st.integers(0, 12), st.integers(0, 12)))) for _ in nodes]
    return Graph(nodes, [(u, v) for u, v in pairs
                         if ends[u - 1][0] <= ends[v - 1][1] and ends[v - 1][0] <= ends[u - 1][1]])


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(graphs_up_to_10())
def test_chordal_exactly_without_a_long_chordless_cycle(g):
    co = complement(g)
    assert is_chordal(g) == (next(chordless_cycles(g), None) is None)
    if is_chordal(g) or is_chordal(co):
        assert find_induced_odd_hole_by_generators(g) is None
        assert find_induced_odd_hole_by_generators(co) is None


@st.composite
def small_polytopes(draw):
    """(h, q, objective): h = {x >= 0 : x <= 1, a.x <= b} in 1 to 4
    dimensions with q = 1/2 in its interior (each random row has b - a.q
    in {1/4, ..., 2}), and an integer objective."""
    n = draw(st.integers(1, 4))
    index = tuple(range(1, n + 1))
    q = dict.fromkeys(index, Fraction(1, 2))
    rows = [nonneg_row(v) for v in index] + [LinearInequality({v: 1}, 1) for v in index]
    for _ in range(draw(st.integers(0, 4))):
        a = {v: draw(st.integers(-3, 3)) for v in index}
        slack = Fraction(draw(st.integers(1, 8)), 4)
        rows.append(LinearInequality(a, sum(c * q[v] for v, c in a.items()) + slack))
    objective = {v: draw(st.integers(-5, 5)) for v in index}
    return HPolytope(index, rows), q, objective


@st.composite
def row_rank_cases(draw):
    """(g, h, row): QSTAB or FRAC of a graph on 2 to 6 nodes and a row with
    coefficients in -2..4 whose right-hand side is the max over STAB."""
    g = draw(small_graphs().filter(lambda g: 2 <= g.n <= 6))
    h = draw(st.sampled_from((qstab, frac)))(g)
    coeffs = {v: draw(st.integers(-2, 4)) for v in g.nodes}
    return g, h, LinearInequality(coeffs, max_weight_stable_set(g, coeffs)[0])


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(small_polytopes())
def test_lp_optimum_is_the_best_vertex_of_the_dd_core(case):
    h, q, objective = case
    vertices = polar_vertices(h, q)
    assert sorted(map(sorted, (v.items() for v in vertices))) == \
        sorted(map(sorted, (v.items() for v in enumerate_vertices(h))))
    out = lp_max(h, objective)
    best = max(sum(c * x[v] for v, c in objective.items()) for x in vertices)
    assert out.status == "optimal" and out.value == best
    assert out.point in vertices            # a basic optimum is a vertex


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(row_rank_cases())
def test_the_point_bound_refutes_every_smaller_f_and_no_more(case):
    """`recheck.point_bound` at the uniform point of QSTAB or FRAC is m + 1
    for the largest m such that zeroing any m coordinates leaves a
    violating point (by trying every set), and at most the row rank of
    the search with no bound (`with_mixed_rows`)."""
    g, h, row = case
    t = min(Fraction(r.rhs, sum(r.coeffs.values())) for r in h.rows if sum(r.coeffs.values()) > 0)
    u = dict.fromkeys(h.index, t)
    assert down_closed(h) and not down_closed(with_mixed_rows(h)) and contains(h, u)
    bound = point_bound(h, row, dict.fromkeys(h.index, t.numerator), t.denominator)
    violating = [m for m in range(g.n + 1)
                 if all(evaluate(row, {**u, **dict.fromkeys(t, 0)}) > row.rhs
                        for t in combinations(h.index, m))]
    assert bound == (max(violating) + 1 if violating else 0)
    if bound:
        assert bound <= disjunctive_rank_inequality(row, with_mixed_rows(h)).rank
