"""The N lift folded onto the column orbits of a dihedral symmetry group.

`NLiftSystem.maximize` takes every objective over the LP folded onto the
column orbits of the rotations and reflections of h.index that fix it
(`polyhedra.symmetries`).  The folded max must equal the max of the
presolved lift LP itself, its expanded optimum must be a feasible point
of that LP with that value (and, at depth 1, a Y that
`recheck.check_n_matrix` accepts).  The trivial group's fold is the presolved LP row for row, and
an objective no symmetry fixes re-solves it warm, as the LP itself would.
"""

import random
import time
from fractions import Fraction

import pytest

from webrank import liftproject, rank
from webrank.graphs import antiweb, delete_nodes, web
from webrank.liftproject import NLiftSystem, _generators
from webrank.polyhedra import (HPolytope, LinearInequality, nonneg_row, qstab,
                               rotation_invariant, symmetries)
from webrank.rank import n_rank_graph_upto
from webrank.recheck import check_n_matrix

SMALL = ([web(n, k) for k in range(1, 4) for n in range(2 * (k + 1), 9)]
         + [antiweb(n, k) for k in range(2, 5) for n in range(2 * k, 9)])


def _lp_objective(sys_, c):
    return {col: c[v] for v, col in sys_._diag if col is not None and c.get(v)}


def _feasible(sys_, x) -> bool:
    """x meets every presolved row of sys_."""
    return all(sum(a * x[j] for j, a in row.items()) <= rhs for row, rhs in sys_._presolved)


def _asymmetric(h):
    """1, 2, ..., n on h.index: no rotation or reflection fixes it."""
    return {v: i for i, v in enumerate(h.index, start=1)}


def _reflection_objective(h, p, rng):
    """Distinct random weights on the pairs {i, p[i]} of positions: only
    the identity and the reflection p fix them."""
    pair_value = {}
    values = rng.sample(range(1, 10 * h.dim), h.dim)
    return {v: pair_value.setdefault(min(i, p[i]), values[min(i, p[i])])
            for i, v in enumerate(h.index)}


def _check_folded_max(sys_, ref, c):
    """The folded max of c against the presolved LP of ref (the trivial
    group's fold) solved from scratch; returns the raw result."""
    out, raw = sys_.maximize(c)
    want = ref._fold(())[0].solve(_lp_objective(ref, c))
    assert out.value == want.value == raw.value, c
    assert _feasible(sys_, raw.x), c
    assert sum(c[v] * x for v, x in out.point.items()) == out.value
    if sys_.depth == 1:
        y = sys_.y_matrix(raw)
        check_n_matrix(sys_.h, y)
        assert [y[j][j] for j in range(1, sys_.h.dim + 1)] == [out.point[v] for v in sys_.h.index]
    return raw


@pytest.mark.parametrize("g, depth", [(g, 1) for g in SMALL]
                         + [(web(5, 1), 2), (web(7, 2), 2)])
def test_folded_max_equals_the_presolved_max(g, depth):
    rng = random.Random(g.n * 10 + depth)
    h = qstab(g)
    sys_, ref = NLiftSystem(h, depth), NLiftSystem(h, depth)
    group = symmetries(h, {})
    assert len(group) == 2 * g.n or g.n <= 2
    raw = _check_folded_max(sys_, ref, dict.fromkeys(g.nodes, 1))
    assert raw.duals is None and len(sys_._folds) == 1
    (folded, orbit), = sys_._folds.values()
    assert folded.nv == max(orbit) + 1 < len(sys_._col)
    reflections = [p for p in group if (p[1] - p[0]) % g.n != 1]
    for p in reflections if depth == 1 else reflections[:1]:
        c = _reflection_objective(h, p, rng)
        assert symmetries(h, c) == [group[0], p]
        _check_folded_max(sys_, ref, c)


@pytest.mark.parametrize("g, depth", [(g, 1) for g in SMALL] + [(web(5, 1), 2)])
def test_an_objective_no_symmetry_fixes_keeps_the_warm_path(g, depth):
    # the presolved LP's own warm re-solves, folded maxima in between or not
    rng = random.Random(g.n)
    h = qstab(g)
    sys_, ref = NLiftSystem(h, depth), NLiftSystem(h, depth)
    twin, _ = ref._fold(())
    ones, warm = dict.fromkeys(g.nodes, 1), 0
    for _ in range(4 if depth == 1 else 2):
        c = {v: rng.randint(0, 9) for v in g.nodes}
        if len(symmetries(h, c)) > 1:
            continue
        warm += 1
        sys_.maximize(ones)
        raw = _check_folded_max(sys_, ref, c)
        want = twin.maximize(_lp_objective(ref, c))
        assert (raw.value, raw.pivots, raw.x) == (want.value, want.pivots, want.x)
        assert raw.duals is None
    assert warm and len(sys_._folds) == 2 and () in sys_._folds


@pytest.mark.parametrize("h, depth", [(qstab(web(7, 2)), 1), (qstab(web(5, 1)), 2),
                                      (qstab(delete_nodes(web(8, 2), [1, 2, 5])), 1)])
def test_the_identity_fold_is_the_presolved_lp_row_for_row(h, depth):
    sys_ = NLiftSystem(h, depth)
    lp, orbit = sys_._fold(())
    assert lp.nv == len(sys_._col) and orbit == list(range(lp.nv))
    assert [(dict(pairs), rhs, kind) for pairs, rhs, kind in lp.rows] == \
        [(row, rhs, "<=") for row, rhs in sys_._presolved]
    out, raw = sys_.maximize(_asymmetric(h))
    assert list(sys_._folds) == [()]
    assert out.value == lp.solve(_lp_objective(sys_, _asymmetric(h))).value


def test_a_symmetric_max_builds_only_its_folded_lp(monkeypatch):
    built = []

    class Recorded(liftproject.LinearProgram):
        def __init__(self, num_vars):
            super().__init__(num_vars)
            built.append(self)

    monkeypatch.setattr(liftproject, "LinearProgram", Recorded)
    h = qstab(web(9, 2))
    sys_ = NLiftSystem(h, 2)
    assert not built                    # the presolved rows, no LP
    out, raw = sys_.maximize(dict.fromkeys(h.index, 1))
    assert out.value == 3
    (folded, orbit), = sys_._folds.values()
    assert built == [folded] and folded.nv < len(sys_._col)


def test_a_web_with_one_node_deleted_keeps_only_the_reflection_through_it():
    g = delete_nodes(web(8, 2), [4])
    h = qstab(g)
    ones = dict.fromkeys(g.nodes, 1)
    _check_folded_max(NLiftSystem(h, 1), NLiftSystem(h, 1), ones)
    assert not rotation_invariant(rank.rank_constraint(g), h)
    # 3 <-> 5, 2 <-> 6, 1 <-> 7, 8 fixed: positions (0..6) of (1, 2, 3, 5, 6, 7, 8)
    assert symmetries(h, ones) == [(0, 1, 2, 3, 4, 5, 6), (5, 4, 3, 2, 1, 0, 6)]


def test_a_web_with_no_symmetry_left_solves_the_lp_itself():
    g = delete_nodes(web(8, 2), [1, 2, 5])
    h = qstab(g)
    ones = dict.fromkeys(g.nodes, 1)
    assert symmetries(h, ones) == [(0, 1, 2, 3, 4)]
    sys_ = NLiftSystem(h, 1)
    _check_folded_max(sys_, NLiftSystem(h, 1), ones)
    assert list(sys_._folds) == [()]


def test_rows_written_at_other_scales_keep_their_symmetry():
    # the edge rows of a 5-cycle, each scaled by its own factor: rows are
    # compared by canonical keys, in h and in the lift alike
    h = HPolytope(range(1, 6), [nonneg_row(v) for v in range(1, 6)] + [
        LinearInequality({v: s, v % 5 + 1: s}, s)
        for v, s in zip(range(1, 6), (1, 2, 3, Fraction(1, 2), 5))])
    ones = dict.fromkeys(h.index, 1)
    assert len(symmetries(h, ones)) == 10 and rotation_invariant(LinearInequality(ones, 2), h)
    for depth in (1, 2):
        sys_ = NLiftSystem(h, depth)
        _check_folded_max(sys_, NLiftSystem(h, depth), ones)
        (gens,) = sys_._folds
        assert gens


def _without_clique_123():
    h = qstab(web(8, 2))
    return HPolytope(h.index, [r for r in h.rows if r.coeffs != {1: 1, 2: 1, 3: 1}])


def test_a_system_with_one_clique_row_dropped_loses_every_rotation():
    # only the reflection through node 2, which maps {1, 2, 3} to itself, is left
    h = _without_clique_123()
    ones = dict.fromkeys(h.index, 1)
    _check_folded_max(NLiftSystem(h, 1), NLiftSystem(h, 1), ones)
    assert symmetries(h, ones) == [(0, 1, 2, 3, 4, 5, 6, 7), (2, 1, 0, 7, 6, 5, 4, 3)]
    assert not symmetries(h, ones, [(1, 2, 3, 4, 5, 6, 7, 0)])


@pytest.mark.parametrize("p, of_the_web", [
    ((0, 7, 6, 5, 4, 3, 2, 1), True),   # a reflection of W_8^2, not of the doctored system
    ((1, 2, 3, 4, 5, 6, 7, 0), True),   # a rotation, likewise
    ((1, 0, 2, 3, 4, 5, 6, 7), False),  # no symmetry of either
])
def test_a_map_that_is_no_symmetry_fails_the_row_check(p, of_the_web):
    sys_ = NLiftSystem(_without_clique_123(), 1)
    with pytest.raises(RuntimeError, match="does not map the N lift onto itself"):
        sys_._fold((p,))
    whole = NLiftSystem(qstab(web(8, 2)), 1)
    if of_the_web:
        folded, orbit = whole._fold((p,))
        assert folded.nv < len(whole._col)
    else:
        with pytest.raises(RuntimeError, match="does not map the N lift onto itself"):
            whole._fold((p,))


def test_generators_are_the_least_rotation_and_a_reflection():
    h = qstab(web(8, 2))
    group = symmetries(h, {})
    assert _generators(group) == ((1, 2, 3, 4, 5, 6, 7, 0), (0, 7, 6, 5, 4, 3, 2, 1))
    c = {v: v % 2 for v in h.index}     # fixed by the even rotations and 4 reflections
    assert _generators(symmetries(h, c)) == ((2, 3, 4, 5, 6, 7, 0, 1),
                                             (0, 7, 6, 5, 4, 3, 2, 1))


def test_n_rank_of_w8_2_takes_two_lift_lps(monkeypatch):
    # ROADMAP item 7, milestone (a); 16 of the 17 facets hold at depth 0
    calls = []
    valid = rank.n_operator_valid
    monkeypatch.setattr(rank, "n_operator_valid",
                        lambda row, h, r: calls.append(r) or valid(row, h, r))
    start = time.monotonic()
    assert n_rank_graph_upto(web(8, 2), 2) == 2
    assert time.monotonic() - start < 10
    assert calls == [1, 2]


def test_the_n2_max_over_w9_2_is_three():
    g = web(9, 2)
    out, raw = NLiftSystem(qstab(g), 2).maximize(dict.fromkeys(g.nodes, 1))
    assert out.value == 3 and out.point == dict.fromkeys(g.nodes, Fraction(1, 3))
