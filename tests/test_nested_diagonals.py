"""The N lift with every nested diagonal read from the column it proves.

Each nested matrix of `NLiftSystem` takes Y_jj = expr[j] (and so Y_0j)
from the column expr it proves, instead of new variables tied to that
column by = rows.  So a depth-2 lift is all <= rows with nonnegative
right-hand sides, whose first solve needs no phase 1, and its maxima are
those of the lift with the = rows (`oracles.NLiftWithEqualities`).
"""

import random
from fractions import Fraction

import pytest

from webrank import simplex
from webrank.graphs import web
from webrank.liftproject import NLiftSystem, _presolve
from webrank.polyhedra import HPolytope, LinearInequality, qstab

from oracles import NLiftWithEqualities, n_lift_rows


def _halved(h: HPolytope) -> HPolytope:
    """h with every row halved: the same polytope, non-integral rows."""
    rows = [LinearInequality({v: Fraction(c, 2) for v, c in r.coeffs.items()},
                             Fraction(r.rhs, 2)) for r in h.rows]
    return HPolytope(h.index, rows)


W51, W72, W82 = qstab(web(5, 1)), qstab(web(7, 2)), qstab(web(8, 2))
HALVED = _halved(W51)


def _asymmetric(h):
    """1, 2, ..., n on h.index: no rotation or reflection fixes it."""
    return {v: i for i, v in enumerate(h.index, start=1)}


def _reflection_objective(h, rng):
    """Random weights equal on the pairs {i, -i} of positions: fixed by the
    reflection through position 0 and, for distinct weights, nothing else."""
    n, values = h.dim, rng.sample(range(1, 10 * h.dim), h.dim)
    return {v: values[min(i, -i % n)] for i, v in enumerate(h.index)}


def _phase1_calls(monkeypatch) -> list:
    calls = []
    phase1 = simplex._Tableau._phase1
    monkeypatch.setattr(simplex._Tableau, "_phase1",
                        lambda tab: calls.append(tab) or phase1(tab))
    return calls


@pytest.mark.parametrize("h", [W51, W72, W82, HALVED], ids=["W51", "W72", "W82", "halved-W51"])
def test_depth2_lift_is_all_le_and_runs_no_phase1(h, monkeypatch):
    calls = _phase1_calls(monkeypatch)
    assert all(rhs >= 0 for _, rhs in n_lift_rows(h, 2)[1])
    sys_ = NLiftSystem(h, 2)
    assert all(rhs >= 0 for _, rhs in sys_._presolved)
    out, raw = sys_.maximize(_asymmetric(h))
    assert raw.pivots and list(sys_._folds) == [()]     # the presolved LP, folding nothing
    out, raw = sys_.maximize(dict.fromkeys(h.index, 1))
    assert len(sys_._folds) == 2
    assert all(kind == "<=" and rhs >= 0
               for folded, _ in sys_._folds.values() for _, rhs, kind in folded.rows)
    assert calls == []


@pytest.mark.parametrize("h, shape", [(W51, (340, 110)), (W72, (805, 217)), (HALVED, (430, 110))],
                         ids=["W51", "W72", "halved-W51"])
def test_depth2_maxima_equal_those_of_the_lift_with_equality_rows(h, shape):
    # shape: that of the presolved LP of the lift with = rows
    rng = random.Random(7)
    sys_, ref = NLiftSystem(h, 2), NLiftWithEqualities(h, 2)
    assert (len(ref.lp.rows), ref.lp.nv) == shape
    assert any(kind == "=" for _, _, kind in ref.lp.rows)
    objectives = [dict.fromkeys(h.index, 1), _reflection_objective(h, rng)] + [
        {v: rng.randint(0, 9) for v in h.index} for _ in range(2)]
    for c in objectives:
        out, _ = sys_.maximize(c)
        assert out.value == ref.maximize(c), c
        assert sum(c[v] * x for v, x in out.point.items()) == out.value


def test_nested_diagonals_are_no_variables():
    keys, _ = n_lift_rows(W51, 2)
    n = W51.dim
    top = [key for key in keys if key[0] == ()]
    nested = [key for key in keys if key[0] != ()]
    assert len(top) == n * (n + 1) // 2
    assert nested and all(i < j for _, (i, j) in nested)
    assert len(nested) == 2 * n * n * (n - 1) // 2
    assert len(set(keys)) == len(keys) == len(top) + len(nested)
    assert NLiftSystem(W51, 2).maximize(dict.fromkeys(W51.index, 1))[0].value == Fraction(2)


def test_presolve_merges_rows_written_at_two_scales():
    # a row and its double are one row in coprime integer form
    rows, col = _presolve([({0: 2, 1: 4}, 6), ({0: 1, 1: 2}, 3), ({0: 3, 1: 3}, 6)], 2)
    assert rows == [({0: 1, 1: 2}, 3), ({0: 1, 1: 1}, 2)] and col == {0: 0, 1: 1}
    # the halved system is the same polytope, and the lift is built from the
    # coprime form of its rows, so it has the rows of QSTAB's own
    assert n_lift_rows(HALVED, 2) == n_lift_rows(W51, 2)
    full, halved = NLiftSystem(W51, 2), NLiftSystem(HALVED, 2)
    assert halved._presolved == full._presolved
    assert len(full._presolved) == 155 and halved._col == full._col
    for c in (dict.fromkeys(W51.index, 1), _asymmetric(W51)):
        assert halved.maximize(c)[0].value == full.maximize(c)[0].value
