"""Each row value has one form, an int where it is integral, else a Fraction.

`LinearInequality` and `LinearProgram` both hold their values in the one
form `simplex._exact` gives, so every layer reads a row as it is:
`lp_max`, the piece LPs (`PieceSystem`) and the membership LP of
`disjunctive_member` are built from h.rows, less those x >= 0 implies,
and the N lift (`NLiftSystem`) from each row's coprime integer form
(`canonical`), so every lift row is an int row.  Each LP built from
h.rows equals, value for value, the one the Fraction-only routes of
tests/oracles.py make, and each lift row equals theirs up to a positive
scale.  `to_json` writes every value as a Fraction, so reports keep their
bytes.
"""

import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from webrank import liftproject
from webrank.graphs import antiweb, complete_join, web
from webrank.inequalities import join_blocks_of, joined_inequality, stab_description_w2
from webrank.liftproject import NLiftSystem, PieceSystem, _pieces, _presolve, disjunctive_member
from webrank.polyhedra import (HPolytope, LinearInequality, convex_hull_facets, frac,
                               implied_by_nonneg, lp_max, qstab, stab)
from webrank.reporting import dumps
from webrank.simplex import LinearProgram

from oracles import fixed_rows_by_fractions, n_lift_rows, n_lift_rows_by_fractions


def _one_form(c) -> bool:
    """c is an int where it is integral and a Fraction otherwise."""
    return type(c) is (int if c.denominator == 1 else Fraction)


def _row_values(rows) -> list:
    """Every coefficient and right-hand side of LinearInequality rows."""
    return [c for r in rows for c in (r.rhs, *r.coeffs.values())]


def _outcome(res) -> tuple:
    """Everything an LPResult tells, point and duals read."""
    return res.status, res.value, res.pivots, res.farkas, res.x, res.duals


@st.composite
def lp_cases(draw):
    """(nv, rows, objectives): <= and = rows with integer values, some
    right-hand sides negative (phase 1), and two objectives, the second
    re-solved warm."""
    nv = draw(st.integers(1, 5))
    values = st.integers(-3, 3)
    rows = [({j: draw(values) for j in range(nv)}, draw(st.integers(-4, 6)),
             draw(st.sampled_from(("<=", "<=", "=")))) for _ in range(draw(st.integers(1, 6)))]
    rows += [({j: 1}, draw(st.integers(0, 4)), "<=") for j in range(nv)]      # bounded
    objectives = [{j: draw(values) for j in range(nv)} for _ in range(2)]
    return nv, rows, objectives


def _lp_values(lp: LinearProgram) -> list:
    """Every coefficient and right-hand side of the LP's rows."""
    return [c for pairs, rhs, _ in lp.rows for c in (rhs, *(c for _, c in pairs))]


def _lp(nv, rows, make) -> LinearProgram:
    lp = LinearProgram(nv)
    for coeffs, rhs, kind in rows:
        (lp.add_le if kind == "<=" else lp.add_eq)({j: make(c) for j, c in coeffs.items()},
                                                   make(rhs))
    return lp


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(lp_cases())
def test_int_rows_and_equal_fraction_rows_give_identical_results(case):
    # int rows and the equal Fraction rows are held alike, as ints; halved
    # rows keep their odd values as Fractions
    nv, rows, objectives = case
    ints, fracs = _lp(nv, rows, int), _lp(nv, rows, Fraction)
    assert ints.rows == fracs.rows and all(type(c) is int for c in _lp_values(fracs))
    assert all(_one_form(c) for c in _lp_values(_lp(nv, rows, lambda c: Fraction(c, 2))))
    for obj in objectives:
        a = ints.maximize(obj)
        b = fracs.maximize({j: Fraction(c) for j, c in obj.items()})
        assert _outcome(a) == _outcome(b)
        exact = [a.value, *(a.farkas or ()), *(a.x or ()), *(a.duals or ())]
        assert all(type(v) is Fraction for v in exact if v is not None)
        if a.status == "optimal":
            ints.check_optimal(a, obj)


def _halved(h: HPolytope) -> HPolytope:
    """h with every row halved: the same polytope, non-integral rows."""
    return HPolytope(h.index, [LinearInequality({v: Fraction(c, 2) for v, c in r.coeffs.items()},
                                                Fraction(r.rhs, 2)) for r in h.rows])


SMALL = [qstab(web(n, k)) for k in range(1, 4) for n in range(2 * (k + 1), 9)] + \
        [qstab(antiweb(n, k)) for k in range(2, 5) for n in range(2 * k, 9)]
HALVED = [_halved(qstab(web(5, 1))), _halved(qstab(web(7, 2))), _halved(qstab(antiweb(7, 3)))]
JOIN = complete_join(antiweb(7, 2), antiweb(8, 3))


def _built_rows():
    """(name, rows) for each way the package builds rows."""
    yield "qstab", qstab(antiweb(11, 4)).rows
    yield "frac", frac(web(8, 2)).rows
    yield "hull", convex_hull_facets(stab(antiweb(9, 2)))
    yield "w2", stab_description_w2(10)
    yield "joined", [joined_inequality(join_blocks_of(JOIN))]
    yield "halved", HALVED[1].rows


@pytest.mark.parametrize("name, rows", list(_built_rows()))
def test_every_row_value_is_an_int_where_integral(name, rows):
    assert rows and all(_one_form(c) for c in _row_values(rows))
    assert any(type(c) is int for c in _row_values(rows))
    if name in ("joined", "halved"):
        assert any(type(c) is Fraction for c in _row_values(rows))
    # to_json writes every value as a Fraction, and from_json reads it back
    # in the one form
    for r in rows:
        d = r.to_json()
        assert all(type(c) is Fraction for c in (d["rhs"], *d["coeffs"].values()))
        back = LinearInequality.from_json(json.loads(dumps(d)))
        assert back.coeffs == r.coeffs and back.rhs == r.rhs
        assert all(_one_form(c) for c in _row_values([back]))


def test_a_value_read_as_an_unreduced_rational_takes_the_one_form():
    row = LinearInequality.from_json({"coeffs": {"1": "2/2", "2": "-4/2", "3": "2/6", "4": 3},
                                      "rhs": "6/3"})
    assert row.coeffs == {1: 1, 2: -2, 3: Fraction(1, 3), 4: 3} and row.rhs == 2
    assert all(_one_form(c) for c in _row_values([row]))
    assert dumps(row.to_json()) == \
        '{"coeffs":{"1":"1","2":"-2","3":"1/3","4":"3"},"rhs":"2"}'


def _lift_cases():
    for h in SMALL + HALVED:
        yield h, 1
    for h in (qstab(web(5, 1)), qstab(web(7, 2)), HALVED[0]):
        yield h, 2


def _scale(row, ref) -> Fraction | None:
    """s > 0 with row = s * ref, both (dict var->value, rhs) rows; else None."""
    (coeffs, rhs), (ref_coeffs, ref_rhs) = row, ref
    pairs = [(rhs, ref_rhs)] + [(a, ref_coeffs.get(v, 0)) for v, a in coeffs.items()]
    if coeffs.keys() != ref_coeffs.keys() or any((a == 0) != (b == 0) for a, b in pairs):
        return None
    ratios = {Fraction(a) / b for a, b in pairs if b}
    return ratios.pop() if len(ratios) == 1 and min(ratios) > 0 else None


@pytest.mark.parametrize("h, depth", list(_lift_cases()))
def test_lift_lp_rows_equal_those_of_the_fraction_builder(h, depth):
    # the rows as built, before the presolve: the same rows up to a
    # positive scale, the same variables, and every value an int; the
    # system's LP is the presolve of exactly these rows, its columns named
    # by their variables' keys
    (keys, rows), (ref_keys, ref_rows) = n_lift_rows(h, depth), n_lift_rows_by_fractions(h, depth)
    assert keys == ref_keys and len(rows) == len(ref_rows)
    assert all(_scale(row, want) for row, want in zip(rows, ref_rows))
    assert all(type(c) is int for coeffs, rhs in rows for c in (rhs, *coeffs.values()))
    if any(type(c) is Fraction for c in _row_values(h.rows)):
        assert any(_scale(row, want) != 1 for row, want in zip(rows, ref_rows))
    sys_ = NLiftSystem(h, depth)
    presolved, col = _presolve(rows, len(keys))
    assert sys_._presolved == presolved and sys_._keys == [keys[v] for v in col]
    assert all(type(c) is int for coeffs, rhs in sys_._presolved for c in (rhs, *coeffs.values()))


def _values(rows) -> list:
    """LP rows with their coefficients as sorted (column, value) pairs, each
    value beside its type."""
    return [(sorted((j, c, type(c)) for j, c in pairs), rhs, type(rhs), kind)
            for pairs, rhs, kind in rows]


def _f(h):
    """Positions 1 and 3 of h: some pieces are empty, some are not."""
    return h.index[0], h.index[2]


@pytest.mark.parametrize("h", SMALL + HALVED + [qstab(antiweb(11, 4))])
def test_piece_lp_rows_equal_those_of_the_fraction_builder(h, monkeypatch):
    built = [PieceSystem(h, fixing) for _, fixing in _pieces(_f(h))]
    monkeypatch.setattr(liftproject, "_fixed_rows", fixed_rows_by_fractions)
    for sys_, (_, fixing) in zip(built, _pieces(_f(h))):
        ref = PieceSystem(h, fixing)
        assert sys_.empty == ref.empty and (sys_._lp is None) == (ref._lp is None)
        if sys_._lp is not None:
            assert sys_._row == ref._row
            assert _values(sys_._lp.rows) == _values(ref._lp.rows)


class _Recorded(LinearProgram):
    built = []

    def __init__(self, num_vars):
        super().__init__(num_vars)
        self.built.append(self)


def _inside(h):
    """A point of h, 0/1 on no coordinate, so that the membership LP is
    built: 1/3 everywhere, or 1/4 on a system with a clique row of 4
    (W_8^3, A_8^2), which 1/3 exceeds."""
    return dict.fromkeys(h.index, Fraction(1, max(3, *(len(r.coeffs) for r in h.rows))))


A11 = qstab(antiweb(11, 4))
MEMBER_POINTS = [(h, _f(h), _inside(h)) for h in SMALL + HALVED] + [
    (A11, (1, 2, 3), dict.fromkeys(A11.index, Fraction(1, 4))),
    (A11, (5, 6, 8), dict(zip(A11.index, map(Fraction, (
        "1/4", "1/6", "5/12", "1/6", "1/2", "1/6", "1/4", "1/12", "1/2", "1/12", "1/12"))))),
    (A11, (1, 2, 3), dict(zip(A11.index, map(Fraction, "1/2 0 1/2 0 1/2 0 1/2 0 1/2 0 0".split())))),
]


@pytest.mark.parametrize("h, f, x", MEMBER_POINTS)
def test_membership_lp_rows_equal_those_of_the_fraction_builder(h, f, x, monkeypatch):
    monkeypatch.setattr(liftproject, "LinearProgram", _Recorded)
    runs = []
    for fixed_rows in (liftproject._fixed_rows, fixed_rows_by_fractions):
        monkeypatch.setattr(liftproject, "_fixed_rows", fixed_rows)
        _Recorded.built = []
        runs.append((disjunctive_member(x, h, f), [_values(lp.rows) for lp in _Recorded.built]))
    (got, lps), (want, ref_lps) = runs
    assert len(lps) == 1 and lps == ref_lps
    assert got == want


@pytest.mark.parametrize("h", [qstab(web(7, 2)), HALVED[1]])
def test_lp_max_builds_from_the_rows(h):
    out = lp_max(h, dict.fromkeys(h.index, 1))
    lp = h._lp
    pos = {v: i for i, v in enumerate(h.index)}
    # the LP's rows are the rows of h that x >= 0 does not imply, in h's
    # order; the outcome carries the value and the point, no duals
    kept = [r for r in h.rows if not implied_by_nonneg(r.coeffs.values(), r.rhs)]
    assert len(kept) < len(h.rows) and isinstance(lp, LinearProgram)
    ref = LinearProgram(h.dim)
    for r in kept:
        ref.add_le({pos[v]: Fraction(c) for v, c in r.coeffs.items()}, Fraction(r.rhs))
    assert _values(lp.rows) == _values(ref.rows) and out.duals is None
    assert all(_one_form(c) for c in _lp_values(lp))
    assert out.value == Fraction(7, 3) and type(out.value) is Fraction
    assert all(type(v) is Fraction for v in out.point.values())
