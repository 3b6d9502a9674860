"""LPs over a relaxation leave out the rows that x >= 0 implies
(`polyhedra.implied_by_nonneg`) and answer as the LP over every row; the
N lift reads the same kept rows and presolves to the lift of every row.

Each reduced LP is compared with the all-rows LP of tests/oracles.py,
solve by solve, warm re-solves included: status, value, the tableau's
pivot count, x, and the duals or the Farkas vector, those of the reduced
LP expanded with 0 on each row it leaves out.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from webrank import liftproject
from webrank.graphs import alpha, parse_graph_spec
from webrank.liftproject import NLiftSystem, PieceSystem, _pieces
from webrank.polyhedra import (HPolytope, convex_hull_facets, frac, implied_by_nonneg, lp_max,
                               qstab, stab)
from webrank.simplex import LinearProgram

from oracles import lp_max_all_rows, piece_lp_all_rows


def _graphs():
    """Every web and antiweb with n <= 11."""
    for n in range(4, 12):
        for k in range(1, n // 2):
            yield f"W:{n}:{k}"
        for k in range(2, n // 2 + 1):
            yield f"A:{n}:{k}"


def _hull(spec):
    g = parse_graph_spec(spec)
    return HPolytope(g.nodes, convex_hull_facets(stab(g)))


# (name, make): each test makes its own system, as lp_max keeps its LP on it
SYSTEMS = [(f"{rel.__name__}({spec})", lambda rel=rel, spec=spec: rel(parse_graph_spec(spec)))
           for spec in _graphs() for rel in (qstab, frac)] + [
    ("stab(A:7:3)", lambda: _hull("A:7:3")),      # it has -x_v <= 0 facets of its own
    ("qstab(join:A:5:2,A:5:2)", lambda: qstab(parse_graph_spec("join:A:5:2,A:5:2"))),
]


def _objectives(name, h, seeded=3):
    """Seeded objectives with negative coefficients, then each row of h."""
    rng = random.Random(name)
    return [{v: rng.randint(-3, 6) for v in h.index} for _ in range(seeded)] + [
        dict(r.coeffs) for r in h.rows]


def _expand(y, kept, size):
    """y, one entry per kept row, laid out over size rows, 0 elsewhere."""
    out = [Fraction(0)] * size
    for t, v in zip(kept, y):
        out[t] = v
    return out


def _agree(res, ref, kept):
    """res, of the LP over the rows at positions kept of ref's LP, answers
    as ref: status, value, pivots, x, and duals or Farkas vector."""
    assert (res.status, res.value, res.pivots, res.x) == (ref.status, ref.value, ref.pivots, ref.x)
    if res.status == "optimal":
        assert _expand(res.duals, kept, len(ref.duals)) == ref.duals
    if res.status == "infeasible":
        assert _expand(res.farkas, kept, len(ref.farkas)) == ref.farkas


def test_the_predicate():
    assert implied_by_nonneg([-1], 0) and implied_by_nonneg([-1, 0, -2], 2)
    assert implied_by_nonneg([], 0)
    assert not implied_by_nonneg([-1, 1], 0) and not implied_by_nonneg([-1], -1)
    assert not implied_by_nonneg([], Fraction(-1, 2))


@pytest.mark.parametrize("name, make", SYSTEMS, ids=[name for name, _ in SYSTEMS])
def test_lp_max_answers_as_the_lp_over_every_row(name, make):
    h = make()
    kept = [i for i, r in enumerate(h.rows) if not implied_by_nonneg(r.coeffs.values(), r.rhs)]
    assert len(kept) < len(h.rows)
    ref = lp_max_all_rows(h)
    pos = {v: j for j, v in enumerate(h.index)}
    for c in _objectives(name, h):
        out = lp_max(h, c)
        lp_obj = {pos[v]: a for v, a in c.items()}
        want = ref.maximize(lp_obj)
        assert len(h._lp.rows) == len(kept)
        assert (out.status, out.value, h._lp._tab.pivots) == (want.status, want.value, want.pivots)
        assert out.point == dict(zip(h.index, want.x))
        # lp_max returns no duals: re-solved under the same objective, its
        # LP takes no pivot from the optimal basis and reads them off it
        again = h._lp.maximize(lp_obj)
        assert again.pivots == want.pivots
        assert _expand(again.duals, kept, len(h.rows)) == want.duals


@pytest.mark.parametrize("name, make", SYSTEMS, ids=[name for name, _ in SYSTEMS])
def test_piece_lps_answer_as_the_lps_over_every_row(name, make):
    # every piece with |F| <= 2 under a seeded objective, those with
    # |F| <= 1 under a second one (a warm re-solve), and the pieces of
    # F = {first node} under every row too
    h = make()
    objectives = _objectives(name, h, seeded=2)
    seen = set()
    for size in (0, 1, 2):
        for f in combinations(h.index, size):
            take = len(objectives) if f == h.index[:1] else 2 - size // 2
            for _, fixing in _pieces(f):
                sys_, ref = PieceSystem(h, fixing), piece_lp_all_rows(h, fixing)
                assert (ref is None) == (sys_._lp is None)
                if ref is None:
                    continue
                ref_lp, ref_row = ref
                kept = [ref_row.index(i) for i in sys_._row]
                for c in objectives[:take]:
                    sys_.maximize(c)
                    want = ref_lp.maximize({j: c[v] for j, v in enumerate(sys_.free) if c.get(v)})
                    _agree(sys_._last, want, kept)
                    seen.add(want.status)
                    seen.add("dropped" if len(kept) < len(ref_row) else "kept")
    assert {"optimal", "dropped"} <= seen


def _fuzzed_lp(rng):
    """(rows, objectives): rows (kind, coeffs, rhs) over nv <= 5 columns,
    among them rows x >= 0 implies with rhs 0, 1 or 2 and rows with a
    negative rhs; an objective to solve and three to re-solve."""
    nv = rng.randint(1, 5)
    rows = []
    for _ in range(rng.randint(1, 8)):
        cols = rng.sample(range(nv), rng.randint(1, nv))
        draw = rng.random()
        if draw < 0.35:
            rows.append(("<=", {j: -rng.randint(0, 3) for j in cols}, rng.choice((0, 1, 2))))
        elif draw < 0.55:
            rows.append(("<=", {j: rng.randint(-3, 3) for j in cols}, -rng.randint(1, 3)))
        elif draw < 0.65:
            rows.append(("=", {j: rng.randint(-2, 3) for j in cols}, rng.randint(-2, 4)))
        else:
            rows.append(("<=", {j: rng.randint(-1, 4) for j in cols}, rng.randint(0, 6)))
    if rng.random() < 0.9:      # a bound on every column, else often unbounded
        rows.insert(rng.randint(0, len(rows)), ("<=", dict.fromkeys(range(nv), 1), rng.randint(1, 6)))
    return nv, rows, [{j: rng.randint(-3, 5) for j in range(nv)} for _ in range(4)]


def _build(nv, rows):
    lp = LinearProgram(nv)
    for kind, coeffs, rhs in rows:
        (lp.add_le if kind == "<=" else lp.add_eq)(coeffs, rhs)
    return lp


def test_fuzzed_lps_answer_as_with_their_implied_rows():
    rng = random.Random(42)
    seen = {}
    for _ in range(600):
        nv, rows, objectives = _fuzzed_lp(rng)
        kept = [t for t, (kind, coeffs, rhs) in enumerate(rows)
                if kind == "=" or not implied_by_nonneg(coeffs.values(), rhs)]
        if len(kept) == len(rows):
            continue
        lp, ref = _build(nv, [rows[t] for t in kept]), _build(nv, rows)
        phase1 = any(rhs < 0 or kind == "=" for kind, _, rhs in rows)
        for c in objectives:
            res, want = lp.maximize(c), ref.maximize(c)
            _agree(res, want, kept)
            key = (want.status, phase1)
            seen[key] = seen.get(key, 0) + 1
    # solves that reach phase 1 and end optimal, infeasible LPs, and
    # unbounded ones are all among them
    assert seen[("optimal", True)] > 100 and seen[("infeasible", True)] > 100
    assert seen[("optimal", False)] > 100 and seen.get(("unbounded", True), 0) > 0


@pytest.mark.parametrize("spec", ["A:7:3", "W:8:2"])
def test_n_lift_reads_the_kept_rows_and_answers_as_every_row(spec, monkeypatch):
    # a STAB hull system has its own -x_v <= 0 facets: the N lift gets the
    # rows of h that x >= 0 does not imply, and its presolved LP and its
    # max of x(V) are those of the lift of every row of h
    h = _hull(spec)
    lift_rows, cones = liftproject._lift_rows, []

    def recorded(index, cone, depth):
        cones.append(cone)
        return lift_rows(index, cone, depth)

    monkeypatch.setattr(liftproject, "_lift_rows", recorded)
    kept = NLiftSystem(h, 1)
    monkeypatch.setattr(liftproject, "_lift_rows", lambda index, cone, depth: lift_rows(
        index, [r.canonical() for r in h.rows], depth))
    every = NLiftSystem(h, 1)
    assert len(cones) == 1 and len(cones[0]) == len(h._kept) < len(h.rows)
    assert kept._presolved == every._presolved and kept._keys == every._keys
    ones = dict.fromkeys(h.index, 1)
    assert kept.maximize(ones)[0].value == every.maximize(ones)[0].value == alpha(
        parse_graph_spec(spec))
