"""The piece layer of P_F against plain LPs over the pieces.

`PieceSystem` substitutes the fixed coordinates of a piece away;
`oracles.piece_max_by_rows` keeps them and adds x_v <= z_v and
-x_v <= -z_v to the relaxation instead.  On random graphs of at most 8
nodes, under QSTAB and FRAC, with |F| <= 3, every piece z and integer
objectives, both give the same status and value, and `piece_max` with a
`stop` returns the full max below it and otherwise the value of the
first piece that reaches it, where its scan ends.  `min_piece_max`
settled by the certified max over the relaxation gives the value of
the plain scan.
"""

from fractions import Fraction
from itertools import combinations, product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from webrank.graphs import Graph
from webrank.liftproject import min_piece_max, piece_max, piece_systems
from webrank.polyhedra import frac, lp_max, qstab

from oracles import contains, piece_max_by_rows, pt_matches


@st.composite
def piece_cases(draw):
    n = draw(st.integers(1, 8))
    nodes = range(1, n + 1)
    pairs = list(combinations(nodes, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(nodes, [e for e, k in zip(pairs, keep) if k])
    h = draw(st.sampled_from((qstab, frac)))(g)
    f = tuple(sorted(draw(st.lists(st.sampled_from(nodes), unique=True, max_size=3))))
    c = {v: draw(st.integers(-3, 5)) for v in nodes}
    stop = Fraction(draw(st.integers(-4, 16)), 2)
    return h, f, c, stop


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(piece_cases())
def test_piece_systems_agree_with_lps_over_the_fixing_rows(case):
    h, f, c, stop = case
    systems = piece_systems(h, f)
    assert [s.fixing for s in systems] == [dict(zip(f, z))
                                           for z in product((0, 1), repeat=len(f))]
    values = []
    for sys_ in systems:
        out = sys_.maximize(c)
        ref = piece_max_by_rows(h, c, sys_.fixing)
        assert (out.status, out.value) == (ref.status, ref.value), sys_.fixing
        if out.status == "optimal":
            assert contains(h, out.point) and pt_matches(out.point, sys_.fixing)
            values.append(out.value)
    full = piece_max(systems, c)
    early = piece_max(systems, c, stop)
    if full.status == "infeasible":
        assert early.status == "infeasible"
    elif full.value < stop:
        assert (early.value, early.point) == (full.value, full.point)
    else:
        assert early.value == next(v for v in values if v >= stop)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(piece_cases())
def test_settled_piece_scan_equals_the_plain_one(case):
    h, f, c, _ = case
    known = lp_max(h, c)
    full = piece_max(piece_systems(h, f), c)
    assert min_piece_max([piece_systems(h, f)], c, known) == full.value
    fs = [f] + [(v,) for v in h.index]
    settled = min_piece_max([piece_systems(h, g) for g in fs], c, known)
    assert settled == min_piece_max([piece_systems(h, g) for g in fs], c)
