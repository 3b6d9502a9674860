"""The reduced membership LP of P_F against the unreduced formulation.

`disjunctive_member` builds the disjunctive extended formulation with the
fixed coordinates substituted away and empty pieces and implied rows left
out; `oracles.disjunctive_member_unreduced` builds it as it stands.  On
random graphs of at most 8 nodes, under QSTAB and FRAC, with |F| <= 3
and points on a 1/4 grid (some of them outside the relaxation), both give
the same verdict, and every certificate passes `recheck`.  A point of h
that is 0/1 on F is its own piece and builds no LP; one outside h is no
member, whatever it is on F.
"""

import json
from fractions import Fraction
from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from webrank.graphs import Graph, complete_graph, web
from webrank.liftproject import disjunctive_member
from webrank.polyhedra import frac, qstab
from webrank.recheck import recheck_certificate
from webrank.reporting import dumps

from oracles import contains, disjunctive_member_unreduced


@st.composite
def membership_cases(draw):
    n = draw(st.integers(1, 8))
    nodes = range(1, n + 1)
    pairs = list(combinations(nodes, 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(nodes, [e for e, k in zip(pairs, keep) if k])
    h = draw(st.sampled_from((qstab, frac)))(g)
    f = tuple(draw(st.lists(st.sampled_from(nodes), unique=True, max_size=3)))
    quarters = st.one_of(st.sampled_from((0, 2)), st.integers(-1, 5))
    x = {v: Fraction(draw(quarters), 4) for v in nodes}
    return h, f, x


HALF = Fraction(1, 2)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(membership_cases())
@example((qstab(web(5, 1)), (1,), dict.fromkeys(range(1, 6), HALF)))    # in h, not in P_F
@example((frac(complete_graph(3)), (), dict.fromkeys(range(1, 4), HALF)))
@example((frac(complete_graph(3)), (1, 2), dict.fromkeys(range(1, 4), HALF)))
@example((frac(complete_graph(3)), (1,), {1: Fraction(1), 2: Fraction(1), 3: Fraction(0)}))
def test_reduced_membership_lp_agrees_with_the_unreduced_one(case):
    # the last example is 0/1 on F but outside h: the LP, not the one-piece
    # short cut, must answer it
    h, f, x = case
    member, cert = disjunctive_member(x, h, f)
    assert member == disjunctive_member_unreduced(x, h, f)[0]
    if not contains(h, x):               # P_F(h) lies in h
        assert not member
    wrapped = json.loads(dumps({**cert, "type": "membership", "system": h.to_json(),
                                "point": x, "member": member}))
    ok, detail = recheck_certificate(wrapped)
    assert ok, detail
