"""Rank engine: graph ranks, row ranks, verifiers, closed-form rank tables."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import webrank

from webrank.graphs import (
    AntiwebId,
    Graph,
    WebId,
    antiweb,
    complement,
    complete_graph,
    complete_join,
    delete_nodes,
    is_circulant,
    is_perfect,
    parse_graph_spec,
    web,
)
from webrank.inequalities import (
    antiweb_constraint,
    enumerate_one_interval_sets,
    join_blocks_of,
    one_interval_inequality,
    rank_constraint,
)
from webrank.liftproject import disjunctive_member, disjunctive_valid, n_operator_valid
from webrank.polyhedra import convex_hull_facets, frac, is_facet, is_valid, qstab, stab
from webrank.rank import (
    IneqRankResult,
    disjunctive_rank_graph,
    disjunctive_rank_graph_polyhedral,
    disjunctive_rank_inequality,
    formula_web_rank,
    n_rank_graph_upto,
    n_rank_inequality_upto,
    pool_refutes_all,
    verify_join_bound,
    verify_operator_sandwich,
    verify_rdfar,
    verify_w2_description,
    verify_web_rank_formulas,
)


def brute_graph_rank(g):
    """Oracle: exhaustive minimum deletions to perfection."""
    if is_perfect(g):
        return 0
    for r in range(1, g.n):
        cands = (
            [(g.nodes[0],) + rest for rest in combinations(g.nodes[1:], r - 1)]
            if is_circulant(g) else combinations(g.nodes, r))
        for f in cands:
            if is_perfect(delete_nodes(g, f)):
                return r
    raise RuntimeError


def test_graph_rank_examples():
    assert disjunctive_rank_graph(web(7, 2)).rank == 1     # 2(k+1)+s, s=1
    res = disjunctive_rank_graph(web(8, 2))
    assert res.rank == 2 and is_perfect(delete_nodes(web(8, 2), res.deletion_set))
    assert disjunctive_rank_graph(web(7, 1)).rank == 1     # odd hole


def test_graph_rank_lower_bound_pool_certifies():
    g = web(9, 2)
    res = disjunctive_rank_graph(g)
    assert res.rank == 2
    assert pool_refutes_all(g, res.lower_bound_witnesses, 1,
                            anchor=1 if res.anchored else None)


def test_polyhedral_rank_examples():
    assert disjunctive_rank_graph_polyhedral(web(5, 1)) == 1
    assert disjunctive_rank_graph_polyhedral(web(6, 2)) == 0
    assert disjunctive_rank_graph_polyhedral(web(8, 2)) == 2


def test_combinatorial_equals_polyhedral_on_catalog():
    catalog = [web(5, 1), web(6, 2), web(7, 2), web(6, 1), web(7, 1),
               antiweb(7, 2), antiweb(6, 2),
               complete_join(complete_graph(2), web(5, 1))]
    for g in catalog:
        assert disjunctive_rank_graph(g).rank == disjunctive_rank_graph_polyhedral(g), g


def test_combinatorial_matches_brute_oracle_on_random_graphs():
    rng = random.Random(13)
    for _ in range(12):
        n = rng.randint(4, 7)
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if rng.random() < 0.5]
        g = Graph(range(1, n + 1), edges)
        assert disjunctive_rank_graph(g).rank == brute_graph_rank(g)


def test_complement_invariance_on_catalog():
    for g in [web(7, 2), web(8, 2), web(9, 2), web(8, 3), web(5, 1),
              web(10, 3), web(12, 2)]:
        assert disjunctive_rank_graph(g).rank == \
            disjunctive_rank_graph(complement(g)).rank, g


def test_row_rank_table_for_w2_rank_constraints():
    # W_{3s+l}^2 rank row has disjunctive rank l
    for n, expected in [(9, 0), (10, 1), (8, 2), (6, 0), (7, 1), (11, 2)]:
        g = web(n, 2)
        res = disjunctive_rank_inequality(rank_constraint(g), qstab(g),
                                          cyclic=True, integer_hull=stab(g))
        assert res.rank == expected, n


def test_one_interval_row_rank_one_with_paper_witness():
    g = web(9, 2)
    h = qstab(g)
    s = [t for t in enumerate_one_interval_sets(9) if t.T == (1, 3, 5, 6, 7, 8)][0]
    row = one_interval_inequality(WebId(9, 2), s)
    res = disjunctive_rank_inequality(row, h, integer_hull=stab(g))
    assert res.rank == 1
    assert set(res.witness_f) <= set(s.T)
    # the proof's own witness: the last node of the final interval
    last_interval_end = s.intervals[-1][-1]
    ok, _ = disjunctive_valid(row, h, (last_interval_end,))
    assert ok


def test_antiweb_row_rank_a8_3():
    g = antiweb(8, 3)
    row, _ = antiweb_constraint(AntiwebId(8, 3))
    res = disjunctive_rank_inequality(row, qstab(g), cyclic=True,
                                      integer_hull=stab(g))
    assert res.rank == 2 == 8 - 2 * 3
    assert res.exhaustive and len(res.violating_points) >= 8


def test_row_rank_rejects_rows_invalid_for_the_hull():
    g = web(5, 1)
    bad = rank_constraint(complete_graph(5))           # x(V) <= 1 on C_5
    with pytest.raises(ValueError, match="invalid for the integer hull"):
        disjunctive_rank_inequality(bad, qstab(g), integer_hull=stab(g))


def test_n_rank_upto_examples():
    g10 = web(10, 2)
    assert n_rank_inequality_upto(rank_constraint(g10), qstab(g10), 1) == 1
    g8 = web(8, 2)
    assert n_rank_inequality_upto(rank_constraint(g8), qstab(g8), 1) is None
    clique_row = qstab(g8).rows[-1]
    assert n_rank_inequality_upto(clique_row, qstab(g8), 1) == 0


def test_n_rank_never_exceeds_disjunctive_rank():
    for n in (6, 7, 9, 10):
        g = web(n, 2)
        h = qstab(g)
        row = rank_constraint(g)
        d = disjunctive_rank_inequality(row, h, cyclic=True,
                                        integer_hull=stab(g)).rank
        nr = n_rank_inequality_upto(row, h, rmax=min(d, 2) if d else 1)
        if nr is not None:
            assert nr <= d, n


def test_n_rank_of_graphs_small():
    assert n_rank_graph_upto(web(6, 2), 1) == 0        # perfect: s=2 boundary
    assert n_rank_graph_upto(web(5, 1), 1) == 1        # odd hole
    assert n_rank_graph_upto(web(7, 2), 1) == 1        # r(W_{3s+1}^2) = 1, s=2
    assert n_rank_graph_upto(web(9, 2), 1) == 1        # r(W_{3s}^2) = 1
    assert n_rank_graph_upto(web(10, 2), 1) == 1       # r(W_{3s+1}^2) = 1
    assert n_rank_graph_upto(web(8, 2), 1) is None     # N-rank 2 at n = 3s+2


def test_verify_web_formula_tables():
    rep = verify_web_rank_formulas(ks=(2,), n_max=14, complements=False)
    ranks = [e.computed for e in rep.entries]
    assert ranks == [0, 1, 2, 2, 2, 2, 2, 2, 2]
    rep3 = verify_web_rank_formulas(ks=(3,), n_max=11, complements=True)
    assert rep3.passed
    web_ranks = [e.computed for e in rep3.entries if e.name.startswith("r_d(W")]
    assert web_ranks == [0, 1, 2, 3]


def test_verify_rdfar_examples():
    r = verify_rdfar(AntiwebId(7, 3))
    assert r.passed
    rank_entry = [e for e in r.entries if e.name.startswith("r_d(antiweb")][0]
    assert rank_entry.computed == 1
    assert verify_rdfar(AntiwebId(8, 3)).passed
    assert verify_rdfar(AntiwebId(7, 2)).passed
    with pytest.raises(ValueError, match="not prime"):
        verify_rdfar(AntiwebId(8, 2))


def test_verify_join_examples():
    rep = verify_join_bound(join_blocks_of(parse_graph_spec("join:A:5:2,A:5:2")))
    assert rep.passed
    joined = [e for e in rep.entries if e.name == "r_d(joined row)"][0]
    assert joined.computed == 2
    rep2 = verify_join_bound(join_blocks_of(parse_graph_spec("join:K:3,A:5:2")))
    assert rep2.passed
    joined2 = [e for e in rep2.entries if e.name == "r_d(joined row)"][0]
    assert joined2.computed == 1


def test_verify_join_degenerate_single_block():
    host = antiweb(7, 2)
    from webrank.inequalities import JoinBlocks
    jb = JoinBlocks(host, (host.nodes,), ("A:7:2",))
    rep = verify_join_bound(jb)
    assert rep.passed
    joined = [e for e in rep.entries if e.name == "r_d(joined row)"][0]
    assert joined.computed == 1      # reduces to the block row's own rank


def test_verify_w2_and_sandwich_small():
    assert verify_w2_description((6, 7)).passed
    assert verify_operator_sandwich(n_max=7, objectives=4, seed=2).passed


# ---------------------------------------------------------------------------
# remark instances and external-fact consistency

def test_remark_antiweb_17_3_row_rank_two():
    # the subantiweb remark, rhs read as the antiweb constraint k = 3
    a = AntiwebId(17, 3)
    g = antiweb(17, 3)
    h = qstab(g)
    row, prime = antiweb_constraint(a)
    assert prime
    w, beta = 17 // 3, 17 - 5 * 3
    assert (w, beta) == (5, 2)
    ok, _ = disjunctive_valid(row, h, (16, 17))        # proof F
    assert ok
    xbar = {v: (Fraction(0) if v == 1 else Fraction(1, 5)) for v in g.nodes}
    member, _ = disjunctive_member(xbar, h, (1,))
    assert member and sum(xbar.values()) == Fraction(16, 5) > 3
    res = disjunctive_rank_inequality(row, h, cyclic=True, exhaustive_lb=False)
    assert res.rank == 2


def test_remark_antiweb_25_4_row_rank_one():
    a = AntiwebId(25, 4)
    g = antiweb(25, 4)
    h = qstab(g)
    row, prime = antiweb_constraint(a)
    assert prime and 25 - (25 // 4) * 4 == 1
    ok, cert = is_valid(row, h)
    assert not ok                                       # rank >= 1: 1/6 point
    ok, _ = disjunctive_valid(row, h, (25,))            # proof F, beta = 1
    assert ok


def test_frac_rank_external_fact_consistency():
    # [PF] r(frac(W_{2(k+1)+s}^k)) = k+s-1 at k=2: check the r<=1 directions
    g6 = web(6, 2)
    facets6 = convex_hull_facets(stab(g6))
    assert all(n_operator_valid(f, frac(g6), 1)[0] for f in facets6)   # = 1
    for n, s in ((7, 1), (8, 2)):                       # formula k+s-1 >= 2
        g = web(n, 2)
        ok, _ = n_operator_valid(rank_constraint(g), frac(g), 1)
        assert not ok, n
    # Eq-style consistency: over qstab the same rows are N-valid at depth 1
    g7 = web(7, 2)
    ok, _ = n_operator_valid(rank_constraint(g7), qstab(g7), 1)
    assert ok


def test_assumption_entries_for_deep_n_rank_facts():
    # k >= 3 N-rank equalities are flagged, never asserted; only their
    # subweb-existence ingredient is checked
    rep = verify_web_rank_formulas(ks=(4,), n_max=16, n_min=15, complements=False)
    assert rep.passed
    assumed = [e for e in rep.entries if e.status == "assumed"]
    assert assumed
    ingredients = [e for e in rep.entries if e.name.startswith("subweb ingredient")]
    assert ingredients and all(e.status == "pass" for e in ingredients)


def test_rank_row_of_minimally_imperfect_graphs_is_one():
    for g in (web(5, 1), web(7, 2)):
        res = disjunctive_rank_inequality(rank_constraint(g), qstab(g),
                                          cyclic=True, integer_hull=stab(g))
        assert res.rank == 1


# Each script stubs one dependency of a rank search so that the search's
# own closing check fails; exit 3 means that check raised, 0 that the
# wrong answer was accepted (as with an `assert` under python -O).
WRONG_DELETION_SET = """
import sys
from webrank import rank
from webrank.graphs import web

rank._hitting_search = lambda g, size, pool, seed=(), deadline=None: ()
try:
    rank.disjunctive_rank_graph(web(7, 2))
except RuntimeError as exc:
    sys.exit(3 if "hitting-set search" in str(exc) else 4)
sys.exit(0)
"""

UNSOUND_SYMMETRY = """
import sys
from webrank import rank
from webrank.graphs import web
from webrank.inequalities import rank_constraint
from webrank.polyhedra import qstab

real = rank.disjunctive_valid

def stub(ineq, h, f, piece_cap=12):
    # valid for every |F| = 2 and for F = {2}, but not for the anchor {1};
    # every answer carries the violating point of F = {} as its certificate
    _, cert = real(ineq, h, (), piece_cap)
    return len(f) == 2 or f == (2,), cert

rank.disjunctive_valid = stub
g = web(7, 2)
try:
    rank.disjunctive_rank_inequality(rank_constraint(g), qstab(g), cyclic=True)
except RuntimeError as exc:
    sys.exit(3 if "symmetry reduction unsound" in str(exc) else 4)
sys.exit(0)
"""


@pytest.mark.parametrize("script", [WRONG_DELETION_SET, UNSOUND_SYMMETRY],
                         ids=["graph-rank-deletion-set", "row-rank-symmetry"])
def test_rank_search_checks_survive_python_O(script):
    """`python -O` strips `assert`; the closing checks of both rank
    searches must still raise."""
    env = dict(os.environ)
    pkg_root = str(Path(webrank.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-O", "-c", script],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 3, out.stdout + out.stderr
