"""Rank engine: graph ranks, row ranks, verifiers, closed-form rank tables."""

import json
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
    ResourceCapExceeded,
    WebId,
    alpha,
    antiweb,
    complement,
    complete_graph,
    complete_join,
    delete_nodes,
    from_json_dict,
    induced_subgraph,
    is_circulant,
    is_perfect,
    omega,
    parse_graph_spec,
    web,
)
from webrank.inequalities import (
    antiweb_constraint,
    enumerate_one_interval_sets,
    join_blocks_of,
    joined_inequality,
    one_interval_inequality,
    rank_constraint,
)
from webrank.liftproject import disjunctive_member, disjunctive_valid, n_operator_valid
from webrank.polyhedra import (LinearInequality, convex_hull_facets, frac, is_valid, qstab,
                               stab)
from webrank.rank import (
    disjunctive_rank_graph,
    disjunctive_rank_inequality,
    formula_web_rank,
    n_rank_graph_upto,
    n_rank_inequality_upto,
    verify_join_bound,
    verify_operator_sandwich,
    verify_rdfar,
    verify_w2_description,
    verify_web_rank_formulas,
)
from webrank.recheck import check_pieces, recheck_certificate
from webrank.reporting import dumps

from oracles import disjunctive_rank_graph_polyhedral, pool_refutes_all, with_mixed_rows


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
                            anchor=1 if is_circulant(g) else None)


def test_every_pool_hole_refutes_its_graph_by_the_lemma(tmp_path):
    """A pool hole H of G certifies a lower bound through the lemma
    P_F(QSTAB(G)) = STAB(G) iff G - F is perfect: the point 1_H/omega(H)
    lies in QSTAB(G), is 0 off H (so in the piece z = 0 of each F
    missing H), and violates x(H) <= alpha(H), since
    |H| = alpha(H) omega(H) + 1.  Checked on every pool hole of the
    graph-rank certificates of two suite reports."""
    from webrank.cli import main
    from webrank.recheck import check_point
    holes = 0
    for argv in (["web-formulas", "--ks", "2,3,4", "--nmax", "16"], ["join"]):
        path = tmp_path / "report.json"
        assert main(["verify", *argv, "--out", str(path)]) == 0
        for e in json.loads(path.read_text())["entries"]:
            cert = e.get("certificate") or {}
            if cert.get("type") != "graph-rank":
                continue
            g = from_json_dict(cert["graph"])
            h = qstab(g)
            for c in cert["pool"]:
                hole = set(c["nodes"])
                sub = induced_subgraph(g, hole)
                w, a = omega(sub), alpha(sub)
                assert len(hole) == a * w + 1
                point = {v: Fraction(1, w) if v in hole else Fraction(0) for v in g.nodes}
                off = [v for v in g.nodes if v not in hole]
                check_point(h, off, point, LinearInequality(dict.fromkeys(hole, 1), a))
                holes += 1
    assert holes >= 100


def test_a_family_tag_does_not_anchor_the_search():
    """A 5-cycle on 2..6 beside the isolated node 1, tagged as W:6:1: its
    rotation is no automorphism, so the search is not anchored at node 1
    (which lies on no hole) and finds rank 1, not 2."""
    g = Graph(range(1, 7), [(2, 3), (3, 4), (4, 5), (5, 6), (2, 6)], family=("web", 6, 1))
    res = disjunctive_rank_graph(g)
    assert (res.rank, res.deletion_set, is_circulant(g)) == (1, (2,), False)
    assert recheck_certificate(res.to_json(g))[0]


def test_polyhedral_rank_examples():
    assert disjunctive_rank_graph_polyhedral(web(5, 1)) == 1
    assert disjunctive_rank_graph_polyhedral(web(6, 2)) == 0
    assert disjunctive_rank_graph_polyhedral(web(8, 2)) == 2


def test_polyhedral_rank_unanchored_on_a_non_circulant_graph():
    g = delete_nodes(web(8, 2), (3,))
    assert not is_circulant(g)
    assert disjunctive_rank_graph_polyhedral(g) == disjunctive_rank_graph(g).rank == 1


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
        res = disjunctive_rank_inequality(rank_constraint(g), qstab(g), graph=g)
        assert res.rank == expected, n


def test_one_interval_row_rank_one_with_paper_witness():
    g = web(9, 2)
    h = qstab(g)
    s = [t for t in enumerate_one_interval_sets(9) if t.T == (1, 3, 5, 6, 7, 8)][0]
    row = one_interval_inequality(WebId(9, 2), s)
    res = disjunctive_rank_inequality(row, h, graph=g)
    assert res.rank == 1
    assert set(res.witness_f) <= set(s.T)
    # the proof's own witness: the last node of the final interval
    last_interval_end = s.intervals[-1][-1]
    ok, _ = disjunctive_valid(row, h, (last_interval_end,))
    assert ok


def test_antiweb_row_rank_a8_3():
    g = antiweb(8, 3)
    row = antiweb_constraint(AntiwebId(8, 3))
    res = disjunctive_rank_inequality(row, qstab(g), graph=g)
    assert res.rank == 2 == 8 - 2 * 3
    assert recheck_certificate(res.to_json(row, qstab(g)))[0]


def test_row_rank_search_order_is_pinned():
    # rank, bound, witness F and the F of each recorded violation in order,
    # for an anchored (rotation-invariant) and an unanchored search: over
    # QSTAB the scan starts at the point bound, over a system that is not
    # down-closed at size 0
    g = antiweb(8, 3)
    row = antiweb_constraint(AntiwebId(8, 3))
    res = disjunctive_rank_inequality(row, qstab(g), graph=g)
    assert (res.rank, res.bound, res.witness_f) == (2, 2, (1, 2))
    assert res.bound_point == dict.fromkeys(g.nodes, Fraction(1, 2))
    assert res.violating_points == []
    res = disjunctive_rank_inequality(row, with_mixed_rows(qstab(g)), graph=g)
    assert (res.rank, res.bound, res.bound_point, res.witness_f) == (2, 0, None, (1, 2))
    assert [f for f, _ in res.violating_points] == [(), (1,)]
    host = parse_graph_spec("join:A:5:2,A:5:2")
    row = joined_inequality(join_blocks_of(host))
    res = disjunctive_rank_inequality(row, qstab(host), graph=host)
    assert (res.rank, res.bound, res.witness_f) == (2, 2, (1, 6))
    assert [f for f, _ in res.violating_points] == [(1, v) for v in range(2, 6)]
    res = disjunctive_rank_inequality(row, with_mixed_rows(qstab(host)), graph=host)
    assert (res.rank, res.bound, res.witness_f) == (2, 0, (1, 6))
    assert [f for f, _ in res.violating_points] == \
        [()] + [(v,) for v in range(1, 11)] + [(1, v) for v in range(2, 6)]


def test_a_one_interval_row_has_bound_zero_and_one_violation():
    # on W_9^2's 1-interval row of T = (1, 3, 5, 7, 8, 9) the uniform
    # point satisfies the row, so the bound is 0 and carries no point; the
    # scan rejects F = () and the coverage of size 0 rests on its point
    g = web(9, 2)
    s = next(t for t in enumerate_one_interval_sets(9) if t.T == (1, 3, 5, 7, 8, 9))
    row = one_interval_inequality(WebId(9, 2), s)
    h = qstab(g)
    res = disjunctive_rank_inequality(row, h, graph=g)
    assert (res.rank, res.bound, res.bound_point) == (1, 0, None)
    assert [f for f, _ in res.violating_points] == [()]
    cert = res.to_json(row, h)
    assert "bound_point" not in cert
    assert recheck_certificate(cert) == (
        True, "witness pieces + bound 0 + 1 violations covering every F of size 0")
    ok, detail = recheck_certificate({**cert, "violations": []})
    assert not ok and detail.startswith("coverage failed")


def test_the_point_bound_is_the_row_rank_where_the_scan_is_fast():
    # the rows whose row rank search runs fast: the rank rows of W_7^2 ..
    # W_13^2, the antiweb row of every prime antiweb with n <= 17 (up to
    # A_17^7) and the joined row of C_5 v C_5; each certificate passes
    # `recheck` with no coverage step.  Dahl's 1-interval rows on W_10^2
    # have rank 1 and bound 0, and their scans start at F = ()
    cases = [(rank_constraint(web(n, 2)), web(n, 2)) for n in range(7, 14)]
    cases += [(antiweb_constraint(AntiwebId(n, k)), antiweb(n, k))
              for n in range(4, 18) for k in range(2, n // 2 + 1) if AntiwebId(n, k).prime]
    host = parse_graph_spec("join:A:5:2,A:5:2")
    cases.append((joined_inequality(join_blocks_of(host)), host))
    assert len(cases) == 7 + 32 + 1
    for row, g in cases:
        h = qstab(g)
        res = disjunctive_rank_inequality(row, h, graph=g)
        assert res.bound == res.rank, row
        ok, detail = recheck_certificate(json.loads(dumps(res.to_json(row, h))))
        assert ok and "covering" not in detail, row
    scans = []
    for s in enumerate_one_interval_sets(10):
        row = one_interval_inequality(WebId(10, 2), s)
        res = disjunctive_rank_inequality(row, qstab(web(10, 2)), graph=web(10, 2))
        assert (res.rank, res.bound, res.bound_point) == (1, 0, None), row
        scans.append([f for f, _ in res.violating_points] + [res.witness_f])
    assert scans == [[(), (1,)], [(), (1,), (2,)]]


def test_exhaustive_row_rank_step_decides_each_f_once(monkeypatch):
    # the ascending search decides each candidate F once: from the bound,
    # only the witness (1, 2) on the anchored antiweb row and (1, 2) ..
    # (1, 6) on the unanchored joined row; from size 0 (no bound), (),
    # (1,) and the witness on the antiweb row, every F up to the witness
    # on the joined row
    calls = []

    def counted(*args):
        calls.append(args[2])
        return disjunctive_valid(*args)

    monkeypatch.setattr(webrank.rank, "disjunctive_valid", counted)
    g = antiweb(8, 3)
    row = antiweb_constraint(AntiwebId(8, 3))
    host = parse_graph_spec("join:A:5:2,A:5:2")
    joined = joined_inequality(join_blocks_of(host))
    for row, h, expected in [(row, qstab(g), 1), (joined, qstab(host), 5),
                             (row, with_mixed_rows(qstab(g)), 3),
                             (joined, with_mixed_rows(qstab(host)), 16)]:
        calls.clear()
        disjunctive_rank_inequality(row, h)
        assert len(calls) == len(set(calls)) == expected


def test_row_rank_rejects_rows_invalid_for_the_hull():
    g = web(5, 1)
    bad = rank_constraint(complete_graph(5))           # x(V) <= 1 on C_5
    with pytest.raises(ValueError, match="invalid for the integer hull"):
        disjunctive_rank_inequality(bad, qstab(g), graph=g)


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
        d = disjunctive_rank_inequality(row, h, graph=g).rank
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


def test_n_rank_depth_cap_bounds_rows_only():
    g = web(6, 2)
    assert n_rank_graph_upto(g, 3) == 0         # perfect: no lift is built
    with pytest.raises(ResourceCapExceeded):
        n_rank_inequality_upto(rank_constraint(g), qstab(g), rmax=3)


def test_verify_web_formula_tables():
    rep = verify_web_rank_formulas(ks=(2,), n_max=14, complements=False)
    ranks = [e.computed for e in rep.entries]
    assert ranks == [0, 1, 2, 2, 2, 2, 2, 2, 2]
    rep3 = verify_web_rank_formulas(ks=(3,), n_max=11, complements=True)
    assert rep3.passed
    web_ranks = [e.computed for e in rep3.entries if e.name.startswith("r_d(W")]
    assert web_ranks == [0, 1, 2, 3]
    # k = 1: a web is a cycle, of rank 0 when even and 1 when odd (parity)
    rep1 = verify_web_rank_formulas(ks=(1,), n_max=14)
    assert rep1.passed and len(rep1.entries) == 22
    web_ranks = [e.computed for e in rep1.entries if e.name.startswith("r_d(W")]
    assert web_ranks == [n % 2 for n in range(4, 15)]


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


def test_verify_w2_searches_each_one_interval_set_once(monkeypatch):
    # one search per 1-interval set, and a set whose closed form the search
    # contradicts is one mismatch in the report, not an error that ends it
    from webrank import inequalities
    searched = []
    search = inequalities.alpha_induced
    monkeypatch.setattr(inequalities, "alpha_induced",
                        lambda g, nodes: searched.append(nodes) or search(g, nodes))
    assert verify_w2_description((6, 9)).passed
    assert searched == [s.T for n in (6, 9) for s in enumerate_one_interval_sets(n)]
    bad = enumerate_one_interval_sets(9)[2].T
    monkeypatch.setattr(inequalities, "alpha_induced",
                        lambda g, nodes: search(g, nodes) + (nodes == bad))
    rep = verify_w2_description((9,))
    assert [(e.name, e.computed) for e in rep.entries] == [
        ("description(W:9:2) = conv(STAB)", False),
        ("closed-form alpha(T) matches search (n=9)", 1)]
    assert not rep.passed


# ---------------------------------------------------------------------------
# remark instances and external-fact consistency

def test_remark_antiweb_17_3_row_rank_two():
    # the subantiweb remark, rhs read as the antiweb constraint k = 3
    a = AntiwebId(17, 3)
    g = antiweb(17, 3)
    h = qstab(g)
    row = antiweb_constraint(a)
    assert a.prime
    w, beta = 17 // 3, 17 - 5 * 3
    assert (w, beta) == (5, 2)
    ok, _ = disjunctive_valid(row, h, (16, 17))        # proof F
    assert ok
    xbar = {v: (Fraction(0) if v == 1 else Fraction(1, 5)) for v in g.nodes}
    member, _ = disjunctive_member(xbar, h, (1,))
    assert member and sum(xbar.values()) == Fraction(16, 5) > 3
    res = disjunctive_rank_inequality(row, h)
    assert res.rank == 2


def test_remark_antiweb_25_4_row_rank_one():
    a = AntiwebId(25, 4)
    g = antiweb(25, 4)
    h = qstab(g)
    row = antiweb_constraint(a)
    assert a.prime and 25 - (25 // 4) * 4 == 1
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
    rep = verify_web_rank_formulas(ks=(4,), n_max=16, complements=False)
    assert rep.passed
    assumed = [e for e in rep.entries if e.status == "assumed"]
    assert assumed
    ingredients = [e for e in rep.entries if e.name.startswith("subweb ingredient")]
    assert ingredients and all(e.status == "pass" for e in ingredients)


def test_rank_row_of_minimally_imperfect_graphs_is_one():
    for g in (web(5, 1), web(7, 2)):
        res = disjunctive_rank_inequality(rank_constraint(g), qstab(g), graph=g)
        assert res.rank == 1


# Each script stubs one dependency of a rank search so that its answer is
# wrong; exit 3 means the search's closing check raised or `recheck`
# failed the certificate, 0 that the wrong answer was accepted (as with an
# `assert` under python -O).
WRONG_DELETION_SET = """
import sys
from webrank import rank
from webrank.graphs import web

rank.hitting_set = lambda masks, size, seed=0, refute=None: 0
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
from webrank.recheck import check_pieces, recheck_certificate

real = rank.disjunctive_valid

def stub(ineq, h, f):
    # the anchor {1} refuted by the violating point of F = {}, every other
    # F answered truly: {2} is valid but {1} is not, so the anchored search
    # returns rank 2 for a row of rank 1
    if f == (1,):
        return False, real(ineq, h, ())[1]
    return real(ineq, h, f)

rank.disjunctive_valid = stub
g = web(7, 2)
row, h = rank_constraint(g), qstab(g)
res = rank.disjunctive_rank_inequality(row, h)
ok, detail = recheck_certificate(res.to_json(row, h))
print(res.rank, detail)
sys.exit(0 if ok else 3 if res.rank == 2 else 4)
"""


@pytest.mark.parametrize("script", [WRONG_DELETION_SET, UNSOUND_SYMMETRY],
                         ids=["graph-rank-deletion-set", "row-rank-symmetry"])
def test_rank_search_checks_survive_python_O(script):
    """`python -O` strips `assert`; the closing check of the graph-rank
    search must still raise, and `recheck` must still fail the row rank
    of an oracle that breaks the rotation symmetry."""
    env = dict(os.environ)
    pkg_root = str(Path(webrank.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-O", "-c", script],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 3, out.stdout + out.stderr


def _small_webs_and_antiwebs():
    for n in range(4, 13):
        yield from (web(n, k) for k in range(1, (n - 2) // 2 + 1))
        yield from (antiweb(n, k) for k in range(2, n // 2 + 1))


def test_every_facet_is_valid_for_the_piece_union_of_the_graph_rank_deletion_set():
    """A second, polyhedral proof of each graph rank's upper half, which
    shares no code with the odd-hole search: every facet of STAB that
    QSTAB does not imply is valid for P_F*(QSTAB), F* the deletion set
    `disjunctive_rank_graph` returns, by piece LPs whose multipliers
    `recheck.check_pieces` accepts."""
    checked = []
    for g in _small_webs_and_antiwebs():
        h, f = qstab(g), disjunctive_rank_graph(g).deletion_set
        rows = [row for row in convex_hull_facets(stab(g)) if not is_valid(row, h)[0]]
        for row in rows:
            ok, cert = disjunctive_valid(row, h, f)
            assert ok, (g, f, str(row))
            check_pieces(h, row, f, cert["pieces"])
        checked.append(len(rows))
    # 50 graphs, of which 18 are perfect (STAB = QSTAB, F* = ())
    assert len(checked) == 50 and sum(map(bool, checked)) == 32 and sum(checked) == 288
