"""Disjunctive and N operator oracles, their certificates and invariants."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import webrank
from webrank.graphs import web
from webrank.inequalities import rank_constraint
from webrank.liftproject import (
    LiftCertificate,
    PieceSystem,
    disjunctive_member,
    disjunctive_valid,
    n_lift_system,
    n_operator_max,
    n_operator_valid,
    piece_lp_max,
    piece_max,
    relaxation_equals_stab_under,
    verify_n_matrix,
)
from webrank.polyhedra import (
    HPolytope,
    LinearInequality,
    convex_hull_facets,
    enumerate_vertices,
    lp_max,
    nonneg_row,
    qstab,
    stab,
)
from webrank.simplex import LinearProgram

ones = lambda g: {v: 1 for v in g.nodes}


def test_rank_row_of_c5_valid_under_one_fixing():
    # deleting node 1 leaves P_4, a perfect graph, so both pieces obey x(V) <= 2
    g = web(5, 1)
    ok, cert = disjunctive_valid(rank_constraint(g), qstab(g), (1,))
    assert ok and cert.kind == "validity-proof"
    assert [z for z, _, _ in cert.pieces] == [(0,), (1,)]
    assert max(v for _, s, v in cert.pieces if s == "optimal") == 2


def test_rank_row_of_w10_2_valid_on_last_coordinate_piece():
    g = web(10, 2)
    ok, _ = disjunctive_valid(rank_constraint(g), qstab(g), (10,))
    assert ok


def test_antiweb_row_of_a7_3_valid_under_proof_f():
    from webrank.graphs import antiweb
    g = antiweb(7, 3)
    row = LinearInequality({v: 1 for v in g.nodes}, 3, tag="antiweb")
    ok, _ = disjunctive_valid(row, qstab(g), (7,))
    assert ok


def test_rank_row_of_c5_invalid_without_fixings():
    g = web(5, 1)
    ok, cert = disjunctive_valid(rank_constraint(g), qstab(g), ())
    assert not ok and cert.kind == "violating-point"
    assert cert.point == {v: Fraction(1, 2) for v in g.nodes}


def test_half_point_not_in_p1_of_qstab_c5():
    g = web(5, 1)
    x = {v: Fraction(1, 2) for v in g.nodes}
    member, cert = disjunctive_member(x, qstab(g), (1,))
    assert not member
    sep = cert.separating
    assert sep is not None and sep.evaluate(x) > sep.rhs


def test_incidence_vectors_are_members_for_any_fixing():
    g = web(6, 2)
    h = qstab(g)
    for pt in stab(g).as_dicts():
        for f in ((), (1,), (2, 5)):
            member, cert = disjunctive_member(pt, h, f)
            assert member
            assert sum(lam for _, lam, _ in cert.multipliers) == 1


def test_rdfar_style_point_in_p_t():
    # antiweb A_8^3: T of size beta-1 = 1, the 1/omega point off T
    from webrank.graphs import antiweb
    g = antiweb(8, 3)
    h = qstab(g)
    xbar = {v: (Fraction(0) if v == 5 else Fraction(1, 2)) for v in g.nodes}
    member, _ = disjunctive_member(xbar, h, (5,))
    assert member
    assert sum(xbar.values()) == Fraction(7, 2) > 3   # k + 1/omega


def test_piece_cap_enforced():
    g = web(6, 2)
    with pytest.raises(ValueError, match="piece cap"):
        disjunctive_valid(rank_constraint(g), qstab(g), (1, 2, 3), piece_cap=2)


def test_member_agrees_with_piecewise_vertex_hull():
    # oracle: x in conv(union of pieces) iff a convex combination of the
    # pieces' vertices reproduces x (vertex enumeration route)
    rng = random.Random(4)
    for g, f in ((web(6, 2), (1, 4)), (web(8, 2), (2,))):
        h = qstab(g)
        piece_vertices = []
        for z in product((0, 1), repeat=len(f)):
            fixed = h.with_rows(
                [LinearInequality({v: 1}, zv) for v, zv in zip(f, z)]
                + [LinearInequality({v: -1}, -zv) for v, zv in zip(f, z)])
            piece_vertices.extend(enumerate_vertices(fixed))

        def oracle(x):
            lp = LinearProgram(len(piece_vertices))
            for v in h.index:
                lp.add_eq([pt[v] for pt in piece_vertices], x.get(v, Fraction(0)))
            lp.add_eq([1] * len(piece_vertices), 1)
            return lp.solve(None).status == "optimal"

        for _ in range(12):
            x = {v: Fraction(rng.randint(0, 4), 8) for v in h.index}
            if not h.contains(x):
                continue
            member, _ = disjunctive_member(x, h, f)
            assert member == oracle(x), x


def test_disjunctive_monotone_in_f():
    rng = random.Random(9)
    g = web(7, 2)
    h = qstab(g)
    row = rank_constraint(g)
    for _ in range(10):
        f1 = tuple(sorted(rng.sample(range(1, 8), 2)))
        f2 = tuple(sorted(set(f1) | {rng.randint(1, 7)}))
        ok1, _ = disjunctive_valid(row, h, f1)
        ok2, _ = disjunctive_valid(row, h, f2)
        if ok1:
            assert ok2, (f1, f2)


# ---------------------------------------------------------------------------
# N operator

def test_n1_collapses_qstab_c5_to_stab():
    g = web(5, 1)
    out = n_operator_max(ones(g), qstab(g), 1)
    assert out.value == 2


def test_n1_on_w8_2_still_violates_the_rank_row():
    g = web(8, 2)
    out, y = n_operator_max(ones(g), qstab(g), 1, with_certificate=True)
    assert out.value > 2
    assert verify_n_matrix(qstab(g), y)


def test_n1_equals_alpha_on_perfect_webs():
    for n, k in [(6, 2), (8, 3), (8, 1), (10, 4)]:
        g = web(n, k)
        out = n_operator_max(ones(g), qstab(g), 1)
        assert out.value == n // (k + 1), (n, k)


def test_n_validity_of_w2_rows():
    g9, g10 = web(9, 2), web(10, 2)
    ok, _ = n_operator_valid(rank_constraint(g10), qstab(g10), 1)
    assert ok
    from webrank.inequalities import enumerate_one_interval_sets, one_interval_inequality
    from webrank.graphs import WebId
    s = enumerate_one_interval_sets(9)[0]
    ok, _ = n_operator_valid(one_interval_inequality(WebId(9, 2), s), qstab(g9), 1)
    assert ok


def test_n_invalidity_with_reverified_witness():
    g = web(8, 2)
    ok, cert = n_operator_valid(rank_constraint(g), qstab(g), 1)
    assert not ok and cert.kind == "violating-point"
    assert verify_n_matrix(qstab(g), cert.y_matrix)
    assert sum(cert.point.values()) > 2


def test_depth_cap():
    g = web(6, 2)
    with pytest.raises(ValueError, match="depth cap"):
        n_operator_max(ones(g), qstab(g), 3)


def test_n2_reaches_integer_hull_in_two_variables():
    h = HPolytope((1, 2), [nonneg_row(1), nonneg_row(2),
                           LinearInequality({1: 1}, 1, tag="clique"),
                           LinearInequality({2: 1}, 1, tag="clique"),
                           LinearInequality({1: 1, 2: 1}, Fraction(3, 2))])
    o1 = n_operator_max({1: 1, 2: 1}, h, 1)
    o2 = n_operator_max({1: 1, 2: 1}, h, 2)
    assert o2.value <= o1.value <= Fraction(3, 2)
    assert o2.value == 1      # N^n(K) is the integer hull for n = 2


def test_n_lift_optimum_certified_by_exact_duality():
    # the 16/7 claim is an upper bound too: verify the lift LP's dual
    g = web(8, 2)
    sys_ = n_lift_system(qstab(g), 1, cache=False)
    out, raw = sys_.maximize({v: 1 for v in g.nodes})
    assert out.value == Fraction(16, 7)
    dense = [Fraction(0)] * sys_._lp.nv
    for j in range(1, 9):
        dense[sys_.top[(j, j)]] = Fraction(1)
    sys_._lp.check_optimal(raw, dense)


def test_n1_pivot_path_on_w10_2_is_pinned():
    # one solve, then warm re-solves: values and the running pivot total
    g = web(10, 2)
    sys_ = n_lift_system(qstab(g), 1, cache=False)
    rng = random.Random(0)
    seen = []
    for _ in range(10):
        out, raw = sys_.maximize({v: rng.randint(0, 9) for v in g.nodes})
        seen.append((out.value, raw.pivots))
    assert seen == [(21, 22), (22, 34), (18, 38), (22, 42), (21, 55),
                    (18, 83), (24, 112), (23, 125), (21, 135), (17, 163)]


@pytest.mark.parametrize("n, k, shape, pivots", [
    (5, 1, (810, 175), 184),
    (7, 2, (2170, 434), 482),
])
def test_n2_max_pivot_count_is_pinned(n, k, shape, pivots):
    g = web(n, k)
    sys_ = n_lift_system(qstab(g), 2, cache=False)
    assert (len(sys_._lp.rows), sys_._lp.nv) == shape
    out, raw = sys_.maximize(ones(g))
    assert out.value == 2 and raw.pivots == pivots


def test_warm_restart_reuses_the_lift_system():
    g = web(7, 2)
    h = qstab(g)
    sys1 = n_lift_system(h, 1)
    sys2 = n_lift_system(qstab(web(7, 2)), 1)
    assert sys1 is sys2       # equal HPolytopes share the cached lift
    a = n_operator_max({v: 1 for v in g.nodes}, h, 1).value
    b = n_operator_max({v: Fraction(v) for v in g.nodes}, h, 1).value
    assert a == 2 and b > 0


# ---------------------------------------------------------------------------
# the operator chain and the relaxation-equality oracle

def test_sandwich_chain_exhaustive_webs_up_to_10():
    rng = random.Random(1)
    webs = [(n, k) for k in range(1, 5) for n in range(2 * (k + 1), 11)]
    for n, k in webs:
        g = web(n, k)
        h = qstab(g)
        vp = stab(g)
        for _ in range(3):
            c = {v: Fraction(rng.randint(0, 6)) for v in g.nodes}
            smax = vp.max_over(c)[0]
            nmax = n_operator_max(c, h, 1).value
            inter = min(
                max(piece_lp_max(h, c, {j: z}).value for z in (0, 1))
                for j in g.nodes)
            qmax = lp_max(h, c).value
            assert smax <= nmax <= inter <= qmax, (n, k, c)


def test_relaxation_equality_examples():
    g5 = web(5, 1)
    ok, _ = relaxation_equals_stab_under(qstab(g5), g5, (1,))
    assert ok
    g8 = web(8, 2)
    ok, witness = relaxation_equals_stab_under(qstab(g8), g8, (1,))
    assert not ok and witness == rank_constraint(g8)
    g6 = web(6, 2)
    ok, _ = relaxation_equals_stab_under(qstab(g6), g6, ())
    assert ok


# ---------------------------------------------------------------------------
# piece systems: built once, re-solved across objectives

def test_warm_piece_systems_match_fresh_solves_on_sandwich_webs(monkeypatch):
    # every web `verify operators --nmax 9` visits, 20 seeded objectives
    calls = {"solve": 0, "resolve": 0}
    for name in calls:
        def counted(self, *args, _name=name, _orig=getattr(LinearProgram, name), **kw):
            calls[_name] += 1
            return _orig(self, *args, **kw)
        monkeypatch.setattr(LinearProgram, name, counted)
    rng = random.Random(0)
    pieces = 0
    for k in range(1, 9 // 2):
        for n in range(2 * (k + 1), 10):
            g = web(n, k)
            h = qstab(g)
            systems = {(j, z): PieceSystem(h, {j: z}) for j in g.nodes for z in (0, 1)}
            pieces += len(systems)
            for _ in range(20):
                c = {v: Fraction(rng.randint(0, 9)) for v in g.nodes}
                for (j, z), sys_ in systems.items():
                    warm = sys_.maximize(c)
                    fresh = piece_lp_max(h, c, {j: z})
                    assert (warm.status, warm.value) == (fresh.status, fresh.value), \
                        (n, k, j, z, c)
    # one solve per system and per fresh call, re-solves for the rest
    assert calls == {"solve": 21 * pieces, "resolve": 19 * pieces}


def test_empty_piece_stays_infeasible_without_an_lp():
    g = web(7, 1)
    h = qstab(g)
    sys_ = PieceSystem(h, {1: 1, 2: 1})      # both ends of the edge {1, 2}
    assert sys_.empty
    for c in (ones(g), {1: 5}, {}):
        out = sys_.maximize(c)
        assert out.status == "infeasible" and out.value is None
        assert piece_lp_max(h, c, {1: 1, 2: 1}).status == "infeasible"


def test_fully_fixed_piece_is_its_point():
    g = web(7, 1)
    h = qstab(g)
    fixing = {v: int(v in (1, 3, 5)) for v in g.nodes}
    sys_ = PieceSystem(h, fixing)
    for c, value in ((ones(g), 3), ({1: 2, 2: 7, 5: Fraction(1, 2)}, Fraction(5, 2)),
                     ({}, 0)):
        out = sys_.maximize(c)
        assert out.status == "optimal" and out.value == value
        assert out.point == {v: Fraction(z) for v, z in fixing.items()}


def test_piece_max_takes_the_first_best_piece():
    g = web(7, 2)
    h = qstab(g)
    systems = [PieceSystem(h, {1: z}) for z in (0, 1)]
    out = piece_max(systems, ones(g))
    assert out.value == 2 and out.point[1] == 0     # both pieces reach 2
    assert piece_max(systems[::-1], ones(g)).point[1] == 1
    empty = PieceSystem(qstab(web(7, 1)), {1: 1, 2: 1})
    assert piece_max([empty], ones(g)).status == "infeasible"


def test_lp_disjunctive_json_is_pinned(capsys):
    from webrank.cli import main
    assert main(["lp", "W:7:2", "--operator", "disjunctive", "--f", "1,3",
                 "--format", "json"]) == 0
    assert capsys.readouterr().out == (
        '{"graph":"W:7:2","operator":"disjunctive","point":{"1":"0","2":"1",'
        '"3":"0","4":"0","5":"1","6":"0","7":"0"},"relaxation":"qstab",'
        '"status":"optimal","value":"2"}\n')


OUTSIDE_PIECE_UNDER_O = """
import sys
from fractions import Fraction
from webrank import liftproject
from webrank.graphs import web
from webrank.inequalities import rank_constraint
from webrank.polyhedra import LPOutcome, qstab
from webrank.simplex import CertificateError

def outside(h, objective, fixing, pivot_rule="hybrid"):
    # every coordinate at 1: breaks the clique rows and ignores the fixing
    return LPOutcome(status="optimal", value=Fraction(7),
                     point={v: Fraction(1) for v in h.index})

liftproject.piece_lp_max = outside
g = web(7, 2)
try:
    liftproject.disjunctive_valid(rank_constraint(g), qstab(g), (1,))
except CertificateError:
    sys.exit(3)
sys.exit(0)
"""


def test_violating_point_check_survives_python_O():
    """`python -O` strips `assert`; a piece point outside its piece must
    still raise CertificateError."""
    env = dict(os.environ)
    pkg_root = str(Path(webrank.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-O", "-c", OUTSIDE_PIECE_UNDER_O],
                         capture_output=True, text=True, env=env, timeout=60)
    # exit 3: CertificateError was raised; 0 would mean the point was accepted
    assert out.returncode == 3, out.stdout + out.stderr
