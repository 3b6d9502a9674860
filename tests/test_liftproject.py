"""Disjunctive and N operator oracles, their certificates and invariants."""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import webrank
from webrank import liftproject
from webrank.graphs import SearchTimeout, limits, web
from webrank.inequalities import rank_constraint
from webrank.liftproject import (
    NLiftSystem,
    PieceSystem,
    disjunctive_member,
    disjunctive_valid,
    min_piece_max,
    n_lift_system,
    n_operator_max,
    n_operator_valid,
    piece_lp_max,
    piece_max,
    piece_systems,
)
from webrank.polyhedra import (
    HPolytope,
    LinearInequality,
    convex_hull_facets,
    lp_max,
    nonneg_row,
    qstab,
    stab,
)
from webrank.recheck import check_n_matrix, recheck_certificate
from webrank.reporting import dumps
from webrank.simplex import CertificateError, LinearProgram

from oracles import (
    as_dicts,
    contains,
    contains_by_fractions,
    disjunctive_member_unreduced,
    enumerate_vertices,
    evaluate,
    max_over,
    n_lift_rows,
    with_rows,
)

ones = lambda g: {v: 1 for v in g.nodes}


def test_rank_row_of_c5_valid_under_one_fixing():
    # deleting node 1 leaves P_4, a perfect graph, so both pieces obey x(V) <= 2
    g = web(5, 1)
    h, row = qstab(g), rank_constraint(g)
    ok, cert = disjunctive_valid(row, h, (1,))
    assert ok and set(cert) == {"f", "pieces"}
    assert [p["z"] for p in cert["pieces"]] == [(0,), (1,)]
    assert max(piece_lp_max(h, row.coeffs, {1: p["z"][0]}).value
               for p in cert["pieces"] if p["status"] == "optimal") == 2


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
    assert not ok and set(cert) == {"f", "point"}
    assert cert["point"] == {v: Fraction(1, 2) for v in g.nodes}


def test_half_point_not_in_p1_of_qstab_c5():
    g = web(5, 1)
    x = {v: Fraction(1, 2) for v in g.nodes}
    member, cert = disjunctive_member(x, qstab(g), (1,))
    assert not member
    sep = LinearInequality.from_json(cert["separating"])
    assert evaluate(sep, x) > sep.rhs


def test_incidence_vectors_are_members_for_any_fixing():
    g = web(6, 2)
    h = qstab(g)
    for pt in as_dicts(stab(g)):
        for f in ((), (1,), (2, 5)):
            member, cert = disjunctive_member(pt, h, f)
            assert member
            assert sum(m["lambda"] for m in cert["multipliers"]) == 1


def test_rdfar_style_point_in_p_t():
    # antiweb A_8^3: T of size beta-1 = 1, the 1/omega point off T
    from webrank.graphs import antiweb
    g = antiweb(8, 3)
    h = qstab(g)
    xbar = {v: (Fraction(0) if v == 5 else Fraction(1, 2)) for v in g.nodes}
    member, _ = disjunctive_member(xbar, h, (5,))
    assert member
    assert sum(xbar.values()) == Fraction(7, 2) > 3   # k + 1/omega


def _rdfar_points(n, k):
    """(qstab, T, point) for every T of size beta - 1 of A_n^k: the point
    is 0 on T and 1/omega elsewhere, as in `verify rdfar`."""
    from itertools import combinations
    from webrank.graphs import antiweb
    g = antiweb(n, k)
    w = n // k
    for tset in combinations(g.nodes, n - w * k - 1):
        yield qstab(g), tset, {v: Fraction(0) if v in tset else Fraction(1, w)
                               for v in g.nodes}


@pytest.mark.parametrize("n, k", [(8, 3), (11, 4)])
def test_rdfar_point_is_its_own_piece_without_an_lp(monkeypatch, n, k):
    def no_lp(*args, **kwargs):
        raise AssertionError("a point of h that is 0/1 on F built an LP")

    monkeypatch.setattr(liftproject.LinearProgram, "solve", no_lp)
    for h, tset, x in _rdfar_points(n, k):
        member, cert = disjunctive_member(x, h, tset)
        assert member
        [m] = cert["multipliers"]
        assert m == {"z": (0,) * len(tset), "lambda": 1, "point": x}
        assert recheck_certificate(_membership_cert(h, x, member, cert))[0]
        with limits(deadline=time.monotonic() - 1), pytest.raises(SearchTimeout):
            disjunctive_member(x, h, tset)


def test_a_doctored_one_piece_certificate_fails_recheck():
    h, tset, x = next(_rdfar_points(11, 4))
    cert = _membership_cert(h, x, *disjunctive_member(x, h, tset))
    half = json.loads(json.dumps(cert))
    half["multipliers"][0]["lambda"] = "1/2"
    assert recheck_certificate(half) == (False, "convex multipliers do not sum to 1")
    # x and its piece point moved together to a point off h, still 0/1 on T:
    # only the relaxation check can catch it
    v = next(u for u in h.index if u not in tset)
    off = json.loads(json.dumps(cert))
    off["point"][str(v)] = off["multipliers"][0]["point"][str(v)] = "1"
    assert not contains(h, {int(v): Fraction(q) for v, q in off["point"].items()})
    assert recheck_certificate(off) == (False, "piece point outside the relaxation")


def test_piece_cap_enforced():
    g = web(6, 2)
    with limits(piece_cap=2), pytest.raises(ValueError, match="piece cap"):
        disjunctive_valid(rank_constraint(g), qstab(g), (1, 2, 3))


def test_member_agrees_with_piecewise_vertex_hull():
    # oracle: x in conv(union of pieces) iff a convex combination of the
    # pieces' vertices reproduces x (vertex enumeration route)
    rng = random.Random(4)
    for g, f in ((web(6, 2), (1, 4)), (web(8, 2), (2,))):
        h = qstab(g)
        piece_vertices = []
        for z in product((0, 1), repeat=len(f)):
            fixed = with_rows(
                h,
                [LinearInequality({v: 1}, zv) for v, zv in zip(f, z)]
                + [LinearInequality({v: -1}, -zv) for v, zv in zip(f, z)])
            piece_vertices.extend(enumerate_vertices(fixed))

        def oracle(x):
            lp = LinearProgram(len(piece_vertices))
            for v in h.index:
                lp.add_eq({j: pt[v] for j, pt in enumerate(piece_vertices)},
                          x.get(v, Fraction(0)))
            lp.add_eq(dict.fromkeys(range(len(piece_vertices)), 1), 1)
            return lp.solve(None).status == "optimal"

        for _ in range(12):
            x = {v: Fraction(rng.randint(0, 4), 8) for v in h.index}
            if not contains(h, x):
                continue
            member, _ = disjunctive_member(x, h, f)
            assert member == oracle(x), x


def _membership_cert(h, x, member, cert):
    """cert wrapped as the membership certificate recheck reads, through
    its JSON text."""
    return json.loads(dumps({**cert, "type": "membership", "system": h.to_json(),
                             "point": x, "member": member}))


def _record_lp_shapes(monkeypatch):
    """The list to which each LP that liftproject solves from scratch
    appends its (rows, variables, equality rows)."""
    built = []

    class Recording(LinearProgram):
        def solve(self, *args, **kwargs):
            built.append((len(self.rows), self.nv,
                          sum(kind == "=" for _, _, kind in self.rows)))
            return super().solve(*args, **kwargs)

    monkeypatch.setattr(liftproject, "LinearProgram", Recording)
    return built


def test_member_with_every_piece_empty_needs_no_lp(monkeypatch):
    # h is the segment x1 = 1/2, so both pieces x1 = 0 and x1 = 1 are empty
    # and P_F(h) is empty though h is not
    h = HPolytope((1, 2), [nonneg_row(1), nonneg_row(2), LinearInequality({1: 1}, 1),
                           LinearInequality({2: 1}, 1),
                           LinearInequality({1: 2}, 1), LinearInequality({1: -2}, -1)])
    x = {1: Fraction(1, 2), 2: Fraction(0)}
    assert contains(h, x)
    assert disjunctive_member_unreduced(x, h, (1,))[0] is False
    monkeypatch.setattr(liftproject, "LinearProgram", None)    # no LP may be built
    member, cert = disjunctive_member(x, h, (1,))
    assert not member and set(cert) == {"f", "point", "separating", "pieces"}
    assert cert["separating"] == {"coeffs": {}, "rhs": Fraction(-1)}
    assert recheck_certificate(_membership_cert(h, x, member, cert)) == \
        (True, "separating row valid on every piece, by its multipliers")


def _outside_points():
    """(name, h, F, x) with x outside h: A_11^2 at 1/4 (a clique of 5),
    W_8^3 and A_8^2 at 1/3 with F their positions 1 and 3 (cliques of 4)."""
    from webrank.graphs import antiweb
    for name, g, f, q in (("A:11:2", antiweb(11, 2), (1,), Fraction(1, 4)),
                          ("W:8:3", web(8, 3), (1, 3), Fraction(1, 3)),
                          ("A:8:2", antiweb(8, 2), (1, 3), Fraction(1, 3))):
        yield name, qstab(g), f, dict.fromkeys(g.nodes, q)


OUTSIDE = list(_outside_points())


@pytest.mark.parametrize("name, h, f, x", OUTSIDE, ids=[case[0] for case in OUTSIDE])
def test_a_point_outside_h_is_cut_off_by_its_row_without_an_lp(monkeypatch, name, h, f, x):
    # P_F(h) lies in h: the first row of h that x exceeds separates it, and
    # bounds itself on every piece (empty ones included) by y = {i: 1}
    first = next(i for i, r in enumerate(h.rows) if evaluate(r, x) > r.rhs)
    assert disjunctive_member_unreduced(x, h, f)[0] is False
    monkeypatch.setattr(liftproject, "LinearProgram", None)    # no LP may be built
    member, cert = disjunctive_member(x, h, f)
    assert member is False and set(cert) == {"f", "point", "separating", "pieces"}
    assert cert["separating"] == h.rows[first].to_json()
    assert cert["pieces"] == [{"z": z, "status": "bounded", "y": {first: 1}}
                              for z in product((0, 1), repeat=len(f))]
    assert recheck_certificate(_membership_cert(h, x, member, cert)) == \
        (True, "separating row valid on every piece, by its multipliers")


@pytest.mark.parametrize("name, h, f, x", OUTSIDE, ids=[case[0] for case in OUTSIDE])
def test_a_doctored_outside_h_certificate_fails_recheck(name, h, f, x):
    cert = _membership_cert(h, x, *disjunctive_member(x, h, f))
    [first] = cert["pieces"][0]["y"]

    def with_y(y):
        return {**cert, "pieces": [{**p, "y": y} for p in cert["pieces"]]}

    satisfied = next(r for r in h.rows if evaluate(r, x) <= r.rhs)
    doctored = {
        "negated": with_y({first: "-1"}),
        "no such row": with_y({str(len(h.rows)): "1"}),
        "satisfied": {**cert, "separating": LinearInequality(
            satisfied.coeffs, satisfied.rhs, tag="separating").to_json()},
    }
    for kind, bad in doctored.items():
        assert not recheck_certificate(json.loads(dumps(bad)))[0], kind
    assert recheck_certificate(doctored["satisfied"]) == \
        (False, "separating row not violated by the point")
    assert "negative or no such row" in recheck_certificate(doctored["no such row"])[1]


def test_the_limits_bound_the_outside_h_path(capsys):
    from webrank.cli import main
    argv = ["lp", "A:11:2", "--member", ",".join(["1/4"] * 11)]
    assert main([*argv, "--f", "1", "--time-budget", "0"]) == 2
    assert main([*argv, "--piece-cap", "1", "--f", "1,2"]) == 2
    assert main([*argv, "--f", "1"]) == 0
    assert capsys.readouterr().out.endswith("point is outside P_F(qstab(A:11:2)) for F=[1]\n")


def _certify_points(seed):
    """(h, F, x) drawn as the certify benchmark draws its membership
    queries: on each prime antiweb A_n^k with n <= 11, one F of each size
    1 to 3 and one x of [1/12, 1/2]^n in twelfths."""
    from math import gcd
    from webrank.graphs import antiweb
    rng = random.Random(seed)
    for n in range(4, 12):
        for k in range(2, n // 2 + 1):
            if gcd(n, k) != 1:
                continue
            h = qstab(antiweb(n, k))
            for size in (1, 2, 3):
                f = tuple(sorted(rng.sample(range(1, n + 1), size)))
                yield h, f, {v: Fraction(rng.randint(1, 6), 12) for v in h.index}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_member_agrees_with_the_unreduced_lp_and_builds_one_only_when_needed(monkeypatch, seed):
    built = []

    class Counted(LinearProgram):
        def __init__(self, num_vars):
            super().__init__(num_vars)
            built.append(self)

    monkeypatch.setattr(liftproject, "LinearProgram", Counted)
    kinds = set()
    for h, f, x in _certify_points(seed):
        built.clear()
        member, _ = disjunctive_member(x, h, f)
        inside = contains_by_fractions(h, x)
        zero_one = all(x[v] in (0, 1) for v in f)
        assert len(built) == (inside and not zero_one), (h.index, f, x)
        assert member is disjunctive_member_unreduced(x, h, f)[0], (h.index, f, x)
        kinds.add((inside, member))
    assert (False, False) in kinds and (True, True) in kinds


def test_member_with_every_coordinate_fixed_has_no_y_block(monkeypatch):
    # F = V on C_5: the nonempty pieces are the 11 stable sets, and only
    # their lambdas are variables
    built = _record_lp_shapes(monkeypatch)
    g = web(5, 1)
    h = qstab(g)
    inside = {1: Fraction(1, 2), 2: Fraction(1, 2), 3: Fraction(0), 4: Fraction(0),
              5: Fraction(0)}
    outside = {v: Fraction(1, 2) for v in g.nodes}
    certs = {}
    for x, want in ((inside, True), (outside, False)):
        member, certs[want] = disjunctive_member(x, h, g.nodes)
        assert member is want and built.pop()[1] == 11
        assert disjunctive_member_unreduced(x, h, g.nodes)[0] is want
        assert recheck_certificate(_membership_cert(h, x, member, certs[want]))[0]
    mults = certs[True]["multipliers"]
    assert [m["z"] for m in mults] == [(0, 1, 0, 0, 0), (1, 0, 0, 0, 0)]
    for m in mults:
        assert m["point"] == {v: Fraction(z) for v, z in zip(g.nodes, m["z"])}


@pytest.mark.parametrize("n, k, f, x, shape", [
    (11, 4, (5, 6, 8), "1/4,1/6,5/12,1/6,1/2,1/6,1/4,1/12,1/2,1/12,1/12", (188, 72, 12)),
    (11, 3, (1, 4, 7), ",".join(["1/4"] * 11), (96, 36, 12)),
])
def test_membership_lp_is_built_reduced(monkeypatch, n, k, f, x, shape):
    # the unreduced LP of both is 300 rows x 96 variables with 36 = rows;
    # A_11^3 with F = {1, 4, 7} has 4 empty pieces of 8
    from webrank.graphs import antiweb
    built = _record_lp_shapes(monkeypatch)
    h = qstab(antiweb(n, k))
    point = dict(zip(h.index, map(Fraction, x.split(","))))
    member, _ = disjunctive_member(point, h, f)
    assert built[0] == shape
    assert member == disjunctive_member_unreduced(point, h, f)[0]


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
    sys_ = n_lift_system(qstab(g), 1)
    out, raw = sys_.maximize(ones(g))
    assert out.value > 2
    check_n_matrix(qstab(g), sys_.y_matrix(raw))


def _doctored(y, *entries):
    """A copy of the grid y with y[i][j] = value for each (i, j, value)."""
    y = [row[:] for row in y]
    for i, j, value in entries:
        y[i][j] = value
    return y


def test_each_condition_of_a_lifted_matrix_is_checked():
    # Y of the N max of x(V) over QSTAB(W_8^2), doctored one condition at a
    # time: (Ye_0)_0 = 1, symmetry, Ye_0 = diag(Y), x >= 0 and the clique
    # row {1, 2, 3} on the column Ye_1 (edge entry Y_12 raised to 1), and a
    # clique row through node 4 on Y(e_0 - e_1) (Y_14 lowered to 0)
    g = web(8, 2)
    h = qstab(g)
    sys_ = n_lift_system(h, 1)
    y = sys_.y_matrix(sys_.maximize(ones(g))[1])
    check_n_matrix(h, y)
    assert y[1][4] > 0 and y[1][2] == 0
    for bad, says, node in ((_doctored(y, (0, 0, Fraction(2))), "Y_00 is not 1", None),
                            (_doctored(y, (1, 4, y[1][4] + 1)),
                             "Y is not symmetric at (1, 4)", None),
                            (_doctored(y, (0, 1, y[1][1] + 1), (1, 0, y[1][1] + 1)),
                             "Ye_0 = diag(Y) fails at 1", None),
                            (_doctored(y, (1, 4, Fraction(-1)), (4, 1, Fraction(-1))),
                             "column Ye_1 has a negative entry", None),
                            (_doctored(y, (1, 2, Fraction(1)), (2, 1, Fraction(1))),
                             "column Ye_1 violates row ", 2),
                            (_doctored(y, (1, 4, Fraction(0)), (4, 1, Fraction(0))),
                             "column Y(e_0 - e_1) violates row ", 4)):
        with pytest.raises(CertificateError) as exc:
            check_n_matrix(h, bad)
        message = str(exc.value)
        assert message.startswith(says), message
        if node is not None:
            row = h.rows[int(message.removeprefix(says).split()[0])]
            assert row.tag == "clique" and node in row.coeffs, message


def test_a_violating_lift_point_is_checked_before_it_is_handed_out(monkeypatch):
    # the rank row of W_8^2 is not valid for N(QSTAB): a lifted matrix that
    # fails its conditions, or a point that satisfies the row, raises
    g = web(8, 2)
    h, row = qstab(g), rank_constraint(g)
    y_matrix = liftproject.NLiftSystem.y_matrix
    monkeypatch.setattr(liftproject.NLiftSystem, "y_matrix",
                        lambda self, res: [[2 * q for q in r] for r in y_matrix(self, res)])
    with pytest.raises(CertificateError, match="Y_00 is not 1"):
        n_operator_valid(row, h, 1)
    monkeypatch.undo()
    monkeypatch.setattr(liftproject, "_lift_point",
                        lambda diag, primal: {v: Fraction(0) for v, _ in diag})
    with pytest.raises(CertificateError, match="point satisfies the row"):
        n_operator_valid(row, h, 1)


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
    assert not ok and set(cert) == {"depth", "point", "Y", "value"}
    check_n_matrix(qstab(g), cert["Y"])
    assert sum(cert["point"].values()) > 2


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


def _full_lift(h, depth):
    """The lift LP of N^depth(h) as built, before its presolve, and the
    variable of each diagonal entry of its top matrix, by node."""
    keys, rows = n_lift_rows(h, depth)
    lp = LinearProgram(len(keys))
    for coeffs, rhs in rows:
        lp.add_le(coeffs, rhs)
    var = {key: v for v, key in enumerate(keys)}
    return lp, {u: var[(), (j, j)] for j, u in enumerate(h.index, start=1)}


def _full_lift_objective(diag, c):
    """The objective c on the diagonal of the top matrix of that LP."""
    return {diag[v]: Fraction(c[v]) for v in diag if c[v]}


def test_n_lift_optimum_certified_by_exact_duality():
    # the 16/7 claim is an upper bound too: verify the dual of the full lift
    # LP, rebuilt from the rows the presolve starts from
    g = web(8, 2)
    out, _ = NLiftSystem(qstab(g), 1).maximize(ones(g))
    assert out.value == Fraction(16, 7)
    lp, diag = _full_lift(qstab(g), 1)
    obj = _full_lift_objective(diag, ones(g))
    raw = lp.solve(obj)
    assert raw.value == Fraction(16, 7)
    lp.check_optimal(raw, obj)


def test_presolved_lift_max_equals_the_full_lift_max():
    rng = random.Random(5)
    cases = [(n, k, 1) for k in range(1, 4) for n in range(2 * (k + 1), 9)]
    for n, k, depth in cases + [(5, 1, 2)]:
        g = web(n, k)
        sys_ = NLiftSystem(qstab(g), depth)
        lp, diag = _full_lift(qstab(g), depth)
        assert len(sys_._col) < lp.nv and len(sys_._presolved) < len(lp.rows)
        objectives = [ones(g)] + [{v: rng.randint(0, 6) for v in g.nodes}
                                  for _ in range(5 if depth == 1 else 1)]
        for c in objectives:
            out, _ = sys_.maximize(c)
            assert out.value == lp.maximize(_full_lift_objective(diag, c)).value, (n, k, c)


def test_depth1_lift_matrix_is_certified_and_zero_on_edges():
    rng = random.Random(6)
    for n, k in [(5, 1), (7, 2), (8, 2), (9, 3), (10, 2)]:
        g = web(n, k)
        h = qstab(g)
        for _ in range(4):
            c = {v: rng.randint(0, 6) for v in g.nodes}
            sys_ = n_lift_system(h, 1)
            out, raw = sys_.maximize(c)
            y = sys_.y_matrix(raw)
            check_n_matrix(h, y)
            assert all(y[i][j] == 0 for i, j in g.edges()), (n, k, c)
            assert [y[j][j] for j in range(1, n + 1)] == [out.point[v] for v in g.nodes]


def test_n1_pivot_path_on_w10_2_is_pinned():
    # one solve, then warm re-solves: values and the running pivot total
    g = web(10, 2)
    sys_ = NLiftSystem(qstab(g), 1)
    rng = random.Random(0)
    seen = []
    for _ in range(10):
        out, raw = sys_.maximize({v: rng.randint(0, 9) for v in g.nodes})
        seen.append((out.value, raw.pivots))
    assert seen == [(21, 15), (22, 25), (18, 27), (22, 31), (21, 39),
                    (18, 56), (24, 80), (23, 91), (21, 101), (17, 119)]


# shape and pivots of the presolved depth-2 lift LP, then of its fold by
# the dihedral group, by (n, k)
_N2_PRESOLVED = {(5, 1): ((155, 35), 26, (20, 5), 5),
                 (7, 2): ((350, 63), 55, (27, 6), 6)}


@pytest.mark.parametrize("n, k, shape, pivots", [
    (5, 1, (785, 115), 56),
    (7, 2, (2135, 322), 99),
], ids=["W51", "W72"])
def test_n2_max_pivot_count_is_pinned(n, k, shape, pivots):
    # shape and pivots of the full lift LP as built, of its presolve (solved
    # directly) and of the presolve folded onto column orbits (x(V) is fixed
    # by every rotation and reflection)
    g = web(n, k)
    sys_ = NLiftSystem(qstab(g), 2)
    lp, diag = _full_lift(qstab(g), 2)
    assert (len(lp.rows), lp.nv) == shape
    raw = lp.solve(_full_lift_objective(diag, ones(g)))
    assert raw.value == 2 and raw.pivots == pivots
    small_shape, small_pivots, fold_shape, fold_pivots = _N2_PRESOLVED[(n, k)]
    small, _ = sys_._fold(())           # the trivial group's fold: the presolved LP
    assert (len(small.rows), small.nv) == small_shape
    raw = small.solve({col: 1 for _, col in sys_._diag if col is not None})
    assert raw.value == 2 and raw.pivots == small_pivots
    out, raw = sys_.maximize(ones(g))
    (folded, _), = sys_._folds.values()
    assert (len(folded.rows), folded.nv) == fold_shape
    assert out.value == 2 and raw.pivots == fold_pivots
    assert out.point == dict.fromkeys(g.nodes, Fraction(2, n))


def test_warm_restart_reuses_the_lift_system():
    g = web(7, 2)
    h = qstab(g)
    sys1 = n_lift_system(h, 1)
    assert n_lift_system(h, 1) is sys1        # the same object reuses its lift
    a = n_operator_max({v: 1 for v in g.nodes}, h, 1).value
    b = n_operator_max({v: Fraction(v) for v in g.nodes}, h, 1).value
    assert a == 2 and b > 0 and n_lift_system(h, 1) is sys1
    with limits(depth_cap=0), pytest.raises(ValueError, match="depth cap"):
        n_lift_system(h, 1)                     # a kept system meets the cap too
    other = qstab(web(7, 2))
    assert (other.index, other.rows) == (h.index, h.rows)
    assert n_lift_system(other, 1) is not sys1     # an equal h has its own
    n_lift_system(qstab(web(8, 2)), 1)
    assert n_lift_system(h, 1) is not sys1     # only the last system is kept


def test_a_lift_system_is_built_with_the_cache_empty(monkeypatch):
    # the cached system is dropped before the next one is built, so the
    # two are never held together
    liftproject._NLIFT_CACHE.clear()
    held = []
    build = liftproject.NLiftSystem
    monkeypatch.setattr(liftproject, "NLiftSystem",
                        lambda h, depth: held.append(len(liftproject._NLIFT_CACHE))
                        or build(h, depth))
    n_lift_system(qstab(web(7, 2)), 1)
    n_lift_system(qstab(web(8, 2)), 1)
    n_lift_system(qstab(web(7, 2)), 1, cache=False)
    assert held == [0, 0, 0]


def test_a_lift_system_keeps_its_lp_and_the_key_of_each_column():
    # the rows as built and the variable numbering go with __init__; each
    # LP column is named by its structural key, both ways
    sys_ = NLiftSystem(qstab(web(7, 2)), 2)
    assert set(vars(sys_)) == {"h", "depth", "_presolved", "_keys", "_col", "_diag",
                               "_folds"}
    assert sys_._col == {key: j for j, key in enumerate(sys_._keys)}
    assert len(sys_._keys) == 1 + max(j for row, _ in sys_._presolved for j in row)


def test_a_lift_max_builds_its_point_on_the_first_read(monkeypatch):
    built = []
    point = liftproject._lift_point
    monkeypatch.setattr(liftproject, "_lift_point",
                        lambda *a: built.append(a) or point(*a))
    g = web(7, 2)
    out, raw = NLiftSystem(qstab(g), 1).maximize({v: v for v in g.nodes})
    assert out.value == 11 and built == []
    assert out.point == out.point and len(built) == 1
    assert out.point == dict.fromkeys(g.nodes, Fraction(0)) | {4: 1, 7: 1}


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
            smax = max_over(vp, c)[0]
            nmax = n_operator_max(c, h, 1).value
            inter = min(
                max(piece_lp_max(h, c, {j: z}).value for z in (0, 1))
                for j in g.nodes)
            qmax = lp_max(h, c).value
            assert smax <= nmax <= inter <= qmax, (n, k, c)


def test_relaxation_equality_examples():
    # P_F(QSTAB) = STAB exactly when every facet of STAB is valid for P_F
    def invalid_facets(g, f):
        return [fac for fac in convex_hull_facets(stab(g))
                if not disjunctive_valid(fac, qstab(g), f)[0]]

    assert invalid_facets(web(5, 1), (1,)) == []
    g8 = web(8, 2)
    assert invalid_facets(g8, (1,))[0] == rank_constraint(g8)
    assert invalid_facets(web(6, 2), ()) == []


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


def test_pruned_piece_scan_equals_the_full_one():
    """min_piece_max skips the second piece of j once the first reaches
    the running minimum, and with the certified max over K it solves no
    piece of a j where that optimum is 0/1; the value is that of the full
    scan on every web `verify operators` visits."""
    rng = random.Random(5)
    for k in range(1, 4):
        for n in range(2 * (k + 1), 10):
            g = web(n, k)
            h = qstab(g)

            def build():
                return [[PieceSystem(h, {j: z}) for z in (0, 1)] for j in g.nodes]
            pruned, settled, full = build(), build(), build()
            for _ in range(40):
                c = {v: Fraction(rng.randint(0, 9)) for v in g.nodes}
                want = min(piece_max(systems, c).value for systems in full)
                assert min_piece_max(pruned, c) == want
                assert min_piece_max(settled, c, lp_max(h, c)) == want
    empty = PieceSystem(qstab(web(7, 1)), {1: 1, 2: 1})
    assert min_piece_max([[empty]], ones(web(7, 1))) is None


def _count_piece_lps(monkeypatch):
    """The dict whose "piece" entry counts PieceSystem.maximize calls."""
    calls = {"piece": 0}
    orig = PieceSystem.maximize

    def counted(self, *args, **kwargs):
        calls["piece"] += 1
        return orig(self, *args, **kwargs)
    monkeypatch.setattr(PieceSystem, "maximize", counted)
    return calls


def test_a_fractional_optimum_settles_no_j(monkeypatch):
    # over QSTAB(C_5) the all-ones max is 5/2 at x* = 1/2 everywhere
    g = web(5, 1)
    h = qstab(g)
    known = lp_max(h, ones(g))
    assert set(known.point.values()) == {Fraction(1, 2)}
    calls = _count_piece_lps(monkeypatch)
    assert min_piece_max([piece_systems(h, (j,)) for j in g.nodes], ones(g), known) == 2
    plain = calls["piece"]
    assert plain >= g.n      # every j is scanned
    assert min_piece_max([piece_systems(h, (j,)) for j in g.nodes], ones(g)) == 2
    assert calls["piece"] == 2 * plain


def test_an_integral_optimum_settles_every_j(monkeypatch):
    # the even hole C_6 is perfect: x* is a stable set and no piece is solved
    g = web(6, 1)
    h = qstab(g)
    known = lp_max(h, ones(g))
    assert known.value == 3 and set(known.point.values()) <= {0, 1}
    calls = _count_piece_lps(monkeypatch)
    assert min_piece_max([piece_systems(h, (j,)) for j in g.nodes], ones(g), known) == 3
    assert calls["piece"] == 0


def test_settling_on_two_coordinate_f_and_the_empty_case():
    # F = {j, j+1} on W:9:2: settled where x* is 0/1 on both, scanned elsewhere
    rng = random.Random(3)
    g = web(9, 2)
    h = qstab(g)
    fs = [(j, j % 9 + 1) for j in g.nodes]
    for _ in range(20):
        c = {v: Fraction(rng.randint(0, 9)) for v in g.nodes}
        known = lp_max(h, c)
        want = [piece_max(piece_systems(h, f), c).value for f in fs]
        assert [min_piece_max([piece_systems(h, f)], c, known) for f in fs] == want, c
        assert min_piece_max([piece_systems(h, f) for f in fs], c, known) == min(want)
    # on W:8:2 x* is 1/2 at node 1 and 0 at node 2: F = {1, 2} is not
    # settled, and its max 5 is below the max 11/2 over K
    g = web(8, 2)
    h = qstab(g)
    c = dict(zip(g.nodes, (2, 1, 2, 3, 0, 2, 2, 2)))
    known = lp_max(h, c)
    assert (known.value, known.point[1], known.point[2]) == (Fraction(11, 2), Fraction(1, 2), 0)
    assert min_piece_max([piece_systems(h, (1, 2))], c, known) == 5
    # h is the segment x1 = 1/2, x2 in [0, 1]: j = 2 is settled by x* = (1/2, 1),
    # j = 1 has no feasible piece, so the min is None as without x*
    h = HPolytope((1, 2), [nonneg_row(1), nonneg_row(2), LinearInequality({1: 1}, 1),
                           LinearInequality({2: 1}, 1),
                           LinearInequality({1: 2}, 1), LinearInequality({1: -2}, -1)])
    c = {1: 1, 2: 1}
    known = lp_max(h, c)
    assert known.point == {1: Fraction(1, 2), 2: 1}
    for pieces in ([piece_systems(h, (2,)), piece_systems(h, (1,))],
                   [piece_systems(h, (1,)), piece_systems(h, (2,))]):
        assert min_piece_max(pieces, c, known) is None
        assert min_piece_max(pieces, c) is None
    assert min_piece_max([piece_systems(h, (2,))], c, known) == Fraction(3, 2)


def test_sandwich_piece_lps_are_pinned(monkeypatch):
    # without settling by the max over K this run solves 4,829 piece LPs
    from webrank.rank import verify_operator_sandwich
    calls = _count_piece_lps(monkeypatch)
    assert verify_operator_sandwich(9, 40, 5).passed
    assert calls["piece"] == 240


def _count_lifts(monkeypatch):
    """The dict counting NLiftSystem builds ("build") and maxima ("lp")."""
    calls = {"build": 0, "lp": 0}
    init, maximize = NLiftSystem.__init__, NLiftSystem.maximize

    def built(self, *args, **kwargs):
        calls["build"] += 1
        init(self, *args, **kwargs)

    def solved(self, *args, **kwargs):
        calls["lp"] += 1
        return maximize(self, *args, **kwargs)
    monkeypatch.setattr(NLiftSystem, "__init__", built)
    monkeypatch.setattr(NLiftSystem, "maximize", solved)
    return calls


def test_sandwich_lift_lps_are_pinned(monkeypatch):
    # without settling by the max over K this run solves 480 lift LPs on 12 lifts
    from webrank.rank import verify_operator_sandwich
    lifts = _count_lifts(monkeypatch)
    pieces = _count_piece_lps(monkeypatch)
    assert verify_operator_sandwich(9, 40, 5).passed
    assert (lifts["lp"], lifts["build"], pieces["piece"]) == (32, 5, 240)


@pytest.mark.parametrize("depth, webs", [
    (1, [(n, k) for k in range(1, 5) for n in range(2 * (k + 1), 11)]),
    (2, [(5, 1), (6, 1)]),
])
def test_a_known_optimum_gives_the_n_max(monkeypatch, depth, webs):
    # N^depth(K) lies in K and holds every 0/1 point of K: a 0/1 optimum
    # over K is the N max; a fractional one still solves the lift LP
    rng = random.Random(depth)
    lifts = _count_lifts(monkeypatch)
    seen = set()
    for n, k in webs:
        g = web(n, k)
        h = qstab(g)
        for c in [ones(g)] + [{v: Fraction(rng.randint(0, 9)) for v in g.nodes}
                              for _ in range(5)]:
            known = lp_max(h, c)
            integral = set(known.point.values()) <= {0, 1}
            want = n_operator_max(c, h, depth).value
            before = lifts["lp"]
            assert n_operator_max(c, h, depth, known=known).value == want, (n, k, c)
            assert lifts["lp"] == before + (not integral)
            seen.add(integral)
    assert seen == {True, False}


def test_a_known_optimum_still_meets_the_limits(monkeypatch):
    g = web(6, 1)
    h = qstab(g)
    known = lp_max(h, ones(g))
    assert set(known.point.values()) <= {0, 1}
    lifts = _count_lifts(monkeypatch)
    assert n_operator_max(ones(g), h, 2, known=known).value == 3
    with limits(depth_cap=1), pytest.raises(ValueError, match="depth cap"):
        n_operator_max(ones(g), h, 2, known=known)
    with limits(deadline=time.monotonic() - 1), pytest.raises(SearchTimeout):
        n_operator_max(ones(g), h, 1, known=known)
    assert lifts == {"build": 0, "lp": 0}


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

def outside(h, objective, fixing):
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
