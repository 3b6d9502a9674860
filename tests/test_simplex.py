"""Exact simplex: optimality certificates, Farkas proofs, warm restarts.

The dual certificate IS the oracle here: at an optimum we re-check
primal feasibility, strong duality and complementary slackness with
exact rational arithmetic, which together prove optimality without
trusting the pivot path.
"""

import gc
import hashlib
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest

import webrank
from webrank import liftproject, simplex
from webrank.graphs import web
from webrank.liftproject import PieceSystem, n_operator_max, piece_lp_max
from webrank.polyhedra import lp_max, qstab
from webrank.simplex import CertificateError, LinearProgram

from oracles import check_farkas, check_optimal_by_fractions


def test_small_box_lp():
    lp = LinearProgram(2)
    lp.add_le({0: 1, 1: 1}, Fraction(3, 2))
    lp.add_le({0: 1}, 1)
    lp.add_le({1: 1}, 1)
    res = lp.solve({0: 1, 1: 1})
    assert res.status == "optimal" and res.value == Fraction(3, 2)
    lp.check_optimal(res, {0: Fraction(1), 1: Fraction(1)})


def test_fractional_input_rows_are_scaled_exactly():
    lp = LinearProgram(2)
    lp.add_le({0: Fraction(1, 3), 1: Fraction(1, 7)}, Fraction(2, 21))
    res = lp.solve({0: Fraction(5, 2)})
    assert res.status == "optimal" and res.value == Fraction(5, 2) * Fraction(2, 7)
    lp.check_optimal(res, {0: Fraction(5, 2), 1: Fraction(0)})


def test_zero_objective_feasibility():
    lp = LinearProgram(3)
    lp.add_le({0: 1, 1: 1, 2: 1}, 10)
    res = lp.solve(None)
    assert res.status == "optimal" and res.value == 0


def test_unbounded_detected():
    lp = LinearProgram(2)
    lp.add_le({0: 1, 1: -1}, 1)
    res = lp.solve({1: 1})
    assert res.status == "unbounded"


def test_infeasible_le_farkas():
    lp = LinearProgram(1)
    lp.add_le({0: -1}, -2)      # x >= 2
    lp.add_le({0: 1}, 1)        # x <= 1
    res = lp.solve({0: 1})
    assert res.status == "infeasible"
    check_farkas(lp, res)


def test_infeasible_equalities_farkas():
    lp = LinearProgram(2)
    lp.add_eq({0: 1, 1: 1}, 1)
    lp.add_eq({0: 1, 1: 1}, 2)
    res = lp.solve(None)
    assert res.status == "infeasible"
    check_farkas(lp, res)


def test_negative_rhs_equality_with_artificial_flip():
    lp = LinearProgram(2)
    lp.add_eq({0: -1, 1: -1}, -1)   # x1 + x2 = 1 written backwards
    res = lp.solve({0: 1})
    assert res.status == "optimal" and res.value == 1
    lp.check_optimal(res, {0: Fraction(1), 1: Fraction(0)})


def test_equality_mix():
    lp = LinearProgram(3)
    lp.add_eq({0: 1, 1: 1, 2: 1}, 2)
    lp.add_le({0: 1}, 1)
    res = lp.solve({0: 2, 1: 1})
    assert res.status == "optimal" and res.value == 3
    lp.check_optimal(res, {0: Fraction(2), 1: Fraction(1), 2: Fraction(0)})


def test_a_redundant_equality_row_stays_and_reads_dual_0():
    lp = LinearProgram(2)
    lp.add_eq({0: 1, 1: 1}, 1)
    lp.add_eq({0: 2, 1: 2}, 2)     # same hyperplane
    res = lp.solve({0: 1})
    assert res.status == "optimal" and res.value == 1
    tab = lp._tab
    assert len(tab.rows) == len(lp.rows) and tab.basis[1] == tab.art_col[1]
    assert res.duals == [1, 0]
    lp.check_optimal(res, {0: 1})


def test_an_artificial_basic_in_another_rows_place_leaves_that_rows_dual_free():
    # phase 1 leaves the artificial of row 3 basic in tableau row 1: the
    # dual of row 3 reads 0, and that of row 1 its reduced cost, not 0
    lp = LinearProgram(2)
    lp.add_eq({0: 1}, 3)
    lp.add_eq({1: -2}, -2)
    lp.add_eq({1: 2}, 2)
    lp.add_eq({0: 1, 1: -2}, 1)
    res = lp.solve({1: -1})
    assert lp._tab.basis[1] == lp._tab.art_col[3]
    assert res.x == [3, 1] and res.duals == [0, Fraction(1, 2), 0, 0]
    lp.check_optimal(res, {1: -1})


def test_resolve_matches_fresh_solve():
    rng = random.Random(7)
    lp = LinearProgram(4)
    for _ in range(6):
        lp.add_le(dict(enumerate(rng.randint(0, 4) for _ in range(4))), rng.randint(1, 9))
    first = lp.solve({0: 1, 1: 1, 2: 1, 3: 1})
    assert first.status == "optimal"
    for trial in range(8):
        c = dict(enumerate(rng.randint(-2, 6) for _ in range(4)))
        warm = lp.resolve(c)
        fresh = LinearProgram(4)
        fresh.rows = lp.rows
        cold = fresh.solve(c)
        assert warm.status == cold.status == "optimal"
        assert warm.value == cold.value, trial


def test_maximize_solves_once_then_resolves(monkeypatch):
    calls = []
    for name in ("solve", "resolve"):
        def counted(self, *args, _name=name, _orig=getattr(LinearProgram, name), **kw):
            calls.append(_name)
            return _orig(self, *args, **kw)
        monkeypatch.setattr(LinearProgram, name, counted)
    lp = LinearProgram(2)
    lp.add_le({0: 1, 1: 1}, 4)
    lp.add_le({0: 1}, 3)
    assert [lp.maximize(c).value for c in ({0: 1}, {1: 1}, {0: 1, 1: 2})] == [3, 4, 8]
    assert calls == ["solve", "resolve", "resolve"]
    # an infeasible first call leaves no basis to start from
    calls.clear()
    bad = LinearProgram(1)
    bad.add_le({0: 1}, 1)
    bad.add_eq({0: 1}, 2)
    assert [bad.maximize({0: 1}).status for _ in range(2)] == ["infeasible"] * 2
    assert calls == ["solve", "solve"]


def test_duals_read_after_a_resolve_are_those_of_their_own_solve():
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(2, 5)
        rows = [(dict(enumerate(rng.randint(0, 4) for _ in range(n))), rng.randint(1, 9))
                for _ in range(rng.randint(2, 7))] + [(dict.fromkeys(range(n), 1), 10)]
        objectives = [dict(enumerate(rng.randint(-2, 6) for _ in range(n))) for _ in range(3)]

        def build():
            lp = LinearProgram(n)
            for coeffs, rhs in rows:
                lp.add_le(coeffs, rhs)
            return lp
        lp = build()
        results = [lp.maximize(c) for c in objectives]     # one solve, two resolves
        assert results[0].duals == build().solve(objectives[0]).duals
        assert results[0].x == build().solve(objectives[0]).x
        for res, c in zip(results, objectives):
            lp.check_optimal(res, c)
        # each point and dual read after the later re-solves is the one a
        # replay reads right after the same solve
        replay = build()
        for res, c in zip(results, objectives):
            now = replay.maximize(c)
            assert (now.x, now.duals) == (res.x, res.duals)


def test_a_dropped_lp_is_freed_without_the_cycle_collector(monkeypatch):
    monkeypatch.setattr(liftproject, "_NLIFT_CACHE", {})
    g = web(7, 2)
    h = qstab(g)
    c = {v: v % 3 + 1 for v in g.nodes}
    cold = [lp_max(qstab(g), c), n_operator_max(c, qstab(g), 1),
            piece_lp_max(h, c, {1: 1})]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        lp = LinearProgram(2)
        lp.add_le({0: 1, 1: 1}, 3)
        lp.add_eq({0: 1}, 1)
        res = lp.solve({0: 1, 1: 2})
        lp.resolve({0: 2, 1: 1})
        ref = weakref.ref(lp)
        del lp
        assert ref() is None
        assert res.value == 5 and res.duals == [2, -1] and res.x == [1, 2]

        # an outcome alone keeps no tableau alive, once its polytope or
        # system is gone
        k = qstab(g)
        outs, tabs = [lp_max(k, c)], [weakref.ref(k._lp._tab)]
        del k
        outs.append(n_operator_max(c, h, 1))
        sys_ = liftproject._NLIFT_CACHE[(id(h), 1)]
        tabs += [weakref.ref(lp._tab) for lp, _ in sys_._folds.values()]
        liftproject._NLIFT_CACHE.clear()
        sys_ = PieceSystem(h, {1: 1})
        outs.append(sys_.maximize(c))
        tabs.append(weakref.ref(sys_._lp._tab))
        del sys_
        assert [t() for t in tabs] == [None] * 3
        assert [(o.value, o.point) for o in outs] == [(o.value, o.point) for o in cold]
    finally:
        if was_enabled:
            gc.enable()


def test_random_lps_have_exact_certificates():
    rng = random.Random(5)
    for trial in range(40):
        n = rng.randint(1, 5)
        m = rng.randint(1, 8)
        lp = LinearProgram(n)
        for _ in range(m):
            coeffs = {j: Fraction(rng.randint(-3, 5), rng.randint(1, 3)) for j in range(n)}
            lp.add_le(coeffs, Fraction(rng.randint(-2, 8), rng.randint(1, 2)))
        lp.add_le(dict.fromkeys(range(n), 1), 50)   # keep it bounded
        c = {j: Fraction(rng.randint(-4, 6)) for j in range(n)}
        res = lp.solve(c)
        if res.status == "optimal":
            lp.check_optimal(res, c)
        elif res.status == "infeasible":
            check_farkas(lp, res)
        else:
            pytest.fail("bounded LP reported unbounded")


def random_lp_cases(seed, count):
    """Seeded small LPs: <= and = rows, negative right-hand sides, scaled
    duplicate (redundant) rows, and three objectives each."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        rows = []
        for _ in range(rng.randint(1, 7)):
            coeffs = [Fraction(rng.randint(-3, 4), rng.randint(1, 3))
                      if rng.random() < 0.6 else Fraction(0) for _ in range(n)]
            kind = "=" if rng.random() < 0.3 else "<="
            rhs = Fraction(rng.randint(-3, 8), rng.randint(1, 2))
            rows.append((coeffs, rhs, kind))
            if rng.random() < 0.2:
                k = rng.randint(1, 3)
                rows.append(([k * c for c in coeffs], k * rhs, kind))
        rows.append(([Fraction(1)] * n, Fraction(20), "<="))
        objectives = [[Fraction(rng.randint(-4, 6)) for _ in range(n)] for _ in range(3)]
        rng.randrange(2)    # a draw kept so that the seeded cases stay the same
        yield (n, [(dict(enumerate(coeffs)), rhs, kind) for coeffs, rhs, kind in rows],
               [dict(enumerate(c)) for c in objectives])


def run_lp_case(n, rows, objectives, sparse):
    """A solve, a resolve and a maximize, each certificate checked; rows and
    objectives go in with a zero at every column (dense) or only at the odd
    columns (sparse)."""
    def form(coeffs):
        return {j: c for j, c in coeffs.items() if c or j % 2} if sparse else coeffs
    lp = LinearProgram(n)
    for coeffs, rhs, kind in rows:
        (lp.add_le if kind == "<=" else lp.add_eq)(form(coeffs), rhs)
    out = [lp.solve(form(objectives[0]))]
    if out[0].status != "infeasible":
        out.append(lp.resolve(form(objectives[1])))
        out.append(lp.maximize(form(objectives[2])))
    for res, c in zip(out, objectives):
        if res.status == "optimal":
            lp.check_optimal(res, form(c))
        else:
            check_farkas(lp, res)
    return [(r.status, r.value, r.x, r.duals, r.farkas, r.pivots) for r in out]


def test_dict_and_dense_rows_give_identical_pinned_results():
    records = []
    for case in random_lp_cases(2024, 150):
        dense = run_lp_case(*case, sparse=False)
        assert run_lp_case(*case, sparse=True) == dense
        records.append(dense)
    statuses = [r[0] for rec in records for r in rec]
    assert (statuses.count("optimal"), statuses.count("infeasible")) == (171, 93)
    # status, value, x, duals, Farkas multipliers and pivot count of every
    # result, as the dense-row simplex computed them
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == "23516c2235e570c8f2689edd0361ae424c4217913f9c337aa471d3cae50ca716"


def _verdict(check, *args):
    try:
        check(*args)
    except CertificateError as exc:
        return str(exc)
    return "ok"


def _doctorings(res, rng):
    """res, then copies of it with one sign flipped, one entry of x, the
    value or the duals moved, or one nonzero dual dropped to 0."""
    def copy(**change):
        out = SimpleNamespace(status=res.status, value=res.value, x=list(res.x),
                              duals=list(res.duals))
        for name, (index, value) in change.items():
            if index is None:
                setattr(out, name, value)
            else:
                getattr(out, name)[index] = value
        return out

    step = Fraction(rng.randint(1, 3), rng.randint(1, 4)) * rng.choice((1, -1))
    yield copy()
    yield copy(value=(None, res.value + step))
    for name in ("x", "duals"):
        values = getattr(res, name)
        j = rng.randrange(len(values))
        yield copy(**{name: (j, values[j] + step)})
        nonzero = [i for i, v in enumerate(values) if v]
        if nonzero:
            i = rng.choice(nonzero)
            yield copy(**{name: (i, -values[i])})
            if name == "duals":
                yield copy(duals=(i, Fraction(0)))


def test_integer_optimality_check_matches_the_fraction_check():
    rng = random.Random(11)
    seen = []
    for n, rows, objectives in random_lp_cases(2024, 150):
        lp = LinearProgram(n)
        for coeffs, rhs, kind in rows:
            (lp.add_le if kind == "<=" else lp.add_eq)(coeffs, rhs)
        for c in objectives:
            res = lp.maximize(c)
            if res.status != "optimal":
                continue
            for doctored in _doctorings(res, rng):
                want = _verdict(check_optimal_by_fractions, lp, doctored, c)
                assert _verdict(lp.check_optimal, doctored, c) == want, (rows, c)
                seen.append(want)
    assert seen.count("ok") >= 171
    assert {"negative primal value", "primal infeasible", "negative dual on <= row",
            "complementary slackness (row)", "equality violated", "value mismatch",
            "dual infeasible", "complementary slackness (column)"} <= set(seen)


def test_a_short_dual_list_fails_both_optimality_checks():
    """Rows and duals are paired one to one: a dual list cut short must
    not skip the rows past its end.  x = (1, 1) violates x1 + x2 <= 1."""
    lp = LinearProgram(2)
    lp.add_le({0: 1}, 1)
    lp.add_le({1: 1}, 1)
    lp.add_le({0: 1, 1: 1}, 1)
    res = lp.maximize({0: 1})
    doctored = SimpleNamespace(status="optimal", value=Fraction(1),
                               x=[Fraction(1), Fraction(1)], duals=res.duals[:2])
    for check in (lp.check_optimal, partial(check_optimal_by_fractions, lp)):
        assert _verdict(check, doctored, {0: 1}) == "not one dual per row"


def test_a_pivot_clears_negative_entries_of_the_entering_column():
    # x1 enters first and has -1 in the second row; unless the pivot clears
    # it there, the second pivot reads x2 = 1 instead of 1 + x1 = 3
    for sparse in (False, True):
        lp = LinearProgram(2)
        lp.add_le({0: 1} if sparse else {0: 1, 1: 0}, 2)
        lp.add_le({0: -1, 1: 1}, 1)
        res = lp.solve({0: 1, 1: 1})
        assert (res.status, res.value, res.x, res.pivots) == ("optimal", 5, [2, 3], 2)
        assert res.duals == [2, 1]
        lp.check_optimal(res, {0: 1, 1: 1})


def test_driving_out_an_artificial_clears_its_column_in_every_row():
    # phase 1 ends at once with both artificials basic at zero; driving the
    # first out pivots on x1, which has -1 in the second row, and only when
    # that row is cleared too does it become all-artificial and get dropped
    lp = LinearProgram(2)
    lp.add_eq({0: 1, 1: -1}, 0)
    lp.add_eq({0: -1, 1: 1}, 0)
    lp.add_le({0: 1, 1: 1}, 2)
    res = lp.solve({0: 1, 1: 2})
    assert (res.status, res.value, res.x, res.pivots) == ("optimal", 3, [1, 1], 2)
    assert res.duals == [Fraction(-1, 2), 0, Fraction(3, 2)]
    lp.check_optimal(res, {0: 1, 1: 2})


@pytest.mark.parametrize("coeffs", [{-1: 1}, {3: 1}, {0: 1, 5: 2}, {1.5: 1},
                                    {0: 1, 1: 1, 2: 1, 3: 1}, {0: 1, 3: 0}])
def test_out_of_range_columns_are_rejected(coeffs):
    lp = LinearProgram(3)
    with pytest.raises(ValueError):
        lp.add_le(coeffs, 1)
    with pytest.raises(ValueError):
        lp.add_eq(coeffs, 1)
    assert lp.rows == []
    with pytest.raises(ValueError):
        lp.solve(coeffs)
    lp.add_le({0: 1, 1: 1, 2: 1}, 1)
    res = lp.solve({0: 1})
    for call in (lp.resolve, lp.maximize, lambda c: lp.check_optimal(res, c)):
        with pytest.raises(ValueError):
            call(coeffs)


def test_beale_cycling_example_terminates(monkeypatch):
    # classic cycling instance for naive Dantzig without anti-cycling; its
    # first pivots are degenerate, so a streak of 0 switches to Bland's
    # rule after the first of them
    lp = LinearProgram(4)
    lp.add_le({0: Fraction(1, 4), 1: -8, 2: -1, 3: 9}, 0)
    lp.add_le({0: Fraction(1, 2), 1: -12, 2: Fraction(-1, 2), 3: 3}, 0)
    lp.add_le({2: 1}, 1)
    c = {0: Fraction(3, 4), 1: -20, 2: Fraction(1, 2), 3: -6}
    for streak in (simplex.DEGENERACY_STREAK, 0):
        monkeypatch.setattr(simplex, "DEGENERACY_STREAK", streak)
        res = lp.solve(c)
        # optimality is proven by the exact duality certificate, value by
        # hand: x = (1, 0, 1, 0) is feasible with objective 3/4 + 1/2 = 5/4
        assert res.status == "optimal" and res.value == Fraction(5, 4)
        lp.check_optimal(res, c)


def test_duals_align_with_original_row_order():
    lp = LinearProgram(2)
    lp.add_le({0: 1}, 1)
    lp.add_le({1: 1}, 1)
    lp.add_le({0: 1, 1: 1}, Fraction(3, 2))
    res = lp.solve({0: 1, 1: 2})
    assert res.status == "optimal" and res.value == Fraction(5, 2)
    # binding rows: x2 <= 1 and x1 + x2 <= 3/2
    assert res.duals[0] == 0 and res.duals[1] == 1 and res.duals[2] == 1


@pytest.mark.parametrize("field, index, value, message", [
    ("value", None, 7, "value mismatch"),
    ("duals", 0, -5, "negative dual on <= row"),
    ("duals", 0, 0, "dual infeasible"),
    ("duals", 0, 2, r"complementary slackness \(column\)"),
    ("x", 0, 2, "primal infeasible"),
])
def test_doctored_optimum_is_rejected(field, index, value, message):
    lp = LinearProgram(2)
    lp.add_le({0: 1}, 1)
    lp.add_le({1: 1}, 1)
    res = lp.solve({0: 1, 1: 1})
    lp.check_optimal(res, {0: 1, 1: 1})
    if index is None:
        setattr(res, field, Fraction(value))
    else:
        getattr(res, field)[index] = Fraction(value)
    with pytest.raises(CertificateError, match=message):
        lp.check_optimal(res, {0: 1, 1: 1})


@pytest.mark.parametrize("farkas, message", [
    ([-1, 1], "negative multiplier on <= row"),
    ([0, 1], "nonnegative right-hand side"),
    ([1, 0], "negative column"),
])
def test_doctored_farkas_certificate_is_rejected(farkas, message):
    lp = LinearProgram(1)
    lp.add_le({0: -1}, -2)      # x >= 2
    lp.add_le({0: 1}, 1)        # x <= 1
    res = lp.solve({0: 1})
    check_farkas(lp, res)
    res.farkas = [Fraction(y) for y in farkas]
    with pytest.raises(CertificateError, match=message):
        check_farkas(lp, res)


DOCTORED_BOX_UNDER_O = """
import sys
from webrank.simplex import CertificateError, LinearProgram
lp = LinearProgram(2)
lp.add_le({0: 1}, 1)
lp.add_le({1: 1}, 1)
res = lp.solve({0: 1, 1: 1})
res.value = 7
res.duals[0] = -5
try:
    lp.check_optimal(res, {0: 1, 1: 1})
except CertificateError:
    sys.exit(3)
sys.exit(0)
"""


def test_certificate_checks_survive_python_O():
    """`python -O` strips `assert`; the certificate checks must still raise."""
    env = dict(os.environ)
    pkg_root = str(Path(webrank.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-O", "-c", DOCTORED_BOX_UNDER_O],
                         capture_output=True, text=True, env=env, timeout=60)
    # exit 3: CertificateError was raised; 0 would mean the doctored optimum passed
    assert out.returncode == 3, out.stdout + out.stderr
