"""Exact simplex: optimality certificates, Farkas proofs, warm restarts.

The dual certificate IS the oracle here: at an optimum we re-check
primal feasibility, strong duality and complementary slackness with
exact rational arithmetic, which together prove optimality without
trusting the pivot path.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import webrank
from webrank.simplex import CertificateError, LinearProgram


def test_small_box_lp():
    lp = LinearProgram(2)
    lp.add_le([1, 1], Fraction(3, 2))
    lp.add_le([1, 0], 1)
    lp.add_le([0, 1], 1)
    res = lp.solve([1, 1])
    assert res.status == "optimal" and res.value == Fraction(3, 2)
    lp.check_optimal(res, [Fraction(1), Fraction(1)])


def test_fractional_input_rows_are_scaled_exactly():
    lp = LinearProgram(2)
    lp.add_le([Fraction(1, 3), Fraction(1, 7)], Fraction(2, 21))
    res = lp.solve([Fraction(5, 2), 0])
    assert res.status == "optimal" and res.value == Fraction(5, 2) * Fraction(2, 7)
    lp.check_optimal(res, [Fraction(5, 2), Fraction(0)])


def test_zero_objective_feasibility():
    lp = LinearProgram(3)
    lp.add_le([1, 1, 1], 10)
    res = lp.solve(None)
    assert res.status == "optimal" and res.value == 0


def test_unbounded_detected():
    lp = LinearProgram(2)
    lp.add_le([1, -1], 1)
    res = lp.solve([0, 1])
    assert res.status == "unbounded"


def test_infeasible_le_farkas():
    lp = LinearProgram(1)
    lp.add_le([-1], -2)      # x >= 2
    lp.add_le([1], 1)        # x <= 1
    res = lp.solve([1])
    assert res.status == "infeasible"
    lp.check_farkas(res)


def test_infeasible_equalities_farkas():
    lp = LinearProgram(2)
    lp.add_eq([1, 1], 1)
    lp.add_eq([1, 1], 2)
    res = lp.solve(None)
    assert res.status == "infeasible"
    lp.check_farkas(res)


def test_negative_rhs_equality_with_artificial_flip():
    lp = LinearProgram(2)
    lp.add_eq([-1, -1], -1)   # x1 + x2 = 1 written backwards
    res = lp.solve([1, 0])
    assert res.status == "optimal" and res.value == 1
    lp.check_optimal(res, [Fraction(1), Fraction(0)])


def test_equality_mix():
    lp = LinearProgram(3)
    lp.add_eq([1, 1, 1], 2)
    lp.add_le([1, 0, 0], 1)
    res = lp.solve([2, 1, 0])
    assert res.status == "optimal" and res.value == 3
    lp.check_optimal(res, [Fraction(2), Fraction(1), Fraction(0)])


def test_redundant_equality_row_is_dropped():
    lp = LinearProgram(2)
    lp.add_eq([1, 1], 1)
    lp.add_eq([2, 2], 2)     # same hyperplane
    res = lp.solve([1, 0])
    assert res.status == "optimal" and res.value == 1


def test_resolve_matches_fresh_solve():
    rng = random.Random(7)
    lp = LinearProgram(4)
    for _ in range(6):
        lp.add_le([rng.randint(0, 4) for _ in range(4)], rng.randint(1, 9))
    first = lp.solve([1, 1, 1, 1])
    assert first.status == "optimal"
    for trial in range(8):
        c = [rng.randint(-2, 6) for _ in range(4)]
        warm = lp.resolve(c)
        fresh = LinearProgram(4)
        fresh.rows = lp.rows
        cold = fresh.solve(c)
        assert warm.status == cold.status == "optimal"
        assert warm.value == cold.value, trial


def test_random_lps_have_exact_certificates():
    rng = random.Random(5)
    for trial in range(40):
        n = rng.randint(1, 5)
        m = rng.randint(1, 8)
        lp = LinearProgram(n)
        for _ in range(m):
            coeffs = [Fraction(rng.randint(-3, 5), rng.randint(1, 3))
                      for _ in range(n)]
            lp.add_le(coeffs, Fraction(rng.randint(-2, 8), rng.randint(1, 2)))
        lp.add_le([1] * n, 50)   # keep it bounded
        c = [Fraction(rng.randint(-4, 6)) for _ in range(n)]
        res = lp.solve(c)
        if res.status == "optimal":
            lp.check_optimal(res, c)
        elif res.status == "infeasible":
            lp.check_farkas(res)
        else:
            pytest.fail("bounded LP reported unbounded")


def test_bland_and_hybrid_agree():
    rng = random.Random(11)
    for trial in range(15):
        n = rng.randint(2, 4)
        lp = LinearProgram(n)
        for _ in range(rng.randint(2, 6)):
            lp.add_le([rng.randint(0, 3) for _ in range(n)], rng.randint(0, 6))
        c = [rng.randint(0, 5) for _ in range(n)]
        a = lp.solve(c, pivot_rule="hybrid")
        lp2 = LinearProgram(n)
        lp2.rows = lp.rows
        b = lp2.solve(c, pivot_rule="bland")
        assert a.status == b.status
        if a.status == "optimal":
            assert a.value == b.value


def test_beale_cycling_example_terminates():
    # classic cycling instance for naive Dantzig without anti-cycling
    lp = LinearProgram(4)
    lp.add_le([Fraction(1, 4), -8, -1, 9], 0)
    lp.add_le([Fraction(1, 2), -12, Fraction(-1, 2), 3], 0)
    lp.add_le([0, 0, 1, 0], 1)
    c = [Fraction(3, 4), -20, Fraction(1, 2), -6]
    for rule in ("hybrid", "bland"):
        fresh = LinearProgram(4)
        fresh.rows = lp.rows
        res = fresh.solve(c, pivot_rule=rule)
        # optimality is proven by the exact duality certificate, value by hand:
        # x = (1, 0, 1, 0) is feasible with objective 3/4 + 1/2 = 5/4
        assert res.status == "optimal" and res.value == Fraction(5, 4)
        fresh.check_optimal(res, c)


def test_duals_align_with_original_row_order():
    lp = LinearProgram(2)
    lp.add_le([1, 0], 1)
    lp.add_le([0, 1], 1)
    lp.add_le([1, 1], Fraction(3, 2))
    res = lp.solve([1, 2])
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
    lp.add_le([1, 0], 1)
    lp.add_le([0, 1], 1)
    res = lp.solve([1, 1])
    lp.check_optimal(res, [1, 1])
    if index is None:
        setattr(res, field, Fraction(value))
    else:
        getattr(res, field)[index] = Fraction(value)
    with pytest.raises(CertificateError, match=message):
        lp.check_optimal(res, [1, 1])


@pytest.mark.parametrize("farkas, message", [
    ([-1, 1], "negative multiplier on <= row"),
    ([0, 1], "nonnegative right-hand side"),
    ([1, 0], "negative column"),
])
def test_doctored_farkas_certificate_is_rejected(farkas, message):
    lp = LinearProgram(1)
    lp.add_le([-1], -2)      # x >= 2
    lp.add_le([1], 1)        # x <= 1
    res = lp.solve([1])
    lp.check_farkas(res)
    res.farkas = [Fraction(y) for y in farkas]
    with pytest.raises(CertificateError, match=message):
        lp.check_farkas(res)


DOCTORED_BOX_UNDER_O = """
import sys
from webrank.simplex import CertificateError, LinearProgram
lp = LinearProgram(2)
lp.add_le([1, 0], 1)
lp.add_le([0, 1], 1)
res = lp.solve([1, 1])
res.value = 7
res.duals[0] = -5
try:
    lp.check_optimal(res, [1, 1])
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
