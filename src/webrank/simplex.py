"""Exact rational simplex over arbitrary-precision integers.

Solves  max c.x  s.t.  A x <= b,  E x = f,  x >= 0  with no floating
point anywhere in the decision path.  The tableau is sparse and
fraction-free: each row is a dict from column to its nonzero integers,
with the right-hand side under key ``ncols``, over one positive integer
divisor, gcd-normalized after every pivot, so all sign tests and ratio
comparisons are integer cross-multiplications.  A pivot touches only the
rows with a nonzero in the entering column, and in each of them only the
nonzeros of that row and of the pivot row: ``row*(p/g) - prow*(e/g)``
with ``g = gcd(p, e)``, in the gcd-reduced style of Bareiss (1968).  The
reduced-cost row is built in integers over the lcm of the divisors of
the rows that contribute to it.  ``LinearProgram.rows`` stays the dense
``(Fraction coeffs, rhs, kind)`` list; each solve reads its nonzeros once.

Pivot rules are deterministic.  The default "hybrid" rule is Dantzig
(most negative reduced cost, lowest index on ties) with an automatic
switch to Bland's rule after a run of degenerate pivots, which keeps it
cycle-free; "bland" selects pure Bland's rule and is used as the
independent re-solve path by certificate rechecking.  Every tie is
broken by column or basis index, never by dict order.

Optimal solves return exact primal and dual certificates (strong
duality and complementary slackness hold with equality); infeasible
solves return an exact Farkas certificate.  Certificate checks raise
CertificateError and tableau invariants raise RuntimeError, so both
hold under ``python -O``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


DEGENERACY_STREAK = 40
MAX_PIVOTS = 500_000


class CertificateError(RuntimeError):
    """An optimality or infeasibility certificate failed its exact check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CertificateError(message)


@dataclass
class LPResult:
    status: str                      # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    x: list | None = None            # structural variables, exact
    duals: list | None = None        # one multiplier per added row
    farkas: list | None = None       # infeasibility certificate, per row
    pivots: int = 0


class LinearProgram:
    """A collection of <= and = rows over nonnegative variables."""

    def __init__(self, num_vars: int):
        if num_vars < 1:
            raise ValueError("need at least one variable")
        self.nv = num_vars
        self.rows = []               # (dense Fraction coeffs, Fraction rhs, kind)
        self._tab = None

    def _dense(self, coeffs):
        if isinstance(coeffs, dict):
            row = [Fraction(0)] * self.nv
            for j, v in coeffs.items():
                row[j] = _frac(v)
            return row
        row = [_frac(v) for v in coeffs]
        if len(row) != self.nv:
            raise ValueError(f"row length {len(row)} != {self.nv}")
        return row

    def add_le(self, coeffs, rhs):
        self.rows.append((self._dense(coeffs), _frac(rhs), "<="))

    def add_eq(self, coeffs, rhs):
        self.rows.append((self._dense(coeffs), _frac(rhs), "="))

    def solve(self, objective=None, pivot_rule: str = "hybrid") -> LPResult:
        """Maximize objective (default 0) over the current rows."""
        obj = self._dense(objective) if objective is not None else [Fraction(0)] * self.nv
        self._tab = _Tableau(self, pivot_rule)
        return self._tab.solve(obj)

    def resolve(self, objective) -> LPResult:
        """Re-optimize with a new objective from the last optimal basis.

        The feasible basis of the previous solve is reused, so only the
        reduced-cost row is rebuilt; typically a handful of pivots.
        """
        if self._tab is None or not self._tab.feasible_basis:
            raise RuntimeError("resolve() needs a previous feasible solve")
        return self._tab.reoptimize(self._dense(objective))

    def check_optimal(self, res: LPResult, objective) -> None:
        """Exact certificate check: feasibility, duality, slackness.

        Raises CertificateError naming the first condition that fails.
        """
        obj = self._dense(objective)
        _require(res.status == "optimal", "not an optimal result")
        x = res.x
        _require(all(v >= 0 for v in x), "negative primal value")
        support = {j: v for j, v in enumerate(x) if v}
        red = [-c for c in obj]      # sum_i y_i a_ij - c_j, one pass per row
        for (coeffs, rhs, kind), y in zip(self.rows, res.duals):
            lhs = Fraction(0)
            for j, c in _nonzeros(coeffs):
                if j in support:
                    lhs += c * support[j]
                if y:
                    red[j] += y * c
            if kind == "<=":
                _require(lhs <= rhs, "primal infeasible")
                _require(y >= 0, "negative dual on <= row")
                _require(y == 0 or lhs == rhs, "complementary slackness (row)")
            else:
                _require(lhs == rhs, "equality violated")
        _require(sum(obj[j] * v for j, v in support.items()) == res.value,
                 "value mismatch")
        for j, r in enumerate(red):
            _require(r >= 0, "dual infeasible")
            _require(j not in support or r == 0, "complementary slackness (column)")
        _require(sum(y * r[1] for y, r in zip(res.duals, self.rows)) == res.value,
                 "strong duality")

    def check_farkas(self, res: LPResult) -> None:
        """Exact check of an infeasibility certificate.

        Raises CertificateError naming the first condition that fails.
        """
        _require(res.status == "infeasible" and res.farkas is not None,
                 "not an infeasibility certificate")
        y = res.farkas
        col = [Fraction(0)] * self.nv
        for (coeffs, rhs, kind), yi in zip(self.rows, y):
            if kind == "<=":
                _require(yi >= 0, "negative multiplier on <= row")
            if yi:
                for j, c in _nonzeros(coeffs):
                    col[j] += yi * c
        _require(all(v >= 0 for v in col), "negative column in the Farkas combination")
        _require(sum(yi * r[1] for yi, r in zip(y, self.rows)) < 0,
                 "nonnegative right-hand side in the Farkas combination")


def _frac(v):
    """v as a Fraction; a Fraction is kept as it is (it is immutable)."""
    return v if isinstance(v, Fraction) else Fraction(v)


def _nonzeros(coeffs):
    """(column, value) pairs of the nonzero entries of a dense row."""
    return [(j, c) for j, c in enumerate(coeffs) if c]


def _intify(items):
    """Clear denominators of (key, Fraction) pairs.

    Returns (dict key -> integer, positive scale L), L the lcm of the
    denominators.
    """
    L = lcm(*(f.denominator for _, f in items))
    return {k: f.numerator * (L // f.denominator) for k, f in items}, L


def _normalize(row: dict, div: int) -> int:
    """Divide a row and its divisor by their gcd in place, sign making the
    divisor positive; returns the new divisor.  The result is the unique
    such form of the rational row, whatever the path that led to it."""
    g = gcd(div, *row.values())
    if div < 0:
        g = -g
    if g != 1:
        for j in row:
            row[j] //= g
        div //= g
    return div


def _eliminate(row: dict, div: int, prow: dict, p: int, s) -> int:
    """Clear column s of row (over div) with the pivot row prow, whose
    entry there is p; updates row in place and returns its new divisor."""
    e = row[s]
    g = gcd(p, e)
    a, b = p // g, e // g
    if a != 1:
        for j in row:
            row[j] *= a
    for j, v in prow.items():
        w = row.get(j, 0) - b * v
        if w:
            row[j] = w
        else:
            del row[j]
    return _normalize(row, div * a)


class _Tableau:
    """Sparse fraction-free tableau: per row a dict of nonzero integers,
    right-hand side under key ncols, over one positive divisor."""

    def __init__(self, lp: LinearProgram, pivot_rule: str):
        self.lp = lp
        self.rule = pivot_rule
        self.nv = lp.nv
        self.pivots = 0
        self.feasible_basis = False

        # columns: structurals, then one slack per <= row, then one
        # artificial per = row or row stored negated, each in row order
        n_slack = sum(kind == "<=" for _, _, kind in lp.rows)
        n_art = sum(kind == "=" or rhs < 0 for _, rhs, kind in lp.rows)
        self.ncols = ncols = self.nv + n_slack + n_art
        slack, art = self.nv, self.nv + n_slack

        self.row_scale = []          # L_t per original row
        self.row_flip = []           # True when the stored row was negated
        self.slack_col = {}          # original row index -> slack column
        self.art_col = {}            # original row index -> artificial column
        self.banned = set()
        self.rows = []
        self.divs = []
        self.basis = []
        self.orig = []               # original row index per tableau row
        for t, (coeffs, rhs, kind) in enumerate(lp.rows):
            items = _nonzeros(coeffs)
            if rhs:
                items.append((ncols, rhs))
            row, L = _intify(items)
            flip = rhs < 0
            if flip:
                row = {j: -v for j, v in row.items()}
            self.row_scale.append(L)
            self.row_flip.append(flip)
            if kind == "<=":
                self.slack_col[t] = slack
                row[slack] = -1 if flip else 1
                slack += 1
            if kind == "=" or flip:
                self.art_col[t] = art
                row[art] = 1
                self.basis.append(art)
                art += 1
            else:
                self.basis.append(self.slack_col[t])
            self.rows.append(row)
            self.divs.append(1)
            self.orig.append(t)
        self.obj = {}
        self.obj_div = 1
        self.obj_scale = 1

    # -- pivoting ----------------------------------------------------------

    def _pivot(self, r, s, allow_any_sign=False):
        rows, divs = self.rows, self.divs
        prow = rows[r]
        p = prow.get(s, 0)
        if p == 0 or (p < 0 and not allow_any_sign):
            raise RuntimeError(f"pivot entry {p} in row {r}, column {s} has the wrong sign")
        for i, row in enumerate(rows):
            if i != r and s in row:
                divs[i] = _eliminate(row, divs[i], prow, p, s)
        if s in self.obj:
            self.obj_div = _eliminate(self.obj, self.obj_div, prow, p, s)
        divs[r] = _normalize(prow, p)
        self.basis[r] = s
        self.pivots += 1

    def _build_obj(self, cints: dict, scale: int):
        """Reduced-cost row r_j = c_B B^-1 A_j - c_j from the current basis,
        summed in integers over the lcm of the contributing divisors."""
        self.obj_scale = scale
        contrib = [(cints[b], row, d)
                   for b, row, d in zip(self.basis, self.rows, self.divs) if b in cints]
        L = lcm(*(d for _, _, d in contrib))
        acc = {}
        for c, row, d in contrib:
            m = c * (L // d)
            for j, v in row.items():
                acc[j] = acc.get(j, 0) + m * v
        for j, c in cints.items():
            acc[j] = acc.get(j, 0) - c * L
        self.obj = {j: v for j, v in acc.items() if v}
        self.obj_div = _normalize(self.obj, L)

    def _entering(self, bland: bool):
        """Bland: lowest column with a negative reduced cost.  Dantzig: the
        most negative reduced cost, lowest column on ties."""
        rhs = self.ncols
        neg = [(v, j) for j, v in self.obj.items()
               if v < 0 and j != rhs and j not in self.banned]
        if not neg:
            return None
        return min(j for _, j in neg) if bland else min(neg)[1]

    def _leaving(self, s):
        """Minimum ratio over rows with a positive entry in column s; ties
        go to the row whose basic column is lowest."""
        rhs = self.ncols
        best = None                   # (tableau row, rhs, pivot entry)
        for i, row in enumerate(self.rows):
            a = row.get(s, 0)
            if a > 0:
                b = row.get(rhs, 0)
                if best is None:
                    best = (i, b, a)
                    continue
                lhs = b * best[2]
                other = best[1] * a
                if lhs < other or (lhs == other and self.basis[i] < self.basis[best[0]]):
                    best = (i, b, a)
        return best

    def _run(self):
        bland = self.rule == "bland"
        streak = 0
        while True:
            if self.pivots > MAX_PIVOTS:
                raise RuntimeError("pivot limit exceeded; simplex stalled")
            s = self._entering(bland)
            if s is None:
                return "optimal"
            hit = self._leaving(s)
            if hit is None:
                return "unbounded"
            r, rhs, _ = hit
            self._pivot(r, s)
            if self.rule == "hybrid":
                if rhs == 0:
                    streak += 1
                    if streak > DEGENERACY_STREAK:
                        bland = True
                else:
                    streak = 0
                    bland = False

    # -- phases ------------------------------------------------------------

    def solve(self, objective) -> LPResult:
        if self.art_col:
            status = self._phase1()
            if status is not None:
                return status
        self.banned = set(self.art_col.values())
        return self.reoptimize(objective)

    def _phase1(self):
        cints = {col: -1 for col in self.art_col.values()}
        self._build_obj(cints, 1)
        if self._run() != "optimal":
            raise RuntimeError("phase 1 cannot be unbounded")
        value = self.obj.get(self.ncols, 0)
        if value:
            # maximum of -sum(artificials) is negative: infeasible
            if value > 0:
                raise RuntimeError("phase 1 maximum of -sum(artificials) is positive")
            farkas = self._extract_duals(obj_scale=1, art_cost=-1)
            return LPResult(status="infeasible", farkas=farkas, pivots=self.pivots)
        self._drive_out_artificials()
        return None

    def _drive_out_artificials(self):
        arts = set(self.art_col.values())
        rhs = self.ncols
        drop = []
        for i in range(len(self.rows)):
            if self.basis[i] not in arts:
                continue
            row = self.rows[i]
            if row.get(rhs, 0) != 0:
                raise RuntimeError("basic artificial has a nonzero right-hand side after phase 1")
            s = min((j for j in row if j != rhs and j not in arts), default=None)
            if s is None:
                drop.append(i)      # redundant equality
            else:
                self._pivot(i, s, allow_any_sign=True)
        for i in reversed(drop):
            del self.rows[i], self.divs[i], self.basis[i], self.orig[i]

    def reoptimize(self, objective) -> LPResult:
        cints, scale = _intify(_nonzeros(objective))
        self._build_obj(cints, scale)
        status = self._run()
        self.feasible_basis = True
        if status == "unbounded":
            return LPResult(status="unbounded", pivots=self.pivots)
        rhs = self.ncols
        x = [Fraction(0)] * self.nv
        for i, b in enumerate(self.basis):
            if b < self.nv:
                x[b] = Fraction(self.rows[i].get(rhs, 0), self.divs[i])
        value = Fraction(self.obj.get(rhs, 0), self.obj_div) / scale
        duals = self._extract_duals(obj_scale=scale)
        return LPResult(status="optimal", value=value, x=x, duals=duals,
                        pivots=self.pivots)

    def _extract_duals(self, obj_scale, art_cost=0):
        """Duals w.r.t. the ORIGINAL rows, from marker-column reduced costs.

        For a <= row the slack column works whether or not the stored row
        was negated; for an = row the artificial column does, with the
        sign flipped back.  art_cost is the objective coefficient carried
        by artificial columns (-1 during phase 1), which shifts their
        reduced cost r_art = y_std - art_cost.
        """
        present = set(self.orig)
        obj, den = self.obj, self.obj_div * obj_scale
        duals = []
        for t, (_, _, kind) in enumerate(self.lp.rows):
            if t not in present:
                duals.append(Fraction(0))
            elif kind == "<=":
                r = obj.get(self.slack_col[t], 0)
                duals.append(Fraction(r * self.row_scale[t], den))
            else:
                y_std = obj.get(self.art_col[t], 0) + art_cost * self.obj_div
                sign = -1 if self.row_flip[t] else 1
                duals.append(Fraction(sign * y_std * self.row_scale[t], den))
        return duals
