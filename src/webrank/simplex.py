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
the rows that contribute to it.  ``LinearProgram.rows`` holds sparse
``(coeffs, rhs, kind)`` rows, ``coeffs`` the nonzero ``(column, value)``
pairs, each value an ``int`` where it is integral and a ``Fraction``
otherwise (`_exact`), which a solve clears of denominators directly (an
``int`` has denominator 1, so integral rows cost no ``Fraction`` work
from build to tableau).  Values, points, duals and certificates of a
solve are ``Fraction``s whatever the rows hold.  A pivot scans the rows
once: the ratio scan also records every row with a nonzero in the
entering column, and the pivot clears just those.

There is one pivot rule, and it is deterministic: Dantzig (most
negative reduced cost, lowest index on ties), switching to Bland's rule
after more than DEGENERACY_STREAK degenerate pivots in a row, which keeps
it cycle-free, and back after a pivot that is not degenerate.  Every tie is
broken by column or basis index, never by dict order.

Optimal solves return exact primal and dual certificates (strong
duality and complementary slackness hold with equality), both built on
first read, so re-solves whose point or duals nobody reads never build
them: the primal point from a snapshot (`Primal`) of the basic columns'
integer right-hand sides and divisors taken when the solve ends, which
later pivots leave as it is, and the duals from the reduced-cost row the
solve ended with.  Infeasible solves return an exact Farkas certificate.
Each row is cleared of denominators once per LinearProgram; the tableau
starts from that integer form, and `check_optimal` tests it against x, y
and c, each put over one common denominator, in integer arithmetic.
Certificate checks raise CertificateError and tableau invariants raise
RuntimeError, so both hold under ``python -O``.  Every pivot checks the
deadline of `graphs.LIMITS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from math import gcd, lcm

from .graphs import CertificateError, _check_deadline


DEGENERACY_STREAK = 40
MAX_PIVOTS = 500_000
_ZERO = Fraction(0)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CertificateError(message)


class Primal:
    """The structural part of a basic solution as its solve left it: LP
    column -> (integer right-hand side, divisor) of each basic structural
    column with a nonzero value.  It copies the integers out, so later
    pivots leave it as it is; x_j is made a Fraction only when read.
    `values` lays the point out over the nv LP columns."""

    __slots__ = ("nv", "basic")

    def __init__(self, nv: int, basic: dict):
        self.nv, self.basic = nv, basic

    def __getitem__(self, j) -> Fraction:
        """x_j of LP column j."""
        q = self.basic.get(j)
        return _ZERO if q is None else Fraction(*q)

    def values(self) -> list:
        x = [_ZERO] * self.nv
        for j, q in self.basic.items():
            x[j] = Fraction(*q)
        return x


@dataclass
class LPResult:
    status: str                      # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    farkas: list | None = None       # infeasibility certificate, per row
    pivots: int = 0
    primal: Primal | None = field(default=None, repr=False, compare=False)
    dual_source: object = field(default=None, repr=False, compare=False)

    @cached_property
    def x(self) -> list | None:
        """The structural variables, exact, built from primal on the first
        read (None without an optimum)."""
        return None if self.primal is None else self.primal.values()

    @cached_property
    def duals(self) -> list | None:
        """One multiplier per added row, built by dual_source on the first
        read (None without an optimum)."""
        make, self.dual_source = self.dual_source, None
        return None if make is None else make()


class LinearProgram:
    """A collection of <= and = rows over nonnegative variables."""

    def __init__(self, num_vars: int):
        if num_vars < 1:
            raise ValueError("need at least one variable")
        self.nv = num_vars
        self._cols = frozenset(range(num_vars))
        self.rows = []               # (nonzero (column, value) pairs, rhs, kind), int or Fraction
        self._ints = []              # integer form of each row, see _integer_rows
        self._tab = None

    def _pairs(self, coeffs: dict) -> list:
        """The nonzero (column, value) pairs of a row or objective given as
        a dict {column: value}, each value in its exact form (`_exact`); a
        column outside 0..nv-1 raises ValueError."""
        if not self._cols.issuperset(coeffs):
            bad = [j for j in coeffs if j not in self._cols]
            raise ValueError(f"columns {bad} outside 0..{self.nv - 1}")
        return [(j, _exact(v)) for j, v in coeffs.items() if v]

    def add_le(self, coeffs, rhs):
        self.rows.append((self._pairs(coeffs), _exact(rhs), "<="))

    def add_eq(self, coeffs, rhs):
        self.rows.append((self._pairs(coeffs), _exact(rhs), "="))

    def solve(self, objective=None) -> LPResult:
        """Maximize objective (default 0) over the current rows."""
        obj = self._pairs(objective) if objective is not None else []
        self._tab = _Tableau(self)
        return self._tab.solve(obj)

    def resolve(self, objective) -> LPResult:
        """Re-optimize with a new objective from the last optimal basis.

        The feasible basis of the previous solve is reused, so only the
        reduced-cost row is rebuilt; typically a handful of pivots.
        """
        if self._tab is None or not self._tab.feasible_basis:
            raise RuntimeError("resolve() needs a previous feasible solve")
        return self._tab.reoptimize(self._pairs(objective))

    def maximize(self, objective) -> LPResult:
        """Re-solve from the last feasible basis when there is one, else
        solve from scratch."""
        if self._tab is not None and self._tab.feasible_basis:
            return self.resolve(objective)
        return self.solve(objective)

    def _integer_rows(self) -> list:
        """(column -> integer, integer rhs, L) per row: the row times L, the
        lcm of its denominators.  Each row is cleared once, on the first
        solve or check that reaches it."""
        for coeffs, rhs, _ in self.rows[len(self._ints):]:
            ints, L = _intify(coeffs + [(-1, rhs)] if rhs else coeffs)
            self._ints.append((ints, ints.pop(-1, 0), L))
        return self._ints

    def check_optimal(self, res: LPResult, objective) -> None:
        """Exact certificate check: feasibility, duality, slackness.

        x, y and c are each put over one common denominator, y_t folded
        with the scale of row t, and every condition is tested in
        integers on the rows' integer form.  Raises CertificateError naming
        the first condition that fails.
        """
        c, dc = _intify(self._pairs(objective))
        _require(res.status == "optimal", "not an optimal result")
        _require(len(res.duals) == len(self.rows), "not one dual per row")
        x, dx = _intify(list(enumerate(res.x)))
        _require(all(v >= 0 for v in x.values()), "negative primal value")
        support = {j: v for j, v in x.items() if v}
        rows = self._integer_rows()
        y = res.duals
        dy = lcm(*(q.denominator * L for q, (_, _, L) in zip(y, rows) if q))
        # u_t / dy = y_t / L_t; r_j * dy * dc = dc * sum_t u_t A_tj - c_j * dy
        u = [q.numerator * (dy // (q.denominator * L)) if q else 0
             for q, (_, _, L) in zip(y, rows)]
        red = {j: -cj * dy for j, cj in c.items()}
        for (coeffs, b, _), (_, _, kind), ut in zip(rows, self.rows, u):
            lhs = sum(a * support[j] for j, a in coeffs.items() if j in support)
            b *= dx
            if ut:
                w = ut * dc
                for j, a in coeffs.items():
                    red[j] = red.get(j, 0) + w * a
            if kind == "<=":
                _require(lhs <= b, "primal infeasible")
                _require(ut >= 0, "negative dual on <= row")
                _require(ut == 0 or lhs == b, "complementary slackness (row)")
            else:
                _require(lhs == b, "equality violated")
        value = res.value
        _require(sum(cj * support.get(j, 0) for j, cj in c.items()) * value.denominator
                 == value.numerator * dc * dx, "value mismatch")
        for j, r in sorted(red.items()):     # a column missing from red has r = 0
            _require(r >= 0, "dual infeasible")
            _require(j not in support or r == 0, "complementary slackness (column)")
        _require(sum(ut * b for ut, (_, b, _) in zip(u, rows)) * value.denominator
                 == value.numerator * dy, "strong duality")


def _exact(v):
    """The one exact form of a row value: an int (not a bool) as it is,
    anything else made a Fraction, then its numerator if it is integral."""
    if type(v) is int:
        return v
    q = v if isinstance(v, Fraction) else Fraction(v)
    return q.numerator if q.denominator == 1 else q


def _coprime(row: dict, rhs: int) -> tuple:
    """(dict key->int, int rhs): the int row sum(a x) <= rhs over coprime
    integers, the one form of each positive multiple of it; the row
    itself when it already is, or when it is all zero."""
    g = gcd(rhs, *row.values())
    if g > 1:
        row, rhs = {j: a // g for j, a in row.items()}, rhs // g
    return row, rhs


def _intify(items):
    """Clear denominators of (key, int or Fraction) pairs.

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
    entry there is p; updates row in place and returns its new divisor.
    With a == 1 (p divides e) the row is not scaled, and a row over
    divisor 1 stays gcd-normalized, so neither pass is made."""
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
    div *= a
    return div if div == 1 else _normalize(row, div)


class _Tableau:
    """Sparse fraction-free tableau: per row a dict of nonzero integers,
    right-hand side under key ncols, over one positive divisor."""

    def __init__(self, lp: LinearProgram):
        self.kinds = [kind for _, _, kind in lp.rows]
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
        for t, ((ints, rhs, L), kind) in enumerate(zip(lp._integer_rows(), self.kinds)):
            flip = rhs < 0
            row = {j: -v for j, v in ints.items()} if flip else dict(ints)
            if rhs:
                row[ncols] = -rhs if flip else rhs
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
        self.obj = {}
        self.obj_div = 1

    # -- pivoting ----------------------------------------------------------

    def _pivot(self, r, s, hits, allow_any_sign=False):
        """Pivot on row r, column s; hits lists every row with a nonzero
        in column s (row r among them), the rows the pivot must clear."""
        rows, divs = self.rows, self.divs
        prow = rows[r]
        p = prow.get(s, 0)
        if p == 0 or (p < 0 and not allow_any_sign):
            raise RuntimeError(f"pivot entry {p} in row {r}, column {s} has the wrong sign")
        for i in hits:
            if i != r:
                divs[i] = _eliminate(rows[i], divs[i], prow, p, s)
        if s in self.obj:
            self.obj_div = _eliminate(self.obj, self.obj_div, prow, p, s)
        divs[r] = _normalize(prow, p)
        self.basis[r] = s
        self.pivots += 1

    def _build_obj(self, cints: dict):
        """Reduced-cost row r_j = c_B B^-1 A_j - c_j from the current basis,
        summed in integers over the lcm of the contributing divisors."""
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
        go to the row whose basic column is lowest.  Returns (best, hits):
        best is (tableau row, rhs, pivot entry) or None, and hits lists
        every row with a nonzero in column s, of either sign, in order."""
        rhs = self.ncols
        best = None                   # (tableau row, rhs, pivot entry)
        hits = []
        for i, row in enumerate(self.rows):
            a = row.get(s)
            if a is None:
                continue
            hits.append(i)
            if a > 0:
                b = row.get(rhs, 0)
                if best is None:
                    best = (i, b, a)
                    continue
                lhs = b * best[2]
                other = best[1] * a
                if lhs < other or (lhs == other and self.basis[i] < self.basis[best[0]]):
                    best = (i, b, a)
        return best, hits

    def _run(self):
        bland, streak = False, 0
        while True:
            if self.pivots > MAX_PIVOTS:
                raise RuntimeError("pivot limit exceeded; simplex stalled")
            _check_deadline("simplex")
            s = self._entering(bland)
            if s is None:
                return "optimal"
            hit, hits = self._leaving(s)
            if hit is None:
                return "unbounded"
            r, rhs, _ = hit
            self._pivot(r, s, hits)
            streak = streak + 1 if rhs == 0 else 0
            bland = streak > DEGENERACY_STREAK

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
        self._build_obj(cints)
        if self._run() != "optimal":
            raise RuntimeError("phase 1 cannot be unbounded")
        value = self.obj.get(self.ncols, 0)
        if value:
            # maximum of -sum(artificials) is negative: infeasible
            if value > 0:
                raise RuntimeError("phase 1 maximum of -sum(artificials) is positive")
            farkas = self._extract_duals(self.obj, self.obj_div, 1, art_cost=-1)
            return LPResult(status="infeasible", farkas=farkas, pivots=self.pivots)
        self._drive_out_artificials()
        return None

    def _drive_out_artificials(self):
        """Pivot each basic artificial out on the lowest other column of its
        row.  A redundant equality row has none: it stays, the artificial
        basic in it at 0 for good (artificials cannot enter), and the row
        that artificial belongs to reads dual 0."""
        arts = set(self.art_col.values())
        rhs = self.ncols
        for i, row in enumerate(self.rows):
            if self.basis[i] not in arts:
                continue
            if row.get(rhs, 0) != 0:
                raise RuntimeError("basic artificial has a nonzero right-hand side after phase 1")
            s = min((j for j in row if j != rhs and j not in arts), default=None)
            if s is not None:
                hits = [t for t, other in enumerate(self.rows) if s in other]
                self._pivot(i, s, hits, allow_any_sign=True)

    def reoptimize(self, objective) -> LPResult:
        cints, scale = _intify(objective)
        self._build_obj(cints)
        status = self._run()
        self.feasible_basis = True
        if status == "unbounded":
            return LPResult(status="unbounded", pivots=self.pivots)
        rhs, nv = self.ncols, self.nv
        basic = {b: (row[rhs], d) for b, row, d in zip(self.basis, self.rows, self.divs)
                 if b < nv and rhs in row}
        value = Fraction(self.obj.get(rhs, 0), self.obj_div * scale)
        # _build_obj makes a new reduced-cost row for every objective, so
        # this one is never updated again: the duals can wait for a reader
        return LPResult(status="optimal", value=value, pivots=self.pivots,
                        primal=Primal(nv, basic),
                        dual_source=partial(self._extract_duals, self.obj,
                                            self.obj_div, scale))

    def _extract_duals(self, obj, obj_div, obj_scale, art_cost=0):
        """Duals w.r.t. the ORIGINAL rows, from the marker-column reduced
        costs of the row obj over obj_div * obj_scale.

        For a <= row the slack column works whether or not the stored row
        was negated; for an = row the artificial column does, with the
        sign flipped back.  art_cost is the objective coefficient carried
        by artificial columns (-1 during phase 1), which shifts their
        reduced cost r_art = y_std - art_cost.
        """
        duals = []
        for t, kind in enumerate(self.kinds):
            if kind == "<=":
                y = obj.get(self.slack_col[t], 0)
            else:
                y = obj.get(self.art_col[t], 0) + art_cost * obj_div
                y = -y if self.row_flip[t] else y
            duals.append(Fraction(y * self.row_scale[t], obj_div * obj_scale))
        return duals
