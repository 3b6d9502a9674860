"""The two lift-and-project oracles over a relaxation K in [0,1]^n.

Disjunctive operator: P_F(K) = conv of the 2^|F| pieces K n {x_F = z}.
Validity of a row over P_F is decided piecewise (one exact LP per
piece, fixed coordinates substituted away); membership is decided by
the disjunctive extended formulation (a convex combination of one
point per piece), an exact LP feasibility problem whose Farkas dual
yields a separating inequality.

N operator: lift to symmetric (n+1)x(n+1) matrices Y with
Ye_0 = diag(Y), Ye_i and Y(e_0 - e_i) in cone(K), then project back to
{x : Ye_0 = (1, x)}.  cone(K) is the homogenization {(x0,x): x >= 0,
A x <= x0 b}; since every coordinate of K is bounded by a row, the cone
has its apex only at the origin and one exact LP captures N^r via
nested matrices (one per cone-membership constraint when r >= 2).

Both oracles hand back re-verifiable certificates: per-piece LP values,
violating points, or the lifted matrix Y.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .graphs import Graph, ResourceCapExceeded, as_nodeset
from .polyhedra import (
    HPolytope,
    LinearInequality,
    LPOutcome,
    convex_hull_facets,
    frac_to_str,
    stab,
)
from .simplex import CertificateError, LinearProgram

PIECE_CAP = 12      # cap on |F|; pieces number 2^|F|
DEPTH_CAP = 2       # N iterations; lift size grows as (2n)^(r-1) matrices


@dataclass
class LiftCertificate:
    """Re-verifiable witness for a lift-and-project answer.

    kind is "validity-proof" or "violating-point".  For disjunctive
    queries `pieces` holds (z, status, value) per piece; for violating
    points `point` is the witness (and `y_matrix` the lifted Y when the
    N operator produced it).  Membership certificates carry the convex
    multipliers instead.
    """

    kind: str
    f: tuple | None = None
    depth: int | None = None
    pieces: list = field(default_factory=list)
    point: dict | None = None
    y_matrix: list | None = None
    multipliers: list | None = None
    separating: LinearInequality | None = None
    value: Fraction | None = None

    def to_json(self) -> dict:
        d = {"kind": self.kind}
        if self.f is not None:
            d["f"] = list(self.f)
        if self.depth is not None:
            d["depth"] = self.depth
        if self.pieces:
            d["pieces"] = [
                {"z": list(z), "status": st,
                 "value": frac_to_str(v) if v is not None else None}
                for z, st, v in self.pieces
            ]
        if self.point is not None:
            d["point"] = {str(k): frac_to_str(v) for k, v in sorted(self.point.items())}
        if self.y_matrix is not None:
            d["Y"] = [[frac_to_str(v) for v in row] for row in self.y_matrix]
        if self.multipliers is not None:
            d["multipliers"] = [
                {"z": list(z), "lambda": frac_to_str(lam),
                 "point": {str(k): frac_to_str(v) for k, v in sorted(pt.items())}}
                for z, lam, pt in self.multipliers
            ]
        if self.separating is not None:
            d["separating"] = self.separating.to_json()
        if self.value is not None:
            d["value"] = frac_to_str(self.value)
        return d


def _check_piece_cap(f, cap):
    if len(f) > cap:
        raise ResourceCapExceeded(f"piece cap exceeded: |F|={len(f)} > {cap} "
                                  f"(2^|F| pieces)")


class PieceSystem:
    """The LP of max over the piece h n {x_i = z_i for i in fixing},
    reusable across objectives.

    Fixed coordinates are substituted away, which keeps right-hand
    sides nonnegative (no phase-1 work) and shrinks the LP.  A row left
    with no free coordinate and a negative right-hand side makes the
    piece empty, and with every coordinate fixed the piece is one
    point; neither needs an LP.  The first maximize solves the LP with
    its pivot rule, later ones re-solve from the last optimal basis.
    """

    def __init__(self, h: HPolytope, fixing: dict):
        self.fixing = fixing
        self.free = [v for v in h.index if v not in fixing]
        self.empty = False
        self._lp = None
        self._solved = False
        reduced = []
        for r in h.rows:
            rhs = r.rhs - sum((r.coeffs[v] * fixing[v] for v in r.coeffs if v in fixing),
                              Fraction(0))
            coeffs = {v: c for v, c in r.coeffs.items() if v not in fixing}
            if not coeffs:
                if rhs < 0:
                    self.empty = True
                    return
                continue
            reduced.append((coeffs, rhs))
        if not self.free:
            return
        pos = {v: i for i, v in enumerate(self.free)}
        self._lp = LinearProgram(len(self.free))
        for coeffs, rhs in reduced:
            self._lp.add_le({pos[v]: c for v, c in coeffs.items()}, rhs)

    def maximize(self, objective: dict, pivot_rule: str = "hybrid") -> LPOutcome:
        if self.empty:
            return LPOutcome(status="infeasible")
        shift = sum((Fraction(objective.get(v, 0)) * z for v, z in self.fixing.items()),
                    Fraction(0))
        point = {v: Fraction(z) for v, z in self.fixing.items()}
        if self._lp is None:
            return LPOutcome(status="optimal", value=shift, point=point)
        obj = {}
        for i, v in enumerate(self.free):
            c = Fraction(objective.get(v, 0))
            if c:
                obj[i] = c
        if self._solved:
            res = self._lp.resolve(obj)
        else:
            res = self._lp.solve(obj, pivot_rule=pivot_rule)
            self._solved = res.status == "optimal"
        if res.status == "infeasible":
            return LPOutcome(status="infeasible", pivots=res.pivots)
        if res.status == "unbounded":
            raise RuntimeError("unbounded piece: relaxation lacks bound rows")
        point.update(zip(self.free, res.x))
        return LPOutcome(status="optimal", value=res.value + shift, point=point,
                         pivots=res.pivots)


def piece_lp_max(h: HPolytope, objective: dict, fixing: dict,
                 pivot_rule: str = "hybrid") -> LPOutcome:
    """Exact max of objective over h n {x_i = z_i for i in fixing}, solved
    from scratch."""
    return PieceSystem(h, fixing).maximize(objective, pivot_rule)


def piece_max(systems, objective: dict) -> LPOutcome:
    """Best optimal outcome over the piece systems, the first one winning
    a tie; infeasible when every piece is empty."""
    best = None
    for sys_ in systems:
        out = sys_.maximize(objective)
        if out.status == "optimal" and (best is None or out.value > best.value):
            best = out
    return LPOutcome(status="infeasible") if best is None else best


def disjunctive_valid(ineq: LinearInequality, h: HPolytope, f,
                      piece_cap: int = PIECE_CAP, pivot_rule: str = "hybrid"):
    """Is a.x <= b valid for P_F(h)?  Returns (bool, LiftCertificate).

    Valid over a convex hull of pieces iff valid on every feasible
    piece; infeasible pieces are vacuous.  Pieces are scanned in
    lexicographic z order with early exit on the first violation.
    """
    f = as_nodeset(f)
    _check_piece_cap(f, piece_cap)
    piece_records = []
    for z in product((0, 1), repeat=len(f)):
        fixing = dict(zip(f, z))
        out = piece_lp_max(h, ineq.coeffs, fixing, pivot_rule=pivot_rule)
        piece_records.append((z, out.status, out.value))
        if out.status == "optimal" and out.value > ineq.rhs:
            if not (h.contains(out.point) and pt_matches(out.point, fixing)):
                raise CertificateError(f"violating point of piece z={z} lies outside it")
            return False, LiftCertificate(kind="violating-point", f=f,
                                          pieces=piece_records, point=out.point,
                                          value=out.value)
    return True, LiftCertificate(kind="validity-proof", f=f, pieces=piece_records,
                                 value=max((v for _, s, v in piece_records
                                            if s == "optimal"), default=None))


def pt_matches(point: dict, fixing: dict) -> bool:
    return all(point.get(v, Fraction(0)) == z for v, z in fixing.items())


def disjunctive_member(x: dict, h: HPolytope, f, piece_cap: int = PIECE_CAP):
    """Is x in P_F(h) = conv of the pieces?  (bool, LiftCertificate).

    Decided by the disjunctive extended formulation: x = sum_z y^z with
    A y^z <= lambda_z b, y^z_F = lambda_z z, sum lambda_z = 1.  A yes
    answer carries the convex multipliers and per-piece points; a no
    answer carries a separating inequality recovered from the Farkas
    certificate, both re-verified in exact arithmetic.
    """
    f = as_nodeset(f)
    _check_piece_cap(f, piece_cap)
    n = h.dim
    zs = list(product((0, 1), repeat=len(f)))
    npieces = len(zs)
    # variable layout: y^p (n each), then lambda_p
    nv = npieces * n + npieces
    lam0 = npieces * n
    pos = {v: i for i, v in enumerate(h.index)}
    lp = LinearProgram(nv)
    dense_rows = [(h.dense(r.coeffs), r.rhs) for r in h.rows]
    for p in range(npieces):
        base = p * n
        for coeffs, rhs in dense_rows:
            row = {base + j: c for j, c in enumerate(coeffs) if c != 0}
            row[lam0 + p] = -rhs
            lp.add_le(row, 0)
        for v, z in zip(f, zs[p]):
            lp.add_eq({base + pos[v]: 1, lam0 + p: -z}, 0)
    coord_rows = []
    for j, v in enumerate(h.index):
        coord_rows.append(len(lp.rows))
        lp.add_eq({p * n + j: 1 for p in range(npieces)}, Fraction(x.get(v, 0)))
    convex_row = len(lp.rows)
    lp.add_eq({lam0 + p: 1 for p in range(npieces)}, 1)
    res = lp.solve(None)
    if res.status == "optimal":
        mult = []
        for p in range(npieces):
            lam = res.x[lam0 + p]
            if lam == 0:
                continue
            pt = {v: res.x[p * n + j] / lam for j, v in enumerate(h.index)}
            if not (h.contains(pt) and pt_matches(pt, dict(zip(f, zs[p])))):
                raise CertificateError(f"point of piece z={zs[p]} lies outside it")
            mult.append((zs[p], lam, pt))
        if sum(lam for _, lam, _ in mult) != 1:
            raise CertificateError("convex multipliers do not sum to 1")
        for v in h.index:
            if sum((lam * pt[v] for _, lam, pt in mult), Fraction(0)) \
                    != Fraction(x.get(v, 0)):
                raise CertificateError(f"coordinate {v} is not the convex combination")
        return True, LiftCertificate(kind="validity-proof", f=f, multipliers=mult)
    if res.status != "infeasible":
        raise RuntimeError(f"membership LP ended {res.status}")
    sep = _separating_from_farkas(res.farkas, h, coord_rows, convex_row, f, x)
    return False, LiftCertificate(kind="violating-point", f=f, point=dict(x),
                                  separating=sep)


def _separating_from_farkas(farkas, h, coord_rows, convex_row, f, x):
    """Farkas certificate -> inequality valid for P_F, violated by x."""
    pi = {v: -farkas[coord_rows[j]] for j, v in enumerate(h.index)}
    pi0 = farkas[convex_row]
    sep = LinearInequality(pi, pi0, tag="separating")
    # exact re-verification against every piece and against x
    if not sep.evaluate({v: Fraction(x.get(v, 0)) for v in h.index}) > sep.rhs:
        raise CertificateError("separating inequality does not cut off the point")
    for z in product((0, 1), repeat=len(f)):
        out = piece_lp_max(h, sep.coeffs, dict(zip(f, z)))
        if out.status != "infeasible" and out.value > sep.rhs:
            raise CertificateError(f"separating inequality is violated on piece z={z}")
    return sep


# ---------------------------------------------------------------------------
# the N operator as one exact LP

class NLiftSystem:
    """The LP encoding of max over N^r(h), reusable across objectives.

    Depth 1 substitutes Y_00 = 1 and Y_0i = Y_ii away, leaving an
    all-<= system with nonnegative right-hand sides (no phase-1 work);
    deeper lifts add one nested symmetric matrix per cone-membership
    constraint, tied to its column by equality rows.
    """

    def __init__(self, h: HPolytope, depth: int, depth_cap: int = DEPTH_CAP):
        if depth < 1:
            raise ValueError("N depth must be >= 1")
        if depth > depth_cap:
            raise ResourceCapExceeded(f"N depth cap exceeded: r={depth} > {depth_cap}")
        self.h = h
        self.depth = depth
        n = h.dim
        self.n = n
        self._nv = 0
        self._le = []       # (dict var->Fraction, Fraction rhs)
        self._eq = []
        self.top = self._new_matrix(top=True)
        one = _const_expr(Fraction(1))
        top_e0 = [one] + [self._entry_expr(self.top, j, j) for j in range(1, n + 1)]
        self._require_matrix_columns(self.top, top_e0, depth - 1)
        self._lp = LinearProgram(self._nv)
        for coeffs, rhs in self._le:
            self._lp.add_le(coeffs, rhs)
        for coeffs, rhs in self._eq:
            self._lp.add_eq(coeffs, rhs)
        self._solved = False

    # -- variable/expression plumbing --------------------------------------

    def _new_var(self):
        v = self._nv
        self._nv += 1
        return v

    def _new_matrix(self, top=False):
        """Symmetric matrix with Y_0j identified with Y_jj (diag condition).

        Returns a dict with entries for 1<=i<=j<=n plus "00" (absent for
        the top matrix, whose Y_00 is the constant 1).
        """
        n = self.n
        mat = {}
        if not top:
            mat["00"] = self._new_var()
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                mat[(i, j)] = self._new_var()
        mat["top"] = top
        return mat

    def _entry_expr(self, mat, i, j):
        if i > j:
            i, j = j, i
        if i == 0:
            if j == 0:
                if mat["top"]:
                    return _const_expr(Fraction(1))
                return _var_expr(mat["00"])
            return _var_expr(mat[(j, j)])     # Y_0j = Y_jj
        return _var_expr(mat[(i, j)])

    def _require_matrix_columns(self, mat, e0_expr, inner_depth):
        n = self.n
        for i in range(1, n + 1):
            col = [self._entry_expr(mat, j, i) for j in range(0, n + 1)]
            col_bar = [_expr_sub(e0_expr[j], col[j]) for j in range(0, n + 1)]
            self._require_in_cone(col, inner_depth)
            self._require_in_cone(col_bar, inner_depth)

    def _require_in_cone(self, expr, inner_depth):
        """expr (length n+1, homogeneous) must lie in cone(N^inner_depth(h))."""
        if inner_depth == 0:
            self._add_cone_rows(expr)
            return
        mat = self._new_matrix()
        for j in range(0, self.n + 1):
            self._add_eq(_expr_sub(self._entry_expr(mat, j, j) if j else
                                   _var_expr(mat["00"]), expr[j]))
        e0 = [_var_expr(mat["00"])] + [self._entry_expr(mat, j, j)
                                       for j in range(1, self.n + 1)]
        self._require_matrix_columns(mat, e0, inner_depth - 1)

    def _add_cone_rows(self, expr):
        """Homogenized rows of h on expr = (x0, x): A x <= x0 b, x0, x >= 0."""
        pos = {v: j + 1 for j, v in enumerate(self.h.index)}
        self._add_le_expr(_expr_neg(expr[0]))                 # x0 >= 0
        for j in range(1, self.n + 1):
            self._add_le_expr(_expr_neg(expr[j]))             # x >= 0
        for r in self.h.rows:
            if r.tag == "nonneg":
                continue                                      # covered above
            acc = _expr_scale(expr[0], -r.rhs)
            for v, c in r.coeffs.items():
                acc = _expr_add(acc, _expr_scale(expr[pos[v]], c))
            self._add_le_expr(acc)

    def _add_le_expr(self, expr):
        const, terms = expr
        if not terms:
            if const > 0:
                raise RuntimeError("inconsistent constant row in lift")
            return
        if len(terms) == 1 and const == 0:
            (v, c), = terms.items()
            if c < 0:
                return                                        # x >= 0 structural
        self._le.append((dict(terms), -const))

    def _add_eq(self, expr):
        const, terms = expr
        if not terms:
            if const != 0:
                raise RuntimeError("inconsistent constant equality in lift")
            return
        self._eq.append((dict(terms), -const))

    # -- solving ------------------------------------------------------------

    def maximize(self, objective: dict, pivot_rule: str = "hybrid") -> LPOutcome:
        obj = {self.top[(j, j)]: Fraction(objective.get(v, 0))
               for j, v in enumerate(self.h.index, start=1)
               if Fraction(objective.get(v, 0)) != 0}
        if self._solved:
            res = self._lp.resolve(obj)
        else:
            res = self._lp.solve(obj, pivot_rule=pivot_rule)
            self._solved = res.status == "optimal"
        if res.status == "infeasible":
            return LPOutcome(status="infeasible", pivots=res.pivots), res
        if res.status == "unbounded":
            raise RuntimeError("N lift unbounded: relaxation lacks bound rows")
        point = {v: res.x[self.top[(j, j)]]
                 for j, v in enumerate(self.h.index, start=1)}
        return LPOutcome(status="optimal", value=res.value, point=point,
                         duals=None, pivots=res.pivots), res

    def y_matrix(self, res) -> list:
        """The top lifted matrix as an (n+1)x(n+1) Fraction grid."""
        n = self.n
        y = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
        y[0][0] = Fraction(1)
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                y[i][j] = y[j][i] = res.x[self.top[(i, j)]]
        for j in range(1, n + 1):
            y[0][j] = y[j][0] = y[j][j]
        return y


def _const_expr(c):
    return (Fraction(c), {})


def _var_expr(v):
    return (Fraction(0), {v: Fraction(1)})


def _expr_add(a, b):
    terms = dict(a[1])
    for v, c in b[1].items():
        terms[v] = terms.get(v, Fraction(0)) + c
        if terms[v] == 0:
            del terms[v]
    return (a[0] + b[0], terms)


def _expr_neg(a):
    return (-a[0], {v: -c for v, c in a[1].items()})


def _expr_sub(a, b):
    return _expr_add(a, _expr_neg(b))


def _expr_scale(a, s):
    s = Fraction(s)
    if s == 0:
        return (Fraction(0), {})
    return (a[0] * s, {v: c * s for v, c in a[1].items()})


_NLIFT_CACHE: dict = {}


def n_lift_system(h: HPolytope, depth: int, depth_cap: int = DEPTH_CAP,
                  cache: bool = True) -> NLiftSystem:
    key = (h, depth)
    if cache and key in _NLIFT_CACHE:
        return _NLIFT_CACHE[key]
    sys_ = NLiftSystem(h, depth, depth_cap)
    if cache:
        _NLIFT_CACHE[key] = sys_
    return sys_


def n_operator_max(objective, h: HPolytope, depth: int = 1,
                   depth_cap: int = DEPTH_CAP, pivot_rule: str = "hybrid",
                   with_certificate: bool = False):
    """Exact max of the objective over N^depth(h).

    Returns an LPOutcome; with_certificate=True additionally returns
    the lifted matrix Y of an optimal solution (depth-1 Y is fully
    re-verified against the cone conditions by verify_n_matrix).
    """
    obj = objective if isinstance(objective, dict) else dict(zip(h.index, objective))
    sys_ = n_lift_system(h, depth, depth_cap)
    out, raw = sys_.maximize(obj, pivot_rule=pivot_rule)
    if not with_certificate:
        return out
    return out, (sys_.y_matrix(raw) if out.status == "optimal" else None)


def verify_n_matrix(h: HPolytope, y: list) -> bool:
    """Exact check that Y lies in M(cone(h)) with (Ye_0)_0 = 1.

    Independent of the LP that produced Y: symmetry, Ye_0 = diag(Y) and
    both column families' cone membership are checked directly against
    the rows of h.
    """
    n = h.dim
    if y[0][0] != 1:
        return False
    for i in range(n + 1):
        for j in range(n + 1):
            if y[i][j] != y[j][i]:
                return False
        if y[i][0] != y[i][i]:
            return False

    def in_cone(vec):
        x0 = vec[0]
        if x0 < 0 or any(c < 0 for c in vec[1:]):
            return False
        pt = dict(zip(h.index, vec[1:]))
        return all(r.evaluate(pt) <= r.rhs * x0 for r in h.rows if r.tag != "nonneg")

    for i in range(1, n + 1):
        col = [y[j][i] for j in range(n + 1)]
        col_bar = [y[j][0] - y[j][i] for j in range(n + 1)]
        if not in_cone(col) or not in_cone(col_bar):
            return False
    return True


def n_operator_valid(ineq: LinearInequality, h: HPolytope, depth: int = 1,
                     depth_cap: int = DEPTH_CAP):
    """Is a.x <= b valid for N^depth(h)?  (bool, LiftCertificate)."""
    out, y = n_operator_max(ineq.coeffs, h, depth, depth_cap, with_certificate=True)
    if out.status == "infeasible":
        return True, LiftCertificate(kind="validity-proof", depth=depth)
    if out.value <= ineq.rhs:
        return True, LiftCertificate(kind="validity-proof", depth=depth,
                                     value=out.value)
    if depth == 1:
        if not verify_n_matrix(h, y):
            raise CertificateError("lifted matrix Y fails the N-operator conditions")
        if not sum((Fraction(ineq.coeffs.get(v, 0)) * out.point[v]
                    for v in h.index), Fraction(0)) > ineq.rhs:
            raise CertificateError("lifted point does not violate the row")
    return False, LiftCertificate(kind="violating-point", depth=depth,
                                  point=out.point, y_matrix=y, value=out.value)


def relaxation_equals_stab_under(h: HPolytope, g: Graph, f,
                                 hull_bound: int = 12, stab_bound: int = 18,
                                 piece_cap: int = PIECE_CAP):
    """Does P_F(h) equal STAB(g)?  (bool, failing facet or None).

    STAB is always contained in P_F(h), so equality holds iff every
    facet of STAB(g) is valid for P_F(h).
    """
    facets = convex_hull_facets(stab(g, stab_bound), hull_bound)
    for fac in facets:
        ok, cert = disjunctive_valid(fac, h, f, piece_cap)
        if not ok:
            return False, fac
    return True, None
