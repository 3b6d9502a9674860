"""The two lift-and-project oracles over a relaxation K in [0,1]^n.

Disjunctive operator: P_F(K) = conv of the 2^|F| pieces K n {x_F = z}.
The piece layer has one enumeration of the pieces (`_pieces`, behind
the piece cap), one substitution of the fixed coordinates
(`_fixed_rows`) and one piece-max loop (`piece_max`).  Validity of a
row over P_F is decided piecewise (one exact LP per piece); membership
is decided by the disjunctive extended formulation (a convex
combination of one point per piece), an exact LP feasibility problem
whose Farkas dual yields a separating inequality and, block by block,
the multipliers that prove it on each piece, so no piece LP is solved;
a point of K that is 0/1 on F is its own piece, and a point outside K
is cut off by the row of K it exceeds, so neither needs an LP.  That
LP is built reduced: the fixed coordinates of each piece's block are
substituted by its lambda (or 0), empty pieces are left out, and so are
rows that nonnegativity implies.  On A_11^4 with |F| = 3 this takes the
LP from 300 rows x 96 variables (36 equality rows) to 188 x 72 (12).

N operator: lift to symmetric (n+1)x(n+1) matrices Y with
Ye_0 = diag(Y), Ye_i and Y(e_0 - e_i) in cone(K), then project back to
{x : Ye_0 = (1, x)}.  cone(K) is the homogenization {(x0,x): x >= 0,
A x <= x0 b}; since every coordinate of K is bounded by a row, the cone
has its apex only at the origin and one exact LP captures N^r via
nested matrices (one per cone-membership constraint when r >= 2), each
taking its diagonal from the column it proves, so the LP has <= rows
only.  The max is taken, exactly, over that LP folded onto the orbits of
its columns under the rotations and reflections of the positions that
fix K's rows and the objective, the identity alone folding nothing
(`NLiftSystem`).

The piece and membership LPs are built from h.rows, whose integral
values are ints, so the integer rows of QSTAB, FRAC and hull facets stay
ints down to the tableau, and the lift from each row's `canonical` form,
so every lift row is an int row; the values, points, duals and Farkas
vectors read back are Fractions, as in the certificates.

Each oracle answers (bool, certificate), the certificate a plain dict
of exact values (Fractions, int keys, tuples) that `reporting.dumps`
writes and `recheck` reads, with only the fields `recheck` reads (the
bool is the verdict).  Validity: f, and pieces ({"z", "status", "y"}
each, y as in `PieceSystem.multipliers`) or the violating point.
Membership: f, and multipliers ({"z", "lambda", "point"} each) or point,
separating (the row's to_json()) and pieces, with status "bounded" or
"infeasible" and y from the Farkas vector, or {i: 1} on every piece when
the separating row is row i of K.  The N oracle, whose certificate no
report holds: depth, the max unless N^r(K) is empty (value), and point
and Y when the row fails.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import product

from .graphs import (CertificateError, _check_deadline, _check_depth_cap, _check_piece_cap,
                     as_nodeset)
from .polyhedra import (HPolytope, LinearInequality, LPOutcome, clear_denominators,
                        symmetries)
from .recheck import (check_member, check_n_matrix, check_pieces, check_point, check_separating,
                      parse_point)
from .simplex import LinearProgram, LPResult, Primal, _coprime


def _pieces(f):
    """(z, fixing) for each piece of F, z in lexicographic order, after
    the piece cap check: the one enumeration of the pieces."""
    _check_piece_cap(f)
    for z in product((0, 1), repeat=len(f)):
        yield z, dict(zip(f, z))


def _fixed_rows(h: HPolytope, fixing: dict, col: dict):
    """(rows, None), rows the rows of h with x_v = fixing[v] substituted as
    (index in h.rows, coefficients keyed by col[v] of the free
    coordinates, right-hand side); or (None, i) when row i, left without
    a free coordinate, has a negative right-hand side (the piece is
    empty)."""
    rows = []
    for i, r in enumerate(h.rows):
        coeffs, rhs = {}, r.rhs
        for v, c in r.coeffs.items():
            z = fixing.get(v)
            if z is None:
                coeffs[col[v]] = c
            elif z:
                rhs -= c * z
        if coeffs:
            rows.append((i, coeffs, rhs))
        elif rhs < 0:
            return None, i
    return rows, None


class PieceSystem:
    """The LP of max over the piece h n {x_i = z_i for i in fixing},
    reusable across objectives.

    Fixed coordinates are substituted away (`_fixed_rows`), which keeps
    right-hand sides nonnegative (no phase-1 work) and shrinks the LP.
    An empty piece, and with every coordinate fixed a piece of one
    point, need no LP.  `LinearProgram.maximize` re-solves the LP from
    its last feasible basis.
    """

    def __init__(self, h: HPolytope, fixing: dict):
        self.fixing = fixing
        self.free = [v for v in h.index if v not in fixing]
        self._lp = None
        col = {v: i for i, v in enumerate(self.free)}
        rows, self._emptied_by = _fixed_rows(h, fixing, col)
        self.empty = rows is None
        if self.empty or not self.free:
            return
        self._lp = LinearProgram(len(self.free))
        self._row = [i for i, _, _ in rows]         # the row of h behind each LP row
        for _, coeffs, rhs in rows:
            self._lp.add_le(coeffs, rhs)

    def maximize(self, objective: dict) -> LPOutcome:
        """The max over the piece; its point is built on the first read."""
        if self.empty:
            return LPOutcome(status="infeasible")
        shift = sum((objective.get(v, 0) * z for v, z in self.fixing.items() if z),
                    Fraction(0))
        if self._lp is None:
            return LPOutcome(status="optimal", value=shift,
                             point=_piece_point(self.fixing, self.free, None))
        obj = {i: c for i, v in enumerate(self.free) if (c := objective.get(v))}
        res = self._last = self._lp.maximize(obj)
        if res.status == "infeasible":
            return LPOutcome(status="infeasible")
        if res.status == "unbounded":
            raise RuntimeError("unbounded piece: relaxation lacks bound rows")
        return LPOutcome(status="optimal", value=res.value + shift,
                         point=partial(_piece_point, self.fixing, self.free, res.primal))

    def multipliers(self) -> dict:
        """The nonzero multipliers over the rows of h, by row index, that
        prove the last maximize (`recheck.check_pieces`): the LP's dual, its
        Farkas ray, {i: 1} when row i empties the piece, none for a point."""
        if self.empty:
            return {self._emptied_by: Fraction(1)}
        if self._lp is None:
            return {}
        res = self._last
        y = res.duals if res.status == "optimal" else res.farkas
        return {self._row[t]: v for t, v in enumerate(y) if v}


def _piece_point(fixing: dict, free: list, primal) -> dict:
    """The point of a piece: its fixed coordinates, then the free ones
    from the LP's primal snapshot (none when every coordinate is fixed)."""
    point = {v: Fraction(z) for v, z in fixing.items()}
    if primal is not None:
        point.update(zip(free, primal.values()))
    return point


def piece_systems(h: HPolytope, f) -> list:
    """The PieceSystem of each piece of F, in lexicographic z order."""
    return [PieceSystem(h, fixing) for _, fixing in _pieces(as_nodeset(f))]


def piece_lp_max(h: HPolytope, objective: dict, fixing: dict) -> LPOutcome:
    """Exact max of objective over h n {x_i = z_i for i in fixing}, solved
    from scratch, its duals the piece's multipliers (a dict, see
    `PieceSystem.multipliers`)."""
    sys_ = PieceSystem(h, fixing)
    out = sys_.maximize(objective)
    out.duals = sys_.multipliers()
    return out


def piece_max(systems, objective: dict, stop=None) -> LPOutcome:
    """Best optimal outcome over the piece systems, the first one winning
    a tie; infeasible when every piece is empty.  With `stop` the scan
    ends at the first piece whose value reaches it, and that piece's
    outcome (value >= stop) is returned.  Each piece checks the deadline,
    as a piece with every coordinate fixed runs no LP."""
    best = None
    for sys_ in systems:
        _check_deadline()
        out = sys_.maximize(objective)
        if out.status == "optimal" and (best is None or out.value > best.value):
            best = out
            if stop is not None and best.value >= stop:
                break
    return LPOutcome(status="infeasible") if best is None else best


def min_piece_max(pieces, objective: dict, known: LPOutcome | None = None):
    """min over j of piece_max(pieces[j], objective).value; None when some
    j has no feasible piece.  The running minimum is the stop of each
    scan: a j with a piece that reaches it cannot lower it.

    `known`, an optimal outcome of the max over K (`lp_max`, whose point
    `check_optimal` has proved in K), settles every j whose F it is 0/1
    on: the piece z = known.point_F holds that point and lies in K, so the
    j's max is known.value, and no LP runs for it.  The running minimum
    starts there when some j is settled; only the other j are scanned."""
    low = None
    if known is not None:
        open_ = [systems for systems in pieces
                 if any(known.point[v] not in (0, 1) for v in systems[0].fixing)]
        if len(open_) < len(pieces):
            low = known.value
        pieces = open_
    for systems in pieces:
        out = piece_max(systems, objective, stop=low)
        if out.status != "optimal":
            return None
        if low is None or out.value < low:
            low = out.value
    return low


def disjunctive_valid(ineq: LinearInequality, h: HPolytope, f):
    """Is a.x <= b valid for P_F(h)?  Returns (bool, certificate).

    Valid over a convex hull of pieces iff valid on every feasible
    piece; infeasible pieces are vacuous.  Pieces are scanned in
    lexicographic z order with early exit on the first violation, whose
    point is the answer; otherwise each record carries the multipliers y
    that prove it.  Both answers pass their `recheck` checks before they
    are handed out.
    """
    f = as_nodeset(f)
    pieces = []
    for z, fixing in _pieces(f):
        out = piece_lp_max(h, ineq.coeffs, fixing)
        if out.status == "optimal" and out.value > ineq.rhs:
            check_point(h, f, out.point, ineq)
            return False, {"f": f, "point": out.point}
        pieces.append({"z": z, "status": out.status, "y": out.duals})
    check_pieces(h, ineq, f, pieces)
    return True, {"f": f, "pieces": pieces}


def disjunctive_member(x: dict, h: HPolytope, f):
    """Is x in P_F(h) = conv of the pieces?  (bool, certificate).

    Decided by the disjunctive extended formulation of Balas, Ceria and
    Cornuejols: x = sum_z y^z with A y^z <= lambda_z b, y^z_F = lambda_z z,
    sum lambda_z = 1, built reduced.  y^z_F is substituted away (lambda_z
    where z is 1, 0 where z is 0), so the coordinate row of v in F reads
    sum of lambda_z over the pieces with z_v = 1 = x_v and y^z keeps only
    the free coordinates.  A piece `_fixed_rows` finds empty forces
    lambda_z = 0 (h is bounded) and is left out; a row with no positive
    coefficient (a -x_v <= 0 row) holds for every y^z, lambda_z >= 0 and
    is left out.  With every piece empty P_F(h) is empty and 0.x <= -1
    separates; no LP is built.

    A point of h that is 0/1 on F needs no LP either: it lies in its own
    piece z = x_F, and P_F(h) is the convex hull of the pieces, so the
    one multiplier lambda_z = 1 with the point x itself proves
    membership.  `check_member` decides it, testing the point against h
    once.  A point that exceeds a row of h needs no LP either: P_F(h)
    lies in h, so the first row i it exceeds separates it, and i bounds
    itself on every piece, empty ones included, by y = {i: 1}.  Only a
    point of h that is not 0/1 on F, or one whose only violation is a
    negative coordinate with no -x_v <= 0 row in h, reaches the LP.

    A yes answer carries the convex multipliers and per-piece points; a
    no answer carries a separating inequality pi.x <= pi_0 recovered from
    the Farkas certificate and one record per piece.  The Farkas vector
    is y >= 0 on the <= rows with y.A >= 0 on every column and y.rhs < 0:
    on the column of y^p_v that reads y_p.A_v >= pi_v, on the column of
    lambda_p y_p.(b - A_F z) + pi_F z <= pi_0, so the block y_p of each
    piece, keyed by the rows of h behind its LP rows, is the record
    `check_pieces` tests ("bounded": no piece max is solved).  An empty
    piece gets {i: 1} for the row i that empties it, as in
    `disjunctive_valid`, and with every piece empty (no LP) so does each.
    Both answers pass their `recheck` checks before they are handed out.
    The short cuts check the deadline as the LP does.
    """
    f = as_nodeset(f)
    _check_piece_cap(f)
    _check_deadline()
    point = parse_point(x)
    if all(x.get(v, 0) in (0, 1) for v in f):
        mult = [{"z": tuple(int(x.get(v, 0)) for v in f), "lambda": Fraction(1),
                 "point": {v: Fraction(x.get(v, 0)) for v in h.index}}]
        try:
            check_member(h, f, point, mult)
        except CertificateError:
            pass
        else:
            return True, {"f": f, "multipliers": mult}
    num, L = clear_denominators(point, h.index)
    cut = next((i for i, r in enumerate(h.rows) if r.exceeds(num, L)), None)
    if cut is not None:
        proofs = {z: {cut: Fraction(1)} for z, _ in _pieces(f)}
        return _non_member(h.rows[cut], h, f, x, dict.fromkeys(proofs), proofs)
    free = [v for v in h.index if v not in f]
    pos = {v: j for j, v in enumerate(free)}
    # (z, fixing, rows) per nonempty piece, each row (row of h, free coeffs,
    # lambda coeff); emptied[z] the row of h that empties piece z, or None
    pieces, emptied = [], {}
    for z, fixing in _pieces(f):
        rows, emptied[z] = _fixed_rows(h, fixing, pos)
        if rows is not None:
            pieces.append((z, fixing, [(i, coeffs, -rhs) for i, coeffs, rhs in rows
                                       if rhs < 0 or any(c > 0 for c in coeffs.values())]))
    if not pieces:
        return _non_member(LinearInequality({}, -1), h, f, x, emptied, {})
    # variable layout: y^p (one per free coordinate each), then lambda_p
    n = len(free)
    lam0 = len(pieces) * n
    lp = LinearProgram(lam0 + len(pieces))
    blocks = []         # per piece: (LP row, row of h) of each of its rows
    for p, (_, _, rows) in enumerate(pieces):
        base = p * n
        blocks.append([])
        for i, coeffs, lam in rows:
            row = {base + j: c for j, c in coeffs.items()}
            row[lam0 + p] = lam
            blocks[p].append((len(lp.rows), i))
            lp.add_le(row, 0)
    coord_rows = []
    for v in h.index:
        coord_rows.append(len(lp.rows))
        if v in pos:
            row = {p * n + pos[v]: 1 for p in range(len(pieces))}
        else:
            row = {lam0 + p: 1 for p, (_, fixing, _) in enumerate(pieces) if fixing[v]}
        lp.add_eq(row, x.get(v, 0))
    convex_row = len(lp.rows)
    lp.add_eq({lam0 + p: 1 for p in range(len(pieces))}, 1)
    res = lp.solve(None)
    if res.status == "optimal":
        mult = []
        for p, (z, fixing, _) in enumerate(pieces):
            lam = res.x[lam0 + p]
            if lam:
                mult.append({"z": z, "lambda": lam, "point": {
                    v: res.x[p * n + pos[v]] / lam if v in pos else Fraction(fixing[v])
                    for v in h.index}})
        check_member(h, f, point, mult)
        return True, {"f": f, "multipliers": mult}
    if res.status != "infeasible":
        raise RuntimeError(f"membership LP ended {res.status}")
    farkas = res.farkas
    pi = {v: -farkas[coord_rows[j]] for j, v in enumerate(h.index)}
    sep = LinearInequality(pi, farkas[convex_row])
    proofs = {z: {i: y for t, i in block if (y := farkas[t])}
              for (z, _, _), block in zip(pieces, blocks)}
    return _non_member(sep, h, f, x, emptied, proofs)


def _non_member(sep, h, f, x, emptied, proofs):
    """The no answer of disjunctive_member, after checks that sep cuts off
    x and is valid for P_F(h) by its piece records: proofs[z] for each
    piece z it holds ("bounded": the Farkas block of a piece in the LP, or
    {i: 1} when sep is row i of h), {i: 1} for the row i = emptied[z] of
    each other one ("infeasible")."""
    records = [{"z": z, "status": "bounded", "y": proofs[z]} if z in proofs
               else {"z": z, "status": "infeasible", "y": {emptied[z]: Fraction(1)}}
               for z in emptied]
    check_separating(sep, parse_point(x))
    check_pieces(h, sep, f, records)
    return False, {"f": f, "point": dict(x), "separating": sep.to_json(), "pieces": records}


# ---------------------------------------------------------------------------
# the N operator as one exact LP

_ONE = -1           # lift-expression key of the constant term (variables are >= 0)


def _lin(*terms):
    """The lift expression sum(scale * expr) over (scale, expr) pairs."""
    out = {}
    for scale, expr in terms:
        for v, c in expr.items():
            out[v] = out.get(v, 0) + scale * c
    return {v: c for v, c in out.items() if c} if 0 in out.values() else out


def _lift_rows(index, cone, depth: int) -> tuple:
    """(keys, rows): the lift of N^depth over {x >= 0 : A x <= b} on the
    positions index, cone the ((node, coefficient) pairs, rhs) rows of
    A x <= b; rows (dict variable->coefficient, rhs), each <= rhs over
    variables >= 0, and keys[v] the structural key of variable v.

    Every matrix Y of the lift is symmetric with Ye_0 = diag(Y), and
    takes its diagonal as given (`new_matrix`): the top matrix has
    Y_00 = 1 and one variable per Y_jj, and each nested matrix, one per
    cone-membership constraint when depth >= 2, has Y_jj = expr[j] for
    the column expr it proves.  Y_0j reads Y_jj and every entry above the
    diagonal is a variable, made in row order.  A lift expression is a
    dict from variable to its nonzero coefficient, the constant term under
    the key _ONE.  The key of a variable is the path of its matrix, the
    (column i, side) pair of each cone constraint on the way down (side 0
    for Ye_i, 1 for Y(e_0 - e_i)), and its entry (i, j), 1 <= i <= j <= n
    (i < j in a nested matrix).  Each cone constraint checks the deadline."""
    n = len(index)
    pos = {v: j + 1 for j, v in enumerate(index)}
    keys, rows = [], []

    def new_matrix(path, diag=None):
        mat = {(0, 0): diag[0] if diag else {_ONE: 1}}
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                if diag and i == j:
                    mat[i, i] = diag[i]
                else:
                    mat[i, j] = mat[j, i] = {len(keys): 1}
                    keys.append((path, (i, j)))
            mat[0, i] = mat[i, 0] = mat[i, i]
        return mat

    def require_columns(mat, path, inner_depth):
        """Ye_i and Y(e_0 - e_i) in cone(N^inner_depth), i = 1..n: the cone
        rows at depth 0, else the columns of a nested matrix of that diagonal."""
        e0 = [mat[j, 0] for j in range(n + 1)]
        for i in range(1, n + 1):
            col = [mat[j, i] for j in range(n + 1)]
            for side in (0, 1):
                expr = [_lin((1, a), (-1, b)) for a, b in zip(e0, col)] if side else col
                _check_deadline()
                if inner_depth == 0:
                    add_cone_rows(expr)
                else:
                    sub = path + ((i, side),)
                    require_columns(new_matrix(sub, expr), sub, inner_depth - 1)

    def add_cone_rows(expr):
        """A x <= x0 b on expr = (x0, x), and e >= 0 on each entry e but one
        that is at most one positive term (>= 0 at every LP point)."""
        for e in expr:
            if len(e) > 1 or min(e.values(), default=1) < 0:
                add_row(_lin((-1, e)))
        for coeffs, rhs in cone:
            add_row(_lin((-rhs, expr[0]), *((c, expr[pos[v]]) for v, c in coeffs)))

    def add_row(expr):          # expr <= 0
        rows.append((expr, -expr.pop(_ONE, 0)))

    require_columns(new_matrix(()), (), depth - 1)
    return keys, rows


class NLiftSystem:
    """The LP encoding of max over N^r(h), reusable across objectives.

    The lift (`_lift_rows`), from the coprime integer form of the rows of
    h but x >= 0, is int <= rows over variables >= 0, with rhs >= 0 when
    h has them (no phase 1).  Its presolve (`_presolve`) is the LP
    (`_presolved`): on QSTAB it drops every edge entry Y_ij of the top
    matrix, which the clique rows force to 0, and the rows the symmetry
    of Y repeats.  Of the build only the structural key of each LP column
    is kept, both ways (`_keys`, `_col`).  A map of the positions of
    h.index acts on the keys by moving every matrix index i >= 1 with it.

    Symmetry fold.  The max is taken over the LP folded onto the orbits
    of its columns under the group generated by the rotations and
    reflections of the positions that map h's rows and the objective to
    themselves (`polyhedra.symmetries`, `_generators`); the trivial group
    has no generators and its fold is the presolved LP, row for row.
    The fold is exact.  The lift is built alike from every row of h at
    every position, so each such map permutes the LP's columns and maps
    its rows onto its rows (checked on a generating set before folding;
    a failure raises): it maps the feasible set and the objective to
    themselves.  The average of an optimum over the group is then an
    optimum constant on every orbit, a point x_j = z_(orbit of j), on
    which each row reads as its folded row, the coefficients summed per
    orbit.  So the folded max is the max, and its optimum expanded back
    to the columns is an optimum of the LP itself, which `y_matrix` reads
    as any other.  Each folded LP is kept for the next objective with the
    same generators and re-solved from its last feasible basis.
    """

    def __init__(self, h: HPolytope, depth: int):
        if depth < 1:
            raise ValueError("N depth must be >= 1")
        self.h = h
        self.depth = depth
        cone = [r.canonical() for r in h.rows if r.tag != "nonneg"]
        keys, rows = _lift_rows(h.index, cone, depth)
        self._presolved, col = _presolve(rows, len(keys))
        self._keys = [keys[v] for v in col]     # LP column -> structural key
        self._col = {key: j for j, key in enumerate(self._keys)}
        self._diag = [(v, self._col.get(((), (j, j))))     # LP column of x_v or None
                      for j, v in enumerate(h.index, start=1)]
        self._folds = {}    # generators -> (folded LP, orbit of each LP column)

    # -- the symmetry fold ----------------------------------------------------

    def _fold(self, gens) -> tuple:
        """(folded LP, orbit of each LP column) for the group the position
        maps gens generate.  Each map must permute the LP's columns through
        their structural keys and map every presolved row onto a presolved
        row, both in coprime integer form (as `polyhedra` compares rows),
        else RuntimeError.  A folded row sums a row's coefficients per
        orbit; repeats and empty rows that hold go, so the trivial group's
        fold is the presolved rows (nonempty and distinct), row for row."""
        _check_deadline()
        rows, cols = self._presolved, len(self._col)
        parent = list(range(cols))

        def root(j):
            while parent[j] != j:
                parent[j] = j = parent[parent[j]]
            return j

        if gens:
            rowset = {(rhs, frozenset(row.items())) for row, rhs in rows}
        for p in gens:
            m = (0, *(q + 1 for q in p))
            img = []
            for path, (i, j) in self._keys:
                i, j = sorted((m[i], m[j]))
                img.append(self._col.get((tuple((m[a], s) for a, s in path), (i, j))))
            _check_deadline()
            if None in img or len(set(img)) != cols or any(
                    (rhs, frozenset((img[j], a) for j, a in row.items())) not in rowset
                    for row, rhs in rows):
                raise RuntimeError(f"position map {p} does not map the N lift onto itself")
            for j, k in enumerate(img):
                parent[root(j)] = root(k)
        ids = {}
        orbit = [ids.setdefault(root(j), len(ids)) for j in range(cols)]
        folded, seen = LinearProgram(len(ids)), set()
        _check_deadline()
        for row, rhs in rows:
            acc = {}
            for j, a in row.items():
                acc[orbit[j]] = acc.get(orbit[j], 0) + a
            acc = {o: a for o, a in acc.items() if a}
            key = (rhs, frozenset(acc.items()))
            if key in seen or not acc and rhs >= 0:
                continue
            seen.add(key)
            folded.add_le(acc, rhs)
        return folded, orbit

    # -- solving ------------------------------------------------------------

    def maximize(self, objective: dict) -> tuple:
        """(LPOutcome, raw LPResult) of the max over N^depth(h), taken over
        the LP folded by the symmetries of h and the objective (`_fold`;
        each folded LP is kept and re-solved from its last feasible basis).
        The raw result is the folded optimum expanded back to the presolved
        LP's columns (`y_matrix` reads the lifted matrix through `_col`),
        with no duals; the outcome's point is built on the first read."""
        gens = _generators(symmetries(self.h, objective))
        if gens not in self._folds:
            self._folds[gens] = self._fold(gens)
        lp, orbit = self._folds[gens]
        obj = {}
        for v, col in self._diag:
            if col is not None and (c := objective.get(v)):
                o = orbit[col]
                obj[o] = obj[o] + c if o in obj else c
        res = lp.maximize(obj)
        if res.status == "infeasible":
            return LPOutcome(status="infeasible"), res
        if res.status == "unbounded":
            raise RuntimeError("N lift unbounded: relaxation lacks bound rows")
        basic = res.primal.basic
        res = LPResult(status="optimal", value=res.value, pivots=res.pivots,
                       primal=Primal(len(orbit), {j: q for j, o in enumerate(orbit)
                                                  if (q := basic.get(o))}))
        return LPOutcome(status="optimal", value=res.value,
                         point=partial(_lift_point, self._diag, res.primal)), res

    def y_matrix(self, res) -> list:
        """The top lifted matrix as an (n+1)x(n+1) Fraction grid, 0 at
        every entry the presolve dropped."""
        n = self.h.dim
        y = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
        y[0][0] = Fraction(1)
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                col = self._col.get(((), (i, j)))
                if col is not None:
                    y[i][j] = y[j][i] = res.primal[col]
        for j in range(1, n + 1):
            y[0][j] = y[j][0] = y[j][j]
        return y


def _lift_point(diag, primal) -> dict:
    """x_v = Y_vv from a lift optimum's primal, by `NLiftSystem._diag`."""
    return {v: Fraction(0) if col is None else primal[col] for v, col in diag}


def _generators(group) -> tuple:
    """A generating set of a group of position maps (`polyhedra.symmetries`,
    the identity first): the least rotation in it and its first
    reflection, where there are such."""
    n = len(group[0])
    rotations = [p for p in group[1:] if (p[1] - p[0]) % n == 1]
    reflections = [p for p in group[1:] if (p[1] - p[0]) % n != 1]
    return tuple(rotations[:1] + reflections[:1])


def _presolve(rows, nv):
    """(rows, col): the int rows (dict var->coefficient, rhs), each row <=
    rhs over nv variables >= 0, as (dict column->coefficient, rhs) rows in
    coprime integer form (`simplex._coprime`), col numbering densely the
    variables not forced to 0.  A row with rhs 0
    whose remaining coefficients are all positive forces its variables to
    0, to a fixpoint (a pass after the first reads only the rows that
    share a variable with the rows the pass before it fired); they leave
    every row, and rows left empty, lone -x <= 0 rows and duplicates go,
    a positive multiple of a row kept being a duplicate.
    Each pass of the fixpoint and each row kept check the deadline."""
    zero, scan = set(), rows
    while scan:
        _check_deadline()
        grew = set()
        for coeffs, rhs in scan:
            if rhs:
                continue
            live = [c for v, c in coeffs.items() if v not in zero]
            if live and min(live) > 0:
                grew.update(coeffs)
                zero.update(coeffs)
        # the next pass reads only the rows this one may have changed
        scan = [row for row in rows if not grew.isdisjoint(row[0])]
    col = {v: i for i, v in enumerate(v for v in range(nv) if v not in zero)}
    seen = set()
    out = []
    for coeffs, rhs in rows:
        _check_deadline()
        live = {col[v]: c for v, c in coeffs.items() if v not in zero}
        if not live:
            if rhs < 0:
                raise RuntimeError("inconsistent constant row in lift")
            continue
        if not rhs and len(live) == 1 and min(live.values()) < 0:
            continue
        live, rhs = _coprime(live, rhs)
        key = (rhs, frozenset(live.items()))
        if key not in seen:
            seen.add(key)
            out.append((live, rhs))
    return out, col


_NLIFT_CACHE: dict = {}     # (id(h), depth) -> the last system built with cache=True


def n_lift_system(h: HPolytope, depth: int, cache: bool = True) -> NLiftSystem:
    """The lift system of N^depth(h), after the depth cap check, which a
    kept system meets too.  With `cache` the last one built is kept for
    the same h object (the system holds h, so its id is not reused), and
    dropped before any build, so no two systems are held at once."""
    _check_depth_cap(depth)
    key = (id(h), depth)
    if cache and key in _NLIFT_CACHE:
        return _NLIFT_CACHE[key]
    _NLIFT_CACHE.clear()
    sys_ = NLiftSystem(h, depth)
    if cache:
        _NLIFT_CACHE[key] = sys_
    return sys_


def n_operator_max(objective: dict, h: HPolytope, depth: int = 1,
                   known: LPOutcome | None = None) -> LPOutcome:
    """Exact max of the objective over N^depth(h).

    `known`, an optimal outcome of the same objective's max over h
    (`lp_max`, whose point `check_optimal` has proved in h), settles the
    max when its point is 0/1: N^depth(h) lies in h, and a 0/1 point x
    of h lies in N^depth(h) (Y = (1, x)(1, x)^T at every level), so the
    max is known.value, returned with no lift built and no LP solved.
    The depth cap and the deadline still hold on that path."""
    if known is not None and all(x in (0, 1) for x in known.point.values()):
        _check_depth_cap(depth)
        _check_deadline()
        return LPOutcome(status="optimal", value=known.value, point=known.point)
    return n_lift_system(h, depth).maximize(objective)[0]


def n_operator_valid(ineq: LinearInequality, h: HPolytope, depth: int = 1):
    """Is a.x <= b valid for N^depth(h)?  (bool, certificate).  A
    violating point carries the top lifted matrix Y; at depth 1 Y is
    re-verified against the cone conditions (`recheck.check_n_matrix`)
    and the point against the row (`recheck.check_point`)."""
    sys_ = n_lift_system(h, depth)
    out, raw = sys_.maximize(ineq.coeffs)
    if out.status == "infeasible":
        return True, {"depth": depth}
    if out.value <= ineq.rhs:
        return True, {"depth": depth, "value": out.value}
    y = sys_.y_matrix(raw)
    if depth == 1:
        check_n_matrix(h, y)
        check_point(h, (), out.point, ineq)
    return False, {"depth": depth, "point": out.point, "Y": y, "value": out.value}
