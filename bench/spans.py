"""Span recorder for the traced pass, installed from outside the package.

The recorder and the query clock (clock.py) both work by replacing
function bindings with wrappers.  Modules such as `rank`, `cli` and
`recheck` import entry points by name
(`from .liftproject import piece_lp_max`), so a wrapper installed only
in the defining module would miss their calls: `patch_function` replaces
every binding of the original object in every loaded `webrank` module.
Methods are patched on their class, which every caller shares.

The recorder is used only in the separate traced pass; untraced passes
carry the query clock alone.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

PACKAGE = "webrank"


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def patch_function(module, name, make_wrapper, only_in=None):
    """Replace `module.name` by make_wrapper(original) where it is bound.

    `only_in` restricts the patch to the bindings in the listed modules
    (the callers whose calls should be seen).  Returns an undo callable.
    """
    orig = getattr(module, name)
    wrapper = make_wrapper(orig)
    targets = only_in if only_in is not None else _package_modules()
    undo = []
    for mod in targets:
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr))
    if not undo:
        raise LookupError(f"{module.__name__}.{name} is bound nowhere")

    def restore():
        for mod, attr in undo:
            setattr(mod, attr, orig)
    return restore


def patch_method(cls, name, make_wrapper):
    orig = cls.__dict__[name]
    setattr(cls, name, make_wrapper(orig))
    return lambda: setattr(cls, name, orig)


# ---------------------------------------------------------------------------
# span recorder

def _bits(values):
    best = 0
    for v in values:
        if v is None:
            continue
        q = Fraction(v)
        best = max(best, q.numerator.bit_length(), q.denominator.bit_length())
    return best


class SpanRecorder:
    """Spans at layer boundaries, kept in memory, with per-name totals.

    A span is (name, start_ns, end_ns, parent span index, query id).  Self
    time is a span's duration minus the durations of its direct children.
    """

    def __init__(self, clock=None):
        self.clock = clock
        self.spans = []
        self.calls = {}
        self.total_ns = {}
        self.self_ns = {}
        self.counts = {}
        self._stack = []             # [span index, start_ns, child_ns]
        self._undo = []

    def count(self, key, by=1):
        self.counts[key] = self.counts.get(key, 0) + by

    def parent_name(self):
        return self.spans[self._stack[-1][0]][0] if self._stack else None

    def wrap(self, name, before=None, after=None):
        """Wrapper factory; before(args, kwargs) -> ctx,
        after(args, kwargs, result, ctx) runs after the span closes."""
        def make(fn):
            def traced(*args, **kwargs):
                ctx = before(args, kwargs) if before else None
                parent = self._stack[-1][0] if self._stack else -1
                qid = len(self.clock.marks) if self.clock else 0
                idx = len(self.spans)
                self.spans.append([name, 0, 0, parent, qid])
                self.calls[name] = self.calls.get(name, 0) + 1
                frame = [idx, time.perf_counter_ns(), 0]
                self._stack.append(frame)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter_ns()
                    self._stack.pop()
                    dur = end - frame[1]
                    self.spans[idx][1:3] = [frame[1], end]
                    self.total_ns[name] = self.total_ns.get(name, 0) + dur
                    self.self_ns[name] = self.self_ns.get(name, 0) + dur - frame[2]
                    if self._stack:
                        self._stack[-1][2] += dur
                if after:
                    after(args, kwargs, out, ctx)
                return out
            return traced
        return make

    def install(self):
        """Wrap the public entry points of every layer module."""
        from webrank import (cli, graphs, inequalities, liftproject,
                             polyhedra, rank, recheck, reporting, simplex)

        def fn(mod, name, **hooks):
            label = f"{mod.__name__.removeprefix(PACKAGE + '.')}.{name}"
            self._undo.append(patch_function(mod, name, self.wrap(label, **hooks)))

        def meth(cls, name, label, **hooks):
            self._undo.append(patch_method(cls, name, self.wrap(label, **hooks)))

        # simplex: one fresh tableau per solve; resolve() keeps adding to the
        # tableau's running pivot total, so record the increase per call.
        meth(simplex.LinearProgram, "solve", "simplex.solve", after=self._after_solve)
        meth(simplex.LinearProgram, "resolve", "simplex.resolve",
             before=lambda a, k: getattr(a[0]._tab, "pivots", 0), after=self._after_resolve)

        fn(polyhedra, "lp_max")
        fn(polyhedra, "convex_hull_facets", after=self._after_hull)
        fn(polyhedra, "qstab")
        fn(polyhedra, "stab")

        fn(graphs, "find_induced_odd_hole",
           after=lambda a, k, out, c: self.count("odd_hole_hits", out is not None))
        fn(graphs, "is_perfect")
        fn(graphs, "complement")
        fn(graphs, "delete_nodes")
        fn(graphs, "enumerate_stable_sets",
           after=lambda a, k, out, c: self.count("stable_sets", len(out)))
        fn(graphs, "enumerate_maximal_cliques")

        fn(liftproject, "piece_lp_max", before=self._before_piece)
        fn(liftproject, "disjunctive_valid", before=self._before_valid,
           after=lambda a, k, out, c: self.count("valid_violated", not out[0]))
        fn(liftproject, "disjunctive_member",
           after=lambda a, k, out, c: self.count("member_in", bool(out[0])))
        fn(liftproject, "n_lift_system")
        meth(liftproject.NLiftSystem, "__init__", "liftproject.NLiftSystem")
        fn(liftproject, "n_operator_max", before=self._before_nmax, after=self._after_nmax)

        for name in ("rank_constraint", "antiweb_constraint", "one_interval_inequality",
                     "joined_inequality", "stab_description_w2_polytope",
                     "tag_inequality"):
            fn(inequalities, name)

        fn(rank, "disjunctive_rank_graph",
           after=lambda a, k, out, c: self.count("pool_size",
                                                 len(out.lower_bound_witnesses)))
        fn(rank, "disjunctive_rank_inequality")
        for name in ("verify_rdfar", "verify_web_rank_formulas",
                     "verify_operator_sandwich"):
            fn(rank, name)

        fn(recheck, "recheck_report")
        fn(recheck, "recheck_certificate", before=self._before_recheck,
           after=self._after_recheck)

        meth(reporting.Report, "to_json_str", "reporting.to_json_str",
             after=lambda a, k, out, c: self.count("report_bytes", len(out)))
        fn(cli, "main")

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    # -- per-call hooks ------------------------------------------------------

    def _after_solve(self, args, kwargs, res, ctx):
        lp = args[0]
        self.count("solve_rows", len(lp.rows))
        self.count("solve_cols", lp.nv)
        self.count("solve_cells", len(lp.rows) * lp.nv)
        self.count("solve_nonzeros", sum(1 for coeffs, _, _ in lp.rows
                                         for c in coeffs if c))
        self.count("solve_phase1", any(kind == "=" or rhs < 0
                                       for _, rhs, kind in lp.rows))
        self.count("solve_infeasible", res.status == "infeasible")
        self._lp_result(res, res.pivots)

    def _after_resolve(self, args, kwargs, res, before_pivots):
        self._lp_result(res, res.pivots - before_pivots)

    def _lp_result(self, res, pivots):
        self.count("pivots", pivots)
        bits = _bits([res.value] + list(res.x or ()) + list(res.duals or ()))
        self.counts["result_bits_max"] = max(self.counts.get("result_bits_max", 0), bits)

    def _after_hull(self, args, kwargs, out, ctx):
        self.count("hull_points", len(args[0].points))
        self.count("facets", len(out))

    def _before_piece(self, args, kwargs):
        if kwargs.get("pivot_rule", args[3] if len(args) > 3 else "hybrid") == "bland":
            self.count("bland_lps")

    def _before_valid(self, args, kwargs):
        if self.parent_name() == "rank.disjunctive_rank_inequality":
            self.count("f_candidates")

    @staticmethod
    def _before_nmax(args, kwargs):
        depth = kwargs.get("depth", args[2] if len(args) > 2 else 1)
        return time.perf_counter_ns() if depth == 2 else None

    def _after_nmax(self, args, kwargs, out, started):
        if started is not None:
            self.count("nmax_d2_ns", time.perf_counter_ns() - started)

    def _before_recheck(self, args, kwargs):
        return self.parent_name() != "recheck.recheck_certificate"

    def _after_recheck(self, args, kwargs, out, top_level):
        if top_level:
            self.count("recheck_certs")
            self.count("recheck_failed", not out[0])

    # -- per-layer metrics ---------------------------------------------------

    def layer_metrics(self, scale=1.0) -> dict:
        """Per-layer metrics; `scale` converts raw seconds to reported ones."""
        def calls(name):
            return self.calls.get(name, 0)

        def self_s(*names):
            return sum(self.self_ns.get(n, 0) for n in names) * scale / 1e9

        def total_s(*names):
            return sum(self.total_ns.get(n, 0) for n in names) * scale / 1e9

        def c(key):
            return self.counts.get(key, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        solves = calls("simplex.solve")
        lift_calls = calls("liftproject.n_lift_system")
        recheck_names = [n for n in self.self_ns if n.startswith("recheck.")]
        ineq_names = [n for n in self.total_ns if n.startswith("inequalities.")]
        return {
            "simplex.solves": solves,
            "simplex.resolves": calls("simplex.resolve"),
            "simplex.pivots": c("pivots"),
            "simplex.busy_s": self_s("simplex.solve", "simplex.resolve"),
            "simplex.rows": ratio(c("solve_rows"), solves),
            "simplex.cols": ratio(c("solve_cols"), solves),
            "simplex.density": ratio(c("solve_nonzeros"), c("solve_cells")),
            "simplex.phase1_share": ratio(c("solve_phase1"), solves),
            "simplex.infeasible_share": ratio(c("solve_infeasible"), solves),
            "simplex.result_bits_max": c("result_bits_max"),
            "liftproject.piece_lps": calls("liftproject.piece_lp_max"),
            "liftproject.piece_busy_s": self_s("liftproject.piece_lp_max"),
            "liftproject.valid_calls": calls("liftproject.disjunctive_valid"),
            "liftproject.valid_violated_ratio": ratio(
                c("valid_violated"), calls("liftproject.disjunctive_valid")),
            "liftproject.member_calls": calls("liftproject.disjunctive_member"),
            "liftproject.member_in_ratio": ratio(
                c("member_in"), calls("liftproject.disjunctive_member")),
            "liftproject.member_busy_s": self_s("liftproject.disjunctive_member"),
            "liftproject.nlift_builds": calls("liftproject.NLiftSystem"),
            "liftproject.nlift_build_s": total_s("liftproject.NLiftSystem"),
            "liftproject.nlift_cache_hit_ratio": ratio(
                lift_calls - calls("liftproject.NLiftSystem"), lift_calls),
            "liftproject.nmax_calls": calls("liftproject.n_operator_max"),
            "liftproject.nmax_busy_s": self_s("liftproject.n_operator_max"),
            "liftproject.nmax_d2_s": c("nmax_d2_ns") * scale / 1e9,
            "polyhedra.hulls": calls("polyhedra.convex_hull_facets"),
            "polyhedra.hull_points": c("hull_points"),
            "polyhedra.facets": c("facets"),
            "polyhedra.hull_busy_s": self_s("polyhedra.convex_hull_facets"),
            "polyhedra.lp_max_calls": calls("polyhedra.lp_max"),
            "polyhedra.lp_max_busy_s": self_s("polyhedra.lp_max"),
            "graphs.odd_hole_calls": calls("graphs.find_induced_odd_hole"),
            "graphs.odd_hole_busy_s": self_s("graphs.find_induced_odd_hole"),
            "graphs.odd_hole_hit_ratio": ratio(
                c("odd_hole_hits"), calls("graphs.find_induced_odd_hole")),
            "graphs.stable_sets": c("stable_sets"),
            "graphs.enum_busy_s": self_s("graphs.enumerate_stable_sets",
                                         "graphs.enumerate_maximal_cliques"),
            "rank.graph_ranks": calls("rank.disjunctive_rank_graph"),
            "rank.graph_rank_busy_s": self_s("rank.disjunctive_rank_graph"),
            "rank.pool_size": c("pool_size"),
            "rank.ineq_ranks": calls("rank.disjunctive_rank_inequality"),
            "rank.f_candidates": c("f_candidates"),
            "recheck.certs": c("recheck_certs"),
            "recheck.bland_lps": c("bland_lps"),
            "recheck.busy_s": self_s(*recheck_names),
            "recheck.failed": c("recheck_failed"),
            "reporting.serialize_s": total_s("reporting.to_json_str"),
            "reporting.bytes": c("report_bytes"),
            "inequalities.build_s": total_s(*ineq_names),
            "trace.spans": len(self.spans),
        }

    def spans_json(self) -> list:
        return [{"name": n, "start_ns": s, "end_ns": e, "parent": p, "query": q}
                for n, s, e, p, q in self.spans]
