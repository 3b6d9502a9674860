"""Command line front end.

Subcommands: generate, rank, verify, recheck, hull, lp.  Exit codes:
0 pass, 1 assertion failure, 2 resource cap / time budget, 3 input
error, 4 internal error (a RuntimeError such as a failed certificate
check, the simplex pivot limit or an unbounded relaxation, reported as
one "internal error: ..." line on stderr).  Machine output is JSON with
exact rationals ("p/q" strings), byte-identical for a fixed seed and
config; human tables render the same exact values.

    webrank generate W:8:2 --out w82
    webrank rank graph W:9:2 --operator disjunctive
    webrank rank ineq rank-constraint W:10:2 --operator N --rmax 1
    webrank verify web-formulas --ks 2,3,4 --nmax 16
    webrank verify rdfar --nmax 11
    webrank recheck report.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from itertools import product

from .graphs import (
    AntiwebId,
    ResourceCapExceeded,
    SearchTimeout,
    WebId,
    as_nodeset,
    parse_graph_spec,
    to_dimacs,
    to_json_dict,
)
from .inequalities import (
    antiweb_constraint,
    enumerate_one_interval_sets,
    join_blocks_of,
    joined_inequality,
    one_interval_inequality,
    rank_constraint,
    tag_inequality,
)
from .liftproject import PieceSystem, disjunctive_member, n_operator_max, piece_max
from .polyhedra import (
    convex_hull_facets,
    frac,
    frac_to_str,
    lp_max,
    qstab,
    stab,
)
from .rank import (
    disjunctive_rank_graph,
    disjunctive_rank_graph_polyhedral,
    disjunctive_rank_inequality,
    n_rank_graph_upto,
    n_rank_inequality_upto,
    verify_join_bound,
    verify_operator_sandwich,
    verify_rdfar,
    verify_w2_description,
    verify_web_rank_formulas,
)
from .recheck import recheck_report
from .reporting import Report

EXIT_OK, EXIT_FAIL, EXIT_CAP, EXIT_INPUT, EXIT_INTERNAL = 0, 1, 2, 3, 4


@dataclass
class RunConfig:
    """Caps and output knobs shared by all subcommands."""

    hull_bound: int = 12
    piece_cap: int = 12
    depth_cap: int = 2
    stab_bound: int = 18
    time_budget: float | None = None
    fmt: str = "table"
    seed: int = 0

    @property
    def deadline(self):
        return None if self.time_budget is None else time.monotonic() + self.time_budget


def _add_common(p):
    p.add_argument("--hull-bound", type=int, default=12)
    p.add_argument("--piece-cap", type=int, default=12)
    p.add_argument("--depth-cap", type=int, default=2)
    p.add_argument("--stab-bound", type=int, default=18)
    p.add_argument("--time-budget", type=float, default=None,
                   help="seconds before searches abort (exit 2)")
    p.add_argument("--format", dest="fmt", choices=("table", "json"), default="table")
    p.add_argument("--seed", type=int, default=0)


def _config(args) -> RunConfig:
    return RunConfig(args.hull_bound, args.piece_cap, args.depth_cap,
                     args.stab_bound, args.time_budget,
                     args.fmt, args.seed)


def _parse_range(text: str):
    """"6..10" or "6,9,12" -> list of ints."""
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def _emit(report: Report, cfg: RunConfig, out=None) -> int:
    text = report.to_json_str() if cfg.fmt == "json" else report.to_table()
    if out:
        with open(out, "w") as fh:
            fh.write(report.to_json_str())
            fh.write("\n")
        print(f"report written to {out}")
    if not out or cfg.fmt == "table":
        print(text)
    return EXIT_OK if report.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# subcommands

def cmd_generate(args, cfg) -> int:
    g = parse_graph_spec(args.spec)
    dim = to_dimacs(g)
    js = json.dumps(to_json_dict(g), sort_keys=True, separators=(",", ":"))
    if args.out:
        with open(args.out + ".dimacs", "w") as fh:
            fh.write(dim)
        with open(args.out + ".json", "w") as fh:
            fh.write(js + "\n")
        print(f"wrote {args.out}.dimacs and {args.out}.json "
              f"({g.n} nodes, {g.edge_count()} edges)")
    else:
        sys.stdout.write(dim)
        print(js)
    return EXIT_OK


def _build_row(family: str, g):
    if family == "rank-constraint":
        return rank_constraint(g), True
    if family == "antiweb":
        if not (g.family and g.family[0] == "antiweb"):
            raise ValueError("antiweb family rows need an A:n:k graph spec")
        row, _ = antiweb_constraint(AntiwebId(g.family[1], g.family[2]))
        return row, True
    if family.startswith("one-interval"):
        if not (g.family and g.family[0] == "web" and g.family[2] == 2):
            raise ValueError("one-interval rows need a W:n:2 graph spec")
        idx = int(family.split(":")[1]) if ":" in family else 0
        sets = enumerate_one_interval_sets(g.family[1])
        if idx >= len(sets):
            raise ValueError(f"one-interval index {idx} out of range "
                             f"({len(sets)} sets)")
        return one_interval_inequality(WebId(g.family[1], 2), sets[idx]), False
    if family == "joined":
        return joined_inequality(join_blocks_of(g)), False
    raise ValueError(f"unknown inequality family {family!r}")


def cmd_rank(args, cfg) -> int:
    g = parse_graph_spec(args.spec)
    cert = None
    if args.target == "graph":
        if args.operator == "disjunctive":
            if args.polyhedral:
                rank = disjunctive_rank_graph_polyhedral(
                    g, cfg.hull_bound, cfg.stab_bound, cfg.piece_cap)
                result = {"target": args.spec, "operator": "disjunctive",
                          "route": "polyhedral", "rank": rank}
            else:
                res = disjunctive_rank_graph(g, deadline=cfg.deadline)
                cert = res.to_json(g)
                result = {"target": args.spec, "operator": "disjunctive",
                          "route": "combinatorial", "rank": res.rank,
                          "deletion_set": list(res.deletion_set)}
        else:
            r = n_rank_graph_upto(g, args.rmax, cfg.hull_bound, cfg.stab_bound,
                                  cfg.depth_cap)
            if r is None:
                print(f"N-rank of {args.spec} exceeds rmax={args.rmax} "
                      f"(lower bound {args.rmax + 1}); raise --rmax/--depth-cap")
                return EXIT_CAP
            result = {"target": args.spec, "operator": "N", "rank": r}
    else:
        row, symmetric = _build_row(args.family, g)
        h = qstab(g)
        if args.operator == "disjunctive":
            res = disjunctive_rank_inequality(
                row, h, cyclic=symmetric and g.family is not None,
                piece_cap=cfg.piece_cap)
            cert = res.to_json(row, h)
            result = {"target": args.spec, "family": args.family,
                      "operator": "disjunctive", "rank": res.rank,
                      "witness_f": list(res.witness_f)}
        else:
            r = n_rank_inequality_upto(row, h, args.rmax, cfg.depth_cap)
            if r is None:
                print(f"N-rank of the row exceeds rmax={args.rmax}")
                return EXIT_CAP
            result = {"target": args.spec, "family": args.family,
                      "operator": "N", "rank": r}
    if args.cert and cert is not None:
        with open(args.cert, "w") as fh:
            json.dump({"suite": "rank", "entries": [
                {"name": f"rank {args.target} {args.spec}", "status": "info",
                 "certificate": cert}]}, fh, sort_keys=True,
                separators=(",", ":"))
            fh.write("\n")
    if cfg.fmt == "json":
        print(json.dumps(result, sort_keys=True, separators=(",", ":")))
    else:
        print(" ".join(f"{k}={v}" for k, v in result.items()))
    return EXIT_OK


def cmd_verify(args, cfg) -> int:
    nmax_default = {"web-formulas": 12, "rdfar": 11, "operators": 9}
    nmax = args.nmax if args.nmax is not None else nmax_default.get(args.suite)
    if args.suite == "web-formulas":
        rep = verify_web_rank_formulas(
            ks=_parse_range(args.ks), n_max=nmax,
            complements=not args.no_complements, deadline=cfg.deadline)
    elif args.suite == "rdfar":
        rep = Report("rdfar", {"nmax": nmax, "exhaustive": args.exhaustive})
        from math import gcd
        for n in range(4, nmax + 1):
            for k in range(2, n // 2 + 1):
                if gcd(n, k) == 1:
                    sub = verify_rdfar(AntiwebId(n, k), exhaustive=args.exhaustive,
                                       piece_cap=cfg.piece_cap, seed=cfg.seed)
                    rep.entries.extend(sub.entries)
    elif args.suite == "w2":
        rep = verify_w2_description(_parse_range(args.n_values),
                                    cfg.hull_bound, cfg.stab_bound)
    elif args.suite == "join":
        host = parse_graph_spec(args.spec)
        rep = verify_join_bound(join_blocks_of(host), cfg.piece_cap,
                                deadline=cfg.deadline)
    elif args.suite == "operators":
        rep = verify_operator_sandwich(nmax, args.objectives, cfg.seed,
                                       cfg.stab_bound)
    else:
        raise ValueError(f"unknown suite {args.suite!r}")
    return _emit(rep, cfg, args.out)


def cmd_recheck(args, cfg) -> int:
    with open(args.path) as fh:
        data = json.load(fh)
    rep = recheck_report(data)
    return _emit(rep, cfg, args.out)


def cmd_hull(args, cfg) -> int:
    g = parse_graph_spec(args.spec)
    facets = convex_hull_facets(stab(g, cfg.stab_bound), cfg.hull_bound)
    rows = []
    for f in facets:
        tag = tag_inequality(g, f, cfg.stab_bound)
        d = f.to_json()
        d["tag"] = tag
        rows.append(d)
    payload = {"graph": args.spec, "facets": rows}
    if cfg.fmt == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(f"{len(rows)} facets of STAB({args.spec}):")
        for f, d in zip(facets, rows):
            print(f"  {f!r}  tag={d['tag']}")
    return EXIT_OK


def _parse_point(text: str, index) -> dict:
    from fractions import Fraction
    vals = [Fraction(x) for x in text.split(",")]
    if len(vals) != len(index):
        raise ValueError(f"point needs {len(index)} entries")
    return dict(zip(index, vals))


def cmd_lp(args, cfg) -> int:
    """Plain relaxation max, or the lift-and-project oracles on it.

    --operator N maximizes over N^depth(qstab); --operator disjunctive
    maximizes over P_F(qstab) for --f; --member decides membership of a
    point in P_F(qstab) instead of maximizing.
    """
    g = parse_graph_spec(args.spec)
    h = qstab(g) if args.relaxation == "qstab" else frac(g)
    f = as_nodeset(int(x) for x in args.f.split(",")) if args.f else ()
    if args.member:
        point = _parse_point(args.member, h.index)
        member, cert = disjunctive_member(point, h, f, cfg.piece_cap)
        payload = {"graph": args.spec, "relaxation": args.relaxation,
                   "f": list(f), "member": member,
                   "certificate": cert.to_json()}
        if cfg.fmt == "json":
            print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        else:
            verdict = "inside" if member else "outside"
            print(f"point is {verdict} P_F({args.relaxation}({args.spec})) "
                  f"for F={list(f)}")
        return EXIT_OK
    if args.objective:
        vals = [int(x) for x in args.objective.split(",")]
        if len(vals) != g.n:
            raise ValueError(f"objective needs {g.n} entries")
        obj = dict(zip(h.index, vals))
    else:
        obj = {v: 1 for v in h.index}
    if args.operator == "N":
        out = n_operator_max(obj, h, args.depth, cfg.depth_cap)
        over = f"N^{args.depth}({args.relaxation}({args.spec}))"
    elif args.operator == "disjunctive":
        out = piece_max([PieceSystem(h, dict(zip(f, z)))
                         for z in product((0, 1), repeat=len(f))], obj)
        over = f"P_F({args.relaxation}({args.spec})), F={list(f)}"
    else:
        out = lp_max(h, obj)
        over = f"{args.relaxation}({args.spec})"
    payload = {"graph": args.spec, "relaxation": args.relaxation,
               "operator": args.operator, "status": out.status,
               "value": frac_to_str(out.value) if out.value is not None else None,
               "point": {str(k): frac_to_str(v)
                         for k, v in sorted(out.point.items())} if out.point else None}
    if cfg.fmt == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(f"max over {over} = {payload['value']} at {payload['point']}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="webrank", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a graph as DIMACS + JSON")
    p.add_argument("spec")
    p.add_argument("--out", help="basename for .dimacs/.json files")
    _add_common(p)

    p = sub.add_parser("rank", help="rank of a graph or of one inequality")
    p.add_argument("target", choices=("graph", "ineq"))
    p.add_argument("family", nargs="?", default="rank-constraint",
                   help="ineq only: rank-constraint | antiweb | one-interval[:i] | joined")
    p.add_argument("spec")
    p.add_argument("--operator", choices=("disjunctive", "N"), default="disjunctive")
    p.add_argument("--rmax", type=int, default=1)
    p.add_argument("--polyhedral", action="store_true",
                   help="graph rank via exhaustive F + hull facets (oracle route)")
    p.add_argument("--cert", help="write the certificate JSON here")
    _add_common(p)

    p = sub.add_parser("verify", help="run a theorem verification suite")
    p.add_argument("suite", choices=("web-formulas", "rdfar", "w2", "join",
                                     "operators"))
    p.add_argument("--ks", default="2,3,4")
    p.add_argument("--nmax", type=int, default=None,
                   help="per-suite defaults: web-formulas 12, rdfar 11, operators 9")
    p.add_argument("--n-values", default="6..9")
    p.add_argument("--objectives", type=int, default=10)
    p.add_argument("--spec", default="join:A:5:2,A:5:2")
    p.add_argument("--exhaustive", action="store_true", default=True)
    p.add_argument("--sampled", dest="exhaustive", action="store_false")
    p.add_argument("--no-complements", action="store_true")
    p.add_argument("--out", help="write the JSON report here")
    _add_common(p)

    p = sub.add_parser("recheck", help="re-verify certificates in a report")
    p.add_argument("path")
    p.add_argument("--out")
    _add_common(p)

    p = sub.add_parser("hull", help="facets of STAB(G) with family tags")
    p.add_argument("spec")
    _add_common(p)

    p = sub.add_parser("lp", help="exact LP max over a relaxation or a lift of it")
    p.add_argument("spec")
    p.add_argument("--relaxation", choices=("qstab", "frac"), default="qstab")
    p.add_argument("--objective", help="comma-separated integer objective")
    p.add_argument("--operator", choices=("none", "disjunctive", "N"),
                   default="none")
    p.add_argument("--f", help="fixed coordinates for the disjunctive piece hull")
    p.add_argument("--depth", type=int, default=1, help="N iterations")
    p.add_argument("--member",
                   help="comma-separated rational point: decide x in P_F instead")
    _add_common(p)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = _config(args)
    handlers = {"generate": cmd_generate, "rank": cmd_rank, "verify": cmd_verify,
                "recheck": cmd_recheck, "hull": cmd_hull, "lp": cmd_lp}
    try:
        return handlers[args.command](args, cfg)
    except ResourceCapExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except SearchTimeout as exc:
        print(f"time budget exhausted: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
