"""Command line front end.

Subcommands: generate, rank, verify, recheck, hull, lp.  Exit codes:
0 pass, 1 assertion failure, 2 resource cap / time budget, 3 input
error (a usage error too; --help exits 0), 4 internal error (a
RuntimeError such as a failed certificate check, the simplex pivot
limit or an unbounded relaxation, reported as one "internal error: ..."
line on stderr).  Machine output is JSON with exact rationals ("p/q"
strings), byte-identical for a fixed seed and config; human tables
render the same exact values.  Caps (exit 2 when hit): --hull-bound on
the hull dimension, which is also the node count whose stable sets a
hull enumerates; --piece-cap on |F| in every piece scan, lp --operator
disjunctive and the piece checks of recheck included; --depth-cap on
the N depth.  --time-budget gives the run that many seconds: every
search and every LP checks it; a budget that is not finite is an input
error.  `main` sets the caps given, and the budget, as `graphs.LIMITS`
for the run.  Each route takes only the options it reads, one parser per
verify suite and rank target, and `check_route` for an option that only
some --operator reads; `webrank <command> [suite|target] --help` lists
them.  A max over STAB without a hull (alpha, the row-rank check against
STAB, the sandwich) is a stable set search, with no cap and no budget
check of its own.

    webrank generate W:8:2 --out w82
    webrank rank graph W:9:2 --operator disjunctive
    webrank rank ineq rank-constraint W:10:2 --operator N --rmax 1
    webrank verify web-formulas --ks 2,3,4 --nmax 16
    webrank verify rdfar --nmax 11
    webrank verify join --spec join:K:14,A:5:2
    webrank hull K:19 --hull-bound 19
    webrank recheck report.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from functools import cache

from .graphs import (AntiwebId, ResourceCapExceeded, SearchTimeout, WebId, as_nodeset, limits,
                     parse_graph_spec, to_dimacs, to_json_dict)
from .inequalities import (antiweb_constraint, enumerate_one_interval_sets, join_blocks_of,
                           joined_inequality, one_interval_inequality, rank_constraint,
                           tag_inequality)
from .liftproject import disjunctive_member, n_operator_max, piece_max, piece_systems
from .polyhedra import convex_hull_facets, frac, lp_max, qstab, stab
from .rank import (disjunctive_rank_graph, disjunctive_rank_inequality, n_rank_graph_upto,
                   n_rank_inequality_upto, verify_join_bound, verify_operator_sandwich,
                   verify_rdfar, verify_w2_description, verify_web_rank_formulas)
from .recheck import recheck_report
from .reporting import Report, dump, dumps, frac_to_str, read_rational

EXIT_OK, EXIT_FAIL, EXIT_CAP, EXIT_INPUT, EXIT_INTERNAL = 0, 1, 2, 3, 4


def _budget(text: str) -> float:
    """A finite number of seconds: a nan or inf budget would bound nothing,
    since no time is later than a nan or inf deadline."""
    seconds = float(text)
    if not math.isfinite(seconds):
        raise argparse.ArgumentTypeError(f"not a finite number of seconds: {text}")
    return seconds


# The options by flag, but --nmax, whose default is per suite, --out,
# --operator, --relaxation and the positionals.  Each cap, and each
# option that only some routes read, defaults to None: a cap not given
# keeps its graphs.LIMITS value, and `check_route` rejects an option
# given to a route that does not read it.
_OPTIONS = {"--hull-bound": dict(type=int, help="cap on the hull dimension"),
            "--piece-cap": dict(type=int, help="cap on |F| in a piece scan"),
            "--depth-cap": dict(type=int, help="cap on the N depth"),
            "--time-budget": dict(type=_budget, help="seconds before searches abort (exit 2)"),
            "--format": dict(dest="fmt", choices=("table", "json"), default="table"),
            "--ks": dict(default="2,3,4"),
            "--no-complements": dict(action="store_true"),
            "--n-values": dict(default="6..9"),
            "--spec": dict(default="join:A:5:2,A:5:2"),
            "--objectives": dict(type=int, default=10),
            "--seed": dict(type=int, default=0),
            "--rmax": dict(type=int, help="largest N depth tried (default 1)"),
            "--cert": dict(help="write the certificate JSON here"),
            "--objective": dict(help="comma-separated integer objective (default all ones)"),
            "--f": dict(help="fixed coordinates for the disjunctive piece hull"),
            "--depth": dict(type=int, help="N iterations (default 1)"),
            "--member": dict(help="comma-separated rational point: decide x in P_F instead")}


def _add(p, *flags):
    for flag in flags:
        p.add_argument(flag, **_OPTIONS[flag])


def _add_routes(p, reads: dict):
    """The options of p that only some routes read, with `reads`, the table
    of what each route reads (kept for `check_route`, shown by --help),
    then the options that every route reads."""
    _add(p, *(flag for flag in _OPTIONS if any(flag in r for r in reads.values())),
         "--time-budget", "--format")
    p.set_defaults(reads=reads)
    p.formatter_class = argparse.RawDescriptionHelpFormatter
    p.epilog = "options that only some routes read:\n" + "\n".join(
        f"  {route}: {' '.join(f for f in _OPTIONS if f in r)}" for route, r in reads.items())


def check_route(args) -> None:
    """An option given to a route that does not read it is an input error.
    The route is the --operator, or --member beside a piece operator."""
    if not hasattr(args, "reads"):
        return              # a parser with one route
    route = f"--operator {args.operator}"
    if args.operator != "N" and getattr(args, "member", None) is not None:
        route = "--member"
    unread = [flag for flag in _OPTIONS if flag not in args.reads[route]
              and any(flag in r for r in args.reads.values())
              and getattr(args, flag[2:].replace("-", "_")) is not None]
    if unread:
        raise ValueError(f"{', '.join(unread)}: not read with {route}")


def _parse_range(text: str):
    """"6..10" or "6,9,12" -> list of ints."""
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def _emit(report: Report, args) -> int:
    text = report.to_json_str() if args.fmt == "json" else report.to_table()
    out = args.out
    if out:
        with open(out, "w") as fh:
            fh.write(text if args.fmt == "json" else report.to_json_str())
            fh.write("\n")
        print(f"report written to {out}")
    if not out or args.fmt == "table":
        print(text)
    return EXIT_OK if report.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# subcommands

def cmd_generate(args) -> int:
    g = parse_graph_spec(args.spec)
    dim = to_dimacs(g)
    js = dumps(to_json_dict(g))
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
        return rank_constraint(g)
    if family == "antiweb":
        if not (g.family and g.family[0] == "antiweb"):
            raise ValueError("antiweb family rows need an A:n:k graph spec")
        return antiweb_constraint(AntiwebId(g.family[1], g.family[2]))
    if family.startswith("one-interval"):
        if not (g.family and g.family[0] == "web" and g.family[2] == 2):
            raise ValueError("one-interval rows need a W:n:2 graph spec")
        idx = int(family.split(":")[1]) if ":" in family else 0
        sets = enumerate_one_interval_sets(g.family[1])
        if not 0 <= idx < len(sets):
            raise ValueError(f"one-interval index {idx} out of range "
                             f"({len(sets)} sets)")
        return one_interval_inequality(WebId(g.family[1], 2), sets[idx])
    if family == "joined":
        return joined_inequality(join_blocks_of(g))
    raise ValueError(f"unknown inequality family {family!r}")


def cmd_rank(args) -> int:
    rmax = 1 if args.rmax is None else args.rmax
    if rmax < 0:
        raise ValueError(f"--rmax {rmax}: no rank is below 0")
    g = parse_graph_spec(args.spec)
    if args.target == "graph":
        if args.operator == "disjunctive":
            res = disjunctive_rank_graph(g)
            cert = res.to_json(g)
            result = {"target": args.spec, "operator": "disjunctive",
                      "route": "combinatorial", "rank": res.rank,
                      "deletion_set": list(res.deletion_set)}
        else:
            r = n_rank_graph_upto(g, rmax)
            if r is None:
                print(f"N-rank of {args.spec} exceeds rmax={rmax} "
                      f"(lower bound {rmax + 1}); raise --rmax/--depth-cap")
                return EXIT_CAP
            result = {"target": args.spec, "operator": "N", "rank": r}
    else:
        row = _build_row(args.family, g)
        h = qstab(g)
        if args.operator == "disjunctive":
            res = disjunctive_rank_inequality(row, h)
            cert = res.to_json(row, h)
            result = {"target": args.spec, "family": args.family,
                      "operator": "disjunctive", "rank": res.rank,
                      "witness_f": list(res.witness_f)}
        else:
            r = n_rank_inequality_upto(row, h, rmax)
            if r is None:
                print(f"N-rank of the row exceeds rmax={rmax}")
                return EXIT_CAP
            result = {"target": args.spec, "family": args.family,
                      "operator": "N", "rank": r}
    if args.cert:
        with open(args.cert, "w") as fh:
            dump({"suite": "rank", "entries": [
                {"name": f"rank {args.target} {args.spec}", "status": "info",
                 "certificate": cert}]}, fh)
    if args.fmt == "json":
        print(dumps(result))
    else:
        print(" ".join(f"{k}={v}" for k, v in result.items()))
    return EXIT_OK


def _verify_prime_antiwebs(nmax: int) -> Report:
    """`verify_rdfar` on every prime antiweb A_n^k with n <= nmax."""
    rep = Report("rdfar", {"nmax": nmax})
    for n in range(4, nmax + 1):
        for k in range(2, n // 2 + 1):
            if math.gcd(n, k) == 1:
                rep.entries.extend(verify_rdfar(AntiwebId(n, k)).entries)
    return rep


def cmd_verify(args) -> int:
    return _emit(args.suite_run(args), args)


def cmd_recheck(args) -> int:
    with open(args.path) as fh:
        data = json.load(fh)
    return _emit(recheck_report(data), args)


def cmd_hull(args) -> int:
    g = parse_graph_spec(args.spec)
    facets = convex_hull_facets(stab(g))
    rows = [{**f.to_json(), "tag": tag_inequality(g, f)} for f in facets]
    if args.fmt == "json":
        print(dumps({"graph": args.spec, "facets": rows}))
    else:
        print(f"{len(rows)} facets of STAB({args.spec}):")
        for f, d in zip(facets, rows):
            print(f"  {f!r}  tag={d['tag']}")
    return EXIT_OK


def _parse_point(text: str, index) -> dict:
    vals = [Fraction(*read_rational(x)) for x in text.split(",")]
    if len(vals) != len(index):
        raise ValueError(f"point needs {len(index)} entries")
    return dict(zip(index, vals))


def cmd_lp(args) -> int:
    """Plain relaxation max, or the lift-and-project oracles on it.

    --operator N maximizes over N^depth(qstab); --operator disjunctive
    maximizes over P_F(qstab) for --f; --member decides membership of a
    point in P_F(qstab) instead of maximizing.
    """
    g = parse_graph_spec(args.spec)
    h = qstab(g) if args.relaxation == "qstab" else frac(g)
    f = as_nodeset(int(x) for x in args.f.split(",")) if args.f else ()
    unknown = [v for v in f if v not in h.index]
    if unknown:
        raise ValueError(f"--f names {unknown}, not nodes of {args.spec}")
    if args.member:
        point = _parse_point(args.member, h.index)
        member, cert = disjunctive_member(point, h, f)
        payload = {"graph": args.spec, "relaxation": args.relaxation,
                   "f": f, "member": member, "certificate": cert}
        if args.fmt == "json":
            print(dumps(payload))
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
        depth = 1 if args.depth is None else args.depth
        out = n_operator_max(obj, h, depth)
        over = f"N^{depth}({args.relaxation}({args.spec}))"
    elif args.operator == "disjunctive":
        out = piece_max(piece_systems(h, f), obj)
        over = f"P_F({args.relaxation}({args.spec})), F={list(f)}"
    else:
        out = lp_max(h, obj)
        over = f"{args.relaxation}({args.spec})"
    if args.fmt == "json":
        print(dumps({"graph": args.spec, "relaxation": args.relaxation,
                     "operator": args.operator, "status": out.status,
                     "value": out.value, "point": out.point or None}))
    else:
        value = None if out.value is None else frac_to_str(out.value)
        point = ({str(k): frac_to_str(v) for k, v in sorted(out.point.items())}
                 if out.point else None)
        print(f"max over {over} = {value} at {point}")
    return EXIT_OK


# ---------------------------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every in-process `main` call shares it."""
    ap = argparse.ArgumentParser(prog="webrank", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a graph as DIMACS + JSON")
    p.set_defaults(func=cmd_generate)
    p.add_argument("spec")
    p.add_argument("--out", help="basename for .dimacs/.json files")

    targets = sub.add_parser("rank", help="rank of a graph or of one inequality") \
        .add_subparsers(dest="target", required=True)
    for target, help, reads in (
            ("graph", "rank of a graph", {"--operator disjunctive": {"--cert"},
                                          "--operator N": {"--rmax", "--hull-bound",
                                                           "--depth-cap"}}),
            ("ineq", "rank of a row", {"--operator disjunctive": {"--cert", "--piece-cap"},
                                       "--operator N": {"--rmax", "--depth-cap"}})):
        p = targets.add_parser(target, help=help)
        p.set_defaults(func=cmd_rank)
        if target == "ineq":
            p.add_argument("family", nargs="?", default="rank-constraint",
                           help="rank-constraint (default) | antiweb | one-interval[:i] | joined")
        p.add_argument("spec")
        p.add_argument("--operator", choices=("disjunctive", "N"), default="disjunctive")
        _add_routes(p, reads)

    suites = sub.add_parser("verify", help="run a theorem verification suite") \
        .add_subparsers(dest="suite", required=True)

    def suite(name, help, run, *flags, nmax=None):
        p = suites.add_parser(name, help=help)
        p.set_defaults(func=cmd_verify, suite_run=run)
        if nmax is not None:
            p.add_argument("--nmax", type=int, default=nmax)
        p.add_argument("--out", help="write the JSON report here")
        _add(p, *flags, "--time-budget", "--format")

    suite("web-formulas", "disjunctive ranks of webs and antiwebs against their closed forms",
          lambda a: verify_web_rank_formulas(_parse_range(a.ks), a.nmax, not a.no_complements),
          "--ks", "--no-complements", nmax=12)
    suite("rdfar", "the antiweb-constraint rank theorem on every prime antiweb",
          lambda a: _verify_prime_antiwebs(a.nmax), "--piece-cap", nmax=11)
    suite("w2", "Dahl's description of STAB(W_n^2) against its hull",
          lambda a: verify_w2_description(_parse_range(a.n_values)), "--n-values", "--hull-bound")
    suite("join", "the rank bound of a join of a-perfect graphs",
          lambda a: verify_join_bound(join_blocks_of(parse_graph_spec(a.spec))),
          "--spec", "--piece-cap")
    suite("operators", "max STAB <= max N <= min_j max P_j <= max QSTAB on seeded objectives",
          lambda a: verify_operator_sandwich(a.nmax, a.objectives, a.seed),
          "--objectives", "--seed", "--piece-cap", nmax=9)

    p = sub.add_parser("recheck", help="re-verify certificates in a report")
    p.set_defaults(func=cmd_recheck)
    p.add_argument("path")
    p.add_argument("--out")
    _add(p, "--piece-cap", "--time-budget", "--format")

    p = sub.add_parser("hull", help="facets of STAB(G) with family tags")
    p.set_defaults(func=cmd_hull)
    p.add_argument("spec")
    _add(p, "--hull-bound", "--time-budget", "--format")

    p = sub.add_parser("lp", help="exact LP max over a relaxation or a lift of it")
    p.set_defaults(func=cmd_lp)
    p.add_argument("spec")
    p.add_argument("--relaxation", choices=("qstab", "frac"), default="qstab")
    p.add_argument("--operator", choices=("none", "disjunctive", "N"), default="none")
    _add_routes(p, {"--operator none": {"--objective"},
                    "--operator disjunctive": {"--objective", "--f", "--piece-cap"},
                    "--operator N": {"--objective", "--depth", "--depth-cap"},
                    "--member": {"--member", "--f", "--piece-cap"}})
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:       # argparse exits 2 on a usage error, 0 after --help
        return EXIT_INPUT if exc.code == 2 else exc.code
    # the caps given and the budget, set for the run and restored after
    run = {name: value for name in ("piece_cap", "hull_bound", "depth_cap")
           if (value := getattr(args, name, None)) is not None}
    if getattr(args, "time_budget", None) is not None:
        run["deadline"] = time.monotonic() + args.time_budget
    try:
        check_route(args)
        with limits(**run):
            return args.func(args)
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
