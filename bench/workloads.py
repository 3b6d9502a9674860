"""The three workloads: seeded inputs, timed steps, and their checks.

A pass runs one workload once, as a closed loop with one client.  Steps
go through `webrank.cli.main` (the front end a user runs) or, where the
CLI cannot express the input (graphs with deleted nodes), through the
library call behind it.  Every verdict is checked afterwards, outside
the timed region, against `oracle`, which does not import `webrank`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

import oracle
from clock import QueryClock
from spans import patch_function

WORKLOADS = ("certify", "lift", "combinatorial")


def prime_antiwebs(nmax):
    """(n, k) of every prime antiweb A_n^k with n <= nmax, in CLI order."""
    return [(n, k) for n in range(4, nmax + 1) for k in range(2, n // 2 + 1)
            if gcd(n, k) == 1]


def _csv(values):
    return ",".join(str(v) for v in values)


def _point(d):
    return {int(v): Fraction(x) for v, x in d.items()}


def _expect(p, what, got, want):
    if got != want:
        p.fail(f"{what}: {got} != {want}")


class Pass:
    """One pass of one workload: timed steps, then the deferred checks.

    Steps record raw perf_counter_ns times; `finish` converts them to
    reference time once the clock has closed its last segment.
    """

    def __init__(self, workdir: Path, clock: QueryClock):
        from webrank import cli
        self.cli_main = cli.main
        self.workdir = workdir
        self.clock = clock
        self.query_steps = []        # per step: [start, completion, ...] raw
        self.recheck_steps = []      # (start, end) raw
        self.failures = []
        self.checks = []             # callables run after the timed region
        self._digest = hashlib.sha256()

    @property
    def attempted(self):
        return sum(len(t) - 1 for t in self.query_steps) + len(self.recheck_steps)

    @property
    def digest(self):
        return self._digest.hexdigest()

    def fail(self, what):
        self.failures.append(what)

    def _close_queries(self, start_ns, n0, end_ns):
        """Queries completed since mark n0; the last one runs to end_ns, so
        the step's tail belongs to its last query."""
        if len(self.clock.marks) == n0:
            self.clock.marks.append(end_ns)
        marks = self.clock.marks[n0:]
        marks[-1] = end_ns
        self.query_steps.append([start_ns] + marks)
        self.clock.calibrate()

    def cli(self, argv, markers=(), query=True, archive=None):
        """Run one CLI command.  markers are (module, name, capture,
        ends_query) for bindings whose outermost calls each complete one
        query, or whose results the checks need."""
        undo = [patch_function(mod, name, self.clock.marker(name, *how), only_in=[mod])
                for mod, name, *how in markers]
        out = io.StringIO()
        n0 = len(self.clock.marks)
        start = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(out):
                rc = self.cli_main([str(a) for a in argv])
        finally:
            end = time.perf_counter_ns()
            for u in undo:
                u()
        if query:
            self._close_queries(start, n0, end)
        else:
            self.recheck_steps.append((start, end))
            self.clock.calibrate()
        text = out.getvalue()
        self._digest.update(text.encode())
        if archive is not None:
            self._digest.update(Path(archive).read_bytes())
        if rc != 0:
            self.fail(f"exit {rc}: webrank {' '.join(map(str, argv))}")
        return rc, text

    def call(self, fn, *args):
        """One query made through the library."""
        n0 = len(self.clock.marks)
        start = time.perf_counter_ns()
        out = fn(*args)
        self._close_queries(start, n0, time.perf_counter_ns())
        return out

    def finish(self, start_ns, end_ns):
        """Reference-time measurements of the pass that ran in between."""
        self.clock.calibrate(force=True)
        ref = self.clock.reference_ns
        latencies = [ref(b) - ref(a) for times in self.query_steps
                     for a, b in zip(times, times[1:])]
        return {"wall_ns": ref(end_ns) - ref(start_ns), "raw_wall_ns": end_ns - start_ns,
                "latencies_ns": latencies,
                "recheck_ns": sum(ref(b) - ref(a) for a, b in self.recheck_steps)}

    def recheck(self, report, name):
        """`webrank recheck` of an archived report, checked afterwards."""
        from webrank import recheck
        out = self.workdir / f"{name}.recheck.json"
        self.cli(["recheck", report, "--format", "json", "--out", out], query=False,
                 markers=[(recheck, "recheck_certificate", False, False)])
        self.checks.append(lambda: self._check_recheck(report, out))

    def _check_recheck(self, report, out):
        src = json.loads(Path(report).read_text())
        certs = sum(1 for e in src["entries"] if isinstance(e.get("certificate"), dict)
                    and "type" in e["certificate"])
        rep = json.loads(out.read_text())
        bad = [e["name"] for e in rep["entries"] if e["status"] != "pass"]
        if bad or len(rep["entries"]) != certs or certs == 0:
            self.fail(f"recheck of {Path(report).name}: {len(bad)} failed of "
                      f"{len(rep['entries'])}, {certs} certificates")

    def run_checks(self):
        for check in self.checks:
            check()


# ---------------------------------------------------------------------------
# certify: the antiweb-row theorem with its certificates

def certify_inputs(rng, smoke):
    nmax = 7 if smoke else 11
    queries = []
    for n, k in prime_antiwebs(nmax):
        for size in (1, 2, 3):
            f = sorted(rng.sample(range(1, n + 1), size))
            x = [Fraction(rng.randint(1, 6), 12) for _ in range(n)]
            queries.append((n, k, f, x))
    return {"nmax": nmax, "members": queries}


def certify(p: Pass, inp):
    from webrank import rank
    report = p.workdir / "rdfar.json"
    p.cli(["verify", "rdfar", "--nmax", inp["nmax"], "--format", "json", "--out", report],
          markers=[(rank, "disjunctive_member"), (rank, "disjunctive_valid")],
          archive=report)
    p.checks.append(lambda: check_rdfar(p, report, inp["nmax"]))
    p.recheck(report, "rdfar")
    for n, k, f, x in inp["members"]:
        _, text = p.cli(["lp", f"A:{n}:{k}", "--member", _csv(x), "--f", _csv(f),
                         "--format", "json"])
        p.checks.append(lambda n=n, k=k, f=f, x=x, text=text:
                        check_membership(p, n, k, f, x, text))


def check_rdfar(p, report, nmax):
    """The report lists, per antiweb: omega, validity under the proof's F,
    one violating point per T with |T| = beta - 1, and the row's rank."""
    rep = json.loads(Path(report).read_text())
    entries = rep["entries"]
    i = 0
    for n, k in prime_antiwebs(nmax):
        beta = oracle.antiweb_row_rank(n, k)
        block = entries[i:i + 3 + comb(n, beta - 1)]
        i += len(block)
        where = f"rdfar A:{n}:{k}"
        if len(block) < 3:
            p.fail(f"{where}: report ends early")
            break
        first, proof, points, last = block[0], block[1], block[2:-1], block[-1]
        _expect(p, f"{where} {first['name']}", first["computed"], n // k)
        _expect(p, f"{where} {proof['name']}", proof["computed"], True)
        _expect(p, f"{where} {last['name']}", last["computed"], beta)
        clique_list = oracle.cliques(oracle.antiweb_adj(n, k))
        for e in points:
            c = e["certificate"]
            x = _point(c["point"])
            mult = [(tuple(m["z"]), Fraction(m["lambda"]), _point(m["point"]))
                    for m in c.get("multipliers", [])]
            if not (e["computed"] is True and c["member"] and sum(x.values()) > k
                    and oracle.check_member(x, c["f"], mult, clique_list)):
                p.fail(f"{where} {e['name']}: certificate rejected")
    if i != len(entries) or not rep["passed"]:
        p.fail(f"rdfar report: {len(entries)} entries (want {i}), "
               f"passed={rep['passed']}")


def check_membership(p, n, k, f, x, text):
    out = json.loads(text)
    cert = out["certificate"]
    point = dict(zip(range(1, n + 1), x))
    adj = oracle.antiweb_adj(n, k)
    if out["member"]:
        mult = [(tuple(m["z"]), Fraction(m["lambda"]), _point(m["point"]))
                for m in cert["multipliers"]]
        ok = oracle.check_member(point, f, mult, oracle.cliques(adj))
    else:
        sep = cert["separating"]
        ok = oracle.check_separating(point, _point(sep["coeffs"]), Fraction(sep["rhs"]),
                                     oracle.stable_sets(adj))
    if not ok:
        p.fail(f"membership A:{n}:{k} F={f}: member={out['member']} certificate rejected")


# ---------------------------------------------------------------------------
# lift: the N operator and the piece hulls

LIFT_ROWS = ((13, 5), (14, 3), (15, 4), (16, 5), (17, 5), (17, 7))


def lift_inputs(rng, smoke):
    return {"nmax": 6 if smoke else 9, "objectives": 3 if smoke else 40,
            "op_seed": rng.randrange(1 << 30), "depth": 1 if smoke else 2,
            "rows": ((7, 3),) if smoke else LIFT_ROWS}


def lift(p: Pass, inp):
    from webrank import rank
    report = p.workdir / "operators.json"
    p.cli(["verify", "operators", "--nmax", inp["nmax"], "--objectives",
           inp["objectives"], "--seed", inp["op_seed"], "--format", "json",
           "--out", report],
          markers=[(rank, "lp_max", True), (rank, "n_operator_max", True, False)],
          archive=report)
    captured = list(p.clock.captured)
    p.checks.append(lambda: check_sandwich(p, report, inp, captured))
    _, text = p.cli(["lp", "W:5:1", "--operator", "N", "--depth", inp["depth"],
                     "--format", "json"])
    p.checks.append(lambda text=text: _expect(p, "N max of x(V) over QSTAB(C5)",
                                              Fraction(json.loads(text)["value"]),
                                              oracle.ALPHA_C5))
    certs = []
    for n, k in inp["rows"]:
        cert = p.workdir / f"row-A-{n}-{k}.json"
        _, text = p.cli(["rank", "ineq", "antiweb", f"A:{n}:{k}", "--cert", cert,
                         "--format", "json"], archive=cert)
        certs.append(cert)
        p.checks.append(lambda n=n, k=k, text=text: _expect(
            p, f"r_d(antiweb row A:{n}:{k})", json.loads(text)["rank"],
            oracle.antiweb_row_rank(n, k)))
    for cert in certs:
        p.recheck(cert, cert.stem)


def web_list(nmax):
    """The webs `verify operators` visits, in its order."""
    return [(n, k) for k in range(1, nmax // 2) for n in range(2 * (k + 1), nmax + 1)]


def check_sandwich(p, report, inp, captured):
    """STAB <= N(K) <= K on every seeded objective, from the captured maxima."""
    webs = web_list(inp["nmax"])
    chains = len(webs) * inp["objectives"]
    nmax_vals = [(args[0], out.value) for label, args, out in captured
                 if label == "n_operator_max"]
    lp_vals = [out.value for label, args, out in captured if label == "lp_max"]
    if len(nmax_vals) != chains or len(lp_vals) != chains:
        p.fail(f"sandwich: {len(nmax_vals)} N maxima, {len(lp_vals)} LP maxima, "
               f"want {chains}")
        return
    stable = {w: oracle.stable_sets(oracle.web_adj(*w)) for w in webs}
    for i, ((obj, nval), qval) in enumerate(zip(nmax_vals, lp_vals)):
        n, k = webs[i // inp["objectives"]]
        smax = oracle.max_over_stable(obj, stable[(n, k)])
        if not smax <= nval <= qval:
            p.fail(f"sandwich W:{n}:{k} objective {i}: {smax} <= {nval} <= {qval} fails")
    rep = json.loads(Path(report).read_text())
    bad = [e["name"] for e in rep["entries"] if e["computed"] != 0]
    if bad or len(rep["entries"]) != len(webs):
        p.fail(f"sandwich report: {bad or len(rep['entries'])}")


# ---------------------------------------------------------------------------
# combinatorial: graph ranks and the double description hull core

# STAB hulls of dimension 12-16 and their facet counts, as first computed;
# each facet is also checked independently in check_hull
HULLS = {"W:16:3": 208, "A:15:4": 147, "W:15:3": 34, "A:14:4": 86, "W:16:4": 199,
         "A:16:3": 157, "W:14:2": 31, "W:13:2": 40}
SMOKE_HULLS = {"W:8:2": 17, "A:7:3": 15}


def combinatorial_inputs(rng, smoke):
    ks, nmax = ((2, 3), 10) if smoke else ((2, 3, 4, 5, 6, 7), 25)
    deletions = []
    for k in ks:
        for n in range(2 * (k + 1), nmax + 1):
            deletions.append((n, k, sorted(rng.sample(range(1, n + 1), 1 + n % 3))))
    return {"ks": ks, "nmax": nmax, "deletions": deletions,
            "hulls": SMOKE_HULLS if smoke else HULLS}


def combinatorial(p: Pass, inp):
    from webrank import cli, graphs, rank
    report = p.workdir / "web-formulas.json"
    p.cli(["verify", "web-formulas", "--ks", _csv(inp["ks"]), "--nmax", inp["nmax"],
           "--format", "json", "--out", report],
          markers=[(rank, "disjunctive_rank_graph")], archive=report)
    p.checks.append(lambda: check_web_formulas(p, report, inp))
    p.recheck(report, "web-formulas")
    results = []
    for n, k, f in inp["deletions"]:
        g = graphs.delete_nodes(graphs.web(n, k), f)
        res = p.call(rank.disjunctive_rank_graph, g)
        results.append((n, k, f, g, res))
        p._digest.update(f"{n}:{k}:{f}:{res.rank}:{res.deletion_set}".encode())
    p.checks.append(lambda: check_deletions(p, results))
    for spec, facets in inp["hulls"].items():
        _, text = p.cli(["hull", spec, "--hull-bound", 16, "--format", "json"],
                        markers=[(cli, "tag_inequality", False, False)])
        p.checks.append(lambda spec=spec, facets=facets, text=text:
                        check_hull(p, spec, facets, text))


def check_web_formulas(p, report, inp):
    """Closed-form web ranks, and the same rank for each complement."""
    rep = json.loads(Path(report).read_text())
    entries = {e["name"]: e for e in rep["entries"]}
    for k in inp["ks"]:
        for n in range(2 * (k + 1), inp["nmax"] + 1):
            want = oracle.web_rank(n, k)
            for name in (f"r_d(W:{n}:{k})", f"r_d(A:{n}:{k + 1})"):
                e = entries.get(name)
                if e is None:
                    p.fail(f"web-formulas {name}: missing")
                elif e["computed"] != want or len(e["certificate"]["deletion_set"]) != want:
                    p.fail(f"web-formulas {name}: {e['computed']} != {want}")
    if not rep["passed"]:
        p.fail("web-formulas report not passed")


def check_deletions(p, results):
    from webrank import recheck
    for n, k, f, g, res in results:
        top = oracle.web_rank(n, k)
        ok = top - len(f) <= res.rank <= top and len(res.deletion_set) == res.rank
        ok = ok and recheck.recheck_certificate(res.to_json(g))[0]
        if not ok:
            p.fail(f"rank of W:{n}:{k} minus {f}: {res.rank} outside "
                   f"[{top - len(f)}, {top}] or recheck failed")


def check_hull(p, spec, want_facets, text):
    kind, n, k = spec.split(":")
    n, k = int(n), int(k)
    adj = oracle.web_adj(n, k) if kind == "W" else oracle.antiweb_adj(n, k)
    sets = oracle.stable_sets(adj)
    nodes = list(range(1, n + 1))
    rows = json.loads(text)["facets"]
    seen = set()
    for r in rows:
        coeffs, rhs = _point(r["coeffs"]), Fraction(r["rhs"])
        key = (tuple(sorted(coeffs.items())), rhs)
        if key in seen or not oracle.is_stab_facet(coeffs, rhs, nodes, sets):
            p.fail(f"hull {spec}: {r} is not a new STAB facet")
        seen.add(key)
    # nonnegativity and maximal clique rows are STAB facets by theory
    for v in nodes:
        if (((v, Fraction(-1)),), 0) not in seen:
            p.fail(f"hull {spec}: nonnegativity of x{v} missing")
    cl = oracle.cliques(adj)
    for q in cl:
        maximal = not any(set(q) < set(o) for o in cl)
        if maximal and (tuple((v, Fraction(1)) for v in q), 1) not in seen:
            p.fail(f"hull {spec}: maximal clique row {q} missing")
    if len(rows) != want_facets:
        p.fail(f"hull {spec}: {len(rows)} facets, want {want_facets}")


# ---------------------------------------------------------------------------

INPUTS = {"certify": certify_inputs, "lift": lift_inputs,
          "combinatorial": combinatorial_inputs}
RUN = {"certify": certify, "lift": lift, "combinatorial": combinatorial}


def make_inputs(workload, seed, smoke):
    return INPUTS[workload](random.Random(f"{workload}:{seed}"), smoke)
