"""CLI surface: subcommands, exit codes, deterministic reports, recheck."""

import hashlib
import json

import pytest

from webrank.cli import main
from webrank.graphs import LIMITS, Limits, limits, web
from webrank.inequalities import rank_constraint
from webrank.liftproject import disjunctive_valid, n_operator_max
from webrank.polyhedra import qstab
from webrank.reporting import Report


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_writes_dimacs_and_json(tmp_path, capsys):
    base = str(tmp_path / "w82")
    code, out, _ = run(capsys, "generate", "W:8:2", "--out", base)
    assert code == 0 and "16 edges" in out
    dim = open(base + ".dimacs").read()
    assert dim.startswith("p edge 8 16")
    js = json.loads(open(base + ".json").read())
    assert js["n"] == 8 and js["family_tag"] == "W:8:2"


def test_generate_a52_and_join(capsys):
    code, out, _ = run(capsys, "generate", "A:5:2")
    assert code == 0 and "p edge 5 5" in out
    code, out, _ = run(capsys, "generate", "join:A:5:2,A:5:2")
    assert code == 0
    js = json.loads(out.strip().splitlines()[-1])
    assert js["n"] == 10 and js["blocks"] == [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]]


def test_rank_graph_commands(capsys):
    code, out, _ = run(capsys, "rank", "graph", "W:9:2")
    assert code == 0 and "rank=2" in out
    code, out, _ = run(capsys, "rank", "graph", "A:9:3")
    assert code == 0 and "rank=2" in out
    code, out, _ = run(capsys, "rank", "graph", "W:6:2")
    assert code == 0 and "rank=0" in out


def test_rank_ineq_commands(capsys):
    code, out, _ = run(capsys, "rank", "ineq", "rank-constraint", "W:10:2",
                       "--operator", "N", "--rmax", "1")
    assert code == 0 and "rank=1" in out
    code, out, _ = run(capsys, "rank", "ineq", "antiweb", "A:8:3")
    assert code == 0 and "rank=2" in out
    code, out, _ = run(capsys, "rank", "ineq", "one-interval:0", "W:9:2")
    assert code == 0 and "rank=1" in out
    code, out, _ = run(capsys, "rank", "ineq", "joined", "join:A:5:2,A:5:2")
    assert code == 0 and "rank=2" in out


def test_rank_n_cap_gives_partial_bound_and_exit_2(capsys):
    code, out, _ = run(capsys, "rank", "ineq", "rank-constraint", "W:8:2",
                       "--operator", "N", "--rmax", "1")
    assert code == 2 and "exceeds rmax" in out


def test_verify_exit_codes_and_output(tmp_path, capsys):
    out_path = str(tmp_path / "w2.json")
    code, out, _ = run(capsys, "verify", "w2", "--n-values", "6..8",
                       "--out", out_path)
    assert code == 0 and "PASS" in out
    data = json.loads(open(out_path).read())
    assert data["passed"] is True


def test_w2_report_is_pinned(capsys):
    # pinned when every 1-interval alpha(T) was searched twice per n, once
    # for the description and once for the match count
    code, out, _ = run(capsys, "verify", "w2", "--n-values", "6..10", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "e60d59ef444b7ad321954c5141d52b53969ea81d62711c8bd651f7141a7c9e6f"


def test_verify_json_reports_are_byte_identical(capsys):
    a = run(capsys, "verify", "rdfar", "--nmax", "7", "--format", "json")
    b = run(capsys, "verify", "rdfar", "--nmax", "7", "--format", "json")
    assert a == b and a[0] == 0


def test_verify_operators_small(capsys):
    code, out, _ = run(capsys, "verify", "operators", "--nmax", "6",
                       "--objectives", "3")
    assert code == 0


def test_operator_sandwich_report_is_pinned(capsys):
    # pinned when every maximum of K was solved from scratch: the warm
    # re-solves, over the nine webs up to 8 nodes, change no byte of it
    code, out, _ = run(capsys, "verify", "operators", "--nmax", "8", "--objectives", "20",
                       "--seed", "5", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "5fc0b99f48810a13013a6ba9cb9e667cb9aafad72ebbcec6fa701f79527148bd"


def test_web_formulas_report_is_pinned(tmp_path, capsys):
    # pinned when every odd-hole search of every web and antiweb ran anew;
    # re-pinned once when graph-rank certificates lost their "anchored"
    # key (recheck computes circulance itself), which changed no other byte.
    # Its recheck is pinned too: the perfection checks and coverage
    # searches (recheck.hitting_set) give the same entries, byte for byte.
    # The report file holds the JSON printed without --out, newline too
    path = tmp_path / "web-formulas-25.json"
    assert run(capsys, "verify", "web-formulas", "--ks", "2,3,4,5,6,7", "--nmax", "25",
               "--format", "json", "--out", str(path))[0] == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "54f047a5aeb4e599c30a00392597da4b6ddbc84a277a23404937ccbdc0fd190d"
    code, out, _ = run(capsys, "recheck", str(path), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "70e516bc26fc1aed47a016669a3b0dc144323711fef8beb2bfbced5a41553015"


def test_verify_join_report_and_its_recheck_are_pinned(tmp_path, capsys):
    # the joined row x(A_7^2)/2 + x(A_8^3)/3 <= 1 is written with its 1/2
    # and 1/3 coefficients in the row-rank certificate's row; pinned while
    # every row value was stored as a Fraction
    path = tmp_path / "verify-join.json"
    assert run(capsys, "verify", "join", "--spec", "join:A:7:2,A:8:3", "--format", "json",
               "--out", str(path))[0] == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "1375b6ceae2ec208455537ce190eec5208d150e3104c305f6036889fedcc18de"
    code, out, _ = run(capsys, "recheck", str(path), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "1f6b157780bddda6e5465424d653388ab959c74859c1a927dd7d30ebdf415fef"


def test_rational_rechecks_are_pinned(tmp_path, capsys):
    # pinned while recheck's point, member and piece checks ran in Fraction
    # arithmetic: the recheck of a `verify rdfar --nmax 11` report (member,
    # validity and row-rank certificates), then of the six antiweb row-rank
    # certificates from A:13:5 to A:17:7
    report = tmp_path / "rdfar.json"
    assert run(capsys, "verify", "rdfar", "--nmax", "11", "--format", "json",
               "--out", str(report))[0] == 0
    code, out, _ = run(capsys, "recheck", str(report), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "d8585b3c8d412ac35996b6560fa939da23527fae5a6fd5985a1e3130cfa51598"
    digest = hashlib.sha256()
    cert = tmp_path / "row.json"
    for spec in ("A:13:5", "A:14:3", "A:15:4", "A:16:5", "A:17:5", "A:17:7"):
        assert run(capsys, "rank", "ineq", "antiweb", spec, "--cert", str(cert))[0] == 0
        code, out, _ = run(capsys, "recheck", str(cert), "--format", "json")
        assert code == 0, spec
        digest.update(out.encode())
    assert digest.hexdigest() == \
        "1dc1d7a2b070ce6ddf39373aca44ef801c613f72c920d581e90d3a6a5dbfbcef"


def test_a_report_is_serialized_once(tmp_path, capsys, monkeypatch):
    calls = []
    orig = Report.to_json_str

    def counted(self):
        calls.append(1)
        return orig(self)
    monkeypatch.setattr(Report, "to_json_str", counted)
    args = ("verify", "operators", "--nmax", "6", "--objectives", "3")
    code, printed, _ = run(capsys, *args, "--format", "json")
    assert code == 0 and len(calls) == 1
    for fmt in ("json", "table"):
        calls.clear()
        path = tmp_path / f"{fmt}.json"
        assert run(capsys, *args, "--format", fmt, "--out", str(path))[0] == 0
        assert len(calls) == 1 and path.read_text() == printed


def test_verify_join_default_spec(capsys):
    code, out, _ = run(capsys, "verify", "join")
    assert code == 0 and "joined" in out


def test_recheck_round_trip(tmp_path, capsys):
    out_path = str(tmp_path / "rdfar.json")
    code, _, _ = run(capsys, "verify", "rdfar", "--nmax", "8", "--out", out_path)
    assert code == 0
    code, out, _ = run(capsys, "recheck", out_path)
    assert code == 0 and "PASS" in out


def test_recheck_catches_doctored_certificates(tmp_path, capsys):
    out_path = str(tmp_path / "report.json")
    code, _, _ = run(capsys, "verify", "rdfar", "--nmax", "7", "--out", out_path)
    assert code == 0
    data = json.loads(open(out_path).read())
    doctored = False
    for e in data["entries"]:
        cert = e.get("certificate")
        if cert and cert.get("type") == "ineq-rank":
            cert["rank"] += 1          # claim a wrong rank
            doctored = True
    assert doctored
    with open(out_path, "w") as fh:
        json.dump(data, fh)
    code, out, _ = run(capsys, "recheck", out_path)
    assert code == 1 and "FAIL" in out


def test_cap_exceeded_exit_2(capsys):
    code, _, err = run(capsys, "hull", "W:13:2", "--hull-bound", "12")
    assert code == 2 and "cap" in err
    code, _, err = run(capsys, "rank", "ineq", "rank-constraint", "W:8:2",
                       "--piece-cap", "0")
    assert code == 2
    code, out, err = run(capsys, "lp", "W:8:2", "--operator", "disjunctive",
                         "--f", "1,2,3", "--piece-cap", "2")
    assert (code, out) == (2, "") and "piece cap" in err


def test_input_error_exit_3(capsys):
    code, _, err = run(capsys, "generate", "X:9")
    assert code == 3 and "input error" in err
    code, _, err = run(capsys, "generate", "W:7:3")
    assert code == 3
    code, _, err = run(capsys, "lp", "W:8:2", "--objective", "1,2")
    assert code == 3
    code, out, err = run(capsys, "hull", "W:8:2", "--bogus")      # a usage error
    assert (code, out) == (3, "") and "--bogus" in err
    assert main(["--help"]) == 0


def test_one_parser_serves_every_call(capsys):
    """The parser is built once per process; a usage error and --help
    after a good call still exit 3 and 0, and no option of one call
    leaks into the next."""
    from webrank.cli import build_parser
    assert build_parser() is build_parser()
    code, out, _ = run(capsys, "lp", "C:5", "--format", "json")
    assert code == 0 and json.loads(out)["value"] == "5/2"
    code, out, err = run(capsys, "lp", "C:5", "--bogus")
    assert (code, out) == (3, "") and "--bogus" in err
    assert run(capsys, "--help")[0] == 0
    code, out, _ = run(capsys, "lp", "C:5")
    assert code == 0 and out.startswith("max over qstab(C:5) = 5/2")


def _raise_certificate_error(*args, **kwargs):
    from webrank.simplex import CertificateError
    raise CertificateError("strong duality")


def test_internal_error_exit_4(monkeypatch, capsys):
    from webrank import cli, simplex
    monkeypatch.setattr(cli, "lp_max", _raise_certificate_error)
    assert main(["lp", "W:7:2"]) == 4
    out = capsys.readouterr()
    assert out.err == "internal error: strong duality\n" and out.out == ""
    monkeypatch.undo()
    monkeypatch.setattr(simplex, "MAX_PIVOTS", -1)
    assert main(["lp", "W:7:2"]) == 4
    assert capsys.readouterr().err == "internal error: pivot limit exceeded; simplex stalled\n"


def test_lp_rejects_f_labels_outside_the_graph(capsys):
    code, out, err = run(capsys, "lp", "W:8:2", "--operator", "disjunctive",
                         "--f", "99")
    assert (code, out) == (3, "") and "input error" in err and "99" in err
    code, out, err = run(capsys, "lp", "C:5", "--member", "1/2,1/2,0,1/2,0",
                         "--f", "9")
    assert (code, out) == (3, "") and "input error" in err and "9" in err


def test_member_point_is_read_in_the_report_grammar(capsys):
    # a decimal, a plus sign or a space is no "p" or "p/q": an input error
    for point in ("0.5,1/2,0,1/2,0", "+1/2,1/2,0,1/2,0", "1/2, 1/2,0,1/2,0", "1/0,0,0,0,0"):
        code, out, err = run(capsys, "lp", "C:5", "--member", point, "--f", "1")
        assert (code, out) == (3, "") and err.startswith("input error: not a rational:")
    assert run(capsys, "lp", "C:5", "--member", "2/4,1/2,-0,1/2,0", "--f", "1")[:2] == (
        0, "point is inside P_F(qstab(C:5)) for F=[1]\n")


def test_recheck_of_a_malformed_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"suite": "rank", "entries": [
        {"name": "rank", "status": "info", "certificate": {"type": "graph-rank"}},
        {"name": "hole", "status": "info", "certificate": {"type": "odd-hole"}}]}))
    code, out, _ = run(capsys, "recheck", str(path))
    assert code == 1 and "no field 'graph'" in out
    assert "{'type': 'odd-hole'} is not an object of a known type" in out
    # a JSON object with no list of entries checks nothing: an input error,
    # as a list is, and so is the one-certificate output of lp --member
    code, member, _ = run(capsys, "lp", "C:5", "--member", "1/2,1/2,1/2,1/2,1/2", "--f", "1",
                          "--format", "json")
    assert code == 0 and "entries" not in json.loads(member)
    for text in ("[]", "{}", member):
        path.write_text(text)
        code, out, err = run(capsys, "recheck", str(path))
        assert (code, out) == (3, "") and "input error" in err


NESTED_DOCTORINGS = [
    (["graph", "W:10:2"], "pool", [1], "pool[0] is not an odd-hole or odd-antihole object"),
    (["graph", "W:10:2"], "pool", [{"type": "odd-hole"}], "no field 'nodes'"),
    (["graph", "W:10:2"], "pool", [{"type": "perfection", "nodes": [1]}],
     "pool[0] is not an odd-hole or odd-antihole object"),
    (["ineq", "antiweb", "A:8:3"], "violations", [1], "violations[0] is not an object"),
    (["ineq", "antiweb", "A:8:3"], "violations", [{"f": [1]}], "no field 'point'"),
    (["ineq", "antiweb", "A:8:3"], "pieces", [1], "malformed certificate"),
]


def test_recheck_of_malformed_nested_certificates(tmp_path, capsys):
    # a pool, violation or piece entry of the wrong shape fails its entry
    cert_path = tmp_path / "cert.json"
    for argv, field, value, step in NESTED_DOCTORINGS:
        assert main(["rank", *argv, "--cert", str(cert_path)]) == 0
        data = json.loads(cert_path.read_text())
        data["entries"][0]["certificate"][field] = value
        cert_path.write_text(json.dumps(data))
        capsys.readouterr()
        code, out, err = run(capsys, "recheck", str(cert_path))
        assert (code, err) == (1, "") and "FAIL" in out and step in out, (field, value)


def _recheck_doctored(tmp_path, capsys, argv, doctor):
    """recheck of the --cert file of `rank` argv after doctor(certificate)."""
    path = tmp_path / "cert.json"
    assert main([*argv, "--cert", str(path)]) == 0
    data = json.loads(path.read_text())
    doctor(data["entries"][0]["certificate"])
    path.write_text(json.dumps(data))
    capsys.readouterr()
    code = main(["recheck", str(path)])
    out = capsys.readouterr()
    assert (code, out.err) == (1, "") and "FAIL" in out.out
    return out.out


def test_recheck_names_the_failed_step_of_a_graph_rank(tmp_path, capsys):
    argv = ["rank", "graph", "W:10:2"]

    def hole(c):
        c["pool"][1]["nodes"] = [1, 2, 3]

    out = _recheck_doctored(tmp_path, capsys, argv, lambda c: c.update(pool=[1]))
    assert "pool[0] is not an odd-hole or odd-antihole object" in out
    out = _recheck_doctored(tmp_path, capsys, argv, hole)
    assert "pool[1] (odd-hole) failed: adjacency re-count" in out
    out = _recheck_doctored(tmp_path, capsys, argv,
                            lambda c: c["deletion_set"].append(3))
    assert "|deletion_set| = 3 but rank = 2" in out


def test_recheck_names_an_unknown_node_and_its_step(tmp_path, capsys):
    argv = ["rank", "graph", "W:10:2"]

    def hole(c):
        c["pool"][0]["nodes"] = [1, 2, 3, 4, 99]

    out = _recheck_doctored(tmp_path, capsys, argv, hole)
    assert "pool[0] names [99], not nodes of the graph" in out
    out = _recheck_doctored(tmp_path, capsys, argv,
                            lambda c: c["deletion_set"].append(99))
    assert "deletion_set names [99], not nodes of the graph" in out


def test_recheck_names_the_failed_step_of_a_row_rank(tmp_path, capsys):
    def off_system(c):
        assert c["bound"] == 2 and c["bound_point"]["1"] == "1/2"
        c["bound_point"]["1"] = "1"

    argv = ["rank", "ineq", "antiweb", "A:8:3"]
    out = _recheck_doctored(tmp_path, capsys, argv, off_system)
    assert "bound 2 failed: point outside the system" in out

    def inside_the_row(c):
        c["violations"] = [{"point": {"1": "1/4", "2": "0"}}]

    out = _recheck_doctored(tmp_path, capsys, argv, inside_the_row)
    assert "violations[0] failed: point satisfies the row" in out
    out = _recheck_doctored(tmp_path, capsys, argv, lambda c: c.pop("bound"))
    assert "malformed certificate: no field 'bound'" in out


def _inflate_row_rank(cert, label):
    """One more label in witness_f and rank + 1; each piece record is
    duplicated with that coordinate at 0 and at 1, so the witness pieces
    still check and only the lower bound is wrong."""
    cert["witness_f"].append(label)
    cert["rank"] += 1
    cert["pieces"] = [{**p, "z": [*p["z"], z]} for p in cert["pieces"] for z in (0, 1)]


def test_recheck_rejects_an_inflated_row_rank(tmp_path, capsys):
    # the bound 2 stands, so the coverage at size 2 runs, and with no
    # violation recorded the anchored F = {1} meets every one of them; a
    # bound raised to the rank fails at its arithmetic
    argv = ["rank", "ineq", "antiweb", "A:8:3"]
    out = _recheck_doctored(tmp_path, capsys, argv, lambda c: _inflate_row_rank(c, 3))
    assert "coverage failed: F=[1] meets the fractional support of every violation" in out

    def inflate_with_bound(c):
        _inflate_row_rank(c, 3)
        c["bound"] += 1

    out = _recheck_doctored(tmp_path, capsys, argv, inflate_with_bound)
    assert ("bound 3 failed: c.u less its 2 largest terms is not above the row's "
            "right-hand side") in out


def test_recheck_of_a_value_that_is_not_rational(tmp_path, capsys):
    # the doctored point fails its own entry; the other entries still pass
    path = tmp_path / "rdfar.json"
    code, _, _ = run(capsys, "verify", "rdfar", "--nmax", "7", "--out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    names = [e["name"] for e in data["entries"] if e.get("certificate")]
    doctored = next(e for e in data["entries"]
                    if e.get("certificate", {}).get("bound_point"))
    doctored["certificate"]["bound_point"]["1"] = "abc"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "recheck", str(path))
    assert (code, err) == (1, "")
    failed = [line for line in out.splitlines() if "FAIL" in line and "recheck:" in line]
    assert len(failed) == 1 and doctored["name"] in failed[0] and "abc" in failed[0]
    assert sum("recheck:" in line for line in out.splitlines()) == len(names)


def test_join_host_above_eighteen_nodes(capsys):
    # 19 nodes: the row-rank check against STAB is a search, with no cap
    code, out, _ = run(capsys, "verify", "join", "--spec", "join:K:14,A:5:2")
    assert code == 0 and "result: PASS" in out


def test_hull_reports_are_pinned(capsys):
    # pinned before the hull took 0/1 integer points, one full-rank test and
    # facet tags without stability-number searches: every web and antiweb on
    # at most 12 nodes, then a join host
    specs = [f"{f}:{n}:{k}" for n in range(4, 13) for f, k in
             [("W", k) for k in range(1, 6) if n >= 2 * k + 2] +
             [("A", k) for k in range(2, 7) if n >= 2 * k]] + ["join:A:5:2,A:5:2"]
    digest = hashlib.sha256()
    for spec in specs:
        code, out, _ = run(capsys, "hull", spec, "--hull-bound", "16", "--format", "json")
        assert code == 0, spec
        digest.update(out.encode())
    assert len(specs) == 51
    assert digest.hexdigest() == "b29b14340fc6faef7a925307eb59f2d636194044b67fc4a1ef2c84e68214c99f"


def test_hull_bound_caps_the_stable_set_enumeration(capsys):
    code, out, _ = run(capsys, "hull", "K:19", "--hull-bound", "19")
    assert code == 0 and out.startswith("20 facets of STAB(K:19)")
    code, _, err = run(capsys, "hull", "W:13:2")
    assert code == 2 and "--hull-bound" in err


def _doc_examples():
    """Every `webrank ...` line of README.md's code blocks and of the cli
    module docstring."""
    from pathlib import Path

    from webrank import cli

    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = readme.read_text().split("```")[1::2]
    lines = [ln for b in blocks for ln in b.splitlines()] + cli.__doc__.splitlines()
    return [ln.strip() for ln in lines if ln.strip().startswith("webrank ")]


def _accepts(argv) -> bool:
    """argv parses, and its route reads every option it is given."""
    from webrank.cli import build_parser, check_route

    try:
        check_route(build_parser().parse_args(argv))
    except (SystemExit, ValueError):
        return False
    return True


def test_documented_command_lines_parse(capsys):
    import shlex

    examples = _doc_examples()
    assert len(examples) >= 20
    for line in examples:
        assert _accepts(shlex.split(line, comments=True)[1:]), \
            f"documented command is not accepted: {line}"


def _ci_command_lines():
    """(argv, rejected) for each webrank command line of the CI workflow;
    rejected marks the ones the parser must reject (exit 3): those given to
    `input_error`, and the one with a budget of nan seconds.  A `recheck`
    given to `input_error` parses, and exits 3 on reading its report
    (test_recheck_of_a_malformed_report runs that input)."""
    import shlex
    from pathlib import Path

    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
    lines = workflow.read_text().replace("\\\n", " ").splitlines()
    found = []
    keywords = ("webrank.cli", "budget_exits_2", "input_error")
    for words in (shlex.split(line, comments=True) for line in lines
                  if any(word in line for word in keywords)):
        starts = [i + 1 for i, w in enumerate(words) if w in keywords]
        if not starts or words[starts[0]:starts[0] + 1] == ["$@"]:
            continue
        argv = []
        for w in words[starts[0]:]:
            if w[0] in ">|" or w.startswith("2>"):
                break
            argv.append(w)
        found.append((argv, (words[starts[0] - 1] == "input_error" and argv[0] != "recheck")
                      or "nan" in argv))
    return found


def test_ci_command_lines_parse(capsys):
    lines = _ci_command_lines()
    assert len(lines) >= 30 and sum(rejected for _, rejected in lines) == 7
    for argv, rejected in lines:
        assert _accepts(argv) != rejected, argv


def test_lp_and_hull_commands(capsys):
    code, out, _ = run(capsys, "lp", "C:5")
    assert code == 0 and "5/2" in out
    code, out, _ = run(capsys, "lp", "W:8:2", "--relaxation", "frac",
                       "--format", "json")
    payload = json.loads(out.strip())
    assert code == 0 and payload["value"] == "4"
    code, out, _ = run(capsys, "hull", "W:9:2")
    assert code == 0 and "one-interval" in out


def test_hull_table_prints_each_facet_with_its_family_tag_alone(capsys):
    # a facet line is the row and the family tag read off it
    code, out, _ = run(capsys, "hull", "A:7:3")
    lines = out.splitlines()
    assert code == 0 and lines[0] == "15 facets of STAB(A:7:3):"
    assert lines[1] == "  <-x1 <= 0>  tag=nonneg"
    assert "  <+x1 +x2 +x3 +x4 +x5 +x6 +x7 <= 3>  tag=rank" in lines
    assert "[" not in out


def test_time_budget_exhaustion_exit_2(capsys):
    code, _, err = run(capsys, "verify", "web-formulas", "--ks", "4",
                       "--nmax", "16", "--time-budget", "0.000001")
    assert code == 2 and "budget" in err


@pytest.mark.parametrize("budget", ["nan", "inf", "-inf"])
def test_a_non_finite_time_budget_is_an_input_error(capsys, budget):
    # `monotonic() > nan` is never true: a nan budget would bound nothing
    code, out, err = run(capsys, "lp", "W:7:2", f"--time-budget={budget}")
    assert (code, out) == (3, "") and "finite" in err


def test_time_budget_bounds_the_operator_sandwich(capsys):
    argv = ["verify", "operators", "--nmax", "7", "--objectives", "5", "--format", "json"]
    code, out, err = run(capsys, *argv, "--time-budget", "0")
    assert (code, out) == (2, "") and "budget" in err
    assert run(capsys, *argv, "--time-budget", "60") == run(capsys, *argv)


def test_time_budget_bounds_the_n_lift_lp(capsys):
    # an objective no rotation or reflection fixes: the lift LP is not folded
    code, out, err = run(capsys, "lp", "W:9:2", "--operator", "N", "--depth", "2",
                         "--objective", "1,2,3,4,5,6,7,8,9", "--time-budget", "0.05")
    assert (code, out) == (2, "") and "budget" in err


def test_time_budget_bounds_the_n_rank_of_a_row(capsys):
    argv = ["rank", "ineq", "rank-constraint", "W:10:2", "--operator", "N", "--rmax", "1",
            "--format", "json"]
    code, out, err = run(capsys, *argv, "--time-budget", "0")
    assert (code, out) == (2, "") and "simplex deadline" in err
    assert run(capsys, *argv, "--time-budget", "60") == run(capsys, *argv)


def _without_budget(fn):
    """fn run with no deadline, whatever the budget of the command."""
    def unbounded(*args):
        with limits(deadline=None):
            return fn(*args)
    return unbounded


def test_time_budget_bounds_the_n_rank_of_a_graph(monkeypatch, capsys):
    argv = ["rank", "graph", "W:7:2", "--operator", "N", "--rmax", "1", "--format", "json"]
    code, out, err = run(capsys, *argv, "--time-budget", "0")
    assert (code, out) == (2, "") and "budget" in err
    assert run(capsys, *argv, "--time-budget", "60") == run(capsys, *argv)
    # with a hull that ignores the budget, the lift LP of the search stops
    from webrank import rank
    monkeypatch.setattr(rank, "convex_hull_facets", _without_budget(rank.convex_hull_facets))
    code, out, err = run(capsys, "rank", "graph", "W:7:2", "--operator", "N",
                         "--time-budget", "0")
    assert (code, out) == (2, "") and "simplex deadline" in err


def test_time_budget_bounds_the_lps_after_a_step_that_ignores_it(monkeypatch, capsys):
    """The LPs of a command check the budget themselves: the is_valid LPs
    of verify w2 after hulls run without it, the r = 0 check of rank
    --operator N, and the LPs inside one objective of verify operators."""
    from webrank import rank
    monkeypatch.setattr(rank, "convex_hull_facets", _without_budget(rank.convex_hull_facets))
    code, out, err = run(capsys, "verify", "w2", "--n-values", "8", "--time-budget", "0")
    assert (code, out) == (2, "") and "simplex deadline" in err
    # W:6:2 is perfect, so its rank row holds at r = 0 and no lift is built
    code, out, err = run(capsys, "rank", "ineq", "rank-constraint", "W:6:2",
                         "--operator", "N", "--time-budget", "0")
    assert (code, out) == (2, "") and "simplex deadline" in err
    monkeypatch.setattr(rank, "_check_deadline", lambda what="search": None)
    code, out, err = run(capsys, "verify", "operators", "--nmax", "6", "--objectives", "1",
                         "--time-budget", "0")
    assert (code, out) == (2, "") and "simplex deadline" in err


def test_an_n_max_prints_in_process_what_it_prints_alone(monkeypatch, capsys):
    # each command builds its own QSTAB, so an equal polytope of an earlier
    # command lends it no warm basis, which could end at another optimum
    from webrank import liftproject
    monkeypatch.setattr(liftproject, "_NLIFT_CACHE", {})
    argv = ["lp", "W:7:2", "--operator", "N", "--format", "json", "--objective"]
    runs = [run(capsys, *argv, c) for c in ("3,3,1,3,1,0,3", "0,1,0,3,1,0,1", "3,3,1,3,1,0,3")]
    assert runs[0] == runs[2] and [code for code, _, _ in runs] == [0, 0, 0]
    assert json.loads(runs[2][1])["point"] == dict(zip("1234567", "1001000"))


def test_the_depth_cap_holds_on_a_cached_lift(capsys):
    # each command builds its own QSTAB and so its own lift; the cap on a
    # kept lift is checked by test_warm_restart_reuses_the_lift_system
    argv = ["lp", "W:5:1", "--operator", "N", "--depth", "2"]
    codes = [run(capsys, *argv, *cap)[0] for cap in (["--depth-cap", "1"], [],
                                                       ["--depth-cap", "1"])]
    assert codes == [2, 0, 2]


def test_main_restores_the_limits_on_every_exit_path(capsys):
    """Commands run one after another in one process (as the benchmark
    runs them): one that ends at its budget, at a cap or at an input
    error leaves LIMITS at its defaults, and a library call after it runs
    with no budget and the default caps."""
    g = web(8, 2)
    row, h = rank_constraint(g), qstab(g)
    for argv, code in ((["lp", "A:16:5", "--time-budget", "0"], 2),
                       (["lp", "W:8:2", "--operator", "disjunctive", "--f", "1,2,3",
                         "--piece-cap", "2"], 2),
                       (["lp", "W:8:2", "--f", "99", "--piece-cap", "2",
                         "--time-budget", "0"], 3)):
        assert run(capsys, *argv)[0] == code
        assert LIMITS == Limits()
        disjunctive_valid(row, h, (1, 2, 3))


def test_time_budget_bounds_verify_rdfar(capsys):
    argv = ["verify", "rdfar", "--nmax", "7", "--format", "json"]
    code, out, err = run(capsys, *argv, "--time-budget", "0")
    assert (code, out) == (2, "") and "budget" in err
    assert run(capsys, *argv, "--time-budget", "60") == run(capsys, *argv)


def test_time_budget_bounds_the_hulls(capsys):
    argv = ["hull", "W:8:2", "--format", "json"]
    code, out, err = run(capsys, *argv, "--time-budget", "0")
    assert (code, out) == (2, "") and "budget" in err
    assert run(capsys, *argv, "--time-budget", "60") == run(capsys, *argv)
    code, out, err = run(capsys, "verify", "w2", "--n-values", "6", "--time-budget", "0")
    assert (code, out) == (2, "") and "budget" in err


A11_4_POINT = "1/4,1/6,5/12,1/6,1/2,1/6,1/4,1/12,1/2,1/12,1/12"


def test_time_budget_bounds_the_membership_lp(capsys):
    argv = ["lp", "A:11:4", "--member", A11_4_POINT, "--f", "5,6,8", "--format", "json"]
    code, out, err = run(capsys, *argv, "--time-budget", "0")
    assert (code, out) == (2, "") and "budget" in err
    assert run(capsys, *argv, "--time-budget", "60") == run(capsys, *argv)


def test_time_budget_bounds_the_row_rank_search(tmp_path, capsys):
    argv = ["rank", "ineq", "antiweb", "A:11:4", "--format", "json"]
    code, out, err = run(capsys, *argv, "--time-budget", "0",
                         "--cert", str(tmp_path / "cert.json"))
    assert (code, out) == (2, "") and "budget" in err
    assert not (tmp_path / "cert.json").exists()
    assert run(capsys, *argv, "--time-budget", "60") == run(capsys, *argv)


def test_time_budget_bounds_the_lp_of_a_relaxation(capsys):
    argv = ["lp", "A:16:5", "--format", "json"]
    code, out, err = run(capsys, *argv, "--time-budget", "0")
    assert (code, out) == (2, "") and "simplex deadline" in err
    assert run(capsys, *argv, "--time-budget", "60") == run(capsys, *argv)


def test_time_budget_bounds_the_pieces_of_lp(capsys):
    # every coordinate fixed: no piece runs an LP
    argv = ["lp", "W:8:2", "--operator", "disjunctive", "--f", "1,2,3,4,5,6,7,8",
            "--format", "json"]
    code, out, err = run(capsys, *argv, "--time-budget", "0")
    assert (code, out) == (2, "") and "budget" in err
    assert run(capsys, *argv, "--time-budget", "60") == run(capsys, *argv)


def test_time_budget_bounds_recheck(tmp_path, capsys):
    report = str(tmp_path / "report.json")
    assert run(capsys, "verify", "web-formulas", "--ks", "2", "--nmax", "8",
               "--out", report)[0] == 0
    argv = ["recheck", report, "--format", "json"]
    code, out, err = run(capsys, *argv, "--time-budget", "0")
    assert (code, out) == (2, "") and "budget" in err
    assert run(capsys, *argv, "--time-budget", "60") == run(capsys, *argv)


def _no_search(*args, **kwargs):
    raise AssertionError("the search ran")


def test_rank_cert_with_operator_n_is_an_input_error(tmp_path, monkeypatch, capsys):
    from webrank import cli
    monkeypatch.setattr(cli, "n_rank_inequality_upto", _no_search)
    path = tmp_path / "c.json"
    code, out, err = run(capsys, "rank", "ineq", "rank-constraint", "W:10:2",
                         "--operator", "N", "--rmax", "1", "--cert", str(path))
    assert (code, out) == (3, "") and "--cert: not read with --operator N" in err
    assert not path.exists()


def test_rank_cert_with_polyhedral_is_an_input_error(tmp_path, monkeypatch, capsys):
    # rank has one graph route: --polyhedral is an unknown option (exit 3),
    # no search runs and no certificate is written
    from webrank import cli
    monkeypatch.setattr(cli, "parse_graph_spec", _no_search)
    path = tmp_path / "c.json"
    code, out, err = run(capsys, "rank", "graph", "W:8:2", "--cert", str(path),
                         "--polyhedral")
    assert (code, out) == (3, "") and "unrecognized arguments: --polyhedral" in err
    assert not path.exists()


def test_rank_ineq_with_polyhedral_is_an_input_error(monkeypatch, capsys):
    from webrank import cli
    monkeypatch.setattr(cli, "parse_graph_spec", _no_search)
    code, out, err = run(capsys, "rank", "ineq", "antiweb", "A:8:3", "--polyhedral")
    assert (code, out) == (3, "") and "unrecognized arguments: --polyhedral" in err


@pytest.mark.parametrize("index, code", [("-1", 3), ("0", 0), ("8", 0), ("9", 3)])
def test_a_one_interval_index_outside_the_sets_is_an_input_error(index, code, capsys):
    # W_9^2 has 9 one-interval sets: indices 0..8; -1 names no set, and is
    # not read from the end of the list
    got, out, err = run(capsys, "rank", "ineq", f"one-interval:{index}", "W:9:2")
    assert got == code
    assert ("rank=1" in out) if code == 0 else (out == "" and "out of range" in err)


@pytest.mark.parametrize("target", [["graph"], ["ineq", "rank-constraint"]])
def test_a_negative_rmax_is_an_input_error(target, monkeypatch, capsys):
    # no rank is below 0: a usage error before any hull or lift is built,
    # not a cap that every search hits
    from webrank import cli
    monkeypatch.setattr(cli, "parse_graph_spec", _no_search)
    code, out, err = run(capsys, "rank", *target, "W:7:2", "--operator", "N", "--rmax", "-1")
    assert (code, out) == (3, "") and "--rmax" in err


_C5_POINT = "1/2,1/2,0,1/2,0"


@pytest.mark.parametrize("argv, says", [
    (["rank", "graph", "antiweb", "W:7:2"], "unrecognized arguments: W:7:2"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_an_option_the_route_would_not_read_is_an_input_error(argv, says, monkeypatch,
                                                               capsys):
    # a row family was accepted and then dropped by the graph rank; now a
    # usage error before the graph is built (each unread option of a route
    # is `test_an_unread_option_is_an_input_error`)
    from webrank import cli
    monkeypatch.setattr(cli, "parse_graph_spec", _no_search)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "") and says in err


def test_the_defaults_those_options_leave_out(capsys):
    # no family is the rank constraint, no --depth depth 1 and no --rmax
    # rmax 1; --f goes with --member as with --operator disjunctive
    assert run(capsys, "rank", "ineq", "W:7:2")[:2] == (
        0, "target=W:7:2 family=rank-constraint operator=disjunctive rank=1 witness_f=[1]\n")
    code, out, _ = run(capsys, "lp", "W:7:2", "--operator", "N")
    assert code == 0 and out.startswith("max over N^1(qstab(W:7:2)) = 2 at ")
    code, out, _ = run(capsys, "rank", "graph", "W:8:2", "--operator", "N")
    assert (code, out) == (2, "N-rank of W:8:2 exceeds rmax=1 (lower bound 2); "
                              "raise --rmax/--depth-cap\n")
    for point, verdict in ((_C5_POINT, "inside"), ("1/2,1/2,1/2,1/2,1/2", "outside")):
        assert run(capsys, "lp", "C:5", "--member", point, "--f", "1")[:2] == (
            0, f"point is {verdict} P_F(qstab(C:5)) for F=[1]\n")


# one route of each rank target and operator, and of each lp operator and
# --member, inside and outside (the Farkas branch) P_F; True marks a route
# that writes a --cert file
RANK_AND_LP_ROUTES = [
    (["rank", "graph", "W:8:2"], True),
    (["rank", "graph", "W:8:2", "--operator", "N", "--rmax", "2"], False),
    (["rank", "ineq", "antiweb", "A:11:4"], True),
    (["rank", "ineq", "joined", "join:A:5:2,A:5:2"], True),
    (["rank", "ineq", "rank-constraint", "W:10:2", "--operator", "N", "--rmax", "1"], False),
    (["lp", "C:5"], False),
    (["lp", "W:8:2", "--relaxation", "frac"], False),
    (["lp", "W:7:2", "--operator", "disjunctive", "--f", "1,3"], False),
    (["lp", "W:7:2", "--operator", "N", "--depth", "2"], False),
    (["lp", "C:5", "--member", _C5_POINT, "--f", "1"], False),
    (["lp", "C:5", "--member", "1/2,1/2,1/2,1/2,1/2", "--f", "1"], False),
]


def test_rank_and_lp_outputs_are_pinned(tmp_path, capsys):
    # pinned before each route took only the options it reads: the stdout
    # of every route in JSON and in table form, and each certificate file
    digest = hashlib.sha256()
    path = tmp_path / "cert.json"
    for argv, certifies in RANK_AND_LP_ROUTES:
        for fmt in ("json", "table"):
            cert = ["--cert", str(path)] if certifies else []
            code, out, err = run(capsys, *argv, *cert, "--format", fmt)
            assert (code, err) == (0, ""), argv
            digest.update(out.encode())
            if certifies:
                digest.update(path.read_bytes())
    assert digest.hexdigest() == \
        "fd6ef07a5f3e2ed7238af172d5143e90bc299c933eccee07433d3153122c7439"


def test_removed_options_are_usage_errors(monkeypatch, capsys):
    # verify rdfar checks every T: --sampled is an unknown option (exit 3)
    from webrank import cli
    monkeypatch.setattr(cli, "verify_rdfar", _no_search)
    code, out, err = run(capsys, "verify", "rdfar", "--sampled")
    assert (code, out) == (3, "") and "unrecognized arguments: --sampled" in err


_UNREAD = {"--hull-bound": "12", "--piece-cap": "3", "--depth-cap": "2",
           "--time-budget": "5", "--format": "json", "--seed": "1"}


@pytest.mark.parametrize("argv", [
    *(["generate", "W:8:2", opt] for opt in _UNREAD),
    ["rank", "graph", "W:8:2", "--seed"],
    ["verify", "rdfar", "--depth-cap"],
    *(["recheck", "report.json", opt] for opt in ("--hull-bound", "--depth-cap", "--seed")),
    *(["hull", "W:8:2", opt] for opt in ("--piece-cap", "--depth-cap", "--seed")),
    *(["lp", "W:8:2", opt] for opt in ("--hull-bound", "--seed")),
], ids=lambda argv: f"{argv[0]} {argv[-1]}")
def test_each_subcommand_takes_only_the_options_it_reads(argv, capsys):
    code, out, err = run(capsys, *argv, _UNREAD[argv[-1]])
    assert (code, out) == (3, "") and f"unrecognized arguments: {argv[-1]}" in err


# What each route reads, by route: its command line and the options it
# reads beyond --time-budget and --format (and --out for a verify suite),
# which every route of its command reads.  Beside a piece operator
# --member makes the member route, so those routes count it as read.
ROUTE_READS = [
    (["verify", "web-formulas"], {"--ks", "--nmax", "--no-complements"}),
    (["verify", "rdfar"], {"--nmax", "--piece-cap"}),
    (["verify", "w2"], {"--n-values", "--hull-bound"}),
    (["verify", "join"], {"--spec", "--piece-cap"}),
    (["verify", "operators"], {"--nmax", "--objectives", "--seed", "--piece-cap"}),
    (["rank", "graph", "W:8:2", "--operator", "disjunctive"], {"--cert"}),
    (["rank", "graph", "W:8:2", "--operator", "N"], {"--rmax", "--hull-bound", "--depth-cap"}),
    (["rank", "ineq", "W:8:2", "--operator", "disjunctive"], {"--cert", "--piece-cap"}),
    (["rank", "ineq", "W:8:2", "--operator", "N"], {"--rmax", "--depth-cap"}),
    (["lp", "C:5", "--operator", "none"], {"--relaxation", "--objective", "--member"}),
    (["lp", "C:5", "--operator", "disjunctive"],
     {"--relaxation", "--objective", "--f", "--piece-cap", "--member"}),
    (["lp", "C:5", "--operator", "N"], {"--relaxation", "--objective", "--depth", "--depth-cap"}),
    (["lp", "C:5", "--member", _C5_POINT], {"--relaxation", "--member", "--f", "--piece-cap"}),
]
_VALUES = {"--ks": ["2"], "--nmax": ["6"], "--no-complements": [], "--n-values": ["6"],
           "--spec": ["join:A:5:2,A:5:2"], "--objectives": ["1"], "--seed": ["1"],
           "--out": ["report.json"], "--hull-bound": ["12"], "--piece-cap": ["3"],
           "--depth-cap": ["2"], "--time-budget": ["5"], "--format": ["json"],
           "--rmax": ["1"], "--cert": ["cert.json"], "--relaxation": ["frac"],
           "--objective": ["1,1,1,1,1"], "--f": ["1"], "--depth": ["1"], "--member": [_C5_POINT]}


def _reads(argv) -> set:
    return {"--time-budget", "--format"} | ({"--out"} if argv[0] == "verify" else set())


def _unread_pairs():
    """(route, option) for each option of a command that the route does not read."""
    offered = {}
    for argv, reads in ROUTE_READS:
        offered.setdefault(argv[0], set()).update(reads | _reads(argv))
    return [(argv, flag) for argv, reads in ROUTE_READS
            for flag in sorted(offered[argv[0]] - reads - _reads(argv))]


def test_the_table_of_unread_options():
    # 48 pairs were once accepted and dropped; 8 more were input errors by
    # an `if` of their own
    pairs = _unread_pairs()
    assert len(pairs) == 56 and len(set(map(str, pairs))) == 56
    assert (["verify", "join"], "--nmax") in pairs
    assert (["rank", "graph", "W:8:2", "--operator", "disjunctive"], "--rmax") in pairs
    assert (["lp", "C:5", "--member", _C5_POINT], "--objective") in pairs


def _parser(argv) -> list:
    """The words that pick the sub-parser of a route: one for lp, and one
    for each verify suite and each rank target."""
    return argv[:1] if argv[0] == "lp" else argv[:2]


def _unread_message(argv, flag) -> str:
    """What the input error of an unread option says: the option and the
    route, where another route of the parser reads it, else that the
    parser does not know it."""
    if not any(flag in reads for a, reads in ROUTE_READS if _parser(a) == _parser(argv)):
        return "unrecognized arguments: " + " ".join([flag, *_VALUES[flag]])
    route = "--member" if "--member" in argv else " ".join(argv[argv.index("--operator"):][:2])
    return f"{flag}: not read with {route}"


@pytest.mark.parametrize("argv, flag", _unread_pairs(),
                         ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_an_unread_option_is_an_input_error(argv, flag, monkeypatch, capsys):
    from webrank import cli
    for name in ("parse_graph_spec", "verify_web_rank_formulas", "_verify_prime_antiwebs",
                 "verify_w2_description", "verify_join_bound", "verify_operator_sandwich"):
        monkeypatch.setattr(cli, name, _no_search)
    code, out, err = run(capsys, *argv, flag, *_VALUES[flag])
    assert (code, out) == (3, "") and err.rstrip().endswith(_unread_message(argv, flag))


@pytest.mark.parametrize("argv, reads", ROUTE_READS,
                         ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_each_option_a_route_reads_is_accepted(argv, reads):
    for flag in sorted(reads | _reads(argv)):
        assert _accepts([*argv, flag, *_VALUES[flag]]), flag


def test_the_defaults_of_the_options_a_route_reads():
    from webrank.cli import build_parser
    suites = {"web-formulas": dict(ks="2,3,4", nmax=12, no_complements=False),
              "rdfar": dict(nmax=11), "w2": dict(n_values="6..9"),
              "join": dict(spec="join:A:5:2,A:5:2"),
              "operators": dict(nmax=9, objectives=10, seed=0)}
    for suite, defaults in suites.items():
        args = vars(build_parser().parse_args(["verify", suite]))
        assert {k: args[k] for k in defaults} == defaults, suite
        assert (args["fmt"], args["out"], args["time_budget"]) == ("table", None, None)
    args = build_parser().parse_args(["rank", "ineq", "W:8:2"])
    assert (args.family, args.operator, args.rmax) == ("rank-constraint", "disjunctive", None)
    args = build_parser().parse_args(["lp", "C:5"])
    assert (args.relaxation, args.operator, args.depth) == ("qstab", "none", None)


def test_main_sets_only_the_caps_given(monkeypatch, capsys):
    # a cap not given keeps its graphs.LIMITS default for the run
    from webrank import cli
    seen = []

    def spy(*args):
        seen.append((LIMITS.hull_bound, LIMITS.piece_cap, LIMITS.depth_cap))
        return n_operator_max(*args)
    monkeypatch.setattr(cli, "n_operator_max", spy)
    assert run(capsys, "lp", "C:5", "--operator", "N")[0] == 0
    assert run(capsys, "lp", "C:5", "--operator", "N", "--depth-cap", "1")[0] == 0
    default = Limits()
    assert seen == [(default.hull_bound, default.piece_cap, default.depth_cap),
                    (default.hull_bound, default.piece_cap, 1)]


def test_console_script_entry_point():
    """The `webrank` script declared in pyproject.toml starts the CLI.

    Runs the declared `module:function` target in a child interpreter, so
    the test needs no `pip install` and no `webrank` executable on PATH.
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    import webrank

    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["webrank"]
    module, func = target.split(":")
    code = (f"import sys; from {module} import {func}; "
            f"sys.exit({func}())")
    # Put the imported package's root first, so the child runs the same code
    # as this test whatever the working directory and a relative PYTHONPATH.
    env = dict(os.environ)
    pkg_root = str(Path(webrank.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code, "rank", "graph", "W:7:2"],
                         capture_output=True, text=True, env=env, timeout=60)
    # W_7^2: n = 2(k+1) + s with k = 2, s = 1, so the disjunctive rank is 1.
    assert out.returncode == 0 and "rank=1" in out.stdout, \
        out.stdout + out.stderr
