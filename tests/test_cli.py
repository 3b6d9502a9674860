"""CLI surface: subcommands, exit codes, deterministic reports, recheck."""

import json

import pytest

from webrank.cli import main


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
    code, out, _ = run(capsys, "rank", "graph", "W:6:2", "--polyhedral")
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


def test_verify_json_reports_are_byte_identical(capsys):
    a = run(capsys, "verify", "rdfar", "--nmax", "7", "--format", "json")
    b = run(capsys, "verify", "rdfar", "--nmax", "7", "--format", "json")
    assert a == b and a[0] == 0


def test_verify_operators_small(capsys):
    code, out, _ = run(capsys, "verify", "operators", "--nmax", "6",
                       "--objectives", "3")
    assert code == 0


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


def test_input_error_exit_3(capsys):
    code, _, err = run(capsys, "generate", "X:9")
    assert code == 3 and "input error" in err
    code, _, err = run(capsys, "generate", "W:7:3")
    assert code == 3
    code, _, err = run(capsys, "lp", "W:8:2", "--objective", "1,2")
    assert code == 3


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


def test_lp_and_hull_commands(capsys):
    code, out, _ = run(capsys, "lp", "C:5")
    assert code == 0 and "5/2" in out
    code, out, _ = run(capsys, "lp", "W:8:2", "--relaxation", "frac",
                       "--format", "json")
    payload = json.loads(out.strip())
    assert code == 0 and payload["value"] == "4"
    code, out, _ = run(capsys, "hull", "W:9:2")
    assert code == 0 and "one-interval" in out


def test_time_budget_exhaustion_exit_2(capsys):
    code, _, err = run(capsys, "verify", "web-formulas", "--ks", "4",
                       "--nmax", "16", "--time-budget", "0.000001")
    assert code == 2 and "budget" in err


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
