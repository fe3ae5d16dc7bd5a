import json
import os
import subprocess
import sys
import time

import pytest

from qchroma import johnson
from qchroma.cli import main
from qchroma.matq import gaussian_binomial


def test_enumerate(capsys, tmp_path):
    assert main(["enumerate", "--q", "2", "--n", "4", "--m", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 35 and len(set(lines)) == 35
    out = os.path.join(tmp_path, "verts.txt")
    assert main(["enumerate", "--q", "2", "--n", "4", "--m", "2",
                 "--out", out]) == 0
    assert open(out).read().splitlines() == lines


def test_colour_verify_roundtrip(tmp_path):
    cert = os.path.join(tmp_path, "cert.json")
    rc = main(["colour", "--q", "2", "--n", "4", "--m", "2", "--t", "1",
               "--verify", "--out", cert])
    assert rc == 0
    assert main(["verify", "--cert", cert]) == 0


def test_colour_output_is_deterministic(tmp_path):
    a = os.path.join(tmp_path, "a.json")
    b = os.path.join(tmp_path, "b.json")
    for path in (a, b):
        assert main(["colour", "--q", "2", "--n", "5", "--m", "2", "--t", "1",
                     "--out", path]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_verify_tampered_exits_2(tmp_path, capsys):
    cert = os.path.join(tmp_path, "cert.json")
    main(["colour", "--q", "2", "--n", "4", "--m", "2", "--t", "1",
          "--out", cert])
    doc = json.load(open(cert))
    # merge the colours of the first two vertices (adjacent or not, properness
    # breaks somewhere once we also clone a third; pick a guaranteed clash)
    keys = {e["vertex"]: e["colour"] for e in doc["colours"]}
    first = doc["colours"][0]["vertex"]
    clash = None
    from qchroma.grassmann import adjacent, decode_subspace
    S0 = decode_subspace(first)
    for e in doc["colours"][1:]:
        if e["colour"] != keys[first] and adjacent(S0, decode_subspace(e["vertex"]), 1):
            clash = e
            break
    clash["colour"] = keys[first]
    bad = os.path.join(tmp_path, "bad.json")
    json.dump(doc, open(bad, "w"))
    assert main(["verify", "--cert", bad]) == 2
    lines = capsys.readouterr().err.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("counterexample"))
    assert lines[at + 1].startswith("witness: both contain q=2;n=4;m=1;rows=")


def test_colour_verify_failure_exits_2_without_traceback(tmp_path, capsys,
                                                         monkeypatch):
    from qchroma import colouring as col
    real = col._CosetColourer.block
    monkeypatch.setattr(col._CosetColourer, "block",
                        lambda self, idvec: [0 for _ in real(self, idvec)])
    out = os.path.join(tmp_path, "cert.json")
    assert main(["colour", "--q", "2", "--n", "4", "--m", "2", "--t", "1",
                 "--verify", "--out", out]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "improper colouring" in err
    assert not os.path.exists(out)


def test_verify_missing_vertex_exits_2(tmp_path, capsys):
    cert = os.path.join(tmp_path, "cert.json")
    main(["colour", "--q", "2", "--n", "4", "--m", "2", "--t", "1",
          "--out", cert])
    doc = json.load(open(cert))
    doc["colours"] = doc["colours"][1:]
    bad = os.path.join(tmp_path, "bad.json")
    json.dump(doc, open(bad, "w"))
    assert main(["verify", "--cert", bad]) == 2
    assert "missing" in capsys.readouterr().err


def test_bounds_formats(capsys):
    assert main(["bounds", "--q", "2", "--n", "4", "--m", "2", "--t", "1"]) == 0
    out = capsys.readouterr().out
    assert "7" in out and "12" in out and "19" in out
    assert main(["bounds", "--q", "2", "--n", "4", "--m", "2", "--t", "1",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"regime": "direct", "vertices": "35", "lower": "7",
                   "theorem_upper": "12", "trivial_upper": "19",
                   "johnson_palette": "3"}
    assert main(["bounds", "--q", "2", "--n", "4", "--m", "2", "--t", "1",
                 "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1].split(",")[2] == "7"


def test_oracle_command(capsys):
    assert main(["oracle", "--q", "2", "--n", "4", "--m", "2", "--t", "1",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_clique"] == "7" and doc["chromatic_upper"] == "7"
    assert doc["chromatic_exact"] is True


def test_oracle_refuses_a_negative_budget_before_the_graph_build(monkeypatch, capsys):
    from qchroma import oracle

    def no_graph(*args, **kwargs):
        raise AssertionError("graph built for a refused budget")
    monkeypatch.setattr(oracle, "build_graph", no_graph)
    assert main(["oracle", "--q", "2", "--n", "6", "--m", "3", "--t", "1",
                 "--budget", "-5"]) == 1
    assert "budget" in capsys.readouterr().err


def test_export_graph(tmp_path):
    out = os.path.join(tmp_path, "grs.dimacs")
    assert main(["export-graph", "--q", "2", "--n", "4", "--m", "2", "--t", "1",
                 "--out", out]) == 0
    header = open(out).readline().strip()
    assert header == "p edge 35 315"
    assert len(open(out + ".labels").read().splitlines()) == 35


def test_johnson_command(capsys):
    assert main(["johnson", "--n", "6", "--m", "3", "--t", "1"]) == 0
    out = capsys.readouterr().out
    assert "palette 10" in out
    assert main(["johnson", "--n", "6", "--m", "3", "--t", "1",
                 "--johnson", "gs"]) == 0
    out = capsys.readouterr().out
    assert "mod 57" in out


def test_validation_errors_exit_1(capsys, tmp_path):
    assert main(["colour", "--q", "6", "--n", "4", "--m", "2", "--t", "1"]) == 1
    assert main(["colour", "--q", "2", "--n", "4", "--m", "2", "--t", "2"]) == 1
    assert main(["bounds", "--q", "2", "--n", "2", "--m", "2", "--t", "1"]) == 1
    capsys.readouterr()
    assert main(["oracle", "--q", "2", "--n", "4", "--m", "2", "--t", "1",
                 "--budget", "-5"]) == 1
    assert "budget" in capsys.readouterr().err
    assert main(["verify", "--cert", "/nonexistent/path.json"]) == 1
    junk = os.path.join(tmp_path, "junk.json")
    open(junk, "w").write("not a certificate")
    assert main(["verify", "--cert", junk]) == 1
    # keys and colours that are JSON numbers, lists or booleans, not strings
    cert = os.path.join(tmp_path, "cert.json")
    assert main(["colour", "--q", "2", "--n", "4", "--m", "2", "--t", "1",
                 "--out", cert]) == 0
    doc = json.load(open(cert))
    one = next(e for e in doc["colours"] if e["colour"] == "1")
    mutants = [
        [dict(e, vertex=i) for i, e in enumerate(doc["colours"])],
        [dict(e, vertex=[e["vertex"]]) for e in doc["colours"]],
        [dict(e, colour=int(e["colour"]) + 0.5) if e is one else e for e in doc["colours"]],
        [dict(e, colour=True) if e is one else e for e in doc["colours"]],
    ]
    for entries in mutants:
        open(cert, "w").write(json.dumps(dict(doc, colours=entries)))
        capsys.readouterr()
        assert main(["verify", "--cert", cert]) == 1
        assert "malformed certificate" in capsys.readouterr().err
    capsys.readouterr()


def test_colour_cap_exit_1(tmp_path):
    assert main(["colour", "--q", "2", "--n", "6", "--m", "3", "--t", "1",
                 "--cap", "100"]) == 1
    assert gaussian_binomial(6, 3, 2) == 1395  # what the cap protected against


def test_colour_cap_is_checked_before_the_context_build(monkeypatch, capsys):
    from qchroma import colouring as col

    def no_context(*args):
        raise AssertionError("context built for a refused graph")
    monkeypatch.setattr(col, "make_context", no_context)
    start = time.perf_counter()
    assert main(["colour", "--q", "2", "--n", "16", "--m", "8", "--t", "1"]) == 1
    assert time.perf_counter() - start < 1.0
    assert "exceeds the cap" in capsys.readouterr().err


def test_verify_over_large_declared_graph_exits_2_quickly(tmp_path, capsys):
    cert = os.path.join(tmp_path, "cert.json")
    main(["colour", "--q", "2", "--n", "4", "--m", "2", "--t", "1", "--out", cert])
    doc = json.load(open(cert))
    doc["params"].update(n="24", m="12")
    bad = os.path.join(tmp_path, "relabelled.json")
    json.dump(doc, open(bad, "w"))
    start = time.perf_counter()
    assert main(["verify", "--cert", bad]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert f"35 keys for {gaussian_binomial(24, 12, 2)} vertices" in err


def test_colour_verify_roundtrip_over_a_prime_field_above_10(tmp_path, capsys):
    # F_11 entries of value 10 are written "10"; the verifier must read them
    cert = os.path.join(tmp_path, "f11.json")
    assert main(["colour", "--q", "11", "--n", "3", "--m", "2", "--t", "1",
                 "--out", cert]) == 0
    assert ",10]" in open(cert).read()
    assert main(["verify", "--cert", cert]) == 0
    assert capsys.readouterr().out.startswith("OK: proper colouring")


def test_bounds_above_the_greedy_cap_exits_1_quickly(capsys):
    # greedy would build adjacency over C(18, 9) = 48 620 subsets
    start = time.perf_counter()
    assert main(["bounds", "--q", "2", "--n", "18", "--m", "9", "--t", "1"]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "48620 subsets" in err and "--johnson gs" in err


@pytest.mark.parametrize("n,m", [(18, 9), (13, 6)])
def test_bounds_gs_beyond_desk_scale_reports_the_residue_ring(capsys, n, m):
    # gs would build F_{19^9} (F_{17^6}); the residue-ring modulus r bounds
    # the Johnson palette by arithmetic alone
    r = johnson.johnson_bounds(n, m, 1)[1]
    cosets = 2 ** ((n - m) * (m - 1))
    start = time.perf_counter()
    args = ["bounds", "--q", "2", "--n", str(n), "--m", str(m), "--t", "1",
            "--johnson", "gs"]
    assert main(args) == 0
    assert f"johnson residue ring:   {r} (residue-ring bound, not a built palette)" \
        in capsys.readouterr().out
    assert main(args + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["johnson_palette"] is None and doc["johnson_residue_ring"] == str(r)
    assert doc["theorem_upper"] == str(r * cosets)
    assert main(args + ["--format", "csv"]) == 0
    head, row = capsys.readouterr().out.splitlines()
    assert dict(zip(head.split(","), row.split(",")))["johnson_residue_ring"] == str(r)
    assert time.perf_counter() - start < 1.0


def test_complete_regime_through_cli(tmp_path):
    cert = os.path.join(tmp_path, "complete.json")
    assert main(["colour", "--q", "2", "--n", "5", "--m", "3", "--t", "1",
                 "--verify", "--out", cert]) == 0
    doc = json.load(open(cert))
    assert doc["regime"] == "complete"
    assert doc["johnson"] is None and doc["code"] is None
    assert main(["verify", "--cert", cert]) == 0


def test_selftest_command(capsys):
    assert main(["selftest", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 20 and "FAIL" not in out


def test_python_dash_m_runs_the_cli():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-m", "qchroma", "bounds", "--q", "2",
                           "--n", "4", "--m", "2", "--t", "1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "J_2(4,2,1): 35 vertices" in done.stdout
