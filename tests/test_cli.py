import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from castelpoly import cli
from castelpoly.cli import main, read_polytope_file
from castelpoly.corpus import generate_corpus, run_corpus
from castelpoly.errors import PolytopeFileError
from castelpoly.geometry import build_polytope
from castelpoly.registry import (
    REGISTRY_KEYS,
    family_vertices,
    nonspanning_dim4_vertices,
    run_example,
)
from castelpoly.report import build_report


def write(tmp_path, name, content):
    f = tmp_path / name
    f.write_text(content)
    return str(f)


def test_read_json_file(tmp_path):
    path = write(tmp_path, "p.json", '{"name": "sq", "vertices": [[0,0],[1,0],[0,1],[1,1]]}')
    name, verts = read_polytope_file(path)
    assert name == "sq"
    assert verts == [(0, 0), (1, 0), (0, 1), (1, 1)]
    # an absent, null or empty name falls back to the file stem
    for i, name in enumerate(["", '"name": null, ', '"name": "", ']):
        path = write(tmp_path, f"stem{i}.json", '{' + name + '"vertices": [[0]]}')
        assert read_polytope_file(path) == (f"stem{i}", [(0,)])


def test_read_text_file(tmp_path):
    path = write(tmp_path, "tri.txt", "0 0\n1 0\n0 1\n# comment line\n\n")
    name, verts = read_polytope_file(path)
    assert name == "tri"
    assert verts == [(0, 0), (1, 0), (0, 1)]


def test_read_file_errors(tmp_path):
    with pytest.raises(PolytopeFileError, match="line 2"):
        read_polytope_file(write(tmp_path, "bad.txt", "0 0\none two\n"))
    with pytest.raises(PolytopeFileError, match="vertices"):
        read_polytope_file(write(tmp_path, "bad.json", '{"name": "x"}'))
    with pytest.raises(PolytopeFileError, match="invalid JSON"):
        read_polytope_file(write(tmp_path, "bad2.json", "{broken"))
    with pytest.raises(PolytopeFileError, match=r"vertices\[1\]"):
        read_polytope_file(write(tmp_path, "bad3.json", '{"vertices": [[1,0],[0.5,1]]}'))
    with pytest.raises(PolytopeFileError, match=r"vertices\[1\]"):
        read_polytope_file(write(tmp_path, "bad4.json", '{"vertices": [[0,0],[true,0],[0,1]]}'))
    for name in ("5", "0", "false", "[]", "{}"):
        doc = f'{{"name": {name}, "vertices": [[0,0],[1,0],[0,1]]}}'
        with pytest.raises(PolytopeFileError, match="field 'name' must be a string"):
            read_polytope_file(write(tmp_path, "badname.json", doc))


def test_analyze_nonspanning_file(tmp_path, capsys):
    doc = {"name": "flat-but-not-spanning", "vertices": [list(v) for v in nonspanning_dim4_vertices()]}
    path = write(tmp_path, "p.json", json.dumps(doc))
    assert main(["analyze", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["hstar"] == [1, 1, 1, 1, 0]
    assert report["spanning"] is False
    assert report["castelnuovo"]["characterization"]["verdict"] is False
    assert report["castelnuovo"]["direct"]["verdict"] is False
    assert report["castelnuovo"]["routes_agree"] is True


def test_analyze_text_output(tmp_path, capsys):
    path = write(tmp_path, "sq.txt", "0 0\n2 0\n0 2\n2 2\n")
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "h*-vector:           (1, 6, 1)" in out
    assert "ROUTE-MISMATCH" not in out


def test_analyze_family_a4_returns_a_report(tmp_path, capsys):
    # h* of this 9-polytope reads the dilates up to 5P, within the default
    # budget; the convolution of L(0..9) needed 6P at 214,089,967 fibers
    doc = {"vertices": [list(v) for v in family_vertices(4)]}
    path = write(tmp_path, "fam4.json", json.dumps(doc))
    assert main(["analyze", path]) == 0
    captured = capsys.readouterr()
    assert "h*-vector:           (1, 1, 1, 1, 1, 2, 0, 0, 0, 0)" in captured.out
    assert "degree:              5" in captured.out
    assert captured.err == ""


def test_analyze_degenerate_exits_nonzero(tmp_path, capsys):
    path = write(tmp_path, "dot.txt", "3 3\n3 3\n")
    assert main(["analyze", path]) == 1
    assert "NotFullDimensional" in capsys.readouterr().err


def test_analyze_malformed_exits_nonzero(tmp_path, capsys):
    path = write(tmp_path, "bad.txt", "0 0\nx y\n")
    assert main(["analyze", path]) == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "idp"])
def test_non_integer_coordinates_exit_one(capsys, monkeypatch, command):
    # the file readers refuse them too; build_polytope refuses them for any caller
    monkeypatch.setattr(cli, "read_polytope_file", lambda path: ("tri", [(0, 0), (1.5, 0), (0, 1)]))
    assert main([command, "tri.txt"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: NonIntegerCoordinate: coordinate 1.5 is not an integer\n"


@pytest.mark.parametrize("command", ["analyze", "idp"])
@pytest.mark.parametrize("option", ["--budget", "--kmax"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_option_below_one_is_refused(tmp_path, capsys, command, option, value):
    path = write(tmp_path, "sq.txt", "0 0\n1 0\n0 1\n1 1\n")
    assert main([command, path, option, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {option} must be at least 1")


def test_corpus_budget_below_one_is_refused(capsys):
    args = ["corpus", "--dim", "2", "--count", "1", "--seed", "0", "--budget", "0"]
    assert main(args) == 1
    assert capsys.readouterr().err.startswith("error: --budget")


@pytest.mark.parametrize("option", ["--dim", "--coord-bound", "--count", "--jobs"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_corpus_option_below_one_is_refused(capsys, option, value):
    args = ["corpus", "--dim", "2", "--count", "1", "--seed", "0", option, value]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {option} must be at least 1, got {value}\n"


@pytest.mark.parametrize("value", ["0", "-1"])
def test_examples_a_below_one_is_refused(capsys, value):
    assert main(["examples", "family-a", "--a", value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --a must be at least 1, got {value}\n"


@pytest.mark.parametrize(
    "path, printed",
    [
        (("bound_audits", "hibi", "holds"), "VIOLATED"),
        (("bound_audits", "hkn", "holds"), "VIOLATED"),
        (("bound_audits", "volume", "holds"), "VIOLATED"),
        (("bound_audits", "volume", "equality_iff_flat"), "INCONSISTENT"),
        (("triangulation", "betke_mcmullen_consistent"), "INCONSISTENT"),
        (("castelnuovo", "routes_agree"), "ROUTE-MISMATCH"),
    ],
)
def test_analyze_exits_one_on_a_failed_check(tmp_path, capsys, monkeypatch, path, printed):
    real = cli.build_report

    def broken(*args, **kwargs):
        report = real(*args, **kwargs)
        node = report
        for key in path[:-1]:
            node = node[key]
        assert node[path[-1]] is True
        node[path[-1]] = False
        return report

    monkeypatch.setattr(cli, "build_report", broken)
    square = write(tmp_path, "sq.txt", "0 0\n2 0\n0 2\n2 2\n")
    assert main(["analyze", square]) == 1
    assert printed in capsys.readouterr().out
    assert main(["analyze", square, "--json"]) == 1


def test_report_json_round_trip():
    p = build_polytope(family_vertices(1))
    report = build_report(p, name="fam1")
    assert json.loads(json.dumps(report)) == report


def test_idp_exit_codes(tmp_path, capsys):
    fam = write(tmp_path, "fam.json", json.dumps({"vertices": [list(v) for v in family_vertices(1)]}))
    assert main(["idp", fam]) == 2
    assert "(1, 1, 1)" in capsys.readouterr().out

    cube = write(tmp_path, "cube.txt", "0 0 0\n1 0 0\n0 1 0\n0 0 1\n1 1 0\n1 0 1\n0 1 1\n1 1 1\n")
    assert main(["idp", cube]) == 0

    bad = write(tmp_path, "bad.txt", "zzz\n")
    assert main(["idp", bad]) == 1


def test_idp_exit_zero_below_cutoff_is_no_certificate(tmp_path, capsys):
    # exit 0 means no counterexample up to the depth checked: this 3-simplex
    # is not IDP (2P holds (1, 1, 1)), but --kmax 1 checks no dilate
    simplex = write(tmp_path, "simplex.txt", "0 0 0\n1 0 0\n0 1 0\n1 1 2\n")
    assert main(["idp", simplex, "--kmax", "1"]) == 0
    assert capsys.readouterr().out == "simplex: checked-up-to-kmax (k <= 1)\n"
    assert main(["idp", simplex]) == 2
    assert "(1, 1, 1) is in 2P" in capsys.readouterr().out


def test_examples_all_pass():
    for name in REGISTRY_KEYS:
        checks = run_example(name)
        assert checks and all(ok for _, ok, _ in checks), [d for _, ok, d in checks if not ok]


def test_examples_cli(capsys):
    assert main(["examples", "square-2x2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert main(["examples", "no-such-example"]) == 1
    assert "unknown example" in capsys.readouterr().err


def test_examples_family_with_parameter(capsys):
    assert main(["examples", "family-a", "--a", "1"]) == 0
    out = capsys.readouterr().out
    assert "a=1" in out and "a=2" not in out


def test_examples_a_only_for_family_a(capsys):
    assert main(["examples", "square-2x2", "--a", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --a applies to family-a only, not square-2x2\n"
    # with no name, --a goes to family-a and every other example runs as usual
    assert main(["examples", "--a", "1"]) == 0
    out = capsys.readouterr().out
    assert "[family-a] a=1" in out and "a=2" not in out
    assert all(f"[{name}]" in out for name in REGISTRY_KEYS)


def test_closed_stdout_exits_one_without_traceback(tmp_path):
    path = write(tmp_path, "sq.txt", "0 0\n2 0\n0 2\n2 2\n")
    read, write_end = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "castelpoly.cli", "analyze", path],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_corpus_generation_deterministic():
    a = generate_corpus(3, 2, 20, seed=11)
    b = generate_corpus(3, 2, 20, seed=11)
    assert [p.vertices for p in a] == [p.vertices for p in b]
    assert all(p.dim == 3 for p in a)


def test_corpus_cli_deterministic_and_clean(capsys):
    assert main(["corpus", "--dim", "2", "--coord-bound", "3", "--count", "40", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["corpus", "--dim", "2", "--coord-bound", "3", "--count", "40", "--seed", "9"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "all audits passed" in first


def test_analyze_refuses_a_collect_beyond_the_budget(tmp_path, capsys):
    # conv(0, 2^70) walks one fiber, but its points cannot be held
    path = write(tmp_path, "long.json", '{"vertices": [[0], [1180591620717411303424]]}')
    assert main(["analyze", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: BudgetExceeded: dilate scan needs 1180591620717411303425 points, "
        "budget is 100000000\n"
    )


def test_analyze_certifies_idp_without_collecting_2p(tmp_path, capsys):
    # 2P holds 25 points, over the budget; the unimodular pulling
    # triangulation certifies IDP from P's 9 points and the counts of P and 2P
    path = write(tmp_path, "square.json", '{"vertices": [[0, 0], [2, 0], [0, 2], [2, 2]]}')
    assert main(["analyze", path, "--budget", "10"]) == 0
    assert "idp:                 certified-idp (k <= 2)\n" in capsys.readouterr().out
    assert main(["analyze", path, "--budget", "10", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["idp"]["status"] == "certified-idp"


def test_corpus_text_reports_skips(capsys):
    args = ["corpus", "--dim", "3", "--coord-bound", "2", "--count", "5", "--seed", "1", "--budget", "5"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "all audits passed" not in out
    assert out.endswith(
        "5 of 5 polytopes skipped: a dilate scan needed more than the budget of 5 "
        "fibers walked or points collected\n"
    )
    assert main([*args, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["total_skipped"] == 5


def test_corpus_json_is_parseable(capsys):
    assert main(["corpus", "--dim", "2", "--coord-bound", "2", "--count", "10", "--seed", "2", "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["total_failures"] == 0
    assert summary["tallies"]["route_agreement"]["pass"] == 10


def test_corpus_jobs_match_sequential():
    # a budget small enough to skip some polytopes shows that each polytope
    # carries its budget into the worker processes
    for budget, skipped in ((10**8, False), (10, True)):
        seq = run_corpus(2, 2, 12, seed=4, budget=budget, jobs=1)
        par = run_corpus(2, 2, 12, seed=4, budget=budget, jobs=2)
        assert seq == par
        assert (seq["total_skipped"] > 0) == skipped
