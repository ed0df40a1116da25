"""Command-line behaviour: subcommands, stable exit codes, determinism."""

import argparse
import json
import os
import subprocess
import sys

import pytest

from cellmesh.cli import run
from cellmesh.corpus import write_corpus
from conftest import (double_coforest_cok, double_engine_cok, double_lift_column,
                      double_one_gram_push, double_t_x, double_torsion, double_v_order,
                      perturb_kalai_matrix, triple_interface_tail)

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus")
    write_corpus(path)
    return path


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys, corpus_dir):
    code, out, _ = invoke(capsys, "validate", str(corpus_dir / "rp2.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["cells"] == {"0": 6, "1": 15, "2": 10}
    assert doc["pass"] is True


def test_validate_table_output(capsys, corpus_dir):
    code, out, _ = invoke(capsys, "--output", "table",
                          "validate", str(corpus_dir / "k3.json"))
    assert code == 0
    assert "complex: k3" in out


def test_missing_file_exits_2(capsys):
    code, _, err = invoke(capsys, "mesh", "nonexistent.json",
                          "--dim", "1", "--which", "cycles")
    assert code == 2
    assert "error" in err


def test_malformed_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "dimension": 1, "cells": '
                   '{"1": [{"id": "e", "boundary": [["ghost", 1]]}]}}')
    code, _, err = invoke(capsys, "validate", str(bad))
    assert code == 2
    assert "ghost" in err


def test_bad_process_count_exits_2(capsys, monkeypatch, corpus_dir):
    for value in ("0", "-3", "abc"):
        monkeypatch.setenv("CELLMESH_PROCESSES", value)
        code, out, err = invoke(capsys, "verify", str(corpus_dir / "k4.json"),
                                "--theorem", "trent", "--dim", "1")
        assert code == 2 and out == ""
        assert "CELLMESH_PROCESSES" in err and repr(value) in err


def test_failed_check_exits_1(capsys, monkeypatch, corpus_dir):
    # a leaf check that raises deep in the enumeration is a verification
    # failure: exit 1 with one line on stderr, no traceback
    rp2 = str(corpus_dir / "rp2.json")
    for patch, name, theorem, message in (
            (double_torsion, "rp2", "trent", "cokernel order"),
            (double_torsion, "rp2", "geometric", "cokernel order"),
            (double_t_x, "rp2", "trent", "torsion ratio"),
            (double_v_order, "rp2", "boundary", "boundary weight mismatch"),
            (double_engine_cok, "rp2", "boundary", "boundary weight mismatch"),
            (triple_interface_tail, "rp2", "boundary", "boundary weight mismatch"),
            (double_coforest_cok, "k4", "kirchhoff", "pair weight mismatch"),
            (double_coforest_cok, "delta3", "geometric", "pair weight mismatch"),
            (double_one_gram_push, "k4", "kirchhoff", "pair weight mismatch")):
        patch(monkeypatch)
        code, out, err = invoke(capsys, "verify", str(corpus_dir / f"{name}.json"),
                                "--theorem", theorem, "--dim", "1")
        monkeypatch.undo()
        assert code == 1 and out == ""
        assert err.startswith(f"verification failed: {message}")
        assert err.count("\n") == 1 and "Traceback" not in err
    # a broken identity that raises nothing is a failing report: the report
    # goes to stdout with pass false, one stderr line names the first
    # failing row, and the exit code is 1; one doubled Gram determinant of
    # trent's engine is such a break
    double_one_gram_push(monkeypatch)
    code, out, err = invoke(capsys, "verify", str(corpus_dir / "k4.json"),
                            "--theorem", "trent", "--dim", "1")
    monkeypatch.undo()
    assert code == 1 and json.loads(out)["pass"] is False
    assert err.startswith("verification failed: trent d=1: row k=") and err.count("\n") == 1
    import cellmesh.torsion as torsion
    orig = torsion.reduced_laplacian_det
    monkeypatch.setattr(torsion, "reduced_laplacian_det", lambda x, i: 4 * orig(x, i))
    code, out, err = invoke(capsys, "verify", rp2, "--theorem", "rf")
    assert code == 1 and json.loads(out)["pass"] is False
    assert err == "verification failed: rf d=0 lhs != rhs\n"
    monkeypatch.undo()
    perturb_kalai_matrix(monkeypatch)
    code, out, err = invoke(capsys, "kalai", "--n", "4", "--k", "1", "--kind", "laplacian")
    assert code == 1 and json.loads(out)["pass"] is False
    assert err == "verification failed: kalai-laplacian d=1: row k=1 lhs != rhs\n"
    monkeypatch.undo()
    # geometric's cycles and boundaries sides share k values: the line names
    # the side of the failing row
    import cellmesh.spectra as spectra
    from cellmesh.intmat import RatMatrix
    char_poly_rational = spectra.char_poly_rational
    basis = spectra.geometric_boundary_basis

    def doubled_basis(*args):
        g = basis(*args)
        return RatMatrix(g.rows, g.cols, [[2 * v for v in row] for row in g.data])
    for name, patched, side, k in (
            ("char_poly_rational",
             lambda m: [2 * c for c in char_poly_rational(m)], "cycles", 0),
            ("geometric_boundary_basis", doubled_basis, "boundaries", 1)):
        monkeypatch.setattr(spectra, name, patched)
        code, out, err = invoke(capsys, "verify", rp2, "--theorem", "geometric", "--dim", "1")
        monkeypatch.undo()
        failing = [row for row in json.loads(out)["rows"] if not row["pass"]]
        assert code == 1 and failing[0]["side"] == side and failing[0]["k"] == k
        assert err == f"verification failed: geometric d=1: row side={side} k={k} lhs != rhs\n"


def test_covolume_mismatch_exits_1(capsys, monkeypatch, corpus_dir):
    # a wrong homology lift breaks the covolume row, whose right side is the
    # projection route: a failing report, exit 1 and one stderr line; in rf
    # it breaks the cross-check inside homology_covolume_squared, which
    # raises: exit 1, one stderr line, nothing on stdout
    double_lift_column(monkeypatch)
    for name, d in (("sphere2", 2), ("rp2", 0)):
        code, out, err = invoke(capsys, "verify", str(corpus_dir / f"{name}.json"),
                                "--theorem", "covolume", "--dim", str(d))
        rows = json.loads(out)["rows"]
        assert code == 1 and [row["pass"] for row in rows] == [False]
        assert err == f"verification failed: covolume d={d}: row k=0 lhs != rhs\n"
    code, out, err = invoke(capsys, "verify", str(corpus_dir / "rp2.json"), "--theorem", "rf")
    assert code == 1 and out == ""
    assert err.startswith("verification failed: homology covolume mismatch")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_usage_error_exits_2(capsys):
    assert run(["verify"]) == 2
    assert run(["bogus-subcommand"]) == 2
    assert run(["verify", "x.json", "--theorem", "trent"]) == 2  # missing --dim
    # a bad Kalai weight is bad input, a zero denominator included
    capsys.readouterr()
    for weights in ("1/0,1,1", "a,1,1", "1,,1"):
        code, out, err = invoke(capsys, "kalai", "--n", "3", "--k", "1", "--kind", "mesh",
                                "--weights", weights)
        assert code == 2 and out == "", weights
        assert err.startswith("error: bad weight") and err.count("\n") == 1, err


def test_repeated_runs_reuse_one_parser(capsys, monkeypatch, corpus_dir):
    # after a first run, later runs build no ArgumentParser, and each gives
    # the exit code, stdout and stderr of its first call: a usage error,
    # --help, and a table run that leaves the next plain run printing JSON
    k3 = str(corpus_dir / "k3.json")
    argvs = (["bogus-subcommand"], ["--help"],
             ["--output", "table", "validate", k3], ["validate", k3])
    first = [invoke(capsys, *argv) for argv in argvs]
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    again = [invoke(capsys, *argv) for argv in argvs]
    assert built == []
    assert again == first
    (usage_code, usage_out, usage_err), (help_code, help_out, help_err) = first[:2]
    assert usage_code == 2 and usage_out == "" and usage_err.startswith("usage: cellmesh")
    assert help_code == 0 and help_out.startswith("usage: cellmesh") and help_err == ""
    assert first[2][0] == 0 and first[2][1].startswith("complex: k3")
    assert first[3][0] == 0 and json.loads(first[3][1])["complex"] == "k3"


def test_homology_subcommand(capsys, corpus_dir):
    code, out, _ = invoke(capsys, "homology", str(corpus_dir / "rp2.json"),
                          "--dim", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["homology"][0]["invariant_factors"] == ["2"]


def test_basis_subcommand(capsys, corpus_dir):
    code, out, _ = invoke(capsys, "basis", str(corpus_dir / "moore_z2.json"),
                          "--dim", "1", "--which", "boundaries")
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == [["2"]]
    assert doc["covolume_squared"] == "4"


def test_mesh_subcommand(capsys, corpus_dir):
    code, out, _ = invoke(capsys, "mesh", str(corpus_dir / "k3.json"),
                          "--dim", "1", "--which", "cycles", "--charpoly")
    assert code == 0
    doc = json.loads(out)
    assert doc["matrix"] == [["3"]]
    assert doc["charpoly"] == ["-3", "1"]


def test_mesh_geometric_basis(capsys, corpus_dir):
    code, out, _ = invoke(capsys, "mesh", str(corpus_dir / "k3.json"),
                          "--dim", "1", "--which", "cycles",
                          "--basis", "geometric:e12,e23")
    assert code == 0
    doc = json.loads(out)
    assert doc["matrix"] == [["3"]]
    assert doc["basis"].startswith("geometric-from-forest")


def test_mesh_geometric_boundaries(capsys, corpus_dir):
    code, out, _ = invoke(capsys, "mesh", str(corpus_dir / "delta3.json"),
                          "--dim", "2", "--which", "boundaries",
                          "--basis", "geometric:1.2.3.4")
    assert code == 0
    assert json.loads(out)["matrix"] == [["4"]]


def test_laplacian_subcommand(capsys, corpus_dir):
    code, out, _ = invoke(capsys, "laplacian", str(corpus_dir / "k3.json"),
                          "--dim", "1", "--charpoly")
    assert code == 0
    doc = json.loads(out)
    assert doc["charpoly"] == ["0", "9", "-6", "1"]


def test_forests_subcommand(capsys, corpus_dir):
    code, out, _ = invoke(capsys, "forests", str(corpus_dir / "k4.json"),
                          "--dim", "1", "--kind", "forest", "--count-only")
    assert code == 0
    assert json.loads(out)["count"] == 16
    code, out, _ = invoke(capsys, "forests", str(corpus_dir / "moore_z2.json"),
                          "--dim", "1", "--kind", "coforest", "--with-weights")
    assert code == 0
    doc = json.loads(out)
    assert doc["subsets"][0]["weight"] == "4"


def test_laplacian_weighted(capsys, tmp_path):
    doc = {"name": "edge", "dimension": 1,
           "cells": {"0": [{"id": "v1"}, {"id": "v2"}],
                     "1": [{"id": "e", "boundary": [["v1", -1], ["v2", 1]]}]},
           "weights": {"e": "5/2"}}
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(doc))
    code, out, _ = invoke(capsys, "laplacian", str(path), "--dim", "1",
                          "--use-weights", "--charpoly")
    assert code == 0
    assert json.loads(out)["charpoly"] == ["0", "-5", "1"]


def test_forests_more_kinds(capsys, corpus_dir):
    code, out, _ = invoke(capsys, "forests", str(corpus_dir / "k3.json"),
                          "--dim", "1", "--kind", "augmented", "--k", "1",
                          "--with-weights")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 1 and doc["subsets"][0]["weight"] == "1"
    code, out, _ = invoke(capsys, "forests", str(corpus_dir / "delta3.json"),
                          "--dim", "1", "--kind", "reduced", "--k", "1",
                          "--count-only")
    assert code == 0
    code, out, _ = invoke(capsys, "forests", str(corpus_dir / "k4.json"),
                          "--dim", "1", "--kind", "size", "--m", "2",
                          "--count-only")
    assert code == 0
    assert json.loads(out)["count"] == 15


def test_forests_size_with_weights_rejected(capsys, corpus_dir):
    code, _, err = invoke(capsys, "forests", str(corpus_dir / "k4.json"),
                          "--dim", "1", "--kind", "size", "--m", "2",
                          "--with-weights")
    assert code == 2


def test_verify_trent_k4(capsys, corpus_dir):
    code, out, _ = invoke(capsys, "verify", str(corpus_dir / "k4.json"),
                          "--theorem", "trent", "--dim", "1")
    assert code == 0
    doc = json.loads(out)
    det_row = [r for r in doc["rows"] if r["k"] == 0][0]
    assert det_row["lhs"] == det_row["rhs"] == "16"
    assert doc["elapsed_ms"] is None


def test_verify_all_theorems_exit_zero(capsys, corpus_dir):
    jobs = [
        ("k3.json", "trent", "1"), ("k3.json", "boundary", "1"),
        ("k3.json", "kirchhoff", "1"), ("k3.json", "geometric", "1"),
        ("k3.json", "covolume", "1"),
        ("moore_z2.json", "boundary", "1"),
        ("sphere2.json", "trent", "2"), ("sphere2.json", "covolume", "2"),
        ("delta3.json", "geometric", "2"),
    ]
    for fname, theorem, dim in jobs:
        code, out, _ = invoke(capsys, "verify", str(corpus_dir / fname),
                              "--theorem", theorem, "--dim", dim)
        assert code == 0, (fname, theorem, out)
    code, _, _ = invoke(capsys, "verify", str(corpus_dir / "rp2.json"),
                        "--theorem", "rf")
    assert code == 0


def test_verify_geometric_with_forest_flags(capsys, corpus_dir):
    code, out, _ = invoke(capsys, "verify", str(corpus_dir / "delta3.json"),
                          "--theorem", "geometric", "--dim", "2",
                          "--forest", "1.2.3,1.2.4,1.3.4",
                          "--coforest-dim-plus-one", "1.2.3.4")
    assert code == 0


def test_kalai_subcommand(capsys):
    code, out, _ = invoke(capsys, "kalai", "--n", "6", "--k", "3",
                          "--kind", "mesh")
    assert code == 0
    doc = json.loads(out)
    det_row = [r for r in doc["rows"] if r["check"] == "determinant"][0]
    assert det_row["lhs"] == "46656"
    code, _, _ = invoke(capsys, "kalai", "--n", "4", "--k", "1",
                        "--kind", "incidence", "--weights", "1,2,3,4")
    assert code == 0


def test_output_byte_determinism():
    argv = [sys.executable, "-m", "cellmesh.cli", "verify",
            os.path.join(CORPUS, "k4.json"), "--theorem", "trent",
            "--dim", "1"]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # nonempty
