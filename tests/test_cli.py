"""Command-line behaviour: subcommands, stable exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

from cellmesh.cli import run
from cellmesh.corpus import write_corpus
from conftest import double_torsion, double_v_order

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
    double_torsion(monkeypatch)
    double_v_order(monkeypatch)
    for theorem, message in (("trent", "cokernel order"),
                             ("boundary", "boundary weight mismatch")):
        code, out, err = invoke(capsys, "verify", str(corpus_dir / "rp2.json"),
                                "--theorem", theorem, "--dim", "1")
        assert code == 1 and out == ""
        assert err.startswith(f"verification failed: {message}")
        assert err.count("\n") == 1 and "Traceback" not in err


def test_usage_error_exits_2(capsys):
    assert run(["verify"]) == 2
    assert run(["bogus-subcommand"]) == 2
    assert run(["verify", "x.json", "--theorem", "trent"]) == 2  # missing --dim


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
