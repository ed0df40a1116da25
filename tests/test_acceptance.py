"""Acceptance criteria, one test per criterion, each with its time budget.

Every check is exact (tolerance zero): both sides of each identity are
computed by independent code paths and compared with ==.  Each test prints
one pass/fail line; run with `pytest -v` (or -s) to see them.
"""

import json
import os
import time
from fractions import Fraction
from itertools import combinations

from cellmesh.cli import run as cli_run
from cellmesh.complexes import CellSubset, boundary_matrix
from cellmesh.corpus import all_complexes
from cellmesh.forests import CycleWeightContext, cycle_weight, enumerate_forests
from cellmesh.homology import (LatticeBasis, integral_boundary_basis,
                               integral_cycle_basis)
from cellmesh.intmat import rank
from cellmesh.forests import boundary_weight
from cellmesh.spectra import (mesh_matrix_cycles, verify_geometric_theorems,
                              verify_kirchhoff_lyons, verify_theorem1,
                              verify_theorem2)
from cellmesh.torsion import verify_rf_identity
from cellmesh.kalai import verify_kalai
from conftest import random_unimodular

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "corpus")
_corpus = all_complexes()


def _report(criterion, ok, budget, elapsed, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} ({elapsed:.2f}s / budget {budget}s) {detail}")
    assert ok, detail
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s: {elapsed:.1f}s"


def test_criterion_01_trent_k4(capsys):
    start = time.monotonic()
    code = cli_run(["verify", os.path.join(CORPUS_DIR, "k4.json"),
                    "--theorem", "trent", "--dim", "1"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    det_row = [r for r in doc["rows"] if r["k"] == 0][0]
    # independent brute force over all C(6,3) edge subsets
    k4 = _corpus["k4"]
    bd = boundary_matrix(k4, 1)
    count = sum(1 for idx in combinations(range(6), 3)
                if rank(bd.submatrix(range(4), idx)) == 3)
    elapsed = time.monotonic() - start
    ok = (code == 0 and det_row["lhs"] == det_row["rhs"] == "16"
          and count == 16)
    with capsys.disabled():
        _report(1, ok, 1.0, elapsed,
                f"cli det row = {det_row['lhs']}, brute-force trees = {count}")


def test_criterion_02_kirchhoff_k4(capsys):
    start = time.monotonic()
    report = verify_kirchhoff_lyons(_corpus["k4"], 1)
    row = [r for r in report.rows if r["k"] == 3][0]
    elapsed = time.monotonic() - start
    ok = (report.passed and row["lhs"] == row["rhs"] == 64
          and report.stats == {"path": "pairs"})  # not the collapsed path
    with capsys.disabled():
        _report(2, ok, 1.0, elapsed, f"sigma_3 = {row['lhs']} = 4 x 16 both ways")


def test_criterion_03_sphere_mesh_det(capsys):
    start = time.monotonic()
    s2 = _corpus["sphere2"]
    z = integral_cycle_basis(s2, 2)
    mesh = mesh_matrix_cycles(s2, 2, z)
    det = mesh.matrix.det()
    certs = [cycle_weight(s2, 2, c.subset, z)
             for c in enumerate_forests(s2, 2, "spanning_forest")]
    elapsed = time.monotonic() - start
    ok = (det == 4 and len(certs) == 4
          and all(c.weight == 1 and c.weight_parts["torsion_ratio"] == 1
                  for c in certs))
    with capsys.disabled():
        _report(3, ok, 1.0, elapsed,
                f"mesh det = {det}, forests = {len(certs)}, all weights 1")


def test_criterion_04_torsion_weighted_forest_sum(capsys):
    start = time.monotonic()
    d5 = _corpus["delta5skel2"]
    z = integral_cycle_basis(d5, 2)
    ctx = CycleWeightContext(d5, 2, z)
    total = 0
    count = 0
    torsional = 0
    for cert in enumerate_forests(d5, 2, "spanning_forest"):
        w = cycle_weight(d5, 2, cert.subset, z, ctx)
        total += w.weight
        count += 1
        if w.weight_parts["torsion_ratio"] == 2:
            torsional += 1
    mesh_det = mesh_matrix_cycles(d5, 2, z).matrix.det()
    elapsed = time.monotonic() - start
    ok = (total == 46656 == mesh_det and torsional > 0
          and count <= 184756)
    with capsys.disabled():
        _report(4, ok, 120.0, elapsed,
                f"det row = {total} = 6^6 over {count} forests "
                f"({torsional} of projective-plane type, weight 4)")


def test_criterion_05_moore_boundary_mesh(capsys):
    start = time.monotonic()
    moore = _corpus["moore_z2"]
    b = integral_boundary_basis(moore, 1)
    cert = boundary_weight(moore, 1, CellSubset(1, ["e"]), b)
    report = verify_theorem2(moore, 1)
    det_row = [r for r in report.rows if r["k"] == 0][0]
    elapsed = time.monotonic() - start
    ok = (cert.weight == 4 and cert.weight_parts["v"] == 2
          and cert.weight_parts["v"] ** 2 == cert.weight
          and report.passed and det_row["rhs"] == 4)
    with capsys.disabled():
        _report(5, ok, 1.0, elapsed,
                f"Gram det = {cert.weight} = v(V,X)^2 = {cert.weight_parts['v']}^2")


def test_criterion_06_full_polynomial_suite(capsys):
    start = time.monotonic()
    failures = []
    for name, x in _corpus.items():
        for d in range(1, x.dimension + 1):
            for verifier in (verify_theorem1, verify_theorem2,
                             verify_kirchhoff_lyons, verify_geometric_theorems):
                report = verifier(x, d)
                if not report.passed or not all(r["pass"] for r in report.rows):
                    failures.append((name, d, verifier.__name__))
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report(6, not failures, 300.0, elapsed,
                f"4 verifiers x {len(_corpus)} complexes, all coefficients exact"
                + (f"; failures: {failures}" if failures else ""))


def test_criterion_07_rf_identity(capsys):
    start = time.monotonic()
    ok = True
    for name, x in _corpus.items():
        report = verify_rf_identity(x)
        ok = ok and report.passed
        if name == "rp2":
            ok = ok and report.lhs == report.rhs == Fraction(1, 4)
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report(7, ok, 5.0, elapsed, "torsion identity on all corpus complexes; "
                                     "projective plane = 1/4 exactly")


def test_criterion_08_kalai_tables(capsys):
    start = time.monotonic()
    ok = True
    for n in range(2, 9):
        for k in range(1, n):
            for kind in ("incidence", "laplacian", "mesh"):
                ok = ok and verify_kalai(n, k, kind).passed
    for k in (1, 2, 3):
        for kind in ("incidence", "laplacian", "mesh"):
            ok = ok and verify_kalai(4, k, kind, [1, 2, 3, 4]).passed
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report(8, ok, 30.0, elapsed,
                "n = 2..8 all k, three kinds, plus weighted spot checks at n = 4")


def test_criterion_09_algebraic_lemma_suite(capsys):
    import test_intmat
    start = time.monotonic()
    test_intmat.test_cauchy_binet_suite()
    test_intmat.test_principal_minor_sigma_suite()
    test_intmat.test_deleted_rows_covolume_suite()
    test_intmat.test_schur_determinant_suite()
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report(9, True, 30.0, elapsed,
                "200 exact randomized checks each: Cauchy-Binet, sigma_k, "
                "deleted-rows covolume, Schur")


def test_criterion_10_basis_covariance(capsys):
    import random
    rng = random.Random(55)
    start = time.monotonic()
    ok = True
    for name, d in (("k4", 1), ("sphere2", 2)):
        x = _corpus[name]
        z = integral_cycle_basis(x, d)
        mesh = mesh_matrix_cycles(x, d, z).matrix
        base_det = mesh.det() if mesh.rows else 1
        for _ in range(20):
            u = random_unimodular(rng, z.basis.cols)
            zu = LatticeBasis(d, z.basis.mul(u), "cycles")
            mesh_u = mesh_matrix_cycles(x, d, zu).matrix
            ok = ok and mesh_u == u.transpose().mul(mesh).mul(u)
            ok = ok and (mesh_u.det() if mesh_u.rows else 1) == base_det
            ok = ok and verify_theorem1(x, d, zu).passed
    elapsed = time.monotonic() - start
    with capsys.disabled():
        _report(10, ok, 30.0, elapsed,
                "20 unimodular changes on k4 and the 2-sphere: transform law, "
                "invariant determinant, theorem 1 preserved")
