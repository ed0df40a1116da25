"""Torsion-product and Laplacian-product identities."""

from fractions import Fraction

import pytest

from cellmesh.complexes import ComplexFormatError
from cellmesh.corpus import point
from cellmesh.intmat import principal_minor_sum, rank
from cellmesh.complexes import boundary_matrix_above
from cellmesh.torsion import (reduced_laplacian_det, rf_combinatorial,
                              rf_laplacian, verify_rf_identity)


def test_reduced_laplacian_det_examples(corpus):
    assert reduced_laplacian_det(corpus["k3"], 0) == 9
    assert reduced_laplacian_det(corpus["p2"], 0) == 2
    assert reduced_laplacian_det(corpus["k3"], 1) == 1  # no 2-cells
    assert reduced_laplacian_det(corpus["k4"], 0) == 64
    with pytest.raises(ComplexFormatError):
        reduced_laplacian_det(corpus["k3"], 2)


def test_reduced_laplacian_det_matches_principal_minor_sum(corpus):
    # the char-poly coefficient against the Cauchy-Binet route: the r-th sum
    # of principal minors of the same Laplacian, r the boundary rank
    for name, x in corpus.items():
        for i in range(x.dimension + 1):
            upper = boundary_matrix_above(x, i)
            lap = upper.mul(upper.transpose())
            sigma_r = principal_minor_sum(lap, rank(upper))
            assert reduced_laplacian_det(x, i) == sigma_r, (name, i)


def test_rf_combinatorial_examples(corpus):
    assert rf_combinatorial(corpus["rp2"]) == Fraction(1, 4)
    assert rf_combinatorial(corpus["delta3"]) == 1
    assert rf_combinatorial(corpus["sphere2"]) == 1
    assert rf_combinatorial(corpus["moore_z2"]) == Fraction(1, 4)
    assert rf_combinatorial(point()) == 1


def test_rf_laplacian_examples(corpus):
    assert rf_laplacian(point()) == 1
    assert rf_laplacian(corpus["rp2"]) == Fraction(1, 4)
    # nontrivial factor cancellation on the complete graph
    assert rf_laplacian(corpus["k4"]) == 1


def test_rf_identity_every_corpus_complex(corpus):
    for name, x in corpus.items():
        report = verify_rf_identity(x)
        assert report.passed, (name, report.lhs, report.rhs, report.skeleta)
        assert report.lhs == report.rhs


def test_rf_identity_rp2_value(corpus):
    report = verify_rf_identity(corpus["rp2"])
    assert report.lhs == Fraction(1, 4) and report.rhs == Fraction(1, 4)
    doc = report.to_json_dict()
    assert doc["lhs"] == "1/4" and doc["pass"] is True
    assert doc["elapsed_ms"] is None


def test_rf_combinatorial_ignores_basis_choice(corpus):
    # depends only on homology torsion orders: recomputation on a structurally
    # identical complex with shuffled cell order is unchanged
    from cellmesh.complexes import CellComplex
    x = corpus["rp2"]
    cells = {d: tuple(reversed(x.cells[d])) for d in range(x.dimension + 1)}
    shuffled = CellComplex("rp2-shuffled", 2, cells, check=False)
    assert rf_combinatorial(shuffled) == rf_combinatorial(x)
    assert rf_laplacian(shuffled) == rf_laplacian(x)


def test_rf_identity_rejects_scaled_laplacian_det(corpus, monkeypatch):
    # 4x every reduced Laplacian determinant leaves a net factor 4 on the
    # Laplacian side of an even-dimensional complex: a failing report, no raise
    import cellmesh.torsion as torsion
    orig = torsion.reduced_laplacian_det
    monkeypatch.setattr(torsion, "reduced_laplacian_det",
                        lambda x, i: 4 * orig(x, i))
    for name in ("rp2", "sphere2", "moore_z2", "delta5skel2"):
        report = verify_rf_identity(corpus[name])
        assert not report.passed, name
        assert report.lhs != report.rhs, name
