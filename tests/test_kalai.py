"""Simplex spectrum tables: reduced incidence, Laplacian, cycle-basis mesh."""

from fractions import Fraction
from math import comb

import pytest

from cellmesh.complexes import ComplexFormatError, boundary_matrix, standard_simplex
from cellmesh.intmat import IntMatrix, RatMatrix, char_poly
from cellmesh.kalai import (build_kalai_matrix, phi_basis, predicted_spectrum,
                            reduced_incidence, verify_kalai)
from cellmesh.kalai import _faces_without_first_vertex
from conftest import perturb_kalai_matrix


def test_reduced_incidence_shapes():
    m = reduced_incidence(4, 1)
    assert (m.rows, m.cols) == (3, 6)
    for n in range(2, 7):
        for k in range(1, n):
            m = reduced_incidence(n, k)
            assert m.rows == comb(n - 1, k)
            assert m.cols == comb(n, k + 1)


def test_reduced_incidence_char_poly_41():
    m = reduced_incidence(4, 1)
    p = char_poly(m.mul(m.transpose()))
    # (t - 1)(t - 4)^2
    assert p.coeffs == (-16, 24, -9, 1)


def test_phi_basis_examples():
    phi = phi_basis(3, 1)
    assert phi.data == [[-1, -1], [1, 0], [0, 1]]
    phi = phi_basis(3, 2)
    assert [phi.data[i][0] for i in range(3)] == [1, -1, 1]


def test_phi_section_identity():
    # restricting the cycle basis back to the sub-simplex rows is the identity
    x = standard_simplex(5)
    phi = phi_basis(5, 2)
    rows = _faces_without_first_vertex(x, 1)
    assert phi.submatrix(rows, range(phi.cols)) == IntMatrix.identity(phi.cols)


def test_phi_columns_are_cycles():
    from cellmesh.complexes import boundary_matrix
    for n, k in [(4, 1), (4, 2), (5, 2), (6, 3)]:
        x = standard_simplex(n)
        phi = phi_basis(n, k)
        if k >= 2:
            assert boundary_matrix(x, k - 1).mul(phi).is_zero()


def test_predicted_spectrum_tables():
    s = predicted_spectrum(4, 1, "incidence")
    assert s.eigenvalues == [(Fraction(4), 2), (Fraction(1), 1)]
    s = predicted_spectrum(4, 1, "laplacian")
    assert s.eigenvalues == [(Fraction(3), 2), (Fraction(0), 1)]
    s = predicted_spectrum(6, 3, "mesh")
    assert s.eigenvalues == [(Fraction(6), 6), (Fraction(1), 4)]
    assert s.determinant() == 6 ** 6


def test_predicted_spectrum_weighted():
    w = [1, 2, 3, 4]
    s = predicted_spectrum(4, 1, "incidence", w)
    assert s.eigenvalues == [(Fraction(10), 2), (Fraction(1), 1)]
    s = predicted_spectrum(4, 1, "laplacian", w)
    assert s.eigenvalues == [(Fraction(6), 2), (Fraction(0), 1)]
    s = predicted_spectrum(4, 1, "mesh", w)
    value = Fraction(1) * (1 + Fraction(1, 2) + Fraction(1, 3) + Fraction(1, 4))
    assert s.eigenvalues == [(value, 1), (Fraction(1), 2)]


def test_predicted_spectrum_param_checks():
    with pytest.raises(ComplexFormatError):
        predicted_spectrum(1, 1, "incidence")
    with pytest.raises(ComplexFormatError):
        predicted_spectrum(4, 4, "incidence")
    with pytest.raises(ComplexFormatError):
        predicted_spectrum(4, 1, "nonsense")
    with pytest.raises(ComplexFormatError):
        predicted_spectrum(4, 1, "incidence", [1, 2])
    with pytest.raises(ComplexFormatError):
        predicted_spectrum(4, 1, "incidence", [1, -2, 3, 4])


def test_multiplicity_bookkeeping():
    for n in range(2, 9):
        for k in range(1, n):
            assert comb(n - 2, k - 1) + comb(n - 2, k) == comb(n - 1, k)
            s = predicted_spectrum(n, k, "incidence")
            assert s.dimension() == comb(n - 1, k)


def test_verify_kalai_small():
    r = verify_kalai(4, 1, "incidence")
    assert r.passed
    checks = {row["check"]: row for row in r.rows}
    assert checks["trace"]["lhs"] == 9
    assert checks["determinant"]["lhs"] == 16
    r = verify_kalai(6, 3, "mesh")
    assert r.passed
    assert {row["check"]: row for row in r.rows}["determinant"]["lhs"] == 6 ** 6


def test_verify_kalai_full_range():
    for n in range(2, 9):
        for k in range(1, n):
            for kind in ("incidence", "laplacian", "mesh"):
                r = verify_kalai(n, k, kind)
                assert r.passed, (n, k, kind, r.rows)


def test_verify_kalai_weighted():
    w = [1, 2, 3, 4]
    for k in (1, 2, 3):
        for kind in ("incidence", "laplacian", "mesh"):
            r = verify_kalai(4, k, kind, w)
            assert r.passed, (k, kind, r.rows)
    # unit weights reduce to the unweighted tables
    for kind in ("incidence", "laplacian", "mesh"):
        assert (predicted_spectrum(4, 1, kind, [1, 1, 1, 1]).eigenvalues
                == predicted_spectrum(4, 1, kind).eigenvalues)
        assert verify_kalai(4, 1, kind, [1, 1, 1, 1]).passed


def test_unweighted_matrices_are_the_integer_grams():
    # unit weights give inc inc^t, bd bd^t on the simplex on n-1 vertices
    # (the zero matrix at k = n-1, where it has no k-faces) and phi^t phi
    for n in range(2, 8):
        smaller = standard_simplex(n - 1)
        for k in range(1, n):
            inc = reduced_incidence(n, k)
            phi = phi_basis(n, k)
            if k <= smaller.dimension:
                bd = boundary_matrix(smaller, k)
                lap = bd.mul(bd.transpose())
            else:
                size = comb(n - 1, k)
                lap = IntMatrix(size, size, [[0] * size for _ in range(size)])
            for kind, want in (("incidence", inc.mul(inc.transpose())),
                               ("laplacian", lap),
                               ("mesh", phi.transpose().mul(phi))):
                got = build_kalai_matrix(n, k, kind)
                assert isinstance(got, RatMatrix), (n, k, kind)
                assert got == RatMatrix(want.rows, want.cols, want.data), (n, k, kind)


def test_verify_kalai_guard():
    with pytest.raises(ComplexFormatError, match="desk-scale"):
        verify_kalai(10, 2, "incidence")


def test_mesh_det_ties_to_forest_sum(corpus):
    # det of the cycle-basis mesh matrix equals the Theorem-1 determinant row
    # on the k-skeleton of the simplex (cross-module consistency)
    from cellmesh.spectra import verify_theorem1
    from cellmesh.homology import LatticeBasis
    from cellmesh.complexes import skeleton
    phi = phi_basis(5, 2)  # 2-skeleton of the 4-simplex, d = 2... k=2 -> cycles Z_1
    x = skeleton(standard_simplex(5), 2)
    # Z_{k-1} of the simplex: k=2 means 1-cycles of the 4-simplex
    basis = LatticeBasis(1, phi, "cycles")
    report = verify_theorem1(x, 1, basis)
    assert report.passed
    gram = phi.transpose().mul(phi)
    det_row = [row for row in report.rows if row["k"] == 0][0]
    assert det_row["lhs"] == gram.det() == 5 ** comb(3, 1)


def test_verify_kalai_rejects_perturbed_matrix(monkeypatch):
    # one entry moved by 1/7 breaks the annihilating polynomial; the report
    # fails instead of raising, under unit and rational weights
    perturb_kalai_matrix(monkeypatch)
    for n in (2, 4, 5):
        for k in range(1, n):
            for kind in ("incidence", "laplacian", "mesh"):
                for weights in (None, [Fraction(j + 2, j + 1) for j in range(n)]):
                    r = verify_kalai(n, k, kind, weights)
                    assert not r.passed, (n, k, kind, weights)
                    ann = [row for row in r.rows
                           if row["check"] == "annihilating_polynomial"]
                    assert ann and not ann[0]["pass"], (n, k, kind, weights)
