"""Exact linear algebra: Smith forms, kernels, Gram determinants,
characteristic polynomials, and the four algebraic lemma suites."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from cellmesh.intmat import (IntMatrix, IntPolynomial, RatMatrix, char_poly,
                             char_poly_rational, column_hermite, det_bareiss,
                             gram_det, invariant_factor_product, kernel_basis,
                             principal_minor_sum, rank, smith_normal_form)
from conftest import (column_hermite_oracle, random_int_matrix,
                      random_unimodular, smith_kernel_oracle)


def naive_det(m):
    """Permutation-expansion determinant: the independent oracle."""
    n = m.rows
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= m.data[i][perm[i]]
        total += term
    return total


# --- Smith normal form -----------------------------------------------------

def test_snf_hand_example():
    s = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert s.diagonal() == [2, 4]


def test_snf_identity_and_zero():
    assert smith_normal_form(IntMatrix.identity(4)).diagonal() == [1] * 4
    s = smith_normal_form(IntMatrix.zeros(3, 2))
    assert s.d.is_zero()
    assert s.u == IntMatrix.identity(3)
    assert s.v == IntMatrix.identity(2)


def test_snf_reconstruction_randomized(rng):
    for _ in range(200):
        a = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        s = smith_normal_form(a)
        assert s.u.mul(a).mul(s.v) == s.d
        assert abs(naive_det(s.u)) == 1
        assert abs(naive_det(s.v)) == 1
        diag = s.diagonal()
        assert all(x >= 0 for x in diag)
        for lo, hi in zip(diag, diag[1:]):
            if hi:
                assert lo and hi % lo == 0
            if lo == 0:
                assert hi == 0
        prod = 1
        for f in s.invariant_factors():
            prod *= f
        assert prod == invariant_factor_product([row[:] for row in a.data])


# --- kernels ---------------------------------------------------------------

def test_kernel_triangle_incidence():
    inc = IntMatrix.from_rows([[-1, 0, -1], [1, -1, 0], [0, 1, 1]])
    k = kernel_basis(inc)
    assert k.cols == 1
    assert [k.data[i][0] for i in range(3)] in ([1, 1, -1], [-1, -1, 1])


def test_kernel_trivial_cases():
    assert kernel_basis(IntMatrix.identity(3)).cols == 0
    assert kernel_basis(IntMatrix.zeros(2, 3)) == IntMatrix.identity(3)


def test_kernel_saturation_randomized(rng):
    for _ in range(150):
        a = random_int_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        k = kernel_basis(a)
        assert a.mul(k).is_zero()
        assert rank(a) + k.cols == a.cols
        if k.cols:
            assert smith_normal_form(k).invariant_factors() == [1] * k.cols


def test_kernel_canonical_under_column_shuffle(rng):
    # the Hermite canonicalization makes the output depend only on the lattice
    a = random_int_matrix(rng, 3, 5)
    k = kernel_basis(a)
    u = random_unimodular(rng, k.cols) if k.cols else None
    if u is not None:
        assert column_hermite(k.mul(u)) == k


def test_kernel_basis_matches_smith_oracle(rng):
    # the Hermite-with-transform kernel equals the Smith route's canonical
    # basis, and is saturated, on random, empty, zero and rank-deficient input
    cases = [IntMatrix(0, n, []) for n in range(5)]
    cases += [IntMatrix.zeros(r, n) for r in range(1, 4) for n in range(5)]
    for _ in range(2000):
        rows = random_int_matrix(rng, rng.randint(1, 6), rng.randint(0, 8), -4, 4).data
        if len(rows) > 1 and rng.random() < 0.3:  # a multiple of another row
            i, j = rng.sample(range(len(rows)), 2)
            c = rng.choice([-2, 1, 3])
            rows[i] = [c * y for y in rows[j]]
        cases.append(IntMatrix.from_rows(rows))
    deficient = 0
    for a in cases:
        k = kernel_basis(a)
        assert k == smith_kernel_oracle(a), a
        assert column_hermite(a) == column_hermite_oracle(a), a
        if k.cols:
            assert smith_normal_form(k).invariant_factors() == [1] * k.cols
        deficient += rank(a) < min(a.rows, a.cols)
    assert deficient > 200


def test_column_hermite_preserves_lattice(rng):
    # appending the canonical columns to the input leaves the lattice, and
    # hence the canonical form, unchanged
    for _ in range(100):
        a = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        h = column_hermite(a)
        widened = IntMatrix(a.rows, a.cols + h.cols,
                            [arow + hrow for arow, hrow in zip(a.data, h.data)])
        assert column_hermite(widened) == h
        # unimodular recombination of the input columns does not move it either
        u = random_unimodular(rng, a.cols)
        assert column_hermite(a.mul(u)) == h


def test_snf_larger_entries(rng):
    for _ in range(40):
        a = random_int_matrix(rng, rng.randint(3, 6), rng.randint(3, 6),
                              lo=-20, hi=20)
        s = smith_normal_form(a)
        assert s.u.mul(a).mul(s.v) == s.d
        diag = s.diagonal()
        for lo, hi in zip(diag, diag[1:]):
            if hi:
                assert lo and hi % lo == 0


# --- rank, gram, determinants ----------------------------------------------

def test_rank_examples():
    assert rank(IntMatrix.identity(3)) == 3
    assert rank(IntMatrix.zeros(2, 2)) == 0
    assert rank(IntMatrix.from_rows([[2, 4], [1, 2]])) == 1


def test_gram_det_examples():
    assert gram_det(IntMatrix.identity(2)) == 1
    assert gram_det(IntMatrix.from_rows([[2, 0], [0, 1]])) == 4
    assert gram_det(IntMatrix.from_rows([[-1], [1]])) == 2
    assert gram_det(IntMatrix(3, 0, [[], [], []])) == 1


def test_det_bareiss_vs_naive(rng):
    for _ in range(200):
        n = rng.randint(0, 5)
        a = random_int_matrix(rng, n, n)
        assert det_bareiss([row[:] for row in a.data]) == naive_det(a)


# --- characteristic polynomials ---------------------------------------------

def test_char_poly_examples():
    assert char_poly(IntMatrix.identity(2)).coeffs == (1, -2, 1)
    assert char_poly(IntMatrix.from_rows([[0, 1], [1, 0]])).coeffs == (-1, 0, 1)
    assert char_poly(IntMatrix.from_rows([[3]])).coeffs == (-3, 1)
    assert char_poly(IntMatrix(0, 0, [])).coeffs == (1,)


def test_char_poly_rejects_nonintegral():
    m = RatMatrix.from_rows([[Fraction(1, 2)]])
    with pytest.raises(ValueError):
        char_poly(m)
    assert char_poly_rational(m) == [Fraction(-1, 2), Fraction(1)]


def test_principal_minor_sum_examples():
    assert principal_minor_sum(IntMatrix.identity(3), 2) == 3
    assert principal_minor_sum(IntMatrix.from_rows([[2, -1], [-1, 2]]), 2) == 3
    assert principal_minor_sum(IntMatrix.from_rows([[7]]), 0) == 1
    with pytest.raises(ValueError):
        principal_minor_sum(IntMatrix.identity(2), 3)


def test_char_poly_vs_minor_oracle(rng):
    # coefficient of t^{n-k} equals (-1)^k sigma_k, for random symmetric input
    for _ in range(200):
        n = rng.randint(1, 6)
        data = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                data[i][j] = data[j][i] = rng.randint(-5, 5)
        m = IntMatrix.from_rows(data)
        p = char_poly(m)
        for k in range(n + 1):
            assert p.coefficient(n - k) == (-1) ** k * principal_minor_sum(m, k)


def _sympy_char_coeffs(sympy, m):
    """sympy's charpoly of m, constant coefficient first, as Fractions."""
    poly = sympy.Matrix(m.rows, m.cols,
                        lambda i, j: sympy.Rational(m.data[i][j].numerator,
                                                    m.data[i][j].denominator))
    coeffs = poly.charpoly(sympy.Symbol("t")).all_coeffs()[::-1]
    return [Fraction(int(c.p), int(c.q)) for c in coeffs]


def test_char_poly_sympy_oracle(corpus):
    # an implementation that shares no code with the Faddeev-LeVerrier kernel
    sympy = pytest.importorskip("sympy")
    from cellmesh.complexes import WeightAssignment
    from cellmesh.spectra import weighted_laplacian
    rng = random.Random(104)
    for n in range(13):  # non-symmetric integer matrices up to 12 x 12
        m = random_int_matrix(rng, n, n, -9, 9)
        expected = _sympy_char_coeffs(sympy, m)
        assert list(char_poly(m).coeffs) == expected, n
        assert char_poly_rational(m) == expected, n
    primes = [1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049]
    for n in range(1, 8):  # large coprime denominators
        m = RatMatrix.from_rows(
            [[Fraction(rng.randint(-50, 50), rng.choice(primes)) for _ in range(n)]
             for _ in range(n)])
        assert char_poly_rational(m) == _sympy_char_coeffs(sympy, m), n
    x = corpus["rp2"]
    weights = WeightAssignment({cid: Fraction(rng.randint(1, 9), rng.randint(1, 9))
                                for d in (0, 1) for cid in x.cell_ids(d)})
    lap = weighted_laplacian(x, 1, weights).matrix
    assert char_poly_rational(lap) == _sympy_char_coeffs(sympy, lap)


# --- the four algebraic lemma suites ----------------------------------------

def test_cauchy_binet_suite():
    rng = random.Random(101)
    for _ in range(200):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a = random_int_matrix(rng, m, n)
        b = random_int_matrix(rng, n, m)
        ab = a.mul(b)
        ba = b.mul(a)
        for k in range(min(m, n) + 1):
            lhs = principal_minor_sum(ab, k)
            assert lhs == principal_minor_sum(ba, k)
            total = 0
            for rows in combinations(range(m), k):
                for cols in combinations(range(n), k):
                    total += (det_bareiss([[a.data[i][j] for j in cols]
                                           for i in rows])
                              * det_bareiss([[b.data[i][j] for j in rows]
                                             for i in cols]))
            assert total == lhs


def test_principal_minor_sigma_suite():
    rng = random.Random(102)
    for _ in range(200):
        n = rng.randint(1, 6)
        m = random_int_matrix(rng, n, n)
        p = char_poly(m)
        k = rng.randint(0, n)
        assert (-1) ** k * p.coefficient(n - k) == principal_minor_sum(m, k)


def test_deleted_rows_covolume_suite():
    # det(R R^t) = det(A)^2 det(S S^t) with R the first u rows of A and S the
    # last n-u rows of the transposed inverse
    rng = random.Random(103)
    done = 0
    while done < 200:
        n = rng.randint(2, 6)
        a = random_int_matrix(rng, n, n)
        det_a = naive_det(a)
        if det_a == 0:
            continue
        # cofactor matrix C satisfies A^{-1} = C^t / det, so (A^{-1})^t = C / det
        cof = _adjugate(a)
        inv_t = [[Fraction(cof[i][j], det_a) for j in range(n)] for i in range(n)]
        for u in range(1, n):
            r = [a.data[i][:] for i in range(u)]
            s = [inv_t[i][:] for i in range(u, n)]
            lhs = det_bareiss(_gram(r))
            rhs = det_a * det_a * _det_fraction(_gram_fraction(s))
            assert lhs == rhs
        done += 1


def test_schur_determinant_suite():
    rng = random.Random(104)
    done = 0
    while done < 200:
        n = rng.randint(2, 6)
        r = rng.randint(1, n - 1)
        m = random_int_matrix(rng, n, n)
        a = [[Fraction(m.data[i][j]) for j in range(r)] for i in range(r)]
        if _det_fraction([row[:] for row in a]) == 0:
            continue
        b = [[Fraction(m.data[i][j]) for j in range(r, n)] for i in range(r)]
        c = [[Fraction(m.data[i][j]) for j in range(r)] for i in range(r, n)]
        d = [[Fraction(m.data[i][j]) for j in range(r, n)] for i in range(r, n)]
        a_inv = _invert_fraction(a)
        schur = [[d[i][j] - sum(c[i][l] * sum(a_inv[l][p] * b[p][j]
                                              for p in range(r))
                                for l in range(r))
                  for j in range(n - r)] for i in range(n - r)]
        lhs = Fraction(naive_det(m))
        rhs = _det_fraction([row[:] for row in a]) * _det_fraction(schur)
        assert lhs == rhs
        done += 1


def _gram(rows):
    return [[sum(x * y for x, y in zip(r1, r2)) for r2 in rows] for r1 in rows]


def _gram_fraction(rows):
    return [[sum(x * y for x, y in zip(r1, r2)) for r2 in rows] for r1 in rows]


def _det_fraction(m):
    from cellmesh.intmat import det_rational
    return det_rational([[Fraction(x) for x in row] for row in m])


def _invert_fraction(m):
    n = len(m)
    aug = [[Fraction(m[i][j]) for j in range(n)]
           + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def _adjugate(a):
    n = a.rows
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[a.data[r][c] for c in range(n) if c != j]
                     for r in range(n) if r != i]
            adj[i][j] = (-1) ** (i + j) * det_bareiss(minor)
    return adj


# --- polynomial type ----------------------------------------------------------

def test_int_polynomial_normalization():
    assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPolynomial([0, 0]).coeffs == (0,)
    assert IntPolynomial([]).coeffs == (0,)
    p = IntPolynomial([-6, 11, -6, 1])
    assert p(1) == 0 and p(2) == 0 and p(3) == 0 and p(0) == -6
    assert str(IntPolynomial([1, -2, 1])) == "t^2 -2*t +1"
