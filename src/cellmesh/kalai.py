"""Closed-form spectra for simplices: reduced incidence, Laplacian, and the
cycle basis built from the cone over the first vertex.

The predictions are two-eigenvalue tables with binomial multiplicities;
verification is eigensolver-free: the annihilating polynomial of the
assembled matrix is expanded exactly, together with trace and determinant
bookkeeping.  Every table is weighted by positive vertex weights, and the
unweighted one is the case of unit weights: each matrix is the square-root-
free similarity representative A W Aᵀ V⁻¹ that intmat.weighted_gram builds,
so everything stays rational.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, prod

from .complexes import (ComplexFormatError, boundary_matrix, boundary_matrix_above,
                        standard_simplex)
from .intmat import IntMatrix, clear_denominators, det_bareiss, weighted_gram
from .spectra import _report

MAX_SIMPLEX_VERTICES = 9

# each Kalai matrix of n vertices reads the same simplex and, through its
# boundary cache, the same boundary matrices; none of them is mutated
_simplex = lru_cache(maxsize=MAX_SIMPLEX_VERTICES)(standard_simplex)


class SpectrumSummary:
    """Distinct eigenvalues with multiplicities; multiplicities sum to dim."""

    __slots__ = ("eigenvalues",)

    def __init__(self, pairs):
        merged = {}
        for value, mult in pairs:
            if mult:
                value = Fraction(value)
                merged[value] = merged.get(value, 0) + mult
        self.eigenvalues = sorted(merged.items(), reverse=True)

    def dimension(self):
        return sum(m for _, m in self.eigenvalues)

    def trace(self):
        return sum(v * m for v, m in self.eigenvalues)

    def determinant(self):
        return prod(v ** m for v, m in self.eigenvalues)

    def __repr__(self):
        inner = ", ".join(f"{v}:{m}" for v, m in self.eigenvalues)
        return f"SpectrumSummary({{{inner}}})"


def _check_params(n, k):
    if n < 2 or not 1 <= k <= n - 1:
        raise ComplexFormatError(f"need n >= 2 and 1 <= k <= n-1, got ({n},{k})")


def _faces_without_first_vertex(x, dim):
    """Positions of dim-cells avoiding vertex 1 (the sub-simplex cells)."""
    out = []
    for pos, cell in enumerate(x.cells[dim]):
        vertices = cell.id.split(".")
        if "1" not in vertices:
            out.append(pos)
    return out


def reduced_incidence(n, k):
    """Boundary of k-faces of the (n-1)-simplex restricted to (k-1)-rows
    avoiding the first vertex: C(n-1,k) x C(n,k+1)."""
    _check_params(n, k)
    return _reduced_incidence(_simplex(n), k)


def _reduced_incidence(x, k):
    bd = boundary_matrix(x, k)
    return bd.submatrix(_faces_without_first_vertex(x, k - 1), range(bd.cols))


def phi_basis(n, k):
    """Integral cycle basis of the (k-1)-cycles of the (n-1)-simplex.

    Column s (a (k-1)-face avoiding the first vertex) is the boundary of the
    cone of the first vertex over s; restricting back to the sub-simplex
    rows gives the identity, so the columns form an integral basis.
    """
    _check_params(n, k)
    return _phi_basis(_simplex(n), k)


def _phi_basis(x, k):
    bd = boundary_matrix(x, k)
    cols = []
    lookup = {cell.id: j for j, cell in enumerate(x.cells[k])}
    for pos in _faces_without_first_vertex(x, k - 1):
        s = x.cells[k - 1][pos].id
        cone = ".".join(["1"] + s.split("."))
        cols.append(lookup[cone])
    return bd.submatrix(range(bd.rows), cols)


def _parse_weights(n, weights):
    """The n vertex weights as Fractions; unit weights (ints) when none are
    given."""
    if weights is None:
        return [1] * n
    ws = [Fraction(w) for w in weights]
    if len(ws) != n:
        raise ComplexFormatError(f"expected {n} weights, got {len(ws)}")
    if any(w <= 0 for w in ws):
        raise ComplexFormatError("weights must be strictly positive")
    return ws


def predicted_spectrum(n, k, kind, weights=None):
    """Eigenvalue/multiplicity table for the requested matrix.

    With positive vertex weights a_j, all with multiplicities C(n-2,k-1)
    and C(n-2,k): incidence a_1 and sum(a_1..a_n); Laplacian of the
    one-smaller simplex 0 and sum(a_1..a_{n-1}); cycle-basis mesh matrix
    a_1*sum(1/a_j over all n) and 1.  Unit weights (the default) give the
    unweighted tables: 1 and n, 0 and n-1, n and 1.
    """
    _check_params(n, k)
    ws = _parse_weights(n, weights)
    m_low = comb(n - 2, k - 1)
    m_high = comb(n - 2, k)
    if kind == "incidence":
        return SpectrumSummary([(ws[0], m_low), (sum(ws), m_high)])
    if kind == "laplacian":
        return SpectrumSummary([(0, m_low), (sum(ws[:n - 1]), m_high)])
    if kind == "mesh":
        value = ws[0] * sum(Fraction(1) / w for w in ws)
        return SpectrumSummary([(value, m_low), (1, m_high)])
    raise ComplexFormatError(f"unknown kind {kind!r}")


def _face_weight_diagonal(x, dim, vertex_weights):
    """Diagonal of products of vertex weights over each dim-face."""
    return [prod(vertex_weights[int(v) - 1] for v in cell.id.split("."))
            for cell in x.cells.get(dim, ())]


def build_kalai_matrix(n, k, kind, weights=None):
    """The actual matrix whose spectrum predicted_spectrum tabulates, as a
    RatMatrix A W Aᵀ V⁻¹ with W and V diagonal face weights."""
    _check_params(n, k)
    ws = _parse_weights(n, weights)
    if kind == "laplacian":
        # the zero matrix at k = n-1, where the smaller simplex has no k-faces
        x = _simplex(n - 1)
        return weighted_gram(boundary_matrix_above(x, k - 1),
                             _face_weight_diagonal(x, k, ws),
                             _face_weight_diagonal(x, k - 1, ws))
    x = _simplex(n)
    low = _face_weight_diagonal(x, k - 1, ws)
    sub_low = [low[p] for p in _faces_without_first_vertex(x, k - 1)]
    if kind == "incidence":
        return weighted_gram(_reduced_incidence(x, k), _face_weight_diagonal(x, k, ws),
                             sub_low)
    if kind == "mesh":
        return weighted_gram(_phi_basis(x, k).transpose(), low, sub_low)
    raise ComplexFormatError(f"unknown kind {kind!r}")


def verify_kalai(n, k, kind, weights=None):
    """Verify the predicted spectrum without any eigensolver.

    Expands the annihilating polynomial prod over distinct eigenvalues of
    (M - lambda I) and requires it to vanish exactly, then checks trace and
    determinant against the multiplicity table, and the binomial
    bookkeeping C(n-2,k-1) + C(n-2,k) = C(n-1,k).
    """
    if n > MAX_SIMPLEX_VERTICES:
        raise ComplexFormatError(
            f"desk-scale guard: n = {n} exceeds {MAX_SIMPLEX_VERTICES}")
    spectrum = predicted_spectrum(n, k, kind, weights)
    matrix = build_kalai_matrix(n, k, kind, weights)
    dim = matrix.rows
    rows = [{"k": k, "check": "multiplicities", "lhs": spectrum.dimension(),
             "rhs": comb(n - 1, k),
             "pass": spectrum.dimension() == dim == comb(n - 1, k)}]

    # one common denominator D for the matrix and the eigenvalues: every
    # shift D*M - D*lambda*I is integral, and their product vanishes exactly
    # when prod (M - lambda I) does
    scale, work = clear_denominators(
        matrix, [value for value, _ in spectrum.eigenvalues])
    shifts = []
    for value, _ in spectrum.eigenvalues:
        shift = int(value * scale)
        shifts.append(IntMatrix(dim, dim, [[x - shift if i == j else x
                                            for j, x in enumerate(row)]
                                           for i, row in enumerate(work)]))
    ann = shifts[0]
    for shifted in shifts[1:]:
        ann = ann.mul(shifted)
    ann_ok = ann.is_zero()
    rows.append({"k": k, "check": "annihilating_polynomial",
                 "lhs": "zero-matrix" if ann_ok else "nonzero",
                 "rhs": "zero-matrix", "pass": ann_ok})

    tr = Fraction(sum(work[i][i] for i in range(dim)), scale)
    rows.append({"k": k, "check": "trace", "lhs": tr, "rhs": spectrum.trace(),
                 "pass": tr == spectrum.trace()})

    det = Fraction(det_bareiss([row[:] for row in work]), scale ** dim)
    rows.append({"k": k, "check": "determinant", "lhs": det,
                 "rhs": spectrum.determinant(), "pass": det == spectrum.determinant()})
    return _report(f"kalai-{kind}", k, rows)
