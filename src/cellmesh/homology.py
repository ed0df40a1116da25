"""Integral homology, torsion orders, lattice bases and covolumes.

Everything is computed from Smith/Hermite forms of boundary matrices over
exact integers.  The homology covolume is a ratio of two integer Gram
determinants (a Schur complement), so no normal equations are solved and
nothing runs in floating point.
"""

from fractions import Fraction

from .complexes import ComplexFormatError, boundary_matrix, boundary_matrix_above
from .intmat import (IntMatrix, column_hermite, gram_det, gram_det_of,
                     invariant_factor_product, kernel_basis, rank,
                     smith_normal_form, solve_bareiss)


class HomologySummary:
    """Betti number and torsion data of one integral homology group."""

    __slots__ = ("dimension", "betti", "invariant_factors", "torsion_order")

    def __init__(self, dimension, betti, factors):
        self.dimension = dimension
        self.betti = betti
        self.invariant_factors = list(factors)
        t = 1
        for f in self.invariant_factors:
            t *= f
        self.torsion_order = t

    def __repr__(self):
        return (f"HomologySummary(d={self.dimension}, betti={self.betti}, "
                f"factors={self.invariant_factors})")


class LatticeBasis:
    """Columns of `basis` generate a sublattice of the cellular d-chains."""

    __slots__ = ("dimension", "ambient", "basis", "kind")

    def __init__(self, dimension, basis, kind):
        if kind not in ("cycles", "boundaries"):
            raise ValueError(f"bad lattice kind {kind!r}")
        self.dimension = dimension
        self.ambient = basis.rows
        self.basis = basis
        self.kind = kind

    @property
    def rank(self):
        return self.basis.cols

    def __repr__(self):
        return (f"LatticeBasis({self.kind}, d={self.dimension}, "
                f"{self.ambient}x{self.basis.cols})")


def homology_groups(x, d):
    """H_d(X;Z) from Smith forms of the two adjacent boundary maps."""
    if not 0 <= d <= x.dimension:
        raise ComplexFormatError(f"dimension {d} out of range 0..{x.dimension}")
    lower = boundary_matrix(x, d)
    upper = boundary_matrix_above(x, d)
    rank_lower = rank(lower)
    diag = smith_normal_form(upper).invariant_factors()
    betti = x.n_cells(d) - rank_lower - len(diag)
    factors = [f for f in diag if f != 1]
    return HomologySummary(d, betti, factors)


def torsion_order(x, d):
    """t_d(X): the order of the torsion subgroup of H_d(X;Z), always >= 1."""
    if not 0 <= d <= x.dimension:
        raise ComplexFormatError(f"dimension {d} out of range 0..{x.dimension}")
    upper = boundary_matrix_above(x, d)
    return invariant_factor_product([row[:] for row in upper.data])


def integral_cycle_basis(x, d):
    """Canonical basis of the saturated d-cycle lattice ker(boundary)."""
    mat = boundary_matrix(x, d)
    return LatticeBasis(d, kernel_basis(mat), "cycles")


def integral_boundary_basis(x, d):
    """Canonical basis of the d-boundary image lattice (not its saturation).

    Column Hermite form of the (d+1)-boundary matrix, so the choice is
    deterministic given cell order.
    """
    if not 0 <= d < x.dimension:
        # boundaries above the top dimension are trivially empty; allow d = dim
        if d == x.dimension:
            n = x.n_cells(d)
            return LatticeBasis(d, IntMatrix(n, 0, [[] for _ in range(n)]),
                                "boundaries")
        raise ComplexFormatError(f"dimension {d} out of range 0..{x.dimension}")
    upper = boundary_matrix(x, d + 1)
    return LatticeBasis(d, column_hermite(upper), "boundaries")


def covolume_squared(lattice):
    """Gram determinant of the basis; invariant under unimodular change."""
    return gram_det(lattice.basis)


def saturate_columns(mat):
    """Basis of the saturation Z^n intersect Q-span(columns of mat)."""
    left_null = kernel_basis(mat.transpose())
    return kernel_basis(left_null.transpose())


def _integral_solution(a, b):
    """The integer X with A X = B, for A of full column rank, by
    solve_bareiss and one exact division by its D."""
    d, sol = solve_bareiss(a, b)
    if any(v % d for row in sol.data for v in row):
        raise AssertionError(f"solution of an integral system has denominator {d}")
    return IntMatrix(sol.rows, sol.cols, [[v // d for v in row] for row in sol.data])


def homology_lift_basis(cycles, boundaries):
    """Integral cycles projecting to a basis of H_d(X;Z)/torsion.

    Takes the Hermite-canonical cycle and boundary bases of one degree d
    and returns an n_d x betti integer matrix, canonical given those bases.
    """
    z, b = cycles.basis, boundaries.basis
    if z.cols == 0:
        return z
    b_sat = saturate_columns(b) if b.cols else b
    if b_sat.cols == 0:
        return z
    coords = _integral_solution(z, b_sat)
    snf = smith_normal_form(coords)
    if snf.invariant_factors() != [1] * coords.cols:
        raise AssertionError("saturated boundary lattice not a direct summand")
    u_inv = _integral_solution(snf.u, IntMatrix.identity(z.cols))
    lift_coords = u_inv.submatrix(range(z.cols), range(coords.cols, z.cols))
    return z.mul(lift_coords)


def lift_gram(cycles, boundaries):
    """The Gram determinant of the columns of B and of the homology lift L,
    for the cycle and boundary bases of one degree: the projection route to
    the homology covolume.

    The Gram matrix of L's projection off the boundary span is the Schur
    complement of B^t B in the Gram matrix of [B | L], so the homology
    covolume squared is lift_gram / covol^2(B).  The lift spans, with B, a
    lattice of index t_d in the cycles, so lift_gram = covol^2(Z) * t_d^2.
    """
    lift = homology_lift_basis(cycles, boundaries)
    return gram_det_of([*zip(*boundaries.basis.data), *zip(*lift.data)])


def homology_covolume_squared(x, d, cycles=None, boundaries=None):
    """Squared covolume of the projected homology lattice in the harmonics.

    Computed both as the quotient formula
        covol^2(cycles) * t_d^2 / covol^2(boundaries)
    and by projection, as lift_gram / covol^2(boundaries); the two must
    agree.  The cycle and boundary bases are built once, here or by a
    caller that passes them as `cycles` and `boundaries`, and handed to the
    lift.
    """
    if not 0 <= d <= x.dimension:
        raise ComplexFormatError(f"dimension {d} out of range 0..{x.dimension}")
    z = cycles if cycles is not None else integral_cycle_basis(x, d)
    b = boundaries if boundaries is not None else integral_boundary_basis(x, d)
    t = torsion_order(x, d)
    covol_b = covolume_squared(b)
    quotient = Fraction(covolume_squared(z) * t * t, covol_b)
    direct = Fraction(lift_gram(z, b), covol_b)
    if direct != quotient:
        raise AssertionError(
            f"homology covolume mismatch at d={d}: {direct} vs {quotient}")
    return quotient


def relative_order(x, upper, lower, hom_degree):
    """Order of the finite relative homology group of (X_upper, X_lower),
    for `upper` at dimension hom_degree+1 and `lower` at hom_degree.

    The pair's relative chain complex is the two-term complex made of the
    boundary-matrix block with rows outside `lower` and columns in `upper`,
    and the order is the product of its invariant factors.  Raises
    ValueError when the group is infinite (rank mismatch).
    """
    d = hom_degree
    if upper.dimension != d + 1 or lower.dimension != d:
        raise ComplexFormatError(
            f"unsupported pair dimensions ({upper.dimension}, {lower.dimension}) "
            f"for homology degree {hom_degree}")
    rows = [i for i, cid in enumerate(x.cell_ids(d)) if cid not in lower.members]
    cols = x.positions(d + 1, upper.members)
    mat = boundary_matrix(x, d + 1).submatrix(rows, cols)
    if rank(mat) != len(rows):
        raise ValueError("relative homology group is infinite")
    return invariant_factor_product([row[:] for row in mat.data])
