"""Torsion-product and reduced-Laplacian-product identities.

The squared combinatorial torsion of a complex with its integral bases is
the squared alternating product of the homology torsion orders; the same
quantity factors through reduced Laplacian determinants and homology
covolumes.  Both sides are assembled here independently and compared
exactly, for the complex and for each of its skeleta.
"""

from fractions import Fraction

from .complexes import ComplexFormatError, boundary_matrix_above, skeleton
from .homology import homology_covolume_squared, torsion_order
from .intmat import char_poly, rank
from .spectra import VerificationReport


def reduced_laplacian_det(x, i):
    """Product of the nonzero eigenvalues of the degree-i up-Laplacian.

    With r the boundary rank this is the r-th elementary symmetric function
    of L = boundary * boundary^t, read off the characteristic polynomial
    (integer Faddeev-LeVerrier, denominators cleared by their lcm) as
    (-1)^r times the coefficient of t^(n-r).  By Cauchy-Binet it is the sum
    of squared maximal minors, an integer.  Equals 1 when there are no
    (i+1)-cells.
    """
    if not 0 <= i <= x.dimension:
        raise ComplexFormatError(f"dimension {i} out of range 0..{x.dimension}")
    upper = boundary_matrix_above(x, i)
    r = rank(upper)
    if r == 0:
        return 1
    lap = upper.mul(upper.transpose())
    return (-1) ** r * char_poly(lap).coefficient(lap.rows - r)


def _alternating_product(values):
    """values[0] / values[1] * values[2] / ... as a Fraction."""
    out = Fraction(1)
    for i, v in enumerate(values):
        if i % 2:
            out /= v
        else:
            out *= v
    return out


def rf_combinatorial(x):
    """Squared alternating product of the homology torsion orders."""
    return _alternating_product([torsion_order(x, i) ** 2
                                 for i in range(x.dimension + 1)])


def rf_laplacian(x):
    """Squared torsion via reduced Laplacian determinants and covolumes."""
    return _alternating_product(
        [reduced_laplacian_det(x, i) * homology_covolume_squared(x, i)
         for i in range(x.dimension + 1)])


def verify_rf_identity(x):
    """Check the torsion identity for the complex and all its skeleta.

    The factors of x give both sides for x and for its top skeleton row; each
    lower skeleton is computed from its own cells.  The report's fields are
    `complex`, `factors` (one per dimension), `lhs`, `rhs` and `skeleta`
    (one row per skeleton dimension), and it passes when every skeleton row
    does.
    """
    factors = []
    for i in range(x.dimension + 1):
        factors.append({
            "dim": i,
            "torsion_order": torsion_order(x, i),
            "reduced_laplacian_det": reduced_laplacian_det(x, i),
            "homology_covolume_sq": homology_covolume_squared(x, i),
        })
    lhs = _alternating_product([f["torsion_order"] ** 2 for f in factors])
    rhs = _alternating_product(
        [f["reduced_laplacian_det"] * f["homology_covolume_sq"] for f in factors])
    skeleta = []
    for d in range(x.dimension):
        sk = skeleton(x, d)
        a = rf_combinatorial(sk)
        b = rf_laplacian(sk)
        skeleta.append({"dim": d, "lhs": a, "rhs": b, "pass": a == b})
    skeleta.append({"dim": x.dimension, "lhs": lhs, "rhs": rhs, "pass": lhs == rhs})
    return VerificationReport(
        {"complex": x.name, "factors": factors, "lhs": lhs, "rhs": rhs, "skeleta": skeleta},
        all(row["pass"] for row in skeleta))
