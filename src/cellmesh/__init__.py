"""Exact mesh-matrix, Laplacian, and torsion combinatorics of cell complexes.

The package computes, over exact integers and rationals, the three matrices
attached to each dimension of a finite cell complex (cycle mesh matrix,
boundary mesh matrix, combinatorial Laplacian), enumerates the weighted
subcomplexes (spanning forests, coforests, and their augmented/reduced
variants) that evaluate every coefficient of the characteristic polynomials,
and mechanically verifies each identity by computing both sides through
independent code paths.
"""

from .complexes import (Cell, CellComplex, CellSubset, ComplexFormatError,
                        boundary_matrix, load_complex, parse_complex,
                        serialize_complex, skeleton, standard_simplex, validate)
from .forests import (ForestCertificate, boundary_weight, cycle_weight,
                      enumerate_forests)
from .homology import (HomologySummary, LatticeBasis, covolume_squared,
                       homology_covolume_squared, homology_groups,
                       integral_boundary_basis, integral_cycle_basis,
                       relative_order, torsion_order)
from .intmat import (IntMatrix, IntPolynomial, RatMatrix, SmithDecomposition,
                     char_poly, char_poly_rational, gram_det, kernel_basis,
                     principal_minor_sum, rank, smith_normal_form)
from .kalai import (SpectrumSummary, phi_basis, predicted_spectrum,
                    reduced_incidence, verify_kalai)
from .spectra import (MeshMatrix, VerificationReport, combinatorial_laplacian,
                      geometric_boundary_basis, geometric_cycle_basis,
                      mesh_matrix_boundaries, mesh_matrix_cycles, verify_covolume,
                      verify_geometric_theorems, verify_kirchhoff_lyons,
                      verify_theorem1, verify_theorem2, weighted_laplacian)
from .torsion import (reduced_laplacian_det, rf_combinatorial, rf_laplacian,
                      verify_rf_identity)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
