"""Exact mesh-matrix, Laplacian, and torsion combinatorics of cell complexes.

The package computes, over exact integers and rationals, the three matrices
attached to each dimension of a finite cell complex (cycle mesh matrix,
boundary mesh matrix, combinatorial Laplacian), enumerates the weighted
subcomplexes (spanning forests, coforests, and their augmented/reduced
variants) that evaluate every coefficient of the characteristic polynomials,
and mechanically verifies each identity by computing both sides through
independent code paths.

The public names below are resolved on first access (PEP 562), so that
`import cellmesh` loads no submodule until one is used.
"""

import importlib

_EXPORTS = {
    "complexes": ("Cell", "CellComplex", "CellSubset", "ComplexFormatError",
                  "boundary_matrix", "load_complex", "parse_complex", "serialize_complex",
                  "skeleton", "standard_simplex", "validate"),
    "forests": ("ForestCertificate", "boundary_weight", "cycle_weight", "enumerate_forests"),
    "homology": ("HomologySummary", "LatticeBasis", "covolume_squared",
                 "homology_covolume_squared", "homology_groups", "integral_boundary_basis",
                 "integral_cycle_basis", "relative_order", "torsion_order"),
    "intmat": ("IntMatrix", "IntPolynomial", "RatMatrix", "SmithDecomposition", "char_poly",
               "char_poly_rational", "gram_det", "kernel_basis", "principal_minor_sum", "rank",
               "smith_normal_form"),
    "kalai": ("SpectrumSummary", "phi_basis", "predicted_spectrum", "reduced_incidence",
              "verify_kalai"),
    "spectra": ("MeshMatrix", "VerificationReport", "combinatorial_laplacian",
                "geometric_boundary_basis", "geometric_cycle_basis", "mesh_matrix_boundaries",
                "mesh_matrix_cycles", "verify_covolume", "verify_geometric_theorems",
                "verify_kirchhoff_lyons", "verify_theorem1", "verify_theorem2",
                "weighted_laplacian"),
    "torsion": ("reduced_laplacian_det", "rf_combinatorial", "rf_laplacian",
                "verify_rf_identity"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# the exported names and their submodules
__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
