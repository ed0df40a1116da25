"""Randomized end-to-end property suite.

Every verifier identity must hold for arbitrary finite complexes, not just
the bundled corpus.  Random CW bouquets (one vertex, loops, faces attached
by arbitrary integer vectors) produce rich boundary lattices whose relative
orders u(W,V) routinely exceed 1, and random simplicial complexes vary the
cycle/boundary structure at both dimensions.  Seeds are fixed.
"""

import random
from itertools import combinations

from cellmesh.complexes import Cell, CellComplex, simplex_id
from cellmesh.forests import (BoundaryWeightContext, boundary_weight,
                              enumerate_forests)
from cellmesh.homology import integral_boundary_basis
from cellmesh.spectra import (verify_geometric_theorems, verify_kirchhoff_lyons,
                              verify_theorem1, verify_theorem2)
from cellmesh.torsion import verify_rf_identity
from conftest import kernel_weight_oracle


def random_bouquet(rng, n_edges, n_faces, lo=-3, hi=3):
    """One vertex, n_edges loops, n_faces disks with integer attaching
    vectors; every integer matrix is a legal boundary map here."""
    edges = [Cell(f"e{i}") for i in range(n_edges)]
    faces = []
    for j in range(n_faces):
        boundary = [(f"e{i}", c) for i in range(n_edges)
                    if (c := rng.randint(lo, hi))]
        faces.append(Cell(f"f{j}", boundary))
    return CellComplex("bouquet", 2, {0: [Cell("v")], 1: edges, 2: faces})


def random_simplicial(rng, n_vertices, max_faces):
    """Full 1-skeleton on the vertices plus a random set of triangles."""
    all_faces = list(combinations(range(1, n_vertices + 1), 3))
    faces = rng.sample(all_faces, rng.randint(0, max_faces))
    verts = [Cell(str(i)) for i in range(1, n_vertices + 1)]
    edges = [Cell(simplex_id(e), [(str(e[0]), -1), (str(e[1]), 1)])
             for e in combinations(range(1, n_vertices + 1), 2)]
    tris = [Cell(simplex_id(f), [(simplex_id((f[1], f[2])), 1),
                                 (simplex_id((f[0], f[2])), -1),
                                 (simplex_id((f[0], f[1])), 1)])
            for f in sorted(faces)]
    return CellComplex("rand_simplicial", 2, {0: verts, 1: edges, 2: tris})


def _check_all(x):
    for d in (1, 2):
        assert verify_theorem1(x, d).passed, (x.name, d)
        assert verify_theorem2(x, d).passed, (x.name, d)
        assert verify_kirchhoff_lyons(x, d).passed, (x.name, d)
        assert verify_geometric_theorems(x, d).passed, (x.name, d)
    assert verify_rf_identity(x).passed, x.name


def test_random_bouquets_all_identities():
    rng = random.Random(2024)
    for _ in range(20):
        _check_all(random_bouquet(rng, rng.randint(1, 5), rng.randint(1, 5)))


def test_random_bouquets_exercise_nontrivial_relative_orders():
    # the coforest weights must hit u(W,V) > 1, so the relative-order ratio
    # in the boundary weight is genuinely exercised, not vacuous; the tail
    # route's parts must equal the kernel oracle's on every coforest
    rng = random.Random(2024)
    seen_u_above_one = 0
    for _ in range(20):
        x = random_bouquet(rng, rng.randint(1, 5), rng.randint(1, 5))
        b = integral_boundary_basis(x, 1)
        ctx = BoundaryWeightContext(x, 1, b)
        for k in range(b.basis.cols):
            for cert in enumerate_forests(x, 1, "k_reduced_coforest", k):
                w = boundary_weight(x, 1, cert.subset, b, ctx)
                pos = x.positions(1, cert.subset.members)
                assert w.weight_parts == kernel_weight_oracle(ctx, pos), (x.name, pos)
                if w.weight_parts["u"] > 1:
                    seen_u_above_one += 1
    assert seen_u_above_one >= 10


def test_random_simplicial_all_identities():
    rng = random.Random(777)
    for _ in range(10):
        _check_all(random_simplicial(rng, 5, 7))
