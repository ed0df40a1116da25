"""Homology groups, torsion orders, lattice bases, covolumes, and the
cycle/boundary covolume identity."""

from fractions import Fraction

import pytest

from cellmesh.complexes import CellSubset, ComplexFormatError, boundary_matrix
from cellmesh.corpus import point
from cellmesh.homology import (covolume_squared, homology_covolume_squared,
                               homology_groups, integral_boundary_basis,
                               integral_cycle_basis, relative_order,
                               saturate_columns, rational_solve, torsion_order)
from cellmesh.intmat import (gram_det, invariant_factor_product, rank,
                             smith_normal_form)
from conftest import column_hermite_oracle, random_unimodular, smith_kernel_oracle

KNOWN_HOMOLOGY = {
    # name -> {dim: (betti, factors)}
    "k3": {0: (1, []), 1: (1, [])},
    "k4": {0: (1, []), 1: (3, [])},
    "theta": {0: (1, []), 1: (2, [])},
    "p2": {0: (1, []), 1: (0, [])},
    "delta3": {0: (1, []), 1: (0, []), 2: (0, []), 3: (0, [])},
    "sphere2": {0: (1, []), 1: (0, []), 2: (1, [])},
    "delta5skel2": {0: (1, []), 1: (0, []), 2: (10, [])},
    "rp2": {0: (1, []), 1: (0, [2]), 2: (0, [])},
    "moore_z2": {0: (1, []), 1: (0, [2]), 2: (0, [])},
    "dunce": {0: (1, []), 1: (0, []), 2: (0, [])},
}


def test_homology_known_values(corpus):
    for name, x in corpus.items():
        for d, (betti, factors) in KNOWN_HOMOLOGY[name].items():
            h = homology_groups(x, d)
            assert (h.betti, h.invariant_factors) == (betti, factors), (name, d)


def test_homology_point():
    h = homology_groups(point(), 0)
    assert h.betti == 1 and h.torsion_order == 1


def test_torsion_orders(corpus):
    assert torsion_order(corpus["rp2"], 1) == 2
    assert torsion_order(corpus["moore_z2"], 1) == 2
    for d in range(4):
        assert torsion_order(corpus["delta3"], d) == 1


def test_cycle_basis_examples(corpus):
    z = integral_cycle_basis(corpus["k3"], 1)
    assert z.basis.cols == 1
    col = [z.basis.data[i][0] for i in range(3)]
    assert col in ([1, 1, -1], [-1, -1, 1])
    z2 = integral_cycle_basis(corpus["sphere2"], 2)
    assert z2.basis.cols == 1
    assert sorted(abs(z2.basis.data[i][0]) for i in range(4)) == [1, 1, 1, 1]
    assert integral_cycle_basis(corpus["p2"], 1).basis.cols == 0


def test_boundary_basis_examples(corpus):
    b = integral_boundary_basis(corpus["moore_z2"], 1)
    assert b.basis.data == [[2]]
    b2 = integral_boundary_basis(corpus["delta3"], 2)
    assert b2.basis.cols == 1
    assert sorted(abs(b2.basis.data[i][0]) for i in range(4)) == [1, 1, 1, 1]
    assert integral_boundary_basis(corpus["k4"], 1).basis.cols == 0


def test_rank_nullity_and_saturation(corpus):
    for name, x in corpus.items():
        for d in range(x.dimension + 1):
            z = integral_cycle_basis(x, d)
            assert rank(boundary_matrix(x, d)) + z.basis.cols == x.n_cells(d)
            if z.basis.cols:
                snf = smith_normal_form(z.basis)
                assert snf.invariant_factors() == [1] * z.basis.cols, (name, d)


def test_lattice_bases_match_oracle_routes(corpus):
    # the canonical cycle and boundary bases are the ones the Smith kernel
    # route and the earlier Hermite route give, at every dimension
    for name, x in corpus.items():
        for d in range(x.dimension + 1):
            assert (integral_cycle_basis(x, d).basis
                    == smith_kernel_oracle(boundary_matrix(x, d))), (name, d)
            if d < x.dimension:
                assert (integral_boundary_basis(x, d).basis
                        == column_hermite_oracle(boundary_matrix(x, d + 1))), (name, d)


def test_covolume_examples(corpus):
    assert covolume_squared(integral_cycle_basis(corpus["k3"], 1)) == 3
    assert covolume_squared(integral_cycle_basis(corpus["sphere2"], 2)) == 4
    assert covolume_squared(integral_boundary_basis(corpus["moore_z2"], 1)) == 4


def test_covolume_unimodular_invariance(corpus, rng):
    for name in ("k3", "k4", "sphere2", "rp2", "moore_z2"):
        x = corpus[name]
        for d in range(x.dimension + 1):
            for lattice in (integral_cycle_basis(x, d),
                            integral_boundary_basis(x, d)):
                m = lattice.basis
                if m.cols == 0:
                    continue
                base = gram_det(m)
                for _ in range(20):
                    u = random_unimodular(rng, m.cols)
                    assert gram_det(m.mul(u)) == base, (name, d, lattice.kind)


def test_homology_covolume_examples(corpus):
    assert homology_covolume_squared(corpus["sphere2"], 2) == 4
    assert homology_covolume_squared(corpus["k3"], 1) == 3
    for d in (1, 2, 3):
        assert homology_covolume_squared(corpus["delta3"], d) == 1
    assert homology_covolume_squared(corpus["rp2"], 0) == Fraction(1, 6)


def test_covolume_identity_every_corpus_dimension(corpus):
    # covol^2(cycles) * t^2 = covol^2(boundaries) * homology covol^2, exactly
    for name, x in corpus.items():
        for d in range(x.dimension + 1):
            z = covolume_squared(integral_cycle_basis(x, d))
            b = covolume_squared(integral_boundary_basis(x, d))
            t = torsion_order(x, d)
            h = homology_covolume_squared(x, d)  # self-checks both routes
            assert Fraction(z * t * t) == Fraction(b) * h, (name, d)


def test_saturation_index_equals_torsion(corpus):
    for name, x in corpus.items():
        for d in range(x.dimension + 1):
            b = integral_boundary_basis(x, d).basis
            if b.cols == 0:
                continue
            sat = saturate_columns(b)
            coords = rational_solve(sat, b).to_integer()
            index = invariant_factor_product([row[:] for row in coords.data])
            assert index == torsion_order(x, d), (name, d)


def test_relative_order_examples(corpus):
    k3 = corpus["k3"]
    assert relative_order(k3, CellSubset(1, ["e12", "e23"]),
                          CellSubset(0, ["v3"]), 0) == 1
    d3 = corpus["delta3"]
    tri = d3.cell_ids(2)[0]
    upper = CellSubset(3, d3.cell_ids(3))
    lower = CellSubset(2, [t for t in d3.cell_ids(2) if t != tri])
    assert relative_order(d3, upper, lower, 2) == 1
    moore = corpus["moore_z2"]
    assert relative_order(moore, CellSubset(2, ["f"]), CellSubset(1, []), 1) == 2


def test_relative_order_infinite_raises(corpus):
    k3 = corpus["k3"]
    # a single edge cannot surject onto all three vertex coordinates
    with pytest.raises(ValueError, match="infinite"):
        relative_order(k3, CellSubset(1, ["e12"]), CellSubset(0, []), 0)


def test_out_of_range_dimension(corpus):
    with pytest.raises(ComplexFormatError):
        homology_groups(corpus["k3"], 2)
    with pytest.raises(ComplexFormatError):
        torsion_order(corpus["k3"], -1)
