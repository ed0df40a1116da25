"""Forest/coforest classification, enumeration against brute force, and the
two-route weight computations."""

import random
from fractions import Fraction
from itertools import combinations, islice

import pytest

from cellmesh.complexes import CellSubset, ComplexFormatError, boundary_matrix, simplex_id
from cellmesh.corpus import RP2_FACES
from cellmesh.forests import (BoundaryWeightContext, CycleWeightContext,
                              boundary_weight, cycle_weight, enumerate_forests)
from cellmesh.homology import integral_boundary_basis, integral_cycle_basis
from cellmesh.intmat import IntMatrix, gram_det, kernel_basis, rank, invariant_factor_product
from cellmesh.spectra import independent_subsets
from conftest import (classify, kirchhoff_pair_weight, pair_weight, random_int_matrix,
                      torsion_subcomplex)
from test_random_complexes import random_bouquet


def brute_force_enumeration(x, d, kind, param):
    """Position tuples of the qualifying subsets, in combinations order,
    by a subset filter over all candidates using only naive rank checks."""
    bd = boundary_matrix(x, d)
    b_low = rank(bd)
    bb = integral_boundary_basis(x, d).basis
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
    return [pos for pos in combinations(range(x.n_cells(d)), size) if cond(list(pos))]


def test_enumeration_matches_brute_force(corpus):
    # the same position tuples in the same (lexicographic) order; the last
    # cases reach the empty set on the engine: k-augmented at k = z (the
    # complement of no cycle rows), a forest of size 0, and coforests with
    # b_d = 0
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
        ("rp2", 1, "k_augmented", 6),
        ("k4", 1, "k_augmented", 3),
        ("theta", 1, "k_augmented", 2),
        ("rp2", 1, "k_augmented", 10),
        ("k4", 1, "forest_of_size", 0),
        ("k3", 1, "spanning_coforest", None),
        ("moore_z2", 2, "k_reduced_coforest", 0),
    ]
    for name, d, kind, param in cases:
        x = corpus[name]
        got = [tuple(x.positions(d, c.subset.members))
               for c in enumerate_forests(x, d, kind, param)]
        expected = brute_force_enumeration(x, d, kind, param)
        assert got == expected, (name, d, kind, param)
    # each edge case has exactly one subset: all cells, or none
    assert [len(brute_force_enumeration(corpus[name], d, kind, param))
            for name, d, kind, param in cases[-6:]] == [1] * 6


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


def _no_kernel(a):
    raise AssertionError("kernel_basis called")


def test_cycle_weight_rejects_non_forest(corpus, monkeypatch):
    # too few cells (k < 0), and subsets with at least b_{d-1} cells that do
    # not span: the cycle rows of their complement are dependent, so their
    # Gram determinant is 0 and the subset is rejected there, before any
    # kernel is solved; at k = 0 (a triangle of K4) and at k = 1 (the six
    # edges of the K4 inside delta5skel2's K6, which leave two vertices out)
    import cellmesh.forests as forests
    monkeypatch.setattr(forests, "kernel_basis", _no_kernel)
    k3, k4, d5 = corpus["k3"], corpus["k4"], corpus["delta5skel2"]
    inner_k4 = [simplex_id(e) for e in combinations(range(1, 5), 2)]
    for x, cells, k in ((k3, ["e12"], -1), (k4, ["e12", "e13", "e23"], 0),
                        (d5, inner_k4, 1)):
        z = integral_cycle_basis(x, 1)
        ctx = CycleWeightContext(x, 1, z)
        assert len(cells) - ctx.b_low == k
        with pytest.raises(ComplexFormatError, match="not a k-augmented spanning forest"):
            cycle_weight(x, 1, CellSubset(1, cells), z, ctx)


def test_cycle_weight_solves_no_kernel_at_k0(corpus, monkeypatch):
    # Z_d(X_W) has rank k, so a spanning forest's gram_factor is 1 with no
    # kernel solved: with kernel_basis raising, every spanning forest of
    # k4 at d=1 and the first 40 of delta5skel2 at d=2, with the torsional
    # RP2 forest, weigh as before; a 1-augmented forest still needs it
    import cellmesh.forests as forests
    cases = []
    for x, d, limit in ((corpus["k4"], 1, None), (corpus["delta5skel2"], 2, 40)):
        z = integral_cycle_basis(x, d)
        ctx = CycleWeightContext(x, d, z)
        subsets = [cert.subset for cert in islice(enumerate_forests(x, d, "spanning_forest"),
                                                  limit)]
        if d == 2:
            subsets.append(CellSubset(2, [simplex_id(f) for f in RP2_FACES]))
        cases += [(x, d, s, z, ctx) for s in subsets]
    want = [cycle_weight(*case) for case in cases]
    assert {w.weight_parts["gram_factor"] for w in want} == {1}
    assert {w.weight_parts["torsion_ratio"] for w in want} == {1, 2}
    monkeypatch.setattr(forests, "kernel_basis", _no_kernel)
    got = [cycle_weight(*case) for case in cases]
    assert ([(w.kind, w.param, w.weight, w.weight_parts) for w in got]
            == [(w.kind, w.param, w.weight, w.weight_parts) for w in want])
    k4 = corpus["k4"]
    with pytest.raises(AssertionError, match="kernel_basis called"):
        cycle_weight(k4, 1, CellSubset(1, ["e12", "e13", "e14", "e23"]),
                     integral_cycle_basis(k4, 1))


def _full_table_torsion(ctx, positions):
    """t_{d-1}(X_W) by the full-table route: the invariant-factor product of
    the raw boundary columns of W, with no saturation and no reduction."""
    return invariant_factor_product(
        [[row[j] for j in positions] for row in boundary_matrix(ctx.x, ctx.d).data])


def test_torsion_subcomplex_matches_full_table_oracle(corpus):
    # the reduced-table Smith oracle drops each unit-pivot row whose pivot
    # column lies in W; t(X_W) must still equal the full-table Smith for
    # spanning and non-spanning W, on every corpus case and the seeded
    # bouquets of test_random_complexes.  The twin route,
    # CycleWeightContext.torsion, must match both on every spanning W and
    # raise on every W that does not span, unit twins shared by one column
    # included
    cases = [(x, d) for _, x in sorted(corpus.items())
             for d in range(1, x.dimension + 1)]
    bouquets = random.Random(2024)
    for _ in range(20):
        b = random_bouquet(bouquets, bouquets.randint(1, 5), bouquets.randint(1, 5))
        cases += [(b, 1), (b, 2)]
    rng = random.Random(11)
    non_unit = set()
    for x, d in cases:
        ctx = CycleWeightContext(x, d, integral_cycle_basis(x, d))
        bd = boundary_matrix(x, d)
        n = x.n_cells(d)
        if n <= 12:
            subsets = [list(s) for k in range(n + 1) for s in combinations(range(n), k)]
        else:
            subsets = [sorted(rng.sample(range(n), rng.randint(0, n)))
                       for _ in range(2000)]
        spanning = 0
        for pos in subsets:
            oracle = torsion_subcomplex(ctx, pos)
            assert oracle == _full_table_torsion(ctx, pos), (x.name, d, pos)
            if rank(bd.submatrix(range(bd.rows), pos)) == ctx.b_low:
                spanning += 1
                assert ctx.torsion(pos) == oracle, (x.name, d, pos)
            else:
                with pytest.raises(AssertionError, match="do not span"):
                    ctx.torsion(pos)
        if ctx.b_low:
            assert 0 < spanning < len(subsets), (x.name, d)
        if ctx.other_rows:
            non_unit.add((x.name, d))
    assert {("rp2", 2), ("moore_z2", 2)} <= non_unit
    # torsion drops each unit-vector twin with its column first; two unit
    # twins on one column (k3 at d=1, where every twin is +-e_0) are
    # dependent, so a W that leaves both outside must still raise
    k3 = corpus["k3"]
    ctx = CycleWeightContext(k3, 1, integral_cycle_basis(k3, 1))
    assert ctx._unit_twin_cols == [0, 0, 0]
    with pytest.raises(AssertionError, match="do not span"):
        ctx.torsion([0])
    assert ctx.torsion([0, 1]) == 1


def test_twin_cokernel_order_matches_torsion_oracles(corpus, monkeypatch):
    # on every trent leaf, t0 times the engine's twin cokernel order and
    # CycleWeightContext.torsion's greedy pass over the same twins must be
    # t(X_W) by both the reduced-table and the full-table Smith, for every
    # corpus case and the seeded bouquets of test_random_complexes (which
    # bring rows with a larger pivot and t(X) > 1); on the one tree too big
    # to walk here (delta5skel2 at d = 2, 358,884 leaves) every leaf of size
    # at most 2 and every leaf inside the last 11 rows is checked.  Where
    # the twins see a larger pivot or t(X) > 1, the verifier's rows must
    # not depend on the worker count.
    import cellmesh.spectra as spectra
    from cellmesh.spectra import verify_theorem1
    cases = [(x, d) for _, x in sorted(corpus.items())
             for d in range(1, x.dimension + 1)]
    bouquets = random.Random(2024)
    for _ in range(20):
        b = random_bouquet(bouquets, bouquets.randint(1, 5), bouquets.randint(1, 5))
        cases += [(b, 1), (b, 2)]
    larger_pivot = torsional = 0
    for x, d in cases:
        z = integral_cycle_basis(x, d)
        ctx = CycleWeightContext(x, d, z)
        twins, t0 = ctx.twins
        assert t0 == ctx.t_x, (x.name, d)
        larger_pivot += bool(ctx.other_rows)
        torsional += ctx.t_x > 1
        a_rows = [tuple(row) for row in z.basis.data]
        n = len(a_rows)
        if (x.name, d) == ("delta5skel2", 2):
            leaves = list(independent_subsets(a_rows, 2, twins=twins))
            for first in range(n - 11, n):
                leaves += independent_subsets(a_rows, z.rank, first, twins)
        else:
            leaves = list(independent_subsets(a_rows, z.rank, twins=twins))
        for chosen, _, cok, twin_cok in leaves:
            taken = set(chosen)
            w = [j for j in range(n) if j not in taken]
            assert t0 * twin_cok == ctx.torsion(w) == torsion_subcomplex(ctx, w) \
                == _full_table_torsion(ctx, w), (x.name, d, chosen)
            assert cok * ctx.t_x == t0 * twin_cok, (x.name, d, chosen)
        if ctx.other_rows or ctx.t_x > 1:
            serial = verify_theorem1(x, d, z, processes=1)
            monkeypatch.setattr(spectra, "_POOL_MIN_SUBSETS", 0)
            pooled = verify_theorem1(x, d, z, processes=2)
            monkeypatch.undo()
            assert serial.passed and serial.rows == pooled.rows, (x.name, d)
    assert larger_pivot >= 2 and torsional >= 2


def test_cycle_context_rejects_non_unimodular_reduction(corpus, monkeypatch):
    # a reduction that scales a row is not unimodular; the construction
    # check sees the changed t(X) before any subset is weighed
    import cellmesh.forests as forests
    reduce = forests._column_hermite_reduce

    def scaled(rows, ncols):
        r = reduce(rows, ncols)
        rows[0][:] = [2 * a for a in rows[0]]
        return r
    monkeypatch.setattr(forests, "_column_hermite_reduce", scaled)
    for name, d in (("k4", 1), ("rp2", 2)):
        x = corpus[name]
        with pytest.raises(AssertionError, match="changes t\\(X\\)"):
            CycleWeightContext(x, d, integral_cycle_basis(x, d))


def test_twin_table_rejects_wrong_t0(corpus):
    # a larger-pivot row of the reduced table tripled after construction
    # triples t0; the check against t(X) of the raw table fails before any
    # subset is visited
    for name in ("rp2", "moore_z2"):
        x = corpus[name]
        ctx = CycleWeightContext(x, 2, integral_cycle_basis(x, 2))
        ctx.other_rows[0][:] = [3 * a for a in ctx.other_rows[0]]
        with pytest.raises(AssertionError, match="twin table .* t0 6 != t\\(X\\) 2"):
            ctx.twin_table()


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


def test_boundary_weigh_rejects_wrong_gram(corpus):
    # the Gram determinant and cokernel order handed to
    # BoundaryWeightContext.weigh are checked, not trusted; the engine's own
    # pass and give the public parts
    for name, d in (("moore_z2", 1), ("delta3", 1), ("sphere2", 1)):
        x = corpus[name]
        b = integral_boundary_basis(x, d)
        ctx = BoundaryWeightContext(x, d, b)
        ids = x.cell_ids(d)
        for idx, gram, cok in independent_subsets(ctx.rows, b.rank):
            subset = CellSubset(d, [ids[i] for i in idx])
            parts = ctx.weigh(idx, gram, cok)
            assert parts == boundary_weight(x, d, subset, b, ctx).weight_parts
            for wrong in ((gram + 1, cok), (gram, 2 * cok)):
                with pytest.raises(AssertionError, match="boundary weight mismatch"):
                    ctx.weigh(idx, *wrong)


def test_boundary_weight_rejects_dependent_subset(corpus):
    # a public caller's dependent or oversized subset (Gram determinant 0)
    # is a ComplexFormatError; handed to BoundaryWeightContext.weigh, the
    # first zero tail of a pushed row rejects it with an AssertionError
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
        with pytest.raises(AssertionError, match="are dependent"):
            BoundaryWeightContext(x, 1, b).weigh(pos, 1, 1)


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


def test_pair_weight_checks_the_relative_order(corpus, monkeypatch):
    # the pair-weight oracle's second route, the invariant-factor product of
    # the same minor, must agree with the Bareiss determinant on every
    # nonzero pair
    import cellmesh.intmat as intmat
    k4 = corpus["k4"]
    cols = [tuple(col) for col in zip(*boundary_matrix(k4, 1).data)]
    assert pair_weight(cols, (0, 1, 2), (1, 2, 3)) == 1
    assert pair_weight(cols, (0, 1, 3), (1, 2, 3)) == 0
    ifp = intmat.invariant_factor_product
    monkeypatch.setattr(intmat, "invariant_factor_product", lambda m: 2 * ifp(m))
    with pytest.raises(AssertionError, match="pair weight 1 != relative order 2 squared"):
        pair_weight(cols, (0, 1, 2), (1, 2, 3))
    assert pair_weight(cols, (0, 1, 3), (1, 2, 3)) == 0


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

