"""Mesh matrices, Laplacians, and the theorem verifiers on the corpus."""

from fractions import Fraction
from itertools import combinations

import pytest

from cellmesh.complexes import (CellSubset, ComplexFormatError,
                                WeightAssignment, boundary_matrix, simplex_id)
from cellmesh.corpus import RP2_FACES
from cellmesh.forests import (CycleWeightContext, boundary_weight, cycle_weight,
                              enumerate_forests)
from cellmesh.homology import (LatticeBasis, integral_boundary_basis,
                               integral_cycle_basis)
from cellmesh.intmat import (IntMatrix, char_poly, char_poly_rational,
                             det_bareiss, gram_det, invariant_factor_product,
                             principal_minor_sum)
from cellmesh.spectra import (combinatorial_laplacian, geometric_boundary_basis,
                              geometric_cycle_basis, gram_state_push,
                              greedy_spanning_forest, independent_subsets,
                              mesh_matrix_boundaries, mesh_matrix_cycles,
                              verify_geometric_theorems, verify_kirchhoff_lyons,
                              verify_theorem1, verify_theorem2,
                              weighted_laplacian)
from conftest import double_torsion, double_v_order, random_unimodular

SMALL = [("k3", 1), ("k4", 1), ("theta", 1), ("p2", 1), ("delta3", 1),
         ("delta3", 2), ("delta3", 3), ("sphere2", 1), ("sphere2", 2),
         ("moore_z2", 1), ("moore_z2", 2), ("dunce", 1), ("dunce", 2)]


def row_for(report, k, side=None):
    for row in report.rows:
        if row["k"] == k and (side is None or row.get("side") == side):
            return row
    raise KeyError(k)


# --- matrix constructors ------------------------------------------------------

def test_mesh_matrix_examples(corpus):
    z = integral_cycle_basis(corpus["k3"], 1)
    assert mesh_matrix_cycles(corpus["k3"], 1, z).matrix.data == [[3]]
    z2 = integral_cycle_basis(corpus["sphere2"], 2)
    assert mesh_matrix_cycles(corpus["sphere2"], 2, z2).matrix.data == [[4]]
    zt = integral_cycle_basis(corpus["p2"], 1)
    assert mesh_matrix_cycles(corpus["p2"], 1, zt).matrix.rows == 0

    bm = integral_boundary_basis(corpus["moore_z2"], 1)
    assert mesh_matrix_boundaries(corpus["moore_z2"], 1, bm).matrix.data == [[4]]
    b3 = integral_boundary_basis(corpus["delta3"], 2)
    assert mesh_matrix_boundaries(corpus["delta3"], 2, b3).matrix.data == [[4]]
    bg = integral_boundary_basis(corpus["k3"], 1)
    assert mesh_matrix_boundaries(corpus["k3"], 1, bg).matrix.rows == 0


def test_mesh_matrix_kind_check(corpus):
    z = integral_cycle_basis(corpus["k3"], 1)
    with pytest.raises(ComplexFormatError):
        mesh_matrix_boundaries(corpus["k3"], 1, z)


def test_laplacian_examples(corpus):
    lap = combinatorial_laplacian(corpus["k3"], 1)
    assert lap.matrix.data == [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    assert char_poly(lap.matrix).coeffs == (0, 9, -6, 1)
    assert combinatorial_laplacian(corpus["p2"], 1).matrix.data == [[1, -1], [-1, 1]]


def test_laplacian_positive_semidefinite(corpus):
    for name, d in SMALL:
        lap = combinatorial_laplacian(corpus[name], d)
        n = lap.matrix.rows
        for k in range(n + 1):
            assert principal_minor_sum(lap.matrix, k) >= 0, (name, d, k)


def test_mesh_symmetry_and_psd(corpus):
    for name, d in SMALL:
        x = corpus[name]
        for mesh in (mesh_matrix_cycles(x, d, integral_cycle_basis(x, d)),
                     mesh_matrix_boundaries(x, d, integral_boundary_basis(x, d))):
            m = mesh.matrix
            assert m.data == m.transpose().data
            for k in range(m.rows + 1):
                assert principal_minor_sum(m, k) >= 0


def test_weighted_laplacian_reduces_to_unweighted(corpus):
    for name, d in [("k3", 1), ("sphere2", 2), ("moore_z2", 2)]:
        x = corpus[name]
        lap = combinatorial_laplacian(x, d)
        wl = weighted_laplacian(x, d, WeightAssignment())
        assert wl.matrix.data == [[Fraction(v) for v in row]
                                  for row in lap.matrix.data]


def test_weighted_laplacian_single_edge(corpus):
    a = Fraction(7, 3)
    wl = weighted_laplacian(corpus["p2"], 1, WeightAssignment({"e": a}))
    assert char_poly_rational(wl.matrix) == [Fraction(0), -2 * a, Fraction(1)]


def test_weighted_laplacian_rejects_nonpositive(corpus):
    with pytest.raises(ComplexFormatError):
        WeightAssignment({"e": 0})
    wa = WeightAssignment()
    wa.mapping["e"] = Fraction(0)  # bypass constructor check
    with pytest.raises(ComplexFormatError):
        weighted_laplacian(corpus["p2"], 1, wa)


def test_weighted_laplacian_sigma_nonnegative(corpus):
    w = WeightAssignment({"e12": Fraction(2), "e23": Fraction(1, 3)})
    wl = weighted_laplacian(corpus["k3"], 1, w)
    coeffs = char_poly_rational(wl.matrix)
    n = wl.matrix.rows
    for k in range(n + 1):
        sigma = (-1) ** k * coeffs[n - k]
        assert sigma >= 0


def test_geometric_cycle_basis_examples(corpus):
    g = geometric_cycle_basis(corpus["k3"], 1, CellSubset(1, ["e12", "e23"]))
    assert g.data == [[Fraction(-1)], [Fraction(-1)], [Fraction(1)]]
    s2 = corpus["sphere2"]
    v0 = greedy_spanning_forest(s2, 2)
    g2 = geometric_cycle_basis(s2, 2, v0)
    missing = [i for i in range(4)
               if s2.cell_ids(2)[i] not in v0.members][0]
    assert g2.data[missing][0] == 1
    with pytest.raises(ComplexFormatError):
        geometric_cycle_basis(corpus["k3"], 1, CellSubset(1, ["e12"]))
    with pytest.raises(ComplexFormatError):
        # carries a cycle
        geometric_cycle_basis(corpus["theta"], 1, CellSubset(1, ["ea", "eb"]))


def test_geometric_boundary_basis_examples(corpus):
    d3 = corpus["delta3"]
    g = geometric_boundary_basis(d3, 2, CellSubset(3, d3.cell_ids(3)))
    assert g.cols == 1
    assert sorted(abs(v) for v in (g.data[i][0] for i in range(4))) == [1, 1, 1, 1]
    moore = corpus["moore_z2"]
    gm = geometric_boundary_basis(moore, 1, CellSubset(2, ["f"]))
    assert gm.data == [[Fraction(2)]]
    with pytest.raises(ComplexFormatError):
        geometric_boundary_basis(moore, 1, CellSubset(2, []))


# --- verifiers ----------------------------------------------------------------

def test_theorem1_small_corpus(corpus):
    for name, d in SMALL:
        report = verify_theorem1(corpus[name], d)
        assert report.passed, (name, d, report.rows)


def test_theorem1_k4_det_row(corpus):
    report = verify_theorem1(corpus["k4"], 1)
    row = row_for(report, 0)
    assert row["lhs"] == row["rhs"] == 16
    assert row["certificates"] == 16


def test_theorem1_sphere_det_row(corpus):
    report = verify_theorem1(corpus["sphere2"], 2)
    assert row_for(report, 0)["rhs"] == 4


def test_theorem2_small_corpus(corpus):
    for name, d in SMALL:
        report = verify_theorem2(corpus[name], d)
        assert report.passed, (name, d, report.rows)


def test_theorem2_examples(corpus):
    report = verify_theorem2(corpus["moore_z2"], 1)
    assert row_for(report, 0)["rhs"] == 4
    report = verify_theorem2(corpus["delta3"], 2)
    assert row_for(report, 0)["rhs"] == 4
    report = verify_theorem2(corpus["k3"], 1)
    assert report.passed and len(report.rows) == 1  # vacuous: char poly 1


def test_kirchhoff_small_corpus(corpus):
    for name, d in SMALL:
        report = verify_kirchhoff_lyons(corpus[name], d)
        assert report.passed, (name, d, report.rows)


def test_kirchhoff_examples(corpus):
    report = verify_kirchhoff_lyons(corpus["k3"], 1)
    assert row_for(report, 1)["lhs"] == 6
    assert row_for(report, 2)["lhs"] == 9
    assert row_for(report, 2)["product_of_nonzero_eigenvalues"] == 9
    report = verify_kirchhoff_lyons(corpus["k4"], 1)
    assert row_for(report, 3)["lhs"] == 64


def test_geometric_small_corpus(corpus):
    for name, d in SMALL:
        report = verify_geometric_theorems(corpus[name], d)
        assert report.passed, (name, d, report.rows)


def test_geometric_triangle_example(corpus):
    report = verify_geometric_theorems(corpus["k3"], 1,
                                       CellSubset(1, ["e12", "e23"]))
    row = row_for(report, 1, "cycles")
    assert row["lhs"] == row["rhs"] == 3
    assert row["certificates"] == 3


def test_geometric_closed_form_discrepancy_on_torsional_forest(corpus):
    # with a torsion-free V0 the two closed forms coincide; choosing the
    # embedded projective-plane triangulation as V0 separates them: the
    # fixed t(X_V0) denominator matches the Gram determinants, the
    # U-dependent denominator does not
    d5 = corpus["delta5skel2"]
    v0 = CellSubset(2, [simplex_id(f) for f in RP2_FACES])
    report = verify_geometric_theorems(d5, 2, v0)
    assert report.passed, [r for r in report.rows if not r["pass"]]
    assert "cycle closed form with denominator t(X_V0) matches: True" in report.notes
    assert ("cycle closed form with U-dependent denominator matches: False"
            in report.notes)


def test_geometric_default_v0_includes_torsion_weight(corpus):
    # with the torsion-free greedy V0 on the 2-skeleton of the 5-simplex the
    # determinant row sums squared torsion ratios, some of which exceed 1
    d5 = corpus["delta5skel2"]
    z5 = integral_cycle_basis(d5, 2)
    ctx = CycleWeightContext(d5, 2, z5)
    rp2_pos = d5.positions(2, [simplex_id(f) for f in RP2_FACES])
    assert ctx.torsion_subcomplex(rp2_pos) == 2


def test_basis_covariance_mesh_transform(corpus, rng):
    # mesh(Z U) = U^t mesh(Z) U, determinant invariant, theorem 1 preserved
    for name, d in [("k4", 1), ("sphere2", 2)]:
        x = corpus[name]
        z = integral_cycle_basis(x, d)
        base_mesh = mesh_matrix_cycles(x, d, z).matrix
        base_det = base_mesh.det() if base_mesh.rows else 1
        for _ in range(20):
            u = random_unimodular(rng, z.basis.cols)
            zu = LatticeBasis(d, z.basis.mul(u), "cycles")
            mesh_u = mesh_matrix_cycles(x, d, zu).matrix
            assert mesh_u == u.transpose().mul(base_mesh).mul(u)
            assert (mesh_u.det() if mesh_u.rows else 1) == base_det
            report = verify_theorem1(x, d, zu)
            assert report.passed, (name, d, u.data)


def test_hodge_consistency(corpus):
    # sigma_k of boundary-composed-with-adjoint agrees on both sides of the
    # boundary map, for every corpus complex and dimension
    for name, x in corpus.items():
        for d in range(1, x.dimension + 1):
            bd = boundary_matrix(x, d)
            down = bd.mul(bd.transpose())
            up = bd.transpose().mul(bd)
            p_down = char_poly(down)
            p_up = char_poly(up)
            r = min(down.rows, up.rows)
            for k in range(r + 1):
                sig_down = (-1) ** k * p_down.coefficient(down.rows - k)
                sig_up = (-1) ** k * p_up.coefficient(up.rows - k)
                assert sig_down == sig_up, (name, d, k)


def force_pool(monkeypatch):
    """Send every enumeration with processes > 1 to the pool; returns the
    list that records each entry into _run_parallel."""
    import cellmesh.spectra as spectra
    entered = []
    run_parallel = spectra._run_parallel

    def recorded(fn, arg_list, processes):
        entered.append(len(arg_list))
        return run_parallel(fn, arg_list, processes)
    monkeypatch.setattr(spectra, "_POOL_MIN_SUBSETS", 0)
    monkeypatch.setattr(spectra, "_run_parallel", recorded)
    return entered


def test_verifier_process_count_determinism(corpus, monkeypatch):
    # delegating to worker processes must not change any reported value
    x = corpus["rp2"]
    entered = force_pool(monkeypatch)
    serial = [verify_theorem1(x, 1, processes=1),
              verify_kirchhoff_lyons(x, 2, processes=1),
              verify_theorem2(x, 1, processes=1)]
    assert entered == []
    pooled = [verify_theorem1(x, 1, processes=2),
              verify_kirchhoff_lyons(x, 2, processes=2),
              verify_theorem2(x, 1, processes=2)]
    assert entered == [15, 10, 15]  # one task per first row / column
    for one, many in zip(serial, pooled):
        assert one.passed and one.rows == many.rows


def test_theorem1_matches_cycle_weight_oracle(corpus, monkeypatch):
    # the oracle sums the two-route cycle_weight over the k-augmented
    # spanning forests, the complements of the independent row subsets of
    # the cycle matrix, as enumerate_forests lists them; the verifier must
    # reproduce every row serially and in the pool, on a torsional complex
    x = corpus["rp2"]
    z = integral_cycle_basis(x, 1)
    ctx = CycleWeightContext(x, 1, z)
    oracle = {z.rank: (1, 0)}
    for k in range(z.rank):
        weights = [cycle_weight(x, 1, cert.subset, z, ctx).weight
                   for cert in enumerate_forests(x, 1, "k_augmented", k)]
        oracle[k] = (sum(weights), len(weights))
    serial = verify_theorem1(x, 1, z, processes=1)
    entered = force_pool(monkeypatch)
    pooled = verify_theorem1(x, 1, z, processes=2)
    assert entered
    for report in (serial, pooled):
        assert report.passed
        assert {r["k"]: (r["rhs"], r["certificates"]) for r in report.rows} == oracle


def test_theorem1_rejects_doubled_cycle_column(corpus, monkeypatch):
    # Cauchy-Binet balances the rows for any matrix, so only the leaf check
    # sees that a doubled column spans a non-saturated lattice
    x = corpus["k4"]
    data = [row[:] for row in integral_cycle_basis(x, 1).basis.data]
    for row in data:
        row[0] *= 2
    bad = LatticeBasis(1, IntMatrix.from_rows(data), "cycles")
    entered = force_pool(monkeypatch)
    for processes in (1, 2):
        try:
            report = verify_theorem1(x, 1, bad, processes=processes)
        except AssertionError:
            continue
        assert not report.passed
    assert entered


def test_theorem1_rejects_doubled_torsion_ratio(corpus, monkeypatch):
    # every ratio t(X_W)/t(X) doubles; only the cokernel order the engine
    # carries can tell
    double_torsion(monkeypatch)
    entered = force_pool(monkeypatch)
    for processes in (1, 2):
        with pytest.raises(AssertionError, match="cokernel order"):
            verify_theorem1(corpus["rp2"], 1, processes=processes)
    assert entered


def test_theorem2_rejects_doubled_v_order(corpus, monkeypatch):
    # a wrong memoized v(V,X) breaks the relative-order form at the first
    # leaf, serially and in the pool
    double_v_order(monkeypatch)
    entered = force_pool(monkeypatch)
    for processes in (1, 2):
        with pytest.raises(AssertionError, match="boundary weight mismatch"):
            verify_theorem2(corpus["rp2"], 1, processes=processes)
    assert entered


def test_theorem2_leaf_path_matches_public_boundary_weight(corpus, monkeypatch):
    # the leaf check feeds boundary_weight the engine's Gram determinant;
    # on every k-reduced coforest it must give the weight and parts of the
    # public route, which validates and takes its own Gram determinant
    import cellmesh.spectra as spectra
    fed = {}

    def recorded(*args, **kwargs):
        cert = boundary_weight(*args, **kwargs)
        fed[cert.subset] = cert
        return cert
    monkeypatch.setattr(spectra, "boundary_weight", recorded)
    for name, d in (("moore_z2", 1), ("delta3", 1), ("delta3", 2), ("k4", 1)):
        x = corpus[name]
        basis = integral_boundary_basis(x, d)
        fed.clear()
        assert verify_theorem2(x, d, basis, processes=1).passed
        coforests = {cert.subset for k in range(basis.rank)
                     for cert in enumerate_forests(x, d, "k_reduced_coforest", k)}
        assert set(fed) == coforests, (name, d)
        for subset, cert in fed.items():
            public = boundary_weight(x, d, subset, basis)
            assert (cert.weight, cert.weight_parts) == (public.weight, public.weight_parts)


def test_pool_failure_falls_back_to_serial(corpus, monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise OSError("cannot start workers")
    x = corpus["rp2"]
    serial = verify_kirchhoff_lyons(x, 2, processes=1)
    entered = force_pool(monkeypatch)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    fallback = verify_kirchhoff_lyons(x, 2, processes=2)
    assert entered and fallback.rows == serial.rows


def test_independent_subsets_oracle(rng):
    # every independent subset with its Gram determinant and cokernel
    # order, against brute force over all subsets; square ones also
    # against det_bareiss squared
    for _ in range(100):
        n = rng.randint(1, 7)
        m = rng.randint(1, min(4, n))
        vecs = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(n)]
        got = list(independent_subsets(vecs))
        assert [item[0] for item in got] == sorted(item[0] for item in got)
        found = {idx: (gram, cok) for idx, gram, cok in got}
        for size in range(1, n + 1):
            for idx in combinations(range(n), size):
                rows = [list(vecs[i]) for i in idx]
                g = gram_det(IntMatrix.from_rows(rows).transpose()) if size <= m else 0
                assert found.get(idx, (0, None))[0] == g, (vecs, idx)
                if g:
                    assert found[idx][1] == invariant_factor_product(
                        [row[:] for row in rows]), (vecs, idx)
                if size == m:
                    assert g == det_bareiss(rows) ** 2
        cap = rng.randint(0, m)
        assert list(independent_subsets(vecs, cap)) == [
            item for item in got if len(item[0]) <= cap]
        # the runs split by smallest index, as the pool runs them
        assert [item for i in range(n)
                for item in independent_subsets(vecs, first=i)] == got
        assert [item for i in range(n)
                for item in independent_subsets(vecs, cap, i)] == [
            item for item in got if len(item[0]) <= cap]
    # gcds > 1 at every depth: maximal minors (6, 6, -12), det -12, ...
    assert [cok for _, _, cok in independent_subsets([(2, 0, 4), (0, 3, 3), (1, 1, 1)])] == [
        2, 6, 12, 2, 3, 3, 1]


def test_independent_subsets_rank_routes_must_agree(monkeypatch):
    # a Gram push that drops one independent candidate leaves its Hermite
    # tail nonzero, and the engine refuses to go on
    import cellmesh.spectra as spectra
    push = spectra.gram_state_push
    dropped = []

    def drop_once(state, vec, start=0):
        item = push(state, vec, start)
        if start and item is not None and not dropped:
            dropped.append(vec)
            return None
        return item
    monkeypatch.setattr(spectra, "gram_state_push", drop_once)
    with pytest.raises(AssertionError, match="rank routes disagree"):
        list(independent_subsets([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    assert dropped


def test_report_serialization_strings(corpus):
    report = verify_theorem1(corpus["k4"], 1)
    doc = report.to_json_dict(deterministic=True)
    assert doc["elapsed_ms"] is None
    assert doc["rows"][0]["lhs"] == "1"
    assert all(isinstance(r["lhs"], str) for r in doc["rows"])


def test_gram_state_push_rejects_dependent():
    state = []
    item = gram_state_push(state, (1, 2))
    state.append(item)
    assert gram_state_push(state, (2, 4)) is None
    # from start on, a push continues one reduced against state[:start]
    # and agrees with a full push
    for vec in ((3, 1, 4), (1, 5, 9), (2, 6, 5)):
        state = [gram_state_push([], (1, 1, 0))]
        state.append(gram_state_push(state, (0, 2, 1)))
        full = gram_state_push(state, vec)
        part = gram_state_push(state[:1], vec)
        assert gram_state_push(state, part[0], start=1) == full
        assert gram_state_push(state, vec, start=0) == full
    state = [gram_state_push([], (1, 0, 0))]
    state.append(gram_state_push(state, (1, 1, 0)))
    part = gram_state_push(state[:1], (0, 1, 0))
    assert gram_state_push(state, part[0], start=1) is None
