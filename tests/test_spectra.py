"""Mesh matrices, Laplacians, and the theorem verifiers on the corpus."""

import os
import random
from fractions import Fraction
from itertools import combinations
from operator import mul

import pytest

from cellmesh.cli import run
from cellmesh.complexes import (CellSubset, ComplexFormatError, boundary_matrix, load_complex,
                                simplex_id)
from cellmesh.corpus import RP2_FACES
from cellmesh.forests import (BoundaryWeightContext, CycleWeightContext, boundary_weight,
                              cycle_weight, enumerate_forests)
from cellmesh.homology import (LatticeBasis, integral_boundary_basis,
                               integral_cycle_basis)
from cellmesh.intmat import (IntMatrix, char_poly, char_poly_rational,
                             det_bareiss, gram_det, gram_det_of, invariant_factor_product,
                             principal_minor_sum, rank)
from cellmesh.kalai import verify_kalai
from cellmesh.spectra import (combinatorial_laplacian, geometric_boundary_basis,
                              geometric_cycle_basis, gram_state_push,
                              greedy_spanning_forest, independent_subsets,
                              mesh_matrix_boundaries, mesh_matrix_cycles,
                              verify_geometric_theorems, verify_kirchhoff_lyons,
                              verify_theorem1, verify_theorem2,
                              weighted_laplacian)
from cellmesh.torsion import verify_rf_identity
from conftest import (dependent_twin, double_coforest_cok, double_engine_cok,
                      double_one_gram_push, double_t_x, double_torsion, double_v0_torsion,
                      double_v_order, force_pool, kernel_weight_oracle, lose_one_coforest,
                      perturb_reduced_table, random_unimodular, scale_unit_row,
                      torsion_subcomplex, triple_interface_tail, u_dependent_cycle_rhs)
from test_random_complexes import random_bouquet

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
        wl = weighted_laplacian(x, d, {})
        assert wl.matrix.data == [[Fraction(v) for v in row]
                                  for row in lap.matrix.data]


def test_weighted_laplacian_single_edge(corpus):
    a = Fraction(7, 3)
    wl = weighted_laplacian(corpus["p2"], 1, {"e": a})
    assert char_poly_rational(wl.matrix) == [Fraction(0), -2 * a, Fraction(1)]


def test_weighted_laplacian_rejects_nonpositive(corpus):
    for w in (0, Fraction(-1, 2)):
        with pytest.raises(ComplexFormatError, match="strictly positive"):
            weighted_laplacian(corpus["p2"], 1, {"e": w})


def test_weighted_laplacian_sigma_nonnegative(corpus):
    w = {"e12": Fraction(2), "e23": Fraction(1, 3)}
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
    # with a torsion-free V0 the two closed forms coincide; choosing an
    # embedded projective-plane triangulation as V0 separates them: the
    # cycles rows, whose denominator is the fixed t(X_V0), match the Gram
    # coefficients, and the U-dependent denominator (u_dependent_cycle_rhs)
    # does not.  rp2 plus the triangle 1.2.5 has one spanning forest with
    # torsion (rp2) and shows both; delta5skel2 at d=2 shows the split
    rp2_faces = [simplex_id(f) for f in RP2_FACES]
    rp2_plus = load_complex(os.path.join(os.path.dirname(__file__), "data",
                                         "rp2_plus_face.json"))
    d5 = corpus["delta5skel2"]
    for x, v0, torsional in ((rp2_plus, greedy_spanning_forest(rp2_plus, 2), False),
                             (rp2_plus, CellSubset(2, rp2_faces), True),
                             (d5, CellSubset(2, rp2_faces), True)):
        report = verify_geometric_theorems(x, 2, v0)
        assert report.passed, [r for r in report.rows if not r["pass"]]
        lhs = [row["lhs"] for row in report.rows if row["side"] == "cycles"]
        assert len(lhs) == integral_cycle_basis(x, 2).basis.cols + 1
        assert (lhs != u_dependent_cycle_rhs(x, 2, v0)) == torsional, (x.name, v0.members)


def test_geometric_default_v0_includes_torsion_weight(corpus):
    # with the torsion-free greedy V0 on the 2-skeleton of the 5-simplex the
    # determinant row sums squared torsion ratios, some of which exceed 1
    d5 = corpus["delta5skel2"]
    z5 = integral_cycle_basis(d5, 2)
    ctx = CycleWeightContext(d5, 2, z5)
    rp2_pos = d5.positions(2, [simplex_id(f) for f in RP2_FACES])
    assert ctx.torsion(rp2_pos) == torsion_subcomplex(ctx, rp2_pos) == 2


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


def test_verifier_process_count_determinism(corpus, monkeypatch):
    # delegating to worker processes must not change any reported value
    x = corpus["rp2"]
    entered = force_pool(monkeypatch)
    serial = [verify_theorem1(x, 1, processes=1),
              verify_kirchhoff_lyons(x, 2, processes=1),
              verify_theorem2(x, 1, processes=1),
              verify_geometric_theorems(x, 1, processes=1)]
    assert entered == []
    pooled = [verify_theorem1(x, 1, processes=2),
              verify_kirchhoff_lyons(x, 2, processes=2),
              verify_theorem2(x, 1, processes=2),
              verify_geometric_theorems(x, 1, processes=2)]
    # one task per first row / column; geometric pools its cycle side (15
    # edges) and its collapsed boundary side (the 10 triangles of V1)
    assert entered == [15, 10, 15, 15, 10]
    for one, many in zip(serial, pooled):
        assert one.passed and one.rows == many.rows
        assert one.to_json_dict() == many.to_json_dict()  # the stats too


def test_geometric_rejects_doubled_torsion_in_the_pool(corpus, monkeypatch):
    # geometric's cycle side runs trent's leaf check on the pooled fold: a
    # doubled t0 must fail inside the workers, whose traceback the pool
    # attaches as the cause
    double_torsion(monkeypatch)
    entered = force_pool(monkeypatch)
    with pytest.raises(AssertionError, match="cokernel order") as info:
        verify_geometric_theorems(corpus["rp2"], 1, processes=2)
    assert entered == [15]
    assert type(info.value.__cause__).__name__ == "_RemoteTraceback"


def test_geometric_rejects_a_doubled_v0_torsion(corpus, monkeypatch, capsys):
    # CycleWeightContext.torsion gives geometric only its denominator
    # t(X_V0): doubled there, every cycles row must fail while the leaves
    # and the boundaries rows pass, serially, in the pool and on the CLI
    double_v0_torsion(monkeypatch)
    entered = force_pool(monkeypatch)
    for processes in (1, 2):
        report = verify_geometric_theorems(corpus["rp2"], 1, processes=processes)
        sides = {(row["side"], row["pass"]) for row in report.rows}
        assert sides == {("cycles", False), ("boundaries", True)}, processes
        assert bool(entered) == (processes > 1)
    monkeypatch.setenv("CELLMESH_PROCESSES", "1")
    rp2 = os.path.join(os.path.dirname(__file__), "..", "corpus", "rp2.json")
    code = run(["verify", rp2, "--theorem", "geometric", "--dim", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "verification failed: geometric d=1: row side=cycles k=0 lhs != rhs\n"


def test_pair_leaf_process_count_determinism(corpus, monkeypatch):
    # the pair leaf of Kirchhoff and geometric's boundary side runs on the
    # pooled fold: every row and the path must match between 1 and 2 workers
    entered = force_pool(monkeypatch)
    for name in ("k4", "rp2", "delta3"):
        for verify in (verify_kirchhoff_lyons, verify_geometric_theorems):
            one = verify(corpus[name], 1, processes=1)
            assert entered == []
            many = verify(corpus[name], 1, processes=2)
            assert one.passed and one.rows == many.rows
            assert one.stats == many.stats, (name, verify.__name__)
            assert entered, (name, verify.__name__)
            entered.clear()


def test_pair_leaf_rejects_wrong_pair_weight_in_the_pool(corpus, monkeypatch):
    # a pair's cokernel order doubled on the inner coforest walk, with its
    # Gram determinant left alone, must fail at the first pair, serially and
    # inside the workers
    double_coforest_cok(monkeypatch)
    entered = force_pool(monkeypatch)
    for name, verify in (("k4", verify_kirchhoff_lyons), ("delta3", verify_geometric_theorems)):
        for processes in (1, 2):
            with pytest.raises(AssertionError, match="pair weight mismatch") as info:
                verify(corpus[name], 1, processes=processes)
            assert (processes > 1) == (type(info.value.__cause__).__name__
                                       == "_RemoteTraceback")
    assert entered


def test_verifiers_reject_one_doubled_gram_push(corpus, monkeypatch):
    # one subset's Gram determinant doubled where the engine contracts it:
    # the pair leaf sees it against the pair's cokernel order, the
    # collapsed fold (_forest_leaf) and trent in their sums, serially and inside
    # the workers; the patch doubles once per process, so it is renewed
    # for every run
    import cellmesh.spectra as spectra
    for verify, threshold, message in ((verify_kirchhoff_lyons, None, "pair weight mismatch"),
                                       (verify_kirchhoff_lyons, 0, None),
                                       (verify_theorem1, None, None)):
        for processes in (1, 2):
            double_one_gram_push(monkeypatch)
            entered = force_pool(monkeypatch)
            if threshold is not None:
                monkeypatch.setattr(spectra, "_PAIR_THRESHOLD", threshold)
            if message is None:
                report = verify(corpus["k4"], 1, processes=processes)
                assert not report.passed, (verify.__name__, threshold, processes)
            else:
                with pytest.raises(AssertionError, match=message):
                    verify(corpus["k4"], 1, processes=processes)
            assert bool(entered) == (processes > 1)
            monkeypatch.undo()


def test_pair_leaf_rejects_a_lost_coforest(corpus, monkeypatch):
    # an inner coforest walk that skips one coforest passes every pair check,
    # so only the Cauchy-Binet sum against the forest's Gram determinant can
    # see it, serially and in the pool
    lose_one_coforest(monkeypatch)
    entered = force_pool(monkeypatch)
    for name, verify in (("k4", verify_kirchhoff_lyons), ("rp2", verify_kirchhoff_lyons),
                         ("delta3", verify_geometric_theorems)):
        for processes in (1, 2):
            with pytest.raises(AssertionError, match="Cauchy-Binet: pair sum") as info:
                verify(corpus[name], 1, processes=processes)
            assert (processes > 1) == (type(info.value.__cause__).__name__
                                       == "_RemoteTraceback")
    assert entered


def test_pair_sums_collapse_only_above_the_pair_threshold(corpus, monkeypatch):
    # Kirchhoff and geometric's boundary side choose between the pair path
    # and the Cauchy-Binet collapse by one estimate, sum_m C(#columns, m) *
    # C(#rows, m) > _PAIR_THRESHOLD; pin the corpus cases that collapse.
    # The enumeration is stubbed out: only stats.path, which names the
    # path, is read, and the full runs are pinned by criterion 6 and the CLI
    # record
    import cellmesh.spectra as spectra
    monkeypatch.setattr(spectra, "independent_subset_gram_sums", lambda *args, **kw: {})
    collapsed = {"kirchhoff": [], "geometric": []}
    for name, x in sorted(corpus.items()):
        for d in range(1, x.dimension + 1):
            for theorem, verify in (("kirchhoff", verify_kirchhoff_lyons),
                                    ("geometric", verify_geometric_theorems)):
                path = verify(x, d, processes=1).stats["path"]
                assert path in ("pairs", "collapsed")
                if path == "collapsed":
                    collapsed[theorem].append((name, d))
    assert collapsed == {"kirchhoff": [("delta5skel2", 2), ("rp2", 2)],
                         "geometric": [("delta5skel2", 1), ("rp2", 1)]}


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


def test_theorem1_rejects_wrong_t_x(corpus, monkeypatch):
    # with t(X) doubled no torsion ratio is right: the leaf check must fail,
    # serially and in the pool
    double_t_x(monkeypatch)
    entered = force_pool(monkeypatch)
    for name in ("k4", "rp2"):
        for processes in (1, 2):
            try:
                report = verify_theorem1(corpus[name], 1, processes=processes)
            except AssertionError:
                continue
            assert not report.passed, (name, processes)
    assert entered


def test_theorem1_rejects_perturbed_reduced_table(corpus, monkeypatch):
    # one wrong entry of the reduced boundary table changes the column
    # matroid of trent's twin rows (built from the table when the verifier
    # starts), so the twin rank route disagrees at a push before any leaf
    # shows a wrong torsion ratio
    perturb_reduced_table(monkeypatch)
    entered = force_pool(monkeypatch)
    for processes in (1, 2):
        with pytest.raises(AssertionError, match="rank routes disagree on the twin"):
            verify_theorem1(corpus["rp2"], 1, processes=processes)
    assert entered


def test_theorem1_rejects_broken_twins(corpus, monkeypatch):
    # a unit row of the reduced table with its off-pivot entries tripled
    # keeps the twins' matroid, so only t(X_W) changes and the engine's
    # cokernel order must disagree; a twin row made dependent must make the
    # twin rank route disagree with the Gram and tail routes; both serially
    # and in the pool
    for patch, message in ((scale_unit_row, "cokernel order"),
                           (dependent_twin, "rank routes disagree on the twin")):
        patch(monkeypatch)
        entered = force_pool(monkeypatch)
        for processes in (1, 2):
            with pytest.raises(AssertionError, match=message):
                verify_theorem1(corpus["rp2"], 1, processes=processes)
        assert entered
        monkeypatch.undo()


def test_theorem2_rejects_doubled_v_order(corpus, monkeypatch):
    # a wrong memoized v(V,X) breaks the relative-order form at the first
    # leaf, serially and in the pool
    double_v_order(monkeypatch)
    entered = force_pool(monkeypatch)
    for processes in (1, 2):
        with pytest.raises(AssertionError, match="boundary weight mismatch"):
            verify_theorem2(corpus["rp2"], 1, processes=processes)
    assert entered


def test_theorem2_rejects_cok_or_u_scaled_on_one_route(corpus, monkeypatch):
    # the engine's cokernel order scaled, with the tails left alone, breaks
    # the check of the tails' cokernel order; one interface tail scaled,
    # with the cokernel order and v(V,X) left alone, breaks cok * u = v;
    # both at the first leaf, serially and in the pool
    for patch in (double_engine_cok, triple_interface_tail):
        patch(monkeypatch)
        entered = force_pool(monkeypatch)
        for processes in (1, 2):
            with pytest.raises(AssertionError, match="boundary weight mismatch"):
                verify_theorem2(corpus["rp2"], 1, processes=processes)
        assert entered
        monkeypatch.undo()


def test_theorem2_pool_rows_match_serial(corpus, monkeypatch):
    # split by smallest index over the pool, each run starts with the rows
    # before its first index as riders of the engine; its coforests' frames
    # must give the serial report rows, on rp2 and on a seeded bouquet
    # whose boundary basis has entries other than 0, 1 and -1
    bouquet = random_bouquet(random.Random(44), 6, 4)
    assert any(abs(a) > 1 for row in integral_boundary_basis(bouquet, 1).basis.data
               for a in row)
    for x in (corpus["rp2"], bouquet):
        serial = verify_theorem2(x, 1, processes=1)
        entered = force_pool(monkeypatch)
        pooled = verify_theorem2(x, 1, processes=2)
        assert entered and serial.passed
        assert pooled.rows == serial.rows, x.name
        monkeypatch.undo()


def test_theorem2_leaf_path_matches_public_boundary_weight(corpus, monkeypatch):
    # the leaf check feeds BoundaryWeightContext.weigh the engine's sorted
    # row positions, Gram determinant, cokernel order and frame; on every
    # k-reduced coforest it must give the weight and parts of the public
    # route, which validates the cell ids and takes its own Gram
    # determinant, Smith product and push, and the parts of the kernel
    # oracle
    weigh = BoundaryWeightContext.weigh
    fed = {}

    def recorded(ctx, positions, gram, cok, frame):
        u, v, gram_factor = weigh(ctx, positions, gram, cok, frame)
        parts = {"u": u, "v": v, "f": Fraction(u, v), "gram_factor": gram_factor}
        fed[tuple(positions)] = (gram, parts, kernel_weight_oracle(ctx, positions))
        return u, v, gram_factor
    monkeypatch.setattr(BoundaryWeightContext, "weigh", recorded)
    for name, d in (("moore_z2", 1), ("delta3", 1), ("delta3", 2), ("k4", 1)):
        x = corpus[name]
        basis = integral_boundary_basis(x, d)
        ids = x.cell_ids(d)
        fed.clear()
        assert verify_theorem2(x, d, basis, processes=1).passed
        leaves = {CellSubset(d, [ids[p] for p in pos]): got for pos, got in fed.items()}
        coforests = {cert.subset for k in range(basis.rank)
                     for cert in enumerate_forests(x, d, "k_reduced_coforest", k)}
        assert set(leaves) == coforests, (name, d)
        for subset, (gram, parts, oracle) in leaves.items():
            assert parts == oracle, (name, d, sorted(subset.members))
            public = boundary_weight(x, d, subset, basis)
            assert (gram, parts) == (public.weight, public.weight_parts)


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


def test_independent_subsets_oracle(rng, monkeypatch):
    # every independent subset with its Gram determinant and cokernel
    # order, against brute force over all subsets; square ones also
    # against det_bareiss squared; with twins, the twin cokernel order
    mixer = random.Random(5)  # its own stream: rng draws the same vectors
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
        # a lower bound on the size: the same items, in the same order, with
        # the empty subset first at min_size 0 (and not in the split runs)
        for low in range(cap + 2):
            kept = [item for item in got if low <= len(item[0]) <= cap]
            assert list(independent_subsets(vecs, cap, min_size=low)) == \
                [((), 1, 1)] * (low == 0) + kept, (vecs, cap, low)
            assert [item for i in range(n)
                    for item in independent_subsets(vecs, cap, i, min_size=low)] == kept
        # twins = the vectors times a nonsingular matrix have the same
        # matroid: the same items, plus the invariant-factor product of the
        # chosen twin rows, also split by smallest index
        while True:
            mix = [[mixer.randint(-2, 2) for _ in range(m)] for _ in range(m)]
            if det_bareiss([row[:] for row in mix]):
                break
        twins = [[sum(v[i] * mix[i][j] for i in range(m)) for j in range(m)]
                 for v in vecs]
        twinned = list(independent_subsets(vecs, twins=twins))
        assert [item[:3] for item in twinned] == got
        for idx, _, _, twin_cok in twinned:
            assert twin_cok == invariant_factor_product(
                [twins[i][:] for i in idx]), (vecs, mix, idx)
        assert [item for i in range(n)
                for item in independent_subsets(vecs, first=i, twins=twins)] == twinned
        for low in range(m + 2):
            assert list(independent_subsets(vecs, twins=twins, min_size=low)) == \
                [((), 1, 1, 1)] * (low == 0) + [
                    item for item in twinned if len(item[0]) >= low], (vecs, mix, low)
    # gcds > 1 at every depth: maximal minors (6, 6, -12), det -12, ...
    assert [cok for _, _, cok in independent_subsets([(2, 0, 4), (0, 3, 3), (1, 1, 1)])] == [
        2, 6, 12, 2, 3, 3, 1]
    # vectors longer than their rank, seeded combinations of fewer
    # generators with entries up to 10^3, at cap = rank: the tails start in
    # Hermite-reduced coordinates, where non-unit pivots and _xgcd steps
    # run; the same brute force, with and without twins, split by smallest
    # index and by min_size
    import cellmesh.spectra as spectra
    seen = {"reduced": 0, "xgcd": 0}
    reduce, pivot_ops = spectra._column_hermite_reduce, spectra._pivot_ops

    def counted_reduce(cols, nrows):
        seen["reduced"] += 1
        return reduce(cols, nrows)

    def counted_ops(tail):
        p, ops = pivot_ops(tail)
        seen["xgcd"] += sum(1 for op in ops if op[2])  # y != 0: an _xgcd step
        return p, ops
    monkeypatch.setattr(spectra, "_column_hermite_reduce", counted_reduce)
    monkeypatch.setattr(spectra, "_pivot_ops", counted_ops)
    gen = random.Random(25)
    reduced_xgcd = 0
    for _ in range(40):
        r = gen.randint(2, 4)
        length = r + gen.randint(1, 3)
        gens = [[gen.randint(-160, 160) for _ in range(length)] for _ in range(r)]
        n = gen.randint(3, 7)
        coefs = [[gen.randint(-2, 2) for _ in range(r)] for _ in range(n)]
        vecs = [tuple(sum(c * g[i] for c, g in zip(coef, gens)) for i in range(length))
                for coef in coefs]
        cap = rank(IntMatrix.from_rows([list(v) for v in vecs]))
        want = []
        for size in range(1, cap + 1):
            for idx in combinations(range(n), size):
                g = gram_det_of([vecs[i] for i in idx])
                if g:
                    want.append((idx, g, invariant_factor_product([list(vecs[i]) for i in idx])))
        before = seen["xgcd"]
        got = list(independent_subsets(vecs, cap))
        reduced_xgcd += seen["xgcd"] - before
        assert got == sorted(want), (vecs, cap)
        assert [item for i in range(n) for item in independent_subsets(vecs, cap, i)] == got
        for low in range(cap + 2):
            kept = [item for item in got if len(item[0]) >= low]
            assert list(independent_subsets(vecs, cap, min_size=low)) == \
                [((), 1, 1)] * (low == 0) + kept, (vecs, cap, low)
            assert [item for i in range(n)
                    for item in independent_subsets(vecs, cap, i, min_size=low)] == kept
        while True:
            mix = [[gen.randint(-2, 2) for _ in range(length)] for _ in range(length)]
            if det_bareiss([row[:] for row in mix]):
                break
        twins = [[sum(v[i] * mix[i][j] for i in range(length)) for j in range(length)]
                 for v in vecs]
        twinned = list(independent_subsets(vecs, cap, twins=twins))
        assert [item[:3] for item in twinned] == got
        for idx, _, _, twin_cok in twinned:
            assert twin_cok == invariant_factor_product(
                [twins[i][:] for i in idx]), (vecs, mix, idx)
        assert [item for i in range(n)
                for item in independent_subsets(vecs, cap, i, twins)] == twinned
        for low in range(cap + 2):
            assert [item for i in range(n)
                    for item in independent_subsets(vecs, cap, i, twins, low)] == [
                item for item in twinned if len(item[0]) >= low], (vecs, mix, low)
    assert seen["reduced"] and reduced_xgcd


def test_independent_subsets_rank_routes_must_agree(monkeypatch):
    # a Gram push that drops one independent candidate leaves its Hermite
    # tail nonzero, and the engine refuses to go on
    import cellmesh.spectra as spectra
    push = spectra.gram_state_push
    dropped = []

    def drop_once(gram, pivot, t, row, later):
        item = push(gram, pivot, t, row, later)
        if item is not None and not dropped:
            dropped.append(row)
            return None
        return item
    monkeypatch.setattr(spectra, "gram_state_push", drop_once)
    with pytest.raises(AssertionError, match="rank routes disagree"):
        list(independent_subsets([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    assert dropped


def test_kirchhoff_rejects_a_dropped_reduced_coordinate(corpus, monkeypatch):
    # the collapsed fold (kirchhoff on delta5skel2 d=2: columns of 15
    # entries, rank 10) starts its tails in Hermite-reduced coordinates; a
    # reduction that drops one nonzero coordinate leaves the tails one rank
    # short, and the Gram route, from the original dot products, must
    # disagree with them, serially and in the pool
    import cellmesh.spectra as spectra
    reduce = spectra._column_hermite_reduce
    monkeypatch.setattr(spectra, "_column_hermite_reduce",
                        lambda cols, nrows: reduce(cols, nrows) - 1)
    entered = force_pool(monkeypatch)
    for processes in (1, 2):
        with pytest.raises(AssertionError, match="rank routes disagree"):
            verify_kirchhoff_lyons(corpus["delta5skel2"], 2, processes=processes)
    assert entered


def test_report_serialization_strings(corpus):
    # one encoder for every report: under k, dim, certificates, side and
    # pass the values stay raw, and every other number is a decimal string;
    # the report itself keeps the raw ints and Fractions
    def check(value, key=None):
        if isinstance(value, dict):
            for k, v in value.items():
                check(v, k)
        elif isinstance(value, list):
            for v in value:
                check(v, key)
        elif key in ("k", "dim", "certificates", "side", "pass"):
            assert not isinstance(value, str), (key, value)
        else:
            assert value is None or isinstance(value, str), (key, value)

    trent = verify_theorem1(corpus["k4"], 1)
    rf = verify_rf_identity(corpus["rp2"])
    kalai = verify_kalai(4, 1, "mesh", [Fraction(1, 2), 3, Fraction(2, 3), 5])
    for report in (trent, rf, kalai):
        doc = report.to_json_dict()
        check(doc)
        assert doc["elapsed_ms"] is None
    assert trent.to_json_dict()["rows"][0]["lhs"] == "1" and trent.rows[0]["lhs"] == 1
    assert list(rf.to_json_dict()) == ["complex", "factors", "lhs", "rhs", "skeleta",
                                       "pass", "elapsed_ms"]
    assert rf.to_json_dict()["lhs"] == "1/4"
    assert rf.lhs == rf.rhs == Fraction(1, 4) and isinstance(rf.lhs, Fraction)
    assert list(kalai.to_json_dict()) == ["theorem", "dim", "rows", "pass", "elapsed_ms"]
    assert list(trent.to_json_dict()) == ["theorem", "dim", "rows", "pass", "elapsed_ms"]
    det = next(row for row in kalai.rows if row["check"] == "determinant")
    assert isinstance(det["lhs"], Fraction) and det["lhs"] == det["rhs"]
    assert isinstance(kalai.rows[0]["lhs"], int)


def test_gram_state_push_rejects_dependent():
    # Gram rows of (1, 2), (2, 4) and (0, 1), each against the later ones:
    # pivoting on (1, 2) makes (2, 4) dependent, and (0, 1) keeps
    # Gram((1, 2), (0, 1)) = 1
    pivot = [5, 10, 2]
    assert gram_state_push(1, pivot, 2, [1], []) == [1]
    assert gram_state_push(1, pivot, 1, [20, 4], [2]) is None
    # (1, 1, 0), (0, 2, 1), (1, 0, 1): a kept candidate's row goes on with
    # its entry against the later kept one, det [[2, 1], [2, 1]] = 0, and a
    # second step gives the Gram determinant of all three
    pivot = [2, 2, 1]
    last = gram_state_push(1, pivot, 2, [2], [])
    assert last == [3]
    assert gram_state_push(1, pivot, 1, [5, 1], [2]) == [6, 0]
    assert gram_state_push(2, [6, 0], 1, last, []) == [9] == [gram_det_of(
        [(1, 1, 0), (0, 2, 1), (1, 0, 1)])]


def test_gram_state_push_chains_match_gram_det_oracle():
    # seeded integer vectors with entries up to 10^6, some of them zero or
    # integer combinations of others: along random chains of pivots, every
    # contracted row holds the Gram determinant of the prefix plus its
    # candidate (gram_det_of) and, against each later kept candidate, the
    # determinant of the mixed Gram matrix (Sylvester's identity); a push
    # returns None exactly where the Gram determinant is 0
    rng = random.Random(2468)
    big = 10 ** 6
    dependent = crossed = 0
    for _ in range(150):
        m = rng.randint(1, 5)
        vecs = [[rng.randint(-big, big) for _ in range(m)] for _ in range(rng.randint(1, 8))]
        for k in range(len(vecs)):
            roll = rng.random()
            if roll < 0.1:
                vecs[k] = [0] * m
            elif roll < 0.3 and k >= 2:
                a, b = rng.sample(range(k), 2)
                x, y = rng.randint(-3, 3), rng.randint(-3, 3)
                vecs[k] = [x * p + y * q for p, q in zip(vecs[a], vecs[b])]
        frame = [(v, [sum(map(mul, v, w)) for w in vecs[i:] if any(w)])
                 for i, v in enumerate(vecs) if any(v)]
        prefix, gram = [], 1
        while frame:
            pos = rng.randrange(len(frame))
            (pv, pivot), rest = frame[pos], frame[pos + 1:]
            chain = prefix + [pv]
            kept, later = [], []
            for t in range(len(rest), 0, -1):
                v, row = rest[t - 1]
                out = gram_state_push(gram, pivot, t, row, later)
                g = gram_det_of(chain + [v])
                if not g:
                    dependent += 1
                    assert out is None, (vecs, chain, v)
                    continue
                assert out[0] == g and len(out) == 1 + len(kept), (vecs, chain, v)
                for (w, _), entry in zip(kept, out[1:]):
                    mixed = [[sum(map(mul, a, b)) for b in chain + [w]] for a in chain + [v]]
                    assert entry == det_bareiss(mixed), (vecs, chain, v, w)
                    crossed += 1
                kept.insert(0, (v, out))
                later.append(t)
            frame, prefix, gram = kept, chain, pivot[0]
    assert dependent > 40 and crossed > 150, (dependent, crossed)
