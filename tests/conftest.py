import random

import pytest

from cellmesh.corpus import all_complexes


@pytest.fixture(scope="session")
def corpus():
    return all_complexes()


@pytest.fixture()
def rng():
    return random.Random(20240817)


def random_int_matrix(rng, rows, cols, lo=-5, hi=5):
    from cellmesh.intmat import IntMatrix
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def random_unimodular(rng, n, steps=12):
    """Product of elementary shears, swaps and sign flips: det = +-1."""
    from cellmesh.intmat import IntMatrix
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            q = rng.choice([-2, -1, 1, 2])
            for col in range(n):
                m[i][col] += q * m[j][col]
        elif kind == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-v for v in m[i]]
    return IntMatrix.from_rows(m)


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


def double_one_gram_push(monkeypatch):
    """Make spectra.gram_state_push, once in each process, return twice the
    Gram determinant of a candidate that is the only one after its pivot.
    Its contracted frame holds it alone, so its row is yielded and never
    contracted again: one subset's Gram determinant doubles and every other
    value stays exact.  Workers forked after a serial run double one of
    their own."""
    import os

    import cellmesh.spectra as spectra
    push = spectra.gram_state_push
    done = set()

    def doubled(gram, pivot, t, row, later):
        out = push(gram, pivot, t, row, later)
        if out is not None and len(pivot) == 2 and os.getpid() not in done:
            done.add(os.getpid())
            out[0] *= 2
        return out
    monkeypatch.setattr(spectra, "gram_state_push", doubled)


def double_torsion(monkeypatch):
    """Make CycleWeightContext.twin_table return twice t0, after its check
    against t(X), so that every t(X_W) = t0 * twin cokernel order doubles;
    t(X) is computed without it, so every torsion ratio doubles."""
    from cellmesh.forests import CycleWeightContext
    twin_table = CycleWeightContext.twin_table

    def doubled(ctx):
        twins, t0 = twin_table(ctx)
        return twins, 2 * t0
    monkeypatch.setattr(CycleWeightContext, "twin_table", doubled)


def double_v0_torsion(monkeypatch):
    """Make CycleWeightContext.torsion return twice its value: geometric's
    denominator t(X_V0) doubles, while the twin rows, and so every leaf's
    t(X_V), stay."""
    from cellmesh.forests import CycleWeightContext
    torsion = CycleWeightContext.torsion

    def doubled(ctx, positions):
        return 2 * torsion(ctx, positions)
    monkeypatch.setattr(CycleWeightContext, "torsion", doubled)


def double_t_x(monkeypatch):
    """Make CycleWeightContext carry twice t(X), as a wrong t(X) would; the
    reduced boundary table and every t(X_W) are left alone."""
    from cellmesh.forests import CycleWeightContext
    init = CycleWeightContext.__init__

    def doubled(ctx, *args):
        init(ctx, *args)
        ctx.t_x *= 2
    monkeypatch.setattr(CycleWeightContext, "__init__", doubled)


def perturb_reduced_table(monkeypatch):
    """Triple the first off-pivot nonzero entry of the first unit-pivot row
    of CycleWeightContext's reduced boundary table, after its construction
    check has passed; t(X) is left alone."""
    from cellmesh.forests import CycleWeightContext
    init = CycleWeightContext.__init__

    def perturbed(ctx, *args):
        init(ctx, *args)
        col, row = ctx.unit_rows[0]
        row[next(j for j, a in enumerate(row) if a and j != col)] *= 3
    monkeypatch.setattr(CycleWeightContext, "__init__", perturbed)


def dependent_twin(monkeypatch):
    """Make the last twin row of CycleWeightContext.twin_table a copy of the
    first, so the twins are dependent where the cycle rows are not."""
    from cellmesh.forests import CycleWeightContext
    twin_table = CycleWeightContext.twin_table

    def copied(ctx):
        twins, t0 = twin_table(ctx)
        twins[-1] = twins[0][:]
        return twins, t0
    monkeypatch.setattr(CycleWeightContext, "twin_table", copied)


def scale_unit_row(monkeypatch):
    """Triple every off-pivot entry of the first unit-pivot row of
    CycleWeightContext's reduced boundary table, after its construction
    check has passed: the table's column matroid is unchanged, t(X) too."""
    from cellmesh.forests import CycleWeightContext
    init = CycleWeightContext.__init__

    def scaled(ctx, *args):
        init(ctx, *args)
        col, row = ctx.unit_rows[0]
        row[:] = [a if j == col else 3 * a for j, a in enumerate(row)]
    monkeypatch.setattr(CycleWeightContext, "__init__", scaled)


def double_v_order(monkeypatch):
    """Make BoundaryWeightContext.v_order return twice v(V,X), as a memo
    holding a wrong value would; u and the kernel are left alone."""
    from cellmesh.forests import BoundaryWeightContext
    v_order = BoundaryWeightContext.v_order
    monkeypatch.setattr(BoundaryWeightContext, "v_order",
                        lambda ctx, v_positions: 2 * v_order(ctx, v_positions))


def double_engine_cok(monkeypatch):
    """Make BoundaryWeightContext.weigh see twice the cokernel order its
    caller hands it, as an engine with a wrong Hermite tail would give
    theorem 2's leaf; the context's own tails, u and v are left alone."""
    from cellmesh.forests import BoundaryWeightContext
    weigh = BoundaryWeightContext.weigh
    monkeypatch.setattr(BoundaryWeightContext, "weigh",
                        lambda ctx, positions, gram, cok: weigh(ctx, positions, gram, 2 * cok))


def triple_interface_tail(monkeypatch):
    """Make BoundaryWeightContext.tails return, in a copy, three times the
    first nonzero tail of a row outside W.  The first greedy pass always
    keeps that row, so u(W,V) triples while the interface, the cokernel
    order of the tails, B'' and v(V,X) stay; the path stack is untouched."""
    from cellmesh.forests import BoundaryWeightContext
    tails = BoundaryWeightContext.tails

    def tripled(ctx, positions):
        cok, rows = tails(ctx, positions)
        rows = list(rows)
        p = next((p for p in range(len(ctx.rows)) if p not in positions and any(rows[p])),
                 None)
        if p is not None:
            rows[p] = [3 * a for a in rows[p]]
        return cok, rows
    monkeypatch.setattr(BoundaryWeightContext, "tails", tripled)


def _patch_coforest_walks(monkeypatch, change):
    """Pass the subsets of every inner coforest walk of spectra._pair_leaf
    through change(found), a generator in and out.  The inner walks are the engine runs with min_size equal
    to max_size and no twins; the forest walks of Kirchhoff and geometric's
    boundary side start at size 1, and geometric's cycle side carries
    twins."""
    import cellmesh.spectra as spectra
    walk = spectra.independent_subsets

    def changed(vectors, max_size=None, first=None, twins=None, min_size=1):
        found = walk(vectors, max_size, first, twins, min_size)
        return change(found) if twins is None and min_size == max_size else found
    monkeypatch.setattr(spectra, "independent_subsets", changed)


def double_coforest_cok(monkeypatch):
    """Make every inner coforest walk of spectra._pair_leaf yield twice the
    cokernel order of each pair, as a wrong Hermite tail would; the Gram
    determinants are left alone."""
    _patch_coforest_walks(monkeypatch, lambda found: (
        (idx, gram, 2 * cok) for idx, gram, cok in found))


def lose_one_coforest(monkeypatch):
    """Make every inner coforest walk of spectra._pair_leaf skip its first
    coforest, as an engine that lost a subset would."""
    def lossy(found):
        next(found, None)
        return found
    _patch_coforest_walks(monkeypatch, lossy)


def double_lift_column(monkeypatch):
    """Double the first column of every homology_lift_basis, as a wrong lift
    would: the lattice it spans with the boundaries gets index 2t in the
    cycles where t is expected, wherever H_d has rank h > 0."""
    import cellmesh.homology as homology
    from cellmesh.intmat import IntMatrix
    lift = homology.homology_lift_basis

    def doubled(cycles, boundaries):
        m = lift(cycles, boundaries)
        return IntMatrix(m.rows, m.cols, [[2 * row[0]] + row[1:] if row else row
                                          for row in m.data])
    monkeypatch.setattr(homology, "homology_lift_basis", doubled)


def perturb_kalai_matrix(monkeypatch):
    """Move one entry of every Kalai matrix by 1/7, which breaks its
    annihilating polynomial."""
    from fractions import Fraction

    import cellmesh.kalai as kalai
    from cellmesh.intmat import RatMatrix
    build = kalai.build_kalai_matrix

    def perturbed(*args):
        m = build(*args)
        data = [row[:] for row in m.data]
        data[0][-1] += Fraction(1, 7)
        return RatMatrix(m.rows, m.cols, data)
    monkeypatch.setattr(kalai, "build_kalai_matrix", perturbed)


def rational_solve_oracle(a, b):
    """The rational X with A X = B by Gauss-Jordan over Fractions, for an
    integer A of full column rank: a list of Fraction rows.  Raises
    ValueError when A is rank deficient or the system is inconsistent."""
    from fractions import Fraction
    m, n = a.rows, a.cols
    aug = [[Fraction(v) for v in ra + rb] for ra, rb in zip(a.data, b.data)]
    for col in range(n):
        piv = next((i for i in range(col, m) if aug[i][col]), None)
        if piv is None:
            raise ValueError("matrix does not have full column rank")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for i in range(m):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[col])]
    if any(any(row[n:]) for row in aug[n:]):
        raise ValueError("inconsistent system")
    return [row[n:] for row in aug[:n]]


def weighted_gram_oracle(a, mid_weights, row_weights):
    """A diag(mid_weights) A^t diag(row_weights)^{-1} by the earlier
    Fraction route: the weighted Gram matrix over every entry pair times
    the inner dimension, then each column divided by its row weight; a
    list of Fraction rows."""
    from fractions import Fraction
    m = a.rows
    core = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            acc = Fraction(0)
            for l in range(a.cols):
                if a.data[i][l] and a.data[j][l]:
                    acc += mid_weights[l] * (a.data[i][l] * a.data[j][l])
            core[i][j] = core[j][i] = acc
    return [[core[i][j] / row_weights[j] for j in range(m)] for i in range(m)]


def rank_oracle(a):
    """Rank of an integer matrix by Gaussian elimination over Fractions."""
    from fractions import Fraction
    rows = [[Fraction(v) for v in row] for row in a.data]
    r = 0
    for col in range(a.cols):
        piv = next((i for i in range(r, a.rows) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, a.rows):
            f = rows[i][col] / rows[r][col]
            if f:
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        r += 1
    return r


def column_hermite_oracle(a):
    """Canonical column Hermite form by the earlier in-place route: pivot
    rows in order, gcd-combining the later columns into the first nonzero
    one and reducing the earlier pivot columns as each pivot is fixed."""
    from cellmesh.intmat import IntMatrix
    rows, ncols = a.rows, a.cols
    cols = [[a.data[i][j] for i in range(rows)] for j in range(ncols)]
    c = 0
    for r in range(rows):
        if c == len(cols):
            break
        j = next((j for j in range(c, len(cols)) if cols[j][r]), None)
        if j is None:
            continue
        cols[c], cols[j] = cols[j], cols[c]
        for j in range(c + 1, len(cols)):
            while cols[j][r]:
                q = cols[c][r] // cols[j][r]
                cols[c] = [x - q * y for x, y in zip(cols[c], cols[j])]
                cols[c], cols[j] = cols[j], cols[c]
        if cols[c][r] < 0:
            cols[c] = [-x for x in cols[c]]
        pv = cols[c][r]
        for j in range(c):
            q = cols[j][r] // pv
            cols[j] = [x - q * y for x, y in zip(cols[j], cols[c])]
        c += 1
    kept = cols[:c]
    return IntMatrix(rows, c, [[col[i] for col in kept] for i in range(rows)])


def smith_kernel_oracle(a):
    """Saturated kernel basis by the Smith route: the last n - r columns of
    the right transform V of U A V = D, canonicalized by
    column_hermite_oracle."""
    from cellmesh.intmat import IntMatrix, smith_normal_form
    snf = smith_normal_form(a)
    r = len(snf.invariant_factors())
    n = a.cols
    raw = IntMatrix(n, n - r, [row[r:] for row in snf.v.data])
    return column_hermite_oracle(raw)


def classify(x, d, subset):
    """All applicable kinds (with parameters) of a subset of d-cells, by
    ranks of submatrices: the oracle for enumerate_forests' kinds.

    A spanning forest is also reported as 0-augmented, a spanning coforest
    as 0-reduced.
    """
    from cellmesh.complexes import ComplexFormatError, boundary_matrix
    from cellmesh.homology import integral_boundary_basis
    from cellmesh.intmat import rank
    if subset.dimension != d:
        raise ComplexFormatError(
            f"subset at dimension {subset.dimension}, expected {d}")
    pos = x.positions(d, subset.members)
    bd = boundary_matrix(x, d)
    b_low = rank(bd)
    sub_rank = rank(bd.submatrix(range(bd.rows), pos))
    kinds = set()
    m = len(pos)
    if sub_rank == m and m <= b_low:
        kinds.add(("forest_of_size", m))
        if m == b_low:
            kinds.add(("spanning_forest", None))
    if sub_rank == b_low and m >= b_low:
        kinds.add(("k_augmented", m - b_low))
    bbasis = integral_boundary_basis(x, d).basis
    b_up = bbasis.cols
    row_rank = rank(bbasis.submatrix(pos, range(b_up)))
    if row_rank == m and m <= b_up:
        kinds.add(("k_reduced_coforest", b_up - m))
        if m == b_up:
            kinds.add(("spanning_coforest", None))
    return kinds


def subcomplex(x, d, subset):
    """X_V: all cells of dimension < d plus exactly the d-cells in V."""
    from cellmesh.complexes import CellComplex, ComplexFormatError
    if not 0 <= d <= x.dimension:
        raise ComplexFormatError(f"dimension {d} out of range 0..{x.dimension}")
    if subset.dimension != d:
        raise ComplexFormatError(
            f"subset lives at dimension {subset.dimension}, expected {d}")
    keep = set(subset.members)
    missing = keep - set(x.cell_ids(d))
    if missing:
        raise ComplexFormatError(f"unknown {d}-cells {sorted(missing)}")
    cells = {dd: x.cells[dd] for dd in range(d)}
    cells[d] = tuple(c for c in x.cells[d] if c.id in keep)
    return CellComplex(f"{x.name}|{d}-sub", d, cells, check=False)


def torsion_subcomplex(ctx, positions):
    """t_{d-1} of the subcomplex with exactly these d-cells, by a Smith form
    on the reduced boundary table of the CycleWeightContext ctx: the
    oracle for CycleWeightContext.torsion and the twins.

    A unit-pivot row i of the reduced table whose pivot column, e_i, lies
    in W puts e_i in the lattice L_W, so Z^r / L_W is isomorphic to
    Z^{r-1} / p(L_W), where p drops coordinate i: the row and its column go
    and the torsion stays.  This holds for any W, spanning or not.  So the
    Smith runs only on the unit-pivot rows whose column is outside W and
    the rows with a larger pivot, restricted to W's other columns; with no
    rows left the order is 1."""
    from cellmesh.intmat import invariant_factor_product
    inside = set(positions)
    rows = [row for col, row in ctx.unit_rows if col not in inside]
    rows += ctx.other_rows
    if not rows:
        return 1
    unit_cols = {col for col, _ in ctx.unit_rows}
    cols = [j for j in positions if j not in unit_cols]
    return invariant_factor_product([[row[j] for j in cols] for row in rows])


def u_dependent_cycle_rhs(x, d, v0):
    """Geometric's cycle side in the variant whose denominator depends on
    the augmenting set U, as a list by k: the sum over the k-subsets U of
    the cells outside V0 of the sum of t(X_V)^2 over the spanning forests V
    with V - V0 inside U, divided by t(X_{V0+U})^2.  The verifier divides
    by the fixed t(X_V0)^2 instead; the two forms coincide when V0 is
    torsion-free and may differ when it is not.

    The forests V are the complements of the independent z-sets of cycle
    rows, from the engine with trent's twins, so t(X_V) is t0 times the
    twin cokernel order; every denominator is a Smith form
    (torsion_subcomplex).  One subset-sum pass over the 2^z sets U sums
    the inner terms."""
    from fractions import Fraction
    from cellmesh.forests import CycleWeightContext
    from cellmesh.homology import integral_cycle_basis
    from cellmesh.spectra import independent_subsets
    basis = integral_cycle_basis(x, d)
    ctx = CycleWeightContext(x, d, basis)
    twins, t0 = ctx.twins
    z = basis.basis.cols
    v0pos = x.positions(d, v0.members)
    free = [p for p in range(x.n_cells(d)) if p not in v0pos]
    bit = {p: 1 << i for i, p in enumerate(free)}
    inner = [0] * (1 << z)  # by the bitmask of V - V0 over `free`
    rows = [tuple(row) for row in basis.basis.data]
    for chosen, _, _, twin_cok in independent_subsets(rows, z, twins=twins, min_size=z):
        inner[(1 << z) - 1 - sum(bit.get(p, 0) for p in chosen)] += (t0 * twin_cok) ** 2
    for i in range(z):
        for u in range(1 << z):
            if u >> i & 1:
                inner[u] += inner[u ^ 1 << i]
    rhs = [Fraction(0)] * (z + 1)
    for u in range(1 << z):
        t_u = torsion_subcomplex(ctx, [*v0pos, *(free[i] for i in range(z) if u >> i & 1)])
        rhs[u.bit_count()] += Fraction(inner[u], t_u * t_u)
    return rhs


def pair_weight(cols, v_idx, w_idx):
    """Squared determinant of the incidence minor on the rows `w_idx` of the
    boundary columns `cols` indexed by `v_idx`, taken two ways: the oracle
    for the pair leaf's weights.

    The minor's Bareiss determinant squared is the weight; when it is
    nonzero, the pair is a forest of size m with a spanning coforest of its
    subcomplex, and the weight must equal the squared relative order of
    the pair, the invariant-factor product of the same minor.
    """
    from cellmesh.intmat import det_bareiss, invariant_factor_product
    minor = [[cols[j][i] for j in v_idx] for i in w_idx]
    det = det_bareiss([row[:] for row in minor])
    weight = det * det
    if weight:
        order = invariant_factor_product(minor)
        if order * order != weight:
            raise AssertionError(
                f"pair weight {weight} != relative order {order} squared")
    return weight


def kirchhoff_pair_weight(x, d, forest_subset, coforest_subset):
    """Squared determinant of the incidence minor of a (forest, coforest)
    pair, by pair_weight on cell ids.

    Rows are the (d-1)-cells of the coforest, columns the d-cells of the
    forest; the value is zero unless the pair is a forest of size m together
    with a spanning coforest of its subcomplex.
    """
    from cellmesh.complexes import ComplexFormatError, boundary_matrix
    from cellmesh.forests import _column_vectors
    if len(forest_subset.members) != len(coforest_subset.members):
        raise ComplexFormatError("forest and coforest sizes differ")
    return pair_weight(_column_vectors(boundary_matrix(x, d)),
                       x.positions(d, forest_subset.members),
                       x.positions(d - 1, coforest_subset.members))


def kernel_weight_oracle(ctx, positions):
    """Theorem 2's weight parts u, v, f and gram_factor of the coforest W
    with these sorted row positions of a BoundaryWeightContext, by the
    earlier kernel route: B' the canonical saturated kernel basis of W's
    rows (intmat.kernel_basis), the other rows' images a B' as explicit
    products, and the same greedy containing coforests V; u = |det| of the
    interface images and v = |det A[V]| by fresh Bareiss determinants."""
    from fractions import Fraction
    from cellmesh.forests import greedy_basis
    from cellmesh.intmat import IntMatrix, det_bareiss, gram_det_of, kernel_basis
    k = ctx.b_up - len(positions)
    kernel = kernel_basis(IntMatrix(len(positions), ctx.b_up, [ctx.rows[p] for p in positions]))
    bprime = [[row[j] for row in kernel.data] for j in range(kernel.cols)]
    assert len(bprime) == k
    inside = set(positions)
    images = {p: [sum(a * b for a, b in zip(row, col)) for col in bprime]
              for p, row in enumerate(ctx.rows) if p not in inside}
    interface = greedy_basis(images, list(images), k)[0]
    u = abs(det_bareiss([list(images[p]) for p in interface]))
    v = abs(det_bareiss([list(ctx.rows[p]) for p in sorted([*positions, *interface])]))
    return {"u": u, "v": v, "f": Fraction(u, v), "gram_factor": gram_det_of(bprime)}
