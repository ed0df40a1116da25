"""Spanning forests, coforests, their augmented/reduced variants, and weights.

A d-dimensional spanning forest is a subset of d-cells of size rank(B_{d-1})
carrying no d-cycles; adding k cells gives a k-augmented spanning forest.
A spanning coforest is a subset onto which the d-boundary space restricts
isomorphically; deleting k cells (restriction still onto) gives a k-reduced
spanning coforest.  Every kind is enumerated, in lexicographic order, on
the package's one subset engine, spectra.independent_subsets: a DFS that
contracts the later candidates by each chosen vector and drops a prefix
once too few independent candidates are left to reach the size asked for.
"""

from fractions import Fraction
from functools import cached_property
from math import gcd

from .complexes import CellSubset, ComplexFormatError, boundary_matrix
from .homology import integral_boundary_basis, integral_cycle_basis
from .intmat import (IntMatrix, _apply_pivot_ops_in_place, _column_hermite_reduce,
                     _pivot_ops, det_bareiss, gram_det, gram_det_of,
                     invariant_factor_product, kernel_basis, rank)

KINDS = ("spanning_forest", "k_augmented", "forest_of_size",
         "spanning_coforest", "k_reduced_coforest")


class ForestCertificate:
    """A classified subset of d-cells, optionally with its computed weight."""

    __slots__ = ("subset", "kind", "param", "weight", "weight_parts")

    def __init__(self, subset, kind, param=None, weight=None, weight_parts=None):
        if kind not in KINDS:
            raise ValueError(f"bad certificate kind {kind!r}")
        self.subset = subset
        self.kind = kind
        self.param = param
        self.weight = weight
        self.weight_parts = weight_parts

    def __repr__(self):
        tag = self.kind if self.param is None else f"{self.kind}({self.param})"
        return f"ForestCertificate({tag}, {sorted(self.subset.members)}, w={self.weight})"


# ---------------------------------------------------------------------------
# Rank bookkeeping helpers.
# ---------------------------------------------------------------------------

def greedy_basis(vectors, order, target):
    """(picked, cok): the positions, in `order`, of the vectors a greedy
    pass keeps, each one that raises the rank until the rank reaches
    `target`, and the cokernel order of the kept vectors, the product of
    their tails' gcds (|det| when `target` vectors of length `target` are
    kept).

    A vector raises the rank when its tail, after the column operations
    that clear the kept vectors (_pivot_ops, as the enumeration engine
    runs them), is nonzero.  They are applied in place on one copy of
    the vector."""
    cleared = []
    picked = []
    cok = 1
    for i in order:
        if len(picked) == target:
            break
        if not any(vectors[i]):
            continue
        tail = list(vectors[i])
        for p, ops in cleared:
            _apply_pivot_ops_in_place(tail, p, ops)
        if any(tail):
            picked.append(i)
            cok *= gcd(*tail)
            if len(picked) < target:
                cleared.append(_pivot_ops(tail))
    return picked, cok


def _column_vectors(mat):
    return [tuple(mat.data[i][j] for i in range(mat.rows)) for j in range(mat.cols)]


def _row_vectors(mat):
    return [tuple(row) for row in mat.data]


# ---------------------------------------------------------------------------
# Enumeration.
# ---------------------------------------------------------------------------

def enumerate_forests(x, d, kind, param=None):
    """Stream every qualifying subset exactly once, lexicographically.

    Subsets are ordered by their sorted tuples of cell positions (file
    order).  Weights are not attached; see cycle_weight / boundary_weight.

    Every kind is one size of independent sets on the enumeration engine
    (spectra.independent_subsets): a forest of size m is m independent
    boundary columns, a k-reduced coforest b_d - k independent rows of the
    boundary basis.  A k-augmented forest W spans the boundary columns
    exactly when the cycle-basis rows outside W are independent, so these
    forests are the complements of the independent cycle-basis row sets of
    size z - k.  Among sets of one size, complementing reverses
    lexicographic order: where two sets first differ, the position lies in
    the earlier set and not in the later one, and the complements swap
    that.  So the complements are emitted from the last row set to the
    first.
    """
    from .spectra import independent_subsets
    if kind not in KINDS:
        raise ComplexFormatError(f"unknown kind {kind!r}")
    ids = x.cell_ids(d)
    if kind in ("spanning_forest", "k_augmented", "forest_of_size"):
        bd = boundary_matrix(x, d)
        b_low = rank(bd)
        vectors = _column_vectors(bd)
        if kind == "spanning_forest":
            size, param = b_low, None
        elif kind == "k_augmented":
            k = 0 if param is None else int(param)
            z = len(ids) - b_low
            if not 0 <= k <= z:
                raise ComplexFormatError(f"augmentation {k} out of range 0..{z}")
            vectors = _row_vectors(integral_cycle_basis(x, d).basis)
            size, param = z - k, k
        else:
            m = int(param)
            if not 0 <= m <= b_low:
                raise ComplexFormatError(f"forest size {m} out of range 0..{b_low}")
            size, param = m, m
    else:
        bbasis = integral_boundary_basis(x, d).basis
        b_up = bbasis.cols
        vectors = _row_vectors(bbasis)
        if kind == "spanning_coforest":
            size, param = b_up, None
        else:
            k = 0 if param is None else int(param)
            if not (0 <= k < b_up or (k == 0 and b_up == 0)):
                raise ComplexFormatError(
                    f"reduction {k} out of range for rank {b_up}")
            size, param = b_up - k, k
    found = (idx for idx, _, _ in independent_subsets(vectors, size, min_size=size))
    if kind == "k_augmented":
        found = [sorted(set(range(len(ids))).difference(idx))
                 for idx in reversed(list(found))]
    for idx in found:
        yield ForestCertificate(CellSubset(d, [ids[i] for i in idx]), kind, param)


# ---------------------------------------------------------------------------
# Weight computation contexts (built once per complex/dimension).
# ---------------------------------------------------------------------------

class CycleWeightContext:
    """Cached data for Theorem-style cycle weights at one dimension.

    Torsion orders of subcomplexes are read off the boundary matrix: the
    cokernel of the columns of W of the n_{d-1} x n_d matrix of the boundary
    map on d-chains has torsion t_{d-1}(X_W), and t(X) is the
    invariant-factor product of the whole matrix.

    For the subcomplexes the matrix is reduced once, by unimodular row
    operations, to row Hermite form T with b_{d-1} nonzero rows (its rows put
    in canonical Hermite form by _column_hermite_reduce, whose pivot count
    is b_{d-1}).  Row operations change the basis of Z^{n_{d-1}} only and
    the dropped zero rows add free summands only, so every cokernel has the
    same torsion for T as for the boundary matrix.  T depends only on the
    row lattice, which is also that of the boundary columns in coordinates
    of a basis of the saturated boundary lattice (a direct summand), so T
    is that table's Hermite form too.  A row whose pivot is 1 has the unit
    vector e_i as its pivot column: the rows below are zero there and the
    rows above are reduced into [0, 1).  The construction checks that T has
    the invariant-factor product t(X) of the raw boundary matrix, so a
    reduction that was not unimodular fails before any subset is weighed.

    One route reads t(X_W) off T, for every spanning W: twin_table turns
    T into one twin row per cell, and t(X_W) is t0 times the cokernel order
    of the twin rows of the cells outside W.  The enumeration engine carries
    that order down its DFS, so trent and the geometric cycle side take
    every leaf's torsion that way (_trent_leaf_check); `torsion` takes it
    by one greedy pass for a W off that tree (cycle_weight, and geometric's
    denominator t(X_V0)).  The twins are built from unit_rows and
    other_rows on first use and cached in `twins`.
    """

    def __init__(self, x, d, basis):
        if basis.kind != "cycles" or basis.dimension != d:
            raise ComplexFormatError("cycle_weight needs a cycle basis at d")
        self.x = x
        self.d = d
        self.a = basis.basis  # n_d x z_d
        bd = boundary_matrix(x, d)
        self.t_x = invariant_factor_product([row[:] for row in bd.data])
        table = [row[:] for row in bd.data]
        self.b_low = _column_hermite_reduce(table, bd.cols)
        table = table[:self.b_low]
        if invariant_factor_product([row[:] for row in table]) != self.t_x:
            raise AssertionError(
                f"reduced boundary table of {x.name} at d={d} changes t(X)")
        self.unit_rows = []  # (pivot column, row) for the pivots equal to 1
        self.other_rows = []
        for row in table:
            col = next(j for j, a in enumerate(row) if a)
            if row[col] == 1:
                self.unit_rows.append((col, row))
            else:
                self.other_rows.append(row)

    @cached_property
    def twins(self):
        """(twin rows, t0) of twin_table, built on first use."""
        return self.twin_table()

    @cached_property
    def _unit_twin_cols(self):
        """Per cell, the column of the 1 or -1 of its twin when the twin is
        a unit vector (its absolute values sum to 1), else None."""
        return [[abs(a) for a in row].index(1) if sum(map(abs, row)) == 1 else None
                for row in self.twins[0]]

    def torsion(self, positions):
        """t_{d-1} of the subcomplex with exactly these d-cells, which must
        span the boundary columns: t0 times the cokernel order of the twin
        rows of the cells outside W (see twin_table), taken by one greedy
        pass.  Those rows are independent exactly when W spans; a W that
        does not raises AssertionError.

        A unit-vector twin goes first, with its column: a maximal minor
        that keeps the column is, by Laplace expansion along the unit
        entry, +-1 times a maximal minor of the rest, and one that drops it
        is 0, so the cokernel order stays.  A second unit twin on a column
        already dropped is kept, and is zero there: the twins are
        dependent, and the greedy pass finds it."""
        twins, t0 = self.twins
        unit_cols = self._unit_twin_cols
        inside = set(positions)
        dropped = set()
        rows = []
        for c, row in enumerate(twins):
            if c not in inside:
                q = unit_cols[c]
                if q is None or q in dropped:
                    rows.append(row)
                else:
                    dropped.add(q)
        if dropped:
            rows = [[a for q, a in enumerate(row) if q not in dropped] for row in rows]
        picked, cok = greedy_basis(rows, range(len(rows)), len(rows))
        if len(picked) < len(rows):
            raise AssertionError(f"cells {sorted(inside)} do not span the boundary "
                                 f"columns of {self.x.name} at d={self.d}")
        return t0 * cok

    def twin_table(self):
        """Trent's twin rows and t0: t(X_W) = t0 * the cokernel order of the
        twin rows of the cells outside W, for every W whose columns span.

        Deleting a column q of the reduced table T changes no torsion if
        the unit row e_q is added instead: a maximal minor of [T; e_q] is
        zero or, by Laplace expansion along e_q, a maximal minor of T
        without q.  So with S the cells outside W, t(X_W) is the
        invariant-factor product of [T; E_S].  There, a unit-pivot row i
        with pivot column c (e_i in T) first clears the 1 of e_c when c is
        in S, by a row subtraction; then column c holds only that pivot, and
        Laplace expansion along it drops row i and column c.  What is left
        lives on the columns Q that are not unit pivots: cell c's row is its
        unit row restricted to Q (up to sign), a cell q in Q has e_q, and
        the rows with a larger pivot, O, stand above them.  Clearing O's
        rows one at a time by the engine's unimodular column operations
        (_pivot_ops) splits the product into t0, the product of their gcds,
        times the cokernel order of the twin rows of S carried through the
        same operations.  The twin rows have n_d - b_{d-1} entries, as many
        as the cycle rows.  With S empty this is t(X), so t0 is checked
        against the invariant-factor product of the raw boundary matrix.

        The twins are read from unit_rows and other_rows when called;
        callers read them, once per context, from `twins`.
        """
        bd = boundary_matrix(self.x, self.d)
        n = bd.cols
        unit = dict(self.unit_rows)
        q_cols = [j for j in range(n) if j not in unit]
        twins = [[unit[c][j] for j in q_cols] if c in unit
                 else [int(j == c) for j in q_cols] for c in range(n)]
        rest = [[row[j] for j in q_cols] for row in self.other_rows]
        t0 = 1
        while rest:
            pivot = rest.pop(0)
            p, ops = _pivot_ops(pivot)
            t0 *= gcd(*pivot)
            rest = [_apply_pivot_ops_in_place(row, p, ops) for row in rest]
            twins = [_apply_pivot_ops_in_place(row, p, ops) for row in twins]
        t_x = invariant_factor_product([row[:] for row in bd.data])
        if t0 != t_x:
            raise AssertionError(
                f"twin table of {self.x.name} at d={self.d}: t0 {t0} != t(X) {t_x}")
        return twins, t0


class BoundaryWeightContext:
    """Cached data for boundary-mesh weights at one dimension.

    v(V,X) = |det A[V]| depends only on the spanning coforest V, so it is
    memoized per sorted V (v_order).  The tails (see `tails`) of the last
    coforest weighed are kept as a path stack of at most b_d + 1 levels;
    the next one, in the engine's lexicographic order, is usually one push
    away.  The stack is only a cache, so the results do not depend on the
    order of calls, and a pool worker fills its own copy.
    """

    def __init__(self, x, d, basis):
        if basis.kind != "boundaries" or basis.dimension != d:
            raise ComplexFormatError("boundary_weight needs a boundary basis at d")
        self.x = x
        self.d = d
        self.b_up = basis.basis.cols
        self.rows = _row_vectors(basis.basis)  # n_d rows of length b_d
        self._v = {}
        units = [[int(i == j) for j in range(self.b_up)] for i in range(self.b_up)]
        self._path = []  # the rows pushed, in order
        self._levels = [(1, [list(row) for row in self.rows] + units)]  # (cok, tails)

    def v_order(self, v_positions):
        """v(V,X) = |det A[V]| for the sorted positions of V, memoized."""
        key = tuple(v_positions)
        v = self._v.get(key)
        if v is None:
            v = self._v[key] = abs(det_bareiss([list(self.rows[p]) for p in key]))
        return v

    def tails(self, positions):
        """(cokernel order, tails) of the rows `positions` of the boundary
        basis A, pushed in order by the engine's unimodular column
        operations (_pivot_ops): each push clears the pushed row's tail to
        one pivot column, applies the operations to the n_d rows of A and
        the b_d unit rows, and drops the pivot column.  As the transform U
        is unimodular, the unit rows' tails are then the rows of B'', a
        saturated basis of ker A[W]; a row's tail is that row times B''; and
        the product of the pivot gcds is the cokernel order of W's rows.
        A zero pushed tail, dependent rows, raises AssertionError."""
        path, levels = self._path, self._levels
        i = 0
        while i < len(path) and i < len(positions) and path[i] == positions[i]:
            i += 1
        del path[i:], levels[i + 1:]
        for p in positions[i:]:
            cok, tails = levels[-1]
            pivot = tails[p]
            if not any(pivot):
                raise AssertionError(f"rows {list(positions)} are dependent")
            q, ops = _pivot_ops(pivot)
            # a zero tail (a row pushed already, or one dependent on them)
            # stays zero and only loses the pivot column
            tails = [_apply_pivot_ops_in_place(list(t), q, ops) if any(t) else t[1:]
                     for t in tails]
            levels.append((cok * gcd(*pivot), tails))
            path.append(p)
        return levels[-1]

    def weigh(self, positions, gram, cok):
        """Theorem 2's identity on the k-reduced spanning coforest W with
        these sorted row positions, Gram determinant `gram` and cokernel
        order `cok` (the engine's at theorem 2's leaf); returns the weight
        parts u, v, f and gram_factor, or raises AssertionError.

        The cokernel order of W's tails must equal `cok`.  At theorem 2's
        leaf the engine reached `cok` by the same column operations on the
        same rows, so there this only checks that the path stack, a cache,
        matches the engine; boundary_weight passes a Smith product, a
        second route.  Greedy passes over the other rows' tails pick a
        containing spanning coforest V = W + S; u(W,V) = |det(A[S] B'')| is
        the product of their pivot gcds and v(V,X) a Bareiss determinant.
        A[V] U is block triangular (W's rows are triangular on the pivot
        columns, with the pivot gcds on the diagonal, and zero on B''), so
        cok u = v is checked, and so is the relative-order form
        gram u^2 = v^2 det(B''^t B''); these two hold v, from Bareiss, and
        the engine's gram against the tails.  f(W) = u/v must not change
        with a second containing coforest.
        """
        k = self.b_up - len(positions)
        order, tails = self.tails(positions)
        if order != cok:
            raise AssertionError(f"boundary weight mismatch on rows {list(positions)}: "
                                 f"cokernel order {order} of the tails != {cok}")
        n = len(self.rows)
        gram_factor = gram_det_of(list(zip(*tails[n:])))
        pos_set = set(positions)
        rest = [p for p in range(n) if p not in pos_set]
        s1, u1 = greedy_basis(tails, rest, k)
        vv1 = self._containing_order(positions, s1)
        if cok * u1 != vv1:
            raise AssertionError(f"boundary weight mismatch on rows {list(positions)}: "
                                 f"cok {cok} * u {u1} != v {vv1}")
        if gram * u1 * u1 != vv1 * vv1 * gram_factor:
            raise AssertionError(f"boundary weight mismatch on rows {list(positions)}: "
                                 f"{gram} * {u1}^2 != {vv1}^2 * {gram_factor}")
        s2, u2 = greedy_basis(tails, rest[::-1], k)
        if set(s2) != set(s1):
            vv2 = self._containing_order(positions, s2)
            if u1 * vv2 != u2 * vv1:
                raise AssertionError(
                    f"f(W) depends on the containing coforest: {u1}/{vv1} vs {u2}/{vv2}")
        return {"u": u1, "v": vv1, "f": Fraction(u1, vv1), "gram_factor": gram_factor}

    def _containing_order(self, w_positions, interface):
        """v(V,X) for the spanning coforest V = W + interface."""
        if len(w_positions) + len(interface) != self.b_up:
            raise AssertionError("no containing spanning coforest exists")
        v = self.v_order(sorted([*w_positions, *interface]))
        if v == 0:
            raise AssertionError("degenerate containing coforest")
        return v


def cycle_weight(x, d, subset, basis, ctx=None):
    """Weight of a k-augmented spanning forest, computed both ways.

    (i) directly as the Gram determinant of the rows of the cycle-basis
    matrix indexed by the complement, 0 (a ComplexFormatError) when the
    subset is no such forest, and (ii) as the squared torsion ratio
    t_{d-1}(X_W)/t_{d-1}(X) times the Gram determinant of the inclusion of
    Z_d(X_W), of rank k, into the cycle lattice (1 at k = 0, with no kernel
    solved).  The two must agree exactly and the torsion ratio must be a
    positive integer.
    """
    if ctx is None:
        ctx = CycleWeightContext(x, d, basis)
    pos = x.positions(d, subset.members)
    k = len(pos) - ctx.b_low
    pos_set = set(pos)
    comp = [row for i, row in enumerate(ctx.a.data) if i not in pos_set]
    direct = gram_det_of(comp) if k >= 0 else 0
    if direct == 0:
        raise ComplexFormatError("subset is not a k-augmented spanning forest")
    # Z_d(X_W): the kernel of the complement's rows, in basis coordinates
    gram_factor = gram_det(kernel_basis(IntMatrix(len(comp), ctx.a.cols, comp))) if k else 1
    t_w = ctx.torsion(pos)
    if t_w % ctx.t_x:
        raise AssertionError(
            f"torsion ratio {t_w}/{ctx.t_x} is not an integer on {subset}")
    ratio = t_w // ctx.t_x
    if direct != ratio * ratio * gram_factor:
        raise AssertionError(
            f"cycle weight mismatch on {sorted(subset.members)}: "
            f"direct {direct} != {ratio}^2 * {gram_factor}")
    parts = {"torsion_ratio": ratio, "gram_factor": gram_factor}
    return ForestCertificate(subset, "k_augmented" if k else "spanning_forest",
                             k if k else None, direct, parts)


def boundary_weight(x, d, subset, basis, ctx=None):
    """Weight of a k-reduced spanning coforest, computed both ways.

    (i) directly as the Gram determinant of the boundary-basis rows indexed
    by the subset, and (ii) in the relative-order form of
    BoundaryWeightContext.weigh, which must agree.  The cokernel order
    weigh checks its tails against is the invariant-factor product (a
    Smith reduction) of the same rows.  A subset whose rows are dependent
    (Gram determinant 0), oversized ones included, is a ComplexFormatError.
    """
    if ctx is None:
        ctx = BoundaryWeightContext(x, d, basis)
    pos = x.positions(d, subset.members)
    direct = gram_det_of([ctx.rows[p] for p in pos])
    if direct == 0:
        raise ComplexFormatError("subset is not a k-reduced spanning coforest")
    cok = invariant_factor_product([list(ctx.rows[p]) for p in pos])
    k = ctx.b_up - len(pos)
    return ForestCertificate(subset, "k_reduced_coforest" if k else "spanning_coforest",
                             k if k else None, direct, ctx.weigh(pos, direct, cok))

