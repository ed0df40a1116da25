"""Mesh matrices, combinatorial Laplacians, and the theorem verifiers.

Every verifier computes both sides of its identity from scratch by
independent code paths: characteristic polynomials come from the
Faddeev-LeVerrier recursion on the assembled matrix, while the right-hand
sides are produced by explicit subset enumeration with exact weights.
All equality checks are exact; there are no tolerances anywhere.

Every enumeration of independent subsets runs on one engine,
independent_subsets, a DFS that keeps the later candidates reduced against
the chosen prefix (matroid contraction) and yields (sorted index tuple,
Gram determinant, cokernel order).  Each candidate carries its row of the
Gram matrix reduced by fraction-free Schur-complement steps (Bareiss), a
Hermite tail and the cokernel order that tail gives; the Gram row gives
the Gram determinant, the tail the cokernel order, and the two are
independent rank routes that must agree at every push.  Vectors longer
than the size cap start their tails in Hermite-reduced coordinates, with
rank-many entries; the Gram rows come from the original vectors.  A
contraction by a pivot whose tail has a 1 or -1 only adds multiples of the
pivot column, so a tail that is 0 there skips it.  A caller may hand the
engine one twin row per vector; each twin is contracted alongside by its
own Hermite tail, gives a second cokernel order, and its zero tail is a
third rank route.  At each subset trent checks the cokernel-order identity
(_trent_leaf_check): the torsion ratio t(X_W)/t(X), taken on the boundary
side as t0 times the twin cokernel order of the reduced boundary table
(CycleWeightContext.twin_table), must equal the engine's cokernel order of
the chosen cycle-matrix rows.  Geometric's cycle side runs the same check
on the row sets of size z, whose complements are the spanning forests.

Every verifier's right-hand side comes from one fold,
independent_subset_gram_sums, split over the process pool by smallest
index: a leaf per subset checks it and returns a key, a summand and a
count.  Kirchhoff and geometric's boundary side fold the forests of the
boundary columns (_pair_sums): below one estimate of the number of (forest,
coforest) pairs, the leaf _pair_leaf walks each forest's coforests, checks
each pair's squared cokernel order against its Gram determinant, and
checks that the pairs' squared minors sum to the forest's Gram determinant
(Cauchy-Binet); above it, the leaf _forest_leaf returns the forest's size
and Gram determinant, so the fold sums the Gram determinants by size.  The
reports name the path in a field, stats.path: "pairs" or "collapsed".
"""

import os
from fractions import Fraction
from functools import partial
from math import comb, gcd
from operator import mul

from .complexes import (CellSubset, ComplexFormatError, boundary_matrix,
                        boundary_matrix_above, encode_json)
from .forests import (BoundaryWeightContext, CycleWeightContext, _column_vectors,
                      greedy_basis)
from .homology import (covolume_squared, integral_boundary_basis, integral_cycle_basis,
                       lift_gram, torsion_order)
from .intmat import (IntMatrix, RatMatrix, _column_hermite_reduce, _pivot_ops, char_poly,
                     char_poly_rational, rank, solve_bareiss, weighted_gram)

MESH_KINDS = ("cycles", "boundaries", "laplacian", "weighted_laplacian")


class MeshMatrix:
    """A mesh or Laplacian matrix of one kind at one dimension.

    `matrix` is an IntMatrix for the unweighted kinds and a RatMatrix for
    the square-root-free weighted Laplacian representative (which is similar
    to the symmetric weighted operator but not itself symmetric).
    """

    __slots__ = ("kind", "dim", "matrix")

    def __init__(self, kind, dim, matrix):
        if kind not in MESH_KINDS:
            raise ValueError(f"bad mesh kind {kind!r}")
        self.kind = kind
        self.dim = dim
        self.matrix = matrix

    def __repr__(self):
        return (f"MeshMatrix({self.kind}, d={self.dim}, "
                f"{self.matrix.rows}x{self.matrix.cols})")


class VerificationReport:
    """Both sides of an identity, compared, and whether they agree.

    `fields` are the report's own entries in JSON order, raw ints and
    Fractions included, and each is also an attribute: `theorem`, `dim`,
    `rows` and, for Kirchhoff and geometric, `stats` for a theorem;
    `complex`, `factors`, `lhs`, `rhs` and `skeleta` for the torsion
    identity.  The JSON form adds `pass` and a null `elapsed_ms`.
    """

    def __init__(self, fields, passed):
        vars(self).update(fields)
        self.fields = tuple(fields)
        self.passed = passed

    def to_json_dict(self):
        doc = {key: getattr(self, key) for key in self.fields}
        doc.update({"pass": self.passed, "elapsed_ms": None})
        return encode_json(doc)

    def __repr__(self):
        return f"VerificationReport({', '.join(self.fields)}, pass={self.passed})"


# ---------------------------------------------------------------------------
# Matrix constructors.
# ---------------------------------------------------------------------------

def mesh_matrix_cycles(x, d, basis):
    """Gram matrix of an integral d-cycle basis under the cellular pairing."""
    if basis.kind != "cycles" or basis.dimension != d:
        raise ComplexFormatError("mesh_matrix_cycles needs a cycle basis at d")
    gram = basis.basis.transpose().mul(basis.basis)
    return MeshMatrix("cycles", d, gram)


def mesh_matrix_boundaries(x, d, basis):
    """Gram matrix of an integral d-boundary basis under the cellular pairing."""
    if basis.kind != "boundaries" or basis.dimension != d:
        raise ComplexFormatError("mesh_matrix_boundaries needs a boundary basis at d")
    gram = basis.basis.transpose().mul(basis.basis)
    return MeshMatrix("boundaries", d, gram)


def combinatorial_laplacian(x, d):
    """The Laplacian K K^t on (d-1)-chains; for graphs, degree minus adjacency."""
    if not 1 <= d <= x.dimension:
        raise ComplexFormatError(f"dimension {d} out of range 1..{x.dimension}")
    k = boundary_matrix(x, d)
    return MeshMatrix("laplacian", d, k.mul(k.transpose()))


def weighted_laplacian(x, d, weights):
    """Square-root-free weighted Laplacian A W_d A^t W_{d-1}^{-1}, for a
    dict of weights by cell id (x.weights, say); a cell absent from it
    weighs 1.

    Similar to the symmetric weighted operator, hence with the same
    characteristic polynomial; built by intmat.weighted_gram.
    """
    if not 1 <= d <= x.dimension:
        raise ComplexFormatError(f"dimension {d} out of range 1..{x.dimension}")
    a = boundary_matrix(x, d)
    w_hi = [weights.get(cid, 1) for cid in x.cell_ids(d)]
    w_lo = [weights.get(cid, 1) for cid in x.cell_ids(d - 1)]
    if any(w <= 0 for w in w_hi + w_lo):
        raise ComplexFormatError("weights must be strictly positive")
    return MeshMatrix("weighted_laplacian", d, weighted_gram(a, w_hi, w_lo))


def greedy_spanning_forest(x, d):
    """First spanning forest at dimension d in lexicographic cell order."""
    bd = boundary_matrix(x, d)
    ids = x.cell_ids(d)
    return CellSubset(d, [ids[j] for j in
                          greedy_basis(_column_vectors(bd), range(bd.cols), rank(bd))[0]])


def geometric_cycle_basis(x, d, v0):
    """Rational cycle basis attached to a spanning forest V0.

    For each d-cell s outside V0, the column is the unique rational cycle
    supported on V0 plus s whose coefficient on s is +1.  The coefficients
    on V0 come from one fraction-free solve, divided by its D once.
    """
    bd = boundary_matrix(x, d)
    v0pos = x.positions(d, v0.members)
    b_low = rank(bd)
    sub = bd.submatrix(range(bd.rows), v0pos)
    if len(v0pos) != b_low or rank(sub) != b_low:
        raise ComplexFormatError("V0 is not a spanning forest at dimension d")
    rest = [j for j in range(bd.cols) if j not in set(v0pos)]
    n = bd.rows
    rhs = IntMatrix(n, len(rest),
                    [[-bd.data[i][j] for j in rest] for i in range(n)])
    den, coeffs = solve_bareiss(sub, rhs)
    out = [[0] * len(rest) for _ in range(bd.cols)]
    for jj, j in enumerate(rest):
        out[j][jj] = 1
        for ii, i in enumerate(v0pos):
            out[i][jj] = Fraction(coeffs.data[ii][jj], den)
    return RatMatrix(bd.cols, len(rest), out)


def geometric_boundary_basis(x, d, v1):
    """Integral d-boundary basis from a (d+1)-dimensional spanning forest V1:
    the boundaries of the cells of V1, in cell order (rationally a basis of
    the boundary space)."""
    if v1.dimension != d + 1:
        raise ComplexFormatError("V1 must live at dimension d+1")
    bd = boundary_matrix_above(x, d)
    v1pos = x.positions(d + 1, v1.members)
    b_up = rank(bd)
    sub = bd.submatrix(range(bd.rows), v1pos)
    if len(v1pos) != b_up or rank(sub) != b_up:
        raise ComplexFormatError("V1 is not a spanning forest at dimension d+1")
    return sub


# ---------------------------------------------------------------------------
# Fraction-free elimination on the Gram matrix (running Gram determinants)
# and the subset engine built on it.
# ---------------------------------------------------------------------------

def gram_state_push(gram, pivot, t, row, later):
    """One candidate's row of the reduced Gram matrix, contracted by a
    pivot: one fraction-free Schur-complement step (Bareiss).

    Call the chosen candidate c_0 and the candidates after it in its frame
    c_1, c_2, ...  Each carries a row: the Gram determinant of the prefix
    plus c_i, then its entries against c_{i+1}, c_{i+2}, ... in order.  By
    Sylvester's identity the entry of c_i against c_k is the determinant of
    the Gram matrix of the prefix plus c_i against the prefix plus c_k, so
    all entries are integers.  `pivot` is the row of c_0, `gram` the Gram
    determinant of the prefix without it, and `row` the row of c_t.  The
    contracted row of c_t starts with the Gram determinant of the prefix
    plus c_0 and c_t,

        (pivot[0] * row[0] - pivot[t] ** 2) // gram,

    and goes on with its entries against the offsets u in `later` (listed
    in decreasing order) by the same formula, pivot[t] * pivot[u] in place
    of pivot[t] ** 2; the divisions are exact.  Returns None when the Gram
    determinant is 0, that is when c_t is dependent on the prefix plus c_0.
    """
    head = pivot[0]
    a = pivot[t]
    diag = (head * row[0] - a * a) // gram
    if not diag:
        return None
    out = [diag]  # a loop, not a comprehension: `later` is short, often empty
    for u in reversed(later):
        out.append((head * row[u - t] - a * pivot[u]) // gram)
    return out


def _contract(gram, pivot, cands):
    """The candidates after a pivot, contracted by it.

    `pivot` is the chosen candidate and `gram` the Gram determinant of the
    prefix before it.  A candidate is (j, row, tail, twin, cok, twin_cok):
    its Gram row, its Hermite tail, its twin's tail (None without twins),
    and the cokernel orders of the prefix plus itself on the vectors and
    on the twins.  Each candidate takes one Gram step (gram_state_push),
    last candidate first so that its row keeps entries only against the
    later candidates that stay.  Its tail goes through the column
    operations that clear the pivot's tail (_pivot_ops), applied here,
    with the pivot column dropped, and its cokernel order becomes the
    pivot's times the gcd of the new tail; its twin likewise through the
    operations that clear the pivot's twin.  When the pivot entry is 1 or
    -1 every operation adds a multiple of the pivot column to another, so
    a tail that is 0 there only loses that column and keeps its gcd and,
    as the pivot's gcd is 1, its cokernel order.  A candidate that
    becomes dependent is dropped; its zero Gram determinant, its zero tail
    (cokernel order 0) and its zero twin are independent rank routes and
    must agree.
    """
    _, prow, ptail, ptwin, pcok, ptwin_cok = pivot
    p, a, ops = _pivot_step(ptail)
    if ptwin is not None:
        tp, ta, tops = _pivot_step(ptwin)
    out = []
    later = []  # offsets from the pivot of the candidates kept so far
    for t in range(len(cands), 0, -1):
        j, row, tail, twin, cok, twin_cok = cands[t - 1]
        row = gram_state_push(gram, prow, t, row, later)
        tail = list(tail)
        sp = tail[p]
        if not a:
            for c, x, y, u, v in ops:
                sc = tail[c]
                sp, tail[c] = x * sp + y * sc, u * sp + v * sc
        elif sp:
            if ops is None:
                ops = [(c, -a * b) for c, b in enumerate(ptail) if b and c != p]
            for c, u in ops:
                tail[c] += u * sp
        del tail[p]
        if sp or not a:
            cok = pcok * gcd(*tail)
        if (row is None) == (cok != 0):
            raise AssertionError(f"rank routes disagree on candidate {j}")
        # the same step on the twin, written out again: a helper call per
        # candidate for either cost serial trent on delta5skel2 d=2 about 7%
        if ptwin is not None:
            twin = list(twin)
            sp = twin[tp]
            if not ta:
                for c, x, y, u, v in tops:
                    sc = twin[c]
                    sp, twin[c] = x * sp + y * sc, u * sp + v * sc
            elif sp:
                if tops is None:
                    tops = [(c, -ta * b) for c, b in enumerate(ptwin) if b and c != tp]
                for c, u in tops:
                    twin[c] += u * sp
            del twin[tp]
            if sp or not ta:
                twin_cok = ptwin_cok * gcd(*twin)
            if (row is None) == (twin_cok != 0):
                raise AssertionError(f"rank routes disagree on the twin of candidate {j}")
        if row is not None:
            out.append((j, row, tail, twin, cok, twin_cok))
            later.append(t)
    out.reverse()
    return out


def _pivot_step(tail):
    """(p, a, ops) for _contract on the pivot's nonzero `tail`.  When an
    entry is 1 or -1, p is the first such column, as in _pivot_ops, a is
    that entry and ops is None: clearing `tail` adds -a * tail[c] times
    column p to each column c, and _contract builds those pairs on first
    use.  Otherwise a is 0 and (p, ops) are _pivot_ops'."""
    if 1 in tail:
        return tail.index(1), 1, None
    if -1 in tail:
        return tail.index(-1), -1, None
    p, ops = _pivot_ops(tail)
    return p, 0, ops


def independent_subsets(vectors, max_size=None, first=None, twins=None, min_size=1):
    """Every linearly independent subset of `vectors` with at least
    `min_size` and at most `max_size` members, as (sorted index tuple, Gram
    determinant, cokernel order), in lexicographic DFS order; among the
    subsets of one size that is lexicographic order.

    This is the one subset-enumeration engine of the package: a DFS that
    keeps, at each node, the later candidates reduced against the chosen
    prefix (matroid contraction).  A candidate carries two reductions:
      * its row of the Gram matrix reduced by the prefix (gram_state_push):
        the Gram determinant of the prefix plus itself, known before it is
        visited, then its entries against the later candidates of its
        frame.  The top rows are dot products, taken once; a contraction
        costs each candidate one entry per later candidate, whatever the
        length of the vectors;
      * its tail, the row after the prefix's unimodular column operations
        with the prefix's pivot columns dropped, so the cokernel order of
        the chosen rows (the gcd of their maximal minors, the invariant-
        factor product) is the parent's order times gcd(tail): the
        diagonal of a column Hermite form, built one row at a time.  The
        candidate carries that order too, so a visit only reads it.
    Descending into a node contracts each later candidate by one step of
    both (_contract).  A candidate whose Gram determinant or tail becomes
    zero is dependent on the prefix and is dropped for the whole subtree;
    the two rank routes must agree, or AssertionError is raised.

    When the vectors are longer than the cap, the tails start in
    Hermite-reduced coordinates: the live vectors' coordinate columns
    through one _column_hermite_reduce, which leaves rank-many nonzero
    columns (Kirchhoff's collapsed fold on delta5skel2 at d=2 has columns
    of 15 entries and rank 10).  The change of coordinates is unimodular,
    so every cokernel order stays; the Gram rows still come from the
    original dot products, so the two rank routes stay independent.  The
    reduced tails are also sparse (echelon), so more candidates skip a
    unit pivot's operations.

    A frame is dropped once the chosen count plus its remaining candidates
    falls below `min_size`: every later member of a subset comes from those
    candidates.  With min_size=0 the empty subset is yielded first, as
    ((), 1, 1), when `first` is not set.

    `twins`, when given, holds one integer row per vector.  Each candidate
    then also carries its twin's tail, contracted by the column operations
    that clear the chosen twins, and every subset is yielded with a fourth
    entry, the cokernel order of the chosen twin rows (1 for the empty
    subset).  The twins must be independent exactly where the vectors are:
    a zero twin tail is a third rank route, checked at every push like the
    other two.

    With `first` set only the subsets whose smallest index is `first` are
    visited, so the runs for first = 0, 1, ... split the enumeration in
    order.
    """
    n = len(vectors)
    cap = n if max_size is None else max_size
    if min_size == 0 and first is None:
        yield ((), 1, 1) if twins is None else ((), 1, 1, 1)
    if cap < max(min_size, 1):
        return
    lo = 0 if first is None else first
    live = []  # the nonzero vectors: at the top a zero vector is the only dependent one
    for j in range(lo, n):
        independent = any(vectors[j])
        if twins is not None and independent != any(twins[j]):
            raise AssertionError(f"rank routes disagree on the twin of candidate {j}")
        if independent:
            live.append(j)
    tails = [list(vectors[j]) for j in live]
    if live and len(tails[0]) > cap:
        # Hermite-reduced coordinates.  Rows as long as the cap are left
        # alone: there the reduction only costs.  The pair leaf's rows are
        # such, and it runs the engine once per forest; reducing them too
        # took serial Kirchhoff on rp2 d=1 from 0.17 s to 0.23 s.
        cols = [list(col) for col in zip(*tails)]
        tails = [list(row) for row in zip(*cols[:_column_hermite_reduce(cols, len(live))])]
    top = []
    for i, j in enumerate(live):
        tail = tails[i]
        cok = gcd(*tail)
        if not cok:
            raise AssertionError(f"rank routes disagree on candidate {j}")
        twin = None if twins is None else list(twins[j])
        top.append((j, [sum(map(mul, vectors[j], vectors[k])) for k in live[i:]], tail, twin,
                    cok, None if twin is None else gcd(*twin)))
    stop = n if first is None else first + 1  # bound on the smallest index
    # a frame: its candidates, the next position, the end of its visit, and
    # the Gram determinant of the prefix its candidates are reduced against
    frames = [[top, 0, sum(1 for cand in top if cand[0] < stop), 1]]
    chosen = []
    while True:
        frame = frames[-1]
        cands, pos, limit, gram = frame
        if pos == limit or len(chosen) + len(cands) - pos < min_size:
            frames.pop()
            if not frames:
                return
            chosen.pop()
            continue
        frame[1] = pos + 1
        cand = cands[pos]
        row = cand[1]
        chosen.append(cand[0])
        if len(chosen) >= min_size:
            if twins is None:
                yield tuple(chosen), row[0], cand[4]
            else:
                yield tuple(chosen), row[0], cand[4], cand[5]
        if len(chosen) < cap and pos + 1 < len(cands):
            kids = _contract(gram, cand, cands[pos + 1:])
            frames.append([kids, 0, len(kids), row[0]])
        else:
            chosen.pop()


# Above this many subsets (bounded by sum_{j <= rank} C(n, j)) an
# enumeration is split over the process pool, when one is allowed.
_POOL_MIN_SUBSETS = 120_000


def independent_subset_gram_sums(vectors, rank_cap, processes, leaf, twins=None,
                                 min_size=1):
    """The one pooled leaf fold: {key: [sum, count]} over the independent
    subsets of `vectors` with at least `min_size` and at most `rank_cap`
    members, `rank_cap` bounding the rank of `vectors`.

    `leaf(index tuple, gram, cokernel order)` runs at every subset, raises
    on a failed identity and returns (key, summand, count); it must be
    picklable.  With `twins` (see independent_subsets) the leaf also gets
    the twin cokernel order as a fourth argument.  The subsets are split by
    smallest index over `processes` workers when processes > 1 and
    sum_{j <= rank_cap} C(n, j) > _POOL_MIN_SUBSETS; the result is the same
    for any process count.
    """
    n = len(vectors)
    if processes > 1 and sum(comb(n, j) for j in range(rank_cap + 1)) > _POOL_MIN_SUBSETS:
        tasks = [(vectors, rank_cap, i, leaf, twins, min_size) for i in range(n)]
        parts = _run_parallel(_fold, tasks, processes)
    else:
        parts = [_fold((vectors, rank_cap, None, leaf, twins, min_size))]
    total = {}
    for part in parts:
        for key, (s, c) in part.items():
            acc = total.setdefault(key, [0, 0])
            acc[0] += s
            acc[1] += c
    return total


def _fold(args):
    vectors, rank_cap, first, leaf, twins, min_size = args
    out = {}
    for found in independent_subsets(vectors, rank_cap, first, twins, min_size):
        key, summand, count = leaf(*found)
        acc = out.setdefault(key, [0, 0])
        acc[0] += summand
        acc[1] += count
    return out


def _run_parallel(fn, arg_list, processes):
    """[fn(a) for a in arg_list] on a pool of `processes` workers; rerun
    serially when the pool cannot start or breaks."""
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    try:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            return list(pool.map(fn, arg_list, chunksize=1))
    except (OSError, BrokenProcessPool):
        return [fn(a) for a in arg_list]


def default_processes():
    """Worker count: CELLMESH_PROCESSES when set, else min(2, CPUs)."""
    env = os.environ.get("CELLMESH_PROCESSES")
    if not env:
        return min(2, os.cpu_count() or 1)
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(
            f"CELLMESH_PROCESSES must be a positive integer, got {env!r}")
    return value


def _rows(ks, lhs, rhs, side=None):
    """One report row per k in ks, comparing lhs(k) with the fold's sum in
    rhs[k] = [sum, count] ([0, 0] when absent); the keys run side (when
    given), k, lhs, rhs, certificates, pass."""
    rows = []
    for k in ks:
        left = lhs(k)
        right, count = rhs.get(k, (0, 0))
        row = {} if side is None else {"side": side}
        row.update({"k": k, "lhs": left, "rhs": right, "certificates": count,
                    "pass": left == right})
        rows.append(row)
    return rows


def _report(theorem, d, rows, stats=None):
    """The report on `rows`, passing when every row passes; `stats` (given
    by Kirchhoff and geometric) follows the rows."""
    fields = {"theorem": theorem, "dim": d, "rows": rows}
    if stats is not None:
        fields["stats"] = stats
    return VerificationReport(fields, all(row["pass"] for row in rows))


# ---------------------------------------------------------------------------
# Theorem 1: cycle mesh matrix vs k-augmented spanning forests.
# ---------------------------------------------------------------------------

def _trent_leaf_check(t0, t_x, chosen, gram, cok, twin_cok):
    """Trent's leaf check, the cokernel-order identity; returns the fold's
    (subset size, gram, 1).

    The rows `chosen` of the cycle matrix are independent, so their
    complement W is a k-augmented spanning forest whose weight is `gram`,
    the Gram determinant of those rows.  Two independent routes must agree:
    the torsion ratio t(X_W)/t(X), taken on the boundary side, and `cok`,
    the cokernel order of the chosen rows that the engine carries down its
    Hermite tails on the cycle side.  t(X_W) is t0 * `twin_cok`, the
    cokernel order the engine carries down the twin tails of the reduced
    boundary table (CycleWeightContext.twin_table); no Smith runs here.
    The weight must also be divisible by the squared ratio.
    """
    t_w = t0 * twin_cok
    if t_w % t_x:
        raise AssertionError(
            f"torsion ratio {t_w}/{t_x} is not an integer on rows {list(chosen)}")
    ratio = t_w // t_x
    if cok != ratio:
        raise AssertionError(
            f"cokernel order {cok} != torsion ratio {ratio} on rows {list(chosen)}")
    if gram % (ratio * ratio):
        raise AssertionError("covolume not divisible by squared torsion ratio")
    return len(chosen), gram, 1


def verify_theorem1(x, d, basis=None, processes=None):
    """Check every characteristic coefficient of the cycle mesh matrix
    against the weighted sum over k-augmented spanning forests.

    The forests are the complements of the independent row subsets of the
    cycle matrix, and a forest's weight is the Gram determinant of those
    rows.  Every subset must pass trent's leaf check, the cokernel-order
    identity (_trent_leaf_check): t(X_W)/t(X) equal to the cokernel order
    of the chosen rows that the engine yields, whose square divides the
    weight.  The engine carries trent's twin rows alongside, so t(X_W)
    comes from a second cokernel order and the twins are a third rank
    route.
    """
    if processes is None:
        processes = default_processes()
    if basis is None:
        basis = integral_cycle_basis(x, d)
    mesh = mesh_matrix_cycles(x, d, basis)
    poly = char_poly(mesh.matrix)
    z = basis.basis.cols
    ctx = CycleWeightContext(x, d, basis)
    twins, t0 = ctx.twins
    a_rows = [tuple(row) for row in basis.basis.data]
    sums = independent_subset_gram_sums(a_rows, z, processes,
                                        partial(_trent_leaf_check, t0, ctx.t_x), twins)
    rhs = {z - size: acc for size, acc in sums.items()}
    rhs[z] = [1, 0]  # leading coefficient: empty-product convention
    rows = _rows(range(z, -1, -1), lambda k: (-1) ** (z - k) * poly.coefficient(k), rhs)
    return _report("trent", d, rows)


# ---------------------------------------------------------------------------
# Theorem 2: boundary mesh matrix vs k-reduced spanning coforests.
# ---------------------------------------------------------------------------

def _boundary_leaf_check(ctx, chosen, gram, cok):
    """Theorem 2's leaf check: the rows `chosen` of the boundary matrix are
    a k-reduced spanning coforest W with the engine's Gram determinant
    `gram` and cokernel order `cok`.  BoundaryWeightContext.weigh replays
    W's pushes on its path stack of Hermite tails, checks that the stack's
    cokernel order is `cok` (the same column operations as the engine's,
    so a check of the cache), and checks two identities against the
    tails: cok u = v (A[V] U is block triangular) and
    gram u^2 = v^2 det(B''^t B''), where V is a greedy containing
    coforest, u the determinant of its interface rows' tails,
    v = |det A[V]| by Bareiss and B'' the unit rows' tails, a saturated
    basis of ker A[W].  No kernel is solved per leaf.
    Returns the fold's (subset size, gram, 1)."""
    ctx.weigh(chosen, gram, cok)
    return len(chosen), gram, 1


def verify_theorem2(x, d, basis=None, processes=None):
    """Check the boundary mesh characteristic polynomial against the
    weighted sum over k-reduced spanning coforests.

    The coforests are the independent row subsets of the boundary matrix,
    and a coforest's weight is the engine's Gram determinant of its rows.
    Every one must pass _boundary_leaf_check: the path stack of tails
    that BoundaryWeightContext.weigh keeps must match the engine's
    cokernel order, that order times u(W,V) must equal v(V,X), and the
    weight must equal its relative-order form.
    """
    if processes is None:
        processes = default_processes()
    if basis is None:
        basis = integral_boundary_basis(x, d)
    mesh = mesh_matrix_boundaries(x, d, basis)
    poly = char_poly(mesh.matrix)
    b = basis.basis.cols
    ctx = BoundaryWeightContext(x, d, basis)
    sums = independent_subset_gram_sums(ctx.rows, b, processes,
                                        partial(_boundary_leaf_check, ctx))
    rhs = {b - size: acc for size, acc in sums.items()}
    rhs[b] = [1, 0]
    rows = _rows(range(b, -1, -1), lambda k: (-1) ** (b - k) * poly.coefficient(k), rhs)
    return _report("boundary", d, rows)


# ---------------------------------------------------------------------------
# Kirchhoff/Lyons: Laplacian coefficients vs (forest, coforest) pairs.
# ---------------------------------------------------------------------------

# Above this many estimated (forest, coforest) pairs, sum_m C(#columns, m) *
# C(#rows, m), a pair sum is collapsed by Cauchy-Binet instead of enumerated.
# An enumerated pair costs about 8-10 us, so cases below the bound can be slow
# (2-CPU Xeon, Python 3.11, serial, best of 3 CPU seconds): on the 6-vertex
# complex of the triangles 125, 145, 156, 234, 235, 245, 256, 356, 456
# (rank d_2 = 9, estimate 1,307,503) kirchhoff d=2 takes 0.47 s (60,759
# pairs) and geometric d=1 0.49 s, against 0.003 s and 0.03 s collapsed;
# kirchhoff on rp2 d=1 (16,806 pairs) 0.17 s.
_PAIR_THRESHOLD = 2_000_000


def _pair_leaf(cols, vidx, gram, cok):
    """The pair leaf: the columns `vidx` of `cols` are a forest V with Gram
    determinant `gram`.  Walks V's spanning coforests W, the independent
    m-sets of the rows of V's columns.  The engine yields each pair's
    weight, the squared m x m minor, by two independent routes: the Gram
    determinant from the fraction-free steps on the Gram rows, and |det| as
    the cokernel order from the Hermite tails' pivot gcds.  The weight is a squared
    relative order, so every pair must have order^2 = Gram determinant, and
    by Cauchy-Binet the squared minors must sum to `gram`.  Returns the
    fold's (m, gram, number of pairs)."""
    m = len(vidx)
    rows = list(zip(*(cols[j] for j in vidx)))
    total = count = 0
    for widx, det_sq, order in independent_subsets(rows, m, min_size=m):
        if order * order != det_sq:
            raise AssertionError(
                f"pair weight mismatch: cokernel order {order} squared != Gram determinant "
                f"{det_sq} of rows {list(widx)} of columns {list(vidx)}")
        total += det_sq
        count += 1
    if total != gram:
        raise AssertionError(
            f"Cauchy-Binet: pair sum {total} != Gram determinant {gram} of columns {list(vidx)}")
    return m, gram, count


def _forest_leaf(vidx, gram, cok):
    """The collapsed pair sums' leaf: the forest `vidx` adds its Gram
    determinant, by Cauchy-Binet its pair sum, to its size; (m, gram, 1)."""
    return len(vidx), gram, 1


def _pair_sums(cols, n_rows, cap, processes):
    """The pair sums of the boundary columns `cols`, with `n_rows` rows, and
    the path that took them.

    Returns ({m: [sum, count]}, path): for each forest V of m <= cap
    of the columns, the sum over the spanning coforests W of V of the
    squared m x m incidence minor on (W, V), which by Cauchy-Binet is the
    Gram determinant of V's columns.  One fold walks the forests.  At or
    below _PAIR_THRESHOLD estimated pairs its leaf is _pair_leaf, which
    checks every pair's cokernel order against its Gram determinant and the
    pairs' sum against the forest's, a count is a pair and the path is
    "pairs"; above it the leaf is _forest_leaf, a count is a forest and the
    path is "collapsed".
    """
    n = len(cols)
    collapsed = sum(comb(n, m) * comb(n_rows, m) for m in range(1, cap + 1)) > _PAIR_THRESHOLD
    leaf = _forest_leaf if collapsed else partial(_pair_leaf, cols)
    return (independent_subset_gram_sums(cols, cap, processes, leaf),
            "collapsed" if collapsed else "pairs")


def verify_kirchhoff_lyons(x, d, processes=None):
    """Check every elementary symmetric function of the (d-1)-Laplacian
    against the pair sum over forests of size m and spanning coforests,
    taken by _pair_sums on the columns of the boundary matrix.
    """
    if processes is None:
        processes = default_processes()
    lap = combinatorial_laplacian(x, d)
    poly = char_poly(lap.matrix)
    n_low = x.n_cells(d - 1)
    bd = boundary_matrix(x, d)
    b_low = rank(bd)
    rhs, path = _pair_sums(_column_vectors(bd), n_low, b_low, processes)
    rows = _rows(range(1, b_low + 1), lambda m: (-1) ** m * poly.coefficient(n_low - m),
                 rhs)
    if rows:
        rows[-1]["product_of_nonzero_eigenvalues"] = rows[-1]["lhs"]
    return _report("kirchhoff", d, rows, stats={"path": path})


# ---------------------------------------------------------------------------
# Geometric-basis theorems.
# ---------------------------------------------------------------------------

def _geometric_cycle_leaf(t0, t_x, v0pos, chosen, gram, cok, twin_cok):
    """Geometric's cycle-side leaf: the cycle rows `chosen` are the
    complement of a spanning forest V and must pass trent's leaf check.
    Returns the fold's key |V - V0|, which is |chosen & V0| as both V and
    V0 have b_{d-1} cells, t(X_V)^2 = (t0 * twin_cok)^2, and 1."""
    _trent_leaf_check(t0, t_x, chosen, gram, cok, twin_cok)
    t_v = t0 * twin_cok
    return len(v0pos.intersection(chosen)), t_v * t_v, 1


def verify_geometric_theorems(x, d, v0=None, v1=None, processes=None):
    """Check the characteristic polynomials of the geometric cycle and
    boundary mesh matrices against their combinatorial double sums.

    Cycle side: each spanning forest V weighs t(X_V)^2 / t(X_V0)^2, the
    torsion-ratio form with the fixed denominator t_{d-1}(X_{V0}).  The
    spanning forests V are walked on trent's tree, on the pooled fold: the
    complements of the independent cycle-basis row sets of size z, with
    the twin rows of CycleWeightContext.twins carried alongside.  Every
    forest passes trent's leaf check (_geometric_cycle_leaf), so t(X_V),
    taken as t0 times the twin cokernel order, must match the cokernel
    order of the cycle rows outside V; no Smith runs per forest.  The sums
    of t(X_V)^2 stay integers per |V - V0| and are divided by t(X_V0)^2
    once; t(X_V0) comes from the same twin rows, by
    CycleWeightContext.torsion.
    Boundary side: weights are squared relative orders of (d+1, d) pairs,
    taken by _pair_sums on the columns of V1; the report's stats name the
    path it took.
    """
    if processes is None:
        processes = default_processes()
    if v0 is None:
        v0 = greedy_spanning_forest(x, d)
    if v1 is None:
        v1 = greedy_spanning_forest(x, d + 1) if d + 1 <= x.dimension \
            else CellSubset(d + 1, [])

    # --- cycle side ------------------------------------------------------
    g0 = geometric_cycle_basis(x, d, v0)
    z = g0.cols
    mesh0 = g0.transpose().mul(g0)
    coeffs = char_poly_rational(mesh0)
    basis = integral_cycle_basis(x, d)
    ctx = CycleWeightContext(x, d, basis)
    twins, t0 = ctx.twins
    v0pos = frozenset(x.positions(d, v0.members))
    t_v0 = ctx.torsion(v0pos)
    # {|V - V0|: [sum of t(X_V)^2, forest count]}
    by_extension = independent_subset_gram_sums(
        [tuple(row) for row in basis.basis.data], z, processes,
        partial(_geometric_cycle_leaf, t0, ctx.t_x, v0pos), twins, min_size=z)
    sq_sums, found = zip(*(by_extension.get(j, (0, 0)) for j in range(z + 1)))
    rhs = {k: [Fraction(sum(comb(z - j, k - j) * sq_sums[j] for j in range(k + 1)),
                        t_v0 * t_v0),
               sum(comb(z - j, k - j) * found[j] for j in range(k + 1))]
           for k in range(z + 1)}
    rows = _rows(range(z + 1), lambda k: (-1) ** k * coeffs[z - k], rhs, "cycles")

    # --- boundary side ---------------------------------------------------
    g1 = geometric_boundary_basis(x, d, v1)
    b = g1.cols
    gram1 = g1.transpose().mul(g1)
    poly1 = char_poly(gram1)
    # V1's columns of the boundary matrix, read apart from g1: V1 is a
    # forest, so every subset of them is independent
    v1pos = x.positions(d + 1, v1.members)
    up_cols = _column_vectors(boundary_matrix_above(x, d))
    rhs, path = _pair_sums([up_cols[j] for j in v1pos], x.n_cells(d), b, processes)
    rhs[0] = [1, 0]
    rows += _rows(range(b + 1), lambda k: (-1) ** k * poly1.coefficient(b - k), rhs,
                  "boundaries")
    return _report("geometric", d, rows, stats={"path": path})


# ---------------------------------------------------------------------------
# Covolume identity.
# ---------------------------------------------------------------------------

def verify_covolume(x, d):
    """Check covol^2(cycles) * t_d^2 = covol^2(boundaries) * the homology
    covolume squared, the right side taken by projection: lift_gram, the
    Gram determinant of the boundary basis and the homology lift."""
    z = integral_cycle_basis(x, d)
    b = integral_boundary_basis(x, d)
    t = torsion_order(x, d)
    lhs = covolume_squared(z) * t * t
    rows = _rows([0], lambda k: lhs, {0: [lift_gram(z, b), 0]})
    return _report("covolume", d, rows)
