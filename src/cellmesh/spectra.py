"""Mesh matrices, combinatorial Laplacians, and the theorem verifiers.

Every verifier computes both sides of its identity from scratch by
independent code paths: characteristic polynomials come from the
Faddeev-LeVerrier recursion on the assembled matrix, while the right-hand
sides are produced by explicit subset enumeration with exact weights.
All equality checks are exact; there are no tolerances anywhere.

Every enumeration of independent subsets runs on one engine,
independent_subsets, a DFS that keeps the later candidates reduced against
the chosen prefix (matroid contraction) and yields (sorted index tuple,
Gram determinant, cokernel order).  Each candidate carries a fraction-free
Gram-Schmidt triple and a Hermite tail; the Gram triple gives the Gram
determinant, the tail the cokernel order, and the two are independent rank
routes that must agree at every push.  At each subset trent checks the
cokernel-order identity (_trent_leaf_check): the torsion ratio t(X_W)/t(X),
a Smith computation on the boundary coordinates of W, must equal the
engine's cokernel order of the chosen cycle-matrix rows.
"""

import os
import time
from fractions import Fraction
from functools import partial
from math import comb, gcd
from operator import mul

from .complexes import CellSubset, ComplexFormatError, boundary_matrix, boundary_matrix_above
from .forests import (BoundaryWeightContext, CycleWeightContext, boundary_weight,
                      enumerate_forests, greedy_basis, kirchhoff_pair_weight)
from .homology import (integral_boundary_basis, integral_cycle_basis,
                       rational_solve, relative_order)
from .intmat import IntMatrix, RatMatrix, char_poly, char_poly_rational, rank

MESH_KINDS = ("cycles", "boundaries", "laplacian", "weighted_laplacian")


class MeshMatrix:
    """A mesh or Laplacian matrix together with its basis provenance.

    `matrix` is an IntMatrix for the unweighted kinds and a RatMatrix for
    the square-root-free weighted Laplacian representative (which is similar
    to the symmetric weighted operator but not itself symmetric).
    """

    __slots__ = ("kind", "dim", "matrix", "basis_provenance")

    def __init__(self, kind, dim, matrix, basis_provenance):
        if kind not in MESH_KINDS:
            raise ValueError(f"bad mesh kind {kind!r}")
        self.kind = kind
        self.dim = dim
        self.matrix = matrix
        self.basis_provenance = basis_provenance

    def char_poly(self):
        return char_poly(self.matrix)

    def __repr__(self):
        return (f"MeshMatrix({self.kind}, d={self.dim}, "
                f"{self.matrix.rows}x{self.matrix.cols}, {self.basis_provenance})")


class VerificationReport:
    """Per-coefficient comparison of both sides of a theorem."""

    def __init__(self, theorem, dim, rows, passed, elapsed_ms, notes=()):
        self.theorem = theorem
        self.dim = dim
        self.rows = rows
        self.passed = passed
        self.elapsed_ms = elapsed_ms
        self.notes = list(notes)

    def to_json_dict(self, deterministic=False):
        def enc(v):
            if isinstance(v, Fraction):
                return (str(v.numerator) if v.denominator == 1
                        else f"{v.numerator}/{v.denominator}")
            if isinstance(v, int):
                return str(v)
            return v

        rows = []
        for row in self.rows:
            out = {}
            for key, val in row.items():
                out[key] = enc(val) if key not in ("k", "certificates", "pass", "side") else val
            rows.append(out)
        return {
            "theorem": self.theorem,
            "dim": self.dim,
            "rows": rows,
            "pass": self.passed,
            "elapsed_ms": None if deterministic else self.elapsed_ms,
            "notes": self.notes,
        }

    def __repr__(self):
        return (f"VerificationReport({self.theorem}, d={self.dim}, "
                f"pass={self.passed}, {len(self.rows)} rows)")


# ---------------------------------------------------------------------------
# Matrix constructors.
# ---------------------------------------------------------------------------

def mesh_matrix_cycles(x, d, basis, provenance="user-supplied"):
    """Gram matrix of an integral d-cycle basis under the cellular pairing."""
    if basis.kind != "cycles" or basis.dimension != d:
        raise ComplexFormatError("mesh_matrix_cycles needs a cycle basis at d")
    gram = basis.basis.transpose().mul(basis.basis)
    return MeshMatrix("cycles", d, gram, provenance)


def mesh_matrix_boundaries(x, d, basis, provenance="user-supplied"):
    """Gram matrix of an integral d-boundary basis under the cellular pairing."""
    if basis.kind != "boundaries" or basis.dimension != d:
        raise ComplexFormatError("mesh_matrix_boundaries needs a boundary basis at d")
    gram = basis.basis.transpose().mul(basis.basis)
    return MeshMatrix("boundaries", d, gram, provenance)


def combinatorial_laplacian(x, d):
    """The Laplacian K K^t on (d-1)-chains; for graphs, degree minus adjacency."""
    if not 1 <= d <= x.dimension:
        raise ComplexFormatError(f"dimension {d} out of range 1..{x.dimension}")
    k = boundary_matrix(x, d)
    return MeshMatrix("laplacian", d, k.mul(k.transpose()), "cellular")


def weighted_laplacian(x, d, weights):
    """Square-root-free weighted Laplacian A W_d A^t W_{d-1}^{-1}.

    Similar to the symmetric weighted operator, hence with the same
    characteristic polynomial; kept in rational arithmetic throughout.
    """
    if not 1 <= d <= x.dimension:
        raise ComplexFormatError(f"dimension {d} out of range 1..{x.dimension}")
    a = boundary_matrix(x, d)
    w_hi = [weights[cid] for cid in x.cell_ids(d)]
    w_lo = [weights[cid] for cid in x.cell_ids(d - 1)]
    if any(w <= 0 for w in w_hi + w_lo):
        raise ComplexFormatError("weights must be strictly positive")
    n = a.rows
    data = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = Fraction(0)
            for l in range(a.cols):
                if a.data[i][l] and a.data[j][l]:
                    acc += Fraction(a.data[i][l] * a.data[j][l]) * w_hi[l]
            data[i][j] = acc / w_lo[j]
    return MeshMatrix("weighted_laplacian", d, RatMatrix(n, n, data), "cellular")


def greedy_spanning_forest(x, d):
    """First spanning forest at dimension d in lexicographic cell order."""
    bd = boundary_matrix(x, d)
    cols = [tuple(bd.data[i][j] for i in range(bd.rows)) for j in range(bd.cols)]
    ids = x.cell_ids(d)
    return CellSubset(d, [ids[j] for j in greedy_basis(cols, range(bd.cols), rank(bd))])


def geometric_cycle_basis(x, d, v0):
    """Rational cycle basis attached to a spanning forest V0.

    For each d-cell s outside V0, the column is the unique rational cycle
    supported on V0 plus s whose coefficient on s is +1.
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
    coeffs = rational_solve(sub, rhs) if v0pos else RatMatrix(0, len(rest), [])
    cols = x.n_cells(d)
    out = [[Fraction(0)] * len(rest) for _ in range(cols)]
    for jj, j in enumerate(rest):
        out[j][jj] = Fraction(1)
        for ii, i in enumerate(v0pos):
            out[i][jj] = coeffs.data[ii][jj]
    return RatMatrix(cols, len(rest), out)


def geometric_boundary_basis(x, d, v1):
    """Rational d-boundary basis from a (d+1)-dimensional spanning forest V1:
    the boundaries of the cells of V1, in cell order."""
    if v1.dimension != d + 1:
        raise ComplexFormatError("V1 must live at dimension d+1")
    bd = boundary_matrix_above(x, d)
    v1pos = x.positions(d + 1, v1.members)
    b_up = rank(bd)
    sub = bd.submatrix(range(bd.rows), v1pos)
    if len(v1pos) != b_up or rank(sub) != b_up:
        raise ComplexFormatError("V1 is not a spanning forest at dimension d+1")
    return RatMatrix(sub.rows, sub.cols,
                     [[Fraction(v) for v in row] for row in sub.data])


# ---------------------------------------------------------------------------
# Fraction-free incremental Gram-Schmidt (running Gram determinants) and the
# subset engine built on it.
# ---------------------------------------------------------------------------

def gram_state_push(state, vec, start=0):
    """Push a vector onto an exact Gram-Schmidt state.

    state is a list of (w, norm, gram) triples where w is the scaled
    orthogonalized vector, norm = <w, w>, and gram is the Gram determinant
    of all vectors pushed so far.  Returns the new triple, or None when vec
    is linearly dependent on the pushed vectors.  All arithmetic is integer;
    the interior divisions are exact (Bareiss on the Gram matrix).

    With start > 0, vec must be the w of a push onto state[:start]; only the
    steps from state[start] on are taken, and the result is the triple a
    push of the original vector onto the whole state returns.
    """
    v = list(vec)
    prev_gram = state[start - 1][2] if start else 1
    for k in range(start, len(state)):
        w, norm, gram_val = state[k]
        dot = sum(map(mul, v, w))
        div = prev_gram * prev_gram
        v = [(norm * a - dot * b) // div for a, b in zip(v, w)]
        prev_gram = gram_val
    nrm = sum(map(mul, v, v))
    if nrm == 0:
        return None
    # v is gram_{j-1} times the orthogonal component, so <v, v> splits as
    # gram_{j-1} * gram_j
    return (v, nrm, nrm // prev_gram)


def _xgcd(a, b):
    """(g, x, y) with x*a + y*b = g, where |g| = gcd(a, b)."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _pivot_ops(tail):
    """Unimodular column operations that clear a nonzero row `tail` down
    to one column.

    Returns (p, ops): p is the pivot column, and each (c, x, y, u, v) in ops
    maps columns (p, c) to (x col_p + y col_c, u col_p + v col_c), a 2x2
    map of determinant 1.  After all of them `tail` is zero outside p.
    """
    if 1 in tail:
        p = tail.index(1)
    elif -1 in tail:
        p = tail.index(-1)
    else:
        p = min((i for i, a in enumerate(tail) if a), key=lambda i: abs(tail[i]))
    a = tail[p]
    ops = []
    for c, b in enumerate(tail):
        if b and c != p:
            if b % a == 0:
                ops.append((c, 1, 0, -(b // a), 1))
            else:
                g, x, y = _xgcd(a, b)
                ops.append((c, x, y, -(b // g), a // g))
                a = g
    return p, ops


def _contract(state, pivot_tail, cands):
    """The candidates reduced against a prefix, contracted by its last
    member.

    Each candidate (j, (w, norm, gram), tail) is taken one Gram step
    further, onto state[-1], and its tail through the column operations
    that clear pivot_tail, with the pivot column dropped.  A candidate that
    becomes dependent is dropped; its zero norm and its zero tail are two
    independent rank routes and must agree.
    """
    start = len(state) - 1
    p, ops = _pivot_ops(pivot_tail)
    out = []
    for j, (w, _, _), tail in cands:
        item = gram_state_push(state, w, start)
        t = list(tail)
        sp = t[p]
        for c, x, y, u, v in ops:
            sc = t[c]
            sp, t[c] = x * sp + y * sc, u * sp + v * sc
        del t[p]
        if (item is None) == any(t):
            raise AssertionError(f"rank routes disagree on candidate {j}")
        if item is not None:
            out.append((j, item, t))
    return out


def independent_subsets(vectors, max_size=None, first=None):
    """Every nonempty linearly independent subset of `vectors` with at most
    `max_size` members, as (sorted index tuple, Gram determinant, cokernel
    order), in lexicographic DFS order.

    This is the one subset-enumeration engine of the verifiers: a DFS that
    keeps, at each node, the later candidates reduced against the chosen
    prefix (matroid contraction).  A candidate carries two reductions:
      * its gram_state_push triple (w, norm, gram) over the prefix, so its
        Gram determinant is known before it is visited;
      * its tail, the row after the prefix's unimodular column operations
        with the prefix's pivot columns dropped, so the cokernel order of
        the chosen rows (the gcd of their maximal minors, the invariant-
        factor product) is the parent's order times gcd(tail): the
        diagonal of a column Hermite form, built one row at a time.
    Descending into a node contracts each later candidate by one step of
    both.  A candidate whose norm or tail becomes zero is dependent on the
    prefix and is dropped for the whole subtree; the two rank routes must
    agree, or AssertionError is raised.

    With `first` set only the subsets whose smallest index is `first` are
    visited, so the runs for first = 0, 1, ... split the enumeration in
    order.
    """
    n = len(vectors)
    cap = n if max_size is None else max_size
    if cap < 1:
        return
    lo = 0 if first is None else first
    top = []
    for j in range(lo, n):
        item = gram_state_push([], vectors[j])
        if item is not None:
            top.append((j, item, list(vectors[j])))
    stop = n if first is None else first + 1  # bound on the smallest index
    frames = [[top, 0, sum(1 for cand in top if cand[0] < stop)]]
    chosen, state, coks = [], [], [1]
    while True:
        frame = frames[-1]
        cands, pos, limit = frame
        if pos == limit:
            frames.pop()
            if not frames:
                return
            chosen.pop()
            state.pop()
            coks.pop()
            continue
        frame[1] = pos + 1
        j, item, tail = cands[pos]
        chosen.append(j)
        cok = coks[-1] * gcd(*tail)
        yield tuple(chosen), item[2], cok
        if len(chosen) < cap and pos + 1 < len(cands):
            state.append(item)
            coks.append(cok)
            kids = _contract(state, tail, cands[pos + 1:])
            frames.append([kids, 0, len(kids)])
        else:
            chosen.pop()


# Above this many subsets (bounded by sum_{j <= rank} C(n, j)) an
# enumeration is split over the process pool, when one is allowed.
_POOL_MIN_SUBSETS = 120_000


def independent_subset_gram_sums(vectors, rank_cap, processes=1, check=None):
    """Sum of Gram determinants over all nonempty independent subsets.

    Returns {size: [sum_of_gram_dets, subset_count]}.  `rank_cap` bounds the
    rank of `vectors`.  `check(index tuple, gram, cokernel order)`, when
    given, runs at every subset and raises on a failed identity; it must be
    picklable.
    The subsets are split by smallest index over `processes` workers when
    processes > 1 and sum_{j <= rank_cap} C(n, j) > _POOL_MIN_SUBSETS; the
    result is the same for any process count.
    """
    n = len(vectors)
    if processes > 1 and sum(comb(n, j) for j in range(rank_cap + 1)) > _POOL_MIN_SUBSETS:
        parts = _run_parallel(_subset_gram_sums,
                              [(vectors, rank_cap, i, check) for i in range(n)],
                              processes)
    else:
        parts = [_subset_gram_sums((vectors, rank_cap, None, check))]
    total = {}
    for part in parts:
        for size, (s, c) in part.items():
            acc = total.setdefault(size, [0, 0])
            acc[0] += s
            acc[1] += c
    return total


def _subset_gram_sums(args):
    vectors, rank_cap, first, check = args
    out = {}
    for idx, gram, cok in independent_subsets(vectors, rank_cap, first):
        if check is not None:
            check(idx, gram, cok)
        acc = out.setdefault(len(idx), [0, 0])
        acc[0] += gram
        acc[1] += 1
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


# ---------------------------------------------------------------------------
# Theorem 1: cycle mesh matrix vs k-augmented spanning forests.
# ---------------------------------------------------------------------------

def _trent_leaf_check(ctx, chosen, gram, cok):
    """Trent's leaf check, the cokernel-order identity.

    The rows `chosen` of the cycle matrix are independent, so their
    complement W is a k-augmented spanning forest whose weight is `gram`,
    the Gram determinant of those rows.  Two independent routes must agree:
    the torsion ratio t(X_W)/t(X), a Smith computation on the boundary
    coordinates of W, and `cok`, the cokernel order of the chosen rows that
    the engine carries down its Hermite tails.  The weight must also be
    divisible by the squared ratio.
    """
    taken = set(chosen)
    t_w = ctx.torsion_subcomplex([j for j in range(ctx.a.rows) if j not in taken])
    if t_w % ctx.t_x:
        raise AssertionError(
            f"torsion ratio {t_w}/{ctx.t_x} is not an integer on rows {list(chosen)}")
    ratio = t_w // ctx.t_x
    if cok != ratio:
        raise AssertionError(
            f"cokernel order {cok} != torsion ratio {ratio} on rows {list(chosen)}")
    if gram % (ratio * ratio):
        raise AssertionError("covolume not divisible by squared torsion ratio")


def verify_theorem1(x, d, basis=None, processes=None):
    """Check every characteristic coefficient of the cycle mesh matrix
    against the weighted sum over k-augmented spanning forests.

    The forests are the complements of the independent row subsets of the
    cycle matrix, and a forest's weight is the Gram determinant of those
    rows.  Every subset must pass trent's leaf check, the cokernel-order
    identity (_trent_leaf_check): t(X_W)/t(X) equal to the cokernel order
    of the chosen rows that the engine yields, whose square divides the
    weight.
    """
    start = time.monotonic()
    if processes is None:
        processes = default_processes()
    if basis is None:
        basis = integral_cycle_basis(x, d)
    mesh = mesh_matrix_cycles(x, d, basis)
    poly = char_poly(mesh.matrix)
    z = basis.basis.cols
    ctx = CycleWeightContext(x, d, basis)
    a_rows = [tuple(row) for row in basis.basis.data]
    rhs = {k: [0, 0] for k in range(z + 1)}
    rhs[z] = [1, 0]  # leading coefficient: empty-product convention
    sums = independent_subset_gram_sums(a_rows, z, processes,
                                        partial(_trent_leaf_check, ctx))
    rhs.update((z - size, acc) for size, acc in sums.items())

    rows = []
    passed = True
    for k in range(z, -1, -1):
        lhs = (-1) ** (z - k) * poly.coefficient(k)
        ok = lhs == rhs[k][0]
        passed = passed and ok
        rows.append({"k": k, "lhs": lhs, "rhs": rhs[k][0],
                     "certificates": rhs[k][1], "pass": ok})
    elapsed = (time.monotonic() - start) * 1000.0
    return VerificationReport("trent", d, rows, passed, elapsed)


# ---------------------------------------------------------------------------
# Theorem 2: boundary mesh matrix vs k-reduced spanning coforests.
# ---------------------------------------------------------------------------

def _boundary_leaf_check(ctx, basis, chosen, gram, cok):
    """Theorem 2's leaf check: the rows `chosen` of the boundary matrix are
    a k-reduced spanning coforest, whose relative-order form in
    boundary_weight must give the engine's Gram determinant `gram`."""
    ids = ctx.x.cell_ids(ctx.d)
    subset = CellSubset(ctx.d, [ids[i] for i in chosen])
    boundary_weight(ctx.x, ctx.d, subset, basis, ctx, direct=gram)


def verify_theorem2(x, d, basis=None, processes=None):
    """Check the boundary mesh characteristic polynomial against the
    weighted sum over k-reduced spanning coforests.

    The coforests are the independent row subsets of the boundary matrix;
    every one must pass _boundary_leaf_check.
    """
    start = time.monotonic()
    if processes is None:
        processes = default_processes()
    if basis is None:
        basis = integral_boundary_basis(x, d)
    mesh = mesh_matrix_boundaries(x, d, basis)
    poly = char_poly(mesh.matrix)
    b = basis.basis.cols
    rhs = {k: [0, 0] for k in range(b + 1)}
    rhs[b] = [1, 0]
    ctx = BoundaryWeightContext(x, d, basis)
    sums = independent_subset_gram_sums(ctx.rows, b, processes,
                                        partial(_boundary_leaf_check, ctx, basis))
    rhs.update((b - size, acc) for size, acc in sums.items())
    rows = []
    passed = True
    for k in range(b, -1, -1):
        lhs = (-1) ** (b - k) * poly.coefficient(k)
        ok = lhs == rhs[k][0]
        passed = passed and ok
        rows.append({"k": k, "lhs": lhs, "rhs": rhs[k][0],
                     "certificates": rhs[k][1], "pass": ok})
    elapsed = (time.monotonic() - start) * 1000.0
    return VerificationReport("boundary", d, rows, passed, elapsed)


# ---------------------------------------------------------------------------
# Kirchhoff/Lyons: Laplacian coefficients vs (forest, coforest) pairs.
# ---------------------------------------------------------------------------

_PAIR_THRESHOLD = 2_000_000


def verify_kirchhoff_lyons(x, d, processes=None):
    """Check every elementary symmetric function of the (d-1)-Laplacian
    against the pair sum over forests of size m and spanning coforests.

    On small complexes the (forest, coforest) pairs are enumerated one by
    one through kirchhoff_pair_weight; on larger ones the inner coforest sum
    is collapsed with Cauchy-Binet to the Gram determinant of the forest's
    boundary columns, which is the same exact quantity.
    """
    start = time.monotonic()
    if processes is None:
        processes = default_processes()
    lap = combinatorial_laplacian(x, d)
    poly = char_poly(lap.matrix)
    n_low = x.n_cells(d - 1)
    bd = boundary_matrix(x, d)
    b_low = rank(bd)
    notes = []
    estimated = sum(comb(x.n_cells(d), m) * comb(n_low, m)
                    for m in range(1, b_low + 1))
    rhs = {m: [0, 0] for m in range(1, b_low + 1)}
    if estimated <= _PAIR_THRESHOLD:
        ids_low = x.cell_ids(d - 1)
        for m in range(1, b_low + 1):
            for vcert in enumerate_forests(x, d, "forest_of_size", m):
                vpos = x.positions(d, vcert.subset.members)
                rows = [tuple(bd.data[i][j] for j in vpos) for i in range(n_low)]
                # square m x m minors: the Gram determinant is det^2
                for widx, det_sq, _ in independent_subsets(rows, m):
                    if len(widx) < m:
                        continue
                    wsub = CellSubset(d - 1, [ids_low[i] for i in widx])
                    weight = kirchhoff_pair_weight(x, d, vcert.subset, wsub)
                    if weight != det_sq:
                        raise AssertionError("pair weight mismatch")
                    rhs[m][0] += weight
                    rhs[m][1] += 1
    else:
        notes.append("inner coforest sums collapsed via Cauchy-Binet")
        cols = [tuple(bd.data[i][j] for i in range(n_low))
                for j in range(bd.cols)]
        rhs.update(independent_subset_gram_sums(cols, b_low, processes))
    rows = []
    passed = True
    for m in range(1, b_low + 1):
        lhs = (-1) ** m * poly.coefficient(n_low - m)
        ok = lhs == rhs[m][0]
        passed = passed and ok
        row = {"k": m, "lhs": lhs, "rhs": rhs[m][0],
               "certificates": rhs[m][1], "pass": ok}
        if m == b_low:
            row["product_of_nonzero_eigenvalues"] = lhs
        rows.append(row)
    elapsed = (time.monotonic() - start) * 1000.0
    return VerificationReport("kirchhoff", d, rows, passed, elapsed, notes)


# ---------------------------------------------------------------------------
# Geometric-basis theorems.
# ---------------------------------------------------------------------------

def verify_geometric_theorems(x, d, v0=None, v1=None, processes=None):
    """Check the characteristic polynomials of the geometric cycle and
    boundary mesh matrices against their combinatorial double sums.

    Cycle side: the directly computed Gram coefficients are authoritative.
    Two candidate closed forms for the weights are evaluated: the
    torsion-ratio form with fixed denominator t_{d-1}(X_{V0}), and the
    variant whose denominator depends on the augmenting set U.  The report
    notes which of the two matches; they coincide exactly when V0 is
    torsion-free.  Boundary side: weights are squared relative orders of
    (d+1, d) pairs.
    """
    start = time.monotonic()
    if processes is None:
        processes = default_processes()
    if v0 is None:
        v0 = greedy_spanning_forest(x, d)
    if v1 is None:
        v1 = greedy_spanning_forest(x, d + 1) if d + 1 <= x.dimension \
            else CellSubset(d + 1, [])
    notes = []
    rows = []
    passed = True

    # --- cycle side ------------------------------------------------------
    g0 = geometric_cycle_basis(x, d, v0)
    z = g0.cols
    mesh0 = g0.transpose().mul(g0)
    coeffs = char_poly_rational(mesh0)
    basis = integral_cycle_basis(x, d)
    ctx = CycleWeightContext(x, d, basis)
    v0pos = set(x.positions(d, v0.members))
    t_v0 = ctx.torsion_subcomplex(sorted(v0pos))
    n = x.n_cells(d)
    free_positions = [j for j in range(n) if j not in v0pos]
    free_index = {p: i for i, p in enumerate(free_positions)}

    proof_rows = {k: Fraction(0) for k in range(z + 1)}
    counts = {k: 0 for k in range(z + 1)}
    by_extension = {}  # bitmask of V \ V0 over free positions -> sum of t_V^2
    for cert in enumerate_forests(x, d, "spanning_forest"):
        vpos = x.positions(d, cert.subset.members)
        t_v = ctx.torsion_subcomplex(vpos)
        ext = [p for p in vpos if p not in v0pos]
        j = len(ext)
        term = Fraction(t_v * t_v, t_v0 * t_v0)
        for k in range(j, z + 1):
            proof_rows[k] += comb(z - j, k - j) * term
            counts[k] += comb(z - j, k - j)
        mask = 0
        for p in ext:
            mask |= 1 << free_index[p]
        by_extension[mask] = by_extension.get(mask, 0) + t_v * t_v

    udep_rows = None
    if z <= 14:
        udep_rows = {k: Fraction(0) for k in range(z + 1)}
        masks = sorted(by_extension)
        for u_mask in range(1 << z):
            upos = sorted(v0pos) + [free_positions[i] for i in range(z)
                                    if u_mask >> i & 1]
            t_u = ctx.torsion_subcomplex(sorted(upos))
            k = bin(u_mask).count("1")
            inner = 0
            for m in masks:
                if m & ~u_mask == 0:
                    inner += by_extension[m]
            udep_rows[k] += Fraction(inner, t_u * t_u)

    cycle_match_proof = True
    cycle_match_udep = udep_rows is not None
    for k in range(z + 1):
        lhs = (-1) ** k * coeffs[z - k]
        ok = lhs == proof_rows[k]
        cycle_match_proof = cycle_match_proof and ok
        if udep_rows is not None and lhs != udep_rows[k]:
            cycle_match_udep = False
        passed = passed and ok
        row = {"side": "cycles", "k": k, "lhs": lhs, "rhs": proof_rows[k],
               "certificates": counts[k], "pass": ok}
        if udep_rows is not None:
            row["rhs_u_dependent_form"] = udep_rows[k]
        rows.append(row)
    notes.append("cycle closed form with denominator t(X_V0) matches: "
                 + str(cycle_match_proof))
    if udep_rows is not None:
        notes.append("cycle closed form with U-dependent denominator matches: "
                     + str(cycle_match_udep))

    # --- boundary side ---------------------------------------------------
    bd_up = boundary_matrix_above(x, d)
    b_up_rank = rank(bd_up)
    if len(v1.members) != b_up_rank:
        raise ComplexFormatError("V1 is not a spanning forest at dimension d+1")
    if b_up_rank == 0:
        rows.append({"side": "boundaries", "k": 0, "lhs": 1, "rhs": 1,
                     "certificates": 0, "pass": True})
        elapsed = (time.monotonic() - start) * 1000.0
        return VerificationReport("geometric", d, rows, passed, elapsed, notes)
    g1 = geometric_boundary_basis(x, d, v1)
    b = g1.cols
    mesh1 = g1.to_integer()
    gram1 = mesh1.transpose().mul(mesh1)
    poly1 = char_poly(gram1)
    v1pos = x.positions(d + 1, v1.members)
    n_low = x.n_cells(d)
    pair_mode = n_low <= 8
    rhs_rows = {k: [0, 0] for k in range(b + 1)}
    rhs_rows[0] = [1, 0]
    ids_low = x.cell_ids(d)
    ids_up = x.cell_ids(d + 1)
    # V1 is a forest, so every subset U of its columns is independent
    cols = [tuple(bd_up.data[i][j] for i in range(n_low)) for j in v1pos]
    for uidx, gram, _ in independent_subsets(cols):
        k = len(uidx)
        if pair_mode:
            upos = [v1pos[u] for u in uidx]
            rows_low = [tuple(bd_up.data[i][j] for j in upos)
                        for i in range(n_low)]
            usub = CellSubset(d + 1, [ids_up[j] for j in upos])
            for widx, det_sq, _ in independent_subsets(rows_low, k):
                if len(widx) < k:
                    continue
                comp = CellSubset(d, set(ids_low) -
                                  {ids_low[i] for i in widx})
                order = relative_order(x, usub, comp, d)
                if order * order != det_sq:
                    raise AssertionError("relative order mismatch")
                rhs_rows[k][0] += det_sq
                rhs_rows[k][1] += 1
        else:
            rhs_rows[k][0] += gram
            rhs_rows[k][1] += 1
    if not pair_mode:
        notes.append("boundary inner coforest sums collapsed via Cauchy-Binet")
    for k in range(b + 1):
        lhs = (-1) ** k * poly1.coefficient(b - k)
        ok = lhs == rhs_rows[k][0]
        passed = passed and ok
        rows.append({"side": "boundaries", "k": k, "lhs": lhs,
                     "rhs": rhs_rows[k][0], "certificates": rhs_rows[k][1],
                     "pass": ok})
    elapsed = (time.monotonic() - start) * 1000.0
    return VerificationReport("geometric", d, rows, passed, elapsed, notes)
