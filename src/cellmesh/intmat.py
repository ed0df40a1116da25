"""Exact dense linear algebra over arbitrary-precision integers.

Every elimination in the package runs on lists of Python ints (IntMatrix),
by one of four schemes: Bareiss (determinants and solves), Hermite (rank,
kernels and Hermite forms), Smith (Smith forms) and Faddeev-LeVerrier
(characteristic polynomials).  RatMatrix, over fractions.Fraction, is only
the value type of rational outputs (weighted Laplacians, Kalai matrices,
geometric cycle bases); their characteristic polynomials clear
denominators by their lcm and run on the integer kernel.  The weighted
Laplacians and Kalai matrices come from one builder, weighted_gram, which
accumulates in int and makes one Fraction per entry.  Every routine is
pure and returns fresh objects, and there is no floating point anywhere.
Empty shapes (0xn, nx0, 0x0) are legal throughout, with the empty-product
conventions det(0x0) = 1 and char poly of the 0x0 matrix = 1.
"""

from fractions import Fraction
from math import lcm
from operator import mul


class IntMatrix:
    """Dense integer matrix, row-major.  Treated as immutable."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data):
        if len(data) != rows:
            raise ValueError("row count mismatch")
        for row in data:
            if len(row) != cols:
                raise ValueError("column count mismatch")
        self.rows = rows
        self.cols = cols
        self.data = [list(map(int, row)) for row in data]

    @classmethod
    def from_rows(cls, data):
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return cls(rows, cols, data)

    @classmethod
    def identity(cls, n):
        return cls(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, {self.data})"

    def transpose(self):
        return IntMatrix(self.cols, self.rows,
                         [[self.data[i][j] for i in range(self.rows)]
                          for j in range(self.cols)])

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        bt = [[other.data[i][j] for i in range(other.rows)] for j in range(other.cols)]
        out = [[sum(map(mul, arow, bcol)) for bcol in bt] for arow in self.data]
        return IntMatrix(self.rows, other.cols, out)

    def submatrix(self, row_idx, col_idx):
        row_idx = list(row_idx)
        col_idx = list(col_idx)
        return IntMatrix(len(row_idx), len(col_idx),
                         [[self.data[i][j] for j in col_idx] for i in row_idx])

    def is_zero(self):
        return all(all(x == 0 for x in row) for row in self.data)

    def det(self):
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return det_bareiss([row[:] for row in self.data])


class RatMatrix:
    """Dense matrix over Fractions (always in lowest terms).  Immutable."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("shape mismatch")
        self.rows = rows
        self.cols = cols
        self.data = [[x if isinstance(x, Fraction) else Fraction(x) for x in row]
                     for row in data]

    @classmethod
    def from_rows(cls, data):
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return cls(rows, cols, data)

    def __eq__(self, other):
        return (isinstance(other, RatMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __repr__(self):
        return f"RatMatrix({self.rows}x{self.cols}, {self.data})"

    def transpose(self):
        return RatMatrix(self.cols, self.rows,
                         [[self.data[i][j] for i in range(self.rows)]
                          for j in range(self.cols)])

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        bt = [[other.data[i][j] for i in range(other.rows)] for j in range(other.cols)]
        out = [[sum(map(mul, arow, bcol)) for bcol in bt] for arow in self.data]
        return RatMatrix(self.rows, other.cols, out)


class IntPolynomial:
    """Polynomial in one variable t with integer coefficients, index = degree.

    The zero polynomial is stored as (0,); otherwise the leading coefficient
    is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [int(c) for c in coeffs]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            coeffs = [0]
        self.coeffs = tuple(coeffs)

    def coefficient(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"


class SmithDecomposition:
    """U * A * V = D with U, V unimodular and D diagonal, d_i | d_{i+1} >= 0."""

    __slots__ = ("u", "d", "v")

    def __init__(self, u, d, v):
        self.u = u
        self.d = d
        self.v = v

    def diagonal(self):
        return [self.d.data[i][i] for i in range(min(self.d.rows, self.d.cols))]

    def invariant_factors(self):
        return [x for x in self.diagonal() if x != 0]


# ---------------------------------------------------------------------------
# Low-level kernels on raw lists of lists (hot paths).
# ---------------------------------------------------------------------------

def det_bareiss(m):
    """Fraction-free determinant of a square list-of-lists; destroys m."""
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            f = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - f * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def det_rational(m):
    """Gaussian determinant of a square list-of-lists of Fractions; destroys m."""
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        piv = None
        for i in range(k, n):
            if m[i][k]:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            if m[i][k]:
                f = m[i][k] * inv
                row_i, row_k = m[i], m[k]
                for j in range(k, n):
                    row_i[j] -= f * row_k[j]
    return det


def invariant_factor_product(m):
    """Product of the invariant factors (>= 1) of an integer matrix.

    m is a list of row-lists and is destroyed.  This is the order of the
    torsion part of the cokernel when the matrix has full column rank, and
    more generally the product of all nonzero diagonal entries of the Smith
    form.  Divisibility normalization is skipped since it cannot change the
    product.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    product = 1
    top = 0
    while True:
        # locate a pivot of minimal absolute value in m[top:, :]
        best_i = best_j = -1
        best = 0
        for i in range(top, rows):
            row = m[i]
            for j in range(cols):
                a = row[j]
                if a:
                    a = -a if a < 0 else a
                    if best == 0 or a < best:
                        best, best_i, best_j = a, i, j
                        if a == 1:
                            break
            if best == 1:
                break
        if best == 0:
            return product
        if best_i != top:
            m[top], m[best_i] = m[best_i], m[top]
        prow = m[top]
        j = best_j
        while True:
            # clear column j below top, gcd-style
            dirty = False
            pv = prow[j]
            for i in range(top + 1, rows):
                a = m[i][j]
                if a:
                    q = a // pv
                    if q:
                        row_i = m[i]
                        for jj in range(cols):
                            row_i[jj] -= q * prow[jj]
                    if m[i][j]:
                        # remainder smaller than pivot: swap up and retry
                        m[top], m[i] = m[i], m[top]
                        prow = m[top]
                        pv = prow[j]
                        dirty = True
            if dirty:
                continue
            # clear row top outside column j by column ops
            pv = prow[j]
            dirty = False
            for jj in range(cols):
                if jj != j and prow[jj]:
                    q = prow[jj] // pv
                    if q:
                        for i in range(top, rows):
                            m[i][jj] -= q * m[i][j]
                    if prow[jj]:
                        # column remainder became the new, smaller pivot
                        j = jj
                        dirty = True
                        break
            if not dirty:
                break
        product *= prow[j] if prow[j] > 0 else -prow[j]
        # drop pivot row and column
        for i in range(top, rows):
            m[i][j] = 0
        prow[:] = [0] * cols
        top += 1
        if top == rows:
            return product


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------

def rank(a):
    """Rank over the rationals: the number of pivots of the column Hermite
    reduction of a copy of a's columns (_column_hermite_reduce)."""
    return _column_hermite_reduce([list(col) for col in zip(*a.data)], a.rows)


def solve_bareiss(a, b):
    """Fraction-free Gauss-Jordan solve of A X = B for A of full column rank.

    Returns (D, X) with X an integer matrix, D > 0 and A X = D B; D is the
    |determinant| of the n pivot rows of A, so X / D is the unique rational
    solution.  Step k turns every other row into (p_k row - a_ik row_k) /
    p_{k-1}, p_k the k-th pivot; each division is exact, since every entry
    is a minor of [A | B] (Bareiss, Math. Comp. 22, 1968).  Raises ValueError
    when A is rank deficient or the system is inconsistent.
    """
    m, n = a.rows, a.cols
    if b.rows != m:
        raise ValueError("shape mismatch")
    aug = [ra + rb for ra, rb in zip(a.data, b.data)]
    prev = 1
    for c in range(n):
        piv = next((i for i in range(c, m) if aug[i][c]), None)
        if piv is None:
            raise ValueError("matrix does not have full column rank")
        aug[c], aug[piv] = aug[piv], aug[c]
        prow = aug[c][c:]
        pv = prow[0]
        for i in range(m):
            if i != c:
                row = aug[i]
                f = row[c]
                row[c:] = [(pv * x - f * y) // prev for x, y in zip(row[c:], prow)]
        prev = pv
    if any(any(row[n:]) for row in aug[n:]):
        raise ValueError("inconsistent system")
    sign = -1 if prev < 0 else 1
    return sign * prev, IntMatrix(n, b.cols, [[sign * x for x in row[n:]]
                                              for row in aug[:n]])


def smith_normal_form(a):
    """Smith normal form with unimodular transforms: U*A*V = D.

    D is diagonal with nonnegative entries forming a divisibility chain;
    the nonzero entries are the invariant factors of the lattice map A.
    Pivots of minimal absolute value are chosen to limit entry growth.
    """
    rows, cols = a.rows, a.cols
    d = [row[:] for row in a.data]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i1, i2):
        d[i1], d[i2] = d[i2], d[i1]
        u[i1], u[i2] = u[i2], u[i1]

    def swap_cols(j1, j2):
        for row in d:
            row[j1], row[j2] = row[j2], row[j1]
        for row in v:
            row[j1], row[j2] = row[j2], row[j1]

    def add_row(dst, src, q):
        # row_dst -= q * row_src
        drow, srow = d[dst], d[src]
        for j in range(cols):
            drow[j] -= q * srow[j]
        drow, srow = u[dst], u[src]
        for j in range(rows):
            drow[j] -= q * srow[j]

    def add_col(dst, src, q):
        # col_dst -= q * col_src
        for row in d:
            row[dst] -= q * row[src]
        for row in v:
            row[dst] -= q * row[src]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # minimal nonzero |entry| in the remaining submatrix
        best_i = best_j = -1
        best = 0
        for i in range(t, rows):
            for j in range(t, cols):
                x = d[i][j]
                if x:
                    x = -x if x < 0 else x
                    if best == 0 or x < best:
                        best, best_i, best_j = x, i, j
        if best == 0:
            break
        if best_i != t:
            swap_rows(t, best_i)
        if best_j != t:
            swap_cols(t, best_j)
        while True:
            # clear column t
            restart = False
            for i in range(t + 1, rows):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    if q:
                        add_row(i, t, q)
                    if d[i][t]:
                        swap_rows(t, i)
                        restart = True
            if restart:
                continue
            # clear row t
            for j in range(t + 1, cols):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    if q:
                        add_col(j, t, q)
                    if d[t][j]:
                        swap_cols(t, j)
                        restart = True
            if restart:
                continue
            # enforce that the pivot divides every remaining entry
            pv = d[t][t]
            offender = None
            for i in range(t + 1, rows):
                row = d[i]
                for j in range(t + 1, cols):
                    if row[j] % pv:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, -1)
        if d[t][t] < 0:
            for j in range(cols):
                d[t][j] = -d[t][j]
            for j in range(rows):
                u[t][j] = -u[t][j]
        t += 1

    return SmithDecomposition(IntMatrix(rows, rows, u),
                              IntMatrix(rows, cols, d),
                              IntMatrix(cols, cols, v))


def _column_hermite_reduce(cols, nrows):
    """Reduce the integer columns `cols` in place, by unimodular column
    operations, to canonical column Hermite form on rows 0..nrows-1; return
    the rank r there.  Entries below row nrows are carried along.

    Afterwards cols[:r] are echelon on those rows with strictly increasing
    pivot rows, positive pivots and entries left of each pivot reduced into
    [0, pivot), and cols[r:] are zero on them.  Each pivot row takes the
    column of least nonzero |entry| and gcd-combines the later columns into
    it by the Euclidean algorithm.
    """
    n = len(cols)
    pivots = []
    for r in range(nrows):
        c = len(pivots)
        if c == n:
            break
        best = 0
        for j in range(c, n):
            a = cols[j][r]
            if a:
                a = -a if a < 0 else a
                if best == 0 or a < best:
                    best, bj = a, j
                    if a == 1:
                        break
        if best == 0:
            continue
        cols[c], cols[bj] = cols[bj], cols[c]
        for j in range(c + 1, n):
            a, b = cols[c], cols[j]
            if b[r]:
                while b[r]:
                    q = a[r] // b[r]
                    a, b = b, [x - q * y for x, y in zip(a, b)]
                cols[c], cols[j] = a, b
        pivots.append(r)
    for c, r in enumerate(pivots):
        pc = cols[c]
        if pc[r] < 0:
            pc = cols[c] = [-x for x in pc]
        pv = pc[r]
        for j in range(c):
            q = cols[j][r] // pv
            if q:
                cols[j] = [x - q * y for x, y in zip(cols[j], pc)]
    return len(pivots)


def column_hermite(a):
    """Canonical column Hermite form of the column lattice of a.

    Returns a matrix whose columns are a basis of the lattice spanned by the
    columns of a: column echelon with strictly increasing pivot rows,
    positive pivots, and entries left of each pivot reduced into [0, pivot).
    Zero columns are dropped, so the result has rank-many columns.
    """
    rows = a.rows
    cols = [[a.data[i][j] for i in range(rows)] for j in range(a.cols)]
    kept = cols[:_column_hermite_reduce(cols, rows)]
    return IntMatrix(rows, len(kept), [[col[i] for col in kept] for i in range(rows)])


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
    else:  # the first column of least nonzero |entry|
        sizes = list(map(abs, tail))
        p = sizes.index(min(filter(None, sizes)))
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


def _apply_pivot_ops_in_place(t, p, ops):
    """The list `t` through the column operations (p, ops) of _pivot_ops,
    in place, with the pivot column p dropped; returns `t`, one entry
    shorter.  A caller that keeps the row passes a copy."""
    sp = t[p]
    for c, x, y, u, v in ops:
        sc = t[c]
        sp, t[c] = x * sp + y * sc, u * sp + v * sc
    del t[p]
    return t


def kernel_basis(a):
    """Basis of the saturated integer kernel lattice {x : A x = 0}.

    Cohen, A Course in Computational Algebraic Number Theory (1993), 2.4:
    reduce the columns of the stacked matrix [A; I] to column Hermite form
    on the rows of A.  The operations are unimodular, so the identity part
    records a unimodular transform U with [A; I] U = [H; U], and the columns
    of U under a zero A-part are a basis of the kernel that is a direct
    summand of Z^cols (all invariant factors 1).  They are returned in
    canonical column Hermite form, which depends only on the kernel lattice.
    """
    m, n = a.rows, a.cols
    cols = [[row[j] for row in a.data] + [0] * j + [1] + [0] * (n - j - 1)
            for j in range(n)]
    ker = [col[m:] for col in cols[_column_hermite_reduce(cols, m):]]
    _column_hermite_reduce(ker, n)
    return IntMatrix(n, len(ker), [[col[i] for col in ker] for i in range(n)])


def gram_det_of(vectors):
    """det of the Gram matrix [<v_i, v_j>] of a list of integer vectors;
    1 for no vectors.  Each dot product is taken once, for the upper
    triangle, and mirrored."""
    n = len(vectors)
    gram = [[0] * n for _ in range(n)]
    for i, vi in enumerate(vectors):
        row = gram[i]
        for j in range(i, n):
            row[j] = gram[j][i] = sum(map(mul, vi, vectors[j]))
    return det_bareiss(gram)


def gram_det(b):
    """det(B^t B): the squared covolume of the column lattice of B.

    Equals 1 for a matrix with no columns (empty product).
    """
    return gram_det_of([[b.data[i][j] for i in range(b.rows)] for j in range(b.cols)])


def weighted_gram(a, mid_weights, row_weights):
    """A diag(mid_weights) A^t diag(row_weights)^{-1} as a RatMatrix, for
    an integer A and positive int or Fraction weights.

    The right factor makes it a square-root-free representative of the
    symmetric diag(row_weights)^{-1/2} A diag(mid_weights) A^t
    diag(row_weights)^{-1/2}, so it has the same characteristic polynomial.
    The weighted Gram matrix is accumulated in int over each column's
    nonzero entries, with the mid weights scaled by the lcm D of their
    denominators; each entry then becomes one Fraction of two ints.
    """
    m = a.rows
    d = lcm(*(w.denominator for w in mid_weights))
    acc = [[0] * m for _ in range(m)]
    for w, col in zip(mid_weights, zip(*a.data)):
        w = w.numerator * (d // w.denominator)
        nonzero = [(i, x) for i, x in enumerate(col) if x]
        for pos, (i, x) in enumerate(nonzero):
            wx = w * x
            row = acc[i]
            for j, y in nonzero[pos:]:
                row[j] += wx * y
    return RatMatrix(m, m, [
        [Fraction(acc[min(i, j)][max(i, j)] * rw.denominator, d * rw.numerator)
         for j, rw in enumerate(row_weights)] for i in range(m)])


def _faddeev_leverrier(a):
    """Characteristic coefficients [c_0, ..., c_n] of a square list of int rows.

    Every M_k of the recursion is an integer matrix, so each division of its
    trace by k is exact; a nonzero remainder means the kernel is broken and
    raises ArithmeticError.
    """
    n = len(a)
    coeffs = [0] * n + [1]
    mk = [row[:] for row in a]  # M_1 = A
    for k in range(1, n + 1):
        trace = sum(mk[i][i] for i in range(n))
        c, rem = divmod(-trace, k)
        if rem:
            raise ArithmeticError(f"trace {trace} of M_{k} is not divisible by {k}")
        coeffs[n - k] = c
        if k == n:
            break
        # M_{k+1} = A (M_k + c I)
        for i in range(n):
            mk[i][i] += c
        cols = list(zip(*mk))
        mk = [[sum(map(mul, row, col)) for col in cols] for row in a]
    return coeffs


def clear_denominators(m, extra=()):
    """(D, D*M as a list of int rows), D the lcm of the entry denominators.

    The denominators of the ints or Fractions in `extra` enter the lcm too.
    Works for IntMatrix (D = 1) and RatMatrix.
    """
    d = lcm(*{x.denominator for row in m.data for x in row},
            *(x.denominator for x in extra))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in m.data]


def char_poly(m):
    """Exact characteristic polynomial det(t*Id - M) of a square matrix.

    Integer Faddeev-LeVerrier, denominators cleared by their lcm.  For a
    RatMatrix every coefficient must come out an integer or ValueError is
    raised, signalling caller misuse.  The 0x0 matrix gives the constant
    polynomial 1.
    """
    if not isinstance(m, IntMatrix):
        out = []
        for c in char_poly_rational(m):
            if c.denominator != 1:
                raise ValueError(f"non-integral characteristic coefficient {c}")
            out.append(int(c))
        return IntPolynomial(out)
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    return IntPolynomial(_faddeev_leverrier(m.data))


def char_poly_rational(m):
    """Characteristic coefficients as Fractions, by integer Faddeev-LeVerrier
    with the denominators cleared by their lcm.

    Returns [c_0, ..., c_n] with det(t*Id - M) = sum c_k t^k, c_n = 1.
    Accepts IntMatrix or RatMatrix; works for non-symmetric input.  With D
    the lcm of the entry denominators, D*M is integral and its coefficients
    are c_k * D^(n-k).
    """
    if m.rows != m.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.rows
    d, scaled = clear_denominators(m)
    return [Fraction(c, d ** (n - k))
            for k, c in enumerate(_faddeev_leverrier(scaled))]


def principal_minor_sum(m, k):
    """k-th elementary symmetric function of the eigenvalues of a square M.

    Evaluated as the sum of all k x k principal minors (the brute-force
    oracle for characteristic-polynomial coefficients).  Returns a Fraction
    for rational input and an int for integer input.  k = 0 gives 1.
    """
    if m.rows != m.cols:
        raise ValueError("principal minors of a non-square matrix")
    n = m.rows
    if not 0 <= k <= n:
        raise ValueError(f"minor order {k} out of range 0..{n}")
    if k == 0:
        return 1 if isinstance(m, IntMatrix) else Fraction(1)
    from itertools import combinations
    if isinstance(m, IntMatrix):
        total = 0
        for idx in combinations(range(n), k):
            sub = [[m.data[i][j] for j in idx] for i in idx]
            total += det_bareiss(sub)
        return total
    total = Fraction(0)
    for idx in combinations(range(n), k):
        sub = [[m.data[i][j] for j in idx] for i in idx]
        total += det_rational(sub)
    return total
