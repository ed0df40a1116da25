"""Exact dense linear algebra over arbitrary-precision integers and rationals.

Matrices are thin wrappers around lists of Python ints (IntMatrix) or
fractions.Fraction (RatMatrix); every routine is pure and returns fresh
objects.  No floating point anywhere.  Empty shapes (0xn, nx0, 0x0) are
legal throughout, with the empty-product conventions det(0x0) = 1 and
char poly of the 0x0 matrix = 1.  Characteristic polynomials, of either
matrix type, come from one integer Faddeev-LeVerrier kernel, denominators
cleared by their lcm.
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

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

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
        out = []
        for arow in self.data:
            out.append([sum(a * b for a, b in zip(arow, bcol)) for bcol in bt])
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

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

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
        out = []
        for arow in self.data:
            out.append([sum(a * b for a, b in zip(arow, bcol)) for bcol in bt])
        return RatMatrix(self.rows, other.cols, out)

    def submatrix(self, row_idx, col_idx):
        row_idx = list(row_idx)
        col_idx = list(col_idx)
        return RatMatrix(len(row_idx), len(col_idx),
                         [[self.data[i][j] for j in col_idx] for i in row_idx])

    def is_integral(self):
        return all(x.denominator == 1 for row in self.data for x in row)

    def to_integer(self):
        if not self.is_integral():
            raise ValueError("matrix has non-integer entries")
        return IntMatrix(self.rows, self.cols,
                         [[int(x) for x in row] for row in self.data])

    def det(self):
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return det_rational([row[:] for row in self.data])


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

    def degree(self):
        return len(self.coeffs) - 1

    def coefficient(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __call__(self, t):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"

    def __str__(self):
        if self.coeffs == (0,):
            return "0"
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(f"{c:+d}")
            else:
                mono = "t" if k == 1 else f"t^{k}"
                if c == 1:
                    terms.append(f"+{mono}")
                elif c == -1:
                    terms.append(f"-{mono}")
                else:
                    terms.append(f"{c:+d}*{mono}")
        s = " ".join(terms)
        return s[1:] if s.startswith("+") else s


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


def rank_of_rows(rows, ncols):
    """Rank of an integer matrix given as list of row-lists; destroys rows."""
    rank = 0
    col = 0
    m = len(rows)
    while rank < m and col < ncols:
        piv = None
        for i in range(rank, m):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        pv = prow[col]
        for i in range(rank + 1, m):
            f = rows[i][col]
            if f:
                row_i = rows[i]
                for j in range(col, ncols):
                    row_i[j] = pv * row_i[j] - f * prow[j]
        rank += 1
        col += 1
    return rank


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
    """Rank over the rationals, computed fraction-free."""
    return rank_of_rows([row[:] for row in a.data], a.cols)


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


def invariant_factors(a):
    """Nontrivial (> 1) invariant factors of the integer matrix a, in order."""
    return [x for x in smith_normal_form(a).invariant_factors() if x != 1]


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


def kernel_columns(rows, ncols):
    """Columns of the canonical basis of the saturated kernel {x : A x = 0},
    for A given as a list of int rows of length ncols.

    Cohen, A Course in Computational Algebraic Number Theory (1993), 2.4:
    reduce the columns of the stacked matrix [A; I] to column Hermite form
    on the rows of A.  The operations are unimodular, so the identity part
    records a unimodular transform U with [A; I] U = [H; U], and the columns
    of U under a zero A-part are a basis of the kernel that is a direct
    summand of Z^ncols (saturated).  Their canonical column Hermite form
    depends only on the kernel lattice.
    """
    m = len(rows)
    cols = [[row[j] for row in rows] + [0] * j + [1] + [0] * (ncols - j - 1)
            for j in range(ncols)]
    r = _column_hermite_reduce(cols, m)
    ker = [col[m:] for col in cols[r:]]
    _column_hermite_reduce(ker, ncols)
    return ker


def kernel_basis(a):
    """Basis of the saturated integer kernel lattice {x : A x = 0}.

    Columns form a basis of ker(A) as a direct summand of Z^cols (all
    invariant factors 1), in canonical column Hermite form.  They come from
    a column Hermite reduction of [A; I] with its transform (Cohen 1993,
    2.4), not from a Smith form; see kernel_columns.
    """
    n = a.cols
    ker = kernel_columns(a.data, n)
    return IntMatrix(n, len(ker), [[col[i] for col in ker] for i in range(n)])


def gram_det_of(vectors):
    """det of the Gram matrix [<v_i, v_j>] of a list of integer vectors;
    1 for no vectors."""
    return det_bareiss([[sum(map(mul, vi, vj)) for vj in vectors] for vi in vectors])


def gram_det(b):
    """det(B^t B): the squared covolume of the column lattice of B.

    Equals 1 for a matrix with no columns (empty product).
    """
    return gram_det_of([[b.data[i][j] for i in range(b.rows)] for j in range(b.cols)])


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
