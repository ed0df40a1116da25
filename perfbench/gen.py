"""Seeded input generators and the benchmark's own exact oracles.

Complexes are handled here as plain JSON documents in the cellmesh file
format, so cellmesh only ever sees the generated text.  The oracles (rank,
determinant, independent-subset count, characteristic-polynomial check) are
small Fraction-based routines kept separate from cellmesh on purpose: they
give the correctness gate a second, independent route for every value that
depends on the seed.
"""

from fractions import Fraction
from itertools import combinations


# ---------------------------------------------------------------------------
# Complex documents.
# ---------------------------------------------------------------------------

def complex_doc(x):
    """The file-format document of a cellmesh CellComplex."""
    cells = {}
    for d in range(x.dimension + 1):
        arr = []
        for cell in x.cells[d]:
            obj = {"id": cell.id}
            if d >= 1:
                obj["boundary"] = [[f, c] for f, c in cell.boundary]
            arr.append(obj)
        cells[str(d)] = arr
    return {"name": x.name, "dimension": x.dimension, "cells": cells}


def boundary_rows(doc, d):
    """The boundary matrix of d-chains as rows: (d-1)-cells x d-cells."""
    index = {c["id"]: i for i, c in enumerate(doc["cells"][str(d - 1)])}
    cols = doc["cells"][str(d)]
    rows = [[0] * len(cols) for _ in index]
    for j, cell in enumerate(cols):
        for f, c in cell["boundary"]:
            rows[index[f]][j] = c
    return rows


def drop_cells(doc, d, ids, name):
    """Remove top-dimensional d-cells (nothing may have them as a face)."""
    out = {"name": name, "dimension": doc["dimension"],
           "cells": {k: list(v) for k, v in doc["cells"].items()}}
    gone = set(ids)
    out["cells"][str(d)] = [c for c in doc["cells"][str(d)] if c["id"] not in gone]
    return out


def relabel(doc, rng):
    """Shuffle each dimension's cell order, rename every cell, and flip a
    random set of orientations consistently (a flipped cell negates its own
    boundary and every coefficient naming it), so dd = 0 still holds.

    Returns (new document, map old id -> new id).  Leaf counts and every
    basis-independent value of the complex are unchanged.
    """
    dim = doc["dimension"]
    rename = {}
    sign = {}
    order = {}
    for d in range(dim + 1):
        cells = doc["cells"].get(str(d), [])
        perm = list(range(len(cells)))
        rng.shuffle(perm)
        order[d] = perm
        for new_pos, old_pos in enumerate(perm):
            cid = cells[old_pos]["id"]
            rename[cid] = f"c{d}_{new_pos}"
            sign[cid] = -1 if (d >= 1 and rng.random() < 0.5) else 1
    cells_out = {}
    for d in range(dim + 1):
        cells = doc["cells"].get(str(d), [])
        arr = []
        for old_pos in order[d]:
            cell = cells[old_pos]
            obj = {"id": rename[cell["id"]]}
            if d >= 1:
                s = sign[cell["id"]]
                obj["boundary"] = [[rename[f], s * sign[f] * c]
                                   for f, c in cell["boundary"]]
            arr.append(obj)
        cells_out[str(d)] = arr
    return {"name": doc["name"], "dimension": dim, "cells": cells_out}, rename


def bouquet(rng, loops=12, disks=7, max_degree=3, name="bouquet"):
    """One vertex, `loops` loops and `disks` 2-cells with attaching degrees
    drawn from [-max_degree, max_degree].  Redrawn until the degree matrix
    has full column rank, so H_2 = 0 and the boundary lattice has rank
    `disks`.  Returns (document, degree matrix as loops x disks rows)."""
    while True:
        deg = [[rng.randint(-max_degree, max_degree) for _ in range(disks)]
               for _ in range(loops)]
        if rank(deg) == disks:
            break
    cells = {
        "0": [{"id": "v"}],
        "1": [{"id": f"l{i}", "boundary": []} for i in range(loops)],
        "2": [{"id": f"f{j}",
               "boundary": [[f"l{i}", deg[i][j]] for i in range(loops)
                            if deg[i][j]]}
              for j in range(disks)],
    }
    return {"name": name, "dimension": 2, "cells": cells}, deg


def unimodular(rng, n):
    """Random unimodular integer matrix: a product of 2n random steps, each a
    shear by +-1 or +-2, a row swap or a sign flip."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            q = rng.choice((-2, -1, 1, 2))
            m[i] = [a + q * b for a, b in zip(m[i], m[j])]
        elif kind == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-a for a in m[i]]
    return m


def positive_weight(rng, top=5):
    return Fraction(rng.randint(1, top), rng.randint(1, top))


# ---------------------------------------------------------------------------
# Independent exact oracles (Fractions, no cellmesh code).
# ---------------------------------------------------------------------------

def rank(rows):
    """Rank over Q of a list of integer or Fraction rows."""
    m = [[Fraction(v) for v in row] for row in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def det(rows):
    """Exact determinant of a square list of integer or Fraction rows."""
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out *= m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return out


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def matmul(a, b):
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def weighted_laplacian(doc, d, weights):
    """A W_d A^t W_{d-1}^-1 for the boundary matrix A at d, weights by cell id."""
    a = boundary_rows(doc, d)
    w_hi = [weights[c["id"]] for c in doc["cells"][str(d)]]
    w_lo = [weights[c["id"]] for c in doc["cells"][str(d - 1)]]
    return [[sum((Fraction(x * y) * w for x, y, w in zip(ra, rb, w_hi)), Fraction(0))
             / w_lo[j] for j, rb in enumerate(a)] for ra in a]


def independent_subset_count(vectors, max_size):
    """Number of nonempty linearly independent subsets of size <= max_size."""
    count = 0
    basis = []  # echelon rows (pivot column, Fraction row)

    def reduce(v):
        v = [Fraction(a) for a in v]
        for c, row in basis:
            if v[c]:
                f = v[c] / row[c]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def rec(start):
        nonlocal count
        for i in range(start, len(vectors)):
            v = reduce(vectors[i])
            c = next((j for j, a in enumerate(v) if a), None)
            if c is None:
                continue
            count += 1
            if len(basis) + 1 < max_size:
                basis.append((c, v))
                rec(i + 1)
                basis.pop()

    rec(0)
    return count


def maximal_minor_gcd(rows, width):
    """gcd of all width x width minors of a tall integer matrix."""
    from math import gcd
    g = 0
    for idx in combinations(range(len(rows)), width):
        g = gcd(g, int(det([rows[i] for i in idx])))
    return g


def check_char_poly(coeffs, matrix):
    """True when sum coeffs[k] t^k equals det(t I - matrix) at t = 0..n.

    Two polynomials of degree n agreeing at n + 1 points are equal, so this
    is a complete check by an independent route (determinants only).
    """
    n = len(matrix)
    if len(coeffs) != n + 1:
        return False
    for t in range(n + 1):
        shifted = [[(t if i == j else 0) - matrix[i][j] for j in range(n)]
                   for i in range(n)]
        value = sum(Fraction(c) * t ** k for k, c in enumerate(coeffs))
        if value != det(shifted):
            return False
    return True
