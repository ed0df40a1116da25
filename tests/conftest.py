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


def double_torsion(monkeypatch):
    """Make CycleWeightContext.torsion_subcomplex return twice t(X_W);
    t(X) is computed without it, so every torsion ratio doubles."""
    from cellmesh.forests import CycleWeightContext
    torsion_subcomplex = CycleWeightContext.torsion_subcomplex
    monkeypatch.setattr(CycleWeightContext, "torsion_subcomplex",
                        lambda ctx, positions: 2 * torsion_subcomplex(ctx, positions))


def double_v_order(monkeypatch):
    """Make BoundaryWeightContext.v_order return twice v(V,X), as a memo
    holding a wrong value would; u and the kernel are left alone."""
    from cellmesh.forests import BoundaryWeightContext
    v_order = BoundaryWeightContext.v_order
    monkeypatch.setattr(BoundaryWeightContext, "v_order",
                        lambda ctx, v_positions: 2 * v_order(ctx, v_positions))


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
