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
