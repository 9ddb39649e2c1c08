"""Random flag chains drawn like those of acceptance criterion 1."""

from fractions import Fraction

from sfpas import families
from sfpas.linalg import CMatrix, GaussianRational


def random_chain(rng):
    """A chain of length 1-3 with dimensions 1-4, entries p/q with
    q in 1..3 and |p/q| <= 3, and levels in {1/2, 1, 2}; rng is a
    random.Random."""
    m = rng.randint(1, 3)
    dims = [rng.randint(1, 4) for _ in range(m + 1)]
    maps = []
    for i in range(m):
        rows, cols = dims[i + 1], dims[i]
        ent = []
        for _ in range(rows):
            row = []
            for _ in range(cols):
                q = rng.randint(1, 3)
                p = rng.randint(-3 * q, 3 * q)
                row.append(GaussianRational(Fraction(p, q)))
            ent.append(row)
        maps.append(CMatrix(ent))
    level = [rng.choice([Fraction(1, 2), Fraction(1), Fraction(2)]) for _ in range(m)]
    return families.FlagChain(dims, maps, level)
