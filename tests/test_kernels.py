"""Self-tests of the oracle's own integer rank and determinant."""

import random
import sys
from fractions import Fraction
from pathlib import Path

import sympy

from sfpas.linalg import CMatrix, rank_exact

sys.path.insert(0, str(Path(__file__).parent))
from oracles import det_int, rank_int  # noqa: E402


def random_matrix(rng, lo=-9, hi=9, max_dim=6):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_det_matches_sympy():
    rng = random.Random(19)
    for _ in range(100):
        n = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det_int(m) == sympy.Matrix(m).det()


def test_big_entries_use_exact_arithmetic():
    big = 10 ** 30
    m = [[big, 1], [1, big]]
    assert det_int(m) == big * big - 1
    assert rank_int(m) == 2
    assert rank_int([[big, big], [big, big]]) == 1


def test_rank_matches_exact_field_rank():
    rng = random.Random(23)
    for _ in range(100):
        m = random_matrix(rng, max_dim=5)
        exact = rank_exact(CMatrix([[Fraction(x) for x in row] for row in m]))
        assert rank_int(m) == exact


def test_det_known_values():
    assert det_int([]) == 1
    assert det_int([[5]]) == 5
    assert det_int([[1, 2], [3, 4]]) == -2
    assert det_int([[0, 1], [1, 0]]) == -1
    assert det_int([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0


def test_rank_empty_and_degenerate():
    assert rank_int([]) == 0
    assert rank_int([[0, 0], [0, 0]]) == 0
    assert rank_int([[0, 3]]) == 1
