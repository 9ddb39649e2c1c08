import json
import random
from fractions import Fraction

import numpy as np
import pytest

from sfpas.linalg import (
    CMatrix,
    GaussianRational,
    HermitianTuple,
    ModeError,
    NonHermitianError,
    fraction_to_str,
    kernel_basis,
    matrix_from_columns,
    parse_fraction,
    rank_exact,
    rref,
    scalar_from_json,
    scalar_to_json,
)


def test_scalar_arithmetic_reduced_form():
    a = GaussianRational(Fraction(2, 4), Fraction(-6, 4))
    assert a.re == Fraction(1, 2) and a.im == Fraction(-3, 2)
    b = GaussianRational(1, 1)
    assert (a * b).re == a.re + Fraction(3, 2)
    assert a.conj().im == Fraction(3, 2)
    assert a.abs2() == Fraction(1, 4) + Fraction(9, 4)


def test_rank_identity():
    assert rank_exact(CMatrix.identity(2)) == 2


def test_rank_zero_matrix():
    assert rank_exact(CMatrix.zeros(3, 2)) == 0


def test_rank_three_by_two():
    assert rank_exact(CMatrix([[1, 0], [0, 1], [1, 1]])) == 2


def test_rank_requires_exact_mode():
    with pytest.raises(ModeError):
        rank_exact(CMatrix.identity(2).to_float())


def test_rank_with_gaussian_entries():
    i = GaussianRational(0, 1)
    m = CMatrix([[1, i], [i, GaussianRational(-1)]])
    # second row is i * first row
    assert rank_exact(m) == 1


def test_kernel_identity_empty():
    assert kernel_basis(CMatrix.identity(3)) == []


def test_kernel_zero_two_by_two():
    assert len(kernel_basis(CMatrix.zeros(2, 2))) == 2


def test_kernel_one_by_two():
    (vec,) = kernel_basis(CMatrix([[1, 1]]))
    assert vec[0] == -vec[1]


def test_kernel_vectors_annihilate():
    m = CMatrix([[1, 2, 3], [2, 4, 6]])
    for vec in kernel_basis(m):
        col = matrix_from_columns([vec], 3)
        prod = m @ col
        assert all(e.is_zero() for row in prod.entries for e in row)


def test_rank_of_adjoint_matches():
    rng = random.Random(7)
    for _ in range(50):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = CMatrix(
            [
                [
                    GaussianRational(rng.randint(-5, 5), rng.randint(-5, 5))
                    for _ in range(cols)
                ]
                for _ in range(rows)
            ]
        )
        assert rank_exact(m) == rank_exact(m.adjoint())


def test_rank_plus_kernel_dimension():
    rng = random.Random(11)
    for _ in range(50):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = CMatrix([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        assert cols - rank_exact(m) == len(kernel_basis(m))


def test_rank_agrees_with_float_rank():
    rng = random.Random(3)
    for _ in range(100):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        ints = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        exact = rank_exact(CMatrix(ints))
        svals = np.linalg.svd(np.array(ints, dtype=float), compute_uv=False)
        assert exact == int(np.sum(svals > 1e-9))


def test_hermitian_tuple_validation():
    HermitianTuple([CMatrix([[1, GaussianRational(0, 1)], [GaussianRational(0, -1), 2]])])
    with pytest.raises(NonHermitianError):
        HermitianTuple([CMatrix([[0, 1], [0, 0]])])
    HermitianTuple([CMatrix.from_numpy(np.array([[1.0, 2j], [-2j, 3.0]]))])
    with pytest.raises(NonHermitianError):
        HermitianTuple([CMatrix.from_numpy(np.array([[0.0, 1.0], [0.0, 0.0]]))])


def test_json_rational_roundtrip():
    for q in [Fraction(3), Fraction(-7, 2), Fraction(0)]:
        assert parse_fraction(fraction_to_str(q)) == q
    assert fraction_to_str(Fraction(5)) == "5"
    assert fraction_to_str(Fraction(-1, 3)) == "-1/3"


def test_json_matrix_roundtrip():
    m = CMatrix([[GaussianRational(Fraction(1, 2), -2), 3], [0, GaussianRational(0, Fraction(1, 7))]])
    blob = json.dumps(m.to_json())
    back = CMatrix.from_json(json.loads(blob))
    assert back == m


def test_json_scalar_forms():
    assert scalar_from_json("3/2") == GaussianRational(Fraction(3, 2))
    assert scalar_from_json(5) == GaussianRational(5)
    assert scalar_from_json({"re": "1", "im": "-2/3"}) == GaussianRational(1, Fraction(-2, 3))
    assert scalar_to_json(GaussianRational(1, 2)) == {"re": "1", "im": "2"}


def test_rref_deterministic_pivoting():
    m = CMatrix([[0, 2], [1, 1], [2, 2]])
    rows, pivots = rref(m)
    assert pivots == [0, 1]
    # first nonzero pivot row chosen in order: row 1 becomes the leading row
    assert rows[0][0] == GaussianRational(1)
