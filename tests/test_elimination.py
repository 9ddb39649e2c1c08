"""Differential tests of the exact elimination core against sympy.

The Bareiss loop is reached through ``rank_exact`` (Z[i]) and
``bareiss_det_poly`` / ``bareiss_rank_poly`` (Z[i][x]); the Gauss-Jordan
loop through ``rref``, ``_invert_exact``, ``_solve_square`` and
``FaceFunctional.evaluate``.  Sizes stay at most 4 x 4 with small
entries, and hypothesis runs derandomized, so every run checks the same
examples.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from sfpas.errors import InputError
from sfpas.families import _invert_exact
from sfpas.linalg import ZERO, CMatrix, GaussianRational, rank_exact, rref
from sfpas.polys import bareiss_det_poly, bareiss_rank_poly, poly_trim
from sfpas.toric import Fan, ToricMatrix, _solve_square, face_functional, k_membership

SETTINGS = settings(max_examples=80, derandomize=True, deadline=None)
X = sympy.Symbol("x")
QQ_I_X = QQ_I[X]

# zero entries are drawn often, so pivot searches skip rows and ranks drop
small_fraction = st.one_of(st.just(Fraction(0)), st.fractions(min_value=-3, max_value=3, max_denominator=3))
gaussian_rational = st.one_of(st.just(ZERO), st.builds(GaussianRational, small_fraction, small_fraction))
gaussian_integer = st.builds(GaussianRational, st.integers(-2, 2), st.integers(-2, 2))
# Z[i][x] entries of degree <= 1, constant term first
linear_poly = st.one_of(st.just(()), st.tuples(gaussian_integer, gaussian_integer).map(poly_trim))


def matrices(entries, max_dim=4, square=False):
    def shaped(dims):
        rows, cols = dims
        return st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)

    dim = st.integers(1, max_dim)
    shapes = dim.map(lambda n: (n, n)) if square else st.tuples(dim, dim)
    return shapes.flatmap(shaped)


def _qq(q):
    return QQ(q.numerator, q.denominator)


def _qq_i(z):
    return QQ_I(_qq(z.re), _qq(z.im))


def _dm_gaussian(rows):
    return DomainMatrix([[_qq_i(z) for z in row] for row in rows], (len(rows), len(rows[0])), QQ_I)


def _dm_rational(rows):
    return DomainMatrix([[_qq(Fraction(q)) for q in row] for row in rows], (len(rows), len(rows[0])), QQ)


def _poly_ring(p):
    x = QQ_I_X.gens[0]
    return sum((QQ_I_X(_qq_i(c)) * x**k for k, c in enumerate(p)), QQ_I_X.zero)


def _dm_poly(rows):
    return DomainMatrix([[_poly_ring(p) for p in row] for row in rows], (len(rows), len(rows[0])), QQ_I_X)


@SETTINGS
@given(matrices(gaussian_rational))
def test_rank_and_rref_match_sympy(rows):
    ref = _dm_gaussian(rows)
    assert rank_exact(CMatrix(rows)) == ref.rank()
    reduced, pivots = rref(CMatrix(rows))
    ref_reduced, ref_pivots = ref.rref()
    assert tuple(pivots) == tuple(ref_pivots)
    assert _dm_gaussian(reduced) == ref_reduced


@SETTINGS
@given(matrices(linear_poly, square=True))
def test_poly_det_matches_sympy(rows):
    assert _poly_ring(bareiss_det_poly(rows)) == _dm_poly(rows).det()


@SETTINGS
@given(matrices(linear_poly))
def test_poly_rank_matches_sympy(rows):
    ref = _dm_poly(rows).convert_to(QQ_I.frac_field(X)).rank()
    assert bareiss_rank_poly(rows, len(rows), len(rows[0])) == ref


@SETTINGS
@given(matrices(gaussian_rational, square=True))
def test_invert_exact_matches_sympy(rows):
    ref = _dm_gaussian(rows)
    if ref.rank() < len(rows):
        with pytest.raises(InputError):
            _invert_exact(CMatrix(rows))
    else:
        assert _dm_gaussian(_invert_exact(CMatrix(rows)).entries) == ref.inv()


@SETTINGS
@given(matrices(small_fraction, square=True), st.lists(small_fraction, min_size=4, max_size=4))
def test_solve_square_matches_sympy(rows, rhs):
    rhs = rhs[: len(rows)]
    ref = _dm_rational(rows)
    sol = _solve_square(rows, rhs)
    if ref.rank() < len(rows):
        assert sol is None
    else:
        expected = ref.inv() * _dm_rational([[q] for q in rhs])
        assert _dm_rational([[q] for q in sol]) == expected


@SETTINGS
@given(
    matrices(st.integers(-3, 3)),
    st.lists(st.integers(-3, 3), min_size=4, max_size=4),
    st.lists(st.one_of(st.just(0), st.integers(-2, 2)), min_size=4, max_size=4),
    st.lists(small_fraction, min_size=4, max_size=4),
)
def test_face_functional_evaluate_matches_sympy(rows, s, e, a):
    # the cone is spanned by the columns of rows; the point A s + e is off
    # the span exactly when sympy finds the augmented system inconsistent
    m, k = len(rows), len(rows[0])
    ref = sympy.Matrix(rows)
    assume(ref.rank() == k)
    identity = [[int(i == j) for j in range(m)] for i in range(m)]
    tm = ToricMatrix([row + ident for row, ident in zip(rows, identity)])
    level = a[:k] + [Fraction(0)] * m
    f = face_functional(range(1, k + 1), level, tm)
    x = [sum(r * c for r, c in zip(row, s)) + d for row, d in zip(rows, e)]
    if ref.row_join(sympy.Matrix(x)).rank() > k:
        with pytest.raises(InputError, match="outside the span"):
            f.evaluate(x)
    else:
        coeffs, _ = ref.gauss_jordan_solve(sympy.Matrix(x))
        expected = -sum(c * sympy.Rational(q.numerator, q.denominator) for c, q in zip(coeffs, a))
        assert sympy.Rational(f.evaluate(x)) == expected


def test_invert_exact_singular_raises():
    with pytest.raises(InputError, match="singular"):
        _invert_exact(CMatrix([[1, 2], [2, 4]]))


def test_k_membership_dependent_full_cone_raises():
    # the cone {1, 4} has the dependent rays (1, 0) and (2, 0)
    tm = ToricMatrix([[1, 0, -1, 2], [0, 1, -1, 0]])
    fan = Fan([[1, 2], [2, 3], [1, 4]])
    with pytest.raises(InputError, match="non-simplicial"):
        k_membership(fan, tm, [1, 1, 1, 1])
