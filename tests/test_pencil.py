"""Tests of the pencil-triple decision ``families.stromme_check``.

- A sympy oracle that shares no code with sfpas: the maximal minors of
  [x k + l | m] over QQ_I[x] have a common zero on P^1 iff their gcd has
  positive degree or every minor of [k | m] (the top coefficients, the
  values at (1 : 0)) vanishes; cond1 is the rank of x k + l over
  QQ_I(x).  Entries are Gaussian rationals with nonzero imaginary parts,
  shapes reach u = 3 and v = 5, and some draws plant l = c k with a
  complex c, so the rank drops at a point off the real line.
- Fixed triples for each way cond2 can go: v = 0, m of rank v, every
  minor identically zero, a common zero only at (1 : 0), drops at
  non-real points, and a Wong sequence that needs two steps.
- Invariance under (k, l, m) -> (A k B, A l B, A m C) for invertible A,
  B, C over Q(i), and under GL_2 acting on (x : y).
- An elimination-count budget: at most u + 2 ``rank_exact`` and n' + 2
  ``kernel_basis`` calls per triple, n' the corank of m.

Hypothesis runs derandomized with fixed ``max_examples``, so every run
checks the same examples.
"""

from itertools import combinations

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from sfpas import families
from sfpas.families import StrommeTriple, stromme_check
from sfpas.linalg import CMatrix, GaussianRational

SETTINGS = settings(max_examples=80, derandomize=True, deadline=None)
X = sympy.Symbol("x")
QQ_I_X = QQ_I[X]

small_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=3)
nonzero_fraction = small_fraction.filter(bool)
# zero entries are drawn often, so ranks drop; the others are non-real
entry = st.one_of(st.just(GaussianRational(0)), st.builds(GaussianRational, small_fraction, nonzero_fraction))
nonzero_scalar = st.builds(GaussianRational, small_fraction, nonzero_fraction)


def _matrix(draw, rows, cols, entries=entry):
    if rows == 0 or cols == 0:
        return CMatrix.zeros(rows, cols)
    return CMatrix(draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)))


@st.composite
def triples(draw):
    u = draw(st.integers(0, 3))
    v = draw(st.integers(u, 5))
    w = draw(st.integers(v - u, v - u + 2))
    k = _matrix(draw, v, u)
    l = _matrix(draw, v, u)
    if u and draw(st.booleans()):
        l = k.scale(draw(nonzero_scalar))  # x k + y l = (x + c y) k drops at (-c : 1)
    return StrommeTriple(k, l, _matrix(draw, v, w))


def _qq_i(z):
    return QQ_I(QQ(z.re.numerator, z.re.denominator), QQ(z.im.numerator, z.im.denominator))


def _dm(rows, ncols, domain):
    return DomainMatrix(rows, (len(rows), ncols), domain)


def oracle(t):
    """(cond1, cond2) from sympy minors over QQ_I[x]."""
    x = QQ_I_X.gens[0]
    u, v, w = t.u, t.v, t.w
    pencil = [[QQ_I_X(_qq_i(t.k.entries[i][j])) * x + QQ_I_X(_qq_i(t.l.entries[i][j])) for j in range(u)]
              for i in range(v)]
    cond1 = u == 0 or _dm(pencil, u, QQ_I_X).convert_to(QQ_I.frac_field(X)).rank() == u
    if v == 0:
        return cond1, True
    full = [row + [QQ_I_X(_qq_i(z)) for z in t.m.entries[i]] for i, row in enumerate(pencil)]
    top = [[_qq_i(z) for z in t.k.entries[i] + t.m.entries[i]] for i in range(v)]
    minors, tops = [], []
    for cols in combinations(range(u + w), v):
        minors.append(_dm([[row[j] for j in cols] for row in full], v, QQ_I_X).det())
        tops.append(_dm([[row[j] for j in cols] for row in top], v, QQ_I).det())
    if all(QQ_I.is_zero(c) for c in tops):
        return cond1, False  # every minor vanishes at (1 : 0), or identically
    g = QQ_I_X.zero
    for p in minors:
        g = QQ_I_X.gcd(g, p)
    return cond1, g.degree() == 0


def _check(t):
    res = stromme_check(t)
    assert res["is_triple"] == (res["cond1"] and res["cond2"])
    return res["cond1"], res["cond2"]


@SETTINGS
@given(triples())
def test_stromme_check_matches_sympy_minors(t):
    assert _check(t) == oracle(t)


# -- fixed triples ------------------------------------------------------------

I = GaussianRational(0, 1)


def _triple(k, l, m, v, u, w):
    return StrommeTriple.from_integer_lists(k, l, m, v, u, w)


FIXED = {
    # the empty minor is the nonzero constant 1
    "v=0": (_triple([], [], [[], []], 0, 0, 2), (True, True)),
    # m of rank v: the left null space is zero, whatever the pencil
    "m-rank-v": (_triple([[0], [0]], [[0], [0]], [[1, 1], [0, 1]], 2, 1, 2), (False, True)),
    # a zero row in k, l and m: every minor vanishes identically
    "all-minors-zero": (_triple([[1], [0]], [[2], [0]], [[1], [0]], 2, 1, 1), (True, False)),
    # [x k + y l] = (y): its only zero is (1 : 0)
    "zero-at-infinity": (_triple([[0]], [[1]], [], 1, 1, 0), (True, False)),
    # rows (x, 0, y), (0, y, 0) on the left null space of m: rank drops
    # only at (1 : 0), with u = 3 > n' = 2
    "zero-at-infinity-wide": (
        _triple([[1, 0, 0], [0, 0, 0], [1, 0, 0]], [[0, 0, 1], [0, 1, 0], [0, 0, 0]], [[0], [0], [1]], 3, 3, 1),
        (True, False),
    ),
    # det(x I + y J) = x^2 + y^2 with real entries: zeros at (+-i : 1)
    "real-entries-drop-at-i": (_triple([[1, 0], [0, 1]], [[0, -1], [1, 0]], [], 2, 2, 0), (True, False)),
    # rows (x, 0, 0), (0, x, y): a drop at (0 : 1) that the Wong
    # sequence finds only at its second step (dimensions 2, 1, 1)
    "two-wong-steps": (
        _triple([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 0, 0], [0, 0, 1], [0, 0, 0]], [[0], [0], [1]], 3, 3, 1),
        (True, False),
    ),
    # x k + l = x: rank 1 first at x0 = 1 = u
    "cond1-at-x0=u": (_triple([[1]], [[0]], [[1]], 1, 1, 1), (True, True)),
    # x k + l = diag(x, x - 1): rank 2 first at x0 = 2 = u
    "cond1-at-x0=u, u=2": (_triple([[1, 0], [0, 1]], [[0, 0], [0, -1]], [[1, 0], [0, 1]], 2, 2, 2), (True, True)),
    # the generic triple of the README
    "generic": (_triple([[1], [0]], [[0], [1]], [[1, 0], [0, 1]], 2, 1, 2), (True, True)),
}
FIXED["drop-at-x=i"] = (
    StrommeTriple(CMatrix([[1], [0]]), CMatrix([[-I], [0]]), CMatrix([[0], [1]])),
    (True, False),
)
# rows (x, i y) and (0 | 1): the linear forms x and i y never vanish
# together, so n' = 1 < u = 2 and the Wong sequence ends at once
FIXED["no-drop, complex"] = (
    StrommeTriple(CMatrix([[1, 0], [0, 1]]), CMatrix([[0, I], [1, 0]]), CMatrix([[0], [1]])),
    (True, True),
)


@pytest.mark.parametrize("name", sorted(FIXED))
def test_fixed_triples(name):
    t, expected = FIXED[name]
    assert _check(t) == expected == oracle(t)


# -- invariance ---------------------------------------------------------------


@st.composite
def invertible(draw, n):
    """L U with L unit lower triangular and U upper triangular with a
    nonzero diagonal, so invertible by construction."""
    lower = [[GaussianRational(1) if i == j else draw(entry) if i > j else GaussianRational(0) for j in range(n)]
             for i in range(n)]
    upper = [[draw(nonzero_scalar) if i == j else draw(entry) if i < j else GaussianRational(0) for j in range(n)]
             for i in range(n)]
    if n == 0:
        return CMatrix.zeros(0, 0)
    return CMatrix(lower) @ CMatrix(upper)


@SETTINGS
@given(triples(), st.data())
def test_stromme_check_invariant_under_base_change(t, data):
    assume(t.v > 0)  # v = 0 is the fixed triple "v=0"
    a = data.draw(invertible(t.v))
    b = data.draw(invertible(t.u))
    c = data.draw(invertible(t.w))
    moved = StrommeTriple(a @ t.k @ b, a @ t.l @ b, a @ t.m @ c)
    assert stromme_check(moved) == stromme_check(t)


@SETTINGS
@given(triples(), nonzero_scalar, entry, entry, nonzero_scalar)
def test_stromme_check_invariant_under_gl2(t, a, b, c, d):
    assume(a * d - b * c != 0)
    moved = StrommeTriple(t.k.scale(a) + t.l.scale(b), t.k.scale(c) + t.l.scale(d), t.m)
    assert stromme_check(moved) == stromme_check(t)


# -- elimination-count budget ------------------------------------------------


def _corank_of_m(t):
    if t.w == 0:
        return t.v
    return t.v - sympy.Matrix([[sympy.Rational(z.re) + sympy.I * sympy.Rational(z.im) for z in row]
                               for row in t.m.entries]).rank()


def _budgeted(monkeypatch, name, budget):
    """Count the calls of families.<name>, failing at the first one over budget."""
    calls = []
    fn = getattr(families, name)

    def counting(*args, **kwargs):
        calls.append(1)
        assert len(calls) <= budget, f"{name}: more than {budget} calls"
        return fn(*args, **kwargs)

    monkeypatch.setattr(families, name, counting)
    return calls


def _within_budget(t):
    with pytest.MonkeyPatch.context() as mp:
        ranks = _budgeted(mp, "rank_exact", t.u + 2)
        kernels = _budgeted(mp, "kernel_basis", _corank_of_m(t) + 2)
        stromme_check(t)
    return len(ranks), len(kernels)


@pytest.mark.parametrize("name", sorted(FIXED))
def test_elimination_budget_fixed(name):
    _within_budget(FIXED[name][0])


@settings(SETTINGS, max_examples=40)
@given(triples())
def test_elimination_budget(t):
    _within_budget(t)


def test_elimination_counts_of_a_triple_without_drops():
    # cond1 at x0 = 0 and the rank of A; the kernel for N and one Wong
    # step, whose kernel is already zero
    assert _within_budget(FIXED["no-drop, complex"][0]) == (2, 2)
