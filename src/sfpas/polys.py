"""Univariate polynomials over the Gaussian rationals, plus binary forms.

Polynomials are coefficient tuples, constant term first.  Binary forms
of a known homogeneous degree are stored dehomogenized at y=1 together
with that degree; the y-multiplicity (the root at x=infinity) is the
degree drop.  Gcds run through the subresultant remainder sequence after
clearing denominators, so no factorization is ever needed.
"""

from __future__ import annotations

from math import lcm

from .linalg import ONE, ZERO, GaussianRational, as_scalar, bareiss


def poly_trim(p):
    p = list(p)
    while p and p[-1].is_zero():
        p.pop()
    return tuple(p)


def poly_const(c):
    c = as_scalar(c)
    return () if c.is_zero() else (c,)


def poly_deg(p) -> int:
    return len(p) - 1  # -1 for the zero polynomial


def poly_add(a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else ZERO
        y = b[i] if i < len(b) else ZERO
        out.append(x + y)
    return poly_trim(out)


def poly_neg(a):
    return tuple(-x for x in a)


def poly_sub(a, b):
    return poly_add(a, poly_neg(b))


def poly_mul(a, b):
    if not a or not b:
        return ()
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return poly_trim(out)


def poly_scale(a, c):
    c = as_scalar(c)
    if c.is_zero():
        return ()
    return poly_trim([c * x for x in a])


def poly_eval(a, x):
    x = as_scalar(x)
    acc = ZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_divexact(a, b):
    """Exact quotient a / b in Q(i)[x]; raises if the division has a remainder."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    q = [ZERO] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    for k in range(len(a) - len(b), -1, -1):
        coeff = rem[k + len(b) - 1] / lead
        q[k] = coeff
        if not coeff.is_zero():
            for j, bj in enumerate(b):
                rem[k + j] = rem[k + j] - coeff * bj
    if any(not r.is_zero() for r in rem):
        raise ArithmeticError("inexact polynomial division")
    return poly_trim(q)


def poly_pseudo_rem(a, b):
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a  mod  b."""
    da, db = poly_deg(a), poly_deg(b)
    if db < 0:
        raise ZeroDivisionError("pseudo-remainder by zero")
    if da < db:
        return a
    lead = b[-1]
    rem = list(a)
    for k in range(da - db, -1, -1):
        head = rem[k + db]
        rem = [lead * r for r in rem]
        if not head.is_zero():
            for j, bj in enumerate(b):
                rem[k + j] = rem[k + j] - head * bj
    return poly_trim(rem[:db] if db > 0 else [])


def clear_denominators(a):
    """Scale to Gaussian-integer coefficients (a unit multiple in Q(i)[x])."""
    if not a:
        return a
    mult = lcm(*(c.re.denominator for c in a), *(c.im.denominator for c in a), 1)
    f = GaussianRational(mult)
    return tuple(f * c for c in a)


def subresultant_gcd(a, b):
    """A gcd of a, b in Q(i)[x], up to a unit, via the subresultant PRS."""
    a, b = poly_trim(a), poly_trim(b)
    if not a:
        return b
    if not b:
        return a
    r0, r1 = clear_denominators(a), clear_denominators(b)
    if poly_deg(r0) < poly_deg(r1):
        r0, r1 = r1, r0
    g, h = ONE, ONE
    while r1:
        d = poly_deg(r0) - poly_deg(r1)
        rem = poly_pseudo_rem(r0, r1)
        divisor = g * (h ** d if d else ONE)
        r0, r1 = r1, tuple(c / divisor for c in rem)
        if r1:
            g = r0[-1]
            h = (g ** d) / (h ** (d - 1)) if d >= 1 else h
    return r0


def gcd_many(polys):
    """Iterated gcd; zero polynomials are ignored.  () if all are zero."""
    g = ()
    for p in polys:
        if not p:
            continue
        g = subresultant_gcd(g, p) if g else poly_trim(p)
        if poly_deg(g) == 0:
            return g
    return g


class BinaryForm:
    """A homogeneous form F(x, y) of degree ``hom_deg``.

    Stored as f(x) = F(x, 1) plus hom_deg; the multiplicity of the root
    at (1:0) is hom_deg - deg(f).
    """

    __slots__ = ("poly", "hom_deg")

    def __init__(self, poly, hom_deg):
        poly = poly_trim(poly)
        if poly_deg(poly) > hom_deg:
            raise ValueError("dehomogenized degree exceeds the homogeneous degree")
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "hom_deg", hom_deg)

    def __setattr__(self, name, value):
        raise AttributeError("BinaryForm is immutable")

    def is_zero(self):
        return not self.poly

    def y_multiplicity(self):
        if self.is_zero():
            raise ValueError("zero form has no root multiplicities")
        return self.hom_deg - poly_deg(self.poly)

    def __repr__(self):
        return f"BinaryForm(deg={self.hom_deg}, poly={self.poly})"


def binary_forms_common_zero_free(forms):
    """True iff the nonzero forms have no common projective zero.

    False when every form is zero.  The common zeros of binary forms are
    the zeros of their gcd together with (1:0) when every form drops
    y-degree, so the test reduces to one gcd computation.
    """
    nonzero = [f for f in forms if not f.is_zero()]
    if not nonzero:
        return False
    if any(f.hom_deg == 0 for f in nonzero):
        return True
    if min(f.y_multiplicity() for f in nonzero) > 0:
        return False
    g = gcd_many([f.poly for f in nonzero])
    return poly_deg(g) == 0


_UNIT = (ONE,)


def _poly_step(p, a, h, b, prev):
    num = poly_sub(poly_mul(p, a), poly_mul(h, b))
    # most divisors are the unit (the first column's, and each unit
    # pivot's), and dividing by it costs more than the products
    return num if prev == _UNIT else poly_divexact(num, prev)


def bareiss_det_poly(mat):
    """Determinant of a square matrix of polynomials, fraction-free."""
    n = len(mat)
    if n == 0:
        return (ONE,)
    m = [list(row) for row in mat]
    rank, odd = bareiss(m, n, _poly_step, (), _UNIT)
    if rank < n:
        return ()
    return poly_neg(m[-1][-1]) if odd else m[-1][-1]


def bareiss_rank_poly(mat, nrows, ncols) -> int:
    """Generic rank over the rational function field Q(i)(x)."""
    return bareiss([list(row) for row in mat[:nrows]], ncols, _poly_step, (), _UNIT)[0]
