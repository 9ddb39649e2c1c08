"""Integer classes on the first cohomology of a genus-g surface, and the
abelian invariant counts built on them.

Generators come in a fixed symplectic order a1 < b1 < a2 < b2 < ... and
are indexed 0..2g-1 (a_j is 2j-2, b_j is 2j-1, 1-based j).  The top
pairing is coefficient extraction on a1^b1^...^ag^bg; that orientation
convention is what normalizes all counts here.

The pairings with Theta^i / i! are taken in closed form.  Theta^i / i!
is the sum of the products of i distinct pairs a_j^b_j (Macdonald,
"Symmetric products of an algebraic curve", Topology 1 (1962)), so the
top coefficient of (Theta^i / i!) ^ l is the sum of the coefficients of
the monomials of l that are unions of g - i whole pairs.  Each pair has
even degree, so no sign arises; every other monomial, odd-degree ones
included, pairs to 0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import InputError, InternalError, LimitError

# the int-to-str digit limit; Python before 3.10.7 has none (0)
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _integer(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError(f"{what} must be an integer, got {x!r}")
    return x


class ExteriorClass:
    """Integer-coefficient element of the exterior algebra on 2g generators:
    terms maps strictly increasing index tuples to nonzero integers."""

    __slots__ = ("g", "terms")

    def __init__(self, g: int, terms=None):
        if _integer(g, "genus") < 0:
            raise InputError("genus must be >= 0")
        clean = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(_integer(i, "generator index") for i in mono)
            if list(mono) != sorted(set(mono)):
                raise InputError(f"monomial indices must be strictly increasing: {mono}")
            if mono and (mono[0] < 0 or mono[-1] >= 2 * g):
                raise InputError(f"generator index out of range for genus {g}: {mono}")
            if _integer(coeff, "coefficient"):
                clean[mono] = coeff
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ExteriorClass is immutable")

    @staticmethod
    def one(g: int) -> "ExteriorClass":
        return ExteriorClass(g, {(): 1})

    def degrees(self):
        return sorted({len(m) for m in self.terms})

    def __repr__(self):
        return f"ExteriorClass(g={self.g}, {len(self.terms)} terms)"

    @staticmethod
    def from_json(obj) -> "ExteriorClass":
        """Read {"g": g, "terms": [[monomial, coefficient], ...]}."""
        try:
            g, terms = obj["g"], {}
            for mono, coeff in obj["terms"]:
                mono = tuple(mono)
                if mono in terms:
                    raise InputError(f"repeated monomial {list(mono)}")
                terms[mono] = coeff
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad exterior class JSON: {exc}") from exc
        return ExteriorClass(g, terms)


def _theta_pairings(l: ExteriorClass) -> dict:
    """{i: top coefficient of (Theta^i / i!) ^ l}, over the powers i
    reached by a monomial of l that is a union of whole pairs (2j, 2j+1);
    every other power pairs to 0."""
    pairings = {}
    for mono, coeff in l.terms.items():
        # distinct indices: a union of pairs touches each pair j = x // 2 twice
        pairs = len({x // 2 for x in mono})
        if len(mono) == 2 * pairs:
            pairings[l.g - pairs] = pairings.get(l.g - pairs, 0) + coeff
    return pairings


def _printable(n: int) -> int:
    """n, or LimitError past the interpreter's int-to-str digit limit."""
    limit = _digit_limit()
    if limit and abs(n) >= 10**limit:
        raise LimitError(f"result has more than {limit} decimal digits")
    return n


def _power(r0: int, i: int) -> int:
    """r0**i via _printable, refused unformed when far past the limit."""
    limit = _digit_limit()
    if limit and r0 > 1 and i * math.log10(r0) > limit + 1:
        raise LimitError(f"{r0}**{i} has more than {limit} decimal digits")
    return _printable(r0**i)


@dataclass(frozen=True)
class AbelianProblem:
    """Rank-1 counting problem data: genus, framing rank, the two degrees,
    and which side of the existence threshold the parameter sits on."""

    g: int
    r0: int
    d: int
    d0: int
    t_side: str  # "above" | "below"

    def __post_init__(self):
        if self.g < 0:
            raise InputError("genus must be >= 0")
        if self.r0 < 1:
            raise InputError("r0 must be >= 1")
        if self.t_side not in ("above", "below"):
            raise InputError("t_side must be 'above' or 'below'")


def expected_dimension(r: int, r0: int, d: int, d0: int, g: int) -> int:
    """Expected dimension r*d0 - r0*d + r*(r - r0)*(g - 1).

    At r=1 this reduces to d0 - r0*d + (r0 - 1)*(1 - g); both closed
    forms are asserted to agree on that overlap.
    """
    if r < 1 or r0 < 1:
        raise InputError("ranks must be >= 1")
    general = r * d0 - r0 * d + r * (r - r0) * (g - 1)
    if r == 1:
        rank_one = d0 - r0 * d + (r0 - 1) * (1 - g)
        if general != rank_one:
            raise InternalError(f"expected dimension {general} != rank-one form {rank_one}")
    return general


def ggw_terms(p: AbelianProblem, l: ExteriorClass):
    """Per-power expansion of the abelian invariant pairing.

    Returns (value, [(i, coefficient_of_term_i), ...]).  Below the
    threshold the value is 0 with no terms.  Above, the value is the top
    coefficient of sum_{i=max(0, g-v)}^{g} r0^i * (Theta^i / i!) ^ l with
    v the expected dimension at r=1.  For homogeneous l at most one term
    is nonzero, so only that term is listed.
    """
    if l.g != p.g:
        raise InputError("genus mismatch between problem and class")
    if p.t_side == "below":
        return 0, []
    g = p.g
    v = expected_dimension(1, p.r0, p.d, p.d0, g)
    lo = max(0, g - v)
    degs = l.degrees()
    if len(degs) == 1:
        powers = [g - degs[0] // 2] if degs[0] % 2 == 0 and g - degs[0] // 2 >= lo else []
    else:
        powers = list(range(lo, g + 1))
    pairings = _theta_pairings(l)
    terms = []
    for i in powers:
        pairing = pairings.get(i, 0)
        terms.append((i, _printable(_power(p.r0, i) * pairing) if pairing else 0))
    return _printable(sum(c for _, c in terms)), terms


def ggw_abelian(p: AbelianProblem, l: ExteriorClass) -> int:
    return ggw_terms(p, l)[0]


def quot_count(g: int, r0: int) -> int:
    """Number of points of a zero-dimensional, zero-expected-dimension
    quotient space at rank one: r0**g, with multiplicities.

    Cross-checked against the top term r0^g * <Theta^g/g!, 1> of the
    invariant pairing.
    """
    if g < 0 or r0 < 1:
        raise InputError("need g >= 0 and r0 >= 1")
    count = _power(r0, g)
    top_term = count * _theta_pairings(ExteriorClass.one(g)).get(g, 0)
    if count != top_term:
        raise InternalError(f"quotient count {count} != top theta term {top_term}")
    return count


def algebra_degrees(r: int, class_kind: str, index: int) -> int:
    """Degrees of the generators of the tautological invariant algebra.

    u_i has degree 2i (1 <= i <= r), v_j degree 2j-2 (2 <= j <= r), and
    the l-th odd band degree 2l-1 (1 <= l <= r).
    """
    if r < 1:
        raise InputError("rank must be >= 1")
    if class_kind == "u":
        if not 1 <= index <= r:
            raise InputError(f"u-index out of band 1..{r}")
        return 2 * index
    if class_kind == "v":
        if not 2 <= index <= r:
            raise InputError(f"v-index out of band 2..{r}")
        return 2 * index - 2
    if class_kind == "h1":
        if not 1 <= index <= r:
            raise InputError(f"h1-index out of band 1..{r}")
        return 2 * index - 1
    raise InputError(f"unknown class kind {class_kind!r} (expected u, v, or h1)")
