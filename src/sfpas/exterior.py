"""Integer exterior algebra on the first cohomology of a genus-g surface,
and the abelian invariant counts built on it.

Generators come in a fixed symplectic order a1 < b1 < a2 < b2 < ... and
are indexed 0..2g-1 (a_j is 2j-2, b_j is 2j-1, 1-based j).  The top
pairing is coefficient extraction on a1^b1^...^ag^bg; that orientation
convention is what normalizes all counts here.

Odd-degree classes are supported by the same sign rules but the pairing
convention for them is experimental; see ggw_abelian.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InputError, InternalError


class ExteriorClass:
    """Integer-coefficient element of the exterior algebra on 2g generators.

    terms maps strictly increasing index tuples to nonzero integers.
    """

    __slots__ = ("g", "terms")

    def __init__(self, g: int, terms=None):
        if g < 0:
            raise InputError("genus must be >= 0")
        clean = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(mono)
            if list(mono) != sorted(set(mono)):
                raise InputError(f"monomial indices must be strictly increasing: {mono}")
            if mono and (mono[0] < 0 or mono[-1] >= 2 * g):
                raise InputError(f"generator index out of range for genus {g}: {mono}")
            coeff = int(coeff)
            if coeff:
                clean[mono] = coeff
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ExteriorClass is immutable")

    @staticmethod
    def one(g: int) -> "ExteriorClass":
        return ExteriorClass(g, {(): 1})

    @staticmethod
    def zero(g: int) -> "ExteriorClass":
        return ExteriorClass(g, {})

    @staticmethod
    def generator(g: int, kind: str, j: int) -> "ExteriorClass":
        """The generator a_j or b_j (1-based j)."""
        if kind not in ("a", "b") or not (1 <= j <= g):
            raise InputError(f"no generator {kind}_{j} at genus {g}")
        idx = 2 * (j - 1) + (0 if kind == "a" else 1)
        return ExteriorClass(g, {(idx,): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self):
        return sorted({len(m) for m in self.terms})

    def __add__(self, other):
        if self.g != other.g:
            raise InputError("genus mismatch")
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, 0) + c
        return ExteriorClass(self.g, terms)

    def __neg__(self):
        return ExteriorClass(self.g, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k: int) -> "ExteriorClass":
        return ExteriorClass(self.g, {m: k * c for m, c in self.terms.items()})

    def top_coefficient(self) -> int:
        """Pairing with the orientation class: coefficient of the full monomial."""
        return self.terms.get(tuple(range(2 * self.g)), 0)

    def __eq__(self, other):
        if not isinstance(other, ExteriorClass):
            return NotImplemented
        return self.g == other.g and self.terms == other.terms

    def __hash__(self):
        return hash((self.g, frozenset(self.terms.items())))

    def __repr__(self):
        return f"ExteriorClass(g={self.g}, {len(self.terms)} terms)"

    def to_json(self):
        return {"g": self.g, "terms": [[list(m), c] for m, c in sorted(self.terms.items())]}

    @staticmethod
    def from_json(obj) -> "ExteriorClass":
        try:
            g = int(obj["g"])
            terms = {tuple(int(i) for i in m): int(c) for m, c in obj["terms"]}
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad exterior class JSON: {exc}") from exc
        return ExteriorClass(g, terms)


def _merge_sign(m1, m2):
    """Concatenation sign of two disjoint increasing monomials, or None."""
    if set(m1) & set(m2):
        return None, None
    merged = sorted(m1 + m2)
    # count transpositions needed to interleave m2 into m1
    inversions = 0
    for x in m2:
        inversions += sum(1 for y in m1 if y > x)
    return tuple(merged), (-1) ** inversions


def wedge(x: ExteriorClass, y: ExteriorClass) -> ExteriorClass:
    """Graded-commutative product with integer coefficients."""
    if x.g != y.g:
        raise InputError("genus mismatch")
    terms = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            merged, sign = _merge_sign(m1, m2)
            if merged is None:
                continue
            terms[merged] = terms.get(merged, 0) + sign * c1 * c2
    return ExteriorClass(x.g, terms)


def theta_class(g: int) -> ExteriorClass:
    """The principal polarization class sum_j a_j ^ b_j."""
    return ExteriorClass(g, {(2 * j, 2 * j + 1): 1 for j in range(g)})


def theta_div_factorial(g: int, i: int) -> ExteriorClass:
    """Theta^i / i!: the sum over i-subsets S of wedge_{j in S} (a_j ^ b_j).

    All coefficients are 1; i > g gives the zero class.
    """
    if i < 0:
        raise InputError("power must be >= 0")
    if i > g:
        return ExteriorClass.zero(g)
    terms = {}
    for subset in combinations(range(g), i):
        mono = tuple(sorted(idx for j in subset for idx in (2 * j, 2 * j + 1)))
        terms[mono] = 1
    return ExteriorClass(g, terms)


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
    is nonzero, so only that term is evaluated.
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
        # single power can reach top degree
        wanted = (2 * g - degs[0]) / 2
        powers = [int(wanted)] if wanted == int(wanted) and lo <= wanted <= g else []
    else:
        powers = list(range(lo, g + 1))
    terms = []
    total = 0
    for i in powers:
        coeff = (p.r0 ** i) * wedge(theta_div_factorial(g, i), l).top_coefficient()
        terms.append((i, coeff))
        total += coeff
    return total, terms


def ggw_abelian(p: AbelianProblem, l: ExteriorClass) -> int:
    return ggw_terms(p, l)[0]


def quot_count(g: int, r0: int) -> int:
    """Number of points of a zero-dimensional, zero-expected-dimension
    quotient space at rank one: r0**g, with multiplicities.

    Cross-checked against the top term r0^g * <Theta^g/g!, top> of the
    invariant pairing.
    """
    if g < 0 or r0 < 1:
        raise InputError("need g >= 0 and r0 >= 1")
    count = r0 ** g
    top_term = (r0 ** g) * theta_div_factorial(g, g).top_coefficient()
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
