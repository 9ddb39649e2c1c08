"""Combinatorics and exact semistability for the toric family.

A problem is an integer matrix v (m rows, r columns, rank m) whose
columns generate the rays, a complete simplicial fan given by its
maximal cones as 1-based column-index subsets, and a level held as a
rational vector modulo the row space of v.

All decisions are exact: membership in the level cones K / K0, the
support-pattern stability test, and the fan validation all reduce to
rational linear programs or exact elimination.  Ray/column indices are
1-based everywhere on the public surface, matching the JSON format
{"max_cones": [[1], [2]]}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from .errors import InputError, InternalError, LimitError
from .linalg import CMatrix, gauss_jordan, kernel_basis, rank_exact
from .lp import LinearProgram

ZERO = Fraction(0)


# -- small exact helpers on Fraction matrices --------------------------


def _solve_square(a_rows, rhs):
    """Solve the square rational system A x = rhs; None if singular."""
    n = len(a_rows)
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(a_rows)]
    if len(gauss_jordan(aug, n)) < n:
        return None
    return tuple(row[-1] for row in aug)


def _int_rank(rows):
    if not rows or not rows[0]:
        return 0
    return rank_exact(CMatrix([[Fraction(v) for v in row] for row in rows]))


class ToricMatrix:
    """Integer matrix v of shape m x r with rank m, plus coker data.

    p_v projects a row vector a in Q_r onto a fixed basis of the
    cokernel of the adjoint map (the quotient of Q_r by the row space):
    the coordinates are a . B where the columns of B form the exact
    kernel basis of v, computed once by integer row reduction.
    """

    __slots__ = ("v", "m", "r", "coker")

    def __init__(self, v):
        rows = tuple(tuple(int(x) for x in row) for row in v)
        if not rows or not rows[0]:
            raise InputError("v must be a nonempty integer matrix")
        m = len(rows)
        r = len(rows[0])
        if any(len(row) != r for row in rows):
            raise InputError("ragged matrix")
        if _int_rank(rows) != m:
            raise InputError(f"v must have full row rank {m}")
        kern = kernel_basis(CMatrix([[Fraction(x) for x in row] for row in rows]))
        coker = tuple(tuple(x.re for x in vec) for vec in kern)  # (r-m) vectors of length r
        object.__setattr__(self, "v", rows)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "coker", coker)

    def __setattr__(self, name, value):
        raise AttributeError("ToricMatrix is immutable")

    def column(self, j):
        """1-based column j as a tuple of ints."""
        return tuple(self.v[i][j - 1] for i in range(self.m))

    def p_v(self, a):
        """Cokernel coordinates of a level representative a in Q_r."""
        a = [Fraction(x) for x in a]
        if len(a) != self.r:
            raise InputError(f"level representative must have length {self.r}")
        return tuple(sum(ai * bi for ai, bi in zip(a, vec)) for vec in self.coker)

    def to_json(self):
        return [list(row) for row in self.v]


@dataclass(frozen=True)
class ToricLevel:
    """A level: a representative rational vector, read modulo im(v^T)."""

    rep: tuple

    def __init__(self, rep):
        object.__setattr__(self, "rep", tuple(Fraction(x) for x in rep))

    def same_level(self, tm: ToricMatrix, other: "ToricLevel") -> bool:
        return tm.p_v(self.rep) == tm.p_v(other.rep)


@dataclass(frozen=True)
class SupportPattern:
    """The set of coordinates that are allowed to be nonzero (1-based)."""

    support: frozenset

    def __init__(self, support):
        object.__setattr__(self, "support", frozenset(int(j) for j in support))


class Fan:
    """A simplicial fan listed by its maximal cones (1-based ray indices)."""

    __slots__ = ("max_cones",)

    def __init__(self, max_cones):
        cones = tuple(frozenset(int(j) for j in cone) for cone in max_cones)
        object.__setattr__(self, "max_cones", cones)

    def __setattr__(self, name, value):
        raise AttributeError("Fan is immutable")

    def __eq__(self, other):
        if not isinstance(other, Fan):
            return NotImplemented
        return set(self.max_cones) == set(other.max_cones)

    def __hash__(self):
        return hash(frozenset(self.max_cones))

    def to_json(self):
        return {"max_cones": [sorted(c) for c in sorted(self.max_cones, key=sorted)]}

    @staticmethod
    def from_json(obj):
        try:
            return Fan(obj["max_cones"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad fan JSON: {exc}") from exc


def check_P1(tm: ToricMatrix):
    """Every column must be primitive (entry gcd 1).

    Returns (ok, offending_column) with a 1-based column index, or None.
    A zero column fails (it generates nothing).
    """
    for j in range(1, tm.r + 1):
        col = tm.column(j)
        g = 0
        for x in col:
            g = gcd(g, abs(x))
        if g != 1:
            return False, j
    return True, None


def check_P2(tm: ToricMatrix):
    """The row space of v must meet the nonnegative orthant only in 0.

    Decided by an exact LP: maximize sum(x) over x = y v, x >= 0,
    sum(x) <= 1.  Returns (ok, certificate) where the certificate is a
    nonzero nonnegative row-space vector when the check fails.
    """
    prog = LinearProgram()
    xs = prog.vars(tm.r)
    ys = [prog.free_var() for _ in range(tm.m)]
    for j in range(tm.r):
        coeffs = {xs[j]: 1}
        for i in range(tm.m):
            coeffs[ys[i]] = coeffs.get(ys[i], 0) - Fraction(tm.v[i][j])
        prog.add_eq(coeffs, 0)
    prog.add_le({x: 1 for x in xs}, 1)
    res = prog.optimize({x: 1 for x in xs}, maximize=True)
    if res.status != "optimal":
        raise InternalError(f"the bounded positivity LP ended {res.status}")
    if res.value == 0:
        return True, None
    cert = tuple(res.x[x] for x in xs)
    return False, cert


def validate_fan(fan: Fan, tm: ToricMatrix):
    """Check simpliciality, the fan property, and completeness, exactly.

    simplicial: ray generators of every listed cone are independent.
    is_fan: listed cones are distinct, none contains another, and every
    pairwise intersection is the common face spanned by the shared rays
    (one exact LP per pair of cones).
    complete: the listed cones form a fan, all are full-dimensional,
    and every ridge (a cone minus one ray) lies in exactly one other
    cone.  That cone sits on the opposite side of the ridge's hyperplane:
    on the same side the two interiors would meet, which the fan
    property excludes.  This ridge test decides completeness of a
    simplicial fan in every dimension.  Suppose the support S is not all
    of R^m.  Then its boundary is nonempty, and since subspaces of
    codimension >= 2 cannot separate a ball, the boundary contains a
    point x in the relative interior of some ridge.  By the fan property
    only cones that contain that ridge come near x; the ridge test puts
    two of them on opposite sides, and together they cover a
    neighbourhood of x, so x is not on the boundary: a contradiction.
    Conversely every ridge of a complete fan has a cone across it.  For
    m = 1 the ridge is empty and the test asks for exactly two rays,
    which the fan property makes opposite.
    """
    for cone in fan.max_cones:
        for j in cone:
            if not 1 <= j <= tm.r:
                raise InputError(f"ray index {j} outside 1..{tm.r}")

    simplicial = all(_int_rank([tm.column(j) for j in cone]) == len(cone) for cone in fan.max_cones)
    is_fan = simplicial and len(set(fan.max_cones)) == len(fan.max_cones)
    if is_fan:
        for c1, c2 in combinations(fan.max_cones, 2):
            if c1 <= c2 or c2 <= c1 or not _intersection_is_common_face(tm, c1, c2):
                is_fan = False
                break

    complete = (
        bool(fan.max_cones)
        and is_fan
        and all(len(c) == tm.m for c in fan.max_cones)
        and all(
            sum(cone - {drop} <= other for other in fan.max_cones) == 2
            for cone in fan.max_cones
            for drop in cone
        )
    )
    return {"simplicial": simplicial, "is_fan": is_fan, "complete": complete}


def _intersection_is_common_face(tm, c1, c2):
    """cone(c1) ^ cone(c2) == cone(c1 ^ c2), by one LP.

    For simplicial cones the subset cone is automatically a face of
    both, so it is enough to rule out intersection points that need a
    positive coefficient on a non-shared ray.  All variables are >= 0,
    so the total weight on the non-shared rays has a positive maximum
    exactly when some single non-shared ray does.
    """
    shared = c1 & c2
    prog = LinearProgram()
    lam = {j: prog.var() for j in sorted(c1)}
    mu = {j: prog.var() for j in sorted(c2)}
    for i in range(tm.m):
        coeffs = {}
        for j in lam:
            coeffs[lam[j]] = Fraction(tm.v[i][j - 1])
        for j in mu:
            coeffs[mu[j]] = -Fraction(tm.v[i][j - 1])
        prog.add_eq(coeffs, 0)
    prog.add_le({v: 1 for v in list(lam.values()) + list(mu.values())}, 1)
    extra = [lam[j] for j in lam if j not in shared] + [mu[j] for j in mu if j not in shared]
    res = prog.optimize({v: 1 for v in extra}, maximize=True)
    if res.status != "optimal":
        raise InternalError(f"the bounded cone-intersection LP ended {res.status}")
    return res.value == 0


class FaceFunctional:
    """The unique functional on span(cone) with <f, v_j> = -a_j on its rays."""

    __slots__ = ("cone", "m", "_ray_cols", "_ray_vals", "vector")

    def __init__(self, cone, m, ray_cols, ray_vals, vector=None):
        object.__setattr__(self, "cone", cone)
        object.__setattr__(self, "m", m)  # the lattice dimension; the cone may be empty
        object.__setattr__(self, "_ray_cols", ray_cols)
        object.__setattr__(self, "_ray_vals", ray_vals)
        object.__setattr__(self, "vector", vector)

    def __setattr__(self, name, value):
        raise AttributeError("FaceFunctional is immutable")

    def evaluate(self, x):
        """Value at a point of span(cone); InputError off the span or for a
        point whose length is not the lattice dimension m."""
        if len(x) != self.m:
            raise InputError(f"point must have length {self.m}")
        cols = self._ray_cols
        k = len(cols)
        aug = [[col[i] for col in cols] + [Fraction(xi)] for i, xi in enumerate(x)]
        pivots = gauss_jordan(aug, k + 1)
        if k in pivots:
            raise InputError("point is outside the span of the cone")
        return sum(row[-1] * self._ray_vals[c] for row, c in zip(aug, pivots))


def face_functional(cone, a, tm: ToricMatrix) -> FaceFunctional:
    """Construct f on span(cone) with <f, v_j> = -a_j for rays j of cone."""
    cone = frozenset(int(j) for j in cone)
    a = [Fraction(x) for x in a]
    if len(a) != tm.r:
        raise InputError(f"level representative must have length {tm.r}")
    cols = [tuple(Fraction(x) for x in tm.column(j)) for j in sorted(cone)]
    cols_rows = [[col[i] for i in range(tm.m)] for col in cols]
    if _int_rank(cols_rows) != len(cols):
        raise InputError("singular system: cone generators are dependent")
    vals = [-a[j - 1] for j in sorted(cone)]
    vector = None
    if len(cone) == tm.m:
        # full-dimensional: solve f^T V = -a_sigma for the global covector
        rows = [[cols[j][i] for j in range(len(cols))] for i in range(tm.m)]
        transposed = [[rows[i][j] for i in range(tm.m)] for j in range(len(cols))]
        vector = _solve_square(transposed, vals)
    return FaceFunctional(cone, tm.m, cols, vals, vector)


def _pairing_rows(tm, fan):
    """For each full cone sigma and each j not in sigma, the row expressing
    <f_sigma^a, v_j> + a_j as a linear functional of the representative a."""
    out = []
    for cone in fan.max_cones:
        cols = sorted(cone)
        mat = [[Fraction(tm.v[i][j - 1]) for j in cols] for i in range(tm.m)]
        for j in range(1, tm.r + 1):
            if j in cone:
                continue
            w = _solve_square(mat, [Fraction(x) for x in tm.column(j)])
            if w is None:
                raise InputError("non-simplicial cone in membership test")
            # <f,v_j> = -sum_i a_{cols[i]} w_i ; condition <f,v_j> >= -a_j
            row = {j - 1: Fraction(1)}
            for i, cj in enumerate(cols):
                row[cj - 1] = row.get(cj - 1, ZERO) - w[i]
            out.append((cone, j, row))
    return out


def k_membership(fan: Fan, tm: ToricMatrix, a):
    """Membership of the level class p_v(a) in K(Sigma) and K0(Sigma).

    Both sets quantify over representatives a' = a + y v with a' >= 0;
    K needs <f_sigma^{a'}, v_j> >= -a'_j for all full cones and all j,
    K0 needs strictness whenever ray j is not a face of sigma.  Lower
    faces impose nothing new: their functionals are restrictions of the
    full-cone ones.  Decided by one exact LP: the pairing rows carry a
    slack delta in [0, 1], maximized.  delta = 0 gives the non-strict
    system, so the LP is feasible iff the class is in K, and its optimum
    is positive iff the class is in K0.
    """
    a = [Fraction(x) for x in a]
    if len(a) != tm.r:
        raise InputError(f"level representative must have length {tm.r}")
    if any(len(c) != tm.m for c in fan.max_cones):
        raise InputError("membership needs full-dimensional maximal cones")
    rows = _pairing_rows(tm, fan)
    prog = LinearProgram()
    ys = [prog.free_var() for _ in range(tm.m)]
    delta = prog.var()

    def rep_coeffs(base_row):
        # a'_j = a_j + sum_i y_i v[i][j]; returns (coeffs dict, const)
        coeffs = {}
        const = ZERO
        for jj, cf in base_row.items():
            const += cf * a[jj]
            for i in range(tm.m):
                coeffs[ys[i]] = coeffs.get(ys[i], ZERO) + cf * Fraction(tm.v[i][jj])
        return coeffs, const

    for j in range(tm.r):
        coeffs, const = rep_coeffs({j: Fraction(1)})
        prog.add_ge(coeffs, -const)
    for _, _, row in rows:
        coeffs, const = rep_coeffs(row)
        coeffs[delta] = -1
        prog.add_ge(coeffs, -const)
    prog.add_le({delta: 1}, 1)
    res = prog.optimize({delta: 1}, maximize=True)
    if res.status == "unbounded":
        raise InternalError("the bounded membership LP ended unbounded")
    in_k = res.status == "optimal"
    return {"in_K": in_k, "in_K0": in_k and res.value > 0}


def u_membership(pattern: SupportPattern, fan: Fan, r: int) -> bool:
    """Whether the vanishing pattern lies in the fan's admissible set.

    True iff some cone of the fan demands nonzero coordinates only
    inside the support, i.e. {j : ray j not a face of the cone} is
    contained in it.  A face of a maximal cone only demands more
    coordinates, so scanning the maximal cones is exhaustive.  r is the
    total number of coordinates (rays may be unused by the fan).
    """
    supp = pattern.support
    for cone in fan.max_cones:
        needed = set(range(1, r + 1)) - cone
        if needed <= supp:
            return True
    return False


def _support_lp(tm: ToricMatrix, supp, target, strict=False):
    """The LP of b >= 0 supported on supp with p_v(b) = target; with
    strict, also a slack delta <= 1 with b_j >= delta on supp."""
    prog = LinearProgram()
    bs = {j: prog.var() for j in supp}
    delta = prog.var() if strict else None
    for k, vec in enumerate(tm.coker):
        coeffs = {bs[j]: vec[j - 1] for j in supp}
        prog.add_eq(coeffs, target[k])
    if strict:
        for j in supp:
            prog.add_ge({bs[j]: 1, delta: -1}, 0)
        prog.add_le({delta: 1}, 1)
    return prog, delta


def _semistable(tm: ToricMatrix, supp, target) -> bool:
    """Feasibility of b >= 0 supported on supp with p_v(b) = target."""
    return _support_lp(tm, supp, target)[0].feasible() is not None


def semistable_lp(pattern: SupportPattern, tm: ToricMatrix, a):
    """Exact stability of a support pattern at level p_v(a).

    semistable: some b >= 0 supported inside the pattern has p_v(b) =
    p_v(a).  stable: additionally some representative is strictly
    positive on the whole support (decided by a maximized slack) and the
    complexified stabilizer of the pattern is trivial, i.e. the columns
    of v outside the support are linearly independent.
    """
    supp = sorted(j for j in pattern.support if 1 <= j <= tm.r)
    if len(supp) != len(pattern.support):
        raise InputError("support indices outside 1..r")
    target = tm.p_v(a)
    semistable = _semistable(tm, supp, target)

    stable = False
    if semistable:
        off = [j for j in range(1, tm.r + 1) if j not in pattern.support]
        cols = [[Fraction(x) for x in tm.column(j)] for j in off]
        free_stabilizer = _int_rank(cols) == len(off)
        if free_stabilizer:
            if supp:
                prog, delta = _support_lp(tm, supp, target, strict=True)
                res = prog.optimize({delta: 1}, maximize=True)
                stable = res.status == "optimal" and res.value > 0
            else:
                stable = all(t == 0 for t in target)
    return {"semistable": semistable, "stable": stable}


def quotient_nonempty(tm: ToricMatrix, a) -> bool:
    """Feasibility of b >= 0 with p_v(b) = p_v(a)."""
    return _semistable(tm, range(1, tm.r + 1), tm.p_v(a))


def chamber_search(tm: ToricMatrix, a):
    """Find a complete simplicial fan whose K0 cone contains the level.

    The candidate maximal cones are exactly the independent m-subsets
    sigma whose complementary support pattern is semistable at the
    level; for a level inside some K0 this set IS the fan, so a single
    validation decides the search.  Returns (fan, None) on success and
    (None, reason) otherwise; the reason names the step that failed.
    """
    if tm.r > 12 or tm.m > 3:
        raise LimitError("chamber search limited to r <= 12, m <= 3")
    target = tm.p_v(a)
    candidates = []
    for subset in combinations(range(1, tm.r + 1), tm.m):
        cols = [[Fraction(x) for x in tm.column(j)] for j in subset]
        if _int_rank(cols) != tm.m:
            continue
        if _semistable(tm, [j for j in range(1, tm.r + 1) if j not in subset], target):
            candidates.append(frozenset(subset))
    if not candidates:
        return None, "no independent cone has a semistable complement at the level"
    fan = Fan(candidates)
    flags = validate_fan(fan, tm)
    failed = sorted(name for name, ok in flags.items() if not ok)
    if failed:
        return None, "the candidate cones fail the fan checks: " + ", ".join(failed)
    if not k_membership(fan, tm, a)["in_K0"]:
        return None, "the level is not in the K0 cone of the candidate fan"
    return fan, None


def chamber_fan_search(tm: ToricMatrix, a):
    """The fan of chamber_search, or None."""
    return chamber_search(tm, a)[0]
