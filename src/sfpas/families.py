"""Exact stability tests for the concrete families.

Flag chains are decided by injectivity of every map (positive levels
only); failures come with an explicit destabilizing Hermitian tuple,
namely minus the orthogonal projector onto the offending kernel.
Kronecker-style triples (k, l : U -> V, m : W -> V) are decided by the
generic rank of the pencil x k + y l (ranks at u + 1 points) and by the
rank of [x k + y l | m] at every point of P^1 (a Wong sequence of the
pencil on the left null space of m), all with scalar exact linear
algebra over Q(i).

Near-unit level ratios are handled symbolically: s = 1 + eps is the
pair (1, 1) compared lexicographically in (value, eps-derivative), so
no magic small constant enters any inequality.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import InputError, LimitError
from .linalg import (
    CMatrix,
    GaussianRational,
    HermitianTuple,
    ONE,
    ZERO,
    column_space_basis,
    kernel_basis,
    matrix_from_columns,
    parse_int,
    rank_exact,
    rref,
)
from .verdict import Verdict

MAX_PENCIL_DIM = 8  # desk-scale guard on exact Gaussian-rational elimination


class NonPositiveLevelError(InputError):
    """The exact flag test only covers strictly positive levels."""


class NotATripleError(InputError):
    pass


class QuotientType(enum.Enum):
    GRASSMANNIAN = "Grassmannian"
    POINT = "Point"
    EMPTY = "Empty"


def grassmann_quotient_type(t) -> QuotientType:
    t = Fraction(t)
    if t > 0:
        return QuotientType.GRASSMANNIAN
    if t == 0:
        return QuotientType.POINT
    return QuotientType.EMPTY


class EpsRational:
    """a + b*eps for an infinitesimal eps > 0, compared lexicographically."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("EpsRational is immutable")

    @staticmethod
    def coerce(x) -> "EpsRational":
        if isinstance(x, EpsRational):
            return x
        return EpsRational(Fraction(x))

    def __mul__(self, k):
        k = Fraction(k)
        return EpsRational(self.a * k, self.b * k)

    __rmul__ = __mul__

    def __sub__(self, other):
        other = EpsRational.coerce(other)
        return EpsRational(self.a - other.a, self.b - other.b)

    def _key(self):
        return (self.a, self.b)

    def __eq__(self, other):
        return self._key() == EpsRational.coerce(other)._key()

    def __lt__(self, other):
        return self._key() < EpsRational.coerce(other)._key()

    def __le__(self, other):
        return self._key() <= EpsRational.coerce(other)._key()

    def __gt__(self, other):
        return not self <= other

    def __ge__(self, other):
        return not self < other

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"EpsRational({self.a} + {self.b} eps)"


# -- flag chains --------------------------------------------------------


class FlagChain:
    """A chain of maps f_i between spaces of dimensions d_1 .. d_{m+1},
    with a positive rational level per inner vertex."""

    __slots__ = ("dims", "maps", "level")

    def __init__(self, dims, maps, level):
        dims = tuple(parse_int(d, 0) for d in dims)
        maps = tuple(maps)
        level = tuple(Fraction(t) for t in level)
        if len(dims) < 2:
            raise InputError("a flag chain needs at least two spaces")
        m = len(dims) - 1
        if len(maps) != m or len(level) != m:
            raise InputError(f"expected {m} maps and {m} level entries")
        for i, f in enumerate(maps):
            if f.mode != "exact":
                raise InputError("flag chain maps must be exact")
            if (f.rows, f.cols) != (dims[i + 1], dims[i]):
                raise InputError(
                    f"map {i + 1} has shape {(f.rows, f.cols)}, expected {(dims[i + 1], dims[i])}"
                )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "level", level)

    def __setattr__(self, name, value):
        raise AttributeError("FlagChain is immutable")

    @property
    def m(self):
        return len(self.maps)

    def to_quiver(self):
        """The equivalent quiver problem (chain quiver, symmetry on the
        first m vertices) with its point and level."""
        from .quiver import FullVertexProduct, Level, Quiver, QuiverDims, QuiverPoint, QuiverProblem

        m = self.m
        vertices = [f"v{i}" for i in range(1, m + 2)]
        arrows = [(f"f{i}", f"v{i}", f"v{i + 1}") for i in range(1, m + 1)]
        quiver = Quiver(vertices, arrows)
        dims = QuiverDims(quiver, {f"v{i}": self.dims[i - 1] for i in range(1, m + 2)})
        problem = QuiverProblem(quiver, dims, FullVertexProduct(vertices[:m]))
        point = QuiverPoint({f"f{i}": self.maps[i - 1] for i in range(1, m + 1)})
        level = Level.vertex({f"v{i}": self.level[i - 1] for i in range(1, m + 1)})
        return problem, point, level

    @staticmethod
    def from_json(obj) -> "FlagChain":
        try:
            dims = obj["dims"]
            maps = [CMatrix.from_json(mj) for mj in obj["maps"]]
            level = [Fraction(str(t)) for t in obj["level"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad flag chain JSON: {exc}") from exc
        return FlagChain(dims, maps, level)


@dataclass(frozen=True)
class DestabilizerWitness:
    """A Hermitian tuple with negative level pairing, certifying
    instability; active at one chain vertex."""

    xi: HermitianTuple
    pairing: Fraction
    vertex: int  # 1-based index of the active vertex
    kernel_dim: int


def _invert_exact(a: CMatrix) -> CMatrix:
    n = a.rows
    identity = CMatrix.identity(n).entries
    work, pivots = rref(CMatrix([row + ident for row, ident in zip(a.entries, identity)]))
    if pivots != list(range(n)):
        raise InputError("singular matrix")
    return CMatrix([row[n:] for row in work])


def kernel_projector(f: CMatrix) -> CMatrix:
    """Exact orthogonal projector onto ker(f); zero matrix if injective."""
    basis = kernel_basis(f)
    if not basis:
        return CMatrix.zeros(f.cols, f.cols)
    b = matrix_from_columns(basis, f.cols)
    gram_inv = _invert_exact(b.adjoint() @ b)
    return b @ gram_inv @ b.adjoint()


def flag_stable(chain: FlagChain):
    """Exact stability of a flag chain at strictly positive level.

    Stable iff every map is injective; otherwise Unstable with the
    witness supported at the first offending vertex: xi_i is minus the
    orthogonal projector onto ker(f_i) and the level pairing is
    -t_i * dim ker(f_i) < 0.  StrictlySemistable never occurs in this
    regime.  Raises NonPositiveLevelError when some t_i <= 0; callers
    must fall back to the numerical oracle there.
    """
    if any(t <= 0 for t in chain.level):
        raise NonPositiveLevelError("exact flag test needs all t_i > 0")
    for i, f in enumerate(chain.maps):
        kdim = chain.dims[i] - rank_exact(f)
        if kdim:
            proj = kernel_projector(f)
            blocks = []
            for j, d in enumerate(chain.dims[:-1]):
                blocks.append(-proj if j == i else CMatrix.zeros(d, d))
            pairing = -chain.level[i] * kdim
            witness = DestabilizerWitness(
                xi=HermitianTuple(blocks), pairing=pairing, vertex=i + 1, kernel_dim=kdim
            )
            return Verdict.UNSTABLE, witness
    return Verdict.STABLE, None


def witness_satisfies_eigencondition(chain: FlagChain, witness: DestabilizerWitness) -> bool:
    """Direct-multiplication check of the destabilizer's eigenspace
    condition: the point must live in the nonpositive eigenspaces of the
    induced endomorphism.

    For the kernel-projector witness the spectra are {-1, 0} at the
    active vertex and {0} elsewhere, so the condition reduces to: the
    active block is Hermitian, minus it is idempotent, and f_i kills its
    image (the lambda = -1 filtration maps to zero)."""
    i = witness.vertex - 1
    xi_i = witness.xi[i]
    if not xi_i.is_hermitian_exact():
        return False
    p = -xi_i
    if p @ p != p:
        return False
    f = chain.maps[i]
    prod = f @ p
    if any(not e.is_zero() for row in prod.entries for e in row):
        return False
    pairing = sum(
        (chain.level[j] * witness.xi[j].trace().re for j in range(chain.m)), Fraction(0)
    )
    return pairing == witness.pairing and pairing < 0


# -- Kronecker-pencil triples --------------------------------------------


class StrommeTriple:
    """A triple k, l : U -> V, m : W -> V with v = u + r, 0 <= r <= w."""

    __slots__ = ("u", "v", "w", "k", "l", "m")

    def __init__(self, k: CMatrix, l: CMatrix, m: CMatrix):
        if k.mode != "exact" or l.mode != "exact" or m.mode != "exact":
            raise InputError("triple entries must be exact")
        v, u = k.rows, k.cols
        if (l.rows, l.cols) != (v, u):
            raise InputError("k and l must have the same shape")
        if m.rows != v:
            raise InputError("m must have the same number of rows as k, l")
        w = m.cols
        r = v - u
        if r < 0 or r > w:
            raise InputError(f"need u <= v <= u + w, got u={u}, v={v}, w={w}")
        if v > MAX_PENCIL_DIM:
            raise LimitError(f"pencil tests are desk-scale, v <= {MAX_PENCIL_DIM}")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "m", m)

    def __setattr__(self, name, value):
        raise AttributeError("StrommeTriple is immutable")

    @staticmethod
    def from_json(obj) -> "StrommeTriple":
        try:
            u, v, w = (parse_int(obj[key], 0) for key in ("u", "v", "w"))
            k = CMatrix.from_json(obj["k"], v, u)
            l = CMatrix.from_json(obj["l"], v, u)
            m = CMatrix.from_json(obj["m"], v, w)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad triple JSON: {exc}") from exc
        return StrommeTriple(k, l, m)

    @staticmethod
    def from_integer_lists(k_rows, l_rows, m_rows, v, u, w) -> "StrommeTriple":
        def mat(rows, rr, cc):
            if rr == 0 or cc == 0:
                return CMatrix.zeros(rr, cc)
            return CMatrix([[GaussianRational(x) for x in row] for row in rows])

        return StrommeTriple(mat(k_rows, v, u), mat(l_rows, v, u), mat(m_rows, v, w))


def _transpose(a: CMatrix) -> CMatrix:
    return matrix_from_columns(a.entries, a.cols)


def _pencil_full_rank_everywhere(a: CMatrix, b: CMatrix) -> bool:
    """Whether x a + y b (u x n, u >= n) has rank n at every (x : y) in P^1.

    (1 : 0) is checked by rank_exact(a).  With a injective, the Wong
    sequence V_0 = Q(i)^n, V_{i+1} = {c in V_i : b c in a V_i} falls to
    {0} iff there is no drop at a finite point.  Proof sketch: a nonzero
    limit V has b V in a V with a injective on V, so a^{-1} b maps V to
    itself and has an eigenvector c over C, b c = lam a c, and the pencil
    drops rank at (-lam : 1).  Conversely a kernel vector c of x a + b
    has b c = -x a c, so span(c) lies in every V_i.  Extending the field
    commutes with each step, so the sequence over Q(i) decides drops at
    complex points too.

    One step: the kernel of [b V_i | -a V_i] is {(y, z) : b V_i y =
    a V_i z}, and its y-parts are coordinates of V_{i+1} in V_i; they
    are independent because a V_i is injective.  The sequence carries
    only a V_i and b V_i.  The dimension falls at every step until the
    limit, so there are at most n + 1 steps.
    """
    n = a.cols
    if rank_exact(a) < n:
        return False
    av, bv = a, b
    while av.cols:
        d = av.cols
        ker = kernel_basis(CMatrix([rb + tuple(-x for x in ra) for rb, ra in zip(bv.entries, av.entries)]))
        if len(ker) == d:
            return False  # a nonzero limit
        y = matrix_from_columns([vec[:d] for vec in ker], d)
        av, bv = av @ y, bv @ y
    return True


def stromme_check(t: StrommeTriple):
    """The two exact nondegeneracy conditions of the triple.

    cond1: the pencil x k + y l has generic rank u.  Every u x u minor
    of x k + l has degree at most u in x, so the generic rank is u iff
    x0 k + l has rank u at one of x0 = 0, 1, ..., u.
    cond2: [x k + y l | m] has rank v at every (x : y) in P^1.  A row
    vector annihilates it iff it is c N with N a basis of the left null
    space of m (n' rows) and c (x N k + y N l) = 0, so cond2 holds iff
    the n' x u pencil x N k + y N l has rank n' everywhere: true when
    n' = 0, false when n' > u, and otherwise decided on the transposes
    by _pencil_full_rank_everywhere.
    is_triple = cond1 and cond2.
    """
    cond1 = any(rank_exact(t.k.scale(x0) + t.l) == t.u for x0 in range(t.u + 1))

    if t.w:
        left = matrix_from_columns(kernel_basis(_transpose(t.m)), t.v)  # N^T, v x n'
    else:
        left = CMatrix.identity(t.v)
    n = left.cols
    if n == 0:
        cond2 = True
    elif n > t.u:
        cond2 = False
    else:
        cond2 = _pencil_full_rank_everywhere(_transpose(t.k) @ left, _transpose(t.l) @ left)
    return {"cond1": cond1, "cond2": cond2, "is_triple": cond1 and cond2}


def quot_invariants(t: StrommeTriple):
    """Rank and degree of the parameterized quotient sheaf: (v - u, u)."""
    if not stromme_check(t)["is_triple"]:
        raise NotATripleError("quotient invariants are defined for triples only")
    return {"rank": t.v - t.u, "degree": t.u}


# -- refutation search ---------------------------------------------------


def _span_basis(mats, nrows):
    cols = []
    for mm in mats:
        for j in range(mm.cols):
            cols.append(tuple(mm.entries[i][j] for i in range(nrows)))
    if not cols:
        return CMatrix.zeros(nrows, 0)
    stacked = matrix_from_columns(cols, nrows)
    return matrix_from_columns(column_space_basis(stacked), nrows)


def _subspace_candidates(t: StrommeTriple, rng, trials):
    """Deterministic structured candidates, then seeded random subspaces."""
    u = t.u
    seen = set()

    def emit(basis: CMatrix):
        key = tuple(tuple(scalar_key(x) for x in row) for row in basis.entries)
        if key not in seen:
            seen.add(key)
            yield basis

    def scalar_key(x):
        return (x.re, x.im)

    def reduce_cols(cols):
        if not cols:
            return CMatrix.zeros(u, 0)
        return matrix_from_columns(column_space_basis(matrix_from_columns(cols, u)), u)

    yield from emit(CMatrix.zeros(u, 0))
    yield from emit(CMatrix.identity(u))
    for size in range(1, u):
        for subset in combinations(range(u), size):
            cols = []
            for j in subset:
                col = [ZERO] * u
                col[j] = ONE
                cols.append(tuple(col))
            yield from emit(reduce_cols(cols))
    pencil_points = [(1, n) for n in range(-3, 4)] + [(0, 1), (1, 0)]
    for x, y in pencil_points:
        combo = t.k.scale(x) + t.l.scale(y)
        basis = kernel_basis(combo)
        yield from emit(reduce_cols(basis))
    for _ in range(trials if u else 0):  # with u = 0 the only subspace is already seen
        kd = int(rng.integers(1, u + 1))
        raw = rng.integers(-3, 4, size=(u, kd))
        cols = [tuple(GaussianRational(int(raw[i, j])) for i in range(u)) for j in range(kd)]
        yield from emit(reduce_cols(cols))


def stromme_refuter(t: StrommeTriple, s, tt, seed: int = 0, trials: int = 100):
    """Randomized + structured search for a pair violating stability.

    Candidate subspaces U1 run over coordinate subspaces, pencil
    kernels, and seeded random rational subspaces; V1 is the minimal
    admissible choice k(U1) + l(U1) (clause 1) or additionally + im(m)
    (clause 2), which dominates all larger choices.  Returns
    (U1_basis, V1_basis, clause) for the first violation of the strict
    inequalities, else None.  Refutation-only: None proves nothing.
    """
    s = EpsRational.coerce(s)
    tt = EpsRational.coerce(tt)
    if not (EpsRational(0) < s and EpsRational(0) < tt):
        raise InputError("level parameters must be positive")
    import numpy as np

    rng = np.random.default_rng(seed)
    for basis in _subspace_candidates(t, rng, trials):
        dim_u1 = basis.cols
        img = _span_basis([t.k @ basis, t.l @ basis], t.v)
        dim_v1 = img.cols
        if (dim_u1, dim_v1) != (0, 0):
            if s * dim_v1 <= tt * dim_u1:
                return basis, img, "clause1"
        v2 = _span_basis([img, t.m], t.v)
        dim_v2 = v2.cols
        if (dim_u1, dim_v2) != (t.u, t.v):
            if tt * (t.u - dim_u1) <= s * (t.v - dim_v2):
                return basis, v2, "clause2"
    return None
