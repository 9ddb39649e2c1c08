"""Exact and floating complex linear algebra shared by all other modules.

Exact scalars are Gaussian rationals (pairs of ``fractions.Fraction``);
float scalars are 64-bit complex doubles.  Every operation is pure and
deterministic: elimination always pivots on the first nonzero entry in
row-major order, so results are reproducible bit for bit.  The one
fraction-free Bareiss loop and the one Gauss-Jordan loop below serve
every exact module.  Only the float helpers import numpy, so the exact
modules load without it.

JSON conventions: a rational is the string ``"p/q"`` (or ``"p"``), a
complex scalar is ``{"re": "p/q", "im": "p/q"}``, a matrix is a
row-major nested array.  Plain JSON integers are accepted on input.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import InputError, SfpasError

HERMITIAN_REL_TOL = 1e-12  # float-mode HermitianTuple validation


class ModeError(SfpasError):
    """Operation received a matrix in the wrong arithmetic mode."""


class NonHermitianError(InputError):
    pass


class GaussianRational:
    """A Gaussian rational a + b*i with exact Fraction components.

    Immutable; Fraction keeps both components in canonical reduced form
    (gcd(num, den) = 1, den > 0).
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __add__(self, other):
        other = as_scalar(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = as_scalar(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return as_scalar(other) - self

    def __mul__(self, other):
        other = as_scalar(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_scalar(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        return as_scalar(other) / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conj(self):
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        try:
            other = as_scalar(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def as_scalar(x) -> GaussianRational:
    """Coerce an int/Fraction/GaussianRational into a GaussianRational."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    raise TypeError(f"cannot interpret {x!r} as an exact complex scalar")


def fraction_to_str(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_fraction(s) -> Fraction:
    if isinstance(s, bool):
        raise InputError(f"not a rational: {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational: {s!r}") from exc
    raise InputError(f"not a rational: {s!r}")


def scalar_to_json(z: GaussianRational):
    return {"re": fraction_to_str(z.re), "im": fraction_to_str(z.im)}


def scalar_from_json(obj) -> GaussianRational:
    if isinstance(obj, dict):
        return GaussianRational(parse_fraction(obj.get("re", 0)), parse_fraction(obj.get("im", 0)))
    return GaussianRational(parse_fraction(obj))


class CMatrix:
    """Immutable complex matrix in one of two arithmetic modes.

    mode "exact": entries are GaussianRational.  mode "float": entries are
    Python complex (64-bit doubles).  The mode is uniform across entries
    and explicit in every consumer's contract.
    """

    __slots__ = ("rows", "cols", "mode", "entries")

    def __init__(self, entries, mode="exact"):
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        norm = []
        for row in entries:
            if len(row) != cols:
                raise InputError("ragged matrix")
            if mode == "exact":
                norm.append(tuple(as_scalar(x) for x in row))
            elif mode == "float":
                norm.append(tuple(complex(x) for x in row))
            else:
                raise InputError(f"unknown mode {mode!r}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "entries", tuple(norm))

    def __setattr__(self, name, value):
        raise AttributeError("CMatrix is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(rows, cols, mode="exact"):
        fill = ZERO if mode == "exact" else 0j
        return CMatrix([[fill] * cols for _ in range(rows)], mode=mode)

    @staticmethod
    def identity(n, mode="exact"):
        if mode == "exact":
            return CMatrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])
        return CMatrix([[1.0 + 0j if i == j else 0j for j in range(n)] for i in range(n)], mode="float")

    @staticmethod
    def from_numpy(arr):
        import numpy as np

        arr = np.asarray(arr, dtype=complex)
        if arr.ndim != 2:
            raise InputError("expected a 2-d array")
        return CMatrix([[complex(v) for v in row] for row in arr], mode="float")

    def to_numpy(self) -> "np.ndarray":
        import numpy as np

        return np.array([[complex(v) for v in row] for row in self.entries], dtype=complex).reshape(
            self.rows, self.cols
        )

    def to_float(self) -> "CMatrix":
        if self.mode == "float":
            return self
        return CMatrix([[complex(v) for v in row] for row in self.entries], mode="float")

    # -- arithmetic ---------------------------------------------------

    def _require_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols or self.mode != other.mode:
            raise ModeError("shape or mode mismatch")

    def __add__(self, other):
        self._require_same_shape(other)
        return CMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
            mode=self.mode,
        )

    def __sub__(self, other):
        self._require_same_shape(other)
        return CMatrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
            mode=self.mode,
        )

    def __neg__(self):
        return CMatrix([[-a for a in row] for row in self.entries], mode=self.mode)

    def scale(self, c):
        c = as_scalar(c) if self.mode == "exact" else complex(c)
        return CMatrix([[c * a for a in row] for row in self.entries], mode=self.mode)

    def __matmul__(self, other):
        if self.cols != other.rows or self.mode != other.mode:
            raise ModeError("shape or mode mismatch in product")
        zero = ZERO if self.mode == "exact" else 0j
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = zero
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return CMatrix(out, mode=self.mode)

    def adjoint(self) -> "CMatrix":
        if self.mode == "exact":
            ent = [[self.entries[i][j].conj() for i in range(self.rows)] for j in range(self.cols)]
        else:
            ent = [[self.entries[i][j].conjugate() for i in range(self.rows)] for j in range(self.cols)]
        return CMatrix(ent, mode=self.mode)

    def trace(self):
        if self.rows != self.cols:
            raise InputError("trace of a non-square matrix")
        acc = ZERO if self.mode == "exact" else 0j
        for i in range(self.rows):
            acc = acc + self.entries[i][i]
        return acc

    def is_hermitian_exact(self) -> bool:
        if self.rows != self.cols or self.mode != "exact":
            return False
        return all(
            self.entries[i][j] == self.entries[j][i].conj()
            for i in range(self.rows)
            for j in range(self.rows)
        )

    def __eq__(self, other):
        if not isinstance(other, CMatrix):
            return NotImplemented
        return (
            self.mode == other.mode
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.mode, self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"CMatrix({self.rows}x{self.cols}, {self.mode})"

    # -- JSON ---------------------------------------------------------

    def to_json(self):
        if self.mode == "exact":
            return [[scalar_to_json(v) for v in row] for row in self.entries]
        return [[[v.real, v.imag] for v in row] for row in self.entries]

    @staticmethod
    def from_json(obj, rows=None, cols=None) -> "CMatrix":
        if not isinstance(obj, list) or (obj and not isinstance(obj[0], list)):
            raise InputError("matrix JSON must be a nested array")
        if not obj:
            if rows is None or cols is None:
                rows, cols = 0, 0
            return CMatrix.zeros(rows, cols)
        mat = CMatrix([[scalar_from_json(v) for v in row] for row in obj])
        if rows is not None and (mat.rows, mat.cols) != (rows, cols):
            raise InputError(f"expected a {rows}x{cols} matrix, got {mat.rows}x{mat.cols}")
        return mat


class HermitianTuple:
    """An ordered tuple of Hermitian blocks, one per symmetry factor."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        blocks = tuple(blocks)
        for b in blocks:
            if b.rows != b.cols:
                raise InputError("Hermitian block must be square")
            if b.mode == "exact":
                if not b.is_hermitian_exact():
                    raise NonHermitianError("exact block is not Hermitian")
            else:
                import numpy as np

                arr = b.to_numpy()
                scale = max(1.0, float(np.linalg.norm(arr)))
                if float(np.linalg.norm(arr - arr.conj().T)) > HERMITIAN_REL_TOL * scale:
                    raise NonHermitianError("float block is not Hermitian within 1e-12 relative")
        object.__setattr__(self, "blocks", blocks)

    def __setattr__(self, name, value):
        raise AttributeError("HermitianTuple is immutable")

    def __iter__(self):
        return iter(self.blocks)

    def __len__(self):
        return len(self.blocks)

    def __getitem__(self, i):
        return self.blocks[i]

    def to_json(self):
        return [b.to_json() for b in self.blocks]


# -- the exact elimination core ----------------------------------------


def bareiss(m, ncols, step, zero, one):
    """Fraction-free Bareiss elimination of the rows ``m``, in place.

    The entries lie in an integral domain with neutral elements ``zero``
    and ``one``, and ``step(p, a, h, b, prev)`` returns the quotient
    (p*a - h*b) / prev, which is exact in the domain (Bareiss 1968).
    Pivots on the first nonzero entry of each column, in row-major
    order, and leaves ``m`` in row echelon form.  Returns (rank, odd),
    where ``odd`` is the parity of the row swaps; for a square matrix of
    full rank the last entry of ``m`` is then (-1)**odd * det.
    """
    nrows = len(m)
    rank = 0
    odd = False
    prev = one
    for col in range(ncols):
        for i in range(rank, nrows):
            if m[i][col] != zero:
                break
        else:
            continue
        if i != rank:
            m[rank], m[i] = m[i], m[rank]
            odd = not odd
        top = m[rank]
        p = top[col]
        for row in m[rank + 1:]:
            h = row[col]
            for j in range(col + 1, ncols):
                row[j] = step(p, row[j], h, top[j], prev)
            row[col] = zero
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank, odd


def gauss_jordan(rows, ncols):
    """Reduce ``rows`` in place to reduced row echelon form, pivoting in
    the first ``ncols`` columns only (later columns, such as a right-hand
    side or an identity block, are carried along).

    Entries are exact field elements, ``Fraction`` or
    ``GaussianRational``.  Pivots on the first nonzero entry of each
    column, in row-major order.  Returns the pivot columns.
    """
    nrows = len(rows)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        inv = 1 / rows[r][c]
        top = rows[r] = [inv * x for x in rows[r]]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [x - f * y for x, y in zip(rows[i], top)]
        pivots.append(c)
    return pivots


def _gint_step(p, a, h, b, prev):
    # (p*a - h*b) / prev over the Gaussian integers, as (re, im) pairs
    re = p[0] * a[0] - p[1] * a[1] - h[0] * b[0] + h[1] * b[1]
    im = p[0] * a[1] + p[1] * a[0] - h[0] * b[1] - h[1] * b[0]
    d = prev[0] * prev[0] + prev[1] * prev[1]
    return ((re * prev[0] + im * prev[1]) // d, (im * prev[0] - re * prev[1]) // d)


def _to_gaussian_integer_rows(a: CMatrix):
    """Scale each row by the lcm of component denominators.

    Row scaling by positive rationals changes neither rank nor kernel
    membership of row-space complements, and keeps Bareiss elimination
    inside the Gaussian integers.
    """
    rows = []
    for row in a.entries:
        mult = lcm(*(x.re.denominator for x in row), *(x.im.denominator for x in row), 1)
        rows.append(
            [(int(x.re * mult), int(x.im * mult)) for x in row]
        )
    return rows


def rank_exact(a: CMatrix) -> int:
    """Rank over the Gaussian rationals via fraction-free elimination.

    Deterministic: pivots on the first nonzero entry in row-major order.
    """
    if a.mode != "exact":
        raise ModeError("rank_exact requires exact mode")
    return bareiss(_to_gaussian_integer_rows(a), a.cols, _gint_step, (0, 0), (1, 0))[0]


def rref(a: CMatrix):
    """Reduced row echelon form over the Gaussian rationals.

    Returns (rows, pivot_columns) where rows is a list of lists of
    GaussianRational.  First-nonzero pivoting in row-major order.
    """
    if a.mode != "exact":
        raise ModeError("rref requires exact mode")
    work = [list(row) for row in a.entries]
    pivots = gauss_jordan(work, a.cols)
    return work, pivots


def kernel_basis(a: CMatrix):
    """Exact basis of ker(A) as a list of column vectors.

    Empty list iff A is injective; every returned vector b satisfies
    A @ b = 0 exactly.  Free columns are taken in increasing order and
    the basis vector for free column j has entry 1 at position j.
    """
    if a.mode != "exact":
        raise ModeError("kernel_basis requires exact mode")
    work, pivots = rref(a)
    pivot_set = set(pivots)
    basis = []
    for j in range(a.cols):
        if j in pivot_set:
            continue
        vec = [ZERO] * a.cols
        vec[j] = ONE
        for r, c in enumerate(pivots):
            vec[c] = -work[r][j]
        basis.append(tuple(vec))
    return basis


def matrix_from_columns(cols, nrows) -> CMatrix:
    if not cols:
        return CMatrix.zeros(nrows, 0)
    return CMatrix([[col[i] for col in cols] for i in range(nrows)])


def column_space_basis(a: CMatrix):
    """Pivot columns of A: an exact basis of the column span."""
    _, pivots = rref(a)
    return [tuple(a.entries[i][c] for i in range(a.rows)) for c in pivots]
