"""Exact and floating complex linear algebra shared by all other modules.

Exact scalars are Gaussian rationals (pairs of ``fractions.Fraction``);
float scalars are 64-bit complex doubles.  Every operation is pure and
deterministic: elimination always pivots on the first nonzero entry in
row-major order, so results are reproducible bit for bit.  One
fraction-free Gauss-Jordan loop over Z[i] serves every exact module:
ranks count its pivots, and reduced forms (hence kernels, column spaces,
inverses and solves) divide each of its rows by its pivot once, at the
end.  Only the float helpers import numpy, so the exact modules load
without it.

JSON conventions: a rational is the string ``"p/q"`` (or ``"p"``), a
complex scalar is ``{"re": "p/q", "im": "p/q"}``, a matrix is a
row-major nested array.  Plain JSON integers are accepted on input.
"""

from __future__ import annotations

import operator
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

    def __mul__(self, other):
        other = as_scalar(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

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


def parse_int(x, minimum=None) -> int:
    """An integer field: an int (or another ``operator.index`` type), never
    a bool, float or string, and at least ``minimum`` when one is given."""
    if isinstance(x, bool):
        raise InputError(f"not an integer: {x!r}")
    try:
        n = operator.index(x)
    except TypeError:
        raise InputError(f"not an integer: {x!r}") from None
    if minimum is not None and n < minimum:
        raise InputError(f"expected an integer >= {minimum}, got {n}")
    return n


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
            # [] has no rows, so it is a matrix only of a shape with no entries
            if rows is None or cols is None:
                rows, cols = 0, 0
            elif rows and cols:
                raise InputError(f"expected a {rows}x{cols} matrix, got []")
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


def _to_gaussian_integer_rows(a: CMatrix):
    """Each row of A scaled by the lcm of its component denominators, as
    rows of Gaussian integers given as (re, im) pairs.

    Scaling a row by a positive integer changes neither the rank nor the
    reduced row echelon form, and keeps the elimination loop below inside
    the Gaussian integers.
    """
    if a.mode != "exact":
        raise ModeError("exact elimination requires exact mode")
    rows = []
    for row in a.entries:
        mult = lcm(*(x.re.denominator for x in row), *(x.im.denominator for x in row), 1)
        rows.append([
            (x.re.numerator * (mult // x.re.denominator), x.im.numerator * (mult // x.im.denominator))
            for x in row
        ])
    return rows


def _eliminate(m):
    """Fraction-free Gauss-Jordan reduction, in place, of rows of Gaussian
    integers given as (re, im) pairs; returns the pivot columns.

    Each pivot p is the first nonzero entry of its column at or below the
    next pivot row, in row-major order.  Every other row is then updated
    over its full width as (p*a - h*b) / q, with h its entry in the pivot
    column, b the pivot row and q the previous pivot.  Each quotient is
    exact in Z[i] (Bareiss 1968; Nakos-Turner-Williams 1997), and at the
    end every pivot entry equals the last pivot.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    qr, qi = 1, 0
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        for i in range(r, nrows):
            if m[i][col] != (0, 0):
                break
        else:
            continue
        m[r], m[i] = m[i], m[r]
        top = m[r]
        pr, pi = top[col]
        d = qr * qr + qi * qi
        for k, row in enumerate(m):
            if k == r:
                continue
            hr, hi = row[col]
            new = []
            for (ar, ai), (br, bi) in zip(row, top):
                re = pr * ar - pi * ai - hr * br + hi * bi
                im = pr * ai + pi * ar - hr * bi - hi * br
                new.append(((re * qr + im * qi) // d, (im * qr - re * qi) // d))
            m[k] = new
        qr, qi = pr, pi
        pivots.append(col)
    return pivots


def rank_exact(a: CMatrix) -> int:
    """Rank over the Gaussian rationals: the number of pivots."""
    return len(_eliminate(_to_gaussian_integer_rows(a)))


def rref(a: CMatrix):
    """Reduced row echelon form over the Gaussian rationals.

    Returns (rows, pivot_columns) where rows is a list of lists of
    GaussianRational.  First-nonzero pivoting in row-major order.
    """
    m = _to_gaussian_integer_rows(a)
    pivots = _eliminate(m)
    work = []
    for row, c in zip(m, pivots):
        pr, pi = row[c]
        d = pr * pr + pi * pi
        work.append([
            GaussianRational(Fraction(ar * pr + ai * pi, d), Fraction(ai * pr - ar * pi, d))
            if ar or ai else ZERO
            for ar, ai in row
        ])
    work += [[ZERO] * a.cols for _ in range(a.rows - len(pivots))]
    return work, pivots


def kernel_basis(a: CMatrix):
    """Exact basis of ker(A) as a list of column vectors.

    Empty list iff A is injective; every returned vector b satisfies
    A @ b = 0 exactly.  Free columns are taken in increasing order and
    the basis vector for free column j has entry 1 at position j.
    """
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
