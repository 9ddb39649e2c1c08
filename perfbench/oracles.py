"""Reference computations for the benchmark, written apart from sfpas.

Nothing here imports sfpas, its kernel lane or its test oracles.  The
exact references work on plain ``int`` and ``Fraction`` values (Gaussian
rationals are ``(re, im)`` pairs of Fractions); the float references
(moment energy, vortex residual) use numpy, which they import when
called, so that drawing inputs before the timed set-up leaves numpy's
import to sfpas's.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

# -- integer and rational linear algebra ---------------------------------


def int_det(mat):
    """Determinant of a square integer matrix by fraction-free Bareiss."""
    n = len(mat)
    if n == 0:
        return 1
    a = [list(row) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def int_rank(mat):
    """Rank of an integer matrix by fraction-free elimination."""
    a = [list(row) for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    rank = 0
    prev = 1
    for c in range(cols):
        piv = next((i for i in range(rank, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        p = a[rank][c]
        for i in range(rank + 1, rows):
            h = a[i][c]
            for j in range(c + 1, cols):
                a[i][j] = (p * a[i][j] - h * a[rank][j]) // prev
            a[i][c] = 0
        prev = p
        rank += 1
        if rank == rows:
            break
    return rank


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _cdiv(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def crank(rows):
    """Rank over Q(i) of a matrix of (re, im) Fraction pairs."""
    a = [list(r) for r in rows]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    rank = 0
    for c in range(nc):
        piv = next((i for i in range(rank, nr) if a[i][c] != (0, 0)), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        p = a[rank][c]
        for i in range(rank + 1, nr):
            if a[i][c] == (0, 0):
                continue
            f = _cdiv(a[i][c], p)
            for j in range(c, nc):
                g = _cmul(f, a[rank][j])
                a[i][j] = (a[i][j][0] - g[0], a[i][j][1] - g[1])
        rank += 1
    return rank


def cmatmul(a, b):
    """Product of two matrices of (re, im) Fraction pairs."""
    inner = len(b)
    cols = len(b[0]) if inner else 0
    out = []
    for row in a:
        out_row = []
        for j in range(cols):
            re = im = Fraction(0)
            for k in range(inner):
                x, y = row[k], b[k][j]
                re += x[0] * y[0] - x[1] * y[1]
                im += x[0] * y[1] + x[1] * y[0]
            out_row.append((re, im))
        out.append(out_row)
    return out


def cadjoint(a):
    if not a:
        return []
    return [[(a[i][j][0], -a[i][j][1]) for i in range(len(a))] for j in range(len(a[0]))]


def pairs(cmatrix):
    """(re, im) Fraction pairs of an exact sfpas matrix, read entry by entry."""
    return [[(Fraction(x.re), Fraction(x.im)) for x in row] for row in cmatrix.entries]


def columns_of(rows, ncols):
    return [[rows[i][j] for i in range(len(rows))] for j in range(ncols)]


# -- pencil oracle (cond1 / cond2 of a Kronecker triple) -------------------

# 49 affine points (x : 1) and the point at infinity (1 : 0)
PENCIL_POINTS = [(x, 1) for x in range(-24, 25)] + [(1, 0)]


def _pencil_matrix(k, l, m, x, y, cols):
    """Columns `cols` of [x k + y l | m] as an integer matrix."""
    u = len(k[0]) if k else 0
    out = []
    for i in range(len(k) if k else len(m)):
        row = []
        for j in cols:
            if j < u:
                row.append(x * k[i][j] + y * l[i][j])
            else:
                row.append(m[i][j - u])
        out.append(row)
    return out


def _interpolate(xs, ys):
    """Coefficients (low to high) of the polynomial through (xs, ys) over Q."""
    coeffs = [Fraction(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        if yi == 0:
            continue
        basis = [Fraction(1)]
        denom = 1
        for j, xj in enumerate(xs):
            if j == i:
                continue
            basis = [Fraction(0)] + basis
            for d in range(len(basis) - 1):
                basis[d] -= xj * basis[d + 1]
            denom *= xi - xj
        scale = Fraction(yi, denom)
        for d, c in enumerate(basis):
            coeffs[d] += scale * c
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _monic_gcd(a, b):
    """Monic gcd over Q of two coefficient lists (low to high)."""
    a, b = list(a), list(b)
    while b:
        r = list(a)
        while len(r) >= len(b):
            f = r[-1] / b[-1]
            shift = len(r) - len(b)
            for i, c in enumerate(b):
                r[shift + i] -= f * c
            r.pop()
            while r and r[-1] == 0:
                r.pop()
        a, b = b, r
    return [c / a[-1] for c in a]


def pencil_oracle(k, l, m, u, v, w):
    """(cond1, cond2) of an integer triple by evaluation and interpolation.

    cond1: the largest rank of x k + y l over the 50 fixed points equals
    u; a nonzero maximal minor has degree at most u, so it cannot vanish
    at all of them.  cond2: [x k + y l | m] has full rank v at every
    point of P^1: no rank drop at the 50 points, and the maximal minors,
    rebuilt by Lagrange interpolation, have no common root (monic gcd of
    degree 0 and some minor nonzero at infinity).
    """
    cond1 = u == 0 or max(
        int_rank([[x * k[i][j] + y * l[i][j] for j in range(u)] for i in range(v)])
        for x, y in PENCIL_POINTS
    ) == u
    return cond1, _pencil_cond2(k, l, m, u, v, w)


def _pencil_cond2(k, l, m, u, v, w):
    if v == 0:
        return True
    if u + w < v:
        return False
    all_cols = range(u + w)
    for x, y in PENCIL_POINTS:
        if int_rank(_pencil_matrix(k, l, m, x, y, all_cols)) < v:
            return False
    polys = []
    nonzero_at_infinity = False
    for cols in combinations(all_cols, v):
        c = sum(1 for j in cols if j < u)
        xs = list(range(c + 1))
        poly = _interpolate(xs, [int_det(_pencil_matrix(k, l, m, x, 1, cols)) for x in xs])
        top = int_det(_pencil_matrix(k, l, m, 1, 0, cols))
        if Fraction(top) != (poly[c] if len(poly) == c + 1 else 0):
            raise ArithmeticError("interpolated minor disagrees at infinity")
        if not poly:
            continue
        if c == 0:
            return True
        polys.append(poly)
        nonzero_at_infinity = nonzero_at_infinity or top != 0
    if not polys or not nonzero_at_infinity:
        return False
    g = polys[0]
    for p in polys[1:]:
        g = _monic_gcd(g, p)
        if len(g) == 1:
            return True
    return len(g) == 1


# -- flag chains ------------------------------------------------------------


def kernel_profile(dims, maps):
    """dim ker f_i for every map of a flag chain (rational matrices), by the rank over Q(i)."""
    return [dims[i] - crank([[(x, Fraction(0)) for x in row] for row in f]) for i, f in enumerate(maps)]


def flag_witness_errors(maps, level, witness, kdims):
    """Properties of a kernel-projector witness, in Fraction arithmetic.

    The active block must be Hermitian and minus an idempotent, f_i must
    kill it, every other block must vanish, and the level pairing must
    equal -t_i * dim ker f_i < 0.  Returns a list of failed properties.
    """
    i = witness.vertex - 1
    errors = []
    expected = next((j for j, kd in enumerate(kdims) if kd > 0), None)
    if i != expected:
        errors.append(f"witness at vertex {i + 1}, first kernel at {expected}")
        return errors
    xi = pairs(witness.xi[i])
    if cadjoint(xi) != xi:
        errors.append("active block not Hermitian")
    p = [[(-a, -b) for a, b in row] for row in xi]
    if cmatmul(p, p) != p:
        errors.append("minus the active block is not idempotent")
    killed = cmatmul([[(x, Fraction(0)) for x in row] for row in maps[i]], p)
    if any(e != (0, 0) for row in killed for e in row):
        errors.append("f_i does not kill the witness")
    for j in range(len(maps)):
        if j != i and any(e != (0, 0) for row in pairs(witness.xi[j]) for e in row):
            errors.append(f"block {j + 1} is not zero")
    trace = sum((xi[d][d][0] for d in range(len(xi))), Fraction(0))
    t_i = Fraction(level[i])
    pairing = t_i * trace
    if not (pairing == -t_i * kdims[i] == Fraction(witness.pairing) and pairing < 0):
        errors.append(f"pairing {pairing} != -t_i * dim ker = {-t_i * kdims[i]}")
    return errors


def chain_moment_energy(dims, level, final_maps):
    """||mu||^2 of a flag chain's float point: at vertex i <= m the block is
    (f_i^* f_i - f_{i-1} f_{i-1}^*) / 2 - t_i Id."""
    import numpy as np

    maps = [np.array(f, dtype=complex).reshape(dims[i + 1], dims[i]) for i, f in enumerate(final_maps)]
    energy = 0.0
    for i in range(len(maps)):
        block = maps[i].conj().T @ maps[i]
        if i > 0:
            block = block - maps[i - 1] @ maps[i - 1].conj().T
        block = block / 2.0 - float(level[i]) * np.eye(dims[i])
        energy += float(np.sum(np.abs(block) ** 2))
    return energy


# -- toric references -------------------------------------------------------


def _solve_small(a, b):
    """Solve the small square rational system a x = b by Gauss-Jordan."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[-1] for row in aug]


def is_ample(rays, cones, a):
    """Strict convexity of the support function of sum a_j D_j.

    For each maximal cone s, the linear m_s with <m_s, u_j> = -a_j on the
    rays of s must satisfy <m_s, u_k> > -a_k on every other ray.
    """
    for cone in cones:
        idx = sorted(cone)
        m_s = _solve_small([rays[j - 1] for j in idx], [-Fraction(a[j - 1]) for j in idx])
        for k in range(1, len(rays) + 1):
            if k in cone:
                continue
            if sum(x * y for x, y in zip(m_s, rays[k - 1])) <= -Fraction(a[k - 1]):
                return False
    return True


def fan_admissible(support, cones, r):
    """Some maximal cone asks for nonzero coordinates only inside the support."""
    return any(set(range(1, r + 1)) - set(cone) <= set(support) for cone in cones)


# -- refuter witnesses -------------------------------------------------------


def eps_le(x, y):
    """x <= y for numbers a + b*eps given as (a, b) pairs."""
    return (x[0], x[1]) <= (y[0], y[1])


def refuter_errors(k, l, m, u, v, s, t, witness):
    """Re-verify a (U1, V1, clause) refutation of a triple's stability.

    k, l, m are Fraction-pair matrices; s and t are (a, b) pairs read as
    a + b*eps.  U1 and V1 must be bases, V1 must contain k(U1) + l(U1)
    (and im m for clause 2), and the clause's inequality must hold.
    """
    u1, v1, clause = witness
    u1r, v1r = pairs(u1), pairs(v1)
    du, dv = u1.cols, v1.cols
    errors = []
    if crank(u1r) != du or crank(v1r) != dv:
        errors.append("U1 or V1 is not a basis")
    images = []
    if du:
        images += columns_of(cmatmul(k, u1r), du) + columns_of(cmatmul(l, u1r), du)
    if clause == "clause2" and m and m[0]:
        images += columns_of(m, len(m[0]))
    span = columns_of(v1r, dv) + images
    if images and crank(span) != dv:
        errors.append("V1 does not contain the required images")

    def scaled(p, n):
        return (p[0] * n, p[1] * n)

    if clause == "clause1":
        ok = (du, dv) != (0, 0) and eps_le(scaled(s, dv), scaled(t, du))
    elif clause == "clause2":
        ok = (du, dv) != (u, v) and eps_le(scaled(t, u - du), scaled(s, v - dv))
    else:
        ok = False
    if not ok:
        errors.append(f"{clause} inequality fails for dims ({du}, {dv})")
    return errors


# -- vortex reference --------------------------------------------------------


def vortex_residuals(u, length, d, centers, t):
    """(sup residual, quantization) of Lap u = B0 e^{2u} / 2 - tau0 on the
    square torus of side `length`, with B0 a product of Gaussian wells of
    width length / 16."""
    import numpy as np

    u = np.asarray(u, dtype=float)
    n = u.shape[0]
    sigma = length / 16.0
    freq = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
    symbol = -(freq[:, None] ** 2 + freq[None, :] ** 2)
    lap = np.fft.ifft2(symbol * np.fft.fft2(u)).real
    coords = np.arange(n) * (length / n)
    b0 = np.ones((n, n))
    for cx, cy, mult in centers:
        dx = np.abs(coords - cx)
        dx = np.minimum(dx, length - dx)
        dy = np.abs(coords - cy)
        dy = np.minimum(dy, length - dy)
        dist2 = dx[:, None] ** 2 + dy[None, :] ** 2
        b0 = b0 * (1.0 - np.exp(-dist2 / (2.0 * sigma * sigma))) ** mult
    tau0 = t + 2.0 * np.pi * d / (length * length)
    source = 0.5 * b0 * np.exp(2.0 * u)
    residual = float(np.max(np.abs(lap - source + tau0)))
    quantization = float(abs(np.mean(source) - tau0))
    return residual, quantization
