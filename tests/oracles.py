"""Independent brute-force oracles for the pencil/minor stability test,
for toric fan completeness and for the theta pairing, plus
symmetry-deduplicated enumeration of small integer triples.

The oracle must not share code paths with the product implementation:
ranks are evaluated at 50 fixed rational points (the product takes
ranks at u + 1 points), and the maximal minors are reconstructed by
Lagrange interpolation from integer determinant evaluations with a
monic Euclid gcd over Q (the product forms no minors: it runs a Wong
sequence of the pencil on the left null space of m).  The fan oracle
tests points instead of ridges (the product pairs up ridges).  The
exterior algebra multiplies monomials with a bubble-sort sign and
builds Theta^i / i! as i repeated products divided by i! (the product
reads the pairing off in closed form).  The integer rank and
determinant and the rational solve below are the oracle's own; nothing
here imports sfpas.
"""

from fractions import Fraction
from itertools import combinations, product


def rank_int(mat) -> int:
    """Rank over Q of an integer matrix via Bareiss elimination.

    Pivot choice is the first row with a nonzero entry in the current
    column, scanning in row-major order.
    """
    m = [list(row) for row in mat]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = None
        for i in range(rank, nrows):
            if m[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
        p = m[rank][col]
        for i in range(rank + 1, nrows):
            h = m[i][col]
            if h == 0 and p == prev:
                continue
            row_i = m[i]
            row_r = m[rank]
            for j in range(col + 1, ncols):
                row_i[j] = (p * row_i[j] - h * row_r[j]) // prev
            row_i[col] = 0
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


def det_int(mat) -> int:
    """Determinant of a square integer matrix via Bareiss elimination."""
    m = [list(row) for row in mat]
    n = len(m)
    if n == 0:
        return 1
    if any(len(row) != n for row in m):
        raise ValueError("det_int requires a square matrix")
    sign = 1
    prev = 1
    for col in range(n - 1):
        pivot = None
        for i in range(col, n):
            if m[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        p = m[col][col]
        for i in range(col + 1, n):
            h = m[i][col]
            row_i = m[i]
            row_c = m[col]
            for j in range(col + 1, n):
                row_i[j] = (p * row_i[j] - h * row_c[j]) // prev
            row_i[col] = 0
        prev = p
    return sign * m[n - 1][n - 1]


# 49 affine points (x : 1) plus the point at infinity (1 : 0)
ORACLE_POINTS = [(x, 1) for x in range(-24, 25)] + [(1, 0)]


def _pencil_at(k_rows, l_rows, m_rows, u, v, w, x, y):
    mat = []
    for i in range(v):
        row = [x * k_rows[i][j] + y * l_rows[i][j] for j in range(u)]
        row.extend(m_rows[i])
        mat.append(row)
    return mat


def oracle_cond1(k_rows, l_rows, u, v) -> bool:
    """Generic pencil rank == u, via evaluation at the fixed points.

    Any maximal-rank minor is a nonzero binary form of degree <= u, so
    it vanishes at no more than u of the 50 distinct projective points;
    the maximum evaluated rank therefore equals the generic rank.
    """
    if u == 0:
        return True
    best = 0
    for x, y in ORACLE_POINTS:
        mat = [
            [x * k_rows[i][j] + y * l_rows[i][j] for j in range(u)] for i in range(v)
        ]
        best = max(best, rank_int(mat))
        if best == u:
            return True
    return False


def _lagrange(points, values):
    """Interpolating polynomial through (x_i, y_i) as Fraction coeffs."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(zip(points, values)):
        # basis poly prod_{j != i} (x - x_j) / (x_i - x_j)
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(points):
            if j == i:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                new[d] -= c * xj
                new[d + 1] += c
            basis = new
            denom *= xi - xj
        scale = Fraction(yi) / denom
        for d, c in enumerate(basis):
            coeffs[d] += scale * c
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_gcd_monic(a, b):
    """Euclid's algorithm over Q[x] with monic remainders."""
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    a, b = trim(a), trim(b)
    while b:
        # a mod b
        r = a[:]
        while len(r) >= len(b) and trim(r):
            if r[-1] == 0:
                r.pop()
                continue
            f = r[-1] / b[-1]
            shift = len(r) - len(b)
            for i, c in enumerate(b):
                r[shift + i] -= f * c
            r.pop()
        a, b = b, trim(r)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def oracle_cond2(k_rows, l_rows, m_rows, u, v, w) -> bool:
    """Full rank for every (x, y) != 0: 50-point ranks plus a certified
    interpolation gcd of the maximal minors."""
    if v == 0:
        return True
    if u + w < v:
        return False
    for x, y in ORACLE_POINTS:
        if rank_int(_pencil_at(k_rows, l_rows, m_rows, u, v, w, x, y)) < v:
            return False

    dehom = []  # minors F(x, 1) as Fraction coefficient lists
    infinity_mults = []  # hom_deg - deg, per nonzero minor
    any_nonzero = False
    for subset in combinations(range(u + w), v):
        c = sum(1 for j in subset if j < u)

        def minor_at(x, y):
            mat = []
            for i in range(v):
                row = []
                for j in subset:
                    if j < u:
                        row.append(x * k_rows[i][j] + y * l_rows[i][j])
                    else:
                        row.append(m_rows[i][j - u])
                mat.append(row)
            return det_int(mat)

        xs = list(range(c + 1))
        values = [minor_at(x, 1) for x in xs]
        poly = _lagrange(xs, values)
        lead_at_infinity = minor_at(1, 0)  # coefficient of x^c
        expected_lead = poly[c] if len(poly) == c + 1 else 0
        assert Fraction(lead_at_infinity) == expected_lead
        if not poly and lead_at_infinity == 0:
            continue
        any_nonzero = True
        if c == 0:
            return True  # nonzero constant minor
        dehom.append(poly)
        infinity_mults.append(c - (len(poly) - 1) if poly else c)
    if not any_nonzero:
        return False
    if min(infinity_mults) > 0:
        return False  # every minor vanishes at (1 : 0)
    acc = []
    for p in dehom:
        acc = _poly_gcd_monic(acc, p) if acc else list(p)
        if len(acc) == 1:
            break
    return len(acc) == 1


def oracle_check(k_rows, l_rows, m_rows, u, v, w):
    return {
        "cond1": oracle_cond1(k_rows, l_rows, u, v),
        "cond2": oracle_cond2(k_rows, l_rows, m_rows, u, v, w),
    }


# -- symmetry-deduplicated enumeration ----------------------------------


def _signed_perm_generators(n):
    """Generators of the signed permutation action on n indices."""
    gens = []
    if n >= 2:
        swap = list(range(n))
        swap[0], swap[1] = swap[1], swap[0]
        gens.append((tuple(swap), tuple([1] * n)))
        cycle = tuple(list(range(1, n)) + [0])
        gens.append((cycle, tuple([1] * n)))
    if n >= 1:
        gens.append((tuple(range(n)), tuple([-1] + [1] * (n - 1))))
    return gens


def _pair_generators(u, v):
    """Index/sign actions on flattened (k | l) pairs, 2uv entries.

    Entry layout: k[i][j] at i*u + j, l[i][j] at uv + i*u + j.
    Row ops act on both blocks, column ops likewise; the pencil group
    contributes the k/l swap and the sign flip of k.  All of these
    preserve both nondegeneracy conditions for every m.
    """
    n = 2 * u * v
    uv = u * v
    gens = []

    def from_row_op(perm, signs):
        idx = [0] * n
        sgn = [1] * n
        for blk in (0, uv):
            for i in range(v):
                for j in range(u):
                    idx[blk + i * u + j] = blk + perm[i] * u + j
                    sgn[blk + i * u + j] = signs[i]
        return tuple(idx), tuple(sgn)

    def from_col_op(perm, signs):
        idx = [0] * n
        sgn = [1] * n
        for blk in (0, uv):
            for i in range(v):
                for j in range(u):
                    idx[blk + i * u + j] = blk + i * u + perm[j]
                    sgn[blk + i * u + j] = signs[j]
        return tuple(idx), tuple(sgn)

    for perm, signs in _signed_perm_generators(v):
        gens.append(from_row_op(perm, signs))
    for perm, signs in _signed_perm_generators(u):
        gens.append(from_col_op(perm, signs))
    # swap k and l
    idx = list(range(uv, n)) + list(range(uv))
    gens.append((tuple(idx), tuple([1] * n)))
    # negate k
    gens.append((tuple(range(n)), tuple([-1] * uv + [1] * uv)))
    return gens


def pair_orbit_reps(u, v):
    """Lexicographically-first representatives of the (k, l) orbits."""
    n = 2 * u * v
    if n == 0:
        return [tuple()]
    gens = _pair_generators(u, v)
    weights = [3 ** i for i in range(n)]

    def encode(state):
        return sum((e + 1) * w for e, w in zip(state, weights))

    seen = set()
    reps = []
    for state in product((-1, 0, 1), repeat=n):
        code = encode(state)
        if code in seen:
            continue
        reps.append(state)
        stack = [state]
        seen.add(code)
        while stack:
            cur = stack.pop()
            for idx, sgn in gens:
                nxt = tuple(sgn[i] * cur[idx[i]] for i in range(n))
                c = encode(nxt)
                if c not in seen:
                    seen.add(c)
                    stack.append(nxt)
    return reps


def unflatten_pair(state, u, v):
    uv = u * v
    k = [list(state[i * u : (i + 1) * u]) for i in range(v)]
    l = [list(state[uv + i * u : uv + (i + 1) * u]) for i in range(v)]
    return k, l


def m_colspan_reps(v, w):
    """One m per column span; both conditions depend on m only through
    its column span (the right group factor acts by column operations)."""
    if w == 0 or v == 0:
        return [[[0] * w for _ in range(v)]]
    reps = {}
    for flat in product((-1, 0, 1), repeat=v * w):
        m_rows = [list(flat[i * w : (i + 1) * w]) for i in range(v)]
        key = _colspan_key(m_rows, v, w)
        if key not in reps:
            reps[key] = m_rows
    return list(reps.values())


def _colspan_key(m_rows, v, w):
    # reduced row echelon form of the transpose over Q
    rows = [[Fraction(m_rows[i][j]) for i in range(v)] for j in range(w)]
    r = 0
    for c in range(v):
        piv = None
        for i in range(r, w):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(w):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return tuple(tuple(row) for row in rows[:r])


def sweep_shapes(max_u=2, max_v=3, max_w=2):
    """All (u, v, w) with u <= max_u, w <= max_w, u <= v <= min(max_v, u + w)."""
    shapes = []
    for u in range(max_u + 1):
        for w in range(max_w + 1):
            for v in range(u, min(max_v, u + w) + 1):
                shapes.append((u, v, w))
    return shapes


def solve_fraction(cols, point):
    """Coefficients c with sum_i c_i cols[i] = point, for n independent
    columns of length n, by elimination with the largest pivot; None
    when the columns are dependent."""
    n = len(point)
    aug = [[Fraction(col[i]) for col in cols] + [Fraction(point[i])] for i in range(n)]
    for c in range(n):
        piv = max(range(c, n), key=lambda i: abs(aug[i][c]))
        if aug[piv][c] == 0:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        for i in range(c + 1, n):
            f = aug[i][c] / aug[c][c]
            aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    sol = [Fraction(0)] * n
    for i in reversed(range(n)):
        sol[i] = (aug[i][n] - sum(aug[i][j] * sol[j] for j in range(i + 1, n))) / aug[i][i]
    return sol


def oracle_fan_covers_facet_exits(rays, cones, eps=Fraction(1, 10**6)):
    """Whether the cones cover, for each facet of each cone, the point
    just outside the facet's barycentre: b - eps * v, with b the mean of
    the facet's rays and v the ray the facet leaves out.

    rays holds integer vectors (ray j is rays[j - 1]); cones are
    full-dimensional simplicial cones given as 1-based index sets.  For
    a fan of such cones with small entries this holds iff the fan is
    complete: near the barycentre only cones containing the facet reach,
    so the point is covered iff some cone continues across the facet.
    """
    gens = [[rays[j - 1] for j in sorted(cone)] for cone in cones]
    for cone in cones:
        for drop in cone:
            facet = [rays[j - 1] for j in cone if j != drop]
            out = rays[drop - 1]
            size = max(len(facet), 1)
            point = [sum(Fraction(v[i]) for v in facet) / size - eps * out[i] for i in range(len(out))]
            covered = False
            for g in gens:
                coeffs = solve_fraction(g, point)
                if coeffs is not None and all(c >= 0 for c in coeffs):
                    covered = True
                    break
            if not covered:
                return False
    return True


# -- exterior algebra --------------------------------------------------------
# A class on 2g generators a1 < b1 < ... < ag < bg (indices 0..2g-1) is a
# dict {strictly increasing index tuple: int}.


def ext_wedge(x, y):
    """Graded-commutative product: each concatenated word is sorted by
    adjacent swaps, and every swap flips the sign."""
    out = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            if set(m1) & set(m2):
                continue
            word, sign = list(m1 + m2), 1
            for end in range(len(word) - 1, 0, -1):
                for k in range(end):
                    if word[k] > word[k + 1]:
                        word[k], word[k + 1] = word[k + 1], word[k]
                        sign = -sign
            key = tuple(word)
            out[key] = out.get(key, 0) + sign * c1 * c2
    return {m: c for m, c in out.items() if c}


def ext_theta(g):
    """Theta = sum_j a_j ^ b_j."""
    return {(2 * j, 2 * j + 1): 1 for j in range(g)}


def ext_theta_power(g, i):
    """Theta^i / i!: Theta multiplied i times, then divided exactly by i!."""
    power, fact = {(): 1}, 1
    for k in range(1, i + 1):
        power, fact = ext_wedge(power, ext_theta(g)), fact * k
    if any(c % fact for c in power.values()):
        raise ValueError(f"Theta^{i} is not divisible by {i}!")
    return {m: c // fact for m, c in power.items()}


def ext_top(x, g):
    """Pairing with the orientation class: the coefficient of a1^b1^...^ag^bg."""
    return x.get(tuple(range(2 * g)), 0)
