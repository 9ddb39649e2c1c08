"""Exact rational linear programming.

A small two-phase simplex over ``fractions.Fraction`` with Bland's rule,
so every answer is exact and every run is deterministic.  Strict
inequalities are handled by callers through an auxiliary maximized slack
variable (optimum > 0 means the strict system is feasible).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalError

ZERO = Fraction(0)
ONE = Fraction(1)


class LPResult:
    __slots__ = ("status", "x", "value")

    def __init__(self, status, x=None, value=None):
        self.status = status  # "optimal" | "infeasible" | "unbounded"
        self.x = x
        self.value = value

    def __repr__(self):
        return f"LPResult({self.status}, value={self.value})"


def _pivot(rows, obj, basis, pr, pc):
    piv = rows[pr][pc]
    rows[pr] = [v / piv for v in rows[pr]]
    for i, row in enumerate(rows):
        if i != pr and row[pc] != 0:
            f = row[pc]
            rows[i] = [a - f * b for a, b in zip(row, rows[pr])]
    if obj[pc] != 0:
        f = obj[pc]
        for j, b in enumerate(rows[pr]):
            obj[j] -= f * b
    basis[pr] = pc


def _run_simplex(rows, obj, basis):
    """Minimize; Bland's rule (smallest eligible index) prevents cycling."""
    ncols = len(obj) - 1
    while True:
        pc = -1
        for j in range(ncols):
            if obj[j] < 0:
                pc = j
                break
        if pc < 0:
            return "optimal"
        pr = -1
        best = None
        for i, row in enumerate(rows):
            if row[pc] > 0:
                ratio = row[-1] / row[pc]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[pr]):
                    best = ratio
                    pr = i
        if pr < 0:
            return "unbounded"
        _pivot(rows, obj, basis, pr, pc)


def solve_standard(c, a_rows, b_vec, maximize=False):
    """Solve min/max c.x subject to A x = b, x >= 0, exactly.

    Returns an LPResult whose x has one Fraction per structural variable.
    """
    nvars = len(c)
    rows = []
    rhs = []
    for row, bv in zip(a_rows, b_vec):
        row = [Fraction(v) for v in row]
        bv = Fraction(bv)
        if bv < 0:
            row = [-v for v in row]
            bv = -bv
        rows.append(row)
        rhs.append(bv)
    m = len(rows)

    # phase 1: artificial variables, minimize their sum
    tab = [rows[i] + [ONE if j == i else ZERO for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = [nvars + i for i in range(m)]
    obj = [ZERO] * (nvars + m + 1)
    for j in range(nvars + m):
        if j >= nvars:
            obj[j] = ONE
    for i in range(m):
        for j in range(nvars + m + 1):
            obj[j] -= tab[i][j] if j < nvars + m else 0
        obj[-1] -= tab[i][-1]
    status = _run_simplex(tab, obj, basis)
    if status != "optimal":
        raise InternalError(f"phase 1 is bounded below by 0 but ended {status}")
    if -obj[-1] != 0:
        return LPResult("infeasible")

    # drive surviving artificials out of the basis, drop redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= nvars:
            pc = -1
            for j in range(nvars):
                if tab[i][j] != 0:
                    pc = j
                    break
            if pc >= 0:
                _pivot(tab, obj, basis, i, pc)
                keep.append(i)
            # else: redundant constraint, row dropped below
        else:
            keep.append(i)
    tab = [tab[i][:nvars] + [tab[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2
    sign = -1 if maximize else 1
    cost = [sign * Fraction(v) for v in c] + [ZERO]
    obj = list(cost)
    for i, bi in enumerate(basis):
        if obj[bi] != 0:
            f = obj[bi]
            obj = [a - f * b for a, b in zip(obj, tab[i])]
    status = _run_simplex(tab, obj, basis)
    if status == "unbounded":
        return LPResult("unbounded")
    x = [ZERO] * nvars
    for i, bi in enumerate(basis):
        x[bi] = tab[i][-1]
    value = sum(Fraction(ci) * xi for ci, xi in zip(c, x))
    return LPResult("optimal", tuple(x), value)


class LinearProgram:
    """Incremental model builder over exact rationals.

    Variables are nonnegative unless declared free (free variables are
    split internally).  Constraints are given as {var: coeff} dicts.
    """

    def __init__(self):
        self._n = 0
        self._free = []
        self._rows = []
        self._rhs = []

    def var(self):
        self._n += 1
        return self._n - 1

    def free_var(self):
        v = self.var()
        self._free.append(v)
        return v

    def vars(self, k):
        return [self.var() for _ in range(k)]

    def add_eq(self, coeffs, rhs):
        self._rows.append(dict(coeffs))
        self._rhs.append((Fraction(rhs), 0))

    def add_ge(self, coeffs, rhs):
        self._rows.append(dict(coeffs))
        self._rhs.append((Fraction(rhs), -1))

    def add_le(self, coeffs, rhs):
        self._rows.append(dict(coeffs))
        self._rhs.append((Fraction(rhs), +1))

    def _build(self):
        free_set = set(self._free)
        col_of = {}
        ncols = 0
        for v in range(self._n):
            col_of[v] = ncols
            ncols += 2 if v in free_set else 1
        nslack = sum(1 for _, kind in self._rhs if kind != 0)
        rows = []
        bvec = []
        si = 0
        for coeffs, (rhs, kind) in zip(self._rows, self._rhs):
            row = [ZERO] * (ncols + nslack)
            for v, cf in coeffs.items():
                cf = Fraction(cf)
                row[col_of[v]] += cf
                if v in free_set:
                    row[col_of[v] + 1] -= cf
            if kind != 0:
                row[ncols + si] = Fraction(kind)
                si += 1
            rows.append(row)
            bvec.append(rhs)
        return rows, bvec, col_of, ncols + nslack, free_set

    def _extract(self, res, col_of, free_set):
        if res.status != "optimal":
            return res
        x = []
        for v in range(self._n):
            c = col_of[v]
            x.append(res.x[c] - res.x[c + 1] if v in free_set else res.x[c])
        return LPResult("optimal", tuple(x), res.value)

    def optimize(self, objective, maximize=True):
        rows, bvec, col_of, total, free_set = self._build()
        c = [ZERO] * total
        for v, cf in objective.items():
            cf = Fraction(cf)
            c[col_of[v]] += cf
            if v in free_set:
                c[col_of[v] + 1] -= cf
        res = solve_standard(c, rows, bvec, maximize=maximize)
        return self._extract(res, col_of, free_set)

    def feasible(self):
        """Return an exact feasible point, or None."""
        rows, bvec, col_of, total, free_set = self._build()
        res = solve_standard([ZERO] * total, rows, bvec)
        if res.status != "optimal":
            return None
        return self._extract(res, col_of, free_set).x
