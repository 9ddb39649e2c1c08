"""Desk-scale solver for the abelian rank-1 vortex equation on a flat
torus, after the standard scalar reduction.

The gauge system is reduced to the Kazdan-Warner-type equation

    Lap(u) = (1/2) B0 e^{2u} - tau0,      tau0 = t + 2 pi d / Vol,

where B0 >= 0 is a regularized squared-section with prescribed zeros at
the vortex centers (Gaussian wells of width sigma), and the Laplacian is
spectral (FFT) on the periodic grid.  Integrating the equation over the
torus gives the obstruction tau0 > 0: the solver refuses immediately
otherwise, which reproduces the existence threshold t > -2 pi d / Vol.

The normalization is fixed by the Chern-Weil convention
int i Lambda F = 2 pi deg; flipping that convention flips d -> -d
throughout.  Solutions are demonstrators, not gauge-exact fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, LimitError


class VortexInfeasibleError(LimitError):
    """tau0 <= 0: the integral obstruction rules out solutions."""


class VortexNotConvergedError(LimitError):
    pass


def bradlow_threshold(d: int, vol: float) -> float:
    """Critical parameter t* = -2 pi d / Vol; solvable side is t > t*."""
    if vol <= 0:
        raise InputError("volume must be positive")
    return -2.0 * np.pi * d / vol


class TorusGrid:
    """Periodic N x N grid on a square torus of side L (N a power of two)."""

    __slots__ = ("n", "length", "vol")

    def __init__(self, n: int, length: float):
        n = int(n)
        if n < 16 or n & (n - 1):
            raise InputError("grid size must be a power of two, at least 16")
        if length <= 0:
            raise InputError("torus side must be positive")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "length", float(length))
        object.__setattr__(self, "vol", float(length) ** 2)

    def __setattr__(self, name, value):
        raise AttributeError("TorusGrid is immutable")

    def coordinates(self):
        xs = np.arange(self.n) * (self.length / self.n)
        return np.meshgrid(xs, xs, indexing="ij")

    def laplacian_symbol(self):
        """Symbol of the spectral Laplacian on the rfft2 half-spectrum,
        shape (n, n // 2 + 1)."""
        k = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.length / self.n)
        kr = 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.length / self.n)
        return -(k[:, None] ** 2 + kr[None, :] ** 2)


@dataclass(frozen=True)
class VortexProblem:
    """Grid, degree d <= 0 (n = -d vortex points), centers with
    multiplicities, parameter t, and the regularization width."""

    grid: TorusGrid
    d: int
    centers: tuple  # ((x, y, multiplicity), ...)
    t: float
    sigma: float = None

    def __post_init__(self):
        if self.d > 0:
            raise InputError("solver convention needs degree d <= 0")
        centers = []
        for c in self.centers:
            if len(c) == 2:
                x, y = c
                mult = 1
            else:
                x, y, mult = c
            if mult < 1:
                raise InputError("center multiplicities must be positive")
            centers.append((float(x), float(y), int(mult)))
        object.__setattr__(self, "centers", tuple(centers))
        total = sum(c[2] for c in self.centers)
        if total != -self.d:
            raise InputError(f"multiplicities sum to {total}, expected {-self.d}")
        sigma = self.sigma if self.sigma is not None else self.grid.length / 16.0
        if not 0 < sigma < self.grid.length / 4.0:
            raise InputError("sigma must lie in (0, L/4)")
        object.__setattr__(self, "sigma", float(sigma))

    def tau0(self) -> float:
        return self.t + 2.0 * np.pi * self.d / self.grid.vol

    def squared_section(self) -> np.ndarray:
        """B0: product of Gaussian wells, one per center (with
        multiplicity).  Vanishes exactly at the centers and stays
        positive away from them."""
        xx, yy = self.grid.coordinates()
        b0 = np.ones_like(xx)
        for cx, cy, mult in self.centers:
            dx = np.abs(xx - cx)
            dx = np.minimum(dx, self.grid.length - dx)
            dy = np.abs(yy - cy)
            dy = np.minimum(dy, self.grid.length - dy)
            dist2 = dx ** 2 + dy ** 2
            well = 1.0 - np.exp(-dist2 / (2.0 * self.sigma ** 2))
            b0 = b0 * well ** mult
        return b0


@dataclass
class VortexField:
    """A solver result: conformal factor, residual, and diagnostics."""

    u: np.ndarray
    residual_sup: float
    converged: bool
    tau0: float
    newton_iterations: int = 0
    cg_iterations: int = 0
    backtracks: int = 0
    problem: VortexProblem = field(default=None, repr=False)


@dataclass
class SolverConfig:
    tol: float = 1e-8
    max_newton: int = 60
    cg_max_iter: int = 2000


# Eisenstat-Walker (1996) forcing, choice 2, and the Armijo constant of
# the backtracking line search on |F|_2.
_EW_GAMMA = 0.9
_ETA_MAX = 0.1
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 30


def _norm(x) -> float:
    """Euclidean norm of an array.  np.linalg.norm and np.vdot call BLAS,
    whose thread pool oversubscribes the cores; np.sum does not."""
    return math.sqrt(float(np.sum(x * x)))


class _Equation:
    """F(u) = Lap(u) - (1/2) B0 e^{2u} + tau0 on the problem's grid, with
    its Jacobian Lap - B0 e^{2u} solved by preconditioned CG."""

    def __init__(self, problem: VortexProblem):
        self.lap_sym = problem.grid.laplacian_symbol()
        self.shape = (problem.grid.n, problem.grid.n)
        self.b0 = problem.squared_section()
        self.tau0 = problem.tau0()

    def laplacian(self, u):
        return np.fft.irfft2(self.lap_sym * np.fft.rfft2(u), s=self.shape)

    def residual(self, u):
        """(F(u), B0 e^{2u}); the second is the Jacobian's weight."""
        weight = self.b0 * np.exp(2.0 * u)
        return self.laplacian(u) - 0.5 * weight + self.tau0, weight

    def solve_linearized(self, weight, rhs, atol, max_iter):
        """PCG for (-Lap + weight) delta = rhs until |residual|_2 <= atol.

        The operator is symmetric positive definite for weight >= 0 not
        identically zero; the preconditioner is (-Lap + mean(weight))^{-1}.
        Returns (delta, iterations, capped), where capped says that
        max_iter iterations ended above atol.
        """
        wbar = max(float(np.mean(weight)), 1e-12)
        pre_sym = wbar - self.lap_sym
        x = np.zeros_like(rhs)
        r = rhs.copy()
        p = rz = None
        for it in range(max_iter + 1):
            if _norm(r) <= atol:
                return x, it, False
            if it == max_iter:
                break
            z = np.fft.irfft2(np.fft.rfft2(r) / pre_sym, s=self.shape)
            rz_new = float(np.sum(r * z))
            p = z if p is None else z + (rz_new / rz) * p
            rz = rz_new
            ap = weight * p - self.laplacian(p)
            alpha = rz / float(np.sum(p * ap))
            x += alpha * p
            r -= alpha * ap
        return x, max_iter, True

    def newton_step(self, u, resid, weight, resid_norm, eta, cg_max_iter):
        """One inexact Newton step from u, where (resid, weight) =
        residual(u) and resid_norm = |resid|_2.

        Solves J delta = -F to relative residual eta, then takes the full
        step, halved until |F(u + lam delta)|_2 <= (1 - 1e-4 lam (1 - eta))
        |F(u)|_2 (Eisenstat-Walker's inexact Armijo condition).  Returns
        (u, resid, weight, resid_norm, cg_iterations, cg_capped, backtracks)
        at the accepted point; raises VortexNotConvergedError when no step
        length decreases |F|.
        """
        delta, cg_iters, capped = self.solve_linearized(
            weight, resid, eta * resid_norm, cg_max_iter
        )
        lam = 1.0
        for backtracks in range(_MAX_BACKTRACKS + 1):
            trial = u + lam * delta
            with np.errstate(over="ignore", invalid="ignore"):
                t_resid, t_weight = self.residual(trial)
                t_norm = _norm(t_resid)
            if t_norm <= (1.0 - _ARMIJO * lam * (1.0 - eta)) * resid_norm:
                return trial, t_resid, t_weight, t_norm, cg_iters, capped, backtracks
            lam *= 0.5
        cap = f"; PCG hit cg_max_iter={cg_max_iter}" if capped else ""
        raise VortexNotConvergedError(
            f"line search found no decrease of |F|_2 = {resid_norm:.3g} "
            f"after {_MAX_BACKTRACKS} halvings{cap}"
        )


def solve_vortex(problem: VortexProblem, cfg: SolverConfig = None) -> VortexField:
    """Inexact Newton iteration with backtracking for the reduced vortex
    equation (Dembo-Eisenstat-Steihaug 1982; Eisenstat-Walker 1996).

    Each step solves the linearized equation by PCG to the forcing term
    eta = 0.9 (|F_k| / |F_{k-1}|)^2, safeguarded and capped at 0.1, but
    never below 0.5 tol / |F_k|: the linear model's residual then has
    2-norm, and so sup norm, at most tol / 2, and no solve is tighter.

    Raises VortexInfeasibleError immediately when tau0 <= 0, and
    VortexNotConvergedError after max_newton steps above tolerance, after
    a failed line search, or when a PCG solve that hit cg_max_iter leads
    to a point still above tolerance.  Converged means sup-norm residual
    < cfg.tol.
    """
    cfg = cfg or SolverConfig()
    tau0 = problem.tau0()
    if tau0 <= 0:
        raise VortexInfeasibleError(
            f"tau0 = {tau0:.6g} <= 0: no solutions below the threshold"
        )
    eq = _Equation(problem)
    mean_b0 = float(np.mean(eq.b0))
    if mean_b0 <= 0:
        raise InputError("squared section vanishes identically")

    u = np.full(eq.shape, 0.5 * np.log(2.0 * tau0 / mean_b0))
    resid, weight = eq.residual(u)
    resid_norm = _norm(resid)
    cg_total = backtrack_total = 0
    eta = prev_norm = None
    capped = False
    for it in range(cfg.max_newton + 1):
        resid_sup = float(np.max(np.abs(resid)))
        if resid_sup < cfg.tol:
            return VortexField(
                u=u,
                residual_sup=resid_sup,
                converged=True,
                tau0=tau0,
                newton_iterations=it,
                cg_iterations=cg_total,
                backtracks=backtrack_total,
                problem=problem,
            )
        if capped:
            raise VortexNotConvergedError(
                f"PCG hit cg_max_iter={cfg.cg_max_iter} in Newton step {it}, "
                f"which left the sup-residual at {resid_sup:.3g}"
            )
        if it == cfg.max_newton:
            break
        if eta is None:
            eta = _ETA_MAX
        else:
            ew = _EW_GAMMA * (resid_norm / prev_norm) ** 2
            # EW's safeguard: a previous eta still large bounds the drop
            safeguard = _EW_GAMMA * eta * eta
            eta = min(_ETA_MAX, max(ew, safeguard) if safeguard > 0.1 else ew)
        eta = max(eta, 0.5 * cfg.tol / resid_norm)
        prev_norm = resid_norm
        u, resid, weight, resid_norm, cg_iters, capped, backtracks = eq.newton_step(
            u, resid, weight, resid_norm, eta, cfg.cg_max_iter
        )
        cg_total += cg_iters
        backtrack_total += backtracks
    raise VortexNotConvergedError(
        f"no convergence after {cfg.max_newton} Newton steps "
        f"(sup-residual {resid_sup:.3g})"
    )


def quantization_check(field_: VortexField, problem: VortexProblem = None) -> float:
    """|mean((1/2) B0 e^{2u}) - tau0|: the discrete integral of the
    equation, which a genuine solution satisfies to solver accuracy."""
    if not field_.converged:
        raise VortexNotConvergedError("quantization check needs a converged field")
    problem = problem or field_.problem
    if problem is None:
        raise InputError("quantization check needs the originating problem")
    b0 = problem.squared_section()
    return float(abs(np.mean(0.5 * b0 * np.exp(2.0 * field_.u)) - field_.tau0))


def threshold_scan(grid: TorusGrid, d: int, centers, t_values, cfg: SolverConfig = None, workers: int = 1):
    """Solve a family of problems; returns rows (t, converged, residual, iters).

    Instances are independent, so workers > 1 runs them on a thread pool
    (the FFT work releases the GIL); the output order is by parameter
    index either way, and each solve is deterministic, so results do not
    depend on the worker count.  Infeasible parameters report
    converged=False with residual nan.
    """
    cfg = cfg or SolverConfig()

    def one(t):
        problem = VortexProblem(grid=grid, d=d, centers=tuple(centers), t=float(t))
        try:
            fld = solve_vortex(problem, cfg)
            return (float(t), True, fld.residual_sup, fld.newton_iterations)
        except VortexInfeasibleError:
            return (float(t), False, float("nan"), 0)
        except VortexNotConvergedError:
            return (float(t), False, float("inf"), cfg.max_newton)

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one, t_values))
    return [one(t) for t in t_values]
