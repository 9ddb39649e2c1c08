import numpy as np
import pytest

from sfpas.errors import InputError
from sfpas.vortex import (
    SolverConfig,
    TorusGrid,
    VortexField,
    VortexInfeasibleError,
    VortexNotConvergedError,
    VortexProblem,
    _Equation,
    _norm,
    bradlow_threshold,
    quantization_check,
    solve_vortex,
    threshold_scan,
)

GRID = TorusGrid(64, 2 * np.pi)  # Vol = 4 pi^2


def test_threshold_values():
    assert bradlow_threshold(0, 10.0) == 0.0
    assert bradlow_threshold(-1, 4 * np.pi**2) == pytest.approx(1 / (2 * np.pi))
    assert bradlow_threshold(-2, 4 * np.pi**2) == pytest.approx(1 / np.pi)
    with pytest.raises(InputError):
        bradlow_threshold(1, -1.0)


def test_grid_validation():
    with pytest.raises(InputError):
        TorusGrid(48, 1.0)
    with pytest.raises(InputError):
        TorusGrid(8, 1.0)


def test_problem_validation():
    with pytest.raises(InputError):
        VortexProblem(grid=GRID, d=-2, centers=((0.0, 0.0, 1),), t=1.0)
    with pytest.raises(InputError):
        VortexProblem(grid=GRID, d=0, centers=(), t=1.0, sigma=GRID.length)


def test_constant_case_exact():
    problem = VortexProblem(grid=GRID, d=0, centers=(), t=0.7)
    fld = solve_vortex(problem)
    assert fld.converged and fld.residual_sup < 1e-12
    assert np.allclose(fld.u, 0.5 * np.log(2 * 0.7))
    assert quantization_check(fld) < 1e-12


def _fft2_residual_sup(problem, u):
    """sup |Lap u - B0 e^{2u} / 2 + tau0| with a complex-FFT Laplacian."""
    n = problem.grid.n
    k = 2 * np.pi * np.fft.fftfreq(n, d=problem.grid.length / n)
    symbol = -(k[:, None] ** 2 + k[None, :] ** 2)
    lap = np.fft.ifft2(symbol * np.fft.fft2(u)).real
    source = 0.5 * problem.squared_section() * np.exp(2 * u)
    return float(np.max(np.abs(lap - source + problem.tau0())))


def test_one_vortex_solve_and_quantization():
    t_star = bradlow_threshold(-1, GRID.vol)
    problem = VortexProblem(
        grid=GRID, d=-1, centers=((np.pi, np.pi, 1),), t=t_star + 0.5
    )
    fld = solve_vortex(problem)
    assert fld.converged and fld.residual_sup < 1e-8
    assert fld.newton_iterations <= 5
    assert _fft2_residual_sup(problem, fld.u) < 1e-8
    assert quantization_check(fld) < 1e-8


def test_forcing_floor_avoids_oversolving():
    """The last PCG solve stops at linear residual tol / 2: 9 PCG
    iterations here, 14 when every solve runs to the Eisenstat-Walker
    term alone."""
    t_star = bradlow_threshold(-1, GRID.vol)
    problem = VortexProblem(
        grid=GRID, d=-1, centers=((np.pi, np.pi, 1),), t=t_star + 1.0
    )
    fld = solve_vortex(problem, SolverConfig(tol=1e-10))
    assert fld.converged and _fft2_residual_sup(problem, fld.u) < 1e-10
    assert fld.cg_iterations <= 10


def test_pcg_cap_hit_is_fatal():
    t_star = bradlow_threshold(-1, GRID.vol)
    problem = VortexProblem(
        grid=GRID, d=-1, centers=((np.pi, np.pi, 1),), t=t_star + 0.5
    )
    with pytest.raises(VortexNotConvergedError, match="cg_max_iter=1"):
        solve_vortex(problem, SolverConfig(cg_max_iter=1))


def test_backtracking_from_far_start():
    """Far below the solution the full Newton step overshoots into
    e^{2u} overflow; halving keeps every step a decrease of |F|_2."""
    t_star = bradlow_threshold(-1, GRID.vol)
    problem = VortexProblem(
        grid=GRID, d=-1, centers=((np.pi, np.pi, 1),), t=t_star + 0.5
    )
    eq = _Equation(problem)
    u = np.full(eq.shape, 0.5 * np.log(2 * eq.tau0 / np.mean(eq.b0)) - 5.0)
    resid, weight = eq.residual(u)
    norm = _norm(resid)
    backtracks = 0
    for _ in range(30):
        if np.max(np.abs(resid)) < 1e-8:
            break
        u, resid, weight, new_norm, _, capped, halvings = eq.newton_step(
            u, resid, weight, norm, 0.1, 2000
        )
        assert new_norm < norm and not capped
        norm = new_norm
        backtracks += halvings
    assert backtracks > 0
    assert _fft2_residual_sup(problem, u) < 1e-8


def test_infeasible_below_threshold():
    t_star = bradlow_threshold(-1, GRID.vol)
    problem = VortexProblem(
        grid=GRID, d=-1, centers=((np.pi, np.pi, 1),), t=t_star - 0.1
    )
    with pytest.raises(VortexInfeasibleError):
        solve_vortex(problem)


def test_integral_obstruction_boundary():
    # tau0 == 0 exactly is also refused
    problem = VortexProblem(grid=GRID, d=0, centers=(), t=0.0)
    with pytest.raises(VortexInfeasibleError):
        solve_vortex(problem)


def test_quantization_requires_convergence():
    fld = VortexField(u=np.zeros((16, 16)), residual_sup=1.0, converged=False, tau0=1.0)
    with pytest.raises(VortexNotConvergedError):
        quantization_check(fld)


def test_quantization_detects_perturbation():
    problem = VortexProblem(grid=GRID, d=0, centers=(), t=0.7)
    fld = solve_vortex(problem)
    fake = VortexField(
        u=fld.u + 0.1,
        residual_sup=fld.residual_sup,
        converged=True,
        tau0=fld.tau0,
        problem=problem,
    )
    assert quantization_check(fake) > 1e-3


def test_multiplicity_two_vortex():
    t_star = bradlow_threshold(-2, GRID.vol)
    problem = VortexProblem(
        grid=GRID, d=-2, centers=((np.pi, np.pi, 2),), t=t_star + 0.4
    )
    fld = solve_vortex(problem)
    assert fld.converged
    assert quantization_check(fld) < 1e-8


def test_grid_refinement_consistency():
    """Injecting the solution to the doubled grid and running three Newton
    steps from it drops the residual."""
    t_star = bradlow_threshold(-1, GRID.vol)
    problem = VortexProblem(grid=GRID, d=-1, centers=((np.pi, np.pi, 1),), t=t_star + 0.3)
    fld = solve_vortex(problem)

    fine_grid = TorusGrid(128, GRID.length)
    fine = VortexProblem(
        grid=fine_grid, d=-1, centers=((np.pi, np.pi, 1),), t=t_star + 0.3
    )
    u = np.repeat(np.repeat(fld.u, 2, axis=0), 2, axis=1)

    eq = _Equation(fine)
    resid, weight = eq.residual(u)
    norm = _norm(resid)
    residuals = [float(np.max(np.abs(resid)))]
    for _ in range(3):
        u, resid, weight, norm, *_ = eq.newton_step(u, resid, weight, norm, 0.1, 2000)
        residuals.append(float(np.max(np.abs(resid))))
    assert residuals[-1] < residuals[0]


def test_threshold_scan_rows():
    t_star = bradlow_threshold(-1, GRID.vol)
    ts = [t_star - 0.05, t_star + 0.25]
    rows = threshold_scan(GRID, -1, ((np.pi, np.pi, 1),), ts)
    assert rows[0][1] is False and np.isnan(rows[0][2])
    assert rows[1][1] is True and rows[1][2] < 1e-8
    pooled = threshold_scan(GRID, -1, ((np.pi, np.pi, 1),), ts, workers=2)
    assert repr(pooled) == repr(rows)


def test_convention_audit_threshold_sign():
    """The degree-to-threshold sign convention: a section of the dual
    twisted bundle has n = -d zeros, and feasibility is exactly
    t > -2 pi d / Vol, i.e. tau0 = t + 2 pi d / Vol > 0."""
    for d in (0, -1, -3):
        vol = GRID.vol
        t_star = bradlow_threshold(d, vol)
        assert t_star == pytest.approx(-2 * np.pi * d / vol)
        n_zeros = -d
        problem = VortexProblem(
            grid=GRID,
            d=d,
            centers=((np.pi, np.pi, n_zeros),) if n_zeros else (),
            t=t_star + 0.2,
        )
        assert problem.tau0() == pytest.approx(0.2)
