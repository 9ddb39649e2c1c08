"""The moment-weight stop of the Kempf-Ness flow, its stop reasons and
the rejection of overflowing trial steps."""

import math
import random
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from chains import random_chain  # noqa: E402

from sfpas import families, quiver  # noqa: E402
from sfpas.linalg import CMatrix, GaussianRational  # noqa: E402
from sfpas.quiver import FlowConfig, Level, StopReason, Verdict  # noqa: E402
from sfpas.toric import ToricMatrix  # noqa: E402

CRITERION1_CFG = dict(tol=1e-5, max_iter=30_000, step=0.3, crit_rtol=3e-6)


def _exact(rows):
    return CMatrix([[GaussianRational(Fraction(x)) for x in row] for row in rows])


@pytest.mark.parametrize("seed", [7, 1984, 31337])
def test_certificate_never_contradicts_flag_stable(seed):
    """200 chains drawn like criterion 1: no verdict contradicts the exact
    test, every weight bound lies in (sqrt(10) tol, sqrt(E_final)], and
    E_final respects the exact destabilizer's moment-weight bound."""
    cfg = FlowConfig(**CRITERION1_CFG)
    rng = random.Random(seed)
    contradictions = []
    by_bound = 0
    for index in range(200):
        chain = random_chain(rng)
        exact, witness = families.flag_stable(chain)
        res = quiver.kempf_ness_flow(*chain.to_quiver(), cfg)
        if res.verdict not in (exact, Verdict.BORDERLINE):
            contradictions.append((index, chain.dims, exact, res.verdict, res.stop_reason))
        if res.stop_reason is StopReason.WEIGHT_BOUND:
            by_bound += 1
            assert res.verdict is Verdict.UNSTABLE
            assert math.sqrt(10.0) * cfg.tol < res.weight_bound
            assert res.weight_bound <= math.sqrt(res.final_energy) * (1 + 1e-9)
        else:
            assert math.isnan(res.weight_bound)
        if witness is not None:
            # xi is minus a rank-kdim projector: |xi|^2 = kdim, so
            # inf |mu|^2 >= pairing^2 / kdim = t_i^2 kdim
            floor = witness.pairing**2 / witness.kernel_dim
            assert res.final_energy >= float(floor) * (1 - 1e-9), (index, chain.dims)
    assert contradictions == []
    assert by_bound > 0


def test_weight_bound_never_fires_at_level_zero():
    cfg = FlowConfig(**CRITERION1_CFG)
    rng = random.Random(5)
    for _ in range(60):
        problem, point, _ = random_chain(rng).to_quiver()
        res = quiver.kempf_ness_flow(problem, point, Level.zero(problem), cfg)
        assert res.stop_reason is not StopReason.WEIGHT_BOUND
        assert math.isnan(res.weight_bound)


def _torus_problem(matrix):
    tm = ToricMatrix(matrix)
    vs = ["c"] + [f"o{j}" for j in range(1, tm.r + 1)]
    arrows = [(f"z{j}", f"o{j}", "c") for j in range(1, tm.r + 1)]
    q = quiver.Quiver(vs, arrows)
    dims = quiver.QuiverDims(q, {v: 1 for v in vs})
    return quiver.QuiverProblem(q, dims, quiver.TorusKernel(tm))


def test_torus_flows_keep_their_iteration_counts():
    """The torus lane has no certificate: its iteration counts and
    verdicts are those of the plateau-only flow."""
    expected = [
        (9, "Stable"), (10, "Stable"), (8, "Stable"), (8, "Stable"),
        (4, "Unstable"), (4, "Unstable"), (60, "Stable"), (61, "Stable"),
        (8, "Stable"), (8, "Stable"), (5, "Unstable"), (5, "Unstable"),
        (10, "Stable"), (12, "Stable"),
    ]
    rng = np.random.default_rng(5)
    cfg = FlowConfig(tol=1e-6, step=0.3)
    got = []
    for mat, levels in (
        ([[1, -1]], ([1, 1], [2, -1], [-1, -1])),
        ([[1, 0, -1], [0, 1, -1]], ([1, 1, 1], [1, 0, 0], [-1, 0, 0])),
        ([[1, -1, 0, 0], [0, 0, 1, -1]], ([1, 1, 1, 1],)),
    ):
        problem = _torus_problem(mat)
        for lv in levels:
            for zero_first in (False, True):
                point = quiver.random_point(problem, rng, norm=1.5)
                if zero_first:
                    point = quiver.QuiverPoint({**point.maps, "z1": CMatrix([[0]])})
                res = quiver.kempf_ness_flow(problem, point, Level.torus(lv), cfg)
                assert res.stop_reason is not StopReason.WEIGHT_BOUND
                got.append((res.iterations, res.verdict.value))
    assert got == expected


def test_overflowing_trial_step_is_rejected():
    """A chain with a zero map: at a first trial step of 1e3 the group
    exponential overflows.  The trial is rejected and the step halved,
    with no RuntimeWarning, and the flow ends Unstable with a reason."""
    chain = families.FlagChain(
        (3, 3, 1, 1),
        [
            _exact([[-1, "-1/3", 2], [-1, 1, 1], [-2, "-4/3", -2]]),
            _exact([[2, "-2/3", "-1/2"]]),
            _exact([[0]]),
        ],
        (1, 1, 2),
    )
    problem, point, level = chain.to_quiver()
    cfg = FlowConfig(**{**CRITERION1_CFG, "step": 1e3})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = quiver.kempf_ness_flow(problem, point, level, cfg)
    assert res.verdict is Verdict.UNSTABLE
    assert res.stop_reason is StopReason.WEIGHT_BOUND
    assert all(np.isfinite(m.to_numpy()).all() for m in res.final_point.maps.values())
    assert all(math.isfinite(e) for e in res.energy_history)


def test_stop_reasons_and_derived_flags():
    q = quiver.Quiver(["v1", "v2"], [("f", "v1", "v2")])
    dims = quiver.QuiverDims(q, {"v1": 2, "v2": 2})
    problem = quiver.QuiverProblem(q, dims, quiver.FullVertexProduct(["v1"]))
    level = Level.vertex({"v1": 1})

    injective = quiver.QuiverPoint({"f": _exact([[1, 0], [0, 1]])})
    res = quiver.kempf_ness_flow(problem, injective, level)
    assert res.stop_reason is StopReason.CONVERGED
    assert (res.converged, res.plateaued, res.diverged) == (True, False, False)

    # rank one: the optimal destabilizer is the kernel projector, |mu| -> 1
    kernel = quiver.QuiverPoint({"f": _exact([[1, 0], [0, 0]])})
    res = quiver.kempf_ness_flow(problem, kernel, level)
    assert res.stop_reason is StopReason.WEIGHT_BOUND and res.verdict is Verdict.UNSTABLE
    assert res.weight_bound == pytest.approx(1.0, rel=1e-6)
    assert (res.converged, res.plateaued, res.diverged) == (False, False, False)
    assert res.discarded_certificates == 0

    zero = quiver.QuiverPoint({"f": _exact([[0, 0], [0, 0]])})
    res = quiver.kempf_ness_flow(problem, zero, level)
    assert res.stop_reason is StopReason.CRITICAL and res.plateaued
    assert res.verdict is Verdict.UNSTABLE

    start = quiver.QuiverPoint({"f": _exact([[3, 1], [0, 2]])})
    res = quiver.kempf_ness_flow(problem, start, level, FlowConfig(max_iter=2))
    assert res.stop_reason is StopReason.MAX_ITER and res.iterations == 2
    assert res.verdict is Verdict.BORDERLINE
