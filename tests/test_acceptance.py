"""Acceptance suite: every criterion runs at its stated tolerance and
prints one PASS/FAIL line.  Runtime budgets are asserted, not aspirational.
"""

import contextlib
import io
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from chains import random_chain  # noqa: E402
from oracles import (  # noqa: E402
    m_colspan_reps,
    oracle_check,
    pair_orbit_reps,
    sweep_shapes,
    unflatten_pair,
)

from sfpas import exterior, families, quiver, toric, vortex  # noqa: E402
from sfpas.cli import main as cli_main  # noqa: E402
from sfpas.linalg import CMatrix, HermitianTuple  # noqa: E402

DATA = Path(__file__).parent / "data"


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_flag_oracle_agreement():
    """Exact flag test vs the Kempf-Ness verdict on 200 seeded chains."""
    rng = random.Random(2024)
    chains = [random_chain(rng) for _ in range(200)]
    cfg = quiver.FlowConfig(tol=1e-5, max_iter=30_000, step=0.3, crit_rtol=3e-6)
    t0 = time.time()
    agree = contradictions = borderline = 0
    for chain in chains:
        exact_verdict, _ = families.flag_stable(chain)
        problem, point, level = chain.to_quiver()
        numeric = quiver.kempf_ness_flow(problem, point, level, cfg).verdict
        if numeric == exact_verdict:
            agree += 1
        elif numeric == quiver.Verdict.BORDERLINE:
            borderline += 1
        else:
            contradictions += 1
    elapsed = time.time() - t0
    ok = agree >= 196 and contradictions == 0 and elapsed < 60.0
    report(
        1,
        ok,
        f"flag-chain oracle agreement {agree}/200, borderline {borderline}, "
        f"contradictions {contradictions}, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_pencil_exhaustive_oracle():
    """Exhaustive integer sweep: product test vs brute-force oracle."""
    t0 = time.time()
    mismatches = 0
    checked = 0
    pair_cache = {}
    for u, v, w in sweep_shapes(max_u=2, max_v=3, max_w=2):
        if (u, v) not in pair_cache:
            pair_cache[(u, v)] = pair_orbit_reps(u, v)
        m_reps = m_colspan_reps(v, w)
        for state in pair_cache[(u, v)]:
            k_rows, l_rows = unflatten_pair(state, u, v)
            for m_rows in m_reps:
                triple = families.StrommeTriple.from_integer_lists(
                    k_rows, l_rows, m_rows, v, u, w
                )
                mine = families.stromme_check(triple)
                orac = oracle_check(k_rows, l_rows, m_rows, u, v, w)
                checked += 1
                if mine["cond1"] != orac["cond1"] or mine["cond2"] != orac["cond2"]:
                    mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 300.0
    report(
        2,
        ok,
        f"pencil sweep: {checked} symmetry-reduced triples, "
        f"{mismatches} mismatches, {elapsed:.1f}s (< 300s)",
    )


TORIC_DATASETS = [
    ("p1", [[1, -1]], [[1], [2]], [1, 1]),
    ("p2", [[1, 0, -1], [0, 1, -1]], [[1, 2], [2, 3], [1, 3]], [1, 1, 1]),
    (
        "p1xp1",
        [[1, -1, 0, 0], [0, 0, 1, -1]],
        [[1, 3], [1, 4], [2, 3], [2, 4]],
        [1, 1, 1, 1],
    ),
]


def test_criterion_3_toric_stability_equivalence():
    """semistable <=> admissible pattern and stable <=> semistable, for a
    level inside K0, over all support patterns of the three datasets."""
    exceptions = 0
    total = 0
    for name, vmat, cones, level in TORIC_DATASETS:
        tm = toric.ToricMatrix(vmat)
        fan = toric.Fan(cones)
        assert toric.check_P1(tm)[0] and toric.check_P2(tm)[0]
        assert all(toric.validate_fan(fan, tm).values())
        assert toric.k_membership(fan, tm, level)["in_K0"]
        for mask in range(1 << tm.r):
            pattern = toric.SupportPattern(
                {j + 1 for j in range(tm.r) if mask >> j & 1}
            )
            lp = toric.semistable_lp(pattern, tm, level)
            in_u = toric.u_membership(pattern, fan, tm.r)
            total += 1
            if lp["semistable"] != in_u or lp["semistable"] != lp["stable"]:
                exceptions += 1
    report(3, exceptions == 0, f"toric equivalence over {total} patterns, {exceptions} exceptions")


def test_criterion_4_closed_form_counts():
    ok = True
    details = []
    if exterior.quot_count(2, 2) != 4 or exterior.quot_count(1, 3) != 3:
        ok = False
        details.append("small quotient counts wrong")
    if any(exterior.quot_count(0, r0) != 1 for r0 in range(1, 11)):
        ok = False
        details.append("genus-0 counts wrong")
    rng = random.Random(4)
    for _ in range(50):
        g = rng.randint(0, 5)
        r0 = rng.randint(1, 5)
        p = exterior.AbelianProblem(
            g=g, r0=r0, d=rng.randint(-4, 4), d0=rng.randint(-4, 4), t_side="below"
        )
        if exterior.ggw_abelian(p, exterior.ExteriorClass.one(g)) != 0:
            ok = False
            details.append("below-threshold invariant nonzero")
            break
    for _ in range(1000):
        r0 = rng.randint(1, 6)
        d = rng.randint(-10, 10)
        d0 = rng.randint(-10, 10)
        g = rng.randint(0, 8)
        general = exterior.expected_dimension(1, r0, d, d0, g)
        if general != d0 - r0 * d + (r0 - 1) * (1 - g):
            ok = False
            details.append("dimension formulas disagree at r=1")
            break
    if exterior.expected_dimension(2, 3, 1, 2, 2) != -1:
        ok = False
        details.append("general dimension formula wrong")
    report(4, ok, "closed-form counts and dimension formulas" + (": " + "; ".join(details) if details else ""))


def test_criterion_5_grassmann_table():
    table = {
        1: families.QuotientType.GRASSMANNIAN,
        0: families.QuotientType.POINT,
        -1: families.QuotientType.EMPTY,
    }
    ok = all(families.grassmann_quotient_type(t) == want for t, want in table.items())
    report(5, ok, "quotient-type table at t in {-1, 0, 1}")


def test_criterion_6_hamiltonian_identity():
    rng = np.random.default_rng(606)
    worst = 0.0
    count = 0

    def grassmann():
        q = quiver.Quiver(["v1", "v2"], [("f", "v1", "v2")])
        dims = quiver.QuiverDims(q, {"v1": 2, "v2": 3})
        prob = quiver.QuiverProblem(q, dims, quiver.FullVertexProduct(["v1"]))
        return prob, quiver.Level.vertex({"v1": Fraction(1, 2)})

    def chain():
        q = quiver.Quiver(
            ["v1", "v2", "v3"], [("f1", "v1", "v2"), ("f2", "v2", "v3")]
        )
        dims = quiver.QuiverDims(q, {"v1": 2, "v2": 3, "v3": 2})
        prob = quiver.QuiverProblem(q, dims, quiver.FullVertexProduct(["v1", "v2"]))
        return prob, quiver.Level.vertex({"v1": 1, "v2": Fraction(3, 2)})

    def torus():
        tm = toric.ToricMatrix([[1, 0, -1], [0, 1, -1]])
        q = quiver.Quiver(
            ["c", "o1", "o2", "o3"],
            [("z1", "o1", "c"), ("z2", "o2", "c"), ("z3", "o3", "c")],
        )
        dims = quiver.QuiverDims(q, {v: 1 for v in q.vertices})
        prob = quiver.QuiverProblem(q, dims, quiver.TorusKernel(tm))
        return prob, quiver.Level.torus([1, 1, 1])

    for maker, n_points in ((grassmann, 33), (chain, 33), (torus, 34)):
        prob, level = maker()
        for _ in range(n_points):
            point = quiver.random_point(prob, rng, norm=float(rng.uniform(0.5, 2.5)))
            if isinstance(prob.symmetry, quiver.TorusKernel):
                tm = prob.symmetry.matrix
                coeff = rng.standard_normal(len(tm.coker))
                xi = [
                    float(sum(c * float(vec[j]) for c, vec in zip(coeff, tm.coker)))
                    for j in range(tm.r)
                ]
            else:
                blocks = []
                for vtx in prob.s_order:
                    d = prob.dims.vertex_dim[vtx]
                    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                    blocks.append(CMatrix.from_numpy((raw + raw.conj().T) / 2))
                xi = HermitianTuple(blocks)
            w = {
                a.name: rng.standard_normal(prob.dims.map_shape(a))
                + 1j * rng.standard_normal(prob.dims.map_shape(a))
                for a in prob.quiver.arrows
            }
            err = quiver.hamiltonian_check(prob, point, level, xi, w, h=1e-5)
            worst = max(worst, err)
            count += 1
    ok = worst <= 1e-5 and count == 100
    report(6, ok, f"Hamiltonian identity at {count} points, worst error {worst:.2e} (<= 1e-5)")


def test_criterion_7_vortex_threshold():
    grid = vortex.TorusGrid(64, 2 * np.pi)  # Vol = 4 pi^2
    t_star = vortex.bradlow_threshold(-1, grid.vol)
    centers = ((np.pi, np.pi, 1),)
    ok = True
    details = []
    for delta in (0.05, 0.1, 0.25, 0.5):
        problem = vortex.VortexProblem(grid=grid, d=-1, centers=centers, t=t_star + delta)
        t0 = time.time()
        fld = vortex.solve_vortex(problem, vortex.SolverConfig(tol=1e-8))
        elapsed = time.time() - t0
        quant = vortex.quantization_check(fld)
        if not (fld.converged and fld.residual_sup < 1e-8 and elapsed < 10.0 and quant < 1e-8):
            ok = False
        details.append(f"d{delta}: r={fld.residual_sup:.1e} q={quant:.1e} {elapsed:.1f}s")
    try:
        vortex.solve_vortex(
            vortex.VortexProblem(grid=grid, d=-1, centers=centers, t=t_star - 0.1)
        )
        ok = False
        details.append("below-threshold solve did not refuse")
    except vortex.VortexInfeasibleError:
        pass
    report(7, ok, "vortex threshold scan " + ", ".join(details))


def _cli_capture(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(args)
    return code, buf.getvalue()


def test_criterion_8_cli_determinism():
    invocations = [
        ["quiver", "flow", str(DATA / "quiver_grassmann.json"), "--seed", "11"],
        ["quiver", "properness", str(DATA / "quiver_torus_p1.json"), "--seed", "5", "--trials", "3"],
        ["toric", "stability", str(DATA / "p2.json"), "--support", "1,3", "--seed", "2"],
        ["invariants", "ggw", "--g", "2", "--r0", "3", "--d", "0", "--d0", "1",
         "--side", "above", "--seed", "9"],
        ["stromme", "refute", str(DATA / "stromme_triple.json"), "--s", "2", "--t", "1",
         "--seed", "3", "--trials", "25"],
        ["vortex", "solve", "--N", "64", "--L", "6.283185307179586", "--d", "-1",
         "--centers", "3.14,3.14", "--t", "0.7"],
        ["vortex", "scan", "--N", "64", "--L", "6.283185307179586", "--d", "-1",
         "--centers", "3.14,3.14", "--t-from", "0.05", "--t-to", "0.45", "--steps", "4",
         "--workers", "2"],
    ]
    ok = True
    for args in invocations:
        code1, out1 = _cli_capture(args)
        code2, out2 = _cli_capture(args)
        if code1 != code2 or out1 != out2 or not out1:
            ok = False
            break
    report(8, ok, f"{len(invocations)} CLI invocations repeated byte-identically")
