import random
from fractions import Fraction

import numpy as np
import pytest

from sfpas import quiver
from sfpas.errors import InputError
from sfpas.linalg import CMatrix, GaussianRational, HermitianTuple
from sfpas.quiver import (
    FlowConfig,
    FullVertexProduct,
    Level,
    Quiver,
    QuiverDims,
    QuiverPoint,
    QuiverProblem,
    TorusKernel,
    Verdict,
    hamiltonian_check,
    kempf_ness_flow,
    moment_map,
    problem_from_json,
    properness_refuter,
    random_point,
)
from sfpas.toric import ToricMatrix


def grassmann_problem(r=1, r0=1):
    q = Quiver(["v1", "v2"], [("f", "v1", "v2")])
    dims = QuiverDims(q, {"v1": r, "v2": r0})
    return QuiverProblem(q, dims, FullVertexProduct(["v1"]))


def chain_problem(dims):
    m = len(dims) - 1
    vs = [f"v{i}" for i in range(1, m + 2)]
    arrows = [(f"f{i}", f"v{i}", f"v{i + 1}") for i in range(1, m + 1)]
    q = Quiver(vs, arrows)
    qd = QuiverDims(q, dict(zip(vs, dims)))
    return QuiverProblem(q, qd, FullVertexProduct(vs[:m]))


def torus_problem(matrix):
    tm = ToricMatrix(matrix)
    vs = ["c"] + [f"o{j}" for j in range(1, tm.r + 1)]
    arrows = [(f"z{j}", f"o{j}", "c") for j in range(1, tm.r + 1)]
    q = Quiver(vs, arrows)
    return QuiverProblem(q, QuiverDims(q, {v: 1 for v in vs}), TorusKernel(tm))


def test_quiver_validation():
    with pytest.raises(InputError):
        Quiver(["a", "a"], [])
    with pytest.raises(InputError):
        Quiver(["a"], [("x", "a", "b")])
    with pytest.raises(InputError):
        QuiverProblem(
            Quiver(["a"], []), QuiverDims(Quiver(["a"], []), {"a": 1}), FullVertexProduct(["b"])
        )


def test_moment_scalar_grassmann_zero():
    prob = grassmann_problem()
    pt = QuiverPoint({"f": CMatrix([[1]])})
    lvl = Level.vertex({"v1": Fraction(1, 2)})
    mu = moment_map(prob, pt, lvl)
    assert mu[0].entries[0][0].is_zero()


def test_moment_grassmann_kernel_equation():
    # f injective with f* f = 2t Id gives the zero tuple
    prob = grassmann_problem(r=2, r0=3)
    f = CMatrix([[2, 0], [0, 2], [0, 0]])
    lvl = Level.vertex({"v1": Fraction(2)})
    mu = moment_map(prob, QuiverPoint({"f": f}), lvl)
    assert all(e.is_zero() for row in mu[0].entries for e in row)


def test_moment_flag_zero_maps():
    prob = chain_problem([2, 2, 2])
    zero = CMatrix.zeros(2, 2)
    pt = QuiverPoint({"f1": zero, "f2": zero})
    lvl = Level.vertex({"v1": 1, "v2": 1})
    mu = moment_map(prob, pt, lvl)
    minus_id = -CMatrix.identity(2)
    assert mu[0] == minus_id and mu[1] == minus_id


def test_moment_torus_kernel():
    prob = torus_problem([[1, -1]])
    pt = QuiverPoint({"z1": CMatrix([[1]]), "z2": CMatrix([[1]])})
    mu = moment_map(prob, pt, Level.torus([Fraction(1, 2), Fraction(1, 2)]))
    assert all(x == 0 for x in mu)
    mu2 = moment_map(prob, pt, Level.torus([0, 0]))
    assert mu2 == (Fraction(1),)  # coker coordinate b1 + b2 = 1


def test_moment_scaling_covariance_exact():
    prob = chain_problem([2, 3])
    f = CMatrix([[1, GaussianRational(0, 1)], [Fraction(1, 2), 2], [0, 1]])
    pt = QuiverPoint({"f1": f})
    lvl = Level.vertex({"v1": Fraction(3, 7)})
    zero = Level.vertex({"v1": 0})
    mu_t = moment_map(prob, pt, lvl)
    mu_0 = moment_map(prob, pt, zero)
    level_term = CMatrix.identity(2).scale(Fraction(3, 7))
    assert mu_t[0] == mu_0[0] - level_term

    tprob = torus_problem([[1, -1, 0], [0, 1, -1]])
    tpt = QuiverPoint({"z1": CMatrix([[2]]), "z2": CMatrix([[1]]), "z3": CMatrix([[3]])})
    a = [Fraction(1, 3), Fraction(2), Fraction(-1, 5)]
    tm = ToricMatrix([[1, -1, 0], [0, 1, -1]])
    mu_a = moment_map(tprob, tpt, Level.torus(a))
    mu_zero = moment_map(tprob, tpt, Level.torus([0, 0, 0]))
    shift = tm.p_v(a)
    assert mu_a == tuple(x - s for x, s in zip(mu_zero, shift))


def test_twisted_moment_shapes():
    q = Quiver(["a", "b"], [("f", "a", "b")])
    dims = QuiverDims(q, {"a": 2, "b": 2}, {"f": 3})
    prob = QuiverProblem(q, dims, FullVertexProduct(["a", "b"]))
    rng = np.random.default_rng(0)
    pt = random_point(prob, rng)
    assert pt.maps["f"].rows == 6 and pt.maps["f"].cols == 2
    lvl = Level.vertex({"a": 1, "b": -1})
    mu = moment_map(prob, pt, lvl)
    assert mu[0].rows == 2 and mu[1].rows == 2


def test_twisted_moment_exact_matches_float():
    q = Quiver(["a", "b"], [("f", "a", "b"), ("g", "b", "a")])
    dims = QuiverDims(q, {"a": 2, "b": 2}, {"f": 2, "g": 3})
    prob = QuiverProblem(q, dims, FullVertexProduct(["a", "b"]))
    rng = np.random.default_rng(8)
    exact_maps = {}
    for a in prob.quiver.arrows:
        rows, cols = prob.dims.map_shape(a)
        exact_maps[a.name] = CMatrix(
            [
                [
                    GaussianRational(
                        Fraction(int(rng.integers(-4, 5)), 2),
                        Fraction(int(rng.integers(-4, 5)), 3),
                    )
                    for _ in range(cols)
                ]
                for _ in range(rows)
            ]
        )
    pt = QuiverPoint(exact_maps)
    lvl = Level.vertex({"a": Fraction(1, 2), "b": Fraction(-1, 3)})
    mu_exact = moment_map(prob, pt, lvl)
    mu_float = moment_map(prob, pt.to_float(), lvl)
    for be, bf in zip(mu_exact, mu_float):
        assert np.linalg.norm(be.to_numpy() - bf.to_numpy()) < 1e-12


def test_hamiltonian_check_twisted():
    q = Quiver(["a", "b"], [("f", "a", "b")])
    dims = QuiverDims(q, {"a": 2, "b": 2}, {"f": 3})
    prob = QuiverProblem(q, dims, FullVertexProduct(["a", "b"]))
    rng = np.random.default_rng(21)
    pt = random_point(prob, rng, norm=2.0)
    lvl = Level.vertex({"a": 1, "b": Fraction(1, 2)})
    blocks = []
    for v in prob.s_order:
        d = prob.dims.vertex_dim[v]
        raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        blocks.append(CMatrix.from_numpy((raw + raw.conj().T) / 2))
    w = {
        "f": rng.standard_normal(prob.dims.map_shape(prob.quiver.arrows[0]))
        + 1j * rng.standard_normal(prob.dims.map_shape(prob.quiver.arrows[0]))
    }
    err = hamiltonian_check(prob, pt, lvl, HermitianTuple(blocks), w, h=1e-5)
    assert err < 1e-6


def _random_exact(rng, rows, cols):
    def entry():
        return GaussianRational(
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
        )

    return CMatrix([[entry() for _ in range(cols)] for _ in range(rows)])


def _exact_energy(prob, maps, lvl):
    """|mu|^2 from the exact moment map alone."""
    mu = moment_map(prob, QuiverPoint(maps), lvl)
    if isinstance(prob.symmetry, TorusKernel):
        return sum(x * x for x in mu)
    return sum(e.abs2() for block in mu for row in block.entries for e in row)


def test_flow_gradient_matches_energy_differences():
    """The flow's gradient against central differences of |mu|^2 along
    random tangent directions, on both symmetry shapes.  The vertex
    product has an arrow of twist dimension 3, a loop, and a vertex c
    outside S.  The energy comes from the exact moment map, so with
    h = 1e-6 the difference quotient misses the derivative only by its
    h^2 term, about 1e-12 here."""
    q = Quiver(
        ["a", "b", "c"],
        [("f", "a", "b"), ("g", "b", "c"), ("h", "c", "a"), ("l", "a", "a")],
    )
    dims = QuiverDims(q, {"a": 2, "b": 2, "c": 1}, {"f": 3, "h": 2})
    problems = [
        QuiverProblem(q, dims, FullVertexProduct(["a", "b"])),
        torus_problem([[1, -1, 0], [0, 1, -1]]),
        torus_problem([[1, -1, 0, 0], [0, 0, 1, -1]]),
    ]
    rng = random.Random(20)
    levels = [-1, 0, Fraction(1, 2), 2]
    h = Fraction(1, 10**6)
    nonzero = 0
    for prob in problems:
        torus = isinstance(prob.symmetry, TorusKernel)
        shapes = {a.name: prob.dims.map_shape(a) for a in prob.quiver.arrows}
        for _ in range(6):
            if torus:
                lvl = Level.torus([rng.choice(levels) for _ in shapes])
            else:
                lvl = Level.vertex({v: rng.choice(levels) for v in prob.s_order})
            maps = {k: _random_exact(rng, *shape) for k, shape in shapes.items()}
            fmaps = {k: m.to_numpy() for k, m in maps.items()}
            coker = quiver._coker_matrix(prob)
            lvl_f = quiver._float_level(prob, lvl)
            _, mu = quiver._energy_and_data(prob, fmaps, lvl_f, coker)
            grad = quiver._gradient(prob, fmaps, mu, coker)
            for _ in range(3):
                w = {k: _random_exact(rng, *shape) for k, shape in shapes.items()}
                plus = {k: m + w[k].scale(h) for k, m in maps.items()}
                minus = {k: m - w[k].scale(h) for k, m in maps.items()}
                diff = _exact_energy(prob, plus, lvl) - _exact_energy(prob, minus, lvl)
                expected = float(diff / (2 * h))
                actual = sum(np.vdot(grad[k], w[k].to_numpy()).real for k in grad)
                assert actual == pytest.approx(expected, rel=1e-8, abs=1e-8)
                nonzero += expected != 0.0
    assert nonzero >= 50


def test_flow_scalar_grassmann_converges():
    prob = grassmann_problem()
    pt = QuiverPoint({"f": CMatrix([[GaussianRational(Fraction(1, 4))]])})
    lvl = Level.vertex({"v1": Fraction(1, 2)})
    cfg = FlowConfig(tol=1e-8)
    res = kempf_ness_flow(prob, pt, lvl, cfg)
    assert res.converged and res.final_energy < 1e-16
    z = res.final_point.maps["f"].entries[0][0]
    assert abs(abs(z) ** 2 - 1.0) < 1e-6


def test_flow_origin_fixed_point_unstable():
    prob = grassmann_problem()
    pt = QuiverPoint({"f": CMatrix([[0]])})
    lvl = Level.vertex({"v1": Fraction(1, 2)})
    res = kempf_ness_flow(prob, pt, lvl)
    assert res.final_energy == pytest.approx(0.25)
    assert res.verdict == Verdict.UNSTABLE


def test_flow_injective_chain_stable():
    prob = chain_problem([1, 2, 3])
    pt = QuiverPoint(
        {
            "f1": CMatrix([[1], [1]]),
            "f2": CMatrix([[1, 0], [0, 1], [1, 1]]),
        }
    )
    lvl = Level.vertex({"v1": 1, "v2": 1})
    cfg = FlowConfig(tol=1e-6, max_iter=50_000)
    assert kempf_ness_flow(prob, pt, lvl, cfg).verdict == Verdict.STABLE


def test_flow_kernel_chain_unstable():
    prob = chain_problem([2, 2])
    pt = QuiverPoint({"f1": CMatrix([[1, 0], [0, 0]])})
    lvl = Level.vertex({"v1": 1})
    cfg = FlowConfig(tol=1e-6, max_iter=50_000)
    assert kempf_ness_flow(prob, pt, lvl, cfg).verdict == Verdict.UNSTABLE


def test_flow_monotone_energy():
    prob = chain_problem([2, 2])
    rng = np.random.default_rng(42)
    pt = random_point(prob, rng, norm=3.0)
    lvl = Level.vertex({"v1": Fraction(1, 2)})
    res = kempf_ness_flow(prob, pt, lvl, FlowConfig(max_iter=2000, tol=1e-9))
    hist = res.energy_history
    assert all(b <= a + 1e-15 for a, b in zip(hist, hist[1:]))


def test_flow_torus_kernel():
    prob = torus_problem([[1, -1]])
    pt = QuiverPoint({"z1": CMatrix([[2]]), "z2": CMatrix([[GaussianRational(0, 1)]])})
    lvl = Level.torus([Fraction(1), Fraction(1)])
    res = kempf_ness_flow(prob, pt, lvl, FlowConfig(tol=1e-8))
    assert res.converged
    zs = [abs(res.final_point.maps[k].entries[0][0]) ** 2 for k in ("z1", "z2")]
    assert zs[0] / 2 + zs[1] / 2 == pytest.approx(2.0, abs=1e-6)
    assert res.verdict == Verdict.STABLE


def test_hamiltonian_check_scalar():
    prob = grassmann_problem()
    pt = QuiverPoint({"f": CMatrix([[1]])})
    lvl = Level.vertex({"v1": Fraction(1, 2)})
    xi = HermitianTuple([CMatrix([[1]]).to_float()])
    err = hamiltonian_check(prob, pt, lvl, xi, {"f": np.array([[1.0 + 0j]])}, h=1e-5)
    assert err < 1e-6


def test_hamiltonian_check_zero_point():
    prob = grassmann_problem(r=2, r0=2)
    pt = QuiverPoint({"f": CMatrix.zeros(2, 2)})
    lvl = Level.vertex({"v1": 1})
    xi = HermitianTuple([CMatrix([[2, 0], [0, -1]]).to_float()])
    w = {"f": np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)}
    err = hamiltonian_check(prob, pt, lvl, xi, w, h=1e-5)
    assert err == 0.0


def test_hamiltonian_check_random_instances():
    rng = np.random.default_rng(7)
    prob = chain_problem([2, 3, 2])
    lvl = Level.vertex({"v1": 1, "v2": Fraction(1, 2)})
    for _ in range(10):
        pt = random_point(prob, rng, norm=2.0)
        blocks = []
        for v in prob.s_order:
            d = prob.dims.vertex_dim[v]
            raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            blocks.append(CMatrix.from_numpy((raw + raw.conj().T) / 2))
        w = {
            a.name: rng.standard_normal(prob.dims.map_shape(a))
            + 1j * rng.standard_normal(prob.dims.map_shape(a))
            for a in prob.quiver.arrows
        }
        err = hamiltonian_check(prob, pt, lvl, HermitianTuple(blocks), w, h=1e-5)
        assert err < 1e-5


def test_hamiltonian_check_torus():
    prob = torus_problem([[1, -1, 0], [0, 1, -1]])
    rng = np.random.default_rng(3)
    pt = random_point(prob, rng, norm=2.0)
    lvl = Level.torus([1, 0, 0])
    xi = [1.0, 1.0, 1.0]  # kernel of the matrix above
    w = {f"z{j}": rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1)) for j in (1, 2, 3)}
    err = hamiltonian_check(prob, pt, lvl, xi, w, h=1e-5)
    assert err < 1e-6
    with pytest.raises(InputError):
        hamiltonian_check(prob, pt, lvl, [1.0, 0.0, 0.0], w, h=1e-5)


def test_hamiltonian_check_h_range():
    prob = grassmann_problem()
    pt = QuiverPoint({"f": CMatrix([[1]])})
    lvl = Level.vertex({"v1": 0})
    xi = HermitianTuple([CMatrix([[1]]).to_float()])
    with pytest.raises(InputError):
        hamiltonian_check(prob, pt, lvl, xi, {"f": np.ones((1, 1))}, h=0.1)


def test_equivariance_under_unitaries():
    rng = np.random.default_rng(11)
    prob = chain_problem([3, 4, 2])
    lvl = Level.vertex({"v1": 1, "v2": 2})
    for _ in range(100):
        pt = random_point(prob, rng, norm=float(rng.uniform(0.5, 3.0)))
        maps = {k: m.to_numpy() for k, m in pt.maps.items()}
        gs = {}
        for v in prob.quiver.vertices:
            d = prob.dims.vertex_dim[v]
            if v in prob.symmetry.vertices:
                raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                q, _ = np.linalg.qr(raw)
                gs[v] = q
            else:
                gs[v] = np.eye(d)
        moved = {}
        for a in prob.quiver.arrows:
            moved[a.name] = gs[a.dst] @ maps[a.name] @ gs[a.src].conj().T
        mu = moment_map(prob, pt.to_float(), lvl)
        mu_moved = moment_map(
            prob, QuiverPoint({k: CMatrix.from_numpy(v) for k, v in moved.items()}), lvl
        )
        norm2 = sum(float(np.linalg.norm(m) ** 2) for m in maps.values())
        for v, b, bm in zip(prob.s_order, mu, mu_moved):
            lhs = bm.to_numpy()
            rhs = gs[v] @ b.to_numpy() @ gs[v].conj().T
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * (1 + norm2)


def test_properness_grassmann_none():
    prob = grassmann_problem(1, 1)
    assert properness_refuter(prob, FlowConfig(tol=1e-8), trials=5) is None
    prob2 = chain_problem([2, 3])
    assert properness_refuter(prob2, FlowConfig(tol=1e-8), trials=5) is None


def test_properness_cycle_witness():
    q = Quiver(["a", "b"], [("x", "a", "b"), ("y", "b", "a")])
    prob = QuiverProblem(q, QuiverDims(q, {"a": 1, "b": 1}), FullVertexProduct(["a", "b"]))
    w = properness_refuter(prob, FlowConfig(tol=1e-8), trials=5)
    assert w is not None
    zx = abs(w.maps["x"].entries[0][0])
    zy = abs(w.maps["y"].entries[0][0])
    assert zx**2 == pytest.approx(zy**2, abs=1e-5)
    total = zx**2 + zy**2
    assert total == pytest.approx(1.0, abs=1e-9)  # unit-renormalized


def test_problem_json_roundtrip(data_dir):
    import json

    obj = json.loads((data_dir / "quiver_grassmann.json").read_text())
    prob, pt, lvl = problem_from_json(obj)
    assert isinstance(prob.symmetry, FullVertexProduct)
    mu = moment_map(prob, pt, lvl)
    assert mu[0].entries[0][0].is_zero()

    obj2 = json.loads((data_dir / "quiver_torus_p1.json").read_text())
    prob2, pt2, lvl2 = problem_from_json(obj2)
    assert isinstance(prob2.symmetry, TorusKernel)
    mu2 = moment_map(prob2, pt2, lvl2)
    assert all(x == Fraction(-1) for x in mu2)
