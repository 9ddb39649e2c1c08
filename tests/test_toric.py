from fractions import Fraction

import pytest

from sfpas.errors import InputError, LimitError
from sfpas.toric import (
    Fan,
    SupportPattern,
    ToricLevel,
    ToricMatrix,
    chamber_fan_search,
    chamber_search,
    check_P1,
    check_P2,
    face_functional,
    k_membership,
    quotient_nonempty,
    semistable_lp,
    u_membership,
    validate_fan,
)

P1_MATRIX = ToricMatrix([[1, -1]])
P1_FAN = Fan([[1], [2]])
P2_MATRIX = ToricMatrix([[1, 0, -1], [0, 1, -1]])
P2_FAN = Fan([[1, 2], [2, 3], [1, 3]])
P1XP1_MATRIX = ToricMatrix([[1, -1, 0, 0], [0, 0, 1, -1]])
P1XP1_FAN = Fan([[1, 3], [1, 4], [2, 3], [2, 4]])
F1_MATRIX = ToricMatrix([[1, 0, -1, 0], [0, 1, 1, -1]])
F1_FAN = Fan([[1, 2], [2, 3], [3, 4], [1, 4]])
P3_MATRIX = ToricMatrix([[1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]])
P3_FAN = Fan([[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]])
# P3 with the extra ray 5 = (1, 1, 1), star-subdividing the cone {1, 2, 3}
P3_STAR_MATRIX = ToricMatrix([[1, 0, 0, -1, 1], [0, 1, 0, -1, 1], [0, 0, 1, -1, 1]])
P3_STAR_FAN = Fan([[1, 2, 5], [1, 3, 5], [2, 3, 5], [1, 2, 4], [1, 3, 4], [2, 3, 4]])


def test_toric_matrix_validation():
    with pytest.raises(InputError):
        ToricMatrix([[1, 2], [2, 4]])  # rank 1, not full row rank


def test_p_v_and_level_equivalence():
    tm = P1_MATRIX
    assert tm.p_v([1, 1]) == (Fraction(2),)
    lvl_a = ToricLevel([1, 0])
    lvl_b = ToricLevel([0, -1])
    lvl_c = ToricLevel([2, -1])  # lvl_a shifted by the row (1, -1)
    assert lvl_a.same_level(tm, lvl_c)
    assert not lvl_a.same_level(tm, lvl_b)


def test_check_p1():
    assert check_P1(P1_MATRIX) == (True, None)
    assert check_P1(ToricMatrix([[2]])) == (False, 1)
    assert check_P1(P2_MATRIX) == (True, None)


def test_check_p2():
    ok, cert = check_P2(P1_MATRIX)
    assert ok and cert is None
    ok, cert = check_P2(ToricMatrix([[1, 1]]))
    assert not ok
    assert cert is not None and any(c > 0 for c in cert) and all(c >= 0 for c in cert)
    assert check_P2(P2_MATRIX)[0]


def test_validate_fans():
    assert validate_fan(P1_FAN, P1_MATRIX) == {
        "simplicial": True,
        "is_fan": True,
        "complete": True,
    }
    assert validate_fan(P2_FAN, P2_MATRIX) == {
        "simplicial": True,
        "is_fan": True,
        "complete": True,
    }
    assert validate_fan(P1XP1_FAN, P1XP1_MATRIX)["complete"]
    flags = validate_fan(Fan([[1]]), P1_MATRIX)
    assert flags["simplicial"] and flags["is_fan"] and not flags["complete"]


def test_validate_fan_rejects_overlap():
    # cones (e1, e1+e2) and (e2, e1+e2) overlap along e1+e2 interior? no,
    # they share the ray e1+e2 properly; but (e1, e2) vs (e1+e2) overlaps.
    tm = ToricMatrix([[1, 0, 1], [0, 1, 1]])
    flags = validate_fan(Fan([[1, 2], [3]]), tm)
    assert not flags["is_fan"]


def test_validate_fans_in_dimension_three():
    complete = {"simplicial": True, "is_fan": True, "complete": True}
    assert validate_fan(P3_FAN, P3_MATRIX) == complete
    assert validate_fan(P3_STAR_FAN, P3_STAR_MATRIX) == complete
    # one cone removed: still a fan, but the removed cone is uncovered
    holed = Fan([[1, 2, 4], [1, 3, 4], [2, 3, 4]])
    assert validate_fan(holed, P3_MATRIX) == {"simplicial": True, "is_fan": True, "complete": False}
    # cone(e1, e2, (1, 1, 1)) lies inside cone(e1, e2, e3): not a fan
    overlap = Fan([[1, 2, 3], [1, 2, 5]])
    assert validate_fan(overlap, P3_STAR_MATRIX) == {"simplicial": True, "is_fan": False, "complete": False}


def test_validate_fan_bad_ray_index():
    with pytest.raises(InputError):
        validate_fan(Fan([[1], [3]]), P1_MATRIX)


def test_face_functional_p1():
    f = face_functional({1}, [Fraction(3), Fraction(5)], P1_MATRIX)
    # <f, v_1> = -3 on the ray through v_1 = (1)
    assert f.evaluate([1]) == Fraction(-3)
    assert f.vector == (Fraction(-3),)


def test_face_functional_p2_identity_cone():
    f = face_functional({1, 2}, [1, 2, 0], P2_MATRIX)
    assert f.vector == (Fraction(-1), Fraction(-2))
    assert f.evaluate([1, 0]) == Fraction(-1)
    assert f.evaluate([0, 1]) == Fraction(-2)


def test_face_functional_rejects_points_of_the_wrong_length():
    # m = 2 on P2: a short point once read as a point of span(cone), a
    # long one once raised a bare IndexError
    f = face_functional({1, 2}, [1, 2, 0], P2_MATRIX)
    for x in ([1], [1, 0, 5]):
        with pytest.raises(InputError, match="length 2"):
            f.evaluate(x)
    empty = face_functional(set(), [1, 2, 0], P2_MATRIX)
    assert empty.evaluate([0, 0]) == 0
    with pytest.raises(InputError, match="length 2"):
        empty.evaluate([0])


def test_face_functional_lower_cone():
    f = face_functional({3}, [0, 0, 1], P2_MATRIX)
    assert f.evaluate([-1, -1]) == Fraction(-1)
    with pytest.raises(InputError):
        f.evaluate([1, 0])  # outside the span of (-1, -1)


def test_face_functional_singular():
    # two proportional rays cannot carry independent values
    tm = ToricMatrix([[1, 2]])
    with pytest.raises(InputError):
        face_functional({1, 2}, [0, 1], tm)


def test_k_membership_p1():
    assert k_membership(P1_FAN, P1_MATRIX, [1, 1]) == {"in_K": True, "in_K0": True}
    assert k_membership(P1_FAN, P1_MATRIX, [1, -1]) == {"in_K": True, "in_K0": False}
    assert k_membership(P1_FAN, P1_MATRIX, [-1, -1]) == {"in_K": False, "in_K0": False}


@pytest.mark.parametrize(
    "tm, fan, level, expected",
    [
        # F1: (1, 1, 1, 1) is ample; D1 pulls back O(1) from the base P1
        # and sits on a wall of the nef cone; -D1 is not effective
        (F1_MATRIX, F1_FAN, [1, 1, 1, 1], (True, True)),
        (F1_MATRIX, F1_FAN, [1, 0, 0, 0], (True, False)),
        (F1_MATRIX, F1_FAN, [0, 0, 0, 1], (True, False)),
        (F1_MATRIX, F1_FAN, [-1, 0, 0, 0], (False, False)),
        # P3: the class is the degree a_1 + ... + a_4
        (P3_MATRIX, P3_FAN, [1, 0, 0, 0], (True, True)),
        (P3_MATRIX, P3_FAN, [1, 0, 0, -1], (True, False)),
        (P3_MATRIX, P3_FAN, [-1, 0, 0, 0], (False, False)),
    ],
)
def test_k_membership_ample_wall_and_outside(tm, fan, level, expected):
    res = k_membership(fan, tm, level)
    assert (res["in_K"], res["in_K0"]) == expected


def test_k_membership_depends_only_on_class():
    import random

    rng = random.Random(1)
    tm, fan = P2_MATRIX, P2_FAN
    base = [Fraction(1), Fraction(2), Fraction(1)]
    expected = k_membership(fan, tm, base)
    for _ in range(20):
        y = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(tm.m)]
        shifted = [
            base[j] + sum(y[i] * tm.v[i][j] for i in range(tm.m)) for j in range(tm.r)
        ]
        assert k_membership(fan, tm, shifted) == expected


def test_k0_subset_of_k():
    for tm, fan, reps in [
        (P1_MATRIX, P1_FAN, [[1, 1], [1, -1], [-1, -1], [0, 0]]),
        (P2_MATRIX, P2_FAN, [[1, 1, 1], [0, 0, 0], [-1, 0, 0]]),
    ]:
        for rep in reps:
            res = k_membership(fan, tm, rep)
            assert not (res["in_K0"] and not res["in_K"])


def test_u_membership_examples():
    assert u_membership(SupportPattern({1}), P1_FAN, 2)
    assert not u_membership(SupportPattern(set()), P1_FAN, 2)
    # all nonempty supports of the projective-plane fan are admissible
    assert u_membership(SupportPattern({1, 2}), P2_FAN, 3)
    assert u_membership(SupportPattern({3}), P2_FAN, 3)
    assert not u_membership(SupportPattern(set()), P2_FAN, 3)


def test_semistable_lp_examples():
    assert semistable_lp(SupportPattern({1}), P1_MATRIX, [1, 0]) == {
        "semistable": True,
        "stable": True,
    }
    assert semistable_lp(SupportPattern(set()), P1_MATRIX, [1, 0]) == {
        "semistable": False,
        "stable": False,
    }
    res = semistable_lp(SupportPattern({1, 2}), P1_MATRIX, [1, 1])
    assert res["semistable"] and res["stable"]


def test_semistable_boundary_level():
    # class zero: the full pattern is semistable (b = 0) but not stable
    res = semistable_lp(SupportPattern({1, 2}), P1_MATRIX, [1, -1])
    assert res["semistable"] and not res["stable"]


def test_quotient_nonempty():
    assert quotient_nonempty(P1_MATRIX, [1, 1])
    assert not quotient_nonempty(P1_MATRIX, [-1, 0])
    assert quotient_nonempty(P1_MATRIX, [0, 0])


def test_nonempty_implied_by_semistable():
    for supp in range(4):
        pattern = SupportPattern({j + 1 for j in range(2) if supp >> j & 1})
        level = [1, 1]
        if semistable_lp(pattern, P1_MATRIX, level)["semistable"]:
            assert quotient_nonempty(P1_MATRIX, level)


def test_chamber_search():
    fan = chamber_fan_search(P1_MATRIX, [1, 1])
    assert fan == P1_FAN
    fan = chamber_fan_search(P2_MATRIX, [1, 1, 1])
    assert fan == P2_FAN
    assert chamber_fan_search(ToricMatrix([[1, 1]]), [1, 1]) is None
    fan = chamber_fan_search(P1XP1_MATRIX, [1, 1, 1, 1])
    assert fan == P1XP1_FAN
    assert chamber_search(P2_MATRIX, [1, 1, 1]) == (P2_FAN, None)
    assert chamber_search(P2_MATRIX, [-1, 0, 0]) == (
        None, "no independent cone has a semistable complement at the level")
    assert chamber_search(ToricMatrix([[1, 1]]), [1, 1]) == (
        None, "the candidate cones fail the fan checks: complete, is_fan")
    assert chamber_search(P2_MATRIX, [0, 0, 0]) == (
        None, "the level is not in the K0 cone of the candidate fan")


def test_chamber_search_limits():
    with pytest.raises(LimitError):
        chamber_fan_search(ToricMatrix([[1] + [0] * 12, [0] * 12 + [-1]]), [1] * 13)


def _theta_equivalence(tm, fan, level):
    """semistable <=> admissible pattern, and stable <=> semistable."""
    r = tm.r
    assert k_membership(fan, tm, level)["in_K0"]
    for mask in range(1 << r):
        pattern = SupportPattern({j + 1 for j in range(r) if mask >> j & 1})
        lp = semistable_lp(pattern, tm, level)
        assert lp["semistable"] == u_membership(pattern, fan, r), pattern.support
        assert lp["semistable"] == lp["stable"], pattern.support


def test_stability_equivalence_p1():
    _theta_equivalence(P1_MATRIX, P1_FAN, [1, 1])


def test_stability_equivalence_p2():
    _theta_equivalence(P2_MATRIX, P2_FAN, [1, 1, 1])


def test_stability_equivalence_p1xp1():
    _theta_equivalence(P1XP1_MATRIX, P1XP1_FAN, [1, 1, 1, 1])


def _torus_quiver_problem(tm):
    from sfpas import quiver as Q

    arrows = [(f"z{j}", f"o{j}", "c") for j in range(1, tm.r + 1)]
    quiv = Q.Quiver(["c"] + [f"o{j}" for j in range(1, tm.r + 1)], arrows)
    dims = Q.QuiverDims(quiv, {v: 1 for v in quiv.vertices})
    return Q.QuiverProblem(quiv, dims, Q.TorusKernel(tm))


def test_moment_map_vanishes_exactly_on_lp_solution():
    """A point with |z_j|^2 = 2 b_j kills the moment map at level p_v(b),
    exactly, even after shifting the representative by the row space."""
    from sfpas import quiver as Q
    from sfpas.linalg import CMatrix

    tm = P1XP1_MATRIX
    prob = _torus_quiver_problem(tm)
    zs = {"z1": 1, "z2": 3, "z3": 2, "z4": 0}
    point = Q.QuiverPoint({k: CMatrix([[v]]) for k, v in zs.items()})
    b = [Fraction(v * v, 2) for v in zs.values()]
    shift = [b[j] + 5 * tm.v[0][j] - 2 * tm.v[1][j] for j in range(tm.r)]
    for rep in (b, shift):
        mu = Q.moment_map(prob, point, Q.Level.torus(rep))
        assert all(x == 0 for x in mu)


def test_moment_map_consistency_with_lp_certificate():
    """An LP certificate for a semistable pattern gives a float moment zero."""
    import numpy as np

    from sfpas.lp import LinearProgram
    from sfpas import quiver as Q
    from sfpas.linalg import CMatrix

    tm = P1XP1_MATRIX
    level = [Fraction(1)] * 4
    target = tm.p_v(level)
    prog = LinearProgram()
    bs = prog.vars(tm.r)
    for k, vec in enumerate(tm.coker):
        prog.add_eq({bs[j]: vec[j] for j in range(tm.r)}, target[k])
    cert = prog.feasible()
    assert cert is not None

    prob = _torus_quiver_problem(tm)
    zs = {
        f"z{j + 1}": CMatrix.from_numpy([[np.sqrt(float(2 * cert[bs[j]]))]])
        for j in range(tm.r)
    }
    mu = Q.moment_map(prob, Q.QuiverPoint(zs), Q.Level.torus(level))
    assert float(np.linalg.norm(mu)) < 1e-12
