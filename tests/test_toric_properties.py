"""Property tests of the toric lane in dimensions 1 to 3.

- Fan completeness against the point-covering oracle of
  ``tests/oracles.py`` on star subdivisions of P^m and of the
  coordinate fan, with cones dropped or scrambled.
- Invariance of ``validate_fan``, ``k_membership``, ``semistable_lp``
  and ``chamber_search`` under a simultaneous permutation of rays,
  cones, support and level, and under v -> U v for U in GL_m(Z).
- LP-count budgets: the number of ``lp.solve_standard`` calls each
  question makes, counted with monkeypatch (no wall clock).

Hypothesis runs derandomized with fixed ``max_examples``, so every run
checks the same examples.
"""

from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_fan_covers_facet_exits, solve_fraction
from sfpas import lp
from sfpas.toric import (
    Fan,
    SupportPattern,
    ToricMatrix,
    chamber_search,
    k_membership,
    semistable_lp,
    validate_fan,
)

SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)


def _matrix(rays):
    return ToricMatrix([[ray[i] for ray in rays] for i in range(len(rays[0]))])


def _projective_space(m):
    rays = [tuple(int(i == k) for i in range(m)) for k in range(m)] + [tuple([-1] * m)]
    return rays, [set(c) for c in combinations(range(1, m + 2), m)]


def _coordinate_fan(m):
    rays = [tuple(s * int(i == k) for i in range(m)) for k in range(m) for s in (1, -1)]
    return rays, [{2 * k + 1 + side[k] for k in range(m)} for side in product((0, 1), repeat=m)]


def _star_subdivide(rays, cones, w):
    """Add the ray w and split every cone that contains it."""
    rays = rays + [w]
    new = len(rays)
    out = []
    for cone in cones:
        order = sorted(cone)
        coeffs = solve_fraction([rays[j - 1] for j in order], w)
        if all(c >= 0 for c in coeffs):
            out.extend((cone - {j}) | {new} for j, c in zip(order, coeffs) if c > 0)
        else:
            out.append(cone)
    return rays, out


@st.composite
def fans(draw):
    """A complete simplicial fan in dimension <= 3, then maybe broken."""
    m = draw(st.sampled_from([3, 2, 1]))
    rays, cones = draw(st.sampled_from([_projective_space, _coordinate_fan]))(m)
    for w in draw(st.lists(st.tuples(*[st.integers(-2, 2)] * m), max_size=3)):
        if any(w):
            rays, cones = _star_subdivide(rays, cones, w)
    kind = draw(st.sampled_from(["complete", "drop", "swap", "subset"]))
    if kind == "drop" and len(cones) > 1:
        cones.pop(draw(st.integers(0, len(cones) - 1)))
    elif kind == "swap":
        i = draw(st.integers(0, len(cones) - 1))
        old = draw(st.sampled_from(sorted(cones[i])))
        new = draw(st.sampled_from(sorted(set(range(1, len(rays) + 1)) - cones[i])))
        cones[i] = (cones[i] - {old}) | {new}
    elif kind == "subset":
        every = [set(c) for c in combinations(range(1, len(rays) + 1), m)]
        cones = draw(st.lists(st.sampled_from(every), min_size=1, max_size=6))
    return rays, cones


@settings(SETTINGS, max_examples=150)
@given(fans())
def test_fan_completeness_matches_covering_oracle(case):
    rays, cones = case
    flags = validate_fan(Fan(cones), _matrix(rays))
    m = len(rays[0])
    if flags["is_fan"] and all(len(c) == m for c in cones):
        assert flags["complete"] == oracle_fan_covers_facet_exits(rays, cones)
    else:
        assert not flags["complete"]


# -- invariance under the symmetries of the data ----------------------------

VARIETIES = [
    ([(1,), (-1,)], [{1}, {2}]),
    ([(1, 0), (0, 1), (-1, -1)], [{1, 2}, {2, 3}, {1, 3}]),
    ([(1, 0), (-1, 0), (0, 1), (0, -1)], [{1, 3}, {1, 4}, {2, 3}, {2, 4}]),
    ([(1, 0), (0, 1), (-1, 1), (0, -1)], [{1, 2}, {2, 3}, {3, 4}, {1, 4}]),
    _projective_space(3),
    _star_subdivide(*_projective_space(3), (1, 1, 1)),
]


@st.composite
def toric_questions(draw):
    """A variety, maybe with one cone dropped, a level and a support."""
    rays, cones = draw(st.sampled_from(VARIETIES))
    cones = list(cones)
    if draw(st.booleans()):
        cones.pop(draw(st.integers(0, len(cones) - 1)))
    r = len(rays)
    level = draw(st.lists(st.integers(-2, 3), min_size=r, max_size=r))
    support = draw(st.sets(st.integers(1, r)))
    return rays, cones, level, support


def _answers(rays, cones, level, support):
    tm = _matrix(rays)
    fan = Fan(cones)
    return (
        validate_fan(fan, tm),
        k_membership(fan, tm, level),
        semistable_lp(SupportPattern(support), tm, level),
        chamber_search(tm, level),
    )


@SETTINGS
@given(toric_questions(), st.data())
def test_toric_answers_invariant_under_ray_permutation(question, data):
    rays, cones, level, support = question
    r = len(rays)
    perm = data.draw(st.permutations(range(r)))  # new ray i is old ray perm[i]
    new_index = {perm[i] + 1: i + 1 for i in range(r)}
    moved_cones = data.draw(st.permutations([{new_index[j] for j in c} for c in cones]))
    moved = _answers(
        [rays[p] for p in perm],
        moved_cones,
        [level[p] for p in perm],
        {new_index[j] for j in support},
    )
    flags, membership, stability, (fan, reason) = _answers(rays, cones, level, support)
    assert moved[:3] == (flags, membership, stability)
    moved_fan, moved_reason = moved[3]
    assert moved_reason == reason
    if fan is None:
        assert moved_fan is None
    else:
        assert moved_fan == Fan([{new_index[j] for j in c} for c in fan.max_cones])


@st.composite
def unimodular(draw, m):
    """A signed permutation times elementary row operations, in GL_m(Z)."""
    perm = draw(st.permutations(range(m)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=m, max_size=m))
    u = [[signs[i] * int(j == perm[i]) for j in range(m)] for i in range(m)]
    if m > 1:
        pairs = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1), st.integers(-2, 2))
        for i, j, c in draw(st.lists(pairs, max_size=4)):
            if i != j:
                u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return u


@SETTINGS
@given(toric_questions(), st.data())
def test_toric_answers_invariant_under_unimodular_change(question, data):
    rays, cones, level, support = question
    u = data.draw(unimodular(len(rays[0])))
    moved_rays = [tuple(sum(a * x for a, x in zip(row, ray)) for row in u) for ray in rays]
    assert _answers(moved_rays, cones, level, support) == _answers(rays, cones, level, support)


# -- LP-count budgets ---------------------------------------------------------


@pytest.fixture
def lp_calls(monkeypatch):
    calls = []
    solve = lp.solve_standard

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(lp, "solve_standard", counting)
    return calls


@pytest.mark.parametrize("variety", VARIETIES[1:], ids=["P2", "P1xP1", "F1", "P3", "P3-star"])
def test_validate_fan_solves_one_lp_per_cone_pair(variety, lp_calls):
    rays, cones = variety
    assert all(validate_fan(Fan(cones), _matrix(rays)).values())
    assert len(lp_calls) == len(cones) * (len(cones) - 1) // 2


@pytest.mark.parametrize("level", [[1, 1, 1, 1], [1, 0, 0, 0], [-1, 0, 0, 0]])
def test_k_membership_solves_one_lp(level, lp_calls):
    rays, cones = VARIETIES[3]
    k_membership(Fan(cones), _matrix(rays), level)
    assert len(lp_calls) == 1


def test_chamber_search_lp_budget_on_f1(lp_calls):
    rays, cones = VARIETIES[3]
    assert chamber_search(_matrix(rays), [1, 1, 1, 1]) == (Fan(cones), None)
    assert len(lp_calls) <= 12
