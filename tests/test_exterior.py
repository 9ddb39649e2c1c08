import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfpas.errors import InputError
from sfpas.exterior import (
    AbelianProblem,
    ExteriorClass,
    algebra_degrees,
    expected_dimension,
    ggw_abelian,
    ggw_terms,
    quot_count,
)

sys.path.insert(0, str(Path(__file__).parent))
from oracles import ext_theta, ext_theta_power, ext_top, ext_wedge  # noqa: E402

SETTINGS = settings(max_examples=200, derandomize=True, deadline=None)


def _gen(kind, j):
    """The oracle class of generator a_j or b_j (1-based j)."""
    return {(2 * (j - 1) + (kind == "b"),): 1}


def _neg(x):
    return {m: -c for m, c in x.items()}


def _add(x, y):
    out = dict(x)
    for m, c in y.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


# -- the wedge laws, on the oracle --------------------------------------------


def test_wedge_basic():
    a1, b1 = _gen("a", 1), _gen("b", 1)
    assert ext_wedge(a1, b1) == {(0, 1): 1}
    assert ext_wedge(b1, a1) == {(0, 1): -1}
    assert ext_wedge(a1, a1) == {}


def test_wedge_anticommutes_in_odd_degree():
    a1, a2 = _gen("a", 1), _gen("a", 2)
    assert ext_wedge(a1, a2) == _neg(ext_wedge(a2, a1))
    x = {(0,): 2, (1, 2, 3): -1}
    y = {(2,): 1, (0, 1, 3): 3}
    assert ext_wedge(x, y) == _neg(ext_wedge(y, x))


def test_even_classes_commute():
    t1 = ext_wedge(_gen("a", 1), _gen("b", 1))
    t2 = ext_wedge(_gen("a", 2), _gen("b", 2))
    assert ext_wedge(t1, t2) == ext_wedge(t2, t1)
    assert ext_wedge(t1, t2) == {(0, 1, 2, 3): 1}
    x = {(0, 2): 1, (1, 3): -2}
    y = {(1, 2): 3, (0, 3): 1}
    assert ext_wedge(x, y) == ext_wedge(y, x)


def test_wedge_associative():
    xs = [_gen("a", 1), _gen("b", 2), _gen("a", 2)]
    assert ext_wedge(ext_wedge(xs[0], xs[1]), xs[2]) == ext_wedge(xs[0], ext_wedge(xs[1], xs[2]))
    x, y, z = {(0,): 1, (2, 3): 2}, {(1,): -1, (3,): 1}, {(2,): 1, (0, 5): 4}
    assert ext_wedge(ext_wedge(x, y), z) == ext_wedge(x, ext_wedge(y, z))


def test_genus_mismatch():
    p = AbelianProblem(g=1, r0=2, d=0, d0=1, t_side="above")
    with pytest.raises(InputError):
        ggw_terms(p, ExteriorClass.one(2))


def test_theta_powers():
    assert ext_theta_power(2, 2) == {(0, 1, 2, 3): 1}
    assert len(ext_theta_power(3, 1)) == 3
    assert ext_theta_power(3, 1) == ext_theta(3)
    assert ext_theta_power(2, 3) == {}
    assert ext_theta_power(0, 0) == {(): 1}


def test_theta_top_normalization():
    for g in range(9):
        assert ext_top(ext_theta_power(g, g), g) == 1


def test_expected_dimension_values():
    assert expected_dimension(1, 2, 1, 2, 1) == 0
    assert expected_dimension(1, 1, 0, 0, 5) == 0
    assert expected_dimension(2, 3, 1, 2, 2) == -1


def test_expected_dimension_formulas_agree_at_rank_one():
    import random

    rng = random.Random(0)
    for _ in range(1000):
        r0 = rng.randint(1, 6)
        d = rng.randint(-10, 10)
        d0 = rng.randint(-10, 10)
        g = rng.randint(0, 8)
        general = expected_dimension(1, r0, d, d0, g)
        assert general == d0 - r0 * d + (r0 - 1) * (1 - g)


def test_ggw_g1_example():
    p = AbelianProblem(g=1, r0=2, d=1, d0=2, t_side="above")
    assert expected_dimension(1, 2, 1, 2, 1) == 0
    assert ggw_abelian(p, ExteriorClass.one(1)) == 2


def test_ggw_below_threshold_zero():
    for g, r0, d, d0 in [(1, 2, 1, 2), (3, 4, -2, 5), (0, 1, 0, 0)]:
        p = AbelianProblem(g=g, r0=r0, d=d, d0=d0, t_side="below")
        assert ggw_abelian(p, ExteriorClass.one(g)) == 0


def test_ggw_genus_zero():
    p = AbelianProblem(g=0, r0=5, d=0, d0=2, t_side="above")
    assert expected_dimension(1, 5, 0, 2, 0) >= 0
    assert ggw_abelian(p, ExteriorClass.one(0)) == 1


def test_ggw_additive_in_class():
    g = 2
    p = AbelianProblem(g=g, r0=3, d=0, d0=4, t_side="above")
    assert expected_dimension(1, 3, 0, 4, g) == g  # every power 0..g counts
    l1 = {(0, 1): 1, (2, 3): 1}
    l2 = {(0, 1): 2, (2, 3): -1, (1,): 5, (): -2}
    total = ggw_abelian(p, ExteriorClass(g, _add(l1, l2)))
    assert total == ggw_abelian(p, ExteriorClass(g, l1)) + ggw_abelian(p, ExteriorClass(g, l2))
    assert total == 3 * 3 - 2 * 3**2


def test_ggw_wrong_degree_vanishes():
    g = 2
    p = AbelianProblem(g=g, r0=3, d=0, d0=4, t_side="above")
    assert ggw_abelian(p, ExteriorClass(g, {(0,): 1})) == 0
    assert ggw_abelian(p, ExteriorClass(g, {(0, 1, 3): 4})) == 0
    # even degree, but not a union of whole pairs a_j ^ b_j
    assert ggw_abelian(p, ExteriorClass(g, {(0, 2): 1, (1, 2): 1})) == 0
    # mixed degrees: every power 0..g is listed, each contributing 0
    assert ggw_terms(p, ExteriorClass(g, {(0,): 1, (0, 2): 1, (0, 1, 3): 4})) == (
        0, [(0, 0), (1, 0), (2, 0)]
    )


def test_ggw_series_single_term_for_homogeneous():
    g = 3
    p = AbelianProblem(g=g, r0=2, d=0, d0=3, t_side="above")
    assert expected_dimension(1, 2, 0, 3, g) == 1
    l = ExteriorClass(g, {(0, 1): 1, (2, 3): 1, (4, 5): 1})
    _, terms = ggw_terms(p, l)
    assert len(terms) == 1 and terms[0][0] == 2

    # negative expected dimension empties the sum entirely
    p_neg = AbelianProblem(g=g, r0=2, d=0, d0=0, t_side="above")
    assert expected_dimension(1, 2, 0, 0, g) < 0
    assert ggw_abelian(p_neg, ExteriorClass.one(g)) == 0


def test_quot_count_values():
    assert quot_count(2, 2) == 4
    assert quot_count(0, 9) == 1
    assert quot_count(1, 3) == 3


def test_quot_count_matches_ggw_at_zero_dimension():
    for g in range(7):
        for r0 in range(1, 6):
            # arrange v = 0: d = 0, d0 = (1 - r0)(1 - g) gives d0 - 0 + (r0-1)(1-g) = 0
            d0 = -(r0 - 1) * (1 - g)
            assert expected_dimension(1, r0, 0, d0, g) == 0
            p = AbelianProblem(g=g, r0=r0, d=0, d0=d0, t_side="above")
            assert quot_count(g, r0) == ggw_abelian(p, ExteriorClass.one(g))


def test_algebra_degrees():
    assert algebra_degrees(2, "u", 2) == 4
    assert algebra_degrees(2, "v", 2) == 2
    assert algebra_degrees(1, "h1", 1) == 1
    with pytest.raises(InputError):
        algebra_degrees(2, "v", 1)
    with pytest.raises(InputError):
        algebra_degrees(2, "u", 3)
    with pytest.raises(InputError):
        algebra_degrees(2, "w", 1)


def test_class_json_roundtrip():
    obj = {"g": 2, "terms": [[[], 7], [[0, 3], -4], [[1, 2], 0]]}
    c = ExteriorClass.from_json(obj)
    assert (c.g, c.terms) == (2, {(): 7, (0, 3): -4})
    back = {"g": c.g, "terms": [[list(m), k] for m, k in sorted(c.terms.items())]}
    assert ExteriorClass.from_json(back).terms == c.terms


# -- the closed form against the oracle ---------------------------------------


@st.composite
def classes(draw):
    """(g, terms) with g <= 6: unions of whole pairs, odd-degree and
    arbitrary monomials, possibly none at all."""
    g = draw(st.integers(0, 6))
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["pairs", "odd", "any"]))
        if kind == "pairs":
            keep = draw(st.lists(st.booleans(), min_size=g, max_size=g))
            mono = tuple(x for j in range(g) if keep[j] for x in (2 * j, 2 * j + 1))
        else:
            keep = draw(st.lists(st.booleans(), min_size=2 * g, max_size=2 * g))
            mono = tuple(k for k in range(2 * g) if keep[k])
            if kind == "odd" and g and len(mono) % 2 == 0:
                mono = tuple(sorted(set(mono) ^ {0}))
        terms[mono] = terms.get(mono, 0) + draw(st.integers(-5, 5))
    return g, terms


@SETTINGS
@given(
    cls=classes(),
    r0=st.integers(1, 4),
    d=st.integers(-3, 3),
    d0=st.integers(-6, 8),
    side=st.sampled_from(["above", "below"]),
)
def test_ggw_terms_match_oracle(cls, r0, d, d0, side):
    g, terms = cls
    p = AbelianProblem(g=g, r0=r0, d=d, d0=d0, t_side=side)
    value, listed = ggw_terms(p, ExteriorClass(g, terms))
    if side == "below":
        assert (value, listed) == (0, [])
        return
    lo = max(0, g - (d0 - r0 * d + (r0 - 1) * (1 - g)))
    oracle = {
        i: r0**i * ext_top(ext_wedge(ext_theta_power(g, i), terms), g) for i in range(lo, g + 1)
    }
    assert value == sum(oracle.values())
    assert all(c == oracle[i] for i, c in listed)
    # a power left out of the list contributes nothing
    listed_powers = {i for i, _ in listed}
    assert all(oracle[i] == 0 for i in oracle if i not in listed_powers)


def test_ggw_cost_bounded_at_genus_14():
    g = 14
    l = ExteriorClass(g, ext_theta_power(g, 7))
    p = AbelianProblem(g=g, r0=2, d=0, d0=20, t_side="above")
    t0 = time.perf_counter()
    value, terms = ggw_terms(p, l)
    elapsed = time.perf_counter() - t0
    assert (value, terms) == (2**7 * 3432, [(7, 2**7 * 3432)])
    assert elapsed < 0.05, f"ggw_terms took {elapsed * 1e3:.1f} ms at g = 14"
