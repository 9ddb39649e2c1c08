"""Seeded raw inputs for the in-process workloads.

Everything here is plain ``int`` and ``Fraction`` data drawn from the
seed, filtered where needed by the references in ``oracles``; nothing
imports sfpas, so drawing the inputs stays out of the timed set-up,
which imports sfpas and builds its objects from these (``library.py``).
Each ``draw_*`` returns a list of pool rounds; a run cycles through them.
"""

from __future__ import annotations

import random
from fractions import Fraction

import oracles

# -- pencil-sweep -------------------------------------------------------------

# Triple counts per (u, v, w) in the exhaustive symmetry-reduced sweep of
# u <= 2, v <= 3, w <= 2 (52,401 triples), outside its two big shapes.
SMALL_SHAPES = {
    (1, 3, 2): 624, (2, 2, 2): 576, (2, 2, 1): 480, (2, 2, 0): 96,
    (1, 2, 2): 48, (1, 2, 1): 40, (0, 2, 2): 6, (1, 1, 1): 6, (1, 1, 2): 6,
    (1, 1, 0): 3, (0, 1, 1): 2, (0, 1, 2): 2,
}
# One round: the sweep's mix ((2,3,2) 71 %, (2,3,1) 25 %, the rest 4 %)
# with a fixed 4 % of larger shapes at u = 3, v = 4.
PENCIL_ROUND = (((2, 3, 2), 67), ((2, 3, 1), 25), ("small", 4), ((3, 4, 1), 2), ((3, 4, 2), 2))
PENCIL_POOL_ROUNDS = 16


def _int_matrix(rng, rows, cols):
    return [[rng.choice((-1, 0, 1)) for _ in range(cols)] for _ in range(rows)]


def draw_pencil(seed):
    """Rounds of integer triples (k, l, m, u, v, w)."""
    rng = random.Random(f"pencil-sweep/{seed}")
    small, weights = list(SMALL_SHAPES), list(SMALL_SHAPES.values())
    pool = []
    for _ in range(PENCIL_POOL_ROUNDS):
        triples = []
        for shape, count in PENCIL_ROUND:
            for _ in range(count):
                u, v, w = rng.choices(small, weights)[0] if shape == "small" else shape
                triples.append((_int_matrix(rng, v, u), _int_matrix(rng, v, u), _int_matrix(rng, v, w), u, v, w))
        rng.shuffle(triples)
        pool.append(triples)
    return pool


# -- exact-scalar -------------------------------------------------------------

# name -> (rays, the known complete fan)
VARIETIES = {
    "P1": ([(1,), (-1,)], [{1}, {2}]),
    "P2": ([(1, 0), (0, 1), (-1, -1)], [{1, 2}, {2, 3}, {1, 3}]),
    "P1xP1": ([(1, 0), (-1, 0), (0, 1), (0, -1)], [{1, 3}, {1, 4}, {2, 3}, {2, 4}]),
    "F1": ([(1, 0), (0, 1), (-1, 1), (0, -1)], [{1, 2}, {2, 3}, {3, 4}, {1, 4}]),
    "F2": ([(1, 0), (0, 1), (-1, 2), (0, -1)], [{1, 2}, {2, 3}, {3, 4}, {1, 4}]),
    "P3": (
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
        [{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4}],
    ),
}
# Flag chains with a forced kernel: (dims, level), one of each per round.
UNSTABLE_FLAGS = (
    ((3, 2), (1,)), ((4, 2), (Fraction(1, 2),)), ((2, 3, 2), (1, 2)),
    ((3, 3, 2), (2, 1)), ((2, 2, 3, 1), (1, 1, 2)), ((4, 3, 3), (1, Fraction(1, 2))),
)
# Refuter inputs: (u, v, w) and the level pair (s, t) as (value, eps) pairs.
# Generic triples of the first two are stable at their levels, so the
# search runs through every candidate; the last two are refuted early.
REFUTER_SHAPES = (
    ((2, 3, 1), (1, 0), (Fraction(5, 4), 0)),
    ((2, 3, 2), (1, 1), (1, 0)),
    ((2, 4, 2), (1, 0), (2, 0)),
    ((3, 4, 1), (1, 1), (1, 0)),
)
EXACT_POOL_ROUNDS = 4


def rational_matrix(rng, rows, cols):
    """Entries p/q with q in 1..3 and |p| <= 3q, as in criterion 1."""
    return [
        [Fraction(rng.randint(-3 * q, 3 * q), q) for q in (rng.randint(1, 3) for _ in range(cols))]
        for _ in range(rows)
    ]


def ample_level(rng, rays, cones):
    while True:
        a = [rng.randint(0, 3) for _ in rays]
        if oracles.is_ample(rays, cones, a):
            return a


def draw_exact(seed):
    """Rounds of (kind, payload):

    validate_fan / k_membership / chamber_fan_search: (variety, level, None);
    semistable_lp: (variety, level, support);
    flag_stable: (dims, maps, level); stromme_refuter: ((k, l, m), s, t, seed).
    """
    rng = random.Random(f"exact-scalar/{seed}")
    pool = []
    for _ in range(EXACT_POOL_ROUNDS):
        ops = []
        for name, (rays, cones) in VARIETIES.items():
            level = ample_level(rng, rays, cones)
            for kind in ("validate_fan", "k_membership", "chamber_fan_search"):
                ops.append((kind, (name, level, None)))
            for mask in range(1 << len(rays)):
                support = frozenset(j + 1 for j in range(len(rays)) if mask >> j & 1)
                ops.append(("semistable_lp", (name, level, support)))
        for dims, level in UNSTABLE_FLAGS:
            maps = [rational_matrix(rng, dims[i + 1], dims[i]) for i in range(len(dims) - 1)]
            ops.append(("flag_stable", (dims, maps, level)))
        for (u, v, w), s, t in REFUTER_SHAPES:
            mats = (rational_matrix(rng, v, u), rational_matrix(rng, v, u), rational_matrix(rng, v, w))
            ops.append(("stromme_refuter", (mats, s, t, rng.randrange(1 << 16))))
        rng.shuffle(ops)
        pool.append(ops)
    return pool


# -- kn-flow -----------------------------------------------------------------

LEVELS = (Fraction(1, 2), Fraction(1), Fraction(2))
CRITERION1_SEED, CRITERION1_CHAINS = 2024, 200


def criterion1_shapes():
    """The (dims, level) of the 200 chains of criterion 1, replayed from
    its seed: length 1-3, dims 1-4, entries p/q (drawn and dropped here),
    levels in {1/2, 1, 2}.  56 have two equal adjacent levels; 16 of
    those run 2,800-7,800 iterations (all Unstable, 86 % of the time)."""
    rng = random.Random(CRITERION1_SEED)
    shapes = []
    for _ in range(CRITERION1_CHAINS):
        m = rng.randint(1, 3)
        dims = [rng.randint(1, 4) for _ in range(m + 1)]
        for i in range(m):
            rational_matrix(rng, dims[i + 1], dims[i])
        shapes.append((dims, [rng.choice(LEVELS) for _ in range(m)]))
    return shapes


def full_rank_maps(rng, dims):
    maps = []
    for i in range(len(dims) - 1):
        rows, cols = dims[i + 1], dims[i]
        while True:
            mat = rational_matrix(rng, rows, cols)
            if oracles.crank([[(x, Fraction(0)) for x in row] for row in mat]) == min(rows, cols):
                break
        maps.append(mat)
    return maps


def draw_kn(seed):
    """One round: the chains (dims, maps, level) of criterion 1 with fresh
    full-rank entries, in a seeded order.  The shapes fix the cost (each
    keeps its iteration count to within 10 % whatever the full-rank
    entries), so every run measures the same heavy tail."""
    rng = random.Random(f"kn-flow/{seed}")
    chains = [(dims, full_rank_maps(rng, dims), level) for dims, level in criterion1_shapes()]
    rng.shuffle(chains)
    return [chains]


DRAW = {"pencil-sweep": draw_pencil, "exact-scalar": draw_exact, "kn-flow": draw_kn}
