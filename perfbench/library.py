"""In-process workloads: pencil-sweep, exact-scalar and kn-flow.

Each workload is built from the raw pool rounds of ``inputs.py``:
importing this module imports sfpas, and the constructor turns the raw
inputs into sfpas objects; both are the timed set-up.  A round is a
fixed-make-up list of operations ``(kind, key, call)``; ``call()`` runs
sfpas on one input and returns what ``check`` verifies against the
references in ``oracles``, which work on the raw inputs.
"""

from __future__ import annotations

from sfpas import families, quiver, toric
from sfpas.linalg import CMatrix, GaussianRational

import inputs
import oracles


def _cmatrix(rows):
    return CMatrix([[GaussianRational(x) for x in row] for row in rows])


def _as_pairs(rows):
    return [[(x, 0) for x in row] for row in rows]


class Workload:
    """Pool rounds of (kind, key); ``self.raw[key]`` is the raw input of
    an operation and ``self.built[key]`` its sfpas objects."""

    def __init__(self, pool):
        self.raw, self.built, self.pool = [], [], []
        for ops in pool:
            keys = []
            for kind, item in ops:
                keys.append((kind, len(self.raw)))
                self.raw.append(item)
                self.built.append(self.build(kind, item))
            self.pool.append(keys)

    def round(self, index):
        return [(kind, key, self.op(kind, key)) for kind, key in self.pool[index % len(self.pool)]]


# -- pencil-sweep -------------------------------------------------------------


class PencilSweep(Workload):
    name = "pencil-sweep"
    tail_pct = 99
    min_ops = 1000

    def __init__(self, pool):
        super().__init__([[("stromme_check", triple) for triple in triples] for triples in pool])

    def build(self, kind, item):
        k, l, m, u, v, w = item
        return families.StrommeTriple.from_integer_lists(k, l, m, v, u, w)

    def op(self, kind, key):
        triple = self.built[key]

        def call():
            res = families.stromme_check(triple)
            return res["cond1"], res["cond2"]

        return call

    def check(self, records):
        errors = []
        expected = {}
        for _, key, got in records:
            if key not in expected:
                expected[key] = oracles.pencil_oracle(*self.raw[key])
            if got != expected[key]:
                errors.append(f"triple {key} {self.raw[key]}: sfpas {got}, oracle {expected[key]}")
        return errors


# -- exact-scalar -------------------------------------------------------------


class ExactScalar(Workload):
    name = "exact-scalar"
    tail_pct = 97
    min_ops = 400

    def __init__(self, pool):
        self.varieties = {}
        for name, (rays, cones) in inputs.VARIETIES.items():
            tm = toric.ToricMatrix([[ray[i] for ray in rays] for i in range(len(rays[0]))])
            self.varieties[name] = (tm, toric.Fan([sorted(c) for c in cones]))
        super().__init__(pool)

    def build(self, kind, item):
        if kind == "flag_stable":
            dims, maps, level = item
            return families.FlagChain(dims, [_cmatrix(f) for f in maps], level)
        if kind == "stromme_refuter":
            mats, s, t, _ = item
            return families.StrommeTriple(*(_cmatrix(x) for x in mats)), families.EpsRational(*s), \
                families.EpsRational(*t)
        _, _, support = item
        return toric.SupportPattern(set(support)) if kind == "semistable_lp" else None

    def op(self, kind, key):
        built = self.built[key]
        if kind == "flag_stable":
            return lambda: families.flag_stable(built)
        if kind == "stromme_refuter":
            seed = self.raw[key][3]
            return lambda: families.stromme_refuter(*built, seed=seed, trials=20)
        name, level, _ = self.raw[key]
        tm, fan = self.varieties[name]
        if kind == "validate_fan":
            return lambda: toric.validate_fan(fan, tm)
        if kind == "k_membership":
            return lambda: toric.k_membership(fan, tm, level)
        if kind == "chamber_fan_search":
            return lambda: toric.chamber_fan_search(tm, level)
        return lambda: toric.semistable_lp(built, tm, level)

    def check(self, records):
        errors = []
        for kind, key, got in records:
            item = self.raw[key]
            where = f"{kind} #{key}"
            if kind == "flag_stable":
                dims, maps, level = item
                kdims = oracles.kernel_profile(dims, maps)
                verdict, witness = got
                if verdict != quiver.Verdict.UNSTABLE or witness is None:
                    errors.append(f"{where}: verdict {verdict} on a chain with kernels {kdims}")
                else:
                    errors += [f"{where}: {e}" for e in oracles.flag_witness_errors(maps, level, witness, kdims)]
            elif kind == "stromme_refuter":
                if got is not None:
                    (k, l, m), s, t, _ = item
                    u, v = len(k[0]), len(k)
                    errors += [f"{where}: {e}" for e in oracles.refuter_errors(
                        _as_pairs(k), _as_pairs(l), _as_pairs(m), u, v, s, t, got)]
            else:
                name, level, support = item
                rays, cones = inputs.VARIETIES[name]
                where = f"{kind} on {name} at level {level}"
                if kind == "validate_fan" and not all(got.values()):
                    errors.append(f"{where}: known fan rejected: {got}")
                elif kind == "k_membership" and not got["in_K0"]:
                    errors.append(f"{where}: ample level not in K0")
                elif kind == "chamber_fan_search" and (
                    got is None or set(got.max_cones) != {frozenset(c) for c in cones}
                ):
                    errors.append(f"{where}: found {got and got.to_json()}")
                elif kind == "semistable_lp":
                    admissible = oracles.fan_admissible(support, cones, len(rays))
                    if got["semistable"] != admissible or got["stable"] != got["semistable"]:
                        errors.append(f"{where}, support {sorted(support)}: {got}, admissible {admissible}")
        return errors


# -- kn-flow -----------------------------------------------------------------

FLOW_CONFIG = dict(tol=1e-5, max_iter=30_000, step=0.3, crit_rtol=3e-6)


class KnFlow(Workload):
    name = "kn-flow"
    tail_pct = 95
    min_ops = inputs.CRITERION1_CHAINS

    def __init__(self, pool):
        self.cfg = quiver.FlowConfig(**FLOW_CONFIG)
        super().__init__([[("flag_flow", chain) for chain in chains] for chains in pool])

    def build(self, kind, item):
        dims, maps, level = item
        return families.FlagChain(dims, [_cmatrix(f) for f in maps], level)

    def op(self, kind, key):
        chain = self.built[key]

        def call():
            exact, _ = families.flag_stable(chain)
            problem, point, level = chain.to_quiver()
            res = quiver.kempf_ness_flow(problem, point, level, self.cfg)
            final = [res.final_point.maps[f"f{i}"].entries for i in range(1, chain.m + 1)]
            return exact, res.verdict, final

        return call

    def check(self, records):
        errors = []
        tol2 = FLOW_CONFIG["tol"] ** 2
        for _, key, (exact, numeric, final) in records:
            dims, maps, level = self.raw[key]
            want = quiver.Verdict.UNSTABLE if any(oracles.kernel_profile(dims, maps)) else quiver.Verdict.STABLE
            if exact != want:
                errors.append(f"chain {key} dims {dims}: exact {exact}, independent rank says {want}")
            # Borderline is an allowed answer; the traced run counts them
            if numeric not in (exact, quiver.Verdict.BORDERLINE):
                errors.append(f"chain {key} dims {dims}: numeric {numeric} contradicts exact {exact}")
            if numeric == quiver.Verdict.STABLE:
                energy = oracles.chain_moment_energy(dims, level, final)
                if not energy < tol2:
                    errors.append(f"chain {key}: Stable with moment energy {energy:.3g} >= tol^2")
        return errors


WORKLOADS = {cls.name: cls for cls in (PencilSweep, ExactScalar, KnFlow)}
