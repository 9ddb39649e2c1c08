"""Command-line front end: uniform JSON I/O, explicit seeds, exit-code
discipline (0 ok, 2 bad input, 3 limits/non-convergence, 4 internal).

Every result carries a machine-readable provenance block (tool version,
command path, seed, tolerances) and is emitted with sorted keys so that
reruns with the same seed are byte-identical.  The provenance of a
command that uses numpy also carries the numpy version, since its
seeded streams depend on it.

Each command imports the modules it uses when it runs, so the exact
commands (flag, toric, invariants, and stromme without the refuter)
never load numpy.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

from . import __version__
from .errors import InputError, LimitError

log = logging.getLogger("sfpas")


def _provenance(args, command, tolerances=None):
    return {
        "tool": "sfpas",
        "version": __version__,
        "command": command,
        "seed": getattr(args, "seed", None),
        "tolerances": tolerances or {},
    }


def _numpy_provenance(args, command, tolerances=None):
    """Provenance of a command that uses numpy: adds the numpy version."""
    import numpy as np

    return dict(_provenance(args, command, tolerances), numpy_version=np.__version__)


def _emit(payload, out_path):
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def _toric_inputs(args, need_fan=False):
    from . import toric
    from .linalg import parse_fraction

    obj = _load_json(args.file)
    try:
        tm = toric.ToricMatrix(obj["v"])
    except KeyError as exc:
        raise InputError("toric file needs a 'v' matrix") from exc
    fan = None
    if "max_cones" in obj:
        fan = toric.Fan(obj["max_cones"])
    if need_fan and fan is None:
        raise InputError("this command needs 'max_cones' in the toric file")
    level = None
    if getattr(args, "level_rep", None):
        level = [parse_fraction(x.strip()) for x in args.level_rep.split(",") if x.strip()]
    elif "level_rep" in obj:
        level = [parse_fraction(x) for x in obj["level_rep"]]
    return obj, tm, fan, level


def _require_level(level, r):
    if level is None:
        raise InputError("a level representative is required (--level-rep or file)")
    if len(level) != r:
        raise InputError(f"level representative must have {r} entries")
    return level


# -- quiver -------------------------------------------------------------


def _flow_cfg(args):
    from . import quiver

    return quiver.FlowConfig(
        step=args.step,
        max_iter=args.max_iter,
        tol=args.tol,
        seed=args.seed,
    )


def _quiver_inputs(args):
    from . import quiver

    obj = _load_json(args.file)
    problem, point, level = quiver.problem_from_json(obj)
    if point is None:
        raise InputError("quiver file needs a 'point'")
    if level is None:
        raise InputError("quiver file needs a 'level'")
    return problem, point, level


def _nan_to_null(x):
    """Non-finite floats (nan, +-inf) have no strict-JSON form: null."""
    return x if math.isfinite(x) else None


def cmd_quiver_flow(args):
    from . import quiver

    problem, point, level = _quiver_inputs(args)
    res = quiver.kempf_ness_flow(problem, point, level, _flow_cfg(args))
    payload = {
        "provenance": _numpy_provenance(args, ["quiver", "flow"], {"tol": args.tol}),
        "final_energy": _nan_to_null(res.final_energy),
        "iterations": res.iterations,
        "verdict": res.verdict.value,
        "stop_reason": res.stop_reason.value,
        "converged": res.converged,
        "plateaued": res.plateaued,
        "diverged": res.diverged,
        "weight_bound": _nan_to_null(res.weight_bound),
        "group_cond": _nan_to_null(res.group_cond),
        "stabilizer_sigma_min": _nan_to_null(res.stabilizer_sigma_min),
        "final_point": {k: m.to_json() for k, m in res.final_point.maps.items()},
    }
    _emit(payload, args.out)
    return 0


def cmd_quiver_verdict(args):
    from . import quiver

    problem, point, level = _quiver_inputs(args)
    res = quiver.kempf_ness_flow(problem, point, level, _flow_cfg(args))
    payload = {
        "provenance": _numpy_provenance(args, ["quiver", "verdict"], {"tol": args.tol}),
        "verdict": res.verdict.value,
        "stop_reason": res.stop_reason.value,
        "iterations": res.iterations,
        "final_energy": _nan_to_null(res.final_energy),
    }
    _emit(payload, args.out)
    return 0


def cmd_quiver_hamiltonian(args):
    import numpy as np

    from . import quiver
    from .linalg import CMatrix, HermitianTuple

    obj = _load_json(args.file)
    problem, point, level = quiver.problem_from_json(obj)
    if point is None or level is None:
        raise InputError("quiver file needs 'point' and 'level'")
    rng = np.random.default_rng(args.seed)
    if isinstance(problem.symmetry, quiver.TorusKernel):
        tm = problem.symmetry.matrix
        coeffs = rng.standard_normal(len(tm.coker)) if tm.coker else np.zeros(0)
        xi = [
            float(sum(c * float(vec[j]) for c, vec in zip(coeffs, tm.coker)))
            for j in range(tm.r)
        ]
    else:
        blocks = []
        for v in problem.s_order:
            d = problem.dims.vertex_dim[v]
            raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            blocks.append(CMatrix.from_numpy((raw + raw.conj().T) / 2.0))
        xi = HermitianTuple(blocks)
    w = {}
    for a in problem.quiver.arrows:
        shape = problem.dims.map_shape(a)
        w[a.name] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    err = quiver.hamiltonian_check(problem, point, level, xi, w, h=args.h)
    payload = {
        "provenance": _numpy_provenance(args, ["quiver", "hamiltonian-check"], {"h": args.h}),
        "relative_error": err,
    }
    _emit(payload, args.out)
    return 0


def cmd_quiver_properness(args):
    from . import quiver

    obj = _load_json(args.file)
    problem, _, _ = quiver.problem_from_json(obj)
    cfg = _flow_cfg(args)
    witness = quiver.properness_refuter(problem, cfg, trials=args.trials)
    payload = {
        "provenance": _numpy_provenance(
            args, ["quiver", "properness"], {"tol": args.tol, "trials": args.trials}
        ),
        "witness": None
        if witness is None
        else {k: m.to_json() for k, m in witness.maps.items()},
        "proper_refuted": witness is not None,
    }
    _emit(payload, args.out)
    return 0


# -- flag ----------------------------------------------------------------


def cmd_flag_check(args):
    from . import families
    from .linalg import fraction_to_str

    chain = families.FlagChain.from_json(_load_json(args.file))
    verdict, witness = families.flag_stable(chain)
    payload = {
        "provenance": _provenance(args, ["flag", "check"]),
        "verdict": verdict.value,
        "witness": None
        if witness is None
        else {
            "xi": witness.xi.to_json(),
            "pairing": fraction_to_str(witness.pairing),
            "vertex": witness.vertex,
            "kernel_dim": witness.kernel_dim,
        },
    }
    _emit(payload, args.out)
    return 0


# -- stromme -------------------------------------------------------------


def _triple_from_file(args):
    from . import families

    return families.StrommeTriple.from_json(_load_json(args.file))


def _refute(triple, args):
    from . import families
    from .linalg import parse_fraction

    witness = families.stromme_refuter(
        triple, parse_fraction(args.s), parse_fraction(args.t),
        seed=args.seed, trials=args.trials,
    )
    if witness is None:
        return None
    u1, v1, clause = witness
    return {"U1": u1.to_json(), "V1": v1.to_json(), "clause": clause}


def cmd_stromme_check(args):
    from . import families

    triple = _triple_from_file(args)
    result = families.stromme_check(triple)
    payload = {
        "cond1": result["cond1"],
        "cond2": result["cond2"],
        "is_triple": result["is_triple"],
    }
    if args.refute:  # the refuter's seeded stream comes from numpy
        payload["refutation"] = _refute(triple, args)
        payload["provenance"] = _numpy_provenance(args, ["stromme", "check"])
    else:
        payload["provenance"] = _provenance(args, ["stromme", "check"])
    _emit(payload, args.out)
    return 0


def cmd_stromme_refute(args):
    triple = _triple_from_file(args)
    payload = {
        "refutation": _refute(triple, args),
        "provenance": _numpy_provenance(
            args, ["stromme", "refute"], {"trials": args.trials}
        ),
    }
    _emit(payload, args.out)
    return 0


def cmd_stromme_quot(args):
    from . import families

    triple = _triple_from_file(args)
    inv = families.quot_invariants(triple)
    payload = {
        "provenance": _provenance(args, ["stromme", "quot"]),
        "rank": inv["rank"],
        "degree": inv["degree"],
    }
    _emit(payload, args.out)
    return 0


# -- toric ---------------------------------------------------------------


def cmd_toric_validate(args):
    from . import toric
    from .linalg import fraction_to_str

    _, tm, fan, _ = _toric_inputs(args, need_fan=True)
    p1_ok, p1_col = toric.check_P1(tm)
    p2_ok, p2_cert = toric.check_P2(tm)
    flags = toric.validate_fan(fan, tm)
    payload = {
        "provenance": _provenance(args, ["toric", "validate"]),
        "P1": {"ok": p1_ok, "offending_column": p1_col},
        "P2": {
            "ok": p2_ok,
            "certificate": None if p2_cert is None else [fraction_to_str(x) for x in p2_cert],
        },
        "fan": flags,
    }
    _emit(payload, args.out)
    return 0


def cmd_toric_membership(args):
    from . import toric

    _, tm, fan, level = _toric_inputs(args, need_fan=True)
    level = _require_level(level, tm.r)
    result = toric.k_membership(fan, tm, level)
    payload = {
        "provenance": _provenance(args, ["toric", "membership"]),
        "in_K": result["in_K"],
        "in_K0": result["in_K0"],
    }
    _emit(payload, args.out)
    return 0


def cmd_toric_stability(args):
    from . import toric

    _, tm, fan, level = _toric_inputs(args)
    level = _require_level(level, tm.r)
    support = toric.SupportPattern(
        int(x) for x in args.support.split(",") if x.strip()
    ) if args.support else toric.SupportPattern(())
    result = toric.semistable_lp(support, tm, level)
    payload = {
        "provenance": _provenance(args, ["toric", "stability"]),
        "support": sorted(support.support),
        "semistable": result["semistable"],
        "stable": result["stable"],
    }
    if fan is not None:
        payload["in_U"] = toric.u_membership(support, fan, tm.r)
    _emit(payload, args.out)
    return 0


def cmd_toric_chamber(args):
    from . import toric

    _, tm, _, level = _toric_inputs(args)
    level = _require_level(level, tm.r)
    fan, reason = toric.chamber_search(tm, level)
    payload = {
        "provenance": _provenance(args, ["toric", "chamber"]),
        "fan": None if fan is None else fan.to_json(),
    }
    if fan is None:
        payload["reason"] = reason
    _emit(payload, args.out)
    return 0 if fan is not None else 3


def cmd_toric_nonempty(args):
    from . import toric

    _, tm, _, level = _toric_inputs(args)
    level = _require_level(level, tm.r)
    payload = {
        "provenance": _provenance(args, ["toric", "nonempty"]),
        "nonempty": toric.quotient_nonempty(tm, level),
    }
    _emit(payload, args.out)
    return 0


# -- invariants ------------------------------------------------------------


def _parse_class(text, g):
    from . import exterior

    if text == "one":
        return exterior.ExteriorClass.one(g)
    if text == "top":
        return exterior.ExteriorClass(g, {tuple(range(2 * g)): 1})
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"--l must be 'one', 'top', or exterior-class JSON: {exc}") from exc
    return exterior.ExteriorClass.from_json(obj)


def cmd_invariants_ggw(args):
    from . import exterior

    problem = exterior.AbelianProblem(
        g=args.g, r0=args.r0, d=args.d, d0=args.d0, t_side=args.side
    )
    cls = _parse_class(args.l, args.g)
    value, terms = exterior.ggw_terms(problem, cls)
    payload = {
        "provenance": _provenance(args, ["invariants", "ggw"]),
        "value": value,
        "expected_dimension": exterior.expected_dimension(1, args.r0, args.d, args.d0, args.g),
        "terms": [{"power": i, "contribution": c} for i, c in terms],
    }
    _emit(payload, args.out)
    return 0


def cmd_invariants_quot_count(args):
    from . import exterior

    payload = {
        "provenance": _provenance(args, ["invariants", "quot-count"]),
        "count": exterior.quot_count(args.g, args.r0),
    }
    _emit(payload, args.out)
    return 0


def cmd_invariants_expected_dim(args):
    from . import exterior

    payload = {
        "provenance": _provenance(args, ["invariants", "expected-dim"]),
        "value": exterior.expected_dimension(args.r, args.r0, args.d, args.d0, args.g),
    }
    _emit(payload, args.out)
    return 0


def cmd_invariants_degrees(args):
    from . import exterior

    payload = {
        "provenance": _provenance(args, ["invariants", "degrees"]),
        "degree": exterior.algebra_degrees(args.r, args.kind, args.index),
    }
    _emit(payload, args.out)
    return 0


# -- vortex ----------------------------------------------------------------


def _parse_centers(text):
    centers = []
    if not text:
        return centers
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        mult = 1
        if ":" in chunk:
            chunk, mult_text = chunk.rsplit(":", 1)
            mult = int(mult_text)
        x, y = (float(v) for v in chunk.split(","))
        centers.append((x, y, mult))
    return centers


def _vortex_problem(args):
    from . import vortex

    grid = vortex.TorusGrid(args.n, args.length)
    return vortex.VortexProblem(
        grid=grid,
        d=args.d,
        centers=tuple(_parse_centers(args.centers)),
        t=args.t,
        sigma=args.sigma,
    )


def cmd_vortex_solve(args):
    from . import vortex

    problem = _vortex_problem(args)
    cfg = vortex.SolverConfig(tol=args.tol, max_newton=args.max_newton)
    fld = vortex.solve_vortex(problem, cfg)
    payload = {
        "provenance": _numpy_provenance(args, ["vortex", "solve"], {"tol": args.tol}),
        "converged": fld.converged,
        "residual_sup": fld.residual_sup,
        "tau0": fld.tau0,
        "newton_iterations": fld.newton_iterations,
        "cg_iterations": fld.cg_iterations,
        "backtracks": fld.backtracks,
        "quantization": vortex.quantization_check(fld),
        "u": fld.u.tolist(),
    }
    _emit(payload, args.out)
    return 0


def cmd_vortex_scan(args):
    from . import vortex

    grid = vortex.TorusGrid(args.n, args.length)
    cfg = vortex.SolverConfig(tol=args.tol, max_newton=args.max_newton)
    if args.steps < 2:
        raise InputError("--steps must be at least 2")
    ts = [
        args.t_from + (args.t_to - args.t_from) * i / (args.steps - 1)
        for i in range(args.steps)
    ]
    rows = vortex.threshold_scan(
        grid, args.d, _parse_centers(args.centers), ts, cfg, workers=args.workers
    )
    lines = ["t,converged,residual,iterations"]
    for t, ok, resid, iters in rows:
        lines.append(f"{t!r},{int(ok)},{resid!r},{iters}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# -- parser ----------------------------------------------------------------


def _add_common(p, tol=1e-8):
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.add_argument("--tol", type=float, default=tol)


def build_parser():
    parser = argparse.ArgumentParser(prog="sfpas")
    parser.add_argument("--version", action="version", version=f"sfpas {__version__}")
    sub = parser.add_subparsers(dest="group", required=True)

    q = sub.add_parser("quiver").add_subparsers(dest="cmd", required=True)
    for name, fn in (("flow", cmd_quiver_flow), ("verdict", cmd_quiver_verdict)):
        p = q.add_parser(name)
        p.add_argument("file")
        _add_common(p)
        p.add_argument("--max-iter", dest="max_iter", type=int, default=100_000)
        p.add_argument("--step", type=float, default=0.1)
        p.set_defaults(func=fn)
    p = q.add_parser("hamiltonian-check")
    p.add_argument("file")
    _add_common(p)
    p.add_argument("--h", type=float, default=1e-5)
    p.set_defaults(func=cmd_quiver_hamiltonian)
    p = q.add_parser("properness")
    p.add_argument("file")
    _add_common(p)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=100_000)
    p.add_argument("--step", type=float, default=0.1)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=cmd_quiver_properness)

    f = sub.add_parser("flag").add_subparsers(dest="cmd", required=True)
    p = f.add_parser("check")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_flag_check)

    s = sub.add_parser("stromme").add_subparsers(dest="cmd", required=True)
    p = s.add_parser("check")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--s", default="101/100")
    p.add_argument("--t", default="1")
    p.add_argument("--refute", action="store_true")
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=cmd_stromme_check)
    p = s.add_parser("refute")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--s", required=True)
    p.add_argument("--t", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=cmd_stromme_refute)
    p = s.add_parser("quot")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_stromme_quot)

    t = sub.add_parser("toric").add_subparsers(dest="cmd", required=True)
    for name, fn, needs_support in (
        ("validate", cmd_toric_validate, False),
        ("membership", cmd_toric_membership, False),
        ("stability", cmd_toric_stability, True),
        ("chamber", cmd_toric_chamber, False),
        ("nonempty", cmd_toric_nonempty, False),
    ):
        p = t.add_parser(name)
        p.add_argument("file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)
        p.add_argument("--level-rep", dest="level_rep", default=None)
        if needs_support:
            p.add_argument("--support", default="")
        p.set_defaults(func=fn)

    inv = sub.add_parser("invariants").add_subparsers(dest="cmd", required=True)
    p = inv.add_parser("ggw")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--r0", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--d0", type=int, required=True)
    p.add_argument("--side", choices=["above", "below"], required=True)
    p.add_argument("--l", default="one")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_invariants_ggw)
    p = inv.add_parser("quot-count")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--r0", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_invariants_quot_count)
    p = inv.add_parser("expected-dim")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--r0", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--d0", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_invariants_expected_dim)
    p = inv.add_parser("degrees")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--kind", choices=["u", "v", "h1"], required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_invariants_degrees)

    v = sub.add_parser("vortex").add_subparsers(dest="cmd", required=True)
    p = v.add_parser("solve")
    p.add_argument("--N", dest="n", type=int, default=64)
    p.add_argument("--L", dest="length", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--centers", default="")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--max-newton", dest="max_newton", type=int, default=60)
    _add_common(p)
    p.set_defaults(func=cmd_vortex_solve)
    p = v.add_parser("scan")
    p.add_argument("--N", dest="n", type=int, default=64)
    p.add_argument("--L", dest="length", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--centers", default="")
    p.add_argument("--t-from", dest="t_from", type=float, required=True)
    p.add_argument("--t-to", dest="t_to", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--max-newton", dest="max_newton", type=int, default=60)
    p.add_argument("--workers", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=cmd_vortex_scan)

    return parser


def main(argv=None) -> int:
    level_name = os.environ.get("SFPAS_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level_name, logging.WARNING))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except LimitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        log.debug("internal error", exc_info=True)
        sys.stderr.write(f"internal error: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
