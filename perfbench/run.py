"""Benchmark for sfpas, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: pencil-sweep, exact-scalar, kn-flow (sfpas in this process,
imported from ./src) and cli-session (``python -m sfpas.cli`` children
with PYTHONPATH=src).  Each run is one client in a closed loop that
repeats whole rounds of operations until S seconds have passed and the
workload's minimum operation count is reached, then checks every output
against the references in ``oracles.py``.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics of the named workload.
--trace 1 wraps the public functions of every layer (see ``spans.py``),
runs each workload for S/4 seconds (at least its minimum operation
count), reports the per-layer metrics, each from the workload that
exercises its layer, and writes the spans to
.perfbench/trace-<workload>-<seed>.json.
See README.md for the metrics and the reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("pencil-sweep", "exact-scalar", "kn-flow", "cli-session")
SETUP_SAMPLES = 5

# (function, reported fields); calls and self time are per operation of
# the workload that exercises the layer (HOME).
SPAN_METRICS = (
    ("polys.bareiss_det_poly", ("calls", "self_ms")),
    ("polys.bareiss_rank_poly", ("calls", "self_ms")),
    ("polys.gcd_many", ("calls", "self_ms")),
    ("families.stromme_check", ("self_ms",)),
    ("families.flag_stable", ("calls", "self_ms")),
    ("families.kernel_projector", ("calls", "self_ms")),
    ("families.stromme_refuter", ("calls", "self_ms")),
    ("linalg.rank_exact", ("calls", "self_ms")),
    ("linalg.rref", ("calls", "self_ms")),
    ("lp.solve_standard", ("calls", "self_ms")),
    ("toric.validate_fan", ("self_ms",)),
    ("toric.k_membership", ("self_ms",)),
    ("toric.semistable_lp", ("self_ms",)),
    ("toric.chamber_fan_search", ("self_ms",)),
    ("quiver.kempf_ness_flow", ("calls", "self_ms")),
    ("vortex.solve_vortex", ("calls", "self_ms")),
    ("vortex.threshold_scan", ("self_ms",)),
    ("exterior.ggw_terms", ("calls", "self_ms")),
    ("cli.main", ("self_ms",)),
)
HOME = {
    "polys": "pencil-sweep", "families.stromme_check": "pencil-sweep",
    "families": "exact-scalar", "linalg": "exact-scalar", "lp": "exact-scalar", "toric": "exact-scalar",
    "quiver": "kn-flow", "vortex": "cli-session", "exterior": "cli-session", "cli": "cli-session",
}


def home_of(name):
    return HOME.get(name) or HOME[name.split(".")[0]]


def build_library(name, pool):
    """The timed set-up of a library workload: import sfpas (with the
    workload module) and build its objects from the raw pool rounds."""
    import library

    return library.WORKLOADS[name](pool)


def make_workload(name, seed, workdir, inprocess=False):
    """A ready workload, set-up untimed (the traced run)."""
    if name == "cli-session":
        from cli_session import CliSession

        wl = CliSession(seed, ROOT, workdir, inprocess=inprocess)
        wl.set_up(warm_up=not inprocess)
        return wl
    import inputs

    return build_library(name, inputs.DRAW[name](seed))


def run_loop(wl, seconds, min_ops):
    """Closed loop over whole rounds until `seconds` have passed and at
    least `min_ops` operations were attempted."""
    records, times, errors = [], [], []
    attempted = failed = rounds = 0
    start = time.perf_counter()
    while True:
        for kind, key, call in wl.round(rounds):
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = call()
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                errors.append(f"{kind}: {type(exc).__name__}: {exc}")
                continue
            times.append(time.perf_counter() - t0)
            records.append((kind, key, out))
        rounds += 1
        if time.perf_counter() - start >= seconds and attempted >= min_ops:
            break
    return {"records": records, "times": times, "errors": errors, "attempted": attempted,
            "failed": failed, "wall": time.perf_counter() - start, "rounds": rounds}


def timed_library_setup(name, seed):
    """Draw the inputs (untimed), then import sfpas and build the
    workload; returns the workload and the seconds the second part took."""
    import inputs

    pool = inputs.DRAW[name](seed)
    t0 = time.perf_counter()
    wl = build_library(name, pool)
    return wl, time.perf_counter() - t0


def timed_setup(args, workdir):
    """Set the workload up SETUP_SAMPLES times and return it with the
    median set-up time.  A library workload imports sfpas only once per
    interpreter, so its other samples come from fresh ``--setup-probe``
    children."""
    if args.workload == "cli-session":
        from cli_session import CliSession

        wl = CliSession(args.seed, ROOT, workdir)
        samples = []
        for _ in range(SETUP_SAMPLES):
            t0 = time.perf_counter()
            wl.set_up()
            samples.append(time.perf_counter() - t0)
        return wl, statistics.median(samples)
    wl, first = timed_library_setup(args.workload, args.seed)
    samples = [first]
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return wl, statistics.median(samples)


def end_to_end(args, workdir):
    wl, setup_s = timed_setup(args, workdir)
    run = run_loop(wl, args.seconds, wl.min_ops)
    if hasattr(wl, "peak_rss_mb"):
        peak = wl.peak_rss_mb(run["records"])
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors = wl.check(run["records"])
    times_ms = [t * 1e3 for t in run["times"]]
    tail = statistics.quantiles(times_ms, n=100, method="inclusive")[wl.tail_pct - 1]
    metrics = {
        "ops_per_s": (len(run["times"]) / run["wall"], "1/s"),
        "op_p50_ms": (statistics.median(times_ms), "ms"),
        "op_tail_ms": (tail, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    sys.stderr.write(
        f"{args.workload}: {run['attempted']} operations in {run['rounds']} rounds, "
        f"{run['wall']:.2f} s; op_tail_ms is p{wl.tail_pct}\n")
    return run, errors, metrics


def _median_child_ms(code, env):
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def traced(args, workdir):
    """One traced slice per workload; per-layer metrics from each layer's home slice."""
    from spans import Tracer

    tracer = Tracer([fn for fn, _ in SPAN_METRICS])
    tracer.install()
    slice_s = args.seconds / len(WORKLOADS)
    per_layer = {}
    attempted = failed = 0
    errors, op_errors = [], []
    summary = {"missing": tracer.missing, "slices": {}}
    spans = {}
    for name in WORKLOADS:
        wl = make_workload(name, args.seed, workdir, inprocess=True)
        tracer.reset()
        tracer.active = True
        cpu0 = time.process_time()
        run = run_loop(wl, slice_s, wl.min_ops)
        cpu = time.process_time() - cpu0
        tracer.active = False
        attempted += run["attempted"]
        failed += run["failed"]
        op_errors += run["errors"]
        errors += wl.check(run["records"])
        ops = max(len(run["times"]), 1)
        totals = tracer.totals()
        for fn, fields in SPAN_METRICS:
            if home_of(fn) != name:
                continue
            calls, _, self_ms = totals.get(fn, (0, 0.0, 0.0))
            if "calls" in fields:
                per_layer[f"{fn}.calls"] = (calls / ops, "calls/op")
            if "self_ms" in fields:
                per_layer[f"{fn}.self_ms"] = (self_ms / ops, "ms/op")
        counts = tracer.counts
        if name == "kn-flow":
            iters = counts["quiver.flow_iterations"]
            flow_ms = totals.get("quiver.kempf_ness_flow", (0, 0.0, 0.0))[1]
            per_layer["quiver.flow_iterations"] = (iters / ops, "iter/op")
            per_layer["quiver.ms_per_iteration"] = (flow_ms / max(iters, 1), "ms")
            per_layer["quiver.unstable_iterations"] = (counts["quiver.unstable_iterations"] / ops, "iter/op")
            per_layer["quiver.borderline_verdicts"] = (counts["quiver.borderline_verdicts"] / ops, "1/op")
        if name == "cli-session":
            steps = counts["vortex.newton_steps"]
            solve_ms = totals.get("vortex.solve_vortex", (0, 0.0, 0.0))[1]
            per_layer["vortex.newton_steps"] = (steps / ops, "steps/op")
            per_layer["vortex.ms_per_newton_step"] = (solve_ms / max(steps, 1), "ms")
            per_layer["vortex.cpu_s_per_wall_s"] = (wl.vortex_cpu / wl.vortex_wall, "s/s")
            out_bytes = sum(len(out[1]) for _, _, out in run["records"]) + sum(
                os.path.getsize(os.path.join(workdir, f)) for f in os.listdir(workdir) if f.startswith("vortex-"))
            per_layer["cli.output_bytes"] = (out_bytes / ops, "B/op")
            env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
            interp = _median_child_ms("pass", env)
            per_layer["cli.interpreter_ms"] = (interp, "ms")
            per_layer["cli.import_ms"] = (_median_child_ms("import sfpas.cli", env) - interp, "ms")
        summary["slices"][name] = {"operations": ops, "rounds": run["rounds"], "wall_s": run["wall"],
                                   "ops_per_s": ops / run["wall"], "cpu_s": cpu}
        spans[name] = tracer.spans
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"summary": summary, "per_layer": per_layer, "spans": spans}, fh)
    for name in tracer.missing:
        sys.stderr.write(f"trace: {name} not found in sfpas; its metrics read 0\n")
    for fn, fields in SPAN_METRICS:  # a layer function that is gone reports zeros
        for field in fields:
            per_layer.setdefault(f"{fn}.{field}", (0.0, "calls/op" if field == "calls" else "ms/op"))
    sys.stderr.write(f"trace: {json.dumps(summary['slices'])}\ntrace: spans in {path}\n")
    return {"attempted": attempted, "failed": failed, "errors": op_errors}, errors, per_layer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sfpas", "__init__.py")):
        sys.stderr.write(f"error: no sfpas source tree at {os.path.join(ROOT, 'src')}; "
                         "run from the root of an sfpas checkout\n")
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.setup_probe:
        print(timed_library_setup(args.workload, args.seed)[1])
        return 0

    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    try:
        if args.trace:
            run, errors, metrics = traced(args, workdir)
        else:
            run, errors, metrics = end_to_end(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for err in run["errors"][:20]:
        sys.stderr.write(f"operation failed: {err}\n")
    for err in errors[:20]:
        sys.stderr.write(f"check failed: {err}\n")
    result = {
        "correct": not errors,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
