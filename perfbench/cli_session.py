"""The cli-session workload: one ``python -m sfpas.cli`` process per operation.

The inputs are drawn from the seed when the session is constructed;
the set-up proper writes them as input files into a work directory and
runs one untimed warm-up command.  A round is one pass of a fixed script that
covers every command group.  Each operation is timed from spawn to exit;
the child's peak resident set size comes from ``os.wait4``.  With
``inprocess=True`` (the traced run) the same script goes through
``sfpas.cli.main`` inside this process instead, so that the wrapped
layers see the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import inputs
import oracles

LENGTH = 2.0 * math.pi  # vortex solve: torus side, one vortex
SCAN_LENGTH = 10.0  # vortex scan: torus side, two vortices
F1_RAYS, F1_CONES = inputs.VARIETIES["F1"]


def _as_json(mat):
    return [[str(x) for x in row] for row in mat]


class CliSession:
    name = "cli-session"
    tail_pct = 75
    min_ops = 40

    def __init__(self, seed, root, workdir, inprocess=False):
        self.rng = random.Random(f"cli-session/{seed}")
        self.workdir = workdir
        self.inprocess = inprocess
        self.vortex_cpu = self.vortex_wall = 0.0  # in-process vortex commands only
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.files = {}  # input file name -> JSON payload
        self._draw_inputs()

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def set_up(self, warm_up=True):
        """Write the input files and, unless told not to, run the warm-up command."""
        os.makedirs(self.workdir, exist_ok=True)
        for name, obj in self.files.items():
            with open(self._path(name), "w") as fh:
                json.dump(obj, fh)
        if warm_up:
            code, _, _ = self.run_child(["invariants", "expected-dim", "--r", "1", "--r0", "1",
                                         "--d", "0", "--d0", "0", "--g", "0"])
            if code != 0:
                raise RuntimeError(f"warm-up command exited {code}")

    def _draw_inputs(self):
        rng = self.rng
        self.flow_point = inputs.rational_matrix(rng, 3, 2)
        self.files["grassmann.json"] = {
            "quiver": {"vertices": ["v1", "v2"], "arrows": [{"id": "f", "src": "v1", "dst": "v2"}]},
            "dims": {"v1": 2, "v2": 3},
            "symmetry": {"type": "vertex_product", "vertices": ["v1"]},
            "point": {"f": _as_json(self.flow_point)},
            "level": {"values": {"v1": "1/2"}},
        }
        z = [str(Fraction(rng.randint(1, 6), rng.randint(1, 3))) for _ in range(2)]
        self.files["torus.json"] = {
            "quiver": {"vertices": ["c", "o1", "o2"], "arrows": [
                {"id": "z1", "src": "o1", "dst": "c"}, {"id": "z2", "src": "o2", "dst": "c"}]},
            "dims": {"c": 1, "o1": 1, "o2": 1},
            "symmetry": {"type": "torus_kernel", "matrix": [[1, -1]]},
            "point": {"z1": [[z[0]]], "z2": [[z[1]]]},
            "level": {"vector": ["1", "1"]},
        }
        self.flag_map = inputs.rational_matrix(rng, 2, 3)
        level = Fraction(rng.choice((1, 2)), rng.choice((1, 2)))
        self.files["flag.json"] = {"dims": [3, 2], "maps": [_as_json(self.flag_map)], "level": [str(level)]}
        while True:  # a (1, 2, 2) triple that the pencil oracle accepts, so `stromme quot` succeeds
            k, l = ([[rng.choice((-1, 0, 1))] for _ in range(2)] for _ in range(2))
            m = [[rng.choice((-1, 0, 1)) for _ in range(2)] for _ in range(2)]
            if oracles.pencil_oracle(k, l, m, 1, 2, 2) == (True, True):
                break
        self.triple = (k, l, m, 1, 2, 2)
        self.files["triple.json"] = {"u": 1, "v": 2, "w": 2, "k": _as_json(k), "l": _as_json(l), "m": _as_json(m)}
        level = inputs.ample_level(rng, F1_RAYS, F1_CONES)
        self.support = sorted(rng.sample(range(1, 5), 2))
        self.files["f1.json"] = {
            "v": [[ray[i] for ray in F1_RAYS] for i in range(2)],
            "max_cones": [sorted(c) for c in F1_CONES],
            "level_rep": [str(x) for x in level],
        }
        self.genus, self.r0 = rng.randint(1, 4), rng.randint(2, 4)
        self.center = (round(rng.uniform(1.0, 5.0), 3), round(rng.uniform(1.0, 5.0), 3))
        self.t_star = 2.0 * math.pi / LENGTH ** 2
        self.scan_centers = ((round(rng.uniform(1.0, 4.0), 3), round(rng.uniform(1.0, 4.0), 3)),
                             (round(rng.uniform(6.0, 9.0), 3), round(rng.uniform(6.0, 9.0), 3)))
        self.flow_seed = rng.randrange(1000)

    def script(self, index):
        """One pass: (label, argv, expected exit code)."""
        p = self._path
        g, r0 = str(self.genus), str(self.r0)
        centers = f"{self.center[0]},{self.center[1]}"
        scan_centers = ";".join(f"{x},{y}" for x, y in self.scan_centers)
        flow = ["quiver", "flow", p("grassmann.json"), "--seed", str(self.flow_seed),
                "--step", "0.3", "--tol", "1e-6"]
        return [
            ("quiver-flow", flow, 0),
            ("quiver-verdict", ["quiver", "verdict", p("torus.json"), "--step", "0.3", "--tol", "1e-6"], 0),
            ("quiver-hamiltonian", ["quiver", "hamiltonian-check", p("grassmann.json"), "--seed", "7"], 0),
            ("quiver-properness", ["quiver", "properness", p("torus.json"), "--seed", "5", "--trials", "3"], 0),
            ("flag-check", ["flag", "check", p("flag.json")], 0),
            ("stromme-check", ["stromme", "check", p("triple.json"), "--refute", "--trials", "20"], 0),
            ("stromme-refute", ["stromme", "refute", p("triple.json"), "--s", "2", "--t", "1"], 0),
            ("stromme-quot", ["stromme", "quot", p("triple.json")], 0),
            ("toric-validate", ["toric", "validate", p("f1.json")], 0),
            ("toric-membership", ["toric", "membership", p("f1.json")], 0),
            ("toric-stability", ["toric", "stability", p("f1.json"),
                                 "--support", ",".join(map(str, self.support))], 0),
            ("toric-chamber", ["toric", "chamber", p("f1.json")], 0),
            ("toric-nonempty", ["toric", "nonempty", p("f1.json")], 0),
            ("invariants-ggw", ["invariants", "ggw", "--g", g, "--r0", r0, "--d", "0", "--d0", "1",
                                "--side", "above"], 0),
            ("invariants-quot-count", ["invariants", "quot-count", "--g", g, "--r0", r0], 0),
            ("invariants-expected-dim", ["invariants", "expected-dim", "--r", "2", "--r0", r0,
                                         "--d", "1", "--d0", "3", "--g", g], 0),
            ("invariants-degrees", ["invariants", "degrees", "--r", "3", "--kind", "v", "--index", "2"], 0),
            ("vortex-solve", ["vortex", "solve", "--N", "256", "--L", repr(LENGTH), "--d", "-1",
                              "--centers", centers, "--t", repr(self.t_star + 0.5),
                              "--out", p(f"vortex-{index}.json")], 0),
            ("vortex-below", ["vortex", "solve", "--N", "256", "--L", repr(LENGTH), "--d", "-1",
                              "--centers", centers, "--t", repr(self.t_star - 0.1)], 3),
            ("vortex-scan", ["vortex", "scan", "--N", "128", "--L", repr(SCAN_LENGTH), "--d", "-2",
                             "--centers", scan_centers, "--t-from", "0", "--t-to", "1.5",
                             "--steps", "8", "--workers", "2"], 0),
            ("quiver-flow-repeat", flow, 0),
        ]

    def round(self, index):
        return [(label, (index, argv, code), self._op(argv)) for label, argv, code in self.script(index)]

    def _op(self, argv):
        return (lambda: self.run_inprocess(argv)) if self.inprocess else (lambda: self.run_child(argv))

    def run_child(self, argv):
        """Run one command as a child process; (exit code, stdout, peak RSS in KiB)."""
        out_path = self._path("stdout.txt")
        with open(out_path, "wb") as out, open(self._path("stderr.txt"), "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "sfpas.cli"] + argv,
                                    stdout=out, stderr=err, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            return proc.returncode, fh.read(), usage.ru_maxrss

    def run_inprocess(self, argv):
        from sfpas import cli

        buf = io.StringIO()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if argv[0] == "vortex":
            self.vortex_cpu += time.process_time() - cpu0
            self.vortex_wall += time.perf_counter() - wall0
        return code, buf.getvalue().encode(), 0

    def peak_rss_mb(self, records):
        return max(out[2] for _, _, out in records) / 1024.0

    def check(self, records):
        errors = []
        flows = {}
        for label, (index, argv, want), (code, stdout, _) in records:
            where = f"pass {index} {label}"
            if code != want:
                errors.append(f"{where}: exit {code}, expected {want}")
                continue
            if code != 0:
                continue
            try:
                errors += [f"{where}: {e}" for e in self._check_output(label, index, argv, stdout)]
            except (ValueError, KeyError, TypeError) as exc:
                errors.append(f"{where}: unreadable output ({exc!r})")
            if label.startswith("quiver-flow"):
                flows.setdefault(index, []).append(stdout)
        for index, outs in flows.items():
            if len(outs) == 2 and outs[0] != outs[1]:
                errors.append(f"pass {index}: repeated quiver flow differs")
        return errors

    def _check_output(self, label, index, argv, stdout):
        if label == "vortex-scan":
            return self._check_scan(stdout.decode())
        payload = json.loads(stdout) if stdout else None
        if label == "invariants-quot-count" and payload["count"] != self.r0 ** self.genus:
            return [f"count {payload['count']} != r0^g = {self.r0 ** self.genus}"]
        if label == "flag-check":
            kdim = oracles.kernel_profile((3, 2), [self.flag_map])[0]
            if payload["verdict"] != ("Unstable" if kdim else "Stable"):
                return [f"verdict {payload['verdict']} with dim ker {kdim}"]
        if label == "stromme-check":
            want = oracles.pencil_oracle(*self.triple)
            if (payload["cond1"], payload["cond2"]) != want:
                return [f"conditions {payload['cond1']}, {payload['cond2']} != oracle {want}"]
        if label == "toric-validate" and not all(payload["fan"].values()):
            return [f"known fan rejected: {payload['fan']}"]
        if label == "toric-membership" and not payload["in_K0"]:
            return ["ample level not in K0"]
        if label == "toric-stability":
            admissible = oracles.fan_admissible(self.support, F1_CONES, 4)
            if payload["semistable"] != admissible or payload["stable"] != admissible:
                return [f"{payload}, admissible {admissible}"]
        if label == "toric-chamber":
            got = {frozenset(c) for c in payload["fan"]["max_cones"]}
            if got != {frozenset(c) for c in F1_CONES}:
                return [f"chamber fan {payload['fan']}"]
        if label == "toric-nonempty" and not payload["nonempty"]:
            return ["ample level reported empty"]
        if label == "vortex-solve":
            return self._check_solve(index)
        return []

    def _check_solve(self, index):
        with open(self._path(f"vortex-{index}.json")) as fh:
            payload = json.load(fh)
        if not payload["converged"]:
            return ["solve did not converge"]
        resid, quant = oracles.vortex_residuals(
            payload["u"], LENGTH, -1, [(self.center[0], self.center[1], 1)], self.t_star + 0.5
        )
        tol = 10 * payload["provenance"]["tolerances"]["tol"]
        if not (resid < tol and quant < tol):
            return [f"recomputed residual {resid:.3g}, quantization {quant:.3g} (tolerance {tol:g})"]
        return []

    def _check_scan(self, text):
        lines = text.strip().splitlines()
        t_star = 2.0 * math.pi * 2 / SCAN_LENGTH ** 2
        errors = []
        if lines[0] != "t,converged,residual,iterations" or len(lines) != 9:
            return [f"scan output has {len(lines)} lines"]
        for line in lines[1:]:
            t, ok, _, _ = line.split(",")
            if (ok == "1") != (float(t) > t_star):
                errors.append(f"scan row t={t} converged={ok}, threshold {t_star:.4f}")
        return errors
