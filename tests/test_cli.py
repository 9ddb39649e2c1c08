import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

from sfpas.cli import main

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from chains import random_chain  # noqa: E402
from oracles import ext_theta_power, ext_top, ext_wedge  # noqa: E402

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

PROVENANCE_SCHEMA = {
    "type": "object",
    "required": ["tool", "version", "command", "tolerances"],
    "properties": {
        "tool": {"const": "sfpas"},
        "version": {"type": "string"},
        "command": {"type": "array", "items": {"type": "string"}},
        "seed": {"type": ["integer", "null"]},
        "tolerances": {"type": "object"},
    },
}

RESULT_SCHEMAS = {
    ("invariants", "quot-count"): {
        "type": "object",
        "required": ["count", "provenance"],
        "properties": {"count": {"type": "integer"}, "provenance": PROVENANCE_SCHEMA},
    },
    ("toric", "validate"): {
        "type": "object",
        "required": ["P1", "P2", "fan", "provenance"],
        "properties": {
            "P1": {"type": "object", "required": ["ok"]},
            "P2": {"type": "object", "required": ["ok"]},
            "fan": {
                "type": "object",
                "required": ["simplicial", "is_fan", "complete"],
            },
            "provenance": PROVENANCE_SCHEMA,
        },
    },
    ("flag", "check"): {
        "type": "object",
        "required": ["verdict", "witness", "provenance"],
        "properties": {"verdict": {"type": "string"}, "provenance": PROVENANCE_SCHEMA},
    },
}


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_quot_count_stdout(capsys):
    code, out, _ = run_cli(["invariants", "quot-count", "--g", "2", "--r0", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4
    if jsonschema:
        jsonschema.validate(payload, RESULT_SCHEMAS[("invariants", "quot-count")])


def test_expected_dim_and_degrees(capsys):
    code, out, _ = run_cli(
        ["invariants", "expected-dim", "--r", "2", "--r0", "3", "--d", "1", "--d0", "2", "--g", "2"],
        capsys,
    )
    assert code == 0 and json.loads(out)["value"] == -1
    code, out, _ = run_cli(
        ["invariants", "degrees", "--r", "2", "--kind", "u", "--index", "2"], capsys
    )
    assert code == 0 and json.loads(out)["degree"] == 4


def test_ggw_top_and_below(capsys):
    code, out, _ = run_cli(
        ["invariants", "ggw", "--g", "1", "--r0", "2", "--d", "1", "--d0", "2", "--side", "above"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 2
    assert payload["terms"] == [{"contribution": 2, "power": 1}]
    code, out, _ = run_cli(
        ["invariants", "ggw", "--g", "1", "--r0", "2", "--d", "1", "--d0", "2", "--side", "below"],
        capsys,
    )
    assert json.loads(out)["value"] == 0


def test_missing_file_exit_2(capsys, tmp_path):
    code, _, err = run_cli(["flag", "check", str(tmp_path / "missing.json")], capsys)
    assert code == 2
    assert "error" in err


def test_malformed_json_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run_cli(["flag", "check", str(bad)], capsys)
    assert code == 2


def test_flag_check_files(capsys, data_dir):
    code, out, _ = run_cli(["flag", "check", str(data_dir / "flag_stable.json")], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "Stable" and payload["witness"] is None
    if jsonschema:
        jsonschema.validate(payload, RESULT_SCHEMAS[("flag", "check")])

    code, out, _ = run_cli(["flag", "check", str(data_dir / "flag_unstable.json")], capsys)
    payload = json.loads(out)
    assert payload["verdict"] == "Unstable"
    assert payload["witness"]["pairing"] == "-1"


def test_stromme_cli(capsys, data_dir):
    path = str(data_dir / "stromme_triple.json")
    code, out, _ = run_cli(["stromme", "check", path], capsys)
    assert code == 0
    assert json.loads(out)["is_triple"] is True
    code, out, _ = run_cli(["stromme", "quot", path], capsys)
    payload = json.loads(out)
    assert payload["rank"] == 1 and payload["degree"] == 1
    code, out, _ = run_cli(
        ["stromme", "refute", path, "--s", "2", "--t", "1", "--trials", "20"], capsys
    )
    assert json.loads(out)["refutation"] is None


def test_toric_cli(capsys, data_dir):
    path = str(data_dir / "p1.json")
    code, out, _ = run_cli(["toric", "validate", path], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["P1"]["ok"] and payload["P2"]["ok"]
    assert payload["fan"] == {"simplicial": True, "is_fan": True, "complete": True}
    if jsonschema:
        jsonschema.validate(payload, RESULT_SCHEMAS[("toric", "validate")])

    code, out, _ = run_cli(["toric", "stability", path, "--support", "1,2"], capsys)
    payload = json.loads(out)
    assert payload["semistable"] and payload["stable"] and payload["in_U"]

    code, out, _ = run_cli(["toric", "membership", path], capsys)
    assert json.loads(out)["in_K0"] is True

    code, out, _ = run_cli(["toric", "nonempty", path, "--level-rep=-1,0"], capsys)
    assert json.loads(out)["nonempty"] is False

    code, out, _ = run_cli(["toric", "chamber", path], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["fan"] == {"max_cones": [[1], [2]]} and "reason" not in payload
    code, out, _ = run_cli(["toric", "chamber", path, "--level-rep=-1,-1"], capsys)
    payload = json.loads(out)
    assert code == 3 and payload["fan"] is None
    assert payload["reason"] == "no independent cone has a semistable complement at the level"


def test_quiver_cli(capsys, data_dir):
    path = str(data_dir / "quiver_grassmann.json")
    code, out, _ = run_cli(["quiver", "flow", path, "--tol", "1e-6"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "Stable" and payload["converged"]
    assert payload["stop_reason"] == "converged" and payload["diverged"] is False
    assert payload["weight_bound"] is None and payload["group_cond"] == 1.0
    assert payload["stabilizer_sigma_min"] > 0
    code, out, _ = run_cli(["quiver", "verdict", path, "--tol", "1e-6"], capsys)
    payload = json.loads(out)
    assert payload["verdict"] == "Stable" and payload["stop_reason"] == "converged"
    assert payload["iterations"] == 0 and payload["final_energy"] == 0.0
    code, out, _ = run_cli(["quiver", "hamiltonian-check", path, "--seed", "3"], capsys)
    assert json.loads(out)["relative_error"] < 1e-5
    code, out, _ = run_cli(["quiver", "properness", path, "--trials", "3"], capsys)
    assert json.loads(out)["witness"] is None


def test_quiver_cli_unstable_reports_weight_bound(capsys, tmp_path):
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps({
        "quiver": {"vertices": ["v1", "v2"], "arrows": [{"id": "f", "src": "v1", "dst": "v2"}]},
        "dims": {"v1": 2, "v2": 2},
        "symmetry": {"type": "vertex_product", "vertices": ["v1"]},
        "point": {"f": [["1", "0"], ["0", "0"]]},
        "level": {"values": {"v1": "1"}},
    }))
    code, out, _ = run_cli(["quiver", "flow", str(path)], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["verdict"] == "Unstable"
    assert payload["stop_reason"] == "weight_bound" and not payload["plateaued"]
    assert abs(payload["weight_bound"] - 1.0) < 1e-6  # |mu| of the optimal destabilizer
    assert payload["stabilizer_sigma_min"] is None
    code, out, _ = run_cli(["quiver", "verdict", str(path)], capsys)
    payload = json.loads(out)
    assert payload["verdict"] == "Unstable" and payload["stop_reason"] == "weight_bound"
    assert payload["iterations"] > 0 and payload["final_energy"] >= 1.0


def test_vortex_cli_solve_and_infeasible(capsys, tmp_path):
    out_path = tmp_path / "field.json"
    code, _, _ = run_cli(
        [
            "vortex", "solve", "--N", "64", "--L", "6.283185307179586",
            "--d", "-1", "--centers", "3.14,3.14", "--t", "0.7",
            "--tol", "1e-8", "--out", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["converged"] and payload["residual_sup"] < 1e-8
    assert len(payload["u"]) == 64

    code, _, err = run_cli(
        ["vortex", "solve", "--N", "64", "--L", "6.283185307179586", "--d", "-1",
         "--centers", "3.14,3.14", "--t", "0.0"],
        capsys,
    )
    assert code == 3
    assert "tau0" in err


def test_vortex_scan_csv(capsys):
    code, out, _ = run_cli(
        ["vortex", "scan", "--N", "64", "--L", "6.283185307179586", "--d", "-1",
         "--centers", "3.14,3.14", "--t-from", "0.05", "--t-to", "0.45", "--steps", "3"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,converged,residual,iterations"
    assert len(lines) == 4
    assert lines[1].split(",")[1] == "0"  # below threshold
    assert lines[3].split(",")[1] == "1"


def test_unknown_flag_rejected(capsys):
    code, _, _ = run_cli(["invariants", "quot-count", "--g", "2", "--r0", "2", "--bogus"], capsys)
    assert code == 2


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "sfpas.cli", "invariants", "quot-count", "--g", "1", "--r0", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 3


def test_repeat_invocations_byte_identical(capsys, data_dir):
    args = ["quiver", "flow", str(data_dir / "quiver_grassmann.json"), "--seed", "7"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_numpy_version_only_in_numpy_provenance(capsys, data_dir):
    import numpy

    grassmann = str(data_dir / "quiver_grassmann.json")
    triple = str(data_dir / "stromme_triple.json")
    p1 = str(data_dir / "p1.json")
    numpy_commands = [
        ["quiver", "flow", grassmann, "--tol", "1e-6"],
        ["quiver", "verdict", grassmann, "--tol", "1e-6"],
        ["quiver", "hamiltonian-check", grassmann],
        ["quiver", "properness", str(data_dir / "quiver_torus_p1.json"), "--trials", "2"],
        ["vortex", "solve", "--N", "16", "--L", "6.283185307179586", "--d", "-1",
         "--centers", "3.14,3.14", "--t", "0.7"],
        ["stromme", "refute", triple, "--s", "2", "--t", "1"],
        ["stromme", "check", triple, "--refute", "--trials", "5"],
    ]
    exact_commands = [
        ["flag", "check", str(data_dir / "flag_stable.json")],
        ["stromme", "check", triple],
        ["stromme", "quot", triple],
        ["toric", "validate", p1],
        ["toric", "membership", p1],
        ["toric", "stability", p1, "--support", "1"],
        ["toric", "chamber", p1],
        ["toric", "nonempty", p1],
        ["invariants", "ggw", "--g", "1", "--r0", "2", "--d", "0", "--d0", "1", "--side", "above"],
        ["invariants", "quot-count", "--g", "1", "--r0", "2"],
        ["invariants", "expected-dim", "--r", "1", "--r0", "2", "--d", "0", "--d0", "1", "--g", "1"],
        ["invariants", "degrees", "--r", "2", "--kind", "u", "--index", "1"],
    ]
    for args in numpy_commands + exact_commands:
        code, out, _ = run_cli(args, capsys)
        assert code == 0, args
        provenance = json.loads(out)["provenance"]
        if args in numpy_commands:
            assert provenance["numpy_version"] == numpy.__version__, args
        else:
            assert "numpy_version" not in provenance, args


def test_golden_outputs(capsys, data_dir, golden_dir):
    cases = {
        "toric_validate_p1.json": ["toric", "validate", str(data_dir / "p1.json")],
        "toric_validate_p2.json": ["toric", "validate", str(data_dir / "p2.json")],
        "invariants_table_g3.json": [
            "invariants", "ggw", "--g", "3", "--r0", "2", "--d", "0", "--d0", "2",
            "--side", "above", "--l", "one",
        ],
        "quot_counts.json": ["invariants", "quot-count", "--g", "3", "--r0", "2"],
    }
    for name, args in cases.items():
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        expected = (golden_dir / name).read_text()
        assert out == expected, f"golden mismatch for {name}"


def test_internal_error_exits_4(capsys, monkeypatch):
    from sfpas import exterior
    from sfpas.errors import InternalError

    def broken(g, r0):
        raise InternalError("invariant failed")

    monkeypatch.setattr(exterior, "quot_count", broken)
    code, out, err = run_cli(["invariants", "quot-count", "--g", "2", "--r0", "2"], capsys)
    assert code == 4 and out == ""
    assert "invariant failed" in err


def test_ggw_two_term_class_at_genus_22_is_fast():
    l = {(): 1, (0, 1): 1}

    def oracle_value(g, r0):
        return sum(
            r0**i * ext_top(ext_wedge(ext_theta_power(g, i), l), g) for i in range(g + 1)
        )

    # the oracle reaches g <= 8 here; there it gives r0^g + r0^(g-1) for this class
    for g in range(1, 9):
        assert oracle_value(g, 2) == 2**g + 2 ** (g - 1)
    root = pathlib.Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    cls = json.dumps({"g": 22, "terms": [[list(m), c] for m, c in l.items()]})
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "sfpas.cli", "invariants", "ggw", "--g", "22", "--r0", "2",
         "--d", "0", "--d0", "80", "--side", "above", "--l", cls],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=20,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == 2**22 + 2**21
    assert elapsed < 2.0, f"took {elapsed:.2f} s"


def test_quot_count_too_large_to_print_exits_3(capsys):
    code, out, err = run_cli(["invariants", "quot-count", "--g", "20000", "--r0", "2"], capsys)
    assert code == 3 and out == ""
    assert "decimal digits" in err
    code, out, _ = run_cli(["invariants", "quot-count", "--g", "20000", "--r0", "1"], capsys)
    assert code == 0 and json.loads(out)["count"] == 1


def test_ggw_too_large_to_print_exits_3(capsys):
    base = ["invariants", "ggw", "--g", "20000", "--r0", "2", "--d", "0", "--side", "above"]
    code, _, err = run_cli(base + ["--d0", "40000", "--l", "one"], capsys)
    assert code == 3 and "decimal digits" in err
    code, out, _ = run_cli(base + ["--d0", "40000", "--l", "top"], capsys)
    assert code == 0 and json.loads(out)["value"] == 1
    # powers 19998..20000, none of which this class pairs with, are never formed
    cls = json.dumps({"g": 20000, "terms": [[[0], 1], [[0, 2], 1]]})
    code, out, _ = run_cli(base + ["--d0", "20001", "--l", cls], capsys)
    assert code == 0 and json.loads(out)["terms"] == [
        {"contribution": 0, "power": i} for i in (19998, 19999, 20000)
    ]


def _ggw_with_class(terms, capsys):
    cls = json.dumps({"g": 1, "terms": terms})
    return run_cli(
        ["invariants", "ggw", "--g", "1", "--r0", "2", "--d", "1", "--d0", "2",
         "--side", "above", "--l", cls],
        capsys,
    )


def test_ggw_rejects_fractional_coefficient(capsys):
    code, out, err = _ggw_with_class([[[0, 1], 2.5]], capsys)
    assert code == 2 and out == "" and "coefficient" in err


def test_ggw_rejects_repeated_monomial(capsys):
    code, out, err = _ggw_with_class([[[0, 1], 2], [[0, 1], 3]], capsys)
    assert code == 2 and out == "" and "repeated monomial" in err


def test_ggw_rejects_fractional_index(capsys):
    code, out, err = _ggw_with_class([[[0.9, 1], 1]], capsys)
    assert code == 2 and out == "" and "generator index" in err


def test_ggw_rejects_bool_coefficient(capsys):
    code, out, err = _ggw_with_class([[[0, 1], True]], capsys)
    assert code == 2 and out == "" and "coefficient" in err


def test_quiver_flow_output_is_strict_json(capfd, tmp_path):
    """Criterion-1 chain 9 at level (-1, 0, 0) grows its group element
    past the float range unless the flow keeps it normalized: its
    group_cond is a finite number both ways (it used to be Infinity,
    or an SVD failure with exit 4 at --step 0.3), and nothing but the
    JSON reaches stdout."""
    rng = random.Random(2024)
    chain = [random_chain(rng) for _ in range(10)][9]
    assert chain.dims == (4, 2, 4, 4)
    path = tmp_path / "chain9.json"
    path.write_text(json.dumps({
        "quiver": {
            "vertices": ["v1", "v2", "v3", "v4"],
            "arrows": [{"id": f"f{i}", "src": f"v{i}", "dst": f"v{i + 1}"} for i in (1, 2, 3)],
        },
        "dims": {f"v{i + 1}": n for i, n in enumerate(chain.dims)},
        "symmetry": {"type": "vertex_product", "vertices": ["v1", "v2", "v3"]},
        "point": {f"f{i + 1}": f.to_json() for i, f in enumerate(chain.maps)},
        "level": {"values": {"v1": "-1", "v2": "0", "v3": "0"}},
    }))

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    for extra in ([], ["--step", "0.3", "--tol", "1e-5"]):
        payloads = {}
        for cmd in ("flow", "verdict"):
            code = main(["quiver", cmd, str(path)] + extra)
            assert code == 0, extra
            payloads[cmd] = json.loads(capfd.readouterr().out, parse_constant=reject)
            assert payloads[cmd]["verdict"] == "Unstable"
        assert 1.0 <= payloads["flow"]["group_cond"] < 1e3


# case -> (command, data file whose fields are replaced or None, fields)
NON_INTEGER_FIELDS = {
    "stromme-negative-u": (
        "stromme check", None, {"u": -1, "v": 2, "w": 2, "k": [], "l": [], "m": [["1", "0"], ["0", "1"]]},
    ),
    "stromme-float-u": ("stromme check", "stromme_triple.json", {"u": 1.7}),
    "stromme-bool-u": ("stromme check", "stromme_triple.json", {"u": True}),
    "flag-float-dim": ("flag check", None, {"dims": [1.5, 2], "maps": [[["1"], ["1"]]], "level": ["1"]}),
    "flag-bool-dim": ("flag check", None, {"dims": [True, 2], "maps": [[["1"], ["1"]]], "level": ["1"]}),
    "toric-float-entry": ("toric validate", "p1.json", {"v": [[1.9, -1]]}),
    "toric-float-cone-index": ("toric validate", "p1.json", {"max_cones": [[1.5], [2]]}),
    "quiver-float-dim": ("quiver verdict", "quiver_grassmann.json", {"dims": {"v1": 1.5, "v2": 1}}),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGER_FIELDS))
def test_non_integer_size_or_index_exits_2(capsys, data_dir, tmp_path, case):
    command, base, fields = NON_INTEGER_FIELDS[case]
    payload = json.loads((data_dir / base).read_text()) if base else {}
    path = tmp_path / "input.json"
    path.write_text(json.dumps({**payload, **fields}))
    code, out, err = run_cli(command.split() + [str(path)], capsys)
    assert code == 2 and out == "" and "integer" in err


def test_empty_list_matrix_needs_an_empty_shape(capsys, tmp_path):
    """[] stands for a matrix only when its expected shape has no
    entries: a 2x1 k written as [] is invalid input, while the u = 0 and
    w = 0 triples may write their empty matrices as []."""
    cases = [
        ({"u": 1, "v": 2, "w": 2, "k": [], "l": [["0"], ["1"]], "m": [["1", "0"], ["0", "1"]]}, 2),
        ({"u": 0, "v": 2, "w": 2, "k": [], "l": [], "m": [["1", "0"], ["0", "1"]]}, 0),
        ({"u": 2, "v": 2, "w": 0, "k": [["1", "0"], ["0", "1"]], "l": [["0", "1"], ["1", "0"]], "m": []}, 0),
    ]
    for triple, expected in cases:
        path = tmp_path / "triple.json"
        path.write_text(json.dumps(triple))
        code, out, err = run_cli(["stromme", "check", str(path)], capsys)
        assert code == expected, (triple, err)
        if expected == 2:
            assert out == "" and "2x1" in err
        else:
            assert "is_triple" in json.loads(out)
