"""The exact lane never imports numpy.

Each check runs in a fresh interpreter, so that no import made by
another test can hide one, and ends by asserting that numpy is absent
from ``sys.modules``.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"

NUMPY_ABSENT = """
leaked = sorted(name for name in sys.modules if name.split(".")[0] == "numpy")
assert not leaked, f"numpy was imported: {leaked[:3]}"
"""

EXACT_COMMANDS = {
    "flag-check": ["flag", "check", str(DATA / "flag_unstable.json")],
    "stromme-check": ["stromme", "check", str(DATA / "stromme_triple.json")],
    "stromme-quot": ["stromme", "quot", str(DATA / "stromme_triple.json")],
    "toric-validate": ["toric", "validate", str(DATA / "p2.json")],
    "toric-membership": ["toric", "membership", str(DATA / "p2.json")],
    "toric-stability": ["toric", "stability", str(DATA / "p2.json"), "--support", "1,3"],
    "toric-chamber": ["toric", "chamber", str(DATA / "p1xp1.json")],
    "toric-nonempty": ["toric", "nonempty", str(DATA / "p1.json")],
    "invariants-ggw": ["invariants", "ggw", "--g", "2", "--r0", "2", "--d", "0", "--d0", "1",
                       "--side", "above"],
    "invariants-quot-count": ["invariants", "quot-count", "--g", "3", "--r0", "2"],
    "invariants-expected-dim": ["invariants", "expected-dim", "--r", "2", "--r0", "3", "--d", "1",
                                "--d0", "2", "--g", "2"],
    "invariants-degrees": ["invariants", "degrees", "--r", "3", "--kind", "v", "--index", "2"],
}


def _run_fresh(code):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code + NUMPY_ABSENT],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", EXACT_COMMANDS.values(), ids=EXACT_COMMANDS.keys())
def test_exact_command_skips_numpy(argv):
    _run_fresh(
        "import contextlib, io\n"
        "from sfpas import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    code = cli.main({argv!r})\n"
        "assert code == 0 and out.getvalue(), code\n"
    )


def test_exact_library_skips_numpy():
    _run_fresh(
        "from sfpas import exterior, families, linalg, lp, toric\n"
        "chain = families.FlagChain([2, 2], [linalg.CMatrix([[1, 0], [0, 0]])], [1])\n"
        "verdict, witness = families.flag_stable(chain)\n"
        "assert verdict == families.Verdict.UNSTABLE and witness.kernel_dim == 1\n"
        "triple = families.StrommeTriple(\n"
        "    linalg.CMatrix([[1], [0]]), linalg.CMatrix([[0], [1]]), linalg.CMatrix([[1, 0], [0, 1]]))\n"
        "assert families.stromme_check(triple)['is_triple']\n"
        "tm = toric.ToricMatrix([[1, 0, -1], [0, 1, -1]])\n"
        "assert toric.semistable_lp(toric.SupportPattern({1, 3}), tm, [1, 1, 1])['stable']\n"
        "assert exterior.quot_count(3, 2) == 8\n"
        "assert linalg.rank_exact(linalg.CMatrix([[1, 2], [2, 4]])) == 1\n"
    )


def test_verdict_is_shared():
    from sfpas import families, quiver, verdict

    assert quiver.Verdict is families.Verdict is verdict.Verdict
