"""Only generate loads numpy: the read side starts without it.

Each case runs in a fresh interpreter, since this test process has long
since imported numpy.
"""

from __future__ import annotations

import json
import shutil

import pytest

from skybench.cli import EXIT_OK, main

PROBE = """
import json
import sys
from skybench.cli import main
code = main({argv!r})
print(json.dumps([code, "numpy" in sys.modules]))
"""


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    """A small scored run: a clean corpus and its scores."""
    out = tmp_path_factory.mktemp("clean") / "run"
    assert main(["generate", "--canonical", "--episodes-per-scenario", "1", "--out", str(out)]) == EXIT_OK
    assert main(["score", "--out", str(out)]) == EXIT_OK
    return out


def _probe(fresh_python, argv: list[str]) -> tuple[int, bool]:
    code, out, err = fresh_python(PROBE.format(argv=argv))
    assert code == 0, err
    return tuple(json.loads(out.splitlines()[-1]))


def test_import_and_setup_leave_numpy_unloaded(fresh_python):
    code, out, err = fresh_python(
        "import sys\n"
        "import skybench.cli\n"
        "from skybench.network import default_calibration\n"
        "from skybench.scenarios import builtin_scenarios\n"
        "default_calibration()\n"
        "builtin_scenarios()\n"
        "print('numpy' in sys.modules)\n"
    )
    assert code == 0, err
    assert out.strip() == "False"


@pytest.mark.parametrize("command", ["score", "aggregate", "analytics", "validate"])
def test_read_side_commands_leave_numpy_unloaded(fresh_python, clean_run, tmp_path, command):
    out = tmp_path / "run"
    shutil.copytree(clean_run, out)
    argv = [command, str(out / "corpus.jsonl")] if command == "validate" else [command, "--out", str(out)]
    assert _probe(fresh_python, argv) == (EXIT_OK, False)


def test_generate_loads_numpy(fresh_python, tmp_path):
    argv = ["generate", "--canonical", "--episodes-per-scenario", "1", "--agents", "safe_pilot", "--out", str(tmp_path / "run")]
    assert _probe(fresh_python, argv) == (EXIT_OK, True)
