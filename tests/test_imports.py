"""Only generate loads numpy, and no stage loads jsonschema: the read side
starts without either, and jsonschema is a test oracle only.  Likewise each
standard-library module that only some commands use is loaded on their path
alone, never at import, and no stage creates the typed record classes.

Each case runs in a fresh interpreter, since this test process has long
since imported them all.
"""

from __future__ import annotations

import json
import shutil

import pytest

from skybench.cli import EXIT_INPUT, EXIT_OK, main

PROBE = """
import json
import sys
from skybench.cli import main
code = main({argv!r})
print(json.dumps([code, "numpy" in sys.modules, "jsonschema" in sys.modules]))
"""

READ_SIDE = ["score", "aggregate", "analytics", "validate"]

# Prints the modules that {body} adds to sys.modules.
ADDED_PROBE = """
import json
import sys
before = set(sys.modules)
{body}
print(json.dumps(sorted(set(sys.modules) - before)))
"""

# Standard-library modules that import and setup leave unloaded: each serves
# only some commands (or, for importlib.resources, none).
DEFERRED = {
    "subprocess", "selectors", "statistics", "csv", "hashlib", "datetime", "signal", "array",
    "importlib.resources",
}
# Of those, the ones only generate or an external policy uses.
GENERATE_ONLY = {"subprocess", "selectors", "hashlib", "datetime"}


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    """A small scored run: a clean corpus and its scores."""
    out = tmp_path_factory.mktemp("clean") / "run"
    assert main(["generate", "--canonical", "--episodes-per-scenario", "1", "--out", str(out)]) == EXIT_OK
    assert main(["score", "--out", str(out)]) == EXIT_OK
    return out


def _probe(fresh_python, argv: list[str]) -> tuple[int, bool, bool]:
    """(exit code, numpy loaded, jsonschema loaded) of main(argv) in a fresh interpreter."""
    code, out, err = fresh_python(PROBE.format(argv=argv))
    assert code == 0, err
    return tuple(json.loads(out.splitlines()[-1]))


def _argv(command: str, out) -> list[str]:
    return [command, str(out / "corpus.jsonl")] if command == "validate" else [command, "--out", str(out)]


def test_import_and_setup_leave_numpy_and_jsonschema_unloaded(fresh_python):
    code, out, err = fresh_python(
        "import sys\n"
        "import skybench.cli\n"
        "from skybench.network import default_calibration\n"
        "from skybench.scenarios import builtin_scenarios\n"
        "default_calibration()\n"
        "builtin_scenarios()\n"
        "print('numpy' in sys.modules, 'jsonschema' in sys.modules)\n"
    )
    assert code == 0, err
    assert out.strip() == "False False"


def _added(fresh_python, body: str) -> set[str]:
    """The modules `body` adds to a fresh interpreter's sys.modules.

    Under -S no site hook (a .pth file) loads anything before `body` runs.
    """
    code, out, err = fresh_python(ADDED_PROBE.format(body=body), flags=("-S",))
    assert code == 0, err
    return set(json.loads(out.splitlines()[-1]))


def test_import_and_setup_leave_deferred_modules_unloaded(fresh_python):
    added = _added(
        fresh_python,
        "import skybench.cli\n"
        "from skybench.network import default_calibration\n"
        "from skybench.scenarios import builtin_scenarios\n"
        "default_calibration()\n"
        "builtin_scenarios()",
    )
    assert "skybench.cli" in added
    assert added & DEFERRED == set()


@pytest.mark.parametrize("command", READ_SIDE)
def test_read_side_commands_leave_generate_only_modules_unloaded(fresh_python, clean_run, tmp_path, command):
    out = tmp_path / "run"
    shutil.copytree(clean_run, out)
    added = _added(fresh_python, f"from skybench.cli import main\nassert main({_argv(command, out)!r}) == 0")
    assert "skybench.cli" in added
    assert added & GENERATE_ONLY == set()


@pytest.mark.parametrize("command", READ_SIDE)
def test_read_side_commands_leave_numpy_and_jsonschema_unloaded(fresh_python, clean_run, tmp_path, command):
    out = tmp_path / "run"
    shutil.copytree(clean_run, out)
    assert _probe(fresh_python, _argv(command, out)) == (EXIT_OK, False, False)


@pytest.mark.parametrize("command", ["score", "validate"])
def test_rejecting_a_record_leaves_jsonschema_unloaded(fresh_python, clean_run, tmp_path, command):
    out = tmp_path / "run"
    shutil.copytree(clean_run, out)
    corpus = out / "corpus.jsonl"
    lines = corpus.read_text().splitlines()
    doc = json.loads(lines[0])
    doc["turns"][3]["network"]["latency_ms"] = -1.0
    corpus.write_text("\n".join([json.dumps(doc), *lines[1:]]) + "\n")
    code, _, jsonschema_loaded = _probe(fresh_python, _argv(command, out))
    assert code == (EXIT_INPUT if command == "validate" else EXIT_OK)
    assert not jsonschema_loaded
    if command == "score":
        scores = [json.loads(line) for line in (out / "scores.jsonl").read_text().splitlines()]
        assert [s["valid"] for s in scores].count(False) == 1


def test_generate_loads_numpy_but_not_jsonschema(fresh_python, tmp_path):
    argv = ["generate", "--canonical", "--episodes-per-scenario", "1", "--agents", "safe_pilot", "--out", str(tmp_path / "run")]
    assert _probe(fresh_python, argv) == (EXIT_OK, True, False)


# Prints main(argv)'s exit code and the typed record classes created by then.
RECORD_PROBE = """
import json
import skybench.episode as episode
from skybench.cli import main
{setup}
code = main({argv!r}) if {argv!r} else 0
print(json.dumps([code, [name for name in episode.RECORD_CLASSES if name in vars(episode)]]))
"""


def test_import_and_setup_create_no_record_class(fresh_python):
    setup = (
        "from skybench.network import default_calibration\n"
        "from skybench.scenarios import builtin_scenarios\n"
        "default_calibration()\n"
        "builtin_scenarios()"
    )
    code, out, err = fresh_python(RECORD_PROBE.format(setup=setup, argv=[]))
    assert code == 0, err
    assert json.loads(out.splitlines()[-1]) == [EXIT_OK, []]


@pytest.mark.parametrize("command", ["generate", *READ_SIDE])
def test_no_stage_creates_a_record_class(fresh_python, clean_run, tmp_path, command):
    out = tmp_path / "run"
    if command == "generate":
        argv = ["generate", "--canonical", "--episodes-per-scenario", "1", "--out", str(out)]
    else:
        shutil.copytree(clean_run, out)
        argv = _argv(command, out)
    code, stdout, err = fresh_python(RECORD_PROBE.format(setup="", argv=argv))
    assert code == 0, err
    assert json.loads(stdout.splitlines()[-1]) == [EXIT_OK, []]
