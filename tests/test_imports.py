"""Only generate loads numpy, and no stage loads jsonschema: the read side
starts without either, and jsonschema is a test oracle only.  Likewise each
standard-library module and each skybench module that only some commands use
is loaded on their path alone, never at import, and no stage creates the
typed record classes.

Each case runs in a fresh interpreter, since this test process has long
since imported them all.
"""

from __future__ import annotations

import json
import shutil

import pytest

from skybench.cli import EXIT_INPUT, EXIT_OK, EXIT_USAGE, main

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
# only some commands (or, for importlib.resources, none).  dataclasses, and
# inspect with it, is loaded only to create NetworkState or the typed record
# classes; argparse, and gettext with it, only for help and usage errors.
DEFERRED = {
    "subprocess", "selectors", "statistics", "csv", "hashlib", "datetime", "signal", "array",
    "importlib.resources", "dataclasses", "inspect", "argparse", "gettext",
}
# Of those, the ones only generate or an external policy uses.
GENERATE_ONLY = {"subprocess", "selectors", "hashlib", "datetime", "dataclasses", "inspect"}


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


def _added(fresh_python, body: str, flags: tuple[str, ...] = ("-S",)) -> set[str]:
    """The modules `body` adds to a fresh interpreter's sys.modules.

    Under -S no site hook (a .pth file) loads anything before `body` runs,
    but numpy, which generate needs, cannot be found either.
    """
    code, out, err = fresh_python(ADDED_PROBE.format(body=body), flags=flags)
    assert code == 0, err
    return set(json.loads(out.splitlines()[-1]))


# The skybench modules each command loads: validate reads records with the
# episode model alone, the other readers add scoring, and generate adds the
# agents, the tools, the scenarios, the physics and the job dispatch, but not
# scoring.
READER_MODULES = {"skybench", "skybench.cli", "skybench.episode", "skybench.errors", "skybench.network"}
COMMAND_MODULES = {
    "validate": READER_MODULES,
    "score": READER_MODULES | {"skybench.scoring"},
    "aggregate": READER_MODULES | {"skybench.scoring"},
    "analytics": READER_MODULES | {"skybench.scoring"},
    "generate": READER_MODULES | {
        "skybench.agents", "skybench.tools", "skybench.scenarios", "skybench.environment", "skybench.dispatch",
    },
}
IMPORT_AND_SETUP = (
    "import skybench.cli\n"
    "from skybench.network import default_calibration\n"
    "from skybench.scenarios import builtin_scenarios\n"
    "default_calibration()\n"
    "builtin_scenarios()"
)


def _skybench_modules(modules: set[str]) -> set[str]:
    return {name for name in modules if name == "skybench" or name.startswith("skybench.")}


def test_import_and_setup_load_only_the_readers_and_scenario_modules(fresh_python):
    added = _skybench_modules(_added(fresh_python, IMPORT_AND_SETUP))
    assert added == READER_MODULES | {"skybench.scenarios", "skybench.environment"}


@pytest.mark.parametrize("command", ["generate", *READ_SIDE])
def test_each_command_loads_only_its_skybench_modules(fresh_python, clean_run, tmp_path, command):
    out = tmp_path / "run"
    if command == "generate":
        argv = ["generate", "--canonical", "--episodes-per-scenario", "1", "--out", str(out)]
    else:
        shutil.copytree(clean_run, out)
        argv = _argv(command, out)
    added = _added(fresh_python, f"from skybench.cli import main\nassert main({argv!r}) == 0", flags=())
    assert _skybench_modules(added) == COMMAND_MODULES[command]


def test_import_and_setup_leave_deferred_modules_unloaded(fresh_python):
    added = _added(fresh_python, IMPORT_AND_SETUP)
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


# Each command as the benchmark calls it, then as CI does, on a scored run
# in {out}: a well-formed call parses its argv without argparse.
STAGE_ARGVS = [
    ["generate", "--out", "{out}", "--episodes-per-scenario", "1", "--seed", "42",
     "--agents", "adaptive_pilot,greedy_streamer,safe_pilot", "--canonical"],
    ["score", "--out", "{out}", "--corpus", "{out}/corpus.jsonl", "--strict"],
    ["score", "--out", "{out}/lenient", "--corpus", "{out}/corpus.jsonl", "--lenient"],
    ["aggregate", "--out", "{out}"],
    ["analytics", "--out", "{out}", "--corpus", "{out}/corpus.jsonl"],
    ["validate", "{out}/corpus.jsonl", "--strict"],
    ["generate", "--episodes-per-scenario", "1", "--canonical", "--out", "{out}"],
    ["score", "--out", "{out}"],
    ["analytics", "--out", "{out}"],
    ["validate", "{out}/corpus.jsonl"],
]


@pytest.mark.parametrize("argv", STAGE_ARGVS, ids=lambda argv: " ".join(argv[:2]).replace("{out}", "run"))
def test_a_well_formed_call_leaves_argparse_unloaded(fresh_python, clean_run, tmp_path, argv):
    out = tmp_path / "run"
    shutil.copytree(clean_run, out)
    argv = [token.replace("{out}", str(out)) for token in argv]
    # generate needs numpy, which -S cannot find.
    flags = () if argv[0] == "generate" else ("-S",)
    added = _added(fresh_python, f"from skybench.cli import main\nassert main({argv!r}) == 0", flags=flags)
    assert "skybench.cli" in added
    assert added & {"argparse", "gettext"} == set()


# Prints main(argv)'s exit code, stdout and stderr at 80 columns, and whether
# argparse and gettext were loaded.
USAGE_PROBE = """
import contextlib
import io
import json
import os
import sys
os.environ["COLUMNS"] = "80"
from skybench.cli import main
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = main({argv!r})
print(json.dumps([code, out.getvalue(), err.getvalue(), "argparse" in sys.modules, "gettext" in sys.modules]))
"""


@pytest.mark.parametrize("argv", [["--help"], ["score", "--bogus"], ["generate", "--parallel", "x"]],
                         ids=" ".join)
def test_help_and_usage_errors_load_argparse_and_print_the_pinned_bytes(fresh_python, argv):
    from test_cli import COMMAND_HELP, FULL_USAGE, TOP_HELP

    expected = {
        "--help": [EXIT_OK, TOP_HELP, ""],
        "score": [EXIT_USAGE, "", FULL_USAGE + "skybench: error: unrecognized arguments: --bogus\n"],
        "generate": [EXIT_USAGE, "", COMMAND_HELP["generate"].split("\n\n")[0] + "\n"
                     "skybench generate: error: argument --parallel: invalid int value: 'x'\n"],
    }[argv[0]]
    code, out, err = fresh_python(USAGE_PROBE.format(argv=argv), flags=("-S",))
    assert code == 0, err
    assert json.loads(out.splitlines()[-1]) == [*expected, True, True]


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


# Prints the names of the dataclasses that main(argv) creates.
DATACLASS_PROBE = """
import dataclasses
made = []
process_class = dataclasses._process_class
def counting(cls, *args, **kwargs):
    made.append(cls.__name__)
    return process_class(cls, *args, **kwargs)
dataclasses._process_class = counting
from skybench.cli import main
assert main({argv!r}) == 0
print(made)
"""


def test_generate_creates_no_dataclass_but_network_state(fresh_python, tmp_path):
    argv = ["generate", "--canonical", "--episodes-per-scenario", "1", "--out", str(tmp_path / "run")]
    code, out, err = fresh_python(DATACLASS_PROBE.format(argv=argv))
    assert code == 0, err
    assert out.splitlines()[-1] == "['NetworkState']"


# Every name the package exported while it imported all its modules, by the
# module that defines it now.
PACKAGE_EXPORTS = {
    "agents": [
        "AdaptiveActionFilter", "AdaptivePilot", "GreedyStreamer", "SafePilot", "SubprocessPolicy",
        "UserSimulator", "make_agent", "run_episode",
    ],
    "environment": [
        "Airspace", "DisturbanceModel", "Geofence", "KinematicState", "SafetyFlags", "UavState",
        "VehicleParams", "evolve_state", "step_kinematics",
    ],
    "episode": [
        "ValidationReport", "check_stub", "failure_stub", "line_to_record", "record_to_line", "validate_episode",
    ],
    "errors": ["CalibrationError", "DegenerateInput", "InvalidInput", "ParseError", "ScenarioError", "SkybenchError"],
    "network": [
        "NetworkState", "SliceCalibration", "calibrate", "classify_hard", "default_calibration",
        "evolve_network", "sample_network_state",
    ],
    "scenarios": ["Scenario", "SwarmContext", "builtin_scenarios", "load_scenario"],
    "scoring": [
        "ModelAggregate", "PillarScores", "ScoringContext", "aggregate_model", "composite", "compute_t_opt",
        "generation_efficiency", "match_action_observation", "score_episode",
    ],
    "tools": ["ToolExecutor", "ToolSpec", "default_registry"],
}


def test_importing_the_package_loads_none_of_its_modules(fresh_python):
    assert _skybench_modules(_added(fresh_python, "import skybench")) == {"skybench"}


@pytest.mark.parametrize("home", sorted(PACKAGE_EXPORTS))
def test_each_package_export_is_its_home_modules_object(home):
    import importlib

    import skybench

    module = importlib.import_module(f"skybench.{home}")
    for name in PACKAGE_EXPORTS[home]:
        assert getattr(skybench, name) is getattr(module, name), name
        assert name in dir(skybench), name
    assert skybench.__version__ == "0.1.0"


def test_the_package_gives_the_record_classes_and_no_unknown_name():
    import skybench
    import skybench.episode as episode

    for name in episode.RECORD_CLASSES:
        assert getattr(skybench, name) is getattr(episode, name)
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        skybench.nope
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        import skybench.cli

        skybench.cli.nope


# A name of a module that only some commands load resolves as an attribute
# of skybench.cli before that module is loaded, and loading it keeps a value
# set there first, as a test's patch or a tracer's wrapper.
LOOKUP_SITE_PROBE = """
import sys
import skybench.cli as cli
assert "skybench.agents" not in sys.modules
calls = []
def counting(*args, **kwargs):
    from skybench.agents import run_attempts
    calls.append(1)
    return run_attempts(*args, **kwargs)
cli.run_attempts = counting
run_episode = cli.run_episode
import skybench.agents as agents
assert run_episode is agents.run_episode
assert "skybench.scoring" not in sys.modules
assert cli.main({argv!r}) == 0
assert cli.run_attempts is counting
print(len(calls))
"""


def test_a_deferred_name_resolves_in_cli_and_a_value_set_there_is_kept(fresh_python, tmp_path):
    argv = ["generate", "--canonical", "--agents", "safe_pilot", "--episodes-per-scenario", "1",
            "--out", str(tmp_path / "run")]
    code, out, err = fresh_python(LOOKUP_SITE_PROBE.format(argv=argv))
    assert code == 0, err
    assert out.splitlines()[-1] == "3"
