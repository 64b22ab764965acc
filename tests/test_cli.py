from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import re
import statistics
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from generators import build_episode, dialogue, random_episode
from skybench.cli import (
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    LEADERBOARD_NAME,
    MANIFEST_NAME,
    RunConfig,
    SCORES_NAME,
    cmd_aggregate,
    cmd_analytics,
    cmd_generate,
    cmd_score,
    corpus_analytics,
    main,
)
from skybench.episode import (
    McpCall,
    McpResult,
    Turn,
    dumps_canonical,
    episode_to_doc,
    failure_stub,
    line_to_record,
    record_to_line,
)
from skybench.errors import ParseError, ScenarioError, SkybenchError
from skybench.network import DEFAULT_TARGETS, MMTC, URLLC
from skybench.scenarios import load_scenario
from skybench.scoring import LEADERBOARD_COLUMNS


def tiny_config(out: Path, **overrides) -> RunConfig:
    defaults = dict(
        scenarios="builtin",
        agents=("safe_pilot", "greedy_streamer"),
        episodes_per_scenario=3,
        out=str(out),
        canonical=True,
        parallel=1,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def test_generate_counts_and_manifest(tmp_path):
    config = tiny_config(tmp_path / "run")
    assert cmd_generate(config) == EXIT_OK
    corpus = (tmp_path / "run" / "corpus.jsonl").read_text().splitlines()
    assert len(corpus) == 3 * 2 * 3  # scenarios x agents x episodes
    manifest = json.loads((tmp_path / "run" / MANIFEST_NAME).read_text())
    assert manifest["counts"]["jobs"] == len(corpus)
    assert manifest["counts"]["episodes"] + manifest["counts"]["failure_stubs"] == len(corpus)
    assert manifest["episode_budget_per_model"] == 9
    assert manifest["seed"] == 42
    assert manifest["episode_seed_set"] == [42, 77, 101, 2025, 1337]


def test_generate_rerun_and_parallel_are_byte_identical(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    cmd_generate(tiny_config(a))
    cmd_generate(tiny_config(b))
    cmd_generate(tiny_config(c, parallel=8))
    bytes_a = (a / "corpus.jsonl").read_bytes()
    assert bytes_a == (b / "corpus.jsonl").read_bytes()
    assert bytes_a == (c / "corpus.jsonl").read_bytes()
    # Re-running over an existing output converges to the same bytes.
    cmd_generate(tiny_config(a))
    assert bytes_a == (a / "corpus.jsonl").read_bytes()


def test_generate_resumes_from_partial_corpus(tmp_path):
    out = tmp_path / "run"
    cmd_generate(tiny_config(out))
    full = (out / "corpus.jsonl").read_bytes()
    lines = full.decode().splitlines()
    for parallel in (1, 2):
        (out / "corpus.jsonl").write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        cmd_generate(tiny_config(out, parallel=parallel))
        assert (out / "corpus.jsonl").read_bytes() == full


def test_a_resume_runs_again_the_jobs_of_lines_that_are_no_record(tmp_path, capsys):
    # A stub whose seed is not an integer and a line holding nothing but an
    # episode id were kept, and the new manifest vouched for them.
    out = tmp_path / "run"
    argv = ["generate", "--agents", "safe_pilot", "--episodes-per-scenario", "2", "--canonical", "--out", str(out)]
    assert main(argv) == EXIT_OK
    full = (out / "corpus.jsonl").read_bytes()
    manifest = (out / MANIFEST_NAME).read_bytes()
    lines = full.decode().splitlines()
    assert len(lines) == 6
    stub = failure_stub("S01-safe_pilot-0000", "S01", "safe_pilot", 42, "internal", timestamp="1970-01-01T00:00:00Z")
    lines[0] = json.dumps({**stub, "seed": 4.9})
    lines[1] = json.dumps({"episode_id": "S01-safe_pilot-0001"})
    (out / "corpus.jsonl").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    assert (out / "corpus.jsonl").read_bytes() == full
    assert (out / MANIFEST_NAME).read_bytes() == manifest
    assert capsys.readouterr().out.startswith("wrote 6 records (6 episodes, 0 stubs) to ")


def _count_corpus_parses(monkeypatch) -> list:
    """The arguments of every loads_document call that generate makes."""
    import skybench.cli as cli

    calls = []
    loads_document = cli.loads_document

    def counting(data):
        calls.append(data)
        return loads_document(data)

    monkeypatch.setattr(cli, "loads_document", counting)
    return calls


def test_a_rerun_over_a_finished_corpus_parses_and_writes_nothing(tmp_path, capsys, monkeypatch):
    out, config = tmp_path / "run", tmp_path / "config.json"
    config.write_text(json.dumps({"external_agents": {"dead": [sys.executable, "-c", "pass"]}}))
    argv = ["generate", "--config", str(config), "--agents", "safe_pilot,dead", "--episodes-per-scenario", "2",
            "--out", str(out)]
    assert main(argv) == EXIT_OK
    printed = capsys.readouterr().out
    assert printed.startswith("wrote 12 records (6 episodes, 6 stubs) to ")
    corpus, manifest = out / "corpus.jsonl", out / MANIFEST_NAME
    before = {path: (path.read_bytes(), path.stat().st_ino) for path in (corpus, manifest)}
    (out / "corpus.jsonl.partial").write_text("a killed run's leftover\n")
    calls = _count_corpus_parses(monkeypatch)
    monkeypatch.setattr(os, "replace", None)  # any rename would fail the run
    monkeypatch.setattr(Path, "write_text", None)
    # Nor is a built-in input read: no scenario is loaded, and neither the
    # default calibration nor the default registry is built.
    import skybench.cli as cli

    for name in ("builtin_scenarios", "load_scenario", "default_calibration", "default_registry"):
        monkeypatch.setattr(cli, name, None)
    assert main(argv) == EXIT_OK
    # Only the manifest is parsed; the corpus is hashed, not read as records.
    assert calls == [before[manifest][0]]
    assert capsys.readouterr().out == printed
    assert {path: (path.read_bytes(), path.stat().st_ino) for path in before} == before
    assert not (out / "corpus.jsonl.partial").exists()
    # Without --canonical the no-op keeps the first run's generated_at.
    assert json.loads(before[manifest][0])["generated_at"] != "1970-01-01T00:00:00Z"


@pytest.mark.parametrize(
    "flag, loader, edit, message",
    [
        ("--scenarios", "load_scenario", lambda doc: {**doc, "scenario_id": ""},
         "error: scenario_id must be a non-empty string, got ''\n"),
        ("--calibration", "calibrate", lambda doc: {**doc, URLLC: {**doc[URLLC], "jitter_mean_ms": 0}},
         "error: mean must be positive\n"),
        ("--tools", "load_registry_extension", lambda doc: {"tools": 5},
         "error: a tool file must be an object whose tools is a list\n"),
    ],
)
def test_a_refused_input_file_exits_two_over_a_finished_corpus(tmp_path, capsys, monkeypatch, flag, loader, edit,
                                                               message):
    # The manifest vouches for the corpus, yet a user's input file is still
    # read and checked first: here by a loader grown stricter since the run.
    import skybench.cli as cli

    path = tmp_path / "input.json"
    path.write_text(json.dumps({
        "--scenarios": _builtin_scenario_doc(), "--calibration": DEFAULT_TARGETS, "--tools": {"tools": []},
    }[flag]))
    out = tmp_path / "run"
    argv = ["generate", flag, str(path), "--agents", "safe_pilot", "--episodes-per-scenario", "1", "--canonical",
            "--out", str(out)]
    assert main(argv) == EXIT_OK
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    monkeypatch.setattr(cli, loader, lambda doc, load=getattr(cli, loader): load(edit(doc)))
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == message
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("change", ["edited line", "older manifest"])
def test_a_corpus_the_manifest_does_not_vouch_for_takes_the_full_path(tmp_path, capsys, monkeypatch, change):
    argv = ["generate", "--agents", "safe_pilot", "--episodes-per-scenario", "2", "--canonical", "--out"]
    fresh, out = tmp_path / "fresh", tmp_path / "run"
    assert main(argv + [str(fresh)]) == EXIT_OK
    assert main(argv + [str(out)]) == EXIT_OK
    printed = capsys.readouterr().out.replace(str(fresh), str(out)).splitlines()[0] + "\n"
    corpus, manifest = out / "corpus.jsonl", out / MANIFEST_NAME
    if change == "edited line":
        lines = corpus.read_text().splitlines()
        lines[3] = lines[3][:-1]  # a half-written line: malformed, so made again
        corpus.write_text("\n".join(lines) + "\n")
    else:  # as written before the manifest held the corpus digest
        doc = json.loads(manifest.read_text())
        del doc["corpus_sha256"]
        manifest.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    calls = _count_corpus_parses(monkeypatch)
    assert main(argv + [str(out)]) == EXIT_OK
    assert len(calls) == 1 + 6  # the manifest and every corpus line
    assert capsys.readouterr().out == printed
    for name in ("corpus.jsonl", MANIFEST_NAME):
        assert (out / name).read_bytes() == (fresh / name).read_bytes()


def test_the_manifest_holds_the_corpus_digest(tmp_path):
    def digests(out: Path) -> tuple[str, str]:
        manifest = json.loads((out / MANIFEST_NAME).read_text())
        return manifest["corpus_sha256"], hashlib.sha256((out / "corpus.jsonl").read_bytes()).hexdigest()

    for parallel in (1, 2, 8):
        out = tmp_path / f"p{parallel}"
        cmd_generate(tiny_config(out, parallel=parallel))
        written, actual = digests(out)
        assert written == actual
    assert len({digests(tmp_path / f"p{parallel}")[0] for parallel in (1, 2, 8)}) == 1
    # After a resume from a partial corpus, the digest is that of the whole.
    out = tmp_path / "p1"
    lines = (out / "corpus.jsonl").read_text().splitlines()
    (out / "corpus.jsonl").write_text("\n".join(lines[:7]) + "\n")
    cmd_generate(tiny_config(out, parallel=2))
    assert digests(out) == (written, written)


def test_score_sidecar_counts_and_idempotence(tmp_path):
    out = tmp_path / "run"
    cmd_generate(tiny_config(out))
    assert cmd_score(str(out)) == EXIT_OK
    corpus_lines = (out / "corpus.jsonl").read_text().splitlines()
    score_lines = (out / SCORES_NAME).read_text().splitlines()
    assert len(score_lines) == len(corpus_lines)
    first = (out / SCORES_NAME).read_bytes()
    cmd_score(str(out))
    assert (out / SCORES_NAME).read_bytes() == first
    meta = json.loads((out / "scoring_meta.json").read_text())
    assert meta["t_opt"] >= 1


def test_stubs_pass_through_unscored(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    rng = np.random.default_rng(0)
    episode = random_episode(rng)
    stub = failure_stub(
        "S01-random_model-0000", "S01", "random_model", 42, "schema_invalid", timestamp="1970-01-01T00:00:00Z"
    )
    with open(out / "corpus.jsonl", "w") as fh:
        fh.write(record_to_line(episode) + "\n")
        fh.write(record_to_line(stub) + "\n")
    cmd_score(str(out))
    records = [json.loads(line) for line in (out / SCORES_NAME).read_text().splitlines()]
    assert len(records) == 2
    stub_record = [r for r in records if r.get("kind") == "failure_stub"][0]
    assert stub_record["scored"] is False
    assert stub_record["attempts_used"] == 3


def test_invalid_episode_gets_adjusted_zero(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    rng = np.random.default_rng(1)
    episode = random_episode(rng)
    doc = episode_to_doc(episode)
    doc["turns"][3]["role"] = "system"
    (out / "corpus.jsonl").write_text(dumps_canonical(doc) + "\n")
    cmd_score(str(out))
    record = json.loads((out / SCORES_NAME).read_text().splitlines()[0])
    assert record["valid"] is False
    assert record["alpha3"] == 0.0
    assert "role_disallowed" in record["violations"]


def test_aggregate_leaderboard_columns_and_budget(tmp_path):
    out = tmp_path / "run"
    cmd_generate(tiny_config(out))
    cmd_score(str(out))
    assert cmd_aggregate(str(out)) == EXIT_OK
    with open(out / LEADERBOARD_NAME) as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == LEADERBOARD_COLUMNS
    assert len(rows) == 1 + 2  # header + two agents
    models = [r[0] for r in rows[1:]]
    assert set(models) == {"safe_pilot", "greedy_streamer"}
    by_model = {r[0]: dict(zip(rows[0], r)) for r in rows[1:]}
    assert float(by_model["safe_pilot"]["alpha3"]) > float(by_model["greedy_streamer"]["alpha3"])
    assert float(by_model["safe_pilot"]["reliability"]) == 1.0
    assert float(by_model["safe_pilot"]["coverage"]) == 1.0


def test_aggregate_requires_sidecar(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    assert main(["aggregate", "--out", str(out)]) == EXIT_INPUT


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.pop("pillars"), "missing field 'pillars'"),
    (lambda doc: doc["pillars"].update(TO="high"), "field 'TO' must be a number, got 'high'"),
    (lambda doc: doc.update(mission_completed=1), "field 'mission_completed' must be true or false, got 1"),
    (lambda doc: doc.update(attempts_used=True), "field 'attempts_used' must be an integer, got True"),
    (lambda doc: doc.pop("model"), "missing field 'model'"),
], ids=["missing", "string-pillar", "int-flag", "bool-count", "no-model"])
def test_aggregate_names_the_line_of_a_bad_score_record(tmp_path, capsys, edit, message):
    out = tmp_path / "run"
    cmd_generate(tiny_config(out))
    cmd_score(str(out))
    lines = (out / SCORES_NAME).read_text().splitlines()
    doc = json.loads(lines[2])
    edit(doc)
    lines[2] = json.dumps(doc)
    (out / SCORES_NAME).write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["aggregate", "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {out / SCORES_NAME} line 3: {message}\n"
    assert not (out / LEADERBOARD_NAME).exists()


def test_aggregate_names_the_line_of_a_malformed_score_record(tmp_path, capsys):
    out = tmp_path / "run"
    cmd_generate(tiny_config(out))
    cmd_score(str(out))
    lines = (out / SCORES_NAME).read_text().splitlines()
    lines[4] = lines[4][:-1]
    (out / SCORES_NAME).write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["aggregate", "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"error: {out / SCORES_NAME} line 5: not well-formed JSON: ")


def test_analytics_hand_tally(tmp_path):
    net = lambda: __import__("generators").fixed_network(False, URLLC)  # noqa: E731
    episodes = []
    for _ in range(3):
        turns = dialogue([(False, False, URLLC)] * 8)
        for i in (1, 5):
            turns[i] = Turn(
                "agent", "reading instruments", McpCall("read_telemetry", {}),
                McpResult("read_telemetry", {"battery_pct": 90.0}), turns[i].network,
            )
        episodes.append(episode_to_doc(build_episode(turns)))
    report = corpus_analytics(episodes)
    assert report["episodes"] == 3
    telemetry = [row for row in report["mcp_tools_top"] if row["tool"] == "read_telemetry"][0]
    assert telemetry["count"] == 6
    assert telemetry["avg_per_episode"] == pytest.approx(2.0)
    assert report["a2a"]["total_calls"] == 0


def test_analytics_empty_corpus_is_ok(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / "corpus.jsonl").write_text("")
    assert cmd_analytics(str(out)) == EXIT_OK
    report = json.loads((out / "analytics.json").read_text())
    assert report["episodes"] == 0
    assert report["intents_top"] == []


def test_validate_command_exit_codes(tmp_path):
    rng = np.random.default_rng(2)
    episode = random_episode(rng)
    good = tmp_path / "good.json"
    good.write_text(record_to_line(episode))
    assert main(["validate", str(good)]) == EXIT_OK

    doc = episode_to_doc(episode)
    doc["turns"] = doc["turns"][:7]
    bad = tmp_path / "bad.json"
    bad.write_text(dumps_canonical(doc))
    assert main(["validate", str(bad)]) == EXIT_INPUT

    # A stub file is read as a stub line of a corpus is.
    stub = failure_stub("S01-safe_pilot-0000", "S01", "safe_pilot", 42, "internal")
    stub_file = tmp_path / "stub.json"
    stub_file.write_text(record_to_line(stub))
    assert main(["validate", str(stub_file)]) == EXIT_OK
    stub_file.write_text(json.dumps({**stub, "seed": 4.9}))
    assert main(["validate", str(stub_file)]) == EXIT_INPUT

    assert main(["validate", str(tmp_path / "missing.json")]) == EXIT_INPUT
    assert main([]) == EXIT_USAGE
    assert main(["generate", "--scenarios", str(tmp_path / "nope.json")]) == EXIT_INPUT


def test_validate_names_the_fields_a_record_breaks(tmp_path, capsys):
    doc = episode_to_doc(random_episode(np.random.default_rng(2)))
    doc["turns"][3]["network"]["latency_ms"] = -1.0
    doc["turns"][1]["x_vendor"] = 1
    doc["metadata"]["seed"] = 1.5
    del doc["final_state"]["yaw"]
    bad = tmp_path / "bad.json"
    bad.write_text(dumps_canonical(doc))
    expected = [
        "schema_invalid @ episode: final_state/yaw: is required",
        "schema_invalid @ episode: metadata/seed: must be an integer",
        "schema_invalid @ turn 1: turns/1/x_vendor: is not a field of the schema",
        "schema_invalid @ turn 3: turns/3/network/latency_ms: must be a number above 0",
    ]
    assert main(["validate", str(bad)]) == EXIT_INPUT
    assert capsys.readouterr().out.splitlines() == expected
    assert main(["validate", "--lenient", str(bad)]) == EXIT_INPUT
    assert capsys.readouterr().out.splitlines() == [line for line in expected if "x_vendor" not in line]


FULL_USAGE = "usage: skybench [-h] {generate,score,aggregate,analytics,validate} ...\n"
# The help text as argparse prints it at 80 columns.
TOP_HELP = FULL_USAGE + """
Command-line orchestration: generate, score, aggregate, analytics, validate.
Exit codes: 0 success, 1 usage error, 2 input error, 3 internal error. Each
run setting comes from its flag, else its SKYBENCH_<NAME> environment
variable, else the JSON config file, else its default.

positional arguments:
  {generate,score,aggregate,analytics,validate}
    generate            generate a corpus of episodes
    score               score a corpus into a JSONL sidecar
    aggregate           aggregate scores into a leaderboard CSV
    analytics           corpus usage statistics
    validate            validate an episode file or corpus

options:
  -h, --help            show this help message and exit
"""
COMMAND_HELP = {
    "generate": """usage: skybench generate [-h] [--config CONFIG] [--scenarios SCENARIOS]
                         [--agents AGENTS]
                         [--episodes-per-scenario EPISODES_PER_SCENARIO]
                         [--seed SEED] [--out OUT] [--parallel PARALLEL]
                         [--calibration CALIBRATION] [--tools TOOLS]
                         [--canonical]

options:
  -h, --help            show this help message and exit
  --config CONFIG       JSON config file
  --scenarios SCENARIOS
                        'builtin', a scenario file, or a directory
  --agents AGENTS       comma-separated agent names
  --episodes-per-scenario EPISODES_PER_SCENARIO
  --seed SEED
  --out OUT
  --parallel PARALLEL
  --calibration CALIBRATION
                        JSON calibration targets file
  --tools TOOLS         JSON tool-registry extension file
  --canonical           normalize timestamps
""",
    "score": """usage: skybench score [-h] [--out OUT] [--corpus CORPUS]
                      [--strict | --lenient]

options:
  -h, --help       show this help message and exit
  --out OUT
  --corpus CORPUS
  --strict
  --lenient
""",
    "aggregate": """usage: skybench aggregate [-h] [--out OUT] [--episode-budget EPISODE_BUDGET]

options:
  -h, --help            show this help message and exit
  --out OUT
  --episode-budget EPISODE_BUDGET
""",
    "analytics": """usage: skybench analytics [-h] [--out OUT] [--corpus CORPUS]

options:
  -h, --help       show this help message and exit
  --out OUT
  --corpus CORPUS
""",
    "validate": """usage: skybench validate [-h] [--strict | --lenient] path

positional arguments:
  path

options:
  -h, --help  show this help message and exit
  --strict
  --lenient
""",
}


@pytest.mark.parametrize("argv", [["-h"]] + [[command, "--help"] for command in COMMAND_HELP])
def test_help_text_is_pinned(monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == EXIT_OK
    assert capsys.readouterr() == (COMMAND_HELP.get(argv[0], TOP_HELP), "")


def test_only_help_and_usage_errors_build_a_parser(tmp_path, monkeypatch, capsys):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    assert main(["validate", str(tmp_path / "missing.json")]) == EXIT_INPUT
    assert built == []
    # No command, help, an unknown word or a leading option: every command.
    for argv in ([], ["-h"], ["bogus"], ["--out", "x"]):
        built.clear()
        main(argv)
        assert built == list(COMMAND_HELP)


@pytest.mark.parametrize("argv", [[], ["bogus"]])
def test_no_command_or_an_unknown_one_prints_the_full_usage(capsys, argv):
    assert main(argv) == EXIT_USAGE
    usage, error = capsys.readouterr().err.splitlines()
    assert usage + "\n" == FULL_USAGE and error.startswith("skybench: error: ")


@pytest.mark.parametrize("argv, usage, error", [
    (["score", "--bogus"], FULL_USAGE, "skybench: error: unrecognized arguments: --bogus"),
    (["generate", "--parallel", "x"], COMMAND_HELP["generate"].split("\n\n")[0] + "\n",
     "skybench generate: error: argument --parallel: invalid int value: 'x'"),
], ids=["score", "generate"])
def test_usage_errors_name_the_bad_argument(monkeypatch, capsys, argv, usage, error):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr() == ("", usage + error + "\n")


def test_lenient_flag_scores_foreign_metadata(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    rng = np.random.default_rng(3)
    doc = episode_to_doc(random_episode(rng))
    doc["provider_specific"] = {"price_usd": 0.02}
    (out / "corpus.jsonl").write_text(dumps_canonical(doc) + "\n")
    assert main(["score", "--out", str(out), "--lenient"]) == EXIT_OK
    record = json.loads((out / SCORES_NAME).read_text().splitlines()[0])
    assert record["valid"] is True
    cmd_score(str(out), strict=True)
    record = json.loads((out / SCORES_NAME).read_text().splitlines()[0])
    assert record["valid"] is False


def test_env_variable_overrides(tmp_path, monkeypatch):
    out = tmp_path / "envrun"
    monkeypatch.setenv("SKYBENCH_OUT", str(out))
    monkeypatch.setenv("SKYBENCH_EPISODES_PER_SCENARIO", "1")
    monkeypatch.setenv("SKYBENCH_AGENTS", "safe_pilot")
    monkeypatch.setenv("SKYBENCH_CANONICAL", "1")
    assert main(["generate"]) == EXIT_OK
    assert len((out / "corpus.jsonl").read_text().splitlines()) == 3  # 3 scenarios x 1 agent x 1


@pytest.mark.parametrize("raw, canonical", [("0", False), ("1", True)])
def test_canonical_env_variable_reads_zero_and_one(tmp_path, monkeypatch, raw, canonical):
    monkeypatch.setenv("SKYBENCH_CANONICAL", raw)
    out = tmp_path / "run"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"canonical": not canonical}))  # the environment wins
    assert main([
        "generate", "--config", str(config), "--agents", "safe_pilot", "--episodes-per-scenario", "1", "--out", str(out),
    ]) == EXIT_OK
    timestamps = {json.loads(line)["metadata"]["timestamp"] for line in (out / "corpus.jsonl").read_text().splitlines()}
    assert (timestamps == {"1970-01-01T00:00:00Z"}) is canonical


def test_config_file_defaults(tmp_path):
    out = tmp_path / "cfgrun"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "agents": ["safe_pilot"],
        "episodes_per_scenario": 1,
        "out": str(out),
        "canonical": True,
    }))
    assert main(["generate", "--config", str(cfg)]) == EXIT_OK
    assert len((out / "corpus.jsonl").read_text().splitlines()) == 3


@pytest.mark.parametrize(
    "config, message",
    [
        ({"episode_per_scenario": 1}, "config {path} has unknown keys ['episode_per_scenario']"),
        ({"Seed": 7, "workers": 2, "seed": 7}, "config {path} has unknown keys ['Seed', 'workers']"),
        ({"agents": None}, "agents must be a list or a comma-separated string, got None"),
    ],
)
def test_config_keys_and_null_values_are_checked(tmp_path, capsys, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"agents": ["safe_pilot"], **config}))
    out = tmp_path / "run"
    assert main(["generate", "--config", str(path), "--episodes-per-scenario", "1", "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
    assert not out.exists()


def test_null_input_paths_mean_the_built_in_inputs(tmp_path):
    def run(out: Path, **config) -> bytes:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"agents": ["safe_pilot"], "episodes_per_scenario": 1, "canonical": True, **config}))
        assert main(["generate", "--config", str(path), "--out", str(out)]) == EXIT_OK
        return (out / "corpus.jsonl").read_bytes() + (out / MANIFEST_NAME).read_bytes()

    assert run(tmp_path / "null", calibration=None, tools=None) == run(tmp_path / "absent")


def test_read_side_stages_take_out_from_the_environment_only(tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert cmd_generate(tiny_config(out, agents=("safe_pilot",), episodes_per_scenario=1)) == EXIT_OK
    monkeypatch.setenv("SKYBENCH_OUT", str(out))
    monkeypatch.setenv("SKYBENCH_SEED", "abc")  # a setting these stages have no flag for
    for stage in ("score", "aggregate", "analytics"):
        assert main([stage]) == EXIT_OK
    assert (out / LEADERBOARD_NAME).exists() and (out / "analytics.json").exists()


def test_config_hash_is_pinned():
    # A changed hash would make every existing run regenerate on resume.
    builtin_inputs = ([], None, None)
    assert RunConfig().config_hash(*builtin_inputs) == "10e21ff35400d79a"
    every_setting = RunConfig(
        scenarios="some/dir", agents=("safe_pilot", "probe"), episodes_per_scenario=7, seed=9,
        episode_seed_set=(1, 2, 3), out="elsewhere", parallel=4, calibration="c.json", tools="t.json",
        canonical=True, external_agents=(("probe", ("python", "-c", "x")), ("b", ("y",))),
    )
    assert every_setting.config_hash(*builtin_inputs) == "05ce1dc75cf94bc7"
    inputs = ([{"a": 1.5}], DEFAULT_TARGETS, {"tools": []})
    assert every_setting.config_hash(*inputs) == "4b4ac1d4647f4c21"
    # Where a run writes and how many processes it uses are not part of it.
    assert RunConfig(out="x", parallel=3).config_hash(*builtin_inputs) == "10e21ff35400d79a"


def test_the_default_agents_are_every_builtin_agent():
    # RunConfig writes the names out, so that importing the CLI loads no agent.
    from skybench.agents import AGENT_TYPES

    assert RunConfig().agents == tuple(sorted(AGENT_TYPES))


def test_run_config_validation():
    for bad in (
        {"episodes_per_scenario": 0},
        {"parallel": 0},
        {"episode_seed_set": ()},
        {"agents": ()},
        {"agents": ("safe_pilot", "greedy_streamer", "safe_pilot")},
    ):
        with pytest.raises(SkybenchError):
            RunConfig(**bad)
    builtin_inputs = ([], None, None)
    assert RunConfig().config_hash(*builtin_inputs) == RunConfig().config_hash(*builtin_inputs)
    assert RunConfig(seed=7).config_hash(*builtin_inputs) != RunConfig().config_hash(*builtin_inputs)


def test_config_hash_covers_corpus_version(monkeypatch):
    import skybench.cli as cli

    before = RunConfig().config_hash([], None, None)
    monkeypatch.setattr(cli, "CORPUS_VERSION", cli.CORPUS_VERSION + 1)
    assert RunConfig().config_hash([], None, None) != before


# sha256 of the built-in corpus: generate --canonical --episodes-per-scenario 2.
BUILTIN_PIN = "518c8dc371de11990a3f4d40e20f112ca52d176c4f3257d8c277a37d26e2c5fc"


def test_builtin_corpus_bytes_are_pinned(tmp_path):
    out = tmp_path / "pin"
    assert main(["generate", "--canonical", "--episodes-per-scenario", "2", "--out", str(out)]) == EXIT_OK
    digest = hashlib.sha256((out / "corpus.jsonl").read_bytes()).hexdigest()
    assert digest == BUILTIN_PIN


# sha256 of what the later stages write for that same run.
DOWNSTREAM_PINS = {
    MANIFEST_NAME: "9fd2e3bf3d4782c822c6c158eaa3813f4cb0423bfbd5bf1ae22ed4895d1f7d60",
    SCORES_NAME: "73e1e1b975301e2816630fd0d350146345afe949acfa24d9c3eff16289b71aa2",
    "scoring_meta.json": "4c037636b03a5f79f0be75ab4f9edb443b4ca8eb23053176e63d0595d19f26d3",
    LEADERBOARD_NAME: "bdcba9f4383d7bdce4a4e05cc789e780c88a1bfc4fee9b45ff66a0f0d86abe44",
    "analytics.json": "51aba979c3bdfd8d4b8257cf7e64b362da2deb7f01e565e9d8308a673f5cb1b8",
}


def test_builtin_downstream_bytes_are_pinned(tmp_path):
    out = str(tmp_path / "pin")
    assert main(["generate", "--canonical", "--episodes-per-scenario", "2", "--out", out]) == EXIT_OK
    for stage in ("score", "aggregate", "analytics"):
        assert main([stage, "--out", out]) == EXIT_OK
    digests = {name: hashlib.sha256((tmp_path / "pin" / name).read_bytes()).hexdigest() for name in DOWNSTREAM_PINS}
    assert digests == DOWNSTREAM_PINS


def test_parallel_corpus_bytes_match_the_serial_pin(tmp_path, fresh_python):
    # A fresh interpreter, so that numpy is first imported in a forked worker.
    code, _, err = fresh_python(
        "import sys\n"
        "from skybench.cli import main\n"
        "for parallel in ('2', '8'):\n"
        "    argv = ['generate', '--canonical', '--episodes-per-scenario', '2', '--parallel', parallel]\n"
        f"    assert main(argv + ['--out', {str(tmp_path)!r} + '/pin' + parallel]) == 0\n"
    )
    assert code == EXIT_OK, err
    for parallel in ("2", "8"):
        assert hashlib.sha256((tmp_path / f"pin{parallel}" / "corpus.jsonl").read_bytes()).hexdigest() == BUILTIN_PIN


def test_failure_stub_corpus_bytes_are_pinned(tmp_path):
    import sys

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "agents": ["safe_pilot", "dead"],
        "external_agents": {"dead": [sys.executable, "-c", "import sys; sys.exit(0)"]},
        "episodes_per_scenario": 2,
        "canonical": True,
    }))
    out = tmp_path / "pin"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    corpus = (out / "corpus.jsonl").read_bytes()
    assert corpus.count(b'"error_kind":"internal"') == 6
    assert hashlib.sha256(corpus).hexdigest() == "e5daf50f61f5f2094fe62f0a22c8dd47927e8622166f2a4d0ac309e5ed4a624a"


def test_failure_stub_corpus_bytes_hold_in_forked_workers(tmp_path, monkeypatch):
    # The same pinned run at --parallel 2: its external agent runs in a worker.
    monkeypatch.setenv("SKYBENCH_PARALLEL", "2")
    test_failure_stub_corpus_bytes_are_pinned(tmp_path)


def _builtin_scenario_doc() -> dict:
    return json.loads((resources.files("skybench.data") / "scenarios" / "s01_thermal_survey.json").read_text("utf-8"))


# sha256 of S01's corpus with the target at the start and no capture, for
# safe_pilot and adaptive_pilot: generate --canonical --episodes-per-scenario 2.
COMPLETED_PHASE_PIN = "652f7978790f3c7ae21438ec3106b0b248f63b54c4ac7e71e268eb2ecba89745"


def test_supervisor_turns_after_completion_are_pinned(tmp_path):
    # The mission completes at the first step, so every later supervisor
    # turn comes from the completed phase, which no built-in episode reaches.
    scenario = _builtin_scenario_doc()
    scenario["mission"]["target"] = scenario["initial_state"]["position"]
    del scenario["mission"]["capture_sensor"]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "run"
    assert main([
        "generate", "--scenarios", str(path), "--agents", "safe_pilot,adaptive_pilot",
        "--episodes-per-scenario", "2", "--canonical", "--out", str(out),
    ]) == EXIT_OK
    corpus = (out / "corpus.jsonl").read_bytes()
    docs = [json.loads(line) for line in corpus.splitlines()]
    assert len(docs) == 4
    for doc in docs:
        assert [t["intent"] for t in doc["turns"] if t["role"] == "user"][1:] == [
            "acknowledge completion; archive the mission log and stand by",
            "confirm mission results and verify the final state",
            "acknowledge completion; archive the mission log and stand by",
        ]
        assert doc["final_state"]["mission_completed"]
    assert hashlib.sha256(corpus).hexdigest() == COMPLETED_PHASE_PIN


_ECHO_POLICY = (
    "import json, sys\n"
    "for line in sys.stdin:\n"
    "    json.loads(line)\n"
    "    print(json.dumps({'intent': 'monitoring pass ' + sys.argv[1], 'action': None}), flush=True)\n"
)


@pytest.mark.parametrize("change", ["calibration", "scenario", "tools", "external_argv"])
def test_resume_discards_records_of_changed_inputs(tmp_path, change):
    import sys

    scenario = _builtin_scenario_doc()
    targets = {name: dict(stats) for name, stats in DEFAULT_TARGETS.items()}
    tools = {"tools": [{"name": "read_telemetry", "action_class": "transmit"}]}
    argv = [sys.executable, "-c", _ECHO_POLICY, "alpha"]
    inputs = tmp_path / "inputs"
    (inputs / "scenarios").mkdir(parents=True)

    def run(out: Path) -> bytes:
        (inputs / "scenarios" / "s01.json").write_text(json.dumps(scenario))
        (inputs / "calibration.json").write_text(json.dumps(targets))
        (inputs / "tools.json").write_text(json.dumps(tools))
        (inputs / "config.json").write_text(json.dumps({
            "scenarios": str(inputs / "scenarios"),
            "calibration": str(inputs / "calibration.json"),
            "tools": str(inputs / "tools.json"),
            "agents": ["safe_pilot", "probe"],
            "external_agents": {"probe": argv},
            "episodes_per_scenario": 2,
            "canonical": True,
        }))
        assert main(["generate", "--config", str(inputs / "config.json"), "--out", str(out)]) == EXIT_OK
        return (out / "corpus.jsonl").read_bytes()

    first = run(tmp_path / "run")
    if change == "calibration":
        targets["eMBB"].update(latency_median_ms=30.0, latency_p90_ms=60.0)
    elif change == "scenario":
        scenario["description"] = "thermal survey of the south field"
    elif change == "tools":
        tools["tools"][0]["action_class"] = "maneuver"
    else:
        argv[-1] = "beta"
    rerun = run(tmp_path / "run")
    assert rerun == run(tmp_path / "fresh")
    assert rerun != first


@pytest.mark.parametrize("number", ["1e999", "-1e999", "NaN", "Infinity", "1" + "0" * 400])
def test_external_reply_with_a_number_no_record_can_hold_makes_stubs(tmp_path, number):
    import sys

    policy = (
        "import json, sys\n"
        "for line in sys.stdin:\n"
        "    json.loads(line)\n"
        "    print('{\"intent\": \"fly far\", \"action\": {\"protocol\": \"mcp\", \"name\": \"set_waypoint\",'\n"
        f"          ' \"args\": {{\"x\": {number}, \"y\": 0.0, \"z\": 60.0}}}}}}', flush=True)\n"
    )
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "agents": ["probe"],
        "external_agents": {"probe": [sys.executable, "-c", policy]},
        "episodes_per_scenario": 1,
        "canonical": True,
    }))
    out = tmp_path / "run"
    assert main(["generate", "--config", str(config), "--out", str(out)]) == EXIT_OK
    text = (out / "corpus.jsonl").read_text()
    assert "NaN" not in text and "Infinity" not in text
    docs = [json.loads(line) for line in text.splitlines()]
    assert [(doc["kind"], doc["error_kind"]) for doc in docs] == [("failure_stub", "internal")] * 3


def test_config_hash_reads_input_documents_not_their_text(tmp_path):
    path = tmp_path / "calibration.json"
    targets = {name: dict(stats) for name, stats in DEFAULT_TARGETS.items()}

    def manifest_hash(text: str) -> str:
        path.write_text(text)
        out = tmp_path / "run"
        assert main([
            "generate", "--calibration", str(path), "--agents", "safe_pilot",
            "--episodes-per-scenario", "1", "--canonical", "--out", str(out),
        ]) == EXIT_OK
        return json.loads((out / MANIFEST_NAME).read_text())["config_hash"]

    compact = manifest_hash(json.dumps(targets))
    assert manifest_hash(json.dumps(targets, indent=4, sort_keys=True)) == compact
    # A change in the seventh significant digit, which six-digit canonical
    # floats would hide, is a different input.
    targets[URLLC]["latency_median_ms"] = 7.000001
    assert manifest_hash(json.dumps(targets)) != compact


def test_generate_reads_each_input_file_once(tmp_path, monkeypatch):
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    s01 = _builtin_scenario_doc()
    (scenarios / "a.json").write_text(json.dumps(s01))
    (scenarios / "b.json").write_text(json.dumps({**s01, "scenario_id": "s01b"}))
    calibration = tmp_path / "calibration.json"
    calibration.write_text(json.dumps(DEFAULT_TARGETS))
    tools = tmp_path / "tools.json"
    tools.write_text(json.dumps({"tools": [{"name": "deploy_beacon", "action_class": "transmit"}]}))
    reads: dict[Path, int] = {}
    globs: dict[Path, int] = {}
    read_text, glob = Path.read_text, Path.glob

    def counting_read_text(self, *args, **kwargs):
        reads[self.resolve()] = reads.get(self.resolve(), 0) + 1
        return read_text(self, *args, **kwargs)

    def counting_glob(self, *args, **kwargs):
        globs[self.resolve()] = globs.get(self.resolve(), 0) + 1
        return glob(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting_read_text)
    monkeypatch.setattr(Path, "glob", counting_glob)
    assert main([
        "generate", "--scenarios", str(scenarios), "--calibration", str(calibration), "--tools", str(tools),
        "--agents", "safe_pilot", "--episodes-per-scenario", "1", "--canonical", "--out", str(tmp_path / "run"),
    ]) == EXIT_OK
    inputs = [scenarios / "a.json", scenarios / "b.json", calibration, tools]
    assert {path: reads.get(path.resolve(), 0) for path in inputs} == {path: 1 for path in inputs}
    assert globs == {scenarios.resolve(): 1}


def test_stub_counts_come_from_the_records(tmp_path, capsys):
    import sys

    # A valid episode whose line holds the text "kind":"failure_stub".
    policy = (
        "import json, sys\n"
        "for line in sys.stdin:\n"
        "    json.loads(line)\n"
        "    action = {'protocol': 'mcp', 'name': 'read_telemetry_x', 'args': {'kind': 'failure_stub'}}\n"
        "    print(json.dumps({'intent': 'probe the telemetry feed', 'action': action}), flush=True)\n"
    )
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "agents": ["probe"],
        "external_agents": {"probe": [sys.executable, "-c", policy]},
        "episodes_per_scenario": 1,
        "canonical": True,
    }))
    out = tmp_path / "run"
    for _ in range(2):  # a fresh run, then a resume that keeps every line
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert "(3 episodes, 0 stubs)" in capsys.readouterr().out
        assert b'"kind":"failure_stub"' in (out / "corpus.jsonl").read_bytes()
        counts = json.loads((out / MANIFEST_NAME).read_text())["counts"]
        assert counts == {"jobs": 3, "episodes": 3, "failure_stubs": 0}


@pytest.mark.parametrize("manifest", [b"[]", b'"text"', b"\xff", b"{broken"])
def test_unreadable_manifest_means_regenerate(tmp_path, manifest):
    out = tmp_path / "run"
    argv = ["generate", "--agents", "safe_pilot", "--episodes-per-scenario", "1", "--canonical", "--out", str(out)]
    assert main(argv) == EXIT_OK
    corpus = out / "corpus.jsonl"
    full = corpus.read_bytes()
    stale = [json.dumps({"episode_id": json.loads(line)["episode_id"]}) for line in full.decode().splitlines()]
    corpus.write_text("\n".join(stale) + "\n")
    (out / MANIFEST_NAME).write_bytes(manifest)
    assert main(argv) == EXIT_OK
    assert corpus.read_bytes() == full
    assert main(["score", "--out", str(out)]) == EXIT_OK
    (out / MANIFEST_NAME).write_bytes(manifest)
    assert main(["aggregate", "--out", str(out)]) == EXIT_OK


def test_a_failed_manifest_write_leaves_no_manifest_to_resume_from(tmp_path, monkeypatch):
    calibration = tmp_path / "calibration.json"
    targets = {name: dict(stats) for name, stats in DEFAULT_TARGETS.items()}
    targets["eMBB"].update(latency_median_ms=30.0, latency_p90_ms=60.0)
    calibration.write_text(json.dumps(targets))
    argv = ["generate", "--agents", "safe_pilot", "--episodes-per-scenario", "2", "--canonical", "--out"]
    fresh, out = tmp_path / "fresh", tmp_path / "run"
    assert main(argv + [str(fresh)]) == EXIT_OK
    assert main(argv + [str(out)]) == EXIT_OK
    write_text = Path.write_text

    def disk_full(self, *args, **kwargs):
        if self.name == MANIFEST_NAME:
            raise OSError(28, "No space left on device")
        return write_text(self, *args, **kwargs)

    # Another calibration gives other records under the same ids; its corpus
    # is written, its manifest is not.
    monkeypatch.setattr(Path, "write_text", disk_full)
    assert main(argv + [str(out), "--calibration", str(calibration)]) == EXIT_INPUT
    assert (out / "corpus.jsonl").read_bytes() != (fresh / "corpus.jsonl").read_bytes()
    assert not (out / MANIFEST_NAME).exists()
    monkeypatch.undo()
    assert main(argv + [str(out)]) == EXIT_OK
    for name in ("corpus.jsonl", MANIFEST_NAME):
        assert (out / name).read_bytes() == (fresh / name).read_bytes()


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_a_run_that_faults_midway_leaves_the_previous_output_whole(tmp_path, capsys, monkeypatch, parallel):
    import skybench.cli as cli

    out = tmp_path / "run"
    argv = ["generate", "--agents", "safe_pilot", "--episodes-per-scenario", "2", "--canonical", "--out", str(out)]
    assert main(argv) == EXIT_OK
    before = {name: (out / name).read_bytes() for name in ("corpus.jsonl", MANIFEST_NAME)}
    calls = []
    run_attempts = cli.run_attempts

    def fault_from_the_third_job_on(*args, **kwargs):
        calls.append(None)
        if len(calls) >= 3:
            raise RuntimeError("physics bug")
        return run_attempts(*args, **kwargs)

    monkeypatch.setattr(cli, "run_attempts", fault_from_the_third_job_on)
    assert main(argv + ["--seed", "7", "--parallel", parallel]) == 3
    assert capsys.readouterr().err == "internal error: physics bug\n"
    assert {name: (out / name).read_bytes() for name in before} == before


@pytest.mark.parametrize("fault, code, message", [
    (RuntimeError("physics bug"), EXIT_INTERNAL, "internal error: physics bug\n"),
    (ScenarioError("scenario S02 cannot be flown"), EXIT_INPUT, "error: scenario S02 cannot be flown\n"),
], ids=["internal", "input"])
def test_a_fault_in_a_forked_worker_exits_as_at_parallel_1(tmp_path, capsys, monkeypatch, fault, code, message):
    import skybench.cli as cli

    generator = os.getpid()
    run_attempts = cli.run_attempts

    def fault_in_a_worker(*args, **kwargs):
        if os.getpid() != generator:
            raise fault
        return run_attempts(*args, **kwargs)

    monkeypatch.setattr(cli, "run_attempts", fault_in_a_worker)
    out = tmp_path / "run"
    argv = ["generate", "--agents", "safe_pilot", "--episodes-per-scenario", "2", "--canonical", "--out", str(out)]
    assert main(argv + ["--parallel", "2"]) == code
    assert capsys.readouterr().err == message
    assert not (out / "corpus.jsonl").exists()
    # Every worker has been reaped.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_that_dies_is_an_internal_error(tmp_path, capsys, monkeypatch):
    import skybench.cli as cli

    generator = os.getpid()
    run_attempts = cli.run_attempts

    def die_in_a_worker(*args, **kwargs):
        if os.getpid() != generator:
            os._exit(9)
        return run_attempts(*args, **kwargs)

    monkeypatch.setattr(cli, "run_attempts", die_in_a_worker)
    out = tmp_path / "run"
    argv = ["generate", "--agents", "safe_pilot", "--episodes-per-scenario", "2", "--parallel", "3", "--out", str(out)]
    assert main(argv) == EXIT_INTERNAL
    assert re.fullmatch(r"internal error: generate worker \d+ ended early\n", capsys.readouterr().err)
    assert not (out / "corpus.jsonl").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_scenarios_that_share_an_id_exit_two_before_any_work(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["generate", "--agents", "safe_pilot", "--episodes-per-scenario", "1", "--out", str(out)]) == EXIT_OK
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    s01 = _builtin_scenario_doc()
    (scenarios / "a.json").write_text(json.dumps(s01))
    (scenarios / "b.json").write_text(json.dumps({**s01, "description": "thermal survey of the south field"}))
    assert main([
        "generate", "--scenarios", str(scenarios), "--agents", "safe_pilot", "--episodes-per-scenario", "2",
        "--canonical", "--out", str(out),
    ]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: more than one scenario has the id {s01['scenario_id']!r}\n"
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_jobs_that_share_an_episode_id_exit_two_before_any_work(tmp_path, capsys):
    # Scenario S01 with agent a-b and scenario S01-a with agent b both give
    # the episode id S01-a-b-0000, so one job would silently take the other's place.
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    s01 = _builtin_scenario_doc()
    (scenarios / "a.json").write_text(json.dumps(s01))
    (scenarios / "b.json").write_text(json.dumps({**s01, "scenario_id": "S01-a"}))
    argv = [sys.executable, "-c", _ECHO_POLICY, "alpha"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "scenarios": str(scenarios),
        "agents": ["a-b", "b"],
        "external_agents": {"a-b": argv, "b": argv},
        "episodes_per_scenario": 1,
        "canonical": True,
    }))
    out = tmp_path / "run"
    assert main(["generate", "--config", str(config), "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: the jobs of scenario 'S01' with agent 'a-b' and of scenario 'S01-a' with agent 'b' "
        "share the episode id 'S01-a-b-0000'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("number", ["1" + "0" * 400, "9" * 5000, "1e999"], ids=["401 digits", "5000 digits", "1e999"])
def test_input_file_with_a_number_no_record_can_hold_exits_two(tmp_path, capsys, number):
    scenario = _builtin_scenario_doc()
    scenario["initial_state"]["position"][0] = "@"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario).replace('"@"', number))
    out = tmp_path / "run"
    assert main([
        "generate", "--scenarios", str(path), "--agents", "safe_pilot", "--episodes-per-scenario", "1",
        "--out", str(out),
    ]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"error: cannot read scenario {path}: not well-formed JSON: ")
    assert not out.exists()


def test_input_file_that_is_not_utf8_exits_two(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_bytes(b'{"scenario_id": "\xff"}')
    out = tmp_path / "run"
    assert main(["generate", "--scenarios", str(path), "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"error: cannot read scenario {path}: 'utf-8' codec can't decode")
    assert not out.exists()


def test_unknown_agent_is_named_before_any_input_file_is_read(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    argv = ["generate", "--agents", "nope", "--calibration", str(missing), "--out", str(tmp_path / "run")]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: unknown agent 'nope'")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--episodes-per-scenario", "0"],
        ["generate", "--parallel", "0"],
        ["generate", "--agents", ""],
        ["generate", "--agents", "safe_pilot,safe_pilot"],
        ["generate", "--agents", "nobody"],
        ["aggregate", "--episode-budget", "-3"],
    ],
)
def test_bad_numbers_and_agent_lists_exit_two(tmp_path, capsys, argv):
    out = tmp_path / "run"
    assert cmd_generate(tiny_config(out, agents=("safe_pilot",), episodes_per_scenario=1)) == EXIT_OK
    assert cmd_score(str(out)) == EXIT_OK
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("user_prompts", "begin", "user_prompts must be a list of non-blank strings"),
        ("user_prompts", [1, 2], "user_prompts must be a list of non-blank strings"),
        ("user_prompts", ["take off", "  "], "user_prompts must be a list of non-blank strings"),
        ("tags", "clean", "tags must be a list of strings"),
        ("tags", ["clean", 3], "tags must be a list of strings"),
    ],
)
def test_generate_rejects_bad_scenario_lists(tmp_path, capsys, key, value, message):
    scenario = _builtin_scenario_doc()
    scenario[key] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "run"
    assert main([
        "generate", "--scenarios", str(path), "--episodes-per-scenario", "1",
        "--agents", "safe_pilot", "--out", str(out),
    ]) == EXIT_INPUT
    assert f"error: {message}" in capsys.readouterr().err
    assert not (out / "corpus.jsonl").exists()


def test_generate_rejects_bad_disturbance_inputs(tmp_path, capsys):
    bad = [(key, -0.5) for key in ("sigma_pos_m", "sigma_vel_mps", "clip_sigmas")]
    bad += [("sigma_pos_m", float("nan")), ("sigma_vel_mps", float("inf"))]
    for i, (key, value) in enumerate(bad):
        scenario = _builtin_scenario_doc()
        scenario["disturbance"][key] = value
        path = tmp_path / f"bad_{i}.json"
        path.write_text(json.dumps(scenario))
        assert main([
            "generate", "--scenarios", str(path), "--episodes-per-scenario", "1",
            "--agents", "safe_pilot", "--out", str(tmp_path / "run"),
        ]) == EXIT_INPUT, (key, value)
        _assert_scenario_rejected(scenario, path, capsys.readouterr().err, "malformed scenario document")


@pytest.mark.parametrize(
    "config, env",
    [
        ([], {}),
        ({"episode_seed_set": ["a"]}, {}),
        ({"episode_seed_set": [1.5]}, {}),
        ({"episode_seed_set": 7}, {}),
        ({"seed": -1}, {}),
        ({"agents": 5}, {}),
        ({"external_agents": []}, {}),
        ({"external_agents": {"probe": "python policy.py"}}, {}),
        ({}, {"SKYBENCH_SEED": "abc"}),
        ({}, {"SKYBENCH_PARALLEL": "two"}),
        ({"canonical": "false"}, {}),
        ({"canonical": 1}, {}),
        ({"canonical": None}, {}),
        ({}, {"SKYBENCH_CANONICAL": "true"}),
        ({}, {"SKYBENCH_CANONICAL": ""}),
    ],
)
def test_bad_config_and_environment_values_exit_two(tmp_path, capsys, monkeypatch, config, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    if isinstance(config, dict):
        config = {"agents": ["safe_pilot"], **config}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert main(["generate", "--config", str(path), "--episodes-per-scenario", "1", "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def _assert_scenario_rejected(scenario: dict, path: Path, err: str, message: str) -> None:
    """`generate` printed `message`; or, for a document that holds NaN or
    Infinity, the strict read refused its file, and load_scenario, which also
    takes documents built in Python, refuses the document with `message`."""
    text = path.read_text()
    if "NaN" in text or "Infinity" in text:
        assert err.startswith(f"error: cannot read scenario {path}: not well-formed JSON: ")
        assert err.endswith(" is not a JSON value\n")
        with pytest.raises(SkybenchError, match=re.escape(message)):
            load_scenario(scenario)
    else:
        assert f"error: {message}" in err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(peers=[]), "peers must be an object"),
        (lambda doc: doc.update(vehicle=[]), "vehicle must be an object"),
        (lambda doc: doc.update(network=[]), "network must be an object"),
        (lambda doc: doc.update(disturbance="none"), "disturbance must be an object"),
        (lambda doc: doc.update(peers={"P9": []}), "peer P9 must have a non-empty list of positions"),
        (lambda doc: doc["initial_state"].update(sensors="IMU"), "initial_state.sensors must be a list of strings"),
        (lambda doc: doc["vehicle"].update(max_thrust_n=-5.0), "malformed scenario document: max_thrust_n must be positive, got -5.0"),
        (lambda doc: doc["vehicle"].update(cruise_speed_mps=-1.0), "malformed scenario document: cruise_speed_mps must be positive, got -1.0"),
        (lambda doc: doc["vehicle"].update(cruise_speed_mps=0.0), "malformed scenario document: cruise_speed_mps must be positive, got 0.0"),
        (lambda doc: doc["vehicle"].update(mass_kg=float("nan")), "malformed scenario document: mass_kg must be positive, got nan"),
        (lambda doc: doc["mission"].update(capture_sensor=5), "mission.capture_sensor must be a non-blank string or null, got 5"),
        (lambda doc: doc["mission"].update(capture_sensor=" "), "mission.capture_sensor must be a non-blank string or null, got ' '"),
        (lambda doc: doc["initial_state"].update(battery_pct=float("nan")), "initial_state.battery_pct must be finite, got nan"),
        (lambda doc: doc["initial_state"].update(battery_pct=float("inf")), "initial_state.battery_pct must be finite, got inf"),
        (lambda doc: doc["initial_state"].update(battery_pct=float("-inf")), "initial_state.battery_pct must be finite, got -inf"),
        (lambda doc: doc["mission"].update(arrival_tolerance_m=-1.0), "mission.arrival_tolerance_m must be positive, got -1.0"),
        (lambda doc: doc["mission"].update(arrival_tolerance_m=0.0), "mission.arrival_tolerance_m must be positive, got 0.0"),
        (lambda doc: doc["mission"].update(arrival_tolerance_m=float("nan")), "mission.arrival_tolerance_m must be positive, got nan"),
        (lambda doc: doc["initial_state"].update(yaw_rad=float("nan")), "initial_state.yaw_rad must be finite, got nan"),
        (lambda doc: doc["initial_state"].update(velocity=[float("inf"), 0.0, 0.0]), "initial velocity must be finite, got inf"),
        (lambda doc: doc["initial_state"].update(position=[0.0, float("nan"), 60.0]), "initial position must be finite, got nan"),
        (lambda doc: doc["mission"].update(target=[14.0, 8.0, -float("inf")]), "mission target must be finite, got -inf"),
        (lambda doc: doc.update(peers={"P1": [[0.0, 0.0, 60.0], [float("nan"), 0.0, 60.0]]}), "peer P1 position must be finite, got nan"),
        (lambda doc: doc["airspace"].update(z_min_m=float("nan")), "airspace.z_min_m must be finite, got nan"),
        (lambda doc: doc["airspace"].update(z_max_m=float("inf")), "airspace.z_max_m must be finite, got inf"),
        (lambda doc: doc["airspace"].update(geofences=[{"center": [float("inf"), 0.0], "radius_m": 5.0}]), "geofence center must be finite, got inf"),
        (lambda doc: doc["airspace"].update(geofences=[{"center": [50.0, 50.0], "radius_m": float("nan")}]), "malformed scenario document: geofence radius must be positive, got nan"),
        (lambda doc: doc["airspace"].update(geofences=[{"center": [1], "radius_m": 5.0}]), "geofence center must be a 2-vector"),
        (lambda doc: doc["airspace"].update(geofences=[{"center": [1.0, 2.0, 3.0], "radius_m": 5.0}]), "geofence center must be a 2-vector"),
        (lambda doc: doc.update(scenario_id=""), "scenario_id must be a non-empty string, got ''"),
        (lambda doc: doc.update(scenario_id=7), "scenario_id must be a non-empty string, got 7"),
        (lambda doc: doc.update(scenario_id=["S01"]), "scenario_id must be a non-empty string, got ['S01']"),
        (lambda doc: doc["initial_state"].update(battery_pct=101), "initial_state.battery_pct must lie in [0, 100], got 101.0"),
        (lambda doc: doc["initial_state"].update(battery_pct=150.0), "initial_state.battery_pct must lie in [0, 100], got 150.0"),
        (lambda doc: doc["initial_state"].update(battery_pct=1e308), "initial_state.battery_pct must lie in [0, 100], got 1e+308"),
        (lambda doc: doc["initial_state"].update(battery_pct=-1.0), "initial_state.battery_pct must lie in [0, 100], got -1.0"),
        (lambda doc: doc["airspace"].update(separation_margin_m=-1.0), "malformed scenario document: separation_margin_m must be finite and at least 0, got -1.0"),
        (lambda doc: doc["airspace"].update(separation_margin_m=float("nan")), "malformed scenario document: separation_margin_m must be finite and at least 0, got nan"),
        (lambda doc: doc["airspace"].update(separation_margin_m=float("inf")), "malformed scenario document: separation_margin_m must be finite and at least 0, got inf"),
        (lambda doc: doc["network"].update(slice_switch_prob=5.0), "network.slice_switch_prob must lie in [0, 1], got 5.0"),
        (lambda doc: doc["network"].update(slice_switch_prob=-0.5), "network.slice_switch_prob must lie in [0, 1], got -0.5"),
        (lambda doc: doc["network"].update(slice_switch_prob=float("nan")), "network.slice_switch_prob must lie in [0, 1], got nan"),
        (lambda doc: doc["network"].update(initial_slice="5G"), "unknown slice '5G'"),
        (lambda doc: doc["mission"].update(target=[14.0, 8.0]), "mission target must be a 3-vector"),
        (lambda doc: doc["airspace"].update(z_min_m=120.0, z_max_m=120.0), "malformed scenario document: z_min must be below z_max"),
        (lambda doc: doc.update(weather=[]), "weather must be an object, got list"),
        (lambda doc: doc.update(weather="calm"), "weather must be an object, got str"),
        (lambda doc: doc["weather"].update(wind_mps=float("nan")), "weather.wind_mps must be finite, got nan"),
        (lambda doc: doc["weather"].update(visibility_km=float("-inf")), "weather.visibility_km must be finite, got -inf"),
        (lambda doc: doc["weather"].update(gusts={"peaks_mps": [4.0, float("inf")]}), "weather.gusts.peaks_mps[1] must be finite, got inf"),
        # Numbers must be JSON numbers and the description a string: none is
        # converted, so true is no 1 and "2" no 2.
        (lambda doc: doc["vehicle"].update(mass_kg=True), "vehicle.mass_kg must be a number, got True"),
        (lambda doc: doc["vehicle"].update(mass_kg="2"), "vehicle.mass_kg must be a number, got '2'"),
        (lambda doc: doc["vehicle"].update(max_thrust_n="60"), "vehicle.max_thrust_n must be a number, got '60'"),
        (lambda doc: doc["vehicle"].update(cruise_speed_mps=True), "vehicle.cruise_speed_mps must be a number, got True"),
        (lambda doc: doc["mission"].update(target=[True, 8, 60]), "mission target must be a number, got True"),
        (lambda doc: doc["mission"].update(arrival_tolerance_m=True), "mission.arrival_tolerance_m must be a number, got True"),
        (lambda doc: doc["disturbance"].update(sigma_pos_m="0.5"), "disturbance.sigma_pos_m must be a number, got '0.5'"),
        (lambda doc: doc["disturbance"].update(sigma_vel_mps="0.2"), "disturbance.sigma_vel_mps must be a number, got '0.2'"),
        (lambda doc: doc["disturbance"].update(clip_sigmas="3"), "disturbance.clip_sigmas must be a number, got '3'"),
        (lambda doc: doc["initial_state"].update(battery_pct="96"), "initial_state.battery_pct must be a number, got '96'"),
        (lambda doc: doc["initial_state"].update(yaw_rad=False), "initial_state.yaw_rad must be a number, got False"),
        (lambda doc: doc["initial_state"].update(velocity=[0, "0", 0]), "initial velocity must be a number, got '0'"),
        (lambda doc: doc["airspace"].update(z_min_m="20"), "airspace.z_min_m must be a number, got '20'"),
        (lambda doc: doc["airspace"].update(separation_margin_m="10"), "airspace.separation_margin_m must be a number, got '10'"),
        (lambda doc: doc["airspace"].update(geofences=[{"center": [500.0, 500.0], "radius_m": "5"}]), "geofence radius_m must be a number, got '5'"),
        (lambda doc: doc["network"].update(slice_switch_prob=True), "network.slice_switch_prob must be a number, got True"),
        (lambda doc: doc.update(peers={"P1": [[0, 50, True]]}), "peer P1 position must be a number, got True"),
        (lambda doc: doc.update(description=["a", "b"]), "description must be a string, got ['a', 'b']"),
    ],
)
def test_generate_rejects_scenario_sections_of_the_wrong_type(tmp_path, capsys, edit, message):
    scenario = _builtin_scenario_doc()
    edit(scenario)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "run"
    assert main([
        "generate", "--scenarios", str(path), "--episodes-per-scenario", "1",
        "--agents", "safe_pilot", "--out", str(out),
    ]) == EXIT_INPUT
    _assert_scenario_rejected(scenario, path, capsys.readouterr().err, message)
    assert not (out / "corpus.jsonl").exists()


@pytest.mark.parametrize("json_file", [True, False], ids=["file holding []", "directory without json"])
def test_generate_rejects_scenario_paths_with_no_scenario(tmp_path, capsys, json_file):
    root = tmp_path / "scenarios"
    root.mkdir()
    (root / "notes.txt").write_text("not a scenario")
    if json_file:
        path, message = root / "scenario.json", "a scenario must be an object, got list"
        path.write_text("[]")
    else:
        path, message = root, f"no scenario files under {root}"
    out = tmp_path / "run"
    assert main(["generate", "--scenarios", str(path), "--agents", "safe_pilot", "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("stage", ["score", "analytics"])
def test_read_side_stages_need_an_existing_corpus(tmp_path, capsys, stage):
    corpus = tmp_path / "missing.jsonl"
    out = tmp_path / "run"
    assert main([stage, "--corpus", str(corpus), "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: corpus not found: {corpus}\n"
    assert not out.exists()


def test_failed_capture_does_not_complete_the_mission(tmp_path):
    scenario = _builtin_scenario_doc()
    scenario["mission"]["capture_sensor"] = "Sonar"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "run"
    assert main([
        "generate", "--scenarios", str(path), "--episodes-per-scenario", "2",
        "--agents", "safe_pilot", "--canonical", "--out", str(out),
    ]) == EXIT_OK
    docs = [json.loads(line) for line in (out / "corpus.jsonl").read_text().splitlines()]
    assert len(docs) == 2
    for doc in docs:
        captures = [t["observation"]["result"] for t in doc["turns"] if (t.get("action") or {}).get("name") == "capture_image"]
        assert captures and all(result["status"] == "failed" for result in captures)
        assert doc["final_state"]["mission_completed"] is False


def test_external_agent_via_config(tmp_path):
    import sys

    out = tmp_path / "extrun"
    policy = (
        "import json, sys\n"
        "for line in sys.stdin:\n"
        "    json.loads(line)\n"
        "    print(json.dumps({'intent': 'external monitoring pass', 'action': None}), flush=True)\n"
    )
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "agents": ["line_probe"],
        "external_agents": {"line_probe": [sys.executable, "-c", policy]},
        "episodes_per_scenario": 1,
        "out": str(out),
        "canonical": True,
    }))
    assert main(["generate", "--config", str(cfg)]) == EXIT_OK
    lines = (out / "corpus.jsonl").read_text().splitlines()
    assert len(lines) == 3
    assert all('"model":"line_probe"' in line for line in lines)


def test_stalled_external_policy_ends_in_an_internal_stub(tmp_path, fresh_python):
    import sys

    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(_builtin_scenario_doc()))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "agents": ["stalled"],
        "external_agents": {"stalled": [sys.executable, "-c", "import sys, time; sys.stdin.readline(); time.sleep(60)"]},
        "scenarios": str(scenario),
        "episodes_per_scenario": 1,
        "canonical": True,
    }))
    out = tmp_path / "run"
    # Each of the three attempts waits out the shortened deadline.
    code, _, err = fresh_python(
        "import sys\n"
        "from skybench import agents\n"
        "from skybench.cli import main\n"
        "agents.POLICY_TURN_TIMEOUT_S = 0.2\n"
        f"sys.exit(main(['generate', '--config', {str(cfg)!r}, '--out', {str(out)!r}]))\n",
        timeout=30,
    )
    assert code == EXIT_OK, err
    (doc,) = [json.loads(line) for line in (out / "corpus.jsonl").read_text().splitlines()]
    assert doc["kind"] == "failure_stub" and doc["error_kind"] == "internal"


# An external policy that answers every request, ignores SIGTERM and keeps
# running after its input closes; it logs its pid to the file it is given.
_STUBBORN_POLICY = (
    "import json, os, signal, sys, time\n"
    "signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
    "with open(sys.argv[1], 'a') as log:\n"
    "    log.write(f'{os.getpid()}\\n')\n"
    "for line in sys.stdin:\n"
    "    print(json.dumps({'intent': 'monitoring pass', 'action': None}), flush=True)\n"
    "time.sleep(30)\n"
)


def test_an_external_policy_that_ignores_sigterm_is_killed_when_its_job_ends(tmp_path, fresh_python):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(_builtin_scenario_doc()))
    pids = tmp_path / "pids.txt"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "agents": ["stubborn"],
        "external_agents": {"stubborn": [sys.executable, "-c", _STUBBORN_POLICY, str(pids)]},
        "scenarios": str(scenario),
        "episodes_per_scenario": 1,
        "canonical": True,
    }))
    out = tmp_path / "run"
    # The script fails when a policy it started through generate still runs.
    code, _, err = fresh_python(
        "import os, sys\n"
        "from skybench import agents\n"
        "from skybench.cli import main\n"
        "agents.POLICY_STOP_GRACE_S = 0.2\n"
        f"code = main(['generate', '--config', {str(cfg)!r}, '--out', {str(out)!r}])\n"
        f"for pid in map(int, open({str(pids)!r}).read().split()):\n"
        "    try:\n"
        "        os.kill(pid, 0)\n"
        "    except ProcessLookupError:\n"
        "        continue\n"
        "    sys.exit(f'policy {pid} still runs')\n"
        "sys.exit(code)\n",
        timeout=30,
    )
    assert code == EXIT_OK, err
    assert sorted(path.name for path in out.iterdir()) == ["corpus.jsonl", "manifest.json"]
    (doc,) = [json.loads(line) for line in (out / "corpus.jsonl").read_text().splitlines()]
    assert "kind" not in doc and doc["metadata"]["model"] == "stubborn"


@pytest.mark.skipif(sys.platform != "linux", reason="reaps orphans through PR_SET_CHILD_SUBREAPER")
def test_a_killed_parallel_generate_leaves_no_worker_behind(tmp_path, fresh_python):
    killed, whole = tmp_path / "killed", tmp_path / "whole"
    serial = ["generate", "--episodes-per-scenario", "20", "--canonical", "--out"]
    argv = serial[:1] + ["--parallel", "2"] + serial[1:]
    # The script becomes the subreaper of the killed run's workers, so that
    # each one that ends is reaped and leaves the process group.
    code, _, err = fresh_python(
        "import ctypes, os, signal, subprocess, sys, time\n"
        "from pathlib import Path\n"
        "prctl = ctypes.CDLL(None, use_errno=True).prctl\n"
        "prctl.argtypes, prctl.restype = [ctypes.c_int] + [ctypes.c_ulong] * 4, ctypes.c_int\n"
        "assert prctl(36, 1, 0, 0, 0) == 0, os.strerror(ctypes.get_errno())  # PR_SET_CHILD_SUBREAPER\n"
        f"argv = [sys.executable, '-m', 'skybench.cli', *{argv!r}, {str(killed)!r}]\n"
        "proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, start_new_session=True)\n"
        "try:\n"
        f"    partial = Path({str(killed)!r}) / 'corpus.jsonl.partial'\n"
        "    while not (partial.exists() and b'\\n' in partial.read_bytes()):\n"
        "        assert proc.poll() is None, 'generate ended before it was killed'\n"
        "        time.sleep(0.001)\n"
        "    os.kill(proc.pid, signal.SIGKILL)\n"
        "    assert proc.wait() == -signal.SIGKILL\n"
        "    deadline = time.monotonic() + 10\n"
        "    while True:\n"
        "        try:\n"
        "            while os.waitpid(-1, os.WNOHANG)[0]:\n"
        "                pass\n"
        "        except ChildProcessError:\n"
        "            pass\n"
        "        try:\n"
        "            os.killpg(proc.pid, 0)\n"
        "        except ProcessLookupError:\n"
        "            break\n"
        "        assert time.monotonic() < deadline, 'a worker outlived the killed generate'\n"
        "        time.sleep(0.01)\n"
        "finally:\n"
        "    try:\n"
        "        os.killpg(proc.pid, signal.SIGKILL)\n"
        "    except ProcessLookupError:\n"
        "        pass\n",
        timeout=30,
    )
    assert code == EXIT_OK, err
    assert not (killed / "corpus.jsonl").exists()
    assert main(argv + [str(killed)]) == EXIT_OK
    assert main(serial + [str(whole)]) == EXIT_OK
    assert (killed / "corpus.jsonl").read_bytes() == (whole / "corpus.jsonl").read_bytes()


def test_generate_with_tool_extension_file(tmp_path):
    out = tmp_path / "toolrun"
    tools = tmp_path / "tools.json"
    tools.write_text(json.dumps({"tools": [{"name": "deploy_beacon", "action_class": "transmit"}]}))
    assert main([
        "generate", "--out", str(out), "--episodes-per-scenario", "1",
        "--agents", "safe_pilot", "--tools", str(tools), "--canonical",
    ]) == EXIT_OK
    assert (out / "corpus.jsonl").exists()


def _targets_without_mmtc():
    return {name: stats for name, stats in DEFAULT_TARGETS.items() if name != MMTC}


def _targets_without_jitter():
    targets = {name: dict(stats) for name, stats in DEFAULT_TARGETS.items()}
    del targets[URLLC]["jitter_mean_ms"]
    return targets


def _targets_with(slice_name: str, **stats):
    targets = {name: dict(values) for name, values in DEFAULT_TARGETS.items()}
    targets[slice_name].update(stats)
    return targets


@pytest.mark.parametrize(
    "targets, message",
    [
        (_targets_without_mmtc(), "calibration targets lack slices ['mMTC']"),
        (_targets_without_jitter(), "calibration targets for URLLC need a number for 'jitter_mean_ms'"),
        ([DEFAULT_TARGETS[URLLC]], "calibration targets must be an object keyed by slice"),
        # A clipped exponential cannot keep this mean.
        (_targets_with(MMTC, loss_mean_pct=80.0), "mMTC loss mean verification failed"),
        (_targets_with(URLLC, latency_median_ms=0), "latency quantiles must be positive"),
        (_targets_with(URLLC, jitter_mean_ms=0), "mean must be positive"),
        (_targets_with(MMTC, edge_load_mean=1.0), "edge load mean must lie in (0, 1)"),
    ],
)
def test_generate_rejects_bad_calibration_file(tmp_path, capsys, targets, message):
    path = tmp_path / "calibration.json"
    path.write_text(json.dumps(targets))
    out = tmp_path / "run"
    assert main([
        "generate", "--calibration", str(path), "--episodes-per-scenario", "2",
        "--agents", "safe_pilot", "--out", str(out), "--canonical",
    ]) == EXIT_INPUT
    assert f"error: {message}" in capsys.readouterr().err
    assert not (out / "corpus.jsonl").exists()


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"name": "read_telemetry", "action_class": "warp"}, "action_class 'warp' is not one of"),
        (["read_telemetry"], "tool registry entry must be an object"),
        ({"name": "ping", "args": [{"name": "n", "kind": "float"}]}, "argument 'n' has kind 'float'"),
        ({"name": "ping", "protocol": "a2a"}, "protocol 'a2a' is not 'mcp'"),
        ({"action_class": "transmit"}, "malformed tool registry entry: 'name'"),
        # A value of the wrong type is refused, naming its field, not converted.
        (
            {"name": 5, "args": [{"name": "x", "required": "false", "choices": "ab"}]},
            "error: a tool's name must be a string, got 5\n",
        ),
        ({"name": "ping", "action_class": 5}, "error: tool 'ping': action_class must be a string, got 5\n"),
        ({"name": "ping", "args": "x"}, "error: tool 'ping': args must be a list, got 'x'\n"),
        ({"name": "ping", "args": {"name": "x"}}, "error: tool 'ping': args must be a list, got {'name': 'x'}\n"),
        ({"name": "ping", "args": [{"name": 5}]}, "error: tool 'ping': an argument's name must be a string, got 5\n"),
        (
            {"name": "ping", "args": [{"name": "x", "kind": 5}]},
            "error: tool 'ping': argument 'x': kind must be a string, got 5\n",
        ),
        (
            {"name": "ping", "args": [{"name": "x", "required": "false"}]},
            "error: tool 'ping': argument 'x': required must be true or false, got 'false'\n",
        ),
        (
            {"name": "ping", "args": [{"name": "x", "required": 0}]},
            "error: tool 'ping': argument 'x': required must be true or false, got 0\n",
        ),
        (
            {"name": "ping", "args": [{"name": "x", "choices": "ab"}]},
            "error: tool 'ping': argument 'x': choices must be a list, got 'ab'\n",
        ),
    ],
)
def test_generate_rejects_bad_tool_file(tmp_path, capsys, entry, message):
    tools = tmp_path / "tools.json"
    tools.write_text(json.dumps({"tools": [entry]}))
    out = tmp_path / "run"
    assert main([
        "generate", "--tools", str(tools), "--episodes-per-scenario", "2",
        "--agents", "safe_pilot", "--out", str(out), "--canonical",
    ]) == EXIT_INPUT
    assert message in capsys.readouterr().err
    assert not (out / "corpus.jsonl").exists()


@pytest.mark.parametrize(
    "doc",
    [{"tools": 5}, 5, {"tools": {"name": "deploy_beacon"}}, [{"name": "deploy_beacon", "action_class": "transmit"}]],
    ids=["tools a number", "a number", "tools an object", "a bare list"],
)
def test_a_tool_file_is_an_object_whose_tools_is_a_list(tmp_path, capsys, doc):
    tools = tmp_path / "tools.json"
    tools.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main([
        "generate", "--tools", str(tools), "--episodes-per-scenario", "1",
        "--agents", "safe_pilot", "--out", str(out), "--canonical",
    ]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: a tool file must be an object whose tools is a list\n"
    assert not (out / "corpus.jsonl").exists()


@pytest.mark.parametrize("parallel", ["1", "2"])
@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["initial_state"].update(velocity=[1e160, 0.0, 0.0]),
        lambda doc: doc["mission"].update(target=[1e308, 0.0, 60.0]),
    ],
    ids=["speed overflows", "target overflows"],
)
def test_a_record_that_would_hold_nan_or_infinity_stops_generate(tmp_path, capsys, edit, parallel):
    # Finite inputs whose physics overflows: a line holding NaN or Infinity
    # is no JSON, so the fault stops the run before any corpus is written.
    scenario = _builtin_scenario_doc()
    edit(scenario)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "run"
    assert main([
        "generate", "--scenarios", str(path), "--episodes-per-scenario", "1",
        "--canonical", "--parallel", parallel, "--out", str(out),
    ]) == EXIT_INTERNAL
    assert capsys.readouterr().err == "internal error: Out of range float values are not JSON compliant\n"
    assert not (out / "corpus.jsonl").exists()


def test_a_subnormal_generation_time_scores_zero_efficiency(tmp_path):
    out = tmp_path / "run"
    assert main(["generate", "--agents", "safe_pilot", "--episodes-per-scenario", "1", "--canonical", "--out", str(out)]) == EXIT_OK
    doc = json.loads((out / "corpus.jsonl").read_text().splitlines()[0])
    doc["metadata"]["gen_time_s"] = 1e-320
    corpus = tmp_path / "tiny.jsonl"
    corpus.write_text(json.dumps(doc) + "\n")
    assert main(["score", "--out", str(out), "--corpus", str(corpus)]) == EXIT_OK
    text = (out / SCORES_NAME).read_text()
    assert "Infinity" not in text and "NaN" not in text
    record = json.loads(text)
    assert record["valid"] and record["alpha3"] > 0
    assert record["ge_per_sec"] == 0.0 and record["ge_per_1k"] == 0.0
    assert main(["aggregate", "--out", str(out)]) == EXIT_OK


def test_malformed_corpus_lines_counted_not_fatal(tmp_path):
    out = tmp_path / "messy"
    out.mkdir()
    rng = np.random.default_rng(9)
    good = record_to_line(random_episode(rng))
    (out / "corpus.jsonl").write_text(good + "\n{broken json\n" + good + "\n")
    assert cmd_score(str(out)) == EXIT_OK
    meta = json.loads((out / "scoring_meta.json").read_text())
    assert meta["malformed_lines"] == 1
    assert meta["records"] == 2


def test_non_utf8_line_is_malformed_not_fatal(tmp_path, capsys):
    out = tmp_path / "run"
    cmd_generate(tiny_config(out, agents=("safe_pilot",), episodes_per_scenario=1))
    corpus = out / "corpus.jsonl"
    good = corpus.read_bytes().splitlines()
    # A lone \r ends a line, as in text mode.
    corpus.write_bytes(
        good[0] + b"\r" + b'{"a":"\xff"}' + b"\r\n" + good[1] + b"\n[1, 2]\n" + good[2] + b"\n"
    )
    assert main(["score", "--out", str(out)]) == EXIT_OK
    meta = json.loads((out / "scoring_meta.json").read_text())
    assert (meta["records"], meta["malformed_lines"]) == (3, 2)
    assert main(["analytics", "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "analytics.json").read_text())["episodes"] == 3
    capsys.readouterr()
    assert main(["validate", str(corpus)]) == EXIT_INPUT
    assert capsys.readouterr().out.splitlines() == ["line 2: MALFORMED", "line 4: MALFORMED", "2 malformed lines"]
    # Resume skips the unreadable lines and regenerates the corpus whole.
    cmd_generate(tiny_config(out, agents=("safe_pilot",), episodes_per_scenario=1))
    assert corpus.read_bytes().splitlines() == good


@pytest.mark.parametrize(
    "key, number",
    [
        ("note", "NaN"),
        ("note", "-Infinity"),
        ("note", "1e999"),
        ("note", "9" * 5000),
        ("latency_ms", "1" + "0" * 400),
    ],
    ids=["NaN", "-Infinity", "1e999", "5000 digits", "401-digit latency"],
)
def test_corpus_line_with_a_number_no_record_can_hold_is_malformed(tmp_path, capsys, key, number):
    rng = np.random.default_rng(16)
    good = record_to_line(random_episode(rng))
    doc = episode_to_doc(random_episode(rng, structured_prob=1.0))
    if key == "note":
        next(t["observation"]["result"] for t in doc["turns"] if "result" in t.get("observation", {}))["note"] = "@"
    else:
        doc["turns"][0]["network"]["latency_ms"] = "@"
    out = tmp_path / "run"
    out.mkdir()
    corpus = out / "corpus.jsonl"
    corpus.write_text(good + "\n" + dumps_canonical(doc).replace('"@"', number) + "\n")
    assert main(["score", "--out", str(out)]) == EXIT_OK
    meta = json.loads((out / "scoring_meta.json").read_text())
    assert (meta["records"], meta["malformed_lines"]) == (1, 1)
    assert main(["analytics", "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "analytics.json").read_text())["episodes"] == 1
    capsys.readouterr()
    assert main(["validate", str(corpus)]) == EXIT_INPUT
    assert capsys.readouterr().out.splitlines() == ["line 2: MALFORMED", "1 malformed lines"]


def test_score_counts_incomplete_failure_stub_as_malformed(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    rng = np.random.default_rng(15)
    good = record_to_line(random_episode(rng))
    (out / "corpus.jsonl").write_text(good + '\n{"kind":"failure_stub","model":"x"}\n')
    assert main(["score", "--out", str(out)]) == EXIT_OK
    meta = json.loads((out / "scoring_meta.json").read_text())
    assert (meta["records"], meta["malformed_lines"]) == (1, 1)


def test_score_validates_and_builds_each_record_once(tmp_path, monkeypatch):
    import skybench.cli as cli

    out = tmp_path / "run"
    out.mkdir()
    rng = np.random.default_rng(12)
    docs = [episode_to_doc(random_episode(rng)) for _ in range(5)]
    docs[1]["turns"] = docs[1]["turns"][:7]  # invalid
    stub = failure_stub("S01-safe_pilot-0000", "S01", "safe_pilot", 42, "internal")
    (out / "corpus.jsonl").write_text("".join(dumps_canonical(d) + "\n" for d in docs + [stub]))
    calls = {"validate_episode": 0, "doc_to_episode": 0}
    for name in calls:
        def counting(*args, _name=name, _original=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
    assert cmd_score(str(out)) == EXIT_OK
    assert calls == {"validate_episode": 5, "doc_to_episode": 0}
    scores = [json.loads(line) for line in (out / SCORES_NAME).read_text().splitlines()]
    assert [s.get("valid") for s in scores] == [True, False, True, True, True, None]


def test_generate_validates_each_episode_once_and_builds_none(tmp_path, monkeypatch):
    import skybench.agents as agents
    import skybench.cli as cli
    import skybench.episode as episode

    calls = {"validate_episode": 0, "doc_to_episode": 0}
    for module in (cli, agents, episode):
        for name in calls:
            def counting(*args, _name=name, _original=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
    out = tmp_path / "run"
    assert main(["generate", "--canonical", "--out", str(out)]) == EXIT_OK
    lines = (out / "corpus.jsonl").read_text().splitlines()
    attempts = sum(json.loads(line)["metadata"]["attempts_used"] for line in lines)
    assert calls == {"validate_episode": attempts, "doc_to_episode": 0}


@pytest.mark.parametrize("field, value", [("model", 5), ("attempts_used", "x"), ("attempts_used", True)])
def test_aggregate_reads_the_score_of_an_episode_with_mistyped_metadata(tmp_path, field, value):
    out = tmp_path / "run"
    out.mkdir()
    rng = np.random.default_rng(16)
    bad = episode_to_doc(random_episode(rng))
    bad["metadata"][field] = value
    lines = [record_to_line(random_episode(rng)), json.dumps(bad)]
    (out / "corpus.jsonl").write_text("\n".join(lines) + "\n")
    assert main(["score", "--out", str(out)]) == EXIT_OK
    record = json.loads((out / SCORES_NAME).read_text().splitlines()[1])
    assert record["valid"] is False and "schema_invalid" in record["violations"]
    # The fallbacks of a missing field; the other identity keys are copied.
    assert (record["model"], record["attempts_used"]) == (
        ("unknown", bad["metadata"]["attempts_used"]) if field == "model" else ("random_model", 0)
    )
    assert (record["episode_id"], record["seed"]) == (bad["episode_id"], bad["metadata"]["seed"])
    assert main(["aggregate", "--out", str(out)]) == EXIT_OK


def test_an_integral_float_attempt_count_scores_as_its_integer(tmp_path):
    # The schema takes 2.0 for the integer 2, so score and aggregate count
    # the attempts of such a record as they count those of 2.
    rng = np.random.default_rng(17)
    docs = [episode_to_doc(random_episode(rng)) for _ in range(3)]
    outputs = []
    for number in (int, float):
        out = tmp_path / number.__name__
        out.mkdir()
        for doc in docs:
            doc["metadata"]["attempts_used"] = number(2)
        (out / "corpus.jsonl").write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        assert main(["score", "--out", str(out)]) == EXIT_OK
        assert main(["aggregate", "--out", str(out), "--episode-budget", "3"]) == EXIT_OK
        outputs.append([(out / name).read_bytes() for name in (SCORES_NAME, "leaderboard.csv")])
    scores = [json.loads(line) for line in outputs[1][0].decode().splitlines()]
    assert [(s["valid"], s["attempts_used"]) for s in scores] == [(True, 2)] * 3
    assert outputs[0] == outputs[1]


def test_lenient_score_scores_an_acknowledgement_with_foreign_tool_fields(tmp_path):
    # Lenient validation accepts an acknowledgement that also carries "tool"
    # and a non-object "result"; such a record is scored, not skipped as
    # malformed.
    out = tmp_path / "run"
    out.mkdir()
    rng = np.random.default_rng(18)
    doc = episode_to_doc(random_episode(rng, structured_prob=1.0))
    ack = next(t["observation"] for t in doc["turns"] if "from" in t.get("observation", {}))
    ack.update(tool="thirdparty", result=5)
    (out / "corpus.jsonl").write_text(json.dumps(doc) + "\n")
    assert main(["score", "--out", str(out), "--lenient"]) == EXIT_OK
    meta = json.loads((out / "scoring_meta.json").read_text())
    assert (meta["records"], meta["valid_episodes"], meta["malformed_lines"]) == (1, 1, 0)


def test_score_reads_a_turn_reference_of_any_length(tmp_path):
    # A reference past the 4,300 digits int() converts is a valid intent:
    # validate accepts it, and both scores read it as its short form.
    out = tmp_path / "run"
    out.mkdir()
    base = episode_to_doc(random_episode(np.random.default_rng(19)))
    last_agent = max(i for i, t in enumerate(base["turns"]) if t["role"] == "agent")
    pairs = [
        ("as seen in turn " + "0" * 5000 + "2", "as seen in turn 2"),
        ("as seen in turn " + "٠" * 5000 + "٣", "as seen in turn 3"),
        ("as planned for turn " + "1" * 5000, "as planned for turn 99"),
    ]
    lines = []
    for intents in pairs:
        for intent in intents:
            doc = json.loads(json.dumps(base))
            doc["turns"][last_agent]["intent"] = intent
            lines.append(json.dumps(doc))
    corpus = out / "corpus.jsonl"
    corpus.write_text("\n".join(lines) + "\n")
    assert main(["validate", str(corpus)]) == EXIT_OK
    for mode in ("--strict", "--lenient"):
        assert main(["score", "--out", str(out), mode]) == EXIT_OK
        records = [json.loads(line) for line in (out / SCORES_NAME).read_text().splitlines()]
        assert [r["valid"] for r in records] == [True] * 6
        for long_form, short_form in zip(records[::2], records[1::2]):
            assert long_form["pillars"] == short_form["pillars"]


def test_score_keeps_a_compact_entry_per_record(tmp_path):
    import tracemalloc

    out = tmp_path / "run"
    cmd_generate(tiny_config(out))
    lines = (out / "corpus.jsonl").read_text().splitlines()
    lines *= -(-2000 // len(lines))
    (out / "corpus.jsonl").write_text("\n".join(lines) + "\n")
    tracemalloc.start()
    try:
        assert cmd_score(str(out)) == EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # About 1.4 KB per record; holding a typed Episode per record until t_opt
    # is known took about 12.6 KB.
    assert peak / len(lines) < 4_000


def test_validate_lists_malformed_lines_and_goes_on(tmp_path, capsys):
    rng = np.random.default_rng(13)
    good = record_to_line(random_episode(rng))
    short = episode_to_doc(random_episode(rng))
    short["turns"] = short["turns"][:7]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join([good, "{broken json", dumps_canonical(short), "[1, 2]", "", good]) + "\n")
    assert main(["validate", str(corpus)]) == EXIT_INPUT
    assert capsys.readouterr().out.splitlines() == [
        "line 2: MALFORMED",
        "line 3: INVALID (turn_bounds)",
        "line 4: MALFORMED",
        "1 invalid records, 2 malformed lines",
    ]
    corpus.write_text("\n".join([good, "{broken json", good]) + "\n")
    assert main(["validate", str(corpus)]) == EXIT_INPUT
    assert capsys.readouterr().out.splitlines() == ["line 2: MALFORMED", "1 malformed lines"]


def test_validate_counts_incomplete_failure_stub_as_malformed(tmp_path, capsys):
    stub = dumps_canonical(failure_stub("S01-safe_pilot-0000", "S01", "safe_pilot", 42, "internal"))
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(stub + "\n")
    assert main(["validate", str(corpus)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["all records valid"]
    corpus.write_text(stub + '\n{"kind":"failure_stub","model":"x"}\n')
    assert main(["validate", str(corpus)]) == EXIT_INPUT
    assert capsys.readouterr().out.splitlines() == ["line 2: MALFORMED", "1 malformed lines"]


def test_analytics_skips_malformed_lines_with_warning(tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    rng = np.random.default_rng(14)
    good = record_to_line(random_episode(rng))
    (out / "corpus.jsonl").write_text("\n".join([good, "{broken json", good, '{"turns": []}']) + "\n")
    assert main(["analytics", "--out", str(out)]) == EXIT_OK
    assert "warning: 2 malformed lines skipped" in capsys.readouterr().err
    assert json.loads((out / "analytics.json").read_text())["episodes"] == 2


def test_analytics_builds_no_episode(tmp_path, monkeypatch):
    import skybench.cli as cli
    import skybench.episode as episode

    out = tmp_path / "run"
    assert main(["generate", "--canonical", "--episodes-per-scenario", "2", "--out", str(out)]) == EXIT_OK
    calls = 0
    for module in (cli, episode):
        def counting(*args, _original=getattr(module, "doc_to_episode"), **kwargs):
            nonlocal calls
            calls += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "doc_to_episode", counting)
    assert main(["analytics", "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "analytics.json").read_text())["episodes"] == 18
    assert calls == 0


def _protocols(doc: dict) -> set:
    return {t.get("action", {}).get("protocol") for t in doc["turns"]}


def _turn_of(protocol: str):
    """The first turn of a document whose action uses `protocol`."""
    return lambda doc: next(t for t in doc["turns"] if t.get("action", {}).get("protocol") == protocol)


def _analytics_edge_docs() -> list[dict]:
    """Documents at the edge of what builds an episode: values that convert
    (a number as a string, an integer for a float), and parts that do not."""
    rng = np.random.default_rng(23)

    def edited(edit) -> dict:
        while True:
            doc = episode_to_doc(random_episode(rng, structured_prob=1.0, hard_prob=0.5))
            if {"a2a", "mcp"} <= _protocols(doc):
                edit(doc)
                return doc

    def set_in(part, key, value):
        return lambda doc: part(doc).__setitem__(key, value)

    return [
        {"turns": []},
        edited(lambda doc: doc.pop("final_state")),
        edited(set_in(lambda doc: doc["metadata"], "seed", "12")),
        edited(set_in(lambda doc: doc["turns"][1]["network"], "latency_ms", "12")),
        edited(set_in(lambda doc: doc["turns"][1]["network"], "latency_ms", 12)),
        edited(lambda doc: _turn_of("a2a")(doc)["network"].update(
            latency_ms="45", loss_pct="2", throughput_mbps="3", edge_load="0.9")),
        edited(lambda doc: _turn_of("a2a")(doc)["observation"].update(tool="read_telemetry", result="ok")),
        edited(set_in(_turn_of("mcp"), "observation", "a bare string")),
        edited(set_in(lambda doc: doc["turns"][2], "intent", 7)),
        edited(set_in(lambda doc: doc["turns"][2]["network"], "slice", 5)),
        edited(set_in(lambda doc: doc["final_state"], "position", [1, 2])),
        # Last: analytics once stopped with an internal error here, so the
        # pinned corpus below leaves it out.
        edited(set_in(_turn_of("mcp"), "action", "a bare string")),
    ]


def _buildable(line: str) -> bool:
    try:
        line_to_record(line)
    except ParseError:
        return False
    return True


def test_analytics_skips_a_line_exactly_when_it_builds_no_record(tmp_path, capsys):
    from generators import corrupted_docs

    rng = np.random.default_rng(22)
    docs = [doc for _, doc, _ in corrupted_docs(rng)]
    docs += [episode_to_doc(random_episode(rng, mismatch_prob=0.3)) for _ in range(5)]
    docs += _analytics_edge_docs()
    lines = [json.dumps(doc) for doc in docs]
    verdicts = [_buildable(line) for line in lines]
    assert True in verdicts and False in verdicts
    out = tmp_path / "run"
    out.mkdir()
    for line, buildable in zip(lines, verdicts):
        (out / "corpus.jsonl").write_text(line + "\n")
        capsys.readouterr()
        assert main(["analytics", "--out", str(out)]) == EXIT_OK
        err = capsys.readouterr().err
        assert err == ("" if buildable else "warning: 1 malformed lines skipped\n"), line
        assert json.loads((out / "analytics.json").read_text())["episodes"] == int(buildable)


@pytest.mark.parametrize(
    "part, key, value",
    [
        (None, "turns", ""),
        (None, "turns", {}),
        ("final_state", "position", "123"),
        ("final_state", "mission_completed", "no"),
        ("final_state", "altitude_violation", 1),
        ("final_state", "nfz_violation", None),
        ("final_state", "separation_breach", []),
        ("final_state", "battery_depleted", "false"),
    ],
)
def test_an_episode_with_a_mistyped_list_or_flag_builds_nothing(tmp_path, capsys, part, key, value):
    # Each value once converted: "" and {} to no turns, "123" to a position
    # (1.0, 2.0, 3.0), "no" to True; analytics counted the record as an
    # episode while score and validate called it invalid.
    doc = episode_to_doc(random_episode(np.random.default_rng(26)))
    valid_line = json.dumps(doc)
    (doc[part] if part else doc)[key] = value
    with pytest.raises(ParseError):
        line_to_record(json.dumps(doc))
    out = tmp_path / "run"
    out.mkdir()
    corpus = out / "corpus.jsonl"
    corpus.write_text(valid_line + "\n" + json.dumps(doc) + "\n")
    capsys.readouterr()
    assert main(["analytics", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == "warning: 1 malformed lines skipped\n"
    assert json.loads((out / "analytics.json").read_text())["episodes"] == 1
    assert main(["validate", str(corpus)]) == EXIT_INPUT
    assert capsys.readouterr().out.splitlines()[0].startswith("line 2: INVALID (")


def test_analytics_folds_values_as_an_episode_holds_them(tmp_path):
    # A number written as a string or an integer folds as the float the
    # built episode holds, so the tables match those of the float form.
    rng = np.random.default_rng(24)
    base = episode_to_doc(random_episode(rng, structured_prob=1.0, hard_prob=0.5))
    while "a2a" not in _protocols(base):
        base = episode_to_doc(random_episode(rng, structured_prob=1.0, hard_prob=0.5))
    as_text = json.loads(json.dumps(base))
    for turn in as_text["turns"]:
        network = turn["network"]
        for key in ("latency_ms", "loss_pct", "throughput_mbps", "edge_load"):
            network[key] = str(network[key])
    as_int = json.loads(json.dumps(base))
    for turn in as_int["turns"]:
        turn["network"]["latency_ms"] = max(1, round(turn["network"]["latency_ms"]))
    as_float = json.loads(json.dumps(as_int))
    for turn in as_float["turns"]:
        turn["network"]["latency_ms"] = float(turn["network"]["latency_ms"])
    assert corpus_analytics([as_text]) == corpus_analytics([base])
    assert corpus_analytics([as_int]) == corpus_analytics([as_float])


def _integral_line(line: str) -> str:
    """A generated line with integral numbers where it has floats, and an
    integral float where it has an int."""
    doc = json.loads(line)
    if doc.get("kind") != "failure_stub":
        doc["metadata"]["gen_time_s"] = max(1, round(doc["metadata"]["gen_time_s"]))
        doc["metadata"]["total_tokens"] = float(doc["metadata"]["total_tokens"])
        doc["metadata"]["seed"] = float(doc["metadata"]["seed"])
        for turn in doc["turns"]:
            turn["network"]["latency_ms"] = max(1, round(turn["network"]["latency_ms"]))
    return json.dumps(doc, sort_keys=True)


def _mutant_lines() -> list[str]:
    from generators import corrupted_docs

    rng = np.random.default_rng(25)
    docs = [doc for _, doc, _ in corrupted_docs(rng)]
    docs += [episode_to_doc(random_episode(rng, mismatch_prob=0.3, hard_prob=0.4)) for _ in range(12)]
    docs += _analytics_edge_docs()[:-1]
    return [json.dumps(doc, sort_keys=True) for doc in docs] + ["{broken json", "[1, 2]"]


# sha256 of analytics.json (and its stderr) over the pinned built-in run in
# integral-number form, and over that run with mutants and edge documents
# mixed in; computed before analytics stopped building episodes.
ANALYTICS_PINS = {
    "integral": ("878c4de8c5557dab66df6e6d09edef9bcfe69599b10e72320933d85d0723d67c", ""),
    "mutants": (
        "22dbb371c32598b2e659abd2438e0f2a40af0525786039e5bd67b77728d71f20",
        "warning: 8 malformed lines skipped\n",
    ),
}


def _pinned_corpus(out: Path, corpus: str) -> None:
    """The corpus `corpus` of ANALYTICS_PINS, written to out/corpus.jsonl."""
    assert main(["generate", "--canonical", "--episodes-per-scenario", "2", "--out", str(out)]) == EXIT_OK
    lines = [_integral_line(line) for line in (out / "corpus.jsonl").read_text().splitlines()]
    if corpus == "mutants":
        lines += _mutant_lines()
    (out / "corpus.jsonl").write_text("".join(line + "\n" for line in lines))


@pytest.mark.parametrize("corpus", sorted(ANALYTICS_PINS))
def test_analytics_bytes_are_pinned(tmp_path, capsys, corpus):
    out = tmp_path / "pin"
    _pinned_corpus(out, corpus)
    capsys.readouterr()
    assert main(["analytics", "--out", str(out)]) == EXIT_OK
    digest = hashlib.sha256((out / "analytics.json").read_bytes()).hexdigest()
    assert (digest, capsys.readouterr().err) == ANALYTICS_PINS[corpus]


# sha256 of scores.jsonl and scoring_meta.json, strict and lenient, over the
# two corpora of ANALYTICS_PINS: integral-float seeds and counts, extra
# fields under --lenient and invalid records.  Computed before score built
# a valid record from canonical values.
SCORE_PINS = {
    ("integral", "--strict"): (
        "feb48221cfb2801d43a50f1fdf89975cdf87127389c708a4909789b5a6817c2f",
        "4c037636b03a5f79f0be75ab4f9edb443b4ca8eb23053176e63d0595d19f26d3",
    ),
    ("integral", "--lenient"): (
        "feb48221cfb2801d43a50f1fdf89975cdf87127389c708a4909789b5a6817c2f",
        "7b07b5123eafd44f511896a14266f67f1f0dd30d2742904e7d033d9a3456cb12",
    ),
    ("mutants", "--strict"): (
        "a7f5ab5b0b66d52253b3c1402510e7f31fdacd2f1c9ee9eb40e3d1a87b02d2f8",
        "4dd601b73956b70eb268f36415383dec661294d432b15911949a122cb01418f4",
    ),
    ("mutants", "--lenient"): (
        "fb417f8dd64a03ffa4f3c516a90bbe0579c37897e0eba63b4132cf1220af710d",
        "41750dff8a158c744d8a845e9e4c3d64593ba65e800a4ca2b1f4c2c9d551395c",
    ),
}


@pytest.mark.parametrize("corpus", sorted(ANALYTICS_PINS))
def test_score_bytes_are_pinned(tmp_path, corpus):
    out = tmp_path / "pin"
    _pinned_corpus(out, corpus)
    for mode in ("--strict", "--lenient"):
        assert main(["score", mode, "--out", str(out)]) == EXIT_OK
        files = (out / SCORES_NAME, out / "scoring_meta.json")
        assert tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in files) == SCORE_PINS[corpus, mode]


_STUB = {
    "kind": "failure_stub", "episode_id": "S01-safe_pilot-0000", "scenario_id": "S01", "model": "safe_pilot",
    "seed": 42, "attempts_used": 3, "error_kind": "internal", "timestamp": "",
}


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", 4.9),
        ("attempts_used", 2.5),
        ("seed", "42"),
        ("attempts_used", True),
        ("episode_id", 7),
        ("scenario_id", None),
        ("model", ["safe_pilot"]),
        ("timestamp", 0),
        ("error_kind", "bogus"),
        ("error_kind", None),
    ],
)
def test_a_failure_stub_with_a_mistyped_field_is_malformed(tmp_path, capsys, field, value):
    out = tmp_path / "run"
    out.mkdir()
    corpus = out / "corpus.jsonl"
    corpus.write_text(json.dumps(_STUB) + "\n" + json.dumps(_STUB | {field: value}) + "\n")
    assert main(["score", "--out", str(out)]) == EXIT_OK
    meta = json.loads((out / "scoring_meta.json").read_text())
    assert (meta["records"], meta["malformed_lines"]) == (1, 1)
    capsys.readouterr()
    assert main(["analytics", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == "warning: 1 malformed lines skipped\n"
    assert main(["validate", str(corpus)]) == EXIT_INPUT
    assert capsys.readouterr().out.splitlines() == ["line 2: MALFORMED", "1 malformed lines"]


def test_a_failure_stub_reads_an_integral_float_as_its_integer(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    corpus = out / "corpus.jsonl"
    corpus.write_text(json.dumps(_STUB | {"seed": 42.0, "attempts_used": 2.0}) + "\n")
    assert main(["validate", str(corpus)]) == EXIT_OK
    assert main(["score", "--out", str(out)]) == EXIT_OK
    line = (out / SCORES_NAME).read_text()
    assert '"attempts_used":2,' in line and '"seed":42}' in line


def test_internal_errors_exit_three(tmp_path, monkeypatch):
    import skybench.cli as cli

    def boom(*args, **kwargs):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli, "cmd_analytics", boom)
    assert main(["analytics", "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("name", ["evolve_state", "evolve_network", "sample_network_state"])
def test_a_fault_outside_the_agent_exits_three(tmp_path, capsys, monkeypatch, name):
    import skybench.agents as agents

    def boom(*args, **kwargs):
        raise RuntimeError("physics bug")

    monkeypatch.setattr(agents, name, boom)
    out = tmp_path / "run"
    assert main(["generate", "--agents", "safe_pilot", "--episodes-per-scenario", "1", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "internal error: physics bug\n"
    assert not (out / "corpus.jsonl").exists()


def test_changed_config_invalidates_resume(tmp_path):
    out = tmp_path / "run"
    cmd_generate(tiny_config(out))
    first = (out / "corpus.jsonl").read_bytes()
    cmd_generate(tiny_config(out, seed=7))
    second = (out / "corpus.jsonl").read_bytes()
    assert first != second
    # Same altered config again reproduces the altered corpus exactly.
    cmd_generate(tiny_config(out, seed=7))
    assert (out / "corpus.jsonl").read_bytes() == second


def test_analytics_reads_latencies_near_float_max(tmp_path):
    # A valid record may hold any latency above 0; near float max fmean's
    # sum overflowed, and analytics exited 3 on a corpus validate accepts.
    out = tmp_path / "run"
    assert main(["generate", "--canonical", "--episodes-per-scenario", "1", "--out", str(out)]) == EXIT_OK
    docs = [json.loads(line) for line in (out / "corpus.jsonl").read_text().splitlines()[:2]]
    huge = (1.7e308, 1.6e308, 9e307)
    latencies = []
    for doc in docs:
        for i, turn in enumerate(doc["turns"]):
            turn["network"]["latency_ms"] = huge[i % 3]
            latencies.append(huge[i % 3])
    (out / "corpus.jsonl").write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    assert main(["validate", str(out / "corpus.jsonl")]) == EXIT_OK
    assert main(["analytics", "--out", str(out)]) == EXIT_OK
    top = json.loads((out / "analytics.json").read_text())["latency_bins"][-1]
    assert top["samples"] == len(latencies)
    # The report keeps six significant digits of each value.
    assert top["mean_ms"] == pytest.approx(statistics.mean(latencies), rel=1e-5)
    assert top["std_ms"] == pytest.approx(statistics.pstdev(latencies), rel=1e-5)


@pytest.mark.parametrize(
    "metadata, cells",
    [
        # Each sum passes float range, so the means are taken of the values
        # divided by their largest.
        (
            {"gen_time_s": 1.5e308, "prompt_tokens": 10**308, "completion_tokens": 5 * 10**307,
             "total_tokens": 15 * 10**307},
            {"mean_gen_time_s": "1.5e+308", "mean_total_tokens": "1.5e+308"},
        ),
        # A subnormal time overflows the composite per second, which then
        # reads 0, as each record's ge_per_sec does.
        ({"gen_time_s": 1e-310}, {"alpha3_per_sec": "0"}),
    ],
    ids=["sums overflow", "rate overflows"],
)
def test_aggregate_writes_finite_cells_for_extreme_valid_records(tmp_path, metadata, cells):
    # Such records are valid, yet the leaderboard once read inf for them.
    out = tmp_path / "run"
    argv = ["generate", "--canonical", "--agents", "safe_pilot", "--episodes-per-scenario", "1", "--out", str(out)]
    assert main(argv) == EXIT_OK
    docs = [json.loads(line) for line in (out / "corpus.jsonl").read_text().splitlines()]
    for doc in docs:
        doc["metadata"].update(metadata)
    (out / "corpus.jsonl").write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    (out / MANIFEST_NAME).unlink()
    assert main(["validate", str(out / "corpus.jsonl")]) == EXIT_OK
    for stage in ("score", "aggregate"):
        assert main([stage, "--out", str(out)]) == EXIT_OK
    with open(out / LEADERBOARD_NAME, newline="", encoding="utf-8") as fh:
        (row,) = csv.DictReader(fh)
    assert all(math.isfinite(float(row[column])) for column in LEADERBOARD_COLUMNS[1:]), row
    assert {column: row[column] for column in cells} == cells
    scores = [json.loads(line) for line in (out / SCORES_NAME).read_text().splitlines()]
    assert len(scores) == len(docs)
    if "alpha3_per_sec" in cells:
        assert {s["ge_per_sec"] for s in scores} == {0.0}
