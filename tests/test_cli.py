from __future__ import annotations

import csv
import hashlib
import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from generators import build_episode, dialogue, random_episode
from skybench.cli import (
    EXIT_INPUT,
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
    make_failure_stub,
    record_to_line,
    stub_to_doc,
)
from skybench.errors import SkybenchError
from skybench.network import DEFAULT_TARGETS, MMTC, URLLC
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
    (out / "corpus.jsonl").write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    cmd_generate(tiny_config(out))
    assert (out / "corpus.jsonl").read_bytes() == full


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
    stub = make_failure_stub(
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
        episodes.append(build_episode(turns))
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

    assert main(["validate", str(tmp_path / "missing.json")]) == EXIT_INPUT
    assert main([]) == EXIT_USAGE
    assert main(["generate", "--scenarios", str(tmp_path / "nope.json")]) == EXIT_INPUT


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
    assert RunConfig().config_hash() == RunConfig().config_hash()
    assert RunConfig(seed=7).config_hash() != RunConfig().config_hash()


def test_config_hash_covers_corpus_version(monkeypatch):
    import skybench.cli as cli

    before = RunConfig().config_hash()
    monkeypatch.setattr(cli, "CORPUS_VERSION", cli.CORPUS_VERSION + 1)
    assert RunConfig().config_hash() != before


def test_builtin_corpus_bytes_are_pinned(tmp_path):
    out = tmp_path / "pin"
    assert main(["generate", "--canonical", "--episodes-per-scenario", "2", "--out", str(out)]) == EXIT_OK
    digest = hashlib.sha256((out / "corpus.jsonl").read_bytes()).hexdigest()
    assert digest == "518c8dc371de11990a3f4d40e20f112ca52d176c4f3257d8c277a37d26e2c5fc"


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


def _builtin_scenario_doc() -> dict:
    return json.loads((resources.files("skybench.data") / "scenarios" / "s01_thermal_survey.json").read_text("utf-8"))


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


def test_config_hash_reads_input_documents_not_their_text(tmp_path):
    path = tmp_path / "calibration.json"
    targets = {name: dict(stats) for name, stats in DEFAULT_TARGETS.items()}
    path.write_text(json.dumps(targets))
    compact = RunConfig(calibration=str(path)).config_hash()
    path.write_text(json.dumps(targets, indent=4, sort_keys=True))
    assert RunConfig(calibration=str(path)).config_hash() == compact
    # A change in the seventh significant digit, which six-digit canonical
    # floats would hide, is a different input.
    targets[URLLC]["latency_median_ms"] = 7.000001
    path.write_text(json.dumps(targets))
    assert RunConfig(calibration=str(path)).config_hash() != compact


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


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--episodes-per-scenario", "0"],
        ["generate", "--parallel", "0"],
        ["generate", "--agents", ""],
        ["generate", "--agents", "safe_pilot,safe_pilot"],
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
        assert "error: malformed scenario document" in capsys.readouterr().err


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


def _targets_with_lossy_mmtc():
    targets = {name: dict(stats) for name, stats in DEFAULT_TARGETS.items()}
    targets[MMTC]["loss_mean_pct"] = 80.0  # a clipped exponential cannot keep this mean
    return targets


@pytest.mark.parametrize(
    "targets, message",
    [
        (_targets_without_mmtc(), "calibration targets lack slices ['mMTC']"),
        (_targets_without_jitter(), "calibration targets for URLLC need a number for 'jitter_mean_ms'"),
        ([DEFAULT_TARGETS[URLLC]], "calibration targets must be an object keyed by slice"),
        (_targets_with_lossy_mmtc(), "mMTC loss mean verification failed"),
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
    docs[1]["turns"] = docs[1]["turns"][:7]  # invalid, so never built
    stub = stub_to_doc(make_failure_stub("S01-safe_pilot-0000", "S01", "safe_pilot", 42, "internal"))
    (out / "corpus.jsonl").write_text("".join(dumps_canonical(d) + "\n" for d in docs + [stub]))
    calls = {"validate_episode": 0, "doc_to_episode": 0}
    for name in calls:
        def counting(*args, _name=name, _original=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
    assert cmd_score(str(out)) == EXIT_OK
    assert calls == {"validate_episode": 5, "doc_to_episode": 4}
    scores = [json.loads(line) for line in (out / SCORES_NAME).read_text().splitlines()]
    assert [s.get("valid") for s in scores] == [True, False, True, True, True, None]


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
    stub = dumps_canonical(stub_to_doc(make_failure_stub("S01-safe_pilot-0000", "S01", "safe_pilot", 42, "internal")))
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


def test_internal_errors_exit_three(tmp_path, monkeypatch):
    import skybench.cli as cli

    def boom(*args, **kwargs):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli, "cmd_analytics", boom)
    assert main(["analytics", "--out", str(tmp_path)]) == 3


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
