from __future__ import annotations

import csv
import json
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
    serialize_episode,
    stub_to_doc,
)
from skybench.network import URLLC
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
    stub = make_failure_stub("S01", "random_model", 42, "schema_invalid", timestamp="1970-01-01T00:00:00Z")
    with open(out / "corpus.jsonl", "w") as fh:
        fh.write(serialize_episode(episode).decode() + "\n")
        from skybench.episode import record_to_line

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
    good.write_bytes(serialize_episode(episode))
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
    with pytest.raises(ValueError):
        RunConfig(episodes_per_scenario=0)
    with pytest.raises(ValueError):
        RunConfig(parallel=0)
    assert RunConfig().config_hash() == RunConfig().config_hash()
    assert RunConfig(seed=7).config_hash() != RunConfig().config_hash()


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


def test_malformed_corpus_lines_counted_not_fatal(tmp_path):
    out = tmp_path / "messy"
    out.mkdir()
    rng = np.random.default_rng(9)
    good = serialize_episode(random_episode(rng)).decode()
    (out / "corpus.jsonl").write_text(good + "\n{broken json\n" + good + "\n")
    assert cmd_score(str(out)) == EXIT_OK
    meta = json.loads((out / "scoring_meta.json").read_text())
    assert meta["malformed_lines"] == 1
    assert meta["records"] == 2


def test_score_validates_and_builds_each_record_once(tmp_path, monkeypatch):
    import skybench.cli as cli

    out = tmp_path / "run"
    out.mkdir()
    rng = np.random.default_rng(12)
    docs = [episode_to_doc(random_episode(rng)) for _ in range(5)]
    docs[1]["turns"] = docs[1]["turns"][:7]  # invalid, so never built
    stub = stub_to_doc(make_failure_stub("S01", "safe_pilot", 42, "internal"))
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
    good = serialize_episode(random_episode(rng)).decode()
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


def test_analytics_skips_malformed_lines_with_warning(tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    rng = np.random.default_rng(14)
    good = serialize_episode(random_episode(rng)).decode()
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
