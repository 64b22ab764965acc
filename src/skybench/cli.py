"""Command-line orchestration: generate, score, aggregate, analytics, validate.

Exit codes: 0 success, 1 usage error, 2 input error, 3 internal error.
Flags can be overridden by SKYBENCH_* environment variables and by a JSON
config file (flag > environment > config file > default).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import statistics
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .agents import (
    AGENT_TYPES,
    EPOCH_TIMESTAMP,
    GenTiming,
    SubprocessPolicy,
    UserSimulator,
    episode_seed_for,
    make_agent,
    run_episode,
)
from .episode import (
    Episode,
    FailureStub,
    ValidationReport,
    doc_to_episode,
    doc_to_stub,
    dumps_canonical,
    dumps_pretty,
    line_to_record,
    loads_document,
    stub_to_doc,
    validate_episode,
)
from .errors import DegenerateInput, ParseError, ScenarioError, SkybenchError
from .network import calibrate, default_calibration, classify_hard
from .scenarios import Scenario, builtin_scenarios, load_scenario_dir, load_scenario_file
from .tools import default_registry, load_registry_file
from .scoring import (
    Budgets,
    LEADERBOARD_COLUMNS,
    PILLAR_KEYS,
    PillarScores,
    ScoringContext,
    ScoringWeights,
    aggregate_model,
    compute_t_opt,
    generation_efficiency,
    leaderboard_rows,
    score_episode,
)

ENV_PREFIX = "SKYBENCH_"

DEFAULT_SEED = 42
DEFAULT_EPISODE_SEEDS = (42, 77, 101, 2025, 1337)
DEFAULT_EPISODES_PER_SCENARIO = 50
DEFAULT_AGENTS = tuple(sorted(AGENT_TYPES))

CORPUS_NAME = "corpus.jsonl"
SCORES_NAME = "scores.jsonl"
LEADERBOARD_NAME = "leaderboard.csv"
MANIFEST_NAME = "manifest.json"
ANALYTICS_NAME = "analytics.json"
SCORING_META_NAME = "scoring_meta.json"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _env(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name.upper())


def _resolve(flag_value, env_name: str, config: Mapping[str, Any], key: str, default, cast=None):
    if flag_value is not None:
        return flag_value
    raw = _env(env_name)
    if raw is not None:
        return cast(raw) if cast else raw
    if key in config:
        return config[key]
    return default


def _load_config_file(path: str | None) -> dict[str, Any]:
    if not path:
        return {}
    try:
        return json.loads(Path(path).read_text("utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read config {path}: {exc}") from exc


def _load_scenarios(spec: str) -> tuple[Scenario, ...]:
    if spec == "builtin":
        return builtin_scenarios()
    path = Path(spec)
    if path.is_dir():
        return load_scenario_dir(path)
    return (load_scenario_file(path),)


def _load_calibration(path: str | None):
    if not path:
        return default_calibration()
    try:
        targets = json.loads(Path(path).read_text("utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read calibration {path}: {exc}") from exc
    return calibrate(targets)


@dataclass(frozen=True)
class RunConfig:
    scenarios: str = "builtin"
    agents: tuple[str, ...] = DEFAULT_AGENTS
    episodes_per_scenario: int = DEFAULT_EPISODES_PER_SCENARIO
    seed: int = DEFAULT_SEED
    episode_seed_set: tuple[int, ...] = DEFAULT_EPISODE_SEEDS
    max_turn_tokens: int = 10_000
    temperature: float = 0.0
    out: str = "runs"
    parallel: int = 1
    calibration: str | None = None
    tools: str | None = None
    canonical: bool = False
    # name -> argv for policies attached over the subprocess line protocol
    external_agents: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def __post_init__(self) -> None:
        if self.episodes_per_scenario < 1:
            raise ValueError("episodes_per_scenario must be at least 1")
        if not self.episode_seed_set:
            raise ValueError("episode seed set must be non-empty")
        if self.parallel < 1:
            raise ValueError("parallel must be at least 1")

    def config_hash(self) -> str:
        doc = {
            "scenarios": self.scenarios,
            "agents": list(self.agents),
            "episodes_per_scenario": self.episodes_per_scenario,
            "seed": self.seed,
            "episode_seed_set": list(self.episode_seed_set),
            "max_turn_tokens": self.max_turn_tokens,
            "temperature": self.temperature,
            "canonical": self.canonical,
        }
        return hashlib.sha256(dumps_canonical(doc).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def _job_id(scenario_id: str, agent: str, index: int) -> str:
    return f"{scenario_id}-{agent}-{index:04d}"


def _existing_lines(path: Path) -> dict[str, str]:
    if not path.exists():
        return {}
    existing: dict[str, str] = {}
    for line in path.read_text("utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue
        record_id = doc.get("episode_id")
        if isinstance(record_id, str):
            existing[record_id] = line
    return existing


def _generate_line(
    scenario: Scenario,
    agent_name: str,
    index: int,
    config: RunConfig,
    calibration,
    registry,
    timestamp: str,
) -> str:
    external = dict(config.external_agents)
    if agent_name in external:
        agent = SubprocessPolicy(external[agent_name], name=agent_name)
    else:
        agent = make_agent(agent_name, scenario)
    user = UserSimulator(mode="fixed_prompt", prompts=scenario.user_prompts) if scenario.user_prompts else UserSimulator()
    accepted: list[str] = []
    try:
        record = run_episode(
            agent,
            user,
            scenario,
            calibration=calibration,
            registry=registry,
            global_seed=config.seed,
            episode_seed=episode_seed_for(index, config.episode_seed_set),
            index=index,
            timing=GenTiming(),
            timestamp=timestamp,
            episode_id=_job_id(scenario.scenario_id, agent_name, index),
            on_accept=accepted.append,
        )
    finally:
        if isinstance(agent, SubprocessPolicy):
            agent.close()
    if isinstance(record, FailureStub):
        doc = stub_to_doc(record)
        doc["episode_id"] = _job_id(scenario.scenario_id, agent_name, index)
        return dumps_canonical(doc)
    return accepted[0]


def cmd_generate(config: RunConfig) -> int:
    scenarios = _load_scenarios(config.scenarios)
    calibration = _load_calibration(config.calibration)
    registry = load_registry_file(config.tools) if config.tools else default_registry()
    external = dict(config.external_agents)
    for name in config.agents:
        if name not in AGENT_TYPES and name not in external:
            raise ScenarioError(f"unknown agent {name!r}; known: {sorted(AGENT_TYPES)} plus external agents")
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus_path = out_dir / CORPUS_NAME
    existing = _existing_lines(corpus_path)
    if existing:
        # Resume only when the previous run used the same configuration.
        manifest_path = out_dir / MANIFEST_NAME
        previous_hash = None
        if manifest_path.exists():
            try:
                previous_hash = json.loads(manifest_path.read_text("utf-8")).get("config_hash")
            except json.JSONDecodeError:
                previous_hash = None
        if previous_hash != config.config_hash():
            existing = {}
    timestamp = EPOCH_TIMESTAMP if config.canonical else datetime.now(timezone.utc).isoformat()

    jobs = [
        (scenario, agent_name, index)
        for scenario in scenarios
        for agent_name in config.agents
        for index in range(config.episodes_per_scenario)
    ]
    lines: dict[int, str] = {}
    pending = []
    for position, (scenario, agent_name, index) in enumerate(jobs):
        record_id = _job_id(scenario.scenario_id, agent_name, index)
        if record_id in existing:
            lines[position] = existing[record_id]
        else:
            pending.append(position)

    def work(position: int) -> tuple[int, str]:
        scenario, agent_name, index = jobs[position]
        return position, _generate_line(scenario, agent_name, index, config, calibration, registry, timestamp)

    if config.parallel > 1 and pending:
        with ThreadPoolExecutor(max_workers=config.parallel) as pool:
            for position, line in pool.map(work, pending):
                lines[position] = line
    else:
        for position in pending:
            lines[position] = work(position)[1]

    with open(corpus_path, "w", encoding="utf-8") as fh:
        for position in range(len(jobs)):
            fh.write(lines[position])
            fh.write("\n")

    episodes = sum(1 for line in lines.values() if '"kind":"failure_stub"' not in line)
    stubs = len(jobs) - episodes
    manifest = {
        "config_hash": config.config_hash(),
        "scenarios": [s.scenario_id for s in scenarios],
        "agents": list(config.agents),
        "episodes_per_scenario": config.episodes_per_scenario,
        "seed": config.seed,
        "episode_seed_set": list(config.episode_seed_set),
        "temperature": config.temperature,
        "max_turn_tokens": config.max_turn_tokens,
        "episode_budget_per_model": len(scenarios) * config.episodes_per_scenario,
        "counts": {"jobs": len(jobs), "episodes": episodes, "failure_stubs": stubs},
        "seed_derivation": (
            "episode seed = seed_set[index mod len(seed_set)]; RNG stream = "
            "SeedSequence(global seed, episode seed, sha256(scenario|agent|index)[:16])"
        ),
        "generated_at": timestamp,
    }
    (out_dir / MANIFEST_NAME).write_text(dumps_pretty(manifest) + "\n", "utf-8")
    print(f"wrote {len(jobs)} records ({episodes} episodes, {stubs} stubs) to {corpus_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

def _corpus_lines(path: Path) -> Iterator[tuple[int, str]]:
    """(line number, stripped text) for every non-blank line of a JSONL file."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                yield lineno, line


def _check_doc(doc: Mapping[str, Any], strict: bool) -> tuple[ValidationReport, Episode | None]:
    """Validate one episode document, and build it when it is valid."""
    # Validate the raw document: strict mode must see fields that the typed
    # episode value would drop.
    report = validate_episode(doc, strict=strict)
    return report, (doc_to_episode(doc) if report.valid else None)


def _score_doc(
    doc: Mapping[str, Any],
    ctx: ScoringContext,
    strict: bool,
    checked: tuple[ValidationReport, Episode | None] | None = None,
) -> dict[str, Any]:
    """Score one corpus record; `checked` is its _check_doc result, when the
    caller already has it."""
    if doc.get("kind") == "failure_stub":
        stub = doc_to_stub(doc)
        return {
            "kind": "failure_stub",
            "model": stub.model,
            "scenario_id": stub.scenario_id,
            "seed": stub.seed,
            "attempts_used": stub.attempts_used,
            "error_kind": stub.error_kind,
            "scored": False,
        }
    report, episode = checked if checked is not None else _check_doc(doc, strict)
    meta = doc.get("metadata") if isinstance(doc.get("metadata"), Mapping) else {}
    base: dict[str, Any] = {
        "episode_id": doc.get("episode_id", ""),
        "model": meta.get("model", "unknown"),
        "scenario_id": meta.get("scenario_id", ""),
        "seed": meta.get("seed", 0),
        "attempts_used": meta.get("attempts_used", 0),
    }
    if not report.valid:
        base.update(valid=False, alpha3=0.0, violations=sorted(set(report.codes())))
        return base
    scores = score_episode(episode, report, ctx)
    try:
        ge_time, ge_tokens = generation_efficiency(episode, scores.alpha3)
    except DegenerateInput:
        ge_time = ge_tokens = 0.0
    base.update(
        valid=True,
        turns=len(episode.turns),
        pillars=scores.as_dict(),
        alpha3=scores.alpha3,
        ge_per_sec=ge_time,
        ge_per_1k=ge_tokens,
        mission_completed=episode.final_state.mission_completed,
        gen_time_s=episode.metadata.gen_time_s,
        total_tokens=episode.metadata.total_tokens,
    )
    return base


def cmd_score(out: str, corpus: str | None = None, strict: bool = True) -> int:
    out_dir = Path(out)
    corpus_path = Path(corpus) if corpus else out_dir / CORPUS_NAME
    if not corpus_path.exists():
        raise ScenarioError(f"corpus not found: {corpus_path}")
    docs = []
    malformed = 0
    for _, line in _corpus_lines(corpus_path):
        try:
            docs.append(loads_document(line))
        except ParseError:
            malformed += 1
    # Each episode is validated and built once; t_opt needs every valid
    # episode before any record can be scored.
    checked = [None if doc.get("kind") == "failure_stub" else _check_doc(doc, strict) for doc in docs]
    valid_episodes = [c[1] for c in checked if c is not None and c[1] is not None]
    t_opt = compute_t_opt(valid_episodes)
    ctx = ScoringContext(t_opt=t_opt)
    out_dir.mkdir(parents=True, exist_ok=True)
    scores_path = out_dir / SCORES_NAME
    with open(scores_path, "w", encoding="utf-8") as fh:
        for doc, check in zip(docs, checked):
            fh.write(dumps_canonical(_score_doc(doc, ctx, strict, check)))
            fh.write("\n")
    meta = {
        "t_opt": t_opt,
        "strict": strict,
        "records": len(docs),
        "valid_episodes": len(valid_episodes),
        "malformed_lines": malformed,
        "weights": list(ScoringWeights().as_tuple()),
        "budgets": {"token_budget": Budgets().token_budget, "tool_budget": Budgets().tool_budget},
    }
    (out_dir / SCORING_META_NAME).write_text(dumps_pretty(meta) + "\n", "utf-8")
    if malformed:
        print(f"warning: {malformed} malformed lines skipped", file=sys.stderr)
    print(f"scored {len(docs)} records (t_opt={t_opt}) to {scores_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# aggregate
# ---------------------------------------------------------------------------

def _read_jsonl(path: Path) -> list[dict[str, Any]]:
    docs = []
    for line in path.read_text("utf-8").splitlines():
        line = line.strip()
        if line:
            docs.append(loads_document(line))
    return docs


def _infer_budget(out_dir: Path, score_docs: Sequence[Mapping[str, Any]]) -> int:
    manifest_path = out_dir / MANIFEST_NAME
    if manifest_path.exists():
        try:
            manifest = json.loads(manifest_path.read_text("utf-8"))
            budget = int(manifest["episode_budget_per_model"])
            if budget > 0:
                return budget
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            pass
    per_model: dict[str, int] = {}
    for doc in score_docs:
        model = str(doc.get("model", ""))
        per_model[model] = per_model.get(model, 0) + 1
    return max(per_model.values(), default=1)


def cmd_aggregate(out: str, episode_budget: int | None = None) -> int:
    out_dir = Path(out)
    scores_path = out_dir / SCORES_NAME
    if not scores_path.exists():
        raise ScenarioError(f"score sidecar not found: {scores_path} (run `skybench score` first)")
    docs = _read_jsonl(scores_path)
    budget = episode_budget or _infer_budget(out_dir, docs)

    by_model: dict[str, dict[str, list]] = {}
    for doc in docs:
        model = str(doc.get("model", "unknown"))
        slot = by_model.setdefault(
            model, {"scores": [], "fails": 0, "attempts": 0, "times": [], "tokens": [], "success": []}
        )
        slot["attempts"] += int(doc.get("attempts_used", 0))
        if doc.get("kind") == "failure_stub" or doc.get("valid") is False:
            slot["fails"] += 1
            continue
        pillars = doc["pillars"]
        slot["scores"].append(
            PillarScores(*(float(pillars[k]) for k in PILLAR_KEYS), alpha3=float(pillars["alpha3"]))
        )
        slot["times"].append(float(doc["gen_time_s"]))
        slot["tokens"].append(float(doc["total_tokens"]))
        slot["success"].append(bool(doc["mission_completed"]))

    aggregates = [
        aggregate_model(
            model,
            slot["scores"],
            n_fail=slot["fails"],
            episode_budget=budget,
            total_attempt_calls=max(slot["attempts"], len(slot["scores"])),
            gen_times=slot["times"],
            token_counts=slot["tokens"],
            success_flags=slot["success"],
        )
        for model, slot in sorted(by_model.items())
    ]
    rows = leaderboard_rows(aggregates)
    leaderboard_path = out_dir / LEADERBOARD_NAME
    with open(leaderboard_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LEADERBOARD_COLUMNS)
        for row in rows:
            writer.writerow(
                [row["model"]] + [format(float(row[c]), ".6g") for c in LEADERBOARD_COLUMNS[1:]]
            )
    print(f"wrote leaderboard for {len(rows)} models (budget {budget}) to {leaderboard_path}")
    success = {agg.model: agg.success_rate for agg in aggregates}
    for row in rows:
        print(
            f"  {row['model']}: alpha3={float(row['alpha3']):.3f} "
            f"reliability={float(row['reliability']):.2f} success_rate={success[str(row['model'])]:.2f}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# analytics
# ---------------------------------------------------------------------------

LATENCY_BINS = ((1, 5), (5, 10), (10, 20), (20, 30), (30, 40), (40, 50), (50, float("inf")))


def _top(counter: Mapping[str, int], k: int = 10) -> list[tuple[str, int]]:
    return sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


def corpus_analytics(records: Iterable) -> dict[str, Any]:
    episodes = [r for r in records if isinstance(r, Episode)]
    intent_counts: dict[str, int] = {}
    mcp_counts: dict[str, int] = {}
    mcp_slice: dict[str, dict[str, int]] = {}
    a2a_counts: dict[str, int] = {}
    a2a_total = 0
    a2a_degraded = 0
    episodes_with_a2a = 0
    bins: list[dict[str, Any]] = [
        {"bin": f"{int(lo)}-{int(hi) if hi != float('inf') else 'inf'}", "values": [], "slices": {}, "actions": {}, "intents": {}}
        for lo, hi in LATENCY_BINS
    ]

    for episode in episodes:
        saw_a2a = False
        for turn in episode.turns:
            if turn.role == "agent":
                intent_counts[turn.intent] = intent_counts.get(turn.intent, 0) + 1
            action = turn.action
            action_name = None
            if action is not None and hasattr(action, "name"):
                action_name = action.name
                mcp_counts[action_name] = mcp_counts.get(action_name, 0) + 1
                per_slice = mcp_slice.setdefault(action_name, {})
                per_slice[turn.network.slice] = per_slice.get(turn.network.slice, 0) + 1
            elif action is not None:
                action_name = action.task
                a2a_counts[action.task] = a2a_counts.get(action.task, 0) + 1
                a2a_total += 1
                saw_a2a = True
                if classify_hard(turn.network):
                    a2a_degraded += 1
            latency = turn.network.latency_ms
            for (lo, hi), slot in zip(LATENCY_BINS, bins):
                if lo <= latency < hi:
                    slot["values"].append(latency)
                    slot["slices"][turn.network.slice] = slot["slices"].get(turn.network.slice, 0) + 1
                    if action_name:
                        slot["actions"][action_name] = slot["actions"].get(action_name, 0) + 1
                    if turn.role == "agent":
                        slot["intents"][turn.intent] = slot["intents"].get(turn.intent, 0) + 1
                    break
        if saw_a2a:
            episodes_with_a2a += 1

    n_episodes = len(episodes)
    total_intents = sum(intent_counts.values())
    total_mcp = sum(mcp_counts.values())
    report: dict[str, Any] = {
        "episodes": n_episodes,
        "intents_top": [
            {
                "intent": name,
                "count": count,
                "share_pct": 100.0 * count / total_intents if total_intents else 0.0,
                "avg_per_episode": count / n_episodes if n_episodes else 0.0,
            }
            for name, count in _top(intent_counts)
        ],
        "mcp_tools_top": [
            {
                "tool": name,
                "count": count,
                "share_pct": 100.0 * count / total_mcp if total_mcp else 0.0,
                "avg_per_episode": count / n_episodes if n_episodes else 0.0,
                "by_slice": dict(sorted(mcp_slice.get(name, {}).items())),
            }
            for name, count in _top(mcp_counts)
        ],
        "a2a": {
            "total_calls": a2a_total,
            "episodes_with_a2a_pct": 100.0 * episodes_with_a2a / n_episodes if n_episodes else 0.0,
            "mean_calls_per_episode": a2a_total / n_episodes if n_episodes else 0.0,
            "degraded_share_pct": 100.0 * a2a_degraded / a2a_total if a2a_total else 0.0,
            "tasks_top": [{"task": name, "count": count} for name, count in _top(a2a_counts)],
        },
        "latency_bins": [
            {
                "bin_ms": slot["bin"],
                "samples": len(slot["values"]),
                "mean_ms": statistics.fmean(slot["values"]) if slot["values"] else 0.0,
                "std_ms": statistics.pstdev(slot["values"]) if len(slot["values"]) > 1 else 0.0,
                "slice_share_pct": {
                    name: 100.0 * count / len(slot["values"])
                    for name, count in sorted(slot["slices"].items())
                },
                "top_action": _top(slot["actions"], 1)[0][0] if slot["actions"] else None,
                "top_intent": _top(slot["intents"], 1)[0][0] if slot["intents"] else None,
            }
            for slot in bins
        ],
    }
    return report


def cmd_analytics(out: str, corpus: str | None = None) -> int:
    out_dir = Path(out)
    corpus_path = Path(corpus) if corpus else out_dir / CORPUS_NAME
    if not corpus_path.exists():
        raise ScenarioError(f"corpus not found: {corpus_path}")
    records = []
    malformed = 0
    for _, line in _corpus_lines(corpus_path):
        try:
            records.append(line_to_record(line))
        except ParseError:
            malformed += 1
    report = corpus_analytics(records)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / ANALYTICS_NAME).write_text(dumps_pretty(report) + "\n", "utf-8")
    print(f"episodes analyzed: {report['episodes']}")
    if report["intents_top"]:
        print("top agent intents:")
        for row in report["intents_top"][:5]:
            print(f"  {row['count']:>6}  {row['intent'][:70]}")
    if report["mcp_tools_top"]:
        print("top MCP tools:")
        for row in report["mcp_tools_top"][:5]:
            print(f"  {row['count']:>6}  {row['tool']} (avg/episode {row['avg_per_episode']:.2f})")
    a2a = report["a2a"]
    print(
        f"A2A: {a2a['total_calls']} calls, {a2a['episodes_with_a2a_pct']:.1f}% episodes, "
        f"{a2a['degraded_share_pct']:.1f}% under degraded conditions"
    )
    if malformed:
        print(f"warning: {malformed} malformed lines skipped", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def cmd_validate(path: str, strict: bool = True) -> int:
    file_path = Path(path)
    if not file_path.exists():
        raise ScenarioError(f"no such file: {path}")
    if file_path.suffix != ".jsonl":
        report = validate_episode(loads_document(file_path.read_text("utf-8")), strict=strict)
        if report.valid:
            print("valid")
            return EXIT_OK
        for violation in report.violations:
            where = f"turn {violation.turn_index}" if violation.turn_index >= 0 else "episode"
            print(f"{violation.code} @ {where}: {violation.message}")
        return EXIT_INPUT
    invalid = malformed = 0
    for lineno, line in _corpus_lines(file_path):
        try:
            doc = loads_document(line)
        except ParseError:
            malformed += 1
            print(f"line {lineno}: MALFORMED")
            continue
        if doc.get("kind") == "failure_stub":
            continue
        report = validate_episode(doc, strict=strict)
        if not report.valid:
            invalid += 1
            codes = ",".join(sorted(set(report.codes())))
            print(f"line {lineno}: INVALID ({codes})")
    problems = [f"{invalid} invalid records"] if invalid else []
    if malformed:
        problems.append(f"{malformed} malformed lines")
    print(", ".join(problems) or "all records valid")
    return EXIT_INPUT if problems else EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="skybench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a corpus of episodes")
    gen.add_argument("--config", default=None, help="JSON config file")
    gen.add_argument("--scenarios", default=None, help="'builtin', a scenario file, or a directory")
    gen.add_argument("--agents", default=None, help="comma-separated agent names")
    gen.add_argument("--episodes-per-scenario", type=int, default=None)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", default=None)
    gen.add_argument("--parallel", type=int, default=None)
    gen.add_argument("--calibration", default=None, help="JSON calibration targets file")
    gen.add_argument("--tools", default=None, help="JSON tool-registry extension file")
    gen.add_argument("--canonical", action="store_true", default=None, help="normalize timestamps")

    score = sub.add_parser("score", help="score a corpus into a JSONL sidecar")
    score.add_argument("--out", default=None)
    score.add_argument("--corpus", default=None)
    _add_strictness(score)

    agg = sub.add_parser("aggregate", help="aggregate scores into a leaderboard CSV")
    agg.add_argument("--out", default=None)
    agg.add_argument("--episode-budget", type=int, default=None)

    ana = sub.add_parser("analytics", help="corpus usage statistics")
    ana.add_argument("--out", default=None)
    ana.add_argument("--corpus", default=None)

    val = sub.add_parser("validate", help="validate an episode file or corpus")
    val.add_argument("path")
    _add_strictness(val)
    return parser


def _add_strictness(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--strict", dest="strict", action="store_true", default=None)
    group.add_argument("--lenient", dest="strict", action="store_false", default=None)


def _run(args: argparse.Namespace) -> int:
    if args.command == "generate":
        config_doc = _load_config_file(args.config)
        agents_raw = _resolve(args.agents, "agents", config_doc, "agents", None)
        if isinstance(agents_raw, str):
            agents = tuple(a.strip() for a in agents_raw.split(",") if a.strip())
        elif agents_raw:
            agents = tuple(agents_raw)
        else:
            agents = DEFAULT_AGENTS
        config = RunConfig(
            scenarios=_resolve(args.scenarios, "scenarios", config_doc, "scenarios", "builtin"),
            agents=agents,
            episodes_per_scenario=_resolve(
                args.episodes_per_scenario, "episodes_per_scenario", config_doc,
                "episodes_per_scenario", DEFAULT_EPISODES_PER_SCENARIO, int,
            ),
            seed=_resolve(args.seed, "seed", config_doc, "seed", DEFAULT_SEED, int),
            episode_seed_set=tuple(config_doc.get("episode_seed_set", DEFAULT_EPISODE_SEEDS)),
            out=_resolve(args.out, "out", config_doc, "out", "runs"),
            parallel=_resolve(args.parallel, "parallel", config_doc, "parallel", 1, int),
            calibration=_resolve(args.calibration, "calibration", config_doc, "calibration", None),
            tools=_resolve(args.tools, "tools", config_doc, "tools", None),
            external_agents=tuple(
                (str(name), tuple(str(part) for part in argv))
                for name, argv in config_doc.get("external_agents", {}).items()
            ),
            canonical=bool(_resolve(args.canonical, "canonical", config_doc, "canonical", False, lambda v: v == "1")),
        )
        return cmd_generate(config)
    if args.command == "score":
        return cmd_score(
            out=_resolve(args.out, "out", {}, "out", "runs"),
            corpus=args.corpus,
            strict=args.strict if args.strict is not None else True,
        )
    if args.command == "aggregate":
        return cmd_aggregate(
            out=_resolve(args.out, "out", {}, "out", "runs"),
            episode_budget=args.episode_budget,
        )
    if args.command == "analytics":
        return cmd_analytics(out=_resolve(args.out, "out", {}, "out", "runs"), corpus=args.corpus)
    if args.command == "validate":
        return cmd_validate(args.path, strict=args.strict if args.strict is not None else True)
    raise ScenarioError(f"unknown command {args.command!r}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except (SkybenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # internal
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
