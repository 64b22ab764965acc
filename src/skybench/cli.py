"""Command-line orchestration: generate, score, aggregate, analytics, validate.

Exit codes: 0 success, 1 usage error, 2 input error, 3 internal error.
Each run setting comes from its flag, else its SKYBENCH_<NAME> environment
variable, else the JSON config file, else its default.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import closing
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .episode import (
    canonical_float,
    check_stub,
    doc_to_episode,  # noqa: F401  (perfbench traces it at this lookup site)
    dumps_canonical,
    dumps_document,
    dumps_pretty,
    episode_values,
    format_float,
    integer_value,
    loads_document,
    loads_json,
    validate_episode,
)
from .errors import DegenerateInput, ParseError, ScenarioError, SkybenchError, checked
from .network import calibrate, default_calibration, classify_hard, verify_calibration

if TYPE_CHECKING:
    import argparse

    from .episode import ValidationReport
    from .scenarios import Scenario

# The names this module uses from the modules that only some commands run,
# by home module.  Each command binds the names of its modules here with
# _load before it runs; until then a name resolves on first access as an
# attribute of this module (__getattr__).  Either way this module is the one
# lookup site of each name, where tests patch and perfbench traces it
# (run_episode and score_episode are imported for that alone), and a value
# already set here is never overwritten.
_DEFERRED = {
    "agents": (
        "AGENT_TYPES", "EPOCH_TIMESTAMP", "SubprocessPolicy", "UserSimulator", "episode_id_for",
        "episode_seed_for", "make_agent", "run_attempts", "run_episode",
    ),
    "scenarios": ("builtin_scenarios", "load_scenario", "scenario_files"),
    "tools": ("default_registry", "load_registry_extension"),
    "scoring": (
        "LEADERBOARD_COLUMNS", "PILLAR_KEYS", "TOKEN_BUDGET", "TOOL_BUDGET", "WEIGHTS", "PillarScores",
        "ScoringContext", "aggregate_model", "compute_t_opt", "episode_terms", "finish_scores",
        "generation_efficiency", "leaderboard_rows", "pstdev", "scaled_on_overflow", "score_episode",
    ),
}
_HOME = {name: module for module, names in _DEFERRED.items() for name in names}


def _load(*modules: str) -> None:
    """Import `modules` and bind their deferred names in this module."""
    import importlib

    for module_name in modules:
        module = importlib.import_module("." + module_name, __package__)
        for name in _DEFERRED[module_name]:
            globals().setdefault(name, getattr(module, name))


def __getattr__(name: str) -> Any:
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(_HOME[name])
    return globals()[name]


ENV_PREFIX = "SKYBENCH_"

# Raised whenever the same configuration starts to give different corpus
# bytes; it is part of config_hash, so a resume never mixes the two.
# 2: per-component disturbance draws (their order changed where
#    sigma_vel_mps > sigma_pos_m).
CORPUS_VERSION = 2

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


def _read_json(path: str | Path, what: str) -> Any:
    try:
        return loads_json(Path(path).read_text("utf-8"))
    except (OSError, UnicodeDecodeError, ParseError) as exc:
        raise ScenarioError(f"cannot read {what} {path}: {exc}") from exc


def _corpus_lines(path: Path) -> Iterator[tuple[int, str | bytes]]:
    """(line number, text) for every non-blank line of a JSONL file, trimmed
    only of JSON's whitespace (space, tab, CR, LF), so that a line with any
    other, such as U+00A0, is no JSON text.  A line that is not UTF-8 comes
    as its bytes.  loads_document rejects both."""
    # surrogateescape turns each undecodable byte into a lone surrogate, so a
    # bad byte spoils only its own line; no valid UTF-8 decodes to one.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip(" \t\r\n")
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    line = line.encode("utf-8", "surrogateescape")
            if line:
                yield lineno, line


def _read_doc(doc: dict[str, Any], check: Callable[[dict[str, Any]], Any]) -> tuple[dict[str, Any], bool, Any]:
    """(document, is a failure stub, verdict) of a parsed corpus record:
    check_stub's document and no verdict for a stub, else doc and check(doc).
    Raises ParseError when check_stub or check does."""
    if doc.get("kind") == "failure_stub":
        return check_stub(doc), True, None
    return doc, False, check(doc)


def _corpus_records(path: Path, check: Callable[[dict[str, Any]], Any]) -> Iterator[tuple]:
    """The one reader of corpus records: (line number, text, *_read_doc with
    `check`) for every non-blank line of a corpus, or (line number, text,
    None, False, None) for a malformed one, which is no JSON object or for
    which _read_doc raises ParseError."""
    for lineno, line in _corpus_lines(path):
        try:
            read = _read_doc(loads_document(line), check)
        except ParseError:
            read = None, False, None
        yield lineno, line, *read


def _env_flag(raw: str) -> bool:
    if raw not in ("0", "1"):
        raise ValueError(raw)
    return raw == "1"


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@checked
class RunConfig(NamedTuple):
    """Every setting of a generate run, each with its default."""

    scenarios: str = "builtin"
    # sorted(agents.AGENT_TYPES), written out so that no command but generate
    # loads the agents
    agents: tuple[str, ...] = ("adaptive_pilot", "greedy_streamer", "safe_pilot")
    episodes_per_scenario: int = 50
    seed: int = 42
    episode_seed_set: tuple[int, ...] = (42, 77, 101, 2025, 1337)
    out: str = "runs"
    parallel: int = 1
    calibration: str | None = None
    tools: str | None = None
    canonical: bool = False
    # name -> argv for policies attached over the subprocess line protocol
    external_agents: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def _checked(self) -> RunConfig:
        for name in ("episodes_per_scenario", "seed", "parallel"):
            if not _is_int(getattr(self, name)):
                raise ScenarioError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not all(_is_int(s) for s in self.episode_seed_set):
            raise ScenarioError(f"episode seeds must be integers: {list(self.episode_seed_set)}")
        if self.seed < 0 or any(s < 0 for s in self.episode_seed_set):
            raise ScenarioError("seeds must be non-negative")
        if not isinstance(self.canonical, bool):
            raise ScenarioError(f"canonical must be true or false, got {self.canonical!r}")
        for name in ("scenarios", "out"):
            if not isinstance(getattr(self, name), str):
                raise ScenarioError(f"{name} must be a string, got {getattr(self, name)!r}")
        for name in ("calibration", "tools"):
            if getattr(self, name) is not None and not isinstance(getattr(self, name), str):
                raise ScenarioError(f"{name} must be a path string, got {getattr(self, name)!r}")
        if not all(isinstance(a, str) for a in self.agents):
            raise ScenarioError(f"agent names must be strings: {list(self.agents)}")
        if self.episodes_per_scenario < 1:
            raise ScenarioError("episodes_per_scenario must be at least 1")
        if not self.episode_seed_set:
            raise ScenarioError("episode seed set must be non-empty")
        if self.parallel < 1:
            raise ScenarioError("parallel must be at least 1")
        if not self.agents:
            raise ScenarioError("the agent list is empty")
        if len(set(self.agents)) != len(self.agents):
            raise ScenarioError(f"the agent list names an agent twice: {list(self.agents)}")
        return self

    def config_hash(self, scenario_docs: Sequence[Any], calibration_targets: Any, tools_doc: Any) -> str:
        """Hash of every setting but where the run writes and how many processes
        it uses, which change no corpus byte, with the parsed input documents
        in place of their paths; CORPUS_VERSION covers the built-in inputs."""
        import hashlib

        doc = {name: value for name, value in self._asdict().items() if name not in ("out", "parallel")}
        doc.update(
            corpus_version=CORPUS_VERSION,
            scenario_docs=scenario_docs,
            calibration=calibration_targets,
            tools=tools_doc,
            external_agents={name: list(argv) for name, argv in self.external_agents},
        )
        # Full-precision floats: six-digit quantization would give two
        # calibrations that differ in the seventh digit the same hash.
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


# Each setting a flag, a SKYBENCH_<NAME> variable or a config key can give,
# and how the variable's text is read.
_ENV_READERS = {
    "scenarios": str, "agents": str, "out": str, "calibration": str, "tools": str,
    "episodes_per_scenario": int, "seed": int, "parallel": int, "canonical": _env_flag,
}
# Settings only a config file can give.
_CONFIG_ONLY = ("episode_seed_set", "external_agents")


def _given_settings(args: Any, config_doc: Mapping[str, Any]) -> dict[str, Any]:
    """Each setting the command has a flag for, from its flag, else its
    environment variable, else the config; a setting none of them gives is
    left out, for RunConfig's default."""
    given = {}
    for name, read in _ENV_READERS.items():
        if not hasattr(args, name):
            continue
        raw = os.environ.get(ENV_PREFIX + name.upper())
        if getattr(args, name) is not None:
            given[name] = getattr(args, name)
        elif raw is not None:
            try:
                given[name] = read(raw)
            except ValueError:
                raise ScenarioError(f"{ENV_PREFIX}{name.upper()}={raw!r} is not a valid value") from None
        elif name in config_doc:
            given[name] = config_doc[name]
    return given


def _read_manifest(out_dir: Path) -> dict[str, Any]:
    """The manifest in out_dir, or {} when it is missing, unreadable, not
    JSON or not an object."""
    try:
        return loads_document((out_dir / MANIFEST_NAME).read_bytes())
    except (OSError, ParseError):
        return {}


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def _generate_line(
    scenario: Scenario,
    agent_name: str,
    index: int,
    config: RunConfig,
    calibration,
    registry,
    timestamp: str,
) -> tuple[str, bool]:
    """The record's line, and whether the record is a failure stub."""
    external = dict(config.external_agents)
    if agent_name in external:
        agent = SubprocessPolicy(external[agent_name], name=agent_name)
    else:
        agent = make_agent(agent_name, scenario)
    user = UserSimulator(prompts=scenario.user_prompts)
    try:
        doc = run_attempts(
            agent,
            user,
            scenario,
            calibration=calibration,
            registry=registry,
            global_seed=config.seed,
            episode_seed=episode_seed_for(index, config.episode_seed_set),
            index=index,
            timestamp=timestamp,
        )
    finally:
        if isinstance(agent, SubprocessPolicy):
            agent.close()
    return dumps_document(doc), doc.get("kind") == "failure_stub"


def _forked_map(fn: Callable[[Any], Any], items: Sequence[Any], workers: int) -> Iterator[Any]:
    """fn(item) for each item, in item order.  Item k is made by worker
    k mod workers: worker 0 is this process, and the others, forked on the
    first next(), each send (ok, value) per item down a pipe of their own.
    A worker stops after sending an exception, which is raised here when its
    item comes; it waits while its pipe is full, and ends at its next write
    once this process is gone.  Closing the iterator early kills the
    workers; on every path each one is reaped."""
    if workers < 2:
        yield from map(fn, items)
        return
    import pickle

    pipes, pids, done = [], [], False
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(read_fd)
                    for pipe in pipes:  # else a sibling's pipe outlives this process
                        pipe.close()
                    with os.fdopen(write_fd, "wb") as pipe:
                        for item in items[w::workers]:
                            try:
                                reply = (True, fn(item))
                            except Exception as exc:
                                reply = (False, exc)
                            pipe.write(pickle.dumps(reply))
                            pipe.flush()
                            if not reply[0]:
                                break
                    os._exit(0)
                finally:
                    os._exit(1)
            pids.append(pid)
            os.close(write_fd)
            pipes.append(os.fdopen(read_fd, "rb"))
        for k, item in enumerate(items):
            if k % workers == 0:
                value = fn(item)
            else:
                try:
                    ok, value = pickle.load(pipes[k % workers - 1])
                except (EOFError, pickle.UnpicklingError):
                    raise RuntimeError(f"generate worker {pids[k % workers - 1]} ended early") from None
                if not ok:
                    raise value
            # With the last item here, every worker has sent its share.
            done = k == len(items) - 1
            yield value
    finally:
        for pipe in pipes:
            pipe.close()
        if not done:
            import signal

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
        if done and any(statuses):
            raise RuntimeError("a generate worker did not exit cleanly")


def _vouched_counts(manifest: Mapping[str, Any], corpus_path: Path) -> dict[str, int] | None:
    """The manifest's counts when its corpus_sha256 is the digest of the
    corpus file's bytes, else None.  The file is hashed in chunks, so a
    finished corpus of any size is never held in memory."""
    import hashlib

    counts = manifest.get("counts")
    if not (
        isinstance(manifest.get("corpus_sha256"), str)
        and isinstance(counts, dict)
        and all(_is_int(counts.get(key)) for key in ("jobs", "episodes", "failure_stubs"))
    ):
        return None
    digest = hashlib.sha256()
    with open(corpus_path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return counts if digest.hexdigest() == manifest["corpus_sha256"] else None


def _print_written(counts: Mapping[str, int], corpus_path: Path) -> None:
    print(
        f"wrote {counts['jobs']} records ({counts['episodes']} episodes, "
        f"{counts['failure_stubs']} stubs) to {corpus_path}"
    )


def cmd_generate(config: RunConfig) -> int:
    _load("agents", "scenarios", "tools")
    # The agent names need no input file, so they are checked before any is read.
    external = dict(config.external_agents)
    for name in config.agents:
        if name not in AGENT_TYPES and name not in external:
            raise ScenarioError(f"unknown agent {name!r}; known: {sorted(AGENT_TYPES)} plus external agents")
    # Each input document is read once: the run is built from the parsed
    # documents and config_hash covers the same values.
    builtin = config.scenarios == "builtin"
    scenario_docs = [] if builtin else [_read_json(p, "scenario") for p in scenario_files(config.scenarios)]
    targets = _read_json(config.calibration, "calibration") if config.calibration else None
    tools_doc = _read_json(config.tools, "tool registry") if config.tools else None
    config_hash = config.config_hash(scenario_docs, targets, tools_doc)
    # The user's input files are checked before the manifest is read, so a
    # bad one exits 2 even over a finished corpus.  The built-in inputs need
    # no check, so they are read only when there is work to do.
    scenarios = () if builtin else tuple(load_scenario(doc) for doc in scenario_docs)
    # Episode ids, which key the jobs and the resume, name a scenario by its id.
    ids = [s.scenario_id for s in scenarios]
    twice = sorted({i for i in ids if ids.count(i) > 1})
    if twice:
        raise ScenarioError(f"more than one scenario has the id {', '.join(map(repr, twice))}")
    if targets is not None:
        calibration = calibrate(targets)
        verify_calibration(calibration, targets)
    if tools_doc is not None:
        registry = load_registry_extension(tools_doc)
    out_dir = Path(config.out)
    corpus_path = out_dir / CORPUS_NAME
    partial_path = out_dir / (CORPUS_NAME + ".partial")
    # Resume only when the previous run used the same configuration.
    previous = _read_manifest(out_dir) if corpus_path.exists() else {}
    resumable = previous.get("config_hash") == config_hash
    if resumable and (counts := _vouched_counts(previous, corpus_path)) is not None:
        # The manifest vouches for these very bytes: a finished run of this
        # configuration, so there is nothing to parse or write.
        partial_path.unlink(missing_ok=True)
        _print_written(counts, corpus_path)
        return EXIT_OK
    if builtin:
        scenarios = builtin_scenarios()
    if targets is None:
        calibration = default_calibration()
    if tools_doc is None:
        registry = default_registry()
    jobs: dict[str, tuple[Scenario, str, int]] = {}
    for scenario in scenarios:
        for agent_name in config.agents:
            for index in range(config.episodes_per_scenario):
                episode_id = episode_id_for(scenario.scenario_id, agent_name, index)
                if episode_id in jobs:  # as "S01" with agent "a-b" and "S01-a" with agent "b"
                    other, other_agent, _ = jobs[episode_id]
                    raise ScenarioError(
                        f"the jobs of scenario {other.scenario_id!r} with agent {other_agent!r} and of scenario "
                        f"{scenario.scenario_id!r} with agent {agent_name!r} share the episode id {episode_id!r}"
                    )
                jobs[episode_id] = (scenario, agent_name, index)
    out_dir.mkdir(parents=True, exist_ok=True)
    existing: dict[str, tuple[str, bool]] = {}
    if resumable:
        # A line is kept only as a record generate could have written for
        # one of the jobs: a stub, or an episode that strict validation
        # passes.  The job of any other line is run again.
        for _, line, doc, is_stub, report in _corpus_records(corpus_path, validate_episode):
            if doc is not None and (is_stub or report.valid):
                episode_id = doc["episode_id"]
                if isinstance(episode_id, str) and episode_id in jobs:
                    existing[episode_id] = (line, is_stub)
    if config.canonical:
        timestamp = EPOCH_TIMESTAMP
    else:
        from datetime import datetime, timezone

        timestamp = datetime.now(timezone.utc).isoformat()

    # Only the jobs that the resume lacks are handed to workers.
    todo = [job for episode_id, job in jobs.items() if episode_id not in existing]
    made = _forked_map(
        lambda job: _generate_line(*job, config, calibration, registry, timestamp),
        todo,
        min(config.parallel, len(todo)),
    )

    # Lines stream to a side file in job order, hashed as they go; the corpus
    # is replaced only once every line is written, so a failed run leaves the
    # old one whole.
    import hashlib

    digest = hashlib.sha256()
    stubs = 0
    with closing(made), open(partial_path, "wb") as fh:
        for episode_id in jobs:
            line, is_stub = existing.get(episode_id) or next(made)
            data = line.encode("utf-8") + b"\n"
            fh.write(data)
            digest.update(data)
            stubs += is_stub
    # No manifest may vouch for a corpus it does not describe: if writing the
    # new one fails, the next run finds none and regenerates.
    (out_dir / MANIFEST_NAME).unlink(missing_ok=True)
    # A rename onto an existing file makes ext4 write the new one out at once
    # (auto_da_alloc), which took longer than the rest of a small resume.
    # Without a manifest the old corpus is no longer resumable anyway.
    corpus_path.unlink(missing_ok=True)
    os.replace(partial_path, corpus_path)
    episodes = len(jobs) - stubs
    manifest = {
        "config_hash": config_hash,
        "corpus_version": CORPUS_VERSION,
        "scenarios": [s.scenario_id for s in scenarios],
        "agents": list(config.agents),
        "episodes_per_scenario": config.episodes_per_scenario,
        "seed": config.seed,
        "episode_seed_set": list(config.episode_seed_set),
        "episode_budget_per_model": len(scenarios) * config.episodes_per_scenario,
        "counts": {"jobs": len(jobs), "episodes": episodes, "failure_stubs": stubs},
        "corpus_sha256": digest.hexdigest(),
        "seed_derivation": (
            "episode seed = seed_set[index mod len(seed_set)]; RNG stream = "
            "SeedSequence(global seed, episode seed, sha256(scenario|agent|index)[:16])"
        ),
        "generated_at": timestamp,
    }
    (out_dir / MANIFEST_NAME).write_text(dumps_pretty(manifest) + "\n", "utf-8")
    _print_written(manifest["counts"], corpus_path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

def _check_doc(doc: Mapping[str, Any], is_stub: bool, report: ValidationReport | None) -> dict[str, Any] | tuple:
    """The score record of a failure stub or an invalid episode, which t_opt
    does not change; for a valid episode, its identity keys and the
    EpisodeTerms read from its validated document, which _finish scores.
    Takes _read_doc's reading of a record, with validate_episode's report."""
    if is_stub:
        keys = ("kind", "model", "scenario_id", "seed", "attempts_used", "error_kind")
        return {**{key: doc[key] for key in keys}, "scored": False}
    meta = doc.get("metadata") if isinstance(doc.get("metadata"), Mapping) else {}
    # aggregate reads the model and the attempts by exact type, so a value of
    # any other type is written as a missing one is; an integral float is
    # the integer the schema takes it for.
    model = meta.get("model")
    attempts = integer_value(meta.get("attempts_used"))
    base: dict[str, Any] = {
        "episode_id": doc.get("episode_id", ""),
        "model": model if type(model) is str else "unknown",
        "scenario_id": meta.get("scenario_id", ""),
        "seed": meta.get("seed", 0),
        "attempts_used": 0 if attempts is None else attempts,
    }
    if not report.valid:
        base.update(valid=False, alpha3=0.0, violations=sorted(set(report.codes())))
        return base
    return base, episode_terms(doc, report)


def _finish(entry: dict[str, Any] | tuple, ctx: ScoringContext) -> dict[str, Any]:
    """The score record of a _check_doc result.  A valid episode's record is
    built from canonical values (its floats quantized, an int left as it is),
    so dumps_document writes it as dumps_canonical would."""
    if isinstance(entry, dict):
        return entry
    base, terms = entry
    scores = finish_scores(terms, ctx)
    try:
        ge_time, ge_tokens = generation_efficiency(scores.alpha3, terms.gen_time_s, terms.total_tokens)
    except DegenerateInput:
        ge_time = ge_tokens = 0.0
    seed = base["seed"]  # an integer, or the integral float the schema takes for one
    base.update(
        seed=canonical_float(seed) if type(seed) is float else seed,
        valid=True,
        turns=terms.turns,
        pillars={key: canonical_float(value) for key, value in scores.as_dict().items()},
        alpha3=canonical_float(scores.alpha3),
        ge_per_sec=canonical_float(ge_time),
        ge_per_1k=canonical_float(ge_tokens),
        mission_completed=terms.mission_completed,
        gen_time_s=canonical_float(terms.gen_time_s),
        total_tokens=terms.total_tokens,
    )
    return base


def _score_doc(doc: Mapping[str, Any], ctx: ScoringContext, strict: bool) -> dict[str, Any]:
    """Score one corpus record."""
    _load("scoring")
    return _finish(_check_doc(*_read_doc(doc, partial(validate_episode, strict=strict))), ctx)


def cmd_score(out: str, corpus: str | None = None, strict: bool = True) -> int:
    _load("scoring")
    out_dir = Path(out)
    corpus_path = Path(corpus) if corpus else out_dir / CORPUS_NAME
    if not corpus_path.exists():
        raise ScenarioError(f"corpus not found: {corpus_path}")
    # One pass: each record is validated and its document dropped, keeping
    # only what t_opt does not change; t_opt needs every valid episode before
    # any of them can be finished.
    entries = []
    malformed = 0
    for _, _, doc, is_stub, report in _corpus_records(corpus_path, partial(validate_episode, strict=strict)):
        if doc is None:
            malformed += 1
        else:
            entries.append(_check_doc(doc, is_stub, report))
    valid_terms = [entry[1] for entry in entries if isinstance(entry, tuple)]
    t_opt = compute_t_opt(valid_terms)
    ctx = ScoringContext(t_opt=t_opt)
    out_dir.mkdir(parents=True, exist_ok=True)
    scores_path = out_dir / SCORES_NAME
    with open(scores_path, "w", encoding="utf-8") as fh:
        for entry in entries:
            dumps = dumps_document if isinstance(entry, tuple) else dumps_canonical
            fh.write(dumps(_finish(entry, ctx)))
            fh.write("\n")
    meta = {
        "t_opt": t_opt,
        "strict": strict,
        "records": len(entries),
        "valid_episodes": len(valid_terms),
        "malformed_lines": malformed,
        "weights": list(WEIGHTS),
        "budgets": {"token_budget": TOKEN_BUDGET, "tool_budget": TOOL_BUDGET},
    }
    (out_dir / SCORING_META_NAME).write_text(dumps_pretty(meta) + "\n", "utf-8")
    if malformed:
        print(f"warning: {malformed} malformed lines skipped", file=sys.stderr)
    print(f"scored {len(entries)} records (t_opt={t_opt}) to {scores_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# aggregate
# ---------------------------------------------------------------------------

def _infer_budget(out_dir: Path, by_model: Mapping[str, Mapping[str, Any]]) -> int:
    """The manifest's budget, else the most records any model has."""
    try:
        budget = int(_read_manifest(out_dir)["episode_budget_per_model"])
        if budget > 0:
            return budget
    except (KeyError, TypeError, ValueError):
        pass
    return max((len(slot["scores"]) + slot["fails"] for slot in by_model.values()), default=1)


# A score-record field's allowed types, matched exactly: a parsed JSON value
# is never of a subclass, so a bool is no number.
_NUMBER = (int, float)
_TYPE_NAMES = {(str,): "a string", (int,): "an integer", (bool,): "true or false", (dict,): "an object",
               _NUMBER: "a number"}


def _score_field(doc: Mapping[str, Any], key: str, types: tuple[type, ...]) -> Any:
    """doc[key], which must be of one of `types`; raises ParseError otherwise."""
    try:
        value = doc[key]
    except KeyError:
        raise ParseError(f"missing field {key!r}") from None
    if type(value) not in types:
        raise ParseError(f"field {key!r} must be {_TYPE_NAMES[types]}, got {value!r}")
    return value


def cmd_aggregate(out: str, episode_budget: int | None = None) -> int:
    import csv

    _load("scoring")
    if episode_budget is not None and episode_budget < 1:
        raise ScenarioError(f"episode budget must be at least 1, got {episode_budget}")
    out_dir = Path(out)
    scores_path = out_dir / SCORES_NAME
    if not scores_path.exists():
        raise ScenarioError(f"score sidecar not found: {scores_path} (run `skybench score` first)")
    by_model: dict[str, dict[str, Any]] = {}
    for lineno, line in _corpus_lines(scores_path):
        try:
            doc = loads_document(line)
            slot = by_model.setdefault(
                _score_field(doc, "model", (str,)),
                {"scores": [], "fails": 0, "attempts": 0, "times": [], "tokens": [], "success": []},
            )
            slot["attempts"] += _score_field(doc, "attempts_used", (int,))
            if doc.get("kind") == "failure_stub" or doc.get("valid") is False:
                slot["fails"] += 1
                continue
            pillars = _score_field(doc, "pillars", (dict,))
            slot["scores"].append(
                PillarScores(*[float(_score_field(pillars, k, _NUMBER)) for k in (*PILLAR_KEYS, "alpha3")])
            )
            slot["times"].append(float(_score_field(doc, "gen_time_s", _NUMBER)))
            slot["tokens"].append(float(_score_field(doc, "total_tokens", _NUMBER)))
            slot["success"].append(_score_field(doc, "mission_completed", (bool,)))
        except ParseError as exc:
            raise ParseError(f"{scores_path} line {lineno}: {exc}") from None
    budget = episode_budget or _infer_budget(out_dir, by_model)

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
                [row["model"]] + [format_float(row[c]) for c in LEADERBOARD_COLUMNS[1:]]
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


def corpus_analytics(episodes: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Usage tables of `episodes`, each the values episode_values gives an
    episode document, folded in one pass: the tables of the Episodes the
    documents build, and none is built.
    """
    import statistics
    from array import array

    _load("scoring")
    n_episodes = 0
    intent_counts: dict[str, int] = {}
    mcp_counts: dict[str, int] = {}
    mcp_slice: dict[str, dict[str, int]] = {}
    a2a_counts: dict[str, int] = {}
    a2a_total = 0
    a2a_degraded = 0
    episodes_with_a2a = 0
    bins: list[dict[str, Any]] = [
        {"bin": f"{int(lo)}-{int(hi) if hi != float('inf') else 'inf'}", "values": array("d"), "slices": {}, "actions": {}, "intents": {}}
        for lo, hi in LATENCY_BINS
    ]

    for episode in episodes:
        n_episodes += 1
        saw_a2a = False
        for turn in episode["turns"]:
            intent = turn["intent"] if turn["role"] == "agent" else None
            if intent is not None:
                intent_counts[intent] = intent_counts.get(intent, 0) + 1
            network = turn["network"]
            slice_name = network["slice"]
            latency = network["latency_ms"]
            action = turn["action"]
            action_name = None
            if action is not None and action["protocol"] == "mcp":
                action_name = action["name"]
                mcp_counts[action_name] = mcp_counts.get(action_name, 0) + 1
                per_slice = mcp_slice.setdefault(action_name, {})
                per_slice[slice_name] = per_slice.get(slice_name, 0) + 1
            elif action is not None:
                action_name = action["task"]
                a2a_counts[action_name] = a2a_counts.get(action_name, 0) + 1
                a2a_total += 1
                saw_a2a = True
                if classify_hard(network):
                    a2a_degraded += 1
            for (lo, hi), slot in zip(LATENCY_BINS, bins):
                if lo <= latency < hi:
                    slot["values"].append(latency)
                    slot["slices"][slice_name] = slot["slices"].get(slice_name, 0) + 1
                    if action_name:
                        slot["actions"][action_name] = slot["actions"].get(action_name, 0) + 1
                    if intent is not None:
                        slot["intents"][intent] = slot["intents"].get(intent, 0) + 1
                    break
        if saw_a2a:
            episodes_with_a2a += 1

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
                "mean_ms": scaled_on_overflow(statistics.fmean, slot["values"]) if slot["values"] else 0.0,
                "std_ms": scaled_on_overflow(pstdev, slot["values"]) if len(slot["values"]) > 1 else 0.0,
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
    malformed = 0

    def episodes() -> Iterator[dict[str, Any]]:
        """The values of the corpus' buildable episode documents; a stub is
        skipped, and a line that builds no record counts as malformed."""
        nonlocal malformed
        for _, _, doc, is_stub, values in _corpus_records(corpus_path, episode_values):
            if doc is None:
                malformed += 1
            elif not is_stub:
                yield values

    report = corpus_analytics(episodes())
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
    check = partial(validate_episode, strict=strict)
    if file_path.suffix != ".jsonl":
        # A stub is read as in a corpus: an ill-typed one raises.
        _, is_stub, report = _read_doc(loads_document(file_path.read_bytes()), check)
        if is_stub or report.valid:
            print("valid")
            return EXIT_OK
        for violation in report.violations:
            where = f"turn {violation.turn_index}" if violation.turn_index >= 0 else "episode"
            print(f"{violation.code} @ {where}: {violation.message}")
        return EXIT_INPUT
    invalid = malformed = 0
    for lineno, _, doc, is_stub, report in _corpus_records(file_path, check):
        if doc is None:
            malformed += 1
            print(f"line {lineno}: MALFORMED")
        elif not (is_stub or report.valid):
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

# Each command's help line and flags: (flag, dest, kind, help), where kind
# is str or int for a flag that takes a value and, for a switch, the value
# it stores.  Every dest defaults to None, but strict, which is on unless
# --lenient is given; --strict and --lenient exclude each other.
_STRICTNESS = (("--strict", "strict", True, None), ("--lenient", "strict", False, None))
_COMMANDS: dict[str, tuple[str, tuple[tuple[str, str, Any, str | None], ...]]] = {
    "generate": ("generate a corpus of episodes", (
        ("--config", "config", str, "JSON config file"),
        ("--scenarios", "scenarios", str, "'builtin', a scenario file, or a directory"),
        ("--agents", "agents", str, "comma-separated agent names"),
        ("--episodes-per-scenario", "episodes_per_scenario", int, None),
        ("--seed", "seed", int, None),
        ("--out", "out", str, None),
        ("--parallel", "parallel", int, None),
        ("--calibration", "calibration", str, "JSON calibration targets file"),
        ("--tools", "tools", str, "JSON tool-registry extension file"),
        ("--canonical", "canonical", True, "normalize timestamps"),
    )),
    "score": ("score a corpus into a JSONL sidecar", (
        ("--out", "out", str, None), ("--corpus", "corpus", str, None), *_STRICTNESS,
    )),
    "aggregate": ("aggregate scores into a leaderboard CSV", (
        ("--out", "out", str, None), ("--episode-budget", "episode_budget", int, None),
    )),
    "analytics": ("corpus usage statistics", (("--out", "out", str, None), ("--corpus", "corpus", str, None))),
    "validate": ("validate an episode file or corpus", _STRICTNESS),
}


def _fast_parse(argv: list[str]) -> SimpleNamespace | None:
    """argparse's namespace for argv, when argv is a command followed only by
    its exact flags, each value flag's value (a token that does not start
    with '-'; the last one wins) and, for validate, one path; else None, and
    argparse parses it.  --strict and --lenient may not both appear."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    command, tokens = argv[0], iter(argv[1:])
    flags = {flag: (dest, kind) for flag, dest, kind, _ in _COMMANDS[command][1]}
    settings: dict[str, Any] = {"command": command}
    settings.update((dest, True if dest == "strict" else None) for dest, _ in flags.values())
    seen = set()
    for token in tokens:
        if token in flags:
            dest, kind = flags[token]
            seen.add(token)
            if kind is str or kind is int:
                value = next(tokens, "-")
                if value.startswith("-"):
                    return None
                try:
                    settings[dest] = kind(value)
                except ValueError:
                    return None
            else:
                settings[dest] = kind
        elif command == "validate" and "path" not in settings and not token.startswith("-"):
            settings["path"] = token
        else:
            return None
    if {"--strict", "--lenient"} <= seen or (command == "validate" and "path" not in settings):
        return None
    return SimpleNamespace(**settings)


def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every command, which prints help, usage and
    usage errors (exit 1); only argv that _fast_parse declines reach it."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message: str) -> None:  # argparse defaults to exit code 2
            self.print_usage(sys.stderr)
            self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    parser = Parser(prog="skybench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=help_text)
        if command == "validate":
            cmd.add_argument("path")
        strictness = None
        for flag, dest, kind, flag_help in flags:
            if kind is str or kind is int:
                cmd.add_argument(flag, type=kind, default=None, help=flag_help)
            elif dest == "strict":
                strictness = strictness or cmd.add_mutually_exclusive_group()
                action = "store_true" if kind else "store_false"
                strictness.add_argument(flag, dest=dest, action=action, default=True)
            else:
                cmd.add_argument(flag, dest=dest, action="store_true", default=None, help=flag_help)
    return parser


def _run(args: Any) -> int:
    if args.command == "generate":
        config_doc = _read_json(args.config, "config") if args.config else {}
        if not isinstance(config_doc, dict):
            raise ScenarioError(f"config {args.config} must hold a JSON object")
        unknown = sorted(set(config_doc) - set(_ENV_READERS) - set(_CONFIG_ONLY))
        if unknown:
            raise ScenarioError(f"config {args.config} has unknown keys {unknown}")
        given = _given_settings(args, config_doc)
        if "agents" in given:
            agents = given["agents"]
            if isinstance(agents, str):
                given["agents"] = tuple(a.strip() for a in agents.split(",") if a.strip())
            elif isinstance(agents, list):
                given["agents"] = tuple(agents)
            else:
                raise ScenarioError(f"agents must be a list or a comma-separated string, got {agents!r}")
        if "episode_seed_set" in config_doc:
            seed_set = config_doc["episode_seed_set"]
            if not isinstance(seed_set, list):
                raise ScenarioError(f"episode_seed_set must be a list, got {seed_set!r}")
            given["episode_seed_set"] = tuple(seed_set)
        if "external_agents" in config_doc:
            external = config_doc["external_agents"]
            if not isinstance(external, dict) or not all(
                isinstance(argv, list) and argv and all(isinstance(part, str) for part in argv)
                for argv in external.values()
            ):
                raise ScenarioError("external_agents must map each name to a non-empty argv list of strings")
            given["external_agents"] = tuple((name, tuple(argv)) for name, argv in external.items())
        return cmd_generate(RunConfig(**given))
    if args.command == "validate":
        return cmd_validate(args.path, strict=args.strict)
    out = _given_settings(args, {}).get("out", RunConfig._field_defaults["out"])
    if args.command == "score":
        return cmd_score(out=out, corpus=args.corpus, strict=args.strict)
    if args.command == "aggregate":
        return cmd_aggregate(out=out, episode_budget=args.episode_budget)
    if args.command == "analytics":
        return cmd_analytics(out=out, corpus=args.corpus)
    raise ScenarioError(f"unknown command {args.command!r}")


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _fast_parse(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
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
