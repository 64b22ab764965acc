"""Span recording for the traced run, and the per-layer metrics made from it.

The tracer replaces public skybench functions *where their callers look them
up* (``skybench.agents.evolve_state``, ``skybench.cli.validate_episode``, ...)
with wrappers that record one span per call: (id, parent id, name, stage,
start, end, extra).  Spans stay in memory and are written out when the run
ends.  The program itself is not changed.

The recording half (Tracer, install) runs in the workload child; the metric
half (layer_metrics) runs in run.py and needs no skybench import.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name).  A name imported into several modules is
# wrapped at each lookup site; the wrappers do not nest because every site
# still calls the original function.
WRAP_SITES = (
    ("skybench.cli", "run_episode", "agents.run_episode"),
    ("skybench.cli", "builtin_scenarios", "scenarios.builtin_scenarios"),
    ("skybench.cli", "validate_episode", "episode.validate_episode"),
    ("skybench.cli", "dumps_canonical", "episode.dumps_canonical"),
    ("skybench.cli", "loads_document", "episode.loads_document"),
    ("skybench.cli", "doc_to_episode", "episode.doc_to_episode"),
    ("skybench.cli", "score_episode", "scoring.score_episode"),
    ("skybench.cli", "compute_t_opt", "scoring.compute_t_opt"),
    ("skybench.cli", "aggregate_model", "scoring.aggregate_model"),
    ("skybench.agents", "evolve_state", "environment.evolve_state"),
    ("skybench.agents", "evolve_network", "network.evolve_network"),
    ("skybench.agents", "sample_network_state", "network.sample_network_state"),
    ("skybench.agents", "validate_episode", "episode.validate_episode"),
    ("skybench.agents", "dumps_canonical", "episode.dumps_canonical"),
    ("skybench.agents", "doc_to_episode", "episode.doc_to_episode"),
    ("skybench.tools", "sample_network_state", "network.sample_network_state"),
    ("skybench.episode", "loads_document", "episode.loads_document"),
    ("skybench.episode", "doc_to_episode", "episode.doc_to_episode"),
    ("skybench.network", "calibrate", "network.calibrate"),
)
# (module, class, method, span name): methods are looked up on the class.
METHOD_SITES = (
    ("skybench.tools", "ToolExecutor", "execute_mcp", "tools.execute_mcp"),
    ("skybench.tools", "ToolExecutor", "execute_a2a", "tools.execute_a2a"),
)


def _result_extra(name: str, result):
    """The little each span keeps of its result, for ratio metrics."""
    if name == "agents.run_episode":
        # Episode keeps attempts_used in its metadata, a failure stub on itself.
        holder = getattr(result, "metadata", result)
        return [type(result).__name__, holder.attempts_used]
    if name == "episode.validate_episode":
        return bool(result.valid)
    if name == "episode.loads_document":
        return "stub" if result.get("kind") == "failure_stub" else "episode"
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stage = "setup"
        self.stage_id: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # Worker threads start with an empty stack: their root spans hang
            # under the stage that runs the pool.
            parent = stack[-1] if stack else tracer.stage_id
            sid = next(tracer._ids)
            stack.append(sid)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                extra = _result_extra(name, result) if result is not None else None
                tracer.spans.append((sid, parent, name, tracer.stage, t0, t1, extra))

        return traced

    def forked(self, call: int) -> None:
        """In the process forked for stage call number `call`: keep only that
        call's spans, with ids no other call uses."""
        self.spans = []
        self._ids = itertools.count(call << 32)

    def stage_call(self, stage: str, fn, *args):
        """Run one CLI stage as the root span of everything it calls."""
        self.stage = stage
        self.stage_id = next(self._ids)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            self.spans.append((self.stage_id, None, "cli." + stage, stage, t0, t1, None))
            self.stage = "idle"
            self.stage_id = None

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def install(tracer: Tracer) -> None:
    import importlib

    for module_name, attr, name in WRAP_SITES:
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.wrap(getattr(module, attr), name))
    for module_name, cls_name, method, name in METHOD_SITES:
        cls = getattr(importlib.import_module(module_name), cls_name)
        setattr(cls, method, tracer.wrap(cls.__dict__[method], name))
    # Agent policies: wrap next_turn on every class that defines one.
    agents = importlib.import_module("skybench.agents")
    done = set()
    for cls in agents.AGENT_TYPES.values():
        for klass in cls.__mro__:
            if "next_turn" in klass.__dict__ and klass not in done:
                setattr(klass, "next_turn", tracer.wrap(klass.__dict__["next_turn"], "agents.next_turn"))
                done.add(klass)


# ---------------------------------------------------------------------------
# per-layer metrics (run.py side)
# ---------------------------------------------------------------------------

SCORE_STAGES = ("score", "score_lenient")
TIMED_STAGES = ("generate", "resume", "score", "score_lenient", "aggregate", "analytics", "validate")

# name -> unit, in the order they are reported
PER_LAYER_UNITS = {
    "agents.run_episode_ms": "ms",
    "agents.run_episode_self_ms": "ms",
    "agents.next_turn_us": "us",
    "agents.next_turn_calls": "count",
    "agents.episodes_per_attempt": "ratio",
    "tools.execute_mcp_us": "us",
    "tools.execute_mcp_calls": "count",
    "tools.execute_a2a_us": "us",
    "tools.execute_a2a_calls": "count",
    "network.evolve_network_us": "us",
    "network.evolve_network_calls": "count",
    "network.sample_network_state_us": "us",
    "network.calibrate_ms": "ms",
    "environment.evolve_state_us": "us",
    "environment.evolve_state_calls": "count",
    "episode.validate_episode_us": "us",
    "episode.validate_reject_us": "us",
    "episode.validate_calls_per_record": "ratio",
    "episode.validate_calls_per_episode": "ratio",
    "episode.dumps_canonical_us": "us",
    "episode.dumps_canonical_calls_per_record": "ratio",
    "episode.loads_document_us": "us",
    "episode.doc_to_episode_calls_per_record": "ratio",
    "scoring.score_episode_us": "us",
    "scoring.score_episode_calls": "count",
    "scoring.compute_t_opt_ms": "ms",
    "scoring.aggregate_model_ms": "ms",
    "scenarios.builtin_scenarios_ms": "ms",
    "cli.generate_self_s": "s",
    "cli.resume_self_s": "s",
    "cli.score_self_s": "s",
    "cli.validate_self_s": "s",
    "cli.analytics_self_s": "s",
    "cli.generate_traced_s": "s",
}


def read_spans(path) -> list[tuple]:
    with open(path, "r", encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh if line.strip()]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (children in two threads overlap)."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[tuple], rounds: int) -> dict[str, float]:
    """Per-layer figures from the spans of one traced run of `rounds` rounds."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, parent, name, stage, t0, t1, extra in spans:
        if parent is not None:
            children[parent].append((t0, t1))

    def self_time(span) -> float:
        return (span[5] - span[4]) - _covered(children.get(span[0], []))

    timed = [s for s in spans if s[3] in TIMED_STAGES]
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in timed:
        by_name[span[2]].append(span)

    def durations(name, stages=TIMED_STAGES, scale=1.0):
        return [(s[5] - s[4]) * scale for s in by_name[name] if s[3] in stages]

    def count(name, stages=TIMED_STAGES, pred=None):
        return sum(1 for s in by_name[name] if s[3] in stages and (pred is None or pred(s)))

    runs = by_name["agents.run_episode"]
    accepted = sum(1 for s in runs if s[6] and s[6][0] == "Episode")
    attempts = sum(s[6][1] for s in runs if s[6] and s[6][1])
    generated = count("agents.run_episode", ("generate",))
    scored = count("episode.loads_document", SCORE_STAGES, lambda s: s[6] == "episode")
    setup_calibrations = [(s[5] - s[4]) * 1e3 for s in spans if s[2] == "network.calibrate" and s[3] == "setup"]

    def stage_self(stage):
        return _mean(self_time(s) for s in by_name["cli." + stage])

    m = {
        "agents.run_episode_ms": _mean(durations("agents.run_episode", scale=1e3)),
        "agents.run_episode_self_ms": _mean(self_time(s) * 1e3 for s in runs),
        "agents.next_turn_us": _mean(durations("agents.next_turn", scale=1e6)),
        "agents.next_turn_calls": count("agents.next_turn") / rounds,
        "agents.episodes_per_attempt": _ratio(accepted, attempts),
        "tools.execute_mcp_us": _mean(durations("tools.execute_mcp", scale=1e6)),
        "tools.execute_mcp_calls": count("tools.execute_mcp") / rounds,
        "tools.execute_a2a_us": _mean(durations("tools.execute_a2a", scale=1e6)),
        "tools.execute_a2a_calls": count("tools.execute_a2a") / rounds,
        "network.evolve_network_us": _mean(durations("network.evolve_network", scale=1e6)),
        "network.evolve_network_calls": count("network.evolve_network") / rounds,
        "network.sample_network_state_us": _mean(durations("network.sample_network_state", scale=1e6)),
        "network.calibrate_ms": _mean(setup_calibrations),
        "environment.evolve_state_us": _mean(durations("environment.evolve_state", scale=1e6)),
        "environment.evolve_state_calls": count("environment.evolve_state") / rounds,
        "episode.validate_episode_us": _mean(durations("episode.validate_episode", scale=1e6)),
        "episode.validate_reject_us": _mean(
            (s[5] - s[4]) * 1e6 for s in by_name["episode.validate_episode"] if s[6] is False
        ),
        "episode.validate_calls_per_record": _ratio(count("episode.validate_episode", SCORE_STAGES), scored),
        "episode.validate_calls_per_episode": _ratio(count("episode.validate_episode", ("generate",)), generated),
        "episode.dumps_canonical_us": _mean(durations("episode.dumps_canonical", scale=1e6)),
        "episode.dumps_canonical_calls_per_record": _ratio(count("episode.dumps_canonical", ("generate",)), generated),
        "episode.loads_document_us": _mean(durations("episode.loads_document", scale=1e6)),
        "episode.doc_to_episode_calls_per_record": _ratio(count("episode.doc_to_episode", SCORE_STAGES), scored),
        "scoring.score_episode_us": _mean(durations("scoring.score_episode", scale=1e6)),
        "scoring.score_episode_calls": count("scoring.score_episode") / rounds,
        "scoring.compute_t_opt_ms": _mean(durations("scoring.compute_t_opt", scale=1e3)),
        "scoring.aggregate_model_ms": _mean(durations("scoring.aggregate_model", scale=1e3)),
        "scenarios.builtin_scenarios_ms": _mean(durations("scenarios.builtin_scenarios", scale=1e3)),
        "cli.generate_self_s": stage_self("generate"),
        "cli.resume_self_s": stage_self("resume"),
        "cli.score_self_s": stage_self("score"),
        "cli.validate_self_s": stage_self("validate"),
        "cli.analytics_self_s": stage_self("analytics"),
    }
    return m
