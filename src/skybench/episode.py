"""Episode data model, canonical (de)serialization, and structural validation.

The on-disk contract is the shipped draft 2020-12 schema (``data/episode_schema.json``);
semantic rules the schema cannot express (role vocabulary, alternation, turn
bounds, token arithmetic) are checked here and reported with stable violation
codes.  All types are immutable values; every function is pure.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, Union

from .errors import ParseError
from .network import SLICES, NetworkState

ROLE_USER = "user"
ROLE_AGENT = "agent"
ROLES = (ROLE_AGENT, ROLE_USER)

MIN_TURNS = 8
MAX_TURNS = 12
MAX_ATTEMPTS = 3

# Terminal error taxonomy for failure stubs.
ERROR_KINDS = ("schema_invalid", "alternation_violation", "turn_bounds", "role_disallowed", "internal")

# Violation codes emitted by validate_episode.
CODE_SCHEMA = "schema_invalid"
CODE_ROLE = "role_disallowed"
CODE_ALTERNATION = "alternation_violation"
CODE_FIRST_ROLE = "first_role_not_user"
CODE_TURN_BOUNDS = "turn_bounds"
CODE_INTENT_EMPTY = "intent_empty"
CODE_USER_STRUCTURED = "user_turn_structured"
CODE_BATTERY_RANGE = "battery_range"
CODE_TOKEN_MISMATCH = "token_mismatch"
CODE_ATTEMPTS = "attempts_exceeded"


@dataclass(frozen=True)
class McpCall:
    """A tool call: the tool's name and its arguments."""

    name: str
    args: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class A2aTask:
    """A task sent to a peer agent, with its payload."""

    task: str
    to: str
    payload: Mapping[str, Any] = field(default_factory=dict)


Action = Union[McpCall, A2aTask]


@dataclass(frozen=True)
class McpResult:
    """A tool's answer to an McpCall."""

    tool: str
    result: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class A2aAck:
    """A peer agent's acknowledgement of an A2aTask."""

    task: str
    from_agent: str
    status: str  # ok | degraded | failed
    payload: Mapping[str, Any] = field(default_factory=dict)


Observation = Union[McpResult, A2aAck]


@dataclass(frozen=True)
class Turn:
    """One dialogue turn: who spoke, what it did and saw, and the network it saw."""

    role: str
    intent: str
    action: Action | None
    observation: Observation | None
    network: NetworkState

    @property
    def structured(self) -> bool:
        return isinstance(self.action, (McpCall, A2aTask))


@dataclass(frozen=True)
class FinalState:
    """The vehicle's state and safety flags at the end of an episode."""

    position: tuple[float, float, float]
    velocity: float
    yaw: float
    battery: float
    mission_completed: bool
    altitude_violation: bool = False
    nfz_violation: bool = False
    separation_breach: bool = False
    battery_depleted: bool = False


@dataclass(frozen=True)
class EpisodeMetadata:
    """Who made an episode, from which seed, and at what cost in time and tokens."""

    model: str
    seed: int
    scenario_id: str
    gen_time_s: float
    attempts_used: int
    prompt_tokens: int
    completion_tokens: int
    total_tokens: int
    timestamp: str


@dataclass(frozen=True)
class Episode:
    """One recorded episode: its metadata, turns and final state."""

    episode_id: str
    metadata: EpisodeMetadata
    turns: tuple[Turn, ...]
    final_state: FinalState


@dataclass(frozen=True)
class FailureStub:
    """The record of a job whose attempts all failed."""

    episode_id: str
    scenario_id: str
    model: str
    seed: int
    error_kind: str
    timestamp: str
    attempts_used: int = MAX_ATTEMPTS


@dataclass(frozen=True)
class Violation:
    """One broken schema or semantic rule, and the turn it concerns."""

    code: str
    turn_index: int  # -1 when not tied to a turn
    message: str


@dataclass(frozen=True)
class ValidationReport:
    """The verdict on one record, with every violation found."""

    valid: bool
    violations: tuple[Violation, ...]

    def codes(self) -> tuple[str, ...]:
        return tuple(v.code for v in self.violations)


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------

# Six significant digits: the one float rule of every record.
_FLOAT_SPEC = ".6g"


def format_float(x: float) -> str:
    """The text of x under the float rule."""
    return format(float(x), _FLOAT_SPEC)


def canonical_float(x: float) -> float:
    """x quantized by the float rule (the float of format_float's text, made
    here without the extra call); idempotent under re-serialization."""
    return float(format(float(x), _FLOAT_SPEC))


def _quantized(x: Any) -> Any:
    """canonical_float of a float; an int, as _canonize does, stays as it is."""
    return canonical_float(x) if isinstance(x, float) else x


def _canonize(obj: Any) -> Any:
    """The canonical document of obj: floats quantized, tuples made lists,
    keys made strings.  Plain dicts, lists and tuples are matched by exact
    type before the slow typing.Mapping check."""
    if isinstance(obj, float):
        return canonical_float(obj)
    t = type(obj)
    if t is dict:
        return {str(k): _canonize(v) for k, v in obj.items()}
    if t is list or t is tuple:
        return [_canonize(v) for v in obj]
    if obj is None or isinstance(obj, (int, str)):  # bool included
        return obj
    if isinstance(obj, Mapping):
        return {str(k): _canonize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonize(v) for v in obj]
    raise TypeError(f"value not representable in an episode document: {type(obj).__name__}")


def dumps_document(doc: Mapping[str, Any]) -> str:
    """The line of a document that is already canonical, such as one built
    by episode_to_doc or stub_to_doc: sorted keys, no whitespace."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def dumps_canonical(doc: Mapping[str, Any]) -> str:
    """Compact canonical form of any document: sorted keys, 6-significant-digit floats."""
    return dumps_document(_canonize(doc))


def dumps_pretty(doc: Mapping[str, Any]) -> str:
    return json.dumps(_canonize(doc), sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# Document conversion
#
# The *_to_doc builders give canonical documents: each float is quantized
# once, here, so the document equals json.loads of its own line and can be
# validated and turned back into a value without a parse.
# ---------------------------------------------------------------------------

def action_to_doc(action: Action | None) -> dict[str, Any] | None:
    if action is None:
        return None
    if isinstance(action, McpCall):
        return {"protocol": "mcp", "name": action.name, "args": _canonize(action.args)}
    return {"protocol": "a2a", "task": action.task, "to": action.to, "payload": _canonize(action.payload)}


def observation_to_doc(obs: Observation | None) -> dict[str, Any] | None:
    if obs is None:
        return None
    if isinstance(obs, McpResult):
        return {"tool": obs.tool, "result": _canonize(obs.result)}
    return {"task": obs.task, "from": obs.from_agent, "status": obs.status, "payload": _canonize(obs.payload)}


def network_to_doc(n: NetworkState) -> dict[str, Any]:
    return {
        "slice": n.slice,
        "latency_ms": _quantized(n.latency_ms),
        "jitter_ms": _quantized(n.jitter_ms),
        "loss_pct": _quantized(n.loss_pct),
        "throughput_mbps": _quantized(n.throughput_mbps),
        "edge_load": _quantized(n.edge_load),
    }


def turn_to_doc(t: Turn) -> dict[str, Any]:
    doc: dict[str, Any] = {"role": t.role, "intent": t.intent, "network": network_to_doc(t.network)}
    action = action_to_doc(t.action)
    if action is not None:
        doc["action"] = action
    obs = observation_to_doc(t.observation)
    if obs is not None:
        doc["observation"] = obs
    return doc


def final_state_to_doc(f: FinalState) -> dict[str, Any]:
    return {
        "position": [_quantized(c) for c in f.position],
        "velocity": _quantized(f.velocity),
        "yaw": _quantized(f.yaw),
        "battery": _quantized(f.battery),
        "mission_completed": f.mission_completed,
        "altitude_violation": f.altitude_violation,
        "nfz_violation": f.nfz_violation,
        "separation_breach": f.separation_breach,
        "battery_depleted": f.battery_depleted,
    }


def episode_to_doc(e: Episode) -> dict[str, Any]:
    turns = [turn_to_doc(t) for t in e.turns]
    m = e.metadata
    return {
        "episode_id": e.episode_id,
        "metadata": {
            "model": m.model,
            "seed": m.seed,
            "scenario_id": m.scenario_id,
            "gen_time_s": _quantized(m.gen_time_s),
            "attempts_used": m.attempts_used,
            "prompt_tokens": m.prompt_tokens,
            "completion_tokens": m.completion_tokens,
            "total_tokens": m.total_tokens,
            "timestamp": m.timestamp,
        },
        "turns": turns,
        "final_state": final_state_to_doc(e.final_state),
    }


def stub_to_doc(s: FailureStub) -> dict[str, Any]:
    return {
        "kind": "failure_stub",
        "episode_id": s.episode_id,
        "scenario_id": s.scenario_id,
        "model": s.model,
        "seed": s.seed,
        "attempts_used": s.attempts_used,
        "error_kind": s.error_kind,
        "timestamp": s.timestamp,
    }


def doc_to_action(doc: Mapping[str, Any]) -> Action:
    protocol = doc.get("protocol")
    if protocol == "mcp":
        return McpCall(name=str(doc["name"]), args=dict(doc.get("args", {})))
    if protocol == "a2a":
        return A2aTask(task=str(doc["task"]), to=str(doc["to"]), payload=dict(doc.get("payload", {})))
    raise ParseError(f"unknown action protocol: {protocol!r}")


def _doc_observation(doc: Mapping[str, Any]) -> Observation:
    if "tool" in doc:
        return McpResult(tool=str(doc["tool"]), result=dict(doc.get("result", {})))
    if "task" in doc:
        return A2aAck(
            task=str(doc["task"]),
            from_agent=str(doc.get("from", "")),
            status=str(doc.get("status", "")),
            payload=dict(doc.get("payload", {})),
        )
    raise ParseError("observation is neither a tool result nor an acknowledgement")


def _doc_network(doc: Mapping[str, Any]) -> NetworkState:
    return NetworkState(
        slice=str(doc["slice"]),
        latency_ms=float(doc["latency_ms"]),
        jitter_ms=float(doc["jitter_ms"]),
        loss_pct=float(doc["loss_pct"]),
        throughput_mbps=float(doc["throughput_mbps"]),
        edge_load=float(doc["edge_load"]),
    )


def doc_to_episode(doc: Mapping[str, Any]) -> Episode:
    """Build an Episode from a parsed document.

    Raises ParseError when the document cannot be built at all; semantic rule
    breaches (bad roles, turn counts, ...) survive construction and are left
    to validate_episode.
    """
    try:
        turns = []
        for t in doc["turns"]:
            action = doc_to_action(t["action"]) if "action" in t and t["action"] is not None else None
            obs = _doc_observation(t["observation"]) if "observation" in t and t["observation"] is not None else None
            turns.append(
                Turn(
                    role=str(t["role"]),
                    intent=str(t["intent"]),
                    action=action,
                    observation=obs,
                    network=_doc_network(t["network"]),
                )
            )
        m = doc["metadata"]
        f = doc["final_state"]
        position = f["position"]
        if len(position) != 3:
            raise ParseError("final_state.position must have three components")
        return Episode(
            episode_id=str(doc["episode_id"]),
            metadata=EpisodeMetadata(
                model=str(m["model"]),
                seed=int(m["seed"]),
                scenario_id=str(m["scenario_id"]),
                gen_time_s=float(m["gen_time_s"]),
                attempts_used=int(m["attempts_used"]),
                prompt_tokens=int(m["prompt_tokens"]),
                completion_tokens=int(m["completion_tokens"]),
                total_tokens=int(m["total_tokens"]),
                timestamp=str(m["timestamp"]),
            ),
            turns=tuple(turns),
            final_state=FinalState(
                position=(float(position[0]), float(position[1]), float(position[2])),
                velocity=float(f["velocity"]),
                yaw=float(f["yaw"]),
                battery=float(f["battery"]),
                mission_completed=bool(f["mission_completed"]),
                altitude_violation=bool(f["altitude_violation"]),
                nfz_violation=bool(f["nfz_violation"]),
                separation_breach=bool(f["separation_breach"]),
                battery_depleted=bool(f["battery_depleted"]),
            ),
        )
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"cannot build episode from document: {exc}") from exc


def doc_to_stub(doc: Mapping[str, Any]) -> FailureStub:
    try:
        return FailureStub(
            episode_id=str(doc["episode_id"]),
            scenario_id=str(doc["scenario_id"]),
            model=str(doc["model"]),
            seed=int(doc["seed"]),
            attempts_used=int(doc["attempts_used"]),
            error_kind=str(doc["error_kind"]),
            timestamp=str(doc["timestamp"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"cannot build failure stub from document: {exc}") from exc


def _finite_float(text: str) -> float:
    """A JSON number as a float; one past float range (1e999) is refused."""
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"number {text} is out of range")
    return value


def _float_range_int(text: str) -> int:
    """A JSON integer; one past float range (±1.8e308) is refused, since a
    field that is read as a float could not hold it."""
    value = int(text)  # past Python's digit limit, a ValueError
    if abs(value) > sys.float_info.max:
        raise ValueError(f"integer of {len(text)} characters is out of range")
    return value


def _refuse_constant(name: str) -> float:
    raise ValueError(f"{name} is not a JSON value")


_STRICT_DECODER = json.JSONDecoder(
    parse_float=_finite_float, parse_int=_float_range_int, parse_constant=_refuse_constant
)


def loads_json(data: bytes | str) -> Any:
    """Parse JSON text that is UTF-8 and holds only values a record can hold:
    no NaN or Infinity, and no number past float range.

    Raises ParseError otherwise; this is the one parse of corpus lines,
    input files and external policy replies.
    """
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8", errors="strict")
        return _STRICT_DECODER.decode(data)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ParseError(f"not well-formed JSON: {exc}") from exc


def loads_document(data: bytes | str) -> dict[str, Any]:
    doc = loads_json(data)
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    return doc


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def load_schema() -> dict[str, Any]:
    path = Path(__file__).with_name("data") / "episode_schema.json"
    return json.loads(path.read_text("utf-8"))


# The schema check: one table per $defs object of data/episode_schema.json,
# mapping each field to its check and the rule a failing value breaks.  The
# same tables decide (fits, on every record) and explain (explain, only on a
# rejected one), so no rule is judged in one place and worded in another.
# The checks read draft 2020-12 as a reference validator does: bool is
# neither number nor integer, an integral float is an integer, and NaN passes
# every bound.  Lenient mode opens every additionalProperties.  A number
# check tests for a float, which nearly every number field holds, before it
# calls _number.  A schema change must update the tables;
# tests/test_fast_validation.py holds them to a reference validator's
# verdicts and error paths.

_Rule = tuple[Callable[[Any], bool], str]


def _number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _integer(x: Any) -> bool:
    return not isinstance(x, bool) and (isinstance(x, int) or (isinstance(x, float) and x.is_integer()))


def _at_least(low: int) -> _Rule:
    return (lambda v: (type(v) is float or _number(v)) and not v < low, f"must be a number at least {low}")


def _between(low: int, high: int) -> _Rule:
    return (
        lambda v: (type(v) is float or _number(v)) and not (v < low or v > high),
        f"must be a number from {low} to {high}",
    )


def _one_of(*values: str) -> _Rule:
    allowed = frozenset(values)
    return (lambda v: isinstance(v, str) and v in allowed, f"must be {' or '.join(values)}")


_TEXT: _Rule = (lambda v: isinstance(v, str) and v != "", "must be a non-empty string")
_STRING: _Rule = (lambda v: isinstance(v, str), "must be a string")
_OBJECT: _Rule = (lambda v: isinstance(v, dict), "must be an object")
_FLAG: _Rule = (lambda v: isinstance(v, bool), "must be true or false")
_NUMBER: _Rule = (lambda v: type(v) is float or _number(v), "must be a number")
_INTEGER: _Rule = (_integer, "must be an integer")
_COUNT: _Rule = (lambda v: _integer(v) and not v < 0, "must be an integer at least 0")


class _Object:
    """An object: a rule for each plain field, a nested part for each other
    field, and the fields that may be left out.  Strict mode admits no
    other field."""

    def __init__(self, rules: dict[str, _Rule], parts: dict[str, Any] | None = None, optional=frozenset()) -> None:
        self.rules = rules
        self.checks = tuple((name, check) for name, (check, _) in rules.items())
        self.parts = tuple((parts or {}).items())
        self.fields = frozenset(rules) | frozenset(parts or ())
        self.required = self.fields - optional

    def fits(self, obj: Any, strict: bool) -> bool:
        if not isinstance(obj, dict):
            return False
        keys = obj.keys()
        if not keys >= self.required or (strict and not keys <= self.fields):
            return False
        for name, check in self.checks:
            if not check(obj[name]):
                return False
        for name, part in self.parts:
            if name in obj and not part.fits(obj[name], strict):
                return False
        return True

    def explain(self, obj: Any, path: tuple, strict: bool, out: list) -> None:
        if not isinstance(obj, dict):
            out.append((path, "must be an object"))
            return
        out.extend((path + (name,), "is required") for name in self.required - obj.keys())
        if strict:
            out.extend((path + (name,), "is not a field of the schema") for name in obj.keys() - self.fields)
        for name, (check, rule) in self.rules.items():
            if name in obj and not check(obj[name]):
                out.append((path + (name,), rule))
        for name, part in self.parts:
            if name in obj:
                part.explain(obj[name], path + (name,), strict, out)


class _Items(NamedTuple):
    """A list whose every item is one part."""

    item: _Object

    def fits(self, value: Any, strict: bool) -> bool:
        if not isinstance(value, list):
            return False
        for entry in value:
            if not self.item.fits(entry, strict):
                return False
        return True

    def explain(self, value: Any, path: tuple, strict: bool, out: list) -> None:
        if not isinstance(value, list):
            out.append((path, "must be a list"))
            return
        for i, entry in enumerate(value):
            self.item.explain(entry, path + (i,), strict, out)


class _OneOf(NamedTuple):
    """A value that must fit exactly one of two forms (a oneOf)."""

    rule: str
    first: _Object
    second: _Object

    def fits(self, value: Any, strict: bool) -> bool:
        # Lenient mode opens both forms, so a value carrying the fields of
        # both can fit both, which oneOf rejects.
        return self.first.fits(value, strict) != self.second.fits(value, strict)

    def explain(self, value: Any, path: tuple, strict: bool, out: list) -> None:
        if not self.fits(value, strict):
            out.append((path, self.rule))


_NETWORK = _Object({
    "slice": _one_of(*SLICES),
    "latency_ms": (lambda v: (type(v) is float or _number(v)) and not v <= 0, "must be a number above 0"),
    "jitter_ms": _at_least(0),
    "loss_pct": _between(0, 100),
    "throughput_mbps": _at_least(0),
    "edge_load": _between(0, 1),
})
_ACTION = _OneOf(
    "must match exactly one form: an mcp call {protocol, name, args} or an a2a task {protocol, task, to, payload}",
    _Object({"protocol": _one_of("mcp"), "name": _TEXT, "args": _OBJECT}),
    _Object({"protocol": _one_of("a2a"), "task": _TEXT, "to": _TEXT, "payload": _OBJECT}),
)
_OBSERVATION = _OneOf(
    "must match exactly one form: a tool result {tool, result} or an acknowledgement {task, from, status, payload}",
    _Object({"tool": _TEXT, "result": _OBJECT}),
    _Object({"task": _TEXT, "from": _TEXT, "status": _one_of("ok", "degraded", "failed"), "payload": _OBJECT}),
)
_TURN = _Object(
    {"role": _STRING, "intent": _STRING},
    {"network": _NETWORK, "action": _ACTION, "observation": _OBSERVATION},
    optional=frozenset({"action", "observation"}),
)
_METADATA = _Object({
    "model": _TEXT, "seed": _INTEGER, "scenario_id": _TEXT, "gen_time_s": _at_least(0),
    "attempts_used": _INTEGER, "prompt_tokens": _COUNT, "completion_tokens": _COUNT,
    "total_tokens": _COUNT, "timestamp": _TEXT,
})
_FINAL_STATE = _Object({
    "position": (
        lambda v: isinstance(v, list) and len(v) == 3 and _number(v[0]) and _number(v[1]) and _number(v[2]),
        "must be a list of three numbers",
    ),
    "velocity": _at_least(0),
    "yaw": _NUMBER,
    "battery": _NUMBER,
    **dict.fromkeys(
        ("mission_completed", "altitude_violation", "nfz_violation", "separation_breach", "battery_depleted"), _FLAG
    ),
})
_EPISODE = _Object(
    {"episode_id": _TEXT},
    {"metadata": _METADATA, "turns": _Items(_TURN), "final_state": _FINAL_STATE},
)


def schema_accepts(doc: Any, strict: bool = True) -> bool:
    """True when the shipped schema (relaxed when not strict) accepts doc."""
    return _EPISODE.fits(doc, strict)


def _schema_violations(doc: Mapping[str, Any], strict: bool) -> list[Violation]:
    """One violation per broken rule, sorted by path; a violation under
    turns/<i> belongs to turn i."""
    found: list[tuple[tuple, str]] = []
    _EPISODE.explain(doc, (), strict, found)
    found.sort(key=lambda item: [str(p) for p in item[0]])
    return [
        Violation(CODE_SCHEMA, path[1] if len(path) > 1 and path[0] == "turns" else -1,
                  f"{'/'.join(map(str, path)) or '<root>'}: {rule}")
        for path, rule in found
    ]


def _is_mapping(x: Any) -> bool:
    # A typing.Mapping check is slow; documents hold plain dicts.
    return type(x) is dict or isinstance(x, Mapping)


def _semantic_violations(doc: Mapping[str, Any]) -> list[Violation]:
    out: list[Violation] = []
    turns = doc.get("turns")
    if isinstance(turns, list):
        n = len(turns)
        if not MIN_TURNS <= n <= MAX_TURNS:
            out.append(Violation(CODE_TURN_BOUNDS, -1, f"episode has {n} turns, expected {MIN_TURNS}..{MAX_TURNS}"))
        prev_role: Any = None
        for i, turn in enumerate(turns):
            if not _is_mapping(turn):
                continue
            role = turn.get("role")
            if isinstance(role, str) and role not in ROLES:
                out.append(Violation(CODE_ROLE, i, f"role {role!r} is not a permitted speaker"))
            if i == 0 and role != ROLE_USER:
                out.append(Violation(CODE_FIRST_ROLE, 0, f"first turn role is {role!r}, expected {ROLE_USER!r}"))
            if role is not None and role == prev_role:
                out.append(Violation(CODE_ALTERNATION, i, f"turns {i - 1} and {i} share role {role!r}"))
            prev_role = role
            intent = turn.get("intent")
            if isinstance(intent, str) and not intent.strip():
                out.append(Violation(CODE_INTENT_EMPTY, i, "intent is empty"))
            if role == ROLE_USER and ("action" in turn or "observation" in turn):
                out.append(Violation(CODE_USER_STRUCTURED, i, "user turns carry no action or observation"))
    final = doc.get("final_state")
    if _is_mapping(final):
        battery = final.get("battery")
        if isinstance(battery, (int, float)) and not isinstance(battery, bool):
            if not 0.0 <= float(battery) <= 100.0:
                out.append(Violation(CODE_BATTERY_RANGE, -1, f"battery {battery} outside [0, 100]"))
    meta = doc.get("metadata")
    if _is_mapping(meta):
        prompt, completion, total = meta.get("prompt_tokens"), meta.get("completion_tokens"), meta.get("total_tokens")
        if all(isinstance(v, int) and not isinstance(v, bool) for v in (prompt, completion, total)):
            if prompt + completion != total:
                out.append(
                    Violation(CODE_TOKEN_MISMATCH, -1, f"total_tokens {total} != prompt {prompt} + completion {completion}")
                )
        attempts = meta.get("attempts_used")
        if isinstance(attempts, int) and not isinstance(attempts, bool):
            if not 1 <= attempts <= MAX_ATTEMPTS:
                out.append(Violation(CODE_ATTEMPTS, -1, f"attempts_used {attempts} outside [1, {MAX_ATTEMPTS}]"))
    return out


def validate_episode(doc: Mapping[str, Any] | Episode, *, strict: bool = True) -> ValidationReport:
    """Check one episode document against the schema and the semantic rules.

    Accepts a parsed document or an Episode value.  Total: every problem
    becomes a listed violation, never an exception.
    """
    if isinstance(doc, Episode):
        doc = episode_to_doc(doc)
    schema = [] if schema_accepts(doc, strict) else _schema_violations(doc, strict)
    violations = schema + _semantic_violations(doc)
    return ValidationReport(valid=not violations, violations=tuple(violations))


def stub_error_kind(report: ValidationReport) -> str:
    """Collapse a validation report into the terminal stub error taxonomy."""
    codes = set(report.codes())
    if CODE_ROLE in codes:
        return "role_disallowed"
    if CODE_ALTERNATION in codes or CODE_FIRST_ROLE in codes:
        return "alternation_violation"
    if CODE_TURN_BOUNDS in codes:
        return "turn_bounds"
    return "schema_invalid"


def make_failure_stub(
    episode_id: str,
    scenario_id: str,
    model: str,
    seed: int,
    error_kind: str,
    *,
    timestamp: str = "",
) -> FailureStub:
    if error_kind not in ERROR_KINDS:
        raise ValueError(f"unknown error kind: {error_kind!r}")
    return FailureStub(
        episode_id=episode_id,
        scenario_id=scenario_id,
        model=model,
        seed=seed,
        error_kind=error_kind,
        timestamp=timestamp,
    )


# ---------------------------------------------------------------------------
# Corpus files (JSONL; stubs share the file, tagged kind=failure_stub)
# ---------------------------------------------------------------------------

Record = Union[Episode, FailureStub]


def record_to_line(record: Record) -> str:
    return dumps_document(stub_to_doc(record) if isinstance(record, FailureStub) else episode_to_doc(record))


def line_to_record(line: str | bytes) -> Record:
    doc = loads_document(line)
    if doc.get("kind") == "failure_stub":
        return doc_to_stub(doc)
    return doc_to_episode(doc)
