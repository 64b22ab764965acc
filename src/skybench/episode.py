"""Episode data model, canonical (de)serialization, and structural validation.

The on-disk contract is the shipped draft 2020-12 schema (``data/episode_schema.json``);
semantic rules the schema cannot express (role vocabulary, alternation, turn
bounds, token arithmetic) are checked here and reported with stable violation
codes.  All types are immutable values; every function is pure.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Any, Iterable, Mapping, Union

from jsonschema import Draft202012Validator

from .errors import ParseError
from .network import NetworkState

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
    name: str
    args: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class A2aTask:
    task: str
    to: str
    payload: Mapping[str, Any] = field(default_factory=dict)


Action = Union[McpCall, A2aTask]


@dataclass(frozen=True)
class McpResult:
    tool: str
    result: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class A2aAck:
    task: str
    from_agent: str
    status: str  # ok | degraded | failed
    payload: Mapping[str, Any] = field(default_factory=dict)


Observation = Union[McpResult, A2aAck]


@dataclass(frozen=True)
class Turn:
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
    position: tuple[float, float, float]
    velocity: float
    yaw: float
    battery: float
    mission_completed: bool
    altitude_violation: bool = False
    nfz_violation: bool = False
    separation_breach: bool = False
    battery_depleted: bool = False

    def any_violation(self) -> bool:
        return (
            self.altitude_violation
            or self.nfz_violation
            or self.separation_breach
            or self.battery_depleted
        )


@dataclass(frozen=True)
class EpisodeMetadata:
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
    episode_id: str
    metadata: EpisodeMetadata
    turns: tuple[Turn, ...]
    final_state: FinalState


@dataclass(frozen=True)
class FailureStub:
    episode_id: str
    scenario_id: str
    model: str
    seed: int
    error_kind: str
    timestamp: str
    attempts_used: int = MAX_ATTEMPTS


@dataclass(frozen=True)
class Violation:
    code: str
    turn_index: int  # -1 when not tied to a turn
    message: str


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[Violation, ...]

    def codes(self) -> tuple[str, ...]:
        return tuple(v.code for v in self.violations)


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------

def format_float(x: float) -> str:
    """The six-significant-digit text of x: the one float rule of every record."""
    return format(float(x), ".6g")


def canonical_float(x: float) -> float:
    """Quantize to six significant digits; idempotent under re-serialization."""
    return float(format_float(x))


def _canonize(obj: Any) -> Any:
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return canonical_float(obj)
    if isinstance(obj, Mapping):
        return {str(k): _canonize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonize(v) for v in obj]
    raise TypeError(f"value not representable in an episode document: {type(obj).__name__}")


def dumps_canonical(doc: Mapping[str, Any]) -> str:
    """Compact canonical form: sorted keys, 6-significant-digit floats."""
    return json.dumps(_canonize(doc), sort_keys=True, separators=(",", ":"))


def dumps_pretty(doc: Mapping[str, Any]) -> str:
    return json.dumps(_canonize(doc), sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# Document conversion
# ---------------------------------------------------------------------------

def action_to_doc(action: Action | None) -> dict[str, Any] | None:
    if action is None:
        return None
    if isinstance(action, McpCall):
        return {"protocol": "mcp", "name": action.name, "args": dict(action.args)}
    return {"protocol": "a2a", "task": action.task, "to": action.to, "payload": dict(action.payload)}


def observation_to_doc(obs: Observation | None) -> dict[str, Any] | None:
    if obs is None:
        return None
    if isinstance(obs, McpResult):
        return {"tool": obs.tool, "result": dict(obs.result)}
    return {"task": obs.task, "from": obs.from_agent, "status": obs.status, "payload": dict(obs.payload)}


def network_to_doc(n: NetworkState) -> dict[str, Any]:
    return {
        "slice": n.slice,
        "latency_ms": n.latency_ms,
        "jitter_ms": n.jitter_ms,
        "loss_pct": n.loss_pct,
        "throughput_mbps": n.throughput_mbps,
        "edge_load": n.edge_load,
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


def episode_to_doc(e: Episode) -> dict[str, Any]:
    turns = [turn_to_doc(t) for t in e.turns]
    m = e.metadata
    f = e.final_state
    return {
        "episode_id": e.episode_id,
        "metadata": {
            "model": m.model,
            "seed": m.seed,
            "scenario_id": m.scenario_id,
            "gen_time_s": m.gen_time_s,
            "attempts_used": m.attempts_used,
            "prompt_tokens": m.prompt_tokens,
            "completion_tokens": m.completion_tokens,
            "total_tokens": m.total_tokens,
            "timestamp": m.timestamp,
        },
        "turns": turns,
        "final_state": {
            "position": list(f.position),
            "velocity": f.velocity,
            "yaw": f.yaw,
            "battery": f.battery,
            "mission_completed": f.mission_completed,
            "altitude_violation": f.altitude_violation,
            "nfz_violation": f.nfz_violation,
            "separation_breach": f.separation_breach,
            "battery_depleted": f.battery_depleted,
        },
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


def loads_document(data: bytes | str) -> dict[str, Any]:
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8", errors="strict")
        doc = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"not well-formed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    return doc


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def load_schema() -> dict[str, Any]:
    text = resources.files("skybench.data").joinpath("episode_schema.json").read_text("utf-8")
    return json.loads(text)


def _relax(schema: Any) -> Any:
    if isinstance(schema, dict):
        return {
            k: (True if k == "additionalProperties" else _relax(v))
            for k, v in schema.items()
        }
    if isinstance(schema, list):
        return [_relax(v) for v in schema]
    return schema


_VALIDATORS: dict[bool, Draft202012Validator] = {}


def _validator(strict: bool) -> Draft202012Validator:
    if strict not in _VALIDATORS:
        schema = load_schema()
        if not strict:
            schema = _relax(copy.deepcopy(schema))
        Draft202012Validator.check_schema(schema)
        _VALIDATORS[strict] = Draft202012Validator(schema)
    return _VALIDATORS[strict]


def _turn_index_of(path: Iterable[Any]) -> int:
    parts = list(path)
    if len(parts) >= 2 and parts[0] == "turns" and isinstance(parts[1], int):
        return parts[1]
    return -1


# Fast accept path.  A hand-written reading of data/episode_schema.json that
# answers only "accepted or not"; each helper below mirrors one $defs entry,
# with jsonschema's type rules (bool is neither number nor integer, an
# integral float is an integer) and its comparisons (NaN passes every bound).
# jsonschema stays the oracle: it runs whenever this check rejects, so every
# reported violation comes from it.  A schema change must update both, and
# tests/test_fast_validation.py holds them to the same verdict.

_ROOT_KEYS = frozenset({"episode_id", "metadata", "turns", "final_state"})
_TURN_REQUIRED = frozenset({"role", "intent", "network"})
_TURN_KEYS = _TURN_REQUIRED | {"action", "observation"}
_NETWORK_KEYS = frozenset({"slice", "latency_ms", "jitter_ms", "loss_pct", "throughput_mbps", "edge_load"})
_MCP_KEYS = frozenset({"protocol", "name", "args"})
_A2A_KEYS = frozenset({"protocol", "task", "to", "payload"})
_RESULT_KEYS = frozenset({"tool", "result"})
_ACK_KEYS = frozenset({"task", "from", "status", "payload"})
_METADATA_KEYS = frozenset({
    "model", "seed", "scenario_id", "gen_time_s", "attempts_used",
    "prompt_tokens", "completion_tokens", "total_tokens", "timestamp",
})
_FINAL_KEYS = frozenset({
    "position", "velocity", "yaw", "battery", "mission_completed",
    "altitude_violation", "nfz_violation", "separation_breach", "battery_depleted",
})
_FINAL_FLAGS = ("mission_completed", "altitude_violation", "nfz_violation", "separation_breach", "battery_depleted")
_SLICE_NAMES = frozenset({"URLLC", "eMBB", "mMTC"})
_ACK_STATUSES = frozenset({"ok", "degraded", "failed"})


def _keys_ok(obj: dict, required: frozenset, allowed: frozenset, strict: bool) -> bool:
    keys = obj.keys()
    return keys >= required and (not strict or keys <= allowed)


def _number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _integer(x: Any) -> bool:
    if isinstance(x, bool):
        return False
    return isinstance(x, int) or (isinstance(x, float) and x.is_integer())


def _text(x: Any) -> bool:
    """A string of minLength 1."""
    return isinstance(x, str) and len(x) >= 1


def _network_ok(n: Any, strict: bool) -> bool:
    if not (isinstance(n, dict) and _keys_ok(n, _NETWORK_KEYS, _NETWORK_KEYS, strict)):
        return False
    slice_name = n["slice"]
    latency, jitter, loss = n["latency_ms"], n["jitter_ms"], n["loss_pct"]
    throughput, edge = n["throughput_mbps"], n["edge_load"]
    return (
        isinstance(slice_name, str) and slice_name in _SLICE_NAMES
        and _number(latency) and not latency <= 0
        and _number(jitter) and not jitter < 0
        and _number(loss) and not loss < 0 and not loss > 100
        and _number(throughput) and not throughput < 0
        and _number(edge) and not edge < 0 and not edge > 1
    )


def _action_ok(a: Any, strict: bool) -> bool:
    # The two oneOf branches pin different protocol constants, so at most one
    # can match in either mode.
    if not isinstance(a, dict):
        return False
    protocol = a.get("protocol")
    if protocol == "mcp":
        return _keys_ok(a, _MCP_KEYS, _MCP_KEYS, strict) and _text(a["name"]) and isinstance(a["args"], dict)
    if protocol == "a2a":
        return (
            _keys_ok(a, _A2A_KEYS, _A2A_KEYS, strict)
            and _text(a["task"]) and _text(a["to"]) and isinstance(a["payload"], dict)
        )
    return False


def _observation_ok(o: Any, strict: bool) -> bool:
    if not isinstance(o, dict):
        return False
    result = (
        _keys_ok(o, _RESULT_KEYS, _RESULT_KEYS, strict)
        and _text(o["tool"]) and isinstance(o["result"], dict)
    )
    ack = (
        _keys_ok(o, _ACK_KEYS, _ACK_KEYS, strict)
        and _text(o["task"]) and _text(o["from"])
        and isinstance(o["status"], str) and o["status"] in _ACK_STATUSES
        and isinstance(o["payload"], dict)
    )
    # oneOf: lenient mode opens both branches, so an observation carrying the
    # keys of both matches both and is rejected.
    return result != ack


def _turn_ok(t: Any, strict: bool) -> bool:
    return (
        isinstance(t, dict)
        and _keys_ok(t, _TURN_REQUIRED, _TURN_KEYS, strict)
        and isinstance(t["role"], str)
        and isinstance(t["intent"], str)
        and _network_ok(t["network"], strict)
        and ("action" not in t or _action_ok(t["action"], strict))
        and ("observation" not in t or _observation_ok(t["observation"], strict))
    )


def _metadata_ok(m: Any, strict: bool) -> bool:
    if not (isinstance(m, dict) and _keys_ok(m, _METADATA_KEYS, _METADATA_KEYS, strict)):
        return False
    gen_time = m["gen_time_s"]
    tokens = (m["prompt_tokens"], m["completion_tokens"], m["total_tokens"])
    return (
        _text(m["model"]) and _integer(m["seed"]) and _text(m["scenario_id"])
        and _number(gen_time) and not gen_time < 0
        and _integer(m["attempts_used"])
        and all(_integer(v) and not v < 0 for v in tokens)
        and _text(m["timestamp"])
    )


def _final_state_ok(f: Any, strict: bool) -> bool:
    if not (isinstance(f, dict) and _keys_ok(f, _FINAL_KEYS, _FINAL_KEYS, strict)):
        return False
    position, velocity = f["position"], f["velocity"]
    return (
        isinstance(position, list) and len(position) == 3 and all(_number(v) for v in position)
        and _number(velocity) and not velocity < 0
        and _number(f["yaw"]) and _number(f["battery"])
        and all(isinstance(f[k], bool) for k in _FINAL_FLAGS)
    )


def schema_accepts(doc: Any, strict: bool = True) -> bool:
    """True when the shipped schema (relaxed when not strict) accepts doc."""
    if not (isinstance(doc, dict) and _keys_ok(doc, _ROOT_KEYS, _ROOT_KEYS, strict)):
        return False
    turns = doc["turns"]
    return (
        _text(doc["episode_id"])
        and _metadata_ok(doc["metadata"], strict)
        and isinstance(turns, list) and all(_turn_ok(t, strict) for t in turns)
        and _final_state_ok(doc["final_state"], strict)
    )


def _schema_violations(doc: Mapping[str, Any], strict: bool) -> list[Violation]:
    errors = sorted(_validator(strict).iter_errors(doc), key=lambda e: list(map(str, e.absolute_path)))
    out = []
    for err in errors:
        where = "/".join(str(p) for p in err.absolute_path) or "<root>"
        out.append(Violation(CODE_SCHEMA, _turn_index_of(err.absolute_path), f"{where}: {err.message}"))
    return out


def _semantic_violations(doc: Mapping[str, Any]) -> list[Violation]:
    out: list[Violation] = []
    turns = doc.get("turns")
    if isinstance(turns, list):
        n = len(turns)
        if not MIN_TURNS <= n <= MAX_TURNS:
            out.append(Violation(CODE_TURN_BOUNDS, -1, f"episode has {n} turns, expected {MIN_TURNS}..{MAX_TURNS}"))
        prev_role: Any = None
        for i, turn in enumerate(turns):
            if not isinstance(turn, Mapping):
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
    if isinstance(final, Mapping):
        battery = final.get("battery")
        if isinstance(battery, (int, float)) and not isinstance(battery, bool):
            if not 0.0 <= float(battery) <= 100.0:
                out.append(Violation(CODE_BATTERY_RANGE, -1, f"battery {battery} outside [0, 100]"))
    meta = doc.get("metadata")
    if isinstance(meta, Mapping):
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
    doc = stub_to_doc(record) if isinstance(record, FailureStub) else episode_to_doc(record)
    return dumps_canonical(doc)


def line_to_record(line: str | bytes) -> Record:
    doc = loads_document(line)
    if doc.get("kind") == "failure_stub":
        return doc_to_stub(doc)
    return doc_to_episode(doc)
