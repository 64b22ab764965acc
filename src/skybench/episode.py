"""Episode data model, canonical (de)serialization, and structural validation.

The on-disk contract is the shipped draft 2020-12 schema (``data/episode_schema.json``);
semantic rules the schema cannot express (role vocabulary, alternation, turn
bounds, token arithmetic) are checked here and reported with stable violation
codes.  All types are immutable values; every function is pure.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, NamedTuple, Union

from .errors import ParseError

if TYPE_CHECKING:
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


class Violation(NamedTuple):
    """One broken schema or semantic rule, and the turn it concerns."""

    code: str
    turn_index: int  # -1 when not tied to a turn
    message: str


class ValidationReport(NamedTuple):
    """The verdict on one record, with every violation found."""

    valid: bool
    violations: tuple[Violation, ...]

    def codes(self) -> tuple[str, ...]:
        return tuple(v.code for v in self.violations)


# The typed record model.  generate writes documents and the read paths fold
# documents, so no CLI stage needs these classes.  They stay frozen
# dataclasses, since callers change their fields with dataclasses.replace,
# and creating one costs about half a millisecond of start-up and loads
# dataclasses and inspect.  They are created on first use instead: by
# importing one of RECORD_CLASSES from this module (the module __getattr__
# below) or by doc_to_episode.
RECORD_CLASSES = ("McpCall", "A2aTask", "McpResult", "A2aAck", "Turn", "FinalState", "EpisodeMetadata", "Episode")
# The unions over them, made with them.
_RECORD_UNIONS = ("Action", "Observation")


def _create_record_classes() -> None:
    """Create the typed record classes and bind them, the unions over them
    and NetworkState, which doc_to_episode builds, as globals of this module.
    Each class is named as if it were defined at module level, so its repr
    and pickle find it here."""
    if "Episode" in globals():
        return
    from dataclasses import dataclass, field

    from .network import NetworkState

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

    made = {"NetworkState": NetworkState}
    for cls in (McpCall, A2aTask, McpResult, A2aAck, Turn, FinalState, EpisodeMetadata, Episode):
        cls.__qualname__ = cls.__name__
        made[cls.__name__] = cls
    made["Action"] = Union[McpCall, A2aTask]
    made["Observation"] = Union[McpResult, A2aAck]
    globals().update(made)


def __getattr__(name: str) -> Any:
    if name in RECORD_CLASSES or name in _RECORD_UNIONS:
        _create_record_classes()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def is_episode(value: Any) -> bool:
    """True when value is an Episode; none exists before the class does."""
    cls = globals().get("Episode")
    return cls is not None and isinstance(value, cls)


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


def canonical_value(obj: Any) -> Any:
    """The canonical document of obj: floats quantized, tuples made lists,
    keys made strings.  Containers are plain dicts, lists and tuples,
    matched by exact type."""
    t = type(obj)
    if t is float:  # as canonical_float does, without the calls
        return float(format(obj, _FLOAT_SPEC))
    if isinstance(obj, float):
        return canonical_float(obj)
    if t is dict:
        return {str(k): canonical_value(v) for k, v in obj.items()}
    if t is list or t is tuple:
        return [canonical_value(v) for v in obj]
    if obj is None or isinstance(obj, (int, str)):  # bool included
        return obj
    raise TypeError(f"value not representable in an episode document: {type(obj).__name__}")


def dumps_document(doc: Mapping[str, Any]) -> str:
    """The line of a document that is already canonical, such as one built
    by episode_to_doc or failure_stub: sorted keys, no whitespace.  A NaN or
    infinite float raises ValueError: no written line may hold one."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def dumps_canonical(doc: Mapping[str, Any]) -> str:
    """Compact canonical form of any document: sorted keys, 6-significant-digit floats."""
    return dumps_document(canonical_value(doc))


def dumps_pretty(doc: Mapping[str, Any]) -> str:
    return json.dumps(canonical_value(doc), sort_keys=True, indent=2, allow_nan=False)


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
        return {"protocol": "mcp", "name": action.name, "args": canonical_value(action.args)}
    return {"protocol": "a2a", "task": action.task, "to": action.to, "payload": canonical_value(action.payload)}


def observation_to_doc(obs: Observation | None) -> dict[str, Any] | None:
    if obs is None:
        return None
    if isinstance(obs, McpResult):
        return {"tool": obs.tool, "result": canonical_value(obs.result)}
    return {"task": obs.task, "from": obs.from_agent, "status": obs.status, "payload": canonical_value(obs.payload)}


def network_to_doc(n: NetworkState) -> dict[str, Any]:
    return {
        "slice": n.slice,
        "latency_ms": canonical_value(n.latency_ms),
        "jitter_ms": canonical_value(n.jitter_ms),
        "loss_pct": canonical_value(n.loss_pct),
        "throughput_mbps": canonical_value(n.throughput_mbps),
        "edge_load": canonical_value(n.edge_load),
    }


def turn_doc(
    role: str,
    intent: str,
    network: NetworkState,
    action: Mapping[str, Any] | None = None,
    observation: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """The canonical document of a turn made from its raw parts: the action
    document a policy sent and the observation document a tool returned,
    floats unquantized and tuples kept.  Each part is copied as it is
    quantized, so the turn shares nothing with them."""
    doc: dict[str, Any] = {"role": role, "intent": intent, "network": network_to_doc(network)}
    if action is not None:
        doc["action"] = canonical_value(action)
    if observation is not None:
        doc["observation"] = canonical_value(observation)
    return doc


def turn_to_doc(t: Turn) -> dict[str, Any]:
    return turn_doc(t.role, t.intent, t.network, action_to_doc(t.action), observation_to_doc(t.observation))


def final_state_to_doc(f: FinalState) -> dict[str, Any]:
    return {
        "position": [canonical_value(c) for c in f.position],
        "velocity": canonical_value(f.velocity),
        "yaw": canonical_value(f.yaw),
        "battery": canonical_value(f.battery),
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
            "gen_time_s": canonical_value(m.gen_time_s),
            "attempts_used": m.attempts_used,
            "prompt_tokens": m.prompt_tokens,
            "completion_tokens": m.completion_tokens,
            "total_tokens": m.total_tokens,
            "timestamp": m.timestamp,
        },
        "turns": turns,
        "final_state": final_state_to_doc(e.final_state),
    }


_FLAGS = ("mission_completed", "altitude_violation", "nfz_violation", "separation_breach", "battery_depleted")


def episode_values(doc: Mapping[str, Any]) -> dict[str, Any]:
    """The values of doc, a parsed episode document, as the Episode that
    doc_to_episode builds from it holds them, in a document of the record's
    fields alone: each string, integer and float converted by str, int or
    float, each args, payload and result a dict copy, an absent action or
    observation None, an acknowledgement's absent from and status "", and
    the position a tuple of three floats.

    This is the one definition of a buildable episode document: it raises
    ParseError on any other.  The turns and the position must be lists and
    the five final-state flags booleans, as they are in the schema.
    Semantic rule breaches are left to validate_episode.  No record class is
    made, so analytics folds these values without building an Episode.
    """
    try:
        turns = doc["turns"]
        if not isinstance(turns, list):
            raise ParseError("turns must be a list")
        turn_values = []
        for t in turns:
            action = t.get("action")
            if action is not None:
                protocol = action.get("protocol")
                if protocol == "mcp":
                    action = {"protocol": "mcp", "name": str(action["name"]), "args": dict(action.get("args", {}))}
                elif protocol == "a2a":
                    action = {
                        "protocol": "a2a",
                        "task": str(action["task"]),
                        "to": str(action["to"]),
                        "payload": dict(action.get("payload", {})),
                    }
                else:
                    raise ParseError(f"unknown action protocol: {protocol!r}")
            obs = t.get("observation")
            if obs is None:
                pass
            elif "tool" in obs:
                obs = {"tool": str(obs["tool"]), "result": dict(obs.get("result", {}))}
            elif "task" in obs:
                obs = {
                    "task": str(obs["task"]),
                    "from": str(obs.get("from", "")),
                    "status": str(obs.get("status", "")),
                    "payload": dict(obs.get("payload", {})),
                }
            else:
                raise ParseError("observation is neither a tool result nor an acknowledgement")
            role, intent, n = str(t["role"]), str(t["intent"]), t["network"]
            turn_values.append({
                "role": role,
                "intent": intent,
                "action": action,
                "observation": obs,
                "network": {
                    "slice": str(n["slice"]),
                    "latency_ms": float(n["latency_ms"]),
                    "jitter_ms": float(n["jitter_ms"]),
                    "loss_pct": float(n["loss_pct"]),
                    "throughput_mbps": float(n["throughput_mbps"]),
                    "edge_load": float(n["edge_load"]),
                },
            })
        m = doc["metadata"]
        f = doc["final_state"]
        position = f["position"]
        if not isinstance(position, list) or len(position) != 3:
            raise ParseError("final_state.position must be a list of three components")
        values = {
            "episode_id": str(doc["episode_id"]),
            "metadata": {
                "model": str(m["model"]),
                "seed": int(m["seed"]),
                "scenario_id": str(m["scenario_id"]),
                "gen_time_s": float(m["gen_time_s"]),
                "attempts_used": int(m["attempts_used"]),
                "prompt_tokens": int(m["prompt_tokens"]),
                "completion_tokens": int(m["completion_tokens"]),
                "total_tokens": int(m["total_tokens"]),
                "timestamp": str(m["timestamp"]),
            },
            "turns": turn_values,
            "final_state": {
                "position": (float(position[0]), float(position[1]), float(position[2])),
                "velocity": float(f["velocity"]),
                "yaw": float(f["yaw"]),
                "battery": float(f["battery"]),
                "mission_completed": f["mission_completed"],
                "altitude_violation": f["altitude_violation"],
                "nfz_violation": f["nfz_violation"],
                "separation_breach": f["separation_breach"],
                "battery_depleted": f["battery_depleted"],
            },
        }
    except ParseError:
        raise
    # An AttributeError is a turn or an action that is not an object, which
    # has no .get.
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise ParseError(f"cannot build episode from document: {exc}") from exc
    final_state = values["final_state"]
    if not all(isinstance(final_state[flag], bool) for flag in _FLAGS):
        raise ParseError("final_state flags must be true or false")
    return values


def doc_to_episode(doc: Mapping[str, Any]) -> Episode:
    """Build an Episode from a parsed document, of the values episode_values
    gives it.

    Raises ParseError when episode_values refuses the document; semantic
    rule breaches (bad roles, turn counts, ...) survive construction and are
    left to validate_episode.
    """
    values = episode_values(doc)
    _create_record_classes()
    turns = []
    for t in values["turns"]:
        action, obs = t["action"], t["observation"]
        if action is None:
            pass
        elif action["protocol"] == "mcp":
            action = McpCall(name=action["name"], args=action["args"])
        else:
            action = A2aTask(task=action["task"], to=action["to"], payload=action["payload"])
        if obs is None:
            pass
        elif "tool" in obs:
            obs = McpResult(tool=obs["tool"], result=obs["result"])
        else:
            obs = A2aAck(task=obs["task"], from_agent=obs["from"], status=obs["status"], payload=obs["payload"])
        network = NetworkState(**t["network"])
        turns.append(Turn(role=t["role"], intent=t["intent"], action=action, observation=obs, network=network))
    return Episode(
        episode_id=values["episode_id"],
        metadata=EpisodeMetadata(**values["metadata"]),
        turns=tuple(turns),
        final_state=FinalState(**values["final_state"]),
    )


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
    no NaN or Infinity, no number past float range, and no value nested
    past the parser's depth.

    Raises ParseError otherwise; this is the one parse of corpus lines,
    input files and external policy replies.
    """
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8", errors="strict")
        return _STRICT_DECODER.decode(data)
    # JSONDecodeError and UnicodeDecodeError are ValueErrors; a RecursionError
    # is a value nested past the parser's depth.
    except (ValueError, RecursionError) as exc:
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


# The schema check, compiled at import from data/episode_schema.json, the
# one definition of a valid record.  Each leaf field becomes a check, a
# Python expression of the field value v, and the rule a failing value
# breaks; a title gives the wording no keyword states.  The same checks
# decide (schema_accepts, on every record) and explain (explain, only on a
# rejected one), so no rule is judged in one place and worded in another.
# schema_accepts runs them inline, in straight-line code generated at
# import, and explain, made for each part as its code is, calls each as a
# function.  The checks read draft 2020-12 as a reference validator does:
# bool is neither number nor integer, an integral float is an integer, and
# NaN passes every bound.  Lenient mode opens every additionalProperties.  A
# number check tests for a float (an integer check for an int), which nearly
# every such field holds, before it calls _number (_integer).  Any keyword or
# form that the translator does not read fails the import, and
# tests/test_fast_validation.py holds the check to a reference validator.


def _number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _integer(x: Any) -> bool:
    return not isinstance(x, bool) and (isinstance(x, int) or (isinstance(x, float) and x.is_integer()))


def integer_value(x: Any) -> int | None:
    """The integer the schema takes x for (an integral float is one), else None."""
    if type(x) is int:
        return x
    return int(x) if _integer(x) else None


# The names a check may read: the builtins, which eval adds anyway, and two tests.
_CHECK_NAMES = {"__builtins__": __builtins__, "_number": _number, "_integer": _integer}


@functools.cache
def _check(expr: str) -> Callable[[Any], bool]:
    """A check as a function, for explain: one compile per distinct check."""
    return eval(f"lambda v: {expr}", _CHECK_NAMES)


# Each type a leaf may have: the test of a value {}, the type whose values
# pass it at once (a field's check tries it first), and its name in a rule.
_TYPES = {
    "string": ("isinstance({}, str)", None, "a string"),
    "object": ("isinstance({}, dict)", None, "an object"),
    "boolean": ("isinstance({}, bool)", None, "true or false"),
    "number": ("_number({})", "float", "a number"),
    "integer": ("_integer({})", "int", "an integer"),
}
# The bounds a number or integer may have: the test a value that breaks
# them passes, and their wording.
_BOUNDS = {
    ("minimum",): ("v < {0}", "at least {0}"),
    ("exclusiveMinimum",): ("v <= {0}", "above {0}"),
    ("minimum", "maximum"): ("(v < {0} or v > {1})", "from {0} to {1}"),
}


def _form(node: dict[str, Any], keywords: set[str], ok: bool = True) -> None:
    """Refuse a node with a keyword outside keywords or of a form that is not
    ok.  The annotations are allowed anywhere; $defs is read through $ref."""
    unknown = sorted(node.keys() - keywords - {"title", "$schema", "$defs"})
    if unknown or not ok:
        what = f"keyword {unknown[0]!r}" if unknown else "form"
        raise ValueError(f"episode schema: unsupported {what} in {node}")


def _leaf(node: dict[str, Any]) -> tuple[str, str]:
    """A leaf field's check, as an expression of its value v, and the rule a
    failing value breaks."""
    values = node["enum"] if "enum" in node else [node["const"]] if "const" in node else None
    if values is not None:
        strings = isinstance(values, list) and all(type(x) is str for x in values)
        _form(node, {"enum" if "enum" in node else "const"}, strings)
        return (f"isinstance(v, str) and v in {{{', '.join(map(repr, values))}}}", f"must be {' or '.join(values)}")
    if node.get("type") == "array":  # a titled list of one length and item type
        n, item = node.get("minItems"), node.get("items", {})
        _form(node, {"type", "items", "minItems", "maxItems"}, node.get("maxItems") == n and "title" in node)
        _form(item, {"type"}, str(item.get("type")) in _TYPES and type(n) is int)
        tests = [_TYPES[item["type"]][0].format(f"v[{i}]") for i in range(n)]
        return (" and ".join([f"isinstance(v, list) and len(v) == {n}", *tests]), f"must be {node['title']}")
    bounds = tuple(key for key in ("minimum", "exclusiveMinimum", "maximum") if key in node)
    _form(node, {"type", "minLength", *bounds}, str(node.get("type")) in _TYPES)
    test, exact, name = _TYPES[node["type"]]
    expr = f"(type(v) is {exact} or {test.format('v')})" if exact else test.format("v")
    if "minLength" in node:
        _form(node, {"type", "minLength"}, node["type"] == "string" and node["minLength"] == 1)
        return (f'{expr} and v != ""', "must be a non-empty string")
    if not bounds:
        return (expr, f"must be {name}")
    _form(node, {"type", *bounds}, exact is not None and bounds in _BOUNDS and all(_number(node[b]) for b in bounds))
    fail, words = _BOUNDS[bounds]
    limits = [node[key] for key in bounds]
    return (f"{expr} and not {fail.format(*limits)}", f"must be {name} {words.format(*limits)}")


def _compile(schema: dict[str, Any]) -> tuple[Callable[[Any, bool], bool], Callable[..., None]]:
    """fits(doc, strict), True when schema accepts doc (every additionalProperties
    opened when not strict), and explain(doc, path, strict, out), which adds to
    out the (path, rule) of each rule doc breaks."""
    defs = schema.get("$defs", {})

    def resolve(node: dict[str, Any]) -> dict[str, Any]:
        if "$ref" in node:
            _form(node, {"$ref"}, str(node["$ref"]).startswith("#/$defs/") and node["$ref"][8:] in defs)
            return defs[node["$ref"][8:]]
        return node

    def code(node: dict[str, Any], var: str, pad: str, out: list[str], env: dict[str, Any]) -> Callable[..., None]:
        """Append to out the statements that return False unless the value
        named var fits node, a part of the schema; env gets the names they
        read.  Objects and lists are checked inline, each leaf field by its
        check; a oneOf calls its two compiled forms.  Returns node's explain."""
        n = len(env)  # grows with every name added, so each name is new
        if "oneOf" in node:
            forms = [resolve(form) for form in node["oneOf"]]
            _form(node, {"oneOf"}, len(forms) == 2 and all("properties" in f and "title" in f for f in forms))
            (first, _), (second, _) = fits_of(forms[0]), fits_of(forms[1])
            env[f"_first{n}"], env[f"_second{n}"] = first, second
            out.append(f"{pad}if _first{n}({var}, strict) == _second{n}({var}, strict): return False")
            words = " or ".join(f"{f['title']} {{{', '.join(f['properties'])}}}" for f in forms)

            def explain(value: Any, path: tuple, strict: bool, found: list) -> None:
                # Lenient mode opens both forms, so a value carrying the
                # fields of both can fit both, which oneOf rejects.
                if first(value, strict) == second(value, strict):
                    found.append((path, f"must match exactly one form: {words}"))
        elif node.get("type") == "array":
            _form(node, {"type", "items"})
            item = f"item{len(out)}"
            out += [f"{pad}if not isinstance({var}, list): return False", f"{pad}for {item} in {var}:"]
            explain_item = code(resolve(node["items"]), item, pad + "    ", out, env)

            def explain(value: Any, path: tuple, strict: bool, found: list) -> None:
                if not isinstance(value, list):
                    found.append((path, "must be a list"))
                    return
                for i, entry in enumerate(value):
                    explain_item(entry, path + (i,), strict, found)
        else:
            fields, required = node.get("properties", {}), frozenset(node.get("required", ()))
            closed = node.get("type") == "object" and node.get("additionalProperties") is False
            _form(node, {"type", "properties", "required", "additionalProperties"}, closed)
            env[f"_required{n}"], env[f"_fields{n}"] = required, frozenset(fields)
            out += [
                f"{pad}if not isinstance({var}, dict): return False",
                f"{pad}keys = {var}.keys()",
                f"{pad}if not keys >= _required{n} or (strict and not keys <= _fields{n}): return False",
            ]
            leaves, parts = [], []  # (name, check, rule) and (name, explain)
            for name, sub in fields.items():
                sub, part = resolve(sub), f"part{len(out)}"
                at = pad if name in required else pad + "    "  # a field that may be left out, when present
                if name not in required:
                    out.append(f"{pad}if {name!r} in {var}:")
                if "properties" in sub or "oneOf" in sub or sub.get("type") == "array" and "minItems" not in sub:
                    out.append(f"{at}{part} = {var}[{name!r}]")
                    parts.append((name, code(sub, part, at, out, env)))
                else:
                    expr, rule = _leaf(sub)
                    leaves.append((name, _check(expr), rule))
                    out += [f"{at}v = {var}[{name!r}]", f"{at}if not ({expr}): return False"]

            def explain(value: Any, path: tuple, strict: bool, found: list) -> None:
                if not isinstance(value, dict):
                    found.append((path, "must be an object"))
                    return
                found.extend((path + (name,), "is required") for name in required - value.keys())
                if strict:
                    found.extend((path + (name,), "is not a field of the schema") for name in value.keys() - fields)
                for name, check, rule in leaves:
                    if name in value and not check(value[name]):
                        found.append((path + (name,), rule))
                for name, explain_part in parts:
                    if name in value:
                        explain_part(value[name], path + (name,), strict, found)
        return explain

    def fits_of(node: dict[str, Any]) -> tuple[Callable[[Any, bool], bool], Callable[..., None]]:
        """fits(value, strict) of node, True when the value fits it, and its explain."""
        env: dict[str, Any] = dict(_CHECK_NAMES)
        out = ["def fits(obj, strict):"]
        explain = code(node, "obj", "    ", out, env)
        out.append("    return True")
        exec("\n".join(out), env)
        return env["fits"], explain

    return fits_of(schema)


_EPISODE_FITS, _EPISODE_EXPLAIN = _compile(load_schema())


def schema_accepts(doc: Any, strict: bool = True) -> bool:
    """True when the shipped schema (relaxed when not strict) accepts doc."""
    return _EPISODE_FITS(doc, strict)


def _schema_violations(doc: Mapping[str, Any], strict: bool) -> list[Violation]:
    """One violation per broken rule, sorted by path; a violation under
    turns/<i> belongs to turn i."""
    found: list[tuple[tuple, str]] = []
    _EPISODE_EXPLAIN(doc, (), strict, found)
    found.sort(key=lambda item: [str(p) for p in item[0]])
    return [
        Violation(CODE_SCHEMA, path[1] if len(path) > 1 and path[0] == "turns" else -1,
                  f"{'/'.join(map(str, path)) or '<root>'}: {rule}")
        for path, rule in found
    ]


def _semantic_violations(doc: Mapping[str, Any]) -> list[Violation]:
    out: list[Violation] = []
    turns = doc.get("turns")
    if isinstance(turns, list):
        n = len(turns)
        if not MIN_TURNS <= n <= MAX_TURNS:
            out.append(Violation(CODE_TURN_BOUNDS, -1, f"episode has {n} turns, expected {MIN_TURNS}..{MAX_TURNS}"))
        prev_role: Any = None
        for i, turn in enumerate(turns):
            if not isinstance(turn, dict):
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
    if isinstance(final, dict):
        battery = final.get("battery")
        if isinstance(battery, (int, float)) and not isinstance(battery, bool):
            if not 0.0 <= float(battery) <= 100.0:
                out.append(Violation(CODE_BATTERY_RANGE, -1, f"battery {battery} outside [0, 100]"))
    meta = doc.get("metadata")
    if isinstance(meta, dict):
        # The counts are checked as the integers the schema accepts, so 7.0
        # breaks the attempts range as 7 does.
        prompt, completion, total = map(
            integer_value, (meta.get("prompt_tokens"), meta.get("completion_tokens"), meta.get("total_tokens"))
        )
        if None not in (prompt, completion, total) and prompt + completion != total:
            out.append(
                Violation(CODE_TOKEN_MISMATCH, -1, f"total_tokens {total} != prompt {prompt} + completion {completion}")
            )
        attempts = integer_value(meta.get("attempts_used"))
        if attempts is not None and not 1 <= attempts <= MAX_ATTEMPTS:
            out.append(Violation(CODE_ATTEMPTS, -1, f"attempts_used {attempts} outside [1, {MAX_ATTEMPTS}]"))
    return out


def validate_episode(doc: Mapping[str, Any] | Episode, *, strict: bool = True) -> ValidationReport:
    """Check one episode document against the schema and the semantic rules.

    Accepts a parsed document or an Episode value.  Total: every problem
    becomes a listed violation, never an exception.
    """
    if is_episode(doc):
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


def failure_stub(
    episode_id: str,
    scenario_id: str,
    model: str,
    seed: int,
    error_kind: str,
    *,
    timestamp: str = "",
) -> dict[str, Any]:
    """The document of a job whose attempts all failed: the one form of a failure stub."""
    if error_kind not in ERROR_KINDS:
        raise ValueError(f"unknown error kind: {error_kind!r}")
    return {
        "kind": "failure_stub",
        "episode_id": episode_id,
        "scenario_id": scenario_id,
        "model": model,
        "seed": seed,
        "attempts_used": MAX_ATTEMPTS,
        "error_kind": error_kind,
        "timestamp": timestamp,
    }


def check_stub(doc: Mapping[str, Any]) -> dict[str, Any]:
    """The document of doc, a parsed failure stub, with its seed and attempt
    count as integers (an integral float is the integer the schema takes it
    for) and no field but a stub's.  Raises ParseError unless the ids, model
    and timestamp are strings, the error kind is one of ERROR_KINDS, and the
    seed and attempt count are integers."""
    keys = ("episode_id", "scenario_id", "model", "seed", "error_kind", "timestamp", "attempts_used")
    try:
        stub = {"kind": "failure_stub", **{key: doc[key] for key in keys}}
    except KeyError as exc:
        raise ParseError(f"failure stub lacks the field {exc}") from exc
    names = (stub["episode_id"], stub["scenario_id"], stub["model"], stub["timestamp"])
    if not all(type(name) is str for name in names) or stub["error_kind"] not in ERROR_KINDS:
        raise ParseError(f"failure stub names or error kind are not of the stub's types: {stub}")
    seed, attempts = integer_value(stub["seed"]), integer_value(stub["attempts_used"])
    if seed is None or attempts is None:
        raise ParseError(f"failure stub seed and attempts_used must be integers: {stub}")
    stub.update(seed=seed, attempts_used=attempts)
    return stub


# ---------------------------------------------------------------------------
# Corpus files (JSONL; stubs share the file, tagged kind=failure_stub)
# ---------------------------------------------------------------------------

def record_to_line(record: Episode | dict[str, Any]) -> str:
    """The line of an Episode or of a failure stub's document."""
    return dumps_document(episode_to_doc(record) if is_episode(record) else record)


def line_to_record(line: str | bytes) -> Episode | dict[str, Any]:
    """The Episode of a line, or the document of a stub's line, checked."""
    doc = loads_document(line)
    return check_stub(doc) if doc.get("kind") == "failure_stub" else doc_to_episode(doc)
