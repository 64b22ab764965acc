"""The table-driven schema check agrees with jsonschema, its test oracle.

`schema_accepts` decides accept or reject and `_schema_violations` says what
a rejected document breaks; jsonschema's verdict and error paths on the same
document, in the same strict or lenient mode, are the reference.  The inputs
are generated episodes plus field-level mutations aimed at the places where a
hand-written check most easily drifts from draft 2020-12: integer and number
types, bounds, minLength, array sizes, the action and observation oneOf, and
the extra fields that lenient mode admits.
"""

from __future__ import annotations

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from jsonschema import Draft202012Validator

from generators import corrupted_docs, valid_doc
from skybench.episode import (
    CODE_SCHEMA,
    _schema_violations,
    _semantic_violations,
    load_schema,
    schema_accepts,
    validate_episode,
)

MODES = (True, False)

ODD_VALUES = (
    0, -0.5, 1.5, 3.0, 100.5, True, None, math.nan, math.inf, -math.inf,
    "", "x", "a2a", "lost", [], [1.0, 2.0], [1.0, 2.0, 3.0, 4.0], {},
)


def _relaxed(schema):
    """The schema with every additionalProperties opened: lenient mode."""
    if isinstance(schema, dict):
        return {k: (True if k == "additionalProperties" else _relaxed(v)) for k, v in schema.items()}
    if isinstance(schema, list):
        return [_relaxed(v) for v in schema]
    return schema


SCHEMA = load_schema()
Draft202012Validator.check_schema(SCHEMA)
ORACLES = {True: Draft202012Validator(SCHEMA), False: Draft202012Validator(_relaxed(SCHEMA))}


def violation_path(violation) -> tuple[str, ...]:
    """The path a schema violation's message starts with, by component."""
    where = violation.message.split(": ", 1)[0]
    return () if where == "<root>" else tuple(where.split("/"))


def on_one_branch(a: tuple, b: tuple) -> bool:
    """One path is a prefix of the other."""
    n = min(len(a), len(b))
    return a[:n] == b[:n]


def assert_agrees(doc) -> None:
    """In both modes: the verdict is jsonschema's, the semantic violations
    follow the schema ones unchanged, and every reported path and every
    jsonschema error path lie on one branch with some path of the other."""
    for strict in MODES:
        errors = [tuple(map(str, e.absolute_path)) for e in ORACLES[strict].iter_errors(doc)]
        assert schema_accepts(doc, strict) is (not errors), (strict, doc)
        report = validate_episode(doc, strict=strict)
        semantic = tuple(_semantic_violations(doc))
        schema = report.violations[: len(report.violations) - len(semantic)]
        assert report.violations[len(schema):] == semantic
        assert report.valid is (not report.violations)
        assert all(v.code == CODE_SCHEMA for v in schema)
        reported = [violation_path(v) for v in schema]
        assert reported == sorted(reported)
        assert all(any(on_one_branch(r, e) for e in errors) for r in reported), (strict, reported, errors)
        assert all(any(on_one_branch(e, r) for r in reported) for e in errors), (strict, reported, errors)
        for v, path in zip(schema, reported):
            assert v.turn_index == (int(path[1]) if len(path) > 1 and path[0] == "turns" else -1)


def paths(node, prefix=()):
    """Every (path to container, key) pair in a document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix, key
        yield from paths(child, prefix + (key,))


def at(doc, prefix):
    for key in prefix:
        doc = doc[key]
    return doc


def base_doc(seed: int) -> dict:
    return valid_doc(np.random.default_rng(seed))


def agent_turn(doc: dict, protocol: str) -> dict:
    for turn in doc["turns"]:
        if turn.get("action", {}).get("protocol") == protocol:
            return turn
    turn = doc["turns"][1]
    if protocol == "mcp":
        turn["action"] = {"protocol": "mcp", "name": "read_telemetry", "args": {}}
        turn["observation"] = {"tool": "read_telemetry", "result": {}}
    else:
        turn["action"] = {"protocol": "a2a", "task": "swarm_status_check", "to": "P1", "payload": {}}
        turn["observation"] = {"task": "swarm_status_check", "from": "P1", "status": "ok", "payload": {}}
    return turn


# -- named edge cases --------------------------------------------------------------------------

def _set(path, value):
    def mutate(doc):
        *head, last = path
        at(doc, head)[last] = value
    return mutate


def _mcp(field, value):
    def mutate(doc):
        agent_turn(doc, "mcp")["action"][field] = value
    return mutate


def _a2a(field, value, part="action"):
    def mutate(doc):
        agent_turn(doc, "a2a")[part][field] = value
    return mutate


def _both_observation_branches(doc):
    turn = agent_turn(doc, "a2a")
    turn["observation"].update(tool="read_telemetry", result={})


def _both_branches_bad_status(doc):
    turn = agent_turn(doc, "a2a")
    turn["observation"].update(tool="read_telemetry", result={}, status="lost")


def _extra_key(path):
    def mutate(doc):
        at(doc, path)["x_vendor"] = 1
    return mutate


EDGE_CASES = {
    "integral_float_seed": _set(("metadata", "seed"), 3.0),
    "integral_float_tokens": _set(("metadata", "prompt_tokens"), 200.0),
    "fractional_float_seed": _set(("metadata", "seed"), 3.5),
    "negative_zero_tokens": _set(("metadata", "completion_tokens"), -0.0),
    "bool_seed": _set(("metadata", "seed"), True),
    "bool_attempts": _set(("metadata", "attempts_used"), False),
    "bool_battery": _set(("final_state", "battery"), True),
    "bool_latency": _set(("turns", 0, "network", "latency_ms"), True),
    "int_yaw": _set(("final_state", "yaw"), 2),
    "nan_latency": _set(("turns", 0, "network", "latency_ms"), math.nan),
    "nan_edge_load": _set(("turns", 0, "network", "edge_load"), math.nan),
    "inf_loss": _set(("turns", 0, "network", "loss_pct"), math.inf),
    "inf_throughput": _set(("turns", 0, "network", "throughput_mbps"), math.inf),
    "minus_inf_jitter": _set(("turns", 0, "network", "jitter_ms"), -math.inf),
    "inf_seed": _set(("metadata", "seed"), math.inf),
    "nan_tokens": _set(("metadata", "total_tokens"), math.nan),
    "zero_latency": _set(("turns", 0, "network", "latency_ms"), 0),
    "edge_load_one": _set(("turns", 0, "network", "edge_load"), 1),
    "loss_above_100": _set(("turns", 0, "network", "loss_pct"), 100.5),
    "negative_velocity": _set(("final_state", "velocity"), -0.5),
    "position_2": _set(("final_state", "position"), [1.0, 2.0]),
    "position_4": _set(("final_state", "position"), [1.0, 2.0, 3.0, 4.0]),
    "position_string_item": _set(("final_state", "position"), [1.0, "2", 3.0]),
    "position_tuple": _set(("final_state", "position"), (1.0, 2.0, 3.0)),
    "empty_episode_id": _set(("episode_id",), ""),
    "empty_model": _set(("metadata", "model"), ""),
    "empty_timestamp": _set(("metadata", "timestamp"), ""),
    "empty_intent_allowed": _set(("turns", 0, "intent"), ""),
    "empty_role_allowed": _set(("turns", 0, "role"), ""),
    "empty_mcp_name": _mcp("name", ""),
    "empty_a2a_to": _a2a("to", ""),
    "empty_ack_from": _a2a("from", "", part="observation"),
    "list_args": _mcp("args", []),
    "null_args": _mcp("args", None),
    "string_payload": _a2a("payload", "{}"),
    "list_ack_payload": _a2a("payload", [], part="observation"),
    "list_result": lambda doc: agent_turn(doc, "mcp")["observation"].update(result=[1]),
    "protocol_http": _mcp("protocol", "http"),
    "protocol_upper": _mcp("protocol", "MCP"),
    "protocol_missing": lambda doc: agent_turn(doc, "mcp")["action"].pop("protocol"),
    "protocol_a2a_with_mcp_fields": _mcp("protocol", "a2a"),
    "null_action": _set(("turns", 1, "action"), None),
    "null_observation": _set(("turns", 1, "observation"), None),
    "unknown_status": _a2a("status", "lost", part="observation"),
    "list_status": _a2a("status", ["ok"], part="observation"),
    "unknown_slice": _set(("turns", 0, "network", "slice"), "6G"),
    "dict_slice": _set(("turns", 0, "network", "slice"), {"URLLC": 1}),
    "both_observation_branches": _both_observation_branches,
    "both_branches_one_broken": _both_branches_bad_status,
    "extra_top": _extra_key(()),
    "extra_metadata": _extra_key(("metadata",)),
    "extra_final_state": _extra_key(("final_state",)),
    "extra_turn": _extra_key(("turns", 0)),
    "extra_network": _extra_key(("turns", 0, "network")),
    "extra_mcp_action": lambda doc: agent_turn(doc, "mcp")["action"].update(x_vendor=1),
    "extra_ack": lambda doc: agent_turn(doc, "a2a")["observation"].update(x_vendor=1),
    "missing_turn_network": lambda doc: doc["turns"][0].pop("network"),
    "missing_final_flag": lambda doc: doc["final_state"].pop("nfz_violation"),
    "turns_not_list": _set(("turns",), {}),
    "turn_not_object": _set(("turns", 0), "user"),
    "metadata_list": _set(("metadata",), []),
    "no_turns": _set(("turns",), []),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_case_verdicts_match_jsonschema(name):
    for seed in (1, 2):
        doc = base_doc(seed)
        EDGE_CASES[name](doc)
        assert_agrees(doc)


ACTION_RULE = "must match exactly one form: an mcp call {protocol, name, args} or an a2a task {protocol, task, to, payload}"
OBSERVATION_RULE = (
    "must match exactly one form: a tool result {tool, result} or an acknowledgement {task, from, status, payload}"
)
BOTH_FORMS = {"tool": "t", "result": {}, "task": "t", "from": "P1", "status": "ok", "payload": {}}


@pytest.mark.parametrize("mutate, strict, expected", [
    (_set(("turns", 3, "network", "latency_ms"), -1), True, [(3, "turns/3/network/latency_ms: must be a number above 0")]),
    (lambda doc: doc["turns"][2].pop("network"), True, [(2, "turns/2/network: is required")]),
    (_extra_key(("metadata",)), True, [(-1, "metadata/x_vendor: is not a field of the schema")]),
    (_extra_key(("metadata",)), False, []),
    (_set(("turns", 1, "action"), {"protocol": "http"}), True, [(1, f"turns/1/action: {ACTION_RULE}")]),
    (_set(("turns", 1, "observation"), BOTH_FORMS), True, [(1, f"turns/1/observation: {OBSERVATION_RULE}")]),
    (_set(("turns", 1, "observation"), BOTH_FORMS), False, [(1, f"turns/1/observation: {OBSERVATION_RULE}")]),
    (_set(("metadata",), []), True, [(-1, "metadata: must be an object")]),
    (_set(("turns",), {}), True, [(-1, "turns: must be a list")]),
    (_set(("turns", 4), "agent"), True, [(4, "turns/4: must be an object")]),
    (_set(("turns", 0, "network"), None), True, [(0, "turns/0/network: must be an object")]),
    (_set(("final_state",), 7), True, [(-1, "final_state: must be an object")]),
    (_set(("final_state", "position"), [1.0, 2.0]), True, [(-1, "final_state/position: must be a list of three numbers")]),
])
def test_schema_violations_give_path_and_rule(mutate, strict, expected):
    doc = base_doc(6)
    mutate(doc)
    got = [(v.turn_index, v.message) for v in _schema_violations(doc, strict)]
    assert got == expected
    assert all(v.code == CODE_SCHEMA for v in _schema_violations(doc, strict))


def test_a_document_that_is_not_an_object_is_one_violation():
    assert [(v.turn_index, v.message) for v in _schema_violations([], True)] == [(-1, "<root>: must be an object")]
    assert not schema_accepts([], True)


def test_lenient_two_branch_observation_is_rejected():
    doc = base_doc(3)
    _both_observation_branches(doc)
    assert not schema_accepts(doc, False)
    assert not ORACLES[False].is_valid(doc)
    assert not schema_accepts(doc, True)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("path", [
    ("turns", 0, "network", "latency_ms"),
    ("turns", 0, "network", "edge_load"),
    ("final_state", "yaw"),
    ("metadata", "seed"),
    ("metadata", "gen_time_s"),
])
def test_json_nan_and_infinity_tokens(token, path):
    doc = base_doc(4)
    _set(path, 123456.5)(doc)  # seven digits: no canonical value prints like this
    assert_agrees(json.loads(json.dumps(doc).replace("123456.5", token)))


def test_generated_and_corrupted_documents():
    rng = np.random.default_rng(5)
    for _ in range(20):
        assert_agrees(valid_doc(rng))
    for _, doc, _ in corrupted_docs(rng):
        assert_agrees(doc)


# -- random field-level mutations ----------------------------------------------------------------

@st.composite
def mutated_docs(draw):
    doc = base_doc(draw(st.integers(0, 50)))
    for _ in range(draw(st.sampled_from((1, 1, 2)))):
        # Pick a field name first, so that each of the ~40 fields is hit as
        # often as the turns array that repeats most of them.
        sites: dict[str, list] = {}
        for prefix, key in paths(doc):
            name = key if isinstance(key, str) else f"{prefix[-1]}[]"
            sites.setdefault(name, []).append((prefix, key))
        prefix, key = draw(st.sampled_from(sites[draw(st.sampled_from(sorted(sites)))]))
        parent = at(doc, prefix)
        kind = draw(st.sampled_from(("replace", "replace", "replace", "delete", "extra")))
        if kind == "replace":
            parent[key] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        elif kind == "delete" and isinstance(parent, dict):
            del parent[key]
        elif kind == "extra" and isinstance(parent, dict):
            extra = draw(st.sampled_from(("x_extra", "tool", "task", "result", "payload")))
            parent[extra] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
    if draw(st.booleans()):
        # An observation that carries the keys of both oneOf branches.
        turns = doc.get("turns")
        turns = turns if isinstance(turns, list) else []
        observations = [t["observation"] for t in turns if isinstance(t, dict) and "observation" in t]
        if observations and isinstance(observations[0], dict):
            observations[0].update(
                {"tool": "t", "result": {}, "task": "t", "from": "P1", "status": "ok", "payload": {}}
            )
    return doc


@settings(derandomize=True, database=None, max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_docs())
def test_mutated_documents_match_jsonschema(doc):
    assert_agrees(doc)
