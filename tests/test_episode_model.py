from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from generators import corrupted_docs, random_episode, valid_doc
from skybench.episode import (
    canonical_float,
    check_stub,
    doc_to_episode,
    dumps_canonical,
    episode_to_doc,
    episode_values,
    failure_stub,
    format_float,
    line_to_record,
    record_to_line,
    stub_error_kind,
    validate_episode,
)
from skybench.cli import _corpus_lines
from skybench.errors import ParseError


def test_valid_episode_has_clean_report():
    rng = np.random.default_rng(0)
    report = validate_episode(valid_doc(rng))
    assert report.valid
    assert report.violations == ()


def test_system_role_reported_at_index():
    rng = np.random.default_rng(1)
    doc = valid_doc(rng)
    doc["turns"][3]["role"] = "system"
    report = validate_episode(doc)
    assert not report.valid
    assert ("role_disallowed", 3) in [(v.code, v.turn_index) for v in report.violations]


@pytest.mark.parametrize("count", [7, 13])
def test_turn_bounds_rejected(count):
    rng = np.random.default_rng(2)
    episode = random_episode(rng, n_turns=12)
    doc = episode_to_doc(episode)
    if count == 7:
        doc["turns"] = doc["turns"][:7]
    else:
        extra = dict(doc["turns"][-2])  # a user turn, keeps alternation
        doc["turns"] = doc["turns"] + [extra]
    report = validate_episode(doc)
    assert "turn_bounds" in report.codes()


def test_consecutive_agent_turns_flag_second_index():
    rng = np.random.default_rng(3)
    doc = valid_doc(rng)
    doc["turns"][5]["role"] = "agent"
    doc["turns"][4]["role"] = "agent"
    report = validate_episode(doc)
    assert ("alternation_violation", 5) in [(v.code, v.turn_index) for v in report.violations]


def test_parse_error_on_truncated_and_non_object_input():
    with pytest.raises(ParseError):
        line_to_record(b'{"episode_id": "x", "metadata"')
    with pytest.raises(ParseError):
        line_to_record(b"[1, 2, 3]")
    with pytest.raises(ParseError):
        line_to_record("not json at all{")


def test_validation_is_total_over_corruptions():
    rng = np.random.default_rng(4)
    for label, doc, expected_code in corrupted_docs(rng):
        report = validate_episode(doc)
        assert not report.valid, label
        assert expected_code in report.codes(), (label, report.codes())


def test_every_violation_code_reachable():
    rng = np.random.default_rng(5)
    seen = set()
    for _, doc, expected in corrupted_docs(rng):
        seen.add(expected)
    assert seen == {
        "role_disallowed",
        "alternation_violation",
        "first_role_not_user",
        "turn_bounds",
        "token_mismatch",
        "battery_range",
        "attempts_exceeded",
        "intent_empty",
        "user_turn_structured",
        "schema_invalid",
    }


def test_round_trip_identity_over_random_episodes():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        episode = random_episode(rng)
        line = record_to_line(episode)
        assert line_to_record(line) == episode
        assert record_to_line(line_to_record(line)) == line


def _typed(value):
    """value with each leaf beside its type, so that 12 and 12.0 differ."""
    if isinstance(value, dict):
        return {key: _typed(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value), [_typed(v) for v in value]
    return type(value), value


def _held_values(episode) -> dict:
    """The values an Episode holds, in the form episode_values gives them."""
    turns = []
    for t in episode.turns:
        action, obs = t.action, t.observation
        if action is not None:
            action = (
                {"protocol": "mcp", "name": action.name, "args": action.args}
                if hasattr(action, "args")
                else {"protocol": "a2a", "task": action.task, "to": action.to, "payload": action.payload}
            )
        if obs is not None:
            obs = (
                {"tool": obs.tool, "result": obs.result}
                if hasattr(obs, "result")
                else {"task": obs.task, "from": obs.from_agent, "status": obs.status, "payload": obs.payload}
            )
        turns.append({"role": t.role, "intent": t.intent, "action": action, "observation": obs,
                      "network": vars(t.network)})
    return {"episode_id": episode.episode_id, "metadata": vars(episode.metadata), "turns": turns,
            "final_state": vars(episode.final_state)}


def _dict_ids(value) -> set:
    if isinstance(value, dict):
        return {id(value)}.union(*map(_dict_ids, value.values()))
    if isinstance(value, (list, tuple)):
        return set().union(*map(_dict_ids, value))
    return set()


def test_doc_to_episode_holds_the_converted_values_and_shares_no_dict():
    # Numbers written as text, an integer for a float and an acknowledgement
    # without its from and status build as their converted values.
    rng = np.random.default_rng(27)
    for _ in range(50):
        doc = episode_to_doc(random_episode(rng, structured_prob=1.0))
        edited = json.loads(json.dumps(doc))
        edited["metadata"]["seed"] = str(edited["metadata"]["seed"])
        edited["final_state"]["position"][0] = "12"
        edited["final_state"]["battery"] = 12
        for turn in edited["turns"]:
            turn["network"]["latency_ms"] = str(turn["network"]["latency_ms"])
            if "from" in turn.get("observation", {}):
                del turn["observation"]["from"], turn["observation"]["status"]
        for source in (doc, edited):
            before = json.loads(json.dumps(source))
            values = episode_values(source)
            held = _held_values(doc_to_episode(source))
            assert source == before
            assert _typed(held) == _typed(values)
            assert not _dict_ids(values) & _dict_ids(source)
            parts = [t[key] for t in held["turns"] for key in ("action", "observation") if t[key] is not None]
            copies = {id(part[name]) for part in parts for name in ("args", "payload", "result") if name in part}
            assert copies and not copies & _dict_ids(source)
        assert values["metadata"]["seed"] == int(doc["metadata"]["seed"])
        assert values["final_state"]["position"][0] == 12.0
        assert type(values["final_state"]["battery"]) is float


def test_canonical_serialization_is_byte_stable():
    rng = np.random.default_rng(7)
    episode = random_episode(rng)
    assert record_to_line(episode) == record_to_line(episode)
    # Key order of the input document does not affect the bytes.
    doc = episode_to_doc(episode)
    shuffled = json.loads(json.dumps(doc))
    assert dumps_canonical(shuffled) == dumps_canonical(doc)


@given(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False))
def test_canonical_float_idempotent(x):
    once = canonical_float(x)
    assert canonical_float(once) == once


def test_canonical_float_six_significant_digits():
    assert canonical_float(1.23456789) == 1.23457
    assert canonical_float(1234567.89) == 1234570.0
    assert canonical_float(0.5) == 0.5
    assert (format_float(1.23456789), format_float(1234567.89), format_float(2)) == ("1.23457", "1.23457e+06", "2")


def test_document_builders_quantize_floats_and_keep_ints():
    from dataclasses import replace

    from skybench.episode import dumps_document
    from skybench.network import NetworkState

    episode = random_episode(np.random.default_rng(8))
    network = NetworkState("eMBB", 12, 1.23456789, 0, np.float64(250.123456789), 0.5)
    episode = replace(
        episode,
        metadata=replace(episode.metadata, gen_time_s=7),
        turns=(replace(episode.turns[0], network=network), *episode.turns[1:]),
        final_state=replace(
            episode.final_state, position=(1, 2.3456789, np.float64(30.0)), velocity=0, yaw=1.23456789, battery=88
        ),
    )
    doc = episode_to_doc(episode)
    # Each float is quantized, and an int stays an int, as the generic walk
    # of dumps_canonical keeps it.
    assert dumps_document(doc["turns"][0]["network"]) == (
        '{"edge_load":0.5,"jitter_ms":1.23457,"latency_ms":12,"loss_pct":0,'
        '"slice":"eMBB","throughput_mbps":250.123}'
    )
    final = {key: doc["final_state"][key] for key in ("position", "velocity", "yaw", "battery")}
    assert dumps_document(final) == '{"battery":88,"position":[1,2.34568,30.0],"velocity":0,"yaw":1.23457}'
    assert doc["metadata"]["gen_time_s"] == 7 and type(doc["metadata"]["gen_time_s"]) is int
    assert dumps_document(doc) == dumps_canonical(doc)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_no_written_line_holds_nan_or_infinity(value):
    from skybench.episode import dumps_document, dumps_pretty

    doc = {"position": [1.0, value, 3.0]}
    for dumps in (dumps_document, dumps_canonical, dumps_pretty):
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            dumps(doc)


def test_lenient_mode_ignores_unknown_fields():
    rng = np.random.default_rng(8)
    doc = valid_doc(rng)
    doc["provider_extra"] = {"anything": 1}
    assert not validate_episode(doc, strict=True).valid
    assert validate_episode(doc, strict=False).valid


def test_make_failure_stub_contract():
    doc = failure_stub("S17-scripted-greedy-0003", "S17", "scripted-greedy", 77, "schema_invalid")
    assert doc == {
        "kind": "failure_stub", "episode_id": "S17-scripted-greedy-0003", "scenario_id": "S17",
        "model": "scripted-greedy", "seed": 77, "attempts_used": 3, "error_kind": "schema_invalid", "timestamp": "",
    }
    assert check_stub(doc) == doc
    del doc["episode_id"]
    with pytest.raises(ParseError):
        check_stub(doc)
    with pytest.raises(ValueError):
        failure_stub("S1-m-0000", "S1", "m", 1, "not_a_kind")


_STUB = failure_stub("S01-safe_pilot-0000", "S01", "safe_pilot", 42, "internal")
_MISSING = object()
# Each edit of a stub document, and the (seed, attempts_used) of the stub it
# reads as, or None where it is refused.  An integral float reads as its
# integer; a field a stub lacks and a missing kind are ignored, as the
# callers tell a stub by its kind.
_STUB_CASES = [
    ("seed 4.9", {"seed": 4.9}, None),
    ("seed text", {"seed": "4"}, None),
    ("seed true", {"seed": True}, None),
    ("seed 2.0", {"seed": 2.0}, (2, 3)),
    ("attempts 2.5", {"attempts_used": 2.5}, None),
    ("attempts 2.0", {"attempts_used": 2.0}, (42, 2)),
    *((f"no {key}", {key: _MISSING}, (42, 3) if key == "kind" else None) for key in _STUB),
    *((f"{key} 7", {key: 7}, None) for key in ("episode_id", "scenario_id", "model", "timestamp")),
    ("unknown error kind", {"error_kind": "nope"}, None),
    ("extra field", {"extra": 1}, (42, 3)),
]


@pytest.mark.parametrize("edit,expected", [case[1:] for case in _STUB_CASES], ids=[case[0] for case in _STUB_CASES])
def test_check_stub_verdicts(edit, expected):
    doc = {key: value for key, value in {**_STUB, **edit}.items() if value is not _MISSING}
    if expected is None:
        with pytest.raises(ParseError):
            check_stub(doc)
        return
    stub = check_stub(doc)
    assert (stub["seed"], stub["attempts_used"]) == expected
    assert type(stub["seed"]) is int and type(stub["attempts_used"]) is int
    assert stub == {**_STUB, "seed": expected[0], "attempts_used": expected[1]}


def test_stub_error_kind_mapping():
    rng = np.random.default_rng(10)
    by_label = {label: doc for label, doc, _ in corrupted_docs(rng)}
    assert stub_error_kind(validate_episode(by_label["role_system"])) == "role_disallowed"
    assert stub_error_kind(validate_episode(by_label["consecutive_roles"])) == "alternation_violation"
    assert stub_error_kind(validate_episode(by_label["agent_first"])) == "alternation_violation"
    assert stub_error_kind(validate_episode(by_label["seven_turns"])) == "turn_bounds"
    assert stub_error_kind(validate_episode(by_label["token_mismatch"])) == "schema_invalid"


def test_corpus_round_trip_with_stubs(tmp_path):
    rng = np.random.default_rng(11)
    records = [random_episode(rng) for _ in range(3)]
    records.append(failure_stub("S01-m-0000", "S01", "m", 42, "turn_bounds", timestamp="1970-01-01T00:00:00Z"))
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(record_to_line(record) + "\n" for record in records))
    loaded = [line_to_record(line) for _, line in _corpus_lines(path)]
    assert loaded == records
    stub_line = record_to_line(records[-1])
    assert line_to_record(stub_line) == records[-1]


def test_validate_accepts_episode_values():
    rng = np.random.default_rng(12)
    episode = random_episode(rng)
    assert validate_episode(episode).valid


def test_network_battery_and_attempt_semantics():
    rng = np.random.default_rng(13)
    doc = valid_doc(rng)
    doc["final_state"]["battery"] = -0.5
    assert "battery_range" in validate_episode(doc).codes()
    doc = valid_doc(rng)
    doc["metadata"]["attempts_used"] = 0
    assert "attempts_exceeded" in validate_episode(doc).codes()
    doc = valid_doc(rng)
    doc["turns"][1]["network"]["slice"] = "5G"
    assert "schema_invalid" in validate_episode(doc).codes()


def test_doc_to_episode_raises_on_missing_fields():
    rng = np.random.default_rng(14)
    doc = valid_doc(rng)
    del doc["metadata"]["seed"]
    with pytest.raises(ParseError):
        doc_to_episode(doc)


def test_validation_total_on_pathological_documents():
    pathological = [
        {},
        {"turns": 5},
        {"turns": [5, None]},
        {"turns": [{"role": 5, "intent": 3, "network": []}]},
        {"episode_id": "", "metadata": None, "turns": [], "final_state": None},
        {"episode_id": "x", "metadata": {"attempts_used": "three"}, "turns": [], "final_state": {}},
    ]
    for doc in pathological:
        report = validate_episode(doc)
        assert not report.valid


def test_turn_doc_is_turn_to_doc_of_the_same_parts():
    from skybench.episode import A2aAck, A2aTask, McpCall, McpResult, Turn, turn_doc, turn_to_doc
    from skybench.network import NetworkState

    network = NetworkState("eMBB", 12.3456789, 1.0, 0, 250.123456789, 0.5)
    args = {"x": 1.23456789, "path": ((1, 2.5e-7), [3.0])}
    result = {"position": (1.0, 2.0, 3.33333333), "ok": True, "note": None}
    for action, observation in (
        (McpCall("set_waypoint", args), McpResult("set_waypoint", result)),
        (A2aTask("sync", "P1", args), A2aAck("sync", "P1", "degraded", result)),
        (None, None),
    ):
        action_doc = observation_doc = None
        if isinstance(action, McpCall):
            action_doc = {"protocol": "mcp", "name": action.name, "args": args}
            observation_doc = {"tool": observation.tool, "result": result}
        elif action is not None:
            action_doc = {"protocol": "a2a", "task": action.task, "to": action.to, "payload": args}
            observation_doc = {"task": "sync", "from": "P1", "status": "degraded", "payload": result}
        doc = turn_doc("agent", "intent", network, action_doc, observation_doc)
        assert doc == turn_to_doc(Turn("agent", "intent", action, observation, network))
        assert dumps_canonical(doc) == json.dumps(doc, sort_keys=True, separators=(",", ":"))
        if action_doc is not None:
            assert doc["action"] is not action_doc and doc["observation"] is not observation_doc
    assert args == {"x": 1.23456789, "path": ((1, 2.5e-7), [3.0])}  # the raw parts are left as they were


def test_record_classes_are_created_on_first_use():
    import pickle

    import skybench
    import skybench.episode as episode

    assert episode.RECORD_CLASSES == (
        "McpCall", "A2aTask", "McpResult", "A2aAck", "Turn", "FinalState", "EpisodeMetadata", "Episode",
    )
    for name in episode.RECORD_CLASSES:
        cls = getattr(episode, name)
        assert cls is getattr(skybench, name)
        assert (cls.__name__, cls.__qualname__, cls.__module__) == (name, name, "skybench.episode")
    call = episode.McpCall("land")
    assert repr(call) == "McpCall(name='land', args={})"
    assert pickle.loads(pickle.dumps(call)) == call
    record = random_episode(np.random.default_rng(3))
    assert pickle.loads(pickle.dumps(record)) == record
    with pytest.raises(AttributeError):
        episode.NoSuchRecord
    with pytest.raises(AttributeError):
        skybench.NoSuchRecord
