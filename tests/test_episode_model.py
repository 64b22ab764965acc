from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from generators import corrupted_docs, random_episode, valid_doc
from skybench.episode import (
    FailureStub,
    canonical_float,
    doc_to_episode,
    doc_to_stub,
    dumps_canonical,
    episode_to_doc,
    format_float,
    line_to_record,
    make_failure_stub,
    record_to_line,
    stub_error_kind,
    stub_to_doc,
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


def test_lenient_mode_ignores_unknown_fields():
    rng = np.random.default_rng(8)
    doc = valid_doc(rng)
    doc["provider_extra"] = {"anything": 1}
    assert not validate_episode(doc, strict=True).valid
    assert validate_episode(doc, strict=False).valid


def test_make_failure_stub_contract():
    stub = make_failure_stub("S17-scripted-greedy-0003", "S17", "scripted-greedy", 77, "schema_invalid")
    assert stub.attempts_used == 3
    assert stub.error_kind == "schema_invalid"
    doc = stub_to_doc(stub)
    assert doc["kind"] == "failure_stub"
    assert doc["episode_id"] == "S17-scripted-greedy-0003"
    assert "turns" not in doc and "final_state" not in doc
    assert doc_to_stub(doc) == stub
    del doc["episode_id"]
    with pytest.raises(ParseError):
        doc_to_stub(doc)
    with pytest.raises(ValueError):
        make_failure_stub("S1-m-0000", "S1", "m", 1, "not_a_kind")


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
    records.append(make_failure_stub("S01-m-0000", "S01", "m", 42, "turn_bounds", timestamp="1970-01-01T00:00:00Z"))
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(record_to_line(record) + "\n" for record in records))
    loaded = [line_to_record(line) for _, line in _corpus_lines(path)]
    assert loaded == records
    stub_line = record_to_line(records[-1])
    assert isinstance(line_to_record(stub_line), FailureStub)


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
