"""The schema check is compiled from the shipped schema file.

`schema_accepts` and `_schema_violations` are built at import from
`data/episode_schema.json`, so the file is the one definition of a valid
record: the wording of every rule is pinned here, an edit of the file moves
the verdict with no code edit, and a keyword the translator does not read
fails the compile instead of being skipped.  `tests/test_fast_validation.py`
holds the compiled check to jsonschema's verdicts.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import skybench
from generators import valid_doc
from skybench.episode import _compile, _schema_violations, load_schema, schema_accepts


def _network(**changes):
    return {
        "slice": "URLLC", "latency_ms": 12.5, "jitter_ms": 1.5, "loss_pct": 0.5, "throughput_mbps": 50.0,
        "edge_load": 0.25, **changes,
    }


# Between them, these documents break every leaf rule of the schema once, the
# list and object parts, both oneOfs, a required field at two depths and
# strict mode's closed objects.
EVERY_RULE = {
    "episode_id": "",
    "metadata": {
        "model": "", "seed": 1.5, "scenario_id": 3, "gen_time_s": -1, "attempts_used": True,
        "prompt_tokens": -1, "completion_tokens": 2.5, "total_tokens": "9", "timestamp": "",
    },
    "turns": [
        {"role": 7, "intent": None, "network": _network(slice="6G", latency_ms=0)},
        {
            "role": "agent", "intent": "fly",
            "network": _network(jitter_ms=-1, loss_pct=101, throughput_mbps=-0.5, edge_load=1.5),
            "action": {"protocol": "mcp", "name": "", "args": {}},
            "observation": {"tool": "t", "result": {}, "task": "t", "from": "P1", "status": "ok", "payload": {}},
        },
        "user",
        {"role": "agent", "intent": "hold", "network": [], "x_vendor": 1},
        {"role": "user", "intent": "land"},
    ],
    "final_state": {
        "position": [1.0, 2.0], "velocity": -1, "yaw": "north", "battery": None, "mission_completed": 1,
        "altitude_violation": "no", "nfz_violation": None, "separation_breach": 0.0, "battery_depleted": [],
        "x_vendor": 2,
    },
    "x_vendor": 3,
}
WRONG_PARTS = {"metadata": [], "turns": {}, "final_state": 7}

# The (turn index, message) list of each document in strict mode, as the
# hand-written rule tables worded it before the check was compiled from the
# file.
EVERY_RULE_STRICT = [
    (-1, "episode_id: must be a non-empty string"),
    (-1, "final_state/altitude_violation: must be true or false"),
    (-1, "final_state/battery: must be a number"),
    (-1, "final_state/battery_depleted: must be true or false"),
    (-1, "final_state/mission_completed: must be true or false"),
    (-1, "final_state/nfz_violation: must be true or false"),
    (-1, "final_state/position: must be a list of three numbers"),
    (-1, "final_state/separation_breach: must be true or false"),
    (-1, "final_state/velocity: must be a number at least 0"),
    (-1, "final_state/x_vendor: is not a field of the schema"),
    (-1, "final_state/yaw: must be a number"),
    (-1, "metadata/attempts_used: must be an integer"),
    (-1, "metadata/completion_tokens: must be an integer at least 0"),
    (-1, "metadata/gen_time_s: must be a number at least 0"),
    (-1, "metadata/model: must be a non-empty string"),
    (-1, "metadata/prompt_tokens: must be an integer at least 0"),
    (-1, "metadata/scenario_id: must be a non-empty string"),
    (-1, "metadata/seed: must be an integer"),
    (-1, "metadata/timestamp: must be a non-empty string"),
    (-1, "metadata/total_tokens: must be an integer at least 0"),
    (0, "turns/0/intent: must be a string"),
    (0, "turns/0/network/latency_ms: must be a number above 0"),
    (0, "turns/0/network/slice: must be URLLC or eMBB or mMTC"),
    (0, "turns/0/role: must be a string"),
    (1, "turns/1/action: must match exactly one form: an mcp call {protocol, name, args} or an a2a task "
        "{protocol, task, to, payload}"),
    (1, "turns/1/network/edge_load: must be a number from 0 to 1"),
    (1, "turns/1/network/jitter_ms: must be a number at least 0"),
    (1, "turns/1/network/loss_pct: must be a number from 0 to 100"),
    (1, "turns/1/network/throughput_mbps: must be a number at least 0"),
    (1, "turns/1/observation: must match exactly one form: a tool result {tool, result} or an acknowledgement "
        "{task, from, status, payload}"),
    (2, "turns/2: must be an object"),
    (3, "turns/3/network: must be an object"),
    (3, "turns/3/x_vendor: is not a field of the schema"),
    (4, "turns/4/network: is required"),
    (-1, "x_vendor: is not a field of the schema"),
]
WRONG_PARTS_ANY_MODE = [
    (-1, "episode_id: is required"),
    (-1, "final_state: must be an object"),
    (-1, "metadata: must be an object"),
    (-1, "turns: must be a list"),
]


def _messages(doc, strict):
    return [(v.turn_index, v.message) for v in _schema_violations(doc, strict)]


def test_every_rule_is_worded_as_before():
    assert _messages(EVERY_RULE, True) == EVERY_RULE_STRICT
    # Lenient mode admits the extra fields and reports the rest unchanged.
    assert _messages(EVERY_RULE, False) == [m for m in EVERY_RULE_STRICT if "is not a field" not in m[1]]
    for strict in (True, False):
        assert _messages(WRONG_PARTS, strict) == WRONG_PARTS_ANY_MODE
        assert _messages([], strict) == [(-1, "<root>: must be an object")]
        assert not schema_accepts(EVERY_RULE, strict) and not schema_accepts(WRONG_PARTS, strict)


def _edited(edit):
    schema = load_schema()
    edit(schema)
    return schema


def _set(*path, value):
    def edit(schema):
        node = schema
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


NETWORK = ("$defs", "network", "properties")
ACTION_FORMS = ("$defs", "action", "oneOf")


@pytest.mark.parametrize("edit, named", [
    (_set("properties", "episode_id", "pattern", value="^E"), "'pattern'"),
    (_set(*NETWORK, "slice", "$comment", value="the 5G slices"), "'\\$comment'"),
    (_set(*NETWORK, "edge_load", "multipleOf", value=0.5), "'multipleOf'"),
    (_set("$defs", "turn", "unevaluatedProperties", value=False), "'unevaluatedProperties'"),
    (_set("$defs", "action", "discriminator", value="protocol"), "'discriminator'"),
    (_set("$defs", "turn", "properties", "network", "description", value="the link"), "'description'"),
])
def test_a_keyword_the_translator_does_not_read_fails_the_compile(edit, named):
    with pytest.raises(ValueError, match=f"unsupported keyword {named}"):
        _compile(_edited(edit))


@pytest.mark.parametrize("edit", [
    _set("properties", "episode_id", "minLength", value=2),
    _set("properties", "episode_id", "type", value=["string", "null"]),
    _set(*NETWORK, "edge_load", "maximum", value="1"),
    _set(*NETWORK, "latency_ms", "maximum", value=10),
    _set(*NETWORK, "slice", "enum", value=["URLLC", 5]),
    _set("$defs", "network", "additionalProperties", value=True),
    _set("$defs", "final_state", "properties", "position", "maxItems", value=4),
    _set(*ACTION_FORMS, value=[{"$ref": "#/$defs/network"}]),
    lambda schema: schema["$defs"]["action"]["oneOf"][0].pop("title"),
    _set("properties", "metadata", "$ref", value="#/definitions/metadata"),
], ids=[
    "minLength 2", "two types", "string bound", "exclusive bound and maximum", "number in enum",
    "open object", "list of two lengths", "one form", "untitled form", "ref outside $defs",
])
def test_a_form_the_translator_does_not_read_fails_the_compile(edit):
    with pytest.raises(ValueError, match="episode schema: unsupported"):
        _compile(_edited(edit))


def test_a_leaf_field_that_may_be_left_out_is_checked_when_present():
    schema = load_schema()
    schema["$defs"]["metadata"]["required"].remove("seed")
    fits, explain = _compile(schema)
    doc = valid_doc(np.random.default_rng(0))
    del doc["metadata"]["seed"]
    assert fits(doc, True) and not schema_accepts(doc)
    doc["metadata"]["seed"] = "7"
    found = []
    explain(doc, (), True, found)
    assert not fits(doc, True) and found == [(("metadata", "seed"), "must be an integer")]


def test_load_schema_gives_a_fresh_copy():
    doc = valid_doc(np.random.default_rng(0))
    schema = load_schema()
    schema["$defs"]["network"]["properties"]["edge_load"]["maximum"] = -1
    assert load_schema() != schema
    assert schema_accepts(doc)


def test_an_edited_bound_moves_the_verdict_with_no_code_edit(tmp_path):
    # A copy of the package whose schema file alone differs: edge_load may
    # reach 2.
    package = tmp_path / "skybench"
    shutil.copytree(Path(skybench.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
    schema_path = package / "data" / "episode_schema.json"
    schema = json.loads(schema_path.read_text("utf-8"))
    schema["$defs"]["network"]["properties"]["edge_load"]["maximum"] = 2
    schema_path.write_text(json.dumps(schema), "utf-8")
    doc = valid_doc(np.random.default_rng(0))
    doc["turns"][0]["network"]["edge_load"] = 1.5
    out_of_range = copy.deepcopy(doc)
    out_of_range["turns"][0]["network"]["edge_load"] = 2.5
    assert not schema_accepts(doc)
    script = (
        "import json, sys\n"
        "from skybench.episode import _schema_violations, schema_accepts\n"
        "for doc in json.load(sys.stdin):\n"
        "    print(schema_accepts(doc), [v.message for v in _schema_violations(doc, True)])\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", script], input=json.dumps([doc, out_of_range]), capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(tmp_path)}, cwd=tmp_path, timeout=60, check=True,
    )
    assert run.stdout.splitlines() == [
        "True []",
        "False ['turns/0/network/edge_load: must be a number from 0 to 2']",
    ]
