"""Seeded generators for random valid episodes and targeted corruptions."""

from __future__ import annotations

import copy
from typing import Any

import numpy as np

from skybench.episode import (
    A2aAck,
    A2aTask,
    Episode,
    EpisodeMetadata,
    FinalState,
    McpCall,
    McpResult,
    Turn,
    canonical_float,
    episode_to_doc,
)
from skybench.network import NetworkState, SLICES, URLLC

MCP_NAMES = (
    "read_telemetry",
    "set_waypoint",
    "set_altitude",
    "activate_sensor",
    "capture_image",
    "check_geofence",
    "switch_network_slice",
)
A2A_NAMES = ("collision_avoidance", "swarm_status_check", "request_weather_update")
PEERS = ("P1", "P2", "P3")

USER_INTENTS = (
    "initiate mission and check telemetry",
    "proceed to the survey point and report progress",
    "report mission status and link quality",
    "confirm sensor readiness",
)
AGENT_INTENTS = (
    "running telemetry sweep",
    "setting waypoint toward objective",
    "verifying clearance en route",
    "capturing imagery on station",
    "holding pattern and monitoring",
)


def random_network(rng: np.random.Generator, hard: bool | None = None, slice_name: str | None = None) -> NetworkState:
    """One network vector; `hard` forces the degraded classification."""
    if hard is None:
        hard = bool(rng.random() < 0.3)
    slice_name = slice_name or SLICES[int(rng.integers(0, 3))]
    if hard:
        trigger = int(rng.integers(0, 4))
        latency = float(rng.uniform(40.5, 250.0)) if trigger == 0 else float(rng.uniform(1.0, 39.0))
        loss = float(rng.uniform(1.0, 30.0)) if trigger == 1 else float(rng.uniform(0.0, 0.9))
        throughput = float(rng.uniform(0.1, 4.9)) if trigger == 2 else float(rng.uniform(6.0, 800.0))
        edge = float(rng.uniform(0.81, 1.0)) if trigger == 3 else float(rng.uniform(0.0, 0.79))
    else:
        latency = float(rng.uniform(1.0, 39.0))
        loss = float(rng.uniform(0.0, 0.9))
        throughput = float(rng.uniform(6.0, 800.0))
        edge = float(rng.uniform(0.0, 0.79))
    return NetworkState(
        slice=slice_name,
        latency_ms=canonical_float(latency),
        jitter_ms=canonical_float(float(rng.uniform(0.0, 20.0))),
        loss_pct=canonical_float(loss),
        throughput_mbps=canonical_float(throughput),
        edge_load=canonical_float(edge),
    )


def _agent_action(rng: np.random.Generator, matched: bool) -> tuple[Any, Any]:
    if rng.random() < 0.8:
        name = MCP_NAMES[int(rng.integers(0, len(MCP_NAMES)))]
        action = McpCall(name, {"value": canonical_float(float(rng.uniform(0, 100)))})
        tool = name if matched else name + "_x"
        obs = McpResult(tool, {"value": canonical_float(float(rng.uniform(0, 100)))})
    else:
        task = A2A_NAMES[int(rng.integers(0, len(A2A_NAMES)))]
        peer = PEERS[int(rng.integers(0, len(PEERS)))]
        action = A2aTask(task, peer, {"note": "coordinate"})
        obs = A2aAck(task, peer if matched else peer + "_x", "ok", {"status": "nominal"})
    return action, obs


def random_episode(
    rng: np.random.Generator,
    *,
    n_turns: int | None = None,
    structured_prob: float = 0.75,
    hard_prob: float = 0.3,
    mismatch_prob: float = 0.0,
    completed: bool | None = None,
) -> Episode:
    """A structurally valid episode with controllable structure rates."""
    if n_turns is None:
        n_turns = int(rng.choice((8, 10, 12)))
    turns = []
    for i in range(n_turns):
        network = random_network(rng, hard=bool(rng.random() < hard_prob))
        if i % 2 == 0:
            intent = USER_INTENTS[int(rng.integers(0, len(USER_INTENTS)))]
            turns.append(Turn("user", intent, None, None, network))
            continue
        intent = AGENT_INTENTS[int(rng.integers(0, len(AGENT_INTENTS)))]
        action, obs = None, None
        if rng.random() < structured_prob:
            action, obs = _agent_action(rng, matched=not rng.random() < mismatch_prob)
        turns.append(Turn("agent", intent, action, obs, network))
    prompt = int(rng.integers(200, 4000))
    completion = int(rng.integers(100, 4000))
    if completed is None:
        completed = bool(rng.random() < 0.6)
    battery = canonical_float(float(rng.uniform(6.0, 100.0)))
    return Episode(
        episode_id=f"R-{int(rng.integers(0, 10**9)):09d}",
        metadata=EpisodeMetadata(
            model="random_model",
            seed=int(rng.integers(0, 10_000)),
            scenario_id="SR",
            gen_time_s=canonical_float(float(rng.uniform(0.5, 30.0))),
            attempts_used=int(rng.integers(1, 4)),
            prompt_tokens=prompt,
            completion_tokens=completion,
            total_tokens=prompt + completion,
            timestamp="1970-01-01T00:00:00Z",
        ),
        turns=tuple(turns),
        final_state=FinalState(
            position=(
                canonical_float(float(rng.uniform(-100, 100))),
                canonical_float(float(rng.uniform(-100, 100))),
                canonical_float(float(rng.uniform(20, 100))),
            ),
            velocity=canonical_float(float(rng.uniform(0, 15))),
            yaw=canonical_float(float(rng.uniform(-3.1, 3.1))),
            battery=battery,
            mission_completed=completed,
        ),
    )


def valid_doc(rng: np.random.Generator) -> dict[str, Any]:
    return episode_to_doc(random_episode(rng))


def _extend_turns(doc: dict[str, Any], count: int) -> None:
    turns = doc["turns"]
    while len(turns) < count:
        last = copy.deepcopy(turns[-1])
        last["role"] = "user" if turns[-1]["role"] == "agent" else "agent"
        last.pop("action", None)
        last.pop("observation", None)
        last["intent"] = "continue"
        turns.append(last)


def corrupted_docs(rng: np.random.Generator) -> list[tuple[str, dict[str, Any], str]]:
    """(label, corrupted document, expected violation code) triples."""
    cases: list[tuple[str, dict[str, Any], str]] = []

    doc = valid_doc(rng)
    doc["turns"][3]["role"] = "system"
    cases.append(("role_system", doc, "role_disallowed"))

    doc = valid_doc(rng)
    doc["turns"][5]["role"] = doc["turns"][4]["role"]
    if doc["turns"][5]["role"] == "user":
        doc["turns"][5].pop("action", None)
        doc["turns"][5].pop("observation", None)
    cases.append(("consecutive_roles", doc, "alternation_violation"))

    doc = valid_doc(rng)
    for turn in doc["turns"]:
        turn["role"] = "agent" if turn["role"] == "user" else "user"
        if turn["role"] == "user":
            turn.pop("action", None)
            turn.pop("observation", None)
    cases.append(("agent_first", doc, "first_role_not_user"))

    doc = valid_doc(rng)
    doc["turns"] = doc["turns"][:7]
    cases.append(("seven_turns", doc, "turn_bounds"))

    doc = valid_doc(rng)
    _extend_turns(doc, 13)
    cases.append(("thirteen_turns", doc, "turn_bounds"))

    doc = valid_doc(rng)
    doc["metadata"]["total_tokens"] += 7
    cases.append(("token_mismatch", doc, "token_mismatch"))

    doc = valid_doc(rng)
    doc["final_state"]["battery"] = 150.0
    cases.append(("battery_high", doc, "battery_range"))

    doc = valid_doc(rng)
    doc["metadata"]["attempts_used"] = 4
    cases.append(("four_attempts", doc, "attempts_exceeded"))

    doc = valid_doc(rng)
    doc["turns"][2]["intent"] = "   "
    cases.append(("blank_intent", doc, "intent_empty"))

    doc = valid_doc(rng)
    doc["turns"][0]["action"] = {"protocol": "mcp", "name": "read_telemetry", "args": {}}
    cases.append(("user_with_action", doc, "user_turn_structured"))

    doc = valid_doc(rng)
    doc["unexpected_field"] = 1
    cases.append(("unknown_field", doc, "schema_invalid"))

    doc = valid_doc(rng)
    doc["turns"][1]["network"]["latency_ms"] = "fast"
    cases.append(("latency_wrong_type", doc, "schema_invalid"))

    # The schema's integer type takes an integral float, so the count rules
    # read one as that integer.
    doc = valid_doc(rng)
    doc["metadata"]["attempts_used"] = 7.0
    cases.append(("seven_attempts_as_float", doc, "attempts_exceeded"))

    doc = valid_doc(rng)
    doc["metadata"]["total_tokens"] = float(doc["metadata"]["total_tokens"] + 5)
    cases.append(("token_mismatch_as_float", doc, "token_mismatch"))

    return cases


def build_episode(
    turns: list[Turn],
    *,
    completed: bool = True,
    total_tokens: int = 4000,
    gen_time_s: float = 10.0,
    battery: float = 88.0,
    altitude_violation: bool = False,
    nfz_violation: bool = False,
    separation_breach: bool = False,
    battery_depleted: bool = False,
    attempts_used: int = 1,
) -> Episode:
    """Hand-assembled episode for scoring tests; metadata kept consistent."""
    prompt = total_tokens // 2
    return Episode(
        episode_id="HAND-0001",
        metadata=EpisodeMetadata(
            model="hand_built",
            seed=42,
            scenario_id="SH",
            gen_time_s=gen_time_s,
            attempts_used=attempts_used,
            prompt_tokens=prompt,
            completion_tokens=total_tokens - prompt,
            total_tokens=total_tokens,
            timestamp="1970-01-01T00:00:00Z",
        ),
        turns=tuple(turns),
        final_state=FinalState(
            position=(0.0, 0.0, 50.0),
            velocity=0.0,
            yaw=0.0,
            battery=battery,
            mission_completed=completed,
            altitude_violation=altitude_violation,
            nfz_violation=nfz_violation,
            separation_breach=separation_breach,
            battery_depleted=battery_depleted,
        ),
    )


def fixed_network(hard: bool, slice_name: str = URLLC) -> NetworkState:
    if hard:
        return NetworkState(slice_name, 80.0, 5.0, 2.0, 2.0, 0.9)
    return NetworkState(slice_name, 10.0, 1.0, 0.1, 200.0, 0.3)


def dialogue(pattern: list[tuple[bool, bool, str]], intents: dict[int, str] | None = None) -> list[Turn]:
    """Build alternating user/agent turns from (hard, structured, slice) per turn.

    Structured agent turns get a matched read_telemetry pair; `intents`
    overrides the agent intent at the given turn index.
    """
    turns = []
    for i, (hard, structured, slice_name) in enumerate(pattern):
        network = fixed_network(hard, slice_name)
        if i % 2 == 0:
            turns.append(Turn("user", "supervise step", None, None, network))
            continue
        intent = (intents or {}).get(i, "acknowledge and continue")
        action = obs = None
        if structured:
            action = McpCall("read_telemetry", {})
            obs = McpResult("read_telemetry", {"battery_pct": 90.5})
        turns.append(Turn("agent", intent, action, obs, network))
    return turns
