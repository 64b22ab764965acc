from __future__ import annotations

import copy
import itertools
import json
from dataclasses import replace

import pytest

from skybench import agents
from skybench.agents import (
    AdaptiveActionFilter,
    AdaptivePilot,
    MissionStatus,
    SafePilot,
    UserSimulator,
    _apply_strictness,
    episode_seed_for,
    make_agent,
    run_episode,
    simulate_user_turn,
    stream_digest,
)
from skybench.episode import (
    A2aAck,
    A2aTask,
    Episode,
    FailureStub,
    MAX_ATTEMPTS,
    McpCall,
    McpResult,
    doc_to_episode,
    dumps_canonical,
    episode_to_doc,
    record_to_line,
    validate_episode,
)
from skybench.network import NetworkState, URLLC
from skybench.tools import ToolExecutor
FILTER = AdaptiveActionFilter()


def degraded_net():
    return NetworkState("eMBB", 55.0, 4.0, 2.0, 80.0, 0.5)


def clean_net():
    return NetworkState(URLLC, 8.0, 1.0, 0.05, 90.0, 0.3)


# -- scripted agents over scenarios -------------------------------------------

def test_safe_pilot_clean_scenario_golden(scenario_by_id, calibration):
    scenario = scenario_by_id["S01"]
    record = run_episode(
        make_agent("safe_pilot", scenario), UserSimulator(), scenario,
        calibration=calibration, episode_seed=42, index=0,
    )
    assert isinstance(record, Episode)
    assert record.metadata.attempts_used == 1
    assert record.final_state.mission_completed
    f = record.final_state
    assert not (f.altitude_violation or f.nfz_violation or f.separation_breach or f.battery_depleted)
    assert validate_episode(record).valid
    # Pinned trace shape for the reference seed.
    assert len(record.turns) == 10
    assert record.turns[0].role == "user"
    assert record.turns[0].intent.startswith("initiate mission and check telemetry")
    assert isinstance(record.turns[1].action, McpCall)


def test_episode_window_and_alternation_by_construction(scenarios, calibration):
    for scenario in scenarios:
        for name in ("safe_pilot", "adaptive_pilot", "greedy_streamer"):
            for index in range(8):
                record = run_episode(
                    make_agent(name, scenario), UserSimulator(), scenario,
                    calibration=calibration, episode_seed=episode_seed_for(index, (42, 77, 101, 2025, 1337)),
                    index=index,
                )
                assert isinstance(record, Episode), (scenario.scenario_id, name, index)
                turns = record.turns
                assert 8 <= len(turns) <= 12
                assert turns[0].role == "user"
                assert all(turns[i].role != turns[i - 1].role for i in range(1, len(turns)))
                assert 1 <= record.metadata.attempts_used <= 3


def test_determinism_identical_except_timestamp(scenario_by_id, calibration):
    scenario = scenario_by_id["S02"]
    kwargs = dict(calibration=calibration, episode_seed=77, index=5)
    a = run_episode(make_agent("adaptive_pilot", scenario), UserSimulator(), scenario, **kwargs)
    b = run_episode(make_agent("adaptive_pilot", scenario), UserSimulator(), scenario,
                    timestamp="2030-01-01T00:00:00Z", **kwargs)
    assert a.turns == b.turns
    assert a.final_state == b.final_state
    assert replace(a.metadata, timestamp="") == replace(b.metadata, timestamp="")
    c = run_episode(make_agent("adaptive_pilot", scenario), UserSimulator(), scenario, **kwargs)
    assert record_to_line(a) == record_to_line(c)


def test_greedy_streamer_aborts_on_congested_scenario(scenario_by_id, calibration):
    scenario = scenario_by_id["S03"]
    record = run_episode(
        make_agent("greedy_streamer", scenario), UserSimulator(), scenario,
        calibration=calibration, episode_seed=42, index=0,
    )
    assert isinstance(record, Episode)
    assert not record.final_state.mission_completed
    assert len(record.turns) == 8  # degraded-network termination at the floor


def test_safe_pilot_lands_below_battery_threshold(scenario_by_id, calibration):
    scenario = scenario_by_id["S01"]
    low = replace(scenario, initial_state=replace(scenario.initial_state, battery_pct=9.0))
    record = run_episode(
        make_agent("safe_pilot", low), UserSimulator(), low,
        calibration=calibration, episode_seed=42, index=0,
    )
    assert isinstance(record, Episode)
    first_action = record.turns[1].action
    assert isinstance(first_action, McpCall) and first_action.name == "land"


# -- broken documents and the retry ladder ------------------------------------

def break_documents(monkeypatch, failing=MAX_ATTEMPTS):
    """Make run_episode's next `failing` episode documents give turn 3 a
    disallowed role, as a faulty policy's output would."""
    built = itertools.count()

    def broken(episode):
        doc = episode_to_doc(episode)
        if next(built) < failing:
            doc["turns"][3]["role"] = "system"
        return doc

    monkeypatch.setattr(agents, "episode_to_doc", broken)


def test_faulty_agent_exhausts_attempts_to_stub(scenario_by_id, calibration, monkeypatch):
    scenario = scenario_by_id["S01"]
    break_documents(monkeypatch)
    record = run_episode(
        make_agent("safe_pilot", scenario), UserSimulator(), scenario,
        calibration=calibration, episode_seed=77, index=0,
    )
    assert isinstance(record, FailureStub)
    assert record.attempts_used == 3
    assert record.error_kind == "role_disallowed"
    assert record.model == "safe_pilot"
    assert record.seed == 77
    assert record.episode_id == "S01-safe_pilot-0000"


def test_faulty_agent_recovers_on_second_attempt(scenario_by_id, calibration, monkeypatch):
    scenario = scenario_by_id["S01"]
    break_documents(monkeypatch, failing=1)
    record = run_episode(
        make_agent("safe_pilot", scenario), UserSimulator(), scenario,
        calibration=calibration, episode_seed=77, index=0,
    )
    assert isinstance(record, Episode)
    assert record.metadata.attempts_used == 2
    # Generation time accumulates over both attempts.
    break_documents(monkeypatch, failing=0)
    single = run_episode(
        make_agent("safe_pilot", scenario), UserSimulator(), scenario,
        calibration=calibration, episode_seed=77, index=0,
    )
    assert single.metadata.attempts_used == 1
    assert record.metadata.gen_time_s > single.metadata.gen_time_s


def test_accepted_line_is_the_records_serialization(scenarios, calibration, monkeypatch):
    # generate stores the line handed to on_accept in place of re-serializing
    # the returned episode, so the two must be the same bytes.
    for scenario in scenarios:
        for name in ("adaptive_pilot", "greedy_streamer", "safe_pilot"):
            for failing in (0, 1):
                break_documents(monkeypatch, failing)
                lines = []
                record = run_episode(
                    make_agent(name, scenario), UserSimulator(), scenario,
                    calibration=calibration, index=3, on_accept=lines.append,
                )
                assert isinstance(record, Episode)
                assert record.metadata.attempts_used == failing + 1
                assert lines == [record_to_line(record)]
    break_documents(monkeypatch)
    lines = []
    stub = run_episode(
        make_agent("safe_pilot", scenarios[0]), UserSimulator(), scenarios[0],
        calibration=calibration, on_accept=lines.append,
    )
    assert isinstance(stub, FailureStub) and lines == []


# -- one pass from episode to line ---------------------------------------------

class EchoPilot(AdaptivePilot):
    """On station, sends its peer a task that peers answer by echoing the payload."""

    name = "echo_pilot"
    latency_factor = 1.1234567  # a generation time with more than six digits

    def _on_station_step(self, cite, history):
        peers = self.scenario.swarm.peer_ids()
        synced = any(isinstance(t.observation, A2aAck) and t.observation.task == "formation_sync" for t in history)
        if peers and not synced:
            payload = {"offset_m": (1.25, -0.5, 3.0), "gain": 0.123456789, "mode": ("hold", 2)}
            return f"{cite}syncing formation with {peers[0]}", A2aTask("formation_sync", peers[0], payload)
        return None


def _typed(value):
    """value with every scalar tagged by its type, so 1 and 1.0 or a tuple
    and a list no longer compare equal."""
    if isinstance(value, dict):
        return {k: _typed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_typed(v) for v in value])
    return (type(value).__name__, value)


def test_validated_document_is_the_stored_line(scenarios, calibration, monkeypatch):
    # run_episode validates the document it builds, not its line parsed back,
    # and returns the value built from that document: the three must agree.
    validated = []

    def recording_validate(doc, **kwargs):
        validated.append((doc, copy.deepcopy(doc)))
        return validate_episode(doc, **kwargs)

    real_telemetry = ToolExecutor._tool_read_telemetry

    def tuple_telemetry(self, call, state, network, rng):
        obs, state, network = real_telemetry(self, call, state, network, rng)
        result = dict(obs.result, position=tuple(state.kinematics.position), span=((0.1234567, 2), (-1e-7, 3.5)))
        return McpResult(obs.tool, result), state, network

    monkeypatch.setattr(agents, "validate_episode", recording_validate)
    monkeypatch.setattr(ToolExecutor, "_tool_read_telemetry", tuple_telemetry)
    results = []
    for scenario in scenarios:
        for agent_type in (SafePilot, AdaptivePilot, agents.GreedyStreamer, EchoPilot):
            for index in range(6):
                lines, validated[:] = [], []
                record = run_episode(
                    agent_type(scenario), UserSimulator(), scenario, calibration=calibration,
                    episode_seed=episode_seed_for(index, (42, 77, 101, 2025, 1337)), index=index,
                    on_accept=lines.append,
                )
                assert isinstance(record, Episode), (scenario.scenario_id, agent_type.name, index)
                doc, snapshot = validated[-1]
                assert _typed(doc) == _typed(snapshot) == _typed(json.loads(lines[0]))
                assert record == doc_to_episode(json.loads(lines[0]))
                assert record_to_line(record) == lines[0]
                assert dumps_canonical(json.loads(lines[0])) == lines[0]
                results += [t["observation"] for t in doc["turns"] if "observation" in t]
    clearances = [o["result"]["min_clearance_m"] for o in results if o.get("tool") == "check_geofence"]
    assert 1e9 in clearances and any(c != 1e9 for c in clearances)
    spans = [o["result"]["span"] for o in results if o.get("tool") == "read_telemetry"]
    assert spans and all(span == [[0.123457, 2], [-1e-7, 3.5]] for span in spans)
    echoes = [o["payload"]["echo"] for o in results if o.get("task") == "formation_sync"]
    assert echoes and all(e == {"offset_m": [1.25, -0.5, 3.0], "gain": 0.123457, "mode": ["hold", 2]} for e in echoes)


class CrashingAgent(SafePilot):
    name = "crashing_agent"

    def next_turn(self, history, state, network, strictness=0):
        raise RuntimeError("boom")


def test_crashing_agent_becomes_internal_stub(scenario_by_id, calibration):
    scenario = scenario_by_id["S01"]
    record = run_episode(
        CrashingAgent(scenario), UserSimulator(), scenario,
        calibration=calibration, episode_seed=42, index=0,
    )
    assert isinstance(record, FailureStub)
    assert record.error_kind == "internal"


# -- user simulator ------------------------------------------------------------

def test_user_opener_matches_template(scenario_by_id):
    user = UserSimulator()
    turn = simulate_user_turn(user, 0, scenario_by_id["S01"], MissionStatus(), clean_net())
    assert turn.role == "user"
    assert turn.action is None and turn.observation is None
    assert turn.intent.startswith("initiate mission and check telemetry")
    again = simulate_user_turn(user, 0, scenario_by_id["S01"], MissionStatus(), clean_net())
    assert turn == again


def test_fixed_prompt_mode_is_agent_independent(scenario_by_id, calibration):
    prompts = ("begin the survey", "continue", "report status", "wrap up")
    user = UserSimulator(prompts=prompts)
    scenario = scenario_by_id["S01"]
    safe = run_episode(make_agent("safe_pilot", scenario), user, scenario,
                       calibration=calibration, episode_seed=42, index=0)
    greedy = run_episode(make_agent("greedy_streamer", scenario), user, scenario,
                         calibration=calibration, episode_seed=42, index=0)
    safe_user = [t.intent for t in safe.turns if t.role == "user"]
    greedy_user = [t.intent for t in greedy.turns if t.role == "user"]
    n = min(len(safe_user), len(greedy_user))
    assert safe_user[:n] == greedy_user[:n]
    assert safe_user[:n] == list(prompts[:n]) + [prompts[-1]] * (n - len(prompts))


# -- adaptive filter and strictness --------------------------------------------

def test_filter_degraded_predicate_boundaries():
    assert not FILTER.degraded(NetworkState("eMBB", 40.0, 1.0, 0.99, 50.0, 0.5))
    assert FILTER.degraded(NetworkState("eMBB", 40.01, 1.0, 0.0, 50.0, 0.5))
    assert FILTER.degraded(NetworkState("eMBB", 10.0, 1.0, 1.0, 50.0, 0.5))
    # The filter's rule is classify_hard's: throughput and edge load count too.
    assert not FILTER.degraded(NetworkState("eMBB", 10.0, 1.0, 0.0, 5.0, 0.8))
    assert FILTER.degraded(NetworkState("eMBB", 10.0, 1.0, 0.0, 4.99, 0.5))
    assert FILTER.degraded(NetworkState("eMBB", 10.0, 1.0, 0.0, 50.0, 0.81))


def test_filter_permits_only_safe_subset_when_degraded():
    net = degraded_net()
    assert FILTER.permits(McpCall("switch_network_slice", {"slice": "URLLC"}), net)
    assert FILTER.permits(McpCall("read_telemetry"), net)
    assert FILTER.permits(McpCall("land"), net)
    assert FILTER.permits(None, net)
    assert not FILTER.permits(McpCall("capture_image", {"sensor": "RGB"}), net)
    assert not FILTER.permits(A2aTask("swarm_status_check", "P1", {}), net)
    assert FILTER.permits(McpCall("capture_image", {"sensor": "RGB"}), clean_net())


def test_strictness_ladder(registry):
    unknown = McpCall("warp_drive", {})
    capture = McpCall("capture_image", {"sensor": "RGB"})
    telemetry = McpCall("read_telemetry")
    a2a = A2aTask("swarm_status_check", "P1", {})
    assert _apply_strictness(unknown, 0, registry) is unknown
    assert _apply_strictness(unknown, 1, registry) is None
    assert _apply_strictness(capture, 1, registry) is capture
    assert _apply_strictness(capture, 2, registry) is None
    assert _apply_strictness(telemetry, 2, registry) is telemetry
    assert _apply_strictness(a2a, 2, registry) is None


def test_safe_and_adaptive_respect_filter_across_corpus(scenarios, calibration):
    for scenario in scenarios:
        for name in ("safe_pilot", "adaptive_pilot"):
            for index in range(10):
                record = run_episode(
                    make_agent(name, scenario), UserSimulator(), scenario,
                    calibration=calibration, episode_seed=episode_seed_for(index, (42, 77)),
                    index=index,
                )
                assert isinstance(record, Episode)
                for turn in record.turns:
                    if turn.role == "agent" and turn.structured:
                        assert FILTER.permits(turn.action, turn.network), (
                            scenario.scenario_id, name, index, turn.action, turn.network,
                        )


# -- seed plumbing --------------------------------------------------------------

def test_stream_digest_stable_and_distinct():
    assert stream_digest("S01", "safe_pilot", 0) == stream_digest("S01", "safe_pilot", 0)
    assert stream_digest("S01", "safe_pilot", 0) != stream_digest("S01", "safe_pilot", 1)
    assert stream_digest("S01", "safe_pilot", 0) != stream_digest("S02", "safe_pilot", 0)


def test_episode_seed_cycles_published_set():
    seeds = (42, 77, 101, 2025, 1337)
    assert [episode_seed_for(i, seeds) for i in range(7)] == [42, 77, 101, 2025, 1337, 42, 77]


def test_make_agent_rejects_unknown():
    with pytest.raises(ValueError):
        make_agent("hal9000", None)


# -- external policies over the line protocol -----------------------------------

ECHO_POLICY = r"""
import json, sys
for line in sys.stdin:
    request = json.loads(line)
    battery = request["state"]["battery_pct"]
    reply = {"intent": f"external hold, battery {battery}", "action": None}
    if request["history"] and len(request["history"]) == 1:
        reply["action"] = {"protocol": "mcp", "name": "read_telemetry", "args": {}}
    print(json.dumps(reply), flush=True)
"""


def test_subprocess_policy_round_trip(scenario_by_id, calibration):
    import sys

    from skybench.agents import SubprocessPolicy

    scenario = scenario_by_id["S01"]
    with SubprocessPolicy([sys.executable, "-c", ECHO_POLICY], name="echo_policy") as agent:
        record = run_episode(agent, UserSimulator(), scenario,
                             calibration=calibration, episode_seed=42, index=0)
    assert isinstance(record, Episode)
    assert record.metadata.model == "echo_policy"
    assert validate_episode(record).valid
    assert isinstance(record.turns[1].action, McpCall)
    assert record.turns[1].action.name == "read_telemetry"
    assert record.turns[3].action is None
    assert not record.final_state.mission_completed  # it never navigates


def test_subprocess_policy_closes_its_pipes(scenario_by_id, calibration):
    import gc
    import sys
    import warnings

    from skybench.agents import SubprocessPolicy

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for policy in (ECHO_POLICY, "import sys; sys.exit(0)"):
            with SubprocessPolicy([sys.executable, "-c", policy], name="echo_policy") as agent:
                run_episode(agent, UserSimulator(), scenario_by_id["S01"],
                            calibration=calibration, episode_seed=42, index=0)
            del agent
            gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []
    # A child that died is replaced, and the dead one's pipes are closed.
    with SubprocessPolicy([sys.executable, "-c", ECHO_POLICY]) as agent:
        dead = agent._process()
        dead.kill()
        dead.wait()
        assert agent._process() is not dead
        assert dead.stdin.closed and dead.stdout.closed


def test_subprocess_policy_reads_a_reply_sent_in_pieces(scenario_by_id, calibration):
    import sys

    from skybench.agents import SubprocessPolicy

    # Each reply arrives in two writes with a pause between them.
    policy = (
        "import json, sys, time\n"
        "for line in sys.stdin:\n"
        "    reply = json.dumps({'intent': 'split hold', 'action': None}) + '\\n'\n"
        "    sys.stdout.write(reply[:9]); sys.stdout.flush(); time.sleep(0.01)\n"
        "    sys.stdout.write(reply[9:]); sys.stdout.flush()\n"
    )
    with SubprocessPolicy([sys.executable, "-c", policy], name="split") as agent:
        record = run_episode(agent, UserSimulator(), scenario_by_id["S01"],
                             calibration=calibration, episode_seed=42, index=0)
    assert isinstance(record, Episode)
    assert all(t.intent == "split hold" for t in record.turns[1::2])


def test_subprocess_policy_failure_becomes_internal_stub(scenario_by_id, calibration):
    import sys

    from skybench.agents import SubprocessPolicy

    scenario = scenario_by_id["S01"]
    with SubprocessPolicy([sys.executable, "-c", "import sys; sys.exit(0)"], name="dead") as agent:
        record = run_episode(agent, UserSimulator(), scenario,
                             calibration=calibration, episode_seed=42, index=0)
    assert isinstance(record, FailureStub)
    assert record.error_kind == "internal"
