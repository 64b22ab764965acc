from __future__ import annotations

import copy
import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

from skybench import agents
from skybench.agents import (
    AdaptiveActionFilter,
    AdaptivePilot,
    SafePilot,
    UserSimulator,
    _apply_strictness,
    episode_seed_for,
    make_agent,
    run_attempts,
    run_episode,
    stream_digest,
)
from skybench.episode import (
    A2aTask,
    Episode,
    MAX_ATTEMPTS,
    McpCall,
    ROLE_USER,
    action_to_doc,
    doc_to_episode,
    dumps_canonical,
    dumps_document,
    network_to_doc,
    record_to_line,
    turn_doc,
    validate_episode,
)
from skybench.errors import ParseError
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


def test_streams_are_the_children_of_the_episode_entropy(scenarios, calibration, monkeypatch):
    # The network, physics and tool streams start where the three children
    # spawned from SeedSequence(global seed, episode seed, digest) start.
    made = []
    default_rng = np.random.default_rng

    def recording(seed=None):
        rng = default_rng(seed)
        made.append(rng.bit_generator.state)
        return rng

    monkeypatch.setattr(np.random, "default_rng", recording)
    for scenario in scenarios:
        for index in (0, 112_999):
            made.clear()
            run_attempts(make_agent("safe_pilot", scenario), UserSimulator(), scenario,
                         calibration=calibration, global_seed=7, episode_seed=77, index=index)
            entropy = [7, 77, stream_digest(scenario.scenario_id, "safe_pilot", index)]
            spawned = [default_rng(child).bit_generator.state for child in np.random.SeedSequence(entropy).spawn(3)]
            assert made[:3] == spawned, (scenario.scenario_id, index)


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
    low = scenario._replace(initial_state=scenario.initial_state._replace(battery_pct=9.0))
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
    disallowed role before they are validated, as a faulty policy's output
    would."""
    built = itertools.count()

    def broken(doc, **kwargs):
        if next(built) < failing:
            doc["turns"][3]["role"] = "system"
        return validate_episode(doc, **kwargs)

    monkeypatch.setattr(agents, "validate_episode", broken)


def test_faulty_agent_exhausts_attempts_to_stub(scenario_by_id, calibration, monkeypatch):
    scenario = scenario_by_id["S01"]
    break_documents(monkeypatch)
    record = run_episode(
        make_agent("safe_pilot", scenario), UserSimulator(), scenario,
        calibration=calibration, episode_seed=77, index=0,
    )
    assert record["kind"] == "failure_stub"
    assert record["attempts_used"] == 3
    assert record["error_kind"] == "role_disallowed"
    assert record["model"] == "safe_pilot"
    assert record["seed"] == 77
    assert record["episode_id"] == "S01-safe_pilot-0000"


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
    # generate stores dumps_document of run_attempts' document in place of
    # serializing run_episode's value, so the two must be the same bytes.
    def both(name, scenario, failing, **kwargs):
        made = []
        for run in (run_attempts, run_episode):
            break_documents(monkeypatch, failing)
            made.append(run(make_agent(name, scenario), UserSimulator(), scenario, calibration=calibration, **kwargs))
        return made

    for scenario in scenarios:
        for name in ("adaptive_pilot", "greedy_streamer", "safe_pilot"):
            for failing in (0, 1):
                doc, record = both(name, scenario, failing, index=3)
                assert isinstance(record, Episode)
                assert record.metadata.attempts_used == failing + 1
                assert dumps_document(doc) == record_to_line(record)
    doc, stub = both("safe_pilot", scenarios[0], MAX_ATTEMPTS)
    assert stub == doc and doc["kind"] == "failure_stub"
    assert dumps_document(doc) == record_to_line(stub)


# -- one pass from episode to line ---------------------------------------------

class EchoPilot(AdaptivePilot):
    """On station, sends its peer a task that peers answer by echoing the payload."""

    name = "echo_pilot"
    latency_factor = 1.1234567  # a generation time with more than six digits

    def _on_station_step(self, cite, history):
        peers = self.scenario.swarm.peer_ids()
        synced = any(t.get("observation", {}).get("task") == "formation_sync" for t in history)
        if peers and not synced:
            payload = {"offset_m": (1.25, -0.5, 3.0), "gain": 0.123456789, "mode": ("hold", 2)}
            action = {"protocol": "a2a", "task": "formation_sync", "to": peers[0], "payload": payload}
            return f"{cite}syncing formation with {peers[0]}", action
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
    # run_attempts validates the document it builds, not its line parsed
    # back, and returns it for generate to store; run_episode returns the
    # value built from that document: the three must agree.
    validated = []

    def recording_validate(doc, **kwargs):
        validated.append((doc, copy.deepcopy(doc)))
        return validate_episode(doc, **kwargs)

    real_telemetry = ToolExecutor._tool_read_telemetry

    def tuple_telemetry(self, args, state, network, rng):
        result, state, network = real_telemetry(self, args, state, network, rng)
        result = dict(result, position=tuple(state.kinematics.position), span=((0.1234567, 2), (-1e-7, 3.5)))
        return result, state, network

    monkeypatch.setattr(agents, "validate_episode", recording_validate)
    monkeypatch.setattr(ToolExecutor, "_tool_read_telemetry", tuple_telemetry)
    results = []
    for scenario in scenarios:
        for agent_type in (SafePilot, AdaptivePilot, agents.GreedyStreamer, EchoPilot):
            for index in range(6):
                kwargs = dict(
                    calibration=calibration, episode_seed=episode_seed_for(index, (42, 77, 101, 2025, 1337)), index=index,
                )
                validated[:] = []
                stored = run_attempts(agent_type(scenario), UserSimulator(), scenario, **kwargs)
                line = dumps_document(stored)
                doc, snapshot = validated[-1]
                assert stored is doc
                record = run_episode(agent_type(scenario), UserSimulator(), scenario, **kwargs)
                assert isinstance(record, Episode), (scenario.scenario_id, agent_type.name, index)
                assert _typed(doc) == _typed(snapshot) == _typed(json.loads(line))
                assert record == doc_to_episode(json.loads(line))
                assert record_to_line(record) == line
                assert dumps_canonical(json.loads(line)) == line
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
    assert record["kind"] == "failure_stub"
    assert record["error_kind"] == "internal"


# -- user simulator ------------------------------------------------------------

def test_user_opener_matches_template(scenario_by_id):
    user = UserSimulator()
    turn = turn_doc(ROLE_USER, user.intent(0, scenario_by_id["S01"], False, None), clean_net())
    assert turn["role"] == "user"
    assert "action" not in turn and "observation" not in turn
    assert turn["intent"].startswith("initiate mission and check telemetry")
    assert turn["network"] == network_to_doc(clean_net())
    again = turn_doc(ROLE_USER, user.intent(0, scenario_by_id["S01"], False, None), clean_net())
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


def mcp(name, **args):
    return {"protocol": "mcp", "name": name, "args": args}


def test_filter_permits_only_safe_subset_when_degraded():
    # Typed actions and action documents get the same verdicts, on a
    # NetworkState and on its document.
    cases = [
        (McpCall("switch_network_slice", {"slice": "URLLC"}), True),
        (McpCall("read_telemetry"), True),
        (McpCall("land"), True),
        (None, True),
        (McpCall("capture_image", {"sensor": "RGB"}), False),
        (A2aTask("swarm_status_check", "P1", {}), False),
    ]
    for net in (degraded_net(), network_to_doc(degraded_net())):
        for action, permitted in cases:
            assert FILTER.permits(action, net) is permitted, action
            assert FILTER.permits(action_to_doc(action), net) is permitted, action
    assert FILTER.permits(McpCall("capture_image", {"sensor": "RGB"}), clean_net())
    assert FILTER.permits(mcp("capture_image", sensor="RGB"), clean_net())


def test_strictness_ladder(registry):
    unknown = mcp("warp_drive")
    capture = mcp("capture_image", sensor="RGB")
    telemetry = mcp("read_telemetry")
    a2a = {"protocol": "a2a", "task": "swarm_status_check", "to": "P1", "payload": {}}
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


def test_entropy_words_seed_the_streams_the_entropy_list_seeds():
    # Global seeds of 1 to 65 bits and 0, episode seeds up to 2**32 and
    # 128-bit digests: each of the three streams starts in the same state.
    rng = np.random.default_rng(11)
    for trial in range(2000):
        bits = trial % 66
        global_seed = (1 << bits >> 1) | int.from_bytes(rng.bytes(9), "big") >> (73 - bits) if bits else 0
        episode_seed = int(rng.integers(0, 2**32 + 1))
        digest = int.from_bytes(rng.bytes(16), "big")
        entropy = [global_seed, episode_seed, digest]
        words = agents.entropy_words(entropy)
        for i in range(3):
            want = np.random.SeedSequence(entropy, spawn_key=(i,)).generate_state(4, np.uint64)
            got = np.random.SeedSequence(words, spawn_key=(i,)).generate_state(4, np.uint64)
            assert (got == want).all(), (entropy, i)
    with pytest.raises(ValueError):
        agents.entropy_words([1, -1])


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
    assert record["kind"] == "failure_stub"
    assert record["error_kind"] == "internal"


def test_closing_a_policy_that_ignores_sigterm_kills_and_reaps_it(monkeypatch):
    import os
    import signal
    import sys
    import time

    monkeypatch.setattr(agents, "POLICY_STOP_GRACE_S", 0.2, raising=False)
    # It stays alive after its input closes, and SIGTERM does not stop it.
    policy = (
        "import signal, sys, time\n"
        "signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
        "print('ready', flush=True)\n"
        "sys.stdin.read()\n"
        "time.sleep(30)\n"
    )
    agent = agents.SubprocessPolicy([sys.executable, "-c", policy], name="stubborn")
    proc = agent._process()
    try:
        assert agent._read_line(proc) == b"ready"
        started = time.monotonic()
        agent.close()
        assert time.monotonic() - started < 5
        assert proc.returncode == -signal.SIGKILL
        assert proc.stdin.closed and proc.stdout.closed
        with pytest.raises(ChildProcessError):  # reaped
            os.waitpid(proc.pid, os.WNOHANG)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()


# A reply is read as sent: a value of the wrong type fails the attempt
# instead of being coerced into a valid-looking record.
def _run_constant_policy(reply, scenario, calibration):
    """run_episode of an external policy that answers every request with `reply`."""
    import sys

    from skybench.agents import SubprocessPolicy

    script = f"import sys\nfor line in sys.stdin:\n    print({json.dumps(reply)!r}, flush=True)\n"
    with SubprocessPolicy([sys.executable, "-c", script], name="constant") as agent:
        return run_episode(agent, UserSimulator(), scenario, calibration=calibration, episode_seed=42, index=0)


def test_external_reply_with_a_null_intent_fails_every_attempt(scenario_by_id, calibration):
    # It was stored as the text "None" in a valid episode.
    record = _run_constant_policy({"intent": None, "action": None}, scenario_by_id["S01"], calibration)
    assert record["kind"] == "failure_stub" and record["error_kind"] == "internal"


@pytest.mark.parametrize("action", [0, False, "", [], {}], ids=["zero", "false", "empty_text", "empty_list", "empty_object"])
def test_external_reply_with_a_falsy_non_null_action_fails_every_attempt(scenario_by_id, calibration, action):
    # It was read as no action at all.
    record = _run_constant_policy({"intent": "hold", "action": action}, scenario_by_id["S01"], calibration)
    assert record["kind"] == "failure_stub" and record["error_kind"] == "internal"


def test_external_reply_with_args_as_pairs_fails_every_attempt(scenario_by_id, calibration):
    # The pairs were stored as an object.
    action = {"protocol": "mcp", "name": "set_waypoint", "args": [["x", 1.0], ["y", 2.0], ["z", 50.0]]}
    record = _run_constant_policy({"intent": "go", "action": action}, scenario_by_id["S01"], calibration)
    assert record["kind"] == "failure_stub" and record["error_kind"] == "internal"


# Logs every request line to the file named by its argument, and answers
# with one of each kind of action, then with none.
LOGGING_POLICY = r"""
import json, sys
log = open(sys.argv[1], "a")
for line in sys.stdin:
    log.write(line); log.flush()
    request = json.loads(line)
    n = sum(1 for t in request["history"] if t["role"] == "agent")
    replies = [
        {"protocol": "mcp", "name": "read_telemetry", "args": {}},
        {"protocol": "mcp", "name": "set_waypoint", "args": {"x": 12.3456789, "y": -4.0, "z": 55.5}},
        {"protocol": "a2a", "task": "formation_sync", "to": "P1", "payload": {"gain": 0.123456789, "mode": ["hold", 2]}},
        {"protocol": "mcp", "name": "capture_image", "args": {"sensor": "RGB"}},
        {"protocol": "mcp", "name": "check_geofence", "args": {}},
    ]
    action = replies[n] if n < len(replies) else None
    print(json.dumps({"intent": f"step {n} at {request['state']['battery_pct']}", "action": action}), flush=True)
"""

# sha256 of the request lines an external policy is sent for one built-in
# job, and of the episode's line.
REQUEST_PIN = "f84c92e4e084e25262b8b17bf1e8d4c6ea10cbc23a4d257e2581a5db07690e98"
EPISODE_PIN = "daaeb79379dd2b389e4b4b979bf250bf1fc092ab5b946297d3fb40fec90c17e2"


def test_external_policy_requests_are_pinned(scenario_by_id, calibration, tmp_path):
    import hashlib
    import sys

    from skybench.agents import SubprocessPolicy

    log = tmp_path / "requests.jsonl"
    with SubprocessPolicy([sys.executable, "-c", LOGGING_POLICY, str(log)], name="pinned") as agent:
        doc = run_attempts(agent, UserSimulator(), scenario_by_id["S02"], calibration=calibration, episode_seed=42, index=3)
    requests = log.read_bytes()
    assert len(requests.splitlines()) == 6
    assert hashlib.sha256(requests).hexdigest() == REQUEST_PIN
    assert hashlib.sha256(dumps_document(doc).encode()).hexdigest() == EPISODE_PIN


@pytest.mark.parametrize("reply", [
    [], "hold", {"action": None}, {"intent": 5, "action": None},
    {"intent": "x", "action": {"protocol": "http", "name": "land", "args": {}}},
    {"intent": "x", "action": {"name": "land", "args": {}}},
    {"intent": "x", "action": {"protocol": ["mcp"], "name": "land", "args": {}}},
    {"intent": "x", "action": {"protocol": "mcp", "name": 7, "args": {}}},
    {"intent": "x", "action": {"protocol": "mcp", "name": "land", "args": None}},
    {"intent": "x", "action": {"protocol": "a2a", "task": "sync", "to": None, "payload": {}}},
    {"intent": "x", "action": {"protocol": "a2a", "task": "sync", "to": "P1", "payload": [1]}},
])
def test_read_reply_refuses_what_it_would_have_to_coerce(reply):
    with pytest.raises(ParseError):
        agents._read_reply(reply)


def test_read_reply_keeps_the_action_as_sent():
    args = {"x": 1.5, "y": [1, 2]}
    assert agents._read_reply({"intent": "go", "action": {"protocol": "mcp", "name": "set_waypoint", "args": args}}) == (
        "go", {"protocol": "mcp", "name": "set_waypoint", "args": args},
    )
    # A left-out args or payload is {}, and a field of no protocol is dropped.
    assert agents._read_reply({"intent": "hold"}) == ("hold", None)
    assert agents._read_reply({"intent": "", "action": {"protocol": "mcp", "name": "land", "note": 1}}) == (
        "", {"protocol": "mcp", "name": "land", "args": {}},
    )
    assert agents._read_reply({"intent": "sync", "action": {"protocol": "a2a", "task": "t", "to": "P1"}}) == (
        "sync", {"protocol": "a2a", "task": "t", "to": "P1", "payload": {}},
    )
