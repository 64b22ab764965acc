"""Agent policies, the simulated supervisor, and the retrying episode loop.

Scripted reference agents stand in for LLM policies at desk scale: they are
deterministic functions of (dialogue history, vehicle state, network vector,
strictness level).  The episode loop owns all mutable state, derives every
random stream from the configured seeds, and converts agent misbehaviour into
validation outcomes rather than crashes.
"""

from __future__ import annotations

import math
import os
import time
from typing import TYPE_CHECKING, Any, Mapping, NamedTuple, Sequence

from .environment import BATTERY_DEPLETED_PCT, evolve_state
from .episode import (
    MAX_ATTEMPTS,
    MAX_TURNS,
    MIN_TURNS,
    ROLE_AGENT,
    ROLE_USER,
    action_to_doc,
    canonical_float,
    canonical_value,
    doc_to_episode,
    dumps_canonical,
    failure_stub,
    format_float,
    loads_json,
    network_to_doc,
    stub_error_kind,
    turn_doc,
    validate_episode,
)
from .network import (
    SliceCalibration,
    URLLC,
    classify_hard,
    evolve_network,
    sample_network_state,
)
from .errors import ParseError, ScenarioError
from .scenarios import Scenario
from .tools import ToolExecutor, ToolSpec, default_registry

if TYPE_CHECKING:
    import subprocess

    import numpy as np

    import numpy as np

    from .episode import Action, Episode
    from .network import NetworkState

# A turn's document, as turn_doc builds it, and an action's document, as a
# policy returns it: {"protocol": "mcp", "name", "args"} or
# {"protocol": "a2a", "task", "to", "payload"}.
TurnDoc = dict[str, Any]
ActionDoc = dict[str, Any]

EPOCH_TIMESTAMP = "1970-01-01T00:00:00Z"

# Consecutive hard turns after which an incomplete mission is aborted.
DEGRADED_TERMINATION_RUN = 4

# Tools an agent may call while the link is degraded (and, at strictness 2,
# the only tools it may call at all).
SAFE_TOOLS = frozenset({"switch_network_slice", "read_telemetry", "land", "hover"})

# Battery percentage below which a scripted agent lands at once.
LOW_BATTERY_PCT = 10.0

# Simulation step per dialogue exchange, in seconds.
STEP_DT_S = 1.0

# Synthetic generation time per attempt, so efficiency metrics are
# deterministic and non-degenerate for scripted agents.
GEN_BASE_S = 0.6
GEN_PER_TURN_S = 0.25

# Seconds an external policy has to answer one request; past it the attempt
# fails and the child is stopped.
POLICY_TURN_TIMEOUT_S = 60.0
# Seconds a stopped external policy has to exit after SIGTERM; past it the
# child is killed.
POLICY_STOP_GRACE_S = 5.0


class AdaptiveActionFilter:
    """Communication-safe action subset enforced under a degraded link."""

    def degraded(self, network: NetworkState | Mapping[str, Any]) -> bool:
        return classify_hard(network)

    def permits(self, action: ActionDoc | Action | None, network: NetworkState | Mapping[str, Any]) -> bool:
        """Whether the action, a document or a typed value, may be sent on
        the network, a NetworkState or its document."""
        if action is None or not self.degraded(network):
            return True
        doc = action if isinstance(action, Mapping) else action_to_doc(action)
        return doc["protocol"] == "mcp" and doc["name"] in SAFE_TOOLS


# ---------------------------------------------------------------------------
# User simulator
# ---------------------------------------------------------------------------

class UserSimulator(NamedTuple):
    """Deterministic supervisor turns; never emits structured actions.

    With ``prompts`` it replays them in order (repeating the last one);
    without, it speaks from mission-aware templates.
    """

    prompts: tuple[str, ...] = ()

    def intent(self, ordinal: int, scenario: Scenario, completed: bool, aborted: str | None) -> str:
        """The supervisor's intent at its ordinal-th turn, given whether the
        mission is completed and why it was aborted (None: it was not)."""
        if self.prompts:
            return self.prompts[min(ordinal, len(self.prompts) - 1)]
        x, y, z = scenario.target
        if ordinal == 0:
            return (
                "initiate mission and check telemetry: "
                f"{scenario.description}; survey point ({x:g}, {y:g}, {z:g})"
            )
        if aborted is not None:
            recovery = (
                "abort confirmed; hold position and report status",
                "prepare safe recovery and conserve battery",
            )
            return recovery[ordinal % len(recovery)]
        if completed:
            wrap = (
                "confirm mission results and verify the final state",
                "acknowledge completion; archive the mission log and stand by",
            )
            return wrap[ordinal % len(wrap)]
        if ordinal == 1:
            return f"proceed to the survey point at ({x:g}, {y:g}, {z:g}) and report progress"
        progress = (
            "report mission status and link quality",
            "continue toward the objective and confirm clearance",
            "verify sensor readiness and network conditions",
        )
        return progress[ordinal % len(progress)]


# ---------------------------------------------------------------------------
# Scripted reference agents
#
# A policy's next_turn(history, state, network, strictness) reads the turn
# documents so far, which it must not change, and returns its intent and an
# action document or None.
# ---------------------------------------------------------------------------

def _distance(a: Sequence[float], b: Sequence[float]) -> float:
    return math.dist(tuple(a), tuple(b))


def _mcp(name: str, **args: Any) -> ActionDoc:
    return {"protocol": "mcp", "name": name, "args": args}


def _last_observation_name(history: Sequence[TurnDoc]) -> str | None:
    for turn in reversed(history):
        obs = turn.get("observation")
        if obs is not None:
            return obs["tool"] if "tool" in obs else obs["task"]
    return None


def _has_result(history: Sequence[TurnDoc], tool: str) -> bool:
    return any(t.get("observation", {}).get("tool") == tool for t in history)


def _has_ack(history: Sequence[TurnDoc], task: str) -> bool:
    return any(t.get("observation", {}).get("task") == task for t in history)


def _agent_turns(history: Sequence[TurnDoc]) -> int:
    return sum(1 for t in history if t["role"] == ROLE_AGENT)


class ScriptedAgent:
    """Common navigation core for the scripted reference policies."""

    name = "scripted"
    latency_factor = 1.0
    prompt_tokens_per_turn = 160
    completion_tokens_per_turn = 240

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario

    # hook: behaviour while the link is hard
    def _hard_response(self, cite: str, network: NetworkState) -> tuple[str, ActionDoc | None]:
        if network.slice != URLLC:
            intent = (
                f"{cite}link degraded ({format_float(network.latency_ms)} ms, "
                f"{format_float(network.loss_pct)}% loss) on {network.slice}; switching slice to URLLC"
            )
            return intent, _mcp("switch_network_slice", slice=URLLC)
        return f"{cite}link still constrained; monitoring telemetry only", _mcp("read_telemetry")

    # hook: optional step once on station, before capture
    def _on_station_step(self, cite: str, history: Sequence[TurnDoc]) -> tuple[str, ActionDoc | None] | None:
        return None

    def next_turn(
        self,
        history: Sequence[TurnDoc],
        state,
        network: NetworkState,
        strictness: int = 0,
    ) -> tuple[str, ActionDoc | None]:
        scenario = self.scenario
        position = state.kinematics.position
        last = _last_observation_name(history)
        cite = f"{last} confirms status; " if last else ""
        if state.battery_pct < LOW_BATTERY_PCT and not state.landing:
            return f"{cite}battery at {format_float(state.battery_pct)}%; landing immediately", _mcp("land")
        if classify_hard(network):
            return self._hard_response(cite, network)
        if not _has_result(history, "read_telemetry"):
            return "running a preflight telemetry sweep before departure", _mcp("read_telemetry")
        target = scenario.target
        if state.target is None and not state.landing:
            x, y, z = (format_float(v) for v in target)
            intent = f"{cite}telemetry nominal; setting waypoint ({x}, {y}, {z})"
            return intent, _mcp("set_waypoint", x=target[0], y=target[1], z=target[2])
        distance = _distance(position, target)
        if distance > scenario.arrival_tolerance_m and not state.landing:
            en_route = f"{cite}en route, {format_float(distance)} m to go"
            if _agent_turns(history) % 2 == 0:
                return f"{en_route}; verifying exclusion-zone clearance", _mcp("check_geofence")
            return f"{en_route}; refreshing telemetry", _mcp("read_telemetry")
        station = self._on_station_step(cite, history)
        if station is not None:
            return station
        if scenario.capture_sensor and not _has_result(history, "capture_image"):
            intent = f"{cite}on station at the survey point; capturing {scenario.capture_sensor} imagery"
            return intent, _mcp("capture_image", sensor=scenario.capture_sensor)
        if not state.landing:
            return f"{cite}objective complete; landing at the survey point", _mcp("land")
        return f"{cite}holding on the pad; mission wrapped up", None


class SafePilot(ScriptedAgent):
    """Telemetry-first navigator that respects the adaptive action subset."""

    name = "safe_pilot"


class AdaptivePilot(ScriptedAgent):
    """Network-first variant: switches to URLLC and defers everything else
    while the link is hard; coordinates with peers once on station."""

    name = "adaptive_pilot"
    latency_factor = 1.2
    prompt_tokens_per_turn = 180
    completion_tokens_per_turn = 320

    def _hard_response(self, cite: str, network: NetworkState) -> tuple[str, ActionDoc | None]:
        if network.slice != URLLC:
            intent = (
                f"{cite}degradation detected ({format_float(network.latency_ms)} ms on {network.slice}); "
                "switching slice to URLLC"
            )
            return intent, _mcp("switch_network_slice", slice=URLLC)
        return f"{cite}link still hard; deferring sensing and holding pattern", None

    def _on_station_step(self, cite: str, history: Sequence[TurnDoc]) -> tuple[str, ActionDoc | None] | None:
        peers = self.scenario.swarm.peer_ids()
        if peers and not _has_ack(history, "collision_avoidance"):
            peer = peers[0]
            intent = f"{cite}on station; requesting deconfliction from {peer} before sensing"
            payload = {"intent": "hold_at_objective"}
            return intent, {"protocol": "a2a", "task": "collision_avoidance", "to": peer, "payload": payload}
        return None


class GreedyStreamer(ScriptedAgent):
    """Bandwidth-hungry baseline: streams imagery every turn, ignores the network."""

    name = "greedy_streamer"
    latency_factor = 1.6
    prompt_tokens_per_turn = 500
    completion_tokens_per_turn = 2600

    def next_turn(
        self,
        history: Sequence[TurnDoc],
        state,
        network: NetworkState,
        strictness: int = 0,
    ) -> tuple[str, ActionDoc | None]:
        segment = _agent_turns(history) + 1
        intent = f"streaming segment {segment}: pushing full-rate imagery to the archive feed"
        return intent, _mcp("capture_image", sensor="RGB")


class SubprocessPolicy:
    """Line-protocol adapter for out-of-process policies (LLM backends, etc.).

    Each request is one JSON line carrying the full dialogue history (the
    turn documents as the record holds them), a vehicle-state view, the
    current network vector, and the strictness level; the reply must be one
    JSON line shaped {"intent": str, "action": {...}|null}, read as
    _read_reply reads it.  The child should treat every request as
    self-contained (history is resent each turn) so retries stay
    deterministic.
    """

    latency_factor = 1.0
    prompt_tokens_per_turn = 160
    completion_tokens_per_turn = 240

    def __init__(self, command: Sequence[str], name: str = "external") -> None:
        self.command = tuple(command)
        self.name = name
        self._proc: subprocess.Popen | None = None
        self._pending = b""  # reply bytes read past the last full line

    def _process(self) -> subprocess.Popen:
        if self._proc is None or self._proc.poll() is not None:
            import subprocess

            self.close()
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        return self._proc

    def next_turn(
        self,
        history: Sequence[TurnDoc],
        state,
        network: NetworkState,
        strictness: int = 0,
    ) -> tuple[str, ActionDoc | None]:
        proc = self._process()
        request = {
            "history": history,
            "state": {
                "position": list(state.kinematics.position),
                "speed_mps": state.kinematics.speed,
                "yaw_rad": state.kinematics.yaw,
                "battery_pct": state.battery_pct,
                "sensors": sorted(state.sensors),
                "command": {
                    "target": list(state.target) if state.target else None,
                    "landing": state.landing,
                },
            },
            "network": network_to_doc(network),
            "strictness": strictness,
        }
        assert proc.stdin is not None and proc.stdout is not None
        proc.stdin.write(dumps_canonical(request) + "\n")
        proc.stdin.flush()
        # A record holds the action as sent, so the reply is read as strictly
        # as a corpus line; a ParseError fails the attempt.
        return _read_reply(loads_json(self._read_line(proc)))

    def _read_line(self, proc: subprocess.Popen) -> bytes:
        """The child's next reply line, due within POLICY_TURN_TIMEOUT_S.

        Bytes come straight from the pipe's descriptor, never through
        proc.stdout, whose buffer the selector could not see.
        """
        import selectors

        fd = proc.stdout.fileno()  # type: ignore[union-attr]
        deadline = time.monotonic() + POLICY_TURN_TIMEOUT_S
        with selectors.DefaultSelector() as selector:
            selector.register(fd, selectors.EVENT_READ)
            while b"\n" not in self._pending:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    # A late reply must not answer the next request.
                    self.close()
                    raise ScenarioError(f"external policy {self.name!r} sent no reply within {POLICY_TURN_TIMEOUT_S} s")
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise ScenarioError(f"external policy {self.name!r} closed its output")
                self._pending += chunk
        line, _, self._pending = self._pending.partition(b"\n")
        return line

    def close(self) -> None:
        """Stop the child and close both pipes, whether or not it still runs."""
        proc, self._proc = self._proc, None
        self._pending = b""
        if proc is None:
            return
        try:
            proc.stdin.close()  # type: ignore[union-attr]
        except BrokenPipeError:  # output left unflushed for a child that has gone
            pass
        if proc.poll() is None:
            proc.terminate()
        import subprocess

        try:
            proc.wait(timeout=POLICY_STOP_GRACE_S)
        except subprocess.TimeoutExpired:  # a child that ignores SIGTERM
            proc.kill()
            proc.wait()
        proc.stdout.close()  # type: ignore[union-attr]

    def __enter__(self) -> "SubprocessPolicy":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# The fields of each action protocol that a reply must give as strings, and
# the one it may give as an object (left out, it is {}).
_REPLY_FORMS = {"mcp": (("name",), "args"), "a2a": (("task", "to"), "payload")}


def _read_reply(reply: Any) -> tuple[str, ActionDoc | None]:
    """The intent and action document of an external policy's reply.

    Nothing is coerced: the intent must be a string, and the action null,
    left out, or an mcp or a2a object whose names are strings and whose
    args or payload is an object.  Raises ParseError otherwise.  Fields of
    no protocol are dropped.
    """
    if not isinstance(reply, dict) or not isinstance(reply.get("intent"), str):
        raise ParseError(f"a policy reply must be an object whose intent is a string, got {reply!r}")
    action = reply.get("action")
    if action is None:
        return reply["intent"], None
    protocol = action.get("protocol") if isinstance(action, dict) else None
    if protocol not in ("mcp", "a2a"):
        raise ParseError(f"a reply's action must be null or an mcp or a2a object, got {action!r}")
    names, part = _REPLY_FORMS[protocol]
    doc = {"protocol": protocol}
    for name in names:
        if not isinstance(action.get(name), str):
            raise ParseError(f"a reply's {protocol} action needs a string {name}, got {action!r}")
        doc[name] = action[name]
    doc[part] = action.get(part, {})
    if not isinstance(doc[part], dict):
        raise ParseError(f"a reply's {protocol} {part} must be an object, got {action!r}")
    return reply["intent"], doc


AGENT_TYPES: dict[str, type[ScriptedAgent]] = {
    SafePilot.name: SafePilot,
    AdaptivePilot.name: AdaptivePilot,
    GreedyStreamer.name: GreedyStreamer,
}


def make_agent(name: str, scenario: Scenario) -> ScriptedAgent:
    try:
        return AGENT_TYPES[name](scenario)
    except KeyError:
        raise ValueError(f"unknown agent {name!r}; known: {sorted(AGENT_TYPES)}") from None


# ---------------------------------------------------------------------------
# Episode loop
# ---------------------------------------------------------------------------

def stream_digest(scenario_id: str, agent_name: str, index: int) -> int:
    import hashlib

    raw = hashlib.sha256(f"{scenario_id}|{agent_name}|{index}".encode("utf-8")).digest()
    return int.from_bytes(raw[:16], "big")


def entropy_words(values: Sequence[int]) -> np.ndarray:
    """The uint32 array SeedSequence makes of the entropy list `values`: each
    int's 32-bit words, low word first (one word for 0).  Given the array,
    SeedSequence skips its own, slower, conversion."""
    import numpy as np

    words = []
    for value in values:
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & 0xFFFFFFFF)
        while value := value >> 32:
            words.append(value & 0xFFFFFFFF)
    return np.array(words, dtype=np.uint32)


def episode_seed_for(index: int, seed_set: Sequence[int]) -> int:
    return seed_set[index % len(seed_set)]


def episode_id_for(scenario_id: str, agent_name: str, index: int) -> str:
    """The record id of job (scenario, agent, index), episode or stub alike."""
    return f"{scenario_id}-{agent_name}-{index:04d}"


def _apply_strictness(
    action: ActionDoc | None,
    strictness: int,
    registry: Mapping[str, ToolSpec],
) -> ActionDoc | None:
    if action is None or strictness <= 0:
        return action
    mcp = action["protocol"] == "mcp"
    if mcp and action["name"] not in registry:
        return None
    if strictness >= 2 and not (mcp and action["name"] in SAFE_TOOLS):
        return None
    return action


def _action_class(action: ActionDoc | None, registry: Mapping[str, ToolSpec]) -> str:
    if action is None:
        return "hover"
    if action["protocol"] == "mcp":
        spec = registry.get(action["name"])
        return spec.action_class if spec is not None else "transmit"
    return "transmit"


def _token_usage(agent, turns: Sequence[TurnDoc]) -> tuple[int, int]:
    prompt = 120 + len(turns) * agent.prompt_tokens_per_turn
    completion = sum(
        agent.completion_tokens_per_turn + len(t["intent"]) // 4 for t in turns if t["role"] == ROLE_AGENT
    )
    return prompt, completion


def run_episode(
    agent,
    user: UserSimulator,
    scenario: Scenario,
    *,
    calibration: SliceCalibration,
    registry: Mapping[str, ToolSpec] | None = None,
    global_seed: int = 42,
    episode_seed: int = 42,
    index: int = 0,
    timestamp: str = EPOCH_TIMESTAMP,
) -> Episode | dict[str, Any]:
    """Generate one episode with up to MAX_ATTEMPTS validation-gated attempts.

    Retries re-run the same seeded streams under a stricter action regime
    (1: registry-known tools only, 2: adaptive subset only).  The recorded
    generation time spans every attempt; after the final failure the
    document of a stub carrying the terminal error kind is returned.  An
    exception the agent raises fails its attempt; any other propagates.  The
    value is run_attempts' document, or the Episode built from it, so it is
    the record of the stored line.
    """
    doc = run_attempts(
        agent, user, scenario, calibration=calibration, registry=registry,
        global_seed=global_seed, episode_seed=episode_seed, index=index, timestamp=timestamp,
    )
    return doc if doc.get("kind") == "failure_stub" else doc_to_episode(doc)


def run_attempts(
    agent,
    user: UserSimulator,
    scenario: Scenario,
    *,
    calibration: SliceCalibration,
    registry: Mapping[str, ToolSpec] | None = None,
    global_seed: int = 42,
    episode_seed: int = 42,
    index: int = 0,
    timestamp: str = EPOCH_TIMESTAMP,
) -> dict[str, Any]:
    """run_episode's attempt loop: the record's document, which is the
    validated document of the accepted episode or the failure stub's.  Each
    attempt builds its document as it runs, canonical as built, so
    dumps_document gives its stored line; generate stores that line and
    builds no record."""
    import numpy as np

    calib = calibration
    if scenario.slice_switch_prob is not None:
        calib = calibration._replace(slice_switch_prob=scenario.slice_switch_prob)
    registry = default_registry() if registry is None else registry
    executor = ToolExecutor(registry, calib, scenario.airspace, scenario.swarm)
    episode_id = episode_id_for(scenario.scenario_id, agent.name, index)
    # Exactly SeedSequence(entropy).spawn(3), without mixing the parent's
    # pool, which no stream draws from.
    entropy = entropy_words([global_seed, episode_seed, stream_digest(scenario.scenario_id, agent.name, index)])
    children = [np.random.SeedSequence(entropy, spawn_key=(i,)) for i in range(3)]

    gen_time = 0.0
    prompt_tokens = 0
    completion_tokens = 0
    last_report = None
    for attempt in range(1, MAX_ATTEMPTS + 1):
        strictness = attempt - 1
        attempt_result = _run_attempt(agent, user, scenario, calib, executor, children, strictness)
        if attempt_result is None:
            gen_time += GEN_BASE_S
            last_report = None
            continue
        turns, final_state = attempt_result
        gen_time += GEN_BASE_S + GEN_PER_TURN_S * len(turns) * agent.latency_factor
        p_tokens, c_tokens = _token_usage(agent, turns)
        prompt_tokens += p_tokens
        completion_tokens += c_tokens
        doc = {
            "episode_id": episode_id,
            "metadata": {
                "model": agent.name,
                "seed": episode_seed,
                "scenario_id": scenario.scenario_id,
                "gen_time_s": canonical_float(gen_time),
                "attempts_used": attempt,
                "prompt_tokens": prompt_tokens,
                "completion_tokens": completion_tokens,
                "total_tokens": prompt_tokens + completion_tokens,
                "timestamp": timestamp,
            },
            "turns": turns,
            "final_state": final_state,
        }
        # The document is canonical as built: it equals its stored line
        # parsed back, so the line and the validation both come from it.
        report = validate_episode(doc)
        if report.valid:
            return doc
        last_report = report
    error_kind = stub_error_kind(last_report) if last_report is not None else "internal"
    return failure_stub(episode_id, scenario.scenario_id, agent.name, episode_seed, error_kind, timestamp=timestamp)


def _run_attempt(
    agent,
    user: UserSimulator,
    scenario: Scenario,
    calib: SliceCalibration,
    executor: ToolExecutor,
    children: Sequence[np.random.SeedSequence],
    strictness: int,
) -> tuple[list[TurnDoc], dict[str, Any]] | None:
    """The turn documents and final-state document of one attempt, or None
    when the agent failed a turn.  Any other exception is a fault of the
    simulator and propagates."""
    import numpy as np

    net_rng = np.random.default_rng(children[0])
    phys_rng = np.random.default_rng(children[1])
    tool_rng = np.random.default_rng(children[2])
    registry = executor.registry

    state = scenario.initial_state
    if state.battery_pct < BATTERY_DEPLETED_PCT:
        state = state._replace(flags=state.flags._replace(battery_depleted=True))
    network = sample_network_state(scenario.initial_slice, calib, net_rng)
    arrived = captured = completed = False
    aborted = None  # None | battery_depleted | network_degraded
    hard_run = 0
    turns: list[TurnDoc] = []

    while True:
        turns.append(turn_doc(ROLE_USER, user.intent(len(turns) // 2, scenario, completed, aborted), network))
        hard_run = hard_run + 1 if classify_hard(network) else 0
        network = evolve_network(network, calib, net_rng)

        try:
            intent, action = agent.next_turn(turns, state, network, strictness)
        except Exception:  # a policy error or an external child's bad reply
            return None
        action = _apply_strictness(action, strictness, registry)
        observation = None
        post_network = network
        if action is not None and action["protocol"] == "mcp":
            observation, state, post_network = executor.execute_mcp(action, state, network, tool_rng)
            # Only a capture the tool carried out counts; a rejected call does not.
            if (
                action["name"] == "capture_image"
                and observation["result"].get("status") in ("captured", "captured_cold")
                and arrived
            ):
                captured = True
        elif action is not None:
            observation = executor.execute_a2a(action, network, tool_rng, turn_index=len(turns) // 2)
        turns.append(turn_doc(ROLE_AGENT, intent, network, action, observation))
        hard_run = hard_run + 1 if classify_hard(network) else 0

        step_index = len(turns) // 2 - 1
        state = evolve_state(
            state,
            scenario.airspace,
            scenario.params,
            scenario.disturbance,
            phys_rng,
            STEP_DT_S,
            action_class=_action_class(action, registry),
            peer_positions=scenario.swarm.positions_at(step_index),
        )
        network = evolve_network(post_network, calib, net_rng)

        if not arrived and _distance(state.kinematics.position, scenario.target) <= scenario.arrival_tolerance_m:
            arrived = True
        if aborted is None:
            if arrived and (captured or scenario.capture_sensor is None):
                completed = True
        if aborted is None and not completed:
            if state.battery_pct <= 0.0:
                aborted = "battery_depleted"
            elif hard_run >= DEGRADED_TERMINATION_RUN:
                aborted = "network_degraded"

        n_turns = len(turns)
        if n_turns >= MAX_TURNS:
            break
        if n_turns >= MIN_TURNS and (completed or aborted is not None):
            break

    k, flags = state.kinematics, state.flags
    final_state = canonical_value({
        "position": k.position,
        "velocity": k.speed,
        "yaw": k.yaw,
        "battery": state.battery_pct,
        "mission_completed": completed,
        "altitude_violation": flags.altitude_violation,
        "nfz_violation": flags.nfz_violation,
        "separation_breach": flags.separation_breach,
        "battery_depleted": flags.battery_depleted,
    })
    return turns, final_state
