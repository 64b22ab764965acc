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
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from .environment import BATTERY_DEPLETED_PCT, evolve_state
from .episode import (
    A2aAck,
    A2aTask,
    Action,
    Episode,
    FailureStub,
    MAX_ATTEMPTS,
    MAX_TURNS,
    MIN_TURNS,
    McpCall,
    McpResult,
    ROLE_AGENT,
    ROLE_USER,
    Turn,
    doc_to_action,
    doc_to_episode,
    dumps_canonical,
    dumps_document,
    episode_to_doc,
    network_to_doc,
    turn_to_doc,
    FinalState,
    EpisodeMetadata,
    format_float,
    loads_json,
    make_failure_stub,
    stub_error_kind,
    validate_episode,
)
from .network import (
    NetworkState,
    SliceCalibration,
    URLLC,
    classify_hard,
    evolve_network,
    sample_network_state,
)
from .errors import ScenarioError
from .scenarios import Scenario
from .tools import ToolExecutor, ToolSpec, default_registry

if TYPE_CHECKING:
    import subprocess

    import numpy as np

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


class AdaptiveActionFilter:
    """Communication-safe action subset enforced under a degraded link."""

    def degraded(self, network: NetworkState) -> bool:
        return classify_hard(network)

    def permits(self, action: Action | None, network: NetworkState) -> bool:
        if action is None or not self.degraded(network):
            return True
        return isinstance(action, McpCall) and action.name in SAFE_TOOLS


@dataclass
class MissionStatus:
    """Progress of one attempt, updated in place turn by turn."""

    arrived: bool = False
    captured: bool = False
    completed: bool = False
    aborted: str | None = None  # None | battery_depleted | network_degraded
    hard_run: int = 0


# ---------------------------------------------------------------------------
# User simulator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UserSimulator:
    """Deterministic supervisor turns; never emits structured actions.

    With ``prompts`` it replays them in order (repeating the last one);
    without, it speaks from mission-aware templates.
    """

    prompts: tuple[str, ...] = ()

    def intent(self, ordinal: int, scenario: Scenario, status: MissionStatus) -> str:
        if self.prompts:
            return self.prompts[min(ordinal, len(self.prompts) - 1)]
        x, y, z = scenario.mission.target
        if ordinal == 0:
            return (
                "initiate mission and check telemetry: "
                f"{scenario.description}; survey point ({x:g}, {y:g}, {z:g})"
            )
        if status.aborted is not None:
            recovery = (
                "abort confirmed; hold position and report status",
                "prepare safe recovery and conserve battery",
            )
            return recovery[ordinal % len(recovery)]
        if status.completed:
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


def simulate_user_turn(
    user: UserSimulator,
    turn_index: int,
    scenario: Scenario,
    status: MissionStatus,
    network: NetworkState,
) -> Turn:
    """Build the supervisor turn for the given dialogue position."""
    intent = user.intent(turn_index // 2, scenario, status)
    return Turn(role=ROLE_USER, intent=intent, action=None, observation=None, network=network)


# ---------------------------------------------------------------------------
# Scripted reference agents
# ---------------------------------------------------------------------------

def _distance(a: Sequence[float], b: Sequence[float]) -> float:
    return math.dist(tuple(a), tuple(b))


def _last_observation_name(history: Sequence[Turn]) -> str | None:
    for turn in reversed(history):
        if isinstance(turn.observation, McpResult):
            return turn.observation.tool
        if isinstance(turn.observation, A2aAck):
            return turn.observation.task
    return None


def _has_result(history: Sequence[Turn], tool: str) -> bool:
    return any(isinstance(t.observation, McpResult) and t.observation.tool == tool for t in history)


def _has_ack(history: Sequence[Turn], task: str) -> bool:
    return any(isinstance(t.observation, A2aAck) and t.observation.task == task for t in history)


def _agent_turns(history: Sequence[Turn]) -> int:
    return sum(1 for t in history if t.role == ROLE_AGENT)


class ScriptedAgent:
    """Common navigation core for the scripted reference policies."""

    name = "scripted"
    latency_factor = 1.0
    prompt_tokens_per_turn = 160
    completion_tokens_per_turn = 240

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario

    # hook: behaviour while the link is hard
    def _hard_response(self, cite: str, network: NetworkState) -> tuple[str, Action | None]:
        if network.slice != URLLC:
            intent = (
                f"{cite}link degraded ({format_float(network.latency_ms)} ms, "
                f"{format_float(network.loss_pct)}% loss) on {network.slice}; switching slice to URLLC"
            )
            return intent, McpCall("switch_network_slice", {"slice": URLLC})
        return f"{cite}link still constrained; monitoring telemetry only", McpCall("read_telemetry")

    # hook: optional step once on station, before capture
    def _on_station_step(self, cite: str, history: Sequence[Turn]) -> tuple[str, Action | None] | None:
        return None

    def next_turn(
        self,
        history: Sequence[Turn],
        state,
        network: NetworkState,
        strictness: int = 0,
    ) -> tuple[str, Action | None]:
        mission = self.scenario.mission
        position = state.kinematics.position
        last = _last_observation_name(history)
        cite = f"{last} confirms status; " if last else ""
        if state.battery_pct < LOW_BATTERY_PCT and not state.command.landing:
            return f"{cite}battery at {format_float(state.battery_pct)}%; landing immediately", McpCall("land")
        if classify_hard(network):
            return self._hard_response(cite, network)
        if not _has_result(history, "read_telemetry"):
            return "running a preflight telemetry sweep before departure", McpCall("read_telemetry")
        target = mission.target
        if state.command.target is None and not state.command.landing:
            x, y, z = (format_float(v) for v in target)
            intent = f"{cite}telemetry nominal; setting waypoint ({x}, {y}, {z})"
            return intent, McpCall("set_waypoint", {"x": target[0], "y": target[1], "z": target[2]})
        distance = _distance(position, target)
        if distance > mission.arrival_tolerance_m and not state.command.landing:
            en_route = f"{cite}en route, {format_float(distance)} m to go"
            if _agent_turns(history) % 2 == 0:
                return f"{en_route}; verifying exclusion-zone clearance", McpCall("check_geofence")
            return f"{en_route}; refreshing telemetry", McpCall("read_telemetry")
        station = self._on_station_step(cite, history)
        if station is not None:
            return station
        if mission.capture_sensor and not _has_result(history, "capture_image"):
            intent = f"{cite}on station at the survey point; capturing {mission.capture_sensor} imagery"
            return intent, McpCall("capture_image", {"sensor": mission.capture_sensor})
        if not state.command.landing:
            return f"{cite}objective complete; landing at the survey point", McpCall("land")
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

    def _hard_response(self, cite: str, network: NetworkState) -> tuple[str, Action | None]:
        if network.slice != URLLC:
            intent = (
                f"{cite}degradation detected ({format_float(network.latency_ms)} ms on {network.slice}); "
                "switching slice to URLLC"
            )
            return intent, McpCall("switch_network_slice", {"slice": URLLC})
        return f"{cite}link still hard; deferring sensing and holding pattern", None

    def _on_station_step(self, cite: str, history: Sequence[Turn]) -> tuple[str, Action | None] | None:
        peers = self.scenario.swarm.peer_ids()
        if peers and not _has_ack(history, "collision_avoidance"):
            peer = peers[0]
            intent = f"{cite}on station; requesting deconfliction from {peer} before sensing"
            return intent, A2aTask("collision_avoidance", peer, {"intent": "hold_at_objective"})
        return None


class GreedyStreamer(ScriptedAgent):
    """Bandwidth-hungry baseline: streams imagery every turn, ignores the network."""

    name = "greedy_streamer"
    latency_factor = 1.6
    prompt_tokens_per_turn = 500
    completion_tokens_per_turn = 2600

    def next_turn(
        self,
        history: Sequence[Turn],
        state,
        network: NetworkState,
        strictness: int = 0,
    ) -> tuple[str, Action | None]:
        segment = _agent_turns(history) + 1
        intent = f"streaming segment {segment}: pushing full-rate imagery to the archive feed"
        return intent, McpCall("capture_image", {"sensor": "RGB"})


class SubprocessPolicy:
    """Line-protocol adapter for out-of-process policies (LLM backends, etc.).

    Each request is one JSON line carrying the full dialogue history, a
    vehicle-state view, the current network vector, and the strictness level;
    the reply must be one JSON line shaped {"intent": str, "action": {...}|null}.
    The child should treat every request as self-contained (history is resent
    each turn) so retries stay deterministic.
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
        history: Sequence[Turn],
        state,
        network: NetworkState,
        strictness: int = 0,
    ) -> tuple[str, Action | None]:
        proc = self._process()
        request = {
            "history": [turn_to_doc(t) for t in history],
            "state": {
                "position": list(state.kinematics.position),
                "speed_mps": state.kinematics.speed,
                "yaw_rad": state.kinematics.yaw,
                "battery_pct": state.battery_pct,
                "sensors": sorted(state.sensors),
                "command": {
                    "target": list(state.command.target) if state.command.target else None,
                    "landing": state.command.landing,
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
        reply = loads_json(self._read_line(proc))
        intent = str(reply["intent"])
        action_doc = reply.get("action")
        action = doc_to_action(action_doc) if action_doc else None
        return intent, action

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
        proc.wait(timeout=5)
        proc.stdout.close()  # type: ignore[union-attr]

    def __enter__(self) -> "SubprocessPolicy":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


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


def episode_seed_for(index: int, seed_set: Sequence[int]) -> int:
    return seed_set[index % len(seed_set)]


def episode_id_for(scenario_id: str, agent_name: str, index: int) -> str:
    """The record id of job (scenario, agent, index), episode or stub alike."""
    return f"{scenario_id}-{agent_name}-{index:04d}"


def _apply_strictness(
    action: Action | None,
    strictness: int,
    registry: Mapping[str, ToolSpec],
) -> Action | None:
    if action is None or strictness <= 0:
        return action
    if isinstance(action, McpCall) and action.name not in registry:
        return None
    if strictness >= 2:
        if isinstance(action, A2aTask):
            return None
        if isinstance(action, McpCall) and action.name not in SAFE_TOOLS:
            return None
    return action


def _action_class(action: Action | None, registry: Mapping[str, ToolSpec]) -> str:
    if isinstance(action, McpCall):
        spec = registry.get(action.name)
        return spec.action_class if spec is not None else "transmit"
    if isinstance(action, A2aTask):
        return "transmit"
    return "hover"


def _token_usage(agent, turns: Sequence[Turn]) -> tuple[int, int]:
    prompt = 120 + len(turns) * agent.prompt_tokens_per_turn
    completion = sum(
        agent.completion_tokens_per_turn + len(t.intent) // 4 for t in turns if t.role == ROLE_AGENT
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
    on_accept: Callable[[str], None] | None = None,
) -> Episode | FailureStub:
    """Generate one episode with up to MAX_ATTEMPTS validation-gated attempts.

    Retries re-run the same seeded streams under a stricter action regime
    (1: registry-known tools only, 2: adaptive subset only).  The recorded
    generation time spans every attempt; after the final failure a stub
    carrying the terminal error kind is returned.  An exception the agent
    raises fails its attempt; any other propagates.  ``on_accept``, when given,
    receives the canonical JSON line of the accepted episode: the exact bytes
    that were validated, ready to be stored.
    """
    import numpy as np

    registry = dict(registry) if registry is not None else default_registry()
    episode_id = episode_id_for(scenario.scenario_id, agent.name, index)
    root = np.random.SeedSequence([global_seed, episode_seed, stream_digest(scenario.scenario_id, agent.name, index)])
    children = root.spawn(3)

    gen_time = 0.0
    prompt_tokens = 0
    completion_tokens = 0
    last_report = None
    for attempt in range(1, MAX_ATTEMPTS + 1):
        strictness = attempt - 1
        attempt_result = _run_attempt(agent, user, scenario, calibration, registry, children, strictness)
        if attempt_result is None:
            gen_time += GEN_BASE_S
            last_report = None
            continue
        turns, final_state = attempt_result
        gen_time += GEN_BASE_S + GEN_PER_TURN_S * len(turns) * agent.latency_factor
        p_tokens, c_tokens = _token_usage(agent, turns)
        prompt_tokens += p_tokens
        completion_tokens += c_tokens
        metadata = EpisodeMetadata(
            model=agent.name,
            seed=episode_seed,
            scenario_id=scenario.scenario_id,
            gen_time_s=gen_time,
            attempts_used=attempt,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            total_tokens=prompt_tokens + completion_tokens,
            timestamp=timestamp,
        )
        episode = Episode(episode_id=episode_id, metadata=metadata, turns=tuple(turns), final_state=final_state)
        # The document is canonical as built: it equals its stored line
        # parsed back, so the line, the validation and the returned value
        # all come from it.
        doc = episode_to_doc(episode)
        report = validate_episode(doc)
        if report.valid:
            if on_accept is not None:
                on_accept(dumps_document(doc))
            return doc_to_episode(doc)
        last_report = report
    error_kind = stub_error_kind(last_report) if last_report is not None else "internal"
    return make_failure_stub(episode_id, scenario.scenario_id, agent.name, episode_seed, error_kind, timestamp=timestamp)


def _run_attempt(
    agent,
    user: UserSimulator,
    scenario: Scenario,
    calibration: SliceCalibration,
    registry: Mapping[str, ToolSpec],
    children: Sequence[np.random.SeedSequence],
    strictness: int,
) -> tuple[list[Turn], FinalState] | None:
    """The turns and final state of one attempt, or None when the agent
    failed a turn.  Any other exception is a fault of the simulator and
    propagates."""
    import numpy as np

    net_rng = np.random.default_rng(children[0])
    phys_rng = np.random.default_rng(children[1])
    tool_rng = np.random.default_rng(children[2])
    calib = calibration
    if scenario.slice_switch_prob is not None:
        calib = replace(calibration, slice_switch_prob=scenario.slice_switch_prob)
    executor = ToolExecutor(registry, calib, scenario.airspace, scenario.params, scenario.swarm)

    state = scenario.initial_state
    if state.battery_pct < BATTERY_DEPLETED_PCT:
        state = replace(state, flags=replace(state.flags, battery_depleted=True))
    network = sample_network_state(scenario.initial_slice, calib, net_rng)
    status = MissionStatus()
    turns: list[Turn] = []

    while True:
        user_turn = simulate_user_turn(user, len(turns), scenario, status, network)
        turns.append(user_turn)
        status.hard_run = status.hard_run + 1 if classify_hard(network) else 0
        network = evolve_network(network, calib, net_rng)

        try:
            intent, action = agent.next_turn(tuple(turns), state, network, strictness)
        except Exception:  # a policy error or an external child's bad reply
            return None
        action = _apply_strictness(action, strictness, registry)
        observation = None
        post_network = network
        if isinstance(action, McpCall):
            observation, state, post_network = executor.execute_mcp(action, state, network, tool_rng)
        elif isinstance(action, A2aTask):
            observation = executor.execute_a2a(action, network, tool_rng, turn_index=len(turns) // 2)
        turns.append(Turn(role=ROLE_AGENT, intent=intent, action=action, observation=observation, network=network))
        status.hard_run = status.hard_run + 1 if classify_hard(network) else 0

        # Only a capture the tool carried out counts; a rejected call does not.
        if (
            isinstance(action, McpCall)
            and action.name == "capture_image"
            and observation.result.get("status") in ("captured", "captured_cold")
            and status.arrived
        ):
            status.captured = True

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

        if not status.arrived and _distance(state.kinematics.position, scenario.mission.target) <= scenario.mission.arrival_tolerance_m:
            status.arrived = True
        if status.aborted is None:
            if status.arrived and (status.captured or scenario.mission.capture_sensor is None):
                status.completed = True
        if status.aborted is None and not status.completed:
            if state.battery_pct <= 0.0:
                status.aborted = "battery_depleted"
            elif status.hard_run >= DEGRADED_TERMINATION_RUN:
                status.aborted = "network_degraded"

        n_turns = len(turns)
        if n_turns >= MAX_TURNS:
            break
        if n_turns >= MIN_TURNS and (status.completed or status.aborted is not None):
            break

    k = state.kinematics
    final_state = FinalState(
        position=k.position,
        velocity=k.speed,
        yaw=k.yaw,
        battery=state.battery_pct,
        mission_completed=status.completed,
        altitude_violation=state.flags.altitude_violation,
        nfz_violation=state.flags.nfz_violation,
        separation_breach=state.flags.separation_breach,
        battery_depleted=state.flags.battery_depleted,
    )
    return turns, final_state
