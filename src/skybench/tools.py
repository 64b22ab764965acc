"""MCP tool and A2A task execution against the simulated vehicle and network.

Every registered tool has explicit operational semantics: what it reads, what
it mutates, which battery class it burns, and the shape of the observation it
returns.  Unknown tools and bad arguments degrade the observation instead of
failing the episode; tool-consistency scoring is the penalty channel.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from .environment import (
    ACTION_CLASSES,
    Airspace,
    NavCommand,
    SENSOR_TYPES,
    UavState,
    VehicleParams,
    check_geofence,
)
from .episode import A2aAck, A2aTask, Action, McpCall, McpResult, Observation, action_to_doc, observation_to_doc
from .errors import ParseError
from .network import NetworkState, SLICES, SliceCalibration, classify_hard, sample_network_state

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class ArgSpec:
    """One argument of a tool: its name, JSON type, whether required, and allowed values."""

    name: str
    kind: str  # number | integer | string | boolean
    required: bool = True
    choices: tuple[str, ...] | None = None


@dataclass(frozen=True)
class ToolSpec:
    """A tool an agent may call: its name, battery class and arguments."""

    name: str
    action_class: str  # battery class, one of environment.ACTION_CLASSES
    args: tuple[ArgSpec, ...] = ()


DEFAULT_TOOLS: tuple[ToolSpec, ...] = (
    ToolSpec("read_telemetry", "transmit"),
    ToolSpec(
        "set_waypoint",
        "maneuver",
        (ArgSpec("x", "number"), ArgSpec("y", "number"), ArgSpec("z", "number")),
    ),
    ToolSpec(
        "navigate_to",
        "maneuver",
        (ArgSpec("x", "number"), ArgSpec("y", "number"), ArgSpec("z", "number")),
    ),
    ToolSpec("set_altitude", "maneuver", (ArgSpec("z", "number"),)),
    ToolSpec(
        "activate_sensor",
        "sense",
        (ArgSpec("sensor", "string", choices=tuple(sorted(SENSOR_TYPES))),),
    ),
    ToolSpec(
        "capture_image",
        "sense",
        (ArgSpec("sensor", "string", required=False, choices=tuple(sorted(SENSOR_TYPES))),),
    ),
    ToolSpec(
        "switch_network_slice",
        "transmit",
        (ArgSpec("slice", "string", choices=SLICES),),
    ),
    ToolSpec("check_geofence", "transmit"),
    ToolSpec("execute_maneuver", "maneuver", (ArgSpec("maneuver", "string"),)),
    ToolSpec("land", "maneuver"),
    ToolSpec("hover", "hover"),
)


def default_registry() -> dict[str, ToolSpec]:
    return {spec.name: spec for spec in DEFAULT_TOOLS}


def load_registry_extension(doc: Mapping[str, Any] | Sequence[Mapping[str, Any]]) -> dict[str, ToolSpec]:
    """Parse extra tool specs from a registry-extension document."""
    entries = doc.get("tools", []) if isinstance(doc, Mapping) else doc
    registry = default_registry()
    for entry in entries:
        if not isinstance(entry, Mapping):
            raise ParseError(f"tool registry entry must be an object, got {entry!r}")
        try:
            args = tuple(
                ArgSpec(
                    name=str(a["name"]),
                    kind=str(a.get("kind", "string")),
                    required=bool(a.get("required", True)),
                    choices=tuple(a["choices"]) if "choices" in a else None,
                )
                for a in entry.get("args", [])
            )
            spec = ToolSpec(
                name=str(entry["name"]),
                action_class=str(entry.get("action_class", "transmit")),
                args=args,
            )
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed tool registry entry: {exc}") from exc
        if spec.action_class not in ACTION_CLASSES:
            raise ParseError(
                f"tool {spec.name!r}: action_class {spec.action_class!r} is not one of {list(ACTION_CLASSES)}"
            )
        # Only MCP calls consult the registry, so a tool of another protocol
        # could never be called.
        if entry.get("protocol", "mcp") != "mcp":
            raise ParseError(f"tool {spec.name!r}: protocol {entry['protocol']!r} is not 'mcp'")
        for arg in spec.args:
            if arg.kind not in _KIND_CHECKS:
                raise ParseError(
                    f"tool {spec.name!r}: argument {arg.name!r} has kind {arg.kind!r}, not one of {list(_KIND_CHECKS)}"
                )
        registry[spec.name] = spec
    return registry


def _finite_number(v: Any) -> bool:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int too large for a float
        return False


_KIND_CHECKS = {
    "number": _finite_number,
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
}


def validate_args(spec: ToolSpec, args: Mapping[str, Any]) -> str | None:
    """Return an error message for bad arguments, None when they validate."""
    known = {a.name: a for a in spec.args}
    for key in args:
        if key not in known:
            return f"unexpected argument {key!r}"
    for arg in spec.args:
        if arg.name not in args:
            if arg.required:
                return f"missing argument {arg.name!r}"
            continue
        value = args[arg.name]
        if not _KIND_CHECKS[arg.kind](value):
            return f"argument {arg.name!r} must be {arg.kind}"
        if arg.choices is not None and value not in arg.choices:
            return f"argument {arg.name!r} must be one of {list(arg.choices)}"
    return None


def match_action_observation(action: Action | Mapping[str, Any] | None,
                             observation: Observation | Mapping[str, Any] | None) -> bool:
    """Structural pairing rule used by tool-consistency scoring, over the
    documents of an action and its observation; a typed value is read
    through its document.  An observation with a tool field is a tool
    result, as doc_to_episode reads it."""
    if action is not None and type(action) is not dict:
        action = action_to_doc(action)
    if observation is not None and type(observation) is not dict:
        observation = observation_to_doc(observation)
    if action is None or observation is None:
        return False
    if action["protocol"] == "mcp":
        return "tool" in observation and str(observation["tool"]) == action["name"]
    return (
        "tool" not in observation
        and observation.get("task") == action["task"]
        and observation.get("from") == action["to"]
    )


@dataclass(frozen=True)
class SwarmContext:
    """Scripted peer agents: per-turn positions and cooperative responses."""

    peers: Mapping[str, tuple[tuple[float, float, float], ...]] = None  # type: ignore[assignment]
    weather: Mapping[str, Any] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(self, "peers", dict(self.peers or {}))
        object.__setattr__(self, "weather", dict(self.weather or {"conditions": "clear", "wind_mps": 3.0}))

    def peer_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.peers))

    def peer_position(self, peer_id: str, turn_index: int) -> tuple[float, float, float]:
        track = self.peers[peer_id]
        return track[min(turn_index, len(track) - 1)]

    def positions_at(self, turn_index: int) -> tuple[tuple[float, float, float], ...]:
        return tuple(self.peer_position(pid, turn_index) for pid in self.peer_ids())


class ToolExecutor:
    """Executes structured actions; immutable configuration, explicit RNG."""

    def __init__(
        self,
        registry: Mapping[str, ToolSpec],
        calibration: SliceCalibration,
        airspace: Airspace,
        params: VehicleParams,
        swarm: SwarmContext | None = None,
    ) -> None:
        self.registry = dict(registry)
        self.calibration = calibration
        self.airspace = airspace
        self.params = params
        self.swarm = swarm or SwarmContext({}, {})

    # -- MCP ---------------------------------------------------------------

    def execute_mcp(
        self,
        call: McpCall,
        state: UavState,
        network: NetworkState,
        rng: np.random.Generator,
    ) -> tuple[McpResult, UavState, NetworkState]:
        spec = self.registry.get(call.name)
        if spec is None:
            return McpResult(call.name, {"status": "failed", "error": "unknown_tool"}), state, network
        error = validate_args(spec, call.args)
        if error is not None:
            return McpResult(call.name, {"status": "failed", "error": f"bad_args: {error}"}), state, network
        handler = getattr(self, f"_tool_{call.name}", None)
        if handler is None:
            # Registered extension tool without bespoke semantics: payload echo.
            return McpResult(call.name, {"status": "ok", "args": dict(call.args)}), state, network
        return handler(call, state, network, rng)

    def _clamp_altitude(self, z: float) -> float:
        return min(max(z, self.airspace.z_min_m), self.airspace.z_max_m)

    def _tool_read_telemetry(self, call, state, network, rng):
        k = state.kinematics
        result = {
            "position": list(k.position),
            "speed_mps": k.speed,
            "yaw_rad": k.yaw,
            "battery_pct": state.battery_pct,
            "network": {
                "slice": network.slice,
                "latency_ms": network.latency_ms,
                "loss_pct": network.loss_pct,
                "throughput_mbps": network.throughput_mbps,
            },
        }
        return McpResult(call.name, result), state, network

    def _set_target(self, call, state, network, target):
        clamped = (float(target[0]), float(target[1]), self._clamp_altitude(float(target[2])))
        next_state = replace(state, command=NavCommand(target=clamped, landing=state.command.landing))
        return McpResult(call.name, {"status": "accepted", "target": list(clamped)}), next_state, network

    def _tool_set_waypoint(self, call, state, network, rng):
        return self._set_target(call, state, network, (call.args["x"], call.args["y"], call.args["z"]))

    def _tool_navigate_to(self, call, state, network, rng):
        return self._set_target(call, state, network, (call.args["x"], call.args["y"], call.args["z"]))

    def _tool_set_altitude(self, call, state, network, rng):
        base = state.command.target or state.kinematics.position
        return self._set_target(call, state, network, (base[0], base[1], call.args["z"]))

    def _tool_activate_sensor(self, call, state, network, rng):
        sensor = call.args["sensor"]
        next_state = replace(state, sensors=state.sensors | {sensor})
        return McpResult(call.name, {"status": "active", "sensor": sensor}), next_state, network

    def _tool_capture_image(self, call, state, network, rng):
        sensor = call.args.get("sensor", "RGB")
        # Payload quality reflects link loss plus bounded sensor noise.
        quality = max(0.0, 0.95 - 0.4 * network.loss_pct / 100.0 - 0.05 * float(rng.random()))
        result = {
            "status": "captured" if sensor in state.sensors else "captured_cold",
            "sensor": sensor,
            "frame_id": int(rng.integers(0, 1_000_000)),
            "quality": quality,
        }
        return McpResult(call.name, result), state, network

    def _tool_switch_network_slice(self, call, state, network, rng):
        target = call.args["slice"]
        fresh = sample_network_state(target, self.calibration, rng)
        return McpResult(call.name, {"status": "switched", "slice": target}), state, fresh

    def _tool_check_geofence(self, call, state, network, rng):
        check = check_geofence(state.kinematics.position, self.airspace)
        clearance = check.min_clearance_m
        result = {
            "compliant": check.compliant,
            "min_clearance_m": clearance if clearance != float("inf") else 1e9,
        }
        return McpResult(call.name, result), state, network

    def _tool_execute_maneuver(self, call, state, network, rng):
        return McpResult(call.name, {"status": "executing", "maneuver": call.args["maneuver"]}), state, network

    def _tool_land(self, call, state, network, rng):
        p = state.kinematics.position
        target = (p[0], p[1], self.airspace.z_min_m)
        next_state = replace(state, command=NavCommand(target=target, landing=True))
        result = {"status": "landing", "target_altitude_m": self.airspace.z_min_m}
        return McpResult(call.name, result), next_state, network

    def _tool_hover(self, call, state, network, rng):
        next_state = replace(state, command=NavCommand(target=None, landing=False))
        return McpResult(call.name, {"status": "holding"}), next_state, network

    # -- A2A ---------------------------------------------------------------

    def execute_a2a(
        self,
        task: A2aTask,
        network: NetworkState,
        rng: np.random.Generator,
        turn_index: int = 0,
    ) -> A2aAck:
        """Cooperative acknowledgement; never touches the local vehicle state.

        Under a hard network state the ack degrades with probability equal to
        the packet-loss fraction.
        """
        if task.to not in self.swarm.peers:
            return A2aAck(task.task, task.to, "failed", {"error": "unknown_peer"})
        status = "ok"
        if classify_hard(network) and float(rng.random()) < network.loss_pct / 100.0:
            status = "degraded"
        payload = self._a2a_payload(task, turn_index)
        return A2aAck(task.task, task.to, status, payload)

    def _a2a_payload(self, task: A2aTask, turn_index: int) -> dict[str, Any]:
        peer = task.to
        position = self.swarm.peer_position(peer, turn_index)
        if task.task == "collision_avoidance":
            return {
                "peer_position": list(position),
                "advisory": "maintain_heading",
                "separation_ok": True,
            }
        if task.task == "swarm_status_check":
            return {"peer": peer, "position": list(position), "status": "nominal"}
        if task.task == "request_weather_update":
            return dict(self.swarm.weather)
        # Cooperative peers answer unlisted coordination tasks with an echo.
        return {"task": task.task, "echo": json.loads(json.dumps(dict(task.payload)))}
