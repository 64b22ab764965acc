"""MCP tool and A2A task execution against the simulated vehicle and network.

Every registered tool has explicit operational semantics: what it reads, what
it mutates, which battery class it burns, and the shape of the observation it
returns.  Unknown tools and bad arguments degrade the observation instead of
failing the episode; tool-consistency scoring is the penalty channel.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

from .environment import (
    ACTION_CLASSES,
    Airspace,
    SENSOR_TYPES,
    UavState,
    check_geofence,
)
from .errors import ParseError
from .network import NetworkState, SLICES, SliceCalibration, clamp, classify_hard, sample_network_state
from .scenarios import SwarmContext

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


def load_registry_extension(doc: Any) -> dict[str, ToolSpec]:
    """Parse extra tool specs from a tool file's document: an object whose
    "tools" (none when absent) is a list of tool entries.  Each value must
    have its field's type; none is converted."""
    entries = doc.get("tools", []) if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise ParseError("a tool file must be an object whose tools is a list")
    registry = default_registry()
    for entry in entries:
        if not isinstance(entry, Mapping):
            raise ParseError(f"tool registry entry must be an object, got {entry!r}")
        try:
            name = _typed(entry["name"], str, "a tool's name")
            args = _typed(entry.get("args", []), list, f"tool {name!r}: args")
            spec = ToolSpec(
                name=name,
                action_class=_typed(entry.get("action_class", "transmit"), str, f"tool {name!r}: action_class"),
                args=tuple(_arg_spec(a, name) for a in args),
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


_TYPE_NAMES = {str: "a string", bool: "true or false", list: "a list"}


def _typed(value: Any, kind: type, what: str) -> Any:
    """value, which must be of type `kind`; raises ParseError naming `what`."""
    if not isinstance(value, kind):
        raise ParseError(f"{what} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


def _arg_spec(doc: Mapping[str, Any], tool: str) -> ArgSpec:
    """The ArgSpec of one entry of a tool's args."""
    name = _typed(doc["name"], str, f"tool {tool!r}: an argument's name")
    where = f"tool {tool!r}: argument {name!r}:"
    return ArgSpec(
        name=name,
        kind=_typed(doc.get("kind", "string"), str, f"{where} kind"),
        required=_typed(doc.get("required", True), bool, f"{where} required"),
        choices=tuple(_typed(doc["choices"], list, f"{where} choices")) if "choices" in doc else None,
    )


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


class ToolExecutor:
    """Executes structured actions; immutable configuration, explicit RNG."""

    def __init__(
        self,
        registry: Mapping[str, ToolSpec],
        calibration: SliceCalibration,
        airspace: Airspace,
        swarm: SwarmContext | None = None,
    ) -> None:
        self.registry = dict(registry)
        self.calibration = calibration
        self.airspace = airspace
        self.swarm = swarm or SwarmContext({}, {})

    # -- MCP ---------------------------------------------------------------

    def execute_mcp(
        self,
        call: Mapping[str, Any],
        state: UavState,
        network: NetworkState,
        rng: np.random.Generator,
    ) -> tuple[dict[str, Any], UavState, NetworkState]:
        """The observation document of an mcp action document, with the
        state and network it leaves.  The tool reads the arguments as sent."""
        name, args = call["name"], call["args"]
        spec = self.registry.get(name)
        if spec is None:
            return {"tool": name, "result": {"status": "failed", "error": "unknown_tool"}}, state, network
        error = validate_args(spec, args)
        if error is not None:
            return {"tool": name, "result": {"status": "failed", "error": f"bad_args: {error}"}}, state, network
        handler = getattr(self, f"_tool_{name}", None)
        if handler is None:
            # Registered extension tool without bespoke semantics: payload echo.
            return {"tool": name, "result": {"status": "ok", "args": dict(args)}}, state, network
        result, state, network = handler(args, state, network, rng)
        return {"tool": name, "result": result}, state, network

    # Each handler takes the validated arguments and gives the result, the
    # state and the network.

    def _clamp_altitude(self, z: float) -> float:
        return clamp(z, self.airspace.z_min_m, self.airspace.z_max_m)

    def _tool_read_telemetry(self, args, state, network, rng):
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
        return result, state, network

    def _set_target(self, state, network, target):
        clamped = (float(target[0]), float(target[1]), self._clamp_altitude(float(target[2])))
        next_state = UavState(state.kinematics, state.battery_pct, state.flags, state.sensors, clamped, state.landing)
        return {"status": "accepted", "target": list(clamped)}, next_state, network

    def _tool_set_waypoint(self, args, state, network, rng):
        return self._set_target(state, network, (args["x"], args["y"], args["z"]))

    _tool_navigate_to = _tool_set_waypoint

    def _tool_set_altitude(self, args, state, network, rng):
        base = state.target or state.kinematics.position
        return self._set_target(state, network, (base[0], base[1], args["z"]))

    def _tool_activate_sensor(self, args, state, network, rng):
        sensor = args["sensor"]
        next_state = UavState(
            state.kinematics, state.battery_pct, state.flags, state.sensors | {sensor}, state.target, state.landing
        )
        return {"status": "active", "sensor": sensor}, next_state, network

    def _tool_capture_image(self, args, state, network, rng):
        sensor = args.get("sensor", "RGB")
        # Payload quality reflects link loss plus bounded sensor noise.
        quality = max(0.0, 0.95 - 0.4 * network.loss_pct / 100.0 - 0.05 * float(rng.random()))
        result = {
            "status": "captured" if sensor in state.sensors else "captured_cold",
            "sensor": sensor,
            "frame_id": int(rng.integers(0, 1_000_000)),
            "quality": quality,
        }
        return result, state, network

    def _tool_switch_network_slice(self, args, state, network, rng):
        target = args["slice"]
        fresh = sample_network_state(target, self.calibration, rng)
        return {"status": "switched", "slice": target}, state, fresh

    def _tool_check_geofence(self, args, state, network, rng):
        clearance = check_geofence(state.kinematics.position, self.airspace)
        result = {
            "compliant": clearance >= 0.0,
            "min_clearance_m": clearance if clearance != math.inf else 1e9,
        }
        return result, state, network

    def _tool_execute_maneuver(self, args, state, network, rng):
        return {"status": "executing", "maneuver": args["maneuver"]}, state, network

    def _tool_land(self, args, state, network, rng):
        p = state.kinematics.position
        target = (p[0], p[1], self.airspace.z_min_m)
        next_state = UavState(state.kinematics, state.battery_pct, state.flags, state.sensors, target, True)
        return {"status": "landing", "target_altitude_m": self.airspace.z_min_m}, next_state, network

    def _tool_hover(self, args, state, network, rng):
        next_state = UavState(state.kinematics, state.battery_pct, state.flags, state.sensors)
        return {"status": "holding"}, next_state, network

    # -- A2A ---------------------------------------------------------------

    def execute_a2a(
        self,
        task: Mapping[str, Any],
        network: NetworkState,
        rng: np.random.Generator,
        turn_index: int = 0,
    ) -> dict[str, Any]:
        """The acknowledgement document of an a2a action document; never
        touches the local vehicle state.

        Under a hard network state the ack degrades with probability equal to
        the packet-loss fraction.
        """
        name, peer = task["task"], task["to"]
        if peer not in self.swarm.peers:
            return {"task": name, "from": peer, "status": "failed", "payload": {"error": "unknown_peer"}}
        status = "ok"
        if classify_hard(network) and float(rng.random()) < network.loss_pct / 100.0:
            status = "degraded"
        return {"task": name, "from": peer, "status": status, "payload": self._a2a_payload(task, turn_index)}

    def _a2a_payload(self, task: Mapping[str, Any], turn_index: int) -> dict[str, Any]:
        name, peer = task["task"], task["to"]
        position = self.swarm.peer_position(peer, turn_index)
        if name == "collision_avoidance":
            return {
                "peer_position": list(position),
                "advisory": "maintain_heading",
                "separation_ok": True,
            }
        if name == "swarm_status_check":
            return {"peer": peer, "position": list(position), "status": "nominal"}
        if name == "request_weather_update":
            return dict(self.swarm.weather)
        # Cooperative peers answer unlisted coordination tasks with an echo.
        return {"task": name, "echo": json.loads(json.dumps(dict(task["payload"])))}
