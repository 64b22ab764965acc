"""Scenario documents: airspace, vehicle, initial state, mission, peers, network."""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Mapping, NamedTuple

from .environment import (
    Airspace,
    DisturbanceModel,
    Geofence,
    KinematicState,
    UavState,
    VehicleParams,
)
from .errors import InvalidInput, ScenarioError, checked
from .network import SLICES


@checked
class SwarmContext(NamedTuple):
    """Scripted peer agents: per-turn positions and cooperative responses."""

    peers: Mapping[str, tuple[tuple[float, float, float], ...]] = None  # type: ignore[assignment]
    weather: Mapping[str, Any] = None  # type: ignore[assignment]

    def _checked(self) -> SwarmContext:
        """A copy of each mapping, with clear weather when none is given."""
        weather = self.weather or {"conditions": "clear", "wind_mps": 3.0}
        return tuple.__new__(SwarmContext, (dict(self.peers or {}), dict(weather)))

    def peer_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.peers))

    def peer_position(self, peer_id: str, turn_index: int) -> tuple[float, float, float]:
        track = self.peers[peer_id]
        return track[min(turn_index, len(track) - 1)]

    def positions_at(self, turn_index: int) -> tuple[tuple[float, float, float], ...]:
        return tuple(self.peer_position(pid, turn_index) for pid in self.peer_ids())


class Scenario(NamedTuple):
    """One mission: airspace, vehicle, start state, disturbance, network and dialogue."""

    scenario_id: str
    description: str
    airspace: Airspace
    params: VehicleParams
    initial_state: UavState
    disturbance: DisturbanceModel
    target: tuple[float, float, float]  # where the vehicle must go
    arrival_tolerance_m: float  # how close counts as arrived
    capture_sensor: str | None  # what it must capture, if anything
    initial_slice: str
    slice_switch_prob: float | None = None
    swarm: SwarmContext = SwarmContext()
    user_prompts: tuple[str, ...] = ()
    tags: tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        return "degraded" not in self.tags


def _number(raw: Any, what: str) -> float:
    """A JSON number as a float.  Nothing is converted: a bool, a string or
    any other value is refused."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ScenarioError(f"{what} must be a number, got {raw!r}")
    return float(raw)


def _finite(raw: Any, what: str) -> float:
    value = _number(raw, what)
    if not math.isfinite(value):
        raise ScenarioError(f"{what} must be finite, got {value!r}")
    return value


def _check_finite(value: Any, what: str) -> None:
    """Raise unless every number in a parsed JSON value, at any depth, is finite."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ScenarioError(f"{what} must be finite, got {value!r}")
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(item, f"{what}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check_finite(item, f"{what}[{i}]")


def _vec(raw: Any, n: int, what: str) -> tuple[float, ...]:
    if not isinstance(raw, (list, tuple)) or len(raw) != n:
        raise ScenarioError(f"{what} must be a {n}-vector")
    return tuple(_finite(x, what) for x in raw)


def _section(doc: Mapping[str, Any], key: str, required: bool = False) -> dict[str, Any]:
    """The object under key ({} when optional and absent)."""
    if key not in doc and not required:
        return {}
    value = doc[key]
    if not isinstance(value, dict):
        raise ScenarioError(f"{key} must be an object, got {type(value).__name__}")
    return value


def load_scenario(doc: Mapping[str, Any]) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError(f"a scenario must be an object, got {type(doc).__name__}")
    try:
        air = _section(doc, "airspace", required=True)
        fences = tuple(
            Geofence(_vec(g["center"], 2, "geofence center"), _number(g["radius_m"], "geofence radius_m"))
            for g in air.get("geofences", [])
        )
        airspace = Airspace(
            z_min_m=_finite(air["z_min_m"], "airspace.z_min_m"),
            z_max_m=_finite(air["z_max_m"], "airspace.z_max_m"),
            geofences=fences,
            separation_margin_m=_number(air.get("separation_margin_m", 10.0), "airspace.separation_margin_m"),
        )
        vehicle = _section(doc, "vehicle")
        params = VehicleParams(
            mass_kg=_number(vehicle.get("mass_kg", 2.0), "vehicle.mass_kg"),
            max_thrust_n=_number(vehicle.get("max_thrust_n", 60.0), "vehicle.max_thrust_n"),
            cruise_speed_mps=_number(vehicle.get("cruise_speed_mps", 15.0), "vehicle.cruise_speed_mps"),
        )
        init = _section(doc, "initial_state", required=True)
        kinematics = KinematicState(
            position=_vec(init["position"], 3, "initial position"),
            velocity=_vec(init.get("velocity", [0.0, 0.0, 0.0]), 3, "initial velocity"),
            yaw=_finite(init.get("yaw_rad", 0.0), "initial_state.yaw_rad"),
        )
        sensors = init.get("sensors", ["IMU"])
        if not isinstance(sensors, list) or not all(isinstance(x, str) for x in sensors):
            raise ScenarioError("initial_state.sensors must be a list of strings")
        battery = _finite(init.get("battery_pct", 100.0), "initial_state.battery_pct")
        # A final battery above 100 breaks the battery_range rule, so such a
        # start would turn every job into a failure stub.
        if not 0.0 <= battery <= 100.0:
            raise ScenarioError(f"initial_state.battery_pct must lie in [0, 100], got {battery!r}")
        state = UavState(kinematics=kinematics, battery_pct=battery, sensors=frozenset(sensors))
        dist = _section(doc, "disturbance")
        clip = dist.get("clip_sigmas", 3.0)
        disturbance = DisturbanceModel(
            sigma_pos=_number(dist.get("sigma_pos_m", 0.5), "disturbance.sigma_pos_m"),
            sigma_vel=_number(dist.get("sigma_vel_mps", 0.2), "disturbance.sigma_vel_mps"),
            clip_sigmas=_number(clip, "disturbance.clip_sigmas") if clip is not None else None,
        )
        mission_doc = _section(doc, "mission", required=True)
        # Not checked against SENSOR_TYPES: a tool file may redefine the
        # sensors capture_image accepts.
        sensor = mission_doc.get("capture_sensor")
        if sensor is not None and not (isinstance(sensor, str) and sensor.strip()):
            raise ScenarioError(f"mission.capture_sensor must be a non-blank string or null, got {sensor!r}")
        tolerance = _number(mission_doc.get("arrival_tolerance_m", 5.0), "mission.arrival_tolerance_m")
        if not tolerance > 0:  # NaN fails too
            raise ScenarioError(f"mission.arrival_tolerance_m must be positive, got {tolerance!r}")
        target = _vec(mission_doc["target"], 3, "mission target")
        net = _section(doc, "network")
        initial_slice = net.get("initial_slice", "eMBB")
        if initial_slice not in SLICES:
            raise ScenarioError(f"unknown slice {initial_slice!r}")
        switch = net.get("slice_switch_prob")
        if switch is not None:
            switch = _number(switch, "network.slice_switch_prob")
            if not 0.0 <= switch <= 1.0:  # NaN fails too
                raise ScenarioError(f"network.slice_switch_prob must lie in [0, 1], got {switch!r}")
        peers = {}
        for pid, track in _section(doc, "peers").items():
            if not isinstance(track, list) or not track:
                raise ScenarioError(f"peer {pid} must have a non-empty list of positions")
            peers[str(pid)] = tuple(_vec(p, 3, f"peer {pid} position") for p in track)
        # Peers hand the weather back in acknowledgements, which records hold.
        weather = _section(doc, "weather")
        _check_finite(weather, "weather")
        swarm = SwarmContext(peers=peers, weather=weather)
        # A blank prompt would make an empty user intent, which no record may hold.
        prompts = doc.get("user_prompts", [])
        if not isinstance(prompts, list) or not all(isinstance(p, str) and p.strip() for p in prompts):
            raise ScenarioError("user_prompts must be a list of non-blank strings")
        tags = doc.get("tags", [])
        if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
            raise ScenarioError("tags must be a list of strings")
        # The opening user intent quotes the description.
        description = doc.get("description", "")
        if not isinstance(description, str):
            raise ScenarioError(f"description must be a string, got {description!r}")
        # Every record's metadata.scenario_id must be a non-empty string.
        scenario_id = doc["scenario_id"]
        if not (isinstance(scenario_id, str) and scenario_id):
            raise ScenarioError(f"scenario_id must be a non-empty string, got {scenario_id!r}")
        return Scenario(
            scenario_id=scenario_id,
            description=description,
            airspace=airspace,
            params=params,
            initial_state=state,
            disturbance=disturbance,
            target=target,
            arrival_tolerance_m=tolerance,
            capture_sensor=sensor,
            initial_slice=initial_slice,
            slice_switch_prob=switch,
            swarm=swarm,
            user_prompts=tuple(prompts),
            tags=tuple(tags),
        )
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError, InvalidInput) as exc:
        raise ScenarioError(f"malformed scenario document: {exc}") from exc


def scenario_files(path: str | Path) -> list[Path]:
    """A scenario file, or the *.json files of a directory in load order."""
    path = Path(path)
    if not path.is_dir():
        return [path]
    files = sorted(path.glob("*.json"))
    if not files:
        raise ScenarioError(f"no scenario files under {path}")
    return files


def builtin_scenarios() -> tuple[Scenario, ...]:
    files = scenario_files(Path(__file__).with_name("data") / "scenarios")
    return tuple(load_scenario(json.loads(f.read_text("utf-8"))) for f in files)
