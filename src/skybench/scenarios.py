"""Scenario documents: airspace, vehicle, initial state, mission, peers, network."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any, Mapping

from .environment import (
    Airspace,
    DisturbanceModel,
    Geofence,
    KinematicState,
    UavState,
    VehicleParams,
)
from .errors import InvalidInput, ScenarioError
from .network import SLICES
from .tools import SwarmContext


@dataclass(frozen=True)
class MissionSpec:
    target: tuple[float, float, float]
    arrival_tolerance_m: float = 5.0
    capture_sensor: str | None = None


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    description: str
    airspace: Airspace
    params: VehicleParams
    initial_state: UavState
    disturbance: DisturbanceModel
    mission: MissionSpec
    initial_slice: str
    slice_switch_prob: float | None = None
    swarm: SwarmContext = field(default_factory=lambda: SwarmContext({}, {}))
    user_prompts: tuple[str, ...] = ()
    tags: tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        return "degraded" not in self.tags


def _vec3(raw: Any, what: str) -> tuple[float, float, float]:
    if not isinstance(raw, (list, tuple)) or len(raw) != 3:
        raise ScenarioError(f"{what} must be a 3-vector")
    return (float(raw[0]), float(raw[1]), float(raw[2]))


def load_scenario(doc: Mapping[str, Any]) -> Scenario:
    try:
        air = doc["airspace"]
        fences = tuple(
            Geofence(center=(float(g["center"][0]), float(g["center"][1])), radius_m=float(g["radius_m"]))
            for g in air.get("geofences", [])
        )
        airspace = Airspace(
            z_min_m=float(air["z_min_m"]),
            z_max_m=float(air["z_max_m"]),
            geofences=fences,
            separation_margin_m=float(air.get("separation_margin_m", 10.0)),
        )
        vehicle = doc.get("vehicle", {})
        params = VehicleParams(
            mass_kg=float(vehicle.get("mass_kg", 2.0)),
            max_thrust_n=float(vehicle.get("max_thrust_n", 60.0)),
            cruise_speed_mps=float(vehicle.get("cruise_speed_mps", 15.0)),
        )
        init = doc["initial_state"]
        kinematics = KinematicState(
            position=_vec3(init["position"], "initial position"),
            velocity=_vec3(init.get("velocity", [0.0, 0.0, 0.0]), "initial velocity"),
            yaw=float(init.get("yaw_rad", 0.0)),
        )
        state = UavState(
            kinematics=kinematics,
            battery_pct=float(init.get("battery_pct", 100.0)),
            sensors=frozenset(init.get("sensors", ["IMU"])),
        )
        dist = doc.get("disturbance", {})
        clip = dist.get("clip_sigmas", 3.0)
        disturbance = DisturbanceModel(
            sigma_pos=float(dist.get("sigma_pos_m", 0.5)),
            sigma_vel=float(dist.get("sigma_vel_mps", 0.2)),
            clip_sigmas=float(clip) if clip is not None else None,
        )
        mission_doc = doc["mission"]
        mission = MissionSpec(
            target=_vec3(mission_doc["target"], "mission target"),
            arrival_tolerance_m=float(mission_doc.get("arrival_tolerance_m", 5.0)),
            capture_sensor=mission_doc.get("capture_sensor"),
        )
        net = doc.get("network", {})
        initial_slice = str(net.get("initial_slice", "eMBB"))
        if initial_slice not in SLICES:
            raise ScenarioError(f"unknown slice {initial_slice!r}")
        switch = net.get("slice_switch_prob")
        peers = {
            str(pid): tuple(_vec3(p, f"peer {pid} position") for p in track)
            for pid, track in doc.get("peers", {}).items()
        }
        swarm = SwarmContext(peers=peers, weather=doc.get("weather", {}))
        # A blank prompt would make an empty user intent, which no record may hold.
        prompts = doc.get("user_prompts", [])
        if not isinstance(prompts, list) or not all(isinstance(p, str) and p.strip() for p in prompts):
            raise ScenarioError("user_prompts must be a list of non-blank strings")
        tags = doc.get("tags", [])
        if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
            raise ScenarioError("tags must be a list of strings")
        return Scenario(
            scenario_id=str(doc["scenario_id"]),
            description=str(doc.get("description", "")),
            airspace=airspace,
            params=params,
            initial_state=state,
            disturbance=disturbance,
            mission=mission,
            initial_slice=initial_slice,
            slice_switch_prob=float(switch) if switch is not None else None,
            swarm=swarm,
            user_prompts=tuple(prompts),
            tags=tuple(tags),
        )
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError, InvalidInput) as exc:
        raise ScenarioError(f"malformed scenario document: {exc}") from exc


def load_scenario_file(path: str | Path) -> Scenario:
    try:
        doc = json.loads(Path(path).read_text("utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    return load_scenario(doc)


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
    root = resources.files("skybench.data").joinpath("scenarios")
    scenarios = []
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            scenarios.append(load_scenario(json.loads(entry.read_text("utf-8"))))
    return tuple(scenarios)
