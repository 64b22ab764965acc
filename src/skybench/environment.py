"""UAV physics: kinematic stepping, disturbances, airspace checks, battery, flags.

State evolution is a pure function of (state, command, RNG stream, dt); the
per-turn step integrates the commanded world-frame thrust with the exact
constant-acceleration update, so piecewise-constant commands reproduce
closed-form trajectories bit-for-bit.  The heading is constant: scenarios set
only a yaw, and nothing turns the vehicle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInput

SENSOR_TYPES = frozenset({"LiDAR", "RGB", "Thermal", "IMU"})

# Battery draw per action class, percent per second.
BATTERY_DRAW = {"idle": 0.05, "hover": 0.10, "maneuver": 0.30, "sense": 0.15, "transmit": 0.12}
ACTION_CLASSES = tuple(BATTERY_DRAW)

# World-frame gravitational acceleration (z up), m/s^2.
GRAVITY = (0.0, 0.0, -9.81)

# Battery percentage below which the battery_depleted flag is raised.
BATTERY_DEPLETED_PCT = 5.0

Vec3 = tuple[float, float, float]


@dataclass(frozen=True)
class KinematicState:
    position: Vec3 = (0.0, 0.0, 0.0)
    velocity: Vec3 = (0.0, 0.0, 0.0)
    yaw: float = 0.0  # heading [rad], reported but never changed

    @property
    def speed(self) -> float:
        return float(np.linalg.norm(self.velocity))


@dataclass(frozen=True)
class VehicleParams:
    mass_kg: float = 2.0
    max_thrust_n: float = 60.0
    cruise_speed_mps: float = 15.0

    def __post_init__(self) -> None:
        if self.mass_kg <= 0:
            raise InvalidInput("mass must be positive")


@dataclass(frozen=True)
class DisturbanceModel:
    """Independent Gaussian noise on each position (sigma_pos) and velocity
    (sigma_vel) component, clipped at clip_sigmas of its sigma (None: no clip)."""

    sigma_pos: float
    sigma_vel: float
    clip_sigmas: float | None

    def __post_init__(self) -> None:
        clip = 0.0 if self.clip_sigmas is None else self.clip_sigmas
        # The chained comparison is also false for NaN.
        if not all(0.0 <= x < math.inf for x in (self.sigma_pos, self.sigma_vel, clip)):
            raise InvalidInput("disturbance sigmas and clip_sigmas must be finite and non-negative")

    @classmethod
    def none(cls) -> "DisturbanceModel":
        return cls(0.0, 0.0, clip_sigmas=None)

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        sigma = np.array([self.sigma_pos] * 3 + [self.sigma_vel] * 3)
        shape = (6,) if size is None else (size, 6)
        draw = rng.standard_normal(shape) * sigma
        if self.clip_sigmas is not None:
            bound = self.clip_sigmas * sigma
            draw = np.clip(draw, -bound, bound)
        return draw


@dataclass(frozen=True)
class Geofence:
    center: tuple[float, float]
    radius_m: float

    def __post_init__(self) -> None:
        if self.radius_m <= 0:
            raise InvalidInput("geofence radius must be positive")


@dataclass(frozen=True)
class Airspace:
    z_min_m: float
    z_max_m: float
    geofences: tuple[Geofence, ...] = ()
    separation_margin_m: float = 10.0

    def __post_init__(self) -> None:
        if self.z_min_m >= self.z_max_m:
            raise InvalidInput("z_min must be below z_max")


@dataclass(frozen=True)
class SafetyFlags:
    altitude_violation: bool = False
    nfz_violation: bool = False
    separation_breach: bool = False
    battery_depleted: bool = False

    def union(self, other: "SafetyFlags") -> "SafetyFlags":
        return SafetyFlags(
            altitude_violation=self.altitude_violation or other.altitude_violation,
            nfz_violation=self.nfz_violation or other.nfz_violation,
            separation_breach=self.separation_breach or other.separation_breach,
            battery_depleted=self.battery_depleted or other.battery_depleted,
        )

    def any(self) -> bool:
        return self.altitude_violation or self.nfz_violation or self.separation_breach or self.battery_depleted


@dataclass(frozen=True)
class NavCommand:
    """Actuation target stored by navigation tools; None means hold position."""

    target: Vec3 | None = None
    landing: bool = False


@dataclass(frozen=True)
class UavState:
    kinematics: KinematicState = KinematicState()
    battery_pct: float = 100.0
    flags: SafetyFlags = SafetyFlags()
    sensors: frozenset[str] = frozenset({"IMU"})
    command: NavCommand = NavCommand()


@dataclass(frozen=True)
class GeofenceCheck:
    compliant: bool
    min_clearance_m: float


def step_kinematics(k: KinematicState, thrust: Vec3, params: VehicleParams, dt: float) -> KinematicState:
    """One constant-acceleration step under world-frame thrust and gravity.

    Exact for piecewise-constant acceleration: p' = p + v dt + a dt^2 / 2,
    v' = v + a dt with a = thrust / m + g.
    """
    if dt <= 0:
        raise InvalidInput("dt must be positive")
    force = np.asarray(thrust, dtype=float)
    magnitude = float(np.linalg.norm(force))
    if magnitude > params.max_thrust_n + 1e-9:
        raise InvalidInput(f"thrust {magnitude:.3f} N exceeds limit {params.max_thrust_n} N")
    accel = force / params.mass_kg + np.asarray(GRAVITY)
    p = np.asarray(k.position)
    v = np.asarray(k.velocity)
    p_next = p + v * dt + 0.5 * accel * dt * dt
    v_next = v + accel * dt
    return replace(
        k,
        position=tuple(float(x) for x in p_next),
        velocity=tuple(float(x) for x in v_next),
    )


def apply_disturbance(k: KinematicState, model: DisturbanceModel, rng: np.random.Generator) -> KinematicState:
    """Add a clipped Gaussian perturbation to the position and velocity."""
    noise = model.sample(rng)
    return replace(
        k,
        position=tuple(float(a + b) for a, b in zip(k.position, noise[:3])),
        velocity=tuple(float(a + b) for a, b in zip(k.velocity, noise[3:])),
    )


def check_geofence(position: Sequence[float], airspace: Airspace) -> GeofenceCheck:
    """Horizontal clearance against every fence; the boundary itself is compliant."""
    if not airspace.geofences:
        return GeofenceCheck(compliant=True, min_clearance_m=math.inf)
    clearances = [
        math.hypot(position[0] - g.center[0], position[1] - g.center[1]) - g.radius_m
        for g in airspace.geofences
    ]
    worst = min(clearances)
    return GeofenceCheck(compliant=worst >= 0.0, min_clearance_m=worst)


def check_altitude(position: Sequence[float], airspace: Airspace) -> bool:
    return airspace.z_min_m <= position[2] <= airspace.z_max_m


def check_separation(position: Sequence[float], peer_positions: Iterable[Sequence[float]], margin_m: float) -> bool:
    p = np.asarray(position, dtype=float)
    for peer in peer_positions:
        if float(np.linalg.norm(p - np.asarray(peer, dtype=float))) < margin_m:
            return False
    return True


def update_battery(state: UavState, action_class: str, dt: float) -> UavState:
    """Drain the battery by the class draw, floored at zero; depletion is sticky."""
    if dt <= 0:
        raise InvalidInput("dt must be positive")
    if action_class not in BATTERY_DRAW:
        raise InvalidInput(f"unknown action class: {action_class!r}")
    battery = max(0.0, state.battery_pct - BATTERY_DRAW[action_class] * dt)
    flags = state.flags.union(SafetyFlags(battery_depleted=battery < BATTERY_DEPLETED_PCT))
    return replace(state, battery_pct=battery, flags=flags)


def _control_thrust(k: KinematicState, command: NavCommand, params: VehicleParams, dt: float) -> Vec3:
    """World-frame deadbeat thrust toward the commanded target, bounded by
    cruise speed and available thrust."""
    p = np.asarray(k.position)
    v = np.asarray(k.velocity)
    if command.target is not None:
        delta = np.asarray(command.target) - p
        accel = 2.0 * (delta - v * dt) / (dt * dt)
    else:
        accel = -v / dt
    v_next = v + accel * dt
    speed = float(np.linalg.norm(v_next))
    if speed > params.cruise_speed_mps:
        accel = (v_next * (params.cruise_speed_mps / speed) - v) / dt
    thrust = params.mass_kg * (accel - np.asarray(GRAVITY))
    magnitude = float(np.linalg.norm(thrust))
    if magnitude > params.max_thrust_n:
        thrust = thrust * (params.max_thrust_n / magnitude)
    return tuple(float(x) for x in thrust)


def evaluate_flags(
    state: UavState,
    airspace: Airspace,
    peer_positions: Iterable[Sequence[float]] = (),
) -> SafetyFlags:
    position = state.kinematics.position
    observed = SafetyFlags(
        altitude_violation=not check_altitude(position, airspace),
        nfz_violation=not check_geofence(position, airspace).compliant,
        separation_breach=not check_separation(position, peer_positions, airspace.separation_margin_m),
        battery_depleted=state.battery_pct < BATTERY_DEPLETED_PCT,
    )
    return state.flags.union(observed)


def evolve_state(
    state: UavState,
    airspace: Airspace,
    params: VehicleParams,
    disturbance: DisturbanceModel,
    rng: np.random.Generator,
    dt: float = 1.0,
    *,
    action_class: str = "hover",
    peer_positions: Iterable[Sequence[float]] = (),
) -> UavState:
    """One turn of closed-loop evolution.

    Integrates toward the stored navigation command, perturbs the achieved
    kinematics, drains the battery by the action class, and re-evaluates every
    safety flag (sticky accumulation).  Tool-induced command changes happen
    upstream in the tool executor.
    """
    thrust = _control_thrust(state.kinematics, state.command, params, dt)
    kin = step_kinematics(state.kinematics, thrust, params, dt)
    kin = apply_disturbance(kin, disturbance, rng)
    moved = replace(state, kinematics=kin)
    moved = update_battery(moved, action_class, dt)
    return replace(moved, flags=evaluate_flags(moved, airspace, peer_positions))
