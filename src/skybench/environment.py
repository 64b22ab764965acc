"""UAV physics: kinematic stepping, disturbances, airspace checks, battery, flags.

State evolution is a pure function of (state, command, RNG stream, dt); the
per-turn step integrates the commanded thrust with the exact constant-
acceleration update, so piecewise-constant commands reproduce closed-form
trajectories bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInput

TWO_PI = 2.0 * math.pi

SENSOR_TYPES = frozenset({"LiDAR", "RGB", "Thermal", "IMU"})

ACTION_CLASSES = ("idle", "hover", "maneuver", "sense", "transmit")

# Battery percentage below which the battery_depleted flag is raised.
BATTERY_DEPLETED_PCT = 5.0

Vec3 = tuple[float, float, float]


def normalize_yaw(yaw: float) -> float:
    """Wrap into (-pi, pi]."""
    y = yaw % TWO_PI
    if y > math.pi:
        y -= TWO_PI
    return y


def rotation_matrix(attitude: Vec3) -> np.ndarray:
    """Body-to-world rotation for ZYX Euler angles (roll, pitch, yaw)."""
    roll, pitch, yaw = attitude
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    return np.array(
        [
            [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr],
            [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr],
            [-sp, cp * sr, cp * cr],
        ]
    )


@dataclass(frozen=True)
class KinematicState:
    position: Vec3 = (0.0, 0.0, 0.0)
    velocity: Vec3 = (0.0, 0.0, 0.0)
    attitude: Vec3 = (0.0, 0.0, 0.0)  # roll, pitch, yaw [rad]
    angular_rate: Vec3 = (0.0, 0.0, 0.0)

    @property
    def speed(self) -> float:
        return float(np.linalg.norm(self.velocity))

    @property
    def yaw(self) -> float:
        return self.attitude[2]


@dataclass(frozen=True)
class VehicleParams:
    mass_kg: float = 2.0
    gravity: Vec3 = (0.0, 0.0, -9.81)
    max_thrust_n: float = 60.0
    battery_capacity_pct: float = 100.0
    cruise_speed_mps: float = 15.0
    # Battery draw per action class, percent per second.
    idle_draw: float = 0.05
    hover_draw: float = 0.10
    sense_draw: float = 0.15
    transmit_draw: float = 0.12
    maneuver_draw: float = 0.30

    def __post_init__(self) -> None:
        if self.mass_kg <= 0:
            raise InvalidInput("mass must be positive")
        for name in ("idle_draw", "hover_draw", "sense_draw", "transmit_draw", "maneuver_draw"):
            if getattr(self, name) < 0:
                raise InvalidInput(f"{name} must be non-negative")

    def draw_for(self, action_class: str) -> float:
        try:
            return getattr(self, f"{action_class}_draw")
        except AttributeError:
            raise InvalidInput(f"unknown action class: {action_class!r}") from None


@dataclass(frozen=True)
class DisturbanceModel:
    """Gaussian perturbation on (position, velocity) with per-component clipping."""

    covariance: tuple[tuple[float, ...], ...]
    bounds: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (6, 6):
            raise InvalidInput("covariance must be 6x6 over (position, velocity)")
        if not np.allclose(cov, cov.T):
            raise InvalidInput("covariance must be symmetric")
        if np.min(np.linalg.eigvalsh(cov)) < -1e-9:
            raise InvalidInput("covariance must be positive semidefinite")
        if self.bounds is not None and len(self.bounds) != 6:
            raise InvalidInput("bounds must have six components")

    @classmethod
    def diagonal(cls, sigma_pos: float = 0.5, sigma_vel: float = 0.2, clip_sigmas: float | None = 3.0) -> "DisturbanceModel":
        variances = [sigma_pos**2] * 3 + [sigma_vel**2] * 3
        cov = tuple(tuple(v if i == j else 0.0 for j in range(6)) for i, v in enumerate(variances))
        bounds = None
        if clip_sigmas is not None:
            bounds = tuple(clip_sigmas * math.sqrt(v) for v in variances)
        return cls(covariance=cov, bounds=bounds)

    @classmethod
    def none(cls) -> "DisturbanceModel":
        return cls.diagonal(0.0, 0.0, clip_sigmas=None)

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        cov = np.asarray(self.covariance, dtype=float)
        draw = rng.multivariate_normal(np.zeros(6), cov, size=size)
        if self.bounds is not None:
            bounds = np.asarray(self.bounds, dtype=float)
            draw = np.clip(draw, -bounds, bounds)
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


def step_kinematics(k: KinematicState, thrust_body: Vec3, params: VehicleParams, dt: float) -> KinematicState:
    """One constant-acceleration step under body-frame thrust and gravity.

    Exact for piecewise-constant acceleration: p' = p + v dt + a dt^2 / 2,
    v' = v + a dt with a = R(attitude) thrust / m + g.  Yaw integrates the
    commanded yaw rate; roll and pitch are held at trim.
    """
    if dt <= 0:
        raise InvalidInput("dt must be positive")
    thrust = np.asarray(thrust_body, dtype=float)
    magnitude = float(np.linalg.norm(thrust))
    if magnitude > params.max_thrust_n + 1e-9:
        raise InvalidInput(f"thrust {magnitude:.3f} N exceeds limit {params.max_thrust_n} N")
    accel = rotation_matrix(k.attitude) @ thrust / params.mass_kg + np.asarray(params.gravity)
    p = np.asarray(k.position)
    v = np.asarray(k.velocity)
    p_next = p + v * dt + 0.5 * accel * dt * dt
    v_next = v + accel * dt
    yaw = normalize_yaw(k.yaw + k.angular_rate[2] * dt)
    return KinematicState(
        position=tuple(float(x) for x in p_next),
        velocity=tuple(float(x) for x in v_next),
        attitude=(k.attitude[0], k.attitude[1], yaw),
        angular_rate=k.angular_rate,
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


def update_battery(state: UavState, action_class: str, params: VehicleParams, dt: float) -> UavState:
    """Drain the battery by the class draw, floored at zero; depletion is sticky."""
    if dt <= 0:
        raise InvalidInput("dt must be positive")
    battery = max(0.0, state.battery_pct - params.draw_for(action_class) * dt)
    flags = state.flags.union(SafetyFlags(battery_depleted=battery < BATTERY_DEPLETED_PCT))
    return replace(state, battery_pct=battery, flags=flags)


def _control_thrust(k: KinematicState, command: NavCommand, params: VehicleParams, dt: float) -> Vec3:
    """World-frame deadbeat acceleration toward the commanded target, bounded
    by cruise speed and available thrust, expressed in the body frame."""
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
    thrust_world = params.mass_kg * (accel - np.asarray(params.gravity))
    magnitude = float(np.linalg.norm(thrust_world))
    if magnitude > params.max_thrust_n:
        thrust_world = thrust_world * (params.max_thrust_n / magnitude)
    thrust_body = rotation_matrix(k.attitude).T @ thrust_world
    return tuple(float(x) for x in thrust_body)


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
    moved = update_battery(moved, action_class, params, dt)
    return replace(moved, flags=evaluate_flags(moved, airspace, peer_positions))
