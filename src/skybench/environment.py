"""UAV physics: kinematic stepping, disturbances, airspace checks, battery, flags.

State evolution is a pure function of (state, RNG stream, dt); the per-turn
step integrates the world-frame thrust toward the state's target with the
exact constant-acceleration update, so piecewise-constant commands reproduce
closed-form trajectories bit-for-bit.  The heading is constant: scenarios set
only a yaw, and nothing turns the vehicle.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import InvalidInput, checked

if TYPE_CHECKING:
    import numpy as np

SENSOR_TYPES = frozenset({"LiDAR", "RGB", "Thermal", "IMU"})

# Battery draw per action class, percent per second.
BATTERY_DRAW = {"idle": 0.05, "hover": 0.10, "maneuver": 0.30, "sense": 0.15, "transmit": 0.12}
ACTION_CLASSES = tuple(BATTERY_DRAW)

# World-frame gravitational acceleration (z up), m/s^2.
GRAVITY = (0.0, 0.0, -9.81)

# Battery percentage below which the battery_depleted flag is raised.
BATTERY_DEPLETED_PCT = 5.0

Vec3 = tuple[float, float, float]


class KinematicState(NamedTuple):
    """Position (m) and velocity (m/s) of the vehicle, z up, with its heading."""

    position: Vec3 = (0.0, 0.0, 0.0)
    velocity: Vec3 = (0.0, 0.0, 0.0)
    yaw: float = 0.0  # heading [rad], reported but never changed

    @property
    def speed(self) -> float:
        return _norm3(self.velocity)


@checked
class VehicleParams(NamedTuple):
    """Mass, thrust limit and cruise speed of one vehicle; each must be positive."""

    mass_kg: float = 2.0
    max_thrust_n: float = 60.0
    cruise_speed_mps: float = 15.0

    def _checked(self) -> VehicleParams:
        for name, value in zip(self._fields, self):
            if not value > 0:  # NaN fails too
                raise InvalidInput(f"{name} must be positive, got {value!r}")
        return self


@checked
class DisturbanceModel(NamedTuple):
    """Independent Gaussian noise on each position (sigma_pos) and velocity
    (sigma_vel) component, clipped at clip_sigmas of its sigma (None: no clip)."""

    sigma_pos: float
    sigma_vel: float
    clip_sigmas: float | None

    def _checked(self) -> DisturbanceModel:
        clip = 0.0 if self.clip_sigmas is None else self.clip_sigmas
        # The chained comparison is also false for NaN.
        if not all(0.0 <= x < math.inf for x in (self.sigma_pos, self.sigma_vel, clip)):
            raise InvalidInput("disturbance sigmas and clip_sigmas must be finite and non-negative")
        return self

    @classmethod
    def none(cls) -> "DisturbanceModel":
        return cls(0.0, 0.0, clip_sigmas=None)

    def sample(self, rng: np.random.Generator) -> list[float]:
        """One draw: three position components, then three velocity components."""
        sp, sv = self.sigma_pos, self.sigma_vel
        z = rng.standard_normal(6).tolist()
        draw = [z[0] * sp, z[1] * sp, z[2] * sp, z[3] * sv, z[4] * sv, z[5] * sv]
        if self.clip_sigmas is not None:
            # numpy.clip's order: raise to the lower bound, then cut at the upper.
            c = self.clip_sigmas
            for i, sigma in enumerate((sp, sp, sp, sv, sv, sv)):
                bound = c * sigma
                d = draw[i] if draw[i] > -bound else -bound
                draw[i] = d if d < bound else bound
        return draw


@checked
class Geofence(NamedTuple):
    """A no-fly cylinder: its centre (x, y) and radius, in metres."""

    center: tuple[float, float]
    radius_m: float

    def _checked(self) -> Geofence:
        if not self.radius_m > 0:  # NaN fails too
            raise InvalidInput(f"geofence radius must be positive, got {self.radius_m!r}")
        return self


@checked
class Airspace(NamedTuple):
    """Altitude band, no-fly zones and peer separation margin of a scenario."""

    z_min_m: float
    z_max_m: float
    geofences: tuple[Geofence, ...] = ()
    separation_margin_m: float = 10.0

    def _checked(self) -> Airspace:
        if self.z_min_m >= self.z_max_m:
            raise InvalidInput("z_min must be below z_max")
        if not 0.0 <= self.separation_margin_m < math.inf:  # NaN fails too
            raise InvalidInput(f"separation_margin_m must be finite and at least 0, got {self.separation_margin_m!r}")
        return self


class SafetyFlags(NamedTuple):
    """The safety violations an episode has raised so far."""

    altitude_violation: bool = False
    nfz_violation: bool = False
    separation_breach: bool = False
    battery_depleted: bool = False


class UavState(NamedTuple):
    """Everything the physics step reads and writes for one vehicle."""

    kinematics: KinematicState = KinematicState()
    battery_pct: float = 100.0
    flags: SafetyFlags = SafetyFlags()
    sensors: frozenset[str] = frozenset({"IMU"})
    target: Vec3 | None = None  # set by the navigation tools; None holds position
    landing: bool = False


def _norm3(v: Sequence[float]) -> float:
    """Euclidean length of a 3-vector, rounded as sqrt(fma(z, z, fma(y, y, x*x))).

    That is how the BLAS dot product behind numpy.linalg.norm accumulates on
    FMA hardware, so trajectories stay bit-identical to the numpy-based
    physics that earlier corpora were made with.  Each fused multiply-add is
    emulated exactly: a Veltkamp split gives c*c as an unrounded pair, and
    math.fsum rounds the pair plus the running sum once.
    """
    x, y, z = v
    total = x * x
    for c in (y, z):
        t = 134217729.0 * c  # 2**27 + 1
        hi = t - (t - c)
        lo = c - hi
        square = c * c
        total = math.fsum((square, ((hi * hi - square) + 2.0 * hi * lo) + lo * lo, total))
    return math.sqrt(total)


def step_kinematics(k: KinematicState, thrust: Vec3, params: VehicleParams, dt: float) -> KinematicState:
    """One constant-acceleration step under world-frame thrust and gravity.

    Exact for piecewise-constant acceleration: p' = p + v dt + a dt^2 / 2,
    v' = v + a dt with a = thrust / m + g.
    """
    if dt <= 0:
        raise InvalidInput("dt must be positive")
    magnitude = _norm3(thrust)
    if magnitude > params.max_thrust_n + 1e-9:
        raise InvalidInput(f"thrust {magnitude:.3f} N exceeds limit {params.max_thrust_n} N")
    m = params.mass_kg
    gx, gy, gz = GRAVITY
    ax, ay, az = thrust[0] / m + gx, thrust[1] / m + gy, thrust[2] / m + gz
    (px, py, pz), (vx, vy, vz) = k.position, k.velocity
    return KinematicState(
        (px + vx * dt + 0.5 * ax * dt * dt, py + vy * dt + 0.5 * ay * dt * dt, pz + vz * dt + 0.5 * az * dt * dt),
        (vx + ax * dt, vy + ay * dt, vz + az * dt),
        k.yaw,
    )


def apply_disturbance(k: KinematicState, model: DisturbanceModel, rng: np.random.Generator) -> KinematicState:
    """Add a clipped Gaussian perturbation to the position and velocity."""
    n = model.sample(rng)
    (px, py, pz), (vx, vy, vz) = k.position, k.velocity
    return KinematicState((px + n[0], py + n[1], pz + n[2]), (vx + n[3], vy + n[4], vz + n[5]), k.yaw)


def check_geofence(position: Sequence[float], airspace: Airspace) -> float:
    """The least horizontal clearance from any fence (inf with none); a
    position is compliant when it is >= 0, so the boundary itself is."""
    return min(
        (math.hypot(position[0] - g.center[0], position[1] - g.center[1]) - g.radius_m for g in airspace.geofences),
        default=math.inf,
    )


def check_altitude(position: Sequence[float], airspace: Airspace) -> bool:
    return airspace.z_min_m <= position[2] <= airspace.z_max_m


def check_separation(position: Sequence[float], peer_positions: Iterable[Sequence[float]], margin_m: float) -> bool:
    x, y, z = position
    for peer in peer_positions:
        if _norm3((x - peer[0], y - peer[1], z - peer[2])) < margin_m:
            return False
    return True


def _control_thrust(k: KinematicState, target: Vec3 | None, params: VehicleParams, dt: float) -> Vec3:
    """World-frame deadbeat thrust toward the target (None: hold position),
    bounded by cruise speed and available thrust."""
    vx, vy, vz = k.velocity
    if target is not None:
        (tx, ty, tz), (px, py, pz) = target, k.position
        h = dt * dt
        ax = 2.0 * ((tx - px) - vx * dt) / h
        ay = 2.0 * ((ty - py) - vy * dt) / h
        az = 2.0 * ((tz - pz) - vz * dt) / h
    else:
        ax, ay, az = -vx / dt, -vy / dt, -vz / dt
    nx, ny, nz = vx + ax * dt, vy + ay * dt, vz + az * dt
    speed = _norm3((nx, ny, nz))
    cruise = params.cruise_speed_mps
    if speed > cruise:
        scale = cruise / speed
        ax, ay, az = (nx * scale - vx) / dt, (ny * scale - vy) / dt, (nz * scale - vz) / dt
    m = params.mass_kg
    gx, gy, gz = GRAVITY
    thrust = (m * (ax - gx), m * (ay - gy), m * (az - gz))
    magnitude = _norm3(thrust)
    if magnitude > params.max_thrust_n:
        scale = params.max_thrust_n / magnitude
        thrust = (thrust[0] * scale, thrust[1] * scale, thrust[2] * scale)
    return thrust


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

    Integrates toward the stored navigation target, perturbs the achieved
    kinematics, drains the battery by the action class (floored at zero), and
    re-evaluates every safety flag (sticky accumulation).  Tool-induced
    target changes happen upstream in the tool executor.
    """
    if dt <= 0:
        raise InvalidInput("dt must be positive")
    if action_class not in BATTERY_DRAW:
        raise InvalidInput(f"unknown action class: {action_class!r}")
    thrust = _control_thrust(state.kinematics, state.target, params, dt)
    kin = apply_disturbance(step_kinematics(state.kinematics, thrust, params, dt), disturbance, rng)
    position = kin.position
    battery = max(0.0, state.battery_pct - BATTERY_DRAW[action_class] * dt)
    flags = f = state.flags
    altitude = f.altitude_violation or not check_altitude(position, airspace)
    nfz = f.nfz_violation or not check_geofence(position, airspace) >= 0.0
    separation = f.separation_breach or not check_separation(position, peer_positions, airspace.separation_margin_m)
    depleted = f.battery_depleted or battery < BATTERY_DEPLETED_PCT
    # Most steps raise no flag: the flags are then the same values, kept.
    if not (
        altitude is f.altitude_violation
        and nfz is f.nfz_violation
        and separation is f.separation_breach
        and depleted is f.battery_depleted
    ):
        flags = SafetyFlags(altitude, nfz, separation, depleted)
    return UavState(kin, battery, flags, state.sensors, state.target, state.landing)
