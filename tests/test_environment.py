from __future__ import annotations

import math

import numpy as np
import pytest

from skybench.environment import (
    BATTERY_DEPLETED_PCT,
    BATTERY_DRAW,
    Airspace,
    DisturbanceModel,
    Geofence,
    KinematicState,
    SafetyFlags,
    UavState,
    VehicleParams,
    apply_disturbance,
    check_altitude,
    check_geofence,
    check_separation,
    _control_thrust,
    evolve_state,
    step_kinematics,
)
from skybench.errors import InvalidInput

PARAMS = VehicleParams()
AIRSPACE = Airspace(z_min_m=20.0, z_max_m=120.0)


def hover_thrust() -> tuple[float, float, float]:
    return (0.0, 0.0, PARAMS.mass_kg * 9.81)


# -- kinematic stepping ------------------------------------------------------

def test_free_fall_single_step():
    k = KinematicState(position=(0.0, 0.0, 100.0))
    out = step_kinematics(k, (0.0, 0.0, 0.0), PARAMS, dt=1.0)
    assert out.velocity == pytest.approx((0.0, 0.0, -9.81))
    assert out.position[2] == pytest.approx(100.0 - 4.905)


def test_free_fall_matches_ballistic_closed_form_over_12_steps():
    dt = 1.0
    k = KinematicState(position=(0.0, 0.0, 1000.0))
    for n in range(1, 13):
        k = step_kinematics(k, (0.0, 0.0, 0.0), PARAMS, dt)
        t = n * dt
        expected_z = 1000.0 - 0.5 * 9.81 * t * t
        expected_vz = -9.81 * t
        assert abs(k.position[2] - expected_z) <= 1e-9 * abs(expected_z)
        assert abs(k.velocity[2] - expected_vz) <= 1e-9 * abs(expected_vz)


def test_hover_thrust_holds_velocity():
    k = KinematicState(position=(1.0, 2.0, 50.0), velocity=(3.0, -1.0, 0.5))
    out = step_kinematics(k, hover_thrust(), PARAMS, dt=1.0)
    assert out.velocity == pytest.approx(k.velocity)
    expected = tuple(p + v for p, v in zip(k.position, k.velocity))
    assert out.position == pytest.approx(expected)


def test_double_hover_thrust_tenth_second():
    k = KinematicState()
    out = step_kinematics(k, (0.0, 0.0, 2 * PARAMS.mass_kg * 9.81), PARAMS._replace(max_thrust_n=80.0), dt=0.1)
    assert out.velocity[2] == pytest.approx(0.981)


def test_step_rejects_bad_dt_and_overthrust():
    k = KinematicState()
    with pytest.raises(InvalidInput):
        step_kinematics(k, (0.0, 0.0, 0.0), PARAMS, dt=0.0)
    with pytest.raises(InvalidInput):
        step_kinematics(k, (0.0, 0.0, PARAMS.max_thrust_n + 1.0), PARAMS, dt=1.0)


def test_thrust_is_world_frame_and_yaw_constant():
    k = KinematicState(yaw=math.pi / 2)
    # World +x thrust accelerates along world +x whatever the heading.
    out = step_kinematics(k, (PARAMS.mass_kg * 2.0, 0.0, PARAMS.mass_kg * 9.81), PARAMS, dt=1.0)
    assert out.velocity == pytest.approx((2.0, 0.0, 0.0))
    assert out.yaw == k.yaw


# -- disturbances ------------------------------------------------------------

def test_zero_covariance_disturbance_is_identity():
    model = DisturbanceModel.none()
    k = KinematicState(position=(1.0, 2.0, 3.0), velocity=(0.1, 0.2, 0.3))
    out = apply_disturbance(k, model, np.random.default_rng(0))
    assert out == k


def test_disturbance_deterministic_given_seed():
    model = DisturbanceModel(0.5, 0.2, 3.0)
    k = KinematicState()
    a = apply_disturbance(k, model, np.random.default_rng(42))
    b = apply_disturbance(k, model, np.random.default_rng(42))
    assert a == b


def test_disturbance_sample_variance_matches_covariance():
    sigma = 0.5
    model = DisturbanceModel(sigma_pos=sigma, sigma_vel=sigma, clip_sigmas=None)
    rng = np.random.default_rng(7)
    # 200k single draws: the variance's relative standard error is 0.3 %.
    draws = np.array([model.sample(rng) for _ in range(200_000)])
    variances = draws.var(axis=0)
    assert np.all(np.abs(variances - sigma**2) <= 0.02 * sigma**2)


def test_disturbance_respects_clip_bounds():
    model = DisturbanceModel(sigma_pos=1.0, sigma_vel=1.0, clip_sigmas=1.0)
    rng = np.random.default_rng(8)
    draws = np.array([model.sample(rng) for _ in range(50_000)])
    assert np.all(np.abs(draws) <= 1.0 + 1e-12)


# -- airspace checks ---------------------------------------------------------

def test_geofence_no_fences_infinite_clearance():
    assert check_geofence((0.0, 0.0, 50.0), AIRSPACE) == math.inf


def test_geofence_boundary_is_compliant():
    airspace = AIRSPACE._replace(geofences=(Geofence(center=(0.0, 0.0), radius_m=100.0),))
    clearance = check_geofence((100.0, 0.0, 50.0), airspace)
    assert clearance >= 0.0
    assert clearance == pytest.approx(0.0)


def test_geofence_intrusion_clearance():
    airspace = AIRSPACE._replace(geofences=(Geofence(center=(0.0, 0.0), radius_m=100.0),))
    clearance = check_geofence((50.0, 0.0, 30.0), airspace)
    assert not clearance >= 0.0
    assert clearance == pytest.approx(-50.0)


def test_geofence_matches_grid_oracle():
    fences = (Geofence(center=(0.0, 0.0), radius_m=40.0), Geofence(center=(90.0, 10.0), radius_m=25.0))
    airspace = AIRSPACE._replace(geofences=fences)
    rng = np.random.default_rng(3)
    for _ in range(10_000):
        p = (float(rng.uniform(-150, 200)), float(rng.uniform(-150, 150)), 50.0)
        expected = all(
            math.hypot(p[0] - f.center[0], p[1] - f.center[1]) >= f.radius_m for f in fences
        )
        assert (check_geofence(p, airspace) >= 0.0) is expected


def test_altitude_bounds_inclusive():
    assert check_altitude((0.0, 0.0, AIRSPACE.z_max_m), AIRSPACE)
    assert check_altitude((0.0, 0.0, AIRSPACE.z_min_m), AIRSPACE)
    assert not check_altitude((0.0, 0.0, AIRSPACE.z_max_m + 0.01), AIRSPACE)
    assert not check_altitude((0.0, 0.0, AIRSPACE.z_min_m - 0.01), AIRSPACE)


def test_separation_margin_inclusive():
    assert check_separation((0.0, 0.0, 0.0), [(10.0, 0.0, 0.0)], 10.0)
    assert not check_separation((0.0, 0.0, 0.0), [(9.99, 0.0, 0.0)], 10.0)
    assert check_separation((0.0, 0.0, 0.0), [], 10.0)


# -- battery -----------------------------------------------------------------

def hold(battery_pct: float, action_class: str, dt: float = 1.0, flags: SafetyFlags = SafetyFlags()) -> UavState:
    """One noiseless evolve_state step of a vehicle holding at 50 m."""
    state = UavState(kinematics=KinematicState(position=(0.0, 0.0, 50.0)), battery_pct=battery_pct, flags=flags)
    return evolve_state(state, AIRSPACE, PARAMS, DisturbanceModel.none(), quiet_rng(), dt, action_class=action_class)


@pytest.mark.parametrize("action_class", sorted(BATTERY_DRAW))
def test_battery_drains_by_action_class(action_class):
    out = hold(90.0, action_class, dt=2.0)
    assert out.battery_pct == 90.0 - 2.0 * BATTERY_DRAW[action_class]
    assert out.flags == SafetyFlags()


def test_battery_idle_zero_draw_unchanged(monkeypatch):
    monkeypatch.setitem(BATTERY_DRAW, "idle", 0.0)
    assert hold(50.0, "idle", dt=5.0).battery_pct == 50.0


def test_battery_threshold_crossing_sets_sticky_flag(monkeypatch):
    monkeypatch.setitem(BATTERY_DRAW, "maneuver", 1.0)
    out = hold(5.5, "maneuver")
    assert out.battery_pct == pytest.approx(4.5)
    assert out.flags.battery_depleted
    # Flag stays set even after a zero-draw step.
    monkeypatch.setitem(BATTERY_DRAW, "idle", 0.0)
    again = hold(50.0, "idle", flags=out.flags)
    assert again.battery_pct == 50.0
    assert again.flags.battery_depleted


def test_battery_floors_at_zero(monkeypatch):
    monkeypatch.setitem(BATTERY_DRAW, "maneuver", 1.0)
    assert hold(0.3, "maneuver").battery_pct == 0.0


def test_unknown_action_class_rejected():
    with pytest.raises(InvalidInput, match="unknown action class: 'warp'"):
        hold(50.0, "warp")


# -- closed-loop evolution ---------------------------------------------------

def quiet_rng():
    return np.random.default_rng(0)


def test_evolve_hover_only_drifts_by_disturbance():
    state = UavState(kinematics=KinematicState(position=(0.0, 0.0, 50.0)), battery_pct=90.0)
    model = DisturbanceModel(0.5, 0.2, clip_sigmas=3.0)
    out = evolve_state(state, AIRSPACE, PARAMS, model, quiet_rng(), 1.0, action_class="hover")
    drift = math.dist(out.kinematics.position, (0.0, 0.0, 50.0))
    assert drift <= 3 * 0.5 * math.sqrt(3) + 1e-9
    assert out.flags == SafetyFlags()


def test_evolve_reaches_waypoint_within_tolerance():
    state = UavState(
        kinematics=KinematicState(position=(0.0, 0.0, 60.0)),
        battery_pct=95.0,
        target=(14.0, 8.0, 60.0),
    )
    rng = quiet_rng()
    model = DisturbanceModel.none()
    for _ in range(4):
        state = evolve_state(state, AIRSPACE, PARAMS, model, rng, 1.0, action_class="maneuver")
    assert math.dist(state.kinematics.position, (14.0, 8.0, 60.0)) <= 5.0


def test_evolve_nfz_flag_is_sticky():
    airspace = AIRSPACE._replace(geofences=(Geofence(center=(30.0, 0.0), radius_m=10.0),))
    state = UavState(
        kinematics=KinematicState(position=(0.0, 0.0, 50.0)),
        battery_pct=95.0,
        target=(30.0, 0.0, 50.0),
    )
    rng = quiet_rng()
    model = DisturbanceModel.none()
    flagged = False
    for _ in range(4):
        state = evolve_state(state, airspace, PARAMS, model, rng, 1.0, action_class="maneuver")
        flagged = flagged or state.flags.nfz_violation
    assert flagged and state.flags.nfz_violation
    # Command away from the fence; the flag must remain.
    state = state._replace(target=(0.0, 0.0, 50.0))
    for _ in range(6):
        state = evolve_state(state, airspace, PARAMS, model, rng, 1.0, action_class="maneuver")
    assert state.flags.nfz_violation


def test_evolve_bit_for_bit_deterministic():
    state = UavState(
        kinematics=KinematicState(position=(0.0, 0.0, 50.0)),
        battery_pct=80.0,
        target=(10.0, -5.0, 55.0),
    )
    model = DisturbanceModel(0.5, 0.2, 3.0)

    def run(seed):
        rng = np.random.default_rng(seed)
        s = state
        for _ in range(12):
            s = evolve_state(s, AIRSPACE, PARAMS, model, rng, 1.0, action_class="maneuver")
        return s

    assert run(99) == run(99)


def test_evolve_battery_monotone_and_flags_monotone():
    state = UavState(kinematics=KinematicState(position=(0.0, 0.0, 50.0)), battery_pct=30.0)
    model = DisturbanceModel(0.5, 0.2, 3.0)
    rng = np.random.default_rng(17)
    classes = ("hover", "maneuver", "sense", "transmit", "idle")
    previous = state
    flag_count = 0
    for i in range(20):
        nxt = evolve_state(previous, AIRSPACE, PARAMS, model, rng, 1.0, action_class=classes[i % 5])
        assert nxt.battery_pct <= previous.battery_pct
        next_flags = sum(
            (nxt.flags.altitude_violation, nxt.flags.nfz_violation, nxt.flags.separation_breach, nxt.flags.battery_depleted)
        )
        assert next_flags >= flag_count
        flag_count = next_flags
        previous = nxt


def test_separation_breach_flag_from_peers():
    state = UavState(kinematics=KinematicState(position=(0.0, 0.0, 50.0)), battery_pct=90.0)
    out = evolve_state(
        state, AIRSPACE, PARAMS, DisturbanceModel.none(), quiet_rng(), 1.0,
        action_class="hover", peer_positions=((2.0, 0.0, 50.0),),
    )
    assert out.flags.separation_breach


ACTION_CYCLE = tuple(BATTERY_DRAW)


def _rebuilding_evolve_state(state, airspace, params, disturbance, rng, dt, *, action_class, peer_positions):
    """evolve_state as it was written before it kept unchanged flags: every
    step builds new SafetyFlags."""
    thrust = _control_thrust(state.kinematics, state.target, params, dt)
    kin = apply_disturbance(step_kinematics(state.kinematics, thrust, params, dt), disturbance, rng)
    battery = max(0.0, state.battery_pct - BATTERY_DRAW[action_class] * dt)
    f = state.flags
    flags = SafetyFlags(
        altitude_violation=f.altitude_violation or not check_altitude(kin.position, airspace),
        nfz_violation=f.nfz_violation or not check_geofence(kin.position, airspace) >= 0.0,
        separation_breach=f.separation_breach
        or not check_separation(kin.position, peer_positions, airspace.separation_margin_m),
        battery_depleted=f.battery_depleted or battery < BATTERY_DEPLETED_PCT,
    )
    return UavState(kin, battery, flags, state.sensors, state.target, state.landing)


def test_evolve_state_equals_the_rebuilding_form():
    # Random starts near every flag's threshold, with random sticky flags,
    # walked on for a dozen steps by both forms from equal streams.
    airspace = Airspace(20.0, 60.0, geofences=(Geofence((15.0, 0.0), 8.0),), separation_margin_m=6.0)
    model = DisturbanceModel(2.0, 1.0, 3.0)
    pick = np.random.default_rng(12)
    kept = rebuilt = 0
    for case in range(200):
        flags = SafetyFlags(*(bool(b) for b in pick.random(4) < 0.2))
        target = tuple(pick.uniform((-10.0, -10.0, 10.0), (30.0, 10.0, 70.0)).tolist()) if case % 4 else None
        state = UavState(
            kinematics=KinematicState(tuple(pick.uniform((-5.0, -5.0, 15.0), (20.0, 5.0, 65.0)).tolist())),
            battery_pct=float(pick.uniform(0.0, 12.0)),
            flags=flags,
            target=target,
            landing=bool(case % 3 == 0),
        )
        peers = (tuple(pick.uniform((-5.0, -5.0, 15.0), (20.0, 5.0, 65.0)).tolist()),)
        ours, theirs = np.random.default_rng(case), np.random.default_rng(case)
        for step in range(12):
            action_class = ACTION_CYCLE[(case + step) % len(ACTION_CYCLE)]
            a = evolve_state(state, airspace, PARAMS, model, ours, 1.0, action_class=action_class, peer_positions=peers)
            b = _rebuilding_evolve_state(state, airspace, PARAMS, model, theirs, 1.0, action_class=action_class, peer_positions=peers)
            assert a == b, (case, step)
            if a.flags is state.flags:
                kept += 1
            else:
                assert a.flags != state.flags
                rebuilt += 1
            state = a
    assert kept > 0 and rebuilt > 0
