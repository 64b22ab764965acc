from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from skybench.environment import (
    BATTERY_DRAW,
    Airspace,
    DisturbanceModel,
    Geofence,
    KinematicState,
    NavCommand,
    SafetyFlags,
    UavState,
    VehicleParams,
    apply_disturbance,
    check_altitude,
    check_geofence,
    check_separation,
    evolve_state,
    step_kinematics,
    update_battery,
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
    out = step_kinematics(k, (0.0, 0.0, 2 * PARAMS.mass_kg * 9.81), replace(PARAMS, max_thrust_n=80.0), dt=0.1)
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
    draws = model.sample(np.random.default_rng(7), size=1_000_000)
    variances = draws.var(axis=0)
    assert np.all(np.abs(variances - sigma**2) <= 0.02 * sigma**2)


def test_disturbance_respects_clip_bounds():
    model = DisturbanceModel(sigma_pos=1.0, sigma_vel=1.0, clip_sigmas=1.0)
    draws = model.sample(np.random.default_rng(8), size=50_000)
    assert np.all(np.abs(draws) <= 1.0 + 1e-12)


# -- airspace checks ---------------------------------------------------------

def test_geofence_no_fences_infinite_clearance():
    check = check_geofence((0.0, 0.0, 50.0), AIRSPACE)
    assert check.compliant
    assert check.min_clearance_m == math.inf


def test_geofence_boundary_is_compliant():
    airspace = replace(AIRSPACE, geofences=(Geofence(center=(0.0, 0.0), radius_m=100.0),))
    check = check_geofence((100.0, 0.0, 50.0), airspace)
    assert check.compliant
    assert check.min_clearance_m == pytest.approx(0.0)


def test_geofence_intrusion_clearance():
    airspace = replace(AIRSPACE, geofences=(Geofence(center=(0.0, 0.0), radius_m=100.0),))
    check = check_geofence((50.0, 0.0, 30.0), airspace)
    assert not check.compliant
    assert check.min_clearance_m == pytest.approx(-50.0)


def test_geofence_matches_grid_oracle():
    fences = (Geofence(center=(0.0, 0.0), radius_m=40.0), Geofence(center=(90.0, 10.0), radius_m=25.0))
    airspace = replace(AIRSPACE, geofences=fences)
    rng = np.random.default_rng(3)
    for _ in range(10_000):
        p = (float(rng.uniform(-150, 200)), float(rng.uniform(-150, 150)), 50.0)
        expected = all(
            math.hypot(p[0] - f.center[0], p[1] - f.center[1]) >= f.radius_m for f in fences
        )
        assert check_geofence(p, airspace).compliant is expected


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

def test_battery_idle_zero_draw_unchanged(monkeypatch):
    monkeypatch.setitem(BATTERY_DRAW, "idle", 0.0)
    state = UavState(battery_pct=50.0)
    assert update_battery(state, "idle", dt=5.0).battery_pct == 50.0


def test_battery_threshold_crossing_sets_sticky_flag(monkeypatch):
    monkeypatch.setitem(BATTERY_DRAW, "maneuver", 1.0)
    state = UavState(battery_pct=5.5)
    out = update_battery(state, "maneuver", dt=1.0)
    assert out.battery_pct == pytest.approx(4.5)
    assert out.flags.battery_depleted
    # Flag stays set even after a zero-draw update.
    monkeypatch.setitem(BATTERY_DRAW, "idle", 0.0)
    again = update_battery(out, "idle", dt=1.0)
    assert again.flags.battery_depleted


def test_battery_floors_at_zero(monkeypatch):
    monkeypatch.setitem(BATTERY_DRAW, "maneuver", 1.0)
    out = update_battery(UavState(battery_pct=0.3), "maneuver", dt=1.0)
    assert out.battery_pct == 0.0


def test_unknown_action_class_rejected():
    with pytest.raises(InvalidInput):
        update_battery(UavState(), "warp", dt=1.0)


# -- closed-loop evolution ---------------------------------------------------

def quiet_rng():
    return np.random.default_rng(0)


def test_evolve_hover_only_drifts_by_disturbance():
    state = UavState(kinematics=KinematicState(position=(0.0, 0.0, 50.0)), battery_pct=90.0)
    model = DisturbanceModel(0.5, 0.2, clip_sigmas=3.0)
    out = evolve_state(state, AIRSPACE, PARAMS, model, quiet_rng(), 1.0, action_class="hover")
    drift = math.dist(out.kinematics.position, (0.0, 0.0, 50.0))
    assert drift <= 3 * 0.5 * math.sqrt(3) + 1e-9
    assert not out.flags.any()


def test_evolve_reaches_waypoint_within_tolerance():
    state = UavState(
        kinematics=KinematicState(position=(0.0, 0.0, 60.0)),
        battery_pct=95.0,
        command=NavCommand(target=(14.0, 8.0, 60.0)),
    )
    rng = quiet_rng()
    model = DisturbanceModel.none()
    for _ in range(4):
        state = evolve_state(state, AIRSPACE, PARAMS, model, rng, 1.0, action_class="maneuver")
    assert math.dist(state.kinematics.position, (14.0, 8.0, 60.0)) <= 5.0


def test_evolve_nfz_flag_is_sticky():
    airspace = replace(AIRSPACE, geofences=(Geofence(center=(30.0, 0.0), radius_m=10.0),))
    state = UavState(
        kinematics=KinematicState(position=(0.0, 0.0, 50.0)),
        battery_pct=95.0,
        command=NavCommand(target=(30.0, 0.0, 50.0)),
    )
    rng = quiet_rng()
    model = DisturbanceModel.none()
    flagged = False
    for _ in range(4):
        state = evolve_state(state, airspace, PARAMS, model, rng, 1.0, action_class="maneuver")
        flagged = flagged or state.flags.nfz_violation
    assert flagged and state.flags.nfz_violation
    # Command away from the fence; the flag must remain.
    state = replace(state, command=NavCommand(target=(0.0, 0.0, 50.0)))
    for _ in range(6):
        state = evolve_state(state, airspace, PARAMS, model, rng, 1.0, action_class="maneuver")
    assert state.flags.nfz_violation


def test_evolve_bit_for_bit_deterministic():
    state = UavState(
        kinematics=KinematicState(position=(0.0, 0.0, 50.0)),
        battery_pct=80.0,
        command=NavCommand(target=(10.0, -5.0, 55.0)),
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


def test_safety_flags_union():
    a = SafetyFlags(altitude_violation=True)
    b = SafetyFlags(nfz_violation=True)
    merged = a.union(b)
    assert merged.altitude_violation and merged.nfz_violation and not merged.separation_breach
