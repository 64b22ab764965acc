from __future__ import annotations

import math

import numpy as np
import pytest

from skybench.environment import Airspace, KinematicState, UavState
from skybench.episode import A2aAck, A2aTask, McpCall, McpResult, action_to_doc, observation_to_doc
from skybench.network import NetworkState, URLLC, EMBB, classify_hard
from skybench.scenarios import SwarmContext
from skybench.scoring import match_action_observation
from skybench.tools import (
    ToolExecutor,
    default_registry,
    load_registry_extension,
    validate_args,
)

AIRSPACE = Airspace(z_min_m=20.0, z_max_m=120.0)


def mcp(name, args=None):
    """An mcp action document, as a policy sends it."""
    return {"protocol": "mcp", "name": name, "args": {} if args is None else args}


def a2a(task, to, payload=None):
    """An a2a action document, as a policy sends it."""
    return {"protocol": "a2a", "task": task, "to": to, "payload": {} if payload is None else payload}


def make_executor(calibration, peers=None):
    swarm = SwarmContext(peers=peers or {"P2": ((5.0, 5.0, 50.0),)}, weather={"conditions": "clear", "wind_mps": 3.0})
    return ToolExecutor(default_registry(), calibration, AIRSPACE, swarm)


def normal_net(slice_name=EMBB):
    return NetworkState(slice_name, 12.0, 2.0, 0.1, 400.0, 0.4)


def hard_net(loss=50.0):
    return NetworkState("mMTC", 80.0, 10.0, loss, 2.0, 0.9)


def base_state():
    return UavState(kinematics=KinematicState(position=(10.0, 20.0, 55.0)), battery_pct=87.4)


def test_read_telemetry_is_pure_projection(calibration):
    executor = make_executor(calibration)
    state = base_state()
    obs, new_state, net = executor.execute_mcp(mcp("read_telemetry"), state, normal_net(), np.random.default_rng(0))
    assert new_state == state
    assert net == normal_net()
    assert obs["tool"] == "read_telemetry"
    assert obs["result"]["battery_pct"] == 87.4
    assert obs["result"]["position"] == [10.0, 20.0, 55.0]
    assert obs["result"]["network"]["slice"] == EMBB


def test_switch_network_slice_resamples_target_slice(calibration):
    executor = make_executor(calibration)
    state = base_state()
    before = normal_net(EMBB)
    obs, new_state, net = executor.execute_mcp(
        mcp("switch_network_slice", {"slice": URLLC}), state, before, np.random.default_rng(1)
    )
    assert new_state == state  # vehicle untouched
    assert net.slice == URLLC
    assert net != before
    assert obs["result"]["status"] == "switched"


def test_set_altitude_clamps_to_envelope(calibration):
    executor = make_executor(calibration)
    state = base_state()
    obs, new_state, _ = executor.execute_mcp(
        mcp("set_altitude", {"z": AIRSPACE.z_max_m + 50.0}), state, normal_net(), np.random.default_rng(2)
    )
    assert new_state.target[2] == AIRSPACE.z_max_m
    assert obs["result"]["target"][2] == AIRSPACE.z_max_m
    obs, new_state, _ = executor.execute_mcp(
        mcp("set_altitude", {"z": 1.0}), state, normal_net(), np.random.default_rng(2)
    )
    assert new_state.target[2] == AIRSPACE.z_min_m


def test_set_waypoint_stores_clamped_target(calibration):
    executor = make_executor(calibration)
    obs, state, _ = executor.execute_mcp(
        mcp("set_waypoint", {"x": 5.0, "y": -3.0, "z": 500.0}), base_state(), normal_net(), np.random.default_rng(3)
    )
    assert state.target == (5.0, -3.0, AIRSPACE.z_max_m)
    assert obs["result"]["status"] == "accepted"


def test_activate_sensor_and_payload_tools_do_not_move_the_vehicle(calibration):
    executor = make_executor(calibration)
    state = base_state()
    obs, with_sensor, _ = executor.execute_mcp(
        mcp("activate_sensor", {"sensor": "Thermal"}), state, normal_net(), np.random.default_rng(4)
    )
    assert "Thermal" in with_sensor.sensors
    assert with_sensor.kinematics == state.kinematics
    obs, after_capture, _ = executor.execute_mcp(
        mcp("capture_image", {"sensor": "Thermal"}), with_sensor, normal_net(), np.random.default_rng(5)
    )
    assert after_capture.kinematics == state.kinematics
    assert obs["result"]["status"] == "captured"
    assert 0.0 <= obs["result"]["quality"] <= 1.0


def test_land_sets_floor_target_and_marker(calibration):
    executor = make_executor(calibration)
    obs, state, _ = executor.execute_mcp(mcp("land"), base_state(), normal_net(), np.random.default_rng(6))
    assert state.landing
    assert state.target == (10.0, 20.0, AIRSPACE.z_min_m)


def test_unknown_tool_degrades_not_raises(calibration):
    executor = make_executor(calibration)
    state = base_state()
    obs, new_state, net = executor.execute_mcp(mcp("warp_drive"), state, normal_net(), np.random.default_rng(7))
    assert obs["tool"] == "warp_drive"
    assert obs["result"]["status"] == "failed"
    assert new_state == state and net == normal_net()


def test_bad_args_degrade(calibration):
    executor = make_executor(calibration)
    state = base_state()
    for call in (
        mcp("set_waypoint", {"x": 1.0, "y": 2.0}),  # missing z
        mcp("set_waypoint", {"x": "far", "y": 2.0, "z": 3.0}),  # wrong type
        mcp("switch_network_slice", {"slice": "6G"}),  # bad enum
        mcp("read_telemetry", {"extra": 1}),  # unexpected arg
    ):
        obs, new_state, _ = executor.execute_mcp(call, state, normal_net(), np.random.default_rng(8))
        assert obs["result"]["status"] == "failed", call
        assert new_state == state


def test_validate_args_messages():
    registry = default_registry()
    assert validate_args(registry["read_telemetry"], {}) is None
    assert "missing" in validate_args(registry["set_altitude"], {})
    assert "must be number" in validate_args(registry["set_altitude"], {"z": "high"})


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan, 10**400], ids=["inf", "-inf", "nan", "1e400"])
def test_validate_args_refuses_numbers_a_float_cannot_hold(x):
    spec = default_registry()["set_waypoint"]
    assert validate_args(spec, {"x": 10.0, "y": 5, "z": 60.0}) is None
    assert validate_args(spec, {"x": x, "y": 5, "z": 60.0}) == "argument 'x' must be number"


def test_a2a_ok_and_payload_positions(calibration):
    executor = make_executor(calibration, peers={"P2": ((5.0, 5.0, 50.0), (6.0, 5.0, 50.0))})
    ack = executor.execute_a2a(a2a("collision_avoidance", "P2", {}), normal_net(), np.random.default_rng(9), turn_index=1)
    assert ack["status"] == "ok"
    assert ack["from"] == "P2"
    assert ack["payload"]["peer_position"] == [6.0, 5.0, 50.0]
    status = executor.execute_a2a(a2a("swarm_status_check", "P2", {}), normal_net(), np.random.default_rng(10))
    assert status["payload"]["status"] == "nominal"
    weather = executor.execute_a2a(a2a("request_weather_update", "P2", {}), normal_net(), np.random.default_rng(11))
    assert weather["payload"]["conditions"] == "clear"


def test_a2a_unknown_peer_fails(calibration):
    executor = make_executor(calibration)
    ack = executor.execute_a2a(a2a("collision_avoidance", "P9", {}), normal_net(), np.random.default_rng(12))
    assert ack["status"] == "failed"


def test_a2a_degraded_fraction_matches_loss(calibration):
    executor = make_executor(calibration)
    rng = np.random.default_rng(13)
    net = hard_net(loss=50.0)
    assert classify_hard(net)
    n = 10_000
    degraded = sum(
        executor.execute_a2a(a2a("swarm_status_check", "P2", {}), net, rng)["status"] == "degraded"
        for _ in range(n)
    )
    assert degraded / n == pytest.approx(0.50, abs=0.02)


def test_a2a_never_degrades_under_normal_network(calibration):
    executor = make_executor(calibration)
    rng = np.random.default_rng(14)
    net = normal_net()
    assert all(
        executor.execute_a2a(a2a("swarm_status_check", "P2", {}), net, rng)["status"] == "ok"
        for _ in range(500)
    )


def test_match_action_observation_cases():
    def match(action, observation):
        return match_action_observation(action_to_doc(action), observation_to_doc(observation))

    assert match(McpCall("read_telemetry"), McpResult("read_telemetry", {}))
    assert not match(McpCall("set_waypoint"), McpResult("read_telemetry", {}))
    assert match(A2aTask("collision_avoidance", "P2", {}), A2aAck("collision_avoidance", "P2", "ok", {}))
    assert not match(A2aTask("collision_avoidance", "P2", {}), A2aAck("collision_avoidance", "P3", "ok", {}))
    assert not match(None, McpResult("read_telemetry", {}))
    assert not match(McpCall("read_telemetry"), None)


def test_mcp_execution_deterministic(calibration):
    executor = make_executor(calibration)
    state = base_state()

    def capture(seed):
        return executor.execute_mcp(
            mcp("capture_image", {"sensor": "RGB"}), state, normal_net(), np.random.default_rng(seed)
        )[0]

    assert capture(99) == capture(99)


def test_registry_extension_roundtrip(calibration):
    registry = load_registry_extension(
        {"tools": [{"name": "ping_relay", "protocol": "mcp", "action_class": "transmit", "effect": "payload_only",
                    "args": [{"name": "peer"}]}]}
    )
    assert "ping_relay" in registry
    assert registry["read_telemetry"].action_class == "transmit"
    # A registered tool with no handler of its own echoes its arguments.
    executor = ToolExecutor(registry, calibration, AIRSPACE)
    state, net = base_state(), normal_net()
    obs, after, net_after = executor.execute_mcp(mcp("ping_relay", {"peer": "P2"}), state, net, np.random.default_rng(0))
    assert obs == {"tool": "ping_relay", "result": {"status": "ok", "args": {"peer": "P2"}}}
    assert (after, net_after) == (state, net)


def test_every_registered_mcp_tool_yields_schema_valid_observation(calibration):
    from jsonschema import Draft202012Validator

    from skybench.episode import canonical_value, load_schema

    schema = load_schema()
    observation_schema = {"$ref": "#/$defs/observation", "$defs": schema["$defs"]}
    validator = Draft202012Validator(observation_schema)
    valid_args = {
        "read_telemetry": {},
        "set_waypoint": {"x": 5.0, "y": 5.0, "z": 50.0},
        "navigate_to": {"x": 1.0, "y": 1.0, "z": 40.0},
        "set_altitude": {"z": 45.0},
        "activate_sensor": {"sensor": "Thermal"},
        "capture_image": {"sensor": "RGB"},
        "switch_network_slice": {"slice": "URLLC"},
        "check_geofence": {},
        "execute_maneuver": {"maneuver": "orbit"},
        "land": {},
        "hover": {},
    }
    executor = make_executor(calibration)
    registry = default_registry()
    assert set(valid_args) == set(registry)
    for name, args in valid_args.items():
        obs, _, _ = executor.execute_mcp(mcp(name, args), base_state(), normal_net(), np.random.default_rng(1))
        errors = list(validator.iter_errors(canonical_value(obs)))
        assert not errors, (name, errors)
    ack = executor.execute_a2a(a2a("swarm_status_check", "P2", {}), normal_net(), np.random.default_rng(2))
    assert not list(validator.iter_errors(canonical_value(ack)))


def test_registry_file_loading(tmp_path):
    import json

    from skybench.tools import load_registry_extension

    path = tmp_path / "tools.json"
    path.write_text(json.dumps({"tools": [{"name": "deploy_beacon", "action_class": "transmit"}]}))
    registry = load_registry_extension(json.loads(path.read_text()))
    assert "deploy_beacon" in registry
    assert len(registry) == len(default_registry()) + 1
