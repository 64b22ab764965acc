"""The value types that check or derive their fields are NamedTuples whose
every construction path runs the check: positional, keyword and default
construction, _replace and _make.  Each refusal keeps the type and the
message it had when these types were frozen dataclasses."""

from __future__ import annotations

import math

import numpy as np
import pytest

from skybench.cli import RunConfig
from skybench.environment import Airspace, DisturbanceModel, Geofence, VehicleParams
from skybench.errors import InvalidInput, ScenarioError
from skybench.network import DEFAULT_TARGETS, URLLC, FieldModel, SliceModel, calibrate
from skybench.scenarios import SwarmContext
from skybench.scoring import ScoringContext

FENCE = Geofence((1.0, 2.0), 5.0)
LOGNORMAL = FieldModel("lognormal", (0.0, 1.0), (0.0, 10.0))
CLEAR = {"conditions": "clear", "wind_mps": 3.0}

# class: (positional fields, the default value and what it equals, a bad
# field value, and the error it raises)
CASES = {
    "VehicleParams": (
        VehicleParams, (2.5, 40.0, 12.0), (VehicleParams(), (2.0, 60.0, 15.0)),
        {"max_thrust_n": 0.0}, (InvalidInput, "max_thrust_n must be positive, got 0.0"),
    ),
    "DisturbanceModel": (
        DisturbanceModel, (0.5, 0.2, 3.0), (DisturbanceModel.none(), (0.0, 0.0, None)),
        {"sigma_vel": math.nan}, (InvalidInput, "disturbance sigmas and clip_sigmas must be finite and non-negative"),
    ),
    "Geofence": (
        Geofence, ((1.0, 2.0), 5.0), (Geofence((0.0, 0.0), 1.0), ((0.0, 0.0), 1.0)),
        {"radius_m": 0.0}, (InvalidInput, "geofence radius must be positive, got 0.0"),
    ),
    "Airspace": (
        Airspace, (0.0, 120.0, (FENCE,), 5.0), (Airspace(0.0, 120.0), (0.0, 120.0, (), 10.0)),
        {"separation_margin_m": math.inf}, (InvalidInput, "separation_margin_m must be finite and at least 0, got inf"),
    ),
    "FieldModel": (
        FieldModel, ("beta", (2.0, 3.0), (0.0, 1.0)), (LOGNORMAL, ("lognormal", (0.0, 1.0), (0.0, 10.0))),
        {"family": "gamma"}, (ValueError, "unknown field family: gamma"),
    ),
    "SwarmContext": (
        SwarmContext, ({"p1": ((0.0, 0.0, 50.0),)}, {"wind_mps": 1.0}), (SwarmContext(), ({}, CLEAR)),
        {"peers": 5}, (TypeError, "'int' object is not iterable"),
    ),
    "RunConfig": (
        RunConfig, ("builtin", ("safe_pilot",), 3, 7, (1, 2), "out", 2, None, None, True, ()),
        (RunConfig(), ("builtin", ("adaptive_pilot", "greedy_streamer", "safe_pilot"), 50, 42,
                       (42, 77, 101, 2025, 1337), "runs", 1, None, None, False, ())),
        {"parallel": 0}, (ScenarioError, "parallel must be at least 1"),
    ),
    "ScoringContext": (
        ScoringContext, (8,), (ScoringContext(), (10,)),
        {"t_opt": 0}, (ValueError, "t_opt must be at least 1"),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_construction_of_a_checked_value_type_runs_its_check(name):
    cls, values, (default, default_fields), bad, (error, message) = CASES[name]
    value = cls(*values)
    assert value == cls(**dict(zip(cls._fields, values))) == cls._make(values) == value._replace()
    assert type(value._replace()) is cls and repr(value).startswith(f"{name}(")
    assert tuple(default) == default_fields
    if name != "SwarmContext":  # its mappings are dicts
        assert hash(value) == hash(cls(*values))
    with pytest.raises(error) as made:
        cls(**{**value._asdict(), **bad})
    with pytest.raises(error) as replaced:
        value._replace(**bad)
    with pytest.raises(error) as made_from_values:
        cls._make(tuple(bad.get(field, v) for field, v in zip(cls._fields, values)))
    assert str(made.value) == str(replaced.value) == str(made_from_values.value) == message


def test_swarm_context_copies_its_mappings_on_every_path():
    peers = {"p1": ((0.0, 0.0, 50.0),)}
    swarm = SwarmContext(peers)
    peers["p2"] = ((1.0, 1.0, 50.0),)
    assert swarm == ({"p1": ((0.0, 0.0, 50.0),)}, CLEAR)
    assert swarm._replace(weather=None).weather == CLEAR
    assert swarm._replace(peers=None).peers == {}


def test_slice_model_draws_follow_its_fields_after_a_replacement():
    model = calibrate(DEFAULT_TARGETS).model(URLLC)
    assert isinstance(model, SliceModel)
    flat = LOGNORMAL._replace(params=(1.0, 0.0))  # always e
    replaced = model._replace(latency=flat)
    assert replaced.latency is flat and repr(replaced.draws[1:]) == repr(model.draws[1:])
    draw, low, high = replaced.draws[0]
    assert (draw(np.random.default_rng(0)), low, high) == (math.e, 0.0, 10.0)
    assert model.draws[0][0](np.random.default_rng(0)) != math.e
