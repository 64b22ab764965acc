"""Deterministic evaluation harness for conversational UAV missions over 6G slices."""

from .agents import (
    AdaptiveActionFilter,
    AdaptivePilot,
    GreedyStreamer,
    SafePilot,
    SubprocessPolicy,
    UserSimulator,
    make_agent,
    run_episode,
)
from .environment import (
    Airspace,
    DisturbanceModel,
    Geofence,
    KinematicState,
    SafetyFlags,
    UavState,
    VehicleParams,
    evolve_state,
    step_kinematics,
)
from .episode import (
    ValidationReport,
    check_stub,
    failure_stub,
    line_to_record,
    record_to_line,
    validate_episode,
)
from .errors import (
    CalibrationError,
    DegenerateInput,
    InvalidInput,
    ParseError,
    ScenarioError,
    SkybenchError,
)
from .network import (
    NetworkState,
    SliceCalibration,
    calibrate,
    classify_hard,
    default_calibration,
    evolve_network,
    sample_network_state,
)
from .scenarios import Scenario, builtin_scenarios, load_scenario
from .scoring import (
    ModelAggregate,
    PillarScores,
    ScoringContext,
    aggregate_model,
    composite,
    compute_t_opt,
    generation_efficiency,
    score_episode,
)
from .tools import SwarmContext, ToolExecutor, ToolSpec, default_registry, match_action_observation

__version__ = "0.1.0"


def __getattr__(name: str):
    """The typed record classes, created on first use (see skybench.episode)."""
    from . import episode

    if name in episode.RECORD_CLASSES:
        return getattr(episode, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
