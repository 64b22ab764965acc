"""Deterministic evaluation harness for conversational UAV missions over 6G slices."""

from .agents import (
    AdaptiveActionFilter,
    AdaptivePilot,
    AgentPolicy,
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
    A2aAck,
    A2aTask,
    Episode,
    EpisodeMetadata,
    FailureStub,
    FinalState,
    McpCall,
    McpResult,
    Turn,
    ValidationReport,
    line_to_record,
    make_failure_stub,
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
from .scenarios import Scenario, builtin_scenarios, load_scenario, load_scenario_file
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
