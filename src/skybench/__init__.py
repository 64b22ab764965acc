"""Deterministic evaluation harness for conversational UAV missions over 6G slices.

Importing the package loads none of its modules: each name below is imported
from its home module on first access, so a command pays only for the modules
it runs.
"""

__version__ = "0.1.0"

# Each exported name's home module.
_EXPORTS = {
    "agents": (
        "AdaptiveActionFilter", "AdaptivePilot", "GreedyStreamer", "SafePilot", "SubprocessPolicy",
        "UserSimulator", "make_agent", "run_episode",
    ),
    "environment": (
        "Airspace", "DisturbanceModel", "Geofence", "KinematicState", "SafetyFlags", "UavState",
        "VehicleParams", "evolve_state", "step_kinematics",
    ),
    "episode": (
        "ValidationReport", "check_stub", "failure_stub", "line_to_record", "record_to_line",
        "validate_episode",
    ),
    "errors": (
        "CalibrationError", "DegenerateInput", "InvalidInput", "ParseError", "ScenarioError", "SkybenchError",
    ),
    "network": (
        "NetworkState", "SliceCalibration", "calibrate", "classify_hard", "default_calibration",
        "evolve_network", "sample_network_state",
    ),
    "scenarios": ("Scenario", "SwarmContext", "builtin_scenarios", "load_scenario"),
    "scoring": (
        "ModelAggregate", "PillarScores", "ScoringContext", "aggregate_model", "composite", "compute_t_opt",
        "generation_efficiency", "match_action_observation", "score_episode",
    ),
    "tools": ("ToolExecutor", "ToolSpec", "default_registry"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    """An exported name, or a typed record class (see skybench.episode),
    imported from its home module on first access."""
    import importlib

    home = _HOME.get(name)
    if home is None:
        episode = importlib.import_module(".episode", __name__)
        if name not in episode.RECORD_CLASSES:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        home = "episode"
    return getattr(importlib.import_module("." + home, __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
