"""Cold-start probe, run in a fresh interpreter once per setup_s sample.

Times what every CLI invocation pays before its first record: importing
skybench (and with it numpy and jsonschema), building the default
calibration with its Monte-Carlo verification, loading the built-in
scenarios, and compiling the validator on the first validated record.
Prints the seconds as the only line of its output.
"""

import time

_t0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import skybench.cli  # noqa: E402,F401
from skybench.episode import validate_episode  # noqa: E402
from skybench.network import default_calibration  # noqa: E402
from skybench.scenarios import builtin_scenarios  # noqa: E402


def _first_record() -> dict:
    """A small episode that passes the shipped schema and every rule."""
    net = {"slice": "URLLC", "latency_ms": 7.0, "jitter_ms": 1.0, "loss_pct": 0.05,
           "throughput_mbps": 95.0, "edge_load": 0.36}
    turns = []
    for i in range(8):
        if i % 2 == 0:
            turns.append({"role": "user", "intent": "report mission status", "network": net})
        else:
            turns.append({
                "role": "agent", "intent": "reading telemetry", "network": net,
                "action": {"protocol": "mcp", "name": "read_telemetry", "args": {}},
                "observation": {"tool": "read_telemetry", "result": {"status": "ok"}},
            })
    return {
        "episode_id": "probe-0000",
        "metadata": {"model": "probe", "seed": 42, "scenario_id": "S01", "gen_time_s": 1.0,
                     "attempts_used": 1, "prompt_tokens": 10, "completion_tokens": 20,
                     "total_tokens": 30, "timestamp": "1970-01-01T00:00:00Z"},
        "turns": turns,
        "final_state": {"position": [0.0, 0.0, 60.0], "velocity": 0.0, "yaw": 0.0, "battery": 90.0,
                        "mission_completed": True, "altitude_violation": False, "nfz_violation": False,
                        "separation_breach": False, "battery_depleted": False},
    }


default_calibration()
builtin_scenarios()
if not validate_episode(_first_record()).valid:
    raise SystemExit("cold-start probe record was rejected")
print(time.perf_counter() - _t0)
