"""Machine-speed probe that the stage and set-up times are scaled by.

The benchmark runs on a shared 2-CPU virtual machine whose speed changes
under it: the same fixed piece of pure-Python work takes anywhere from 15 to
43 ms, switching within a fraction of a second, and how long the machine
stays fast or slow drifts over minutes.  A stage's wall time moves with it
(correlation 0.81 between a stage call and the probes made right before and
after it).  So each timed call is bracketed by one probe before and one
after, run in the same process but outside the timed interval, and the
reported time is the call's wall time scaled to a machine on which the
probe takes REFERENCE_S:

    scaled = seconds * REFERENCE_S / mean(probe before, probe after)

That holds for a stage run by one thread, whose time follows the probes
around it.  The cold start (in another process, reading files and faulting
pages in) and the --parallel 2 stages (two threads on both CPUs) do not
follow their own probes closely (log-log slopes 0.33 and 0.12 call by call),
but whole runs do follow the run's median probe, at about half its strength
(run-level slopes 0.53-0.90 and 0.57-0.61 over ten runs).  Those metrics are
the run's raw median scaled by the square root of the run's speed ratio:

    run_scaled = median seconds * (REFERENCE_S / median probe of the run) ** 0.5

A change to the program cannot move the probe: it uses only the standard
library (JSON parse, walk and sorted dump of a fixed document, the kind of
interpreter work the program's validation and canonical dumps do).
"""

from __future__ import annotations

import json
import statistics
import time

# Typical probe time on the 2-CPU machine the benchmark was built on; a
# scaled time reads in seconds of that machine at its typical speed.
REFERENCE_S = 0.030
RUN_EXPONENT = 0.5
ROUNDS = 40

_DOC = {"items": [{f"k{i}": [i, i * 0.5, f"s{i}", {"x": i, "y": [1, 2, 3]}]} for i in range(60)]}
_TEXT = json.dumps(_DOC, sort_keys=True)


def _walk(obj) -> int:
    if isinstance(obj, dict):
        return sum(_walk(v) for v in obj.values()) + len(obj)
    if isinstance(obj, list):
        return sum(_walk(v) for v in obj)
    return 1


def probe() -> float:
    """Seconds for one fixed piece of stdlib work."""
    t0 = time.perf_counter()
    for _ in range(ROUNDS):
        doc = json.loads(_TEXT)
        _walk(doc)
        json.dumps(doc, sort_keys=True)
    return time.perf_counter() - t0


def scaled(seconds: float, probe_s: float) -> float:
    return seconds * REFERENCE_S / probe_s


def run_scaled(seconds: float, run_probe_s: float) -> float:
    return seconds * (REFERENCE_S / run_probe_s) ** RUN_EXPONENT


def scaled_median(samples: list[tuple[float, float]]) -> float:
    """Median over (seconds, probe_s) samples of the scaled time."""
    return statistics.median(scaled(s, p) for s, p in samples)
