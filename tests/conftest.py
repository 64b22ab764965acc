from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import skybench
from skybench.network import default_calibration
from skybench.scenarios import builtin_scenarios
from skybench.tools import default_registry


@pytest.fixture(scope="session")
def calibration():
    return default_calibration()


@pytest.fixture(scope="session")
def scenarios():
    return builtin_scenarios()


@pytest.fixture(scope="session")
def scenario_by_id(scenarios):
    return {s.scenario_id: s for s in scenarios}


@pytest.fixture(scope="session")
def registry():
    return default_registry()


@pytest.fixture
def fresh_python():
    """Run a Python script in a fresh interpreter that imports skybench from
    this checkout; returns (exit code, stdout, stderr).

    The interpreter gets a session of its own, and the whole session, with
    any child it started, is killed when the script ends or overruns
    ``timeout`` seconds (an overrun fails the test).
    """
    env = {**os.environ, "PYTHONPATH": str(Path(skybench.__file__).resolve().parents[1])}

    def run(script: str, timeout: float = 60.0) -> tuple[int, str, str]:
        proc = subprocess.Popen(
            [sys.executable, "-c", script], env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            out = None
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if out is None:
            proc.communicate()
            pytest.fail(f"script ran past {timeout} s")
        return proc.returncode, out, err

    return run
