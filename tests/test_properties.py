"""Properties of the determinism contract, drawn by hypothesis over small
configurations of the built-in scenarios and agents.

P1: the corpus and manifest bytes do not depend on the --parallel degree.
P2: a run over what a damaged or killed run left, with the same
configuration, gives the bytes of a fresh run: a corpus with lines deleted
or cut at any byte next to its manifest, a prefix of the corpus cut at any
byte and left as the partial file of a killed run, and both together, as a
killed resume leaves them.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path
from typing import NamedTuple

from hypothesis import given, settings, strategies as st

import skybench
from skybench.cli import CORPUS_NAME, EXIT_OK, MANIFEST_NAME, RunConfig, cmd_generate

BUILTIN_FILES = sorted((Path(skybench.__file__).with_name("data") / "scenarios").glob("*.json"))
AGENTS = ("adaptive_pilot", "greedy_streamer", "safe_pilot")
SEEDS = st.integers(0, 2**64 - 1)


class Spec(NamedTuple):
    scenario_files: tuple[Path, ...]
    agents: tuple[str, ...]
    episodes_per_scenario: int
    seed: int
    episode_seed_set: tuple[int, ...]
    parallel: int


# At most 3 scenarios x 3 agents x 4 episodes: 36 records an example.
specs = st.builds(
    Spec,
    st.lists(st.sampled_from(BUILTIN_FILES), min_size=1, max_size=3, unique=True).map(tuple),
    st.lists(st.sampled_from(AGENTS), min_size=1, max_size=3, unique=True).map(tuple),
    st.integers(1, 4),
    SEEDS,
    st.lists(SEEDS, min_size=1, max_size=5).map(tuple),
    st.integers(1, 3),
)


def _generate(spec: Spec, work: Path, out: str, parallel: int) -> tuple[bytes, bytes]:
    """Generate spec's corpus into work/out; (corpus bytes, manifest bytes)."""
    scenarios = work / "scenarios"
    if not scenarios.exists():
        scenarios.mkdir()
        # Files load in name order: the drawn order.
        for n, path in enumerate(spec.scenario_files):
            shutil.copyfile(path, scenarios / f"{n}.json")
    config = RunConfig(
        scenarios=str(scenarios), agents=spec.agents, episodes_per_scenario=spec.episodes_per_scenario,
        seed=spec.seed, episode_seed_set=spec.episode_seed_set, out=str(work / out), parallel=parallel,
        canonical=True,
    )
    assert cmd_generate(config) == EXIT_OK
    return (work / out / CORPUS_NAME).read_bytes(), (work / out / MANIFEST_NAME).read_bytes()


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(specs)
def test_p1_the_bytes_do_not_depend_on_the_parallel_degree(spec):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        assert _generate(spec, work, "at_k", spec.parallel) == _generate(spec, work, "at_1", 1)


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(specs, st.data())
def test_p2_a_rerun_over_a_damaged_or_killed_run_gives_the_fresh_bytes(spec, data):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        fresh = _generate(spec, work, "run", 1)
        corpus, manifest = fresh
        out = work / "run"
        lines = corpus.splitlines(keepends=True)
        deleted = data.draw(st.sets(st.integers(0, len(lines) - 1)), label="deleted lines")
        (out / CORPUS_NAME).write_bytes(b"".join(line for k, line in enumerate(lines) if k not in deleted))
        assert _generate(spec, work, "run", spec.parallel) == fresh
        cut = data.draw(st.integers(0, len(corpus)), label="corpus cut at byte")
        (out / CORPUS_NAME).write_bytes(corpus[:cut])
        assert _generate(spec, work, "run", spec.parallel) == fresh
        # A killed run leaves no manifest of its own: only the partial file,
        # whose name holds the configuration.
        cut = data.draw(st.integers(0, len(corpus)), label="partial file cut at byte")
        (out / CORPUS_NAME).unlink()
        (out / MANIFEST_NAME).unlink()
        partial = out / f"{CORPUS_NAME}.{json.loads(manifest)['config_hash']}.partial"
        partial.write_bytes(corpus[:cut])
        assert _generate(spec, work, "run", spec.parallel) == fresh
        assert not partial.exists()
        # A killed resume: its partial file next to the damaged corpus it
        # resumed, with that corpus's manifest.
        (out / CORPUS_NAME).write_bytes(b"".join(line for k, line in enumerate(lines) if k not in deleted))
        partial.write_bytes(corpus[:cut])
        assert _generate(spec, work, "run", spec.parallel) == fresh
