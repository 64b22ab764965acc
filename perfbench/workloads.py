"""Workload definitions shared by run.py and the workload child.

This module never imports skybench: run.py uses it to know what a round
was asked to do, and the checks must not borrow the program's own code.

Every workload runs the same seven CLI stages per round, on inputs made
from the round's own seed (round_seed):

    generate, resume, score (--strict), score_lenient, aggregate, analytics, validate

* builtin_serial: serial generate of the built-in job list; resume re-runs the
  same command over the finished corpus (nothing is missing).
* generate_parallel_resume: generate --parallel 2; a seeded half of the
  corpus lines is deleted (manifest kept) and generate --parallel 2 resumes.
* rescore_mixed: generate/resume build a smaller seeded base corpus; the
  benchmark turns it into a mixed corpus the generator did not write, and the
  downstream stages run on that.
"""

from __future__ import annotations

import json
import random

AGENTS = ("adaptive_pilot", "greedy_streamer", "safe_pilot")
EPISODE_SEED_SET = (42, 77, 101, 2025, 1337)  # the CLI default, documented in the manifest
EPOCH_TIMESTAMP = "1970-01-01T00:00:00Z"

WORKLOADS = ("builtin_serial", "generate_parallel_resume", "rescore_mixed")
STAGES = ("generate", "resume", "score", "score_lenient", "aggregate", "analytics", "validate")

EPISODES = {"builtin_serial": 4, "generate_parallel_resume": 4, "rescore_mixed": 6}
PARALLEL = {"builtin_serial": 1, "generate_parallel_resume": 2, "rescore_mixed": 1}

WARMUP_ROUND = -1  # round index whose seed the untimed warm-up uses

# Stages that finish in milliseconds are called several times in a round, so
# that their median rests on enough samples to be steady.  Every call
# runs in a process of its own (child.Runner.stage), so a repeat cannot reuse
# anything an earlier call kept in memory.
REPEATS = {"resume": 2, "aggregate": 3, "analytics": 2}


def repeats(workload: str, stage: str) -> int:
    if workload == "generate_parallel_resume" and stage == "resume":
        return 1  # a real resume: the deleted half is regenerated once
    return REPEATS.get(stage, 1)


def scaled_per_call(workload: str, stage: str) -> bool:
    """Whether each call of a stage is scaled by the speed probes around it
    (speed.py).  A stage run by one thread is: its time follows its own
    probes.  generate and resume with --parallel 2 are not: their two
    threads run on both CPUs and spend much of their time handing the GIL
    back and forth, so one call hardly follows its probes (log-log slope
    0.12 over 50 calls, and per-call scaling doubled their spread); they are
    scaled by the run's median probe instead."""
    return not (PARALLEL[workload] > 1 and stage in ("generate", "resume"))


def round_seed(seed: int, index: int) -> int:
    """The generate seed of round `index` of a run made with `seed`.  Every
    round, and the warm-up, gets its own inputs, so that no timed stage reads
    bytes that an earlier call in the same process has seen."""
    return random.Random(f"round-{seed}-{index}").randrange(1, 2**31)


def stage_argv(workload: str, stage: str, round_dir: str, seed: int) -> list[str]:
    """CLI arguments of one stage of a round made in `round_dir`."""
    gen_dir = f"{round_dir}/base" if workload == "rescore_mixed" else round_dir
    if stage in ("generate", "resume"):
        argv = [
            "generate", "--out", gen_dir,
            "--episodes-per-scenario", str(EPISODES[workload]),
            "--seed", str(seed),
            "--agents", ",".join(AGENTS),
            "--canonical",
        ]
        if PARALLEL[workload] > 1:
            argv += ["--parallel", str(PARALLEL[workload])]
        return argv
    corpus, clean = scored_corpus(workload, round_dir)
    out = score_dir(workload, round_dir)
    if stage == "score":
        return ["score", "--out", out, "--corpus", corpus, "--strict"]
    if stage == "score_lenient":
        return ["score", "--out", f"{round_dir}/lenient", "--corpus", corpus, "--lenient"]
    if stage == "aggregate":
        return ["aggregate", "--out", out]
    if stage == "analytics":
        return ["analytics", "--out", out, "--corpus", clean]
    if stage == "validate":
        return ["validate", clean, "--strict"]
    raise ValueError(stage)


def scored_corpus(workload: str, round_dir: str) -> tuple[str, str]:
    """(corpus the scorer reads, the same corpus without malformed lines)."""
    if workload == "rescore_mixed":
        return f"{round_dir}/mixed.jsonl", f"{round_dir}/mixed_clean.jsonl"
    return f"{round_dir}/corpus.jsonl", f"{round_dir}/corpus.jsonl"


def score_dir(workload: str, round_dir: str) -> str:
    """Where the strict scores, leaderboard and analytics go.  For a generated
    corpus that is the generate directory, as a user runs it (aggregate then
    reads the episode budget from the manifest); the mixed corpus has no
    manifest, so aggregate infers the budget."""
    return f"{round_dir}/strict" if workload == "rescore_mixed" else round_dir


def expected_rc(workload: str, stage: str) -> int:
    # validate exits 2 when it lists invalid records, which the mixed corpus has.
    return 2 if (workload == "rescore_mixed" and stage == "validate") else 0


def deleted_positions(seed: int, n_lines: int) -> list[int]:
    """The seeded half of the corpus lines removed before the resume."""
    rng = random.Random(f"resume-{seed}")
    return sorted(rng.sample(range(n_lines), n_lines // 2))


# ---------------------------------------------------------------------------
# rescore_mixed corpus
# ---------------------------------------------------------------------------

# family -> violation code the mutation targets
MUTATION_CODES = {
    "schema_type": "schema_invalid",
    "role": "role_disallowed",
    "first_role": "first_role_not_user",
    "alternation": "alternation_violation",
    "turn_bounds": "turn_bounds",
    "intent_empty": "intent_empty",
    "user_structured": "user_turn_structured",
    "battery_range": "battery_range",
    "token_arithmetic": "token_mismatch",
    "attempts": "attempts_exceeded",
}
MUTANTS_PER_FAMILY = 2
EXTRA_FIELD_EPISODES = 8
STUBS = 10
MALFORMED = 6
STUB_ERROR_KINDS = ("schema_invalid", "alternation_violation", "turn_bounds", "role_disallowed", "internal")


def _mutate(family: str, doc: dict, rng: random.Random) -> None:
    turns = doc["turns"]
    meta = doc["metadata"]
    if family == "schema_type":
        meta["seed"] = str(meta["seed"])
    elif family == "role":
        turns[rng.randrange(1, len(turns), 2)]["role"] = rng.choice(["operator", "system", "tower"])
    elif family == "first_role":
        turns[0]["role"] = "agent"
    elif family == "alternation":
        turns[rng.randrange(2, len(turns), 2)]["role"] = "agent"
    elif family == "turn_bounds":
        if rng.random() < 0.5:
            del turns[rng.randint(4, 7):]
        else:
            tail = turns[-2:]
            while len(turns) < rng.randint(13, 14):
                turns.append(json.loads(json.dumps(tail[len(turns) % 2])))
    elif family == "intent_empty":
        turns[rng.randrange(len(turns))]["intent"] = rng.choice(["", "   "])
    elif family == "user_structured":
        turn = turns[rng.randrange(0, len(turns), 2)]
        turn["action"] = {"protocol": "mcp", "name": "read_telemetry", "args": {}}
    elif family == "battery_range":
        value = rng.uniform(100.5, 180.0) if rng.random() < 0.5 else -rng.uniform(0.5, 20.0)
        doc["final_state"]["battery"] = round(value, 3)
    elif family == "token_arithmetic":
        meta["total_tokens"] += rng.randint(1, 50)
    elif family == "attempts":
        meta["attempts_used"] = rng.choice([0, 4, 5])
    else:
        raise ValueError(family)


def _add_extra_fields(doc: dict, rng: random.Random) -> None:
    places = rng.sample(["top", "metadata", "turn", "network"], rng.randint(1, 3))
    if "top" in places:
        doc["x_vendor"] = {"run": rng.randrange(10**6), "tool": "thirdparty"}
    if "metadata" in places:
        doc["metadata"]["x_trace_id"] = f"{rng.getrandbits(64):016x}"
    if "turn" in places:
        doc["turns"][rng.randrange(len(doc["turns"]))]["x_annotation"] = "reviewed"
    if "network" in places:
        doc["turns"][rng.randrange(len(doc["turns"]))]["network"]["x_cell_id"] = rng.randrange(1000)


def build_mixed(base_lines: list[str], seed: int) -> tuple[list[str], list[dict]]:
    """Turn a generated corpus into the rescore_mixed corpus.

    Returns the corpus lines and one label per line: {"family": "valid" |
    "extra" | "stub" | "malformed" | <mutation family>, "code": target code}.
    The counts of every family are fixed; only the choice of episodes, the
    mutation details and the line order depend on the seed.
    """
    rng = random.Random(f"mixed-{seed}")
    docs = [json.loads(line) for line in base_lines]
    episodes = [d for d in docs if d.get("kind") != "failure_stub"]
    order = list(range(len(episodes)))
    rng.shuffle(order)
    entries: list[tuple[str, dict]] = []
    cursor = 0
    for family in MUTATION_CODES:
        for _ in range(MUTANTS_PER_FAMILY):
            doc = episodes[order[cursor]]
            cursor += 1
            _mutate(family, doc, rng)
            entries.append((_dumps(doc), {"family": family, "code": MUTATION_CODES[family]}))
    for _ in range(EXTRA_FIELD_EPISODES):
        doc = episodes[order[cursor]]
        cursor += 1
        _add_extra_fields(doc, rng)
        entries.append((_dumps(doc), {"family": "extra"}))
    for position in order[cursor:]:
        entries.append((_dumps(episodes[position]), {"family": "valid"}))
    for i in range(STUBS):
        stub = {
            "kind": "failure_stub",
            "episode_id": f"STUB-{i:02d}",
            "scenario_id": rng.choice(["S01", "S02", "S03"]),
            "model": rng.choice(AGENTS),
            "seed": rng.choice(EPISODE_SEED_SET),
            "attempts_used": 3,
            "error_kind": rng.choice(STUB_ERROR_KINDS),
            "timestamp": EPOCH_TIMESTAMP,
        }
        entries.append((_dumps(stub), {"family": "stub"}))
    source = base_lines[rng.randrange(len(base_lines))]
    malformed = [
        source[: rng.randint(10, len(source) - 10)],
        "not json at all",
        "[1, 2, 3]",
        '"a bare string"',
        "{'single': 'quotes'}",
        '{"kind": "failure_stub", "model": ',
    ]
    entries += [(line, {"family": "malformed"}) for line in malformed]
    rng.shuffle(entries)
    return [line for line, _ in entries], [label for _, label in entries]


def _dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
