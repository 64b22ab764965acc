"""Output checks, computed apart from the program.

Nothing here imports skybench.  The expected values come from the paper's
definitions and the documented file formats: the shipped schema through a
direct jsonschema call, the semantic rules re-implemented here, canonical
serialization re-implemented here, and the pillar, composite, t_opt and
leaderboard formulas recomputed from the corpus and the score sidecar.

Every check has a name.  A check returns a list of (name, message) failures;
an empty list means it holds.  The self-test (selftest.py) shows that each
name fails on a deliberately corrupted copy of real output.
"""

from __future__ import annotations

import csv
import json
from collections import defaultdict
from pathlib import Path

from jsonschema import Draft202012Validator

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_PATH = ROOT / "src" / "skybench" / "data" / "episode_schema.json"
SCENARIO_DIR = ROOT / "src" / "skybench" / "data" / "scenarios"

PILLARS = ("TO", "SP", "TC", "IQ", "NR", "CC")
WEIGHTS = (0.30, 0.20, 0.20, 0.15, 0.10, 0.05)
PENALTIES = {"altitude_violation": 0.25, "nfz_violation": 0.50, "separation_breach": 0.50, "battery_depleted": 0.25}
TOKEN_BUDGET = 10_000
TOOL_BUDGET = 25
T_OPT_FALLBACK = 10
MIN_TURNS, MAX_TURNS, MAX_ATTEMPTS = 8, 12, 3
LEADERBOARD_COLUMNS = (
    "model", "alpha3", "TO", "SP", "TC", "IQ", "NR", "CC", "mean_gen_time_s", "mean_total_tokens",
    "alpha3_per_sec", "alpha3_per_1k", "raw_mean_alpha3", "reliability", "coverage", "call_efficiency",
)
# Stored values carry six significant digits.
TOL = 2e-6

CHECK_NAMES = (
    "corpus.order", "corpus.canonical", "corpus.schema", "corpus.rules", "manifest.counts",
    "scores.shape", "scores.pillars", "scores.alpha3", "scores.t_opt", "scores.malformed", "scores.lenient",
    "leaderboard.rows", "leaderboard.order", "analytics.counts", "robustness.nr_order",
    "determinism.resume", "determinism.parallel", "validate.listing", "stage.exit",
)


# ---------------------------------------------------------------------------
# independent primitives
# ---------------------------------------------------------------------------

def canonical(obj):
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return float(format(obj, ".6g"))
    if isinstance(obj, dict):
        return {k: canonical(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [canonical(v) for v in obj]
    raise TypeError(type(obj).__name__)


def dumps_canonical(doc) -> str:
    return json.dumps(canonical(doc), sort_keys=True, separators=(",", ":"))


def _relaxed(schema):
    if isinstance(schema, dict):
        return {k: (True if k == "additionalProperties" else _relaxed(v)) for k, v in schema.items()}
    if isinstance(schema, list):
        return [_relaxed(v) for v in schema]
    return schema


_SCHEMA = json.loads(SCHEMA_PATH.read_text("utf-8"))
VALIDATORS = {True: Draft202012Validator(_SCHEMA), False: Draft202012Validator(_relaxed(_SCHEMA))}


def scenario_ids() -> list[str]:
    return [json.loads(p.read_text("utf-8"))["scenario_id"] for p in sorted(SCENARIO_DIR.glob("*.json"))]


def parse(line: str):
    """The document on a corpus line, or None when the line is malformed."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) else None


def is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def rule_codes(doc: dict) -> set[str]:
    """Semantic rules the schema cannot express, re-implemented here."""
    codes = set()
    turns = doc.get("turns")
    if isinstance(turns, list):
        if not MIN_TURNS <= len(turns) <= MAX_TURNS:
            codes.add("turn_bounds")
        roles = [t.get("role") if isinstance(t, dict) else None for t in turns]
        for i, turn in enumerate(turns):
            if not isinstance(turn, dict):
                continue
            role = roles[i]
            if isinstance(role, str) and role not in ("user", "agent"):
                codes.add("role_disallowed")
            if i == 0 and role != "user":
                codes.add("first_role_not_user")
            if i > 0 and role is not None and role == roles[i - 1]:
                codes.add("alternation_violation")
            intent = turn.get("intent")
            if isinstance(intent, str) and not intent.strip():
                codes.add("intent_empty")
            if role == "user" and ("action" in turn or "observation" in turn):
                codes.add("user_turn_structured")
    final = doc.get("final_state")
    if isinstance(final, dict):
        battery = final.get("battery")
        if isinstance(battery, (int, float)) and not isinstance(battery, bool) and not 0 <= battery <= 100:
            codes.add("battery_range")
    meta = doc.get("metadata")
    if isinstance(meta, dict):
        p, c, t = meta.get("prompt_tokens"), meta.get("completion_tokens"), meta.get("total_tokens")
        if is_int(p) and is_int(c) and is_int(t) and p + c != t:
            codes.add("token_mismatch")
        attempts = meta.get("attempts_used")
        if is_int(attempts) and not 1 <= attempts <= MAX_ATTEMPTS:
            codes.add("attempts_exceeded")
    return codes


_SCHEMA_OK: dict[tuple[str, bool], bool] = {}


def schema_ok(doc: dict, strict: bool) -> bool:
    """Direct jsonschema verdict.  Several checks of a round judge the same
    document, so the verdict is kept per document text."""
    key = (json.dumps(doc, sort_keys=True), strict)
    if key not in _SCHEMA_OK:
        _SCHEMA_OK[key] = VALIDATORS[strict].is_valid(doc)
    return _SCHEMA_OK[key]


def verdict(doc: dict, strict: bool) -> set[str]:
    """Violation codes of an episode document; empty when it is valid."""
    codes = rule_codes(doc)
    if not schema_ok(doc, strict):
        codes.add("schema_invalid")
    return codes


def structured(doc: dict) -> list[dict]:
    return [t for t in doc["turns"] if isinstance(t.get("action"), dict)]


def matched(turn: dict) -> bool:
    action, obs = turn["action"], turn.get("observation")
    if not isinstance(obs, dict):
        return False
    if action.get("protocol") == "mcp":
        return "tool" in obs and obs["tool"] == action.get("name")
    return obs.get("task") == action.get("task") and "tool" not in obs and obs.get("from") == action.get("to")


def clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def paper_pillars(doc: dict) -> dict[str, float]:
    """TO, SP, TC and CC by the paper's definitions."""
    final = doc["final_state"]
    flags = [final[k] for k in PENALTIES]
    to = 1.0 if final["mission_completed"] and not any(flags) else 0.0
    sp = clamp01(1.0 - sum(PENALTIES[k] for k in PENALTIES if final[k]))
    acts = structured(doc)
    tc = sum(1 for t in acts if matched(t)) / len(acts) if acts else 1.0
    tokens = doc["metadata"]["total_tokens"]
    cc = 0.5 * (clamp01(TOKEN_BUDGET / max(tokens, 1)) + clamp01(TOOL_BUDGET / max(len(acts), 1)))
    return {"TO": to, "SP": sp, "TC": tc, "CC": cc}


def close(a, b, rel: float = 0.0) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= TOL + rel * abs(b)


def lower_median_turns(docs: list[dict]) -> int:
    counts = sorted(len(d["turns"]) for d in docs if d["final_state"]["mission_completed"] is True)
    return counts[(len(counts) - 1) // 2] if counts else T_OPT_FALLBACK


def read_lines(path: Path) -> list[str]:
    return [line for line in path.read_text("utf-8").splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# per-record checks
# ---------------------------------------------------------------------------

def check_generated_line(line: str, job: tuple[str, str, int]) -> list:
    """One generate output line: position, canonical form, schema and rules."""
    fails = []
    doc = parse(line)
    if doc is None:
        return [("corpus.order", "unparseable generated line")]
    sid, agent, index = job
    if doc.get("kind") == "failure_stub":
        who = (doc.get("scenario_id"), doc.get("model"), doc.get("seed"))
    else:
        meta = doc.get("metadata", {})
        who = (meta.get("scenario_id"), meta.get("model"), meta.get("seed"))
    want_id = f"{sid}-{agent}-{index:04d}"
    seeds = wl.EPISODE_SEED_SET
    if doc.get("episode_id") != want_id or who != (sid, agent, seeds[index % len(seeds)]):
        fails.append(("corpus.order", f"expected {want_id}, found {doc.get('episode_id')} {who}"))
    if dumps_canonical(doc) != line:
        fails.append(("corpus.canonical", f"{want_id} is not a canonical fixed point"))
    if doc.get("kind") != "failure_stub":
        if not schema_ok(doc, True):
            fails.append(("corpus.schema", f"{want_id} fails the shipped schema"))
        codes = rule_codes(doc)
        if codes:
            fails.append(("corpus.rules", f"{want_id} breaks {sorted(codes)}"))
    return fails


def check_score_record(doc: dict, score: dict, strict: bool) -> list:
    """One score record against the corpus record it was made from."""
    if doc.get("kind") == "failure_stub":
        want = {k: doc.get(k) for k in ("model", "scenario_id", "seed", "attempts_used", "error_kind")}
        want.update(kind="failure_stub", scored=False)
        return [] if score == want else [("scores.shape", f"stub {doc.get('episode_id')} not passed through")]
    meta = doc["metadata"]
    ident = {k: meta.get(k) for k in ("model", "scenario_id", "seed", "attempts_used")}
    ident["episode_id"] = doc.get("episode_id")
    if any(score.get(k) != v for k, v in ident.items()):
        return [("scores.shape", f"{doc.get('episode_id')}: score identity {[score.get(k) for k in ident]}")]
    codes = verdict(doc, strict)
    if codes:
        if score.get("valid") is not False or score.get("alpha3") != 0 or set(score.get("violations", ())) != codes:
            return [("scores.shape", f"{doc.get('episode_id')}: expected invalid {sorted(codes)}, "
                                     f"got valid={score.get('valid')} {score.get('violations')}")]
        return []
    if score.get("valid") is not True or "pillars" not in score:
        return [("scores.shape", f"{doc.get('episode_id')}: valid episode scored as {score.get('valid')}")]
    fails = []
    pillars = score["pillars"]
    for key, value in paper_pillars(doc).items():
        if not close(pillars.get(key), value):
            fails.append(("scores.pillars", f"{doc['episode_id']}: {key}={pillars.get(key)}, paper gives {value}"))
    values = [pillars.get(k) for k in PILLARS]
    if not all(isinstance(v, (int, float)) and 0.0 <= v <= 1.0 for v in values):
        fails.append(("scores.alpha3", f"{doc['episode_id']}: pillar outside [0, 1]: {values}"))
    else:
        alpha3 = sum(w * v for w, v in zip(WEIGHTS, values))
        if not (close(score.get("alpha3"), alpha3) and pillars.get("alpha3") == score.get("alpha3")):
            fails.append(("scores.alpha3", f"{doc['episode_id']}: alpha3={score.get('alpha3')}, weighted sum {alpha3}"))
        gen, tokens = meta["gen_time_s"], meta["total_tokens"]
        if gen > 0 and tokens > 0 and not (
            close(score.get("ge_per_sec"), score["alpha3"] / gen, 1e-5)
            and close(score.get("ge_per_1k"), score["alpha3"] / (tokens / 1000.0), 1e-5)
        ):
            fails.append(("scores.alpha3", f"{doc['episode_id']}: efficiency does not follow from alpha3"))
    extras = (score.get("turns"), score.get("mission_completed"), score.get("gen_time_s"), score.get("total_tokens"))
    if extras != (len(doc["turns"]), doc["final_state"]["mission_completed"], meta["gen_time_s"], meta["total_tokens"]):
        fails.append(("scores.shape", f"{doc['episode_id']}: episode facts copied wrongly {extras}"))
    return fails


# ---------------------------------------------------------------------------
# whole-output checks
# ---------------------------------------------------------------------------

def check_manifest(gen_dir: Path, workload: str, seed: int, lines: list[str]) -> list:
    manifest = json.loads((gen_dir / "manifest.json").read_text("utf-8"))
    n = wl.EPISODES[workload]
    stubs = sum(1 for line in lines if (parse(line) or {}).get("kind") == "failure_stub")
    want = {
        "scenarios": scenario_ids(),
        "agents": list(wl.AGENTS),
        "episodes_per_scenario": n,
        "seed": seed,
        "episode_budget_per_model": len(scenario_ids()) * n,
        "counts": {"jobs": len(lines), "episodes": len(lines) - stubs, "failure_stubs": stubs},
    }
    fails = [("manifest.counts", f"manifest {k}={manifest.get(k)!r}, expected {v!r}")
             for k, v in want.items() if manifest.get(k) != v]
    if len(lines) != len(scenario_ids()) * len(wl.AGENTS) * n:
        fails.append(("manifest.counts", f"{len(lines)} corpus lines for {len(scenario_ids()) * len(wl.AGENTS) * n} jobs"))
    return fails


def check_scoring_meta(score_dir: Path, docs: list, strict: bool, malformed: int) -> list:
    meta = json.loads((score_dir / "scoring_meta.json").read_text("utf-8"))
    valid = [d for d in docs if d.get("kind") != "failure_stub" and not verdict(d, strict)]
    fails = []
    if meta.get("t_opt") != lower_median_turns(valid):
        fails.append(("scores.t_opt", f"t_opt={meta.get('t_opt')}, lower median gives {lower_median_turns(valid)}"))
    if (meta.get("malformed_lines"), meta.get("records"), meta.get("valid_episodes"), meta.get("strict")) != (
        malformed, len(docs), len(valid), strict
    ):
        fails.append(("scores.malformed", f"scoring_meta {meta.get('malformed_lines')} malformed / "
                                          f"{meta.get('records')} records / {meta.get('valid_episodes')} valid; "
                                          f"expected {malformed} / {len(docs)} / {len(valid)}"))
    return fails


def _budget(score_dir: Path, scores: list[dict]) -> int:
    manifest = score_dir / "manifest.json"
    if manifest.exists():
        return json.loads(manifest.read_text("utf-8"))["episode_budget_per_model"]
    per_model: dict[str, int] = {}
    for s in scores:
        per_model[s["model"]] = per_model.get(s["model"], 0) + 1
    return max(per_model.values())


def expected_leaderboard(score_dir: Path, scores: list[dict]) -> dict[str, dict[str, float]]:
    budget = _budget(score_dir, scores)
    rows: dict[str, dict[str, float]] = {}
    for model in sorted({s["model"] for s in scores}):
        mine = [s for s in scores if s["model"] == model]
        good = [s for s in mine if s.get("kind") != "failure_stub" and s.get("valid") is True]
        n, n_fail = len(good), len(mine) - len(good)
        attempts = max(sum(int(s["attempts_used"]) for s in mine), n)
        raw = sum(s["pillars"]["alpha3"] for s in good) / n if n else 0.0
        reliability = n / (n + n_fail)
        coverage = min(1.0, n / budget)
        call_eff = min(1.0, budget / attempts) if attempts else 1.0
        row = {"alpha3": raw * reliability * coverage * call_eff, "raw_mean_alpha3": raw,
               "reliability": reliability, "coverage": coverage, "call_efficiency": call_eff}
        for key in PILLARS:
            row[key] = sum(s["pillars"][key] for s in good) / n if n else 0.0
        rows[model] = row
    return rows


def check_leaderboard(score_dir: Path, scores: list[dict]) -> list:
    with open(score_dir / "leaderboard.csv", newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    if not table or tuple(table[0]) != LEADERBOARD_COLUMNS:
        return [("leaderboard.rows", "leaderboard header differs from the documented columns")]
    got = {r[0]: dict(zip(LEADERBOARD_COLUMNS[1:], map(float, r[1:]))) for r in table[1:]}
    want = expected_leaderboard(score_dir, scores)
    fails = []
    if sorted(got) != sorted(want) or len(table) - 1 != len(want):
        fails.append(("leaderboard.rows", f"leaderboard models {[r[0] for r in table[1:]]}, scores have {sorted(want)}"))
    for model in set(got) & set(want):
        for key, value in want[model].items():
            if abs(got[model][key] - value) > 1e-9 + 1e-5 * abs(value):
                fails.append(("leaderboard.rows", f"{model} {key}={got[model][key]}, scores give {value}"))
    order = sorted(want, key=lambda m: (-want[m]["alpha3"], m))
    if [r[0] for r in table[1:]] != order:
        fails.append(("leaderboard.order", f"rows {[r[0] for r in table[1:]]} not sorted by adjusted alpha3 {order}"))
    return fails


def check_nr_order(score_dirs: list[Path]) -> list:
    """The paper's robustness ordering, on the NR means of all the leaderboards
    of a run: every round has the same job list, so this is the NR of the
    pooled episodes (about 12 per agent and round).  A single round's 12
    episodes are too few: there the ordering flips on some seeds."""
    nr: dict[str, float] = defaultdict(float)
    for score_dir in score_dirs:
        with open(score_dir / "leaderboard.csv", newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                nr[row["model"]] += float(row["NR"]) / len(score_dirs)
    if not nr.get("adaptive_pilot", 0.0) > nr.get("greedy_streamer", 1.0):
        return [("robustness.nr_order", f"NR adaptive_pilot={nr.get('adaptive_pilot')} "
                                        f"not above greedy_streamer={nr.get('greedy_streamer')}")]
    return []


def check_analytics(score_dir: Path, docs: list[dict]) -> list:
    report = json.loads((score_dir / "analytics.json").read_text("utf-8"))
    episodes = [d for d in docs if d.get("kind") != "failure_stub"]
    mcp: dict[str, int] = {}
    a2a = 0
    for doc in episodes:
        for turn in doc["turns"]:
            action = turn.get("action")
            if isinstance(action, dict) and action.get("protocol") == "mcp":
                mcp[action["name"]] = mcp.get(action["name"], 0) + 1
            elif isinstance(action, dict):
                a2a += 1
    top = sorted(mcp.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    got = [(row.get("tool"), row.get("count")) for row in report.get("mcp_tools_top", [])]
    fails = []
    if got != top:
        fails.append(("analytics.counts", f"tool counts {got}, corpus has {top}"))
    if (report.get("episodes"), report.get("a2a", {}).get("total_calls")) != (len(episodes), a2a):
        fails.append(("analytics.counts", f"episodes/a2a {report.get('episodes')}/{report.get('a2a', {}).get('total_calls')}, "
                                          f"corpus has {len(episodes)}/{a2a}"))
    return fails


def check_validate_listing(out_text: str, docs: list[dict]) -> list:
    """`validate` lists exactly the strict-invalid records, by line number."""
    want = {}
    for lineno, doc in enumerate(docs, start=1):
        if doc.get("kind") != "failure_stub":
            codes = verdict(doc, True)
            if codes:
                want[lineno] = ",".join(sorted(codes))
    lines = out_text.splitlines()
    expected = [f"line {n}: INVALID ({codes})" for n, codes in want.items()]
    expected.append("all records valid" if not want else f"{len(want)} invalid records")
    if lines != expected:
        diff = [l for l in expected if l not in lines] + [l for l in lines if l not in expected]
        return [("validate.listing", f"validate output differs from the strict-invalid records: {diff[:3]}")]
    return []


def same_bytes(name: str, a: Path, b: Path) -> list:
    return [] if a.read_bytes() == b.read_bytes() else [(name, f"{a.name} differs from {b}")]


# ---------------------------------------------------------------------------
# one round
# ---------------------------------------------------------------------------

class Tally:
    """Operations attempted and failed, and which named checks failed."""

    # What a check may raise on output too broken to inspect: it then fails.
    BROKEN = (KeyError, TypeError, ValueError, IndexError, AttributeError, OSError)

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.tripped: set[str] = set()

    def check(self, name: str, fn) -> None:
        """One operation: run fn() and record the failures it returns."""
        try:
            failures = fn()
        except self.BROKEN as exc:
            failures = [(name, f"output too broken to check: {type(exc).__name__}: {exc}")]
        self.attempted += 1
        if failures:
            self.failed += 1
            self.tripped.update(n for n, _ in failures)
            self.messages.extend(f"{n}: {msg}" for n, msg in failures[:3])


def jobs_for(workload: str) -> list[tuple[str, str, int]]:
    return [(sid, agent, i) for sid in scenario_ids() for agent in wl.AGENTS for i in range(wl.EPISODES[workload])]


def _lines_of(path: Path) -> list[str]:
    return read_lines(path) if path.exists() else []


def _docs_of(path: Path) -> list:
    return [parse(line) for line in _lines_of(path)]


def _same_count(name: str, what: str, got: int, want: int) -> list:
    return [] if got == want else [(name, f"{got} {what} for {want} records")]


def check_generated(tally: Tally, gen_dir: Path, workload: str, seed: int) -> list[str]:
    """Per-line checks of a generate output, one operation per line, then the
    manifest and the resume re-run; returns the corpus lines."""
    lines = _lines_of(gen_dir / "corpus.jsonl")
    for i, job in enumerate(jobs_for(workload)):
        tally.check("corpus.order", lambda: check_generated_line(lines[i], job))
    tally.check("manifest.counts", lambda: check_manifest(gen_dir, workload, seed, lines))
    tally.check("determinism.resume",
                lambda: same_bytes("determinism.resume", gen_dir / "generated.jsonl", gen_dir / "corpus.jsonl"))
    return lines


def check_round(workload: str, seed: int, rdir: Path, ref: Path | None, tally: Tally) -> None:
    """Every check of one round's outputs, made with the round's `seed`; the
    number of operations depends only on the workload and on whether a serial
    reference run `ref` of the same job list is given, never on what the
    checks find."""
    if workload == "rescore_mixed":
        check_generated(tally, rdir / "base", workload, seed)
        _check_mixed(rdir, tally)
        return
    lines = check_generated(tally, rdir, workload, seed)
    docs = [parse(line) for line in lines]
    scores = _docs_of(rdir / "scores.jsonl")
    tally.check("scores.shape", lambda: _same_count("scores.shape", "score records", len(scores), len(docs)))
    for i in range(len(jobs_for(workload))):
        tally.check("scores.shape", lambda: _check_clean_score(docs[i], scores[i]))
    tally.check("scores.t_opt", lambda: check_scoring_meta(rdir, docs, True, 0))
    tally.check("scores.lenient",
                lambda: same_bytes("scores.lenient", rdir / "lenient" / "scores.jsonl", rdir / "scores.jsonl"))
    tally.check("leaderboard.rows", lambda: check_leaderboard(rdir, scores))
    tally.check("analytics.counts", lambda: check_analytics(rdir, docs))
    tally.check("validate.listing", lambda: check_validate_listing((rdir / "validate.out").read_text("utf-8"), docs))
    if ref is not None:
        tally.check("determinism.parallel", lambda: (
            same_bytes("determinism.parallel", rdir / "generated.jsonl", ref / "corpus.jsonl")
            + same_bytes("determinism.parallel", rdir / "leaderboard.csv", ref / "leaderboard.csv")))


def _check_clean_score(doc, score) -> list:
    if not isinstance(score, dict):
        return [("scores.shape", "unparseable score record")]
    fails = check_score_record(doc, score, strict=True)
    if dumps_canonical(score) != json.dumps(score, sort_keys=True, separators=(",", ":")):
        fails.append(("scores.shape", "score record is not canonical"))
    return fails


def _check_mixed_record(doc, label: dict, s, l) -> list:
    """One line of the mixed corpus against its label and both score records."""
    if label["family"] == "malformed":
        return [] if doc is None else [("scores.malformed", "an injected malformed line parsed")]
    if doc is None:
        return [("scores.malformed", "a record that is not malformed failed to parse")]
    if not (isinstance(s, dict) and isinstance(l, dict)):
        return [("scores.shape", f"{doc.get('episode_id')}: score record missing")]
    fails = check_score_record(doc, s, strict=True) + check_score_record(doc, l, strict=False)
    family = label["family"]
    if family in wl.MUTATION_CODES:
        for mode, score in (("strict", s), ("lenient", l)):
            if score.get("valid") is not False or score.get("alpha3") != 0 or label["code"] not in score.get("violations", ()):
                fails.append(("scores.shape", f"{family} mutant {doc.get('episode_id')} "
                                              f"not rejected with {label['code']} under {mode}"))
    elif family == "extra" and not (s.get("valid") is False and l.get("valid") is True):
        fails.append(("scores.lenient", f"extra-field episode {doc.get('episode_id')}: strict {s.get('valid')}, "
                                        f"lenient {l.get('valid')}"))
    elif family == "valid" and not (s.get("valid") is True and l.get("valid") is True):
        fails.append(("scores.shape", f"valid episode {doc.get('episode_id')} was rejected"))
    elif family == "stub" and (s.get("scored") is not False or l.get("scored") is not False):
        fails.append(("scores.shape", f"stub {doc.get('episode_id')} was scored"))
    return fails


def _check_mixed(rdir: Path, tally: Tally) -> None:
    lines = _lines_of(rdir / "mixed.jsonl")
    labels = json.loads((rdir / "labels.json").read_text("utf-8"))
    strict = _docs_of(rdir / "strict" / "scores.jsonl")
    lenient = _docs_of(rdir / "lenient" / "scores.jsonl")
    docs = [parse(line) for line in lines]
    parsed = [d for d in docs if d is not None]
    injected = sum(1 for lab in labels if lab["family"] == "malformed")
    tally.check("scores.shape", lambda: (
        _same_count("scores.shape", "strict score records", len(strict), len(parsed))
        + _same_count("scores.shape", "lenient score records", len(lenient), len(parsed))
        + _same_count("scores.shape", "corpus lines", len(lines), len(labels))))
    # k: index of a line among the parsed ones, which is its score record's index
    k = 0
    for i, label in enumerate(labels):
        doc = docs[i] if i < len(docs) else None
        pair = (strict[k] if k < len(strict) else None, lenient[k] if k < len(lenient) else None)
        tally.check("scores.shape", lambda: _check_mixed_record(doc, label, *pair))
        k += doc is not None
    tally.check("scores.malformed", lambda: (check_scoring_meta(rdir / "strict", parsed, True, injected)
                                             + check_scoring_meta(rdir / "lenient", parsed, False, injected)))
    tally.check("leaderboard.rows", lambda: check_leaderboard(rdir / "strict", strict))
    clean = _docs_of(rdir / "mixed_clean.jsonl")
    tally.check("analytics.counts", lambda: check_analytics(rdir / "strict", clean))
    tally.check("validate.listing", lambda: check_validate_listing((rdir / "validate.out").read_text("utf-8"), clean))


def check_run(workload: str, seed: int, work: Path, rounds: list[dict], tally: Tally) -> None:
    """Every check of a run whose child wrote `rounds`: the stage exit codes
    and outputs of each round (round i made with round_seed(seed, i)), then
    the robustness ordering over all rounds.  generate_parallel_resume's round
    0 is also compared with the serial reference in work/ref."""
    for index, rnd in enumerate(rounds):
        ref = work / "ref" if index == 0 and workload == "generate_parallel_resume" else None
        check_stage_exits(tally, workload, rnd["stages"])
        check_round(workload, wl.round_seed(seed, index), work / rnd["dir"], ref, tally)
    if workload == "builtin_serial":
        tally.check("robustness.nr_order", lambda: check_nr_order([work / rnd["dir"] for rnd in rounds]))


def check_stage_exits(tally: Tally, workload: str, stages: dict[str, list]) -> None:
    """Every stage invocation is one operation; it fails on an unexpected exit code."""
    for stage, samples in stages.items():
        want = wl.expected_rc(workload, stage)
        for _seconds, rc, _probe_s in samples:
            tally.check("stage.exit", lambda: [] if rc == want else [("stage.exit", f"{stage} exited {rc}, expected {want}")])
