from __future__ import annotations

import copy
import itertools
import math
import random
import re
import statistics
import unicodedata
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from generators import build_episode, dialogue, fixed_network, random_episode
from skybench.cli import RunConfig, _score_doc, cmd_generate
from skybench.episode import (
    FinalState,
    McpCall,
    McpResult,
    Turn,
    ValidationReport,
    doc_to_episode,
    dumps_canonical,
    dumps_document,
    episode_to_doc,
    format_float,
    loads_document,
    validate_episode,
)
from skybench.errors import DegenerateInput
from skybench.network import EMBB, URLLC, classify_hard
from skybench.scoring import (
    NR_ADAPT_WEIGHT,
    NR_BASE_WEIGHT,
    NR_BONUS,
    NR_BONUS_MIN_HARD_FRACTION,
    NR_SLICE_WEIGHT,
    TOKEN_BUDGET,
    TOOL_BUDGET,
    WEIGHTS,
    EpisodeTerms,
    PillarScores,
    ScoringContext,
    aggregate_model,
    composite,
    compute_t_opt,
    episode_terms,
    generation_efficiency,
    grounding_fraction,
    match_action_observation,
    pstdev,
    scaled_on_overflow,
    score_communication_cost,
    score_episode,
    score_interaction_quality,
    score_network_robustness,
    score_safety_policy,
    score_task_outcome,
    score_tool_consistency,
    _number_below,
)

VALID = ValidationReport(valid=True, violations=())
CTX = ScoringContext(t_opt=10)


# -- task outcome ------------------------------------------------------------

def test_task_outcome_cases():
    clean = build_episode(dialogue([(False, True, URLLC)] * 8), completed=True)
    assert score_task_outcome(clean, VALID) == 1.0
    nfz = build_episode(dialogue([(False, True, URLLC)] * 8), completed=True, nfz_violation=True)
    assert score_task_outcome(nfz, VALID) == 0.0
    invalid = ValidationReport(valid=False, violations=())
    assert score_task_outcome(clean, invalid) == 0.0
    incomplete = build_episode(dialogue([(False, True, URLLC)] * 8), completed=False)
    assert score_task_outcome(incomplete, VALID) == 0.0


# -- safety policy -----------------------------------------------------------

def _sp_oracle(alt: bool, nfz: bool, sep: bool, batt: bool) -> float:
    penalties = {"alt": 0.25, "nfz": 0.50, "sep": 0.50, "batt": 0.25}
    total = sum(p for flag, p in zip((alt, nfz, sep, batt), penalties.values()) if flag)
    return min(1.0, max(0.0, 1.0 - total))


def test_safety_policy_examples():
    def flags(**kw):
        return FinalState(position=(0, 0, 0), velocity=0, yaw=0, battery=50, mission_completed=True, **kw)

    assert score_safety_policy(flags()) == 1.0
    assert score_safety_policy(flags(nfz_violation=True, separation_breach=True)) == 0.0
    assert score_safety_policy(flags(altitude_violation=True)) == 0.75


def test_safety_policy_exhaustive_oracle():
    for alt, nfz, sep, batt in itertools.product((False, True), repeat=4):
        state = FinalState(
            position=(0, 0, 0), velocity=0, yaw=0, battery=50, mission_completed=True,
            altitude_violation=alt, nfz_violation=nfz, separation_breach=sep, battery_depleted=batt,
        )
        assert score_safety_policy(state) == _sp_oracle(alt, nfz, sep, batt)


# -- tool consistency --------------------------------------------------------

def test_tool_consistency_empty_denominator():
    episode = build_episode(dialogue([(False, False, URLLC)] * 8))
    assert score_tool_consistency(episode) == 1.0


def test_tool_consistency_fraction():
    turns = dialogue([(False, True, URLLC)] * 8)  # 4 structured, all matched
    broken = replace(turns[3], observation=McpResult("wrong_tool", {}))
    turns[3] = broken
    episode = build_episode(turns)
    assert score_tool_consistency(episode) == 0.75


def test_tool_consistency_mutation_drops_exactly_one_share():
    rng = np.random.default_rng(0)
    for _ in range(50):
        episode = random_episode(rng, structured_prob=1.0, mismatch_prob=0.0)
        structured = [i for i, t in enumerate(episode.turns) if t.structured]
        baseline = score_tool_consistency(episode)
        assert baseline == 1.0
        victim = int(rng.choice(structured))
        turn = episode.turns[victim]
        if isinstance(turn.observation, McpResult):
            corrupted = replace(turn, observation=replace(turn.observation, tool="garbled"))
        else:
            corrupted = replace(turn, observation=replace(turn.observation, from_agent="nobody"))
        mutated = replace(episode, turns=episode.turns[:victim] + (corrupted,) + episode.turns[victim + 1:])
        assert score_tool_consistency(mutated) == (len(structured) - 1) / len(structured)


# -- interaction quality -----------------------------------------------------

def grounded_dialogue(n: int) -> list[Turn]:
    """Alternating dialogue where every eligible agent turn cites the prior tool."""
    turns = dialogue([(False, True, URLLC)] * n)
    out = []
    for i, turn in enumerate(turns):
        if turn.role == "agent" and i > 1:
            out.append(replace(turn, intent="read_telemetry confirms status; continuing"))
        else:
            out.append(turn)
    return out


def test_iq_perfect_dialogue():
    episode = build_episode(grounded_dialogue(10))
    assert score_interaction_quality(episode, CTX) == pytest.approx(1.0)


def test_iq_broken_alternation_loses_one_third():
    turns = grounded_dialogue(10)
    turns[5] = replace(turns[5], role="user", action=None, observation=None)
    turns[5] = replace(turns[5], intent="supervise step")
    episode = build_episode(turns)
    # Alternation component drops to 0; grounding denominator also shifts.
    score = score_interaction_quality(episode, CTX)
    assert score < 1.0
    turns_ok = grounded_dialogue(10)
    baseline = score_interaction_quality(build_episode(turns_ok), CTX)
    assert baseline - score >= 1.0 / 3.0 - 1e-9


def test_iq_turn_ratio_capped_and_arithmetic():
    episode = build_episode(grounded_dialogue(10))
    short_ctx = ScoringContext(t_opt=20)  # t_opt above T: ratio capped at 1
    assert score_interaction_quality(episode, short_ctx) == pytest.approx(1.0)
    half_ctx = ScoringContext(t_opt=5)  # T = 2 * t_opt
    assert score_interaction_quality(episode, half_ctx) == pytest.approx((0.5 + 1 + 1) / 3)


def test_grounding_matcher_variants():
    net = fixed_network(False)
    turns = [
        Turn("user", "begin", None, None, net),
        Turn("agent", "first move", McpCall("read_telemetry", {}), McpResult("read_telemetry", {"battery_pct": 87.4}), net),
        Turn("user", "continue", None, None, net),
        Turn("agent", "battery holding at 87.4 percent", None, None, net),  # value reference
        Turn("user", "continue", None, None, net),
        Turn("agent", "as seen in turn 2, link is stable", None, None, net),  # index reference
        Turn("user", "continue", None, None, net),
        Turn("agent", "nothing to report", None, None, net),  # ungrounded
    ]
    episode = build_episode(turns)
    # Three eligible agent turns (the first has no prior observation), two grounded.
    assert grounding_fraction(episode) == pytest.approx(2 / 3)


# The eager definition of grounding: every prior observation's name and
# formatted values gathered before each agent turn is judged.  It is the
# reference grounding_fraction is held to.

_TURN_REF = re.compile(r"\bturn\s+(\d+)\b", re.IGNORECASE)


def _observation_tokens(obs: dict) -> set[str]:
    if "tool" in obs:
        tokens = {str(obs["tool"])}
        stack = [obs.get("result")]
    else:
        tokens = {str(obs["task"])}
        stack = [obs.get("payload")]
    while stack:
        value = stack.pop()
        kind = type(value)
        if kind is str:
            if len(value) >= 3:
                tokens.add(value)
        elif kind is float or kind is int:
            text = format_float(value)
            if len(text.replace("-", "")) >= 2:
                tokens.add(text)
        elif kind is dict:
            stack.extend(value.values())
        elif kind is list:
            stack.extend(value)
    return tokens


def _refers_back(digits: str, turn_number: int) -> bool:
    """Whether the turn a reference's digits name comes before turn_number.
    The digits, of any script, are read one by one (int() refuses a string of
    more than 4,300), and numbers of as many digits compare as text."""
    written = "".join(str(unicodedata.decimal(c)) for c in digits).lstrip("0")
    bound = str(turn_number)
    return (len(written), written) < (len(bound), bound)


def _is_grounded(turn: dict, turn_number: int, prior_tokens: set[str]) -> bool:
    text = turn["intent"]
    for match in _TURN_REF.finditer(text):
        if _refers_back(match.group(1), turn_number):
            return True
    haystack = text
    action = turn.get("action")
    if action is not None:
        values = action["args"] if action["protocol"] == "mcp" else action["payload"]
        haystack += " " + " ".join(str(v) for v in values.values())
    return any(token in haystack for token in prior_tokens)


def _eager_grounding(doc: dict) -> float:
    prior: set[str] = set()
    eligible = grounded = 0
    for index, turn in enumerate(doc["turns"]):
        if turn["role"] == "agent" and prior:
            eligible += 1
            grounded += _is_grounded(turn, index + 1, prior)
        if turn.get("observation") is not None:
            prior |= _observation_tokens(turn["observation"])
    return grounded / eligible if eligible else 1.0


def _hand_grounding_docs() -> list[tuple[dict, float]]:
    """Documents whose one eligible agent turn, the fourth, is grounded only
    by a value in its intent or its action's arguments, a name, a turn
    reference or an empty tool name, or by nothing."""
    net = fixed_network(False)
    seen = McpResult("read_telemetry", {"battery_pct": 87.4, "mode": ["hover", 7]})

    def doc(intent: str, observation=seen, action=None) -> dict:
        turns = [
            Turn("user", "begin", None, None, net),
            Turn("agent", "first move", McpCall("read_telemetry", {}), observation, net),
            Turn("user", "continue", None, None, net),
            Turn("agent", intent, action, None, net),
        ]
        return episode_to_doc(build_episode(turns))

    return [
        (doc("battery holding at 87.4 percent"), 1.0),
        (doc("still in hover"), 1.0),
        (doc("holding", action=McpCall("set_altitude", {"altitude_m": 87.4})), 1.0),
        (doc("read_telemetry says all is well"), 1.0),
        (doc("as seen in turn 2, link is stable"), 1.0),
        (doc("as planned for turn 9"), 0.0),
        (doc("as planned for turn 4"), 0.0),
        (doc("as seen in turn 0003"), 1.0),
        (doc("as planned for turn 0004"), 0.0),
        (doc("AS SEEN IN TURN 2"), 1.0),
        # Arabic-Indic 2 and 9, and a fullwidth 3: \d is any decimal digit.
        (doc("as seen in turn \u0662"), 1.0),
        (doc("as planned for turn \u0669"), 0.0),
        (doc("as seen in turn \u0660\uff13"), 1.0),
        # References longer than the 4,300 digits int() takes.
        (doc("as seen in turn " + "0" * 5000 + "2"), 1.0),
        (doc("as seen in turn " + "\u0660" * 5000 + "3"), 1.0),
        (doc("as planned for turn " + "1" * 5000), 0.0),
        (doc("as planned for turn " + "0" * 5000 + "10"), 0.0),
        (doc("nothing to report", observation=McpResult("", {})), 1.0),
        (doc("nothing to report"), 0.0),
    ]


@pytest.fixture(scope="module")
def random_docs() -> list[dict]:
    """Episodes over structured, mismatch and hard probabilities."""
    rng = np.random.default_rng(31)
    return [
        episode_to_doc(random_episode(rng, structured_prob=structured, mismatch_prob=mismatch, hard_prob=hard))
        for structured in (0.0, 0.3, 0.7, 1.0)
        for mismatch in (0.0, 0.3, 1.0)
        for hard in (0.0, 0.4, 1.0)
        for _ in range(15)
    ]


def _lenient_docs(docs: list[dict]) -> list[dict]:
    """Copies of docs with third-party fields that only --lenient accepts: at
    the top level, in metadata, in a turn, in a turn's network and (valid
    either way) inside an observation's result, whose values the agent turns
    after it may then be grounded by."""
    rng = random.Random(32)
    lenient = []
    for doc in docs:
        doc = copy.deepcopy(doc)
        turns = doc["turns"]
        places = rng.sample(("top", "metadata", "turn", "network", "result"), rng.randint(1, 3))
        if "top" in places:
            doc["x_provider"] = {"price_usd": 0.02, "region": "eu-west"}
        if "metadata" in places:
            doc["metadata"]["x_run"] = "batch-7"
        if "turn" in places:
            turns[rng.randrange(len(turns))]["x_note"] = "relayed"
        if "network" in places:
            turns[rng.randrange(len(turns))]["network"]["x_cell_id"] = 4021
        if "result" in places:
            results = [t["observation"]["result"] for t in turns
                       if type(t.get("observation", {}).get("result")) is dict]
            agent_words = [w for t in turns if t["role"] == "agent" for w in t["intent"].split()]
            if results and agent_words:
                rng.choice(results)["x_echo"] = [rng.choice(agent_words), 12.5]
        lenient.append(doc)
    return lenient


@pytest.fixture(scope="module")
def builtin_docs(tmp_path_factory) -> list[dict]:
    """The episodes of the built-in --episodes-per-scenario 50 --canonical corpus."""
    out = tmp_path_factory.mktemp("builtin")
    cmd_generate(RunConfig(out=str(out), canonical=True))
    lines = (out / "corpus.jsonl").read_text().splitlines()
    return [doc for doc in map(loads_document, lines) if doc.get("kind") != "failure_stub"]


@given(st.text(st.characters(categories=["Nd"]), min_size=1, max_size=40), st.integers(1, 10**6))
def test_a_turn_reference_is_compared_as_int_reads_it(digits, turn_number):
    assert _number_below(digits, turn_number) == (int(digits) < turn_number)
    assert _number_below("0" * 5000 + digits, turn_number) == (int(digits) < turn_number)


def test_grounding_matches_its_eager_definition(builtin_docs, random_docs):
    from generators import corrupted_docs

    docs = random_docs + [doc for _, doc, _ in corrupted_docs(np.random.default_rng(31))]
    docs += builtin_docs + _lenient_docs(builtin_docs[::15])
    for doc in docs:
        assert grounding_fraction(doc) == _eager_grounding(doc)
    for doc, expected in _hand_grounding_docs():
        assert grounding_fraction(doc) == _eager_grounding(doc) == expected


# The per-pillar definitions of the terms, each pillar walking the turns by
# itself.  They are the reference episode_terms, which reads the turns once,
# is held to, float for float.

def _reference_tool_consistency(turns: list[dict]) -> float:
    structured = [t for t in turns if t.get("action") is not None]
    if not structured:
        return 1.0
    matched = sum(1 for t in structured if match_action_observation(t["action"], t.get("observation")))
    return matched / len(structured)


def _reference_network_robustness(doc: dict) -> float:
    turns = doc["turns"]
    total = len(turns)
    hard = [classify_hard(t["network"]) for t in turns]
    n_hard = sum(hard)
    hard_fraction = n_hard / max(total, 1)
    base = 1.0 - hard_fraction
    if n_hard == 0:
        adapt = 1.0
        slice_aware = 1.0
    else:
        n_normal = total - n_hard
        acts_hard = sum(1 for t, h in zip(turns, hard) if h and t.get("action") is not None)
        acts_normal = sum(1 for t, h in zip(turns, hard) if not h and t.get("action") is not None)
        rate_hard = acts_hard / n_hard
        rate_normal = acts_normal / n_normal if n_normal else 0.0
        if rate_normal == 0.0:
            adapt = 0.0 if rate_hard > 0 else 1.0
        else:
            adapt = min(1.0, max(0.0, 1.0 - rate_hard / rate_normal))
        slice_aware = sum(1 for t, h in zip(turns, hard) if h and t["network"]["slice"] != EMBB) / n_hard
    bonus = (
        NR_BONUS
        if doc["final_state"]["mission_completed"] and hard_fraction >= NR_BONUS_MIN_HARD_FRACTION
        else 0.0
    )
    score = NR_BASE_WEIGHT * base + NR_ADAPT_WEIGHT * adapt + NR_SLICE_WEIGHT * slice_aware + bonus
    return min(1.0, max(0.0, score))


def _reference_communication_cost(doc: dict) -> float:
    tools = len([t for t in doc["turns"] if t.get("action") is not None])
    token_term = min(1.0, max(0.0, TOKEN_BUDGET / max(doc["metadata"]["total_tokens"], 1)))
    tool_term = min(1.0, max(0.0, TOOL_BUDGET / max(tools, 1)))
    return 0.5 * (token_term + tool_term)


def _reference_terms(doc: dict, report: ValidationReport) -> EpisodeTerms:
    turns = doc["turns"]
    meta = doc["metadata"]
    final = doc["final_state"]
    alternates = all(turns[i]["role"] != turns[i - 1]["role"] for i in range(1, len(turns)))
    return EpisodeTerms(
        score_task_outcome(doc, report),
        score_safety_policy(final),
        _reference_tool_consistency(turns),
        1.0 if alternates else 0.0,
        _eager_grounding(doc),
        _reference_network_robustness(doc),
        _reference_communication_cost(doc),
        len(turns),
        bool(final["mission_completed"]),
        float(meta["gen_time_s"]),
        int(meta["total_tokens"]),
    )


def test_episode_terms_match_the_per_pillar_walks(builtin_docs, random_docs):
    lenient = _lenient_docs(builtin_docs[::3] + random_docs[::4])
    assert all(validate_episode(doc, strict=False).valid for doc in lenient)
    assert sum(not validate_episode(doc).valid for doc in lenient) > len(lenient) // 2
    cases = [(doc, validate_episode(doc)) for doc in builtin_docs + random_docs]
    cases += [(doc, validate_episode(doc, strict=False)) for doc in lenient]
    cases += [(doc, VALID) for doc, _ in _hand_grounding_docs()]
    assert all(report.valid for _, report in cases)
    for doc, report in cases:
        terms, reference = episode_terms(doc, report), _reference_terms(doc, report)
        assert terms == reference
        assert list(map(type, terms)) == list(map(type, reference))
        assert score_tool_consistency(doc) == terms.tool_consistency
        assert grounding_fraction(doc) == terms.grounding
        assert score_network_robustness(doc) == terms.network_robustness
        assert score_communication_cost(doc) == terms.communication_cost


# -- network robustness ------------------------------------------------------

def test_nr_all_normal_is_one():
    episode = build_episode(dialogue([(False, True, URLLC)] * 10))
    assert score_network_robustness(episode, CTX) == pytest.approx(1.0)


def test_nr_worked_example_065():
    # 10 turns, 5 hard on URLLC, 5 normal; structured: 1 of 5 hard turns,
    # 2 of 5 normal turns -> adapt = 1 - 0.2/0.4 = 0.5; slice = 1; completed
    # with hard fraction 0.5 >= 0.3 -> bonus. NR = 0.3 + 0.1 + 0.2 + 0.05.
    pattern = []
    for i in range(10):
        hard = i < 5
        pattern.append((hard, False, URLLC))
    turns = dialogue(pattern)
    mcp = McpCall("read_telemetry", {})
    result = McpResult("read_telemetry", {})
    turns[1] = replace(turns[1], action=mcp, observation=result)  # hard structured
    turns[5] = replace(turns[5], action=mcp, observation=result)  # normal structured
    turns[7] = replace(turns[7], action=mcp, observation=result)  # normal structured
    episode = build_episode(turns, completed=True)
    assert score_network_robustness(episode, CTX) == pytest.approx(0.65)


def test_nr_all_hard_embb_same_rate_failed_is_zero():
    turns = dialogue([(True, True, EMBB)] * 10)
    episode = build_episode(turns, completed=False)
    assert score_network_robustness(episode, CTX) == 0.0


def test_nr_no_normal_turns_with_actions_zeroes_adapt():
    turns = dialogue([(True, True, URLLC)] * 8)
    episode = build_episode(turns, completed=False)
    # base 0, adapt 0 (rate_normal 0, rate_hard > 0), slice 1, no bonus.
    assert score_network_robustness(episode, CTX) == pytest.approx(0.2)


def test_nr_base_never_increases_when_turns_harden():
    rng = np.random.default_rng(1)
    from skybench.scoring import _nr_components

    for _ in range(200):
        episode = random_episode(rng, hard_prob=0.3)
        base, *_ = _nr_components(episode, CTX)
        normal_turns = [i for i, t in enumerate(episode.turns) if not classify_hard(t.network)]
        if not normal_turns:
            continue
        victim = int(rng.choice(normal_turns))
        hard_turn = replace(episode.turns[victim], network=fixed_network(True))
        harder = replace(episode, turns=episode.turns[:victim] + (hard_turn,) + episode.turns[victim + 1:])
        new_base, *_ = _nr_components(harder, CTX)
        assert new_base <= base + 1e-12


def test_nr_relabel_embb_to_urllc_never_decreases():
    rng = np.random.default_rng(2)
    for _ in range(500):
        episode = random_episode(rng, hard_prob=0.5)
        before = score_network_robustness(episode, CTX)
        relabeled = tuple(
            replace(t, network=replace(t.network, slice=URLLC))
            if classify_hard(t.network) and t.network.slice == EMBB
            else t
            for t in episode.turns
        )
        after = score_network_robustness(replace(episode, turns=relabeled), CTX)
        assert after >= before - 1e-12


# -- communication cost ------------------------------------------------------

def test_cc_examples():
    assert (TOKEN_BUDGET, TOOL_BUDGET) == (10_000, 25)
    at_budget = build_episode(dialogue([(False, True, URLLC)] * 8), total_tokens=10_000)
    # 4 structured actions (< 25) and exactly the token budget.
    assert score_communication_cost(at_budget) == 1.0
    at_tool_budget = build_episode(dialogue([(False, True, URLLC)] * 50), total_tokens=10_000)
    # Exactly 25 structured actions.
    assert score_communication_cost(at_tool_budget) == 1.0
    double = build_episode(dialogue([(False, True, URLLC)] * 8), total_tokens=20_000)
    # Token term 0.5, tool term 1.
    assert score_communication_cost(double) == pytest.approx(0.75)
    none_structured = build_episode(dialogue([(False, False, URLLC)] * 8), total_tokens=10_000)
    assert score_communication_cost(none_structured) == 1.0


def test_cc_double_both_terms():
    # 50 structured actions (twice the tool budget), 2.5x the token budget.
    turns = dialogue([(False, True, URLLC)] * 100)
    episode = build_episode(turns, total_tokens=25_000)
    assert score_communication_cost(episode) == pytest.approx(0.5 * (0.4 + 0.5))


# -- composite ---------------------------------------------------------------

def test_composite_published_rows():
    assert composite((1.000, 0.965, 1.000, 0.961, 0.871, 0.492)) == pytest.approx(0.949, abs=1e-3)
    assert composite((1.000, 0.990, 1.000, 0.995, 0.855, 0.874)) == pytest.approx(0.976, abs=1e-3)
    assert composite((1.0,) * 6) == pytest.approx(1.0)


@given(
    st.integers(min_value=0, max_value=5),
    st.floats(min_value=-0.5, max_value=0.5),
    st.lists(st.floats(min_value=0, max_value=1), min_size=6, max_size=6),
)
def test_composite_linearity(index, delta, pillars):
    bumped = list(pillars)
    bumped[index] += delta
    diff = composite(bumped) - composite(pillars)
    assert diff == pytest.approx(WEIGHTS[index] * delta, abs=1e-12)


# -- t_opt, efficiency, aggregation -------------------------------------------

def _with_turn_count(rng, n, completed=True):
    return random_episode(rng, n_turns=n, completed=completed)


def _t_opt(episodes):
    return compute_t_opt(episode_terms(e, VALID) for e in episodes)


def test_t_opt_median_rules():
    rng = np.random.default_rng(3)
    episodes = [_with_turn_count(rng, n) for n in (8, 10, 12)]
    assert _t_opt(episodes) == 10
    episodes = [_with_turn_count(rng, n) for n in (8, 8, 12, 12)]
    assert _t_opt(episodes) == 8
    assert _t_opt([]) == 10
    failures = [_with_turn_count(rng, 12, completed=False)]
    assert _t_opt(failures) == 10


def test_generation_efficiency_published_row():
    # total_tokens is integral; the published per-1k figure uses 4032.1.
    per_sec, per_1k = generation_efficiency(0.976, 10.581, 4032)
    assert per_sec == pytest.approx(0.092, abs=1e-3)
    assert per_1k == pytest.approx(0.242, abs=1e-3)
    assert generation_efficiency(0.0, 10.581, 4032) == (0.0, 0.0)
    with pytest.raises(DegenerateInput):
        generation_efficiency(0.5, 0.0, 4032)
    with pytest.raises(DegenerateInput):
        generation_efficiency(0.5, 10.581, 0)
    # A quotient that overflows is as degenerate as a zero divisor.
    with pytest.raises(DegenerateInput):
        generation_efficiency(0.5, 1e-320, 4032)
    with pytest.raises(DegenerateInput):
        generation_efficiency(float("inf"), 10.581, 4032)


def _flat_scores(n, alpha3=0.976):
    return [PillarScores(1, 1, 1, 1, 1, 1, alpha3=alpha3) for _ in range(n)]


def test_aggregate_clean_model():
    agg = aggregate_model(
        "m", _flat_scores(50), n_fail=0, episode_budget=50, total_attempt_calls=50,
        gen_times=[10.581] * 50, token_counts=[4032.1] * 50, success_flags=[True] * 50,
    )
    assert agg.reliability == 1.0 and agg.coverage == 1.0 and agg.call_efficiency == 1.0
    assert agg.alpha3_rel == pytest.approx(0.976)
    assert agg.alpha3_per_sec == pytest.approx(0.092, abs=1e-3)
    assert agg.alpha3_per_1k == pytest.approx(0.242, abs=1e-3)
    assert agg.success_rate == 1.0


def test_aggregate_reliability_two_thirds():
    agg = aggregate_model(
        "m", _flat_scores(33), n_fail=17, episode_budget=50, total_attempt_calls=33 + 17 * 3,
        gen_times=[5.0] * 33, token_counts=[1000.0] * 33,
    )
    assert agg.reliability == 0.66
    assert agg.coverage == pytest.approx(33 / 50)


def test_aggregate_call_efficiency():
    agg = aggregate_model(
        "m", _flat_scores(50), n_fail=0, episode_budget=50, total_attempt_calls=100,
        gen_times=[5.0] * 50, token_counts=[1000.0] * 50,
    )
    assert agg.call_efficiency == 0.5
    assert agg.alpha3_rel == pytest.approx(0.976 * 0.5)


def test_aggregate_factors_bounded():
    agg = aggregate_model(
        "m", _flat_scores(10, alpha3=0.9), n_fail=3, episode_budget=50, total_attempt_calls=40,
        gen_times=[5.0] * 10, token_counts=[1000.0] * 10,
    )
    assert agg.reliability <= 1.0 and agg.coverage <= 1.0 and agg.call_efficiency <= 1.0
    assert agg.alpha3_rel <= agg.mean_alpha3


def test_aggregate_degenerate_empty_model():
    agg = aggregate_model("m", [], n_fail=5, episode_budget=50, total_attempt_calls=15,
                          gen_times=[], token_counts=[])
    assert agg.alpha3_rel == 0.0
    assert agg.reliability == 0.0 and agg.coverage == 0.0


# -- whole-episode property ----------------------------------------------------

def test_every_pillar_in_unit_interval_on_random_episodes():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        episode = random_episode(rng, mismatch_prob=0.3, hard_prob=0.4)
        report = validate_episode(episode)
        scores = score_episode(episode, report, CTX)
        for value in scores.pillars() + (scores.alpha3,):
            assert 0.0 <= value <= 1.0
        assert scores.alpha3 == pytest.approx(composite(scores.pillars()), abs=1e-12)


# -- one scorer, over the document ---------------------------------------------

def _integral(doc: dict) -> dict:
    """doc with integral numbers where a generated line has floats, and an
    integral float where it has an int: still a valid episode."""
    doc = copy.deepcopy(doc)
    meta = doc["metadata"]
    meta["gen_time_s"] = max(1, round(meta["gen_time_s"]))
    meta["total_tokens"] = float(meta["total_tokens"])
    for turn in doc["turns"]:
        turn["network"]["latency_ms"] = max(1, round(turn["network"]["latency_ms"]))
    return doc


def test_an_episode_scores_as_its_stored_line(tmp_path):
    rng = np.random.default_rng(16)
    docs = [episode_to_doc(random_episode(rng, mismatch_prob=0.3, hard_prob=0.4)) for _ in range(300)]
    cmd_generate(RunConfig(episodes_per_scenario=4, out=str(tmp_path), canonical=True))
    builtin = [loads_document(line) for line in (tmp_path / "corpus.jsonl").read_text().splitlines()]
    docs += [doc for doc in builtin if doc.get("kind") != "failure_stub"]
    docs += [_integral(doc) for doc in docs]
    for doc in docs:
        stored = loads_document(dumps_canonical(doc))
        episode = doc_to_episode(stored)
        report = validate_episode(stored)
        assert report.valid
        for t_opt in (8, 10, 12):
            ctx = ScoringContext(t_opt=t_opt)
            assert score_episode(episode, report, ctx) == score_episode(stored, report, ctx)


def test_a_score_record_copies_the_typed_episode_facts():
    # The record holds gen_time_s as a float and total_tokens as an int,
    # whichever of the two forms the document uses.
    doc = _integral(episode_to_doc(random_episode(np.random.default_rng(17))))
    record = _score_doc(loads_document(dumps_canonical(doc)), CTX, strict=True)
    assert record["valid"] is True
    assert type(record["gen_time_s"]) is float and type(record["total_tokens"]) is int
    line = dumps_canonical(record)
    assert f'"gen_time_s":{doc["metadata"]["gen_time_s"]}.0,' in line
    assert f'"total_tokens":{int(doc["metadata"]["total_tokens"])}' in line


def test_a_valid_score_record_holds_canonical_values():
    # score writes a valid episode's record with dumps_document, so the
    # record must already be what dumps_canonical would make of it.
    rng = np.random.default_rng(18)
    docs = [episode_to_doc(random_episode(rng, mismatch_prob=0.3, hard_prob=0.4)) for _ in range(50)]
    docs += [_integral(doc) for doc in docs]
    for seed in (42.0, 1234567.0):
        docs.append(copy.deepcopy(docs[0]))
        docs[-1]["metadata"]["seed"] = seed
    for doc in docs:
        for t_opt in (8, 10, 12):
            record = _score_doc(loads_document(dumps_canonical(doc)), ScoringContext(t_opt=t_opt), strict=True)
            assert record["valid"] is True
            assert dumps_document(record) == dumps_canonical(record)



# -- the latency bins' standard deviation --------------------------------------

def _same_std(values) -> None:
    want = scaled_on_overflow(statistics.pstdev, values)
    got = scaled_on_overflow(pstdev, values)
    assert format_float(got) == format_float(want), values
    assert got == want, values


def test_pstdev_is_statistics_pstdev():
    rng = random.Random(5)
    bins = [(0.0, 10.0), (10.0, 20.0), (20.0, 50.0), (50.0, 100.0), (100.0, 200.0), (200.0, 1e6)]
    # Random bins of record latencies, six significant digits as stored.
    for _ in range(10_000):
        lo, hi = rng.choice(bins)
        _same_std([float(format_float(rng.uniform(lo, hi) or 1e-3)) for _ in range(rng.randint(2, 40))])
    # Bins whose deviation sits next to a six-digit rounding boundary: the
    # floats around d, for boundaries d from 1e-3 to 1e5.
    for _ in range(300):
        d = float(f"{rng.randint(100000, 999999)}5e{rng.randint(-9, 0)}")
        center = rng.uniform(2e5, 3e5)
        half = math.nextafter(math.nextafter(math.nextafter(d, 0.0), 0.0), 0.0)
        for _ in range(7):
            _same_std([center - half, center + half] * rng.randint(1, 4))
            _same_std([half, 3 * half])
            half = math.nextafter(half, math.inf)
    # Constant bins: a deviation of exactly 0.
    for value in (1e-3, 0.1, 7.0, 12.345, 199.999, 1e6, 1.7e308, 5e-324):
        for count in (2, 3, 17):
            assert pstdev([value] * count) == 0.0
            _same_std([value] * count)
    # Values near float max, where the mean needs scaled_on_overflow, values
    # too far apart for one integer scale, and subnormal ones.
    for values in ([1.7e308, 1.6e308], [1.7e308, 250.0, 1.7e308], [1.7976931348623157e308] * 3 + [201.0],
                   [5e-324, 1e-310, 3e-320], [5e-324, 1e300]):
        _same_std(values)
    assert scaled_on_overflow(statistics.fmean, [1.7e308, 1.7e308]) == 1.7e308
