from __future__ import annotations

import copy
import itertools
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
    episode_to_doc,
    loads_document,
    validate_episode,
)
from skybench.errors import DegenerateInput
from skybench.network import EMBB, URLLC, classify_hard
from skybench.scoring import (
    TOKEN_BUDGET,
    TOOL_BUDGET,
    WEIGHTS,
    PillarScores,
    ScoringContext,
    aggregate_model,
    composite,
    compute_t_opt,
    episode_terms,
    generation_efficiency,
    grounding_fraction,
    score_communication_cost,
    score_episode,
    score_interaction_quality,
    score_network_robustness,
    score_safety_policy,
    score_task_outcome,
    score_tool_consistency,
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
