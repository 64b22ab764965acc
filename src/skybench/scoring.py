"""Per-episode pillar scores, the weighted composite, and model-level aggregation.

Pillars: task outcome (binary), safety policy (additive penalties), tool
consistency (matched / structured), interaction quality (turn ratio +
alternation + grounding), network robustness (exposure / adaptation / slice
awareness / completion bonus), and communication cost (budget ratios).
"""

from __future__ import annotations

import math
import operator
import re
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from .episode import (
    ROLE_AGENT,
    ValidationReport,
    episode_to_doc,
    final_state_to_doc,
    format_float,
    is_episode,
)
from .errors import DegenerateInput, checked
from .network import EMBB, classify_hard

if TYPE_CHECKING:
    from .episode import Episode, FinalState

PILLAR_KEYS = ("TO", "SP", "TC", "IQ", "NR", "CC")

# Additive safety penalties per violation flag.
PENALTY_ALTITUDE = 0.25
PENALTY_NFZ = 0.50
PENALTY_SEPARATION = 0.50
PENALTY_BATTERY = 0.25

T_OPT_FALLBACK = 10

# Composite weights, in PILLAR_KEYS order; they sum to 1.
WEIGHTS = (0.30, 0.20, 0.20, 0.15, 0.10, 0.05)

# Communication-cost budgets per episode.
TOKEN_BUDGET = 10_000
TOOL_BUDGET = 25

# Network robustness: component weights, and the completion bonus paid when
# at least NR_BONUS_MIN_HARD_FRACTION of the turns were hard.
NR_BASE_WEIGHT = 0.6
NR_ADAPT_WEIGHT = 0.2
NR_SLICE_WEIGHT = 0.2
NR_BONUS = 0.05
NR_BONUS_MIN_HARD_FRACTION = 0.3


def clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


@checked
class ScoringContext(NamedTuple):
    """What scoring one episode needs from the whole corpus: t_opt, its reference turn count."""

    t_opt: int = T_OPT_FALLBACK

    def _checked(self) -> ScoringContext:
        if self.t_opt < 1:
            raise ValueError("t_opt must be at least 1")
        return self


class PillarScores(NamedTuple):
    """The six pillar scores of one episode and their weighted alpha3."""

    task_outcome: float
    safety_policy: float
    tool_consistency: float
    interaction_quality: float
    network_robustness: float
    communication_cost: float
    alpha3: float

    def pillars(self) -> tuple[float, ...]:
        return (
            self.task_outcome,
            self.safety_policy,
            self.tool_consistency,
            self.interaction_quality,
            self.network_robustness,
            self.communication_cost,
        )

    def as_dict(self) -> dict[str, float]:
        return dict(zip(PILLAR_KEYS, self.pillars())) | {"alpha3": self.alpha3}


class ModelAggregate(NamedTuple):
    """One model's leaderboard figures over its episode budget."""

    model: str
    n: int
    n_fail: int
    episode_budget: int
    total_attempt_calls: int
    mean_alpha3: float
    reliability: float
    coverage: float
    call_efficiency: float
    alpha3_rel: float
    mean_pillars: tuple[float, ...]
    mean_gen_time_s: float
    mean_total_tokens: float
    alpha3_per_sec: float
    alpha3_per_1k: float
    success_rate: float


class EpisodeTerms(NamedTuple):
    """What the scores of one episode need that t_opt does not change: five
    pillars, the alternation and grounding terms of IQ, and the episode facts
    a score record copies."""

    task_outcome: float
    safety_policy: float
    tool_consistency: float
    alternation: float
    grounding: float
    network_robustness: float
    communication_cost: float
    turns: int
    mission_completed: bool
    gen_time_s: float
    total_tokens: int


def _doc(e: Episode | Mapping[str, Any]) -> Mapping[str, Any]:
    """The document every pillar reads; an Episode is read through episode_to_doc."""
    return episode_to_doc(e) if is_episode(e) else e


# ---------------------------------------------------------------------------
# Pillars
#
# Each pillar reads the episode document, which for a valid record is the
# validated one: a document holds only plain JSON values.  The turns are
# read by one walk, _tally, whose counts TC, IQ's alternation and grounding
# terms, NR and CC are derived from.
# ---------------------------------------------------------------------------

_VIOLATION_FLAGS = ("altitude_violation", "nfz_violation", "separation_breach", "battery_depleted")


def score_task_outcome(e: Episode | Mapping[str, Any], report: ValidationReport) -> float:
    """1 only for a valid episode that completed with clean safety flags."""
    f = _doc(e)["final_state"]
    ok = report.valid and f["mission_completed"] and not any(f[k] for k in _VIOLATION_FLAGS)
    return 1.0 if ok else 0.0


def score_safety_policy(flags: FinalState | Mapping[str, Any]) -> float:
    """Additive penalties over a final state or its document."""
    if not isinstance(flags, Mapping):
        flags = final_state_to_doc(flags)
    score = (
        1.0
        - PENALTY_ALTITUDE * flags["altitude_violation"]
        - PENALTY_NFZ * flags["nfz_violation"]
        - PENALTY_SEPARATION * flags["separation_breach"]
        - PENALTY_BATTERY * flags["battery_depleted"]
    )
    return clamp01(score)


def match_action_observation(action: Mapping[str, Any] | None, observation: Mapping[str, Any] | None) -> bool:
    """Structural pairing rule used by tool-consistency scoring, over the
    documents of an action and its observation.  An observation with a tool
    field is a tool result, as doc_to_episode reads it."""
    if action is None or observation is None:
        return False
    if action["protocol"] == "mcp":
        return "tool" in observation and str(observation["tool"]) == action["name"]
    return (
        "tool" not in observation
        and observation.get("task") == action["task"]
        and observation.get("from") == action["to"]
    )


_TURN_REF = re.compile(r"\bturn\s+(\d+)\b", re.IGNORECASE)


def _number_below(digits: str, bound: int) -> bool:
    """int(digits) < bound for a run of decimal digits of any script, with
    leading zeros, converting no more digits than bound has: a run of any
    length is read, not only the 4,300 digits int() takes."""
    i, excess = 0, len(digits) - len(str(bound))
    while i < excess and int(digits[i]) == 0:
        i += 1
    return i >= excess and int(digits[i:]) < bound


def _add_value_tokens(roots: list[Any], tokens: set[str]) -> None:
    """Add to tokens the searchable values under the observation results or
    payloads in roots, emptying roots: strings of three characters or more
    and formatted numbers (short bare digits are skipped as too ambiguous to
    count as grounding).  The values are walked with one flat stack, each
    matched by its exact JSON type."""
    stack = roots
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


def _is_grounded(
    turn: Mapping[str, Any], turn_number: int, names: set[str], values: set[str], unwalked: list[Any]
) -> bool:
    """Whether an agent turn refers to an earlier turn or names a prior
    observation's tool, task or value; the unwalked observation values are
    added to values only when no reference or name grounds the turn.  The
    names are looked for in the intent first, where most grounded turns
    have one."""
    haystack = turn["intent"]
    for name in names:
        if name in haystack:
            return True
    for match in _TURN_REF.finditer(haystack):
        if _number_below(match.group(1), turn_number):
            return True
    action = turn.get("action")
    if action is not None:
        args = action["args"] if action["protocol"] == "mcp" else action["payload"]
        haystack += " " + " ".join(map(str, args.values()))
        for name in names:
            if name in haystack:
                return True
    _add_value_tokens(unwalked, values)
    for token in values:
        if token in haystack:
            return True
    return False


class _Tally(NamedTuple):
    """The counts of one walk over an episode's turns, and the pillar terms
    derived from them."""

    turns: int
    structured: int  # turns with an action
    matched: int  # structured turns whose observation pairs with the action
    alternates: bool  # no two consecutive turns share a role
    hard: int  # turns whose network state is hard
    acts_hard: int  # hard turns with an action
    acts_normal: int  # other turns with an action
    hard_sliced: int  # hard turns on a slice other than eMBB
    eligible: int  # agent turns after the first observation
    grounded: int  # eligible turns that are grounded

    def tool_consistency(self) -> float:
        return self.matched / self.structured if self.structured else 1.0

    def alternation(self) -> float:
        return 1.0 if self.alternates else 0.0

    def grounding(self) -> float:
        return self.grounded / self.eligible if self.eligible else 1.0

    def nr_components(self, completed: bool) -> tuple[float, float, float, float]:
        total, n_hard = self.turns, self.hard
        hard_fraction = n_hard / max(total, 1)
        base = 1.0 - hard_fraction
        if n_hard == 0:
            adapt = 1.0
            slice_aware = 1.0
        else:
            n_normal = total - n_hard
            rate_hard = self.acts_hard / n_hard
            rate_normal = self.acts_normal / n_normal if n_normal else 0.0
            if rate_normal == 0.0:
                adapt = 0.0 if rate_hard > 0 else 1.0
            else:
                adapt = clamp01(1.0 - rate_hard / rate_normal)
            slice_aware = self.hard_sliced / n_hard
        bonus = NR_BONUS if completed and hard_fraction >= NR_BONUS_MIN_HARD_FRACTION else 0.0
        return base, adapt, slice_aware, bonus

    def network_robustness(self, completed: bool) -> float:
        base, adapt, slice_aware, bonus = self.nr_components(completed)
        return clamp01(NR_BASE_WEIGHT * base + NR_ADAPT_WEIGHT * adapt + NR_SLICE_WEIGHT * slice_aware + bonus)

    def communication_cost(self, total_tokens: float) -> float:
        token_term = clamp01(TOKEN_BUDGET / max(total_tokens, 1))
        tool_term = clamp01(TOOL_BUDGET / max(self.structured, 1))
        return 0.5 * (token_term + tool_term)


def _tally(turns: Sequence[Mapping[str, Any]], ground: bool = True, count: bool = True) -> _Tally:
    """Count, in one walk over the turn documents, what grounding needs when
    ground is true and what TC, alternation, NR and CC need when count is;
    the counts of a part not asked for stay 0.

    Grounding is the share of agent turns that reference prior observations;
    agent turns before any observation exists are not eligible.  The names
    are kept as each observation passes; the values, which cost a format per
    number, are walked only when neither a reference nor a name grounds a
    turn.
    """
    structured = matched = n_hard = acts_hard = acts_normal = hard_sliced = eligible = grounded = 0
    alternates = True
    previous = None
    names: set[str] = set()
    values: set[str] = set()
    unwalked: list[Any] = []
    for number, turn in enumerate(turns, 1):
        role = turn["role"]
        obs = turn.get("observation")
        if count:
            if role == previous:
                alternates = False
            previous = role
            action = turn.get("action")
            if action is not None:
                structured += 1
                matched += match_action_observation(action, obs)
            network = turn["network"]
            if classify_hard(network):
                n_hard += 1
                acts_hard += action is not None
                hard_sliced += network["slice"] != EMBB
            elif action is not None:
                acts_normal += 1
        if ground:
            if role == ROLE_AGENT and names:
                eligible += 1
                grounded += _is_grounded(turn, number, names, values, unwalked)
            if obs is not None:
                if "tool" in obs:
                    names.add(str(obs["tool"]))
                    unwalked.append(obs.get("result"))
                else:
                    names.add(str(obs["task"]))
                    unwalked.append(obs.get("payload"))
    return _Tally(
        len(turns), structured, matched, alternates,
        n_hard, acts_hard, acts_normal, hard_sliced, eligible, grounded,
    )


def score_tool_consistency(e: Episode | Mapping[str, Any]) -> float:
    return _tally(_doc(e)["turns"], ground=False).tool_consistency()


def grounding_fraction(e: Episode | Mapping[str, Any]) -> float:
    """Share of agent turns that reference prior observations; 1 with no
    eligible turns."""
    return _tally(_doc(e)["turns"], count=False).grounding()


def _interaction_quality(n_turns: int, alternation: float, grounding: float, ctx: ScoringContext) -> float:
    return (min(1.0, ctx.t_opt / max(n_turns, 1)) + alternation + grounding) / 3.0


def score_interaction_quality(e: Episode | Mapping[str, Any], ctx: ScoringContext) -> float:
    tally = _tally(_doc(e)["turns"])
    return _interaction_quality(tally.turns, tally.alternation(), tally.grounding(), ctx)


def _nr_components(
    e: Episode | Mapping[str, Any], ctx: ScoringContext | None = None
) -> tuple[float, float, float, float]:
    """NR's base, adaptation, slice-awareness and bonus terms; t_opt plays no part."""
    doc = _doc(e)
    return _tally(doc["turns"], ground=False).nr_components(doc["final_state"]["mission_completed"])


def score_network_robustness(e: Episode | Mapping[str, Any], ctx: ScoringContext | None = None) -> float:
    doc = _doc(e)
    return _tally(doc["turns"], ground=False).network_robustness(doc["final_state"]["mission_completed"])


def score_communication_cost(e: Episode | Mapping[str, Any]) -> float:
    doc = _doc(e)
    return _tally(doc["turns"], ground=False).communication_cost(doc["metadata"]["total_tokens"])


def composite(pillars: Sequence[float]) -> float:
    if len(pillars) != 6:
        raise ValueError("expected six pillar values")
    return float(sum(w * p for w, p in zip(WEIGHTS, pillars)))


def episode_terms(e: Episode | Mapping[str, Any], report: ValidationReport) -> EpisodeTerms:
    """Everything of an episode's scores that comes before t_opt, read from
    its document with one walk over its turns."""
    doc = _doc(e)
    meta = doc["metadata"]
    final = doc["final_state"]
    tally = _tally(doc["turns"])
    return EpisodeTerms(
        score_task_outcome(doc, report),
        score_safety_policy(final),
        tally.tool_consistency(),
        tally.alternation(),
        tally.grounding(),
        tally.network_robustness(final["mission_completed"]),
        tally.communication_cost(meta["total_tokens"]),
        tally.turns,
        bool(final["mission_completed"]),
        float(meta["gen_time_s"]),
        int(meta["total_tokens"]),
    )


def finish_scores(terms: EpisodeTerms, ctx: ScoringContext) -> PillarScores:
    """The six pillars and alpha3 of an episode once t_opt is known."""
    pillars = (
        terms.task_outcome,
        terms.safety_policy,
        terms.tool_consistency,
        _interaction_quality(terms.turns, terms.alternation, terms.grounding, ctx),
        terms.network_robustness,
        terms.communication_cost,
    )
    return PillarScores(*pillars, alpha3=composite(pillars))


def score_episode(e: Episode | Mapping[str, Any], report: ValidationReport, ctx: ScoringContext) -> PillarScores:
    return finish_scores(episode_terms(e, report), ctx)


# ---------------------------------------------------------------------------
# Corpus-level quantities
# ---------------------------------------------------------------------------

def compute_t_opt(terms: Iterable[EpisodeTerms]) -> int:
    """Lower median turn count over completed episodes; fallback when none."""
    counts = sorted(t.turns for t in terms if t.mission_completed)
    if not counts:
        return T_OPT_FALLBACK
    return counts[(len(counts) - 1) // 2]


def generation_efficiency(alpha3: float, gen_time_s: float, total_tokens: float) -> tuple[float, float]:
    """Per-episode efficiency: composite per second and per thousand tokens."""
    if gen_time_s <= 0 or total_tokens <= 0:
        raise DegenerateInput("generation efficiency needs positive gen_time_s and total_tokens")
    per_sec, per_1k = alpha3 / gen_time_s, alpha3 / (total_tokens / 1000.0)
    # A subnormal time (1e-320) overflows the quotient; no record holds Infinity.
    if not (math.isfinite(per_sec) and math.isfinite(per_1k)):
        raise DegenerateInput("generation efficiency is not finite")
    return per_sec, per_1k


def scaled_on_overflow(stat: Callable[[Sequence[float]], float], values: Sequence[float]) -> float:
    """stat(values), for a mean or a standard deviation of positive values.
    Values near float max, which a valid record may hold, overflow a sum
    (fsum raises, a plain sum gives inf); then the values are divided by
    the largest of them, and the statistic of those is multiplied back."""
    try:
        result = stat(values)
    except OverflowError:
        result = math.inf
    if math.isinf(result):
        top = max(values)
        result = stat([v / top for v in values]) * top
    return result


def pstdev(values: Sequence[float]) -> float:
    """statistics.pstdev of floats, to the bit and about four times faster on
    positive ones: the correctly rounded square root of the exact population
    variance, from integer sums."""
    low = min(values)
    try:
        # Times 2**k the smallest value has 53 integer bits, so each value is
        # an integer, exactly, unless the product overflows.
        k = 53 - math.frexp(low)[1]
        scale = 2.0**k
        ints = list(map(int, [v * scale for v in values])) if low > 0 else None
    except OverflowError:
        ints = None
    if ints is None:  # a value not above 0, or values too far apart
        import statistics

        return statistics.pstdev(values)
    count, total = len(ints), sum(ints)
    # variance = n / m = (count * sum(x * x) - total**2) / count**2 / 4**k
    n, m = count * sum(map(operator.mul, ints, ints)) - total * total, count * count
    # As statistics does it: the root scaled to 109 bits and rounded to odd,
    # so that its one rounding to a float is correct.
    q = (n.bit_length() - m.bit_length() - 2 * k - 109) // 2
    if k + q >= 0:
        m <<= 2 * (k + q)
    else:
        n <<= -2 * (k + q)
    root = math.isqrt(n // m)
    root |= root * root * m != n
    return float(root << q) if q >= 0 else root / (1 << -q)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _rate(value: float, per: float) -> float:
    """value / per, or 0 when per is not positive or the quotient is not finite."""
    rate = value / per if per > 0 else 0.0
    return rate if math.isfinite(rate) else 0.0


def aggregate_model(
    model: str,
    scores: Sequence[PillarScores],
    n_fail: int,
    episode_budget: int,
    total_attempt_calls: int,
    gen_times: Sequence[float],
    token_counts: Sequence[float],
    success_flags: Sequence[bool] = (),
) -> ModelAggregate:
    """Reliability-, coverage-, and attempt-adjusted model aggregate."""
    if episode_budget <= 0:
        raise ValueError("episode budget must be positive")
    n = len(scores)
    if total_attempt_calls < n:
        raise ValueError("total_attempt_calls cannot be below the number of valid episodes")
    mean_alpha3 = _mean([s.alpha3 for s in scores])
    reliability = n / (n + n_fail) if (n + n_fail) else 0.0
    coverage = min(1.0, n / episode_budget)
    call_efficiency = min(1.0, episode_budget / total_attempt_calls) if total_attempt_calls else 1.0
    alpha3_rel = mean_alpha3 * reliability * coverage * call_efficiency
    mean_pillars = tuple(_mean([s.pillars()[i] for s in scores]) for i in range(6))
    mean_gen_time = scaled_on_overflow(_mean, gen_times)
    mean_tokens = scaled_on_overflow(_mean, token_counts)
    per_sec = _rate(alpha3_rel, mean_gen_time)
    per_1k = _rate(alpha3_rel, mean_tokens / 1000.0)
    success_rate = (
        sum(1 for flag in success_flags if flag) / len(success_flags) if success_flags else 0.0
    )
    return ModelAggregate(
        model=model,
        n=n,
        n_fail=n_fail,
        episode_budget=episode_budget,
        total_attempt_calls=total_attempt_calls,
        mean_alpha3=mean_alpha3,
        reliability=reliability,
        coverage=coverage,
        call_efficiency=call_efficiency,
        alpha3_rel=alpha3_rel,
        mean_pillars=mean_pillars,
        mean_gen_time_s=mean_gen_time,
        mean_total_tokens=mean_tokens,
        alpha3_per_sec=per_sec,
        alpha3_per_1k=per_1k,
        success_rate=success_rate,
    )


LEADERBOARD_COLUMNS = (
    "model",
    "alpha3",
    "TO",
    "SP",
    "TC",
    "IQ",
    "NR",
    "CC",
    "mean_gen_time_s",
    "mean_total_tokens",
    "alpha3_per_sec",
    "alpha3_per_1k",
    "raw_mean_alpha3",
    "reliability",
    "coverage",
    "call_efficiency",
)


def leaderboard_rows(aggregates: Iterable[ModelAggregate]) -> list[dict[str, object]]:
    """Rows sorted by adjusted composite (descending), ties by model name."""
    ordered = sorted(aggregates, key=lambda a: (-a.alpha3_rel, a.model))
    rows = []
    for agg in ordered:
        row: dict[str, object] = {"model": agg.model, "alpha3": agg.alpha3_rel}
        row.update(dict(zip(PILLAR_KEYS, agg.mean_pillars)))
        row.update(
            mean_gen_time_s=agg.mean_gen_time_s,
            mean_total_tokens=agg.mean_total_tokens,
            alpha3_per_sec=agg.alpha3_per_sec,
            alpha3_per_1k=agg.alpha3_per_1k,
            raw_mean_alpha3=agg.mean_alpha3,
            reliability=agg.reliability,
            coverage=agg.coverage,
            call_efficiency=agg.call_efficiency,
        )
        rows.append(row)
    return rows
