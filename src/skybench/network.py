"""6G network-state sampling, per-turn evolution, and degraded-state classification.

Each slice carries a set of per-field distributions calibrated so that large
sample sets reproduce the published slice statistics (latency median/P90,
jitter mean, loss mean, throughput mean, edge-load mean).
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from operator import attrgetter, itemgetter, methodcaller
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .errors import CalibrationError, checked

if TYPE_CHECKING:
    import numpy as np

URLLC = "URLLC"
EMBB = "eMBB"
MMTC = "mMTC"
SLICES = (URLLC, EMBB, MMTC)

# Degradation thresholds. Latency and edge load are strict (>), loss is
# inclusive (>=), throughput is strict (<); a value sitting exactly on the
# latency/throughput/edge threshold does not by itself make a turn hard.
HARD_LATENCY_MS = 40.0
HARD_LOSS_PCT = 1.0
HARD_THROUGHPUT_MBPS = 5.0
HARD_EDGE_LOAD = 0.8

# Standard-normal 90th-percentile quantile used for the P90 inversion.
Z90 = 1.2816

# Fixed shape parameters for fields where only a mean is targeted.
JITTER_SIGMA = 0.6
THROUGHPUT_SIGMA = 0.6
EDGE_CONCENTRATION = 10.0

# The seven per-slice statistics a calibration targets document must give.
TARGET_STATS = (
    "latency_mean_ms",
    "latency_median_ms",
    "latency_p90_ms",
    "jitter_mean_ms",
    "loss_mean_pct",
    "throughput_mean_mbps",
    "edge_load_mean",
)

# Weight of the fresh same-slice sample in each per-turn evolution step.
MIXING_WEIGHT = 0.5

# Monte-Carlo draw size and seed of verify_calibration.
VERIFY_SAMPLES = 200_000
VERIFY_SEED = 7


def _network_state() -> type:
    """The NetworkState class, created on the first call: by importing it
    from this module (the module __getattr__ below) or by the first draw.
    It stays a frozen dataclass, since callers change its fields with
    dataclasses.replace, and creating one loads dataclasses and inspect,
    which no read-side command needs."""
    cls = globals().get("NetworkState")
    if cls is None:
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class NetworkState:
            """One sample of the link: slice, latency, jitter, loss, throughput and edge load."""

            slice: str
            latency_ms: float
            jitter_ms: float
            loss_pct: float
            throughput_mbps: float
            edge_load: float

            def scalars(self) -> tuple[float, float, float, float, float]:
                return (self.latency_ms, self.jitter_ms, self.loss_pct, self.throughput_mbps, self.edge_load)

        # Named as if defined at module level, so its repr and pickle find it here.
        NetworkState.__qualname__ = "NetworkState"
        globals()["NetworkState"] = cls = NetworkState
    return cls


def __getattr__(name: str):
    if name == "NetworkState":
        return _network_state()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@checked
class FieldModel(NamedTuple):
    """One scalar field: distribution family, parameters, and clip range."""

    family: str  # "lognormal" | "exponential" | "beta": the Generator method that draws it
    params: tuple[float, ...]
    clip: tuple[float, float]

    def _checked(self) -> FieldModel:
        if self.family not in ("lognormal", "exponential", "beta"):
            raise ValueError(f"unknown field family: {self.family}")
        return self

    def sample(self, rng: np.random.Generator, size: int):
        """`size` clipped draws, as an array."""
        import numpy as np

        return np.clip(getattr(rng, self.family)(*self.params, size=size), self.clip[0], self.clip[1])

    def analytic_mean(self) -> float:
        if self.family == "lognormal":
            mu, sigma = self.params
            return math.exp(mu + sigma * sigma / 2.0)
        if self.family == "exponential":
            return self.params[0]
        a, b = self.params
        return a / (a + b)


class _SliceFields(NamedTuple):
    latency: FieldModel
    jitter: FieldModel
    loss: FieldModel
    throughput: FieldModel
    edge_load: FieldModel


class SliceModel(_SliceFields):
    """The distribution of each link field on one network slice."""

    # No __slots__: the instance dict holds draws, which a value made by
    # _replace computes afresh from its own fields.
    @cached_property
    def draws(self) -> tuple:
        """(draw, low, high) per field, in NetworkState.scalars() order: the
        table every scalar draw steps through.  draw(rng) is
        rng.<family>(*params), resolved once rather than on each draw."""
        return tuple((methodcaller(f.family, *f.params), *f.clip) for f in self)


class SliceCalibration(NamedTuple):
    """A model per slice and the per-turn chance that the slice changes."""

    slices: Mapping[str, SliceModel]
    slice_switch_prob: float = 0.05

    def model(self, slice_name: str) -> SliceModel:
        try:
            return self.slices[slice_name]
        except KeyError:
            raise CalibrationError(f"no calibration for slice {slice_name!r}") from None


# Published per-slice statistics used as the default calibration targets.
DEFAULT_TARGETS: dict[str, dict[str, float]] = {
    URLLC: {
        "latency_mean_ms": 7.23,
        "latency_median_ms": 7.00,
        "latency_p90_ms": 9.10,
        "jitter_mean_ms": 1.11,
        "loss_mean_pct": 0.059,
        "throughput_mean_mbps": 95.2,
        "edge_load_mean": 0.360,
    },
    EMBB: {
        "latency_mean_ms": 21.47,
        "latency_median_ms": 14.00,
        "latency_p90_ms": 25.00,
        "jitter_mean_ms": 4.72,
        "loss_mean_pct": 0.642,
        "throughput_mean_mbps": 608.0,
        "edge_load_mean": 0.517,
    },
    MMTC: {
        "latency_mean_ms": 72.98,
        "latency_median_ms": 50.00,
        "latency_p90_ms": 150.00,
        "jitter_mean_ms": 17.10,
        "loss_mean_pct": 2.387,
        "throughput_mean_mbps": 2.3,
        "edge_load_mean": 0.757,
    },
}

LATENCY_CLIP = (0.01, 1000.0)
JITTER_CLIP = (0.0, 500.0)
LOSS_CLIP = (0.0, 100.0)
THROUGHPUT_CLIP = (0.01, 10000.0)
EDGE_CLIP = (0.0, 1.0)


def fit_lognormal_quantiles(median: float, p90: float) -> tuple[float, float]:
    """Invert (median, P90) into lognormal (mu, sigma)."""
    if median <= 0 or p90 <= 0:
        raise CalibrationError("latency quantiles must be positive")
    if p90 < median:
        raise CalibrationError("latency P90 below median")
    mu = math.log(median)
    sigma = (math.log(p90) - mu) / Z90
    return mu, sigma


def fit_lognormal_mean(mean: float, sigma: float) -> tuple[float, float]:
    """Moment-match a lognormal with fixed shape to a target mean."""
    if mean <= 0:
        raise CalibrationError("mean must be positive")
    return math.log(mean) - sigma * sigma / 2.0, sigma


def _check_targets(targets) -> None:
    """Reject a targets document that is not an object keyed by slice, lacks
    a slice, or does not give every statistic of a slice as a number."""
    if not isinstance(targets, Mapping):
        raise CalibrationError("calibration targets must be an object keyed by slice")
    missing = [name for name in SLICES if name not in targets]
    if missing:
        raise CalibrationError(f"calibration targets lack slices {missing}")
    for name, stats in targets.items():
        if not isinstance(stats, Mapping):
            raise CalibrationError(f"calibration targets for {name} must be an object")
        for key in TARGET_STATS:
            value = stats.get(key)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise CalibrationError(f"calibration targets for {name} need a number for {key!r}")


def calibrate(targets: Mapping[str, Mapping[str, float]]) -> SliceCalibration:
    """Fit per-slice distributions to the target statistics.

    Latency is fit by analytic quantile inversion (median and P90); jitter and
    throughput by moment matching with a fixed lognormal shape; loss as a
    clipped exponential; edge load as a Beta with fixed concentration.
    verify_calibration checks the fit by Monte Carlo.
    """
    _check_targets(targets)
    slices: dict[str, SliceModel] = {}
    for name, stats in targets.items():
        mu, sigma = fit_lognormal_quantiles(stats["latency_median_ms"], stats["latency_p90_ms"])
        jitter_mu, jitter_sigma = fit_lognormal_mean(stats["jitter_mean_ms"], JITTER_SIGMA)
        thr_mu, thr_sigma = fit_lognormal_mean(stats["throughput_mean_mbps"], THROUGHPUT_SIGMA)
        edge_mean = stats["edge_load_mean"]
        if not 0.0 < edge_mean < 1.0:
            raise CalibrationError("edge load mean must lie in (0, 1)")
        slices[name] = SliceModel(
            latency=FieldModel("lognormal", (mu, sigma), LATENCY_CLIP),
            jitter=FieldModel("lognormal", (jitter_mu, jitter_sigma), JITTER_CLIP),
            loss=FieldModel("exponential", (stats["loss_mean_pct"],), LOSS_CLIP),
            throughput=FieldModel("lognormal", (thr_mu, thr_sigma), THROUGHPUT_CLIP),
            edge_load=FieldModel(
                "beta",
                (edge_mean * EDGE_CONCENTRATION, (1.0 - edge_mean) * EDGE_CONCENTRATION),
                EDGE_CLIP,
            ),
        )
    return SliceCalibration(slices=slices)


def verify_calibration(calib: SliceCalibration, targets: Mapping[str, Mapping[str, float]]) -> None:
    """Raise CalibrationError unless a Monte-Carlo draw reproduces the target
    latency median and P90 and each field's analytic mean within tolerance."""
    import numpy as np

    rng = np.random.default_rng(VERIFY_SEED)
    for name, stats in targets.items():
        model = calib.model(name)
        lat = model.latency.sample(rng, VERIFY_SAMPLES)
        median = float(np.median(lat))
        p90 = float(np.percentile(lat, 90))
        _check(name, "latency median", median, stats["latency_median_ms"], 0.02)
        _check(name, "latency P90", p90, stats["latency_p90_ms"], 0.05)
        # The sampled mean is checked against the fitted distribution's own
        # mean: a two-parameter lognormal pinned to median and P90 cannot
        # also match an arbitrary published mean.
        _check(name, "latency mean", float(np.mean(lat)), model.latency.analytic_mean(), 0.05)
        for label, field in (
            ("jitter mean", model.jitter),
            ("loss mean", model.loss),
            ("throughput mean", model.throughput),
            ("edge load mean", model.edge_load),
        ):
            _check(name, label, float(np.mean(field.sample(rng, VERIFY_SAMPLES))), field.analytic_mean(), 0.05)


def _check(slice_name: str, label: str, got: float, want: float, rel_tol: float) -> None:
    if want == 0:
        ok = abs(got) <= rel_tol
    else:
        ok = abs(got - want) <= rel_tol * abs(want)
    if not ok:
        raise CalibrationError(f"{slice_name} {label} verification failed: got {got:.4g}, want {want:.4g}")


@lru_cache(maxsize=1)
def default_calibration() -> SliceCalibration:
    return calibrate(DEFAULT_TARGETS)


def sample_fields(slice_name: str, calib: SliceCalibration, rng: np.random.Generator, size: int):
    """Vectorized draw of all five scalar fields for one slice."""
    model = calib.model(slice_name)
    return {
        "latency_ms": model.latency.sample(rng, size),
        "jitter_ms": model.jitter.sample(rng, size),
        "loss_pct": model.loss.sample(rng, size),
        "throughput_mbps": model.throughput.sample(rng, size),
        "edge_load": model.edge_load.sample(rng, size),
    }


def clamp(x: float, low: float, high: float) -> float:
    """min(max(x, low), high), NaN and signed zeros included: max keeps x
    unless low > x, and min keeps that unless high < it.  The scalar draws
    write it inline, which saves a call per field."""
    x = low if low > x else x
    return high if high < x else x


def sample_network_state(slice_name: str, calib: SliceCalibration, rng: np.random.Generator) -> NetworkState:
    """Independent draw of a full network vector for the given slice."""
    values = []
    for draw, low, high in calib.model(slice_name).draws:
        x = draw(rng)
        x = low if low > x else x  # clamp(x, low, high)
        values.append(high if high < x else x)
    return _network_state()(slice_name, *values)


def evolve_network(prev: NetworkState, calib: SliceCalibration, rng: np.random.Generator) -> NetworkState:
    """One step of the bounded per-turn random walk.

    With probability ``slice_switch_prob`` the slice changes (uniformly among
    the other two) and the whole vector is redrawn from the new slice;
    otherwise every scalar moves toward a fresh same-slice sample with the
    weight MIXING_WEIGHT and is clipped to its field range.
    """
    if rng.random() < calib.slice_switch_prob:
        others = [s for s in SLICES if s != prev.slice]
        new_slice = others[int(rng.integers(0, len(others)))]
        return sample_network_state(new_slice, calib, rng)
    mixed = []
    for old, (draw, low, high) in zip(prev.scalars(), calib.model(prev.slice).draws):
        # Each clamp is clamp(x, low, high), written inline.
        fresh = draw(rng)
        fresh = low if low > fresh else fresh
        fresh = high if high < fresh else fresh
        x = old + MIXING_WEIGHT * (fresh - old)
        x = low if low > x else x
        mixed.append(high if high < x else x)
    return type(prev)(prev.slice, *mixed)  # a NetworkState, whose class exists by now


_HARD_FIELDS = ("latency_ms", "loss_pct", "throughput_mbps", "edge_load")
_state_hard_fields = attrgetter(*_HARD_FIELDS)
_doc_hard_fields = itemgetter(*_HARD_FIELDS)


def classify_hard(n: NetworkState | Mapping[str, float]) -> bool:
    """True when the vector, a NetworkState or its document, breaches any
    degradation threshold."""
    latency, loss, throughput, edge = (_doc_hard_fields if type(n) is dict else _state_hard_fields)(n)
    return (
        latency > HARD_LATENCY_MS
        or loss >= HARD_LOSS_PCT
        or throughput < HARD_THROUGHPUT_MBPS
        or edge > HARD_EDGE_LOAD
    )
