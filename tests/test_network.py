from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from skybench.errors import CalibrationError
from skybench.network import (
    DEFAULT_TARGETS,
    EMBB,
    MMTC,
    NetworkState,
    SLICES,
    URLLC,
    calibrate,
    classify_hard,
    evolve_network,
    fit_lognormal_quantiles,
    sample_fields,
    sample_network_state,
    verify_calibration,
)


def make_state(latency=10.0, jitter=2.0, loss=0.1, throughput=100.0, edge=0.5, slice_name=URLLC):
    return NetworkState(slice_name, latency, jitter, loss, throughput, edge)


# -- calibration -------------------------------------------------------------

def test_latency_fit_urllc_analytic():
    mu, sigma = fit_lognormal_quantiles(7.00, 9.10)
    assert mu == pytest.approx(math.log(7.00), abs=1e-12)
    assert mu == pytest.approx(1.9459, abs=1e-4)
    assert sigma == pytest.approx(0.2047, abs=5e-5)


def test_latency_fit_embb_analytic():
    mu, sigma = fit_lognormal_quantiles(14.00, 25.00)
    assert mu == pytest.approx(2.6391, abs=1e-4)
    # Quantile-inversion oracle: (ln 25 - ln 14) / 1.2816.
    assert sigma == pytest.approx((math.log(25.0) - math.log(14.0)) / 1.2816, abs=1e-12)
    assert sigma == pytest.approx(0.4524, abs=5e-5)


def _targets() -> dict[str, dict[str, float]]:
    return {name: dict(stats) for name, stats in DEFAULT_TARGETS.items()}


def test_calibrate_rejects_p90_below_median():
    targets = _targets()
    targets[URLLC]["latency_p90_ms"] = 5.0  # below the 7.0 median
    with pytest.raises(CalibrationError, match="P90 below median"):
        calibrate(targets)


def test_degenerate_sigma_zero_gives_constant_latency():
    targets = _targets()
    targets[URLLC]["latency_median_ms"] = 5.0
    targets[URLLC]["latency_p90_ms"] = 5.0
    calib = calibrate(targets)
    rng = np.random.default_rng(0)
    draws = calib.model(URLLC).latency.sample(rng, 1000)
    assert np.allclose(draws, 5.0)


def test_shipped_calibration_passes_verification(calibration):
    verify_calibration(calibration, DEFAULT_TARGETS)


@pytest.mark.parametrize(
    "slice_stats, message",
    [
        ("fast", "for mMTC must be an object"),
        ({**DEFAULT_TARGETS[MMTC], "jitter_mean_ms": "17.1"}, "for mMTC need a number for 'jitter_mean_ms'"),
        ({**DEFAULT_TARGETS[MMTC], "loss_mean_pct": True}, "for mMTC need a number for 'loss_mean_pct'"),
    ],
)
def test_calibrate_rejects_non_numeric_targets(slice_stats, message):
    with pytest.raises(CalibrationError, match=message):
        calibrate({**DEFAULT_TARGETS, MMTC: slice_stats})


def test_default_calibration_reproduces_slice_means(calibration):
    rng = np.random.default_rng(11)
    for slice_name, stats in DEFAULT_TARGETS.items():
        fields = sample_fields(slice_name, calibration, rng, 200_000)
        assert float(np.mean(fields["loss_pct"])) == pytest.approx(stats["loss_mean_pct"], rel=0.10)
        assert float(np.mean(fields["throughput_mbps"])) == pytest.approx(stats["throughput_mean_mbps"], rel=0.10)
        assert float(np.mean(fields["edge_load"])) == pytest.approx(stats["edge_load_mean"], rel=0.10)
        assert float(np.median(fields["latency_ms"])) == pytest.approx(stats["latency_median_ms"], rel=0.05)


# -- classification ----------------------------------------------------------

def test_classify_hard_spec_examples():
    assert classify_hard(make_state(latency=45.0, jitter=1.0, loss=0.0, throughput=100.0, edge=0.3))
    assert not classify_hard(make_state(latency=10.0, jitter=2.0, loss=0.05, throughput=600.0, edge=0.5, slice_name=EMBB))
    # Exact boundary: only the inclusive loss threshold fires.
    assert classify_hard(make_state(latency=40.0, jitter=0.0, loss=1.0, throughput=5.0, edge=0.8, slice_name=MMTC))


def test_classify_hard_threshold_lattice():
    for lat_hot in (False, True):
        for loss_hot in (False, True):
            for thr_hot in (False, True):
                for edge_hot in (False, True):
                    state = make_state(
                        latency=40.01 if lat_hot else 40.0,
                        loss=1.0 if loss_hot else 0.99,
                        throughput=4.99 if thr_hot else 5.0,
                        edge=0.81 if edge_hot else 0.8,
                    )
                    expected = lat_hot or loss_hot or thr_hot or edge_hot
                    assert classify_hard(state) is expected


# -- sampling and evolution --------------------------------------------------

def test_sampled_states_respect_ranges(calibration):
    rng = np.random.default_rng(3)
    for slice_name in SLICES:
        fields = sample_fields(slice_name, calibration, rng, 100_000)
        assert np.all(fields["latency_ms"] > 0)
        assert np.all(fields["jitter_ms"] >= 0)
        assert np.all((fields["loss_pct"] >= 0) & (fields["loss_pct"] <= 100))
        assert np.all(fields["throughput_mbps"] >= 0)
        assert np.all((fields["edge_load"] >= 0) & (fields["edge_load"] <= 1))


def test_slice_latency_ordering(calibration):
    rng = np.random.default_rng(5)
    means = {
        s: float(np.mean(sample_fields(s, calibration, rng, 100_000)["latency_ms"]))
        for s in SLICES
    }
    assert means[URLLC] < means[EMBB] < means[MMTC]


def test_evolve_identity_with_zero_mixing(calibration, monkeypatch):
    import skybench.network as network

    monkeypatch.setattr(network, "MIXING_WEIGHT", 0.0)
    calib = replace(calibration, slice_switch_prob=0.0)
    rng = np.random.default_rng(9)
    state = sample_network_state(EMBB, calib, rng)
    evolved = evolve_network(state, calib, rng)
    assert evolved == state


def test_slice_constant_with_zero_switch_probability(calibration):
    calib = replace(calibration, slice_switch_prob=0.0)
    rng = np.random.default_rng(13)
    state = sample_network_state(MMTC, calib, rng)
    for _ in range(200):
        state = evolve_network(state, calib, rng)
        assert state.slice == MMTC


def test_chain_stationary_mean_matches_target(calibration):
    calib = replace(calibration, slice_switch_prob=0.0)
    rng = np.random.default_rng(21)
    state = sample_network_state(URLLC, calib, rng)
    total = 0.0
    steps = 100_000
    for _ in range(steps):
        state = evolve_network(state, calib, rng)
        total += state.latency_ms
    analytic = calib.model(URLLC).latency.analytic_mean()
    assert total / steps == pytest.approx(analytic, rel=0.05)


def test_trace_determinism(calibration):
    def trace(seed):
        rng = np.random.default_rng(seed)
        state = sample_network_state(EMBB, calibration, rng)
        return [state] + [state := evolve_network(state, calibration, rng) for _ in range(20)]

    assert trace(777) == trace(777)
    assert trace(777) != trace(778)


def test_slice_switch_redraws_from_new_slice(calibration):
    calib = replace(calibration, slice_switch_prob=1.0)
    rng = np.random.default_rng(2)
    state = sample_network_state(URLLC, calib, rng)
    evolved = evolve_network(state, calib, rng)
    assert evolved.slice in (EMBB, MMTC)
