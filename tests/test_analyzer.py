"""Synchronous spectrum analysis against a naive correlation oracle plus
analytic reference signals."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import harmflow as hf
from harmflow import svg
from harmflow.analyzer import AnalysisError

TWO_PI = 2.0 * math.pi


def naive_correlation_spectrum(samples, sample_rate_hz, fundamental_hz, max_order):
    """Independent oracle: plain correlation sums, no FFT machinery.

    Returns (rms magnitudes, phases) for orders 1..max_order with the same
    cos-referenced phase convention as the production path.
    """
    n = len(samples)
    mags, phases = [], []
    for h in range(1, max_order + 1):
        cos_sum = 0.0
        sin_sum = 0.0
        for k in range(n):
            angle = TWO_PI * h * fundamental_hz * k / sample_rate_hz
            cos_sum += samples[k] * math.cos(angle)
            sin_sum += samples[k] * math.sin(angle)
        a = 2.0 * cos_sum / n
        b = 2.0 * sin_sum / n
        mags.append(math.hypot(a, b) / math.sqrt(2.0))
        phases.append(math.atan2(-b, a))
    return np.array(mags), np.array(phases)


def multi_tone(rng, n_periods=4, spp=80, max_order=8):
    """Random band-limited signal with known harmonic content."""
    n = n_periods * spp
    t = np.arange(n) / spp  # time in fundamental periods
    amps = rng.uniform(0.05, 2.0, size=max_order)
    phases = rng.uniform(-math.pi, math.pi, size=max_order)
    x = np.zeros(n)
    for h in range(1, max_order + 1):
        x += amps[h - 1] * np.cos(TWO_PI * h * t + phases[h - 1])
    return x, amps, phases


# --- reference signals -------------------------------------------------------


def test_pure_sine():
    spp, periods = 2000, 5
    t = np.arange(spp * periods) / spp
    x = math.sqrt(2.0) * np.sin(TWO_PI * t)
    spec = hf.spectrum(x, spp * 50.0, 50.0, 50)
    assert spec.magnitudes[0] == pytest.approx(1.0, rel=1e-12)
    assert np.all(spec.magnitudes[1:] < 1e-12)
    assert spec.thd == pytest.approx(0.0, abs=1e-12)
    assert spec.rms_total == pytest.approx(1.0, rel=1e-12)


def test_two_tone_thd():
    spp, periods = 400, 3
    t = np.arange(spp * periods) / spp
    x = np.sin(TWO_PI * t) + 0.1 * np.sin(5 * TWO_PI * t)
    spec = hf.spectrum(x, spp * 50.0, 50.0, 10)
    assert spec.thd == pytest.approx(0.1, abs=1e-9)


def test_known_amplitudes_and_phases():
    rng = np.random.default_rng(3)
    x, amps, phases = multi_tone(rng)
    spec = hf.spectrum(x, 80.0 * 50.0, 50.0, 8)
    np.testing.assert_allclose(spec.magnitudes, amps / math.sqrt(2.0), rtol=1e-9)
    phase_err = np.angle(np.exp(1j * (spec.phases_rad - phases)))
    np.testing.assert_allclose(phase_err, 0.0, atol=1e-9)


def test_dc_component_reported_not_in_thd():
    spp, periods = 200, 2
    t = np.arange(spp * periods) / spp
    x = 3.0 + np.cos(TWO_PI * t)
    spec = hf.spectrum(x, spp * 50.0, 50.0, 5)
    assert spec.dc == pytest.approx(3.0, rel=1e-12)
    assert spec.thd == pytest.approx(0.0, abs=1e-12)


# --- oracle equivalence --------------------------------------------------------


def test_spectrum_matches_naive_correlation_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        x, _, _ = multi_tone(rng, n_periods=3, spp=64, max_order=8)
        x += rng.normal(0.0, 0.2, size=len(x))  # broadband content
        spec = hf.spectrum(x, 64.0 * 50.0, 50.0, 8)
        mags, phases = naive_correlation_spectrum(x, 64.0 * 50.0, 50.0, 8)
        np.testing.assert_allclose(spec.magnitudes, mags, rtol=1e-9, atol=1e-12)
        rot = np.angle(np.exp(1j * (spec.phases_rad - phases)))
        np.testing.assert_allclose(rot, 0.0, atol=1e-9)


def test_parseval_band_limited():
    rng = np.random.default_rng(5)
    for _ in range(5):
        x, _, _ = multi_tone(rng, n_periods=2, spp=120, max_order=12)
        x += 0.7  # DC offset participates in total power
        spec = hf.spectrum(x, 120.0 * 50.0, 50.0, 12)
        power = float(np.sum(spec.magnitudes**2)) + spec.dc**2
        assert power == pytest.approx(spec.rms_total**2, rel=1e-9)


# --- invariances ----------------------------------------------------------------


@given(scale=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=30, deadline=None)
def test_amplitude_linearity(scale):
    rng = np.random.default_rng(17)
    x, _, _ = multi_tone(rng, n_periods=2, spp=60, max_order=6)
    base = hf.spectrum(x, 60.0 * 50.0, 50.0, 6)
    scaled = hf.spectrum(scale * x, 60.0 * 50.0, 50.0, 6)
    np.testing.assert_allclose(scaled.magnitudes, scale * base.magnitudes, rtol=1e-9)
    assert scaled.thd == pytest.approx(base.thd, rel=1e-9)


@given(shift=st.integers(min_value=1, max_value=59))
@settings(max_examples=30, deadline=None)
def test_window_shift_rotates_phases(shift):
    spp = 60
    rng = np.random.default_rng(23)
    x, _, _ = multi_tone(rng, n_periods=3, spp=spp, max_order=6)
    base = hf.spectrum(x[: 2 * spp], spp * 50.0, 50.0, 6)
    moved = hf.spectrum(x[shift : shift + 2 * spp], spp * 50.0, 50.0, 6)
    np.testing.assert_allclose(moved.magnitudes, base.magnitudes, rtol=1e-9, atol=1e-12)
    orders = np.arange(1, 7)
    expected = base.phases_rad + orders * TWO_PI * shift / spp
    rot = np.angle(np.exp(1j * (moved.phases_rad - expected)))
    np.testing.assert_allclose(rot, 0.0, atol=1e-9)


def test_scaling_leaves_power_factors_unchanged():
    spp, periods = 200, 2
    t = np.arange(spp * periods) / spp
    v = np.cos(TWO_PI * t)
    i = np.cos(TWO_PI * t - math.pi / 5) + 0.2 * np.cos(5 * TWO_PI * t)
    base = hf.power_report(v, i, spp * 50.0, 50.0)
    scaled = hf.power_report(3.0 * v, i, spp * 50.0, 50.0)
    assert scaled.true_power_factor == pytest.approx(base.true_power_factor, rel=1e-9)
    assert scaled.displacement_power_factor == pytest.approx(
        base.displacement_power_factor, rel=1e-9
    )
    assert scaled.active_power_w == pytest.approx(3.0 * base.active_power_w, rel=1e-9)


# --- THD -------------------------------------------------------------------------


def test_ieee519_check_rejects_zero_fundamental():
    spec = hf.HarmonicSpectrum(
        fundamental_hz=50.0,
        magnitudes=np.array([0.0, 0.5]),
        phases_rad=np.zeros(2),
        rms_total=0.5,
        dc=0.0,
    )
    assert math.isnan(spec.thd)
    with pytest.raises(AnalysisError, match="zero fundamental"):
        hf.ieee519_check(spec)


def test_hand_built_spectrum_derives_orders_and_thd():
    spec = hf.HarmonicSpectrum(
        fundamental_hz=50.0,
        magnitudes=np.array([2.0, 0.0, 0.6, 0.8]),
        phases_rad=np.zeros(4),
        rms_total=3.0,
        dc=0.0,
    )
    assert spec.orders.tolist() == [1, 2, 3, 4]
    for h in spec.orders:
        assert spec.magnitude(h) == spec.magnitudes[h - 1]
    assert spec.thd == 0.5
    with pytest.raises(AnalysisError, match="order 5 not in spectrum"):
        spec.magnitude(5)


@pytest.mark.parametrize("field", ["magnitudes", "phases_rad", "rms_total", "dc"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_hand_built_spectrum_rejects_non_finite(field, value):
    fields = dict(magnitudes=np.array([2.0, 0.6]), phases_rad=np.zeros(2), rms_total=3.0, dc=0.0)
    fields[field] = np.array([2.0, value]) if field in ("magnitudes", "phases_rad") else value
    with pytest.raises(AnalysisError, match=f"spectrum {field} must be finite"):
        hf.HarmonicSpectrum(fundamental_hz=50.0, **fields)


def test_hand_built_spectrum_rejects_length_mismatch():
    with pytest.raises(AnalysisError, match="magnitudes and phases must match in length"):
        hf.HarmonicSpectrum(50.0, np.array([2.0, 0.6]), np.zeros(3), rms_total=3.0, dc=0.0)


def test_all_zero_spectrum_draws_empty_bars():
    spec = hf.HarmonicSpectrum(50.0, np.zeros(3), np.zeros(3), rms_total=0.0, dc=0.0)
    text = svg.spectrum_bar_svg(spec)
    assert text.startswith("<svg") and text.endswith("</svg>\n")
    assert "nan" not in text and text.count('height="0.00"') == 3


def test_parseval_check_cannot_overflow():
    # Squaring 1e200 overflows a double; the check still accepts or rejects.
    big = dict(fundamental_hz=50.0, phases_rad=np.zeros(1), dc=1e200)
    hf.HarmonicSpectrum(magnitudes=np.array([1e200]), rms_total=math.sqrt(2.0) * 1e200, **big)
    with pytest.raises(AnalysisError, match="exceeds total RMS"):
        hf.HarmonicSpectrum(magnitudes=np.array([1e200]), rms_total=1e200, **big)


def test_spectrum_only_fundamental_thd_zero():
    spp = 100
    t = np.arange(2 * spp) / spp
    spec = hf.spectrum(np.sin(TWO_PI * t), spp * 50.0, 50.0, 1)
    assert spec.thd == 0.0


# --- window contract --------------------------------------------------------------


def test_spectrum_rejects_partial_periods():
    x = np.sin(TWO_PI * np.arange(250) / 100.0)
    with pytest.raises(AnalysisError, match="integer"):
        hf.spectrum(x, 100.0 * 50.0, 50.0, 5)


def test_spectrum_rejects_orders_beyond_nyquist_guard():
    spp = 40
    x = np.sin(TWO_PI * np.arange(2 * spp) / spp)
    with pytest.raises(AnalysisError, match="Nyquist"):
        hf.spectrum(x, spp * 50.0, 50.0, 21)
    hf.spectrum(x, spp * 50.0, 50.0, 20)  # exactly at the guard is allowed
    for order in (2.5, 20.0):
        with pytest.raises(AnalysisError, match=f"^max_order must be an integer, got {order}$"):
            hf.spectrum(x, spp * 50.0, 50.0, order)


def test_spectrum_rejects_empty_window():
    with pytest.raises(AnalysisError):
        hf.spectrum(np.array([1.0]), 100.0, 50.0, 1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("rate", ["sample_rate_hz", "fundamental_hz"])
@pytest.mark.parametrize("analysis", ["spectrum", "power_report", "settling_residual"])
def test_non_finite_rate_raises_analysis_error(analysis, rate, value):
    spp = 100
    x = np.sin(TWO_PI * np.arange(2 * spp) / spp)
    rates = {"sample_rate_hz": spp * 50.0, "fundamental_hz": 50.0, rate: value}
    samples = (x, x) if analysis == "power_report" else (x,)
    with pytest.raises(AnalysisError, match=f"^{rate} must be positive and finite"):
        getattr(hf, analysis)(*samples, rates["sample_rate_hz"], rates["fundamental_hz"])


# --- power report ------------------------------------------------------------------


def test_power_report_identical_waveforms():
    spp, periods = 500, 2
    t = np.arange(spp * periods) / spp
    v = np.sin(TWO_PI * t)
    rep = hf.power_report(v, v, spp * 50.0, 50.0)
    assert rep.true_power_factor == pytest.approx(1.0, abs=1e-12)
    assert rep.displacement_power_factor == pytest.approx(1.0, abs=1e-12)


def test_power_report_sixty_degree_lag():
    spp, periods = 600, 2
    t = np.arange(spp * periods) / spp
    v = np.sin(TWO_PI * t)
    i = np.sin(TWO_PI * t - math.pi / 3)
    rep = hf.power_report(v, i, spp * 50.0, 50.0)
    assert rep.displacement_power_factor == pytest.approx(0.5, abs=1e-9)
    assert rep.true_power_factor == pytest.approx(0.5, abs=1e-9)


def test_power_report_distortion_lowers_true_pf():
    # Sinusoidal voltage with distorted current: the distortion factor
    # separates the two figures.
    spp, periods = 600, 2
    t = np.arange(spp * periods) / spp
    v = np.sin(TWO_PI * t)
    i = np.sin(TWO_PI * t - math.pi / 6) + 0.3 * np.sin(5 * TWO_PI * t)
    rep = hf.power_report(v, i, spp * 50.0, 50.0)
    assert abs(rep.true_power_factor) < abs(rep.displacement_power_factor)
    expected_dpf = math.cos(math.pi / 6)
    assert rep.displacement_power_factor == pytest.approx(expected_dpf, abs=1e-9)


def test_power_report_harmonic_power_can_raise_true_pf():
    # With a distorted voltage, in-phase harmonics carry active power, so
    # P/S can exceed the fundamental's cos(phi): 0.5 cos 80deg plus 0.125
    # over S = 0.625 gives 0.339 against a DPF of 0.174.
    spp, periods = 600, 2
    t = np.arange(spp * periods) / spp
    v = np.sin(TWO_PI * t) + 0.5 * np.sin(3 * TWO_PI * t)
    i = np.sin(TWO_PI * t - math.radians(80.0)) + 0.5 * np.sin(3 * TWO_PI * t)
    rep = hf.power_report(v, i, spp * 50.0, 50.0)
    assert rep.displacement_power_factor == pytest.approx(
        math.cos(math.radians(80.0)), abs=1e-9
    )
    expected_pf = (0.5 * math.cos(math.radians(80.0)) + 0.125) / 0.625
    assert rep.true_power_factor == pytest.approx(expected_pf, abs=1e-9)
    assert rep.displacement_power_factor < rep.true_power_factor <= 1.0


def test_power_report_rejects_zero_apparent_power():
    x = np.zeros(100)
    with pytest.raises(AnalysisError):
        hf.power_report(x, x, 100.0 * 50.0, 50.0)


def test_power_report_rejects_missing_fundamental():
    # A DC voltage has an exactly zero fundamental, but not zero RMS.
    spp = 100
    i = np.sin(TWO_PI * np.arange(2 * spp) / spp)
    with pytest.raises(AnalysisError, match="fundamental component missing"):
        hf.power_report(np.ones(2 * spp), i, spp * 50.0, 50.0)


def test_power_report_rejects_length_mismatch():
    spp = 100
    t = np.arange(2 * spp) / spp
    v = np.sin(TWO_PI * t)
    with pytest.raises(AnalysisError):
        hf.power_report(v, v[:-1], spp * 50.0, 50.0)


# --- compliance check ----------------------------------------------------------------


def _synthetic_spectrum(thd_target):
    mags = np.array([1.0, thd_target])
    return hf.HarmonicSpectrum(
        fundamental_hz=50.0,
        magnitudes=mags,
        phases_rad=np.zeros(2),
        rms_total=float(np.sqrt(np.sum(mags**2))),
        dc=0.0,
    )


def test_ieee519_check_passes_below_limit():
    result = hf.ieee519_check(_synthetic_spectrum(0.049))
    assert result.passed
    assert result.thd == pytest.approx(0.049)
    assert result.limit == 0.05


def test_ieee519_check_fails_at_limit_boundary():
    result = hf.ieee519_check(_synthetic_spectrum(0.05))
    assert not result.passed


def test_ieee519_check_custom_limit():
    result = hf.ieee519_check(_synthetic_spectrum(0.08), thd_limit=0.1)
    assert result.passed


# --- exports --------------------------------------------------------------------------


def test_spectrum_csv_layout(tmp_path):
    spp, periods = 200, 2
    t = np.arange(spp * periods) / spp
    x = 1.5 + np.sin(TWO_PI * t)
    spec = hf.spectrum(x, spp * 50.0, 50.0, 3)
    path = tmp_path / "spec.csv"
    spec.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "order,frequency_hz,magnitude_rms,phase_rad"
    assert len(lines) == 1 + 1 + 3  # header, DC row, three orders
    dc_row = lines[1].split(",")
    assert dc_row[0] == "0"
    assert float(dc_row[2]) == pytest.approx(1.5, rel=1e-12)
    first = lines[2].split(",")
    assert first[0] == "1"
    assert float(first[1]) == 50.0


def test_settling_residual_of_decaying_ringing():
    # A settled fundamental plus a 5th harmonic ringing that halves every
    # period: the largest change is between the first two periods.
    spp, periods = 200, 4
    t = np.arange(spp * periods) / spp  # time in fundamental periods
    x = np.sin(TWO_PI * t) + 0.1 * 0.5**t * np.sin(TWO_PI * 5 * t)
    cycles = x.reshape(periods, spp)
    expected = np.max(np.abs(cycles[1] - cycles[0])) / np.max(np.abs(x))
    assert hf.settling_residual(x, spp * 50.0, 50.0) == pytest.approx(expected, rel=1e-12)
    assert 0.02 < expected < 0.1
    assert hf.settling_residual(np.sin(TWO_PI * t), spp * 50.0, 50.0) < 1e-12
    assert hf.settling_residual(np.zeros(spp * periods), spp * 50.0, 50.0) == 0.0


def test_settling_residual_needs_two_whole_periods():
    with pytest.raises(AnalysisError, match="at least two periods"):
        hf.settling_residual(np.ones(200), 200 * 50.0, 50.0)
    with pytest.raises(AnalysisError, match="whole periods"):
        hf.settling_residual(np.ones(300), 200 * 50.0, 50.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["everywhere", "one_sample"])
def test_settling_residual_rejects_non_finite_window(value, where):
    # An all-NaN window has no peak to be settled at, nor does one that
    # holds an infinity.
    x = np.full(400, value) if where == "everywhere" else np.ones(400)
    x[123] = value
    with pytest.raises(AnalysisError, match="settling-residual window must be finite"):
        hf.settling_residual(x, 200 * 50.0, 50.0)


def test_settling_residual_needs_integer_samples_per_period():
    # Three whole periods of 10/3 samples each cannot be cut into cycles.
    with pytest.raises(AnalysisError, match="samples per fundamental period is not an integer"):
        hf.settling_residual(np.ones(10), 1000.0, 300.0)
