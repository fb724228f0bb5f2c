"""Impedance formulas, bank combination, scans, and resonance detection."""

from __future__ import annotations

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import harmflow as hf
from harmflow import network
from harmflow.design import DesignError, QualityFactorWarning, bank_from_dict, bank_to_dict
from harmflow.network import _CHUNK, NetworkError, find_resonances

TWO_PI = 2.0 * math.pi

BASIS = hf.SystemBasis(fundamental_hz=50.0, source_vrms=220.0, source_inductance_h=0.0016)
REF_C = 11.09e-6


def _st(order=5.0, c=REF_C, q=106.24):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QualityFactorWarning)
        return hf.design_single_tuned(BASIS, order, c, q)


def _hp(corner=858.32, c=REF_C, q=2.9704):
    return hf.design_high_pass(BASIS, corner, c, q)


# --- single-tuned impedance --------------------------------------------------


def test_st_impedance_vanishing_reactance_at_tuned():
    f5 = _st()
    z = hf.branch_impedance(f5, 250.0)
    assert abs(z.imag) < 1e-6
    assert z.real == pytest.approx(0.54, abs=5e-3)


@given(
    h=st.floats(min_value=2.0, max_value=40.0),
    c=st.floats(min_value=1e-7, max_value=1e-4),
    q=st.floats(min_value=1.0, max_value=150.0),
)
@settings(max_examples=50)
def test_st_impedance_equals_resistance_at_tuned(h, c, q):
    f = _st(h, c, q)
    assert abs(hf.branch_impedance(f, f.tuned_hz)) == pytest.approx(
        f.resistance_ohm, rel=1e-9
    )


def test_st_impedance_blocks_dc():
    f5 = _st()
    assert abs(hf.branch_impedance(f5, 1e-9)) > 1e10


def test_st_impedance_rejects_nonpositive_frequency():
    f5 = _st()
    with pytest.raises(NetworkError):
        hf.branch_impedance(f5, 0.0)
    with pytest.raises(NetworkError):
        hf.branch_impedance(f5, np.array([100.0, -5.0]))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NetworkError, match="positive and finite"):
            hf.branch_impedance(f5, bad)
        with pytest.raises(NetworkError, match="positive and finite"):
            hf.bank_impedance(hf.FilterBank(50.0, (f5,)), np.array([100.0, bad]))
    # Finite frequencies whose impedance is not finite name the frequency.
    with pytest.raises(NetworkError, match=r"^impedance at 1e\+308 Hz is not finite$"):
        hf.bank_impedance(hf.FilterBank(50.0, (f5,)), np.array([100.0, 1e308]))
    with pytest.raises(NetworkError, match=r"^impedance at 1e-320 Hz is not finite$"):
        hf.branch_impedance(f5, 1e-320)


def test_impedance_whose_magnitude_overflows_is_not_finite(ref_bank, monkeypatch):
    # R and wL each below DBL_MAX, |Z| above it: 1 Hz passes, 1000 Hz not.
    huge = hf.SingleTunedFilter(
        order=2.0, capacitance_f=1.0, inductance_h=2.4e304, resistance_ohm=1.5e308
    )
    z = hf.branch_impedance(huge, 1.0)
    assert math.isfinite(abs(z))
    with pytest.raises(NetworkError, match=r"^impedance at 1000\.0 Hz is not finite$"):
        hf.branch_impedance(huge, np.array([1.0, 1000.0]))
    # A scan fails the same way, naming the first such frequency.
    def overflowing(bank, w, source_inductance_h=0.0, y=None):
        z = np.full(w.shape, 2.0 + 1.0j)
        z[3:] = 1.5e308 - 1.5e308j
        return z, np.ones(w.shape, dtype=complex)

    monkeypatch.setattr(network, "_bank_z", overflowing)
    monkeypatch.setattr(network, "_last_scan", None)
    with pytest.raises(NetworkError, match=r"^impedance at 53\.0 Hz is not finite \(source"):
        hf.scan(ref_bank, 0.0016, 50.0, 60.0, 11)
    assert network._last_scan is None


def test_st_impedance_matches_elementwise_formula():
    f5 = _st()
    freqs = np.array([60.0, 250.0, 700.0])
    z = hf.branch_impedance(f5, freqs)
    for fk, zk in zip(freqs, z):
        w = TWO_PI * fk
        expected = f5.resistance_ohm + 1j * (
            w * f5.inductance_h - 1.0 / (w * f5.capacitance_f)
        )
        assert zk == expected


# --- high-pass impedance ------------------------------------------------------


def test_hp_impedance_flattens_to_resistance():
    f = _hp()
    z = hf.branch_impedance(f, 1e9)
    assert z.real == pytest.approx(f.resistance_ohm, rel=1e-3)
    assert abs(z.imag) < 0.1


def test_hp_impedance_capacitive_at_fundamental():
    f = _hp()
    z = hf.branch_impedance(f, 50.0)
    xc = 1.0 / (TWO_PI * 50.0 * f.capacitance_f)
    assert abs(z) == pytest.approx(xc, rel=0.15)
    assert abs(z) == pytest.approx(286.05, abs=0.05)


def test_hp_impedance_reactance_balance_at_corner():
    f = _hp()
    xl = TWO_PI * f.corner_hz * f.inductance_h
    xc = 1.0 / (TWO_PI * f.corner_hz * f.capacitance_f)
    assert xl == pytest.approx(xc, rel=1e-9)


def test_hp_impedance_large_r_reduces_to_series_lc():
    corner = 800.0
    l = 1.0 / ((TWO_PI * corner) ** 2 * REF_C)
    r = 1e9
    f = hf.HighPassFilter(capacitance_f=REF_C, inductance_h=l, resistance_ohm=r)
    for fk in (100.0, 500.0, 2000.0):
        w = TWO_PI * fk
        series = 1j * (w * l - 1.0 / (w * REF_C))
        assert hf.branch_impedance(f, fk) == pytest.approx(series, rel=1e-6)


# --- bank combination ---------------------------------------------------------


def test_bank_single_branch_equals_branch(ref_bank):
    single = hf.FilterBank(fundamental_hz=50.0, branches=(ref_bank.branches[0],))
    for f in (100.0, 250.0, 900.0):
        assert hf.bank_impedance(single, f) == pytest.approx(
            hf.branch_impedance(ref_bank.branches[0], f), rel=1e-12
        )


def test_bank_admittance_additivity(ref_bank):
    rng = np.random.default_rng(7)
    freqs = rng.uniform(51.0, 999.0, size=25)
    for f in freqs:
        order = rng.permutation(len(ref_bank.branches))
        y_indep = sum(1.0 / hf.branch_impedance(ref_bank.branches[i], f) for i in order)
        y_bank = 1.0 / hf.bank_impedance(ref_bank, f)
        assert y_bank == pytest.approx(y_indep, rel=1e-12)


def test_bank_conductance_dominates_each_branch(ref_bank):
    freqs = np.linspace(50.0, 1000.0, 96)
    y_bank = 1.0 / hf.bank_impedance(ref_bank, freqs)
    for branch in ref_bank.branches:
        y_branch = 1.0 / hf.branch_impedance(branch, freqs)
        assert np.all(y_bank.real >= y_branch.real - 1e-12)


def test_bank_low_impedance_at_tuned_frequencies(ref_bank):
    for f in (250.0, 350.0, 550.0, 650.0):
        assert abs(hf.bank_impedance(ref_bank, f)) < 1.0


def test_bank_impedance_finite_over_extreme_frequencies(ref_bank):
    # The complex element laws stay finite where R^2 + X^2 of a
    # real-arithmetic form overflows (f <= ~1e-150 Hz, f >= ~1e160 Hz).
    freqs = np.logspace(-300.0, 300.0, 601)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        z = hf.bank_impedance(ref_bank, freqs)
    assert np.all(np.isfinite(z))
    assert np.all(np.abs(z) > 0.0)


def test_bank_impedance_rejects_empty_bank():
    # The bank itself rejects it, so no scan or impedance call sees one.
    with pytest.raises(DesignError, match="at least one branch"):
        hf.bank_impedance(hf.FilterBank(fundamental_hz=50.0, branches=()), 100.0)


# --- scanning -----------------------------------------------------------------


def test_scan_without_source_matches_bank(ref_bank):
    curve = hf.scan(ref_bank, 0.0, 50.0, 1000.0, 20)
    for f, z in zip(curve.frequencies_hz, curve.impedances):
        assert z == hf.bank_impedance(ref_bank, float(f))


def test_scan_across_chunk_boundaries_matches_bank(ref_bank):
    # Two full chunks and a partial third.  Shifted by one point, the
    # passes of bank_impedance break between other points.
    curve = hf.scan(ref_bank, 0.0, 50.0, 1000.0, 2 * _CHUNK + 3)
    f, z = curve.frequencies_hz, curve.impedances
    assert np.array_equal(z[1:], hf.bank_impedance(ref_bank, f[1:]))
    for i in (0, _CHUNK - 1, _CHUNK, 2 * _CHUNK - 1, 2 * _CHUNK, len(f) - 1):
        assert z[i] == hf.bank_impedance(ref_bank, float(f[i]))


def test_scan_with_source_matches_element_law(ref_bank):
    # The bundled dense grid: the source inductance in parallel with the bank.
    ls = 0.0016
    curve = hf.scan(ref_bank, ls, 50.0, 1000.0, 95001)
    f = curve.frequencies_hz
    z_bank = hf.bank_impedance(ref_bank, f)
    expected = 1.0 / (1.0 / z_bank + 1.0 / (1j * TWO_PI * f * ls))
    np.testing.assert_allclose(curve.impedances, expected, rtol=1e-13, atol=0.0)


def test_scan_two_points_is_endpoints(ref_bank):
    curve = hf.scan(ref_bank, 0.0, 100.0, 200.0, 2)
    assert list(curve.frequencies_hz) == [100.0, 200.0]


def test_scan_rejects_malformed_range(ref_bank):
    with pytest.raises(NetworkError):
        hf.scan(ref_bank, 0.0, 500.0, 100.0, 10)
    with pytest.raises(NetworkError):
        hf.scan(ref_bank, 0.0, 0.0, 100.0, 10)
    with pytest.raises(NetworkError):
        hf.scan(ref_bank, 0.0, 50.0, 1000.0, 1)


@pytest.mark.parametrize("n_points", [951.7, np.float64(951.7), "951", math.nan, 951 + 0j])
def test_scan_rejects_non_integral_points(ref_bank, n_points):
    with pytest.raises(NetworkError, match=re.escape(f"got {n_points!r}")):
        hf.scan(ref_bank, 0.0, 50.0, 1000.0, n_points)


@pytest.mark.parametrize("n_points", [951, np.int64(951), np.int32(951), np.uint16(951)])
def test_scan_accepts_integer_points(ref_bank, n_points):
    assert len(hf.scan(ref_bank, 0.0, 50.0, 1000.0, n_points).frequencies_hz) == 951


def test_scan_minima_at_tuned_frequencies(ref_bank):
    curve = hf.scan(ref_bank, 0.0, 50.0, 1000.0, 951)
    step = curve.frequencies_hz[1] - curve.frequencies_hz[0]
    report = find_resonances(curve)
    for target in (250.0, 350.0, 550.0, 650.0):
        assert any(
            abs(f - target) <= step + 1e-9 for f in report.series_resonances_hz
        ), f"no series resonance within one grid step of {target} Hz"


def test_scan_with_source_inductance_parallel_resonance_below_first_tuned(ref_bank):
    curve = hf.scan(ref_bank, 0.0016, 50.0, 1000.0, 951)
    report = find_resonances(curve)
    assert any(f < 250.0 for f in report.parallel_resonances_hz)


def test_full_bank_resonance_structure(ref_bank):
    # Four tuned minima plus a fifth dip where the high-pass branch crosses
    # its corner region; maxima sit strictly between consecutive minima.
    curve = hf.scan(ref_bank, 0.0, 50.0, 1000.0, 951)
    report = find_resonances(curve)
    series = sorted(report.series_resonances_hz)
    assert len(series) == 5
    parallel = sorted(report.parallel_resonances_hz)
    assert len(parallel) == len(series) - 1
    for peak, lo, hi in zip(parallel, series, series[1:]):
        assert lo < peak < hi


# --- the scan memo ------------------------------------------------------------


def _memo_free(bank, ls, f_start, f_end, n_points):
    """The scan's impedances with the memo empty before and after."""
    saved = network._last_scan
    network._last_scan = None
    try:
        return hf.scan(bank, ls, f_start, f_end, n_points).impedances
    finally:
        network._last_scan = saved


def test_scan_memo_matches_memo_free_scans(ref_bank, monkeypatch):
    monkeypatch.setattr(network, "_last_scan", None)
    bank_a, bank_b = ref_bank, hf.FilterBank(50.0, ref_bank.branches[1:])
    # Built apart from bank_a, with equal values: it shares bank_a's slot.
    bank_a2 = bank_from_dict(json.loads(json.dumps(bank_to_dict(bank_a))))
    assert bank_a2 == bank_a and bank_a2 is not bank_a
    dense, coarse = (50.0, 1000.0, 2 * _CHUNK + 3), (50.0, 1000.0, 951)
    scans = [
        (bank_a, 0.0, dense),  # cold
        (bank_a, 0.0016, dense),  # warm
        (bank_a, 0.0, dense),
        (bank_b, 0.0016, dense),  # interleaved: A, B, A
        (bank_a, 0.002, dense),
        (bank_a, 0.002, coarse),  # another grid
        (bank_a2, 0.0016, coarse),
        (bank_a2, 0.0, dense),
        (bank_a, 3e-4, dense),
    ]
    expected = [_memo_free(bank, ls, *grid) for bank, ls, grid in scans]
    curves, slots = [], []
    for (bank, ls, grid), z in zip(scans, expected):
        curve = hf.scan(bank, ls, *grid)
        curves.append(curve)
        assert curve.impedances.tobytes() == z.tobytes()
        # One slot, holding this scan's key and an admittance sum of its size.
        key, y = network._last_scan
        assert key == (repr(bank), *grid)
        assert y.shape == z.shape and y.dtype == complex
        assert not y.flags.writeable
        slots.append(y)
    # Hits: the warm scans, the repeat after B, and the equal bank.
    assert [s is t for s, t in zip(slots, slots[1:])] == [
        True, True, False, False, False, True, False, True
    ]
    for y in slots:
        for curve in curves:
            assert not np.shares_memory(y, curve.impedances)
            assert not np.shares_memory(y, curve.frequencies_hz)


def test_scan_memo_tells_equal_values_of_other_types_apart(monkeypatch):
    # Equal banks whose high-pass resistance is a float and a float32:
    # 1/R is a double in one and a single in the other.
    monkeypatch.setattr(network, "_last_scan", None)
    hp = _hp()
    as_float = hf.FilterBank(50.0, (hf.HighPassFilter(hp.capacitance_f, hp.inductance_h, 3.0),))
    as_single = hf.FilterBank(
        50.0, (hf.HighPassFilter(hp.capacitance_f, hp.inductance_h, np.float32(3.0)),)
    )
    assert as_float == as_single
    grid = (50.0, 1000.0, 951)
    expected = _memo_free(as_single, 0.0, *grid)
    assert expected.tobytes() != _memo_free(as_float, 0.0, *grid).tobytes()
    hf.scan(as_float, 0.0, *grid)
    assert hf.scan(as_single, 0.0, *grid).impedances.tobytes() == expected.tobytes()


def test_failing_scan_stores_nothing(ref_bank, monkeypatch):
    monkeypatch.setattr(network, "_last_scan", None)
    with pytest.raises(NetworkError, match="not finite"):
        hf.scan(ref_bank, 1e-320, 50.0, 1000.0, 951)
    assert network._last_scan is None
    hf.scan(ref_bank, 0.0, 50.0, 1000.0, 951)
    stored = network._last_scan
    # A miss on another grid and a hit on this one, each failing.
    with pytest.raises(NetworkError, match="not finite"):
        hf.scan(ref_bank, 0.0, 50.0, 1e308, 951)
    with pytest.raises(NetworkError, match="not finite"):
        hf.scan(ref_bank, 1e-320, 50.0, 1000.0, 951)
    assert network._last_scan is stored


def test_bank_impedance_leaves_scan_memo_alone(ref_bank, monkeypatch):
    monkeypatch.setattr(network, "_last_scan", None)
    hf.bank_impedance(ref_bank, np.linspace(50.0, 1000.0, 951))
    hf.branch_impedance(ref_bank.branches[0], 250.0)
    assert network._last_scan is None


# --- resonance detection ------------------------------------------------------


def test_find_resonances_single_branch(ref_bank):
    single = hf.FilterBank(fundamental_hz=50.0, branches=(ref_bank.branches[0],))
    curve = hf.scan(single, 0.0, 50.0, 1000.0, 951)
    report = find_resonances(curve)
    assert len(report.series_resonances_hz) == 1
    assert report.series_resonances_hz[0] == pytest.approx(250.0, abs=1.0)
    assert report.parallel_resonances_hz == ()


def test_find_resonances_monotonic_curve_is_empty():
    freqs = np.linspace(10.0, 100.0, 50)
    curve = hf.ImpedanceCurve(freqs, (freqs * 1.0) + 0j)
    report = find_resonances(curve)
    assert report.series_resonances_hz == ()
    assert report.parallel_resonances_hz == ()


def test_find_resonances_plateau_reports_lowest_frequency():
    freqs = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    mags = np.array([5.0, 3.0, 3.0, 3.0, 5.0])
    curve = hf.ImpedanceCurve(freqs, mags + 0j)
    report = find_resonances(curve)
    assert report.series_resonances_hz == (2.0,)


def test_find_resonances_staircase_has_no_extrema():
    freqs = np.array([1.0, 2.0, 3.0, 4.0])
    mags = np.array([1.0, 2.0, 2.0, 3.0])
    curve = hf.ImpedanceCurve(freqs, mags + 0j)
    report = find_resonances(curve)
    assert report.series_resonances_hz == ()
    assert report.parallel_resonances_hz == ()


@pytest.mark.parametrize(
    "ls, series, parallel",
    [
        (
            0.0,
            (249.94, 349.95, 549.9000000000001, 650.03, 918.0600000000001),
            (269.78999999999996, 390.15000000000003, 589.9300000000001, 772.35),
        ),
        (
            0.0016,
            (250.19, 350.13, 550.01, 650.13, 932.94),
            (243.06, 332.17, 478.81, 605.09, 795.32),
        ),
    ],
)
def test_find_resonances_dense_bundled_scan_pinned(ref_bank, ls, series, parallel):
    # 95,001 points over 50-1000 Hz (0.01 Hz steps), as in the design sweep.
    report = find_resonances(hf.scan(ref_bank, ls, 50.0, 1000.0, 95001))
    assert report.series_resonances_hz == series
    assert report.parallel_resonances_hz == parallel


def _reference_resonances(freqs, mags):
    """Per-element loop over runs of equal |Z|: the reference the vectorized
    ``find_resonances`` must match exactly."""
    runs = []
    start = 0
    for i in range(1, len(mags)):
        if mags[i] != mags[start]:
            runs.append((start, mags[start]))
            start = i
    runs.append((start, mags[start]))
    series, parallel = [], []
    for k in range(1, len(runs) - 1):
        idx, val = runs[k]
        left, right = runs[k - 1][1], runs[k + 1][1]
        if left > val < right:
            series.append(float(freqs[idx]))
        elif left < val > right:
            parallel.append(float(freqs[idx]))
    return tuple(series), tuple(parallel)


def _reference_z(bank, ls, f):
    """Driving-point impedance at ``f`` Hz from the element laws in Python
    complex arithmetic, one frequency at a time."""
    w = TWO_PI * f
    y = 0j
    for b in bank.single_tuned:
        y += 1.0 / complex(b.resistance_ohm, w * b.inductance_h - 1.0 / (w * b.capacitance_f))
    for b in bank.high_pass:
        zl = 1j * w * b.inductance_h
        y += 1.0 / (1.0 / (1j * w * b.capacitance_f) + b.resistance_ohm * zl / (b.resistance_ohm + zl))
    if ls:
        y += 1.0 / (1j * w * ls)
    return 1.0 / y


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dense_scan_of_random_bank_matches_scalar_reference(seed):
    # A bank and source drawn from the ranges of the design sweep, whose
    # quality factors stay inside the recommended ones.
    rng = np.random.default_rng(seed)
    basis = hf.SystemBasis(50.0, 220.0, rng.uniform(0.5e-3, 3e-3))
    bank = hf.design_bank_six_pulse(
        basis,
        math.exp(rng.uniform(math.log(5e-6), math.log(20e-6))),
        tuple(rng.uniform(20.0, 100.0, 4)),
        rng.uniform(700.0, 1000.0),
        rng.uniform(1.0, 4.0),
    )
    for ls in (0.0, basis.source_inductance_h):
        curve = hf.scan(bank, ls, 50.0, 1000.0, 95001)
        f, mags = curve.frequencies_hz, curve.magnitudes
        report = find_resonances(curve)
        # Every resonance, where the branch admittances cancel most, and
        # every 97th point.
        found = np.isin(f, report.series_resonances_hz + report.parallel_resonances_hz)
        picked = np.flatnonzero(found | (np.arange(len(f)) % 97 == 0))
        expected = np.array([_reference_z(bank, ls, float(f[i])) for i in picked])
        np.testing.assert_allclose(curve.impedances[picked], expected, rtol=1e-12, atol=0.0)
        # A dense scan has no plateau, so each point is a run of its own.
        assert np.all(mags[1:] != mags[:-1])
        expected_report = _reference_resonances(f, mags)
        assert (report.series_resonances_hz, report.parallel_resonances_hz) == expected_report


@given(
    st.lists(
        st.sampled_from([0.0, 1.0, 2.0, 3.0, math.nan, math.inf, -math.inf]),
        min_size=2,
        max_size=40,
    )
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_find_resonances_matches_reference_loop(values):
    # Few distinct values make plateaus, endpoint runs and NaN neighbours common.
    freqs = np.arange(1.0, len(values) + 1.0)
    curve = hf.ImpedanceCurve(freqs, np.array(values) + 0j)
    report = find_resonances(curve)
    expected = _reference_resonances(curve.frequencies_hz, curve.magnitudes)
    assert (report.series_resonances_hz, report.parallel_resonances_hz) == expected
    found = report.series_resonances_hz + report.parallel_resonances_hz
    assert all(type(f) is float for f in found)


def test_find_resonances_reversal_symmetry(ref_bank):
    curve = hf.scan(ref_bank, 0.0016, 50.0, 1000.0, 701)
    total = curve.frequencies_hz[0] + curve.frequencies_hz[-1]
    mirrored = hf.ImpedanceCurve(
        total - curve.frequencies_hz[::-1], curve.impedances[::-1]
    )
    fwd = find_resonances(curve)
    rev = find_resonances(mirrored)
    np.testing.assert_allclose(
        sorted(total - f for f in rev.series_resonances_hz),
        sorted(fwd.series_resonances_hz),
        rtol=0,
        atol=1e-9,
    )
    np.testing.assert_allclose(
        sorted(total - f for f in rev.parallel_resonances_hz),
        sorted(fwd.parallel_resonances_hz),
        rtol=0,
        atol=1e-9,
    )


# --- curve container ----------------------------------------------------------


def test_curve_validation():
    with pytest.raises(NetworkError):
        hf.ImpedanceCurve(np.array([1.0]), np.array([1 + 0j]))
    with pytest.raises(NetworkError):
        hf.ImpedanceCurve(np.array([2.0, 1.0]), np.array([1 + 0j, 2 + 0j]))
    with pytest.raises(NetworkError):
        hf.ImpedanceCurve(np.array([-1.0, 1.0]), np.array([1 + 0j, 2 + 0j]))
    with pytest.raises(NetworkError):
        hf.ImpedanceCurve(np.array([1.0, 2.0]), np.array([1 + 0j]))
    # Non-finite frequencies, a NaN first or last included.
    for freqs in ([1.0, math.nan], [1.0, math.inf], [math.nan, math.nan, 3.0]):
        with pytest.raises(NetworkError, match="positive, finite and strictly increasing"):
            hf.ImpedanceCurve(np.array(freqs), np.ones(len(freqs), dtype=complex))


def test_curve_csv_decimal_notation(ref_bank, tmp_path):
    curve = hf.scan(ref_bank, 0.0, 50.0, 1000.0, 5)
    curve.to_csv(tmp_path / "curve.csv")
    lines = (tmp_path / "curve.csv").read_text().strip().splitlines()
    assert lines[0] == "frequency_hz,re_ohms,im_ohms,abs_ohms"
    assert len(lines) == 6
    token = re.compile(r"^-?\d+\.?\d*$")
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 4
        for cell in cells:
            assert token.match(cell), f"non-decimal cell {cell!r}"
    # values round-trip at full double precision
    first = lines[1].split(",")
    assert float(first[0]) == curve.frequencies_hz[0]
    assert float(first[1]) == curve.impedances[0].real


def _reference_csv(curve):
    """The CSV text from numpy's positional formatter, row by row."""
    fmt = lambda v: np.format_float_positional(v, unique=True, trim="0")
    rows = ["frequency_hz,re_ohms,im_ohms,abs_ohms\n"]
    for f, z in zip(curve.frequencies_hz, curve.impedances):
        rows.append(f"{fmt(f)},{fmt(z.real)},{fmt(z.imag)},{fmt(abs(z))}\n")
    return "".join(rows)


def _csv(curve, path):
    curve.to_csv(path)
    return path.read_bytes().decode("ascii")


def test_curve_csv_matches_positional_formatter(ref_bank, tmp_path):
    # The README scan, then values on both sides of repr's switch to
    # exponent form (1e-4 and 1e16), subnormals, extremes and signed zeros.
    readme = hf.scan(ref_bank, 0.0016, 50.0, 1000.0, 951)
    assert _csv(readme, tmp_path / "readme.csv") == _reference_csv(readme)
    edge = [
        5e-324, 1e-300, 2.2250738585072014e-308, 1e-5, 9.99999e-5, 1e-4, 0.1, 1.0,
        9.999e15, 9999999999999998.0, 1e16, 1e300, 1.7976931348623157e308, -0.0, 0.0,
    ]
    rng = np.random.default_rng(11)
    signs = rng.choice([-1.0, 1.0], size=(2, 2000))
    random = signs * 10.0 ** rng.uniform(-323.0, 308.0, size=(2, 2000))
    re = np.concatenate([edge, -np.array(edge), random[0]])
    im = np.concatenate([edge[::-1], edge, random[1]])
    freqs = np.cumsum(10.0 ** rng.uniform(-6.0, 6.0, size=len(re)))
    curve = hf.ImpedanceCurve(freqs, re + 1j * im)
    assert _csv(curve, tmp_path / "edge.csv") == _reference_csv(curve)
