"""Acceptance gate: every headline figure and property the toolkit must
reproduce, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

import harmflow as hf
from harmflow import presets
from harmflow.design import QualityFactorWarning, bank_to_dict
from harmflow.network import find_resonances

from test_analyzer import multi_tone, naive_correlation_spectrum
# The reference component table printed with the bundled system (per
# phase, wye): branch C, tuned L and R by order, high-pass L and R.
from test_design import REF_C, REF_HP_L, REF_HP_R, REF_L, REF_R

TWO_PI = 2.0 * math.pi


def _criterion(name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE] {name}: {status} ({detail})")
    assert passed, f"{name}: {detail}"


def _thd_and_window(scenario, waves, max_order=50, cycles=5):
    window = hf.steady_state_window(waves, scenario.basis, cycles)
    spec = hf.spectrum(
        waves.channels["i_src_a"][window.start : window.stop],
        waves.sample_rate_hz,
        scenario.basis.fundamental_hz,
        max_order,
    )
    return spec, window


def _source_phase_a(scenario, waves):
    """Source voltage and current of phase a over the last five cycles."""
    window = hf.steady_state_window(waves, scenario.basis, 5)
    return (
        waves.channels["v_src_a"][window.start : window.stop],
        waves.channels["i_src_a"][window.start : window.stop],
    )


def _source_power(scenario, waves):
    """True and displacement power factor at the source, phase a."""
    v, i = _source_phase_a(scenario, waves)
    return hf.power_report(
        v, i, waves.sample_rate_hz, scenario.basis.fundamental_hz
    )


def _fundamental_complex_power(scenario, waves):
    """S1 = V1 conj(I1) at the source, phase a; Q1 > 0 while the current lags."""
    v, i = _source_phase_a(scenario, waves)
    sv, si = (
        hf.spectrum(x, waves.sample_rate_hz, scenario.basis.fundamental_hz, 1)
        for x in (v, i)
    )
    phase = float(sv.phases_rad[0] - si.phases_rad[0])
    return float(sv.magnitudes[0] * si.magnitudes[0]) * cmath.exp(1j * phase)


# --- 1. tuned inductor reproduction -------------------------------------------


def test_tuned_inductor_reference_values():
    basis = presets.filtered_scenario().basis
    printed = REF_L
    computed = {h: hf.tune_inductor(REF_C, h, basis) for h in printed}
    # The reference table truncates its four-decimal entries (0.0075506
    # prints as 0.0075), so match within one unit of the last shown digit.
    ok = all(abs(computed[h] - printed[h]) < 1e-4 for h in printed)
    detail = ", ".join(f"L{h}={computed[h]:.5f}" for h in sorted(printed))
    _criterion("tuned inductors match reference table", ok, detail)


# --- 2. high-pass consistency ---------------------------------------------------


def _high_pass_corner_hz() -> float:
    return 1.0 / (TWO_PI * math.sqrt(REF_HP_L * REF_C))


def _high_pass_quality_factor() -> float:
    return REF_HP_R / (TWO_PI * _high_pass_corner_hz() * REF_HP_L)


def test_high_pass_consistency():
    corner = _high_pass_corner_hz()
    q = _high_pass_quality_factor()
    ok = abs(corner - 858.0) < 5.0 and 2.9 <= q <= 3.1 and 0.5 <= q <= 5.0
    _criterion(
        "high-pass branch back-computes consistently",
        ok,
        f"corner={corner:.2f} Hz, q={q:.4f}",
    )


def test_bundled_bank_matches_printed_values():
    # scenarios/filtered.json stores the bank designed from the printed
    # table, with the quality factors back-computed so that the design
    # reproduces it: R = sqrt(L/C)/q (tuned), q = R/(2*pi*fc*L) (high-pass).
    tuned_q = [math.sqrt(REF_L[h] / REF_C) / REF_R[h] for h in (5, 7, 11, 13)]
    # q ~105..108 lies above the usual 20..100 recommendation.
    with pytest.warns(QualityFactorWarning):
        designed = hf.design_bank_six_pulse(
            presets.filtered_scenario().basis,
            REF_C,
            tuned_q,
            _high_pass_corner_hz(),
            _high_pass_quality_factor(),
        )
    ok = bank_to_dict(presets.filtered_scenario().bank) == bank_to_dict(designed)
    _criterion(
        "bundled bank is the design of the printed table",
        ok,
        "tuned q " + ", ".join(f"{q:.2f}" for q in tuned_q),
    )


# --- 3. baseline THD -------------------------------------------------------------


def test_baseline_thd(baseline_run):
    scenario, waves, wall = baseline_run
    spec, _ = _thd_and_window(scenario, waves)
    thd_pct = 100.0 * spec.thd
    ok = abs(thd_pct - 20.77) <= 3.0
    _criterion(
        "baseline source-current THD",
        ok,
        f"{thd_pct:.2f}% vs 20.77% +/- 3pp, run wall time {wall:.1f}s",
    )


# --- 4. filtered THD --------------------------------------------------------------


def test_filtered_thd(filtered_run):
    scenario, waves, wall = filtered_run
    spec, _ = _thd_and_window(scenario, waves)
    thd_pct = 100.0 * spec.thd
    ok = thd_pct < 5.0 and abs(thd_pct - 4.32) <= 1.5
    _criterion(
        "filtered source-current THD",
        ok,
        f"{thd_pct:.2f}% (hard limit 5%, target 4.32% +/- 1.5pp), "
        f"run wall time {wall:.1f}s",
    )


# --- 5. spectral shape --------------------------------------------------------------


def test_baseline_spectral_shape(baseline_run):
    scenario, waves, _ = baseline_run
    spec, _ = _thd_and_window(scenario, waves)
    fund = spec.magnitude(1)
    ratios = {int(h): spec.magnitude(int(h)) / fund for h in spec.orders if h >= 2}
    top_two = sorted(ratios, key=ratios.get, reverse=True)[:2]
    triplens = [h for h in ratios if h % 3 == 0]
    evens = [h for h in ratios if h % 2 == 0]
    worst_triplen = max(ratios[h] for h in triplens)
    worst_even = max(ratios[h] for h in evens)
    ok = (
        set(top_two) == {5, 7}
        and worst_triplen < 0.01
        and worst_even < 0.01
    )
    _criterion(
        "baseline spectral shape",
        ok,
        f"top-2 orders {sorted(top_two)}, h5={100 * ratios[5]:.2f}%, "
        f"h7={100 * ratios[7]:.2f}%, max triplen {100 * worst_triplen:.3f}%, "
        f"max even {100 * worst_even:.3f}%",
    )


# --- 6. power factor -----------------------------------------------------------------


def test_power_factor_improvement(baseline_run, filtered_run):
    base_scenario, base_waves, _ = baseline_run
    filt_scenario, filt_waves, _ = filtered_run
    base = _source_power(base_scenario, base_waves)
    filt = _source_power(filt_scenario, filt_waves)

    # Fundamental balance: the baseline's complex power plus the bank's
    # closed-form complex power at rated voltage predicts the filtered DPF.
    basis = base_scenario.basis
    s1 = _fundamental_complex_power(base_scenario, base_waves)
    z_bank = hf.bank_impedance(filt_scenario.bank, basis.fundamental_hz)
    s_bank = basis.source_vrms**2 / z_bank.conjugate()
    s_pred = s1 + s_bank
    predicted_dpf = s_pred.real / abs(s_pred)
    # The prediction holds the load at its baseline operating point, but
    # the bank lifts the PCC voltage and the rectifier then draws more
    # power (932 -> 953 W), which puts the simulated DPF 0.003 above the
    # prediction.  With 0.01 the check still fails once the bank's
    # simulated fundamental var is 3% short of its closed-form value or
    # 5% beyond it.
    dpf_tol = 0.01

    # Bank var for which the same balance would give DPF >= 0.95.
    q_margin = s1.real * math.tan(math.acos(0.95))
    ok = (
        filt.true_power_factor > base.true_power_factor
        and abs(filt.displacement_power_factor - predicted_dpf) <= dpf_tol
    )
    _criterion(
        "filters improve power factor",
        ok,
        f"true PF {base.true_power_factor:.4f} -> {filt.true_power_factor:.4f} "
        f"(must rise); DPF {base.displacement_power_factor:.4f} -> "
        f"{filt.displacement_power_factor:.4f}, predicted {predicted_dpf:.4f} "
        f"(+/- {dpf_tol}); bank supplies {-s_bank.imag:.1f} var against the "
        f"{s1.imag - q_margin:.0f}-{s1.imag + q_margin:.0f} var that DPF >= 0.95 "
        "would need",
    )


# --- 7. property suite ---------------------------------------------------------------


def test_property_dft_oracle_agreement():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        x, _, _ = multi_tone(rng, n_periods=3, spp=64, max_order=8)
        x += rng.normal(0.0, 0.3, size=len(x))
        spec = hf.spectrum(x, 64.0 * 50.0, 50.0, 8)
        mags, _ = naive_correlation_spectrum(x, 64.0 * 50.0, 50.0, 8)
        scale = max(np.max(mags), 1e-12)
        worst = max(worst, float(np.max(np.abs(spec.magnitudes - mags))) / scale)
    ok = worst < 1e-9
    _criterion(
        "DFT matches naive correlation oracle on 100 signals",
        ok,
        f"worst relative deviation {worst:.2e}",
    )


def test_property_tuned_impedance_is_resistive(ref_bank):
    worst = 0.0
    for branch in ref_bank.single_tuned:
        z = hf.branch_impedance(branch, branch.tuned_hz)
        worst = max(worst, abs(abs(z) - branch.resistance_ohm) / branch.resistance_ohm)
    ok = worst < 1e-9
    _criterion(
        "|Z| equals R at tuned frequencies", ok, f"worst relative error {worst:.2e}"
    )


def test_property_capacitor_var_round_trip():
    basis = presets.filtered_scenario().basis
    worst = 0.0
    for c in np.geomspace(1e-9, 1e-2, 40):
        back = hf.capacitor_from_reactive_power(
            hf.reactive_power_of_capacitor(float(c), basis), basis
        )
        worst = max(worst, abs(back - c) / c)
    ok = worst < 1e-12
    _criterion(
        "capacitor/VAR sizing round-trip", ok, f"worst relative error {worst:.2e}"
    )


def test_property_energy_audit(filtered_run):
    scenario, waves, _ = filtered_run
    window = hf.steady_state_window(waves, scenario.basis, 5)
    audit = hf.energy_audit(waves, scenario, window)

    imbalances = {}
    for dt in (1e-4, 2.5e-5):
        coarse = presets.baseline_scenario(hf.SolverConfig(dt_s=dt, duration_s=0.5))
        w = hf.run(coarse)
        win = hf.steady_state_window(w, coarse.basis, 5)
        imbalances[dt] = hf.energy_audit(w, coarse, win).relative_imbalance
    # Second-order bookkeeping: quartering dt should cut the defect by
    # about 16x; require 8x to absorb switching-event scatter.
    shrink = imbalances[1e-4] / imbalances[2.5e-5]
    ok = (
        audit.relative_imbalance < 1e-3
        and imbalances[1e-4] < 1e-3
        and imbalances[2.5e-5] < 1e-3
        and shrink >= 8.0
    )
    _criterion(
        "energy audit balances and converges",
        ok,
        f"default-dt imbalance {audit.relative_imbalance:.2e}, "
        f"coarse {imbalances[1e-4]:.2e} -> quarter-dt {imbalances[2.5e-5]:.2e} "
        f"(shrink {shrink:.1f}x over two halvings)",
    )


def test_property_kcl_residual(filtered_run):
    _, waves, _ = filtered_run
    peak = max(np.max(np.abs(waves.channels[f"i_src_{p}"])) for p in "abc")
    worst = max(
        float(
            np.max(
                np.abs(
                    waves.channels[f"i_src_{p}"]
                    - waves.channels[f"i_bridge_{p}"]
                    - waves.channels[f"i_filter_{p}"]
                )
            )
        )
        for p in "abc"
    )
    ok = worst < 1e-6 * peak
    _criterion(
        "KCL residual at the PCC",
        ok,
        f"worst {worst:.2e} A against {1e-6 * peak:.2e} A allowance",
    )


def test_property_thd_grid_independence(baseline_run, baseline_run_half_dt):
    scenario, waves, _ = baseline_run
    _, waves_half, _ = baseline_run_half_dt
    spec_full, _ = _thd_and_window(scenario, waves)
    spec_half, _ = _thd_and_window(scenario, waves_half)
    delta_pp = 100.0 * abs(spec_full.thd - spec_half.thd)
    ok = delta_pp < 0.1
    _criterion(
        "THD stable under dt halving", ok, f"change {delta_pp:.4f}pp (limit 0.1pp)"
    )


def test_property_three_phase_symmetry(settled_filtered_run):
    scenario, waves, _ = settled_filtered_run
    spp = round(waves.sample_rate_hz / scenario.basis.fundamental_hz)
    shift = spp // 3
    window = hf.steady_state_window(waves, scenario.basis, 5)
    i_a = waves.channels["i_src_a"]
    i_b = waves.channels["i_src_b"]
    delayed = i_a[window.start - shift : window.stop - shift]
    ref = i_b[window.start : window.stop]
    ratio = float(
        np.sqrt(np.mean((ref - delayed) ** 2)) / np.sqrt(np.mean(ref**2))
    )
    ok = ratio < 5e-3
    _criterion(
        "three-phase T/3 shift symmetry", ok, f"rms mismatch {100 * ratio:.4f}%"
    )


# --- 8. frequency scan -----------------------------------------------------------------


def test_frequency_scan(ref_bank):
    curve = hf.scan(ref_bank, 0.0, 50.0, 1000.0, 951)
    step = float(curve.frequencies_hz[1] - curve.frequencies_hz[0])
    series = find_resonances(curve).series_resonances_hz
    tuned_ok = all(
        any(abs(f - target) <= step + 1e-9 for f in series)
        for target in (250.0, 350.0, 550.0, 650.0)
    )
    with_ls = find_resonances(hf.scan(ref_bank, 0.0016, 50.0, 1000.0, 951))
    below = [f for f in with_ls.parallel_resonances_hz if f < 250.0]
    ok = tuned_ok and bool(below)
    _criterion(
        "frequency scan locates resonances",
        ok,
        f"series at {[round(f) for f in series]}, parallel below 250 Hz at "
        f"{[round(f) for f in below]} with source inductance",
    )
