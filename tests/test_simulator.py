"""Transient solver checks: conservation laws, waveform structure, window
arithmetic, and failure modes."""

from __future__ import annotations

import math
import random
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.linalg.lapack import dgetrf, dgetrs

import harmflow as hf
from harmflow import analyzer, presets, scenario_io, simulator
from harmflow.analyzer import AnalysisError, last_cycles_window
from harmflow.design import QualityFactorWarning
from harmflow.scenario_io import MAX_SAMPLES
from harmflow.simulator import (
    CHANNEL_IDS,
    LOOKAHEAD_GATE,
    LOOKAHEAD_STEPS,
    SolverError,
    _TransientSolver,
)


def _window_rms(x):
    return math.sqrt(float(np.mean(np.asarray(x) ** 2)))


# --- configuration validation -------------------------------------------------


def test_solver_config_validation():
    with pytest.raises(ValueError):
        hf.SolverConfig(dt_s=0.0)
    with pytest.raises(ValueError):
        hf.SolverConfig(duration_s=-1.0)
    with pytest.raises(ValueError, match="dt_s must be positive and finite"):
        hf.SolverConfig(dt_s=math.nan)


@pytest.mark.parametrize("cycles", [0, -1, 2.5, math.nan, math.inf, True, "3"])
def test_record_cycles_must_be_positive_integer(cycles):
    with pytest.raises(ValueError, match="record_cycles must be a positive integer"):
        hf.SolverConfig(record_cycles=cycles)


def test_record_cycles_takes_an_integral_float_as_its_int():
    # Every JSON number is read as a double.
    cycles = hf.SolverConfig(record_cycles=5.0).record_cycles
    assert type(cycles) is int and cycles == 5


def test_record_cycles_must_fit_run_and_grid():
    # 0.5 s at 2000 samples per period holds 25 whole periods.
    presets.baseline_scenario(hf.SolverConfig(record_cycles=25))
    with pytest.raises(ValueError, match=r"solver.record_cycles must be at most the 25 "):
        presets.baseline_scenario(hf.SolverConfig(record_cycles=26))
    with pytest.raises(ValueError, match=r"solver.record_cycles: .*T1/k"):
        presets.baseline_scenario(hf.SolverConfig(dt_s=1.5e-5, record_cycles=7))


def test_solver_config_sample_budget():
    # The budget is checked on the config, before any record exists.
    assert MAX_SAMPLES >= 10 * 120_000  # the settled fixture's run
    hf.SolverConfig(dt_s=1e-5, duration_s=MAX_SAMPLES * 1e-5)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"duration_s / dt_s .* at most"):
            hf.SolverConfig(dt_s=1e-5, duration_s=(MAX_SAMPLES + 1) * 1e-5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_load_validation():
    with pytest.raises(ValueError):
        hf.RectifierLoad(front_end_inductance_h=0.0)
    with pytest.raises(ValueError):
        hf.RectifierLoad(load_resistance_ohm=-5.0)
    with pytest.raises(ValueError, match="load_capacitance_f must be positive and finite"):
        hf.RectifierLoad(load_capacitance_f=math.inf)


def test_scenario_requires_ten_periods():
    with pytest.raises(ValueError, match="10 fundamental periods"):
        hf.Scenario(
            basis=presets.filtered_scenario().basis,
            load=presets.filtered_scenario().load,
            solver=hf.SolverConfig(duration_s=0.1),
        )


@pytest.mark.parametrize(
    "rate, lengths, history_rows, message",
    [
        (0.0, (3, 3), None, "sample_rate_hz must be positive"),
        (math.nan, (3, 3), None, "sample_rate_hz must be positive"),
        (1.0, (3, 2), None, "all channels must share one length >= 2"),
        (1.0, (1, 1), None, "all channels must share one length >= 2"),
        (1.0, (3, 3), 3, "history must hold one row more than the channels"),
    ],
)
def test_waveform_set_validation(rate, lengths, history_rows, message):
    channels = {name: np.zeros(n) for name, n in zip(("a", "b"), lengths)}
    history = None if history_rows is None else np.zeros((history_rows, 2))
    with pytest.raises(ValueError, match=f"^{message}$"):
        hf.WaveformSet(rate, channels, history=history)


@pytest.mark.parametrize("rate", [0.0, -1.0, math.inf, math.nan, np.float64(math.inf)])
def test_samples_per_period_rejects_bad_sample_rate(rate):
    # A numpy scalar is printed as a plain float.
    message = f"^sample_rate_hz must be positive and finite, got {float(rate)!r}$"
    with pytest.raises(AnalysisError, match=message):
        analyzer.samples_per_period(rate, 50.0)


# --- basic runs ------------------------------------------------------------------


def test_zero_source_run_is_silent():
    basis = hf.SystemBasis(fundamental_hz=50.0, source_vrms=0.0, source_inductance_h=0.0016)
    scenario = hf.Scenario(
        basis=basis,
        load=presets.filtered_scenario().load,
        bank=presets.filtered_scenario().bank,
        solver=hf.SolverConfig(dt_s=1e-4, duration_s=0.2),
    )
    waves = hf.run(scenario)
    for name, samples in waves.channels.items():
        assert np.max(np.abs(samples)) < 1e-12, name


def test_channel_contract(baseline_run):
    _, waves, _ = baseline_run
    assert set(waves.channels) == set(CHANNEL_IDS)
    lengths = {len(v) for v in waves.channels.values()}
    assert lengths == {waves.n_samples}
    assert waves.n_samples == 50000
    assert waves.sample_rate_hz == pytest.approx(1e5)


def test_no_bank_filter_channels_zero(baseline_run):
    _, waves, _ = baseline_run
    for ph in "abc":
        assert np.max(np.abs(waves.channels[f"i_filter_{ph}"])) == 0.0


def test_filter_channels_active(filtered_run):
    _, waves, _ = filtered_run
    for ph in "abc":
        assert np.max(np.abs(waves.channels[f"i_filter_{ph}"])) > 0.1


def test_determinism():
    solver = hf.SolverConfig(dt_s=5e-5, duration_s=0.2)
    w1 = hf.run(presets.filtered_scenario(solver))
    w2 = hf.run(presets.filtered_scenario(solver))
    for name in CHANNEL_IDS:
        assert np.array_equal(w1.channels[name], w2.channels[name]), name
    assert w1.flagged_steps == w2.flagged_steps


# --- conservation and structure ----------------------------------------------------


@pytest.mark.parametrize("fixture", ["baseline_run", "filtered_run"])
def test_kcl_at_pcc(fixture, request):
    _, waves, _ = request.getfixturevalue(fixture)
    peak = max(np.max(np.abs(waves.channels[f"i_src_{p}"])) for p in "abc")
    for ph in "abc":
        residual = np.abs(
            waves.channels[f"i_src_{ph}"]
            - waves.channels[f"i_bridge_{ph}"]
            - waves.channels[f"i_filter_{ph}"]
        )
        assert np.max(residual) < 1e-6 * peak


def test_periodic_steady_state(settled_filtered_run):
    scenario, waves, _ = settled_filtered_run
    spp = round(waves.sample_rate_hz / scenario.basis.fundamental_hz)
    i_a = waves.channels["i_src_a"]
    last = i_a[-spp:]
    prev = i_a[-2 * spp : -spp]
    assert _window_rms(last - prev) < 1e-3 * _window_rms(last)


@pytest.mark.parametrize(
    "fixture, low, high",
    [("baseline_bundled_run", 0.0, 1e-10), ("filtered_bundled_run", 7.1e-3, 7.3e-3)],
)
def test_bundled_settling_residual(fixture, low, high, request):
    # The bundled filtered run has not settled at 0.5 s: its high-q tuned
    # branches still ring over the analysis window.
    scenario, waves, _ = request.getfixturevalue(fixture)
    window = hf.steady_state_window(waves, scenario.basis, 5)
    i_a = waves.channels["i_src_a"][window.start : window.stop]
    residual = hf.settling_residual(i_a, waves.sample_rate_hz, scenario.basis.fundamental_hz)
    assert low <= residual < high


def test_three_phase_symmetry(settled_filtered_run):
    scenario, waves, _ = settled_filtered_run
    spp = round(waves.sample_rate_hz / scenario.basis.fundamental_hz)
    assert spp % 3 == 0
    shift = spp // 3
    window = hf.steady_state_window(waves, scenario.basis, 5)
    i_a = waves.channels["i_src_a"]
    i_b = waves.channels["i_src_b"]
    delayed_a = i_a[window.start - shift : window.stop - shift]
    diff = i_b[window.start : window.stop] - delayed_a
    assert _window_rms(diff) < 5e-3 * _window_rms(i_a[window.start : window.stop])


def test_dc_current_never_reverses(baseline_run):
    scenario, waves, _ = baseline_run
    window = hf.steady_state_window(waves, scenario.basis, 5)
    i_dc = waves.channels["i_dc"][window.start : window.stop]
    assert np.min(i_dc) > -1e-6 * float(np.mean(i_dc))


@pytest.mark.parametrize(
    "fixture, thd, dpf",
    [
        ("baseline_run", 0.20414539086686642, 0.9146771881975087),
        ("filtered_run", 0.04117319293437536, 0.9057651089521072),
    ],
)
def test_bundled_figures_pinned(fixture, thd, dpf, request):
    # Any reformulation of the step must reproduce these to near roundoff;
    # a looser match means the solver's arithmetic drifted.
    scenario, waves, _ = request.getfixturevalue(fixture)
    window = hf.steady_state_window(waves, scenario.basis, 5)
    sl = slice(window.start, window.stop)
    f1 = scenario.basis.fundamental_hz
    i_a = waves.channels["i_src_a"][sl]
    assert hf.spectrum(i_a, waves.sample_rate_hz, f1, 50).thd == pytest.approx(
        thd, rel=1e-9
    )
    report = hf.power_report(waves.channels["v_src_a"][sl], i_a, waves.sample_rate_hz, f1)
    assert report.displacement_power_factor == pytest.approx(dpf, rel=1e-9)


def test_filter_current_matches_frequency_domain_model(filtered_run):
    # Cross-check the two solver paths: the fundamental phasor ratio of
    # filter current to PCC voltage from the transient run must equal the
    # bank admittance from the frequency-domain model.
    import cmath

    scenario, waves, _ = filtered_run
    window = hf.steady_state_window(waves, scenario.basis, 5)
    sl = slice(window.start, window.stop)
    f1 = scenario.basis.fundamental_hz
    spec_v = hf.spectrum(waves.channels["v_pcc_a"][sl], waves.sample_rate_hz, f1, 1)
    spec_i = hf.spectrum(waves.channels["i_filter_a"][sl], waves.sample_rate_hz, f1, 1)
    measured = (spec_i.magnitudes[0] / spec_v.magnitudes[0]) * cmath.exp(
        1j * float(spec_i.phases_rad[0] - spec_v.phases_rad[0])
    )
    predicted = 1.0 / hf.bank_impedance(scenario.bank, f1)
    assert abs(measured - predicted) / abs(predicted) < 1e-3


def test_thd_grid_independence(baseline_run, baseline_run_half_dt):
    scenario, waves, _ = baseline_run
    _, waves_half, _ = baseline_run_half_dt
    thds = []
    for w in (waves, waves_half):
        window = hf.steady_state_window(w, scenario.basis, 5)
        spec = hf.spectrum(
            w.channels["i_src_a"][window.start : window.stop],
            w.sample_rate_hz,
            scenario.basis.fundamental_hz,
            50,
        )
        thds.append(spec.thd)
    assert abs(thds[0] - thds[1]) < 1e-3


# --- energy audit -------------------------------------------------------------------


@pytest.mark.parametrize("fixture", ["baseline_run", "filtered_run"])
def test_energy_audit_balances(fixture, request):
    scenario, waves, _ = request.getfixturevalue(fixture)
    window = hf.steady_state_window(waves, scenario.basis, 5)
    audit = hf.energy_audit(waves, scenario, window)
    assert audit.relative_imbalance < 1e-3
    assert audit.source_energy_j > 0.0
    assert audit.dissipated_j == pytest.approx(
        audit.dissipated_load_j + audit.dissipated_filter_j + audit.dissipated_bridge_j
    )


def test_energy_audit_no_bank_has_zero_filter_term(baseline_run):
    scenario, waves, _ = baseline_run
    window = hf.steady_state_window(waves, scenario.basis, 5)
    audit = hf.energy_audit(waves, scenario, window)
    assert audit.dissipated_filter_j == 0.0


def test_energy_audit_zero_source_all_terms_vanish():
    basis = hf.SystemBasis(fundamental_hz=50.0, source_vrms=0.0, source_inductance_h=0.0016)
    scenario = hf.Scenario(
        basis=basis,
        load=presets.filtered_scenario().load,
        solver=hf.SolverConfig(dt_s=1e-4, duration_s=0.2),
    )
    waves = hf.run(scenario)
    audit = hf.energy_audit(waves, scenario, hf.steady_state_window(waves, basis, 3))
    assert audit.source_energy_j == pytest.approx(0.0, abs=1e-20)
    assert audit.dissipated_j == pytest.approx(0.0, abs=1e-20)
    assert audit.stored_delta_j == pytest.approx(0.0, abs=1e-20)
    assert audit.relative_imbalance == 0.0


def test_energy_imbalance_shrinks_with_dt():
    # Trapezoidal bookkeeping errors scale like dt^2, so two halvings cut
    # the defect by roughly 16x; require at least 8x to absorb switching
    # scatter.  Coarse steps keep the defect above the rounding floor.
    imbalances = {}
    for dt in (1e-4, 2.5e-5):
        scenario = presets.baseline_scenario(hf.SolverConfig(dt_s=dt, duration_s=0.5))
        waves = hf.run(scenario)
        window = hf.steady_state_window(waves, scenario.basis, 5)
        imbalances[dt] = hf.energy_audit(waves, scenario, window).relative_imbalance
    assert imbalances[1e-4] < 1e-3
    assert imbalances[2.5e-5] < 1e-3
    assert imbalances[1e-4] / imbalances[2.5e-5] >= 8.0


def test_energy_audit_rejects_bad_window(baseline_run):
    scenario, waves, _ = baseline_run
    with pytest.raises(AnalysisError):
        hf.energy_audit(waves, scenario, range(0, waves.n_samples + 5))


@pytest.mark.parametrize("step", [7, -1])
def test_energy_audit_rejects_window_step(baseline_run, step):
    # A strided window would be audited as if contiguous; a reversed one
    # would index past the history.
    scenario, waves, _ = baseline_run
    window = hf.steady_state_window(waves, scenario.basis, 5)
    bounds = (window.start, window.stop) if step > 0 else (window.stop - 1, window.start - 1)
    with pytest.raises(AnalysisError, match="step-1 range"):
        hf.energy_audit(waves, scenario, range(*bounds, step))


def test_energy_audit_needs_history(baseline_run, filtered_run):
    # A waveform set read back from CSV carries the channels alone.
    scenario, waves, _ = baseline_run
    window = hf.steady_state_window(waves, scenario.basis, 5)
    bare = hf.WaveformSet(waves.sample_rate_hz, waves.channels)
    with pytest.raises(ValueError, match="history of 7 terms, got None$"):
        hf.energy_audit(bare, scenario, window)
    # The history of a run with a bank does not fit the scenario without it.
    with pytest.raises(ValueError, match="history of 7 terms, got 37$"):
        hf.energy_audit(filtered_run[1], scenario, window)


# --- switching behavior ---------------------------------------------------------------


def test_iteration_cap_flags_steps(monkeypatch):
    monkeypatch.setattr(simulator, "MAX_SWITCH_ITERATIONS", 2)
    solver = hf.SolverConfig(dt_s=1e-4, duration_s=0.2)
    waves = hf.run(presets.baseline_scenario(solver))
    assert len(waves.flagged_steps) > 0
    assert all(1 <= k < waves.n_samples for k in waves.flagged_steps)


def test_switch_counters(baseline_run, filtered_run):
    for _, waves, _ in (baseline_run, filtered_run):
        assert waves.diode_states == 13
        assert waves.switch_iterations >= waves.n_samples - 1
    assert baseline_run[1].switch_events == 490
    assert filtered_run[1].switch_events == 409
    # Of the 49,999 steps, those taken in look-ahead blocks.
    assert baseline_run[1].block_steps == 48_906
    assert filtered_run[1].block_steps == 48_990
    # The filtered run retries some step with a restored right-hand side,
    # so the pinned figures cover that path of the step loop.
    assert filtered_run[1].switch_iterations > filtered_run[1].n_samples - 1


def test_source_channels_are_exact_samples(baseline_run, filtered_run):
    for scenario, waves, _ in (baseline_run, filtered_run):
        basis = scenario.basis
        t = waves.time()
        for ph, phase in enumerate("abc"):
            expected = math.sqrt(2.0) * basis.source_vrms * np.sin(
                2.0 * math.pi * basis.fundamental_hz * t - ph * 2.0 * math.pi / 3.0
            )
            assert np.array_equal(waves.channels[f"v_src_{phase}"], expected)


def _channels_of_history(scenario, waves):
    """The channels after ``v_src_*``, one column each, from the element
    laws applied to the whole history at once, rows as steps."""
    solver = _TransientSolver(scenario)
    lay, dt = solver.layout, solver.dt
    z, m = waves.history, lay.masses
    states, flows = simulator._states, simulator._flows
    v_dc = states(z, lay.dc)
    v_src = np.column_stack([waves.channels[f"v_src_{p}"] for p in "abc"])
    return np.column_stack([
        v_src - flows(z, lay.ls, m, dt),
        states(z, lay.ls),
        states(z, lay.fe),
        flows(z, lay.caps, m, dt).reshape(len(v_dc), -1, 3).sum(axis=1),
        v_dc,
        solver.g_rl * v_dc + flows(z, lay.dc, m, dt),
    ])


@pytest.mark.parametrize(
    "fixture", ["baseline_bundled_run", "filtered_bundled_run", "settled_filtered_run"]
)
def test_channels_are_element_laws_of_whole_history(fixture, request):
    # The solver forms the channels in chunks of steps from contiguous
    # copies of each history term; the values are those of the same
    # arithmetic over the whole history, bit for bit.
    scenario, waves, _ = request.getfixturevalue(fixture)
    got = np.column_stack([waves.channels[name] for name in CHANNEL_IDS[3:]])
    assert len(got) > simulator._CHUNK
    assert np.array_equal(got, _channels_of_history(scenario, waves))


@pytest.mark.parametrize("case", ["baseline", "filtered"])
def test_record_cycles_keeps_last_rows_of_full_record(case, request):
    # The bundled runs record the last 5 periods; everything they hold and
    # every figure taken from them equals the full record's, bit for bit.
    scenario, waves, _ = request.getfixturevalue(f"{case}_bundled_run")
    full_scenario, full, _ = request.getfixturevalue(f"{case}_run")
    assert scenario.solver.record_cycles == 5
    assert full_scenario.solver.record_cycles is None
    assert waves.n_samples == 10_000 and full.n_samples == 50_000
    assert waves.first_step == 40_000 and full.first_step == 0
    assert waves.time()[0] == 0.4
    assert np.array_equal(waves.time(), full.time()[-10_000:])
    for name in CHANNEL_IDS:
        assert np.array_equal(waves.channels[name], full.channels[name][-10_000:]), name
    assert np.array_equal(waves.history, full.history[-10_001:])
    for counter in ("flagged_steps", "diode_states", "switch_iterations", "switch_events"):
        assert getattr(waves, counter) == getattr(full, counter), counter
    assert waves.switch_events == {"baseline": 490, "filtered": 409}[case]
    # Both runs try the same blocks at the same steps, each taking the same
    # steps, before the record starts and in it.
    logs = [_BlockLog(scenario), _BlockLog(full_scenario)]
    for log in logs:
        log.run()
    assert logs[0].blocks[0][0] < waves.first_step < logs[0].blocks[-1][0]
    assert logs[0].blocks == logs[1].blocks

    f1 = scenario.basis.fundamental_hz
    figures = []
    for w in (waves, full):
        window = hf.steady_state_window(w, scenario.basis, 5)
        sl = slice(window.start, window.stop)
        i_a, v_a = w.channels["i_src_a"][sl], w.channels["v_src_a"][sl]
        figures.append((
            hf.spectrum(i_a, w.sample_rate_hz, f1, 50).thd,
            hf.power_report(v_a, i_a, w.sample_rate_hz, f1),
            hf.energy_audit(w, scenario, window),
        ))
    assert figures[0] == figures[1]
    # The record starts 20 periods into the run, so it may hold exactly the
    # 5-period window, but no longer one.
    with pytest.raises(AnalysisError, match="spans 5 periods; the last 6 do not fit"):
        hf.steady_state_window(waves, scenario.basis, 6)


@pytest.mark.parametrize("blocks", [True, False], ids=["blocks", "per_step"])
def test_record_cycles_on_either_stepping_path(blocks, monkeypatch):
    # Without blocks every step, the first recorded one included, takes the
    # per-step path; with them the bundled runs start their record inside a
    # block.
    if not blocks:
        monkeypatch.setattr(simulator, "LOOKAHEAD_STEPS", MAX_SAMPLES)
    settings = {"dt_s": 1e-4, "duration_s": 0.2}  # 10 periods of 200 samples
    full = hf.run(presets.filtered_scenario(hf.SolverConfig(**settings)))
    expected = np.column_stack([full.time(), *full.channels.values()])
    for cycles in (1, 3, 10):
        waves = hf.run(
            presets.filtered_scenario(hf.SolverConfig(**settings, record_cycles=cycles))
        )
        assert waves.first_step == 2000 - 200 * cycles
        got = np.column_stack([waves.time(), *waves.channels.values()])
        assert np.array_equal(got, expected[waves.first_step :]), cycles
        assert np.array_equal(waves.history, full.history[waves.first_step :]), cycles
        assert waves.switch_iterations == full.switch_iterations


@pytest.mark.parametrize("steps", [LOOKAHEAD_STEPS, 24])
def test_lookahead_tables_match_sequential_products(steps, monkeypatch):
    # 24 steps are not a power of 2: the doubling overshoots and is cut back.
    monkeypatch.setattr(simulator, "LOOKAHEAD_STEPS", steps)
    solver = _TransientSolver(presets.filtered_scenario())
    solver.run()  # visits the diode states whose tables a run builds
    for key, f in solver._maps.items():
        powers, diode = solver._lookahead_tables(key)
        nw = f.shape[1]
        assert powers.shape == (steps * nw, nw)
        assert diode.shape == (6 * steps, nw)
        # Entries that cancel to near zero carry the error of the block's
        # largest, so each block is compared at that scale.
        power = np.eye(nw)
        for i in range(steps):
            expected = f[:6] @ power
            np.testing.assert_allclose(
                diode[6 * i : 6 * i + 6], expected, rtol=0, atol=1e-12 * np.abs(expected).max()
            )
            power = power @ f[6:]
            np.testing.assert_allclose(
                powers[i * nw : (i + 1) * nw], power, rtol=0, atol=1e-12 * np.abs(power).max()
            )


@pytest.mark.parametrize("window", [simulator._WINDOW, 1024], ids=["default", "small"])
def test_record_cycles_from_mid_window_of_settled_run(window, settled_filtered_run, monkeypatch):
    # The block interiors are filled one window of absolute steps at a time,
    # and the window that holds the record's first step is filled whole, so
    # a record that starts inside a window and spans several holds the full
    # run's last rows bit for bit.  Here it starts inside a block, too.  In
    # small windows some state has a single block, and a product of one row
    # differs in the last bit from the same row in a batch.  Both runs try
    # the same blocks at the same steps and take the same steps in each.
    scenario = settled_filtered_run[0]
    monkeypatch.setattr(simulator, "_WINDOW", window)
    full_log = _BlockLog(scenario)
    full = full_log.run()
    solver = hf.SolverConfig(
        dt_s=scenario.solver.dt_s, duration_s=scenario.solver.duration_s, record_cycles=47
    )
    logged = _BlockLog(presets.filtered_scenario(solver))
    waves = logged.run()
    first = waves.first_step
    assert first == 119_880 - 47 * 1998
    assert first % window > LOOKAHEAD_STEPS
    assert (full.n_samples - 1) // window - first // window >= 3
    assert any(k + 1 < first < k + j - 1 for k, j in logged.blocks)
    assert logged.blocks == full_log.blocks
    assert np.array_equal(waves.history, full.history[first:])
    for name in CHANNEL_IDS:
        assert np.array_equal(waves.channels[name], full.channels[name][first:]), name
    for counter in (
        "flagged_steps", "diode_states", "switch_iterations", "switch_events", "block_steps"
    ):
        assert getattr(waves, counter) == getattr(full, counter), counter


def test_default_iteration_budget_converges(baseline_run, filtered_run):
    assert baseline_run[1].flagged_steps == ()
    assert filtered_run[1].flagged_steps == ()


def _reference_run(scenario):
    """The step loop with a per-step LU solve: each diode state caches LU
    factors and the output rows over ``[x; z]``; a step builds the
    right-hand side from ``z`` and the exact source sample, solves it with
    ``dgetrs`` and maps ``[x; z]`` to the signed diode voltages and the next
    ``z`` with one matvec.  The channels come from the solved unknowns and
    the element laws, not from the history forms.  Returns the channels
    (one column each), the history, the flagged steps, the number of diode
    states, the number of solves, and per step the state word it ends in
    and whether it passed the sign test on the first try (entry 0 is the
    all-blocking start)."""
    s = _TransientSolver(scenario)
    nx, nz, n, dt = len(s._kcl), s.n_z, s.n_samples, s.dt
    kcl_x, kcl_z = s._kcl[:, :nx], s._kcl[:, nx : nx + nz]
    load, bank = scenario.load, scenario.bank
    st = bank.single_tuned if bank else ()
    hp = bank.high_pass if bank else ()
    maps = {}

    def step_map(key):
        on = (key >> np.arange(6)) & 1 == 1
        g_d = np.where(on, s.g_on, s.g_off)
        a = kcl_x.copy()
        for ph in range(3):
            bt = 3 + ph
            for other, g in ((6, g_d[ph]), (7, g_d[3 + ph])):
                a[bt, bt] += g
                a[other, other] += g
                a[bt, other] -= g
                a[other, bt] -= g
        lu, piv, _ = dgetrf(a)
        out = s._out[: 6 + nz, : nx + nz].copy()
        out[:6] *= np.where(on, 1.0, -1.0)[:, None]
        return lu, piv, out

    def filter_current(vp, z):
        """Branch currents summed per phase, each from its companion model."""
        i = np.zeros_like(vp)
        at = 7
        for b in st:
            z_l, z_c = z[:, at : at + 3], z[:, at + 3 * len(st) : at + 3 * len(st) + 3]
            r_l, r_c = 2.0 * b.inductance_h / dt, dt / (2.0 * b.capacitance_f)
            i += (vp + r_l * z_l - z_c) / (b.resistance_ohm + r_l + r_c)
            at += 3
        at += 3 * len(st)
        for b in hp:
            z_c, z_l = z[:, at : at + 3], z[:, at + 3 * len(hp) : at + 3 * len(hp) + 3]
            r_p = 1.0 / (1.0 / b.resistance_ohm + dt / (2.0 * b.inductance_h))
            i += (vp - z_c + r_p * z_l) / (dt / (2.0 * b.capacitance_f) + r_p)
            at += 3
        return i

    unknowns = np.zeros((n, nx))
    history = np.zeros((n + 1, nz))
    keys = np.zeros(n, dtype=int)
    first_try = np.zeros(n, dtype=bool)
    key, solves, flagged = 0, 0, []
    for k in range(1, n):
        z = history[k]
        b = -kcl_z @ z
        b[8:11] += s.esrc[:, k]
        for it in range(simulator.MAX_SWITCH_ITERATIONS):
            if key not in maps:
                maps[key] = step_map(key)
            lu, piv, out = maps[key]
            x = dgetrs(lu, piv, b)[0]
            y = out @ np.concatenate([x, z])
            flips = sum(1 << i for i, v in enumerate(y[:6].tolist()) if v < 0.0)
            if not flips:
                break
            if it < simulator.MAX_SWITCH_ITERATIONS - 1:
                key ^= flips
        else:
            flagged.append(k)
        solves += it + 1
        keys[k] = key
        first_try[k] = it == 0 and not flips
        unknowns[k] = x
        history[k + 1] = y[6:]
    # Step k solves for the unknowns from the history z entering it.
    x, z = unknowns, history[:-1]
    vp, vbt, v_dc, i_src = x[:, 0:3], x[:, 3:6], x[:, 6] - x[:, 7], x[:, 8:11]
    i_dc = v_dc / load.load_resistance_ohm + 2.0 * load.load_capacitance_f / dt * (v_dc - z[:, 6])
    channels = np.column_stack([
        s.esrc.T, vp, i_src,
        dt / (2.0 * load.front_end_inductance_h) * (vp - vbt) + z[:, 3:6],
        filter_current(vp, z), v_dc, i_dc,
    ])
    # Before the first step every element state is zero.
    channels[0, 3:6] = s.esrc[:, 0]
    return channels, history, tuple(flagged), len(maps), solves, keys, first_try


class _BlockLog(_TransientSolver):
    """The solver, logging each look-ahead block as (first step, steps taken)."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.blocks = []

    def _block_length(self, key, k, w):
        j = super()._block_length(key, k, w)
        self.blocks.append((k, j))
        return j


def _assert_block_schedule(blocks, first_try):
    """A block opens at step k exactly when the G steps before k passed the
    sign test on the first try and B steps remain, and takes the steps from
    k that pass it on the first try, at most B."""
    n = len(first_try)
    gate_open = np.zeros(n, dtype=bool)
    for k in range(1 + LOOKAHEAD_GATE, n - LOOKAHEAD_STEPS + 1):
        gate_open[k] = first_try[k - LOOKAHEAD_GATE : k].all()
    opened = np.zeros(n, dtype=bool)
    for k, j in blocks:
        assert gate_open[k], (k, j)
        assert first_try[k : k + j].all(), (k, j)
        assert j == LOOKAHEAD_STEPS or not first_try[k + j], (k, j)
        # A block's steps, and the step that ends it early, are not tried again.
        opened[k : k + min(j + 1, LOOKAHEAD_STEPS)] = True
    assert np.array_equal(opened & gate_open, gate_open)


def _off_grid_candidate(seed):
    """Filtered scenario with a seeded non-integer samples-per-period grid,
    source inductance and bank."""
    rng = random.Random(seed)
    basis = hf.SystemBasis(50.0, 220.0, rng.uniform(0.5e-3, 3e-3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QualityFactorWarning)
        bank = hf.design_bank_six_pulse(
            basis,
            rng.uniform(5e-6, 20e-6),
            tuple(rng.uniform(20.0, 100.0) for _ in range(4)),
            rng.uniform(700.0, 1500.0),
            rng.uniform(0.5, 3.0),
        )
    spp = rng.uniform(300.0, 700.0)
    return hf.Scenario(
        basis=basis,
        load=presets.filtered_scenario().load,
        bank=bank,
        solver=hf.SolverConfig(dt_s=0.02 / spp, duration_s=0.24),
    )


# Largest channel or history deviation from the reference, relative to
# that column's maximum magnitude.
_REFERENCE_REL_TOL = 1e-8


def _zero_source_inductance():
    """The filtered scenario fed straight from the source, without Ls."""
    scenario = presets.filtered_scenario(hf.SolverConfig(duration_s=0.24))
    return hf.Scenario(
        hf.SystemBasis(50.0, scenario.basis.source_vrms, 0.0),
        scenario.load,
        scenario.bank,
        scenario.solver,
    )


def _bundled_branches(kind):
    """The bundled filtered scenario with only its ``kind`` branches: a bank
    of one kind leaves the other kind's history columns empty."""
    scenario = presets.filtered_scenario(hf.SolverConfig(duration_s=0.24))
    bank = scenario.bank
    return replace(scenario, bank=hf.FilterBank(bank.fundamental_hz, getattr(bank, kind)))


def _cap2_flagged():
    """Flagged steps between runs that are stepped as blocks, once the test
    sets the iteration cap to 2, the lowest that lets a diode flip."""
    return presets.filtered_scenario(hf.SolverConfig(dt_s=1e-4, duration_s=0.2))


@pytest.mark.parametrize(
    "make",
    [presets.filtered_scenario, lambda: _bundled_branches("single_tuned"),
     lambda: _bundled_branches("high_pass")],
    ids=["filtered", "tuned_only", "high_pass_only"],
)
def test_kcl_at_filter_inner_nodes(make):
    # Over the whole history a single-tuned inductor carries its capacitor's
    # current, and a high-pass capacitor's current splits between the
    # inductor and the resistor across it.
    scenario = make()
    waves = hf.run(scenario)
    lay, z, dt = simulator._layout(scenario), waves.history, waves.dt_s
    states, flows, m = simulator._states, simulator._flows, lay.masses
    for i_c, i_other in (
        (flows(z, lay.st_c, m, dt), states(z, lay.st_l)),
        (flows(z, lay.hp_c, m, dt), states(z, lay.hp_l) + flows(z, lay.hp_l, m, dt) / lay.hp_r),
    ):
        deviation = np.max(np.abs(i_c - i_other), axis=0)
        assert np.all(deviation <= 1e-10 * np.max(np.abs(i_c), axis=0)), deviation


@pytest.mark.parametrize(
    "make",
    [
        lambda: presets.baseline_scenario(hf.SolverConfig(duration_s=0.24)),
        lambda: presets.filtered_scenario(hf.SolverConfig(duration_s=0.24)),
        lambda: _off_grid_candidate(3),
        lambda: _off_grid_candidate(8),
        # Ends in a run of unchanged state stepped as blocks, then 8 steps
        # one at a time: fewer than B remain.
        lambda: presets.filtered_scenario(hf.SolverConfig(duration_s=0.2401)),
        _cap2_flagged,
        # About 150 state changes per period.
        lambda: _off_grid_candidate(9),
        # A blocked bridge terminal held only by the diodes' off
        # conductance: ill-conditioned in any double-precision solve.
        lambda: _off_grid_candidate(4),
        _zero_source_inductance,
        lambda: _bundled_branches("single_tuned"),
        lambda: _bundled_branches("high_pass"),
    ],
    ids=[
        "baseline", "filtered", "candidate3", "candidate8",
        "short_last_block", "cap2_flagged", "chattering9", "candidate4",
        "zero_ls", "tuned_only", "high_pass_only",
    ],
)
def test_step_maps_match_per_step_lu_reference(make, monkeypatch):
    if make is _cap2_flagged:
        monkeypatch.setattr(simulator, "MAX_SWITCH_ITERATIONS", 2)
    scenario = make()
    channels, history, flagged, states, solves, keys, first_try = _reference_run(scenario)
    solver = _BlockLog(scenario)
    waves = solver.run()
    assert waves.flagged_steps == flagged
    assert waves.diode_states == states
    assert waves.switch_iterations == solves
    assert waves.switch_events == np.count_nonzero(np.diff(keys))
    _assert_block_schedule(solver.blocks, first_try)
    got = np.column_stack([waves.channels[name] for name in CHANNEL_IDS])
    assert np.array_equal(got[:, :3], channels[:, :3])  # v_src_*
    for got, expected in ((got, channels), (waves.history, history)):
        assert got.shape == expected.shape
        deviation = np.max(np.abs(got - expected), axis=0)
        scale = np.max(np.abs(expected), axis=0)
        assert np.all(deviation <= _REFERENCE_REL_TOL * scale), np.max(
            deviation / np.maximum(scale, 1e-300)
        )


def test_zero_source_inductance_puts_source_at_pcc():
    waves = hf.run(_zero_source_inductance())
    for phase in "abc":
        assert np.array_equal(waves.channels[f"v_pcc_{phase}"], waves.channels[f"v_src_{phase}"])


def test_non_finite_guard_names_step_of_per_step_loop(monkeypatch):
    # The run overflows at step 222, inside a block of 32 steps (196 to
    # 227).
    scenario = presets.filtered_scenario(hf.SolverConfig(dt_s=1e-5, duration_s=0.2))
    scenario = hf.Scenario(
        hf.SystemBasis(50.0, 5e307, scenario.basis.source_inductance_h),
        scenario.load,
        scenario.bank,
        scenario.solver,
    )
    solver = _BlockLog(scenario)
    with pytest.raises(SolverError, match="non-finite solution at step 222$"):
        solver.run()
    assert (196, LOOKAHEAD_STEPS) in solver.blocks
    # No block fits: every step runs the fixed-point loop, and the guard's
    # row scan names the first non-finite row.
    monkeypatch.setattr(simulator, "LOOKAHEAD_STEPS", MAX_SAMPLES)
    with pytest.raises(SolverError, match="non-finite solution at step 222$"):
        hf.run(scenario)


def test_non_finite_before_record_names_first_recorded_step():
    # The run overflows within its first period; the record starts at the
    # last period (step 1800), whose rows are all non-finite.
    scenario = presets.baseline_scenario(
        hf.SolverConfig(dt_s=1e-4, duration_s=0.2, record_cycles=1)
    )
    scenario = hf.Scenario(
        hf.SystemBasis(50.0, 1e308, scenario.basis.source_inductance_h),
        scenario.load,
        solver=scenario.solver,
    )
    with pytest.raises(SolverError, match="non-finite solution at or before step 1800$"):
        hf.run(scenario)


def test_guard_passes_finite_run_whose_sum_overflows():
    # Every value is finite, the largest about 3.3e305, but their sum is
    # not: the guard's one-pass sum falls back to the exact check.
    scenario = presets.filtered_scenario(hf.SolverConfig(dt_s=1e-4, duration_s=0.2))
    scenario = hf.Scenario(
        hf.SystemBasis(50.0, 1e305, scenario.basis.source_inductance_h),
        scenario.load,
        scenario.bank,
        scenario.solver,
    )
    waves = hf.run(scenario)
    assert np.isfinite(waves.history).all()
    for name in CHANNEL_IDS:
        assert np.isfinite(waves.channels[name]).all(), name
    with np.errstate(over="ignore"):
        assert np.isinf(waves.history.sum())


def test_singular_matrix_names_step(monkeypatch):
    # With every diode blocking and no off-state conductance, nothing holds
    # the DC bus's common-mode voltage: the matrix is exactly singular.
    monkeypatch.setattr(simulator, "DIODE_OFF_OHM", math.inf)
    solver = hf.SolverConfig(dt_s=1e-4, duration_s=0.2)
    with pytest.raises(SolverError, match="step 1"):
        hf.run(presets.baseline_scenario(solver))


# --- windows ----------------------------------------------------------------------------


def test_steady_state_window_example(baseline_run):
    scenario, waves, _ = baseline_run
    window = hf.steady_state_window(waves, scenario.basis, 5)
    assert window == range(40000, 50000)


def test_last_cycles_window_arithmetic():
    assert last_cycles_window(50000, 1e5, 50.0, 5) == range(40000, 50000)
    assert last_cycles_window(14000, 1e5, 50.0, 5) == range(4000, 14000)
    # A record that starts 20 periods into the run may hold just the window.
    assert last_cycles_window(10000, 1e5, 50.0, 5, 0.4) == range(0, 10000)
    assert last_cycles_window(10000, 1e5, 50.0, 5, 0.04) == range(0, 10000)


@pytest.mark.parametrize(
    "n_samples, t_start_s",
    [
        # At t = 0 the rule is n_samples >= (n_cycles + 2) spp, to the sample.
        (13_999, 0.0),
        (12_000, 0.0),
        (10_000, 0.02),  # the window would start 1 period after t = 0
        (10_000, 0.04 - 1e-5),  # one sample short of 2 periods
        (14_000, -0.02),  # a negative start time makes the rule stricter
        (12_000, 0.02 - 1e-5),
    ],
)
def test_window_must_start_two_periods_after_t0(n_samples, t_start_s):
    with pytest.raises(AnalysisError, match="at least 2 periods after"):
        last_cycles_window(n_samples, 1e5, 50.0, 5, t_start_s)


@pytest.mark.parametrize("t_start_s", [0.0, 0.4, 100.0])
def test_window_must_fit_record_whatever_its_start(t_start_s):
    with pytest.raises(AnalysisError, match="spans 5 periods; the last 6 do not fit"):
        last_cycles_window(10_000, 1e5, 50.0, 6, t_start_s)


@pytest.mark.parametrize("n_cycles", [2.5, 5.0, math.nan])
def test_window_rejects_a_non_integer_count(n_cycles):
    waves = hf.WaveformSet(sample_rate_hz=1e5, channels={"x": np.zeros(10_000)})
    basis = presets.filtered_scenario().basis
    message = f"^n_cycles must be an integer, got {n_cycles!r}$"
    with pytest.raises(AnalysisError, match=message):
        last_cycles_window(10_000, 1e5, 50.0, n_cycles)
    with pytest.raises(AnalysisError, match=message):
        hf.steady_state_window(waves, basis, n_cycles)


def test_window_rejects_overlong_request(baseline_run):
    scenario, waves, _ = baseline_run
    with pytest.raises(AnalysisError):
        hf.steady_state_window(waves, scenario.basis, 24)


def test_window_rejects_incommensurate_grid():
    channels = {"x": np.zeros(1000)}
    waves = hf.WaveformSet(sample_rate_hz=100025.0, channels=channels)
    basis = presets.filtered_scenario().basis
    with pytest.raises(AnalysisError, match="T1/k"):
        hf.steady_state_window(waves, basis, 2)


# --- CSV export --------------------------------------------------------------------------


def test_waveform_csv_layout(tmp_path):
    solver = hf.SolverConfig(dt_s=1e-4, duration_s=0.2)
    waves = hf.run(presets.baseline_scenario(solver))
    waves.to_csv(tmp_path / "run.csv")
    lines = (tmp_path / "run.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["t_s", *CHANNEL_IDS]
    assert len(lines) == 1 + waves.n_samples
    row = lines[3].split(",")
    assert len(row) == 1 + len(CHANNEL_IDS)
    assert float(row[0]) == pytest.approx(2e-4, rel=1e-12)
    # full round-trip precision
    assert float(row[1]) == waves.channels["v_src_a"][2]


def _g17_oracle(waves) -> str:
    """The waveform CSV as one ``%`` expression over every value."""
    columns = [waves.time()] + [np.asarray(waves.channels[c]) for c in CHANNEL_IDS]
    rows = np.column_stack(columns)
    row = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    header = "t_s," + ",".join(CHANNEL_IDS) + "\n"
    return header + (row * len(rows)) % tuple(rows.ravel().tolist())


def _assert_g17_csv(waves, directory):
    path = directory / "run.csv"
    waves.to_csv(path)
    got, want = path.read_bytes().decode("ascii"), _g17_oracle(waves)
    if got != want:
        # The first line that differs, not a diff of megabytes of text.
        lines = zip_longest(got.splitlines(keepends=True), want.splitlines(keepends=True))
        number, (line, expected) = next((i, p) for i, p in enumerate(lines, 1) if p[0] != p[1])
        pytest.fail(f"line {number}: {line!r} != {expected!r}")


def _waves_of(values):
    """Every value in the channel columns, repeated to fill whole rows."""
    values = np.asarray(values, dtype=float)
    n = max(2, -(-len(values) // len(CHANNEL_IDS)))
    grid = np.resize(values, (len(CHANNEL_IDS), n))
    return hf.WaveformSet(1e5, dict(zip(CHANNEL_IDS, grid)))


@pytest.mark.parametrize("case", ["baseline", "filtered"])
def test_waveform_csv_matches_g17_on_bundled_runs(case, request, tmp_path):
    _, waves, _ = request.getfixturevalue(f"{case}_run")
    keep = 5 * analyzer.samples_per_period(waves.sample_rate_hz, 50.0)
    last = hf.WaveformSet(
        waves.sample_rate_hz,
        {c: waves.channels[c][-keep:] for c in CHANNEL_IDS},
        first_step=waves.first_step + waves.n_samples - keep,
    )
    assert last.n_samples > scenario_io._CSV_ROWS
    _assert_g17_csv(last, tmp_path)


@pytest.mark.parametrize("rows", [1, 7, scenario_io._CSV_ROWS])
def test_waveform_csv_text_does_not_depend_on_row_block(
    rows, filtered_bundled_run, monkeypatch, tmp_path
):
    # 101 rows: blocks of 1 and 7 rows, a short last block, and one block.
    _, waves, _ = filtered_bundled_run
    first = waves.first_step + waves.n_samples - 101
    last = hf.WaveformSet(
        waves.sample_rate_hz, {c: waves.channels[c][-101:] for c in CHANNEL_IDS}, first_step=first
    )
    monkeypatch.setattr(scenario_io, "_CSV_ROWS", rows)
    _assert_g17_csv(last, tmp_path)


def test_waveform_csv_writer_peak_is_below_the_run(tmp_path):
    # The writer formats a block of rows at a time, so its temporaries
    # (5.3 MB traced) stay below the bundled filtered run's own (9.8 MB,
    # 5.9 MB of them look-ahead tables) and the run sets `simulate`'s peak.
    scenario = presets.filtered_scenario()
    tracemalloc.start()
    try:
        waves = hf.run(scenario)
        held, run_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        waves.to_csv(tmp_path / "filtered.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    csv_peak = peak - held  # not counting the record the run left
    assert csv_peak < run_peak, (csv_peak, run_peak)


def test_waveform_twin_writer_peak_is_below_the_run(tmp_path):
    # The twin is written a column at a time: its writer holds the time
    # column it forms (0.23 MB traced with its temporaries) and no (18, n)
    # table, which for the bundled filtered record would be 1.44 MB.
    scenario = presets.filtered_scenario()
    tracemalloc.start()
    try:
        waves = hf.run(scenario)
        held, run_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        waves.to_npy(tmp_path / "filtered.npy")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    npy_peak = peak - held  # not counting the record the run left
    assert npy_peak < run_peak, (npy_peak, run_peak)
    assert npy_peak < 4 * 8 * waves.n_samples, npy_peak  # four columns


@pytest.mark.parametrize("case", ["baseline", "filtered"])
def test_writers_return_the_digest_of_the_bytes_written(case, request, tmp_path):
    # The twin's bytes are np.save's of the table the CSV holds.
    import hashlib
    import io

    _, waves, _ = request.getfixturevalue(f"{case}_bundled_run")
    csv, npy = tmp_path / "run.csv", tmp_path / "run.npy"
    assert waves.to_csv(csv) == hashlib.sha256(csv.read_bytes()).hexdigest()
    assert waves.to_npy(npy) == hashlib.sha256(npy.read_bytes()).hexdigest()
    saved = io.BytesIO()
    table = np.loadtxt(csv, delimiter=",", skiprows=1).T
    np.save(saved, np.ascontiguousarray(table))
    assert npy.read_bytes() == saved.getvalue()
    assert table.shape == (1 + len(CHANNEL_IDS), waves.n_samples)


def test_waveform_csv_matches_g17_at_powers_of_ten(tmp_path):
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
    _assert_g17_csv(_waves_of(np.concatenate([values, -values])), tmp_path)


def test_waveform_csv_matches_g17_at_notation_switches(tmp_path):
    # %.17g writes 1e-5 with an exponent and 1e-4 without, 1e16 without
    # and 1e17 with; twenty doubles each side of each switch.
    values = []
    for switch in (1e-5, 1e-4, 1e16, 1e17):
        below = above = switch
        for _ in range(20):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            values += [below, above]
        values.append(switch)
    _assert_g17_csv(_waves_of(values + [-v for v in values]), tmp_path)


def test_waveform_csv_matches_g17_where_rounding_carries(tmp_path):
    # Doubles just below a power of ten whose 17 digits round up to it,
    # and values whose last digits are a run of nines.
    carries = []
    for k in range(-323, 309):
        x = float(f"1e{k}")
        for v in (x, np.nextafter(x, 0.0)):
            if Fraction(v) < Fraction(10) ** k and Fraction("%.17g" % v) == Fraction(10) ** k:
                carries.append(v)
    assert len(carries) >= 10
    nines = [0.3, 2.0 / 3.0, 0.7, 1.9999999999999998, 99999999999999.98, 9.9999999999999982e-5]
    _assert_g17_csv(_waves_of(carries + nines + [-v for v in carries]), tmp_path)


@pytest.mark.parametrize("step", [-np.inf, np.inf])
def test_waveform_csv_matches_g17_when_log10_errs(step, monkeypatch, tmp_path):
    # The decade is taken from log10 but not trusted: with log10 two ulps
    # off, values next to a power of ten land a decade too high or too low
    # (a product at or above 1e17, or below 1e16) and still print exactly.
    true_log10 = np.log10
    monkeypatch.setattr(
        np, "log10", lambda x: np.nextafter(np.nextafter(true_log10(x), step), step)
    )
    tens = np.array([float(f"1e{k}") for k in range(-279, 280)])
    values = [tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)]
    _assert_g17_csv(_waves_of(np.concatenate(values)), tmp_path)


def test_waveform_csv_matches_g17_on_exact_ties(tmp_path):
    # x = m / 2^(k+1) with m odd has 18 significant digits, the last a 5,
    # when it lies in the decade 10^(16-k): %.17g rounds it half to even.
    rng = np.random.default_rng(24)
    ties = [1000000000000000.25, 1000000000000000.75, 2000000000000000.25]
    for k in range(1, 23):
        for m in rng.integers(1, 2**53, 400).tolist():
            x = (m | 1) / 2 ** (k + 1)
            if 10.0 ** (16 - k) <= x < 10.0 ** (17 - k):
                ties.append(x)
    parities = set()
    for x in ties:
        scaled = Fraction(x) * Fraction(10) ** (16 - math.floor(math.log10(x)))
        assert scaled - math.floor(scaled) == Fraction(1, 2)
        parities.add(math.floor(scaled) % 2)
    # Ties that round down to an even digit and ties that round up to one.
    assert parities == {0, 1} and len(ties) > 500
    _assert_g17_csv(_waves_of(ties + [-x for x in ties]), tmp_path)


def test_waveform_csv_matches_g17_on_special_values(tmp_path):
    tiny = 2.2250738585072014e-308
    values = [
        0.0, -0.0, 5e-324, 1e-320, np.nextafter(tiny, 0.0), tiny,
        np.finfo(float).max, np.nan, np.inf, -np.inf, 1e-280, 1e280,
    ]
    values += [-v for v in values]
    values += np.random.default_rng(3).random(40).tolist()
    _assert_g17_csv(_waves_of(values), tmp_path)


@settings(max_examples=30, deadline=None)
@given(
    pool=st.lists(st.floats(), min_size=1, max_size=64),
    n_rows=st.sampled_from(
        [1, 2, scenario_io._CSV_ROWS - 1, scenario_io._CSV_ROWS + 1, 2 * scenario_io._CSV_ROWS + 3]
    ),
)
def test_waveform_csv_matches_g17_on_any_floats(tmp_path_factory, pool, n_rows):
    values = np.resize(np.array(pool), (len(CHANNEL_IDS) + 1, n_rows))
    if n_rows == 1:
        # A waveform set holds at least 2 rows; one row is checked on the
        # formatter itself.
        seps = np.full(len(values), ord(","), dtype=np.uint8)
        seps[-1] = ord("\n")
        row = ",".join(["%.17g"] * len(values)) + "\n"
        assert scenario_io._format_g17(values[:, 0], seps) == (row % tuple(values[:, 0])).encode()
        return
    waves = hf.WaveformSet(1e5, dict(zip(CHANNEL_IDS, values[1:])))
    _assert_g17_csv(waves, tmp_path_factory.getbasetemp())
