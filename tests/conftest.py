"""Shared fixtures: the bundled demonstration system and its (expensive)
simulation runs, computed once per session."""

from __future__ import annotations

import time

import pytest

import harmflow as hf
from harmflow import presets


@pytest.fixture(scope="session")
def basis() -> hf.SystemBasis:
    return presets.filtered_scenario().basis


@pytest.fixture(scope="session")
def ref_bank() -> hf.FilterBank:
    return presets.filtered_scenario().bank


def _timed_run(scenario: hf.Scenario) -> tuple[hf.Scenario, hf.WaveformSet, float]:
    start = time.perf_counter()
    waves = hf.run(scenario)
    return scenario, waves, time.perf_counter() - start


@pytest.fixture(scope="session")
def baseline_run():
    """Bundled rectifier without filters at the default solver settings,
    recorded whole."""
    return _timed_run(presets.baseline_scenario(hf.SolverConfig()))


@pytest.fixture(scope="session")
def filtered_run():
    """Bundled rectifier with the full bank at the default solver settings,
    recorded whole."""
    return _timed_run(presets.filtered_scenario(hf.SolverConfig()))


@pytest.fixture(scope="session")
def baseline_bundled_run():
    """The baseline run at the bundled solver settings, which record the
    last 5 of 25 periods."""
    return _timed_run(presets.baseline_scenario())


@pytest.fixture(scope="session")
def filtered_bundled_run():
    """The filtered run at the bundled solver settings, which record the
    last 5 of 25 periods."""
    return _timed_run(presets.filtered_scenario())


@pytest.fixture(scope="session")
def baseline_run_half_dt():
    """Baseline at half the default step, for grid-independence checks."""
    return _timed_run(
        presets.baseline_scenario(hf.SolverConfig(dt_s=5e-6, duration_s=0.5))
    )


@pytest.fixture(scope="session")
def settled_filtered_run():
    """Long filtered run on a grid whose samples-per-period divides by 3.

    The high-q filter branches ring for a few tenths of a second after
    energization, so periodic-steady-state and phase-symmetry checks need
    more settling time than the default half second.
    """
    spp = 1998
    solver = hf.SolverConfig(dt_s=0.02 / spp, duration_s=1.2)
    return _timed_run(presets.filtered_scenario(solver))
