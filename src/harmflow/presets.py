"""Bundled demonstration system, read from the repository's ``scenarios/``:
a 50 Hz, 220 V-per-phase supply feeding a six-pulse rectifier through
1.6 mH of line inductance, without (``baseline.json``) and with
(``filtered.json``) a five-branch shunt filter bank sized for the
characteristic harmonics.

The files are the only definition of the system; this module serves source
checkouts (tests, scripts, benchmarks), not an installed package.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from .scenario_io import Scenario, SolverConfig, load_scenario

SCENARIOS = Path(__file__).resolve().parents[2] / "scenarios"


def _bundled(name: str, solver: SolverConfig | None) -> Scenario:
    scenario = load_scenario(SCENARIOS / f"{name}.json")
    return scenario if solver is None else replace(scenario, solver=solver)


def baseline_scenario(solver: SolverConfig | None = None) -> Scenario:
    """Rectifier without filters; ``solver`` replaces the bundled settings."""
    return _bundled("baseline", solver)


def filtered_scenario(solver: SolverConfig | None = None) -> Scenario:
    """Rectifier with the full five-branch bank at the PCC; ``solver``
    replaces the bundled settings."""
    return _bundled("filtered", solver)
