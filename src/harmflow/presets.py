"""Bundled demonstration system: a 50 Hz, 220 V-per-phase supply feeding a
six-pulse rectifier through 1.6 mH of line inductance, with a five-branch
shunt filter bank sized for the characteristic harmonics.

The branch quality factors are back-computed from the reference component
values so the designed bank reproduces them at their printed precision:
R = sqrt(L/C)/q for the tuned branches, q = R/(2*pi*fc*L) for the
high-pass branch.
"""

from __future__ import annotations

import math
import warnings

from .design import (
    FilterBank,
    QualityFactorWarning,
    SystemBasis,
    design_bank_six_pulse,
)
from .simulator import RectifierLoad, Scenario, SolverConfig

# Reference component values for the bundled bank (per phase, wye).
BRANCH_C_F = 11.09e-6
TUNED_L_H = {5: 0.0365, 7: 0.0186, 11: 0.0075, 13: 0.0054}
TUNED_R_OHM = {5: 0.54, 7: 0.38, 11: 0.24, 13: 0.21}
HP_L_H = 0.0031
HP_R_OHM = 49.66

# Periods the bundled runs record: the fewest from which the 5-cycle
# analysis window can be taken (``last_cycles_window`` asks for 5 + 2).
RECORD_CYCLES = 7


def bundled_basis() -> SystemBasis:
    return SystemBasis(
        fundamental_hz=50.0, source_vrms=220.0, source_inductance_h=0.0016
    )


def bundled_load() -> RectifierLoad:
    return RectifierLoad(
        front_end_inductance_h=0.023,
        load_resistance_ohm=78.0,
        load_capacitance_f=50e-6,
    )


def tuned_quality_factors() -> tuple[float, ...]:
    """Per-order q reproducing the reference R values (~105..108; above the
    usual 20..100 recommendation, hence the suppressed warning on design)."""
    return tuple(
        math.sqrt(TUNED_L_H[h] / BRANCH_C_F) / TUNED_R_OHM[h] for h in (5, 7, 11, 13)
    )


def high_pass_corner_hz() -> float:
    return 1.0 / (2.0 * math.pi * math.sqrt(HP_L_H * BRANCH_C_F))


def high_pass_quality_factor() -> float:
    return HP_R_OHM / (2.0 * math.pi * high_pass_corner_hz() * HP_L_H)


def bundled_bank(basis: SystemBasis | None = None) -> FilterBank:
    basis = basis or bundled_basis()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QualityFactorWarning)
        return design_bank_six_pulse(
            basis,
            BRANCH_C_F,
            tuned_quality_factors(),
            high_pass_corner_hz(),
            high_pass_quality_factor(),
        )


def baseline_scenario(solver: SolverConfig | None = None) -> Scenario:
    """Rectifier without filters."""
    return Scenario(
        basis=bundled_basis(),
        load=bundled_load(),
        bank=None,
        solver=solver or SolverConfig(record_cycles=RECORD_CYCLES),
    )


def filtered_scenario(solver: SolverConfig | None = None) -> Scenario:
    """Rectifier with the full five-branch bank at the PCC."""
    basis = bundled_basis()
    return Scenario(
        basis=basis,
        load=bundled_load(),
        bank=bundled_bank(basis),
        solver=solver or SolverConfig(record_cycles=RECORD_CYCLES),
    )
