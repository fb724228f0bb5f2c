"""Passive shunt harmonic filters: closed-form design, impedance scans,
six-pulse rectifier time-domain simulation, and harmonic/power analysis."""

from .analyzer import (
    ComplianceResult,
    HarmonicSpectrum,
    PowerReport,
    ieee519_check,
    power_report,
    settling_residual,
    spectrum,
)
from .design import (
    FilterBank,
    HighPassFilter,
    SingleTunedFilter,
    SystemBasis,
    capacitor_from_reactive_power,
    design_bank,
    design_bank_six_pulse,
    design_high_pass,
    design_single_tuned,
    reactive_power_of_capacitor,
    resistor_from_quality,
    tune_inductor,
)
from .network import (
    ImpedanceCurve,
    ResonanceReport,
    bank_impedance,
    branch_impedance,
    find_resonances,
    scan,
)
from .scenario_io import RectifierLoad, Scenario, SolverConfig
from .simulator import (
    EnergyAudit,
    WaveformSet,
    energy_audit,
    run,
    steady_state_window,
)

__version__ = "0.1.0"

__all__ = [
    "ComplianceResult",
    "EnergyAudit",
    "FilterBank",
    "HarmonicSpectrum",
    "HighPassFilter",
    "ImpedanceCurve",
    "PowerReport",
    "RectifierLoad",
    "ResonanceReport",
    "Scenario",
    "SingleTunedFilter",
    "SolverConfig",
    "SystemBasis",
    "WaveformSet",
    "bank_impedance",
    "branch_impedance",
    "capacitor_from_reactive_power",
    "design_bank",
    "design_bank_six_pulse",
    "design_high_pass",
    "design_single_tuned",
    "energy_audit",
    "find_resonances",
    "ieee519_check",
    "power_report",
    "reactive_power_of_capacitor",
    "resistor_from_quality",
    "run",
    "scan",
    "settling_residual",
    "spectrum",
    "steady_state_window",
    "tune_inductor",
]
