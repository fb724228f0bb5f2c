#!/usr/bin/env python3
"""Grid-convergence sweep: rerun the baseline scenario over a range of time
steps and tabulate THD and the energy-audit imbalance.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harmflow as hf
from harmflow import presets


def run_one(dt: float, filtered: bool) -> tuple[float, float, float]:
    solver = hf.SolverConfig(dt_s=dt, duration_s=0.5)
    scenario = (
        presets.filtered_scenario(solver) if filtered else presets.baseline_scenario(solver)
    )
    waves = hf.run(scenario)
    window = hf.steady_state_window(waves, scenario.basis, 5)
    spec = hf.spectrum(
        waves.channels["i_src_a"][window.start : window.stop],
        waves.sample_rate_hz,
        scenario.basis.fundamental_hz,
        50,
    )
    audit = hf.energy_audit(waves, scenario, window)
    return dt, spec.thd, audit.relative_imbalance


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--dts",
        default="1e-4,5e-5,2.5e-5,1e-5,5e-6",
        help="comma list of time steps [s]; each must divide the period",
    )
    parser.add_argument(
        "--filtered", action="store_true", help="sweep the filtered scenario"
    )
    args = parser.parse_args()
    dts = [float(v) for v in args.dts.split(",")]

    rows = [run_one(dt, args.filtered) for dt in dts]

    print(f"{'dt [s]':>10} {'THD [%]':>10} {'energy imbalance':>18}")
    for dt, thd, imbalance in sorted(rows, reverse=True):
        print(f"{dt:>10.2e} {100 * thd:>10.4f} {imbalance:>18.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
