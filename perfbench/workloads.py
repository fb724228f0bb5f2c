"""The benchmark's workloads: ``reproduce``, ``settle`` and ``sweep``.

Each workload yields one iteration at a time as a list of operations.  An
operation has a timed part (calls into harmflow only) and an untimed check
of its outputs; the harness times the first and counts a raised exception,
a non-zero CLI exit or a failed check as a failed operation.  Checks return
the figures (THD, power factor, energy imbalance) recorded in the result
rows.
"""

from __future__ import annotations

import json
import math
import random
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import harmflow as hf
from harmflow import presets
from harmflow.design import QualityFactorWarning
from harmflow.simulator import CHANNEL_IDS

F1 = 50.0
VRMS = 220.0
ANALYSIS_CYCLES = 5
MAX_ORDER = 50
# The test suite's bound on the relative energy imbalance.
IMBALANCE_BOUND = 1e-3


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass
class Operation:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], dict]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _require_finite(**values) -> None:
    for name, value in values.items():
        if not np.all(np.isfinite(value)):
            raise CheckFailed(f"{name} is not finite")


def _check_waves(waves: hf.WaveformSet) -> None:
    _require(not waves.flagged_steps, f"{len(waves.flagged_steps)} flagged steps")
    for name, samples in waves.channels.items():
        _require_finite(**{name: samples})


def _check_imbalance(imbalance: float) -> float:
    _require_finite(imbalance=imbalance)
    _require(
        imbalance < IMBALANCE_BOUND,
        f"relative energy imbalance {imbalance:.3e} >= {IMBALANCE_BOUND:g}",
    )
    return imbalance


def _audit(waves: hf.WaveformSet, scenario: hf.Scenario) -> float:
    window = hf.steady_state_window(waves, scenario.basis, ANALYSIS_CYCLES)
    return _check_imbalance(hf.energy_audit(waves, scenario, window).relative_imbalance)


# ---------------------------------------------------------------------------
# reproduce: the README CLI walkthrough, in-process
# ---------------------------------------------------------------------------

# Headline figures of the bundled scenarios (README table): i_src_a THD in
# percent to two decimals, displacement PF to three, IEEE-519 verdict.
REFERENCE = {
    "baseline": {"thd_pct": 20.41, "dpf": 0.915, "ieee519": False},
    "filtered": {"thd_pct": 4.12, "dpf": 0.906, "ieee519": True},
}

DESIGN_ARGS = [
    "--c", "11.09e-6", "--st-q", "106.24,107.77,108.36,105.08",
    "--hp-corner", "858.37", "--hp-q", "2.9704",
]


def _cli(argv: list) -> int:
    from harmflow import cli

    with warnings.catch_warnings():
        # The README bank's tuned q sits just above the recommended range.
        warnings.simplefilter("ignore", QualityFactorWarning)
        return cli.main([str(a) for a in argv])


def _require_exit_zero(code: int) -> None:
    _require(code == 0, f"exit code {code}")


class Reproduce:
    """``design`` and ``scan`` of the bundled bank, ``simulate`` and
    ``analyze`` of both bundled scenarios, then ``report``; one operation is
    one CLI command."""

    name = "reproduce"
    cases = ("baseline", "filtered")

    def __init__(self, root: Path, seed: int, workdir: Path) -> None:
        self.scenario_paths = {c: root / "scenarios" / f"{c}.json" for c in self.cases}
        self.out = workdir

    def prepare(self) -> None:
        from harmflow import cli  # noqa: F401  (the CLI import is part of set-up)
        from harmflow.scenario_io import load_scenario

        self.scenarios = {c: load_scenario(p) for c, p in self.scenario_paths.items()}

    def operations(self) -> list[Operation]:
        out = self.out
        bank = out / "bank.json"
        ops = [
            Operation(
                "design",
                lambda: _cli(["design", *DESIGN_ARGS, "-o", bank]),
                self._check_design,
            ),
            Operation(
                "scan",
                lambda: _cli(["scan", bank, "--ls", "0.0016", "-o", out / "bank"]),
                self._check_scan,
            ),
        ]
        for case in self.cases:
            ops.append(
                Operation(f"simulate-{case}", self._simulate(case), self._check_simulate(case))
            )
        for case in self.cases:
            argv = [
                "analyze", out / f"{case}.csv", "--channel", "i_src_a",
                "--v-channel", "v_src_a", "-o", out / case,
            ]
            ops.append(
                Operation(f"analyze-{case}", lambda argv=argv: _cli(argv), self._check_analyze(case))
            )
        ops.append(
            Operation(
                "report",
                lambda: _cli(
                    ["report", out / "baseline.csv", out / "filtered.csv", "-o", out / "comparison"]
                ),
                self._check_report,
            )
        )
        return ops

    def _check_design(self, code: int) -> dict:
        _require_exit_zero(code)
        doc = json.loads((self.out / "bank.json").read_text())
        _require(len(doc["branches"]) == 5, "designed bank must have five branches")
        return {}

    def _check_scan(self, code: int) -> dict:
        _require_exit_zero(code)
        doc = json.loads((self.out / "bank.resonances.json").read_text())
        _require(len(doc["series_resonances_hz"]) >= 4, "expected four series resonances")
        _require((self.out / "bank.impedance.csv").is_file(), "impedance CSV missing")
        return {}

    def _simulate(self, case: str) -> Callable[[], tuple]:
        def op() -> tuple:
            from harmflow import cli

            # Keep the waveforms cli.simulate produced, to compare with the CSV.
            inner = cli.run
            captured = []

            def capture(scenario):
                waves = inner(scenario)
                captured.append(waves)
                return waves

            cli.run = capture
            try:
                code = _cli(["simulate", self.scenario_paths[case], "-o", self.out / f"{case}.csv"])
            finally:
                cli.run = inner
            return code, captured

        return op

    def _check_simulate(self, case: str) -> Callable[[tuple], dict]:
        def check(result: tuple) -> dict:
            code, captured = result
            _require_exit_zero(code)
            _require(len(captured) == 1, "simulate must run the solver once")
            waves = captured[0]
            _check_waves(waves)
            meta = json.loads((self.out / f"{case}.meta.json").read_text())
            _require(meta["flagged_steps"] == [], "meta.json lists flagged steps")
            csv_path = self.out / f"{case}.csv"
            with open(csv_path) as fh:
                header = fh.readline().strip()
            _require(header == ",".join(("t_s",) + CHANNEL_IDS), "unexpected CSV header")
            data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
            expected = np.column_stack([waves.time()] + [waves.channels[c] for c in CHANNEL_IDS])
            _require(
                data.shape == expected.shape and np.array_equal(data, expected),
                "CSV read back differs from the in-memory waveforms",
            )
            return {f"{case}.imbalance": _audit(waves, self.scenarios[case])}

        return check

    def _check_analyze(self, case: str) -> Callable[[int], dict]:
        def check(code: int) -> dict:
            _require_exit_zero(code)
            summary = json.loads((self.out / f"{case}.summary.json").read_text())
            ref = REFERENCE[case]
            thd = summary["thd"]
            dpf = summary["power"]["displacement_power_factor"]
            _require(
                abs(100.0 * thd - ref["thd_pct"]) < 0.005,
                f"{case} THD {100 * thd:.4f}% != {ref['thd_pct']}%",
            )
            _require(abs(dpf - ref["dpf"]) < 0.0005, f"{case} DPF {dpf:.5f} != {ref['dpf']}")
            _require(
                summary["ieee519"]["passed"] is ref["ieee519"],
                f"{case} IEEE-519 verdict {summary['ieee519']['passed']}",
            )
            return {
                f"{case}.thd": thd,
                f"{case}.dpf": dpf,
                f"{case}.pf": summary["power"]["true_power_factor"],
            }

        return check

    def _check_report(self, code: int) -> dict:
        _require_exit_zero(code)
        doc = json.loads((self.out / "comparison.report.json").read_text())
        _require(doc["ieee519_flip"] is True, "IEEE-519 verdict does not flip")
        _require(
            doc["baseline"]["ieee519_passed"] is False and doc["filtered"]["ieee519_passed"] is True,
            "IEEE-519 verdicts must be fail (baseline) and pass (filtered)",
        )
        return {}


# ---------------------------------------------------------------------------
# settle: the long filtered run through the library
# ---------------------------------------------------------------------------


class Settle:
    """The ``settled_filtered_run`` case (1.2 s on the 1998-samples-per-period
    grid), then spectra of ``i_src_a/b/c``, ``power_report`` and
    ``energy_audit`` over the last five cycles; one operation is one study."""

    name = "settle"
    samples_per_period = 1998

    def __init__(self, root: Path, seed: int, workdir: Path, duration_s: float = 1.2) -> None:
        self.duration_s = duration_s

    def prepare(self) -> None:
        solver = hf.SolverConfig(dt_s=0.02 / self.samples_per_period, duration_s=self.duration_s)
        self.scenario = presets.filtered_scenario(solver)

    def operations(self) -> list[Operation]:
        return [Operation("study", self._study, self._check)]

    def _study(self) -> tuple:
        scenario = self.scenario
        waves = hf.run(scenario)
        window = hf.steady_state_window(waves, scenario.basis, ANALYSIS_CYCLES)
        sl = slice(window.start, window.stop)
        ch = waves.channels
        specs = [
            hf.spectrum(ch[f"i_src_{p}"][sl], waves.sample_rate_hz, F1, MAX_ORDER)
            for p in "abc"
        ]
        power = hf.power_report(ch["v_src_a"][sl], ch["i_src_a"][sl], waves.sample_rate_hz, F1)
        audit = hf.energy_audit(waves, scenario, window)
        return waves, specs, power, audit

    def _check(self, result: tuple) -> dict:
        waves, specs, power, audit = result
        _check_waves(waves)
        thd = [s.thd for s in specs]
        _require_finite(thd=thd, dpf=power.displacement_power_factor, pf=power.true_power_factor)
        imbalance = _check_imbalance(audit.relative_imbalance)
        return {
            "thd_a": thd[0],
            "thd_b": thd[1],
            "thd_c": thd[2],
            "dpf": power.displacement_power_factor,
            "pf": power.true_power_factor,
            "imbalance": imbalance,
        }


# ---------------------------------------------------------------------------
# sweep: seeded filter-design candidates
# ---------------------------------------------------------------------------

# Draw ranges.  The quality factors stay inside harmflow's recommended
# ranges (tuned 20..100, high-pass 0.5..5) so no draw warns; the high-pass
# corner stays above the 13th harmonic (650 Hz) as FilterBank requires.
C_RANGE_F = (5e-6, 20e-6)
ST_Q_RANGE = (20.0, 100.0)
HP_CORNER_RANGE_HZ = (700.0, 1000.0)
HP_Q_RANGE = (1.0, 4.0)
LOAD_R_RANGE_OHM = (50.0, 150.0)
SOURCE_L_RANGE_H = (0.5e-3, 3e-3)
SPP_RANGE = (200, 600)
# Cycles per run are chosen so each candidate takes about this many steps,
# which keeps the work per candidate, and so wall_s, nearly seed-independent.
STEPS_PER_CANDIDATE = 6000
MIN_CYCLES = 10

SCAN_F_START_HZ = 50.0
SCAN_F_END_HZ = 1000.0
SCAN_POINTS = 95_001
# The bank's series resonance sits this close to each tuned h*f1; the other
# branches' admittance pulls it off by up to ~0.3% at q = 20.
RESONANCE_REL_TOL = 0.01


@dataclass(frozen=True)
class Candidate:
    c_per_branch_f: float
    st_q: tuple[float, float, float, float]
    hp_corner_hz: float
    hp_q: float
    load_resistance_ohm: float
    source_inductance_h: float
    samples_per_period: int
    cycles: int

    @property
    def dt_s(self) -> float:
        return 1.0 / (F1 * self.samples_per_period)


class CandidateStream:
    """Seeded, reproducible sequence of valid sweep candidates."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def draw(self) -> Candidate:
        r = self._rng
        spp = r.randint(*SPP_RANGE)
        return Candidate(
            c_per_branch_f=math.exp(r.uniform(*map(math.log, C_RANGE_F))),
            st_q=tuple(r.uniform(*ST_Q_RANGE) for _ in range(4)),
            hp_corner_hz=r.uniform(*HP_CORNER_RANGE_HZ),
            hp_q=r.uniform(*HP_Q_RANGE),
            load_resistance_ohm=r.uniform(*LOAD_R_RANGE_OHM),
            source_inductance_h=r.uniform(*SOURCE_L_RANGE_H),
            samples_per_period=spp,
            cycles=max(MIN_CYCLES, round(STEPS_PER_CANDIDATE / spp)),
        )

    def take(self, count: int) -> list[Candidate]:
        return [self.draw() for _ in range(count)]


def bank_abs_impedance(bank: hf.FilterBank, f_hz: float) -> float:
    """|Z| of the bank alone from the element laws, independent of
    ``harmflow.network``."""
    w = 2.0 * math.pi * f_hz
    y = 0j
    for b in bank.single_tuned:
        y += 1.0 / complex(b.resistance_ohm, w * b.inductance_h - 1.0 / (w * b.capacitance_f))
    for b in bank.high_pass:
        zl = 1j * w * b.inductance_h
        y += 1.0 / (1.0 / (1j * w * b.capacitance_f) + b.resistance_ohm * zl / (b.resistance_ohm + zl))
    return abs(1.0 / y)


def check_series_resonances(bank: hf.FilterBank, series_hz, step_hz: float) -> None:
    """Every tuned h*f1 has a series resonance of the bank within
    ``RESONANCE_REL_TOL``, and the scan reports it within one grid step of
    the exact |Z| minimum."""
    from scipy.optimize import minimize_scalar

    found = np.asarray(series_hz)
    for branch in bank.single_tuned:
        target = branch.order * F1
        lo, hi = target * (1 - 2 * RESONANCE_REL_TOL), target * (1 + 2 * RESONANCE_REL_TOL)
        exact = minimize_scalar(
            lambda f: bank_abs_impedance(bank, f),
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-7},
        ).x
        _require(
            abs(exact - target) <= RESONANCE_REL_TOL * target,
            f"series resonance {exact:.3f} Hz too far from {target:g} Hz",
        )
        _require(
            found.size > 0 and np.min(np.abs(found - exact)) <= step_hz * (1 + 1e-9),
            f"no scanned series resonance within one step of {exact:.4f} Hz",
        )


class Sweep:
    """Per candidate: ``design_bank_six_pulse``, a dense scan of the bank alone
    and of the bank in parallel with Ls with ``find_resonances``, a short
    ``run``, then ``spectrum``, ``power_report`` and ``energy_audit``; one
    operation is one candidate."""

    name = "sweep"

    def __init__(
        self,
        root: Path,
        seed: int,
        workdir: Path,
        candidates_per_iteration: int = 8,
        scan_points: int = SCAN_POINTS,
    ) -> None:
        self.stream = CandidateStream(seed)
        self.count = candidates_per_iteration
        self.scan_points = scan_points

    def prepare(self) -> None:
        self.pending = self.stream.take(self.count)

    def operations(self) -> list[Operation]:
        batch, self.pending = self.pending, self.stream.take(self.count)
        return [
            Operation("candidate", lambda c=c: self._candidate(c), self._check(c))
            for c in batch
        ]

    def _candidate(self, c: Candidate) -> tuple:
        basis = hf.SystemBasis(F1, VRMS, c.source_inductance_h)
        with warnings.catch_warnings():
            warnings.simplefilter("error", QualityFactorWarning)
            bank = hf.design_bank_six_pulse(
                basis, c.c_per_branch_f, c.st_q, c.hp_corner_hz, c.hp_q
            )
        alone = hf.scan(bank, 0.0, SCAN_F_START_HZ, SCAN_F_END_HZ, self.scan_points)
        alone_res = hf.find_resonances(alone)
        with_ls = hf.scan(
            bank, c.source_inductance_h, SCAN_F_START_HZ, SCAN_F_END_HZ, self.scan_points
        )
        with_ls_res = hf.find_resonances(with_ls)
        scenario = hf.Scenario(
            basis=basis,
            load=hf.RectifierLoad(load_resistance_ohm=c.load_resistance_ohm),
            bank=bank,
            solver=hf.SolverConfig(dt_s=c.dt_s, duration_s=c.cycles / F1),
        )
        waves = hf.run(scenario)
        window = hf.steady_state_window(waves, basis, ANALYSIS_CYCLES)
        sl = slice(window.start, window.stop)
        ch = waves.channels
        spec = hf.spectrum(ch["i_src_a"][sl], waves.sample_rate_hz, F1, MAX_ORDER)
        power = hf.power_report(ch["v_src_a"][sl], ch["i_src_a"][sl], waves.sample_rate_hz, F1)
        audit = hf.energy_audit(waves, scenario, window)
        return bank, alone, alone_res, with_ls, with_ls_res, waves, spec, power, audit

    def _check(self, c: Candidate) -> Callable[[tuple], dict]:
        def check(result: tuple) -> dict:
            bank, alone, alone_res, with_ls, with_ls_res, waves, spec, power, audit = result
            _require_finite(
                scan_alone=alone.impedances,
                scan_with_ls=with_ls.impedances,
                magnitudes=spec.magnitudes,
                thd=spec.thd,
                dpf=power.displacement_power_factor,
                pf=power.true_power_factor,
            )
            _check_waves(waves)
            _check_imbalance(audit.relative_imbalance)
            step = (SCAN_F_END_HZ - SCAN_F_START_HZ) / (self.scan_points - 1)
            check_series_resonances(bank, alone_res.series_resonances_hz, step)
            return {
                "candidate": asdict(c),
                "thd": spec.thd,
                "dpf": power.displacement_power_factor,
                "pf": power.true_power_factor,
                "imbalance": audit.relative_imbalance,
            }

        return check


WORKLOADS = {w.name: w for w in (Reproduce, Settle, Sweep)}
