"""Batch command-line surface tying design, scans, simulation, and analysis
into reproducible file-based runs.

Commands: ``design`` (closed-form bank synthesis to JSON), ``simulate``
(scenario JSON to waveform CSV plus metadata), ``analyze`` (waveform CSV to
spectrum CSV/SVG and a summary JSON), ``scan`` (impedance sweep to CSV plus
a resonance JSON), and ``report`` (side-by-side comparison of two runs).

Exit codes: 0 on success, 2 for input or validation errors, 3 for numerical
solver failures.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import svg
from .analyzer import (
    SETTLING_RESIDUAL_LIMIT,
    AnalysisError,
    HarmonicSpectrum,
    ieee519_check,
    power_report,
    settling_residual,
    spectrum,
)
from .design import DesignError, SystemBasis, bank_from_dict, bank_to_dict, design_bank
from .network import NetworkError, find_resonances, scan
from .scenario_io import ScenarioError, load_json, load_scenario
from .simulator import (
    CHANNEL_IDS,
    SampleGridError,
    SolverError,
    WindowError,
    last_cycles_window,
    run,
)


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip() != ""]


def _json_dump(doc: dict, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmflow",
        description="Passive-filter design and six-pulse rectifier harmonic studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="size a shunt filter bank and emit its JSON")
    p.add_argument("--c", type=float, required=True, help="capacitance per branch [F]")
    p.add_argument(
        "--orders", default="5,7,11,13", help="comma list of tuned harmonic orders"
    )
    p.add_argument(
        "--st-q",
        required=True,
        help="quality factor for the tuned branches (one value or comma list)",
    )
    p.add_argument(
        "--hp-corner", type=float, required=True, help="high-pass corner [Hz]"
    )
    p.add_argument(
        "--hp-q", type=float, required=True, help="high-pass quality factor"
    )
    p.add_argument("--f1", type=float, default=50.0, help="fundamental [Hz]")
    p.add_argument("-o", "--output", default=None, help="bank JSON path (default stdout)")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("simulate", help="run a scenario file to a waveform CSV")
    p.add_argument("scenario", help="scenario JSON path")
    p.add_argument("-o", "--output", required=True, help="waveform CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="harmonic/power summary of one channel")
    p.add_argument("waveform", help="waveform CSV path")
    p.add_argument("--channel", required=True, help="channel id to analyze")
    p.add_argument("--f1", type=float, default=50.0, help="fundamental [Hz]")
    p.add_argument("--max-order", type=int, default=50, help="highest harmonic order")
    p.add_argument(
        "--cycles", type=int, default=5, help="steady-state window length [cycles]"
    )
    p.add_argument(
        "--v-channel",
        default=None,
        help="voltage channel for the power-factor report",
    )
    p.add_argument(
        "-o", "--output-prefix", default=None, help="output prefix (default: CSV stem)"
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("scan", help="impedance sweep of a bank JSON")
    p.add_argument("bank", help="bank JSON path")
    p.add_argument("--f-start", type=float, default=50.0)
    p.add_argument("--f-end", type=float, default=1000.0)
    p.add_argument("--points", type=int, default=951)
    p.add_argument(
        "--ls", type=float, default=0.0, help="source inductance in parallel [H]"
    )
    p.add_argument(
        "-o", "--output-prefix", default=None, help="output prefix (default: bank stem)"
    )
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("report", help="compare a baseline and a filtered run")
    p.add_argument("baseline", help="baseline waveform CSV")
    p.add_argument("filtered", help="filtered waveform CSV")
    p.add_argument("--channel", default="i_src_a")
    p.add_argument("--f1", type=float, default=50.0)
    p.add_argument("--max-order", type=int, default=50)
    p.add_argument("--cycles", type=int, default=5)
    p.add_argument(
        "-o",
        "--output-prefix",
        default=None,
        help="output prefix (default: filtered stem)",
    )
    p.set_defaults(func=cmd_report)
    return parser


def cmd_design(args: argparse.Namespace) -> int:
    # Only the fundamental enters the design equations.
    basis = SystemBasis(fundamental_hz=args.f1)
    orders = _float_list(args.orders)
    st_q = _float_list(args.st_q)
    bank = design_bank(
        basis,
        orders,
        args.c,
        st_q[0] if len(st_q) == 1 else st_q,
        args.hp_corner,
        args.hp_q,
    )
    text = json.dumps(bank_to_dict(bank), indent=2) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    start = time.perf_counter()
    waves = run(scenario)
    wall = time.perf_counter() - start
    out_csv = Path(args.output)
    waves.to_csv(out_csv)
    meta_path = out_csv.with_suffix(".meta.json") if out_csv.suffix == ".csv" else Path(
        str(out_csv) + ".meta.json"
    )
    _json_dump(
        {
            "scenario": str(args.scenario),
            "dt_s": scenario.solver.dt_s,
            "duration_s": scenario.solver.duration_s,
            "sample_rate_hz": waves.sample_rate_hz,
            "n_samples": waves.n_samples,
            "record_cycles": scenario.solver.record_cycles,
            "first_step": waves.first_step,
            "t_start_s": waves.first_step * waves.dt_s,
            "channels": list(CHANNEL_IDS),
            "flagged_steps": list(waves.flagged_steps),
            "diode_states": waves.diode_states,
            "switch_iterations": waves.switch_iterations,
            "switch_events": waves.switch_events,
            "wall_time_s": wall,
        },
        meta_path,
    )
    return 0


def _read_waveform_csv(path) -> tuple[list[str], np.ndarray, float]:
    """Return (channel names, data matrix, sample rate) of a waveform CSV."""
    with open(path) as fh:
        header = fh.readline().strip()
    names = header.split(",")
    if not names or names[0] != "t_s":
        raise AnalysisError(f"{path}: expected a waveform CSV with a t_s column")
    with warnings.catch_warnings():
        # A file without data rows is reported below.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:
            raise AnalysisError(f"{path}: {_first_bad_line(path, names) or exc}") from None
    if len(data) < 2:
        raise AnalysisError(f"{path}: need at least two data rows")
    if data.shape[1] != len(names):
        raise AnalysisError(f"{path}: header and data column counts differ")
    t = data[:, 0]
    if not (np.isfinite(t).all() and (np.diff(t) > 0.0).all()):
        raise AnalysisError(f"{path}: t_s must be finite and strictly increasing")
    sample_rate = float((len(t) - 1) / (t[-1] - t[0]))
    return names[1:], data[:, 1:], sample_rate


def _data_lines(path):
    """Line number and text of each data line of a waveform CSV, counting
    the header as line 1 and skipping the blank and comment lines that
    np.loadtxt skips."""
    with open(path) as fh:
        next(fh)
        for number, line in enumerate(fh, start=2):
            line = line.split("#", 1)[0]
            if line.strip():
                yield number, line


def _first_bad_line(path, names: list[str]) -> str | None:
    """Describe the first line of a waveform CSV whose field count differs
    from the header's or which holds a field that is not a number; None if
    there is no such line."""
    for number, line in _data_lines(path):
        fields = line.split(",")
        if len(fields) != len(names):
            return f"line {number} has {len(fields)} fields, expected {len(names)}"
        for name, value in zip(names, fields):
            try:
                float(value)
            except ValueError:
                return f"line {number}: {name} value {value.strip()!r} is not a number"
    return None


def _channel_column(names: list[str], data: np.ndarray, channel: str, path) -> np.ndarray:
    """The column of an analysed channel, which must be finite throughout."""
    if channel not in names:
        available = ", ".join(names)
        raise AnalysisError(
            f"unknown channel {channel!r} in {path}; available: {available}"
        )
    column = data[:, names.index(channel)]
    if not np.isfinite(column).all():
        row = int(np.argmin(np.isfinite(column)))
        number = next(itertools.islice(_data_lines(path), row, None))[0]
        raise AnalysisError(
            f"{path}: line {number}: {channel} value {float(column[row])!r} is not finite"
        )
    return column


def _windowed_spectrum(
    samples: np.ndarray, sample_rate: float, f1: float, max_order: int, cycles: int
) -> tuple[HarmonicSpectrum, range, float | None]:
    """Spectrum and settling residual (None for one cycle) of the last
    ``cycles`` periods, and the window they span."""
    window = last_cycles_window(len(samples), sample_rate, f1, cycles)
    x = samples[window.start : window.stop]
    spec = spectrum(x, sample_rate, f1, max_order)
    residual = settling_residual(x, sample_rate, f1) if cycles >= 2 else None
    return spec, window, residual


def cmd_analyze(args: argparse.Namespace) -> int:
    names, data, sample_rate = _read_waveform_csv(args.waveform)
    samples = _channel_column(names, data, args.channel, args.waveform)
    if args.v_channel is not None:
        v = _channel_column(names, data, args.v_channel, args.waveform)
    spec, window, residual = _windowed_spectrum(
        samples, sample_rate, args.f1, args.max_order, args.cycles
    )
    check = ieee519_check(spec)
    if residual is not None and residual > SETTLING_RESIDUAL_LIMIT:
        print(
            f"note: {args.channel} has not settled: it changes by "
            f"{residual:.1e} of its peak from cycle to cycle over the "
            f"analysis window (limit {SETTLING_RESIDUAL_LIMIT:g})",
            file=sys.stderr,
        )
    prefix = Path(
        args.output_prefix
        if args.output_prefix is not None
        else Path(args.waveform).with_suffix("")
    )
    summary = {
        "channel": args.channel,
        "fundamental_hz": args.f1,
        "max_order": args.max_order,
        "cycles": args.cycles,
        "thd": spec.thd,
        "rms": spec.rms_total,
        "dc": spec.dc,
        "fundamental_rms": float(spec.magnitudes[0]),
        "settling_residual": residual,
        "ieee519": {"passed": check.passed, "thd": check.thd, "limit": check.limit},
    }
    if args.v_channel is not None:
        pf = power_report(
            v[window.start : window.stop],
            samples[window.start : window.stop],
            sample_rate,
            args.f1,
        )
        summary["power"] = {
            "v_channel": args.v_channel,
            "active_power_w": pf.active_power_w,
            "apparent_power_va": pf.apparent_power_va,
            "true_power_factor": pf.true_power_factor,
            "displacement_power_factor": pf.displacement_power_factor,
        }
    spec.to_csv(Path(str(prefix) + ".spectrum.csv"))
    Path(str(prefix) + ".spectrum.svg").write_text(
        svg.spectrum_bar_svg(spec, title=f"{args.channel} spectrum")
    )
    _json_dump(summary, Path(str(prefix) + ".summary.json"))
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    bank = bank_from_dict(load_json(args.bank))
    curve = scan(bank, args.ls, args.f_start, args.f_end, args.points)
    report = find_resonances(curve)
    prefix = Path(
        args.output_prefix
        if args.output_prefix is not None
        else Path(args.bank).with_suffix("")
    )
    curve.to_csv(Path(str(prefix) + ".impedance.csv"))
    _json_dump(
        {
            "f_start_hz": args.f_start,
            "f_end_hz": args.f_end,
            "n_points": args.points,
            "source_inductance_h": args.ls,
            "series_resonances_hz": list(report.series_resonances_hz),
            "parallel_resonances_hz": list(report.parallel_resonances_hz),
        },
        Path(str(prefix) + ".resonances.json"),
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    names_a, data_a, rate_a = _read_waveform_csv(args.baseline)
    names_b, data_b, rate_b = _read_waveform_csv(args.filtered)
    if abs(rate_a - rate_b) > 1e-6 * max(rate_a, rate_b):
        raise AnalysisError(
            f"sample rates differ: {rate_a!r} Hz vs {rate_b!r} Hz"
        )
    col_a = _channel_column(names_a, data_a, args.channel, args.baseline)
    col_b = _channel_column(names_b, data_b, args.channel, args.filtered)
    spec_a, _, residual_a = _windowed_spectrum(
        col_a, rate_a, args.f1, args.max_order, args.cycles
    )
    spec_b, _, residual_b = _windowed_spectrum(
        col_b, rate_b, args.f1, args.max_order, args.cycles
    )
    check_a = ieee519_check(spec_a)
    check_b = ieee519_check(spec_b)
    prefix = Path(
        args.output_prefix
        if args.output_prefix is not None
        else Path(args.filtered).with_suffix("")
    )
    report = {
        "channel": args.channel,
        "fundamental_hz": args.f1,
        "max_order": args.max_order,
        "cycles": args.cycles,
        "baseline": {
            "csv": str(args.baseline),
            "thd": spec_a.thd,
            "fundamental_rms": float(spec_a.magnitudes[0]),
            "settling_residual": residual_a,
            "ieee519_passed": check_a.passed,
        },
        "filtered": {
            "csv": str(args.filtered),
            "thd": spec_b.thd,
            "fundamental_rms": float(spec_b.magnitudes[0]),
            "settling_residual": residual_b,
            "ieee519_passed": check_b.passed,
        },
        "thd_delta": spec_b.thd - spec_a.thd,
        "ieee519_flip": (not check_a.passed) and check_b.passed,
    }
    _json_dump(report, Path(str(prefix) + ".report.json"))
    Path(str(prefix) + ".overlay.svg").write_text(
        svg.spectrum_overlay_svg(
            spec_a, spec_b, title=f"{args.channel}: baseline vs filtered"
        )
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}",
            file=sys.stderr,
        )
        return 2
    except (
        ScenarioError,
        DesignError,
        NetworkError,
        AnalysisError,
        WindowError,
        SampleGridError,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
