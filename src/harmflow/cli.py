"""Batch command-line surface tying design, scans, simulation, and analysis
into reproducible file-based runs.

Commands: ``design`` (closed-form bank synthesis to JSON), ``simulate``
(scenario JSON to waveform CSV plus metadata), ``analyze`` (waveform CSV to
spectrum CSV/SVG and a summary JSON), ``scan`` (impedance sweep to CSV plus
a resonance JSON), and ``report`` (side-by-side comparison of two runs).

``analyze`` and ``report`` share one analysis path: every input is read and
validated before any file is analysed, and an unsettled window gets a note
on stderr once the outputs are written.

Exit codes: 0 on success, 2 for input or validation errors, 3 for numerical
solver failures.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import svg
from .analyzer import (
    DEFAULT_MAX_ORDER,
    SETTLING_RESIDUAL_LIMIT,
    AnalysisError,
    ieee519_check,
    last_cycles_window,
    power_report,
    settling_residual,
    spectrum,
)
from .design import SIX_PULSE_ORDERS, SystemBasis, bank_from_dict, bank_to_dict, design_bank
from .network import find_resonances, scan
from .scenario_io import load_json, load_scenario, read_waveform_csv
from .simulator import CHANNEL_IDS, SolverError, run


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of numbers, got {text!r}"
        ) from None


def _json_dump(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")


def _output_base(prefix, source) -> str:
    """Every output path is this plus a suffix: the ``-o`` prefix, or by
    default ``source`` without its extension."""
    return str(Path(source).with_suffix("") if prefix is None else Path(prefix))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmflow",
        description="Passive-filter design and six-pulse rectifier harmonic studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="size a shunt filter bank and emit its JSON")
    p.add_argument("--c", type=float, required=True, help="capacitance per branch [F]")
    p.add_argument(
        "--orders",
        type=_float_list,
        default=",".join(map(str, SIX_PULSE_ORDERS)),
        help="comma list of tuned harmonic orders",
    )
    p.add_argument(
        "--st-q",
        type=_float_list,
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

    analyze = sub.add_parser("analyze", help="harmonic/power summary of one channel")
    analyze.add_argument("waveform", help="waveform CSV path")
    analyze.add_argument("--channel", required=True, help="channel id to analyze")
    analyze.add_argument(
        "--v-channel",
        default=None,
        help="voltage channel for the power-factor report",
    )
    analyze.add_argument(
        "-o", "--output-prefix", default=None, help="output prefix (default: CSV stem)"
    )
    analyze.set_defaults(func=cmd_analyze)

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

    report = sub.add_parser("report", help="compare a baseline and a filtered run")
    report.add_argument("baseline", help="baseline waveform CSV")
    report.add_argument("filtered", help="filtered waveform CSV")
    report.add_argument("--channel", default="i_src_a")
    report.add_argument(
        "-o",
        "--output-prefix",
        default=None,
        help="output prefix (default: filtered stem)",
    )
    report.set_defaults(func=cmd_report)

    # analyze and report take the same analysis window.
    for p in (analyze, report):
        p.add_argument("--f1", type=float, default=50.0, help="fundamental [Hz]")
        p.add_argument(
            "--max-order", type=int, default=DEFAULT_MAX_ORDER, help="highest harmonic order"
        )
        p.add_argument(
            "--cycles", type=int, default=5, help="steady-state window length [cycles]"
        )
    return parser


def cmd_design(args: argparse.Namespace) -> int:
    # Only the fundamental enters the design equations.
    basis = SystemBasis(fundamental_hz=args.f1)
    bank = design_bank(
        basis,
        args.orders,
        args.c,
        args.st_q[0] if len(args.st_q) == 1 else args.st_q,
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
    # x.csv gets x.meta.json; any other name gets .meta.json appended.
    meta_prefix = None if out_csv.suffix == ".csv" else out_csv
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
            "block_steps": waves.block_steps,
            "wall_time_s": wall,
        },
        _output_base(meta_prefix, out_csv) + ".meta.json",
    )
    return 0


def _analyse_files(args: argparse.Namespace, paths: list, channels: list[str]) -> list[tuple]:
    """Read and validate every input first: each waveform CSV's
    ``channels`` columns, then the match of their sample rates.  Then
    analyse the last ``args.cycles`` periods of each file's first column,
    which must start at least 2 periods after t = 0: (spectrum, IEEE-519
    check, settling residual or None for one cycle, power report against
    the second column or None)."""
    inputs = [read_waveform_csv(path, channels) for path in paths]
    rates = [rate for _, rate, _ in inputs]
    if max(rates) - min(rates) > 1e-6 * max(rates):
        raise AnalysisError(f"sample rates differ: {rates[0]!r} Hz vs {rates[1]!r} Hz")
    results = []
    for columns, rate, t_start in inputs:
        window = last_cycles_window(len(columns[0]), rate, args.f1, args.cycles, t_start)
        i, *v = (column[window.start : window.stop] for column in columns)
        spec = spectrum(i, rate, args.f1, args.max_order)
        results.append((
            spec,
            ieee519_check(spec),
            settling_residual(i, rate, args.f1) if args.cycles >= 2 else None,
            power_report(v[0], i, rate, args.f1) if v else None,
        ))
    return results


def _note_unsettled(channel: str, path, residual: float | None) -> None:
    if residual is not None and residual > SETTLING_RESIDUAL_LIMIT:
        print(
            f"note: {channel} has not settled: it changes by {residual:.1e} of "
            f"its peak from cycle to cycle over the analysis window of {path} "
            f"(limit {SETTLING_RESIDUAL_LIMIT:g})",
            file=sys.stderr,
        )


def cmd_analyze(args: argparse.Namespace) -> int:
    channels = [args.channel] + ([args.v_channel] if args.v_channel is not None else [])
    [(spec, check, residual, pf)] = _analyse_files(args, [args.waveform], channels)
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
        "ieee519": asdict(check),
    }
    if pf is not None:
        summary["power"] = {"v_channel": args.v_channel, **asdict(pf)}
    out = _output_base(args.output_prefix, args.waveform)
    spec.to_csv(out + ".spectrum.csv")
    Path(out + ".spectrum.svg").write_text(
        svg.spectrum_bar_svg(spec, title=f"{args.channel} spectrum")
    )
    _json_dump(summary, out + ".summary.json")
    _note_unsettled(args.channel, args.waveform, residual)
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    bank = bank_from_dict(load_json(args.bank))
    curve = scan(bank, args.ls, args.f_start, args.f_end, args.points)
    report = find_resonances(curve)
    out = _output_base(args.output_prefix, args.bank)
    curve.to_csv(out + ".impedance.csv")
    _json_dump(
        {
            "f_start_hz": args.f_start,
            "f_end_hz": args.f_end,
            "n_points": args.points,
            "source_inductance_h": args.ls,
            "series_resonances_hz": list(report.series_resonances_hz),
            "parallel_resonances_hz": list(report.parallel_resonances_hz),
        },
        out + ".resonances.json",
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    paths = {"baseline": args.baseline, "filtered": args.filtered}
    results = _analyse_files(args, list(paths.values()), [args.channel])
    report = {
        "channel": args.channel,
        "fundamental_hz": args.f1,
        "max_order": args.max_order,
        "cycles": args.cycles,
    }
    for (side, path), (spec, check, residual, _) in zip(paths.items(), results):
        report[side] = {
            "csv": str(path),
            "thd": spec.thd,
            "fundamental_rms": float(spec.magnitudes[0]),
            "settling_residual": residual,
            "ieee519_passed": check.passed,
        }
    (spec_a, check_a, *_), (spec_b, check_b, *_) = results
    report["thd_delta"] = spec_b.thd - spec_a.thd
    report["ieee519_flip"] = (not check_a.passed) and check_b.passed
    out = _output_base(args.output_prefix, args.filtered)
    _json_dump(report, out + ".report.json")
    Path(out + ".overlay.svg").write_text(
        svg.spectrum_overlay_svg(
            spec_a, spec_b, title=f"{args.channel}: baseline vs filtered"
        )
    )
    for path, (_, _, residual, _) in zip(paths.values(), results):
        _note_unsettled(args.channel, path, residual)
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
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
