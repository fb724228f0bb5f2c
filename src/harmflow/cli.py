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
import itertools
import json
import re
import sys
import time
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

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
from .scenario_io import decode_utf8, load_json, load_scenario
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


def _read_waveform_csv(path, channels) -> tuple[list[np.ndarray], float, float]:
    """Return (the ``channels`` columns, sample rate, first ``t_s``) of a
    waveform CSV.  The columns come in the order of ``channels``, each
    finite throughout; ``t_s`` must be finite and evenly spaced.

    Each channel is checked against the header before the body is read.  A
    body of plain numbers only (see :func:`_plain_numbers`) is converted
    for ``t_s`` and ``channels`` alone; any other is parsed in full, so
    that each field is checked."""
    raw = Path(path).read_bytes()
    body = raw.find(b"\n") + 1 or len(raw)
    header = decode_utf8(raw[:body], path, AnalysisError)
    # A header ends at the first line break, as text-mode reading splits.
    names = header.split("\r", 1)[0].strip().split(",")
    if names[0] != "t_s":
        raise AnalysisError(f"{path}: expected a waveform CSV with a t_s column")
    repeated = [name for i, name in enumerate(names) if name in names[:i]]
    if repeated:
        raise AnalysisError(f"{path}: the header names column {repeated[0]!r} twice")
    for channel in channels:
        if channel not in names[1:]:
            available = ", ".join(names[1:])
            raise AnalysisError(
                f"unknown channel {channel!r} in {path}; available: {available}"
            )
    wanted = [names.index(channel) for channel in channels]
    # A CR ends the header for np.loadtxt, so its body would start there.
    plain = "\r" not in header and _plain_numbers(raw, body, len(names))
    if not plain:
        decode_utf8(raw, path, AnalysisError)  # names the line of a bad byte
    del raw  # np.loadtxt reads the file itself.
    usecols = sorted({0, *wanted}) if plain else range(len(names))
    with warnings.catch_warnings():
        # A file without data rows is reported below.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            data = np.loadtxt(
                path, delimiter=",", skiprows=1, ndmin=2,
                usecols=usecols if plain else None, encoding="utf-8",
            )
        except ValueError as exc:
            raise AnalysisError(f"{path}: {_first_bad_line(path, names) or exc}") from None
    if len(data) < 2:
        raise AnalysisError(f"{path}: need at least two data rows")
    if data.shape[1] != len(usecols):
        # Every row has the same count, and it is not the header's.
        raise AnalysisError(f"{path}: {_first_bad_line(path, names)}")
    t = data[:, 0]
    steps = np.diff(t)
    if not (np.isfinite(t).all() and (steps > 0.0).all()):
        raise AnalysisError(f"{path}: t_s must be finite and strictly increasing")
    # The sample rate is that of the mean step, so each step must match it.
    mean_step = (t[-1] - t[0]) / (len(t) - 1)
    uneven = np.abs(steps - mean_step) > 1e-6 * mean_step
    if uneven.any():
        row = int(np.argmax(uneven)) + 1
        raise AnalysisError(
            f"{path}: line {_line_number(path, row)}: t_s step "
            f"{float(steps[row - 1])!r} differs from the mean step "
            f"{float(mean_step)!r} by more than 1e-6 of it"
        )
    columns = [data[:, usecols.index(i)] for i in wanted]
    for channel, column in zip(channels, columns):
        if not np.isfinite(column).all():
            row = int(np.argmin(np.isfinite(column)))
            raise AnalysisError(
                f"{path}: line {_line_number(path, row)}: {channel} value "
                f"{float(column[row])!r} is not finite"
            )
    sample_rate = float((len(t) - 1) / (t[-1] - t[0]))
    return columns, sample_rate, float(t[0])


def _data_lines(path):
    """Line number and text of each data line of a waveform CSV, counting
    the header as line 1 and skipping the blank and comment lines that
    np.loadtxt skips."""
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for number, line in enumerate(fh, start=2):
            line = line.split("#", 1)[0]
            if line.strip():
                yield number, line


def _line_number(path, row: int) -> int:
    """Line number of data row ``row`` (from 0) of a waveform CSV."""
    return next(itertools.islice(_data_lines(path), row, None))[0]


# A field np.loadtxt reads as a float: decimal or exponent notation in
# ASCII digits, inf, infinity or nan.  float() also takes underscores and
# non-ASCII digits.
_NUMBER = re.compile(
    r"[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf(?:inity)?|nan)",
    re.IGNORECASE | re.ASCII,
)


# The class of each byte value in the plain-number check: digit 0, "." 1,
# "e" or "E" 2, sign 3, "," or line feed 4, any other byte 5.
_CLASSES = (
    b"\5" * 10 + b"\4" + b"\5" * 32 + b"\3\4\3\1\5" + b"\0" * 10
    + b"\5" * 11 + b"\2" + b"\5" * 31 + b"\2" + b"\5" * 154
)
# The codes 36·a + 6·b + c of the classes (a, b, c) of three adjacent bytes
# that occur in lines of comma-separated fields of the plain grammar
# [+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?, a subset of _NUMBER's.
_TRIGRAMS = bytes([
    0, 1, 2, 4, 6, 8, 10, 12, 15, 24, 25, 27, 36, 38, 40, 48, 51, 60, 61, 63,
    72, 76, 90, 108, 109, 110, 112, 114, 144, 145, 146, 148, 150, 162, 163,
])
_LOWER_E = bytes.maketrans(b"E", b"e")
# The body is checked in pieces of about this many bytes, cut at line ends.
_PIECE = 1 << 18


def _plain_numbers(raw: bytes, start: int, n_fields: int) -> bool:
    """True if every line of ``raw`` from offset ``start`` (just past a
    line end) holds ``n_fields`` (at least 2) comma-separated fields of
    the plain grammar above and ends in a line feed: no blank line, space,
    CR, comment, inf, nan or non-ASCII byte.  np.loadtxt reads each column
    of such a body the same with or without usecols.

    Each piece of the body passes three tests: every trigram of byte
    classes is one of ``_TRIGRAMS``; no field has two points, two
    exponents, or a point after its exponent; and, with all else deleted,
    each line is n_fields - 1 commas and a line feed.  Together they accept
    exactly the bodies described (the tests check this against the
    grammar)."""
    if not raw.endswith(b"\n"):
        return False
    line = b"," * (n_fields - 1) + b"\n"
    while start < len(raw):
        stop = raw.rfind(b"\n", start, start + _PIECE) + 1 or raw.find(b"\n", start) + 1
        # From the line end before the piece, which starts its first trigram.
        piece = raw[start - 1 : stop]
        start = stop
        classes = np.frombuffer(piece.translate(_CLASSES), np.uint8)
        codes = classes[:-2] * 36
        codes += classes[1:-1] * 6
        codes += classes[2:]
        if codes.tobytes().translate(None, _TRIGRAMS):
            return False
        # Each field's points and exponents, in order: "", ".", "e" or ".e".
        marks = piece.translate(_LOWER_E, b"0123456789+-")
        if b".." in marks or b"e." in marks or b"ee" in marks:
            return False
        separators = marks.translate(None, b".e")
        if separators != b"\n" + line * ((len(separators) - 1) // len(line)):
            return False
    return True


def _first_bad_line(path, names: list[str]) -> str | None:
    """Describe the first line of a waveform CSV whose field count differs
    from the header's or which holds a field that is not a number; None if
    there is no such line."""
    for number, line in _data_lines(path):
        fields = line.split(",")
        if len(fields) != len(names):
            return f"line {number} has {len(fields)} fields, expected {len(names)}"
        for name, value in zip(names, fields):
            if not _NUMBER.fullmatch(value.strip()):
                return f"line {number}: {name} value {value.strip()!r} is not a number"
    return None


def _analyse_files(args: argparse.Namespace, paths: list, channels: list[str]) -> list[tuple]:
    """Read and validate every input first: each waveform CSV's
    ``channels`` columns, then the match of their sample rates.  Then
    analyse the last ``args.cycles`` periods of each file's first column,
    which must start at least 2 periods after t = 0: (spectrum, IEEE-519
    check, settling residual or None for one cycle, power report against
    the second column or None)."""
    inputs = [_read_waveform_csv(path, channels) for path in paths]
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
