"""Batch command-line surface tying design, scans, simulation, and analysis
into reproducible file-based runs.

Commands: ``design`` (closed-form bank synthesis to JSON), ``simulate``
(scenario JSON to waveform CSV, twin, metadata), ``analyze`` (waveform CSV to
spectrum CSV/SVG and a summary JSON), ``scan`` (impedance sweep to CSV plus
a resonance JSON), and ``report`` (side-by-side comparison of two runs).

``analyze`` and ``report`` share one analysis path: every input is read and
validated before any file is analysed, an analysis error names its CSV, and
an unsettled window gets a note on stderr once the outputs are written.
The options that define an analysis are :func:`_analysis_options`.
``analyze`` records them in its summary with the digests of the CSV it
analysed, of the spectrum CSV it wrote and of the summary figures
``report`` reads (:data:`_FIGURES`), and the code that did it; ``report``
takes a side from those outputs instead of analysing its CSV again when
they match (see :func:`_reused`).  Both read a CSV's columns from the
twin ``simulate`` bound to it, if there is one (see :func:`_twin`).

Exit codes: 0 on success, 2 for input or validation errors, 3 for numerical
solver failures.  The commands form every message; :func:`main` only maps
the exception to its exit code.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import svg
from .analyzer import (
    DEFAULT_MAX_ORDER,
    SETTLING_RESIDUAL_LIMIT,
    AnalysisError,
    HarmonicSpectrum,
    ieee519_check,
    last_cycles_window,
    power_report,
    settling_residual,
    spectrum,
)
from .design import SIX_PULSE_ORDERS, SystemBasis, bank_from_dict, bank_to_dict, design_bank
from .network import find_resonances, scan
from .scenario_io import load_json, load_scenario, read_waveform_csv, waveform_siblings
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


def _sha256(data: bytes) -> str:
    import hashlib  # about 3.5 ms to import, so only where a digest is taken

    return hashlib.sha256(data).hexdigest()


@functools.cache
def _code_identity() -> dict:
    """harmflow's version and a digest of its module files, by name: the
    version alone does not change when the code does."""
    from . import __version__

    files = sorted(Path(__file__).parent.glob("*.py"))
    modules = json.dumps({p.name: _sha256(p.read_bytes()) for p in files})
    return {"harmflow_version": __version__, "harmflow_sha256": _sha256(modules.encode())}


def _analysis_options(args: argparse.Namespace) -> dict:
    """The options that define an analysis, as a summary and a report
    record them; ``report`` reuses a summary only if they match."""
    return {
        "channel": args.channel, "fundamental_hz": args.f1,
        "max_order": args.max_order, "cycles": args.cycles,
    }


# The summary figures that report reads (see _reused), in digest order.
_FIGURES = ("sample_rate_hz", "settling_residual", "rms", "dc")


def _source(csv_sha256: str, table: bytes, summary: dict) -> dict:
    """What ``analyze`` records of an analysis for ``report`` to take it
    (see :func:`_reused`): the digests of the CSV, ``csv_sha256``, of the
    spectrum CSV's ``table`` and of the ``summary``'s :data:`_FIGURES`,
    and the code."""
    figures = [summary.get(k) for k in _FIGURES]
    return {
        "csv_sha256": csv_sha256,
        "spectrum_sha256": _sha256(table),
        "figures_sha256": _sha256(json.dumps(figures).encode()),
        **_code_identity(),
    }


def _twin_source(csv_sha256: str, npy_sha256: str) -> dict:
    """What ``simulate`` records to bind a waveform CSV to its twin: the
    digests of both and the code (see :func:`_twin`)."""
    return {"csv_sha256": csv_sha256, "npy_sha256": npy_sha256, **_code_identity()}


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
    p.add_argument("--f1", type=float, default=SystemBasis.fundamental_hz, help="fundamental [Hz]")
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

    report = sub.add_parser(
        "report",
        help="compare a baseline and a filtered run",
        description=(
            "Compare a baseline and a filtered run.  Each CSV is taken from "
            "analyze's outputs at its default prefix (the CSV path without its "
            "extension) when they record its bytes, the same --channel, --f1, "
            "--max-order and --cycles and this harmflow, and the spectrum CSV "
            "is unedited; else it is read and analysed, to the same outputs."
        ),
    )
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
        p.add_argument(
            "--f1", type=float, default=SystemBasis.fundamental_hz, help="fundamental [Hz]"
        )
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
    base = waveform_siblings(args.output)
    # The CSV, its twin, then the metadata, so that an interrupted run
    # leaves a source that does not match (see _twin).
    source = _twin_source(waves.to_csv(args.output), waves.to_npy(base + ".npy"))
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
            "source": source,
        },
        base + ".meta.json",
    )
    return 0


def _window_analysis(
    args: argparse.Namespace, columns: list, rate: float, t_start: float
) -> tuple:
    """(spectrum, IEEE-519 check, settling residual or None for one cycle,
    power report against the second column or None) of the last
    ``args.cycles`` periods of ``columns``, which must start at least 2
    periods after t = 0."""
    window = last_cycles_window(len(columns[0]), rate, args.f1, args.cycles, t_start)
    i, *v = (column[window.start : window.stop] for column in columns)
    spec = spectrum(i, rate, args.f1, args.max_order)
    return (
        spec,
        ieee519_check(spec),
        settling_residual(i, rate, args.f1) if args.cycles >= 2 else None,
        power_report(v[0], i, rate, args.f1) if v else None,
    )


def _twin(path, csv_sha256: str) -> bytes | None:
    """The bytes of the twin of the waveform CSV ``path``, whose digest is
    ``csv_sha256``, if ``simulate``'s metadata beside it binds the two (see
    :func:`_twin_source`); else None, as for a sibling file that is
    missing, unreadable or malformed."""
    base = waveform_siblings(path)
    try:
        source = json.loads(Path(base + ".meta.json").read_bytes()).get("source")
        twin = Path(base + ".npy").read_bytes()
    except (OSError, ValueError, AttributeError):
        return None
    return twin if source == _twin_source(csv_sha256, _sha256(twin)) else None


def _reused(args: argparse.Namespace, path, csv_sha256: str) -> tuple | None:
    """(sample rate, the :func:`_window_analysis` of ``args.channel``
    without power) of the waveform CSV ``path`` of digest ``csv_sha256``,
    taken from ``analyze``'s outputs at its default prefix; None unless
    its summary records that digest, the analysis options of ``args``, its
    own figures and this harmflow, and its spectrum CSV is the one it
    wrote (see :func:`_source`).  The spectrum is rebuilt from that CSV,
    whose values are written with ``repr`` and so read back exactly; its
    order-0 row holds |dc|, so dc and the RMS come from the summary.  A
    sibling file that is missing, unreadable or malformed gives None."""
    base = _output_base(None, path)
    try:
        summary = json.loads(Path(base + ".summary.json").read_bytes())
        table = Path(base + ".spectrum.csv").read_bytes()
    except (OSError, ValueError):
        return None
    options = _analysis_options(args).items()
    if not isinstance(summary, dict) or any(summary.get(k) != v for k, v in options):
        return None
    if summary.get("source") != _source(csv_sha256, table, summary):
        return None

    def finite(value) -> bool:
        return type(value) is float and math.isfinite(value)

    rate, residual, rms, dc = (summary.get(k) for k in _FIGURES)
    if not (finite(rate) and rate > 0.0):
        return None
    if not (residual is None if args.cycles < 2 else finite(residual)):
        return None
    try:
        rows = [line.split(",") for line in table.decode("ascii").splitlines()[2:]]
        spec = HarmonicSpectrum(
            fundamental_hz=args.f1,
            magnitudes=[float(row[2]) for row in rows],
            phases_rad=[float(row[3]) for row in rows],
            rms_total=rms,
            dc=dc,
        )
        return rate, (spec, ieee519_check(spec), residual, None)
    except (ValueError, TypeError, IndexError):
        return None


def _analyse_files(
    args: argparse.Namespace, paths: list, channels: list[str], reuse: bool = False
) -> list[tuple]:
    """Read and validate every input first: each waveform CSV's
    ``channels`` columns, then the match of their sample rates.  Then
    analyse each file (see :func:`_window_analysis`).  With ``reuse``, a
    file that ``analyze`` has analysed alike is not read but taken from
    its outputs (see :func:`_reused`), else read, from its twin if bound
    (see :func:`_twin`); a file with an earlier one's bytes takes its
    analysis.  An :class:`AnalysisError` of a file's analysis is raised
    again naming its path.  Returns per file (analysis, rate, CSV digest)."""
    digests, inputs = [], {}
    for path in paths:
        raw = Path(path).read_bytes()
        digest = _sha256(raw)
        digests.append(digest)
        if digest in inputs:
            continue
        reused = _reused(args, path, digest) if reuse else None
        if reused is None:
            columns, rate, t_start = read_waveform_csv(path, channels, raw, _twin(path, digest))
            analyse = functools.partial(_window_analysis, args, columns, rate, t_start)
        else:
            rate, analysis = reused
            analyse = functools.partial(tuple, analysis)  # returns analysis itself
        inputs[digest] = path, rate, analyse
    rates = [rate for _, rate, _ in inputs.values()]
    if max(rates) - min(rates) > 1e-6 * max(rates):
        a, b = (f"{rate!r} Hz ({path})" for path, rate, _ in list(inputs.values())[:2])
        raise AnalysisError(f"sample rates differ: {a} vs {b}")
    done = {}
    for digest, (path, rate, analyse) in inputs.items():
        try:
            done[digest] = analyse(), rate, digest
        except AnalysisError as exc:
            raise AnalysisError(f"{path}: {exc}") from None
    return [done[digest] for digest in digests]


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
    [((spec, check, residual, pf), rate, digest)] = _analyse_files(args, [args.waveform], channels)
    summary = {
        **_analysis_options(args),
        "sample_rate_hz": rate,
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
    # What report needs to take this analysis in place of its own.
    summary["source"] = _source(digest, Path(out + ".spectrum.csv").read_bytes(), summary)
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
    files = _analyse_files(args, list(paths.values()), [args.channel], reuse=True)
    results = [analysis for analysis, _, _ in files]
    report = _analysis_options(args)
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
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
