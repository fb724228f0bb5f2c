#!/usr/bin/env python3
"""Run one harmflow benchmark workload and print its metrics.

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 36 --trace 0

Runs from the root of a source checkout (``src/harmflow`` and
``scenarios/`` beside this directory).  The workload runs in this process
on one thread, with BLAS pinned to one thread.  ``--trace 0`` prints the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` records spans around
harmflow's public entry points and prints its per-layer metrics.  The last
line of standard output is one JSON object; results, and with ``--trace 1``
the spans, are written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 5
LAYERS = ("cli", "scenario_io", "design", "network", "simulator", "analyzer", "svg", "bench")


def import_harmflow():
    """Import harmflow from this checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import harmflow

    if Path(harmflow.__file__).resolve().parent != SRC / "harmflow":
        raise SystemExit(f"error: imported harmflow from {harmflow.__file__}, not {SRC}")
    return harmflow


def make_workload(name: str, seed: int, workdir: Path):
    import workloads

    return workloads.WORKLOADS[name](ROOT, seed, workdir)


def run_operation(op, recorder=None) -> dict:
    """Time ``op.run`` (as a ``bench`` span when tracing), then check it."""
    from workloads import CheckFailed

    error = None
    output = None
    start = time.perf_counter()
    span = recorder.begin(f"bench.{op.name}", start) if recorder else None
    try:
        output = op.run()
    except Exception:
        error = traceback.format_exc(limit=3)
    end = time.perf_counter()
    figures = {}
    if recorder:
        recorder.end(span, end)
        recorder.recording = False
    try:
        if error is None:
            figures = op.check(output)
    except CheckFailed as exc:
        error = f"check failed: {exc}"
    except Exception:
        error = traceback.format_exc(limit=3)
    finally:
        if recorder:
            recorder.recording = True
    return {
        "op": op.name,
        "start": start,
        "end": end,
        "seconds": end - start,
        "ok": error is None,
        "error": error,
        "figures": figures,
    }


def run_iteration(ops, recorder=None) -> dict:
    import tracing

    rows = []
    if recorder is None:
        for op in ops:
            rows.append(run_operation(op))
    else:
        with tracing.Patches() as patches:
            tracing.install_tracing(recorder, patches)
            for op in ops:
                rows.append(run_operation(op, recorder))
    figures = {}
    if len({r["op"] for r in rows}) == len(rows):
        for row in rows:
            figures.update(row["figures"])
    return {
        "wall_s": sum(r["seconds"] for r in rows),
        "traced": recorder is not None,
        "figures": figures,
        "ops": rows,
    }


def apply_pace(iteration: dict, sampler) -> None:
    """Remove the pace sampler's own time from each operation and divide the
    iteration's wall time by the machine's pace over it."""
    rows = iteration["ops"]
    for row in rows:
        row["seconds"] = row["end"] - row["start"] - sampler.stolen(row["start"], row["end"])
    raw = sum(row["seconds"] for row in rows)
    iteration["raw_wall_s"] = raw
    iteration["pace"] = sampler.pace(rows[0]["start"], rows[-1]["end"])
    iteration["wall_s"] = raw / iteration["pace"]


def measure_setup(workload: str, seed: int) -> list[dict]:
    """Fresh-process set-up times: spawn, import harmflow and prepare the
    workload's inputs, up to the point the first ``run`` would start.  Each
    probe also measures the machine's pace right after it reports ready."""
    probes = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            rest = proc.stdout.read().split()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if code != 0 or line.strip() != "ready" or len(rest) != 1:
            raise SystemExit(f"error: set-up probe exited {code}")
        probes.append({"raw_s": elapsed, "pace": float(rest[0])})
    return probes


def tail(values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    med = statistics.median(values)
    if n < 11:
        return f"median {med:.4f} s, n={n} (no percentile has ten samples beyond it)"
    pct = 100.0 * (n - 10) / n
    return f"median {med:.4f} s, p{pct:.0f} {sorted(values)[n - 11]:.4f} s, n={n}"


def iteration_layers(spans, pace: float) -> dict[str, float]:
    """One traced iteration's per-layer figures; times divided by its pace."""
    import tracing

    seconds, calls, counts = tracing.totals(spans)
    own = tracing.layer_self_times(spans)

    def t(*names: str) -> float:
        return sum(seconds.get(n, 0.0) for n in names) / pace

    m = {
        "simulator.run_s": t("simulator.run"),
        "simulator.steps": counts.get("simulator.run.steps", 0),
        "simulator.flagged_steps": counts.get("simulator.run.flagged_steps", 0),
        "simulator.write_csv_s": t("simulator.WaveformSet.to_csv"),
        "simulator.csv_mb": counts.get("simulator.WaveformSet.to_csv.bytes", 0) / 1e6,
        "simulator.energy_audit_s": t("simulator.energy_audit"),
        "cli.simulate_s": t("cli.cmd_simulate"),
        "cli.analyze_s": t("cli.cmd_analyze"),
        "cli.report_s": t("cli.cmd_report"),
        "scenario_io.load_s": t("scenario_io.load_scenario"),
        "scenario_io.scenarios": calls.get("scenario_io.load_scenario", 0),
        "design.bank_s": t("design.design_bank"),
        "design.banks": calls.get("design.design_bank", 0),
        "network.scan_s": t("network.scan"),
        "network.resonances_s": t("network.find_resonances"),
        "network.points": counts.get("network.scan.points", 0),
        "analyzer.spectrum_s": t("analyzer.spectrum"),
        "analyzer.power_report_s": t("analyzer.power_report"),
        "analyzer.spectra": calls.get("analyzer.spectrum", 0),
        "svg.render_s": t("svg.spectrum_bar_svg", "svg.spectrum_overlay_svg"),
        "trace.spans": sum(1 for s in spans if s.layer != "pace"),
        "trace.sampler_s": own.get("pace", 0.0) / pace,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = own.get(layer, 0.0) / pace
    return m


def per_layer_metrics(spans, iterations: list[dict]) -> dict[str, float]:
    """Means per traced iteration, plus rates and the tracing overhead."""
    traced = [it for it in iterations if it["traced"]]
    untraced = [it for it in iterations if not it["traced"]]
    per_iteration = []
    for it in traced:
        lo, hi = it["ops"][0]["start"], it["ops"][-1]["end"]
        mine = [s for s in spans if lo <= s.start and s.end <= hi]
        per_iteration.append(iteration_layers(mine, it["pace"]))
    m = {key: statistics.fmean(d[key] for d in per_iteration) for key in per_iteration[0]}

    def ratio(a: float, b: float) -> float:
        return a / b if b > 0 else 0.0

    m["simulator.steps_per_s"] = ratio(m["simulator.steps"], m["simulator.run_s"])
    m["simulator.flagged_ratio"] = ratio(m["simulator.flagged_steps"], m["simulator.steps"])
    m["network.points_per_s"] = ratio(m["network.points"], m["network.scan_s"])
    m["trace.wall_s"] = statistics.fmean(it["wall_s"] for it in traced)
    m["trace.untraced_wall_s"] = statistics.fmean(it["wall_s"] for it in untraced)
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    return m


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((SRC / "harmflow").glob("*.py"))
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("reproduce", "settle", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # Before numpy is first imported, here or in a set-up probe.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    if args.setup_probe:
        import_harmflow()
        make_workload(args.workload, args.seed, HERE / ".work" / "probe").prepare()
        print("ready", flush=True)
        from pace import Kernel

        kernel = Kernel()
        kernel()
        print(kernel.pace())
        return 0

    if not (SRC / "harmflow" / "__init__.py").is_file():
        print(f"error: {SRC / 'harmflow'} not found; run from a harmflow checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    import_harmflow()
    import tracing
    from pace import PaceSampler

    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    recorder = tracing.SpanRecorder() if args.trace else None
    sampler = PaceSampler()
    iterations: list[dict] = []
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        workload.prepare()
        # A traced run runs each iteration's operations twice, traced and
        # untraced in alternating order, so the difference is the tracing
        # overhead on identical work.  No pass starts that would, at the
        # median pass time so far, end after --seconds.
        with sampler:
            start = time.perf_counter()
            durations = []
            while True:
                begun = time.perf_counter()
                ops = workload.operations()
                if args.trace:
                    first = len(durations) % 2 == 0
                    for traced in (first, not first):
                        iterations.append(run_iteration(ops, recorder if traced else None))
                else:
                    iterations.append(run_iteration(ops))
                now = time.perf_counter()
                durations.append(now - begun)
                if now - start + statistics.median(durations) > args.seconds:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for it in iterations:
        apply_pace(it, sampler)

    rows = [row for it in iterations for row in it["ops"]]
    attempted = len(rows)
    failed = sum(not r["ok"] for r in rows)
    for r in rows:
        if not r["ok"]:
            print(f"FAILED {r['op']}: {r['error'].strip()}", file=sys.stderr)

    name = f"{args.workload}-seed{args.seed}-{'traced' if args.trace else 'untraced'}"
    RESULTS.mkdir(exist_ok=True)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"iterations {len(iterations)}  operations {attempted}")
    walls = [it["wall_s"] for it in iterations]
    print(f"iteration time, pace-normalized: {tail(walls)}")
    print(f"  as measured: {tail([it['raw_wall_s'] for it in iterations])}; pace "
          + ", ".join(f"{it['pace']:.3f}" for it in iterations))
    if args.trace:
        recorder.attach("pace.sample", [(s, e) for s, e, _ in sampler.samples])
        recorder.dump(RESULTS / f"{name}.spans.json")
        metrics = per_layer_metrics(recorder.spans, iterations)
        print("self time per traced iteration by layer, pace-normalized:")
        for layer in LAYERS:
            value = metrics[f"{layer}.self_s"]
            print(f"  {layer:<12} {value:10.4f} s  {100 * value / metrics['trace.wall_s']:5.1f}%")
        total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        print(f"  {'total':<12} {total:10.4f} s  = traced wall_s "
              f"{metrics['trace.wall_s']:.4f} s (pace sampler's "
              f"{metrics['trace.sampler_s']:.4f} s excluded)")
        print(f"tracing overhead: traced {metrics['trace.wall_s']:.4f} s - untraced "
              f"{metrics['trace.untraced_wall_s']:.4f} s = {metrics['trace.overhead_s']:+.4f} s "
              f"per iteration ({sum(it['traced'] for it in iterations)} traced, "
              f"{sum(not it['traced'] for it in iterations)} untraced iterations)")
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            # One probe's pace window is short and noisy, so the median
            # set-up time is divided by the mean pace over all probes.
            "setup_s": statistics.median(p["raw_s"] for p in setup)
            / statistics.fmean(p["pace"] for p in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(f"setup_s: {len(setup)} fresh-process set-ups as measured "
              + ", ".join(f"{p['raw_s']:.3f}" for p in setup) + " s; pace "
              + ", ".join(f"{p['pace']:.3f}" for p in setup))
        by_op: dict[str, list[float]] = {}
        for r in rows:
            by_op.setdefault(r["op"], []).append(r["seconds"])
        for op, values in by_op.items():
            print(f"  op {op} as measured: {tail(values)}")
    print(f"failed_frac: {failed}/{attempted} = {failed / attempted:.4g}")
    for m in reported:
        print(f"{m['name']:<26} {metrics[m['name']]:.6g} {m['unit']}")

    with open(RESULTS / f"{name}.json", "w") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "environment": environment(),
                "setup": setup,
                "metrics": metrics,
                "attempted": attempted,
                "failed": failed,
                "failed_frac": failed / attempted,
                "iterations": iterations,
            },
            fh,
            indent=1,
        )
        fh.write("\n")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in reported
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
