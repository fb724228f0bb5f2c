"""Tests of the benchmark's own code: span arithmetic, the seeded sweep
inputs, reduced-size smoke runs of each workload, and the refusal to run
without the program.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402

import harmflow as hf  # noqa: E402
from harmflow.design import QualityFactorWarning  # noqa: E402


def _tree() -> list[Span]:
    # root [0, 10]: cli child [1, 4] with a simulator grandchild [2, 3],
    # and an analyzer child [5, 9].
    return [
        Span(0, "bench.op", None, 0.0, 10.0),
        Span(1, "cli.cmd_simulate", 0, 1.0, 4.0),
        Span(2, "simulator.run", 1, 2.0, 3.0),
        Span(3, "analyzer.spectrum", 0, 5.0, 9.0),
    ]


def test_self_times_on_hand_built_tree():
    own = tracing.self_times(_tree())
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert tracing.layer_self_times(_tree()) == {
        "bench": 3.0, "cli": 2.0, "simulator": 1.0, "analyzer": 4.0,
    }


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(0, "bench.op", None, 0.0, 10.0),
        Span(1, "network.scan", 0, 1.0, 6.0),
        Span(2, "network.scan", 0, 4.0, 8.0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)


def test_layer_self_times_sum_to_root_durations():
    spans = _tree() + [Span(4, "bench.op", None, 20.0, 21.5)]
    assert sum(tracing.layer_self_times(spans).values()) == pytest.approx(11.5)


def test_totals_sum_durations_calls_and_counters():
    spans = _tree()
    spans[2].counts = {"steps": 7}
    seconds, calls, counts = tracing.totals(spans)
    assert seconds["simulator.run"] == 1.0
    assert calls["analyzer.spectrum"] == 1
    assert counts == {"simulator.run.steps": 7}


def test_attached_sampler_time_leaves_layer_times():
    recorder = tracing.SpanRecorder()
    recorder.spans = _tree()
    # One sample inside simulator.run, one outside every span.
    recorder.attach("pace.sample", [(2.25, 2.5), (11.0, 12.0)])
    spans = recorder.spans
    assert len(spans) == 5 and spans[4].parent == 2
    seconds, calls, _ = tracing.totals(spans)
    assert seconds["simulator.run"] == 0.75
    assert seconds["cli.cmd_simulate"] == 2.75
    assert seconds["bench.op"] == 9.75
    assert "pace.sample" not in calls
    own = tracing.layer_self_times(spans)
    assert own["pace"] == 0.25 and own["simulator"] == 0.75


def test_recorder_wraps_and_restores_entry_points():
    original = hf.run
    recorder = tracing.SpanRecorder()
    with tracing.Patches() as patches:
        tracing.install_tracing(recorder, patches)
        assert hf.run is not original
        from harmflow import cli

        assert cli.run is hf.run
    assert hf.run is original
    from harmflow import cli

    assert cli.run is original


def test_same_seed_gives_same_sweep_inputs():
    a = workloads.CandidateStream(11).take(12)
    b = workloads.CandidateStream(11).take(12)
    assert a == b
    assert a != workloads.CandidateStream(12).take(12)


def test_sweep_inputs_are_valid_by_construction():
    for c in workloads.CandidateStream(3).take(200):
        spp = 1.0 / (c.dt_s * workloads.F1)
        assert abs(spp - c.samples_per_period) < 1e-9 * spp
        assert c.cycles >= workloads.MIN_CYCLES
        assert all(20.0 <= q <= 100.0 for q in c.st_q)
        basis = hf.SystemBasis(workloads.F1, workloads.VRMS, c.source_inductance_h)
        with warnings.catch_warnings():
            warnings.simplefilter("error", QualityFactorWarning)
            hf.design_bank_six_pulse(
                basis, c.c_per_branch_f, c.st_q, c.hp_corner_hz, c.hp_q
            )


def test_resonance_oracle_matches_network_module():
    bank = hf.design_bank_six_pulse(hf.SystemBasis(), 10e-6, 40.0, 800.0, 2.0)
    for f in (120.0, 251.0, 700.0):
        assert workloads.bank_abs_impedance(bank, f) == pytest.approx(
            abs(hf.bank_impedance(bank, f)), rel=1e-12
        )


def test_resonance_check_rejects_a_misplaced_resonance():
    bank = hf.design_bank_six_pulse(hf.SystemBasis(), 10e-6, 40.0, 800.0, 2.0)
    curve = hf.scan(bank, 0.0, 50.0, 1000.0, 9501)
    found = hf.find_resonances(curve).series_resonances_hz
    workloads.check_series_resonances(bank, found, 0.1)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_series_resonances(bank, [f + 0.5 for f in found], 0.1)


def _smoke(workload, traced: bool):
    workload.prepare()
    recorder = tracing.SpanRecorder() if traced else None
    iteration = bench.run_iteration(workload.operations(), recorder)
    failures = [(r["op"], r["error"]) for r in iteration["ops"] if not r["ok"]]
    assert failures == []
    return iteration, recorder


def test_settle_smoke_reduced(tmp_path):
    iteration, recorder = _smoke(workloads.Settle(ROOT, 1, tmp_path, duration_s=0.3), True)
    figures = iteration["ops"][0]["figures"]
    assert figures["imbalance"] < workloads.IMBALANCE_BOUND
    own = tracing.layer_self_times(recorder.spans)
    assert sum(own.values()) == pytest.approx(iteration["wall_s"], rel=1e-3)
    assert own["simulator"] > 0.5 * iteration["wall_s"]


def test_sweep_smoke_reduced(tmp_path):
    sweep = workloads.Sweep(ROOT, 5, tmp_path, candidates_per_iteration=2, scan_points=9501)
    iteration, recorder = _smoke(sweep, True)
    assert len(iteration["ops"]) == 2
    untraced = dict(iteration, traced=False)
    for it in (iteration, untraced):
        it["pace"] = 1.0
    metrics = bench.per_layer_metrics(recorder.spans, [iteration, untraced])
    assert metrics["design.banks"] == 2
    assert metrics["network.points"] == 4 * 9501
    assert metrics["analyzer.spectra"] >= 2
    assert metrics["trace.overhead_s"] == 0.0
    for row in iteration["ops"]:
        assert math.isfinite(row["figures"]["thd"])


def test_reproduce_smoke(tmp_path):
    # The headline checks hold only for the bundled 0.5 s scenarios, so this
    # smoke run is one full-size iteration rather than a shortened one.
    iteration, _ = _smoke(workloads.Reproduce(ROOT, 1, tmp_path), False)
    assert [r["op"] for r in iteration["ops"]] == [
        "design", "scan", "simulate-baseline", "simulate-filtered",
        "analyze-baseline", "analyze-filtered", "report",
    ]
    figures = iteration["figures"]
    assert figures["baseline.thd"] > 0.2 > 0.05 > figures["filtered.thd"]
    assert figures["filtered.imbalance"] < workloads.IMBALANCE_BOUND


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "settle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_pace_normalization_subtracts_sampler_time():
    import pace

    sampler = pace.PaceSampler()
    # Two samples inside the operation, each 0.01 s of handler time.
    sampler.samples = [(1.0, 1.01, 0.008), (2.0, 2.01, 0.012)]
    iteration = {"ops": [{"start": 0.5, "end": 3.5}]}
    bench.apply_pace(iteration, sampler)
    assert iteration["raw_wall_s"] == pytest.approx(2.98)
    assert iteration["pace"] == pytest.approx(0.010 / pace.REFERENCE_S)
    assert iteration["wall_s"] == pytest.approx(2.98 / iteration["pace"])
    # With no sample inside, the nearest one gives the pace.
    assert sampler.pace(2.5, 2.6) == pytest.approx(0.012 / pace.REFERENCE_S)
