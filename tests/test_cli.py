"""Command-line surface: file outputs, exit codes, and determinism."""

from __future__ import annotations

import copy
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import harmflow as hf
from harmflow import cli, network, presets, scenario_io, simulator
from harmflow.cli import _json_dump, main
from harmflow.scenario_io import (
    ScenarioError,
    _first_bad_line,
    load_scenario,
    read_waveform_csv,
    scenario_from_dict,
    scenario_to_dict,
)
from harmflow.simulator import CHANNEL_IDS


def _save_scenario(scenario: hf.Scenario, path) -> None:
    path.write_text(json.dumps(scenario_to_dict(scenario)))


@pytest.fixture(scope="module")
def short_scenario_path(tmp_path_factory):
    """A fast scenario (0.2 s, coarse step) for CLI round trips."""
    path = tmp_path_factory.mktemp("cli") / "short.json"
    solver = hf.SolverConfig(dt_s=5e-5, duration_s=0.2)
    _save_scenario(presets.filtered_scenario(solver), path)
    return path


@pytest.fixture(scope="module")
def short_waveform(tmp_path_factory, short_scenario_path):
    out = tmp_path_factory.mktemp("cli_wave") / "run.csv"
    assert main(["simulate", str(short_scenario_path), "-o", str(out)]) == 0
    return out


# --- design -------------------------------------------------------------------


def test_design_to_stdout(capsys):
    rc = main(
        [
            "design",
            "--c", "11.09e-6",
            "--st-q", "50",
            "--hp-corner", "858.37",
            "--hp-q", "2.97",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    doc = json.loads(captured.out)
    assert doc["fundamental_hz"] == 50.0
    kinds = [b["kind"] for b in doc["branches"]]
    assert kinds == ["single_tuned"] * 4 + ["high_pass"]
    assert [b["order"] for b in doc["branches"][:4]] == [5.0, 7.0, 11.0, 13.0]


def test_design_custom_orders_and_q_list(tmp_path):
    out = tmp_path / "bank.json"
    rc = main(
        [
            "design",
            "--c", "1e-5",
            "--orders", "5,7",
            "--st-q", "40,60",
            "--hp-corner", "600",
            "--hp-q", "2.0",
            "-o", str(out),
        ]
    )
    assert rc == 0
    bank = hf.design.bank_from_dict(json.loads(out.read_text()))
    assert [b.quality_factor for b in bank.single_tuned] == [
        pytest.approx(40.0, rel=1e-12),
        pytest.approx(60.0, rel=1e-12),
    ]


def test_design_out_of_range_quality_warns_but_succeeds(tmp_path, recwarn):
    out = tmp_path / "bank.json"
    rc = main(
        [
            "design",
            "--c", "11.09e-6",
            "--st-q", "106.24,107.77,108.36,105.08",
            "--hp-corner", "858.37",
            "--hp-q", "2.9704",
            "-o", str(out),
        ]
    )
    assert rc == 0
    assert out.exists()
    warned = [w for w in recwarn if "quality factor" in str(w.message)]
    assert warned


def test_design_missing_required_flag_names_it(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["design", "--c", "1e-5", "--hp-corner", "600", "--hp-q", "2"])
    assert exc.value.code == 2
    assert "--st-q" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--st-q", "50,abc"), ("--orders", "5,x")])
def test_design_unparsable_list_names_flag(capsys, flag, value):
    argv = ["design", "--c", "1e-5", "--st-q", "50", "--hp-corner", "600", "--hp-q", "2"]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected a comma list of numbers, got {value!r}" in err


def test_design_invalid_values_exit_2(capsys):
    rc = main(
        ["design", "--c=-1e-5", "--st-q", "50", "--hp-corner", "600", "--hp-q", "2"]
    )
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_design_empty_orders_exit_2(capsys):
    argv = ["design", "--c", "11.09e-6", "--orders", "", "--st-q", "50"]
    assert main(argv + ["--hp-corner", "858", "--hp-q", "3"]) == 2
    assert capsys.readouterr().err == "error: at least one tuned order is required\n"


@pytest.mark.parametrize("flag", ["--hp-corner", "--f1"])
def test_design_underflowing_frequency_exit_2(tmp_path, capsys, flag):
    # (2*pi*f)^2 * C underflows to zero, so L = 1/(w^2 C) is no double.
    out = tmp_path / "bank.json"
    argv = ["design", "--c", "1e-5", "--st-q", "50", "--hp-corner", "700", "--hp-q", "2"]
    rc = main(argv + [flag, "1e-300", "-o", str(out)])
    assert rc == 2
    assert "inductance 1/(w^2 C)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--c", "--st-q", "--hp-corner", "--hp-q"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_design_non_finite_value_exit_2(tmp_path, capsys, flag, value):
    # An infinite --hp-q once gave r_ohms = Infinity in the bank file.
    out = tmp_path / "bank.json"
    flags = {"--c": "1e-5", "--st-q": "50", "--hp-corner": "600", "--hp-q": "2", flag: value}
    rc = main(["design", *itertools.chain(*flags.items()), "-o", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be positive and finite" in err
    assert not out.exists()


def test_design_output_reloads(tmp_path):
    out = tmp_path / "bank.json"
    main(
        [
            "design",
            "--c", "11.09e-6",
            "--st-q", "50",
            "--hp-corner", "858.37",
            "--hp-q", "2.97",
            "-o", str(out),
        ]
    )
    scenario_doc = scenario_to_dict(presets.baseline_scenario())
    scenario_doc["bank"] = json.loads(out.read_text())
    scenario = scenario_from_dict(scenario_doc)
    assert scenario.bank is not None
    assert len(scenario.bank.branches) == 5


# --- simulate -----------------------------------------------------------------


def test_simulate_outputs_csv_and_metadata(short_waveform, short_scenario_path):
    header = short_waveform.read_text().splitlines()[0].split(",")
    assert header == ["t_s", *CHANNEL_IDS]
    meta = json.loads(short_waveform.with_suffix("").with_suffix(".meta.json").read_text())
    assert meta["dt_s"] == 5e-5
    assert meta["duration_s"] == 0.2
    assert meta["n_samples"] == 4000
    assert meta["flagged_steps"] == []
    assert meta["diode_states"] >= 1
    assert meta["switch_iterations"] >= meta["n_samples"] - 1
    # A step that changes the state word retries at least once.
    assert 1 <= meta["switch_events"] <= meta["switch_iterations"] - (meta["n_samples"] - 1)
    assert meta["channels"] == list(CHANNEL_IDS)
    assert 0 < meta["block_steps"] <= meta["n_samples"] - 1
    assert meta["wall_time_s"] > 0.0
    # Recorded whole.
    assert meta["record_cycles"] is None
    assert meta["first_step"] == 0 and meta["t_start_s"] == 0.0


def test_bundled_walkthrough_records_last_cycles(tmp_path, capsys):
    # The README walkthrough: the bundled files record the last 5 of 25
    # periods, and analyze and report note that the filtered run has not
    # settled but exit 0.
    notes, residual = {}, {}
    for case in ("baseline", "filtered"):
        csv = tmp_path / f"{case}.csv"
        assert main(["simulate", str(presets.SCENARIOS / f"{case}.json"), "-o", str(csv)]) == 0
        meta = json.loads(csv.with_suffix(".meta.json").read_text())
        assert meta["record_cycles"] == 5
        assert meta["n_samples"] == 10_000
        assert meta["first_step"] == 40_000
        assert meta["t_start_s"] == 0.4
        # Counters of the whole run: 49,999 steps, most in look-ahead blocks.
        assert meta["block_steps"] == {"baseline": 48_906, "filtered": 48_990}[case]
        assert float(csv.read_text().splitlines()[1].split(",")[0]) == meta["t_start_s"]
        capsys.readouterr()
        argv = ["analyze", str(csv), "--channel", "i_src_a", "--v-channel", "v_src_a"]
        assert main(argv + ["-o", str(tmp_path / case)]) == 0
        notes[case] = capsys.readouterr().err
        summary = json.loads((tmp_path / f"{case}.summary.json").read_text())
        residual[case] = summary["settling_residual"]
    assert notes["baseline"] == ""
    assert notes["filtered"].startswith("note: i_src_a has not settled: it changes by 7.2e-03 ")
    assert notes["filtered"].count("\n") == 1
    assert residual["baseline"] < 1e-10
    assert residual["filtered"] == pytest.approx(7.2e-3, rel=0.01)
    argv = ["report", str(tmp_path / "baseline.csv"), str(tmp_path / "filtered.csv")]
    assert main(argv + ["-o", str(tmp_path / "comparison")]) == 0
    note = capsys.readouterr().err
    assert note.startswith("note: i_src_a has not settled: it changes by 7.2e-03 ")
    assert note.count("\n") == 1
    assert str(tmp_path / "filtered.csv") in note and "baseline.csv" not in note
    report = json.loads((tmp_path / "comparison.report.json").read_text())
    assert round(100 * report["baseline"]["thd"], 2) == 20.41
    assert round(100 * report["filtered"]["thd"], 2) == 4.12
    # report carries the residual analyze writes, side by side.
    for case in ("baseline", "filtered"):
        assert report[case]["settling_residual"] == residual[case]
    assert f"{report['baseline']['settling_residual']:.1e}" == "1.0e-13"
    assert f"{report['filtered']['settling_residual']:.2e}" == "7.24e-03"


def test_simulate_filter_channels_nonzero(short_waveform):
    data = np.loadtxt(short_waveform, delimiter=",", skiprows=1)
    idx = 1 + CHANNEL_IDS.index("i_filter_a")
    assert np.max(np.abs(data[:, idx])) > 0.1


def test_simulate_malformed_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "basis": {,}\n}\n')
    rc = main(["simulate", str(bad), "-o", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "line 2" in err
    assert "column" in err


@pytest.mark.parametrize("command", ["simulate", "scan"])
def test_malformed_json_names_the_file(tmp_path, capsys, command):
    # A scenario and a bank file are read alike: the message starts with
    # the path, then gives the line and column.
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "basis": {,}\n}\n')
    argv = [command, str(bad), "-o", str(tmp_path / "out.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: malformed JSON at line 2, column 13: "
        "Expecting property name enclosed in double quotes\n"
    )
    assert list(tmp_path.iterdir()) == [bad]


def test_simulate_unknown_key_exit_2(tmp_path, capsys):
    doc = scenario_to_dict(presets.baseline_scenario())
    doc["solver"]["typo_knob"] = 1.0
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    rc = main(["simulate", str(path), "-o", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "typo_knob" in capsys.readouterr().err


def test_simulate_missing_file_exit_2(tmp_path, capsys):
    rc = main(["simulate", str(tmp_path / "nope.json"), "-o", str(tmp_path / "x.csv")])
    assert rc == 2


def test_simulate_iteration_cap_key_exit_2(tmp_path, capsys):
    # The iteration cap and the diode resistances are solver constants, no
    # longer scenario fields.
    for key, value in (
        ("max_switch_iterations", 10), ("diode_on_ohm", 1e-3), ("diode_off_ohm", 1e6)
    ):
        rc, err, wrote = _simulate_with(tmp_path, capsys, "solver", key, value)
        assert rc == 2
        assert err == f"error: unknown key '{key}' in solver\n"
        assert not wrote


def test_runs_without_scipy(tmp_path, short_scenario_path):
    """The package needs numpy alone: with scipy unimportable, ``simulate``
    runs a short scenario and the energy audit of the run balances."""
    code = textwrap.dedent(f"""
        import sys
        sys.modules["scipy"] = None
        import harmflow as hf
        from harmflow import cli
        from harmflow.scenario_io import load_scenario

        path = {str(short_scenario_path)!r}
        assert cli.main(["simulate", path, "-o", {str(tmp_path / "run.csv")!r}]) == 0
        scenario = load_scenario(path)
        waves = hf.run(scenario)
        window = hf.steady_state_window(waves, scenario.basis, 5)
        assert hf.energy_audit(waves, scenario, window).relative_imbalance < 1e-3
        assert not [name for name in sys.modules if name.startswith("scipy.")]
    """)
    src = str(Path(hf.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_simulate_solver_failure_exit_3(tmp_path, capsys, monkeypatch):
    # With every diode blocking and no off-state conductance, nothing holds
    # the DC bus's common-mode voltage: the matrix is exactly singular.
    monkeypatch.setattr(simulator, "DIODE_OFF_OHM", math.inf)
    doc = scenario_to_dict(
        presets.baseline_scenario(hf.SolverConfig(dt_s=1e-4, duration_s=0.2))
    )
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc))
    rc = main(["simulate", str(path), "-o", str(tmp_path / "x.csv")])
    assert rc == 3
    assert "singular" in capsys.readouterr().err


def _section_of(doc, section):
    """The JSON object at a field path such as ``basis`` or ``bank.branches[3]``."""
    for part in section.split("."):
        name, _, index = part.partition("[")
        doc = doc[name]
        if index:
            doc = doc[int(index[:-1])]
    return doc


def _simulate_with(tmp_path, capsys, section, key, value):
    """Run ``simulate`` on a short bundled scenario (filtered when the field
    is in the bank) with one field replaced; return the exit code, stderr
    and whether a CSV was written."""
    solver = hf.SolverConfig(dt_s=1e-4, duration_s=0.2)
    make = presets.filtered_scenario if section.startswith("bank") else presets.baseline_scenario
    doc = scenario_to_dict(make(solver))
    _section_of(doc, section)[key] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "x.csv"
    rc = main(["simulate", str(path), "-o", str(out)])
    return rc, capsys.readouterr().err, out.exists()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("basis", "source_vrms", math.nan),
        ("basis", "source_inductance_h", math.nan),
        ("solver", "duration_s", math.inf),
        ("bank.branches[0]", "order", math.nan),
        ("bank.branches[3]", "order", math.inf),  # the last tuned branch
    ],
)
def test_simulate_non_finite_input_exit_2(tmp_path, capsys, section, key, value):
    rc, err, wrote = _simulate_with(tmp_path, capsys, section, key, value)
    assert rc == 2
    assert section in err and key in err and "finite" in err
    assert not wrote


@pytest.mark.parametrize(
    "section, key",
    [
        ("basis", "fundamental_hz"),
        ("solver", "dt_s"),
        ("bank", "fundamental_hz"),
        ("bank.branches[2]", "l_henries"),
    ],
)
def test_simulate_integer_too_large_for_double_exit_2(tmp_path, capsys, section, key):
    # JSON integers are exact, so 10**400 parses but overflows a double.
    rc, err, wrote = _simulate_with(tmp_path, capsys, section, key, 10**400)
    assert rc == 2
    assert f"{section}.{key} must be finite" in err
    assert not wrote


_BANK_R = str(presets.filtered_scenario().bank.branches[1].resistance_ohm)


@pytest.mark.parametrize("value", [_BANK_R, "abc", True], ids=["numeric_string", "string", "true"])
def test_simulate_non_number_exit_2(tmp_path, capsys, value):
    rc, err, wrote = _simulate_with(tmp_path, capsys, "bank.branches[1]", "r_ohms", value)
    assert rc == 2
    assert f"bank.branches[1].r_ohms must be a number, got {value!r}" in err
    assert not wrote


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("bank", "branches", 5, "bank.branches must be a JSON array"),
        ("bank", "branches", {}, "bank.branches must be a JSON array"),
        ("bank", "branches", "x", "bank.branches must be a JSON array"),
        ("bank.branches", 0, 5, "bank.branches[0] must be a JSON object"),
        ("bank.branches", 0, [], "bank.branches[0] must be a JSON object"),
        ("bank", "branches", [], "error: bank: branches must hold at least one branch"),
    ],
)
def test_simulate_malformed_branches_exit_2(tmp_path, capsys, section, key, value, message):
    rc, err, wrote = _simulate_with(tmp_path, capsys, section, key, value)
    assert rc == 2
    assert message in err
    assert not wrote


@pytest.mark.parametrize("command", ["simulate", "scan"])
def test_integer_literal_too_long_names_file(tmp_path, capsys, command):
    if command == "simulate":
        doc = scenario_to_dict(presets.baseline_scenario())
        doc["basis"]["source_vrms"] = 123.25
    else:
        doc = hf.design.bank_to_dict(presets.filtered_scenario().bank)
        doc["branches"][1]["r_ohms"] = 123.25
    path = tmp_path / "in.json"
    # json.dumps refuses such an integer, so a placeholder is replaced.
    path.write_text(json.dumps(doc).replace("123.25", "1" * 5001))
    rc = main([command, str(path), "-o", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {path}: integer literal too long: 5001 digits"), err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "value, message",
    [
        (0, "must be a positive integer, got 0"),
        (-1, "must be a positive integer, got -1"),
        (2.5, "must be a positive integer, got 2.5"),
        (math.nan, "must be a positive integer, got nan"),
        (math.inf, "must be a positive integer, got inf"),
        # 0.2 s at dt 1e-4 holds 10 whole periods.
        (11, "must be at most the 10 whole periods the run holds, got 11"),
    ],
)
def test_simulate_invalid_record_cycles_exit_2(tmp_path, capsys, value, message):
    rc, err, wrote = _simulate_with(tmp_path, capsys, "solver", "record_cycles", value)
    assert rc == 2
    assert f"solver.record_cycles {message}" in err
    assert not wrote


def test_simulate_record_cycles_off_grid_exit_2(tmp_path, capsys):
    doc = scenario_to_dict(presets.baseline_scenario())
    doc["solver"]["dt_s"] = 1.5e-5  # 1333.3 samples per period
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "x.csv"
    assert main(["simulate", str(path), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: solver.record_cycles: 1333.3")
    assert "samples per fundamental period is not an integer" in err
    assert not out.exists()


def test_simulate_non_finite_before_record_exit_3(tmp_path, capsys):
    doc = scenario_to_dict(
        presets.baseline_scenario(hf.SolverConfig(dt_s=1e-4, duration_s=0.2, record_cycles=1))
    )
    doc["basis"]["source_vrms"] = 1e308
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["simulate", str(path), "-o", str(out)])
    assert rc == 3
    assert "non-finite solution at or before step 1800" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_overflowing_sample_count_exit_2(tmp_path, capsys):
    doc = scenario_to_dict(presets.baseline_scenario())
    doc["solver"]["duration_s"] = 1e300
    doc["solver"]["dt_s"] = 1e-300
    path = tmp_path / "endless.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "x.csv"
    rc = main(["simulate", str(path), "-o", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "duration_s" in err and "dt_s" in err
    assert not out.exists()


def test_simulate_overflowing_output_exit_3(tmp_path, capsys):
    doc = scenario_to_dict(
        presets.baseline_scenario(hf.SolverConfig(dt_s=1e-4, duration_s=0.2))
    )
    doc["basis"]["source_vrms"] = 1e308
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["simulate", str(path), "-o", str(out)])
    assert rc == 3
    assert "non-finite solution at step" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_determinism(tmp_path, short_scenario_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["simulate", str(short_scenario_path), "-o", str(out1)]) == 0
    assert main(["simulate", str(short_scenario_path), "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# --- analyze ------------------------------------------------------------------


def test_analyze_summary(tmp_path, short_waveform):
    prefix = tmp_path / "out"
    rc = main(
        [
            "analyze", str(short_waveform),
            "--channel", "i_src_a",
            "--v-channel", "v_src_a",
            "--cycles", "3",
            "-o", str(prefix),
        ]
    )
    assert rc == 0
    summary = json.loads((tmp_path / "out.summary.json").read_text())
    assert summary["channel"] == "i_src_a"
    assert 0.0 < summary["thd"] < 1.0
    assert summary["ieee519"]["limit"] == 0.05
    assert summary["ieee519"]["passed"] == (summary["thd"] < 0.05)
    assert 0.0 < summary["power"]["displacement_power_factor"] <= 1.0
    spectrum_csv = (tmp_path / "out.spectrum.csv").read_text().splitlines()
    assert spectrum_csv[0] == "order,frequency_hz,magnitude_rms,phase_rad"
    svg_text = (tmp_path / "out.spectrum.svg").read_text()
    assert svg_text.startswith("<svg")
    assert "</svg>" in svg_text


def test_analyze_matches_library_path(tmp_path, short_waveform, short_scenario_path):
    prefix = tmp_path / "direct"
    assert main(
        [
            "analyze", str(short_waveform),
            "--channel", "i_src_a",
            "--cycles", "3",
            "-o", str(prefix),
        ]
    ) == 0
    summary = json.loads((tmp_path / "direct.summary.json").read_text())
    scenario = load_scenario(short_scenario_path)
    waves = hf.run(scenario)
    window = hf.steady_state_window(waves, scenario.basis, 3)
    spec = hf.spectrum(
        waves.channels["i_src_a"][window.start : window.stop],
        waves.sample_rate_hz,
        scenario.basis.fundamental_hz,
        50,
    )
    assert summary["thd"] == pytest.approx(spec.thd, rel=1e-9)


@pytest.mark.parametrize("t_start_s, rc", [(0.02, 2), (0.04, 0)])
def test_analyze_window_must_start_two_periods_in(tmp_path, short_waveform, capsys, t_start_s, rc):
    # Five periods cut from the run: the window is the whole file, so its
    # first t_s decides whether it is past the start-up transient.
    header, *rows = short_waveform.read_text().splitlines()
    first = next(i for i, row in enumerate(rows) if float(row.split(",")[0]) >= t_start_s)
    cut = tmp_path / "cut.csv"
    cut.write_text("\n".join([header, *rows[first : first + 5 * 400]]) + "\n")
    argv = ["analyze", str(cut), "--channel", "i_src_a", "-o", str(tmp_path / "cut")]
    assert main(argv) == rc
    err = capsys.readouterr().err
    if rc:
        message = f"error: {cut}: the last 5 periods start 1 periods after t = 0; "
        assert err.startswith(message)
        assert list(tmp_path.iterdir()) == [cut]
    else:
        assert (tmp_path / "cut.summary.json").exists()


def test_analyze_unknown_channel_lists_available(tmp_path, short_waveform, capsys):
    rc = main(
        ["analyze", str(short_waveform), "--channel", "i_src_x", "-o", str(tmp_path / "x")]
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert "i_src_x" in err
    assert "i_src_a" in err and "v_dc" in err


@pytest.mark.parametrize(
    "flag, message", [("--cycles", "n_cycles must be >= 1"), ("--max-order", "max_order must be >= 1")]
)
def test_analyze_rejects_zero_window_flags(tmp_path, short_waveform, capsys, flag, message):
    argv = ["analyze", str(short_waveform), "--channel", "i_src_a", flag, "0"]
    assert main(argv + ["-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {short_waveform}: {message}, got 0\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["analyze", "report"])
def test_one_period_csv_names_the_file(tmp_path, short_waveform, capsys, command):
    # The header and the run's first period (400 samples at dt 50 µs), and
    # no twin: too short for the window.
    lines = short_waveform.read_text().splitlines(keepends=True)
    cut = tmp_path / "one-period.csv"
    cut.write_text("".join(lines[: 1 + 400]))
    if command == "analyze":
        argv = ["analyze", str(cut), "--channel", "i_src_a"]
    else:
        argv = ["report", str(short_waveform), str(cut)]
    assert main(argv + ["-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {cut}: waveform spans 1 periods; the last 5 do not fit\n"
    assert list(tmp_path.iterdir()) == [cut]


def test_unknown_channel_is_reported_before_the_body_and_the_rates(
    tmp_path, short_waveform, capsys
):
    # Each file's channels are checked as soon as its header is read: this
    # copy's short row and its halved sample rate are not reached.
    header, *rows = short_waveform.read_text().splitlines()
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([header.replace("i_src_a", "i_src_x"), "1,2", *rows[::2]]) + "\n")
    available = ", ".join(CHANNEL_IDS).replace("i_src_a", "i_src_x")
    message = f"error: unknown channel 'i_src_a' in {bad}; available: {available}\n"
    for argv in (["analyze", str(bad)], ["report", str(short_waveform), str(bad)]):
        assert main(argv + ["--channel", "i_src_a", "-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == message


def _assert_csv_round_trip(waves: hf.WaveformSet, path) -> None:
    waves.to_csv(path)
    columns, sample_rate, t_start = read_waveform_csv(path, CHANNEL_IDS)
    times = np.loadtxt(path, delimiter=",", skiprows=1, usecols=0)
    assert np.array_equal(times, waves.time())
    for channel, column in zip(CHANNEL_IDS, columns, strict=True):
        assert np.array_equal(column, waves.channels[channel]), channel
    assert sample_rate == pytest.approx(waves.sample_rate_hz, rel=1e-9)
    assert t_start == times[0]


def test_waveform_csv_round_trip_is_bit_exact(tmp_path):
    solver = hf.SolverConfig(dt_s=1e-4, duration_s=0.2)
    _assert_csv_round_trip(hf.run(presets.filtered_scenario(solver)), tmp_path / "run.csv")
    # Doubles across the whole exponent range, subnormals and signed zeros.
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2**64, size=(len(CHANNEL_IDS), 400), dtype=np.uint64)
    values = bits.view(np.float64)
    values[~np.isfinite(values)] = 0.0
    values[:, :4] = [-0.0, 5e-324, -1.7976931348623157e308, 0.1]
    synthetic = hf.WaveformSet(
        sample_rate_hz=3.0, channels=dict(zip(CHANNEL_IDS, values))
    )
    _assert_csv_round_trip(synthetic, tmp_path / "synthetic.csv")


# --- scan ---------------------------------------------------------------------


def test_scan_outputs(tmp_path, ref_bank):
    bank_path = tmp_path / "bank.json"
    bank_path.write_text(json.dumps(hf.design.bank_to_dict(ref_bank)))
    prefix = tmp_path / "sweep"
    rc = main(
        [
            "scan", str(bank_path),
            "--f-start", "50", "--f-end", "1000", "--points", "951",
            "--ls", "0.0016",
            "-o", str(prefix),
        ]
    )
    assert rc == 0
    resonances = json.loads((tmp_path / "sweep.resonances.json").read_text())
    series = resonances["series_resonances_hz"]
    for target in (250.0, 350.0, 550.0, 650.0):
        assert any(abs(f - target) <= 1.0 for f in series)
    assert any(f < 250.0 for f in resonances["parallel_resonances_hz"])
    csv_lines = (tmp_path / "sweep.impedance.csv").read_text().splitlines()
    assert csv_lines[0] == "frequency_hz,re_ohms,im_ohms,abs_ohms"
    assert len(csv_lines) == 952


def test_scan_single_high_pass_flattens(tmp_path):
    hp = hf.design_high_pass(presets.filtered_scenario().basis, 858.37, 11.09e-6, 2.9704)
    bank = hf.FilterBank(fundamental_hz=50.0, branches=(hp,))
    bank_path = tmp_path / "hp.json"
    bank_path.write_text(json.dumps(hf.design.bank_to_dict(bank)))
    rc = main(
        ["scan", str(bank_path), "--f-start", "50", "--f-end", "20000",
         "--points", "400", "-o", str(tmp_path / "hp")]
    )
    assert rc == 0
    rows = (tmp_path / "hp.impedance.csv").read_text().strip().splitlines()[1:]
    top = rows[-1].split(",")
    assert float(top[3]) == pytest.approx(49.66, rel=0.01)


def test_scan_inverted_range_exit_2(tmp_path, ref_bank, capsys):
    bank_path = tmp_path / "bank.json"
    bank_path.write_text(json.dumps(hf.design.bank_to_dict(ref_bank)))
    rc = main(
        ["scan", str(bank_path), "--f-start", "1000", "--f-end", "50",
         "-o", str(tmp_path / "x")]
    )
    assert rc == 2
    assert "f_start" in capsys.readouterr().err


def _mistuned(bank_doc):
    """The bank document with its first branch (L and C resonant at the
    5th harmonic) labelled order 6."""
    doc = copy.deepcopy(bank_doc)
    doc["branches"][0]["order"] = 6
    return doc


_MISTUNED = "bank: branches[0].order 6 lies more than half a harmonic from harmonic 5"


def test_simulate_tuned_order_off_its_resonance_exit_2(tmp_path, capsys):
    doc = scenario_to_dict(presets.filtered_scenario())
    doc["bank"] = _mistuned(doc["bank"])
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    rc = main(["simulate", str(path), "-o", str(tmp_path / "x.csv")])
    assert rc == 2
    assert _MISTUNED in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def test_scan_tuned_order_off_its_resonance_exit_2(tmp_path, ref_bank, capsys):
    bank_path = tmp_path / "bank.json"
    bank_path.write_text(json.dumps(_mistuned(hf.design.bank_to_dict(ref_bank))))
    rc = main(["scan", str(bank_path), "-o", str(tmp_path / "x")])
    assert rc == 2
    assert _MISTUNED in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [bank_path]


def test_scan_non_number_exit_2(tmp_path, ref_bank, capsys):
    doc = hf.design.bank_to_dict(ref_bank)
    doc["branches"][1]["r_ohms"] = "abc"
    bank_path = tmp_path / "bank.json"
    bank_path.write_text(json.dumps(doc))
    rc = main(["scan", str(bank_path), "-o", str(tmp_path / "x")])
    assert rc == 2
    assert "bank.branches[1].r_ohms must be a number, got 'abc'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [bank_path]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("key", ["c_farads", "l_henries", "r_ohms"])
@pytest.mark.parametrize("index", [0, 4], ids=["single_tuned", "high_pass"])
def test_bad_branch_value_exit_2(tmp_path, capsys, index, key, value):
    section = f"bank.branches[{index}]"
    rc, err, wrote = _simulate_with(tmp_path, capsys, section, key, value)
    assert rc == 2 and f"{section}.{key} must be positive and finite" in err, err
    assert not wrote
    doc = hf.design.bank_to_dict(presets.filtered_scenario().bank)
    doc["branches"][index][key] = value
    bank_path = tmp_path / "bank.json"
    bank_path.write_text(json.dumps(doc))
    rc = main(["scan", str(bank_path), "-o", str(tmp_path / "bank")])
    err = capsys.readouterr().err
    assert rc == 2 and f"{section}.{key} must be positive and finite" in err, err
    assert not list(tmp_path.glob("bank.*.*"))


@pytest.mark.parametrize(
    "index, key, value",
    [
        (0, "order", 1),
        (0, "c_farads", -1.0),
        (0, "l_henries", -1.0),
        (0, "r_ohms", -1.0),
        (4, "c_farads", -1.0),
        (4, "l_henries", -1.0),
        (4, "r_ohms", -1.0),
    ],
)
def test_bad_branch_value_names_json_key(tmp_path, capsys, index, key, value):
    rule = "must be >= 2 and finite" if key == "order" else "must be positive and finite"
    message = f"bank.branches[{index}].{key} {rule}, got {float(value)!r}"
    doc = hf.design.bank_to_dict(presets.filtered_scenario().bank)
    doc["branches"][index][key] = value
    with pytest.raises(hf.design.DesignError) as info:
        hf.design.bank_from_dict(doc)
    assert str(info.value) == message
    rc, err, wrote = _simulate_with(tmp_path, capsys, f"bank.branches[{index}]", key, value)
    assert (rc, err, wrote) == (2, f"error: {message}\n", False)


@pytest.mark.parametrize("command", ["scan", "simulate"])
def test_bank_file_with_stored_quality_exit_2(tmp_path, capsys, command):
    # Bank files once stored q (and a high-pass corner_hz) beside R, L and C.
    doc = hf.design.bank_to_dict(presets.filtered_scenario().bank)
    doc["branches"][0]["q"] = presets.filtered_scenario().bank.branches[0].quality_factor
    if command == "scan":
        path = tmp_path / "bank.json"
    else:
        doc = {**scenario_to_dict(presets.filtered_scenario()), "bank": doc}
        path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    rc = main([command, str(path), "-o", str(tmp_path / "out.csv")])
    assert rc == 2
    assert capsys.readouterr().err == "error: unknown key 'q' in bank.branches[0]\n"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "branches, message",
    [
        (5, "bank.branches must be a JSON array"),
        ([5], "bank.branches[0] must be a JSON object"),
        ([], "error: bank: branches must hold at least one branch"),
    ],
)
def test_scan_malformed_branches_exit_2(tmp_path, capsys, branches, message):
    bank_path = tmp_path / "bank.json"
    bank_path.write_text(json.dumps({"fundamental_hz": 50.0, "branches": branches}))
    rc = main(["scan", str(bank_path), "-o", str(tmp_path / "x")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [bank_path]


@pytest.mark.parametrize(
    "flag, value, quantity",
    [
        ("--ls", "nan", "source_inductance_h"),
        ("--ls", "inf", "source_inductance_h"),
        ("--f-end", "inf", "f_end"),
        # Finite flags whose impedance overflows a double.
        ("--ls", "1e-320", "impedance at 50.0 Hz is not finite"),
        ("--f-end", "1e308", "Hz is not finite"),
    ],
)
def test_scan_non_finite_flag_exit_2(
    tmp_path, ref_bank, capsys, monkeypatch, flag, value, quantity
):
    monkeypatch.setattr(network, "_last_scan", None)
    bank_path = tmp_path / "bank.json"
    bank_path.write_text(json.dumps(hf.design.bank_to_dict(ref_bank)))
    rc = main(["scan", str(bank_path), flag, value, "-o", str(tmp_path / "x")])
    assert rc == 2
    assert quantity in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [bank_path]
    # A scan that fails keeps no admittance sum.
    assert network._last_scan is None


def test_scan_magnitude_overflow_exit_2(tmp_path, ref_bank, capsys, monkeypatch):
    # A finite impedance whose |Z| overflows is not written as inf: the
    # scan rejects it as not finite and writes nothing.
    def overflowing(bank, w, source_inductance_h=0.0, y=None):
        z = np.full(w.shape, 1.5e308 + 1.5e308j)
        return z, np.ones(w.shape, dtype=complex)

    monkeypatch.setattr(network, "_bank_z", overflowing)
    bank_path = tmp_path / "bank.json"
    bank_path.write_text(json.dumps(hf.design.bank_to_dict(ref_bank)))
    rc = main(["scan", str(bank_path), "--ls", "0.0016", "-o", str(tmp_path / "x")])
    assert rc == 2
    assert "error: impedance at 50.0 Hz is not finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [bank_path]


def test_scan_points_above_cap_exit_2(tmp_path, ref_bank, capsys, monkeypatch):
    # Rejected before the grid is allocated.
    def no_grid(*args, **kwargs):
        raise AssertionError("scan allocated a grid")

    monkeypatch.setattr(network.np, "linspace", no_grid)
    bank_path = tmp_path / "bank.json"
    bank_path.write_text(json.dumps(hf.design.bank_to_dict(ref_bank)))
    points = str(network.MAX_SCAN_POINTS + 1)
    rc = main(["scan", str(bank_path), "--points", points, "-o", str(tmp_path / "x")])
    assert rc == 2
    assert "n_points" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [bank_path]


# --- report -------------------------------------------------------------------


def test_report_identical_inputs_zero_delta(tmp_path, monkeypatch, short_waveform):
    # A copy without its twin: its text is parsed, once for both sides.
    csv = tmp_path / "run.csv"
    csv.write_bytes(short_waveform.read_bytes())
    parses = _parses(monkeypatch)
    prefix = tmp_path / "same"
    rc = main(
        [
            "report", str(csv), str(csv),
            "--cycles", "3",
            "-o", str(prefix),
        ]
    )
    assert rc == 0
    assert len(parses) == 1
    doc = json.loads((tmp_path / "same.report.json").read_text())
    assert doc["thd_delta"] == 0.0
    assert doc["baseline"]["settling_residual"] == doc["filtered"]["settling_residual"] >= 0.0
    assert doc["ieee519_flip"] is False
    assert (tmp_path / "same.overlay.svg").read_text().startswith("<svg")


def test_one_cycle_window_has_no_settling_residual(tmp_path, short_waveform):
    window = ["--cycles", "1", "-o", str(tmp_path / "one")]
    assert main(["analyze", str(short_waveform), "--channel", "i_src_a", *window]) == 0
    assert main(["report", str(short_waveform), str(short_waveform), *window]) == 0
    summary = json.loads((tmp_path / "one.summary.json").read_text())
    report = json.loads((tmp_path / "one.report.json").read_text())
    assert summary["settling_residual"] is None
    assert report["baseline"]["settling_residual"] is None
    assert report["filtered"]["settling_residual"] is None


def test_report_mismatched_sample_rates_exit_2(tmp_path, short_waveform, capsys):
    other_scenario = presets.baseline_scenario(hf.SolverConfig(dt_s=1e-4, duration_s=0.2))
    other_path = tmp_path / "coarse.json"
    _save_scenario(other_scenario, other_path)
    coarse_csv = tmp_path / "coarse.csv"
    assert main(["simulate", str(other_path), "-o", str(coarse_csv)]) == 0
    rc = main(
        ["report", str(short_waveform), str(coarse_csv), "-o", str(tmp_path / "x")]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "sample rates differ" in err
    assert "np.float64" not in err


def test_sample_rate_mismatch_names_both_files(tmp_path, capsys):
    paths = []
    for name, rate in (("coarse", 10_000.0), ("fine", 20_000.0)):
        t = np.arange(int(rate * 0.2)) / rate
        paths.append(tmp_path / f"{name}.csv")
        np.savetxt(paths[-1], np.column_stack([t, np.sin(2 * np.pi * 50.0 * t)]),
                   fmt="%.17g", delimiter=",", header="t_s,i_src_a", comments="")
    coarse, fine = paths
    assert main(["report", str(coarse), str(fine), "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: sample rates differ: 10000.0 Hz ({coarse}) vs 20000.0 Hz ({fine})\n"
    )


# --- report: reuse of analyze's outputs ----------------------------------------


@pytest.fixture(scope="module")
def short_baseline_waveform(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_baseline") / "short.json"
    _save_scenario(presets.baseline_scenario(hf.SolverConfig(dt_s=5e-5, duration_s=0.2)), path)
    out = path.with_name("run.csv")
    assert main(["simulate", str(path), "-o", str(out)]) == 0
    return out


@pytest.fixture
def analysed_pair(tmp_path, short_baseline_waveform, short_waveform):
    """``baseline.csv`` and ``filtered.csv`` in ``tmp_path``, copies of the
    short runs, each analysed by ``analyze`` to its default prefix."""
    for case, source in (("baseline", short_baseline_waveform), ("filtered", short_waveform)):
        csv = tmp_path / f"{case}.csv"
        csv.write_bytes(source.read_bytes())
        assert main(["analyze", str(csv), "--channel", "i_src_a", "--v-channel", "v_src_a"]) == 0
    return tmp_path


def _report(directory, capsys, *flags) -> tuple:
    """Exit code, outputs and stderr of ``report`` of ``directory``'s
    ``baseline.csv`` and ``filtered.csv``."""
    capsys.readouterr()
    csvs = [str(directory / f"{case}.csv") for case in ("baseline", "filtered")]
    rc = main(["report", *csvs, *flags, "-o", str(directory / "comparison")])
    written = [directory / f"comparison.{suffix}" for suffix in ("report.json", "overlay.svg")]
    outputs = [path.read_bytes() for path in written] if rc == 0 else []
    return rc, outputs, capsys.readouterr().err


def _fresh_report(directory, capsys, *flags) -> tuple:
    """:func:`_report` with every CSV read and analysed."""
    with mock.patch.object(cli, "_reused", return_value=None):
        return _report(directory, capsys, *flags)


def _reads(monkeypatch) -> list[str]:
    """The names of the waveform CSVs that the CLI reads from now on."""
    names = []

    def reader(path, *args):
        names.append(Path(path).name)
        return read_waveform_csv(path, *args)

    monkeypatch.setattr(cli, "read_waveform_csv", reader)
    return names


def test_report_takes_analyze_outputs_without_reading_the_csvs(
    analysed_pair, capsys, monkeypatch
):
    def unread(*args):
        raise AssertionError("a CSV was read")

    with mock.patch.object(cli, "read_waveform_csv", unread):
        reused = _report(analysed_pair, capsys)
    assert reused[0] == 0
    # The notes name the CSVs, as when they are read.
    assert str(analysed_pair / "filtered.csv") in reused[2]
    # Without the summaries beside them, both CSVs are read again.
    aside = analysed_pair / "aside"
    aside.mkdir()
    for summary in analysed_pair.glob("*.summary.json"):
        summary.rename(aside / summary.name)
    reads = _reads(monkeypatch)
    assert _report(analysed_pair, capsys) == reused
    assert reads == ["baseline.csv", "filtered.csv"]


def _edit_csv(directory):
    # One analysed value, in the last row: inside the window.
    path = directory / "filtered.csv"
    header, *rows = path.read_text().splitlines()
    cells = rows[-1].split(",")
    column = 1 + CHANNEL_IDS.index("i_src_a")
    cells[column] = repr(float(cells[column]) + 1.0)
    path.write_text("\n".join([header, *rows[:-1], ",".join(cells)]) + "\n")


def _edit_spectrum(directory):
    # Half the fundamental: a spectrum that still passes its own checks.
    path = directory / "filtered.spectrum.csv"
    header, dc, fundamental, *rows = path.read_text().splitlines()
    order, f, magnitude, phase = fundamental.split(",")
    fundamental = ",".join([order, f, repr(0.5 * float(magnitude)), phase])
    path.write_text("\n".join([header, dc, fundamental, *rows]) + "\n")


def _edit_summary(edit):
    def apply(directory):
        path = directory / "filtered.summary.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))

    return apply


def _rebind_summary(edit):
    """``edit`` of the filtered side's files, then its summary's ``source``
    recomputed, so that the digests match and only what was edited can
    make report read the CSV."""

    def apply(directory):
        edit(directory)
        path = directory / "filtered.summary.json"
        doc = json.loads(path.read_text())
        table = (directory / "filtered.spectrum.csv").read_bytes()
        doc["source"] = cli._source(doc["source"]["csv_sha256"], table, doc)
        path.write_text(json.dumps(doc))

    return apply


def _spectrum_row_of_three(directory):
    # The fundamental's row without its phase.
    path = directory / "filtered.spectrum.csv"
    header, dc, fundamental, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header, dc, fundamental.rsplit(",", 1)[0], *rows]) + "\n")


def _summary_a_directory(directory):
    path = directory / "filtered.summary.json"
    path.unlink()
    path.mkdir()


# Edits of the filtered side's files after analyze, each of which makes
# report read that CSV.
_STALE = {
    "csv_value": _edit_csv,
    "spectrum_csv": _edit_spectrum,
    "spectrum_csv_missing": lambda directory: (directory / "filtered.spectrum.csv").unlink(),
    "malformed_summary": lambda directory: (directory / "filtered.summary.json").write_text("{"),
    "summary_a_directory": _summary_a_directory,
    "summary_without_source": _edit_summary(lambda doc: doc.pop("source")),
    "code_identity": _edit_summary(lambda doc: doc["source"].update(harmflow_sha256="0" * 64)),
    "rate_a_string": _edit_summary(lambda doc: doc.update(sample_rate_hz="20000")),
    "settling_residual": _edit_summary(lambda doc: doc.update(settling_residual=0.5)),
    "rms_doubled": _edit_summary(lambda doc: doc.update(rms=2.0 * doc["rms"])),
    # Edits whose summary still matches its digests: report's own checks of
    # the figures and of the spectrum CSV refuse them.
    "rebound_rate_nan": _rebind_summary(
        _edit_summary(lambda doc: doc.update(sample_rate_hz=math.nan))
    ),
    "rebound_rate_zero": _rebind_summary(
        _edit_summary(lambda doc: doc.update(sample_rate_hz=0.0))
    ),
    "rebound_residual_a_string": _rebind_summary(
        _edit_summary(lambda doc: doc.update(settling_residual=str(doc["settling_residual"])))
    ),
    "rebound_spectrum_row_of_three": _rebind_summary(_spectrum_row_of_three),
}


@pytest.mark.parametrize("case", _STALE)
def test_report_reads_a_csv_whose_analysis_does_not_match(
    analysed_pair, capsys, monkeypatch, case
):
    _STALE[case](analysed_pair)
    expected = _fresh_report(analysed_pair, capsys)
    reads = _reads(monkeypatch)
    assert _report(analysed_pair, capsys) == expected
    assert reads == ["filtered.csv"]
    assert expected[0] == 0


def test_report_takes_a_rebound_summary_that_was_not_edited(analysed_pair, capsys, monkeypatch):
    # The rebinding above refuses nothing by itself.
    expected = _report(analysed_pair, capsys)
    _rebind_summary(lambda directory: None)(analysed_pair)
    reads = _reads(monkeypatch)
    assert _report(analysed_pair, capsys) == expected
    assert reads == []


@pytest.mark.parametrize(
    "flags",
    [["--cycles", "3"], ["--max-order", "20"], ["--f1", "40"], ["--channel", "i_src_b"]],
    ids=lambda flags: flags[0],
)
def test_report_with_other_window_options_reads_both_csvs(
    analysed_pair, capsys, monkeypatch, flags
):
    expected = _fresh_report(analysed_pair, capsys, *flags)
    reads = _reads(monkeypatch)
    assert _report(analysed_pair, capsys, *flags) == expected
    assert reads == ["baseline.csv", "filtered.csv"]
    assert expected[0] == 0


def test_reused_sample_rates_that_differ_exit_2(tmp_path, capsys, short_waveform, monkeypatch):
    coarse = tmp_path / "coarse.json"
    solver = hf.SolverConfig(dt_s=1e-4, duration_s=0.2)
    _save_scenario(presets.baseline_scenario(solver), coarse)
    assert main(["simulate", str(coarse), "-o", str(tmp_path / "baseline.csv")]) == 0
    (tmp_path / "filtered.csv").write_bytes(short_waveform.read_bytes())
    for case in ("baseline", "filtered"):
        assert main(["analyze", str(tmp_path / f"{case}.csv"), "--channel", "i_src_a"]) == 0
    expected = _fresh_report(tmp_path, capsys)
    reads = _reads(monkeypatch)
    assert _report(tmp_path, capsys) == expected
    assert reads == []
    assert expected[0] == 2
    assert expected[2].startswith("error: sample rates differ: 9999.99")


def test_summary_records_the_bytes_analyze_read(tmp_path, capsys, short_waveform, monkeypatch):
    # The CSV is replaced once its bytes are read: the summary names the
    # bytes analysed, and report does not take that analysis for the new
    # file.
    import hashlib

    path = tmp_path / "filtered.csv"
    raw = short_waveform.read_bytes()
    path.write_bytes(raw)
    header, *rows = short_waveform.read_text().splitlines()
    other = [",".join([row.split(",", 1)[0], *["7"] * len(CHANNEL_IDS)]) for row in rows]
    read_bytes = Path.read_bytes

    def read_then_replace(self):
        data = read_bytes(self)
        if self == path:
            self.write_text("\n".join([header, *other]) + "\n")
        return data

    with mock.patch.object(Path, "read_bytes", read_then_replace):
        assert main(["analyze", str(path), "--channel", "i_src_a"]) == 0
    summary = json.loads((tmp_path / "filtered.summary.json").read_text())
    assert summary["source"]["csv_sha256"] == hashlib.sha256(raw).hexdigest()
    assert path.read_text().endswith(",7\n")
    (tmp_path / "baseline.csv").write_bytes(raw)
    expected = _fresh_report(tmp_path, capsys)
    reads = _reads(monkeypatch)
    assert _report(tmp_path, capsys) == expected
    assert reads == ["baseline.csv", "filtered.csv"]


@pytest.mark.parametrize("command", ["analyze", "report"])
def test_failed_write_prints_one_error_and_no_note(tmp_path, short_waveform, capsys, command):
    # The short run has not settled, so a successful run prints a note.
    if command == "analyze":
        argv = ["analyze", str(short_waveform), "--channel", "i_src_a"]
    else:
        argv = ["report", str(short_waveform), str(short_waveform)]
    rc = main(argv + ["-o", str(tmp_path / "missing" / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["analyze", "report"])
def test_zero_fundamental_flag_exit_2(tmp_path, short_waveform, capsys, command):
    if command == "analyze":
        argv = ["analyze", str(short_waveform), "--channel", "i_src_a"]
    else:
        argv = ["report", str(short_waveform), str(short_waveform)]
    rc = main(argv + ["--f1", "0", "-o", str(tmp_path / "out")])
    assert rc == 2
    assert "fundamental_hz must be positive and finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["analyze", "report"])
@pytest.mark.parametrize(
    "defect",
    [
        "ragged", "short_rows", "non_numeric", "underscore", "constant_t", "nan_t",
        "decreasing_t", "header_only", "uneven_t", "repeated_column", "no_t_s",
        "whitespace_line", "spaces_then_comment",
    ],
)
def test_malformed_waveform_csv_names_file(tmp_path, short_waveform, capsys, command, defect):
    header, *lines = short_waveform.read_text().splitlines()
    rows = [line.split(",") for line in lines]
    # The header is line 1, so rows[9] is line 11.
    if defect == "ragged":
        del rows[9][-1]
        message = "line 11 has 17 fields, expected 18"
    elif defect == "short_rows":
        # np.loadtxt reads rows that agree with each other, not the header.
        for cells in rows:
            del cells[-1]
        message = "line 2 has 17 fields, expected 18"
    elif defect == "non_numeric":
        # v_dc is read by neither command below, yet must still be numeric.
        rows[9][1 + CHANNEL_IDS.index("v_dc")] = "abc"
        message = "line 11: v_dc value 'abc' is not a number"
    elif defect == "underscore":
        # float() reads 1_0 as 10; np.loadtxt does not.
        rows[9][1 + CHANNEL_IDS.index("v_dc")] = "1_0"
        message = "line 11: v_dc value '1_0' is not a number"
    elif defect in ("whitespace_line", "spaces_then_comment"):
        # np.loadtxt skips a line only if it is empty once its comment is
        # cut off: these lines are one field each.
        rows.insert(49, [" \t " if defect == "whitespace_line" else "  # comment"])
        message = "line 51 has 1 fields, expected 18"
    elif defect == "header_only":
        rows = []
        message = "need at least two data rows"
    elif defect == "uneven_t":
        # Rows 9 to the last but one shifted by 0.4 of a step: t_s still
        # increases and the mean step is unchanged.
        t = [float(cells[0]) for cells in rows]
        shift = 0.4 * (t[1] - t[0])
        for cells, value in zip(rows[9:-1], t[9:-1]):
            cells[0] = repr(value + shift)
        message = (
            f"line 11: t_s step {t[9] + shift - t[8]!r} differs from the mean "
            f"step {(t[-1] - t[0]) / (len(t) - 1)!r} by more than 1e-6 of it"
        )
    elif defect == "repeated_column":
        # --channel i_src_a would read the first of the two.
        names = header.split(",")
        names[1 + CHANNEL_IDS.index("v_dc")] = "i_src_a"
        header = ",".join(names)
        message = "the header names column 'i_src_a' twice"
    elif defect == "no_t_s":
        header = header.replace("t_s", "time", 1)
        message = "expected a waveform CSV with a t_s column"
    else:
        if defect == "constant_t":
            for cells in rows:
                cells[0] = "0.1"
        elif defect == "nan_t":
            rows[-1][0] = "nan"
        else:
            rows.reverse()
        message = "t_s must be finite and strictly increasing"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([header, *(",".join(cells) for cells in rows)]) + "\n")
    if command == "analyze":
        argv = ["analyze", str(bad), "--channel", "i_src_a"]
    else:
        argv = ["report", str(short_waveform), str(bad)]
    rc = main(argv + ["-o", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize(
    "command, channel",
    [("analyze", "i_src_a"), ("analyze", "v_src_a"), ("report", "i_src_a")],
)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_analysed_channel_names_line(
    tmp_path, short_waveform, capsys, command, channel, value
):
    header, *lines = short_waveform.read_text().splitlines()
    rows = [line.split(",") for line in lines]
    # Line 11 (rows[9]) sits outside the last-cycles window: the whole
    # analysed column must be finite.
    rows[9][1 + CHANNEL_IDS.index(channel)] = value
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([header, *(",".join(cells) for cells in rows)]) + "\n")
    if command == "analyze":
        argv = ["analyze", str(bad), "--channel", "i_src_a", "--v-channel", "v_src_a"]
    else:
        argv = ["report", str(short_waveform), str(bad)]
    rc = main(argv + ["-o", str(tmp_path / "out")])
    assert rc == 2
    message = f"{channel} value {float(value)!r} is not finite"
    assert capsys.readouterr().err == f"error: {bad}: line 11: {message}\n"
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("command", ["analyze", "report", "simulate", "scan"])
def test_undecodable_input_names_file_and_line(
    tmp_path, short_waveform, short_scenario_path, ref_bank, capsys, command
):
    if command in ("analyze", "report"):
        path = tmp_path / "bad.csv"
        header, *rows = short_waveform.read_bytes().split(b"\n")
        if command == "analyze":
            # Line 11, in v_dc, which analyze does not read.
            cells = rows[9].split(b",")
            cells[1 + CHANNEL_IDS.index("v_dc")] += b"\xff"
            rows[9] = b",".join(cells)
            line = 11
        else:
            header += b"\xff"
            line = 1
        path.write_bytes(b"\n".join([header, *rows]))
        if command == "analyze":
            argv = ["analyze", str(path), "--channel", "i_src_a"]
        else:
            argv = ["report", str(short_waveform), str(path)]
    else:
        if command == "simulate":
            raw, key = short_scenario_path.read_bytes(), b'"load"'
        else:
            raw = json.dumps(hf.design.bank_to_dict(ref_bank), indent=2).encode()
            key = b'"branches"'
        line = raw[: raw.index(key)].count(b"\n") + 1
        path = tmp_path / "bad.json"
        path.write_bytes(raw.replace(key, key[:3] + b"\xff" + key[3:], 1))
        argv = [command, str(path)]
    rc = main(argv + ["-o", str(tmp_path / "out")])
    assert rc == 2
    message = "cannot decode byte 0xff as UTF-8: invalid start byte"
    assert capsys.readouterr().err == f"error: {path}: line {line}: {message}\n"
    assert list(tmp_path.iterdir()) == [path]


# --- waveform CSV: the binary twin simulate writes beside it -----------------


@pytest.fixture(scope="module")
def bundled_waveforms(tmp_path_factory):
    """The bundled runs' CSVs, each with its twin and metadata."""
    directory = tmp_path_factory.mktemp("cli_bundled")
    paths = {}
    for case in ("baseline", "filtered"):
        paths[case] = directory / f"{case}.csv"
        scenario = presets.SCENARIOS / f"{case}.json"
        assert main(["simulate", str(scenario), "-o", str(paths[case])]) == 0
    return paths


def _siblings(csv) -> list[Path]:
    """The twin and the metadata ``simulate`` writes beside ``csv``."""
    base = scenario_io.waveform_siblings(csv)
    return [Path(base + ".npy"), Path(base + ".meta.json")]


def _copy_run(csv, directory) -> Path:
    """A copy of the waveform CSV ``csv`` as ``directory``/run.csv, with
    copies of its twin and metadata beside it."""
    copy = directory / "run.csv"
    for source, target in zip([csv, *_siblings(csv)], [copy, *_siblings(copy)], strict=True):
        target.write_bytes(source.read_bytes())
    return copy


def _parses(monkeypatch) -> list:
    """One entry per waveform CSV body whose text is converted from now on:
    every parse is one np.loadtxt call."""
    calls = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    return calls


def _outputs(csv, capsys) -> tuple:
    """Exit codes, outputs and stderr of ``analyze`` of ``csv`` and of
    ``report`` of ``csv`` against itself, to the prefix ``out`` beside it."""
    out = csv.parent / "out"
    for old in csv.parent.glob("out.*"):
        old.unlink()
    capsys.readouterr()
    argv = ["analyze", str(csv), "--channel", "i_src_a", "--v-channel", "v_src_a"]
    codes = [main(argv + ["-o", str(out)]), main(["report", str(csv), str(csv), "-o", str(out)])]
    written = {p.name: p.read_bytes() for p in sorted(csv.parent.glob("out.*"))}
    return codes, written, capsys.readouterr().err


def test_simulate_binds_the_twin_to_the_csv(short_waveform):
    import hashlib

    twin, meta = _siblings(short_waveform)
    source = json.loads(meta.read_text())["source"]
    assert source == {
        "csv_sha256": hashlib.sha256(short_waveform.read_bytes()).hexdigest(),
        "npy_sha256": hashlib.sha256(twin.read_bytes()).hexdigest(),
        **cli._code_identity(),
    }
    table = np.load(twin, allow_pickle=False)
    assert table.shape == (1 + len(CHANNEL_IDS), 4000) and table.flags.c_contiguous
    assert table.tobytes() == np.loadtxt(short_waveform, delimiter=",", skiprows=1).T.tobytes()


@pytest.mark.parametrize("case", ["short", "baseline", "filtered"])
def test_twin_and_text_give_identical_outputs(
    tmp_path, capsys, monkeypatch, short_waveform, bundled_waveforms, case
):
    csv = _copy_run(short_waveform if case == "short" else bundled_waveforms[case], tmp_path)
    parses = _parses(monkeypatch)
    from_twin = _outputs(csv, capsys)
    assert parses == []
    _siblings(csv)[0].rename(tmp_path / "aside.npy")
    assert _outputs(csv, capsys) == from_twin
    assert len(parses) == 2  # analyze's file, and report's once for both sides
    assert from_twin[0] == [0, 0] and len(from_twin[1]) == 5


def test_simulate_names_the_siblings_of_any_csv_path(tmp_path, short_scenario_path, monkeypatch):
    assert scenario_io.waveform_siblings(tmp_path / "run.csv") == str(tmp_path / "run")
    assert scenario_io.waveform_siblings("a.b.csv") == "a.b"
    out = tmp_path / "run.dat"
    assert main(["simulate", str(short_scenario_path), "-o", str(out)]) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["run.dat", "run.dat.meta.json", "run.dat.npy"]
    parses = _parses(monkeypatch)
    assert main(["analyze", str(out), "--channel", "i_src_a", "-o", str(tmp_path / "out")]) == 0
    assert parses == []


def _edit_meta(edit):
    def apply(csv):
        meta = _siblings(csv)[1]
        doc = json.loads(meta.read_text())
        edit(doc)
        meta.write_text(json.dumps(doc))

    return apply


def _bind(csv, twin: bytes) -> None:
    """Make ``twin`` the twin of ``csv`` and bind it in the metadata, as
    ``simulate`` would bind its own."""
    import hashlib

    _siblings(csv)[0].write_bytes(twin)
    digest = hashlib.sha256(twin).hexdigest()
    _edit_meta(lambda doc: doc["source"].update(npy_sha256=digest))(csv)


def _rebound(edit):
    """Replace the twin by np.save's bytes of ``edit`` of its table, bound."""
    def apply(csv):
        saved = io.BytesIO()
        np.save(saved, edit(np.load(_siblings(csv)[0])), allow_pickle=True)
        _bind(csv, saved.getvalue())

    return apply


def _edit_digit(csv):
    # The last digit of i_src_a in the last row: inside the window.
    header, *rows = csv.read_text().splitlines()
    cells = rows[-1].split(",")
    column = 1 + CHANNEL_IDS.index("i_src_a")
    cells[column] = cells[column][:-1] + str((int(cells[column][-1]) + 1) % 10)
    csv.write_text("\n".join([header, *rows[:-1], ",".join(cells)]) + "\n")


def _flip_twin_byte(csv):
    # The high byte of i_src_a's last sample: the last of its row's bytes.
    twin = _siblings(csv)[0]
    data = bytearray(twin.read_bytes())
    row_bytes = 8 * 4000
    start = len(data) - row_bytes * (1 + len(CHANNEL_IDS))
    data[start + row_bytes * (2 + CHANNEL_IDS.index("i_src_a")) - 1] ^= 0x40
    twin.write_bytes(bytes(data))


# Edits of a copy of the short run's files, after each of which analyze and
# report parse its CSV's text.
_UNBOUND = {
    "twin_missing": lambda csv: _siblings(csv)[0].unlink(),
    "meta_missing": lambda csv: _siblings(csv)[1].unlink(),
    "meta_malformed": lambda csv: _siblings(csv)[1].write_text("{"),
    "meta_a_list": lambda csv: _siblings(csv)[1].write_text("[]"),
    "meta_without_source": _edit_meta(lambda doc: doc.pop("source")),
    "csv_digit": _edit_digit,
    "twin_byte": _flip_twin_byte,
    "twin_pickled": _rebound(lambda table: np.array(list(table), dtype=object)),
    "twin_transposed": _rebound(lambda table: np.ascontiguousarray(table.T)),
    "twin_short": _rebound(lambda table: table[:, :-1]),
    "twin_one_row_less": _rebound(lambda table: table[:-1]),
    "twin_float32": _rebound(lambda table: table.astype(np.float32)),
    "twin_big_endian": _rebound(lambda table: table.astype(">f8")),
    "twin_fortran_order": _rebound(np.asfortranarray),
    "twin_not_npy": lambda csv: _bind(csv, b"not an NPY file"),
    "twin_truncated": lambda csv: _bind(csv, _siblings(csv)[0].read_bytes()[:-8]),
    "code_identity": _edit_meta(lambda doc: doc["source"].update(harmflow_sha256="0" * 64)),
}


@pytest.mark.parametrize("case", _UNBOUND)
def test_analysis_parses_a_csv_without_a_bound_twin(
    tmp_path, capsys, monkeypatch, short_waveform, case
):
    csv = _copy_run(short_waveform, tmp_path)
    _UNBOUND[case](csv)
    with mock.patch.object(cli, "_twin", return_value=None):
        expected = _outputs(csv, capsys)
    parses = _parses(monkeypatch)
    assert _outputs(csv, capsys) == expected
    assert len(parses) == 2  # analyze's, and report's once for both sides
    assert expected[0] == [0, 0]


def test_a_twin_saved_by_numpy_and_bound_is_read(tmp_path, capsys, monkeypatch, short_waveform):
    # The edits above are refused for what they change, not for rebinding.
    csv = _copy_run(short_waveform, tmp_path)
    expected = _outputs(csv, capsys)
    _rebound(lambda table: table)(csv)
    parses = _parses(monkeypatch)
    assert _outputs(csv, capsys) == expected
    assert parses == []


def test_twin_is_converted_from_the_bytes_hashed(tmp_path, capsys, monkeypatch, short_waveform):
    # The twin is replaced once analyze has read its bytes: analyze takes
    # the columns of the bytes that matched their digest, and report, which
    # reads the new twin, parses the CSV.
    csv = _copy_run(short_waveform, tmp_path)
    expected = _outputs(csv, capsys)
    twin = _siblings(csv)[0]
    sevens = np.full(4000 * (1 + len(CHANNEL_IDS)), 7.0).tobytes()
    read_bytes = Path.read_bytes

    def read_then_replace(self):
        data = read_bytes(self)
        if self == twin and not data.endswith(sevens):
            self.write_bytes(data[: -len(sevens)] + sevens)
        return data

    parses = _parses(monkeypatch)
    with mock.patch.object(Path, "read_bytes", read_then_replace):
        assert _outputs(csv, capsys) == expected
    assert len(parses) == 1  # report's, once for both sides, not analyze's
    assert twin.read_bytes().endswith(sevens)


def test_unknown_channel_is_reported_alike_with_the_twin(tmp_path, capsys, short_waveform):
    csv = _copy_run(short_waveform, tmp_path)
    errors = []
    for _ in range(2):
        argv = ["analyze", str(csv), "--channel", "i_src_x", "-o", str(tmp_path / "out")]
        assert main(argv) == 2
        errors.append(capsys.readouterr().err)
        _siblings(csv)[0].unlink(missing_ok=True)
    available = ", ".join(CHANNEL_IDS)
    assert errors == [f"error: unknown channel 'i_src_x' in {csv}; available: {available}\n"] * 2


@pytest.mark.parametrize(
    "defect", ["nan_channel", "inf_channel", "uneven_t", "decreasing_t", "nan_t"]
)
def test_twin_and_text_report_a_defect_alike(
    tmp_path, capsys, monkeypatch, short_waveform, defect
):
    # A CSV, twin and metadata bound as simulate writes them, from columns
    # with a defect: both reads give the same message.
    table = np.loadtxt(short_waveform, delimiter=",", skiprows=1).T.copy()
    t, i = table[0], table[1 + CHANNEL_IDS.index("i_src_a")]
    # The header is line 1, so sample 9 is line 11.
    if defect in ("nan_channel", "inf_channel"):
        i[9] = math.nan if defect == "nan_channel" else -math.inf
        message = f"line 11: i_src_a value {float(i[9])!r} is not finite"
    elif defect == "uneven_t":
        shift = 0.4 * (t[1] - t[0])
        t[9:-1] += shift
        message = (
            f"line 11: t_s step {float(t[9] - t[8])!r} differs from the mean "
            f"step {float((t[-1] - t[0]) / (len(t) - 1))!r} by more than 1e-6 of it"
        )
    else:
        if defect == "nan_t":
            t[-1] = math.nan
        else:
            t[:] = t[::-1].copy()
        message = "t_s must be finite and strictly increasing"
    csv = tmp_path / "bad.csv"
    twin, meta = _siblings(csv)
    source = cli._twin_source(
        scenario_io.write_waveform_csv(csv, ["t_s", *CHANNEL_IDS], list(table)),
        scenario_io.write_waveform_npy(twin, list(table)),
    )
    _json_dump({"source": source}, meta)
    parses = _parses(monkeypatch)
    errors = []
    argv = ["analyze", str(csv), "--channel", "i_src_a", "-o", str(tmp_path / "out")]
    for _ in range(2):
        assert main(argv) == 2
        errors.append(capsys.readouterr().err)
        twin.unlink(missing_ok=True)
    assert len(parses) == 1  # the second read only
    assert errors == [f"error: {csv}: {message}\n"] * 2


def test_csv_edited_to_a_defect_gets_the_parser_message(tmp_path, capsys, short_waveform):
    # The twin still holds the numbers, but it no longer matches the CSV.
    csv = _copy_run(short_waveform, tmp_path)
    header, *lines = csv.read_text().splitlines()
    cells = lines[9].split(",")
    cells[1 + CHANNEL_IDS.index("v_dc")] = "abc"
    csv.write_text("\n".join([header, *lines[:9], ",".join(cells), *lines[10:]]) + "\n")
    argv = ["analyze", str(csv), "--channel", "i_src_a", "-o", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {csv}: line 11: v_dc value 'abc' is not a number\n"



# --- waveform CSV: its text ---------------------------------------------------


@pytest.mark.parametrize("case", ["short", "baseline_bundled", "filtered_bundled"])
def test_plain_csv_reads_analysed_columns_bit_exact(tmp_path, request, short_waveform, case):
    if case == "short":
        path = short_waveform
    else:
        path = tmp_path / "run.csv"
        request.getfixturevalue(f"{case}_run")[1].to_csv(path)
    full = np.loadtxt(path, delimiter=",", skiprows=1)
    names = ["i_dc", "i_src_a", "v_src_a"]
    columns, _, _ = read_waveform_csv(path, names)
    for name, column in zip(names, columns, strict=True):
        assert column.tobytes() == full[:, 1 + CHANNEL_IDS.index(name)].tobytes(), name


def _with_field(rows: list[str], channel: str, value: str) -> list[str]:
    """``rows`` with ``channel`` set to ``value`` on line 11 (rows[9])."""
    cells = rows[9].split(",")
    cells[1 + CHANNEL_IDS.index(channel)] = value
    return [*rows[:9], ",".join(cells), *rows[10:]]


# Copies of a waveform CSV that read as the same analysed columns: each
# edit of the rows and the line end.
_SAME_COLUMNS = {
    "crlf": (lambda rows: rows, "\r\n"),
    "comment": (lambda rows: [*rows[:5], "# comment", *rows[5:]], "\n"),
    "blank_line": (lambda rows: [*rows[:5], "", *rows[5:]], "\n"),
    "spaces": (lambda rows: [row.replace(",", ", ") for row in rows], "\n"),
    "nan_v_dc": (lambda rows: _with_field(rows, "v_dc", "nan"), "\n"),
    "point_exponent": (lambda rows: _with_field(rows, "i_filter_b", "1.e5"), "\n"),
    "leading_point": (lambda rows: _with_field(rows, "i_filter_b", ".5"), "\n"),
    "signed_point": (lambda rows: _with_field(rows, "i_filter_b", "+.5E-3"), "\n"),
}


def _without_csv_digest(summary: bytes) -> bytes:
    """A summary JSON's bytes without ``source.csv_sha256``, which names
    the CSV's bytes and so differs between copies that read alike."""
    rest, count = re.subn(rb'\n *"csv_sha256": "[0-9a-f]{64}",', b"", summary)
    assert count == 1
    return rest


def test_csv_variants_give_identical_outputs(tmp_path, short_waveform):
    # Each copy goes to the same path, so the outputs that name it match;
    # --channel i_dc (the last column) and --v-channel v_src_a (the first)
    # check the map from the columns read back to their names.
    header, *rows = short_waveform.read_text().splitlines()
    path = tmp_path / "run.csv"
    argvs = {
        "summary.json": ["analyze", str(path), "--channel", "i_dc", "--v-channel", "v_src_a"],
        "report.json": ["report", str(short_waveform), str(path)],
    }

    def outputs() -> dict:
        for argv in argvs.values():
            assert main(argv + ["-o", str(tmp_path / "out")]) == 0
        written = {suffix: (tmp_path / f"out.{suffix}").read_bytes() for suffix in argvs}
        return {**written, "summary.json": _without_csv_digest(written["summary.json"])}

    path.write_text("\n".join([header, *rows]) + "\n")
    expected = outputs()
    for variant, (edit, end) in _SAME_COLUMNS.items():
        path.write_bytes(end.join([header, *edit(rows)]).encode() + end.encode())
        assert outputs() == expected, variant


def test_csv_variants_read_without_the_line_check(tmp_path, short_waveform, monkeypatch):
    # np.loadtxt converts each variant whole, so the line check, which only
    # names the line at fault once a conversion fails, never runs.
    channels = ["i_dc", "i_src_a", "v_src_a"]
    columns, *rate_start = read_waveform_csv(short_waveform, channels)
    expected = [c.tobytes() for c in columns], rate_start

    def line_check(*args):
        raise AssertionError("the line check ran")

    monkeypatch.setattr(scenario_io, "_first_bad_line", line_check)
    header, *rows = short_waveform.read_text().splitlines()
    path = tmp_path / "run.csv"
    for variant, (edit, end) in _SAME_COLUMNS.items():
        path.write_bytes(end.join([header, *edit(rows)]).encode() + end.encode())
        columns, *rate_start = read_waveform_csv(path, channels)
        assert ([c.tobytes() for c in columns], rate_start) == expected, variant


def test_csv_without_final_line_feed_gives_identical_outputs(tmp_path, short_waveform):
    raw = short_waveform.read_bytes()
    path = tmp_path / "run.csv"
    outputs = []
    for text in (raw, raw[:-1]):
        path.write_bytes(text)
        out = tmp_path / ("lf" if text is raw else "no-lf")
        argv = ["analyze", str(path), "--channel", "i_src_a", "--v-channel", "v_src_a"]
        assert main(argv + ["-o", str(out)]) == 0
        assert main(["report", str(short_waveform), str(path), "-o", str(out)]) == 0
        written = tmp_path.glob(f"{out.name}.*")
        outputs.append({p.name.split(".", 1)[1]: p.read_bytes() for p in written})
        outputs[-1]["summary.json"] = _without_csv_digest(outputs[-1]["summary.json"])
    assert len(outputs[0]) == 5 and outputs[0] == outputs[1]


def test_csv_reader_converts_the_bytes_it_checked(tmp_path, short_waveform, monkeypatch):
    # The file is replaced once its bytes are read: the columns returned
    # are those of the checked bytes, not of the file's new text.
    path = tmp_path / "run.csv"
    path.write_bytes(short_waveform.read_bytes())
    expected, _, _ = read_waveform_csv(path, CHANNEL_IDS)
    header, *rows = short_waveform.read_text().splitlines()
    other = [",".join([row.split(",", 1)[0], *["7"] * len(CHANNEL_IDS)]) for row in rows]
    read_bytes = Path.read_bytes

    def read_then_replace(self):
        raw = read_bytes(self)
        self.write_text("\n".join([header, *other]) + "\n")
        return raw

    monkeypatch.setattr(Path, "read_bytes", read_then_replace)
    columns, _, _ = read_waveform_csv(path, CHANNEL_IDS)
    assert path.read_text().endswith(",7\n")
    for channel, column, want in zip(CHANNEL_IDS, columns, expected, strict=True):
        assert column.tobytes() == want.tobytes(), channel


def test_header_ending_in_cr_checks_the_row_after_it(tmp_path, short_waveform, capsys):
    # Text-mode reading ends the header at a lone CR, so the next row is
    # data, and its fields are checked like every other row's.
    header, *rows = short_waveform.read_text().splitlines()
    path = tmp_path / "bad.csv"
    path.write_bytes(f"{header}\r{rows[0].rsplit(',', 1)[0]},abc\n".encode()
                     + "".join(row + "\n" for row in rows[1:]).encode())
    assert main(["analyze", str(path), "--channel", "i_src_a", "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {path}: line 2: i_dc value 'abc' is not a number\n"


_digits = st.text("0123456789", min_size=1, max_size=3)
_signs = st.sampled_from(["", "+", "-"])
# A number of the plain grammar [+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?.
_plain_number = st.builds(
    "{}{}{}".format,
    _signs,
    st.one_of(_digits, st.builds("{}.{}".format, st.text("0123456789", max_size=2), _digits),
              st.builds("{}.".format, _digits)),
    st.one_of(st.just(""), st.builds("{}{}{}".format, st.sampled_from("eE"), _signs, _digits)),
)


@st.composite
def _csv_bodies(draw) -> tuple[int, str]:
    """A number of fields and a body of lines of that many plain numbers,
    with up to two bytes inserted, deleted or replaced, each from the
    plain alphabet or a letter, space, CR, "#" or "_"."""
    n_fields = draw(st.integers(min_value=2, max_value=4))
    lines = draw(st.lists(st.lists(_plain_number, min_size=n_fields, max_size=n_fields),
                          min_size=1, max_size=4))
    body = "".join(",".join(fields) + "\n" for fields in lines)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        at = draw(st.integers(min_value=0, max_value=len(body)))
        cut = draw(st.integers(min_value=0, max_value=1))
        new = draw(st.sampled_from(["", *"0123456789.eE+-,\na \r#_"]))
        body = body[:at] + new + body[at + cut :]
    return n_fields, body


@given(case=_csv_bodies())
# Only the order of points and exponents tells these from numbers.
@example(case=(2, "1,1e55.3\n"))
@example(case=(2, "1,1.22.3\n"))
@example(case=(2, "1e22e3,1\n"))
@settings(max_examples=100, deadline=None)
def test_line_check_passes_exactly_what_loadtxt_reads(case):
    # The line check passes exactly what the reader's np.loadtxt call reads
    # whole with the header's field count, so it names a line for every
    # body that call rejects, and for no other.
    n_fields, body = case
    names = ["t_s", *CHANNEL_IDS[: n_fields - 1]]
    text = ",".join(names) + "\n" + body
    stream = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            full = np.loadtxt(stream, delimiter=",", skiprows=1, ndmin=2)
            read = len(full) == 0 or full.shape[1] == n_fields
        except ValueError:
            read = False
    assert (_first_bad_line(text, names) is None) == read


def test_svg_title_escapes_the_channel_name(tmp_path):
    # Any header name is a channel, and the SVG titles carry it.
    import xml.etree.ElementTree as ET

    channel = "i<a&b"
    t = np.arange(2000) / 10_000.0
    path = tmp_path / "run.csv"
    np.savetxt(path, np.column_stack([t, np.sin(2 * np.pi * 50.0 * t)]), fmt="%.17g",
               delimiter=",", header=f"t_s,{channel}", comments="")
    out = str(tmp_path / "out")
    assert main(["analyze", str(path), "--channel", channel, "-o", out]) == 0
    assert main(["report", str(path), str(path), "--channel", channel, "-o", out]) == 0
    titles = {
        suffix: ET.parse(f"{out}.{suffix}").find("{http://www.w3.org/2000/svg}text").text
        for suffix in ("spectrum.svg", "overlay.svg")
    }
    assert titles == {
        "spectrum.svg": f"{channel} spectrum",
        "overlay.svg": f"{channel}: baseline vs filtered",
    }


@pytest.mark.parametrize("command", ["analyze", "report"])
@pytest.mark.parametrize("peak", [1e153, 1e155])
def test_samples_too_large_to_square_exit_2(tmp_path, capsys, command, peak):
    # The window power overflows a double: the summary once read
    # "rms": Infinity, and at 1e155 the Parseval check raised OverflowError.
    t = np.arange(2000) / 10_000.0
    path = tmp_path / "huge.csv"
    np.savetxt(path, np.column_stack([t, peak * np.sin(2 * np.pi * 50.0 * t)]),
               fmt="%.17g", delimiter=",", header="t_s,i_src_a", comments="")
    if command == "analyze":
        argv = ["analyze", str(path), "--channel", "i_src_a"]
    else:
        argv = ["report", str(path), str(path)]
    rc = main(argv + ["-o", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: spectrum rms_total must be finite\n"
    assert list(tmp_path.iterdir()) == [path]


# --- scenario document validation ----------------------------------------------


def test_scenario_round_trip(tmp_path):
    scenario = presets.filtered_scenario()
    path = tmp_path / "scenario.json"
    _save_scenario(scenario, path)
    assert load_scenario(path) == scenario


def test_scenario_without_record_cycles_records_whole_run(tmp_path):
    scenario = presets.filtered_scenario(hf.SolverConfig())
    path = tmp_path / "scenario.json"
    _save_scenario(scenario, path)
    assert "record_cycles" not in json.loads(path.read_text())["solver"]
    assert load_scenario(path) == scenario
    assert scenario.solver.record_cycles is None


def test_bundled_scenarios_differ_only_by_bank():
    # The paper's comparison: the same system and run, without and with
    # the filter bank.
    baseline = scenario_to_dict(presets.baseline_scenario())
    filtered = scenario_to_dict(presets.filtered_scenario())
    assert "bank" not in baseline
    assert filtered.pop("bank")["branches"]
    assert baseline == filtered


def test_scenario_rejects_unknown_top_level_key():
    doc = scenario_to_dict(presets.baseline_scenario())
    doc["extra"] = {}
    with pytest.raises(ScenarioError, match="extra"):
        scenario_from_dict(doc)


def test_scenario_rejects_missing_section():
    doc = scenario_to_dict(presets.baseline_scenario())
    del doc["load"]
    with pytest.raises(ScenarioError, match="load"):
        scenario_from_dict(doc)


def test_scenario_error_carries_field_path():
    doc = scenario_to_dict(presets.baseline_scenario())
    doc["solver"]["dt_s"] = -1.0
    with pytest.raises(ScenarioError, match="solver.*dt_s"):
        scenario_from_dict(doc)
    doc = scenario_to_dict(presets.baseline_scenario())
    doc["basis"]["source_vrms"] = "220"
    with pytest.raises(ScenarioError, match="basis.source_vrms"):
        scenario_from_dict(doc)


def test_scenario_needs_two_samples():
    # 0.2 s holds the 10 periods a scenario needs; the step sets the count.
    doc = scenario_to_dict(presets.baseline_scenario(hf.SolverConfig(duration_s=0.2)))
    doc["solver"]["dt_s"] = 0.1
    assert scenario_from_dict(doc).solver.n_samples == 2
    doc["solver"]["dt_s"] = 0.2 / 1.4
    with pytest.raises(
        ScenarioError,
        match=r"^solver\.duration_s / dt_s must be finite and round to at least 2 and "
        r"at most 1500000 samples, got 1\.4",
    ):
        scenario_from_dict(doc)


def test_scenario_rejects_bank_fundamental_mismatch(ref_bank):
    doc = scenario_to_dict(presets.filtered_scenario())
    doc["bank"]["fundamental_hz"] = 60.0
    # The 250 Hz branch is the harmonic nearest 4 of 60 Hz, so the bank
    # itself is valid.
    doc["bank"]["branches"] = [{**doc["bank"]["branches"][0], "order": 4}]
    message = r"^bank\.fundamental_hz \(60\.0\) must equal basis\.fundamental_hz \(50\.0\)$"
    with pytest.raises(ScenarioError, match=message):
        scenario_from_dict(doc)
    # The scenario owns the rule: one built in code fails with the same message.
    bank = hf.design.bank_from_dict(doc["bank"])
    with pytest.raises(ValueError, match=message):
        replace(presets.filtered_scenario(), bank=bank)


def _nodes(node, path=()):
    """Key paths and values of every node below a scenario document's root."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _nodes(value, path + (key,))


_DELETED = object()


def test_simulate_extreme_values_fuzz(tmp_path, capsys):
    """Each numeric field of a short bundled scenario set to each extreme value,
    and each node set to each ill-typed value, deleted, or (for an object)
    given an unknown key, exits 0, 2 or 3 with no escaping exception, and
    writes a CSV only on success, with finite values."""
    # record_cycles=10 counts the field and still records the whole 0.2 s run.
    base = scenario_to_dict(
        presets.filtered_scenario(
            hf.SolverConfig(dt_s=1e-4, duration_s=0.2, record_cycles=10)
        )
    )
    nodes = list(_nodes(base))
    fields = [
        path for path, value in nodes
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    ]
    assert len(fields) == 3 + 3 + 3 + 1 + 4 * 4 + 3  # basis, load, solver, bank
    extremes = (math.nan, math.inf, -math.inf, 0.0, -1.0, 1e300, 1e-300, 10**20, 10**400)
    ill_typed = (None, 5, "x", [], {}, [5], {"a": 1}, True, _DELETED)
    cases = [(field, value) for field in fields for value in extremes]
    cases += [(path, value) for path, _ in nodes for value in ill_typed]
    cases += [
        (path + ("unknown_key",), 1)
        for path, value in [((), base), *nodes]
        if isinstance(value, dict)
    ]
    path = tmp_path / "scenario.json"
    out = tmp_path / "x.csv"
    for field, value in cases:
        doc = copy.deepcopy(base)
        node = doc
        for key in field[:-1]:
            node = node[key]
        if value is _DELETED:
            del node[field[-1]]
        else:
            node[field[-1]] = value
        path.write_text(json.dumps(doc))
        rc = main(["simulate", str(path), "-o", str(out)])
        err = capsys.readouterr().err
        shown = "deleted" if value is _DELETED else repr(value)
        case = f"{'.'.join(map(str, field))} = {shown}: {err}"
        assert rc in (0, 2, 3), case
        if rc == 0:
            data = np.loadtxt(out, delimiter=",", skiprows=1)
            assert np.isfinite(data).all(), case
            out.unlink()
        else:
            assert not out.exists(), case
            assert err.startswith("error: " if rc == 2 else "solver error: "), case


# --- misc -----------------------------------------------------------------------


def test_json_outputs_refuse_non_finite(tmp_path):
    # A command would exit 2 rather than write Infinity into a summary.
    path = tmp_path / "x.summary.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        _json_dump({"rms": math.inf}, path)
    assert not path.exists()


def test_unknown_subcommand_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
