"""Command-line surface: file outputs, exit codes, and determinism."""

from __future__ import annotations

import copy
import itertools
import json
import math
import warnings

import numpy as np
import pytest

import harmflow as hf
from harmflow import network, presets
from harmflow.cli import _json_dump, _read_waveform_csv, main
from harmflow.scenario_io import (
    ScenarioError,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from harmflow.simulator import CHANNEL_IDS


@pytest.fixture(scope="module")
def short_scenario_path(tmp_path_factory):
    """A fast scenario (0.2 s, coarse step) for CLI round trips."""
    path = tmp_path_factory.mktemp("cli") / "short.json"
    solver = hf.SolverConfig(dt_s=5e-5, duration_s=0.2)
    save_scenario(presets.filtered_scenario(solver), path)
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
    assert meta["wall_time_s"] > 0.0
    # Recorded whole.
    assert meta["record_cycles"] is None
    assert meta["first_step"] == 0 and meta["t_start_s"] == 0.0


def test_bundled_walkthrough_records_last_cycles(tmp_path, capsys):
    # The README walkthrough: the bundled files record the last 7 of 25
    # periods, and analyze and report note that the filtered run has not
    # settled but exit 0.
    notes, residual = {}, {}
    for case in ("baseline", "filtered"):
        csv = tmp_path / f"{case}.csv"
        assert main(["simulate", str(presets.SCENARIOS / f"{case}.json"), "-o", str(csv)]) == 0
        meta = json.loads(csv.with_suffix(".meta.json").read_text())
        assert meta["record_cycles"] == 7
        assert meta["n_samples"] == 14_000
        assert meta["first_step"] == 36_000
        assert meta["t_start_s"] == 0.36000000000000004
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


def test_simulate_iteration_cap_of_one_exit_2(tmp_path, capsys):
    rc, err, wrote = _simulate_with(tmp_path, capsys, "solver", "max_switch_iterations", 1)
    assert rc == 2
    assert "solver.max_switch_iterations must be >= 2, got 1" in err
    assert not wrote


def test_simulate_solver_failure_exit_3(tmp_path, capsys):
    doc = scenario_to_dict(
        presets.baseline_scenario(hf.SolverConfig(dt_s=1e-4, duration_s=0.2))
    )
    doc["solver"]["diode_off_ohm"] = 1e300
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
        ("solver", "diode_off_ohm", math.inf),
        ("solver", "max_switch_iterations", math.inf),
        ("solver", "max_switch_iterations", -math.inf),
        ("solver", "max_switch_iterations", math.nan),
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
        ("solver", "max_switch_iterations"),
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


_BANK_R = str(presets.bundled_bank().branches[1].resistance_ohm)


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
        ("bank", "branches", [], "bank.branches must hold at least one branch"),
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
        doc = hf.design.bank_to_dict(presets.bundled_bank())
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
        (2.5, "must be a finite integer, got 2.5"),
        (math.nan, "must be a finite integer, got nan"),
        (math.inf, "must be a finite integer, got inf"),
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


def test_analyze_unknown_channel_lists_available(tmp_path, short_waveform, capsys):
    rc = main(
        ["analyze", str(short_waveform), "--channel", "i_src_x", "-o", str(tmp_path / "x")]
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert "i_src_x" in err
    assert "i_src_a" in err and "v_dc" in err


def _assert_csv_round_trip(waves: hf.WaveformSet, path) -> None:
    waves.to_csv(path)
    names, data, sample_rate = _read_waveform_csv(path)
    assert names == list(CHANNEL_IDS)
    times = np.loadtxt(path, delimiter=",", skiprows=1, usecols=0)
    assert np.array_equal(times, waves.time())
    for i, channel in enumerate(CHANNEL_IDS):
        assert np.array_equal(data[:, i], waves.channels[channel]), channel
    assert sample_rate == pytest.approx(waves.sample_rate_hz, rel=1e-9)


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
    hp = hf.design_high_pass(presets.bundled_basis(), 858.37, 11.09e-6, 2.9704)
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
    assert rc == 2 and f"{section}: " in err and "must be positive and finite" in err, err
    assert not wrote
    doc = hf.design.bank_to_dict(presets.bundled_bank())
    doc["branches"][index][key] = value
    bank_path = tmp_path / "bank.json"
    bank_path.write_text(json.dumps(doc))
    rc = main(["scan", str(bank_path), "-o", str(tmp_path / "bank")])
    err = capsys.readouterr().err
    assert rc == 2 and f"{section}: " in err and "must be positive and finite" in err, err
    assert not list(tmp_path.glob("bank.*.*"))


@pytest.mark.parametrize("command", ["scan", "simulate"])
def test_bank_file_with_stored_quality_exit_2(tmp_path, capsys, command):
    # Bank files once stored q (and a high-pass corner_hz) beside R, L and C.
    doc = hf.design.bank_to_dict(presets.bundled_bank())
    doc["branches"][0]["q"] = presets.bundled_bank().branches[0].quality_factor
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
        ([], "bank.branches must hold at least one branch"),
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
    ],
)
def test_scan_non_finite_flag_exit_2(tmp_path, ref_bank, capsys, flag, value, quantity):
    bank_path = tmp_path / "bank.json"
    bank_path.write_text(json.dumps(hf.design.bank_to_dict(ref_bank)))
    rc = main(["scan", str(bank_path), flag, value, "-o", str(tmp_path / "x")])
    assert rc == 2
    assert quantity in capsys.readouterr().err
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


def test_report_identical_inputs_zero_delta(tmp_path, short_waveform):
    prefix = tmp_path / "same"
    rc = main(
        [
            "report", str(short_waveform), str(short_waveform),
            "--cycles", "3",
            "-o", str(prefix),
        ]
    )
    assert rc == 0
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
    save_scenario(other_scenario, other_path)
    coarse_csv = tmp_path / "coarse.csv"
    assert main(["simulate", str(other_path), "-o", str(coarse_csv)]) == 0
    rc = main(
        ["report", str(short_waveform), str(coarse_csv), "-o", str(tmp_path / "x")]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "sample rates differ" in err
    assert "np.float64" not in err


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
    ["ragged", "non_numeric", "constant_t", "nan_t", "decreasing_t", "header_only"],
)
def test_malformed_waveform_csv_names_file(tmp_path, short_waveform, capsys, command, defect):
    header, *lines = short_waveform.read_text().splitlines()
    rows = [line.split(",") for line in lines]
    # The header is line 1, so rows[9] is line 11.
    if defect == "ragged":
        del rows[9][-1]
        message = "line 11 has 17 fields, expected 18"
    elif defect == "non_numeric":
        # v_dc is read by neither command below, yet must still be numeric.
        rows[9][1 + CHANNEL_IDS.index("v_dc")] = "abc"
        message = "line 11: v_dc value 'abc' is not a number"
    elif defect == "header_only":
        rows = []
        message = "need at least two data rows"
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
    assert err == "error: spectrum rms_total must be finite\n"
    assert list(tmp_path.iterdir()) == [path]


# --- scenario document validation ----------------------------------------------


def test_scenario_round_trip(tmp_path):
    scenario = presets.filtered_scenario()
    path = tmp_path / "scenario.json"
    save_scenario(scenario, path)
    assert load_scenario(path) == scenario


def test_scenario_without_record_cycles_records_whole_run(tmp_path):
    scenario = presets.filtered_scenario(hf.SolverConfig())
    path = tmp_path / "scenario.json"
    save_scenario(scenario, path)
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


def test_scenario_rejects_bank_fundamental_mismatch(ref_bank):
    doc = scenario_to_dict(presets.filtered_scenario())
    doc["bank"]["fundamental_hz"] = 60.0
    doc["bank"]["branches"] = doc["bank"]["branches"][:1]
    with pytest.raises(ScenarioError, match="fundamental_hz"):
        scenario_from_dict(doc)


def test_scenario_requires_integer_iteration_cap():
    for value in (2.5, math.inf, -math.inf, math.nan):
        doc = scenario_to_dict(presets.baseline_scenario())
        doc["solver"]["max_switch_iterations"] = value
        with pytest.raises(ScenarioError, match="max_switch_iterations"):
            scenario_from_dict(doc)


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
    assert len(fields) == 3 + 3 + 6 + 1 + 4 * 4 + 3  # basis, load, solver, bank
    extremes = (math.nan, math.inf, -math.inf, 0.0, -1.0, 1e300, 1e-300, 10**400)
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
