"""Closed-form design equations against frozen reference values and their
algebraic identities."""

from __future__ import annotations

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import harmflow as hf
from harmflow import presets
from harmflow.design import (
    DesignError,
    QualityFactorWarning,
    bank_from_dict,
    bank_to_dict,
)

TWO_PI = 2.0 * math.pi

BASIS = hf.SystemBasis(fundamental_hz=50.0, source_vrms=220.0, source_inductance_h=0.0016)

# Reference branch values for the bundled 50 Hz / 220 V / 11.09 uF design.
REF_C = 11.09e-6
REF_L = {5: 0.0365, 7: 0.0186, 11: 0.0075, 13: 0.0054}
REF_R = {5: 0.54, 7: 0.38, 11: 0.24, 13: 0.21}
REF_HP_L = 0.0031
REF_HP_R = 49.66

positive_caps = st.floats(min_value=1e-9, max_value=1e-2)
orders = st.floats(min_value=2.0, max_value=50.0)
qualities = st.floats(min_value=0.5, max_value=150.0)


# --- capacitor sizing ------------------------------------------------------


def test_reactive_power_reference_value():
    q = hf.reactive_power_of_capacitor(REF_C, BASIS)
    # independent arithmetic: V^2 * 2*pi*f*C
    assert q == pytest.approx(220.0**2 * TWO_PI * 50.0 * REF_C, rel=1e-12)
    assert q == pytest.approx(168.63, abs=5e-3)
    # implied capacitive reactance
    assert 220.0**2 / q == pytest.approx(287.02, abs=5e-3)


def test_reactive_power_scales_with_capacitance():
    q1 = hf.reactive_power_of_capacitor(REF_C, BASIS)
    q2 = hf.reactive_power_of_capacitor(2 * REF_C, BASIS)
    assert q2 == pytest.approx(2 * q1, rel=1e-12)


def test_reactive_power_zero_voltage():
    dead = hf.SystemBasis(fundamental_hz=50.0, source_vrms=0.0, source_inductance_h=0.0)
    assert hf.reactive_power_of_capacitor(REF_C, dead) == 0.0


def test_reactive_power_rejects_nonpositive_capacitance():
    with pytest.raises(DesignError):
        hf.reactive_power_of_capacitor(0.0, BASIS)
    with pytest.raises(DesignError):
        hf.reactive_power_of_capacitor(-1e-6, BASIS)


def test_capacitor_sizing_inverse_of_reference():
    c = hf.capacitor_from_reactive_power(168.6268706370243, BASIS)
    assert c == pytest.approx(REF_C, rel=1e-9)


def test_capacitor_sizing_linear_in_var():
    c1 = hf.capacitor_from_reactive_power(100.0, BASIS)
    c4 = hf.capacitor_from_reactive_power(400.0, BASIS)
    assert c4 == pytest.approx(4 * c1, rel=1e-12)


def test_capacitor_sizing_rejects_nonpositive_var():
    with pytest.raises(DesignError):
        hf.capacitor_from_reactive_power(0.0, BASIS)


def test_capacitor_sizing_rejects_zero_volt_basis():
    dead = hf.SystemBasis(fundamental_hz=50.0, source_vrms=0.0, source_inductance_h=0.0)
    with pytest.raises(DesignError, match="zero-volt basis"):
        hf.capacitor_from_reactive_power(100.0, dead)


@given(c=positive_caps)
def test_capacitor_var_round_trip(c):
    back = hf.capacitor_from_reactive_power(
        hf.reactive_power_of_capacitor(c, BASIS), BASIS
    )
    assert back == pytest.approx(c, rel=1e-12)


# --- inductor tuning -------------------------------------------------------


def test_tuned_inductors_match_reference_table():
    # The reference table truncates to four decimals (0.0075506 prints as
    # 0.0075), so agreement is within one unit of the last displayed digit.
    for h, printed in REF_L.items():
        l = hf.tune_inductor(REF_C, h, BASIS)
        assert l == pytest.approx(1.0 / ((TWO_PI * h * 50.0) ** 2 * REF_C), rel=1e-12)
        assert abs(l - printed) < 1e-4
        assert math.floor(l * 1e4) / 1e4 == pytest.approx(printed, abs=1e-12)


@given(c=positive_caps, h=orders)
def test_resonance_identity(c, h):
    l = hf.tune_inductor(c, h, BASIS)
    assert (TWO_PI * h * 50.0) ** 2 * l * c == pytest.approx(1.0, rel=1e-12)


@given(c=positive_caps, h=st.floats(min_value=1.0, max_value=49.0))
def test_tune_inductor_decreases_with_order(c, h):
    assert hf.tune_inductor(c, h + 1.0, BASIS) < hf.tune_inductor(c, h, BASIS)


def test_tune_inductor_rejects_bad_inputs():
    with pytest.raises(DesignError):
        hf.tune_inductor(-1e-6, 5, BASIS)
    with pytest.raises(DesignError):
        hf.tune_inductor(REF_C, 0.5, BASIS)


# --- damping resistor ------------------------------------------------------


def test_resistor_from_quality_reference_values():
    r5 = hf.resistor_from_quality(0.0365, REF_C, 106.2)
    assert round(r5, 2) == 0.54
    r11 = hf.resistor_from_quality(0.0075, REF_C, 108.3)
    assert round(r11, 2) == 0.24


def test_resistor_vanishes_at_high_quality():
    assert hf.resistor_from_quality(0.0365, REF_C, 1e12) < 1e-9


def test_resistor_rejects_nonpositive_quality():
    with pytest.raises(DesignError):
        hf.resistor_from_quality(0.0365, REF_C, 0.0)


# --- single-tuned synthesis ------------------------------------------------


def test_design_single_tuned_reference_rows():
    with pytest.warns(QualityFactorWarning):
        f7 = hf.design_single_tuned(BASIS, 7, REF_C, 107.8)
    assert abs(f7.inductance_h - REF_L[7]) < 1e-4
    assert round(f7.resistance_ohm, 2) == REF_R[7]
    with pytest.warns(QualityFactorWarning):
        f11 = hf.design_single_tuned(BASIS, 11, REF_C, 108.3)
    assert abs(f11.inductance_h - REF_L[11]) < 1e-4
    assert round(f11.resistance_ohm, 2) == REF_R[11]
    assert f11.tuned_hz == pytest.approx(550.0, rel=1e-9)


def test_design_single_tuned_quality_in_range_is_silent(recwarn):
    f = hf.design_single_tuned(BASIS, 5, REF_C, 50.0)
    assert not [w for w in recwarn if issubclass(w.category, QualityFactorWarning)]
    assert f.quality_factor == 50.0


def test_design_single_tuned_rejects_low_order():
    # With an out-of-range q too: every input is validated before warning.
    for q in (50.0, 500.0):
        with pytest.raises(DesignError, match="order must be >= 2"):
            hf.design_single_tuned(BASIS, 1.5, REF_C, q)


@given(c=positive_caps, h=orders, q=qualities)
@settings(max_examples=50)
def test_single_tuned_invariants(c, h, q):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QualityFactorWarning)
        f = hf.design_single_tuned(BASIS, h, c, q)
    assert f.tuned_hz == pytest.approx(h * 50.0, rel=1e-9)
    q_back = math.sqrt(f.inductance_h / f.capacitance_f) / f.resistance_ohm
    assert q_back == pytest.approx(q, rel=1e-12)


# --- high-pass synthesis ---------------------------------------------------


def test_design_high_pass_reference_row():
    f = hf.design_high_pass(BASIS, 858.3, REF_C, 2.97)
    assert round(f.inductance_h, 4) == REF_HP_L
    assert round(f.resistance_ohm, 2) == REF_HP_R
    assert f.corner_hz == pytest.approx(858.3, rel=1e-12)


def test_design_high_pass_unity_q_identity():
    f = hf.design_high_pass(BASIS, 50.0, REF_C, 1.0)
    assert f.resistance_ohm == pytest.approx(
        math.sqrt(f.inductance_h / f.capacitance_f), rel=1e-12
    )


def test_design_high_pass_corner_scaling():
    f1 = hf.design_high_pass(BASIS, 400.0, REF_C, 2.0)
    f2 = hf.design_high_pass(BASIS, 800.0, REF_C, 2.0)
    assert f2.inductance_h == pytest.approx(f1.inductance_h / 4.0, rel=1e-12)


def test_design_high_pass_warns_out_of_range():
    with pytest.warns(QualityFactorWarning):
        hf.design_high_pass(BASIS, 858.3, REF_C, 7.0)


# --- bank composition ------------------------------------------------------


def test_bank_reproduces_reference_rows():
    bank = presets.filtered_scenario().bank
    assert [b.order for b in bank.single_tuned] == [5, 7, 11, 13]
    for branch in bank.single_tuned:
        h = int(branch.order)
        assert abs(branch.inductance_h - REF_L[h]) < 1e-4
        assert round(branch.resistance_ohm, 2) == REF_R[h]
        assert branch.capacitance_f == REF_C
    (hp,) = bank.high_pass
    assert round(hp.inductance_h, 4) == REF_HP_L
    assert round(hp.resistance_ohm, 2) == REF_HP_R
    assert 0.5 <= hp.quality_factor <= 5.0


def test_bank_fundamental_var_budget(ref_bank, basis):
    # Near five capacitor budgets; the tuned inductors shave a little
    # reactance at the fundamental, so only approximate equality holds.
    y = 1.0 / hf.bank_impedance(ref_bank, basis.fundamental_hz)
    total_var = basis.source_vrms**2 * y.imag
    assert total_var == pytest.approx(5 * 168.63, rel=0.02)


def test_bank_orders_strictly_increasing(ref_bank):
    tuned = [b.order for b in ref_bank.single_tuned]
    assert tuned == sorted(tuned)
    assert len(set(tuned)) == len(tuned)


def test_bank_needs_a_branch():
    with pytest.raises(DesignError, match=r"^branches must hold at least one branch "):
        hf.FilterBank(50.0, ())


@pytest.mark.parametrize("other", [None, 5.0, "high_pass", {"kind": "high_pass"}])
def test_bank_holds_only_filter_branches(other):
    hp = hf.design_high_pass(BASIS, 858.3, REF_C, 2.97)
    name = type(other).__name__
    with pytest.raises(DesignError, match=rf"^branches\[1\] must be a SingleTunedFilter "
                       rf"or a HighPassFilter, got {name}$"):
        hf.FilterBank(50.0, (hp, other))


def test_bank_rejects_duplicate_orders():
    f5 = hf.design_single_tuned(BASIS, 5, REF_C, 50.0)
    with pytest.raises(DesignError):
        hf.FilterBank(fundamental_hz=50.0, branches=(f5, f5))


def test_bank_tuned_order_is_nearest_harmonic():
    # The order must lie within half a harmonic of tuned_hz / fundamental_hz.
    f5 = hf.design_single_tuned(BASIS, 5, REF_C, 50.0)
    for order in (6, 4, 5.6):
        message = r"branches\[0\]\.order .* more than half a harmonic from harmonic 5,"
        with pytest.raises(DesignError, match=message):
            hf.FilterBank(50.0, (dataclasses.replace(f5, order=order),))
    # A branch tuned a little below its harmonic keeps that order.
    f47 = hf.design_single_tuned(BASIS, 4.7, REF_C, 50.0)
    assert hf.FilterBank(50.0, (dataclasses.replace(f47, order=5),)).branches[0].order == 5
    f7 = hf.design_single_tuned(BASIS, 7, REF_C, 50.0)
    with pytest.raises(DesignError, match=r"branches\[1\]\.order 8 "):
        hf.FilterBank(50.0, (f5, dataclasses.replace(f7, order=8)))


@pytest.mark.parametrize("f1", [0.0, -50.0, math.inf, math.nan])
def test_bank_fundamental_must_be_positive_and_finite(f1):
    hp = hf.design_high_pass(BASIS, 858.3, REF_C, 2.97)
    with pytest.raises(DesignError, match="fundamental_hz must be positive and finite"):
        hf.FilterBank(f1, (hp,))


def test_bundled_and_designed_banks_are_tuned_to_their_orders(ref_bank):
    for bank in (ref_bank, hf.design_bank_six_pulse(BASIS, REF_C, 50.0, 858.3, 2.97)):
        for b in bank.single_tuned:
            assert abs(b.tuned_hz / bank.fundamental_hz - b.order) <= 1e-12


def test_bank_rejects_low_corner():
    f5 = hf.design_single_tuned(BASIS, 5, REF_C, 50.0)
    low_hp = hf.design_high_pass(BASIS, 200.0, REF_C, 2.0)
    with pytest.raises(DesignError):
        hf.FilterBank(fundamental_hz=50.0, branches=(f5, low_hp))


def test_bank_rejects_two_high_pass():
    hp1 = hf.design_high_pass(BASIS, 800.0, REF_C, 2.0)
    hp2 = hf.design_high_pass(BASIS, 900.0, REF_C, 2.0)
    with pytest.raises(DesignError):
        hf.FilterBank(fundamental_hz=50.0, branches=(hp1, hp2))


def test_design_bank_checks_quality_count():
    with pytest.raises(DesignError):
        hf.design_bank(BASIS, (5, 7), REF_C, (50.0,), 858.3, 2.97)


@pytest.mark.parametrize("q", [np.float32(50), np.int64(50)])
def test_design_bank_takes_a_numpy_scalar_quality(q):
    # A numpy scalar is one q for every tuned branch, as a float is.
    expected = hf.design_bank(BASIS, (5, 7), 1e-5, 50.0, 800.0, 2.0)
    assert hf.design_bank(BASIS, (5, 7), 1e-5, q, 800.0, 2.0) == expected


@pytest.mark.parametrize(
    "orders, q, name",
    [((5,), "5", "st_q"), ((5, 7), "50", "st_q"), ((5,), b"5", "st_q"), ("57", 50.0, "orders")],
)
def test_design_bank_rejects_a_string(orders, q, name):
    # A string would be read one character at a time.
    with pytest.raises(DesignError, match=f"^{name} must hold numbers, not a string"):
        hf.design_bank(BASIS, orders, 1e-5, q, 800.0, 2.0)


@pytest.mark.parametrize(
    "name, value",
    [
        ("orders[0]", "5"),
        ("orders[1]", None),
        ("c_per_branch", "1e-5"),
        ("st_q[0]", "50"),
        ("st_q[1]", b"50"),
        ("hp_corner_hz", "800"),
        ("hp_q", "2"),
    ],
)
def test_design_bank_rejects_a_string_value(name, value):
    # Each value is named: one string among numbers is not read as one.
    args = {"orders": [5, 7], "c_per_branch": 1e-5, "st_q": [50.0, 50.0],
            "hp_corner_hz": 800.0, "hp_q": 2.0}
    key, _, index = name.partition("[")
    if index:
        args[key][int(index[:-1])] = value
    else:
        args[key] = value
    with pytest.raises(DesignError, match=rf"^{re.escape(name)} must be a real number, got "):
        hf.design_bank(BASIS, **args)


# --- domain type validation ------------------------------------------------


def test_basis_validation():
    with pytest.raises(DesignError):
        hf.SystemBasis(fundamental_hz=0.0, source_vrms=220.0, source_inductance_h=0.0)
    with pytest.raises(DesignError):
        hf.SystemBasis(fundamental_hz=50.0, source_vrms=-1.0, source_inductance_h=0.0)
    with pytest.raises(DesignError):
        hf.SystemBasis(fundamental_hz=50.0, source_vrms=220.0, source_inductance_h=-1e-3)
    with pytest.raises(DesignError, match="fundamental_hz must be positive and finite"):
        hf.SystemBasis(fundamental_hz=math.inf, source_vrms=220.0, source_inductance_h=0.0)


def test_basis_from_line_to_line():
    b = hf.SystemBasis.from_line_to_line(50.0, 380.0, 0.0016)
    assert b.source_vrms == pytest.approx(380.0 / math.sqrt(3.0), rel=1e-12)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", ["capacitance_f", "inductance_h", "resistance_ohm"])
def test_branches_reject_non_positive_or_non_finite_values(name, value):
    tuned = dict(order=5, capacitance_f=REF_C, inductance_h=0.0365, resistance_ohm=0.54)
    high_pass = dict(capacitance_f=REF_C, inductance_h=REF_HP_L, resistance_ohm=REF_HP_R)
    for cls, values in ((hf.SingleTunedFilter, tuned), (hf.HighPassFilter, high_pass)):
        with pytest.raises(DesignError, match=f"{name} must be positive and finite"):
            cls(**{**values, name: value})


def test_branch_quality_and_corner_are_derived():
    f5 = hf.SingleTunedFilter(5, REF_C, 0.0365, 0.54)
    assert f5.quality_factor == pytest.approx(math.sqrt(0.0365 / REF_C) / 0.54, rel=1e-15)
    assert f5.tuned_hz == pytest.approx(1.0 / (TWO_PI * math.sqrt(0.0365 * REF_C)), rel=1e-15)
    hp = hf.HighPassFilter(REF_C, REF_HP_L, REF_HP_R)
    corner = 1.0 / (TWO_PI * math.sqrt(REF_HP_L * REF_C))
    assert hp.corner_hz == pytest.approx(corner, rel=1e-15)
    assert hp.quality_factor == pytest.approx(REF_HP_R / (TWO_PI * corner * REF_HP_L), rel=1e-12)


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_capacitor_sizing_rejects_non_finite(value):
    with pytest.raises(DesignError, match="reactive_power must be positive and finite"):
        hf.capacitor_from_reactive_power(value, BASIS)
    with pytest.raises(DesignError, match="capacitance must be positive and finite"):
        hf.reactive_power_of_capacitor(value, BASIS)


@pytest.mark.parametrize("q", [math.inf, math.nan, 0.0])
def test_design_rejects_bad_quality_before_warning(q):
    # filterwarnings = error would turn a warning issued first into the failure.
    with pytest.raises(DesignError, match="quality_factor must be positive and finite"):
        hf.design_single_tuned(BASIS, 5, REF_C, q)
    with pytest.raises(DesignError, match="quality_factor must be positive and finite"):
        hf.design_high_pass(BASIS, 858.3, REF_C, q)



# --- serialization ---------------------------------------------------------


def test_bank_json_round_trip(ref_bank):
    restored = bank_from_dict(json.loads(json.dumps(bank_to_dict(ref_bank), indent=2)))
    assert restored == ref_bank


def test_bank_json_layout(ref_bank):
    doc = bank_to_dict(ref_bank)
    assert set(doc) == {"fundamental_hz", "branches"}
    kinds = [b["kind"] for b in doc["branches"]]
    assert kinds == ["single_tuned"] * 4 + ["high_pass"]
    for b in doc["branches"]:
        if b["kind"] == "single_tuned":
            assert set(b) == {"kind", "order", "c_farads", "l_henries", "r_ohms"}
        else:
            assert set(b) == {"kind", "c_farads", "l_henries", "r_ohms"}


def test_bank_json_rejects_unknown_key(ref_bank):
    doc = bank_to_dict(ref_bank)
    doc["branches"][0]["color"] = "blue"
    with pytest.raises(DesignError, match="color"):
        bank_from_dict(doc)


@pytest.mark.parametrize("index, key", [(0, "q"), (4, "q"), (4, "corner_hz")])
def test_bank_json_rejects_derived_keys(ref_bank, index, key):
    # Old bank files stored q and the corner beside R, L and C.
    doc = bank_to_dict(ref_bank)
    doc["branches"][index][key] = 1.0
    with pytest.raises(DesignError, match=rf"unknown key '{key}' in bank\.branches\[{index}\]"):
        bank_from_dict(doc)


def test_bank_json_rejects_missing_key(ref_bank):
    doc = bank_to_dict(ref_bank)
    del doc["branches"][0]["r_ohms"]
    with pytest.raises(DesignError, match="r_ohms"):
        bank_from_dict(doc)


def test_bank_json_full_precision(ref_bank):
    text = json.dumps(bank_to_dict(ref_bank), indent=2)
    doc = json.loads(text)
    assert doc["branches"][0]["l_henries"] == ref_bank.branches[0].inductance_h
