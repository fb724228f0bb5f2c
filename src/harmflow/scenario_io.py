"""Strict JSON loading and saving of simulation scenarios.

A scenario document has top-level keys ``basis``, ``load``, ``solver`` and
an optional ``bank`` (the filter-bank serialization).  Unknown keys are
rejected by name and every value is validated at load time with a
field-path error message.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Mapping

from .design import DesignError, SystemBasis, bank_from_dict, bank_to_dict, json_number
from .simulator import RectifierLoad, Scenario, SolverConfig


class ScenarioError(ValueError):
    """Scenario document fails validation; the message carries the field path."""


_BASIS_KEYS = ("fundamental_hz", "source_vrms", "source_inductance_h")
_LOAD_KEYS = ("front_end_inductance_h", "load_resistance_ohm", "load_capacitance_f")
_SOLVER_KEYS = (
    "dt_s",
    "duration_s",
    "diode_on_ohm",
    "diode_off_ohm",
    "max_switch_iterations",
)


def _section(doc: Mapping[str, Any], name: str, keys: tuple[str, ...]) -> dict:
    section = doc[name]
    if not isinstance(section, dict):
        raise ScenarioError(f"{name} must be a JSON object")
    unknown = set(section) - set(keys)
    if unknown:
        raise ScenarioError(f"unknown key {sorted(unknown)[0]!r} in {name}")
    out = {}
    for key in keys:
        if key not in section:
            raise ScenarioError(f"missing key {name}.{key}")
        out[key] = json_number(section[key], f"{name}.{key}", ScenarioError)
    return out


def scenario_from_dict(doc: Mapping[str, Any]) -> Scenario:
    if not isinstance(doc, Mapping):
        raise ScenarioError("scenario must be a JSON object")
    unknown = set(doc) - {"basis", "load", "bank", "solver"}
    if unknown:
        raise ScenarioError(f"unknown key {sorted(unknown)[0]!r} in scenario")
    for required in ("basis", "load", "solver"):
        if required not in doc:
            raise ScenarioError(f"missing key {required!r} in scenario")

    basis_doc = _section(doc, "basis", _BASIS_KEYS)
    load_doc = _section(doc, "load", _LOAD_KEYS)
    solver_doc = _section(doc, "solver", _SOLVER_KEYS)
    iterations = solver_doc["max_switch_iterations"]
    if isinstance(iterations, float) and not iterations.is_integer():
        raise ScenarioError(
            f"solver.max_switch_iterations must be a finite integer, got {iterations!r}"
        )
    solver_doc["max_switch_iterations"] = int(iterations)

    try:
        basis = SystemBasis(**basis_doc)
    except ValueError as exc:
        raise ScenarioError(f"basis: {exc}") from None
    try:
        load = RectifierLoad(**load_doc)
    except ValueError as exc:
        raise ScenarioError(f"load: {exc}") from None
    try:
        solver = SolverConfig(**solver_doc)
    except ValueError as exc:
        raise ScenarioError(f"solver: {exc}") from None

    bank = None
    if "bank" in doc and doc["bank"] is not None:
        try:
            bank = bank_from_dict(doc["bank"], where="bank")
        except DesignError as exc:
            raise ScenarioError(str(exc)) from None
        if bank.fundamental_hz != basis.fundamental_hz:
            raise ScenarioError(
                f"bank.fundamental_hz ({bank.fundamental_hz!r}) must equal "
                f"basis.fundamental_hz ({basis.fundamental_hz!r})"
            )

    try:
        return Scenario(basis=basis, load=load, bank=bank, solver=solver)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def scenario_to_dict(scenario: Scenario) -> dict:
    doc: dict[str, Any] = {
        "basis": {
            "fundamental_hz": scenario.basis.fundamental_hz,
            "source_vrms": scenario.basis.source_vrms,
            "source_inductance_h": scenario.basis.source_inductance_h,
        },
        "load": {
            "front_end_inductance_h": scenario.load.front_end_inductance_h,
            "load_resistance_ohm": scenario.load.load_resistance_ohm,
            "load_capacitance_f": scenario.load.load_capacitance_f,
        },
        "solver": {
            "dt_s": scenario.solver.dt_s,
            "duration_s": scenario.solver.duration_s,
            "diode_on_ohm": scenario.solver.diode_on_ohm,
            "diode_off_ohm": scenario.solver.diode_off_ohm,
            "max_switch_iterations": scenario.solver.max_switch_iterations,
        },
    }
    if scenario.bank is not None:
        doc["bank"] = bank_to_dict(scenario.bank)
    return doc


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        # A JSON integer literal fails only Python's digit limit.
        raise ScenarioError(
            f"integer literal too long: {len(text.lstrip('-'))} digits, "
            f"at most {sys.get_int_max_str_digits()} are read"
        ) from None


def load_json(path) -> Any:
    """Read a JSON file.

    ``json.JSONDecodeError`` (with line/column) propagates for malformed
    JSON; an integer literal too long to convert raises
    :class:`ScenarioError` starting with the path.
    """
    with open(path) as fh:
        try:
            return json.load(fh, parse_int=_parse_int)
        except ScenarioError as exc:
            raise ScenarioError(f"{path}: {exc}") from None


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file (see :func:`load_json`);
    validation failures raise :class:`ScenarioError`."""
    return scenario_from_dict(load_json(path))


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2)
        fh.write("\n")
