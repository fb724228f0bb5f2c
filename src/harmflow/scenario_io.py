"""Strict JSON loading and saving of simulation scenarios.

A scenario document has top-level keys ``basis``, ``load``, ``solver`` and
an optional ``bank`` (the filter-bank serialization of
:func:`harmflow.design.bank_to_dict`).  The dataclass fields are the
schema: each section's keys are the fields of :class:`SystemBasis`,
:class:`RectifierLoad` and :class:`SolverConfig`, in order, and a section
is written with ``dataclasses.asdict``.  Unknown keys are rejected by name
and every value is validated at load time with a field-path error message.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, fields
from typing import Any, Mapping

from .design import (
    DesignError,
    SystemBasis,
    bank_from_dict,
    bank_to_dict,
    json_number,
    json_object,
)
from .simulator import RectifierLoad, Scenario, SolverConfig


class ScenarioError(ValueError):
    """Scenario document fails validation; the message carries the field path."""


# Each section is read into, and written from, the dataclass of its name.
_SECTIONS = {"basis": SystemBasis, "load": RectifierLoad, "solver": SolverConfig}


def scenario_from_dict(doc: Mapping[str, Any]) -> Scenario:
    json_object(doc, "scenario", tuple(_SECTIONS), ScenarioError, optional=["bank"])
    values = {}
    for name, cls in _SECTIONS.items():
        keys = [f.name for f in fields(cls)]
        section = json_object(doc[name], name, keys, ScenarioError)
        values[name] = {
            key: json_number(section[key], f"{name}.{key}", ScenarioError) for key in keys
        }
    iterations = values["solver"]["max_switch_iterations"]
    if isinstance(iterations, float) and not iterations.is_integer():
        raise ScenarioError(
            f"solver.max_switch_iterations must be a finite integer, got {iterations!r}"
        )
    values["solver"]["max_switch_iterations"] = int(iterations)

    sections = {}
    for name, cls in _SECTIONS.items():
        try:
            sections[name] = cls(**values[name])
        except ValueError as exc:
            raise ScenarioError(f"{name}: {exc}") from None

    bank = None
    if doc.get("bank") is not None:
        try:
            bank = bank_from_dict(doc["bank"], where="bank")
        except DesignError as exc:
            raise ScenarioError(str(exc)) from None
        basis = sections["basis"]
        if bank.fundamental_hz != basis.fundamental_hz:
            raise ScenarioError(
                f"bank.fundamental_hz ({bank.fundamental_hz!r}) must equal "
                f"basis.fundamental_hz ({basis.fundamental_hz!r})"
            )

    try:
        return Scenario(bank=bank, **sections)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def scenario_to_dict(scenario: Scenario) -> dict:
    doc = {name: asdict(getattr(scenario, name)) for name in _SECTIONS}
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
