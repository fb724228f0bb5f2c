"""Strict JSON loading of simulation scenarios, and their document form.

A scenario document has top-level keys ``basis``, ``load``, ``solver`` and
an optional ``bank`` (the filter-bank serialization of
:func:`harmflow.design.bank_to_dict`).  The dataclass fields are the
schema: each section's keys are the fields of :class:`SystemBasis`,
:class:`RectifierLoad` and :class:`SolverConfig`, in order, and a section
is written with ``dataclasses.asdict``.  A field that defaults to None
(``solver.record_cycles``) may be omitted and is not written when None.
Unknown keys are rejected by name and every value is validated at load
time with a field-path error message.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, fields
from typing import Any, Mapping

from .design import (
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
        # A field that defaults to None may be omitted.
        keys = [f.name for f in fields(cls) if f.default is not None]
        optional = [f.name for f in fields(cls) if f.default is None]
        section = json_object(doc[name], name, keys, ScenarioError, optional=optional)
        values[name] = {
            key: json_number(value, f"{name}.{key}", ScenarioError)
            for key, value in section.items()
        }
    # A count may be written as a float with an integer value.
    cycles = values["solver"].get("record_cycles")
    if isinstance(cycles, float):
        if not cycles.is_integer():
            raise ScenarioError(f"solver.record_cycles must be a finite integer, got {cycles!r}")
        values["solver"]["record_cycles"] = int(cycles)

    sections = {}
    for name, cls in _SECTIONS.items():
        try:
            sections[name] = cls(**values[name])
        except ValueError as exc:
            # Each message starts with the field name.
            raise ScenarioError(f"{name}.{exc}") from None

    try:
        bank = None if doc.get("bank") is None else bank_from_dict(doc["bank"], where="bank")
        return Scenario(bank=bank, **sections)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def scenario_to_dict(scenario: Scenario) -> dict:
    doc = {
        name: {k: v for k, v in asdict(getattr(scenario, name)).items() if v is not None}
        for name in _SECTIONS
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


def decode_utf8(raw: bytes, path, error: type[ValueError] = ScenarioError) -> str:
    """The text of file ``path``, whose bytes are ``raw``; bytes that are
    not UTF-8 raise ``error`` naming the path and the line, counted as
    text-mode reading counts them."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        line = head.count(b"\n") + 1
        raise error(
            f"{path}: line {line}: cannot decode byte 0x{raw[exc.start]:02x} "
            f"as UTF-8: {exc.reason}"
        ) from None


def load_json(path) -> Any:
    """Read a UTF-8 JSON file.

    ``json.JSONDecodeError`` (with line/column) propagates for malformed
    JSON; bytes that are not UTF-8 and an integer literal too long to
    convert raise :class:`ScenarioError` starting with the path.
    """
    with open(path, "rb") as fh:
        text = decode_utf8(fh.read(), path)
    # Line ends as text-mode reading gives them: json counts them in errors.
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text, parse_int=_parse_int)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file (see :func:`load_json`);
    validation failures raise :class:`ScenarioError`."""
    return scenario_from_dict(load_json(path))
