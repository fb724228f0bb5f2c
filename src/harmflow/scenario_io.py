"""The two files of a harmflow study, and the types they carry: the
scenario JSON read in and the waveform CSV written out.

A scenario document has top-level keys ``basis``, ``load``, ``solver`` and
an optional ``bank`` (the filter-bank serialization of
:func:`harmflow.design.bank_to_dict`).  The dataclass fields are the
schema: each section's keys are the fields of :class:`SystemBasis`,
:class:`RectifierLoad` and :class:`SolverConfig`, in order, and a section
is written with ``dataclasses.asdict``.  A field that defaults to None
(``solver.record_cycles``) may be omitted and is not written when None.
Unknown keys are rejected by name and every value is validated at load
time with a field-path error message.

A waveform CSV is a header of column names, ``t_s`` first, then one line
of comma-separated ``%.17g`` values per sample.
:func:`write_waveform_csv` writes it and :func:`read_waveform_csv` reads
the named columns back, bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
import sys
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .analyzer import AnalysisError, samples_per_period
from .design import (
    FilterBank, SystemBasis, _require_positive, bank_from_dict, bank_to_dict, json_number,
    json_object,
)


# Most samples one run may record, checked before anything is allocated:
# 12 MB per column at 8 bytes a sample, 0.67 GB at the bundled bank's 56
# (37 history terms and 2 source-phase terms of ``w``, 17 channels).  The
# longest bundled study, the 1.2 s settled run, records 120k samples.
MAX_SAMPLES = 1_500_000


@dataclass(frozen=True)
class RectifierLoad:
    """Six-pulse bridge load: per-phase front-end inductance into the bridge,
    parallel R-C on the DC bus."""

    front_end_inductance_h: float = 0.023
    load_resistance_ohm: float = 78.0
    load_capacitance_f: float = 50e-6

    def __post_init__(self) -> None:
        _require_positive(**asdict(self))


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-step solver settings.

    Defaults resolve a 50 Hz system with 2000 samples per cycle and leave
    ample settling time before the analysis window.
    """

    dt_s: float = 1e-5
    duration_s: float = 0.5
    # Whole fundamental periods kept at the end of the run; None keeps all.
    record_cycles: int | None = None

    def __post_init__(self) -> None:
        _require_positive(dt_s=self.dt_s, duration_s=self.duration_s)
        samples = self.duration_s / self.dt_s
        # The solver records round(samples) samples; round(1.5) is 2.
        if not 1.5 <= samples < MAX_SAMPLES + 0.5:
            raise ValueError(
                f"duration_s / dt_s must be finite and round to at least 2 and "
                f"at most {MAX_SAMPLES} samples, got {samples!r}"
            )
        cycles = self.record_cycles
        if cycles is not None and not (type(cycles) is int and cycles >= 1):
            raise ValueError(f"record_cycles must be a positive integer, got {cycles!r}")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s / self.dt_s))


@dataclass(frozen=True)
class Scenario:
    """Complete simulation case: source, rectifier load, optional bank.

    A bank must be designed for the basis's fundamental."""

    basis: SystemBasis
    load: RectifierLoad
    bank: FilterBank | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self) -> None:
        if self.bank is not None and self.bank.fundamental_hz != self.basis.fundamental_hz:
            raise ValueError(
                f"bank.fundamental_hz ({self.bank.fundamental_hz!r}) must equal "
                f"basis.fundamental_hz ({self.basis.fundamental_hz!r})"
            )
        min_duration = 10.0 * self.basis.period_s
        if self.solver.duration_s < min_duration:
            raise ValueError(
                f"duration_s must cover at least 10 fundamental periods "
                f"({min_duration!r} s), got {self.solver.duration_s!r}"
            )
        self.first_recorded_step()

    def first_recorded_step(self) -> int:
        """Step at which the record starts: 0, or the first step of the
        last ``solver.record_cycles`` whole fundamental periods."""
        cycles = self.solver.record_cycles
        if cycles is None:
            return 0
        try:
            spp = samples_per_period(1.0 / self.solver.dt_s, self.basis.fundamental_hz)
        except AnalysisError as exc:
            raise ValueError(f"solver.record_cycles: {exc}") from None
        n = self.solver.n_samples
        if cycles * spp > n:
            raise ValueError(
                f"solver.record_cycles must be at most the {n // spp} whole "
                f"periods the run holds, got {cycles!r}"
            )
        return n - cycles * spp


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
        bank = None if doc.get("bank") is None else bank_from_dict(doc["bank"])
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


# Rows of a waveform CSV formatted at a time.  The formatter holds about
# 280 bytes of temporaries a value: 5.2 MB for 1024 rows of 18 columns,
# below the 9.8 MB the bundled filtered run traces, so the solver and not
# the writer sets the peak memory of `simulate`.
_CSV_ROWS = 1024


def write_waveform_csv(path, names, columns) -> None:
    """Write the header ``names`` (``t_s`` first), then one line per row of
    the equal-length ``columns``, one column per name.

    Every value is written as ``%.17g``: 17 significant digits, which read
    back as the same double, so the round trip is exact.  The text is that
    of ``"%.17g" % v`` byte for byte.  It is formed ``_CSV_ROWS`` (1024)
    rows at a time by a vectorised formatter, which leaves each value it
    cannot prove exact to Python's formatter (see ``_format_g17``).  The
    block size sets the writer's working set, and does not change the text.
    """
    seps = np.full((_CSV_ROWS, len(columns)), ord(","), dtype=np.uint8)
    seps[:, -1] = ord("\n")
    with open(path, "w") as out:
        out.write(",".join(names) + "\n")
        for lo in range(0, len(columns[0]), _CSV_ROWS):
            rows = np.column_stack([c[lo : lo + _CSV_ROWS] for c in columns])
            text = _format_g17(rows.ravel(), seps[: len(rows)].ravel())
            out.write(text.decode("ascii"))


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split: x = hi + lo, each with at most 26 significant bits,
    so that the product of two halves is exact."""
    t = x * 134217729.0  # 2^27 + 1
    hi = t - (t - x)
    return hi, x - hi


@functools.cache
def _g17_tables() -> tuple[np.ndarray, ...]:
    """The tables of ``_format_g17``, built on its first call.

    Indexed by e + 281 for the decimal exponents e = -281 .. 280:
    10^(16 - e) as a double-double (its high part also split into 26-bit
    halves for Dekker's product), the text before the digits ("0." to
    "0.000" for -4 <= e < 0) and after them ("e-05", "e+17", "e-281"),
    each NUL-padded to 8 bytes, the slot of the point among the 18 digit
    and point slots (17 when there is none), and the fewest digits kept
    (the integer digits in positional notation).  Indexed by a number
    below 10^4: its 4 digits as text, and its trailing zeros (4 for 0).
    """
    e = np.arange(-281, 281)
    hi, lo = [], []
    for k in (16 - e).tolist():
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        # An int quotient is correctly rounded, so hi is the nearest
        # double and lo the nearest to what hi leaves out.
        hi.append(num / den)
        n, d = hi[-1].as_integer_ratio()
        lo.append((num * d - n * den) / (den * d))
    hi = np.array(hi)
    small = (e >= -4) & (e < 0)
    expo = (e < -4) | (e > 16)
    before = ["0." + "0" * (-x - 1) if s else "" for x, s in zip(e.tolist(), small)]
    after = [f"e{x:+03d}" if s else "" for x, s in zip(e.tolist(), expo)]

    def padded(texts: list[str]) -> np.ndarray:
        return np.frombuffer("".join(t.ljust(8, "\0") for t in texts).encode(), np.uint64)

    point = np.where(expo, 1, np.where(small, 17, e + 1)).astype(np.uint8)
    least = np.where(expo | small, 0, e + 1).astype(np.uint8)
    c = np.arange(10_000)
    digits = (c[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    zeros = sum((c % m == 0).astype(np.uint8) for m in (10, 100, 1000, 10_000))
    tables = (
        hi, *_split(hi), np.array(lo), padded(before), padded(after),
        point, least, digits.view(np.uint32).ravel(), zeros,
    )
    for t in tables:
        t.flags.writeable = False  # shared by every call
    return tables


def _format_g17(v: np.ndarray, sep: np.ndarray) -> bytes:
    """``"%.17g" % x`` for each double x of ``v``, each followed by its
    separator byte from ``sep``, as one ASCII string.

    With e = floor(log10|x|), |x| 10^(16 - e) is formed as a double-double
    ``ph + pl``: 10^(16 - e) comes from a table as the sum of two doubles,
    and Dekker's split product (Numer. Math. 18, 1971) gives ``|x|`` times
    the high part exactly, so the sum is within 1e-14 of the true product.
    It is rounded to the 17-digit integer q, whose digits with e fix the
    text.  As in Grisu3 (Loitsch, PLDI 2010), a value is laid out this way
    only where that is provably Python's text: |x| between 1e-280 and
    1e280, so that no intermediate leaves the normal range, a product of
    at least 1e16 whose fraction is not within 1e-6 of one half (where a
    tie, rounded half to even, or the error could decide the last digit),
    and q below 1e17.  Zeros are laid out too.  Every other value, such as
    a non-finite one, a subnormal, or one that log10 puts in the wrong
    decade, is written by Python's own formatter.
    """
    ten_hi, ten_hh, ten_hl, ten_lo, before, after, point, least, digits, zeros = (
        _g17_tables()
    )
    n = len(v)
    a = np.abs(v)
    zero = a == 0.0
    fast = (a >= 1e-280) & (a < 1e280)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    e += 281
    # Dekker: with a and the power's high part split in halves, every
    # partial product is exact.
    ph = a * ten_hi.take(e)
    ah, al = _split(a)
    bh, bl = ten_hh.take(e), ten_hl.take(e)
    pl = ah * bh - ph
    pl += ah * bl
    pl += al * bh
    pl += al * bl
    pl += a * ten_lo.take(e)
    # ph >= 2^53 is an integer, so q = ph + floor(pl) is the floor of the
    # product, and pl is left with its fraction.
    floor = np.floor(pl)
    pl -= floor
    q = ph.astype(np.int64)
    q += floor.astype(np.int64)
    fast &= (np.abs(pl - 0.5) > 1e-6) & (q >= 10**16)
    q += pl > 0.5
    fast &= q < 10**17
    fast |= zero
    q[zero] = 0
    e[zero] = 281

    def quotient_remainder(x, m):
        # Floor division by a constant is much faster than numpy's modulo.
        top = x // m
        return top, x - top * m

    # q's 17 digits: the first, then four of 4 digits each.
    upper, lower = quotient_remainder(q, 10**8)
    first, upper = quotient_remainder(upper, 10**8)
    quads = [*quotient_remainder(upper, 10**4), *quotient_remainder(lower, 10**4)]
    # Trailing zeros of the last 16 digits, chunk by chunk from the left.
    trailing = zeros.take(quads[0])
    for quad in quads[1:]:
        trailing *= quad == 0
        trailing += zeros.take(quad)
    p = point.take(e)
    # Slots kept of the 18: the significant digits, at least the integer
    # digits, and the point if a digit follows it.
    kept = np.maximum(17 - trailing, least.take(e))
    kept += kept > p

    # Column j is the text of value j: sign, "0.000" prefix, 17 digits
    # with the point, exponent and separator; unused slots are NUL.
    block = np.empty((30, n), dtype=np.uint8)
    np.multiply(np.signbit(v), np.uint8(ord("-")), out=block[0])
    block[1:6] = before.take(e).view(np.uint8).reshape(n, 8).T[:5]
    # Digit i at row i + 1, between NUL rows; slot s takes digit s before
    # the point and digit s - 1 after it (uint8 sums wrap, so they are
    # exact).
    d = np.zeros((19, n), dtype=np.uint8)
    np.add(first, ord("0"), out=d[1], casting="unsafe")
    for i, quad in enumerate(quads):
        d[2 + 4 * i : 6 + 4 * i] = digits.take(quad).view(np.uint8).reshape(n, 4).T
    slots = block[6:24]
    slot = np.arange(18, dtype=np.uint8)[:, None]
    np.subtract(d[:18], d[1:], out=slots)
    slots *= slot > p
    slots += d[1:]
    slots[p, np.arange(n)] = ord(".")
    slots *= slot < kept
    block[24:29] = after.take(e).view(np.uint8).reshape(n, 8).T[:5]
    block[29] = sep
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = "".join(("%.17g" % x).ljust(29, "\0") for x in v[slow].tolist())
        block[:29, slow] = np.frombuffer(text.encode(), np.uint8).reshape(-1, 29).T
    return block.T.tobytes().translate(None, b"\0")


def read_waveform_csv(path, channels) -> tuple[list[np.ndarray], float, float]:
    """Return (the ``channels`` columns, sample rate, first ``t_s``) of a
    waveform CSV.  The columns come in the order of ``channels``, each
    finite throughout; ``t_s`` must be finite and evenly spaced.

    Each channel is checked against the header before the body is read.
    The body is checked whole before any of it is converted: a body of
    plain numbers only by :func:`_plain_numbers`, any other line by line
    by :func:`_first_bad_line`.  Then ``t_s`` and ``channels`` alone are
    converted."""
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
    if "\r" in header or not _plain_numbers(raw, body, len(names)):
        bad = _first_bad_line(decode_utf8(raw, path, AnalysisError), names)
        if bad is not None:
            raise AnalysisError(f"{path}: {bad}")
    del raw  # np.loadtxt reads the file itself.
    usecols = sorted({0, *wanted})
    with warnings.catch_warnings():
        # A file without data rows is reported below.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        data = np.loadtxt(
            path, delimiter=",", skiprows=1, ndmin=2, usecols=usecols, encoding="utf-8"
        )
    if len(data) < 2:
        raise AnalysisError(f"{path}: need at least two data rows")
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


def _data_lines(text: str):
    """Line number and text of each data line of a waveform CSV's ``text``,
    counting the header as line 1, with line ends as text-mode reading
    splits them.  A line that is empty once its comment is cut off is
    skipped, as np.loadtxt skips it; one of spaces is a line of one field."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for number, line in enumerate(lines[1:], start=2):
        line = line.split("#", 1)[0]
        if line:
            yield number, line


def _line_number(path, row: int) -> int:
    """Line number of data row ``row`` (from 0) of a waveform CSV."""
    text = Path(path).read_text(encoding="utf-8")
    return next(itertools.islice(_data_lines(text), row, None))[0]


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


def _first_bad_line(text: str, names: list[str]) -> str | None:
    """Describe the first line of a waveform CSV's ``text`` whose field
    count differs from the header's ``names`` or which holds a field that
    is not a number; None if there is none, and np.loadtxt then reads any
    of its columns."""
    for number, line in _data_lines(text):
        cells = line.split(",")
        if len(cells) != len(names):
            return f"line {number} has {len(cells)} fields, expected {len(names)}"
        for name, value in zip(names, cells):
            if not _NUMBER.fullmatch(value.strip()):
                return f"line {number}: {name} value {value.strip()!r} is not a number"
    return None
