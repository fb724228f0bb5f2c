"""Closed-form sizing of shunt harmonic filter branches.

A single-tuned branch is a series R-L-C connected phase to neutral.  The
capacitor is sized from a reactive-power budget at the fundamental,

    Q_var = V^2 / Xc,        Xc = 1 / (2*pi*f*C),

the inductor is tuned so the inductive and capacitive reactances cancel at
the target harmonic,

    L = 1 / ((2*pi*h*f)^2 * C),

and the damping resistor follows from the chosen quality factor

    q = sqrt(L/C) / R.

A second-order high-pass branch keeps the series capacitor but places R in
parallel with L.  Its corner frequency satisfies the same L-C relation and
its quality factor uses the reciprocal convention q = R / X_L, with X_L
evaluated at the corner (where X_L = X_C).

A branch stores R, L and C (and a tuned branch its order), each checked
positive and finite by its type; q, the tuned frequency and the corner
derive from them, so the bank JSON holds no ``q`` or ``corner_hz``.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field, fields
from typing import Iterable, Mapping, Sequence

TWO_PI = 2.0 * math.pi

# Recommended quality-factor ranges.  Out-of-range values warn rather than
# fail: practical designs (including the bundled reference bank) sometimes
# sit just outside them.
SINGLE_TUNED_Q_RANGE = (20.0, 100.0)
HIGH_PASS_Q_RANGE = (0.5, 5.0)

SIX_PULSE_ORDERS = (5, 7, 11, 13)


class DesignError(ValueError):
    """Raised when a design quantity is outside its mathematical domain."""


class QualityFactorWarning(UserWarning):
    """Chosen quality factor lies outside the recommended range."""


def _require_positive(**values: float) -> None:
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise DesignError(f"{name} must be positive and finite, got {value!r}")


def _resonant_hz(l: float, c: float) -> float:
    """1/(2*pi*sqrt(LC)), where the reactances of ``l`` and ``c`` cancel."""
    return 1.0 / (TWO_PI * math.sqrt(l * c))


@dataclass(frozen=True)
class SystemBasis:
    """Electrical context shared by design and simulation.

    ``source_vrms`` is the per-phase (phase-to-neutral) RMS voltage.  Use
    :meth:`from_line_to_line` when the known figure is the line-to-line
    voltage instead.
    """

    fundamental_hz: float = 50.0
    source_vrms: float = 220.0
    source_inductance_h: float = 0.0016

    def __post_init__(self) -> None:
        _require_positive(fundamental_hz=self.fundamental_hz)
        # Zero volts is allowed so unexcited networks can be simulated.
        for name in ("source_vrms", "source_inductance_h"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise DesignError(f"{name} must be non-negative and finite, got {value!r}")

    @classmethod
    def from_line_to_line(
        cls, fundamental_hz: float, line_vrms: float, source_inductance_h: float
    ) -> "SystemBasis":
        """Build a basis from a line-to-line RMS voltage."""
        return cls(fundamental_hz, line_vrms / math.sqrt(3.0), source_inductance_h)

    @property
    def period_s(self) -> float:
        return 1.0 / self.fundamental_hz


@dataclass(frozen=True)
class SingleTunedFilter:
    """Series R-L-C shunt branch tuned to one harmonic order."""

    order: float
    capacitance_f: float
    inductance_h: float
    resistance_ohm: float

    def __post_init__(self) -> None:
        _require_positive(
            capacitance_f=self.capacitance_f,
            inductance_h=self.inductance_h,
            resistance_ohm=self.resistance_ohm,
        )
        if not 2.0 <= self.order < math.inf:
            raise DesignError(f"order must be >= 2 and finite, got {self.order!r}")

    @property
    def tuned_hz(self) -> float:
        """Frequency where the branch reactances cancel."""
        return _resonant_hz(self.inductance_h, self.capacitance_f)

    @property
    def quality_factor(self) -> float:
        """sqrt(L/C)/R."""
        return math.sqrt(self.inductance_h / self.capacitance_f) / self.resistance_ohm


@dataclass(frozen=True)
class HighPassFilter:
    """Shunt branch with C in series with a parallel R-L damping section."""

    capacitance_f: float
    inductance_h: float
    resistance_ohm: float

    def __post_init__(self) -> None:
        _require_positive(
            capacitance_f=self.capacitance_f,
            inductance_h=self.inductance_h,
            resistance_ohm=self.resistance_ohm,
        )

    @property
    def corner_hz(self) -> float:
        """Frequency where X_L = X_C."""
        return _resonant_hz(self.inductance_h, self.capacitance_f)

    @property
    def quality_factor(self) -> float:
        """R/X_L at the corner, where X_L = sqrt(L/C)."""
        return self.resistance_ohm / math.sqrt(self.inductance_h / self.capacitance_f)


FilterBranch = SingleTunedFilter | HighPassFilter


@dataclass(frozen=True)
class FilterBank:
    """Ordered collection of shunt branches sharing one bus.

    A bank holds at least one branch, each a :class:`SingleTunedFilter` or
    a :class:`HighPassFilter`; an unfiltered case has no bank at all.  A
    single-tuned branch's order must be the harmonic nearest its L-C
    resonance: ``tuned_hz / fundamental_hz`` lies at most half a harmonic
    from it, so a branch tuned to 4.7 may be order 5.  Single-tuned orders
    must be strictly increasing and at most one high-pass branch is
    allowed; its corner must sit above the highest tuned frequency.
    """

    fundamental_hz: float
    branches: tuple[FilterBranch, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        # The order rule divides by it.
        _require_positive(fundamental_hz=self.fundamental_hz)
        object.__setattr__(self, "branches", tuple(self.branches))
        if not self.branches:
            raise DesignError(
                "branches must hold at least one branch (an unfiltered run has no bank)"
            )
        for i, b in enumerate(self.branches):
            if not isinstance(b, FilterBranch):
                raise DesignError(
                    f"branches[{i}] must be a SingleTunedFilter or a HighPassFilter, "
                    f"got {type(b).__name__}"
                )
            if isinstance(b, SingleTunedFilter):
                h = b.tuned_hz / self.fundamental_hz
                if not abs(h - b.order) <= 0.5:
                    raise DesignError(
                        f"branches[{i}].order {b.order:g} lies more than half a "
                        f"harmonic from harmonic {h:.6g}, where its L and C "
                        f"resonate ({b.tuned_hz:.6g} Hz)"
                    )
        orders = [b.order for b in self.single_tuned]
        if any(prev >= nxt for prev, nxt in zip(orders, orders[1:])):
            raise DesignError(f"tuned orders must be strictly increasing, got {orders}")
        hp = self.high_pass
        if len(hp) > 1:
            raise DesignError("at most one high-pass branch is allowed")
        if hp and self.single_tuned:
            top = max(b.tuned_hz for b in self.single_tuned)
            if hp[0].corner_hz <= top:
                raise DesignError(
                    f"high-pass corner {hp[0].corner_hz!r} Hz must lie above the "
                    f"highest tuned frequency {top!r} Hz"
                )

    @property
    def single_tuned(self) -> tuple[SingleTunedFilter, ...]:
        return tuple(b for b in self.branches if isinstance(b, SingleTunedFilter))

    @property
    def high_pass(self) -> tuple[HighPassFilter, ...]:
        return tuple(b for b in self.branches if isinstance(b, HighPassFilter))


def reactive_power_of_capacitor(c: float, basis: SystemBasis) -> float:
    """Fundamental-frequency reactive power V^2/Xc drawn by capacitance ``c``."""
    _require_positive(capacitance=c)
    xc = 1.0 / (TWO_PI * basis.fundamental_hz * c)
    return basis.source_vrms**2 / xc


def capacitor_from_reactive_power(q_var: float, basis: SystemBasis) -> float:
    """Capacitance supplying ``q_var`` VAR at the fundamental; inverse of
    :func:`reactive_power_of_capacitor`."""
    _require_positive(reactive_power=q_var)
    if basis.source_vrms == 0.0:
        raise DesignError("cannot size a capacitor against a zero-volt basis")
    xc = basis.source_vrms**2 / q_var
    return 1.0 / (TWO_PI * basis.fundamental_hz * xc)


def tune_inductor(c: float, order: float, basis: SystemBasis) -> float:
    """Inductance resonating with ``c`` at ``order`` times the fundamental."""
    _require_positive(capacitance=c)
    if not 1.0 <= order < math.inf:
        raise DesignError(f"harmonic order must be >= 1 and finite, got {order!r}")
    return _resonant_inductor(TWO_PI * order * basis.fundamental_hz, c)


def _resonant_inductor(w: float, c: float) -> float:
    """L = 1/(w^2 C), resonating with ``c`` at ``w`` rad/s; DesignError when
    it is too large for a double."""
    w2c = w * w * c
    l = 1.0 / w2c if w2c > 0.0 else math.inf
    if l == math.inf:
        raise DesignError(
            f"inductance 1/(w^2 C) for C = {c!r} F at w = {w!r} rad/s is too large "
            "for a double"
        )
    return l


def resistor_from_quality(l: float, c: float, q: float) -> float:
    """Series resistance giving quality factor ``q``: R = sqrt(L/C)/q."""
    _require_positive(inductance=l, capacitance=c, quality_factor=q)
    return math.sqrt(l / c) / q


def _warned(branch: FilterBranch, kind: str, q: float, q_range: tuple[float, float]):
    """``branch``, after a QualityFactorWarning if ``q`` is outside ``q_range``."""
    if not q_range[0] <= q <= q_range[1]:
        warnings.warn(
            f"{kind} quality factor {q:.4g} outside recommended range "
            f"[{q_range[0]:g}, {q_range[1]:g}]",
            QualityFactorWarning,
            stacklevel=3,
        )
    return branch


def design_single_tuned(
    basis: SystemBasis, order: float, c: float, q: float
) -> SingleTunedFilter:
    """Size a series R-L-C branch tuned to ``order`` times the fundamental."""
    l = tune_inductor(c, order, basis)
    branch = SingleTunedFilter(order, c, l, resistor_from_quality(l, c, q))
    return _warned(branch, "single-tuned", q, SINGLE_TUNED_Q_RANGE)


def design_high_pass(
    basis: SystemBasis, corner_hz: float, c: float, q: float
) -> HighPassFilter:
    """Size a high-pass branch with the given corner frequency.

    L places the corner at ``corner_hz`` for the chosen capacitor and the
    damping resistor follows from R = q * X_L(corner).
    """
    _require_positive(corner_hz=corner_hz, capacitance=c, quality_factor=q)
    w = TWO_PI * corner_hz
    l = _resonant_inductor(w, c)
    return _warned(HighPassFilter(c, l, q * w * l), "high-pass", q, HIGH_PASS_Q_RANGE)


def design_bank(
    basis: SystemBasis,
    orders: Sequence[float],
    c_per_branch: float,
    st_q: float | Sequence[float],
    hp_corner_hz: float,
    hp_q: float,
) -> FilterBank:
    """Design one single-tuned branch per order plus one high-pass branch.

    ``st_q`` may be a single quality factor shared by every tuned branch or
    one value per order.
    """
    orders = tuple(orders)
    if not orders:
        raise DesignError("at least one tuned order is required")
    if isinstance(st_q, numbers.Real):
        qs = (float(st_q),) * len(orders)
    else:
        qs = tuple(float(v) for v in st_q)
        if len(qs) != len(orders):
            raise DesignError(
                f"expected {len(orders)} quality factors, got {len(qs)}"
            )
    branches: list[FilterBranch] = [
        design_single_tuned(basis, h, c_per_branch, q) for h, q in zip(orders, qs)
    ]
    branches.append(design_high_pass(basis, hp_corner_hz, c_per_branch, hp_q))
    return FilterBank(fundamental_hz=basis.fundamental_hz, branches=tuple(branches))


def design_bank_six_pulse(
    basis: SystemBasis,
    c_per_branch: float,
    st_q: float | Sequence[float],
    hp_corner_hz: float,
    hp_q: float,
) -> FilterBank:
    """Standard six-pulse bank: tuned branches at orders 5, 7, 11, 13 plus a
    high-pass branch for the residual high-order content."""
    return design_bank(basis, SIX_PULSE_ORDERS, c_per_branch, st_q, hp_corner_hz, hp_q)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


# JSON key of each branch field, in file order; a branch kind writes the
# keys of its own fields.
_BRANCH_KEYS = {
    "order": "order",
    "c_farads": "capacitance_f",
    "l_henries": "inductance_h",
    "r_ohms": "resistance_ohm",
}
_BRANCH_KINDS = {"single_tuned": SingleTunedFilter, "high_pass": HighPassFilter}


def _branch_keys(cls: type) -> dict[str, str]:
    names = {f.name for f in fields(cls)}
    return {key: name for key, name in _BRANCH_KEYS.items() if name in names}


def bank_to_dict(bank: FilterBank) -> dict:
    kinds = {cls: kind for kind, cls in _BRANCH_KINDS.items()}
    branches = [
        {
            "kind": kinds[type(b)],
            **{key: getattr(b, name) for key, name in _branch_keys(type(b)).items()},
        }
        for b in bank.branches
    ]
    return {"fundamental_hz": bank.fundamental_hz, "branches": branches}


def json_number(value, path: str, error: type[ValueError] = DesignError):
    """``value`` unchanged if it is a JSON number (an int or float, not a
    bool) that fits a double; otherwise ``error`` naming the field
    ``path``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{path} must be a number, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise error(
            f"{path} must be finite, got an integer too large for a double"
        ) from None
    return value


def json_object(
    value,
    path: str,
    keys: Sequence[str],
    error: type[ValueError] = DesignError,
    optional: Iterable[str] = (),
) -> Mapping:
    """``value`` unchanged if it is a JSON object holding every key of
    ``keys`` and no key outside ``keys`` and ``optional``; otherwise
    ``error`` naming the object ``path``."""
    if not isinstance(value, Mapping):
        raise error(f"{path} must be a JSON object")
    unknown = set(value).difference(keys, optional)
    if unknown:
        raise error(f"unknown key {sorted(unknown)[0]!r} in {path}")
    for key in keys:
        if key not in value:
            raise error(f"missing key {path}.{key}")
    return value


def _branch_from_dict(doc, where: str) -> FilterBranch:
    kind = json_object(doc, where, ("kind",), optional=_BRANCH_KEYS)["kind"]
    # An unhashable kind (an array or object) is no key of the table.
    cls = _BRANCH_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise DesignError(f"{where}.kind must be 'single_tuned' or 'high_pass', got {kind!r}")
    keys = _branch_keys(cls)
    json_object(doc, where, ("kind", *keys))
    values = {
        name: float(json_number(doc[key], f"{where}.{key}")) for key, name in keys.items()
    }
    try:
        return cls(**values)
    except DesignError as exc:
        # A branch type's message starts with its field; name the key instead.
        name, _, rule = str(exc).partition(" ")
        key = {n: k for k, n in keys.items()}.get(name, name)
        raise DesignError(f"{where}: {key} {rule}") from None


def bank_from_dict(doc) -> FilterBank:
    json_object(doc, "bank", ("fundamental_hz", "branches"))
    if not isinstance(doc["branches"], list):
        raise DesignError("bank.branches must be a JSON array")
    branches = [
        _branch_from_dict(b, f"bank.branches[{i}]")
        for i, b in enumerate(doc["branches"])
    ]
    fundamental_hz = float(json_number(doc["fundamental_hz"], "bank.fundamental_hz"))
    try:
        return FilterBank(fundamental_hz=fundamental_hz, branches=tuple(branches))
    except DesignError as exc:
        raise DesignError(f"bank: {exc}") from None
