"""Synchronous harmonic analysis over integer-period windows.

When the analyzed window spans an exact whole number of fundamental cycles,
the DFT bins at multiples of the fundamental are leakage-free, so harmonic
content is read directly off the transform with a rectangular window and no
zero padding.  Magnitudes are reported as RMS (peak / sqrt(2)); phases are
referenced to cos(2*pi*h*f1*t) at the start of the window.

THD uses the aggregate definition sqrt(sum of squared harmonic RMS values,
h >= 2) over the fundamental RMS.  The DC component is computed and
reported but excluded from THD.  A spectrum stores magnitudes only; its
orders (1..N) and THD derive from them.

This module owns the window contract (:func:`samples_per_period`,
:func:`last_cycles_window`): sample rate and fundamental must be positive
and finite, a window's cycle count and highest order must be integers, a
steady-state window must fit its record and start at least 2 whole
periods after t = 0, and every violation raises
:class:`AnalysisError`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_MAX_ORDER = 50
IEEE519_THD_LIMIT = 0.05
# Settling residual above which a window is reported as not settled.
SETTLING_RESIDUAL_LIMIT = 1e-3


class AnalysisError(ValueError):
    """Raised for window-contract violations or out-of-domain spectra."""


@dataclass(frozen=True)
class HarmonicSpectrum:
    """Per-order harmonic content of one channel.

    ``magnitudes[h - 1]`` is the RMS magnitude at ``h`` times the
    fundamental, for h = 1..N; ``dc`` is the mean of the window.
    """

    fundamental_hz: float
    magnitudes: np.ndarray
    phases_rad: np.ndarray
    rms_total: float
    dc: float

    def __post_init__(self) -> None:
        mags = np.asarray(self.magnitudes, dtype=float)
        phases = np.asarray(self.phases_rad, dtype=float)
        if len(mags) != len(phases) or len(mags) < 1:
            raise AnalysisError("magnitudes and phases must match in length")
        object.__setattr__(self, "magnitudes", mags)
        object.__setattr__(self, "phases_rad", phases)
        for name in ("magnitudes", "phases_rad", "rms_total", "dc"):
            if not np.isfinite(getattr(self, name)).all():
                raise AnalysisError(f"spectrum {name} must be finite")
        # Parseval: the harmonic plus DC RMS cannot exceed the window RMS
        # (equality only for band-limited content); hypot cannot overflow.
        rms = math.hypot(*mags, self.dc)
        if rms > self.rms_total * (1.0 + 5e-10) + 1e-150:
            raise AnalysisError(f"harmonic RMS {rms!r} exceeds total RMS {self.rms_total!r}")

    @property
    def orders(self) -> np.ndarray:
        return np.arange(1, len(self.magnitudes) + 1)

    @property
    def thd(self) -> float:
        """sqrt(sum_{h>=2} mag_h^2) / mag_1; NaN for a zero fundamental."""
        m = self.magnitudes
        return float(np.sqrt(np.sum(m[1:] ** 2)) / m[0]) if m[0] > 0.0 else math.nan

    def magnitude(self, order: int) -> float:
        idx = int(order) - 1
        if not 0 <= idx < len(self.magnitudes):
            raise AnalysisError(f"order {order} not in spectrum")
        return float(self.magnitudes[idx])

    def to_csv(self, path) -> None:
        """Header ``order,frequency_hz,magnitude_rms,phase_rad``; the DC
        component appears as order 0."""
        with open(path, "w") as out:
            out.write("order,frequency_hz,magnitude_rms,phase_rad\n")
            out.write(f"0,0.0,{abs(float(self.dc))!r},0.0\n")
            for h, m, p in zip(self.orders, self.magnitudes, self.phases_rad):
                out.write(
                    f"{int(h)},{float(h * self.fundamental_hz)!r},"
                    f"{float(m)!r},{float(p)!r}\n"
                )


@dataclass(frozen=True)
class PowerReport:
    """Active/apparent power and the two power-factor figures.

    |true PF| <= 1 always, and <= |DPF| when the voltage is sinusoidal;
    with a distorted voltage, harmonic active power can raise P/S above
    the fundamental's cos(phi).
    """

    active_power_w: float
    apparent_power_va: float
    true_power_factor: float
    displacement_power_factor: float

    def __post_init__(self) -> None:
        if not abs(self.true_power_factor) <= 1.0:
            raise AnalysisError(
                f"true power factor {self.true_power_factor!r} outside [-1, 1]"
            )


@dataclass(frozen=True)
class ComplianceResult:
    """Outcome of a distortion-limit check."""

    passed: bool
    thd: float
    limit: float


def _check_rates(sample_rate_hz: float, fundamental_hz: float) -> None:
    for name, value in (("sample_rate_hz", sample_rate_hz), ("fundamental_hz", fundamental_hz)):
        if not 0.0 < value < math.inf:
            raise AnalysisError(f"{name} must be positive and finite, got {float(value)!r}")


def samples_per_period(sample_rate_hz: float, fundamental_hz: float) -> int:
    """Samples per fundamental period, which must be an integer of at least
    2; both rates must be positive and finite."""
    _check_rates(sample_rate_hz, fundamental_hz)
    spp_f = float(sample_rate_hz) / fundamental_hz
    spp = round(spp_f)
    if spp < 2 or abs(spp_f - spp) > 1e-6 * spp:
        raise AnalysisError(
            f"{spp_f!r} samples per fundamental period is not an integer; "
            "pick dt = T1/k for an integer k"
        )
    return spp


def last_cycles_window(
    n_samples: int,
    sample_rate_hz: float,
    fundamental_hz: float,
    n_cycles: int,
    t_start_s: float = 0.0,
) -> range:
    """Sample index range covering the last ``n_cycles`` whole fundamental
    periods of an ``n_samples``-long record whose first sample is at time
    ``t_start_s`` of a run that starts at t = 0.

    The sample grid must contain an integer number of samples per period,
    the window must fit the record, and it must start at least 2 whole
    periods after t = 0 so it excludes the start-up transient.  For a
    record from t = 0 that means ``n_cycles + 2`` recorded periods.
    """
    if not isinstance(n_cycles, numbers.Integral):
        raise AnalysisError(f"n_cycles must be an integer, got {n_cycles!r}")
    if n_cycles < 1:
        raise AnalysisError(f"n_cycles must be >= 1, got {n_cycles!r}")
    spp = samples_per_period(sample_rate_hz, fundamental_hz)
    start = n_samples - n_cycles * spp
    if start < 0:
        raise AnalysisError(
            f"waveform spans {n_samples / spp:g} periods; the last {n_cycles} do not fit"
        )
    # Samples from t = 0 to the window's first sample.  The tolerance of
    # 1e-6 of a sample absorbs the rounding of t_start_s; at t_start_s = 0
    # both sides are integers, so the rule is exact there.
    lead = t_start_s * fundamental_hz * spp + start
    if not lead >= 2 * spp - 1e-6:
        raise AnalysisError(
            f"the last {n_cycles} periods start {lead / spp:g} periods after "
            "t = 0; the window must start at least 2 periods after, past the "
            "start-up transient"
        )
    return range(start, n_samples)


def _window_periods(
    n_samples: int, sample_rate_hz: float, fundamental_hz: float, max_order: int
) -> int:
    """Validate the synchronous-window contract; return the whole periods
    the window spans."""
    if n_samples < 2:
        raise AnalysisError("window must contain at least 2 samples")
    _check_rates(sample_rate_hz, fundamental_hz)
    if not isinstance(max_order, numbers.Integral):
        raise AnalysisError(f"max_order must be an integer, got {max_order!r}")
    if max_order < 1:
        raise AnalysisError(f"max_order must be >= 1, got {max_order}")
    periods_f = n_samples * fundamental_hz / sample_rate_hz
    periods = round(periods_f)
    if periods < 1 or abs(periods_f - periods) > 1e-6:
        raise AnalysisError(
            f"window spans {periods_f!r} fundamental periods; an exact integer "
            "number of whole periods is required"
        )
    spp = n_samples / periods
    if spp < 2 * max_order:
        raise AnalysisError(
            f"order {max_order} exceeds the Nyquist guard: {spp:g} samples per "
            f"period supports at most order {int(spp // 2)}"
        )
    return periods


def spectrum(
    samples: Sequence[float],
    sample_rate_hz: float,
    fundamental_hz: float,
    max_order: int = DEFAULT_MAX_ORDER,
) -> HarmonicSpectrum:
    """Harmonic magnitudes/phases at h*f1 for h = 1..max_order.

    The window must span an exact integer number of fundamental periods and
    carry at least ``2 * max_order`` samples per period.
    """
    x = np.asarray(samples, dtype=float)
    periods = _window_periods(len(x), sample_rate_hz, fundamental_hz, max_order)
    bins = np.fft.rfft(x)
    coeff = 2.0 * bins[np.arange(1, max_order + 1) * periods] / len(x)
    with np.errstate(over="ignore"):  # HarmonicSpectrum rejects an infinite power
        rms_total = float(np.sqrt(np.mean(x * x)))
    return HarmonicSpectrum(
        fundamental_hz=fundamental_hz,
        magnitudes=np.abs(coeff) / math.sqrt(2.0),
        phases_rad=np.angle(coeff),
        rms_total=rms_total,
        dc=float(bins[0].real) / len(x),
    )


def power_report(
    v_samples: Sequence[float],
    i_samples: Sequence[float],
    sample_rate_hz: float,
    fundamental_hz: float,
) -> PowerReport:
    """Active power, apparent power, and true/displacement power factors.

    P is the window mean of v*i and S the product of the window RMS values;
    the displacement factor is the cosine of the angle between the
    fundamental phasors of v and i.
    """
    v = np.asarray(v_samples, dtype=float)
    i = np.asarray(i_samples, dtype=float)
    if len(v) != len(i):
        raise AnalysisError("voltage and current windows must have equal length")
    spec_v = spectrum(v, sample_rate_hz, fundamental_hz, max_order=1)
    spec_i = spectrum(i, sample_rate_hz, fundamental_hz, max_order=1)
    p = float(np.mean(v * i))
    s = spec_v.rms_total * spec_i.rms_total
    if s == 0.0:
        raise AnalysisError("apparent power is zero; power factor undefined")
    if spec_v.magnitudes[0] == 0.0 or spec_i.magnitudes[0] == 0.0:
        raise AnalysisError("fundamental component missing; displacement undefined")
    dpf = math.cos(float(spec_v.phases_rad[0] - spec_i.phases_rad[0]))
    tpf = p / s
    # Guard rounding at |PF| = 1 (Cauchy-Schwarz guarantees |P| <= S).
    tpf = max(-1.0, min(1.0, tpf))
    return PowerReport(
        active_power_w=p,
        apparent_power_va=s,
        true_power_factor=tpf,
        displacement_power_factor=dpf,
    )


def settling_residual(
    samples: Sequence[float], sample_rate_hz: float, fundamental_hz: float
) -> float:
    """Largest change between consecutive periods of a window of whole
    fundamental periods, max |cycle k+1 - cycle k|, relative to the
    window's max |x| (0 for an all-zero window).  Needs at least two
    periods, all finite."""
    x = np.asarray(samples, dtype=float)
    periods = _window_periods(len(x), sample_rate_hz, fundamental_hz, 1)
    if periods < 2:
        raise AnalysisError("a settling residual needs at least two periods")
    peak = float(np.max(np.abs(x)))
    if not math.isfinite(peak):
        raise AnalysisError("settling-residual window must be finite")
    cycles = x.reshape(periods, samples_per_period(sample_rate_hz, fundamental_hz))
    return float(np.max(np.abs(np.diff(cycles, axis=0)))) / peak if peak > 0.0 else 0.0


def ieee519_check(
    spec: HarmonicSpectrum, thd_limit: float = IEEE519_THD_LIMIT
) -> ComplianceResult:
    """Aggregate-THD compliance: passes only when THD is strictly below the
    limit (a value exactly at the limit fails)."""
    if not spec.magnitudes[0] > 0.0:
        raise AnalysisError("THD is undefined for a zero fundamental")
    thd = spec.thd
    return ComplianceResult(passed=thd < thd_limit, thd=thd, limit=thd_limit)
