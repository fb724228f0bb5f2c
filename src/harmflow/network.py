"""Frequency-domain impedance of filter branches, banks, and the
bank-plus-source network.

Branch impedances follow from the element laws: a single-tuned branch is
R + j(wL - 1/(wC)); a high-pass branch is 1/(jwC) in series with R
parallel jwL.  A bank is the parallel combination of its branches.  For a
driving-point scan, harmonic current injected at the bus divides between
the bank and the source inductance, so the source appears in parallel with
the bank rather than in series.

Resonances are read off a scanned curve as discrete interior extrema of
|Z|: local minima are series resonances, local maxima parallel resonances.
Grid density is the caller's accuracy knob; no interpolation is applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

import numpy as np

from .design import FilterBank, FilterBranch, HighPassFilter, SingleTunedFilter

TWO_PI = 2.0 * np.pi


class NetworkError(ValueError):
    """Raised for out-of-domain frequencies or malformed scan requests."""


def _angular(f) -> np.ndarray:
    f = np.atleast_1d(np.asarray(f, dtype=float))
    if np.any(f <= 0.0):
        raise NetworkError("frequency must be positive")
    return TWO_PI * f


def _scalar_or_array(z: np.ndarray, f):
    return complex(z[0]) if np.ndim(f) == 0 else z


def _st_z(branch: SingleTunedFilter, w: np.ndarray) -> np.ndarray:
    return branch.resistance_ohm + 1j * (
        w * branch.inductance_h - 1.0 / (w * branch.capacitance_f)
    )


def _hp_z(branch: HighPassFilter, w: np.ndarray) -> np.ndarray:
    section = 1.0 / (1.0 / branch.resistance_ohm + 1.0 / (1j * w * branch.inductance_h))
    return 1.0 / (1j * w * branch.capacitance_f) + section


def _branch_z(branch, w: np.ndarray) -> np.ndarray:
    if isinstance(branch, SingleTunedFilter):
        return _st_z(branch, w)
    if isinstance(branch, HighPassFilter):
        return _hp_z(branch, w)
    raise NetworkError(f"unknown branch type {type(branch).__name__}")


def _bank_z(bank: FilterBank, w: np.ndarray) -> np.ndarray:
    if not bank.branches:
        raise NetworkError("bank has no branches")
    y = np.zeros_like(w, dtype=complex)
    for b in bank.branches:
        y += 1.0 / _branch_z(b, w)
    return 1.0 / y


def branch_impedance(branch: FilterBranch, f):
    """Impedance of one branch at ``f`` Hz: R + j(wL - 1/(wC)) for a
    single-tuned branch, 1/(jwC) + 1/(1/R + 1/(jwL)) for a high-pass one.

    Accepts a scalar or an array of frequencies.
    """
    return _scalar_or_array(_branch_z(branch, _angular(f)), f)


def bank_impedance(bank: FilterBank, f):
    """Parallel combination 1 / sum(1/Z_branch) of every branch at ``f`` Hz."""
    return _scalar_or_array(_bank_z(bank, _angular(f)), f)


@dataclass(frozen=True)
class ImpedanceCurve:
    """Impedance sampled on a strictly increasing frequency grid."""

    frequencies_hz: np.ndarray
    impedances: np.ndarray

    def __post_init__(self) -> None:
        f = np.asarray(self.frequencies_hz, dtype=float)
        z = np.asarray(self.impedances, dtype=complex)
        if f.ndim != 1 or z.ndim != 1 or len(f) != len(z) or len(f) < 2:
            raise NetworkError("curve needs matching 1-D arrays of length >= 2")
        if np.any(f <= 0.0) or np.any(np.diff(f) <= 0.0):
            raise NetworkError("frequencies must be positive and strictly increasing")
        object.__setattr__(self, "frequencies_hz", f)
        object.__setattr__(self, "impedances", z)

    @property
    def magnitudes(self) -> np.ndarray:
        return np.abs(self.impedances)

    def write_csv(self, out: IO[str]) -> None:
        """Header ``frequency_hz,re_ohms,im_ohms,abs_ohms``; decimal notation,
        full double precision."""
        fmt = lambda v: np.format_float_positional(v, unique=True, trim="0")
        out.write("frequency_hz,re_ohms,im_ohms,abs_ohms\n")
        for f, z in zip(self.frequencies_hz, self.impedances):
            out.write(f"{fmt(f)},{fmt(z.real)},{fmt(z.imag)},{fmt(abs(z))}\n")

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            self.write_csv(fh)


@dataclass(frozen=True)
class ResonanceReport:
    """Frequencies of interior |Z| extrema found on a scan grid."""

    series_resonances_hz: tuple[float, ...]
    parallel_resonances_hz: tuple[float, ...]


def scan(
    bank: FilterBank,
    source_inductance_h: float,
    f_start: float,
    f_end: float,
    n_points: int,
) -> ImpedanceCurve:
    """Driving-point impedance seen by harmonic current injected at the bus.

    With ``source_inductance_h`` zero the curve is the bank alone; otherwise
    the source inductance appears in parallel with the bank.
    """
    if not (0.0 < f_start < f_end < np.inf):
        raise NetworkError(
            f"need 0 < f_start < f_end < inf, got ({f_start!r}, {f_end!r})"
        )
    if n_points < 2:
        raise NetworkError(f"n_points must be >= 2, got {n_points!r}")
    if not 0.0 <= source_inductance_h < np.inf:
        raise NetworkError(
            f"source_inductance_h must be non-negative and finite, got {source_inductance_h!r}"
        )
    freqs = np.linspace(f_start, f_end, int(n_points))
    z_bank = _bank_z(bank, _angular(freqs))
    if source_inductance_h == 0.0:
        z = z_bank
    else:
        z_src = 1j * TWO_PI * freqs * source_inductance_h
        z = 1.0 / (1.0 / z_bank + 1.0 / z_src)
    return ImpedanceCurve(freqs, z)


def find_resonances(curve: ImpedanceCurve) -> ResonanceReport:
    """Interior local minima/maxima of |Z| on the scan grid.

    Plateaus count once and report their lowest frequency; runs touching
    either endpoint are excluded.  NaN equals nothing, so each NaN is a run
    of its own and never an extremum.
    """
    mags = curve.magnitudes
    starts = np.flatnonzero(np.r_[True, mags[1:] != mags[:-1]])
    vals = mags[starts]
    left, mid, right = vals[:-2], vals[1:-1], vals[2:]
    interior = curve.frequencies_hz[starts[1:-1]]
    series = interior[(left > mid) & (mid < right)]
    parallel = interior[(left < mid) & (mid > right)]
    return ResonanceReport(tuple(series.tolist()), tuple(parallel.tolist()))
