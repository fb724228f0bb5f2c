"""Frequency-domain impedance of filter branches, banks, and the
bank-plus-source network.

Branch impedances follow from the element laws: a single-tuned branch is
R + j(wL - 1/(wC)); a high-pass branch is 1/(jwC) in series with R
parallel jwL.  A bank is the parallel combination of its branches.  For a
driving-point scan, harmonic current injected at the bus divides between
the bank and the source inductance, so the source appears in parallel with
the bank rather than in series.

A bank is evaluated as the sum of its branch admittances, the real and
imaginary parts of each branch formed in real arithmetic: one complex
division per single-tuned branch, two per high-pass branch and one for the
sum, 7 a frequency for the bundled bank.  A source inductance adds one.

``scan`` keeps the admittance sum of the last scan that returned: one
read-only array of the grid's size (16 bytes a frequency), keyed on the
bank's repr and the grid
``(float(f_start), float(f_end), int(n_points))``.  Another scan of a bank
with equal values of the same types on the same grid, such as the same
bank against another source inductance, reuses it and costs one division
a frequency plus the source term, with the same result as a scan without
it.

Resonances are read off a scanned curve as discrete interior extrema of
|Z|: local minima are series resonances, local maxima parallel resonances.
Grid density is the caller's accuracy knob; no interpolation is applied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import FilterBank, FilterBranch, SingleTunedFilter

TWO_PI = 2.0 * np.pi

# Frequencies evaluated per pass.  Each element law builds several
# temporaries; at this size they stay in cache instead of streaming
# whole-grid arrays through memory.
_CHUNK = 8192

# Upper bound on a scan's grid, checked before anything is allocated:
# 10 million points hold 240 MB of frequencies and impedances, and the
# 160 MB admittance sum that the scan keeps.
MAX_SCAN_POINTS = 10_000_000

# ``(key, y)`` of the last scan that returned: its grid's admittance sum,
# read-only and shared with no curve.  Replaced as one tuple, so that
# concurrent scans never pair one scan's key with another's array.
_last_scan: tuple[tuple, np.ndarray] | None = None


class NetworkError(ValueError):
    """Raised for out-of-domain frequencies or malformed scan requests."""


def _evaluate(z_of, f, detail: str = "") -> np.ndarray:
    """``z_of(w)`` at ``f`` Hz, each positive and finite, without warnings;
    NetworkError names the first frequency whose impedance is not finite.
    An impedance whose magnitude overflows counts as not finite, and so
    does one at a frequency whose w overflows, since the admittance form
    of a bank stays finite at w = inf."""
    f = np.atleast_1d(np.asarray(f, dtype=float))
    if not np.all((f > 0.0) & (f < np.inf)):
        raise NetworkError("frequency must be positive and finite")
    with np.errstate(all="ignore"):
        w = TWO_PI * f
        z = z_of(w)
    finite = np.isfinite(z) & np.isfinite(w)
    # |Z| = hypot(re, im), as a scan's CSV writes it, can overflow where
    # both parts are finite, but only where one is above DBL_MAX/sqrt(2).
    parts = z.view(float)
    if max(np.fmax.reduce(parts), -np.fmin.reduce(parts)) > 1.2e308:
        with np.errstate(over="ignore"):
            finite &= np.isfinite(np.hypot(z.real, z.imag))
    if not finite.all():
        bad = float(f[np.argmin(finite)])
        raise NetworkError(f"impedance at {bad!r} Hz is not finite{detail}")
    return z


def _scalar_or_array(z: np.ndarray, f):
    return complex(z[0]) if np.ndim(f) == 0 else z


def _branch_z(branch, w: np.ndarray, inv_w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Writes the branch's impedance at ``w`` rad/s into the complex array
    ``out`` and returns it; ``inv_w`` is ``1/w``.  Each part is formed in
    real arithmetic, so a high-pass branch costs one complex division."""
    if isinstance(branch, SingleTunedFilter):
        out.real = branch.resistance_ohm
        out.imag = w * branch.inductance_h - 1.0 / (w * branch.capacitance_f)
    else:
        # R || jwL is the reciprocal of its admittance 1/R - j/(wL); the
        # capacitor adds -j/(wC).
        out.real = 1.0 / branch.resistance_ohm
        out.imag = inv_w / -branch.inductance_h
        np.divide(1.0, out, out=out)
        out.imag -= inv_w / branch.capacitance_f
    return out


def _bank_z(
    bank: FilterBank,
    w: np.ndarray,
    source_inductance_h: float = 0.0,
    y: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(z, y)``: z = 1/y at ``w`` rad/s for the bank's admittance sum
    y = sum(1/Z_branch), with a non-zero source inductance added to y as
    1/(jwLs).  A given ``y`` is only read; without one the sum is formed
    into a new array.  Evaluated ``_CHUNK`` frequencies at a time, so a sum
    is inverted while it is still in cache."""
    form_y = y is None
    if form_y:
        y = np.empty(w.shape, dtype=complex)
    z = np.empty(w.shape, dtype=complex)
    for lo in range(0, len(w), _CHUNK):
        wc, yc, zc = w[lo : lo + _CHUNK], y[lo : lo + _CHUNK], z[lo : lo + _CHUNK]
        if form_y:
            inv_w = 1.0 / wc
            yc[:] = 0.0
            for b in bank.branches:
                yc += np.divide(1.0, _branch_z(b, wc, inv_w, zc), out=zc)
        if source_inductance_h:
            # Complex, so that a wLs that underflows gives NaN, not 0 ohm.
            yc = np.subtract(yc, 1j / (wc * source_inductance_h), out=zc)
        np.divide(1.0, yc, out=zc)
    return z, y


def branch_impedance(branch: FilterBranch, f):
    """Impedance of one branch at ``f`` Hz: R + j(wL - 1/(wC)) for a
    single-tuned branch, 1/(jwC) + 1/(1/R + 1/(jwL)) for a high-pass one.

    Accepts a scalar or an array of frequencies; each must be positive and
    finite, and so must each impedance, else ``NetworkError``.
    """
    z_of = lambda w: _branch_z(branch, w, 1.0 / w, np.empty(w.shape, dtype=complex))
    return _scalar_or_array(_evaluate(z_of, f), f)


def bank_impedance(bank: FilterBank, f):
    """Parallel combination 1 / sum(1/Z_branch) of every branch at ``f`` Hz."""
    z_of = lambda w: _bank_z(bank, w)[0]
    return _scalar_or_array(_evaluate(z_of, f), f)


def _decimal(v: float) -> str:
    """Shortest repr that round-trips ``v``, in decimal notation: Python's
    repr where it has no exponent (1e-4 <= |v| < 1e16), numpy's positional
    form otherwise."""
    text = repr(v)
    if "e" in text:
        return np.format_float_positional(v, unique=True, trim="0")
    return text


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
        # NaN fails each comparison, so a NaN anywhere is rejected too.
        if not (f[0] > 0.0 and f[-1] < np.inf and np.all(np.diff(f) > 0.0)):
            raise NetworkError(
                "frequencies must be positive, finite and strictly increasing"
            )
        object.__setattr__(self, "frequencies_hz", f)
        object.__setattr__(self, "impedances", z)

    @property
    def magnitudes(self) -> np.ndarray:
        """|Z| by ``np.abs``, which :func:`find_resonances` compares.  It can
        differ from the CSV's ``np.hypot`` in the last digit (at 359 of the
        README scan's 951 points), but costs about a tenth as much."""
        return np.abs(self.impedances)

    def to_csv(self, path) -> None:
        """Header ``frequency_hz,re_ohms,im_ohms,abs_ohms``; decimal notation,
        full double precision.  |Z| is ``np.hypot(re, im)``, which gives
        each value as Python's ``abs`` does; a scan's never overflows, a
        curve's built by hand reads ``inf`` where it does."""
        z = self.impedances
        with np.errstate(over="ignore"):
            mags = np.hypot(z.real, z.imag)
        columns = (self.frequencies_hz, z.real, z.imag, mags)
        rows = zip(*(map(_decimal, c.tolist()) for c in columns))
        with open(path, "w") as out:
            out.write("frequency_hz,re_ohms,im_ohms,abs_ohms\n")
            out.writelines(f"{f},{re},{im},{mag}\n" for f, re, im, mag in rows)


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
    the source inductance appears in parallel with the bank.  An impedance
    that is not finite raises ``NetworkError`` naming its frequency.  A
    repeat scan of the last bank and grid reuses its admittance sum.
    """
    if not (0.0 < f_start < f_end < np.inf):
        raise NetworkError(
            f"need 0 < f_start < f_end < inf, got ({f_start!r}, {f_end!r})"
        )
    try:
        integral = int(n_points) == n_points
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not (integral and 2 <= n_points <= MAX_SCAN_POINTS):
        raise NetworkError(
            f"n_points must be an integer between 2 and {MAX_SCAN_POINTS}, got {n_points!r}"
        )
    if not 0.0 <= source_inductance_h < np.inf:
        raise NetworkError(
            f"source_inductance_h must be non-negative and finite, got {source_inductance_h!r}"
        )
    global _last_scan
    # Equal values of different types (np.float32(0.5) == 0.5) can evaluate
    # differently; a bank's repr spells each value with its type.
    key = (repr(bank), float(f_start), float(f_end), int(n_points))
    memo = _last_scan
    y = memo[1] if memo is not None and memo[0] == key else None

    def z_of(w):
        nonlocal y
        z, y = _bank_z(bank, w, source_inductance_h, y)
        return z

    freqs = np.linspace(*key[1:])
    detail = f" (source_inductance_h {source_inductance_h!r})"
    z = _evaluate(z_of, freqs, detail)
    if memo is None or memo[1] is not y:
        y.flags.writeable = False
        _last_scan = (key, y)
    return ImpedanceCurve(freqs, z)


def find_resonances(curve: ImpedanceCurve) -> ResonanceReport:
    """Interior local minima/maxima of |Z| on the scan grid.

    Plateaus count once and report their lowest frequency; runs touching
    either endpoint are excluded.  NaN equals nothing, so each NaN is a run
    of its own and never an extremum.
    """
    mags, f = curve.magnitudes, curve.frequencies_hz
    change = mags[1:] != mags[:-1]
    if change.all():
        # No plateau: every point is a run of its own.
        vals, interior = mags, f[1:-1]
    else:
        starts = np.flatnonzero(np.r_[True, change])
        vals, interior = mags[starts], f[starts[1:-1]]
    left, mid, right = vals[:-2], vals[1:-1], vals[2:]
    series = interior[(left > mid) & (mid < right)]
    parallel = interior[(left < mid) & (mid > right)]
    return ResonanceReport(tuple(series.tolist()), tuple(parallel.tolist()))
