"""Minimal SVG bar charts for harmonic spectra.

Rendering is string assembly over ``rect``/``line``/``text`` primitives so
outputs stay deterministic and dependency-free.  Magnitudes are drawn as a
percentage of the fundamental on linear axes.
"""

from __future__ import annotations

import numpy as np

from .analyzer import HarmonicSpectrum

_WIDTH = 720.0
_HEIGHT = 420.0
_MARGIN_LEFT = 64.0
_MARGIN_RIGHT = 16.0
_MARGIN_TOP = 40.0
_MARGIN_BOTTOM = 52.0

_FILLS = ("#3a6ea5", "#c05b2d")
# Legend labels of an overlay's two series.
_OVERLAY_LABELS = ("baseline", "filtered")
# Bar width and each series' bar offset, as fractions of an order's slot,
# by the number of series.
_BAR_LAYOUTS = {1: (0.7, (0.15,)), 2: (0.38, (0.10, 0.52))}


def _header(title: str) -> list[str]:
    import html  # about 2 ms to import, so only where a chart is drawn
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:g}" '
        f'height="{_HEIGHT:g}" viewBox="0 0 {_WIDTH:g} {_HEIGHT:g}">',
        f'<rect x="0" y="0" width="{_WIDTH:g}" height="{_HEIGHT:g}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.2f}" y="22" font-family="sans-serif" font-size="15" '
        f'text-anchor="middle">{html.escape(title)}</text>',
    ]


def _axes(orders: np.ndarray, y_max: float) -> tuple[list[str], float, float, float]:
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    x0, y0 = _MARGIN_LEFT, _MARGIN_TOP + plot_h
    parts = []
    for frac in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        y = y0 - frac * plot_h
        value = frac * y_max
        parts.append(
            f'<line x1="{x0:.2f}" y1="{y:.2f}" x2="{x0 + plot_w:.2f}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x0 - 8:.2f}" y="{y + 4:.2f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{value:g}%</text>'
        )
    slot = plot_w / len(orders)
    for h in orders:
        if h == 1 or h % 5 == 0:
            x = x0 + (h - 0.5) * slot
            parts.append(
                f'<text x="{x:.2f}" y="{y0 + 16:.2f}" font-family="sans-serif" '
                f'font-size="11" text-anchor="middle">{int(h)}</text>'
            )
    parts.append(
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x0 + plot_w:.2f}" y2="{y0:.2f}" '
        f'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{x0:.2f}" y1="{_MARGIN_TOP:.2f}" x2="{x0:.2f}" y2="{y0:.2f}" '
        f'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{x0 + plot_w / 2:.2f}" y="{y0 + 36:.2f}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle">harmonic order</text>'
    )
    parts.append(
        f'<text x="16" y="{_MARGIN_TOP + plot_h / 2:.2f}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MARGIN_TOP + plot_h / 2:.2f})">'
        "% of fundamental</text>"
    )
    return parts, x0, y0, slot


def _percentages(spec: HarmonicSpectrum) -> np.ndarray:
    base = spec.magnitudes[0]
    if base <= 0.0:
        return np.zeros_like(spec.magnitudes)
    return 100.0 * spec.magnitudes / base


def _bar_chart(
    specs: tuple[HarmonicSpectrum, ...], labels: tuple[str, ...], title: str
) -> str:
    """Side-by-side bars for one or two spectra on a shared percent axis,
    with a legend entry for each label."""
    orders = max((spec.orders for spec in specs), key=len)
    pcts = [_percentages(spec) for spec in specs]
    y_max = max([100.0] + [float(pct.max()) for pct in pcts if len(pct)])
    parts = _header(title)
    axis_parts, x0, y0, slot = _axes(orders, y_max)
    parts += axis_parts
    plot_h = y0 - _MARGIN_TOP
    bar_w, shifts = _BAR_LAYOUTS[len(specs)]
    for pct, fill, shift in zip(pcts, _FILLS, shifts):
        for h, p in zip(orders[: len(pct)], pct):
            x = x0 + (h - 1 + shift) * slot
            bh = p / y_max * plot_h
            parts.append(
                f'<rect x="{x:.2f}" y="{y0 - bh:.2f}" width="{bar_w * slot:.2f}" '
                f'height="{bh:.2f}" fill="{fill}"/>'
            )
    legend_y = _MARGIN_TOP - 10.0
    for label, fill, x in zip(labels, _FILLS, (x0, x0 + 140.0)):
        parts.append(
            f'<rect x="{x:.2f}" y="{legend_y - 10:.2f}" width="12" height="12" fill="{fill}"/>'
        )
        parts.append(
            f'<text x="{x + 18:.2f}" y="{legend_y:.2f}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def spectrum_bar_svg(spec: HarmonicSpectrum, title: str = "Harmonic spectrum") -> str:
    """Bar chart of magnitude versus order, fundamental normalized to 100%."""
    return _bar_chart((spec,), (), title)


def spectrum_overlay_svg(
    baseline: HarmonicSpectrum, filtered: HarmonicSpectrum, title: str = "Harmonic spectra"
) -> str:
    """Side-by-side bars for a baseline and a filtered spectrum on a shared
    percent axis."""
    return _bar_chart((baseline, filtered), _OVERLAY_LABELS, title)
