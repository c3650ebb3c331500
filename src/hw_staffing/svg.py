"""Deterministic standalone SVG line charts.

No plotting dependency: the chart is assembled as a list of SVG 1.1
elements in a fixed order with fixed number formatting, so identical data
always produces identical bytes. One polyline per chart, 640x480; linear or
decade log scale on x.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import DomainError

__all__ = ["polyline_chart"]

_WIDTH = 640
_HEIGHT = 480
_MARGIN_LEFT = 78.0
_MARGIN_RIGHT = 24.0
_MARGIN_TOP = 46.0
_MARGIN_BOTTOM = 58.0


def _nice_step(span: float, target_ticks: int = 5) -> float:
    raw = span / target_ticks
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0):
        if raw <= mult * magnitude:
            return mult * magnitude
    return 10.0 * magnitude


def _linear_ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step)
    return [k * step for k in range(first, math.floor(hi / step) + 1)]


def _decade_ticks(lo: float, hi: float) -> list[float]:
    ticks = [
        10.0 ** k
        for k in range(math.ceil(math.log10(lo) - 1e-9), math.floor(math.log10(hi) + 1e-9) + 1)
    ]
    return ticks if len(ticks) >= 2 else _linear_ticks(lo, hi)


def _fmt_coord(v: float) -> str:
    return f"{v:.2f}"


def polyline_chart(
    xs: Sequence[float],
    ys: Sequence[float],
    *,
    title: str,
    x_label: str,
    y_label: str,
    log_x: bool = False,
) -> str:
    """Render one (x, y) series as a standalone SVG 1.1 document."""
    if len(xs) != len(ys) or not xs:
        raise DomainError("chart needs equally sized, non-empty x and y data")
    if log_x and min(xs) <= 0.0:
        raise DomainError("log x axis requires positive x data")

    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if y_hi == y_lo:  # flat series still needs a visible band
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    if x_hi == x_lo:
        if log_x:  # keep the expanded range positive
            x_lo, x_hi = x_lo / 2.0, x_hi * 2.0
        else:
            x_lo, x_hi = x_lo - 0.5, x_hi + 0.5

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def x_pos(x: float) -> float:
        if log_x:
            frac = (math.log10(x) - math.log10(x_lo)) / (math.log10(x_hi) - math.log10(x_lo))
        else:
            frac = (x - x_lo) / (x_hi - x_lo)
        return _MARGIN_LEFT + frac * plot_w

    def y_pos(y: float) -> float:
        frac = (y - y_lo) / (y_hi - y_lo)
        return _MARGIN_TOP + (1.0 - frac) * plot_h

    x_ticks = _decade_ticks(x_lo, x_hi) if log_x else _linear_ticks(x_lo, x_hi)
    y_ticks = _linear_ticks(y_lo, y_hi)

    x0, x1 = _MARGIN_LEFT, _MARGIN_LEFT + plot_w
    y0, y1 = _MARGIN_TOP, _MARGIN_TOP + plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_fmt_coord(_WIDTH / 2)}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="15">{title}</text>',
    ]

    for t in x_ticks:
        px = x_pos(t)
        parts.append(
            f'<line x1="{_fmt_coord(px)}" y1="{_fmt_coord(y1)}" '
            f'x2="{_fmt_coord(px)}" y2="{_fmt_coord(y1 + 6)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt_coord(px)}" y="{_fmt_coord(y1 + 20)}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">{t:.6g}</text>'
        )
    for t in y_ticks:
        py = y_pos(t)
        parts.append(
            f'<line x1="{_fmt_coord(x0 - 6)}" y1="{_fmt_coord(py)}" '
            f'x2="{_fmt_coord(x0)}" y2="{_fmt_coord(py)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt_coord(x0 - 10)}" y="{_fmt_coord(py + 4)}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{t:.6g}</text>'
        )

    points = " ".join(f"{_fmt_coord(x_pos(x))},{_fmt_coord(y_pos(y))}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{points}" fill="none" stroke="#1f4e9c" stroke-width="1.5"/>')

    parts.append(
        f'<rect x="{_fmt_coord(x0)}" y="{_fmt_coord(y0)}" width="{_fmt_coord(plot_w)}" '
        f'height="{_fmt_coord(plot_h)}" fill="none" stroke="black"/>'
    )
    parts.append(
        f'<text x="{_fmt_coord(x0 + plot_w / 2)}" y="{_fmt_coord(_HEIGHT - 14)}" '
        f'text-anchor="middle" font-family="monospace" font-size="13">{x_label}</text>'
    )
    parts.append(
        f'<text x="18" y="{_fmt_coord(y0 + plot_h / 2)}" text-anchor="middle" '
        f'font-family="monospace" font-size="13" '
        f'transform="rotate(-90 18 {_fmt_coord(y0 + plot_h / 2)})">{y_label}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
