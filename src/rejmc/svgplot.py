"""Dependency-free SVG scatter plots of 2-D sample batches.

Fixed 800x800 viewport, radius-1 circles, axes labeled with the box bounds.
Output is deterministic byte for byte for a given batch.
"""
from __future__ import annotations

import numpy as np

from .model import Box

__all__ = ["scatter_svg"]

_VIEW = 800
_MARGIN = 60


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def scatter_svg(points: np.ndarray, box: Box, names: tuple[str, str]) -> str:
    if box.dims != 2:
        raise ValueError("scatter plots need a 2-D box")
    pts = np.asarray(points, dtype=np.float64)
    (x_lo, x_hi), (y_lo, y_hi) = box.bounds
    span = _VIEW - 2 * _MARGIN
    px = _MARGIN + (pts[:, 0] - x_lo) / (x_hi - x_lo) * span
    py = _VIEW - _MARGIN - (pts[:, 1] - y_lo) / (y_hi - y_lo) * span

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_VIEW}" height="{_VIEW}" '
        f'viewBox="0 0 {_VIEW} {_VIEW}">',
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{span}" height="{span}" '
        'fill="white" stroke="black"/>',
        f'<text x="{_MARGIN}" y="{_VIEW - _MARGIN + 20}" font-size="12">{_fmt(x_lo)}</text>',
        f'<text x="{_VIEW - _MARGIN}" y="{_VIEW - _MARGIN + 20}" font-size="12" '
        f'text-anchor="end">{_fmt(x_hi)}</text>',
        f'<text x="{_MARGIN - 8}" y="{_VIEW - _MARGIN}" font-size="12" '
        f'text-anchor="end">{_fmt(y_lo)}</text>',
        f'<text x="{_MARGIN - 8}" y="{_MARGIN + 12}" font-size="12" '
        f'text-anchor="end">{_fmt(y_hi)}</text>',
        f'<text x="{_VIEW // 2}" y="{_VIEW - _MARGIN + 40}" font-size="14" '
        f'text-anchor="middle">{names[0]}</text>',
        f'<text x="{_MARGIN - 40}" y="{_VIEW // 2}" font-size="14" '
        f'text-anchor="middle" transform="rotate(-90 {_MARGIN - 40} {_VIEW // 2})">'
        f"{names[1]}</text>",
    ]
    # Python floats format faster than numpy scalars, with the same digits
    circle = '<circle cx="%.2f" cy="%.2f" r="1"/>'
    lines.extend(circle % xy for xy in zip(px.tolist(), py.tolist()))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
