"""Dependency-free SVG scatter plots for 2-D projections.

Points are drawn as <circle> elements; the legend uses <rect> swatches so
the number of circles in the document always equals the number of points.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import InputError
from .io import _open_write

# Categorical palette, distinguishable at small sizes. 16 entries so up to
# 16 clusters get unique colors before wrapping.
PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
    "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
    "#bcbd22", "#17becf", "#aec7e8", "#ffbb78",
    "#98df8a", "#ff9896", "#c5b0d5", "#c49c94",
)

_UNLABELED_COLOR = "#404040"


def escape(text: str) -> str:
    """``xml.sax.saxutils.escape`` without its import of ``urllib`` and ``ssl``."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _spans(points: np.ndarray):
    """Axis ranges padded by 5 percent; unit span when degenerate."""
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = hi - lo
    for axis in range(2):
        if span[axis] <= 0.0:
            lo[axis] -= 0.5
            hi[axis] += 0.5
            span[axis] = 1.0
    pad = 0.05 * span
    return lo - pad, hi + pad


def check_canvas(width: int = 800, height: int = 600):
    """A ``plot_projection`` canvas, of its default size where unset, must hold a pixel."""
    if width < 1 or height < 1:
        raise InputError(f"plot canvas must be at least 1x1 pixel, got {width}x{height}")


def plot_projection(
    points: np.ndarray,
    labels: Optional[Sequence[int]] = None,
    label_names: Optional[Mapping[int, str]] = None,
    width: int = 800,
    height: int = 600,
    title: str = "",
) -> str:
    """Render a scatter plot of ``points`` (n, 2) as an SVG document string.

    ``labels`` colors each point by its (integer) cluster; ``label_names``
    optionally maps those integers to legend text. Unlabeled plots draw
    all points in a neutral dark gray and omit the legend.
    """
    check_canvas(width, height)
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise InputError(f"points must have shape (n, 2), got {points.shape}")
    n = points.shape[0]
    if n == 0:
        raise InputError("cannot plot zero points")
    if not np.isfinite(points).all():
        raise InputError("points contain non-finite values")
    if labels is not None:
        labels = [int(c) for c in labels]
        if len(labels) != n:
            raise InputError(f"{len(labels)} labels for {n} points")

    lo, hi = _spans(points)
    scale_x = width / (hi[0] - lo[0])
    scale_y = height / (hi[1] - lo[1])

    def to_px(pt):
        # SVG y axis points down; data y axis points up.
        px = (pt[0] - lo[0]) * scale_x
        py = height - (pt[1] - lo[1]) * scale_y
        return px, py

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{escape(title)}</text>'
        )

    for i in range(n):
        px, py = to_px(points[i])
        if labels is None:
            color = _UNLABELED_COLOR
        else:
            color = PALETTE[labels[i] % len(PALETTE)]
        parts.append(
            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" '
            f'fill="{color}" fill-opacity="0.8"/>'
        )

    if labels is not None:
        swatch = 12
        x0 = width - 150
        y0 = 30
        for slot, cluster in enumerate(sorted(set(labels))):
            color = PALETTE[cluster % len(PALETTE)]
            y = y0 + slot * (swatch + 6)
            name = label_names.get(cluster, f"cluster {cluster}") if label_names else f"cluster {cluster}"
            parts.append(
                f'<rect x="{x0}" y="{y}" width="{swatch}" height="{swatch}" fill="{color}"/>'
            )
            parts.append(
                f'<text x="{x0 + swatch + 5}" y="{y + swatch - 2}" '
                f'font-family="sans-serif" font-size="11">{escape(str(name))}</text>'
            )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def save_projection_plot(path, points, labels=None, **kwargs):
    svg = plot_projection(points, labels=labels, **kwargs)
    with _open_write(path) as fh:
        fh.write(svg)
