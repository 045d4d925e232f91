"""Minimal standalone SVG writers for domain outlines and spectrum plots.

Hand-rolled so outputs are byte-identical across runs (no timestamps,
no library-generated ids).
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import RadiusProfile

_W = 640
_H = 480
_PAD = 40
_OUTLINE_POINTS = 720


def _header(title: str) -> list:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<title>{title}</title>',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]


def _polyline(points, color: str = "#1f4e8c", width: float = 1.5) -> str:
    coords = " ".join(f"{x:.3f},{y:.3f}" for x, y in points)
    return (f'<polyline fill="none" stroke="{color}" stroke-width="{width}" '
            f'points="{coords}"/>')


def _scaled(xs, ys):
    xs, ys = np.asarray(xs, float), np.asarray(ys, float)
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    dx = (x1 - x0) or 1.0
    dy = (y1 - y0) or 1.0
    px = _PAD + (_W - 2 * _PAD) * (xs - x0) / dx
    py = _H - _PAD - (_H - 2 * _PAD) * (ys - y0) / dy
    return list(zip(px, py))


def domain_outline_svg(profile: RadiusProfile) -> str:
    """Closed boundary polyline of the starlike domain, isotropically scaled."""
    theta = np.linspace(0.0, 2 * math.pi, _OUTLINE_POINTS + 1)
    r = profile.radius(theta)
    x, y = r * np.cos(theta), r * np.sin(theta)
    span = max(x.max() - x.min(), y.max() - y.min()) or 1.0
    scale = (min(_W, _H) - 2 * _PAD) / span
    cx, cy = 0.5 * (x.max() + x.min()), 0.5 * (y.max() + y.min())
    pts = [(_W / 2 + scale * (xi - cx), _H / 2 - scale * (yi - cy))
           for xi, yi in zip(x, y)]
    parts = _header("domain outline")
    parts.append(_polyline(pts))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def spectrum_steps_svg(values, title: str = "spectrum") -> str:
    """Step plot of sorted eigenvalues against their index."""
    values = list(values)
    xs, ys = [], []
    for i, v in enumerate(values, start=1):
        xs.extend([i - 1, i])
        ys.extend([v, v])
    parts = _header(title)
    parts.append(_polyline(_scaled(xs, ys)))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def curve_svg(xs, ys, title: str = "curve") -> str:
    """Plain polyline of (x, y) pairs."""
    parts = _header(title)
    parts.append(_polyline(_scaled(xs, ys)))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
