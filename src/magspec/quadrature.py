"""Panel Gauss-Legendre quadrature on [0, 1] (the unit radius) with
doubling-based refinement on a fixed schedule."""

from __future__ import annotations

import numpy as np

__all__ = ["panel_nodes", "adaptive_integral", "QuadratureError"]

_NODES_PER_PANEL = 12
_START_PANELS = 4
_MAX_DOUBLINGS = 10


class QuadratureError(RuntimeError):
    """Refinement failed to reach the requested relative tolerance."""


def panel_nodes(n_panels: int, n_nodes: int):
    """Nodes and weights of Gauss-Legendre applied on equal subpanels of [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def adaptive_integral(fn, rel_tol: float = 1e-8) -> float:
    """Integrate fn (vectorized over a node array) over [0, 1] by panel doubling.

    Stops when successive refinements agree to rel_tol relative to the
    magnitude of the result (with an absolute floor for integrals that are
    genuinely zero).
    """
    panels = _START_PANELS
    x, w = panel_nodes(panels, _NODES_PER_PANEL)
    prev = float(np.dot(w, fn(x)))
    scale = max(abs(prev), 1e-300)
    for _ in range(_MAX_DOUBLINGS):
        panels *= 2
        x, w = panel_nodes(panels, _NODES_PER_PANEL)
        cur = float(np.dot(w, fn(x)))
        scale = max(scale, abs(cur))
        if abs(cur - prev) <= rel_tol * scale + 1e-15:
            return cur
        prev = cur
    raise QuadratureError(
        f"panel refinement did not converge to rel_tol={rel_tol} "
        f"(last change {abs(cur - prev):.3g} at {panels} panels)")
