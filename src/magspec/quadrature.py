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


def adaptive_integral(fn, rel_tol: float = 1e-8) -> tuple:
    """Integrate the integrands fn returns over [0, 1] by panel doubling.

    fn maps a node array to a tuple of integrands on those nodes.  Each
    integral stops when successive refinements agree to rel_tol relative
    to its magnitude (with an absolute floor for integrals that are
    genuinely zero); they come back as a tuple, from one fn call per level.
    """
    def integrate(panels):
        x, w = panel_nodes(panels, _NODES_PER_PANEL)
        return [float(np.dot(w, v)) for v in fn(x)]

    panels = _START_PANELS
    prev = integrate(panels)
    scale = [max(abs(p), 1e-300) for p in prev]
    result = [None] * len(prev)
    for _ in range(_MAX_DOUBLINGS):
        panels *= 2
        cur = integrate(panels)
        changes = []
        for i, c in enumerate(cur):
            if result[i] is None:
                scale[i] = max(scale[i], abs(c))
                if abs(c - prev[i]) <= rel_tol * scale[i] + 1e-15:
                    result[i] = c
                else:
                    changes.append(abs(c - prev[i]))
        if not changes:
            return tuple(result)
        prev = cur
    raise QuadratureError(
        f"panel refinement did not converge to rel_tol={rel_tol} "
        f"(last change {max(changes):.3g} at {panels} panels)")
