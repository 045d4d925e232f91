"""Shared spectrum containers for the analytic and discrete eigensolvers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["MagneticSpectrum", "DIRICHLET", "NEUMANN", "validate_bc"]

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

_CSV_HEADER = "index,eigenvalue,lambda_times_A,bc,beta,provenance"


def validate_bc(bc: str) -> str:
    bc = str(bc).lower()
    if bc not in (DIRICHLET, NEUMANN):
        raise ValueError(f"boundary condition must be 'dirichlet' or 'neumann', got {bc!r}")
    return bc


@dataclass(eq=False)
class MagneticSpectrum:
    """Sorted eigenvalues of the magnetic Laplacian on one domain.

    normalized holds the dilation-invariant products eigenvalue * area.
    provenance is "analytic" for Kummer/Bessel root values or
    "discrete(<nr>x<nt>)" for variational solves.  Discrete spectra may
    carry eigenvectors and the mesh layout for diagnostics, and a
    solver.SolveStats record in stats; analytic ones carry the per-mode
    labels instead.  None of these enter to_csv.
    """

    eigenvalues: tuple
    bc: str
    beta: float
    area: float
    provenance: str
    modes: Optional[tuple] = None
    error_bars: Optional[tuple] = None
    eigenvectors: object = field(default=None, repr=False)
    mesh: object = field(default=None, repr=False)
    stats: object = field(default=None, repr=False)

    def __post_init__(self):
        self.bc = validate_bc(self.bc)
        self.eigenvalues = tuple(float(v) for v in self.eigenvalues)
        vals = self.eigenvalues
        if any(vals[i] > vals[i + 1] for i in range(len(vals) - 1)):
            raise ValueError("eigenvalues must be nondecreasing")
        # Strict positivity; the zero-field Neumann ground state is zero up
        # to rounding, so only that case admits a tolerance.
        floor = 0.0
        if self.bc == NEUMANN and self.beta == 0.0:
            floor = -1e-9 * max(1.0, abs(vals[-1]) if vals else 1.0)
        if any(v < floor for v in vals) or (floor == 0.0 and any(v <= 0 for v in vals)):
            raise ValueError(f"eigenvalues must be positive, got {vals[:4]}...")
        if not (self.area > 0 and math.isfinite(self.area)):
            raise ValueError(f"area must be positive, got {self.area}")

    def __len__(self) -> int:
        return len(self.eigenvalues)

    @property
    def normalized(self) -> tuple:
        return tuple(v * self.area for v in self.eigenvalues)

    def to_csv(self) -> str:
        lines = [_CSV_HEADER]
        for i, v in enumerate(self.eigenvalues, start=1):
            lines.append(f"{i},{v!r},{v * self.area!r},{self.bc},{self.beta!r},{self.provenance}")
        return "\n".join(lines) + "\n"
