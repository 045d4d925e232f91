"""Shared spectrum containers for the analytic and discrete eigensolvers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["MagneticSpectrum", "DIRICHLET", "NEUMANN", "validate_bc", "csv_rows"]

DIRICHLET = "dirichlet"
NEUMANN = "neumann"

_CSV_HEADER = "index,eigenvalue,lambda_times_A,bc,beta,provenance"


def validate_bc(bc: str) -> str:
    bc = str(bc).lower()
    if bc not in (DIRICHLET, NEUMANN):
        raise ValueError(f"boundary condition must be 'dirichlet' or 'neumann', got {bc!r}")
    return bc


def csv_rows(text: str, header: str) -> list:
    """Fields of each data row of a CSV text whose first line must be header.

    Blank lines and '#' comment lines are skipped.
    """
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != header:
        raise ValueError(f"unrecognized CSV header: expected {header!r}")
    return [ln.split(",") for ln in lines[1:]]


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

    @classmethod
    def from_csv(cls, text: str) -> "MagneticSpectrum":
        eigenvalues, areas, bcs, betas, provs = [], set(), set(), set(), set()
        for _, ev, lam_a, bc, beta, prov in csv_rows(text, _CSV_HEADER):
            eigenvalues.append(float(ev))
            areas.add(float(lam_a) / float(ev))
            bcs.add(bc)
            betas.add(float(beta))
            provs.add(prov)
        if len(bcs) != 1 or len(betas) != 1 or len(provs) != 1:
            raise ValueError("inconsistent spectrum CSV rows")
        area = sum(areas) / len(areas)
        return cls(eigenvalues=tuple(eigenvalues), bc=bcs.pop(), beta=betas.pop(),
                   area=area, provenance=provs.pop())
