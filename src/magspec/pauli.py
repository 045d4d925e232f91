"""Dirichlet Pauli spectra via the shift-and-union splitting.

In two dimensions the spin degree of freedom decouples: the Dirichlet
Pauli spectrum is the multiset union of the magnetic Laplacian spectrum
shifted down by beta/A (spin-up component) and up by beta/A (spin-down),
multiplicities respected.  The shifted sequence (lambda^P_j + |beta|/A)
therefore satisfies the same disk-maximality bounds as the magnetic
eigenvalues, with the smallest shifted value equal to lambda_1 itself.

No spinor-level operator is ever assembled; Neumann input is rejected
because the Pauli quadratic form has an infinite-dimensional null space
on H^1 and no discrete spectrum there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .functionals import PhiFamily, _verdicts, domain_and_disk_spectra
from .geometry import RadiusProfile, factors
from .solver import SolverConfig
from .spectra import DIRICHLET, MagneticSpectrum

__all__ = [
    "PauliSpectrum",
    "InsufficientSpectrumError",
    "pauli_spectrum",
    "verify_pauli_bounds",
]

SPIN_UP = "spin_up"
SPIN_DOWN = "spin_down"

PAULI_CSV_HEADER = ("index,eigenvalue,branch,source_index,"
                    "shifted_normalized,beta,area,g")


class InsufficientSpectrumError(RuntimeError):
    """Not enough magnetic eigenvalues to pin down the requested Pauli count."""

    def __init__(self, message: str, required: int):
        super().__init__(message)
        self.required = required


@dataclass(frozen=True)
class PauliSpectrum:
    """Sorted Pauli eigenvalues with their spin branch labels.

    entries are (eigenvalue, branch, source_index) with source_index the
    position of the parent magnetic eigenvalue; shifted_normalized lists
    (lambda^P_j + |beta|/A) * A / g for the stored geometric factor g.
    """

    entries: tuple
    beta: float
    area: float
    g: float = 1.0

    @property
    def eigenvalues(self) -> tuple:
        return tuple(e[0] for e in self.entries)

    @property
    def shifted_normalized(self) -> tuple:
        shift = abs(self.beta) / self.area
        return tuple((v + shift) * self.area / self.g for v in self.eigenvalues)

    def to_csv(self) -> str:
        lines = [PAULI_CSV_HEADER]
        for i, ((val, branch, src), shifted) in enumerate(
                zip(self.entries, self.shifted_normalized), start=1):
            lines.append(f"{i},{val!r},{branch},{src},{shifted!r},"
                         f"{self.beta!r},{self.area!r},{self.g!r}")
        return "\n".join(lines) + "\n"


def pauli_spectrum(magnetic: MagneticSpectrum, n: int, g: float = 1.0) -> PauliSpectrum:
    """n smallest Pauli eigenvalues from a Dirichlet magnetic spectrum.

    Raises InsufficientSpectrumError when the supplied magnetic spectrum
    cannot certify the n-th merged value (an unseen magnetic eigenvalue
    could still slip below it after the downward shift).  That needs
    fewer than n magnetic values: the n-th merged value is at most
    lambda_n - |beta|/A, the certainty floor of any n of them.
    """
    if magnetic.bc != DIRICHLET:
        raise ValueError(
            "Pauli spectra require Dirichlet input: with Neumann conditions the "
            "Pauli form has an infinite-dimensional null space and no discrete "
            "spectrum on H^1")
    if n < 1:
        raise ValueError(f"need n >= 1 Pauli eigenvalues, got {n}")
    shift = magnetic.beta / magnetic.area
    merged = [(lam - shift, SPIN_UP, i) for i, lam in enumerate(magnetic.eigenvalues)]
    merged += [(lam + shift, SPIN_DOWN, i) for i, lam in enumerate(magnetic.eigenvalues)]
    merged.sort(key=lambda t: (t[0], t[1], t[2]))
    if len(merged) < n:
        raise InsufficientSpectrumError(
            f"only {len(merged)} candidate values for n={n}", required=n)
    certainty_floor = magnetic.eigenvalues[-1] - abs(shift)
    if merged[n - 1][0] > certainty_floor:
        raise InsufficientSpectrumError(
            f"the {n}-th Pauli value {merged[n - 1][0]:.6g} is not certified by "
            f"{len(magnetic.eigenvalues)} magnetic eigenvalues (floor "
            f"{certainty_floor:.6g}); provide at least {n}", required=n)
    if merged[0][0] <= 0:
        raise RuntimeError(
            f"nonpositive Pauli ground value {merged[0][0]:.6g}: input is not a "
            "genuine Dirichlet magnetic spectrum")
    return PauliSpectrum(entries=tuple(merged[:n]), beta=magnetic.beta,
                         area=magnetic.area, g=g)


def verify_pauli_bounds(profile: RadiusProfile, beta: float, n,
                        phis: Iterable[PhiFamily] = None,
                        cfg: Optional[SolverConfig] = None) -> list:
    """Disk-comparison verdicts for the shifted Pauli sequences.

    Applies each functional to (lambda^P_j + |beta|/A) A / G on the domain
    against the disk's (lambda^P_j + |beta|/pi) pi, exactly as for the
    magnetic eigenvalues.  Both sides come from one domain_and_disk_spectra
    call, as for the magnetic verdicts, with max(n) eigenvalues each: n
    magnetic values always certify n Pauli values.  Error bars are
    inherited from the parent magnetic eigenvalues through the merge; the
    disk's are zero.
    """
    def sides(n_max):
        spectra = domain_and_disk_spectra(profile, beta, DIRICHLET, n_max, cfg)
        out = []
        for magnetic, g in zip(spectra, (factors(profile).g, 1.0)):
            pauli = pauli_spectrum(magnetic, n_max, g)
            out += [pauli.shifted_normalized,
                    [magnetic.error_bars[src] * magnetic.area / g
                     for _, _, src in pauli.entries]]
        return out

    return _verdicts(n, phis, sides, DIRICHLET, beta)
