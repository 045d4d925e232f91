"""Second-order ground-state response of nearly circular domains.

For boundary R = 1 + eps*P with P = sum_{n != 0} p_n e^{i n theta}
(p_{-n} = conj(p_n), p_0 = 0) and fixed flux beta > 0, the normalized
ground eigenvalue expands as

    lambda_eps * A_eps = lambda_1(D) pi + (sum_{n>=1} c |p_n|^2 q_n) eps^2 + ...

with

    c   = -M'(a_0, 1, z) / (dM/da)(a_0, 1, z) * 4 beta^2 / pi,
    q_n = 1 + n - z + z (log M)'(a_0, n+1, z) + z (log M)'(a_0+n, n+1, z),

where lambda_0 is the disk ground eigenvalue, a_0 = (1 - lambda_0
pi/beta)/2 and z = beta/2pi.  q_1 vanishes identically and q_n -> n+1 for
large n.  The symmetric half of the spectrum is already folded into c, so
the sum runs over n >= 1 with no extra doubling.

slope_validation measures the eps^2 coefficient with the discrete solver.
The measured slope is formed against the same-mesh disk eigenvalue
(lambda_h(eps) A_eps - lambda_h(0) pi) / eps^2, which cancels the common
discretization bias, then Richardson-extrapolated across two mesh levels
and extrapolated to eps = 0: in eps^2 for a single harmonic, where
lambda(eps) is even, and as a quadratic in eps when harmonics mix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from .disk import disk_eigenvalues, kummer_radial_factor
from .geometry import RadiusProfile, factors
from .kummer import kummer_m, kummer_m_da, kummer_m_dz
from .solver import SolverConfig, solve

__all__ = [
    "PerturbationProfile",
    "PerturbationReport",
    "QuadraticBound",
    "DegenerateCoefficientError",
    "QPoleError",
    "coefficient_c",
    "q_coefficient",
    "q_coefficient_profile_path",
    "slope_validation",
    "quadratic_bound",
]

_DENOM_FLOOR = 1e-12
_FD_STEP = 1e-3  # five-point stencil spacing of q_coefficient_profile_path


class DegenerateCoefficientError(RuntimeError):
    """The parametric derivative in the denominator of c is numerically zero."""


class QPoleError(RuntimeError):
    """M vanished at an interior parameter point of q_n (a genuine pole)."""

    def __init__(self, n: int, a: float, b: float, z: float):
        super().__init__(f"q_{n} pole: M({a}, {b}, {z}) is numerically zero")
        self.n, self.params = n, (a, b, z)


@dataclass(frozen=True)
class PerturbationProfile:
    """Complex Fourier data of a zero-mean real boundary perturbation.

    Only the n >= 1 half is stored; p_{-n} = conj(p_n) is implied.  The
    bridge to the real-harmonic form used by the geometry module is
    a_n = 2 Re p_n, b_n = -2 Im p_n.
    """

    p: tuple

    def __init__(self, p: Mapping[int, complex]):
        items = []
        for n, val in p.items():
            if n != int(n):
                raise ValueError(f"harmonic index must be an integer, got {n!r}")
            n = int(n)
            if n == 0:
                raise ValueError("perturbation profiles must have p_0 = 0 (omit n=0)")
            if n < 0:
                raise ValueError("store only the n >= 1 coefficients; "
                                 "p_{-n} = conj(p_n) is implied")
            val = complex(val)
            if not (math.isfinite(val.real) and math.isfinite(val.imag)):
                raise ValueError(f"non-finite coefficient p_{n}")
            items.append((n, val))
        items.sort()
        object.__setattr__(self, "p", tuple(items))

    @property
    def sum_sq(self) -> float:
        return sum(abs(v) ** 2 for _, v in self.p)

    @property
    def sum_n2_sq(self) -> float:
        return sum(n * n * abs(v) ** 2 for n, v in self.p)

    def to_radius_profile(self, eps: float) -> RadiusProfile:
        """RadiusProfile of R = 1 + eps*P; raises if not positive."""
        harmonics = tuple((n, 2.0 * eps * v.real, -2.0 * eps * v.imag)
                          for n, v in self.p)
        return RadiusProfile(1.0, harmonics)

    def to_dict(self) -> dict:
        return {"p": {str(n): [v.real, v.imag] for n, v in self.p}}

    @classmethod
    def from_dict(cls, data: Mapping) -> "PerturbationProfile":
        form = 'a perturbation profile must be {"p": {"<n>": [re, im], ..}}'
        coeffs = data.get("p") if isinstance(data, dict) else None
        if not isinstance(coeffs, dict):
            raise ValueError(f"{form}, got {data!r}")
        p = {}
        for key, val in coeffs.items():
            try:
                n = int(key)
                real, imag = val
                p_n = complex(real, imag)
            except (TypeError, ValueError):
                raise ValueError(f"{form} with integer n, got {key!r}: {val!r}") from None
            if n in p:
                raise ValueError(f"{form} with distinct n, got {key!r} for n = {n} twice")
            p[n] = p_n
        return cls(p)


def _ground_parameters(beta: float):
    b0 = abs(float(beta))
    if b0 == 0.0:
        raise ValueError("perturbation coefficients need nonzero flux")
    if beta < 0:
        warnings.warn("negative flux: using |beta| (the spectra coincide)",
                      stacklevel=3)
    ground = disk_eigenvalues(b0, 1).modes[0]
    if ground.m != 0:
        raise RuntimeError(
            f"disk ground state at beta={b0} is not radial (m={ground.m}); "
            "the ground-state expansion does not apply")
    lam0 = ground.eigenvalue
    a0 = 0.5 * (1.0 - lam0 * math.pi / b0)
    z = b0 / (2.0 * math.pi)
    return b0, lam0, a0, z


def coefficient_c(beta: float) -> float:
    """Overall second-order coefficient c of the eigenvalue expansion."""
    b0, _, a0, z = _ground_parameters(beta)
    denom = kummer_m_da(a0, 1.0, z)
    if abs(denom) < _DENOM_FLOOR:
        raise DegenerateCoefficientError(
            f"dM/da({a0}, 1, {z}) = {denom:.3g} is numerically zero")
    return -kummer_m_dz(a0, 1.0, z) / denom * 4.0 * b0 * b0 / math.pi


def q_coefficient(beta: float, n: int) -> float:
    """Harmonic weight q_n, from the log-derivative form."""
    if n < 1:
        raise ValueError(f"harmonic index must be >= 1, got {n}")
    b0, _, a0, z = _ground_parameters(beta)
    out = 1.0 + n - z
    for a in (a0, a0 + n):
        m_val = kummer_m(a, n + 1.0, z)
        if abs(m_val) < _DENOM_FLOOR:
            raise QPoleError(n, a, n + 1.0, z)
        out += z * kummer_m_dz(a, n + 1.0, z) / m_val
    return out


def q_coefficient_profile_path(beta: float, n: int) -> float:
    """q_n from boundary log-derivatives of the radial functions.

    Evaluates 1 + (f_n'(1)/f_n(1) + f_{-n}'(1)/f_{-n}(1))/2 with the
    derivatives taken by five-point finite differences of the radial
    profiles, so the route is independent of the contiguous-derivative
    identity used by q_coefficient.
    """
    if n < 1:
        raise ValueError(f"harmonic index must be >= 1, got {n}")
    b0, _, a0, z = _ground_parameters(beta)
    h = _FD_STEP
    stencil = np.array([1.0 - 2 * h, 1.0 - h, 1.0, 1.0 + h, 1.0 + 2 * h])
    out = 1.0
    for a in (a0, a0 + n):  # a parameters of f_{+n} and f_{-n}
        f, _ = kummer_radial_factor(a, n + 1.0, b0, stencil)
        if abs(f[2]) < _DENOM_FLOOR:
            raise QPoleError(n, a, n + 1.0, z)
        fp = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
        out += 0.5 * fp / f[2]
    return out


@dataclass(frozen=True)
class QuadraticBound:
    """Two-sided ground-state bound data for a nearly circular domain.

    lower/upper bracket lambda_eps A_eps / (lambda_1(D) pi); upper is the
    exact geometric factor G of the perturbed domain and surrogate its
    quadratic approximation 1 + 2 eps^2 max(sum n^2 |p_n|^2, 4 sum |p_n|^2),
    which differs from the exact factor only at third order in eps.
    """

    lower: float
    upper: float
    surrogate: float


def quadratic_bound(profile: PerturbationProfile, eps: float) -> QuadraticBound:
    if eps == 0.0:
        return QuadraticBound(lower=1.0, upper=1.0, surrogate=1.0)
    g_exact = factors(profile.to_radius_profile(eps)).g
    surrogate = 1.0 + 2.0 * eps * eps * max(profile.sum_n2_sq, 4.0 * profile.sum_sq)
    return QuadraticBound(lower=1.0, upper=g_exact, surrogate=surrogate)


@dataclass(frozen=True)
class PerturbationReport:
    """Predicted vs measured second-order slope of lambda_eps * A_eps."""

    beta: float
    lambda0: float
    a0: float
    z: float
    c: float
    q: dict
    predicted_slope: float
    measured_slope: float
    relative_mismatch: float
    slopes_by_eps: tuple = ()

    def to_dict(self) -> dict:
        return {"beta": self.beta, "lambda0": self.lambda0, "a0": self.a0,
                "z": self.z, "c": self.c,
                "q": {str(k): v for k, v in sorted(self.q.items())},
                "predicted_slope": self.predicted_slope,
                "measured_slope": self.measured_slope,
                "relative_mismatch": self.relative_mismatch,
                "slopes_by_eps": list(self.slopes_by_eps)}


def slope_validation(beta: float, profile: PerturbationProfile,
                     eps_list: Sequence[float] = (0.04, 0.02, 0.01),
                     cfg: Optional[SolverConfig] = None) -> PerturbationReport:
    """Compare the predicted eps^2 slope against discrete solves.

    Raises ValueError when cfg has no strictly coarser Richardson partner
    (SolverConfig.richardson_partner).
    """
    b0, lam0, a0, z = _ground_parameters(beta)
    if cfg is None:
        cfg = SolverConfig(n_radial=96, n_angular=192, beta=b0, n_eigs=1)
    eps_list = sorted(float(e) for e in eps_list)
    if not eps_list or eps_list[0] <= 0:
        raise ValueError("eps values must be positive")

    q = {n: q_coefficient(b0, n) for n, _ in profile.p}
    if 1 not in q:
        q[1] = q_coefficient(b0, 1)
    c = coefficient_c(b0)
    predicted = sum(c * abs(v) ** 2 * q[n] for n, v in profile.p)

    fine = replace(cfg, bc="dirichlet", beta=b0, n_eigs=1)
    levels = [fine.richardson_partner(), fine]
    disk = RadiusProfile(1.0)
    disk_vals = [solve(disk, lv).eigenvalues[0] for lv in levels]

    slopes = []
    for eps in eps_list:
        rp = profile.to_radius_profile(eps)
        area = factors(rp).area
        y_levels = [(solve(rp, lv).eigenvalues[0] * area - d0 * math.pi) / eps**2
                    for lv, d0 in zip(levels, disk_vals)]
        slopes.append(y_levels[1] + (y_levels[1] - y_levels[0]) / 3.0)

    # One harmonic n: rotating by pi/n maps eps to -eps, so lambda(eps) is even
    # and the slopes go as a + b eps^2.  Mixed harmonics keep an eps^3 term in
    # lambda: a + b eps + c eps^2.  The degree drops to what the eps values fix.
    single = len(profile.p) == 1
    x = np.asarray(eps_list) ** (2 if single else 1)
    degree = min(1 if single else 2, len(x) - 1)
    measured = float(np.polyfit(x, np.asarray(slopes), degree)[-1])
    mismatch = abs(measured - predicted) / max(abs(predicted), 1e-12)
    return PerturbationReport(beta=b0, lambda0=lam0, a0=a0, z=z, c=c, q=q,
                              predicted_slope=predicted, measured_slope=measured,
                              relative_mismatch=mismatch,
                              slopes_by_eps=tuple(zip(eps_list, slopes)))
