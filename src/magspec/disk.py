"""Analytic Dirichlet spectrum of the magnetic Laplacian on the unit disk.

Separated eigenfunctions are f_m(s) e^{i m phi}.  For flux beta != 0 the
radial factor is

    f_m(s) = (s^2/pi)^{|m|/2} exp(-beta s^2 / 4 pi) M(a, |m|+1, beta s^2 / 2 pi)

and the Dirichlet condition f_m(1) = 0 makes the unit-disk eigenvalues
lambda the roots of M(a(lambda), |m|+1, beta/2pi) = 0 in the first
parameter, a(lambda) = (1 + |m| - m - lambda*pi/beta)/2.  At beta = 0 the
radial factor degenerates to the Bessel function J_|m| and the
eigenvalues are squared Bessel zeros.

Flipping the flux sign flips the angular index: the spectrum for -beta
equals the spectrum for +beta with m relabeled as -m, so all root finding
happens at |beta| and labels are adjusted on output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kummer import bessel_j_zero, kummer_m, kummer_m_da, kummer_m_dz
from .quadrature import adaptive_integral
from .spectra import DIRICHLET, MagneticSpectrum

__all__ = [
    "DiskMode",
    "IncompleteSpectrumError",
    "disk_eigenvalues",
    "disk_radial_profile",
    "disk_radial_profile_deriv",
    "normalization_constant",
    "angular_energy_fraction",
    "rayleigh_energy",
]

_ROOT_STEP_TOL = 1e-10


class IncompleteSpectrumError(RuntimeError):
    """Root scan hit its range limit before the requested count was certain."""

    def __init__(self, message: str, modes_found):
        super().__init__(message)
        self.modes_found = modes_found


@dataclass(frozen=True)
class DiskMode:
    """One analytic disk eigenpair.

    m is the angular index, k >= 1 the radial index within that mode, and
    (a, b, z) the Kummer parameters of the radial factor at the eigenvalue
    (b = |m|+1, z = |beta|/2pi).  At beta = 0 the Kummer parameters are not
    meaningful and a is NaN.
    """

    m: int
    k: int
    eigenvalue: float
    beta: float
    a: float
    b: float
    z: float

    @property
    def internal_m(self) -> int:
        """Angular index in the positive-flux convention used internally."""
        return self.m if self.beta >= 0 else -self.m


def _kummer_parameter(m_int: int, x: float, b0: float) -> float:
    # x = lambda * pi (unit-disk normalized eigenvalue)
    return 0.5 * (1 + abs(m_int) - m_int) - x / (2.0 * b0)


def _mode_function(m_int: int, b0: float, z: float):
    b = abs(m_int) + 1.0

    def g(x: float) -> float:
        return kummer_m(_kummer_parameter(m_int, x, b0), b, z)

    return g


def _bisect(g, lo: float, hi: float, f_lo: float) -> float:
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        f_mid = g(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def _scan_roots(g, x_max: float, step: float):
    roots = []
    x, f_prev = 0.0, g(0.0)  # a(0) > 0, so M > 0 here
    while x < x_max:
        x_next = min(x + step, x_max)
        f_next = g(x_next)
        if f_next == 0.0:
            roots.append(x_next)
        elif f_prev * f_next < 0:
            roots.append(_bisect(g, x, x_next, f_prev))
        x, f_prev = x_next, f_next
    return roots


def _mode_roots(m_int: int, b0: float, z: float, x_max: float, step: float):
    """All roots (in x = lambda*pi) of mode m_int up to x_max.

    Consecutive roots of one mode are separated by at least the squared
    Bessel-zero gaps (times pi) in the weak-field regime and by twice the
    Landau spacing 2*b0 in the strong-field regime, both far above the
    scan step; if a gap ever comes within 4 steps of the scan resolution,
    rescan finer to rule out a straddled pair.
    """
    roots = _scan_roots(_mode_function(m_int, b0, z), x_max, step)
    if any(b - a < 4.0 * step for a, b in zip(roots, roots[1:])):
        roots = _scan_roots(_mode_function(m_int, b0, z), x_max, step / 8.0)
    return roots


def _collect_magnetic(b0: float, n: int):
    """Modes (m_int, k, x_root) of the |beta| problem, n smallest by x."""
    z = b0 / (2.0 * math.pi)
    # Within one mode, consecutive roots are >= min(77, 2*b0) apart in
    # x = lambda*pi (Bessel-gap floor, Landau spacing ceiling), so the
    # flux-proportional step needs no refinement below b0 = 0.5.
    step = 0.5 * min(1.0, max(b0, 0.5) / (4.0 * math.pi))
    scan_limit = 1e4 * max(1.0, b0)
    # the flux shifts each zero-field level by at most ~b0 in x = lambda*pi
    x_max = math.pi * _zero_field_modes(n)[-1].eigenvalue + 2.0 * b0 + 10.0

    found = []  # (x, m_int, k)
    while True:
        if x_max > scan_limit:
            raise IncompleteSpectrumError(
                f"root scan frontier {x_max:.3g} exceeds limit {scan_limit:.3g} "
                f"for beta={b0}, n={n}",
                modes_found=[(m, k, x / math.pi) for x, m, k in found])
        found = []
        for sign in (+1, -1):
            m = 0 if sign > 0 else 1
            empty_levels = 0
            while empty_levels < 2:
                roots = _mode_roots(sign * m, b0, z, x_max, step)
                if roots:
                    empty_levels = 0
                    found.extend((x, sign * m, k + 1) for k, x in enumerate(roots))
                else:
                    empty_levels += 1
                m += 1
        found.sort(key=lambda t: (t[0], t[1], t[2]))
        if len(found) >= n and found[n - 1][0] <= x_max - step:
            return found[:n], z
        x_max *= 1.6


def _check_root(m_int: int, k: int, x: float, b0: float, z: float) -> None:
    """Raise unless x = lambda*pi is a root of mode m_int to a relative
    Newton step of 1e-10: |M| <= 1e-10 * |x dM/dx|.

    An absolute bound on |M| cannot serve at strong flux: near x ~ 150 the
    slope |x dM/dx| reaches ~5e8, so one ulp of x already moves M by ~1e-7.
    """
    a = _kummer_parameter(m_int, x, b0)
    b = abs(m_int) + 1.0
    residual = abs(kummer_m(a, b, z))
    slope = abs(x * kummer_m_da(a, b, z)) / (2.0 * b0)  # da/dx = -1/(2 b0)
    if residual > _ROOT_STEP_TOL * slope:
        raise RuntimeError(
            f"disk mode (m={m_int}, k={k}) root residual {residual:.3g} "
            f"exceeds 1e-10 * |x dM/dx| = {_ROOT_STEP_TOL * slope:.3g}")


@lru_cache(maxsize=64)
def disk_eigenvalues(beta: float, n: int) -> MagneticSpectrum:
    """n smallest Dirichlet eigenvalues of the unit disk at flux beta.

    Returns an analytic spectrum whose modes carry the (m, k) labels and
    Kummer parameters; every Kummer-root mode passes the relative
    Newton-step test |M(a, |m|+1, z)| <= 1e-10 * |x dM/dx| at x = lambda*pi.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 eigenvalues, got {n}")
    beta = float(beta)
    if beta == 0.0:
        modes = _zero_field_modes(n)
    else:
        b0 = abs(beta)
        raw, z = _collect_magnetic(b0, n)
        modes = []
        for x, m_int, k in raw:
            _check_root(m_int, k, x, b0, z)
            m_label = m_int if beta > 0 else -m_int
            modes.append(DiskMode(m=m_label, k=k, eigenvalue=x / math.pi,
                                  beta=beta, a=_kummer_parameter(m_int, x, b0),
                                  b=abs(m_int) + 1.0, z=z))
    return MagneticSpectrum(
        eigenvalues=tuple(md.eigenvalue for md in modes),
        bc=DIRICHLET, beta=beta, area=math.pi,
        provenance="analytic", modes=tuple(modes))


def _zero_field_modes(n: int):
    """Bessel branch: lambda_{m,k} = j_{|m|,k}^2, each |m| >= 1 doubled."""
    entries = []
    x_max = bessel_j_zero(0, n) ** 2  # n m=0 modes always suffice

    def add_upto(limit):
        entries.clear()
        m = 0
        while True:
            j1 = bessel_j_zero(m, 1) ** 2
            if j1 > limit:
                break
            k = 1
            while (lam := bessel_j_zero(m, k) ** 2) <= limit:
                entries.append((lam, m, k))
                if m > 0:
                    entries.append((lam, -m, k))
                k += 1
            m += 1

    add_upto(x_max)
    while len(entries) < n:
        x_max *= 1.5
        add_upto(x_max)
    entries.sort(key=lambda t: (t[0], t[1], t[2]))
    return [DiskMode(m=m, k=k, eigenvalue=lam, beta=0.0,
                     a=float("nan"), b=abs(m) + 1.0, z=0.0)
            for lam, m, k in entries[:n]]


# ---------------------------------------------------------------------------
# Radial profiles and their energies.


def disk_radial_profile(mode: DiskMode, s_grid) -> np.ndarray:
    """f_m(s, lambda*pi) on the given radii in (0, 1]; unnormalized."""
    s = np.asarray(s_grid, dtype=float)
    if mode.beta == 0.0:
        from scipy.special import jv  # on first use, as in kummer
        return jv(abs(mode.m), math.sqrt(mode.eigenvalue) * s)
    b0 = abs(mode.beta)
    am = abs(mode.m)
    pref = (s * s / math.pi) ** (am / 2.0) * np.exp(-b0 * s * s / (4.0 * math.pi))
    vals = np.array([kummer_m(mode.a, mode.b, b0 * si * si / (2.0 * math.pi))
                     for si in s.ravel()]).reshape(s.shape)
    return pref * vals


def disk_radial_profile_deriv(mode: DiskMode, s_grid) -> np.ndarray:
    """d/ds of the radial factor, evaluated analytically (s > 0)."""
    s = np.asarray(s_grid, dtype=float)
    if mode.beta == 0.0:
        from scipy.special import jvp
        root = math.sqrt(mode.eigenvalue)
        return root * jvp(abs(mode.m), root * s)
    b0 = abs(mode.beta)
    am = abs(mode.m)
    z_of_s = b0 * s * s / (2.0 * math.pi)
    pref = (s * s / math.pi) ** (am / 2.0) * np.exp(-b0 * s * s / (4.0 * math.pi))
    m_vals = np.array([kummer_m(mode.a, mode.b, zi) for zi in z_of_s.ravel()]
                      ).reshape(s.shape)
    mp_vals = np.array([kummer_m_dz(mode.a, mode.b, zi) for zi in z_of_s.ravel()]
                       ).reshape(s.shape)
    return pref * ((am / s - b0 * s / (2.0 * math.pi)) * m_vals
                   + (b0 * s / math.pi) * mp_vals)


def normalization_constant(mode: DiskMode, rel_tol: float = 1e-10) -> float:
    """c such that 2*pi*int_0^1 (c f)^2 s ds = 1."""
    norm_sq = 2.0 * math.pi * adaptive_integral(
        lambda s: disk_radial_profile(mode, s) ** 2 * s, rel_tol=rel_tol)
    return 1.0 / math.sqrt(norm_sq)


def _angular_coefficient(mode: DiskMode, s: np.ndarray) -> np.ndarray:
    # (beta s / 2pi - m/s) in the positive-flux convention
    b0 = abs(mode.beta)
    return b0 * s / (2.0 * math.pi) - mode.internal_m / s


def angular_energy_fraction(mode: DiskMode, rel_tol: float = 1e-8) -> float:
    """Fraction of the mode's magnetic energy carried by the angular term.

    alpha = int ((beta/2pi)s - m/s)^2 f^2 s ds  /
            int (f'^2 + ((beta/2pi)s - m/s)^2 f^2) s ds  in [0, 1];
    the normalization of f cancels in the ratio.
    """
    if mode.beta == 0.0 and mode.m == 0:
        return 0.0

    def ang(s):
        f = disk_radial_profile(mode, s)
        return (_angular_coefficient(mode, s) * f) ** 2 * s

    def rad(s):
        return disk_radial_profile_deriv(mode, s) ** 2 * s

    num = adaptive_integral(ang, rel_tol=rel_tol)
    den = num + adaptive_integral(rad, rel_tol=rel_tol)
    alpha = num / den
    if not -1e-12 <= alpha <= 1 + 1e-12:
        raise RuntimeError(f"angular energy fraction {alpha} outside [0, 1]")
    return min(max(alpha, 0.0), 1.0)


def rayleigh_energy(mode: DiskMode, rel_tol: float = 1e-9) -> float:
    """Magnetic energy of the normalized mode; equals its eigenvalue.

    Serves as an independent consistency check of the radial profile, its
    derivative, and the angular index convention.
    """

    def dens(s):
        f = disk_radial_profile(mode, s)
        fp = disk_radial_profile_deriv(mode, s)
        return (fp**2 + (_angular_coefficient(mode, s) * f) ** 2) * s

    def mass(s):
        return disk_radial_profile(mode, s) ** 2 * s

    return adaptive_integral(dens, rel_tol=rel_tol) / adaptive_integral(
        mass, rel_tol=rel_tol)
