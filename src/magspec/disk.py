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

Roots are bracketed with no scan step.  In x = lambda*pi the mode's Landau
levels x_i = |beta|(2i + 1 + |m| - m) are where M(-i, |m|+1, z) is a
Laguerre polynomial; Sturm oscillation and the interlacing of Laguerre
zeros (DLMF 18.2(vi)) put at most one eigenvalue of a mode in each
(x_i, x_{i+1}], so a sign change there is exactly one root.  Min-max against
the Bessel operator puts the k-th one between pi j_{|m|,k}^2 - m|beta| and
that plus beta^2/4pi.  Roots are taken in the order of these lower bounds,
and the search stops once n are found and no bound lies below the n-th:
the spectrum is complete by construction.

Each bracket is shrunk to two adjacent floats whose computed signs of M
differ, by Anderson-Bjorck regula falsi with a midpoint step whenever two
steps have not halved it.  That ends on the floats plain bisection ends on,
from 5-20 M evaluations per eigenvalue (bracket steps and root check
included) instead of 12-69.  The step is written here, not taken from
scipy.optimize: importing that module costs 0.25-0.29 s (2-vCPU VM,
Python 3.11, scipy 1.17), longer than a whole disk-spectra benchmark round
takes with this step, and its brentq returns a point, not the bracket the
adjacent-float end needs.

Every radial factor comes from kummer_radial_factor, which takes the Kummer
parameters directly and gives f, and f' on request, from one M and one M'
evaluation per radius.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kummer import bessel_j_zero, kummer_m, kummer_m_da, kummer_m_dz
from .quadrature import adaptive_integral
from .spectra import DIRICHLET, MagneticSpectrum

__all__ = [
    "DiskMode",
    "disk_eigenvalues",
    "disk_radial_factors",
    "disk_radial_profile",
    "disk_radial_profile_deriv",
    "kummer_radial_factor",
    "normalization_constant",
    "angular_energy_fraction",
    "rayleigh_energy",
]

_ROOT_STEP_TOL = 1e-10


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


def _refine_to_adjacent_floats(g, lo: float, hi: float, f_lo: float,
                               f_hi: float, sign: float) -> float:
    """Shrink [lo, hi], which holds one root of g, to two adjacent floats
    whose signs of g differ, and return their midpoint.  `sign` is the sign
    of g at lo (Sturm) and not at hi; f_lo and f_hi are the computed g there.

    Anderson-Bjorck regula falsi: a secant step through the ends, rounded
    to lie strictly inside; when one end moves twice running, the value kept
    at the other is scaled by 1 - g(new)/g(old) (1/2 if that is <= 0).  A
    midpoint step replaces it whenever two steps have not halved the
    bracket, and every step is a midpoint when f_lo disagrees with `sign`.
    Which end moves depends on the sign of g alone, so the two floats are
    the ones plain bisection ends on.
    """
    secant = f_lo * sign > 0
    moved = 0  # the end the last step moved: -1 lo, +1 hi
    widths = (math.inf, math.inf)  # of the bracket two and one steps back
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        x = mid
        if secant and hi - lo <= 0.5 * widths[0]:
            x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
            x = min(max(x, math.nextafter(lo, hi)), math.nextafter(hi, lo))
        widths = (widths[1], hi - lo)
        f_x = g(x)
        if f_x == 0.0:
            return x
        if f_x * sign < 0:
            if moved > 0:
                scale = 1.0 - f_x / f_hi
                f_lo *= scale if scale > 0 else 0.5
            hi, f_hi, moved = x, f_x, 1
        else:
            if moved < 0:
                scale = 1.0 - f_x / f_lo
                f_hi *= scale if scale > 0 else 0.5
            lo, f_lo, moved = x, f_x, -1


def _landau_point(m_int: int, i: int, b0: float) -> float:
    # x = lambda*pi of the mode's i-th Landau level, where a = -i
    return b0 * (2 * i + 1 + abs(m_int) - m_int)


def _opening_bound(m_int: int, b0: float) -> float:
    # first root of a mode: a < 0 and j_{|m|,1} > |m|; nondecreasing in |m|
    return max(math.pi * m_int * m_int - m_int * b0, _landau_point(m_int, 0, b0))


def _bessel_bracket(m_int: int, k: int, b0: float):
    # min-max against the Bessel operator, j = j_{|m|,k}:
    # pi j^2 - m b0 <= x_{m,k} <= pi j^2 - m b0 + b0^2/4pi, each side widened
    # by 1e-13 of the terms' size to cover their float error (< 1e-15)
    pj2 = math.pi * bessel_j_zero(abs(m_int), k) ** 2
    shift = b0 * b0 / (4.0 * math.pi)
    slack = 1e-13 * (pj2 + abs(m_int) * b0 + shift)
    return pj2 - m_int * b0 - slack, pj2 - m_int * b0 + shift + slack


def _next_root(m_int: int, k: int, lo: float, b0: float, z: float, x_cap: float):
    """Root k of mode m_int above lo, with k - 1 roots of the mode below lo,
    so M has the sign (-1)^(k-1) there (Sturm).  Returns (x, hi), hi between
    roots k and k + 1; x is None when root k > x_cap."""
    def g(x: float) -> float:
        return kummer_m(_kummer_parameter(m_int, x, b0), abs(m_int) + 1.0, z)

    sign = (-1.0) ** (k - 1)
    f_lo = None  # M at lo, once computed
    # below root k + 1, and above root k when the Bessel brackets are apart
    ceiling = min(_bessel_bracket(m_int, k, b0)[1], _bessel_bracket(m_int, k + 1, b0)[0])
    while True:
        if ceiling > lo:
            hi = ceiling
        else:  # the next Landau level: (lo, hi] then holds at most root k
            i = math.floor(-_kummer_parameter(m_int, lo, b0)) + 1
            while (hi := _landau_point(m_int, i, b0)) <= lo:
                i += 1
        hi = min(hi, x_cap)
        f_hi = g(hi)
        if sign * f_hi <= 0:
            if f_lo is None:
                f_lo = g(lo)
            return _refine_to_adjacent_floats(g, lo, hi, f_lo, f_hi, sign), hi
        if hi == x_cap:
            return None, hi
        lo, f_lo = hi, f_hi


def _collect_magnetic(b0: float, z: float, n: int):
    """Modes (x_root, m_int, k) of the |beta| problem, n smallest by x."""
    # (lower bound on x, m_int, k); k = 0 marks the next mode of its sign
    # that is not opened yet
    heap = [(_opening_bound(m, b0), m, 0) for m in (0, -1)]
    found = []  # (x, m_int, k)
    x_cap = math.inf  # the n-th root once n are found
    while heap[0][0] <= x_cap:
        bound, m_int, k = heapq.heappop(heap)
        if k == 0:
            nxt = m_int + 1 if m_int >= 0 else m_int - 1
            heapq.heappush(heap, (_opening_bound(nxt, b0), nxt, 0))
            lower = max(_bessel_bracket(m_int, 1, b0)[0], _landau_point(m_int, 0, b0))
            heapq.heappush(heap, (lower, m_int, 1))
            continue
        x, hi = _next_root(m_int, k, bound, b0, z, x_cap)
        if x is None:
            continue  # this root, and every later one of the mode, is > x_cap
        found.append((x, m_int, k))
        lower = max(_bessel_bracket(m_int, k + 1, b0)[0], hi)
        heapq.heappush(heap, (lower, m_int, k + 1))
        if len(found) >= n:
            found.sort()
            del found[n:]
            x_cap = found[-1][0]
    return found


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
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    if beta == 0.0:
        modes = _zero_field_modes(n)
    else:
        b0 = abs(beta)
        z = b0 / (2.0 * math.pi)
        modes = []
        for x, m_int, k in _collect_magnetic(b0, z, n):
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
    """Bessel branch: lambda_{m,k} = j_{|m|,k}^2, each |m| >= 1 doubled, taken
    smallest first (j_{m,k} grows with m and with k)."""
    heap = [(bessel_j_zero(0, 1) ** 2, 0, 1)]
    entries = []
    while len(entries) < n:
        lam, m, k = heapq.heappop(heap)
        entries += [(lam, m, k), (lam, -m, k)] if m > 0 else [(lam, m, k)]
        heapq.heappush(heap, (bessel_j_zero(m, k + 1) ** 2, m, k + 1))
        if k == 1:
            heapq.heappush(heap, (bessel_j_zero(m + 1, 1) ** 2, m + 1, 1))
    entries.sort()
    return [DiskMode(m=m, k=k, eigenvalue=lam, beta=0.0,
                     a=float("nan"), b=abs(m) + 1.0, z=0.0)
            for lam, m, k in entries[:n]]


# ---------------------------------------------------------------------------
# Radial profiles and their energies.


def kummer_radial_factor(a: float, b: float, b0: float, s, deriv: bool = False):
    """Magnetic radial factor with its Kummer parameters given directly.

    f(s) = (s^2/pi)^{(b-1)/2} exp(-b0 s^2/4pi) M(a, b, b0 s^2/2pi) on radii
    s > 0, from one M evaluation per radius.  Returns (f, f'); f' is
    None unless deriv, and then costs one M' evaluation per radius more.
    """
    s = np.asarray(s, dtype=float)
    order = b - 1.0
    z_of_s = b0 * s * s / (2.0 * math.pi)
    pref = (s * s / math.pi) ** (order / 2.0) * np.exp(-b0 * s * s / (4.0 * math.pi))
    m_vals = np.array([kummer_m(a, b, zi) for zi in z_of_s.ravel()]).reshape(s.shape)
    if not deriv:
        return pref * m_vals, None
    mp_vals = np.array([kummer_m_dz(a, b, zi) for zi in z_of_s.ravel()]
                       ).reshape(s.shape)
    return pref * m_vals, pref * ((order / s - b0 * s / (2.0 * math.pi)) * m_vals
                                  + (b0 * s / math.pi) * mp_vals)


def disk_radial_factors(mode: DiskMode, s_grid) -> tuple[np.ndarray, np.ndarray]:
    """(f, f') of the mode's radial factor on radii in (0, 1]; unnormalized,
    f' analytic.  At beta != 0 this is one M and one M' evaluation per radius."""
    s = np.asarray(s_grid, dtype=float)
    if mode.beta == 0.0:
        from scipy.special import jv, jvp  # on first use, as in kummer
        root = math.sqrt(mode.eigenvalue)
        return jv(abs(mode.m), root * s), root * jvp(abs(mode.m), root * s)
    return kummer_radial_factor(mode.a, mode.b, abs(mode.beta), s, deriv=True)


def disk_radial_profile(mode: DiskMode, s_grid) -> np.ndarray:
    """f_m(s, lambda*pi) on the given radii in (0, 1]; unnormalized."""
    if mode.beta == 0.0:
        return disk_radial_factors(mode, s_grid)[0]
    return kummer_radial_factor(mode.a, mode.b, abs(mode.beta), s_grid)[0]


def disk_radial_profile_deriv(mode: DiskMode, s_grid) -> np.ndarray:
    """d/ds of the radial factor (s > 0): the f' of disk_radial_factors."""
    return disk_radial_factors(mode, s_grid)[1]


def normalization_constant(mode: DiskMode) -> float:
    """c such that 2*pi*int_0^1 (c f)^2 s ds = 1, to a relative 1e-10."""
    (integral,) = adaptive_integral(
        lambda s: (disk_radial_profile(mode, s) ** 2 * s,), rel_tol=1e-10)
    return 1.0 / math.sqrt(2.0 * math.pi * integral)


def _angular_coefficient(mode: DiskMode, s: np.ndarray) -> np.ndarray:
    # (beta s / 2pi - m/s) in the positive-flux convention
    b0 = abs(mode.beta)
    return b0 * s / (2.0 * math.pi) - mode.internal_m / s


def angular_energy_fraction(mode: DiskMode) -> float:
    """Fraction of the mode's magnetic energy carried by the angular term.

    alpha = int ((beta/2pi)s - m/s)^2 f^2 s ds  /
            int (f'^2 + ((beta/2pi)s - m/s)^2 f^2) s ds  in [0, 1];
    the normalization of f cancels in the ratio.
    """
    if mode.beta == 0.0 and mode.m == 0:
        return 0.0

    def ang_and_rad(s):
        f, fp = disk_radial_factors(mode, s)
        return (_angular_coefficient(mode, s) * f) ** 2 * s, fp**2 * s

    num, rad = adaptive_integral(ang_and_rad, rel_tol=1e-8)
    alpha = num / (num + rad)
    if not -1e-12 <= alpha <= 1 + 1e-12:
        raise RuntimeError(f"angular energy fraction {alpha} outside [0, 1]")
    return min(max(alpha, 0.0), 1.0)


def rayleigh_energy(mode: DiskMode) -> float:
    """Magnetic energy of the normalized mode; equals its eigenvalue.

    Serves as an independent consistency check of the radial profile, its
    derivative, and the angular index convention.
    """

    def dens_and_mass(s):
        f, fp = disk_radial_factors(mode, s)
        return (fp**2 + (_angular_coefficient(mode, s) * f) ** 2) * s, f**2 * s

    dens, mass = adaptive_integral(dens_and_mass, rel_tol=1e-9)
    return dens / mass
