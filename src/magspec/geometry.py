"""Starlike domains described by a positive radius function R(theta).

A profile is a truncated Fourier series R(theta) = r0 + sum_n (a_n cos n
theta + b_n sin n theta).  Non-polynomial boundaries (e.g. R = exp(eps
cos theta) or R = sqrt(1 + d cos 2theta)) enter through the dense-sample
constructor, which trigonometrically interpolates uniform samples; for
smooth radii the interpolant is accurate to machine precision and the
derivative comes from the spectral coefficients.  Merely Lipschitz radii
are representable the same way but the differentiated interpolant loses
accuracy; results for such profiles should be treated as indicative.

All integrals over theta use the periodic trapezoidal rule (equivalently,
uniform averaging), which is spectrally accurate for smooth periodic
integrands.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "RadiusProfile",
    "GeometricFactors",
    "AngularMap",
    "factors",
    "angular_map",
    "load_profile",
]

DEFAULT_N_THETA = 4096
_COEFF_CUTOFF = 1e-14


@dataclass(frozen=True)
class RadiusProfile:
    """Radius function of a starlike domain, as a finite Fourier series.

    harmonics is a tuple of (n, a_n, b_n) with n >= 1.  Positivity of R is
    checked on a dense grid at construction.
    """

    r0: float
    harmonics: tuple[tuple[int, float, float], ...] = ()

    def __post_init__(self):
        if not (self.r0 > 0 and math.isfinite(self.r0)):
            raise ValueError(f"mean radius must be positive, got {self.r0}")
        seen = set()
        for n, a, b in self.harmonics:
            if n < 1 or n != int(n):
                raise ValueError(f"harmonic index must be an integer >= 1, got {n}")
            if n in seen:
                raise ValueError(f"duplicate harmonic index {n}")
            seen.add(n)
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError(f"non-finite harmonic coefficients at n={n}")
        grid = np.linspace(0.0, 2 * np.pi, max(2048, 16 * (self.max_harmonic + 1)),
                           endpoint=False)
        r = self.radius(grid)
        if np.min(r) <= 0:
            raise ValueError(
                f"radius function is not positive (min {np.min(r):.3g}); "
                "not a starlike domain about the origin")

    @property
    def max_harmonic(self) -> int:
        return max((n for n, _, _ in self.harmonics), default=0)

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "RadiusProfile":
        """Build a profile from R sampled on a uniform grid over [0, 2pi).

        The samples are interpolated by the discrete Fourier series; the
        sample count must be even and large enough that the underlying
        radius is resolved (smooth radii converge geometrically).
        """
        vals = np.asarray(samples, dtype=float)
        if vals.ndim != 1 or len(vals) < 4 or len(vals) % 2:
            raise ValueError("need an even number (>= 4) of radius samples")
        n_pts = len(vals)
        coef = np.fft.rfft(vals) / n_pts
        r0 = float(coef[0].real)
        scale = max(1.0, abs(r0))
        harmonics = []
        for n in range(1, n_pts // 2 + 1):
            factor = 1.0 if n == n_pts // 2 else 2.0  # Nyquist term is not doubled
            a = factor * coef[n].real
            b = -factor * coef[n].imag
            if abs(a) > _COEFF_CUTOFF * scale or abs(b) > _COEFF_CUTOFF * scale:
                harmonics.append((n, float(a), float(b)))
        return cls(r0=r0, harmonics=tuple(harmonics))

    def _arrays(self):
        ns = np.array([h[0] for h in self.harmonics], dtype=float)
        a = np.array([h[1] for h in self.harmonics], dtype=float)
        b = np.array([h[2] for h in self.harmonics], dtype=float)
        return ns, a, b

    def radius(self, theta):
        """R(theta); accepts scalars or arrays."""
        theta = np.asarray(theta, dtype=float)
        if not self.harmonics:
            return np.full_like(theta, self.r0) if theta.ndim else float(self.r0)
        ns, a, b = self._arrays()
        ang = np.multiply.outer(theta, ns)
        out = self.r0 + np.cos(ang) @ a + np.sin(ang) @ b
        return out if theta.ndim else float(out)

    def radius_deriv(self, theta):
        """R'(theta), differentiated analytically."""
        theta = np.asarray(theta, dtype=float)
        if not self.harmonics:
            return np.zeros_like(theta) if theta.ndim else 0.0
        ns, a, b = self._arrays()
        ang = np.multiply.outer(theta, ns)
        out = -np.sin(ang) @ (ns * a) + np.cos(ang) @ (ns * b)
        return out if theta.ndim else float(out)

    def scaled(self, t: float) -> "RadiusProfile":
        """Dilated profile t*R."""
        if t <= 0:
            raise ValueError("dilation factor must be positive")
        return RadiusProfile(self.r0 * t,
                             tuple((n, a * t, b * t) for n, a, b in self.harmonics))

    def squared_fourier(self) -> tuple[float, np.ndarray, np.ndarray]:
        """Fourier coefficients (d0, da, db) of R(theta)^2, computed exactly.

        R^2 is a trigonometric polynomial of degree 2*max_harmonic, so an
        FFT of R^2 on a fine enough grid recovers it without aliasing.
        """
        deg = 2 * self.max_harmonic
        n_pts = max(8, 2 * (deg + 1))
        grid = np.arange(n_pts) * (2 * np.pi / n_pts)
        coef = np.fft.rfft(self.radius(grid) ** 2) / n_pts
        d0 = float(coef[0].real)
        da = 2.0 * coef[1:deg + 1].real if deg else np.zeros(0)
        db = -2.0 * coef[1:deg + 1].imag if deg else np.zeros(0)
        return d0, np.asarray(da), np.asarray(db)

    def to_dict(self) -> dict:
        return {
            "r0": self.r0,
            "harmonics": [{"n": n, "a": a, "b": b} for n, a, b in self.harmonics],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RadiusProfile":
        if not isinstance(data, dict):
            raise ValueError('a domain must be {"r0": .., "harmonics": [..]} or '
                             f'{{"samples": [..]}}, got {data!r}')
        if "samples" in data:
            return cls.from_samples(data["samples"])
        entries = data.get("harmonics", ())
        if (not isinstance(entries, (list, tuple))
                or not all(isinstance(h, dict) and "n" in h for h in entries)):
            raise ValueError('harmonics must be a list of {"n": .., "a": .., "b": ..} '
                             f"entries, got {entries!r}")
        harmonics = tuple(
            (_index(h["n"]), _real(h.get("a", 0.0), "harmonic a"),
             _real(h.get("b", 0.0), "harmonic b"))
            for h in entries)
        return cls(r0=_real(data.get("r0"), "r0"), harmonics=harmonics)


def _real(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None


def _index(value) -> int:
    """Harmonic index n, rejected rather than truncated when not an integer."""
    n = _real(value, "harmonic n")
    if not n.is_integer():
        raise ValueError(f"harmonic n must be an integer, got {value!r}")
    return int(n)


def load_profile(source) -> RadiusProfile:
    """Load a profile from a dict, a JSON string, or a path to a JSON file."""
    if isinstance(source, RadiusProfile):
        return source
    if isinstance(source, dict):
        return RadiusProfile.from_dict(source)
    text = str(source)
    if text.lstrip().startswith("{"):
        return RadiusProfile.from_dict(json.loads(text))
    with open(text, "r", encoding="utf-8") as fh:
        return RadiusProfile.from_dict(json.load(fh))


@dataclass(frozen=True)
class GeometricFactors:
    """Area, polar moment about the origin, and the roundness penalties.

    g0 >= 1 measures boundary oscillation through (log R)'; g1 >= 1
    measures elongation through the polar moment; g = max(g0, g1), with
    g = 1 exactly for centered disks.
    """

    area: float
    polar_moment: float
    g0: float
    g1: float
    g: float

    def __post_init__(self):
        if self.area <= 0 or self.polar_moment <= 0:
            raise ValueError("area and polar moment must be positive")


def factors(profile: RadiusProfile, n_theta: int = DEFAULT_N_THETA) -> GeometricFactors:
    """Geometric factors of the domain by periodic trapezoidal quadrature.

    area = (1/2) int R^2, polar_moment = (1/4) int R^4,
    g0 = 1 + mean((R'/R)^2), g1 = mean(R^4)/mean(R^2)^2 = 2*pi*I/area^2.
    """
    theta = np.arange(n_theta) * (2 * np.pi / n_theta)
    r = profile.radius(theta)
    rp = profile.radius_deriv(theta)
    mean_r2 = float(np.mean(r * r))
    mean_r4 = float(np.mean(r ** 4))
    area = math.pi * mean_r2
    polar_moment = 0.5 * math.pi * mean_r4
    g0 = 1.0 + float(np.mean((rp / r) ** 2))
    g1 = mean_r4 / mean_r2**2
    return GeometricFactors(area=area, polar_moment=polar_moment,
                            g0=g0, g1=g1, g=max(g0, g1))


@dataclass(frozen=True, eq=False)
class AngularMap:
    """Angle map phi(theta) of the constant-Jacobian transformation.

    phi' = R(theta)^2 * pi / area with phi(0) = 0 and phi(2pi) = 2pi.  The
    map is held in one form, the Fourier coefficients (d0, da, db) of R^2
    from RadiusProfile.squared_fourier, so phi_at is the exact
    antiderivative of R^2 pi / A (area = pi * d0).
    """

    _d0: float
    _da: np.ndarray
    _db: np.ndarray

    def phi_at(self, theta):
        """phi(theta) from the closed-form antiderivative of R^2 pi/A."""
        theta = np.asarray(theta, dtype=float)
        out = np.array(theta, dtype=float, copy=True)
        if len(self._da):
            ns = np.arange(1, len(self._da) + 1, dtype=float)
            ang = np.multiply.outer(theta, ns)
            out = out + (np.sin(ang) @ (self._da / ns)
                         + (1.0 - np.cos(ang)) @ (self._db / ns)) / self._d0
        return out if theta.ndim else float(out)


def angular_map(profile: RadiusProfile) -> AngularMap:
    """The constant-Jacobian angle map of the profile."""
    return AngularMap(*profile.squared_fourier())
