"""Numerical check of the transplantation identity, one disk mode at a time.

Disk eigenfunctions u(s, phi) = f(s) e^{i m phi} are transplanted to a
starlike domain through the constant-Jacobian map, v(r, theta) =
u(r/R(theta), phi(theta) - eta), and the Rayleigh numerator of v splits
into three pieces:

    Q1 = int |u_s|^2 s ds [1 + (log R)'^2] dtheta        (radial)
    Q2 = 2 Re int conj(u_s)(-u_phi/s + i(beta/2pi)s u) s ds (pi/A) R R' dtheta
    Q3 = int |i u_phi/s + (beta/2pi)s u|^2 s ds (pi^2 R^4/A^2) dtheta

For one separable mode the rotation eta enters only through
|e^{i m (phi - eta)}|^2 = 1, so no average over eta is needed: the
integrands factor into a radial integral times a theta-mean, giving
Q1 = G0 * (radial energy) and Q3 = G1 * (angular energy), while the Q2
integrand conj(f') f (beta s/2pi - m/s) i is purely imaginary, so Q2 = 0.
Only a superposition of modes would depend on eta.  The split chains into
the eigenvalue-sum bound sum lambda_j(Omega) A / G <= pi sum lambda_j(D).

Radial integrals run over panel Gauss-Legendre nodes, theta-means over a
uniform grid.  The identity takes f and f' from one disk_radial_factors
call (one M and one M' evaluation per node), the overlap only f.  The
identity check compares the theta grid with the finer one of the geometric
factors, so it is a pure quadrature/map consistency test, independent of
the discrete eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .disk import (DiskMode, _angular_coefficient, angular_energy_fraction,
                   disk_eigenvalues, disk_radial_factors, disk_radial_profile,
                   normalization_constant)
from .geometry import RadiusProfile, angular_map, factors
from .quadrature import panel_nodes
from .solver import SolverConfig, solve_with_error_bars

__all__ = [
    "TransplantReport",
    "SumBoundChain",
    "transplant_identity",
    "transplant_overlap",
    "sum_bound_chain",
]

_N_THETA = 2048
_RADIAL_PANELS = 24
_RADIAL_NODES = 12


@dataclass(frozen=True)
class TransplantReport:
    """Energy split of one transplanted disk mode (q2_avg is 0 exactly)."""

    mode: DiskMode
    q1_avg: float
    q2_avg: float
    q3_avg: float
    identity_residual: float
    predicted_sum_bound: float
    g0: float
    g1: float
    radial_energy: float
    angular_energy: float
    mass: float  # int_Omega |v|^2 dx; equals area/pi for normalized modes


def transplant_identity(profile: RadiusProfile, mode: DiskMode,
                        n_eta: int = 64, n_theta: int = _N_THETA) -> TransplantReport:
    """Energy split Q1, Q2, Q3 of one transplanted mode, compared with the
    geometric-factor identity.

    The split is the same for every rotation eta, so the result does not
    depend on n_eta, which must still be >= 1.  The theta-means use n_theta
    nodes and G0, G1 come from max(n_theta, 4096) nodes;
    identity_residual = |Q1 - G0 * E_rad| + |Q3 - G1 * E_ang|.
    """
    if n_eta < 1:
        raise ValueError(f"n_eta must be >= 1, got {n_eta}")
    s, ws = panel_nodes(_RADIAL_PANELS, _RADIAL_NODES)
    c = normalization_constant(mode)
    f, fp = (c * v for v in disk_radial_factors(mode, s))
    ang_coef = _angular_coefficient(mode, s)

    theta = np.arange(n_theta) * (2.0 * math.pi / n_theta)
    r = profile.radius(theta)
    rp = profile.radius_deriv(theta)
    geo = factors(profile, n_theta=max(n_theta, 4096))
    area = geo.area

    e_rad = 2.0 * math.pi * float(np.dot(ws * s, fp**2))
    e_ang = 2.0 * math.pi * float(np.dot(ws * s, (ang_coef * f) ** 2))
    q1 = e_rad * float(np.mean(1.0 + (rp / r) ** 2))
    q3 = e_ang * (math.pi**2 / area**2) * float(np.mean(r**4))
    residual = abs(q1 - geo.g0 * e_rad) + abs(q3 - geo.g1 * e_ang)

    mass = 2.0 * math.pi * float(np.dot(ws * s, f**2)) * (area / math.pi)
    bound = (q1 + q3) * math.pi / area

    return TransplantReport(mode=mode, q1_avg=q1, q2_avg=0.0,
                            q3_avg=q3, identity_residual=residual,
                            predicted_sum_bound=bound, g0=geo.g0, g1=geo.g1,
                            radial_energy=e_rad, angular_energy=e_ang, mass=mass)


def transplant_overlap(profile: RadiusProfile, mode_i: DiskMode,
                       mode_j: DiskMode) -> complex:
    """L2 inner product int_Omega v_i conj(v_j) dx of two transplanted modes.

    Vanishes for i != j because the map has constant Jacobian; equals
    area/pi when i == j (normalized modes).
    """
    s, ws = panel_nodes(_RADIAL_PANELS, _RADIAL_NODES)
    f_i = normalization_constant(mode_i) * disk_radial_profile(mode_i, s)
    f_j = normalization_constant(mode_j) * disk_radial_profile(mode_j, s)
    radial = float(np.dot(ws * s, f_i * f_j))
    theta = np.arange(_N_THETA) * (2.0 * math.pi / _N_THETA)
    r = profile.radius(theta)
    phi = angular_map(profile).phi_at(theta)
    dm = mode_i.internal_m - mode_j.internal_m
    wt = 2.0 * math.pi / _N_THETA
    angular = wt * np.sum(r**2 * np.exp(1j * dm * phi))
    return complex(radial * angular)


@dataclass(frozen=True)
class SumBoundChain:
    """Eigenvalue-sum bound chain: lhs <= intermediate <= g * rhs.

    lhs = sum lambda_j(Omega) A / G   (discrete solve),
    intermediate = pi sum [(1-alpha_j) G0 + alpha_j G1] lambda_j(D),
    rhs = pi sum lambda_j(D).
    """

    lhs: float
    intermediate: float
    rhs: float
    g: float
    g0: float
    g1: float
    alphas: tuple
    lhs_error_bar: float

    @property
    def chain_holds(self) -> bool:
        slack = self.lhs_error_bar
        return (self.lhs <= self.intermediate + slack
                and self.intermediate <= self.g * self.rhs + 1e-9 * self.rhs)


def sum_bound_chain(profile: RadiusProfile, beta: float, n: int,
                    cfg: Optional[SolverConfig] = None) -> SumBoundChain:
    """Evaluate both ends of the sum bound plus the per-mode intermediate."""
    if cfg is None:
        cfg = SolverConfig(n_radial=64, n_angular=128, beta=beta, n_eigs=n)
    else:
        cfg = replace(cfg, bc="dirichlet", beta=beta, n_eigs=n)
    geo = factors(profile)
    domain = solve_with_error_bars(profile, cfg)
    bar = sum(b * domain.area for b in domain.error_bars[:n]) / geo.g

    disk_side = disk_eigenvalues(beta, n)
    alphas = tuple(angular_energy_fraction(md) for md in disk_side.modes)
    lhs = sum(domain.normalized[:n]) / geo.g
    inter = math.pi * sum(
        ((1.0 - al) * geo.g0 + al * geo.g1) * md.eigenvalue
        for al, md in zip(alphas, disk_side.modes))
    rhs = math.pi * sum(disk_side.eigenvalues)
    return SumBoundChain(lhs=lhs, intermediate=inter, rhs=rhs, g=geo.g,
                         g0=geo.g0, g1=geo.g1, alphas=alphas, lhs_error_bar=bar)
