"""Numerical check of the rotation-averaged transplantation identity.

Disk eigenfunctions u(s, phi) = f(s) e^{i m phi} are transplanted to a
starlike domain through the constant-Jacobian map, v(r, theta) =
u(r/R(theta), phi(theta) - eta), and the Rayleigh numerator of v splits
into three pieces:

    Q1 = int |u_s|^2 s ds [1 + (log R)'^2] dtheta        (radial)
    Q2 = 2 Re int conj(u_s)(-u_phi/s + i(beta/2pi)s u) s ds (pi/A) R R' dtheta
    Q3 = int |i u_phi/s + (beta/2pi)s u|^2 s ds (pi^2 R^4/A^2) dtheta

After averaging over the rotation angle eta, Q1 -> G0 * (radial energy),
Q2 -> 0, Q3 -> G1 * (angular energy), which chains into the eigenvalue-sum
bound sum lambda_j(Omega) A / G <= pi sum lambda_j(D).

All integrals run over tensor Gauss-Legendre (radial) x uniform (angular)
grids with the radial factors evaluated once per mode; the identity check
is therefore a pure quadrature/map consistency test, independent of the
discrete eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .disk import (DiskMode, angular_energy_fraction, disk_eigenvalues,
                   disk_radial_profile, disk_radial_profile_deriv,
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
    """Eta-averaged energy split of one transplanted disk mode."""

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


def _radial_samples(mode: DiskMode):
    s, w = panel_nodes(_RADIAL_PANELS, _RADIAL_NODES, 0.0, 1.0)
    c = normalization_constant(mode)
    f = c * disk_radial_profile(mode, s)
    fp = c * disk_radial_profile_deriv(mode, s)
    return s, w, f, fp


def transplant_identity(profile: RadiusProfile, mode: DiskMode,
                        n_eta: int = 64, n_theta: int = _N_THETA) -> TransplantReport:
    """Average Q1, Q2, Q3 over n_eta rotations and compare with the
    geometric-factor identity.

    identity_residual = |Q1_avg - G0 * E_rad| + |Q3_avg - G1 * E_ang|.
    """
    if n_eta < 1:
        raise ValueError(f"n_eta must be >= 1, got {n_eta}")
    b0 = abs(mode.beta)
    m_int = mode.internal_m
    s, ws, f, fp = _radial_samples(mode)
    ang_coef = b0 * s / (2.0 * math.pi) - m_int / s

    theta = np.arange(n_theta) * (2.0 * math.pi / n_theta)
    wt = 2.0 * math.pi / n_theta
    r = profile.radius(theta)
    rp = profile.radius_deriv(theta)
    geo = factors(profile, n_theta=max(n_theta, 4096))
    area = geo.area
    phi = angular_map(profile).phi_at(theta)

    q1_list, q2_list, q3_list = [], [], []
    for eta in np.arange(n_eta) * (2.0 * math.pi / n_eta):
        phase = np.exp(1j * m_int * (phi - eta))          # (n_theta,)
        u = f[None, :] * phase[:, None]                   # (n_theta, n_s)
        u_s = fp[None, :] * phase[:, None]
        u_phi = 1j * m_int * u
        ang_op = 1j * u_phi / s[None, :] + (b0 / (2.0 * math.pi)) * s[None, :] * u

        rad_density = np.abs(u_s) ** 2 @ (ws * s)         # (n_theta,)
        q1 = wt * float(np.dot(rad_density, 1.0 + (rp / r) ** 2))

        cross = 2.0 * np.real(np.conj(u_s)
                              * (-u_phi / s[None, :]
                                 + 1j * (b0 / (2.0 * math.pi)) * s[None, :] * u))
        q2 = wt * float(np.dot(cross @ (ws * s), (math.pi / area) * r * rp))

        ang_density = np.abs(ang_op) ** 2 @ (ws * s)
        q3 = wt * float(np.dot(ang_density, (math.pi**2 / area**2) * r**4))

        q1_list.append(q1)
        q2_list.append(q2)
        q3_list.append(q3)

    q1_avg = float(np.mean(q1_list))
    q2_avg = float(np.mean(q2_list))
    q3_avg = float(np.mean(q3_list))

    e_rad = 2.0 * math.pi * float(np.dot(ws * s, fp**2))
    e_ang = 2.0 * math.pi * float(np.dot(ws * s, (ang_coef * f) ** 2))
    residual = abs(q1_avg - geo.g0 * e_rad) + abs(q3_avg - geo.g1 * e_ang)

    mass = 2.0 * math.pi * float(np.dot(ws * s, f**2)) * (area / math.pi)
    bound = (q1_avg + q2_avg + q3_avg) * math.pi / area

    return TransplantReport(mode=mode, q1_avg=q1_avg, q2_avg=q2_avg,
                            q3_avg=q3_avg, identity_residual=residual,
                            predicted_sum_bound=bound, g0=geo.g0, g1=geo.g1,
                            radial_energy=e_rad, angular_energy=e_ang, mass=mass)


def transplant_overlap(profile: RadiusProfile, mode_i: DiskMode,
                       mode_j: DiskMode, eta: float = 0.0,
                       n_theta: int = _N_THETA) -> complex:
    """L2 inner product int_Omega v_i conj(v_j) dx of two transplanted modes.

    Vanishes for i != j because the map has constant Jacobian; equals
    area/pi when i == j (normalized modes).
    """
    s, ws, f_i, _ = _radial_samples(mode_i)
    _, _, f_j, _ = _radial_samples(mode_j)
    radial = float(np.dot(ws * s, f_i * f_j))
    theta = np.arange(n_theta) * (2.0 * math.pi / n_theta)
    r = profile.radius(theta)
    phi = angular_map(profile).phi_at(theta)
    dm = mode_i.internal_m - mode_j.internal_m
    wt = 2.0 * math.pi / n_theta
    angular = wt * np.sum(r**2 * np.exp(1j * dm * (phi - eta)))
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
