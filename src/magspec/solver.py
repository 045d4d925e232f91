"""Variational eigensolver for the magnetic Laplacian on starlike domains.

The Rayleigh quotient is discretized in the polar-like coordinates
(s, theta), s = r/R(theta) in (0, 1], on a tensor-product mesh with
bilinear elements; the ring of nodes at s = 0 collapses to a single
center node (the first cell layer degenerates to triangles).  In these
coordinates the magnetic energy with the symmetric gauge
F = (beta/2A)(-x2, x1) reads

    a(u, v) = int [ u_s conj(v_s) * s
                    + (L u)(conj L v) * s R^2 ] ds dtheta,
    L u = i u_theta/(s R) - i (R'/R^2) u_s + (beta/2A) s R u,

with mass form int u conj(v) s R^2 ds dtheta.  Assembly uses 2x2 Gauss
quadrature per cell (the collapsed cells use the same rule; the measure
s ds makes the center integrable), yielding a complex Hermitian stiffness
matrix and a real SPD mass matrix.  Dirichlet fixes u = 0 on s = 1;
Neumann is the natural condition.

Smallest eigenpairs come from shift-invert Lanczos (scipy eigsh) with a
fixed, seeded start vector so repeated runs are bit-identical and the
Krylov space is not confined to a rotation-symmetry sector on symmetric
meshes.  The solver owns the shift-invert factorization: it factors
K - sigma M once with SuperLU under the minimum-degree ordering of
A^T + A and hands the triangular solves to eigsh.  The sesquilinear form
gives a Hermitian K and a symmetric M, so the sparsity pattern is
symmetric, and this ordering leaves half the LU fill of the COLAMD
column ordering eigsh would otherwise use (0.53M against 1.03M entries
at 64x128), which halves the factorization and every solve.  Each
discrete spectrum records the fill in a SolveStats record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import scipy.linalg  # unused here; perfbench's tracer reaches eigh through this binding
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import RadiusProfile, factors
from .spectra import DIRICHLET, NEUMANN, MagneticSpectrum, validate_bc

__all__ = [
    "SolverConfig",
    "SolveStats",
    "AssemblyError",
    "EigenSolveError",
    "solve",
    "solve_with_error_bars",
    "convergence_study",
    "observed_orders",
    "dominant_angular_mode",
]

_EIG_SEED = 20250531


class AssemblyError(RuntimeError):
    """Mesh or matrix degeneracy detected during assembly."""


class EigenSolveError(RuntimeError):
    """Eigen-iteration failed or produced residuals above tolerance."""


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and eigensolver parameters.

    n_radial / n_angular are cell counts in s and theta; tolerance bounds
    the accepted relative eigenpair residual ||K x - lam M x|| / ||x||.
    """

    n_radial: int = 96
    n_angular: int = 192
    bc: str = DIRICHLET
    beta: float = 0.0
    n_eigs: int = 6
    tolerance: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "bc", validate_bc(self.bc))
        if self.n_radial < 8:
            raise ValueError(f"n_radial must be >= 8, got {self.n_radial}")
        if self.n_angular < 16 or self.n_angular % 2:
            raise ValueError(f"n_angular must be even and >= 16, got {self.n_angular}")
        if self.n_eigs < 1:
            raise ValueError(f"n_eigs must be >= 1, got {self.n_eigs}")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")
        if not (0 < self.tolerance <= 1e-6):
            raise ValueError(f"tolerance must be in (0, 1e-6], got {self.tolerance}")

    def refined(self, factor: int = 2) -> "SolverConfig":
        return replace(self, n_radial=self.n_radial * factor,
                       n_angular=self.n_angular * factor)

    def coarsened(self) -> "SolverConfig":
        """The half-resolution Richardson partner, clamped to the legal minimum.

        The angular count is rounded down to an even number, so every legal
        config has a legal partner.
        """
        return replace(self, n_radial=max(8, self.n_radial // 2),
                       n_angular=max(16, 2 * (self.n_angular // 4)))


@dataclass(frozen=True)
class SolveStats:
    """How one discrete spectrum was computed.

    lu_fill counts the entries SuperLU stores for the L and U factors of
    the shift-invert operator together.
    """

    lu_fill: int


_GAUSS = 1.0 / math.sqrt(3.0)
_GPTS = [(-_GAUSS, -_GAUSS), (_GAUSS, -_GAUSS), (_GAUSS, _GAUSS), (-_GAUSS, _GAUSS)]
# local node order: (s_i,th_j), (s_i+1,th_j), (s_i+1,th_j+1), (s_i,th_j+1)
_CORNER_XI = np.array([-1.0, 1.0, 1.0, -1.0])
_CORNER_ZETA = np.array([-1.0, -1.0, 1.0, 1.0])


def _shape_values(xi: float, zeta: float):
    n = 0.25 * (1 + _CORNER_XI * xi) * (1 + _CORNER_ZETA * zeta)
    dxi = 0.25 * _CORNER_XI * (1 + _CORNER_ZETA * zeta)
    dzeta = 0.25 * _CORNER_ZETA * (1 + _CORNER_XI * xi)
    return n, dxi, dzeta


def _assemble(profile: RadiusProfile, beta: float, nr: int, nt: int):
    """Stiffness (complex Hermitian) and mass (real) matrices plus node map."""
    hs, ht = 1.0 / nr, 2.0 * math.pi / nt
    area = factors(profile).area
    n_nodes = 1 + nr * nt

    ii = np.arange(nr)[:, None]
    jj = np.arange(nt)[None, :]
    jp1 = (jj + 1) % nt
    ring = lambda i, j: 1 + (i - 1) * nt + j
    n0 = np.where(ii == 0, 0, ring(ii, jj))
    n1 = ring(ii + 1, jj)
    n2 = ring(ii + 1, jp1)
    n3 = np.where(ii == 0, 0, ring(ii, jp1))
    conn = np.stack([b.ravel() for b in
                     np.broadcast_arrays(n0, n1, n2, n3)], axis=1)  # (ncell, 4)
    ncell = conn.shape[0]

    k_local = np.zeros((ncell, 4, 4), dtype=complex)
    m_local = np.zeros((ncell, 4, 4), dtype=float)
    cell_w = 0.25 * hs * ht

    for xi, zeta in _GPTS:
        nsh, dxi, dzeta = _shape_values(xi, zeta)
        d_s = (2.0 / hs) * dxi      # (4,)
        d_t = (2.0 / ht) * dzeta
        s_g = (ii.ravel() + 0.5 * (1 + xi)) * hs          # (nr,)
        t_g = (np.arange(nt) + 0.5 * (1 + zeta)) * ht     # (nt,)
        r = profile.radius(t_g)
        rp = profile.radius_deriv(t_g)
        s2 = s_g[:, None]
        a = 1.0 / (s2 * r[None, :])
        b = (rp / r**2)[None, :] * np.ones_like(s2)
        c = (beta / (2.0 * area)) * s2 * r[None, :]
        w = cell_w * s2 * (r**2)[None, :]
        w_rad = (cell_w * s2 * np.ones_like(r)[None, :]).ravel()
        a2w = (a * a * w).ravel()
        b2w = (b * b * w).ravel()
        c2w = (c * c * w).ravel()
        abw = (a * b * w).ravel()
        acw = (a * c * w).ravel()
        bcw = (b * c * w).ravel()
        for p in range(4):
            for q in range(4):
                real = (a2w * (d_t[p] * d_t[q])
                        + b2w * (d_s[p] * d_s[q])
                        + c2w * (nsh[p] * nsh[q])
                        - abw * (d_s[p] * d_t[q] + d_t[p] * d_s[q])
                        + w_rad * (d_s[p] * d_s[q]))
                imag = (acw * (d_t[q] * nsh[p] - nsh[q] * d_t[p])
                        + bcw * (nsh[q] * d_s[p] - d_s[q] * nsh[p]))
                k_local[:, p, q] += real + 1j * imag
                m_local[:, p, q] += (w.ravel()) * (nsh[p] * nsh[q])

    rows = np.repeat(conn, 4, axis=1).ravel()
    cols = np.tile(conn, (1, 4)).ravel()
    stiff = sp.coo_matrix((k_local.ravel(), (rows, cols)),
                          shape=(n_nodes, n_nodes)).tocsr()
    mass = sp.coo_matrix((m_local.ravel(), (rows, cols)),
                         shape=(n_nodes, n_nodes)).tocsr()
    return stiff, mass, area


def _dof_selection(bc: str, nr: int, nt: int) -> np.ndarray:
    n_nodes = 1 + nr * nt
    if bc == DIRICHLET:
        return np.arange(1 + (nr - 1) * nt)  # drop the s = 1 ring
    return np.arange(n_nodes)


def solve(profile: RadiusProfile, cfg: SolverConfig) -> MagneticSpectrum:
    """Lowest n_eigs eigenvalues of (i grad + F)^2 on the profile's domain."""
    stiff, mass, area = _assemble(profile, cfg.beta, cfg.n_radial, cfg.n_angular)
    keep = _dof_selection(cfg.bc, cfg.n_radial, cfg.n_angular)
    stiff = stiff[keep][:, keep]
    mass = mass[keep][:, keep]
    stiff = (stiff + stiff.conjugate().transpose()) * 0.5  # kill rounding skew
    mass = (mass + mass.transpose()) * 0.5

    diag = mass.diagonal()
    if np.any(diag <= 0) or not np.all(np.isfinite(diag)):
        raise AssemblyError("mass matrix is not positive definite (mesh degeneracy)")

    ndof = stiff.shape[0]
    k = cfg.n_eigs
    if k >= ndof:
        raise ValueError(f"n_eigs={k} too large for {ndof} unknowns")

    if cfg.bc == NEUMANN:
        # a small negative shift keeps the factorization definite even when
        # the ground state sits at (or for beta=0, exactly on) zero
        sigma = -(0.5 * abs(cfg.beta) + 0.1) / area
    else:
        sigma = 0.0

    op = stiff - sigma * mass if sigma else stiff
    lu = spla.splu(op.tocsc(), permc_spec="MMD_AT_PLUS_A")
    opinv = spla.LinearOperator(op.shape, matvec=lu.solve, dtype=op.dtype)
    rng = np.random.default_rng(_EIG_SEED)
    v0 = rng.standard_normal(ndof) + 1j * rng.standard_normal(ndof)
    try:
        vals, vecs = spla.eigsh(stiff, k=k, M=mass, sigma=sigma, which="LM",
                                v0=v0, tol=0, OPinv=opinv)
    except spla.ArpackNoConvergence as exc:
        raise EigenSolveError(f"shift-invert iteration failed: {exc}") from exc
    order = np.argsort(vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]

    resid = (np.linalg.norm(stiff @ vecs - (mass @ vecs) * vals, axis=0)
             / np.linalg.norm(vecs, axis=0))
    scale = max(np.max(np.abs(vals)), 1.0 / area)
    bad = np.flatnonzero(resid > cfg.tolerance * scale)
    if bad.size:
        j = bad[0]
        raise EigenSolveError(
            f"eigenpair {j} residual {resid[j]:.3g} exceeds "
            f"tolerance {cfg.tolerance:.1e} * {scale:.3g}")

    return MagneticSpectrum(
        eigenvalues=tuple(float(v) for v in vals),
        bc=cfg.bc, beta=cfg.beta, area=area,
        provenance=f"discrete({cfg.n_radial}x{cfg.n_angular})",
        eigenvectors=vecs,
        mesh={"n_radial": cfg.n_radial, "n_angular": cfg.n_angular,
              "bc": cfg.bc, "kept": keep},
        stats=SolveStats(lu_fill=lu.nnz))


@lru_cache(maxsize=64)
def solve_with_error_bars(profile: RadiusProfile, cfg: SolverConfig) -> MagneticSpectrum:
    """Solve at cfg and at half resolution; attach per-eigenvalue gaps.

    The Richardson gap |lambda(h) - lambda(h/2)| conservatively bounds the
    discretization error of the fine value (second-order convergence puts
    the true error near a third of the gap).  Cached: profiles and configs
    are hashable and verification pipelines revisit the same pairs.
    """
    fine = solve(profile, cfg)
    coarse = solve(profile, cfg.coarsened())
    return replace(fine, error_bars=tuple(
        abs(f - c) for f, c in zip(fine.eigenvalues, coarse.eigenvalues)))


def convergence_study(profile: RadiusProfile, cfg: SolverConfig,
                      levels: int = 3) -> list:
    """Solve at successively doubled resolution; list of (h, spectrum)."""
    if levels < 2:
        raise ValueError("need at least 2 refinement levels")
    out = []
    current = cfg
    for _ in range(levels):
        out.append((1.0 / current.n_radial, solve(profile, current)))
        current = current.refined()
    return out


def observed_orders(study, reference=None) -> list:
    """Convergence order per eigenvalue from a refinement study.

    With an analytic reference, order = log2 of the error ratio between
    the two finest levels; otherwise orders come from successive
    eigenvalue differences (needs >= 3 levels).
    """
    spectra = [s for _, s in study]
    n = min(len(s) for s in spectra)
    orders = []
    for j in range(n):
        seq = [s.eigenvalues[j] for s in spectra]
        if reference is not None:
            errs = [abs(v - reference[j]) for v in seq]
            orders.append(math.log2(errs[-2] / errs[-1]) if errs[-1] > 0 else float("inf"))
        else:
            if len(seq) < 3:
                raise ValueError("need 3 levels without a reference")
            d1 = abs(seq[-2] - seq[-3])
            d2 = abs(seq[-1] - seq[-2])
            orders.append(math.log2(d1 / d2) if d2 > 0 else float("inf"))
    return orders


def dominant_angular_mode(spectrum: MagneticSpectrum, which: int = 0) -> int:
    """|m| of the magnitude-dominant Fourier mode of an eigenvector.

    Measured on the outermost kept mesh ring (the boundary ring for
    Neumann; the last interior ring for Dirichlet).
    """
    if spectrum.eigenvectors is None or spectrum.mesh is None:
        raise ValueError("spectrum carries no eigenvectors")
    nr, nt = spectrum.mesh["n_radial"], spectrum.mesh["n_angular"]
    vec = spectrum.eigenvectors[:, which]
    n_rings = (len(vec) - 1) // nt
    ring = vec[1 + (n_rings - 1) * nt: 1 + n_rings * nt]
    amps = np.abs(np.fft.fft(ring))
    half = nt // 2
    folded = amps[: half + 1].copy()
    folded[1:half] += amps[nt - 1: half: -1]  # combine +m and -m
    return int(np.argmax(folded))
