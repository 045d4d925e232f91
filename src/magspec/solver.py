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
s ds makes the center integrable): at each point, g = L phi of the four
local basis functions gives the stiffness block w conj(g) g^T + w_s phi_s
phi_s^T and the mass block w phi phi^T (w = s R^2, w_s = s, times the
quadrature weight).  K is complex Hermitian, and real at beta = 0 where
the last term of L vanishes; M is real SPD.  Dirichlet fixes u = 0 on
s = 1; Neumann is the natural condition.

Smallest eigenpairs come from shift-invert Lanczos (scipy eigsh) with a
fixed, seeded start vector so repeated runs are bit-identical and the
Krylov space is not confined to a rotation-symmetry sector on symmetric
meshes.  eigsh hands a complex Hermitian problem to the non-Hermitian
Arnoldi routine, so the solver first looks for an exact symmetry that
makes the problem real.  The routes, in the order they are tried:

- "radial": K and M are unchanged by turning the mesh one angular column
  and K commutes with T below, as on a disk at any beta.  In the angular
  Fourier basis u[(i, j)] = sum_q e^{2 pi i q j / nt} y_q[i] / sqrt(nt)
  the problem splits into nt real tridiagonal blocks, one per sector q,
  K_q[i, i'] = Re sum_d e^{2 pi i q d / nt} K[(i, 0), (i', d)] and
  likewise M_q; the centre node joins sector 0 only.  The blocks are
  stacked into one block-diagonal real matrix, and eigenvectors map back
  by an inverse FFT over q.
- "real": at beta = 0, K is real and is solved as it is.
- "mirror": K commutes with T u = P conj(u), P the node mirror
  (i, j) <-> (i, -j), as on any domain with R(-theta) = R(theta).  A
  sparse unitary Q with T-invariant columns makes Q^H K Q and Q^H M Q
  real, their real parts are solved, and eigenvectors map back as u = Q y.
- "complex": any other problem.

Each symmetry test compares the diagonals first, so a matrix without the
symmetry costs O(N) to reject.  The real routes take the real part of the
start vector, and all routes share one factorization, Lanczos and
residual path.  At 64x128, on one core of a 2-vCPU VM, the real and
mirror routes roughly halve the eigsh time and cut a Neumann verdict
request's peak memory from 114 to 90 MB; the radial route factors a disk
with 32k LU entries instead of the mirror route's 0.82M.  Residuals are
always checked on the complex K and M.

The solver owns the shift-invert factorization: it factors K - sigma M
once with SuperLU in symmetric mode under the minimum-degree ordering of
A^T + A and hands the triangular solves to eigsh.  The sesquilinear form
gives a Hermitian K and a symmetric M, so the sparsity pattern is
symmetric, and this ordering leaves half the LU fill of the COLAMD
column ordering eigsh would otherwise use (0.53M against 1.03M complex
entries at 64x128), which halves the factorization and every solve.  The
folded mirror operator couples each node with its mirror image and
stores 0.83M real entries (0.95M without symmetric mode).  Each discrete
spectrum records the route and the fill in a SolveStats record.
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

    def refined(self) -> "SolverConfig":
        return replace(self, n_radial=2 * self.n_radial,
                       n_angular=2 * self.n_angular)

    def coarsened(self) -> "SolverConfig":
        """The half-resolution Richardson partner, clamped to the legal minimum.

        The angular count is rounded down to an even number, so every legal
        config has a legal partner.
        """
        return replace(self, n_radial=max(8, self.n_radial // 2),
                       n_angular=max(16, 2 * (self.n_angular // 4)))

    def richardson_partner(self) -> "SolverConfig":
        """coarsened(), refused unless it is strictly coarser in both counts.

        A Richardson gap or step assumes the partner halves the mesh; where
        the clamp keeps a count, the gap would read exactly 0.
        """
        partner = self.coarsened()
        if partner.n_radial == self.n_radial or partner.n_angular == self.n_angular:
            raise ValueError(
                f"Richardson error bars and extrapolation need a strictly "
                f"coarser partner mesh: n_radial >= 9 and n_angular >= 18 "
                f"(--nr >= 9, --nt >= 18), got {self.n_radial}x{self.n_angular}")
        return partner


@dataclass(frozen=True)
class SolveStats:
    """How one discrete spectrum was computed.

    lu_fill counts the entries SuperLU stores for the L and U factors of
    the shift-invert operator together.  arithmetic names the route:
    "radial" (decoupled real angular sectors of a disk), "real" (K itself,
    beta = 0), "mirror" (the folded real basis of a mirror-symmetric
    domain) or "complex".
    """

    lu_fill: int
    arithmetic: str


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
    """Stiffness (complex Hermitian) and mass (real) matrices, and the area."""
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

    # local matrices indexed (cell ring, cell sector, p, q)
    k_local = np.zeros((nr, nt, 4, 4), dtype=complex)
    m_local = np.zeros((nr, nt, 4, 4), dtype=float)
    cell_w = 0.25 * hs * ht

    for xi, zeta in _GPTS:
        phi, dxi, dzeta = _shape_values(xi, zeta)
        d_s = (2.0 / hs) * dxi      # (4,)
        d_t = (2.0 / ht) * dzeta
        s = ((np.arange(nr) + 0.5 * (1 + xi)) * hs)[:, None, None]  # (nr, 1, 1)
        t = (np.arange(nt) + 0.5 * (1 + zeta)) * ht
        r = profile.radius(t)[:, None]                              # (nt, 1)
        a = 1.0 / (s * r)
        b = profile.radius_deriv(t)[:, None] / r**2
        c = (beta / (2.0 * area)) * s * r
        g = 1j * (a * d_t - b * d_s) + c * phi   # L of the four basis functions
        w = (cell_w * s * r**2)[..., None]
        k_local += w * g.conj()[..., :, None] * g[..., None, :]
        k_local.real += (cell_w * s)[..., None] * np.outer(d_s, d_s)
        m_local += w * np.outer(phi, phi)

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


_SYMMETRY_TOL = 1e-13  # relative to max|entry|: an exact symmetry up to rounding


def _invariant(matrix, perm, conj: bool = False) -> bool:
    """Whether matrix equals matrix[perm][:, perm] (conjugated if conj).

    The diagonal is compared first, so a matrix without the symmetry is
    usually rejected in O(N) before the whole-matrix comparison.
    """
    tol = _SYMMETRY_TOL * np.abs(matrix.data).max()
    diag = matrix.diagonal()
    if abs(diag - (diag[perm].conj() if conj else diag[perm])).max() > tol:
        return False
    moved = matrix[perm][:, perm]
    return abs(matrix - (moved.conj() if conj else moved)).max() <= tol


def _sector_blocks(matrix, nt: int):
    """The block-diagonal real form of a rotation-invariant, mirror-symmetric
    matrix in the angular Fourier basis (see _real_form).

    Read from the centre row and the rows of the nodes (i, 0).  A ring node
    couples only its own and the adjacent rings, so each block is
    tridiagonal: its diagonal and upper band are the FFTs over the offset d
    of K[(i, 0), (i, d)] and K[(i, 0), (i + 1, d)], and the lower band is
    the upper one, which makes the matrix exactly symmetric.
    """
    size = matrix.shape[0]
    rings = (size - 1) // nt
    ref = matrix[np.r_[0, 1 + nt * np.arange(rings)]].tocoo()
    ring, offset = np.divmod(ref.col - 1, nt)  # of the column node
    centre = (ref.row == 0) & (ref.col > 0)
    upper = (ref.row > 0) & (ref.col > 0) & (ring >= ref.row - 1)
    bands = np.zeros((2, rings, nt), dtype=matrix.dtype)
    bands[ring[upper] - ref.row[upper] + 1, ref.row[upper] - 1, offset[upper]] = ref.data[upper]
    diag, off = (np.fft.ifft(bands, axis=2).real * nt).transpose(0, 2, 1).reshape(2, -1)
    node = np.arange(1, size)
    coupled = off[:-1] != 0  # zero between sectors
    near = 1 + ring[centre]
    rows = np.concatenate([[0], np.zeros_like(near), near, node,
                           node[:-1][coupled], node[1:][coupled]])
    cols = np.concatenate([[0], near, np.zeros_like(near), node,
                           node[1:][coupled], node[:-1][coupled]])
    coupling = ref.data[centre].real / math.sqrt(nt)
    vals = np.concatenate([[matrix[0, 0].real], coupling, coupling, diag,
                           off[:-1][coupled], off[:-1][coupled]])
    return sp.csc_matrix((vals, (rows, cols)), shape=matrix.shape)


def _real_form(stiff, mass, nt: int):
    """The arithmetic an exact symmetry allows: (name, lhs, rhs, expand).

    expand maps eigenvectors of lhs, rhs back to the kept mesh nodes.
    "radial" when K and M are unchanged by the rotation (i, j) -> (i, j + 1)
    of the angular columns and K commutes with T below, as on a disk: with
    the centre node kept and ring node (i, j) replaced by the Fourier sector
    u[(i, j)] = sum_q e^{2 pi i q j / nt} y_q[i] / sqrt(nt), the problem
    splits into nt real tridiagonal blocks
    K_q[i, i'] = Re sum_d e^{2 pi i q d / nt} K[(i, 0), (i', d)] (likewise
    M_q), the centre joining q = 0 through (1/sqrt(nt)) sum_j K[0, (i', j)].
    The blocks are stacked into one block-diagonal matrix, centre first and
    then sector q's rings at 1 + q * rings; expand is the inverse FFT over q.
    "real" when K has no imaginary part (beta = 0): K and M themselves.
    "mirror" when K commutes with T u = P conj(u), P the node mirror
    (i, j) <-> (i, -j mod nt), as for any profile with R(-theta) = R(theta):
    the sparse unitary Q has T-invariant columns, so Q^H K Q and Q^H M Q are
    real up to rounding, and their real parts are solved; an eigenvector y
    maps back as Q y.  A node P fixes (the centre, j = 0 and j = nt/2)
    keeps e_a; a pair a < b = P(a) gives (e_a + e_b)/sqrt2 at column a and
    i(e_a - e_b)/sqrt2 at column b.  "complex" otherwise.
    """
    node = np.arange(stiff.shape[0])
    j = (node - 1) % nt
    mirror = np.where(node == 0, 0, node - j + (-j) % nt)
    turn = np.where(node == 0, 0, node - j + (j + 1) % nt)
    if (_invariant(stiff, turn) and _invariant(mass, turn)
            and _invariant(stiff, mirror, conj=True)):
        rings = (stiff.shape[0] - 1) // nt

        def expand(y):
            sectors = np.fft.ifft(y[1:].reshape(nt, rings, -1), axis=0, norm="ortho")
            return np.concatenate([y[:1], sectors.transpose(1, 0, 2).reshape(-1, y.shape[1])])

        return "radial", _sector_blocks(stiff, nt), _sector_blocks(mass, nt), expand
    if not np.any(stiff.data.imag):
        return "real", stiff.real, mass, None
    if not _invariant(stiff, mirror, conj=True):
        return "complex", stiff, mass, None
    h = math.sqrt(0.5)
    pair = node != mirror
    diag = np.where(node < mirror, h, np.where(pair, -1j * h, 1.0))
    off = np.where(node[pair] < mirror[pair], h, 1j * h)
    basis = sp.csc_matrix((np.concatenate([diag, off]),
                           (np.concatenate([node, mirror[pair]]),
                            np.concatenate([node, node[pair]]))),
                          shape=stiff.shape)

    def fold(matrix):
        folded = (basis.conj().transpose() @ matrix @ basis).real
        # exactly symmetric, and the sum stores none of the zeros .real keeps
        return (folded + folded.transpose()) * 0.5

    return "mirror", fold(stiff), fold(mass), lambda y: basis @ y


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

    arithmetic, lhs, rhs, expand = _real_form(stiff, mass, cfg.n_angular)
    op = lhs - sigma * rhs if sigma else lhs
    lu = spla.splu(op.tocsc(), permc_spec="MMD_AT_PLUS_A",
                   options=dict(SymmetricMode=True))
    opinv = spla.LinearOperator(op.shape, matvec=lu.solve, dtype=op.dtype)
    rng = np.random.default_rng(_EIG_SEED)
    v0 = rng.standard_normal(ndof) + 1j * rng.standard_normal(ndof)
    if arithmetic != "complex":
        v0 = v0.real
    try:
        vals, vecs = spla.eigsh(lhs, k=k, M=rhs, sigma=sigma, which="LM",
                                v0=v0, tol=0, OPinv=opinv)
    except spla.ArpackNoConvergence as exc:
        raise EigenSolveError(f"shift-invert iteration failed: {exc}") from exc
    if expand is not None:
        vecs = expand(vecs)
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
        stats=SolveStats(lu_fill=lu.nnz, arithmetic=arithmetic))


@lru_cache(maxsize=64)
def solve_with_error_bars(profile: RadiusProfile, cfg: SolverConfig) -> MagneticSpectrum:
    """Solve at cfg and at half resolution; attach per-eigenvalue gaps.

    The Richardson gap |lambda(h) - lambda(h/2)| conservatively bounds the
    discretization error of the fine value (second-order convergence puts
    the true error near a third of the gap).  Cached: profiles and configs
    are hashable and verification pipelines revisit the same pairs.
    Raises ValueError when the clamped partner is not strictly coarser in
    both counts (SolverConfig.richardson_partner).
    """
    partner = cfg.richardson_partner()
    fine = solve(profile, cfg)
    coarse = solve(profile, partner)
    return replace(fine, error_bars=tuple(
        abs(f - c) for f, c in zip(fine.eigenvalues, coarse.eigenvalues)))


def convergence_study(profile: RadiusProfile, cfg: SolverConfig) -> list:
    """Solve at three successively doubled resolutions; list of (h, spectrum)."""
    out = []
    current = cfg
    for _ in range(3):
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
    nt = spectrum.mesh["n_angular"]
    vec = spectrum.eigenvectors[:, which]
    n_rings = (len(vec) - 1) // nt
    ring = vec[1 + (n_rings - 1) * nt: 1 + n_rings * nt]
    amps = np.abs(np.fft.fft(ring))
    half = nt // 2
    folded = amps[: half + 1].copy()
    folded[1:half] += amps[nt - 1: half: -1]  # combine +m and -m
    return int(np.argmax(folded))
