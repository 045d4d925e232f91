import gc
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from magspec.corpus import corpus_entry
from magspec.disk import disk_eigenvalues
from magspec.geometry import RadiusProfile, factors
from magspec.kummer import bessel_j_zero
from magspec.solver import (_EIG_SEED, _GPTS, SolverConfig, _assemble, _dof_selection,
                            _shape_values,
                            convergence_study, observed_orders, solve,
                            solve_with_error_bars)
from magspec.spectra import MagneticSpectrum

DISK = RadiusProfile(1.0)
ELLIPSE = RadiusProfile(1.0, ((2, 0.15, 0.0),))
# flower_5 turned by 0.06 rad: no mirror axis at theta = 0
TURNED_FLOWER = RadiusProfile(1.0, ((5, 0.2 * math.cos(0.3), 0.2 * math.sin(0.3)),))


def coarse(beta=0.0, bc="dirichlet", n_eigs=4, nr=16, nt=32):
    return SolverConfig(n_radial=nr, n_angular=nt, bc=bc, beta=beta,
                        n_eigs=n_eigs)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(n_radial=4)
        with pytest.raises(ValueError):
            SolverConfig(n_angular=15)
        with pytest.raises(ValueError):
            SolverConfig(n_angular=14)
        with pytest.raises(ValueError):
            SolverConfig(tolerance=1e-3)
        with pytest.raises(ValueError):
            SolverConfig(bc="robin")

    def test_coarsened_is_legal_and_halves(self):
        for nt in range(16, 65, 2):
            half = SolverConfig(n_radial=20, n_angular=nt).coarsened()
            assert half.n_angular % 2 == 0 and half.n_angular >= 16
            old_rule = max(16, nt // 2)
            if old_rule % 2 == 0:
                assert half.n_angular == old_rule
            assert half.n_radial == 10

    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            MagneticSpectrum((3.0, 2.0), "dirichlet", 0.0, 1.0, "analytic")
        with pytest.raises(ValueError):
            MagneticSpectrum((-1.0, 2.0), "dirichlet", 0.0, 1.0, "analytic")
        s = MagneticSpectrum((1.0, 2.0), "dirichlet", 0.0, 2.0, "analytic")
        assert s.normalized == (2.0, 4.0)


class TestDiskAgreement:
    def test_zero_field_vs_bessel(self):
        spec = solve(DISK, coarse(n_eigs=1, nr=24, nt=48))
        assert spec.eigenvalues[0] == pytest.approx(
            bessel_j_zero(0, 1) ** 2, rel=5e-3)

    def test_magnetic_vs_kummer_roots(self):
        ref = disk_eigenvalues(5.0, 3).eigenvalues
        spec = solve(DISK, coarse(beta=5.0, n_eigs=3, nr=32, nt=64))
        for got, expect in zip(spec.eigenvalues, ref):
            assert got == pytest.approx(expect, rel=5e-3)

    def test_discrete_overestimates(self):
        # conforming Rayleigh-Ritz approaches the spectrum from above
        ref = disk_eigenvalues(0.0, 3).eigenvalues
        spec = solve(DISK, coarse(n_eigs=3, nr=24, nt=48))
        for got, expect in zip(spec.eigenvalues, ref):
            assert got >= expect - 1e-12

    def test_neumann_zero_field_ground_state(self):
        spec = solve(DISK, coarse(bc="neumann", n_eigs=1, nr=16, nt=32))
        assert abs(spec.eigenvalues[0]) * spec.area < 1e-6

    def test_neumann_positive_with_flux(self):
        for nr, nt in ((12, 24), (24, 48)):
            spec = solve(DISK, coarse(beta=3.0, bc="neumann", n_eigs=1,
                                      nr=nr, nt=nt))
            assert spec.eigenvalues[0] > 0


class TestInvariances:
    def test_hermitian_assembly(self):
        stiff, mass, _ = _assemble(ELLIPSE, 4.0, 12, 24)
        assert abs(stiff - stiff.conjugate().transpose()).max() < 1e-12
        assert abs(mass - mass.transpose()).max() < 1e-14

    def test_zero_flux_stiffness_is_real(self):
        # at beta = 0 the magnetic term c of L vanishes, so K has no imaginary part
        for name in ("flower_5", "ellipse_060"):
            stiff, _, _ = _assemble(corpus_entry(name).profile, 0.0, 16, 32)
            assert not np.any(stiff.data.imag)

    def test_flux_sign_symmetry(self):
        cfg = coarse(beta=4.0, n_eigs=3)
        plus = solve(ELLIPSE, cfg)
        minus = solve(ELLIPSE, coarse(beta=-4.0, n_eigs=3))
        for a, b in zip(plus.eigenvalues, minus.eigenvalues):
            assert abs(a - b) <= 2 * cfg.tolerance * max(1.0, abs(a))

    def test_dilation_invariance(self):
        cfg = coarse(beta=4.0, n_eigs=3)
        base = solve(ELLIPSE, cfg)
        scaled = solve(ELLIPSE.scaled(2.0), cfg)
        for a, b in zip(base.normalized, scaled.normalized):
            assert abs(a - b) <= 2 * cfg.tolerance * max(1.0, abs(a))

    def test_disk_minimizes_normalized_ground_state(self):
        # lambda_1 A is smallest for the disk (discretization slack applies
        # only to the domain side, which the discrete value overestimates)
        disk_ref = disk_eigenvalues(3.0, 1).normalized[0]
        spec = solve(ELLIPSE, coarse(beta=3.0, n_eigs=1, nr=24, nt=48))
        assert spec.normalized[0] >= disk_ref - 1e-9

    def test_provenance_and_csv_roundtrip(self):
        spec = solve(DISK, coarse(n_eigs=2))
        assert spec.provenance == "discrete(16x32)"
        lines = spec.to_csv().splitlines()
        assert lines[0] == "index,eigenvalue,lambda_times_A,bc,beta,provenance"
        rows = [ln.split(",") for ln in lines[1:]]
        assert [int(r[0]) for r in rows] == [1, 2]
        assert tuple(float(r[1]) for r in rows) == spec.eigenvalues
        assert tuple(float(r[2]) for r in rows) == spec.normalized
        assert {(r[3], float(r[4]), r[5]) for r in rows} == {
            (spec.bc, spec.beta, spec.provenance)}


class TestConvergence:
    def test_study_orders_beta0(self):
        ref = disk_eigenvalues(0.0, 1).eigenvalues
        study = convergence_study(DISK, coarse(n_eigs=1, nr=12, nt=24))
        orders = observed_orders(study, reference=ref)
        assert 1.7 <= orders[0] <= 2.3

    def test_study_without_reference(self):
        study = convergence_study(DISK, coarse(n_eigs=1, nr=8, nt=16))
        orders = observed_orders(study)
        assert 1.5 <= orders[0] <= 2.5

    def test_cauchy_refinement_nonpolynomial_profile(self):
        grid = np.arange(256) * (2 * np.pi / 256)
        prof = RadiusProfile.from_samples(np.sqrt(1 + 0.3 * np.cos(2 * grid)))
        study = convergence_study(prof, coarse(n_eigs=1, nr=8, nt=16))
        vals = [s.eigenvalues[0] for _, s in study]
        gap1, gap2 = abs(vals[1] - vals[0]), abs(vals[2] - vals[1])
        assert gap2 <= gap1 / 3.0


class TestErrorBars:
    @pytest.mark.parametrize("nr, nt", [(8, 32), (16, 16)])
    def test_minimum_mesh_has_no_partner(self, nr, nt):
        # coarsened() clamps to the same count here, so the gap would read 0
        with pytest.raises(ValueError, match="--nr >= 9, --nt >= 18"):
            solve_with_error_bars(ELLIPSE, coarse(nr=nr, nt=nt))

    def test_smallest_mesh_with_a_partner(self):
        cfg = coarse(nr=9, nt=18)
        assert (cfg.coarsened().n_radial, cfg.coarsened().n_angular) == (8, 16)
        assert all(bar > 0 for bar in solve_with_error_bars(ELLIPSE, cfg).error_bars)


class TestEigenvectors:
    def test_vectors_returned_and_residual_small(self):
        cfg = coarse(beta=2.0, n_eigs=2)
        spec = solve(DISK, cfg)
        assert spec.eigenvectors is not None
        assert spec.eigenvectors.shape[1] == 2

    def test_dominant_mode_of_disk_ground_state(self):
        from magspec.solver import dominant_angular_mode
        spec = solve(DISK, coarse(beta=1.0, n_eigs=1, nr=16, nt=32))
        assert dominant_angular_mode(spec) == 0


class TestShiftInvertFactorization:
    """The solver factors K - sigma M itself, in a symmetric fill-reducing
    order, and hands the solves to eigsh."""

    FLOWER = corpus_entry("flower_5").profile

    @pytest.mark.parametrize("nr, nt, ceiling", [(64, 128, 0.6e6), (96, 192, 1.4e6)])
    def test_lu_fill_is_symmetric_ordering(self, nr, nt, ceiling):
        # COLAMD, the column ordering eigsh uses on its own, stores 1.03M
        # and 2.70M entries on these meshes.  The flower is turned off its
        # mirror axis, so the complex route runs; its fill depends on the
        # pattern only.
        cfg = SolverConfig(n_radial=nr, n_angular=nt, beta=5.0, n_eigs=1)
        spec = solve(TURNED_FLOWER, cfg)
        assert spec.stats.arithmetic == "complex"
        assert spec.stats.lu_fill <= ceiling

    def test_mirror_fill_is_symmetric_mode(self):
        # The folded real operator stores 0.83M entries at 64x128 when SuperLU
        # runs in symmetric mode and 0.95M without it.
        cfg = SolverConfig(n_radial=64, n_angular=128, beta=5.0, n_eigs=1)
        spec = solve(self.FLOWER, cfg)
        assert spec.stats.arithmetic == "mirror"
        assert spec.stats.lu_fill <= 0.9e6

    @pytest.mark.parametrize("bc, beta", [("dirichlet", 0.0), ("dirichlet", 5.0),
                                          ("neumann", 5.0)])
    @pytest.mark.parametrize("k", [1, 8])
    def test_agrees_with_eigsh_own_factorization(self, bc, beta, k):
        cfg = SolverConfig(n_radial=32, n_angular=64, bc=bc, beta=beta, n_eigs=k)
        spec = solve(self.FLOWER, cfg)
        stiff, mass, area = _assemble(self.FLOWER, beta, 32, 64)
        keep = _dof_selection(bc, 32, 64)
        stiff = stiff[keep][:, keep]
        mass = mass[keep][:, keep]
        stiff = (stiff + stiff.conjugate().transpose()) * 0.5
        mass = (mass + mass.transpose()) * 0.5
        sigma = -(0.5 * beta + 0.1) / area if bc == "neumann" else 0.0
        rng = np.random.default_rng(_EIG_SEED)
        v0 = rng.standard_normal(len(keep)) + 1j * rng.standard_normal(len(keep))
        ref = np.sort(spla.eigsh(stiff, k=k, M=mass, sigma=sigma,
                                 v0=v0, tol=0, return_eigenvectors=False))
        np.testing.assert_allclose(spec.eigenvalues, ref, rtol=1e-10, atol=0)

    def test_record_repeats_and_rides_along(self):
        cfg = SolverConfig(n_radial=24, n_angular=48, bc="neumann", beta=5.0, n_eigs=4)
        first, second = solve(self.FLOWER, cfg), solve(self.FLOWER, cfg)
        assert first.stats == second.stats
        assert first.stats.lu_fill > 1 + 24 * 48
        assert first.eigenvalues == second.eigenvalues
        assert first.stats.arithmetic == "mirror"
        assert solve_with_error_bars(self.FLOWER, cfg).stats == first.stats

    def test_record_stays_out_of_outputs(self):
        spec = solve(DISK, coarse(beta=5.0, n_eigs=2))
        assert spec.stats.lu_fill > 0
        assert "stats" not in repr(spec) and "mirror" not in spec.to_csv()
        assert replace(spec, stats=None).to_csv() == spec.to_csv()


def _complex_operator(profile, bc, beta, nr, nt):
    """K and M on the kept unknowns, as solve forms them before any folding."""
    stiff, mass, area = _assemble(profile, beta, nr, nt)
    keep = _dof_selection(bc, nr, nt)
    stiff, mass = stiff[keep][:, keep], mass[keep][:, keep]
    stiff = (stiff + stiff.conjugate().transpose()) * 0.5
    mass = (mass + mass.transpose()) * 0.5
    return stiff, mass, area


def _complex_eigsh(profile, bc, beta, nr, nt, k):
    """The k smallest eigenvalues from eigsh on the complex K and M."""
    stiff, mass, area = _complex_operator(profile, bc, beta, nr, nt)
    sigma = -(0.5 * abs(beta) + 0.1) / area if bc == "neumann" else 0.0
    lu = spla.splu((stiff - sigma * mass).tocsc())
    opinv = spla.LinearOperator(stiff.shape, matvec=lu.solve, dtype=complex)
    rng = np.random.default_rng(_EIG_SEED)
    v0 = rng.standard_normal(stiff.shape[0]) + 1j * rng.standard_normal(stiff.shape[0])
    return np.sort(spla.eigsh(stiff, k=k, M=mass, sigma=sigma, v0=v0, tol=0,
                              OPinv=opinv, return_eigenvectors=False))


def _check_mapped_vectors(profile, bc, beta):
    """solve's vectors are eigenvectors of the complex K, M and M-orthogonal."""
    spec = solve(profile, SolverConfig(n_radial=32, n_angular=64, bc=bc,
                                       beta=beta, n_eigs=6))
    stiff, mass, _ = _complex_operator(profile, bc, beta, 32, 64)
    vecs, vals = spec.eigenvectors, np.array(spec.eigenvalues)
    resid = np.linalg.norm(stiff @ vecs - (mass @ vecs) * vals, axis=0)
    assert np.all(resid <= 1e-10 * vals.max() * np.linalg.norm(vecs, axis=0))
    # distinct vectors, M-orthogonal: no eigenvalue is found twice
    gram = vecs.conj().T @ (mass @ vecs)
    np.testing.assert_allclose(gram, np.diag(np.diag(gram)), atol=1e-10)


class TestArithmetic:
    """An exact symmetry lets solve run in real arithmetic: decoupled
    angular sectors on a disk, K itself at beta = 0, and a folded real
    basis on mirror-symmetric domains."""

    CASES = [("dirichlet", 0.0), ("dirichlet", 5.0), ("dirichlet", -5.0),
             ("neumann", 5.0)]

    @pytest.mark.parametrize("bc, beta", CASES)
    @pytest.mark.parametrize("name", ["flower_5", "disk"])
    def test_agrees_with_complex_eigsh(self, name, bc, beta):
        profile = corpus_entry(name).profile
        cfg = SolverConfig(n_radial=32, n_angular=64, bc=bc, beta=beta, n_eigs=8)
        spec = solve(profile, cfg)
        assert spec.stats.arithmetic == (
            "radial" if name == "disk" else "real" if beta == 0.0 else "mirror")
        np.testing.assert_allclose(spec.eigenvalues,
                                   _complex_eigsh(profile, bc, beta, 32, 64, 8),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("bc, beta", CASES)
    def test_mapped_vectors_solve_the_complex_problem(self, bc, beta):
        _check_mapped_vectors(corpus_entry("ellipse_060").profile, bc, beta)

    COMPLEX_CASES = [("dirichlet", 5.0), ("dirichlet", -5.0), ("neumann", 5.0)]

    @pytest.mark.parametrize("k", [1, 8])
    @pytest.mark.parametrize("bc, beta", COMPLEX_CASES)
    def test_complex_route_agrees_with_generalized_eigsh(self, bc, beta, k):
        # solve runs the standard problem for (K - sigma M)^-1 M; the
        # reference runs eigsh's generalized mode under its own ordering
        cfg = SolverConfig(n_radial=32, n_angular=64, bc=bc, beta=beta, n_eigs=k)
        spec = solve(TURNED_FLOWER, cfg)
        assert spec.stats.arithmetic == "complex"
        np.testing.assert_allclose(spec.eigenvalues,
                                   _complex_eigsh(TURNED_FLOWER, bc, beta, 32, 64, k),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("bc, beta", COMPLEX_CASES)
    def test_complex_route_vectors_solve_the_problem(self, bc, beta):
        _check_mapped_vectors(TURNED_FLOWER, bc, beta)

    def test_route_follows_the_symmetry(self):
        grid = np.arange(256) * (2 * np.pi / 256)
        sampled = RadiusProfile.from_samples(np.sqrt(1 + 0.3 * np.cos(2 * grid)))
        tilted = RadiusProfile(1.0, ((2, 0.15, 1e-6),))
        cfg = coarse(beta=5.0, n_eigs=2)
        assert solve(sampled, cfg).stats.arithmetic == "mirror"
        assert solve(tilted, cfg).stats.arithmetic == "complex"
        assert solve(TURNED_FLOWER, cfg).stats.arithmetic == "complex"
        for profile in (sampled, tilted, TURNED_FLOWER, DISK):
            route = "radial" if profile is DISK else "real"
            assert solve(profile, coarse(n_eigs=2)).stats.arithmetic == route
            assert solve(profile, coarse(bc="neumann", n_eigs=2)).stats.arithmetic == route

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_dominant_modes_of_the_disk(self, beta):
        # each vector's |m| is that of the analytic mode, also across the
        # double eigenvalues of beta = 0, where any basis of the pair is valid
        from magspec.solver import dominant_angular_mode
        spec = solve(DISK, coarse(beta=beta, n_eigs=8, nr=24, nt=48))
        modes = disk_eigenvalues(beta, 8).modes
        assert [dominant_angular_mode(spec, j) for j in range(8)] == \
            [abs(mode.m) for mode in modes]


class TestRadialRoute:
    """K and M of a disk are unchanged by turning the mesh one angular
    column, so the angular Fourier sectors decouple into real blocks."""

    ZERO_HARMONIC = RadiusProfile(1.0, ((2, 0.0, 0.0),))

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("beta", [0.0, 5.0, -5.0])
    @pytest.mark.parametrize("name", ["disk", "disk_scaled_2x", "zero_harmonic"])
    def test_route_taken_on_disks(self, name, beta, bc):
        profile = (self.ZERO_HARMONIC if name == "zero_harmonic"
                   else corpus_entry(name).profile)
        spec = solve(profile, coarse(beta=beta, bc=bc, n_eigs=2))
        assert spec.stats.arithmetic == "radial"

    @pytest.mark.parametrize("bc, beta", TestArithmetic.CASES)
    def test_mapped_vectors_solve_the_complex_problem(self, bc, beta):
        # a conjugated synthesis phase or a lost centre coupling fails here
        _check_mapped_vectors(DISK, bc, beta)

    def test_route_not_taken_off_disks(self):
        near = corpus_entry("near_circle_2_010").profile
        assert solve(near, coarse(beta=5.0, n_eigs=2)).stats.arithmetic == "mirror"
        assert solve(ELLIPSE, coarse(n_eigs=2)).stats.arithmetic == "real"

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_fill_of_the_sector_blocks(self, bc):
        # tridiagonal sector blocks store 32k LU entries at 64x128, against
        # 0.82M for the folded mirror operator of the same disk
        cfg = SolverConfig(n_radial=64, n_angular=128, bc=bc, beta=5.0, n_eigs=1)
        spec = solve(DISK, cfg)
        assert spec.stats.arithmetic == "radial"
        assert spec.stats.lu_fill <= 40_000

    def test_every_double_level_found_twice(self):
        # at beta = 0 the sectors m and -m are the same block, and each
        # |m| > 0 level must come out twice, as the complex solve finds it
        from magspec.solver import dominant_angular_mode
        spec = solve(DISK, SolverConfig(n_radial=32, n_angular=64, n_eigs=20))
        np.testing.assert_allclose(spec.eigenvalues,
                                   _complex_eigsh(DISK, "dirichlet", 0.0, 32, 64, 20),
                                   rtol=1e-12, atol=0)
        vals = np.array(spec.eigenvalues)
        for j in range(19):  # the 20th level's twin may lie past the cut
            twins = np.sum(np.isclose(vals, vals[j], rtol=1e-12, atol=0))
            assert twins == (1 if dominant_angular_mode(spec, j) == 0 else 2)


class TestNoReferenceCycles:
    """A solve frees its factorization, matrices and Krylov basis when it
    returns, on every route, without waiting for the cyclic collector."""

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("name, beta, route", [
        ("disk", 5.0, "radial"), ("flower_5", 0.0, "real"),
        ("flower_5", 5.0, "mirror"), ("turned_flower", 5.0, "complex")])
    def test_solve_leaves_no_cyclic_garbage(self, name, beta, route, bc):
        profile = (TURNED_FLOWER if name == "turned_flower"
                   else corpus_entry(name).profile)
        cfg = coarse(beta=beta, bc=bc, n_eigs=2)
        gc.collect()
        gc.disable()
        try:
            assert solve(profile, cfg).stats.arithmetic == route
            assert gc.collect() == 0
        finally:
            gc.enable()


def _expanded_stiffness(profile, beta, nr, nt):
    """Reference K: the magnetic form expanded into real and imaginary
    products per local pair (p, q), as assembled before the rank-one form."""
    hs, ht = 1.0 / nr, 2.0 * math.pi / nt
    area = factors(profile).area
    ii, jj = np.arange(nr)[:, None], np.arange(nt)[None, :]
    ring = lambda i, j: 1 + (i - 1) * nt + j
    corners = (np.where(ii == 0, 0, ring(ii, jj)), ring(ii + 1, jj),
               ring(ii + 1, (jj + 1) % nt), np.where(ii == 0, 0, ring(ii, (jj + 1) % nt)))
    conn = np.stack([c.ravel() for c in np.broadcast_arrays(*corners)], axis=1)
    k_local = np.zeros((nr * nt, 4, 4), dtype=complex)
    for xi, zeta in _GPTS:
        nsh, dxi, dzeta = _shape_values(xi, zeta)
        d_s, d_t = (2.0 / hs) * dxi, (2.0 / ht) * dzeta
        s2 = ((np.arange(nr) + 0.5 * (1 + xi)) * hs)[:, None]
        t_g = (np.arange(nt) + 0.5 * (1 + zeta)) * ht
        r, rp = profile.radius(t_g)[None, :], profile.radius_deriv(t_g)[None, :]
        a, b, c = 1.0 / (s2 * r), rp / r**2 + 0 * s2, (beta / (2.0 * area)) * s2 * r
        w, w_rad = 0.25 * hs * ht * s2 * r**2, 0.25 * hs * ht * s2 + 0 * r
        for p in range(4):
            for q in range(4):
                real = (a * a * w * d_t[p] * d_t[q] + b * b * w * d_s[p] * d_s[q]
                        + c * c * w * nsh[p] * nsh[q]
                        - a * b * w * (d_s[p] * d_t[q] + d_t[p] * d_s[q])
                        + w_rad * d_s[p] * d_s[q])
                imag = (a * c * w * (d_t[q] * nsh[p] - nsh[q] * d_t[p])
                        + b * c * w * (nsh[q] * d_s[p] - d_s[q] * nsh[p]))
                k_local[:, p, q] += (real + 1j * imag).ravel()
    rows, cols = np.repeat(conn, 4, axis=1).ravel(), np.tile(conn, (1, 4)).ravel()
    return sp.coo_matrix((k_local.ravel(), (rows, cols)),
                         shape=(1 + nr * nt,) * 2).tocsr()


class TestPinnedEigenvalues:
    """16x32 eigenvalues recorded from the 16-term expansion of the stiffness
    form that the rank-one assembly replaced; the two must agree to 1e-10."""

    PINNED = {
        ("flower_5", "dirichlet", 0.0): (7.101838646626235, 17.327605815992996,
                                         17.348184444612272, 28.688186417751233),
        ("flower_5", "dirichlet", 5.0): (7.213578080268549, 16.04146665181895,
                                         18.95362520471756, 26.70096241698886),
        ("flower_5", "neumann", 5.0): (0.23848674892691113, 2.1061480190666773,
                                       4.217986226205177, 5.260097158441209),
        ("ellipse_060", "dirichlet", 0.0): (7.070503423833148, 12.071330874707964,
                                            21.20973524579386, 23.277871829018654),
        ("ellipse_060", "dirichlet", 5.0): (7.184746763271011, 12.060266125551063,
                                            20.84328978265298, 23.614805556783754),
        ("ellipse_060", "neumann", 5.0): (0.2593267289925736, 1.7412634241452867,
                                          6.0182289720234134, 6.477451826073125),
    }

    @pytest.mark.parametrize("name,beta", [("flower_5", 0.0), ("flower_5", 5.0),
                                           ("ellipse_060", 20.0)])
    def test_stiffness_matches_expanded_form(self, name, beta):
        profile = corpus_entry(name).profile
        stiff = _assemble(profile, beta, 16, 32)[0]
        ref = _expanded_stiffness(profile, beta, 16, 32)
        # the centre row sums O(1/s) local entries that cancel, so compare
        # against max|K| with a few thousand float64 ulps of slack
        assert abs(stiff - ref).max() <= 1e-12 * abs(ref).max()

    @pytest.mark.parametrize("name,bc,beta", sorted(PINNED))
    def test_matches_recorded_values(self, name, bc, beta):
        spec = solve(corpus_entry(name).profile, coarse(beta=beta, bc=bc))
        np.testing.assert_allclose(spec.eigenvalues, self.PINNED[name, bc, beta],
                                   rtol=1e-10, atol=0)
