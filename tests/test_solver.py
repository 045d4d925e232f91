import numpy as np
import pytest
import scipy.sparse.linalg as spla

from magspec.corpus import corpus_entry
from magspec.disk import disk_eigenvalues
from magspec.geometry import RadiusProfile
from magspec.kummer import bessel_j_zero
from magspec.solver import (_EIG_SEED, SolverConfig, _assemble, _dof_selection,
                            convergence_study, observed_orders, solve,
                            solve_with_error_bars)
from magspec.spectra import MagneticSpectrum

DISK = RadiusProfile(1.0)
ELLIPSE = RadiusProfile(1.0, ((2, 0.15, 0.0),))


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
        back = MagneticSpectrum.from_csv(spec.to_csv())
        assert back.eigenvalues == spec.eigenvalues
        assert back.area == pytest.approx(spec.area, rel=1e-12)
        assert back.bc == spec.bc and back.beta == spec.beta


class TestConvergence:
    def test_study_orders_beta0(self):
        ref = disk_eigenvalues(0.0, 1).eigenvalues
        study = convergence_study(DISK, coarse(n_eigs=1, nr=12, nt=24), levels=3)
        orders = observed_orders(study, reference=ref)
        assert 1.7 <= orders[0] <= 2.3

    def test_study_without_reference(self):
        study = convergence_study(DISK, coarse(n_eigs=1, nr=8, nt=16), levels=3)
        orders = observed_orders(study)
        assert 1.5 <= orders[0] <= 2.5

    def test_cauchy_refinement_nonpolynomial_profile(self):
        grid = np.arange(256) * (2 * np.pi / 256)
        prof = RadiusProfile.from_samples(np.sqrt(1 + 0.3 * np.cos(2 * grid)))
        study = convergence_study(prof, coarse(n_eigs=1, nr=8, nt=16), levels=3)
        vals = [s.eigenvalues[0] for _, s in study]
        gap1, gap2 = abs(vals[1] - vals[0]), abs(vals[2] - vals[1])
        assert gap2 <= gap1 / 3.0


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
        # and 2.70M entries on these meshes.
        cfg = SolverConfig(n_radial=nr, n_angular=nt, beta=5.0, n_eigs=1)
        assert solve(self.FLOWER, cfg).stats.lu_fill <= ceiling

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
        assert solve_with_error_bars(self.FLOWER, cfg).stats == first.stats

    def test_record_stays_out_of_outputs(self):
        spec = solve(DISK, coarse(beta=5.0, n_eigs=2))
        assert spec.stats.lu_fill > 0
        assert "stats" not in repr(spec)
        assert MagneticSpectrum.from_csv(spec.to_csv()).stats is None
