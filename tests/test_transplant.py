import math

import numpy as np
import pytest

from magspec import disk as disk_mod
from magspec import transplant as transplant_mod
from magspec.disk import disk_eigenvalues, disk_radial_profile
from magspec.geometry import RadiusProfile, angular_map, factors
from magspec.kummer import bessel_j_zero
from magspec.solver import SolverConfig, _assemble
from magspec.transplant import (sum_bound_chain, transplant_identity,
                                transplant_overlap)

DISK = RadiusProfile(1.0)
ELLIPSE = RadiusProfile.from_samples(
    np.sqrt(1 + 0.3 * np.cos(2 * np.arange(512) * (2 * np.pi / 512))))
FLOWER = RadiusProfile(1.0, ((5, 0.2, 0.0),))


class TestIdentity:
    def test_on_the_disk_map_is_identity(self):
        mode = disk_eigenvalues(5.0, 1).modes[0]
        rep = transplant_identity(DISK, mode, n_eta=8)
        assert rep.g0 == 1.0 and rep.g1 == 1.0
        assert rep.q2_avg == 0.0
        assert rep.identity_residual <= 1e-8
        # with G0 = G1 = 1 the averaged numerator is the disk energy
        assert rep.q1_avg + rep.q3_avg == pytest.approx(mode.eigenvalue, rel=1e-9)
        assert rep.mass == pytest.approx(1.0, abs=1e-10)  # area/pi

    def test_cross_term_vanishes_on_profiles(self):
        spec = disk_eigenvalues(5.0, 3)
        for profile in (ELLIPSE, FLOWER):
            for mode in spec.modes[:2]:
                rep = transplant_identity(profile, mode, n_eta=16)
                assert abs(rep.q2_avg) <= 1e-8

    def test_identity_residual_ellipse(self):
        spec = disk_eigenvalues(5.0, 2)
        for mode in spec.modes:
            rep = transplant_identity(ELLIPSE, mode, n_eta=64)
            assert rep.identity_residual <= 1e-6

    def test_eta_refinement_stable(self):
        mode = disk_eigenvalues(5.0, 2).modes[1]
        rep1 = transplant_identity(FLOWER, mode, n_eta=32)
        rep2 = transplant_identity(FLOWER, mode, n_eta=64)
        assert abs(rep1.q1_avg - rep2.q1_avg) < 1e-10
        assert abs(rep1.q3_avg - rep2.q3_avg) < 1e-10

    @pytest.mark.parametrize("n_eta", [0, -3])
    def test_rejects_nonpositive_n_eta(self, n_eta):
        mode = disk_eigenvalues(5.0, 1).modes[0]
        with pytest.raises(ValueError, match="n_eta"):
            transplant_identity(ELLIPSE, mode, n_eta=n_eta)

    def test_mass_is_area_over_pi(self):
        mode = disk_eigenvalues(5.0, 1).modes[0]
        for profile in (ELLIPSE, FLOWER):
            rep = transplant_identity(profile, mode, n_eta=8)
            expect = factors(profile).area / math.pi
            assert rep.mass == pytest.approx(expect, abs=1e-8)


def _fem_quotient(profile, mode, nr, nt):
    """v^H K v / v^H M v of v = f(s) e^{i m phi(theta)} on the solver's nodes."""
    stiff, mass, _ = _assemble(profile, mode.beta, nr, nt)
    f = disk_radial_profile(mode, np.arange(nr + 1) / nr)  # f(0) = 0 unless m = 0
    phase = np.exp(1j * mode.m * angular_map(profile).phi_at(
        np.arange(nt) * (2 * np.pi / nt)))
    v = np.concatenate(([f[0]], np.outer(f[1:], phase).ravel()))
    return (np.vdot(v, stiff @ v) / np.vdot(v, mass @ v)).real


class TestAgainstFem:
    """The split checked against the discrete quadratic form, not itself."""

    @pytest.mark.parametrize("beta", [5.0, -2.0])
    def test_predicted_bound_is_the_fem_rayleigh_quotient(self, beta):
        for profile in (ELLIPSE, FLOWER):
            for mode in disk_eigenvalues(beta, 3).modes:
                coarse = _fem_quotient(profile, mode, 64, 128)
                fine = _fem_quotient(profile, mode, 128, 256)
                rep = transplant_identity(profile, mode)
                assert (4 * fine - coarse) / 3 == pytest.approx(
                    rep.predicted_sum_bound, rel=1e-6)


class TestOrthogonality:
    def test_transplanted_modes_stay_orthogonal(self):
        spec = disk_eigenvalues(5.0, 4)
        for profile in (ELLIPSE, FLOWER):
            for i in range(3):
                for j in range(i + 1, 4):
                    ov = transplant_overlap(profile, spec.modes[i], spec.modes[j])
                    assert abs(ov) <= 1e-8

    def test_self_overlap_is_area_over_pi(self):
        spec = disk_eigenvalues(5.0, 2)
        area = factors(ELLIPSE).area
        for mode in spec.modes:
            ov = transplant_overlap(ELLIPSE, mode, mode)
            assert ov.real == pytest.approx(area / math.pi, abs=1e-8)
            assert abs(ov.imag) < 1e-12


class TestKummerBudget:
    """Each radial node costs one M (and, for the identity, one M') evaluation."""

    def test_identity_evaluates_m_once_per_radial_node(self, kummer_calls):
        mode = disk_eigenvalues(5.0, 2).modes[1]
        kummer_calls.update(kummer_m=0, kummer_m_dz=0)  # not the root search
        disk_mod.normalization_constant(mode)
        norm_calls = kummer_calls["kummer_m"]
        kummer_calls.update(kummer_m=0, kummer_m_dz=0)
        transplant_identity(ELLIPSE, mode)
        nodes = transplant_mod._RADIAL_PANELS * transplant_mod._RADIAL_NODES
        assert kummer_calls["kummer_m"] <= nodes + norm_calls
        assert kummer_calls["kummer_m_dz"] <= nodes

    def test_overlap_needs_no_derivative(self, kummer_calls):
        modes = disk_eigenvalues(5.0, 2).modes
        transplant_overlap(ELLIPSE, modes[0], modes[1])
        assert kummer_calls["kummer_m"] > 0
        assert kummer_calls["kummer_m_dz"] == 0


class TestSumBoundChain:
    CFG = SolverConfig(n_radial=32, n_angular=64)

    def test_disk_zero_field_single_mode(self):
        chain = sum_bound_chain(DISK, 0.0, 1, self.CFG)
        expect = math.pi * bessel_j_zero(0, 1) ** 2
        assert chain.rhs == pytest.approx(expect, rel=1e-12)
        assert chain.lhs == pytest.approx(expect, rel=5e-3)
        assert chain.lhs >= expect - 1e-9  # discrete value sits above

    def test_disk_is_tight(self):
        chain = sum_bound_chain(DISK, 5.0, 3, self.CFG)
        assert chain.g == 1.0
        assert chain.lhs == pytest.approx(chain.rhs, rel=1e-3)
        assert chain.chain_holds

    def test_chain_ordering_on_domains(self):
        for profile in (ELLIPSE, FLOWER):
            chain = sum_bound_chain(profile, 5.0, 5, self.CFG)
            assert chain.chain_holds
            # the intermediate per-mode bound is itself below g * rhs
            assert chain.intermediate <= chain.g * chain.rhs * (1 + 1e-12)
            # and the unnormalized sum obeys the sharper per-mode bound
            assert chain.lhs * chain.g <= chain.intermediate + chain.g * chain.lhs_error_bar
            assert all(0.0 <= a <= 1.0 for a in chain.alphas)
