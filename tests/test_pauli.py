import dataclasses
import math
import random

import pytest

from magspec.disk import disk_eigenvalues
from magspec.functionals import PhiFamily, phi_sum_values
from magspec.geometry import RadiusProfile, factors
from magspec.pauli import (InsufficientSpectrumError, pauli_spectrum,
                           verify_pauli_bounds)
from magspec.solver import SolverConfig, solve
from magspec.spectra import MagneticSpectrum

FLOWER = RadiusProfile(1.0, ((5, 0.2, 0.0),))


class TestMerge:
    def test_union_multiset_identity(self):
        magnetic = disk_eigenvalues(5.0, 8)
        ps = pauli_spectrum(magnetic, 6)
        shift = 5.0 / magnetic.area
        expected = sorted([v - shift for v in magnetic.eigenvalues]
                          + [v + shift for v in magnetic.eigenvalues])
        assert list(ps.eigenvalues) == pytest.approx(expected[:6], abs=0)

    def test_ground_shift_identity(self):
        magnetic = disk_eigenvalues(5.0, 8)
        ps = pauli_spectrum(magnetic, 1)
        assert ps.eigenvalues[0] + 5.0 / magnetic.area == pytest.approx(
            magnetic.eigenvalues[0], rel=1e-15)
        assert ps.entries[0][1] == "spin_up"

    def test_zero_field_doubles_spectrum(self):
        magnetic = disk_eigenvalues(0.0, 4)
        ps = pauli_spectrum(magnetic, 8)
        for i in range(4):
            assert ps.eigenvalues[2 * i] == ps.eigenvalues[2 * i + 1]
            assert ps.eigenvalues[2 * i] == pytest.approx(
                magnetic.eigenvalues[i], rel=1e-15)

    def test_insufficient_input_detected(self):
        magnetic = disk_eigenvalues(5.0, 2)
        with pytest.raises(InsufficientSpectrumError) as info:
            pauli_spectrum(magnetic, 4)
        assert info.value.required > 2

    def test_neumann_rejected(self):
        fake = MagneticSpectrum((1.0, 2.0), "neumann", 5.0, math.pi, "analytic")
        with pytest.raises(ValueError, match="infinite-dimensional null space"):
            pauli_spectrum(fake, 1)

    def test_positivity(self):
        for beta in (0.5, 5.0, 20.0):
            magnetic = disk_eigenvalues(beta, 8)
            ps = pauli_spectrum(magnetic, 4)
            assert ps.eigenvalues[0] > 0

    def test_exactly_n_magnetic_values_certify_n(self):
        # the n-th merged value is at most lambda_n - |beta|/A, the floor
        rng = random.Random(19)
        for _ in range(40):
            beta = rng.choice((-1, 1)) * 10 ** rng.uniform(-3, 2)
            n = rng.randint(1, 20)
            assert len(pauli_spectrum(disk_eigenvalues(beta, n), n).entries) == n
        discrete = solve(FLOWER, SolverConfig(n_radial=16, n_angular=32,
                                              beta=5.0, n_eigs=6))
        assert len(pauli_spectrum(discrete, 6).entries) == 6

    def test_flux_sign_gives_same_multiset(self):
        plus = pauli_spectrum(disk_eigenvalues(5.0, 8), 6)
        minus = pauli_spectrum(disk_eigenvalues(-5.0, 8), 6)
        assert list(plus.eigenvalues) == pytest.approx(list(minus.eigenvalues),
                                                       rel=1e-12)


class TestShiftedScale:
    def test_shifted_normalized_decomposition(self):
        # (spec + |beta|/A) A/G splits into an unshifted copy of the
        # normalized magnetic values and one shifted by 2|beta|/G
        g = 1.3
        magnetic = disk_eigenvalues(5.0, 8)
        ps = pauli_spectrum(magnetic, 8, g=g)
        shifted = ps.shifted_normalized
        base = [v * magnetic.area / g for v in magnetic.eigenvalues]
        expected = sorted(base + [v + 2 * 5.0 / g for v in base])[:8]
        assert list(shifted) == pytest.approx(expected, rel=1e-12)

    def test_two_code_paths_one_answer(self):
        # running the functionals on the pre-shifted sequences directly must
        # reproduce the verdicts from verify_pauli_bounds
        cfg = SolverConfig(n_radial=32, n_angular=64, n_eigs=8)
        beta, n = 5.0, 4
        verdicts = verify_pauli_bounds(FLOWER, beta, n, (PhiFamily("identity"),),
                                       cfg)
        from magspec.functionals import domain_and_disk_spectra
        dom, _ = domain_and_disk_spectra(FLOWER, beta, "dirichlet", 8, cfg)
        g = factors(FLOWER).g
        dom_ps = pauli_spectrum(dom, n, g=g)
        lhs_direct = phi_sum_values(list(dom_ps.shifted_normalized),
                                    PhiFamily("identity"), n)
        assert verdicts[0].lhs == pytest.approx(lhs_direct, rel=1e-12)

    def test_each_side_solves_exactly_n(self, monkeypatch):
        # Both sides come from one domain_and_disk_spectra call with n values;
        # the stub domain solve returns the analytic unit-disk spectrum.
        import magspec.disk
        import magspec.functionals
        domain_counts, disk_counts = [], []

        def disk_recorded(beta, n):
            disk_counts.append(n)
            return disk_eigenvalues(beta, n)

        def domain_recorded(profile, cfg):
            domain_counts.append(cfg.n_eigs)
            exact = disk_eigenvalues(cfg.beta, cfg.n_eigs)
            return dataclasses.replace(exact, error_bars=(1e-9,) * cfg.n_eigs)

        monkeypatch.setattr(magspec.disk, "disk_eigenvalues", disk_recorded)
        monkeypatch.setattr(magspec.functionals, "solve_with_error_bars",
                            domain_recorded)
        verdicts = verify_pauli_bounds(RadiusProfile(1.0), 5.0, 5)
        assert domain_counts == [5] and disk_counts == [5]
        assert all(v.holds and abs(v.margin) <= 1e-12 for v in verdicts)

    def test_bounds_hold_on_flower(self):
        cfg = SolverConfig(n_radial=32, n_angular=64, n_eigs=8)
        verdicts = verify_pauli_bounds(FLOWER, 5.0, (1, 3), None, cfg)
        assert len(verdicts) == 10
        assert all(v.holds for v in verdicts)

    def test_disk_margins_vanish(self):
        cfg = SolverConfig(n_radial=32, n_angular=64, n_eigs=8)
        verdicts = verify_pauli_bounds(RadiusProfile(1.0), 5.0, 2,
                                       (PhiFamily("identity"),), cfg)
        for v in verdicts:
            assert v.holds
            assert abs(v.margin) <= 2 * v.error_bar + 1e-9
