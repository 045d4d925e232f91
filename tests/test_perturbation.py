import math

import pytest

from magspec.disk import disk_eigenvalues
from magspec.geometry import factors
from magspec.kummer import kummer_m, kummer_m_da
from magspec.perturbation import (QuadraticBound, PerturbationProfile,
                                  coefficient_c, quadratic_bound,
                                  q_coefficient, q_coefficient_profile_path,
                                  slope_validation)
from magspec.solver import SolverConfig


class TestProfile:
    def test_rejects_constant_term(self):
        with pytest.raises(ValueError):
            PerturbationProfile({0: 1.0})
        with pytest.raises(ValueError):
            PerturbationProfile({-2: 0.5})

    def test_gamma(self):
        prof = PerturbationProfile({2: 0.5})
        assert prof.sum_sq == pytest.approx(0.25)
        assert prof.sum_n2_sq == pytest.approx(1.0)

    def test_bridge_to_real_harmonics(self):
        # a_n = 2 eps Re p_n, b_n = -2 eps Im p_n
        eps = 0.1
        prof = PerturbationProfile({2: 0.5, 3: complex(0.1, -0.2)})
        rp = prof.to_radius_profile(eps)
        harm = dict((n, (a, b)) for n, a, b in rp.harmonics)
        assert harm[2][0] == pytest.approx(eps)
        assert harm[3][0] == pytest.approx(0.2 * eps)
        assert harm[3][1] == pytest.approx(0.4 * eps)
        # and eps*P(theta) evaluates correctly: cos2t + 0.2cos3t + 0.4sin3t
        theta = 0.37
        expect = eps * (math.cos(2 * theta) + 0.2 * math.cos(3 * theta)
                        + 0.4 * math.sin(3 * theta))
        assert rp.radius(theta) - 1.0 == pytest.approx(expect, abs=1e-12)

    def test_dict_roundtrip(self):
        prof = PerturbationProfile({2: complex(0.5, -0.25)})
        again = PerturbationProfile.from_dict(prof.to_dict())
        assert again == prof

    def test_positivity_guard(self):
        with pytest.raises(ValueError):
            PerturbationProfile({1: 0.5}).to_radius_profile(1.2)

    def test_rejects_non_integer_index(self):
        with pytest.raises(ValueError, match="integer"):
            PerturbationProfile({2.5: 0.5})
        assert PerturbationProfile({2.0: 0.5}).p == ((2, 0.5 + 0j),)

    def test_from_dict_rejects_duplicate_index(self):
        with pytest.raises(ValueError, match="distinct n"):
            PerturbationProfile.from_dict({"p": {"2": [0.5, 0], "02": [0.25, 0]}})


class TestCoefficientC:
    def test_ground_root_and_sign(self):
        beta = 5.0
        lam0 = disk_eigenvalues(beta, 1).eigenvalues[0]
        a0 = 0.5 * (1 - lam0 * math.pi / beta)
        z = beta / (2 * math.pi)
        assert abs(kummer_m(a0, 1, z)) <= 1e-10   # ground root condition
        assert a0 < 0
        c = coefficient_c(beta)
        assert math.isfinite(c)
        # reported, not asserted by theory: positive at every tested flux,
        # consistent with the measured slopes below
        assert c > 0

    def test_negative_flux_warns_and_matches(self):
        with pytest.warns(UserWarning):
            c_neg = coefficient_c(-5.0)
        assert c_neg == pytest.approx(coefficient_c(5.0), rel=1e-12)

    def test_zero_flux_rejected(self):
        with pytest.raises(ValueError):
            coefficient_c(0.0)

    def test_denominator_is_tracked(self):
        beta = 5.0
        lam0 = disk_eigenvalues(beta, 1).eigenvalues[0]
        a0 = 0.5 * (1 - lam0 * math.pi / beta)
        assert abs(kummer_m_da(a0, 1, beta / (2 * math.pi))) > 1e-6


class TestQCoefficients:
    def test_q1_vanishes(self):
        for beta in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
            assert abs(q_coefficient(beta, 1)) <= 1e-8

    def test_qn_approaches_n_plus_one(self):
        assert abs(q_coefficient(5.0, 100) / 101.0 - 1.0) < 0.05
        assert abs(q_coefficient(5.0, 200) - 201.0) < 0.5

    def test_two_paths_agree(self):
        for beta in (1.0, 5.0, 20.0):
            for n in (1, 2, 3, 7):
                direct = q_coefficient(beta, n)
                alt = q_coefficient_profile_path(beta, n)
                assert abs(direct - alt) <= 1e-8 * max(1.0, abs(direct))

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            q_coefficient(5.0, 0)


class TestQuadraticBound:
    def test_unperturbed(self):
        bound = quadratic_bound(PerturbationProfile({2: 0.5}), 0.0)
        assert bound == QuadraticBound(1.0, 1.0, 1.0)

    def test_cos2_surrogate(self):
        # sum n^2 |p_n|^2 = 1 = 4 sum |p_n|^2 -> surrogate 1 + 2 eps^2
        bound = quadratic_bound(PerturbationProfile({2: 0.5}), 0.02)
        assert bound.surrogate == pytest.approx(1.0 + 2 * 0.02**2, rel=1e-12)
        assert bound.upper == pytest.approx(bound.surrogate, abs=1e-5)

    def test_cos5_surrogate_takes_oscillation_branch(self):
        # max(25/4, 1) -> surrogate 1 + 2 * eps^2 * 6.25
        bound = quadratic_bound(PerturbationProfile({5: 0.5}), 0.01)
        assert bound.surrogate == pytest.approx(1.0 + 2 * 0.01**2 * 6.25, rel=1e-12)

    def test_surrogate_defect_is_higher_order(self):
        prof = PerturbationProfile({2: 0.5})
        eps = 0.04
        d1 = abs(quadratic_bound(prof, eps).upper
                 - quadratic_bound(prof, eps).surrogate)
        d2 = abs(quadratic_bound(prof, eps / 2).upper
                 - quadratic_bound(prof, eps / 2).surrogate)
        assert d1 / max(d2, 1e-300) >= 6.0

    def test_matches_exact_factors(self):
        prof = PerturbationProfile({3: 0.5})
        eps = 0.02
        assert quadratic_bound(prof, eps).upper == pytest.approx(
            factors(prof.to_radius_profile(eps)).g, rel=1e-12)

    def test_positivity_precondition(self):
        prof = PerturbationProfile({1: 0.5})
        with pytest.raises(ValueError):
            quadratic_bound(prof, 1.5)  # 1 + eps*P touches zero


class TestSlopeValidation:
    CFG = SolverConfig(n_radial=48, n_angular=96, n_eigs=1)

    def test_cos2_slope(self):
        prof = PerturbationProfile({2: 0.5})
        report = slope_validation(5.0, prof, (0.04, 0.02), self.CFG)
        assert report.relative_mismatch <= 0.05
        assert report.predicted_slope == pytest.approx(
            coefficient_c(5.0) * 0.25 * q_coefficient(5.0, 2), rel=1e-12)
        assert 1 in report.q and abs(report.q[1]) <= 1e-8

    def test_cos1_slope_vanishes(self):
        # q_1 = 0: the eps^2 term of a cos(theta) perturbation disappears,
        # and the measured slope must sit within the solver error bar
        prof = PerturbationProfile({1: 0.5})
        report = slope_validation(5.0, prof, (0.04, 0.02), self.CFG)
        assert abs(report.predicted_slope) <= 1e-8
        scale = disk_eigenvalues(5.0, 1).eigenvalues[0] * math.pi
        assert abs(report.measured_slope) <= 1e-3 * scale

    @pytest.mark.parametrize("p, eps", [({2: 0.5}, (0.04, 0.02)),
                                        ({3: 0.5}, (0.04, 0.02)),
                                        ({2: 0.5, 3: 0.25}, (0.04, 0.02, 0.01))])
    def test_extrapolation_follows_parity(self, p, eps):
        # One harmonic: lambda(eps) is even, so the slopes are fitted in eps^2;
        # mixed harmonics add an eps term.  A fit linear in eps misses the
        # series by 4e-4 to 9e-4 here, the eps^2 term it leaves in.
        cfg = SolverConfig(n_radial=32, n_angular=64, n_eigs=1)
        report = slope_validation(5.0, PerturbationProfile(p), eps, cfg)
        assert report.relative_mismatch <= 2e-5

    @pytest.mark.parametrize("nr, nt", [(8, 32), (16, 16)])
    def test_minimum_mesh_has_no_partner(self, nr, nt):
        # coarsened() clamps to the same count here, so the Richardson step
        # would extrapolate across a halving that did not happen
        cfg = SolverConfig(n_radial=nr, n_angular=nt, n_eigs=1)
        with pytest.raises(ValueError, match="--nr >= 9, --nt >= 18"):
            slope_validation(5.0, PerturbationProfile({2: 0.5}), (0.04, 0.02), cfg)

    def test_sandwich_on_measured_values(self):
        # 1 <= lambda_eps A_eps / (lambda_1(D) pi) <= G(Omega_eps)
        prof = PerturbationProfile({2: 0.5})
        from magspec.solver import solve
        lam_disk = disk_eigenvalues(5.0, 1).eigenvalues[0] * math.pi
        for eps in (0.02, 0.04):
            rp = prof.to_radius_profile(eps)
            cfg = SolverConfig(n_radial=48, n_angular=96, beta=5.0, n_eigs=1)
            val = solve(rp, cfg).normalized[0]
            g = factors(rp).g
            assert val / lam_disk >= 1.0 - 1e-6
            assert val / lam_disk <= g + 1e-3
