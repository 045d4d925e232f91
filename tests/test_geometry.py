import json
import math

import numpy as np
import pytest

from magspec.geometry import RadiusProfile, angular_map, factors, load_profile
from magspec.perturbation import PerturbationProfile


def theta_grid(n):
    return np.arange(n) * (2 * np.pi / n)


class TestRadiusProfile:
    def test_constant_profile(self):
        p = RadiusProfile(1.0)
        assert p.radius(1.3) == 1.0
        assert p.radius_deriv(1.3) == 0.0

    def test_cos_harmonic(self):
        p = RadiusProfile(1.0, ((2, 0.3, 0.0),))
        assert p.radius(0.0) == pytest.approx(1.3, abs=1e-15)
        assert p.radius_deriv(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_sin_harmonic(self):
        p = RadiusProfile(1.0, ((1, 0.0, 0.2),))
        assert p.radius(math.pi / 2) == pytest.approx(1.2, abs=1e-15)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            RadiusProfile(1.0, ((1, 1.5, 0.0),))
        with pytest.raises(ValueError):
            RadiusProfile(-1.0)

    def test_duplicate_harmonic_rejected(self):
        with pytest.raises(ValueError):
            RadiusProfile(1.0, ((2, 0.1, 0.0), (2, 0.0, 0.1)))

    def test_from_samples_roundtrip(self):
        p = RadiusProfile(1.1, ((1, 0.05, -0.02), (4, 0.0, 0.1)))
        grid = theta_grid(256)
        q = RadiusProfile.from_samples(p.radius(grid))
        assert q.radius(0.77) == pytest.approx(p.radius(0.77), abs=1e-12)
        assert q.radius_deriv(0.77) == pytest.approx(p.radius_deriv(0.77), abs=1e-10)

    def test_from_samples_smooth_nonpolynomial(self):
        grid = theta_grid(512)
        p = RadiusProfile.from_samples(np.exp(0.2 * np.cos(grid)))
        theta = 0.9
        assert p.radius(theta) == pytest.approx(math.exp(0.2 * math.cos(theta)),
                                                rel=1e-12)
        assert p.radius_deriv(theta) == pytest.approx(
            -0.2 * math.sin(theta) * math.exp(0.2 * math.cos(theta)), rel=1e-10)

    def test_json_roundtrip(self, tmp_path):
        p = RadiusProfile(1.0, ((3, 0.2, 0.0),))
        path = tmp_path / "dom.json"
        path.write_text(json.dumps(p.to_dict()))
        q = load_profile(str(path))
        assert q == p

    def test_samples_json(self):
        grid = theta_grid(64)
        data = {"samples": list(1.0 + 0.1 * np.cos(2 * grid))}
        p = load_profile(data)
        assert p.radius(0.0) == pytest.approx(1.1, abs=1e-12)


class TestFactors:
    def test_disk(self):
        f = factors(RadiusProfile(1.0))
        assert f.area == pytest.approx(math.pi, rel=1e-15)
        assert f.g0 == 1.0
        assert f.g1 == 1.0
        assert f.g == 1.0

    def test_exponential_profile_g0(self):
        # (log R)' = -0.2 sin(theta); mean square = 0.02 exactly
        p = RadiusProfile.from_samples(np.exp(0.2 * np.cos(theta_grid(1024))))
        f = factors(p)
        assert f.g0 == pytest.approx(1.02, abs=1e-12)

    def test_sqrt_profile_g1(self):
        # R^2 = 1 + 0.3 cos 2t: area pi; mean R^4 = 1 + 0.3^2/2 = 1.045
        p = RadiusProfile.from_samples(np.sqrt(1 + 0.3 * np.cos(2 * theta_grid(1024))))
        f = factors(p)
        assert f.area == pytest.approx(math.pi, rel=1e-12)
        assert f.g1 == pytest.approx(1.045, abs=1e-12)

    def test_scale_invariance(self):
        p = RadiusProfile(1.0, ((2, 0.2, 0.1), (5, 0.05, 0.0)))
        f1, f2 = factors(p), factors(p.scaled(2.0))
        assert f2.g0 == pytest.approx(f1.g0, abs=1e-13)
        assert f2.g1 == pytest.approx(f1.g1, abs=1e-13)
        assert f2.area == pytest.approx(4 * f1.area, rel=1e-14)
        assert f2.polar_moment == pytest.approx(16 * f1.polar_moment, rel=1e-14)

    def test_quadrature_refinement_stable(self):
        p = RadiusProfile(1.0, ((3, 0.15, -0.1), (7, 0.03, 0.02)))
        f1 = factors(p, n_theta=4096)
        f2 = factors(p, n_theta=8192)
        assert abs(f1.g0 - f2.g0) < 1e-12
        assert abs(f1.g1 - f2.g1) < 1e-12

    def test_g_at_least_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            harmonics = tuple((n, 0.3 * rng.uniform(-1, 1) / n**2,
                               0.3 * rng.uniform(-1, 1) / n**2)
                              for n in range(1, 5))
            f = factors(RadiusProfile(1.0, harmonics))
            assert f.g >= 1.0
            assert f.g == max(f.g0, f.g1)
        assert factors(RadiusProfile(2.7)).g - 1.0 < 1e-10

    def test_g1_consistent_with_polar_moment(self):
        p = RadiusProfile(1.0, ((2, 0.25, 0.0),))
        f = factors(p)
        assert f.g1 == pytest.approx(2 * math.pi * f.polar_moment / f.area**2,
                                     rel=1e-13)


class TestAngularMap:
    def test_identity_for_disks(self):
        theta = np.linspace(0.0, 2 * math.pi, 4097)
        for r0 in (1.0, 2.0):
            am = angular_map(RadiusProfile(r0))
            assert np.allclose(am.phi_at(theta), theta, atol=1e-12)

    def test_closure_and_monotonicity(self):
        p = RadiusProfile(1.0, ((2, 0.3, 0.0), (3, 0.0, 0.1)))
        am = angular_map(p)
        phi = am.phi_at(np.linspace(0.0, 2 * math.pi, 4097))
        assert phi[0] == 0.0
        assert abs(phi[-1] - 2 * math.pi) <= 1e-10
        assert np.all(np.diff(phi) > 0)

    def test_sqrt_profile_quarter_turn(self):
        # oracle: cumulative trapezoid at N = 2**16 gives phi(pi/2) = pi/2
        # (the integral of 0.3 cos 2t over a quarter period vanishes)
        p = RadiusProfile.from_samples(np.sqrt(1 + 0.3 * np.cos(2 * theta_grid(1024))))
        n = 2**16
        h = 2 * math.pi / n
        grid = np.arange(n + 1) * h
        w = p.radius(grid) ** 2
        area = 0.5 * h * np.sum(w[:-1])
        phi = np.concatenate(([0.0], np.cumsum(0.5 * h * (w[:-1] + w[1:])))) * math.pi / area
        oracle = phi[n // 4]
        assert oracle == pytest.approx(math.pi / 2, abs=1e-12)
        am = angular_map(p)
        assert am.phi_at(math.pi / 2) == pytest.approx(oracle, abs=1e-10)

    def test_exact_map_matches_grid(self):
        # oracle: cumulative trapezoid of R^2 pi/A; its O(h^2) error is
        # 2.5e-11 at N = 2**18
        p = RadiusProfile(1.0, ((1, 0.1, 0.05), (4, -0.03, 0.0)))
        n = 2**18
        h = 2 * math.pi / n
        grid = np.arange(n + 1) * h
        w = p.radius(grid) ** 2
        area = 0.5 * h * np.sum(w[:-1])
        phi = np.concatenate(([0.0], np.cumsum(0.5 * h * (w[:-1] + w[1:])))) * math.pi / area
        assert np.allclose(angular_map(p).phi_at(grid), phi, rtol=0.0, atol=1e-10)

    def test_map_derivative(self):
        # phi' = R^2 pi / A, by a fourth-order central difference of phi_at
        p = RadiusProfile(1.0, ((2, 0.2, 0.0),))
        am = angular_map(p)
        area = factors(p).area
        theta, h = 0.63, 1e-3
        deriv = (am.phi_at(theta - 2 * h) - 8 * am.phi_at(theta - h)
                 + 8 * am.phi_at(theta + h) - am.phi_at(theta + 2 * h)) / (12 * h)
        assert deriv == pytest.approx(p.radius(theta) ** 2 * math.pi / area, rel=1e-9)


class TestPerturbationExpansion:
    # R = 1 + eps*P has G0 = 1 + 2 sum n^2 |p_n|^2 eps^2 + O(eps^3) and
    # G1 = 1 + 8 sum |p_n|^2 eps^2 + O(eps^3)
    def test_single_cos_harmonic(self):
        f = factors(PerturbationProfile({1: 0.5}).to_radius_profile(0.01))
        assert (f.g0 - 1) / 0.01**2 == pytest.approx(0.5, rel=1e-3)   # 2 * 1^2 * |1/2|^2
        assert (f.g1 - 1) / 0.01**2 == pytest.approx(2.0, rel=1e-3)   # 8 * |1/2|^2

    def test_quadratic_slope_matches_exact_factors(self):
        # fit the eps^2 slope of the exact factors for P = cos(3 theta)
        prof = PerturbationProfile({3: 0.5})
        g0q, g1q = 2.0 * prof.sum_n2_sq, 8.0 * prof.sum_sq
        slopes = []
        for eps in (0.01, 0.005):
            f = factors(prof.to_radius_profile(eps))
            slopes.append(((f.g0 - 1) / eps**2, (f.g1 - 1) / eps**2))
        # O(eps) defect in the fitted slope must shrink with eps
        assert slopes[1][0] == pytest.approx(g0q, rel=1e-3)
        assert slopes[1][1] == pytest.approx(g1q, rel=1e-3)
        assert abs(slopes[1][0] - g0q) <= abs(slopes[0][0] - g0q) + 1e-12
