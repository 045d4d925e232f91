import math

import numpy as np
import pytest

from magspec import disk
from magspec.disk import (_check_root, angular_energy_fraction, disk_eigenvalues,
                          disk_radial_profile, disk_radial_profile_deriv,
                          normalization_constant, rayleigh_energy)
from magspec.kummer import bessel_j_zero, kummer_m
from magspec.solver import SolverConfig


class TestZeroField:
    def test_ground_state_is_first_bessel_zero(self):
        spec = disk_eigenvalues(0.0, 1)
        assert spec.eigenvalues[0] == pytest.approx(
            bessel_j_zero(0, 1) ** 2, rel=1e-12)
        assert spec.eigenvalues[0] == pytest.approx(5.783185962946785, rel=1e-12)

    def test_degeneracy_of_angular_pairs(self):
        spec = disk_eigenvalues(0.0, 3)
        j0, j1 = bessel_j_zero(0, 1) ** 2, bessel_j_zero(1, 1) ** 2
        assert spec.eigenvalues == pytest.approx((j0, j1, j1), rel=1e-12)
        assert sorted(md.m for md in spec.modes) == [-1, 0, 1]

    def test_mode_labels_sorted(self):
        spec = disk_eigenvalues(0.0, 8)
        assert all(spec.eigenvalues[i] <= spec.eigenvalues[i + 1]
                   for i in range(7))
        # ties broken by (eigenvalue, m, k)
        for a, b in zip(spec.modes, spec.modes[1:]):
            assert (a.eigenvalue, a.m, a.k) <= (b.eigenvalue, b.m, b.k)


    def test_zero_field_takes_few_bessel_zeros(self):
        bessel_j_zero.cache_clear()
        disk_eigenvalues.__wrapped__(0.0, 40)  # bypass the cache
        assert bessel_j_zero.cache_info().currsize <= 80


class TestMagneticSpectrum:
    def test_ground_above_landau_level(self):
        spec = disk_eigenvalues(5.0, 1)
        assert spec.eigenvalues[0] > 5.0 / math.pi
        mode = spec.modes[0]
        assert mode.m == 0 and mode.k == 1

    def test_boundary_residual(self):
        spec = disk_eigenvalues(5.0, 6)
        for md in spec.modes:
            assert abs(kummer_m(md.a, md.b, md.z)) <= 1e-10

    def test_kummer_parameter_definition(self):
        spec = disk_eigenvalues(5.0, 4)
        for md in spec.modes:
            a_expected = 0.5 * (1 + abs(md.m) - md.m - md.eigenvalue * math.pi / 5.0)
            assert md.a == pytest.approx(a_expected, rel=1e-12)
            assert md.z == pytest.approx(5.0 / (2 * math.pi), rel=1e-15)

    def test_flux_sign_symmetry(self):
        pos = disk_eigenvalues(5.0, 8)
        neg = disk_eigenvalues(-5.0, 8)
        assert max(abs(a - b) for a, b in
                   zip(pos.eigenvalues, neg.eigenvalues)) < 1e-9
        assert [md.m for md in neg.modes] == [-md.m for md in pos.modes]

    def test_small_flux_continuity(self):
        spec = disk_eigenvalues(1e-3, 1)
        assert abs(spec.eigenvalues[0] - bessel_j_zero(0, 1) ** 2) < 1e-2

    def test_ordering_and_positivity(self):
        spec = disk_eigenvalues(20.0, 8)
        vals = spec.eigenvalues
        assert all(v > 0 for v in vals)
        assert all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))

    def test_ground_state_radial_across_fluxes(self):
        for beta in (0.5, 2.0, 5.0, 20.0):
            assert disk_eigenvalues(beta, 1).modes[0].m == 0

    def test_strong_flux_lowest_landau_level(self):
        # at beta = 150 a correct root leaves |M| ~ 1e-7, above any fixed
        # absolute tolerance; the relative root test accepts it
        spec = disk_eigenvalues(150.0, 4)
        assert [(md.m, md.k) for md in spec.modes] == [(0, 1), (1, 1), (2, 1), (3, 1)]
        for md in spec.modes:
            assert md.eigenvalue * math.pi / 150.0 == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_non_finite_flux_is_rejected(beta):
    with pytest.raises(ValueError, match="beta must be finite"):
        disk_eigenvalues(beta, 3)
    with pytest.raises(ValueError, match="beta must be finite"):
        SolverConfig(beta=beta)


class TestRootCheck:
    @pytest.mark.parametrize("beta, n", [(5.0, 6), (150.0, 4)])
    def test_true_roots_pass_and_shifted_roots_fail(self, beta, n):
        z = beta / (2 * math.pi)
        for md in disk_eigenvalues(beta, n).modes:
            x = md.eigenvalue * math.pi
            _check_root(md.internal_m, md.k, x, beta, z)
            with pytest.raises(RuntimeError, match="root residual"):
                _check_root(md.internal_m, md.k, x * (1 + 1e-9), beta, z)


class TestLandauBrackets:
    # 1e-20: Landau intervals far below the float spacing of x
    @pytest.mark.parametrize("beta, n", [(0.5, 8), (5.0, 40), (1e-6, 5), (1e-20, 5)])
    def test_kummer_call_budget(self, monkeypatch, beta, n):
        calls = []
        monkeypatch.setattr(disk, "kummer_m",
                            lambda *args: calls.append(args) or kummer_m(*args))
        spec = disk_eigenvalues.__wrapped__(beta, n)  # bypass the cache
        assert len(spec.modes) == n
        assert len(calls) <= 100 * n

    @pytest.mark.parametrize("beta", [0.5, 5.0, 37.0, 150.0, 300.0])
    def test_roots_within_certified_brackets(self, beta):
        for md in disk_eigenvalues(beta, 12).modes:
            m, k, lam = md.internal_m, md.k, md.eigenvalue
            lower = bessel_j_zero(abs(m), k) ** 2 - m * beta / math.pi
            assert lower <= lam <= lower + beta**2 / (4 * math.pi**2)
            # strictly above the Landau level below it; at beta = 300 three
            # roots lie within an ulp of x = 300 and round onto it
            landau = beta / math.pi * (2 * k - 1 + abs(m) - m)
            assert lam > landau or (beta == 300.0 and lam == landau)


def _bisect_to_adjacent_floats(g, lo, hi, sign):
    """Reference: plain bisection of [lo, hi], where g has the sign `sign`
    at lo and not at hi, to two adjacent floats."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        f_mid = g(mid)
        if f_mid == 0.0:
            return mid
        if sign * f_mid < 0:
            hi = mid
        else:
            lo = mid


class TestRootRefinement:
    @pytest.mark.parametrize("beta, n", [(1e-20, 5), (0.9, 8), (5.0, 10),
                                         (150.0, 6), (300.0, 8)])
    def test_matches_bisection_bit_for_bit(self, monkeypatch, beta, n):
        refine = disk._refine_to_adjacent_floats
        roots = []  # (refined, reference) per bracket

        def compared(g, lo, hi, f_lo, f_hi, sign):
            x = refine(g, lo, hi, f_lo, f_hi, sign)
            roots.append((x.hex(), _bisect_to_adjacent_floats(g, lo, hi, sign).hex()))
            return x

        monkeypatch.setattr(disk, "_refine_to_adjacent_floats", compared)
        spec = disk_eigenvalues.__wrapped__(beta, n)  # bypass the cache
        assert len(roots) >= n
        assert [x for x, _ in roots] == [ref for _, ref in roots]
        refined = {float.fromhex(x) / math.pi for x, _ in roots}
        assert set(spec.eigenvalues) <= refined

    @pytest.mark.parametrize("f_lo", [0.0, 1e-300])
    def test_contradicted_sturm_sign_takes_midpoints(self, f_lo):
        # lo on the previous root, where the computed g is 0 or of the wrong
        # sign: every step is the midpoint, as in plain bisection
        def g(x):
            points.append(x)
            return (x - 1.0) * (x - math.sqrt(2.0))

        points = []
        reference = _bisect_to_adjacent_floats(g, 1.0, 3.0, -1.0)
        bisection_points = points[:]
        points.clear()
        f_hi = 2.0 * (3.0 - math.sqrt(2.0))  # g(3)
        x = disk._refine_to_adjacent_floats(g, 1.0, 3.0, f_lo, f_hi, -1.0)
        assert x.hex() == reference.hex()
        assert points == bisection_points

    @pytest.mark.parametrize("beta, n", [(0.5, 8), (5.0, 40), (37.0, 25), (300.0, 6)])
    def test_kummer_calls_per_eigenvalue(self, kummer_calls, beta, n):
        spec = disk_eigenvalues.__wrapped__(beta, n)  # bypass the cache
        assert len(spec.modes) == n
        assert kummer_calls["kummer_m"] <= 30 * n


class TestRadialProfile:
    def test_dirichlet_boundary_value(self):
        mode = disk_eigenvalues(5.0, 1).modes[0]
        assert abs(disk_radial_profile(mode, [1.0])[0]) < 1e-12

    def test_center_value_radial_mode(self):
        mode = disk_eigenvalues(5.0, 1).modes[0]
        assert disk_radial_profile(mode, [1e-9])[0] == pytest.approx(1.0, abs=1e-8)
        assert disk_radial_profile(mode, [0.0])[0] == pytest.approx(1.0, abs=1e-15)

    def test_center_vanishes_for_m_nonzero(self):
        spec = disk_eigenvalues(5.0, 3)
        mode = next(md for md in spec.modes if abs(md.m) == 1)
        assert disk_radial_profile(mode, [0.0])[0] == 0.0

    def test_derivative_matches_finite_difference(self):
        for beta in (0.0, 5.0):
            spec = disk_eigenvalues(beta, 3)
            for md in spec.modes[:3]:
                s, h = 0.6, 1e-6
                fd = (disk_radial_profile(md, [s + h])[0]
                      - disk_radial_profile(md, [s - h])[0]) / (2 * h)
                assert disk_radial_profile_deriv(md, [s])[0] == pytest.approx(
                    fd, rel=1e-8, abs=1e-10)

    def test_normalization(self):
        mode = disk_eigenvalues(5.0, 1).modes[0]
        c = normalization_constant(mode)
        s = np.linspace(1e-4, 1, 2001)
        f = c * disk_radial_profile(mode, s)
        assert 2 * math.pi * np.trapezoid(f**2 * s, s) == pytest.approx(1.0, rel=1e-5)


class TestAngularEnergy:
    def test_zero_for_field_free_radial_mode(self):
        mode = disk_eigenvalues(0.0, 1).modes[0]
        assert angular_energy_fraction(mode) == 0.0

    def test_positive_for_magnetic_ground_state(self):
        mode = disk_eigenvalues(5.0, 1).modes[0]
        alpha = angular_energy_fraction(mode)
        assert 0.0 < alpha < 1.0

    def test_rayleigh_identity(self):
        # the energy of a normalized eigenfunction equals its eigenvalue
        for beta in (5.0, 20.0):
            spec = disk_eigenvalues(beta, 3)
            for md in spec.modes:
                assert rayleigh_energy(md) == pytest.approx(md.eigenvalue, rel=1e-6)

    @pytest.mark.parametrize("energy", [angular_energy_fraction, rayleigh_energy])
    def test_one_m_and_one_m_prime_per_node(self, kummer_calls, energy):
        mode = disk_eigenvalues(5.0, 2).modes[1]
        kummer_calls.update(kummer_m=0, kummer_m_dz=0)  # not the root search
        energy(mode)
        assert kummer_calls["kummer_m"] == kummer_calls["kummer_m_dz"] > 0

    def test_rayleigh_identity_zero_field(self):
        spec = disk_eigenvalues(0.0, 3)
        for md in spec.modes:
            assert rayleigh_energy(md) == pytest.approx(md.eigenvalue, rel=1e-6)
