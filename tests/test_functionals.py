import math

import pytest

from magspec.disk import disk_eigenvalues
from magspec.functionals import (BoundVerdict, PhiFamily, ground_state_sandwich,
                                 majorization_check, phi_sum_values,
                                 verify_bounds)
from magspec.geometry import RadiusProfile
from magspec.kummer import bessel_j_zero
from magspec.solver import SolverConfig

FLOWER = RadiusProfile(1.0, ((5, 0.2, 0.0),))
CFG = SolverConfig(n_radial=32, n_angular=64, n_eigs=5)


class TestPhiFamily:
    def test_validation(self):
        with pytest.raises(ValueError):
            PhiFamily("power", 1.5)
        with pytest.raises(ValueError):
            PhiFamily("negpower", 1.0)
        with pytest.raises(ValueError):
            PhiFamily("negexp", -1.0)
        for tag, param in (("negexp", math.inf), ("negpower", -math.inf),
                           ("negexp", math.nan)):
            with pytest.raises(ValueError, match="finite"):
                PhiFamily(tag, param)
        with pytest.raises(ValueError):
            PhiFamily("identity", 2.0)
        with pytest.raises(ValueError):
            PhiFamily("cosh")

    def test_all_families(self):
        fams = PhiFamily.all_families()
        assert [f.tag for f in fams] == ["identity", "power", "log",
                                         "negpower", "negexp"]
        assert [f.minimal_for_disk for f in fams] == [False, False, False,
                                                      True, True]

    def test_values(self):
        assert PhiFamily("identity").value(3.0) == 3.0
        assert PhiFamily("power", 0.5).value(4.0) == 2.0
        assert PhiFamily("log").value(math.e) == pytest.approx(1.0)
        assert PhiFamily("negpower", -1.0).value(4.0) == 0.25
        assert PhiFamily("negexp", 2.0).value(1.0) == pytest.approx(math.exp(-2))


class TestPhiSum:
    def test_identity_on_disk_ground_state(self):
        spec = disk_eigenvalues(0.0, 1)
        got = phi_sum_values(spec.normalized, PhiFamily("identity"), 1)
        assert got == pytest.approx(bessel_j_zero(0, 1) ** 2 * math.pi, rel=1e-12)

    def test_negexp_bounded(self):
        spec = disk_eigenvalues(5.0, 4)
        val = phi_sum_values(spec.normalized, PhiFamily("negexp", 1.0), 4)
        assert 0.0 < val < 4.0

    def test_power_half_zero_field(self):
        # oracle: Bessel zeros, with the doubled m = +-1 level
        spec = disk_eigenvalues(0.0, 3)
        expect = bessel_j_zero(0, 1) + 2 * bessel_j_zero(1, 1)  # sqrt(j^2) = j
        got = phi_sum_values(spec.normalized, PhiFamily("power", 0.5), 3)
        got /= math.sqrt(math.pi)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_heat_trace_decreasing_in_t(self):
        spec = disk_eigenvalues(5.0, 5)
        sums = [phi_sum_values(spec.normalized, PhiFamily("negexp", t), 5)
                for t in (0.1, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(sums, sums[1:]))

    def test_needs_enough_entries(self):
        spec = disk_eigenvalues(0.0, 2)
        with pytest.raises(ValueError):
            phi_sum_values(spec.normalized, PhiFamily("identity"), 3)


class TestVerdicts:
    def test_disk_margins_vanish(self):
        verdicts = verify_bounds(RadiusProfile(1.0), 5.0, "dirichlet", (1, 3),
                                 None, CFG)
        for v in verdicts:
            assert v.holds
            assert abs(v.margin) <= 2 * v.error_bar + 1e-12

    def test_flower_beta5_all_families_hold(self):
        verdicts = verify_bounds(FLOWER, 5.0, "dirichlet", (1, 3, 5), None, CFG)
        assert len(verdicts) == 15
        assert all(v.holds for v in verdicts)
        ident = [v for v in verdicts if v.functional == "identity" and v.n == 5][0]
        assert ident.margin > 0

    def test_zero_field_bounds(self):
        verdicts = verify_bounds(FLOWER, 0.0, "dirichlet", 3, None, CFG)
        assert all(v.holds for v in verdicts)

    def test_neumann_requires_flux(self):
        with pytest.raises(ValueError):
            verify_bounds(FLOWER, 0.0, "neumann", 1, None, CFG)

    def test_neumann_bounds_hold(self):
        verdicts = verify_bounds(FLOWER, 5.0, "neumann", (1, 3), None, CFG)
        assert all(v.holds for v in verdicts)
        assert all(v.bc == "neumann" for v in verdicts)

    def test_sandwich(self):
        s = ground_state_sandwich(FLOWER, 0.0, CFG)
        assert s["lower_holds"] and s["upper_holds"]
        assert 1.0 - s["error_bar"] <= s["ratio"] <= s["g"] + s["error_bar"]

    def test_verdict_serialization(self):
        v = BoundVerdict("identity", 1, 2.0, 3.0, 1.0, 0.1, True, "dirichlet", 5.0)
        d = v.to_dict()
        assert d["functional"] == "identity" and d["holds"] is True


class TestMajorization:
    def test_identical_lists(self):
        assert majorization_check([1.0, 2.0], [1.0, 2.0], g=1.0)

    def test_pointwise_larger_fails(self):
        assert not majorization_check([2.0, 3.0], [1.0, 2.0], g=1.0)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            majorization_check([2.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            majorization_check([1.0, 2.0], [2.0, 1.0])

    def test_pipeline_ellipse(self):
        from magspec.functionals import domain_and_disk_spectra
        from magspec.geometry import factors
        ellipse = RadiusProfile(1.0, ((2, 0.15, 0.0),))
        dom, disk = domain_and_disk_spectra(ellipse, 5.0, "dirichlet", 8,
                                            SolverConfig(n_radial=32, n_angular=64,
                                                         n_eigs=8))
        g = factors(ellipse).g
        slack = sum(b * dom.area for b in dom.error_bars) / g
        assert majorization_check(list(dom.normalized), list(disk.normalized),
                                  g=g, slack=slack)

    def test_majorization_implies_phi_ordering(self):
        # internal consistency: when the partial-sum condition passes, every
        # concave increasing family is ordered the same way
        dom = [3.0, 5.0, 9.0]
        disk = [4.0, 6.0, 9.5]
        assert majorization_check(dom, disk, g=1.0)
        for phi in PhiFamily.all_families():
            lhs = phi_sum_values(dom, phi, 3)
            rhs = phi_sum_values(disk, phi, 3)
            if phi.minimal_for_disk:
                assert lhs >= rhs - 1e-12
            else:
                assert lhs <= rhs + 1e-12


class TestVerdictStability:
    def test_refinement_never_flips_holds(self):
        # doubling the solver resolution must not turn a passing verdict
        # into a failing one (error bars shrink with the margins)
        coarse = SolverConfig(n_radial=16, n_angular=32, n_eigs=3)
        fine = SolverConfig(n_radial=32, n_angular=64, n_eigs=3)
        for cfg in (coarse, fine):
            verdicts = verify_bounds(FLOWER, 5.0, "dirichlet", (1, 3), None, cfg)
            assert all(v.holds for v in verdicts)
