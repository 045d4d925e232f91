import math
import os
import subprocess
import sys

import numpy as np
import pytest

from magspec.kummer import (bessel_j_zero, kummer_m, kummer_m_da, kummer_m_dz,
                            ode_residual)


class TestKummerM:
    def test_value_at_zero(self):
        assert kummer_m(3.7, 2, 0.0) == 1.0

    def test_terminating_polynomial(self):
        # M(-1, 1, z) = 1 - z exactly
        assert kummer_m(-1, 1, 2.0) == pytest.approx(-1.0, abs=1e-15)
        assert kummer_m(-1, 1, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_exponential_case(self):
        # (1)_k / (1)_k = 1 turns the series into exp
        assert kummer_m(1, 1, 1.0) == pytest.approx(math.e, rel=1e-15)
        assert kummer_m(1, 1, 3.0) == pytest.approx(math.exp(3.0), rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kummer_m(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            kummer_m(1.0, -3.0, 1.0)
        with pytest.raises(ValueError):
            kummer_m(1.0, 2.0, -0.5)
        with pytest.raises(ValueError):
            kummer_m(1.0, 2.0, 51.0)  # outside the validated envelope
        with pytest.raises(ValueError):
            kummer_m(float("nan"), 2.0, 1.0)
        # non-integer negative b is fine
        assert math.isfinite(kummer_m(1.0, -0.5, 1.0))


class TestDerivatives:
    def test_dz_examples(self):
        assert kummer_m_dz(0, 1, 5.0) == 0.0           # M(0,b,z) = 1
        assert kummer_m_dz(1, 1, 1.0) == pytest.approx(math.e, rel=1e-15)
        assert kummer_m_dz(-1, 1, 3.0) == pytest.approx(-1.0, abs=1e-15)

    def test_dz_satisfies_ode(self):
        for a, b, z in [(-3.3, 2.0, 4.0), (1.7, 1.0, 0.3), (-12.0, 5.0, 17.0)]:
            m = kummer_m(a, b, z)
            assert abs(ode_residual(a, b, z)) <= 1e-10 * (1 + abs(m))

    def test_da_at_z_zero(self):
        assert kummer_m_da(2.5, 3, 0.0) == 0.0

    def test_da_at_a_zero(self):
        # dM/da(0, 1, 1) = sum_{k>=1} 1/(k * k!), by direct partial sums
        oracle = sum(1.0 / (k * math.factorial(k)) for k in range(1, 30))
        assert kummer_m_da(0, 1, 1.0) == pytest.approx(oracle, rel=1e-14)
        assert kummer_m_da(0, 1, 1.0) == pytest.approx(1.317902151454404, rel=1e-12)

    def test_da_negative_fraction_vs_finite_difference(self):
        a, b, z = -0.8, 1.0, 1.2
        h = 1e-6 * max(1.0, abs(a))
        fd = (kummer_m(a + h, b, z) - kummer_m(a - h, b, z)) / (2 * h)
        val = kummer_m_da(a, b, z)
        assert val == pytest.approx(fd, rel=1e-6)
        # frozen value from the term-wise series (cross-checked by the FD above)
        assert val == pytest.approx(0.9326394704833222, rel=1e-12)

    def test_da_nonpositive_integer_limit(self):
        # exact limit at a = -2: finite-difference oracle with a tiny step
        a, b, z = -2.0, 1.0, 0.7
        h = 1e-5
        fd = (kummer_m(a + h, b, z) - kummer_m(a - h, b, z)) / (2 * h)
        assert kummer_m_da(a, b, z) == pytest.approx(fd, rel=1e-7)

    def test_da_finite_difference_panel(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            a = rng.uniform(-10, 4)
            if abs(a - round(a)) < 1e-2:
                continue
            b = float(rng.integers(1, 9))
            z = rng.uniform(0.01, 20)
            h = 1e-6 * max(1.0, abs(a))
            fd = (kummer_m(a + h, b, z) - kummer_m(a - h, b, z)) / (2 * h)
            assert kummer_m_da(a, b, z) == pytest.approx(fd, rel=1e-6, abs=1e-12)


class TestIdentityPanels:
    def test_ode_residual_panel(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            a = rng.uniform(-20, 5)
            b = float(rng.integers(1, 13))
            z = rng.uniform(1e-6, 30)
            m = kummer_m(a, b, z)
            mp = kummer_m_dz(a, b, z)
            assert abs(ode_residual(a, b, z)) <= 1e-9 * (1 + abs(m) + abs(mp))

    def test_contiguous_first_parameter(self):
        # a * M(a+1, 2, z) = M'(a, 1, z)
        rng = np.random.default_rng(11)
        for _ in range(300):
            a = rng.uniform(-20, -0.1)
            z = rng.uniform(1e-6, 30)
            lhs = a * kummer_m(a + 1, 2, z)
            rhs = kummer_m_dz(a, 1, z)
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs) + abs(rhs))

    def test_contiguous_second_parameter(self):
        # (a - 1) * M(a, 2, z) = M'(a, 1, z) - M(a, 1, z)
        rng = np.random.default_rng(12)
        for _ in range(300):
            a = rng.uniform(-20, -0.1)
            z = rng.uniform(1e-6, 30)
            lhs = (a - 1) * kummer_m(a, 2, z)
            rhs = kummer_m_dz(a, 1, z) - kummer_m(a, 1, z)
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs) + abs(rhs))

    @pytest.mark.parametrize("a,zeta", [(-5.0, 5.0), (2.5, 3.0), (4.9, 1.0)])
    def test_large_b_limits(self, a, zeta):
        # M(a, n+b, zeta) -> 1 and M(n+a, n+b, zeta) -> exp(zeta), shrinking
        # in n.  The approach is O(1/n) with first-order constants a*zeta and
        # (a-b)*zeta*e^zeta, so the tolerance carries those scales.
        errs_one = [abs(kummer_m(a, n + 1.0, zeta) - 1.0) for n in (50, 100, 200)]
        errs_exp = [abs(kummer_m(n + a, n + 1.0, zeta) - math.exp(zeta))
                    for n in (50, 100, 200)]
        assert errs_one[0] >= errs_one[1] >= errs_one[2]
        assert errs_exp[0] >= errs_exp[1] >= errs_exp[2]
        assert errs_one[2] < 1e-2 * max(1.0, abs(a * zeta))
        assert errs_exp[2] < 1e-2 * math.exp(zeta) * max(1.0, abs((a - 1) * zeta))


class TestBessel:
    def test_known_zeros(self):
        assert bessel_j_zero(0, 1) == pytest.approx(2.404825557695773, abs=1e-10)
        assert bessel_j_zero(1, 1) == pytest.approx(3.831705970207512, abs=1e-10)
        assert bessel_j_zero(0, 2) == pytest.approx(5.520078110286311, abs=1e-10)

    def test_high_order_zero(self):
        # 40-digit reference (mpmath besseljzero(30, 15))
        assert bessel_j_zero(30, 15) == pytest.approx(88.31822084728884, rel=1e-14)

    def test_zeros_are_roots(self):
        from scipy.special import jv
        for order in (0, 1, 3, 5):
            for k in (1, 2, 3):
                x = bessel_j_zero(order, k)
                assert abs(jv(order, x)) < 1e-12

    def test_zero_ordering_and_spacing(self):
        for order in (0, 2, 4):
            zs = [bessel_j_zero(order, k) for k in range(1, 6)]
            gaps = np.diff(zs)
            assert np.all(gaps > 2.9)
            assert np.all(gaps < 4.5)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            bessel_j_zero(0, 0)
        with pytest.raises(ValueError):
            bessel_j_zero(-1, 1)


def test_package_import_leaves_heavy_modules_unloaded():
    # scipy.special (~70 ms) is imported on first use, scipy.optimize and
    # mpmath not at all
    import magspec
    src = os.path.dirname(os.path.dirname(os.path.abspath(magspec.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, magspec; print(sorted(m for m in sys.modules if m in "
         "('scipy.special', 'scipy.optimize', 'mpmath')))"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
