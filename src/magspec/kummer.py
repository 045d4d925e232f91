"""Confluent hypergeometric (Kummer) series, plus the zeros of Bessel J.

The Kummer function and its derivatives are evaluated from the defining
power series, summed in fixed 45-digit decimal arithmetic.  The extra
working precision matters: for strongly negative first parameters the
series alternates with terms up to ~1e11 times the final value, and
float64 accumulation (compensated or not) cannot deliver the 1e-9
residual accuracy the eigenvalue solvers rely on.  Terms are generated by
exact recurrences, so the only rounding is the final conversion to float.

The validated argument range is 0 <= z <= 50, which covers every flux
value the disk solvers produce (z = beta/2pi or beta*r^2/2pi); larger z
raises rather than silently losing accuracy to the growing terms.

The positive zeros of Bessel J, which bracket every disk root, come from
scipy.special in float64.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from functools import lru_cache

__all__ = [
    "KummerConvergenceError",
    "kummer_m",
    "kummer_m_dz",
    "kummer_m_d2z",
    "kummer_m_da",
    "ode_residual",
    "bessel_j_zero",
    "Z_MAX",
]

_PRECISION = 45
_REL_TOL = Decimal("1e-16")
_CONSECUTIVE_SMALL = 3
_MAX_TERMS = 10**6
Z_MAX = 50.0


class KummerConvergenceError(RuntimeError):
    """Series failed to satisfy the truncation rule within the term budget."""

    def __init__(self, a: float, b: float, z: float):
        super().__init__(f"Kummer series did not converge for a={a}, b={b}, z={z}")
        self.params = (a, b, z)


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0 and float(x).is_integer()


def _validate(a: float, b: float, z: float) -> tuple[float, float, float]:
    a, b, z = float(a), float(b), float(z)  # accept numpy scalars
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(z)):
        raise ValueError(f"non-finite Kummer arguments a={a}, b={b}, z={z}")
    if _is_nonpositive_integer(b):
        raise ValueError(f"Kummer parameter b={b} is a non-positive integer")
    if z < 0:
        raise ValueError(f"Kummer argument z={z} is negative")
    if z > Z_MAX:
        raise ValueError(f"Kummer argument z={z} outside validated range [0, {Z_MAX}]")
    return a, b, z


def _m_series(a: float, b: float, z: float) -> Decimal:
    """Sum the series for M(a,b,z): sum_k (a)_k z^k / ((b)_k k!).

    Stops once |term| <= 1e-16 * |partial sum| for three consecutive terms
    (a single small term can be a transient in alternating regimes).  For
    a a non-positive integer the recurrence hits an exact zero factor and
    the same rule terminates the polynomial automatically.
    """
    with localcontext() as ctx:
        ctx.prec = _PRECISION
        da, db, dz = Decimal(a), Decimal(b), Decimal(z)
        term = Decimal(1)
        total = Decimal(1)
        small = 0
        for k in range(_MAX_TERMS):
            term = term * (da + k) * dz / ((db + k) * (k + 1))
            total += term
            if abs(term) <= _REL_TOL * abs(total):
                small += 1
                if small >= _CONSECUTIVE_SMALL:
                    return total
            else:
                small = 0
        raise KummerConvergenceError(a, b, z)


def kummer_m(a: float, b: float, z: float) -> float:
    """Kummer function M(a, b, z), the regular solution with M(a, b, 0) = 1."""
    a, b, z = _validate(a, b, z)
    return float(_m_series(a, b, z))


def kummer_m_dz(a: float, b: float, z: float) -> float:
    """dM/dz via the contiguous relation M'(a,b,z) = (a/b) M(a+1, b+1, z)."""
    a, b, z = _validate(a, b, z)
    if a == 0.0:
        return 0.0
    return (a / b) * float(_m_series(a + 1.0, b + 1.0, z))


def kummer_m_d2z(a: float, b: float, z: float) -> float:
    """Second z-derivative, applying the contiguous relation twice."""
    a, b, z = _validate(a, b, z)
    if a == 0.0 or a == -1.0:
        # M is constant or linear in z; curvature vanishes.
        return 0.0
    return (a / b) * ((a + 1.0) / (b + 1.0)) * float(_m_series(a + 2.0, b + 2.0, z))


def ode_residual(a: float, b: float, z: float) -> float:
    """Residual z*M'' + (b-z)*M' - a*M of the defining differential equation."""
    m = kummer_m(a, b, z)
    mp = kummer_m_dz(a, b, z)
    mpp = kummer_m_d2z(a, b, z)
    return z * mpp + (b - z) * mp - a * m


def kummer_m_da(a: float, b: float, z: float) -> float:
    """Partial derivative dM/da by term-wise differentiation of the series.

    Carries the Pochhammer product P_k = (a)_k and its a-derivative D_k
    through the exact recurrences

        P_{k+1} = P_k (a+k),      D_{k+1} = D_k (a+k) + P_k,

    which stay finite for every real a, including non-positive integers
    where the division form (a)_k * sum_j 1/(a+j) degenerates.
    """
    a, b, z = _validate(a, b, z)
    with localcontext() as ctx:
        ctx.prec = _PRECISION
        da, db, dz = Decimal(a), Decimal(b), Decimal(z)
        poch = Decimal(1)      # (a)_k
        dpoch = Decimal(0)     # d/da (a)_k
        weight = Decimal(1)    # z^k / ((b)_k k!)
        total = Decimal(0)
        small = 0
        for k in range(_MAX_TERMS):
            dpoch, poch = dpoch * (da + k) + poch, poch * (da + k)
            weight = weight * dz / ((db + k) * (k + 1))
            term = dpoch * weight
            total += term
            if abs(term) <= _REL_TOL * abs(total):
                small += 1
                if small >= _CONSECUTIVE_SMALL:
                    return float(total)
            else:
                small = 0
        raise KummerConvergenceError(a, b, z)


# ---------------------------------------------------------------------------
# Positive zeros of Bessel functions of the first kind.  These need no
# extended precision: jn_zeros matches 40-digit references to ~2e-16
# relative for orders <= 30 and k <= 15.  scipy.special is imported on first
# use: it adds ~70 ms to every import of the package, and only the disk
# spectra need it.


@lru_cache(maxsize=None)
def bessel_j_zero(order: int, k: int) -> float:
    """k-th positive zero of J_order, k >= 1."""
    if k < 1:
        raise ValueError(f"zero index k must be >= 1, got {k}")
    if order < 0:
        raise ValueError(f"Bessel order must be >= 0, got {order}")
    from scipy.special import jn_zeros
    return float(jn_zeros(order, k)[-1])
