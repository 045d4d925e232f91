"""Correctness checks made apart from the program.

Each check takes an operation's output and returns a list of problems
(empty when the output is right).  The disk checks recompute what they
need with mpmath and scipy.special instead of magspec's own Kummer and
Bessel code; the verdict and identity checks test the inequalities and
identities the paper states, against the corpus's frozen reference
factors.
"""

from __future__ import annotations

import math

import mpmath
from scipy.special import jn_zeros

DIGITS = 40            # working precision of the mpmath checks (>= 30 digits)
ROOT_REL_TOL = 1e-12   # disk eigenvalue against the mpmath root
STURM_MARGIN = 1e-9    # count modes just above the n-th eigenvalue


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _internal_m(mode, beta: float) -> int:
    # the spectrum at -beta is the +beta one with m relabelled as -m
    return mode.m if beta >= 0 else -mode.m


def _kummer_a(m_int: int, b0: float, lam) -> mpmath.mpf:
    """First Kummer parameter of mode m at lambda: (1+|m|-m-lambda*pi/|beta|)/2."""
    return (1 + abs(m_int) - m_int - mpmath.mpf(lam) * mpmath.pi / b0) / 2


def _kummer_of_lambda(m_int: int, b0: float):
    """lambda -> M(a(lambda), |m|+1, |beta|/2pi); its roots are the mode's eigenvalues."""
    b = abs(m_int) + 1
    z = mpmath.mpf(b0) / (2 * mpmath.pi)
    return lambda lam: mpmath.hyp1f1(_kummer_a(m_int, b0, lam), b, z)


def _labels_consistent(spectrum) -> list:
    problems = []
    by_m = {}
    for mode in spectrum.modes:
        by_m.setdefault(mode.m, []).append(mode.k)
    for m, ks in by_m.items():
        if sorted(ks) != list(range(1, len(ks) + 1)):
            problems.append(f"mode m={m} has radial indices {sorted(ks)}")
    return problems


def _bessel_reference(limit: float) -> list:
    """(j_{|m|,k}^2, m, k) below limit, each |m| >= 1 for both signs, sorted."""
    entries = []
    m = 0
    while True:
        count = 1
        zeros = jn_zeros(m, count)
        if zeros[0] ** 2 > limit:
            break
        while zeros[-1] ** 2 <= limit:
            count *= 2
            zeros = jn_zeros(m, count)
        for k, j in enumerate(zeros, start=1):
            if j * j <= limit:
                entries.append((j * j, -m, k))
                if m:
                    entries.append((j * j, m, k))
        m += 1
    entries.sort()
    return entries


def _check_zero_field(spectrum, n: int) -> list:
    limit = spectrum.eigenvalues[-1] * (1 + STURM_MARGIN)
    reference = _bessel_reference(limit)
    if len(reference) < n:
        return [f"scipy finds {len(reference)} Bessel levels below {limit}, need {n}"]
    problems = []
    for got, mode, (lam, m, k) in zip(spectrum.eigenvalues, spectrum.modes, reference):
        if _rel(got, lam) > ROOT_REL_TOL:
            problems.append(f"beta=0 eigenvalue {got!r} != jn_zeros({abs(m)},{k})^2 = {lam!r}")
        elif (abs(mode.m), mode.k) != (abs(m), k):
            problems.append(f"beta=0 level {got!r} labelled ({mode.m},{mode.k}), "
                            f"expected (+-{abs(m)},{k})")
    return problems


def _sturm_count(m_int: int, b0: float, lam: float) -> int:
    """Eigenvalues of angular mode m below lam, by counting radial zeros.

    The radial solution at lam is positive times M(a(lam), |m|+1, |beta| s^2/2pi);
    by Sturm oscillation its zeros in 0 < s < 1 number the eigenvalues
    of the mode below lam.  The potential (|beta| s/2pi - m/s)^2 is
    non-negative, so by Sturm comparison with the order-0 Bessel equation
    consecutive zeros lie at least ~2.4/sqrt(lam) apart; a grid of step
    1/(4 sqrt(lam)) therefore sees each zero as one sign change.
    """
    b = abs(m_int) + 1
    a = _kummer_a(m_int, b0, lam)
    z = mpmath.mpf(b0) / (2 * mpmath.pi)
    steps = max(8, math.ceil(4.0 * math.sqrt(lam)))
    changes, previous = 0, mpmath.mpf(1)  # M(a, b, 0) = 1
    for i in range(1, steps + 1):
        value = mpmath.hyp1f1(a, b, z * mpmath.mpf(i) ** 2 / steps**2)
        if value == 0 or (value > 0) != (previous > 0):
            changes += 1
        if value != 0:
            previous = value
    return changes


def _check_magnetic(spectrum, beta: float) -> list:
    problems = []
    b0 = abs(beta)
    for mode, lam in zip(spectrum.modes, spectrum.eigenvalues):
        kummer = _kummer_of_lambda(_internal_m(mode, beta), b0)
        lo, hi = lam * (1 - 1e-9), lam * (1 + 1e-9)
        if kummer(lo) * kummer(hi) >= 0:
            problems.append(f"no sign change of M around ({mode.m},{mode.k}) {lam!r}")
            continue
        root = mpmath.findroot(kummer, (mpmath.mpf(lo), mpmath.mpf(hi)),
                               solver="anderson")
        if _rel(lam, float(root)) > ROOT_REL_TOL:
            problems.append(f"({mode.m},{mode.k}) eigenvalue {lam!r} vs mpmath root "
                            f"{mpmath.nstr(root, 20)}")
        step = root * mpmath.mpf(ROOT_REL_TOL)
        if kummer(root - step) * kummer(root + step) >= 0:
            problems.append(f"M does not change sign across the mpmath root "
                            f"of ({mode.m},{mode.k})")

    # completeness: per-mode Sturm counts just above the n-th eigenvalue
    ceiling = spectrum.eigenvalues[-1] * (1 + STURM_MARGIN)
    returned = {}
    for mode in spectrum.modes:
        m_int = _internal_m(mode, beta)
        returned[m_int] = returned.get(m_int, 0) + 1
    # modes with |m| >= |beta|/2pi + sqrt(ceiling) keep their whole potential
    # above the ceiling, so none of their eigenvalues can lie below it
    m_max = math.ceil(b0 / (2 * math.pi) + math.sqrt(ceiling))
    for m_int in range(-m_max, m_max + 1):
        counted = _sturm_count(m_int, b0, ceiling)
        if counted != returned.get(m_int, 0):
            problems.append(f"mode m={m_int}: {counted} eigenvalues below "
                            f"{ceiling!r} by Sturm count, {returned.get(m_int, 0)} returned")
    return problems


def check_disk_spectrum(spectrum, beta: float, n: int) -> list:
    """The n smallest disk eigenvalues at flux beta, checked independently."""
    if len(spectrum.eigenvalues) != n or len(spectrum.modes) != n:
        return [f"asked for {n} eigenvalues, got {len(spectrum.eigenvalues)}"]
    problems = _labels_consistent(spectrum)
    with mpmath.workdps(DIGITS):
        if beta == 0.0:
            problems += _check_zero_field(spectrum, n)
        else:
            problems += _check_magnetic(spectrum, beta)
    return problems


def check_flux_reversal(plus, minus) -> list:
    """Spectrum at -beta equals the one at +beta with m relabelled as -m."""
    problems = []
    for p, q in zip(plus.modes, minus.modes):
        if _rel(q.eigenvalue, p.eigenvalue) > ROOT_REL_TOL or (q.m, q.k) != (-p.m, p.k):
            problems.append(f"-beta level ({q.m},{q.k}) {q.eigenvalue!r} does not "
                            f"mirror +beta level ({p.m},{p.k}) {p.eigenvalue!r}")
    return problems


def check_verdicts(verdicts, expected: int) -> list:
    """Every bound verdict holds: margin no worse than its error bar."""
    if len(verdicts) != expected:
        return [f"expected {expected} verdicts, got {len(verdicts)}"]
    return [f"{v.bc} {v.functional} n={v.n} fails: margin {v.margin!r} "
            f"bar {v.error_bar!r}"
            for v in verdicts if not (v.holds and v.margin >= -v.error_bar)]


def check_reference_g(g: float, entry) -> list:
    if abs(g - entry.reference.g) > 1e-9:
        return [f"{entry.name}: G {g!r} differs from frozen reference "
                f"{entry.reference.g!r}"]
    return []


def check_sandwich(sandwich, entry) -> list:
    """1 <= lambda_1 A / (lambda_1(D) pi) <= G within the error bar."""
    problems = check_reference_g(sandwich["g"], entry)
    ratio, bar, g = sandwich["ratio"], sandwich["error_bar"], sandwich["g"]
    if not 1.0 - bar <= ratio <= g + bar:
        problems.append(f"{entry.name}: sandwich ratio {ratio!r} outside "
                        f"[1, {g!r}] by more than {bar!r}")
    return problems


def check_disk_discretization(verdicts, entry) -> list:
    """On a disk the discrete sums lie above the analytic ones, within the bar."""
    problems = []
    for v in verdicts:
        if v.functional == "identity" and not 0.0 <= v.lhs - v.rhs <= v.error_bar:
            problems.append(f"{entry.name} n={v.n}: discrete sum {v.lhs!r} vs "
                            f"analytic {v.rhs!r}, bar {v.error_bar!r}")
    return problems


def check_transplant(report, entry) -> list:
    problems = []
    if not report.identity_residual <= 1e-6:
        problems.append(f"{entry.name}: identity residual {report.identity_residual!r}")
    if not abs(report.q2_avg) <= 1e-8:
        problems.append(f"{entry.name}: |Q2| = {abs(report.q2_avg)!r}")
    expected_mass = entry.reference.area / math.pi
    if _rel(report.mass, expected_mass) > 1e-9:
        problems.append(f"{entry.name}: mass {report.mass!r} != area/pi {expected_mass!r}")
    return problems


def check_slope(report) -> list:
    predicted, measured = report.predicted_slope, report.measured_slope
    if not abs(measured - predicted) <= 0.05 * abs(predicted):
        return [f"measured slope {measured!r} not within 5% of series {predicted!r}"]
    return []


def check_q_panel(q_values) -> list:
    if not abs(q_values[0]) <= 1e-8:
        return [f"q_1 = {q_values[0]!r}, expected 0"]
    return []
