"""Scale-invariant spectral functionals and disk-comparison verdicts.

For a concave increasing Phi the partial sums sum_j Phi(lambda_j A / G)
are largest for centered disks; the spectral-zeta partial sums
sum (lambda_j A/G)^s with s < 0 and the heat-trace partial sums
sum exp(-lambda_j A t / G) are smallest.  A verdict compares the domain
side against the disk side and calls the bound satisfied whenever the
margin is no worse than the propagated discretization error bar.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Iterable, Optional, Sequence

from . import disk as disk_mod
from .geometry import RadiusProfile, factors
from .solver import SolverConfig, solve_with_error_bars
from .spectra import DIRICHLET, NEUMANN, validate_bc

__all__ = [
    "PhiFamily",
    "BoundVerdict",
    "phi_sum_values",
    "verify_bounds",
    "verdicts_to_csv",
    "propagated_error_bar",
    "ground_state_sandwich",
    "majorization_check",
    "domain_and_disk_spectra",
]

_TAGS = ("identity", "power", "log", "negpower", "negexp")


@dataclass(frozen=True)
class PhiFamily:
    """One functional family applied termwise to normalized eigenvalues.

    identity        x            (maximal for the disk)
    power(s)        x^s, 0<s<=1  (maximal)
    log             log x        (maximal; products of eigenvalues)
    negpower(s)     x^s, s<0     (minimal; zeta partial sums)
    negexp(t)       exp(-x t)    (minimal; heat-trace partial sums)
    """

    tag: str
    param: Optional[float] = None

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"unknown functional tag {self.tag!r}")
        if self.param is not None and not math.isfinite(self.param):
            raise ValueError(f"{self.tag} parameter must be finite, got {self.param}")
        if self.tag in ("identity", "log"):
            if self.param is not None:
                raise ValueError(f"{self.tag} takes no parameter")
        elif self.tag == "power":
            if not (self.param and 0 < self.param <= 1):
                raise ValueError(f"power exponent must be in (0, 1], got {self.param}")
        elif self.tag == "negpower":
            if not (self.param and self.param < 0):
                raise ValueError(f"negpower exponent must be < 0, got {self.param}")
        elif self.tag == "negexp":
            if not (self.param and self.param > 0):
                raise ValueError(f"negexp rate must be > 0, got {self.param}")

    @property
    def minimal_for_disk(self) -> bool:
        return self.tag in ("negpower", "negexp")

    @property
    def label(self) -> str:
        return self.tag if self.param is None else f"{self.tag}({self.param:g})"

    def value(self, x: float) -> float:
        if self.tag == "identity":
            return x
        if self.tag == "power":
            return x**self.param
        if self.tag == "log":
            if x <= 0:
                raise ValueError(f"log functional needs positive arguments, got {x}")
            return math.log(x)
        if self.tag == "negpower":
            if x <= 0:
                raise ValueError(f"negative-power functional needs positive arguments, got {x}")
            return x**self.param
        return math.exp(-x * self.param)

    def lipschitz(self, lo: float, hi: float) -> float:
        """Bound on |d value/dx| over [lo, hi] for error propagation."""
        if self.tag == "identity":
            return 1.0
        if self.tag == "power":
            return self.param * lo ** (self.param - 1.0)
        if self.tag == "log":
            return 1.0 / lo
        if self.tag == "negpower":
            return abs(self.param) * lo ** (self.param - 1.0)
        return self.param * math.exp(-lo * self.param)

    @classmethod
    def all_families(cls) -> tuple:
        """The default panel: identity, power(1/2), log, negpower(-1), negexp(1)."""
        return (cls("identity"), cls("power", 0.5), cls("log"),
                cls("negpower", -1.0), cls("negexp", 1.0))


@dataclass(frozen=True)
class BoundVerdict:
    """Outcome of one disk-maximality (or minimality) comparison.

    margin is rhs - lhs for maximal-for-disk functionals and lhs - rhs for
    minimal ones, so the bound predicts margin >= 0 either way; holds is
    margin >= -error_bar.
    """

    functional: str
    n: int
    lhs: float
    rhs: float
    margin: float
    error_bar: float
    holds: bool
    bc: str = DIRICHLET
    beta: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


VERDICT_CSV_HEADER = "functional,n,lhs,rhs,margin,error_bar,holds,bc,beta"


def verdicts_to_csv(verdicts) -> str:
    lines = [VERDICT_CSV_HEADER]
    lines += [f"{v.functional},{v.n},{v.lhs!r},{v.rhs!r},{v.margin!r},"
              f"{v.error_bar!r},{v.holds},{v.bc},{v.beta!r}" for v in verdicts]
    return "\n".join(lines) + "\n"


def phi_sum_values(values: Sequence[float], phi: PhiFamily, n: int) -> float:
    if len(values) < n:
        raise ValueError(f"need {n} values, have {len(values)}")
    return sum(phi.value(v) for v in values[:n])


def domain_and_disk_spectra(profile: RadiusProfile, beta: float, bc: str,
                            n: int, cfg: Optional[SolverConfig] = None):
    """Domain spectrum (discrete, with error bars) and its disk reference.

    The Dirichlet disk side is analytic; the Neumann disk side comes from
    the same discretization applied to the unit disk, with its own bars.
    """
    bc = validate_bc(bc)
    if bc == NEUMANN and beta == 0.0:
        raise ValueError("Neumann bounds need nonzero flux beta")
    if cfg is None:
        cfg = SolverConfig(n_radial=64, n_angular=128, bc=bc, beta=beta, n_eigs=n)
    else:
        cfg = replace(cfg, bc=bc, beta=beta, n_eigs=max(cfg.n_eigs, n))
    domain = solve_with_error_bars(profile, cfg)
    if bc == DIRICHLET:
        analytic = disk_mod.disk_eigenvalues(beta, n)
        disk_side = replace(analytic, error_bars=(0.0,) * n)
    else:
        disk_side = solve_with_error_bars(RadiusProfile(1.0), cfg)
    return domain, disk_side


def propagated_error_bar(values, bars, phi: PhiFamily, n: int) -> float:
    window = values[:n]
    lo, hi = min(window), max(window)
    lip = phi.lipschitz(max(lo, 1e-12), hi)
    return lip * sum(bars[:n])


def verify_bounds(profile: RadiusProfile, beta: float, bc: str, n,
                  phis: Iterable[PhiFamily] = None,
                  cfg: Optional[SolverConfig] = None) -> list:
    """Bound verdicts for every requested functional and partial-sum length.

    n may be an int or a list of ints; the spectra are computed once at
    max(n).  Each verdict compares sum Phi(lambda_j A / G) on the domain
    against the disk side (G = 1 there) and reports the margin with the
    Richardson error bar propagated through Phi's Lipschitz constant.
    """
    def sides(n_max):
        domain, disk_side = domain_and_disk_spectra(profile, beta, bc, n_max, cfg)
        g = factors(profile).g
        return ([v / g for v in domain.normalized],
                [b * domain.area / g for b in domain.error_bars],
                list(disk_side.normalized),
                [b * disk_side.area for b in disk_side.error_bars])

    return _verdicts(n, phis, sides, validate_bc(bc), beta)


def _verdicts(n, phis, sides, bc: str, beta: float) -> list:
    """One verdict per functional and partial-sum length.

    sides(n_max) returns the normalized domain values, their bars, the
    disk values and their bars, each with at least n_max entries.
    """
    ns = sorted({int(n)} if isinstance(n, (int, float)) else {int(v) for v in n})
    if not ns or ns[0] < 1:
        raise ValueError(f"partial-sum lengths must be >= 1, got {ns}")
    phis = tuple(phis) if phis is not None else PhiFamily.all_families()
    dom_vals, dom_bars, disk_vals, disk_bars = sides(ns[-1])

    verdicts = []
    for phi in phis:
        for count in ns:
            lhs = phi_sum_values(dom_vals, phi, count)
            rhs = phi_sum_values(disk_vals, phi, count)
            bar = (propagated_error_bar(dom_vals, dom_bars, phi, count)
                   + propagated_error_bar(disk_vals, disk_bars, phi, count))
            margin = (lhs - rhs) if phi.minimal_for_disk else (rhs - lhs)
            verdicts.append(BoundVerdict(
                functional=phi.label, n=count, lhs=lhs, rhs=rhs, margin=margin,
                error_bar=bar, holds=margin >= -bar, bc=bc, beta=beta))
    return verdicts


def ground_state_sandwich(profile: RadiusProfile, beta: float,
                          cfg: Optional[SolverConfig] = None) -> dict:
    """Two-sided ground-state comparison 1 <= lambda_1 A / (lambda_1(D) pi) <= G."""
    domain, disk_side = domain_and_disk_spectra(profile, beta, DIRICHLET, 1, cfg)
    ratio = domain.normalized[0] / disk_side.normalized[0]
    bar = domain.error_bars[0] * domain.area / disk_side.normalized[0]
    g = factors(profile).g
    return {"ratio": ratio, "g": g, "error_bar": bar,
            "lower_holds": ratio >= 1.0 - bar,
            "upper_holds": ratio <= g + bar}


def majorization_check(domain_norm: Sequence[float], disk_norm: Sequence[float],
                       g: float = 1.0, slack: float = 0.0) -> bool:
    """Weak-majorization test: partial sums of domain_norm/g never exceed
    the disk partial sums (within slack).

    This is the partial-sum condition under which every concave increasing
    Phi-sum is ordered; inputs must be sorted ascending.
    """
    if len(domain_norm) != len(disk_norm):
        raise ValueError("sequences must have equal length")
    for seq in (domain_norm, disk_norm):
        if any(seq[i] > seq[i + 1] for i in range(len(seq) - 1)):
            raise ValueError("sequences must be sorted ascending")
    acc_dom = acc_disk = 0.0
    for dom, dsk in zip(domain_norm, disk_norm):
        acc_dom += dom / g
        acc_disk += dsk
        if acc_dom > acc_disk + slack:
            return False
    return True
