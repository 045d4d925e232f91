"""The benchmark's workloads: seeded inputs, operations and their checks.

A workload builds one round of operations from the seed.  A run repeats
that round whole, so every run attempts the same operations in the same
proportions.  Operations call magspec through module attributes at call
time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from magspec import disk, functionals, geometry, pauli, perturbation, transplant
from magspec.corpus import load_corpus
from magspec.solver import SolverConfig

# The checks (and mpmath) are imported where they run, so building a round
# costs only what a magspec process pays.

# The CLI's default verify mesh, with n_eigs = 8 as in the Dirichlet corpus
# criterion; the coarse Richardson level (32x64) takes the dense eigensolver.
VERIFY_CFG = SolverConfig(n_radial=64, n_angular=128, n_eigs=8)
DIRICHLET_NS = (1, 3, 5, 8)
NEUMANN_NS = (1, 3, 5)
PAULI_N = 5
FAMILIES = 5  # PhiFamily.all_families()

# disk_eigenvalues raises RuntimeError here: the absolute boundary residual
# test |M| <= 1e-10 cannot pass at strong flux although the root is right.
STRONG_FLUX_FAULT = (150.0, 4)

TRANSPLANT_BETA = 5.0
TRANSPLANT_N_ETA = 64       # the CLI default
SLOPE_EPS = (0.04, 0.02, 0.01)
Q_PANEL = tuple(range(1, 11))


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    # (output, outputs of this round so far by label) -> problems
    check: Callable[[object, dict], list]


def _noncircular(corpus):
    return [e for e in corpus if e.reference.g > 1.0]


# ------------------------------------------------------------ verify-corpus

def _dirichlet(entry, beta):
    verdicts = functionals.verify_bounds(entry.profile, beta, "dirichlet",
                                         DIRICHLET_NS, None, VERIFY_CFG)
    sandwich = functionals.ground_state_sandwich(entry.profile, beta, VERIFY_CFG)
    return verdicts, sandwich


def _check_dirichlet(entry, output, _done):
    from . import checks
    verdicts, sandwich = output
    problems = checks.check_verdicts(verdicts, FAMILIES * len(DIRICHLET_NS))
    problems += checks.check_sandwich(sandwich, entry)
    if entry.reference.g == 1.0:
        problems += checks.check_disk_discretization(verdicts, entry)
    return problems


def _neumann(entry):
    return functionals.verify_bounds(entry.profile, 5.0, "neumann", NEUMANN_NS,
                                     None, VERIFY_CFG)


def _pauli(entry):
    return pauli.verify_pauli_bounds(entry.profile, 5.0, PAULI_N, None, VERIFY_CFG)


def _check_shifted(entry, expected, verdicts, _done):
    from . import checks
    return (checks.check_verdicts(verdicts, expected)
            + checks.check_reference_g(geometry.factors(entry.profile).g, entry))


def verify_corpus(rng, corpus) -> list:
    """Three Dirichlet (beta 0, 5, 5), one Neumann and one Pauli verdict request.

    Entries are drawn without replacement; one Dirichlet request always
    goes to a disk (unit or dilated), where the discrete side is also
    checked against the analytic Kummer roots.
    """
    disks = [e for e in corpus if e.reference.g == 1.0]
    others = _noncircular(corpus)
    picks = [others[i] for i in rng.choice(len(others), 4, replace=False)]
    dirichlet_entries = [disks[rng.integers(len(disks))]] + picks[:2]
    rng.shuffle(dirichlet_entries)
    ops = [Op(f"dirichlet:{e.name}:beta={beta:g}", partial(_dirichlet, e, beta),
              partial(_check_dirichlet, e))
           for e, beta in zip(dirichlet_entries, (0.0, 5.0, 5.0))]
    ops.append(Op(f"neumann:{picks[2].name}:beta=5", partial(_neumann, picks[2]),
                  partial(_check_shifted, picks[2], FAMILIES * len(NEUMANN_NS))))
    ops.append(Op(f"pauli:{picks[3].name}:beta=5", partial(_pauli, picks[3]),
                  partial(_check_shifted, picks[3], FAMILIES)))
    return ops


# ------------------------------------------------------------- disk-spectra

def _disk_label(beta, n):
    return f"disk:beta={beta!r}:n={n}"


def _disk(beta, n):
    return disk.disk_eigenvalues(beta, n)


# Spectra already checked, by request and content.  A later round asks for
# the same spectrum again; when it comes back the same, the mpmath checks
# (seconds per spectrum) need not be repeated.
_checked_spectra = {}


def _fingerprint(spectrum):
    return tuple((mode.m, mode.k, mode.eigenvalue) for mode in spectrum.modes)


def _check_disk(beta, n, spectrum, done):
    from . import checks
    key = (beta, n, _fingerprint(spectrum))
    if key not in _checked_spectra:
        _checked_spectra[key] = checks.check_disk_spectrum(spectrum, beta, n)
    problems = list(_checked_spectra[key])
    mirror = done.get(_disk_label(-beta, n)) if beta != 0.0 else None
    if mirror is not None:
        plus, minus = (spectrum, mirror) if beta > 0 else (mirror, spectrum)
        problems += checks.check_flux_reversal(plus, minus)
    return problems


# Besides the strong-flux fault, every request of a round costs about the
# same, 1.3-1.5 s on one core of a 2-vCPU VM, so the median of a run is
# taken over all of its completed requests rather than at the edge
# between a cheap and a dear group.  A request's cost moves with |beta|
# faster than |beta| does (n = 8: 0.90 s at 38.8 against 1.12 s at 41.2),
# so the magnitudes are fixed and the seed draws only signs and order:
# every seed asks for the same amount of work.
DISK_SLOTS = ((2.0, 8), (5.0, 10), (20.0, 10), (60.0, 8), (100.0, 5))


def disk_spectra(rng, _corpus) -> list:
    """Cold analytic disk spectra from zero through weak to strong flux.

    (0, 12); (0.9, 6) at both signs, so the flux-reversal symmetry is
    checked; DISK_SLOTS, each at a seeded sign; and the fixed (150, 4)
    request, which fails every time (STRONG_FLUX_FAULT).
    """
    slots = [(0.0, 12), (0.9, 6), (-0.9, 6)]
    slots += [(flux if rng.integers(2) else -flux, n) for flux, n in DISK_SLOTS]
    slots.append(STRONG_FLUX_FAULT)
    return [Op(_disk_label(beta, n), partial(_disk, beta, n),
               partial(_check_disk, beta, n))
            for beta, n in slots]


# --------------------------------------------------------------- identities

def _transplant(entry, index):
    mode = disk.disk_eigenvalues(TRANSPLANT_BETA, index + 1).modes[index]
    return transplant.transplant_identity(entry.profile, mode,
                                          n_eta=TRANSPLANT_N_ETA)


def _slope(profile):
    return perturbation.slope_validation(5.0, profile, SLOPE_EPS)


def _q_panel(beta):
    return [perturbation.q_coefficient(beta, n) for n in Q_PANEL]


def _check_transplant(entry, report, _done):
    from . import checks
    return checks.check_transplant(report, entry)


def _check_slope(report, _done):
    from . import checks
    return checks.check_slope(report)


def _check_q_panel(q_values, _done):
    from . import checks
    return checks.check_q_panel(q_values)


def identities(rng, corpus) -> list:
    """Transplanted disk modes, a perturbation slope and a q_n panel.

    Four transplant_identity requests at beta = 5 (n_eta = 64) on distinct
    non-circular corpus domains, each for one of the first three disk
    modes (about 2.5 s each); one slope_validation for p_2 or p_3 (seeded)
    of modulus 1/2 at a seeded phase (R = 1 + eps P, eps = 0.04, 0.02,
    0.01, default 96x192 mesh; about 3.4 s); one panel q_1..q_10 at a
    seeded flux in [2, 10] (under 0.1 s).  With four transplants to one
    slope and one panel, the median of any number of whole rounds is a
    transplant request.
    """
    others = _noncircular(corpus)
    entries = [others[i] for i in rng.choice(len(others), 4, replace=False)]
    ops = []
    for entry in entries:
        index = int(rng.integers(3))
        ops.append(Op(f"transplant:{entry.name}:mode={index}",
                      partial(_transplant, entry, index),
                      partial(_check_transplant, entry)))
    harmonic = int(rng.integers(2, 4))
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    profile = perturbation.PerturbationProfile({harmonic: 0.5 * cmath.exp(1j * phase)})
    ops.append(Op(f"slope:p{harmonic}:phase={phase:.4f}",
                  partial(_slope, profile),
                  _check_slope))
    beta = float(rng.uniform(2.0, 10.0))
    ops.append(Op(f"q-panel:beta={beta:.4f}", partial(_q_panel, beta),
                  _check_q_panel))
    return ops


WORKLOADS = {
    "verify-corpus": verify_corpus,
    "disk-spectra": disk_spectra,
    "identities": identities,
}


def build_round(workload: str, seed: int) -> list:
    """The seeded round of operations, in a seeded order."""
    rng = np.random.default_rng(seed)
    ops = WORKLOADS[workload](rng, load_corpus())
    return [ops[i] for i in rng.permutation(len(ops))]
