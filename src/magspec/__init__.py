"""Magnetic Laplacian and Pauli spectra on starlike plane domains.

The package computes Dirichlet/Neumann spectra of (i grad + F)^2 with the
symmetric gauge F = (beta/2A)(-x2, x1), analytic unit-disk spectra from
Kummer-function roots, and verifies the sharp disk-maximality bounds for
scale-invariant spectral functionals, including the shifted Pauli variant
and the second-order perturbation series for nearly circular domains.
"""

__version__ = "0.1.0"

from .geometry import (AngularMap, GeometricFactors, RadiusProfile,
                       angular_map, factors, load_profile)
from .kummer import bessel_j_zero, kummer_m, kummer_m_da, kummer_m_dz
from .spectra import DIRICHLET, NEUMANN, MagneticSpectrum
from .disk import (DiskMode, angular_energy_fraction, disk_eigenvalues,
                   disk_radial_profile)
from .solver import SolverConfig, convergence_study, solve
from .functionals import (BoundVerdict, PhiFamily, majorization_check,
                          verify_bounds)
from .transplant import sum_bound_chain, transplant_identity
from .perturbation import (PerturbationProfile, PerturbationReport,
                           coefficient_c, quadratic_bound, q_coefficient,
                           slope_validation)
from .pauli import PauliSpectrum, pauli_spectrum, verify_pauli_bounds
from .corpus import CorpusEntry, load_corpus

__all__ = [
    "AngularMap", "BoundVerdict", "CorpusEntry", "DIRICHLET", "DiskMode",
    "GeometricFactors", "MagneticSpectrum", "NEUMANN",
    "PauliSpectrum", "PerturbationProfile", "PerturbationReport", "PhiFamily",
    "RadiusProfile", "SolverConfig", "angular_energy_fraction", "angular_map",
    "bessel_j_zero", "coefficient_c", "convergence_study",
    "quadratic_bound", "disk_eigenvalues", "disk_radial_profile", "factors",
    "load_corpus", "load_profile", "majorization_check", "pauli_spectrum",
    "q_coefficient", "slope_validation", "solve", "sum_bound_chain",
    "transplant_identity", "verify_bounds", "verify_pauli_bounds",
]
