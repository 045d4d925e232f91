"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria are oracle- and property-based at desk scale; tolerances are
stated inline and runtime ceilings are asserted where specified.
"""

import json
import time

import numpy as np
import pytest

from magspec.corpus import corpus_entry, load_corpus
from magspec.disk import disk_eigenvalues
from magspec.functionals import ground_state_sandwich, verify_bounds
from magspec.geometry import RadiusProfile
from magspec.kummer import kummer_m, kummer_m_dz, ode_residual
from magspec.pauli import pauli_spectrum, verify_pauli_bounds
from magspec.perturbation import (PerturbationProfile, coefficient_c,
                                  quadratic_bound, q_coefficient,
                                  q_coefficient_profile_path, slope_validation)
from magspec.solver import (SolverConfig, convergence_study, dominant_angular_mode,
                            observed_orders, solve)
from magspec.transplant import transplant_identity

CFG = SolverConfig(n_radial=64, n_angular=128, n_eigs=8)
DISK = RadiusProfile(1.0)


def ok(label: str, detail: str, started: float):
    print(f"PASS  {label}: {detail} ({time.perf_counter() - started:.1f}s)")


def test_criterion_01_special_function_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_ode = worst_c1 = worst_c2 = 0.0
    for _ in range(1000):
        a = rng.uniform(-20, 5)
        b = float(rng.integers(1, 13))
        z = rng.uniform(1e-6, 30)
        m = kummer_m(a, b, z)
        mp = kummer_m_dz(a, b, z)
        worst_ode = max(worst_ode,
                        abs(ode_residual(a, b, z)) / (1 + abs(m) + abs(mp)))
    for _ in range(1000):
        a = rng.uniform(-20, -0.1)
        z = rng.uniform(1e-6, 30)
        mp = kummer_m_dz(a, 1, z)
        lhs1 = a * kummer_m(a + 1, 2, z)
        worst_c1 = max(worst_c1, abs(lhs1 - mp) / (1 + abs(lhs1) + abs(mp)))
        lhs2 = (a - 1) * kummer_m(a, 2, z)
        rhs2 = mp - kummer_m(a, 1, z)
        worst_c2 = max(worst_c2, abs(lhs2 - rhs2) / (1 + abs(lhs2) + abs(rhs2)))
    elapsed = time.perf_counter() - started
    assert worst_ode <= 1e-9
    assert worst_c1 <= 1e-9
    assert worst_c2 <= 1e-9
    assert elapsed < 5.0
    ok("criterion 1", f"ODE residual {worst_ode:.1e}, contiguous identities "
       f"{worst_c1:.1e} / {worst_c2:.1e} on 1000-point panels", started)


def test_criterion_02_disk_oracle_convergence():
    started = time.perf_counter()
    for beta in (0.0, 5.0, 20.0):
        reference = disk_eigenvalues(beta, 5).eigenvalues
        study = convergence_study(
            DISK, SolverConfig(n_radial=24, n_angular=48, beta=beta, n_eigs=5))
        finest = study[-1][1]
        assert finest.provenance == "discrete(96x192)"
        for got, expect in zip(finest.eigenvalues, reference):
            assert abs(got - expect) / expect <= 0.005
        for order in observed_orders(study, reference=reference):
            assert 1.7 <= order <= 2.3
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    ok("criterion 2", "5 disk eigenvalues within 0.5% at 96x192 and order "
       "in [1.7, 2.3] for beta in {0, 5, 20}", started)


def test_criterion_03_dirichlet_bounds_full_corpus():
    started = time.perf_counter()
    checked = 0
    for entry in load_corpus():
        for beta in (0.0, 5.0):
            verdicts = verify_bounds(entry.profile, beta, "dirichlet",
                                     (1, 3, 5, 8), None, CFG)
            assert len(verdicts) == 20
            for v in verdicts:
                assert v.holds, (entry.name, beta, v)
            checked += len(verdicts)
            sandwich = ground_state_sandwich(entry.profile, beta, CFG)
            assert sandwich["lower_holds"], (entry.name, beta, sandwich)
            assert sandwich["upper_holds"], (entry.name, beta, sandwich)
    elapsed = time.perf_counter() - started
    assert elapsed < 900.0
    ok("criterion 3", f"{checked} Dirichlet verdicts plus ground-state "
       "sandwiches hold on the full corpus", started)


def test_criterion_04_neumann_bounds():
    started = time.perf_counter()
    checked = 0
    for entry in load_corpus():
        verdicts = verify_bounds(entry.profile, 5.0, "neumann", (1, 3, 5),
                                 None, CFG)
        assert len(verdicts) == 15
        for v in verdicts:
            assert v.holds, (entry.name, v)
        checked += len(verdicts)
        for nr, nt in ((12, 24), (24, 48)):
            coarse = solve(entry.profile, SolverConfig(
                n_radial=nr, n_angular=nt, bc="neumann", beta=5.0, n_eigs=1))
            assert coarse.eigenvalues[0] > 0
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    ok("criterion 4", f"{checked} Neumann verdicts hold; ground state "
       "positive at every tested resolution", started)


def test_criterion_05_transplantation_identity():
    started = time.perf_counter()
    modes = disk_eigenvalues(5.0, 2).modes
    for name in ("ellipse_030", "oscillatory_8", "flower_5"):
        profile = corpus_entry(name).profile
        for mode in modes:
            report = transplant_identity(profile, mode, n_eta=64)
            assert report.identity_residual <= 1e-6, (name, mode.m, report)
            assert abs(report.q2_avg) <= 1e-8, (name, mode.m, report)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    ok("criterion 5", "identity residual <= 1e-6 and |Q2 average| <= 1e-8 "
       "for 3 domains x 2 modes at beta=5", started)


def test_criterion_06_perturbation_series():
    started = time.perf_counter()
    for beta in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
        assert abs(q_coefficient(beta, 1)) <= 1e-8
    assert abs(q_coefficient(5.0, 100) / 101.0 - 1.0) < 0.05
    for n in (1, 2, 3, 5, 10):
        direct = q_coefficient(5.0, n)
        alt = q_coefficient_profile_path(5.0, n)
        assert abs(direct - alt) <= 1e-8 * max(1.0, abs(direct))
    for n in (2, 3):
        profile = PerturbationProfile({n: 0.5})
        report = slope_validation(5.0, profile, (0.04, 0.02, 0.01))
        assert report.relative_mismatch <= 0.05, report
        assert report.predicted_slope == pytest.approx(
            coefficient_c(5.0) * 0.25 * q_coefficient(5.0, n), rel=1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    ok("criterion 6", "q_1 = 0 across fluxes, q_n -> n+1, dual q_n paths "
       "agree to 1e-8, solver slopes within 5% of the series", started)


def test_criterion_07_quadratic_surrogate_defect():
    started = time.perf_counter()
    eps = 0.04
    for n in (1, 2, 5):
        profile = PerturbationProfile({n: 0.5})
        d_full = abs(quadratic_bound(profile, eps).upper
                     - quadratic_bound(profile, eps).surrogate)
        d_half = abs(quadratic_bound(profile, eps / 2).upper
                     - quadratic_bound(profile, eps / 2).surrogate)
        assert d_full / max(d_half, 1e-300) >= 6.0, (n, d_full, d_half)
    ok("criterion 7", "exact G minus quadratic surrogate decays at least "
       "cubically (defect ratio >= 6) for n in {1, 2, 5}", started)


def test_criterion_08_pauli_splitting_and_bounds():
    started = time.perf_counter()
    # union multiset identity, exact arithmetic on the analytic disk input
    magnetic = disk_eigenvalues(5.0, 8)
    shift = 5.0 / magnetic.area
    ps = pauli_spectrum(magnetic, 6)
    merged = sorted([v - shift for v in magnetic.eigenvalues]
                    + [v + shift for v in magnetic.eigenvalues])
    assert list(ps.eigenvalues) == merged[:6]
    assert ps.eigenvalues[0] + shift == magnetic.eigenvalues[0]

    # discrete pipeline: the shift identity holds to solver tolerance
    for entry_name in ("ellipse_030", "flower_5"):
        profile = corpus_entry(entry_name).profile
        spectrum = solve(profile, SolverConfig(
            n_radial=32, n_angular=64, beta=5.0, n_eigs=4))
        dom_ps = pauli_spectrum(spectrum, 1)
        assert dom_ps.eigenvalues[0] + 5.0 / spectrum.area == pytest.approx(
            spectrum.eigenvalues[0], rel=1e-12)

    checked = 0
    for entry in load_corpus():
        verdicts = verify_pauli_bounds(entry.profile, 5.0, 5, None, CFG)
        assert len(verdicts) == 5
        for v in verdicts:
            assert v.holds, (entry.name, v)
        checked += len(verdicts)
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    ok("criterion 8", f"union identity exact, ground-shift identity holds, "
       f"{checked} shifted-bound verdicts hold at beta=5, n=5", started)


def test_criterion_09_symmetry_and_invariance():
    started = time.perf_counter()
    profile = corpus_entry("ellipse_030").profile
    cfg = SolverConfig(n_radial=32, n_angular=64, beta=4.0, n_eigs=4)
    plus = solve(profile, cfg)
    minus = solve(profile, SolverConfig(n_radial=32, n_angular=64, beta=-4.0,
                                        n_eigs=4))
    for a, b in zip(plus.eigenvalues, minus.eigenvalues):
        assert abs(a - b) <= 2 * cfg.tolerance * max(1.0, abs(a))

    scaled = solve(profile.scaled(2.0), cfg)
    for a, b in zip(plus.normalized, scaled.normalized):
        assert abs(a - b) <= 2 * cfg.tolerance * max(1.0, abs(a))

    for entry in load_corpus():
        assert entry.reference.g >= 1.0
        if entry.name.startswith("disk"):
            assert entry.reference.g - 1.0 < 1e-10
        else:
            assert entry.reference.g - 1.0 > 1e-10
    ok("criterion 9", "flux-sign and dilation invariance within 2x solver "
       "tolerance; G >= 1 with equality only for disks", started)


def test_criterion_10_determinism(tmp_path, capsys, monkeypatch):
    started = time.perf_counter()
    from magspec.cli import main
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dom.json").write_text(json.dumps(
        {"r0": 1.0, "harmonics": [{"n": 2, "a": 0.15, "b": 0.0}]}))
    (tmp_path / "pert.json").write_text(json.dumps({"p": {"2": [0.5, 0.0]}}))
    commands = [
        ["disk", "--beta", "5", "--n", "4", "--out", "disk.csv", "--plot", "svg"],
        ["solve", "--domain", "dom.json", "--beta", "3", "--n", "3",
         "--nr", "16", "--nt", "32", "--out", "solve.csv"],
        ["verify", "--domain", "dom.json", "--beta", "5", "--n", "1,3",
         "--phi", "all", "--nr", "16", "--nt", "32", "--out", "verify.json"],
        ["sweep", "--domain", "dom.json", "--bc", "neumann", "--beta", "2:4:1",
         "--n", "1", "--nr", "12", "--nt", "24", "--track-mode",
         "--out", "sweep.csv"],
    ]
    outputs = ["disk.csv", "disk.svg", "solve.csv", "verify.json",
               "verify.csv", "sweep.csv"]
    snapshots = []
    for _ in range(2):
        for argv in commands:
            assert main(argv) == 0
            capsys.readouterr()
        snapshots.append({name: (tmp_path / name).read_bytes()
                          for name in outputs})
    assert snapshots[0] == snapshots[1]
    ok("criterion 10", f"{len(outputs)} output files byte-identical across "
       "two full runs", started)


def test_exploratory_neumann_mode_transition():
    # Non-acceptance, qualitative: the dominant angular mode of the Neumann
    # ground state climbs with increasing flux.
    started = time.perf_counter()
    betas = (0.5, 8.0, 16.0, 24.0, 32.0, 40.0)
    modes = []
    for beta in betas:
        spectrum = solve(DISK, SolverConfig(n_radial=32, n_angular=64,
                                            bc="neumann", beta=beta, n_eigs=1))
        modes.append(dominant_angular_mode(spectrum))
    assert all(a <= b for a, b in zip(modes, modes[1:]))
    assert modes[-1] > modes[0]
    ok("exploratory", f"Neumann dominant mode rises {modes[0]} -> {modes[-1]} "
       f"over beta in [0.5, 40] (sequence {modes})", started)
