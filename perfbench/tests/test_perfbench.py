"""Tests of the benchmark's own machinery (python3 -m pytest perfbench/tests)."""

import random
import sys
from types import SimpleNamespace

import pytest

import magspec
from magspec import disk, functionals, kummer, solver, transplant

from perfbench import checks
from perfbench.caches import clear_package_caches, package_caches, package_modules
from perfbench.stats import MIN_TAIL_SAMPLES, latency_summary
from perfbench.tracing import (END, PARENT, START, TRACED, Tracer, layer_metrics,
                               self_times)
from perfbench.workloads import STRONG_FLUX_FAULT, build_round


# ------------------------------------------------------------------ stats

def test_no_tail_below_forty_samples():
    for n in range(1, MIN_TAIL_SAMPLES):
        summary = latency_summary(random.random() for _ in range(n))
        assert summary["count"] == n
        assert "tail" not in summary and "tail_percentile" not in summary


def test_tail_never_below_median():
    rng = random.Random(7)
    for n in range(MIN_TAIL_SAMPLES, 400, 7):
        for shape in ("uniform", "bimodal", "constant"):
            if shape == "uniform":
                values = [rng.random() for _ in range(n)]
            elif shape == "bimodal":
                values = [1.0] * (n // 2) + [100.0] * (n - n // 2)
            else:
                values = [3.0] * n
            summary = latency_summary(values)
            assert summary["tail"] >= summary["p50"]
            beyond = sum(1 for v in values if v > summary["tail"])
            assert beyond <= 10
    assert latency_summary([float(i) for i in range(100)])["tail_percentile"] == 90.0


# ------------------------------------------------------------------ caches

def test_cache_walk_finds_the_package_caches():
    names = set(package_caches())
    for expected in ("magspec.disk.disk_eigenvalues",
                     "magspec.solver.solve_with_error_bars",
                     "magspec.kummer.bessel_j_zero",
                     "magspec.corpus.load_corpus"):
        assert expected in names


def test_clear_empties_every_cache():
    kummer.bessel_j_zero(0, 1)
    magspec.load_corpus()
    assert kummer.bessel_j_zero.cache_info().currsize > 0
    assert clear_package_caches() >= 4
    assert all(c.cache_info().currsize == 0 for c in package_caches().values())


# ------------------------------------------------------------------ tracer

def _aliases(original):
    return [(m, name) for m in package_modules() for name, v in vars(m).items()
            if v is original]


def test_tracer_rebinds_every_alias_and_restores_it():
    originals = {}
    for layer, home, functions in TRACED:
        for function in functions:
            original = getattr(sys.modules[home], function)
            originals[original] = (layer, [(sys.modules[home], function)]
                                   + _aliases(original))
    # one function, several bindings: its home module and the modules using it
    bindings = originals[solver.solve_with_error_bars][1]
    assert (functionals, "solve_with_error_bars") in bindings
    assert (transplant, "solve_with_error_bars") in bindings
    assert (transplant, "disk_radial_profile") in originals[disk.disk_radial_profile][1]
    assert (magspec, "factors") in originals[magspec.factors][1]

    tracer = Tracer()
    tracer.install()
    try:
        for original, (layer, bindings) in originals.items():
            for module, name in bindings:
                wrapper = getattr(module, name)
                assert wrapper.__wrapped__ is original
                assert wrapper.perfbench_layer == layer
        assert solver.scipy.linalg.eigh.perfbench_layer == "solver.dense"
        assert solver.spla.eigsh.perfbench_layer == "solver.eigsh"
    finally:
        tracer.uninstall()

    for original, (_, bindings) in originals.items():
        for module, name in bindings:
            assert getattr(module, name) is original
    leftovers = [(m.__name__, name) for m in package_modules() + [solver.scipy.linalg,
                                                                   solver.spla]
                 for name, v in vars(m).items() if hasattr(v, "perfbench_layer")]
    assert leftovers == []


def _traced_spans():
    clear_package_caches()
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    try:
        mode = disk.disk_eigenvalues(5.0, 2).modes[1]
        disk.angular_energy_fraction(mode)
        magspec.factors(magspec.RadiusProfile(1.0, ((3, 0.1, 0.0),)))
    finally:
        tracer.uninstall()
    return tracer.spans


def test_child_spans_fit_inside_their_parents():
    spans = _traced_spans()
    assert any(s[PARENT] >= 0 for s in spans)
    for s in spans:
        if s[PARENT] >= 0:
            parent = spans[s[PARENT]]
            assert s[END] - s[START] <= parent[END] - parent[START]
            assert parent[START] <= s[START] <= s[END] <= parent[END]
    assert min(self_times(spans)) >= 0.0


def test_layer_metrics_count_what_ran():
    spans = _traced_spans()
    metrics = layer_metrics(spans)
    assert metrics["kummer.calls"] > 0
    assert metrics["quadrature.calls"] > 0
    assert metrics["solver.dense_calls"] == 0
    assert metrics["disk.kummer_calls_per_eigenvalue"] > 0
    tops = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
    assert sum(self_times(spans)) == pytest.approx(tops, rel=1e-9)


# ------------------------------------------------------------------ workloads

@pytest.mark.parametrize("workload", ["verify-corpus", "disk-spectra", "identities"])
def test_rounds_are_seeded(workload):
    first = [op.label for op in build_round(workload, 3)]
    assert first == [op.label for op in build_round(workload, 3)]
    assert first != [op.label for op in build_round(workload, 4)]
    sizes = {len(build_round(workload, seed)) for seed in range(20)}
    assert len(sizes) == 1


def test_disk_rounds_ask_for_the_same_work_on_every_seed():
    def magnitudes(seed):
        return sorted(label.replace("beta=-", "beta=")
                      for label in (op.label for op in build_round("disk-spectra", seed)))
    assert all(magnitudes(seed) == magnitudes(0) for seed in range(1, 20))


def test_strong_flux_fault_is_in_every_disk_round():
    beta, n = STRONG_FLUX_FAULT
    for seed in range(20):
        labels = [op.label for op in build_round("disk-spectra", seed)]
        assert labels.count(f"disk:beta={beta!r}:n={n}") == 1


# ------------------------------------------------------------------ checks

def test_disk_checks_accept_the_spectrum_and_catch_a_missing_level():
    clear_package_caches()
    good = disk.disk_eigenvalues(5.0, 4)
    assert checks.check_disk_spectrum(good, 5.0, 4) == []
    wider = disk.disk_eigenvalues(5.0, 5)
    skipped = [m for i, m in enumerate(wider.modes) if i != 2]
    gapped = SimpleNamespace(eigenvalues=tuple(m.eigenvalue for m in skipped),
                             modes=tuple(skipped))
    assert checks.check_disk_spectrum(gapped, 5.0, 4) != []


def test_zero_field_check_uses_bessel_zeros():
    clear_package_caches()
    spectrum = disk.disk_eigenvalues(0.0, 6)
    assert checks.check_disk_spectrum(spectrum, 0.0, 6) == []
    shifted = SimpleNamespace(
        eigenvalues=spectrum.eigenvalues[:-1] + (spectrum.eigenvalues[-1] * (1 + 1e-9),),
        modes=spectrum.modes)
    assert checks.check_disk_spectrum(shifted, 0.0, 6) != []
