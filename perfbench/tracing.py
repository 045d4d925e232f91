"""Spans around calls into each magspec layer, recorded from outside.

The tracer wraps the public functions of every layer and rebinds each
wrapper in every magspec module that holds the function under some name:
``magspec.functionals.solve_with_error_bars`` and
``magspec.solver.solve_with_error_bars`` are separate bindings of one
function, and both must lead to the wrapper.  The dense and sparse
eigensolvers are wrapped where the solver looks them up, as attributes of
``scipy.linalg`` and ``scipy.sparse.linalg``.  Nothing inside the program
changes; ``uninstall`` puts every original binding back.

A span records layer, function, start, end, parent span and operation id.
Spans stay in memory until the run ends.  A layer's self time is its
span's duration minus the time its direct children cover; calls nest
strictly (one thread), so children never overlap.
"""

from __future__ import annotations

import gzip
import importlib
import json
from collections import defaultdict
from time import perf_counter

from .caches import package_modules

# (layer, module that defines the functions, public functions of the layer)
TRACED = (
    ("kummer", "magspec.kummer",
     ("kummer_m", "kummer_m_dz", "kummer_m_d2z", "kummer_m_da")),
    ("disk.eigenvalues", "magspec.disk", ("disk_eigenvalues",)),
    ("disk.profile", "magspec.disk",
     ("disk_radial_profile", "disk_radial_profile_deriv",
      "normalization_constant", "angular_energy_fraction")),
    ("quadrature", "magspec.quadrature", ("adaptive_integral",)),
    ("geometry", "magspec.geometry", ("factors", "angular_map", "load_profile")),
    ("solver.solve", "magspec.solver", ("solve",)),
    ("solver.richardson", "magspec.solver", ("solve_with_error_bars",)),
    ("solver.dense", "scipy.linalg", ("eigh",)),
    ("solver.eigsh", "scipy.sparse.linalg", ("eigsh",)),
    ("functionals", "magspec.functionals",
     ("verify_bounds", "ground_state_sandwich", "domain_and_disk_spectra")),
    ("pauli", "magspec.pauli", ("verify_pauli_bounds", "pauli_spectrum")),
    ("transplant", "magspec.transplant",
     ("transplant_identity", "transplant_overlap", "sum_bound_chain")),
    ("perturbation", "magspec.perturbation",
     ("slope_validation", "q_coefficient", "q_coefficient_profile_path",
      "coefficient_c", "quadratic_bound")),
)

# Work counts read off a layer's return value.
_RESULT_COUNTS = {
    "solver.solve": lambda spectrum: len(spectrum.mesh["kept"]),  # unknowns
    "disk.eigenvalues": len,                                       # eigenvalues
}

# Span fields, stored as lists to keep the per-call cost low.
LAYER, FUNCTION, START, END, PARENT, OP, COUNT, CACHED, FAILED = range(9)
SPAN_FIELDS = ("layer", "function", "start", "end", "parent", "op", "count",
               "cached", "failed")


class Tracer:
    """Install wrappers, collect spans, and remove the wrappers again."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._bindings = []  # (namespace, attribute, original)

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        modules = package_modules()
        for layer, home_name, functions in TRACED:
            home = importlib.import_module(home_name)
            for function in functions:
                original = getattr(home, function)
                wrapper = self._wrap(layer, function, original)
                for namespace in [home] + [m for m in modules if m is not home]:
                    for attribute, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, attribute, wrapper)
                            self._bindings.append((namespace, attribute, original))

    def uninstall(self) -> None:
        while self._bindings:
            namespace, attribute, original = self._bindings.pop()
            setattr(namespace, attribute, original)

    def _wrap(self, layer, function, original):
        spans, stack = self.spans, self._stack
        counter = _RESULT_COUNTS.get(layer)
        cache_info = getattr(original, "cache_info", None)

        def traced(*args, **kwargs):
            hits = cache_info().hits if cache_info is not None else 0
            span = [layer, function, 0.0, 0.0, stack[-1] if stack else -1,
                    self.op, None, False, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if cache_info is not None:
                span[CACHED] = cache_info().hits > hits
            if counter is not None:
                span[COUNT] = counter(result)
            return result

        traced.__wrapped__ = original
        traced.perfbench_layer = layer
        return traced

    def write(self, path) -> None:
        """Write the spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")


def self_times(spans) -> list:
    """Duration of each span minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans) -> dict:
    """Per-layer totals over all spans of one traced pass.

    ``*_time_s`` style totals count a layer's outermost spans only, so a
    layer that calls back into itself (a profile integrated by quadrature
    of a profile) is not counted twice; ``*.self_s`` totals subtract the
    children.
    """
    duration = [s[END] - s[START] for s in spans]
    own = self_times(spans)
    enclosing = []  # layers of each span's ancestors
    with_self = {}
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p < 0:
            enclosing.append(frozenset())
            continue
        if p not in with_self:
            with_self[p] = enclosing[p] | {spans[p][LAYER]}
        enclosing.append(with_self[p])

    calls = defaultdict(int)
    outer = defaultdict(float)
    self_s = defaultdict(float)
    for i, s in enumerate(spans):
        layer = s[LAYER]
        calls[layer] += 1
        self_s[layer] += own[i]
        if layer not in enclosing[i]:
            outer[layer] += duration[i]

    def count(predicate) -> int:
        return sum(1 for i, s in enumerate(spans) if predicate(i, s))

    kummer_in_disk = count(lambda i, s: s[LAYER] == "kummer"
                           and "disk.eigenvalues" in enclosing[i])
    eigenvalues_returned = sum(s[COUNT] or 0 for s in spans
                               if s[LAYER] == "disk.eigenvalues" and not s[CACHED])
    solve_s = outer["solver.solve"]
    return {
        "kummer.calls": calls["kummer"],
        "kummer.time_s": outer["kummer"],
        "disk.eigenvalues_s": outer["disk.eigenvalues"],
        "disk.kummer_calls_per_eigenvalue":
            kummer_in_disk / eigenvalues_returned if eigenvalues_returned else 0.0,
        "disk.profile_s": outer["disk.profile"],
        "quadrature.calls": calls["quadrature"],
        "quadrature.time_s": outer["quadrature"],
        "geometry.time_s": outer["geometry"],
        "solver.solve_calls": calls["solver.solve"],
        "solver.solve_s": solve_s,
        "solver.unknowns": sum(s[COUNT] or 0 for s in spans
                               if s[LAYER] == "solver.solve"),
        "solver.dense_calls": calls["solver.dense"],
        "solver.dense_s": outer["solver.dense"],
        "solver.eigsh_calls": calls["solver.eigsh"],
        "solver.eigsh_s": outer["solver.eigsh"],
        "solver.other_s": solve_s - outer["solver.dense"] - outer["solver.eigsh"],
        "solver.richardson_pairs": count(lambda i, s: s[LAYER] == "solver.richardson"
                                         and not s[CACHED]),
        "solver.richardson_s": outer["solver.richardson"],
        "functionals.self_s": self_s["functionals"],
        "pauli.self_s": self_s["pauli"],
        "pauli.magnetic_solves": count(
            lambda i, s: s[FUNCTION] == "domain_and_disk_spectra"
            and s[PARENT] >= 0 and spans[s[PARENT]][LAYER] == "pauli"),
        "transplant.self_s": self_s["transplant"],
        "perturbation.self_s": self_s["perturbation"],
        "perturbation.solves": count(lambda i, s: s[LAYER] == "solver.solve"
                                     and "perturbation" in enclosing[i]),
    }
