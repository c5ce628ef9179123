"""Per-layer tracing by wrapping findual's public entry points from outside.

The library itself is not edited: `install` replaces each traced function, in
every loaded `findual.*` namespace that binds it, by one timing wrapper.  A
span's self time is its duration minus the durations of the traced spans it
directly encloses, so a layer is charged only for the work done in its own
code (and in untraced helpers it calls, such as per-scalar field methods).

Spans are kept in memory as per-function aggregates and read out by the
benchmark when a job ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Layers are findual's modules; `kernel` covers findual.kernel.{fields,poly,linalg}.
LAYERS = ("kernel", "algebra", "coalgebra", "twist", "qplane", "codec", "cli", "selftest")

# layer -> [(defining module, attribute path, traced name)].  Only entry points
# are traced, never per-scalar methods such as Field.mul or
# FinDimAlgebra.multiply, whose wrapping would cost more than they do.
TRACED = {
    "kernel": [
        ("findual.kernel.linalg", "rref_kernel", "rref_kernel"),
        ("findual.kernel.linalg", "echelon_rows", "echelon_rows"),
        ("findual.kernel.linalg", "solve_linear", "solve_linear"),
        ("findual.kernel.linalg", "in_row_span", "in_row_span"),
        ("findual.kernel.linalg", "coordinates_in_row_span", "coordinates_in_row_span"),
        ("findual.kernel.linalg", "Matrix.__matmul__", "matmul"),
        ("findual.kernel.poly", "factor_over_field", "factor_over_field"),
    ],
    "algebra": [
        ("findual.algebra", name, name)
        for name in (
            "validate_algebra", "center", "radical", "quotient_algebra", "is_ideal",
            "ideal_closure", "subspace_product", "semisimple_profile",
            "one_dim_characters", "minimal_polynomial",
        )
    ],
    "coalgebra": [
        ("findual.coalgebra", name, name)
        for name in (
            "validate_coalgebra", "dualize_algebra", "dualize_coalgebra", "grouplikes",
            "grouplikes_bruteforce", "coradical", "coradical_filtration",
            "coradical_preserved",
        )
    ],
    "twist": [
        ("findual.twist", name, name)
        for name in (
            "check_twisting_map", "check_cotwisting_map", "raw_twisted_algebra",
            "twisted_product", "dual_cotwist", "crossed_coalgebra",
            "verify_twisted_duality", "twist_corpus", "validate_bialgebra",
            "verify_crossed_bialgebra_duality", "solve_cotwist",
        )
    ],
    "qplane": [
        ("findual.qplane", name, name)
        for name in (
            "oq_truncation", "azumaya_census", "azumaya_point_invariants",
            "qtwist_decomposition", "irrep", "irrep_classify",
        )
    ],
    "codec": [
        ("findual.codec", name, name)
        for name in ("loads", "to_canonical_json", "encode", "decode", "census_to_csv")
    ],
    "cli": [("findual.cli", "cli_run", "cli_run")],
    "selftest": [("findual.selftest", "run_criterion", "run_criterion")],
}

# Work-size counters, summed over calls: traced name -> (counter, size function
# of the call's positional arguments and its result).
SIZES = {
    "kernel.rref_kernel": ("cells", lambda args, result: args[0].rows * args[0].cols),
    "kernel.factor_over_field": ("degree", lambda args, result: args[0].degree()),
    "codec.loads": ("bytes", lambda args, result: len(args[0])),
    "codec.to_canonical_json": ("bytes", lambda args, result: len(result)),
}


def traced_names():
    return [f"{layer}.{name}" for layer in LAYERS for _, _, name in TRACED[layer]]


def metric_units():
    """Every metric a traced job reports, in a fixed order, with its unit."""
    units = {}
    for name in traced_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    for name, (counter, _) in SIZES.items():
        units[f"{name}.{counter}"] = "bytes" if counter == "bytes" else "count"
    return units


class Tracer:
    """Aggregates calls, self time and sizes of wrapped functions."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.sizes = defaultdict(int)
        self._open = []  # per open span: ns spent in its traced children

    def wrap(self, name, fn, size=None):
        clock, open_spans = self.clock, self._open
        calls, self_ns, sizes = self.calls, self.self_ns, self.sizes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_ns[name] += elapsed - open_spans.pop()
                calls[name] += 1
                if open_spans:
                    open_spans[-1] += elapsed
            if size is not None:
                sizes[name] += size(args, result)
            return result

        return traced

    def metrics(self):
        """Metric name -> value, covering every name in `metric_units`."""
        out = {}
        layer_ns = defaultdict(int)
        for name in traced_names():
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9
            layer_ns[name.split(".", 1)[0]] += self.self_ns[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_ns[layer] / 1e9
        for name, (counter, _) in SIZES.items():
            out[f"{name}.{counter}"] = self.sizes[name]
        return out


def _resolve(module_name, path):
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer):
    """Wrap every traced function in all loaded findual namespaces.

    Each original gets exactly one wrapper, bound under every name that held
    it, so a call through any import path is counted once.  Returns a function
    that restores the originals.
    """
    namespaces = [m for name, m in sys.modules.items()
                  if m is not None and (name == "findual" or name.startswith("findual."))]
    undo = []
    for layer in LAYERS:
        for module_name, path, short in TRACED[layer]:
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            name = f"{layer}.{short}"
            size = SIZES.get(name, (None, None))[1]
            wrapper = tracer.wrap(name, original, size)
            targets = [owner] if owner not in namespaces else namespaces
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapper)
                        undo.append((target, key, original))

    def restore():
        for target, key, original in reversed(undo):
            setattr(target, key, original)

    return restore
