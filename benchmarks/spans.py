"""Outside-in span tracing of apsum's layers.

The benchmark does not edit the package.  Instead it replaces the traced
functions in every module namespace that holds them (the defining module,
each module that did ``from .x import f``, and the package root), so calls
made inside the package are traced as well as calls made by the benchmark.
A span is (name, start, end, parent); a layer's self time is its span time
minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import os
import sys
from contextlib import contextmanager
from math import prod
from time import perf_counter

# Layer boundaries, by module.  Helpers called once per residue or per term
# (apery_values, radix_digits*, apery_multiplier*, canonical_expansion,
# leading_monomial, reduce_poly, monomial/binomial, the order keys) are left
# out on purpose: wrapping them would cost more than the work they do, and
# their time shows as self time of the traced caller.
TRACED = {
    "cli": ("main",),
    "cone": (
        "apery_table", "landings", "order_histogram", "order_histogram_closed",
        "cone_decomposition", "reduction_number", "hilbert_numerator",
        "ring_properties", "table_to_csv", "cone_to_json",
    ),
    "oracle": (
        "validate_generators", "membership_mask", "membership", "apery_oracle",
        "frobenius_oracle", "orders_up_to", "order_oracle",
        "pseudo_frobenius_oracle", "is_minimal_generating",
        "representation_count", "representations",
    ),
    "family": (
        "partial_sum_generators", "apery_records", "apery_set_closed",
        "minimality_check", "uniqueness_check", "apery_set_conjectured6",
    ),
    "frobenius": ("pseudo_frobenius_set", "frobenius_number", "semigroup_type"),
    "ideal": (
        "generator_catalog", "catalog_to_json", "homogeneity_check", "buchberger",
        "minimalize_monomials", "standard_monomials", "standard_monomial_count",
        "quotient_basis", "quotient_dimension", "gastinger_verify",
    ),
    "sweeps": ("sweep_uniqueness", "sweep_gamma6", "resume", "seed_grid", "strip_timing"),
}

# Both sweep entry points are one layer: the shared grid and checkpoint loop.
SPAN_NAMES = {
    ("sweeps", "sweep_uniqueness"): "sweeps.sweep",
    ("sweeps", "sweep_gamma6"): "sweeps.sweep",
}


def _box(args, kwargs) -> int:
    """Product of the pure-power bounds standard_monomials will enumerate."""
    basis = kwargs.get("basis", args[0] if args else ())
    nvars = kwargs.get("nvars", args[1] if len(args) > 1 else 0)
    bounds = [None] * nvars
    for m in basis:
        support = [i for i, e in enumerate(m) if e > 0]
        if len(support) == 1:
            i = support[0]
            if bounds[i] is None or m[i] < bounds[i]:
                bounds[i] = m[i]
    return 0 if any(b is None for b in bounds) else prod(bounds)


def _checkpoint_size(args, kwargs) -> int:
    path = kwargs.get("checkpoint_path")
    return os.path.getsize(path) if path and os.path.exists(path) else 0


# Work counters read from a traced call, by span: counter -> f(args, kwargs,
# result).  Each runs after the span closes.
COUNTERS = {
    "oracle.orders_up_to": {"oracle.orders_up_to.cells": lambda a, k, r: len(r)},
    "oracle.membership_mask": {
        "oracle.membership_mask.bits": lambda a, k, r: k.get("limit", a[1] if len(a) > 1 else 0) + 1,
    },
    "ideal.buchberger": {
        "ideal.buchberger.basis_in": lambda a, k, r: sum(p is not None for p in a[0]),
        "ideal.buchberger.basis_out": lambda a, k, r: len(r.elements),
    },
    "ideal.standard_monomials": {
        "ideal.standard_monomials.box": lambda a, k, r: _box(a, k),
        "ideal.standard_monomials.kept": lambda a, k, r: 0 if r is None else len(r),
    },
    "sweeps.resume": {"sweeps.resume.lines_read": lambda a, k, r: r.valid_lines + (r.corrupt_line is not None)},
    "sweeps.sweep": {
        "sweeps.records_reused": lambda a, k, r: r.reused,
        "sweeps.records_computed": lambda a, k, r: len(r.records) - r.reused,
    },
}


class Tracer:
    """Collects spans and counters; one instance per traced pass."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, perf_counter(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        end = perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, end, parent)

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn):
        counters = COUNTERS.get(name, {})
        sizes_checkpoint = name == "sweeps.sweep"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            size0 = _checkpoint_size(args, kwargs) if sizes_checkpoint else 0
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            for counter, read in counters.items():
                self.count(counter, read(args, kwargs, result))
            if sizes_checkpoint:
                self.count("sweeps.checkpoint_bytes_written", _checkpoint_size(args, kwargs) - size0)
            return result

        return traced


def _package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if m is not None and (n == "apsum" or n.startswith("apsum."))]


@contextmanager
def installed(tracer: Tracer):
    """Route every import site of the traced functions through the tracer.

    Every apsum module attribute bound to a traced function is replaced, so
    a call through any ``from .x import f`` is traced.  A traced name the
    package no longer has is skipped: its work then shows in its caller.
    """
    wrapped = {}
    for short, names in TRACED.items():
        module = sys.modules[f"apsum.{short}"]
        for fname in names:
            fn = getattr(module, fname, None)
            if fn is not None:
                wrapped[id(fn)] = (fn, tracer.wrap(SPAN_NAMES.get((short, fname), f"{short}.{fname}"), fn))
    patched = []
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched.append((module, attr, value))
    try:
        yield tracer
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


def self_times(spans) -> dict[str, tuple[int, float]]:
    """name -> (calls, self seconds): span time minus time in direct children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, tuple[int, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - child_time[i])
    return out


def calls_under(spans, name: str, parent_name: str) -> int:
    """Number of spans called name whose direct parent is called parent_name."""
    return sum(1 for n, _, _, p in spans if n == name and p >= 0 and spans[p][0] == parent_name)
