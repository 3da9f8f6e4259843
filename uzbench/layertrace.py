"""Outside-in tracing of uzeta: spans around public calls, and call counters.

Nothing here edits the program.  ``install_spans`` replaces a fixed list
of public functions and methods with wrappers that record one span per
call: ``[name, start, end, parent index, attrs]``, kept in memory and
written out by the caller when the workload is done.  ``install_counters``
wraps the field multiply and inverse with bare counters; it runs in a
separate process, because timing every field operation would distort the
span times.  ``layer_metrics`` turns a span list into the per-layer
metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List

Span = list  # [name, start, end, parent index (-1 at top level), attrs]


def _solve_sizes(system, *_args, **_kw):
    unknowns = set()
    nnz = 0
    for coeffs, _rhs in system.rows:
        unknowns.update(coeffs)
        nnz += len(coeffs)
    return {"rows": len(system.rows), "unknowns": len(unknowns), "nnz": nnz}


def _split_key(m, kind, *_args, **_kw):
    return {"module": m.label, "kind": kind}


def _module_dim(result):
    return {"dim": result.dim}


# (module, attribute path, span name, attrs from the arguments, attrs from the result)
SPAN_TARGETS = (
    ("uzeta.cli", "make_context", "cli.make_context", None, None),
    ("uzeta.qmodules", "realize_text", "qmodules.realize", None, _module_dim),
    ("uzeta.qmodules", "WeightedModule.check", "qmodules.check", None, None),
    ("uzeta.inject", "free_over_root", "inject.freeness", None, None),
    ("uzeta.inject", "module_generators", "inject.generators", None, None),
    ("uzeta.inject", "projective_split_test", "inject.split", _split_key, None),
    ("uzeta.linalg", "LinearSystem.solve", "linalg.solve", _solve_sizes, None),
    ("uzeta.linalg", "kernel_basis", "linalg.kernel_basis", None, None),
    ("uzeta.kernelalg", "KernelAlgebra.lmul_monomial", "kernelalg.lmul_monomial", None, None),
    ("uzeta.cohomlite", "minimal_resolution", "cohomlite.resolution", None, None),
)

COUNT_TARGETS = (
    ("uzeta.scalars", "CycloField._mul", "scalars.mul_calls"),
    ("uzeta.scalars", "GaloisField._mul", "scalars.mul_calls"),
    ("uzeta.scalars", "CycloField._inv", "scalars.inv_calls"),
    ("uzeta.scalars", "GaloisField._inv", "scalars.inv_calls"),
)


def _replace(module_name: str, path: str, make: Callable[[Callable], Callable]) -> None:
    """Swap the target for make(original) wherever uzeta binds it.

    A module function is also rebound in every uzeta module that imported
    it by name (``from .linalg import kernel_basis``).
    """
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    original = getattr(owner, attr)
    wrapper = make(original)
    setattr(owner, attr, wrapper)
    if owner_name:
        return
    for name, mod in list(sys.modules.items()):
        if name.startswith("uzeta.") and getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapper)


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def wrap(self, fn: Callable, name: str, before=None, after=None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = before(*args, **kwargs) if before else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, attrs]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after:
                span[4] = after(result)
            return result

        return traced


def install_spans(tracer: Tracer) -> None:
    for module_name, path, name, before, after in SPAN_TARGETS:
        _replace(
            module_name, path,
            lambda fn, name=name, before=before, after=after: tracer.wrap(fn, name, before, after),
        )


def install_counters(counts: Dict[str, int]) -> None:
    for module_name, path, name in COUNT_TARGETS:
        counts.setdefault(name, 0)

        def make(fn, name=name):
            @functools.wraps(fn)
            def counted(*args):
                counts[name] += 1
                return fn(*args)

            return counted

        _replace(module_name, path, make)


# ---------------------------------------------------------------------------
# per-layer metrics

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "cli.make_context_s": "s",
    "cli.make_context_calls": "count",
    "qmodules.realize_s": "s",
    "qmodules.realize_calls": "count",
    "qmodules.module_dim_sum": "count",
    "qmodules.check_s": "s",
    "inject.freeness_s": "s",
    "inject.freeness_calls": "count",
    "inject.split_s": "s",
    "inject.split_calls": "count",
    "inject.generators_s": "s",
    "inject.split_self_s": "s",
    "inject.split_repeats": "count",
    "inject.split_repeat_frac": "frac",
    "linalg.solve_s": "s",
    "linalg.solve_calls": "count",
    "linalg.solve_rows": "count",
    "linalg.solve_unknowns": "count",
    "linalg.solve_nnz": "count",
    "linalg.kernel_basis_s": "s",
    "linalg.kernel_basis_calls": "count",
    "kernelalg.lmul_monomial_s": "s",
    "kernelalg.lmul_monomial_calls": "count",
    "cohomlite.resolution_s": "s",
    "cohomlite.resolution_self_s": "s",
    "scalars.mul_calls": "count",
    "scalars.inv_calls": "count",
    "trace.coverage_frac": "frac",
    "trace.overhead_frac": "frac",
}


def layer_metrics(
    spans: List[Span], traced_wall: float, untraced_wall: float, counts: Dict[str, int]
) -> Dict[str, float]:
    """Per-layer totals of one traced process.

    ``*_s`` is the time inside spans of that name (none of the wrapped
    calls re-enters itself), ``*_self_s`` that time minus the child spans
    it contains.  ``trace.coverage_frac``
    is the share of the traced process's wall time inside top-level spans;
    ``trace.overhead_frac`` is traced over untraced wall time, minus one.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: Dict[str, float] = {}
    own: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    attr_sum: Dict[str, float] = {}
    top = 0.0
    seen_splits = set()
    repeats = 0
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + dur - child_time[i]
        total[name] = total.get(name, 0.0) + dur
        if parent < 0:
            top += dur
        if attrs:
            if name == "inject.split":
                key = (attrs["module"], attrs["kind"])
                repeats += key in seen_splits
                seen_splits.add(key)
            else:
                for k, v in attrs.items():
                    attr_sum[f"{name}.{k}"] = attr_sum.get(f"{name}.{k}", 0) + v
    n_split = calls.get("inject.split", 0)
    out = {
        "cli.make_context_s": total.get("cli.make_context", 0.0),
        "cli.make_context_calls": calls.get("cli.make_context", 0),
        "qmodules.realize_s": total.get("qmodules.realize", 0.0),
        "qmodules.realize_calls": calls.get("qmodules.realize", 0),
        "qmodules.module_dim_sum": attr_sum.get("qmodules.realize.dim", 0),
        "qmodules.check_s": total.get("qmodules.check", 0.0),
        "inject.freeness_s": total.get("inject.freeness", 0.0),
        "inject.freeness_calls": calls.get("inject.freeness", 0),
        "inject.split_s": total.get("inject.split", 0.0),
        "inject.split_calls": n_split,
        "inject.generators_s": total.get("inject.generators", 0.0),
        "inject.split_self_s": own.get("inject.split", 0.0),
        "inject.split_repeats": repeats,
        "inject.split_repeat_frac": repeats / n_split if n_split else 0.0,
        "linalg.solve_s": total.get("linalg.solve", 0.0),
        "linalg.solve_calls": calls.get("linalg.solve", 0),
        "linalg.solve_rows": attr_sum.get("linalg.solve.rows", 0),
        "linalg.solve_unknowns": attr_sum.get("linalg.solve.unknowns", 0),
        "linalg.solve_nnz": attr_sum.get("linalg.solve.nnz", 0),
        "linalg.kernel_basis_s": total.get("linalg.kernel_basis", 0.0),
        "linalg.kernel_basis_calls": calls.get("linalg.kernel_basis", 0),
        "kernelalg.lmul_monomial_s": total.get("kernelalg.lmul_monomial", 0.0),
        "kernelalg.lmul_monomial_calls": calls.get("kernelalg.lmul_monomial", 0),
        "cohomlite.resolution_s": total.get("cohomlite.resolution", 0.0),
        "cohomlite.resolution_self_s": own.get("cohomlite.resolution", 0.0),
        "scalars.mul_calls": counts.get("scalars.mul_calls", 0),
        "scalars.inv_calls": counts.get("scalars.inv_calls", 0),
        "trace.coverage_frac": top / traced_wall,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    }
    assert list(out) == list(PER_LAYER)
    return out
