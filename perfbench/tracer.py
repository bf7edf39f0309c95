"""Spans around the public functions of qentropy, recorded from outside.

install() swaps each traced function for a wrapper in every qentropy module
namespace that holds it (modules import each other's functions by name, so
patching only the defining module would miss internal calls).  Each call
appends one span [name, start, end, parent, error, attrs] to an in-memory
list; layer_metrics() turns the spans into the per-layer metrics and
summary() into per-name call counts, inclusive and self times.

Standard library only.
"""

from __future__ import annotations

import functools
import sys
import time

# span fields
NAME, START, END, PARENT, ERROR, ATTRS = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name, attrs=None, post=None):
        """Wrap fn in a span.  name is a string or a function of the call's
        arguments; attrs(result) gives counts to store on the span; post(result)
        may replace the result (used to trace returned closures)."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [
                name if isinstance(name, str) else name(*args, **kwargs),
                clock(), 0.0, stack[-1] if stack else -1, None, None,
            ]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[ERROR] = type(exc).__name__
                if attrs is not None and hasattr(exc, "iterations"):
                    record[ATTRS] = {"iterations": exc.iterations}
                raise
            finally:
                record[END] = clock()
                stack.pop()
            if attrs is not None:
                record[ATTRS] = attrs(result)
            return result if post is None else post(result)

        return traced


def _replace_everywhere(original, replacement) -> None:
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "qentropy" or module_name.startswith("qentropy.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the benchmark reports on."""
    from qentropy import cli, dyadic, entropy, maxent, measure, qcalc, serialize, tsallis, verify

    def function(module, attr, name, attrs=None, post=None):
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.wrap(original, name, attrs, post))

    function(cli, "run", lambda spec: f"cli.{spec.command}")
    function(serialize, "load_input", "serialize.load_input")
    function(serialize, "dumps", "serialize.dumps")
    function(
        serialize, "expression_function", "serialize.expression_function",
        post=lambda evaluate: tracer.wrap(evaluate, "serialize.expression"),
    )
    function(measure, "uniform_partition", "measure.uniform_partition",
             attrs=lambda partition: {"cells": len(partition)})
    function(qcalc, "q_exp", "qcalc.q_exp")
    function(qcalc, "q_log", "qcalc.q_log")
    for attr in ("shannon_entropy", "kl_divergence", "measure_entropy", "renyi_entropy",
                 "renyi_divergence", "tsallis_entropy", "tsallis_divergence"):
        function(entropy, attr, f"entropy.{attr}")
    for attr in ("from_function", "from_values"):
        original = vars(dyadic.BaseGridDensity)[attr].__func__
        setattr(dyadic.BaseGridDensity, attr,
                classmethod(tracer.wrap(original, "dyadic.grid_build")))
    function(dyadic, "dyadic_approximation", "dyadic.approximation")
    function(dyadic, "common_refinement", "dyadic.refinement",
             attrs=lambda refinement: {"cells": refinement.cell_count})
    function(dyadic, "reference_divergence", "dyadic.reference")
    function(dyadic, "convergence_table", "dyadic.table")
    function(dyadic, "entropy_nonextension_demo", "dyadic.demo")
    function(maxent, "solve_maxent", "maxent.solve",
             attrs=lambda solution: {"iterations": solution.iterations})
    function(maxent, "thermo_residuals", "maxent.audit")
    function(tsallis, "solve_tsallis_maxent", "tsallis.solve",
             attrs=lambda solution: {"outer": solution.iterations[0],
                                     "inner": solution.iterations[1]})
    function(tsallis, "tsallis_thermo", "tsallis.audit")
    function(verify, "run_suite", lambda name, *args, **kwargs: f"verify.{name}")


def _ancestor_names(spans, index):
    names = set()
    parent = spans[index][PARENT]
    while parent >= 0:
        names.add(spans[parent][NAME])
        parent = spans[parent][PARENT]
    return names


def summary(spans) -> dict:
    """Per span name: calls, errors, inclusive and self milliseconds."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    out: dict[str, dict] = {}
    for index, span in enumerate(spans):
        entry = out.setdefault(span[NAME], {"calls": 0, "errors": 0, "inclusive_ms": 0.0, "self_ms": 0.0})
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["errors"] += span[ERROR] is not None
        entry["inclusive_ms"] += 1e3 * duration
        entry["self_ms"] += 1e3 * (duration - child_time[index])
    return out


CLI_VERBS = ("entropy", "divergence", "approx", "maxent", "verify", "demo")
SUITES = ("qcalc", "measures", "dyadic", "maxent", "tsallis")


def layer_metrics(spans, operations: int, import_ms: float) -> dict:
    """The per-layer metrics of one traced phase of `operations` operations,
    as name -> (value, unit).  A time is the mean inclusive time per call of
    its function; a count/op is a count per benchmark operation."""
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(index)

    def durations(indices):
        return [spans[i][END] - spans[i][START] for i in indices]

    def mean_ms(indices, scale=1e3):
        values = durations(indices)
        return scale * sum(values) / len(values) if values else 0.0

    def per_op(value):
        return value / operations

    def attr_sum(indices, key):
        return sum((spans[i][ATTRS] or {}).get(key, 0) for i in indices)

    def split(name, audit):
        nested, top = [], []
        for i in by_name.get(name, []):
            (nested if audit in _ancestor_names(spans, i) else top).append(i)
        return top, nested

    m = {"import.qentropy_ms": (import_ms, "ms")}
    for verb in CLI_VERBS:
        m[f"cli.{verb}_ms"] = (mean_ms(by_name.get(f"cli.{verb}", [])), "ms")
    m["serialize.load_input_ms"] = (mean_ms(by_name.get("serialize.load_input", [])), "ms")
    m["serialize.dumps_ms"] = (mean_ms(by_name.get("serialize.dumps", [])), "ms")
    # per compiled expression: its compilation plus all of its evaluations
    compiled = by_name.get("serialize.expression_function", [])
    expression_s = sum(durations(compiled)) + sum(durations(by_name.get("serialize.expression", [])))
    m["serialize.expression_ms"] = (1e3 * expression_s / len(compiled) if compiled else 0.0, "ms")
    partitions = by_name.get("measure.uniform_partition", [])
    m["measure.uniform_partition_ms"] = (mean_ms(partitions), "ms")
    m["measure.cells_built"] = (per_op(attr_sum(partitions, "cells")), "count/op")
    m["qcalc.q_exp_ms"] = (mean_ms(by_name.get("qcalc.q_exp", [])), "ms")
    m["qcalc.q_exp_calls"] = (per_op(len(by_name.get("qcalc.q_exp", []))), "count/op")
    m["qcalc.q_log_calls"] = (per_op(len(by_name.get("qcalc.q_log", []))), "count/op")
    m["entropy.renyi_divergence_us"] = (mean_ms(by_name.get("entropy.renyi_divergence", []), 1e6), "us")
    m["entropy.tsallis_divergence_us"] = (mean_ms(by_name.get("entropy.tsallis_divergence", []), 1e6), "us")
    entropy_calls = sum(len(v) for k, v in by_name.items() if k.startswith("entropy."))
    m["entropy.calls"] = (per_op(entropy_calls), "count/op")
    m["dyadic.grid_build_ms"] = (mean_ms(by_name.get("dyadic.grid_build", [])), "ms")
    m["dyadic.approximation_ms"] = (mean_ms(by_name.get("dyadic.approximation", [])), "ms")
    refinements = by_name.get("dyadic.refinement", [])
    m["dyadic.refinement_ms"] = (mean_ms(refinements), "ms")
    m["dyadic.refinement_cells"] = (per_op(attr_sum(refinements, "cells")), "count/op")
    m["dyadic.reference_ms"] = (mean_ms(by_name.get("dyadic.reference", [])), "ms")
    m["dyadic.table_ms"] = (mean_ms(by_name.get("dyadic.table", [])), "ms")
    m["dyadic.demo_ms"] = (mean_ms(by_name.get("dyadic.demo", [])), "ms")

    solves, resolves = split("maxent.solve", "maxent.audit")
    stalled = [i for i in by_name.get("maxent.solve", []) if spans[i][ERROR] == "ConvergenceError"]
    m["maxent.solve_ms"] = (mean_ms(solves), "ms")
    m["maxent.newton_iterations"] = (per_op(attr_sum(solves + resolves, "iterations")), "count/op")
    m["maxent.audit_ms"] = (mean_ms(by_name.get("maxent.audit", [])), "ms")
    m["maxent.audit_resolves"] = (per_op(len(resolves)), "count/op")
    m["maxent.stalled_solves"] = (per_op(len(stalled)), "count/op")
    m["maxent.stall_ms"] = (mean_ms(stalled), "ms")

    solves, resolves = split("tsallis.solve", "tsallis.audit")
    m["tsallis.solve_ms"] = (mean_ms(solves), "ms")
    m["tsallis.outer_iterations"] = (per_op(attr_sum(solves + resolves, "outer")), "count/op")
    m["tsallis.inner_iterations"] = (per_op(attr_sum(solves + resolves, "inner")), "count/op")
    m["tsallis.audit_ms"] = (mean_ms(by_name.get("tsallis.audit", [])), "ms")
    m["tsallis.audit_resolves"] = (per_op(len(resolves)), "count/op")
    for suite in SUITES:
        m[f"verify.{suite}_ms"] = (mean_ms(by_name.get(f"verify.{suite}", [])), "ms")
    return m
