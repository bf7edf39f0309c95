"""JSON input schemas and deterministic output serialization for the CLI.

Floats are emitted in shortest round-trip decimal form (repr), infinities as
the strings "inf"/"-inf" since JSON has no infinity literal.  Field order is
insertion order throughout, so identical inputs give byte-identical output.
"""

from __future__ import annotations

import ast
import json
import math
from dataclasses import is_dataclass, fields

import numpy as np

from .measure import (
    MAX_CELLS,
    DensityVector,
    ProbabilityVector,
    WeightedPartition,
    check_capped,
    uniform_partition,
)

__all__ = [
    "json_ready",
    "dumps",
    "load_input",
    "partition_to_dict",
    "partition_from_obj",
    "pmf_from_obj",
    "density_from_obj",
    "expression_function",
]


def json_ready(obj):
    """Recursively convert to plain JSON types; non-finite floats to strings."""
    if isinstance(obj, dict):
        return {str(k): json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [json_ready(v) for v in obj.tolist()]
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: json_ready(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    return obj


def dumps(obj) -> str:
    return json.dumps(json_ready(obj), indent=2, allow_nan=False) + "\n"


def load_input(source: str):
    """Parse inline JSON (starts with '{') or read the file at the given path."""
    text = source
    if not source.lstrip().startswith("{"):
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"input: not valid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise ValueError("input: top-level JSON value must be an object")
    return obj


def partition_to_dict(partition: WeightedPartition) -> dict:
    labels = partition.labels or [f"c{k}" for k in range(len(partition))]
    cells = [{"label": label} for label in labels]
    if partition.left is not None:
        for entry, left, right in zip(cells, partition.left.tolist(), partition.right.tolist()):
            if not math.isnan(left):
                entry["left"] = left
                entry["right"] = right
    return {"cells": cells, "weights": json_ready(partition.weights)}


def partition_from_obj(obj) -> WeightedPartition:
    """Full form {"cells": [...], "weights": [...]} or the uniform shorthand
    {"n": 4, "mode": "counting" | "uniform_probability" | "lebesgue",
     "interval": [a, b]}, with n at most MAX_CELLS."""
    if not isinstance(obj, dict):
        raise ValueError("partition: expected a JSON object")
    if "n" in obj:
        n = check_capped(obj["n"], "partition.n", cap=MAX_CELLS)
        interval = obj.get("interval", (0.0, 1.0))
        if not (isinstance(interval, (list, tuple)) and len(interval) == 2):
            raise ValueError(f"partition.interval: expected [a, b], got {interval!r}")
        return uniform_partition(n, obj.get("mode", "counting"), interval)
    if "cells" not in obj or "weights" not in obj:
        raise ValueError("partition: need either 'n' shorthand or 'cells' and 'weights'")
    cells, weights = obj["cells"], obj["weights"]
    if not (isinstance(cells, list) and isinstance(weights, list)):
        raise ValueError("partition: 'cells' and 'weights' must be arrays")
    labels, left, right = [], [], []
    for k, entry in enumerate(cells):
        if isinstance(entry, str):
            entry = {"label": entry}
        if not isinstance(entry, dict) or "label" not in entry:
            raise ValueError(f"partition.cells[{k}]: need a label")
        labels.append(str(entry["label"]))
        left.append(entry.get("left"))
        right.append(entry.get("right"))
    # numpy reads a missing edge (None) as NaN, the mark of a cell without interval
    return WeightedPartition(weights, left, right, labels)


def _vector(obj, field: str) -> np.ndarray:
    values = np.asarray(obj, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError(f"{field}: expected a nonempty flat array of numbers")
    return values


def pmf_from_obj(obj, field: str = "pmf") -> ProbabilityVector:
    return ProbabilityVector(_vector(obj, field))


def density_from_obj(obj, partition: WeightedPartition, field: str = "density") -> DensityVector:
    return DensityVector(_vector(obj, field), partition)


_ALLOWED_CALLS = {
    "abs": np.abs,
    "sqrt": np.sqrt,
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "minimum": np.minimum,
    "maximum": np.maximum,
    "where": np.where,
}
_ALLOWED_NAMES = {"x": None, "pi": np.float64(math.pi), "e": np.float64(math.e)}
_ALLOWED_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Call,
    ast.Name,
    ast.Load,
    ast.Constant,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Pow,
    ast.Mod,
    ast.USub,
    ast.UAdd,
    ast.Compare,
    ast.Lt,
    ast.LtE,
    ast.Gt,
    ast.GtE,
    ast.Tuple,
)


class _FloatConstants(ast.NodeTransformer):
    """Replace each numeric literal by a name bound to its float64 value, so
    no Python int arithmetic (unbounded in time and memory) can run."""

    def __init__(self) -> None:
        self.values: dict[str, np.float64] = {}

    def visit_Constant(self, node: ast.Constant) -> ast.Name:
        name = f"_c{len(self.values)}"
        try:
            self.values[name] = np.float64(node.value)
        except OverflowError:  # an int literal beyond the float range
            self.values[name] = np.float64(math.inf)
        return ast.copy_location(ast.Name(id=name, ctx=ast.Load()), node)


def expression_function(expr: str):
    """Compile a density expression in the variable x (numpy elementwise).

    Only arithmetic, comparisons, and a small whitelist of functions are
    allowed; anything else is rejected by AST inspection before evaluation.
    Numeric constants are float64, so an overflow gives inf or nan (which
    the grid builders reject as non-finite) instead of a huge integer.
    """
    if not isinstance(expr, str) or not expr.strip():
        raise ValueError("expr: expected a nonempty expression string")
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"expr: {exc.msg} in {expr!r}") from exc
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ValueError(
                f"expr: {type(node).__name__} is not allowed in density expressions"
            )
        if isinstance(node, ast.Name) and node.id not in _ALLOWED_NAMES and node.id not in _ALLOWED_CALLS:
            raise ValueError(f"expr: unknown name {node.id!r}")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_CALLS:
                raise ValueError("expr: only whitelisted function calls are allowed")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ValueError(f"expr: constant {node.value!r} is not numeric")
    constants = _FloatConstants()
    tree = ast.fix_missing_locations(constants.visit(tree))
    code = compile(tree, "<density-expr>", "eval")
    namespace = dict(_ALLOWED_CALLS)
    namespace.update({k: v for k, v in _ALLOWED_NAMES.items() if v is not None})
    namespace.update(constants.values)

    def evaluate(x: np.ndarray) -> np.ndarray:
        local = dict(namespace)
        local["x"] = x
        out = eval(code, {"__builtins__": {}}, local)
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(x))

    return evaluate
