"""JSON input schemas and deterministic output serialization for the CLI.

Every verb reads its input through one field table, FIELDS.  Each field has
a kind (int, float, choice, float array, int array, interval, partition,
grid density, constraint list, suite list), a range or cap, a default, and
the flag that overrides it.  read_fields returns the typed values or raises
ValueError naming the field path, and named is the one place where a library
fault gets the path of the input field it came from.  Numbers must be JSON
numbers: booleans and numeric strings are refused, never coerced.

Floats are emitted in shortest round-trip decimal form (repr), infinities as
the strings "inf"/"-inf" since JSON has no infinity literal.  Field order is
insertion order throughout, so identical inputs give byte-identical output.
"""

from __future__ import annotations

import ast
import json
import math
from dataclasses import is_dataclass, fields
from typing import NamedTuple

import numpy as np

from .measure import (
    MAX_BASE_EXPONENT,
    MAX_CELLS,
    _RESCALE_ADVICE,
    WeightedPartition,
    blocks,
    check_interval,
    uniform_partition,
)
from .verify import SUITES

__all__ = [
    "MAX_INPUT_CHARS",
    "Field",
    "FIELDS",
    "json_ready",
    "dumps",
    "load_input",
    "read_fields",
    "named",
    "partition_from_obj",
    "expression_function",
]

# cap on the --input text, inline or read from a file, checked before
# parsing; parsed JSON takes at most about 24 bytes per character
MAX_INPUT_CHARS = 2**23
# caps on the counts that size work
MAX_ITERATIONS = 10**4
MAX_SAMPLES = 10**4
MAX_ENTRIES = 64
_CELL_CAP = f"partitions and grids hold at most 2^{MAX_BASE_EXPONENT} cells"


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
    """Parse inline JSON (starts with '{') or read the file at the given path,
    refusing more than MAX_INPUT_CHARS characters before parsing."""
    text = source
    if not source.lstrip().startswith("{"):
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read(MAX_INPUT_CHARS + 1)
    if len(text) > MAX_INPUT_CHARS:
        raise ValueError(f"input: longer than the cap of {MAX_INPUT_CHARS} characters")
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("input: JSON nested too deeply") from None
    except ValueError as exc:
        raise ValueError(f"input: not valid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise ValueError("input: top-level JSON value must be an object")
    return obj


REQUIRED = "required"  # the default of a field that must be given


class Field(NamedTuple):
    """One input field.  kind names its reader; low..high bounds an int (or each
    entry of an int array) inclusively and a float exclusively; length caps a
    list; choices maps each accepted name to the value read; note explains a cap;
    flag is the option that overrides the field, read as its argparse attribute."""

    kind: str
    default: object = None
    flag: str | None = None
    low: float | None = None
    high: float | None = None
    length: int | None = None
    choices: dict | None = None
    note: str = ""


def _names(*names: str, **aliases: str) -> dict:
    return {**{name: name for name in names}, **aliases}


def _show(value) -> str:
    if isinstance(value, (list, tuple)):
        return f"an array of length {len(value)}"
    if isinstance(value, dict):
        return "an object"
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _fail(path: str, need: str, value):
    raise ValueError(f"{path}: need {need}, got {_show(value)}")


def named(table: dict, build, *args):
    """build(*args), a ValueError about a library argument in table re-raised
    under that argument's field path.  An indexed argument keeps its index at
    the path's [m] (functions[2] -> constraints[2].values) and a bare one
    takes the path before [m] (functions -> constraints).  The library's
    renormalize=True advice is dropped: no input field asks to renormalize."""
    try:
        return build(*args)
    except ValueError as exc:
        name, _, reason = str(exc).partition(": ")
        argument, bracket, index = name.partition("[")
        if argument not in table:
            raise
        path = table[argument]
        path = path.replace("[m]", bracket + index) if bracket else path.partition("[m]")[0]
        raise ValueError(f"{path}: {reason.removesuffix(_RESCALE_ADVICE)}") from None


_NUMBERS = {int, float}  # exact types: bool is refused


def _read_int(value, field: Field, path: str) -> int:
    if not (type(value) is int and field.low <= value <= field.high):
        note = f" ({field.note})" if field.note else ""
        _fail(path, f"an integer in {field.low}..{field.high}{note}", value)
    return value


def _as_float(value) -> float:
    try:
        return float(value)
    except OverflowError:  # an int beyond the float range
        return math.inf


def _read_float(value, field: Field, path: str) -> float:
    number = _as_float(value) if type(value) in _NUMBERS else math.nan
    low = -math.inf if field.low is None else field.low
    high = math.inf if field.high is None else field.high
    if not (math.isfinite(number) and low < number < high):
        span = "" if field.low is None else f" > {low:g}" if field.high is None else f" in ({low:g}, {high:g})"
        _fail(path, "a finite number" + span, value)
    return number


def _read_choice(value, field: Field, path: str) -> str:
    if not (type(value) is str and value in field.choices):
        _fail(path, "one of " + ", ".join(field.choices), value)
    return field.choices[value]


def _read_list(value, field: Field, path: str, least: int = 1) -> list:
    if not (type(value) in (list, tuple) and least <= len(value) <= (field.length or math.inf)):
        need = "a nonempty array" if least else "an array"
        _fail(path, need + (f" of at most {field.length} entries" if field.length else ""), value)
    return value


def _read_floats(value, field: Field, path: str) -> np.ndarray:
    value = _read_list(value, field, path)
    if not set(map(type, value)) <= _NUMBERS:
        k = next(k for k, v in enumerate(value) if type(v) not in _NUMBERS)
        _fail(f"{path}[{k}]", "a finite number", value[k])
    try:
        array = np.array(value, dtype=float)
    except OverflowError:
        array = np.array([_as_float(v) for v in value])
    finite = np.isfinite(array)
    if not np.all(finite):
        k = int(np.argmin(finite))
        _fail(f"{path}[{k}]", "a finite number", value[k])
    return array


def _read_ints(value, field: Field, path: str) -> list:
    return [_read_int(v, field, f"{path}[{k}]") for k, v in enumerate(_read_list(value, field, path))]


def _read_suites(value, field: Field, path: str) -> list:
    value = _read_list(value, field, path, least=0)
    return [_read_choice(v, field, f"{path}[{k}]") for k, v in enumerate(value)]


def _read_interval(value, field: Field, path: str) -> tuple[float, float]:
    if not (type(value) in (list, tuple) and len(value) == 2):
        _fail(path, "[a, b] with finite a < b", value)
    a, b = (_read_float(v, Field("float"), f"{path}[{k}]") for k, v in enumerate(value))
    return named({"interval": path}, check_interval, (a, b))


def _read_label(value, field: Field, path: str) -> str:
    if type(value) not in (str, int, float):
        _fail(path, "a string or a number", value)
    return str(value)


def _read_grid(value, field: Field, path: str):
    """A base-grid density as given: the compiled expression in x, or the values."""
    if type(value) is dict and "expr" in value:
        if type(value["expr"]) is not str:
            _fail(f"{path}.expr", "an expression string", value["expr"])
        return named({"expr": f"{path}.expr"}, expression_function, value["expr"])
    if type(value) is not list:
        _fail(path, '{"expr": ...} or an array of numbers', value)
    return _read_floats(value, field, path)


def _read_constraints(value, field: Field, path: str) -> tuple[list, list]:
    entries = [
        _read_object(entry, CONSTRAINT_FIELDS, f"{path}[{k}]")
        for k, entry in enumerate(_read_list(value, field, path, least=0))
    ]
    return [e["values"] for e in entries], [e["target"] for e in entries]


_READERS = {
    "int": _read_int,
    "float": _read_float,
    "choice": _read_choice,
    "label": _read_label,
    "float array": _read_floats,
    "int array": _read_ints,
    "interval": _read_interval,
    "partition": lambda value, field, path: partition_from_obj(value, path),
    "grid density": _read_grid,
    "constraint list": _read_constraints,
    "suite list": _read_suites,
}


def _read_object(obj, table: dict, path: str = "", flags=None) -> dict:
    """Every field of the table, typed: a given flag wins over the field, a
    present field over its default."""
    if type(obj) is not dict:
        _fail(path or "input", "a JSON object", obj)
    out = {}
    for name, field in table.items():
        where = f"{path}.{name}" if path else name
        value = None
        if field.flag is not None and flags is not None:
            value = getattr(flags, field.flag[2:].replace("-", "_"))
        if value is not None:
            where = field.flag
        elif name in obj:
            value = obj[name]
        elif field.default is REQUIRED:
            give = f"{field.flag} or " if field.flag else ""
            raise ValueError(f"{where}: the input needs {give}a {name!r} field")
        else:
            out[name] = field.default
            continue
        out[name] = _READERS[field.kind](value, field, where)
    return out


_INDEX_FIELDS = {
    "alpha": Field("float", flag="--alpha", low=0.0),
    "q": Field("float", flag="--q", low=0.0),
    "index": Field("float", low=0.0),
}
_UNIT = (0.0, 1.0)
PARTITION_FIELDS = {
    "n": Field("int", REQUIRED, low=1, high=MAX_CELLS, note=_CELL_CAP),
    "mode": Field("choice", "counting", choices=_names("counting", "uniform_probability", "lebesgue")),
    "interval": Field("interval", _UNIT),
}
CELL_FIELDS = {
    "label": Field("label", REQUIRED),
    "left": Field("float"),
    "right": Field("float"),
}
CONSTRAINT_FIELDS = {
    "values": Field("float array", REQUIRED),
    "target": Field("float", REQUIRED),
}
FIELDS = {
    "entropy": {
        "kind": Field("choice", flag="--kind", choices=_names("shannon", "renyi", "tsallis", "measure")),
        **_INDEX_FIELDS,
        "partition": Field("partition"),
        "density": Field("float array"),
        "pmf": Field("float array"),
    },
    "divergence": {
        "kind": Field("choice", flag="--kind", choices=_names("kl", "renyi", "tsallis")),
        **_INDEX_FIELDS,
        "p": Field("float array", REQUIRED),
        "r": Field("float array", REQUIRED),
        "partition": Field("partition"),
    },
    "approx": {
        "kind": Field("choice", flag="--kind", choices=_names("renyi", "tsallis")),
        **_INDEX_FIELDS,
        "p": Field("grid density", REQUIRED),
        "r": Field("grid density", REQUIRED),
        "interval": Field("interval", _UNIT),
        "base_exponent": Field("int", 20, "--base-resolution", 1, MAX_BASE_EXPONENT, note=_CELL_CAP),
        "levels": Field("int array", REQUIRED, "--levels", 1, MAX_BASE_EXPONENT, note=_CELL_CAP),
    },
    "maxent": {
        "kind": Field("choice", "ordinary", "--kind",
                      choices=_names("ordinary", "escort", shannon="ordinary", tsallis="escort")),
        "q": _INDEX_FIELDS["q"],
        "partition": Field("partition", REQUIRED),
        "constraints": Field("constraint list", REQUIRED, length=MAX_ENTRIES),
        "tolerance": Field("float", 1e-10, "--tol", 0.0, 1.0),
        "fd_step": Field("float", 1e-4, low=0.0, high=1.0),
        "max_iterations": Field("int", 200, low=1, high=MAX_ITERATIONS),
        "max_outer": Field("int", 100, low=1, high=MAX_ITERATIONS),
        "max_inner": Field("int", 500, low=1, high=MAX_ITERATIONS),
    },
    "verify": {
        "suites": Field("suite list", tuple(SUITES), length=len(SUITES), choices=_names(*SUITES)),
        "seed": Field("int", 0, "--seed", 0, 2**63 - 1),
        "samples": Field("int", 2000, low=1, high=MAX_SAMPLES),
    },
    "demo": {
        "n_list": Field("int array", tuple(2**k for k in range(1, 11)), None, 1, MAX_CELLS,
                        length=MAX_ENTRIES, note=_CELL_CAP),
        "interval": Field("interval", _UNIT),
        "resolution_exponent": Field("int", 16, "--base-resolution", 0, MAX_BASE_EXPONENT,
                                     note=_CELL_CAP),
    },
}


def read_fields(verb: str, obj: dict, flags=None) -> dict:
    """The verb's input fields as typed values.  flags is any object with an
    attribute per option (None when not given); a given flag wins."""
    return _read_object(obj, FIELDS[verb], "", flags)


def partition_from_obj(obj, path: str = "partition") -> WeightedPartition:
    """Full form {"cells": [...], "weights": [...]} or the uniform shorthand
    {"n": 4, "mode": "counting" | "uniform_probability" | "lebesgue",
     "interval": [a, b]}, read through PARTITION_FIELDS and CELL_FIELDS.

    The cells are checked (one per weight, each a label with an optional
    interval [left, right), the intervals ordered and disjoint) and then
    dropped: no computation reads them."""
    if type(obj) is dict and "n" in obj:
        shorthand = _read_object(obj, PARTITION_FIELDS, path)
        return named({"interval": f"{path}.interval"}, uniform_partition,
                     shorthand["n"], shorthand["mode"], shorthand["interval"])
    if type(obj) is not dict:
        _fail(path, "a JSON object", obj)
    if "cells" not in obj or "weights" not in obj:
        raise ValueError(f"{path}: need either 'n' shorthand or 'cells' and 'weights'")
    cells, weights = obj["cells"], obj["weights"]
    if not (type(cells) is list and type(weights) is list):
        raise ValueError(f"{path}: 'cells' and 'weights' must be arrays")
    last_right = -math.inf
    for k, entry in enumerate(cells):
        field = f"{path}.cells[{k}]"
        cell = _read_object({"label": entry} if type(entry) is str else entry, CELL_FIELDS, field)
        left, right = cell["left"], cell["right"]
        if (left is None) != (right is None):
            raise ValueError(f"{field}: left and right must be given together")
        if left is None:
            continue
        if not left < right:
            raise ValueError(f"{field}: need left < right, got [{left}, {right})")
        if left < last_right:
            raise ValueError(f"{field}: interval cells must be ordered and disjoint")
        last_right = right
    where = f"{path}.weights"
    partition = named({"weights": where}, WeightedPartition,
                      _read_floats(weights, Field("float array"), where))
    if len(cells) != len(partition):
        raise ValueError(f"{path}.cells: need {len(partition)}, one per weight, got {len(cells)}")
    return partition


# each whitelisted function and the number of arguments it takes
_ALLOWED_CALLS = {
    **{name: (getattr(np, name), 1) for name in ("abs", "sqrt", "exp", "log", "sin", "cos", "tan")},
    "minimum": (np.minimum, 2),
    "maximum": (np.maximum, 2),
    "where": (np.where, 3),
}
# longer expressions would only cost time on every base cell
MAX_EXPR_CHARS = 1024
_ALLOWED_NAMES = {"x": None, "pi": np.float64(math.pi), "e": np.float64(math.e)}
_ALLOWED_NODES = tuple(
    getattr(ast, name)
    for name in "Expression BinOp UnaryOp Call Name Load Constant Add Sub Mult Div Pow Mod "
    "USub UAdd Compare Lt LtE Gt GtE".split()
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

    Every allowed call and operator is elementwise, so the compiled function
    evaluates x block by block (measure.blocks) into one fresh float array:
    the bits are those of one whole-array evaluation, and each step of the
    expression reads the block the step before it wrote while it is in cache.
    """
    if not isinstance(expr, str) or not expr.strip() or len(expr) > MAX_EXPR_CHARS:
        raise ValueError(f"expr: need a nonempty expression of at most {MAX_EXPR_CHARS} characters")
    try:
        tree = ast.parse(expr, mode="eval")
        callees = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if not isinstance(node, _ALLOWED_NODES):
                raise ValueError(
                    f"expr: {type(node).__name__} is not allowed in density expressions"
                )
            if isinstance(node, ast.Name) and node.id not in _ALLOWED_NAMES and id(node) not in callees:
                raise ValueError(f"expr: unknown name {node.id!r}")
            if isinstance(node, ast.Call):
                if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_CALLS:
                    raise ValueError("expr: only whitelisted function calls are allowed")
                arity = _ALLOWED_CALLS[node.func.id][1]
                if len(node.args) != arity:
                    raise ValueError(f"expr: {node.func.id} takes {arity} argument(s)")
            if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
                raise ValueError(f"expr: constant {node.value!r} is not numeric")
        constants = _FloatConstants()
        code = compile(ast.fix_missing_locations(constants.visit(tree)), "<density-expr>", "eval")
    except SyntaxError as exc:
        raise ValueError(f"expr: {exc.msg} in {expr!r}") from exc
    except (RecursionError, MemoryError):  # the parser reports a deep nest as MemoryError
        raise ValueError("expr: nested too deeply") from None
    namespace = {name: function for name, (function, _) in _ALLOWED_CALLS.items()}
    namespace.update({k: v for k, v in _ALLOWED_NAMES.items() if v is not None})
    namespace.update(constants.values)

    def evaluate(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        out = np.empty(x.shape)
        flat_x, flat_out = x.reshape(-1), out.reshape(-1)
        local = dict(namespace)
        # one scope for all blocks: its warning registry reports a numpy
        # warning once per call, as one whole-array evaluation would
        scope = {"__builtins__": {}}
        for block in blocks(flat_x.size):
            local["x"] = flat_x[block]
            flat_out[block] = eval(code, scope, local)
        return out

    return evaluate
