"""JSON plumbing: deterministic dumps, schema loading, safe expressions."""

import json
import math

import numpy as np
import pytest

from qentropy import BaseGridDensity, WeightedPartition, uniform_partition
from qentropy.serialize import (
    dumps,
    expression_function,
    json_ready,
    load_input,
    partition_from_obj,
)


def test_json_ready_maps_nonfinite_floats_to_strings():
    assert json_ready(math.inf) == "inf"
    assert json_ready(-math.inf) == "-inf"
    assert json_ready(math.nan) == "nan"
    assert json_ready(np.float64(0.25)) == 0.25
    assert json_ready(np.int64(3)) == 3
    assert json_ready(np.bool_(True)) is True
    assert json_ready(np.array([1.0, math.inf])) == [1.0, "inf"]
    assert json_ready({"a": (1, 2)}) == {"a": [1, 2]}


def test_dumps_is_deterministic_and_round_trips():
    payload = {"z": 1.0 / 3.0, "a": [0.1, 0.2], "flag": False}
    text = dumps(payload)
    assert text == dumps(payload)
    assert text.endswith("\n")
    back = json.loads(text)
    # shortest round-trip floats survive exactly
    assert back["z"] == 1.0 / 3.0
    # insertion order is preserved, not sorted
    assert list(back) == ["z", "a", "flag"]


def test_dumps_refuses_raw_nonfinite():
    # everything must pass through json_ready first; raw inf would otherwise
    # serialize as the non-JSON literal Infinity
    assert json.loads(dumps({"v": math.inf}))["v"] == "inf"


def test_load_input_inline_and_file(tmp_path):
    assert load_input('{"a": 1}') == {"a": 1}
    path = tmp_path / "spec.json"
    path.write_text('{"b": [1, 2]}', encoding="utf-8")
    assert load_input(str(path)) == {"b": [1, 2]}
    with pytest.raises(ValueError):
        load_input('{"a": ')
    # anything not starting with '{' is a path, even if it looks like JSON
    with pytest.raises(OSError):
        load_input("[1, 2]")
    toplevel = tmp_path / "list.json"
    toplevel.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ValueError):
        load_input(str(toplevel))
    with pytest.raises(OSError):
        load_input(str(tmp_path / "missing.json"))


def test_partition_keeps_weights_and_interval():
    # the shorthand records the interval; the full form keeps only the weights
    shorthand = partition_from_obj({"n": 3, "mode": "lebesgue", "interval": [0, 1.5]})
    assert isinstance(shorthand, WeightedPartition)
    assert shorthand.interval == (0.0, 1.5)
    assert shorthand.weights.tolist() == [0.5, 0.5, 0.5]
    full = partition_from_obj({
        "cells": [{"label": "c0", "left": 0.0, "right": 0.5}, "c1", {"label": "c2"}],
        "weights": [0.5, 0.5, 0.5],
    })
    assert full.interval is None
    assert full.weights.tolist() == [0.5, 0.5, 0.5]


FROZEN_PARTITIONS = [
    (
        uniform_partition(3),
        '{"cells": [{"label": "c0"}, {"label": "c1"}, {"label": "c2"}], '
        '"weights": [1.0, 1.0, 1.0]}',
    ),
    (
        uniform_partition(3, "uniform_probability"),
        '{"cells": [{"label": "c0"}, {"label": "c1"}, {"label": "c2"}], '
        '"weights": [0.3333333333333333, 0.3333333333333333, 0.3333333333333333]}',
    ),
    (
        uniform_partition(3, "lebesgue", (0.1, 0.8)),
        '{"cells": [{"label": "c0", "left": 0.1, "right": 0.33333333333333337}, '
        '{"label": "c1", "left": 0.33333333333333337, "right": 0.5666666666666668}, '
        '{"label": "c2", "left": 0.5666666666666668, "right": 0.8}], '
        '"weights": [0.23333333333333336, 0.23333333333333336, 0.23333333333333336]}',
    ),
    (
        # a string cell, interval cells, a non-string label and a mu-null cell
        partition_from_obj({
            "cells": ["a", {"label": "b", "left": 0.0, "right": 0.5},
                      {"label": 7, "left": 0.5, "right": 1}],
            "weights": [1, 0.5, 0],
        }),
        '{"cells": [{"label": "a"}, {"label": "b", "left": 0.0, "right": 0.5}, '
        '{"label": "7", "left": 0.5, "right": 1.0}], "weights": [1.0, 0.5, 0.0]}',
    ),
]


@pytest.mark.parametrize("part, frozen", FROZEN_PARTITIONS)
def test_partition_json_is_frozen(part, frozen):
    # the frozen weights are the partition's, bit for bit, and read back as such
    obj = json.loads(frozen)
    assert json.dumps(part.weights.tolist()) == json.dumps(obj["weights"])
    assert partition_from_obj(obj).weights.tolist() == part.weights.tolist()


CELL_FAULTS = [
    # (cells, weights, message); the first offending cell is named
    ([{"label": "a", "left": 0.0, "right": 0.5}, {"label": "b", "left": 0.4, "right": 1.0}],
     [1.0, 1.0], r"^partition.cells\[1\]: interval cells must be ordered and disjoint$"),
    ([{"label": "a", "left": 0.5, "right": 1.0}, "b", {"label": "c", "left": 0.0, "right": 0.5}],
     [1.0, 1.0, 1.0], r"^partition.cells\[2\]: interval cells must be ordered and disjoint$"),
    ([{"label": "a", "left": 0.0, "right": 0.5}, {"label": "b", "left": 0.5, "right": 0.5}],
     [1.0, 1.0], r"^partition.cells\[1\]: need left < right, got \[0.5, 0.5\)$"),
    ([{"label": "a", "left": 0.0}, {"label": "b", "left": 0.5}],
     [1.0, 1.0], r"^partition.cells\[0\]: left and right must be given together$"),
    ([{"label": "a", "left": 0.0, "right": 0.5}, {"label": "b", "left": 0.5}],
     [1.0, 1.0], r"^partition.cells\[1\]: left and right must be given together$"),
    (["a", "b", "c"], [1.0, 2.0], r"^partition.cells: need 2, one per weight, got 3$"),
    (["a"], [1.0, 2.0], r"^partition.cells: need 2, one per weight, got 1$"),
    ([["a"], "b"], [1.0, 2.0], r"partition.cells\[0\]: need a JSON object"),
    ([{"left": 0.0, "right": 1.0}], [1.0], r"partition.cells\[0\].label"),
    ([{"label": True}], [1.0], r"partition.cells\[0\].label: need a string or a number"),
]


@pytest.mark.parametrize("cells, weights, message", CELL_FAULTS)
def test_partition_cells_are_checked(cells, weights, message):
    with pytest.raises(ValueError, match=message):
        partition_from_obj({"cells": cells, "weights": weights})


def test_touching_cells_and_cells_without_interval_are_fine():
    part = partition_from_obj({
        "cells": [{"label": "a", "left": 0.0, "right": 0.5}, "b",
                  {"label": 7, "left": 0.5, "right": 1.0}],
        "weights": [1.0, 0.0, 1.0],
    })
    assert part.weights.tolist() == [1.0, 0.0, 1.0] and part.interval is None


def test_partition_shorthand():
    part = partition_from_obj({"n": 4, "mode": "uniform_probability"})
    assert np.allclose(part.weights, 0.25, rtol=0, atol=0)
    grid = partition_from_obj({"n": 2, "mode": "lebesgue", "interval": [0.0, 3.0]})
    assert np.allclose(grid.weights, 1.5, rtol=0, atol=0)
    with pytest.raises(ValueError):
        partition_from_obj({"cells": [{"label": "a"}]})  # weights missing
    with pytest.raises(ValueError):
        partition_from_obj({"weights": [1.0]})
    with pytest.raises(ValueError):
        partition_from_obj(42)


def test_expression_function_evaluates_whitelisted_math():
    f = expression_function("2*x")
    x = np.array([0.25, 0.5])
    assert np.allclose(f(x), [0.5, 1.0], rtol=0, atol=0)
    g = expression_function("1 + 0.3*sin(2*pi*x)")
    assert np.allclose(g(x), 1.0 + 0.3 * np.sin(2.0 * math.pi * x), rtol=1e-15)
    h = expression_function("where(x < 0.5, 2.0, 0.0)")
    assert np.allclose(h(x), [2.0, 0.0], rtol=0, atol=0)
    const = expression_function("1.0")
    assert np.allclose(const(x), [1.0, 1.0], rtol=0, atol=0)


def test_expression_function_rejects_non_math():
    for bad in (
        "__import__('os').system('true')",
        "x.__class__",
        "open('/etc/passwd')",
        "lambda y: y",
        "[1 for _ in x]",
        "y + 1",
    ):
        with pytest.raises(ValueError):
            expression_function(bad)


def test_expression_constants_are_floats():
    # 3**3**13 % 7 in Python ints takes about 0.2 s; in float64 the tower
    # overflows to inf and the remainder is nan, which the grid builders reject
    f = expression_function("x*0 + 3**3**13 % 7")
    with pytest.warns(RuntimeWarning, match="overflow"), pytest.warns(RuntimeWarning, match="invalid"):
        assert np.all(np.isnan(f(np.array([0.25, 0.5]))))
    g = expression_function("x*0 + " + "9" * 400)  # an int literal past the float range
    assert np.all(np.isinf(g(np.array([0.25]))))
    with pytest.warns(RuntimeWarning, match="overflow"), pytest.warns(RuntimeWarning, match="invalid"):
        with pytest.raises(ValueError, match="finite"):
            BaseGridDensity.from_function(f, (0.0, 1.0), base_exponent=3)
