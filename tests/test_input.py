"""The typed input layer: no JSON input makes the CLI raise.

Every verb reads its input through serialize.FIELDS, so a wrong type, size
or nesting anywhere in the input ends in a validation error (exit 1) with a
JSON payload, never in a traceback.
"""

import contextlib
import copy
import io
import json
import re
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qentropy.cli import main
from qentropy.serialize import FIELDS, MAX_INPUT_CHARS, MAX_SAMPLES


def run_main(*argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("ignore")  # numerical warnings are not part of the payload
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def validation_message(*argv) -> str:
    code, out, err = run_main(*argv)
    assert (code, out) == (1, ""), argv
    error = json.loads(err)["error"]
    assert error["type"] == "validation"
    return error["message"]


def with_value(doc: dict, path: tuple, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


# A scan set each field of these valid inputs (nested fields and the first
# two entries of each array included) to 5, null, "x", [], {}, [[1]], true
# and -1.  Each case below raised a TypeError traceback out of main before
# the field table; each must now exit 1 with a validation payload.
BASES = [
    ('entropy', '{"kind": "tsallis", "q": 2.0, "index": 2.0, "partition": {"n": 2, "mode": "lebesgue", "interval": [0.0, 1.0]}, "density": [1.0, 1.0]}'),
    ('entropy', '{"kind": "measure", "partition": {"cells": ["a", {"label": "b", "left": 0.0, "right": 0.5}], "weights": [1.0, 0.5]}, "pmf": [0.5, 0.5]}'),
    ('entropy', '{"kind": "renyi", "alpha": 2.0, "pmf": [0.5, 0.5]}'),
    ('divergence', '{"kind": "tsallis", "index": 2.0, "p": [0.8, 0.2], "r": [0.5, 0.5]}'),
    ('approx', '{"kind": "tsallis", "q": 2.0, "p": [1.0, 2.0, 3.0, 2.0], "r": {"expr": "1.0"}, "base_exponent": 2, "levels": [1, 2]}'),
    ('divergence', '{"kind": "renyi", "alpha": 2.0, "p": [0.8, 0.2], "r": [0.5, 0.5], "partition": {"n": 2}}'),
    ('approx', '{"kind": "renyi", "alpha": 2.0, "p": {"expr": "2*x"}, "r": [1.0, 1.0, 1.0, 1.0], "interval": [0.0, 1.0], "base_exponent": 2, "levels": [1, 2]}'),
    ('maxent', '{"kind": "ordinary", "partition": {"n": 6}, "constraints": [{"values": [1, 2, 3, 4, 5, 6], "target": 4.5}], "tolerance": 1e-10, "fd_step": 0.0001, "max_iterations": 200}'),
    ('maxent', '{"kind": "escort", "q": 2.0, "partition": {"n": 2}, "constraints": [{"values": [0, 1], "target": 0.3}], "max_outer": 100, "max_inner": 500}'),
    ('verify', '{"suites": ["tsallis"], "seed": 7, "samples": 50}'),
    ('demo', '{"n_list": [2, 4], "interval": [0.0, 1.0], "resolution_exponent": 8}'),
]
SCAN = [
    (0, ('q',), '[[], {}, [[1]]]'),
    (0, ('density',), '[{}]'),
    (0, ('density', 0), '[{}]'),
    (0, ('density', 1), '[{}]'),
    (1, ('partition', 'cells', 1, 'left'), '[{}]'),
    (1, ('partition', 'cells', 1, 'right'), '[{}]'),
    (1, ('partition', 'weights', 0), '[{}]'),
    (1, ('partition', 'weights', 1), '[{}]'),
    (1, ('pmf',), '[5, {}, true, -1]'),
    (1, ('pmf', 0), '[{}]'),
    (1, ('pmf', 1), '[{}]'),
    (2, ('alpha',), '[[], {}, [[1]]]'),
    (3, ('index',), '[[], {}, [[1]]]'),
    (3, ('p',), '[{}]'),
    (3, ('p', 0), '[{}]'),
    (3, ('p', 1), '[{}]'),
    (3, ('r',), '[{}]'),
    (3, ('r', 0), '[{}]'),
    (3, ('r', 1), '[{}]'),
    (4, ('q',), '[[], {}, [[1]]]'),
    (4, ('p', 0), '[{}]'),
    (4, ('p', 1), '[{}]'),
    (4, ('base_exponent',), '[null, [], {}, [[1]]]'),
    (4, ('levels',), '[5, [[1]], true, -1]'),
    (4, ('levels', 0), '[null, [], {}, [[1]]]'),
    (4, ('levels', 1), '[null, [], {}, [[1]]]'),
    (5, ('alpha',), '[[], {}, [[1]]]'),
    (6, ('alpha',), '[[], {}, [[1]]]'),
    (6, ('r', 0), '[{}]'),
    (6, ('r', 1), '[{}]'),
    (6, ('interval', 0), '[null, [], {}, [[1]]]'),
    (6, ('interval', 1), '[null, [], {}, [[1]]]'),
    (7, ('constraints', 0, 'values'), '[{}]'),
    (7, ('constraints', 0, 'values', 0), '[{}]'),
    (7, ('constraints', 0, 'values', 1), '[{}]'),
    (7, ('constraints', 0, 'target'), '[null, [], {}, [[1]]]'),
    (7, ('tolerance',), '[null, [], {}, [[1]]]'),
    (7, ('fd_step',), '[null, [], {}, [[1]]]'),
    (7, ('max_iterations',), '[null, [], {}, [[1]]]'),
    (8, ('q',), '[[], {}, [[1]]]'),
    (8, ('max_outer',), '[null, [], {}, [[1]]]'),
    (8, ('max_inner',), '[null, [], {}, [[1]]]'),
    (9, ('suites',), '[5, [[1]], true, -1]'),
    (9, ('suites', 0), '[[], {}, [[1]]]'),
    (9, ('seed',), '[null, [], {}, [[1]]]'),
    (9, ('samples',), '[null, [], {}, [[1]]]'),
    (10, ('n_list',), '[5, null, [[1]], true, -1]'),
    (10, ('n_list', 0), '[null, [], {}, [[1]]]'),
    (10, ('n_list', 1), '[null, [], {}, [[1]]]'),
    (10, ('interval', 0), '[null, [], {}, [[1]]]'),
    (10, ('interval', 1), '[null, [], {}, [[1]]]'),
    (10, ('resolution_exponent',), '[null, [], {}, [[1]]]'),
]


SCAN_CASES = [
    (BASES[base][0], json.dumps(with_value(json.loads(BASES[base][1]), path, value)))
    for base, path, values in SCAN
    for value in json.loads(values)
]


def _scan_id(case):
    return case[0] + ":" + case[1][:60]


def test_scan_bases_are_valid():
    for verb, doc in BASES:
        assert run_main(verb, "--input", doc)[0] == 0, doc


@pytest.mark.parametrize("verb, doc", SCAN_CASES, ids=[_scan_id(c) for c in SCAN_CASES])
def test_scanned_type_errors_are_validation_errors(verb, doc):
    validation_message(verb, "--input", doc)


def test_scan_has_every_case():
    assert len(SCAN_CASES) == len(set(SCAN_CASES)) == 135


# Property: mutate a valid input of any verb in type, size or nesting, at any
# path.  Every value that sizes work is either tiny or past its cap, so no
# example allocates anything large: the caps refuse before allocating.
PROPERTY_BASES = [
    (("entropy",), {"kind": "tsallis", "q": 2.0, "partition": {"n": 2, "mode": "lebesgue", "interval": [0.0, 1.0]}, "density": [1.0, 1.0]}),
    (("entropy", "--kind", "measure"), {"partition": {"cells": ["a", {"label": "b", "left": 0.0, "right": 0.5}], "weights": [1.0, 0.5]}, "pmf": [0.5, 0.5]}),
    (("entropy", "--alpha", "2"), {"index": 3, "pmf": [0.25, 0.75]}),
    (("divergence",), {"kind": "renyi", "alpha": 0.5, "p": [0.8, 0.2], "r": [0.5, 0.5], "partition": {"n": 2}}),
    (("approx",), {"kind": "renyi", "alpha": 2.0, "p": {"expr": "2*x"}, "r": [1.0, 1.0, 1.0, 1.0], "interval": [0.0, 1.0], "base_exponent": 2, "levels": [1, 2]}),
    (("approx", "--q", "2", "--levels", "1..2", "--base-resolution", "3", "--format", "json"), {"p": [1.0, 2.0, 3.0, 2.0, 1.0, 1.0, 1.0, 1.0], "r": {"expr": "1 + 0*x"}}),
    (("maxent",), {"kind": "ordinary", "partition": {"n": 6}, "constraints": [{"values": [1, 2, 3, 4, 5, 6], "target": 4.5}], "tolerance": 1e-10, "fd_step": 1e-4, "max_iterations": 200}),
    (("maxent", "--kind", "tsallis"), {"q": 2.0, "partition": {"n": 3, "mode": "lebesgue", "interval": [0.0, 3.0]}, "constraints": [{"values": [0, 1, 2], "target": 0.8}], "max_outer": 100, "max_inner": 500}),
    (("verify",), {"suites": ["tsallis", "maxent"], "seed": 7, "samples": 20}),
    (("demo", "--format", "json"), {"n_list": [2, 4], "interval": [0.0, 1.0], "resolution_exponent": 8}),
]
ODD_VALUES = [
    5, 0, -1, 1.5, -1.5, None, True, False, "x", "", "2", [], {}, [[1]], [None], ["x"],
    {"expr": "x"}, {"expr": 5}, {"n": 3}, float("nan"), float("inf"),
    2**24 + 1, 10**9, -(10**9), 2**70, 10**400, 1e300, -1e300,
]


def _paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for k, value in enumerate(obj):
            yield from _paths(value, prefix + (k,))


def _mutations(value):
    """Replacements for one value: other types, sizes and nestings."""
    out = list(ODD_VALUES) + [[value], {"v": value}]
    if isinstance(value, list):
        out += [value[:1], value[:-1], value + value[-1:], value * 3, value * 70, value[0] if value else None]
    if isinstance(value, dict):
        out += [next(iter(value.values()), None), {**value, "extra": value}]
    return out


@st.composite
def mutated_runs(draw):
    argv, doc = draw(st.sampled_from(PROPERTY_BASES))
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    value = doc if not path else parent[path[-1]]
    if path and isinstance(parent, dict) and draw(st.booleans()) and draw(st.booleans()):
        mutated = copy.deepcopy(doc)
        target = mutated
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
    else:
        replacement = draw(st.sampled_from(_mutations(value)))
        mutated = replacement if not path else with_value(doc, path, replacement)
    return argv, json.dumps(mutated)


def names_an_input_field(verb: str, message: str) -> bool:
    """Whether the text before the first ": " is input, arguments, one of the
    verb's flags, or paths (comma-separated) whose first segment is a field
    of the verb's FIELDS table."""
    table = FIELDS[verb]
    flags = {field.flag for field in table.values()}
    return all(
        name in ("input", "arguments") or name in flags or re.split(r"[.\[]", name)[0] in table
        for name in message.partition(": ")[0].split(", ")
    )


@settings(max_examples=250, deadline=None, derandomize=True)
@given(mutated_runs())
def test_mutated_inputs_end_in_a_documented_exit(run):
    argv, text = run
    tracemalloc.start()
    try:
        code, out, err = run_main(*argv, "--input", text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, (argv, text)
    assert code in (0, 1, 2, 3), (argv, text)
    if code == 0:
        assert out and err == ""
    elif argv[0] == "verify" and code == 1 and not err:
        assert json.loads(out)["passed"] is False
    else:
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == {1: "validation", 2: "non_convergence", 3: "io"}[code]
        assert isinstance(error["message"], str) and error["message"]
        if code == 1:
            assert names_an_input_field(argv[0], error["message"]), (argv, text, error["message"])


@pytest.mark.parametrize("verb, doc, path", [
    ("entropy", '{"kind": "tsallis", "q": "2", "pmf": [0.5, 0.5]}', "q"),
    ("entropy", '{"kind": "shannon", "pmf": [0.5, "0.5"]}', "pmf[1]"),
    ("entropy", '{"kind": "shannon", "pmf": [true, 0]}', "pmf[0]"),
    ("verify", '{"seed": 1.5}', "seed"),
    ("verify", '{"samples": 200.0}', "samples"),
    ("approx", '{"kind": "renyi", "alpha": 2, "p": {"expr": "x"}, "r": {"expr": "1"}, "levels": [2.5]}', "levels[0]"),
    ("demo", '{"n_list": [2, "4"]}', "n_list[1]"),
    ("demo", '{"interval": ["0", 1]}', "interval[0]"),
    ("maxent", '{"partition": {"n": 2}, "constraints": [{"values": [0, 1], "target": "0.3"}]}', "constraints[0].target"),
    ("maxent", '{"partition": {"n": 2}, "constraints": [{"values": [0, 1], "target": 0.3}], "max_iterations": 20.0}', "max_iterations"),
    ("maxent", '{"partition": {"n": 2, "mode": 1}, "constraints": []}', "partition.mode"),
    ("entropy", '{"kind": "measure", "pmf": [1.0], "partition": {"cells": [{"label": null}], "weights": [1]}}', "partition.cells[0].label"),
])
def test_coercions_are_refused(verb, doc, path):
    # each of these was silently converted before the field table
    assert validation_message(verb, "--input", doc).startswith(path + ": need")


@pytest.mark.parametrize("verb, doc, path", [
    ("verify", '{"samples": %d}' % (MAX_SAMPLES + 1), "samples"),
    ("verify", '{"suites": ["qcalc", "qcalc", "qcalc", "qcalc", "qcalc", "qcalc"]}', "suites"),
    ("demo", '{"n_list": [%s]}' % ", ".join(["2"] * 65), "n_list"),
    ("maxent", '{"partition": {"n": 2}, "constraints": [%s]}'
     % ", ".join(['{"values": [0, 1], "target": 0.5}'] * 65), "constraints"),
    ("maxent", '{"partition": {"n": 2}, "constraints": [], "max_iterations": 10001}', "max_iterations"),
    ("maxent", '{"partition": {"n": 2}, "constraints": [], "max_outer": 10001}', "max_outer"),
    ("maxent", '{"partition": {"n": 2}, "constraints": [], "max_inner": 10001}', "max_inner"),
    ("verify", '{"samples": 1000000000}', "samples"),
])
def test_counts_that_size_work_are_capped(verb, doc, path):
    # "samples": 1e9 once allocated 8 GB in the qcalc suite
    assert validation_message(verb, "--input", doc).startswith(path + ": need")


def test_input_text_is_capped_before_parsing(tmp_path):
    text = '{"pmf": [0.5, 0.5], "pad": "' + " " * MAX_INPUT_CHARS + '"}'
    assert "cap" in validation_message("entropy", "--kind", "shannon", "--input", text)
    path = tmp_path / "big.json"
    path.write_text(text, encoding="utf-8")
    assert "cap" in validation_message("entropy", "--kind", "shannon", "--input", str(path))


def test_deep_nesting_is_a_validation_error():
    text = '{"pmf": ' + "[" * 100000 + "]" * 100000 + "}"
    assert "nested" in validation_message("entropy", "--kind", "shannon", "--input", text)
    deep = json.dumps({"kind": "renyi", "alpha": 2, "p": {"expr": "-" * 1000 + "x"},
                       "r": {"expr": "1"}, "levels": [1], "base_exponent": 2})
    assert "nested" in validation_message("approx", "--input", deep)


@pytest.mark.parametrize("expr", ["where(x, x)", "minimum(x)", "x(1)", "sin + x", "(x, x)", "-(x, x)",
                                  "+".join(["x"] * 513), " ", "x +", "x + 'a'"])
def test_malformed_expressions_are_validation_errors(expr):
    doc = json.dumps({"kind": "renyi", "alpha": 2, "p": {"expr": expr}, "r": {"expr": "1"},
                      "levels": [1], "base_exponent": 2})
    assert validation_message("approx", "--input", doc).startswith("p.expr:")


def test_escort_maxent_needs_a_tsallis_index():
    doc = json.dumps({"kind": "escort", "partition": {"n": 2},
                      "constraints": [{"values": [0, 1], "target": 0.3}]})
    assert validation_message("maxent", "--input", doc) == "q: escort maxent needs a Tsallis index"


def test_escort_audit_past_the_pole_is_a_validation_error():
    # the audit's steps keep every base 1 + (1-q) x_k from the pole, so at
    # q = 1e300 the refusal is of the normalizer w, not of fd_step
    doc = json.dumps({"kind": "escort", "q": 1e300, "partition": {"n": 2},
                      "constraints": [{"values": [0, 1], "target": 0.3}]})
    assert validation_message("maxent", "--input", doc).startswith(
        "q: the escort normalizer w = sum_k p_k^q mu_k is exp(")


def test_a_given_flag_wins_over_its_field():
    doc = '{"seed": 5, "samples": 20, "suites": []}'
    code, out, _ = run_main("verify", "--seed", "3", "--input", doc)
    assert code == 0 and json.loads(out)["seed"] == 3
    code, out, _ = run_main("verify", "--input", doc)
    assert code == 0 and json.loads(out)["seed"] == 5
    # an overridden field is not read
    doc = ('{"kind": "renyi", "alpha": 2, "p": {"expr": "2*x"}, "r": {"expr": "1"}, '
           '"levels": [1], "base_exponent": "x"}')
    code, out, _ = run_main("approx", "--base-resolution", "3", "--format", "json", "--input", doc)
    assert code == 0 and json.loads(out)["base_exponent"] == 3
    assert validation_message("approx", "--input", doc).startswith("base_exponent: need")
    assert validation_message("approx", "--base-resolution", "30", "--input", doc).startswith(
        "--base-resolution: need"
    )


def test_levels_flag_needs_a_positive_start():
    # checked before the range is built: -10^9..24 would be a 10^9-entry tuple
    for text in ("0..3", "-1000000000..24"):
        assert "1 <= A" in validation_message("approx", f"--levels={text}", "--input", "{}")


def test_levels_flag_needs_an_end_after_its_dots():
    # docs/schemas.md allows N or A..B; "3.." is neither
    assert "got '3..'" in validation_message("approx", "--levels=3..", "--input", "{}")
