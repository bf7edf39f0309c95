"""The docs stay executable: docs/schemas.md's examples run and its field
tables are serialize.FIELDS, and README.md's library tour and CLI block run."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from qentropy.cli import main
from qentropy.serialize import CELL_FIELDS, CONSTRAINT_FIELDS, FIELDS, PARTITION_FIELDS, REQUIRED

ROOT = Path(__file__).resolve().parent.parent
SCHEMAS = ROOT / "docs" / "schemas.md"
README = ROOT / "README.md"
TABLES = {
    **FIELDS,
    "Partition shorthand": PARTITION_FIELDS,
    "Partition cells": CELL_FIELDS,
    "Constraint": CONSTRAINT_FIELDS,
}


def sections() -> dict:
    """Heading text -> the lines under it, for every ## and ### heading."""
    out, name = {}, None
    for line in SCHEMAS.read_text(encoding="utf-8").splitlines():
        heading = re.match(r"#{2,3} (.+)", line)
        if heading:
            name = heading.group(1)
            out[name] = []
        elif name is not None:
            out[name].append(line)
    return out


def examples():
    """(verb, JSON text, expected exit) for each example under a verb heading.
    The exit is 0 unless the line before the block says it exits `N`."""
    found = []
    for verb, lines in sections().items():
        if verb not in FIELDS:
            continue
        k = 0
        while k < len(lines):
            if lines[k] == "```json":
                end = lines.index("```", k)
                before = [line for line in lines[:k] if line.strip()]
                said = re.search(r"exits `(\d)`", before[-1]) if before else None
                text, decoder, at = "\n".join(lines[k + 1:end]), json.JSONDecoder(), 0
                while at < len(text):
                    obj, at = decoder.raw_decode(text, at)
                    found.append((verb, json.dumps(obj), int(said.group(1)) if said else 0))
                    while at < len(text) and text[at].isspace():
                        at += 1
                k = end
            k += 1
    return found


EXAMPLES = examples()


def test_every_verb_has_an_example():
    assert {verb for verb, _, _ in EXAMPLES} == set(FIELDS)


@pytest.mark.parametrize("verb, text, code", EXAMPLES, ids=[f"{v}:{t[:50]}" for v, t, _ in EXAMPLES])
def test_doc_example_runs(verb, text, code):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main([verb, "--input", text]) == code, err.getvalue()
    if code:
        assert json.loads(err.getvalue())["error"]["type"] == "validation"


def _number(v) -> str:
    if isinstance(v, int) and v >= 2**20:
        if v & (v - 1) == 0:
            return f"2^{v.bit_length() - 1}"
        if (v + 1) & v == 0:
            return f"2^{v.bit_length()} - 1"
    return f"{v:g}" if isinstance(v, float) else str(v)


FIXED_RANGES = {
    "interval": "finite a < b; finite b - a that can carry the grid",
    "partition": "see Partition",
    "grid density": "see Density expressions",
    "label": "string or number",
    "float array": "nonempty, finite",
}


def _range(field) -> str:
    cap = f"; at most {field.length} entries" if field.length else ""
    if field.kind in FIXED_RANGES:
        return FIXED_RANGES[field.kind]
    if field.kind == "int":
        return f"{_number(field.low)}..{_number(field.high)}"
    if field.kind == "float":
        if field.low is None:
            return "finite"
        if field.high is None:
            return f"> {_number(field.low)}"
        return f"({_number(field.low)}, {_number(field.high)})"
    if field.kind == "int array":
        return f"each {_number(field.low)}..{_number(field.high)}{cap}"
    if field.kind in ("choice", "suite list"):
        return ", ".join(a if a == b else f"{a} (= {b})" for a, b in field.choices.items()) + cap
    assert field.kind == "constraint list"
    return f"at most {field.length} entries"


def _row(name, field) -> list:
    default = (
        "required" if field.default is REQUIRED
        else "-" if field.default is None
        else json.dumps(field.default)
    )
    return [name, field.kind, _range(field), default, field.flag or "-"]


@pytest.mark.parametrize("heading", list(TABLES))
def test_field_table_matches_the_reader(heading):
    lines = sections()[heading]
    rows = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in lines
        if line.startswith("| ") and not line.startswith("| ---")
    ]
    assert rows[0] == ["field", "type", "range or cap", "default", "flag"]
    assert rows[1:] == [_row(name, field) for name, field in TABLES[heading].items()]


def test_readme_tour_runs(capsys):
    # the python blocks run in order in one namespace, as a reader pastes them,
    # so a public name the tour imports cannot be removed unnoticed
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert len(blocks) == 4
    namespace = {}
    for k, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)
        if k == 1:
            commented = re.search(r"^shannon_entropy\(p\) +# (\S+)$", blocks[0], re.M).group(1)
            assert commented == "1.0397207708399179"
            assert repr(namespace["shannon_entropy"](namespace["p"])) == commented
    assert capsys.readouterr().out.count("\n") == 4  # one line per convergence-table level


def readme_commands() -> list:
    """The arguments of each qentropy command in README.md's CLI block, a
    line ending in a backslash joined to the next, as a shell reads them."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```$", text, re.M | re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("qentropy ")]


README_COMMANDS = readme_commands()


def test_the_readme_cli_block_shows_every_verb():
    assert [argv[0] for argv in README_COMMANDS] == list(FIELDS)


@pytest.mark.parametrize("argv", README_COMMANDS, ids=[argv[0] for argv in README_COMMANDS])
def test_readme_cli_command_runs(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == 0, err.getvalue()
    assert out.getvalue()
