"""The benchmark's reach into qentropy stays valid.

perfbench/tracer.py and perfbench/workloads.py name qentropy functions,
classes and exceptions, and call some of them with keywords.  They are read
here with ast, not imported, so a deletion or a renamed parameter that would
break `perfbench/run.py` fails tier-1 instead.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FILES = ("tracer.py", "workloads.py")


def parse(name: str):
    """The file's tree and the local names it binds to qentropy modules."""
    tree = ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "qentropy"
        for alias in node.names
    }
    return tree, modules


def chain(node: ast.AST) -> list[str]:
    """['maxent', 'ConstraintSet'] for maxent.ConstraintSet; [] unless the
    expression is a dotted name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else []


def scoped(node: ast.AST, loops=None):
    """Each node with the strings its enclosing loops of the form
    `for v in ("a", "b")` bind: (node, {"v": ["a", "b"]})."""
    loops = loops or {}
    if (isinstance(node, ast.For) and isinstance(node.target, ast.Name)
            and isinstance(node.iter, ast.Tuple)
            and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                    for e in node.iter.elts)):
        loops = {**loops, node.target.id: [e.value for e in node.iter.elts]}
    yield node, loops
    for child in ast.iter_child_nodes(node):
        yield from scoped(child, loops)


def strings(node: ast.AST, loops: dict) -> list[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    return loops.get(node.id, []) if isinstance(node, ast.Name) else []


def references(name: str) -> set:
    """(dotted path, whether the last name must be in vars() of its owner)
    for every qentropy attribute the file names: dotted names, the tracer's
    function(module, "attr", ...) and its vars(cls)[attr]."""
    tree, modules = parse(name)
    found = set()
    for node, loops in scoped(tree):
        parts = chain(node) if isinstance(node, ast.Attribute) else []
        if parts and parts[0] in modules:
            found.add((".".join([modules[parts[0]], *parts[1:]]), False))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "function" and len(node.args) >= 2
                and isinstance(node.args[0], ast.Name) and node.args[0].id in modules):
            for attr in strings(node.args[1], loops):
                found.add((f"{modules[node.args[0].id]}.{attr}", False))
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Call)
                and chain(node.value.func) == ["vars"]):
            owner = chain(node.value.args[0])
            if owner and owner[0] in modules:
                for attr in strings(node.slice, loops):
                    found.add((".".join([modules[owner[0]], *owner[1:], attr]), True))
    return found


def calls(name: str) -> set:
    """(dotted path, positional count, keywords) for each call of a qentropy
    attribute in the file."""
    tree, modules = parse(name)
    found = set()
    for node in ast.walk(tree):
        parts = chain(node.func) if isinstance(node, ast.Call) else []
        if len(parts) < 2 or parts[0] not in modules:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords):
            continue
        keywords = tuple(k.arg for k in node.keywords)
        found.add((".".join([modules[parts[0]], *parts[1:]]), len(node.args), keywords))
    return found


def resolve(path: str):
    module, *attrs = path.split(".")
    owner = importlib.import_module(f"qentropy.{module}")
    for attr in attrs:
        owner = getattr(owner, attr)
    return owner


REFERENCES = sorted(set().union(*map(references, FILES)))
CALLS = sorted(set().union(*map(calls, FILES)))


def test_the_surface_is_found():
    assert {("maxent.thermo_residuals", False), ("tsallis.EmptySupportError", False),
            ("dyadic.BaseGridDensity.from_function", False),
            ("dyadic.BaseGridDensity.from_values", True),
            ("entropy.tsallis_divergence", False)} <= set(REFERENCES)
    assert ("tsallis.tsallis_thermo", 1, ("fd_step",)) in CALLS


@pytest.mark.parametrize("path, in_vars", REFERENCES,
                         ids=[f"vars:{p}" if v else p for p, v in REFERENCES])
def test_every_named_attribute_exists(path, in_vars):
    owner, _, attr = path.rpartition(".")
    if in_vars:
        assert attr in vars(resolve(owner))
    else:
        resolve(path)


@pytest.mark.parametrize("path, positional, keywords", CALLS,
                         ids=[f"{p}({n}, {', '.join(k)})" for p, n, k in CALLS])
def test_every_call_binds(path, positional, keywords):
    inspect.signature(resolve(path)).bind(*[None] * positional, **dict.fromkeys(keywords))
