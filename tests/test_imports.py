"""Every import in the package's modules is used, and every definition.

A module that stops using a name after a refactor should stop importing
it.  Names a module imports only so that others can find or rebind them
there (the benchmark's tracer does) sit on an import line marked
``# noqa: F401``; the package's __init__ re-exports its public names.
Likewise a function, class, method or module-level constant that nothing
in the package refers to, and that __init__ does not export, should go,
unless it is listed in UNREFERENCED_KEPT with the reason it stays."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "prepspill"


def unused_imports(path):
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{path.name}:{node.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


# Definitions kept though nothing in the package refers to them: the
# benchmark's workloads (bench/workloads.py) import ModelSpec.with_delta_zero
# and sobol.coverage_model_fn, and call reproduction.tune_multiplier_to_rc,
# which README states as API.
UNREFERENCED_KEPT = {"model.ModelSpec.with_delta_zero", "sobol.coverage_model_fn",
                     "reproduction.tune_multiplier_to_rc"}


def unreferenced_definitions(src):
    """The top-level functions, classes and constants, and the methods
    (dunders aside), of the package at ``src`` that no code in it reads by
    name or as an attribute or spells as a whole string literal, and that
    __init__ does not export, as module.name or module.Class.method."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}
    referred, exported = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referred.add(node.id)
            elif isinstance(node, ast.Attribute):
                referred.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                referred.add(node.value)
    for node in ast.walk(trees["__init__"]):
        if isinstance(node, ast.ImportFrom):
            exported.update(alias.asname or alias.name for alias in node.names)
    defs, found = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef), []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [f"{module}.{name.id}" for t in targets for name in ast.walk(t)
                          if isinstance(name, ast.Name) and not name.id.startswith("__")
                          and name.id not in referred | exported]
            if not isinstance(node, defs):
                continue
            if node.name not in referred | exported:
                found.append(f"{module}.{node.name}")
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if (isinstance(item, defs[:2]) and not item.name.startswith("__")
                        and item.name not in referred):
                    found.append(f"{module}.{node.name}.{item.name}")
    return found


def test_every_definition_is_referred_to():
    assert sorted(set(unreferenced_definitions(SRC)) - UNREFERENCED_KEPT) == []
