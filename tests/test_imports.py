"""Every import in the package's modules is used, and every definition.

A module that stops using a name after a refactor should stop importing
it.  Names a module imports only so that others can find or rebind them
there (the benchmark's tracer does) sit on an import line marked
``# noqa: F401``; the package's __init__ re-exports its public names.
Likewise a function, class, method or module-level constant that nothing
in the package refers to, and that __init__ does not export, should go,
unless it is listed in UNREFERENCED_KEPT with the reason it stays."""

import ast
import re
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
    (dunders aside), of the package at ``src`` that nothing in it refers
    to, as module.name or module.Class.method.  A top-level definition is
    referred to when code reads it by name or as an attribute, spells it as
    a whole string literal, or __init__ exports it.  A method or property
    is referred to only when code reads it as an attribute or spells
    ".name" inside a string constant (generated source, as
    model._flat_rhs_maker's text reads start[1].N): a local variable of the
    same name does not count."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}
    names, attributes, generated, exported = set(), set(), set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
                generated.update(re.findall(r"\.([A-Za-z_]\w*)", node.value))
    referred = names | attributes
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
                        and item.name not in attributes | generated):
                    found.append(f"{module}.{node.name}.{item.name}")
    return found


def test_every_definition_is_referred_to():
    assert sorted(set(unreferenced_definitions(SRC)) - UNREFERENCED_KEPT) == []


def test_a_method_hidden_by_a_local_name_is_unreferenced(tmp_path):
    # a local variable named like a method does not refer to it; an
    # attribute read does, and so does ".name" in generated source text
    (tmp_path / "__init__.py").write_text("from .mod import Run, use\n")
    (tmp_path / "mod.py").write_text(
        "class Run:\n"
        "    def at(self):\n        return 1\n"
        "    def row(self):\n        return 2\n"
        "    def gen(self):\n        return 3\n\n\n"
        "def use(run):\n"
        "    at = run.row()\n"
        "    return at, 'r = run.gen()'\n")
    assert unreferenced_definitions(tmp_path) == ["mod.Run.at"]
