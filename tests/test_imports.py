"""No module of the package imports a name it never uses, and every
definition is reached from a command.

No linter ships with the package's toolchain, so these are the checks:
each module under src/holopoisson is parsed with ast, and every name
bound by a module-level import must be read somewhere in the module, or
listed in its __all__ (the package's re-exports); and every top-level
function and class must be reached by name references from the command
line, except the few kept on purpose (KEPT)."""

import ast
import os

import pytest

import holopoisson

PACKAGE = os.path.dirname(os.path.abspath(holopoisson.__file__))
MODULES = sorted(name for name in os.listdir(PACKAGE) if name.endswith(".py"))


def unused_imports(source: str):
    """Names bound by the module-level imports of source that no
    expression reads and __all__ does not list, in source order."""
    tree = ast.parse(source)
    bound = []
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0]
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            exported = set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read | exported]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as handle:
        assert unused_imports(handle.read()) == []


def test_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "from .multivec import Form, schouten\n"
              "__all__ = ['Form']\n"
              "def f():\n"
              "    return os.sep\n")
    assert unused_imports(source) == ["system", "schouten"]


# Kept though no command reaches them: none, since what only the tests
# read lives in tests/oracles.py.
KEPT = []


def unreached(sources):
    """The top-level functions and classes of sources (module name ->
    source) that no chain of name references reaches from cli's main,
    run, run_selftest and cmd_* or the module-level code of any module but
    __init__.  A reached definition reaches each name it reads, as a name
    or an attribute, whichever module defines it; imports read nothing."""
    defined, todo, reached = {}, [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if module != "__init__":
                    todo.append(node)
                continue
            defined.setdefault(node.name, []).append(node)
            if module == "cli" and (node.name.startswith("cmd_") or node.name
                                    in ("main", "run", "run_selftest")):
                todo.append(node)
    while todo:
        for node in ast.walk(todo.pop()):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name in defined and name not in reached:
                reached.add(name)
                todo += defined[name]
    return sorted(set(defined) - reached)


def test_every_definition_is_reached_from_a_command():
    sources = {}
    for module in MODULES:
        with open(os.path.join(PACKAGE, module), encoding="utf-8") as handle:
            sources[module[:-3]] = handle.read()
    assert unreached(sources) == KEPT


def test_unreached_definition_is_found():
    sources = {"cli": "T = [cmd_a]\ndef cmd_a(d):\n    return lib.f(d)\n"
                      "def unused():\n    return Orphan()\n",
               "lib": "def f(x):\n    return g(x)\ndef g(x):\n    return x\n"
                      "class Orphan:\n    pass\n",
               "__init__": "from .lib import Orphan\nOrphan()\n"}
    assert unreached(sources) == ["Orphan", "unused"]
