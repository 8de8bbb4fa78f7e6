"""No module of the package imports a name it never uses, and every
definition is reached from a command.

No linter ships with the package's toolchain, so these are the checks:
each module under src/holopoisson is parsed with ast, and every name
bound by a module-level import must be read somewhere in the module, or
listed in its __all__ (the package's re-exports); and every top-level
function and class, and every method of a reached class, must be reached
by name references from the command line or from the benchmark's scripts
that import the package, except the few kept on purpose (KEPT)."""

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

# The benchmark's scripts that import the package: what they read is
# reached too (SparseMatrix.nnz and rows are read nowhere else).
BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")
BENCH_ROOTS = ("tracer.py", "oracle.py", "micro.py")


def unreached(sources, roots=()):
    """The top-level functions and classes of sources (module name ->
    source), and the methods of the reached classes, that no chain of
    name references reaches from cli's main, run, run_selftest and cmd_*,
    the module-level code of any module but __init__, or the whole of each
    source in roots.  A reached definition reaches each top-level name it
    reads, as a name or an attribute, whichever module defines it, and
    each method of a reached class whose name it reads as an attribute; a
    class reaches its bases, its class-level statements and its dunder
    methods.  Imports read nothing.  A method is named Class.method."""
    defined, methods, todo = {}, {}, []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if module != "__init__":
                    todo.append(node)
                continue
            defined.setdefault(node.name, []).append(node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        methods.setdefault(item.name, []).append((node, item))
            if module == "cli" and (node.name.startswith("cmd_") or node.name
                                    in ("main", "run", "run_selftest")):
                todo.append(node)
    todo += [ast.parse(source) for source in roots]
    reached, read, walked = set(), set(), set()

    def walk(item):
        if item not in walked:
            walked.add(item)
            todo.append(item)

    while todo:
        for node in ast.walk(todo.pop()):
            if isinstance(node, ast.Attribute) and node.attr not in read:
                read.add(node.attr)
                for cls, item in methods.get(node.attr, ()):
                    if cls.name in reached:
                        walk(item)
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name not in defined or name in reached:
                continue
            reached.add(name)
            for found in defined[name]:
                if not isinstance(found, ast.ClassDef):
                    todo.append(found)
                    continue
                todo += found.bases + found.keywords + found.decorator_list
                for item in found.body:
                    if not isinstance(item, ast.FunctionDef):
                        todo.append(item)
                    elif item.name in read or (item.name.startswith("__")
                                               and item.name.endswith("__")):
                        walk(item)
    return sorted([name for name in defined if name not in reached]
                  + [f"{cls.name}.{item.name}"
                     for pairs in methods.values() for cls, item in pairs
                     if cls.name in reached and item not in walked])


def test_every_definition_is_reached_from_a_command():
    sources, roots = {}, []
    for module in MODULES:
        with open(os.path.join(PACKAGE, module), encoding="utf-8") as handle:
            sources[module[:-3]] = handle.read()
    for name in BENCH_ROOTS:
        with open(os.path.join(BENCH, name), encoding="utf-8") as handle:
            roots.append(handle.read())
    assert unreached(sources, roots) == KEPT


def test_unreached_definition_is_found():
    sources = {"cli": "T = [cmd_a]\ndef cmd_a(d):\n    return lib.f(d)\n"
                      "def unused():\n    return Orphan()\n",
               "lib": "def f(x):\n    return g(x).used()\ndef g(x):\n"
                      "    return Kept(x)\n"
                      "class Base:\n    def inherited(self):\n"
                      "        return self.used\n"
                      "class Kept(Base):\n    def __init__(self, x):\n"
                      "        self.x = x\n    def used(self):\n"
                      "        return self.x\n    def unused(self):\n"
                      "        return self.inherited()\n"
                      "class Orphan:\n    def used(self):\n        pass\n",
               "__init__": "from .lib import Orphan\nOrphan()\n"}
    assert unreached(sources) == ["Base.inherited", "Kept.unused", "Orphan",
                                  "unused"]
    # a root's attribute read reaches the method of that name
    assert unreached(sources, ["def bench(k):\n    k.inherited()\n"]) == [
        "Kept.unused", "Orphan", "unused"]
