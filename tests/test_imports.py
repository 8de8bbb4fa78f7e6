"""No module of the package imports a name it never uses.

No linter ships with the package's toolchain, so this is the check: each
module under src/holopoisson is parsed with ast, and every name bound by
a module-level import must be read somewhere in the module, or listed in
its __all__ (the package's re-exports)."""

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
