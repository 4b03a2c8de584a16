"""Every top-level import of a library module is used by that module.

No linter runs on this repository, so this AST scan is the gate.  A name
counts as used when the module reads it anywhere (also inside functions),
names it in a string annotation (``"Future[str]"``) or lists it in
``__all__``.  Package ``__init__.py`` files are skipped: they import to
re-export.
"""

import ast
from pathlib import Path

import repro

SOURCE_ROOT = Path(repro.__file__).parent
MODULES = sorted(path for path in SOURCE_ROOT.rglob("*.py")
                 if path.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict:
    """Name bound by each top-level import statement -> its line."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def string_annotation_names(tree: ast.Module) -> set:
    """Names inside the quoted annotations of arguments, returns and
    annotated assignments."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            annotations.append(node.returns)
            annotations.extend(
                arg.annotation for arg in (
                    arguments.posonlyargs + arguments.args
                    + arguments.kwonlyargs + [arguments.vararg,
                                              arguments.kwarg])
                if arg is not None)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(inner.id for inner in ast.walk(
                    ast.parse(node.value, mode="eval"))
                    if isinstance(inner, ast.Name))
    return names


def exported_names(tree: ast.Module) -> set:
    """The string entries of a top-level ``__all__`` list."""
    names = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name)
                        and target.id == "__all__"
                        for target in node.targets)):
            names.update(element.value for element in node.value.elts
                         if isinstance(element, ast.Constant))
    return names


def unused_imports(source: str) -> list:
    """``(line, name)`` of every top-level import ``source`` never uses."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= string_annotation_names(tree) | exported_names(tree)
    return sorted((line, name)
                  for name, line in imported_names(tree).items()
                  if name not in used)


class TestScan:
    def test_flags_an_unused_import_and_nothing_else(self):
        source = (
            "from __future__ import annotations\n"
            "import os.path\n"
            "import json as codec\n"
            "from typing import Dict, Optional, Sequence\n"
            "from collections import OrderedDict\n"
            "__all__ = ['OrderedDict']\n"
            "def f(x: 'Optional[int]') -> Dict:\n"
            "    return codec.loads(os.path.sep)\n")
        assert unused_imports(source) == [(4, "Sequence")]


def test_every_module_uses_its_imports():
    unused = [f"{path.relative_to(SOURCE_ROOT)}:{line}: {name}"
              for path in MODULES
              for line, name in unused_imports(path.read_text())]
    assert unused == []
