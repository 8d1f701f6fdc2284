"""Every module of ``src/``, ``tests/`` and ``tools/`` uses what it
imports.

The check walks each module's syntax tree with the standard library
alone. A package's ``__init__.py`` imports to re-export, so it is
skipped, as are ``from __future__`` imports. A name counts as used if
the module reads it anywhere, names it in ``__all__``, or names it in a
string annotation, such as a class imported under ``TYPE_CHECKING``.
"""

import ast
import os

from conftest import ROOT


def modules():
    """Each checked module's path, relative to the repository root."""
    for top in ("src", "tests", "tools"):
        for folder, subs, files in os.walk(os.path.join(ROOT, top)):
            subs.sort()
            for name in sorted(files):
                if name.endswith(".py") and name != "__init__.py":
                    yield os.path.relpath(os.path.join(folder, name), ROOT)


def imported(tree):
    """(name, line) for each name an import binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def used(tree):
    """The names the module reads, in its code, its ``__all__`` and its
    string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
            continue
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names.update(item.value for item in ast.walk(node.value)
                         if isinstance(item, ast.Constant))
        if isinstance(node, ast.arg):
            notes = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes = [node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        else:
            continue
        while notes:
            note = notes.pop()
            for item in ast.walk(note) if note is not None else ():
                if isinstance(item, ast.Name):
                    names.add(item.id)
                elif (isinstance(item, ast.Constant)
                      and isinstance(item.value, str)):
                    notes.append(ast.parse(item.value, mode="eval"))
    return names


def test_every_import_is_used():
    unused = []
    for path in modules():
        with open(os.path.join(ROOT, path), encoding="utf-8") as f:
            tree = ast.parse(f.read(), path)
        names = used(tree)
        unused += [f"{path}:{line}: {name}"
                   for name, line in imported(tree) if name not in names]
    assert unused == []


def test_an_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport re\n"
                     "from typing import TYPE_CHECKING, Optional\n"
                     "if TYPE_CHECKING:\n    from x import Plan, Term\n"
                     "__all__ = ['Optional']\n"
                     "def f(p: 'Optional[Plan]') -> None:\n"
                     "    return os.sep\n")
    names = used(tree)
    assert [name for name, _ in imported(tree) if name not in names] \
        == ["re", "Term"]
