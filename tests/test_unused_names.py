"""Every import and every top-level definition of the package is used.

No linter runs in CI, so this test makes the two checks of one that catch
leftovers of a refactor: a module-level import that its module never
reads, and a top-level function or class of ``src/cqowl`` that nothing in
``src/``, ``tests/`` or ``perfbench/`` names besides its own definition.
A name is read where it appears as a name, an attribute, an imported name
or a word of a string other than a docstring: ``monkeypatch.setattr`` and
perfbench's span sites name functions in strings, and a quoted annotation
names a class.
"""
from __future__ import annotations

import ast
import re
from collections import Counter

import pytest

from tests.conftest import REPO_ROOT

PACKAGE = REPO_ROOT / "src" / "cqowl"
WORD = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _parse(path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _reads(tree: ast.AST) -> Counter:
    """How often each name is read in ``tree``, imports aside."""
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    reads: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute):
            reads[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docstrings:
            reads.update(WORD.findall(node.value))
    return reads


def _imports(tree: ast.Module) -> list[str]:
    """The names bound by the module-level imports of ``tree``, including
    those under a top-level ``if`` (such as ``if TYPE_CHECKING:``)."""
    names = []
    statements = list(tree.body)
    while statements:
        node = statements.pop()
        if isinstance(node, ast.If):
            statements.extend(node.body + node.orelse)
        elif isinstance(node, ast.Import):
            names.extend(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.extend(a.asname or a.name for a in node.names)
    return names


MODULES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_read(path):
    tree = _parse(path)
    reads = _reads(tree)
    assert [name for name in _imports(tree) if not reads[name]] == []


def test_every_top_level_function_and_class_is_named_elsewhere():
    trees = [_parse(path) for top in ("src", "tests", "perfbench")
             for path in sorted((REPO_ROOT / top).rglob("*.py"))]
    everywhere: Counter = Counter()
    for tree in trees:
        everywhere.update(_reads(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                everywhere[node.asname or node.name] += 1
    unused = []
    for path in MODULES:
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("__") \
                    and everywhere[node.name] == _reads(node)[node.name]:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == []
