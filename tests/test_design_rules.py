"""Two design rules, checked on the syntax tree of every module of the
package: no module reads another module's private names, and no library
code changes the process-wide recursion limit."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pargreedy"


def _private(name: str) -> bool:
    """A leading underscore, and not a dunder such as ``__new__``."""
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def breaches(source: str) -> list[str]:
    """Each breach of the two rules in one module's source, as text."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            found += [f"line {node.lineno}: from {module} import {a.name}"
                      for a in node.names if _private(a.name) or a.name == "setrecursionlimit"]
        elif isinstance(node, ast.Attribute):
            if node.attr == "setrecursionlimit" or (
                    isinstance(node.value, ast.Name) and node.value.id in imported
                    and _private(node.attr)):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.Name) and node.id == "setrecursionlimit":
            found.append(f"line {node.lineno}: {node.id}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_keeps_the_design_rules(path):
    assert breaches(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source", [
    "from .structure import _complement",
    "from os import _exit as leave",
    "from . import graphmetrics\ngraphmetrics._max_mask(g, 1)",
    "import pargreedy.objective\npargreedy._cache",
    "from .structure import InformationGraph\nInformationGraph._init",
    "import sys\nsys.setrecursionlimit(10_000)",
    "from sys import setrecursionlimit",
    "limit = getattr(sys, 'x').setrecursionlimit",
], ids=["private-from-import", "aliased-private-import", "module-private-attribute",
        "package-private-attribute", "imported-class-private-attribute",
        "recursion-limit-call", "recursion-limit-import", "recursion-limit-attribute"])
def test_each_breach_is_found(source):
    assert len(breaches(source)) == 1


@pytest.mark.parametrize("source", [
    "class G:\n    def f(self, c):\n        c._init(())\n        return self._adj",
    "from .structure import InformationGraph\nInformationGraph.__new__(InformationGraph)",
    "from . import graphmetrics\ngraphmetrics.clique_cover_number",
    "_local = 1\n_local.bit_count()",
], ids=["own-instance", "dunder", "public-attribute", "module-own-name"])
def test_what_the_rules_allow(source):
    assert breaches(source) == []
