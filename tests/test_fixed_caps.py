"""The exhaustive searches have fixed caps: no public entry point takes a
cap or a generator parameter as an option."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pargreedy
from pargreedy import SetFunction, graphmetrics, greedy, objective, structure, suites
from pargreedy.objective import TabularFunction


def _public_callables():
    for name in pargreedy.__all__:
        yield f"pargreedy.{name}", getattr(pargreedy, name)
    for name, obj in vars(suites).items():
        if not name.startswith("_"):
            yield f"suites.{name}", obj
    for cls in (SetFunction, TabularFunction):
        for name, obj in vars(cls).items():
            if not name.startswith("_") or name == "__init__":
                yield f"{cls.__name__}.{name}", getattr(cls, name)


def test_no_public_callable_takes_a_cap_or_generator_option():
    offending = []
    for qualname, obj in _public_callables():
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # no signature to inspect
            continue
        offending += [f"{qualname}({p})" for p in params
                      if p in ("cap", "max_targets", "max_weight", "drop") or p.endswith("_cap")]
    assert offending == []


def test_random_cover_entries_has_no_max_ground():
    assert "max_ground" not in inspect.signature(suites.random_cover_entries).parameters


def test_caps_are_module_constants():
    assert (graphmetrics.GRAPH_CAP, greedy.NODE_CAP, greedy.PROFILE_CAP,
            objective.EXHAUSTIVE_CAP) == (20, 1_000_000, 10_000_000, 16)


def test_vertex_cap_is_a_module_constant_that_admits_1500_agents():
    # the 1500-agent greedy runs of tests/test_greedy.py need graphs that large
    assert structure.VERTEX_CAP == 10_000


def _module_caps():
    """(module, name) of every module-level ``*_CAP`` constant assigned in
    the package's source, and of ``greedy.PRUNE_PROFILES``."""
    caps = {("greedy", "PRUNE_PROFILES")}
    for path in Path(pargreedy.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                caps |= {(path.stem, t.id) for t in targets
                         if isinstance(t, ast.Name) and t.id.endswith("_CAP")}
    return caps


def test_readme_names_every_cap_with_its_value():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    named = re.findall(r"`(\w+)\.([A-Z_]+)` = (\d[\d,]*)", readme)
    for module, name, value in named:
        constant = getattr(importlib.import_module(f"pargreedy.{module}"), name)
        assert constant == int(value.replace(",", "")), f"{module}.{name}"
    assert _module_caps() <= {(module, name) for module, name, _ in named}
