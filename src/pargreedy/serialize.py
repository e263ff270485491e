"""JSON file formats for instances, graphs, assignments and witnesses.

Rationals are written as "p/q" in lowest terms (plain integers stay bare).
Parsers validate fully and name the offending field in every rejection.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Union

from .adversarial import WitnessInstance
from .errors import InputError
from .objective import OBJECTIVE_KINDS, AgentSpace, SetFunction, as_fraction, check_partition, id_list, require
from .structure import (
    InformationGraph,
    IterationAssignment,
    is_int,
    validate_assignment,
)


# -- graphs ----------------------------------------------------------


def graph_to_obj(graph: InformationGraph) -> dict:
    return {"n": graph.n, "edges": [list(e) for e in graph.sorted_edges()]}


def graph_from_obj(obj: dict) -> InformationGraph:
    if not isinstance(obj, dict):
        raise InputError("graph: expected a JSON object")
    n = require(obj, "n", int, "graph")
    edges = require(obj, "edges", list, "graph")
    try:
        return InformationGraph(n, edges)
    except InputError as exc:
        raise InputError(f"graph.{exc}") from None


# -- assignments -----------------------------------------------------


def assignment_to_obj(assignment: IterationAssignment) -> dict:
    return {"q": assignment.q, "P": list(assignment.P)}


def _assignment_shape_from_obj(obj: dict) -> IterationAssignment:
    if not isinstance(obj, dict):
        raise InputError("assignment: expected a JSON object")
    q = require(obj, "q", int, "assignment")
    P = require(obj, "P", list, "assignment")
    return IterationAssignment(q, tuple(P))


def assignment_from_obj(obj: dict) -> IterationAssignment:
    assignment = _assignment_shape_from_obj(obj)
    if not all(is_int(p) for p in assignment.P):
        raise InputError("assignment.P: iterations must be integers")
    violation = validate_assignment(assignment)
    if violation is not None:
        raise InputError(f"assignment.P: {violation.detail}")
    return assignment


# -- instances (objective + agents) ----------------------------------


def instance_to_obj(f: SetFunction, agents: AgentSpace) -> dict:
    return {
        "ground": list(f.ground),
        "agents": [sorted(d, key=f.ground_index) for d in agents.decisions],
        "objective": f.to_obj(),
    }


def instance_from_obj(obj: dict) -> tuple[SetFunction, AgentSpace]:
    if not isinstance(obj, dict):
        raise InputError("instance: expected a JSON object")
    ground = id_list(require(obj, "ground", list), "ground")
    agents_raw = require(obj, "agents", list)
    decisions = [id_list(a, f"agents[{i + 1}]") for i, a in enumerate(agents_raw)]
    payload = require(obj, "objective", dict)
    kind = require(payload, "kind", str, "objective")
    if kind not in OBJECTIVE_KINDS:
        raise InputError(f"objective.kind: expected one of {tuple(OBJECTIVE_KINDS)}, got {kind!r}")
    f = OBJECTIVE_KINDS[kind].from_obj(ground, payload)

    try:
        agents = AgentSpace(decisions)
    except InputError as exc:
        raise InputError(f"agents: partition violated: {exc}") from None
    check_partition(f, agents)
    return f, agents


# -- witnesses -------------------------------------------------------


def witness_to_obj(w: WitnessInstance) -> dict:
    params = {}
    for k, v in (w.params or {}).items():
        if isinstance(v, Fraction):
            params[k] = str(v)
        elif isinstance(v, tuple):
            params[k] = list(v)
        else:
            params[k] = v
    return {
        "instance": instance_to_obj(w.objective, w.agents),
        "graph": graph_to_obj(w.graph),
        "predicted_ratio": str(as_fraction(w.predicted_ratio, "predicted_ratio")),
        "bound_ref": w.source,
        "params": params,
    }


def witness_from_obj(obj: dict) -> WitnessInstance:
    if not isinstance(obj, dict):
        raise InputError("witness: expected a JSON object")
    f, agents = instance_from_obj(require(obj, "instance", dict))
    graph = graph_from_obj(require(obj, "graph", dict))
    predicted = as_fraction(require(obj, "predicted_ratio", (str, int)), "predicted_ratio")
    source = require(obj, "bound_ref", str)
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise InputError("params: expected a JSON object")
    return WitnessInstance(f, agents, graph, predicted, source, dict(params))


# -- file helpers ----------------------------------------------------


PathLike = Union[str, Path]


def _load_json(path: PathLike) -> dict:
    p = Path(path)
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InputError(f"file not found: {p}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{p}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except (OSError, ValueError, RecursionError) as exc:
        # a directory, undecodable bytes, nesting or an integer literal
        # beyond the parser's limits
        raise InputError(f"{p}: unreadable JSON: {exc}") from None


def _dump_json(obj: dict, path: PathLike) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_graph(path: PathLike) -> InformationGraph:
    return graph_from_obj(_load_json(path))


def save_graph(graph: InformationGraph, path: PathLike) -> None:
    _dump_json(graph_to_obj(graph), path)


def load_assignment(path: PathLike) -> IterationAssignment:
    return assignment_from_obj(_load_json(path))


def load_unchecked_assignment(path: PathLike) -> IterationAssignment:
    """The q and P of an assignment file, checked for shape only: unlike
    :func:`load_assignment`, this accepts a P that breaks the order or range
    invariants, which :func:`validate_assignment` then reports."""
    return _assignment_shape_from_obj(_load_json(path))


def save_assignment(assignment: IterationAssignment, path: PathLike) -> None:
    """Write the assignment, after the checks of :func:`load_assignment`:
    an assignment that would not load back raises InputError and writes no
    file."""
    obj = assignment_to_obj(assignment)
    assignment_from_obj(obj)
    _dump_json(obj, path)


def load_instance(path: PathLike) -> tuple[SetFunction, AgentSpace]:
    return instance_from_obj(_load_json(path))


def save_instance(f: SetFunction, agents: AgentSpace, path: PathLike) -> None:
    _dump_json(instance_to_obj(f, agents), path)


def load_witness(path: PathLike) -> WitnessInstance:
    return witness_from_obj(_load_json(path))


def save_witness(w: WitnessInstance, path: PathLike) -> None:
    _dump_json(witness_to_obj(w), path)
