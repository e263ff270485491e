"""Worst-case instance generators witnessing the upper bounds exactly.

Each generator returns a :class:`WitnessInstance` bundling the objective,
the agent decision sets, the graph, and the ratio the instance is designed
to attain under worst tie-breaking.  The certification harness checks the
attained ratio against the prediction by full enumeration.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional

from .errors import InputError
from .graphmetrics import (
    has_p_sibling,
    independence_number,
    pseudo_independence_number,
)
from .objective import ONE, ZERO, AgentSpace, SetFunction, as_lambda
from .structure import InformationGraph, Record, check_positive_int


class WitnessInstance(Record):
    """A concrete (objective, agents, graph) triple with its predicted
    worst-greedy-to-optimal ratio and the bound it certifies.  ``params``
    holds the construction's parameters; None (no parameters) is written
    as an empty object."""
    objective: SetFunction
    agents: AgentSpace
    graph: InformationGraph
    predicted_ratio: Fraction
    source: str
    params: Optional[Mapping] = None


def _two_blocks(graph: InformationGraph, members: tuple[int, ...],
                sibling: Optional[int] = None) -> tuple[tuple, tuple, AgentSpace]:
    """The ids of blocks U and V, and the agents' decision sets: member k
    chooses {u_k, v_k}, the sibling (when given) {u_(a+1), t} with a the
    number of members, and every other agent the null decision."""
    a = len(members)
    u_ids = tuple(f"u{k}" for k in range(1, a + 1 + (sibling is not None)))
    v_ids = tuple(f"v{k}" for k in range(1, a + 1))
    decisions = [set() for _ in range(graph.n)]
    for agent, u, v in zip(members, u_ids, v_ids):
        decisions[agent - 1] = {u, v}
    if sibling is not None:
        decisions[sibling - 1] = {u_ids[a], "t"}
    return u_ids, v_ids, AgentSpace(decisions)


def curvature_witness(graph: InformationGraph, lam) -> WitnessInstance:
    """The two-block construction attaining (a - (a-1)*lam) / a, where a is
    the independence number of the graph.

    Agents of a maximum independent set choose between a shared-value block
    element u_k and a private block element v_k; every other agent gets the
    null decision.  Greedy agents are exactly indifferent, so the worst
    resolution takes all u's while the optimum takes all v's.

    Note the function's measured total curvature equals lam only when the
    independent set has at least two members; with a single member the two
    blocks never interact and the function is modular (curvature 0).  The
    predicted ratio is 1 in that case either way.
    """
    lam = as_lambda(lam)
    members = independence_number(graph).witness
    alpha = len(members)
    if alpha == 0:
        raise InputError("graph: construction needs alpha(G) >= 1, got a graph with no vertices")
    u_ids, v_ids, agents = _two_blocks(graph, members)
    f = SetFunction.curvature_witness(u_ids, v_ids, lam)
    predicted = (alpha - (alpha - 1) * lam) / Fraction(alpha)
    effective = lam if alpha >= 2 else ZERO
    return WitnessInstance(
        f, agents, graph, predicted, "curvature-upper",
        {"lambda": lam, "alpha": alpha, "curvature": effective,
         "independent_set": members})


def p_additive_witness(graph: InformationGraph, p: int) -> WitnessInstance:
    """The p-additive construction attaining p/(a+1) when the graph has the
    p-sibling property and p/a otherwise, with a the maximum
    p-pseudo-independent set size.

    Members of the chosen maximum set pick between u_k and v_k, each worth
    1/p; a sibling, when present, picks between u_{a+1} and a padding
    decision t that never contributes.  The shared min(1, |x n U|/p) term
    saturates once p u's are taken, which is what the worst greedy run does.
    """
    check_positive_int(p, "p")
    sibling = has_p_sibling(graph, p)
    if sibling is not None:
        members = sibling.pseudo_independent_set
        sibling_agent: Optional[int] = sibling.vertex
        source = "redundancy-upper-sibling"
    else:
        members = pseudo_independence_number(graph, p).witness
        sibling_agent = None
        source = "redundancy-upper"
    a = len(members)
    if p > a:
        raise InputError(
            f"p: construction needs p <= alpha_p(G), got p={p} with alpha_p={a}"
            " (the predicted ratio would exceed 1)")
    u_ids, v_ids, agents = _two_blocks(graph, members, sibling_agent)
    ground = u_ids + v_ids + (("t",) if sibling_agent is not None else ())
    f = SetFunction.p_additive_witness(ground, u_ids, v_ids, p)
    # U holds one id per member and one for a sibling: p/(a+1) with one, p/a without
    return WitnessInstance(
        f, agents, graph, Fraction(p, len(u_ids)), source,
        {"p": p, "alpha_p": a, "sibling": sibling_agent is not None,
         "pseudo_independent_set": members})


def sequential_half_witness() -> WitnessInstance:
    """Two-agent cover instance attaining exactly 1/2 with full information.

    Agent 1 is indifferent between covering a fresh target (a) and the
    target agent 2 is about to cover (b1); the worst resolution wastes
    agent 2's only decision.
    """
    f = SetFunction.cover(
        ground=("a", "b1", "b2"),
        targets=("y1", "y2"),
        weights={"y1": 1, "y2": 1},
        coverage={"a": ("y1",), "b1": ("y2",), "b2": ("y2",)},
    )
    agents = AgentSpace([{"a", "b1"}, {"b2"}])
    graph = InformationGraph(2, [(1, 2)])
    return WitnessInstance(
        f, agents, graph, Fraction(1, 2), "sequential-half",
        {"curvature": ONE})
