"""Greedy execution over an information graph, brute-force optima, and
empirical competitive ratios.

Each agent, visited in index order, maximizes its marginal contribution with
respect to the decisions of its in-neighbors only.  Argmax ties are detected
by exact rational equality; the tie policies are:

* ``first`` / ``last``  -- pick the tied decision that is earliest / latest
  in ground order (single pass),
* ``worst`` / ``best``  -- minimize / maximize the final value over every
  tie resolution (full tie-tree enumeration),
* ``all``               -- return every resolution, deduplicated by final
  decision set.

The tie tree is explored depth-first with a node-count cap.  Because agent
decision sets are disjoint, the set of decisions taken so far identifies the
resolution path uniquely, so the tree is explored without memoization; the
cap guards against blowup.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional, Union

from .errors import CapacityError, InputError, UndefinedRatioError
from .objective import AgentSpace, SetFunction, ZERO, check_partition
from .structure import (
    InformationGraph,
    IterationAssignment,
    Schedule,
    earliest_schedule,
    normalize_assignment,
    validate_assignment,
)

POLICIES = ("first", "last", "worst", "best", "all")

DEFAULT_NODE_CAP = 1_000_000
DEFAULT_PROFILE_CAP = 10_000_000


@dataclass(frozen=True)
class GreedyOutcome:
    """One greedy run: chosen decision per agent (None for a null decision),
    the exact final value, each agent's realized marginal contribution (with
    respect to all earlier decisions, so they telescope to the value), the
    number of tie resolutions explored, and the schedule used."""
    profile: tuple[Optional[str], ...]
    value: Fraction
    per_agent_marginal: tuple[Fraction, ...]
    resolutions_explored: int
    schedule: Schedule

    def chosen(self) -> frozenset[str]:
        return frozenset(d for d in self.profile if d is not None)


def _check_policy(policy: str) -> None:
    if policy not in POLICIES:
        raise InputError(f"policy: expected one of {POLICIES}, got {policy!r}")


def _ordered_decisions(f: SetFunction, agents: AgentSpace) -> list[list[tuple[str, int]]]:
    """Per agent: (id, mask) pairs sorted by ground order."""
    check_partition(f, agents)
    out = []
    for dset in agents.decisions:
        opts = sorted(dset, key=f.ground_index)
        out.append([(e, f.subset_mask((e,))) for e in opts])
    return out


def _greedy_engine(f: SetFunction, decisions: list[list[tuple[str, int]]],
                   visible_sources: list[list[int]], policy: str,
                   node_cap: int, schedule: Schedule
                   ) -> Union[GreedyOutcome, tuple[GreedyOutcome, ...]]:
    """Shared DFS over tie resolutions.  ``visible_sources[i]`` lists the
    agents (0-based) whose decisions agent i observes."""
    n = len(decisions)
    chosen_mask = [0] * n
    profile: list[Optional[str]] = [None] * n
    marginals: list[Fraction] = [ZERO] * n

    single_pass = policy in ("first", "last")
    nodes = 0
    leaves = 0
    # worst/best incumbent, "all" collector keyed by final decision-set mask
    incumbent: Optional[tuple] = None
    collected: dict[int, tuple] = {}

    def record_leaf(union_mask: int, total: Fraction) -> None:
        nonlocal incumbent, leaves
        leaves += 1
        snap = (total, tuple(profile), tuple(marginals), union_mask)
        if policy == "worst":
            if incumbent is None or total < incumbent[0]:
                incumbent = snap
        elif policy == "best":
            if incumbent is None or total > incumbent[0]:
                incumbent = snap
        elif single_pass:
            incumbent = snap
        else:
            collected.setdefault(union_mask, snap)

    def dfs(i: int, union_mask: int, total: Fraction) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            raise CapacityError(f"tie-tree enumeration exceeded {node_cap} nodes")
        if i == n:
            record_leaf(union_mask, total)
            return
        opts = decisions[i]
        if not opts:
            profile[i] = None
            marginals[i] = ZERO
            dfs(i + 1, union_mask, total)
            return
        vis = 0
        for j in visible_sources[i]:
            vis |= chosen_mask[j]
        base = f.mask_value(vis)
        gains = [(f.mask_value(vis | m) - base, e, m) for e, m in opts]
        top = max(g for g, _, _ in gains)
        ties = [(e, m) for g, e, m in gains if g == top]
        if single_pass:
            ties = [ties[0] if policy == "first" else ties[-1]]
        before = f.mask_value(union_mask)
        for e, m in ties:
            realized = f.mask_value(union_mask | m) - before
            profile[i] = e
            marginals[i] = realized
            chosen_mask[i] = m
            dfs(i + 1, union_mask | m, total + realized)
            chosen_mask[i] = 0
        profile[i] = None
        marginals[i] = ZERO

    dfs(0, 0, ZERO)

    if policy in ("first", "last", "worst", "best"):
        total, prof, margs, _ = incumbent
        return GreedyOutcome(prof, total, margs, leaves, schedule)
    outcomes = [GreedyOutcome(prof, total, margs, leaves, schedule)
                for total, prof, margs, _ in collected.values()]
    order = {e: k for k, e in enumerate(f.ground)}
    outcomes.sort(key=lambda o: tuple(-1 if d is None else order[d] for d in o.profile))
    return tuple(outcomes)


def run_greedy(f: SetFunction, agents: AgentSpace, graph: InformationGraph,
               policy: str = "worst", *, node_cap: int = DEFAULT_NODE_CAP
               ) -> Union[GreedyOutcome, tuple[GreedyOutcome, ...]]:
    """Generalized greedy over an information graph.

    Agent i sees exactly the decisions of its in-neighbors {j < i : {j,i} in E}.
    Returns one outcome, or a tuple of outcomes for policy="all".
    """
    _check_policy(policy)
    if agents.n != graph.n:
        raise InputError(f"agents: {agents.n} agents but graph has {graph.n} vertices")
    decisions = _ordered_decisions(f, agents)
    in_masks = graph.in_neighbor_masks()
    sources = [[j for j in range(i) if in_masks[i] >> j & 1] for i in range(graph.n)]
    return _greedy_engine(f, decisions, sources, policy, node_cap, earliest_schedule(graph))


def run_parallel_greedy(f: SetFunction, agents: AgentSpace, assignment: IterationAssignment,
                        policy: str = "worst", *, node_cap: int = DEFAULT_NODE_CAP
                        ) -> Union[GreedyOutcome, tuple[GreedyOutcome, ...]]:
    """Parallelized greedy driven directly by an iteration assignment:
    agent i sees every agent assigned to a strictly earlier iteration.

    Independent of :func:`run_greedy`; the two must agree on the induced
    graph, which the test suite checks differentially.
    """
    _check_policy(policy)
    violation = validate_assignment(assignment)
    if violation is not None:
        raise InputError(f"assignment: {violation.detail}")
    if agents.n != assignment.n:
        raise InputError(f"agents: {agents.n} agents but assignment has {assignment.n}")
    P = assignment.P
    n = assignment.n
    decisions = _ordered_decisions(f, agents)
    sources = [[j for j in range(n) if P[j] < P[i]] for i in range(n)]
    # dense rank of the iteration values = earliest feasible round
    ranked = normalize_assignment(assignment)
    schedule = Schedule(ranked.P, ranked.q)
    return _greedy_engine(f, decisions, sources, policy, node_cap, schedule)


def brute_force_optimum(f: SetFunction, agents: AgentSpace, *,
                        profile_cap: int = DEFAULT_PROFILE_CAP
                        ) -> tuple[tuple[Optional[str], ...], Fraction]:
    """Exact maximum of f over all action profiles, by full enumeration.

    Returns the first maximizing profile in lexicographic ground order.
    """
    decisions = _ordered_decisions(f, agents)
    count = 1
    for opts in decisions:
        count *= max(1, len(opts))
        if count > profile_cap:
            raise CapacityError(f"profile enumeration exceeds cap {profile_cap}")

    best_masks: tuple[int, ...] = ()
    best_value: Optional[Fraction] = None
    # the masks are distinct single bits, so their sum is their union
    for masks in product(*([m for _, m in opts] or [0] for opts in decisions)):
        v = f.mask_value(sum(masks))
        if best_value is None or v > best_value:
            best_value, best_masks = v, masks
    ids = [{m: e for e, m in opts} for opts in decisions]
    return tuple(by_mask.get(m) for by_mask, m in zip(ids, best_masks)), best_value


def empirical_ratio(f: SetFunction, agents: AgentSpace, graph: InformationGraph, *,
                    node_cap: int = DEFAULT_NODE_CAP,
                    profile_cap: int = DEFAULT_PROFILE_CAP) -> Fraction:
    """Worst-tie-broken greedy value divided by the exact optimum.

    This is an upper estimate of the graph's true competitive ratio, which
    is an infimum over all objectives and decision spaces.
    """
    _, opt = brute_force_optimum(f, agents, profile_cap=profile_cap)
    if opt == 0:
        raise UndefinedRatioError("optimum value is 0, ratio undefined")
    worst = run_greedy(f, agents, graph, "worst", node_cap=node_cap)
    return worst.value / opt
