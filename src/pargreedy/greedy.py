"""Greedy execution over an information graph, exact optima by profile
enumeration, and empirical competitive ratios.

Each agent, visited in index order, maximizes its marginal contribution with
respect to the decisions of its in-neighbors only.  Argmax ties are detected
by exact equality of the objective's scaled integer values
(:meth:`SetFunction.scaled_value`, f times the objective's fixed
denominator); the tie policies are:

* ``first`` / ``last``  -- pick the tied decision that is earliest / latest
  in ground order (single pass),
* ``worst`` / ``best``  -- minimize / maximize the final value over every
  tie resolution (full tie-tree enumeration),
* ``all``               -- return every resolution, one per leaf.

All five policies build the same tie tree, one level (agent) at a time with
no recursion, so the number of agents is not bounded by the interpreter's
recursion limit; ``first`` / ``last`` keep one tie per level, so their tree
is a single path.  Only the current level is held: the decision union of
every path to it, in depth-first order, so the leaves come out in ground
order.  Every node, leaves and null-decision agents included, counts against
``NODE_CAP``, which guards against blowup; a level's count is checked before
the level is built, so at most ``NODE_CAP`` unions are ever held.

Agent i's gains depend only on the union of its visible sources' decisions,
so its tie set is computed once per distinct visible union in the level and
reused on every path that reaches it with the same view.  No running total
is carried: agent decision sets are disjoint, so the union of the decisions
taken identifies a leaf, no two leaves share one, and a leaf costs one
evaluation of that union.  Marginals telescope to f(union) - f(empty), so
the value and per-agent marginals are built only for the leaves that are
kept.  The tree and :func:`brute_force_optimum` add and compare scaled
integers; a ``Fraction`` is built only for the values they return.

:func:`brute_force_optimum` enumerates the action profiles in
lexicographic ground order.  On an objective whose kind holds its axioms by
construction, so is monotone, it stops at the first profile worth
f(ground), which no profile can exceed; on any other it enumerates every
profile.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Optional, Union

from .errors import CapacityError, InputError, UndefinedRatioError
from .objective import AgentSpace, SetFunction, check_partition
from .structure import (
    InformationGraph,
    IterationAssignment,
    Record,
    Schedule,
    earliest_schedule,
    normalize_assignment,
    validate_assignment,
)

POLICIES = ("first", "last", "worst", "best", "all")

NODE_CAP = 1_000_000
PROFILE_CAP = 10_000_000


class GreedyOutcome(Record):
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
                   visible_sources: list[list[int]], policy: str, schedule: Schedule
                   ) -> Union[GreedyOutcome, tuple[GreedyOutcome, ...]]:
    """Shared level-by-level build of the tie tree.  ``visible_sources[i]``
    lists the agents (0-based) whose decisions agent i observes.

    ``frontier`` holds the decision union of every path to the current
    depth, in depth-first order: each level replaces every union by its
    extensions with agent i's ties, in ground order.  Only one level is
    held, and its node count is checked against ``NODE_CAP`` before it is
    built, so no more than ``NODE_CAP`` unions are ever held."""
    value = f.scaled_value
    node_cap = NODE_CAP  # read once per call, not once per node
    too_many = f"tie-tree enumeration exceeded {node_cap} nodes"
    nodes = 1  # the root
    frontier = [0]
    for opts, sources in zip(decisions, visible_sources):
        if not opts:  # a null decision: one child per node
            nodes += len(frontier)
            continue
        # The decision sets are disjoint, so what agent i sees of a path is
        # its union cut down to its sources' decision sets (distinct single
        # bits, so their sum is their union).
        seen = sum(m for j in sources for _, m in decisions[j])
        ties = {}
        for vis in set(map(seen.__and__, frontier)):
            values = [value(vis | m) for _, m in opts]
            top = max(values)
            tied = [m for (_, m), v in zip(opts, values) if v == top]
            ties[vis] = tied[:1] if policy == "first" else tied[-1:] if policy == "last" else tied
        # size the level before building it: a cheap bound, then the exact count
        if nodes + len(frontier) * len(opts) > node_cap and nodes + sum(
                map(len, map(ties.__getitem__, map(seen.__and__, frontier)))) > node_cap:
            raise CapacityError(too_many)
        frontier = [u | m for u in frontier for m in ties[seen & u]]
        nodes += len(frontier)
    if nodes > node_cap:  # null-decision levels count after the last check
        raise CapacityError(too_many)

    empty = value(0)
    scale = f.scale

    def outcome(union: int) -> GreedyOutcome:
        # each agent's decision is the one of its options in the union;
        # marginals telescope: the value is f(union) - f(empty)
        profile, prefix, before, marginals = [], 0, empty, []
        for opts in decisions:
            for e, m in opts:
                if union & m:
                    break
            else:
                e, m = None, 0
            profile.append(e)
            prefix |= m
            after = value(prefix)
            marginals.append(Fraction(after - before, scale))
            before = after
        return GreedyOutcome(tuple(profile), Fraction(before - empty, scale),
                             tuple(marginals), len(frontier), schedule)

    if policy == "all":
        # Two paths differ in some agent's decision, so no two leaves share
        # a union, and depth-first order is already ground order.
        return tuple(map(outcome, frontier))
    values = list(map(value, frontier))
    return outcome(frontier[values.index((max if policy == "best" else min)(values))])


def run_greedy(f: SetFunction, agents: AgentSpace, graph: InformationGraph,
               policy: str = "worst") -> Union[GreedyOutcome, tuple[GreedyOutcome, ...]]:
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
    return _greedy_engine(f, decisions, sources, policy, earliest_schedule(graph))


def run_parallel_greedy(f: SetFunction, agents: AgentSpace, assignment: IterationAssignment,
                        policy: str = "worst"
                        ) -> Union[GreedyOutcome, tuple[GreedyOutcome, ...]]:
    """Parallelized greedy driven directly by an iteration assignment:
    agent i sees every agent assigned to a strictly earlier iteration.

    Derives who sees whom independently of :func:`run_greedy` and shares
    its tie-tree engine; the two must agree on the induced graph, which the
    test suite checks differentially.
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
    schedule = Schedule(ranked.P)
    return _greedy_engine(f, decisions, sources, policy, schedule)


def brute_force_optimum(f: SetFunction, agents: AgentSpace
                        ) -> tuple[tuple[Optional[str], ...], Fraction]:
    """Exact maximum of f over all action profiles.

    Enumerates the profiles in lexicographic ground order and returns the
    first maximizing one.  When ``f.axioms_by_construction`` holds, f is
    monotone and the decisions partition the ground set, so no profile is
    worth more than f(ground), and the enumeration stops at the first
    profile that reaches it.  Any other objective has every profile
    evaluated.  The profile count is checked against ``PROFILE_CAP`` before
    any profile is evaluated.
    """
    decisions = _ordered_decisions(f, agents)
    count = 1
    for opts in decisions:
        count *= max(1, len(opts))
        if count > PROFILE_CAP:
            raise CapacityError(f"profile enumeration exceeds cap {PROFILE_CAP}")

    best_masks: tuple[int, ...] = ()
    best_value = None
    value = f.scaled_value
    # check_partition made the full mask the union of all decisions
    ceiling = value((1 << len(f.ground)) - 1) if f.axioms_by_construction else None
    # the masks are distinct single bits, so their sum is their union
    for masks in product(*([m for _, m in opts] or [0] for opts in decisions)):
        v = value(sum(masks))
        if best_value is None or v > best_value:
            best_value, best_masks = v, masks
            if v == ceiling:
                break
    ids = [{m: e for e, m in opts} for opts in decisions]
    return (tuple(by_mask.get(m) for by_mask, m in zip(ids, best_masks)),
            Fraction(best_value, f.scale))


def empirical_ratio(f: SetFunction, agents: AgentSpace, graph: InformationGraph) -> Fraction:
    """Worst-tie-broken greedy value divided by the exact optimum.

    This is an upper estimate of the graph's true competitive ratio, which
    is an infimum over all objectives and decision spaces.
    """
    _, opt = brute_force_optimum(f, agents)
    if opt == 0:
        raise UndefinedRatioError("optimum value is 0, ratio undefined")
    worst = run_greedy(f, agents, graph, "worst")
    return worst.value / opt
