"""Greedy execution over an information graph, exact optima over the action
profiles, and empirical competitive ratios.

Each agent, visited in index order, maximizes its marginal contribution with
respect to the decisions of its in-neighbors only.  Argmax ties are detected
by exact equality of the objective's scaled integer values
(:meth:`SetFunction.scaled_value`, f times the objective's fixed
denominator); the tie policies are:

* ``first`` / ``last``  -- pick the tied decision that is earliest / latest
  in ground order (single pass),
* ``worst`` / ``best``  -- minimize / maximize the final value over every
  tie resolution,
* ``all``               -- return every resolution, one per leaf.

The tie tree is walked in one forward pass, one level (agent) at a time
with no recursion, so the number of agents is not bounded by the
interpreter's recursion limit; ``first`` / ``last`` keep one tie per level,
so their tree is a single path.  Only the current level is held: the
decision union of every path to it, in depth-first order, so the leaves come
out in ground order.  Every node, leaves and null-decision agents included,
counts against ``NODE_CAP``, which guards against blowup; a level's count is
checked before the level is built, so at most ``NODE_CAP`` unions are ever
held.

Agent i's gains depend only on the union of its visible sources' decisions,
so its tie set is computed once per distinct visible union in the level and
reused on every path that reaches it with the same view.  No running total
is carried: agent decision sets are disjoint, so the union of the decisions
taken identifies a leaf, no two leaves share one, and a leaf costs one
evaluation of that union.  Marginals telescope to f(union) - f(empty), so
the value and per-agent marginals are built only for the leaves that are
kept.  The searches add and compare scaled integers; a ``Fraction`` is
built only for the values they return.

Two searches prune on an objective whose kind holds its axioms by
construction (cover and both witnesses: monotone and submodular) when there
are more than ``PRUNE_PROFILES`` action profiles, the product of the
decision-set sizes.  Below that gate, and on every table, the plain
searches are as fast or faster, and they are the only ones that run.

* ``worst`` merges the levels of the same pass: each union is cut down to
  the bits later agents observe, and equal ones are kept once with a path
  count, which gives the exact node count checked against ``NODE_CAP`` and
  the exact leaf count reported as the resolutions.  A depth-first
  branch-and-bound over the ties the pass recorded, in the tree's leaf
  order, then finds the first minimal leaf, pruning a node u with
  f(u) >= the best leaf so far.
* :func:`brute_force_optimum` returns the first maximizing profile in
  lexicographic ground order.  On such an objective it stops at the first
  profile worth f(ground), which no profile can exceed; above the gate it is
  a depth-first branch-and-bound (Land and Doig 1960) that prunes a node
  whose bound min(f(u | all remaining options), f(u) + sum over the
  remaining agents of max f(a | u)) is <= the best so far.  On any other
  objective it enumerates every profile.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod
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
    set_bits,
    validate_assignment,
)

POLICIES = ("first", "last", "worst", "best", "all")

NODE_CAP = 1_000_000
PROFILE_CAP = 10_000_000
# Above this many profiles, the worst-policy tie search and the exact
# optimum of an objective that holds its axioms by construction prune.
PRUNE_PROFILES = 128


class GreedyOutcome(Record):
    """One greedy run: chosen decision per agent (None for a null decision),
    the exact final value, each agent's realized marginal contribution (with
    respect to all earlier decisions, so they telescope to the value), the
    number of tie resolutions (the leaves of the tie tree, counted exactly
    whether or not the search built them), and the schedule used."""
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
    return [[(f.ground[i], 1 << i) for i in sorted(map(f.ground_index, dset))]
            for dset in agents.decisions]


def _profile_count(decisions: list[list[tuple[str, int]]]) -> int:
    """The number of action profiles: the product of the decision-set
    sizes, a null decision counting once."""
    return prod(filter(None, map(len, decisions)))


def _ties(value, opts: list[tuple[str, int]], views) -> dict[int, list[int]]:
    """For each view, the masks of the options that maximize
    f(view | option), in ground order.  A lone option is its own tie and
    is not evaluated."""
    if len(opts) == 1:
        return dict.fromkeys(views, [opts[0][1]])
    ties = {}
    for vis in views:
        values = [value(vis | m) for _, m in opts]
        top = max(values)
        ties[vis] = [m for (_, m), v in zip(opts, values) if v == top]
    return ties


def _choices(decisions: list[list[tuple[str, int]]], union: int
             ) -> list[tuple[Optional[str], int]]:
    """Each agent's (id, mask) in a union of decisions, (None, 0) for none."""
    chosen = []
    for opts in decisions:
        for e, m in opts:
            if union & m:
                break
        else:
            e, m = None, 0
        chosen.append((e, m))
    return chosen


def _outcome(f: SetFunction, decisions: list[list[tuple[str, int]]], union: int,
             leaves: int, schedule: Schedule) -> GreedyOutcome:
    """The outcome of the resolution whose decisions make up ``union``.
    Marginals telescope: the value is f(union) - f(empty)."""
    value, scale = f.scaled_value, f.scale
    chosen = _choices(decisions, union)
    empty = before = value(0)
    prefix, marginals = 0, []
    for _, m in chosen:
        prefix |= m
        after = value(prefix)
        marginals.append(Fraction(after - before, scale))
        before = after
    return GreedyOutcome(tuple(e for e, _ in chosen), Fraction(before - empty, scale),
                         tuple(marginals), leaves, schedule)


def _greedy_engine(f: SetFunction, decisions: list[list[tuple[str, int]]],
                   visible_sources: list[list[int]], policy: str, schedule: Schedule
                   ) -> Union[GreedyOutcome, tuple[GreedyOutcome, ...]]:
    """The engine both drivers share: one forward pass over the levels of
    the tie tree.  ``visible_sources[i]`` lists the agents (0-based) whose
    decisions agent i observes.

    A level lists the decision union of every path to it, in depth-first
    order: each agent with decisions replaces every union by its
    extensions with its ties, in ground order.  A merged pass (``worst`` on
    an objective that holds its axioms by construction, with more than
    ``PRUNE_PROFILES`` profiles) keeps a dict instead: what the agents
    after i can see of a path is its union cut down to ``later[i + 1]``,
    and paths that agree there have subtrees of the same shape, so each
    such state is kept once with its path count.  Each level's node count
    is checked against ``NODE_CAP`` before the level is built.

    Unmerged, the last level is the leaves.  Merged, a depth-first walk over
    an explicit stack, ties in ground order, finds the first minimal leaf:
    f is monotone, so f(u) bounds every leaf below u from below, and a node
    with f(u) >= the best leaf so far is pruned; a later leaf replaces the
    best only when strictly smaller, so the first minimal leaf is kept."""
    value = f.scaled_value
    node_cap = NODE_CAP  # read once per call, not once per node
    too_many = f"tie-tree enumeration exceeded {node_cap} nodes"
    merge = (policy == "worst" and f.axioms_by_construction
             and _profile_count(decisions) > PRUNE_PROFILES)
    # The decision sets are disjoint, so what agent i sees of a path is its
    # union cut down to its sources' decision sets (distinct single bits,
    # so their sum is their union).
    seen = [sum(m for j in sources for _, m in decisions[j]) if opts else 0
            for opts, sources in zip(decisions, visible_sources)]
    if merge:
        later = [0] * (len(seen) + 1)  # later[i]: the bits agents i, i + 1, ... observe
        for i in reversed(range(len(seen))):
            later[i] = later[i + 1] | seen[i]

    steps = []  # (ties by view, bits seen) of each agent with decisions
    nodes = paths = 1  # the root; the paths to the current level
    level = {0: 1} if merge else [0]
    for i, opts in enumerate(decisions):
        if not opts:  # a null decision: one child per path
            nodes += paths
            continue
        see = seen[i]
        ties = _ties(value, opts, {s & see for s in level})
        if policy in ("first", "last"):
            ties = {vis: tied[:1] if policy == "first" else tied[-1:]
                    for vis, tied in ties.items()}
        steps.append((ties, see))
        # size the level before building it: a cheap bound, then the exact count
        if nodes + paths * len(opts) > node_cap and nodes + sum(
                len(ties[s & see]) * (level[s] if merge else 1) for s in level) > node_cap:
            raise CapacityError(too_many)
        if merge:
            keep, grown = later[i + 1], {}
            for s, c in level.items():
                for m in ties[s & see]:
                    t = (s | m) & keep
                    grown[t] = grown.get(t, 0) + c
            level, paths = grown, sum(grown.values())
        else:
            level = [s | m for s in level for m in ties[s & see]]
            paths = len(level)
        nodes += paths
    if nodes > node_cap:  # null-decision levels count after the last check
        raise CapacityError(too_many)

    if not merge:
        if policy == "all":
            # Two paths differ in some agent's decision, so no two leaves
            # share a union, and depth-first order is already ground order.
            return tuple(_outcome(f, decisions, u, paths, schedule) for u in level)
        values = list(map(value, level))
        leaf = level[values.index((max if policy == "best" else min)(values))]
        return _outcome(f, decisions, leaf, paths, schedule)
    last = len(steps) - 1
    best, leaf = None, 0
    stack = [(0, 0)] if steps else []  # (depth, union) of inner nodes, the next on top
    while stack:
        d, u = stack.pop()
        if best is not None and value(u) >= best:
            continue
        ties, see = steps[d]
        if d < last:
            stack += [(d + 1, u | m) for m in reversed(ties[u & see])]
            continue
        for m in ties[u & see]:  # the leaves below u
            v = value(u | m)
            if best is None or v < best:
                best, leaf = v, u | m
    return _outcome(f, decisions, leaf, paths, schedule)


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
    sources = [list(set_bits(m)) for m in graph.in_neighbor_masks()]
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

    Returns the first maximizing profile in lexicographic ground order.
    When ``f.axioms_by_construction`` holds, f is monotone and the
    decisions partition the ground set, so no profile is worth more than
    f(ground), and the search stops at the first profile that reaches it;
    with more than ``PRUNE_PROFILES`` profiles it is also the
    branch-and-bound of :func:`_pruned_optimum`.  Any other objective has
    every profile evaluated.  The profile count is checked against
    ``PROFILE_CAP`` before any profile is evaluated.
    """
    decisions = _ordered_decisions(f, agents)
    count = _profile_count(decisions)
    if count > PROFILE_CAP:
        raise CapacityError(f"profile enumeration exceeds cap {PROFILE_CAP}")

    value = f.scaled_value
    # check_partition made the full mask the union of all decisions
    ceiling = value((1 << len(f.ground)) - 1) if f.axioms_by_construction else None
    if ceiling is not None and count > PRUNE_PROFILES:
        best_value, union = _pruned_optimum(value, decisions, ceiling)
    else:
        best_value, union = _flat_optimum(value, decisions, ceiling)
    return tuple(e for e, _ in _choices(decisions, union)), Fraction(best_value, f.scale)


def _flat_optimum(value, decisions: list[list[tuple[str, int]]], ceiling) -> tuple:
    """(value, union) of the first maximizing profile, every profile
    evaluated in lexicographic order until one is worth ``ceiling``."""
    best_union, best_value = 0, None
    # the masks are distinct single bits, so their sum is their union
    for masks in product(*([m for _, m in opts] or [0] for opts in decisions)):
        u = sum(masks)
        v = value(u)
        if best_value is None or v > best_value:
            best_value, best_union = v, u
            if v == ceiling:
                break
    return best_value, best_union


def _pruned_optimum(value, decisions: list[list[tuple[str, int]]], ceiling) -> tuple:
    """(value, union) of the first maximizing profile of a monotone
    submodular f, by a depth-first branch-and-bound over an explicit stack
    in lexicographic order.

    Let u be the union of the decisions taken so far.  Every profile below
    u is worth at most f(u | all remaining options), since f is monotone,
    and at most f(u) + the sum over the remaining agents of their largest
    marginal f(a | u), since f is submodular (Nemhauser, Wolsey and Fisher
    1978).  A node whose bound is <= the best value so far is pruned: a
    later profile replaces the best only when strictly larger, so the first
    maximizer is kept.  The search stops at a profile worth ``ceiling``."""
    steps = [[m for _, m in opts] for opts in decisions if opts]
    last = len(steps) - 1
    rest = [0] * (last + 2)  # every option of the agents from d on
    for d in reversed(range(last + 1)):
        rest[d] = rest[d + 1] | sum(steps[d])
    best_value, best_union = (None, 0) if steps else (value(0), 0)
    stack = [(0, 0)] if steps else []  # (depth, union) of inner nodes, the next on top
    while stack:
        d, u = stack.pop()
        if best_value is not None and value(u | rest[d]) <= best_value:
            continue
        if d < last:
            if best_value is not None:
                fu = value(u)
                if fu + sum(max(value(u | m) for m in opts) - fu
                            for opts in steps[d:]) <= best_value:
                    continue
            stack += [(d + 1, u | m) for m in reversed(steps[d])]
            continue
        # at the last agent the submodular bound is the best profile below
        # u itself, so those profiles are evaluated instead
        for m in steps[d]:
            v = value(u | m)
            if best_value is None or v > best_value:
                best_value, best_union = v, u | m
                if v == ceiling:
                    return v, u | m
    return best_value, best_union


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
