"""Instance and suite generators for certification runs.

All randomness flows through an explicit ``random.Random`` seeded by the
caller, so suites are reproducible byte for byte.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

from .adversarial import (
    WitnessInstance,
    curvature_witness,
    p_additive_witness,
    sequential_half_witness,
)
from .bounds import SuiteEntry
from .objective import AgentSpace, SetFunction
from .structure import (
    InformationGraph,
    IterationAssignment,
    check_positive_int,
    induced_graph,
    optimal_graph,
)


def edgeless_graph(n: int) -> InformationGraph:
    return InformationGraph(n)


def star_graph(leaves: int) -> InformationGraph:
    """Leaves 1..leaves all observed by a final center vertex."""
    check_positive_int(leaves, "leaves")
    center = leaves + 1
    return InformationGraph(center, [(i, center) for i in range(1, center)])


def random_cover_instance(rng: random.Random, n_agents: int, *,
                          max_ground: int = 8) -> tuple[SetFunction, AgentSpace]:
    """Seeded weighted-cover instance with a guaranteed positive optimum.

    Each agent owns one or two decisions (trimmed to ``max_ground`` total);
    there are 1 to 5 targets, each with a weight from 1 to 9, and the first
    decision always covers at least one target, so some profile scores above
    zero.
    """
    max_ground = max(max_ground, n_agents)
    counts = [rng.choice((1, 1, 2, 2)) for _ in range(n_agents)]
    while sum(counts) > max_ground:
        heavy = [i for i, c in enumerate(counts) if c > 1]
        counts[rng.choice(heavy)] -= 1
    n_targets = rng.randint(1, 5)
    targets = tuple(f"y{t}" for t in range(1, n_targets + 1))
    weights = {t: rng.randint(1, 9) for t in targets}
    ground: list[str] = []
    agents: list[list[str]] = []
    coverage: dict[str, tuple[str, ...]] = {}
    for i, c in enumerate(counts, start=1):
        own = []
        for k in range(1, c + 1):
            e = f"g{i}_{k}"
            own.append(e)
            ground.append(e)
            covered = tuple(t for t in targets if rng.random() < 0.5)
            coverage[e] = covered
        agents.append(own)
    first = ground[0]
    if not coverage[first]:
        coverage[first] = (rng.choice(targets),)
    f = SetFunction.cover(ground, targets, weights, coverage)
    return f, AgentSpace(agents)


def random_assignment(rng: random.Random, n: int, q: int) -> IterationAssignment:
    """Random order-preserving map into at most q iterations."""
    P = tuple(sorted(rng.randint(1, q) for _ in range(n)))
    return IterationAssignment(q, P)


def random_feasible_graph(rng: random.Random, n: int, q: int) -> InformationGraph:
    """Random member of the q-iteration feasible family: the induced graph
    of a random assignment with each edge dropped with probability 0.4.
    Removing edges can only lower the earliest schedule, so feasibility is
    preserved."""
    full = induced_graph(random_assignment(rng, n, q))
    kept = [e for e in full.sorted_edges() if rng.random() >= 0.4]
    return InformationGraph(n, kept)


def witness_entry(w: WitnessInstance, instance_id: str, graph_id: str) -> SuiteEntry:
    return SuiteEntry(instance_id, graph_id, w.objective, w.agents, w.graph,
                      predicted_ratio=w.predicted_ratio)


def curvature_witness_entries(alpha_max: int, lambdas: Sequence) -> list[SuiteEntry]:
    """Curvature witnesses on edgeless graphs of every size up to alpha_max."""
    entries = []
    for alpha in range(1, alpha_max + 1):
        g = edgeless_graph(alpha)
        for lam in lambdas:
            w = curvature_witness(g, lam)
            entries.append(witness_entry(
                w, f"curv-a{alpha}-l{w.params['lambda']}", f"edgeless-{alpha}"))
    return entries


def p_additive_witness_entries(alpha_max: int, p_max: int) -> list[SuiteEntry]:
    """Redundancy witnesses on stars (sibling present) and edgeless graphs
    (no sibling), for every p <= a <= alpha_max."""
    entries = []
    for p in range(1, p_max + 1):
        for a in range(p, alpha_max + 1):
            w = p_additive_witness(star_graph(a), p)
            entries.append(witness_entry(w, f"padd-star-a{a}-p{p}", f"star-{a}"))
            w = p_additive_witness(edgeless_graph(a), p)
            entries.append(witness_entry(w, f"padd-free-a{a}-p{p}", f"edgeless-{a}"))
    return entries


def standard_witness_entries(alpha_max: int, lambdas: Sequence,
                             p_max: Optional[int] = None) -> list[SuiteEntry]:
    check_positive_int(alpha_max, "alpha_max")
    entries = curvature_witness_entries(alpha_max, lambdas)
    if p_max is not None:
        check_positive_int(p_max, "p_max")
        entries += p_additive_witness_entries(alpha_max, p_max)
    half = sequential_half_witness()
    entries.append(witness_entry(half, "sequential-half", "complete-2"))
    return entries


def random_cover_entries(seed: int, count: int, n_max: int) -> list[SuiteEntry]:
    """Seeded cover instances alternating between the optimal construction
    and random feasible graphs."""
    check_positive_int(count, "count")
    check_positive_int(n_max, "n_max")
    rng = random.Random(seed)
    entries = []
    for k in range(count):
        n = rng.randint(1, n_max)
        f, agents = random_cover_instance(rng, n)
        q = rng.randint(1, n)
        if k % 2 == 0:
            graph = optimal_graph(n, q)
            graph_id = f"optimal-{n}-{q}"
        else:
            graph = random_feasible_graph(rng, n, q)
            graph_id = f"feasible-{n}-{q}-{k}"
        entries.append(SuiteEntry(f"random-{k:04d}", graph_id, f, agents, graph))
    return entries
