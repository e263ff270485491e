"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's search algorithms: they
enumerate subsets, colorings and profiles directly, so the tests compare
two unrelated routes to the same number.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from typing import Optional

import pytest
from hypothesis import strategies as st

from pargreedy import (
    AgentSpace,
    CapacityError,
    GreedyOutcome,
    InformationGraph,
    InputError,
    SetFunction,
    UndefinedRatioError,
    brute_force_optimum,
    run_greedy,
)
from pargreedy.objective import (
    SCALE_BITS_CAP,
    PropertyReport,
    PropertyViolation,
    _table_value,
    require,
    total_curvature,
)
from pargreedy.structure import is_int
from pargreedy.suites import random_assignment, random_feasible_graph


# -- graph oracles (subset scans, no branch and bound) -----------------


def is_independent(graph: InformationGraph, vertices) -> bool:
    return all(not graph.has_edge(i, j) for i, j in combinations(vertices, 2))


def is_clique(graph: InformationGraph, vertices) -> bool:
    return all(graph.has_edge(i, j) for i, j in combinations(vertices, 2))


def brute_alpha(graph: InformationGraph) -> int:
    best = 0
    verts = range(1, graph.n + 1)
    for size in range(graph.n, 0, -1):
        if any(is_independent(graph, c) for c in combinations(verts, size)):
            return size
    return best


def brute_omega(graph: InformationGraph) -> int:
    verts = range(1, graph.n + 1)
    for size in range(graph.n, 0, -1):
        if any(is_clique(graph, c) for c in combinations(verts, size)):
            return size
    return 0


def brute_theta(graph: InformationGraph) -> int:
    """Minimum clique partition size by trying every assignment of vertices
    to k groups, k ascending.  Exponential; for oracle-sized graphs only."""
    n = graph.n
    if n == 0:
        return 0
    for k in range(1, n + 1):
        for labels in product(range(k), repeat=n):
            if set(labels) != set(range(k)):
                continue
            groups = [[v + 1 for v in range(n) if labels[v] == g] for g in range(k)]
            if all(is_clique(graph, grp) for grp in groups):
                return k
    return n


def two_pass_chromatic_number(adj: tuple[int, ...], n: int, lb: int) -> tuple[int, list[int]]:
    """The coloring search ``clique_cover_number`` used before its one
    search: a first-fit coloring in degree-descending order as the upper
    bound ub, then the backtracking decision search for k = lb .. ub - 1,
    falling back to the first-fit coloring when every k fails."""
    if n == 0:
        return 0, []
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))

    greedy = [-1] * n
    for v in order:
        used = {greedy[u] for u in range(n) if adj[v] >> u & 1 and greedy[u] >= 0}
        c = 0
        while c in used:
            c += 1
        greedy[v] = c
    ub = max(greedy) + 1

    colors = [-1] * n

    def assign(pos: int, used: int, k: int) -> bool:
        if pos == n:
            return True
        v = order[pos]
        forbidden = {colors[u] for u in range(n) if adj[v] >> u & 1 and colors[u] >= 0}
        for c in range(min(used + 1, k)):
            if c in forbidden:
                continue
            colors[v] = c
            if assign(pos + 1, max(used, c + 1), k):
                return True
            colors[v] = -1
        return False

    for k in range(lb, ub):
        colors = [-1] * n
        if assign(0, 0, k):
            return k, list(colors)
    return ub, greedy


def two_pass_clique_cover(graph: InformationGraph, alpha: int) -> tuple[int, tuple]:
    """(theta, partition) as ``clique_cover_number`` gave them before its
    one search: :func:`two_pass_chromatic_number` of the complement from
    ``alpha``, and the color classes gathered in a dict, each sorted, in
    color order."""
    k, coloring = two_pass_chromatic_number(graph.complement().adjacency_masks(), graph.n, alpha)
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(coloring):
        classes.setdefault(c, []).append(v + 1)
    return k, tuple(tuple(sorted(vs)) for _, vs in sorted(classes.items()))


def all_pseudo_independent_sets(graph: InformationGraph, p: int) -> list[tuple[int, ...]]:
    """Every p-pseudo-independent set (each member has fewer than p
    lower-index neighbors in the set), in index order.

    Unpruned include/exclude enumeration over vertices 1..n, trying to
    include a vertex before excluding it; every feasible set is a leaf.
    O(2^n); for oracle-sized graphs only."""
    leaves: list[tuple[int, ...]] = []

    def go(v: int, chosen: tuple[int, ...]) -> None:
        if v > graph.n:
            leaves.append(chosen)
            return
        if sum(graph.has_edge(u, v) for u in chosen) < p:
            go(v + 1, chosen + (v,))
        go(v + 1, chosen)

    go(1, ())
    return leaves


def brute_pseudo_independent_sets(graph: InformationGraph, p: int) -> list[tuple[int, ...]]:
    """Every maximum p-pseudo-independent set, in index order: the largest
    leaves of the unpruned enumeration, in leaf order.  At p = 1 these are
    the maximum independent sets."""
    leaves = all_pseudo_independent_sets(graph, p)
    best = max(map(len, leaves))
    return [s for s in leaves if len(s) == best]


def first_fit_cliques(adj: tuple[int, ...], n: int) -> list[int]:
    """First-fit clique partition from the highest index down."""
    cliques: list[int] = []
    for v in range(n - 1, -1, -1):
        for i, c in enumerate(cliques):
            if c & ~adj[v] == 0:
                cliques[i] = c | 1 << v
                break
        else:
            cliques.append(1 << v)
    return cliques


def rising_sets_of_size(adj: tuple[int, ...], n: int, p: int, size: int, cliques: list[int]):
    """Every p-pseudo-independent set of ``size`` vertices, as bitmasks, in
    index order: the search ``graphmetrics`` used before it bounded each
    clique by the members it already holds.  Include-first depth-first
    search; a node is pruned when ``alive`` cannot supply the missing
    members counting at most p per clique of the partition."""
    stack = [(0, (1 << n) - 1, 0)]
    while stack:
        cur, alive, have = stack.pop()
        if have == size:
            yield cur
            continue
        need = size - have
        if alive.bit_count() < need:
            continue
        for c in cliques:
            k = (c & alive).bit_count()
            need -= k if k < p else p
            if need <= 0:
                break
        else:
            continue
        vb = alive & -alive
        alive ^= vb
        stack.append((cur, alive, have))
        cur |= vb
        hits = adj[vb.bit_length() - 1] & alive
        while hits:
            ub = hits & -hits
            hits ^= ub
            if (adj[ub.bit_length() - 1] & cur).bit_count() >= p:
                alive ^= ub
        stack.append((cur, alive, have + 1))


def rising_maximum_sets(graph: InformationGraph, p: int) -> list[tuple[int, ...]]:
    """Every maximum p-pseudo-independent set, as sorted vertex tuples, in
    index order, by the search ``graphmetrics`` used before it jumped: the
    first set of each size, sizes rising from 1 until a size has none, then
    every set of the last size found."""
    adj, n = graph.adjacency_masks(), graph.n
    cliques = first_fit_cliques(adj, n)
    size = 0
    while next(rising_sets_of_size(adj, n, p, size + 1, cliques), None) is not None:
        size += 1
    return [tuple(v + 1 for v in range(n) if m >> v & 1)
            for m in rising_sets_of_size(adj, n, p, size, cliques)]


def counted_sets_of_size(adj: tuple[int, ...], n: int, p: int, size: int, cliques: list[int]):
    """Every p-pseudo-independent set of ``size`` vertices, as bitmasks, in
    index order: the search ``graphmetrics`` used before it kept, per node,
    the mask of the vertices one in-neighbor short of p.  Including v
    counts, for every alive neighbor u of v, u's in-neighbors in the set,
    and drops u at p of them."""
    stack = [(0, (1 << n) - 1, 0)] if n >= size else []
    while stack:
        cur, alive, have = stack.pop()
        if have == size:
            yield cur
            continue
        need = size - have
        for c in cliques:
            k = (c & alive).bit_count()
            if k:
                if k > 1:
                    room = p - (c & cur).bit_count()
                    if k > room:
                        k = room
                need -= k
                if need <= 0:
                    break
        else:
            continue
        vb = alive & -alive
        alive ^= vb
        if have + alive.bit_count() >= size:
            stack.append((cur, alive, have))
        cur |= vb
        hits = adj[vb.bit_length() - 1] & alive
        while hits:
            ub = hits & -hits
            hits ^= ub
            if (adj[ub.bit_length() - 1] & cur).bit_count() >= p:
                alive ^= ub
        have += 1
        if have + alive.bit_count() >= size:
            stack.append((cur, alive, have))


def checked_adjacency(n: int, edges) -> tuple[int, ...]:
    """The adjacency masks of a graph on vertices 1..n, by the per-edge
    checks ``InformationGraph`` made before it tested ids by their type and
    range by chained comparisons: the same InputError for the first bad
    edge."""
    adj = [0] * n
    for e in edges:
        if isinstance(e, (str, bytes, bytearray, dict)):
            raise InputError(f"edges: expected a pair, got {e!r}")
        try:
            pair = tuple(e)
        except TypeError:
            raise InputError(f"edges: expected a pair, got {e!r}") from None
        if len(pair) != 2:
            raise InputError(f"edges: expected a pair, got {pair!r}")
        i, j = pair
        if not (is_int(i) and is_int(j)):
            raise InputError(f"edges: vertex ids must be integers, got {pair!r}")
        if i == j:
            raise InputError(f"edges: self-loop at vertex {i}")
        if min(i, j) < 1 or max(i, j) > n:
            raise InputError(f"edges: pair {pair!r} outside vertices 1..{n}")
        adj[i - 1] |= 1 << (j - 1)
        adj[j - 1] |= 1 << (i - 1)
    return tuple(adj)


class EdgeSetGraph:
    """An information graph kept as a frozenset of (min, max) edge tuples,
    with every other view read off that set: the independent route that the
    mask-based :class:`InformationGraph` is compared against.  Takes valid
    input only."""

    def __init__(self, n: int, edges=()):
        self.n = n
        self.edges = frozenset((min(i, j), max(i, j)) for i, j in edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def adjacency_masks(self) -> tuple[int, ...]:
        adj = [0] * self.n
        for i, j in self.edges:
            adj[i - 1] |= 1 << (j - 1)
            adj[j - 1] |= 1 << (i - 1)
        return tuple(adj)

    def in_neighbor_masks(self) -> list[int]:
        adj = self.adjacency_masks()
        return [adj[i] & ((1 << i) - 1) for i in range(self.n)]

    def in_neighbors(self, i: int) -> tuple[int, ...]:
        return tuple(j for j in range(1, i) if (j, i) in self.edges)

    def complement(self) -> "EdgeSetGraph":
        return EdgeSetGraph(self.n, [(i, j) for i in range(1, self.n + 1)
                                     for j in range(i + 1, self.n + 1)
                                     if (i, j) not in self.edges])


# The edge lists of structure's constructions, by testing every vertex
# pair: a route that builds no class mask.  Valid (n, q), (n, r) and
# nondecreasing assignments only.

def pair_list_induced_graph(P) -> list[tuple[int, int]]:
    n = len(P)
    return [(i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if P[i - 1] < P[j - 1]]


def pair_list_optimal_graph(n: int, q: int) -> list[tuple[int, int]]:
    if n == 1:
        return []
    r = -(-n // q)
    if n % q == 1 % q:
        step = r - 1
        edges = [(i, j) for i in range(1, n) for j in range(i + 1, n)
                 if (j - i) % step == 0]
        edges += [(i, n) for i in range(1, (q - 1) * step + 1)]
        return edges
    return pair_list_complement_turan_graph(n, r)


def pair_list_turan_graph(n: int, r: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
            if (j - i) % r != 0]


def pair_list_complement_turan_graph(n: int, r: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
            if (j - i) % r == 0]


def all_graphs(n: int):
    """Every labeled graph on vertices 1..n."""
    pairs = list(combinations(range(1, n + 1), 2))
    for bits in range(1 << len(pairs)):
        yield InformationGraph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def brute_submodular(f: SetFunction) -> bool:
    """The full quantifier form: f(e|A) >= f(e|B) for every A subset of B
    and e outside B."""
    n = len(f.ground)
    table = [f.mask_value(m) for m in range(1 << n)]
    for b in range(1 << n):
        a = b
        while True:  # enumerate subsets a of b
            for i in range(n):
                e = 1 << i
                if b & e:
                    continue
                if table[a | e] - table[a] < table[b | e] - table[b]:
                    return False
            if a == 0:
                break
            a = (a - 1) & b
    return True


def brute_total_curvature(f: SetFunction) -> Fraction:
    """The definition scanned directly: the maximum of 1 - f(e|A)/f(e) over
    every element with f(e) > 0 and every subset A not containing it, and 0
    when there is none.  O(n 2^n); for oracle-sized grounds only."""
    n = len(f.ground)
    table = [f.mask_value(m) for m in range(1 << n)]
    worst = Fraction(0)
    for i in range(n):
        bit = 1 << i
        fe = table[bit]
        if fe <= 0:
            continue
        for m in range(1 << n):
            if not m & bit:
                worst = max(worst, 1 - (table[m | bit] - table[m]) / fe)
    return worst


def brute_optimum(f: SetFunction, agents: AgentSpace):
    """(profile, value) of the first maximizing profile, each agent's
    decisions taken in ground order and the first agent varying slowest."""
    best = None
    pools = [sorted(d, key=f.ground_index) if d else [None] for d in agents.decisions]
    for profile in product(*pools):
        v = f.value([d for d in profile if d is not None])
        if best is None or v > best[1]:
            best = (profile, v)
    return best


# -- greedy oracle (recursive tie-tree walk, no caching) ---------------


def brute_greedy(f: SetFunction, agents: AgentSpace, sources, policy: str, schedule):
    """What ``run_greedy`` / ``run_parallel_greedy`` return, from the tie
    tree walked recursively: every node recomputes its agent's gains from
    what its sources (``sources[i]``, 0-based agents) chose, every branch
    carries its running total of realized marginals, and every leaf is
    kept.  ``worst`` / ``best`` take the first minimal / maximal leaf,
    ``all`` the first leaf of each decision set, sorted by ground order."""
    decisions = [[(e, f.subset_mask((e,))) for e in sorted(d, key=f.ground_index)]
                 for d in agents.decisions]
    n = len(decisions)
    chosen = [0] * n
    profile = [None] * n
    marginals = [Fraction(0)] * n
    leaves = []  # (total, profile, marginals, union)

    def dfs(i: int, union: int, total: Fraction) -> None:
        if i == n:
            leaves.append((total, tuple(profile), tuple(marginals), union))
            return
        opts = decisions[i]
        if not opts:
            dfs(i + 1, union, total)
            return
        vis = 0
        for j in sources[i]:
            vis |= chosen[j]
        base = f.mask_value(vis)
        gains = [(f.mask_value(vis | m) - base, e, m) for e, m in opts]
        top = max(g for g, _, _ in gains)
        ties = [(e, m) for g, e, m in gains if g == top]
        if policy == "first":
            ties = ties[:1]
        elif policy == "last":
            ties = ties[-1:]
        before = f.mask_value(union)
        for e, m in ties:
            realized = f.mask_value(union | m) - before
            profile[i], marginals[i], chosen[i] = e, realized, m
            dfs(i + 1, union | m, total + realized)
        profile[i], marginals[i], chosen[i] = None, Fraction(0), 0

    dfs(0, 0, Fraction(0))

    def outcome(leaf) -> GreedyOutcome:
        total, prof, margs, _ = leaf
        return GreedyOutcome(prof, total, margs, len(leaves), schedule)

    if policy == "worst":
        return outcome(min(leaves, key=lambda leaf: leaf[0]))
    if policy == "best":
        return outcome(max(leaves, key=lambda leaf: leaf[0]))
    if policy in ("first", "last"):
        (leaf,) = leaves
        return outcome(leaf)
    firsts = {}
    for leaf in leaves:
        firsts.setdefault(leaf[3], leaf)
    order = {e: k for k, e in enumerate(f.ground)}
    return tuple(sorted((outcome(leaf) for leaf in firsts.values()),
                        key=lambda o: [-1 if d is None else order[d] for d in o.profile]))


# -- ratio and bound oracles (the compositions the fast paths replaced) --


def composed_ratio(f: SetFunction, agents: AgentSpace, graph: InformationGraph) -> Fraction:
    """What ``empirical_ratio`` returns, composed from the public calls:
    ``brute_force_optimum`` first, then the worst greedy outcome's value
    divided by the optimum, each call ordering the decisions itself."""
    _, opt = brute_force_optimum(f, agents)
    if opt == 0:
        raise UndefinedRatioError("optimum value is 0, ratio undefined")
    return run_greedy(f, agents, graph, "worst").value / opt


def fraction_curvature_bounds(alpha: int, theta: int, lam: Fraction) -> tuple[Fraction, Fraction]:
    """(lower, upper) of the curvature bounds in Fraction arithmetic:
    (theta-(theta-1)lam)/(theta+lam) and (alpha-(alpha-1)lam)/alpha."""
    return ((theta - (theta - 1) * lam) / (theta + lam),
            (alpha - (alpha - 1) * lam) / Fraction(alpha))


# -- node-count oracle (depth-first walk over an explicit stack) -------


def stack_greedy_engine(f: SetFunction, decisions, visible_sources, policy: str,
                        schedule, node_cap: int):
    """(outcome, nodes): what ``greedy._greedy_engine`` returned before its
    level-by-level build, from the depth-first walk over an explicit stack
    it replaced, with the node cap passed in and the nodes visited returned.
    Each node it visits, the root, null-decision agents and leaves
    included, counts against ``node_cap``; the oracle for the cap."""
    n = len(decisions)
    value = f.scaled_value
    seen = [sum(m for j in sources for _, m in decisions[j]) for sources in visible_sources]
    single_pass = policy in ("first", "last")
    tie_sets: list[dict[int, list]] = [{} for _ in range(n)]

    nodes = 0
    leaves = 0
    taken: list = []    # (id, mask) per level so far
    untried: list = []  # per level: its remaining ties
    union = 0
    incumbent = None
    incumbent_value = None
    collected: dict[int, tuple] = {}
    while True:
        nodes += 1
        if nodes > node_cap:
            raise CapacityError(f"tie-tree enumeration exceeded {node_cap} nodes")
        i = len(taken)
        if i < n:
            vis = union & seen[i]
            ties = tie_sets[i].get(vis)
            if ties is None:
                opts = decisions[i]
                if opts:
                    values = [value(vis | m) for _, m in opts]
                    top = max(values)
                    ties = [opt for opt, v in zip(opts, values) if v == top]
                    if single_pass:
                        ties = [ties[0] if policy == "first" else ties[-1]]
                else:
                    ties = [(None, 0)]
                tie_sets[i][vis] = ties
            rest = iter(ties)
            step = next(rest)
            untried.append(rest)
            taken.append(step)
            union |= step[1]
            continue

        leaves += 1
        if policy == "all":
            if union not in collected:
                collected[union] = tuple(taken)
        else:
            v = value(union)
            if incumbent is None or (v > incumbent_value if policy == "best"
                                     else v < incumbent_value):
                incumbent, incumbent_value = tuple(taken), v
        while untried:
            union ^= taken.pop()[1]
            step = next(untried[-1], None)
            if step is not None:
                taken.append(step)
                union |= step[1]
                break
            untried.pop()
        else:
            break

    empty = value(0)
    scale = f.scale

    def outcome(path: tuple) -> GreedyOutcome:
        prefix, before, marginals = 0, empty, []
        for _, m in path:
            prefix |= m
            after = value(prefix)
            marginals.append(Fraction(after - before, scale))
            before = after
        return GreedyOutcome(tuple(e for e, _ in path), Fraction(before - empty, scale),
                             tuple(marginals), leaves, schedule)

    if policy != "all":
        return outcome(incumbent), nodes
    outcomes = [outcome(path) for path in collected.values()]
    order = {e: k for k, e in enumerate(f.ground)}
    outcomes.sort(key=lambda o: tuple(-1 if d is None else order[d] for d in o.profile))
    return tuple(outcomes), nodes


# -- objective oracle (Fraction formulas, scale 1) ---------------------


class FractionOracle(SetFunction):
    """The objective an ``"objective"`` payload describes, evaluated by the
    kind's formula in ``Fraction`` arithmetic at scale 1, where the library
    evaluates integers over a common denominator.  It reads the payload
    itself, with ``Fraction(raw)`` for every value, and shares no parsing or
    evaluation code with the library's kinds."""

    kind = "fraction-oracle"

    def __init__(self, ground, payload: dict):
        super().__init__(ground)
        self.payload = payload
        if payload["kind"] == "tabular":
            self.table = {frozenset(e for e in key.split(",") if e): Fraction(raw)
                          for key, raw in payload["values"].items()}

    def _evaluate(self, mask: int) -> Fraction:
        obj = self.payload
        members = self.mask_subset(mask)
        if obj["kind"] == "tabular":
            return self.table[members]
        if obj["kind"] == "cover":
            covered = {t for e in members for t in obj["coverage"][e]}
            return sum((Fraction(obj["weights"][t]) for t in covered), Fraction(0))
        cu = len(members & set(obj["u"]))
        cv = len(members & set(obj["v"]))
        if obj["kind"] == "curvature-witness":
            lam = Fraction(obj["lambda"])
            return (lam if cu else Fraction(0)) + cu * (1 - lam) + cv
        p = obj["p"]
        return min(Fraction(1), Fraction(cu, p)) + Fraction(cv, p)


def _rational_text(draw, den_max: int = 4):
    """A nonnegative rational as JSON might hold it: an int, "N" or an
    unreduced "N/M"."""
    den = draw(st.integers(1, den_max))
    num = draw(st.integers(0, 3 * den))
    return draw(st.sampled_from((num // den, str(num // den), f"{num}/{den}",
                                 f"{2 * num}/{2 * den}")))


def blow_up_values(ground, seed: int) -> dict:
    """Table values with unrelated 6-digit denominators: their lcm is far
    beyond ``SCALE_BITS_CAP`` once the table has a few dozen entries."""
    rng = random.Random(seed)
    values = {}
    for mask in range(1 << len(ground)):
        key = ",".join(e for i, e in enumerate(ground) if mask >> i & 1)
        values[key] = f"{rng.randint(0, 10 ** 6)}/{rng.randint(10 ** 5, 10 ** 6 - 1)}"
    return values


@st.composite
def objective_instances(draw, max_agents: int = 5):
    """(ground, payload, agents, graph, assignment): an ``"objective"``
    payload of any kind over at most 7 elements, partitioned among at most
    ``max_agents`` agents (some with no decision), with a feasible graph and
    an assignment drawn independently of each other.  A table is arbitrary
    or normalized and monotone, its values written as ints, "N" or
    unreduced "N/M" strings, or it has unrelated 6-digit denominators,
    whose lcm exceeds the denominator cap on all but the smallest grounds."""
    kind = draw(st.sampled_from(("tabular", "cover", "curvature-witness",
                                 "p-additive-witness")))
    n = draw(st.integers(1, max_agents))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    ground = tuple(f"e{k}" for k in range(draw(st.integers(1, 7 if kind != "tabular" else 5))))
    if kind == "tabular":
        keys = [",".join(e for i, e in enumerate(ground) if m >> i & 1)
                for m in range(1 << len(ground))]
        shape = draw(st.sampled_from(("any", "monotone", "blow-up")))
        if shape == "blow-up":
            values = blow_up_values(ground, rng.randrange(2 ** 32))
        else:
            values = dict(zip(keys, (_rational_text(draw) for _ in keys)))
        if shape == "monotone":
            # normalized and monotone, so that a submodularity violation
            # is the one reported: f(S) = max of the drawn values within S
            top = [Fraction(0)] * len(keys)
            for m in range(1, len(keys)):
                top[m] = max([Fraction(values[keys[m]])]
                             + [top[m ^ 1 << i] for i in range(len(ground)) if m >> i & 1])
            values = {k: f"{2 * v.numerator}/{2 * v.denominator}" for k, v in zip(keys, top)}
        payload = {"kind": kind, "values": values}
    elif kind == "cover":
        targets = [f"y{t}" for t in range(draw(st.integers(1, 4)))]
        payload = {"kind": kind, "targets": targets,
                   "weights": {t: _rational_text(draw, 6) for t in targets},
                   "coverage": {e: [t for t in targets if rng.random() < 0.4] for e in ground}}
    else:
        cut = rng.randint(0, len(ground))
        u, v = list(ground[:cut]), list(ground[cut:])
        if kind == "curvature-witness":
            den = draw(st.integers(1, 6))
            payload = {"kind": kind, "u": u, "v": v,
                       "lambda": f"{draw(st.integers(0, den))}/{den}"}
        else:
            v = v[:len(v) // 2]  # the rest of the ground is in neither block
            payload = {"kind": kind, "u": u, "v": v, "p": draw(st.integers(1, 3))}
    owner = [rng.randrange(n) for _ in ground]
    agents = AgentSpace([{e for e, o in zip(ground, owner) if o == i} for i in range(n)])
    graph = random_feasible_graph(rng, n, rng.randint(1, n))
    return ground, payload, agents, graph, random_assignment(rng, n, rng.randint(1, n))


# -- axiom-check oracle (three passes, every ordered pair) -------------


def three_pass_properties(f: SetFunction) -> PropertyReport:
    """What ``check_properties`` returns, from the scan it replaced: one
    pass over all subsets for monotonicity, then one for submodularity that
    tries every ordered pair (e, e') of distinct elements outside each
    subset, with the normalized, monotone, submodular priority for the
    counterexample and the curvature only when all three hold."""
    n = len(f.ground)
    table = f.scaled_table()
    d = f.scale
    normalized = table[0] == 0
    violation: Optional[PropertyViolation] = None
    if not normalized:
        violation = PropertyViolation("normalized", None, (frozenset(),), (Fraction(table[0], d),))

    monotone = True
    mono_violation = None
    for m in range(1 << n):
        base = table[m]
        for i in range(n):
            if m >> i & 1:
                continue
            if table[m | (1 << i)] < base:
                monotone = False
                mono_violation = PropertyViolation(
                    "monotone", f.ground[i], (f.mask_subset(m),),
                    (Fraction(table[m | (1 << i)] - base, d),))
                break
        if not monotone:
            break
    if violation is None:
        violation = mono_violation

    submodular = True
    sub_violation = None
    for m in range(1 << n):
        if not submodular:
            break
        base = table[m]
        outside = [i for i in range(n) if not m >> i & 1]
        for i in outside:
            gain_small = table[m | (1 << i)] - base
            for j in outside:
                if j == i:
                    continue
                mj = m | (1 << j)
                gain_large = table[mj | (1 << i)] - table[mj]
                if gain_small < gain_large:
                    submodular = False
                    sub_violation = PropertyViolation(
                        "submodular", f.ground[i],
                        (f.mask_subset(m), f.mask_subset(mj)),
                        (Fraction(gain_small, d), Fraction(gain_large, d)))
                    break
            if not submodular:
                break
    if violation is None:
        violation = sub_violation

    curvature = None
    if normalized and monotone and submodular:
        curvature = total_curvature(f)
    return PropertyReport(normalized, monotone, submodular, curvature, violation)


# -- table parser oracle (every key split, every value parsed) ---------


class EntryByEntryTable(SetFunction):
    """A dense table read the way the library read it before its one-pass
    parser: every key is split and checked in full, every value is parsed
    anew, and the scale grows one entry at a time.  The one-pass parser must
    give the same scale and scaled table, or raise the same error."""

    kind = "entry-by-entry"

    def __init__(self, ground, payload: dict):
        super().__init__(ground)
        values = require(payload, "values", dict, "objective")
        n = len(self.ground)
        table = self._cache
        scale = 1  # the lcm of the denominators so far, 0 once over the cap
        for key, raw in values.items():
            ids = [e for e in key.split(",") if e]
            if len(set(ids)) != len(ids):
                raise InputError(f"objective.values[{key!r}]: repeated element in subset key")
            num, den = _table_value(raw, lambda: f"objective.values[{key!r}]")
            try:
                mask = self.subset_mask(ids)
            except InputError as exc:
                raise InputError(f"values: {exc}") from None
            if mask in table:
                raise InputError(f"values: subset {sorted(ids)!r} defined twice")
            if num < 0:
                raise InputError(f"values[{sorted(ids)!r}]: negative value {Fraction(num, den)}")
            table[mask] = num, den
            if scale and scale % den:
                scale = lcm(scale, den)
                if scale.bit_length() > SCALE_BITS_CAP:
                    scale = 0
        if len(table) < 1 << n:
            missing = next(m for m in range(1 << n) if m not in table)
            raise InputError(f"values: no value for subset {self._members(missing)!r}")
        for mask, (num, den) in table.items():
            table[mask] = num * (scale // den) if scale else Fraction(num, den)
        self.scale = scale or 1


# Table values: plain ones, drawn often so that value strings repeat, and
# odd or faulty ones.  True and 1.0 hash equal to 1 and "1".
PLAIN_VALUES = (0, 1, 3, "0", "1", "2", "1/2", "2/4", "3/2", "5/3")
ODD_VALUES = (-1, "-1", "-2/4", True, 1.0, [1], " 1/2", "1.5", "1/0", "x", "007")


def _spell_key(rng: random.Random, ids: list) -> str:
    """A table key naming ``ids``, spelled the usual way (ids in the given
    order, comma-separated) or with empty parts or a leading or trailing
    comma."""
    parts = list(ids)
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        parts.insert(rng.randint(0, len(parts)), "")
    return ",".join(parts)


@st.composite
def table_payloads(draw):
    """(ground, values): a dense table payload over 0-6 elements in the
    order of a sorted dump, of ``to_obj`` or shuffled, whose keys may list
    ids out of ground order, with empty parts or a stray comma, spell one
    subset twice, repeat an id, name an unknown one or leave a subset out,
    and whose values are plain, odd or faulty, or have unrelated 6-digit
    denominators whose lcm is over ``SCALE_BITS_CAP``."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(0, 6))
    ground = [f"e{k}" for k in rng.sample(range(10), n)]
    fault = draw(st.sampled_from((0.0, 0.0, 0.02, 0.1)))
    odd_spelling = draw(st.sampled_from((0.0, 0.2, 1.0)))
    blow_up = draw(st.booleans())
    entries = []
    for mask in range(1 << n):
        ids = [e for i, e in enumerate(ground) if mask >> i & 1]
        if rng.random() < odd_spelling:
            ids = rng.sample(ids, len(ids))
            key = _spell_key(rng, ids)
        else:
            key = ",".join(ids)
        if blow_up:
            raw = f"{rng.randint(0, 10 ** 6)}/{rng.randint(10 ** 5, 10 ** 6 - 1)}"
        elif rng.random() < fault:
            raw = rng.choice(ODD_VALUES)
        else:
            raw = rng.choice(PLAIN_VALUES)
        if rng.random() < fault:
            fix = rng.choice(("repeat", "unknown", "missing", "twice"))
            if fix == "repeat" and ids:
                entries.append((key + "," + rng.choice(ids), raw))
            elif fix == "unknown":
                unknown = rng.choice(("x", "e10", ground[0] + "x" if n else "y"))
                key = _spell_key(rng, ids + [unknown])
            elif fix == "missing":
                continue
            elif fix == "twice":
                entries.append(("," + ",".join(rng.sample(ids, len(ids))), raw))
        entries.append((key, raw))
    order = draw(st.sampled_from(("sorted", "to_obj", "shuffled")))
    if order == "sorted":
        entries.sort(key=lambda entry: entry[0])
    elif order == "shuffled":
        rng.shuffle(entries)
    return tuple(ground), dict(entries)


# -- shared fixtures ---------------------------------------------------


@pytest.fixture
def cover_fixture() -> SetFunction:
    """Two targets of weight 1 and 2; element b covers both."""
    return SetFunction.cover(
        ground=("a", "b"),
        targets=("y1", "y2"),
        weights={"y1": 1, "y2": 2},
        coverage={"a": ("y1",), "b": ("y1", "y2")},
    )


@pytest.fixture
def tie_fixture() -> tuple[SetFunction, AgentSpace, InformationGraph]:
    """Agent 1 ties between a fresh target and agent 2's only target."""
    f = SetFunction.cover(
        ground=("a", "b1", "b2"),
        targets=("y1", "y2"),
        weights={"y1": 1, "y2": 1},
        coverage={"a": ("y1",), "b1": ("y2",), "b2": ("y2",)},
    )
    return f, AgentSpace([{"a", "b1"}, {"b2"}]), InformationGraph(2, [(1, 2)])
