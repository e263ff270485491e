"""Exact combinatorial invariants of information graphs.

Everything here is exact and rests on one search: a pruned depth-first
search over the p-pseudo-independent sets, which at p = 1 are the
independent sets.  It gives the independence, clique and
pseudo-independence numbers, the sibling predicates, and the lower bound of
the exact coloring of the complement that gives the clique cover number.
The search visits vertices in increasing index, tries including a vertex
before excluding it, skips every vertex that can no longer join the set and
prunes on a partition bound that counts, per part, only the members the set
can still take there, so it meets the sets in one fixed order ("index
order"): the reported maximum set and every witness are the first ones in
that order.  At p = 1 the parts are cliques; at p >= 2 a part may also be a
clique closed by one lower vertex that misses at most its p - 1 lowest
members, and such a part still holds at most p members of a set.  The
maximum set is found by extending each set found with every later vertex
that fits, which is the first set of its own size, and searching one size
above it, not every size from 1.  At p <= 2 the search finds a vertex's
blocked neighbors in one AND.  The maximum sets are enumerated lazily,
starting from the kept first one, so a predicate stops at its first witness
and starts no search when that set has one.  The coloring keeps each color
class as a vertex mask, so a color is tested against a vertex's neighbors
in one AND.  Computations refuse graphs of more than ``GRAPH_CAP`` vertices
with a CapacityError instead of approximating.

Each graph is searched at most once per p and colored at most once: its one
memo, :meth:`~pargreedy.structure.InformationGraph.kept`, keeps, per p, the
first maximum set and the partition its searches bound on, and theta's
witness, and omega is alpha of the kept complement.  So the results do not
depend on the order of the calls.

The in-neighborhood convention is fixed module-wide: N_i contains only the
lower-index neighbors of i, matching the direction of information flow.
"""

from __future__ import annotations

from typing import Optional

from .errors import CapacityError
from .structure import InformationGraph, Record, check_positive_int, set_bits

GRAPH_CAP = 20


def _require_cap(graph: InformationGraph, what: str) -> None:
    if graph.n > GRAPH_CAP:
        raise CapacityError(f"{what} on {graph.n} vertices exceeds exact-search cap {GRAPH_CAP}")


def _vertices(mask: int) -> tuple[int, ...]:
    """Bitmask to sorted 1-indexed vertex tuple."""
    return tuple(i + 1 for i in set_bits(mask))


class InvariantWitness(Record):
    value: int
    witness: tuple


def _largest(graph: InformationGraph, p: int, what: str,
             complement: bool = False) -> InvariantWitness:
    """The size of the first maximum p-pseudo-independent set of the graph,
    or of its complement, witnessed by that set.  The cap is checked first,
    so an oversized graph is refused before its complement is built; the
    error names ``what``."""
    _require_cap(graph, what)
    mask = _max_mask(graph.complement() if complement else graph, p)
    return InvariantWitness(mask.bit_count(), _vertices(mask))


def independence_number(graph: InformationGraph) -> InvariantWitness:
    """alpha(G), witnessed by the first maximum independent set in index
    order (``maximum_independent_sets(graph)[0]``)."""
    return _largest(graph, 1, "independence number")


def clique_number(graph: InformationGraph) -> InvariantWitness:
    """omega(G): the independence number of the complement, witnessed by the
    first maximum clique in index order."""
    return _largest(graph, 1, "clique number", complement=True)


def _assign(adj: tuple[int, ...], order: list[int], classes: list[int],
            pos: int, used: int) -> bool:
    """Color ``order[pos:]`` with at most ``len(classes)`` colors, ``used``
    of them already open, each vertex opening at most one fresh color.
    ``classes[c]`` is the mask of the vertices colored c, so v may take c
    when ``classes[c] & adj[v]`` is 0; on failure the classes are left as
    they were."""
    if pos == len(order):
        return True
    v = order[pos]
    vb, nb = 1 << v, adj[v]
    for c in range(used + 1 if used < len(classes) else used):
        if classes[c] & nb:
            continue
        classes[c] |= vb
        if _assign(adj, order, classes, pos + 1, used + (c == used)):
            return True
        classes[c] ^= vb
    return False


def _chromatic_number(adj: tuple[int, ...], n: int, lb: int) -> list[int]:
    """Exact chromatic number with one optimal coloring, by backtracking:
    the coloring's color classes, as vertex masks, in color order.

    Vertices are tried in degree-descending order and colors in increasing
    order, and each vertex may only open one fresh color (symmetry
    breaking), so a search's first descent is the first-fit coloring in
    that order.  A vertex may join a color when the class's mask meets none
    of its neighbors.  k rises from ``lb``, the clique number of the graph
    being colored, until a k-coloring is found; a failed search leaves
    every class empty, so the next k adds one.  The backtracking recurses
    once per vertex, so its depth is at most n.
    """
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    classes = [0] * lb
    while not _assign(adj, order, classes, 0, 0):
        classes.append(0)
    return classes


def clique_cover_number(graph: InformationGraph) -> InvariantWitness:
    """theta(G): chromatic number of the complement, witnessed by a minimum
    partition of the vertices into cliques.  The coloring's lower bound, the
    clique number of the complement, is alpha(G).  Colored once per graph."""
    _require_cap(graph, "clique cover number")
    return graph.kept("theta", _clique_cover, graph)


def _clique_cover(graph: InformationGraph) -> InvariantWitness:
    alpha = _max_mask(graph, 1).bit_count()
    classes = _chromatic_number(graph.complement().adjacency_masks(), graph.n, alpha)
    return InvariantWitness(len(classes), tuple(map(_vertices, classes)))


def maximum_independent_sets(graph: InformationGraph) -> list[tuple[int, ...]]:
    """All maximum independent sets, as sorted vertex tuples, in index
    order."""
    _require_cap(graph, "maximum independent set enumeration")
    return [_vertices(m) for m in _maximum_sets(graph, 1)]


class SiblingWitness(Record):
    """Vertex w observing a member of a maximum independent set."""
    vertex: int
    independent_set: tuple[int, ...]
    member: int


def has_sibling_condition(graph: InformationGraph) -> Optional[SiblingWitness]:
    """Search the maximum independent sets I, in index order, for a vertex w
    with a member of I in its in-neighborhood.  Returns the first witness
    (lowest w of the first such I, its lowest such member) or None.

    This is the p = 1 case of :func:`has_p_sibling`: a vertex that sees a
    member of I is not itself in I.  The sets are enumerated lazily, so the
    search ends at the first I that has such a w; None costs a full
    enumeration."""
    _require_cap(graph, "sibling condition")
    sibling = _first_p_sibling(graph, 1, [])
    if sibling is None:
        return None
    return SiblingWitness(sibling.vertex, sibling.pseudo_independent_set, sibling.members[0])


def _suffix_cliques(adj: tuple[int, ...], n: int, p: int = 1) -> list[int]:
    """A partition of the vertices into parts that each hold at most p
    members of any p-pseudo-independent set, for the search's bound.

    First fit from the highest index down, so that its restriction to the
    vertices from any index on (where the search's ``alive`` vertices lie)
    is the first-fit partition of those vertices.  A vertex joins the first
    open clique whose members it all neighbors.  If there is none, and p >=
    2, it joins the first open clique of at least p members whose members
    it all neighbors except the p - 1 lowest, and that part closes: no
    later vertex joins it.  Otherwise it opens a clique of its own.  In
    every part, each member except the p lowest neighbors every lower
    member.  At p = 1 there is no closing step, so the parts are the
    cliques of the first fit.
    """
    cliques: list[int] = []
    closed: list[int] = []
    for v in range(n - 1, -1, -1):
        out = ~adj[v]
        for i, c in enumerate(cliques):
            if not c & out:
                cliques[i] = c | 1 << v
                break
        else:
            if p > 1:
                for i, c in enumerate(cliques):
                    if c.bit_count() >= p:
                        high = c
                        for _ in range(p - 1):
                            high &= high - 1
                        if not high & out:
                            closed.append(cliques.pop(i) | 1 << v)
                            break
                else:
                    cliques.append(1 << v)
            else:
                cliques.append(1 << v)
    return cliques + closed


def _all_pseudo_independent_of_size(adj: tuple[int, ...], n: int, p: int, size: int,
                                    parts: list[int]):
    """Yield every p-pseudo-independent set of exactly ``size`` vertices, as
    bitmasks, in index order.  At p = 1 these are the independent sets.
    ``parts`` partitions the vertices into parts in which each member
    except the p lowest neighbors every lower member, such as
    ``_suffix_cliques(adj, n, p)`` (a clique partition is one at any p).
    Such a part P holds at most p members of a p-pseudo-independent set J:
    the (p+1)-th lowest member of J & P would have p in-neighbors in J.

    Depth-first search with an explicit stack.  ``alive`` holds the later
    vertices that can still join the set; the search branches on the lowest
    of them, including it first.  Including v drops from ``alive`` every
    neighbor u of v that now has p in-neighbors in the set: every vertex of
    ``alive`` comes after every vertex of the set, so adj[u] & cur is u's
    in-neighborhood inside it, and the set only grows, so a dropped vertex
    stays blocked.  Each node also keeps ``short``, a mask that holds the
    vertices of ``alive`` one in-neighbor short of p (at p = 1, every
    vertex); it may keep bits of vertices no longer alive, since it is read
    only through v's alive neighbors.  So v's blocked neighbors are
    adj[v] & alive & short, found in one AND.  The other alive neighbors of
    v gain one in-neighbor: at p = 2 they all join ``short``, and only at
    p >= 3 is each one's count taken.  A child whose set and ``alive``
    together fall short of ``size`` is not pushed.  A node is pruned once
    ``alive`` cannot supply the missing members by the part bound: a part
    c gives at most min(|c & alive|, p - |c & cur|) of them, since every
    set below the node holds ``cur`` and at most p members of c.  That
    minimum is at least 1 whenever c meets ``alive``: were p members of c
    in ``cur``, an alive vertex of c, above them all, would neighbor them
    all and not be alive.  So the members held are counted only for a part
    with two or more vertices in ``alive``.  It is a generator, so callers
    that stop at the first set they need enumerate no further.
    """
    full = (1 << n) - 1
    stack = [(0, full, 0, full if p == 1 else 0)] if n >= size else []
    while stack:
        cur, alive, have, short = stack.pop()
        if have == size:
            yield cur
            continue
        need = size - have
        for c in parts:
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
            stack.append((cur, alive, have, short))
        cur |= vb
        hits = adj[vb.bit_length() - 1] & alive
        alive ^= hits & short
        hits &= alive
        if p > 2:
            while hits:
                ub = hits & -hits
                hits ^= ub
                if (adj[ub.bit_length() - 1] & cur).bit_count() == p - 1:
                    short |= ub
        else:
            short |= hits
        have += 1
        if have + alive.bit_count() >= size:
            stack.append((cur, alive, have, short))


def _max_pseudo_independent_mask(adj: tuple[int, ...], n: int, p: int,
                                  parts: list[int]) -> int:
    """Maximum set J with |N_j n J| < p for every j in J, the first one in
    index order.  At p = 1, the first maximum independent set.  ``parts``
    is as for :func:`_all_pseudo_independent_of_size`.

    Each round extends the set S it holds, the first set of its size, by
    every later vertex that still has fewer than p in-neighbors in it,
    lowest first: the include-first dive below the node where the search
    reached S.  The extension E is the first set of its own size in index
    order.  A set T of that size before E agrees with E below some vertex v
    that T holds and E lacks.  Below the last member of S, T's first |S|
    members would be a set of S's size before S; past it, the dive skipped
    v because v has p in-neighbors among E's members below v, which T
    shares.  So the next round takes the first set one size above E, with
    no search for E itself, and the first round extends the empty set.
    The first set of the last size found is the first maximum set, since a
    larger set's first members form a smaller set before it.
    """
    best = 0
    while True:
        for v in range(best.bit_length(), n):
            if (adj[v] & best).bit_count() < p:
                best |= 1 << v
        bigger = next(_all_pseudo_independent_of_size(adj, n, p, best.bit_count() + 1, parts), None)
        if bigger is None:
            return best
        best = bigger


def _max_mask(graph: InformationGraph, p: int) -> int:
    """The first maximum p-pseudo-independent set, searched once per graph and p."""
    return graph.kept(p, _search, graph, p)


def _search(graph: InformationGraph, p: int) -> int:
    return _max_pseudo_independent_mask(graph.adjacency_masks(), graph.n, p, _parts(graph, p))


def _parts(graph: InformationGraph, p: int) -> list[int]:
    """The graph's partition for the search at p, built once per graph and p."""
    return graph.kept(("parts", p), _suffix_cliques, graph.adjacency_masks(), graph.n, p)


def _maximum_sets(graph: InformationGraph, p: int):
    """Every maximum p-pseudo-independent set of the graph, as bitmasks, in
    index order (lazily).  The first is the kept one, so the enumeration
    starts only when a caller asks for a second set."""
    first = _max_mask(graph, p)
    yield first
    rest = _all_pseudo_independent_of_size(graph.adjacency_masks(), graph.n, p,
                                           first.bit_count(), _parts(graph, p))
    next(rest)
    yield from rest


def pseudo_independence_number(graph: InformationGraph, p: int) -> InvariantWitness:
    """alpha_p(G): largest J whose every member has fewer than p
    in-neighbors inside J.  alpha_1 coincides with alpha."""
    check_positive_int(p, "p")
    return _largest(graph, p, "pseudo-independence number")


def maximum_pseudo_independent_sets(graph: InformationGraph, p: int) -> list[tuple[int, ...]]:
    check_positive_int(p, "p")
    _require_cap(graph, "pseudo-independent set enumeration")
    return [_vertices(m) for m in _maximum_sets(graph, p)]


class PSiblingWitness(Record):
    """Vertex w outside a maximum p-pseudo-independent set J observing at
    least p distinct members of J."""
    vertex: int
    pseudo_independent_set: tuple[int, ...]
    members: tuple[int, ...]


def _first_p_sibling(graph: InformationGraph, p: int,
                     walked: list[int]) -> Optional[PSiblingWitness]:
    """The first p-sibling witness over the maximum sets in index order, or
    None; each set that has none is appended to ``walked``."""
    in_masks = graph.in_neighbor_masks()
    for m in _maximum_sets(graph, p):
        for w in range(graph.n):
            if m >> w & 1:
                continue
            hits = in_masks[w] & m
            if hits.bit_count() >= p:
                return PSiblingWitness(w + 1, _vertices(m), _vertices(hits))
        walked.append(m)
    return None


def has_p_sibling(graph: InformationGraph, p: int) -> Optional[PSiblingWitness]:
    """Search the maximum p-pseudo-independent sets J, in index order, for a
    vertex outside J with at least p members of J in its in-neighborhood.
    Returns the first witness (lowest such vertex of the first such J) or
    None.

    The sets are enumerated lazily, so the search ends at the first J that
    has such a vertex; None costs a full enumeration.  A witness's set is a
    maximum set, so its size is alpha_p."""
    check_positive_int(p, "p")
    _require_cap(graph, "p-sibling property")
    return _first_p_sibling(graph, p, [])


class DisjointSetsCheck(Record):
    """Outcome of the no-disjoint-maximum-sets check.

    Not applicable when the graph has the p-sibling property (the claim's
    hypothesis is unmet); otherwise ``holds`` reports whether every pair of
    maximum p-pseudo-independent sets intersects.
    """
    applicable: bool
    holds: bool
    counterexample: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None


def verify_no_disjoint_max_sets(graph: InformationGraph, p: int) -> DisjointSetsCheck:
    """For graphs without the p-sibling property, assert that maximum
    p-pseudo-independent sets pairwise intersect."""
    check_positive_int(p, "p")
    _require_cap(graph, "disjoint maximum set check")
    masks: list[int] = []
    if _first_p_sibling(graph, p, masks) is not None:
        return DisjointSetsCheck(applicable=False, holds=True)
    for a in range(len(masks)):
        for b in range(a + 1, len(masks)):
            if masks[a] & masks[b] == 0:
                return DisjointSetsCheck(
                    applicable=True, holds=False,
                    counterexample=(_vertices(masks[a]), _vertices(masks[b])))
    return DisjointSetsCheck(applicable=True, holds=True)
