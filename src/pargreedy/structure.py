"""Iteration assignments, information graphs and schedule extraction.

Agents are named 1..n; the index order is semantically meaningful: an edge
{j, i} with j < i means agent i observes agent j's decision before choosing.
Graph equality is structural (same n, same edge set); the constructions are
label-sensitive, so no isomorphism checking anywhere.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import CapacityError, InputError

# The most vertices a graph may have; refused before anything is allocated.
VERTEX_CAP = 10_000


def is_int(value) -> bool:
    """An int that is not a bool (bool subclasses int, so True would
    otherwise pass as 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_positive_int(value, name: str) -> None:
    """Reject anything but an int >= 1 (:func:`is_int`) with an InputError
    naming ``name``."""
    if not is_int(value) or value < 1:
        raise InputError(f"{name}: must be a positive integer, got {value!r}")


class Record:
    """Base of the library's immutable value records.

    A subclass's fields are its own annotations, in order; a value given in
    the class body is that field's default, and no field without one may
    follow a field with one.  Each subclass gets one generated ``__init__``
    whose parameters are its fields, so the interpreter binds the arguments,
    by position or by keyword, and words the TypeError for bad ones, as for
    a frozen dataclass.  Instances refuse attribute assignment and deletion;
    two are equal when they are of the same class with equal field values,
    hash as the tuple of those values and print as ``Name(a=..., b=...)``,
    as a frozen dataclass does, but without the start-up cost of generating
    each class's other methods.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        fields = tuple(cls.__annotations__)
        cls._fields = cls.__match_args__ = fields
        # Built from source, as dataclasses and namedtuple build theirs; the
        # defaults are names in the namespace the def runs in.  The body
        # rebinds self to the instance dict, so it uses no local name that a
        # field could shadow (a field named self is a duplicate argument).
        own = cls.__dict__
        namespace = {f"_d{i}": own[f] for i, f in enumerate(fields) if f in own}
        params = "".join(f", {f}=_d{i}" if f in own else f", {f}" for i, f in enumerate(fields))
        body = "".join(f"\n    self[{f!r}] = {f}" for f in fields)
        exec(f"def __init__(self{params}):\n    self = self.__dict__{body}", namespace)
        cls.__init__ = namespace.pop("__init__")
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple([d[f] for f in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        d = self.__dict__
        args = ", ".join(f"{f}={d[f]!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def set_bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of a nonnegative mask, in increasing order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling of a / b for b > 0."""
    return -(-a // b)


def remainder_one(n: int, q: int) -> bool:
    """The branch test n = 1 (mod q), evaluated as n % q == 1 % q.

    Modulo-1 congruences are vacuously true, so q = 1 always selects the
    first branch and the formulas degenerate gracefully.
    """
    return n % q == 1 % q


def check_n_q(n: int, q: int, q_name: str = "q") -> None:
    """Reject n < 1 and a q (named ``q_name``) outside 1..n."""
    check_positive_int(n, "n")
    if not is_int(q) or q < 1 or q > n:
        raise InputError(f"{q_name}: must satisfy 1 <= {q_name} <= n, got {q!r}")


class IterationAssignment(Record):
    """Map of agents 1..n to iterations 1..q, stored as a tuple P.

    Construction does not enforce the invariants; violations are data,
    reported by :func:`validate_assignment`.
    """
    q: int
    P: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.P)


class AssignmentViolation(Record):
    kind: str           # "order" or "range"
    agents: tuple[int, ...]
    detail: str


def validate_assignment(assignment: IterationAssignment) -> Optional[AssignmentViolation]:
    """None when order preservation and iteration range both hold."""
    P, q = assignment.P, assignment.q
    for i, p in enumerate(P, start=1):
        if not is_int(p) or not 1 <= p <= q:
            return AssignmentViolation("range", (i,), f"P({i})={p} outside 1..{q}")
    for i in range(1, assignment.n):
        if P[i - 1] > P[i]:
            return AssignmentViolation(
                "order", (i, i + 1),
                f"order preservation violated: P({i})={P[i - 1]} > P({i + 1})={P[i]}")
    return None


def _check_vertex_cap(n: int) -> None:
    """Refuse a graph of more than VERTEX_CAP vertices; each construction
    calls this before it builds a mask."""
    if n > VERTEX_CAP:
        raise CapacityError(f"graph of {n} vertices exceeds vertex cap {VERTEX_CAP}")


class InformationGraph:
    """Undirected graph over agents 1..n, stored only as its adjacency masks
    (:meth:`adjacency_masks`), which every other view is read off.

    The masks are read-only, so a result derived from them cannot go stale.
    Each graph keeps every such result, which is never None, in one memo,
    :meth:`kept`: its complement, and the invariants callers derive from it.
    """

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = ()):
        if not is_int(n) or n < 0:
            raise InputError(f"n: must be a nonnegative integer, got {n!r}")
        _check_vertex_cap(n)
        adj = [0] * n
        try:
            edges = iter(edges)
        except TypeError:
            raise InputError(f"edges: expected a collection of pairs, got {edges!r}") from None
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
            # the type test passes plain ints cheaply; is_int admits int subclasses
            if not (type(i) is int and type(j) is int or is_int(i) and is_int(j)):
                raise InputError(f"edges: vertex ids must be integers, got {pair!r}")
            if i == j:
                raise InputError(f"edges: self-loop at vertex {i}")
            if not (0 < i <= n and 0 < j <= n):
                raise InputError(f"edges: pair {pair!r} outside vertices 1..{n}")
            adj[i - 1] |= 1 << (j - 1)
            adj[j - 1] |= 1 << (i - 1)
        self._init(adj)

    def _init(self, adj: Iterable[int]) -> "InformationGraph":
        self._adj, self._kept = tuple(adj), {}
        return self

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.sorted_edges())

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    def has_edge(self, i: int, j: int) -> bool:
        return 1 <= i <= self.n and 1 <= j <= self.n and bool(self._adj[i - 1] >> (j - 1) & 1)

    def adjacency_masks(self) -> tuple[int, ...]:
        """Per-vertex neighbor bitmask, 0-indexed (bit k is vertex k+1); a
        tuple, so that no caller can change what later invariants of this
        graph see."""
        return self._adj

    def in_neighbor_masks(self) -> list[int]:
        """Lower-index neighbors only: the agents whose decision vertex i sees."""
        return [m & ((1 << i) - 1) for i, m in enumerate(self._adj)]

    def in_neighbors(self, i: int) -> tuple[int, ...]:
        return tuple(k + 1 for k in set_bits(self._adj[i - 1] & ((1 << (i - 1)) - 1)))

    def kept(self, key, build: Callable, *args):
        """The result for ``key``: ``build(*args)`` at the first call, kept after that."""
        value = self._kept.get(key)
        if value is None:
            value = self._kept[key] = build(*args)
        return value

    def complement(self) -> "InformationGraph":
        """The complement graph, built from the masks at the first call and kept."""
        return self.kept("complement", _complement, self._adj)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return [(i, i + 1 + k) for i, m in enumerate(self._adj, start=1)
                for k in set_bits(m >> i)]

    def __eq__(self, other) -> bool:
        return isinstance(other, InformationGraph) and self._adj == other._adj

    def __hash__(self) -> int:
        return hash(self._adj)

    def __repr__(self) -> str:
        return f"InformationGraph(n={self.n}, edges={self.sorted_edges()})"


def _from_masks(adj: Iterable[int]) -> InformationGraph:
    """The graph with these masks, unchecked: for graphs the package builds."""
    return InformationGraph.__new__(InformationGraph)._init(adj)


def _complement(adj: tuple[int, ...]) -> InformationGraph:
    full = (1 << len(adj)) - 1
    return _from_masks(full ^ (1 << i) ^ m for i, m in enumerate(adj))


def _same_label_masks(labels: Sequence) -> list[int]:
    """Per vertex, the mask of the other vertices with its label."""
    classes: dict = {}
    for k, label in enumerate(labels):
        classes[label] = classes.get(label, 0) | 1 << k
    return [classes[label] ^ 1 << k for k, label in enumerate(labels)]


class Schedule(Record):
    """Earliest feasible iteration per agent; the depth is the last one used."""
    levels: tuple[int, ...]

    @property
    def depth(self) -> int:
        return max(self.levels, default=1)


def optimal_assignment(n: int, q: int) -> IterationAssignment:
    """An iteration assignment achieving the best competitive ratio.

    Splits the agents as evenly as possible across the q iterations; in the
    remainder-one case the last agent is deferred to the final iteration so
    the other n-1 agents split over blocks of r-1.
    """
    check_n_q(n, q)
    if n == 1:
        return IterationAssignment(q, (1,))
    r = ceil_div(n, q)
    if remainder_one(n, q):
        P = tuple(ceil_div(i, r - 1) for i in range(1, n)) + (q,)
    else:
        P = tuple(ceil_div(i, r) for i in range(1, n + 1))
    return IterationAssignment(q, P)


def induced_graph(assignment: IterationAssignment) -> InformationGraph:
    """Graph with an edge {i, j} whenever the two agents sit in different
    iterations (the later one observes the earlier one): the complement of
    one clique per iteration class."""
    violation = validate_assignment(assignment)
    if violation is not None:
        raise InputError(f"assignment: {violation.detail}")
    _check_vertex_cap(assignment.n)
    return _from_masks(_same_label_masks(assignment.P)).complement()


def earliest_schedule(graph: InformationGraph) -> Schedule:
    """Earliest iteration per agent: 1 plus the longest observation chain
    ending at the agent.  Pointwise minimal among valid schedules."""
    in_masks = graph.in_neighbor_masks()
    levels = [0] * graph.n
    for i in range(graph.n):
        m = in_masks[i]
        best = 0
        while m:
            b = m & -m
            lvl = levels[b.bit_length() - 1]
            if lvl > best:
                best = lvl
            m ^= b
        levels[i] = best + 1
    return Schedule(tuple(levels))


def is_feasible(graph: InformationGraph, q: int) -> bool:
    """Whether the graph admits a parallelization in at most q iterations."""
    check_positive_int(q, "q")
    return earliest_schedule(graph).depth <= q


def optimal_graph(n: int, q: int) -> InformationGraph:
    """An edge-minimal information graph achieving the optimal ratio.

    In the remainder-one case, agents below n are chained by residue mod
    r-1 and agent n observes the first (q-1)(r-1) agents; otherwise agents
    are chained by residue mod r, which is the complement Turan graph.
    """
    check_n_q(n, q)
    _check_vertex_cap(n)
    r = ceil_div(n, q)
    if n == 1 or not remainder_one(n, q):
        return complement_turan_graph(n, r)
    seen, last = (q - 1) * (r - 1), 1 << (n - 1)
    chains = _same_label_masks([k % (r - 1) for k in range(n - 1)])
    return _from_masks([m | last if k < seen else m for k, m in enumerate(chains)]
                       + [(1 << seen) - 1])


def turan_graph(n: int, r: int) -> InformationGraph:
    """Complete multipartite graph on r near-equal residue classes, built
    as the complement of :func:`complement_turan_graph`.

    Vertices i and j are adjacent iff i != j (mod r).  The (n mod r)
    classes of size ceil(n/r) are the residues 1..(n mod r).
    """
    return complement_turan_graph(n, r).complement()


def complement_turan_graph(n: int, r: int) -> InformationGraph:
    """Disjoint union of r cliques, one mask per residue class: vertices
    adjacent iff i = j (mod r)."""
    check_n_q(n, r, "r")
    _check_vertex_cap(n)
    return _from_masks(_same_label_masks([k % r for k in range(n)]))


def normalize_assignment(assignment: IterationAssignment) -> IterationAssignment:
    """Compress the used iteration values onto 1..depth, preserving order."""
    used = sorted(set(assignment.P))
    rank = {v: k + 1 for k, v in enumerate(used)}
    levels = tuple(rank[p] for p in assignment.P)
    return IterationAssignment(max(levels, default=1), levels)
