"""Assignments, information graphs, schedules and the optimal constructions."""

import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pargreedy import (
    CapacityError,
    InformationGraph,
    InputError,
    IterationAssignment,
    complement_turan_graph,
    earliest_schedule,
    induced_graph,
    is_feasible,
    normalize_assignment,
    optimal_assignment,
    optimal_graph,
    turan_graph,
    validate_assignment,
)

from pargreedy import (
    SetFunction,
    has_p_sibling,
    independence_number,
    min_edges_bound,
    p_additive_witness,
    pseudo_independence_number,
)
from pargreedy import structure
from pargreedy.structure import VERTEX_CAP, check_n_q, check_positive_int, is_int
from pargreedy.suites import (
    edgeless_graph,
    random_cover_entries,
    standard_witness_entries,
    star_graph,
)

from conftest import (
    EdgeSetGraph,
    checked_adjacency,
    is_clique,
    pair_list_complement_turan_graph,
    pair_list_induced_graph,
    pair_list_optimal_graph,
    pair_list_turan_graph,
)


def assignment(*P, q=None):
    return IterationAssignment(q if q is not None else max(P), tuple(P))


class TestValidateAssignment:
    def test_valid(self):
        assert validate_assignment(assignment(1, 1, 2, 2, 2, q=2)) is None

    def test_order_violation(self):
        v = validate_assignment(assignment(2, 1, q=2))
        assert v is not None and v.kind == "order" and v.agents == (1, 2)

    def test_range_violation(self):
        v = validate_assignment(assignment(1, 3, q=2))
        assert v is not None and v.kind == "range" and v.agents == (2,)

    def test_boolean_iteration_is_a_range_violation(self):
        v = validate_assignment(IterationAssignment(2, (True, 2)))
        assert v is not None and v.kind == "range" and v.agents == (1,)


class TestInformationGraphRejectsBooleans:
    def test_vertex_count(self):
        with pytest.raises(InputError, match="^n: must be a nonnegative integer, got True$"):
            InformationGraph(True)

    def test_vertex_id(self):
        with pytest.raises(InputError, match="vertex ids must be integers"):
            InformationGraph(3, [(True, 2)])


class _Id(int):
    """An int subclass other than bool, which is a vertex id."""


# one edge-list entry from a kind and two vertex ids
_ENTRIES = {
    "tuple": lambda i, j: (i, j),
    "list": lambda i, j: [i, j],
    "generator": lambda i, j: (v for v in (i, j)),
    "subclass": lambda i, j: (_Id(i), _Id(j)),
    "bool": lambda i, j: (True, j),
    "float": lambda i, j: (float(i), j),
    "str": lambda i, j: "12",
    "bytes": lambda i, j: b"12",
    "dict": lambda i, j: {i: j},
    "one": lambda i, j: [i],
    "three": lambda i, j: [i, j, i],
}


@st.composite
def mixed_edge_lists(draw):
    """A vertex count 0..8 and a list of entries: well-formed pairs (tuples,
    lists, generators, int subclasses) with up to two entries of any kind
    put among them, whose ids may be 0, negative, n + 1 or equal."""
    n = draw(st.integers(0, 8))
    entries = []
    if n >= 2:
        kinds = st.sampled_from(("tuple", "list", "generator", "subclass"))
        pairs = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)
        entries = [(kind, *pair) for kind, pair in draw(st.lists(st.tuples(kinds, pairs),
                                                                 max_size=12))]
    ids = st.integers(-1, n + 1)
    for entry in draw(st.lists(st.tuples(st.sampled_from(tuple(_ENTRIES)), ids, ids),
                               max_size=2)):
        entries.insert(draw(st.integers(0, len(entries))), entry)
    return n, entries


class TestInformationGraphRejectsMalformedEdges:
    @pytest.mark.parametrize("edges", [None, 5], ids=repr)
    def test_edges_that_are_not_a_collection(self, edges):
        with pytest.raises(InputError) as exc:
            InformationGraph(2, edges)
        assert str(exc.value) == f"edges: expected a collection of pairs, got {edges!r}"

    @pytest.mark.parametrize("edge", [5, None], ids=repr)
    def test_an_edge_that_is_not_iterable(self, edge):
        with pytest.raises(InputError, match=rf"^edges: expected a pair, got {edge!r}$"):
            InformationGraph(3, [edge])

    def test_an_edge_of_three_vertices(self):
        with pytest.raises(InputError, match=r"^edges: expected a pair, got \(1, 2, 3\)$"):
            InformationGraph(3, [(1, 2, 3)])

    def test_a_self_loop(self):
        with pytest.raises(InputError, match=r"^edges: self-loop at vertex 2$"):
            InformationGraph(3, [(1, 2), (2, 2)])

    @pytest.mark.parametrize("edge", ["ab", b"ab", {"x": 1, "y": 2}], ids=repr)
    def test_an_edge_that_is_a_string_bytes_or_a_dict(self, edge):
        with pytest.raises(InputError) as exc:
            InformationGraph(3, [(1, 2), edge])
        assert str(exc.value) == f"edges: expected a pair, got {edge!r}"

    def test_an_edge_that_is_a_bytearray(self):
        # its byte values would otherwise read as the pair (1, 2)
        edge = bytearray(b"\x01\x02")
        with pytest.raises(InputError) as exc:
            InformationGraph(3, [edge])
        assert str(exc.value) == "edges: expected a pair, got bytearray(b'\\x01\\x02')"

    @settings(max_examples=200, deadline=None)
    @given(mixed_edge_lists())
    def test_same_masks_or_error_as_the_per_edge_checks(self, drawn):
        n, entries = drawn
        results = []
        for build in (checked_adjacency, lambda n, edges: InformationGraph(n, edges).adjacency_masks()):
            try:
                results.append(build(n, [_ENTRIES[kind](i, j) for kind, i, j in entries]))
            except InputError as exc:
                results.append(str(exc))
        assert results[0] == results[1]

    def test_plain_int_edges_make_no_is_int_call(self, monkeypatch):
        calls = []

        def counting(value):
            calls.append(value)
            return is_int(value)

        monkeypatch.setattr(structure, "is_int", counting)
        InformationGraph(4, [(1, 2), [2, 3], (4, 1)])
        assert calls == [4]


@st.composite
def edge_lists(draw, n_max: int = 12):
    """A vertex count 0..n_max and a list of its pairs, each in either
    orientation, in any order and possibly repeated."""
    n = draw(st.integers(0, n_max))
    pairs = list(combinations(range(1, n + 1), 2))
    if not pairs:
        return n, []
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=2 * len(pairs)))
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    return n, [(j, i) if flip else (i, j) for (i, j), flip in zip(chosen, flips)]


def assert_same_as_edge_set(g: InformationGraph, n: int, edges) -> None:
    """Every view of ``g`` and of its complement equals the edge-set
    oracle's, has_edge on out-of-range and equal vertices included."""
    oracle = EdgeSetGraph(n, edges)
    assert repr(g) == f"InformationGraph(n={n}, edges={oracle.sorted_edges()})"
    for graph, ref in ((g, oracle), (g.complement(), oracle.complement())):
        assert graph.n == ref.n
        assert graph.edges == ref.edges
        assert graph.edge_count == ref.edge_count
        assert graph.sorted_edges() == ref.sorted_edges()
        assert graph.adjacency_masks() == ref.adjacency_masks()
        assert graph.in_neighbor_masks() == ref.in_neighbor_masks()
        assert [graph.in_neighbors(i) for i in range(1, n + 1)] == \
            [ref.in_neighbors(i) for i in range(1, n + 1)]
        assert all(graph.has_edge(i, j) == ref.has_edge(i, j)
                   for i in range(-1, n + 3) for j in range(-1, n + 3))


class TestMasksAgainstEdgeSetOracle:
    # each construction, and its edge list by a route that builds no mask
    CONSTRUCTIONS = {
        "optimal_graph": (optimal_graph, pair_list_optimal_graph),
        "induced_graph": (lambda n, q: induced_graph(optimal_assignment(n, q)),
                          lambda n, q: pair_list_induced_graph(optimal_assignment(n, q).P)),
        "turan_graph": (turan_graph, pair_list_turan_graph),
        "complement_turan_graph": (complement_turan_graph, pair_list_complement_turan_graph),
        "star_graph": (lambda n, q: star_graph(n),
                       lambda n, q: [(i, n + 1) for i in range(1, n + 1)]),
        "edgeless_graph": (lambda n, q: edgeless_graph(n), lambda n, q: []),
    }

    @settings(max_examples=150, deadline=None)
    @given(edge_lists())
    def test_drawn_graphs(self, drawn):
        n, edges = drawn
        assert_same_as_edge_set(InformationGraph(n, edges), n, edges)

    @pytest.mark.parametrize("name", CONSTRUCTIONS)
    def test_named_constructions(self, name):
        build, pair_list = self.CONSTRUCTIONS[name]
        for n in range(1, 13):
            for q in range(1, n + 1):
                g = build(n, q)
                assert_same_as_edge_set(g, g.n, pair_list(n, q))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 30).flatmap(lambda q: st.tuples(
        st.just(q), st.lists(st.integers(1, q), min_size=1, max_size=30))))
    def test_induced_graph_of_drawn_assignments(self, drawn):
        q, P = drawn
        P = tuple(sorted(P))
        g = induced_graph(IterationAssignment(q, P))
        assert_same_as_edge_set(g, len(P), pair_list_induced_graph(P))

    @settings(max_examples=100, deadline=None)
    @given(edge_lists(), st.randoms(use_true_random=False))
    def test_equal_whatever_the_order_orientation_or_repeats(self, drawn, rng):
        n, edges = drawn
        shuffled = [(j, i) for i, j in edges] + edges[: len(edges) // 2]
        rng.shuffle(shuffled)
        g, h = InformationGraph(n, edges), InformationGraph(n, shuffled)
        assert g == h and hash(g) == hash(h)
        assert g != InformationGraph(n + 1, edges)
        assert n < 2 or g != g.complement()

    @pytest.mark.parametrize("seed", range(3))
    def test_sparse_graphs_over_many_machine_words(self, seed):
        rng = random.Random(seed)
        n = 200
        edges = [(i, i + 1) for i in range(1, n, 3)]
        edges += [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(n)]
        assert_same_as_edge_set(InformationGraph(n, edges), n, edges)

    def test_complement_makes_no_is_int_call(self, monkeypatch):
        g = optimal_graph(9, 4)
        calls = []

        def counting(value):
            calls.append(value)
            return is_int(value)

        monkeypatch.setattr(structure, "is_int", counting)
        c = g.complement()
        assert calls == []
        assert c.edge_count == 9 * 8 // 2 - g.edge_count


class TestVertexCap:
    def test_a_huge_vertex_count_is_refused_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError) as exc:
                InformationGraph(10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == f"graph of 10000000 vertices exceeds vertex cap {VERTEX_CAP}"
        assert peak < 100_000

    def test_the_cap_itself_is_accepted(self):
        assert InformationGraph(VERTEX_CAP).n == VERTEX_CAP
        with pytest.raises(CapacityError):
            InformationGraph(VERTEX_CAP + 1, [(1, 2)])

    @pytest.mark.parametrize("build", [
        lambda: optimal_graph(51, 7),  # the complement Turan branch
        lambda: optimal_graph(51, 5),  # the remainder-one branch
        lambda: turan_graph(51, 3),
        lambda: complement_turan_graph(51, 51),
        lambda: induced_graph(optimal_assignment(51, 5)),
    ])
    def test_constructions_refuse_before_building_any_edge(self, monkeypatch, build):
        # the same refusal as the constructor's, made before any mask is built
        calls = []

        def recording(name, inner):
            def record(*args, **kwargs):
                calls.append(name)
                return inner(*args, **kwargs)
            return record

        monkeypatch.setattr(structure, "VERTEX_CAP", 50)
        monkeypatch.setattr(InformationGraph, "__init__",
                            recording("__init__", InformationGraph.__init__))
        for name in ("_same_label_masks", "_from_masks"):
            monkeypatch.setattr(structure, name, recording(name, getattr(structure, name)))
        with pytest.raises(CapacityError) as exc:
            build()
        assert str(exc.value) == "graph of 51 vertices exceeds vertex cap 50"
        assert calls == []

    @pytest.mark.parametrize("build", [
        lambda: turan_graph(600, 3),
        lambda: complement_turan_graph(600, 3),
        lambda: optimal_graph(600, 3),
        lambda a=optimal_assignment(600, 2): induced_graph(a),
    ])
    def test_a_construction_allocates_only_its_masks(self, build):
        # 600 masks of at most 600 bits each, about 0.1 MB; a list of the
        # 6*10^4 to 1.2*10^5 edge tuples of the dense ones takes megabytes
        tracemalloc.start()
        try:
            g = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n == 600 and g.edge_count > 0
        assert peak < 500_000


class TestInformationGraphIsReadOnly:
    @pytest.mark.parametrize("field, value", [("n", 4), ("edges", frozenset())])
    def test_fields_cannot_be_reassigned(self, field, value):
        g = InformationGraph(3, [(1, 2)])
        with pytest.raises(AttributeError):
            setattr(g, field, value)
        assert g == InformationGraph(3, [(1, 2)])

    def test_kept_adjacency_masks_cannot_be_changed(self):
        h = optimal_graph(6, 3)
        masks = h.adjacency_masks()
        assert isinstance(masks, tuple)
        with pytest.raises(TypeError):
            masks[:] = [0] * 6
        with pytest.raises(TypeError):
            masks[0] = 0
        fresh = InformationGraph(6, h.edges)
        assert h.adjacency_masks() == masks == fresh.adjacency_masks()
        assert independence_number(h).value == independence_number(fresh).value < 6


class TestLibraryIntegersRejectBooleans:
    """Every integer parameter is checked by ``structure.is_int``, so True
    is not taken for 1."""

    CALLS = {
        "p_additive_witness": (lambda: p_additive_witness(star_graph(2), True),
                               "p: must be a positive integer, got True"),
        "PAdditiveWitnessFunction": (lambda: SetFunction.p_additive_witness(("a",), ("a",), (), True),
                                     "p: must be a positive integer, got True"),
        "pseudo_independence_number": (lambda: pseudo_independence_number(InformationGraph(2), True),
                                       "p: must be a positive integer, got True"),
        "has_p_sibling": (lambda: has_p_sibling(InformationGraph(2), True),
                          "p: must be a positive integer, got True"),
        "check_n_q.n": (lambda: check_n_q(True, 1), "n: must be a positive integer, got True"),
        "check_n_q.q": (lambda: check_n_q(2, True), "q: must satisfy 1 <= q <= n, got True"),
        "is_feasible": (lambda: is_feasible(InformationGraph(2), True),
                        "q: must be a positive integer, got True"),
        "min_edges_bound.n": (lambda: min_edges_bound(True, 1),
                              "n: must be a positive integer, got True"),
        "min_edges_bound.k": (lambda: min_edges_bound(2, True),
                              "k: must be a positive integer, got True"),
        "star_graph": (lambda: star_graph(True), "leaves: must be a positive integer, got True"),
        "random_cover_entries": (lambda: random_cover_entries(1, 1, True),
                                 "n_max: must be a positive integer, got True"),
        "random_cover_entries.count": (lambda: random_cover_entries(1, -1, 6),
                                       "count: must be a positive integer, got -1"),
        "standard_witness_entries.alpha_max": (lambda: standard_witness_entries(-2, ()),
                                               "alpha_max: must be a positive integer, got -2"),
        "standard_witness_entries.p_max": (lambda: standard_witness_entries(3, (), 0),
                                           "p_max: must be a positive integer, got 0"),
    }

    @pytest.mark.parametrize("name", CALLS)
    def test_true_is_rejected(self, name):
        call, message = self.CALLS[name]
        with pytest.raises(InputError) as exc:
            call()
        assert str(exc.value) == message

    @pytest.mark.parametrize("value", [0, -3, True, False, 1.0, "2", None])
    def test_positive_int_check_rejects(self, value):
        with pytest.raises(InputError) as exc:
            check_positive_int(value, "k")
        assert str(exc.value) == f"k: must be a positive integer, got {value!r}"

    def test_positive_int_check_accepts(self):
        for value in (1, 2, 10 ** 30):
            check_positive_int(value, "k")


class TestOptimalAssignment:
    def test_remainder_one_case(self):
        assert optimal_assignment(5, 2).P == (1, 1, 2, 2, 2)

    def test_standard_case(self):
        assert optimal_assignment(5, 3).P == (1, 1, 2, 2, 3)

    def test_sequential(self):
        assert optimal_assignment(4, 4).P == (1, 2, 3, 4)

    def test_single_agent(self):
        assert optimal_assignment(1, 1).P == (1,)

    def test_one_iteration_all_simultaneous(self):
        assert optimal_assignment(7, 1).P == (1,) * 7

    @pytest.mark.parametrize("n", range(1, 13))
    def test_always_valid(self, n):
        for q in range(1, n + 1):
            P = optimal_assignment(n, q)
            assert validate_assignment(P) is None, (n, q)

    def test_bad_arguments(self):
        with pytest.raises(InputError):
            optimal_assignment(3, 4)
        with pytest.raises(InputError):
            optimal_assignment(0, 1)


class TestInducedGraph:
    def test_six_edges(self):
        g = induced_graph(assignment(1, 1, 2, 2, 2, q=2))
        assert g.sorted_edges() == [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)]

    def test_eight_edges(self):
        assert induced_graph(assignment(1, 1, 2, 2, 3, q=3)).edge_count == 8

    def test_single_vertex(self):
        assert induced_graph(assignment(1, q=1)).edge_count == 0

    def test_invalid_rejected(self):
        with pytest.raises(InputError, match="order"):
            induced_graph(assignment(2, 1, q=2))


class TestEarliestSchedule:
    def test_path(self):
        g = InformationGraph(3, [(1, 2), (2, 3)])
        s = earliest_schedule(g)
        assert s.levels == (1, 2, 3) and s.depth == 3

    def test_edgeless(self):
        s = earliest_schedule(InformationGraph(5))
        assert s.levels == (1, 1, 1, 1, 1) and s.depth == 1

    def test_optimal_graph_reaches_q(self):
        s = earliest_schedule(optimal_graph(5, 2))
        assert s.levels == (1, 1, 2, 2, 2) and s.depth == 2

    def test_levels_follow_ceil_formula(self):
        # remainder-one: ceil(i/(r-1)) below n, then q; otherwise ceil(i/r)
        for n in range(2, 13):
            for q in range(1, n + 1):
                g = optimal_graph(n, q)
                r = -(-n // q)
                s = earliest_schedule(g)
                if n % q == 1 % q:
                    expect = tuple(-(-i // (r - 1)) for i in range(1, n)) + (q,)
                else:
                    expect = tuple(-(-i // r) for i in range(1, n + 1))
                assert s.levels == expect, (n, q)

    def test_not_order_preserving_in_general(self):
        # a graph whose earliest schedule dips back down is still valid
        g = InformationGraph(3, [(1, 2)])
        assert earliest_schedule(g).levels == (1, 2, 1)


class TestFeasibility:
    def test_examples(self):
        assert is_feasible(optimal_graph(5, 3), 3)
        path5 = InformationGraph(5, [(i, i + 1) for i in range(1, 5)])
        assert not is_feasible(path5, 3)
        assert is_feasible(InformationGraph(9), 1)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_optimal_graph_feasible(self, n):
        for q in range(1, n + 1):
            assert is_feasible(optimal_graph(n, q), q), (n, q)


class TestOptimalGraph:
    def test_5_2(self):
        assert optimal_graph(5, 2).sorted_edges() == [(1, 3), (1, 5), (2, 4), (2, 5)]

    def test_5_3(self):
        assert optimal_graph(5, 3).sorted_edges() == [(1, 3), (1, 5), (2, 4), (3, 5)]

    def test_3_3_is_complete(self):
        assert optimal_graph(3, 3).sorted_edges() == [(1, 2), (1, 3), (2, 3)]

    def test_single_vertex(self):
        assert optimal_graph(1, 1).edge_count == 0

    def test_one_iteration_is_edgeless(self):
        for n in range(2, 10):
            assert optimal_graph(n, 1).edge_count == 0

    @pytest.mark.parametrize("n", range(1, 13))
    def test_subgraph_of_induced(self, n):
        for q in range(1, n + 1):
            dense = induced_graph(optimal_assignment(n, q))
            assert optimal_graph(n, q).edges <= dense.edges, (n, q)

    def test_standard_branch_equals_complement_turan(self):
        for n in range(2, 13):
            for q in range(1, n + 1):
                if n % q == 1 % q:
                    continue
                r = -(-n // q)
                assert optimal_graph(n, q) == complement_turan_graph(n, r), (n, q)


class TestTuranFamily:
    def test_turan_5_2_is_complete_bipartite(self):
        g = turan_graph(5, 2)
        assert g.edge_count == 6
        # classes by residue: {1,3,5} and {2,4}
        assert not g.has_edge(1, 3) and not g.has_edge(2, 4)
        assert g.has_edge(1, 2) and g.has_edge(3, 4) and g.has_edge(4, 5)

    def test_complement_turan_5_2(self):
        g = complement_turan_graph(5, 2)
        assert g.sorted_edges() == [(1, 3), (1, 5), (2, 4), (3, 5)]

    def test_turan_n_n_complete(self):
        g = turan_graph(4, 4)
        assert g.edge_count == 6

    @pytest.mark.parametrize("n,r", [(n, r) for n in range(1, 9) for r in range(1, n + 1)])
    def test_edge_complements(self, n, r):
        assert turan_graph(n, r) == complement_turan_graph(n, r).complement()

    @pytest.mark.parametrize("n,r", [(n, r) for n in range(1, 11) for r in range(1, n + 1)])
    def test_complement_turan_is_r_cliques(self, n, r):
        g = complement_turan_graph(n, r)
        classes = {}
        for v in range(1, n + 1):
            classes.setdefault(v % r, []).append(v)
        assert len(classes) == min(r, n)
        for members in classes.values():
            assert is_clique(g, members)
        # no edges across classes
        for i, j in g.sorted_edges():
            assert i % r == j % r

    def test_class_sizes(self):
        # n mod r classes of ceil(n/r), the rest floor(n/r)
        for n in range(1, 16):
            for r in range(1, n + 1):
                g = complement_turan_graph(n, r)
                sizes = sorted(
                    len([v for v in range(1, n + 1) if v % r == c])
                    for c in range(r))
                hi, lo, m = -(-n // r), n // r, n % r
                assert sizes == sorted([lo] * (r - m) + [hi] * m), (n, r)


@st.composite
def valid_assignments(draw):
    n = draw(st.integers(1, 8))
    q = draw(st.integers(1, n))
    P = tuple(sorted(draw(st.integers(1, q)) for _ in range(n)))
    return IterationAssignment(q, P)


class TestRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(valid_assignments())
    def test_schedule_of_induced_is_minimal(self, P):
        sched = earliest_schedule(induced_graph(P))
        norm = normalize_assignment(P)
        assert sched.depth <= max(P.P)
        assert all(s <= p for s, p in zip(sched.levels, norm.P))

    @settings(max_examples=80, deadline=None)
    @given(valid_assignments())
    def test_schedule_equals_dense_rank(self, P):
        # the induced graph loses nothing: earliest schedule = compressed P
        sched = earliest_schedule(induced_graph(P))
        assert sched.levels == normalize_assignment(P).P
