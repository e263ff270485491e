"""Exact graph invariants, cross-checked against subset-scan oracles."""

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pargreedy import graphmetrics
from pargreedy import (
    CapacityError,
    DisjointSetsCheck,
    InformationGraph,
    clique_cover_number,
    clique_number,
    complement_turan_graph,
    curvature_graph_bounds,
    earliest_schedule,
    graph_ratio_bounds,
    has_p_sibling,
    has_sibling_condition,
    independence_number,
    InvariantWitness,
    induced_graph,
    IterationAssignment,
    maximum_independent_sets,
    maximum_pseudo_independent_sets,
    optimal_graph,
    PSiblingWitness,
    pseudo_independence_number,
    SiblingWitness,
    verify_no_disjoint_max_sets,
)
from pargreedy.bounds import certify
from pargreedy.cli import main
from pargreedy.graphmetrics import _max_pseudo_independent_mask
from pargreedy.serialize import save_graph
from pargreedy.suites import random_cover_entries, random_feasible_graph

from conftest import (
    all_pseudo_independent_sets,
    brute_alpha,
    brute_omega,
    brute_pseudo_independent_sets,
    brute_theta,
    counted_sets_of_size,
    first_fit_cliques,
    is_clique,
    is_independent,
    rising_maximum_sets,
    two_pass_clique_cover,
)


def complete(n):
    return InformationGraph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def star5():
    return InformationGraph(5, [(i, 5) for i in range(1, 5)])


def random_graph(rng, n, p=0.5):
    return InformationGraph(
        n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
            if rng.random() < p])


class TestCliqueNumber:
    def test_complete(self):
        assert clique_number(complete(4)).value == 4

    def test_edgeless(self):
        assert clique_number(InformationGraph(5)).value == 1

    def test_complement_turan(self):
        w = clique_number(complement_turan_graph(5, 2))
        assert w.value == 3 and set(w.witness) == {1, 3, 5}

    def test_witness_is_clique(self):
        rng = random.Random(1)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 8))
            w = clique_number(g)
            assert is_clique(g, w.witness) and len(w.witness) == w.value


class TestIndependenceNumber:
    def test_complete(self):
        assert independence_number(complete(3)).value == 1

    def test_optimal_graph(self):
        w = independence_number(optimal_graph(5, 2))
        assert w.value == 3

    def test_complement_turan(self):
        assert independence_number(complement_turan_graph(5, 2)).value == 2

    def test_witness_is_independent(self):
        rng = random.Random(2)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 8))
            w = independence_number(g)
            assert is_independent(g, w.witness) and len(w.witness) == w.value

    def test_cap(self):
        with pytest.raises(CapacityError):
            independence_number(InformationGraph(21))


class TestCliqueCoverNumber:
    def test_edgeless(self):
        assert clique_cover_number(InformationGraph(4)).value == 4

    def test_union_of_two_cliques(self):
        w = clique_cover_number(complement_turan_graph(5, 2))
        assert w.value == 2
        assert sorted(map(sorted, w.witness)) == [[1, 3, 5], [2, 4]]

    def test_induced_optimal_assignment(self):
        # cliques here pair one early agent with one late agent; with 5
        # agents and cliques of size <= q = 2 the cover needs 3 parts
        g = induced_graph(IterationAssignment(2, (1, 1, 2, 2, 2)))
        assert clique_cover_number(g).value == 3
        assert brute_theta(g) == 3

    def test_witness_partitions_into_cliques(self):
        rng = random.Random(3)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 7))
            w = clique_cover_number(g)
            seen = [v for part in w.witness for v in part]
            assert sorted(seen) == list(range(1, g.n + 1))
            assert all(is_clique(g, part) for part in w.witness)
            assert len(w.witness) == w.value


@st.composite
def capped_graphs(draw):
    """A graph on 0 to GRAPH_CAP vertices: edgeless, complete, or one of the
    four families of the analyze-graph benchmark (random feasible; optimal
    or complement-Turan with up to three vertex pairs toggled; uniform
    density)."""
    n = draw(st.integers(0, graphmetrics.GRAPH_CAP))
    family = draw(st.sampled_from(("edgeless", "complete", "feasible", "optimal",
                                   "complement-turan", "uniform")))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if n == 0 or family == "edgeless":
        return InformationGraph(n)
    if family == "complete":
        return complete(n)
    if family == "feasible":
        return random_feasible_graph(rng, n, rng.randint(1, n))
    if family == "uniform":
        return random_graph(rng, n, rng.choice((0.15, 0.35, 0.55, 0.75, 0.85)))
    build = optimal_graph if family == "optimal" else complement_turan_graph
    edges = set(build(n, rng.randint(1, n)).sorted_edges())
    pairs = list(combinations(range(1, n + 1), 2))
    edges ^= set(rng.sample(pairs, min(len(pairs), rng.randint(0, 3))))
    return InformationGraph(n, edges)


class TestCliqueCoverAgainstTwoPassSearch:
    """theta comes from one search that rises from alpha; the greedy-bounded
    two-pass search it replaced (``conftest.two_pass_clique_cover``) is the
    oracle for the number and the witness partition."""

    @settings(max_examples=150, deadline=None)
    @given(capped_graphs())
    def test_same_theta_and_partition(self, g):
        w = clique_cover_number(g)
        assert (w.value, w.witness) == two_pass_clique_cover(g, independence_number(g).value)


class TestOracleAgreement:
    def test_against_subset_scans(self):
        rng = random.Random(4)
        graphs = [InformationGraph(1), complete(4), star5(),
                  complement_turan_graph(5, 2), optimal_graph(5, 2),
                  optimal_graph(7, 3)]
        graphs += [random_graph(rng, rng.randint(1, 7)) for _ in range(30)]
        for g in graphs:
            assert independence_number(g).value == brute_alpha(g)
            assert clique_number(g).value == brute_omega(g)
            if g.n <= 7:
                assert clique_cover_number(g).value == brute_theta(g)

    def test_duality_both_ways(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 8))
            assert clique_number(g).value == independence_number(g.complement()).value
            assert independence_number(g).value == clique_number(g.complement()).value


class TestSiblingCondition:
    def test_complement_turan_has_sibling(self):
        w = has_sibling_condition(complement_turan_graph(5, 2))
        assert w is not None
        assert w.member in w.independent_set
        assert w.member < w.vertex
        assert complement_turan_graph(5, 2).has_edge(w.member, w.vertex)

    def test_edgeless_has_none(self):
        assert has_sibling_condition(InformationGraph(3)) is None

    def test_single_edge(self):
        w = has_sibling_condition(InformationGraph(2, [(1, 2)]))
        assert w is not None and w.vertex == 2 and w.independent_set == (1,)

    def test_witness_always_valid(self):
        rng = random.Random(6)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 7))
            w = has_sibling_condition(g)
            if w is None:
                # no maximum independent set member is observed by anyone
                for ind in maximum_independent_sets(g):
                    for v in range(1, g.n + 1):
                        assert not any(i in ind and i < v and g.has_edge(i, v)
                                       for i in ind)
            else:
                assert is_independent(g, w.independent_set)
                assert len(w.independent_set) == independence_number(g).value


class TestPseudoIndependence:
    def test_p1_equals_alpha(self):
        rng = random.Random(7)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 8))
            assert pseudo_independence_number(g, 1).value == independence_number(g).value

    def test_complete_p2(self):
        assert pseudo_independence_number(complete(4), 2).value == 2

    def test_edgeless_any_p(self):
        for p in (1, 2, 3):
            assert pseudo_independence_number(InformationGraph(5), p).value == 5

    def test_star(self):
        w = pseudo_independence_number(star5(), 2)
        assert w.value == 4 and w.witness == (1, 2, 3, 4)

    def test_definition_satisfied(self):
        rng = random.Random(8)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 7))
            p = rng.randint(1, 3)
            w = pseudo_independence_number(g, p)
            members = set(w.witness)
            for j in w.witness:
                in_nbrs = {i for i in range(1, j) if g.has_edge(i, j)}
                assert len(in_nbrs & members) < p

    def test_monotone_in_p(self):
        rng = random.Random(9)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 7))
            vals = [pseudo_independence_number(g, p).value for p in (1, 2, 3)]
            assert vals == sorted(vals)
            alpha = vals[0]
            for p, v in zip((1, 2, 3), vals):
                assert v <= min(g.n, p * alpha)


class TestPSibling:
    def test_edgeless_never(self):
        for p in (1, 2):
            assert has_p_sibling(InformationGraph(4), p) is None

    def test_reduces_to_sibling_at_p1(self):
        g = complement_turan_graph(5, 2)
        assert has_p_sibling(g, 1) is not None

    def test_star_p2(self):
        w = has_p_sibling(star5(), 2)
        assert w is not None
        assert w.vertex == 5 and w.pseudo_independent_set == (1, 2, 3, 4)
        assert len(w.members) >= 2

    def test_witness_members_observed(self):
        rng = random.Random(10)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 7))
            p = rng.randint(1, 2)
            w = has_p_sibling(g, p)
            if w is not None:
                assert w.vertex not in w.pseudo_independent_set
                assert len(w.members) >= p
                for m in w.members:
                    assert m < w.vertex and g.has_edge(m, w.vertex)
                    assert m in w.pseudo_independent_set


class TestNoDisjointMaxSets:
    def test_unique_maximum(self):
        out = verify_no_disjoint_max_sets(InformationGraph(4), 1)
        assert out.applicable and out.holds

    def test_not_applicable_with_sibling(self):
        out = verify_no_disjoint_max_sets(star5(), 2)
        assert not out.applicable and out.holds

    def test_never_refuted_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 8))
            for p in (1, 2):
                out = verify_no_disjoint_max_sets(g, p)
                assert out.holds, (g, p, out.counterexample)


class TestEnumerators:
    def test_all_max_sets_found(self):
        g = complement_turan_graph(5, 2)
        sets = maximum_independent_sets(g)
        # one vertex from each of the cliques {1,3,5} and {2,4}
        assert sorted(sets) == sorted(
            (a, b) if a < b else (b, a) for a in (1, 3, 5) for b in (2, 4))

    def test_pseudo_sets_cover_plain_sets_at_p1(self):
        rng = random.Random(12)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 7))
            assert sorted(maximum_independent_sets(g)) == sorted(
                maximum_pseudo_independent_sets(g, 1))


@st.composite
def small_graphs(draw, n_max=12):
    """A graph on at most n_max vertices whose density is drawn first."""
    n = draw(st.integers(0, n_max))
    pairs = list(combinations(range(1, n + 1), 2))
    density = draw(st.integers(0, 8))
    draws = draw(st.lists(st.integers(0, 7), min_size=len(pairs), max_size=len(pairs)))
    return InformationGraph(n, [e for e, d in zip(pairs, draws) if d < density])


class TestSearchAgainstRisingSearch:
    """alpha_p jumps past every size its include-first dive reaches and
    bounds each clique by the members the set already holds; the search
    that rose one size at a time (``conftest.rising_maximum_sets``) is the
    oracle for the first maximum set and every maximum set, in order."""

    @settings(max_examples=150, deadline=None)
    @given(capped_graphs(), st.sampled_from((1, 2, 3)))
    # the first set of size 5, (1, 2, 3, 6, 7), skips vertex 4, which has
    # two neighbors in it but would give 6 and 7 a third in-neighbor: the
    # extension takes only vertices past the set's last member
    @example(InformationGraph(7, [(1, 3), (1, 5), (1, 6), (1, 7), (2, 5), (2, 6), (2, 7), (3, 5),
                                  (4, 5), (4, 6), (4, 7), (5, 6), (5, 7)]), 3)
    def test_same_sets_in_the_same_order(self, g, p):
        sets = rising_maximum_sets(g, p)
        assert pseudo_independence_number(g, p) == InvariantWitness(len(sets[0]), sets[0])
        assert maximum_pseudo_independent_sets(g, p) == sets

    def test_alpha_2_of_an_optimal_graph_takes_at_most_two_size_searches(self, monkeypatch):
        # rising from size 1, the search took 17
        sizes = []
        search = graphmetrics._all_pseudo_independent_of_size

        def counting_search(adj, n, p, size, cliques):
            sizes.append(size)
            return search(adj, n, p, size, cliques)

        monkeypatch.setattr(graphmetrics, "_all_pseudo_independent_of_size", counting_search)
        first = rising_maximum_sets(optimal_graph(16, 2), 2)[0]
        assert pseudo_independence_number(optimal_graph(16, 2), 2) == InvariantWitness(
            len(first), first)
        assert len(sizes) <= 2


class TestSearchAgainstCountedSearch:
    """Including a vertex drops, with one AND, its alive neighbors that were
    one in-neighbor short of p; the search that counted each neighbor's
    in-neighbors instead (``conftest.counted_sets_of_size``) is the oracle
    for every set of size alpha_p, in order, and for none one size above."""

    @settings(max_examples=150, deadline=None)
    @given(capped_graphs(), st.integers(1, 4))
    @example(InformationGraph(7), 2)
    @example(complete(6), 2)
    @example(InformationGraph(0), 1)
    @example(InformationGraph(3, [(1, 2), (1, 3), (2, 3)]), 4)
    def test_same_sets_in_the_same_order(self, g, p):
        adj, n = g.adjacency_masks(), g.n
        cliques = graphmetrics._suffix_cliques(adj, n)
        size = pseudo_independence_number(g, p).value
        for s, some in ((size, True), (size + 1, False)):
            sets = list(graphmetrics._all_pseudo_independent_of_size(adj, n, p, s, cliques))
            assert sets == list(counted_sets_of_size(adj, n, p, s, cliques))
            assert bool(sets) is some


class TestSearchParts:
    """The partition the search bounds on at p: its parts hold at most p
    members of any p-pseudo-independent set, so the search over them finds
    what the search over the cliques of the first fit
    (``conftest.counted_sets_of_size``) finds, in the same order."""

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(), st.integers(1, 4))
    # vertex 1 neighbors neither member of the clique {2, 3}, so it must not
    # close it: {1, 2, 3} is 2-pseudo-independent
    @example(InformationGraph(3, [(2, 3)]), 2)
    @example(complete(6), 3)
    def test_parts_against_unpruned_enumeration(self, g, p):
        adj, n = g.adjacency_masks(), g.n
        parts = graphmetrics._suffix_cliques(adj, n, p)
        assert all(parts)
        assert sum(c.bit_count() for c in parts) == n
        assert sum(parts) == (1 << n) - 1
        for s in all_pseudo_independent_sets(g, p):
            mask = sum(1 << v - 1 for v in s)
            assert all((c & mask).bit_count() <= p for c in parts), s
        cliques = first_fit_cliques(adj, n)
        if p == 1:
            assert parts == cliques
        size = len(brute_pseudo_independent_sets(g, p)[0])
        for s, some in ((size, True), (size + 1, False)):
            sets = list(graphmetrics._all_pseudo_independent_of_size(adj, n, p, s, parts))
            assert sets == list(counted_sets_of_size(adj, n, p, s, cliques))
            assert bool(sets) is some


def _in_members(graph, w, members):
    return tuple(u for u in members if u < w and graph.has_edge(u, w))


class TestPrunedSearchAgainstOracle:
    """The pruned, lazy searches against the unpruned enumeration in
    conftest: same values, same sets in the same order, same witnesses."""

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(), st.integers(1, 4))
    def test_p_searches_match_unpruned_enumeration(self, g, p):
        sets = brute_pseudo_independent_sets(g, p)
        assert pseudo_independence_number(g, p) == InvariantWitness(len(sets[0]), sets[0])
        assert maximum_pseudo_independent_sets(g, p) == sets

        sibling = next((PSiblingWitness(w, s, _in_members(g, w, s))
                        for s in sets for w in range(1, g.n + 1)
                        if w not in s and len(_in_members(g, w, s)) >= p), None)
        assert has_p_sibling(g, p) == sibling

        if sibling is not None:
            check = DisjointSetsCheck(applicable=False, holds=True)
        else:
            pair = next(((a, b) for a, b in combinations(sets, 2) if not set(a) & set(b)), None)
            check = DisjointSetsCheck(applicable=True, holds=pair is None, counterexample=pair)
        assert verify_no_disjoint_max_sets(g, p) == check

    @settings(max_examples=100, deadline=None)
    @given(small_graphs())
    def test_sibling_condition_matches_unpruned_enumeration(self, g):
        sets = brute_pseudo_independent_sets(g, 1)
        assert maximum_independent_sets(g) == sets
        sibling = next((SiblingWitness(w, s, _in_members(g, w, s)[0])
                        for s in sets for w in range(1, g.n + 1)
                        if _in_members(g, w, s)), None)
        assert has_sibling_condition(g) == sibling
        assert independence_number(g) == InvariantWitness(len(sets[0]), sets[0])
        cliques = brute_pseudo_independent_sets(g.complement(), 1)
        assert clique_number(g) == InvariantWitness(len(cliques[0]), cliques[0])

    @settings(max_examples=100, deadline=None)
    @given(small_graphs(), st.integers(1, 4))
    @example(InformationGraph(6), 1)
    @example(InformationGraph(6), 2)
    def test_disjoint_check_enumerates_the_maximum_sets_once(self, g, p):
        # the first maximum set is kept by the alpha_p search; the sibling
        # scan enumerates the others only when that set has no sibling, and
        # the check reuses the sets it walked
        sets = brute_pseudo_independent_sets(g, p)
        size = pseudo_independence_number(g, p).value
        sibling = next((w for s in sets for w in range(1, g.n + 1)
                        if w not in s and len(_in_members(g, w, s)) >= p), None)
        first_has_one = any(w not in sets[0] and len(_in_members(g, w, sets[0])) >= p
                            for w in range(1, g.n + 1))
        sizes = []
        search = graphmetrics._all_pseudo_independent_of_size

        def counting_search(adj, n, p, size, parts):
            sizes.append(size)
            return search(adj, n, p, size, parts)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphmetrics, "_all_pseudo_independent_of_size", counting_search)
            check = verify_no_disjoint_max_sets(g, p)
        assert sizes == ([] if first_has_one else [size])
        if sibling is not None:
            assert check == DisjointSetsCheck(applicable=False, holds=True)
        else:
            pair = next(((a, b) for a, b in combinations(sets, 2) if not set(a) & set(b)), None)
            assert check == DisjointSetsCheck(applicable=True, holds=pair is None,
                                              counterexample=pair)


def _invariant_calls(p):
    """Every public invariant of a graph, with p where it takes one."""
    return {
        "alpha": independence_number,
        "omega": clique_number,
        "theta": clique_cover_number,
        "max_independent_sets": maximum_independent_sets,
        "sibling": has_sibling_condition,
        "alpha_p": lambda g: pseudo_independence_number(g, p),
        "max_p_sets": lambda g: maximum_pseudo_independent_sets(g, p),
        "p_sibling": lambda g: has_p_sibling(g, p),
        "disjoint": lambda g: verify_no_disjoint_max_sets(g, p),
    }


def _fresh(g):
    return InformationGraph(g.n, g.edges)


def _uncached(adj, n, p):
    mask = _max_pseudo_independent_mask(adj, n, p, graphmetrics._suffix_cliques(adj, n))
    return InvariantWitness(mask.bit_count(), tuple(v + 1 for v in range(n) if mask >> v & 1))


class TestSearchMemo:
    """Each graph keeps the first maximum set per p and its complement, so
    the invariants share one search; results must not depend on the order
    of the calls."""

    @settings(max_examples=150, deadline=None)
    @given(small_graphs(n_max=10), st.sampled_from((1, 2, 3)), st.randoms())
    def test_call_order_does_not_change_any_result(self, g, p, rnd):
        calls = _invariant_calls(p)
        names = list(calls)
        rnd.shuffle(names)
        shared = {name: calls[name](g) for name in names}
        for name in names:
            assert shared[name] == calls[name](_fresh(g)), name
        assert shared["alpha"] == _uncached(_fresh(g).adjacency_masks(), g.n, 1)
        assert shared["omega"] == _uncached(_fresh(g).complement().adjacency_masks(), g.n, 1)
        assert shared["alpha_p"] == _uncached(_fresh(g).adjacency_masks(), g.n, p)

    def test_complement_is_built_once(self):
        g = optimal_graph(7, 3)
        assert g.complement() is g.complement()
        assert g.complement() == InformationGraph(
            7, [e for e in combinations(range(1, 8), 2) if not g.has_edge(*e)])

    @pytest.fixture
    def counts(self, monkeypatch):
        """Count the exact searches and the complement graphs built."""
        searches = []
        complements = []
        search = graphmetrics._max_pseudo_independent_mask
        complement = InformationGraph.complement

        def counting_search(adj, n, p, cliques):
            searches.append(p)
            return search(adj, n, p, cliques)

        def counting_complement(self):
            built = complement(self)
            complements.append(built)
            return built

        monkeypatch.setattr(graphmetrics, "_max_pseudo_independent_mask", counting_search)
        monkeypatch.setattr(InformationGraph, "complement", counting_complement)
        return searches, complements

    def test_analyze_graph_searches_alpha_omega_and_alpha_p_once(self, counts, tmp_path,
                                                                 capsys):
        path = tmp_path / "g.json"
        save_graph(optimal_graph(12, 4), path)
        assert main(["analyze", "graph", "--in", str(path), "--p", "2"]) == 0
        searches, complements = counts
        assert sorted(searches) == [1, 1, 2]
        assert len({id(c) for c in complements}) == 1

    def test_analyze_graph_charges_the_p_search_to_alpha_p(self, counts, tmp_path, capsys,
                                                           monkeypatch):
        path = tmp_path / "g.json"
        save_graph(optimal_graph(12, 4), path)
        searches, _ = counts
        during_sibling = []
        sibling = graphmetrics.has_p_sibling

        def recording_sibling(graph, p):
            before = len(searches)
            found = sibling(graph, p)
            during_sibling.append(searches[before:])
            return found

        monkeypatch.setattr(graphmetrics, "has_p_sibling", recording_sibling)
        assert main(["analyze", "graph", "--in", str(path), "--p", "2"]) == 0
        assert during_sibling == [[]]

    def test_certify_row_searches_once(self, counts, capsys):
        assert main(["certify", "--suite", "random", "--count", "1", "--seed", "7"]) == 0
        searches, _ = counts
        assert searches == [1]


    def test_each_graph_builds_its_clique_partition_once(self, monkeypatch, tmp_path, capsys):
        # once per graph and p: analyze graph --p 2 builds the graph's and
        # its complement's at p = 1 and the graph's at p = 2
        built = []
        partition = graphmetrics._suffix_cliques

        def counting_partition(adj, n, p):
            built.append((adj, p))
            return partition(adj, n, p)

        monkeypatch.setattr(graphmetrics, "_suffix_cliques", counting_partition)
        g = optimal_graph(16, 2)
        path = tmp_path / "g.json"
        save_graph(g, path)
        assert main(["analyze", "graph", "--in", str(path), "--p", "2"]) == 0
        adj, co = g.adjacency_masks(), g.complement().adjacency_masks()
        assert sorted(built) == sorted([(adj, 1), (co, 1), (adj, 2)])
        built.clear()
        report = certify(random_cover_entries(7, 5, 6))
        assert [r.verdict for r in report.rows] == ["pass"] * 5
        assert [p for _, p in built] == [1] * 5

    @pytest.mark.parametrize("p", [1, 2])
    def test_a_sibling_of_the_kept_set_starts_no_search(self, monkeypatch, p):
        # the first maximum set of the star, (1, 2, 3, 4), has the sibling 5
        # at p = 1 and at p = 2; the alpha_p search kept it
        g = star5()
        assert pseudo_independence_number(g, p).witness == (1, 2, 3, 4)
        sizes = []
        search = graphmetrics._all_pseudo_independent_of_size

        def counting_search(adj, n, p, size, parts):
            sizes.append(size)
            return search(adj, n, p, size, parts)

        monkeypatch.setattr(graphmetrics, "_all_pseudo_independent_of_size", counting_search)
        assert has_p_sibling(g, p) == PSiblingWitness(5, (1, 2, 3, 4), (1, 2, 3, 4))
        if p == 1:
            assert has_sibling_condition(g) == SiblingWitness(5, (1, 2, 3, 4), 1)
        assert sizes == []


class TestColoringMemo:
    """theta's exact coloring of the complement runs at most once per graph,
    whichever public call asks for theta first."""

    @pytest.fixture
    def colorings(self, monkeypatch):
        """The vertex count of every coloring search run."""
        calls = []
        color = graphmetrics._chromatic_number

        def counting_color(adj, n, lb):
            calls.append(n)
            return color(adj, n, lb)

        monkeypatch.setattr(graphmetrics, "_chromatic_number", counting_color)
        return calls

    def test_bounds_with_a_lambda_colors_once(self, colorings, tmp_path, capsys):
        # the plain and the curvature bounds both need theta
        path = tmp_path / "g.json"
        save_graph(optimal_graph(6, 2), path)
        assert main(["bounds", "--in", str(path), "--lambda", "1/2"]) == 0
        assert colorings == [6]
        assert capsys.readouterr().out == (
            "lower=1/4 upper=1/3 refined_upper=1/4 curvature_lower=4/7 curvature_upper=2/3\n")

    def test_theta_callers_color_once_in_any_order(self, colorings):
        calls = {
            "theta": clique_cover_number,
            "ratio": graph_ratio_bounds,
            "curvature": lambda g: curvature_graph_bounds(g, "1/2"),
        }
        rng = random.Random(23)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            names = list(calls)
            rng.shuffle(names)
            shared = {name: calls[name](g) for name in names}
            assert colorings == [g.n], names
            for name in names:
                assert shared[name] == calls[name](_fresh(g)), name
            colorings.clear()

    def test_an_oversized_graph_is_refused_before_any_coloring(self, colorings):
        g = InformationGraph(21)
        for _ in range(2):
            with pytest.raises(CapacityError, match="^clique cover number on 21 vertices"):
                clique_cover_number(g)
        assert colorings == []


class _CountedReads(tuple):
    """Adjacency masks that count how often the search reads one."""
    reads = 0

    def __getitem__(self, i):
        _CountedReads.reads += 1
        return tuple.__getitem__(self, i)


def cycle(n):
    return InformationGraph(n, [(i, i % n + 1) for i in range(1, n + 1)])


class TestSearchWork:
    """The exact searches' work, pinned: a sound but looser prune finds the
    same sets and colorings, so only a count of its steps shows it."""

    def test_alpha_p_search_reads(self):
        # the adjacency reads of enumerating every maximum set, then of the
        # search one size above, which finds nothing; applying the
        # members-held clique bound only to cliques with three or more alive
        # vertices changes six of the twelve (optimal_graph(16, 2) at p = 1
        # reads 1534 times)
        graphs = {
            "optimal-16-2": optimal_graph(16, 2),
            "complement-turan-18-3": complement_turan_graph(18, 3),
            "uniform-18-0.2": random_graph(random.Random(1), 18, 0.2),
            "uniform-18-0.5": random_graph(random.Random(2), 18, 0.5),
        }
        reads = {}
        for name, g in graphs.items():
            adj = g.adjacency_masks()
            cliques = graphmetrics._suffix_cliques(adj, g.n)
            counted = _CountedReads(adj)
            for p in (1, 2, 3):
                size = pseudo_independence_number(g, p).value
                _CountedReads.reads = 0
                sets = graphmetrics._all_pseudo_independent_of_size(counted, g.n, p, size, cliques)
                assert len(list(sets)) == len(maximum_pseudo_independent_sets(g, p))
                above = graphmetrics._all_pseudo_independent_of_size(
                    counted, g.n, p, size + 1, cliques)
                assert next(above, None) is None
                reads[name, p] = _CountedReads.reads
        assert reads == {
            ("optimal-16-2", 1): 1279, ("optimal-16-2", 2): 16, ("optimal-16-2", 3): 24,
            ("complement-turan-18-3", 1): 323, ("complement-turan-18-3", 2): 7260,
            ("complement-turan-18-3", 3): 31622,
            ("uniform-18-0.2", 1): 125, ("uniform-18-0.2", 2): 1965, ("uniform-18-0.2", 3): 6333,
            ("uniform-18-0.5", 1): 32, ("uniform-18-0.5", 2): 320, ("uniform-18-0.5", 3): 4896,
        }

    def test_alpha_p_search_reads_over_its_parts(self):
        # as above, over the partition pseudo_independence_number uses at p;
        # over the cliques of the first fit, uniform-18-0.2 reads 1965 and
        # 6333 at p = 2 and 3, and uniform-18-0.5 320 and 4896
        graphs = {
            "optimal-16-2": optimal_graph(16, 2),
            "complement-turan-18-3": complement_turan_graph(18, 3),
            "uniform-18-0.2": random_graph(random.Random(1), 18, 0.2),
            "uniform-18-0.5": random_graph(random.Random(2), 18, 0.5),
        }
        reads = {}
        for name, g in graphs.items():
            counted = _CountedReads(g.adjacency_masks())
            for p in (1, 2, 3):
                parts = graphmetrics._parts(g, p)
                size = pseudo_independence_number(g, p).value
                _CountedReads.reads = 0
                sets = graphmetrics._all_pseudo_independent_of_size(counted, g.n, p, size, parts)
                assert len(list(sets)) == len(maximum_pseudo_independent_sets(g, p))
                above = graphmetrics._all_pseudo_independent_of_size(
                    counted, g.n, p, size + 1, parts)
                assert next(above, None) is None
                reads[name, p] = _CountedReads.reads
        assert reads == {
            ("optimal-16-2", 1): 1279, ("optimal-16-2", 2): 16, ("optimal-16-2", 3): 24,
            ("complement-turan-18-3", 1): 323, ("complement-turan-18-3", 2): 7260,
            ("complement-turan-18-3", 3): 31622,
            ("uniform-18-0.2", 1): 125, ("uniform-18-0.2", 2): 618, ("uniform-18-0.2", 3): 3245,
            ("uniform-18-0.5", 1): 32, ("uniform-18-0.5", 2): 314, ("uniform-18-0.5", 3): 4695,
        }

    def test_theta_coloring_calls(self, monkeypatch):
        # the _assign calls of theta's coloring, which recurses through the
        # module global; only graphs with theta > alpha show anything, since
        # at theta = alpha the first descent succeeds.  Letting every vertex
        # open any number of fresh colors makes C5, C7 and C9 take 19, 87
        # and 643 calls
        calls = []
        assign = graphmetrics._assign

        def counting_assign(*args):
            calls.append(args[3])
            return assign(*args)

        monkeypatch.setattr(graphmetrics, "_assign", counting_assign)
        graphs = {
            "C5": cycle(5), "C7": cycle(7), "C9": cycle(9),
            "uniform-16-0.6": random_graph(random.Random(8), 16, 0.6),
            "uniform-14-0.4": random_graph(random.Random(32), 14, 0.4),
        }
        work = {}
        for name, g in graphs.items():
            calls.clear()
            theta = clique_cover_number(g).value
            assert theta > independence_number(g).value, name
            work[name] = (theta, len(calls))
        assert work == {"C5": (3, 13), "C7": (4, 23), "C9": (5, 41),
                        "uniform-16-0.6": (4, 83), "uniform-14-0.4": (6, 80)}


@pytest.mark.parametrize("call, what", [
    (independence_number, "independence number"),
    (clique_number, "clique number"),
    (clique_cover_number, "clique cover number"),
    (maximum_independent_sets, "maximum independent set enumeration"),
    (has_sibling_condition, "sibling condition"),
    (lambda g: pseudo_independence_number(g, 2), "pseudo-independence number"),
    (lambda g: maximum_pseudo_independent_sets(g, 2), "pseudo-independent set enumeration"),
    (lambda g: has_p_sibling(g, 2), "p-sibling property"),
    (lambda g: verify_no_disjoint_max_sets(g, 2), "disjoint maximum set check"),
])
def test_each_invariant_names_itself_above_the_cap(call, what):
    with pytest.raises(CapacityError) as exc:
        call(InformationGraph(21))
    assert str(exc.value) == f"{what} on 21 vertices exceeds exact-search cap 20"


class TestParallelIndependenceLowerBound:
    def test_small_exhaustive(self):
        # alpha(G) >= ceil(n / depth) for every graph up to 5 vertices
        from conftest import all_graphs
        for n in range(1, 6):
            for g in all_graphs(n):
                depth = earliest_schedule(g).depth
                r = -(-n // depth)
                assert independence_number(g).value >= r

    def test_random_graphs_up_to_ten_vertices(self):
        rng = random.Random(13)
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            depth = earliest_schedule(g).depth
            assert independence_number(g).value >= -(-g.n // depth)


class TestComplementTuranInvariants:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_alpha_theta_equal_r(self, n):
        for r in range(1, n + 1):
            g = complement_turan_graph(n, r)
            assert independence_number(g).value == r
            assert clique_cover_number(g).value == r
