"""Greedy execution, tie policies, brute force and empirical ratios."""

import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pargreedy
from pargreedy import (
    AgentSpace,
    CapacityError,
    InformationGraph,
    InputError,
    IterationAssignment,
    Schedule,
    SetFunction,
    UndefinedRatioError,
    brute_force_optimum,
    clique_cover_number,
    curvature_witness,
    earliest_schedule,
    empirical_ratio,
    induced_graph,
    normalize_assignment,
    p_additive_witness,
    run_greedy,
    run_parallel_greedy,
)
from pargreedy import greedy
from pargreedy.greedy import (
    NODE_CAP,
    POLICIES,
    PROFILE_CAP,
    PRUNE_PROFILES,
    _flat_optimum,
    _ordered_decisions,
    _profile_count,
    _pruned_optimum,
    _ties,
)
from pargreedy.objective import OBJECTIVE_KINDS, check_properties, total_curvature
from pargreedy.suites import (
    edgeless_graph,
    random_assignment,
    random_cover_instance,
    random_feasible_graph,
    star_graph,
)

from conftest import (
    FractionOracle,
    blow_up_values,
    brute_greedy,
    brute_optimum,
    composed_ratio,
    objective_instances,
    stack_greedy_engine,
)

F = Fraction


def complete(n):
    return InformationGraph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


class TestTiePolicies:
    def test_worst_takes_the_wasteful_branch(self, tie_fixture):
        f, X, g = tie_fixture
        out = run_greedy(f, X, g, "worst")
        assert out.profile == ("b1", "b2") and out.value == 1
        assert out.resolutions_explored == 2

    def test_best_takes_the_productive_branch(self, tie_fixture):
        f, X, g = tie_fixture
        out = run_greedy(f, X, g, "best")
        assert out.profile == ("a", "b2") and out.value == 2

    def test_first_picks_lowest_ground_index(self, tie_fixture):
        f, X, g = tie_fixture
        out = run_greedy(f, X, g, "first")
        assert out.profile == ("a", "b2") and out.resolutions_explored == 1

    def test_last_picks_highest_ground_index(self, tie_fixture):
        f, X, g = tie_fixture
        assert run_greedy(f, X, g, "last").profile == ("b1", "b2")

    def test_all_enumerates_every_resolution(self, tie_fixture):
        f, X, g = tie_fixture
        outs = run_greedy(f, X, g, "all")
        assert {o.profile for o in outs} == {("a", "b2"), ("b1", "b2")}
        assert {o.value for o in outs} == {F(1), F(2)}
        assert all(o.resolutions_explored == 2 for o in outs)

    def test_all_outcomes_distinct_decision_sets(self):
        f = SetFunction.cover(
            ("a", "b", "c", "d"), ("y1", "y2"), {"y1": 1, "y2": 1},
            {"a": ("y1",), "b": ("y1",), "c": ("y2",), "d": ("y2",)})
        X = AgentSpace([{"a", "b"}, {"c", "d"}])
        outs = run_greedy(f, X, edgeless_graph(2), "all")
        sets = [o.chosen() for o in outs]
        assert len(sets) == len(set(sets)) == 4

    def test_unknown_policy(self, tie_fixture):
        f, X, g = tie_fixture
        with pytest.raises(InputError, match="policy"):
            run_greedy(f, X, g, "random")


class TestOutcomeInvariants:
    def test_value_equals_union_evaluation(self, tie_fixture):
        f, X, g = tie_fixture
        for policy in ("first", "last", "worst", "best"):
            out = run_greedy(f, X, g, policy)
            assert out.value == f.value(out.chosen())
            assert sum(out.per_agent_marginal, F(0)) == out.value

    def test_single_agent(self):
        f = SetFunction.cover(("a",), ("y",), {"y": 5}, {"a": ("y",)})
        X = AgentSpace([{"a"}])
        for policy in ("first", "last", "worst", "best"):
            out = run_greedy(f, X, InformationGraph(1), policy)
            assert out.profile == ("a",) and out.value == 5

    def test_null_agents_hold_slots(self):
        f = SetFunction.cover(("a",), ("y",), {"y": 2}, {"a": ("y",)})
        X = AgentSpace([set(), {"a"}, set()])
        out = run_greedy(f, X, InformationGraph(3), "worst")
        assert out.profile == (None, "a", None)
        assert out.per_agent_marginal == (F(0), F(2), F(0))

    def test_dimension_mismatch(self, tie_fixture):
        f, X, _ = tie_fixture
        with pytest.raises(InputError, match="agents"):
            run_greedy(f, X, InformationGraph(3), "worst")

    def test_node_cap(self, tie_fixture, monkeypatch):
        f, X, g = tie_fixture
        monkeypatch.setattr("pargreedy.greedy.NODE_CAP", 2)
        with pytest.raises(CapacityError, match="tie-tree"):
            run_greedy(f, X, g, "worst")

    def test_node_cap_counts_every_node(self, monkeypatch):
        # a tied members below e null agents: a chain of e nodes, then a
        # full binary tree of 2^(a+1) - 1 nodes whose 2^a leaves count too
        a, e = 5, 2
        w = curvature_witness(edgeless_graph(a), F(1, 2))
        X = AgentSpace([set()] * e + list(w.agents.decisions))
        g = edgeless_graph(a + e)
        cap = 2 ** (a + 1) - 1 + e
        assert cap == 65
        monkeypatch.setattr("pargreedy.greedy.NODE_CAP", cap)
        out = run_greedy(w.objective, X, g, "worst")
        assert out.resolutions_explored == 2 ** a
        monkeypatch.setattr("pargreedy.greedy.NODE_CAP", cap - 1)
        with pytest.raises(CapacityError, match="exceeded 64 nodes"):
            run_greedy(w.objective, X, g, "worst")

    def test_prefix_monotone_along_every_resolution(self):
        rng = random.Random(20)
        for _ in range(25):
            n = rng.randint(1, 5)
            f, X = random_cover_instance(rng, n)
            g = random_feasible_graph(rng, n, rng.randint(1, n))
            for out in run_greedy(f, X, g, "all"):
                running = F(0)
                for m in out.per_agent_marginal:
                    assert m >= 0
                    running += m
                assert running == out.value


class TestBruteForce:
    def test_cover_fixture(self, tie_fixture):
        f, X, _ = tie_fixture
        profile, value = brute_force_optimum(f, X)
        assert value == 2 and profile == ("a", "b2")

    def test_all_null(self):
        f = SetFunction.cover((), (), {}, {})
        X = AgentSpace([set(), set()])
        assert brute_force_optimum(f, X) == ((None, None), 0)

    def test_curvature_witness_optimum(self):
        w = curvature_witness(edgeless_graph(3), F(1, 2))
        _, value = brute_force_optimum(w.objective, w.agents)
        assert value == 3

    def test_profile_cap(self, monkeypatch):
        rng = random.Random(21)
        f, X = random_cover_instance(rng, 4)
        monkeypatch.setattr("pargreedy.greedy.PROFILE_CAP", 1)
        with pytest.raises(CapacityError):
            brute_force_optimum(f, X)

    def test_matches_oracle(self):
        rng = random.Random(22)
        for _ in range(30):
            f, X = random_cover_instance(rng, rng.randint(1, 5))
            assert brute_force_optimum(f, X) == brute_optimum(f, X)

    @settings(max_examples=150, deadline=None)
    @given(st.deferred(lambda: greedy_instances()))  # defined further down
    def test_matches_oracle_on_every_kind(self, instance):
        # covers, arbitrary tables and the tie-heavy witnesses
        f, X, _, _ = instance
        assert brute_force_optimum(f, X) == brute_optimum(f, X)

    def test_stops_at_the_first_profile_worth_f_ground(self, monkeypatch):
        # the first profile, (a1, b1), already covers both targets
        ground = ("a1", "a2", "a3", "b1", "b2", "b3")
        f = SetFunction.cover(ground, ("y1", "y2"), {"y1": 1, "y2": 1},
                              {e: ("y1",) if e < "b" else ("y2",) for e in ground})
        table = SetFunction.tabular(ground, {f.mask_subset(m): f.mask_value(m)
                                             for m in range(1 << len(ground))})
        X = AgentSpace([{"a1", "a2", "a3"}, {"b1", "b2", "b3"}])

        def evaluated(g):
            seen = []
            original = g.scaled_value
            monkeypatch.setattr(g, "scaled_value", lambda mask: seen.append(mask) or original(mask))
            assert brute_force_optimum(g, X) == (("a1", "b1"), 2)
            return seen

        # the cover evaluates f(ground), then the first profile, and stops
        assert evaluated(f) == [(1 << len(ground)) - 1, f.subset_mask(("a1", "b1"))]
        # a table holds no axioms by construction: all 9 profiles are evaluated
        assert len(evaluated(table)) == 9

    def test_a_table_is_searched_past_f_ground(self):
        # (a, c) is worth f(ground) = 1, yet (b, c) is worth 2: f is not
        # monotone, so f(ground) bounds nothing
        f = SetFunction.tabular(("a", "b", "c"), {
            (): 0, ("a",): 0, ("b",): 0, ("c",): 0, ("a", "b"): 0,
            ("a", "c"): 1, ("b", "c"): 2, ("a", "b", "c"): 1})
        X = AgentSpace([{"a", "b"}, {"c"}])
        assert brute_force_optimum(f, X) == (("b", "c"), 2) == brute_optimum(f, X)


class TestEmpiricalRatio:
    def test_half_fixture(self, tie_fixture):
        f, X, g = tie_fixture
        assert empirical_ratio(f, X, g) == F(1, 2)

    def test_singleton_decisions_ratio_one(self):
        rng = random.Random(23)
        for _ in range(10):
            n = rng.randint(1, 5)
            ground = [f"e{i}" for i in range(n)]
            targets = ("y1", "y2")
            cov = {e: tuple(t for t in targets if rng.random() < 0.7) for e in ground}
            cov[ground[0]] = ("y1",)
            f = SetFunction.cover(ground, targets, {"y1": 3, "y2": 2}, cov)
            X = AgentSpace([{e} for e in ground])
            assert empirical_ratio(f, X, complete(n)) == 1

    def test_witness_ratio(self):
        w = curvature_witness(edgeless_graph(3), F(1, 2))
        assert empirical_ratio(w.objective, w.agents, w.graph) == F(2, 3)

    def test_zero_optimum_rejected(self):
        f = SetFunction.cover(("a",), ("y",), {"y": 0}, {"a": ("y",)})
        X = AgentSpace([{"a"}])
        with pytest.raises(UndefinedRatioError):
            empirical_ratio(f, X, InformationGraph(1))

    def test_sequential_tightness(self):
        # full information: ratio >= 1/2 on every instance
        rng = random.Random(24)
        for _ in range(40):
            n = rng.randint(1, 5)
            f, X = random_cover_instance(rng, n)
            assert empirical_ratio(f, X, complete(n)) >= F(1, 2)

    def test_clique_cover_sandwich(self):
        # ratio >= 1/(theta+1) on every instance and graph
        rng = random.Random(25)
        for _ in range(40):
            n = rng.randint(1, 6)
            f, X = random_cover_instance(rng, n)
            g = random_feasible_graph(rng, n, rng.randint(1, n))
            theta = clique_cover_number(g).value
            assert empirical_ratio(f, X, g) >= F(1, theta + 1)


def _ratio_or_error(ratio, *args):
    """A ratio, or the type and message of the error it raised."""
    try:
        return ratio(*args)
    except (InputError, CapacityError) as exc:  # UndefinedRatioError is an InputError
        return type(exc), str(exc)


class TestEmpiricalRatioAgainstComposedCalls:
    """``empirical_ratio`` orders the decisions once and divides the two
    searches' scaled values; ``conftest.composed_ratio`` divides what
    ``brute_force_optimum`` and ``run_greedy`` return.  Each side builds its
    own objective, so neither reads values the other cached."""

    @settings(max_examples=150, deadline=None)
    @given(objective_instances())
    def test_drawn_instances(self, instance):
        ground, payload, X, graph, _ = instance
        make = OBJECTIVE_KINDS[payload["kind"]].from_obj
        assert (_ratio_or_error(empirical_ratio, make(ground, payload), X, graph)
                == _ratio_or_error(composed_ratio, make(ground, payload), X, graph))

    def test_witness_constructions_on_random_graphs(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(1, 6)
            g = random_feasible_graph(rng, n, rng.randint(1, n))
            lam, p = F(rng.randint(0, 4), 4), rng.randint(1, min(n, 3))
            for build, arg in ((curvature_witness, lam), (p_additive_witness, p)):
                w, again = build(g, arg), build(g, arg)
                assert (empirical_ratio(w.objective, w.agents, w.graph)
                        == composed_ratio(again.objective, again.agents, again.graph))

    @pytest.mark.parametrize("weight, vertices, cap, error", [
        (0, 2, PROFILE_CAP, UndefinedRatioError),
        (1, 3, PROFILE_CAP, InputError),
        (0, 3, PROFILE_CAP, UndefinedRatioError),  # the optimum is checked first
        (1, 3, 1, CapacityError),  # and the cap before both
    ], ids=["zero-optimum", "agents-not-vertices", "zero-optimum-first", "profile-cap"])
    def test_errors(self, monkeypatch, weight, vertices, cap, error):
        monkeypatch.setattr(greedy, "PROFILE_CAP", cap)

        def make():
            return SetFunction.cover(("a", "b", "c"), ("y",), {"y": weight},
                                     {"a": ("y",), "b": ("y",), "c": ()})
        X = AgentSpace([{"a", "c"}, {"b"}])
        got = _ratio_or_error(empirical_ratio, make(), X, InformationGraph(vertices))
        assert got == _ratio_or_error(composed_ratio, make(), X, InformationGraph(vertices))
        assert got[0] is error


class TestParallelDifferential:
    def test_same_outcomes_on_induced_graph(self):
        rng = random.Random(26)
        policies = ("first", "last", "worst", "best", "all")
        for k in range(60):
            n = rng.randint(1, 5)
            f, X = random_cover_instance(rng, n)
            P = random_assignment(rng, n, rng.randint(1, n))
            g = induced_graph(P)
            policy = policies[k % len(policies)]
            assert run_greedy(f, X, g, policy) == run_parallel_greedy(f, X, P, policy)

    def test_tie_fixture_parallel(self, tie_fixture):
        f, X, _ = tie_fixture
        P = IterationAssignment(2, (1, 2))
        out = run_parallel_greedy(f, X, P, "worst")
        assert out.value == 1 and out.schedule.depth == 2

    def test_invalid_assignment_rejected(self, tie_fixture):
        f, X, _ = tie_fixture
        with pytest.raises(InputError, match="order"):
            run_parallel_greedy(f, X, IterationAssignment(2, (2, 1)), "worst")


@st.composite
def greedy_instances(draw):
    """(f, agents, graph, assignment) on at most 6 agents: a random cover, a
    small-integer tabular table (not normalized, so f(empty) may be
    nonzero), or a curvature or p-additive witness; the graph and the
    assignment are drawn independently of each other."""
    kind = draw(st.sampled_from(("cover", "tabular", "curvature", "p-additive")))
    n = draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    graph = random_feasible_graph(rng, n, rng.randint(1, n))
    if kind == "cover":
        f, X = random_cover_instance(rng, n)
    elif kind == "tabular":
        owner = [rng.randrange(n) for _ in range(rng.randint(0, 7))]
        ground = tuple(f"e{k}" for k in range(len(owner)))
        f = SetFunction.tabular(ground, {c: rng.randint(0, 3) for r in range(len(ground) + 1)
                                         for c in combinations(ground, r)})
        X = AgentSpace([{e for e, o in zip(ground, owner) if o == i} for i in range(n)])
    elif kind == "curvature":
        lam = draw(st.sampled_from((F(0), F(1, 3), F(1, 2), F(1))))
        w = curvature_witness(graph, lam)
        f, X = w.objective, w.agents
    else:
        w = p_additive_witness(graph, draw(st.integers(1, min(3, n))))
        f, X = w.objective, w.agents
    return f, X, graph, random_assignment(rng, n, rng.randint(1, n))


@st.composite
def pruned_instances(draw):
    """(f, agents, graph, assignment) of a kind that holds its axioms by
    construction, with more than ``PRUNE_PROFILES`` profiles: a cover of
    eight agents with two or three decisions each and small weights, so
    that gains tie, or a curvature or p-additive witness with 8-9 tied
    members, a p-additive one with or without a sibling last.  Null agents
    sit anywhere; the graph's density and the assignment are drawn."""
    kind = draw(st.sampled_from(("cover", "curvature", "p-additive")))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "cover":
        counts = [2] * 8
        for i in rng.sample(range(8), rng.randint(0, 2)):
            counts[i] = 3
        targets = [f"y{t}" for t in range(rng.randint(2, 5))]
        owned = [[f"e{i}_{k}" for k in range(c)] for i, c in enumerate(counts)]
        ground = [e for own in owned for e in own]
        f = SetFunction.cover(ground, targets, {t: rng.randint(1, 3) for t in targets},
                              {e: [t for t in targets if rng.random() < 0.4] for e in ground})
        decisions = [set(own) for own in owned]
    else:
        a = rng.randint(8, 9)
        u, v = [f"u{k}" for k in range(a + 1)], [f"v{k}" for k in range(a)]
        decisions = [{uk, vk} for uk, vk in zip(u, v)]
        if kind == "curvature":
            lam = draw(st.sampled_from((F(0), F(1, 3), F(1, 2), F(1))))
            f = SetFunction.curvature_witness(u[:a], v, lam)
        elif rng.random() < 0.5:
            f = SetFunction.p_additive_witness(u + v + ["t"], u, v, rng.randint(1, 3))
            decisions.append({u[a], "t"})
        else:
            f = SetFunction.p_additive_witness(u[:a] + v, u[:a], v, rng.randint(1, 3))
    for _ in range(rng.randint(0, 2)):
        decisions.insert(rng.randint(0, len(decisions)), set())
    n = len(decisions)
    density = rng.choice((0.0, 0.25, 0.6))
    graph = InformationGraph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                                 if rng.random() < density])
    return f, AgentSpace(decisions), graph, random_assignment(rng, n, rng.randint(1, n))


def _graph_inputs(f, X, graph):
    """(decisions, sources, schedule) of run_greedy on the graph."""
    return (_ordered_decisions(f, X),
            [[j for j in range(i) if graph.has_edge(j + 1, i + 1)] for i in range(graph.n)],
            earliest_schedule(graph))


def _greedy_inputs(f, X, graph, assignment):
    """(run, structure, decisions, sources, schedule) for run_greedy on the
    graph and run_parallel_greedy on the assignment."""
    n = graph.n
    P = assignment.P
    decisions = _ordered_decisions(f, X)
    return [
        (run_greedy, graph, *_graph_inputs(f, X, graph)),
        (run_parallel_greedy, assignment, decisions,
         [[j for j in range(n) if P[j] < P[i]] for i in range(n)],
         Schedule(normalize_assignment(assignment).P)),
    ]


def assert_matches_oracle(f, X, graph, assignment):
    for run, structure, _, sources, schedule in _greedy_inputs(f, X, graph, assignment):
        for policy in POLICIES:
            assert run(f, X, structure, policy) == brute_greedy(f, X, sources, policy, schedule)


def wide_witness_cases():
    """(id, f, agents, graph, assignment, a): seeded tie-heavy trees
    shaped like the benchmark's ``run`` ops.  A curvature witness has 8-10
    members, pairwise unseen, after 0-3 null agents; a p-additive witness
    (p = 2, 3) has members that each see at most p - 1 earlier members and a
    sibling last that sees at least p of them.  In the assignment the null
    agents come first, and a member sees at most p - 1 members too (none in
    the curvature witness), so every member ties in both runs."""
    rng = random.Random(18)
    cases = []
    for a, nulls in ((8, 0), (9, 2), (10, 3)):
        n = nulls + a
        edges = [(i, j) for i in range(1, nulls + 1) for j in range(i + 1, n + 1)
                 if rng.random() < 0.5]
        u, v = [f"u{k}" for k in range(a)], [f"v{k}" for k in range(a)]
        f = SetFunction.curvature_witness(u, v, F(rng.randint(1, 4), 4))
        X = AgentSpace([set()] * nulls + [{uk, vk} for uk, vk in zip(u, v)])
        P = tuple(sorted(rng.randint(1, 2) for _ in range(nulls))) + (3,) * a
        cases.append((f"curvature-{a}-after-{nulls}", f, X, InformationGraph(n, edges),
                      IterationAssignment(3, P), a))
    for a, p, nulls in ((8, 2, 1), (8, 3, 2)):
        n = nulls + a + 1
        members = list(range(nulls + 1, nulls + a + 1))
        edges = {(i, j) for i in range(1, nulls + 1) for j in range(i + 1, n + 1)
                 if rng.random() < 0.5}
        for k, m in enumerate(members):
            edges.update((j, m) for j in rng.sample(members[:k], min(k, rng.randint(0, p - 1))))
        edges.update((m, n) for m in rng.sample(members, p + 1))
        u, v = [f"u{k}" for k in range(a + 1)], [f"v{k}" for k in range(a)]
        f = SetFunction.p_additive_witness(u + v + ["t"], u, v, p)
        X = AgentSpace([set()] * nulls + [{uk, vk} for uk, vk in zip(u, v)] + [{u[a], "t"}])
        P = (tuple(sorted(rng.randint(1, 2) for _ in range(nulls)))
             + (3,) * (p - 1) + (4,) * (a - p + 1) + (5,))
        cases.append((f"p-additive-{a}-p{p}-after-{nulls}", f, X, InformationGraph(n, edges),
                      IterationAssignment(5, P), a))
    return cases


class TestTieTreeOracle:
    """The engine against the recursive walk of ``conftest.brute_greedy``."""

    @settings(max_examples=120, deadline=None)
    @given(greedy_instances())
    def test_engine_matches_recursive_walk(self, instance):
        assert_matches_oracle(*instance)

    def test_tie_set_depends_on_the_branch(self):
        # agent 2 sees agent 1, whose tie between a and b decides which of
        # c and d is agent 2's only best choice
        f = SetFunction.cover(
            ("a", "b", "c", "d"), ("y1", "y2"), {"y1": 1, "y2": 1},
            {"a": ("y1",), "b": ("y2",), "c": ("y1",), "d": ("y2",)})
        X = AgentSpace([{"a", "b"}, {"c", "d"}])
        g = InformationGraph(2, [(1, 2)])
        assert_matches_oracle(f, X, g, IterationAssignment(2, (1, 2)))
        outs = run_greedy(f, X, g, "all")
        assert [o.profile for o in outs] == [("a", "d"), ("b", "c")]
        assert all(o.value == 2 for o in outs)

    @pytest.mark.parametrize("case", wide_witness_cases(), ids=lambda case: case[0])
    def test_wide_witness_trees(self, case):
        _, f, X, graph, assignment, a = case
        # every member ties; the sibling may tie too
        assert run_greedy(f, X, graph, "worst").resolutions_explored >= 2 ** a
        assert_matches_oracle(f, X, graph, assignment)


def _outcome_or_error(run, *args):
    try:
        return run(*args)
    except CapacityError as exc:
        return str(exc)


def _gated(run, f, X, structure, policy, prune=PRUNE_PROFILES, cap=NODE_CAP):
    """A driver's outcome, or its CapacityError message, with
    ``greedy.PRUNE_PROFILES`` and ``greedy.NODE_CAP`` patched: a gate of
    ``PROFILE_CAP`` keeps every level whole, a gate of 0 merges the levels
    of every ``worst`` run on an objective that holds its axioms by
    construction."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(greedy, "PRUNE_PROFILES", prune)
        mp.setattr(greedy, "NODE_CAP", cap)
        return _outcome_or_error(run, f, X, structure, policy)


def _traced(f, search):
    """The masks one search passes to ``f.scaled_value``, in call order,
    and the number of ``_evaluate`` calls (cache misses) it makes."""
    calls, misses = [], []
    scaled, evaluate = f.scaled_value, f._evaluate

    def call(mask):
        calls.append(mask)
        return scaled(mask)

    def miss(mask):
        misses.append(mask)
        return evaluate(mask)

    f.scaled_value, f._evaluate = call, miss
    try:
        search(f)
    finally:
        del f.scaled_value, f._evaluate
    return calls, len(misses)


class TestLevelBuild:
    """The one forward pass, levels kept whole or merged, against the
    depth-first stack walk it replaced (``conftest.stack_greedy_engine``):
    the same outcomes, the same node count, the same cap, the same
    evaluations, and no level over the cap held."""

    @settings(max_examples=60, deadline=None)
    @given(greedy_instances())
    def test_node_cap_matches_the_stack_walk(self, instance):
        f, X, graph, assignment = instance
        for run, structure, decisions, sources, schedule in _greedy_inputs(*instance):
            for policy in POLICIES:
                expected, total = stack_greedy_engine(f, decisions, sources, policy, schedule,
                                                      float("inf"))
                assert run(f, X, structure, policy) == expected
                for cap in (total - 1, total, total + 1):
                    oracle = _outcome_or_error(stack_greedy_engine, f, decisions, sources,
                                               policy, schedule, cap)
                    for prune in (0, PROFILE_CAP):
                        got = _gated(run, f, X, structure, policy, prune, cap)
                        assert got == (oracle if isinstance(oracle, str) else oracle[0])
                        assert isinstance(got, str) == (cap < total)

    def test_an_over_cap_level_is_never_built(self):
        # ten agents each tied between two elements of one target: 2^10
        # unions; then one agent tied among 2,000 elements that cover
        # nothing, a level of 2,048,000 nodes, over the default cap
        pairs = [(f"a{k}", f"b{k}") for k in range(10)]
        zeros = [f"z{k}" for k in range(2000)]
        coverage = {e: (f"y{k}",) for k, pair in enumerate(pairs) for e in pair}
        coverage.update((z, ()) for z in zeros)
        f = SetFunction.cover(list(coverage), [f"y{k}" for k in range(10)],
                              {f"y{k}": 1 for k in range(10)}, coverage)
        X = AgentSpace([set(pair) for pair in pairs] + [set(zeros)])
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=f"exceeded {NODE_CAP} nodes"):
                run_greedy(f, X, InformationGraph(11), "worst")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 ** 20

    def test_a_lone_decision_is_its_own_tie_unevaluated(self):
        def value(mask):
            raise AssertionError(f"evaluated {mask}")

        assert _ties(value, [("a", 4)], {0, 1, 3}) == {0: [4], 1: [4], 3: [4]}

    @staticmethod
    def _counted():
        """(scaled_value calls, _evaluate misses) of one worst-policy
        ``run_greedy`` on each of three instances."""
        rng = random.Random(34)
        f, X = random_cover_instance(rng, 10, max_ground=16)
        cases = [(f, X, random_feasible_graph(rng, 10, 4))]
        for w in (curvature_witness(edgeless_graph(8), F(1, 3)),
                  p_additive_witness(star_graph(6), 2)):
            cases.append((w.objective, w.agents, w.graph))
        counted = []
        for f, X, graph in cases:
            calls, misses = _traced(f, lambda g: run_greedy(g, X, graph, "worst"))
            counted.append((len(calls), misses))
        return counted

    def test_evaluations_are_pinned(self, monkeypatch):
        # scaled_value calls and _evaluate misses of the stack walk, with
        # every level kept whole; the pass must not evaluate more
        monkeypatch.setattr(greedy, "PRUNE_PROFILES", PROFILE_CAP)
        assert self._counted() == [(113, 111), (281, 279), (269, 146)]

    def test_run_greedy_evaluates_no_more_than_the_level_build(self):
        # the cover (64 profiles) and the p-additive witness (128) keep
        # their levels whole; the curvature witness (256) merges them and
        # takes the branch-and-bound, whose last-marginal floor prunes it
        assert self._counted() == [(113, 111), (53, 50), (269, 146)]


class TestPrunedSearches:
    """The merged ``worst`` pass and the pruned optimum, which an objective
    that holds its axioms by construction takes above ``PRUNE_PROFILES``
    profiles, against the stack walk, the whole levels and the flat loop
    that every other input keeps."""

    @settings(max_examples=60, deadline=None)
    @given(pruned_instances())
    def test_worst_matches_the_level_build_at_every_node_cap(self, instance):
        f, X, _, _ = instance
        assert f.axioms_by_construction
        assert _profile_count(_ordered_decisions(f, X)) > PRUNE_PROFILES
        for run, structure, decisions, sources, schedule in _greedy_inputs(*instance):
            expected, total = stack_greedy_engine(f, decisions, sources, "worst", schedule,
                                                  float("inf"))
            assert run(f, X, structure, "worst") == expected
            for cap in (total - 1, total, total + 1):
                got = _gated(run, f, X, structure, "worst", cap=cap)
                assert got == _gated(run, f, X, structure, "worst", PROFILE_CAP, cap)
                assert isinstance(got, str) == (cap < total)

    @settings(max_examples=60, deadline=None)
    @given(pruned_instances())
    def test_optimum_matches_the_oracle(self, instance):
        f, X, _, _ = instance
        decisions = _ordered_decisions(f, X)
        ceiling = f.scaled_value((1 << len(f.ground)) - 1)
        assert (_pruned_optimum(f.scaled_value, decisions, ceiling)
                == _flat_optimum(f.scaled_value, decisions, ceiling))
        assert brute_force_optimum(f, X) == brute_optimum(f, X)

    def test_a_table_never_takes_a_pruned_path(self, monkeypatch):
        # one monotone submodular function as a cover and as a table, with
        # 3^4 * 2 = 162 profiles, every agent tied among options that each
        # cover one target of weight 1: only the cover prunes
        owned = [[f"e{i}_{k}" for k in range(3 if i < 4 else 2)] for i in range(5)]
        ground = [e for own in owned for e in own]
        f = SetFunction.cover(ground, ("y0", "y1", "y2"), dict.fromkeys(("y0", "y1", "y2"), 1),
                              {e: (f"y{k}",) for own in owned for k, e in enumerate(own)})
        table = SetFunction.tabular(ground, {f.mask_subset(m): f.mask_value(m)
                                             for m in range(1 << len(ground))})
        assert check_properties(table).all_hold
        X = AgentSpace([set(own) for own in owned])
        graph, assignment = InformationGraph(5, [(1, 5)]), IterationAssignment(2, (1,) * 4 + (2,))
        assert _profile_count(_ordered_decisions(table, X)) > PRUNE_PROFILES
        worst = (lambda g: run_greedy(g, X, graph, "worst"),
                 lambda g: run_parallel_greedy(g, X, assignment, "worst"))
        for search in worst:
            # the unions that only the branch-and-bound evaluates: the
            # cover's run against the same run with its levels kept whole
            calls, _ = _traced(f, search)
            with monkeypatch.context() as mp:
                mp.setattr(greedy, "PRUNE_PROFILES", PROFILE_CAP)
                whole, _ = _traced(f, search)
            pruned_only = set(calls) - set(whole)
            assert pruned_only
            assert not pruned_only & set(_traced(table, search)[0])
            assert search(table) == search(f)

        optimum = brute_force_optimum(table, X)

        def refuse(*args):
            raise AssertionError("pruned path taken")

        monkeypatch.setattr(greedy, "_pruned_optimum", refuse)
        assert brute_force_optimum(table, X) == optimum
        with pytest.raises(AssertionError, match="pruned path taken"):
            brute_force_optimum(f, X)


def floor_witness(kind, seed):
    """A witness whose two searches both floors work on.  ``curvature``: a
    random lambda on a random graph of 9-12 agents, at least 8 of them
    pairwise unseen.  ``p-additive`` (p = 2, 3): 9-12 agents that each see
    at most p - 1 earlier agents, so all are members; ``p-additive-sibling``
    adds a last agent that sees at least p of them.  Every member ties, so
    many profiles tie at the optimum, and there are more than
    ``PRUNE_PROFILES`` profiles."""
    rng = random.Random(seed)
    n = rng.randint(9, 12)
    if kind == "curvature":
        members = set(rng.sample(range(1, n + 1), rng.randint(8, n)))
        density = rng.uniform(0.1, 0.7)
        edges = [(i, j) for i, j in combinations(range(1, n + 1), 2)
                 if not {i, j} <= members and rng.random() < density]
        den = rng.randint(1, 9)
        return curvature_witness(InformationGraph(n, edges), F(rng.randint(0, den), den))
    p, a = rng.randint(2, 3), n - (kind == "p-additive-sibling")
    edges = {(j, m) for m in range(2, a + 1)
             for j in rng.sample(range(1, m), min(m - 1, rng.randint(0, p - 1)))}
    edges |= {(j, n) for j in rng.sample(range(1, a + 1), rng.randint(p, a))} if a < n else set()
    return p_additive_witness(InformationGraph(n, sorted(edges)), p)


class TestSearchFloors:
    """The last-marginal floor of the merged ``worst`` search and the
    sequential-greedy floor of the pruned optimum, on the two witness
    families: the first minimal leaf against the stack walk
    (``conftest.stack_greedy_engine``), the first maximizing profile
    against the flat loop."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(("curvature", "p-additive", "p-additive-sibling")),
           st.integers(0, 2 ** 32 - 1))
    def test_witness_searches_match_the_oracles(self, kind, seed):
        w = floor_witness(kind, seed)
        f, X, graph = w.objective, w.agents, w.graph
        assert w.params.get("sibling", False) == (kind == "p-additive-sibling")
        decisions = _ordered_decisions(f, X)
        assert _profile_count(decisions) > PRUNE_PROFILES
        rng = random.Random(seed)
        assignment = random_assignment(rng, graph.n, rng.randint(1, graph.n))
        for run, structure, _, sources, schedule in _greedy_inputs(f, X, graph, assignment):
            expected, _ = stack_greedy_engine(f, decisions, sources, "worst", schedule,
                                              float("inf"))
            (leaf,), paths = greedy._greedy_engine(f, decisions, sources, "worst")
            assert leaf == sum(m for opts in decisions for e, m in opts if e in expected.profile)
            assert paths == expected.resolutions_explored
            assert run(f, X, structure, "worst") == expected
        ceiling = f.scaled_value((1 << len(f.ground)) - 1)
        value, union = _flat_optimum(f.scaled_value, decisions, ceiling)
        assert _pruned_optimum(f.scaled_value, decisions, ceiling) == (value, union)
        assert brute_force_optimum(f, X) == (
            tuple(next((e for e, m in opts if union & m), None) for opts in decisions),
            F(value, f.scale))

    def test_brute_force_optimum_evaluations_are_pinned(self):
        # scaled_value calls and _evaluate misses on the curvature witness
        # of TestLevelBuild (256 profiles), which takes the pruned optimum
        w = curvature_witness(edgeless_graph(8), F(1, 3))
        calls, misses = _traced(w.objective, lambda g: brute_force_optimum(g, w.agents))
        assert (len(calls), misses) == (165, 142)

    def test_a_node_worth_the_best_leaf_is_pruned(self):
        # scaled_value calls and _evaluate misses of worst on a seeded cover
        # of 12 agents with 256 profiles: a node u with f(u) equal to the
        # best leaf so far has no leaf below it that is strictly smaller
        rng = random.Random(33)
        f, X = random_cover_instance(rng, 12, max_ground=24)
        graph = random_feasible_graph(rng, 12, 4)
        assert _profile_count(_ordered_decisions(f, X)) == 256
        calls, misses = _traced(f, lambda g: run_greedy(g, X, graph, "worst"))
        assert (len(calls), misses) == (36, 33)


def _drivers(f, X, graph, assignment):
    """Every policy through both drivers, then the brute-force optimum."""
    runs = [run(f, X, structure, policy) for run, structure in
            ((run_greedy, graph), (run_parallel_greedy, assignment)) for policy in POLICIES]
    return runs + [brute_force_optimum(f, X)]


class TestAgainstFractionOracle:
    """The engine and the brute force add and compare scaled integers; the
    same searches over ``FractionOracle`` (the kinds' Fraction formulas at
    scale 1) must return the same outcomes."""

    @settings(max_examples=150, deadline=None)
    @given(objective_instances())
    def test_every_policy_both_drivers_and_the_optimum(self, instance):
        ground, payload, X, graph, assignment = instance
        f = OBJECTIVE_KINDS[payload["kind"]].from_obj(ground, payload)
        oracle = FractionOracle(ground, payload)
        assert _drivers(f, X, graph, assignment) == _drivers(oracle, X, graph, assignment)
        assert brute_force_optimum(f, X) == brute_optimum(oracle, X)

    def test_searches_never_build_a_mask_value(self, monkeypatch):
        # one instance of each kind, the table over the denominator cap too
        ground = tuple(f"e{i}" for i in range(6))
        thirds = {",".join(e for i, e in enumerate(ground) if m >> i & 1): f"{m.bit_count()}/3"
                  for m in range(1 << 6)}
        payloads = [
            {"kind": "tabular", "values": thirds},
            {"kind": "tabular", "values": blow_up_values(ground, 2)},
            {"kind": "cover", "targets": ["y1", "y2"], "weights": {"y1": "1/2", "y2": "2/3"},
             "coverage": {"e0": ["y1"], "e1": ["y1", "y2"], "e2": ["y2"], "e3": ["y2"],
                          "e4": [], "e5": ["y1"]}},
            {"kind": "curvature-witness", "u": list(ground[:3]), "v": list(ground[3:]),
             "lambda": "2/5"},
            {"kind": "p-additive-witness", "u": list(ground[:3]), "v": list(ground[3:5]),
             "p": 2},
        ]
        X = AgentSpace([{"e0", "e3"}, {"e1", "e4"}, {"e2", "e5"}])
        graph = InformationGraph(3, [(1, 3)])
        assignment = IterationAssignment(2, (1, 1, 2))
        cases = []
        for payload in payloads:
            f = OBJECTIVE_KINDS[payload["kind"]].from_obj(ground, payload)
            oracle = FractionOracle(ground, payload)
            cases.append((f, _drivers(oracle, X, graph, assignment) + [total_curvature(oracle)]))
        assert [f.scale for f, _ in cases] == [3, 1, 6, 5, 2]

        def refuse(f, mask):
            raise AssertionError("mask_value called inside a search")

        monkeypatch.setattr(SetFunction, "mask_value", refuse)
        for f, expected in cases:
            assert _drivers(f, X, graph, assignment) + [total_curvature(f)] == expected


FRESH_PROCESS_PROBE = textwrap.dedent("""
    import random, sys
    from pargreedy import (AgentSpace, InformationGraph, IterationAssignment, SetFunction,
                           brute_force_optimum, clique_cover_number, clique_number,
                           has_p_sibling, has_sibling_condition, independence_number,
                           maximum_independent_sets, maximum_pseudo_independent_sets,
                           pseudo_independence_number, run_greedy, run_parallel_greedy,
                           verify_no_disjoint_max_sets)

    limit = sys.getrecursionlimit()
    ground = tuple(f"e{i}" for i in range(1500))
    f = SetFunction.cover(ground, ("y",), {"y": 1}, {e: ("y",) for e in ground})
    X = AgentSpace([{e} for e in ground])
    assert brute_force_optimum(f, X) == (ground, 1)
    one_round = IterationAssignment(1, (1,) * 1500)
    for policy in ("first", "worst"):
        assert run_greedy(f, X, InformationGraph(1500), policy).value == 1
        assert run_parallel_greedy(f, X, one_round, policy).value == 1

    rng = random.Random(5)
    g = InformationGraph(20, [(i, j) for i in range(1, 21) for j in range(i + 1, 21)
                              if rng.random() < 0.5])
    for invariant in (independence_number, clique_number, clique_cover_number,
                      maximum_independent_sets, has_sibling_condition):
        invariant(g)
    for invariant in (pseudo_independence_number, maximum_pseudo_independent_sets,
                      has_p_sibling, verify_no_disjoint_max_sets):
        invariant(g, 2)
    assert sys.getrecursionlimit() == limit, (limit, sys.getrecursionlimit())
""")


def test_fresh_process_keeps_recursion_limit_and_enumerates_many_agents():
    # a fresh interpreter: the probe must not depend on what an earlier
    # test did to this process
    src = os.path.dirname(os.path.dirname(pargreedy.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", FRESH_PROCESS_PROBE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
