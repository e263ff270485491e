"""Witness generators: exact ratio attainment and construction properties."""

from fractions import Fraction
from itertools import combinations

import pytest

from pargreedy import (
    InformationGraph,
    InputError,
    complement_turan_graph,
    curvature_witness,
    empirical_ratio,
    p_additive_witness,
    sequential_half_witness,
    total_curvature,
)
from pargreedy.suites import edgeless_graph, star_graph

from conftest import three_pass_properties

F = Fraction

LAMBDA_GRID = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))


class TestCurvatureWitness:
    def test_predicted_formula(self):
        w = curvature_witness(edgeless_graph(3), F(1, 2))
        assert w.predicted_ratio == F(2, 3)
        assert w.params["alpha"] == 3

    def test_a_graph_with_no_vertices_is_refused(self):
        # the predicted ratio divides by alpha = 0
        with pytest.raises(InputError) as exc:
            curvature_witness(InformationGraph(0), F(1, 2))
        assert str(exc.value) == (
            "graph: construction needs alpha(G) >= 1, got a graph with no vertices")

    def test_lambda_zero_modular(self):
        w = curvature_witness(edgeless_graph(3), 0)
        assert w.predicted_ratio == 1
        assert total_curvature(w.objective) == 0

    def test_lambda_one_hits_independence_bound(self):
        w = curvature_witness(edgeless_graph(4), 1)
        assert w.predicted_ratio == F(1, 4)
        assert empirical_ratio(w.objective, w.agents, w.graph) == F(1, 4)

    @pytest.mark.parametrize("alpha", (1, 2, 3, 4))
    @pytest.mark.parametrize("lam", LAMBDA_GRID)
    def test_ratio_attained_exactly(self, alpha, lam):
        w = curvature_witness(edgeless_graph(alpha), lam)
        expected = (alpha - (alpha - 1) * lam) / F(alpha)
        assert w.predicted_ratio == expected
        assert empirical_ratio(w.objective, w.agents, w.graph) == expected

    @pytest.mark.parametrize("alpha", (2, 3, 4))
    @pytest.mark.parametrize("lam", LAMBDA_GRID)
    def test_curvature_equals_parameter(self, alpha, lam):
        w = curvature_witness(edgeless_graph(alpha), lam)
        assert total_curvature(w.objective) == lam == w.params["curvature"]

    def test_single_member_set_is_modular(self):
        # with one u the blocks never interact, so curvature is 0, not lam
        w = curvature_witness(edgeless_graph(1), F(1, 2))
        assert total_curvature(w.objective) == 0 == w.params["curvature"]
        assert w.predicted_ratio == 1
        assert empirical_ratio(w.objective, w.agents, w.graph) == 1

    @pytest.mark.parametrize("lam", LAMBDA_GRID)
    def test_axioms_hold(self, lam):
        w = curvature_witness(edgeless_graph(3), lam)
        assert three_pass_properties(w.objective).all_hold

    def test_on_nontrivial_graph(self):
        g = complement_turan_graph(5, 2)  # alpha = 2
        w = curvature_witness(g, F(1, 2))
        assert w.predicted_ratio == F(3, 4)
        assert empirical_ratio(w.objective, w.agents, w.graph) == F(3, 4)
        # non-members hold null decisions but still occupy agent slots
        assert w.agents.n == 5
        assert sum(1 for d in w.agents.decisions if d) == 2

    def test_indifference(self):
        # members of the independent set see no other member, so both options
        # carry the full standalone value in every reachable context
        w = curvature_witness(complement_turan_graph(5, 2), F(1, 3))
        members = w.params["independent_set"]
        for agent in members:
            u, v = sorted(w.agents.decisions[agent - 1])
            ctx = [j for j in w.graph.in_neighbors(agent)]
            assert all(not w.agents.decisions[j - 1] or j not in members for j in ctx)
            assert w.objective.marginal((u,), ()) == w.objective.marginal((v,), ())

    def test_lambda_out_of_range(self):
        with pytest.raises(InputError, match="lambda"):
            curvature_witness(edgeless_graph(2), F(3, 2))


class TestPAdditiveWitness:
    def test_p1_matches_lambda_one_family(self):
        w1 = p_additive_witness(edgeless_graph(3), 1)
        w2 = curvature_witness(edgeless_graph(3), 1)
        assert w1.predicted_ratio == w2.predicted_ratio == F(1, 3)
        assert empirical_ratio(w1.objective, w1.agents, w1.graph) == F(1, 3)

    def test_star_with_sibling(self):
        w = p_additive_witness(star_graph(4), 2)
        assert w.params["sibling"] is True and w.params["alpha_p"] == 4
        assert w.predicted_ratio == F(2, 5)
        assert empirical_ratio(w.objective, w.agents, w.graph) == F(2, 5)

    def test_edgeless_without_sibling(self):
        w = p_additive_witness(edgeless_graph(4), 2)
        assert w.params["sibling"] is False
        assert w.predicted_ratio == F(1, 2)
        assert empirical_ratio(w.objective, w.agents, w.graph) == F(1, 2)

    @pytest.mark.parametrize("a,p", [(a, p) for p in (1, 2, 3) for a in range(p, 6)])
    def test_grid_exact(self, a, p):
        w = p_additive_witness(star_graph(a), p)
        assert empirical_ratio(w.objective, w.agents, w.graph) == w.predicted_ratio == F(p, a + 1)
        w = p_additive_witness(edgeless_graph(a), p)
        assert empirical_ratio(w.objective, w.agents, w.graph) == w.predicted_ratio == F(p, a)

    @pytest.mark.parametrize("a,p", [(3, 2), (4, 3)])
    def test_p_additivity_on_all_p_subsets(self, a, p):
        w = p_additive_witness(star_graph(a), p)
        f = w.objective
        for subset in combinations(f.ground, p):
            assert f.value(subset) == sum((f.singleton(e) for e in subset), F(0))

    def test_axioms_hold(self):
        for g, p in ((star_graph(3), 2), (edgeless_graph(4), 2), (star_graph(5), 3)):
            w = p_additive_witness(g, p)
            assert three_pass_properties(w.objective).all_hold

    def test_p_above_alpha_rejected(self):
        with pytest.raises(InputError, match="alpha_p"):
            p_additive_witness(edgeless_graph(2), 3)

    def test_padding_decision_is_worthless(self):
        w = p_additive_witness(star_graph(3), 2)
        f = w.objective
        assert f.singleton("t") == 0
        assert f.marginal(("t",), [e for e in f.ground if e != "t"]) == 0


class TestSequentialHalfWitness:
    def test_ratio(self):
        w = sequential_half_witness()
        assert w.predicted_ratio == F(1, 2)
        assert empirical_ratio(w.objective, w.agents, w.graph) == F(1, 2)

    def test_axioms(self):
        assert three_pass_properties(sequential_half_witness().objective).all_hold

    def test_curvature_is_one(self):
        assert total_curvature(sequential_half_witness().objective) == 1

    def test_graph_is_complete(self):
        w = sequential_half_witness()
        assert w.graph == InformationGraph(2, [(1, 2)])
