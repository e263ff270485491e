"""File formats: round trips and rejection of malformed documents."""

import copy
import json
import pickle
from fractions import Fraction

import pytest

from pargreedy import (
    AgentSpace,
    InformationGraph,
    InputError,
    IterationAssignment,
    SetFunction,
    curvature_witness,
    p_additive_witness,
    sequential_half_witness,
)
from pargreedy.adversarial import WitnessInstance
from pargreedy.objective import OBJECTIVE_KINDS
from pargreedy.serialize import (
    assignment_from_obj,
    assignment_to_obj,
    graph_from_obj,
    graph_to_obj,
    instance_from_obj,
    instance_to_obj,
    load_assignment,
    load_graph,
    load_instance,
    load_witness,
    save_assignment,
    save_graph,
    save_instance,
    save_witness,
    witness_from_obj,
    witness_to_obj,
)
from pargreedy.suites import edgeless_graph, star_graph

F = Fraction


class TestGraphFormat:
    def test_round_trip(self):
        g = InformationGraph(3, [(1, 2)])
        assert graph_from_obj(graph_to_obj(g)) == g

    def test_example_document(self):
        g = graph_from_obj({"n": 3, "edges": [[1, 2]]})
        assert g.n == 3 and g.edges == frozenset({(1, 2)})

    def test_missing_field(self):
        with pytest.raises(InputError, match="graph.edges"):
            graph_from_obj({"n": 3})

    def test_vertex_out_of_range(self):
        with pytest.raises(InputError, match="edges"):
            graph_from_obj({"n": 3, "edges": [[1, 4]]})

    def test_file_round_trip(self, tmp_path):
        g = InformationGraph(5, [(1, 3), (2, 5)])
        path = tmp_path / "g.json"
        save_graph(g, path)
        assert load_graph(path) == g

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="not found"):
            load_graph(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(InputError, match="line"):
            load_graph(path)


class TestAssignmentFormat:
    def test_round_trip(self):
        a = IterationAssignment(2, (1, 1, 2, 2, 2))
        assert assignment_from_obj(assignment_to_obj(a)) == a

    def test_order_violation_named(self):
        with pytest.raises(InputError, match="order preservation"):
            assignment_from_obj({"q": 2, "P": [2, 1]})

    def test_range_violation(self):
        with pytest.raises(InputError, match="outside"):
            assignment_from_obj({"q": 2, "P": [1, 3]})

    def test_file_round_trip(self, tmp_path):
        a = IterationAssignment(3, (1, 1, 2, 3, 3))
        path = tmp_path / "p.json"
        save_assignment(a, path)
        assert load_assignment(path) == a

    def test_boolean_iteration_at_load(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"q": 2, "P": [true, 2]}')
        with pytest.raises(InputError, match=r"^assignment\.P: iterations must be integers$"):
            load_assignment(path)

    @pytest.mark.parametrize("P, message", [
        ((True, 2), r"^assignment\.P: iterations must be integers$"),
        ((2, 1), r"^assignment\.P: order preservation violated"),
    ], ids=["boolean", "order"])
    def test_save_refuses_what_load_rejects(self, tmp_path, P, message):
        path = tmp_path / "p.json"
        with pytest.raises(InputError, match=message):
            save_assignment(IterationAssignment(2, P), path)
        assert not path.exists()


class TestInstanceFormat:
    def test_cover_round_trip(self, cover_fixture):
        agents = AgentSpace([{"a"}, {"b"}])
        f2, agents2 = instance_from_obj(instance_to_obj(cover_fixture, agents))
        assert agents2 == agents
        assert f2.kind == "cover"
        for subset in ((), ("a",), ("b",), ("a", "b")):
            assert f2.value(subset) == cover_fixture.value(subset)

    def test_tabular_round_trip(self):
        f = SetFunction.tabular(
            ("a", "b"), {(): 0, ("a",): "1/3", ("b",): 1, ("a", "b"): 2})
        agents = AgentSpace([{"a", "b"}])
        f2, _ = instance_from_obj(instance_to_obj(f, agents))
        assert f2.value(("a",)) == F(1, 3)
        assert f2.value(("a", "b")) == 2

    @pytest.mark.parametrize("f, agents, objective", [
        (SetFunction.tabular(("a", "b"), {(): 0, ("a",): "1/3", ("b",): 1, ("a", "b"): "4/3"}),
         [["a", "b"]],
         {"kind": "tabular", "values": {"": "0", "a": "1/3", "b": "1", "a,b": "4/3"}}),
        (SetFunction.cover(("a", "b"), ("y", "z"), {"y": "1/2", "z": 2},
                           {"a": ("y",), "b": ("y", "z")}),
         [["a"], ["b"]],
         {"kind": "cover", "targets": ["y", "z"], "weights": {"y": "1/2", "z": "2"},
          "coverage": {"a": ["y"], "b": ["y", "z"]}}),
        (SetFunction.curvature_witness(("u1", "u2"), ("v1",), F(1, 3)),
         [["u1", "v1"], ["u2"]],
         {"kind": "curvature-witness", "lambda": "1/3", "u": ["u1", "u2"], "v": ["v1"]}),
        (SetFunction.p_additive_witness(("u1", "v1", "x"), ("u1",), ("v1",), 2),
         [["u1", "x"], ["v1"]],
         {"kind": "p-additive-witness", "p": 2, "u": ["u1"], "v": ["v1"]}),
    ], ids=["tabular", "cover", "curvature-witness", "p-additive-witness"])
    def test_serialized_form_of_each_kind(self, f, agents, objective):
        obj = instance_to_obj(f, AgentSpace(agents))
        assert obj == {"ground": list(f.ground), "agents": agents, "objective": objective}
        assert list(obj) == ["ground", "agents", "objective"]

    def test_witness_kind_round_trips(self):
        for w in (curvature_witness(edgeless_graph(3), F(1, 2)),
                  p_additive_witness(star_graph(3), 2),
                  sequential_half_witness()):
            f2, agents2 = instance_from_obj(instance_to_obj(w.objective, w.agents))
            assert agents2 == w.agents
            n = len(w.objective.ground)
            for mask in range(1 << n):
                assert f2.mask_value(mask) == w.objective.mask_value(mask)

    def test_table_id_with_a_comma_rejected(self, tmp_path):
        message = "^ground: table element id 'a,b' contains ','$"
        with pytest.raises(InputError, match=message):
            SetFunction.tabular(("a,b", "c"), {(): 0, ("a,b",): 1, ("c",): 1, ("a,b", "c"): 2})
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({
            "ground": ["a,b", "c"], "agents": [["a,b"], ["c"]],
            "objective": {"kind": "tabular",
                          "values": {"": "0", "a,b": "1", "c": "1", "a,b,c": "2"}}}))
        with pytest.raises(InputError, match=message):
            load_instance(path)

    def test_cover_and_witness_ids_may_hold_commas(self, tmp_path):
        # their payloads list ids as JSON arrays, not joined keys
        f = SetFunction.cover(("a,b", "c"), ("y,z",), {"y,z": 1}, {"a,b": ("y,z",), "c": ()})
        agents = AgentSpace([{"a,b"}, {"c"}])
        save_instance(f, agents, tmp_path / "cover.json")
        g, agents2 = load_instance(tmp_path / "cover.json")
        assert agents2 == agents and g.value(("a,b",)) == 1 and g.value(("c",)) == 0
        w = SetFunction.curvature_witness(("u,1",), ("v,1",), F(1, 2))
        g, _ = instance_from_obj(instance_to_obj(w, AgentSpace([{"u,1", "v,1"}])))
        assert g.ground == ("u,1", "v,1") and g.lam == F(1, 2)

    def test_overlap_names_partition(self):
        obj = {"ground": ["a", "b"],
               "agents": [["a", "b"], ["b"]],
               "objective": {"kind": "tabular",
                             "values": {"": 0, "a": 1, "b": 1, "a,b": 2}}}
        with pytest.raises(InputError, match="partition"):
            instance_from_obj(obj)

    def test_a_repeated_id_in_one_decision_set(self, tmp_path):
        # it used to load as {a}, and save_instance then wrote ["a"]
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps({
            "ground": ["a", "b"], "agents": [["b"], ["a", "a"]],
            "objective": {"kind": "cover", "targets": ["y"], "weights": {"y": 1},
                          "coverage": {"a": ["y"], "b": []}}}))
        with pytest.raises(InputError) as exc:
            load_instance(path)
        assert str(exc.value) == "agents: partition violated: agents[2]: repeated decision id 'a'"

    def test_unknown_kind(self):
        with pytest.raises(InputError, match="objective.kind") as exc:
            instance_from_obj({"ground": [], "agents": [],
                               "objective": {"kind": "mystery"}})
        assert str(exc.value) == (
            "objective.kind: expected one of ('tabular', 'cover', 'curvature-witness',"
            " 'p-additive-witness'), got 'mystery'")

    def test_two_keys_for_one_subset_rejected(self):
        # "a,b," names the subset {a, b} a second time
        obj = {"ground": ["a", "b"], "agents": [["a"], ["b"]],
               "objective": {"kind": "tabular",
                             "values": {"": 0, "a": 1, "b": 1, "a,b": 2, "a,b,": 3}}}
        with pytest.raises(InputError, match=r"values: subset \['a', 'b'\] defined twice"):
            instance_from_obj(obj)

    def test_zero_denominator_named(self):
        obj = {"ground": ["a"], "agents": [["a"]],
               "objective": {"kind": "cover", "targets": ["y"],
                             "weights": {"y": "1/0"}, "coverage": {"a": ["y"]}}}
        with pytest.raises(InputError, match="weights"):
            instance_from_obj(obj)

    def test_incomplete_tabular_named(self):
        obj = {"ground": ["a", "b"], "agents": [["a"], ["b"]],
               "objective": {"kind": "tabular", "values": {"": 0, "a": 1}}}
        with pytest.raises(InputError, match="values"):
            instance_from_obj(obj)

    def test_unknown_coverage_element_named(self):
        obj = {"ground": ["a"], "agents": [["a"]],
               "objective": {"kind": "cover", "targets": ["y"],
                             "weights": {"y": 1}, "coverage": {"zzz": ["y"]}}}
        with pytest.raises(InputError, match="coverage"):
            instance_from_obj(obj)

    @pytest.mark.parametrize("ground, objective, message", [
        (["u1", "v1"], {"kind": "curvature-witness", "u": ["v1"], "v": ["u1"], "lambda": "1/2"},
         "objective.u/v: must list the ground elements in order (u block then v block)"),
        (["a", "b"], {"kind": "p-additive-witness", "u": ["a"], "v": ["a"], "p": 1},
         "u/v: the two blocks must be disjoint"),
        (["a", "b"], {"kind": "p-additive-witness", "u": ["a"], "v": ["z"], "p": 1},
         "objective.u/v: element 'z' not in ground"),
    ], ids=["curvature-order", "p-additive-overlap", "p-additive-outside"])
    def test_witness_blocks_checked(self, ground, objective, message):
        obj = {"ground": ground, "agents": [[e] for e in ground], "objective": objective}
        with pytest.raises(InputError) as exc:
            instance_from_obj(obj)
        assert str(exc.value) == message

    def test_p_additive_blocks_are_checked_against_a_set(self):
        # each block member is looked up once in a set built from the
        # ground, not searched for in the ground list
        class Ground(list):
            searches = 0

            def __contains__(self, e):
                Ground.searches += 1
                return super().__contains__(e)

        ground = Ground(f"e{k}" for k in range(200))
        payload = {"kind": "p-additive-witness", "u": ground[:100], "v": ground[100:], "p": 2}
        f = OBJECTIVE_KINDS["p-additive-witness"].from_obj(ground, payload)
        assert f.ground == tuple(ground) and Ground.searches == 0
        payload["v"] = ground[100:] + ["y", "z"]
        with pytest.raises(InputError) as exc:
            OBJECTIVE_KINDS["p-additive-witness"].from_obj(ground, payload)
        assert str(exc.value) == "objective.u/v: element 'y' not in ground"

    def test_a_p_additive_block_that_repeats_an_id(self):
        obj = {"ground": ["a", "b"], "agents": [["a"], ["b"]],
               "objective": {"kind": "p-additive-witness", "u": ["a", "a"], "v": ["b"], "p": 2}}
        with pytest.raises(InputError) as exc:
            instance_from_obj(obj)
        assert str(exc.value) == "u: repeated element id 'a'"

    def test_a_ground_id_that_is_not_a_string(self):
        obj = {"ground": ["a", 1], "agents": [["a"]],
               "objective": {"kind": "tabular", "values": {"": 0, "a": 1}}}
        with pytest.raises(InputError) as exc:
            instance_from_obj(obj)
        assert str(exc.value) == "ground: expected a list of id strings"

    def test_ground_not_fully_assigned(self):
        obj = {"ground": ["a", "b"], "agents": [["a"]],
               "objective": {"kind": "tabular",
                             "values": {"": 0, "a": 1, "b": 1, "a,b": 2}}}
        with pytest.raises(InputError, match="partition"):
            instance_from_obj(obj)


@pytest.mark.parametrize("parse, where", [
    (graph_from_obj, "graph"), (instance_from_obj, "instance"), (witness_from_obj, "witness"),
])
@pytest.mark.parametrize("doc", [[], "x", 1, None], ids=repr)
def test_a_document_that_is_not_an_object(parse, where, doc):
    with pytest.raises(InputError) as exc:
        parse(doc)
    assert str(exc.value) == f"{where}: expected a JSON object"


class TestWitnessFormat:
    def test_round_trip_preserves_semantics(self):
        w = curvature_witness(edgeless_graph(3), F(1, 2))
        w2 = witness_from_obj(witness_to_obj(w))
        assert w2.predicted_ratio == w.predicted_ratio
        assert w2.source == w.source
        assert w2.graph == w.graph
        assert w2.agents == w.agents
        n = len(w.objective.ground)
        for mask in range(1 << n):
            assert w2.objective.mask_value(mask) == w.objective.mask_value(mask)

    def test_boolean_p_never_reaches_a_file(self, tmp_path):
        # p=True once built a witness that save_witness wrote and
        # load_witness refused
        path = tmp_path / "w.json"
        with pytest.raises(InputError, match="^p: must be a positive integer, got True$"):
            save_witness(p_additive_witness(star_graph(2), True), path)
        assert not path.exists()
        save_witness(p_additive_witness(star_graph(2), 1), path)
        assert load_witness(path).params["p"] == 1

    def test_witness_without_params_copies_pickles_and_saves(self, tmp_path):
        half = sequential_half_witness()
        w = WitnessInstance(half.objective, half.agents, half.graph,
                            half.predicted_ratio, half.source)
        assert copy.deepcopy(w).params is None
        assert pickle.loads(pickle.dumps(w)).predicted_ratio == F(1, 2)
        path = tmp_path / "w.json"
        save_witness(w, path)
        assert json.loads(path.read_text())["params"] == {}
        assert load_witness(path).params == {}

    @pytest.mark.parametrize("ratio, message", [
        (None, "expected int, 'p/q' string or Fraction, got NoneType"),
        (True, "expected a rational, got a boolean"),
    ], ids=["None", "True"])
    def test_save_refuses_a_ratio_that_would_not_load(self, tmp_path, ratio, message):
        # a None ratio was once written as "None", which load_witness refused
        half = sequential_half_witness()
        path = tmp_path / "w.json"
        with pytest.raises(InputError) as exc:
            save_witness(WitnessInstance(half.objective, half.agents, half.graph, ratio,
                                         half.source), path)
        assert str(exc.value) == f"predicted_ratio: {message}"
        assert not path.exists()
        for w in (half, curvature_witness(star_graph(3), F(1, 3))):
            save_witness(w, path)
            saved = path.read_bytes()
            save_witness(load_witness(path), path)
            assert path.read_bytes() == saved

    def test_params_must_be_an_object(self):
        obj = witness_to_obj(sequential_half_witness())
        obj["params"] = ["curvature", 1]
        with pytest.raises(InputError) as exc:
            witness_from_obj(obj)
        assert str(exc.value) == "params: expected a JSON object"

    def test_predicted_ratio_required(self):
        w = sequential_half_witness()
        obj = witness_to_obj(w)
        del obj["predicted_ratio"]
        with pytest.raises(InputError, match="predicted_ratio"):
            witness_from_obj(obj)
