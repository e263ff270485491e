"""CLI dispatch: documented invocations, exit codes, determinism, formats."""

import csv
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import pargreedy
from pargreedy import graphmetrics
from pargreedy import (
    AgentSpace,
    InformationGraph,
    SetFunction,
    optimal_assignment,
    optimal_graph,
    pseudo_independence_number,
    sequential_half_witness,
)
from pargreedy.adversarial import WitnessInstance
from pargreedy.bounds import BoundsReport, CertifyRow, curvature_eta_bounds
from pargreedy.cli import _build_parser, main
from pargreedy.serialize import load_graph, save_assignment, save_graph, save_instance, save_witness


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundsVerb:
    def test_rho_line(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "5", "--q", "2")
        assert code == 0 and out == "rho=1/3\n"

    def test_rho_with_lambda(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "5", "--q", "2", "--lambda", "1/2")
        assert code == 0
        assert "rho=1/3" in out and "lower=4/7" in out and "upper=2/3" in out

    def test_graph_bounds(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        run_cli(capsys, "construct", "graph", "--n", "5", "--q", "3",
                "--family", "complement-turan", "--r", "2", "--out", str(path))
        code, out, _ = run_cli(capsys, "bounds", "--in", str(path))
        assert code == 0
        assert "lower=1/3" in out and "upper=1/2" in out and "refined_upper=1/3" in out

    @pytest.mark.parametrize("lam", [(), ("--lambda", "1/2")])
    def test_a_graph_with_no_vertices_is_an_input_error(self, capsys, tmp_path, lam):
        path = tmp_path / "g0.json"
        path.write_text(json.dumps({"n": 0, "edges": []}))
        code, out, err = run_cli(capsys, "bounds", "--in", str(path), *lam)
        assert (code, out, err) == (2, "", "input error: graph: has no vertices (alpha = 0), so its ratio bounds are undefined\n")

    def test_missing_flags(self, capsys):
        code, _, err = run_cli(capsys, "bounds")
        assert code == 2 and "input error" in err


class TestConstructAnalyze:
    def test_pipeline_matches_expected_line(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        code, out, _ = run_cli(capsys, "construct", "graph", "--n", "5", "--q", "3",
                               "--family", "optimal", "--out", str(path))
        assert code == 0 and "edges=4" in out
        code, out, _ = run_cli(capsys, "analyze", "graph", "--in", str(path))
        assert code == 0
        assert out == "alpha=2 theta=2 omega=3 feasible_q=3 edges=4\n"

    def test_construct_assignment(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        code, out, _ = run_cli(capsys, "construct", "assignment", "--n", "5", "--q", "2",
                               "--out", str(path))
        assert code == 0 and "P=1,1,2,2,2" in out
        data = json.loads(path.read_text())
        assert data == {"q": 2, "P": [1, 1, 2, 2, 2]}

    def test_induced_graph_from_assignment(self, capsys, tmp_path):
        p = tmp_path / "p.json"
        run_cli(capsys, "construct", "assignment", "--n", "5", "--q", "2", "--out", str(p))
        code, out, _ = run_cli(capsys, "construct", "graph", "--from-assignment", str(p))
        assert code == 0 and "edges=6" in out

    def test_analyze_with_p(self, capsys, tmp_path):
        path = tmp_path / "star.json"
        path.write_text(json.dumps({"n": 5, "edges": [[1, 5], [2, 5], [3, 5], [4, 5]]}))
        code, out, _ = run_cli(capsys, "analyze", "graph", "--in", str(path), "--p", "2")
        assert code == 0 and "alpha_p=4" in out and "p_sibling=true" in out

    @pytest.mark.parametrize("edges, sibling", [
        ([[1, 5], [2, 5], [3, 5], [4, 5]], True),  # star: a p-sibling
        ([], False),                               # edgeless: none
    ])
    @pytest.mark.parametrize("as_json", [False, True])
    def test_analyze_alpha_p_with_and_without_p_sibling(self, capsys, tmp_path,
                                                        edges, sibling, as_json):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": 5, "edges": edges}))
        expected = pseudo_independence_number(load_graph(path), 2).value
        argv = ["analyze", "graph", "--in", str(path), "--p", "2"] + (["--json"] if as_json else [])
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        if as_json:
            doc = json.loads(out)
            assert doc["alpha_p"] == expected and doc["p_sibling"] == str(sibling).lower()
        else:
            assert f"alpha_p={expected} p_sibling={str(sibling).lower()}" in out

    def test_analyze_bad_assignment(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"q": 2, "P": [2, 1]}))
        code, out, _ = run_cli(capsys, "analyze", "assignment", "--in", str(path))
        assert code == 0 and "ok=false" in out and "violation=order" in out

    def test_analyze_assignment_with_non_integer_iteration(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"q": 2, "P": ["a", 1]}))
        code, out, _ = run_cli(capsys, "analyze", "assignment", "--in", str(path))
        assert code == 0 and out.startswith("ok=false violation=range ")

    @pytest.mark.parametrize("doc", ["xq", [1]])
    def test_analyze_assignment_not_an_object(self, capsys, tmp_path, doc):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "analyze", "assignment", "--in", str(path))
        assert code == 2 and "assignment: expected a JSON object" in err

    @pytest.mark.parametrize("f, curvature", [
        (SetFunction.cover(tuple(f"e{i}" for i in range(17)), ("y",), {"y": 1},
                           {f"e{i}": ("y",) for i in range(17)}), "1"),
        (SetFunction.curvature_witness(tuple(f"u{i}" for i in range(9)),
                                       tuple(f"v{i}" for i in range(9)), "1/2"), "1/2"),
    ], ids=["cover-17", "curvature-witness-18"])
    @pytest.mark.parametrize("as_json", [False, True])
    def test_analyze_instance_above_the_scan_cap(self, capsys, tmp_path, f, curvature, as_json):
        # a kind that holds the axioms by construction is reported without
        # the exhaustive scan, so its size is not capped at 16 elements
        path = tmp_path / "i.json"
        save_instance(f, AgentSpace([f.ground[k::2] for k in range(2)]), path)
        argv = ["analyze", "instance", "--in", str(path)] + (["--json"] if as_json else [])
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        expected = [("kind", f.kind), ("ground", len(f.ground)), ("agents", 2),
                    ("normalized", "true"), ("monotone", "true"), ("submodular", "true"),
                    ("curvature", curvature)]
        if as_json:
            assert list(json.loads(out).items()) == expected
        else:
            assert out == " ".join(f"{k}={v}" for k, v in expected) + "\n"

    @pytest.mark.parametrize("as_json", [False, True])
    def test_analyze_instance_that_breaks_an_axiom(self, capsys, tmp_path, as_json):
        path = tmp_path / "i.json"
        path.write_text(json.dumps({
            "ground": ["a", "b"], "agents": [["a"], ["b"]],
            "objective": {"kind": "tabular", "values": {"": 0, "a": 2, "b": 1, "a,b": 1}}}))
        argv = ["analyze", "instance", "--in", str(path)] + (["--json"] if as_json else [])
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        expected = [("kind", "tabular"), ("ground", 2), ("agents", 2), ("normalized", "true"),
                    ("monotone", "false"), ("submodular", "true"), ("violated", "monotone")]
        if as_json:
            assert list(json.loads(out).items()) == expected
        else:
            assert out == " ".join(f"{k}={v}" for k, v in expected) + "\n"

    @pytest.mark.parametrize("edge, shown", [(5, "5"), (None, "None")])
    def test_analyze_graph_with_an_edge_that_is_not_a_list(self, capsys, tmp_path, edge, shown):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": 3, "edges": [edge]}))
        code, out, err = run_cli(capsys, "analyze", "graph", "--in", str(path))
        assert code == 2 and out == ""
        assert err == f"input error: graph.edges: expected a pair, got {shown}\n"

    def test_analyze_graph_with_an_edge_that_is_a_string(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": 3, "edges": [[1, 2], "ab"]}))
        code, out, err = run_cli(capsys, "analyze", "graph", "--in", str(path))
        assert code == 2 and out == ""
        assert err == "input error: graph.edges: expected a pair, got 'ab'\n"

    def test_capacity_exit_code(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        run_cli(capsys, "construct", "graph", "--n", "25", "--family", "turan",
                "--r", "5", "--out", str(path))
        code, _, err = run_cli(capsys, "analyze", "graph", "--in", str(path))
        assert code == 3 and "capacity" in err

    def test_analyze_graph_over_the_vertex_cap(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"n": 10000000, "edges": []}')
        code, out, err = run_cli(capsys, "analyze", "graph", "--in", str(path))
        assert code == 3 and out == ""
        assert err == "capacity error: graph of 10000000 vertices exceeds vertex cap 10000\n"


class TestScheduleVerb:
    def test_schedule(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        run_cli(capsys, "construct", "graph", "--n", "5", "--q", "2",
                "--family", "optimal", "--out", str(path))
        code, out, _ = run_cli(capsys, "schedule", "--in", str(path))
        assert code == 0 and out == "P=1,1,2,2,2 depth=2\n"


class TestRunVerb:
    @pytest.fixture
    def instance_path(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        run_cli(capsys, "adversarial", "--family", "sequential-half", "--out", str(path))
        data = json.loads(path.read_text())
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(data["instance"]))
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps(data["graph"]))
        return inst, graph

    def test_worst_run_with_ratio(self, capsys, instance_path):
        inst, graph = instance_path
        code, out, _ = run_cli(capsys, "run", "--instance", str(inst),
                               "--graph", str(graph), "--ratio")
        assert code == 0
        assert "value=1" in out and "optimum=2" in out and "ratio=1/2" in out

    def test_policy_all_lists_outcomes(self, capsys, instance_path):
        inst, graph = instance_path
        code, out, _ = run_cli(capsys, "run", "--instance", str(inst),
                               "--graph", str(graph), "--policy", "all")
        assert code == 0 and out.count("value=") == 2

    def test_run_with_assignment(self, capsys, instance_path, tmp_path):
        inst, _ = instance_path
        p = tmp_path / "p.json"
        p.write_text(json.dumps({"q": 2, "P": [1, 2]}))
        code, out, _ = run_cli(capsys, "run", "--instance", str(inst),
                               "--assignment", str(p))
        assert code == 0 and "value=1" in out

    def test_json_lists_the_text_rows(self, capsys, instance_path):
        inst, graph = instance_path
        argv = ("run", "--instance", str(inst), "--graph", str(graph), "--policy", "all",
                "--ratio")
        _, text, _ = run_cli(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == 0
        assert [{k: str(v) for k, v in row.items()} for row in json.loads(out)] == \
            [dict(pair.split("=") for pair in line.split()) for line in text.splitlines()]

    def test_needs_exactly_one_structure(self, capsys, instance_path):
        inst, graph = instance_path
        code, _, err = run_cli(capsys, "run", "--instance", str(inst))
        assert code == 2 and "exactly one" in err


class TestAdversarialVerb:
    def test_curvature_witness_written(self, capsys, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"n": 3, "edges": []}))
        w = tmp_path / "w.json"
        code, out, _ = run_cli(capsys, "adversarial", "--family", "curvature",
                               "--graph", str(g), "--lambda", "1/2", "--out", str(w))
        assert code == 0 and "predicted_ratio=2/3" in out
        assert json.loads(w.read_text())["predicted_ratio"] == "2/3"

    def test_curvature_on_a_graph_with_no_vertices_is_an_input_error(self, capsys, tmp_path):
        g = tmp_path / "g0.json"
        g.write_text(json.dumps({"n": 0, "edges": []}))
        code, out, err = run_cli(capsys, "adversarial", "--family", "curvature",
                                 "--graph", str(g), "--lambda", "1/2")
        assert (code, out) == (2, "")
        assert err == ("input error: graph: construction needs alpha(G) >= 1,"
                       " got a graph with no vertices\n")

    def test_p_additive(self, capsys, tmp_path):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"n": 5, "edges": [[1, 5], [2, 5], [3, 5], [4, 5]]}))
        code, out, _ = run_cli(capsys, "adversarial", "--family", "p-additive",
                               "--graph", str(g), "--p", "2")
        assert code == 0 and "predicted_ratio=2/5" in out


class TestCertifyVerb:
    def test_a_witness_on_no_vertices_is_one_undefined_row(self, capsys, tmp_path):
        path = tmp_path / "w0.json"
        save_witness(WitnessInstance(SetFunction.cover((), (), {}, {}), AgentSpace([]),
                                     InformationGraph(0), Fraction(1), "empty"), path)
        code, out, _ = run_cli(capsys, "certify", "--witness", str(path), "--suite", "random",
                               "--seed", "1", "--count", "3")
        lines = out.splitlines()
        assert code == 1 and len(lines) == 5
        assert lines[0].endswith(" verdict=undefined note=graph: has no vertices (alpha = 0), so its ratio bounds are undefined")
        assert all(" verdict=pass" in line for line in lines[1:4])
        assert lines[4].startswith("rows=4 failures=0 capacity_errors=0 undefined=1 ")

    def test_witness_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--suite", "witnesses",
                               "--alpha-max", "3", "--lambdas", "0,1/2,1")
        assert code == 0
        assert "failures=0" in out.splitlines()[-1]

    def test_a_witness_past_the_graph_cap_is_a_capacity_error_row(self, capsys, monkeypatch):
        # with the cap at 5 vertices, no witness on edgeless(6), star(5) or
        # star(6) can be built: each is a row that names the cap, every
        # other row prints as it does with no cap, and the suite exits 3
        argv = ("certify", "--suite", "witnesses", "--alpha-max", "6", "--lambdas", "1",
                "--p-max", "2")
        code, full, _ = run_cli(capsys, *argv)
        assert code == 0
        monkeypatch.setattr(graphmetrics, "GRAPH_CAP", 5)
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and err == ""
        over = {"curv-a6-l1": ("edgeless-6", "independence number on 6"),
                "padd-star-a5-p1": ("star-5", "p-sibling property on 6"),
                "padd-star-a6-p1": ("star-6", "p-sibling property on 7"),
                "padd-free-a6-p1": ("edgeless-6", "p-sibling property on 6"),
                "padd-star-a5-p2": ("star-5", "p-sibling property on 6"),
                "padd-star-a6-p2": ("star-6", "p-sibling property on 7"),
                "padd-free-a6-p2": ("edgeless-6", "p-sibling property on 6")}
        lines, expected = out.splitlines(), full.splitlines()
        assert len(lines) == len(expected) == 1 + 6 + 2 * (6 + 5) + 1
        for line, before in zip(lines[:-1], expected):
            row = line.split()[1].removeprefix("instance=")
            if row in over:
                graph, what = over.pop(row)
                assert line == (f"row instance={row} graph={graph} empirical=- lower=- upper=-"
                                f" verdict=capacity-error note={what} vertices exceeds"
                                " exact-search cap 5")
            else:
                assert line == before
        assert over == {}
        assert lines[-1] == "rows=29 failures=0 capacity_errors=7 equalities=22"

    def test_stored_witness_file(self, capsys, tmp_path):
        w = tmp_path / "w.json"
        run_cli(capsys, "adversarial", "--family", "sequential-half", "--out", str(w))
        code, out, _ = run_cli(capsys, "certify", "--witness", str(w))
        assert code == 0 and "failures=0" in out

    def test_random_requires_seed(self, capsys):
        code, _, err = run_cli(capsys, "certify", "--suite", "random")
        assert code == 2 and "--seed" in err

    def test_random_rejects_n_max_below_one(self, capsys):
        code, out, err = run_cli(capsys, "certify", "--suite", "random", "--seed", "1",
                                 "--n-max", "0")
        assert code == 2 and out == ""
        assert err == "input error: n_max: must be a positive integer, got 0\n"

    @pytest.mark.parametrize("argv, message", [
        (("--suite", "random", "--seed", "1", "--count", "-1"),
         "count: must be a positive integer, got -1"),
        (("--suite", "witnesses", "--alpha-max", "-2"),
         "alpha_max: must be a positive integer, got -2"),
        (("--suite", "witnesses", "--p-max", "0"),
         "p_max: must be a positive integer, got 0"),
    ], ids=["count", "alpha-max", "p-max"])
    def test_suite_sizes_below_one(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "certify", *argv)
        assert code == 2 and out == ""
        assert err == f"input error: {message}\n"

    def test_random_deterministic(self, capsys):
        args = ("certify", "--suite", "random", "--seed", "7", "--count", "20")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0 and out1 == out2

    @pytest.mark.parametrize("argv, digest", [
        ("certify --suite random --count 500 --n-max 6 --seed 7",
         "5bfb78a2ee37c57e5250afd34ea41dfd8d4d39ee3c1f4b0c18bc80214c9b6ead"),
        ("certify --suite witnesses --alpha-max 4 --lambdas 0,1/2,1 --p-max 3",
         "434956b7cb9844ea6ef1a0f65fdb87e5a0fd9c17610e4b69f67bcf28a5689831"),
        ("certify --suite random --count 200 --n-max 8 --seed 3 --json",
         "6324ee799c2227d915dc1df4a5f2b923d2a4f187db3362882fb604e298601cb1"),
    ], ids=("random-500", "witnesses", "random-200-json"))
    def test_seeded_reports_are_pinned(self, capsys, argv, digest):
        # the README promises byte-identical reports for identical seeded
        # invocations; these digests have held since the first release
        _, out, _ = run_cli(capsys, *argv.split())
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_curvature_bound_scan_is_pinned(self, capsys):
        # 404 rows of exact curvature bounds, pinned as the reports above
        code, out, _ = run_cli(capsys, *"scan --curve curvature-bounds --r 1,2,3,7"
                                         " --lambda-steps 100".split())
        assert code == 0
        assert (hashlib.sha256(out.encode()).hexdigest()
                == "cbd163dc5d56e12fcbaf836e9337da8991e7b6b6ef4d08f84e7dd07c83e42324")

    @staticmethod
    def _two_agents_on_three_vertices(path):
        f = SetFunction.cover(("a", "b"), ("y",), {"y": 1}, {"a": ("y",), "b": ("y",)})
        save_witness(WitnessInstance(f, AgentSpace([{"a"}, {"b"}]), InformationGraph(3),
                                     Fraction(1), "cover"), path)

    def test_row_input_error_reports_every_row(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        self._two_agents_on_three_vertices(bad)
        argv = ("certify", "--witness", str(bad), "--suite", "witnesses",
                "--alpha-max", "1", "--lambdas", "1")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and err == ""
        lines = out.splitlines()
        assert lines[0] == (f"row instance=file-0-{bad} graph=file-0 empirical=- lower=- "
                            "upper=- predicted=1 verdict=input-error "
                            "note=agents: 2 agents but graph has 3 vertices")
        assert [line.split(" ")[1] for line in lines[1:-1]] == [
            "instance=curv-a1-l1", "instance=sequential-half"]
        assert all(line.endswith(" verdict=pass") for line in lines[1:-1])
        assert lines[-1] == "rows=3 failures=0 capacity_errors=0 input_errors=1 equalities=2"
        code, out, _ = run_cli(capsys, *argv, "--json")
        doc = json.loads(out)
        assert code == 2 and doc["input_errors"] == 1
        assert [r["verdict"] for r in doc["rows"]] == ["input-error", "pass", "pass"]
        assert doc["rows"][0]["note"] == "agents: 2 agents but graph has 3 vertices"

    def test_row_verdicts_choose_the_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        self._two_agents_on_three_vertices(bad)
        big = tmp_path / "big.json"  # 21 vertices: over the graph cap
        ids = [f"e{i}" for i in range(21)]
        save_witness(WitnessInstance(
            SetFunction.cover(ids, ("y",), {"y": 1}, {e: ("y",) for e in ids}),
            AgentSpace([{e} for e in ids]), InformationGraph(21), Fraction(1), "cover"), big)
        broken = tmp_path / "broken.json"
        save_witness(WitnessInstance(
            SetFunction.tabular(("a", "b"), {(): 0, ("a",): 1, ("b",): 1, ("a", "b"): 3}),
            AgentSpace([{"a"}, {"b"}]), InformationGraph(2), Fraction(1), "tabular"), broken)

        def certify(*paths):
            argv = ["certify"]
            for p in paths:
                argv += ["--witness", str(p)]
            code, out, _ = run_cli(capsys, *argv)
            return code, out.splitlines()[-1]

        assert certify(big) == (3, "rows=1 failures=0 capacity_errors=1 equalities=0")
        assert certify(big, bad) == (
            2, "rows=2 failures=0 capacity_errors=1 input_errors=1 equalities=0")
        assert certify(big, bad, broken) == (
            1, "rows=3 failures=0 capacity_errors=1 inapplicable=1 input_errors=1 equalities=0")

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--suite", "witnesses",
                               "--alpha-max", "2", "--lambdas", "1/2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["failures"] == 0 and len(doc["rows"]) == 3

    def test_mixed_verdict_report_is_pinned(self, capsys, tmp_path, monkeypatch):
        # one row of every verdict, from witness files named relative to the
        # working directory so that the instance ids are fixed
        monkeypatch.chdir(tmp_path)
        w = sequential_half_witness()
        save_witness(w, "pass.json")
        save_witness(WitnessInstance(w.objective, w.agents, w.graph, Fraction(1, 7),
                                     w.source), "fail.json")
        save_witness(WitnessInstance(
            SetFunction.tabular(("a", "b"), {(): 0, ("a",): 1, ("b",): 1, ("a", "b"): 3}),
            AgentSpace([{"a"}, {"b"}]), InformationGraph(2), Fraction(1), "tabular"),
            "broken.json")
        save_witness(WitnessInstance(
            SetFunction.cover(("a",), ("y",), {"y": 0}, {"a": ("y",)}),
            AgentSpace([{"a"}]), InformationGraph(1), Fraction(1), "cover"), "zero.json")
        self._two_agents_on_three_vertices("bad.json")
        ids = [f"e{i}" for i in range(21)]
        save_witness(WitnessInstance(
            SetFunction.cover(ids, ("y",), {"y": 1}, {e: ("y",) for e in ids}),
            AgentSpace([{e} for e in ids]), InformationGraph(21), Fraction(1), "cover"),
            "big.json")
        argv = ["certify"]
        for name in ("pass", "fail", "broken", "zero", "bad", "big"):
            argv += ["--witness", f"{name}.json"]

        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (1, "")
        assert out == (
            "row instance=file-0-pass.json graph=file-0 empirical=1/2 lower=1/2 upper=1 "
            "refined_upper=1/2 curvature=1 predicted=1/2 verdict=pass\n"
            "row instance=file-1-fail.json graph=file-1 empirical=1/2 lower=1/2 upper=1 "
            "refined_upper=1/2 curvature=1 predicted=1/7 verdict=FAIL "
            "note=witness missed its predicted ratio\n"
            "row instance=file-2-broken.json graph=file-2 empirical=- lower=- upper=- "
            "predicted=1 verdict=inapplicable note=not submodular: f(a|{}) = 1 < f(a|{b}) = 2\n"
            "row instance=file-3-zero.json graph=file-3 empirical=- lower=- upper=- "
            "predicted=1 verdict=undefined note=optimum value is 0, ratio undefined\n"
            "row instance=file-4-bad.json graph=file-4 empirical=- lower=- upper=- "
            "predicted=1 verdict=input-error note=agents: 2 agents but graph has 3 vertices\n"
            "row instance=file-5-big.json graph=file-5 empirical=- lower=- upper=- "
            "predicted=1 verdict=capacity-error "
            "note=independence number on 21 vertices exceeds exact-search cap 20\n"
            "rows=6 failures=1 capacity_errors=1 inapplicable=1 undefined=1 input_errors=1 "
            "equalities=1\n")

        def unrated(k, name, verdict, note):
            return {"instance": f"file-{k}-{name}.json", "graph": f"file-{k}",
                    "empirical": None, "lower": None, "upper": None, "refined_upper": None,
                    "curvature": None, "predicted": "1", "verdict": verdict, "note": note}

        rated = {"empirical": "1/2", "lower": "1/2", "upper": "1", "refined_upper": "1/2",
                 "curvature": "1"}
        code, out, err = run_cli(capsys, *argv, "--json")
        assert (code, err) == (1, "")
        assert out == json.dumps({
            "rows": [
                {"instance": "file-0-pass.json", "graph": "file-0", **rated,
                 "predicted": "1/2", "verdict": "pass", "note": ""},
                {"instance": "file-1-fail.json", "graph": "file-1", **rated,
                 "predicted": "1/7", "verdict": "FAIL",
                 "note": "witness missed its predicted ratio"},
                unrated(2, "broken", "inapplicable",
                        "not submodular: f(a|{}) = 1 < f(a|{b}) = 2"),
                unrated(3, "zero", "undefined", "optimum value is 0, ratio undefined"),
                unrated(4, "bad", "input-error", "agents: 2 agents but graph has 3 vertices"),
                unrated(5, "big", "capacity-error",
                        "independence number on 21 vertices exceeds exact-search cap 20"),
            ],
            "failures": 1, "capacity_errors": 1, "inapplicable": 1, "undefined": 1,
            "input_errors": 1, "equalities": 1,
        }) + "\n"


# the verdicts other than pass, and the summary key of each count
NON_PASS_KEYS = {"FAIL": "failures", "capacity-error": "capacity_errors",
                 "inapplicable": "inapplicable", "undefined": "undefined",
                 "input-error": "input_errors"}


def ladder_exit_status(counts):
    """certify's exit rule as an if-ladder, written out apart from the
    verdict table as its oracle."""
    if counts["FAIL"] or counts["inapplicable"] or counts["undefined"]:
        return 1
    if counts["input-error"]:
        return 2
    if counts["capacity-error"]:
        return 3
    return 0


def ladder_summary(counts, rows):
    """certify's summary written out apart from the verdict table:
    failures and capacity_errors always, the three rarer counts only when
    nonzero."""
    return ([("rows", rows), ("failures", counts["FAIL"]),
             ("capacity_errors", counts["capacity-error"])]
            + [(key, counts[v]) for v, key in (("inapplicable", "inapplicable"),
                                              ("undefined", "undefined"),
                                              ("input-error", "input_errors")) if counts[v]]
            + [("equalities", 0)])


@pytest.mark.parametrize("with_pass", [False, True], ids=["no-pass", "with-pass"])
@pytest.mark.parametrize("present", [
    tuple(v for k, v in enumerate(NON_PASS_KEYS) if bits >> k & 1) for bits in range(32)
], ids=lambda present: "+".join(present) or "none")
def test_every_combination_of_verdicts(capsys, monkeypatch, present, with_pass):
    # the k-th present verdict gets k + 1 rows, so each count is distinct
    verdicts = [v for k, v in enumerate(present) for _ in range(k + 1)]
    verdicts += ["pass", "pass"] if with_pass else []
    report = BoundsReport(tuple(
        CertifyRow(f"r{k}", "g", None, None, None, None, None, None, v, "")
        for k, v in enumerate(verdicts)))
    counts = {v: verdicts.count(v) for v in NON_PASS_KEYS}
    monkeypatch.setattr("pargreedy.bounds.certify", lambda entries: report)
    argv = ("certify", "--suite", "random", "--seed", "1", "--count", "1")

    code, out, _ = run_cli(capsys, *argv)
    expected = ladder_summary(counts, len(verdicts))
    assert code == report.exit_status == ladder_exit_status(counts)
    lines = out.splitlines()
    assert len(lines) == len(verdicts) + 1
    assert lines[-1] == " ".join(f"{k}={v}" for k, v in expected)

    code, out, _ = run_cli(capsys, *argv, "--json")
    doc = json.loads(out)
    assert code == ladder_exit_status(counts)
    assert len(doc.pop("rows")) == len(verdicts)
    assert list(doc.items()) == expected[1:]


class TestScanVerb:
    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--curve", "curvature-bounds",
                               "--r", "2,3,5,20", "--lambda-steps", "10")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,lambda,lower,upper"
        assert len(lines) == 1 + 4 * 11

    def test_endpoint_rows(self, capsys):
        _, out, _ = run_cli(capsys, "scan", "--curve", "curvature-bounds",
                            "--r", "2", "--lambda-steps", "2")
        lines = out.strip().splitlines()
        assert lines[1] == "2,0,1,1"
        assert lines[-1] == "2,1,1/3,1/2"

    def test_write_to_file(self, capsys, tmp_path):
        path = tmp_path / "curves.csv"
        code, out, _ = run_cli(capsys, "scan", "--curve", "curvature-bounds",
                               "--r", "2", "--lambda-steps", "4", "--out", str(path))
        assert code == 0 and "rows=5" in out
        assert path.read_text().splitlines()[0] == "r,lambda,lower,upper"

    @pytest.mark.parametrize("r, steps", [("1", "1"), ("2", "2"), ("3,5", "7"),
                                          ("20, 2,,4", "12"), ("1,9", "100")])
    def test_rows_match_a_csv_writer_and_the_json_form(self, capsys, tmp_path, r, steps):
        rows = []
        for ri in (int(x) for x in r.split(",") if x.strip()):
            for k in range(int(steps) + 1):
                lam = Fraction(k, int(steps))
                b = curvature_eta_bounds(ri, 1, lam)
                rows.append((ri, lam, b.lower, b.upper))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["r", "lambda", "lower", "upper"])
        writer.writerows(rows)
        argv = ("scan", "--curve", "curvature-bounds", "--r", r, "--lambda-steps", steps)
        assert run_cli(capsys, *argv) == (0, buf.getvalue(), "")
        path = tmp_path / "curves.csv"
        assert run_cli(capsys, *argv, "--out", str(path)) == (
            0, f"rows={len(rows)} out={path}\n", "")
        assert path.read_bytes() == buf.getvalue().encode()
        code, out, _ = run_cli(capsys, *argv, "--out", "json")
        assert code == 0
        assert json.loads(out) == [{"r": ri, "lambda": str(lam), "lower": str(lo),
                                    "upper": str(up)} for ri, lam, lo, up in rows]

    def test_deterministic_bytes(self, capsys):
        args = ("scan", "--curve", "curvature-bounds", "--r", "3,5", "--lambda-steps", "50")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", [
        (("construct", "assignment", "--n", "3"), "construct assignment: requires --n and --q"),
        (("construct", "graph", "--q", "2"),
         "construct graph --family optimal: requires --n and --q"),
        (("construct", "graph", "--family", "turan", "--n", "4"),
         "construct graph --family turan: requires --n and --r"),
        (("adversarial", "--family", "curvature", "--lambda", "1/2"),
         "adversarial --family curvature: requires --graph and --lambda"),
        (("adversarial", "--family", "p-additive", "--p", "1"),
         "adversarial --family p-additive: requires --graph and --p"),
        (("certify",), "certify: nothing to certify (use --suite or --witness)"),
        (("certify", "--suite", "witnesses", "--lambdas", ","),
         "--lambdas: expected a comma-separated list of rationals"),
        (("scan", "--curve", "curvature-bounds", "--r", "2,x"), "--r: expected integers, got 'x'"),
        (("scan", "--curve", "curvature-bounds", "--r", ","), "--r: expected positive integers"),
        (("scan", "--curve", "curvature-bounds", "--r", "3,0"), "--r: expected positive integers"),
        (("scan", "--curve", "curvature-bounds", "--r", "2", "--lambda-steps", "0"),
         "--lambda-steps: must be at least 1"),
    ], ids=["construct-assignment", "construct-optimal", "construct-turan",
            "adversarial-curvature", "adversarial-p-additive", "certify-nothing",
            "certify-lambdas", "scan-r-not-int", "scan-r-empty", "scan-r-zero",
            "scan-lambda-steps"])
    def test_missing_or_bad_flag_is_named(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (2, "", f"input error: {message}\n")

    def test_unknown_verb_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_curvature_cap_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--suite", "witnesses", "--curvature-cap", "10"])
        assert exc.value.code == 2

    def test_missing_input_file(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "graph", "--in", "/nonexistent.json")
        assert code == 2 and "not found" in err

    @pytest.mark.parametrize("name, write, detail", [
        ("dir.json", lambda p: p.mkdir(), "Is a directory"),
        ("latin1.json", lambda p: p.write_bytes(b'{"n": 1, "edges": []}\xff'),
         "can't decode byte 0xff"),
        ("deep.json", lambda p: p.write_text("[" * 100_000 + "]" * 100_000),
         "maximum recursion depth"),
        ("digits.json", lambda p: p.write_text('{"n": ' + "9" * 5000 + ', "edges": []}'),
         "integer string conversion"),
    ], ids=["directory", "invalid-utf8", "deep-nesting", "long-integer"])
    def test_unreadable_input_file(self, capsys, tmp_path, name, write, detail):
        path = tmp_path / name
        write(path)
        code, out, err = run_cli(capsys, "analyze", "graph", "--in", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"input error: {path}: unreadable JSON: ") and detail in err

    @pytest.mark.parametrize("argv", [
        ("construct", "graph", "--n", "3", "--q", "2"),
        ("adversarial", "--family", "sequential-half"),
        ("scan", "--curve", "curvature-bounds", "--r", "2"),
    ], ids=["construct", "adversarial", "scan"])
    def test_unwritable_output_path(self, capsys, tmp_path, argv):
        code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path))
        assert code == 2
        assert err.startswith("input error: ") and str(tmp_path) in err
        assert "Traceback" not in err


class TestJsonBooleans:
    """bool subclasses int in Python, but a JSON true is not a number."""

    def test_boolean_vertex_id(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"n": 3, "edges": [[true, 2]]}')
        code, _, err = run_cli(capsys, "analyze", "graph", "--in", str(path))
        assert code == 2
        assert err == "input error: graph.edges: vertex ids must be integers, got (True, 2)\n"

    def test_boolean_q(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"q": true, "P": [1, 1]}')
        code, _, err = run_cli(capsys, "analyze", "assignment", "--in", str(path))
        assert code == 2 and err == "input error: assignment.q: unexpected type bool\n"

    def test_boolean_iteration_is_a_range_violation(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"q": 2, "P": [true, 2]}')
        code, out, _ = run_cli(capsys, "analyze", "assignment", "--in", str(path))
        assert code == 0
        assert out == "ok=false violation=range agents=1 detail=P(1)=True outside 1..2\n"

    def test_boolean_p(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({
            "ground": ["u1", "v1"], "agents": [["u1"], ["v1"]],
            "objective": {"kind": "p-additive-witness", "p": True, "u": ["u1"], "v": ["v1"]}}))
        code, _, err = run_cli(capsys, "analyze", "instance", "--in", str(path))
        assert code == 2 and err == "input error: objective.p: unexpected type bool\n"


class TestParserReuse:
    """``main`` builds its parser once per process; no call may see state
    left by an earlier one."""

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def fresh_outcome(self, capsys, argv):
        _build_parser.cache_clear()
        return self.outcome(capsys, argv)

    @pytest.fixture
    def every_verb(self, tmp_path):
        graph, assignment, instance, witness = (
            str(tmp_path / name) for name in ("g.json", "p.json", "i.json", "w.json"))
        save_graph(optimal_graph(6, 3), graph)
        save_assignment(optimal_assignment(6, 2), assignment)
        w = sequential_half_witness()
        save_instance(w.objective, w.agents, instance)
        save_witness(w, witness)
        return [
            ["bounds", "--in", graph, "--lambda", "1/2"],
            ["bounds", "--n", "7", "--q", "3", "--json"],
            ["construct", "graph", "--n", "6", "--q", "3", "--json"],
            ["construct", "assignment", "--n", "6", "--q", "4"],
            ["analyze", "graph", "--in", graph, "--p", "2"],
            ["analyze", "assignment", "--in", assignment, "--json"],
            ["analyze", "instance", "--in", instance],
            ["schedule", "--in", graph],
            ["run", "--instance", instance, "--assignment", assignment, "--policy", "all",
             "--ratio"],
            ["adversarial", "--family", "p-additive", "--graph", graph, "--p", "2", "--json"],
            ["certify", "--witness", witness, "--suite", "witnesses", "--alpha-max", "2",
             "--lambdas", "1/2"],
            ["certify", "--suite", "random", "--count", "3", "--seed", "5", "--json"],
            ["scan", "--curve", "curvature-bounds", "--r", "2,3", "--lambda-steps", "4"],
        ]

    def test_every_verb_matches_a_fresh_parser(self, capsys, every_verb):
        fresh = [self.fresh_outcome(capsys, argv) for argv in every_verb]
        for order in (every_verb, every_verb[::-1]):
            reused = {tuple(argv): self.outcome(capsys, argv) for argv in order}
            assert [reused[tuple(argv)] for argv in every_verb] == fresh

    def test_every_verb_leaves_no_reference_cycle(self, capsys, every_verb):
        # a first round builds the parser and fills every lazy import, so
        # that the guarded round sees only what a call leaves behind
        for argv in every_verb:
            self.outcome(capsys, argv)
        enabled = gc.isenabled()
        gc.disable()
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for argv in every_verb:
                self.outcome(capsys, argv)
            gc.collect()
            cyclic = sorted({type(o).__name__ for o in gc.garbage})
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        assert cyclic == []

    def test_witness_list_does_not_leak(self, capsys, tmp_path):
        witness = tmp_path / "w.json"
        save_witness(sequential_half_witness(), witness)
        random_suite = ("certify", "--suite", "random", "--count", "4", "--seed", "9")
        expected = self.fresh_outcome(capsys, random_suite)
        code, out, _ = self.outcome(capsys, ("certify", "--witness", str(witness),
                                             "--witness", str(witness)))
        assert code == 0 and "rows=2 " in out
        assert self.outcome(capsys, random_suite) == expected
        assert _build_parser().parse_args(random_suite).witness == []

    @pytest.mark.parametrize("bad", [
        ("frobnicate",),
        ("certify", "--witness", "w.json", "--count", "many"),
        ("analyze", "graph"),
    ], ids=["unknown-verb", "bad-int-after-append", "missing-required"])
    def test_usage_error_then_valid_call(self, capsys, bad):
        valid = ("certify", "--suite", "random", "--count", "2", "--seed", "3")
        expected = self.fresh_outcome(capsys, valid)
        code, out, err = self.outcome(capsys, bad)
        assert code == 2 and out == "" and "usage: pargreedy" in err
        assert self.outcome(capsys, valid) == expected

    @pytest.mark.parametrize("argv", [("--help",)] + [
        (verb, "--help") for verb in ("bounds", "construct", "analyze", "schedule", "run",
                                      "adversarial", "certify", "scan")])
    def test_help_text_unchanged(self, capsys, argv):
        expected = self.fresh_outcome(capsys, argv)
        assert expected[0] == 0 and "usage: pargreedy" in expected[1]
        self.outcome(capsys, ("bounds", "--n", "5", "--q", "2"))
        self.outcome(capsys, ("frobnicate",))
        assert self.outcome(capsys, argv) == expected

    def test_import_does_not_build_the_parser(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(pargreedy.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import pargreedy.cli as cli; info = cli._build_parser.cache_info(); "
                "print(info.hits, info.misses)")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out == "0 0\n"


def test_import_adds_no_dataclasses_inspect_or_csv():
    # dataclasses and inspect would cost a CLI process most of its start-up;
    # scan writes its CSV lines itself, so no verb needs csv
    src = os.path.dirname(os.path.dirname(os.path.abspath(pargreedy.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys; bare = set(sys.modules); import pargreedy.cli; "
            "print(' '.join(sorted(set(sys.modules) - bare)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    added = set(out.split())
    assert "pargreedy.cli" in added
    assert not added & {"dataclasses", "inspect", "csv"}
