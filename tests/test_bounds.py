"""Closed-form bounds, the telescoping chain check, and the harness."""

import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from pargreedy import (
    AgentSpace,
    CapacityError,
    InformationGraph,
    InputError,
    SuiteEntry,
    certify,
    chain_bound_check,
    complement_turan_graph,
    curvature_eta_bounds,
    curvature_graph_bounds,
    empirical_ratio,
    graph_ratio_bounds,
    min_edges_bound,
    optimal_graph,
    rho,
    SetFunction,
    UndefinedRatioError,
)
from pargreedy.bounds import STAGE_NAMES, VERDICTS, CertifyRow
from pargreedy.suites import (
    edgeless_graph,
    random_cover_entries,
    random_cover_instance,
    standard_witness_entries,
    witness_entry,
)
from pargreedy.adversarial import WitnessInstance, curvature_witness
from pargreedy.cli import main
from pargreedy.serialize import save_witness

from conftest import all_graphs, brute_theta

F = Fraction

# two-element tables that break one axiom each, and the note their row gets
AXIOM_BREAKERS = {
    "supermodular": ({(): 0, ("a",): 1, ("b",): 1, ("a", "b"): 3},
                     "not submodular: f(a|{}) = 1 < f(a|{b}) = 2"),
    "unnormalized": ({(): 1, ("a",): 2, ("b",): 2, ("a", "b"): 3},
                     "not normalized: f({}) = 1"),
    "shrinking": ({(): 0, ("a",): 2, ("b",): 2, ("a", "b"): 1},
                  "not monotone: f(b|{a}) = -1"),
}


def complete(n):
    return InformationGraph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


class TestRho:
    def test_reference_values(self):
        assert rho(5, 2) == F(1, 3)
        assert rho(5, 3) == F(1, 3)
        assert rho(1, 1) == 1

    def test_sequential_is_half(self):
        for n in range(2, 13):
            assert rho(n, n) == F(1, 2)

    def test_single_round_is_one_over_n(self):
        for n in range(1, 13):
            assert rho(n, 1) == F(1, n)

    def test_branches(self):
        for n in range(1, 13):
            for q in range(1, n + 1):
                r = -(-n // q)
                value = rho(n, q)
                assert value in (F(1, r), F(1, r + 1))
                assert (value == F(1, r)) == (n % q == 1 % q)

    def test_range_check(self):
        with pytest.raises(InputError):
            rho(3, 5)


class TestGraphRatioBounds:
    def test_complement_turan_pinned(self):
        b = graph_ratio_bounds(complement_turan_graph(5, 2))
        assert (b.lower, b.upper, b.refined_upper) == (F(1, 3), F(1, 2), F(1, 3))
        assert b.effective_upper == b.lower  # gamma pinned to exactly 1/3

    def test_edgeless(self):
        b = graph_ratio_bounds(edgeless_graph(4))
        assert (b.lower, b.upper) == (F(1, 5), F(1, 4))
        assert b.refined_upper is None

    def test_complete(self):
        b = graph_ratio_bounds(complete(4))
        assert (b.lower, b.upper) == (F(1, 2), F(1))

    def test_lower_never_exceeds_upper(self):
        rng = random.Random(30)
        for _ in range(40):
            n = rng.randint(1, 7)
            g = InformationGraph(
                n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                    if rng.random() < 0.5])
            b = graph_ratio_bounds(g)
            assert b.lower <= b.effective_upper <= b.upper

    def test_optimal_graph_matches_rho(self):
        for n in range(1, 13):
            for q in range(1, n + 1):
                b = graph_ratio_bounds(optimal_graph(n, q))
                r = -(-n // q)
                if n % q == 1 % q:
                    assert b.upper == F(1, r) == rho(n, q), (n, q)
                else:
                    assert b.lower == F(1, r + 1) == rho(n, q), (n, q)

    def test_a_graph_with_no_vertices_has_undefined_bounds(self):
        # both bounds divide by alpha = 0
        for bounds in (graph_ratio_bounds, lambda g: curvature_graph_bounds(g, "1/2")):
            with pytest.raises(UndefinedRatioError) as exc:
                bounds(InformationGraph(0))
            assert str(exc.value) == "graph: has no vertices (alpha = 0), so its ratio bounds are undefined"

    def test_no_feasible_graph_beats_rho(self):
        # guaranteed lower bound of any q-feasible graph never exceeds rho(n, q)
        from pargreedy import earliest_schedule
        for n in range(1, 7):
            for g in all_graphs(n):
                q = earliest_schedule(g).depth
                b = graph_ratio_bounds(g)
                assert b.lower <= rho(n, q), (g, q)


class TestCurvatureBounds:
    def test_lambda_one_reduces_to_plain(self):
        g = complement_turan_graph(6, 3)
        plain = graph_ratio_bounds(g)
        curv = curvature_graph_bounds(g, 1)
        assert curv.lower == plain.lower and curv.upper == plain.upper

    def test_lambda_zero_is_one(self):
        b = curvature_graph_bounds(complement_turan_graph(6, 3), 0)
        assert b.lower == b.upper == 1

    def test_formula_substitution(self):
        b = curvature_graph_bounds(complement_turan_graph(6, 3), F(1, 2))
        assert b.upper == F(2, 3) and b.lower == F(4, 7)

    def test_eta_endpoints(self):
        for n, q in ((5, 2), (7, 3), (9, 4)):
            r = -(-n // q)
            assert curvature_eta_bounds(n, q, 0).lower == 1
            assert curvature_eta_bounds(n, q, 0).upper == 1
            assert curvature_eta_bounds(n, q, 1).lower == F(1, r + 1)
            assert curvature_eta_bounds(n, q, 1).upper == F(1, r)

    def test_large_r_approaches_one_minus_lambda(self):
        b = curvature_eta_bounds(20, 1, F(1, 2))  # r = 20
        assert abs(b.upper - F(1, 2)) <= F(1, 40)
        assert abs(b.lower - F(1, 2)) <= F(1, 40)

    def test_witness_sits_between_curvature_bounds(self):
        # the witness ratio equals the curvature upper bound on its own graph
        for g in (edgeless_graph(3), complement_turan_graph(5, 2), complete(3)):
            for lam in (F(0), F(1, 4), F(1, 2), F(1)):
                w = curvature_witness(g, lam)
                b = curvature_graph_bounds(g, lam)
                assert b.lower <= w.predicted_ratio == b.upper

    def test_strictness_identity(self):
        # the same bounds in the beta = 1 - lambda parameterization
        g = complement_turan_graph(6, 2)
        theta = 2
        for beta in (F(0), F(1, 3), F(1, 2), F(1)):
            b = curvature_graph_bounds(g, 1 - beta)
            assert b.lower == ((theta - 1) * beta + 1) / (theta - beta + 1)

    def test_lower_bound_falls_as_lambda_rises(self):
        # so understating lam can only raise certify's lower bound
        lams = [F(k, 12) for k in range(13)]
        for theta in range(1, 6):
            g = edgeless_graph(theta)
            lowers = [curvature_graph_bounds(g, lam).lower for lam in lams]
            assert lowers == sorted(lowers, reverse=True)
            assert lowers[0] == 1 and lowers[-1] == F(1, theta + 1)

    def test_lambda_validation(self):
        with pytest.raises(InputError, match="lambda"):
            curvature_eta_bounds(5, 2, "7/2")


class TestMinEdgesBound:
    def test_examples(self):
        assert min_edges_bound(5, 2) == 4
        assert min_edges_bound(6, 3) == 3
        assert min_edges_bound(4, 4) == 0

    def test_matches_complement_turan(self):
        for n in range(1, 31):
            for k in range(2, n + 1):
                assert min_edges_bound(n, k) == complement_turan_graph(n, k).edge_count, (n, k)

    def test_k1_degenerates_to_complete(self):
        assert min_edges_bound(6, 1) == 15


class TestChainBoundCheck:
    def test_stage_count(self):
        rng = random.Random(31)
        f, X = random_cover_instance(rng, 5)
        chk = chain_bound_check(f, X, 5, 2)
        assert len(chk.stages) == len(STAGE_NAMES) == 8
        assert chk.holds

    def test_endpoint_bound(self):
        rng = random.Random(32)
        for n, q in ((3, 2), (5, 2), (7, 3), (4, 3), (6, 1)):
            for _ in range(20):
                f, X = random_cover_instance(rng, n)
                chk = chain_bound_check(f, X, n, q)
                assert chk.holds, (n, q)
                assert chk.optimum <= chk.r * chk.greedy_value

    def test_stage_order(self):
        rng = random.Random(33)
        f, X = random_cover_instance(rng, 7)
        chk = chain_bound_check(f, X, 7, 2)
        s = chk.stages
        assert s[0] <= s[1] == s[2] <= s[3] == s[4] <= s[5] == s[6] <= s[7]

    def test_rejects_wrong_residue(self):
        rng = random.Random(34)
        f, X = random_cover_instance(rng, 6)
        with pytest.raises(InputError, match="mod"):
            chain_bound_check(f, X, 6, 4)

    def test_rejects_wrong_agent_count(self):
        rng = random.Random(36)
        f, X = random_cover_instance(rng, 4)
        with pytest.raises(InputError, match=r"^agents: expected 5 agents, got 4$"):
            chain_bound_check(f, X, 5, 2)

    def test_null_decisions(self):
        # agent 2 has no decision: the telescoping sum skips it and its
        # relaxed terms are zero
        f = SetFunction.cover(("a", "b", "c"), ("x", "y"), {"x": 2, "y": 1},
                              {"a": ("x",), "b": ("y",), "c": ("x", "y")})
        X = AgentSpace([{"a", "b"}, set(), {"c"}])
        chk = chain_bound_check(f, X, 3, 2)
        assert chk.holds and chk.r == 2
        assert chk.stages == (3, 3, 3, 5, 5, 5, 5, 6)

    def test_single_agent(self):
        rng = random.Random(35)
        f, X = random_cover_instance(rng, 1)
        chk = chain_bound_check(f, X, 1, 1)
        assert chk.holds and chk.r == 1 and chk.optimum == chk.greedy_value


class _SupermodularPair(SetFunction):
    """f(S) = |S| + [b and c both in S] over {a, b, c}: normalized and
    monotone, but supermodular, though it claims all three axioms."""

    kind = "supermodular-pair"
    axioms_by_construction = True

    def __init__(self):
        super().__init__(("a", "b", "c"))

    def _evaluate(self, mask):
        return mask.bit_count() + (mask & 0b110 == 0b110)


class _DecreasingPair(SetFunction):
    """f(a) = 1, f(b) = 2 and f(ab) = 1: adding a to b loses value, though
    it claims all three axioms."""

    kind = "decreasing-pair"
    axioms_by_construction = True

    def __init__(self):
        super().__init__(("a", "b"))

    def _evaluate(self, mask):
        return (0, 1, 2, 1)[mask]


class TestCertify:
    def test_witness_suite_all_pass(self):
        entries = standard_witness_entries(4, (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)), p_max=3)
        report = certify(entries)
        assert report.count("FAIL") == 0
        assert report.equalities == len(report.rows)

    def test_random_suite_no_violations(self):
        report = certify(random_cover_entries(99, 200, 6))
        assert report.count("FAIL") == 0
        assert len(report.rows) == 200

    def test_a_row_on_a_graph_with_no_vertices_is_undefined(self):
        empty = SuiteEntry("empty", "g0", SetFunction.cover((), (), {}, {}), AgentSpace([]),
                           InformationGraph(0), F(1))
        report = certify([empty] + random_cover_entries(1, 3, 6))
        assert [r.verdict for r in report.rows] == ["undefined", "pass", "pass", "pass"]
        assert report.rows[0].note == "graph: has no vertices (alpha = 0), so its ratio bounds are undefined"

    def test_empty_suite(self):
        report = certify(())
        assert report.rows == () and report.count("FAIL") == 0

    def test_bad_witness_flagged(self):
        w = curvature_witness(edgeless_graph(3), F(1, 2))
        entry = witness_entry(w, "good", "g")
        broken = SuiteEntry("broken", "g", w.objective, w.agents, w.graph,
                            predicted_ratio=F(1, 7))
        report = certify([entry, broken])
        assert report.count("FAIL") == 1
        verdicts = {r.instance_id: r.verdict for r in report.rows}
        assert verdicts == {"good": "pass", "broken": "FAIL"}
        assert "predicted" in [r.note for r in report.rows if r.verdict == "FAIL"][0]

    def test_capacity_row_does_not_abort(self):
        rng = random.Random(36)
        f, X = random_cover_instance(rng, 3)
        big = SuiteEntry("big", "g25", f, X, InformationGraph(25))
        small = witness_entry(curvature_witness(edgeless_graph(2), F(1, 2)), "small", "g2")
        report = certify([big, small])
        assert report.count("capacity-error") == 1 and report.count("FAIL") == 0
        assert [r.verdict for r in report.rows] == ["capacity-error", "pass"]

    @pytest.mark.parametrize("values, note", list(AXIOM_BREAKERS.values()),
                             ids=list(AXIOM_BREAKERS))
    def test_table_breaking_an_axiom_is_inapplicable(self, monkeypatch, values, note):
        f = SetFunction.tabular(("a", "b"), values)
        bad = SuiteEntry("bad", "g2", f, AgentSpace([{"a"}, {"b"}]), InformationGraph(2),
                         predicted_ratio=F(1))
        good = witness_entry(curvature_witness(edgeless_graph(2), F(1, 2)), "good", "g2")
        rated = []

        def recording(objective, agents, graph):
            rated.append(objective)
            return empirical_ratio(objective, agents, graph)

        monkeypatch.setattr("pargreedy.bounds.empirical_ratio", recording)
        report = certify([bad, good])
        assert [r.verdict for r in report.rows] == ["inapplicable", "pass"]
        assert report.rows[0] == CertifyRow("bad", "g2", None, None, None, None, None, F(1),
                                            "inapplicable", note)
        assert report.count("inapplicable") == 1 and report.count("FAIL") == 0
        assert rated == [good.objective]  # no greedy run or optimum for the table

    @pytest.mark.parametrize("values, note", list(AXIOM_BREAKERS.values()),
                             ids=list(AXIOM_BREAKERS))
    def test_axiom_breaking_witness_file_exits_1(self, tmp_path, capsys, values, note):
        f = SetFunction.tabular(("a", "b"), values)
        path = tmp_path / "w.json"
        save_witness(WitnessInstance(f, AgentSpace([{"a"}, {"b"}]), InformationGraph(2),
                                     F(1), "tabular"), path)
        assert main(["certify", "--witness", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith(f" verdict=inapplicable note={note}")
        assert lines[1] == "rows=1 failures=0 capacity_errors=0 inapplicable=1 equalities=0"
        assert main(["certify", "--witness", str(path), "--json"]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["inapplicable"] == 1 and "undefined" not in obj
        assert obj["rows"][0]["verdict"] == "inapplicable" and obj["rows"][0]["note"] == note

    def test_table_holding_the_axioms_certifies_like_its_kind(self):
        w = curvature_witness(edgeless_graph(3), F(1, 2))
        f = w.objective
        table = SetFunction.tabular(f.ground, {f.mask_subset(m): f.mask_value(m)
                                               for m in range(1 << len(f.ground))})
        as_table = SuiteEntry("w", "g", table, w.agents, w.graph, w.predicted_ratio)
        report = certify([witness_entry(w, "w", "g"), as_table])
        assert report.rows[0] == report.rows[1] and report.rows[0].verdict == "pass"

    def test_zero_optimum_row_is_undefined(self):
        zero = SetFunction.cover(("a",), ("y",), {"y": 0}, {"a": ("y",)})
        entry = SuiteEntry("zero", "g1", zero, AgentSpace([{"a"}]), InformationGraph(1))
        good = witness_entry(curvature_witness(edgeless_graph(2), F(1, 2)), "good", "g2")
        report = certify([entry, good])
        assert [r.verdict for r in report.rows] == ["undefined", "pass"]
        assert report.rows[0].note == "optimum value is 0, ratio undefined"
        assert report.count("undefined") == 1 and report.count("inapplicable") == 0

    def test_zero_optimum_file_reports_every_row(self, tmp_path, capsys):
        zero = SetFunction.cover(("a",), ("y",), {"y": 0}, {"a": ("y",)})
        path = tmp_path / "zero.json"
        save_witness(WitnessInstance(zero, AgentSpace([{"a"}]), InformationGraph(1),
                                     F(1), "cover"), path)
        argv = ["certify", "--witness", str(path), "--suite", "witnesses",
                "--alpha-max", "2", "--lambdas", "1/2"]
        suite = len(standard_witness_entries(2, (F(1, 2),)))
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + suite + 1
        assert lines[0].endswith(" verdict=undefined note=optimum value is 0, ratio undefined")
        assert all(" verdict=pass" in line for line in lines[1:-1])
        assert lines[-1] == (f"rows={1 + suite} failures=0 capacity_errors=0 undefined=1 "
                             f"equalities={suite}")
        assert main(argv + ["--json"]) == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["undefined"] == 1 and "inapplicable" not in obj
        assert [r["verdict"] for r in obj["rows"]] == ["undefined"] + ["pass"] * suite

    def test_row_input_error_does_not_abort(self):
        f = SetFunction.cover(("a", "b"), ("y",), {"y": 1}, {"a": ("y",), "b": ("y",)})
        bad = SuiteEntry("bad", "g3", f, AgentSpace([{"a"}, {"b"}]), InformationGraph(3))
        good = witness_entry(curvature_witness(edgeless_graph(2), F(1, 2)), "good", "g2")
        report = certify([bad, good])
        assert report.rows[0] == CertifyRow("bad", "g3", None, None, None, None, None, None,
                                            "input-error",
                                            "agents: 2 agents but graph has 3 vertices")
        assert report.rows[1].verdict == "pass"
        assert (report.count("input-error"), report.count("FAIL"),
                report.count("undefined")) == (1, 0, 0)
        assert report.to_lines()[-1] == (
            "rows=2 failures=0 capacity_errors=0 input_errors=1 equalities=1")

    @pytest.mark.parametrize("ratio, verdict, note", [
        (lambda lower: lower, "pass", ""),
        (lambda lower: lower - F(1, 10**6), "FAIL",
         "empirical ratio below guaranteed lower bound"),
        (lambda lower: F(101, 100), "FAIL", "empirical ratio above 1"),
    ], ids=["at-lower", "just-below-lower", "above-1"])
    def test_lower_bound_and_one_are_checked(self, monkeypatch, ratio, verdict, note):
        # No honest row leaves [lower, 1], so the ratio is forced to show
        # that the check is live and names the side that was crossed.
        w = curvature_witness(edgeless_graph(3), F(1, 2))
        lower = curvature_graph_bounds(w.graph, F(1, 2)).lower
        assert lower == F(4, 7)
        emp = ratio(lower)
        monkeypatch.setattr("pargreedy.bounds.empirical_ratio", lambda f, agents, graph: emp)
        report = certify([SuiteEntry("w", "e3", w.objective, w.agents, w.graph)])
        failures = int(verdict == "FAIL")
        assert report.rows == (CertifyRow("w", "e3", emp, lower, F(1, 3), None, F(1, 2), None,
                                          verdict, note),)
        assert report.to_lines() == [
            f"row instance=w graph=e3 empirical={emp} lower=4/7 upper=1/3 curvature=1/2 "
            f"verdict={verdict}" + (f" note={note}" if note else ""),
            f"rows=1 failures={failures} capacity_errors=0 equalities=0"]
        assert report.to_json_obj() == {
            "rows": [{"instance": "w", "graph": "e3", "empirical": str(emp), "lower": "4/7",
                      "upper": "1/3", "refined_upper": None, "curvature": "1/2",
                      "predicted": None, "verdict": verdict, "note": note}],
            "failures": failures, "capacity_errors": 0, "equalities": 0}
        assert report.exit_status == failures

    @pytest.mark.parametrize("f, agents, graph, expected", [
        (_SupermodularPair(), AgentSpace([{"a", "b"}, {"c"}]), edgeless_graph(2),
         (F(2, 3), F(1), F(1, 2), F(0), "empirical ratio below guaranteed lower bound")),
        (_DecreasingPair(), AgentSpace([{"a", "b"}]), edgeless_graph(1),
         (F(2), F(1, 3), F(1), F(2), "empirical ratio above 1")),
    ], ids=["supermodular", "not-monotone"])
    def test_a_real_row_outside_lower_and_one_fails(self, f, agents, graph, expected):
        # Each objective claims the axioms, so no check stops it and the
        # row runs the real greedy and optimum.  The supermodular one has
        # closed-form curvature 0, so its lower bound is 1, and worst greedy
        # gets 2/3 of the optimum, strictly between lower/2 and lower.  The
        # decreasing one makes the optimum stop at its first profile, worth
        # f(ground), while greedy takes the other one, worth twice as much.
        emp, lower, upper, lam, note = expected
        report = certify([SuiteEntry("x", "g", f, agents, graph)])
        assert report.rows == (CertifyRow("x", "g", emp, lower, upper, None, lam, None,
                                          "FAIL", note),)
        assert lower / 2 < emp < lower or emp > 1
        assert report.to_lines() == [
            f"row instance=x graph=g empirical={emp} lower={lower} upper={upper} "
            f"curvature={lam} verdict=FAIL note={note}",
            "rows=1 failures=1 capacity_errors=0 equalities=0"]
        assert report.to_json_obj()["rows"][0]["note"] == note
        assert report.exit_status == 1

    def test_row_order_follows_input(self):
        entries = standard_witness_entries(2, (F(0), F(1)))
        report = certify(entries)
        assert [r.instance_id for r in report.rows] == [e.instance_id for e in entries]

    def test_report_lines_and_json(self):
        report = certify(standard_witness_entries(2, (F(1, 2),)))
        lines = report.to_lines()
        assert lines[-1].startswith("rows=") and "failures=0" in lines[-1]
        obj = report.to_json_obj()
        assert obj["failures"] == 0 and len(obj["rows"]) == len(report.rows)

    def test_readme_verdict_table_matches_the_verdict_table(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = []
        for line in readme.splitlines():
            # the cells between unescaped pipes, without spaces and backticks
            cells = [c.strip().strip("`") for c in re.split(r"(?<!\\)\|", line)[1:-1]]
            if len(cells) == 5 and cells[0] in ("pass", *(v[0] for v in VERDICTS)):
                table.append((cells[0], cells[2], cells[3], cells[4]))
        assert table == [("pass", "", "", "0")] + [
            (v, key, "yes" if always else "no", str(status))
            for v, key, always, status in VERDICTS]

    def test_curvature_lower_bound_used_on_small_grounds(self):
        w = curvature_witness(edgeless_graph(3), F(1, 2))
        report = certify([witness_entry(w, "w", "g")])
        row = report.rows[0]
        assert row.curvature == F(1, 2)
        # curvature-form bound with theta = 3: (3 - 2*1/2) / (3 + 1/2) = 4/7
        assert row.lower == F(4, 7)

    def test_curvature_bound_on_grounds_above_ten(self):
        w = curvature_witness(edgeless_graph(6), F(1, 2))
        assert len(w.objective.ground) == 12
        report = certify([witness_entry(w, "w", "g")])
        row = report.rows[0]
        assert row.verdict == "pass"
        # (6 - 5*1/2) / (6 + 1/2) = 7/13
        assert row.curvature == F(1, 2) and row.lower == F(7, 13)


class TestThetaOracleOnBoundInputs:
    def test_theta_cross_check_small(self):
        rng = random.Random(37)
        for _ in range(15):
            n = rng.randint(1, 6)
            g = InformationGraph(
                n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                    if rng.random() < 0.4])
            b = graph_ratio_bounds(g)
            assert b.lower == F(1, brute_theta(g) + 1)
