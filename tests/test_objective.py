"""Objective evaluation, axiom checks and total curvature."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pargreedy import (
    AgentSpace,
    CapacityError,
    InputError,
    SetFunction,
    check_partition,
    check_properties,
    total_curvature,
)

from pargreedy.suites import random_cover_entries, standard_witness_entries

from conftest import brute_submodular, brute_total_curvature

F = Fraction


class TestEvaluate:
    def test_empty_set_is_zero(self, cover_fixture):
        assert cover_fixture.value(()) == 0

    def test_cover_union(self, cover_fixture):
        assert cover_fixture.value(("a", "b")) == 3
        assert cover_fixture.value(("a",)) == 1
        assert cover_fixture.value(("b",)) == 3

    def test_unknown_element(self, cover_fixture):
        with pytest.raises(InputError, match="unknown element"):
            cover_fixture.value(("zzz",))

    def test_values_are_exact_rationals(self, cover_fixture):
        v = cover_fixture.value(("a",))
        assert isinstance(v, Fraction)

    def test_deterministic(self, cover_fixture):
        assert cover_fixture.value(("a", "b")) == cover_fixture.value(("b", "a"))

    def test_fractional_weights(self):
        f = SetFunction.cover(("a",), ("y",), {"y": "2/3"}, {"a": ("y",)})
        assert f.value(("a",)) == F(2, 3)

    def test_float_weight_rejected(self):
        with pytest.raises(InputError, match="weights"):
            SetFunction.cover(("a",), ("y",), {"y": 0.5}, {"a": ("y",)})


def _one_of_each_kind():
    return [
        SetFunction.tabular(("a",), {(): 0, ("a",): 1}),
        SetFunction.cover(("a",), ("y",), {"y": 1}, {"a": ("y",)}),
        SetFunction.curvature_witness(("a",), (), F(1, 2)),
        SetFunction.p_additive_witness(("a",), ("a",), (), 1),
    ]


class TestEvaluationEntryPoint:
    """Every evaluation goes through ``SetFunction.mask_value``: tools that
    count evaluations rebind that one attribute."""

    def test_no_kind_overrides_mask_value(self):
        for f in _one_of_each_kind():
            for cls in type(f).__mro__:
                if cls is not SetFunction:
                    assert "mask_value" not in cls.__dict__, (f.kind, cls)

    def test_rebound_mask_value_sees_every_kind(self, monkeypatch):
        original = SetFunction.__dict__["mask_value"]
        seen = []

        def counting(f, mask):
            seen.append(f.kind)
            return original(f, mask)

        monkeypatch.setattr(SetFunction, "mask_value", counting)
        for f in _one_of_each_kind():
            assert f.value(("a",)) == 1
        assert seen == ["tabular", "cover", "curvature-witness", "p-additive-witness"]


class TestMarginal:
    def test_empty_increment(self, cover_fixture):
        assert cover_fixture.marginal((), ("a",)) == 0
        assert cover_fixture.marginal((), ()) == 0

    def test_already_covered(self, cover_fixture):
        assert cover_fixture.marginal(("a",), ("b",)) == 0

    def test_from_scratch(self, cover_fixture):
        assert cover_fixture.marginal(("b",), ()) == 3


class TestTabular:
    def test_requires_all_subsets(self):
        with pytest.raises(InputError, match="no value for subset"):
            SetFunction.tabular(("a", "b"), {(): 0, ("a",): 1})

    def test_duplicate_subset(self):
        with pytest.raises(InputError, match="defined twice"):
            SetFunction.tabular(("a",), {(): 0, "a": 1, ("a",): 2})

    def test_cap(self):
        ground = tuple(f"e{i}" for i in range(17))
        with pytest.raises(CapacityError):
            SetFunction.tabular(ground, {})

    def test_lookup(self):
        f = SetFunction.tabular(("a", "b"), {(): 0, ("a",): 1, ("b",): 1, ("a", "b"): "3/2"})
        assert f.value(("a", "b")) == F(3, 2)


class TestCheckProperties:
    def test_cover_is_submodular(self, cover_fixture):
        report = check_properties(cover_fixture)
        assert report.normalized and report.monotone and report.submodular
        assert report.counterexample is None

    def test_supermodular_counterexample(self):
        f = SetFunction.tabular(
            ("a", "b"), {(): 0, ("a",): 1, ("b",): 1, ("a", "b"): 3})
        report = check_properties(f)
        assert report.submodular is False
        cx = report.counterexample
        assert cx.prop == "submodular"
        small, large = cx.contexts
        assert small <= large and cx.element not in large
        assert cx.values[0] < cx.values[1]
        # witness values recompute against f (here: gain 1 before, 2 after)
        assert f.marginal((cx.element,), small) == cx.values[0] == 1
        assert f.marginal((cx.element,), large) == cx.values[1] == 2

    def test_zero_function(self):
        f = SetFunction.tabular(("a", "b"), {s: 0 for s in [(), ("a",), ("b",), ("a", "b")]})
        report = check_properties(f)
        assert report.all_hold and report.curvature == 0

    def test_not_normalized(self):
        f = SetFunction.tabular(("a",), {(): 1, ("a",): 2})
        report = check_properties(f)
        assert not report.normalized
        assert report.counterexample.prop == "normalized"
        assert report.curvature is None

    def test_not_monotone(self):
        f = SetFunction.tabular(("a", "b"), {(): 0, ("a",): 2, ("b",): 1, ("a", "b"): 1})
        report = check_properties(f)
        assert not report.monotone
        assert report.counterexample.prop == "monotone"

    def test_cap_error(self):
        ids = tuple(f"e{i}" for i in range(17))
        f = SetFunction.cover(ids, ("y",), {"y": 1}, {e: ("y",) for e in ids})
        with pytest.raises(CapacityError):
            check_properties(f)

    def test_matches_full_quantifier_oracle(self):
        good = SetFunction.cover(
            ("a", "b", "c"), ("y1", "y2"), {"y1": 2, "y2": 3},
            {"a": ("y1",), "b": ("y1", "y2"), "c": ("y2",)})
        bad = SetFunction.tabular(
            ("a", "b"), {(): 0, ("a",): 1, ("b",): 1, ("a", "b"): 3})
        assert check_properties(good).submodular == brute_submodular(good) is True
        assert check_properties(bad).submodular == brute_submodular(bad) is False


class TestTotalCurvature:
    def test_modular_is_zero(self):
        f = SetFunction.cover(
            ("a", "b"), ("y1", "y2"), {"y1": 1, "y2": 5},
            {"a": ("y1",), "b": ("y2",)})
        assert total_curvature(f) == 0

    def test_rank_function_is_one(self):
        f = SetFunction.tabular(
            ("a", "b"), {(): 0, ("a",): 1, ("b",): 1, ("a", "b"): 1})
        assert total_curvature(f) == 1

    def test_witness_parameter_recovered(self):
        f = SetFunction.curvature_witness(("u1", "u2", "u3"), ("v1", "v2", "v3"), F(1, 2))
        assert total_curvature(f) == F(1, 2)

    def test_definition_attained(self):
        # lam* satisfies f(e|A) >= (1-lam*) f(e) everywhere, with equality somewhere
        f = SetFunction.cover(
            ("a", "b", "c"), ("y1", "y2"), {"y1": 2, "y2": 3},
            {"a": ("y1",), "b": ("y1", "y2"), "c": ("y2",)})
        lam = total_curvature(f)
        n = len(f.ground)
        tight = False
        for e in f.ground:
            fe = f.value((e,))
            if fe == 0:
                continue
            others = [g for g in f.ground if g != e]
            for bits in range(1 << len(others)):
                ctx = [others[i] for i in range(len(others)) if bits >> i & 1]
                gain = f.marginal((e,), ctx)
                assert gain >= (1 - lam) * fe
                if gain == (1 - lam) * fe:
                    tight = True
        assert tight

    def test_all_zero_singletons(self):
        f = SetFunction.tabular(("a",), {(): 0, ("a",): 0})
        assert total_curvature(f) == 0


class TestAgentSpace:
    def test_disjointness_enforced(self):
        with pytest.raises(InputError, match="disjoint"):
            AgentSpace([{"a", "b"}, {"b"}])

    def test_null_decisions_allowed(self):
        X = AgentSpace([{"a"}, set(), {"b"}])
        assert X.n == 3 and X.decisions[1] == frozenset()

    def test_partition_check(self, cover_fixture):
        check_partition(cover_fixture, AgentSpace([{"a"}, {"b"}]))
        with pytest.raises(InputError, match="not owned"):
            check_partition(cover_fixture, AgentSpace([{"a"}]))
        with pytest.raises(InputError, match="not in ground"):
            check_partition(cover_fixture, AgentSpace([{"a", "b", "c"}]))


@st.composite
def random_cover(draw):
    n_elem = draw(st.integers(1, 5))
    n_targ = draw(st.integers(1, 4))
    ground = tuple(f"e{i}" for i in range(n_elem))
    targets = tuple(f"y{t}" for t in range(n_targ))
    weights = {t: draw(st.integers(0, 6)) for t in targets}
    coverage = {e: tuple(t for t in targets if draw(st.booleans())) for e in ground}
    return SetFunction.cover(ground, targets, weights, coverage)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(random_cover())
    def test_covers_satisfy_all_axioms(self, f):
        report = check_properties(f)
        assert report.all_hold
        assert 0 <= report.curvature <= 1

    @settings(max_examples=40, deadline=None)
    @given(random_cover())
    def test_diminishing_returns_full_form(self, f):
        assert brute_submodular(f)

    @settings(max_examples=40, deadline=None)
    @given(random_cover())
    def test_curvature_bound_holds_everywhere(self, f):
        lam = total_curvature(f)
        for e in f.ground:
            fe = f.value((e,))
            if fe == 0:
                continue
            rest = [g for g in f.ground if g != e]
            for bits in range(1 << len(rest)):
                ctx = [rest[i] for i in range(len(rest)) if bits >> i & 1]
                assert f.marginal((e,), ctx) >= (1 - lam) * fe


@st.composite
def random_tabular(draw):
    n = draw(st.integers(1, 4))
    ground = tuple(f"e{i}" for i in range(n))
    values = {tuple(ground[i] for i in range(n) if m >> i & 1): draw(st.integers(0, 6))
              for m in range(1 << n)}
    return SetFunction.tabular(ground, values)


class TestClosedFormCurvatureAgainstScan:
    """total_curvature's closed form against the O(n 2^n) definition scan."""

    def test_equal_on_seeded_random_suite(self):
        entries = random_cover_entries(7, 500, 6)
        for entry in entries:
            assert total_curvature(entry.objective) == brute_total_curvature(entry.objective)

    def test_equal_on_every_witness_family(self):
        entries = standard_witness_entries(4, (F(0), F(1, 3), F(1, 2), F(1)), p_max=3)
        assert {e.objective.kind for e in entries} == {
            "curvature-witness", "p-additive-witness", "cover"}
        for entry in entries:
            assert total_curvature(entry.objective) == brute_total_curvature(entry.objective)

    @settings(max_examples=60, deadline=None)
    @given(random_cover())
    def test_equal_on_covers(self, f):
        assert total_curvature(f) == brute_total_curvature(f)

    @settings(max_examples=80, deadline=None)
    @given(random_tabular())
    def test_never_above_scan_on_arbitrary_tables(self, f):
        assert total_curvature(f) <= brute_total_curvature(f)

    def test_supermodular_pair(self):
        f = SetFunction.tabular(("a", "b"), {(): 0, ("a",): 1, ("b",): 1, ("a", "b"): 3})
        assert not check_properties(f).submodular
        assert total_curvature(f) == brute_total_curvature(f) == 0

    def test_strictly_below_scan_off_hypotheses(self):
        # f(a|{b}) = 0 gives the scan lam = 1; at S \ {a} the marginal is 1.
        f = SetFunction.tabular(("a", "b", "c"), {
            (): 0, ("a",): 1, ("b",): 1, ("c",): 1, ("a", "b"): 1,
            ("a", "c"): 2, ("b", "c"): 2, ("a", "b", "c"): 3})
        assert not check_properties(f).submodular
        assert total_curvature(f) == 0 < brute_total_curvature(f) == 1
