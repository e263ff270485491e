"""Objective evaluation, axiom checks and total curvature."""

import json
import random
import sys
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pargreedy import (
    AgentSpace,
    CapacityError,
    InformationGraph,
    InputError,
    SetFunction,
    brute_force_optimum,
    check_partition,
    check_properties,
    run_greedy,
    total_curvature,
)

from pargreedy import objective
from pargreedy.objective import (
    OBJECTIVE_KINDS,
    SCALE_BITS_CAP,
    CoverFunction,
    PropertyReport,
    PropertyViolation,
    TabularFunction,
    as_fraction,
)
from pargreedy.serialize import instance_from_obj, load_instance, save_instance
from pargreedy.suites import random_cover_entries, standard_witness_entries

from conftest import (
    EntryByEntryTable,
    FractionOracle,
    blow_up_values,
    brute_submodular,
    brute_total_curvature,
    objective_instances,
    table_payloads,
    three_pass_properties,
)

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

    def test_ground_index_of_an_unknown_element(self, cover_fixture):
        assert cover_fixture.ground_index("b") == 1
        with pytest.raises(InputError, match=r"^unknown element id 'zzz'$"):
            cover_fixture.ground_index("zzz")

    def test_float_weight_rejected(self):
        with pytest.raises(InputError, match="weights"):
            SetFunction.cover(("a",), ("y",), {"y": 0.5}, {"a": ("y",)})


def _cover(**changes):
    """A two-element, two-target cover with ``changes`` to its arguments."""
    args = {"ground": ("a", "b"), "targets": ("y", "z"), "weights": {"y": 1, "z": 2},
            "coverage": {"a": ("y",), "b": ("z",)}}
    return SetFunction.cover(**{**args, **changes})


@pytest.mark.parametrize("changes, message", [
    ({"ground": ("a", "")}, "ground: element ids must be nonempty strings, got ''"),
    ({"ground": ("a", "a")}, "ground: duplicate element id 'a'"),
    ({"targets": ("y", "z", "y")}, "targets: duplicate target id 'y'"),
    ({"weights": {"y": 1, "z": 2, "w": 1}}, "weights: unknown target id 'w'"),
    ({"weights": {"y": 1, "z": "-2/3"}}, "weights['z']: negative weight -2/3"),
    ({"weights": {"y": 1}}, "weights: missing weight for target 'z'"),
    ({"coverage": {"a": ("y",), "b": ("z",), "c": ()}}, "coverage: unknown element id 'c'"),
    ({"coverage": {"a": ("y",), "b": ("x",)}}, "coverage['b']: unknown target id 'x'"),
    ({"coverage": {"a": ("y",)}}, "coverage: no entry for element 'b'"),
    ({"ground": "ab"}, "ground: expected a collection of ids, got the string 'ab'"),
    ({"targets": "yz"}, "targets: expected a collection of ids, got the string 'yz'"),
    ({"coverage": {"a": "y", "b": ("z",)}},
     "coverage['a']: expected a collection of ids, got the string 'y'"),
    ({"ground": b"ab"}, "ground: expected a collection of ids, got bytes b'ab'"),
    ({"targets": bytearray(b"yz")},
     "targets: expected a collection of ids, got bytearray bytearray(b'yz')"),
    ({"coverage": {"a": b"y", "b": ("z",)}},
     "coverage['a']: expected a collection of ids, got bytes b'y'"),
    ({"targets": ("y", 1), "weights": {}}, "targets: target ids must be strings, got 1"),
    ({"targets": (1, "z"), "weights": {1: 1, "z": 2}, "coverage": {"a": (1,), "b": ("z",)}},
     "targets: target ids must be strings, got 1"),
    ({"targets": None}, "targets: expected a collection of ids, got None"),
    ({"coverage": {"a": 5, "b": ("z",)}}, "coverage['a']: expected a collection of ids, got 5"),
], ids=["empty-id", "duplicate-id", "duplicate-target", "unknown-weight-target",
        "negative-weight", "missing-weight", "unknown-element", "unknown-target",
        "uncovered-element", "ground-string", "targets-string", "coverage-string",
        "ground-bytes", "targets-bytearray", "coverage-bytes", "target-id-not-a-string",
        "target-id-not-a-string-but-covered", "targets-none", "coverage-int"])
def test_cover_arguments_are_checked_by_field(changes, message):
    with pytest.raises(InputError) as exc:
        _cover(**changes)
    assert str(exc.value) == message


@pytest.mark.parametrize("raw, message", [
    (True, "weights['y']: expected a rational, got a boolean"),
    (0.5, "weights['y']: expected int, 'p/q' string or Fraction, got float"),
    ("1/0", "weights['y']: invalid rational '1/0' (Fraction(1, 0))"),
    ("abc", "weights['y']: invalid rational 'abc' (Invalid literal for Fraction: 'abc')"),
    ("-2/3", "weights['y']: negative weight -2/3"),
    (" 3 ", None), ("1.5", None), ("007", None), ("6/4", None), (F(3, 2), None),
], ids=["bool", "float", "zero-denominator", "not-a-number", "negative", "spaces",
        "decimal", "leading-zeros", "unreduced", "fraction"])
def test_cover_weight_spellings_read_as_as_fraction_reads_them(raw, message):
    # each weight is accepted with the value as_fraction gives it, or
    # rejected with the message the cover constructor has always given
    if message is not None:
        with pytest.raises(InputError) as exc:
            _cover(weights={"y": raw, "z": 2})
        assert str(exc.value) == message
        return
    f = _cover(weights={"y": raw, "z": 2})
    assert f.value(("a",)) == as_fraction(raw)
    assert f.value(("a", "b")) == as_fraction(raw) + 2
    assert f.scale == as_fraction(raw).denominator


_ID_COLLECTION_ENTRY_POINTS = {
    "ground": lambda ids: _cover(ground=ids),
    "agents": lambda ids: AgentSpace([("a",), ids]),
    "targets": lambda ids: _cover(targets=ids),
    "coverage": lambda ids: _cover(coverage={"a": ids, "b": ("z",)}),
    "subset_mask": lambda ids: _cover().subset_mask(ids),
    "value": lambda ids: _cover().value(ids),
    "marginal-added": lambda ids: _cover().marginal(ids, ()),
    "marginal-context": lambda ids: _cover().marginal((), ids),
    "curvature-u": lambda ids: SetFunction.curvature_witness(ids, ("c",), F(1, 2)),
    "curvature-v": lambda ids: SetFunction.curvature_witness(("c",), ids, F(1, 2)),
    "p-additive-u": lambda ids: SetFunction.p_additive_witness(("a", "b", "c"), ids, ("c",), 1),
    "p-additive-v": lambda ids: SetFunction.p_additive_witness(("a", "b", "c"), ("c",), ids, 1),
}


@pytest.mark.parametrize("entry_point", _ID_COLLECTION_ENTRY_POINTS)
@pytest.mark.parametrize("ids", ["ab", b"ab", bytearray(b"ab")], ids=["str", "bytes", "bytearray"])
def test_every_collection_of_ids_refuses_a_bare_string(entry_point, ids):
    # each character of "ab" is a known id, so a call that reads the
    # string as a collection returns a value instead of raising
    with pytest.raises(InputError):
        _ID_COLLECTION_ENTRY_POINTS[entry_point](ids)


@pytest.mark.parametrize("entry_point", _ID_COLLECTION_ENTRY_POINTS)
@pytest.mark.parametrize("ids", [None, 5], ids=["None", "int"])
def test_every_collection_of_ids_refuses_a_non_collection(entry_point, ids):
    with pytest.raises(InputError, match=rf"expected a collection of ids, got {ids!r}$"):
        _ID_COLLECTION_ENTRY_POINTS[entry_point](ids)


@pytest.mark.parametrize("call, message", [
    (AgentSpace, "agents: expected a sequence of decision sets, got {!r}"),
    (lambda given: _cover(weights=given), "weights: expected a mapping, got {!r}"),
    (lambda given: _cover(coverage=given), "coverage: expected a mapping, got {!r}"),
], ids=["agents", "weights", "coverage"])
@pytest.mark.parametrize("given", [None, 5], ids=["None", "int"])
def test_an_argument_of_the_wrong_type_is_named(call, message, given):
    with pytest.raises(InputError) as exc:
        call(given)
    assert str(exc.value) == message.format(given)


@pytest.mark.parametrize("call", [
    lambda f: f.subset_mask("ab"), lambda f: f.value("ab"),
    lambda f: f.marginal("ab", ()), lambda f: f.marginal(("a",), "ab"),
], ids=["subset_mask", "value", "marginal-added", "marginal-context"])
def test_a_subset_given_as_a_string_is_named(call):
    with pytest.raises(InputError) as exc:
        call(_cover())
    assert str(exc.value) == "ids: expected a collection of ids, got the string 'ab'"


@pytest.mark.parametrize("u, v, message", [
    (["a", "a"], ["b"], "u: repeated element id 'a'"),
    (["a"], ["b", "c", "b"], "v: repeated element id 'b'"),
], ids=["u", "v"])
def test_a_p_additive_block_repeats_no_id(u, v, message):
    # read as a set, ["a", "a"] would be U = {a} and save as ["a"]
    with pytest.raises(InputError) as exc:
        SetFunction.p_additive_witness(("a", "b", "c"), u, v, 2)
    assert str(exc.value) == message


def _one_of_each_kind():
    return [
        SetFunction.tabular(("a",), {(): 0, ("a",): 1}),
        SetFunction.cover(("a",), ("y",), {"y": 1}, {"a": ("y",)}),
        SetFunction.curvature_witness(("a",), (), F(1, 2)),
        SetFunction.p_additive_witness(("a",), ("a",), (), 1),
    ]


class TestEvaluationEntryPoint:
    """Every evaluation goes through ``SetFunction.scaled_value``, and every
    exact value through its view ``SetFunction.mask_value``: tools that
    count evaluations rebind one of these attributes."""

    def test_no_kind_overrides_mask_value(self):
        for f in _one_of_each_kind():
            for cls in type(f).__mro__:
                if cls is not SetFunction:
                    assert "mask_value" not in cls.__dict__, (f.kind, cls)
                    assert "scaled_value" not in cls.__dict__, (f.kind, cls)

    def test_mask_value_is_the_scaled_value_over_the_scale(self):
        scales = []
        for f in _one_of_each_kind():
            for mask in range(1 << len(f.ground)):
                v = f.scaled_value(mask)
                assert type(v) is int and type(f.scale) is int and f.scale >= 1
                assert f.mask_value(mask) == Fraction(v, f.scale)
            scales.append(f.scale)
        assert scales == [1, 1, 2, 1]

    def test_rebound_scaled_value_sees_every_kind_and_every_search(self, monkeypatch):
        original = SetFunction.__dict__["scaled_value"]
        seen = []

        def counting(f, mask):
            seen.append(f.kind)
            return original(f, mask)

        monkeypatch.setattr(SetFunction, "scaled_value", counting)
        for f in _one_of_each_kind():
            assert f.value(("a",)) == 1
            X = AgentSpace([{"a"}])
            assert brute_force_optimum(f, X) == (("a",), 1)
            assert run_greedy(f, X, InformationGraph(1), "worst").value == 1
            assert total_curvature(f) == 0
            assert check_properties(f).all_hold
        kinds = ["tabular", "cover", "curvature-witness", "p-additive-witness"]
        assert list(dict.fromkeys(seen)) == kinds
        assert all(seen.count(k) >= 5 for k in kinds)

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

    def test_repeated_element_rejected_as_in_files(self):
        repeated = "repeated element in subset key"
        with pytest.raises(InputError, match=rf"^values\[\['a', 'a'\]\]: {repeated}$"):
            SetFunction.tabular(("a", "b"), {(): 0, ("a", "a"): 1, ("b",): 1, ("a", "b"): 2})
        with pytest.raises(InputError, match=rf"^objective.values\['a,a'\]: {repeated}$"):
            TabularFunction.from_obj(("a", "b"), {"values": {"": 0, "a,a": 1, "b": 1, "a,b": 2}})

    def test_cap(self):
        ground = tuple(f"e{i}" for i in range(17))
        with pytest.raises(CapacityError):
            SetFunction.tabular(ground, {})

    def test_lookup(self):
        f = SetFunction.tabular(("a", "b"), {(): 0, ("a",): 1, ("b",): 1, ("a", "b"): "3/2"})
        assert f.value(("a", "b")) == F(3, 2)

    def test_a_values_key_that_is_not_a_string(self):
        # a frozenset key belongs to SetFunction.tabular, not to a table's values
        with pytest.raises(InputError) as exc:
            TabularFunction(("a",), {frozenset(): 0, frozenset({"a"}): 1})
        assert str(exc.value) == (
            "values: keys must be strings of comma-separated ids, got frozenset()")

    def test_a_subset_key_that_is_not_a_collection(self):
        with pytest.raises(InputError) as exc:
            SetFunction.tabular(("a",), {(): 0, 5: 1})
        assert str(exc.value) == "values: expected a collection of ids, got 5"

    def test_a_bad_value_under_a_key_of_mixed_id_types(self):
        # naming the value sorts the key's ids, here an int and a str
        with pytest.raises(InputError) as exc:
            SetFunction.tabular(("a",), {(): 0, (1, "a"): "x"})
        assert str(exc.value).startswith("values[[1, 'a']]: invalid rational 'x'")

    def test_a_mask_outside_the_ground_set(self):
        f = SetFunction.tabular(("a", "b"), {(): 0, ("a",): 1, ("b",): 1, ("a", "b"): 2})
        with pytest.raises(InputError, match=r"^mask 4: not a subset of the 2-element ground set$"):
            f.mask_value(4)


class TestTableParse:
    """``TabularFunction.from_obj`` reads plain integers and "N" / "N/M"
    strings itself: each value gets what ``as_fraction`` gives it, the same
    value or the same rejection."""

    VALUES = ["0", "007", "2/4", "1/0", "0/0", " 1/2", "+1", "-1",
              "1.5", "1e3", "1_0", "\u0663", "1/-2", "/2", "1/", "",
              3, -3, 1.5, True]

    @staticmethod
    def _parse(raw):
        try:
            f = TabularFunction.from_obj(("a",), {"values": {"": 0, "a": raw}})
        except InputError as exc:
            return "error", str(exc)
        return "value", f.mask_value(1)

    @staticmethod
    def _as_fraction(raw):
        try:
            v = as_fraction(raw, "objective.values['a']")
        except InputError as exc:
            return "error", str(exc)
        if v < 0:
            return "error", f"values[['a']]: negative value {v}"
        return "value", v

    @pytest.mark.parametrize("raw", VALUES, ids=repr)
    def test_same_as_as_fraction(self, raw):
        assert self._parse(raw) == self._as_fraction(raw)

    def test_accepts_exactly_these(self):
        accepted = [raw for raw in self.VALUES if self._parse(raw)[0] == "value"]
        assert accepted == ["0", "007", "2/4", " 1/2", "+1", "1.5", "1e3", "1_0", "\u0663", 3]

    def test_plain_values_build_no_fraction(self, monkeypatch):
        def refuse(raw, field="value"):
            raise AssertionError(f"as_fraction({raw!r})")

        monkeypatch.setattr("pargreedy.objective.as_fraction", refuse)
        for raw in ("0", "007", "2/4", 3):
            assert self._parse(raw) == ("value", Fraction(raw))

    def test_a_value_with_more_digits_than_int_converts(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            raw = "1" * 641
            with pytest.raises(InputError, match=r"^objective\.values\['a'\]: invalid rational"):
                TabularFunction.from_obj(("a",), {"values": {"": 0, "a": raw}})
            with pytest.raises(InputError, match=r"^values\[\['a'\]\]: invalid rational"):
                SetFunction.tabular(("a",), {(): 0, ("a",): raw})
        finally:
            sys.set_int_max_str_digits(limit)

    def test_unreduced_values_share_one_scale(self):
        f = TabularFunction.from_obj(("a", "b"), {"values": {
            "": "0", "a": "2/4", "b": "4/6", "a,b": "10/12"}})
        assert f.scale == 6
        assert [f.scaled_value(m) for m in range(4)] == [0, 3, 4, 5]
        assert [f.mask_value(m) for m in range(4)] == [0, F(1, 2), F(2, 3), F(5, 6)]


class TestOnePassTableParse:
    """``TabularFunction.from_obj`` against ``EntryByEntryTable``, the
    parser that splits every key and parses every value: the same scale and
    scaled table, or the same error first."""

    @staticmethod
    def _read(build, ground, values):
        try:
            f = build(ground, {"values": values})
        except InputError as exc:
            return "error", str(exc)
        table = [f.scaled_value(m) for m in range(1 << len(ground))]
        return f.scale, [type(v) for v in table], table

    @settings(max_examples=400, deadline=None)
    @given(table_payloads())
    def test_same_as_entry_by_entry(self, table):
        ground, values = table
        assert self._read(TabularFunction.from_obj, ground, values) == \
            self._read(EntryByEntryTable, ground, values)

    @pytest.mark.parametrize("values", [
        {"": 0, "b": 1, "a": 1, "b,a": 2},             # ids out of ground order
        {"": 0, ",a": 1, "b,": 1, "a,,b": 2},          # empty parts, stray commas
        {"": 0, "a": 1, "b": 1, "a,b": 2, "b,a": 2},   # one subset spelled twice
        {"": 0, "a": 1, "b": 1, "a,b,a": 2},           # a repeated id
        {"": 0, "a": 1, "b": 1, "a,b": 2, "a,b,b": 2},  # a repeated id after its prefix
        {"": 0, "a": 1, "b": 1, "a,c": 2},             # an unknown id
        {"": 0, "a": 1, "b": 1, "a,c": True},          # an unknown id and a boolean
        {"": 0, "a": 1, "b": 1},                       # a subset left out
        {"": 0, "a": "1", "b": True, "a,b": 1},        # True after "1" and 1
        {"": 0, "a": 1, "b": 1.0, "a,b": 2},           # 1.0 after 1
        {"": 0, "a": "2/4", "b": "-2/4", "a,b": 1},    # a negative value
        {"": 0, "a": [1], "b": 1, "a,b": 2},           # a list
        # canonical keys that the bulk pass hands to the per-entry reader
        {"": 0, "a": 1, "b": 1, "a,b": -1},            # the last value negative
        {"": 0, "a": 1, "b": 1, "a,b": "1/0"},         # the last value 1/0
        {"": 0, "a": 1, "b": 1, "a,b": True},          # a boolean after 1
        {"": 0, "a": 1, "b": 1, "a,b": 2, "c": 1},     # one key beyond the 2^n
        {"": 0, "a": "1/2", "b": 1, "b,a": "3/2"},     # a key with its ids reversed
        {"": "1/999983", "a": "2/999979",              # an lcm over SCALE_BITS_CAP
         "b": "3/999961", "a,b": "4/999959"},
    ], ids=repr)
    def test_named_faults_and_spellings(self, values):
        expected = self._read(EntryByEntryTable, ("a", "b"), values)
        assert self._read(TabularFunction.from_obj, ("a", "b"), values) == expected

    def test_each_distinct_value_string_parsed_once(self, monkeypatch, tmp_path):
        rng = random.Random(13)
        ground = tuple(f"e{i:02d}" for i in range(13))
        f = SetFunction.cover(ground, ("y0", "y1", "y2", "y3", "y4"),
                              {t: F(rng.randint(1, 12), rng.randint(1, 4))
                               for t in ("y0", "y1", "y2", "y3", "y4")},
                              {e: [t for t in ("y0", "y1", "y2", "y3", "y4") if rng.random() < 0.3]
                               for e in ground})
        table = SetFunction.tabular(ground, {f.mask_subset(m): f.mask_value(m)
                                             for m in range(1 << 13)})
        agents = AgentSpace([ground[k::3] for k in range(3)])
        path = tmp_path / "table.json"
        save_instance(table, agents, path)
        written = json.loads(path.read_text(encoding="utf-8"))["objective"]["values"]

        calls = []
        counted = objective._table_value

        def count(raw, field):
            calls.append(raw)
            return counted(raw, field)

        monkeypatch.setattr(objective, "_table_value", count)
        loaded, loaded_agents = load_instance(path)
        assert len(written) == 1 << 13
        assert sorted(calls) == sorted(set(written.values())) and len(calls) < 100
        assert [loaded.mask_value(m) for m in range(1 << 13)] == \
            [f.mask_value(m) for m in range(1 << 13)]
        again = tmp_path / "again.json"
        save_instance(loaded, loaded_agents, again)
        assert again.read_bytes() == path.read_bytes()

    def test_canonical_files_skip_the_per_entry_reader(self, monkeypatch, tmp_path):
        rng = random.Random(7)
        ground = tuple(f"e{i:02d}" for i in range(13))
        table = SetFunction.tabular(ground, {
            frozenset(e for i, e in enumerate(ground) if m >> i & 1):
                F(rng.randint(0, 9), rng.randint(1, 4))
            for m in range(1 << 13)})
        path = tmp_path / "table.json"
        save_instance(table, AgentSpace([ground[k::3] for k in range(3)]), path)

        def refuse(values):
            raise AssertionError("read entry by entry")

        monkeypatch.setattr(objective, "_file_entries", refuse)
        sorted_dump, _ = load_instance(path)
        in_to_obj_order = TabularFunction.from_obj(ground, table.to_obj())
        for f in (sorted_dump, in_to_obj_order):
            assert f.scale == table.scale and f.scaled_table() == table.scaled_table()
        with pytest.raises(AssertionError, match="entry by entry"):
            TabularFunction.from_obj(("a", "b"), {"values": {"": 0, "a": 1, "b": 1, "b,a": 2}})

    def test_a_bulk_read_holds_half_its_keys(self):
        # a 13-element table with ids as long as the benchmark's, in
        # save_instance's sorted dump, parsed and read while traced: holding
        # all 2^13 keys at once peaks at 3.1 MB, holding half of them 2.5 MB
        ground = [f"agent{i // 2 + 1:02d}_choice{i % 2 + 1}" for i in range(13)]
        rng = random.Random(13)
        text = json.dumps({"ground": ground, "agents": [ground[k::4] for k in range(4)],
                           "objective": {"kind": "tabular", "values": {
                               ",".join(e for i, e in enumerate(ground) if m >> i & 1):
                                   f"{rng.randint(0, 99)}/{rng.randint(1, 4)}"
                               for m in range(1 << 13)}}}, sort_keys=True)
        tracemalloc.start()
        try:
            f, _ = instance_from_obj(json.loads(text))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.scale == 12 and len(f.scaled_table()) == 1 << 13
        assert peak < 2.8 * 2 ** 20

    @pytest.mark.parametrize("n", [0, 1, objective.EXHAUSTIVE_CAP])
    def test_round_trip_at_the_edges_of_the_key_helper(self, n, tmp_path):
        ground = tuple("abcdefghijklmnop"[:n])
        f = SetFunction.tabular(ground, {
            frozenset(e for i, e in enumerate(ground) if m >> i & 1): F(m.bit_count(), 1 + m % 3)
            for m in range(1 << n)})
        agents = AgentSpace([(e,) for e in ground])
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_instance(f, agents, first)
        written = json.loads(first.read_text(encoding="utf-8"))["objective"]["values"]
        assert sorted(written) == sorted(",".join(e for i, e in enumerate(ground) if m >> i & 1)
                                         for m in range(1 << n))
        loaded, loaded_agents = load_instance(first)
        save_instance(loaded, loaded_agents, second)
        assert second.read_bytes() == first.read_bytes()
        assert [loaded.mask_value(m) for m in range(1 << n)] == \
            [f.mask_value(m) for m in range(1 << n)]


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

    def test_counterexample_values_are_exact_off_scale_one(self):
        f = SetFunction.tabular(
            ("a", "b"), {(): 0, ("a",): "1/2", ("b",): "1/2", ("a", "b"): "3/2"})
        assert f.scale == 2
        cx = check_properties(f).counterexample
        assert cx.prop == "submodular" and cx.values == (F(1, 2), F(1))
        g = SetFunction.tabular(("a",), {(): "1/3", ("a",): "1/6"})
        cx = check_properties(g).counterexample
        assert cx.prop == "normalized" and cx.values == (F(1, 3),)
        h = SetFunction.tabular(("a", "b"), {(): 0, ("a",): "1/3", ("b",): 1, ("a", "b"): "1/6"})
        cx = check_properties(h).counterexample
        assert cx.prop == "monotone" and cx.values == (F(-1, 6),)

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
        # only a function whose kind does not hold the axioms by
        # construction is scanned, so only such a function meets the cap
        class UnflaggedCover(CoverFunction):
            axioms_by_construction = False

        ids = tuple(f"e{i}" for i in range(17))
        args = (ids, ("y",), {"y": 1}, {e: ("y",) for e in ids})
        with pytest.raises(CapacityError, match=r"2\^17 subsets exceeds cap of 16"):
            check_properties(UnflaggedCover(*args))
        assert check_properties(SetFunction.cover(*args)) == \
            PropertyReport(True, True, True, F(1), None)

    def test_matches_full_quantifier_oracle(self):
        good = SetFunction.cover(
            ("a", "b", "c"), ("y1", "y2"), {"y1": 2, "y2": 3},
            {"a": ("y1",), "b": ("y1", "y2"), "c": ("y2",)})
        bad = SetFunction.tabular(
            ("a", "b"), {(): 0, ("a",): 1, ("b",): 1, ("a", "b"): 3})
        assert check_properties(good).submodular == brute_submodular(good) is True
        assert check_properties(bad).submodular == brute_submodular(bad) is False


@st.composite
def axiom_tables(draw):
    """A dense table over 0-6 elements that may break any axiom: arbitrary
    values, normalized ones, the normalized monotone closure of drawn
    values, or a weighted cover (all three axioms hold), each with one
    entry perhaps nudged up or down.  Values are small ints, or 6-digit
    fractions whose lcm exceeds ``SCALE_BITS_CAP`` on all but the smallest
    grounds, so that the table holds Fractions at scale 1."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(0, 6))
    fine = draw(st.booleans())

    def value() -> Fraction:
        if fine:
            return F(rng.randint(0, 10 ** 6), rng.randint(10 ** 5, 10 ** 6 - 1))
        return F(rng.randint(0, 4))

    shape = draw(st.sampled_from(("any", "normalized", "monotone", "cover")))
    if shape == "cover":
        coverage = [rng.getrandbits(4) for _ in range(n)]
        weights = [value() for _ in range(4)]
        vals = []
        for m in range(1 << n):
            covered = 0
            for i in range(n):
                if m >> i & 1:
                    covered |= coverage[i]
            vals.append(sum((w for t, w in enumerate(weights) if covered >> t & 1), F(0)))
    else:
        vals = [value() for _ in range(1 << n)]
        if shape != "any":
            vals[0] = F(0)
        if shape == "monotone":
            for m in range(1, 1 << n):
                vals[m] = max([vals[m]] + [vals[m ^ 1 << i] for i in range(n) if m >> i & 1])
    if draw(st.booleans()):
        m = rng.randrange(1 << n)
        vals[m] = max(F(0), vals[m] + rng.choice((-1, 1)) * (value() if fine else F(1, 2)))
    ground = tuple(f"e{i}" for i in range(n))
    return SetFunction.tabular(ground, {tuple(g for i, g in enumerate(ground) if m >> i & 1): v
                                        for m, v in enumerate(vals)})


class TestOnePassAgainstThreePasses:
    """``check_properties`` against ``three_pass_properties``, the scan it
    replaced: separate passes, every ordered pair of elements."""

    @settings(max_examples=400, deadline=None)
    @given(axiom_tables())
    def test_same_report_on_drawn_tables(self, f):
        assert check_properties(f) == three_pass_properties(f)

    def test_same_report_over_the_denominator_cap(self):
        ground = tuple(f"e{i}" for i in range(6))
        f = TabularFunction.from_obj(ground, {"values": blow_up_values(ground, 3)})
        assert f.scale == 1 and type(f.scaled_value(1)) is Fraction
        report = check_properties(f)
        assert not report.all_hold and report == three_pass_properties(f)

    def test_same_report_on_covers_and_witnesses(self):
        entries = (standard_witness_entries(3, (F(0), F(1, 2), F(1)), p_max=2)
                   + random_cover_entries(5, 40, 6))
        for entry in entries:
            assert check_properties(entry.objective) == three_pass_properties(entry.objective)

    def test_an_element_is_not_paired_with_itself(self):
        # the exchange condition with j = i reads f(A+i) >= f(A): at A = {a}
        # it fails for b, so a scan that pairs b with itself calls this
        # table non-submodular; no pair of distinct elements breaks it
        f = SetFunction.tabular(("a", "b"), {(): 0, ("a",): 1, ("b",): 1, ("a", "b"): 0})
        report = check_properties(f)
        assert (report.monotone, report.submodular) == (False, True)
        assert report == three_pass_properties(f)

    @pytest.mark.parametrize("ab, ac, bc, element, partner", [
        (2, 3, 3, "a", "c"),  # (a, c) and (b, c) break it: a, not c or b
        (3, 3, 2, "a", "b"),  # (a, b) and (a, c) break it: b, not c
    ])
    def test_first_of_two_pairs_at_one_context(self, ab, ac, bc, element, partner):
        # at A = {} two pairs break the exchange condition; the report names
        # the earlier pair, its first element and the context of its second
        f = SetFunction.tabular(("a", "b", "c"), {
            (): 0, ("a",): 1, ("b",): 1, ("c",): 1, ("a", "b"): ab,
            ("a", "c"): ac, ("b", "c"): bc, ("a", "b", "c"): 4})
        report = check_properties(f)
        assert report.normalized and report.monotone and not report.submodular
        assert report.counterexample == PropertyViolation(
            "submodular", element, (frozenset(), frozenset({partner})), (F(1), F(2)))
        assert report == three_pass_properties(f)


class TestAxiomsByConstruction:
    """A kind that sets ``axioms_by_construction`` accepts only normalized,
    monotone, submodular functions; a table never claims it."""

    def test_which_kinds_claim_it(self):
        assert SetFunction.axioms_by_construction is False
        assert {kind: cls.axioms_by_construction for kind, cls in OBJECTIVE_KINDS.items()} == {
            "tabular": False, "cover": True, "curvature-witness": True,
            "p-additive-witness": True}

    @settings(max_examples=200, deadline=None)
    @given(objective_instances())
    def test_claim_holds_on_drawn_instances(self, instance):
        ground, payload, _, _, _ = instance
        f = OBJECTIVE_KINDS[payload["kind"]].from_obj(ground, payload)
        assert f.axioms_by_construction == (payload["kind"] != "tabular")
        if f.axioms_by_construction:
            assert three_pass_properties(f).all_hold

    @pytest.mark.parametrize("f", [
        SetFunction.curvature_witness(("u1", "u2", "u3"), ("v1", "v2"), 0),
        SetFunction.curvature_witness(("u1", "u2", "u3"), ("v1", "v2"), 1),
        SetFunction.p_additive_witness(("u1", "u2", "v1", "x"), ("u1", "u2"), ("v1",), 1),
        SetFunction.cover(("a", "b", "c"), ("y1", "y2"), {"y1": 0, "y2": 0},
                          {"a": ("y1",), "b": ("y1", "y2"), "c": ()}),
        SetFunction.cover(("a", "b"), ("y1", "y2"), {"y1": 0, "y2": "1/3"},
                          {"a": ("y1",), "b": ("y1", "y2")}),
    ], ids=["lambda-0", "lambda-1", "p-1", "zero-weights", "one-zero-weight"])
    def test_claim_holds_at_the_edges(self, f):
        assert f.axioms_by_construction and three_pass_properties(f).all_hold

    def test_a_table_never_claims_it(self):
        # the same function as a cover, which holds every axiom
        cover = SetFunction.cover(("a", "b", "c"), ("y1", "y2"), {"y1": 2, "y2": 3},
                                  {"a": ("y1",), "b": ("y1", "y2"), "c": ("y2",)})
        table = SetFunction.tabular(cover.ground, {cover.mask_subset(m): cover.mask_value(m)
                                                   for m in range(1 << 3)})
        assert check_properties(table).all_hold
        assert cover.axioms_by_construction and not table.axioms_by_construction


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

    def test_a_decision_set_that_is_a_string(self):
        with pytest.raises(InputError) as exc:
            AgentSpace([{"ab"}, "c"])
        assert str(exc.value) == "agents[2]: expected a collection of ids, got the string 'c'"

    def test_a_decision_set_that_is_bytes(self):
        with pytest.raises(InputError) as exc:
            AgentSpace([{"ab"}, b"ab"])
        assert str(exc.value) == "agents[2]: expected a collection of ids, got bytes b'ab'"

    def test_a_decision_set_that_is_not_a_collection(self):
        with pytest.raises(InputError) as exc:
            AgentSpace([{"ab"}, 5])
        assert str(exc.value) == "agents[2]: expected a collection of ids, got 5"

    def test_a_decision_id_that_is_not_a_string(self, cover_fixture):
        # the partition check would otherwise sort a mix of ints and strings
        with pytest.raises(InputError) as exc:
            check_partition(cover_fixture, AgentSpace([[1, "c"], ["a", "b"]]))
        assert str(exc.value) == "agents[1]: decision ids must be strings, got 1"

    @pytest.mark.parametrize("decisions, message", [
        ([["a", "a"]], "agents[1]: repeated decision id 'a'"),
        ([{"b"}, ("c", "a", "d", "a", "c")], "agents[2]: repeated decision id 'a'"),
    ])
    def test_a_repeated_id_in_one_decision_set(self, decisions, message):
        with pytest.raises(InputError) as exc:
            AgentSpace(decisions)
        assert str(exc.value) == message

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


class TestAgainstFractionOracle:
    """Integer evaluation over one denominator against ``FractionOracle``,
    the kinds' Fraction formulas at scale 1."""

    @settings(max_examples=150, deadline=None)
    @given(objective_instances())
    def test_values_curvature_and_properties(self, instance):
        ground, payload, _, _, _ = instance
        f = OBJECTIVE_KINDS[payload["kind"]].from_obj(ground, payload)
        oracle = FractionOracle(ground, payload)
        for mask in range(1 << len(ground)):
            v = f.mask_value(mask)
            assert type(v) is Fraction and v == oracle.mask_value(mask)
        assert total_curvature(f) == total_curvature(oracle)
        assert check_properties(f) == check_properties(oracle)

    def test_table_over_the_denominator_cap_keeps_fractions(self):
        ground = tuple(f"e{i}" for i in range(13))
        payload = {"kind": "tabular", "values": blow_up_values(ground, 1)}
        f = TabularFunction.from_obj(ground, payload)
        oracle = FractionOracle(ground, payload)
        assert f.scale == 1
        assert all(type(f.scaled_value(m)) is Fraction for m in range(1 << 13))
        assert all(f.mask_value(m) == oracle.mask_value(m) for m in range(1 << 13))
        assert lcm(*(oracle.mask_value(m).denominator for m in range(1 << 13))).bit_length() \
            > SCALE_BITS_CAP
        X = AgentSpace([set(ground[k::4]) for k in range(4)])
        assert brute_force_optimum(f, X) == brute_force_optimum(oracle, X)
        for policy in ("worst", "best", "all"):
            assert run_greedy(f, X, InformationGraph(4, [(1, 3), (2, 4)]), policy) == \
                run_greedy(oracle, X, InformationGraph(4, [(1, 3), (2, 4)]), policy)
        assert total_curvature(f) == total_curvature(oracle)
        assert check_properties(f) == check_properties(oracle)

    def test_scale_cap_boundary(self):
        big = 2 ** 61 - 1
        for small, scale in ((3, 3 * big), (15, 1)):
            f = TabularFunction.from_obj(("a", "b"), {"values": {
                "": 0, "a": f"1/{small}", "b": f"1/{big}", "a,b": f"2/{small}"}})
            assert (f.scale, (3 * big).bit_length(), (15 * big).bit_length()) == (scale, 63, 65)
            assert type(f.scaled_value(3)) is (int if scale > 1 else Fraction)
            assert [f.mask_value(m) for m in range(4)] == [0, F(1, small), F(1, big), F(2, small)]
