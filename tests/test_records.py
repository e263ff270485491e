"""The value records (``structure.Record``) against frozen dataclasses.

Each record class exported by the package gets a test-local twin made by
``dataclasses.make_dataclass(..., frozen=True)`` from the same class body:
its own annotations, in order, and the values it gives them as defaults.
The two must agree on construction, ``repr``, ``==``, ``hash``,
immutability and copying.
"""

import copy
import dataclasses
import pickle

import pytest

import pargreedy
from pargreedy.bounds import ROW_KEYS, CertifyRow
from pargreedy.structure import Record

RECORDS = [obj for obj in (getattr(pargreedy, name) for name in pargreedy.__all__)
           if isinstance(obj, type) and issubclass(obj, Record)]


def twin(cls):
    """The frozen dataclass the class body of ``cls`` declares."""
    spec = []
    for name in cls.__annotations__:
        if name in vars(cls):
            default = vars(cls)[name]
            spec.append((name, object, dataclasses.field(default_factory=lambda d=default: d)))
        else:
            spec.append((name, object))
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def field_values(cls, tag="v"):
    """One distinct, hashable value per field."""
    return tuple(f"{cls.__name__}.{name}.{tag}" for name in cls.__annotations__)


def required_count(cls):
    return sum(1 for name in cls.__annotations__ if name not in vars(cls))


def outcome(fn):
    """What fn() returns, or the type of the exception it raises."""
    try:
        return fn()
    except Exception as exc:
        return type(exc)


def test_every_record_class_is_found():
    assert len(RECORDS) == 16
    assert "Record" not in pargreedy.__all__


def test_row_keys_name_every_certify_row_field():
    # both renderers zip ROW_KEYS with the fields, so a missing key would
    # drop a field silently
    assert len(ROW_KEYS) == len(CertifyRow._fields)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
class TestRecordAgainstDataclass:
    def test_fields_in_declared_order(self, cls):
        T = twin(cls)
        assert cls._fields == tuple(f.name for f in dataclasses.fields(T))
        assert cls.__match_args__ == T.__match_args__

    def test_repr_eq_and_hash(self, cls):
        T = twin(cls)
        args = field_values(cls)
        r, t = cls(*args), T(*args)
        assert repr(r) == repr(t)
        assert hash(r) == hash(t)
        assert r == cls(*args) and not r != cls(*args)
        assert hash(r) == hash(cls(*args))
        for i in range(len(args)):
            other = args[:i] + ("other",) + args[i + 1:]
            assert (r == cls(*other)) is (t == T(*other)) is False
        assert r != t and t != r
        assert r != args

    def test_defaults(self, cls):
        T = twin(cls)
        args = field_values(cls)[:required_count(cls)]
        r, t = cls(*args), T(*args)
        assert repr(r) == repr(t)
        assert outcome(lambda: hash(r)) == outcome(lambda: hash(t))
        assert r == cls(*args)
        for name in cls._fields[len(args):]:
            assert getattr(r, name) is getattr(t, name)

    def test_keyword_construction(self, cls):
        T = twin(cls)
        args = field_values(cls)
        kwargs = dict(zip(cls._fields, args))
        assert cls(**kwargs) == cls(*args)
        assert repr(cls(**kwargs)) == repr(T(**kwargs))
        assert cls(args[0], **dict(list(kwargs.items())[1:])) == cls(*args)
        required = dict(list(kwargs.items())[:required_count(cls)])
        assert repr(cls(**required)) == repr(T(**required))

    @pytest.mark.parametrize("name", ["first-field", "new"])
    def test_assignment_and_deletion_refused(self, cls, name):
        args = field_values(cls)
        r, t = cls(*args), twin(cls)(*args)
        name = cls._fields[0] if name == "first-field" else "not_a_field"
        for obj in (r, t):
            with pytest.raises(AttributeError):
                setattr(obj, name, "changed")
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert r == cls(*args) and repr(r) == repr(t)

    def test_bad_arguments(self, cls):
        T = twin(cls)
        args = field_values(cls)
        first, *rest = cls._fields
        calls = [
            ((), {}),                                    # missing
            (args[:required_count(cls) - 1], {}),        # one short
            ((), dict(zip(rest, args[1:]))),             # first field missing
            (args + ("extra",), {}),                     # extra
            (args, {first: args[0]}),                    # repeated
            (args, {"not_a_field": 1}),                  # unknown keyword
        ]
        for a, kw in calls:
            with pytest.raises(TypeError) as want:
                T(*a, **kw)
            with pytest.raises(TypeError) as got:
                cls(*a, **kw)
            assert str(got.value) == str(want.value)

    def test_copy_and_pickle(self, cls):
        T = twin(cls)
        for args in (field_values(cls), field_values(cls)[:required_count(cls)]):
            r, t = cls(*args), T(*args)
            for copier in (copy.copy, copy.deepcopy):
                got, want = outcome(lambda: copier(r)), outcome(lambda: copier(t))
                if isinstance(want, type):
                    assert got is want
                    continue
                assert type(got) is cls and got == r and repr(got) == repr(want)
                with pytest.raises(AttributeError):
                    setattr(got, cls._fields[0], "changed")
        r = cls(*field_values(cls))
        back = pickle.loads(pickle.dumps(r))
        assert type(back) is cls and back == r and repr(back) == repr(r)
        assert hash(back) == hash(r)
