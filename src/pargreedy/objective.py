"""Submodular objective functions over a finite ground set.

Values are exact: each objective has an integer scale D, a common
denominator of all its values fixed at construction, and evaluates a subset
to the integer f(A) * D.  D cancels in every comparison, difference and
ratio, so the searches elsewhere in the package add and compare integers
and build a ``fractions.Fraction`` only for what they return; nothing is
ever subject to floating-point noise.  A :class:`SetFunction` owns an
ordered ground set of element ids and evaluates arbitrary subsets.  Each
kind of objective is a subclass, and :data:`OBJECTIVE_KINDS` maps the
kind's name in instance files to it:

* :class:`TabularFunction`          -- a dense table with one value per subset,
* :class:`CoverFunction`            -- weighted set cover (sum of weights of
  covered targets),
* :class:`CurvatureWitnessFunction` -- the closed-form two-block adversarial
  family parameterized by a curvature value in [0, 1],
* :class:`PAdditiveWitnessFunction` -- the closed-form family whose every p
  decisions add up exactly (p-additive).

Subsets are represented internally as bitmasks over the ground order, which
keeps repeated evaluation cheap inside greedy tie-tree enumeration.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice, repeat
from math import gcd, lcm
from operator import add
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import CapacityError, InputError
from .structure import Record, check_positive_int

# Exhaustive enumeration cap for dense tables and property scans.
EXHAUSTIVE_CAP = 16

# Bit length cap of a table's common denominator.  Unrelated denominators
# make the lcm grow with the table (a 13-element table of 6-digit ones gives
# D of some 59,000 bits), so above this cap a table keeps its values as
# Fractions over D = 1 instead.
SCALE_BITS_CAP = 64

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(value, field: str = "value") -> Fraction:
    """Coerce int / "p/q" string / Fraction into an exact Fraction.

    Floats are rejected: the library never mixes inexact arithmetic in.
    """
    if isinstance(value, bool):
        raise InputError(f"{field}: expected a rational, got a boolean")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{field}: invalid rational {value!r} ({exc})") from None
    raise InputError(f"{field}: expected int, 'p/q' string or Fraction, got {type(value).__name__}")


def _table_value(raw, field: Callable[[], str]) -> tuple[int, int]:
    """A table value as (numerator, denominator) in lowest terms.

    A JSON int, or a plain ASCII ``"N"`` or ``"N/M"`` string with M nonzero,
    is read with ``int`` and ``gcd``, building no Fraction.  Every other
    value goes through :func:`as_fraction`, so what is accepted and every
    rejection message are the same as there.  ``field()`` names the value
    for :func:`as_fraction`; a plain value never builds the name.
    """
    if type(raw) is int:
        return raw, 1
    if type(raw) is str and raw.isascii():
        num, slash, den = raw.partition("/")
        if num.isdigit() and (den.isdigit() or not slash):
            try:
                n, d = int(num), int(den) if slash else 1
            except ValueError:  # more digits than int() converts
                pass
            else:
                if d:
                    g = gcd(n, d)
                    return n // g, d // g
    value = as_fraction(raw, field())
    return value.numerator, value.denominator


def _subset_keys(ground: Sequence[str]) -> Iterator[str]:
    """Each subset's table key, in mask order: its ids in ground order,
    joined by commas.  The keys of the subsets without the last element are
    built by doubling and held; those with it are made as they are read, so
    only half the keys are held at once."""
    keys = [""]
    for g in ground[:-1]:
        tail = "," + g
        keys += [k + tail for k in keys]
        keys[len(keys) // 2] = g  # {g} alone: no comma
    if not ground:
        return iter(keys)
    last = ground[-1]
    return chain(keys, (last,), map(add, islice(keys, 1, None), repeat("," + last)))


def as_lambda(lam) -> Fraction:
    """A total-curvature value: :func:`as_fraction`, then checked to lie in [0, 1]."""
    lam = as_fraction(lam, "lambda")
    if not ZERO <= lam <= ONE:
        raise InputError(f"lambda: must lie in [0, 1], got {lam}")
    return lam


def require(obj: dict, field: str, types, where: str = ""):
    """``obj[field]`` of a parsed JSON object, rejected with an InputError
    naming ``where.field`` when it is missing or not of ``types``.  A JSON
    boolean is not an int here, though bool subclasses int in Python."""
    prefix = f"{where}." if where else ""
    if field not in obj:
        raise InputError(f"{prefix}{field}: missing required field")
    value = obj[field]
    allowed = types if isinstance(types, tuple) else (types,)
    if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
        raise InputError(f"{prefix}{field}: unexpected type {type(value).__name__}")
    return value


def _check_ids(ids, field: str, key=None) -> None:
    """An InputError naming ``field`` (``field[key]`` with a key) unless
    ``ids``, which should be a collection of ids, is iterable and is not one
    string or bytes object, whose characters or byte values it would give."""
    if isinstance(ids, (str, bytes, bytearray)):
        kind = "the string" if isinstance(ids, str) else type(ids).__name__
        what = f"{kind} {ids!r}"
    else:
        try:
            iter(ids)
            return
        except TypeError:
            what = repr(ids)
    where = field if key is None else f"{field}[{key!r}]"
    raise InputError(f"{where}: expected a collection of ids, got {what}")


def id_list(value, field: str) -> list[str]:
    """``value`` if it is a JSON list of id strings, else an InputError."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise InputError(f"{field}: expected a list of id strings")
    return value


class SetFunction:
    """A set function over a finite ground set, evaluated exactly.

    Build one with its kind's class (``SetFunction.cover`` and the two
    witness names are bound to theirs), with :meth:`tabular`, or from an
    instance file's ``"objective"`` payload with ``OBJECTIVE_KINDS[kind].from_obj``.
    Each kind is a subclass with a class attribute ``kind`` (its name in
    instance files), ``_evaluate(mask)`` for a mask not yet in the value
    cache, ``to_obj()`` for the payload and the classmethod
    ``from_obj(ground, payload)``.

    ``scale`` is the integer D fixed at construction, and ``_evaluate``
    returns f(A) * D.  Every evaluation goes through :meth:`scaled_value`,
    the cached integer entry point that the searches use; :meth:`mask_value`
    is its exact ``Fraction`` view for the public boundary.  No kind
    overrides either, so a tool that counts evaluations rebinds one of
    them.  A table whose common denominator exceeds ``SCALE_BITS_CAP`` bits
    keeps Fraction values over D = 1; consumers only compare and subtract
    scaled values and divide by D, so the same code serves both.

    ``axioms_by_construction`` is true on a kind whose constructor accepts
    only normalized, monotone, submodular functions.  Three functions read
    it: :func:`check_properties`, which reports the three axioms of such a
    kind without a scan and scans every other function;
    :func:`pargreedy.greedy.brute_force_optimum`, which for such a kind
    stops at f(ground) by monotonicity and, above its profile-count gate,
    prunes by monotonicity and submodularity; and the greedy engine, whose
    ``worst`` search prunes by monotonicity above the same gate.
    """

    kind: str
    axioms_by_construction = False

    def __init__(self, ground: Sequence[str], scale: int = 1):
        _check_ids(ground, "ground")
        ground = tuple(ground)
        seen = set()
        for g in ground:
            if not isinstance(g, str) or not g:
                raise InputError(f"ground: element ids must be nonempty strings, got {g!r}")
            if g in seen:
                raise InputError(f"ground: duplicate element id {g!r}")
            seen.add(g)
        self.ground = ground
        self.scale = scale
        self._index = {g: i for i, g in enumerate(ground)}
        self._cache: dict[int, int] = {}

    # -- constructors -------------------------------------------------

    @staticmethod
    def tabular(ground: Sequence[str], values: Mapping) -> "TabularFunction":
        """Dense table: ``values`` maps frozensets (or iterables) of ids to
        rationals and must define every one of the 2^|ground| subsets.  A
        key that repeats an element is rejected, as in an instance file."""
        def entries():
            for key, raw in values.items():
                if isinstance(key, str):
                    ids = (key,)
                else:
                    _check_ids(key, "values")
                    ids = tuple(key)

                def label():  # key=str: a key may mix ids of other types
                    return f"values[{sorted(ids, key=str)!r}]"
                if len(set(ids)) != len(ids):
                    raise InputError(f"{label()}: repeated element in subset key")
                yield ids, _table_value(raw, label)
        return TabularFunction(ground, entries())

    # -- evaluation ---------------------------------------------------

    def ground_index(self, element: str) -> int:
        """Position of an element in ground order."""
        i = self._index.get(element)
        if i is None:
            raise InputError(f"unknown element id {element!r}")
        return i

    def subset_mask(self, ids: Iterable[str]) -> int:
        """Bitmask of a subset given by element ids.  A bare string, bytes
        or bytearray is refused, not read as the ids of its characters."""
        _check_ids(ids, "ids")
        m = 0
        for e in ids:
            i = self._index.get(e)
            if i is None:
                raise InputError(f"unknown element id {e!r}")
            m |= 1 << i
        return m

    def _members(self, mask: int) -> list[str]:
        """The elements of ``mask`` in ground order."""
        return [e for i, e in enumerate(self.ground) if mask >> i & 1]

    def mask_subset(self, mask: int) -> frozenset[str]:
        return frozenset(self._members(mask))

    def scaled_value(self, mask: int) -> int:
        """f * scale of the subset encoded by ``mask``: an int, or a
        Fraction for a table over the denominator cap (scale 1)."""
        val = self._cache.get(mask)
        if val is None:
            val = self._cache[mask] = self._evaluate(mask)
        return val

    def mask_value(self, mask: int) -> Fraction:
        """Exact value of the subset encoded by ``mask``."""
        return Fraction(self.scaled_value(mask), self.scale)

    def value(self, subset: Iterable[str]) -> Fraction:
        """f(A) for a subset given by element ids (not a bare string)."""
        return self.mask_value(self.subset_mask(subset))

    def marginal(self, added: Iterable[str], context: Iterable[str]) -> Fraction:
        """f(A | B) = f(A u B) - f(B), A and B each given by element ids
        (not a bare string)."""
        a = self.subset_mask(added)
        b = self.subset_mask(context)
        return self.mask_value(a | b) - self.mask_value(b)

    def singleton(self, element: str) -> Fraction:
        return self.mask_value(self.subset_mask((element,)))

    def scaled_table(self) -> list[int]:
        """Scaled values of all 2^n subsets, indexed by mask.  Capped at EXHAUSTIVE_CAP."""
        n = len(self.ground)
        if n > EXHAUSTIVE_CAP:
            raise CapacityError(
                f"exhaustive scan over 2^{n} subsets exceeds cap of {EXHAUSTIVE_CAP} elements")
        return [self.scaled_value(m) for m in range(1 << n)]

    def __repr__(self) -> str:
        return f"SetFunction(kind={self.kind!r}, n={len(self.ground)})"


class TabularFunction(SetFunction):
    """A dense table with one value per subset.

    The table is the value cache, filled in full on construction, so every
    evaluation of a subset of the ground set is a cache hit.  The scale is
    the lcm of the values' reduced denominators, unless that exceeds
    ``SCALE_BITS_CAP`` bits: then the table holds the values as Fractions
    and the scale is 1.

    :meth:`from_obj` reads a file with exactly the 2^n canonical keys (as
    :meth:`to_obj` writes them) and plain nonnegative values in one bulk
    pass that parses each distinct value once.  Any other file is read entry
    by entry, every key split and checked in full, so an error names the
    first fault in file order.
    """

    kind = "tabular"
    axioms_by_construction = False  # any nonnegative table is accepted

    def __init__(self, ground: Sequence[str], entries: Iterable[tuple[Iterable[str], tuple[int, int]]]):
        """``entries`` yields (a subset's ids, (numerator, denominator))
        once for every subset, the value in lowest terms with a positive
        denominator, or is a table file's ``values`` object.  It is read
        after the ground set is checked.  A table file joins a key's ids
        with commas, so no id may contain one."""
        super().__init__(ground)
        for g in self.ground:
            if "," in g:
                raise InputError(f"ground: table element id {g!r} contains ','")
        n = len(self.ground)
        if n > EXHAUSTIVE_CAP:
            raise CapacityError(f"tabular ground set of {n} elements exceeds cap {EXHAUSTIVE_CAP}")
        bulk = isinstance(entries, dict) and _canonical_values(self.ground, entries)
        if bulk:
            by_mask, parsed = bulk
        else:
            if isinstance(entries, dict):
                entries = _file_entries(entries)
            by_mask, parsed = range(1 << n), {}
            for ids, value in entries:
                try:
                    mask = self.subset_mask(ids)
                except InputError as exc:
                    raise InputError(f"values: {exc}") from None
                if mask in parsed:
                    raise InputError(
                        f"values: subset {sorted(self._members(mask))!r} defined twice")
                if value[0] < 0:
                    raise InputError(f"values[{sorted(self._members(mask))!r}]: "
                                     f"negative value {Fraction(*value)}")
                parsed[mask] = value
            if len(parsed) < 1 << n:
                missing = next(m for m in range(1 << n) if m not in parsed)
                raise InputError(f"values: no value for subset {self._members(missing)!r}")
        # mask m's value is parsed[by_mask[m]]
        scale = 1
        for den in {den for _, den in parsed.values()}:
            scale = lcm(scale, den)
            if scale.bit_length() > SCALE_BITS_CAP:
                scale = 0
                break
        scaled = {k: num * (scale // den) if scale else Fraction(num, den)
                  for k, (num, den) in parsed.items()}
        self._cache = dict(enumerate(map(scaled.__getitem__, by_mask)))
        self.scale = scale or 1

    def _evaluate(self, mask: int) -> int:
        raise InputError(f"mask {mask}: not a subset of the {len(self.ground)}-element ground set")

    def to_obj(self) -> dict:
        """Values keyed by the subset's ids in ground order, comma-separated."""
        return {"kind": self.kind,
                "values": {key: str(self.mask_value(mask))
                           for mask, key in enumerate(_subset_keys(self.ground))}}

    @classmethod
    def from_obj(cls, ground: Sequence[str], payload: dict) -> "TabularFunction":
        return cls(ground, require(payload, "values", dict, "objective"))


def _canonical_values(ground: Sequence[str], values: dict) -> Optional[tuple[list, dict]]:
    """The raw value of each mask and the (numerator, denominator) of each
    distinct one, if ``values`` has exactly the canonical keys and plain
    nonnegative values; else None."""
    raws = list(map(values.get, _subset_keys(ground)))
    # None for a missing key; True and 1.0 hash equal to 1, and are not 1 here
    if len(values) != len(raws) or not {str, int}.issuperset(map(type, raws)):
        return None
    try:  # the per-entry reader names a fault
        parsed = {raw: _table_value(raw, str) for raw in dict.fromkeys(raws)}
    except InputError:
        return None
    return (raws, parsed) if all(num >= 0 for num, _ in parsed.values()) else None


def _file_entries(values: dict) -> Iterable[tuple[list[str], tuple[int, int]]]:
    """A table file's ``values`` read entry by entry, in file order, each
    key split and checked in full."""
    for key, raw in values.items():
        if not isinstance(key, str):
            raise InputError(f"values: keys must be strings of comma-separated ids, got {key!r}")
        ids = [e for e in key.split(",") if e]
        if len(set(ids)) != len(ids):
            raise InputError(f"objective.values[{key!r}]: repeated element in subset key")
        # a bad value is named before an unknown id
        yield ids, _table_value(raw, lambda: f"objective.values[{key!r}]")


class CoverFunction(SetFunction):
    """Weighted set cover: f(A) is the total weight of targets covered by
    the union of the coverage sets of A's elements.  Each weight is read as a
    table value is (:func:`_table_value`), and the scale is the lcm of their
    denominators, so every value is an int sum of scaled weights."""

    kind = "cover"
    axioms_by_construction = True  # weights are checked to be >= 0

    def __init__(self, ground: Sequence[str], targets: Sequence[str],
                 weights: Mapping[str, object], coverage: Mapping[str, Iterable[str]]):
        super().__init__(ground)
        _check_ids(targets, "targets")
        targets = tuple(targets)
        tindex: dict[str, int] = {}
        for t in targets:
            if not isinstance(t, str):
                raise InputError(f"targets: target ids must be strings, got {t!r}")
            if t in tindex:
                raise InputError(f"targets: duplicate target id {t!r}")
            tindex[t] = len(tindex)
        for field, given in (("weights", weights), ("coverage", coverage)):
            if not isinstance(given, Mapping):
                raise InputError(f"{field}: expected a mapping, got {given!r}")
        wlist = [(0, 1)] * len(targets)  # (numerator, denominator) per target
        for t, raw in weights.items():
            if t not in tindex:
                raise InputError(f"weights: unknown target id {t!r}")
            num, den = _table_value(raw, lambda: f"weights[{t!r}]")
            if num < 0:
                raise InputError(f"weights[{t!r}]: negative weight {Fraction(num, den)}")
            wlist[tindex[t]] = num, den
        missing_w = set(targets) - set(weights)
        if missing_w:
            raise InputError(f"weights: missing weight for target {sorted(missing_w)[0]!r}")
        emasks = [0] * len(self.ground)
        covered = 0  # the mask of the elements with an entry
        for e, ts in coverage.items():
            i = self._index.get(e)
            if i is None:
                raise InputError(f"coverage: unknown element id {e!r}")
            covered |= 1 << i
            _check_ids(ts, "coverage", e)
            m = 0
            for t in ts:
                if t not in tindex:
                    raise InputError(f"coverage[{e!r}]: unknown target id {t!r}")
                m |= 1 << tindex[t]
            emasks[i] = m
        if covered != (1 << len(self.ground)) - 1:
            raise InputError(f"coverage: no entry for element {min(self._members(~covered))!r}")
        self.targets = targets
        self.scale = lcm(*(den for _, den in wlist))
        self._weights = tuple(num * (self.scale // den) for num, den in wlist)
        self._element_target_masks = emasks
        self._target_cache: dict[int, int] = {0: 0}

    def _evaluate(self, mask: int) -> int:
        tm = 0
        masks = self._element_target_masks
        while mask:
            b = mask & -mask
            tm |= masks[b.bit_length() - 1]
            mask ^= b
        val = self._target_cache.get(tm)
        if val is None:
            val = sum(w for i, w in enumerate(self._weights) if tm >> i & 1)
            self._target_cache[tm] = val
        return val

    def to_obj(self) -> dict:
        return {"kind": self.kind,
                "targets": list(self.targets),
                "weights": {t: str(Fraction(w, self.scale))
                            for t, w in zip(self.targets, self._weights)},
                "coverage": {e: [t for i, t in enumerate(self.targets) if m >> i & 1]
                             for e, m in zip(self.ground, self._element_target_masks)}}

    @classmethod
    def from_obj(cls, ground: Sequence[str], payload: dict) -> "CoverFunction":
        targets = id_list(require(payload, "targets", list, "objective"), "objective.targets")
        weights = require(payload, "weights", dict, "objective")
        coverage = require(payload, "coverage", dict, "objective")
        return cls(ground, targets, weights,
                   {e: id_list(ts, f"objective.coverage[{e!r}]") for e, ts in coverage.items()})


class _TwoBlockWitness(SetFunction):
    """The closed-form witnesses: f depends only on how many members of the
    disjoint blocks U and V a subset holds."""

    def _set_blocks(self, u_ids: Sequence[str], v_ids: Sequence[str]) -> None:
        self._u_mask = self.subset_mask(u_ids)
        self._v_mask = self.subset_mask(v_ids)

    def to_obj(self) -> dict:
        return {"kind": self.kind, "u": self._members(self._u_mask),
                "v": self._members(self._v_mask)}

    @staticmethod
    def _blocks_from_obj(payload: dict) -> tuple[list[str], list[str]]:
        return (id_list(require(payload, "u", list, "objective"), "objective.u"),
                id_list(require(payload, "v", list, "objective"), "objective.v"))


class CurvatureWitnessFunction(_TwoBlockWitness):
    """f(A) = min(1, |A n U|) * lam + |A n U| * (1 - lam) + |A n V| on the
    ground set U + V, at the scale of lam's denominator."""

    kind = "curvature-witness"
    axioms_by_construction = True  # lam is checked to lie in [0, 1]

    def __init__(self, u_ids: Sequence[str], v_ids: Sequence[str], lam):
        lam = as_lambda(lam)
        _check_ids(u_ids, "u")
        _check_ids(v_ids, "v")
        super().__init__(tuple(u_ids) + tuple(v_ids), lam.denominator)
        self.lam = lam
        self._a = lam.numerator  # lam * scale, read once, not per evaluation
        self._set_blocks(u_ids, v_ids)

    def _evaluate(self, mask: int) -> int:
        cu = (mask & self._u_mask).bit_count()
        cv = (mask & self._v_mask).bit_count()
        a, d = self._a, self.scale
        return (a if cu else 0) + cu * (d - a) + cv * d

    def to_obj(self) -> dict:
        return {**super().to_obj(), "lambda": str(self.lam)}

    @classmethod
    def from_obj(cls, ground: Sequence[str], payload: dict) -> "CurvatureWitnessFunction":
        u, v = cls._blocks_from_obj(payload)
        lam = require(payload, "lambda", (str, int), "objective")
        if tuple(u) + tuple(v) != tuple(ground):
            raise InputError("objective.u/v: must list the ground elements in order (u block then v block)")
        return cls(u, v, as_fraction(lam, "objective.lambda"))


class PAdditiveWitnessFunction(_TwoBlockWitness):
    """f(A) = min(1, |A n U| / p) + |A n V| / p, at scale p.

    Elements of the ground set outside U and V contribute nothing anywhere.
    """

    kind = "p-additive-witness"
    axioms_by_construction = True  # p is checked to be >= 1

    def __init__(self, ground: Sequence[str], u_ids: Sequence[str], v_ids: Sequence[str], p: int):
        check_positive_int(p, "p")
        super().__init__(ground, p)
        self.p = p
        self._set_blocks(u_ids, v_ids)
        for block, ids, mask in (("u", u_ids, self._u_mask), ("v", v_ids, self._v_mask)):
            if len(ids) > mask.bit_count():  # an id given twice
                e = next(e for e in ids if ids.count(e) > 1)
                raise InputError(f"{block}: repeated element id {e!r}")
        if self._u_mask & self._v_mask:
            raise InputError("u/v: the two blocks must be disjoint")

    def _evaluate(self, mask: int) -> int:
        cu = (mask & self._u_mask).bit_count()
        cv = (mask & self._v_mask).bit_count()
        p = self.p
        return (cu if cu < p else p) + cv  # min(p, cu) without the call

    def to_obj(self) -> dict:
        return {**super().to_obj(), "p": self.p}

    @classmethod
    def from_obj(cls, ground: Sequence[str], payload: dict) -> "PAdditiveWitnessFunction":
        u, v = cls._blocks_from_obj(payload)
        p = require(payload, "p", int, "objective")
        known = set(ground)
        for e in u + v:
            if e not in known:
                raise InputError(f"objective.u/v: element {e!r} not in ground")
        return cls(ground, u, v, p)


OBJECTIVE_KINDS: dict[str, type[SetFunction]] = {
    cls.kind: cls
    for cls in (TabularFunction, CoverFunction, CurvatureWitnessFunction, PAdditiveWitnessFunction)
}

SetFunction.cover = staticmethod(CoverFunction)
SetFunction.curvature_witness = staticmethod(CurvatureWitnessFunction)
SetFunction.p_additive_witness = staticmethod(PAdditiveWitnessFunction)


class AgentSpace:
    """Ordered per-agent decision sets.  Empty sets model the null decision.

    No set may name an id twice, and non-empty sets must be pairwise
    disjoint; together with the objective's ground set they form a
    partition (checked by :func:`check_partition`).
    """

    def __init__(self, decisions: Sequence[Iterable[str]]):
        sets = []
        seen: dict[str, int] = {}
        try:
            rows = iter(decisions)
        except TypeError:
            raise InputError(
                f"agents: expected a sequence of decision sets, got {decisions!r}") from None
        for i, d in enumerate(rows):
            _check_ids(d, "agents", i + 1)
            ids = tuple(d)
            for e in ids:
                if not isinstance(e, str):
                    raise InputError(f"agents[{i + 1}]: decision ids must be strings, got {e!r}")
            s = frozenset(ids)
            if len(s) < len(ids):
                e = next(e for k, e in enumerate(ids) if e in ids[:k])
                raise InputError(f"agents[{i + 1}]: repeated decision id {e!r}")
            for e in s:
                if e in seen:
                    raise InputError(
                        f"agents[{i + 1}]: decision {e!r} already belongs to agent {seen[e] + 1}"
                        " (decision sets must be disjoint)")
                seen[e] = i
            sets.append(s)
        self.decisions = tuple(sets)
        self.n = len(sets)

    def __eq__(self, other) -> bool:
        return isinstance(other, AgentSpace) and self.decisions == other.decisions

    def __hash__(self) -> int:
        return hash(self.decisions)

    def __repr__(self) -> str:
        return f"AgentSpace(n={self.n})"


def check_partition(f: SetFunction, agents: AgentSpace) -> None:
    """Raise InputError unless the non-null decision sets partition f's ground set."""
    union: set[str] = set()
    for d in agents.decisions:
        union |= d
    ground = set(f.ground)
    if union - ground:
        raise InputError(f"agents: partition violated: decision {sorted(union - ground)[0]!r} not in ground set")
    if ground - union:
        raise InputError(f"agents: partition violated: ground element {sorted(ground - union)[0]!r} not owned by any agent")


class PropertyViolation(Record):
    """Witness of a failed axiom.

    * normalized: context/values hold f(empty),
    * monotone:   element e and context (A,) with f(e|A) < 0,
    * submodular: element e and contexts (A, B), A subset of B, with f(e|A) < f(e|B).
    """
    prop: str
    element: Optional[str]
    contexts: tuple[frozenset[str], ...]
    values: tuple[Fraction, ...]

    def describe(self) -> str:
        """One line naming the axiom and the values that break it, e.g.
        ``not monotone: f(b|{a}) = -1``."""
        terms = []
        for ctx, v in zip(self.contexts, self.values):
            subset = "{" + ",".join(sorted(ctx)) + "}"
            arg = subset if self.element is None else f"{self.element}|{subset}"
            terms.append(f"f({arg}) = {v}")
        return f"not {self.prop}: " + " < ".join(terms)


class PropertyReport(Record):
    normalized: bool
    monotone: bool
    submodular: bool
    curvature: Optional[Fraction]
    counterexample: Optional[PropertyViolation]

    @property
    def all_hold(self) -> bool:
        return self.normalized and self.monotone and self.submodular


def check_properties(f: SetFunction) -> PropertyReport:
    """Report the three axioms and, when all hold, the total curvature.

    This is the one place that decides whether a function is scanned.  A
    kind that sets ``axioms_by_construction`` holds the axioms, so its
    report comes without a scan and without a size cap, and its curvature
    is the closed form.  Any other function, a table included, is verified
    by exhaustive enumeration over all subsets, capped at ``EXHAUSTIVE_CAP``
    elements.  To scan a cover, scan the table of its values
    (:meth:`SetFunction.tabular`).

    One pass over the subsets A in mask order finds the first element e
    outside A with f(e|A) < 0, which breaks monotonicity, and the first
    pair i < j outside A with f(i|A) < f(i|A u {j}), which breaks
    submodularity; it stops once it has both.  That exchange condition
    reads f(A+i) + f(A+j) >= f(A) + f(A+i+j), symmetric in i and j, so each
    unordered pair is checked once: if (j, i) breaks it, so does (i, j),
    which comes first, and the witness is the one an ordered-pair scan
    reports.  It covers the general A subset-of B form by induction on
    |B \\ A|.  On a function that holds the axioms the pass makes
    n(n-1) 2^(n-3) exchange comparisons, half as many as over ordered
    pairs.  Curvature is filled only when all three axioms hold.
    """
    if f.axioms_by_construction:
        return PropertyReport(True, True, True, total_curvature(f), None)
    table = f.scaled_table()
    d = f.scale
    bits = [1 << i for i in range(len(f.ground))]

    def first_rise(m: int, base, outside: list) -> Optional[tuple[int, int, int]]:
        """(A, i, j) as masks for the first pair i < j with f(i|A) < f(i|A+j),
        or None; A = m, f(A) = base, ``outside`` lists (bit, f(A+bit))."""
        for k, (bi, vi) in enumerate(outside):
            mi, gain = m | bi, vi - base
            for bj, vj in outside[k + 1:]:
                if table[mi | bj] - vj > gain:
                    return m, bi, bj
        return None

    drop = rise = None  # the first monotone and submodular violations, as masks
    for m, base in enumerate(table):
        outside = [(b, table[m | b]) for b in bits if not m & b]
        if drop is None:
            drop = next(((m, b) for b, v in outside if v < base), None)
        if rise is None:
            rise = first_rise(m, base, outside)
        if drop and rise:
            break

    def element(bit: int) -> str:
        return f.ground[bit.bit_length() - 1]

    normalized = table[0] == 0
    violations = []
    if not normalized:
        violations.append(PropertyViolation(
            "normalized", None, (frozenset(),), (Fraction(table[0], d),)))
    if drop:
        m, e = drop
        violations.append(PropertyViolation(
            "monotone", element(e), (f.mask_subset(m),), (Fraction(table[m | e] - table[m], d),)))
    if rise:
        m, i, j = rise
        violations.append(PropertyViolation(
            "submodular", element(i), (f.mask_subset(m), f.mask_subset(m | j)),
            (Fraction(table[m | i] - table[m], d), Fraction(table[m | i | j] - table[m | j], d))))
    curvature = None if violations else total_curvature(f)
    return PropertyReport(normalized, drop is None, rise is None, curvature,
                          violations[0] if violations else None)


def total_curvature(f: SetFunction) -> Fraction:
    """Minimal lam such that f(e|A) >= (1 - lam) f(e) whenever f(e) > 0.

    For a normalized monotone submodular f, the marginal f(e|A) is smallest
    at A = S \\ {e}, so the closed form (Conforti and Cornuejols, 1984)

        lam = max(0, max_e 1 - f(e | S \\ {e}) / f(e))  over e with f(e) > 0

    equals the maximum of 1 - f(e|A)/f(e) over every subset A.  It costs
    2n + 1 evaluations and has no size cap.  Returns 0 when no element has
    positive value.

    Assumes the axioms hold (by construction, or f passed
    :func:`check_properties`); nothing here checks them.  On an arbitrary
    function the closed form is one term of the subset-wise maximum, so it
    can understate that maximum, and the clamp at 0 hides a negative term:
    the supermodular pair f(a) = f(b) = 1, f(ab) = 3 gets lam = 0.  The
    result may exceed 1 on non-monotone functions.
    """
    n = len(f.ground)
    full = (1 << n) - 1
    f_full = f.scaled_value(full)
    # the largest lam_e = (f(e) - f(e | S \ {e})) / f(e) so far, as a pair
    # of scaled values (the scale cancels), compared by cross-multiplying
    top, bottom = 0, 1
    for i in range(n):
        bit = 1 << i
        fe = f.scaled_value(bit)
        if fe <= 0:
            continue
        gap = fe - f_full + f.scaled_value(full ^ bit)
        if gap * bottom > top * fe:
            top, bottom = gap, fe
    return Fraction(top, bottom)
