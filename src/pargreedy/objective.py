"""Submodular objective functions over a finite ground set.

Values are exact rationals (``fractions.Fraction``) throughout, so equality
and ordering tests used elsewhere in the package are never subject to
floating-point noise.  A :class:`SetFunction` owns an ordered ground set of
element ids and evaluates arbitrary subsets; four representations are
supported:

* ``tabular``     -- a dense table with one value per subset,
* ``cover``       -- weighted set cover (sum of weights of covered targets),
* ``curvature-witness``   -- the closed-form two-block adversarial family
  parameterized by a curvature value in [0, 1],
* ``p-additive-witness``  -- the closed-form family whose every p decisions
  add up exactly (p-additive).

Subsets are represented internally as bitmasks over the ground order, which
keeps repeated evaluation cheap inside greedy tie-tree enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import CapacityError, InputError

# Exhaustive enumeration cap for dense tables and property scans.
EXHAUSTIVE_CAP = 16

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


class SetFunction:
    """A normalized monotone submodular objective, evaluated exactly.

    Use the classmethod constructors; ``__init__`` is internal.
    """

    def __init__(self, ground: Sequence[str], kind: str):
        ground = tuple(ground)
        seen = set()
        for g in ground:
            if not isinstance(g, str) or not g:
                raise InputError(f"ground: element ids must be nonempty strings, got {g!r}")
            if g in seen:
                raise InputError(f"ground: duplicate element id {g!r}")
            seen.add(g)
        self.ground = ground
        self.kind = kind
        self._index = {g: i for i, g in enumerate(ground)}
        self._cache: dict[int, Fraction] = {}

    # -- constructors -------------------------------------------------

    @classmethod
    def tabular(cls, ground: Sequence[str], values: Mapping, *, cap: int = EXHAUSTIVE_CAP) -> "SetFunction":
        """Dense table: ``values`` maps frozensets (or iterables) of ids to
        rationals and must define every one of the 2^|ground| subsets."""
        f = cls(ground, "tabular")
        n = len(f.ground)
        if n > cap:
            raise CapacityError(f"tabular ground set of {n} elements exceeds cap {cap}")
        table: list[Optional[Fraction]] = [None] * (1 << n)
        for key, raw in values.items():
            ids = (key,) if isinstance(key, str) else tuple(key)
            try:
                mask = f.subset_mask(ids)
            except InputError as exc:
                raise InputError(f"values: {exc}") from None
            if table[mask] is not None:
                raise InputError(f"values: subset {sorted(ids)!r} defined twice")
            val = as_fraction(raw, f"values[{sorted(ids)!r}]")
            if val < 0:
                raise InputError(f"values[{sorted(ids)!r}]: negative value {val}")
            table[mask] = val
        for mask, val in enumerate(table):
            if val is None:
                missing = [f.ground[i] for i in range(n) if mask >> i & 1]
                raise InputError(f"values: no value for subset {missing!r}")
        f._table = table
        return f

    @classmethod
    def cover(cls, ground: Sequence[str], targets: Sequence[str],
              weights: Mapping[str, object], coverage: Mapping[str, Iterable[str]]) -> "SetFunction":
        """Weighted set cover: f(A) is the total weight of targets covered
        by the union of the coverage sets of A's elements."""
        f = cls(ground, "cover")
        targets = tuple(targets)
        tindex: dict[str, int] = {}
        for t in targets:
            if t in tindex:
                raise InputError(f"targets: duplicate target id {t!r}")
            tindex[t] = len(tindex)
        wlist: list[Fraction] = [ZERO] * len(targets)
        for t, raw in weights.items():
            if t not in tindex:
                raise InputError(f"weights: unknown target id {t!r}")
            w = as_fraction(raw, f"weights[{t!r}]")
            if w < 0:
                raise InputError(f"weights[{t!r}]: negative weight {w}")
            wlist[tindex[t]] = w
        missing_w = set(targets) - set(weights)
        if missing_w:
            raise InputError(f"weights: missing weight for target {sorted(missing_w)[0]!r}")
        emasks = [0] * len(f.ground)
        covered = set()
        for e, ts in coverage.items():
            if e not in f._index:
                raise InputError(f"coverage: unknown element id {e!r}")
            covered.add(e)
            m = 0
            for t in ts:
                if t not in tindex:
                    raise InputError(f"coverage[{e!r}]: unknown target id {t!r}")
                m |= 1 << tindex[t]
            emasks[f._index[e]] = m
        uncovered = set(f.ground) - covered
        if uncovered:
            raise InputError(f"coverage: no entry for element {sorted(uncovered)[0]!r}")
        f.targets = targets
        f.weights = tuple(wlist)
        f._element_target_masks = emasks
        f._target_cache: dict[int, Fraction] = {0: ZERO}
        return f

    @classmethod
    def curvature_witness(cls, u_ids: Sequence[str], v_ids: Sequence[str], lam) -> "SetFunction":
        """f(A) = min(1, |A n U|) * lam + |A n U| * (1 - lam) + |A n V|."""
        lam = as_fraction(lam, "lambda")
        if not ZERO <= lam <= ONE:
            raise InputError(f"lambda: must lie in [0, 1], got {lam}")
        f = cls(tuple(u_ids) + tuple(v_ids), "curvature-witness")
        f.lam = lam
        f._u_mask = f.subset_mask(u_ids)
        f._v_mask = f.subset_mask(v_ids)
        return f

    @classmethod
    def p_additive_witness(cls, ground: Sequence[str], u_ids: Sequence[str],
                           v_ids: Sequence[str], p: int) -> "SetFunction":
        """f(A) = min(1, |A n U| / p) + |A n V| / p.

        Elements of ``ground`` outside U and V contribute nothing anywhere.
        """
        if not isinstance(p, int) or p < 1:
            raise InputError(f"p: must be a positive integer, got {p!r}")
        f = cls(ground, "p-additive-witness")
        f.p = p
        f._u_mask = f.subset_mask(u_ids)
        f._v_mask = f.subset_mask(v_ids)
        if f._u_mask & f._v_mask:
            raise InputError("u/v: the two blocks must be disjoint")
        return f

    # -- evaluation ---------------------------------------------------

    def ground_index(self, element: str) -> int:
        """Position of an element in ground order."""
        i = self._index.get(element)
        if i is None:
            raise InputError(f"unknown element id {element!r}")
        return i

    def subset_mask(self, ids: Iterable[str]) -> int:
        """Bitmask of a subset given by element ids."""
        m = 0
        for e in ids:
            i = self._index.get(e)
            if i is None:
                raise InputError(f"unknown element id {e!r}")
            m |= 1 << i
        return m

    def mask_subset(self, mask: int) -> frozenset[str]:
        return frozenset(self.ground[i] for i in range(len(self.ground)) if mask >> i & 1)

    def mask_value(self, mask: int) -> Fraction:
        """Exact value of the subset encoded by ``mask``."""
        kind = self.kind
        if kind == "tabular":
            return self._table[mask]
        cached = self._cache.get(mask)
        if cached is not None:
            return cached
        if kind == "cover":
            tm = 0
            m = mask
            masks = self._element_target_masks
            while m:
                b = m & -m
                tm |= masks[b.bit_length() - 1]
                m ^= b
            val = self._target_cache.get(tm)
            if val is None:
                val = sum((self.weights[i] for i in range(len(self.weights)) if tm >> i & 1), ZERO)
                self._target_cache[tm] = val
        elif kind == "curvature-witness":
            cu = (mask & self._u_mask).bit_count()
            cv = (mask & self._v_mask).bit_count()
            val = (self.lam if cu else ZERO) + cu * (ONE - self.lam) + cv
        elif kind == "p-additive-witness":
            cu = (mask & self._u_mask).bit_count()
            cv = (mask & self._v_mask).bit_count()
            val = min(ONE, Fraction(cu, self.p)) + Fraction(cv, self.p)
        else:  # pragma: no cover - constructors fix the kind
            raise InputError(f"unknown objective kind {self.kind!r}")
        self._cache[mask] = val
        return val

    def value(self, subset: Iterable[str]) -> Fraction:
        """f(A) for a subset given by element ids."""
        return self.mask_value(self.subset_mask(subset))

    def marginal(self, added: Iterable[str], context: Iterable[str]) -> Fraction:
        """f(A | B) = f(A u B) - f(B)."""
        a = self.subset_mask(added)
        b = self.subset_mask(context)
        return self.mask_value(a | b) - self.mask_value(b)

    def singleton(self, element: str) -> Fraction:
        return self.mask_value(self.subset_mask((element,)))

    def full_table(self, cap: int = EXHAUSTIVE_CAP) -> list[Fraction]:
        """Values of all 2^n subsets, indexed by mask.  Capped."""
        n = len(self.ground)
        if n > cap:
            raise CapacityError(
                f"exhaustive scan over 2^{n} subsets exceeds cap of {cap} elements")
        return [self.mask_value(m) for m in range(1 << n)]

    def __repr__(self) -> str:
        return f"SetFunction(kind={self.kind!r}, n={len(self.ground)})"


class AgentSpace:
    """Ordered per-agent decision sets.  Empty sets model the null decision.

    Non-empty sets must be pairwise disjoint; together with the objective's
    ground set they form a partition (checked by :func:`check_partition`).
    """

    def __init__(self, decisions: Sequence[Iterable[str]]):
        sets = []
        seen: dict[str, int] = {}
        for i, d in enumerate(decisions):
            s = frozenset(d)
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
        raise InputError(f"agents: decision {sorted(union - ground)[0]!r} not in ground set")
    if ground - union:
        raise InputError(f"agents: ground element {sorted(ground - union)[0]!r} not owned by any agent")


@dataclass(frozen=True)
class PropertyViolation:
    """Witness of a failed axiom.

    * normalized: context/values hold f(empty),
    * monotone:   element e and context (A,) with f(e|A) < 0,
    * submodular: element e and contexts (A, B), A subset of B, with f(e|A) < f(e|B).
    """
    prop: str
    element: Optional[str]
    contexts: tuple[frozenset[str], ...]
    values: tuple[Fraction, ...]


@dataclass(frozen=True)
class PropertyReport:
    normalized: bool
    monotone: bool
    submodular: bool
    curvature: Optional[Fraction]
    counterexample: Optional[PropertyViolation]

    @property
    def all_hold(self) -> bool:
        return self.normalized and self.monotone and self.submodular


def check_properties(f: SetFunction, *, cap: int = EXHAUSTIVE_CAP) -> PropertyReport:
    """Verify the three axioms by exhaustive enumeration over all subsets.

    Monotonicity checks every (element, context) pair.  Submodularity checks
    the single-element exchange condition f(e|A) >= f(e|A u {e'}) for every
    subset A and distinct e, e' outside A, which covers the general
    A subset-of B form by induction on |B \\ A|.  Curvature is filled only
    when all three axioms hold.
    """
    n = len(f.ground)
    table = f.full_table(cap)
    normalized = table[0] == 0
    violation: Optional[PropertyViolation] = None
    if not normalized:
        violation = PropertyViolation("normalized", None, (frozenset(),), (table[0],))

    monotone = True
    mono_violation = None
    for m in range(1 << n):
        base = table[m]
        for i in range(n):
            if m >> i & 1:
                continue
            if table[m | (1 << i)] < base:
                monotone = False
                mono_violation = PropertyViolation(
                    "monotone", f.ground[i], (f.mask_subset(m),),
                    (table[m | (1 << i)] - base,))
                break
        if not monotone:
            break
    if violation is None:
        violation = mono_violation

    submodular = True
    sub_violation = None
    for m in range(1 << n):
        if not submodular:
            break
        base = table[m]
        outside = [i for i in range(n) if not m >> i & 1]
        for i in outside:
            gain_small = table[m | (1 << i)] - base
            for j in outside:
                if j == i:
                    continue
                mj = m | (1 << j)
                gain_large = table[mj | (1 << i)] - table[mj]
                if gain_small < gain_large:
                    submodular = False
                    sub_violation = PropertyViolation(
                        "submodular", f.ground[i],
                        (f.mask_subset(m), f.mask_subset(mj)),
                        (gain_small, gain_large))
                    break
            if not submodular:
                break
    if violation is None:
        violation = sub_violation

    curvature = None
    if normalized and monotone and submodular:
        curvature = total_curvature(f)
    return PropertyReport(normalized, monotone, submodular, curvature, violation)


def total_curvature(f: SetFunction) -> Fraction:
    """Minimal lam such that f(e|A) >= (1 - lam) f(e) whenever f(e) > 0.

    For a normalized monotone submodular f, the marginal f(e|A) is smallest
    at A = S \\ {e}, so the closed form (Conforti and Cornuejols, 1984)

        lam = max(0, max_e 1 - f(e | S \\ {e}) / f(e))  over e with f(e) > 0

    equals the maximum of 1 - f(e|A)/f(e) over every subset A.  It costs
    2n + 1 evaluations and has no size cap.  Returns 0 when no element has
    positive value.

    Assumes f passed :func:`check_properties`.  On an arbitrary function the
    closed form is one term of the subset-wise maximum, so it can only
    understate that maximum: a smaller lam raises the curvature lower bound
    of :func:`pargreedy.bounds.certify`, which can then only turn a
    ``pass`` into a ``FAIL``, never the other way.  The result may exceed
    1 on non-monotone functions.
    """
    n = len(f.ground)
    full = (1 << n) - 1
    f_full = f.mask_value(full)
    worst = ZERO
    for i in range(n):
        bit = 1 << i
        fe = f.mask_value(bit)
        if fe <= 0:
            continue
        lam = 1 - (f_full - f.mask_value(full ^ bit)) / fe
        if lam > worst:
            worst = lam
    return worst
