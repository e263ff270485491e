"""Closed-form competitive-ratio bounds and the certification harness.

The bound formulas are exact rationals; the harness compares them with
empirically enumerated worst-greedy ratios and flags any instance whose
ratio falls below its guaranteed lower bound, or any witness missing its
predicted ratio.  Upper bounds are informational: a finite suite's
empirical ratio always sits at or above the true infimum, so exceeding an
upper bound on a particular instance is expected, not a failure.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Optional

from .errors import (
    EXIT_CAPACITY,
    EXIT_FAIL,
    EXIT_INPUT,
    EXIT_OK,
    CapacityError,
    InputError,
    UndefinedRatioError,
)
from .graphmetrics import (
    clique_cover_number,
    has_sibling_condition,
    independence_number,
)
from .greedy import (
    brute_force_optimum,
    empirical_ratio,
    run_greedy,
)
from .objective import (
    ZERO,
    AgentSpace,
    SetFunction,
    as_lambda,
    check_properties,
)
from .structure import (
    InformationGraph,
    Record,
    ceil_div,
    check_n_q,
    check_positive_int,
    optimal_graph,
    remainder_one,
)


class RatioBounds(Record):
    """Guaranteed lower and attainable upper bounds on a competitive ratio.

    ``refined_upper`` is present when the sibling condition tightens the
    upper bound from 1/alpha to 1/(alpha + 1).
    """
    lower: Fraction
    upper: Fraction
    refined_upper: Optional[Fraction] = None

    @property
    def effective_upper(self) -> Fraction:
        return self.refined_upper if self.refined_upper is not None else self.upper


def rho(n: int, q: int) -> Fraction:
    """Best competitive ratio over all n-agent structures with at most q
    iterations: 1/r in the remainder-one case, else 1/(r+1), r = ceil(n/q)."""
    check_n_q(n, q)
    r = ceil_div(n, q)
    return Fraction(1, r) if remainder_one(n, q) else Fraction(1, r + 1)


def _require_vertices(alpha: int) -> None:
    """Refuse alpha = 0, a graph with no vertices: every upper bound
    divides by alpha."""
    if alpha == 0:
        raise UndefinedRatioError(
            "graph: has no vertices (alpha = 0), so its ratio bounds are undefined")


def _graph_bounds(alpha: int, theta: int, sibling: bool) -> RatioBounds:
    _require_vertices(alpha)
    refined = Fraction(1, alpha + 1) if sibling else None
    return RatioBounds(Fraction(1, theta + 1), Fraction(1, alpha), refined)


def _curvature_bounds(alpha: int, theta: int, lam: Fraction) -> RatioBounds:
    _require_vertices(alpha)
    return RatioBounds((theta - (theta - 1) * lam) / (theta + lam),
                       (alpha - (alpha - 1) * lam) / Fraction(alpha))


def graph_ratio_bounds(graph: InformationGraph) -> RatioBounds:
    """1/(theta+1) <= gamma(G) <= 1/alpha, refined to 1/(alpha+1) when some
    maximum independent set has an observed member."""
    return _graph_bounds(independence_number(graph).value,
                         clique_cover_number(graph).value,
                         has_sibling_condition(graph) is not None)


def curvature_graph_bounds(graph: InformationGraph, lam) -> RatioBounds:
    """Bounds under total curvature lam:
    (theta-(theta-1)lam)/(theta+lam) <= gamma <= (alpha-(alpha-1)lam)/alpha.

    At lam=1 this reduces to the plain bounds' lower/upper pair; at lam=0
    both sides equal 1.
    """
    lam = as_lambda(lam)
    return _curvature_bounds(independence_number(graph).value,
                             clique_cover_number(graph).value, lam)


def curvature_eta_bounds(n: int, q: int, lam) -> RatioBounds:
    """Structure-level curvature bounds with r = ceil(n/q):
    (r-(r-1)lam)/(r+lam) <= eta_lam(n, q) <= (r-(r-1)lam)/r."""
    check_n_q(n, q)
    lam = as_lambda(lam)
    r = ceil_div(n, q)
    return _curvature_bounds(r, r, lam)


def min_edges_bound(n: int, k: int) -> int:
    """Fewest edges of any n-vertex graph guaranteeing ratio >= 1/(k+1):
    the edge count of a disjoint union of k near-equal cliques.

    With m = n mod k there are m cliques of size ceil(n/k) and k - m of
    size floor(n/k).  Stated for k >= 2; k = 1 degenerates to the complete
    graph and is accepted.
    """
    check_positive_int(n, "n")
    check_positive_int(k, "k")
    m = n % k
    hi = ceil_div(n, k)
    lo = n // k
    return m * hi * (hi - 1) // 2 + (k - m) * lo * (lo - 1) // 2


class ChainCheck(Record):
    """The telescoping decomposition certifying optimum <= r * greedy on the
    remainder-one optimal graph, with every intermediate stage evaluated.

    ``stages`` holds, in order: the optimum value; the optimum joined with
    the greedy decisions of the observed prefix T; the same via the
    telescoping sum; the sum after relaxing each term to in-neighborhood
    context; the regrouped sum over residue chains; the sum with greedy
    decisions substituted; the merged chain values; and r times the greedy
    value.  Consecutive stages must be related by = <= = <= = <= as listed.
    """
    stages: tuple[Fraction, ...]
    holds: bool
    r: int
    optimum: Fraction
    greedy_value: Fraction


STAGE_NAMES = (
    "optimum",
    "optimum_join_prefix",
    "telescoped",
    "context_relaxed",
    "regrouped",
    "greedy_substituted",
    "chains_merged",
    "r_times_greedy",
)


def chain_bound_check(f: SetFunction, agents: AgentSpace, n: int, q: int) -> ChainCheck:
    """Evaluate the full inequality chain on the remainder-one optimal graph.

    Requires n = 1 (mod q).  Runs worst-policy greedy and the brute-force
    optimum on optimal_graph(n, q), then computes each stage of the
    telescoping argument and verifies every equality exactly and every
    inequality in order.  The endpoint is optimum <= r * greedy_value.
    """
    check_n_q(n, q)
    if not remainder_one(n, q):
        raise InputError(f"n={n}, q={q}: chain check requires n = 1 (mod q)")
    if agents.n != n:
        raise InputError(f"agents: expected {n} agents, got {agents.n}")
    graph = optimal_graph(n, q)
    r = ceil_div(n, q)
    sol = run_greedy(f, agents, graph, "worst")
    opt_profile, opt_value = brute_force_optimum(f, agents)

    def mask_of(profile, agent_ids) -> int:
        return f.subset_mask(profile[a - 1] for a in agent_ids if profile[a - 1] is not None)

    prefix = range(1, (q - 1) * (r - 1) + 1)
    sol_prefix = mask_of(sol.profile, prefix)
    all_agents = range(1, n + 1)
    opt_all = mask_of(opt_profile, all_agents)
    sol_all = mask_of(sol.profile, all_agents)

    s0 = opt_value
    s1 = f.mask_value(opt_all | sol_prefix)

    # telescoping: f(sol_prefix) + sum_i f(opt_i | opt_{1:i-1} u sol_prefix)
    s2 = f.mask_value(sol_prefix)
    acc = sol_prefix
    for i in all_agents:
        d = opt_profile[i - 1]
        if d is None:
            continue
        m = f.subset_mask((d,))
        s2 += f.mask_value(acc | m) - f.mask_value(acc)
        acc |= m

    def relaxed_term(i: int, profile) -> Fraction:
        d = profile[i - 1]
        if d is None:
            return ZERO
        ctx = mask_of(sol.profile, graph.in_neighbors(i))
        m = f.subset_mask((d,))
        return f.mask_value(ctx | m) - f.mask_value(ctx)

    s3 = f.mask_value(sol_prefix) + sum((relaxed_term(i, opt_profile) for i in all_agents), ZERO)

    # regrouping by residue chains C_j = {j, j+(r-1), ..., j+(r-1)(q-1)}
    chains = [tuple(j + k * (r - 1) for k in range(q)) for j in range(1, r)]
    chain_agents = [a for c in chains for a in c]
    s4 = (f.mask_value(sol_prefix)
          + sum((relaxed_term(i, opt_profile) for i in chain_agents), ZERO)
          + relaxed_term(n, opt_profile))
    s5 = (f.mask_value(sol_prefix)
          + sum((relaxed_term(i, sol.profile) for i in chain_agents), ZERO)
          + relaxed_term(n, sol.profile))

    # merged: each chain telescopes to f(sol on the chain); the prefix term
    # absorbs agent n's marginal into f(sol on T u {n})
    s6 = sum((f.mask_value(mask_of(sol.profile, c)) for c in chains), ZERO)
    s6 += f.mask_value(mask_of(sol.profile, tuple(prefix) + (n,)))

    s7 = r * sol.value

    stages = (s0, s1, s2, s3, s4, s5, s6, s7)
    holds = (s0 <= s1 and s1 == s2 and s2 <= s3 and s3 == s4
             and s4 <= s5 and s5 == s6 and s6 <= s7)
    return ChainCheck(stages, holds, r, opt_value, sol.value)


class SuiteEntry(Record):
    """One certification row: an instance, the graph it runs on, and an
    optional predicted ratio when the instance is a constructed witness."""
    instance_id: str
    graph_id: str
    objective: SetFunction
    agents: AgentSpace
    graph: InformationGraph
    predicted_ratio: Optional[Fraction] = None


class CertifyRow(Record):
    instance_id: str
    graph_id: str
    empirical: Optional[Fraction]
    lower: Optional[Fraction]
    upper: Optional[Fraction]
    refined_upper: Optional[Fraction]
    curvature: Optional[Fraction]
    predicted: Optional[Fraction]
    verdict: str  # "pass" or a verdict of VERDICTS
    note: str = ""


# The report key of each CertifyRow field, in field order.  A text line
# prints "-" for a missing value of a _DASHED key and leaves out any other
# missing value and an empty note; a JSON row has every key, null if missing.
ROW_KEYS = ("instance", "graph", "empirical", "lower", "upper", "refined_upper",
            "curvature", "predicted", "verdict", "note")
_DASHED = frozenset(("empirical", "lower", "upper"))
_row_values = attrgetter(*CertifyRow._fields)

# Every verdict but "pass", in summary order: (verdict, summary and --json
# key of its count, whether a zero count is printed, exit status).  A suite
# exits with the lowest status among its rows, or EXIT_OK if every row passes.
VERDICTS = (
    ("FAIL", "failures", True, EXIT_FAIL),
    ("capacity-error", "capacity_errors", True, EXIT_CAPACITY),
    ("inapplicable", "inapplicable", False, EXIT_FAIL),
    ("undefined", "undefined", False, EXIT_FAIL),
    ("input-error", "input_errors", False, EXIT_INPUT),
)


class BoundsReport(Record):
    rows: tuple[CertifyRow, ...]

    def count(self, verdict: str) -> int:
        return sum(1 for r in self.rows if r.verdict == verdict)

    @property
    def equalities(self) -> int:
        return sum(1 for r in self.rows
                   if r.predicted is not None and r.empirical == r.predicted)

    def summary(self) -> list[tuple[str, int]]:
        """The counts after the rows, as (key, count) pairs: each verdict
        of VERDICTS whose count is printed, then the equalities."""
        counts = ((key, always, self.count(v)) for v, key, always, _ in VERDICTS)
        return ([(key, c) for key, always, c in counts if always or c]
                + [("equalities", self.equalities)])

    @property
    def exit_status(self) -> int:
        return min((status for v, _, _, status in VERDICTS if self.count(v)),
                   default=EXIT_OK)

    def to_lines(self) -> list[str]:
        lines = []
        for r in self.rows:
            parts = ["row"]
            for key, value in zip(ROW_KEYS, _row_values(r)):
                if value is None:
                    if key in _DASHED:
                        parts.append(f"{key}=-")
                elif key != "note" or value:
                    parts.append(f"{key}={value}")
            lines.append(" ".join(parts))
        lines.append(" ".join([f"rows={len(self.rows)}"]
                              + [f"{k}={v}" for k, v in self.summary()]))
        return lines

    def to_json_obj(self) -> dict:
        return {
            "rows": [{key: None if value is None else str(value)
                      for key, value in zip(ROW_KEYS, _row_values(r))}
                     for r in self.rows],
            **dict(self.summary()),
        }


def _unrated_row(entry: SuiteEntry, verdict: str, note: str) -> CertifyRow:
    """The row of an entry that gets no ratio or bounds."""
    return CertifyRow(entry.instance_id, entry.graph_id, None, None, None, None,
                      None, entry.predicted_ratio, verdict, note)


def certify(entries: Iterable[SuiteEntry]) -> BoundsReport:
    """Check every entry's empirical ratio against its guaranteed lower
    bound, and witnesses against their predicted ratios.

    The bounds hold only for a normalized, monotone, submodular objective,
    so each row starts from one :func:`check_properties` report, which
    scans only a kind that does not hold the axioms by construction (a
    table).  If an axiom fails, the row is ``inapplicable`` and its note
    names the violation.  Otherwise the row gets the curvature-form lower
    bound (theta-(theta-1)lam)/(theta+lam), with lam the report's
    closed-form total curvature; it is never below the plain 1/(theta+1).
    alpha, theta and the sibling condition share one maximum-set search per
    row (the graph's memo).

    A row whose optimum is 0 is ``undefined``, one whose data are
    inconsistent (say, fewer agents than graph vertices) is
    ``input-error``, and one that exceeds a cap is ``capacity-error``; the
    note of each is the error's message.  None of these aborts the suite.
    """
    rows = []
    for entry in entries:
        try:
            report = check_properties(entry.objective)
            if report.counterexample is not None:
                rows.append(_unrated_row(entry, "inapplicable",
                                         report.counterexample.describe()))
                continue
            graph = entry.graph
            alpha = independence_number(graph).value
            theta = clique_cover_number(graph).value
            gb = _graph_bounds(alpha, theta, has_sibling_condition(graph) is not None)
            lam = report.curvature
            lower = _curvature_bounds(alpha, theta, lam).lower
            emp = empirical_ratio(entry.objective, entry.agents, graph)
            ok = lower <= emp <= 1
            note = ""
            if not ok:
                note = ("empirical ratio below guaranteed lower bound" if emp < lower
                        else "empirical ratio above 1")
            if entry.predicted_ratio is not None and emp != entry.predicted_ratio:
                ok = False
                note = "witness missed its predicted ratio"
            rows.append(CertifyRow(
                entry.instance_id, entry.graph_id, emp, lower, gb.upper,
                gb.refined_upper, lam, entry.predicted_ratio,
                "pass" if ok else "FAIL", note))
        except UndefinedRatioError as exc:  # an InputError, so caught first
            rows.append(_unrated_row(entry, "undefined", str(exc)))
        except InputError as exc:
            rows.append(_unrated_row(entry, "input-error", str(exc)))
        except CapacityError as exc:
            rows.append(_unrated_row(entry, "capacity-error", str(exc)))
    return BoundsReport(tuple(rows))
