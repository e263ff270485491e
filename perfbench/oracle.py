"""Independent reference values and the output checker.

The checker parses each op's output and compares its mathematical values
with values recomputed here, by routes that share no code with the program:

* certify rows: the random suite is regenerated from its seed by a replica
  of the suite generator; alpha, theta and the sibling condition come from
  subset scans (n <= 6), total curvature from its closed form for monotone
  submodular functions, lam = 1 - min_e f(e | S - e) / f(e), the optimum
  from a dynamic program over covered-target masks, and worst greedy from a
  tie-tree walk memoized on what later agents can see;
* run ops: witnesses are checked against the closed forms their generator
  derived, cover and tabular ops against the same optimum and worst-greedy
  routes (tabular tables are generated from a cover function);
* analyze ops: memoized independent-set and clique-cover searches, and a
  direct search for the pseudo-independent sets.

``perfbench/reference.json`` holds outputs recorded from the first commit
the benchmark measured; the benchmark's tests check this module against it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from workloads import Op, OpStream, optimal_graph_edges

ZERO = Fraction(0)


def parse_pairs(line: str) -> dict:
    """``k=v k=v ...`` -> dict (values contain no spaces)."""
    out = {}
    for token in line.split():
        k, sep, v = token.partition("=")
        if sep:
            out[k] = v
    return out


def _frac(text: Optional[str]) -> Optional[Fraction]:
    return None if text is None else Fraction(text)


# -- cover functions over target masks ---------------------------------


class CoverFunction:
    """f(A) = total weight of the targets covered by A, on target masks."""

    def __init__(self, masks: dict, weights: list):
        self.masks = masks
        self.weights = weights
        self._cache: dict[int, Fraction] = {}

    def of(self, tm: int) -> Fraction:
        v = self._cache.get(tm)
        if v is None:
            v = sum((w for t, w in enumerate(self.weights) if tm >> t & 1), ZERO)
            self._cache[tm] = v
        return v


def optimum_value(f: CoverFunction, decisions: list) -> Fraction:
    """Maximum over all profiles, as a dynamic program over the set of
    covered-target masks reachable after each agent."""
    states = {0}
    for own in decisions:
        if own:
            states = {s | f.masks[e] for s in states for e in own}
    return max(f.of(s) for s in states)


def worst_greedy_value(f: CoverFunction, decisions: list, visible: list) -> Fraction:
    """Minimum final value over every argmax tie resolution.

    Agent i maximizes its marginal given the targets covered by the agents
    it sees.  The subtree below agent i depends only on the covered targets
    so far and on the choices later agents can see, so it is memoized on
    those.
    """
    n = len(decisions)
    seen_later = [any(j in visible[i] for i in range(j + 1, n)) for j in range(n)]
    chosen = [0] * n
    memo: dict = {}

    def go(i: int, union: int) -> Fraction:
        if i == n:
            return f.of(union)
        key = (i, union, tuple(chosen[j] for j in range(i) if seen_later[j]))
        hit = memo.get(key)
        if hit is not None:
            return hit
        own = decisions[i]
        if not own:
            result = go(i + 1, union)
        else:
            vis = 0
            for j in visible[i]:
                vis |= chosen[j]
            base = f.of(vis)
            gains = [(f.of(vis | f.masks[e]) - base, f.masks[e]) for e in own]
            top = max(g for g, _ in gains)
            result = None
            for g, m in gains:
                if g != top:
                    continue
                chosen[i] = m
                v = go(i + 1, union | m)
                if result is None or v < result:
                    result = v
            chosen[i] = 0
        memo[key] = result
        return result

    return go(0, 0)


def total_curvature(f: CoverFunction, decisions: list) -> Fraction:
    """Closed form for monotone submodular f: 1 - min_e f(e|S-e)/f(e)."""
    elements = [e for own in decisions for e in own]
    full = 0
    for e in elements:
        full |= f.masks[e]
    worst = ZERO
    for e in elements:
        fe = f.of(f.masks[e])
        if fe <= 0:
            continue
        rest = 0
        for x in elements:
            if x != e:
                rest |= f.masks[x]
        lam = 1 - (f.of(full) - f.of(rest)) / fe
        worst = max(worst, lam)
    return worst


# -- small graphs by subset scan (certify rows) ------------------------


def _adjacency(n: int, edges) -> list:
    adj = [0] * n
    for i, j in edges:
        adj[i - 1] |= 1 << (j - 1)
        adj[j - 1] |= 1 << (i - 1)
    return adj


def _is_independent(adj: list, mask: int) -> bool:
    return all(not (adj[v] & mask) for v in range(len(adj)) if mask >> v & 1)


def small_graph_bounds(n: int, edges) -> tuple:
    """(alpha, theta, sibling) of a graph with at most a handful of
    vertices, by scanning every subset."""
    adj = _adjacency(n, edges)
    full = (1 << n) - 1
    independent = [m for m in range(1 << n) if _is_independent(adj, m)]
    alpha = max(bin(m).count("1") for m in independent)
    cliques = [m for m in range(1, 1 << n)
               if all(m & ~(adj[v] | 1 << v) == 0 for v in range(n) if m >> v & 1)]
    cover = {0: 0}
    for m in range(1, 1 << n):
        low = m & -m
        cover[m] = 1 + min(cover[m & ~c] for c in cliques if c & low and c & ~m == 0)
    theta = cover[full]
    in_masks = [adj[v] & ((1 << v) - 1) for v in range(n)]
    sibling = any(in_masks[w] & m for m in independent if bin(m).count("1") == alpha
                  for w in range(n))
    return alpha, theta, sibling


# -- replica of the random certification suite -------------------------


def random_suite(seed: int, count: int, n_max: int, max_ground: int = 8) -> list:
    """The rows of ``certify --suite random``: instance id, graph id,
    vertex count, edges, cover function and per-agent decisions."""
    rng = random.Random(seed)
    rows = []
    for k in range(count):
        n = rng.randint(1, n_max)
        cap = max(max_ground, n)
        counts = [rng.choice((1, 1, 2, 2)) for _ in range(n)]
        while sum(counts) > cap:
            heavy = [i for i, c in enumerate(counts) if c > 1]
            counts[rng.choice(heavy)] -= 1
        n_targets = rng.randint(1, 5)
        weights = [rng.randint(1, 9) for _ in range(n_targets)]
        decisions, masks = [], {}
        for i, c in enumerate(counts, start=1):
            own = []
            for j in range(1, c + 1):
                e = f"g{i}_{j}"
                own.append(e)
                masks[e] = sum(1 << t for t in range(n_targets) if rng.random() < 0.5)
            decisions.append(own)
        first = decisions[0][0]
        if masks[first] == 0:
            masks[first] = 1 << rng.randrange(n_targets)
        q = rng.randint(1, n)
        if k % 2 == 0:
            edges = optimal_graph_edges(n, q)
            graph_id = f"optimal-{n}-{q}"
        else:
            P = sorted(rng.randint(1, q) for _ in range(n))
            full = sorted((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                          if P[i - 1] < P[j - 1])
            edges = [e for e in full if rng.random() >= 0.4]
            graph_id = f"feasible-{n}-{q}-{k}"
        rows.append({"instance": f"random-{k:04d}", "graph": graph_id, "n": n,
                     "edges": edges, "f": CoverFunction(masks, weights),
                     "decisions": decisions})
    return rows


def expected_certify_rows(seed: int, count: int, n_max: int) -> list:
    out = []
    for row in random_suite(seed, count, n_max):
        f, decisions, n = row["f"], row["decisions"], row["n"]
        alpha, theta, sibling = small_graph_bounds(n, row["edges"])
        lam = total_curvature(f, decisions)
        eset = set(row["edges"])
        visible = [[j - 1 for j in range(1, i) if (j, i) in eset] for i in range(1, n + 1)]
        emp = worst_greedy_value(f, decisions, visible) / optimum_value(f, decisions)
        lower = (theta - (theta - 1) * lam) / (theta + lam)
        out.append({
            "instance": row["instance"], "graph": row["graph"],
            "empirical": emp, "lower": lower, "upper": Fraction(1, alpha),
            "refined_upper": Fraction(1, alpha + 1) if sibling else None,
            "curvature": lam, "verdict": "pass" if lower <= emp <= 1 else "FAIL",
        })
    return out


# -- exact invariants of graphs up to 20 vertices ----------------------


def _mis(adj: list, cand: int, memo: dict) -> int:
    """Independence number of the subgraph induced by ``cand``."""
    if cand == 0:
        return 0
    hit = memo.get(cand)
    if hit is not None:
        return hit
    best_v, best_deg = -1, -1
    m = cand
    while m:
        b = m & -m
        v = b.bit_length() - 1
        d = (adj[v] & cand).bit_count()
        if d <= 1:                       # some maximum set contains v
            best_v, best_deg = v, d
            break
        if d > best_deg:
            best_v, best_deg = v, d
        m ^= b
    vb = 1 << best_v
    take = 1 + _mis(adj, cand & ~vb & ~adj[best_v], memo)
    result = take if best_deg <= 1 else max(take, _mis(adj, cand & ~vb, memo))
    memo[cand] = result
    return result


def independence_number(adj: list) -> int:
    return _mis(adj, (1 << len(adj)) - 1, {})


def _complement(adj: list) -> list:
    full = (1 << len(adj)) - 1
    return [full & ~a & ~(1 << v) for v, a in enumerate(adj)]


def clique_cover_number(adj: list) -> int:
    """Fewest cliques partitioning the vertices.

    Depth-first over the lowest uncovered vertex, which joins one of the
    maximal cliques it forms within the uncovered set; stops once a cover
    meets the lower bound alpha.
    """
    n = len(adj)
    if n == 0:
        return 0
    lower = independence_number(adj)
    best = [n + 1]
    seen: dict[int, int] = {}

    def maximal_cliques(v: int, rem: int):
        out = []

        def bk(r: int, p: int, x: int) -> None:
            if p == 0 and x == 0:
                out.append(r)
                return
            while p:
                b = p & -p
                u = b.bit_length() - 1
                bk(r | b, p & adj[u], x & adj[u])
                p ^= b
                x |= b

        bk(1 << v, adj[v] & rem, 0)
        out.sort(key=lambda c: -c.bit_count())
        return out

    def go(rem: int, used: int) -> bool:
        if rem == 0:
            best[0] = min(best[0], used)
            return best[0] == lower
        if used + 1 >= best[0] or seen.get(rem, n + 1) <= used:
            return False
        seen[rem] = used
        v = (rem & -rem).bit_length() - 1
        for c in maximal_cliques(v, rem):
            if go(rem & ~c, used + 1):
                return True
        return False

    go((1 << n) - 1, 0)
    return best[0]


def schedule_depth(n: int, in_masks: list) -> int:
    levels = []
    for v in range(n):
        levels.append(1 + max((levels[u] for u in range(v) if in_masks[v] >> u & 1), default=0))
    return max(levels, default=1)


def pseudo_independence(n: int, in_masks: list, p: int) -> tuple:
    """(alpha_p, p_sibling): the largest J whose members each have fewer
    than p in-neighbors in J, and whether some maximum J has an outside
    vertex with at least p in-neighbors in J."""
    best = [0]

    def size(v: int, cur: int, have: int) -> None:
        best[0] = max(best[0], have)
        if v == n or have + n - v <= best[0]:
            return
        if (in_masks[v] & cur).bit_count() < p:
            size(v + 1, cur | 1 << v, have + 1)
        size(v + 1, cur, have)

    size(0, 0, 0)
    target = best[0]

    def has_sibling(j: int) -> bool:
        return any((in_masks[w] & j).bit_count() >= p
                   for w in range(n) if not j >> w & 1)

    def find(v: int, cur: int, have: int) -> bool:
        if have == target:
            return has_sibling(cur)
        if have + n - v < target:
            return False
        if (in_masks[v] & cur).bit_count() < p and find(v + 1, cur | 1 << v, have + 1):
            return True
        return find(v + 1, cur, have)

    return target, find(0, 0, 0)


def expected_analysis(n: int, edges, p: int) -> dict:
    adj = _adjacency(n, edges)
    in_masks = [adj[v] & ((1 << v) - 1) for v in range(n)]
    alpha_p, p_sibling = pseudo_independence(n, in_masks, p)
    return {
        "alpha": independence_number(adj),
        "theta": clique_cover_number(adj),
        "omega": independence_number(_complement(adj)),
        "feasible_q": schedule_depth(n, in_masks),
        "alpha_p": alpha_p,
        "p_sibling": p_sibling,
    }


# -- the checker -------------------------------------------------------


def _check_certify(op: Op, stdout: str) -> Optional[str]:
    lines = stdout.splitlines()
    m = op.model
    expected = expected_certify_rows(m["seed"], m["count"], m["n_max"])
    if len(lines) != len(expected) + 1:
        return f"expected {len(expected) + 1} lines, got {len(lines)}"
    for line, exp in zip(lines, expected):
        got = parse_pairs(line)
        ids = (got.get("instance"), got.get("graph"))
        if ids != (exp["instance"], exp["graph"]):
            return f"row ids {ids} expected {(exp['instance'], exp['graph'])}"
        for key in ("empirical", "lower", "upper", "refined_upper", "curvature"):
            if _frac(got.get(key)) != exp[key]:
                return f"{exp['instance']}: {key}={got.get(key)} expected {exp[key]}"
        if got.get("verdict") != exp["verdict"]:
            return f"{exp['instance']}: verdict={got.get('verdict')} expected {exp['verdict']}"
    summary = parse_pairs(lines[-1])
    failures = sum(1 for e in expected if e["verdict"] == "FAIL")
    want = {"rows": str(len(expected)), "failures": str(failures),
            "capacity_errors": "0", "equalities": "0"}
    if summary != want:
        return f"summary {summary} expected {want}"
    return None


def _check_run(op: Op, stdout: str) -> Optional[str]:
    lines = stdout.splitlines()
    if len(lines) != 1:
        return f"expected 1 line, got {len(lines)}"
    got = parse_pairs(lines[0])
    m = op.model
    if "cover" in m:
        f = CoverFunction(m["cover"]["masks"], m["cover"]["weights"])
        decisions = m["cover"]["decisions"]
        value = worst_greedy_value(f, decisions, m["visible"])
        optimum = optimum_value(f, decisions)
    else:
        value, optimum = m["value"], m["optimum"]
    want = {"value": value, "optimum": optimum, "ratio": value / optimum}
    for key, exp in want.items():
        if key not in got or Fraction(got[key]) != exp:
            return f"{key}={got.get(key)} expected {exp}"
    if "predicted_ratio" in m and Fraction(got["ratio"]) != m["predicted_ratio"]:
        return f"ratio={got['ratio']} missed the witness's predicted {m['predicted_ratio']}"
    return None


def _check_analyze(op: Op, stdout: str) -> Optional[str]:
    lines = stdout.splitlines()
    if len(lines) != 1:
        return f"expected 1 line, got {len(lines)}"
    got = parse_pairs(lines[0])
    m = op.model
    exp = expected_analysis(m["n"], m["edges"], m["p"])
    for key in ("alpha", "theta", "omega", "feasible_q", "alpha_p"):
        if got.get(key) != str(exp[key]):
            return f"{key}={got.get(key)} expected {exp[key]}"
    if got.get("p_sibling") != ("true" if exp["p_sibling"] else "false"):
        return f"p_sibling={got.get('p_sibling')} expected {exp['p_sibling']}"
    return None


def check_op(op: Op, returncode: int, stdout: str) -> Optional[str]:
    """None when the op's exit code and output are right, else the first
    mismatch found."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        if op.argv[0] == "certify":
            return _check_certify(op, stdout)
        if op.argv[0] == "run":
            return _check_run(op, stdout)
        return _check_analyze(op, stdout)
    except (ValueError, ZeroDivisionError, KeyError) as exc:
        return f"unparseable output: {exc!r}"


def check_run(workload: str, seed: int, records: list) -> list:
    """Check every op record of a run (see ``measure.measure``) against the
    op stream that produced it; returns one message per failed op."""
    stream = OpStream(workload, seed)
    errors = []
    for k, rec in enumerate(records):
        problem = check_op(next(stream), rec["rc"], rec["out"])
        if problem is not None:
            tail = rec["err"].strip()[-300:]
            errors.append(f"op {k}: {problem}" + (f" ({tail})" if tail else ""))
    return errors
