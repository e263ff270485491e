"""Seeded op streams for the benchmark workloads.

An op is one CLI invocation.  ``OpStream(workload, seed)`` yields ops in a
fixed order: the same workload and seed always give the same ops, and no two
ops of one stream share their input files.  Each op carries, besides its
argv and input files, the model the output checker needs (see ``oracle.py``).

Nothing here imports the program: the input files are written from the
benchmark's own generators, so generating them costs nothing inside any
timed window and does not depend on the code under test.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("certify-random", "run-greedy", "analyze-graph")

# certify-random: rows per op and the suite parameters of every op.
CERTIFY_COUNT = 5
CERTIFY_N_MAX = 6

# run-greedy rotates through these op kinds.  Cover ops fill four of the
# seven slots, so op_s_p50 falls among them (the brute-force optimum) and
# op_s_p90 among the witnesses (the tie tree) and tabular ops (parsing).
RUN_KINDS = ("curvature-witness", "cover-graph", "p-additive-witness",
             "cover-assignment", "tabular", "cover-graph", "cover-assignment")

# analyze-graph rotates through these graph families.
GRAPH_FAMILIES = ("feasible", "optimal", "complement-turan", "uniform")
UNIFORM_DENSITIES = (0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85)
ANALYZE_P = 2

# The size of an op (witness members, cover agents, tabular ground set,
# graph vertices) cycles through a fixed range instead of being drawn at
# random: an op's cost grows steeply with its size, so every run sees the
# same mix of sizes and its medians and means vary less from seed to seed.


def _cycle(sizes, k: int, kinds: int):
    """The size of op k when ops rotate through ``kinds`` kinds."""
    return sizes[(k // kinds) % len(sizes)]


@dataclass
class Op:
    """One CLI invocation.

    ``argv`` names input files by their keys in ``files``; the worker writes
    each file as JSON into the op's directory and substitutes the path.
    A file's object may be a function returning it, so that large files
    are only built when written.  ``items`` is the number of items the op
    produces (certified rows, greedy runs or analyzed graphs).  ``model`` is
    what the checker needs to recompute the expected values independently.
    ``key`` identifies the inputs when the files themselves are too large to
    compare.
    """
    kind: str
    argv: list
    items: int
    files: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    key: str = ""


class OpStream:
    """The deterministic op sequence of one workload and seed."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
        self.workload = workload
        self.rng = random.Random(f"{workload}/{seed}")
        self.k = 0
        self._seen: set = set()

    def __iter__(self):
        return self

    def __next__(self) -> Op:
        make = {"certify-random": _certify_op, "run-greedy": _run_op,
                "analyze-graph": _analyze_op}[self.workload]
        while True:
            op = make(self.rng, self.k)
            key = hashlib.sha256((op.key or json.dumps([op.argv, op.files], sort_keys=True))
                                 .encode()).digest()
            if key not in self._seen:
                break
        self._seen.add(key)
        self.k += 1
        return op


# -- certify-random ----------------------------------------------------


def _certify_op(rng: random.Random, k: int) -> Op:
    suite_seed = rng.randrange(1 << 31)
    argv = ["certify", "--suite", "random", "--count", str(CERTIFY_COUNT),
            "--n-max", str(CERTIFY_N_MAX), "--seed", str(suite_seed)]
    return Op("certify", argv, CERTIFY_COUNT,
              model={"seed": suite_seed, "count": CERTIFY_COUNT, "n_max": CERTIFY_N_MAX})


# -- graphs ------------------------------------------------------------


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def optimal_graph_edges(n: int, q: int) -> list:
    """Edges of the edge-minimal optimal graph on n agents and q iterations."""
    if n == 1:
        return []
    r = _ceil_div(n, q)
    if n % q == 1 % q:
        step = r - 1
        edges = [(i, j) for i in range(1, n) for j in range(i + 1, n) if (j - i) % step == 0]
        edges += [(i, n) for i in range(1, (q - 1) * step + 1)]
        return edges
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if (j - i) % r == 0]


def complement_turan_edges(n: int, r: int) -> list:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if (j - i) % r == 0]


def random_assignment(rng: random.Random, n: int, q: int) -> list:
    return sorted(rng.randint(1, q) for _ in range(n))


def induced_edges(P: list) -> list:
    n = len(P)
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if P[i - 1] < P[j - 1]]


def uniform_edges(rng: random.Random, n: int, density: float) -> list:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < density]


def _flip_pairs(rng: random.Random, n: int, edges: list, flips: int) -> list:
    """Toggle ``flips`` random vertex pairs, so structured families still
    give a distinct graph to every op."""
    es = set(edges)
    for _ in range(flips):
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        es ^= {(i, j)}
    return sorted(es)


def file_text(obj) -> str:
    """JSON text of an input file (``obj`` may be a function returning it)."""
    return json.dumps(obj() if callable(obj) else obj, sort_keys=True) + "\n"


def graph_obj(n: int, edges) -> dict:
    return {"n": n, "edges": [list(e) for e in sorted(edges)]}


# -- analyze-graph -----------------------------------------------------


def _analyze_op(rng: random.Random, k: int) -> Op:
    kinds = len(GRAPH_FAMILIES)
    family = GRAPH_FAMILIES[k % kinds]
    n = _cycle(range(16, 21), k, kinds)
    # each family's own parameter moves on once per cycle of sizes
    if family == "feasible":
        P = random_assignment(rng, n, _cycle(range(2, 16), k, 5 * kinds))
        drop = rng.uniform(0.2, 0.6)
        edges = [e for e in induced_edges(P) if rng.random() >= drop]
    elif family == "optimal":
        edges = _flip_pairs(rng, n, optimal_graph_edges(n, _cycle(range(2, 9), k, 5 * kinds)),
                            rng.randint(1, 3))
    elif family == "complement-turan":
        edges = _flip_pairs(rng, n, complement_turan_edges(n, _cycle(range(2, 9), k, 5 * kinds)),
                            rng.randint(1, 3))
    else:
        edges = uniform_edges(rng, n, _cycle(UNIFORM_DENSITIES, k, 5 * kinds))
    argv = ["analyze", "graph", "--in", "graph.json", "--p", str(ANALYZE_P)]
    return Op(family, argv, 1, files={"graph.json": graph_obj(n, edges)},
              model={"n": n, "edges": sorted(edges), "p": ANALYZE_P})


# -- run-greedy --------------------------------------------------------


def _run_argv(structure_flag: str, structure_file: str) -> list:
    return ["run", "--instance", "instance.json", structure_flag, structure_file,
            "--policy", "worst", "--ratio"]


def _random_graph_edges(rng: random.Random, n: int) -> list:
    return uniform_edges(rng, n, rng.uniform(0.2, 0.8))


def _curvature_witness_op(rng: random.Random, a: int) -> Op:
    """Two-block witness: a pairwise non-adjacent members each tie between
    u_k and v_k, so the worst policy walks 2^a tie resolutions.  Worst greedy
    takes every u (value a - (a-1)*lam); the optimum takes every v (value a).

    The agents without decisions come first: placed after a member, each
    would repeat on every path of the tie tree and multiply the op's cost
    by a factor the size cycle does not control."""
    extra = rng.randint(0, 6)
    n = a + extra
    members = list(range(extra + 1, n + 1))
    mset = set(members)
    density = rng.uniform(0.2, 0.6)
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             if not (i in mset and j in mset) and rng.random() < density]
    den = rng.randint(2, 9)
    lam = Fraction(rng.randint(1, den), den)
    u = [f"u{k}" for k in range(1, a + 1)]
    v = [f"v{k}" for k in range(1, a + 1)]
    pos = {m: k for k, m in enumerate(members)}
    agents = [[u[pos[i]], v[pos[i]]] if i in pos else [] for i in range(1, n + 1)]
    instance = {"ground": u + v, "agents": agents,
                "objective": {"kind": "curvature-witness", "lambda": str(lam), "u": u, "v": v}}
    value = a - (a - 1) * lam
    optimum = Fraction(a)
    return Op("curvature-witness", _run_argv("--graph", "graph.json"), 1,
              files={"instance.json": instance, "graph.json": graph_obj(n, edges)},
              model={"value": value, "optimum": optimum, "predicted_ratio": value / optimum})


def _p_additive_witness_op(rng: random.Random, a: int, sibling: bool, p: int) -> Op:
    """p-additive witness: members see fewer than p other members, so each
    ties between u_k and v_k (both worth 1/p).  Worst greedy saturates the
    shared term (value 1).  With a sibling, the last agent observes at least
    p members and adds one more u block.  The optimum takes every v, plus the
    sibling's u: a/p, or (a+1)/p with a sibling.  Agents without decisions
    come first, as in the curvature witness."""
    extra = rng.randint(0, 4)
    n = extra + a + (1 if sibling else 0)
    members = list(range(extra + 1, extra + a + 1))
    mset = set(members)
    edges = set()
    for idx, m in enumerate(members):
        # at most p-1 earlier members in each member's in-neighborhood
        for j in rng.sample(members[:idx], min(idx, rng.randint(0, p - 1))):
            edges.add((j, m))
    density = rng.uniform(0.2, 0.6)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if not (i in mset and j in mset) and rng.random() < density:
                edges.add((i, j))
    blocks = a + (1 if sibling else 0)
    u = [f"u{k}" for k in range(1, blocks + 1)]
    v = [f"v{k}" for k in range(1, a + 1)]
    ground = u + v + (["t"] if sibling else [])
    pos = {m: k for k, m in enumerate(members)}
    agents = [[u[pos[i]], v[pos[i]]] if i in pos else [] for i in range(1, n + 1)]
    if sibling:
        for m in rng.sample(members, rng.randint(p, min(a, p + 2))):
            edges.add((m, n))
        agents[n - 1] = [u[a], "t"]
    instance = {"ground": ground, "agents": agents,
                "objective": {"kind": "p-additive-witness", "p": p, "u": u, "v": v}}
    optimum = Fraction(blocks, p)
    return Op("p-additive-witness", _run_argv("--graph", "graph.json"), 1,
              files={"instance.json": instance, "graph.json": graph_obj(n, edges)},
              model={"value": Fraction(1), "optimum": optimum,
                     "predicted_ratio": 1 / optimum})


def _cover_model(rng: random.Random, decision_counts: list, n_targets: int,
                 weight, id_format: str = "e{i}_{k}") -> dict:
    """Random weighted cover: element ids, per-element target masks and
    target weights.  The first element always covers a target, so the
    optimum is positive."""
    decisions = []
    masks = {}
    for i, c in enumerate(decision_counts, start=1):
        own = [id_format.format(i=i, k=k) for k in range(1, c + 1)]
        for e in own:
            masks[e] = sum(1 << t for t in range(n_targets) if rng.random() < 0.3)
        decisions.append(own)
    first = decisions[0][0]
    if masks[first] == 0:
        masks[first] = 1 << rng.randrange(n_targets)
    weights = [weight() for _ in range(n_targets)]
    return {"decisions": decisions, "masks": masks, "weights": weights}


def _cover_instance_obj(cover: dict) -> dict:
    targets = [f"y{t}" for t in range(len(cover["weights"]))]
    ground = [e for own in cover["decisions"] for e in own]
    return {
        "ground": ground,
        "agents": cover["decisions"],
        "objective": {
            "kind": "cover",
            "targets": targets,
            "weights": {t: str(w) for t, w in zip(targets, cover["weights"])},
            "coverage": {e: [targets[t] for t in range(len(targets)) if cover["masks"][e] >> t & 1]
                         for e in ground},
        },
    }


def _tabular_instance_obj(cover: dict) -> dict:
    """The cover function written out as a dense table over every subset."""
    ground = [e for own in cover["decisions"] for e in own]
    targets = [0] * (1 << len(ground))          # covered-target mask per subset
    weight = {0: "0"}
    values = {"": "0"}
    for mask in range(1, 1 << len(ground)):
        low = (mask & -mask).bit_length() - 1
        tm = targets[mask] = targets[mask & (mask - 1)] | cover["masks"][ground[low]]
        if tm not in weight:
            weight[tm] = str(sum((w for t, w in enumerate(cover["weights"]) if tm >> t & 1),
                                 Fraction(0)))
        values[",".join(ground[i] for i in range(len(ground)) if mask >> i & 1)] = weight[tm]
    return {"ground": ground, "agents": cover["decisions"],
            "objective": {"kind": "tabular", "values": values}}


def _cover_op(rng: random.Random, structure: str, n: int) -> Op:
    """Weighted cover with 2-3 decisions per agent: the brute-force optimum
    enumerates every profile, which dominates the op.  Half the agents have
    three decisions, so the profile count depends on n alone."""
    counts = [3] * (n // 2) + [2] * (n - n // 2)
    rng.shuffle(counts)
    cover = _cover_model(rng, counts, rng.randint(6, 10), lambda: rng.randint(1, 9))
    files = {"instance.json": _cover_instance_obj(cover)}
    model = {"cover": cover}
    if structure == "graph":
        edges = _random_graph_edges(rng, n)
        files["graph.json"] = graph_obj(n, edges)
        model["visible"] = [[j - 1 for j in range(1, i) if (j, i) in set(edges)]
                            for i in range(1, n + 1)]
        argv = _run_argv("--graph", "graph.json")
    else:
        q = rng.randint(1, n)
        P = random_assignment(rng, n, q)
        files["assignment.json"] = {"q": q, "P": P}
        model["visible"] = [[j for j in range(n) if P[j] < P[i]] for i in range(n)]
        argv = _run_argv("--assignment", "assignment.json")
    return Op(f"cover-{structure}", argv, 1, files=files, model=model)


def _tabular_op(rng: random.Random, size: int) -> Op:
    """A dense table over a ground set of 10-13: parsing the 2^|S| entries
    (0.1-0.9 MB of JSON) dominates the op."""
    counts = []
    while sum(counts) < size:
        counts.append(min(rng.randint(1, 3), size - sum(counts)))
    cover = _cover_model(rng, counts, rng.randint(5, 9),
                         lambda: Fraction(rng.randint(1, 12), rng.randint(1, 4)),
                         id_format="agent{i:02d}_choice{k}")
    n = len(counts)
    edges = _random_graph_edges(rng, n)
    eset = set(edges)
    return Op("tabular", _run_argv("--graph", "graph.json"), 1,
              files={"instance.json": functools.partial(_tabular_instance_obj, cover),
                     "graph.json": graph_obj(n, edges)},
              model={"cover": cover,
                     "visible": [[j - 1 for j in range(1, i) if (j, i) in eset]
                                 for i in range(1, n + 1)]},
              key=json.dumps([cover, edges], default=str, sort_keys=True))


def _run_op(rng: random.Random, k: int) -> Op:
    kind = RUN_KINDS[k % len(RUN_KINDS)]
    kinds = len(RUN_KINDS)
    if kind == "curvature-witness":
        return _curvature_witness_op(rng, _cycle(range(8, 13), k, kinds))
    if kind == "p-additive-witness":
        # sizes 8..12 in five cycles without a sibling, then five with one;
        # p = 2 for ten cycles, then p = 3
        return _p_additive_witness_op(rng, _cycle(range(8, 13), k, kinds),
                                      _cycle(range(2), k, 5 * kinds) == 1,
                                      _cycle((2, 3), k, 10 * kinds))
    if kind == "tabular":
        return _tabular_op(rng, _cycle(range(10, 14), k, kinds))
    return _cover_op(rng, kind.split("-")[1], _cycle(range(6, 9), k, kinds))
