"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl
    python3 perfbench/compare.py --summary FILE.jsonl...

Each file holds records written by ``run.py --out`` (or ``sweep.py``).  For
every workload and metric it prints both medians and quartiles, the ratio
NEW/BASE with its base, and the share of pairs (runs of the same workload,
seed and trace mode) that NEW won, ties counting for neither side.

Verdicts for the end-to-end metrics, which have bounds in BENCHMARK.json:

* ``unresolved`` -- either side's spread, (q3 - q1) / median, is wider than
  the bound, and not every NEW run beats every BASE run;
* ``WORSE``      -- NEW's median is worse than BASE's by more than the bound;
* ``better``     -- NEW won at least 9 in 10 pairs and the medians differ by
  more than BASE's own quartile distance;
* ``same``       -- none of the above.

Per-layer metrics have no bound; they get ``better``/``worse`` by the pair
rule alone, or ``-``.  ``--summary`` prints, as JSON, every metric's median,
quartiles and spread per workload over the records of the given files.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_benchmark() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list) -> float:
    """(q3 - q1) / median, as ``statistics.quantiles(values, n=4)`` gives
    the quartiles."""
    q1, _, q3 = quartiles(values)
    median = statistics.median(values)
    if median == 0:
        return 0.0 if q1 == q3 else float("inf")
    return (q3 - q1) / abs(median)


def _load(path: str) -> dict:
    """{(workload, trace): {metric: [(seed, value), ...]}} in file order."""
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            group = out.setdefault((rec["workload"], rec["trace"]), {})
            for name, m in rec["metrics"].items():
                group.setdefault(name, []).append((rec["seed"], m["value"]))
    return out


def _pairs(base: list, new: list) -> list:
    """Match runs by seed, in the order each seed appears."""
    pending: dict = {}
    for seed, value in base:
        pending.setdefault(seed, []).append(value)
    pairs = []
    for seed, value in new:
        if pending.get(seed):
            pairs.append((pending[seed].pop(0), value))
    return pairs


def verdict(base: list, new: list, pairs: list, lower_is_better: bool, bound) -> str:
    sign = 1 if lower_is_better else -1
    b1, bmed, b3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) > 0)
    gained = pairs and abs(nmed - bmed) > b3 - b1
    if bound is not None:
        if max(spread(base), spread(new)) > bound:
            if all(sign * (n - b) < 0 for n in new for b in base):
                return "better (every run)"
            return "unresolved"
        if bmed and sign * (nmed - bmed) / abs(bmed) > bound:
            return "WORSE"
        return "better" if gained and wins >= 0.9 * len(pairs) else "same"
    if gained and wins >= 0.9 * len(pairs):
        return "better"
    if gained and losses >= 0.9 * len(pairs):
        return "worse"
    return "-"


def summary(paths: list) -> dict:
    """{workload: {metric: median, quartiles, spread, unit, runs}} over the
    records in ``paths``."""
    out: dict = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                for name, m in rec["metrics"].items():
                    entry = out.setdefault(rec["workload"], {}).setdefault(
                        name, {"unit": m["unit"], "values": []})
                    entry["values"].append(m["value"])
    for metrics in out.values():
        for entry in metrics.values():
            values = entry.pop("values")
            q1, median, q3 = quartiles(values)
            entry.update(median=median, q1=q1, q3=q3, spread=spread(values), runs=len(values))
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--summary"] and len(argv) > 1:
        print(json.dumps(summary(argv[1:]), indent=1))
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = load_benchmark()
    specs = {m["name"]: (m, 0) for m in bench["end_to_end"]}
    specs.update({m["name"]: (m, 1) for m in bench["per_layer"]})
    base_all, new_all = _load(argv[0]), _load(argv[1])
    print(f"{'workload':15s} {'metric':40s} {'base median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s} {'new/base':>9s} {'won':>6s}  verdict")
    for workload in [w["name"] for w in bench["workloads"]]:
        for name, (spec, trace) in specs.items():
            base = [v for _, v in base_all.get((workload, trace), {}).get(name, [])]
            new = [v for _, v in new_all.get((workload, trace), {}).get(name, [])]
            if not base or not new:
                continue
            pairs = _pairs(base_all[(workload, trace)][name], new_all[(workload, trace)][name])
            b1, bmed, b3 = quartiles(base)
            n1, nmed, n3 = quartiles(new)
            lower = spec["better"] == "lower"
            won = sum(1 for b, n in pairs if (n < b if lower else n > b))
            ratio = f"{nmed / bmed:9.3f}" if bmed else f"{'-':>9s}"
            print(f"{workload:15s} {name:40s} {bmed:10.4g} [{b1:9.4g}, {b3:9.4g}] "
                  f"{nmed:10.4g} [{n1:9.4g}, {n3:9.4g}] {ratio} {won:2d}/{len(pairs):<3d} "
                  f"{verdict(base, new, pairs, lower, spec.get('bound'))}")
    print(f"new/base: NEW median over BASE median (base = {argv[0]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
