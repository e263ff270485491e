"""Run the benchmark over a set of seeds and record every result.

    python3 perfbench/sweep.py --out A.jsonl [--seeds 1-10 | --held-out]
        [--trace 0|1] [--against DIR --against-out B.jsonl]

Run from the root of a checkout.  Every workload of ``BENCHMARK.json`` runs
on every seed for its ``run_seconds``.  Each run appends one record to
``--out`` (see ``run.py --out``); at the end the spread of every end-to-end metric,
(q3 - q1) / median over the seeds, is printed next to its bound.  The
held-out seeds are for checking a claim on inputs its author did not tune
against: use the tuning seeds while working on a change, then the held-out
ones once.  With ``--against``, every run is paired with one of the same
benchmark code on the checkout in DIR, alternating which goes first; feed
both files to ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from compare import load_benchmark, spread

HERE = os.path.dirname(os.path.abspath(__file__))
TUNING_SEEDS = list(range(1, 11))
HELD_OUT_SEEDS = list(range(1001, 1011))


def _seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def _run(root: str, workload: str, seed: int, seconds: int, trace: int, out: str) -> None:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", os.path.abspath(out)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"sweep: {workload} seed {seed} in {root} exited with {proc.returncode}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{os.path.abspath(root)} {workload} seed={seed} "
          f"attempted={line['attempted']} failed={line['failed']}", file=sys.stderr)


def main(argv=None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--seeds", type=_seeds, default=TUNING_SEEDS, metavar="A-B,C")
    group.add_argument("--held-out", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--against", metavar="DIR")
    parser.add_argument("--against-out", metavar="FILE")
    args = parser.parse_args(argv)
    if bool(args.against) != bool(args.against_out):
        parser.error("--against and --against-out go together")
    seeds = HELD_OUT_SEEDS if args.held_out else args.seeds
    workloads = [w["name"] for w in bench["workloads"]]

    runs = 0
    for workload in workloads:
        for seed in seeds:
            sides = [(".", args.out)]
            if args.against:
                sides.append((args.against, args.against_out))
                if runs % 2:
                    sides.reverse()
            for root, out in sides:
                _run(root, workload, seed, bench["run_seconds"], args.trace, out)
            runs += 1

    if args.trace == 0:
        with open(args.out, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        for workload in workloads:
            for metric in bench["end_to_end"]:
                values = [r["metrics"][metric["name"]]["value"] for r in records
                          if r["workload"] == workload and r["seed"] in seeds and r["trace"] == 0]
                s = spread(values)
                print(f"{workload:15s} {metric['name']:12s} spread={s:.3f} "
                      f"bound={metric['bound']} {'ok' if s <= metric['bound'] / 3 else 'WIDE'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
