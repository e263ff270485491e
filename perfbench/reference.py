"""Outputs of the first ops of each workload, recorded from one commit.

    python3 perfbench/reference.py      # from the root of a checkout

rewrites ``perfbench/reference.json`` with the outputs of the checkout's
program.  The benchmark's tests check that the output checker accepts these
outputs, which keeps the checker honest against the commit they came from.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
PATH = os.path.join(HERE, "reference.json")
SEED = 1
OPS = {"certify-random": 6, "run-greedy": 10, "analyze-graph": 8}


def record_outputs(cli_main, workload: str) -> list:
    from measure import load_records, measure
    with tempfile.TemporaryDirectory(dir=os.getcwd(), prefix=".perfbench_ref") as tmp:
        records = load_records(measure(cli_main, workload, SEED, 0, tmp, ops_limit=OPS[workload]))
    return [{"rc": r["rc"], "out": r["out"]} for r in records]


def load() -> dict:
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import pargreedy.cli as cli
    from run import commit_of
    data = {"commit": commit_of(os.getcwd()), "seed": SEED,
            "outputs": {w: record_outputs(cli.main, w) for w in OPS}}
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
