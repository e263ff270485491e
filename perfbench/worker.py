"""The measured process of one benchmark run, started by ``run.py``.

    python3 perfbench/worker.py setup T0
    python3 perfbench/worker.py run T0 WORKLOAD SEED SECONDS TRACE WORKDIR

Run from the root of a checkout; the program is imported from its ``src``.
T0 is the CLOCK_MONOTONIC reading taken just before the process was
started, so the set-up time spans interpreter start-up and the import of
``pargreedy.cli``; only ``os``, ``sys`` and ``time`` are imported before
that window ends.  ``setup`` prints the set-up time; ``run`` writes the op
records to WORKDIR/ops.jsonl (see ``measure.py``) and peak memory and, when
traced, the per-layer summary and the spans to WORKDIR/result.json.
"""

import os
import sys
import time


def main() -> int:
    mode, t0 = sys.argv[1], float(sys.argv[2])
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import pargreedy.cli as cli
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - t0
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"pargreedy was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    if mode == "setup":
        print(repr(setup_s))
        return 0

    import json
    import resource

    from measure import load_records, measure
    from tracer import Tracer

    workload, seed, seconds, trace, workdir = sys.argv[3:8]
    tracer = Tracer() if trace == "1" else None
    if tracer is not None:
        tracer.install()
    try:
        ops_file = measure(cli.main, workload, int(seed), float(seconds), workdir, tracer=tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    result = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["layers"] = tracer.summary(load_records(ops_file))
        result["spans"] = tracer.spans
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
