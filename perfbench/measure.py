"""The op loop of one benchmark run: a closed loop with one client.

Each op's input files are written before its timed window opens; the window
covers the in-process call of ``pargreedy.cli.main(argv)`` and nothing else.

Host-speed calibration.  On a shared host the speed of the same Python code
swings by up to 2x over tens of seconds, so raw op times of runs made a
minute apart are not comparable.  Right before each op the loop times
``reference_loop``, a fixed piece of pure-Python work of the same kind the
program does.  Each op gets a scale factor, REFERENCE_S divided by the
median of the reference timings of the ops within SCALE_WINDOW of it, so
that one stalled reference timing moves no op much; reported times are raw
times multiplied by that factor, that is, seconds on a host running the
reference loop in exactly REFERENCE_S.  A one-off timing, such as a set-up
probe, is scaled by ``reference_scale`` taken right before it.

Memory.  Each op's record is appended to a JSON-lines file right after its
window closes and dropped, so the loop's memory does not grow with the
number of ops it runs; ``load_records`` reads the file back.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import time
import traceback
from fractions import Fraction

from workloads import OpStream, file_text

# Ops every run makes at least, so that ten or more lie beyond op_s_p90.
MIN_OPS = 100
# A run stops early after this many ops, or this long, so that checking
# every output keeps a run well within three minutes.
MAX_OPS = 4000
WALL_LIMIT_S = 100.0
# Nominal wall time of reference_loop (about its time on an idle core of a
# 2-vCPU x86-64 cloud host with Python 3.11).
REFERENCE_S = 0.001
# Ops on each side of an op whose reference timings give its scale factor:
# the host's speed changes within a second, so the window is kept short.
SCALE_WINDOW = 1
OPS_FILE = "ops.jsonl"


def reference_loop() -> int:
    """Fixed work: rational arithmetic, dict updates and bit operations."""
    total = Fraction(0)
    counts: dict = {}
    m = 0
    for i in range(1, 300):
        total += Fraction(1, i % 97 + 1)
        m = (m * 31 + i) & 0xFFFFF
        counts[m & 1023] = counts.get(m & 1023, 0) + (m & -m).bit_length()
    return total.denominator % 7 + len(counts)


def time_reference() -> tuple:
    """(wall, CPU) seconds of one reference_loop."""
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0, time.process_time() - cpu0


def _invoke(cli_main, argv: list) -> int:
    try:
        return cli_main(argv)
    except SystemExit as exc:           # argparse rejects its arguments
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:                   # a crash fails this op, not the run
        traceback.print_exc()
        return -1


def measure(cli_main, workload: str, seed: int, seconds: float, workdir: str, *,
            tracer=None, ops_limit=None) -> str:
    """Run ops until their timed windows add up to ``seconds`` and at least
    MIN_OPS ran (within the MAX_OPS and WALL_LIMIT_S caps), or exactly
    ``ops_limit`` ops when given.

    Appends one record per op to WORKDIR/OPS_FILE and returns that file's
    path: exit code, stdout, the tail of stderr, raw wall and process CPU
    seconds of its window, the op's item count and the reference timing
    taken right before it.
    """
    stream = OpStream(workload, seed)
    opdir = os.path.join(workdir, "op")
    os.makedirs(opdir, exist_ok=True)
    path = os.path.join(workdir, OPS_FILE)
    ops = 0
    busy = 0.0
    started = time.monotonic()
    with open(path, "w", encoding="utf-8") as log:
        while True:
            if ops_limit is not None:
                if ops >= ops_limit:
                    break
            elif (busy >= seconds and ops >= MIN_OPS) or ops >= MAX_OPS \
                    or time.monotonic() - started > WALL_LIMIT_S:
                break
            op = next(stream)
            paths = {}
            for name, obj in op.files.items():
                file = os.path.join(opdir, name)
                with open(file, "w", encoding="utf-8") as fh:
                    fh.write(file_text(obj))
                paths[name] = file
            argv = [paths.get(a, a) for a in op.argv]
            out, err = io.StringIO(), io.StringIO()
            span = tracer.op_span(ops) if tracer is not None else contextlib.nullcontext()
            ref_s, ref_cpu_s = time_reference()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                cpu0 = time.process_time()
                t0 = time.perf_counter()
                with span:
                    rc = _invoke(cli_main, argv)
                dt = time.perf_counter() - t0
                cpu = time.process_time() - cpu0
            busy += dt
            ops += 1
            log.write(json.dumps({"rc": rc, "out": out.getvalue(), "err": err.getvalue()[-2000:],
                                  "s": dt, "cpu_s": cpu, "items": op.items,
                                  "ref_s": ref_s, "ref_cpu_s": ref_cpu_s}) + "\n")
    return path


def load_records(path: str) -> list:
    """The op records ``measure`` wrote to ``path``, each with its wall and
    CPU scale factors (see the module docstring)."""
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    for k, rec in enumerate(records):
        near = records[max(0, k - SCALE_WINDOW):k + SCALE_WINDOW + 1]
        rec["scale"] = REFERENCE_S / statistics.median(r["ref_s"] for r in near)
        rec["cpu_scale"] = REFERENCE_S / max(statistics.median(r["ref_cpu_s"] for r in near),
                                             1e-9)
    return records


def reference_scale() -> float:
    """Scale factor for a one-off timing: REFERENCE_S over the median of
    five reference timings taken now."""
    return REFERENCE_S / statistics.median(time_reference()[0] for _ in range(5))
