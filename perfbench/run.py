"""One benchmark run of the pargreedy CLI on one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
        [--out FILE] [--spans FILE]

Run from the root of a checkout.  The run byte-compiles ``src`` (the
build), then, with ``--trace 0``, times eleven fresh interpreters importing
``pargreedy.cli`` (set-up), then starts one worker process that runs the
workload's ops in a closed loop (see ``measure.py``, which also explains
how times are scaled to a reference host speed).  Every op's output is
checked against independently computed values (see ``oracle.py``).  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``; the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  ``--out`` appends the result,
with the Python version, CPU count, commit, seed and report SHA-256, to a
JSON-lines file, together with the unscaled end-to-end times.  ``--spans``
writes a traced run's raw spans (name, start, end, parent, op).
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from measure import OPS_FILE, load_records, reference_scale
from oracle import check_run
from tracer import percentile
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 11
WORKER_TIMEOUT_S = 150
# Error messages shown on stderr when ops fail.
SHOW_ERRORS = 5


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _worker(root: str, *args: str, timeout: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args[0], repr(_now()), *args[1:]]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, timeout=timeout)


def commit_of(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(setup: list, worker: dict, scaled: bool = True) -> dict:
    """The end-to-end metrics; times are scaled to the reference host speed
    (see ``measure.py``) unless ``scaled`` is false."""
    ops = worker["ops"]
    times = sorted(r["s"] * (r["scale"] if scaled else 1) for r in ops)
    return {
        "setup_s": (statistics.median(s * (f if scaled else 1) for s, f in setup), "s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_p90": (percentile(times, 90), "s"),
        "items_per_s": (sum(r["items"] for r in ops) / sum(times), "1/s"),
        "cpu_s": (sum(r["cpu_s"] * (r["cpu_scale"] if scaled else 1) for r in ops) / len(ops),
                  "s/op"),
        "peak_rss_mb": (worker["peak_rss_kb"] / 1024, "MB"),
    }


def run(root: str, workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """(result line, record for --out, error messages, spans); raises
    RuntimeError when a process of the run fails."""
    workdir = os.path.join(root, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        compileall.compile_dir(os.path.join(root, "src"), quiet=1)
        setup = []
        for _ in range([SETUP_PROBES, 0][trace]):
            scale = reference_scale()
            probe = _worker(root, "setup", timeout=60)
            if probe.returncode != 0:
                raise RuntimeError(f"set-up probe exited with {probe.returncode}")
            setup.append((float(probe.stdout), scale))
        proc = _worker(root, "run", workload, str(seed), str(seconds), str(int(trace)),
                       workdir, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
            worker = json.load(fh)
        worker["ops"] = load_records(os.path.join(workdir, OPS_FILE))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    errors = check_run(workload, seed, worker["ops"])
    digest = hashlib.sha256()
    for rec in worker["ops"]:
        digest.update(rec["out"].encode())
    metrics = worker["layers"] if trace else end_to_end(setup, worker)
    line = {
        "correct": not errors,
        "attempted": len(worker["ops"]),
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "commit": commit_of(root),
        "items": sum(r["items"] for r in worker["ops"]),
        "error_rate": len(errors) / len(worker["ops"]),
        "report_sha256": digest.hexdigest(), "errors": errors[:SHOW_ERRORS], **line,
    }
    if not trace:
        record["unscaled"] = {k: v for k, (v, _) in end_to_end(setup, worker, False).items()}
    return line, record, errors, worker.get("spans", [])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE",
                        help="append the result record to this JSON-lines file")
    parser.add_argument("--spans", metavar="FILE",
                        help="with --trace 1, write the raw spans to this JSON file")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pargreedy", "cli.py")):
        print("run.py: no src/pargreedy here; run it from the root of a pargreedy checkout",
              file=sys.stderr)
        return 2
    try:
        line, record, errors, spans = run(root, args.workload, args.seed, args.seconds,
                                          bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    for message in errors[:SHOW_ERRORS]:
        print(f"run.py: {message}", file=sys.stderr)
    print(f"run.py: {record['attempted']} ops, {record['items']} items, "
          f"error rate {record['error_rate']}, report sha256 {record['report_sha256']}",
          file=sys.stderr)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(("name", "start", "end", "parent", "op"), s)) for s in spans], fh)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
