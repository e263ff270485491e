"""Tests of the benchmark itself: workloads, output checker and tracer.

    python3 -m pytest -q perfbench/tests      # from the root of the repository
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, os.pardir))
BENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import pargreedy  # noqa: E402
import pargreedy.cli as cli  # noqa: E402
import reference  # noqa: E402
from measure import load_records, measure  # noqa: E402
from oracle import check_op, check_run, parse_pairs  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import RUN_KINDS, WORKLOADS, OpStream, file_text  # noqa: E402

TINY = {"certify-random": 3, "run-greedy": len(RUN_KINDS), "analyze-graph": 4}


def _run(workload, tmp_path, tracer=None, seed=1):
    return load_records(measure(cli.main, workload, seed, 0, str(tmp_path), tracer=tracer,
                                ops_limit=TINY[workload]))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_has_no_errors(workload, tmp_path):
    records = _run(workload, tmp_path)
    assert len(records) == TINY[workload]
    assert check_run(workload, 1, records) == []


def _inputs(op) -> str:
    return json.dumps([op.argv, {name: file_text(obj) for name, obj in op.files.items()}])


def test_streams_are_deterministic_and_distinct():
    for workload in WORKLOADS:
        a, b = OpStream(workload, 3), OpStream(workload, 3)
        ops = [_inputs(next(a)) for _ in range(14)]
        assert ops == [_inputs(next(b)) for _ in range(14)]
        assert len(set(ops)) == 14
        assert _inputs(next(OpStream(workload, 4))) != ops[0]


def test_corrupted_ratio_counts_as_an_error(tmp_path):
    records = _run("run-greedy", tmp_path)
    line = records[2]["out"]
    pairs = parse_pairs(line)
    records[2]["out"] = line.replace(f"ratio={pairs['ratio']}", "ratio=1/1000")
    errors = check_run("run-greedy", 1, records)
    assert len(errors) == 1 and errors[0].startswith("op 2: ratio=")


@pytest.mark.parametrize("workload,field,value", [
    ("certify-random", "curvature", "1/7"),
    ("analyze-graph", "theta", "99"),
    ("run-greedy", "optimum", "1/3"),
])
def test_corrupted_value_is_caught(workload, field, value, tmp_path):
    records = _run(workload, tmp_path)
    op = next(OpStream(workload, 1))
    out = records[0]["out"]
    token = f"{field}={parse_pairs(out.splitlines()[0])[field]}"
    assert check_op(op, 0, out) is None
    assert check_op(op, 0, out.replace(token, f"{field}={value}", 1)) is not None
    assert check_op(op, 2, out) == "exit code 2"


def test_witness_ratio_must_equal_prediction(tmp_path):
    op = next(OpStream("run-greedy", 1))
    assert op.kind == "curvature-witness"
    out = _run("run-greedy", tmp_path)[0]["out"]
    assert check_op(op, 0, out) is None
    op.model["predicted_ratio"] /= 2
    assert "predicted" in check_op(op, 0, out)


def _bindings() -> dict:
    snapshot = {}
    for name, module in sys.modules.items():
        if name == "pargreedy" or name.startswith("pargreedy."):
            for attr, value in vars(module).items():
                snapshot[(name, attr)] = value
    snapshot[("SetFunction", "mask_value")] = pargreedy.SetFunction.__dict__["mask_value"]
    return snapshot


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_restores_bindings_and_keeps_outputs(workload, tmp_path):
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    assert pargreedy.run_greedy is not before[("pargreedy", "run_greedy")]
    try:
        traced = _run(workload, tmp_path / "traced", tracer)
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    plain = _run(workload, tmp_path / "plain")
    assert [r["out"] for r in traced] == [r["out"] for r in plain]

    layers = tracer.summary(traced)
    self_total = sum(layers[f"{layer}.self_s"][0] for layer in LAYERS)
    assert 0.9 * layers["trace.op_s_mean"][0] <= self_total <= layers["trace.op_s_mean"][0]
    if workload == "certify-random":
        assert layers["graphmetrics.calls_per_item"][0] == 5
        assert layers["objective.total_curvature.calls"][0] == 5
    if workload == "run-greedy":
        assert layers["objective.total_curvature.calls"][0] == 0
        assert layers["graphmetrics.calls_per_item"][0] == 0
    if workload == "analyze-graph":
        assert layers["objective.mask_value.calls"][0] == 0
        assert layers["greedy.run_greedy.calls"][0] == 0


def test_reference_outputs_and_current_outputs_pass_the_checker():
    data = reference.load()
    for workload, outputs in data["outputs"].items():
        assert len(outputs) == reference.OPS[workload]
        assert check_run(workload, data["seed"], [dict(o, err="") for o in outputs]) == []
        current = reference.record_outputs(cli.main, workload)
        assert check_run(workload, data["seed"], [dict(o, err="") for o in current]) == []


def test_run_prints_the_contract_line():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "analyze-graph",
         "--seed", "2", "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 100
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert set(line["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_run_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "run-greedy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
