"""Tests of the benchmark harness itself: span arithmetic, failure counting,
workload derivation and instrumentation.  Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import run  # noqa: E402
from spans import SpanSummary, self_times  # noqa: E402
from trace_child import Tracer, instrument  # noqa: E402


def test_self_time_is_duration_minus_children():
    # root [0, 100] has children a [10, 40] and b [50, 60]; a has child c [20, 30].
    start = np.array([0, 10, 20, 50])
    end = np.array([100, 40, 30, 60])
    parent = np.array([-1, 0, 1, 0])
    assert self_times(start, end, parent).tolist() == [60.0, 20.0, 10.0, 10.0]


def test_span_summary_totals_by_label_and_module():
    labels = ["import.nlbox", "cli.main", "cli.cmd_sample", "sampler.run_rng", "cli.event_line"]
    ms = 1_000_000
    name = np.array([0, 1, 2, 3, 3, 4])
    parent = np.array([-1, -1, 1, 2, 2, 2])
    start = np.array([0, 10, 11, 12, 14, 16]) * ms
    end = np.array([8, 30, 29, 13, 15, 20]) * ms
    summary = SpanSummary()
    summary.add(labels, name, parent, start, end)
    assert summary.import_ms == [8.0]
    assert summary.calls["sampler.run_rng"] == 2
    assert summary.ms["sampler.run_rng"] == 2.0
    assert summary.cmd_self_ms == 18.0 - 2.0 - 4.0
    assert summary.self_ms["cli"] == (20.0 - 18.0) + 12.0 + 4.0
    assert summary.self_ms["sampler"] == 2.0
    assert summary.spans == 6


def _child(wall: float, cpu: float | None = None) -> run.Child:
    return run.Child(wall_s=wall, cpu_s=wall / 2 if cpu is None else cpu, rss_mb=10.0 * wall, returncode=0)


def _op(ok: bool, wall: float, command: str = "sample") -> run.OpResult:
    return run.OpResult(ok=ok, wall_s=wall, children=[(run.Call(command), _child(wall))])


def test_failed_operations_are_left_out_of_timings():
    setup = [_child(0.2), _child(0.3), _child(0.4)]
    reference = [_child(2.0, cpu=0.5)]
    results = [_op(True, 1.0), _op(False, 100.0), _op(True, 3.0)]
    metrics, per_command = run.end_to_end(setup, reference, results)
    assert metrics["setup_s"] == (0.3, "s")
    assert metrics["op_ref"] == (1.0, "ratio")
    assert metrics["cpu_ref"] == (2.0, "ratio")
    assert metrics["peak_rss_mb"] == (30.0, "MB")
    assert per_command["sample"] == (2.0, 1.0, 2)
    assert run.end_to_end(setup, reference, [_op(False, 1.0)]) == ({}, {})


def test_certify_operation_time_sums_command_medians():
    results = [_op(True, w, c) for w, c in [(1.0, "bounds"), (3.0, "bounds"), (5.0, "swap-map")]]
    metrics, _ = run.end_to_end([_child(0.1)], [_child(1.0)], results)
    assert metrics["op_ref"] == (7.0, "ratio")


_BAD_BOUNDS = """
import json, sys
out = sys.argv[sys.argv.index("--out") + 1]
doc = {"polytope_affine_dim": 99, "expressions": [
    {"index": i, "lhv_max": 8, "ns_value": 9, "is_facet": True, "num_saturators": 1}
    for i in range(1, 17)]}
open(out, "w").write(json.dumps(doc))
"""


def test_wrong_output_is_a_failed_operation(tmp_path):
    bench = run.Bench([], tmp_root=tmp_path / "tmp", nlbox=[sys.executable, "-c", _BAD_BOUNDS])
    result = bench.run_op((run.Call("bounds"),))
    assert not result.ok
    assert (bench.attempted, bench.failed) == (1, 1)
    assert "bounds" in bench.problems[0]
    assert list((tmp_path / "tmp").iterdir()) == []


def test_nonzero_exit_is_a_failed_operation(tmp_path):
    bench = run.Bench([], tmp_root=tmp_path, nlbox=[sys.executable, "-c", "raise SystemExit(3)"])
    result = bench.run_op((run.Call("verify-table3"),))
    assert not result.ok
    assert bench.problems == ["verify-table3: exit code 3"]


def test_check_sample_compares_summary_with_events(tmp_path):
    lines = [checks.EVENT_HEADER, "0,0,0,+1,+1,+1,+1,PP,PP", "1,1,2,-1,+1,+1,-1,SM,PM"]
    (tmp_path / "events.csv").write_text("\n".join(lines) + "\n")
    robots = [(a, b) for a in run.BELL_CODES for b in run.BELL_CODES]
    classes = [
        {
            "robot_outcome": list(robot),
            "count": int(robot in {("PP", "PP"), ("SM", "PM")}),
            "matched_inequality": i + 1,
            "beta_hat": None,
            "insufficient_cells": [[0, 1]],
        }
        for i, robot in enumerate(robots)
    ]
    (tmp_path / "summary.json").write_text(json.dumps({"classes": classes}))
    problems, facts = checks.check_sample(tmp_path, 2, "json")
    assert problems == []
    assert facts["empty_cell_classes"] == 16

    classes[0]["count"], classes[1]["count"] = 0, 1
    (tmp_path / "summary.json").write_text(json.dumps({"classes": classes}))
    problems, _ = checks.check_sample(tmp_path, 2, "json")
    assert problems == ["class counts differ from the events file"]
    assert checks.check_sample(tmp_path, 3, "json")[0][0].startswith("events.csv has 3 lines")


def _first(workload: str, seed: int, n: int) -> list:
    gen = run.operations(workload, seed)
    return [next(gen) for _ in range(n)]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_operations_are_derived_from_the_seed(workload):
    assert _first(workload, 5, 40) == _first(workload, 5, 40)
    assert _first(workload, 5, 40) != _first(workload, 6, 40)
    calls = [call for op in _first(workload, 5, 40) for call in op]
    assert all(call.sources is None or call.sources in run.SOURCE_PAIRS for call in calls)


def test_certify_runs_the_three_exact_commands():
    for op in _first("certify", 1, 10):
        assert [call.command for call in op] == ["verify-table3", "bounds", "swap-map"]
    assert len({op[2].sources for op in _first("certify", 1, 40)}) > 1


def test_sample_workloads_repeat_their_configurations():
    bulk = [op[0] for op in _first("sample_bulk", 3, 4)]
    assert {call.shots for call in bulk} == {run.BULK_SHOTS}
    assert {call.fmt for call in bulk} == {"json"}
    assert (bulk[0].seed, bulk[0].sources) == (bulk[2].seed, bulk[2].sources)
    burst = [op[0] for op in _first("sample_burst", 3, 2 * run.BURST_CONFIGS)]
    assert {call.shots for call in burst} == {run.BURST_SHOTS}
    assert {call.fmt for call in burst} == {"json", "csv"}
    configs = [(call.seed, call.sources) for call in burst]
    assert configs[: run.BURST_CONFIGS] == configs[run.BURST_CONFIGS :]


def _module(name: str, source: str, **names) -> types.ModuleType:
    mod = types.ModuleType(name)
    mod.__dict__.update(names)
    exec(compile(source, name, "exec", dont_inherit=True), mod.__dict__)
    return mod


def test_instrument_wraps_functions_and_rebinds_imported_names():
    a = _module(
        "pkg.a",
        "def inner():\n    return 1\n"
        "def outer():\n    return inner() + 1\n"
        "class Table:\n    def __init__(self):\n        self.v = outer()\n"
        "@dataclass\nclass Point:\n    x: int\n",
        dataclass=dataclasses.dataclass,
    )
    b = _module("pkg.b", "def use():\n    return outer()\n", outer=a.outer)
    tracer = Tracer()
    assert instrument(tracer, [a, b]) == 4
    assert b.outer is a.outer
    assert b.use() == 2
    assert a.Table().v == 2
    assert a.Point(1).x == 1
    labels = [tracer.labels[i] for i in tracer.name]
    assert labels == ["b.use", "a.outer", "a.inner", "a.Table", "a.outer", "a.inner"]
    assert list(tracer.parent) == [-1, 0, 1, -1, 3, 4]
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    metrics, _ = run.end_to_end([_child(0.1)], [_child(1.0)], [_op(True, 1.0)])
    assert [(name, unit) for name, (_, unit) in metrics.items()] == [
        (m["name"], m["unit"]) for m in spec["end_to_end"]
    ]
    op = _op(True, 1.0)
    op.spans = SpanSummary(import_ms=[1.0])
    op.facts = {"saturators": 0, "empty_cell_classes": 0, "shots": 0}
    layers = run.layer_metrics([op], [_op(True, 1.0)])
    assert [(name, unit) for name, (_, unit) in layers.items()] == [
        (m["name"], m["unit"]) for m in spec["per_layer"]
    ]
