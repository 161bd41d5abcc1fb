"""Smoke test of the benchmark: each workload's code path at a tiny size.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every named metric appears with its unit, in both the
untraced and the traced run, and that the count metrics repeat exactly
across two traced runs of the same seed.
"""

import dataclasses
import json
import math

import pytest

import run
from tracer import SPAN_FIELDS
from workloads import WORKLOADS

TINY_CORPUS = {
    "desk": dict(n_items=20, train_sessions=20, test_sessions=10),
    "catalog20k": dict(n_items=200, n_clusters=20, train_sessions=40,
                       test_sessions=10),
    "long_sessions": dict(n_items=100, n_clusters=5, train_sessions=8,
                          test_sessions=4),
}
COUNT_METRICS = [name for name, _, _ in run.COUNTS]
SMOKE_OUT = run.OUT / "smoke"


def tiny(name):
    w = WORKLOADS[name]
    return dataclasses.replace(
        w, config={**w.config, "dim": 8, "factor_dim": 2, "num_factors": 2},
        corpus={**w.corpus, **TINY_CORPUS[name]}, checkpoint_step=3,
        p10_floor=None if w.p10_floor is None else 0.0)


def units(result):
    return {name: entry["unit"] for name, entry in result["metrics"].items()}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name):
    result, details = run.run_workload(tiny(name), seed=3, seconds=0.2,
                                       trace=0, out_dir=SMOKE_OUT, probes=1)
    assert result["correct"], details["failures"]
    assert units(result) == {n: u for n, u, _ in run.END_TO_END}
    assert all(math.isfinite(e["value"]) for e in result["metrics"].values())
    assert details["input_shape"]["n_items"] == TINY_CORPUS[name]["n_items"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_runs_report_every_layer_and_repeat_counts(name):
    runs = [run.run_workload(tiny(name), seed=3, seconds=0.2, trace=1,
                             out_dir=SMOKE_OUT) for _ in range(2)]
    for result, details in runs:
        assert result["correct"], details["failures"]
        assert units(result) == {n: u for n, u, _ in run.per_layer_spec()}
    first, second = (r["metrics"] for r, _ in runs)
    for metric in COUNT_METRICS:
        assert first[metric]["value"] == second[metric]["value"], metric
    spans = (SMOKE_OUT / f"spans-{name}-seed3.jsonl").read_text().splitlines()
    assert json.loads(spans[0]) == list(SPAN_FIELDS)


def test_benchmark_json_matches_the_runner():
    path = run.ROOT / "BENCHMARK.json"
    if not path.is_file():
        pytest.skip("no BENCHMARK.json beside the benchmark")
    bench = json.loads(path.read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == run.per_layer_spec()
