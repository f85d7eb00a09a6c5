"""Self-test of the benchmark at tiny sizes.

    python -m pytest perfbench/tests -q

Runs every workload once untraced and once traced in this process
(each run starts and stops its own 2-CPU Ray cluster) and checks that
every metric of BENCHMARK.json is printed with its unit, that a wrong
expected answer is counted as a failure, and that every worker-side
layer records spans in processes other than the driver.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, REPO)

from perfbench import run  # noqa: E402

TINY = {
    "warmup_docs": 40,
    "build_docs": 200,
    "serve_docs": 200,
    "serve_warm_queries": 20,
    "serve_queries": 200,
    "batch_queries": 40,
    "update_base_docs": 150,
    "update_delta_docs": 30,
    "update_deltas": 2,
    "fresh_queries": 5,
    "check_queries": 10,
    "min_ops": 2,
}
# worker-side layer span -> workload whose timed phase runs it in Ray workers
WORKER_LAYERS = {
    "ingest.tokenize": "update_mixed",
    "shards.write": "update_mixed",
    "merge.bucket": "update_mixed",
    "pool.call": "serve_bm25",
}


def _bench(monkeypatch, capsys, workload: str, trace: int) -> tuple[dict, dict]:
    monkeypatch.setattr(run, "SIZES", {**run.SIZES, **TINY})
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def outputs():
    """(workload, trace) -> (record line, result line), one run each."""
    mp = pytest.MonkeyPatch()
    cache: dict = {}
    yield mp, cache
    mp.undo()


def _get(outputs, capsys, workload: str, trace: int):
    mp, cache = outputs
    if (workload, trace) not in cache:
        cache[(workload, trace)] = _bench(mp, capsys, workload, trace)
    return cache[(workload, trace)]


def _spec() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(outputs, capsys, workload, trace, key):
    record, result = _get(outputs, capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in _spec()[key]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(isinstance(v["value"], float | int) for v in result["metrics"].values())
    assert record["num_cpus_pinned"] == 2 and record["seed"] == 3 and record["samples"]


def test_wrong_expected_answer_counts_as_failure(monkeypatch, capsys):
    monkeypatch.setattr(run, "sha256_hex", lambda text: "not-a-digest")
    _, result = _bench(monkeypatch, capsys, "build_code", 0)
    assert result["failed"] >= 1 and result["correct"] is False


@pytest.mark.parametrize("layer", sorted(WORKER_LAYERS))
def test_worker_layers_have_worker_spans(outputs, capsys, layer):
    record, _ = _get(outputs, capsys, WORKER_LAYERS[layer], 1)
    trace = record["spans"]
    pids = trace["layers"].get(layer, {}).get("pids", [])
    assert any(p != trace["driver_pid"] for p in pids), (layer, trace)
