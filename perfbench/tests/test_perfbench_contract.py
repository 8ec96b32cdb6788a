"""BENCHMARK.json names what the benchmark emits, and every workload
sets up, serves requests its oracle accepts, and shuts down."""

import json
from pathlib import Path

import pytest

import run
from layers import PER_LAYER_UNITS
from workloads import WORKLOADS

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def test_benchmark_json_matches_the_emitted_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_requests_pass_their_oracle(name, tmp_path):
    workload = WORKLOADS[name](seed=3, work_root=tmp_path)
    workload.setup()
    try:
        for index in range(3):
            assert workload.request(index) > 0
            workload.settle(index)
            workload.check(index)
    finally:
        workload.close()
    assert not any(tmp_path.iterdir()), "a workload left files behind"
