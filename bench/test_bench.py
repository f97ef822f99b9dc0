"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_OPS = 4


@pytest.fixture(scope="module", params=wl.WORKLOADS)
def workload_inputs(request):
    return request.param, wl.make_inputs(request.param, 7)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


def test_smoke_end_to_end_metrics_present(workload_inputs):
    workload, inputs = workload_inputs
    tally, latencies = wl.measure(workload, inputs, 0, SMOKE_OPS, None)
    assert (tally.attempted, tally.failed, tally.wrong) == (SMOKE_OPS, 0, 0)
    metrics = wl.end_to_end_metrics(tally, latencies, 1.0, 1.0)
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(metrics[name]["unit"] == units[name] for name in metrics)
    assert all(metrics[name]["value"] > 0 for name in metrics)


def test_smoke_per_layer_metrics_present(workload_inputs):
    workload, inputs = workload_inputs
    tally, metrics = wl.measure_traced(workload, inputs, 0, SMOKE_OPS, None)
    assert (tally.attempted, tally.failed, tally.wrong) == (SMOKE_OPS, 0, 0)
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(metrics[name]["unit"] == units[name] for name in metrics)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_input_generation_is_deterministic(workload):
    first = wl.make_inputs(workload, 11)
    assert first == wl.make_inputs(workload, 11)
    assert first != wl.make_inputs(workload, 12)


def test_traced_output_equals_untraced(workload_inputs):
    workload, inputs = workload_inputs
    tr = wl.Trace()
    for inp in inputs[:SMOKE_OPS]:
        untraced = wl.run_op(workload, inp.points)
        top_k = wl.idp_top(workload, len(inp.points[0]), untraced)
        assert wl.digest(wl.traced_op(workload, inp.points, top_k, tr)) == wl.digest(untraced)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_default_seed_matches_stored_digests(workload):
    stored = wl.load_reference()
    assert stored["seed"] == wl.DEFAULT_SEED
    expected = stored["digests"][workload]
    inputs = wl.make_inputs(workload, wl.DEFAULT_SEED)
    assert len(expected) == len(inputs)
    tally, _ = wl.measure(workload, inputs, 0, SMOKE_OPS, expected)
    assert (tally.checked_digests, tally.wrong) == (SMOKE_OPS, 0)
    tampered = ["0" * 16] + expected[1:]
    tally, _ = wl.measure(workload, inputs, 0, SMOKE_OPS, tampered)
    assert tally.wrong == 1


def test_simplex_hstar_closed_form():
    assert wl.simplex_hstar(2, 1) == (1, 0, 0)
    assert wl.simplex_hstar(2, 2) == (1, 3, 0)
    assert wl.simplex_hstar(3, 4) == (1, 31, 31, 1)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "bench/run.py", "--workload", wl.HULL_CLOUD, "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
