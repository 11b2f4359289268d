"""Self-test of the benchmark at tiny sizes; never gates on wall time.

    python3 -m pytest benchmarks
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import strokes  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# per-layer values that are counts, not timings: they must repeat exactly
COUNT_METRICS = [m["name"] for m in BENCHMARK["per_layer"] if m["unit"] == "count"]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = {}
    for w in workloads.WORKLOADS:
        out[w] = {
            "measure": workloads.measure(w, workloads.GATE_SEED, 0.0, workloads.TINY,
                                         tmp_path_factory.mktemp(f"{w}-measure")),
            "trace": [workloads.trace(w, workloads.GATE_SEED, workloads.TINY,
                                      tmp_path_factory.mktemp(f"{w}-trace{i}"))
                      for i in range(2)],
        }
    return out


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == workloads.PER_LAYER


def test_same_seed_same_bytes():
    a = strokes.idx_bytes(*strokes.make_split(20, 7, "test"))
    b = strokes.idx_bytes(*strokes.make_split(20, 7, "test"))
    c = strokes.idx_bytes(*strokes.make_split(20, 8, "test"))
    assert a == b
    assert a != c


@pytest.mark.parametrize("mode", ["measure", "trace"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_schema_metrics_and_digests(runs, workload, mode):
    result = runs[workload][mode]
    result = result[0] if mode == "trace" else result
    expected = workloads.END_TO_END if mode == "measure" else workloads.PER_LAYER
    assert result["notes"] == []
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)
    json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly(runs, workload):
    first, second = (r["metrics"] for r in runs[workload]["trace"])
    for name in COUNT_METRICS:
        assert first[name]["value"] == second[name]["value"], name


def test_wrong_digest_counts_as_failed(tmp_path):
    reference = workloads.load_reference()
    gate = workloads.Gate("train", workloads.GATE_SEED, reference, workloads.TINY)
    digests = workloads.reference_digests("train", workloads.GATE_SEED, workloads.TINY, tmp_path)
    assert gate.check("operation", digests)
    assert not gate.check("operation", {**digests, "predictions": "0" * 64})
    assert (gate.attempted, gate.failed) == (2, 1)


def test_exits_nonzero_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
