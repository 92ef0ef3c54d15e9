"""Self-tests of the benchmark: tiny-bounds runs of every workload, traced
and untraced, plus the span arithmetic and the independent verifier.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import verify

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_spec_file_is_generated_from_the_code():
    assert SPEC == json.loads(json.dumps(run.SPEC))
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in section}
    if trace == "1":
        assert result["metrics"]["cf.calls_per_classify"]["value"] == 14
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "families", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_self_time_excludes_other_layers():
    # classify (0..10) calls cf twice (1..3, 4..5); export (20..21) is a second root
    trace = [
        [-1, "classify.classify", 0.0, 10.0],
        [0, "cf.evaluate", 1.0, 3.0],
        [0, "cf.continuant", 4.0, 5.0],
        [-1, "search.export", 20.0, 21.0],
    ]
    counts = {"search.tuples": 0, "search.witnesses": 0, "surd.states": 0, "search.export_bytes": 0}
    metrics = spans.layer_metrics(trace, counts, wall_s=30.0)
    assert metrics["classify.self_s"] == 7.0
    assert metrics["cf.busy_s"] == 3.0
    assert metrics["cf.calls_per_classify"] == 2.0
    assert metrics["search.export_s"] == 1.0
    assert metrics["cli.overhead_s"] == 19.0
    assert metrics["classify.call_us_p50"] == metrics["classify.call_us_p99"] == 10.0e6


def test_tuple_count_matches_enumeration():
    import itertools

    digits = range(1, 6)
    expected = sum(
        1
        for m in (2, 3, 4)
        for t in itertools.product(digits, repeat=m)
        if t[0] >= 2 and t[-1] >= 2
    )
    assert spans.tuple_count((2, 3, 4), 5) == expected


def test_verifier():
    assert verify.witness_holds("7;1,3", "2,1,0", 2, "31", "4")
    assert not verify.witness_holds("7;1,3", "2,1,0", 3, "31", "4")
    assert not verify.witness_holds("7;1,3", "2,1,0", 2, "31", "5")
    assert not verify.witness_holds("7;1,3", "2,2,0", 2, "31", "4")
    assert verify.fraction([2, 1, 5, 1, 2]) == (57, 20)
