"""Tests of the benchmark itself, on tiny instances (about half a minute).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from run import _exact  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(workload, trace, cwd=ROOT, seed=5):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_run_is_correct_and_reports_every_end_to_end_metric(workload):
    res = result(bench(workload, 0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (result(bench(workload, 1)) for _ in range(2))
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [name for name in first["metrics"] if _exact(name)]
    assert [first["metrics"][n]["value"] for n in counts] == \
           [second["metrics"][n]["value"] for n in counts]
    assert any(first["metrics"][n]["value"] for n in counts)


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("extremal_ladder", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wrong_answers_are_caught():
    refs = wl.load_reference()
    job = ("extremal", 4, 3, 1, "2", "digraph")
    want = refs["extremal"][wl.job_key(job)]
    assert wl.check_extremal(job, want["f1"] + 1, want["f2"], 4, (0,) * 6, refs)
    # right value, but the all-digon witness on 4 vertices holds T_3^1
    assert wl.check_extremal(job, 0, 6, 4, (3,) * 6, refs)
    assert wl.check_count(("count_free", 4, 3, 1, "digraph"), 0, refs)
    record = {"result": {"free": False, "witness": [0, 1, 2]}}
    assert wl.check_query(("query", "check", "TDG 3 100", 3, 1), record, refs)
    record = {"result": {"distance": 0, "partition": [0, 0, 1]}}
    assert wl.check_query(("query", "editdist", "TDG 3 333", 2), record, refs)
