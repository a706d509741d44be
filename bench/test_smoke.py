"""Keeps the benchmark harness working: every workload at tiny size, checked
against its pinned hashes and counts, plus the per-layer span arithmetic.

    python3 -m pytest bench
"""
import json
import subprocess
import sys
from pathlib import Path

from tracer import TASK, layer_metrics

BENCH = Path(__file__).resolve().parent


def test_smoke_mode_passes_every_check():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True
    assert last["failed"] == 0
    assert last["attempted"] == 8
    assert "FAIL" not in proc.stdout


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        [1, "srmc_sample", 0.0, 10.0, None, 1, {"proposals": 10, "accepted": 5, "cpu": 9.0}],
        # two pool tasks of the sampler, overlapping on two threads
        [2, TASK, 1.0, 9.0, 1, 2, {"cpu": 8.0}],
        [3, TASK, 2.0, 8.0, 1, 3, {"cpu": 6.0}],
        # work inside the tasks is parented to the sampler, not the task
        [4, "evaluate_batch", 1.0, 5.0, 1, 2, {"points": 100}],
        [5, "evaluate_batch", 3.0, 6.0, 1, 3, {"points": 50}],
        [6, "uniform01_block", 7.0, 8.0, 1, 2, {}],
        [7, "next_u64_block", 7.0, 7.5, 6, 2, {"u64": 200}],
        [8, "substream", 1.0, 1.0, 1, 2, {}],
    ]
    m = layer_metrics(spans)
    # children cover [1, 6] and [7, 8]: 6 of the sampler's 10 seconds
    assert m["samplers.busy_s"] == 4.0
    assert m["expression.busy_s"] == 7.0
    assert m["expression.points"] == 150
    assert m["randomness.gen_s"] == 0.5
    assert m["randomness.convert_s"] == 0.5
    assert m["randomness.u64"] == 200
    assert m["samplers.chunks"] == 1
    # thread CPU of the tasks over the sampler's wall time
    assert m["samplers.parallelism"] == 1.4
