"""The benchmark's contract with the package: one cycle of each workload.

``perfbench/workloads.py`` reaches the package through its public functions
and its CLI (``bergman zeros --family k2 --res N`` among them).  A rename or a
dropped option would fail a benchmark op, which no other test runs, so this
test runs each workload's first cycle at seed 1 and requires every gate to
pass.  A traced run goes through the tracer's hooks on the package too: it
reads ``jet_arith``'s arguments and rebuilds each slice from its ``eval``.
Nothing under ``perfbench/`` is changed.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_first_cycle_passes_every_gate(name):
    load = workloads.make(name, os.path.join(ROOT, "src"))
    try:
        load.setup(1)
        ops = 0
        for op, gate in load.cycle(0):
            assert bool(gate(op())), (name, ops)   # as perfbench/run.py reads it
            ops += 1
        assert ops > 0
    finally:
        load.close()


def test_traced_run_reports_every_layer_metric(tmp_path):
    # a copy, so the run's span file lands in tmp_path, not in perfbench/out
    for part in ("perfbench", "src"):
        shutil.copytree(os.path.join(ROOT, part), tmp_path / part,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    run_py = str(tmp_path / "perfbench" / "run.py")
    done = subprocess.run(
        [sys.executable, run_py, "--workload", "zeros-certify", "--seed", "1",
         "--seconds", "0.001", "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=True)
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        names = {m["name"] for m in json.load(handle)["per_layer"]}
    assert names <= set(last["metrics"])
