"""The benchmark's contract with the package: one cycle of each workload.

``perfbench/workloads.py`` reaches the package through its public functions
and its CLI (``bergman zeros --family k2 --res N`` among them).  A rename or a
dropped option would fail a benchmark op, which no other test runs, so this
test runs each workload's first cycle at seed 1 and requires every gate to
pass.  Nothing under ``perfbench/`` is changed.
"""

import os
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
