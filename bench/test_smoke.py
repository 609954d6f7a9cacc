"""Smoke test of the benchmark itself: `python -m pytest bench`.

Runs each workload at its small size: the correctness gate must pass, and
the per-layer counts of two traced runs with one seed must be identical.
"""

import pytest

import gen
import run


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_workload_smoke(workload):
    assert run.smoke([workload]) == 0
