"""The benchmark's own output checks pass on each workload at full size.

A change that the benchmark would refuse for incorrect outputs (a report
column that is NaN where it should not be, a verify row more or less) fails
here first.  The workloads module is loaded by path and left unchanged.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["heis-s1-1d", "heis-2d-random", "verify-all"])
def test_workload_passes_its_check(tmp_path, name):
    workload = load_workloads().WORKLOADS[name](1, "full", str(tmp_path))
    workload.prepare()
    rc = workload.operation(workload.setup())
    assert workload.check(rc) == []
