"""Each benchmark workload under perfbench/ sets up, runs one pass and matches its seed-0 golden.

The workloads build configs and toys through the harness's own entry points, so a
change that breaks those fails here as well as in the benchmark.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_spec)
# the module's dataclasses look the module up by name while they are built
sys.modules[_spec.name] = workloads
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_workload_pass_matches_its_golden(name, tmp_path):
    work = workloads.WORKLOADS[name]
    st = work.setup(0, str(tmp_path))
    items = work.run_pass(st, str(tmp_path))
    golden = workloads.load_golden(name, 0)
    assert golden
    attempted, failed, msgs = workloads.compare(items, golden)
    assert attempted == len(golden) and failed == 0, msgs
