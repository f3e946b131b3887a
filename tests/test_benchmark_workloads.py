"""Each benchmark workload under perfbench/ sets up, runs one pass and matches its golden
at seeds 0, 1, 2 and the held-out seed 1009.

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


@pytest.mark.parametrize("seed", [0, 1, 2, workloads.HELD_OUT_SEED])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_workload_pass_matches_its_golden(name, seed, tmp_path):
    work = workloads.WORKLOADS[name]
    st = work.setup(seed, str(tmp_path))
    items = work.run_pass(st, str(tmp_path))
    golden = workloads.load_golden(name, seed)
    assert golden
    attempted, failed, msgs = workloads.compare(items, golden)
    assert attempted == len(golden) and failed == 0, msgs
