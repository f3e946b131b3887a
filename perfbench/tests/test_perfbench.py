"""Self-tests of the benchmark harness: python3 -m pytest perfbench/tests -q"""
from __future__ import annotations

import copy
import importlib
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from oraclebench import cli, tomography  # noqa: E402


def _targets():
    sites = []
    for module, path, _, _ in tracing.TARGETS:
        owner, attr = tracing._resolve(module, path)
        sites.append((owner, attr))
    budget = importlib.import_module("oraclebench.budget").Budget
    sites += [(budget, attr) for attr in tracing.BUDGET_CHECKS]
    sites.append((importlib.import_module("oraclebench.harness"), "ThreadPoolExecutor"))
    return sites


def test_wrappers_are_removed_after_a_traced_pass():
    sites = _targets()
    before = [getattr(owner, attr) for owner, attr in sites]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert not tracer.missing
        assert all(getattr(o, a) is not b for (o, a), b in zip(sites, before))
        with tempfile.TemporaryDirectory() as tmp:
            assert cli.cli_main(["lemma", "hri-trace", "--out", f"{tmp}/r.json"]) == 0
        u = np.eye(2, dtype=complex)
        tomography.process_tomography_sampled(lambda v: u @ v, 2, 0.1, 0.1, 0)
    finally:
        tracer.uninstall()
    assert not tracer.installed
    assert all(getattr(o, a) is b for (o, a), b in zip(sites, before))
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "harness.check", "harness.check_phase", "tomography.sampled"} <= names
    recorded = len(tracer.spans)
    tomography.process_tomography_sampled(lambda v: v, 2, 0.1, 0.1, 0)
    assert len(tracer.spans) == recorded


def test_self_time_excludes_nested_layers_but_not_probes():
    tracer = tracing.Tracer()
    outer = tracer.open("adversary.choi", tracing.LAYER)
    probe = tracer.open("np.svd", tracing.PROBE, {"dim": 4, "flops": 64})
    inner = tracer.open("linalg.schatten_norm", tracing.LAYER)
    tracer.close(inner)
    tracer.close(probe)
    tracer.close(outer)
    m, _ = tracing.analyse(tracer.spans, [], tracing.Counter(), 0)
    inner_d = inner.end - inner.start
    assert m["adversary.choi_s"] == pytest.approx(outer.end - outer.start - inner_d)
    assert m["linalg.schatten_norm_s"] == pytest.approx(inner_d)
    assert m["linalg.np_spectral_calls"] == 1 and m["linalg.np_spectral_flops"] == 64


@pytest.mark.parametrize("name", ["suite-fast", "attack-poly", "twirl-rates"])
def test_cli_inputs_are_deterministic_in_the_seed(name):
    work = wl.WORKLOADS[name]
    assert work.argvs(3) == work.argvs(3)
    assert work.argvs(3) != work.argvs(4)


def test_tomography_inputs_are_deterministic_in_the_seed():
    work = wl.WORKLOADS["tomo-sampled"]
    a, b, c = work.inputs(3), work.inputs(3), work.inputs(4)
    assert all(np.array_equal(x[2], y[2]) and x[3] == y[3] for x, y in zip(a, b))
    assert not any(np.array_equal(x[2], z[2]) for x, z in zip(a, c))


def test_seed_mapping_lands_on_a_stored_golden():
    for seed in (0, 7, 10, 123456, -1):
        s = wl.workload_seed(seed)
        assert s == wl.workload_seed(seed)
        for name in wl.WORKLOADS:
            assert wl.load_golden(name, s)
    assert wl.workload_seed(5, held_out=True) == wl.HELD_OUT_SEED
    for name in wl.WORKLOADS:
        assert wl.load_golden(name, wl.HELD_OUT_SEED)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_golden_items_pass_against_themselves_and_catch_edits(name):
    golden = wl.load_golden(name, 0)
    assert wl.compare(copy.deepcopy(golden), golden)[:2] == (len(golden), 0)
    key = next(k for k, v in golden[0].items()
               if isinstance(v, float) and abs(v) > 1e-6)
    nudged = copy.deepcopy(golden)
    nudged[0][key] *= 1 + 1e-6
    assert wl.compare(nudged, golden)[1] == 1
    flipped = copy.deepcopy(golden)
    flipped[-1]["passed"] = False
    assert wl.compare(flipped, golden)[1] == 1
    assert wl.compare(golden[1:], golden)[1] == 1


def test_injected_wrong_output_raises_fail_frac(monkeypatch):
    work = wl.WORKLOADS["tomo-sampled"]
    real = tomography.process_tomography_sampled

    def skewed(*args, **kwargs):
        res = real(*args, **kwargs)
        est = res.estimate.copy()
        est[0, 0] += 1e-6  # an error far below eps, so every verdict still passes
        return type(res)(est, res.mode, res.queries, res.gram_defect, res.shots_per_setting)

    with tempfile.TemporaryDirectory() as tmp:
        st = work.setup(0, tmp)
        monkeypatch.setattr(tomography, "process_tomography_sampled", skewed)
        items = work.run_pass(st, tmp)
    assert all(it["passed"] for it in items)
    attempted, failed, _ = wl.compare(items, wl.load_golden(work.name, 0))
    assert attempted == len(items) and failed / attempted > 0


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_golden_item_ids_are_unique(name):
    for items in (wl.load_golden(name, s) for s in wl.DEV_SEEDS + (wl.HELD_OUT_SEED,)):
        assert len({it["id"] for it in items}) == len(items)


def test_run_refuses_without_library_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tomo-sampled", "--seed", "0",
                        "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                       timeout=60)
    assert r.returncode != 0
    assert '"correct"' not in r.stdout
