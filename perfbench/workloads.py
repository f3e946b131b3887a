"""The four benchmark workloads: inputs from a seed, set-up, one pass, golden check.

A workload turns an integer seed into inputs, builds what a user would build
before the first result (configs, toy candidates, Haar unitaries) plus one
untimed warm-up item, and then runs passes. A pass returns one canonical
output dict per item; `compare` checks those against the outputs the
unmodified library produced for the same seed, stored under `golden/`.

Every item dict carries an `id` and a `passed` verdict. Items that raised
carry `exception` instead of their values.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

from oraclebench import cli, harness, haar, tomography
from oraclebench.harness import ExperimentConfig
from oraclebench.seeds import SeedPath

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"

# Goldens exist for these seeds; `--seed n` runs development seed n % 10, so
# every pass, whatever the seed, is checked against a stored output.
DEV_SEEDS = tuple(range(10))
# kept out of the development pool: confirm a claimed gain on it with --held-out
HELD_OUT_SEED = 1009

REL_TOL = 1e-9
# values at rounding level (exact zeros, 1e-16 residuals) compare absolutely
ABS_TOL = 1e-12

# a cheap CLI item whose inputs no timed item shares, so no cache it fills
# is one a timed pass could hit
WARMUP_ARGV = ["lemma", "hri-trace"]


def workload_seed(seed: int, held_out: bool = False) -> int:
    return HELD_OUT_SEED if held_out else DEV_SEEDS[seed % len(DEV_SEEDS)]


@dataclass
class Setup:
    """What set-up built; passes read `inputs`, the rest only stands for user set-up cost."""

    seed: int
    inputs: list
    built: list = field(default_factory=list)


# ------------------------------------------------------------------ CLI items


def _run_cli(argv: list, out_path: str) -> list:
    """Run one CLI command in-process and read its report back as item dicts."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = cli.cli_main(argv + ["--out", out_path])
    if rc == 2 or not os.path.exists(out_path):
        raise RuntimeError(f"{' '.join(argv)} exited {rc}: {buf.getvalue()[-400:]}")
    with open(out_path) as fh:
        report = harness.report_from_dict(json.load(fh))
    os.unlink(out_path)
    items = []
    for res in harness.strip_timing(report).results:
        d = res.as_dict()
        # crossings list which helpers ran, not what they computed; timing is zeroed
        for key in ("crossings", "runtime_ms", "wall_ms"):
            d.pop(key, None)
        d["id"] = d["lemma_id"] if "lemma_id" in d else "attack-" + d["kind"]
        d["passed"] = bool(harness.result_passed(res))
        items.append(d)
    return items


def _cli_configs(argvs: list) -> list:
    parser = cli.build_parser()
    return [cli._config_from_args(parser.parse_args(argv)) for argv in argvs]


def _warm_up(out_dir: str) -> None:
    items = _run_cli(WARMUP_ARGV, os.path.join(out_dir, "warmup.json"))
    if not all(it["passed"] for it in items):
        raise RuntimeError("warm-up item failed")


class CliWorkload:
    """A list of CLI commands; each command yields one or more items."""

    name = ""

    def argvs(self, seed: int) -> list:
        raise NotImplementedError

    def build(self, seed: int, configs: list) -> list:
        return configs

    def setup(self, seed: int, out_dir: str) -> Setup:
        argvs = self.argvs(seed)
        built = self.build(seed, _cli_configs(argvs))
        _warm_up(out_dir)
        return Setup(seed, argvs, built)

    def run_pass(self, st: Setup, out_dir: str) -> list:
        items = []
        for i, argv in enumerate(st.inputs):
            try:
                got = _run_cli(argv, os.path.join(out_dir, f"item{i}.json"))
            except Exception as e:  # an item that raises is a failed item, not a crash
                got = [{"id": "raised", "exception": repr(e), "passed": False}]
            # the command index keeps ids unique when one check runs at several sizes
            items.extend({**it, "id": f"{i}:{it['id']}"} for it in got)
        return items


def _build_toys(shapes: list) -> list:
    return [harness._toy_for(kind, cfg, root) for kind, cfg, root in shapes]


class SuiteFast(CliWorkload):
    name = "suite-fast"

    def argvs(self, seed):
        return [["suite", "fast", "--seed", str(seed)]]

    def build(self, seed, configs):
        root = SeedPath(seed)
        shapes = []
        for kind, tweaks in harness._SUITE_ATTACKS["fast"]:
            cfg = ExperimentConfig(kind=kind, seed=seed, **tweaks)
            shapes.append((kind.removeprefix("attack-"), cfg, root.child(kind)))
        return configs + _build_toys(shapes)


class AttackPoly(CliWorkload):
    name = "attack-poly"

    def argvs(self, seed):
        tail = ["--c", "1", "--backend", "poly", "--tomo", "sampled", "--seed", str(seed)]
        return [["attack", "pru"] + tail, ["attack", "pri-vs-hri"] + tail]

    def build(self, seed, configs):
        shapes = [
            (cfg.kind.removeprefix("attack-"), cfg, SeedPath(cfg.seed)) for cfg in configs
        ]
        return configs + _build_toys(shapes)


class TwirlRates(CliWorkload):
    name = "twirl-rates"

    def argvs(self, seed):
        s = ["--seed", str(seed)]
        return [
            ["lemma", "twirl-choi-rate", "--lambda", "2"] + s,
            ["lemma", "twirl-choi-rate", "--lambda", "3"] + s,
            ["lemma", "isometry-choi-rate", "--lambda", "1", "--s", "1"] + s,
            ["lemma", "isometry-choi-rate", "--lambda", "2", "--s", "1"] + s,
            ["lemma", "permutation-twirl-rate", "--param", "n=2"] + s,
            ["lemma", "permutation-twirl-rate", "--param", "n=3"] + s,
        ]


# ------------------------------------------------------------------ tomography


class TomoSampled:
    """Shot-sampled process tomography of seeded Haar unitaries."""

    name = "tomo-sampled"
    DIMS = (2, 4, 8, 16)
    REPS = 2
    EPS = 0.1
    ETA = 0.1

    def inputs(self, seed: int) -> list:
        root = SeedPath(seed)
        return [
            (d, j, haar.sample_haar_unitary(d, root.child("u", d).child("rep", j)).mat,
             root.child("shots", d).child("rep", j))
            for d in self.DIMS
            for j in range(self.REPS)
        ]

    def setup(self, seed: int, out_dir: str) -> Setup:
        inputs = self.inputs(seed)
        warm = haar.sample_haar_unitary(2, SeedPath(seed).child("warmup")).mat
        tomography.process_tomography_sampled(
            lambda v: warm @ v, 2, self.EPS, self.ETA, SeedPath(seed).child("warmup-shots")
        )
        return Setup(seed, inputs)

    def run_pass(self, st: Setup, out_dir: str) -> list:
        items = []
        for d, j, u, shots_seed in st.inputs:
            item_id = f"dim{d}-rep{j}"
            try:
                res = tomography.process_tomography_sampled(
                    lambda v, u=u: u @ v, d, self.EPS, self.ETA, shots_seed
                )
                err = tomography.phase_aligned_distance(res.estimate, u, 2)
                items.append({"id": item_id, "error": err, "queries": res.queries,
                              "passed": bool(err <= self.EPS)})
            except Exception as e:
                items.append({"id": item_id, "exception": repr(e), "passed": False})
        return items


WORKLOADS = {w.name: w for w in (SuiteFast(), AttackPoly(), TwirlRates(), TomoSampled())}


# ------------------------------------------------------------------ golden outputs


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def load_golden(name: str, seed: int):
    path = golden_path(name)
    if not path.exists():
        return None
    with open(path) as fh:
        return json.load(fh)["seeds"].get(str(seed))


def _same(want, got) -> bool:
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return want == got
    if isinstance(want, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return False
        return math.isclose(want, got, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    if isinstance(want, dict):
        return isinstance(got, dict) and all(k in got and _same(v, got[k]) for k, v in want.items())
    if isinstance(want, list):
        return (isinstance(got, (list, tuple)) and len(want) == len(got)
                and all(_same(a, b) for a, b in zip(want, got)))
    return want == got


def compare(items: list, golden: list | None) -> tuple[int, int, list]:
    """(attempted, failed, messages) for one pass against its golden items.

    An item fails if it raised, has a failing verdict, is missing, is not in
    the golden, or differs from it: verdicts exactly, numbers within
    REL_TOL relative (ABS_TOL absolute near zero). Keys the golden does not
    hold are not compared, so a report may gain fields.
    """
    msgs = []
    if golden is None:
        bad = [it for it in items if not it.get("passed")]
        msgs += [f"{it['id']}: failed verdict or raised" for it in bad]
        return len(items), len(bad), msgs
    by_id = {it["id"]: it for it in items}
    want_ids = {g["id"] for g in golden}
    failed = 0
    for want in golden:
        got = by_id.get(want["id"])
        if got is None:
            failed += 1
            msgs.append(f"{want['id']}: missing")
        elif "exception" in got:
            failed += 1
            msgs.append(f"{want['id']}: raised {got['exception']}")
        elif not got.get("passed"):
            failed += 1
            msgs.append(f"{want['id']}: failing verdict")
        elif not _same(want, got):
            failed += 1
            keys = [k for k in want if k not in got or not _same(want[k], got[k])]
            msgs.append(f"{want['id']}: differs from golden in {keys}")
    extra = [it for it in items if it["id"] not in want_ids]
    msgs += [f"{it['id']}: not in golden" for it in extra]
    return len(golden) + len(extra), failed + len(extra), msgs
