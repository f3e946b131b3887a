"""Record golden outputs: one pass per workload and stored seed.

    python3 perfbench/make_golden.py [--workload NAME ...] [--force]

Run this only on library code whose outputs are the reference. A change that
claims a speed-up is measured against these files and must not rewrite them.
"""
from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402


def record(name: str) -> dict:
    work = wl.WORKLOADS[name]
    seeds = {}
    for seed in wl.DEV_SEEDS + (wl.HELD_OUT_SEED,):
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            items = work.run_pass(work.setup(seed, tmp), tmp)
        bad = [it["id"] for it in items if not it.get("passed")]
        if bad:
            raise SystemExit(f"{name} seed {seed}: items {bad} fail; not a usable golden")
        seeds[str(seed)] = items
        print(f"{name} seed {seed}: {len(items)} items", flush=True)
    return {
        "workload": name,
        "rel_tol": wl.REL_TOL,
        "abs_tol": wl.ABS_TOL,
        "held_out_seed": wl.HELD_OUT_SEED,
        "seeds": seeds,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", action="append", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--force", action="store_true", help="overwrite existing goldens")
    args = ap.parse_args()
    wl.GOLDEN_DIR.mkdir(exist_ok=True)
    for name in args.workload or sorted(wl.WORKLOADS):
        path = wl.golden_path(name)
        if path.exists() and not args.force:
            raise SystemExit(f"{path} exists; pass --force to overwrite")
        data = record(name)
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
