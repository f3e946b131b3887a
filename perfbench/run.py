"""oraclebench benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --summary [--seed N] [--seconds S]

Run from a checkout whose `src/` holds the library. The last stdout line is
one JSON object with `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are setup_s, wall_s, items_per_s and peak_rss_mb;
with `--trace 1` they are the per-layer metrics of `tracing.METRICS`. Lines
before it give the same numbers by name, fail_frac, and the machine block;
the full record, spans included, goes to `perfbench/results/`.

`--summary` runs every workload in turn and prints the five end-to-end
metrics of each, fail_frac included. See perfbench/README.md.
"""
import time

T0 = time.perf_counter()  # set-up is timed from here: imports count

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
# set-ups per run whose median is setup_s; one is this process's own
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="suite-fast, attack-poly, twirl-rates or tomo-sampled")
    ap.add_argument("--seed", type=int, default=0, help="picks development seed N %% 10")
    ap.add_argument("--seconds", type=float, default=20.0, help="time spent on timed passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--held-out", action="store_true", help="run the held-out seed instead")
    ap.add_argument("--summary", action="store_true", help="run every workload, print a table")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.summary and not args.workload:
        ap.error("--workload is required")
    return args


def load_library():
    """Import the checkout's own library and the benchmark modules; exit if absent."""
    pkg = ROOT / "src" / "oraclebench"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"no library source at {pkg}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import oraclebench

    if Path(oraclebench.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"imported oraclebench from {oraclebench.__file__}, not from {pkg}")
    import workloads

    return workloads


# ------------------------------------------------------------------ machine block


def _blas_runtime() -> dict:
    """Thread count and build string reported by the OpenBLAS numpy loaded."""
    import ctypes
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    return {"threads": threads(), "config": config().decode()}
    return {"threads": None, "config": None}


def machine_block() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = ROOT / "src" / "oraclebench"
    lines = sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py")))
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            **_blas_runtime(),
            "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        },
        "src_oraclebench_lines": lines,
    }


# ------------------------------------------------------------------ runs


def child_setups(args, n: int) -> list:
    """Set-up times of n fresh processes, run one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--held-out"] if args.held_out else [])
    times = []
    for _ in range(n):
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if r.returncode:
            raise RuntimeError(f"set-up process failed: {r.stderr.strip()[-400:]}")
        times.append(json.loads(r.stdout.strip().splitlines()[-1])["setup_s"])
    return times


class Tally:
    """Attempted and failed items over every pass of a run."""

    def __init__(self, wl, golden):
        self.wl, self.golden = wl, golden
        self.attempted = self.failed = 0
        self.messages = []

    def add(self, items) -> int:
        attempted, failed, msgs = self.wl.compare(items, self.golden)
        self.attempted += attempted
        self.failed += failed
        self.messages += msgs
        return attempted - failed


def timed_pass(work, st, out_dir, tally):
    t = time.perf_counter()
    items = work.run_pass(st, out_dir)
    wall = time.perf_counter() - t
    return wall, tally.add(items)


def run_end_to_end(args, work, st, own_setup_s, out_dir, tally) -> tuple[dict, dict]:
    setups = [own_setup_s] + child_setups(args, SETUP_SAMPLES - 1)
    walls, rates = [], []
    start = time.perf_counter()
    while True:
        wall, passed = timed_pass(work, st, out_dir, tally)
        walls.append(wall)
        rates.append(passed / wall)
        # stop where the measured time lands closest to --seconds; one pass at least
        if time.perf_counter() - start + wall / 2 >= args.seconds:
            break
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"setup_samples_s": setups, "pass_walls_s": walls, "pass_items_per_s": rates}


def run_traced(work, st, out_dir, tally) -> tuple[dict, dict, bool]:
    """One untraced pass, then two traced passes whose exact counts must agree."""
    import tracing

    untraced, _ = timed_pass(work, st, out_dir, tally)
    tracer = tracing.Tracer()
    per_pass, extras, walls = [], [], []
    for pass_id in (1, 2):
        tracer.pass_id = pass_id
        tracer.reset_counters()
        cpu = time.process_time()
        tracer.install()
        try:
            wall, _ = timed_pass(work, st, out_dir, tally)
        finally:
            tracer.uninstall()
        cpu = time.process_time() - cpu
        m, extra = tracing.analyse(tracer.pass_spans(pass_id), tracer.waits, tracer.budget,
                                   tracer.refusals)
        m["harness.cpu_s"] = cpu
        per_pass.append(m)
        extras.append(extra)
        walls.append(wall)
    repeat_ok = extras[0]["counts"] == extras[1]["counts"]
    metrics = {}
    for name, (unit, _) in tracing.METRICS.items():
        vals = [m[name] for m in per_pass]
        metrics[name] = statistics.median(vals) if unit in ("s", "ratio") else vals[0]
    metrics["trace.overhead_s"] = statistics.median(walls) - untraced
    record = {
        "untraced_wall_s": untraced,
        "traced_walls_s": walls,
        "counts": extras[0]["counts"],
        "counts_repeat": repeat_ok,
        "spectral_s_by_layer": [e["spectral_s_by_layer"] for e in extras],
        "harness_pool_workers": tracer.pool_workers,
        "unwrapped_targets": tracer.missing,
        "spans": [s.as_dict() for s in tracer.spans],
    }
    return metrics, record, repeat_ok


def run_workload(args) -> int:
    wl = load_library()
    work = wl.WORKLOADS.get(args.workload)
    if work is None:
        sys.exit(f"unknown workload {args.workload!r}; known: {', '.join(sorted(wl.WORKLOADS))}")
    seed = wl.workload_seed(args.seed, args.held_out)
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as out_dir:
        st = work.setup(seed, out_dir)
        own_setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup_s}))
            return 0
        golden = wl.load_golden(work.name, seed)
        if golden is None:
            sys.exit(f"no golden outputs for {work.name} seed {seed}")
        tally = Tally(wl, golden)
        if args.trace:
            import tracing

            metrics, record, repeat_ok = run_traced(work, st, out_dir, tally)
            units = {k: u for k, (u, _) in tracing.METRICS.items()}
        else:
            metrics, record = run_end_to_end(args, work, st, own_setup_s, out_dir, tally)
            repeat_ok = True
            units = END_TO_END
    machine = machine_block()
    correct = tally.failed == 0 and repeat_ok
    fail_frac = tally.failed / tally.attempted if tally.attempted else 1.0

    print(f"workload {work.name} seed {args.seed} -> input seed {seed} trace {args.trace}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"fail_frac {fail_frac:.6g} ({tally.failed}/{tally.attempted} items)")
    for msg in tally.messages[:20]:
        print(f"failure: {msg}")
    if not repeat_ok:
        print("failure: exact counts differ between the two traced passes")
    if args.trace:
        for key, val in record["counts"].items():
            print(f"count {key} {json.dumps(val)}")
        top = list(record["spectral_s_by_layer"][0].items())[:5]
        print("spectral_s " + "; ".join(f"{k} {v:.3f}" for k, v in top))
        print(f"harness_pool_workers {record['harness_pool_workers']}")
        if record["unwrapped_targets"]:
            print(f"unwrapped {record['unwrapped_targets']}")
    print("machine " + json.dumps(machine, sort_keys=True))

    result = {
        "correct": bool(correct),
        "attempted": int(tally.attempted),
        "failed": int(tally.failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    out = RESULTS / f"{work.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**result, "fail_frac": fail_frac, "input_seed": seed,
                               "failures": tally.messages, "machine": machine, **record}) + "\n")
    print(json.dumps(result))
    return 0


def run_summary(args) -> int:
    """Every workload once, in its own process; one row per workload."""
    rows = []
    for name in load_library().WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--held-out"] if args.held_out else []
        r = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
        if r.returncode:
            print(f"{name}: exit {r.returncode} {r.stderr.strip()[-300:]}")
            rows.append(None)
            continue
        res = json.loads(r.stdout.strip().splitlines()[-1])
        rows.append(res)
        cells = [f"{k}={v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items()]
        frac = res["failed"] / res["attempted"]
        print(f"{name:<13} " + "  ".join(cells) + f"  fail_frac={frac:.4g} ({res['failed']}/{res['attempted']})")
    return 0 if all(r is not None and r["correct"] for r in rows) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.summary:
        return run_summary(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
