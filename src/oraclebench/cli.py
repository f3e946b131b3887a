"""Command line front end over the experiment harness.

Exit codes: 0 every result passed, 1 at least one comparison failed,
2 usage faults including unknown ids, bad flag values, and budget refusals.
Flag precedence is flags over config file over built-in defaults.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import harness
from .adversary import BACKENDS, TOMOGRAPHY_MODES
from .budget import SizingError
from .harness import ExperimentConfig, LemmaCheckResult

_CONFIG_KEYS = {
    "lam", "ell", "s", "c", "p", "trials", "seed", "backend", "tomo",
    "out", "format", "params", "sweep",
}


def _parse_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _parse_params(pairs) -> dict:
    out = {}
    for pair in pairs or ():
        key, sep, val = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"--param expects K=V, got {pair!r}")
        out[key] = _parse_value(val)
    return out


# flag names that differ from the ExperimentConfig field they set
_FLAG_FIELDS = {"lambda": "lam", "tomo": "tomography_mode"}


def _parse_sweep(text: str) -> tuple:
    key, sep, vals = text.partition("=")
    if not sep or not vals:
        raise ValueError(f"--sweep expects PARAM=V1,V2,.., got {text!r}")
    return _FLAG_FIELDS.get(key, key), tuple(_parse_value(v) for v in vals.split(","))


def _shared_flags() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    g = shared.add_argument_group("experiment flags")
    g.add_argument("--lambda", dest="lam", type=int, default=None, help="key register qubits")
    g.add_argument("--ell", type=int, default=None, help="copies of the challenge state")
    g.add_argument("--s", type=int, default=None, help="isometry stretch qubits")
    g.add_argument("--c", type=int, default=None, help="candidate ancilla qubits")
    g.add_argument("--p", type=int, default=None, help="target inverse-polynomial exponent base")
    g.add_argument("--trials", type=int, default=None, help="repetitions inside one check")
    g.add_argument("--seed", type=int, default=None, help="root seed (default 0)")
    g.add_argument("--backend", choices=BACKENDS, default=None,
                   help="threshold backend for the distinguisher")
    g.add_argument("--tomo", choices=TOMOGRAPHY_MODES, default=None,
                   help="process tomography mode")
    g.add_argument("--param", action="append", metavar="K=V", default=None,
                   help="extra check or attack parameter, repeatable")
    g.add_argument("--sweep", metavar="PARAM=V1,V2,..", default=None,
                   help="rerun the experiment per value, emit an x,y companion csv")
    g.add_argument("--out", default=None, help="report path")
    g.add_argument("--format", dest="fmt", choices=["json", "csv"], default=None,
                   help="report format (default json)")
    g.add_argument("--config", default=None, help="json file of defaults for these flags")
    return shared


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: it depends only on the static
    check, backend and tomography tables, and parsing leaves it unchanged."""
    shared = _shared_flags()
    top = argparse.ArgumentParser(
        prog="oraclebench",
        description="Numerical testbench for oracle constructions, keyed candidates, "
        "and singular-value-threshold distinguishers.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    pl = sub.add_parser("lemma", parents=[shared], help="run one named check")
    pl.add_argument("lemma_id", metavar="ID", choices=sorted(harness.CHECKS),
                    help="check id, one of: " + ", ".join(sorted(harness.CHECKS)))
    pa = sub.add_parser("attack", parents=[shared], help="run one attack preset on a toy candidate")
    pa.add_argument("target", choices=["pru", "pri", "pri-vs-hri"])
    sub.add_parser("prfsg-game", parents=[shared], help="play the keyed state game, report mean and tail")
    ps = sub.add_parser("suite", parents=[shared], help="run every check plus the attack presets")
    ps.add_argument("profile", nargs="?", choices=["all", "fast"], default="all")
    return top


def _merge(flag, filed, fallback):
    if flag is not None:
        return flag
    if filed is not None:
        return filed
    return fallback


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    filed = {}
    if args.config is not None:
        with open(args.config) as fh:
            filed = json.load(fh)
        unknown = sorted(set(filed) - _CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys {unknown}")
    if args.command == "lemma":
        kind, ids = "lemma", (args.lemma_id,)
    elif args.command == "attack":
        kind, ids = f"attack-{args.target}", ()
    elif args.command == "prfsg-game":
        kind, ids = "prfsg-game", ()
    else:
        kind, ids = f"suite-{args.profile}", ()
    params = dict(filed.get("params") or {})
    params.update(_parse_params(args.param))
    sweep = args.sweep if args.sweep is not None else filed.get("sweep")
    if isinstance(sweep, str):
        sweep = _parse_sweep(sweep)
    elif sweep is not None:
        sweep = (_FLAG_FIELDS.get(sweep[0], sweep[0]), tuple(sweep[1]))
    out = _merge(args.out, filed.get("out"), None)
    fmt = _merge(args.fmt, filed.get("format"), None)
    if out is None and fmt is not None:
        raise ValueError("a report format needs a report path (--out)")
    out_dir = out and os.path.dirname(os.path.abspath(out))
    if out_dir and not os.path.isdir(out_dir):
        raise ValueError(f"report directory {out_dir} does not exist")
    return ExperimentConfig(
        kind=kind,
        lemma_ids=ids,
        lam=_merge(args.lam, filed.get("lam"), None),
        ell=_merge(args.ell, filed.get("ell"), None),
        s=_merge(args.s, filed.get("s"), None),
        c=_merge(args.c, filed.get("c"), None),
        p=_merge(args.p, filed.get("p"), None),
        trials=_merge(args.trials, filed.get("trials"), None),
        seed=_merge(args.seed, filed.get("seed"), 0),
        backend=_merge(args.backend, filed.get("backend"), None),
        tomography_mode=_merge(args.tomo, filed.get("tomo"), None),
        out_path=out,
        fmt=fmt or "json",
        sweep=sweep,
        extra=params,
    )


def _print_report(report: harness.Report) -> int:
    failed = 0
    for res in report.results:
        ok = harness.result_passed(res)
        failed += not ok
        verdict = "PASS" if ok else "FAIL"
        if isinstance(res, LemmaCheckResult):
            print(f"{res.lemma_id:<24} lhs={res.lhs:.6g} bound={res.bound:.6g} "
                  f"ratio={res.ratio:.4g} cal={res.calibration:g} {verdict}")
        else:
            print(f"attack-{res.kind:<17} advantage={res.advantage:.4f} "
                  f"hybrid={res.hybrid_distance:.4g} bound={res.hybrid_bound:.4g} "
                  f"T={res.t_queries} d={res.d_cutoff} {verdict}")
    n = len(report.results)
    print(f"{n - failed}/{n} passed in {report.total_runtime_ms} ms")
    return failed


def cli_main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        cfg = _config_from_args(args)
        report = harness.run_experiment(cfg)
    except SizingError as e:
        print(f"sizing: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    failed = _print_report(report)
    if cfg.out_path is not None:
        harness.emit_report(report, cfg.out_path, cfg.fmt)
        print(f"report written to {cfg.out_path}")
    return 1 if failed else 0


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
