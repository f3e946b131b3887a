"""Command line front end over the experiment harness.

Exit codes: 0 every result passed, 1 at least one comparison failed, 2 usage
faults including unknown ids, bad flag values, budget refusals and a report that
cannot be written. Flags override the config file, which overrides the defaults.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from . import harness
from .adversary import BACKENDS, TOMOGRAPHY_MODES
from .budget import SizingError
from .harness import ExperimentConfig, LemmaCheckResult

# the settings: every ExperimentConfig field but the kind and the check ids, each the
# dest of one flag and the value of one config-file key, named as the field unless
# this table names the key otherwise
_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"kind", "lemma_ids"}
_FILE_FIELDS = {"tomo": "tomography_mode", "out": "out_path", "format": "fmt", "params": "extra"}
_FILE_KEYS = _FIELDS - set(_FILE_FIELDS.values()) | set(_FILE_FIELDS)
# each structured config-file value's shape, as a test and in words
_FILE_SHAPES = {
    "params": (lambda v: isinstance(v, dict), "an object"),
    "out": (lambda v: isinstance(v, str), "a string"),
    "sweep": (lambda v: isinstance(v, str) or (isinstance(v, list) and list(map(type, v)) == [str, list]),
              'a "PARAM=V1,.." string or a [PARAM, [V1, ..]] pair'),
}


def _variants(command: str) -> list:
    """What completes a command's experiment kind: the attack targets, the suite profiles."""
    return [k.removeprefix(f"{command}-") for k in harness._READS if k.startswith(f"{command}-")]


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
        if key in out:
            raise ValueError(f"{key} given twice")
        out[key] = _parse_value(val)
    return out


# sweep names that differ from the ExperimentConfig field they sweep
_SWEEP_FIELDS = {"lambda": "lam", "tomo": "tomography_mode"}


def _parse_sweep(sweep) -> tuple:
    """A PARAM=V1,V2,.. string or a [PARAM, [V1, V2, ..]] pair as (field, values)."""
    if isinstance(sweep, str):
        key, sep, vals = sweep.partition("=")
        if not sep or not vals:
            raise ValueError(f"--sweep expects PARAM=V1,V2,.., got {sweep!r}")
        sweep = key, [_parse_value(v) for v in vals.split(",")]
    return _SWEEP_FIELDS.get(sweep[0], sweep[0]), tuple(sweep[1])


def _read_config(path: str) -> dict:
    """A config file's settings by field name, its shapes checked and its null values dropped."""
    with open(path) as fh:
        filed = json.load(fh)
    if not isinstance(filed, dict):
        raise ValueError(f"a config file must hold a JSON object, got {json.dumps(filed)[:40]}")
    unknown = sorted(set(filed) - _FILE_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys {unknown}")
    for key, (fits, shape) in _FILE_SHAPES.items():
        if filed.get(key) is not None and not fits(filed[key]):
            raise ValueError(f"config key {key} must be {shape}, got {filed[key]!r}")
    return {_FILE_FIELDS.get(k, k): v for k, v in filed.items() if v is not None}


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
    g.add_argument("--tomo", dest="tomography_mode", choices=TOMOGRAPHY_MODES, default=None,
                   help="process tomography mode")
    g.add_argument("--param", dest="extra", action="append", metavar="K=V", default=None,
                   help="extra check or attack parameter, repeatable; attacks read keys "
                   "(default min(2^lambda, 4)), calls (default 1 when lambda+s+c >= 3, else 0; "
                   "a call needs 3 wires) and a (default 1, pri-vs-hri only)")
    g.add_argument("--sweep", metavar="PARAM=V1,V2,..", default=None,
                   help="rerun the experiment per value, emit an x,y companion csv")
    g.add_argument("--out", dest="out_path", metavar="OUT", default=None, help="report path")
    g.add_argument("--format", dest="fmt", choices=harness.REPORT_FORMATS, default=None,
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
    pa.add_argument("target", choices=_variants("attack"))
    sub.add_parser("prfsg-game", parents=[shared], help="play the keyed state game, report mean and tail")
    ps = sub.add_parser("suite", parents=[shared], help="run every check plus the attack presets")
    ps.add_argument("profile", nargs="?", choices=_variants("suite"), default="all")
    return top


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    settings = _read_config(args.config) if args.config is not None else {}
    flags = {k: v for k, v in vars(args).items() if k in _FIELDS and v is not None}
    # a --param adds to the file's parameters; every other flag replaces the file's value
    settings["extra"] = {**settings.get("extra", {}), **_parse_params(flags.pop("extra", ()))}
    settings.update(flags)
    if "sweep" in settings:
        settings["sweep"] = _parse_sweep(settings["sweep"])
    out = settings.get("out_path")
    if out is None and "fmt" in settings:
        raise ValueError("a report format needs a report path (--out)")
    out_dir = out and os.path.dirname(os.path.abspath(out))
    if out_dir and not os.path.isdir(out_dir):
        raise ValueError(f"report directory {out_dir} does not exist")
    if out and os.path.isdir(out):
        raise ValueError(f"report path {out} is a directory")
    variant = getattr(args, "target", None) or getattr(args, "profile", None)
    kind = f"{args.command}-{variant}" if variant else args.command
    ids = (args.lemma_id,) if args.command == "lemma" else ()
    return ExperimentConfig(kind=kind, lemma_ids=ids, **settings)


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
        failed = _print_report(report)
        if cfg.out_path is not None:
            harness.emit_report(report, cfg.out_path, cfg.fmt)
            print(f"report written to {cfg.out_path}")
    except SizingError as e:
        print(f"sizing: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 1 if failed else 0


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
