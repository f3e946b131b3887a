"""Exit codes, flag precedence, and report files through the CLI."""
import json
import os
import stat
import subprocess
import sys
import time

import pytest

from oraclebench import harness, seeds
from oraclebench.cli import build_parser, cli_main


def test_lemma_subcommand_prints_one_row(capsys):
    rc = cli_main(["lemma", "support-overlap", "--lambda", "2", "--ell", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "support-overlap" in out and "PASS" in out
    assert "1/1 passed" in out


def test_usage_faults_exit_2(capsys):
    assert cli_main(["lemma", "no-such-check"]) == 2
    assert cli_main(["definitely-not-a-subcommand"]) == 2
    assert cli_main([]) == 2
    assert cli_main(["lemma", "holder-product", "--backend", "analog"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    assert "suite" in capsys.readouterr().out


def test_param_flag_reaches_the_check(capsys):
    rc = cli_main(["lemma", "holder-product", "--param", "trials=6", "--param", "d=4"])
    assert rc == 0
    capsys.readouterr()


def test_bad_param_forms_exit_2(capsys):
    assert cli_main(["lemma", "holder-product", "--param", "trials"]) == 2
    assert cli_main(["lemma", "choi-shrinkage", "--param", "bogus=3"]) == 2
    assert cli_main(["lemma", "holder-product", "--param", "d=6.7"]) == 2
    assert cli_main(["lemma", "gentle-measurement", "--param", "trials=0"]) == 2
    assert cli_main(["attack", "pru", "--param", "keys=2.7"]) == 2
    assert cli_main(["attack", "pru", "--param", "keys=0"]) == 2
    assert cli_main(["attack", "pru", "--param", "bogus=3"]) == 2
    assert cli_main(["lemma", "twirl-choi-rate", "--ell", "0"]) == 2
    assert cli_main(["lemma", "twirl-choi-rate", "--ell", "-1"]) == 2
    assert cli_main(["lemma", "twirl-choi-rate", "--lambda", "0"]) == 2
    assert cli_main(["lemma", "isometry-choi-rate", "--s", "-1"]) == 2
    assert cli_main(["lemma", "isometry-choi-rate", "--lambda", "0"]) == 2
    assert cli_main(["lemma", "permutation-twirl-rate", "--param", "n=0"]) == 2
    assert cli_main(["lemma", "permutation-twirl-rate", "--ell", "0"]) == 2
    assert cli_main(["prfsg-game", "--param", "bogus=3", "--trials", "5"]) == 2
    assert cli_main(["attack", "pru", "--c", "-1"]) == 2
    assert cli_main(["attack", "pri", "--s", "-1"]) == 2
    assert cli_main(["attack", "pru", "--ell", "0"]) == 2
    assert cli_main(["attack", "pru", "--lambda", "0"]) == 2
    assert cli_main(["lemma", "holder-product", "--param", "d=0"]) == 2
    assert cli_main(["lemma", "hri-trace", "--param", "stretch=bogus"]) == 2
    assert cli_main(["lemma", "support-overlap", "--ell", "0"]) == 2
    for cid in ("choi-shrinkage", "hri-trace", "swap-call-closeness", "hri-call-closeness",
                "sv-tail-mass", "kernel-leakage"):
        assert cli_main(["lemma", cid, "--param", "n=0"]) == 2
    assert cli_main(["lemma", "family-lipschitz", "--param", "members=0"]) == 2
    assert cli_main(["lemma", "two-query-lipschitz", "--param", "d=0"]) == 2
    assert cli_main(["lemma", "prfsg-mean-advantage", "--lambda", "0"]) == 2
    assert cli_main(["lemma", "haar-concentration", "--param", "delta=-1"]) == 2
    assert cli_main(["attack", "pri-vs-hri", "--c", "1", "--param", "a=inf"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 33
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,filed", [
    (["lemma", "twirl-choi-rate", "--sweep", "lambda=2.5,3"], None),
    (["lemma", "twirl-choi-rate", "--sweep", "seed=1.5"], None),
    (["attack", "pru", "--sweep", "p=2.9"], None),
    (["lemma", "twirl-choi-rate"], {"seed": 1.5}),
    (["attack", "pru"], {"lam": 2.5}),
    (["attack", "pru"], {"lam": "3"}),
    (["attack", "pru"], {"p": "20"}),
    (["lemma", "twirl-choi-rate"], {"lam": "3"}),
])
def test_non_integer_settings_exit_2_before_running(argv, filed, tmp_path, capsys, monkeypatch):
    def not_called(cfg):
        raise AssertionError("experiment ran with a setting that is not an integer")

    monkeypatch.setattr(harness, "run_experiment", not_called)
    if filed is not None:
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(filed))
        argv = argv + ["--config", str(cfgfile)]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be an integer" in err


@pytest.mark.parametrize("argv", [
    ["lemma", "holder-product", "--sweep", "d=4,0"],
    ["attack", "pru", "--sweep", "p=20,1"],
    ["attack", "pru", "--sweep", "lambda=2,0"],
    ["attack", "pru", "--sweep", "keys=2,0"],
    ["lemma", "haar-concentration", "--sweep", "delta=0.3,2"],
    ["attack", "pri-vs-hri", "--sweep", "a=1,0.5"],
    ["lemma", "holder-product", "--lambda", "3"],
    # a value given twice
    ["lemma", "twirl-choi-rate", "--lambda", "3", "--param", "lam=4"],
    ["lemma", "hri-trace", "--param", "n=1", "--param", "n=2"],
    ["attack", "pru", "--p", "10", "--sweep", "p=20,30"],
])
def test_every_run_resolves_before_the_first_starts(argv, capsys, monkeypatch):
    def not_called(cfg):
        raise AssertionError("experiment ran although one of its runs does not resolve")

    monkeypatch.setattr(harness, "run_experiment", not_called)
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["prfsg-game", "--ell", "3", "--c", "2"],
    ["attack", "pru", "--trials", "7", "--s", "3"],
    ["attack", "pri-vs-hri", "--s", "2"],
    ["attack", "pru", "--param", "a=2"],
    ["lemma", "hri-trace", "--p", "5", "--backend", "poly", "--tomo", "sampled"],
    ["suite", "fast", "--lambda", "5", "--ell", "3"],
    ["suite", "fast", "--param", "trials=3"],
    ["attack", "pru", "--sweep", "trials=1,2"],
    ["lemma", "hri-trace", "--format", "csv"],
])
def test_flags_the_experiment_does_not_read_exit_2(argv, capsys):
    assert cli_main(argv) == 2
    assert "error:" in capsys.readouterr().err


def _refuse_every_run(monkeypatch):
    def not_run(*_):
        raise AssertionError("a run started although the config holds one that is refused")

    monkeypatch.setattr(harness, "lemma_check", not_run)
    monkeypatch.setattr(harness, "_run_attack", not_run)


def test_premise_and_sizing_faults_exit_2(capsys, monkeypatch):
    # each fault is refused when the config resolves, before any run: alone,
    # and as the second value of a sweep whose first value runs
    _refuse_every_run(monkeypatch)
    for argv, says in [
        (["lemma", "swap-call-closeness", "--lambda", "1", "--c", "1"], "error: call on"),
        (["lemma", "swap-call-closeness", "--c", "1", "--trials", "1", "--sweep", "lambda=4,1"],
         "error: call on"),
        (["lemma", "choi-shrinkage", "--param", "n=9"], "sizing:"),
        (["lemma", "choi-shrinkage", "--sweep", "n=3,9"], "sizing:"),
        # a 5000 x 5000 matrix is a 13-qubit one, one past the default budget
        *[
            (["lemma", check, *args], "sizing:")
            for check in (
                "gentle-measurement", "holder-product", "two-query-lipschitz",
                "conjugation-lipschitz", "family-lipschitz", "haar-concentration",
            )
            for args in (["--param", "d=5000"], ["--sweep", "d=4,5000"])
        ],
        # 2^21 members of 4 x 4 each, twice the entries a factor may hold
        (["lemma", "family-lipschitz", "--param", "members=2097152"], "sizing: a trial's d x d matrices"),
        # every toy call sits on three wires, more than lambda 1 holds
        (["attack", "pru", "--lambda", "1", "--param", "calls=1"], "cannot host an oracle call"),
        (["attack", "pru", "--param", "calls=1", "--sweep", "lambda=3,1"], "cannot host an oracle call"),
        (["attack", "pru", "--ell", "9"], "sizing:"),
        (["attack", "pru", "--sweep", "ell=1,9"], "sizing:"),
        (["attack", "pri", "--lambda", "3", "--backend", "poly"], "sizing: poly backend"),
        (["attack", "pri", "--backend", "poly", "--sweep", "lambda=1,3"], "sizing: poly backend"),
        # lambda 5 with one work qubit: a 2^22 x 16 keyed factor, four times the budget
        (["attack", "pri", "--lambda", "5", "--c", "1"], "2^22 x 16 factor"),
        (["attack", "pri", "--c", "1", "--sweep", "lambda=2,5"], "2^22 x 16 factor"),
        (["lemma", "twirl-choi-rate", "--ell", "41"], "sizing:"),
        (["lemma", "twirl-choi-rate", "--sweep", "ell=2,41"], "sizing:"),
        # small factors, but 8! x 8! permutation pair weights behind the reference overlaps
        (["attack", "pru", "--lambda", "1", "--ell", "8"], "permutation pair weights"),
        (["attack", "pru", "--lambda", "1", "--sweep", "ell=2,8"], "permutation pair weights"),
        (["lemma", "support-overlap", "--lambda", "1", "--ell", "8"], "permutation pair weights"),
        (["lemma", "support-overlap", "--lambda", "1", "--sweep", "ell=2,8"],
         "permutation pair weights"),
        # small factors and pair weights, but 6! index maps of the 2^18 output registers
        (["attack", "pri", "--lambda", "1", "--s", "2", "--ell", "6", "--param", "keys=1"],
         "sizing: register maps"),
        # 2^9 key states of dim 2^18 in every draw
        (["prfsg-game", "--lambda", "9"], "sizing: game key states"),
        (["prfsg-game", "--trials", "5", "--sweep", "lambda=2,9"], "sizing: game key states"),
    ]:
        assert cli_main(argv) == 2, argv
        err = capsys.readouterr().err
        assert says in err and "Traceback" not in err, (argv, err)


@pytest.mark.parametrize(
    "args",
    [
        ["permutation-twirl-rate", "--param", "n=6"],
        ["sv-tail-mass", "--param", "n=12"],
        ["kernel-leakage", "--param", "n=12"],
        ["swap-call-closeness", "--lambda", "10", "--c", "3"],
        ["hri-call-closeness", "--lambda", "10", "--c", "3"],
        # the same sizes as the second value of a sweep whose first value runs
        ["permutation-twirl-rate", "--sweep", "n=2,6"],
        ["sv-tail-mass", "--sweep", "n=3,12"],
        ["kernel-leakage", "--sweep", "n=3,12"],
        ["swap-call-closeness", "--c", "3", "--sweep", "lambda=3,10"],
        ["hri-call-closeness", "--c", "3", "--sweep", "lambda=3,10"],
    ],
)
def test_exponent_sized_checks_are_refused_before_drawing(args, capsys, monkeypatch):
    # each asks for a 13-qubit dense matrix, one past the default budget
    def draw(*_):
        raise AssertionError("drew a random matrix before the size check")

    monkeypatch.setattr(harness.la, "ginibre", draw)
    monkeypatch.setattr(harness.la, "random_unitary_from", draw)
    monkeypatch.setattr(seeds, "generators", draw)
    monkeypatch.setattr(seeds, "normals", draw)
    _refuse_every_run(monkeypatch)
    assert cli_main(["lemma", *args]) == 2
    assert "sizing:" in capsys.readouterr().err


def test_oversized_moment_estimate_is_refused_before_allocating(capsys):
    # d=128, ell=2 would be a 2^14 x 2^14 accumulator, 4 GB
    assert cli_main(["lemma", "state-moment-mc", "--param", "d=128"]) == 2
    assert "sizing:" in capsys.readouterr().err


def test_an_absurd_moment_order_is_refused_before_the_power(capsys):
    # 3^(10^7) has about 1.6e7 bits; the refusal must not compute it
    t0 = time.perf_counter()
    assert cli_main(["lemma", "state-moment-mc", "--param", "d=3", "--ell", "10000000"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "sizing:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["attack", "pru", "--c", "1", "--ell", "15000"],
    ["attack", "pri", "--c", "2", "--ell", "8000"],
    ["prfsg-game", "--lambda", "20000"],
    ["prfsg-game", "--lambda", "2000"],
], ids=["pru-ell-15000", "pri-ell-8000", "game-lambda-20000", "game-lambda-2000"])
def test_an_absurd_factor_is_refused_without_printing_its_count(argv, capsys):
    # factors of 2^2000 to 2^20000 columns: a count of thousands of digits is
    # neither formed nor printed, so the refusal is one short line
    t0 = time.perf_counter()
    assert cli_main(argv) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("sizing:") and "Traceback" not in err
    assert len(err) < 200, err


def test_an_attack_is_sized_by_its_exponent(capsys):
    # 2^1000000000 key columns: the factor check sees the exponent c ell, never the count
    t0 = time.perf_counter()
    assert cli_main(["attack", "pru", "--c", "1", "--ell", "1000000000"]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("sizing: keyed state vectors materializes a 2^4000000000 x 2^1000000002 factor")


def test_choi_rate_runs_past_the_dense_size_limit(tmp_path, capsys):
    # 16 qubits: the closed form needs no dense reference state
    path = tmp_path / "rate.json"
    rc = cli_main(["lemma", "twirl-choi-rate", "--lambda", "4", "--out", str(path)])
    capsys.readouterr()
    assert rc == 0
    row = json.loads(path.read_text())["results"][0]
    assert row["pass"] and row["ratio"] <= 4


def test_attack_subcommand_reports_hybrid_line(capsys):
    rc = cli_main(["attack", "pru", "--lambda", "2", "--c", "0", "--seed", "11"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "attack-pru" in out and "advantage=" in out and "hybrid=" in out


def test_config_file_defaults_and_flag_precedence(tmp_path, capsys):
    cfgfile = tmp_path / "defaults.json"
    cfgfile.write_text(json.dumps({"trials": 6, "seed": 3, "params": {"d": 4}}))
    out_path = tmp_path / "run.json"
    rc = cli_main([
        "lemma", "holder-product", "--config", str(cfgfile),
        "--trials", "4", "--out", str(out_path),
    ])
    capsys.readouterr()
    assert rc == 0
    echoed = json.loads(out_path.read_text())["config"]
    assert echoed["trials"] == 4  # flag beats file
    assert echoed["seed"] == 3  # file beats default
    assert echoed["extra"] == {"d": 4}


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfgfile = tmp_path / "bad.json"
    cfgfile.write_text(json.dumps({"volume": 11}))
    assert cli_main(["lemma", "holder-product", "--config", str(cfgfile)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "123",
    '[["a"]]',
    '{"params": [1, 2]}',
    '{"sweep": 5}',
    '{"sweep": ["lam"]}',
    '{"sweep": ["lam", 5]}',
    '{"out": 5}',
], ids=["number", "list", "params-list", "sweep-number", "sweep-short", "sweep-values-number", "out-number"])
def test_malformed_config_files_exit_2(text, tmp_path, capsys, monkeypatch):
    def not_called(cfg):
        raise AssertionError("experiment ran from a malformed config file")

    monkeypatch.setattr(harness, "run_experiment", not_called)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(text)
    assert cli_main(["lemma", "holder-product", "--config", str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_missing_report_directory_exits_2_before_running(tmp_path, capsys, monkeypatch):
    def not_called(cfg):
        raise AssertionError("experiment ran despite an unwritable report path")

    monkeypatch.setattr(harness, "run_experiment", not_called)
    out = tmp_path / "missing" / "r.json"
    assert cli_main(["lemma", "hri-trace", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.parent.exists()


def test_a_directory_as_report_path_exits_2_before_running(tmp_path, capsys, monkeypatch):
    def not_called(cfg):
        raise AssertionError("experiment ran although its report path is a directory")

    monkeypatch.setattr(harness, "run_experiment", not_called)
    assert cli_main(["lemma", "hri-trace", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: report path") and "is a directory" in err


def test_a_report_that_cannot_be_written_exits_2(tmp_path, capsys, monkeypatch):
    # the report path turns into a directory while the experiment runs, so the
    # final rename fails; the rows are printed, the partial file is removed
    out = tmp_path / "r.json"
    run = harness.run_experiment

    def run_then_block(cfg):
        report = run(cfg)
        out.mkdir()
        (out / "kept").write_text("")
        return report

    monkeypatch.setattr(harness, "run_experiment", run_then_block)
    assert cli_main(["lemma", "hri-trace", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "hri-trace" in captured.out and "report written" not in captured.out
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]


def test_reports_take_the_mode_open_would_give(tmp_path, capsys):
    # a new report and its sweep companion follow the umask; a rewritten report keeps its mode
    path = tmp_path / "rep.json"
    argv = ["lemma", "hri-trace", "--sweep", "n=1,2", "--out", str(path)]
    old = os.umask(0o022)
    try:
        assert cli_main(argv) == 0
        modes = [stat.S_IMODE(p.stat().st_mode) for p in (path, tmp_path / "rep.sweep.csv")]
        path.chmod(0o600)
        assert cli_main(argv) == 0
    finally:
        os.umask(old)
    capsys.readouterr()
    assert modes == [0o644, 0o644]
    assert stat.S_IMODE(path.stat().st_mode) == 0o600


def test_config_format_without_report_path_exits_2(tmp_path, capsys, monkeypatch):
    def not_called(cfg):
        raise AssertionError("experiment ran with a format but no report path")

    monkeypatch.setattr(harness, "run_experiment", not_called)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"format": "csv"}))
    assert cli_main(["lemma", "hri-trace", "--config", str(cfgfile)]) == 2
    assert "--out" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert cli_main(["lemma", "holder-product", "--config", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()


def test_game_csv_report(tmp_path, capsys):
    path = tmp_path / "game.csv"
    rc = cli_main(["prfsg-game", "--trials", "25", "--out", str(path), "--format", "csv"])
    capsys.readouterr()
    assert rc == 0
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3 and lines[0].startswith("id,")


def test_sweep_flag_writes_companion(tmp_path, capsys):
    path = tmp_path / "mc.json"
    rc = cli_main([
        "lemma", "state-moment-mc", "--sweep", "samples=1000,4000", "--out", str(path),
    ])
    capsys.readouterr()
    assert rc == 0
    lines = (tmp_path / "mc.sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "samples,value" and len(lines) == 3


@pytest.mark.parametrize("argv,field,swept", [
    (["attack", "pru", "--sweep", "tomo=exact,sampled"], "tomography_mode",
     lambda results: [r["tomography_mode"] for r in results]),
    (["prfsg-game", "--trials", "20", "--sweep", "lambda=1,2"], "lam",
     lambda results: [r["params"]["lam"] for r in results[::2]]),
], ids=["tomo", "lambda"])
def test_sweep_takes_the_flag_names(tmp_path, capsys, argv, field, swept):
    path = tmp_path / "r.json"
    rc = cli_main(argv + ["--out", str(path)])
    capsys.readouterr()
    assert rc == 0
    report = json.loads(path.read_text())
    field_name, values = report["config"]["sweep"]
    assert field_name == field
    assert swept(report["results"]) == values
    lines = (tmp_path / "r.sweep.csv").read_text().strip().splitlines()
    assert lines[0] == f"{field},value"


def test_repeated_calls_share_one_parser_and_no_state(tmp_path, capsys):
    # the parser is built once per process; nothing one call parses reaches the next
    assert build_parser() is build_parser()
    path = tmp_path / "r.json"
    argv = ["lemma", "permutation-twirl-rate", "--seed", "4", "--out", str(path)]

    def read():
        report = harness.strip_timing(harness.report_from_dict(json.loads(path.read_text())))
        return json.dumps(harness.report_to_dict(report), sort_keys=True)

    def run(*extra):
        assert cli_main(argv + list(extra)) == 0
        return read()

    assert json.loads(run("--param", "n=3"))["config"]["extra"] == {"n": 3}
    first = run()
    assert json.loads(first)["config"]["extra"] == {}
    assert cli_main(["lemma", "no-such-check"]) == 2
    assert cli_main(["lemma", "permutation-twirl-rate", "--trials", "x"]) == 2
    again = run()
    capsys.readouterr()
    proc = subprocess.run(
        [sys.executable, "-m", "oraclebench.cli", *argv], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    fresh = read()
    assert first == again == fresh


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "oraclebench.cli", "lemma", "choi-shrinkage"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "choi-shrinkage" in proc.stdout


def _scipy_modules_after(code: str) -> list:
    report = "; import json, sys; print(json.dumps([m for m in sys.modules if m.startswith('scipy')]))"
    proc = subprocess.run([sys.executable, "-c", code + report], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_import_leaves_scipy_fft_unloaded():
    # the library computes with numpy and the standard library alone; importing
    # scipy's subpackages would double the start-up of every run
    assert _scipy_modules_after("import oraclebench.cli") == []


@pytest.mark.parametrize("argv", [
    ["suite", "fast"],
    ["attack", "pru", "--c", "1", "--backend", "poly", "--tomo", "sampled"],
])
def test_runs_leave_scipy_linalg_and_special_unloaded(argv):
    # a whole run, its report included, loads no scipy module at all
    assert _scipy_modules_after(f"from oraclebench.cli import cli_main; assert cli_main({argv!r}) == 0") == []


def test_suite_fast_all_green(capsys):
    rc = cli_main(["suite", "fast", "--seed", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "23/23 passed" in out
    # every registered check appears exactly once
    for cid in ("gentle-measurement", "prfsg-tail", "kernel-leakage"):
        assert out.count(f"{cid} ") == 1
    assert out.count("attack-") == 3
