"""Checks, experiment configs, reports, and their serialization."""
import dataclasses
import inspect
import json
import math
import threading

import pytest

from dense_reference import asdict_report_dict, expi_unguarded, pooled_checks
from oraclebench import cli, harness, subroutines
from oraclebench.budget import SizingError
from oraclebench.harness import (
    CHECKS,
    ExperimentConfig,
    emit_report,
    lemma_check,
    report_from_dict,
    report_to_dict,
    run_experiment,
    strip_timing,
)
from oraclebench.seeds import SeedPath

SEED = SeedPath(505)

# light trial counts so the whole registry runs in seconds
LIGHT = {
    "gentle-measurement": {"trials": 10},
    "holder-product": {"trials": 12},
    "two-query-lipschitz": {"trials": 20},
    "conjugation-lipschitz": {"trials": 20},
    "family-lipschitz": {"trials": 10},
    "state-moment-mc": {"samples": 4000},
    "omega-transpose": {"trials": 10},
    "swap-call-closeness": {"trials": 2},
    "hri-call-closeness": {"trials": 2},
    "sv-tail-mass": {"trials": 2},
    "kernel-leakage": {"trials": 2},
    "haar-concentration": {"trials": 50},
    "prfsg-mean-advantage": {"trials": 30},
    "prfsg-tail": {"trials": 30},
}


# ------------------------------------------------------------------- checks


def test_every_registered_check_passes():
    for cid in CHECKS:
        res = lemma_check(cid, LIGHT.get(cid, {}), SEED.child(cid))
        assert res.lemma_id == cid
        assert res.passed, f"{cid}: ratio {res.ratio} vs {res.calibration}"
        assert res.ratio == pytest.approx(res.lhs / res.bound)
        assert res.runtime_ms >= 0
        assert res.seed.startswith("505/")


def test_unknown_check_id_and_unknown_param_fault():
    with pytest.raises(ValueError, match="unknown check"):
        lemma_check("no-such-check")
    with pytest.raises(ValueError, match="unknown parameters"):
        lemma_check("choi-shrinkage", {"bogus": 3})


def test_non_integral_and_empty_count_params_fault():
    for d in (6.7, "4", True):
        with pytest.raises(ValueError, match="must be an integer"):
            lemma_check("holder-product", {"d": d})
    for delta in ("0.3", float("nan")):
        with pytest.raises(ValueError, match="must be a finite number"):
            lemma_check("haar-concentration", {"delta": delta})
    for cid, key in (("gentle-measurement", "trials"), ("state-moment-mc", "samples")):
        with pytest.raises(ValueError, match="at least 1"):
            lemma_check(cid, {key: 0})
    # an integral float is still accepted and reported as an int
    assert lemma_check("holder-product", {"d": 4.0, "trials": 3}).params["d"] == 4


def test_check_is_deterministic_under_its_seed():
    a = lemma_check("holder-product", {"trials": 6}, SEED.child("det"))
    b = lemma_check("holder-product", {"trials": 6}, SEED.child("det"))
    c = lemma_check("holder-product", {"trials": 6}, SEED.child("det", 1))
    assert a.lhs == b.lhs
    assert a.lhs != c.lhs


def test_rate_checks_hit_their_exact_values():
    # instance-free quantities; the rationals come from the pair expansion
    u = lemma_check("twirl-choi-rate")
    assert u.lhs == pytest.approx(15 / 136, abs=1e-12)
    iso = lemma_check("isometry-choi-rate")
    assert iso.lhs == pytest.approx(1 / 12, abs=1e-12)
    for n in (2, 3):
        p = lemma_check("permutation-twirl-rate", {"n": n}, SEED.child("pr", n))
        assert p.lhs == pytest.approx(2.0 ** -(n + 1), abs=1e-10)


def test_gentle_check_sits_exactly_at_its_bound():
    res = lemma_check("gentle-measurement", {"trials": 8}, SEED.child("gm"))
    assert res.lhs == pytest.approx(1.0, abs=1e-9)
    assert res.passed


def test_mc_moment_bound_follows_the_root_law():
    res = lemma_check("state-moment-mc", {"samples": 2000}, SEED.child("mc"))
    assert res.bound == pytest.approx(0.02 * math.sqrt(50))


def test_call_closeness_premises_fault():
    with pytest.raises(ValueError, match="exceeds width"):
        lemma_check("swap-call-closeness", {"lam": 1, "c": 1, "n": 2, "trials": 1})
    with pytest.raises(ValueError, match="exceeds width"):
        lemma_check("hri-call-closeness", {"lam": 1, "c": 0, "n": 1, "trials": 1})


def test_oversized_check_hits_the_budget():
    with pytest.raises(SizingError):
        lemma_check("choi-shrinkage", {"n": 9})


# ------------------------------------------------------------------- configs


def test_config_validation_and_normalization():
    cfg = ExperimentConfig(kind="lemma", lemma_ids=["holder-product"], sweep=("d", [4, 6]))
    assert cfg.lemma_ids == ("holder-product",)
    assert cfg.sweep == ("d", (4, 6))
    # integral floats are typed once, in the fields and in the swept values
    cfg = ExperimentConfig(kind="lemma", lemma_ids=("twirl-choi-rate",), lam=3.0, sweep=("seed", [1.0, 2]))
    assert type(cfg.lam) is int and cfg.lam == 3
    assert cfg.sweep == ("seed", (1, 2)) and all(type(v) is int for v in cfg.sweep[1])
    # the seed always holds a value, so a set seed may still be swept
    assert ExperimentConfig(kind="attack-pru", seed=3, sweep=("seed", [1, 2])).seed == 3
    for bad in (
        {"kind": "bogus"},
        {"fmt": "yaml"},
        {"backend": "quantum"},
        {"backend": "polynomial"},
        {"tomography_mode": "psychic"},
        {"sweep": ("d", [])},
        {"kind": "suite-fast", "lam": 2},
        {"kind": "suite-fast", "extra": {"trials": 3}},
        {"kind": "attack-pru", "s": 1},
        {"kind": "attack-pru", "sweep": ("trials", [1, 2])},
        {"kind": "lemma", "backend": "poly"},
        {"lam": 2.5},
        {"seed": 1.5},
        {"trials": "3"},
        {"ell": True},
        {"sweep": ("lam", [2, 2.5])},
        {"kind": "attack-pru", "sweep": ("backend", ["ideal", "fancy"])},
        {"lemma_ids": ("no-such-check",)},
        # every run resolves before the first starts, swept values included
        {"lemma_ids": ("holder-product",), "sweep": ("d", [4, 0])},
        {"kind": "attack-pru", "sweep": ("keys", [2, 0])},
        {"kind": "attack-pru", "sweep": ("p", [20, 1])},
        {"kind": "attack-pri-vs-hri", "extra": {"a": 0.5}},
        # a value given twice
        {"lemma_ids": ("twirl-choi-rate",), "lam": 3, "extra": {"lam": 4}},
        {"lemma_ids": ("holder-product",), "extra": {"d": 4}, "sweep": ("d", [6])},
        {"kind": "attack-pru", "p": 10, "sweep": ("p", [20, 30])},
    ):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)


def test_config_roundtrip():
    cfg = ExperimentConfig(
        kind="attack-pru", lam=2, c=1, seed=9, fmt="csv",
        sweep=("p", (10, 20)), extra={"keys": 2},
    )
    assert ExperimentConfig.from_dict(cfg.as_dict()) == cfg


# --------------------------------------------------------------- experiments


def test_a_lemma_run_with_no_check_is_refused():
    # it would report a vacuous "0/0 passed"; a config file's dict is held to the same
    with pytest.raises(ValueError, match="at least one check id"):
        ExperimentConfig(kind="lemma", lemma_ids=())
    written = ExperimentConfig(kind="lemma", lemma_ids=("holder-product",)).as_dict()
    with pytest.raises(ValueError, match="at least one check id"):
        ExperimentConfig.from_dict(written | {"lemma_ids": []})


def test_lemma_run_forwards_config_fields_into_params():
    cfg = ExperimentConfig(kind="lemma", lemma_ids=("support-overlap",), lam=1, ell=2)
    report = run_experiment(cfg)
    (res,) = report.results
    assert res.params["lam"] == 1 and res.params["ell"] == 2
    assert res.passed
    assert report.versions["schema"] == 1


def test_prfsg_game_run_produces_both_rows():
    cfg = ExperimentConfig(kind="prfsg-game", trials=25, seed=3)
    report = run_experiment(cfg)
    assert [r.lemma_id for r in report.results] == ["prfsg-mean-advantage", "prfsg-tail"]
    assert all(r.params["trials"] == 25 and r.passed for r in report.results)


def test_attack_run_emits_one_passing_report():
    cfg = ExperimentConfig(kind="attack-pru", lam=1, seed=4)
    report = run_experiment(cfg)
    (res,) = report.results
    assert res.kind == "pru" and res.t_queries == 0
    assert harness.result_passed(res)
    # two keys in a four dimensional choi space: haar baseline is one half
    assert res.advantage == pytest.approx(0.5, abs=1e-9)


def test_checks_run_on_the_calling_thread(monkeypatch):
    threads, active = set(), []
    check = harness.lemma_check

    def spy(*args):
        threads.add(threading.get_ident())
        active.append(threading.active_count())
        return check(*args)

    monkeypatch.setattr(harness, "lemma_check", spy)
    before = threading.active_count()
    run_experiment(ExperimentConfig(kind="suite-fast"))
    run_experiment(ExperimentConfig(kind="lemma", lemma_ids=("holder-product", "omega-transpose")))
    assert threads == {threading.get_ident()}
    assert len(active) == len(CHECKS) + 2
    assert max(active) == before


def test_a_suite_derives_its_trial_generators_in_batches(monkeypatch):
    # the Monte Carlo checks draw through seeds.generators and seeds.normals; what is
    # left on SeedPath.rng is the single draws: fixed unitaries, toy circuits, oracles
    calls = []
    rng = SeedPath.rng

    def counted(self):
        calls.append(self)
        return rng(self)

    monkeypatch.setattr(SeedPath, "rng", counted)
    run_experiment(ExperimentConfig(kind="suite-fast"))
    assert 0 < len(calls) <= 60


def test_a_suite_resolves_every_run_when_it_is_built(monkeypatch):
    # a profile whose check parameters do not resolve is refused by the config itself,
    # before any check runs
    def not_run(*_):
        raise AssertionError("a suite check ran although the suite does not resolve")

    monkeypatch.setattr(harness, "lemma_check", not_run)
    monkeypatch.setattr(harness, "_run_attack", not_run)
    monkeypatch.setitem(harness._SUITE_OVERRIDES, "fast", {"holder-product": {"d": 0}})
    with pytest.raises(ValueError, match="parameter d must be at least 2"):
        ExperimentConfig(kind="suite-fast")


def test_a_suite_lists_and_sizes_its_runs_once(monkeypatch):
    # building and running `suite fast` lists the runs of the suite and of its three
    # pinned attacks once each, resolves each attack's toy once, and sizes each attack
    # twice (listed, then inside adversary), the support-overlap check twice
    listed, toys, sized = [], [], []
    runs, toy, check_size = harness._runs, ExperimentConfig.toy.func, harness.adversary.check_attack_size
    monkeypatch.setattr(harness, "_runs", lambda cfg: listed.append(cfg.kind) or runs(cfg))
    monkeypatch.setattr(ExperimentConfig.toy, "func", lambda cfg: toys.append(cfg.kind) or toy(cfg))
    monkeypatch.setattr(harness.adversary, "check_attack_size", lambda *a: sized.append(a) or check_size(*a))
    report = run_experiment(ExperimentConfig(kind="suite-fast"))
    attacks = [kind for kind, _ in harness._SUITE_ATTACKS["fast"]]
    assert len(report.results) == len(CHECKS) + len(attacks)
    assert sorted(listed) == sorted(["suite-fast", *attacks])
    assert sorted(toys) == sorted(attacks)
    assert len(sized) <= 8


def test_runs_look_up_their_functions_when_they_start(monkeypatch):
    # a config lists its runs when it is built; what they call is looked up as each one
    # starts, so patching lemma_check or _run_attack after the build takes effect
    cfg = ExperimentConfig(kind="suite-fast", seed=3)
    monkeypatch.setattr(harness, "lemma_check", lambda cid, params, seed: ("check", cid, seed))
    monkeypatch.setattr(harness, "_run_attack", lambda kind, attack, root: ("attack", attack, root))
    results = run_experiment(cfg).results
    root = SeedPath(3)
    assert results[: len(CHECKS)] == tuple(("check", cid, root.child(cid)) for cid in CHECKS)
    assert results[len(CHECKS):] == tuple(
        ("attack", ExperimentConfig(kind=kind, seed=3, **tweaks), root.child(kind))
        for kind, tweaks in harness._SUITE_ATTACKS["fast"]
    )


def test_lemma_ids_outside_a_lemma_run_are_refused():
    with pytest.raises(ValueError, match="attack-pru does not read lemma_ids"):
        ExperimentConfig(kind="attack-pru", lemma_ids=("holder-product",))
    with pytest.raises(ValueError, match="lemma_ids"):
        ExperimentConfig(kind="suite-fast", lemma_ids=["holder-product"])
    assert ExperimentConfig(kind="attack-pru", lemma_ids=()).lemma_ids == ()


@pytest.mark.parametrize("seed", [0, 1])
def test_serial_suite_checks_equal_the_pooled_reference(monkeypatch, seed):
    rows = strip_timing(run_experiment(ExperimentConfig(kind="suite-fast", seed=seed))).results
    # the pool runs the exponential unguarded: the one-thread guard is
    # process-wide, so under the pool it would change a concurrent check's
    # BLAS rounding (choi-shrinkage's exact 0.0 becomes 5.6e-17)
    monkeypatch.setattr(subroutines, "expi", expi_unguarded)
    ref = pooled_checks(CHECKS, harness._SUITE_OVERRIDES["fast"], SeedPath(seed))
    got = [r.as_dict() for r in rows[: len(CHECKS)]]
    want = [dataclasses.replace(r, runtime_ms=0).as_dict() for r in ref]
    assert [r["lemma_id"] for r in got] == list(CHECKS)
    for g, w in zip(got, want):
        assert g == w, g["lemma_id"]


def test_suite_profiles_reference_known_checks_only():
    for profile in harness._SUITE_OVERRIDES.values():
        assert set(profile) <= set(CHECKS)
        for cid, params in profile.items():
            harness._take(params, **CHECKS[cid].__kwdefaults__)
    assert set(harness._SUITE_ATTACKS) == set(harness._SUITE_OVERRIDES) == {"fast", "all"}
    # a check's signature is its parameter list: the seed, then keywords with defaults
    for fn in CHECKS.values():
        seed, *rest = inspect.signature(fn).parameters.values()
        assert seed.name == "seed" and seed.kind is seed.POSITIONAL_OR_KEYWORD
        assert rest and all(p.kind is p.KEYWORD_ONLY and p.default is not p.empty for p in rest)


def test_sweep_runs_once_per_value_in_order():
    cfg = ExperimentConfig(
        kind="lemma", lemma_ids=("state-moment-mc",),
        sweep=("samples", (1000, 4000)), seed=2,
    )
    report = run_experiment(cfg)
    assert [r.params["samples"] for r in report.results] == [1000, 4000]
    assert report.results[0].bound > report.results[1].bound


# ------------------------------------------------------------------ reports


def _small_report(seed=0):
    cfg = ExperimentConfig(kind="prfsg-game", trials=20, seed=seed)
    return run_experiment(cfg)


def test_report_roundtrips_through_json():
    report = _small_report()
    blob = json.dumps(report_to_dict(report), sort_keys=True)
    assert report_from_dict(json.loads(blob)) == report


def test_attack_report_roundtrips_through_json():
    report = run_experiment(ExperimentConfig(kind="attack-pru", lam=1, seed=4))
    blob = json.dumps(report_to_dict(report), sort_keys=True)
    back = report_from_dict(json.loads(blob))
    assert back == report
    assert back.results[0].crossings == report.results[0].crossings


def test_strip_timing_makes_runs_byte_identical():
    a, b = _small_report(7), _small_report(7)
    da = json.dumps(report_to_dict(strip_timing(a)), sort_keys=True)
    db = json.dumps(report_to_dict(strip_timing(b)), sort_keys=True)
    assert da == db
    assert all(r.runtime_ms == 0 for r in strip_timing(a).results)
    assert strip_timing(a).total_runtime_ms == 0


def test_failing_row_fails_the_report_accounting():
    report = _small_report()
    bad = dataclasses.replace(report.results[0], passed=False)
    assert not harness.result_passed(bad)
    att = run_experiment(ExperimentConfig(kind="attack-pru", lam=1)).results[0]
    worse = dataclasses.replace(att, hybrid_distance=1.0, hybrid_bound=0.1)
    assert not harness.result_passed(worse)


def test_json_emission_is_valid_and_atomic(tmp_path):
    report = _small_report()
    path = tmp_path / "report.json"
    emit_report(report, str(path), "json")
    loaded = json.loads(path.read_text())
    assert loaded["config"]["kind"] == "prfsg-game"
    assert len(loaded["results"]) == 2
    assert not list(tmp_path.glob(".partial-*"))


def test_csv_emission_layout(tmp_path):
    report = _small_report()
    path = tmp_path / "report.csv"
    emit_report(report, str(path), "csv")
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3
    header = lines[0].split(",")
    assert header[0] == "id"
    assert header[-6:] == ["lhs", "bound", "ratio", "pass", "seed", "runtime_ms"]
    assert "param:lam" in header and "param:trials" in header
    assert lines[1].split(",")[0] == "prfsg-mean-advantage"
    assert all(line.split(",")[header.index("pass")] == "true" for line in lines[1:])


def test_sweep_emission_writes_companion(tmp_path):
    cfg = ExperimentConfig(
        kind="lemma", lemma_ids=("holder-product",),
        sweep=("trials", (4, 8)), out_path=None,
    )
    report = run_experiment(cfg)
    path = tmp_path / "sweep_run.json"
    emit_report(report, str(path), "json")
    companion = tmp_path / "sweep_run.sweep.csv"
    lines = companion.read_text().strip().splitlines()
    assert lines[0] == "trials,value"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["4", "8"]
    ys = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert ys == [r.ratio for r in report.results]


def test_attack_rows_in_csv_expose_the_hybrid_comparison(tmp_path):
    report = run_experiment(ExperimentConfig(kind="attack-pri", seed=6))
    path = tmp_path / "attack.csv"
    emit_report(report, str(path), "csv")
    header, row = path.read_text().strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["id"] == "attack-pri"
    assert cells["pass"] == "true"
    assert float(cells["lhs"]) <= float(cells["bound"])
    assert cells["param:backend"] == "ideal"


@pytest.mark.parametrize("argv", [
    ["suite", "fast"],
    ["attack", "pri-vs-hri", "--c", "1", "--backend", "poly", "--tomo", "sampled"],
    ["lemma", "holder-product", "--sweep", "d=2,4"],
])
def test_report_files_equal_the_asdict_route(argv, tmp_path):
    # report dicts built from the fields write the bytes dataclasses.asdict's copies wrote
    report = harness.run_experiment(cli._config_from_args(cli.build_parser().parse_args(argv)))
    want = json.dumps(asdict_report_dict(report), indent=2, sort_keys=True) + "\n"
    harness.emit_report(report, tmp_path / "r.json", "json")
    assert (tmp_path / "r.json").read_bytes() == want.encode()
    # the csv rows and sweep companion of the report the asdict json reads back as
    back = harness.report_from_dict(json.loads(want))
    harness.emit_report(report, tmp_path / "r.csv", "csv")
    assert (tmp_path / "r.csv").read_bytes() == harness._csv_text(back).encode()
    if report.config.sweep is not None:
        assert (tmp_path / "r.sweep.csv").read_bytes() == harness._sweep_text(back).encode()
