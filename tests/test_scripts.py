"""Each study script under scripts/ runs end to end on tiny arguments."""
import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(monkeypatch, capsys, name: str, *argv: str) -> list[str]:
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    mod.main()
    return capsys.readouterr().out.strip().splitlines()


def test_shrinkage_curve(monkeypatch, capsys):
    lines = _run(monkeypatch, capsys, "shrinkage_curve", "--max-n", "2")
    rows = [line.split() for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [1, 2]
    # both routes land on 2^((1-n)/2)
    assert all(float(r[4]) < 1e-9 for r in rows)


def test_tomography_calibration(monkeypatch, capsys):
    lines = _run(monkeypatch, capsys, "tomography_calibration", "--runs", "2", "--grid", "1.0")
    c_tom, shots, rate, median = lines[-1].split()
    assert float(c_tom) == 1.0 and int(shots) > 0
    assert 0.0 <= float(rate) <= 1.0 and float(median) >= 0.0
    # past dim 2 each output state batches several pair settings
    lines = _run(monkeypatch, capsys, "tomography_calibration",
                 "--dim", "8", "--runs", "2", "--grid", "1.0")
    assert lines[0].startswith("dim=8 ")
    c_tom, shots, rate, median = lines[-1].split()
    assert float(c_tom) == 1.0 and int(shots) > 0
    assert 0.0 <= float(rate) <= 1.0 and float(median) >= 0.0


@pytest.mark.parametrize("args,says", [(["--eps", "inf"], "eps=inf"), (["--grid", "1.0", "0"], "c_tom=0.0")])
def test_tomography_calibration_refuses_zero_shots(monkeypatch, capsys, args, says):
    with pytest.raises(SystemExit) as exit_:
        _run(monkeypatch, capsys, "tomography_calibration", "--runs", "2", *args)
    assert exit_.value.code == 2
    out = capsys.readouterr()
    assert says in out.err and not out.out


@pytest.mark.parametrize("lam", ["1", "3", "4"])
def test_attack_summary(monkeypatch, capsys, lam):
    lines = _run(monkeypatch, capsys, "attack_summary", "--lambda", lam)
    rows = [line.split() for line in lines[1:-1]]
    assert [r[0] for r in rows] == ["pru", "pri", "hri"]
    # every attack stays within its hybrid bound
    assert all(float(r[5]) <= float(r[6]) for r in rows)
    # the default toys call only n = 1 blocks, below every cutoff, so nothing is deleted
    assert lines[0].split()[-1] == "deleted" and [r[8] for r in rows] == ["0"] * 3
    assert lines[-1].startswith("total ")


def test_twirl_rate_curve(monkeypatch, capsys):
    lines = _run(monkeypatch, capsys, "twirl_rate_curve", "--max-lambda", "3")
    rows = [line.split() for line in lines[1:]]
    assert [(r[0], int(r[1])) for r in rows] == [
        ("unitary", 4), ("isometry", 4), ("unitary", 8), ("isometry", 8)
    ]
    # exact anchors 15/136 and 1/12; every ratio sits below its 1/8 limit
    assert float(rows[0][2]) == pytest.approx(15 / 136, rel=1e-8)
    assert float(rows[1][2]) == pytest.approx(1 / 12, rel=1e-8)
    assert all(0 < float(r[3]) < 1 / 8 for r in rows)
