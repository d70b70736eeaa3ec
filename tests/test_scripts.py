"""The experiment scripts run end to end on tiny inputs."""

import pathlib
import runpy
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, capsys, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out.splitlines()


def test_run_stability(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "run_stability.py",
                       "--seeds", "2", "--n-assets", "6", "--n-obs", "24")
    assert lines[0].split() == ["method", "wins", "out_err", "truth_err", "real_var"]
    rows = [line.split() for line in lines[1:]]
    assert [row[0] for row in rows] == [
        "scm+ridge(q=0.01)",
        "shrink(q=0.5,diagonal)",
        "shrink(q=0.5,constant_correlation)",
        "truncated_pc(f_hat=1,diagonal)",
    ]
    assert sum(int(row[1]) for row in rows) == 2


def test_run_baiyin(monkeypatch, capsys):
    lines = run_script(monkeypatch, capsys, "run_baiyin.py",
                       "--n", "8", "--trials", "1", "--ratios", "0.5")
    assert lines[0].split() == ["y", "min_limit", "min_obs", "max_limit", "max_obs"]
    assert len(lines) == 2
    assert float(lines[1].split()[0]) == 0.5
