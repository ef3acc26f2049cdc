"""Smoke tests of the experiment scripts, run through their command lines."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCAN = Path(__file__).resolve().parent.parent / "scripts" / "extremal_scan.py"


def run_scan(monkeypatch, *args) -> int:
    # the script puts src on sys.path when it loads; undo that afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("extremal_scan", SCAN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [str(SCAN), *args])
    try:
        return module.main()
    except SystemExit as exc:
        return exc.code


def test_extremal_scan_writes_one_row_per_grid_point(tmp_path, monkeypatch, capsys):
    assert run_scan(monkeypatch, "--a-steps", "3", "--t-steps", "3", "--out", str(tmp_path)) == 0
    rows = (tmp_path / "two_atom_scan.csv").read_text().splitlines()
    assert rows[0] == "a,t,lambda_bar,subset_size,side,residual_vanishing,full_support"
    assert len(rows) == 1 + 9
    assert "a = 0.050: t* = never" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--a-steps", "--t-steps"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_extremal_scan_rejects_step_counts_below_one(tmp_path, monkeypatch, capsys, flag, value):
    out = tmp_path / "scan"
    assert run_scan(monkeypatch, flag, value, "--out", str(out)) == 2
    assert f"argument {flag}: must be >= 1, got {value}" in capsys.readouterr().err
    assert not out.exists()
