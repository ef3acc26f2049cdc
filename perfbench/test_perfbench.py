"""Tests of the benchmark itself: the gate's negative controls and the
repeatability of traced counts."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402
from vortexmf import cli  # noqa: E402


def _summary(argv: list[str], out: Path) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv + ["--out", str(out)])
    return json.loads((out / "summary.json").read_text(encoding="utf-8"))


SIGNED2_64 = ["minimize", "--atoms=-1:0.5,1:0.5", "--fractions", "0.9", "--grid-n", "64"]


def test_verify_negative_control_counts_as_failed(tmp_path):
    bad = gate.check_verify(_summary(["verify", "--debug-bubble-scale", "2"], tmp_path / "bad"))
    good = gate.check_verify(_summary(["verify"], tmp_path / "good"))
    assert (bad.attempted, bad.failed, bad.wrong) == (1, 1, 1)
    assert (good.attempted, good.failed, good.wrong) == (1, 0, 0)


def test_wrong_reference_energy_counts_as_failed(tmp_path):
    summary = _summary(SIGNED2_64, tmp_path)
    right = gate.check_stages(summary, [run.J_SIGNED2_090])
    wrong = gate.check_stages(summary, [run.J_SIGNED2_090 * (1.0 + 1e-6)])
    assert (right.attempted, right.failed, right.wrong) == (1, 0, 0)
    assert (wrong.attempted, wrong.failed, wrong.wrong) == (1, 1, 1)


def test_known_stall_fails_without_being_wrong():
    summary = {"stages": [{"J": -8.86, "residual_norm": 1.1e-4}]}
    v = gate.check_stages(summary, [None])
    assert (v.attempted, v.failed, v.wrong) == (1, 1, 0)


def test_new_stall_or_missing_stage_is_wrong():
    summary = {"stages": [{"J": -2.0, "residual_norm": 1.1e-4}]}
    v = gate.check_stages(summary, [run.J_SIGNED2_090, run.J_SIGNED2_100])
    assert (v.attempted, v.failed, v.wrong) == (2, 2, 2)


def test_other_critical_point_after_known_stall_fails_without_being_wrong():
    # sweep64-near-bar at seed 1020618426: warm-started from the stalled
    # 0.99 stage, the 1.0 stage converges to another critical point
    stall = {"J": -8.8656, "residual_norm": 7.8e-5}
    other = {"J": -21.731132009796625, "residual_norm": 6.0e-10}
    v = gate.check_stages({"stages": [stall, other]}, [None, run.J_SIGNED2_100])
    assert (v.attempted, v.failed, v.wrong) == (2, 2, 0)
    # after a converged stage the same J is a wrong output
    converged = dict(stall, residual_norm=1e-9)
    v = gate.check_stages({"stages": [converged, other]}, [None, run.J_SIGNED2_100])
    assert (v.attempted, v.failed, v.wrong) == (2, 1, 1)
    # and it must still converge
    stalled = dict(other, residual_norm=1e-6)
    v = gate.check_stages({"stages": [stall, stalled]}, [None, run.J_SIGNED2_100])
    assert (v.attempted, v.failed, v.wrong) == (2, 2, 1)


def test_missing_summary_is_wrong():
    v = gate.check_stages(None, [run.J_SIGNED2_080, run.J_SIGNED2_090, None])
    assert (v.attempted, v.failed, v.wrong) == (3, 3, 3)


def test_traced_counts_repeat_exactly(tmp_path):
    argv = ["minimize", "--atoms=-1:0.5,1:0.5", "--fractions", "0.9", "--grid-n", "32"]
    wl = run.Workload("signed2-32", tuple(argv), (run.J_SIGNED2_090,))
    tracer = Tracer()
    cmds = []
    for _ in range(2):
        with tracer.installed():
            cmds.append(run.run_command(wl, argv + ["--out", str(tmp_path)], tmp_path, tracer))
    layers = [run.per_layer(tracer, c, solver=True) for c in cmds]
    for key in run.REPEATED_COUNTS:
        assert layers[0][key] == layers[1][key], key
    assert layers[0]["torus.fft.count"] > 0
    assert layers[0]["minimize.line_search.trials"] >= layers[0]["minimize.iterations"] > 0
    assert cmds[0].digest == cmds[1].digest
    # every wrapper is removed again
    import numpy

    assert isinstance(numpy.exp, numpy.ufunc)
    assert cli.main.__module__ == "vortexmf.cli" and not hasattr(cli.main, "__wrapped__")
