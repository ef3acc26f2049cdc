"""Command line interface: subcommands, settings flags, artifacts, exit codes."""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vortexmf.cli
import vortexmf.minimize
from vortexmf.blowup import default_fit_window, fit_li_line, rescale_profile
from vortexmf.cli import build_parser, main
from vortexmf.functional import spike_grid
from vortexmf.measure import parse_atoms_inline
from vortexmf.torus import SpectralTorus

EIGHT_PI = 8.0 * math.pi


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_summary(out_dir):
    with open(os.path.join(out_dir, "summary.json")) as fh:
        return json.load(fh)


def test_lambda_bar_json_round_trip(tmp_path, capsys):
    out = str(tmp_path / "runs")
    code, stdout, _ = run(capsys, "lambda-bar", "--atoms", "0.5:0.5,1:0.5", "--out", out)
    assert code == 0
    payload = read_summary(out)
    assert payload["lambda_bar"] == 128.0 * math.pi / 9.0
    assert payload["side"] == "positive"
    assert payload["subset"] == [0, 1]
    assert payload["subset_atoms"] == [[0.5, 0.5], [1.0, 0.5]]
    assert payload["moment1"] == 0.75
    assert payload["full_support"] is True
    assert stdout == (
        f"lambda_bar = {payload['lambda_bar']!r}\nside = positive\nsubset = [0, 1]\n"
        "moment1 = 0.75\nfull_support = true\n"
    )


def test_lambda_bar_from_measure_file(tmp_path, capsys):
    mfile = tmp_path / "measure.txt"
    mfile.write_text("# circulations\n1.0 1.0\n")
    out = str(tmp_path / "runs")
    code, _, _ = run(capsys, "lambda-bar", "--measure", str(mfile), "--out", out)
    assert code == 0
    assert read_summary(out)["lambda_bar"] == pytest.approx(EIGHT_PI, rel=1e-15)


def test_malformed_measure_file_reports_line(tmp_path, capsys):
    mfile = tmp_path / "bad.txt"
    mfile.write_text("not numbers\n")
    code, _, stderr = run(capsys, "lambda-bar", "--measure", str(mfile))
    assert code == 2
    assert "line 1" in stderr


def test_measure_and_atoms_conflict(tmp_path, capsys):
    mfile = tmp_path / "m.txt"
    mfile.write_text("1.0 1.0\n")
    code, _, stderr = run(
        capsys, "lambda-bar", "--measure", str(mfile), "--atoms", "1:1"
    )
    assert code == 2
    assert "both" in stderr


def test_missing_measure_is_an_input_error(capsys):
    code, _, stderr = run(capsys, "lambda-bar")
    assert code == 2
    assert "no measure" in stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (("lambda-bar", "--measure", "", "--atoms", "1:1"), "both a measure file and inline atoms"),
        (("lambda-bar", "--measure", ""), "No such file or directory: ''"),
        (("lambda-bar", "--atoms", ""), "at least one atom"),
    ],
    ids=["measure-and-atoms", "measure", "atoms"],
)
def test_an_empty_value_counts_as_given(tmp_path, capsys, argv, message):
    out = tmp_path / "runs"
    code, stdout, stderr = run(capsys, *argv, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: ") and stderr.count("\n") == 1 and message in stderr
    assert not out.exists()


@pytest.mark.parametrize("atoms", ["1:1,", ",1:1", "1:1,,"], ids=["trailing", "leading", "double-trailing"])
def test_an_empty_atom_entry_is_an_input_error(tmp_path, capsys, atoms):
    # as an empty entry of --lambdas is: neither list skips a malformed value
    out = tmp_path / "runs"
    code, stdout, stderr = run(capsys, "lambda-bar", "--atoms", atoms, "--out", str(out))
    assert (code, stdout, stderr) == (2, "", "error: empty entry in atom list\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("scan", "--atoms", "1:1,", "empty entry in atom list"),
        ("verify", "--atoms", "x", "bad atom 'x'"),
        ("scan", "--measure", "missing.txt", "No such file or directory"),
    ],
    ids=["scan-atoms", "verify-atoms", "scan-measure"],
)
def test_a_bad_measure_is_an_input_error_on_a_command_that_reads_none(tmp_path, capsys, command, flag, value, message):
    # scan and verify read no measure, but a given one is still parsed first
    if flag == "--measure":
        value = str(tmp_path / value)
    out = tmp_path / "runs"
    code, stdout, stderr = run(capsys, command, flag, value, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: ") and stderr.count("\n") == 1 and message in stderr
    assert not out.exists()


def test_every_summary_records_its_schema_and_library_versions(tmp_path, capsys):
    # the transform and quadrature bits depend on numpy, its BLAS library
    # and that library's thread count, so a rerun can only be checked byte
    # for byte against a record of the same versions
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = vortexmf.cli._blas_thread_count()
    versions = {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": None if threads is None else threads(),
    }
    keys = {
        "lambda-bar": (
            ["--atoms", "1:1"],
            {"lambda_bar", "side", "subset", "subset_atoms", "moment1", "alpha_min",
             "residual_vanishing_form", "full_support"},
        ),
        "minimize": (
            ["--atoms", "1:1", "--lambdas", "12.0", "--grid-n", "32"],
            {"lambda_bar", "stages", "requested_stages"},
        ),
        "scan": ([], {"grid", "t_star", "full_support_above_half"}),
        "verify": ([], {"checks", "all_passed"}),
    }
    for command, (args, own) in keys.items():
        out = str(tmp_path / command)
        code, _, _ = run(capsys, command, *args, "--out", out)
        assert code == 0, command
        summary = read_summary(out)
        assert set(summary) == {"schema_version", "versions", "command", "seed"} | own, command
        assert (summary["schema_version"], summary["versions"]) == (6, versions), command


def test_the_record_holds_the_blas_thread_count_and_reruns_byte_for_byte(tmp_path, capsys, monkeypatch):
    # a positive count read from numpy's bundled OpenBLAS, or null where no
    # library exports it; either way two reruns write the same bytes
    for name, patch in (("bundled", False), ("unknown", True)):
        if patch:
            monkeypatch.setattr(vortexmf.cli, "_blas_thread_count", lambda: None)
        outs = [tmp_path / f"{name}-{k}" for k in "ab"]
        for out in outs:
            code, _, _ = run(capsys, "minimize", "--atoms", "1:1", "--lambdas", "12.0", "--grid-n", "32", "--out", str(out))
            assert code == 0
        threads = read_summary(str(outs[0]))["versions"]["blas_threads"]
        if patch:
            assert threads is None
        else:
            assert threads is None or (type(threads) is int and threads > 0)
        assert (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()


def test_minimize_writes_artifacts(tmp_path, capsys):
    out = str(tmp_path / "runs")
    code, _, _ = run(
        capsys, "minimize", "--atoms", "1:1", "--lambdas", "12.0", "--grid-n", "32", "--out", out
    )
    assert code == 0
    assert sorted(os.listdir(out)) == ["summary.json", "trace_0.csv"]
    payload = read_summary(out)
    assert payload["seed"] == 0 and len(payload["stages"]) == 1
    stage = payload["stages"][0]
    assert set(stage) == {
        "lambda", "J", "residual_norm", "iterations", "rejected", "hessian_products", "status",
        "peak_point", "peak_value", "concentration", "profile", "levels",
    }
    assert payload["lambda_bar"] == EIGHT_PI
    assert stage["lambda"] == 12.0
    assert stage["residual_norm"] <= 1e-8
    assert stage["status"] == "converged" and "blown_up" not in stage
    assert (stage["iterations"], stage["rejected"], stage["hessian_products"]) == (4, 0, 10)
    # a 32^2 grid is the coarsest, so the stage solved one level
    (level,) = stage["levels"]
    assert set(level) == {"grid_n", "status", "iterations", "rejected", "hessian_products", "J", "decay_ratio"}
    assert (level["grid_n"], level["status"], level["J"]) == (32, "converged", stage["J"])
    assert (level["iterations"], level["rejected"], level["hessian_products"]) == (4, 0, 10)
    assert "newton_steps" not in stage
    assert stage["concentration"] is None


def test_trace_file_layout(tmp_path, capsys):
    out = tmp_path / "runs"
    code, _, _ = run(
        capsys, "minimize", "--atoms", "1:1", "--fractions", "0.5", "--grid-n", "32", "--seed", "5",
        "--out", str(out),
    )
    assert code == 0
    stage = read_summary(out)["stages"][0]
    lines = (out / "trace_0.csv").read_text().splitlines()
    assert lines[0] == "# seed=5"
    assert lines[1] == "iter,J,residual_norm,step,max_v"
    rows = [line.split(",") for line in lines[2:]]
    assert [int(r[0]) for r in rows] == list(range(stage["iterations"] + 1))
    j_col = [float(r[1]) for r in rows]
    assert all(b <= a for a, b in zip(j_col, j_col[1:]))
    assert (j_col[-1], float(rows[-1][4])) == (stage["J"], stage["peak_value"])
    assert float(rows[0][3]) == 0.0


def test_non_positive_or_infinite_fraction_rejected(capsys):
    for fraction in ("0", "-0.5", "inf"):
        code, _, stderr = run(
            capsys, "sweep", "--atoms", "1:1", "--fractions", fraction, "--grid-n", "32"
        )
        assert code == 2
        assert "fraction" in stderr


def test_sweep_past_extremal_coupling_concentrates(tmp_path, capsys):
    # past lambda_bar the energy is unbounded below: the last stage blows up
    # into a single concentration point and exports its radial profile
    out = str(tmp_path / "runs")
    code, _, _ = run(
        capsys, "sweep", "--atoms", "1:1", "--fractions", "0.3,0.6,0.9,0.99,2.0",
        "--grid-n", "64", "--out", out,
    )
    assert code == 0
    stages = read_summary(out)["stages"]
    assert len(stages) == 5
    assert [s["status"] for s in stages] == ["converged"] * 4 + ["blown_up"]
    assert stages[-1]["concentration"] is not None
    with open(os.path.join(out, "profile_4.csv")) as fh:
        header = fh.readlines()[1]
    fields = dict(item.split("=") for item in header[1:].split())
    assert set(fields) == {"sigma", "fitted_slope", "gamma0_reference"}
    slope = stages[-1]["profile"]["fitted_slope"]
    assert math.isfinite(slope) and slope > 4.0
    assert float(fields["fitted_slope"]) == slope


NEAR_BAR_SWEEP = ("sweep", "--atoms=-1:0.5,1:0.5", "--fractions", "0.8,0.9,0.99,1.0", "--grid-n", "64")


def test_near_extremal_sweep_converges_every_stage(tmp_path, capsys):
    # the even fields hold no translation of the vortex pair, the slow mode
    # at 0.99 lambda_bar on 64^2 on the whole grid: the trust region takes
    # that stage to grad_tol at its minimizer, and the lambda_bar stage to
    # the minimizer
    out = tmp_path / "runs"
    code, _, stderr = run(capsys, *NEAR_BAR_SWEEP, "--out", str(out))
    assert code == 0 and stderr == ""
    stages = read_summary(out)["stages"]
    assert [s["status"] for s in stages] == ["converged"] * 4
    assert all(s["residual_norm"] <= 1e-8 for s in stages)
    assert abs(stages[2]["J"] - (-8.86560452194484)) <= 1e-9
    assert abs(stages[3]["J"] - (-21.7696018090033)) <= 1e-9
    assert stages[2]["hessian_products"] > 0
    assert stages[2]["iterations"] < 1000
    assert all(s["rejected"] <= s["iterations"] for s in stages)
    with open(out / "trace_2.csv") as fh:
        assert len(fh.read().splitlines()) == stages[2]["iterations"] + 3
    # the cold stage solves 32^2 first, and its counts and trace are those
    # of 64^2, the last level; a warm stage solves 64^2 alone
    assert [[lv["grid_n"] for lv in s["levels"]] for s in stages] == [[32, 64], [64], [64], [64]]
    for k, s in enumerate(stages):
        last = s["levels"][-1]
        assert (last["iterations"], last["rejected"], last["hessian_products"], last["J"], last["status"]) == (
            s["iterations"], s["rejected"], s["hessian_products"], s["J"], s["status"],
        )
        with open(out / f"trace_{k}.csv") as fh:
            assert len(fh.read().splitlines()) == s["iterations"] + 3


def test_blowup_below_extremal_coupling_exits_1(tmp_path, capsys, monkeypatch):
    # J is bounded below lambda_bar, so a blown-up stage there is a failure;
    # every record is still written, and it holds the lambda_bar the exit
    # rule compared against
    monkeypatch.setattr(vortexmf.minimize, "BLOWUP_PEAK", 5.0)
    out = tmp_path / "runs"
    code, stdout, stderr = run(
        capsys, "minimize", "--atoms=-1:0.5,1:0.5", "--fractions", "0.99", "--grid-n", "64", "--out", str(out)
    )
    assert code == 1
    assert "status=blown_up" in stdout
    assert stderr.startswith("error: stage 0 ended blown_up after ")
    record = read_summary(out)
    assert record["stages"][0]["status"] == "blown_up"
    assert record["stages"][0]["lambda"] < record["lambda_bar"] == 2.0 * EIGHT_PI
    assert (out / "trace_0.csv").exists()


def test_a_measure_without_circulation_records_lambda_bar_as_inf(tmp_path, capsys):
    out = tmp_path / "runs"
    code, _, _ = run(capsys, "minimize", "--atoms", "0:1", "--lambdas", "10", "--grid-n", "16", "--out", str(out))
    assert code == 0
    assert read_summary(out)["lambda_bar"] == "inf"


@pytest.mark.parametrize("coupling", [("--fractions", "0.5"), ("--lambdas", "12.0")])
def test_a_solver_command_checks_its_schedule_and_computes_lambda_bar_once(
    tmp_path, capsys, monkeypatch, coupling
):
    import vortexmf.cli
    import vortexmf.minimize

    calls = {"lambda_bar": 0, "stage_problems": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (vortexmf.cli, vortexmf.minimize):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    code, _, _ = run(
        capsys, "sweep", "--atoms", "1:1", *coupling, "--grid-n", "16", "--out", str(tmp_path / "runs")
    )
    assert code == 0
    assert calls == {"lambda_bar": 1, "stage_problems": 1}


@pytest.mark.parametrize("coupling", [("--fractions", "1.0"), ("--lambdas", repr(2.0 * EIGHT_PI))])
def test_blowup_at_extremal_coupling_exits_0(tmp_path, capsys, monkeypatch, coupling):
    monkeypatch.setattr(vortexmf.minimize, "BLOWUP_PEAK", 5.0)
    out = tmp_path / "runs"
    code, stdout, stderr = run(
        capsys, "minimize", "--atoms=-1:0.5,1:0.5", *coupling, "--grid-n", "32", "--out", str(out)
    )
    assert code == 0 and stderr == ""
    assert "status=blown_up" in stdout
    record = read_summary(out)
    assert record["stages"][0]["status"] == "blown_up"
    assert record["stages"][0]["lambda"] >= record["lambda_bar"] == 2.0 * EIGHT_PI


def test_lambdas_and_fractions_conflict(capsys):
    code, _, stderr = run(
        capsys, "minimize", "--atoms", "1:1", "--lambdas", "1.0", "--fractions", "0.5"
    )
    assert code == 2


def test_sweep_reruns_are_byte_identical(tmp_path, capsys):
    outs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for out in outs:
        code, _, _ = run(
            capsys, "sweep", "--atoms", "1:1", "--fractions", "0.3,0.6",
            "--grid-n", "32", "--out", out,
        )
        assert code == 0
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    assert "trace_1.csv" in names
    for name in names:
        a = Path(outs[0], name).read_bytes()
        b = Path(outs[1], name).read_bytes()
        assert a == b, name


def test_sweep_summary_counts_stages(tmp_path, capsys):
    out = str(tmp_path / "runs")
    code, _, _ = run(
        capsys, "sweep", "--atoms", "1:1", "--fractions", "0.3,0.6", "--grid-n", "32", "--out", out
    )
    assert code == 0
    payload = read_summary(out)
    assert payload["requested_stages"] == len(payload["stages"]) == 2
    assert "completed_stages" not in payload
    lams = [s["lambda"] for s in payload["stages"]]
    assert lams == [pytest.approx(0.3 * EIGHT_PI), pytest.approx(0.6 * EIGHT_PI)]


def test_profile_command_exports_profile(tmp_path, capsys):
    out = str(tmp_path / "runs")
    code, _, _ = run(
        capsys, "profile", "--atoms", "1:1", "--fractions", "0.5", "--grid-n", "32", "--out", out
    )
    assert code == 0
    payload = read_summary(out)
    assert "profile" not in payload
    assert set(payload["stages"][0]["profile"]) == {"sigma", "peak_value", "fitted_slope", "gamma0_reference"}
    lines = Path(out, "profile_0.csv").read_text().splitlines()
    assert lines[0] == "# seed=0"
    assert lines[1].startswith("# sigma=")
    assert lines[2] == "r,dw,fit_prediction"
    assert len(lines) > 3


def test_single_coupling_commands_write_one_record(tmp_path, capsys):
    # delta_1 at 2 lambda_bar concentrates, so every command exports the profile
    records = {}
    for command in ("minimize", "profile", "sweep"):
        out = str(tmp_path / command)
        code, stdout, _ = run(
            capsys, command, "--atoms", "1:1", "--lambdas", "50", "--grid-n", "64", "--out", out
        )
        assert code == 0
        summary = read_summary(out)
        assert summary.pop("command") == command
        records[command] = (stdout, summary, _outputs(out))
    stdout, summary, files = records["minimize"]
    assert sorted(files) == ["profile_0.csv", "summary.json", "trace_0.csv"]
    assert summary["requested_stages"] == len(summary["stages"]) == 1
    stage = summary["stages"][0]
    assert stage["status"] == "blown_up" and stage["profile"] is not None
    assert stdout == (
        f"stage 0: lambda=50.0 J={stage['J']!r} residual={stage['residual_norm']!r} "
        f"iterations={stage['iterations']} status=blown_up "
        f"sigma={stage['profile']['sigma']!r} fitted_slope={stage['profile']['fitted_slope']!r}\n"
    )
    for other in ("profile", "sweep"):
        assert records[other][:2] == (stdout, summary), other
        for name in ("trace_0.csv", "profile_0.csv"):
            assert records[other][2][name] == files[name], (other, name)


@pytest.mark.parametrize("command", ["minimize", "profile"])
def test_single_coupling_commands_reject_a_schedule(tmp_path, capsys, command):
    out = tmp_path / "runs"
    code, stdout, stderr = run(
        capsys, command, "--atoms", "1:1", "--lambdas", "1,2", "--grid-n", "32", "--out", str(out)
    )
    assert code == 2
    assert stderr == "error: this command expects exactly one coupling\n"
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "command, schedule, message",
    [
        ("sweep", ("--lambdas", "2,1"), "coupling schedule must be strictly ascending"),
        ("sweep", ("--fractions", "0.9,0.5"), "coupling schedule must be strictly ascending"),
        ("minimize", ("--lambdas", "-3"), "coupling lambda must be positive and finite"),
        ("sweep", ("--lambdas", "1,-3"), "coupling lambda must be positive and finite"),
        ("sweep", ("--lambdas", "nan"), "coupling lambda must be positive and finite"),
        ("sweep", ("--lambdas", "1,nan"), "coupling lambda must be positive and finite"),
        ("minimize", ("--lambdas", "inf"), "coupling lambda must be positive and finite"),
        ("profile", ("--lambdas", "inf"), "coupling lambda must be positive and finite"),
        ("minimize", (), "no coupling given: use --lambdas LIST or --fractions LIST"),
        # the commands that read no schedule check it all the same
        ("lambda-bar", ("--lambdas", "inf"), "coupling lambda must be positive and finite"),
        ("lambda-bar", ("--lambdas", "-1"), "coupling lambda must be positive and finite"),
        ("verify", ("--lambdas", "0"), "coupling lambda must be positive and finite"),
        ("scan", ("--lambdas", "1,nan"), "coupling lambda must be positive and finite"),
        ("lambda-bar", ("--fractions", "-1"), "schedule fractions must be positive and finite"),
    ],
    ids=[
        "descending", "descending-fractions", "negative", "negative-second", "nan", "nan-second", "inf", "inf-profile",
        "missing", "lambda-bar-inf", "lambda-bar-negative", "verify-zero", "scan-nan-second", "lambda-bar-fractions",
    ],
)
def test_a_bad_coupling_schedule_makes_no_out_directory(tmp_path, capsys, command, schedule, message):
    out = tmp_path / "runs"
    code, stdout, stderr = run(capsys, command, "--atoms", "1:1", *schedule, "--grid-n", "16", "--out", str(out))
    assert code == 2
    assert stderr == f"error: {message}\n"
    assert stdout == ""
    assert not out.exists()


def test_concentrated_sweep_stage_records_its_profile(tmp_path, capsys):
    out = str(tmp_path / "runs")
    code, stdout, _ = run(
        capsys, "sweep", "--atoms", "1:1", "--fractions", "0.5,2.0", "--grid-n", "64", "--out", out
    )
    assert code == 0
    first, last = read_summary(out)["stages"]
    assert first["profile"] is None and first["concentration"] is None
    assert last["concentration"] is not None
    assert set(last["profile"]) == {"sigma", "peak_value", "fitted_slope", "gamma0_reference"}
    assert last["profile"]["gamma0_reference"] == 4.0
    assert math.isfinite(last["profile"]["fitted_slope"])
    lines = stdout.splitlines()
    assert "sigma=" not in lines[0]
    assert lines[1].endswith(f"fitted_slope={last['profile']['fitted_slope']!r}")


def test_negative_spike_is_located_and_profiled(tmp_path, capsys):
    # delta_-1 past lambda_bar blows up into a spike of min v; the stage is
    # read from its mirror image, while max_v keeps meaning the maximum of v
    out = str(tmp_path / "runs")
    code, _, _ = run(
        capsys, "minimize", "--atoms=-1:1", "--fractions", "2.0", "--grid-n", "32", "--out", out
    )
    assert code == 0
    stage = read_summary(out)["stages"][0]
    assert stage["status"] == "blown_up"
    assert stage["peak_value"] < 25.0
    assert stage["concentration"] is not None and stage["concentration"] != stage["peak_point"]
    assert stage["profile"]["gamma0_reference"] == 4.0
    assert all(isinstance(c, int) and 0 <= c < 32 for c in stage["concentration"])
    assert len(stage["concentration"]) == 2
    lines = Path(out, "profile_0.csv").read_text().splitlines()
    assert lines[2] == "r,dw,fit_prediction" and len(lines) > 3


@pytest.mark.parametrize(
    "argv, reads",
    [
        (("minimize", "--atoms=-1:1", "--fractions", "2.0", "--grid-n", "32"), 1),  # concentrated
        (("profile", "--atoms=-1:1", "--fractions", "0.5", "--grid-n", "32"), 1),  # profiled
        (("minimize", "--atoms=-1:1", "--fractions", "0.5", "--grid-n", "32"), 0),  # neither
    ],
    ids=["concentrated", "profiled", "neither"],
)
def test_a_stage_unfolds_its_spike_and_sums_its_partition_at_most_once(tmp_path, capsys, monkeypatch, argv, reads):
    # the concentration point and the profile share one reading of the spike
    import vortexmf.functional as functional

    calls = []
    for name in ("unfold", "log_partition"):
        original = getattr(functional, name)
        counted = lambda *args, name=name, original=original: calls.append(name) or original(*args)
        monkeypatch.setattr(functional, name, counted)
    code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "runs"))
    assert code == 0 and calls == ["unfold", "log_partition"] * reads


def test_signed_profile_reference_comes_from_the_extremal_subset(tmp_path, capsys):
    # at lambda_bar of 1/2 delta_-1 + 1/2 delta_1 the positive spike carries
    # the mass of K = {1}: gamma0 = 4 P(K) / m_K = 4, not 4 / m1 = 8
    out = str(tmp_path / "runs")
    code, _, _ = run(
        capsys, "profile", "--atoms=-1:0.5,1:0.5", "--fractions", "1.0", "--grid-n", "64", "--out", out
    )
    assert code == 0
    profile = read_summary(out)["stages"][0]["profile"]
    assert profile["gamma0_reference"] == 4.0
    assert abs(profile["fitted_slope"] - 4.0) < 1.0
    lines = Path(out, "profile_0.csv").read_text().splitlines()
    assert "gamma0_reference=4.0" in lines[1]


@pytest.mark.parametrize(
    "spec, fraction, n",
    [("-1:0.5,1:0.5", "1.0", 64), ("1:1", "0.5", 32)],
    ids=["fitted", "too-few-bins"],
)
def test_a_profiled_stage_writes_the_default_window_fit(tmp_path, capsys, monkeypatch, spec, fraction, n):
    # the stage fits its samples once, over the default window, and the CSV,
    # the summary and stdout read that one line; on 32^2 the window holds
    # too few bins, and all of them read nan
    results = []
    sweep = vortexmf.cli.continuation_sweep
    monkeypatch.setattr(vortexmf.cli, "continuation_sweep", lambda *args: results.extend(sweep(*args)) or results)
    out = str(tmp_path / "runs")
    code, stdout, _ = run(
        capsys, "profile", f"--atoms={spec}", "--fractions", fraction, "--grid-n", str(n), "--out", out
    )
    assert code == 0
    T = SpectralTorus(1.0, n)
    samples = rescale_profile(T, parse_atoms_inline(spec), spike_grid(T, results[0].v))
    window = default_fit_window(samples.sigma, 1.0)
    if n == 32:
        with pytest.raises(ValueError):
            fit_li_line(samples, window)
        slope = intercept = math.nan
    else:
        slope, intercept = fit_li_line(samples, window)
        assert math.isfinite(slope)
    profile = read_summary(out)["stages"][0]["profile"]
    assert profile["sigma"] == samples.sigma
    assert float(profile["fitted_slope"]).hex() == slope.hex()
    assert stdout.rstrip("\n").endswith(f"fitted_slope={slope!r}")
    lines = Path(out, "profile_0.csv").read_text().splitlines()
    assert lines[1] == f"# sigma={samples.sigma!r} fitted_slope={slope!r} gamma0_reference=4.0"
    rows = [[float(x) for x in line.split(",")] for line in lines[3:]]
    assert len(rows) == samples.radii.size
    for r, _, prediction in rows:
        assert prediction.hex() == (slope * (-math.log1p(r / samples.sigma)) + intercept).hex()


def test_profile_of_a_measure_without_positive_circulation_reads_the_mirror(tmp_path, capsys):
    out = str(tmp_path / "runs")
    code, _, stderr = run(
        capsys, "profile", "--atoms=-1:1", "--fractions", "0.5", "--grid-n", "32", "--out", out
    )
    assert (code, stderr) == (0, "")
    stage = read_summary(out)["stages"][0]
    assert stage["status"] == "converged" and stage["concentration"] is None
    assert stage["profile"]["gamma0_reference"] == 4.0
    lines = Path(out, "profile_0.csv").read_text().splitlines()
    assert "gamma0_reference=4.0" in lines[1]


def test_profile_of_a_measure_without_circulation_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "runs"
    code, stdout, stderr = run(
        capsys, "profile", "--atoms", "0:1", "--lambdas", "10", "--grid-n", "32", "--out", str(out)
    )
    assert code == 2
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert stdout == ""
    assert not out.exists()


def test_diverged_sweep_stage_keeps_every_record(tmp_path, capsys, monkeypatch):
    from vortexmf.minimize import _EnergyDelta

    real = _EnergyDelta.__call__
    # the trust region rejects every step at the second coupling, 0.6 lambda_bar > 10
    monkeypatch.setattr(
        _EnergyDelta, "__call__", lambda self: 1.0 if self.prob.lam > 10 else real(self)
    )
    out = str(tmp_path / "runs")
    code, stdout, stderr = run(
        capsys, "sweep", "--atoms", "1:1", "--fractions", "0.3,0.6", "--grid-n", "32", "--out", out
    )
    assert code == 1
    assert sorted(os.listdir(out)) == ["summary.json", "trace_0.csv", "trace_1.csv"]
    summary = read_summary(out)
    assert [s["status"] for s in summary["stages"]] == ["converged", "diverged"]
    assert summary["requested_stages"] == len(summary["stages"]) == 2
    last = summary["stages"][1]
    assert len(stdout.splitlines()) == 2
    assert stderr == (
        f"error: stage 1 ended diverged after {last['iterations']} iterations "
        f"at residual {last['residual_norm']!r}\n"
    )


def test_invalid_grid_rejected(capsys):
    code, _, stderr = run(
        capsys, "minimize", "--atoms", "1:1", "--lambdas", "1.0", "--grid-n", "100"
    )
    assert code == 2
    assert "power of two" in stderr


def test_verify_passes(tmp_path, capsys):
    out = str(tmp_path / "runs")
    code, _, _ = run(capsys, "verify", "--out", out)
    assert code == 0
    payload = read_summary(out)
    assert payload["all_passed"] is True
    assert len(payload["checks"]) == 10
    names = {c["name"] for c in payload["checks"]}
    assert {"bubble_mass", "mass_gamma", "li_slope_alpha_1", "pohozaev_bubble",
            "newton_slope_bubble", "newton_slope_disk"} <= names


def test_verify_fits_each_line_it_reads_once(monkeypatch):
    # two Li windows and two Newton growths: a profile fits no window of its own
    calls = []
    polyfit = np.polyfit
    monkeypatch.setattr(np, "polyfit", lambda *args: calls.append(len(args[0])) or polyfit(*args))
    vortexmf.cli.verify_checks()
    assert len(calls) == 4


def test_verify_negative_control_fails(tmp_path, capsys):
    out = str(tmp_path / "runs")
    code, stdout, _ = run(capsys, "verify", "--debug-bubble-scale", "2.0", "--out", out)
    assert code == 1
    payload = read_summary(out)
    assert payload["all_passed"] is False
    failed = {c["name"] for c in payload["checks"] if not c["passed"]}
    assert failed == {"pohozaev_bubble"}
    assert stdout.endswith("some checks FAILED\n")


def test_verify_rejects_bad_scale(capsys):
    code, _, stderr = run(capsys, "verify", "--debug-bubble-scale", "0.0")
    assert code == 2


def test_human_output_mentions_key_quantities(tmp_path, capsys):
    out = str(tmp_path / "runs")
    code, stdout, _ = run(capsys, "lambda-bar", "--atoms", "1:1", "--out", out)
    assert code == 0
    assert "lambda_bar = " in stdout
    assert "side = positive" in stdout
    assert stdout.endswith("full_support = true\n")


def _subcommand_parsers():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_settings_are_exactly_the_flags_of_every_command():
    keys = {"measure", "atoms", "out", "grid_n", "lambdas", "fractions", "max_iters", "grad_tol", "seed"}
    command_only = {"help", "debug_bubble_scale"}
    for name, sub in _subcommand_parsers().items():
        dests = {a.dest for a in sub._actions if a.option_strings} - command_only
        assert dests == keys, name


@pytest.mark.parametrize(
    "argv",
    [
        ("--alpha", "1.0"),
        ("--side-length", "1.0"),
        ("--config", "run.cfg"),
        ("--json",),
        ("--n-bins", "8"),
        ("--blowup-peak-threshold", "5"),
    ],
    ids=["--alpha", "--side-length", "--config", "--json", "--n-bins", "--blowup-peak-threshold"],
)
def test_removed_settings_are_unknown_flags(tmp_path, capsys, argv):
    # --alpha and --side-length only rescaled the answer (README, Scales);
    # the flags are the one source of settings, and summary.json the one
    # machine-readable record; the profile's bins and the blow-up peak are
    # constants
    out = tmp_path / "runs"
    code, stdout, stderr = run(
        capsys, "minimize", "--atoms", "1:1", "--lambdas", "12.0", "--grid-n", "16", *argv, "--out", str(out)
    )
    assert (code, stdout) == (2, "")
    assert stderr == f"error: unrecognized arguments: {' '.join(argv)}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [("--lambda", "1"), ("--grid", "16"), ("--frac", "0.5"), ("--max-iter", "3")],
    ids=["--lambda", "--grid", "--frac", "--max-iter"],
)
def test_a_prefix_of_a_flag_is_an_unknown_flag(tmp_path, capsys, argv):
    # argparse takes a unique prefix for its flag by default, so --lambda ran
    # as --lambdas; every parser turns that off
    out = tmp_path / "runs"
    code, stdout, stderr = run(capsys, "minimize", "--atoms", "1:1", *argv, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert stderr == f"error: unrecognized arguments: {' '.join(argv)}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        ((), "the following arguments are required: command"),
        (("solve",), "argument command: invalid choice: 'solve'"),
        (("minimize", "--grid-n", "x"), "argument --grid-n: invalid int value: 'x'"),
        (("minimize", "--grad-tol", "small"), "argument --grad-tol: invalid float value: 'small'"),
        (("sweep", "--lambdas", "1,x"), "argument --lambdas: could not convert string to float: 'x'"),
        (("sweep", "--fractions", "0.5,"), "argument --fractions: empty entry in number list"),
        (("minimize", "--seed"), "argument --seed: expected one argument"),
    ],
    ids=["no-command", "unknown-command", "grid-n", "grad-tol", "lambdas", "fractions", "no-value"],
)
def test_a_usage_error_is_one_error_line(tmp_path, capsys, argv, message):
    # argparse's errors leave by the path every other bad input takes
    code, stdout, stderr = run(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert stderr.startswith(f"error: {message}") and stderr.count("\n") == 1
    assert "usage:" not in stderr


@pytest.mark.parametrize("argv", [("--help",), ("minimize", "--help"), ("minimize", "--atoms", "-1:1", "--help")])
def test_help_exits_0_and_prints_each_default(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("usage: vortexmf")
    if len(argv) > 1:
        assert "(default 128)" in stdout and "(default 1e-08)" in stdout and "(default 5000)" in stdout


def test_a_grid_too_large_for_memory_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    # the cold start is a solve's first grid-sized allocation; no real
    # large array is made here
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 GiB for an array")

    monkeypatch.setattr(vortexmf.minimize, "random_zero_mean", no_memory)
    out = tmp_path / "runs"
    code, stdout, stderr = run(capsys, "minimize", "--atoms", "1:1", "--lambdas", "1", "--grid-n", "16", "--out", str(out))
    assert (code, stdout) == (1, "")
    assert stderr == "error: out of memory: Unable to allocate 8.00 GiB for an array\n"
    assert os.listdir(out) == []


def test_max_iters_from_file_and_flag_flag_wins(tmp_path, capsys):
    out = str(tmp_path / "runs")
    base = ("minimize", "--atoms", "1:1", "--lambdas", "12.0", "--grid-n", "32", "--out", out)
    code, _, _ = run(capsys, *base, "--max-iters", "3")
    assert code == 1
    assert read_summary(out)["stages"][0]["iterations"] == 3
    code, _, stderr = run(capsys, *base, "--max-iters", "2")
    assert code == 1
    stage = read_summary(out)["stages"][0]
    assert stage["iterations"] == 2
    assert stage["status"] == "budget"
    residual = stage["residual_norm"]
    assert stderr == f"error: stage 0 ended budget after 2 iterations at residual {residual!r}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--debug-bubble-scale", "nan"),
        ("verify", "--debug-bubble-scale", "inf"),
        ("minimize", "--atoms", "1:1", "--grid-n", "32", "--lambdas", "12.0", "--grad-tol", "inf"),
        ("minimize", "--atoms", "1:1", "--grid-n", "32", "--lambdas", "inf"),
    ],
    ids=["scale-nan", "scale-inf", "grad_tol-inf", "lambdas-inf"],
)
def test_non_finite_input_is_an_input_error(tmp_path, capsys, argv):
    code, _, stderr = run(capsys, *argv, "--out", str(tmp_path / "runs"))
    assert code == 2
    assert stderr.startswith("error: ") and "finite" in stderr


@pytest.mark.parametrize(
    "argv,message,files",
    [
        (("minimize", "--atoms", "1:1", "--lambdas", "1e9", "--grid-n", "64"),
         "partition exponent out of range", []),
        # a huge coupling is valid input: the CG path overflows, and the
        # first quantity of it that is not finite is named
        (("minimize", "--atoms", "1:1", "--lambdas", "1e100", "--grid-n", "64"),
         "truncated CG: the model is not finite", []),
        (("minimize", "--atoms", "1:1", "--lambdas", "1e200", "--grid-n", "64"), "truncated CG: rz0 is not finite", []),
        (("minimize", "--atoms", "1:1", "--lambdas", "1e308", "--grid-n", "64"), "truncated CG: rz0 is not finite", []),
        (("verify", "--debug-bubble-scale", "1e300"), "pohozaev_bubble: boundary term is not finite at r = 10.0", None),
        # the boundary term is finite, the integrand is not: the one
        # quadrature of the suite names the check whose integral failed
        (("verify", "--debug-bubble-scale", "1e154"),
         "pohozaev_bubble: integrand is not finite at r = 2.3166247903554003", None),
    ],
    ids=[
        "partition-overflow", "coupling-1e100", "coupling-1e200", "coupling-1e308", "bubble-overflow",
        "integrand-overflow",
    ],
)
def test_numerical_failure_exits_1_with_a_message(tmp_path, capsys, argv, message, files):
    # every file is written after the last stage, so a solver command that
    # fails leaves --out empty; verify makes it only to write its record
    out = tmp_path / "runs"
    code, _, stderr = run(capsys, *argv, "--out", str(out))
    assert code == 1
    assert stderr == f"error: numerical failure: {message}\n"
    assert (sorted(os.listdir(out)) if out.exists() else None) == files


def test_huge_coupling_blows_up_within_the_trust_region(tmp_path, capsys):
    # the trust radius bounds the first steps, so at 1e6 the peak reaches the
    # threshold before any exponent overflows; 1e6 is past lambda_bar, exit 0
    out = tmp_path / "runs"
    code, stdout, stderr = run(
        capsys, "minimize", "--atoms", "1:1", "--lambdas", "1e6", "--grid-n", "64", "--out", str(out)
    )
    assert code == 0 and stderr == ""
    assert "status=blown_up" in stdout
    stage = read_summary(out)["stages"][0]
    assert (stage["status"], stage["iterations"]) == ("blown_up", 2)


def test_quadrature_failure_exits_1(tmp_path, capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise RuntimeError("radial quadrature did not converge")

    monkeypatch.setattr("vortexmf.blowup.radial_integral", no_convergence)
    code, _, stderr = run(capsys, "verify", "--out", str(tmp_path / "runs"))
    assert code == 1
    assert "radial quadrature did not converge" in stderr


def _outputs(out_dir):
    return {name: Path(out_dir, name).read_bytes() for name in sorted(os.listdir(out_dir))}


def test_negative_atoms_parse_with_or_without_equals(tmp_path, capsys):
    results = []
    for k, spelling in enumerate((["--atoms", "-1:0.5,1:0.5"], ["--atoms=-1:0.5,1:0.5"])):
        out = str(tmp_path / str(k))
        code, stdout, _ = run(
            capsys, "minimize", *spelling, "--lambdas", "10.0", "--grid-n", "16", "--out", out
        )
        assert code == 0
        results.append((stdout, _outputs(out)))
    assert results[0] == results[1]
    assert "trace_0.csv" in results[0][1]


@pytest.mark.parametrize("command", ["minimize", "sweep"])
def test_negative_coupling_still_rejected(capsys, command):
    code, _, stderr = run(capsys, command, "--atoms", "1:1", "--lambdas", "-1", "--grid-n", "32")
    assert code == 2
    assert "must be positive" in stderr


def test_sweep_checks_every_coupling_before_the_first_stage(tmp_path, capsys):
    out = str(tmp_path / "runs")
    code, _, stderr = run(
        capsys, "sweep", "--atoms", "1:1", "--lambdas", "1,inf", "--grid-n", "32", "--out", out
    )
    assert code == 2
    assert "coupling lambda must be positive and finite" in stderr
    assert not os.path.exists(os.path.join(out, "trace_0.csv"))


def test_repeated_main_calls_give_identical_outputs(tmp_path, capsys):
    results = []
    for k in range(2):
        out = str(tmp_path / str(k))
        code, stdout, _ = run(capsys, "verify", "--seed", "3", "--out", out)
        results.append((code, stdout, _outputs(out)))
    assert results[0] == results[1]
    assert build_parser() is build_parser()


@pytest.mark.parametrize("kind", ["empty", "under-a-file"])
def test_unusable_out_is_an_input_error(tmp_path, capsys, kind):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = "" if kind == "empty" else str(blocker / "runs")
    code, _, stderr = run(capsys, "lambda-bar", "--atoms", "1:1", "--out", out)
    assert code == 2
    assert stderr.startswith("error: ") and stderr.count("\n") == 1


def test_scan_reproduces_the_two_atom_map(tmp_path, capsys):
    out = tmp_path / "scan"
    code, stdout, _ = run(capsys, "scan", "--out", str(out))
    assert code == 0
    data = (out / "two_atom_scan.csv").read_bytes()
    rows = data.decode().splitlines()
    assert rows[0] == "a,t,lambda_bar,subset_size,side,residual_vanishing,full_support"
    assert len(rows) == 1 + 19 * 19
    # the bytes of the standalone scan script this command replaced
    assert hashlib.sha256(data).hexdigest() == (
        "24adf0ab6104bf65778bc924c59a95e58e1a6953b89dfa4af7bdf1241d803c16"
    )
    lines = stdout.splitlines()
    assert "  a = 0.050: t* = never (always tail)" in lines
    assert lines[-1] == "atoms above 1/2 that are full-support at the smallest weight: 9 of 9"
    assert read_summary(out)["full_support_above_half"] == 9


def test_no_command_loads_scipy(tmp_path):
    # the package's one dependency is numpy; the quadrature is its own
    script = f"""
import os, sys
import vortexmf.blowup
print("scipy" in sys.modules)
import vortexmf.cli
print("scipy" in sys.modules)
from vortexmf.cli import main
main(["lambda-bar", "--atoms", "1:1", "--out", {str(tmp_path / "a")!r}])
print("scipy" in sys.modules)
main(["minimize", "--atoms", "1:1", "--lambdas", "1", "--grid-n", "32",
      "--out", {str(tmp_path / "b")!r}])
print("scipy" in sys.modules)
main(["sweep", "--atoms", "1:1", "--fractions", "0.5,2.0", "--grid-n", "64",
      "--out", {str(tmp_path / "d")!r}])
print(os.path.exists({str(tmp_path / "d" / "profile_1.csv")!r}))
print("scipy" in sys.modules)
main(["profile", "--atoms=-1:0.5,1:0.5", "--fractions", "1.0", "--grid-n", "64",
      "--out", {str(tmp_path / "e")!r}])
print("scipy" in sys.modules)
main({list(NEAR_BAR_SWEEP)!r} + ["--out", {str(tmp_path / "f")!r}])
print("scipy" in sys.modules)
main(["verify", "--out", {str(tmp_path / "c")!r}])
print("scipy" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(vortexmf.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    flags = [line for line in done.stdout.splitlines() if line in ("True", "False")]
    assert flags == ["False", "False", "False", "False", "True", "False", "False", "False", "False"]


def test_commands_run_where_scipy_cannot_be_imported(tmp_path):
    # a finder ahead of every other one refuses scipy, as on a host without it
    script = f"""
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError("scipy is not installed")

sys.meta_path.insert(0, NoScipy())
from vortexmf.cli import main
runs = {{
    "a": ["lambda-bar", "--atoms", "1:1"],
    "b": ["minimize", "--atoms", "1:1", "--lambdas", "12.0", "--grid-n", "32"],
    "c": ["verify"],
}}
for name, argv in runs.items():
    out = {str(tmp_path)!r} + "/" + name
    code = main(argv + ["--out", out])
    with open(out + "/summary.json") as fh:
        record = json.load(fh)
    print("ran", name, code, record.get("all_passed", True))
"""
    src = os.path.dirname(os.path.dirname(vortexmf.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    ran = [line for line in done.stdout.splitlines() if line.startswith("ran ")]
    assert ran == ["ran a 0 True", "ran b 0 True", "ran c 0 True"]
