"""End-to-end command-line checks: validation, artifacts, reproducibility."""

import dataclasses
import json
import os
import re
import threading
import time
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from gengap import acceptance, cli, instance_gd, risk
from gengap.cli import ExperimentConfig, _artifact_json, _json_default, \
    build_parser, main
from gengap.codebook import load_codebook
from gengap.errors import OutOfRange
from gengap.instance_gd import GdDataset, GdParams, draw_gd_dataset
from gengap.instance_sgd import SgdDataset, SgdParams, force_good_event_sgd
from gengap.optim import Trajectory, save_trajectory
from gengap.verify import MarginReport, NormReport, StepDeviation, \
    TrajectoryReport

_GD_TINY = [
    "--family", "gd", "--n", "2", "--directions", "4", "--steps", "8",
    "--dprime", "8",
]
_SGD_TINY = [
    "--family", "sgd", "--n", "4", "--directions", "8", "--dprime", "16",
]


def test_run_requires_an_explicit_policy(tmp_path, capsys):
    code = main(["run", *_GD_TINY, "--out", str(tmp_path)])
    assert code == 2
    assert "policy" in capsys.readouterr().err


def test_theorem_mode_rejects_an_oversized_step(tmp_path, capsys):
    base = ["risk", *_GD_TINY, "--policy", "reject-until-E", "--seeds", "1",
            "--mc-samples", "2", "--suffix", "1", "--mode", "reference"]
    assert main([*base, "--eta", "0.9"]) == 2
    assert "theorem" in capsys.readouterr().err
    # the override flag lets an oversized step through validation
    with pytest.warns(UserWarning):
        assert main([*base, "--eta", "0.9", "--no-theorem-mode"]) == 0
    # the cap itself passes silently; a relative 1e-11 above it does not
    cap = instance_gd.theorem_step_size(8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*base, "--eta", repr(cap)]) == 0
    over = repr(cap * (1 + 1e-11))
    assert main([*base, "--eta", over]) == 2
    with pytest.warns(UserWarning):
        assert main([*base, "--eta", over, "--no-theorem-mode"]) == 0


def test_generated_codebook_roundtrips(tmp_path, capsys):
    out = tmp_path / "cb.json"
    code = main(["gen-codebook", "--directions", "4", "--dim", "16",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    cb = load_codebook(out)
    assert cb.n_vectors == 4 and cb.dim == 16


def test_a_codebook_file_must_hold_exactly_the_run_directions(tmp_path,
                                                              capsys):
    path = tmp_path / "cb12.json"
    assert main(["gen-codebook", "--directions", "12", "--dim", "16",
                 "--seed", "3", "--out", str(path)]) == 0
    out = tmp_path / "out"
    assert main(["run", *_SGD_TINY, "--policy", "force", "--seeds", "1",
                 "--codebook", str(path), "--out", str(out)]) == 2
    assert "holds 12 directions of dim 16; the run needs 8" \
        in capsys.readouterr().err
    assert not out.exists()


def test_smallstep_run_writes_reproducible_artifacts(tmp_path, capsys):
    argv = ["run", "--family", "smallstep", "--eta", "0.1", "--steps", "10",
            "--seeds", "0", "--suffix", "1,2"]
    first, second = tmp_path / "a", tmp_path / "b"
    assert main([*argv, "--out", str(first)]) == 0
    assert main([*argv, "--out", str(second)]) == 0
    assert "overall: pass" in capsys.readouterr().out

    assert (first / "smallstep-s0-trajectory.bin").exists()
    assert (first / "smallstep-s0-trajectory.json").exists()
    assert not (first / "smallstep-s0-dataset.json").exists()  # no dataset here
    summary = json.loads((first / "smallstep-run-summary.json").read_text())
    assert summary["passed"] is True
    assert summary["config"]["eta"] == 0.1
    assert summary["results"][0]["risk"][0]["population_stderr"] == 0.0

    # identical config and seed, identical table, byte for byte
    csv_a = (first / "smallstep-risk.csv").read_bytes()
    csv_b = (second / "smallstep-risk.csv").read_bytes()
    assert csv_a == csv_b


def test_smallstep_default_dimension_covers_every_step(tmp_path):
    # 25 eta^2 T^2 alone would give one coordinate for ten steps
    assert main(["run", "--family", "smallstep", "--eta", "0.02", "--steps",
                 "10", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "smallstep-run-summary.json").read_text())
    assert summary["passed"] is True and summary["config"]["dim"] == 9


def test_a_smallstep_dim_below_the_horizon_is_refused(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["run", "--family", "smallstep", "--eta", "0.02", "--steps", "10"]
    assert main([*argv, "--dim", "8", "--out", str(out)]) == 2
    assert "--dim" in capsys.readouterr().err
    assert not out.exists()
    assert main([*argv, "--dim", "9", "--out", str(out)]) == 0


@pytest.mark.parametrize("argv, flags", [
    ([*_SGD_TINY, "--policy", "force", "--steps", "64"], ["--steps"]),
    ([*_SGD_TINY, "--policy", "force", "--dim", "99"], ["--dim"]),
    ([*_GD_TINY, "--policy", "reject-until-E", "--dim", "99"], ["--dim"]),
    (["--family", "smallstep", "--eta", "0.1", "--steps", "10", "--n", "2",
      "--directions", "4", "--dprime", "8", "--policy", "force"],
     ["--n", "--directions", "--dprime", "--policy"]),
    # a family without directions reads no codebook file
    (["--family", "smallstep", "--eta", "0.1", "--steps", "10", "--codebook",
      "cb.json"], ["--codebook"]),
], ids=["sgd-steps", "sgd-dim", "gd-dim", "smallstep", "smallstep-codebook"])
def test_flags_the_family_does_not_take_are_refused(tmp_path, capsys, argv, flags):
    out = tmp_path / "out"
    assert main(["run", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(flag in err for flag in flags)
    assert not out.exists()


def test_gd_run_artifacts_record_the_event_policy(tmp_path):
    code = main(["run", *_GD_TINY, "--policy", "reject-until-E",
                 "--seeds", "1", "--mc-samples", "200", "--suffix", "1,4",
                 "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "gd-s1-verify.json").read_text())
    assert report["policy"] == "reject-until-E"
    assert report["passed"] is True
    # on-event runs carry the full closed-form comparison, not a skip note
    assert isinstance(report["trajectory"], dict)
    assert isinstance(report["margins"], dict)
    assert (tmp_path / "gd-s1-dataset.json").exists()
    assert (tmp_path / "codebook.json").exists()
    table = (tmp_path / "gd-risk.csv").read_text().splitlines()
    assert table[0].startswith("seed,family,suffix_length,")
    assert len(table) == 3  # header + one row per requested suffix length


@pytest.mark.parametrize("command", ["verify", "risk"])
@pytest.mark.parametrize("rows", [1, 9])
def test_a_checkpoint_with_the_wrong_iterate_count_is_refused(
        tmp_path, capsys, command, rows):
    # a one-row checkpoint would leave every closed-form step unchecked
    dim = GdParams(2, 4, 8, dprime=8).dim
    save_trajectory(Trajectory(np.full((rows, dim), 0.01)), tmp_path / "ckpt")
    code = main([command, *_GD_TINY, "--policy", "reject-until-E",
                 "--seeds", "1", "--mc-samples", "200",
                 "--trajectory", str(tmp_path / "ckpt")])
    assert code == 2
    assert f"checkpoint holds {rows} iterates; the configured instance " \
        "has 8" in capsys.readouterr().err


def test_gd_rejection_run_draws_the_library_dataset(tmp_path):
    # seed 0 of this instance is rejected three times before the event holds
    want, rejections = draw_gd_dataset(GdParams(2, 4, 8, dprime=8), 0,
                                       policy="reject-until-E")
    assert rejections > 0
    code = main(["run", *_GD_TINY, "--policy", "reject-until-E",
                 "--seeds", "0", "--mc-samples", "200", "--out", str(tmp_path)])
    assert code == 0
    saved = tmp_path / "gd-s0-dataset.json"
    assert GdDataset.load(saved) == (want, rejections)
    report = json.loads((tmp_path / "gd-s0-verify.json").read_text())
    assert report["rejections"] == rejections
    # the run writes its dataset file through the library's one writer
    want.save(tmp_path / "library.json", rejections)
    assert saved.read_text() == (tmp_path / "library.json").read_text()


def test_sgd_force_run_draws_the_library_dataset(tmp_path):
    want = force_good_event_sgd(SgdParams(4, 8, dprime=16), 5)
    code = main(["run", *_SGD_TINY, "--policy", "force", "--seeds", "5",
                 "--mc-samples", "200", "--out", str(tmp_path)])
    assert code == 0
    saved = tmp_path / "sgd-s5-dataset.json"
    assert SgdDataset.load(saved) == (want, 0)
    want.save(tmp_path / "library.json", 0)
    assert saved.read_text() == (tmp_path / "library.json").read_text()


def test_a_run_that_skips_every_seed_writes_the_risk_header_alone(tmp_path):
    # seed 0's n=4 dataset is off-event and the oracle cannot decode it
    code = main(["run", "--family", "gd", "--n", "4", "--directions", "4",
                 "--steps", "8", "--dprime", "8", "--suffix", "1",
                 "--policy", "unconditioned", "--seeds", "0",
                 "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "gd-run-summary.json").read_text())
    assert "skipped" in summary["results"][0]["verify"]
    # the header line alone: no empty line, which csv would read as a row
    assert (tmp_path / "gd-risk.csv").read_text() == \
        "seed," + risk.RiskReport.CSV_HEADER + "\n"


def test_a_reject_until_e_run_out_of_draws_is_an_error(tmp_path, capsys,
                                                        monkeypatch):
    # seed 1 is accepted after 2 rejections, so a 2-draw budget runs out
    monkeypatch.setattr(instance_gd, "MAX_DATASET_DRAWS", 2)
    code = main(["run", *_GD_TINY, "--policy", "reject-until-E", "--seeds", "1",
                 "--mc-samples", "200", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == \
        "error: no dataset satisfied the good event in 2 draws\n"
    assert [p.name for p in tmp_path.iterdir()] == ["codebook.json"]


def test_a_one_sample_pass_is_a_configuration_error(tmp_path, capsys):
    code = main(["run", "--family", "sgd", "--n", "1", "--directions", "4",
                 "--policy", "force", "--seeds", "0", "--out", str(tmp_path)])
    assert code == 2
    assert "n >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv, lipschitz", [
    ([*_GD_TINY, "--policy", "reject-until-E", "--mode", "reference"], 5.0),
    ([*_SGD_TINY, "--policy", "force"], 4.0),
    (["--family", "smallstep", "--eta", "0.1", "--steps", "10"], 1.0),
], ids=["gd", "sgd", "smallstep"])
def test_run_checks_the_smoothed_training_risk(tmp_path, argv, lipschitz):
    code = main(["run", *argv, "--seeds", "1", "--mc-samples", "200",
                 "--smoothing", "--smoothing-samples", "2000",
                 "--out", str(tmp_path)])
    assert code == 0
    (summary,) = tmp_path.glob("*-run-summary.json")
    (result,) = json.loads(summary.read_text())["results"]
    smoothing = result["smoothing"]
    assert smoothing["passed"] is True
    assert smoothing["samples"] == 2000
    # the bound is the family's Lipschitz constant times the radius plus
    # three standard errors
    assert smoothing["bound"] >= lipschitz * smoothing["delta"]


def test_an_off_event_oracle_seed_is_skipped_not_fatal(tmp_path, capsys):
    # seeds 1 and 3 are off-event, and the oracle read-out leaves its domain
    # at iterate 2 of both runs
    argv = [*_GD_TINY, "--policy", "unconditioned", "--mc-samples", "200"]
    assert main(["run", *argv, "--seeds", "0..5", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "gd-run-summary.json").read_text())
    results = {r["seed"]: r for r in summary["results"]}
    assert sorted(results) == [0, 1, 2, 3, 4]
    for seed in (1, 3):
        report = json.loads((tmp_path / f"gd-s{seed}-verify.json").read_text())
        assert report["event"]["ok"] is False
        assert "iterate 2" in report["skipped"]
        assert results[seed]["verify"] == {
            k: v for k, v in report.items()
            if k not in ("config", "seed", "policy", "rejections")}
        assert results[seed]["risk"] == []
        assert not (tmp_path / f"gd-s{seed}-trajectory.bin").exists()
    assert "skipped" not in results[0]["verify"]
    rows = (tmp_path / "gd-risk.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0", "2", "4"]
    assert "seed 1: skipped" in capsys.readouterr().out

    # verify and risk have nothing to check without a trajectory
    for command in ("verify", "risk"):
        assert main([command, *argv, "--seeds", "1"]) == 2
        assert "iterate 2" in capsys.readouterr().err


# gd seed 2's reject-until-E draw is accepted at once; seed 1's is accepted
# after 2 rejections, a count the dataset file must carry to verify
@pytest.mark.parametrize("argv, seed", [
    ([*_GD_TINY, "--policy", "reject-until-E", "--mode", "reference"], 2),
    ([*_SGD_TINY, "--policy", "force"], 5),
    ([*_GD_TINY, "--policy", "reject-until-E", "--mode", "reference"], 1),
], ids=["gd", "sgd", "gd-rejected"])
def test_saved_artifacts_reproduce_the_run_reports(tmp_path, argv, seed):
    argv = [*argv, "--seeds", str(seed), "--suffix", "1,2", "--mc-samples", "500"]
    stem = f"{argv[1]}-s{seed}"
    rundir = tmp_path / "run"
    assert main(["run", *argv, "--out", str(rundir)]) == 0
    saved = ["--dataset", str(rundir / f"{stem}-dataset.json"),
             "--trajectory", str(rundir / f"{stem}-trajectory")]

    risk = tmp_path / "risk.csv"
    assert main(["risk", *argv, *saved, "--out", str(risk)]) == 0
    (table,) = rundir.glob("*-risk.csv")
    assert risk.read_bytes() == table.read_bytes()

    verify = tmp_path / "verify.json"
    assert main(["verify", *argv, *saved, "--out", str(verify)]) == 0
    want = json.loads((rundir / f"{stem}-verify.json").read_text())
    got = json.loads(verify.read_text())
    assert got["config"].pop("out") == str(verify)
    want["config"].pop("out")
    assert got == want


def test_a_dataset_file_without_a_count_reports_null_rejections(tmp_path):
    argv = [*_GD_TINY, "--policy", "reject-until-E", "--seeds", "1"]
    rundir = tmp_path / "run"
    assert main(["run", *argv, "--suffix", "1", "--mc-samples", "200",
                 "--out", str(rundir)]) == 0
    payload = json.loads((rundir / "gd-s1-dataset.json").read_text())
    assert payload.pop("rejections") == 2
    older = tmp_path / "older.json"
    older.write_text(json.dumps(payload))
    out = tmp_path / "verify.json"
    assert main(["verify", *argv, "--dataset", str(older),
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["rejections"] is None


def test_a_dataset_file_must_fit_the_instance(tmp_path, capsys):
    rundir = tmp_path / "run"
    gd3 = ["--family", "gd", "--n", "3", "--directions", "4", "--steps", "8",
           "--dprime", "8", "--policy", "reject-until-E"]
    assert main(["run", *gd3, "--seeds", "0", "--mc-samples", "200",
                 "--out", str(rundir)]) == 0
    dataset = rundir / "gd-s0-dataset.json"

    code = main(["verify", *_GD_TINY, "--policy", "reject-until-E",
                 "--dataset", str(dataset)])
    assert code == 2
    err = capsys.readouterr().err
    assert "holds 3 samples" in err and "n=2" in err

    for key, value, message in (("mask", 16, "masks"), ("slot", 10, "slots")):
        bad = json.loads(dataset.read_text())
        bad["samples"][0][key] = value
        path = tmp_path / f"bad-{key}.json"
        path.write_text(json.dumps(bad))
        assert main(["verify", *gd3, "--dataset", str(path)]) == 2
        assert message in capsys.readouterr().err

    # the smallstep family has no training set, so a file is refused
    assert main(["verify", "--family", "smallstep", "--eta", "0.1",
                 "--steps", "10", "--dataset", str(dataset)]) == 2
    assert "no training set" in capsys.readouterr().err


@pytest.mark.parametrize("argv, count", [
    (["--family", "gd", "--n", "3", "--directions", "6", "--steps", "8",
      "--dprime", "8", "--policy", "reject-until-E"], 22020096),
    (["--family", "sgd", "--n", "3", "--directions", "9", "--policy",
      "force"], 262656),
], ids=["gd", "sgd"])
def test_a_reference_run_beyond_the_budget_is_refused_before_any_artifact(
        tmp_path, capsys, argv, count):
    out = tmp_path / "out"
    assert main(["run", *argv, "--mode", "reference", "--out", str(out)]) == 2
    assert f"needs {count} candidates" in capsys.readouterr().err
    assert not out.exists()


def _unreadable_input(case, tmp_path):
    """(command, flags, the path the refusal must name) of one unreadable
    input file."""
    verify = ["verify", *_GD_TINY, "--policy", "reject-until-E", "--seeds", "0"]
    path = tmp_path / "input.json"
    if case == "gd-reads-an-sgd-dataset":
        SgdDataset(masks=(1, 2), seed=0).save(path)
        return [*verify, "--dataset", str(path)], path
    if case == "dataset-is-a-list":
        path.write_text("[1, 2]")
        return [*verify, "--dataset", str(path)], path
    if case == "codebook-is-a-dataset":
        draw_gd_dataset(GdParams(2, 4, 8, dprime=8), 0)[0].save(path)
        return [*verify, "--codebook", str(path)], path
    if case == "config-is-not-yaml":
        path.write_text("family: [gd\n")
        return [*verify, "--config", str(path)], path
    missing = tmp_path / "missing"
    if case == "truncated-checkpoint":
        params = GdParams(2, 4, 8, dprime=8)
        save_trajectory(Trajectory(np.zeros((params.steps, params.dim))), missing)
        data = missing.with_suffix(".bin")
        data.write_bytes(data.read_bytes()[:-8])
        return [*verify, "--trajectory", str(missing)], data
    flag = case.removeprefix("missing-")
    if flag == "trajectory":
        return [*verify, "--trajectory", str(missing)], missing.with_suffix(".json")
    return [*verify, f"--{flag}", str(missing)], missing


@pytest.mark.parametrize("case", [
    "gd-reads-an-sgd-dataset", "dataset-is-a-list", "codebook-is-a-dataset",
    "config-is-not-yaml", "truncated-checkpoint", "missing-codebook",
    "missing-config", "missing-trajectory"])
def test_an_unreadable_input_file_is_a_configuration_error(tmp_path, capsys,
                                                           case):
    argv, path = _unreadable_input(case, tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


def test_every_config_field_has_a_run_flag():
    flags = set(vars(build_parser().parse_args(["run"])))
    flags -= {"command", "func", "config"}
    assert flags == {f.name for f in dataclasses.fields(ExperimentConfig)}


def test_verify_subcommand_reads_back_a_checkpoint(tmp_path, capsys):
    rundir = tmp_path / "run"
    argv = ["--family", "smallstep", "--eta", "0.1", "--steps", "10",
            "--seeds", "0"]
    assert main(["run", *argv, "--out", str(rundir)]) == 0
    checkpoint = rundir / "smallstep-s0-trajectory"

    report_path = tmp_path / "verify.json"
    code = main(["verify", *argv, "--trajectory", str(checkpoint),
                 "--out", str(report_path)])
    assert code == 0
    assert json.loads(report_path.read_text())["passed"] is True

    # a checkpoint for a different horizon has the wrong dimension
    bad = main(["verify", "--family", "smallstep", "--eta", "0.1",
                "--steps", "12", "--trajectory", str(checkpoint)])
    assert bad == 2
    assert "does not match" in capsys.readouterr().err


def test_risk_table_prints_csv(capsys):
    code = main(["risk", "--family", "smallstep", "--eta", "0.1",
                 "--steps", "8", "--suffix", "1,2,4"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("seed,family,suffix_length,")
    assert len(lines) == 4
    assert all(line.startswith("0,smallstep,") for line in lines[1:])


def test_yaml_config_drives_a_run(tmp_path):
    cfg = tmp_path / "smallstep.yaml"
    cfg.write_text(
        "family: smallstep\neta: 0.1\nsteps: 10\nseeds: [0]\nsuffix: [1, 2]\n"
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "smallstep-run-summary.json").read_text())
    assert summary["passed"] is True
    # a flag on the command line beats the file
    assert main(["run", "--config", str(cfg), "--steps", "12",
                 "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "smallstep-run-summary.json").read_text())
    assert summary["config"]["steps"] == 12


def test_yaml_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("family: smallstep\neta: 0.1\nsteps: 10\nflavor: spicy\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "flavor" in capsys.readouterr().err


def test_acceptance_command_reports_a_suite(tmp_path, capsys):
    out = tmp_path / "acceptance.json"
    code = main(["acceptance", "gd-event", "--json", str(out)])
    assert code == 0
    assert "gd-event" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload[0]["suite"] == "gd-event"
    assert payload[0]["passed"] is True
    assert payload[0]["budget_seconds"] == acceptance.SUITES["gd-event"][1]
    assert payload[0]["elapsed_seconds"] < payload[0]["budget_seconds"]


def test_a_suite_over_its_budget_fails_the_acceptance_command(
        monkeypatch, capsys):
    suite, _ = acceptance.SUITES["gd-event"]
    monkeypatch.setitem(acceptance.SUITES, "gd-event", (suite, 0.0))
    assert main(["acceptance", "gd-event"]) == 1
    out = capsys.readouterr().out
    assert "[PASS] gd-event" in out
    assert "note: exceeded the 0s budget" in out


def test_acceptance_json_writes_numpy_check_flags_as_booleans(tmp_path):
    # gd-risk compares against a numpy closed form, so its flags are numpy
    # bools until the JSON hook writes them
    out = tmp_path / "acceptance.json"
    assert main(["acceptance", "gd-risk", "--json", str(out)]) == 0
    [suite] = json.loads(out.read_text())
    assert suite["checks"]
    assert all(check["passed"] is True for check in suite["checks"])


@pytest.mark.parametrize("family", [
    [*_GD_TINY, "--policy", "reject-until-E"],
    [*_SGD_TINY, "--policy", "force"],
], ids=["gd", "sgd"])
def test_run_json_artifacts_are_their_payload_dumps(tmp_path, family):
    out = tmp_path / "out"
    assert main(["run", *family, "--seeds", "0..2", "--suffix", "1,2",
                 "--out", str(out)]) == 0
    paths = sorted(out.glob("*-verify.json")) + sorted(out.glob("*-run-summary.json"))
    assert len(paths) == 3
    for path in paths:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2)


_FLOATS = st.floats() | st.sampled_from(
    [-0.0, 0.0, float("nan"), float("inf"), -float("inf")])
# any text, non-ASCII and control characters included
_SCALARS = st.none() | st.booleans() | st.integers() | _FLOATS | st.text(max_size=6)
_NUMPY = st.one_of(
    st.booleans().map(np.bool_),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    _FLOATS.map(np.float64),
    _FLOATS.map(np.array),  # 0-d
    st.lists(_FLOATS, max_size=3).map(np.array),
    st.lists(st.integers(-9, 9), max_size=4).map(lambda v: np.array(v, dtype=np.int64)),
)
_NUMBERS = _FLOATS | _NUMPY
_STEP = st.builds(StepDeviation, st.integers(), _NUMBERS, _NUMBERS, st.booleans())
_REPORTS = st.one_of(
    _STEP,
    st.builds(TrajectoryReport, st.lists(_STEP, max_size=3).map(tuple),
              _FLOATS, _FLOATS, st.booleans()),
    st.builds(MarginReport, st.lists(st.builds(
        instance_gd.MarginStep, st.integers(), _FLOATS, _FLOATS, _FLOATS,
        _FLOATS, st.booleans(), st.booleans()), max_size=2).map(tuple),
              st.booleans()),
    st.builds(NormReport, _NUMBERS, st.booleans()),
    st.builds(instance_gd.EventReport, st.booleans(), st.text(max_size=6)),
    st.builds(risk.ThresholdRecord, st.text(max_size=6), _FLOATS, _FLOATS,
              st.booleans()),
)
_KEYS = st.text(max_size=6) | st.integers() | _FLOATS | st.booleans() | st.none()
_ARTIFACTS = st.recursive(
    _SCALARS | _NUMPY | _REPORTS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=24)


@given(_ARTIFACTS)
@settings(derandomize=True, max_examples=150)
def test_artifact_json_is_json_dumps_at_indent_two(obj):
    assert _artifact_json(obj) == json.dumps(obj, indent=2, default=_json_default)


def test_artifact_json_refuses_what_json_dumps_refuses():
    for obj in ({(1, 2): 0}, {np.int64(1): 0}, object(), [1, {"a": {2j}}]):
        with pytest.raises(TypeError) as want:
            json.dumps(obj, indent=2, default=_json_default)
        with pytest.raises(TypeError) as got:
            _artifact_json(obj)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("flags, named", [
    (["--seeds", "x"], "--seeds"),
    (["--seeds", "1,x"], "--seeds"),
    (["--seeds", "5..2"], "--seeds"),
    (["--suffix", "1,a"], "--suffix"),
    (["--suffix", "4..1"], "--suffix"),
])
def test_int_list_flags_refuse_bad_entries(tmp_path, capsys, flags, named):
    out = tmp_path / "out"
    assert main(["run", *_SGD_TINY, "--policy", "force", *flags,
                 "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_suffix_takes_a_range_like_seeds(tmp_path):
    argv = ["risk", "--family", "smallstep", "--eta", "0.02", "--steps", "100"]
    assert main([*argv, "--suffix", "1..4", "--out", str(tmp_path / "a")]) == 0
    assert main([*argv, "--suffix", "1,2,3", "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


@pytest.mark.parametrize("flags, named", [
    (["--suffix", "99"], "--suffix"),
    (["--suffix", "0,1"], "--suffix"),
    (["--mc-samples", "1"], "--mc-samples"),
    (["--smoothing", "--smoothing-samples", "1"], "--smoothing-samples"),
])
def test_bad_risk_settings_are_refused_before_any_artifact(tmp_path, capsys,
                                                           flags, named):
    out = tmp_path / "out"
    assert main(["run", *_SGD_TINY, "--policy", "force", *flags,
                 "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "risk"])
def test_verify_and_risk_refuse_more_than_one_seed(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([command, "--family", "smallstep", "--eta", "0.02",
                 "--steps", "100", "--seeds", "3,4", "--out", str(out)]) == 2
    assert "--seeds" in capsys.readouterr().err
    assert not out.exists()


_SMALLSTEP_YAML = "family: smallstep\neta: 0.02\nsteps: 100\n"
_GD_YAML = ("family: gd\nn: 2\ndirections: 4\nsteps: 8\ndprime: 8\n"
            "policy: reject-until-E\n")


@pytest.mark.parametrize("line, named", [
    ("suffix: [2.7]", "--suffix"),
    ("seeds: [0.5]", "--seeds"),
    ("seeds: [true]", "--seeds"),
    ("seeds: 1.0", "--seeds"),
    ("suffix: {start: 1.5, stop: 3}", "--suffix"),
    ("seeds: {start: 0, stop: 2.0}", "--seeds"),
    # every other key takes its field's type as well
    ("mc_samples: 20000.5", "key mc_samples takes an integer"),
    ("n: 4.0", "key n takes an integer"),
    ("projected: 'no'", "key projected takes a bool"),
    ("eta: '0.05'", "key eta takes a float"),
    # a null keeps the default, theorem mode on, which caps eta
    ("{theorem_mode: null, eta: 0.5}", "theorem mode caps eta"),
])
def test_yaml_int_lists_refuse_floats_and_booleans(tmp_path, capsys, line,
                                                   named):
    # the line's keys replace the base config's
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump({**yaml.safe_load(_GD_YAML),
                                   **yaml.safe_load(line)}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and named in err
    assert not out.exists()


def test_yaml_int_lists_take_integer_strings(tmp_path):
    cfg = tmp_path / "risk.yaml"
    cfg.write_text(_SMALLSTEP_YAML.replace("100", "'100'")
                   + "seeds: ['3']\nsuffix: ['1', 10]\n")
    out = tmp_path / "risk.csv"
    assert main(["risk", "--config", str(cfg), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert [row.split(",")[:3] for row in rows] == [
        ["3", "smallstep", "1"], ["3", "smallstep", "10"]]


@pytest.mark.parametrize("argv, named", [
    (["run", *_SGD_TINY, "--policy", "force", "--seeds=-1"], "--seeds"),
    (["run", *_SGD_TINY, "--policy", "force", "--seeds=-1..2"], "--seeds"),
    (["run", *_SGD_TINY, "--policy", "force", "--mc-seed", "-1"], "--mc-seed"),
    (["run", *_SGD_TINY, "--policy", "force", "--smoothing",
      "--smoothing-seed", "-1"], "--smoothing-seed"),
    (["run", *_SGD_TINY, "--policy", "force", "--codebook-seed", "-1"],
     "--codebook-seed"),
    (["run", *_SGD_TINY, "--policy", "force", "--eta", "0",
      "--no-theorem-mode"], "eta > 0"),
    (["run", *_GD_TINY, "--policy", "reject-until-E", "--eta", "-0.1",
      "--no-theorem-mode"], "eta > 0"),
    (["gen-codebook", "--directions", "4", "--seed", "-1"], "--seed"),
], ids=["seeds", "seed-range", "mc-seed", "smoothing-seed", "codebook-seed",
        "sgd-eta-0", "gd-eta-negative", "gen-codebook-seed"])
def test_negative_seeds_and_steps_are_refused_before_any_artifact(
        tmp_path, capsys, argv, named):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and named in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    [*_SGD_TINY, "--policy", "force"],
    [*_GD_TINY, "--policy", "reject-until-E"],
], ids=["sgd", "gd"])
def test_a_multi_seed_run_equals_single_seed_runs(tmp_path, argv):
    # the seeds of one run share the held population sample; each single
    # run below draws its own from an empty memo
    argv = [*argv, "--suffix", "1,2"]
    family = argv[1]

    def artifacts(seeds, out):
        risk._population_sample.cache_clear()
        assert main(["run", *argv, "--seeds", seeds, "--out", str(out)]) == 0
        table = (out / f"{family}-risk.csv").read_text().splitlines()
        summary = json.loads((out / f"{family}-run-summary.json").read_text())
        for result in summary["results"]:
            result.pop("elapsed_seconds")
        for key in ("seeds", "out"):
            summary["config"].pop(key)
        return table, summary

    table, summary = artifacts("0..5", tmp_path / "all")
    singles = [artifacts(str(seed), tmp_path / f"s{seed}") for seed in range(5)]
    assert table[0] == singles[0][0][0]  # the header
    assert table[1:] == [row for t, _ in singles for row in t[1:]]
    assert summary["config"] == singles[0][1]["config"]
    assert summary["results"] == [r for _, s in singles for r in s["results"]]
    assert summary["passed"] is all(s["passed"] for _, s in singles)
    assert len(summary["results"]) == 5


def test_main_builds_its_parser_once(tmp_path):
    build_parser.cache_clear()
    argv = ["gen-codebook", "--directions", "4", "--out",
            str(tmp_path / "codebook.json")]
    assert main(argv) == 0
    assert main(argv) == 0
    assert build_parser.cache_info().misses == 1
    first, second = (build_parser().parse_args(argv) for _ in range(2))
    assert first is not second and vars(first) == vars(second)


_FORK = os.fork


def _usable_cpus(monkeypatch, count):
    """Give `run` count usable CPUs; returns the list of its forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    forks = []

    def counted():
        forks.append(os.getpid())
        return _FORK()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_ELAPSED = re.compile(r'("elapsed_seconds": )[^,\n}]+')
_PROGRESS_TIME = re.compile(r"\(\d+\.\d+s\)")


def _masked_run(argv, out, capsys):
    """main(run argv) at out: (exit code, stdout, stderr, {file: bytes}),
    with out's path and the timings masked."""
    code = main(["run", *argv, "--out", str(out)])
    stdout, stderr = capsys.readouterr()
    files = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".json":
            data = _ELAPSED.sub(r"\1<t>", data.decode().replace(str(out), "<out>"))
        files[path.name] = data
    stdout = _PROGRESS_TIME.sub("(<t>)", stdout.replace(str(out), "<out>"))
    return code, stdout, stderr, files


@pytest.mark.parametrize("argv, skipped", [
    ([*_SGD_TINY, "--policy", "force", "--seeds", "0..5", "--suffix", "1,2",
      "--mc-samples", "500"], []),
    # seeds 0, 4, 6 and 11 are off-event and the oracle cannot decode them
    (["--family", "gd", "--n", "4", "--directions", "4", "--steps", "8",
      "--dprime", "8", "--suffix", "1", "--policy", "unconditioned",
      "--seeds", "0..12", "--mc-samples", "500", "--smoothing",
      "--smoothing-samples", "2000"], [0, 4, 6, 11]),
], ids=["sgd-uneven-shards", "gd-skipped-seeds"])
def test_sharded_seeds_write_what_serial_seeds_write(tmp_path, capsys,
                                                     monkeypatch, argv,
                                                     skipped):
    runs = {}
    for workers in (1, 2, 3):
        forks = _usable_cpus(monkeypatch, workers)
        runs[workers] = _masked_run(argv, tmp_path / f"w{workers}", capsys)
        assert len(forks) == workers - 1
        _assert_no_child_left()
    code, stdout, stderr, files = runs[1]
    assert code == 0 and stderr == ""
    assert [int(line.split()[1][:-1]) for line in stdout.splitlines()
            if "skipped" in line] == skipped
    assert runs[2] == runs[1]
    assert runs[3] == runs[1]


def _failing_sgd_run(monkeypatch, fail):
    """Make cli.run_sgd call fail(dataset seed) before each run."""
    run_sgd = cli.run_sgd

    def run(codebook, dataset, params, **kwargs):
        fail(dataset.seed)
        return run_sgd(codebook, dataset, params, **kwargs)

    monkeypatch.setattr(cli, "run_sgd", run)


_SGD_FIVE = [*_SGD_TINY, "--policy", "force", "--seeds", "0..5",
             "--mc-samples", "200"]


# with two workers this process runs seeds 0, 2 and 4, a child 1 and 3
@pytest.mark.parametrize("failing", [{3}, {3, 4}, {1, 2}],
                         ids=["child", "child-before-parent", "child-first"])
def test_a_failing_seed_fails_a_sharded_run_as_a_serial_one(tmp_path, capsys,
                                                            monkeypatch,
                                                            failing):
    def fail(seed):
        if seed in failing:
            raise OutOfRange(f"seed {seed} fails")

    _failing_sgd_run(monkeypatch, fail)
    runs = {}
    for workers in (1, 2):
        forks = _usable_cpus(monkeypatch, workers)
        runs[workers] = _masked_run(_SGD_FIVE, tmp_path / f"w{workers}",
                                    capsys)[:3]
        assert len(forks) == workers - 1
        _assert_no_child_left()
    first = min(failing)
    assert runs[1] == (2, "".join(f"seed {seed}: pass (<t>)\n"
                                  for seed in range(first)),
                       f"error: seed {first} fails\n")
    assert runs[2] == runs[1]


def test_a_worker_that_dies_fails_the_run_naming_its_seeds(tmp_path,
                                                           monkeypatch):
    parent = os.getpid()

    def die(seed):
        if os.getpid() != parent:
            os._exit(3)

    _failing_sgd_run(monkeypatch, die)
    _usable_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match=r"seeds 1, 3 exited without a "
                                           r"result \(wait status 768\)"):
        main(["run", *_SGD_FIVE, "--out", str(tmp_path)])
    _assert_no_child_left()


def test_an_exception_that_cannot_be_pickled_comes_back_as_its_traceback(
        tmp_path, monkeypatch):
    class LocalError(Exception):
        """Local, so pickle cannot find it by name."""

    def fail(seed):
        if seed == 1:
            raise LocalError("seed 1 fails")

    _failing_sgd_run(monkeypatch, fail)
    _usable_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="seed 1 failed in a worker") as info:
        main(["run", *_SGD_FIVE, "--out", str(tmp_path)])
    assert "LocalError: seed 1 fails" in str(info.value)
    _assert_no_child_left()


def test_an_interrupted_sharded_run_leaves_no_child(tmp_path, monkeypatch):
    parent = os.getpid()

    def interrupt(seed):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)  # the child is still running when the parent stops

    _failing_sgd_run(monkeypatch, interrupt)
    _usable_cpus(monkeypatch, 2)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        main(["run", *_SGD_FIVE, "--out", str(tmp_path)])
    assert time.perf_counter() - t0 < 30  # killed, not waited for
    _assert_no_child_left()


def test_a_threaded_or_forkless_process_runs_its_seeds_serially(
        tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    stop = threading.Event()
    helper = threading.Thread(target=stop.wait)
    helper.start()
    try:
        assert main(["run", *_SGD_FIVE, "--out", str(tmp_path / "a")]) == 0
    finally:
        stop.set()
        helper.join()
    monkeypatch.delattr(os, "fork")
    assert main(["run", *_SGD_FIVE, "--out", str(tmp_path / "b")]) == 0
