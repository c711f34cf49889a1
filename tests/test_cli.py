import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from metastab import cli, sde
from metastab.cli import arrhenius_fit, main, parse_config
from metastab.errors import DomainError, InsufficientData
from metastab.sde import HittingTimeBatch

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SDE_ARGS = ["--epsilon", "0.3", "--dt", "0.002", "--x0", "-1", "--target", "1",
            "--delta", "0.2", "--n", "4"]
SWEEP_ARGS = ["--epsilon-list", "0.4,0.5,0.6", "--n", "4"]
SPDE_ARGS = ["--d", "1", "--L", "2", "--N", "4", "--epsilon", "0.5", "--dt",
             "0.01", "--delta", "0.3", "--t_max", "50", "--n", "4"]


def batch_with_mean(mean):
    """A batch of one hit at time mean; a batch's mean is infinite only where
    its sum overflows, as for two hits at the largest float."""
    return HittingTimeBatch(np.full(2, np.finfo(float).max) if mean == np.inf
                            else [mean])


class TestArrheniusFit:
    def test_exact_rate_law_recovered(self):
        prefactor, barrier = np.pi * np.sqrt(2), 0.25
        batches = [(eps, batch_with_mean(prefactor * np.exp(barrier / eps)))
                   for eps in (0.2, 0.25, 0.3, 0.35)]
        fit = arrhenius_fit(batches)
        assert fit.slope == pytest.approx(barrier, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(prefactor), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_insufficient_data(self):
        batches = [(0.2, batch_with_mean(1.0)), (0.3, batch_with_mean(2.0))]
        with pytest.raises(InsufficientData):
            arrhenius_fit(batches)

    def test_accepts_plain_floats(self):
        fit = arrhenius_fit([(e, np.exp(0.5 / e)) for e in (0.2, 0.4, 0.8)])
        assert fit.slope == pytest.approx(0.5)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", (0.0, np.inf))
    @pytest.mark.parametrize("wrap", (float, batch_with_mean))
    def test_time_without_a_logarithm_names_its_eps(self, bad, wrap):
        # log 0 and log inf would fit a nan slope
        pts = [(0.2, wrap(1.0)), (0.4, wrap(bad)), (0.8, wrap(3.0))]
        with pytest.raises(DomainError, match=r"mean time (0\.0|inf) at eps 0\.4 "):
            arrhenius_fit(pts)


class TestCliRuns:
    def test_determinant_csv(self, tmp_path):
        code = main(["determinant", "--d", "1", "--L", "3.1415926535",
                     "--N", "4096", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert lines[0].startswith("# manifest_hash=")
        assert lines[1] == "quantity,value"
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["relative_error"] < 1e-3
        assert summary["closed_form"] == pytest.approx(
            -np.sinh(np.pi / np.sqrt(2)) ** 2, rel=1e-9)

    def test_kramers_predict_quartic(self, tmp_path):
        code = main(["kramers-predict", "--system", "quartic",
                     "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["prefactor"] == pytest.approx(4.4428829, rel=1e-6)
        assert summary["barrier"] == pytest.approx(0.25)

    def test_missing_required_key_exits_2_without_output(self, tmp_path, capsys):
        out = tmp_path / "nothing"
        code = main(["spde-hitting", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        payload = json.loads(err.strip().splitlines()[-1])
        assert "missing required parameter" in payload["message"]

    @pytest.mark.parametrize("experiment,cfg", (
        ("arrhenius-sweep", {"parameters": {"epsilon_list": 0.3, "n": 4}}),
        ("sde-hitting", {"parameters": {
            "epsilon": "0.3", "dt": 0.002, "x0": -1, "target": 1,
            "delta": 0.2, "n": 4}}),
        ("determinant", {"parameters": {"d": 1, "L": 2.0, "N": 64},
                         "threads": "2"}),
        # values are checked, not converted: 8.7 would run as N = 8, "8" as
        # n = 8, and "off" would run renormalized (it is truthy)
        ("determinant", {"parameters": {"d": 1, "L": 2.0, "N": 8.7}}),
        ("sde-hitting", {"parameters": {
            "epsilon": 0.3, "dt": 0.002, "x0": -1, "target": 1,
            "delta": 0.2, "n": "8"}}),
        ("spde-hitting", {"parameters": {
            "d": 2, "L": 2.0, "N": 4, "epsilon": 0.5, "dt": 0.005,
            "delta": 0.5, "t_max": 1.0, "n": 2, "renormalize": "off"}}),
        # seed and threads too: 7.9 and "7" would run as seed 7, true as 1
        ("determinant", {"parameters": {"d": 1, "L": 2.0, "N": 8}, "seed": 7.9}),
        ("determinant", {"parameters": {"d": 1, "L": 2.0, "N": 8}, "seed": "7"}),
        ("determinant", {"parameters": {"d": 1, "L": 2.0, "N": 8}, "seed": True}),
        ("determinant", {"parameters": {"d": 1, "L": 2.0, "N": 8},
                         "threads": 2.5}),
    ))
    def test_wrong_type_config_value_exits_2_without_output(
            self, experiment, cfg, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = main([experiment, "--config", str(cfg_file), "--out", str(out)])
        assert code == 2
        assert not (out / "results.csv").exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "message" in json.loads(err[0])

    @pytest.mark.parametrize("key,value", (
        ("N", 8.7), ("N", True), ("L", "2.0"), ("L", False), ("n", "8"),
        ("renormalize", "off"), ("renormalize", 1), ("norm", 1),
        ("epsilon_list", [0.3, "0.4"]), ("epsilon", [0.3]),
        ("seed", 7.9), ("seed", "7"), ("seed", True), ("threads", 2.5)))
    def test_wrong_type_config_value_is_named(self, key, value, tmp_path,
                                              capsys):
        # an int key takes a JSON integer, a float key a number (bools are
        # neither), a str key a string, epsilon_list a list of numbers and
        # renormalize a boolean; seed and threads sit beside the parameters
        experiment = "arrhenius-sweep" if key == "epsilon_list" else "spde-hitting"
        top_level = key in ("seed", "threads")
        cfg = {key: value} if top_level else {"parameters": {key: value}}
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(cfg))
        assert main([experiment, "--config", str(cfg_file),
                     "--out", str(tmp_path / "out")]) == 2
        message = json.loads(capsys.readouterr().err)["message"]
        name = key if top_level else f"parameter {key}"
        assert f"{name} has the wrong type" in message

    def test_config_seed_runs_as_the_flag(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"parameters": {
            "epsilon": 0.3, "dt": 0.002, "x0": -1.0, "target": 1.0,
            "delta": 0.2, "n": 4}, "seed": 7}))
        assert main(["sde-hitting", *SDE_ARGS, "--seed", "7",
                     "--out", str(tmp_path / "a")]) == 0
        assert main(["sde-hitting", "--config", str(cfg_file),
                     "--out", str(tmp_path / "b")]) == 0
        # the first line of results.csv is the config hash
        a, b = ((tmp_path / o / "results.csv").read_bytes() for o in "ab")
        assert a == b

    @pytest.mark.filterwarnings("ignore:running the d=2 field without")
    def test_config_values_of_the_flag_type_run_as_the_flags(self, tmp_path):
        flags = ["--d", "2", "--L", "1.5", "--N", "4", "--epsilon", "0.6",
                 "--dt", "2e-3", "--t_max", "1", "--start", "0", "--delta", "1.3",
                 "--norm", "hs", "--n", "4", "--renormalize", "off"]
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"parameters": {
            "d": 2, "L": 1.5, "N": 4, "epsilon": 0.6, "dt": 2e-3, "t_max": 1,
            "start": 0, "delta": 1.3, "norm": "hs", "n": 4, "renormalize": False}}))
        assert main(["spde-hitting", *flags, "--out", str(tmp_path / "a")]) == 0
        assert main(["spde-hitting", "--config", str(cfg_file),
                     "--out", str(tmp_path / "b")]) == 0
        a, b = ((tmp_path / o / "results.csv").read_text().splitlines()
                for o in "ab")
        assert a[1:] == b[1:]

    @pytest.mark.parametrize("experiment,cfg,key", (
        ("sde-hitting", {"parameters": {
            "epsilon": 0.3, "dt": 0.002, "x0": -1, "target": 1, "delta": 0.2,
            "n": 4, "tmax": 1.0}}, "tmax"),
        ("arrhenius-sweep", {"parameters": {"epsilon-list": [0.3, 0.4, 0.5],
                                            "n": 4}}, "epsilon-list"),
        ("determinant", {"parameters": {"d": 1, "L": 2.0, "N": 8},
                         "sede": 3}, "sede"),
        ("determinant", [{"parameters": {"d": 1, "L": 2.0, "N": 8}}], "object"),
        ("determinant", {"parameters": [["d", 1], ["L", 2.0], ["N", 8]]},
         "object"),
        ("determinant", {"parameters": {"d": 1, "L": 2.0, "N": 8,
                                        "n_walks": 3}}, "n_walks"),
        ("kramers-predict", {"parameters": {"system": "quartic", "L": 2.0}},
         "L"),
        ("arrhenius-sweep", {"parameters": {"epsilon_list": [0.4, 0.5, 0.6],
                                            "n": 4, "d": 2}}, "d"),
    ))
    def test_unknown_config_key_exits_2_without_output(
            self, experiment, cfg, key, tmp_path, capsys):
        # a misspelt key would otherwise run on the default it meant to
        # change, and a config that is not an object would crash
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = main([experiment, "--config", str(cfg_file), "--out", str(out)])
        assert code == 2
        assert not (out / "results.csv").exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert key in json.loads(err[0])["message"]

    def test_all_censored_exit_code(self, tmp_path):
        code = main(["sde-hitting", "--epsilon", "0.0001", "--dt", "0.001",
                     "--x0", "-1", "--target", "1", "--delta", "0.05",
                     "--n", "4", "--t_max", "0.05", "--out", str(tmp_path)])
        assert code == 3

    @pytest.mark.parametrize("threads", (1, 2))
    @pytest.mark.parametrize("experiment,args", (
        ("sde-hitting", ["--epsilon", "0.3", "--dt", "0.002", "--x0", "-1",
                         "--target", "1", "--delta", "0.2"]),
        ("spde-hitting", ["--d", "1", "--L", "2.0", "--N", "4", "--epsilon", "0.5",
                          "--dt", "0.005", "--delta", "0.5", "--t_max", "1"]),
    ))
    def test_zero_replicas_exit_2_at_any_thread_count(self, experiment, args,
                                                      threads, tmp_path):
        code = main([experiment, *args, "--n", "0", "--threads", str(threads),
                     "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("experiment,args", (
        ("ou-check", ["--n", "0"]),
        ("ou-check", ["--n", "1"]),
        ("randomwalk", ["--n_walks", "0", "--n_steps", "10"]),
        ("randomwalk", ["--n_walks", "1", "--n_steps", "10"]),
        ("randomwalk", ["--n_walks", "10", "--n_steps", "0"]),
    ))
    def test_too_few_replicas_or_steps_exit_2_without_output(
            self, experiment, args, tmp_path, capsys):
        ou = ["--epsilon", "0.1", "--t", "0.1", "--dt", "0.01"]
        out = tmp_path / "out"
        code = main([experiment, *(ou if experiment == "ou-check" else []),
                     *args, "--out", str(out)])
        assert code == 2
        assert not (out / "results.csv").exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "must be >=" in json.loads(err[0])["message"]

    @pytest.mark.parametrize("experiment,args,phrase", (
        ("spde-hitting", [*SPDE_ARGS, "--snapshots", "-2"],
         "parameter snapshots must be >= 0"),
        ("randomwalk", ["--n_walks", "10", "--n_steps", "5", "--s", "0.5",
                        "--t", "0.25"], "parameter s must be below t"),
        ("randomwalk", ["--n_walks", "10", "--n_steps", "5", "--s", "0.5",
                        "--t", "0.5"], "parameter s must be below t"),
        # the engine would run 2 steps and 10 (or 11) where the law is read
        # at 1.5 and 10.5
        ("ou-check", ["--epsilon", "0.1", "--t", "0.0015", "--dt", "0.001",
                      "--n", "100000"], "parameter t must be a whole number of dt steps"),
        ("ou-check", ["--epsilon", "0.1", "--t", "0.0105", "--dt", "0.001",
                      "--n", "100000"], "parameter t must be a whole number of dt steps"),
    ))
    def test_out_of_range_parameter_exits_2_before_running(
            self, experiment, args, phrase, tmp_path, capsys, monkeypatch):
        def ran(*_args, **_kw):
            raise AssertionError("ran before the range check")

        monkeypatch.setattr(cli, "_parallel_raw", ran)  # randomwalk's runner too
        out = tmp_path / "out"
        assert main([experiment, *args, "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {"error": "ConfigError", "message": phrase}

    @pytest.mark.parametrize("argv", (
        ["rate-functional", "--path_csv", "missing.csv"],
        ["rate-functional", "--field_jsonl", "missing.jsonl"],
        ["determinant", "--config", "missing.json"],
    ))
    def test_unreadable_input_exits_2_with_one_json_line(self, argv, tmp_path,
                                                         capsys):
        out = tmp_path / "out"
        assert main([*argv[:-1], str(tmp_path / argv[-1]), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        payload = json.loads(err[0])
        assert payload["error"] == "FileNotFoundError"
        assert argv[-1] in payload["message"]

    def test_unwritable_out_exits_2_with_one_json_line(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        assert main(["determinant", "--d", "1", "--L", "2", "--N", "4",
                     "--out", str(tmp_path / "file" / "out")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "NotADirectoryError"

    def test_unwritable_out_exits_2_before_running(self, tmp_path, capsys,
                                                    monkeypatch):
        def ran(*_args, **_kw):
            raise AssertionError("ran before the out directory was made")

        monkeypatch.setattr(cli, "_parallel_raw", ran)
        (tmp_path / "file").write_text("")
        assert main(["sde-hitting", *SDE_ARGS[:-1], "500",
                     "--out", str(tmp_path / "file" / "sub")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "NotADirectoryError"

    @pytest.mark.parametrize("eps_list", ("0.3,0.4", "0.3,0.4,0.4"))
    def test_sweep_of_fewer_than_three_eps_exits_2_before_running(
            self, eps_list, tmp_path, capsys, monkeypatch):
        def ran(*_args, **_kw):
            raise AssertionError("ran before the eps count check")

        monkeypatch.setattr(cli, "_parallel_raw", ran)
        monkeypatch.setitem(cli._EXPERIMENTS, "arrhenius-sweep",
                            (ran, *cli._EXPERIMENTS["arrhenius-sweep"][1:]))
        out = tmp_path / "out"
        assert main(["arrhenius-sweep", "--epsilon-list", eps_list, "--n", "200",
                     "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {"error": "InsufficientData",
                                      "message": "need at least 3 distinct eps values"}

    @pytest.mark.parametrize("argv", (
        ["sde-hitting", *SDE_ARGS],
        ["potential-theory", "--epsilon", "0.25"],
        ["rate-functional", "--path_csv", "missing.csv"],  # named before reading
        ["arrhenius-sweep", *SWEEP_ARGS],
    ))
    def test_unknown_potential_is_named_before_running(self, argv, tmp_path,
                                                       capsys, monkeypatch):
        def ran(*_args, **_kw):
            raise AssertionError("ran before the potential check")

        monkeypatch.setattr(cli, "_parallel_raw", ran)
        out = tmp_path / "out"
        assert main([*argv, "--potential", "cubic", "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {"error": "ConfigError",
                                      "message": "unknown potential 'cubic'"}

    def test_field_side_outside_the_counterterm_range_names_L(self, tmp_path,
                                                                capsys):
        args = list(SPDE_ARGS)
        args[args.index("--L") + 1] = "7"
        assert main(["spde-hitting", *args, "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "ConfigError", "message": "L must lie in (0, 2*pi)"}

    def test_determinant_dimension_is_the_truncation_check(self, tmp_path, capsys):
        code = main(["determinant", "--d", "3", "--L", "2", "--N", "8",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert not (tmp_path / "out").exists()
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "DomainError",
                       "message": "only d=1 and d=2 are supported"}

    def test_snapshots_write_files_and_keep_the_hitting_rows(self, tmp_path):
        base = ["spde-hitting", *SPDE_ARGS, "--seed", "11"]
        assert main([*base, "--out", str(tmp_path / "plain")]) == 0
        assert main([*base, "--snapshots", "3", "--out", str(tmp_path / "snap")]) == 0
        snaps = tmp_path / "snap" / "snapshots"
        assert sorted(f.name for f in snaps.iterdir()) == [
            "snap_0000.csv", "snap_0001.csv", "snap_0002.csv", "trajectory.jsonl"]
        assert len((snaps / "trajectory.jsonl").read_text().splitlines()) == 3
        rows = [(tmp_path / run / "results.csv").read_text().splitlines()[1:]
                for run in ("plain", "snap")]
        assert rows[0] == rows[1]

    def test_negative_cutoff_names_the_cutoff(self, tmp_path, capsys):
        code = main(["spde-hitting", "--d", "1", "--L", "2", "--N", "-1",
                     "--epsilon", "0.5", "--dt", "0.005", "--delta", "0.5",
                     "--t_max", "1", "--n", "2", "--out", str(tmp_path / "out")])
        assert code == 2
        assert not (tmp_path / "out" / "results.csv").exists()
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "DomainError",
                       "message": "cutoff N must be nonnegative"}

    def test_validation_rejects_bad_L(self, tmp_path):
        code = main(["determinant", "--d", "1", "--L", "7.0", "--N", "16",
                     "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("system", ("ac1d", "ac2d", "ac1d-galerkin"))
    def test_kramers_predict_rejects_bad_L(self, system, tmp_path):
        # the library's DomainError (Galerkin route: DegenerateHessian) exits 2
        code = main(["kramers-predict", "--system", system, "--L", "7",
                     "--N", "16", "--out", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["spde-hitting", "--d", "1", "--L", "2", "--N", "4", "--epsilon", "0.1",
         "--delta", "0.5", "--t_max", "60", "--n", "8", "--start", "-0.5"],
        ["arrhenius-sweep", "--system", "ac1d", "--L", "2", "--N", "4", *SWEEP_ARGS],
    ])
    def test_field_dt_of_one_or_more_exits_2_without_output(self, argv, tmp_path,
                                                           capsys):
        # the implicit step divides the mean mode by 1 - dt
        code = main([*argv, "--dt", "1.5", "--out", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / "results.csv").exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "DomainError"

    @pytest.mark.parametrize("t_max", ("0", "-5"))
    def test_sde_nonpositive_horizon_exits_2_without_output(self, t_max, tmp_path,
                                                            capsys):
        code = main(["sde-hitting", *SDE_ARGS, "--t_max", t_max,
                     "--out", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / "results.csv").exists()
        assert "t_max" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("argv, key", [
        (["sde-hitting", *SDE_ARGS, "--t_max", "inf"], "t_max"),
        (["spde-hitting", *SPDE_ARGS, "--t_max", "inf"], "t_max"),
        (["ou-check", "--epsilon", "0.1", "--t", "inf", "--dt", "0.001",
          "--n", "40"], "t"),
    ])
    def test_non_finite_flag_exits_2_without_output(self, argv, key, tmp_path,
                                                   capsys):
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "results.csv").exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["message"] == f"parameter {key} must be finite"

    @pytest.mark.parametrize("experiment, params, key", [
        ("arrhenius-sweep", {"epsilon_list": [0.4, float("inf")], "n": 4},
         "epsilon_list"),
        ("kramers-predict", {"epsilon": [0.4, float("nan")]}, "epsilon"),
        ("sde-hitting", {"t_max": float("-inf")}, "t_max"),
    ])
    def test_non_finite_config_value_exits_2_without_output(
            self, experiment, params, key, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"parameters": params}))  # Infinity, NaN
        out = tmp_path / "out"
        assert main([experiment, "--config", str(cfg_file), "--out", str(out)]) == 2
        assert not (out / "results.csv").exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["message"] == f"parameter {key} must be finite"

    @pytest.mark.parametrize("argv, key", [
        (["determinant", "--d", "1", "--L", "2", "--N", "0"], "tail_estimate"),
        # one hit gives an infinite standard error
        (["sde-hitting", *SDE_ARGS, "--n", "1"], "stderr"),
    ])
    def test_non_finite_summary_value_is_strict_json_null(self, argv, key,
                                                          tmp_path):
        def reject(token):
            raise ValueError(f"{token} is not JSON")

        assert main([*argv, "--out", str(tmp_path)]) == 0
        text = (tmp_path / "summary.json").read_text()
        assert json.loads(text, parse_constant=reject)[key] is None

    def test_non_finite_csv_value_stays_inf(self, tmp_path):
        assert main(["determinant", "--d", "1", "--L", "2", "--N", "0",
                     "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert "tail_estimate,inf" in lines

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = {"experiment": "determinant",
               "parameters": {"d": 1, "L": 2.0, "N": 64}, "seed": 3}
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(cfg))
        code = main(["determinant", "--config", str(cfg_file),
                     "--N", "128", "--out", str(tmp_path)])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["parameters"]["N"] == 128
        assert manifest["seed"] == 3

    @pytest.mark.parametrize("t, dt", (
        (0.7, 0.001),  # 699.9999999999999 steps: 700
        (0.35, 0.001),  # 349.99999999999994 steps: 350
        (0.07, 0.01),  # 7.000000000000001 steps: 7
        (0.002, 0.001),
    ))
    def test_ou_check_takes_t_within_ulps_of_whole_steps(self, t, dt, tmp_path):
        code = main(["ou-check", "--epsilon", "0.1", "--t", str(t), "--dt", str(dt),
                     "--n", "4000", "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["all_passed"] is True

    def test_ou_check(self, tmp_path):
        code = main(["ou-check", "--epsilon", "0.1", "--t", "1.0",
                     "--dt", "0.001", "--n", "4000", "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["all_passed"] is True

    def test_potential_theory(self, tmp_path):
        code = main(["potential-theory", "--epsilon", "0.2",
                     "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["magic_identity_residual"] <= 0.10

    def test_potential_theory_solves_twice(self, tmp_path, monkeypatch):
        # the residual reads the run's mean hitting time and committor
        # instead of solving both again
        from metastab import potential_theory

        calls = []
        solve = potential_theory._solve
        monkeypatch.setattr(potential_theory, "_solve",
                            lambda *a: calls.append(1) or solve(*a))
        assert main(["potential-theory", "--epsilon", "0.25",
                     "--out", str(tmp_path)]) == 0
        assert len(calls) == 2

    def test_potential_theory_reads_the_start_node_of_A(self, tmp_path, quartic):
        # with A and B swapped the global minimum of V lies in B, where the
        # mean hitting time is 0; the row reads it at A's lowest node
        from metastab.potential_theory import Grid1D, solve_poisson, start_node

        A, B = (0.8, 1.2), (-1.2, -0.8)
        cfg = tmp_path / "swapped.json"
        cfg.write_text(json.dumps({"parameters": {"epsilon": 0.25, "A": A, "B": B}}))
        assert main(["potential-theory", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        grid = Grid1D(-2.5, 2.5, 1999)
        want = solve_poisson(grid, quartic, 0.25, B)[start_node(grid, quartic, A)]
        assert want != 0.0
        assert summary["mean_hitting_time_at_minimum"] == want
        assert summary["magic_identity_residual"] <= 0.10

    def test_rate_functional_from_csv(self, tmp_path, quartic):
        from metastab.rate_functional import path_from_states, save_path_csv
        from metastab.sde import integrate_path
        from metastab import SdeRun

        run = SdeRun(quartic, epsilon=0.0, dt=1e-3, x0=[0.01], seed=0)
        times, states = integrate_path(run, 15.0, record=True)
        p = tmp_path / "path.csv"
        save_path_csv(path_from_states(times, states), str(p))
        code = main(["rate-functional", "--path_csv", str(p),
                     "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["cost"] < 1e-4
        assert summary["cost_reversed"] == pytest.approx(0.5, rel=0.05)

    def test_rate_functional_from_field_jsonl(self, tmp_path, capsys):
        # --L must name the torus the path lives on; the functional reads L
        # off the path, so a mismatch stops at the input
        from metastab.fields import constant_field
        from metastab.rate_functional import FieldPath, save_field_path_jsonl

        c = constant_field(1, 2.0, 4, 0.0).coeffs
        f = tmp_path / "path.jsonl"
        save_field_path_jsonl(FieldPath(times=np.array([0.0, 0.1]), d=1, L=2.0,
                                        N=4, coeffs=np.array([c, c])), str(f))
        for L, code in (("2", 0), ("3", 2)):
            out = tmp_path / f"out_L{L}"
            assert main(["rate-functional", "--field_jsonl", str(f), "--L", L,
                         "--out", str(out)]) == code
            assert (out / "results.csv").exists() == (code == 0)
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        payload = json.loads(err[0])
        assert payload["error"] == "ShapeMismatch"
        assert "2.0 != requested 3.0" in payload["message"]

    def test_rate_functional_refuses_a_path_on_no_torus(self, tmp_path, capsys):
        # the band rule runs when the path is read: exit 2, one JSON line
        f = tmp_path / "path.jsonl"
        f.write_text("".join(
            json.dumps({"t": t, "d": 1, "L": -2.0, "N": 1, "re": [0.0] * 3,
                        "im": [0.0] * 3}) + "\n" for t in (0.0, 0.1)))
        out = tmp_path / "out"
        assert main(["rate-functional", "--field_jsonl", str(f),
                     "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {"error": "DomainError",
                                      "message": "torus side length must be positive"}

    @pytest.mark.parametrize("flag, text, error, message", [
        # a NaN time passed the times rule, written as a test for decrease,
        # and the run exited 0 with cost nan
        ("--path_csv", "t,x0\n0.0,-1.0\nnan,0.0\n1.0,1.0\n", "DegeneratePath",
         "times must be strictly increasing"),
        ("--field_jsonl", "".join(
            json.dumps({"t": t, "d": 1, "L": 2.0, "N": 1, "re": [0.0] * 3,
                        "im": [0.0] * 3}) + "\n" for t in (0.0, float("nan"))),
         "DegeneratePath", "times must be strictly increasing"),
    ], ids=("csv", "jsonl"))
    def test_rate_functional_refuses_a_nan_time(self, tmp_path, capsys, flag, text,
                                                error, message):
        f = tmp_path / "path"
        f.write_text(text)
        out = tmp_path / "out"
        assert main(["rate-functional", flag, str(f), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {"error": error, "message": message}

    @pytest.mark.parametrize("row, error, message", [
        ({"t": 0.0, "d": 1, "N": 1, "re": [0.0] * 3, "im": [0.0] * 3},
         "ValueError", "row 1 has no 'L'"),
        ([1, 2], "ValueError", "row 1 is not a JSON object"),
        ({"t": 0.0, "d": 1, "L": 2.0, "N": 1, "re": [0.0], "im": [0.0] * 3},
         "ShapeMismatch", "row 1 has 1 re values, not (2N+1)^d = 3"),
        # a non-integer N whose (2N+1)^d matched the values exited 1 with a
        # TypeError from the reshape
        ({"t": 0.0, "d": 1, "L": 2.0, "N": 1.5, "re": [0.0] * 4, "im": [0.0] * 4},
         "ValueError", "row 1's 'N' is 1.5, not an integer"),
        # a NaN torus side passed the band rule, written as a test for L <= 0,
        # and the run exited 0 with cost nan
        ({"t": 0.0, "d": 1, "L": float("nan"), "N": 1, "re": [0.0] * 3,
          "im": [0.0] * 3}, "DomainError", "torus side length must be positive"),
    ])
    def test_rate_functional_refuses_a_bad_field_path_row(self, tmp_path, capsys,
                                                          row, error, message):
        # a row the loader cannot read is a validation error: exit 2, one
        # JSON line, where a missing key or a non-object row exited 1
        f = tmp_path / "path.jsonl"
        f.write_text("".join(json.dumps({**row, "t": t} if isinstance(row, dict)
                                        else row) + "\n" for t in (0.0, 0.1)))
        out = tmp_path / "out"
        assert main(["rate-functional", "--field_jsonl", str(f),
                     "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {"error": error, "message": message}

    def test_randomwalk_experiment(self, tmp_path):
        code = main(["randomwalk", "--n_walks", "3000", "--n_steps", "2000",
                     "--seed", "5", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert lines[1].split(",")[0] == "check"

    def test_arrhenius_sweep_synthetic(self, tmp_path):
        code = main(["arrhenius-sweep", "--system", "sde",
                     "--epsilon-list", "0.25,0.3,0.35", "--n", "40",
                     "--dt", "0.002", "--seed", "7", "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert 0.0 < summary["slope"] < 1.0

    def test_arrhenius_sweep_of_zero_times_exits_2_without_output(
            self, tmp_path, capsys):
        # every replica starts inside the target, so every mean time is 0
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no divide-by-zero in np.log
            code = main(["arrhenius-sweep", "--epsilon-list", "0.3,0.4,0.5",
                         "--n", "4", "--x0", "1", "--target", "1",
                         "--out", str(out)])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        payload = json.loads(err[0])
        assert payload["error"] == "DomainError"
        assert "at eps 0.3 " in payload["message"]

    def test_arrhenius_sweep_seeds_do_not_collide(self, tmp_path):
        # seed 0 at eps index 1 and seed 1000 at eps index 0 once shared a
        # stream block (seed + 1000 * index), so both runs gave eps = 0.6 the
        # same raw hitting times and the same row
        rows = {}
        for seed, eps_list in ((0, "0.5,0.6,0.7"), (1000, "0.6,0.5,0.7")):
            out = tmp_path / str(seed)
            code = main(["arrhenius-sweep", "--system", "sde",
                         "--epsilon-list", eps_list, "--n", "16", "--dt", "0.002",
                         "--seed", str(seed), "--out", str(out)])
            assert code == 0
            lines = (out / "results.csv").read_text().splitlines()[2:]
            rows[seed] = next(line for line in lines if line.startswith("0.6,"))
        assert rows[0] != rows[1000]

    def test_arrhenius_sweep_field_dynamics(self, tmp_path):
        # the fitted slope is about 0.69 with a seed-to-seed spread of 0.70 at
        # n = 8 (negative for 15-23% of seeds) and 0.16 at n = 128
        code = main(["arrhenius-sweep", "--system", "ac1d", "--L", "2.0",
                     "--N", "4", "--epsilon-list", "0.5,0.6,0.7",
                     "--delta", "0.5", "--dt", "0.005", "--n", "128",
                     "--t_max", "500", "--seed", "8", "--threads", "2",
                     "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["slope"] > 0.0


class TestSweepRunsTheSingleExperiments:
    # each sweep eps is the single-run experiment with the sweep's defaults
    # (sde: dt 1e-3, x0 -1, target 1, delta 0.2; ac1d: d 1, dt 2e-3,
    # t_max 4000, delta 0.3) at seed SeedSequence([seed, i])
    @pytest.mark.parametrize("system,sweep_args,single", (
        ("sde", ["--epsilon-list", "0.4,0.5,0.6"],
         ["sde-hitting", "--dt", "0.001", "--x0", "-1", "--target", "1",
          "--delta", "0.2"]),
        ("ac1d", ["--epsilon-list", "0.5,0.6,0.7", "--L", "2.0", "--N", "4"],
         ["spde-hitting", "--d", "1", "--L", "2.0", "--N", "4", "--dt", "0.002",
          "--t_max", "4000", "--delta", "0.3"]),
    ))
    def test_sweep_rows_match_single_runs(self, system, sweep_args, single,
                                          tmp_path):
        seed, n = 12, 12
        code = main(["arrhenius-sweep", "--system", system, *sweep_args,
                     "--n", str(n), "--seed", str(seed),
                     "--out", str(tmp_path / "sweep")])
        assert code == 0
        lines = (tmp_path / "sweep" / "results.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[2:-1]]
        assert len(rows) == 3
        for i, (eps, mean, stderr, n_censored) in enumerate(rows):
            seed_i = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
            out = tmp_path / f"single{i}"
            code = main([*single, "--epsilon", eps, "--n", str(n),
                         "--seed", str(seed_i), "--out", str(out)])
            assert code == 0
            summary = json.loads((out / "summary.json").read_text())
            assert (float(mean), float(stderr), int(n_censored)) == (
                summary["mean"], summary["stderr"], summary["n_censored"])

    @pytest.mark.parametrize("args", (
        ["--epsilon-list", "0,0.3,0.4", "--t_max", "1"],
        ["--system", "ac1d", "--L", "2.0", "--N", "4",
         "--epsilon-list", "0.5,0.6,0.7", "--t_max", "0"],
        ["--system", "ac1d", "--L", "2.0", "--N", "4",
         "--epsilon-list", "0.5,0.6,0.7", "--renormalize", "on"],
        ["--epsilon-list", "0.3,0.4,0.5", "--t_max", "0"],
        ["--epsilon-list", "0.3,0.4,0.5", "--t_max", "-5"],
    ))
    def test_sweep_rejects_what_the_single_runs_reject(self, args, tmp_path):
        code = main(["arrhenius-sweep", *args, "--n", "8",
                     "--out", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / "results.csv").exists()


class TestReproducibility:
    def test_byte_identical_across_thread_counts(self, tmp_path):
        outs = {}
        for threads in (1, 4, 8):
            d = tmp_path / f"t{threads}"
            code = main(["sde-hitting", "--epsilon", "0.3", "--dt", "0.002",
                         "--x0", "-1", "--target", "1", "--delta", "0.2",
                         "--n", "48", "--seed", "99", "--threads",
                         str(threads), "--out", str(d)])
            assert code == 0
            outs[threads] = (d / "results.csv").read_bytes()
        assert outs[1] == outs[4] == outs[8]

    def test_field_hitting_byte_identical_across_thread_counts(self, tmp_path):
        outs = {}
        for threads in (1, 3):
            d = tmp_path / f"t{threads}"
            code = main(["spde-hitting", "--d", "2", "--L", "6.0", "--N", "4",
                         "--start", "0", "--epsilon", "0.1", "--dt", "0.01",
                         "--delta", "2", "--norm", "hs", "--t_max", "4",
                         "--n", "7", "--seed", "7", "--threads", str(threads),
                         "--out", str(d)])
            assert code == 0
            outs[threads] = (d / "results.csv").read_bytes()
        assert outs[1] == outs[3]

    @pytest.mark.parametrize("argv", (
        ["ou-check", "--epsilon", "0.1", "--t", "0.1", "--dt", "0.01",
         "--n", "4000", "--seed", "3"],
        ["randomwalk", "--n_walks", "400", "--n_steps", "100", "--seed", "3"],
    ), ids=["ou-check", "randomwalk"])
    def test_checks_fork_only_past_one_thread(self, argv, forks, tmp_path):
        # --threads 1 is this process alone, library default or not;
        # --threads 2 forks one worker and writes the same bytes
        outs = []
        for threads, count in ((1, 0), (2, 1)):
            d = tmp_path / f"t{threads}"
            assert main([*argv, "--threads", str(threads), "--out", str(d)]) == 0
            assert len(forks) == count
            outs.append((d / "results.csv").read_bytes())
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("n,threads,usable,ranges", (
        (100, 1, 4, [(0, 100)]),
        (100, 3, 4, [(0, 33), (33, 33), (66, 34)]),
        (100, 8, 2, [(0, 50), (50, 50)]),  # at most one range a usable CPU
        (10, 3, 4, [(0, 3), (3, 3), (6, 4)]),  # ranges of any size
        (2, 8, 8, [(0, 1), (1, 1)]),  # at most one range a replica
    ))
    def test_threads_split_replicas_into_contiguous_ranges(self, n, threads, usable,
                                                           ranges, monkeypatch):
        monkeypatch.setattr(sde, "_usable_cpus", lambda: usable)

        def worker(offset, count):
            return np.column_stack([np.arange(offset, offset + count),
                                    np.full(count, offset), np.full(count, count)])

        out = cli._parallel_raw(worker, n, threads)
        assert np.array_equal(out[:, 0], np.arange(n))
        assert sorted({(int(a), int(b)) for _, a, b in out}) == ranges

    def test_ranges_run_on_at_most_the_usable_cpus(self):
        # a range a worker process, this one included, a worker a usable CPU
        usable = sde._usable_cpus()
        n = 64 * (usable + 2)
        out = cli._parallel_raw(lambda o, c: np.full(c, os.getpid()), n, n)
        assert len(set(out)) == usable and out[0] == os.getpid()

    def test_manifests_agree_up_to_wall_time(self, tmp_path):
        mans = []
        for threads, d in ((1, "a"), (4, "b")):
            out = tmp_path / d
            main(["sde-hitting", "--epsilon", "0.3", "--dt", "0.002",
                  "--x0", "-1", "--target", "1", "--delta", "0.2",
                  "--n", "24", "--seed", "99", "--threads", str(threads),
                  "--out", str(out)])
            mans.append(json.loads((out / "manifest.json").read_text()))
        for m in mans:
            m.pop("wall_time_s")
            m.pop("threads")
        assert mans[0] == mans[1]

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["randomwalk", "--n_walks", "500", "--n_steps", "500",
                "--seed", "11"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()

    def test_csv_format_conventions(self, tmp_path):
        main(["determinant", "--d", "2", "--L", "2.0", "--N", "8",
              "--out", str(tmp_path)])
        raw = (tmp_path / "results.csv").read_bytes()
        assert b"\r" not in raw  # LF only
        text = raw.decode()
        assert text.splitlines()[0].startswith("# manifest_hash=")
        # decimal points, not commas, in numbers
        value_line = text.splitlines()[2]
        assert value_line.count(",") == 1


def test_parse_config_requires_subcommand():
    with pytest.raises(SystemExit):
        parse_config([])


def test_unknown_system_rejected(tmp_path):
    code = main(["kramers-predict", "--system", "nope", "--out", str(tmp_path)])
    assert code == 2


class TestParametersRead:
    # the flags of each experiment's --help besides --config, --out, --seed
    # and --threads: the parameters it reads, 62 in all
    FLAGS = {
        "sde-hitting": "epsilon dt x0 target delta t_max potential n",
        "spde-hitting": "d L N epsilon dt delta t_max start renormalize target "
                        "norm s n snapshots",
        "ou-check": "epsilon t dt n x0",
        "potential-theory": "epsilon potential a b m",
        "determinant": "d L N",
        "kramers-predict": "system L N epsilon",
        "rate-functional": "path_csv field_jsonl L potential",
        "randomwalk": "n_walks n_steps s t",
        "arrhenius-sweep": "system epsilon-list n dt x0 target delta t_max "
                           "potential L N start renormalize norm s",
    }

    @pytest.mark.parametrize("experiment", FLAGS)
    def test_help_lists_only_the_parameters_read(self, experiment, capsys):
        assert main([experiment, "--help"]) == 0
        listed = set(re.findall(r"--([\w-]+)", capsys.readouterr().out))
        assert listed - {"help", "config", "out", "seed", "threads"} == set(
            self.FLAGS[experiment].split())

    @pytest.mark.parametrize("argv,named", (
        (["determinant", "--d", "1", "--L", "2", "--N", "8", "--delta", "0.3"],
         "--delta"),
        (["sde-hitting", *SDE_ARGS, "--t", "100"], "--t"),
        (["sde-hitting", *SDE_ARGS, "--t_m", "100"], "--t_m"),  # no prefixes
        (["kramers-predict", "--system", "ac2d", "--L", "2", "--N", "16",
          "--epsilon-list", "0.1,0.2"], "--epsilon-list"),
        (["kramers-predict", "--system", "quartic", "--L", "2"], "L"),
        (["arrhenius-sweep", "--system", "sde", "--L", "2", "--N", "4",
          *SWEEP_ARGS], "L, N"),
        (["arrhenius-sweep", *SWEEP_ARGS, "--d", "2"], "--d"),  # d is 1
        (["arrhenius-sweep", *SWEEP_ARGS, "--epsilon", "0.3"], "--epsilon"),
        # rate-functional reads one input and that input's parameters
        (["rate-functional", "--path_csv", "p.csv", "--L", "2"], "L"),
        (["rate-functional", "--field_jsonl", "f.jsonl", "--potential",
          "quartic"], "potential"),
        (["rate-functional", "--path_csv", "p.csv", "--field_jsonl",
          "f.jsonl"], "exactly one"),
        (["rate-functional"], "exactly one"),
        # s is the index of the hs norm, read with --norm hs only
        (["spde-hitting", *SPDE_ARGS, "--s", "-0.3"],
         "spde-hitting --norm linf does not read s"),
        (["spde-hitting", *SPDE_ARGS, "--norm", "linf", "--s", "-0.3"],
         "spde-hitting --norm linf does not read s"),
        (["arrhenius-sweep", "--system", "ac1d", "--L", "2", "--N", "4",
          *SWEEP_ARGS, "--s", "-0.3"],
         "arrhenius-sweep --system ac1d --norm linf does not read s"),
    ))
    def test_unread_flag_exits_2_without_output(self, argv, named, tmp_path,
                                                capsys):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert not (out / "results.csv").exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        payload = json.loads(err[0])
        assert payload["error"] == "ConfigError"
        assert named in payload["message"]

    @pytest.mark.parametrize("argv,phrase", (
        ([], "required"),
        (["determinant", "--bogus", "1"], "unrecognized arguments"),
        (["sde-hitting", "--n", "abc"], "invalid int value"),
        (["spde-hitting", "--renormalize", "maybe"], "on or off"),
    ))
    def test_usage_error_is_one_json_line(self, argv, phrase, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        payload = json.loads(err[0])
        assert payload["error"] == "ConfigError"
        assert phrase in payload["message"]


# (experiment, choice, a parameter map that passes every check, its required
# keys): the base of each bad case below
VALID = (
    ("sde-hitting", "", {
        "epsilon": 0.3, "dt": 0.002, "x0": -1.0, "target": 1.0, "delta": 0.2,
        "t_max": 5.0, "potential": "quartic", "n": 4},
     "epsilon dt x0 target delta n"),
    ("spde-hitting", "hs", {
        "d": 1, "L": 2.0, "N": 4, "epsilon": 0.5, "dt": 0.01, "delta": 0.3,
        "t_max": 5.0, "start": -1.0, "renormalize": False, "target": 1.0,
        "norm": "hs", "s": -0.5, "n": 4, "snapshots": 2},
     "d L N epsilon dt delta t_max n"),
    ("ou-check", "", {"epsilon": 0.1, "t": 0.1, "dt": 0.01, "n": 4, "x0": 1.0},
     "epsilon t dt n"),
    ("potential-theory", "", {
        "epsilon": 0.25, "potential": "quartic", "a": -2.5, "b": 2.5, "m": 99,
        "A": [-1.2, -0.8], "B": [0.8, 1.2]}, "epsilon"),
    ("determinant", "", {"d": 1, "L": 2.0, "N": 8}, "d L N"),
    ("kramers-predict", "quartic", {"system": "quartic", "epsilon": [0.1, 0.2]}, ""),
    ("kramers-predict", "ac1d", {"system": "ac1d", "L": 2.0, "N": 8,
                                 "epsilon": 0.1}, "L"),
    ("kramers-predict", "ac2d", {"system": "ac2d", "L": 2.0, "N": 8,
                                 "epsilon": 0.1}, "L N"),
    ("kramers-predict", "ac1d-galerkin", {"system": "ac1d-galerkin", "L": 2.0,
                                          "N": 4, "epsilon": 0.1}, "L N"),
    ("rate-functional", "path_csv", {"path_csv": "p.csv", "potential": "quartic"},
     ""),
    ("rate-functional", "field_jsonl", {"field_jsonl": "f.jsonl", "L": 2.0}, ""),
    ("randomwalk", "", {"n_walks": 10, "n_steps": 5, "s": 0.25, "t": 0.5},
     "n_walks n_steps"),
    ("arrhenius-sweep", "sde", {
        "system": "sde", "epsilon_list": [0.3, 0.4, 0.5], "n": 4, "dt": 0.002,
        "x0": -1.0, "target": 1.0, "delta": 0.2, "t_max": 5.0,
        "potential": "quartic"}, "epsilon_list n"),
    ("arrhenius-sweep", "ac1d", {
        "system": "ac1d", "epsilon_list": [0.5, 0.6, 0.7], "n": 4, "L": 2.0,
        "N": 4, "dt": 0.01, "delta": 0.3, "t_max": 5.0, "start": -1.0,
        "renormalize": False, "target": 1.0, "norm": "hs", "s": -0.5},
     "epsilon_list L N n"),
)

# JSON values of the wrong type for each parameter's type; a bool is never a
# number, and A and B are lists of two numbers
INTS = {"n", "N", "d", "m", "snapshots", "n_walks", "n_steps"}
STRS = {"potential", "system", "norm", "path_csv", "field_jsonl"}
WRONG = {"int": (1.5, True, "4"), "float": ("0.3", False, None),
         "str": (1, True), "bool": ("off", 1), "list": (0.3, [0.3, "0.4"]),
         "pair": ([False, 0.5], [1], [-1.2, -0.8, 5], {"lo": 0.8}, "A")}
# values out of each domain, as (value, phrase of the message)
OUT_OF_DOMAIN = {
    "epsilon": (0, "parameter epsilon must be positive"),
    "dt": (-0.1, "parameter dt must be positive"),
    "t": (0, "parameter t must be positive"),
    "t_max": (0, "parameter t_max must be positive"),
    "delta": (-0.2, "parameter delta must be positive"),
    "n": (0, "parameter n must be >= 1"),
    "n_walks": (1, "parameter n_walks must be >= 2"),
    "n_steps": (0, "parameter n_steps must be >= 1"),
    "snapshots": (-2, "parameter snapshots must be >= 0"),
    "potential": ("cubic", "unknown potential 'cubic'"),
    "system": ("nope", "unknown system 'nope'"),
    "norm": ("l2", "unknown norm 'l2'"),
    "epsilon_list": ([0.3, 0.4, -0.5], "parameter epsilon_list must be positive"),
}
# cross-key rules, and the domain of each element of kramers-predict's list
RULES = (
    ("randomwalk", {"s": 0.5, "t": 0.25}, "parameter s must be below t"),
    ("randomwalk", {"s": 0.5, "t": 0.5}, "parameter s must be below t"),
    ("ou-check", {"n": 1}, "parameter n must be >= 2"),
    ("ou-check", {"t": 0.015}, "parameter t must be a whole number of dt steps"),
    ("ou-check", {"t": 0.004}, "parameter t must be a whole number of dt steps"),
    ("spde-hitting", {"L": 7.0}, "L must lie in (0, 2*pi)"),
    ("spde-hitting", {"L": -1.0}, "L must lie in (0, 2*pi)"),
    ("arrhenius-sweep", {"system": "ac1d", "L": 6.3}, "L must lie in (0, 2*pi)"),
    ("kramers-predict", {"system": "ac1d", "epsilon": [0.1, -1]},
     "parameter epsilon must be positive"),
    ("kramers-predict", {"system": "ac1d", "epsilon": [0.1, "0.2"]},
     "parameter epsilon has the wrong type"),
    ("sde-hitting", {"bogus": 1}, "sde-hitting does not read bogus"),
    ("spde-hitting", {"norm": "linf"}, "spde-hitting --norm linf does not read s"),
    ("rate-functional", {"field_jsonl": "f.jsonl"},
     "rate-functional reads exactly one of path_csv and field_jsonl"),
)


def no_rows(cfg, p):
    return ["quantity"], [], None


def type_of(key):
    return ("int" if key in INTS else "str" if key in STRS
            else "bool" if key == "renormalize" else "list" if key == "epsilon_list"
            else "pair" if key in ("A", "B") else "float")


def table_cases():
    """(experiment, parameters, phrase of the message) for each key of each
    row of VALID and each bad value: wrong type, non-finite, out of its
    domain, missing where required; then the cross-key RULES."""
    for experiment, choice, valid, required in VALID:
        at = "-".join(filter(None, (experiment, choice)))
        for key in valid:
            kind = type_of(key)
            for i, v in enumerate(WRONG[kind]):
                yield pytest.param(experiment, {**valid, key: v},
                                   f"parameter {key} has the wrong type",
                                   id=f"{at}-{key}-type{i}")
            if kind in ("float", "list", "pair"):
                for v in (float("inf"), float("nan")):
                    bad = [v, 1.0] if kind in ("list", "pair") else v
                    yield pytest.param(experiment, {**valid, key: bad},
                                       f"parameter {key} must be finite",
                                       id=f"{at}-{key}-{v}")
            if key in OUT_OF_DOMAIN:
                v, phrase = OUT_OF_DOMAIN[key]
                yield pytest.param(experiment, {**valid, key: v}, phrase,
                                   id=f"{at}-{key}-domain")
        for key in required.split():
            yield pytest.param(experiment,
                               {k: v for k, v in valid.items() if k != key},
                               f"missing required parameter(s): {key}",
                               id=f"{at}-{key}-missing")
    for i, (experiment, change, phrase) in enumerate(RULES):
        valid = next(v for e, _, v, _ in VALID
                     if e == experiment and v.get("system") == change.get(
                         "system", v.get("system")))
        yield pytest.param(experiment, {**valid, **change}, phrase,
                           id=f"{experiment}-rule{i}")


class TestParameterTable:
    """Every parameter fault the tables find exits 2 with one JSON line
    naming ConfigError, before the runner is called or --out is made."""

    @staticmethod
    def replace_runner(experiment, monkeypatch, runner=None):
        """Put runner, or one that fails if called, in place of the
        experiment's; returns the parameter maps it was called with."""
        seen = []

        def ran(cfg, p):
            if runner is None:
                raise AssertionError("the runner ran")
            seen.append(p)
            return runner(cfg, p)

        monkeypatch.setitem(cli._EXPERIMENTS, experiment,
                            (ran, *cli._EXPERIMENTS[experiment][1:]))
        return seen

    @pytest.mark.parametrize("experiment,params,phrase", table_cases())
    def test_bad_parameter_is_a_config_error_before_running(
            self, experiment, params, phrase, tmp_path, capsys, monkeypatch):
        self.replace_runner(experiment, monkeypatch)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"parameters": params}))
        out = tmp_path / "out" / "sub"
        assert main([experiment, "--config", str(cfg_file), "--out", str(out)]) == 2
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        payload = json.loads(err[0])
        assert payload["error"] == "ConfigError"
        assert phrase in payload["message"]

    @pytest.mark.parametrize("argv,phrase", (
        (["kramers-predict", "--system", "ac1d", "--L", "2", "--epsilon", "0"],
         "parameter epsilon must be positive"),
        (["kramers-predict", "--epsilon", "-0.1"],
         "parameter epsilon must be positive"),
        (["sde-hitting", *SDE_ARGS[:-1], "0"], "parameter n must be >= 1"),
        (["spde-hitting", *SPDE_ARGS, "--delta", "-0.2"],
         "parameter delta must be positive"),
    ))
    def test_bad_flag_is_a_config_error_before_running(
            self, argv, phrase, tmp_path, capsys, monkeypatch):
        self.replace_runner(argv[0], monkeypatch)
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {"error": "ConfigError", "message": phrase}

    @staticmethod
    def assert_config_error(out, capsys, message):
        assert not out.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {"error": "ConfigError", "message": message}

    @pytest.mark.parametrize("experiment,args", (
        ("sde-hitting", SDE_ARGS), ("determinant", ["--d", "1", "--L", "2", "--N", "8"])))
    @pytest.mark.parametrize("from_file", (False, True))
    def test_negative_seed_is_a_config_error_before_running(
            self, experiment, args, from_file, tmp_path, capsys, monkeypatch):
        # the seed is global: a top-level config key, not a parameter
        self.replace_runner(experiment, monkeypatch)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"seed": -1}))
        seed = ["--config", str(cfg_file)] if from_file else ["--seed", "-1"]
        out = tmp_path / "out"
        assert main([experiment, *args, *seed, "--out", str(out)]) == 2
        self.assert_config_error(out, capsys, "parameter seed must be >= 0")

    def test_zero_threads_is_a_config_error_before_running(
            self, tmp_path, capsys, monkeypatch):
        self.replace_runner("determinant", monkeypatch)
        out = tmp_path / "out"
        assert cli.run(cli.ExperimentConfig(
            "determinant", {"d": 1, "L": 2.0, "N": 8}, threads=0, out=str(out))) == 2
        self.assert_config_error(out, capsys, "parameter threads must be >= 1")

    @pytest.mark.parametrize("experiment,choice,valid,required", VALID,
                             ids=["-".join(filter(None, row[:2])) for row in VALID])
    def test_valid_base_reaches_the_runner(self, experiment, choice, valid,
                                           required, tmp_path, monkeypatch):
        # so each bad case fails on its bad value, not on its base
        seen = self.replace_runner(experiment, monkeypatch, no_rows)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"parameters": valid}))
        assert main([experiment, "--config", str(cfg_file),
                     "--out", str(tmp_path / "out")]) == 0
        assert seen[0].items() >= {k: v for k, v in valid.items()
                                   if k != "epsilon"}.items()

    @pytest.mark.parametrize("argv,defaults", (
        (["ou-check", "--epsilon", "0.1", "--t", "1", "--dt", "0.01", "--n", "4"],
         {"x0": 1.0}),
        (["sde-hitting", *SDE_ARGS], {"t_max": None, "potential": "quartic"}),
        (["kramers-predict", "--system", "ac1d", "--L", "2", "--epsilon", "0.1"],
         {"N": None, "epsilon": [0.1]}),  # one eps is a list of one
        (["kramers-predict"], {"system": "quartic", "epsilon": []}),
        (["arrhenius-sweep", "--system", "ac1d", "--L", "2", "--N", "4",
          *SWEEP_ARGS], {"dt": 2e-3, "t_max": 4000.0, "delta": 0.3,
                         "norm": "linf", "start": -1.0, "target": 1.0}),
    ))
    def test_runner_reads_the_defaults_and_the_manifest_the_given(
            self, argv, defaults, tmp_path, monkeypatch):
        seen = self.replace_runner(argv[0], monkeypatch, no_rows)
        assert main([*argv, "--out", str(tmp_path)]) == 0
        assert seen[0].items() >= defaults.items()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["parameters"] == parse_config(argv).parameters


def readme_cli_commands():
    """The argv of every ``metastab`` command in README's CLI code block."""
    block = re.search(r"## CLI\n.*?```\n(.*?)```", README.read_text(),
                      re.S).group(1)
    return [shlex.split(line)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("metastab ")]


class TestReadme:
    @pytest.mark.parametrize("argv", readme_cli_commands(),
                             ids=lambda argv: argv[0])
    def test_cli_example_parses(self, argv):
        assert parse_config(argv).experiment == argv[0]

    def test_cli_examples_cover_every_experiment(self):
        assert {argv[0] for argv in readme_cli_commands()} == set(
            cli._EXPERIMENTS)

    def test_config_example_parses(self, tmp_path):
        example = re.search(r"## CLI\n.*?```json\n(.*?)```", README.read_text(),
                            re.S).group(1)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(example)
        experiment = json.loads(example)["experiment"]
        cfg = parse_config([experiment, "--config", str(cfg_file)])
        assert cfg.parameters == json.loads(example)["parameters"]

    def test_library_sketch_runs(self, capsys):
        # it builds runs and batches, so a change to either cannot leave it stale
        block = re.search(r"## Library sketch\n.*?```python\n(.*?)```",
                          README.read_text(), re.S).group(1)
        names = {}
        exec(compile(block, "README.md", "exec"), names)
        assert isinstance(names["batch"], HittingTimeBatch)
        assert names["batch"].n_attempted == 1000
        mean, predicted = map(float, capsys.readouterr().out.split())
        assert abs(np.log(mean / predicted)) < 0.5


def scipy_modules_loaded_by(code):
    """The scipy modules a fresh interpreter has loaded after running code."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    report = ("import json, sys\n"
              "print(json.dumps(sorted(m for m in sys.modules"
              " if m.split('.')[0] == 'scipy')))")
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{report}"],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestImports:
    """The package runs on numpy alone, the 1D potential-theory solver
    included; scipy loads only for randomwalk's KS test."""

    def test_import_loads_no_scipy(self):
        assert scipy_modules_loaded_by("import metastab, metastab.cli") == []

    @pytest.mark.parametrize("argv", (
        ["determinant", "--d", "1", "--L", "2", "--N", "8"],
        ["sde-hitting", *SDE_ARGS],
        ["spde-hitting", "--d", "1", "--L", "2.0", "--N", "4", "--epsilon",
         "0.5", "--dt", "0.002", "--t_max", "50", "--delta", "0.3", "--n", "2"],
        ["kramers-predict", "--system", "ac1d", "--L", "2", "--N", "16",
         "--epsilon", "0.1"],
    ), ids=lambda argv: argv[0])
    def test_runs_without_the_solver_load_no_scipy(self, argv, tmp_path):
        code = (f"from metastab.cli import main\n"
                f"assert main({[*argv, '--out', str(tmp_path)]!r}) == 0")
        assert scipy_modules_loaded_by(code) == []

    def test_potential_theory_run_loads_no_scipy(self, tmp_path):
        argv = ["potential-theory", "--epsilon", "0.25", "--out", str(tmp_path)]
        code = f"from metastab.cli import main\nassert main({argv!r}) == 0"
        assert scipy_modules_loaded_by(code) == []

    def test_banded_solves_load_no_scipy(self):
        code = ("from metastab import quartic_double_well\n"
                "from metastab.potential_theory import (Grid1D, solve_committor,"
                " solve_poisson)\n"
                "grid, V = Grid1D(-2.5, 2.5, 99), quartic_double_well()\n"
                "solve_poisson(grid, V, 0.2, (0.8, 1.2))\n"
                "solve_committor(grid, V, 0.2, (-1.2, -0.8), (0.8, 1.2))")
        assert scipy_modules_loaded_by(code) == []

    def test_randomwalk_loads_scipy_stats(self, tmp_path):
        # the helper sees a scipy import where one happens
        argv = ["randomwalk", "--n_walks", "10", "--n_steps", "5",
                "--out", str(tmp_path)]
        code = f"from metastab.cli import main\nassert main({argv!r}) == 0"
        assert "scipy.stats" in scipy_modules_loaded_by(code)
