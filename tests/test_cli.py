import json

import numpy as np
import pytest

from metastab import cli
from metastab.cli import arrhenius_fit, main, parse_config
from metastab.errors import InsufficientData
from metastab.sde import HittingTimeBatch


def batch_with_mean(mean):
    samples = np.array([mean])
    return HittingTimeBatch(samples=samples, n_attempted=1, n_censored=0,
                            mean=float(mean), stderr=0.0, seed_base=0,
                            raw=samples)


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

    def test_validation_rejects_bad_L(self, tmp_path):
        code = main(["determinant", "--d", "1", "--L", "7.0", "--N", "16",
                     "--out", str(tmp_path)])
        assert code == 2

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

    @pytest.mark.parametrize("n,threads,ranges", (
        (10, 1, [(0, 10)]),
        (10, 3, [(0, 3), (3, 3), (6, 4)]),
        (2, 8, [(0, 1), (1, 1)]),
    ))
    def test_threads_split_replicas_into_contiguous_ranges(self, n, threads, ranges):
        calls = []

        def worker(offset, count):
            calls.append((offset, count))
            return np.arange(offset, offset + count, dtype=float)

        out = cli._parallel_raw(worker, n, threads)
        assert sorted(calls) == ranges
        assert np.array_equal(out, np.arange(n, dtype=float))

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
