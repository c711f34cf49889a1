"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 -m pytest -q perfbench/smoke_test.py

Checks that every metric BENCHMARK.json names is printed with its unit, that
a perturbed oracle value trips each workload's check and makes the command
exit non-zero, and that the command refuses to run without the sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import run as bench  # noqa: E402
import workloads  # noqa: E402
from metastab import kramers, potential_theory  # noqa: E402


def _command(tmp_path, workload, trace, cwd=ROOT):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "0.1",
           "--trace", str(trace), "--size", "smoke", "--out", str(tmp_path / "out")]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _assert_metrics(result_line: str, spec_metrics: list):
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    printed = result["metrics"]
    assert set(printed) == {m["name"] for m in spec_metrics}
    for m in spec_metrics:
        assert printed[m["name"]]["unit"] == m["unit"]
        assert np.isfinite(printed[m["name"]]["value"])


# every workload run.py offers, also those BENCHMARK.json leaves out
@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_timed_run_prints_every_end_to_end_metric(tmp_path, workload):
    res = _command(tmp_path, workload, trace=0)
    assert res.returncode == 0, res.stderr
    _assert_metrics(res.stdout.strip().splitlines()[-1], SPEC["end_to_end"])
    record = json.loads((tmp_path / "out" / "results.jsonl").read_text().splitlines()[-1])
    assert record["provenance"]["thread_env"]["OMP_NUM_THREADS"] == "1"
    assert all(it["hashes"] for it in record["iterations"])


def test_traced_run_prints_every_per_layer_metric(tmp_path):
    res = _command(tmp_path, "field_2d", trace=1)
    assert res.returncode == 0, res.stderr
    _assert_metrics(res.stdout.strip().splitlines()[-1], SPEC["per_layer"])
    spans = (tmp_path / "out" / "spans-field_2d-seed3.jsonl").read_text().splitlines()
    assert {json.loads(s)["name"] for s in spans} >= {
        "spde.spatial_mean_trajectory", "determinants.counterterm_trace"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    res = _command(tmp_path, "sde_kramers", trace=0, cwd=tmp_path)
    assert res.returncode != 0
    assert res.stdout.strip() == ""


def test_perturbed_poisson_oracle_fails_the_run(monkeypatch, capsys, tmp_path):
    solve = potential_theory.solve_poisson
    monkeypatch.setattr(potential_theory, "solve_poisson", lambda *a: 1.5 * solve(*a))
    code = bench.main(["--workload", "sde_kramers", "--seed", "3", "--seconds", "0.1",
                       "--size", "smoke", "--out", str(tmp_path / "out")])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False and result["failed"] >= 1


# Check functions against synthetic results: the oracle value alone decides.


def test_sde_kramers_check_tracks_oracles():
    wl = workloads.SdeKramers("smoke")
    raw = np.linspace(12.0, 14.0, 2000)
    assert all(ok for ok, _ in wl.check(raw, 13.0, 12.0).checks.values())
    assert not wl.check(raw, 13.0 * 1.5, 12.0).checks["mc_vs_pde"][0]
    assert not wl.check(raw, 13.0, 12.0 * 1.5).checks["pde_vs_ek"][0]


def test_field_1d_check_tracks_oracles():
    wl = workloads.Field1d("smoke")
    raw = np.linspace(9.0, 11.0, 100)
    assert all(ok for ok, _ in wl.check(raw, 10.0, 10.0, 1e-4).checks.values())
    assert not wl.check(raw, 30.0, 30.0, 1e-4).checks["mc_vs_ek"][0]
    assert not wl.check(raw, 10.0, 10.1, 1e-4).checks["det_routes"][0]


def test_field_2d_check_tracks_oracles():
    wl = workloads.Field2d("full")
    wiggle = 0.01 * np.sin(np.arange(1501))
    traj = {(True, N): -1.0 + wiggle for N in wl.cutoffs}
    traj.update({(False, N): -1.0 + 0.001 * N + wiggle for N in wl.cutoffs})
    pred = kramers.ek_allen_cahn_2d(wl.L, wl.det_N)
    coarse = workloads.determinants.carleman_det_2d(wl.L, wl.det_N // 2)
    assert all(ok for ok, _ in wl.check(traj, pred, coarse).checks.values())
    shifted = dataclasses.replace(coarse, log_abs=coarse.log_abs + 1e-3)
    assert not wl.check(traj, pred, shifted).checks["det_converged"][0]
    assert not wl.check({**traj, (True, 16): traj[True, 16] + 0.6}, pred,
                        coarse).checks["in_band"][0]
    assert not wl.check({**traj, (False, 32): traj[True, 32] + 0.01}, pred,
                        coarse).checks["monotone_gap"][0]


def test_time_average_stderr_matches_independent_samples():
    x = np.random.default_rng(0).standard_normal(20000)
    assert abs(workloads.time_average_stderr(x) / (1 / np.sqrt(x.size)) - 1) < 0.1
    ar = np.zeros(20000)  # AR(1) with rho = 0.9: tau = (1 + rho) / (1 - rho) = 19
    for i, e in enumerate(np.random.default_rng(1).standard_normal(20000)[1:], 1):
        ar[i] = 0.9 * ar[i - 1] + e
    expected = np.sqrt(ar.var() * 19 / ar.size)
    assert abs(workloads.time_average_stderr(ar) / expected - 1) < 0.25


def test_cli_threads_check_tracks_reference():
    wl = workloads.CliThreads("smoke")
    csv = b"# manifest_hash=x\nreplica,tau,censored\n" + b"".join(
        b"%d,1.0,false\n" % i for i in range(wl.n))
    manifest = {"config_hash": "x"}
    files = {2: (csv, manifest), 1: (csv, manifest)}
    assert all(ok for ok, _ in wl.check({2: 0, 1: 0}, files).checks.values())
    other = {2: (csv, manifest), 1: (csv.replace(b"1.0", b"1.5", 1), manifest)}
    assert not wl.check({2: 0, 1: 0}, other).checks["csv_identical"][0]
    rehashed = {2: (csv, manifest), 1: (csv, {"config_hash": "y"})}
    assert not wl.check({2: 0, 1: 0}, rehashed).checks["hash_equal"][0]
