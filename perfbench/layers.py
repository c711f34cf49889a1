"""Per-layer microbenchmarks: fixed small calls into each module's public API.

Every function returns {metric name: value}; units are in the names' suffix
(``_ns``, ``_us``, ``_ms``, ``_s``) and in BENCHMARK.json.  Each timing is
the median over a few repeats, so one slow repeat on a shared machine does
not set the figure.  Sizes are fixed; only the RNG seed follows the run.
"""

from __future__ import annotations

import itertools
import json
import shutil
import statistics
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

from metastab import cli, determinants, fields, kramers, potential_theory, potentials, sde, spde


def _median_time(fn, repeats: int) -> float:
    """Median wall seconds of fn() over repeats calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _per_call(fn, calls: int, repeats: int = 5) -> float:
    """Median seconds per call of fn, timed in batches of `calls`."""
    def batch():
        for _ in range(calls):
            fn()
    return _median_time(batch, repeats) / calls


# ---------------------------------------------------------------------------
# sde and potentials
# ---------------------------------------------------------------------------

_STEP_HORIZON = 1024  # one noise block of hitting_times_raw


def sde_layer(seed: int) -> dict:
    quartic = potentials.quartic_double_well()
    out = {}
    replica = itertools.count()
    out["sde.noise_draw_us"] = 1e6 * _per_call(
        lambda: sde.replica_rng(seed, next(replica)).standard_normal(1024), 200)

    run = sde.SdeRun(quartic, epsilon=0.25, dt=1e-3, x0=[-1.0], seed=seed,
                     t_max=_STEP_HORIZON * 1e-3)
    for n, repeats in ((20, 5), (300, 3), (2000, 3)):
        # unreachable target: stepping and the distance test, no compaction
        t = _median_time(lambda: sde.hitting_times_raw(run, [100.0], 0.2, n), repeats)
        out[f"sde.step_ns.n{n}"] = 1e9 * t / (n * _STEP_HORIZON)

    t = _median_time(lambda: sde.sample_endpoints(run, 512 * 1e-3, 2000), 3)
    out["sde.endpoints_ns.n2000"] = 1e9 * t / (2000 * 512)

    rng = np.random.default_rng(seed)
    for n in (20, 2000):
        x = rng.standard_normal((n, 1))
        out[f"potentials.gradient_batch_us.n{n}"] = 1e6 * _per_call(
            lambda: quartic.gradient_batch(x), 200)
    return out


# ---------------------------------------------------------------------------
# spde and fields
# ---------------------------------------------------------------------------


def _spde_run(d: int, N: int, seed: int, t_max: float = 1.0) -> spde.SpdeRun:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return spde.SpdeRun(field0=fields.constant_field(d, 2.0, N, -1.0), epsilon=0.1,
                            dt=2e-3, t_max=t_max, seed=seed)


def spde_layer(seed: int) -> dict:
    out = {}
    for d, N, steps in ((1, 16, 400), (1, 64, 200), (2, 16, 60), (2, 32, 20)):
        run = _spde_run(d, N, seed)
        t = _median_time(lambda: spde.integrate_deterministic(run, steps * run.dt,
                                                              record_every=steps), 3)
        out[f"spde.step_us.d{d}N{N}"] = 1e6 * t / steps
    for d, N in ((1, 16), (2, 16), (2, 32)):
        run = _spde_run(d, N, seed)
        rng = sde.replica_rng(seed, 0)
        out[f"spde.noise_us.d{d}N{N}"] = 1e6 * _per_call(
            lambda: spde.draw_mode_noise(run, rng), 50)
    for d, N, n, steps in ((1, 16, 100, 256), (2, 16, 8, 64)):
        run = _spde_run(d, N, seed, t_max=steps * 2e-3)
        # unreachable target: batched stepping, noise and distance, no hits
        t = _median_time(lambda: spde.spde_hitting_times_raw(run, 100.0, 0.3, n=n), 3)
        out[f"spde.batched_step_us.d{d}N{N}.n{n}"] = 1e6 * t / (n * steps)
    return out


def fields_layer(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    f1_64 = fields.random_field(1, 2.0, 64, rng)
    f1_16 = fields.random_field(1, 2.0, 16, rng)
    f2_32 = fields.random_field(2, 2.0, 32, rng)
    f2_16 = fields.random_field(2, 2.0, 16, rng)
    grid2 = fields.grid_values(f2_32)
    return {
        "fields.grid_values_us.d1N64": 1e6 * _per_call(lambda: fields.grid_values(f1_64), 200),
        "fields.grid_values_us.d2N32": 1e6 * _per_call(lambda: fields.grid_values(f2_32), 20),
        "fields.field_from_grid_us.d2N32": 1e6 * _per_call(
            lambda: fields.field_from_grid(2, 2.0, 32, grid2), 20),
        "fields.linf_distance_us.d1N16": 1e6 * _per_call(
            lambda: fields.linf_distance_to_constant(f1_16, 1.0), 200),
        "fields.hs_distance_us.d2N16": 1e6 * _per_call(
            lambda: fields.hs_distance_to_constant(f2_16, 1.0, -0.5), 200),
    }


# ---------------------------------------------------------------------------
# Oracles: determinants, kramers, potential_theory
# ---------------------------------------------------------------------------


def oracle_layers(seed: int) -> dict:
    quartic = potentials.quartic_double_well()
    mn = potentials.find_critical_point(quartic, [-0.9])
    sd = potentials.find_critical_point(quartic, [0.1])
    grid = potential_theory.Grid1D(-2.5, 2.5, 1999)
    return {
        "determinants.fredholm_det_1d_ms.N4096": 1e3 * _per_call(
            lambda: determinants.fredholm_det_1d(2.0, 4096), 20),
        "determinants.counterterm_trace_ms.N32": 1e3 * _per_call(
            lambda: determinants.counterterm_trace(2.0, 32), 20),
        "determinants.carleman_det_2d_ms.N128": 1e3 * _per_call(
            lambda: determinants.carleman_det_2d(2.0, 128), 5),
        "kramers.ek_allen_cahn_1d_ms": 1e3 * _per_call(
            lambda: kramers.ek_allen_cahn_1d(2.0), 200),
        "kramers.ek_allen_cahn_2d_ms.N128": 1e3 * _per_call(
            lambda: kramers.ek_allen_cahn_2d(2.0, 128), 5),
        "kramers.ek_finite_ms": 1e3 * _per_call(
            lambda: kramers.ek_finite(mn, sd, quartic), 200),
        "potential_theory.solve_poisson_ms.m1999": 1e3 * _per_call(
            lambda: potential_theory.solve_poisson(grid, quartic, 0.25, (0.8, 1.2)), 5),
    }


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

CLI_N = 32  # criterion-15 config at reduced n, so every traced run can afford it


def cli_layer(seed: int, work_dir: Path) -> tuple[dict, dict]:
    """Metrics, and the check that --threads 2 writes the same results.csv
    and config hash as --threads 1."""
    work_dir.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=work_dir))
    try:
        def main(threads):
            code = cli.main(["sde-hitting", "--epsilon", "0.3", "--dt", "0.002",
                             "--x0", "-1", "--target", "1", "--delta", "0.2",
                             "--n", str(CLI_N), "--seed", str(seed),
                             "--threads", str(threads), "--out", str(tmp / f"t{threads}")])
            if code != 0:
                raise RuntimeError(f"metastab sde-hitting exited with {code}")

        # one call each: the --threads 2 call alone takes seconds
        t1 = _median_time(lambda: main(1), 1)
        t2 = _median_time(lambda: main(2), 1)
        same_csv = ((tmp / "t1" / "results.csv").read_bytes()
                    == (tmp / "t2" / "results.csv").read_bytes())
        same_hash = (json.loads((tmp / "t1" / "manifest.json").read_text())["config_hash"]
                     == json.loads((tmp / "t2" / "manifest.json").read_text())["config_hash"])
        cfg = cli.ExperimentConfig("sde-hitting", {"n": 256}, seed=seed, out=str(tmp / "w"))
        rows = [(i, 1.0 + i / 256, False) for i in range(256)]
        t_write = _per_call(lambda: cli.write_results(cfg, ["replica", "tau", "censored"],
                                                      rows, {"mean": 1.0}), 20)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    metrics = {"cli.threads1_s": t1, "cli.thread_slowdown": t2 / t1,
               "cli.write_results_ms.n256": 1e3 * t_write}
    checks = {"cli_threads_identical": (
        same_csv and same_hash,
        f"n={CLI_N}: results.csv bytes and config_hash at --threads 2 vs --threads 1")}
    return metrics, checks


def all_layers(seed: int, work_dir: Path) -> tuple[dict, dict]:
    """Every layer's metrics, and the checks the layer calls make."""
    out = {}
    for fn in (sde_layer, spde_layer, fields_layer, oracle_layers):
        out.update(fn(seed))
    metrics, checks = cli_layer(seed, work_dir)
    out.update(metrics)
    return out, checks
