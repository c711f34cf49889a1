"""The four benchmark workloads: seeded inputs, one timed call chain, checks.

Each workload is a closed loop of one caller.  ``iteration_s`` is the nominal
length of one full-size iteration (on a 2-core x86_64 container); a run makes
``--seconds // iteration_s`` iterations, at least one.  The count does not
depend on the speed of the code, so every commit does the same work per run.
``build`` turns the run's seed and iteration number into inputs; ``run`` makes
every layer call and checks the result against the package's own oracles,
returning an Outcome.  Calls go through module attributes
(``sde.hitting_times_raw``, not a name imported here) so that the traced pass
can wrap them and the smoke test can perturb an oracle.  BENCHMARK.json times
sde_kramers and field_2d; field_1d and cli_threads are run by hand, because
their run-to-run spread on a 2-core host is wider than the benchmark's bounds
(random work in field_1d, GIL contention between threads in cli_threads).
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import shutil
import tempfile
import warnings
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from unittest import mock

import numpy as np

from metastab import cli, determinants, fields, kramers, potential_theory, potentials, sde, spde

from tracing import NullTracer


@dataclass
class Outcome:
    """What one workload iteration did and whether its checks passed."""

    replicas: int  # replicas simulated (trajectories for field_2d)
    censored: int
    sde_replica_steps: int = 0
    spde_replica_steps: int = 0
    checks: dict = field(default_factory=dict)  # name -> (passed, detail)
    hashes: dict = field(default_factory=dict)  # name -> sha256 hex

    @property
    def hits(self) -> int:
        return self.replicas - self.censored

    @property
    def attempted(self) -> int:
        return self.replicas + len(self.checks)

    @property
    def failed(self) -> int:
        return self.censored + sum(not ok for ok, _ in self.checks.values())

    @property
    def replica_steps(self) -> int:
        return self.sde_replica_steps + self.spde_replica_steps


# Statistical checks allow Z standard errors.  One evaluation of the benchmark
# runs each of them about a hundred times; at 3 standard errors (two-sided
# 0.27% each) a false alarm somewhere would be likely, at 4 (0.006%) it is not.
Z = 4.0

SDE_HORIZON_STEPS = 1_000_000  # SdeRun's default horizon when t_max is unset


def sim_seed(seed: int, iteration: int) -> int:
    """Simulation seed of one iteration, derived from the run's seed."""
    return int(np.random.SeedSequence([seed, iteration]).generate_state(1)[0])


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.float64).tobytes()).hexdigest()


def _steps(raw: np.ndarray, dt: float, max_steps: int) -> int:
    """Replica-steps behind a raw hitting-time array (censored = horizon)."""
    done = np.where(np.isfinite(raw), np.rint(raw / dt), max_steps)
    return int(done.sum())


def _mean_stderr(raw: np.ndarray) -> tuple[float, float]:
    hit = raw[np.isfinite(raw)]
    if hit.size < 2:
        return float("nan"), float("inf")
    return float(hit.mean()), float(hit.std(ddof=1) / np.sqrt(hit.size))


def traced_potential(pot, tracer):
    """pot with its batch gradient wrapped in a span per call."""
    return dataclasses.replace(
        pot, gradient_batch=tracer.wrap("potentials.gradient_batch", pot.gradient_batch))


# ---------------------------------------------------------------------------
# sde_kramers: criterion 4 (Kramers triangle)
# ---------------------------------------------------------------------------


class SdeKramers:
    """Large-n vectorised Euler-Maruyama hitting loop (noise draw, drift,
    compaction); bypasses spde, fields and cli."""

    name = "sde_kramers"
    iteration_s = 9
    sizes = {"full": {"n": 2000}, "smoke": {"n": 100}}
    eps, dt, delta, grid_m = 0.25, 1e-3, 0.2, 1999

    def __init__(self, size: str = "full"):
        self.n = self.sizes[size]["n"]

    def build(self, seed: int, iteration: int) -> dict:
        return {"pot": potentials.quartic_double_well(), "seed": sim_seed(seed, iteration)}

    def run(self, inputs: dict, tracer=NullTracer()) -> Outcome:
        pot = traced_potential(inputs["pot"], tracer)
        run = sde.SdeRun(pot, epsilon=self.eps, dt=self.dt, x0=[-1.0], seed=inputs["seed"])
        with tracer.span("sde.hitting_times_raw"):
            raw = sde.hitting_times_raw(run, [1.0], self.delta, self.n)
        grid = potential_theory.Grid1D(-2.5, 2.5, self.grid_m)
        with tracer.span("potential_theory.solve_poisson"):
            w = potential_theory.solve_poisson(grid, pot, self.eps, (0.8, 1.2))
        with tracer.span("potentials.find_critical_point"):
            mn = potentials.find_critical_point(pot, [-0.9])
            sd = potentials.find_critical_point(pot, [0.1])
        with tracer.span("kramers.ek_finite"):
            ek = kramers.ek_finite(mn, sd, pot).predict(self.eps)
        w_star = float(w[np.argmin(np.abs(grid.nodes + 1.0))])
        return self.check(raw, w_star, ek)

    def check(self, raw: np.ndarray, w_star: float, ek: float) -> Outcome:
        """Criterion 4's bands: MC within Z stderr of the PDE, PDE within 15% of EK."""
        mean, se = _mean_stderr(raw)
        out = Outcome(replicas=raw.size, censored=int(np.isnan(raw).sum()),
                      sde_replica_steps=_steps(raw, self.dt, SDE_HORIZON_STEPS))
        out.checks["mc_vs_pde"] = (abs(mean - w_star) < Z * se,
                                   f"MC {mean:.4f}+-{se:.4f} vs PDE {w_star:.4f}")
        out.checks["pde_vs_ek"] = (abs(w_star - ek) / ek < 0.15,
                                   f"PDE {w_star:.4f} vs EK {ek:.4f}")
        out.hashes["raw"] = _sha(raw)
        return out


# ---------------------------------------------------------------------------
# field_1d: criterion 11 at eps = 0.4, reduced n
# ---------------------------------------------------------------------------


class Field1d:
    """Batched d=1 field hitting loop with few modes, bound by per-step Python
    and tiny FFTs; the tail shrinks to a few live replicas."""

    name = "field_1d"
    iteration_s = 14
    sizes = {"full": {"n": 100}, "smoke": {"n": 8}}
    L, N, eps, dt, delta, t_max, det_N = 2.0, 16, 0.4, 2e-3, 0.3, 4000.0, 4096

    def __init__(self, size: str = "full"):
        self.n = self.sizes[size]["n"]

    def build(self, seed: int, iteration: int) -> dict:
        return {"f0": fields.constant_field(1, self.L, self.N, -1.0),
                "seed": sim_seed(seed, iteration)}

    def run(self, inputs: dict, tracer=NullTracer()) -> Outcome:
        run = spde.SpdeRun(field0=inputs["f0"], epsilon=self.eps, dt=self.dt,
                           t_max=self.t_max, seed=inputs["seed"])
        with tracer.span("spde.spde_hitting_times_raw"):
            raw = spde.spde_hitting_times_raw(run, 1.0, self.delta, norm="linf", n=self.n)
        with ExitStack() as stack:
            for attr, name in (("fredholm_closed_form", "determinants.fredholm_closed_form"),
                               ("fredholm_det_1d", "determinants.fredholm_det_1d")):
                stack.enter_context(mock.patch.object(
                    kramers, attr, tracer.wrap(name, getattr(kramers, attr))))
            with tracer.span("kramers.ek_allen_cahn_1d"):
                closed = kramers.ek_allen_cahn_1d(self.L)
            with tracer.span("kramers.ek_allen_cahn_1d"):
                truncated = kramers.ek_allen_cahn_1d(self.L, self.det_N)
        return self.check(raw, closed.predict(self.eps), truncated.predict(self.eps),
                          truncated.det_tail)

    def check(self, raw, pred: float, pred_truncated: float, det_tail: float) -> Outcome:
        """Mean within [pred/2, 2 pred] widened by Z stderr (at n = 100 some
        seeds read a ratio near 1.9); both determinant routes agree within the
        certified truncation interval."""
        mean, se = _mean_stderr(raw)
        max_steps = int(round(self.t_max / self.dt))
        out = Outcome(replicas=raw.size, censored=int(np.isnan(raw).sum()),
                      spde_replica_steps=_steps(raw, self.dt, max_steps))
        out.checks["mc_vs_ek"] = (pred / 2 - Z * se <= mean <= 2 * pred + Z * se,
                                  f"mean {mean:.3f}+-{se:.3f} vs EK {pred:.3f}")
        gap = abs(np.log(pred_truncated / pred))
        out.checks["det_routes"] = (gap <= det_tail,
                                    f"|log truncated/closed| {gap:.2e} <= {det_tail:.2e}")
        out.hashes["raw"] = _sha(raw)
        return out


# ---------------------------------------------------------------------------
# field_2d: criterion 16 (d = 2 gating checks)
# ---------------------------------------------------------------------------


class Field2d:
    """Single-trajectory d=2 stepping on large grids, bound by FFTs; runs the
    Wick counterterm; no batch, unlike field_1d."""

    name = "field_2d"
    iteration_s = 18
    sizes = {"full": {"T": 3.0, "cutoffs": (8, 16, 32)},
             "smoke": {"T": 0.5, "cutoffs": (4, 8, 16)}}
    L, eps, dt, det_N = 2.0, 0.1, 2e-3, 128

    def __init__(self, size: str = "full"):
        self.T = self.sizes[size]["T"]
        self.cutoffs = self.sizes[size]["cutoffs"]

    def build(self, seed: int, iteration: int) -> dict:
        return {"f0": {N: fields.constant_field(2, self.L, N, -1.0) for N in self.cutoffs},
                "seed": sim_seed(seed, iteration)}

    def run(self, inputs: dict, tracer=NullTracer()) -> Outcome:
        traj = {}
        with mock.patch.object(spde, "counterterm_trace",
                               tracer.wrap("determinants.counterterm_trace",
                                           spde.counterterm_trace)):
            for renorm in (True, False):
                for N in self.cutoffs:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", RuntimeWarning)
                        run = spde.SpdeRun(field0=inputs["f0"][N], epsilon=self.eps,
                                           dt=self.dt, t_max=self.T, seed=inputs["seed"],
                                           renormalize=renorm)
                    with tracer.span("spde.spatial_mean_trajectory"):
                        _, traj[renorm, N] = spde.spatial_mean_trajectory(run, self.T)
        with mock.patch.object(kramers, "carleman_det_2d",
                               tracer.wrap("determinants.carleman_det_2d",
                                           kramers.carleman_det_2d)):
            with tracer.span("kramers.ek_allen_cahn_2d"):
                pred = kramers.ek_allen_cahn_2d(self.L, self.det_N)
        with tracer.span("determinants.carleman_det_2d"):
            coarse = determinants.carleman_det_2d(self.L, self.det_N // 2)
        return self.check(traj, pred, coarse)

    def check(self, traj: dict, pred, coarse) -> Outcome:
        """Criterion 16's tests, widened by Z standard errors of the time
        averages: renormalized well averages in (-1.2, -0.8); the paired
        bare-minus-renormalized gap grows with the cutoff.  Criterion 16 fixes
        its seed; at other seeds one trajectory's average over T = 3 strays
        past its band edges (seed 107 read -0.675 at N = 8).  Also: the 2D
        log-determinant moves from N = 64 to N = 128 by less than the N = 64
        tail bound."""
        Ns = self.cutoffs
        out = Outcome(replicas=len(traj), censored=0,
                      spde_replica_steps=len(traj) * int(round(self.T / self.dt)))
        # Linearised at the well (V'' = 2) the spatial mean is an OU process
        # with rate 2 and stationary variance eps / (2 L^d); its average over T
        # has standard error sqrt(2 var / (rate T)).  The trajectory's own
        # estimate is too noisy here: T = 3 spans only a few correlation times.
        rate = 2.0
        se = np.sqrt(2 * self.eps / (rate * self.L**2) / (rate * self.T))
        avg = {N: float(traj[True, N].mean()) for N in Ns}
        out.checks["in_band"] = (
            all(-1.2 - Z * se < avg[N] < -0.8 + Z * se for N in Ns),
            "renormalized averages " + ", ".join(f"{avg[N]:.4f}" for N in Ns)
            + f" (stderr {se:.4f})")
        paired = {N: traj[False, N] - traj[True, N] for N in Ns}
        gap = {N: float(paired[N].mean()) for N in Ns}
        gap_se = {N: time_average_stderr(paired[N]) for N in Ns}
        out.checks["monotone_gap"] = (
            all(gap[a] < gap[b] + Z * np.hypot(gap_se[a], gap_se[b])
                for a, b in zip(Ns, Ns[1:])),
            "gaps " + ", ".join(f"{gap[N]:.5f}+-{gap_se[N]:.5f}" for N in Ns))
        det_gap = abs(2 * np.log(pred.determinant_factor) + coarse.log_abs)
        out.checks["det_converged"] = (det_gap <= coarse.tail_estimate,
                                       f"|log det change| {det_gap:.2e} <= {coarse.tail_estimate:.2e}")
        out.hashes["raw"] = _sha(np.concatenate([traj[k] for k in sorted(traj)]))
        return out


def time_average_stderr(x: np.ndarray) -> float:
    """Standard error of the mean of a correlated series: the variance times
    the integrated autocorrelation time, with Sokal's self-consistent window
    (the first M with M >= 5 tau(M))."""
    x = np.asarray(x, dtype=float) - np.mean(x)
    n = x.size
    if not x.any():
        return 0.0
    spec = np.fft.rfft(x, 2 * n)
    acf = np.fft.irfft(spec * spec.conj())[:n]
    tau = 1.0 + 2.0 * np.cumsum(acf[1:] / acf[0])  # tau(M) for M = 1 .. n-1
    M = int(np.argmax(np.arange(1, n) >= 5 * tau))
    return float(np.sqrt(np.var(x) * max(tau[M], 1.0) / n))


# ---------------------------------------------------------------------------
# cli_threads: criterion 15 through the CLI with a thread pool
# ---------------------------------------------------------------------------


class CliThreads:
    """Only workload reaching cli._parallel_raw and write_results; small
    per-thread chunks make per-step overhead dominate."""

    name = "cli_threads"
    iteration_s = 10
    sizes = {"full": {"n": 256}, "smoke": {"n": 16}}
    threads = 2
    eps, dt = 0.3, 2e-3

    def __init__(self, size: str = "full"):
        self.n = self.sizes[size]["n"]
        self.tmp_root = Path(".perfbench_out") / "tmp"

    def build(self, seed: int, iteration: int) -> dict:
        return {"seed": sim_seed(seed, iteration)}

    def argv(self, seed: int, threads: int, out: Path) -> list:
        return ["sde-hitting", "--epsilon", str(self.eps), "--dt", str(self.dt),
                "--x0", "-1", "--target", "1", "--delta", "0.2", "--n", str(self.n),
                "--seed", str(seed), "--threads", str(threads), "--out", str(out)]

    def run(self, inputs: dict, tracer=NullTracer()) -> Outcome:
        self.tmp_root.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(dir=self.tmp_root))
        quartic = cli._POTENTIALS["quartic"]
        try:
            with ExitStack() as stack:
                for attr, name in (("_parallel_raw", "cli._parallel_raw"),
                                   ("write_results", "cli.write_results"),
                                   ("hitting_times_raw", "sde.hitting_times_raw")):
                    stack.enter_context(mock.patch.object(
                        cli, attr, tracer.wrap(name, getattr(cli, attr))))
                stack.enter_context(mock.patch.dict(
                    cli._POTENTIALS, quartic=lambda: traced_potential(quartic(), tracer)))
                codes = {}
                for threads in (self.threads, 1):
                    with tracer.span("cli.main"):
                        codes[threads] = cli.main(self.argv(inputs["seed"], threads,
                                                            tmp / f"t{threads}"))
            files = {t: ((tmp / f"t{t}" / "results.csv").read_bytes(),
                         json.loads((tmp / f"t{t}" / "manifest.json").read_text()))
                     for t in codes if codes[t] == 0}
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return self.check(codes, files)

    def check(self, codes: dict, files: dict) -> Outcome:
        """Exit 0 at both thread counts; results.csv bytes and config hash
        identical to the --threads 1 reference."""
        taus, censored = [], 0
        if self.threads in files:
            rows = csv.reader(io.StringIO(files[self.threads][0].decode()))
            next(rows), next(rows)  # hash comment, header
            for _, tau, cens in rows:
                censored += cens == "true"
                taus.append(np.nan if cens == "true" else float(tau))
        raw = np.array(taus)
        # both thread counts simulate the same n replicas
        out = Outcome(replicas=self.n * 2, censored=2 * censored,
                      sde_replica_steps=2 * _steps(raw, self.dt, SDE_HORIZON_STEPS))
        out.checks["exit_codes"] = (all(c == 0 for c in codes.values()),
                                    f"exit codes {codes}")
        ok = len(files) == 2
        out.checks["csv_identical"] = (ok and files[self.threads][0] == files[1][0],
                                       "results.csv bytes vs --threads 1")
        out.checks["hash_equal"] = (
            ok and files[self.threads][1]["config_hash"] == files[1][1]["config_hash"],
            "manifest config_hash vs --threads 1")
        out.checks["complete"] = (raw.size == self.n, f"{raw.size} rows of {self.n}")
        if self.threads in files:
            out.hashes["results_csv"] = hashlib.sha256(files[self.threads][0]).hexdigest()
            out.hashes["raw"] = _sha(raw)
        return out


WORKLOADS = {w.name: w for w in (SdeKramers, Field1d, Field2d, CliThreads)}
