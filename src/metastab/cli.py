"""Command-line harness: seeded parallel experiments with CSV/JSON reporting.

Every experiment writes ``results.csv`` (LF line endings, '.' decimals, one
'#' comment line carrying the config hash) plus ``manifest.json`` recording
the full configuration, seed, package version and wall time.  The hash covers
only reproducibility-relevant fields (experiment, parameters, seed).
``--threads k`` runs the replicas of a hitting-time experiment as contiguous
ranges on k worker processes, at most one a usable CPU (``sde.run_ranges``;
``--threads 1``, the default, is this process alone); outputs are
byte-identical across its values.

An experiment takes only the parameters it reads (``_EXPERIMENTS``; per
``--system`` for two of them, per input file for rate-functional), as
full-name flags, which its ``--help`` lists, or as config-file values of the
flag's JSON type; any other flag, key or value exits 2 before anything runs.
``--config``, ``--out``, ``--seed`` and ``--threads`` are global.

Exit codes: 0 success, 2 configuration/validation error (usage errors, an
input file that cannot be read and an --out that cannot be written included,
the last two under the OSError's name; --out is made before the run), 3 all
replicas censored.  Errors are also emitted as one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .allen_cahn import galerkin_critical_points_1d, galerkin_potential_1d
from .determinants import carleman_det_2d, fredholm_closed_form, fredholm_det_1d
from .errors import AllCensored, InsufficientData, MetastabError, ShapeMismatch
from .fields import check_truncation, constant_field
from .kramers import ek_allen_cahn_1d, ek_allen_cahn_2d, ek_finite
from .potential_theory import (
    Grid1D,
    capacity_dirichlet,
    committor_weighted_integral,
    magic_identity_residual,
    solve_committor,
    solve_poisson,
    start_node,
)
from .potentials import find_critical_point, quadratic_well, quartic_double_well
from .randomwalk import ensemble_rescaled
from .rate_functional import load_path_csv, rate_functional_sde
from .sde import (
    HittingTimeBatch,
    SdeRun,
    detailed_balance_residual,
    hitting_times_raw,
    ou_fokker_planck_residual,
    ou_mean_var,
    run_ranges as _parallel_raw,  # the name that tests and perfbench patch
    sample_endpoints,
)
from .spde import SpdeRun, record_snapshots, spde_hitting_times_raw


@dataclass
class ExperimentConfig:
    """Validated experiment request: name plus a flat parameter map."""

    experiment: str
    parameters: dict
    seed: int = 0
    threads: int = 1
    out: str = "."

    def __post_init__(self):
        keys, what = _EXPERIMENTS[self.experiment][1], self.experiment
        if self.experiment == "rate-functional":  # one input, one mode
            given = sorted(_RATE_FUNCTIONAL_MODES.keys() & self.parameters.keys())
            if len(given) != 1:
                raise ValueError("rate-functional reads exactly one of "
                                 "path_csv and field_jsonl")
            keys, what = _RATE_FUNCTIONAL_MODES[given[0]], f"{what} --{given[0]}"
        elif isinstance(keys, dict):
            system = self.parameters.get("system", next(iter(keys)))
            if system not in keys:
                raise ValueError(f"unknown system {system!r}")
            keys, what = keys[system] | {"system"}, f"{what} --system {system}"
        norm = self.parameters.get("norm", "linf")
        if "norm" in keys and norm != "hs":  # s is the hs norm's index
            keys, what = keys - {"s"}, f"{what} --norm {norm}"
        unread = sorted(set(self.parameters) - keys)
        if unread:
            raise ValueError(f"{what} does not read {', '.join(unread)}")
        for key, v in self.parameters.items():
            if key in _FLAG_TYPES and not (_fits(_FLAG_TYPES[key], v) or (
                    # kramers-predict also takes a list of eps
                    self.experiment == "kramers-predict" and key == "epsilon"
                    and _fits(_comma_floats, v))):
                raise ValueError(f"parameter {key} has the wrong type: {v!r}")
            if not _finite(v):  # argparse reads "inf", json.load "Infinity"
                raise ValueError(f"parameter {key} must be finite")
        potential = self.parameters.get("potential", "quartic")
        if potential not in _POTENTIALS:
            raise ValueError(f"unknown potential {potential!r}")

    def hash(self) -> str:
        """Hash of the reproducibility-relevant fields only."""
        payload = json.dumps(
            {"experiment": self.experiment, "parameters": self.parameters,
             "seed": self.seed},
            sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ArrheniusFit:
    """Least-squares fit of log mean transition time against 1/eps."""

    slope: float
    intercept: float
    r_squared: float


def _require_three_eps(eps_values) -> None:
    if len({float(e) for e in eps_values}) < 3:
        raise InsufficientData("need at least 3 distinct eps values")


def arrhenius_fit(batches) -> ArrheniusFit:
    """Fit (1/eps, log mean tau); the slope estimates the barrier height."""
    pts = [(float(eps), b.mean if isinstance(b, HittingTimeBatch) else float(b))
           for eps, b in batches]
    _require_three_eps(e for e, _ in pts)
    x = np.array([1.0 / e for e, _ in pts])
    y = np.log([t for _, t in pts])
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(np.sum((A @ coef - y) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return ArrheniusFit(slope=slope, intercept=intercept, r_squared=r2)


# ---------------------------------------------------------------------------
# Output writing
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_results(cfg: ExperimentConfig, header: list, rows: list,
                  summary: dict | None = None, wall_time: float = 0.0) -> Path:
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "results.csv"
    lines = [f"# manifest_hash={cfg.hash()}", ",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    csv_path.write_text("\n".join(lines) + "\n", newline="\n")

    manifest = {
        "experiment": cfg.experiment,
        "parameters": cfg.parameters,
        "seed": cfg.seed,
        "threads": cfg.threads,
        "version": __version__,
        "config_hash": cfg.hash(),
        "wall_time_s": wall_time,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    if summary is not None:  # strict JSON: a non-finite value becomes null
        summary = {k: v if _finite(v) else None for k, v in summary.items()}
        (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return csv_path


# ---------------------------------------------------------------------------
# Experiment runners (each returns header, rows, summary)
# ---------------------------------------------------------------------------

_POTENTIALS = {
    "quartic": quartic_double_well,
    "quadratic": quadratic_well,
}


def _require(params: dict, *keys):
    missing = [k for k in keys if k not in params]
    if missing:
        raise ValueError(f"missing required parameter(s): {', '.join(missing)}")


def _positive(params: dict, *keys):
    for k in keys:
        if k in params and not params[k] > 0:
            raise ValueError(f"parameter {k} must be positive")


def _at_least(params: dict, low: int, *keys):
    for k in keys:
        if k in params and not params[k] >= low:
            raise ValueError(f"parameter {k} must be >= {low}")


# the parameters of an SDE hitting ensemble
_SDE_KEYS = {"epsilon", "dt", "x0", "target", "delta", "t_max", "potential"}


def _sde_ensemble(p: dict, seed: int):
    """(run, worker(offset, count)) of the SDE hitting ensemble of p."""
    _require(p, "epsilon", "dt", "x0", "target", "delta")
    _positive(p, "epsilon", "dt", "delta")
    pot = _POTENTIALS[p.get("potential", "quartic")]()
    run = SdeRun(potential=pot, epsilon=p["epsilon"], dt=p["dt"],
                 x0=np.atleast_1d(p["x0"]), seed=seed, t_max=p.get("t_max"))
    target = np.atleast_1d(p["target"])
    return run, lambda offset, count: hitting_times_raw(
        run, target, p["delta"], count, replica_offset=offset)


# the parameters of a field hitting ensemble
_SPDE_KEYS = {"d", "L", "N", "epsilon", "dt", "delta", "t_max", "start",
              "renormalize", "target", "norm", "s"}


def _spde_ensemble(p: dict, seed: int):
    """(run, worker(offset, count)) of the field hitting ensemble of p."""
    _require(p, "d", "L", "N", "epsilon", "dt", "delta", "t_max")
    _positive(p, "epsilon", "dt", "delta", "t_max")
    if not 0 < p["L"] < 2 * np.pi:
        raise ValueError("L must lie in (0, 2*pi)")
    f0 = constant_field(p["d"], p["L"], p["N"], p.get("start", -1.0))
    run = SpdeRun(field0=f0, epsilon=p["epsilon"], dt=p["dt"], t_max=p["t_max"],
                  seed=seed, renormalize=p.get("renormalize"))
    return run, lambda offset, count: spde_hitting_times_raw(
        run, p.get("target", 1.0), p["delta"], norm=p.get("norm", "linf"),
        s=p.get("s", -0.5), n=count, replica_offset=offset)


def _hitting_results(raw: np.ndarray):
    """Header, rows and summary of one ensemble's hitting times."""
    batch = HittingTimeBatch.from_raw(raw)
    rows = [(i, 0.0 if np.isnan(t) else t, bool(np.isnan(t)))
            for i, t in enumerate(raw)]
    summary = {"mean": batch.mean, "stderr": batch.stderr,
               "n_attempted": batch.n_attempted, "n_censored": batch.n_censored}
    return ["replica", "tau", "censored"], rows, summary


def _run_sde_hitting(cfg: ExperimentConfig):
    _require(cfg.parameters, "n")
    _, worker = _sde_ensemble(cfg.parameters, cfg.seed)
    return _hitting_results(
        _parallel_raw(worker, cfg.parameters["n"], cfg.threads))


def _run_spde_hitting(cfg: ExperimentConfig):
    p = cfg.parameters
    _require(p, "n")
    _at_least(p, 0, "snapshots")
    run, worker = _spde_ensemble(p, cfg.seed)
    raw = _parallel_raw(worker, p["n"], cfg.threads)
    results = _hitting_results(raw)
    if p.get("snapshots"):
        horizon = min(p["t_max"], float(np.nanmax(raw)) if np.isfinite(raw).any()
                      else p["t_max"])
        times = np.linspace(0.0, horizon, p["snapshots"])
        record_snapshots(run, times, str(Path(cfg.out) / "snapshots"),
                         replica_index=p["n"])
    return results


def _run_ou_check(cfg: ExperimentConfig):
    p = cfg.parameters
    _require(p, "epsilon", "t", "dt", "n")
    _positive(p, "epsilon", "t", "dt")
    _at_least(p, 2, "n")  # a sample variance
    eps, t = p["epsilon"], p["t"]
    run = SdeRun(potential=quadratic_well(), epsilon=eps, dt=p["dt"],
                 x0=[p.get("x0", 1.0)], seed=cfg.seed)
    xs = sample_endpoints(run, t, p["n"])[:, 0]
    mean_th, var_th = ou_mean_var(p.get("x0", 1.0), t, eps)
    mean_emp, var_emp = float(xs.mean()), float(xs.var(ddof=1))
    se_mean = float(xs.std(ddof=1) / np.sqrt(xs.size))
    se_var = var_emp * np.sqrt(2.0 / (xs.size - 1))

    db = detailed_balance_residual(0.7, eps, np.linspace(-2, 2, 41))
    y = np.linspace(-1.5, 1.5, 31)
    r1 = ou_fokker_planck_residual(p.get("x0", 1.0), eps, max(t, 0.5), y, 1e-2)
    r2 = ou_fokker_planck_residual(p.get("x0", 1.0), eps, max(t, 0.5), y, 5e-3)

    header = ["check", "value", "expected", "band"]
    rows = [
        ("endpoint_mean", mean_emp, mean_th, 3 * se_mean),
        ("endpoint_var", var_emp, var_th, 3 * se_var),
        ("detailed_balance_residual", db, 0.0, 1e-12),
        ("fokker_planck_richardson", r1 / r2, 4.0, 0.5),
    ]
    ok = all(abs(v - e) <= b for _, v, e, b in rows)
    return header, rows, {"all_passed": ok}


def _run_potential_theory(cfg: ExperimentConfig):
    p = cfg.parameters
    _require(p, "epsilon")
    _positive(p, "epsilon")
    eps = p["epsilon"]
    pot = _POTENTIALS[p.get("potential", "quartic")]()
    grid = Grid1D(p.get("a", -2.5), p.get("b", 2.5), p.get("m", 1999))
    A = p.get("A", (-1.2, -0.8))
    B = p.get("B", (0.8, 1.2))
    w = solve_poisson(grid, pot, eps, B)
    comm = solve_committor(grid, pot, eps, A, B)
    rows = [
        ("mean_hitting_time_at_minimum", w[start_node(grid, pot, A)]),
        ("capacity", capacity_dirichlet(grid, pot, eps, comm)),
        ("magic_identity_residual",
         magic_identity_residual(grid, pot, eps, A, w, comm)),
        ("committor_weighted_integral",
         committor_weighted_integral(grid, pot, eps, comm)),
    ]
    return ["quantity", "value"], rows, dict(rows)


def _run_determinant(cfg: ExperimentConfig):
    p = cfg.parameters
    _require(p, "d", "L", "N")
    d, L, N = p["d"], p["L"], p["N"]
    check_truncation(d, L, N)
    if d == 1:
        res = fredholm_det_1d(L, N)
        closed = fredholm_closed_form(L)
        rows = [("truncated_value", res.value),
                ("closed_form", closed),
                ("relative_error", abs(res.value - closed) / abs(closed)),
                ("tail_estimate", res.tail_estimate)]
    else:
        res = carleman_det_2d(L, N)
        rows = [("truncated_value", res.value),
                ("log_abs", res.log_abs),
                ("tail_estimate", res.tail_estimate)]
    return ["quantity", "value"], rows, dict(rows)


def _run_kramers_predict(cfg: ExperimentConfig):
    p = cfg.parameters
    system = p.get("system", "quartic")
    eps_list = p.get("epsilon", [])
    if np.isscalar(eps_list):
        eps_list = [eps_list]
    if system == "quartic":
        pot = quartic_double_well()
        pred = ek_finite(find_critical_point(pot, [-0.9]),
                         find_critical_point(pot, [0.1]), pot)
    elif system == "ac1d":
        _require(p, "L")
        pred = ek_allen_cahn_1d(p["L"], p.get("N"))
    elif system == "ac2d":
        _require(p, "L", "N")
        pred = ek_allen_cahn_2d(p["L"], p["N"])
    else:  # ac1d-galerkin
        _require(p, "L", "N")
        gp = galerkin_potential_1d(p["L"], p["N"])
        mn, sd = galerkin_critical_points_1d(p["L"], p["N"])
        pred = ek_finite(mn, sd, gp)
    rows = [("barrier", pred.barrier),
            ("prefactor", pred.prefactor),
            ("lambda_minus", pred.lambda_minus),
            ("determinant_factor", pred.determinant_factor)]
    rows += [(f"predicted_mean_time_eps={eps}", pred.predict(eps))
             for eps in eps_list]
    return ["quantity", "value"], rows, dict(rows)


def _run_rate_functional(cfg: ExperimentConfig):
    p = cfg.parameters
    if "field_jsonl" in p:
        from .rate_functional import load_field_path_jsonl, rate_functional_ac_1d

        path = load_field_path_jsonl(p["field_jsonl"])
        if p.get("L", path.L) != path.L:
            raise ShapeMismatch(f"path torus length {path.L} != requested {p['L']}")
        value = rate_functional_ac_1d(path)
        rev = rate_functional_ac_1d(path.reversed())
    else:
        path = load_path_csv(p["path_csv"])
        pot = _POTENTIALS[p.get("potential", "quartic")]()
        value = rate_functional_sde(path, pot)
        rev = rate_functional_sde(path.reversed(), pot)
    rows = [("cost", value), ("cost_reversed", rev),
            ("n_nodes", path.times.size)]
    return ["quantity", "value"], rows, dict(rows)


def _run_randomwalk(cfg: ExperimentConfig):
    p = cfg.parameters
    _require(p, "n_walks", "n_steps")
    _at_least(p, 2, "n_walks")  # a sample variance
    _at_least(p, 1, "n_steps")
    n_walks, n_steps = p["n_walks"], p["n_steps"]
    s, t = p.get("s", 0.25), p.get("t", 1.0)
    if not s < t:
        raise ValueError("parameter s must be below t")
    w = ensemble_rescaled(n_walks, n_steps, [s, t, 1.0], cfg.seed)
    incr = w[:, 1] - w[:, 0]
    var_emp = float(incr.var(ddof=1))
    se = var_emp * np.sqrt(2.0 / (n_walks - 1))
    from scipy import stats
    ks = stats.kstest(w[:, 2], "norm")
    header = ["check", "value", "expected", "band"]
    rows = [
        ("increment_variance", var_emp, t - s, 3 * se),
        ("ks_statistic_w1", float(ks.statistic), 0.0,
         float(1.358 / np.sqrt(n_walks))),  # 5% critical value
    ]
    return header, rows, {"ks_pvalue": float(ks.pvalue)}


# system -> (ensemble builder, its parameters, defaults under the user's
# parameters): each eps runs, and is validated as, the matching single-run
# experiment.  The sweep sets epsilon from its list and reads no d (ac1d: 1).
_SWEEP_SYSTEMS = {
    "sde": (_sde_ensemble, _SDE_KEYS,
            {"dt": 1e-3, "x0": -1.0, "target": 1.0, "delta": 0.2}),
    "ac1d": (_spde_ensemble, _SPDE_KEYS,
             {"d": 1, "dt": 2e-3, "t_max": 4000.0, "delta": 0.3}),
}


def _run_arrhenius_sweep(cfg: ExperimentConfig):
    p = cfg.parameters
    _require(p, "epsilon_list", "n")
    ensemble, _, defaults = _SWEEP_SYSTEMS[p.get("system", "sde")]
    eps_list, n = p["epsilon_list"], p["n"]
    _require_three_eps(eps_list)  # before any ensemble runs
    # the eps index joins the seed in the entropy, so no (seed, index) pair
    # shares another's streams
    seeds = [int(np.random.SeedSequence([cfg.seed, i]).generate_state(1)[0])
             for i in range(len(eps_list))]
    workers = [ensemble({**defaults, **p, "epsilon": eps}, seed)[1]
               for eps, seed in zip(eps_list, seeds)]  # validates every eps first
    batches = [(eps, HittingTimeBatch.from_raw(_parallel_raw(worker, n, cfg.threads)))
               for eps, worker in zip(eps_list, workers)]
    fit = arrhenius_fit(batches)
    header = ["epsilon", "mean_tau", "stderr", "n_censored"]
    rows = [(eps, b.mean, b.stderr, b.n_censored) for eps, b in batches]
    rows.append(("fit_slope", fit.slope, fit.intercept, fit.r_squared))
    summary = {"slope": fit.slope, "intercept": fit.intercept,
               "r_squared": fit.r_squared}
    return header, rows, summary


# rate-functional's input -> the parameters it reads with that input
_RATE_FUNCTIONAL_MODES = {"path_csv": {"path_csv", "potential"},
                          "field_jsonl": {"field_jsonl", "L"}}

# experiment -> (runner, the parameters it reads).  Where the set depends on
# --system it is a map from each system to its set, the default system first.
_EXPERIMENTS = {
    "sde-hitting": (_run_sde_hitting, _SDE_KEYS | {"n"}),
    "spde-hitting": (_run_spde_hitting, _SPDE_KEYS | {"n", "snapshots"}),
    "ou-check": (_run_ou_check, {"epsilon", "t", "dt", "n", "x0"}),
    "potential-theory": (_run_potential_theory,
                         {"epsilon", "potential", "a", "b", "m", "A", "B"}),
    "determinant": (_run_determinant, {"d", "L", "N"}),
    "kramers-predict": (_run_kramers_predict, {
        "quartic": {"epsilon"}, "ac1d": {"L", "N", "epsilon"},
        "ac2d": {"L", "N", "epsilon"}, "ac1d-galerkin": {"L", "N", "epsilon"}}),
    "rate-functional": (_run_rate_functional,
                        set().union(*_RATE_FUNCTIONAL_MODES.values())),
    "randomwalk": (_run_randomwalk, {"n_walks", "n_steps", "s", "t"}),
    "arrhenius-sweep": (_run_arrhenius_sweep, {
        system: keys - {"epsilon", "d"} | {"epsilon_list", "n"}
        for system, (_, keys, _) in _SWEEP_SYSTEMS.items()}),
}


def _comma_floats(text: str) -> list:
    return [float(x) for x in text.split(",")]


def _on_off(text: str) -> bool:
    if text not in ("on", "off"):
        raise argparse.ArgumentTypeError("expected on or off")
    return text == "on"


# parameter -> type of its flag; A and B come only from a config file
_FLAG_TYPES = {
    "epsilon": float, "dt": float, "t": float, "t_max": float, "x0": float,
    "target": float, "delta": float, "n": int, "d": int, "L": float, "N": int,
    "m": int, "a": float, "b": float, "s": float, "start": float,
    "n_walks": int, "n_steps": int, "potential": str, "system": str,
    "norm": str, "path_csv": str, "field_jsonl": str, "snapshots": int,
    "epsilon_list": _comma_floats, "renormalize": _on_off,
}


def _fits(kind, v) -> bool:
    """Whether config-file value v has the JSON type of a flag of type kind:
    a bool is neither an integer nor a number, and renormalize takes one."""
    if kind is _comma_floats:
        return isinstance(v, list) and all(_fits(float, x) for x in v)
    if kind is _on_off:
        return isinstance(v, bool)
    allowed = (int, float) if kind is float else kind
    return isinstance(v, allowed) and not isinstance(v, bool)


def _finite(v) -> bool:
    """Whether no float in v, a value or a nested list of values, is inf or nan."""
    if isinstance(v, (list, tuple)):
        return all(_finite(x) for x in v)
    return not isinstance(v, float) or math.isfinite(v)


def _report(error: str, message: str) -> None:
    """Write the one JSON line of a failed run to stderr."""
    json.dump({"error": error, "message": message}, sys.stderr)
    sys.stderr.write("\n")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as the one JSON line of every other error."""

    def error(self, message):
        _report("ConfigError", message)
        self.exit(2)


def parse_config(argv) -> ExperimentConfig:
    parser = _Parser(
        prog="metastab", allow_abbrev=False,
        description="Metastable-dynamics experiments with seeded, "
                    "reproducible Monte Carlo and PDE/determinant oracles.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, (_, keys) in _EXPERIMENTS.items():
        if isinstance(keys, dict):
            keys = {"system"}.union(*keys.values())
        sp = sub.add_parser(name, allow_abbrev=False)
        sp.add_argument("--config", help="JSON file with a parameters map")
        sp.add_argument("--out", default=".")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--threads", type=int)
        for key in (k for k in _FLAG_TYPES if k in keys):
            sp.add_argument("--epsilon-list" if key == "epsilon_list" else f"--{key}",
                            dest=key, type=_FLAG_TYPES[key])

    ns = parser.parse_args(argv)
    params, seed, threads = {}, 0, 1
    if ns.config:
        with open(ns.config) as f:
            file_cfg = json.load(f)
        if not (isinstance(file_cfg, dict)
                and isinstance(file_cfg.get("parameters", {}), dict)):
            raise ValueError("a config file is a JSON object, its parameters an object")
        unknown = sorted(set(file_cfg) - {"experiment", "parameters", "seed",
                                          "threads"})
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        for key in ("seed", "threads"):  # checked like an int parameter
            if key in file_cfg and not _fits(int, file_cfg[key]):
                raise ValueError(f"{key} has the wrong type: {file_cfg[key]!r}")
        params.update(file_cfg.get("parameters", {}))
        seed = file_cfg.get("seed", seed)
        threads = file_cfg.get("threads", threads)
        if file_cfg.get("experiment", ns.experiment) != ns.experiment:
            raise ValueError("config file experiment differs from subcommand")
    params.update((k, v) for k, v in vars(ns).items()
                  if k in _FLAG_TYPES and v is not None)
    if ns.seed is not None:
        seed = ns.seed
    if ns.threads is not None:
        threads = ns.threads
    if threads < 1:
        raise ValueError("threads must be >= 1")
    return ExperimentConfig(experiment=ns.experiment, parameters=params,
                            seed=seed, threads=threads, out=ns.out)


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit code.  The out
    directory is made before the experiment runs, so an --out that cannot be
    written exits before anything runs, and a failed run removes the
    directories it made."""
    t0 = time.perf_counter()
    out = Path(cfg.out)
    made = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    try:
        out.mkdir(parents=True, exist_ok=True)
        header, rows, summary = _EXPERIMENTS[cfg.experiment][0](cfg)
        write_results(cfg, header, rows, summary, wall_time=time.perf_counter() - t0)
        return 0
    except AllCensored as exc:
        _report("AllCensored", str(exc))
        code = 3
    except (OSError, ValueError, TypeError, KeyError, MetastabError) as exc:
        # TypeError: a config-file value of the wrong JSON type; OSError: an
        # input file that cannot be read or an --out that cannot be written
        _report(type(exc).__name__, str(exc))
        code = 2
    for d in made:
        try:
            d.rmdir()
        except OSError:  # not made, or not empty
            break
    return code


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv)
    except OSError as exc:  # --config, named as run() names the other files
        _report(type(exc).__name__, str(exc))
        return 2
    except (ValueError, TypeError) as exc:
        _report("ConfigError", str(exc))
        return 2
    except SystemExit as exc:  # --help, or a usage error _Parser reported
        return 2 if exc.code not in (0, None) else 0
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
