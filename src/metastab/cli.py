"""Command-line harness: seeded parallel experiments with CSV/JSON reporting.

Every experiment writes ``results.csv`` (LF line endings, '.' decimals, one
'#' comment line carrying the config hash) plus ``manifest.json`` recording
the full configuration, seed, package version and wall time.  The hash covers
only reproducibility-relevant fields (experiment, parameters, seed).
``--threads k`` runs the replicas of a hitting-time experiment, the endpoints
of ``ou-check`` and the walks of ``randomwalk`` as contiguous ranges on k
worker processes, at most one a usable CPU (``sde.run_ranges``;
``--threads 1``, the default, is this process alone); outputs are
byte-identical across its values.

An experiment takes only the parameters it reads, as full-name flags, which
its ``--help`` lists, or as config-file values of the flag's JSON type.
``_PARAMS`` gives each parameter's type and domain, ``_EXPERIMENTS`` each
experiment's (or ``--system``'s, ``--norm``'s, input's) keys, defaults and
cross-key rules; one pass over both runs before anything else, and the
runners only read its result.  ``--config``, ``--out``, ``--seed`` and
``--threads`` are global.

Exit codes: 0 success, 2 configuration/validation error (ConfigError for a
usage error or a parameter fault the tables find; a library check, an
unreadable input file or an unwritable --out under its own name), 3 all
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
from .errors import AllCensored, DomainError, InsufficientData, MetastabError, ShapeMismatch
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
from .randomwalk import _walk_ranges
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
    """Experiment request: name plus a flat parameter map, as given."""

    experiment: str
    parameters: dict
    seed: int = 0
    threads: int = 1
    out: str = "."

    def hash(self) -> str:
        """Hash of the reproducibility-relevant fields only."""
        payload = json.dumps(
            {"experiment": self.experiment, "parameters": self.parameters,
             "seed": self.seed},
            sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


class ConfigError(ValueError):
    """A parameter fault the parameter tables find, before anything runs."""


@dataclass(frozen=True)
class ArrheniusFit:
    """Least-squares fit of log mean transition time against 1/eps."""

    slope: float
    intercept: float
    r_squared: float


def arrhenius_fit(batches) -> ArrheniusFit:
    """Fit (1/eps, log mean tau); the slope estimates the barrier height."""
    pts = [(float(eps), b.mean if isinstance(b, HittingTimeBatch) else float(b))
           for eps, b in batches]
    if len({e for e, _ in pts}) < 3:
        raise InsufficientData("need at least 3 distinct eps values")
    bad = [(e, t) for e, t in pts if not (t > 0 and math.isfinite(t))]
    if bad:  # a zero mean: every replica started inside the target
        raise DomainError(f"mean time {bad[0][1]} at eps {bad[0][0]} has no logarithm")
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


def _sde_ensemble(p: dict, seed: int):
    """(run, worker(offset, count)) of the SDE hitting ensemble of p."""
    pot = _POTENTIALS[p["potential"]]()
    run = SdeRun(potential=pot, epsilon=p["epsilon"], dt=p["dt"],
                 x0=np.atleast_1d(p["x0"]), seed=seed, t_max=p["t_max"])
    target = np.atleast_1d(p["target"])
    return run, lambda offset, count: hitting_times_raw(
        run, target, p["delta"], count, replica_offset=offset)


def _spde_ensemble(p: dict, seed: int):
    """(run, worker(offset, count)) of the field hitting ensemble of p."""
    f0 = constant_field(p["d"], p["L"], p["N"], p["start"])
    run = SpdeRun(field0=f0, epsilon=p["epsilon"], dt=p["dt"], t_max=p["t_max"],
                  seed=seed, renormalize=p["renormalize"])
    hs = {"s": p["s"]} if p["norm"] == "hs" else {}  # s is the hs norm's index
    return run, lambda offset, count: spde_hitting_times_raw(
        run, p["target"], p["delta"], norm=p["norm"], n=count,
        replica_offset=offset, **hs)


def _hitting_results(raw: np.ndarray):
    """Header, rows and summary of one ensemble's hitting times."""
    batch = HittingTimeBatch(raw)
    rows = [(i, 0.0 if np.isnan(t) else t, bool(np.isnan(t)))
            for i, t in enumerate(raw)]
    summary = {"mean": batch.mean, "stderr": batch.stderr,
               "n_attempted": batch.n_attempted, "n_censored": batch.n_censored}
    return ["replica", "tau", "censored"], rows, summary


def _run_sde_hitting(cfg: ExperimentConfig, p: dict):
    _, worker = _sde_ensemble(p, cfg.seed)
    return _hitting_results(_parallel_raw(worker, p["n"], cfg.threads))


def _run_spde_hitting(cfg: ExperimentConfig, p: dict):
    run, worker = _spde_ensemble(p, cfg.seed)
    raw = _parallel_raw(worker, p["n"], cfg.threads)
    results = _hitting_results(raw)
    if p["snapshots"]:
        horizon = min(p["t_max"], float(np.nanmax(raw)))  # a replica hit, or AllCensored
        times = np.linspace(0.0, horizon, p["snapshots"])
        record_snapshots(run, times, str(Path(cfg.out) / "snapshots"),
                         replica_index=p["n"])
    return results


def _run_ou_check(cfg: ExperimentConfig, p: dict):
    eps, t, x0 = p["epsilon"], p["t"], p["x0"]
    run = SdeRun(potential=quadratic_well(), epsilon=eps, dt=p["dt"],
                 x0=[x0], seed=cfg.seed)
    xs = _parallel_raw(lambda offset, count: sample_endpoints(run, t, count, offset),
                       p["n"], cfg.threads)[:, 0]
    mean_th, var_th = ou_mean_var(x0, t, eps)
    mean_emp, var_emp = float(xs.mean()), float(xs.var(ddof=1))
    se_mean = float(xs.std(ddof=1) / np.sqrt(xs.size))
    se_var = var_emp * np.sqrt(2.0 / (xs.size - 1))

    db = detailed_balance_residual(0.7, eps, np.linspace(-2, 2, 41))
    y = np.linspace(-1.5, 1.5, 31)
    r1 = ou_fokker_planck_residual(x0, eps, max(t, 0.5), y, 1e-2)
    r2 = ou_fokker_planck_residual(x0, eps, max(t, 0.5), y, 5e-3)

    header = ["check", "value", "expected", "band"]
    rows = [
        ("endpoint_mean", mean_emp, mean_th, 3 * se_mean),
        ("endpoint_var", var_emp, var_th, 3 * se_var),
        ("detailed_balance_residual", db, 0.0, 1e-12),
        ("fokker_planck_richardson", r1 / r2, 4.0, 0.5),
    ]
    ok = all(abs(v - e) <= b for _, v, e, b in rows)
    return header, rows, {"all_passed": ok}


def _run_potential_theory(cfg: ExperimentConfig, p: dict):
    eps, A, B = p["epsilon"], p["A"], p["B"]
    pot = _POTENTIALS[p["potential"]]()
    grid = Grid1D(p["a"], p["b"], p["m"])
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


def _run_determinant(cfg: ExperimentConfig, p: dict):
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


def _run_kramers_predict(cfg: ExperimentConfig, p: dict):
    if p["system"] == "quartic":
        pot = quartic_double_well()
        pred = ek_finite(find_critical_point(pot, [-0.9]),
                         find_critical_point(pot, [0.1]), pot)
    elif p["system"] == "ac1d":
        pred = ek_allen_cahn_1d(p["L"], p["N"])
    elif p["system"] == "ac2d":
        pred = ek_allen_cahn_2d(p["L"], p["N"])
    else:  # ac1d-galerkin
        gp = galerkin_potential_1d(p["L"], p["N"])
        mn, sd = galerkin_critical_points_1d(p["L"], p["N"])
        pred = ek_finite(mn, sd, gp)
    rows = [("barrier", pred.barrier),
            ("prefactor", pred.prefactor),
            ("lambda_minus", pred.lambda_minus),
            ("determinant_factor", pred.determinant_factor)]
    rows += [(f"predicted_mean_time_eps={eps}", pred.predict(eps))
             for eps in p["epsilon"]]
    return ["quantity", "value"], rows, dict(rows)


def _run_rate_functional(cfg: ExperimentConfig, p: dict):
    if "field_jsonl" in p:
        from .rate_functional import load_field_path_jsonl, rate_functional_ac_1d

        path = load_field_path_jsonl(p["field_jsonl"])
        if p["L"] not in (None, path.L):  # the file's torus, known once read
            raise ShapeMismatch(f"path torus length {path.L} != requested {p['L']}")
        value = rate_functional_ac_1d(path)
        rev = rate_functional_ac_1d(path.reversed())
    else:
        path = load_path_csv(p["path_csv"])
        pot = _POTENTIALS[p["potential"]]()
        value = rate_functional_sde(path, pot)
        rev = rate_functional_sde(path.reversed(), pot)
    rows = [("cost", value), ("cost_reversed", rev),
            ("n_nodes", path.times.size)]
    return ["quantity", "value"], rows, dict(rows)


def _run_randomwalk(cfg: ExperimentConfig, p: dict):
    n_walks, n_steps, s, t = p["n_walks"], p["n_steps"], p["s"], p["t"]
    w = _parallel_raw(_walk_ranges(n_steps, [s, t, 1.0], cfg.seed), n_walks,
                      cfg.threads)
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


def _run_arrhenius_sweep(cfg: ExperimentConfig, p: dict):
    ensemble = _sde_ensemble if p["system"] == "sde" else _spde_ensemble
    eps_list, n = p["epsilon_list"], p["n"]
    # the eps index joins the seed in the entropy, so no (seed, index) pair
    # shares another's streams
    seeds = [int(np.random.SeedSequence([cfg.seed, i]).generate_state(1)[0])
             for i in range(len(eps_list))]
    workers = [ensemble({**p, "epsilon": eps, "d": 1}, seed)[1]  # ac1d: d = 1
               for eps, seed in zip(eps_list, seeds)]  # each checked before any runs
    batches = [(eps, HittingTimeBatch(_parallel_raw(worker, n, cfg.threads)))
               for eps, worker in zip(eps_list, workers)]
    fit = arrhenius_fit(batches)
    header = ["epsilon", "mean_tau", "stderr", "n_censored"]
    rows = [(eps, b.mean, b.stderr, b.n_censored) for eps, b in batches]
    rows.append(("fit_slope", fit.slope, fit.intercept, fit.r_squared))
    summary = {"slope": fit.slope, "intercept": fit.intercept,
               "r_squared": fit.r_squared}
    return header, rows, summary


def _comma_floats(text: str) -> list:
    return [float(x) for x in text.split(",")]


def _on_off(text: str) -> bool:
    if text not in ("on", "off"):
        raise argparse.ArgumentTypeError("expected on or off")
    return text == "on"


_POSITIVE = (lambda v: v > 0, "parameter {key} must be positive")


def _no_less(low: int) -> tuple:
    return lambda v: v >= low, f"parameter {{key}} must be >= {low}"


# parameter -> (the type of its flag, then its domain if it has one: a test
# of a value, or of each element of a list, and the fault's message).  A and
# B, config-only pairs, have the type (float, float) and no flag.  The library keeps the checks it
# makes before any work: d, N, L > 0, m, a, b, A, B, the field's dt < 1, s < 0.
_PARAMS = {
    "epsilon": (float, _POSITIVE), "dt": (float, _POSITIVE),
    "t": (float, _POSITIVE), "t_max": (float, _POSITIVE), "x0": (float,),
    "target": (float,), "delta": (float, _POSITIVE), "n": (int, _no_less(1)),
    "d": (int,), "L": (float,), "N": (int,), "m": (int,), "a": (float,),
    "b": (float,), "s": (float,), "start": (float,),
    "n_walks": (int, _no_less(2)),  # a sample variance
    "n_steps": (int, _no_less(1)),
    "potential": (str, (lambda v: v in _POTENTIALS, "unknown {key} {value!r}")),
    "system": (str,), "norm": (str,), "path_csv": (str,), "field_jsonl": (str,),
    "snapshots": (int, _no_less(0)), "epsilon_list": (_comma_floats, _POSITIVE),
    "renormalize": (_on_off,), "A": ((float, float),), "B": ((float, float),),
}

# the parameters of the SDE and of the field hitting ensembles besides
# epsilon (and the field's d): each one's default, or ... where required
_SDE = {"dt": ..., "x0": ..., "target": ..., "delta": ..., "t_max": None,
        "potential": "quartic"}
_FIELD = {"L": ..., "N": ..., "dt": ..., "delta": ..., "t_max": ...,
          "start": -1.0, "renormalize": None, "target": 1.0}


def _normed(row: dict) -> tuple:
    """row under --norm: s, the Sobolev index, is read with hs only."""
    return "norm", {"linf": row, "hs": {**row, "s": -0.5}}


# a rule: (the keys it reads, a test of their values, the error and message
# of a failure); it holds wherever its keys are read
_L_RANGE = (("L",), lambda L: 0 < L < 2 * np.pi, ConfigError,
            "L must lie in (0, 2*pi)")


def _whole_steps(t: float, dt: float) -> bool:
    """Whether t / dt is a whole number k >= 1 of steps, to within 4 ulps of
    k (as randomwalk reads n t): the engine runs round(t / dt) steps."""
    k = np.rint(t / dt)
    return bool(1 <= k < np.inf and abs(t / dt - k) <= 4 * np.spacing(k))


# experiment -> (runner, what it reads, its rules).  What it reads is a row,
# each parameter's default (... where required), or a choice: (the key that
# picks, {value: what it reads}), the default first.  rate-functional's input picks by which
# one is given (key None).
_EXPERIMENTS = {
    "sde-hitting": (_run_sde_hitting, {"epsilon": ..., **_SDE, "n": ...}, ()),
    "spde-hitting": (_run_spde_hitting, _normed(
        {"d": ..., "epsilon": ..., **_FIELD, "n": ..., "snapshots": 0}), (_L_RANGE,)),
    "ou-check": (_run_ou_check,
                 {"epsilon": ..., "t": ..., "dt": ..., "n": ..., "x0": 1.0},
                 ((("n",), lambda n: n >= 2, ConfigError,  # a sample variance
                   "parameter n must be >= 2"),
                  (("t", "dt"), _whole_steps, ConfigError,  # the law is read at t
                   "parameter t must be a whole number of dt steps"))),
    "potential-theory": (_run_potential_theory, {
        "epsilon": ..., "potential": "quartic", "a": -2.5, "b": 2.5, "m": 1999,
        "A": (-1.2, -0.8), "B": (0.8, 1.2)}, ()),
    "determinant": (_run_determinant, {"d": ..., "L": ..., "N": ...}, ()),
    "kramers-predict": (_run_kramers_predict, ("system", {
        "quartic": {"epsilon": []}, "ac1d": {"L": ..., "N": None, "epsilon": []},
        "ac2d": {"L": ..., "N": ..., "epsilon": []},
        "ac1d-galerkin": {"L": ..., "N": ..., "epsilon": []}}), ()),
    "rate-functional": (_run_rate_functional, (None, {
        "path_csv": {"path_csv": ..., "potential": "quartic"},
        "field_jsonl": {"field_jsonl": ..., "L": None}}), ()),
    "randomwalk": (_run_randomwalk,
                   {"n_walks": ..., "n_steps": ..., "s": 0.25, "t": 1.0},
                   ((("s", "t"), lambda s, t: s < t, ConfigError,
                     "parameter s must be below t"),)),
    "arrhenius-sweep": (_run_arrhenius_sweep, ("system", {
        "sde": {**_SDE, "dt": 1e-3, "x0": -1.0, "target": 1.0, "delta": 0.2,
                "epsilon_list": ..., "n": ...},
        "ac1d": _normed({**_FIELD, "dt": 2e-3, "t_max": 4000.0, "delta": 0.3,
                         "epsilon_list": ..., "n": ...})}),
        (_L_RANGE, (("epsilon_list",), lambda e: len(set(e)) >= 3,
                    InsufficientData, "need at least 3 distinct eps values"))),
}


def _reads(node) -> set:
    """Every parameter a node of _EXPERIMENTS reads, under any choice."""
    if isinstance(node, dict):
        return set(node)
    key, choices = node
    return {key}.union(*map(_reads, choices.values())) - {None}


def _fits(kind, v) -> bool:
    """Whether config-file value v has the JSON type of a parameter of type
    kind: a bool is neither an integer nor a number, and renormalize takes one."""
    if isinstance(kind, tuple):  # a list of that many values of those types
        return isinstance(v, list) and len(v) == len(kind) and all(map(_fits, kind, v))
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


def _wrong_type(key: str, v) -> ConfigError:
    return ConfigError(f"parameter {key} has the wrong type: {v!r}")


def _parameters(cfg: ExperimentConfig) -> dict:
    """cfg's seed, threads and parameters checked, with the row's defaults
    filled in; raises ConfigError (or a rule's own error) at the first fault."""
    for key, low in (("seed", 0), ("threads", 1)):  # global, not in _PARAMS
        v, (holds, fault) = getattr(cfg, key), _no_less(low)
        if not _fits(int, v):
            raise _wrong_type(key, v)
        if not holds(v):
            raise ConfigError(fault.format(key=key))
    given, what = cfg.parameters, cfg.experiment
    _, node, rules = _EXPERIMENTS[cfg.experiment]
    row = {}
    while isinstance(node, tuple):
        key, choices = node
        if key is None:  # rate-functional's input
            picked = sorted(choices.keys() & given.keys())
            if len(picked) != 1:
                raise ConfigError(f"{what} reads exactly one of {' and '.join(choices)}")
            node, what = choices[picked[0]], f"{what} --{picked[0]}"
            continue
        row[key] = choice = given.get(key, next(iter(choices)))
        if not _fits(str, choice):
            raise _wrong_type(key, choice)
        if choice not in choices:
            raise ConfigError(f"unknown {key} {choice!r}")
        node, what = choices[choice], f"{what} --{key} {choice}"
    row.update(node)
    unread = sorted(given.keys() - row.keys())
    if unread:
        raise ConfigError(f"{what} does not read {', '.join(unread)}")
    p = dict(row)
    for key, v in given.items():
        kind, *domain = _PARAMS[key]
        many = isinstance(row[key], list)  # kramers-predict's epsilon: one or a list
        if not (_fits(kind, v) or many and _fits(_comma_floats, v)):
            raise _wrong_type(key, v)
        if not _finite(v):  # argparse reads "inf", json.load "Infinity"
            raise ConfigError(f"parameter {key} must be finite")
        for holds, fault in domain:
            bad = [x for x in (v if isinstance(v, list) else [v]) if not holds(x)]
            if bad:
                raise ConfigError(fault.format(key=key, value=bad[0]))
        p[key] = [v] if many and not isinstance(v, list) else v
    missing = [key for key, default in row.items() if default is ... and key not in given]
    if missing:
        raise ConfigError(f"missing required parameter(s): {', '.join(missing)}")
    for keys, holds, error, message in rules:
        if p.keys() >= set(keys) and not holds(*(p[k] for k in keys)):
            raise error(message)
    return p


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
    for name, (_, node, _) in _EXPERIMENTS.items():
        reads = _reads(node)
        sp = sub.add_parser(name, allow_abbrev=False)
        sp.add_argument("--config", help="JSON file with a parameters map")
        sp.add_argument("--out", default=".")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--threads", type=int)
        for key, (kind, *_) in _PARAMS.items():
            if key in reads and not isinstance(kind, tuple):  # A, B: no flag
                sp.add_argument("--epsilon-list" if key == "epsilon_list"
                                else f"--{key}", dest=key, type=kind)

    ns = parser.parse_args(argv)
    file_cfg = {}
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
        if file_cfg.get("experiment", ns.experiment) != ns.experiment:
            raise ValueError("config file experiment differs from subcommand")
    flags = {k: v for k, v in vars(ns).items() if v is not None}
    params = {**file_cfg.get("parameters", {}),
              **{k: v for k, v in flags.items() if k in _PARAMS}}
    # seed and threads: a flag overrides the file, the file the default
    top = {"seed": 0, "threads": 1, **file_cfg, **flags}
    return ExperimentConfig(experiment=ns.experiment, parameters=params,
                            seed=top["seed"], threads=top["threads"], out=ns.out)


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit code.  The
    parameters are checked, then the out directory is made, before the
    experiment runs, so a parameter fault or an --out that cannot be written
    exits before anything runs, and a failed run removes the directories it
    made."""
    t0 = time.perf_counter()
    out = Path(cfg.out)
    made = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    try:
        p = _parameters(cfg)
        out.mkdir(parents=True, exist_ok=True)
        header, rows, summary = _EXPERIMENTS[cfg.experiment][0](cfg, p)
        write_results(cfg, header, rows, summary, wall_time=time.perf_counter() - t0)
        return 0
    except AllCensored as exc:
        _report("AllCensored", str(exc))
        code = 3
    except (OSError, ValueError, MetastabError) as exc:
        # OSError: an input file that cannot be read or an --out that cannot
        # be written
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
