"""metastab benchmark: seeded transition-time workloads, checked against oracles.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sde_kramers --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 prints
its per-layer metrics (microbenchmarks, self time per layer from spans, counts
and the tracing overhead).  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  A full record of the run
(every iteration, check, hash and the provenance) is appended to
<out>/results.jsonl; a traced run also writes its spans to <out>/spans-*.jsonl.
Exit code 0 when every check passed, 1 when one failed, 2 on bad usage or
when the checkout has no metastab sources.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import os  # noqa: E402

# Pin BLAS/OpenMP pools before numpy loads, here and in every child process,
# so that a run never uses more threads than the machine has cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7  # fresh processes per run; setup_s is their median
WORKLOAD_NAMES = ("sde_kramers", "field_1d", "field_2d", "cli_threads")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measurement length: the timed pass makes seconds // "
                        "iteration_s iterations of the workload (at least one)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: tiny inputs for the benchmark's own test")
    p.add_argument("--out", type=Path, default=Path(".perfbench_out"),
                   help="directory for results.jsonl, spans and temporary files")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Put the checkout's sources first on sys.path; refuse to run without them."""
    if not (SRC / "metastab" / "__init__.py").is_file():
        print(f"perfbench: no metastab sources under {SRC}; "
              "run from the root of a metastab checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": commit,
        "seed": seed,
        "thread_env": {v: os.environ.get(v) for v in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def setup_time(args) -> list:
    """Seconds each fresh process takes to import metastab and build inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--size", args.size, "--out", str(args.out)]
    out = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


def run_iteration(wl, seed: int, i: int, tracer=None):
    """(wall seconds, Outcome) of one iteration; an exception is a failure."""
    from workloads import Outcome

    inputs = wl.build(seed, i)
    t0 = time.perf_counter()
    try:
        outcome = wl.run(inputs) if tracer is None else wl.run(inputs, tracer)
    except Exception as exc:  # the run must report, not die, on a library error
        outcome = Outcome(replicas=0, censored=0,
                          checks={"raised": (False, f"{type(exc).__name__}: {exc}")})
    return time.perf_counter() - t0, outcome


def iteration_record(i, seed, wall, outcome) -> dict:
    from workloads import sim_seed

    return {"iteration": i, "sim_seed": sim_seed(seed, i), "wall_s": wall,
            "replica_steps": outcome.replica_steps, "hits": outcome.hits,
            "censored": outcome.censored, "attempted": outcome.attempted,
            "failed": outcome.failed,
            "checks": {k: [bool(ok), detail] for k, (ok, detail) in outcome.checks.items()},
            "hashes": outcome.hashes}


def timed_pass(wl, args, record) -> dict:
    setups = setup_time(args)
    iterations = max(1, int(args.seconds // wl.iteration_s))
    runs = [(i, *run_iteration(wl, args.seed, i)) for i in range(iterations)]
    record["setup_s_samples"] = setups
    record["iterations"] = [iteration_record(i, args.seed, w, o) for i, w, o in runs]
    return {
        "wall_s": statistics.median(w for _, w, _ in runs),
        "replica_steps_per_s": statistics.median(o.replica_steps / w for _, w, o in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_frac": 1.0 - record_failed(record) / record_attempted(record),
    }


def traced_pass(wl, args, record) -> dict:
    """Layer microbenchmarks, then iteration 0 untraced and traced."""
    import layers
    from tracing import Tracer

    metrics, layer_checks = layers.all_layers(args.seed, args.out / "tmp")
    wall_u, plain = run_iteration(wl, args.seed, 0)
    plain.checks.update(layer_checks)
    tracer = Tracer(f"{wl.name}-seed{args.seed}-it0")
    wall_t, traced = run_iteration(wl, args.seed, 0, tracer)
    traced.checks["trace_transparent"] = (
        traced.hashes == plain.hashes, "traced outputs hash-identical to untraced")
    record["iterations"] = [iteration_record(0, args.seed, wall_u, plain),
                            {**iteration_record(0, args.seed, wall_t, traced), "traced": True}]
    record["spans_file"] = str(args.out / f"spans-{wl.name}-seed{args.seed}.jsonl")
    with open(record["spans_file"], "w") as fh:
        tracer.write_jsonl(fh)

    for layer, seconds in tracer.self_times().items():
        metrics[f"trace.self_s.{layer}"] = seconds
    metrics["trace.overhead_s"] = wall_t - wall_u
    metrics["trace.spans"] = len(tracer.spans)
    metrics["potentials.gradient_calls"] = sum(
        1 for s in tracer.spans if s[2] == "potentials.gradient_batch")
    metrics["sde.replica_steps"] = plain.sde_replica_steps
    metrics["spde.replica_steps"] = plain.spde_replica_steps
    metrics["hits"] = plain.hits
    metrics["censored"] = plain.censored
    metrics["sde.compaction_ns"] = (
        1e9 * wall_u / plain.sde_replica_steps - metrics["sde.step_ns.n2000"]
        if plain.sde_replica_steps else 0.0)
    return metrics


def record_attempted(record) -> int:
    return sum(it["attempted"] for it in record["iterations"])


def record_failed(record) -> int:
    return sum(it["failed"] for it in record["iterations"])


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.size)
    wl.tmp_root = args.out / "tmp"
    if args.setup_probe:
        wl.build(args.seed, 0)
        print(time.perf_counter() - T_START)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    args.out.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "size": args.size,
              "provenance": provenance(args.seed)}
    measured = (traced_pass if args.trace else timed_pass)(wl, args, record)
    metrics = {m["name"]: {"value": float(measured[m["name"]]), "unit": m["unit"]}
               for m in wanted}

    attempted, failed = record_attempted(record), record_failed(record)
    record["failed_frac"] = failed / attempted
    record["metrics"] = {k: float(v) for k, v in measured.items()}
    correct = all(ok for it in record["iterations"] for ok, _ in it["checks"].values())
    record["correct"] = correct
    with open(args.out / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    for it in record["iterations"]:
        for name, (ok, detail) in it["checks"].items():
            print(f"{args.workload} it{it['iteration']} check {name}: "
                  f"{'PASS' if ok else 'FAIL'} - {detail}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
