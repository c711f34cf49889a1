"""Diff two benchmark result files (the results.jsonl that run.py appends to).

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Prints, per workload and metric, the median of each side over its runs, the
ratio new/base and each side's quartile spread as a share of its median; then
whether the outputs of each (workload, seed, iteration) present on both sides
are bit-identical (sha256 of the raw hitting-time arrays and of results.csv).
Exit code 1 when any shared iteration's hashes differ.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def load(path: str) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def metric_values(records: list) -> dict:
    """{(workload, trace, metric): [value per run]}"""
    out = defaultdict(list)
    for r in records:
        for name, value in r["metrics"].items():
            out[r["workload"], r["trace"], name].append(value)
    return out


def hashes(records: list) -> dict:
    """{(workload, seed, iteration): hashes} over untraced iterations."""
    out = {}
    for r in records:
        for it in r["iterations"]:
            if not it.get("traced") and it["hashes"]:
                out[r["workload"], r["seed"], it["iteration"]] = it["hashes"]
    return out


def spread(values: list) -> float:
    """Quartile distance over the median; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (load(p) for p in argv)
    vb, vn = metric_values(base), metric_values(new)
    print(f"{'workload':12} {'trace':5} {'metric':40} {'base':>12} {'new':>12} "
          f"{'new/base':>9} {'spread_b':>8} {'spread_n':>8}  runs")
    for key in sorted(set(vb) | set(vn)):
        b, n = vb.get(key, []), vn.get(key, [])
        mb = statistics.median(b) if b else float("nan")
        mn = statistics.median(n) if n else float("nan")
        ratio = mn / mb if b and n and mb else float("nan")
        print(f"{key[0]:12} {key[1]:<5} {key[2]:40} {mb:12.6g} {mn:12.6g} {ratio:9.4f} "
              f"{spread(b):8.2%} {spread(n):8.2%}  {len(b)}/{len(n)}")

    hb, hn = hashes(base), hashes(new)
    shared = sorted(set(hb) & set(hn))
    differ = [k for k in shared if hb[k] != hn[k]]
    print(f"\noutputs: {len(shared)} shared (workload, seed, iteration), "
          f"{len(shared) - len(differ)} bit-identical, {len(differ)} differ")
    for k in differ:
        print(f"  differs: {k[0]} seed {k[1]} iteration {k[2]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
