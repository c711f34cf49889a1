#!/usr/bin/env python3
"""Cross-validate three routes to the mean transition time of the quartic
double well at one noise intensity: Monte Carlo first-hitting times, the
1D mean-hitting-time solve, and the explicit rate formula."""

import argparse

import metastab as m
from metastab.potential_theory import start_node


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--epsilon", type=float, default=0.25)
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--dt", type=float, default=1e-3)
    ap.add_argument("--delta", type=float, default=0.2)
    ap.add_argument("--seed", type=int, default=404)
    args = ap.parse_args()

    quartic = m.quartic_double_well()
    run = m.SdeRun(quartic, epsilon=args.epsilon, dt=args.dt, x0=[-1.0],
                   seed=args.seed)
    batch = m.sample_hitting_times(run, [1.0], args.delta, args.n)

    grid = m.Grid1D(-2.5, 2.5, 1999)
    w = m.solve_poisson(grid, quartic, args.epsilon,
                        (1 - args.delta, 1 + args.delta))
    w_star = w[start_node(grid, quartic, (-1.2, -0.8))]

    mn = m.find_critical_point(quartic, [-0.9])
    sd = m.find_critical_point(quartic, [0.1])
    ek = m.ek_finite(mn, sd, quartic).predict(args.epsilon)

    print(f"epsilon = {args.epsilon}")
    print(f"Monte Carlo mean tau : {batch.mean:.4f} +- {batch.stderr:.4f} "
          f"(n={args.n}, censored={batch.n_censored})")
    print(f"1D solver w(-1)      : {w_star:.4f}")
    print(f"rate formula         : {ek:.4f}")
    print(f"MC/solver: {batch.mean / w_star:.4f}   solver/formula: {w_star / ek:.4f}")


if __name__ == "__main__":
    main()
