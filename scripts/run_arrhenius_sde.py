#!/usr/bin/env python3
"""Arrhenius sweep for the quartic double well: simulate first-hitting times
over a list of noise intensities and fit log(mean tau) against 1/eps.

The exact barrier is 0.25; the fitted slope approaches it only as the window
moves toward small eps (the prefactor correction is strongly eps-dependent
around eps ~ 0.2-0.35, see the solver-based sweep this script also prints)."""

import argparse

import numpy as np

import metastab as m
from metastab.cli import arrhenius_fit
from metastab.potential_theory import start_node


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--eps", type=str, default="0.2,0.25,0.3,0.35")
    ap.add_argument("--n", type=int, default=800)
    ap.add_argument("--dt", type=float, default=1e-3)
    ap.add_argument("--seed", type=int, default=505)
    args = ap.parse_args()
    eps_list = [float(x) for x in args.eps.split(",")]

    quartic = m.quartic_double_well()
    grid = m.Grid1D(-2.5, 2.5, 1999)
    i_star = start_node(grid, quartic, (-1.2, -0.8))

    batches, pde_times = [], []
    for eps in eps_list:
        run = m.SdeRun(quartic, epsilon=eps, dt=args.dt, x0=[-1.0],
                       seed=args.seed)
        b = m.sample_hitting_times(run, [1.0], 0.2, args.n)
        batches.append((eps, b))
        w = m.solve_poisson(grid, quartic, eps, (0.8, 1.2))
        pde_times.append((eps, w[i_star]))
        print(f"eps={eps}: MC mean {b.mean:.3f} +- {b.stderr:.3f}, "
              f"solver {w[i_star]:.3f}")

    mc_fit = arrhenius_fit(batches)
    pde_fit = arrhenius_fit(pde_times)
    print(f"MC fit    : slope {mc_fit.slope:.4f}, intercept "
          f"{np.exp(mc_fit.intercept):.3f}, r^2 {mc_fit.r_squared:.5f}")
    print(f"solver fit: slope {pde_fit.slope:.4f}, intercept "
          f"{np.exp(pde_fit.intercept):.3f}")
    print("exact barrier: 0.25")


if __name__ == "__main__":
    main()
