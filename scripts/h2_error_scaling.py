#!/usr/bin/env python3
"""Time-step error scaling of both step variants on the bundled H2 integrals.

For each variant the script evolves the Hartree-Fock state to t = 1 over a
grid of step sizes, measures the trace distance to the exact evolution,
fits a power law, and repeats the exercise for the per-step projection
error alone.  Results go to two CSV files plus fitted slopes on stdout.

The rank-3 factorization is exact for two orbitals; among the random
exact factorizations the one with the smallest entrywise core norm is
used so that the largest step sizes stay inside the perturbative window.
"""

from __future__ import annotations

import argparse
from importlib.resources import files
from pathlib import Path

import numpy as np

from isothc.algorithm import (
    StepSpec,
    evolve,
    hartree_fock_state,
    projection_error_measured,
)
from isothc.cli import csv_text, fit_loglog
from isothc.hamiltonian import parse_fcidump, rotate_to_h_eigenbasis
from isothc.thc import exact_factorize

VARIANTS = ("basic", "improved")


def best_conditioned_thc(rotated, m: int, n_seeds: int):
    candidates = [exact_factorize(rotated, m=m, seed=seed) for seed in range(n_seeds)]
    return min(candidates, key=lambda f: float(np.abs(f.vtilde).sum()))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fcidump", default=str(files("isothc") / "data/h2_sto6g.fcidump"))
    parser.add_argument("--t", type=float, default=1.0)
    parser.add_argument("--tau", nargs="+", type=float,
                        default=[0.2, 0.1, 0.05, 0.02, 0.01])
    parser.add_argument("--projection-tau", nargs="+", type=float,
                        default=[1e-1, 10**-1.5, 1e-2, 10**-2.5, 1e-3])
    parser.add_argument("--m", type=int, default=3)
    parser.add_argument("--seeds", type=int, default=10,
                        help="exact factorizations to draw before picking one")
    parser.add_argument("--outdir", type=Path, default=Path("results"))
    args = parser.parse_args()

    rotated, _ = rotate_to_h_eigenbasis(parse_fcidump(args.fcidump))
    thc = best_conditioned_thc(rotated, args.m, args.seeds)
    print(f"factorization: m = {thc.m}, eps_v = {thc.eps_v:.2e}, "
          f"core l1 = {np.abs(thc.vtilde).sum():.2f} (seed {thc.seed})")
    psi0 = hartree_fock_state(rotated, (1, 1))

    total_rows = []
    for variant in VARIANTS:
        errors = []
        for tau in args.tau:
            result = evolve(psi0, thc, rotated, args.t, StepSpec(tau=tau, variant=variant))
            errors.append(result.error_vs_exact)
            total_rows.append([variant, f"{tau:.10g}", result.n_steps,
                               f"{result.error_vs_exact:.12e}"])
        slope = fit_loglog(args.tau, errors).slope
        print(f"total error at t = {args.t}: {variant} slope {slope:.3f}")

    projection_rows = []
    for variant in VARIANTS:
        errors = []
        for tau in args.projection_tau:
            err = projection_error_measured(thc, psi0, StepSpec(tau=tau, variant=variant))
            errors.append(err)
            projection_rows.append([variant, f"{tau:.10g}", f"{err:.12e}"])
        slope = fit_loglog(args.projection_tau, errors).slope
        print(f"per-step projection error: {variant} slope {slope:.3f}")

    args.outdir.mkdir(parents=True, exist_ok=True)
    total_path = args.outdir / "h2_total_error.csv"
    total_path.write_text(csv_text(["variant", "tau", "steps", "error"], total_rows))
    projection_path = args.outdir / "h2_projection_error.csv"
    projection_path.write_text(csv_text(["variant", "tau", "error"], projection_rows))
    print(f"wrote {total_path}")
    print(f"wrote {projection_path}")


if __name__ == "__main__":
    main()
