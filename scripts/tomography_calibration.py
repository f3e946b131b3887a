"""Calibrate the sampled-tomography shot constant.

Runs the shot-sampled reconstruction against Haar unitaries over a grid of
candidate constants and prints the fraction of runs landing within the
claimed spectral error. The shipped C_TOM is the smallest grid value whose
success rate clears 0.9 at the reference point (dim=2, eps=0.1, eta=0.1).
"""
import argparse

import numpy as np

from oraclebench.haar import sample_haar_unitary
from oraclebench.seeds import SeedPath
from oraclebench.tomography import (
    phase_aligned_distance,
    process_tomography_sampled,
    shot_count,
)


def success_rate(c_tom: float, dim: int, eps: float, eta: float, runs: int, seed: SeedPath):
    errs = []
    for i in range(runs):
        u = sample_haar_unitary(dim, seed.child("u", i)).mat
        res = process_tomography_sampled(
            lambda psi: u @ psi, dim, eps, eta, seed.child("shots", i).rng(), c_tom
        )
        errs.append(phase_aligned_distance(res.estimate, u, ord=2))
    errs = np.array(errs)
    return float(np.mean(errs <= eps)), float(np.median(errs))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=2)
    ap.add_argument("--eps", type=float, default=0.1)
    ap.add_argument("--eta", type=float, default=0.1)
    ap.add_argument("--runs", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--grid", type=float, nargs="+", default=[0.25, 0.5, 1.0, 2.0, 4.0])
    args = ap.parse_args()

    # every grid value's shot count before any run: no shots (eps inf, c_tom 0) is refused
    try:
        shots = [shot_count(args.dim, args.eps, args.eta, c) for c in args.grid]
    except ValueError as e:
        ap.error(str(e))
    root = SeedPath(args.seed)
    print(f"dim={args.dim} eps={args.eps} eta={args.eta} runs={args.runs}")
    print(f"{'c_tom':>7} {'shots':>9} {'within eps':>11} {'median err':>11}")
    for c, n in zip(args.grid, shots):
        rate, med = success_rate(c, args.dim, args.eps, args.eta, args.runs, root.child("c", int(c * 100)))
        print(f"{c:>7.2f} {n:>9d} {rate:>11.2f} {med:>11.4f}")


if __name__ == "__main__":
    main()
