"""Run the three attack presets on toy candidates and tabulate the outcome."""
import argparse
import time

from oraclebench.adversary import BACKENDS
from oraclebench.harness import ExperimentConfig, run_experiment


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lambda", dest="lam", type=int, default=2)
    ap.add_argument("--c", type=int, default=0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--backend", choices=BACKENDS, default="ideal")
    args = ap.parse_args()

    print(f"{'attack':>12} {'ell':>4} {'T':>3} {'d':>3} {'advantage':>10} "
          f"{'hybrid':>10} {'bound':>10} {'ms':>7} {'deleted':>7}")
    t0 = time.perf_counter()
    for kind in ("attack-pru", "attack-pri", "attack-pri-vs-hri"):
        cfg = ExperimentConfig(
            kind=kind, lam=args.lam, c=args.c, seed=args.seed, backend=args.backend
        )
        (rep,) = run_experiment(cfg).results
        print(f"{rep.kind:>12} {rep.ell:>4} {rep.t_queries:>3} {rep.d_cutoff:>3} "
              f"{rep.advantage:>10.4f} {rep.hybrid_distance:>10.3g} "
              f"{rep.hybrid_bound:>10.3g} {rep.wall_ms:>7d} {rep.deleted_calls:>7d}")
    print(f"total {time.perf_counter() - t0:.1f}s")


if __name__ == "__main__":
    main()
