"""Doubling curve of the Choi-rate distances behind the c04 twirl-rate checks.

For d = 4, 8, .., 2^max_lambda the script prints the exact trace distance
between the twirled Choi reference and the pair-reordered state moment, and
the scaled ratio distance * d / ell^2 that the checks compare against their
calibration. Two rows per d: the unitary reference (d_out = d_in = d) and
the isometry reference with one padding qubit (d_out = d, d_in = d/2). The
distances are closed-form sums over partitions of ell, so no size is out of
reach. At ell = 2 the ratios rise toward 1/8 as d doubles, which is why a
single doubling increases them even though the distances halve.
"""
import argparse

from oraclebench.haar import choi_moment_distance


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-lambda", type=int, default=8, help="largest d is 2^max_lambda")
    ap.add_argument("--ell", type=int, default=2)
    args = ap.parse_args()
    if args.max_lambda < 2 or args.ell < 1:
        ap.error("need --max-lambda >= 2 and --ell >= 1")

    print(f"{'reference':>10} {'d':>6} {'distance':>14} {'ratio':>10}")
    for lam in range(2, args.max_lambda + 1):
        d = 2**lam
        for name, d_in in (("unitary", d), ("isometry", d // 2)):
            dist = float(choi_moment_distance(d, d_in, args.ell))
            print(f"{name:>10} {d:>6} {dist:>14.8e} {dist * d / args.ell**2:>10.6f}")


if __name__ == "__main__":
    main()
