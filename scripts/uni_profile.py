"""Oscillation margins across scales, then one cancellation run.

Scans the rescaled temporal-contrast margin kappa-hat over dyadic eps,
then runs the majorant iteration at one frequency and prints the step
table: norms of the oscillatory iterate and its majorant, the marked
fraction, and the certified contraction factors.

    python3 scripts/uni_profile.py --roof sin --b 256
"""

import argparse

from transferlab import cancellation, scales
from transferlab.markov import doubling_model

ROOFS = {
    "sin": (2.0, 0.0, 0.5, 0.0),
    "flat": (1.0, 0.0, 0.0, 0.0),
    "affine": (2.0, 1.0, 0.0, 0.0),
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--roof", choices=sorted(ROOFS), default="sin")
    ap.add_argument("--b", type=float, default=256.0)
    ap.add_argument("--q-min", type=int, default=6)
    ap.add_argument("--q-max", type=int, default=12)
    args = ap.parse_args()

    model = doubling_model(roof=ROOFS[args.roof])
    print(f"roof={args.roof}")
    for q in range(args.q_min, args.q_max + 1):
        scale = scales.matching_scale(model, 2.0 ** -q)
        cert = scales.uni_scan(model, scale)
        print(f"  eps=2^-{q:<2d} kappa_hat={cert.kappa_hat:.6f} "
              f"witnesses={len(cert.witnesses)}")

    run = cancellation.run_l2_iteration(model, 0.0, args.b)
    print(f"majorant iteration at b={args.b}: n1={run.n1} "
          f"burn_in={run.burn_in} atoms={run.atoms} "
          f"refused={run.refused}")
    print(f"{'step':>5} {'sup u':>11} {'L2 u':>11} {'L2 H':>11} "
          f"{'marked':>7} {'bumps':>6} {'kappa4':>8}")
    for r in run.rows:
        print(f"{r.n:5d} {r.c0_u:11.4e} {r.l2_u:11.4e} {r.l2_h:11.4e} "
              f"{r.omega_fraction:7.3f} {r.bumps:6d} {r.kappa4:8.5f}")
    tail = (f"kappa_fit={run.kappa_fit:.4f}" if run.kappa_fit is not None
            else "kappa_fit=none")
    print(f"kappa4_min={run.kappa4_min:.5f} final_l2={run.final_l2:.4e} "
          f"{tail} truncated_at={run.truncated_at}")


if __name__ == "__main__":
    main()
