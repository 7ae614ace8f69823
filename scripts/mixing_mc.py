"""Monte Carlo flow correlations: decaying versus resonant roof.

Samples the suspension flow under the size-biased section measure and
prints the centered correlation of sin(2 pi x) with itself on a short
time grid, then the fitted exponential rate.  The sine roof mixes; the
unit roof with a fiber-phase observable stays flat at 1/2.

    python3 scripts/mixing_mc.py --samples 1000000 --seed 0
"""

import argparse

import numpy as np

from transferlab import orbits
from transferlab.markov import doubling_model


def sine(x):
    return np.sin(2 * np.pi * np.asarray(x))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    sin_model = doubling_model(roof=(2.0, 0.0, 0.5, 0.0))
    t_grid = tuple(np.linspace(0.0, 2.0, 11))
    rep = orbits.correlation_decay(sin_model, sine, sine, t_grid,
                                   args.samples, seed=args.seed)
    print("sine roof, observable sin(2 pi x):")
    for t, c, s in zip(rep.t_grid, rep.corr, rep.stderr):
        print(f"  t={t:4.1f}  corr={c:+.5f} +- {s:.5f}")
    print(f"  rate={rep.rate:.4f} +- {rep.rate_err:.4f}  "
          f"R^2={rep.r_squared:.4f}")

    flat = doubling_model()
    sec = lambda x: 1.0 + 0.5 * sine(x)
    fib = lambda u: np.cos(2 * np.pi * np.asarray(u))
    obs = (sec, fib)
    t_int = tuple(float(t) for t in range(1, 9))
    rep2 = orbits.correlation_decay(flat, obs, obs, t_int, args.samples,
                                    seed=args.seed)
    print("unit roof, observable (1 + sin/2) cos(2 pi u):")
    for t, c, s in zip(rep2.t_grid, rep2.corr, rep2.stderr):
        print(f"  t={t:4.1f}  corr={c:+.5f} +- {s:.5f}")
    print(f"  rate={rep2.rate:+.2e} +- {rep2.rate_err:.2e}  "
          f"(no decay: phases recur on the integer lattice)")


if __name__ == "__main__":
    main()
