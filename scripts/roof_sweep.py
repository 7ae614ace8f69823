"""Run five CLI commands on three roofs over the doubling map.

    TRANSFERLAB_GRID=16384 TRANSFERLAB_OUT=sweep python3 scripts/roof_sweep.py

The roofs are the unit roof 1, the affine roof 2 + x and the sine roof
2 + 0.5 sin(2 pi x).  The first two are cohomologous to locally constant
roofs (Livsic), so their flows do not mix exponentially; the sine roof's
temporal distances are not integrable, and its flow does.  For each roof
the model config is written to <out>/<roof>/model.txt, and `decay`,
`uni-scan`, `dolgopyat`, `orbits` and `correlation` run on it through
transferlab.cli, each writing its CSV artifacts to <out>/<roof>/ and
printing its one summary line.

The sweep has no options.  Every input is the CLI's own TRANSFERLAB_*
environment (GRID, A, B, B_LIST, EPS_LIST, N_MAX, T_GRID, SAMPLES, SEED,
...), which applies to every command that reads it, and TRANSFERLAB_OUT
(default out) is the base directory.  Exits with the worst exit code of
the fifteen runs.
"""

import argparse
import os
import sys

from transferlab import cli
from transferlab.markov import ModelConfig

ROOFS = {"unit": (1.0, 0.0, 0.0, 0.0), "affine": (2.0, 1.0, 0.0, 0.0),
         "sine": (2.0, 0.0, 0.5, 0.0)}
COMMANDS = ("decay", "uni-scan", "dolgopyat", "orbits", "correlation")


def main(argv=None) -> int:
    argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter).parse_args(argv)
    base = os.environ.get("TRANSFERLAB_OUT") or "out"
    worst = cli.OK
    for name, roof in ROOFS.items():
        out = os.path.join(base, name)
        os.makedirs(out, exist_ok=True)
        model = os.path.join(out, "model.txt")
        with open(model, "w", encoding="utf-8") as fh:
            fh.write(ModelConfig("doubling", roof).to_text())
        for command in COMMANDS:
            code = cli.main([command, "--model", model, "--out", out])
            worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
