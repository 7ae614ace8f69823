"""Batch experiment runner: one command per invocation, CSV artifacts out.

Each run loads a model config, executes a single named experiment, and
writes CSV files plus a one-line summary.  Output is fully deterministic:
the same config and seed produce byte-identical artifacts, whatever the
thread count.  Every artifact carries the model hash and the parameter
block in `#`-prefixed header lines, and the model config is echoed into
the output directory verbatim, so a results directory is self-contained.

Exit codes: 0 success, 1 usage or configuration error, 2 invariant
violation (a soundness check tripped).
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import cancellation, orbits, rpf, scales, thermo
from .cancellation import EngineError
from .markov import MarkovModel, ModelConfig, ModelError, build_model
from .thermo import ConvergenceError

OK = 0
USAGE = 1
VIOLATION = 2

COMMANDS = ("model-info", "gibbs", "pressure", "decay", "uni-scan",
            "dolgopyat", "orbits", "correlation", "invariants")

ENV_PREFIX = "TRANSFERLAB_"
# every input by its environment name, TRANSFERLAB_<NAME>, with its kind (a
# tuple is a comma list of floats); the first nine mirror the flag of the
# lower-cased name, and the list/size extras after them have no flag
_INPUTS = {"MODEL": str, "OUT": str, "SEED": int, "THREADS": int,
           "A": float, "B": float, "EPS": float, "THETA": float, "GRID": int,
           "B_LIST": tuple, "EPS_LIST": tuple, "N_MAX": int, "T_GRID": tuple,
           "SAMPLES": int, "BLOCKS": int}

DEFAULT_B_LIST = (64.0, 128.0, 256.0, 512.0)
DEFAULT_EPS_LIST = tuple(2.0 ** -q for q in range(6, 13))
DEFAULT_N_MAX = 12
DEFAULT_SAMPLES = 100_000
DEFAULT_BLOCKS = 32
DEFAULT_DOLGOPYAT_B = 256.0
MC_CHECK_SAMPLES = 20_000
# rows _write_csv formats and writes at a time: each block bounds the
# memory held by formatted strings.  On a 2-vCPU VM, the peak RSS of a
# seed-1 census pass read 116.9-117.1 MB with 32-row blocks, 116.9-117.0
# MB with 2048 and 117.4-117.6 MB with 16384 (three runs each), and a full
# markov3 orbit table of 69,706 rows took 80, 67 and 69 ms to write (75
# ms as one block)
CSV_BLOCK_ROWS = 2048


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """One resolved invocation: command, model source and overrides, each
    typed and checked by resolve."""

    command: str
    model_path: str | None
    out_dir: str
    seed: int
    a: float
    b: float | None
    eps: float | None
    theta: float | None
    grid: int | None
    b_list: tuple[float, ...]         # decay's sweep; (b,) under --b
    eps_list: tuple[float, ...]       # uni-scan's; (eps,) under --eps
    n_max: int
    t_grid: tuple[float, ...] | None  # None: the command's own grid
    samples: int
    blocks: int


# ---------------------------------------------------------------------------
# argument and environment handling
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad arguments; that code is reserved for
    # invariant violations here, so remap to the usage-error code
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE)


def _build_parser() -> _Parser:
    p = _Parser(
        prog="transferlab",
        description="Run one transfer-operator experiment and write CSV "
                    "artifacts into the output directory.")
    p.add_argument("command", choices=COMMANDS, metavar="command",
                   help="one of: " + ", ".join(COMMANDS))
    p.add_argument("--model", metavar="<path>",
                   help="model config file (default: built-in doubling map)")
    p.add_argument("--out", metavar="<dir>",
                   help="output directory (default: out)")
    p.add_argument("--seed", type=int, metavar="<u64>",
                   help="random seed for sampled quantities (default: 0)")
    p.add_argument("--threads", type=int, metavar="<n>",
                   help="accepted for compatibility; every command runs "
                        "in one thread (default: 1)")
    p.add_argument("--a", type=float, metavar="<f>",
                   help="real tilt of the twisted operator (default: 0)")
    p.add_argument("--b", type=float, metavar="<f>",
                   help="frequency; for decay, replaces the b sweep")
    p.add_argument("--eps", type=float, metavar="<f>",
                   help="scale parameter; for uni-scan, replaces the sweep")
    p.add_argument("--theta", type=float, metavar="<f>",
                   help="override the config Holder exponent")
    p.add_argument("--grid", type=int, metavar="<n>",
                   help="override the config grid size")
    return p


def _env_overrides(environ) -> dict:
    found = {}
    for key in sorted(environ):
        if not key.startswith(ENV_PREFIX):
            continue
        name = key[len(ENV_PREFIX):]
        if name not in _INPUTS:
            raise UsageError(f"unknown environment override {key}")
        if environ[key] != "":          # an empty value is unset
            found[name] = environ[key]
    return found


def _coerce(name: str, raw, kind):
    """kind(raw) for a flag, mirror or extra; a tuple is a nonempty comma
    list of floats, and every float must be finite."""
    if kind is tuple:
        vals = tuple(_coerce(name, v.strip(), float)
                     for v in raw.split(",") if v.strip())
        if not vals:
            raise UsageError(f"{name} must list at least one number")
        return vals
    try:
        val = kind(raw)
    except ValueError:
        raise UsageError(f"bad value {raw!r} for {name}") from None
    if kind is float and not math.isfinite(val):
        raise UsageError(f"{name} must be a finite number, got {raw}")
    return val


_DEFAULTS = {"out": "out", "seed": 0, "a": 0.0, "b_list": DEFAULT_B_LIST,
             "eps_list": DEFAULT_EPS_LIST, "n_max": DEFAULT_N_MAX,
             "samples": DEFAULT_SAMPLES, "blocks": DEFAULT_BLOCKS}


def resolve(args, environ) -> ExperimentConfig:
    """Merge flags over environment overrides over defaults, and run every
    check that needs no model, so that a bad input writes nothing."""
    env = _env_overrides(environ)
    got = {}
    for name, kind in _INPUTS.items():
        key = name.lower()
        extra = not hasattr(args, key)      # no flag of its own
        raw = getattr(args, key, None)
        if raw is None:
            raw = env.get(name)
        if raw is None:
            got[key] = _DEFAULTS.get(key)
        else:
            got[key] = _coerce(name if extra else key, raw, kind)

    thermo._check_tilt(got["a"])
    if not 0 <= got["seed"] < 2 ** 64:
        raise UsageError("seed must fit in an unsigned 64-bit integer")
    threads = got.pop("threads")
    if threads is not None and threads < 1:
        raise UsageError("threads must be at least 1")
    if got["n_max"] < 1:
        raise UsageError("N_MAX must be at least 1")
    if got["t_grid"] is not None and min(got["t_grid"]) < 0.0:
        raise UsageError("T_GRID entries must be at least 0, got "
                         f"{min(got['t_grid'])!r}")
    # correlation holds one block's points, and the seed streams of all
    # blocks, at once; both stay within the Monte Carlo chunk
    samples, blocks = got["samples"], got["blocks"]
    if samples < blocks or blocks < 2:
        raise UsageError("need samples >= blocks >= 2")
    chunk = orbits.MC_CHUNK_POINTS
    if samples // blocks > chunk or blocks > chunk:
        raise UsageError(f"need samples // blocks <= {chunk} and "
                         f"blocks <= {chunk}")
    if got["b"] is not None:
        got["b_list"] = (got["b"],)
    if got["eps"] is not None:
        got["eps_list"] = (got["eps"],)
    return ExperimentConfig(command=args.command, model_path=got.pop("model"),
                            out_dir=got.pop("out"), **got)


def _load_model(cfg: ExperimentConfig) -> tuple[MarkovModel, str]:
    """Build the model; returns it with the config text for the echo."""
    if cfg.model_path is not None:
        try:
            with open(cfg.model_path, "r", encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read model config: {exc}") from None
        config = ModelConfig.from_text(source)
    else:
        config = ModelConfig()
        source = config.to_text()
    if cfg.grid is not None:
        config = replace(config, grid_size=cfg.grid)
    if cfg.theta is not None:
        config = replace(config, theta=cfg.theta)
    return build_model(config), source


# ---------------------------------------------------------------------------
# artifact formatting
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (tuple, list)):
        return ",".join(_fmt(x) for x in v)
    return str(v)


def _fmt_column(col) -> list:
    """``_fmt`` over one column, a list, tuple or numpy array (whose values
    format as the Python scalars of ``tolist``).  A float, int or str
    array is formatted in one pass, chosen by its dtype."""
    if not isinstance(col, np.ndarray):
        return [_fmt(v) for v in col]
    kind, col = col.dtype.kind, col.tolist()
    if kind == "f":
        return list(map(float.__repr__, col))
    if kind in "iu":
        return list(map(int.__repr__, col))
    if kind == "U":
        return col
    return [_fmt(v) for v in col]


def model_hash(model: MarkovModel) -> str:
    return hashlib.sha256(model.config.to_text().encode("utf-8")).hexdigest()


def _csv_lines(names, fields) -> str:
    """The rows of formatted columns as text, one line per row, the fields
    joined by commas.  No field is quoted, so one holding ',', '"', CR or
    LF raises ValueError naming its column."""
    rows, k = len(fields[0]), len(fields)
    text = "".join(map((",".join(["{}"] * k) + "\n").format, *fields))
    # the counts hold exactly when no field adds a comma or a line feed
    if (text.count(",") == rows * (k - 1) and text.count("\n") == rows
            and '"' not in text and "\r" not in text):
        return text
    bad = next(name for name, col in zip(names, fields)
               if any(c in "".join(col) for c in ',"\r\n'))
    raise ValueError(f"CSV column {bad!r} holds a ',', '\"', CR or LF")


def _write_csv(cfg: ExperimentConfig, model: MarkovModel, name: str,
               params, columns: dict) -> None:
    """<out>/<name> as CSV with `#` metadata lines: command, model hash,
    config, params.  columns maps each header name to its values, one
    sequence of the table's length per column; each slice of
    CSV_BLOCK_ROWS rows is formatted a column at a time and written as
    one string.  No field is quoted (see _csv_lines)."""
    names, cols = list(columns), list(columns.values())
    with open(os.path.join(cfg.out_dir, name), "w", newline="",
              encoding="utf-8") as fh:
        fh.write(f"# transferlab {cfg.command}\n")
        fh.write(f"# model_sha256 = {model_hash(model)}\n")
        for line in model.config.to_text().strip().splitlines():
            fh.write(f"# config {line}\n")
        if params:
            pairs = " ".join(f"{k}={_fmt(v)}" for k, v in params)
            fh.write(f"# params {pairs}\n")
        fh.write(",".join(names) + "\n")
        for i in range(0, len(cols[0]), CSV_BLOCK_ROWS):
            fh.write(_csv_lines(names, [_fmt_column(c[i:i + CSV_BLOCK_ROWS])
                                        for c in cols]))


def _echo_config(cfg: ExperimentConfig, source: str) -> None:
    path = os.path.join(cfg.out_dir, "config.txt")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(source)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_model_info(model: MarkovModel, cfg: ExperimentConfig):
    sym, dom = np.nonzero(~np.isnan(model.branch_slope))
    ids = np.array(model.intervals)
    info = [
        ("family", model.config.family),
        ("intervals", len(model.intervals)),
        ("branches", len(sym)),
        ("alphabet", " ".join(model.alphabet)),
        ("grid_size", model.grid_size),
        ("theta", model.theta),
        ("tau_0", model.tau_0),
        ("tau_star", model.tau_star),
        ("chi_u", model.chi_u),
        ("chi_u_bar", model.chi_u_bar),
        ("chi_s", model.chi_s),
        ("chi_s_bar", model.chi_s_bar),
        ("chi_0", model.chi_0),
        ("chi_star", model.chi_star),
    ]
    _write_csv(cfg, model, "model.csv", [],
               dict(zip(("field", "value"), zip(*info))))
    _write_csv(cfg, model, "branches.csv", [],
               {"sym": np.array(model.alphabet)[sym], "domain": ids[dom],
                "target": ids[model.symbol_target[sym]],
                "slope": model.branch_slope[sym, dom],
                "offset": model.branch_offset[sym, dom]})
    summary = (f"model-info: family={model.config.family} "
               f"branches={len(sym)} "
               f"tau=[{_fmt(model.tau_0)},{_fmt(model.tau_star)}] "
               f"-> {cfg.out_dir}/model.csv")
    return summary, OK


def _cmd_gibbs(model: MarkovModel, cfg: ExperimentConfig):
    sys_data = thermo.base_system(model)
    nu = sys_data.nu
    total = float(nu.sum())
    _write_csv(cfg, model, "gibbs.csv",
               [("total", total), ("fiber_defect", sys_data.fiber_defect)],
               {"interval": np.repeat(model.intervals, model.grid_size + 1),
                "x": model.nodes().ravel(), "weight": nu.ravel()})
    summary = (f"gibbs: total={_fmt(total)} "
               f"fiber_defect={_fmt(sys_data.fiber_defect)} "
               f"-> {cfg.out_dir}/gibbs.csv")
    return summary, OK


def _cmd_pressure(model: MarkovModel, cfg: ExperimentConfig):
    p = thermo.pressure(model)
    h = orbits.entropy(model)
    residual = thermo.pressure(model, h)
    _write_csv(cfg, model, "pressure.csv", [],
               {"quantity": ("pressure", "entropy", "entropy_residual"),
                "value": (p, h, residual)})
    summary = (f"pressure: pressure={_fmt(p)} entropy={_fmt(h)} "
               f"-> {cfg.out_dir}/pressure.csv")
    return summary, OK


def _cmd_decay(model: MarkovModel, cfg: ExperimentConfig):
    profile = rpf.decay_profile(model, cfg.a, cfg.b_list)
    kappa_hat = profile.kappa_hat
    if kappa_hat is not None and abs(kappa_hat) < 1e-9:
        kappa_hat = 0.0
    _write_csv(cfg, model, "decay.csv",
               [("a", cfg.a), ("b_list", cfg.b_list),
                ("kappa_hat", kappa_hat)],
               {f: [getattr(r, f) for r in profile.rows]
                for f in ("b", "n", "c0", "l2", "seminorm", "flagged")})
    shown = _fmt(kappa_hat) if kappa_hat is not None else "none (needs 4 b values)"
    summary = (f"decay: kappa_hat={shown} rows={len(profile.rows)} "
               f"-> {cfg.out_dir}/decay.csv")
    return summary, OK


def _cmd_uni_scan(model: MarkovModel, cfg: ExperimentConfig):
    certs = [scales.uni_scan(model, scales.matching_scale(model, eps))
             for eps in cfg.eps_list]
    kappas = [c.kappa_hat for c in certs]
    # every sample point has a side (see uni_scan), so none is skipped
    _write_csv(cfg, model, "uni_scan.csv", [("eps_list", cfg.eps_list)],
               {"eps": [c.eps for c in certs], "kappa_hat": kappas,
                "witnesses": [len(c.witnesses) for c in certs],
                "skipped": [0] * len(certs), "ok": [c.ok for c in certs]})
    summary = (f"uni-scan: kappa_hat=[{_fmt(min(kappas))},{_fmt(max(kappas))}] "
               f"eps_points={len(certs)} -> {cfg.out_dir}/uni_scan.csv")
    return summary, OK


def _cmd_dolgopyat(model: MarkovModel, cfg: ExperimentConfig):
    b = cfg.b if cfg.b is not None else DEFAULT_DOLGOPYAT_B
    cert = cancellation.run_l2_iteration(model, cfg.a, b, eps=cfg.eps)
    meta = [("a", cert.a), ("b", cert.b), ("eps", cert.eps),
            ("n1", cert.n1), ("burn_in", cert.burn_in),
            ("kappa_uni", cert.kappa_uni), ("kappa6", cert.kappa6),
            ("kappa5", cert.kappa5), ("kappa4_min", cert.kappa4_min),
            ("final_l2", cert.final_l2), ("kappa_fit", cert.kappa_fit),
            ("refused", cert.refused), ("holder_ratio", cert.holder_ratio),
            ("atoms", cert.atoms), ("truncated_at", cert.truncated_at)]
    _write_csv(cfg, model, "dolgopyat.csv", meta,
               {f: [getattr(r, f) for r in cert.rows]
                for f in ("n", "c0_u", "l2_u", "l2_h", "omega_fraction",
                          "bumps", "kappa4", "cs_violation")})
    summary = (f"dolgopyat: b={_fmt(cert.b)} refused={_fmt(cert.refused)} "
               f"contracted={_fmt(cert.contracted)} "
               f"kappa_fit={_fmt(cert.kappa_fit)} "
               f"final_l2={_fmt(cert.final_l2)} "
               f"-> {cfg.out_dir}/dolgopyat.csv")
    return summary, OK


def _cmd_orbits(model: MarkovModel, cfg: ExperimentConfig):
    n_max, t_grid = cfg.n_max, cfg.t_grid
    if t_grid is None:
        t_grid = tuple(j * model.tau_0 for j in range(1, n_max + 1))
    report = orbits.prime_orbit_report(model, n_max, t_grid)
    table = report.orbits
    _write_csv(cfg, model, "orbit_table.csv", [("n_max", n_max)],
               {"word": table.word, "n": table.n, "period": table.period})
    _write_csv(cfg, model, "counting.csv",
               [("n_max", n_max), ("entropy", report.h),
                ("c_hat", report.c_hat)],
               {"t": report.t_grid, "pi": report.pi, "li": report.li_values,
                "diff": report.pi - report.li_values,
                "complete": report.complete})
    summary = (f"orbits: primitives={len(table)} n_max={n_max} "
               f"entropy={_fmt(report.h)} c_hat={_fmt(report.c_hat)} "
               f"-> {cfg.out_dir}/counting.csv")
    return summary, OK


def _section_sine(x):
    return np.sin(2.0 * np.pi * np.asarray(x))


def _cmd_correlation(model: MarkovModel, cfg: ExperimentConfig):
    t_grid = cfg.t_grid
    if t_grid is None:
        t_grid = tuple(np.linspace(0.0, 2.0, 11))
    rep = orbits.correlation_decay(
        model, _section_sine, _section_sine, t_grid, cfg.samples,
        seed=cfg.seed, blocks=cfg.blocks)
    meta = [("observable", "sin(2*pi*x)"), ("samples", rep.samples),
            ("blocks", rep.blocks), ("seed", rep.seed),
            ("rate", rep.rate), ("rate_err", rep.rate_err),
            ("r_squared", rep.r_squared)]
    _write_csv(cfg, model, "correlation.csv", meta,
               {"t": rep.t_grid, "corr": rep.corr, "stderr": rep.stderr})
    summary = (f"correlation: rate={_fmt(rep.rate)} "
               f"rate_err={_fmt(rep.rate_err)} r2={_fmt(rep.r_squared)} "
               f"samples={rep.samples} -> {cfg.out_dir}/correlation.csv")
    return summary, OK


def _invariant_checks(model: MarkovModel, cfg: ExperimentConfig):
    """Cross-module soundness checks; each row is (name, value, bound)."""
    checks = []
    sys_data = thermo.base_system(model)
    ones = np.ones((len(model.intervals), model.grid_size + 1))

    op = thermo.transfer_real(model, 0.0)
    checks.append(("transfer_fixes_one",
                   float(np.max(np.abs(op(ones) - 1.0))), 1e-8))
    checks.append(("gibbs_total", abs(float(sys_data.nu.sum()) - 1.0), 1e-10))
    checks.append(("fiber_normalization", sys_data.fiber_defect, 1e-8))

    # sigma after the inverse branch returns the input; skip the right
    # endpoint, which belongs to the neighbouring slice
    worst = 0.0
    for i, k in np.argwhere(~np.isnan(model.branch_slope)):
        ys = model.nodes()[k, :-1]
        back = model.forward(ys / model.branch_slope[i, k]
                             + model.branch_offset[i, k])
        worst = max(worst, float(np.max(np.abs(back - ys))))
    checks.append(("branch_inverse", worst, 1e-9))

    h = orbits.entropy(model)
    residual = abs(thermo.pressure(model, h))
    checks.append(("entropy_root_residual", residual, 1e-6))

    enum = orbits.enumerate_periodic_orbits(model, 6)
    worst_period = worst_ret = 0.0
    for n in range(1, 7):
        words = enum.word[enum.n == n].tolist()
        if not words:
            continue
        # the fixed points of every rotation of each word, one row per
        # rotation, each point settled on its own; row 0 is the words
        points = orbits.cyclic_fixed_points(
            model, [w[r:] + w[:r] for r in range(n) for w in words]
        ).reshape(n, len(words))
        period = enum.period[enum.n == n]
        total = sum(model.roof(x) for x in points)
        worst_period = max(worst_period,
                           float(np.max(np.abs(period - total) / period)))
        x = points[0]
        back = model.orbit(x, n + 1)[-1]
        worst_ret = max(worst_ret, float(np.max(np.abs(back - x))))
    checks.append(("period_vs_rotations", worst_period, 1e-12))

    neck = orbits.necklace_counts(model, 6)
    enum_gap = np.abs(np.bincount(enum.n, minlength=7)[1:] - neck).max()
    checks.append(("necklace_vs_enumeration", float(enum_gap), 0.0))
    checks.append(("orbit_return_residual", worst_ret, 1e-10))

    quad = orbits.covariance_at_zero(model, _section_sine, _section_sine)
    rep = orbits.correlation_decay(
        model, _section_sine, _section_sine, (0.0,), MC_CHECK_SAMPLES,
        seed=cfg.seed, blocks=20)
    checks.append(("zero_lag_consistency",
                   abs(float(rep.corr[0]) - quad), 5.0 * float(rep.stderr[0])))

    eps = cfg.eps if cfg.eps is not None else 2.0 ** -6
    cert = scales.uni_scan(model, scales.matching_scale(model, eps))
    checks.append(("uni_witness_recheck",
                   scales.uni_witness_recheck(model, cert), 1e-12))
    return checks


def _cmd_invariants(model: MarkovModel, cfg: ExperimentConfig):
    names, values, bounds = zip(*_invariant_checks(model, cfg))
    status = ["pass" if v <= b else "fail" for v, b in zip(values, bounds)]
    _write_csv(cfg, model, "invariants.csv", [("seed", cfg.seed)],
               {"check": names, "value": values, "bound": bounds,
                "status": status})
    failed = [n for n, s in zip(names, status) if s == "fail"]
    if failed:
        summary = (f"invariants: {len(failed)} of {len(names)} failed "
                   f"({', '.join(failed)}) -> {cfg.out_dir}/invariants.csv")
        return summary, VIOLATION
    summary = (f"invariants: {len(names)}/{len(names)} pass "
               f"-> {cfg.out_dir}/invariants.csv")
    return summary, OK


_DISPATCH = {
    "model-info": _cmd_model_info,
    "gibbs": _cmd_gibbs,
    "pressure": _cmd_pressure,
    "decay": _cmd_decay,
    "uni-scan": _cmd_uni_scan,
    "dolgopyat": _cmd_dolgopyat,
    "orbits": _cmd_orbits,
    "correlation": _cmd_correlation,
    "invariants": _cmd_invariants,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(cfg: ExperimentConfig) -> int:
    model, source = _load_model(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    _echo_config(cfg, source)
    summary, code = _DISPATCH[cfg.command](model, cfg)
    print(summary)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = resolve(args, os.environ)
        return run(cfg)
    except UsageError as exc:
        sys.stderr.write(f"transferlab: error: {exc}\n")
        return USAGE
    except EngineError as exc:
        sys.stderr.write(f"transferlab: invariant violation: {exc}\n")
        return VIOLATION
    except (ModelError, ConvergenceError) as exc:
        sys.stderr.write(f"transferlab: error: {exc}\n")
        return USAGE
    except OSError as exc:
        sys.stderr.write(f"transferlab: error: {exc}\n")
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
