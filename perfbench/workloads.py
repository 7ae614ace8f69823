"""The benchmark workloads: queries generated from a seed, and their oracles.

Every query goes through the entry a user calls: ``transferlab.cli.main``
where a CLI command exists, otherwise the public ``transferlab.rpf``
function.  The program sees only the generated model configs and flags;
the seed stays here.  See README.md for why each workload exists.

Queries run in a fixed order, so for every seed the same queries pay the
cold-cache costs and the latency percentiles compare like with like.

Oracles compare numbers within tolerances, never bytes, so a reordered
floating-point sum is not a failure.
"""

from __future__ import annotations

import csv
import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("spectral", "certify", "census")

SIN_ROOF = (2.0, 0.0, 0.5, 0.0)
ZERO = (0.0, 0.0, 0.0, 0.0)
HALF = (0.5, 0.0, 0.0, 0.0)

# frozen facts of the N = 2^14 sine-roof oracle model at a = 0
ORACLE_L2 = {64.0: 2.399e-3, 128.0: 9.741e-4, 256.0: 3.032e-4, 512.0: 1.741e-4}
ORACLE_L2_RTOL = 1e-3          # the frozen values carry four digits
KAPPA4_MIN_B256 = 0.04875
KAPPA4_TOL = 5e-6              # half a unit in the last frozen digit
CS_MAX = 1e-12
UNI_SINE_RANGE = (0.194, 0.207)  # frozen to three decimals ...
UNI_ROUNDING = 5e-4              # ... so allow half a unit either side
UNI_AFFINE_MAX = 1e-8
UNI_EPS_EXPONENTS = range(6, 13)  # the CLI's default sweep, 2^-6 .. 2^-12
SUP_SLACK = 1e-9               # |L_{a,b}^n 1| <= L_{a,0}^n 1 = 1
FIX_ONE_TOL = 1e-8             # smoothed normalized operator fixes 1


@dataclass
class Query:
    """One call into the program and the oracle that judges its result."""

    qid: int
    label: str
    argv: tuple[str, ...] = ()           # cli.main arguments (without --out)
    call: str | None = None              # public rpf function, if no command
    kwargs: dict = field(default_factory=dict)
    model: str | None = None             # model key, for rpf calls
    oracle: str = "exit0"
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    models: dict                         # key -> config text
    queries: list


def config_text(family, roof, potential, mu, grid, forbidden=""):
    lines = [f"family = {family}"]
    if forbidden:
        lines.append(f"forbidden = {forbidden}")
    for key, vals in (("roof", roof), ("potential", potential), ("mu", mu)):
        lines.append(f"{key} = " + ", ".join(repr(float(v)) for v in vals))
    lines.append(f"grid_size = {grid}")
    lines.append("theta = 0.5")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _spectral(seed: int) -> Workload:
    rng = random.Random(f"spectral/{seed}")
    models = {
        "sine65536": config_text("doubling", SIN_ROOF, (0.0, 0.0, 0.3, 0.2),
                                 (0.5, 0.0, 0.1, 0.0), 2 ** 16),
        "oracle16384": config_text("doubling", SIN_ROOF, ZERO, HALF, 2 ** 14),
        "markov3f16384": config_text("markov3", SIN_ROOF, ZERO, HALF, 2 ** 14,
                                     forbidden="0>1"),
    }
    # a few tilts per model keep the thermo caches warm after the first
    # query per (model, a); a = 0 carries the oracle model's frozen norms
    tilts = [0.0] + [round(rng.uniform(-0.04, 0.04), 5) for _ in range(3)]
    b_grid = [32.0 * 2 ** j for j in range(9)]          # 32 .. 8192
    specs = []
    for key in models:
        for a in tilts:
            for b in b_grid:
                oracle_model = key == "oracle16384" and a == 0.0
                expect = {"b": b}
                if oracle_model and b in ORACLE_L2:
                    expect["l2"] = ORACLE_L2[b]
                specs.append(dict(
                    label=f"decay {key} a={a} b={b:g}",
                    argv=("decay", "--model", key, f"--a={a!r}",
                          f"--b={b!r}"),
                    oracle="decay", expect=expect))
    # smoothed-operator queries have no CLI command
    a_smooth = tilts[1]
    for key in ("oracle16384", "markov3f16384"):
        specs.append(dict(label=f"build_rpf {key} a={a_smooth} b=64",
                          call="build_rpf", model=key,
                          kwargs={"a": a_smooth, "b": 64.0},
                          oracle="build_rpf"))
        specs.append(dict(label=f"operator_gap {key} a={a_smooth} b=1024",
                          call="operator_gap", model=key,
                          kwargs={"a": a_smooth, "b": 1024.0},
                          oracle="operator_gap"))
    return Workload(models, _number(specs))


def _certify(seed: int) -> Workload:
    rng = random.Random(f"certify/{seed}")
    grid = 4096
    models = {
        "sine": config_text("doubling", SIN_ROOF, ZERO, HALF, grid),
        "unit": config_text("doubling", (1.0, 0.0, 0.0, 0.0), ZERO, HALF,
                            grid),
        "affine": config_text("doubling", (1.0, 1.0, 0.0, 0.0), ZERO, HALF,
                              grid),
        "markov3f": config_text("markov3", SIN_ROOF, ZERO, HALF, grid,
                                forbidden="0>1"),
        "markov3": config_text("markov3", SIN_ROOF, ZERO, HALF, grid),
    }
    flag_seed = str(rng.randrange(2 ** 32))
    specs = [
        dict(label="dolgopyat sine b=256",
             argv=("dolgopyat", "--model", "sine", "--b", "256"),
             oracle="dolgopyat", expect={"kappa4_min": KAPPA4_MIN_B256,
                                         "refused": False}),
        dict(label="dolgopyat sine b=512",
             argv=("dolgopyat", "--model", "sine", "--b", "512"),
             oracle="dolgopyat", expect={"refused": False}),
        dict(label="dolgopyat markov3 forbidden=0>1 b=32",
             argv=("dolgopyat", "--model", "markov3f", "--b", "32"),
             oracle="dolgopyat", expect={"refused": False}),
        dict(label="dolgopyat markov3 b=32",
             argv=("dolgopyat", "--model", "markov3", "--b", "32"),
             oracle="dolgopyat", expect={"refused": False}),
        dict(label="dolgopyat unit roof b=256 (refused)",
             argv=("dolgopyat", "--model", "unit", "--b", "256"),
             oracle="dolgopyat", expect={"refused": True}),
    ]
    # one query per eps of the CLI's default sweep, so the median latency
    # of the pass is not decided by which of four similar multi-second
    # queries happens to rank fourth
    uni_range = {"sine": (UNI_SINE_RANGE[0] - UNI_ROUNDING,
                          UNI_SINE_RANGE[1] + UNI_ROUNDING),
                 "affine": (-UNI_AFFINE_MAX, UNI_AFFINE_MAX)}
    for key, bounds in uni_range.items():
        for q in UNI_EPS_EXPONENTS:
            specs.append(dict(label=f"uni-scan {key} eps=2^-{q}",
                              argv=("uni-scan", "--model", key,
                                    f"--eps={2.0 ** -q!r}"),
                              oracle="uni", expect={"range": bounds}))
    for spec in specs:
        spec["argv"] = spec["argv"] + ("--seed", flag_seed)
    return Workload(models, _number(specs))


CENSUS_MODELS = 20
CENSUS_COMMANDS = ("pressure", "gibbs", "orbits", "correlation", "invariants")
_FORBIDDEN = ("", "0>1", "2>0")


def _census_model(rng: random.Random, i: int) -> str:
    """Model i of the census.  Family, roof shape, grid and forbidden
    transition cycle with i so every seed has the same mix; the
    coefficients are drawn from the seed."""
    family = "doubling" if i % 2 == 0 else "markov3"
    span = 1.0 if family == "doubling" else 3.0     # extent of the leaf
    grid = (1024, 2048, 4096)[(i // 2) % 3]
    shape = ("flat", "affine", "sine")[(i // 6 + i) % 3]
    u = rng.uniform
    # the roof level sets how many section returns the Monte Carlo flow
    # unwinds per unit time; one level range for all shapes keeps the
    # cost of a census pass from swinging with the seed
    if shape == "flat":
        roof = (u(1.5, 2.5), 0.0, 0.0, 0.0)
    elif shape == "affine":
        roof = (u(1.5, 2.5), u(-0.25, 0.25) / span, 0.0, 0.0)
    else:
        roof = (u(1.5, 2.5), 0.0, u(-0.6, 0.6), u(-0.3, 0.3))
    potential = (u(-0.5, 0.5), u(-0.3, 0.3) / span, u(-0.3, 0.3),
                 u(-0.3, 0.3))
    mu = (u(0.35, 0.6), u(-0.05, 0.05) / span, u(-0.1, 0.1), u(-0.05, 0.05))
    forbidden = _FORBIDDEN[(i // 2) % 3] if family == "markov3" else ""
    roof, potential, mu = (tuple(round(c, 4) for c in v)
                           for v in (roof, potential, mu))
    return config_text(family, roof, potential, mu, grid, forbidden)


def _census(seed: int) -> Workload:
    rng = random.Random(f"census/{seed}")
    models = {}
    for i in range(CENSUS_MODELS):
        models[f"m{i:02d}"] = _census_model(rng, i)
    if len(set(models.values())) != len(models):
        raise ValueError("census models must be distinct")
    specs = []
    for key in models:
        flag_seed = str(rng.randrange(2 ** 32))
        for cmd in CENSUS_COMMANDS:
            argv = (cmd, "--model", key)
            if cmd in ("correlation", "invariants"):
                argv += ("--seed", flag_seed)
            specs.append(dict(label=f"{cmd} {key}", argv=argv,
                              oracle=cmd if cmd in ("gibbs", "pressure",
                                                    "invariants") else "exit0"))
    return Workload(models, _number(specs))


def _number(specs) -> list:
    return [Query(qid=i, **spec) for i, spec in enumerate(specs)]


def generate(name: str, seed: int) -> Workload:
    if name == "spectral":
        return _spectral(seed)
    if name == "certify":
        return _certify(seed)
    if name == "census":
        return _census(seed)
    raise ValueError(f"unknown workload {name!r}")


def write_models(workload: Workload, directory: str) -> dict:
    """Write each model config to a file; returns key -> path."""
    paths = {}
    for key, text in workload.models.items():
        path = os.path.join(directory, f"{key}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths[key] = path
    return paths


# ---------------------------------------------------------------------------
# oracles: each returns None when the result is right, else a reason
# ---------------------------------------------------------------------------

def read_artifact(path: str):
    """(params, header, rows) of a CLI CSV artifact."""
    params = {}
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    body = []
    for line in lines:
        if line.startswith("# params "):
            for pair in line[len("# params "):].split(" "):
                key, _, val = pair.partition("=")
                params[key] = val
        elif not line.startswith("#"):
            body.append(line)
    rows = list(csv.reader(body))
    return params, rows[0], rows[1:]


def _num(text: str) -> float:
    return float("nan") if text == "none" else float(text)


def _check_decay(query: Query, out_dir: str) -> str | None:
    _, header, rows = read_artifact(os.path.join(out_dir, "decay.csv"))
    if len(rows) != 1:
        return f"expected one decay row, got {len(rows)}"
    row = dict(zip(header, rows[0]))
    b = query.expect["b"]
    c0, l2 = _num(row["c0"]), _num(row["l2"])
    if _num(row["b"]) != b or row["flagged"] != "false":
        return f"bad row {rows[0]}"
    if int(row["n"]) != max(1, math.ceil(4.0 * math.log(b))):
        return f"iteration count {row['n']} off the n(b) rule"
    if not (0.0 <= c0 <= 1.0 + SUP_SLACK):
        return f"sup {c0!r} exceeds 1 + {SUP_SLACK}"
    if not (0.0 <= l2 <= c0 * (1.0 + SUP_SLACK)):
        return f"L2 {l2!r} exceeds sup {c0!r}"
    ref = query.expect.get("l2")
    if ref is not None and abs(l2 - ref) > ORACLE_L2_RTOL * ref:
        return f"L2 {l2!r} differs from frozen {ref!r} at b={b:g}"
    return None


def _check_dolgopyat(query: Query, out_dir: str) -> str | None:
    params, header, rows = read_artifact(os.path.join(out_dir,
                                                      "dolgopyat.csv"))
    refused = params.get("refused")
    want = "true" if query.expect["refused"] else "false"
    if refused != want:
        return f"refused={refused}, expected {want}"
    col = header.index("cs_violation")
    cs = max(_num(r[col]) for r in rows)
    if not cs <= CS_MAX:
        return f"square-comparison violation {cs!r} above {CS_MAX}"
    ref = query.expect.get("kappa4_min")
    if ref is not None:
        got = _num(params["kappa4_min"])
        if not abs(got - ref) <= KAPPA4_TOL:
            return f"kappa4_min {got!r} differs from frozen {ref!r}"
    return None


def _check_uni(query: Query, out_dir: str) -> str | None:
    _, header, rows = read_artifact(os.path.join(out_dir, "uni_scan.csv"))
    col = header.index("kappa_hat")
    lo, hi = query.expect["range"]
    kappas = [_num(r[col]) for r in rows]
    if len(kappas) != 1:
        return f"expected one eps point, got {len(kappas)}"
    bad = [k for k in kappas if not lo <= k <= hi]
    if bad:
        return f"UNI kappa {bad[0]!r} outside [{lo}, {hi}]"
    return None


def _check_gibbs(query: Query, out_dir: str) -> str | None:
    params, _, rows = read_artifact(os.path.join(out_dir, "gibbs.csv"))
    total = _num(params["total"])
    if not abs(total - 1.0) <= 1e-9:
        return f"Gibbs weights sum to {total!r}"
    if min(_num(r[2]) for r in rows) < 0.0:
        return "negative Gibbs weight"
    return None


def _check_pressure(query: Query, out_dir: str) -> str | None:
    _, _, rows = read_artifact(os.path.join(out_dir, "pressure.csv"))
    vals = {r[0]: _num(r[1]) for r in rows}
    if not (math.isfinite(vals["pressure"]) and vals["entropy"] > 0.0):
        return f"bad pressure/entropy {vals}"
    if not abs(vals["entropy_residual"]) <= 1e-6:
        return f"entropy root residual {vals['entropy_residual']!r}"
    return None


def _check_invariants(query: Query, out_dir: str) -> str | None:
    _, header, rows = read_artifact(os.path.join(out_dir, "invariants.csv"))
    col = header.index("status")
    failed = [r[0] for r in rows if r[col] != "pass"]
    return f"invariants failed: {failed}" if failed else None


CLI_ORACLES = {
    "decay": _check_decay,
    "dolgopyat": _check_dolgopyat,
    "uni": _check_uni,
    "gibbs": _check_gibbs,
    "pressure": _check_pressure,
    "invariants": _check_invariants,
    "exit0": lambda query, out_dir: None,
}


def check_rpf(query: Query, result, model) -> str | None:
    """Oracles of the smoothed-operator queries."""
    import numpy as np

    if query.oracle == "build_rpf":
        if not (math.isfinite(result.value) and result.value > 0.0):
            return f"smoothed eigenvalue {result.value!r}"
        ones = np.ones((len(model.intervals), model.grid_size + 1))
        defect = float(np.max(np.abs(result.m_op()(ones) - 1.0)))
        if not defect <= FIX_ONE_TOL:
            return f"smoothed normalized operator moves 1 by {defect!r}"
        return None
    if query.oracle == "operator_gap":
        # both operators have sup-norm at most about one on unit functions
        if not (math.isfinite(result) and 0.0 <= result <= 2.0 + 1e-6):
            return f"operator gap {result!r} outside [0, 2]"
        return None
    return f"no oracle {query.oracle!r}"
