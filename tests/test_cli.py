"""Command-line runner: artifacts, headers, exit codes, determinism.

Everything runs in-process through cli.main so the suite stays fast; one
subprocess test covers the `python -m` entry.  Frozen facts: the default
model is the doubling map with unit roof, whose decay sweep is exactly
flat (kappa_hat 0.0) and whose invariant suite is green; necklace totals
for n <= 8 sum to 71 primitive orbits.

Golden digests (GOLDEN_SHA256): the sha256 of orbit_table.csv,
counting.csv and invariants.csv for GOLDEN_MODEL (three-symbol family,
0>1 forbidden) with N_MAX=8, invariants at seed 7.  They were made by
running `orbits` and `invariants` with those inputs on the code as it
stood before the orbit census moved to arrays (each orbit set enumerated
twice, fixed points by 200 scalar apply_word rounds), with numpy 2.4.6 on
x86-64 Linux, and hashing the files with sha256sum.  They pin byte
identity of these artifacts across versions of the package, not only
between two runs of one version; libm or numpy changes to sin/cos may
move them.

GOLDEN_MC_SHA256 pins pressure.csv (`pressure`) and correlation.csv
(`correlation` at seed 7 with SAMPLES=8000, so 32 blocks of 250 points,
enough for numpy's pairwise summation to engage) for the same model.
correlation.csv was made the same way, on the code as it stood before
the Monte Carlo blocks were advanced together (one block at a time, roof
values recomputed at every time step), with numpy 2.4.6 and scipy
1.17.1.  pressure.csv was made on the code whose entropy root is found by
secant steps from below (see the secant re-pin below).

GOLDEN_DOLGOPYAT_SHA256 pins dolgopyat.csv for DOLGOPYAT_MODEL
(three-symbol family, 0>1 forbidden, sine roof, N=1024) at b=64, a run
with 4562 atoms, n1 = 3 and a positive kappa4_min, so the cylinder
partition, the refinement step and the small bumps (160 and 25 in its
two steps) feed it.  The run makes 2 build_cancellation and 5
dichotomy_test calls and no _pair_plan call, so no paired bump and no
orbit weight reaches the digest; the paired path is pinned by
test_cancellation.py's test_paired_case and
test_pair_plan_bumps_the_lighter_branch and by the per-atom
build_cancellation comparison in test_fast_paths.py
(test_build_cancellation_matches_per_atom_loop).  It was made the same
way, on the code as it stood while each atom was a dataclass instance
with two index dicts beside it and paired-bump windows came from scipy's
minimum_filter1d, with numpy 2.4.6 and scipy 1.17.1.

GOLDEN_DOUBLING_DOLGOPYAT_SHA256 pins dolgopyat.csv for
DOUBLING_DOLGOPYAT_MODEL (doubling family, sine roof 2 + 0.5 sin 2 pi x,
N=1024) at b=64: 128 atoms, n1 = 1, 118 small bumps and 10 skipped
atoms per step, truncated at step 2.  It was made by running `dolgopyat
--b 64` on the code as it stood while build_cancellation called
dichotomy_test once per (atom, branch) pair and _place_bump once per
bump, with numpy 2.4.6 and scipy 1.17.1, and hashing the file with
sha256sum.

GOLDEN_UNI_SCAN_SHA256 pins uni_scan.csv of `uni-scan` over the default
eps sweep (2^-6 ... 2^-12) on SIN_MODEL.  It was made the same way, on
the code as it stood while uni_scan computed one temporal distance per
(point, pair, side) profile, each walking its two words separately, and
took torus distances with numpy's %, with numpy 2.4.6.

GOLDEN_TABLE_SHA256 pins gibbs.csv (`gibbs`), model.csv and branches.csv
(`model-info`) for GOLDEN_MODEL, and GOLDEN_DECAY_SHA256 pins decay.csv
of `decay --b 64` on SIN_MODEL.  They were made the same way, on the code as it stood while
every command passed _write_csv row tuples (the gibbs rows built in a
per-node loop) and _write_csv transposed them in blocks of
CSV_BLOCK_ROWS rows, with numpy 2.4.6 and scipy 1.17.1.

Re-pinned when real operators became one sparse matrix (before, they
summed a per-stencil gather loop and scattered the adjoint with
np.bincount): counting.csv, invariants.csv, pressure.csv, gibbs.csv and
both dolgopyat.csv digests.  scripts/artifact_diff.py over the old and
the new artifacts of every command above found no non-float change; the
worst float moves, as |new - old| / max(1, |old|), were 1.4e-14 in
counting.csv (through a one-ulp move of the entropy root), 4.4e-16 in
invariants.csv and gibbs.csv, 3.3e-16 in pressure.csv and 2.2e-16 and
1.7e-16 in the two certificates, whose atoms, n1, bumps and verdicts
did not move.  The new digests were made by running those commands with
numpy 2.4.6 and scipy 1.17.1 on x86-64 Linux.  orbit_table.csv,
correlation.csv, model.csv, branches.csv, decay.csv and uni_scan.csv
kept their bits.

Re-pinned when the orbit census moved to Lyndon words (before, every
cyclic word of each length settled its own fixed point, and each class
summed its periods with np.bincount): orbit_table.csv, whose periods
moved by at most 4.6e-16 relative (242 of 484) while its words, lengths
and line count kept their bits, and invariants.csv, whose
necklace_vs_trace row (0 by construction) became period_vs_rotations
(3.2e-16, bound 1e-12) and whose other rows kept their bits.
counting.csv kept its bits.  The new digests were made by running the
same commands with numpy 2.4.6 and scipy 1.17.1 on x86-64 Linux.

Re-pinned when the entropy root became scipy's brentq alone (before,
brentq located it and scipy's bisect was replayed on predicted signs, so
the root had the bits of a bisection to 1e-10): counting.csv,
invariants.csv and pressure.csv.  The root moved by 8.7e-11 and its
pressure residual went from -1.7e-10 to 0.0.  scripts/artifact_diff.py
over the old and the new artifacts found the worst float moves 1.6e-8
in counting.csv (the li column, through e^{hT}) and 1.7e-10 in
invariants.csv and pressure.csv.  Its one non-float change is the
invariants row uni_kappa_nonnegative (0 by construction, bound 0)
becoming uni_witness_recheck (0.0, bound 1e-12), which recomputes each
UNI witness from temporal_distance.  orbit_table.csv and
correlation.csv kept their bits.  The new digests were made by running
the same commands with numpy 2.4.6 and scipy 1.17.1 on x86-64 Linux.

Re-pinned when li became Ei(log y) - Ei(log 2), summed in the package
(before, scipy's quad integrated e^t/t from log 2 to log y, up to
1.4e-12 relative off): counting.csv, cbfd3823... -> d6d4ee33....
scripts/artifact_diff.py over the old and the new artifacts found no
non-float change; 13 floats moved (the li and diff columns and c_hat),
worst 1.8e-12.  The entropy root, now found by the package's own Brent
loop, kept its bits, and orbit_table.csv, invariants.csv, pressure.csv
and correlation.csv kept theirs.  The new digest was made by running
`orbits` with numpy 2.4.6 on x86-64 Linux.

Re-pinned when the entropy root came from secant steps from below, which
stop once the pressure is at most tau_0 ENTROPY_TOL (before, the
package's loop replayed scipy's brentq step for step): counting.csv
d6d4ee33... -> 31e30fb7..., invariants.csv 9cbc9fec... -> 64f7b8b2...
and pressure.csv ab7539a3... -> f29012ba....  The root moved from
0.4751008851953029 to 0.4751008851953026, and its pressure residual
from 0.0 to 6.7e-16.  scripts/artifact_diff.py over the old and the new
artifacts found no non-float change; the worst float moves were 6.0e-14
in counting.csv (18 floats, the li and diff columns and c_hat, through
e^{hT}) and 6.7e-16 in invariants.csv and pressure.csv.  orbit_table.csv
and correlation.csv kept their bits.  The new digests were made by
running the same commands with numpy 2.4.6 on x86-64 Linux.

Each golden test compares the whole {name: sha256} dict in one
assertion, so a failing run names every artifact that moved.
"""

import contextlib
import csv
import hashlib
import io
import os
import subprocess
import sys
import tempfile
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import transferlab
from transferlab import cli, orbits
from transferlab.markov import ModelConfig, build_model

SIN_MODEL = """family = doubling
roof = 2.0, 0.0, 0.5, 0.0
potential = 0.0, 0.0, 0.0, 0.0
mu = 0.5, 0.0, 0.0, 0.0
grid_size = 4096
theta = 0.5
"""

GOLDEN_MODEL = """family = markov3
forbidden = 0>1
roof = 2.0, 0.05, 0.4, -0.2
potential = 0.1, -0.05, 0.2, 0.1
mu = 0.45, 0.01, 0.05, -0.03
grid_size = 256
theta = 0.5
"""

GOLDEN_SHA256 = {
    "orbit_table.csv":
        "e48c6ce9084263e5e710a3cb5a53616a21b9195b39645e8879a01c21cf438ad0",
    "counting.csv":
        "31e30fb7b83c9e99324915a5aaa2311dafe87f8881a669033f892ee678b9640f",
    "invariants.csv":
        "64f7b8b2321c43d5738e1726a92bb13b20df74aee9b2449550462fa11e9b5372",
}

DOLGOPYAT_MODEL = """family = markov3
forbidden = 0>1
roof = 2.0, 0.0, 0.5, 0.0
grid_size = 1024
"""

GOLDEN_DOLGOPYAT_SHA256 = \
    "3137e74aa63e11d472110da93a894042ff4798de04fa0d1390f1ae963f93c4d1"

DOUBLING_DOLGOPYAT_MODEL = """family = doubling
roof = 2.0, 0.0, 0.5, 0.0
grid_size = 1024
"""

GOLDEN_DOUBLING_DOLGOPYAT_SHA256 = \
    "e53f9f6b96b5294def69eac03d8495132d07e667b8aa80b4bb40e960fb77fb63"

GOLDEN_UNI_SCAN_SHA256 = \
    "9c3b40f8c5953fac9e985eb302a59e6d2de87e5135cb48672ef9318e9ab9ab50"

GOLDEN_TABLE_SHA256 = {
    "gibbs.csv":
        "e1baa8fe33e74956497d0f61c663786ec006b1e29252e65d1efadda1eb3eff1f",
    "model.csv":
        "87473a0fd9b551f29cac9c1ab7c8c0c6b510d1f9223014d1909e900011aa3b0e",
    "branches.csv":
        "e0074c08a407b467340f13d9a54f4277b6710328044b5df751ecce07e3a314f2",
}

GOLDEN_DECAY_SHA256 = \
    "7943187ea7e0c17a020c00226a7d09bb719e8443e2a53f53160cec3505975540"

GOLDEN_MC_SHA256 = {
    "pressure.csv":
        "f29012ba5e52ed7e27e44f81a09c601664f5c3751dd489ccb0ed7ae838ce63c9",
    "correlation.csv":
        "1884d69db64b11ee9714dd2567bb346d73f4b9373cd0b753f100c5d2eabfcd3e",
}


@pytest.fixture(autouse=True)
def _no_ambient_env(monkeypatch):
    for key in [k for k in os.environ if k.startswith("TRANSFERLAB_")]:
        monkeypatch.delenv(key)


@pytest.fixture
def sin_path(tmp_path):
    path = tmp_path / "sin_model.txt"
    path.write_text(SIN_MODEL)
    return str(path)


def read_csv(path):
    """Rows of a CSV artifact, header comments stripped."""
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("".join(lines))))
    return rows[0], rows[1:]


def header_lines(path):
    with open(path) as fh:
        return [ln.rstrip("\n") for ln in fh if ln.startswith("#")]


# -- artifacts and headers --------------------------------------------------

def test_model_info_artifacts(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert cli.main(["model-info", "--out", out]) == 0
    assert capsys.readouterr().out.startswith("model-info: family=doubling")
    for name in ("model.csv", "branches.csv", "config.txt"):
        assert os.path.exists(os.path.join(out, name))
    header, rows = read_csv(os.path.join(out, "branches.csv"))
    assert header == ["sym", "domain", "target", "slope", "offset"]
    assert len(rows) == 2
    assert {r[0] for r in rows} == {"0", "1"}


def test_header_embeds_model_hash(tmp_path):
    out = str(tmp_path / "run")
    assert cli.main(["pressure", "--out", out]) == 0
    # the hash covers the built config, slopes filled in
    normalized = build_model(ModelConfig()).config.to_text()
    expect = hashlib.sha256(normalized.encode()).hexdigest()
    lines = header_lines(os.path.join(out, "pressure.csv"))
    assert lines[0] == "# transferlab pressure"
    assert f"# model_sha256 = {expect}" in lines
    assert any(ln.startswith("# config family") for ln in lines)


def test_config_echo_verbatim(tmp_path):
    source = "# sine roof model\n" + SIN_MODEL + "\n# trailing note\n"
    path = tmp_path / "m.txt"
    path.write_text(source)
    out = str(tmp_path / "run")
    assert cli.main(["model-info", "--model", str(path), "--out", out]) == 0
    echoed = (tmp_path / "run" / "config.txt").read_text()
    assert echoed == source


def test_every_artifact_has_param_header(tmp_path, sin_path):
    out = str(tmp_path / "run")
    assert cli.main(["decay", "--model", sin_path, "--out", out,
                     "--b", "16"]) == 0
    lines = header_lines(os.path.join(out, "decay.csv"))
    assert any(ln.startswith("# params ") and "b_list=16.0" in ln
               for ln in lines)


# -- exit codes -------------------------------------------------------------

def test_unknown_command_usage(tmp_path, capsys):
    assert cli.main(["frobnicate", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err


def test_missing_model_file(tmp_path):
    assert cli.main(["pressure", "--model", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "o")]) == 1


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("family = doubling\nwavelength = 3\n")
    assert cli.main(["pressure", "--model", str(path),
                     "--out", str(tmp_path / "o")]) == 1


def test_repeated_forbidden_entry_rejected(tmp_path, capsys):
    path = tmp_path / "twice.txt"
    path.write_text("family = markov3\nforbidden = 0>1, 0>1\n")
    assert cli.main(["model-info", "--model", str(path),
                     "--out", str(tmp_path / "o")]) == 1
    assert "'0>1' is listed twice" in capsys.readouterr().err


MC_CHUNK = orbits.MC_CHUNK_POINTS


@pytest.mark.parametrize("argv, env, config", [
    (["decay", "--b", "nan"], {}, None),
    (["decay", "--b", "inf"], {}, None),
    (["dolgopyat", "--b", "nan"], {}, None),
    (["decay"], {"B": "nan"}, None),
    (["decay"], {"B_LIST": "64, nan"}, None),
    (["correlation"], {"T_GRID": "1, nan"}, None),
    (["model-info"], {}, "roof = 1, x, 0, 0\n"),
    (["model-info"], {}, "grid_size = 1e3\n"),
    (["model-info"], {}, "roof = nan, 0, 0, 0\n"),
    (["correlation"], {}, "roof = nan, 0, 0, 0\n"),
    # a block is held whole, and so are the seed streams of all blocks
    (["correlation"], {"SAMPLES": str(2 * (MC_CHUNK + 1)), "BLOCKS": "2"},
     None),
    (["correlation"], {"SAMPLES": str(MC_CHUNK + 1),
                       "BLOCKS": str(MC_CHUNK + 1)}, None),
    # h*T = 2000 log 2 exceeds log(float max), so e^(hT) overflows
    (["orbits"], {"N_MAX": "4", "T_GRID": "1, 2000"}, None),
], ids=["decay-b-nan", "decay-b-inf", "dolgopyat-b-nan", "env-b-nan",
        "b-list-nan", "t-grid-nan", "config-roof-text", "config-grid-float",
        "config-roof-nan", "correlation-roof-nan", "mc-block-size",
        "mc-block-count", "orbit-period-overflow"])
def test_malformed_number_is_one_line_usage_error(tmp_path, monkeypatch,
                                                  capsys, argv, env, config):
    # each of these once ended in a traceback or in exit 0
    for name, val in env.items():
        monkeypatch.setenv(f"TRANSFERLAB_{name}", val)
    if config is not None:
        path = tmp_path / "model.txt"
        path.write_text("family = doubling\n" + config)
        argv = argv + ["--model", str(path)]
    assert cli.main(argv + ["--grid", "64", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("transferlab: error:"), err


def test_correlation_horizon_is_usage_error(tmp_path, monkeypatch, capsys):
    # the roof is unwound one crossing per round, so T = 1e9 ran for hours
    monkeypatch.setenv("TRANSFERLAB_T_GRID", "1, 1e9")
    tic = time.monotonic()
    assert cli.main(["correlation", "--grid", "64",
                     "--out", str(tmp_path / "o")]) == 1
    assert time.monotonic() - tic < 2.0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "T = 1000000000.0 exceeds" in err, err


@pytest.mark.parametrize("grid", ("4", "0", "-8", "100"))
def test_grid_flag_follows_the_model_rule(tmp_path, capsys, grid):
    assert cli.main(["model-info", f"--grid={grid}",
                     "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("transferlab: error:")
    assert "power of two, at least 64" in err, err


def test_monte_carlo_largest_block_accepted(tmp_path, monkeypatch):
    monkeypatch.setenv("TRANSFERLAB_SAMPLES", str(2 * MC_CHUNK))
    monkeypatch.setenv("TRANSFERLAB_BLOCKS", "2")
    monkeypatch.setenv("TRANSFERLAB_T_GRID", "0, 0.5")
    assert cli.main(["correlation", "--grid", "64",
                     "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("argv", [["decay", "--a", "nan"],
                                  ["uni-scan", "--eps", "nan"]])
def test_non_finite_flag_rejected_before_the_run(tmp_path, capsys, argv):
    # decay --a nan once ran the whole power-iteration cap first
    out = tmp_path / "o"
    assert cli.main(argv + ["--grid", "64", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("transferlab: error:")
    assert not out.exists()


# each malformed extra with the commands that read it; model-info reads none
MALFORMED_EXTRAS = (
    ({"N_MAX": "abc"}, ("orbits",)),
    ({"N_MAX": "0"}, ("orbits",)),
    ({"BLOCKS": "1"}, ("correlation",)),
    ({"SAMPLES": str(2 * (MC_CHUNK + 1)), "BLOCKS": "2"}, ("correlation",)),
    ({"B_LIST": "64,x"}, ("decay",)),
    ({"EPS_LIST": "nan"}, ("uni-scan",)),
    ({"T_GRID": "1,nan"}, ("orbits", "correlation")),
    ({"T_GRID": "-5,1"}, ("orbits", "correlation")),
)


@pytest.mark.parametrize(
    "env, command",
    [(env, cmd) for env, readers in MALFORMED_EXTRAS
     for cmd in readers + ("model-info",)],
    ids=[" ".join([cmd] + [f"{k}={v}" for k, v in env.items()])
         for env, readers in MALFORMED_EXTRAS
         for cmd in readers + ("model-info",)])
def test_malformed_extra_writes_nothing(tmp_path, monkeypatch, capsys,
                                       env, command):
    # a bad extra stops every command before anything is written
    for name, val in env.items():
        monkeypatch.setenv(f"TRANSFERLAB_{name}", val)
    out = tmp_path / "o"
    assert cli.main([command, "--grid", "64", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("transferlab: error:"), err
    assert not out.exists()


def _malformed(env):
    """The rules for the extras, written out: an empty value is unset; a
    list holds at least one finite number and T_GRID none below 0; N_MAX
    is at least 1; and SAMPLES and BLOCKS, set or default, need
    SAMPLES >= BLOCKS >= 2 with SAMPLES // BLOCKS and BLOCKS at most the
    Monte Carlo chunk."""
    vals = {"N_MAX": cli.DEFAULT_N_MAX, "SAMPLES": cli.DEFAULT_SAMPLES,
            "BLOCKS": cli.DEFAULT_BLOCKS, "T_GRID": [0.0]}
    for name, text in env.items():
        if text == "":
            continue
        try:
            if name in ("N_MAX", "SAMPLES", "BLOCKS"):
                vals[name] = int(text)
            else:
                vals[name] = [float(t) for t in text.split(",") if t.strip()]
        except ValueError:
            return True
        if vals[name] == [] or not np.all(np.isfinite(vals[name])):
            return True
    samples, blocks = vals["SAMPLES"], vals["BLOCKS"]
    return (vals["N_MAX"] < 1 or min(vals["T_GRID"]) < 0
            or not 2 <= blocks <= min(samples, MC_CHUNK)
            or samples // blocks > MC_CHUNK)


_number_text = st.one_of(
    st.integers(-3, 4 * MC_CHUNK).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "1e999", "0", "-0.0", "-0.5", "1", "2",
                     " 7 ", "abc"]),
    st.text(alphabet="0123456789.,-+einf x", max_size=6))
_extra_text = st.one_of(
    st.just(""), _number_text,
    st.lists(_number_text, min_size=1, max_size=4).map(",".join))


@settings(max_examples=150, deadline=None)
@given(env=st.dictionaries(
    st.sampled_from(("B_LIST", "EPS_LIST", "N_MAX", "T_GRID", "SAMPLES",
                     "BLOCKS")), _extra_text, max_size=3),
       mirrors=st.dictionaries(
    st.sampled_from(("MODEL", "OUT", "SEED", "THREADS", "A", "B", "EPS",
                     "THETA", "GRID")), st.just(""), max_size=3))
def test_extras_are_checked_before_anything_is_written(env, mirrors):
    # an empty flag mirror is unset, as an empty extra is
    environ = {f"TRANSFERLAB_{k}": v for k, v in {**env, **mirrors}.items()}
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, environ), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        out = os.path.join(tmp, "o")
        code = cli.main(["model-info", "--grid", "64", "--out", out])
        wrote = os.path.exists(out)
    if _malformed(env):
        assert (code, wrote, err.getvalue().count("\n")) == (1, False, 1)
    else:
        assert (code, err.getvalue()) == (0, "")


# edge inputs at a small grid: each ends with an exit code, not a traceback;
# the error line, where one is given, is the whole of stderr, and a row
# marked False leaves no output directory
NONZERO_B = "transferlab: error: b must be nonzero\n"


def _tilt_error(a):
    return f"transferlab: error: |a| = {a} exceeds a_max = 0.05\n"


EDGE_INPUTS = (
    (["decay", "--b", "0"], {}, NONZERO_B, None),
    (["decay"], {"B_LIST": "64,0"}, NONZERO_B, None),
    (["decay", "--b", "1e300"], {}, None, None),
    (["decay", "--a", "0.2"], {}, _tilt_error(0.2), False),
    (["decay"], {"B_LIST": "-64,-128,-256,-512"}, None, True),
    (["decay"], {"B_LIST": "64,-128,256,512"}, None, True),
    (["dolgopyat", "--b", "1"], {}, None, None),
    (["dolgopyat", "--b", "2.5"], {}, None, None),
    (["dolgopyat", "--b", "-256"], {}, None, None),
    (["dolgopyat", "--a", "50"], {}, _tilt_error(50.0), False),
    (["dolgopyat", "--a", "400"], {}, _tilt_error(400.0), False),
    (["dolgopyat", "--eps", "0.5", "--b", "8"], {}, None, None),
    (["uni-scan", "--eps", "1e-300"], {}, None, None),
    (["model-info", "--theta", "0"], {},
     "transferlab: error: theta must lie in (0, 1]\n", False),
    (["model-info"], {"THETA": "0"},
     "transferlab: error: theta must lie in (0, 1]\n", False),
    (["model-info", "--theta", "nan"], {},
     "transferlab: error: theta must be a finite number, got nan\n", False),
    (["orbits"], {"T_GRID": ","},
     "transferlab: error: T_GRID must list at least one number\n", False),
)


@pytest.mark.parametrize(
    "argv, env, error, wrote", EDGE_INPUTS,
    ids=[" ".join(argv + [f"{k}={v}" for k, v in env.items()])
         for argv, env, *_ in EDGE_INPUTS])
def test_edge_inputs_end_with_an_exit_code(tmp_path, monkeypatch, capsys,
                                           argv, env, error, wrote):
    for name, val in env.items():
        monkeypatch.setenv(f"TRANSFERLAB_{name}", val)
    out = tmp_path / "o"
    code = cli.main(argv + ["--grid", "64", "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2) and "Traceback" not in err
    if error is not None:
        assert (code, err) == (1, error)
    if wrote is not None:
        assert out.exists() == wrote


@pytest.mark.parametrize("argv, env", [(["--theta", "0.25"], {}),
                                       ([], {"THETA": "0.25"})],
                         ids=["flag", "env"])
def test_theta_reaches_the_model_and_its_echo(tmp_path, monkeypatch, argv,
                                              env):
    for name, val in env.items():
        monkeypatch.setenv(f"TRANSFERLAB_{name}", val)
    out = tmp_path / "o"
    assert cli.main(["model-info", *argv, "--grid", "64",
                     "--out", str(out)]) == 0
    text = (out / "model.csv").read_text()
    assert "# config theta = 0.25\n" in text and "\ntheta,0.25\n" in text


def test_bad_seed_and_threads(tmp_path):
    out = str(tmp_path / "o")
    assert cli.main(["pressure", "--seed", "-1", "--out", out]) == 1
    assert cli.main(["pressure", "--threads", "0", "--out", out]) == 1


def test_invariants_green_on_doubling(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert cli.main(["invariants", "--out", out]) == 0
    assert "pass ->" in capsys.readouterr().out
    _, rows = read_csv(os.path.join(out, "invariants.csv"))
    assert rows and all(r[3] == "pass" for r in rows)


@pytest.mark.parametrize("forbidden", ("1>2", "2>2"))
def test_invariants_on_seam_models(tmp_path, capsys, forbidden):
    # fixed points settle from their wrap domain, so no rotation check
    # stops on a seam.  With 1>2 forbidden the word 1's fixed point is
    # exactly 2.0, the right end of U_1, which forward reads as a point of
    # U_2: a true seam orbit, whose return residual fails (exit 2) until
    # the seam rule is decided.  With 2>2 every check passes.
    model = tmp_path / "seam.txt"
    model.write_text(f"family = markov3\nforbidden = {forbidden}\n"
                     "grid_size = 256\n")
    out = str(tmp_path / "run")
    code = cli.main(["invariants", "--model", str(model), "--out", out])
    _, rows = read_csv(os.path.join(out, "invariants.csv"))
    failed = {r[0]: float(r[1]) for r in rows if r[3] == "fail"}
    if forbidden == "1>2":
        assert (code, failed) == (2, {"orbit_return_residual": 2.0})
    else:
        assert (code, failed) == (0, {})
        assert "10/10 pass" in capsys.readouterr().out


def test_invariant_failure_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_invariant_checks",
                        lambda model, cfg: [("forced", 1.0, 0.0)])
    out = str(tmp_path / "run")
    assert cli.main(["invariants", "--out", out]) == 2
    assert "1 of 1 failed" in capsys.readouterr().out


# -- environment overrides --------------------------------------------------

def test_unknown_env_override_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TRANSFERLAB_FROB", "1")
    assert cli.main(["pressure", "--out", str(tmp_path / "o")]) == 1
    assert "TRANSFERLAB_FROB" in capsys.readouterr().err


def test_env_mirrors_flag_and_flag_wins(tmp_path, sin_path, monkeypatch):
    args = ["correlation", "--model", sin_path]
    monkeypatch.setenv("TRANSFERLAB_SAMPLES", "2000")
    monkeypatch.setenv("TRANSFERLAB_BLOCKS", "8")

    o_flag = str(tmp_path / "flag")
    assert cli.main(args + ["--out", o_flag, "--seed", "5"]) == 0
    o_env = str(tmp_path / "env")
    monkeypatch.setenv("TRANSFERLAB_SEED", "5")
    assert cli.main(args + ["--out", o_env]) == 0
    o_both = str(tmp_path / "both")
    assert cli.main(args + ["--out", o_both, "--seed", "9"]) == 0

    flag = open(os.path.join(o_flag, "correlation.csv"), "rb").read()
    env = open(os.path.join(o_env, "correlation.csv"), "rb").read()
    both = open(os.path.join(o_both, "correlation.csv"), "rb").read()
    assert flag == env
    assert both != flag


# -- command results --------------------------------------------------------

def test_pressure_values(tmp_path):
    out = str(tmp_path / "run")
    assert cli.main(["pressure", "--out", out]) == 0
    _, rows = read_csv(os.path.join(out, "pressure.csv"))
    table = {name: float(v) for name, v in rows}
    assert table["pressure"] == pytest.approx(np.log(2), abs=1e-8)
    assert table["entropy"] == pytest.approx(np.log(2), abs=1e-8)
    assert abs(table["entropy_residual"]) < 1e-6


def test_gibbs_weights_total(tmp_path):
    out = str(tmp_path / "run")
    assert cli.main(["gibbs", "--out", out, "--grid", "512"]) == 0
    _, rows = read_csv(os.path.join(out, "gibbs.csv"))
    assert len(rows) == 513
    assert sum(float(r[2]) for r in rows) == pytest.approx(1.0, abs=1e-10)


def test_decay_flat_roof_reports_zero(tmp_path, capsys):
    # locally constant roof: all phases align, the sweep must come out flat
    out = str(tmp_path / "run")
    assert cli.main(["decay", "--out", out]) == 0
    assert "kappa_hat=0.0" in capsys.readouterr().out
    _, rows = read_csv(os.path.join(out, "decay.csv"))
    assert [float(r[0]) for r in rows] == [64.0, 128.0, 256.0, 512.0]
    assert all(abs(float(r[3]) - 1.0) < 1e-10 for r in rows)


def test_decay_single_b_has_no_fit(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert cli.main(["decay", "--out", out, "--b", "64"]) == 0
    assert "kappa_hat=none" in capsys.readouterr().out


@pytest.mark.parametrize("b_list", ("-64,-128,-256,-512", "64,-128,256,512"))
def test_decay_fits_against_abs_b(tmp_path, monkeypatch, sin_path, b_list):
    # L_{a,-b} is the conjugate of L_{a,b} on a real function, so a sweep
    # with negative b reads the same norms and fits the same slope
    runs = {}
    for name, sweep in (("pos", "64,128,256,512"), ("mixed", b_list)):
        monkeypatch.setenv("TRANSFERLAB_B_LIST", sweep)
        out = str(tmp_path / name)
        assert cli.main(["decay", "--model", sin_path, "--out", out,
                         "--grid", "256"]) == 0
        path = os.path.join(out, "decay.csv")
        params = header_lines(path)[-1].split()
        rows = [[r[0].lstrip("-")] + r[1:] for r in read_csv(path)[1]]
        runs[name] = (params[-1], rows)
    assert runs["mixed"] == runs["pos"]
    assert float(runs["pos"][0].partition("=")[2]) > 0.0


def test_decay_threads_byte_identical(tmp_path, sin_path):
    o1 = str(tmp_path / "t1")
    o2 = str(tmp_path / "t4")
    assert cli.main(["decay", "--model", sin_path, "--out", o1,
                     "--grid", "1024"]) == 0
    assert cli.main(["decay", "--model", sin_path, "--out", o2,
                     "--grid", "1024", "--threads", "4"]) == 0
    b1 = open(os.path.join(o1, "decay.csv"), "rb").read()
    b2 = open(os.path.join(o2, "decay.csv"), "rb").read()
    assert b1 == b2


def test_uni_scan_single_eps(tmp_path, sin_path):
    out = str(tmp_path / "run")
    assert cli.main(["uni-scan", "--model", sin_path, "--out", out,
                     "--eps", "0.015625"]) == 0
    _, rows = read_csv(os.path.join(out, "uni_scan.csv"))
    assert len(rows) == 1
    assert float(rows[0][1]) > 0.0
    assert rows[0][4] == "true"


def test_uni_scan_matches_golden_digest(tmp_path, sin_path):
    out = str(tmp_path / "run")
    assert cli.main(["uni-scan", "--model", sin_path, "--out", out]) == 0
    with open(os.path.join(out, "uni_scan.csv"), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == GOLDEN_UNI_SCAN_SHA256


# uni_scan.csv of `uni-scan --eps 1e-12` on SIN_MODEL, made by the code
# before uni_scan checked its chart windows, with numpy 2.4.6
GOLDEN_UNI_SCAN_1E12_SHA256 = \
    "3b8431d23188edf3de053ccee8b8f4ffea5f9005b6e522f20486c3607b9675b6"


def test_uni_scan_at_small_eps(tmp_path, sin_path, capsys):
    """eps 1e-12 keeps its bytes; at eps 1e-30 the chart window 1/value
    lies below the float spacing at the sample points, so the scan stops
    with exit 1, naming eps and the point, instead of reporting the flat
    profiles as a failed margin."""
    out = str(tmp_path / "run")
    assert cli.main(["uni-scan", "--model", sin_path, "--out", out,
                     "--eps", "1e-12"]) == 0
    with open(os.path.join(out, "uni_scan.csv"), "rb") as fh:
        assert (hashlib.sha256(fh.read()).hexdigest()
                == GOLDEN_UNI_SCAN_1E12_SHA256)
    capsys.readouterr()
    assert cli.main(["uni-scan", "--model", sin_path, "--out",
                     str(tmp_path / "tiny"), "--eps", "1e-30"]) == 1
    err = capsys.readouterr().err
    assert "(eps = 1e-30)" in err and " at x = 0." in err
    assert "points are not all distinct" in err


def test_dolgopyat_at_tiny_eps_stops_in_bounded_time(tmp_path, capsys):
    """`dolgopyat --eps 1e-30` once refined its partition without bound;
    the UNI scan before it now stops on the collapsed chart window."""
    start = time.perf_counter()
    code = cli.main(["dolgopyat", "--eps", "1e-30", "--b", "256",
                     "--grid", "64", "--out", str(tmp_path / "run")])
    assert code == 1 and time.perf_counter() - start < 5.0
    assert "(eps = 1e-30)" in capsys.readouterr().err


def test_dolgopyat_certificate_rows(tmp_path, sin_path):
    out = str(tmp_path / "run")
    assert cli.main(["dolgopyat", "--model", sin_path, "--out", out,
                     "--b", "64"]) == 0
    lines = header_lines(os.path.join(out, "dolgopyat.csv"))
    params = next(ln for ln in lines if ln.startswith("# params"))
    assert "refused=false" in params
    header, rows = read_csv(os.path.join(out, "dolgopyat.csv"))
    assert header[:3] == ["n", "c0_u", "l2_u"]
    l2 = [float(r[2]) for r in rows]
    assert l2 == sorted(l2, reverse=True)


def test_orbits_counts_match_library(tmp_path, monkeypatch):
    monkeypatch.setenv("TRANSFERLAB_N_MAX", "8")
    out = str(tmp_path / "run")
    assert cli.main(["orbits", "--out", out]) == 0
    _, table = read_csv(os.path.join(out, "orbit_table.csv"))
    assert len(table) == 71          # primitive necklaces, n <= 8
    _, counts = read_csv(os.path.join(out, "counting.csv"))
    model = build_model(ModelConfig())
    report = orbits.prime_orbit_report(model, 8,
                                       [float(r[0]) for r in counts])
    assert [int(r[1]) for r in counts] == list(report.pi)


def _digests(out, names):
    """{name: sha256} of the named files in out, so that one failing
    comparison lists every artifact that moved."""
    digests = {}
    for name in names:
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def test_orbit_artifacts_match_golden_digests(tmp_path, monkeypatch):
    model = tmp_path / "golden.txt"
    model.write_text(GOLDEN_MODEL)
    out = str(tmp_path / "run")
    monkeypatch.setenv("TRANSFERLAB_N_MAX", "8")
    assert cli.main(["orbits", "--model", str(model), "--out", out]) == 0
    assert cli.main(["invariants", "--model", str(model), "--out", out,
                     "--seed", "7"]) == 0
    assert _digests(out, GOLDEN_SHA256) == GOLDEN_SHA256


def test_entropy_and_correlation_match_golden_digests(tmp_path,
                                                      monkeypatch):
    model = tmp_path / "golden.txt"
    model.write_text(GOLDEN_MODEL)
    out = str(tmp_path / "run")
    monkeypatch.setenv("TRANSFERLAB_SAMPLES", "8000")
    assert cli.main(["pressure", "--model", str(model), "--out", out]) == 0
    assert cli.main(["correlation", "--model", str(model), "--out", out,
                     "--seed", "7"]) == 0
    assert _digests(out, GOLDEN_MC_SHA256) == GOLDEN_MC_SHA256


def test_tables_match_golden_digests(tmp_path, sin_path):
    model = tmp_path / "golden.txt"
    model.write_text(GOLDEN_MODEL)
    out = str(tmp_path / "run")
    assert cli.main(["gibbs", "--model", str(model), "--out", out]) == 0
    assert cli.main(["model-info", "--model", str(model), "--out", out]) == 0
    decay_out = str(tmp_path / "decay")
    assert cli.main(["decay", "--model", sin_path, "--b", "64",
                     "--out", decay_out]) == 0
    assert ({**_digests(out, GOLDEN_TABLE_SHA256),
             **_digests(decay_out, ["decay.csv"])}
            == {**GOLDEN_TABLE_SHA256, "decay.csv": GOLDEN_DECAY_SHA256})


def _certificate_digest(tmp_path, text):
    """sha256 of dolgopyat.csv for the model text at b=64."""
    model = tmp_path / "golden.txt"
    model.write_text(text)
    out = str(tmp_path / "run")
    assert cli.main(["dolgopyat", "--model", str(model), "--b", "64",
                     "--out", out]) == 0
    with open(os.path.join(out, "dolgopyat.csv"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_certificate_matches_golden_digest(tmp_path):
    assert _certificate_digest(tmp_path, DOLGOPYAT_MODEL) == \
        GOLDEN_DOLGOPYAT_SHA256


def test_doubling_certificate_matches_golden_digest(tmp_path):
    assert _certificate_digest(tmp_path, DOUBLING_DOLGOPYAT_MODEL) == \
        GOLDEN_DOUBLING_DOLGOPYAT_SHA256


def test_correlation_determinism(tmp_path, sin_path, monkeypatch):
    monkeypatch.setenv("TRANSFERLAB_SAMPLES", "4000")
    base = ["correlation", "--model", sin_path, "--seed", "3"]
    o1, o2, o3 = (str(tmp_path / k) for k in ("a", "b", "c"))
    assert cli.main(base + ["--out", o1]) == 0
    assert cli.main(base + ["--out", o2, "--threads", "4"]) == 0
    assert cli.main(["correlation", "--model", sin_path, "--seed", "4",
                     "--out", o3]) == 0
    b1 = open(os.path.join(o1, "correlation.csv"), "rb").read()
    b2 = open(os.path.join(o2, "correlation.csv"), "rb").read()
    b3 = open(os.path.join(o3, "correlation.csv"), "rb").read()
    assert b1 == b2
    assert b1 != b3


def _child_env():
    """Environment in which a child imports the package this process
    imported, however pytest put it on sys.path."""
    src = os.path.dirname(os.path.dirname(transferlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_module_entry_subprocess(tmp_path):
    out = str(tmp_path / "run")
    proc = subprocess.run(
        [sys.executable, "-m", "transferlab.cli", "model-info",
         "--out", out],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert proc.stdout.startswith("model-info:")
    assert os.path.exists(os.path.join(out, "model.csv"))


# Run in a fresh interpreter: prints, after the imports and after each
# command, its exit code and which of scipy's solver modules are loaded.
_STARTUP_CHILD = """
import sys
from transferlab import (cancellation, cli, gridfun, markov, orbits, rpf,
                         scales, thermo)

def solvers():
    return ",".join(m for m in ("scipy.integrate", "scipy.optimize",
                                "scipy.special") if m in sys.modules)

print("import", 0, solvers(), sep="|")
for i, argv in enumerate(sys.argv[2:]):
    code = cli.main(argv.split() + ["--grid", "64",
                                    "--out", f"{sys.argv[1]}/{i}"])
    print(argv, code, solvers(), sep="|")
"""


def test_no_command_loads_scipy_solvers(tmp_path):
    """No command loads scipy.optimize, scipy.integrate or scipy.special:
    the entropy root (orbits.entropy) and li are computed in the package,
    so no command pays those modules' start-up cost."""
    commands = ["model-info", "gibbs", "pressure", "decay --b 64",
                "uni-scan --eps 0.25", "dolgopyat --b 64", "orbits",
                "correlation", "invariants"]
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_CHILD, str(tmp_path)] + commands,
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    report = [line.split("|") for line in proc.stdout.splitlines()
              if line.count("|") == 2]
    assert report == [["import", "0", ""]] + [[c, "0", ""]
                                              for c in commands]
