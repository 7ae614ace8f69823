"""Smoke tests of the runnable experiments in scripts/, unit tests of the
artifact comparison on tiny trees, and of the benchmark pair summary on
recorded numbers.

Each experiment's main() runs in this process on small arguments; the
test checks that it returns normally and prints its header line.  The scripts
are loaded from their files, so scripts/ needs no package of its own.
"""

import importlib.util
import os
import sys

import numpy as np
import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")

# (script, arguments, first line of its output)
CASES = (
    ("orbit_census.py", ("--n-max", "8"),
     "primitive orbits up to n=8: 71 (necklace check: ok)"),
    ("uni_profile.py", ("--q-min", "6", "--q-max", "7", "--b", "32"),
     "roof=sin"),
    ("decay_sweep.py", ("--grid", "256", "--octaves", "1"),
     "roof=sin a=0.0 grid=256"),
    ("mixing_mc.py", ("--samples", "2000"),
     "sine roof, observable sin(2 pi x):"),
)


@pytest.mark.parametrize("script, args, header", CASES,
                         ids=[c[0] for c in CASES])
def test_script_main_prints_its_header(script, args, header, monkeypatch,
                                       capsys):
    spec = importlib.util.spec_from_file_location(
        f"_script_{script[:-3]}", os.path.join(SCRIPTS, script))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [script, *args])
    assert module.main() is None
    assert capsys.readouterr().out.splitlines()[0] == header


def _load_script(name):
    spec = importlib.util.spec_from_file_location(
        f"_script_{name[:-3]}", os.path.join(SCRIPTS, name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return str(root)


BASE = {
    "q000/decay.csv": "# params b=64.0 atoms=12\nb,l2\n64.0,0.125\n",
    "q000.exit": "0\n",
    "q000.stdout": "decay: kappa_hat=0.5 -> <run>/decay.csv\n",
}


def _diff(tmp_path, changes, drop=()):
    new = {k: v for k, v in BASE.items() if k not in drop}
    new.update(changes)
    diff = _load_script("artifact_diff.py")
    return diff.main([_tree(tmp_path / "old", BASE),
                      _tree(tmp_path / "new", new)])


def test_artifact_diff_reports_float_moves(tmp_path, capsys):
    assert _diff(tmp_path, {
        "q000/decay.csv": "# params b=64.0 atoms=12\nb,l2\n64.0,0.12500000000000003\n",
        "q000.stdout": "decay: kappa_hat=0.5000000000000001 -> <run>/decay.csv\n",
    }) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "q000.stdout: worst 1.110e-16 over 1 moved floats"
    assert out[1] == "q000/decay.csv: worst 2.776e-17 over 1 moved floats"
    assert out[-1] == ("3 files, 2 differ, worst float move 1.110e-16, "
                       "0 non-float differences")
    assert _diff(tmp_path / "same", {}) == 0


def test_artifact_diff_groups_moves_by_kind(tmp_path, capsys):
    old = {"q000.stdout": "h=0.5\n", "qinfo-a.stdout": "h=0.25\n",
           "q000.exit": "0\n", "q000/counting.csv": "t,li\n1.0,2.0\n",
           "q001/counting.csv": "t,li\n1.0,2.0\n"}
    new = dict(old, **{"q000.stdout": "h=0.5000000000000001\n",
                       "qinfo-a.stdout": "h=0.25000000000000006\n",
                       "q001/counting.csv": "t,li\n1.0,2.0000000000000004\n"})
    diff = _load_script("artifact_diff.py")
    assert diff.main([_tree(tmp_path / "old", old),
                      _tree(tmp_path / "new", new)]) == 0
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "kind counting.csv: 1 files differ, worst 2.220e-16",
        "kind stdout: 2 files differ, worst 1.110e-16",
        "5 files, 3 differ, worst float move 2.220e-16, "
        "0 non-float differences"]
    assert [diff.kind(rel) for rel in ("q000.exit", "q001.npz",
                                       "census/seed1/q012/pressure.csv",
                                       "census/seed1/qinfo-m0.stdout")] == [
        "exit", "npz", "pressure.csv", "stdout"]


@pytest.mark.parametrize("changes, drop", [
    ({"q000/decay.csv": "# params b=64.0 atoms=13\nb,l2\n64.0,0.125\n"}, ()),
    ({"q000.exit": "1\n"}, ()),
    ({"q000.stdout": "decay: kappa_hat=0.5 -> <run>/other.csv\n"}, ()),
    ({"q000/decay.csv": "# params b=64.0 atoms=12\nb,l2\n64.0,0.125\n\n"}, ()),
    ({"q001.exit": "0\n"}, ()),
    ({}, ("q000.exit",)),
], ids=["int", "exit-code", "word", "line-count", "extra-file",
        "missing-file"])
def test_artifact_diff_fails_on_non_float_changes(tmp_path, capsys, changes,
                                                  drop):
    assert _diff(tmp_path, changes, drop) == 1
    assert capsys.readouterr().out.splitlines()[-1].endswith(
        "1 non-float differences")


def test_artifact_diff_compares_saved_results(tmp_path, capsys):
    diff = _load_script("artifact_diff.py")
    for name, rho, n in (("old", 1.0, 3), ("new", 1.0 + 2 ** -52, 3),
                         ("int", 1.0, 4)):
        (tmp_path / name).mkdir()
        np.savez(tmp_path / name / "q001.npz", **{
            "result.rho": np.array([0.5, rho]), "result.n": np.int64(n)})
    old, new, moved = (str(tmp_path / k) for k in ("old", "new", "int"))
    assert diff.main([old, new]) == 0
    assert capsys.readouterr().out.splitlines()[0] == \
        "q001.npz: worst 2.220e-16 over 1 moved floats"
    assert diff.main([old, moved]) == 1
    assert "  result.n: 3 -> 4" in capsys.readouterr().out.splitlines()


# wall_ref_s of ten alternated census pairs, parent then change, as a past
# change recorded them (median 3.177 -> 3.168 s, lower in 5 of 10 pairs,
# parent IQR 0.120 s)
CENSUS_PAIRS = ((3.192, 3.195), (3.169, 2.986), (3.071, 3.043),
                (3.292, 3.164), (3.185, 3.104), (3.151, 3.103),
                (3.103, 3.173), (3.214, 3.299), (3.062, 3.185),
                (3.218, 3.300))


def test_bench_pairs_summary_of_recorded_pairs():
    summarize = _load_script("bench_pairs.py").summarize
    pairs = [({"wall_ref_s": a}, {"wall_ref_s": b}) for a, b in CENSUS_PAIRS]
    none_failed = [(0, 0)] * 10
    (row,) = summarize(pairs, {"wall_ref_s": "lower"}, none_failed)
    assert row["metric"] == "wall_ref_s" and row["pairs"] == 10
    assert row["parent"] == pytest.approx((3.095, 3.177, 3.215))
    assert row["change"][1] == pytest.approx(3.1685)
    assert row["wins"] == 5 and not row["claim"]
    # 9 wins of 10 and a median gap wider than the parent's IQR claim a
    # gain; a tie counts for neither side, and "higher" flips the sign
    faster = [(a, b - 0.2) for a, b in CENSUS_PAIRS[:9]] + [(3.2, 3.2)]
    pairs = [({"t": a, "r": -a}, {"t": b, "r": -b}) for a, b in faster]
    rows = summarize(pairs, {"t": "lower", "r": "higher"}, none_failed)
    assert [(r["wins"], r["claim"]) for r in rows] == [(9, True), (9, True)]
    assert not summarize(pairs[:8] + pairs[-1:] * 2, {"t": "lower"},
                         none_failed)[0]["claim"]
    # a change that fails more queries in all claims nothing, however fast;
    # as many failures as the parent, spread differently, still claim
    more = none_failed[:9] + [(1, 2)]
    assert not summarize(pairs, {"t": "lower"}, more)[0]["claim"]
    same = none_failed[:8] + [(2, 0), (0, 2)]
    assert summarize(pairs, {"t": "lower"}, same)[0]["claim"]
