"""A smoke test of the roof sweep in scripts/, unit tests of the artifact
comparison on tiny trees, and of the benchmark pair summary and its JSON
line on recorded numbers.

The scripts are loaded from their files, so scripts/ needs no package of
its own.
"""

import importlib.util
import json
import os

import numpy as np
import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def _load_script(name):
    spec = importlib.util.spec_from_file_location(
        f"_script_{name[:-3]}", os.path.join(SCRIPTS, name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_roof_sweep_runs_every_command_on_every_roof(tmp_path, monkeypatch,
                                                     capsys):
    # every input comes from the CLI's environment; 0.4 s at these
    sweep = _load_script("roof_sweep.py")
    for name, value in (("OUT", str(tmp_path)), ("GRID", "256"),
                        ("N_MAX", "8"), ("SAMPLES", "2000")):
        monkeypatch.setenv(f"TRANSFERLAB_{name}", value)
    assert sweep.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(sweep.ROOFS) * len(sweep.COMMANDS)
    runs = [(roof, cmd) for roof in sweep.ROOFS for cmd in sweep.COMMANDS]
    for line, (roof, cmd) in zip(lines, runs):
        assert line.startswith(f"{cmd}: ")
        assert f"-> {tmp_path / roof}{os.sep}" in line
    assert (tmp_path / "sine" / "dolgopyat.csv").exists()


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


# wall_ref_s of three alternated spectral pairs, parent then change,
# around the medians a past change recorded
SPECTRAL_3_PAIRS = ((2.601, 2.470), (2.647, 2.492), (2.712, 2.531))


# peak_rss_mb of ten alternated certify pairs, parent then change, around
# the medians a past change recorded (67.59 -> 67.39 MB, 10 of 10 lower)
CERTIFY_RSS_PAIRS = ((67.56, 67.36), (67.58, 67.38), (67.59, 67.39),
                     (67.61, 67.41), (67.57, 67.37), (67.59, 67.39),
                     (67.60, 67.40), (67.58, 67.38), (67.62, 67.42),
                     (67.59, 67.39))


def _metrics(*specs):
    """BENCHMARK.json end_to_end entries from (name, better, bound)."""
    return [dict(zip(("name", "better", "bound"), m)) for m in specs]


def test_bench_pairs_summary_of_recorded_pairs():
    summarize = _load_script("bench_pairs.py").summarize
    pairs = [({"wall_ref_s": a}, {"wall_ref_s": b}) for a, b in CENSUS_PAIRS]
    none_failed = [(0, 0)] * 10
    wall = _metrics(("wall_ref_s", "lower", 0.25))
    (row,) = summarize(pairs, wall, none_failed)
    assert row["metric"] == "wall_ref_s" and row["pairs"] == 10
    assert row["parent"] == pytest.approx((3.095, 3.177, 3.215))
    assert row["change"][1] == pytest.approx(3.1685)
    assert row["wins"] == 5 and not row["claim"]
    assert row["verdict"] == "ok"
    # 9 wins of 10 and a median gap wider than the parent's IQR and than
    # the bound (a quarter of 3.177 s) claim a gain; a tie counts for
    # neither side, and "higher" flips the sign
    def shifted(cut):
        faster = [(a, b - cut) for a, b in CENSUS_PAIRS[:9]] + [(3.2, 3.2)]
        return [({"t": a, "r": -a}, {"t": b, "r": -b}) for a, b in faster]
    both = _metrics(("t", "lower", 0.25), ("r", "higher", 0.25))
    rows = summarize(shifted(0.9), both, none_failed)
    assert [(r["wins"], r["claim"]) for r in rows] == [(9, True), (9, True)]
    # the same wins 0.2 s faster, past the IQR but inside the bound, do not
    rows = summarize(shifted(0.2), both, none_failed)
    assert [(r["wins"], r["claim"]) for r in rows] == [(9, False), (9, False)]
    pairs = shifted(0.9)
    t_only = _metrics(("t", "lower", 0.25))
    assert not summarize(pairs[:8] + pairs[-1:] * 2, t_only,
                         none_failed)[0]["claim"]
    # a change that fails more queries in all claims nothing, however fast;
    # as many failures as the parent, spread differently, still claim
    more = none_failed[:9] + [(1, 2)]
    assert not summarize(pairs, t_only, more)[0]["claim"]
    same = none_failed[:8] + [(2, 0), (0, 2)]
    assert summarize(pairs, t_only, same)[0]["claim"]
    # fewer than ten pairs claim nothing: a past 3-pair spectral run, on a
    # workload the change never called, read a median of 2.647 -> 2.492 s
    # in 3 of 3 pairs (the 10-pair re-run read 2.463 -> 2.476 s); only its
    # medians were recorded, and the outer pairs are set so that the old
    # rule (wins and IQR alone) claims it
    (row,) = summarize([({"t": a}, {"t": b}) for a, b in SPECTRAL_3_PAIRS],
                       t_only, none_failed[:3])
    assert row["wins"] == 3 and row["pairs"] == 3
    assert row["parent"][1] == 2.647 and row["change"][1] == 2.492
    gap = row["parent"][1] - row["change"][1]
    assert gap > row["parent"][2] - row["parent"][0] and not row["claim"]
    # a past certify run read peak_rss_mb 67.59 -> 67.39 MB in 10 of 10
    # pairs, a gap wider than the parent's IQR but 0.3% of the median, far
    # inside the bound of 10%: no gain; only the medians were recorded, and
    # the pairs are set so that the rule without the bound claims it
    rss = _metrics(("peak_rss_mb", "lower", 0.1))
    (row,) = summarize([({"peak_rss_mb": a}, {"peak_rss_mb": b})
                        for a, b in CERTIFY_RSS_PAIRS], rss, none_failed)
    assert row["wins"] == 10 and row["pairs"] == 10
    assert row["parent"][1] == pytest.approx(67.59)
    assert row["change"][1] == pytest.approx(67.39)
    gap = row["parent"][1] - row["change"][1]
    assert gap > row["parent"][2] - row["parent"][0] and not row["claim"]
    assert row["verdict"] == "ok"
    # no-regression verdicts, each bound a fraction of the parent's median
    # of 3.177 s: the recorded change is ok; a quarter slower is worse at
    # a bound of 20%; at 2% (0.064 s) the parent's IQR of 0.120 s is wider
    # than the bound, so the recorded change is unresolved unless every
    # run of the change beats every parent run
    def verdict(scale, cut, bound, better="lower"):
        sign = 1.0 if better == "lower" else -1.0
        pairs = [({"t": sign * a}, {"t": sign * (scale * b - cut)})
                 for a, b in CENSUS_PAIRS]
        (row,) = summarize(pairs, _metrics(("t", better, bound)),
                           none_failed)
        return row["verdict"]
    assert verdict(1.0, 0.0, 0.25) == "ok"
    assert verdict(1.25, 0.0, 0.2) == "worse"
    assert verdict(1.25, 0.0, 0.2, "higher") == "worse"
    assert verdict(1.0, 0.0, 0.02) == "unresolved"
    assert verdict(1.0, 0.3, 0.02) == "ok"


def test_bench_pairs_ends_with_its_summary_as_json(tmp_path, monkeypatch,
                                                   capsys):
    # the recorded census pairs stand in for perfbench/run.py, whose result
    # line gives each metric's value and the failed and attempted queries
    bench = _load_script("bench_pairs.py")
    parent = str(tmp_path)
    values = {parent: iter(a for a, _ in CENSUS_PAIRS),
              bench.ROOT: iter(b for _, b in CENSUS_PAIRS)}

    def recorded(root, args, seconds):
        assert (args.workload, args.seed) == ("census", 1)
        return {"failed": 0, "attempted": 100, "metrics": {
            "wall_ref_s": {"value": next(values[root])},
            "setup_s": {"value": 0.566}, "peak_rss_mb": {"value": 73.8}}}

    monkeypatch.setattr(bench, "_run", recorded)
    assert bench.main(["--parent", parent, "--workload", "census",
                       "--seed", "1", "--pairs", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # 20 runs, the header, one line per metric, then the JSON line
    assert len(lines) == 20 + 1 + 3 + 1
    last = json.loads(lines[-1])
    assert set(last) == {"workload", "seed", "rows"}
    assert (last["workload"], last["seed"]) == ("census", 1)
    assert [r["metric"] for r in last["rows"]] == ["wall_ref_s", "setup_s",
                                                   "peak_rss_mb"]
    wall = last["rows"][0]
    assert wall["parent"] == pytest.approx([3.095, 3.177, 3.215])
    assert wall["change"][1] == pytest.approx(3.1685)
    assert (wall["wins"], wall["pairs"], wall["claim"], wall["verdict"]) \
        == (5, 10, False, "ok")
    assert last["rows"][2]["parent"] == [73.8, 73.8, 73.8]
