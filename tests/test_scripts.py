"""Smoke tests of the runnable experiments in scripts/.

Each script's main() runs in this process on small arguments; the test
checks that it returns normally and prints its header line.  The scripts
are loaded from their files, so scripts/ needs no package of its own.
"""

import importlib.util
import os
import sys

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
