"""Compare two kept artifact trees field by field.

    python3 scripts/artifact_digest.py $W --root ../parent --keep old
    python3 scripts/artifact_digest.py $W --keep new
    python3 scripts/artifact_diff.py old new

Walks both trees and pairs the files by relative path.  A text file is
cut into number tokens (not glued to a letter, digit or point) and the
text between them; a number token with a decimal point or an exponent
(on either side) is a float, and any other token must match exactly.  An
``.npz`` file (an rpf result) is compared array by array: float and
complex arrays as floats, all others exactly.

For each file that differs, one line gives the worst |new - old| /
max(1, |old|) over its floats and the number of floats that moved; every
non-float token that differs is listed below it.  Then one line per
artifact kind gives the files of that kind that differ and their worst
float move; the kind is the file's basename, and a query's own
``q<tag>.stdout``, ``q<tag>.exit`` or ``q<tag>.npz`` counts under its
extension.  A summary line ends the output.  The exit code is 1 on any
non-float difference, line-count or shape difference, exit-code
difference (``q<tag>.exit`` is compared as text) or missing file, and 0
otherwise, however large a float move.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

import numpy as np

# a number not glued to a word, so hex digests and names stay text
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                    r"(?![\w.])")
# what artifact_digest.py --keep writes next to a query's directory
QUERY_FILE = re.compile(r"q[^./]*\.(stdout|exit|npz)")


def _files(root: str) -> set[str]:
    out = set()
    for base, _, names in os.walk(root):
        for name in names:
            out.add(os.path.relpath(os.path.join(base, name), root))
    return out


def _split(line: str) -> list[str]:
    """Alternating text and number tokens, text first."""
    parts, pos = [], 0
    for m in NUMBER.finditer(line):
        parts += [line[pos:m.start()], m.group()]
        pos = m.end()
    return parts + [line[pos:]]


def kind(rel: str) -> str:
    """The artifact kind of a relative path (see the module docstring)."""
    name = os.path.basename(rel)
    m = QUERY_FILE.fullmatch(name)
    return m.group(1) if m else name


def _is_float(token: str) -> bool:
    return any(c in token for c in ".eE")


def _rel(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    return np.abs(new - old) / np.maximum(1.0, np.abs(old))


def compare_text(old: str, new: str):
    """(worst relative float move, floats moved, non-float differences)."""
    a, b = old.splitlines(), new.splitlines()
    if len(a) != len(b):
        return 0.0, 0, [f"line count {len(a)} -> {len(b)}"]
    worst, moved, other = 0.0, 0, []
    for n, (la, lb) in enumerate(zip(a, b), 1):
        if la == lb:
            continue
        ta, tb = _split(la), _split(lb)
        if len(ta) != len(tb):
            other.append(f"line {n}: {la!r} -> {lb!r}")
            continue
        for i, (x, y) in enumerate(zip(ta, tb)):
            if x == y:
                continue
            if i % 2 and (_is_float(x) or _is_float(y)):
                rel = float(_rel(np.float64(x), np.float64(y)))
                worst, moved = max(worst, rel), moved + 1
            else:
                other.append(f"line {n}: {x!r} -> {y!r}")
    return worst, moved, other


def compare_npz(old_path: str, new_path: str):
    """compare_text for two saved rpf results, array by array."""
    worst, moved, other = 0.0, 0, []
    with np.load(old_path) as fa, np.load(new_path) as fb:
        if sorted(fa.files) != sorted(fb.files):
            return 0.0, 0, [f"fields {sorted(fa.files)} -> {sorted(fb.files)}"]
        for key in fa.files:
            x, y = fa[key], fb[key]
            if x.dtype != y.dtype or x.shape != y.shape:
                other.append(f"{key}: {x.dtype}{x.shape} -> {y.dtype}{y.shape}")
            elif x.dtype.kind in "fc":
                diff = x != y
                if diff.any():
                    rel = _rel(x[diff], y[diff])
                    worst = max(worst, float(np.max(rel)))
                    moved += int(diff.sum())
            elif not np.array_equal(x, y):
                other.append(f"{key}: {x.tolist()} -> {y.tolist()}")
    return worst, moved, other


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    old, new = _files(args.old), _files(args.new)
    bad, worst, moved_files = 0, 0.0, 0
    kinds: dict[str, tuple[int, float]] = {}
    for rel in sorted(old ^ new):
        print(f"{rel}: only in {args.old if rel in old else args.new}")
        bad += 1
    for rel in sorted(old & new):
        pa, pb = os.path.join(args.old, rel), os.path.join(args.new, rel)
        if rel.endswith(".npz"):
            w, moved, other = compare_npz(pa, pb)
        else:
            with open(pa) as fa, open(pb) as fb:
                w, moved, other = compare_text(fa.read(), fb.read())
        if not (moved or other):
            continue
        print(f"{rel}: worst {w:.3e} over {moved} moved floats")
        for line in other:
            print(f"  {line}")
        worst, moved_files = max(worst, w), moved_files + 1
        bad += len(other)
        name = kind(rel)
        files, kind_worst = kinds.get(name, (0, 0.0))
        kinds[name] = files + 1, max(kind_worst, w)
    for name, (files, w) in sorted(kinds.items()):
        print(f"kind {name}: {files} files differ, worst {w:.3e}")
    print(f"{len(old | new)} files, {moved_files} differ, worst float move "
          f"{worst:.3e}, {bad} non-float differences")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
