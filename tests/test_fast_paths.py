"""Array fast paths against the one-point paths they replace.

Each reference below is a plain loop or an ``_old_*`` copy of replaced
code, kept here on purpose: it guards what no golden digest or oracle
pins (README, "Tests", states when one may be retired).  Where the
package runs the same arithmetic on whole arrays, in the same order, the
comparison is exact (``==``); the fused operators (real, complex and the
adjoint), the prefix-sum smoothing and the dichotomy's window means
reorder their sums, and their tolerances are stated below.

* Stopping cocycle: ``value_at`` and the stopping index of
  ``_stopping_cocycle`` against a one-point loop of mu, slope and forward
  at random off-grid points.
* Cylinder partition: the level-wise ``build_partition`` against a
  depth-first refinement that reads the scale one probe at a time, on
  every single forbidden ``markov3`` transition: every atom column, bit
  for bit (atoms keep no words).
* Grid orbit sums: the n-step weight and roof tables against per-node
  forward walks, the interpolating ``_orbit_weight`` and ``birkhoff_sum``.
* The shared linear interpolation ``_read_rows`` against ``np.interp``
  a row at a time, real and complex rows: nodes, clamped ends, right
  ends and seams exactly, other points within LERP_EPS eps of the larger
  neighbour (np.interp's slope form rounds differently).
* ``locate`` against a linear scan of the atoms.
* ``_margins`` (profiles in) against window minima taken one window at
  a time over each profile's full phase table, for 1 to 8 phases.
* Periodic orbits: ``cyclic_fixed_points`` and ``orbit_fixed_point``
  against the exact fixed point off / (1 - contr) of each word's
  composite branch in ``fractions.Fraction``, within FIXED_POINT_TOL, on
  every cyclic word n <= 6 of ``doubling`` and of ``markov3`` with no and
  with each single forbidden transition, seams included; against
  FIXED_POINT_ITERATIONS scalar ``apply_word`` rounds within the same
  tolerance wherever that loop, which re-reads each point's interval,
  does not stop on a seam; one call over the rotation lists joined
  against a call per list, and a word that is not cyclically admissible
  joined in raising the error it raises alone; the
  early-exit affine iteration against the same number of full steps; the
  shared word decoder against ``divmod``, and the encoder as its
  inverse; the shared word grower (each child's symbol and parent, rows
  built from them here), on both sides and both families with every
  forbidden transition, against the rebuild from length 1, the
  ``all_words`` tuple builder and a depth-first cylinder expansion, with
  near and far intervals and the
  composed columns bit for bit; the orbit table's words against the
  least rotations of all primitive cyclic words from
  ``itertools.product``, on both families and every single forbidden
  transition, its length counts against the necklace counts; the table
  (one fixed point per Lyndon word, the rest of each orbit walked)
  against every rotation's fixed point settled on its own and summed per
  class in the order the census used before, words and lengths bit for
  bit and periods within 16 ulps; the orbits a counting report carries
  against a fresh enumeration.  Fixed points compare by their bits.
* Operators: the stencil table (one entry per grid node and branch, in
  CSR order) against ``_old_*`` copies of the per-branch stencils, their
  gather and the index pattern with its slot map, less the slots whose
  interpolation weight is exactly 0, every column and index bit for bit,
  and that rule on fractions the built-in families never produce;
  every matrix, real and with a phase, against the full two-slot layout
  after ``eliminate_zeros``, and its products and transposed products on
  real and complex fields with signed zeros, bit for bit; the weight memo
  (R1, R2, R1 with phases, then R1 real) against builds with every cache
  cleared; ``make_operator``, real and with a phase, against
  the per-stencil gather loop over those copies (with the old
  ``coef_at_stencil`` and ``out_factor`` readers), and the real adjoint
  against the bincount push-forward, each within a relative 1e-13 of
  the modulus operator's sup, since the fused matrix sums the same terms
  in another order; the real matrix also bitwise against the gather
  loop split into its interpolation cells and summed in row order, and
  the same bits from fill blocks of any number of samples.
* ``smooth_grid`` (two prefix-sum box passes) against ``np.convolve``
  with the triangle kernel, within 1e-12; constants stay exact.
* The row Hoelder seminorm against its own dyadic loop (bitwise), and
  column-wise CSV formatting against ``_fmt`` one value at a time, numpy
  columns included.  The block writer (each block joined into one
  string) against a copy of the ``csv.writer`` rows it replaced, byte
  for byte, at 0, 1, ``CSV_BLOCK_ROWS`` and ``CSV_BLOCK_ROWS + 1`` rows of
  numpy and mixed list columns; a field holding ',', '"', CR or LF
  raises ``ValueError`` naming its column.
* Entropy: ``entropy``'s secant steps from below against
  ``scipy.optimize.brentq`` on the same pressure, within 2 ENTROPY_TOL,
  on every single forbidden transition, in at most 8 pressure
  evaluations; the pressure at the root lies in [-1e-12, tau_0
  ENTROPY_TOL] and is negative 2 ENTROPY_TOL to its right.  On a stub
  pressure, the loop stops at its first point within tau_0 ENTROPY_TOL,
  not at one within tau_star ENTROPY_TOL.  A stub pressure that does not
  fall, and one that falls too slowly to stop within the step cap (after
  exactly 1 + ENTROPY_STEPS evaluations), each raise ``ConvergenceError``.
* ``_margins`` (one candidate phase per profile scanned exactly, the
  other phases read only in a band around each profile value, exact
  rescans where a run test fails) against the scan of every window size
  for every phase of the full table: value and witness bit for bit, on
  constant profiles, profiles inside one phase step, spanning several
  turns, on a phase and at +-pi, half-way between two phases, rounded
  (tied), with NaN or +-inf entries and past 2^20, several in one call,
  with the guessed candidate and with any candidate (a candidate of
  margin 1 and a weakest phase that is not the candidate included).  The
  band's failing (phase, point) pairs against the full table's, at
  random u, u = 0 and u equal to a table entry, for 1 to 64 phases.
* ``uni_scan`` and ``check_tame`` run no stopping cocycle: the sample
  points are grid nodes, bit for bit, and the scale's steps and values
  there are the cocycle's; ``uni_scan`` builds the word pairs once per
  (interval, stopping index) and walks each (point, side, word) row once.
* Contrast profiles as one table, against copies of the loops they
  replaced: ``uni_scan`` (one word walk per stopping index) against one
  frozen ``temporal_distance``, %-form torus distance and full-scan
  margin per (point, pair, side) profile, the whole certificate with
  ``==``, on both families and every single forbidden transition, with
  q in 4..12, affine roofs (margin 0, tied witnesses) and a point with
  one side; where a chart window collapses below the float spacing,
  both stop with ScaleError;
  ``check_tame`` (one walk per point) against one temporal distance per
  mixed prefix, rows and c_measured bit for bit, errors included (the
  collapsed-window message too), and on
  ``0>2`` (whose mixed words can join 0 to 2) against that loop over the
  mixed words that apply;
  ``_torus_dist`` against the % form on signed zeros, multiples of pi,
  subnormals, +-1e300, infinities and NaN, 1-element and (64, 256),
  bits and types.
* Monte Carlo: ``correlation_decay`` (blocks advanced together, roof
  values carried, any chunk size, section values recomputed only where
  a point crossed the roof, keys searched in sorted order) against the
  per-block loop it replaced, with its own unsorted-key draw and every
  observable evaluated at every point at every time, bit for bit, with
  repeated, unsorted and zero times, fibre profiles on either side, one
  section shared by both observables or two different ones, and a
  section that returns a Python scalar.
* One copy of each primitive, against copies of the loops it replaced,
  bit for bit, on every single forbidden ``markov3`` transition: the lag
  seminorm kernel against the dyadic row loop (any theta, NaN samples
  included), the slice loops
  (slice lengths that are not powers of two) and the profile loop (any
  length, NaN samples included); the orbit fold against the four
  cocycle and Birkhoff-sum folds (scalar and array x, n = 0); the grid
  walk against the walks of ``check_stable``, ``check_adapted``,
  ``uniform_set`` and ``recurrence_rate``; stacked node sampling against
  per-row stacks; ``interval_index`` of one point against the old
  scalar interval rule, with NaN and infinities raising ``ModelError``;
  the interval ids, ``lefts`` and ``nodes()`` as one layout, each grid
  row indexing back to its own interval.
* Branch structure as model arrays, bit for bit, on every single
  forbidden ``markov3`` transition: ``forward`` and ``slope_at`` of one
  point as Python floats with the bits of that point in a 1-d and a 2-d
  batch, at slice seams, both ends of each interval and the last right
  end; the arrays, bitwise, against a copy of the branch-instance list
  ``build_model`` used to keep, read-only, the branch tables sharing
  memory with the walk tables, and the per-branch stencils (built from
  the arrays by the copy the stencil table is checked against) and
  ``all_words`` against that list; ``apply_word``,
  ``roof_sum_on_word`` with and without a given domain, and the shared
  walk over a batch of rows, one point each, against the scalar loop
  over that list, errors included; ``temporal_distance`` with one
  interval lookup.
* Weight recipes as data, bit for bit, against a copy of the closure
  recipes (callables, (array, power) factors) and the ``make_operator``
  they fed: stencil coefficients, out factors, grid samples, matrix data
  (against the closure matrix without its exact zeros) and applied
  operators, with and without a phase, of the ``base_system``,
  ``normalize_potential``, ``build_rpf`` and pressure recipes, each
  rebuilt with its eigendata on the closure path; ``entropy``'s
  reference pressure stays on that path too.  After one warm-up
  operator, new (a, b) operators evaluate neither the roof nor the
  potential.
* Batched cancellation against copies of the per-pair and per-atom
  loops it replaced: ``dichotomy_test`` on random spans of both families
  (a whole interval each time, so windows of 8 and more points, which
  the per-pair loop summed pairwise) with loads on both sides of 3/4 and
  1/C9_DEFAULT and phase noise on both sides of the alignment threshold,
  the load columns bit for bit and the window means (omega, spread,
  weight) within a stated tolerance, a kind flipping only where the
  spread sits within it of the threshold, and on phases that alternate
  across the nodes, whose circular means sit on either side of the
  no-direction modulus 1e-12; bit for bit,
  ``_place_bumps`` against one ``_place_bump`` call per bump, with
  repeated atoms and small chunks; and ``build_cancellation`` against the
  whole old loop (p_values, core_mask, records, retries, kappa5) on both
  families, with small and paired bumps, overlapping windows, a kappa5
  shrink and small chunks.
* Walks done once, bit for bit against copies of the paths they
  replaced: ``temporal_distance`` (one two-row walk) against check walks
  plus four walks, errors included, on both families with seam points
  and inapplicable words (the first of two is named); one
  ``majorant_step`` pushes P H, P^2 and H^2 once (3 n1 applications of
  M), with a refused step (the marked atoms stay), a failing square
  comparison and a failing domination; the ``all_words`` columns against
  the tuple builder for k <= 8 on doubling and every single forbidden
  ``markov3`` transition, and ``check_refining`` (blocks of atoms, any
  block size) against every (atom, word) pair of an interval at once,
  words from the tuple builder, witnesses included.

Models are drawn from both families with random roofs, potentials and
stable factors; the coefficient ranges keep the roof positive and mu
inside (0, 1) on the whole leaf, so every draw is a valid model.
"""

import cmath
import csv
import io
import itertools
import math
import os
import tempfile
from collections import namedtuple
from dataclasses import dataclass, replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.ndimage import minimum_filter1d
from scipy.optimize import brentq
from scipy.sparse import csr_array

from transferlab import cancellation as C
from transferlab import cli
from transferlab import markov as M
from transferlab import orbits as O
from transferlab import rpf as R
from transferlab import scales as S
from transferlab import thermo as T
from transferlab.gridfun import holder_seminorm
from transferlab.markov import CoefFn, ModelConfig, ModelError, build_model

PROPS = settings(max_examples=25, deadline=None)

_FORBIDDEN = ((), ("0>1",), ("2>0",), ("1>1",))
# every single forbidden transition; 1>2 and 2>2 put fixed points on
# (or an ulp below) the right end of an interval, which apply_word and
# forward read as a point of the next one
_ANY_FORBIDDEN = ((),) + tuple((f"{a}>{b}",) for a in "012" for b in "012")


@st.composite
def models(draw, forbidden_choices=_FORBIDDEN):
    family = draw(st.sampled_from(("doubling", "markov3")))
    coef = st.floats(-0.2, 0.2)
    roof = (draw(st.floats(2.0, 3.0)), draw(st.floats(-0.2, 0.2)),
            draw(st.floats(-0.4, 0.4)), draw(st.floats(-0.4, 0.4)))
    potential = (draw(coef), draw(coef), draw(coef), draw(coef))
    mu = (draw(st.floats(0.3, 0.7)), draw(st.floats(-0.03, 0.03)),
          draw(st.floats(-0.1, 0.1)), draw(st.floats(-0.1, 0.1)))
    forbidden = (draw(st.sampled_from(forbidden_choices))
                 if family == "markov3" else ())
    grid = draw(st.sampled_from((64, 128, 256)))
    return build_model(ModelConfig(family, roof, potential, mu, grid, 0.5,
                                   forbidden=forbidden))


def _points(draw_list, model):
    """Leaf coordinates from (interval, fraction) pairs."""
    return np.array([model.lefts[i % len(model.intervals)] + f
                     for i, f in draw_list])


point_lists = st.lists(st.tuples(st.integers(0, 2),
                                 st.floats(0.0, 1.0, exclude_max=True)),
                       min_size=1, max_size=12)


# ---------------------------------------------------------------------------
# stopping cocycle


def _reference_stop(model, x, eps):
    contr, expf, cur = 1.0, 1.0, float(x)
    for k in range(1, S.THETA_CAP + 1):
        contr *= float(model.mu(cur))
        expf *= float(model.slope_at(cur))
        if contr < eps:
            return k, expf
        cur = model.forward(cur)
    raise AssertionError("reference loop did not stop")


@PROPS
@given(model=models(), q=st.integers(2, 9), pts=point_lists)
def test_value_and_theta_match_one_point_loop(model, q, pts):
    eps = 2.0 ** -q * 1.37
    scale = S.matching_scale(model, eps)
    xs = _points(pts, model)
    vals = scale.value_at(xs)
    thetas, _ = S._stopping_cocycle(model, xs, eps)
    for x, v, t in zip(xs, vals, thetas):
        ref_t, ref_v = _reference_stop(model, x, eps)
        assert t == ref_t and v == ref_v
        assert scale.value_at(float(x)) == ref_v
        assert S._stopping_cocycle(model, float(x), eps)[0][0] == ref_t


@PROPS
@given(model=models(), q=st.integers(2, 9))
def test_matching_scale_grid_matches_one_point_loop(model, q):
    eps = 2.0 ** -q
    scale = S.matching_scale(model, eps)
    for r, g in enumerate(model.nodes()):
        for j in (0, 1, model.grid_size // 3, model.grid_size):
            ref_t, ref_v = _reference_stop(model, g[j], eps)
            assert scale.steps[r, j] == ref_t
            assert scale.values[r, j] == ref_v


# ---------------------------------------------------------------------------
# cylinder partition


def _reference_range(model, scale, r, left, right):
    n = model.grid_size
    own = float(model.lefts[r])
    j_lo = max(int(math.ceil((left - own) * n - 1e-9)), 0)
    j_hi = min(int(math.floor((right - own) * n + 1e-9)), n)
    pts = [left, 0.5 * (left + right), right - 1e-12]
    vals = [scale.value_at(p) for p in pts]
    if j_hi >= j_lo:
        row = scale.values[r, j_lo:j_hi + 1]
        k = int(np.argmin(row))
        pts.append(own + (j_lo + k) / n)
        vals.append(float(row[k]))
        vals.append(float(row.max()))
    rep = pts[int(np.argmin(vals[:len(pts)]))]
    return min(vals), max(vals), rep, j_lo, j_hi


_RefAtom = namedtuple("_RefAtom", "word domain iid left right contr depth "
                                  "rep lam_lo lam_hi j_lo j_hi")


def _reference_partition(model, scale):
    """Depth-first refinement, one atom and one probe at a time."""
    by_target = {}
    for b in _old_branches(model):
        by_target.setdefault(b.target, []).append(b)
    for lst in by_target.values():
        lst.sort(key=lambda b: b.offset)
    done = []
    stack = [("", iid, iid, 1.0, 0.0, 0) for iid in model.intervals]
    while stack:
        word, dom, iid, contr, off, depth = stack.pop()
        d_left = float(model.lefts[model.intervals.index(dom)])
        left = contr * d_left + off
        right = contr * (d_left + 1.0) + off
        lo, hi, rep, j_lo, j_hi = _reference_range(
            model, scale, model.intervals.index(iid), left, right)
        if (right - left) * lo <= 1.0:
            assert depth > 0, "a whole interval met the condition"
            done.append(_RefAtom(word, dom, iid, left, right, contr, depth,
                                 rep, lo, hi, j_lo, j_hi))
            continue
        for b in by_target[dom]:
            stack.append((word + b.sym, b.domain, iid, contr / b.slope,
                          contr * b.offset + off, depth + 1))
    return tuple(sorted(done, key=lambda a: a.left))


@PROPS
@given(model=models(_ANY_FORBIDDEN), q=st.integers(1, 5))
def test_levelwise_partition_matches_depth_first(model, q):
    scale = S.matching_scale(model, 2.0 ** -q)
    assume(scale.values.max() <= 300.0)  # keeps the reference loop short
    ref = _reference_partition(model, scale)
    part = C.build_partition(model, scale)
    atoms = part.atoms
    assert len(atoms) == len(ref)
    for col in ("left", "right", "lam_lo"):
        assert _bits(atoms[col]) == _bits([getattr(a, col) for a in ref]), col
    for col in ("depth", "j_lo", "j_hi"):
        assert atoms[col].tolist() == [getattr(a, col) for a in ref], col
    assert [model.intervals[k] for k in atoms.iid] == [a.iid for a in ref]
    # interval k owns the contiguous run atoms[starts[k]:starts[k + 1]]
    runs = np.repeat(np.arange(len(model.intervals)), np.diff(part.starts))
    assert part.starts[0] == 0 and np.array_equal(atoms.iid, runs)


# ---------------------------------------------------------------------------
# grid orbit sums


def _per_node_walk(model, samples, n):
    """Walk every grid node forward one point at a time."""
    out = np.zeros(samples.shape)
    for k, g in enumerate(model.nodes()):
        for j, x in enumerate(g):
            r, c, cur = k, j, float(x)
            for _ in range(n):
                out[k, j] += samples[r, c]
                cur = model.forward(cur)
                r = model.interval_index(cur)
                c = int(round((cur - model.lefts[r]) * model.grid_size))
    return out


@PROPS
@given(model=models(), n=st.integers(1, 4), seed=st.integers(0, 2 ** 16))
def test_grid_orbit_sum_matches_per_node_walk(model, n, seed):
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(len(model.intervals), model.grid_size + 1))
    table = C._grid_orbit_sum(model, f, n)
    assert np.array_equal(table, _per_node_walk(model, f, n))
    weights, roof_sums = C._dichotomy_tables(model, f, n)
    for r, g in enumerate(model.nodes()):
        assert np.array_equal(weights[r], C._orbit_weight(model, f, g, n, r))
        assert np.array_equal(roof_sums[r],
                              model.birkhoff_sum(model.roof, g, n))


def test_orbit_weight_window_across_seam():
    # markov3 with 0>1 forbidden: U_0 has two slices, [0, 1/2) -> U_0 and
    # [1/2, 1) -> U_2, so a window around 1/2 splits after one step.
    model = build_model(ModelConfig("markov3", grid_size=256,
                                    forbidden=("0>1",)))
    rng = np.random.default_rng(3)
    f = rng.normal(size=(3, model.grid_size + 1)) + np.arange(3)[:, None]
    z = np.linspace(0.40, 0.60, 41)
    assert len(set(model.interval_index(model.forward(z)))) == 2
    w = C._orbit_weight(model, f, z, 3, 0)
    alone = np.array([C._orbit_weight(model, f, z[i:i + 1], 3, 0)[0]
                      for i in range(z.size)])
    assert np.array_equal(w, alone)
    # reading every orbit point on the row of the first point, as a walk
    # that ignores the seam would, gives different weights past 1/2
    total, cur = np.zeros(z.size), z.copy()
    for _ in range(3):
        total += T._read_rows(model, f, model.interval_index(cur[0]), cur)
        cur = model.forward(cur)
    first_row = np.exp(total)
    past = z >= 0.5
    assert np.array_equal(first_row[~past], w[~past])
    assert np.all(first_row[past] != w[past])


# ---------------------------------------------------------------------------
# the shared linear interpolation

# |_read_rows - np.interp| per real component, in eps times the larger of
# the two neighbours M: both take the cell fraction exactly (an offset
# from an integer left end, times a power of two), the lerp
# lo (1 - f) + hi f lands within 1.5 eps M of the exact value and
# np.interp's lo + (hi - lo) n (x - x_j) within 2.5 eps M, so 4 eps M
# bounds the gap to first order and 5 leaves room for the rest
LERP_EPS = 5


def _np_interp_rows(model, values, rows, pts):
    """Grid rows read by np.interp a row at a time, real and imaginary
    parts apart: the reading the paired bumps made before _read_rows."""
    xs = np.arange(model.grid_size + 1) / model.grid_size
    rows = np.broadcast_to(rows, pts.shape)
    out = np.empty(pts.shape, values.dtype)
    for r in np.unique(rows):
        sel = rows == r
        loc, row = pts[sel] - model.lefts[r], values[r]
        out[sel] = (np.interp(loc, xs, row.real)
                    + 1j * np.interp(loc, xs, row.imag)
                    if np.iscomplexobj(row) else np.interp(loc, xs, row))
    return out


@PROPS
@given(model=models(_ANY_FORBIDDEN), data=point_lists,
       seed=st.integers(0, 2 ** 16))
def test_read_rows_matches_np_interp(model, data, seed):
    rng = np.random.default_rng(seed)
    n, m = model.grid_size, len(model.intervals)
    shape = (m, n + 1)
    real = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, shape)
    cplx = real + 1j * rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3,
                                                                   shape)
    nodes = model.nodes().ravel()
    pts = np.concatenate([_points(data, model), rng.uniform(0.0, m, 64),
                          np.nextafter(model.lefts + 1.0, 0.0),
                          np.nextafter(model.lefts, m)])
    rows = model.interval_index(pts)
    eps = np.finfo(float).eps
    for values in (real, cplx):
        # a node on its own row is its value, exactly
        node_rows = np.repeat(np.arange(m), n + 1)
        for read in (T._read_rows, _np_interp_rows):
            assert np.array_equal(read(model, values, node_rows, nodes),
                                  values.ravel())
        # a read clamps to its row's ends outside the interval, and a
        # seam (or the last right end) is the right end of the row on
        # its left and the left end of the row on its right
        for r, left in enumerate(model.lefts.tolist()):
            ends = np.array([left - 0.3, left, left + 1.0, left + 1.7])
            want = values[r, [0, 0, -1, -1]]
            assert np.array_equal(T._read_rows(model, values, r, ends), want)
            assert np.array_equal(_np_interp_rows(model, values, r, ends),
                                  want)
        # inside a cell, within LERP_EPS eps of the larger neighbour
        got = T._read_rows(model, values, rows, pts)
        ref = _np_interp_rows(model, values, rows, pts)
        j = np.minimum(((pts - model.lefts[rows]) * n).astype(int), n - 1)
        lo, hi = values[rows, j], values[rows, j + 1]
        for part in (np.real, np.imag):
            bound = LERP_EPS * eps * np.maximum(abs(part(lo)), abs(part(hi)))
            assert (abs(part(got) - part(ref)) <= bound).all()


# ---------------------------------------------------------------------------
# atom lookup


def _linear_locate(part, x):
    """The last atom of the interval of x whose left end is at most x, or
    the interval's first atom, by a scan of the interval's left ends."""
    k = int(part.model.interval_index(x))
    start = int(part.starts[k])
    below = np.flatnonzero(part.atoms.left[start:part.starts[k + 1]] <= x)
    return start + (int(below[-1]) if below.size else 0)


@PROPS
@given(model=models(), q=st.integers(2, 6), pts=point_lists,
       take=st.lists(st.integers(0, 10 ** 6), max_size=6))
def test_locate_matches_linear_scan(model, q, pts, take):
    try:
        part = C.build_partition(model, S.matching_scale(model, 2.0 ** -q))
    except C.EngineError:
        return
    xs = list(_points(pts, model))
    xs += [part.atoms.left[t % len(part.atoms)] for t in take]
    xs.append(float(len(model.intervals)))        # right end of the leaf
    found = part.locate(np.array(xs))
    for x, k in zip(xs, found):
        assert k == _linear_locate(part, x) == part.locate(float(x))
    with pytest.raises(ModelError):
        part.locate(-0.5)


def _old_all_words(model, domain, k):
    """all_words as a tuple list per domain: (word, contraction, offset,
    target id) of each length-k word on U_domain, grown one symbol at a
    time from the branches of each domain in offset order."""
    by_domain = {iid: [] for iid in model.intervals}
    for i, d in np.argwhere(~np.isnan(model.branch_slope)).tolist():
        by_domain[model.intervals[d]].append(
            (model.alphabet[i], model.intervals[model.symbol_target[i]],
             float(model.branch_slope[i, d]),
             float(model.branch_offset[i, d])))
    by_domain = {iid: sorted(rows, key=lambda r: r[3])
                 for iid, rows in by_domain.items()}
    items = [("", 1.0, 0.0, domain)]
    for _ in range(k):
        items = [(sym + word, contr / slope, off / slope + offset, tgt)
                 for word, contr, off, dom in items
                 for sym, tgt, slope, offset in by_domain[dom]]
    return items


def _per_atom_refining(model, part, n):
    """check_refining without blocks: each interval's words listed once,
    all its (atom, word) pairs mapped at once, and the witness the first
    failing pair taken atom by atom, and word by word within an atom."""
    lefts, rights = part.atoms.left, part.atoms.right
    for k, iid in enumerate(model.intervals):
        items = _old_all_words(model, iid, n)
        contr = np.array([w[1] for w in items])
        off = np.array([w[2] for w in items])
        atoms = slice(part.starts[k], part.starts[k + 1])
        lo = contr * lefts[atoms, None] + off          # (atoms, words)
        hi = contr * rights[atoms, None] + off
        holder = part.locate(0.5 * (lo + hi))
        bad = (lo < lefts[holder] - 1e-9) | (hi > rights[holder] + 1e-9)
        first = np.flatnonzero(bad)
        if first.size:
            k, j = divmod(int(first[0]), len(items))
            return False, (atoms.start + k, items[j][0])
    return True, None


@PROPS
@given(model=models(_ANY_FORBIDDEN), q=st.integers(2, 5),
       n=st.integers(1, 2), block=st.sampled_from((C.REFINE_BLOCK, 5)))
def test_check_refining_witness_matches_per_atom_loop(model, q, n, block):
    try:
        part = C.build_partition(model, S.matching_scale(model, 2.0 ** -q))
    except C.EngineError:
        return
    with mock.patch.object(C, "REFINE_BLOCK", block):
        assert C.check_refining(model, part, n) == _per_atom_refining(
            model, part, n)


# ---------------------------------------------------------------------------
# paired-bump windows and torus distances


def _reference_pair_window(delta_phase, kappa6):
    """The scan over window sizes, one running minimum per size."""
    n = delta_phase.size
    dist = np.abs((delta_phase + math.pi) % (2 * math.pi) - math.pi)
    for size in range(n, 0, -1):
        if size / n <= kappa6:
            break
        filt = minimum_filter1d(dist, size=size, mode="nearest")
        lo = size // 2
        hi = n - (size - 1 - size // 2)
        if hi <= lo:
            continue
        seg = filt[lo:hi]
        k = int(np.argmax(seg))
        if seg[k] > 0.5 * kappa6:
            start = lo + k - size // 2
            return start / n, (start + size) / n
    return None


@settings(max_examples=300, deadline=None)
@given(phases=st.lists(st.sampled_from((0.0, 0.01, 0.03, 0.5, 1.0, 2.5,
                                         -0.02, -3.0, 3.2, 6.3)) |
                       st.floats(-10.0, 10.0), min_size=1, max_size=60),
       kappa6=st.sampled_from((0.01, 0.05, 0.099, 0.2, 0.5)))
def test_pair_window_matches_window_scan(phases, kappa6):
    delta = np.array(phases)
    got = C._pair_window(delta, kappa6)
    assert got == _reference_pair_window(delta, kappa6)
    if got is not None:
        assert all(type(e) is float for e in got)


@given(a=st.floats(-50.0, 50.0), b=st.floats(-50.0, 50.0),
       xs=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=20))
def test_torus_dist_matches_hand_copies(a, b, xs):
    # a phase gap as Python's % gives it, and the array sites of the
    # circular statistics and _pair_window, as written by hand
    gap = abs((a - b + math.pi) % (2 * math.pi) - math.pi)
    assert _bits(S._torus_dist(np.array([a]) - np.array([b]))) == _bits([gap])
    assert _bits(S._torus_dist(np.array([a - b]))) == _bits([gap])
    x = np.array(xs)
    assert _bits(S._torus_dist(x - a)) == _bits(
        np.abs((x - a + math.pi) % (2 * math.pi) - math.pi))
    assert _bits(S._torus_dist(x)) == _bits(
        np.abs((x + math.pi) % (2 * math.pi) - math.pi))


_TORUS_EDGES = ([0.0, -0.0, math.pi, -math.pi, 2 * math.pi, -2 * math.pi,
                 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300,
                 math.inf, -math.inf, math.nan]
                + [j * math.pi for j in range(-9, 10)]
                + [j * 2 * math.pi for j in (-1e6, 1e6, 2 ** 40)]
                + [np.nextafter(v, d) for v in (math.pi, 2 * math.pi)
                   for d in (0.0, 10.0)])


def test_torus_dist_edge_values():
    # the remainder-free form against numpy's % on signed zeros,
    # multiples of pi, subnormals, huge values, infinities and NaN: bits
    # and types, 1-element and (64, 256) inputs
    def ref(a):
        return np.abs((a + math.pi) % (2 * math.pi) - math.pi)

    rng = np.random.default_rng(0)
    table = rng.choice(np.array(_TORUS_EDGES), size=(64, 256))
    table[0, :len(_TORUS_EDGES)] = _TORUS_EDGES
    with np.errstate(invalid="ignore"):
        for a in [np.array([v]) for v in _TORUS_EDGES] + [table]:
            got, want = S._torus_dist(a), ref(a)
            assert type(got) is type(want)
            assert _bits(got) == _bits(want), a


# ---------------------------------------------------------------------------
# oscillation margins


def _reference_best_margin(dist, n_windows):
    n_om, n_s = dist.shape
    best = np.zeros(n_om)
    info = [(0.0, 0, 0, 0.0)] * n_om
    for j in range(1, n_windows + 1):
        frac = j / n_windows
        size = max(1, int(round(frac * n_s)))
        for i in range(n_om):
            mins = [dist[i, p:p + size].min() for p in range(n_s - size + 1)]
            p = int(np.argmax(mins))
            if min(frac, mins[p]) > best[i]:
                best[i] = min(frac, mins[p])
                info[i] = (frac, p, p + size, float(mins[p]))
    i = int(np.argmin(best))
    frac, lo, hi, d = info[i]
    return float(best[i]), {"omega_idx": i, "frac": frac, "lo": lo,
                            "hi": hi, "dist": d}


def _phase_table(psi, n_phases):
    """Torus distances of one profile from every phase 2 pi k / n_phases,
    the full (phases, points) table."""
    omegas = S.TWO_PI * np.arange(n_phases) / n_phases
    with np.errstate(invalid="ignore"):       # fmod of +-inf gives NaN
        return S._torus_dist(psi[None, :] - omegas[:, None])


def _margin_of(got, p):
    """Profile p of a _margins result as (margin, witness dict)."""
    margin, phase, frac, lo, hi, dist = (a[p].item() for a in got)
    return margin, {"omega_idx": phase, "frac": frac, "lo": lo, "hi": hi,
                    "dist": dist}


@PROPS
@given(n_p=st.integers(1, 4), n_s=st.integers(1, 40),
       n_phases=st.integers(1, 8), n_windows=st.integers(1, 12),
       seed=st.integers(0, 2 ** 16), coarse=st.booleans())
def test_best_margin_matches_window_by_window(n_p, n_s, n_phases, n_windows,
                                              seed, coarse):
    # profiles in, each against window minima taken one window at a time
    # over its full phase table; coarse profiles sit on the phases, so
    # windows and phases tie
    rng = np.random.default_rng(seed)
    if coarse:
        psi = S.TWO_PI * rng.integers(-2 * n_phases, 2 * n_phases,
                                      (n_p, n_s)) / n_phases
    else:
        psi = rng.uniform(-10.0, 10.0, (n_p, n_s))
    got = S._margins(psi, n_phases, n_windows)
    for p in range(n_p):
        ref = _reference_best_margin(_phase_table(psi[p], n_phases), n_windows)
        assert _margin_of(got, p) == ref
        assert _bits(got[0][p]) == _bits(ref[0])


# ---------------------------------------------------------------------------
# periodic orbits


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64).tolist()


def _admissible_words(model, n):
    """Every word of length n that word_admissible accepts, in order."""
    words = map("".join, itertools.product(model.alphabet, repeat=n))
    return [w for w in words if model.word_admissible(w)]


def _cyclic_words(model, n):
    return [w for w in _admissible_words(model, n)
            if model.word_admissible(w + w[0])]


def _reference_fixed_point(model, word):
    target = model.symbol_target[model.alphabet.index(word[0])]
    y = model.lefts[target] + 0.5
    for _ in range(O.FIXED_POINT_ITERATIONS):
        y = model.apply_word(word, y)
    return y


# absolute; the worst gap to the exact fixed point over every cyclic word
# n <= 6 of the closed-form models below was 4.8e-16 (one ulp at 2.0 is
# 4.4e-16), and the apply_word loop's, off seams, 3.3e-16
FIXED_POINT_TOL = 1e-15


def _exact_fixed_point(model, word):
    """off / (1 - contr) of the word's composite inverse branch in exact
    rationals, composed right to left from the wrap domain, the target
    of its first symbol."""
    syms = [model.alphabet.index(c) for c in word]
    dom = model.symbol_target[syms[0]]
    contr, off = Fraction(1), Fraction(0)
    for a in reversed(syms):
        s = Fraction(model.branch_slope[a, dom])
        contr /= s
        off = off / s + Fraction(model.branch_offset[a, dom])
        dom = model.symbol_target[a]
    return off / (1 - contr)


def _fixed_point_gap(model, word, x):
    return abs(Fraction(float(x)) - _exact_fixed_point(model, word))


@pytest.mark.parametrize("family, forbidden",
                         [("doubling", ())] + [("markov3", f)
                                               for f in _ANY_FORBIDDEN],
                         ids=lambda f: (f[0] if f else "none")
                         if isinstance(f, tuple) else f)
def test_fixed_points_match_closed_form(family, forbidden):
    model = build_model(ModelConfig(family, forbidden=forbidden))
    for n in range(1, 7):
        words = _cyclic_words(model, n)
        for w, x in zip(words, O.cyclic_fixed_points(model, words)):
            assert _fixed_point_gap(model, w, x) <= FIXED_POINT_TOL


@PROPS
@given(model=models(_ANY_FORBIDDEN), n=st.integers(1, 5), data=st.data())
def test_fixed_point_kernel_matches_apply_word_loop(model, n, data):
    # the closed form against the exact fixed point, and the apply_word
    # loop within the same tolerance wherever it does not stop: it
    # re-reads each point's interval, so it stops only on a fixed point
    # at an interval's right end
    words = data.draw(st.lists(st.sampled_from(_cyclic_words(model, n)),
                               min_size=1, max_size=8))
    got = O.cyclic_fixed_points(model, words)
    for w, x in zip(words, got):
        assert _bits(O.orbit_fixed_point(model, w)) == _bits(x)
        assert _fixed_point_gap(model, w, x) <= FIXED_POINT_TOL
        try:
            ref = _reference_fixed_point(model, w)
        except ModelError:
            wrap = model.symbol_target[model.alphabet.index(w[0])]
            assert abs(model.lefts[wrap] + 1.0 - x) <= FIXED_POINT_TOL
        else:
            assert abs(ref - x) <= FIXED_POINT_TOL


def test_fixed_point_kernel_on_slice_seams():
    # 1>2 forbidden: the word 1's fixed point is exactly 2.0, the right
    # end of U_1, which the apply_word loop reads as a point of U_2,
    # where branch 1 has no instance; the closed form never reads it back
    seam = build_model(ModelConfig("markov3", forbidden=("1>2",)))
    with pytest.raises(ModelError, match="no branch '1' with domain '2'"):
        _reference_fixed_point(seam, "1")
    assert O.orbit_fixed_point(seam, "1") == 2.0
    assert O.cyclic_fixed_points(seam, ["0", "1"])[1] == 2.0
    with pytest.raises(ModelError, match="no branch '1' with domain '2'"):
        O.cyclic_fixed_points(seam, ["00", "12", "01"])
    # 2>2 forbidden: the word 12 lands an ulp inside U_1, and 21 on the
    # right end of the leaf
    end = build_model(ModelConfig("markov3", forbidden=("2>2",)))
    assert end.interval_index(O.orbit_fixed_point(end, "12")) == 1
    assert O.orbit_fixed_point(end, "21") == 3.0
    with pytest.raises(ModelError, match="one length"):
        O.cyclic_fixed_points(end, ["21", "112"])
    with pytest.raises(ModelError, match="nonempty"):
        O.cyclic_fixed_points(end, [""])


@PROPS
@given(model=models(_ANY_FORBIDDEN), n=st.integers(1, 5), data=st.data())
def test_joined_word_lists_settle_as_each_list(model, n, data):
    # the invariants check settles every rotation of the length-n words in
    # one call; no admissible rotation raises, and each point keeps the
    # bits of its own list's call
    words = _cyclic_words(model, n)
    assume(words)
    lists = [[w[r:] + w[:r] for w in words] for r in range(n)]
    each = [O.cyclic_fixed_points(model, ws) for ws in lists]
    joined = [w for ws in lists for w in ws]
    assert (_bits(O.cyclic_fixed_points(model, joined))
            == _bits(np.concatenate(each)))
    # a word that is not cyclically admissible, joined in anywhere, raises
    # the error it raises alone
    bad = [w for w in map("".join, itertools.product(model.alphabet,
                                                      repeat=n))
           if not model.word_admissible(w + w[0])]
    if bad:
        word = data.draw(st.sampled_from(bad))
        with pytest.raises(ModelError) as own:
            O.cyclic_fixed_points(model, [word])
        at = data.draw(st.integers(0, len(joined)))
        with pytest.raises(ModelError) as got:
            O.cyclic_fixed_points(model, joined[:at] + [word] + joined[at:])
        assert str(got.value) == str(own.value)


def _composite(model, rows):
    """(contr, off) of each cyclic row's composite inverse branch, walked
    from the wrap domain, and that domain's left end."""
    wrap = model.symbol_target[rows[:, 0]]
    contr, off = np.ones(len(rows)), np.zeros(len(rows))
    for s, b_off in M._word_steps(model, rows, wrap):
        contr, off = contr / s, off / s + b_off
    return contr, off, model.lefts[wrap]


@PROPS
@given(model=models(_ANY_FORBIDDEN), n=st.integers(1, 6))
def test_settled_affine_iteration_matches_full_loop(model, n):
    rows = M._encode_words(model, _cyclic_words(model, n))
    contr, off, lefts = _composite(model, rows)
    ref = lefts + 0.5
    for _ in range(O.FIXED_POINT_ITERATIONS):
        ref = contr * ref + off
    got = O._cyclic_points(model, rows)
    assert _bits(got) == _bits(ref)


@PROPS
@given(maps=st.lists(st.tuples(st.floats(0.01, 0.99), st.floats(-4.0, 4.0),
                               st.floats(-10.0, 10.0)), max_size=20))
def test_settled_iteration_matches_full_loop_on_any_contraction(maps):
    # (0.5, 0, 0.5) halves towards zero and is still moving after the
    # last round
    contr, off, y0 = (np.array(c) for c in zip((0.5, 0.0, 0.5), *maps))
    ref = y0.copy()
    for _ in range(O.FIXED_POINT_ITERATIONS):
        ref = contr * ref + off
    got = O._settle(y0, contr, off)
    assert _bits(got) == _bits(ref)
    assert got[0] == 0.5 ** (O.FIXED_POINT_ITERATIONS + 1)


def _reference_decode(code, n, alphabet):
    digits = []
    for _ in range(n):
        code, d = divmod(code, len(alphabet))
        digits.append(alphabet[d])
    return "".join(reversed(digits))


@PROPS
@given(alphabet=st.sampled_from((("0", "1"), ("0", "1", "2"))),
       n=st.integers(1, 13), data=st.data())
def test_array_decode_matches_divmod(alphabet, n, data):
    codes = data.draw(st.lists(st.integers(0, len(alphabet) ** n - 1),
                               max_size=30))
    # digit rows of the codes, most significant first
    rows = np.array([[int(d) for d in np.base_repr(c, len(alphabet)).zfill(n)]
                     for c in codes], dtype=np.uint8).reshape(-1, n)
    got = M._decode_words(rows, alphabet)
    ref = [_reference_decode(c, n, alphabet) for c in codes]
    assert got.dtype == np.dtype(f"U{n}")
    assert np.array_equal(got, ref)
    # encoding inverts decoding; a character outside the alphabet encodes
    # to NO_SYMBOL
    model = build_model(ModelConfig("doubling" if len(alphabet) == 2
                                    else "markov3"))
    assert M._encode_words(model, ref).tolist() == rows.tolist()
    assert (M._encode_words(model, ["9" + alphabet[-1]]).tolist()
            == [[M.NO_SYMBOL, len(alphabet) - 1]])


def _reference_words(trans, n):
    """Admissible words of length n, built up from length 1."""
    rows = np.arange(trans.shape[0], dtype=np.int64)[:, None]
    for _ in range(n - 1):
        parts = []
        for j in range(trans.shape[0]):
            ok = trans[rows[:, -1], j]
            if ok.any():
                block = rows[ok]
                col = np.full((block.shape[0], 1), j, dtype=np.int64)
                parts.append(np.hstack([block, col]))
        rows = np.vstack(parts)
    return rows


def _reference_cylinders(model, k):
    """(word, inner domain, interval, contraction, offset) of the depth-k
    cylinders of each interval, expanded depth first as in
    _reference_partition, with no stopping rule."""
    by_target = {}
    for b in _old_branches(model):
        by_target.setdefault(b.target, []).append(b)
    for lst in by_target.values():
        lst.sort(key=lambda b: b.offset)
    out = []

    def expand(word, dom, iid, contr, off):
        if len(word) == k:
            out.append((word, dom, iid, contr, off))
            return
        for b in by_target[dom]:
            expand(word + b.sym, b.domain, iid, contr / b.slope,
                   contr * b.offset + off)

    for iid in model.intervals:
        expand("", iid, iid, 1.0, 0.0)
    return out


@PROPS
@given(model=models(_ANY_FORBIDDEN), n_max=st.integers(1, 7))
def test_grown_words_match_rebuild(model, n_max):
    """The shared grower, every word grown at each level, against the
    frozen builders, with the word rows built here from each child's
    symbol and parent: on the domain side from the one-symbol words
    against the rebuild from length 1, rows in its order;
    from the intervals (the word table) against _old_all_words, and on
    the target side (partition cylinders) against the depth-first
    expansion, each with near and far intervals and the composed columns,
    inner branch first and outer branch first."""

    def grow(side, rows, near):
        sym, near, p, slope, b_off = M._grow_words(model, side, near)
        assert sym.dtype == np.uint8
        new, old = sym[:, None], rows[p]
        rows = np.concatenate((new, old) if side == "domain" else (old, new),
                              axis=1)
        return rows, near, p, slope, b_off

    trans = np.array(O.transfer_matrix(model), dtype=bool)
    ids = model.intervals
    m = len(ids)
    cyc = np.arange(trans.shape[0], dtype=np.uint8)[:, None]
    dom_rows = tgt_rows = np.empty((m, 0), np.uint8)
    dom_near, dom_far = np.arange(m), np.arange(m)
    tgt_near, tgt_far = np.arange(m), np.arange(m)
    dom_cols = tgt_cols = (np.ones(m), np.zeros(m))
    for n in range(1, n_max + 1):
        if n > 1:
            cyc = grow("domain", cyc, model.symbol_target[cyc[:, 0]])[0]
        assert np.array_equal(cyc, _reference_words(trans, n))

        dom_rows, dom_near, p, slope, b_off = grow("domain", dom_rows,
                                                   dom_near)
        (c, o), dom_far = dom_cols, dom_far[p]
        dom_cols = (c[p] / slope, o[p] / slope + b_off)
        ref = [(i, r) for i in ids for r in _old_all_words(model, i, n)]
        assert (M._decode_words(dom_rows, model.alphabet).tolist()
                == [r[0] for _, r in ref])
        assert [ids[k] for k in dom_near] == [r[3] for _, r in ref]
        assert [ids[k] for k in dom_far] == [i for i, _ in ref]
        assert _bits(np.stack(dom_cols, axis=1)) == _bits(
            [r[1:3] for _, r in ref])

        tgt_rows, tgt_near, p, slope, b_off = grow("target", tgt_rows,
                                                   tgt_near)
        (c, o), tgt_far = tgt_cols, tgt_far[p]
        tgt_cols = (c[p] / slope, c[p] * b_off + o[p])
        ref = _reference_cylinders(model, n)
        assert (M._decode_words(tgt_rows, model.alphabet).tolist()
                == [r[0] for r in ref])
        assert [ids[k] for k in tgt_near] == [r[1] for r in ref]
        assert [ids[k] for k in tgt_far] == [r[2] for r in ref]
        assert _bits(np.stack(tgt_cols, axis=1)) == _bits(
            [r[3:] for r in ref])


def _reference_orbit_words(model, n_max):
    """Least rotation of every primitive, cyclically admissible word, by
    length and then by code, from all words of each length."""
    out = []
    for n in range(1, n_max + 1):
        least = set()
        for letters in itertools.product(model.alphabet, repeat=n):
            w = "".join(letters)
            rots = {w[i:] + w[:i] for i in range(n)}
            if len(rots) == n and model.word_admissible(w + w[0]):
                least.add(min(rots))
        out += sorted(least, key=lambda w: [model.alphabet.index(c)
                                            for c in w])
    return out


@pytest.mark.parametrize("forbidden", _ANY_FORBIDDEN,
                         ids=lambda f: f[0] if f else "none")
@settings(max_examples=15, deadline=None)
@given(n_max=st.integers(1, 6), data=st.data())
def test_orbit_table_matches_brute_force(forbidden, n_max, data):
    model = data.draw(models((forbidden,)))
    table = O.enumerate_periodic_orbits(model, n_max)
    assert isinstance(table, np.recarray)
    assert table.dtype == np.dtype([("word", f"U{n_max}"), ("n", np.int64),
                                    ("period", np.float64)])
    assert table.word.tolist() == _reference_orbit_words(model, n_max)
    neck = O.necklace_counts(model, n_max)
    assert tuple(np.bincount(table.n, minlength=n_max + 1)[1:]) == neck
    assert len(table) == sum(neck)
    for row in table.tolist():
        assert tuple(map(type, row)) == (str, int, float)


def _reference_orbit_table(model, n_max):
    """(words, lengths, periods) from every cyclic word of each length:
    each row's fixed point settled on its own (_cyclic_points)
    and the roof summed per class with np.bincount over the rows, last
    symbol most significant, as the census summed its periods before it
    walked each orbit from one fixed point."""
    k = len(model.alphabet)
    trans = model.transitions > 0
    words, lengths, periods = [], [], []
    for n in range(1, n_max + 1):
        rows = np.array(list(itertools.product(range(k), repeat=n)),
                        np.uint8)[:, ::-1]
        rows = rows[trans[rows, np.roll(rows, -1, axis=1)].all(axis=1)]
        if not rows.size:
            continue
        tau = model.roof(O._cyclic_points(model, rows))
        rots = [[tuple(r[i:]) + tuple(r[:i]) for i in range(n)]
                for r in rows.tolist()]
        least = sorted({min(rot) for rot in rots if len(set(rot)) == n})
        index = {w: i for i, w in enumerate(least)}
        rows_in = [(index[min(rot)], t) for rot, t in zip(rots, tau)
                   if min(rot) in index]
        periods += np.bincount([i for i, _ in rows_in],
                               weights=[t for _, t in rows_in],
                               minlength=len(least)).tolist()
        words += ["".join(model.alphabet[a] for a in w) for w in least]
        lengths += [n] * len(least)
    return words, lengths, periods


@PROPS
@given(model=models(_ANY_FORBIDDEN), n_max=st.integers(1, 8))
def test_orbit_walk_matches_per_rotation_fixed_points(model, n_max):
    """Lyndon words with one settled fixed point each, the rest of the
    orbit walked, against every rotation settled on its own: words and
    lengths bit for bit, periods within 16 ulps, since the walk reaches
    the other orbit points by other roundings and sums them in walk
    order (5 ulps was the worst over 60 random models)."""
    table = O.enumerate_periodic_orbits(model, n_max)
    words, lengths, periods = _reference_orbit_table(model, n_max)
    assert table.word.tolist() == words
    assert table.n.tolist() == lengths
    assert np.all(np.abs(table.period - periods)
                  <= 16 * np.spacing(np.array(periods)))


@settings(max_examples=10, deadline=None)
@given(model=models(_ANY_FORBIDDEN), n_max=st.integers(1, 7))
def test_report_orbits_equal_enumeration(model, n_max):
    report = O.prime_orbit_report(model, n_max, [2 * n_max * model.tau_star])
    assert np.array_equal(report.orbits,
                          O.enumerate_periodic_orbits(model, n_max))
    assert report.pi[0] == len(report.orbits)


# ---------------------------------------------------------------------------
# operators and smoothing


@dataclass(frozen=True)
class _OldStencil:
    """One inverse branch's interpolation data, as the package kept it
    before the stencil table."""

    domain_idx: int   # interval row of the operator output (arguments z)
    target_idx: int   # interval row holding the preimages v(z)
    y: np.ndarray     # preimage coordinates, length N+1
    j: np.ndarray     # lower sample index of y in the target row
    frac: np.ndarray  # interpolation fraction in [0, 1)
    roof: np.ndarray  # the roof at y
    potential: np.ndarray  # the model potential at y


def _old_build_stencils(model):
    """One stencil per inverse branch, in (symbol, domain) order, with the
    roof and the potential sampled at its preimages."""
    n = model.grid_size
    nodes = model.nodes()
    out = []
    for i, k in np.argwhere(~np.isnan(model.branch_slope)).tolist():
        t = int(model.symbol_target[i])
        y = nodes[k] / model.branch_slope[i, k] + model.branch_offset[i, k]
        local = np.clip((y - model.lefts[t]) * n, 0.0, float(n))
        j = np.minimum(local.astype(int), n - 1)
        frac = local - j
        out.append(_OldStencil(k, t, y, j, frac, model.roof(y),
                               model.potential(y)))
    return tuple(out)


def _old_gather(values, st):
    """Linear interpolation of stacked grid values at the stencil preimages."""
    row = values[st.target_idx]
    return row[st.j] * (1.0 - st.frac) + row[st.j + 1] * st.frac


def _old_coef_at_stencil(recipe, st):
    """WeightRecipe.coef_at_stencil as it was: the weight at one stencil,
    without the out factor."""
    acc = np.full(st.y.shape, recipe.const)
    if recipe.potential:
        acc = acc + st.potential
    if recipe.tilt:
        acc = acc + recipe.tilt * st.roof
    for g in recipe.grids:
        acc = acc + _old_gather(np.asarray(g), st)
    coef = np.exp(acc)
    for rho in recipe.rhos:
        coef = coef * _old_gather(rho, st)
    return coef


def _old_out_factor(recipe, shape):
    """WeightRecipe.out_factor as it was: prod(1 / rho) on the grid."""
    if not recipe.rhos:
        return None
    fac = np.ones(shape)
    for rho in recipe.rhos:
        fac = fac * (1.0 / rho)
    return fac


def _old_operator_pattern(model):
    """(stencils, indptr, indices, slots) as the package built them:
    output sample i of interval k is one matrix row holding the two
    interpolation cells (lower, upper) of each branch with domain k, in
    stencil order, and ``slots[s]`` = (start, d, slot) places stencil s
    in column ``slot`` of the (N+1, d, 2) block at ``start``."""
    stencils = _old_build_stencils(model)
    n1 = model.grid_size + 1
    members = [[s for s, st in enumerate(stencils) if st.domain_idx == k]
               for k in range(len(model.intervals))]
    row_len = np.repeat([2 * len(m) for m in members], n1)
    indptr = np.concatenate(([0], np.cumsum(row_len))).astype(np.int32)
    indices = np.empty(int(indptr[-1]), dtype=np.int32)
    slots = [None] * len(stencils)
    start = 0
    for mem in members:
        d = len(mem)
        cell = indices[start:start + 2 * d * n1].reshape(n1, d, 2)
        for slot, s in enumerate(mem):
            st = stencils[s]
            cell[:, slot, 0] = st.target_idx * n1 + st.j
            cell[:, slot, 1] = cell[:, slot, 0] + 1
            slots[s] = (start, d, slot)
        start += 2 * d * n1
    return stencils, indptr, indices, tuple(slots)


def _live_pattern(indptr, indices, frac):
    """The old index pattern without its zero-weight slots: the slot pair
    (2e, 2e + 1) of entry e weighs 1 - frac[e] and frac[e]."""
    live = np.stack((1.0 - frac, frac), axis=1).ravel() != 0.0
    return np.concatenate(([0], np.cumsum(live)))[indptr], indices[live]



def test_kept_slots_are_the_nonzero_weights():
    """A slot goes only when its weight, 1 - frac or frac, is exactly 0;
    the built-in families' fractions are 0, 1, or at least 1/3, so this
    pins the rule between them too."""
    frac = np.array([0.0, 5e-324, 1e-3, 0.5, 1.0 - 2 ** -53, 1.0])
    kept = T._kept(frac)
    assert np.array_equal(kept, np.stack((1.0 - frac, frac), axis=1) != 0.0)
    assert kept.sum(axis=1).tolist() == [1, 2, 2, 2, 2, 1]

@PROPS
@given(model=models(_ANY_FORBIDDEN))
def test_stencil_table_matches_branch_stencils(model):
    """The stencil table holds the per-branch stencils' columns, bit for
    bit, at the entries their slots named, and their index pattern without
    the slots whose interpolation weight is exactly 0."""
    table = T._stencil_table(model)
    stencils, indptr, indices, slots = _old_operator_pattern(model)
    n1 = model.grid_size + 1
    assert (table.indptr.dtype == table.indices.dtype == table.cell.dtype
            == table.starts.dtype == np.int32)
    assert np.array_equal(table.starts, indptr // 2)
    assert table.y.size == len(stencils) * n1 == indices.size // 2
    frac = np.full(table.y.size, np.nan)
    for stc, (start, d, slot) in zip(stencils, slots):
        at = start // 2 + np.arange(n1) * d + slot
        assert np.array_equal(table.cell[at], stc.target_idx * n1 + stc.j)
        for name in ("y", "frac", "roof", "potential"):
            assert _bits(getattr(table, name)[at]) == _bits(
                getattr(stc, name)), name
        values = np.random.default_rng(start).uniform(size=(len(
            model.intervals), n1))
        assert (_bits(T.gather(values, table)[at])
                == _bits(_old_gather(values, stc)))
        frac[at] = stc.frac
    live_indptr, live_indices = _live_pattern(indptr, indices, frac)
    assert np.array_equal(table.indptr, live_indptr)
    assert np.array_equal(table.indices, live_indices)
    assert np.array_equal(table.width, 2 - (frac == 0.0) - (frac == 1.0))


@pytest.mark.parametrize("family, forbidden", [
    ("doubling", ()), ("markov3", ()), ("markov3", ("1>2",))])
def test_operator_blocks_keep_the_bits(family, forbidden):
    """make_operator fills the matrix a range of samples at a time; any
    range length, one sample included, writes the same bits."""
    model = build_model(ModelConfig(family, (2.0, 0.1, 0.2, 0.1),
                                    (0.1, 0.0, 0.2, 0.1), grid_size=64,
                                    forbidden=forbidden))
    recipe = T.normalize_potential(model, 0.02).recipe.plus(tilt=0.01)
    table = T._stencil_table(model)
    for phase in (0.0, 37.0):
        ref = T.make_operator(model, recipe, phase).matrix
        for rows in (1, 7, 65, 10 ** 6):
            table.memo.clear()      # the weights are filled again too
            with mock.patch.object(T, "_BLOCK_ROWS", rows):
                got = T.make_operator(model, recipe, phase).matrix
            assert _bits(got.data.view(float)) == _bits(ref.data.view(float))
        counts = table.entries(slice(None))[1]
        hits = np.count_nonzero((table.frac == 0.0) | (table.frac == 1.0))
        assert (ref.nnz == 2 * counts.sum() - hits
                and counts.size == ref.shape[0])


def _reference_apply(model, recipe, phase, u):
    """The per-stencil gather loop: interpolate, weight, sum, out factor."""
    shape = (len(model.intervals), model.grid_size + 1)
    coefs = []
    for stc in _old_build_stencils(model):
        coef = _old_coef_at_stencil(recipe, stc)
        if phase != 0.0:
            coef = coef * np.exp(1j * phase * np.asarray(model.roof(stc.y)))
        coefs.append((stc, coef))
    dtype = np.result_type(u.dtype, *(c.dtype for _, c in coefs))
    out = np.zeros(shape, dtype=dtype)
    for stc, coef in coefs:
        out[stc.domain_idx] += coef * _old_gather(u, stc)
    fac = _old_out_factor(recipe, shape)
    return out if fac is None else out * fac


def _recipe(model, a, normalized):
    if normalized:
        return T.normalize_potential(model, a).recipe
    return T.WeightRecipe(potential=True)


def _complex_field(model, seed):
    rng = np.random.default_rng(seed)
    shape = (len(model.intervals), model.grid_size + 1)
    return rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)


def _reference_adjoint(model, recipe, w):
    """The bincount push-forward: mass at z, weighted and out-factored,
    scatters to the two interpolation cells of each of its preimages."""
    n = model.grid_size
    fac = _old_out_factor(recipe, w.shape)
    src = w if fac is None else w * fac
    out = np.zeros_like(w)
    for stc in _old_build_stencils(model):
        mass = src[stc.domain_idx] * _old_coef_at_stencil(recipe, stc)
        out[stc.target_idx] += np.bincount(stc.j, mass * (1.0 - stc.frac),
                                           minlength=n + 1)
        out[stc.target_idx] += np.bincount(stc.j + 1, mass * stc.frac,
                                           minlength=n + 1)
    return out


@PROPS
@given(model=models(), a=st.floats(-0.04, 0.04), b=st.floats(-4096.0, 4096.0),
       normalized=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_fused_phase_operator_matches_gather_loop(model, a, b, normalized,
                                                  seed):
    assume(b != 0.0)
    recipe = _recipe(model, a, normalized)
    u = _complex_field(model, seed)
    real_op = T.make_operator(model, recipe)
    scale = float(np.max(real_op(np.abs(u))))
    for phase in (0.0, b):
        op = T.make_operator(model, recipe, phase=phase)
        assert op.matrix.dtype == (complex if phase else float)
        points = sum(stc.y.size for stc in op.stencils)
        hits = sum(np.count_nonzero((stc.frac == 0.0) | (stc.frac == 1.0))
                   for stc in _old_build_stencils(model))
        assert points == len(_old_branches(model)) * (model.grid_size + 1)
        assert op.matrix.nnz == 2 * points - hits
        for field in (u, u.real.copy()):
            got, ref = op(field), _reference_apply(model, recipe, phase,
                                                   field)
            assert got.dtype == ref.dtype
            assert float(np.max(np.abs(got - ref))) <= 1e-13 * scale
    w = u.real.copy()
    adj_scale = float(np.max(real_op.adjoint(np.abs(w))))
    assert float(np.max(np.abs(real_op.adjoint(w) - _reference_adjoint(
        model, recipe, w)))) <= 1e-13 * adj_scale
    with pytest.raises(ModelError, match="real operators only"):
        op.adjoint(w)


def _cell_loop_apply(model, recipe, u):
    """The gather loop with the out factor taken into each weight and each
    term split into its two interpolation cells, added to the output row
    lower cell first, stencil by stencil: the order of a CSR row sum."""
    shape = (len(model.intervals), model.grid_size + 1)
    fac = _old_out_factor(recipe, shape)
    out = np.zeros(shape, dtype=np.result_type(u.dtype, float))
    for stc in _old_build_stencils(model):
        amp = _old_coef_at_stencil(recipe, stc)
        if fac is not None:
            amp = amp * fac[stc.domain_idx]
        row = u[stc.target_idx]
        out[stc.domain_idx] += (amp * (1.0 - stc.frac)) * row[stc.j]
        out[stc.domain_idx] += (amp * stc.frac) * row[stc.j + 1]
    return out


@PROPS
@given(model=models(), a=st.floats(-0.04, 0.04), normalized=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_real_operator_matches_gather_loop_bitwise(model, a, normalized, seed):
    """Every weight of the real matrix, its column and its place in the
    row sum are those of the cell-split gather loop, to the bit."""
    recipe = _recipe(model, a, normalized)
    op = T.make_operator(model, recipe, phase=0)
    assert op.matrix.dtype == float
    u = _complex_field(model, seed)
    for field in (u, u.real.copy()):
        got, ref = op(field), _cell_loop_apply(model, recipe, field)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


def _full_layout_matrix(model, recipe, phase):
    """make_operator's matrix as it was before the zero-weight slots went:
    slots 2e and 2e + 1 for the lower and the upper cell of every entry e
    of the old index pattern, whatever their weight."""
    table = T._stencil_table(model)
    _, indptr, indices, _ = _old_operator_pattern(model)
    amp = recipe.at_entries(table, slice(None))
    sides = np.stack((amp * (1.0 - table.frac), amp * table.frac), axis=1)
    data = sides.ravel()
    if phase:
        arg = phase * table.roof
        data = np.empty(data.size, dtype=complex)
        data.real = (sides * np.cos(arg)[:, None]).ravel()
        data.imag = (sides * np.sin(arg)[:, None]).ravel()
    return csr_array((data, indices, indptr), shape=(indptr.size - 1,) * 2)


def _field(model, seed, complex_):
    """A random field with some signed zeros in it."""
    u = _complex_field(model, seed)
    u = u if complex_ else u.real.copy()
    u.reshape(-1)[::7] = 0.0
    u.reshape(-1)[3::11] = -0.0
    return u


@PROPS
@given(model=models(_ANY_FORBIDDEN), a=st.floats(-0.04, 0.04),
       b=st.floats(-4096.0, 4096.0), normalized=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_live_slots_keep_the_full_layout_bits(model, a, b, normalized, seed):
    """Each matrix is the full-layout matrix without its exact zeros, data,
    indices and indptr bit for bit, and its products, forward and
    transposed, on real and complex fields are the full layout's bits."""
    assume(b != 0.0)
    recipe = _recipe(model, a, normalized)
    for phase in (0.0, b):
        op = T.make_operator(model, recipe, phase)
        full = _full_layout_matrix(model, recipe, phase)
        for k, complex_ in enumerate((False, True)):
            u = _field(model, seed + k, complex_)
            flat = u.reshape(-1)
            # the adjoint is defined for real operators only
            back = (op.adjoint(u) if not phase
                    else (op.matrix.T @ flat).reshape(u.shape))
            for got, ref in ((op(u), full @ flat), (back, full.T @ flat)):
                assert got.dtype == ref.dtype
                assert (_bits(got.view(float))
                        == _bits(ref.reshape(u.shape).view(float)))
        full.eliminate_zeros()
        assert _bits(op.matrix.data.view(float)) == _bits(
            full.data.view(float))
        assert np.array_equal(op.matrix.indices, full.indices)
        assert np.array_equal(op.matrix.indptr, full.indptr)


@settings(max_examples=10, deadline=None)
@given(model=models(_ANY_FORBIDDEN), a=st.floats(-0.04, 0.04),
       bs=st.lists(st.floats(1.0, 4096.0), min_size=3, max_size=3))
def test_weight_memo_never_serves_a_stale_recipe(model, a, bs):
    """R1 at b1, R2 at b2, R1 at b3, then R1 real: each matrix holds the
    bits of a build made with every cache cleared."""
    r1 = T.normalize_potential(model, a).recipe
    r2 = r1.plus(tilt=0.01)
    builds = ((r1, bs[0]), (r2, bs[1]), (r1, bs[2]), (r1, 0.0))
    fresh = []
    with mock.patch.object(T, "_stencil_cache", {}):
        for recipe, phase in builds:
            T._stencil_cache.clear()
            fresh.append(T.make_operator(model, recipe, phase).matrix)
        T._stencil_cache.clear()
        for (recipe, phase), ref in zip(builds, fresh):
            got = T.make_operator(model, recipe, phase).matrix
            assert T._stencil_table(model).memo[0] is recipe
            assert _bits(got.data.view(float)) == _bits(ref.data.view(float))
            assert np.array_equal(got.indices, ref.indices)
            assert np.array_equal(got.indptr, ref.indptr)
    assert not got.data.flags.writeable


def test_recipe_arrays_are_read_only():
    """The memo keeps a recipe's weights by object, so its grid and
    eigenfunction arrays cannot change in place once it exists."""
    grid, rho = np.zeros((2, 5)), np.ones((2, 5))
    recipe = T.WeightRecipe(grids=(grid,)).plus(rho=rho)
    for values in recipe.grids + recipe.rhos:
        with pytest.raises(ValueError, match="read-only"):
            values /= 2.0


# ---------------------------------------------------------------------------
# weight recipes as data, against the closure recipes they replaced


@dataclass(frozen=True)
class _ClosureRecipe:
    """The recipe as it was: closed-form callables on leaf coordinates, and
    eigenfunctions as (array, power) factor pairs read at y and at z."""

    closed: tuple = ()
    grids: tuple = ()
    const: float = 0.0
    factors: tuple = ()
    out_factors: tuple = ()

    def plus(self, *, closed=(), const=0.0, factors=(), out_factors=()):
        return _ClosureRecipe(self.closed + tuple(closed), self.grids,
                              self.const + const,
                              self.factors + tuple(factors),
                              self.out_factors + tuple(out_factors))

    def coef_at_stencil(self, stc):
        acc = np.full(stc.y.shape, self.const)
        for fn in self.closed:
            acc = acc + np.asarray(fn(stc.y))
        for g in self.grids:
            acc = acc + _old_gather(np.asarray(g), stc)
        coef = np.exp(acc)
        for g, p in self.factors:
            coef = coef * _old_gather(np.asarray(g), stc) ** p
        return coef

    def out_factor(self, shape):
        if not self.out_factors:
            return None
        fac = np.ones(shape)
        for g, p in self.out_factors:
            fac = fac * np.asarray(g) ** p
        return fac

    def sample(self, model):
        xs = model.nodes()
        vals = np.full(xs.shape, self.const, dtype=float)
        for fn in self.closed:
            vals = vals + np.asarray(fn(xs))
        for g in self.grids:
            vals = vals + np.asarray(g)
        for g, p in self.factors:
            vals = vals + p * np.log(np.asarray(g))
        if self.out_factors:
            rows, cols = T.forward_index(model)
            extra = np.zeros_like(vals)
            for g, p in self.out_factors:
                extra = extra + p * np.log(np.asarray(g))
            vals = vals + extra[rows, cols]
        return vals


def _closure_operator(model, recipe, phase):
    """make_operator as it was, evaluating the roof again for the phase."""
    stencils, indptr, indices, slots = _old_operator_pattern(model)
    shape = (len(model.intervals), model.grid_size + 1)
    out_factor = recipe.out_factor(shape)
    data = np.empty(indices.size, dtype=complex if phase else float)
    for stc, (start, d, slot) in zip(stencils, slots):
        amp = recipe.coef_at_stencil(stc)
        if out_factor is not None:
            amp *= out_factor[stc.domain_idx]
        cell = data[start:start + 2 * d * shape[1]].reshape(shape[1], d, 2)
        sides = ((0, amp * (1.0 - stc.frac)), (1, amp * stc.frac))
        if not phase:
            for side, w in sides:
                cell[:, slot, side] = w
            continue
        arg = phase * np.asarray(model.roof(stc.y))
        cos, sin = np.cos(arg), np.sin(arg)
        for side, w in sides:
            np.multiply(w, cos, out=cell[:, slot, side].real)
            np.multiply(w, sin, out=cell[:, slot, side].imag)
    size = shape[0] * shape[1]
    matrix = csr_array((data, indices, indptr), shape=(size, size))
    return T.TransferOperator(model, stencils, matrix)


def _roof_tilt(model, a):
    return lambda x, _a=a: _a * np.asarray(model.roof(x))


def _closure_pressure_weight(model, s):
    return _ClosureRecipe(closed=(lambda x, _s=s: -_s * np.asarray(
        model.roof(x)),))


def _closure_pressure(model, s):
    """pressure(model, s) as the closure path computed it."""
    weight = _closure_pressure_weight(model, s)
    value, _, _ = T.power_iteration(_closure_operator(model, weight, 0.0))
    return math.log(value)


def _closure_normalized(model, raw):
    """(value, rho, recipe) of the closure path's normalization of raw,
    rho at unit integral against the Gibbs weights."""
    value, rho, _ = T.power_iteration(_closure_operator(model, raw, 0.0))
    rho = rho / float(np.sum(rho * T.gibbs_measure(model)))
    recipe = raw.plus(const=-math.log(value), factors=((rho, 1),),
                      out_factors=((rho, -1),))
    return value, rho, recipe


def _recipe_pairs(model, a, b, s):
    """(name, data recipe, closure recipe) for the base_system,
    normalize_potential, build_rpf and pressure recipes, the closure side
    rebuilt by the closure path, whose eigendata must agree bit for bit."""
    sys = T.base_system(model)
    raw = _ClosureRecipe(closed=(model.potential,))
    value, rho, _ = T.power_iteration(_closure_operator(model, raw, 0.0))
    assert _bits(value) == _bits(sys.value)
    assert _bits(rho) == _bits(sys.rho)
    fhat = raw.plus(const=-math.log(value), factors=((rho, 1),),
                    out_factors=((rho, -1),))
    nu = T.adjoint_weights(_closure_operator(model, fhat, 0.0), 1.0)
    assert _bits(nu) == _bits(sys.nu)
    pairs = [("base", sys.fhat, fhat)]

    norm = T.normalize_potential(model, a)
    tilted = fhat.plus(closed=(_roof_tilt(model, a),)) if a != 0.0 else fhat
    value, rho, _ = _closure_normalized(model, tilted)
    assert _bits(value) == _bits(norm.value)
    assert _bits(rho) == _bits(norm.rho)
    pairs.append(("normalized", norm.recipe, fhat.plus(
        closed=(_roof_tilt(model, a),) if a else (),
        const=-math.log(value), factors=((rho, 1),),
        out_factors=((rho, -1),))))

    try:
        rpf = R.build_rpf(model, a, b)
    except ModelError:
        pass
    else:
        smoothed = _ClosureRecipe(grids=(rpf.f_smooth + a * rpf.tau_smooth,))
        value, rho, recipe = _closure_normalized(model, smoothed)
        assert _bits(value) == _bits(rpf.value)
        assert _bits(rho) == _bits(rpf.rho)
        pairs.append(("smoothed", rpf.recipe, recipe))

    weight = _closure_pressure_weight(model, s)
    assert _bits(T.pressure(model, s)) == _bits(_closure_pressure(model, s))
    pairs.append(("pressure", T.WeightRecipe(tilt=-s), weight))
    return pairs


@settings(max_examples=12, deadline=None)
@given(model=models(), a=st.floats(-0.04, 0.04),
       b=st.floats(2.0, 4096.0) | st.floats(-4096.0, -2.0),
       s=st.floats(0.0, 2.0), phase_on=st.booleans(),
       seed=st.integers(0, 2 ** 16))
@example(model=build_model(ModelConfig("markov3", (2.0, 0.1, 0.3, 0.0),
                                       (0.1, 0.0, 0.2, 0.0), grid_size=64)),
         a=0.03, b=64.0, s=0.0, phase_on=True, seed=0)
def test_data_recipes_match_closure_recipes_bitwise(model, a, b, s, phase_on,
                                                    seed):
    shape = (len(model.intervals), model.grid_size + 1)
    u = _complex_field(model, seed)
    phase = b if phase_on else 0.0
    for name, new, old in _recipe_pairs(model, a, b, s):
        assert not any(map(callable, vars(new).values())), name
        for stc in _old_build_stencils(model):
            assert (_bits(_old_coef_at_stencil(new, stc))
                    == _bits(old.coef_at_stencil(stc))), name
        got, ref = _old_out_factor(new, shape), old.out_factor(shape)
        assert (got is None) == (ref is None), name
        assert got is None or _bits(got) == _bits(ref), name
        assert _bits(new.sample(model)) == _bits(old.sample(model)), name
        op, ref_op = (T.make_operator(model, new, phase),
                      _closure_operator(model, old, phase))
        for field in (u, u.real.copy()):
            got, ref = op(field), ref_op(field)
            assert got.dtype == ref.dtype, name
            assert (_bits(got.view(float)) == _bits(ref.view(float))), name
        # the closure path kept every slot; the package drops those whose
        # interpolation weight is exactly 0
        ref_op.matrix.eliminate_zeros()
        assert _bits(op.matrix.data.view(float)) == _bits(
            ref_op.matrix.data.view(float)), name
        assert np.array_equal(op.matrix.indices, ref_op.matrix.indices)
        assert np.array_equal(op.matrix.indptr, ref_op.matrix.indptr)


def test_roof_and_potential_sampled_once_per_model(monkeypatch):
    model = build_model(ModelConfig("doubling", (2.0, 0.0, 0.5, 0.0),
                                    (0.0, 0.0, 0.2, 0.0), grid_size=256))
    T.transfer_complex(model, 0.0, 64.0)
    calls = []
    coef_call = CoefFn.__call__
    monkeypatch.setattr(CoefFn, "__call__",
                        lambda self, x: calls.append(x) or coef_call(self, x))
    for k in range(1, 11):
        T.transfer_complex(model, 0.004 * k - 0.02, 64.0 + 37.0 * k)
    assert len(calls) == 0


def _reference_smooth(model, values, width):
    """Per-slice reflected convolution with the normalized triangle."""
    n = model.grid_size
    radius = max(1, round(width * n))
    i = np.arange(-radius, radius + 1)
    kern = (radius + 1 - np.abs(i)).astype(float)
    kern /= kern.sum()
    out = values.copy()
    for k, ranges in enumerate(R.slice_table(model)):
        for lo, hi in ranges:
            seg = values[k, lo:hi + 1]
            if len(seg) < 2:
                continue
            pad = np.pad(seg, radius, mode="reflect")
            out[k, lo:hi + 1] = np.convolve(pad, kern, mode="valid")
    return out


@PROPS
@given(model=models(), width=st.floats(0.0, 0.7), seed=st.integers(0, 2 ** 16),
       level=st.floats(-3.0, 3.0))
def test_prefix_sum_smoothing_matches_convolution(model, width, seed, level):
    rng = np.random.default_rng(seed)
    shape = (len(model.intervals), model.grid_size + 1)
    values = level + np.cumsum(rng.standard_normal(shape), axis=1) / 8
    got = R.smooth_grid(model, values, width)
    assert float(np.max(np.abs(got - _reference_smooth(model, values,
                                                       width)))) <= 1e-12
    const = R.smooth_grid(model, np.full(shape, level), width)
    assert np.ptp(const) == 0 and np.all(const == level)


def _reference_row_seminorm(model, u, theta):
    h = 1.0 / model.grid_size
    worst = 0.0
    for row in u:
        lag = model.grid_size
        while lag >= 1:
            gap = float(np.max(np.abs(row[lag:] - row[:-lag])))
            worst = max(worst, gap / (lag * h) ** theta)
            lag //= 2
    return worst


@PROPS
@given(model=models(), seed=st.integers(0, 2 ** 16), freq=st.floats(0.1, 3.0),
       noise=st.sampled_from((0.0, 1e-3, 1.0)))
def test_row_seminorm_matches_dyadic_loop(model, seed, freq, noise):
    xs = np.linspace(0.0, 1.0, model.grid_size + 1)
    # smooth rows put the worst quotient at long lags, noisy ones at lag 1
    u = np.exp(2j * np.pi * freq * xs) + noise * _complex_field(model, seed)
    for field in (u, u.real.copy()):
        assert (holder_seminorm(model, field)
                == _reference_row_seminorm(model, field, model.theta))


_CSV_KINDS = (
    st.floats(), st.integers(-10 ** 6, 10 ** 6), st.booleans(), st.none(),
    st.text(alphabet="ab,\"", max_size=4),
    st.lists(st.floats(allow_nan=False), max_size=3),
    st.tuples(st.floats(), st.integers(-9, 9)),
    st.floats(-1e3, 1e3).map(np.float64))


def _array_column(n):
    """A numpy column of n values: float64 (NaN, infinities and -0.0
    included), int64, bool or str ('U') with commas and quotes."""
    return st.one_of(
        hnp.arrays(np.float64, n, elements=st.floats()),
        hnp.arrays(np.int64, n),
        hnp.arrays(np.bool_, n),
        hnp.arrays("U4", n, elements=st.text(alphabet="ab,\"", max_size=4)))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_column_formatting_matches_fmt(data):
    # columns of one kind or a mix of two, so every plain-type shortcut and
    # its near misses (bools among ints, numpy floats among floats) occur
    kinds = data.draw(st.lists(st.sampled_from(_CSV_KINDS), min_size=1,
                               max_size=2))
    col = tuple(data.draw(st.lists(st.one_of(kinds), min_size=1,
                                   max_size=20)))
    assert cli._fmt_column(col) == [cli._fmt(v) for v in col]
    # a numpy column formats as the Python scalars its rows were built from
    arr = data.draw(_array_column(data.draw(st.integers(0, 20))))
    assert cli._fmt_column(arr) == [cli._fmt(v) for v in arr.tolist()]
    assert cli._fmt_column(arr[1::2]) == [cli._fmt(v)
                                          for v in arr[1::2].tolist()]


def _old_csv_body(columns) -> str:
    """The table as csv.writer wrote it: the header row, then each row's
    values formatted one at a time (an array column as its tolist)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    cols = [c.tolist() if isinstance(c, np.ndarray) else c
            for c in columns.values()]
    writer.writerows([cli._fmt(v) for v in row] for row in zip(*cols))
    return out.getvalue()


def _written_body(columns) -> str:
    """The lines _write_csv writes after its `#` metadata lines."""
    model = build_model(ModelConfig(grid_size=64))
    with tempfile.TemporaryDirectory() as tmp:
        cfg = replace(cli.resolve(cli._build_parser().parse_args(
            ["gibbs"]), {}), out_dir=tmp)
        cli._write_csv(cfg, model, "t.csv", [("k", 1.5)], columns)
        with open(os.path.join(tmp, "t.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith("#"))


# values that csv.writer writes unquoted: no ',', '"', CR or LF, and tuples
# of one value (more would be joined by commas)
_PLAIN_TEXT = st.text(alphabet="ab ;'\t", min_size=1, max_size=4)
_PLAIN_KINDS = (
    st.floats(), st.integers(-10 ** 6, 10 ** 6), st.booleans(), st.none(),
    _PLAIN_TEXT, st.tuples(st.floats()), st.floats(-1e3, 1e3).map(np.float64))


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       rows=st.sampled_from((0, 1, cli.CSV_BLOCK_ROWS, cli.CSV_BLOCK_ROWS + 1)),
       width=st.integers(1, 4))
def test_block_writer_matches_csv_writer(data, rows, width):
    # numpy columns of every kind and lists mixing two plain kinds, at
    # zero, one, one block and one block and a row; each column repeats a
    # drawn run of up to 40 values, so long columns stay cheap to draw
    columns = {}
    for j in range(width):
        if data.draw(st.booleans()):
            run = data.draw(st.one_of(
                hnp.arrays(np.float64, 40, elements=st.floats()),
                hnp.arrays(np.int64, 40),
                hnp.arrays(np.bool_, 40),
                hnp.arrays("U4", 40, elements=_PLAIN_TEXT)))
            col = np.resize(run, rows)
        else:
            kinds = data.draw(st.lists(st.sampled_from(_PLAIN_KINDS),
                                       min_size=1, max_size=2))
            run = data.draw(st.lists(st.one_of(kinds), min_size=1,
                                     max_size=40))
            col = [run[i % len(run)] for i in range(rows)]
        columns[f"c{j}"] = col
    assert _written_body(columns) == _old_csv_body(columns)


@pytest.mark.parametrize("char", (",", '"', "\r", "\n"))
@pytest.mark.parametrize("as_array", (False, True))
def test_block_writer_refuses_fields_that_need_quoting(char, as_array):
    label = ["a", f"b{char}c", "d"]
    columns = {"n": np.arange(3),
               "label": np.array(label) if as_array else label}
    with pytest.raises(ValueError, match="'label'"):
        _written_body(columns)


def test_block_writer_refuses_joined_fields():
    # a tuple of two values formats with a comma; an empty field needs no
    # quoting beside another column
    with pytest.raises(ValueError, match="'pair'"):
        _written_body({"n": [1, 2], "pair": [(1.0,), (1.0, 2)]})
    assert _written_body({"n": [1, 2], "s": ["a", ""]}) == "n,s\n1,a\n2,\n"


# ---------------------------------------------------------------------------
# entropy root: secant steps from below against scipy's brentq


@settings(max_examples=25, deadline=None)
@given(model=models(_ANY_FORBIDDEN))
def test_entropy_matches_scipy_brentq(model):
    evals = []

    def counted(*args, **kwargs):
        evals.append(args)
        return T.pressure(*args, **kwargs)

    O._entropy_cache.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(O, "pressure", counted)
        h = O.entropy(model)
    assert len(evals) <= 8
    # the stop P(h) <= tau_0 ENTROPY_TOL puts h within ENTROPY_TOL below
    # the root, since P falls at least as fast as tau_0 s
    assert -1e-12 <= T.pressure(model, h) <= model.tau_0 * O.ENTROPY_TOL
    assert T.pressure(model, h + 2 * O.ENTROPY_TOL) < 0
    # P(s) <= P(0) - tau_0 s, so [0, P(0) / tau_0] brackets the root
    hi = T.pressure(model, 0.0) / model.tau_0
    ref = brentq(lambda s: T.pressure(model, s), 0.0, hi,
                 xtol=O.ENTROPY_TOL)
    assert abs(h - ref) <= 2 * O.ENTROPY_TOL


def _stub_entropy(stub, roof=(1.0, 0.0, 0.0, 0.0)):
    """entropy on a doubling model with the given roof whose pressure is
    stub."""
    model = build_model(ModelConfig("doubling", roof, (0.0,) * 4,
                                    (0.5, 0.0, 0.0, 0.0), 128, 0.5))
    O._entropy_cache.clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(O, "pressure", lambda model, s: stub(s))
            return O.entropy(model)
    finally:
        O._entropy_cache.clear()


def test_entropy_stops_at_the_first_pressure_within_tau_0_tol():
    # on roof 1 + x (tau_0 = 1, tau_star = 2), 2 (e^-s - e^-c) with
    # c = 0.48 < log 2 falls with slopes in [-tau_star, -tau_0] on [0, c];
    # its fifth secant point reads 1.66e-10, inside tau_star ENTROPY_TOL
    # but outside tau_0 ENTROPY_TOL, so the loop must go on
    c, seen = 0.48, []

    def stub(s):
        seen.append(2.0 * (math.exp(-s) - math.exp(-c)))
        return seen[-1]

    h = _stub_entropy(stub, roof=(1.0, 1.0, 0.0, 0.0))
    assert seen[-1] <= O.ENTROPY_TOL < min(seen[:-1])
    assert 1.5e-10 < seen[-2] < 2e-10
    assert 0.0 <= c - h <= O.ENTROPY_TOL


def test_entropy_iteration_cap_raises():
    # (1 + s)^-0.1 falls and is convex but reaches 1e-10 only at s = 1e100;
    # the secant steps grow about 5.4 times each, so the cap of 50 comes
    # first, after P(0) and one evaluation per step
    seen = []

    def stub(s):
        seen.append(s)
        return (1.0 + s) ** -0.1

    with pytest.raises(T.ConvergenceError,
                       match="did not converge in 50 steps"):
        _stub_entropy(stub)
    assert len(seen) == 1 + O.ENTROPY_STEPS


def test_entropy_refuses_a_pressure_that_does_not_fall():
    with pytest.raises(T.ConvergenceError, match="pressure does not fall"):
        _stub_entropy(lambda s: 1.0)


# ---------------------------------------------------------------------------
# oscillation margin by run tests


def _full_best_margin(dist, n_windows):
    """Every window size for every phase, as before pruning."""
    n_om, n_s = dist.shape
    best = np.zeros(n_om)
    w_frac = np.zeros(n_om)
    w_lo = np.zeros(n_om, dtype=int)
    w_size = np.zeros(n_om, dtype=int)
    w_dist = np.zeros(n_om)
    win, width = dist, 1
    rows = np.arange(n_om)
    for j in range(1, n_windows + 1):
        frac = j / n_windows
        size = max(1, int(round(frac * n_s)))
        while width < size:
            step = min(width, size - width)
            win = np.minimum(win[:, :-step], win[:, step:])
            width += step
        pos = np.argmax(win, axis=1)
        m = win[rows, pos]
        cand = np.minimum(frac, m)
        better = cand > best
        w_frac[better] = frac
        w_lo[better] = pos[better]
        w_size[better] = size
        w_dist[better] = m[better]
        best = np.where(better, cand, best)
    i = int(np.argmin(best))
    lo = int(w_lo[i])
    return float(best[i]), {
        "omega_idx": i, "frac": float(w_frac[i]), "lo": lo,
        "hi": lo + int(w_size[i]), "dist": float(w_dist[i])}


_PROFILE_KINDS = ("sine", "constant", "narrow", "turns", "on_phase",
                  "midway", "tied", "nonfinite", "huge")


def _profile(rng, kind, n_s):
    """A contrast-like profile of n_s points; kind "narrow" stays inside
    one step of the 64-phase grid, "turns" winds several times round the
    circle, "on_phase" takes phases and +-pi exactly, "midway" sits
    half-way between two phases, "huge" lies past 2^20, up to 1e300."""
    s = np.arange(n_s) / n_s
    step = S.TWO_PI / 64
    psi = (rng.uniform(0.0, 30.0) * rng.uniform()
           * np.sin(2 * np.pi * (s + rng.uniform())))
    if kind == "constant":
        psi = np.full(n_s, rng.uniform(-10.0, 10.0))
    elif kind == "narrow":
        psi = S.TWO_PI * rng.integers(-128, 128) / 64 \
            + step * rng.uniform(0.0, 1.0, n_s)
    elif kind == "turns":
        psi = rng.uniform(-20.0, 20.0) + S.TWO_PI * rng.uniform(2, 10) * s
    elif kind == "on_phase":
        psi = rng.choice(np.r_[S.TWO_PI * np.arange(-64, 64) / 64,
                               math.pi, -math.pi], n_s)
    elif kind == "midway":
        psi = np.full(n_s, (rng.integers(0, 64) + 0.5) * step)
    elif kind == "tied":
        psi = np.round(psi, 1)
    elif kind == "nonfinite":
        at = rng.choice(n_s, size=min(3, n_s), replace=False)
        psi[at] = rng.choice([np.nan, np.inf, -np.inf], size=at.size)
    elif kind == "huge":
        psi = rng.choice([-1.0, 1.0]) * rng.choice([2.0 ** 21, 2.0 ** 52,
                                                    1e300]) \
            * (1.0 + rng.uniform(0.0, 1e-3, n_s))
    return psi


def _check_margins(psi, n_windows, rng=None):
    """_margins of the profiles of psi against the full scan of each
    profile's 64-phase table, bit for bit; with rng, every candidate
    phase is drawn from it instead of guessed."""
    with pytest.MonkeyPatch.context() as mp:
        if rng is not None:
            mp.setattr(S, "_candidate_phases",
                       lambda p, n: rng.integers(0, n, len(p)))
        with np.errstate(invalid="ignore"):   # fmod of +-inf gives NaN
            got = S._margins(psi, 64, n_windows)
    for p in range(len(psi)):
        ref = _full_best_margin(_phase_table(psi[p], 64), n_windows)
        assert _margin_of(got, p) == ref
        assert _bits(got[0][p]) == _bits(ref[0])


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n_s=st.sampled_from((7, 64, 256)),
       n_windows=st.sampled_from((5, 32)),
       kinds=st.lists(st.sampled_from(_PROFILE_KINDS), min_size=1,
                      max_size=5),
       any_candidate=st.booleans())
def test_pruned_best_margin_matches_full_scan(seed, n_s, n_windows, kinds,
                                              any_candidate):
    # profiles of every kind in one call, each against the scan of every
    # window size for every phase of its full table: a NaN or +-inf entry
    # makes every phase NaN there, and a phase with a NaN has margin 0
    # and the empty witness; any candidate phase gives the same answer
    rng = np.random.default_rng(seed)
    psi = np.array([_profile(rng, kind, n_s) for kind in kinds])
    _check_margins(psi, n_windows, rng if any_candidate else None)


@pytest.mark.parametrize("kind", _PROFILE_KINDS)
@pytest.mark.parametrize("candidate", [None, 0, 31, 63])
def test_margins_of_each_profile_kind(kind, candidate):
    # every kind at uni_scan's size, alone and beside a sine profile, with
    # the guessed candidate and with the first, a middle and the last
    # phase forced
    rng = np.random.default_rng(sorted(_PROFILE_KINDS).index(kind))
    psi = np.array([_profile(rng, kind, 256), _profile(rng, "sine", 256)])
    with pytest.MonkeyPatch.context() as mp:
        if candidate is not None:
            mp.setattr(S, "_candidate_phases",
                       lambda p, n: np.full(len(p), candidate))
        _check_margins(psi, 32)
        _check_margins(psi[:1], 32)


def test_margins_past_a_candidate_of_margin_one():
    # a constant profile half a turn from its candidate: the candidate's
    # margin is u = 1, so every phase before it is rescanned, and the
    # weakest phase is not the candidate
    psi = np.full((1, 256), 0.3)
    assert S._scan_rows(_phase_table(psi[0], 64)[32:33], 32)[0][0] == 1.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(S, "_candidate_phases", lambda p, n: np.full(len(p), 32))
        got = S._margins(psi, 64, 32)
    assert _margin_of(got, 0) == _full_best_margin(_phase_table(psi[0], 64),
                                                   32)
    assert got[1][0] == 3 and got[0][0] < 1.0


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n_p=st.integers(1, 5),
       n_s=st.sampled_from((1, 7, 64, 256)),
       n_phases=st.sampled_from((1, 2, 3, 8, 64, 64)),
       u_from=st.sampled_from(("table", "uniform", "zero")))
def test_band_failures_match_full_table(seed, n_p, n_s, n_phases, u_from):
    # the (phase, point) pairs the band marks as failing against the full
    # table: dist <= u before the candidate, dist < u after it, at random
    # u, u = 0 and u equal to a table entry (the tie the two tests split)
    rng = np.random.default_rng(seed)
    kinds = [k for k in _PROFILE_KINDS if k != "nonfinite"]
    psi = np.array([_profile(rng, rng.choice(kinds), n_s)
                    for _ in range(n_p)])
    c = rng.integers(0, n_phases, n_p)
    tables = [_phase_table(p, n_phases) for p in psi]
    if u_from == "table":
        u = np.array([t[rng.integers(0, n_phases), rng.integers(0, n_s)]
                      for t in tables])
    elif u_from == "uniform":
        u = rng.uniform(0.0, 3.5, n_p)
    else:
        u = np.zeros(n_p)
    _check_band(psi, c, u, n_phases)


@pytest.mark.parametrize("big", [2.0 ** 21, 2.0 ** 52, 1e300])
def test_band_failures_past_the_bound(big):
    # past BAND_MAX every phase is read: at 1e300 psi - omega rounds to
    # psi, so every phase has the same distance, far from any band
    rng = np.random.default_rng(0)
    psi = big * (1.0 + rng.uniform(0.0, 1e-3, (3, 256)))
    u = np.array([_phase_table(p, 64)[7, 11 * i] for i, p in enumerate(psi)])
    _check_band(psi, np.array([0, 32, 63]), u, 64)


def _check_band(psi, c, u, n_phases):
    """_band_failures against the full tables of the profiles of psi."""
    n_p, n_s = psi.shape
    rows, points = S._band_failures(psi, c, u, n_phases)
    k = np.arange(n_phases)[:, None]
    want = np.array([np.where(k < c[p], t <= u[p], t < u[p]) & (k != c[p])
                     for p, t in enumerate(_phase_table(q, n_phases)
                                           for q in psi)])
    want_rows, want_points = np.nonzero(want.reshape(n_p * n_phases, n_s))
    assert rows.tolist() == want_rows.tolist()
    assert points.tolist() == want_points.tolist()


# ---------------------------------------------------------------------------
# the scale read at the sample points


@settings(max_examples=12, deadline=None)
@given(model=models(_ANY_FORBIDDEN), samples=st.integers(1, 16),
       q=st.integers(4, 12))
def test_sample_points_are_grid_nodes(model, samples, q):
    # each sample point is nodes()[r, j] bit for bit, so the scale's
    # steps and values there are the stopping cocycle run at the point
    scale = S.matching_scale(model, 2.0 ** -q)
    pts = S._sample_points(model, samples)
    steps, values = S._stopping_cocycle(model, [x for x, *_ in pts],
                                        scale.eps)
    for (x, r, j), k, lam in zip(pts, steps.tolist(), values.tolist()):
        assert _bits(x) == _bits(model.nodes()[r, j])
        assert k == scale.steps[r, j] and _bits(lam) == _bits(
            scale.values[r, j])


@settings(max_examples=8, deadline=None)
@given(model=models(), q=st.integers(4, 7))
def test_uni_scan_and_tame_read_the_scale(model, q):
    # no stopping cocycle runs; uni_scan builds word pairs once per
    # (interval, stopping index) and walks each (point, side, word) row
    # once
    scale = S.matching_scale(model, 2.0 ** -q)
    pts = S._sample_points(model, 12)
    keys = {(r, int(scale.steps[r, j])) for _, r, j in pts}
    n_rows = sum(
        len({w for pair in S.word_pairs(model, r, int(scale.steps[r, j]))
             for w in pair})
        * len(S._chart_sides(model, r, x, float(scale.values[r, j])))
        for x, r, j in pts)
    with mock.patch.object(S, "_stopping_cocycle") as runs, \
            mock.patch.object(S, "word_pairs",
                              side_effect=S.word_pairs) as pairs, \
            mock.patch.object(S, "_relative_sums",
                              side_effect=S._relative_sums) as walks:
        S.uni_scan(model, scale)
        assert pairs.call_count == len(keys)
        assert sum(len(c.args[1]) for c in walks.call_args_list) == n_rows
        S.check_tame(model, scale, samples=4)
    assert runs.call_count == 0


# ---------------------------------------------------------------------------
# Monte Carlo blocks advanced together


def _reference_advance(model, x, u, dt):
    u = u + dt
    tau = np.asarray(model.roof(x), dtype=float)
    while True:
        over = u >= tau
        if not over.any():
            break
        u[over] -= tau[over]
        x[over] = model.forward(x[over])
        tau[over] = np.asarray(model.roof(x[over]), dtype=float)
    return x, u


def _reference_draw(cum, lefts, grid_size, rng, m):
    """The section draw with one search over the unsorted keys."""
    r = rng.random(m) * cum[-1]
    iv, cell = np.divmod(np.searchsorted(cum, r, side="right"), grid_size)
    return lefts[iv] + (cell + rng.random(m)) / grid_size


def _reference_observable(sec, fib, x, u):
    """The observable at every point, section and fibre profile."""
    vals = np.asarray(sec(x), dtype=float)
    if vals.shape != np.shape(x):
        vals = np.broadcast_to(vals, np.shape(x)).astype(float)
    if fib is not None:
        vals = vals * np.asarray(fib(u), dtype=float)
    return vals


def _reference_mc_block(model, sec_a, fib_a, sec_b, fib_b, t_sorted, m,
                        child, sampler):
    """One block run alone, as correlation_decay did block by block, each
    observable evaluated at every point at every time."""
    rng = np.random.Generator(np.random.PCG64(child))
    x = _reference_draw(*sampler, rng, m)
    u = rng.random(m) * np.asarray(model.roof(x), dtype=float)
    b0 = _reference_observable(sec_b, fib_b, x, u)
    b0 = b0 - b0.mean()
    out = np.empty(t_sorted.size)
    t_prev = 0.0
    for k, t in enumerate(t_sorted):
        x, u = _reference_advance(model, x, u, t - t_prev)
        t_prev = t
        a_t = _reference_observable(sec_a, fib_a, x, u)
        out[k] = float(((a_t - a_t.mean()) * b0).mean())
    return out


def _fibre(u):
    return np.cos(2.0 * np.pi * np.asarray(u))


def _section(x):
    return np.sin(2.0 * np.pi * np.asarray(x))


def _cosine(x):
    return np.cos(2.0 * np.pi * np.asarray(x))


def _flat(x):
    # a Python scalar: broadcast over whichever points are evaluated
    return 0.25


_MC_MODEL = build_model(ModelConfig(grid_size=256))


@settings(max_examples=25, deadline=None)
@given(model=models(),
       t_grid=st.lists(st.sampled_from((0.0, 0.3, 1.1, 2.5, 4.0)),
                       min_size=1, max_size=5),
       samples=st.integers(40, 3000), blocks=st.integers(2, 12),
       seed=st.integers(0, 2 ** 32),
       sec_a=st.sampled_from((_section, _cosine, _flat)),
       sec_b=st.sampled_from((_section, _cosine, _flat)),
       fib_a=st.sampled_from((None, _fibre)),
       fib_b=st.sampled_from((None, _fibre)),
       chunk=st.sampled_from((1, 100, O.MC_CHUNK_POINTS)))
@example(model=_MC_MODEL, t_grid=[0.0, 1.1, 0.3],
         samples=300, blocks=3, seed=7, sec_a=_section, sec_b=_section,
         fib_a=_fibre, fib_b=None, chunk=100)
@example(model=_MC_MODEL, t_grid=[2.5, 0.3],
         samples=300, blocks=3, seed=7, sec_a=_section, sec_b=_cosine,
         fib_a=None, fib_b=None, chunk=O.MC_CHUNK_POINTS)
@example(model=_MC_MODEL, t_grid=[4.0, 1.1],
         samples=300, blocks=3, seed=7, sec_a=_flat, sec_b=_section,
         fib_a=_fibre, fib_b=None, chunk=O.MC_CHUNK_POINTS)
def test_block_monte_carlo_matches_block_loop(model, t_grid, samples, blocks,
                                              seed, sec_a, sec_b, fib_a,
                                              fib_b, chunk):
    # one section for both observables shares the t = 0 values; two
    # sections, or a scalar one, take the separate and broadcast paths
    assume(samples >= blocks)
    obs_a = (sec_a, fib_a) if fib_a else sec_a
    obs_b = (sec_b, fib_b) if fib_b else sec_b
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(O, "MC_CHUNK_POINTS", chunk)
        rep = O.correlation_decay(model, obs_a, obs_b, t_grid, samples,
                                  seed=seed, blocks=blocks)
    t = np.asarray(t_grid, dtype=float)
    order = np.argsort(t, kind="stable")
    m = samples // blocks
    sampler = O._section_sampler(model)
    table = np.vstack([
        _reference_mc_block(model, sec_a, fib_a, sec_b, fib_b, t[order],
                            m, child, sampler)
        for child in np.random.SeedSequence(seed).spawn(blocks)])
    corr = np.empty(t.size)
    err = np.empty(t.size)
    corr[order] = table.mean(axis=0)
    err[order] = table.std(axis=0, ddof=1) / math.sqrt(blocks)
    assert np.array_equal(rep.corr.view(np.uint64), corr.view(np.uint64))
    assert np.array_equal(rep.stderr.view(np.uint64), err.view(np.uint64))


# ---------------------------------------------------------------------------
# one copy of each numerical primitive, against the loops it replaced


def _old_range_seminorm(vals, h, theta):
    worst = 0.0
    lag = len(vals) - 1
    while lag >= 1:
        gap = float(np.max(np.abs(vals[lag:] - vals[:-lag])))
        worst = max(worst, gap / (lag * h) ** theta)
        lag //= 2
    return worst


def _old_slice_norms(model, values, theta):
    """(slice_holder_norm, slice_c1_norm) as two per-slice loops."""
    h = 1.0 / model.grid_size
    c0 = float(np.max(np.abs(values)))
    sem = slope = 0.0
    for k, ranges in enumerate(R.slice_table(model)):
        for lo, hi in ranges:
            if hi > lo:
                seg = values[k, lo:hi + 1]
                sem = max(sem, _old_range_seminorm(seg, h, theta))
                slope = max(slope, float(np.max(np.abs(np.diff(seg)))) / h)
    return (c0, sem), c0 + slope


def _old_profile_theta_norm(vals, theta):
    n = len(vals)
    c0 = float(np.abs(vals).max())
    sem = 0.0
    lag = 1
    while lag < n:
        d = float(np.abs(vals[lag:] - vals[:-lag]).max())
        sem = max(sem, d / (lag / n) ** theta)
        lag *= 2
    return c0 + sem


def _field(model, seed, kind):
    """A complex, real or NaN-holed real field on the model grid."""
    u = _complex_field(model, seed)
    if kind == "complex":
        return u
    u = u.real.copy()
    if kind == "nan":
        rng = np.random.default_rng(seed + 1)
        u[rng.integers(len(model.intervals)),
          rng.integers(model.grid_size + 1)] = np.nan
    return u


@PROPS
@given(model=models(_ANY_FORBIDDEN), seed=st.integers(0, 2 ** 16),
       kind=st.sampled_from(("complex", "real", "nan")),
       theta=st.sampled_from((None, 0.25, 0.5, 1.0)),
       smooth=st.booleans())
def test_lag_seminorm_matches_grid_and_row_loops(model, seed, kind, theta,
                                                 smooth):
    u = _field(model, seed, kind)
    if smooth:
        # smooth rows put the worst quotient at long lags
        u = u * 1e-3 + np.sin(np.pi * model.nodes())
    th = model.theta if theta is None else theta
    at_theta = build_model(replace(model.config, theta=th))
    assert _bits(holder_seminorm(at_theta, u)) == _bits(
        _reference_row_seminorm(model, u, th))


@PROPS
@given(model=models(_ANY_FORBIDDEN), seed=st.integers(0, 2 ** 16),
       theta=st.sampled_from((0.25, 0.5, 1.0)), smooth=st.booleans())
def test_lag_seminorm_matches_slice_loops(model, seed, theta, smooth):
    # markov3 slices of a full row are about grid_size / 3 samples long,
    # so their lags are not powers of two
    u = _field(model, seed, "real")
    if smooth:
        u = u * 1e-3 + np.cos(3.0 * model.nodes())
    holder, c1 = _old_slice_norms(model, u, theta)
    assert _bits(R.slice_holder_norm(model, u, theta)) == _bits(holder)
    assert _bits(R.slice_c1_norm(model, u)) == _bits(c1)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 300), seed=st.integers(0, 2 ** 16),
       theta=st.sampled_from((0.25, 0.5, 1.0)), nan=st.booleans())
def test_lag_seminorm_matches_profile_loop(n, seed, theta, nan):
    rng = np.random.default_rng(seed)
    psi = np.cumsum(rng.normal(size=n)) / n
    if nan:
        psi[rng.integers(n)] = np.nan
    assert _bits(S._profile_theta_norm(psi, theta)) == _bits(
        _old_profile_theta_norm(psi, theta))


def _old_folds(model, fn, x, n):
    """The four per-method orbit folds before they shared one."""
    if n == 0:
        one = 1.0 if np.isscalar(x) else np.ones(np.size(x))
        zero = 0.0 if np.isscalar(x) else np.zeros(np.size(x))
        return one, one, one, zero
    pts = model.orbit(x, n)
    flat = pts.ravel()
    outs = (model.slope_at(flat).reshape(pts.shape).prod(axis=0),
            np.asarray(model.mu(flat)).reshape(pts.shape).prod(axis=0),
            (model.slope_at(flat) * np.asarray(model.mu(flat)))
            .reshape(pts.shape).prod(axis=0),
            np.asarray(fn(flat)).reshape(pts.shape).sum(axis=0))
    return tuple(float(o[0]) if np.isscalar(x) else o for o in outs)


@PROPS
@given(model=models(_ANY_FORBIDDEN), pts=point_lists, n=st.integers(0, 7),
       scalar=st.booleans())
def test_orbit_fold_matches_per_method_folds(model, pts, n, scalar):
    x = _points(pts, model)
    x = float(x[0]) if scalar else x
    got = (model._orbit_fold(x, n, model.slope_at, np.prod),
           model.stable_cocycle(x, n),
           model.det_cocycle(x, n), model.birkhoff_sum(model.roof, x, n))
    for g, ref in zip(got, _old_folds(model, model.roof, x, n)):
        assert type(g) is type(ref)
        assert _bits(g) == _bits(ref)


def _old_walk(model):
    """The hand-built node grid and one-step index tables of the walks."""
    rows_i, cols_i = T.forward_index(model)
    k, npts = rows_i.shape
    r = np.tile(np.arange(k)[:, None], (1, npts))
    c = np.tile(np.arange(npts)[None, :], (k, 1))
    return rows_i, cols_i, r, c


def _old_stacked(model, fn):
    n = model.grid_size
    return np.stack([np.asarray(fn(left + np.arange(n + 1) / n), dtype=float)
                     for left in model.lefts.tolist()])


def _old_check_stable(model, scale, m_max):
    rows_i, cols_i, r, c = _old_walk(model)
    logv = np.log(scale.values)
    logslope = np.log(_old_stacked(model, model.slope_at))
    cum = np.zeros_like(logv)
    rows = []
    for m in range(1, m_max + 1):
        cum = cum + logslope[r, c]
        r, c = rows_i[r, c], cols_i[r, c]
        rows.append((m, float(((cum + logv[r, c] - logv) / m).min())))
    return tuple(rows)


def _old_check_adapted(model, scale, mask, n, radius_factor=4.0):
    rows_i, cols_i, r, c = _old_walk(model)
    k, npts = r.shape
    for _ in range(n):
        r, c = rows_i[r, c], cols_i[r, c]
    lam_x = scale.values[r, c]
    sel = mask[r, c]
    h = 1.0 / model.grid_size
    max_cells = int(math.ceil(radius_factor / (scale.min_value * h))) + 1
    max_cells = min(max_cells, model.grid_size)
    worst = 1.0
    checked = 0
    for d in range(-max_cells, max_cells + 1):
        lo_z, hi_z, lo_y = ((0, npts, 0) if d == 0 else
                            (0, npts - d, d) if d > 0 else (-d, npts, 0))
        lam_y = scale.values[:, lo_y:lo_y + hi_z - lo_z]
        use = sel[:, lo_z:hi_z] & ((abs(d) * h) * lam_y < radius_factor)
        if use.any():
            ratio = lam_x[:, lo_z:hi_z] / lam_y
            worst = max(worst, float(ratio[use].max()))
            checked += int(use.sum())
    return worst, checked


def _old_uniform_mask(model, n, kappa, horizon, cutoff):
    rows_i, cols_i, r, c = _old_walk(model)
    logdet = np.log(_old_stacked(model, model.det_step))
    cum = np.zeros(logdet.shape)
    ok = np.ones(logdet.shape, dtype=bool)
    for i in range(1, int(cutoff.max()) + 1):
        cum = cum + logdet[r, c]
        r, c = rows_i[r, c], cols_i[r, c]
        if i <= n:
            continue
        ok &= (cum < i * kappa) | ~(cutoff >= i)
    return ok


def _old_recurrence_counts(model, mask, n1, m, trials, seed):
    rows_i, cols_i, _, _ = _old_walk(model)
    nu = T.base_system(model).nu
    p = nu.ravel() / nu.sum()
    flat = np.random.default_rng(seed).choice(p.size, size=trials, p=p)
    npts = model.grid_size + 1
    r, c = flat // npts, flat % npts
    counts = np.zeros(trials, dtype=int)
    for _ in range(m):
        for _ in range(n1):
            r, c = rows_i[r, c], cols_i[r, c]
        counts += mask[r, c]
    return counts


@settings(max_examples=15, deadline=None)
@given(model=models(_ANY_FORBIDDEN), q=st.integers(2, 6),
       m_max=st.integers(1, 6), n=st.integers(0, 3), seed=st.integers(0, 99),
       marked=st.booleans())
def test_grid_walk_matches_stable_and_adapted(model, q, m_max, n, seed,
                                              marked):
    scale = S.matching_scale(model, 2.0 ** -q)
    rep = S.check_stable(model, scale, m_max)
    ref = _old_check_stable(model, scale, m_max)
    assert _bits([r[1] for r in rep.rows]) == _bits([r[1] for r in ref])
    assert _bits(rep.kappa_branch) == _bits(min(r[1] for r in ref))

    mask = np.random.default_rng(seed).random(scale.values.shape) < 0.3
    got = S.check_adapted(model, scale, mask if marked else None, n=n)
    worst, checked = _old_check_adapted(
        model, scale, mask if marked else np.ones_like(mask), n)
    assert _bits(got.c_measured) == _bits(worst)
    assert got.pairs_checked == checked


@settings(max_examples=15, deadline=None)
@given(model=models(_ANY_FORBIDDEN), n=st.integers(0, 3),
       extra=st.integers(1, 6), kappa=st.floats(0.05, 1.5),
       q=st.sampled_from((None, 3, 5)))
def test_grid_walk_matches_uniform_set(model, n, extra, kappa, q):
    horizon = n + extra
    eps = None if q is None else 2.0 ** -q
    rep = S.uniform_set(model, n, kappa, horizon, eps)
    shape = (len(model.intervals), model.grid_size + 1)
    cutoff = (np.full(shape, horizon, dtype=int) if eps is None else
              np.minimum(S.matching_scale(model, eps).steps, horizon))
    assert np.array_equal(rep.mask,
                          _old_uniform_mask(model, n, kappa, horizon, cutoff))


@settings(max_examples=15, deadline=None)
@given(model=models(_ANY_FORBIDDEN), n1=st.integers(1, 4), m=st.integers(1, 5),
       seed=st.integers(0, 99))
def test_grid_walk_matches_recurrence_rate(model, n1, m, seed):
    shape = (len(model.intervals), model.grid_size + 1)
    mask = np.random.default_rng(seed + 7).random(shape) < 0.4
    rep = S.recurrence_rate(model, mask, n1, m)
    counts = _old_recurrence_counts(model, mask, n1, m, S.RECURRENCE_TRIALS,
                                    0)
    assert [r[1] for r in rep.rows] == [float((counts < k * m).mean())
                                        for k in S.RECURRENCE_KAPPAS]


@PROPS
@given(model=models(_ANY_FORBIDDEN))
def test_stacked_node_sampling_matches_per_row_stack(model):
    nodes = model.nodes()
    assert np.array_equal(nodes, _old_stacked(model, lambda x: x))
    for fn in (model.roof, model.mu, model.slope_at, model.det_step,
               lambda x: np.log(model.roof(x))):
        assert _bits(fn(nodes)) == _bits(_old_stacked(model, fn))


def _old_interval_of(model, x):
    """The interval id of one point by the scalar rule: floor(x), except
    that the right end of the last interval belongs to it."""
    idx = int(math.floor(x))
    last = len(model.intervals) - 1
    if not 0 <= idx <= last:
        if x == model.lefts[last] + 1.0:
            idx = last
        else:
            raise ModelError(f"coordinate {x!r} outside the phase space")
    return model.intervals[idx]


@PROPS
@given(model=models(_ANY_FORBIDDEN),
       xs=st.lists(st.one_of(st.floats(-1.5, 4.5),
                             st.sampled_from((-1e-300, 0.0, -0.0, 1.0, 2.0,
                                              3.0, np.nextafter(1.0, 0.0)))),
                   min_size=1, max_size=10))
def test_interval_of_is_interval_index_of_one_point(model, xs):
    """The interval of a point, read as model.intervals[interval_index(x)],
    follows the scalar rule, and one point indexes as a batch of them."""
    for x in xs:
        try:
            ref = _old_interval_of(model, x)
        except ModelError:
            with pytest.raises(ModelError, match="outside the phase space"):
                model.interval_index(x)
            continue
        k = model.interval_index(x)
        assert k.shape == () and model.intervals[int(k)] == ref
        assert model.interval_index(np.array([x, x])).tolist() == [int(k)] * 2


@pytest.mark.parametrize("family", ("doubling", "markov3"))
@pytest.mark.parametrize("x", (math.nan, math.inf, -math.inf))
def test_interval_of_rejects_nan_and_infinity(family, x):
    model = build_model(ModelConfig(family, grid_size=64))
    for pts in (x, [0.5, x], np.full((2, 2), x)):
        with pytest.raises(ModelError, match="outside the phase space"):
            model.interval_index(pts)


@PROPS
@given(model=models(_ANY_FORBIDDEN))
def test_interval_layout_agrees_with_itself(model):
    """Ids, lefts and the node grid list the same intervals in one order,
    and each grid row indexes back to its own interval."""
    nodes = model.nodes()
    assert len(model.intervals) == len(model.lefts) == nodes.shape[0]
    assert model.intervals == (("u",) if model.config.family == "doubling"
                               else ("0", "1", "2"))
    for k, row in enumerate(nodes):
        assert (model.interval_index(row[:-1]) == k).all()


# ---------------------------------------------------------------------------
# branch structure as model arrays


@dataclass(frozen=True)
class _OldBranch:
    """One inverse-branch instance v: U_domain -> U_target,
    v(y) = y/slope + offset, as build_model used to keep them."""

    sym: str
    domain: str
    target: str
    slope: float
    offset: float

    def __call__(self, y):
        return np.asarray(y, dtype=float) / self.slope + self.offset


def _old_branches(model):
    """The branch-instance list build_model kept before the arrays, in
    (symbol, domain) order."""
    if model.config.family == "doubling":
        return (_OldBranch("0", "u", "u", 2.0, 0.0),
                _OldBranch("1", "u", "u", 2.0, 0.5))
    names = ("0", "1", "2")
    forb = {tuple(f.split(">")) for f in model.config.forbidden}
    branch_list = []
    for a in names:
        outs = tuple(b for b in names if (a, b) not in forb)
        d = len(outs)
        la = float(model.lefts[names.index(a)])
        for j, b in enumerate(outs):
            lb = float(model.lefts[names.index(b)])
            offset = la + j / d - lb / d
            branch_list.append(_OldBranch(a, b, a, float(d), offset))
    return tuple(sorted(branch_list, key=lambda br: (br.sym, br.domain)))


def _old_by_sym_domain(model):
    return {(b.sym, b.domain): b for b in _old_branches(model)}


def _old_fiber_branches(model, domain):
    return tuple(sorted((b for b in _old_branches(model) if b.domain == domain),
                        key=lambda br: br.offset))


def _old_forward_table(model):
    """interval id -> (out-degree, lefts of the slice targets in order), as
    build_model laid it out before the arrays."""
    if model.config.family == "doubling":
        return {"u": (2, np.array([0.0, 0.0]))}
    names = ("0", "1", "2")
    forb = {tuple(f.split(">")) for f in model.config.forbidden}
    table = {}
    for a in names:
        outs = tuple(b for b in names if (a, b) not in forb)
        table[a] = (len(outs), np.array([model.lefts[names.index(b)]
                                         for b in outs]))
    return table


def _seam_points(model):
    """Slice seams, both ends of every interval and the last right end."""
    pts = []
    for iid, left in zip(model.intervals, model.lefts.tolist()):
        d = _old_forward_table(model)[iid][0]
        pts += [left + j / d for j in range(d)]
        pts += [np.nextafter(left + j / d, -np.inf) for j in range(1, d)]
        pts += [np.nextafter(left + 1.0, 0.0)]
    return pts + [left + 1.0]


@PROPS
@given(model=models(_ANY_FORBIDDEN), data=point_lists)
def test_forward_and_slope_of_one_point_match_batch(model, data):
    """forward and slope_at of one point return a Python float with the
    bits of that point in a 1-d and in a 2-d batch, seams and ends
    included."""
    xs = np.concatenate([_points(data, model), _seam_points(model)])
    for fn in (model.forward, model.slope_at):
        batch = fn(xs)
        assert _bits(fn(xs.reshape(1, -1))[0]) == _bits(batch)
        for x, want in zip(xs.tolist(), batch.tolist()):
            got = fn(x)
            assert type(got) is float and _bits(got) == _bits(want)


@PROPS
@given(model=models(_ANY_FORBIDDEN))
def test_branch_arrays_match_branch_instances(model):
    assert model.lefts.tolist() == list(range(len(model.intervals)))
    for k, (d, lefts) in enumerate(_old_forward_table(model).values()):
        assert model.out_degree[k] == d
        assert _bits(model.slice_lefts[k, :d]) == _bits(lefts)
        assert np.isnan(model.slice_lefts[k, d:]).all()
    old = _old_by_sym_domain(model)
    instances = np.argwhere(~np.isnan(model.branch_slope)).tolist()
    assert [(model.alphabet[i], model.intervals[k])
            for i, k in instances] == [(b.sym, b.domain)
                                       for b in _old_branches(model)]
    for i, a in enumerate(model.alphabet):
        targets = set()
        for k, iid in enumerate(model.intervals):
            inst = old.get((a, iid))
            fiber = _old_fiber_branches(model, iid)
            assert (inst in fiber) == (inst is not None)
            if inst is None:
                assert np.isnan(model.branch_slope[i, k])
                assert np.isnan(model.branch_offset[i, k])
                continue
            assert _bits(model.branch_slope[i, k]) == _bits(inst.slope)
            assert _bits(model.branch_offset[i, k]) == _bits(inst.offset)
            targets.add(inst.target)
        assert targets == {model.intervals[model.symbol_target[i]]}
    for k, iid in enumerate(model.intervals):
        fiber = {b.sym for b in _old_fiber_branches(model, iid)}
        assert fiber == {a for i, a in enumerate(model.alphabet)
                         if not np.isnan(model.branch_slope[i, k])}
    # the walk tables hold the branch tables as views, NaN past the
    # alphabet, and each byte's next step base
    k = len(model.alphabet)
    for branch, walk in ((model.branch_slope, model.walk_slope),
                         (model.branch_offset, model.walk_offset)):
        assert np.shares_memory(branch, walk)
        assert _bits(walk[:, :k]) == _bits(branch.T)
        assert np.isnan(walk[:, k:]).all()
    assert (model.walk_next[:, :k] == 256 * model.symbol_target).all()
    assert not model.walk_next[:, k:].any()
    for arr in (model.lefts, model.out_degree, model.slice_lefts,
                model.branch_slope, model.branch_offset, model.symbol_target,
                model.transitions, model.walk_slope, model.walk_offset,
                model.walk_next):
        with pytest.raises(ValueError):
            arr[0] = 0


@PROPS
@given(model=models(_ANY_FORBIDDEN), k=st.integers(1, 3))
def test_branch_table_readers_match_branch_list(model, k):
    old = _old_branches(model)
    stencils = _old_build_stencils(model)
    assert len(stencils) == len(old)
    for sten, b in zip(stencils, old):
        assert sten.domain_idx == model.intervals.index(b.domain)
        assert sten.target_idx == model.intervals.index(b.target)
        assert _bits(sten.y) == _bits(b(model.nodes()[sten.domain_idx]))
    word, contr, off, tgt, first = C.all_words(model, k)
    for idx, iid in enumerate(model.intervals):
        ref = [("", 1.0, 0.0, iid)]
        for _ in range(k):
            ref = [(b.sym + w, c / b.slope, o / b.slope + b.offset, b.target)
                   for w, c, o, dom in ref
                   for b in _old_fiber_branches(model, dom)]
        rows = slice(first[idx], first[idx + 1])
        assert (list(zip(M._decode_words(word[rows], model.alphabet),
                         tgt[rows].tolist()))
                == [(w, model.intervals.index(t)) for w, _, _, t in ref])
        assert (_bits(np.stack([contr[rows], off[rows]], axis=1))
                == _bits([r[1:3] for r in ref]))


def _old_walk_word(model, word, x, roof_sum):
    scalar = np.isscalar(x)
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    dom = model.intervals[int(model.interval_index(xv.flat[0]))]
    total = np.zeros_like(xv)
    cur = xv
    old = _old_by_sym_domain(model)
    for sym in reversed(word):
        if (sym, dom) not in old:
            raise ModelError(f"no branch {sym!r} with domain {dom!r}")
        br = old[(sym, dom)]
        cur = br(cur)
        dom = br.target
        total = total + np.asarray(model.roof(cur))
    out = total if roof_sum else cur
    return float(out[0]) if scalar else out


def _walk_rows(model, words, ys, roof_sum):
    """The shared walk over the rows of words, one point of ys each."""
    total, cur = np.zeros_like(ys), ys
    for cur in M._walk_words(model, M._encode_words(model, words), ys,
                             model.interval_index(ys), words):
        total = total + np.asarray(model.roof(cur))
    return total if roof_sum else cur


def _outcome(fn, *args):
    try:
        return "value", _bits(fn(*args))
    except ModelError as exc:
        return "error", str(exc)


@PROPS
@given(model=models(_ANY_FORBIDDEN), data=point_lists, n=st.integers(0, 4),
       pick=st.integers(0, 10 ** 6))
# 0>0 failures in both positions of some rows and a "9" in another;
# rows 0 and 1 failing with different errors in one position
@example(model=build_model(ModelConfig("markov3", roof=(2.0, 0.0, 0.0, 0.0),
                                       grid_size=64, forbidden=("0>0",))),
         data=[(0, 0.0)], n=2, pick=0)
@example(model=build_model(ModelConfig("markov3", roof=(2.0, 0.0, 0.0, 0.0),
                                       grid_size=64, forbidden=("0>0",))),
         data=[(0, 0.0)], n=1, pick=7)
def test_word_walk_matches_scalar_loop(model, data, n, pick):
    words = _admissible_words(model, n) if n else [""]
    word = words[pick % len(words)] + ("9" if pick % 7 == 0 else "")
    xs = np.concatenate([_points(data, model), _seam_points(model)])
    for x in [xs] + xs.tolist():
        dom = int(model.interval_index(np.atleast_1d(x)[0]))
        for roof_sum, fast in ((False, model.apply_word),
                               (True, model.roof_sum_on_word)):
            ref = _outcome(_old_walk_word, model, word, x, roof_sum)
            assert _outcome(fast, word, x) == ref
            if roof_sum:
                assert _outcome(fast, word, x, dom) == ref
    # every word of length n, admissible or not, as one batch of rows, one
    # point per row, sometimes with a "9" inside one row: the batch raises
    # the error the walk meets first (the rightmost failing position, then
    # the first row), and the rows that walk alone give the same bits
    batch = list(map("".join, itertools.product(model.alphabet, repeat=n)))
    if n and pick % 7 == 0:
        w, j = batch[pick % len(batch)], pick % n
        batch[pick % len(batch)] = w[:j] + "9" + w[j + 1:]
    ys = xs[np.arange(len(batch)) % len(xs)]
    # a word fails at position j when walking its suffix from j fails
    fails = [max((j for j in range(n) if _outcome(
        _old_walk_word, model, w[j:], y, False)[0] == "error"), default=-1)
        for w, y in zip(batch, ys.tolist())]
    ok = [i for i, f in enumerate(fails) if f < 0]
    for roof_sum in (False, True):
        ref = [_outcome(_old_walk_word, model, w, y, roof_sum)
               for w, y in zip(batch, ys.tolist())]
        got = _outcome(_walk_rows, model, batch, ys, roof_sum)
        assert got == (ref[fails.index(max(fails))] if max(fails) >= 0
                       else ("value", [bits for _, bits in ref]))
        assert (_outcome(_walk_rows, model, [batch[i] for i in ok], ys[ok],
                         roof_sum) == ("value", [ref[i][1] for i in ok]))


@pytest.mark.parametrize("words, message", [
    # walked right to left from U_0: row 0 meets 1>2 at its second symbol
    # (whose domain is the third symbol's target) before row 1 meets its
    # unknown "9" at its first
    (["0122", "9200"], "no branch '1' with domain '2'"),
    # row 0's unknown "9", on the domain of the "2" after it, is met
    # before row 1 meets 1>2 at its first symbol
    (["0192", "1200"], "no branch '9' with domain '2'"),
])
def test_word_steps_name_the_first_missing_branch(words, message):
    model = build_model(ModelConfig("markov3", grid_size=64,
                                    forbidden=("1>2",)))
    rows, dom = M._encode_words(model, words), np.zeros(2, int)
    with pytest.raises(ModelError, match=message):
        list(M._word_steps(model, rows, dom, words))
    if "9" not in message:          # rows alone name the alphabet symbol
        with pytest.raises(ModelError, match=message):
            list(M._word_steps(model, rows, dom))


def test_temporal_distance_looks_up_the_domain_once(monkeypatch):
    model = build_model(ModelConfig("markov3", roof=(2.0, 0.1, 0.3, -0.2),
                                    grid_size=64, forbidden=("2>1",)))
    x, w1, w2 = 1.3, "0120", "2200"
    zs = x + np.arange(16) / 64

    t1z, t2z, t1x, t2x = (_old_walk_word(model, w, p, True)
                          for p in (zs, x) for w in (w1, w2))
    ref = (t1z - t1x) - (t2z - t2x)
    calls = []
    lookup = type(model).interval_index
    monkeypatch.setattr(type(model), "interval_index",
                        lambda self, y: calls.append(y) or lookup(self, y))
    got = S.temporal_distance(model, x, w1, w2, zs)
    assert len(calls) == 1
    assert _bits(got) == _bits(ref)


def test_pressure_at_zero_counts_branches():
    # P(-0 tau) is the log of the number of inverse branches at each point
    for family, count in (("doubling", 2), ("markov3", 3)):
        model = build_model(ModelConfig(family, grid_size=64))
        assert T.pressure(model, 0.0) == math.log(count)


# ---------------------------------------------------------------------------
# batched dichotomy and bump placement

_OldDichotomy = namedtuple("_OldDichotomy", "kind word max_ratio min_ratio "
                                            "omega spread weight")
_KIND_NAMES = {C.SMALL: "small", C.ALIGNED: "aligned",
               C.INDETERMINATE: "indeterminate"}


def _old_circular_stats(phases):
    z = np.exp(1j * phases).mean()
    if abs(z) < 1e-12:
        return 0.0, math.pi
    omega = cmath.phase(z)
    return omega % (2 * math.pi), float(S._torus_dist(phases - omega).max())


def _old_dichotomy_test(model, rpf, u, big_h, span, word_item, kappa6, tables):
    """One (span, branch) pair per call, as dichotomy_test was written."""
    word, contr, off, tgt = word_item
    left, right = span
    n = model.grid_size
    r = model.intervals.index(tgt)
    t_left = float(model.lefts[r])
    g_lo = max(0, int(math.floor((contr * left + off - t_left) * n)))
    g_hi = min(n, int(math.ceil((contr * right + off - t_left) * n)))
    win = slice(g_lo, g_hi + 1)
    uz = u[r, win]
    ratios = np.abs(uz) / big_h[r, win]
    max_ratio = float(ratios.max())
    min_ratio = float(ratios.min())
    weights, roof_sums = tables
    w_mean = float(weights[r, win].mean())
    if max_ratio <= C.SMALL_FACTOR:
        return _OldDichotomy("small", word, max_ratio, min_ratio, None,
                             0.0, w_mean)
    if min_ratio >= 1.0 / C.C9_DEFAULT:
        phases = rpf.b * roof_sums[r, win] + np.angle(uz)
        omega, spread = _old_circular_stats(phases)
        if spread <= C.ALIGN_SPREAD * kappa6:
            return _OldDichotomy("aligned", word, max_ratio, min_ratio,
                                 omega, spread, w_mean)
        return _OldDichotomy("indeterminate", word, max_ratio, min_ratio,
                             omega, spread, w_mean)
    return _OldDichotomy("indeterminate", word, max_ratio, min_ratio, None,
                         math.pi, w_mean)


def _old_pair_plan(model, b, f_hat, y, aligned, u, big_h, kappa6, n1):
    """_pair_plan as it took a list of (dichotomy, word item) pairs."""
    if len(aligned) < 2:
        return None
    omegas = np.array([t.omega for t, _ in aligned])
    i, j = np.triu_indices(len(aligned), 1)
    gaps = S._torus_dist(omegas[i] - omegas[j])
    k = int(np.argmax(gaps))
    if gaps[k] <= 0.5 * kappa6:
        return None
    (t1, w1), (t2, w2) = aligned[i[k]], aligned[j[k]]
    if t1.weight > t2.weight:
        (t1, w1), (t2, w2) = (t2, w2), (t1, w1)
    z1 = w1[1] * y + w1[2]
    z2 = w2[1] * y + w2[2]
    r1 = model.intervals.index(w1[3])
    r2 = model.intervals.index(w2[3])
    ph1 = b * np.asarray(model.birkhoff_sum(model.roof, z1, n1)) \
        + np.angle(T._read_rows(model, u, r1, z1))
    ph2 = b * np.asarray(model.birkhoff_sum(model.roof, z2, n1)) \
        + np.angle(T._read_rows(model, u, r2, z2))
    j1 = C._pair_window(ph1 - ph2, kappa6)
    if j1 is None:
        return None
    lo = int(round(j1[0] * (len(y) - 1)))
    hi = max(lo + 1, int(round(j1[1] * (len(y) - 1))))
    sel = slice(lo, hi + 1)
    g1 = C._orbit_weight(model, f_hat, z1[sel], n1, r1) * np.abs(
        T._read_rows(model, big_h, r1, z1[sel]))
    g2 = C._orbit_weight(model, f_hat, z2[sel], n1, r2) * np.abs(
        T._read_rows(model, big_h, r2, z2[sel]))
    two = np.abs(g1 * np.exp(1j * ph1[sel]) + g2 * np.exp(1j * ph2[sel]))
    room = (g1 + g2 - two) / np.maximum(g1, 1e-300)
    allowed = float(room.min())
    if allowed < 1e-4:
        return None
    return w1, j1, allowed


def _old_place_bump(model, p_vals, core, atom, word_item, j1, kappa5, n,
                    written):
    """One bump per call, as _place_bump wrote it; the flat indices it
    writes are appended to written."""
    left, right, iid = atom
    length = right - left
    word, contr, off, tgt = word_item
    r = model.intervals.index(tgt)
    t_left = float(model.lefts[r])
    img_left = contr * left + off
    img_len = contr * length
    g_lo = int(math.ceil((img_left - t_left) * n - 1e-9))
    g_hi = int(math.floor((img_left + img_len - t_left) * n + 1e-9))
    if g_hi < g_lo:
        return False
    js = np.arange(g_lo, g_hi + 1)
    s = ((t_left + js / n) - img_left) / img_len
    a, b = j1
    width = b - a
    inside = (s >= a) & (s <= b)
    local = np.ones_like(s)
    local[inside] = C.zeta_bump((s[inside] - a) / width, kappa5)
    p_vals[r, js] = np.minimum(p_vals[r, js], local)
    written.extend((r * (n + 1) + js).tolist())
    c_lo, c_hi = a + 0.25 * width, a + 0.75 * width
    own = float(model.lefts[iid])
    a_lo = int(math.ceil((left + c_lo * length - own) * n))
    a_hi = int(math.floor((left + c_hi * length - own) * n))
    if a_hi >= a_lo:
        core[iid, a_lo:a_hi + 1] = True
    return True


def _old_build_cancellation(model, rpf, part, u, big_h, omega_atoms, n1,
                            kappa5, kappa6):
    """The per-atom, per-branch loop build_cancellation ran: (p_values,
    core_mask, records, retries, kappa5, skipped, written nodes)."""
    n = model.grid_size
    f_hat = rpf.f_ab_grid
    tables = C._dichotomy_tables(model, f_hat, n1)
    words = [_old_all_words(model, iid, n1) for iid in model.intervals]
    plans = []
    marked = 0
    for ai in omega_atoms:
        marked += 1
        left, right, _, _, iid, j_lo, j_hi = part.atoms[ai].item()
        atom = (left, right, iid)
        ws = words[iid]
        tests = [_old_dichotomy_test(model, rpf, u, big_h, (left, right), w,
                                     kappa6, tables) for w in ws]
        smalls = [(t, w) for t, w in zip(tests, ws) if t.kind == "small"]
        if smalls:
            _, w = min(smalls, key=lambda tw: tw[0].max_ratio)
            plans.append((ai, atom, "small", w, (0.0, 1.0), None))
            continue
        aligned = [(t, w) for t, w in zip(tests, ws) if t.kind == "aligned"]
        y = model.lefts[iid] + np.arange(j_lo, j_hi + 1) / n
        pair = _old_pair_plan(model, rpf.b, f_hat, y, aligned, u, big_h,
                              kappa6, n1)
        if pair is not None:
            plans.append((ai, atom, "paired") + pair)
    for retries in range(C.SHRINK_RETRIES + 1):
        p_vals = np.ones_like(big_h)
        core = np.zeros(big_h.shape, dtype=bool)
        records, written = [], []
        for ai, atom, case, w, window, room in plans:
            kap = kappa5 if room is None else min(kappa5, 0.5 * room, 0.2499)
            if _old_place_bump(model, p_vals, core, atom, w, window, kap, n,
                               written):
                records.append((ai, case, w[0], window, kap))
        ratio = C.cone_ratio(model, part.scale, p_vals)
        if ratio <= 1.0:
            skipped = marked - len({r[0] for r in records})
            return p_vals, core, records, retries, kappa5, skipped, written
        kappa5 = kappa5 / (ratio * 1.05)
    raise AssertionError("cutoff never fit the cone")


def _dichotomy_field(model, rpf, n1, seed, level, jitter, noise):
    """(u, H): |u|/H = level up to a relative jitter; the summand phase
    b tau_n1 + arg u is one random direction plus Gaussian noise."""
    rng = np.random.default_rng(seed)
    shape = (len(model.intervals), model.grid_size + 1)
    big_h = np.exp(0.3 * rng.normal(size=shape))
    ratio = level * (1.0 + jitter * rng.uniform(-1.0, 1.0, shape))
    _, roof_sums = C._dichotomy_tables(model, rpf.f_ab_grid, n1)
    phase = (rng.uniform(0.0, 2 * math.pi) - rpf.b * roof_sums
             + noise * rng.normal(size=shape))
    return big_h * ratio * np.exp(1j * phase), big_h


# dichotomy_test sums each window mean by np.add.reduceat, where the
# per-pair loop took numpy's pairwise .mean(): the same terms in another
# order.  Windows hold at most grid_size + 1 <= 257 points here, so a mean
# moves by at most about 257 ulps of its terms' modulus; the mean
# direction moves by that over the modulus of the circular mean.
ANGLE_TOL = 1e-10      # omega (on the torus) and spread, in radians
WEIGHT_RTOL = 1e-12    # the mean branch weight, relative


@PROPS
@given(model=models(), n1=st.integers(1, 2), b=st.floats(2.5, 300.0),
       seed=st.integers(0, 2 ** 16),
       level=st.sampled_from((0.0, 0.2, 0.25, 0.5, 0.74, 0.75, 0.76, 1.0,
                              1.5)),
       jitter=st.sampled_from((0.0, 1e-3, 0.3)),
       noise=st.sampled_from((0.0, 1e-4, 4e-4, 1e-3, 1.0)),
       kappa6=st.sampled_from((0.01, 0.05, 0.099)),
       spans=st.lists(st.tuples(st.integers(0, 2), st.floats(0.0, 0.999),
                                st.floats(0.001, 1.0)), max_size=8))
def test_batched_dichotomy_matches_per_pair_loop(model, n1, b, seed, level,
                                                 jitter, noise, kappa6, spans):
    rpf = R.build_rpf(model, 0.0, b)
    u, big_h = _dichotomy_field(model, rpf, n1, seed, level, jitter, noise)
    _dichotomy_against_loop(model, rpf, u, big_h, n1, kappa6, spans)


def _dichotomy_against_loop(model, rpf, u, big_h, n1, kappa6, spans):
    """dichotomy_test over every n1-step branch of a whole interval, then
    of each (interval, start, fraction) span, against the per-pair loop:
    the load columns bit for bit, the means within the tolerances above.
    Returns the loop's rows as columns, one array per _OldDichotomy
    field."""
    tables = C._dichotomy_tables(model, rpf.f_ab_grid, n1)
    # a whole interval first: windows of grid_size / 3**n1 points and more
    cols, old = [], []
    for i, a, frac in [(0, 0.0, 1.0)] + spans:
        r = i % len(model.intervals)
        t0 = float(model.lefts[r])
        span = (t0 + a, t0 + a + (1.0 - a) * frac)
        for w in _old_all_words(model, model.intervals[r], n1):
            cols.append(span + (w[1], w[2], model.intervals.index(w[3])))
            old.append(_old_dichotomy_test(model, rpf, u, big_h, span, w,
                                           kappa6, tables))
    left, right, contr, off, tgt = map(np.array, zip(*cols))
    res = C.dichotomy_test(model, rpf, u, big_h, left, right, contr, off,
                           tgt, kappa6, tables)
    assert len(res) == len(old)
    ref = _OldDichotomy(*map(np.array, zip(*old)))
    assert _bits(res.max_ratio) == _bits(ref.max_ratio)
    assert _bits(res.min_ratio) == _bits(ref.min_ratio)
    # a kind may flip only where the spread sits on the alignment threshold
    on_edge = np.abs(ref.spread - C.ALIGN_SPREAD * kappa6) <= ANGLE_TOL
    kinds = np.array([_KIND_NAMES[k] for k in res.kind.tolist()])
    assert np.all((kinds == ref.kind) | on_edge)
    has = np.array([t.omega is not None for t in old])
    assert np.array_equal(~np.isnan(res.omega), has)
    omega = ref.omega[has].astype(float)
    assert np.all(S._torus_dist(res.omega[has] - omega) <= ANGLE_TOL)
    assert np.all(np.abs(res.spread - ref.spread) <= ANGLE_TOL)
    assert np.all(np.abs(res.weight - ref.weight) <= WEIGHT_RTOL * ref.weight)
    return ref


@pytest.mark.parametrize("family", ("doubling", "markov3"))
@pytest.mark.parametrize("delta", (5e-13, 1e-4))
def test_dichotomy_mean_moduli_near_no_direction(family, delta):
    # summand phases delta and pi - delta on alternate nodes, at full load:
    # a window of even length has circular mean i sin(delta), below the
    # 1e-12 of "no direction" (omega 0, spread pi) at 5e-13, though its
    # sum is not, and a direction of pi/2 at 1e-4; odd windows point along
    # 0 or pi
    model = build_model(ModelConfig(family, (2.0, 0.0, 0.5, 0.0),
                                    grid_size=64))
    rpf = R.build_rpf(model, 0.0, 2.5)
    _, roof_sums = C._dichotomy_tables(model, rpf.f_ab_grid, 1)
    phi = np.where(np.arange(model.grid_size + 1) % 2, math.pi - delta, delta)
    u = np.exp(1j * (phi - rpf.b * roof_sums))
    spans = [(i, a, f) for i in range(3) for a in (0.0, 0.13, 0.55)
             for f in (0.37, 0.5)]
    ref = _dichotomy_against_loop(model, rpf, u, np.ones(u.shape), 1, 0.05,
                                  spans)
    assert np.any(ref.spread == math.pi) == (delta < 1e-12)
    up = np.abs(ref.omega - math.pi / 2) < 1e-9
    assert up.any() == (delta > 1e-12)


@PROPS
@given(model=models(), q=st.integers(2, 4), n1=st.integers(1, 2),
       seed=st.integers(0, 2 ** 16), count=st.integers(1, 40),
       chunk=st.sampled_from((C.CHUNK_POINTS, 5)))
def test_batched_bumps_match_one_bump_loop(model, q, n1, seed, count, chunk):
    try:
        part = C.build_partition(model, S.matching_scale(model, 2.0 ** -q))
    except C.EngineError:
        assume(False)
    rng = np.random.default_rng(seed)
    n = model.grid_size
    word, contr, off, tgt, first = C.all_words(model, n1)
    # atoms repeat and neighbours share image nodes: windows overlap
    ai = rng.integers(0, len(part.atoms), count)
    iid = part.atoms.iid[ai]
    rows = first[iid] + rng.integers(0, np.diff(first)[iid])
    whole = rng.random(count) < 0.5
    lo = np.where(whole, 0.0, rng.uniform(0.0, 0.6, count))
    hi = np.where(whole, 1.0, lo + rng.uniform(0.01, 0.4, count))
    kap = rng.uniform(0.001, 0.2499, count)
    shape = (len(model.intervals), n + 1)
    p_old, core_old = np.ones(shape), np.zeros(shape, dtype=bool)
    placed_old = [
        _old_place_bump(model, p_old, core_old,
                        (part.atoms.left[a], part.atoms.right[a],
                         int(part.atoms.iid[a])),
                        (word[r], contr[r], off[r],
                         model.intervals[tgt[r]]),
                        (float(lo[k]), float(hi[k])), float(kap[k]), n, [])
        for k, (a, r) in enumerate(zip(ai.tolist(), rows.tolist()))]
    p_new, core_new = np.ones(shape), np.zeros(shape, dtype=bool)
    plans = np.rec.fromarrays([ai, rows, lo, hi, np.zeros(count), ~whole],
                              dtype=C.PLAN_DTYPE)
    with mock.patch.object(C, "CHUNK_POINTS", chunk):
        placed = C._place_bumps(model, p_new, core_new, part.atoms, contr,
                                off, tgt, plans, kap)
    assert placed.tolist() == placed_old
    assert _bits(p_new) == _bits(p_old)
    assert np.array_equal(core_new, core_old)


def _crafted_field(model, rpf, n1):
    """u whose branches align, with a phase step of 0.8 at the middle of
    each interval and on all of the second one (paired bumps) and a
    quarter of each interval at half modulus (small bumps); H a gentle
    positive wave."""
    _, tau_n = C._dichotomy_tables(model, rpf.f_ab_grid, n1)
    s = np.arange(model.grid_size + 1) / model.grid_size
    u = np.exp(-1j * rpf.b * tau_n)
    u[:, s >= 0.5] *= np.exp(0.8j)
    u[1:2] *= np.exp(0.8j)
    u[:, (s >= 0.2) & (s < 0.45)] *= 0.5
    big_h = np.ones(u.shape) + 0.05 * np.cos(2 * math.pi * s)
    return u, big_h


@pytest.fixture(scope="module")
def certificate_setup():
    """(model, rpf at a = 0 and b = 6, partition) of the sine roof for a
    family and grid size, each built once; the partition is coarse enough
    that kappa5 = 0.2 leaves the cone on both families."""
    built = {}

    def setup(family, grid_size):
        if (family, grid_size) not in built:
            model = build_model(ModelConfig(family, roof=(2.0, 0.0, 0.5, 0.0),
                                            grid_size=grid_size))
            eps = 0.04 if family == "doubling" else 0.08
            built[family, grid_size] = (
                model, R.build_rpf(model, 0.0, 6.0),
                C.build_partition(model, S.matching_scale(model, eps)))
        return built[family, grid_size]
    return setup


@pytest.mark.parametrize("chunk", (C.CHUNK_POINTS, 7))
@pytest.mark.parametrize("kappa5", (0.05, 0.2))
@pytest.mark.parametrize("family", ("doubling", "markov3"))
def test_build_cancellation_matches_per_atom_loop(certificate_setup, family,
                                                  kappa5, chunk):
    model, rpf, part = certificate_setup(family, 1024)
    n1 = C.choose_n1(model, part)
    u, big_h = _crafted_field(model, rpf, n1)
    marked = frozenset(range(len(part.atoms))) - {1, 5}
    p_old, core_old, rec_old, retries, kap, skipped, written = \
        _old_build_cancellation(model, rpf, part, u, big_h, marked, n1,
                                kappa5, 0.09)
    with mock.patch.object(C, "CHUNK_POINTS", chunk), \
            mock.patch.object(C, "dichotomy_test",
                              wraps=C.dichotomy_test) as batches:
        canc = C.build_cancellation(model, rpf, part, u, big_h, marked, n1,
                                    kappa5, 0.09)
    # one batch at the default bound; one per atom when no two atoms fit
    assert batches.call_count == (1 if chunk == C.CHUNK_POINTS
                                  else len(marked))
    assert _bits(canc.p_values) == _bits(p_old)
    assert np.array_equal(canc.core_mask, core_old)
    assert [(int(r.atom_index), str(r.case), r.word,
             (float(r.lo), float(r.hi)), _bits(r.kappa5))
            for r in canc.records] == [r[:4] + (_bits(r[4]),)
                                       for r in rec_old]
    assert canc.retries == retries
    assert _bits(canc.kappa5) == _bits(kap)
    assert canc.skipped == skipped
    assert canc.bumped_atoms == frozenset(r[0] for r in rec_old)
    # the fixture reaches every case the placement has to get right
    cases = {r[1] for r in rec_old}
    assert cases == {"small", "paired"}
    # dyadic images of neighbouring atoms share their end nodes; triadic
    # ones miss the power-of-two grid (repeated atoms in
    # test_batched_bumps_match_one_bump_loop overlap on both families)
    assert (len(written) > len(set(written))) == (family == "doubling")
    assert (retries >= 1) == (kappa5 == 0.2)         # a kappa5 shrink


# ---------------------------------------------------------------------------
# walks done once: temporal distances, the certificate step, the word table


def _old_temporal_distance(model, x, w1, w2, z):
    """temporal_distance as six walks: a check walk of each word from the
    left end of the interval of x, then each word over z and over x."""
    if len(w1) != len(w2):
        raise ModelError("temporal distance needs words of equal length")
    if not w1 or w1 == w2:
        raise ModelError("temporal distance needs two distinct nonempty words")
    dom = int(model.interval_index(float(x)))
    left = float(model.lefts[dom])
    for w in (w1, w2):
        try:
            model.apply_word(w, left)
        except ModelError:
            raise ModelError(f"word {w!r} not applicable at interval "
                             f"{model.intervals[dom]!r}") from None
    zv = np.atleast_1d(np.asarray(z, dtype=float))
    if (zv < left - 1e-12).any() or (zv > left + 1.0 + 1e-12).any():
        raise ModelError("probe points must stay in the interval of x")
    t1z = model.roof_sum_on_word(w1, zv, dom)
    t2z = model.roof_sum_on_word(w2, zv, dom)
    t1x = model.roof_sum_on_word(w1, float(x), dom)
    t2x = model.roof_sum_on_word(w2, float(x), dom)
    out = (t1z - t1x) - (t2z - t2x)
    return float(out[0]) if np.isscalar(z) else out


def _applies(model, word, domain):
    try:
        model.apply_word(word, float(model.lefts[domain]))
    except ModelError:
        return False
    return True


@PROPS
@given(model=models(_ANY_FORBIDDEN), data=point_lists, n=st.integers(1, 4),
       pick=st.tuples(*[st.integers(0, 10 ** 6)] * 3), scalar=st.booleans(),
       variant=st.integers(0, 10))
@example(model=build_model(ModelConfig("markov3", roof=(2.0, 0.1, 0.3, 0.2),
                                       grid_size=64, forbidden=("2>2",))),
         data=[(2, 0.5)], n=2, pick=(1, 7, 3), scalar=False, variant=0)
@example(model=build_model(ModelConfig("markov3", roof=(2.0, 0.1, 0.3, 0.2),
                                       grid_size=64, forbidden=("2>2",))),
         data=[(2, 0.5)], n=2, pick=(1, 7, 3), scalar=False, variant=10)
def test_temporal_distance_walks_each_word_once(model, data, n, pick,
                                                scalar, variant):
    xs = np.concatenate([_points(data, model), _seam_points(model)])
    x = float(xs[pick[0] % len(xs)])
    dom = int(model.interval_index(x))
    left, right = float(model.lefts[dom]), float(model.lefts[dom]) + 1.0
    zs = [p for p in xs if left <= p <= right]
    words = list(map("".join, itertools.product(model.alphabet, repeat=n)))
    ok = [w for w in words if _applies(model, w, dom)]
    bad = [w for w in words if w not in ok] + [words[0][:-1] + "9"]
    i = pick[1] % len(ok)
    w1 = ok[i]
    w2 = ok[(i + 1 + pick[2] % (len(ok) - 1)) % len(ok)]
    # variants 0-5 are valid; 6-9 each break one requirement, and 10 makes
    # both words inapplicable (the error names w1)
    if variant == 6:
        zs.append(right + 1e-9)            # a probe outside the interval
    elif variant == 7:
        w2 = bad[pick[2] % len(bad)]       # not applicable at dom
    elif variant == 8:
        w2 = w1
    elif variant == 9:
        w1 += w1[-1]
    elif variant == 10:
        w1, w2 = (bad[(pick[2] + d) % len(bad)] for d in (0, 1))
    z = zs[pick[1] % len(zs)] if scalar else np.array(zs)
    with mock.patch.object(M, "_walk_words",
                           side_effect=M._walk_words) as walks:
        got = _outcome(S.temporal_distance, model, x, w1, w2, z)
    assert got == _outcome(_old_temporal_distance, model, x, w1, w2, z)
    if got[0] == "value":
        assert walks.call_count == 1        # w1 and w2 as one 2-row table


# ---------------------------------------------------------------------------
# contrast profiles as one table: the UNI scan and the tameness check


def _old_chart(eps, x, side, lam, n_s):
    """x + side s / lam at s = k / n_s, k < n_s; the scans' ScaleError
    when two of the points coincide, the window lying below the float
    spacing at x."""
    zs = x + side * (np.arange(n_s) / n_s) / lam
    if np.any(np.diff(zs) == 0.0):
        raise S.ScaleError(
            f"chart window 1/{lam:.6g} at x = {x!r} lies below the float "
            f"spacing there (eps = {eps!r}): its {n_s} points are not all "
            "distinct")
    return zs


def _old_uni_scan(model, scale):
    """uni_scan as one temporal distance, %-form torus distance and
    full-scan margin per (point, pair, side) profile."""
    pts = S._sample_points(model, 12)
    omegas = S.TWO_PI * np.arange(S.UNI_PHASES) / S.UNI_PHASES
    thetas, values = S._stopping_cocycle(model, [x for x, *_ in pts],
                                         scale.eps)
    wits = []
    for (x, r, _), k, lam in zip(pts, thetas.tolist(), values.tolist()):
        sides = S._chart_sides(model, r, x, lam)
        best_x, wit = -1.0, None
        for w1, w2 in S.word_pairs(model, r, k):
            for side in sides:
                zs = _old_chart(scale.eps, x, side, lam, S.UNI_S_POINTS)
                psi = _old_temporal_distance(model, x, w1, w2, zs) / scale.eps
                a = psi[None, :] - omegas[:, None]
                dist = np.abs((a + math.pi) % (2 * math.pi) - math.pi)
                margin, d = _full_best_margin(dist, 32)
                if margin > best_x or wit is None:
                    best_x = margin
                    wit = S.UniWitness(
                        x, int(k), float(lam), margin, (w1, w2), side,
                        float(omegas[d["omega_idx"]]), d["frac"],
                        (d["lo"] / S.UNI_S_POINTS, d["hi"] / S.UNI_S_POINTS),
                        d["dist"])
        wits.append(wit)
    kappa_hat = min(w.kappa_x for w in wits)
    return S.UniCertificate(scale.eps, float(kappa_hat), tuple(wits))


def _old_check_tame(model, scale, samples, admissible_only=False):
    """check_tame as one temporal distance per mixed prefix; with
    admissible_only, a mixed word that does not apply at the interval of
    x is skipped (the frozen loop raises on it)."""
    rows = []
    worst = 0.0
    pts = S._sample_points(model, samples)
    thetas, values = S._stopping_cocycle(model, [x for x, *_ in pts],
                                         scale.eps)
    for (x, r, _), k, lam in zip(pts, thetas.tolist(), values.tolist()):
        side = S._chart_sides(model, r, x, lam)[0]
        zs = _old_chart(scale.eps, x, side, lam, 128)
        lo = S.extreme_word(model, r, k, "low")
        hi = S.extreme_word(model, r, k, "high")
        for j in range(k):
            w2 = lo[:j] + hi[j:]
            if w2 == lo:
                continue
            if admissible_only:
                try:
                    model.apply_word(w2, float(model.lefts[r]))
                except ModelError:
                    continue
            psi = _old_temporal_distance(model, x, lo, w2, zs) / scale.eps
            nrm = S._profile_theta_norm(psi, model.theta)
            off = S.pair_offset(model, x, lo, w2)
            ratio = nrm / off ** S.TAME_KAPPA
            rows.append((x, j, off, nrm, ratio))
            worst = max(worst, ratio)
    return S.TameReport(worst, tuple(rows))


def _affine(model):
    """The model with the sine and cosine terms of its roof dropped."""
    return build_model(replace(model.config,
                               roof=model.config.roof[:2] + (0.0, 0.0)))


# at eps = 2^-5 the sample points stop after 3 or 4 steps, and the last
# one has a chart window on one side only
_ONE_SIDED = build_model(ModelConfig("doubling", (2.0, 0.1, 0.3, 0.0),
                                     mu=(0.3, 0.0, 0.05, 0.0), grid_size=64))


def test_one_sided_fixture_reaches_its_cases():
    scale = S.matching_scale(_ONE_SIDED, 2.0 ** -5)
    pts = S._sample_points(_ONE_SIDED, 12)
    ks, lams = S._stopping_cocycle(_ONE_SIDED, [x for x, *_ in pts],
                                   scale.eps)
    assert set(ks.tolist()) == {3, 4}
    sides = [S._chart_sides(_ONE_SIDED, r, x, lam)
             for (x, r, _), lam in zip(pts, lams.tolist())]
    assert [len(s) for s in sides] == [2] * 11 + [1]


def _uni_outcome(scan, model, scale):
    try:
        return scan(model, scale)
    except S.ScaleError as exc:
        # both stop on a collapsed chart window; the batched scan reads
        # the sample points by stopping index, so it may name another one
        return "collapsed", f"(eps = {scale.eps!r})" in str(exc)


# contraction e^-0.19 per step: at eps 2^-11 the chart windows 1/value
# of both scans lie below the float spacing at some sample points
_SLOW = build_model(ModelConfig("markov3", (2.0, 0.0, 0.0, 0.0),
                                mu=(0.6875, 0.015625, -0.09375, 0.0),
                                grid_size=64, forbidden=("0>0",)))


@PROPS
@given(model=models(_ANY_FORBIDDEN), q=st.integers(4, 12),
       affine=st.booleans())
@example(model=_ONE_SIDED, q=5, affine=False)
@example(model=_ONE_SIDED, q=5, affine=True)
@example(model=_SLOW, q=11, affine=False)
def test_uni_scan_matches_per_profile_loop(model, q, affine):
    # affine roofs give margin 0 on every profile: the witness is then the
    # first pair and first side of each point, as in the loop
    if affine:
        model = _affine(model)
    scale = S.matching_scale(model, 2.0 ** -q)
    got, ref = (_uni_outcome(scan, model, scale)
                for scan in (S.uni_scan, _old_uni_scan))
    assert got == ref
    if isinstance(got, S.UniCertificate):
        assert _bits(got.kappa_hat) == _bits(ref.kappa_hat)


def _tame_outcome(fn, *args):
    try:
        rep = fn(*args)
    except ModelError as exc:
        return "error", str(exc)
    return "value", _bits(rep.c_measured), [_bits(r) for r in rep.rows]


# 0>2 is the one single forbidden transition that puts a forbidden
# junction lo[j-1] -> hi[j] into the mixed words (0 -> 2): the frozen loop
# raises there, and check_tame skips those words
_ZERO_TWO = build_model(ModelConfig("markov3", (2.0, 0.0, 0.5, 0.0),
                                    grid_size=64, forbidden=("0>2",)))


@PROPS
@given(model=models(_ANY_FORBIDDEN), q=st.integers(4, 12),
       samples=st.integers(1, 8), affine=st.booleans())
@example(model=_ONE_SIDED, q=5, samples=6, affine=False)
@example(model=_SLOW, q=11, samples=6, affine=False)
def test_check_tame_matches_per_prefix_loop(model, q, samples, affine):
    if affine:
        model = _affine(model)
    scale = S.matching_scale(model, 2.0 ** -q)
    assert (_tame_outcome(S.check_tame, model, scale, samples)
            == _tame_outcome(_old_check_tame, model, scale, samples,
                             model.config.forbidden == ("0>2",)))


@pytest.mark.parametrize("q", [4, 6, 9, 12])
@pytest.mark.parametrize("affine", [False, True])
def test_check_tame_skips_forbidden_junctions(q, affine):
    model = _affine(_ZERO_TWO) if affine else _ZERO_TWO
    scale = S.matching_scale(model, 2.0 ** -q)
    with pytest.raises(ModelError, match="not applicable at interval"):
        _old_check_tame(model, scale, 6)
    got = _tame_outcome(S.check_tame, model, scale, 6)
    assert got == _tame_outcome(_old_check_tame, model, scale, 6, True)
    assert got[0] == "value" and got[2]


class _CountedOp:
    """An operator that counts its applications."""

    def __init__(self, op):
        self.op, self.calls = op, 0

    def __call__(self, values):
        self.calls += 1
        return self.op(values)


@pytest.mark.parametrize("case", ("bumps", "refused", "signed", "domination"))
@pytest.mark.parametrize("n1", (1, 2))
@pytest.mark.parametrize("family", ("doubling", "markov3"))
def test_certificate_step_pushes_each_array_once(certificate_setup, monkeypatch,
                                                family, n1, case):
    model, rpf, part = certificate_setup(family, 256)
    u, big_h = _crafted_field(model, rpf, n1)
    marked = frozenset(range(len(part.atoms)))
    if case in ("bumps", "signed"):
        canc = C.build_cancellation(model, rpf, part, u, big_h, marked, n1,
                                    0.05, 0.09)
        assert len(canc.records) and canc.core_mask.any()
    else:
        ones = np.ones_like(big_h)
        canc = C.Cancellation(ones, np.zeros(ones.shape, dtype=bool),
                              frozenset(), np.recarray(0, C.BUMP_DTYPE),
                              0.0, 0.0, len(part.atoms), 0.0)
    level = 3.0 if case == "domination" else 0.5
    state = C.MajorantState(0, level * u, C.ConeElement(big_h, part.scale),
                            marked, 2.0)
    pos = rpf.m_op()
    if case == "signed":
        # not a positive operator, so the square comparison fails
        def signed(values):
            out = pos(values)
            return out - 0.99 * np.roll(out, 7, axis=-1)
    else:
        signed = pos
    counted = _CountedOp(signed)
    monkeypatch.setattr(rpf, "_m_op", counted)
    error = {"signed": "square comparison violated",
             "domination": "majorant domination failed"}.get(case)
    if error is None:
        nxt, cs = C.majorant_step(model, rpf, state, canc, n1)
        assert cs.ok and nxt.n == 1
        # no bump keeps the marked atoms, and no bump core gives kappa4 0
        assert nxt.omega_atoms == (canc.bumped_atoms or marked)
        assert case == "bumps" or cs.kappa4 == 0.0
    else:
        with pytest.raises(C.EngineError, match=error):
            C.majorant_step(model, rpf, state, canc, n1)
    assert counted.calls == 3 * n1


@pytest.mark.parametrize("config", [ModelConfig("doubling", grid_size=64)] + [
    ModelConfig("markov3", grid_size=64, forbidden=f) for f in _ANY_FORBIDDEN])
def test_all_words_columns_match_tuple_builder(config):
    model = build_model(config)
    for k in range(9):
        word, contr, off, tgt, first = C.all_words(model, k)
        refs = [_old_all_words(model, iid, k) for iid in model.intervals]
        assert first.tolist() == np.cumsum([0] + list(map(len, refs))).tolist()
        ref = [r for rs in refs for r in rs]
        assert (M._decode_words(word, model.alphabet).tolist()
                == [r[0] for r in ref])
        assert _bits(contr) == _bits([r[1] for r in ref])
        assert _bits(off) == _bits([r[2] for r in ref])
        assert tgt.tolist() == [model.intervals.index(r[3]) for r in ref]


@pytest.fixture(scope="module")
def refining_partitions():
    """(model, partition at eps = 2^-6) of the sine roof on doubling and on
    markov3 with each single forbidden transition, built once."""
    out = []
    for forbidden in (None,) + _ANY_FORBIDDEN:
        config = (ModelConfig("doubling", grid_size=256) if forbidden is None
                  else ModelConfig("markov3", grid_size=256,
                                   forbidden=forbidden))
        model = build_model(replace(config, roof=(2.0, 0.0, 0.5, 0.0)))
        out.append((model, C.build_partition(
            model, S.matching_scale(model, 2.0 ** -6))))
    return out


@pytest.mark.parametrize("block", (C.REFINE_BLOCK, 1024))
def test_check_refining_witness_matches_tuple_lists(refining_partitions,
                                                    block):
    witnesses = 0
    for model, part in refining_partitions:
        with mock.patch.object(C, "REFINE_BLOCK", block):
            for n in range(1, 4):
                got = C.check_refining(model, part, n)
                assert got == _per_atom_refining(model, part, n)
                witnesses += not got[0]
    # several forbidden transitions need two or three steps to refine
    assert witnesses >= 8
