"""Majorant cancellation engine for oscillatory transfer iterations.

The engine tracks a complex iterate u together with a real majorant H and
certifies, step by step, that |u| stays below H while H itself contracts
in L2.  Contraction is extracted from phase cancellation: a scale-adapted
cylinder partition supplies windows, on each window every backward branch
is classified as either carrying a small load (modulus comfortably below
the majorant) or an aligned phase, and in both cases a smooth cutoff P
below one can be multiplied into the majorant without breaking pointwise
domination.  The domination check after every step is the correctness
oracle; any violation raises with a witness instead of being absorbed.

Cutoffs are built from a fixed trapezoid bump: equal to one near the
window edges, 1 - kappa5 on the middle half, linear ramps between.  Bumps
are only placed where the dichotomy certifies room, so with kappa5 below
1/4 the small-branch case is sound by construction and the aligned case
is verified against the explicit two-term sum before the bump is kept.
A model whose oscillation certificate is zero (constant or affine roof)
makes the engine refuse cancellation and run with P identically one.

The partition is one record array with a row per atom and the columns
left, right, depth, lam_lo, iid (interval index), j_lo and j_hi, sorted
by left end, each interval's atoms in one run: an atom is an interval
with its scale data, and keeps no word.  Grid functions are read between
nodes by thermo._read_rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gridfun import norm_theta_b
from .markov import MarkovModel, ModelError, _decode_words, _grow_words
from .rpf import ComplexRPF, build_rpf, slice_holder_norm
from .scales import (ScaleFunction, _torus_dist, _window_min, matching_scale,
                     recurrence_rate, uni_scan)
from .thermo import _read_rows, base_system, grid_orbit

KAPPA5_DEFAULT = 0.05
C9_DEFAULT = 4.0
SMALL_FACTOR = 0.75          # load threshold of the branch dichotomy
ALIGN_SPREAD = 0.01          # phase spread allowed for alignment: kappa6/100
DEPTH_CAP = 40
STEP_CAP = 12                # largest step count choose_n1 and choose_n4 try
SHRINK_RETRIES = 8           # kappa5 shrinks before a cutoff is given up
REFINE_BLOCK = 1 << 18       # branch images per block in check_refining
CHUNK_POINTS = 1 << 16       # window points per dichotomy or bump batch
DOMINATION_TOL = 1e-12
CONE_TOL = 1e-4     # headroom for the central-difference curvature bias


class EngineError(ModelError):
    pass


# ---------------------------------------------------------------------------
# scale-adapted cylinder partitions


# One row per atom, a cylinder inside interval iid: its ends, depth, the
# smallest scale value read on it, the interval index and the inclusive
# grid-node range j_lo..j_hi inside U_iid.
ATOM_DTYPE = np.dtype([("left", float), ("right", float), ("depth", int),
                       ("lam_lo", float), ("iid", int), ("j_lo", int),
                       ("j_hi", int)])


@dataclass(frozen=True)
class CylinderPartition:
    """The atoms as one record array of ATOM_DTYPE columns, sorted by left.

    The intervals are disjoint and sorted, so the atoms of interval k are
    the contiguous run atoms[starts[k]:starts[k + 1]].
    """

    model: MarkovModel
    scale: ScaleFunction
    atoms: np.recarray
    starts: np.ndarray = field(repr=False, compare=False)
    condition_margin: float = 0.0     # max length * inf(scale), <= 1
    half_scale: float = 0.0           # min length * inf(scale) over atoms

    def locate(self, x):
        """Index of the atom containing x (right-continuous at seams);
        vectorized over x."""
        rows = self.model.interval_index(x)
        k = np.searchsorted(self.atoms.left, x, side="right") - 1
        out = np.clip(k, self.starts[rows], self.starts[rows + 1] - 1)
        return int(out) if np.isscalar(x) else out


def _ranges(lo, size):
    """The integer ranges lo[i], ..., lo[i] + size[i] - 1 concatenated, and
    the start of each range in the result."""
    seg = np.cumsum(size) - size
    return np.repeat(lo - seg, size) + np.arange(np.sum(size)), seg


def _chunks(points):
    """Slices of consecutive rows holding at most CHUNK_POINTS points
    together; a row above the bound makes a slice of its own."""
    ends = np.cumsum(points)
    start = 0
    while start < len(ends):
        bound = (ends[start - 1] if start else 0) + CHUNK_POINTS
        stop = max(start + 1, int(np.searchsorted(ends, bound, "right")))
        yield slice(start, stop)
        start = stop


def _atom_scale_ranges(model: MarkovModel, scale: ScaleFunction,
                       iids: np.ndarray, lefts: np.ndarray,
                       rights: np.ndarray):
    """Per atom in interval iids: (lam_lo, j_lo, j_hi), the smallest scale
    value read on the atom and its inclusive grid-node range.

    The scale is read at each atom's left, middle and right end in one
    value_at call, and at the grid nodes inside the atom, whose minima
    come from one reduceat over the concatenated node ranges.
    """
    n = model.grid_size
    iv_lefts = model.lefts[iids]
    j_lo = np.maximum(np.ceil((lefts - iv_lefts) * n - 1e-9), 0).astype(int)
    j_hi = np.minimum(np.floor((rights - iv_lefts) * n + 1e-9), n).astype(int)
    probes = np.stack([lefts, 0.5 * (lefts + rights), rights - 1e-12])
    lam_lo = scale.value_at(probes).min(axis=0)
    has = np.flatnonzero(j_hi >= j_lo)
    nodes, seg = _ranges(iids[has] * (n + 1) + j_lo[has],
                         j_hi[has] - j_lo[has] + 1)
    lam_lo[has] = np.minimum(lam_lo[has], np.minimum.reduceat(
        scale.values.ravel()[nodes], seg))
    return lam_lo, j_lo, j_hi


def build_partition(model: MarkovModel,
                    scale: ScaleFunction) -> CylinderPartition:
    """Refine cylinders until each is shorter than one over its scale.

    Splitting stops as soon as length <= 1 / inf(atom scale) (C1 = 1); a
    scale value is a product of slopes >= 2, so no whole interval stops.
    The refinement runs level by level on arrays, so each level reads the
    scale once; a split cylinder's children follow the offset order of
    the branches into its inner domain.
    """
    # cylinders of one depth: inner domain, containing interval and the
    # affine map contr * x + off
    m = len(model.intervals)
    dom, iid = np.arange(m), np.arange(m)
    contr, off = np.ones(m), np.zeros(m)
    done = []
    for depth in range(DEPTH_CAP + 1):
        lefts = contr * model.lefts[dom] + off
        rights = contr * (model.lefts[dom] + 1.0) + off
        lam_lo, j_lo, j_hi = _atom_scale_ranges(model, scale, iid,
                                                lefts, rights)
        stop = (rights - lefts) * lam_lo <= 1.0
        done.append((lefts[stop], rights[stop], np.full(stop.sum(), depth),
                     lam_lo[stop], iid[stop], j_lo[stop], j_hi[stop]))
        split = np.flatnonzero(~stop)
        if split.size == 0:
            break
        if depth == DEPTH_CAP:
            raise EngineError("partition refinement did not terminate")
        _, dom, parent, slope, b_off = _grow_words(model, "target",
                                                   dom[split])
        parent = split[parent]
        iid = iid[parent]
        contr, off = contr[parent] / slope, contr[parent] * b_off + off[parent]
    atoms = np.rec.fromarrays([np.concatenate(c) for c in zip(*done)],
                              dtype=ATOM_DTYPE)
    atoms = atoms[np.argsort(atoms.left, kind="stable")]
    weight = (atoms.right - atoms.left) * atoms.lam_lo
    part = CylinderPartition(
        model, scale, atoms, np.searchsorted(atoms.iid, np.arange(m + 1)),
        condition_margin=float(weight.max()),
        half_scale=float(weight.min()))
    _verify_partition(part)
    return part


def _verify_partition(part: CylinderPartition) -> None:
    ids = part.model.intervals
    for k, left in enumerate(part.model.lefts.tolist()):
        run = part.atoms[part.starts[k]:part.starts[k + 1]]
        edges = np.concatenate(([left], run.right))
        gaps = np.flatnonzero(np.abs(run.left - edges[:-1]) > 1e-9)
        if gaps.size:
            raise EngineError(f"partition gap at {float(edges[gaps[0]])!r} "
                              f"in U_{ids[k]}")
        if abs(edges[-1] - (left + 1.0)) > 1e-9:
            raise EngineError(f"partition does not reach the end of U_{ids[k]}")
    if part.condition_margin > 1.0 + 1e-9:
        raise EngineError("refinement condition violated")


def all_words(model: MarkovModel, k: int):
    """All admissible length-k words applicable on each interval, as
    columns (word, contraction, offset, target, first), words as rows.

    Row r reproduces v_word(x) = contraction[r] * x + offset[r], mapping
    the interval the word is applied on into the interval of index
    target[r]; the rows of interval i are first[i]:first[i + 1], intervals
    in index order.  The table grows level by level: each row is followed
    by one child per branch whose domain is the row's target, in offset
    order, and the branch is prepended (applied after the composite): the
    one table of word rows.
    """
    m = len(model.intervals)
    word = np.empty((m, 0), np.uint8)
    contr, off = np.ones(m), np.zeros(m)
    tgt = home = np.arange(m)
    for _ in range(k):
        sym, tgt, parent, slope, b_off = _grow_words(model, "domain", tgt)
        word = np.concatenate((sym[:, None], word[parent]), axis=1)
        contr, off = contr[parent] / slope, off[parent] / slope + b_off
        home = home[parent]
    return word, contr, off, tgt, np.searchsorted(home, np.arange(m + 1))


def check_refining(model: MarkovModel, part: CylinderPartition,
                   n: int) -> tuple[bool, tuple | None]:
    """Does every n-step backward branch map each atom inside one atom?

    Atoms are checked in order, a block of them against all words of their
    interval (a slice of the all_words table) at once; the first failing
    pair is the witness, as (atom index, branch word).
    """
    lefts, rights = part.atoms.left, part.atoms.right
    words, w_contr, w_off, _, first = all_words(model, n)
    for i in range(len(model.intervals)):
        rows = slice(first[i], first[i + 1])
        word, contr, off = words[rows], w_contr[rows, None], w_off[rows, None]
        end = part.starts[i + 1]
        block = max(1, REFINE_BLOCK // len(word))
        for start in range(part.starts[i], end, block):
            sel = slice(start, min(start + block, end))
            lo = contr * lefts[sel] + off
            hi = contr * rights[sel] + off
            holder = part.locate(0.5 * (lo + hi))
            bad = (lo < lefts[holder] - 1e-9) | (hi > rights[holder] + 1e-9)
            if bad.any():
                k = int(np.argmax(bad.any(axis=0)))
                j = int(np.argmax(bad[:, k]))
                return False, (start + k, str(_decode_words(
                    word[j:j + 1], model.alphabet)[0]))
    return True, None


def choose_n1(model: MarkovModel, part: CylinderPartition) -> int:
    """Smallest n making the partition refine under n-step preimages, from
    the spread of atom depths (at most STEP_CAP) up to STEP_CAP; the error
    names the last witness: atom, interval, left end and branch word."""
    depth = part.atoms.depth
    least = min(max(1, int(depth.max() - depth.min())), STEP_CAP)
    for n in range(least, STEP_CAP + 1):
        ok, witness = check_refining(model, part, n)
        if ok:
            return n
    k, word = witness
    raise EngineError(
        f"no refining step length up to {STEP_CAP}; the image of atom {k} "
        f"(U_{model.intervals[part.atoms.iid[k]]}, left "
        f"{float(part.atoms.left[k])!r}) under branch word {word!r} lies in "
        "no one atom")


# ---------------------------------------------------------------------------
# cones


@dataclass(frozen=True)
class ConeElement:
    """Positive grid function with chart-rescaled log-slope at most one."""

    values: np.ndarray
    scale: ScaleFunction


def cone_ratio(model: MarkovModel, scale: ScaleFunction,
               values: np.ndarray) -> float:
    """max over grid nodes of |d log h| along unit charts of the scale.

    Central differences inside each interval row, one-sided at row ends.
    """
    if (values <= 0.0).any():
        raise EngineError("cone membership needs a positive function")
    h = 1.0 / model.grid_size
    worst = 0.0
    for row, lam in zip(values, scale.values):
        d = np.empty_like(row)
        d[1:-1] = (row[2:] - row[:-2]) / (2 * h)
        # second-order one-sided ends, same accuracy as the interior
        d[0] = (-3 * row[0] + 4 * row[1] - row[2]) / (2 * h)
        d[-1] = (3 * row[-1] - 4 * row[-2] + row[-3]) / (2 * h)
        ratio = np.abs(d) / (row * lam)
        worst = max(worst, float(ratio.max()))
    return worst


def cone_membership(model: MarkovModel, scale: ScaleFunction,
                    values: np.ndarray) -> tuple[bool, float]:
    """(member, margin): margin is 1 minus the worst rescaled log-slope."""
    ratio = cone_ratio(model, scale, values)
    return ratio <= 1.0 + CONE_TOL, 1.0 - ratio


def cone_element(model: MarkovModel, scale: ScaleFunction,
                 values: np.ndarray) -> ConeElement:
    ratio = cone_ratio(model, scale, values)
    if ratio > 1.0 + CONE_TOL:
        raise EngineError(f"cone condition violated: log-slope ratio {ratio:.3g}")
    return ConeElement(values, scale)


def random_cone_element(model: MarkovModel, scale: ScaleFunction,
                        rng: np.random.Generator) -> np.ndarray:
    """Positive function with rescaled log-slope about 0.9 times the bound."""
    h = 1.0 / model.grid_size
    out = np.empty((len(model.intervals), model.grid_size + 1))
    for k, lam in enumerate(scale.values):
        cap = 0.9 * lam * h
        steps = rng.uniform(-1.0, 1.0, model.grid_size) * cap[:-1]
        # repeated edge increments keep the one-sided stencils on budget
        steps[0] = steps[1]
        steps[-1] = steps[-2]
        logh = np.concatenate([[0.0], np.cumsum(steps)])
        out[k] = np.exp(logh - logh.max())
    return out


@dataclass(frozen=True)
class ConeImageReport:
    trials: int
    min_margin: float
    margins: tuple[float, ...]

    @property
    def ok(self) -> bool:
        return self.min_margin > 0.0


def cone_image_trials(model: MarkovModel, rpf: ComplexRPF,
                      scale: ScaleFunction, m: int, trials: int = 100,
                      seed: int = 0) -> ConeImageReport:
    """Push products of random cone pairs through M^m; collect margins.

    The product of two cone elements can leave the cone (log-slopes add);
    m positive-operator steps must bring it back with room to spare.
    """
    rng = np.random.default_rng(seed)
    pos = rpf.m_op()
    margins = []
    for _ in range(trials):
        h = random_cone_element(model, scale, rng)
        psi = random_cone_element(model, scale, rng)
        cur = h * psi
        for _ in range(m):
            cur = pos(cur)
        margins.append(cone_membership(model, scale, cur)[1])
    return ConeImageReport(trials, float(min(margins)), tuple(margins))


def choose_n4(model: MarkovModel, rpf: ComplexRPF, scale: ScaleFunction,
              trials: int = 16) -> int:
    """Smallest step count after which random cone products land inside."""
    for m in range(1, STEP_CAP + 1):
        if cone_image_trials(model, rpf, scale, m, trials).ok:
            return m
    raise EngineError(f"cone images still outside after {STEP_CAP} steps")


# ---------------------------------------------------------------------------
# cutoff bumps


def zeta_bump(s, kappa5):
    """Trapezoid cutoff on [0, 1]: one near the edges, 1 - kappa5 inside.

    Equal to 1 on [0, 1/8] and [7/8, 1], equal to 1 - kappa5 on
    [1/4, 3/4], linear on the two ramps; |zeta'| <= 8 kappa5.  kappa5 is
    one depth for all of s or one per point.
    """
    s = np.asarray(s, dtype=float)
    kappa5 = np.broadcast_to(kappa5, s.shape)
    out = np.ones_like(s)
    mid = (s >= 0.25) & (s <= 0.75)
    out[mid] = 1.0 - kappa5[mid]
    up = (s > 0.125) & (s < 0.25)
    out[up] = 1.0 - kappa5[up] * (s[up] - 0.125) / 0.125
    down = (s > 0.75) & (s < 0.875)
    out[down] = 1.0 - kappa5[down] * (0.875 - s[down]) / 0.125
    return out


# ---------------------------------------------------------------------------
# dichotomy


SMALL, ALIGNED, INDETERMINATE = 0, 1, 2      # dichotomy kind codes

# One row per (span, branch) pair: the kind code, the largest and least
# load |u|/H on the branch image, the aligned phase representative (NaN
# where no phase was taken), the worst torus distance to it, and the mean
# normalized branch weight on the window.
DICHOTOMY_DTYPE = np.dtype([("kind", np.int8), ("max_ratio", float),
                            ("min_ratio", float), ("omega", float),
                            ("spread", float), ("weight", float)])


def _orbit_weight(model: MarkovModel, f_hat: np.ndarray, z: np.ndarray,
                  n: int, r0: int) -> np.ndarray:
    """exp of the normalized log-weight summed along the n-step orbit of z.

    f_hat is the fully normalized per-step sample (eigenvalue constant and
    eigenfunction telescope included), so the sum is the n-step weight.
    The points z start in the interval of index r0; every later orbit
    point is read on the row of its own interval, so orbits that split at
    a slice seam keep their true weights.
    """
    pts = model.orbit(z, n)
    rows = model.interval_index(pts)
    rows[:1] = r0
    return np.exp(_read_rows(model, f_hat, rows, pts).sum(axis=0))


def _grid_orbit_sum(model: MarkovModel, samples: np.ndarray,
                    n: int) -> np.ndarray:
    """sum_{i<n} samples(sigma^i x) at every grid node x.

    samples has shape (..., intervals, grid_size + 1).  Grid nodes stay on
    the grid under the forward map, so the sums come out bit-for-bit
    equal to an interpolating walk started at the nodes (see
    _orbit_weight).
    """
    total = np.zeros(samples.shape)
    for r, c in grid_orbit(model, n):
        total += samples[..., r, c]
    return total


def _dichotomy_tables(model: MarkovModel, f_hat: np.ndarray,
                      n: int) -> tuple[np.ndarray, np.ndarray]:
    """(n-step branch weights, n-step roof sums) at every grid node."""
    roof = model.roof(model.nodes())
    log_w, tau_n = _grid_orbit_sum(model, np.stack([f_hat, roof]), n)
    return np.exp(log_w), tau_n


def dichotomy_test(model: MarkovModel, rpf: ComplexRPF, u: np.ndarray,
                   big_h: np.ndarray, left, right, contr, off, tgt,
                   kappa6: float, tables: tuple) -> np.recarray:
    """Classify a batch of (span, branch) pairs; one DICHOTOMY_DTYPE row
    per pair.

    Pair i is an n1-step backward branch x -> contr[i] x + off[i] into
    the interval of index tgt[i], read on the atom span [left[i],
    right[i]]; the five columns broadcast against each other.  Small when
    |u|/H <= 3/4 at every grid node of the branch image (including the
    interpolation fringe); aligned when |u|/H >= 1/C9_DEFAULT everywhere
    and the summand phase stays within kappa6/100 of one direction;
    indeterminate otherwise, and treated as aligned with no usable phase,
    so no cancellation is claimed on it.

    Every window is gathered into one flat array, and each column is one
    reduction over it: the load maxima and minima by np.maximum.reduceat
    and np.minimum.reduceat, the weight mean and the circular mean of
    exp(i phase), taken only where the load stays at least 1/C9_DEFAULT,
    by np.add.reduceat over the window length.  tables are the n1-step
    _dichotomy_tables.  Memory is linear in the window points;
    build_cancellation passes batches of at most CHUNK_POINTS of them.
    """
    n = model.grid_size
    left, right, contr, off, tgt = (np.ravel(c) for c in np.broadcast_arrays(
        left, right, contr, off, tgt))
    iv_left = model.lefts[tgt]
    g_lo = np.maximum(np.floor((contr * left + off - iv_left) * n), 0)
    g_hi = np.minimum(np.ceil((contr * right + off - iv_left) * n), n)
    size = (g_hi - g_lo).astype(int) + 1
    flat, seg = _ranges(tgt * (n + 1) + g_lo.astype(int), size)
    uz = u.reshape(-1)[flat]
    ratios = np.abs(uz) / big_h.reshape(-1)[flat]
    max_ratio = np.maximum.reduceat(ratios, seg)
    min_ratio = np.minimum.reduceat(ratios, seg)
    weights, roof_sums = tables
    small = max_ratio <= SMALL_FACTOR
    # circular statistics of the summand phases where the load allows
    circ = np.flatnonzero(~small & (min_ratio >= 1.0 / C9_DEFAULT))
    pos, cseg = _ranges(seg[circ], size[circ])
    phases = rpf.b * roof_sums.reshape(-1)[flat[pos]] + np.angle(uz[pos])
    z = np.add.reduceat(np.exp(1j * phases), cseg) / size[circ]
    mean_dir = np.angle(z)
    worst = np.maximum.reduceat(
        _torus_dist(phases - np.repeat(mean_dir, size[circ])), cseg)
    no_dir = np.abs(z) < 1e-12
    omega = np.full(len(size), np.nan)
    omega[circ] = np.where(no_dir, 0.0, mean_dir % (2 * math.pi))
    spread = np.where(small, 0.0, math.pi)
    spread[circ] = np.where(no_dir, math.pi, worst)
    kind = np.where(small, SMALL, INDETERMINATE)
    kind[circ[spread[circ] <= ALIGN_SPREAD * kappa6]] = ALIGNED
    return np.rec.fromarrays(
        [kind, max_ratio, min_ratio, omega, spread,
         np.add.reduceat(weights.reshape(-1)[flat], seg) / size],
        dtype=DICHOTOMY_DTYPE)


# ---------------------------------------------------------------------------
# cutoff construction


# One row per placed bump: the atom, the case ("small" | "paired"), the
# branch word, the s-window [lo, hi] of the atom chart carrying the bump,
# and the bump's kappa5.
BUMP_DTYPE = np.dtype([("atom_index", int), ("case", object),
                       ("word", object), ("lo", float), ("hi", float),
                       ("kappa5", float)])
# One row per planned bump, fixed before kappa5 is: the atom, its branch
# as a row of the n1-step word table, the s-window [lo, hi], and for a
# paired bump the verified room of the two-term sum.
PLAN_DTYPE = np.dtype([("atom", int), ("row", int), ("lo", float),
                       ("hi", float), ("room", float), ("paired", bool)])


@dataclass(frozen=True)
class Cancellation:
    p_values: np.ndarray
    core_mask: np.ndarray          # grid nodes of the flat bump cores
    bumped_atoms: frozenset
    records: np.recarray           # BUMP_DTYPE rows in marked-atom order
    kappa5: float
    kappa6: float
    skipped: int                   # atoms with no certified option
    cone_ratio_p: float
    retries: int = 0               # kappa5 shrinks to fit the cone


def _pair_window(delta_phase: np.ndarray, kappa6: float) -> tuple | None:
    """Longest s-window keeping the phase difference kappa6/2 off zero.

    The window is the longest run of grid points with distance above
    kappa6/2; among runs of that length the one with the largest minimum
    wins, the first on a tie.  None when the run covers at most kappa6 of
    the points.
    """
    n = delta_phase.size
    dist = _torus_dist(delta_phase)
    clear = np.concatenate(([False], dist > 0.5 * kappa6, [False]))
    runs = np.flatnonzero(np.diff(clear)).reshape(-1, 2)    # [start, end)
    lengths = runs[:, 1] - runs[:, 0]
    if not lengths.size or lengths.max() / n <= kappa6:
        return None
    size = int(lengths.max())
    starts = runs[lengths == size, 0]
    start = int(starts[np.argmax(_window_min(dist, 1, size)[starts])])
    return start / n, (start + size) / n


def build_cancellation(model: MarkovModel, rpf: ComplexRPF,
                       part: CylinderPartition, u: np.ndarray,
                       big_h: np.ndarray, omega_atoms, n1: int,
                       kappa5: float = KAPPA5_DEFAULT,
                       kappa6: float = 0.05) -> Cancellation:
    """Place one verified cutoff bump per marked atom where possible.

    Requires a positive oscillation margin; kappa6 at or below zero means
    no cancellation is available and the construction refuses.  Small
    branches take the bump outright (sound for kappa5 < 1/4); aligned
    pairs are accepted only after the two-term sum inequality is checked
    on the window, shrinking kappa5 locally when needed.  Atoms with no
    certified option keep P = 1.  A cutoff that leaves the cone is rebuilt
    with a smaller kappa5, at most SHRINK_RETRIES times.

    The marked atoms are taken in their iteration order, in chunks of at
    most CHUNK_POINTS window points (bounded per atom before any window is
    gathered), so memory stays bounded for any partition.  One
    dichotomy_test call classifies every (atom, n1-step branch) pair of a
    chunk.  An atom with a small branch bumps the one of least max_ratio,
    the first on a tie; otherwise its aligned branches, in word order, go
    to _pair_plan.  _place_bumps then writes the bumps, again in chunks.
    """
    if kappa6 <= 0.0:
        raise EngineError("no cancellation available: oscillation margin is zero")
    if not 0.0 < kappa5 < 0.25:
        raise EngineError("kappa5 must lie in (0, 1/4)")
    n = model.grid_size
    f_hat = rpf.f_ab_grid
    tables = _dichotomy_tables(model, f_hat, n1)
    word, w_contr, w_off, w_tgt, first = all_words(model, n1)
    fan = np.diff(first)
    atoms = part.atoms
    marked = np.fromiter(omega_atoms, dtype=int)
    # a branch image of an atom holds at most contr * length * n + 3 nodes
    reach = np.add.reduceat(w_contr, first[:-1])[atoms.iid[marked]]
    points = ((atoms.right[marked] - atoms.left[marked]) * n * reach
              + 3 * fan[atoms.iid[marked]])
    # the dichotomy and the pair analysis do not depend on kappa5, so they
    # run once; a retry only writes the bumps again with a smaller kappa5
    plans = [np.recarray(0, PLAN_DTYPE)]
    for chunk in _chunks(points):
        ai = marked[chunk]
        iid = atoms.iid[ai]
        rows, start = _ranges(first[iid], fan[iid])
        owner = np.repeat(np.arange(len(ai)), fan[iid])
        res = dichotomy_test(model, rpf, u, big_h, atoms.left[ai][owner],
                             atoms.right[ai][owner], w_contr[rows],
                             w_off[rows], w_tgt[rows], kappa6, tables)
        ratio = np.where(res.kind == SMALL, res.max_ratio, np.inf)
        best = np.minimum.reduceat(ratio, start)
        hits = np.flatnonzero((ratio == best[owner]) & (res.kind == SMALL))
        small, pick = np.unique(owner[hits], return_index=True)
        plan = np.zeros(len(ai), PLAN_DTYPE).view(np.recarray)
        plan.atom, plan.row, plan.hi = ai, -1, 1.0
        plan.row[small] = rows[hits[pick]]
        aligned = np.flatnonzero((res.kind == ALIGNED)
                                 & (plan.row[owner] < 0))
        for g in np.split(aligned, np.flatnonzero(np.diff(owner[aligned])) + 1):
            if len(g) < 2:
                continue
            k, r = owner[g[0]], rows[g]
            y = model.lefts[iid[k]] + np.arange(
                atoms.j_lo[ai[k]], atoms.j_hi[ai[k]] + 1) / n
            pair = _pair_plan(model, rpf.b, f_hat, y, res.omega[g],
                              res.weight[g], w_contr[r], w_off[r], w_tgt[r],
                              u, big_h, kappa6, n1)
            if pair is not None:
                plan[k] = (ai[k], r[pair[0]]) + pair[1] + (pair[2], True)
        plans.append(plan[plan.row >= 0])
    plans = np.concatenate(plans).view(np.recarray)
    case = np.array(["small", "paired"], dtype=object)[plans.paired * 1]
    for retries in range(SHRINK_RETRIES + 1):
        # fmin: a NaN room leaves kappa5 as Python's min does
        kap = np.where(plans.paired,
                       np.fmin(np.fmin(kappa5, 0.5 * plans.room), 0.2499),
                       kappa5)
        p_vals = np.ones_like(big_h)
        core = np.zeros(big_h.shape, dtype=bool)
        placed = _place_bumps(model, p_vals, core, atoms, w_contr, w_off,
                              w_tgt, plans, kap)
        records = np.rec.fromarrays(
            [c[placed] for c in (plans.atom, case, _decode_words(
                word[plans.row], model.alphabet), plans.lo, plans.hi, kap)],
            dtype=BUMP_DTYPE)
        bumped = frozenset(records.atom_index.tolist())
        ratio = cone_ratio(model, part.scale, p_vals)
        if ratio <= 1.0:
            return Cancellation(p_vals, core, bumped, records, kappa5,
                                kappa6, len(marked) - len(bumped),
                                ratio, retries)
        # the cutoff slope scales linearly in kappa5 near one
        kappa5 = kappa5 / (ratio * 1.05)
    raise EngineError(
        f"cutoff left the cone after {SHRINK_RETRIES} kappa5 shrinks "
        f"(log-slope ratio {ratio:.3g})")


def _place_bumps(model, p_vals, core, atoms, contr, off, tgt, plans,
                 kappa5) -> np.ndarray:
    """Write the cutoffs of all plans onto their branch images; mark the
    flat cores.  Returns the mask of the plans placed.

    Plan i bumps the image of atom plans.atom[i] under word-table row
    plans.row[i], x -> contr x + off into interval tgt, on the s-window
    [lo, hi] of the atom chart, with depth kappa5[i].  A bump whose image
    holds no grid node is not placed.  Plans go CHUNK_POINTS image nodes
    at a time; p_vals takes the pointwise minimum through np.minimum.at,
    exact for overlapping windows, and the core nodes are set by flat
    index ranges.
    """
    n = model.grid_size
    placed = np.zeros(len(plans), dtype=bool)
    # an image holds at most contr * length * n + 3 grid nodes
    bound = (contr[plans.row] * n
             * (atoms.right[plans.atom] - atoms.left[plans.atom]) + 3)
    for chunk in _chunks(bound):
        plan, kap = plans[chunk], kappa5[chunk]
        left, right = atoms.left[plan.atom], atoms.right[plan.atom]
        iid = atoms.iid[plan.atom]
        length = right - left
        img_left = contr[plan.row] * left + off[plan.row]
        img_len = contr[plan.row] * length
        row = tgt[plan.row]
        iv_left = model.lefts[row]
        g_lo = np.ceil((img_left - iv_left) * n - 1e-9).astype(int)
        g_hi = np.floor((img_left + img_len - iv_left) * n + 1e-9).astype(int)
        placed[chunk] = g_hi >= g_lo
        ok = np.flatnonzero(placed[chunk])
        js, _ = _ranges(g_lo[ok], g_hi[ok] - g_lo[ok] + 1)
        owner = np.repeat(ok, g_hi[ok] - g_lo[ok] + 1)
        s = ((iv_left[owner] + js / n) - img_left[owner]) / img_len[owner]
        lo, width = plan.lo, plan.hi - plan.lo
        inside = (s >= lo[owner]) & (s <= plan.hi[owner])
        local = np.ones_like(s)
        o = owner[inside]
        local[inside] = zeta_bump((s[inside] - lo[o]) / width[o], kap[o])
        np.minimum.at(p_vals.reshape(-1), row[owner] * (n + 1) + js, local)
        # flat core, read back in the atom chart: sigma^{n1} of the bump core
        own = model.lefts[iid]
        a_lo = np.ceil((left + (lo + 0.25 * width) * length - own) * n)
        a_hi = np.minimum(np.floor(
            (left + (lo + 0.75 * width) * length - own) * n), n)
        has = ok[a_hi[ok] >= a_lo[ok]]
        nodes, _ = _ranges(iid[has] * (n + 1) + a_lo[has].astype(int),
                           (a_hi[has] - a_lo[has]).astype(int) + 1)
        core.reshape(-1)[nodes] = True
    return placed


def _pair_plan(model, b, f_hat, y, omegas, weights, contr, off, tgt, u,
               big_h, kappa6, n1):
    """(k, s-window, room) for the paired bump on an atom, or None.

    y are the atom's grid nodes; row k of omegas, weights, contr, off and
    tgt belongs to the k-th aligned branch in word order.  The two aligned
    branches with the widest phase gap are compared, the first such pair
    in (i, j) order; the smaller-weight one, k, carries the bump on a
    window where the phase difference stays off zero, and room is the
    verified relative slack of the two-term sum there.
    """
    i, j = np.triu_indices(len(omegas), 1)
    gaps = _torus_dist(omegas[i] - omegas[j])
    k = int(np.argmax(gaps))
    if gaps[k] <= 0.5 * kappa6:
        return None
    k1, k2 = int(i[k]), int(j[k])
    if weights[k1] > weights[k2]:       # bump the smaller-weight branch
        k1, k2 = k2, k1
    z1 = contr[k1] * y + off[k1]
    z2 = contr[k2] * y + off[k2]
    r1, r2 = tgt[k1], tgt[k2]
    ph1 = b * np.asarray(model.birkhoff_sum(model.roof, z1, n1)) \
        + np.angle(_read_rows(model, u, r1, z1))
    ph2 = b * np.asarray(model.birkhoff_sum(model.roof, z2, n1)) \
        + np.angle(_read_rows(model, u, r2, z2))
    j1 = _pair_window(ph1 - ph2, kappa6)
    if j1 is None:
        return None
    # verify the two-term inequality on the window before keeping the bump
    lo = int(round(j1[0] * (len(y) - 1)))
    hi = max(lo + 1, int(round(j1[1] * (len(y) - 1))))
    sel = slice(lo, hi + 1)
    g1 = _orbit_weight(model, f_hat, z1[sel], n1, r1) \
        * np.abs(_read_rows(model, big_h, r1, z1[sel]))
    g2 = _orbit_weight(model, f_hat, z2[sel], n1, r2) \
        * np.abs(_read_rows(model, big_h, r2, z2[sel]))
    two = np.abs(g1 * np.exp(1j * ph1[sel]) + g2 * np.exp(1j * ph2[sel]))
    room = (g1 + g2 - two) / np.maximum(g1, 1e-300)
    allowed = float(room.min())
    if allowed < 1e-4:
        return None
    return k1, j1, allowed


# ---------------------------------------------------------------------------
# majorant recursion


@dataclass(frozen=True)
class MajorantState:
    n: int
    u: np.ndarray
    big_h: ConeElement
    omega_atoms: frozenset
    h0: float                       # the constant initial majorant


def majorant_step(model: MarkovModel, rpf: ComplexRPF,
                  state: MajorantState, canc: Cancellation,
                  n1: int) -> tuple[MajorantState, CauchySchwarzReport]:
    """One block step: u through the oscillatory operator, H through the
    positive one with the cutoff multiplied in first.

    Each array is pushed once: u by the oscillatory operator, and P H,
    P^2 and H^2 by the positive one, each n1 times; M^n1(P H) is the new
    majorant and all three feed cauchy_schwarz_check.  The checks run in
    order and each failure raises: the square comparison, pointwise
    domination |u| <= H (with the witness node), the initial constant as
    a bound, and the cone.  Returns the next state and the square
    comparison report.
    """
    tilde = rpf.tilde_op()
    pos = rpf.m_op()
    u = state.u
    for _ in range(n1):
        u = tilde(u)
    p, h = canc.p_values, state.big_h.values
    h_vals, p2, h2 = p * h, p * p, h * h
    for _ in range(n1):
        h_vals, p2, h2 = pos(h_vals), pos(p2), pos(h2)
    cs = cauchy_schwarz_check(h_vals, p2, h2, canc.core_mask)
    if not cs.ok:
        raise EngineError(
            f"square comparison violated by {cs.max_violation:.3e}")
    bad = np.abs(u) > h_vals * (1.0 + DOMINATION_TOL) + 1e-15 * state.h0
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise EngineError(
            "majorant domination failed at interval "
            f"{model.intervals[r]!r} node {c}: |u|={abs(u[r, c]):.6e} "
            f"H={h_vals[r, c]:.6e}")
    if h_vals.max() > state.h0 * (1.0 + 1e-9):
        raise EngineError("majorant exceeded its initial constant")
    next_h = cone_element(model, state.big_h.scale, h_vals)
    omega_next = canc.bumped_atoms if canc.bumped_atoms else state.omega_atoms
    return MajorantState(state.n + 1, u, next_h, omega_next, state.h0), cs


@dataclass(frozen=True)
class CauchySchwarzReport:
    max_violation: float     # of (M(PH))^2 <= MP^2 * MH^2, relative
    kappa4: float            # worst contraction factor on the bump cores

    @property
    def ok(self) -> bool:
        return self.max_violation <= 1e-12


def cauchy_schwarz_check(ph: np.ndarray, p2: np.ndarray, h2: np.ndarray,
                         core_mask: np.ndarray) -> CauchySchwarzReport:
    """Pointwise square comparison of the cutoff step.

    ph, p2 and h2 are M^n1 (P H), M^n1(P^2) and M^n1(H^2), as majorant_step
    pushes them.  The comparison is (M^n1 (P H))^2 <= M^n1(P^2) M^n1(H^2)
    everywhere; kappa4 is the worst value of 1 - M^n1(P^2) over the flat
    bump cores, the factor the square comparison then guarantees against
    M^n1(H^2).
    """
    lhs = ph * ph
    rhs = p2 * h2
    scale = np.maximum(rhs, 1e-300)
    violation = float(((lhs - rhs) / scale).max())
    kappa4 = float((1.0 - p2[core_mask]).min()) if core_mask.any() else 0.0
    return CauchySchwarzReport(violation, kappa4)


# ---------------------------------------------------------------------------
# the L2 iteration


@dataclass(frozen=True)
class StepRow:
    n: int
    c0_u: float
    l2_u: float
    l2_h: float
    omega_fraction: float
    bumps: int
    kappa4: float
    cs_violation: float


@dataclass(frozen=True)
class IterationCertificate:
    a: float
    b: float
    eps: float
    n1: int
    burn_in: int
    kappa_uni: float
    kappa6: float
    kappa5: float
    kappa4_min: float
    rows: tuple[StepRow, ...]
    final_l2: float
    kappa_fit: float | None
    refused: bool
    holder_ratio: float
    atoms: int
    truncated_at: int | None = None   # step where the majorant floor failed
    visits: tuple | None = None       # recurrence rows into the bump cores

    @property
    def contracted(self) -> bool:
        return (not self.refused) and self.kappa4_min > 0.0


def _dyadic_eps(b: float) -> float:
    q = max(1, int(round(math.log2(abs(b)))))
    return 2.0 ** -q


def run_l2_iteration(model: MarkovModel, a: float, b: float,
                     eps: float | None = None) -> IterationCertificate:
    """Burn in, then iterate the majorant recursion and certify decay.

    The oscillation certificate gates cancellation: a zero margin makes
    every step run with P = 1 (refused, no contraction claimed), which is
    the honest outcome for constant and affine roofs.  Each step re-runs
    the domination, cone, and Cauchy-Schwarz checks; rows record the
    norms, the marked-atom fraction, and the measured contraction.

    The paper's constants are fixed: the start u0 = 1, burn-in
    floor(c8 ln|b|) with c8 = 4, the majorant floor (n+1) eps^(eta1/2)
    with eta1 = 1/2, and C1 = 1; eps defaults to the dyadic 1/|b|.
    """
    rpf = build_rpf(model, a, b)
    if eps is None:
        eps = _dyadic_eps(b)
    scale = matching_scale(model, eps)
    uni = uni_scan(model, scale)
    part = build_partition(model, scale)
    n1 = choose_n1(model, part)
    kappa6 = min(uni.kappa_hat, 0.099)
    refused = kappa6 <= 0.0
    nu = base_system(model).nu

    def l2(vals):
        return float(np.sqrt((nu * np.abs(vals) ** 2).sum()))

    tilde = rpf.tilde_op()
    burn = int(math.floor(4.0 * math.log(abs(b))))
    u = np.ones((len(model.intervals), model.grid_size + 1), dtype=complex)
    for _ in range(burn):
        u = tilde(u)
    h0 = norm_theta_b(model, np.abs(u), b)
    if h0 == 0.0:
        h0 = 1.0    # u identically zero: any constant majorant works
    state = MajorantState(
        0, u, cone_element(model, scale, np.full_like(np.abs(u), h0)),
        frozenset(range(len(part.atoms))), h0)
    steps = max(4, int(math.floor(math.log(abs(b)))))
    rows = [StepRow(0, float(np.abs(u).max()), l2(u),
                    l2(state.big_h.values), 1.0, 0, 0.0, 0.0)]
    kappa4_min = math.inf
    kappa5_eff = math.inf
    holder_ratio = 0.0
    truncated_at = None
    core_union = np.zeros(state.big_h.values.shape, dtype=bool)
    if refused:
        ones = np.ones_like(state.big_h.values)
        canc = Cancellation(ones, np.zeros(ones.shape, dtype=bool),
                            frozenset(), np.recarray(0, BUMP_DTYPE), 0.0, 0.0,
                            len(part.atoms), 0.0)
    for n in range(steps):
        if not refused:
            canc = build_cancellation(model, rpf, part, state.u,
                                      state.big_h.values, state.omega_atoms,
                                      n1, KAPPA5_DEFAULT, kappa6)
        state, cs = majorant_step(model, rpf, state, canc, n1)
        sem = slice_holder_norm(model, np.abs(state.u), model.theta)[1]
        holder_ratio = max(holder_ratio,
                           sem / ((state.n + 1) * eps ** 0.5 * h0))
        rows.append(StepRow(
            state.n, float(np.abs(state.u).max()), l2(state.u),
            l2(state.big_h.values),
            len(state.omega_atoms) / len(part.atoms),
            len(canc.records), cs.kappa4, cs.max_violation))
        if len(canc.records):
            kappa4_min = min(kappa4_min, cs.kappa4)
            kappa5_eff = min(kappa5_eff, canc.kappa5)
            core_union |= canc.core_mask
        # cancellation may only keep iterating above the majorant floor
        floor = (state.n + 1) * eps ** 0.25 * h0
        if not refused and float(state.big_h.values.min()) < floor:
            truncated_at = state.n
            break
    if not math.isfinite(kappa5_eff):       # no step placed a bump
        kappa4_min = kappa5_eff = 0.0
    tail = [r for r in rows if r.l2_u > 0.0]
    kappa_fit = None
    if len(tail) >= 3:
        xs = np.array([r.n * n1 for r in tail], dtype=float)
        ys = np.log([r.l2_u for r in tail])
        kappa_fit = float(-np.polyfit(xs, ys, 1)[0])
    visits = None
    if core_union.any():
        rec = recurrence_rate(model, core_union, n1, max(2, len(rows) - 1))
        visits = tuple(rec.rows)
    return IterationCertificate(
        a, b, eps, n1, burn, uni.kappa_hat, kappa6, kappa5_eff,
        kappa4_min, tuple(rows), rows[-1].l2_u, kappa_fit, refused,
        holder_ratio, len(part.atoms), truncated_at, visits)
