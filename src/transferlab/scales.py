"""Variable-scale expansion structure and oscillation scans.

Everything here is driven by one object: the matching scale of a model at
resolution eps.  At each point the stable cocycle is run forward until it
drops below eps; the number of steps taken is the stopping index and the
unstable expansion accumulated over those steps is the scale value.  The
checks in this module then measure, on the grid, the constants that the
scale is supposed to satisfy: a lower bound on the value in terms of eps,
a branch comparison along preimages, comparability on unstable
neighbourhoods, a Hoelder budget for normalized temporal-distance
profiles, and the oscillation certificate produced by `uni_scan`.

The scan is deliberately a measurement, not a proof: it samples base
points, builds pairs of extreme branch words, reads the temporal contrast
along a unit chart window, and reports the largest margin kappa for which
every sampled point admits, for every phase on a reference grid, a
subwindow of length kappa staying kappa away from that phase.  A model
with an affine roof fails with margin exactly zero and the certificate
says so instead of raising.

The sample points are grid nodes, so their stopping index and value are
read from the scale.  The margins of all profiles of a scan are read in
one pass (_margins) that gives the full phase table's answer bit for bit
without building the table: one candidate phase per profile is scanned
exactly, and any candidate gives the same answer, since every other phase
needs only a run test against the candidate's margin u, and a phase can
fail it only where the profile comes within u of it.  The distances are
read only in that band of phases around each profile value (within
u + 1/2 phase step of it), where they take the full table's bits; a
profile past BAND_MAX in modulus, where the computed distance need not
track the true one, reads every phase.  Only the phases that fail their
run test are scanned exactly.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from .gridfun import _lag_seminorm
from .markov import MarkovModel, ModelError, _roof_sums
from .thermo import base_system, grid_orbit

EPS_MAX = 0.5
THETA_CAP = 4096          # stopping-index iterations before giving up
HORIZON_CAP = 10000
UNI_S_POINTS = 256        # profile samples per chart window in uni_scan
UNI_PHASES = 64           # reference phases of the uni_scan margin
BAND_MAX = 2.0 ** 20      # |profile| up to which _band_failures reads a band
TAME_KAPPA = 0.5          # pair-size exponent of the check_tame budget
RECURRENCE_TRIALS = 1024  # Gibbs-drawn orbits of recurrence_rate
RECURRENCE_KAPPAS = (0.05, 0.1, 0.2, 0.3, 0.5)   # visit rates it tests

TWO_PI = 2.0 * math.pi


class ScaleError(ModelError):
    pass


# ---------------------------------------------------------------------------
# matching scale


@dataclass(frozen=True)
class ScaleFunction:
    """Stopping index and expansion value of a model at resolution eps.

    steps[r, j] is the first k >= 1 with stable_cocycle(x, k) < eps at the
    grid node x = nodes()[r, j]; values[r, j] is the unstable
    expansion over those k steps.  kappa_lower is the measured exponent in
    values > eps**(-kappa_lower), taken as a min over the grid.
    """

    model: MarkovModel
    eps: float
    steps: np.ndarray
    values: np.ndarray
    kappa_lower: float

    def value_at(self, x):
        """Expansion value at arbitrary leaf coordinates (recomputed)."""
        _, v = _stopping_cocycle(self.model, x, self.eps)
        return float(v[0]) if np.isscalar(x) else v

    @property
    def min_value(self) -> float:
        return float(self.values.min())


def _stopping_cocycle(model: MarkovModel, x, eps: float):
    """(steps, values) of the stable cocycle run to eps from every point.

    The products are taken step by step in orbit order, so every point gets
    bit-for-bit the numbers a one-point loop would give.  Scalars come back
    as one-element arrays.
    """
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    cur = xv.ravel()
    live = np.arange(cur.size)
    contr = np.ones(cur.size)
    expf = np.ones(cur.size)
    steps = np.zeros(cur.size, dtype=int)
    values = np.zeros(cur.size)
    for k in range(1, THETA_CAP + 1):
        contr *= np.asarray(model.mu(cur), dtype=float)
        expf *= model.slope_at(cur)
        hit = contr < eps
        steps[live[hit]] = k
        values[live[hit]] = expf[hit]
        if hit.all():
            return steps.reshape(xv.shape), values.reshape(xv.shape)
        keep = ~hit
        live, contr, expf = live[keep], contr[keep], expf[keep]
        cur = model.forward(cur[keep])
    raise ScaleError(f"stable cocycle did not reach {eps!r} in {THETA_CAP} steps")


def matching_scale(model: MarkovModel, eps: float) -> ScaleFunction:
    """Run the stable cocycle to resolution eps at every grid node.

    eps must lie in (0, 1/2]; coarser resolutions make the stopping index
    degenerate and are rejected.
    """
    if not 0.0 < eps <= EPS_MAX:
        raise ScaleError(f"eps must lie in (0, {EPS_MAX}], got {eps!r}")
    steps, values = _stopping_cocycle(model, model.nodes(), eps)
    kappa_lower = float(np.log(values).min() / math.log(1.0 / eps))
    return ScaleFunction(model, eps, steps, values, kappa_lower)


# ---------------------------------------------------------------------------
# stability and comparability checks


@dataclass(frozen=True)
class StableReport:
    eps: float
    kappa_lower: float
    kappa_branch: float
    rows: tuple    # (m, worst margin per backward step)

    @property
    def kappa_hat(self) -> float:
        return min(self.kappa_lower, self.kappa_branch)

    @property
    def ok(self) -> bool:
        return self.kappa_hat > 0.0


def check_stable(model: MarkovModel, scale: ScaleFunction,
                 m_max: int = 8) -> StableReport:
    """Measure the backward comparison exponent of a matching scale.

    For every grid node z and every 1 <= m <= m_max the margin is
    (log Lambda_m(z) + log value(sigma^m z) - log value(z)) / m; the
    branch exponent is the min.  Constant cocycles give log(slope).
    """
    logv = np.log(scale.values)
    logslope = np.log(model.slope_at(model.nodes()))
    cum = np.zeros_like(logv)
    rows = []
    kappa_branch = math.inf
    for m, (r, c) in enumerate(grid_orbit(model, m_max + 1)):
        if m:
            margin = float(((cum + logv[r, c] - logv) / m).min())
            rows.append((m, margin))
            kappa_branch = min(kappa_branch, margin)
        cum = cum + logslope[r, c]
    return StableReport(scale.eps, scale.kappa_lower, kappa_branch, tuple(rows))


@dataclass(frozen=True)
class AdaptedReport:
    n: int
    c_measured: float
    pairs_checked: int

    @property
    def ok(self) -> bool:
        return math.isfinite(self.c_measured)


def check_adapted(model: MarkovModel, scale: ScaleFunction,
                  omega_mask: np.ndarray | None = None,
                  n: int = 1, radius_factor: float = 4.0) -> AdaptedReport:
    """Comparability of the scale on unstable neighbourhoods of preimages.

    For grid nodes z whose n-step image lands in the marked set, and grid
    neighbours y with |y - z| * value(y) < radius_factor, the report takes
    the largest ratio value(sigma^n z) / value(y).  A constant scale gives
    exactly 1.
    """
    k = len(model.intervals)
    npts = model.grid_size + 1
    r, c = deque(grid_orbit(model, n + 1), maxlen=1)[0]
    lam_x = scale.values[r, c]
    sel = np.ones((k, npts), dtype=bool) if omega_mask is None \
        else omega_mask[r, c]
    h = 1.0 / model.grid_size
    max_cells = int(math.ceil(radius_factor / (scale.min_value * h))) + 1
    max_cells = min(max_cells, model.grid_size)
    worst = 1.0
    checked = 0
    for d in range(-max_cells, max_cells + 1):
        lo_z, hi_z, lo_y = max(-d, 0), npts - max(d, 0), max(d, 0)
        lam_y = scale.values[:, lo_y:lo_y + hi_z - lo_z]
        near = (abs(d) * h) * lam_y < radius_factor
        use = sel[:, lo_z:hi_z] & near
        if not use.any():
            continue
        ratio = lam_x[:, lo_z:hi_z] / lam_y
        worst = max(worst, float(ratio[use].max()))
        checked += int(use.sum())
    return AdaptedReport(n, worst, checked)


# ---------------------------------------------------------------------------
# temporal distance


def _relative_sums(model: MarkovModel, words, x: np.ndarray,
                   z: np.ndarray) -> np.ndarray:
    """tau_k(v_w z) - tau_k(v_w x) for each of the equal-length words w,
    row r at the point x[r] over the probe row z[r].  All rows are walked
    as one table, x appended to each probe row, and the x sums are read
    from the last column; a temporal distance is the difference of two
    rows.  Raises ModelError naming the first word, in order, that does
    not apply at the interval of its x, and then for a probe outside it.
    """
    dom = model.interval_index(x)
    try:
        t = _roof_sums(model, words, np.concatenate((z, x[:, None]), 1), dom)
    except ModelError:
        # name the first word that fails
        for w, xr, k in zip(words, x.tolist(), dom.tolist()):
            try:
                model.roof_sum_on_word(w, xr, k)
            except ModelError:
                raise ModelError(f"word {w!r} not applicable at interval "
                                 f"{model.intervals[k]!r}") from None
        raise
    left = model.lefts[dom][:, None]
    if (z < left - 1e-12).any() or (z > left + 1.0 + 1e-12).any():
        raise ModelError("probe points must stay in the interval of x")
    return t[:, :-1] - t[:, -1:]


def temporal_distance(model: MarkovModel, x, w1: str, w2: str, z):
    """Second difference of roof sums along two branch words.

    (tau_k(v_w1 z) - tau_k(v_w1 x)) - (tau_k(v_w2 z) - tau_k(v_w2 x)) for
    words of equal length applicable at the interval of x; z must live in
    the same interval.  Both words are walked as one two-row table (see
    _relative_sums).  Affine roofs on equal-slope families cancel to
    zero; the value is antisymmetric in (w1, w2) and in (x, z).
    """
    if len(w1) != len(w2):
        raise ModelError("temporal distance needs words of equal length")
    if not w1 or w1 == w2:
        raise ModelError("temporal distance needs two distinct nonempty words")
    zv = np.atleast_1d(np.asarray(z, dtype=float))
    rel = _relative_sums(model, [w1, w2], np.full(2, float(x)),
                         np.broadcast_to(zv.ravel(), (2, zv.size)))
    out = (rel[0] - rel[1]).reshape(zv.shape)
    return float(out[0]) if np.isscalar(z) else out


def extreme_word(model: MarkovModel, domain: int, k: int,
                 flavor: str = "low") -> str:
    """Length-k admissible word at the interval of index domain by greedy
    symbol choice.

    flavor 'low' always takes the smallest available symbol, 'high' the
    largest, 'alt' alternates high/low.  Built innermost first; the
    symbols available at a domain are those with a branch_slope there.
    """
    has = ~np.isnan(model.branch_slope)
    low = has.argmax(axis=0).tolist()
    high = (len(has) - 1 - has[::-1].argmax(axis=0)).tolist()
    word, dom = "", domain
    for i in range(k):
        sym = (high if flavor == "high" or (flavor != "low" and i % 2 == 0)
               else low)[dom]
        word, dom = model.alphabet[sym] + word, model.symbol_target[sym]
    return word


def word_pairs(model: MarkovModel, domain: int,
               k: int) -> list[tuple[str, str]]:
    """Distinct equal-length word pairs used as contrast probes: the low
    word against the high one, and against the alternating one when that
    differs from both."""
    lo = extreme_word(model, domain, k, "low")
    hi = extreme_word(model, domain, k, "high")
    alt = extreme_word(model, domain, k, "alt")
    return [(lo, hi)] + ([(lo, alt)] if alt not in (lo, hi) else [])


def pair_offset(model: MarkovModel, x: float, w1: str, w2: str) -> float:
    """Stable size of a word pair: mu-product over the shared prefix.

    Words sharing a longer prefix sit deeper in the same cylinder and
    produce smaller contrasts; the empty prefix has size one.
    """
    j = len(os.path.commonprefix((w1, w2)))
    if j == 0:
        return 1.0
    z0 = model.apply_word(w1, float(x))
    return float(model.stable_cocycle(z0, j))


# ---------------------------------------------------------------------------
# tameness of normalized contrast profiles


@dataclass(frozen=True)
class TameReport:
    c_measured: float
    rows: tuple   # (x, prefix_len, offset, theta-norm, ratio)

    @property
    def ok(self) -> bool:
        return math.isfinite(self.c_measured)


def _profile_theta_norm(vals: np.ndarray, theta: float) -> float:
    """sup plus Hoelder-theta seminorm of a sampled profile on [0, 1)."""
    n = len(vals)
    lags = [1 << j for j in range((n - 1).bit_length())]    # 1, 2, 4, ... < n
    return float(np.abs(vals).max()) + _lag_seminorm(vals, lags, n, theta)


def check_tame(model: MarkovModel, scale: ScaleFunction,
               samples: int = 6) -> TameReport:
    """Hoelder budget of normalized contrast profiles vs pair size.

    The approximant is the profile itself, so there is no approximation
    defect and the content of the report is the measured constant
    c = max ||psi||_theta / offset**TAME_KAPPA over sampled points and
    pair depths.  Locally constant roofs give c = 0.
    """
    rows = []
    worst = 0.0
    for x, r, j in _sample_points(model, samples):
        k, lam = int(scale.steps[r, j]), float(scale.values[r, j])
        side = _chart_sides(model, r, x, lam)[0]
        zs = _chart_points(scale.eps, [x], [side], [lam], 128)[0]
        lo = extreme_word(model, r, k, "low")
        hi = extreme_word(model, r, k, "high")
        # the low word and every mixed word lo[:j] + hi[j:] as one table;
        # a mixed word whose junction lo[j-1] -> hi[j] is forbidden is skipped
        js = [j for j in range(k) if hi[j:] != lo[j:]
              and (j == 0 or model.word_admissible(lo[j - 1] + hi[j]))]
        words = [lo] + [lo[:j] + hi[j:] for j in js]
        rel = _relative_sums(model, words, np.full(len(words), x),
                             np.broadcast_to(zs, (len(words), zs.size)))
        for j, w2, psi in zip(js, words[1:], (rel[0] - rel[1:]) / scale.eps):
            nrm = _profile_theta_norm(psi, model.theta)
            off = pair_offset(model, x, lo, w2)
            ratio = nrm / off ** TAME_KAPPA
            rows.append((x, j, off, nrm, ratio))
            worst = max(worst, ratio)
    return TameReport(worst, tuple(rows))


def _sample_points(model: MarkovModel,
                   samples: int) -> list[tuple[float, int, int]]:
    """Deterministic spread of interior grid nodes across intervals: each
    x = nodes()[r, j] with its interval index r and node column j, so the
    stopping index and value at x are a scale's steps[r, j], values[r, j]."""
    n = model.grid_size
    out = []
    for t in range(samples):
        r = t % len(model.intervals)
        j = (n * (2 * t + 3)) // (2 * samples + 4)
        j = min(max(j, 1), n - 1)
        out.append((float(model.lefts[r] + j / n), r, j))
    return out


# ---------------------------------------------------------------------------
# oscillation certificate


@dataclass(frozen=True)
class UniWitness:
    """The profile that decides one sample point's margin in uni_scan: the
    pair read on the chart window of length 1 / value on this side of x
    (+1 right, -1 left), the phase omega, and the subwindow (window, a
    fraction window_frac of the chart) whose least distance to omega is
    inf_dist; kappa_x = min(window_frac, inf_dist)."""

    x: float
    theta: int
    value: float
    kappa_x: float
    pair: tuple[str, str]
    side: int
    omega: float
    window_frac: float
    window: tuple[float, float]
    inf_dist: float


@dataclass(frozen=True)
class UniCertificate:
    eps: float
    kappa_hat: float
    witnesses: tuple[UniWitness, ...]

    @property
    def ok(self) -> bool:
        return self.kappa_hat > 0.0


def _torus_dist(a: np.ndarray) -> np.ndarray:
    """|a| on the circle of length 2 pi: |(a + pi) % 2 pi - pi| bit for
    bit, with numpy's remainder rule (fmod, then + 2 pi where negative)
    written out so that no quotient is computed.

    fmod(r, 2 pi) returns r itself, exactly, whenever |r| < 2 pi, so only
    the entries with |r| >= 2 pi go through fmod; a NaN skips it and
    ends as the same NaN.  The boundary must go to fmod: a = pi gives
    r == 2 pi, which fmod maps to 0.
    """
    r = a + math.pi
    far = np.abs(r) >= TWO_PI
    if far.any():
        r[far] = np.fmod(r[far], TWO_PI)
    np.add(r, TWO_PI, out=r, where=r < 0)
    r -= math.pi
    return np.abs(r, out=r)


def _window_min(a: np.ndarray, width: int, size: int) -> np.ndarray:
    """Minima over every run of size consecutive entries of the last axis.

    a holds the minima over the runs of width <= size (width 1: a itself);
    each step takes the minimum of two overlapping runs, so NaN spreads as
    in np.minimum, and on a bool table an entry is True exactly where its
    whole run is True.
    """
    while width < size:
        step = min(width, size - width)
        a = np.minimum(a[..., :-step], a[..., step:])
        width += step
    return a


def _window_size(j: int, n_windows: int, n_s: int) -> int:
    """Points in a window of length frac = j / n_windows out of n_s."""
    return max(1, int(round(j / n_windows * n_s)))


def _scan_rows(d: np.ndarray, n_windows: int) -> tuple:
    """Margin of each phase row of d (rows, points) over the window sizes
    in turn, with its witness: arrays (margin, frac, lo, size, dist), the
    first size and the first window of it that attain the margin.  A
    row's scan ends at the first size whose best window margin m is at
    most the row's margin so far, or NaN (numpy's argmax picks NaN first):
    larger sizes keep m or lower it, and a NaN stays in a window of every
    size, so that row's margin is 0 with the witness (0, 0, 0, 0)."""
    n = len(d)
    margin, frac, dist = np.zeros(n), np.zeros(n), np.zeros(n)
    lo, size = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    live = np.arange(n)
    win, width = d, 1
    for j in range(1, n_windows + 1):
        w = _window_size(j, n_windows, d.shape[1])
        win, width = _window_min(win, width, w), w
        pos = np.argmax(win, axis=1)
        m = win[np.arange(len(live)), pos]
        keep = m > margin[live]
        live, win, pos, m = live[keep], win[keep], pos[keep], m[keep]
        if not live.size:
            break
        f = j / n_windows
        margin[live], frac[live], dist[live] = np.minimum(f, m), f, m
        lo[live], size[live] = pos, w
    return margin, frac, lo, size, dist


def _candidate_phases(psi: np.ndarray, n_phases: int) -> np.ndarray:
    """Index of the phase 2 pi k / n_phases nearest the circular mean of
    each (finite) profile row of psi: a guess at its weakest phase."""
    mean = np.arctan2(np.sin(psi).sum(axis=1), np.cos(psi).sum(axis=1))
    return np.rint(mean * (n_phases / TWO_PI)).astype(np.intp) % n_phases


def _band_failures(psi: np.ndarray, c: np.ndarray, u: np.ndarray,
                   n_phases: int) -> tuple[np.ndarray, np.ndarray]:
    """Where each finite profile row p of psi fails its run tests against
    the phases omega_k = 2 pi k / n_phases, given its candidate phase
    c[p] of margin u[p]: the phases k < c[p] need dist > u[p], those
    k > c[p] dist >= u[p], dist the torus distance of psi[p, s] from
    omega_k; c[p] itself is not tested.  Returns the failing (row, point)
    pairs, row = p * n_phases + k, sorted by row and then by point.

    Only a phase within u of psi[p, s] can fail there.  For |psi| <=
    BAND_MAX the computed distance is within 1e-9 of the true one (the
    rounding of psi - omega, and fmod by a 2 pi off by 2.5e-16 over fewer
    than 2^18 turns), so those phases lie within u + 1/2 step of the
    phase nearest psi[p, s], inside the band of half = int(u / step) + 1
    phases on either side of it.  The distance is read only there, with
    the elementwise formula of the full table and so with its bits.  A row
    past BAND_MAX, or whose band would cover every phase, reads them all.
    """
    n_p, n_s = psi.shape
    step = TWO_PI / n_phases
    omegas = TWO_PI * np.arange(n_phases) / n_phases
    k = np.arange(n_phases)
    # dist <= thr fails: u before c, the float below u after it, never at c
    thr = np.where(k < c[:, None], u[:, None],
                   np.where(k > c[:, None], np.nextafter(u, -np.inf)[:, None],
                            -np.inf))
    half = (u / step).astype(int) + 1
    half[(np.abs(psi).max(axis=1) > BAND_MAX)
         | (2 * half + 1 >= n_phases)] = -1         # every phase
    rows, points = [], []
    for r in np.unique(half).tolist():
        sel = np.flatnonzero(half == r)
        p = psi[sel]
        if r < 0:
            width, base = n_phases, np.zeros((sel.size, n_s, 1), np.intp)
        else:
            width = 2 * r + 1
            base = (np.rint(p / step).astype(np.intp) % n_phases)[:, :, None]
        # band slot kx holds phase wrap[kx]: r phases either side of base
        wrap = (np.arange(n_phases + width - 1) - max(r, 0)) % n_phases
        kx = base + np.arange(width)
        d = _torus_dist(p[:, :, None] - omegas[wrap].take(kx))
        tab = thr[sel][:, wrap]
        at = kx + (np.arange(sel.size) * tab.shape[1])[:, None, None]
        fail = np.flatnonzero(d <= tab.take(at))
        rows.append(sel[fail // (n_s * width)] * n_phases
                    + wrap[kx.ravel()[fail]])
        points.append(fail // width % n_s)
    rows = np.concatenate(rows or [np.zeros(0, np.intp)])
    points = np.concatenate(points or [np.zeros(0, np.intp)])
    # a stable sort keeps each row's points in order (radix on 16 bits)
    order = np.argsort(rows.astype(np.min_scalar_type(n_p * n_phases)),
                       kind="stable")
    return rows[order], points[order]


def _margins(psi: np.ndarray, n_phases: int, n_windows: int) -> tuple:
    """Largest min(window length, worst-phase window margin) over sizes,
    for each profile row of psi against the phases 2 pi k / n_phases.

    For each phase and each tested length frac = j / n_windows the best
    window is the one with the largest minimum m of the torus distance of
    the profile from the phase; the phase's margin is the largest
    min(frac, m), or 0 if none is positive, and the weakest phase, the
    first on a tie, decides.  Returns arrays over the profiles: margin,
    phase index and the witness (frac, lo, hi, dist) of that phase.

    The threshold fact: frac rises with j and m never does, so with k the
    first j where j / n_windows >= u, a phase's margin is >= u (u > 0)
    exactly when dist >= u holds on a run of size_k consecutive points;
    it is > u exactly when dist > u holds on a run of size_k', k' the
    first j where j / n_windows > u (never when u >= 1).

    One candidate phase c per profile is scanned exactly, all profiles'
    candidates as one table, giving u.  Every other phase takes one run
    test (see _band_failures), read from its sorted failing points: the
    phases before c must pass the strict one and those after it the
    non-strict one.  A phase that passes has a margin above u, or equal
    to u but after c, so it cannot be the first weakest; the phases that
    fail are scanned exactly, and the first of least margin among them
    and c is the first weakest phase of the whole table, whichever c was
    taken.  The guess (_candidate_phases) only saves rescans.  A
    non-finite profile entry puts NaN on every phase, and a phase with a
    NaN has margin 0 while it may still pass a run test, so such a
    profile takes c = 0, whose margin 0 every later phase matches.
    """
    n_p, n_s = psi.shape
    omegas = TWO_PI * np.arange(n_phases) / n_phases
    prof = np.arange(n_p)
    c = np.zeros(n_p, dtype=np.intp)
    finite = np.isfinite(psi).all(axis=1)
    c[finite] = _candidate_phases(psi[finite], n_phases)
    p, ph = prof, c
    res = _scan_rows(_torus_dist(psi - omegas[c, None]), n_windows)
    u = res[0]
    # the run each phase must hold, by searchsorted index: past the last
    # length no run is long enough; the candidate itself holds any
    fracs = np.arange(1, n_windows + 1) / n_windows
    sizes = np.array([_window_size(j, n_windows, n_s)
                      for j in range(1, n_windows + 1)] + [n_s + 1])
    strict = sizes[np.searchsorted(fracs, u, "right")]
    loose = sizes[np.searchsorted(fracs, u, "left")]
    k = np.arange(n_phases)
    need = np.where(k < c[:, None], strict[:, None],
                    np.where(k > c[:, None], loose[:, None], 0)).ravel()
    ok = n_s >= need                      # a row with no failing point
    # nothing can fail after a candidate of margin 0 at phase 0
    test = np.flatnonzero((c > 0) | (u > 0.0))
    rows, s = _band_failures(psi[test], c[test], u[test], n_phases)
    if rows.size:
        rows = test[rows // n_phases] * n_phases + rows % n_phases
        first = np.ones(rows.size, dtype=bool)
        first[1:] = rows[1:] != rows[:-1]
        last = np.append(first[1:], True)
        prev = np.where(first, -1, np.roll(s, 1))
        # the passing runs lie before each failing point and after the last
        ok[rows] = False
        ok[rows[s - prev - 1 >= need[rows]]] = True
        end = rows[last]
        ok[end[n_s - 1 - s[last] >= need[end]]] = True
    bad = np.flatnonzero(~ok)
    if bad.size:
        bp, bk = bad // n_phases, bad % n_phases
        p, ph = np.append(p, bp), np.append(ph, bk)
        res = [np.append(a, b) for a, b in zip(res, _scan_rows(
            _torus_dist(psi[bp] - omegas[bk, None]), n_windows))]
    margin, frac, lo, size, dist = res
    order = np.lexsort((ph, margin, p))
    pick = order[np.searchsorted(p[order], prof)]
    return (margin[pick], ph[pick], frac[pick], lo[pick],
            lo[pick] + size[pick], dist[pick])


def _chart_sides(model: MarkovModel, r: int, x: float,
                 lam: float) -> list[int]:
    """Sides (+1 right, -1 left) on which the chart window of length 1/lam
    at x stays in the interval of index r.  Never empty: the interval has
    unit length and lam, a product of slopes >= 2, is at least 2."""
    left = float(model.lefts[r])
    sides = []
    if x + 1.0 / lam <= left + 1.0 + 1e-12:
        sides.append(1)
    if x - 1.0 / lam >= left - 1e-12:
        sides.append(-1)
    return sides


def _chart_points(eps: float, x, side, lam, n_s: int) -> np.ndarray:
    """x + side s / lam at s = k / n_s, k < n_s, a row per entry of the
    columns x, side and lam.  ScaleError, naming eps and x, when a row's
    points are not all distinct: its profiles would read float spacing."""
    x, side, lam = (np.asarray(c, float)[:, None] for c in (x, side, lam))
    z = x + side * (np.arange(n_s) / n_s) / lam
    flat = (np.diff(z, axis=1) == 0.0).any(axis=1)
    if flat.any():
        i = int(flat.argmax())
        raise ScaleError(
            f"chart window 1/{float(lam[i, 0]):.6g} at x = "
            f"{float(x[i, 0])!r} lies below the float spacing there "
            f"(eps = {eps!r}): its {n_s} points are not all distinct")
    return z


def uni_scan(model: MarkovModel, scale: ScaleFunction) -> UniCertificate:
    """Measure the oscillation margin of normalized contrast profiles.

    For each of 12 sampled grid nodes the profile of each word pair is
    read on a unit chart window on either admissible side, and the margin
    against a grid of UNI_PHASES reference phases is the largest kappa
    such that every phase admits a subwindow of length >= kappa staying
    >= kappa away from it.  The certificate takes the best pair and side
    per point (the first on ties) and the worst point overall.  The
    stopping index and value of each point are read from the scale; the
    word pairs are built once per (interval, stopping index), and each
    distinct (point, side, word) row is walked once, the rows of all
    points with one stopping index as one table (see _relative_sums).
    The margins of all profiles are then read in one pass (see _margins):
    one candidate phase per profile scanned exactly, the other phases
    only inside a band of the profile's values, and exact rescans only
    where a run test fails.  kappa_hat == 0 is a failure report, not an
    exception.
    """
    pts = _sample_points(model, 12)
    ks = [int(scale.steps[r, j]) for _, r, j in pts]
    lams = [float(scale.values[r, j]) for _, r, j in pts]
    pairs_at = {}                 # (interval, stopping index) -> word pairs
    profiles, walk = [], {}       # (point, pair, side); (point, side, word)
    for i, (x, r, _) in enumerate(pts):
        if (r, ks[i]) not in pairs_at:
            pairs_at[r, ks[i]] = word_pairs(model, r, ks[i])
        for pair in pairs_at[r, ks[i]]:
            for side in _chart_sides(model, r, x, lams[i]):
                profiles.append((i, pair, side))
                for w in pair:
                    walk.setdefault((i, side, w), len(walk))
    keys = list(walk)
    rel = np.empty((len(keys), UNI_S_POINTS))
    for k in sorted(set(ks)):
        sel = [n for n, (i, _, _) in enumerate(keys) if ks[i] == k]
        idx, sides, words = zip(*(keys[n] for n in sel))
        x = np.array([pts[i][0] for i in idx])
        rel[sel] = _relative_sums(
            model, list(words), x, _chart_points(
                scale.eps, x, sides, [lams[i] for i in idx], UNI_S_POINTS))
    psi = np.array([rel[walk[i, side, w1]] - rel[walk[i, side, w2]]
                    for i, (w1, w2), side in profiles]) / scale.eps
    margin, phase, frac, lo, hi, dist = (
        a.tolist() for a in _margins(psi, UNI_PHASES, 32))
    wits = [None] * len(pts)
    for n, (i, pair, side) in enumerate(profiles):
        if wits[i] is None or margin[n] > wits[i].kappa_x:
            wits[i] = UniWitness(
                pts[i][0], ks[i], lams[i], margin[n], pair, side,
                TWO_PI * phase[n] / UNI_PHASES, frac[n],
                (lo[n] / UNI_S_POINTS, hi[n] / UNI_S_POINTS), dist[n])
    kappa_hat = min(w.kappa_x for w in wits)
    return UniCertificate(scale.eps, float(kappa_hat), tuple(wits))


def uni_witness_recheck(model: MarkovModel, cert: UniCertificate) -> float:
    """Largest |min(window_frac, dist) - kappa_x| over the witnesses of a
    uni_scan certificate, with dist recomputed from the witness alone: the
    least torus distance to omega of temporal_distance(model, x, *pair, z)
    / eps at the window's chart points z (+inf on an empty window).  Reads
    0 when every witness is the profile it claims; uni_scan's walk and
    temporal_distance's take the same steps, so the match is exact.
    """
    worst = 0.0
    for w in cert.witnesses:
        lo, hi = (round(t * UNI_S_POINTS) for t in w.window)
        dist = math.inf
        if hi > lo:
            s = np.arange(lo, hi) / UNI_S_POINTS
            psi = temporal_distance(model, w.x, *w.pair,
                                    w.x + w.side * s / w.value) / cert.eps
            dist = float(_torus_dist(psi - w.omega).min())
        worst = max(worst, abs(min(w.window_frac, dist) - w.kappa_x))
    return worst


# ---------------------------------------------------------------------------
# uniform sets and recurrence


@dataclass(frozen=True)
class UniformSetReport:
    n: int
    mask: np.ndarray
    fraction: float
    nu_mass: float


def uniform_set(model: MarkovModel, n: int, kappa: float, horizon: int,
                eps: float | None = None) -> UniformSetReport:
    """Grid nodes whose determinant partial sums stay below the kappa line.

    A node x passes when sum_{j<i} log det(sigma^j x) < i * kappa for all
    n < i <= horizon; with eps given, the horizon at x is truncated to the
    stopping index of the matching scale there.  Monotone in kappa and n.
    """
    if kappa <= 0.0:
        raise ScaleError("kappa must be positive")
    if not 0 <= n < horizon:
        raise ScaleError("need 0 <= n < horizon")
    if horizon > HORIZON_CAP:
        raise ScaleError(f"horizon capped at {HORIZON_CAP}")
    logdet = np.log(np.asarray(model.det_step(model.nodes()), dtype=float))
    if eps is not None:
        cutoff = matching_scale(model, eps).steps
        cutoff = np.minimum(cutoff, horizon)
    else:
        cutoff = np.full(logdet.shape, horizon, dtype=int)
    cum = np.zeros(logdet.shape)
    ok = np.ones(logdet.shape, dtype=bool)
    for i, (r, c) in enumerate(grid_orbit(model, int(cutoff.max())), 1):
        cum = cum + logdet[r, c]
        if i <= n:
            continue
        active = cutoff >= i
        ok &= (cum < i * kappa) | ~active
    nu = base_system(model).nu
    frac = float(ok.mean())
    return UniformSetReport(n, ok, frac, float(nu[ok].sum()))


@dataclass(frozen=True)
class RecurrenceReport:
    n1: int
    trials: int
    rows: tuple   # (kappa, bad fraction, exp(-m kappa), within bound)


def recurrence_rate(model: MarkovModel, omega_mask: np.ndarray,
                    n1: int, m: int) -> RecurrenceReport:
    """Empirical visit statistics of the marked set along n1-step hops.

    RECURRENCE_TRIALS start points are drawn from the Gibbs weights (seed
    0); a trial is bad for a kappa of RECURRENCE_KAPPAS when fewer than
    kappa * m of its m hops land in the marked set.  Bad fractions are
    compared with exp(-m * kappa).
    """
    if n1 < 1 or m < 1:
        raise ScaleError("need n1 >= 1 and m >= 1")
    if n1 * m > HORIZON_CAP:
        raise ScaleError(f"orbit length capped at {HORIZON_CAP}")
    nu = base_system(model).nu
    p = nu.ravel() / nu.sum()
    rng = np.random.default_rng(0)
    flat = rng.choice(p.size, size=RECURRENCE_TRIALS, p=p)
    npts = model.grid_size + 1
    counts = np.zeros(RECURRENCE_TRIALS, dtype=int)
    start = (flat // npts, flat % npts)
    for i, (r, c) in enumerate(grid_orbit(model, n1 * m + 1, start)):
        if i and i % n1 == 0:
            counts += omega_mask[r, c]
    rows = []
    for kap in RECURRENCE_KAPPAS:
        bad = float((counts < kap * m).mean())
        bound = math.exp(-m * kap)
        rows.append((float(kap), bad, bound, bad < bound))
    return RecurrenceReport(n1, RECURRENCE_TRIALS, tuple(rows))
