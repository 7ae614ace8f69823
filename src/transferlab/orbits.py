"""Periodic orbits of the section map and suspension-flow statistics.

Closed orbits of the flow correspond to cyclic branch words: a word of
length n admissible under the transition structure, including the wrap
transition from its last symbol back to its first, pins exactly one fixed
point of the n-fold section map, and the roof summed along that finite
orbit is the flow period.  The module enumerates primitive orbits up to a
word length, counts them independently through the symbol transfer matrix
(necklace counting), locates the entropy as the zero of the pressure of
-s*roof, compares the orbit count pi(T) against li(e^{hT}), and estimates
flow correlation functions by seeded Monte Carlo on the suspension.

The orbit set is one record array, a row per primitive orbit with columns
word, n and period (see enumerate_periodic_orbits).  Each orbit is named
by its Lyndon word, the least of its rotations; the census grows only
prefixes of Lyndon words, settles one fixed point per orbit, and reaches
the other points of the orbit by one inverse branch each, so it never
builds the rotations of a word.  _cyclic_points is the one fixed-point
routine, for the census and cyclic_fixed_points alike.

The entropy is the zero of the pressure P(-s tau), reached from below by
secant steps: P falls with a slope between -tau_star and -tau_0 and is
convex in s, so every step stays left of the root, and the loop stops
once P(s) <= tau_0 ENTROPY_TOL, within ENTROPY_TOL below it; li is
Ei(log y) - Ei(log 2), summed by series.  No scipy solver is imported.
Monte Carlo blocks each draw from their own seed
stream and are then advanced together as one array, bit for bit as the
one-at-a-time loop they replace; a section observable is evaluated again
only at the points that crossed the roof since its last evaluation.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .markov import (NO_SYMBOL, MarkovModel, ModelError, _decode_words,
                     _encode_words, _word_steps)
from .thermo import (ConvergenceError, _config_caches, _touch,
                     gibbs_measure, pressure)

WORD_CAP_DEFAULT = 2 ** 21
# upper bound on fixed-point rounds; a point stops early once a round
# leaves it unchanged (see _settle)
FIXED_POINT_ITERATIONS = 200
ENTROPY_TOL = 1e-10
# secant steps entropy takes at most (300 random models stopped after at
# most 6 pressure evaluations)
ENTROPY_STEPS = 50
# Monte Carlo points advanced at once (whole blocks; at least one block)
MC_CHUNK_POINTS = 2 ** 17
# largest T / tau_0 a correlation accepts: advancing to T unwinds up to
# that many roof crossings, one Python round each (the CLI default of
# 100,000 samples on a unit roof took about 8 s to T = 1000 on a 2-vCPU VM)
MC_MAX_CROSSINGS = 10 ** 3
FIBER_ORDER = 64             # midpoint nodes per fiber in flow_average
LOG_FLOAT_MAX = math.log(sys.float_info.max)   # largest h*T for li(e^(hT))
_LOG_2 = math.log(2.0)
# li sums its convergent series up to log y = 50 and the asymptotic one
# beyond, whose smallest term there is about 3e-21 of the sum
_EI_SERIES_MAX = 50.0


# ---------------------------------------------------------------------------
# symbol transfer matrix and necklace counting
# ---------------------------------------------------------------------------

def transfer_matrix(model: MarkovModel) -> tuple[tuple[int, ...], ...]:
    """0/1 matrix over the alphabet: entry (i, j) = 1 when symbol j may
    follow symbol i in a word."""
    return tuple(tuple(row) for row in model.transitions.tolist())


def fixed_word_count(model: MarkovModel, n: int) -> int:
    """Number of cyclic words of length n: trace of the n-th matrix power.

    Exact integer arithmetic (Python integers in an object array); each
    cyclic word owns one fixed point of the n-fold section map.
    """
    if n < 1:
        raise ModelError("word length must be >= 1")
    mat = np.array(transfer_matrix(model), dtype=object)
    return int(np.trace(np.linalg.matrix_power(mat, n)))


def _mobius(n: int) -> int:
    sign = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            sign = -sign
        else:
            d += 1
    if n > 1:
        sign = -sign
    return sign


def necklace_counts(model: MarkovModel, n_max: int) -> tuple[int, ...]:
    """Primitive cyclic word classes per length 1..n_max, by Moebius
    inversion of the trace counts."""
    traces = {n: fixed_word_count(model, n) for n in range(1, n_max + 1)}
    out = []
    for n in range(1, n_max + 1):
        total = sum(_mobius(n // d) * traces[d]
                    for d in range(1, n + 1) if n % d == 0)
        q, r = divmod(total, n)
        if r:
            raise ModelError(f"necklace count for n={n} not divisible by n")
        out.append(q)
    return tuple(out)


# ---------------------------------------------------------------------------
# orbit enumeration
# ---------------------------------------------------------------------------

def _settle(y: np.ndarray, contr: np.ndarray, off: np.ndarray) -> np.ndarray:
    """FIXED_POINT_ITERATIONS rounds of y <- contr * y + off, elementwise.

    An element whose bits a round leaves unchanged drops out: the round is
    a function of those bits and of the element's own contr and off, so
    every later round would leave it unchanged too, and the result equals
    the full iteration bit for bit.  Stopping the whole array at once
    would not help: the point of a word of zeros shrinks towards 0 every
    round and is still moving after the last one.
    """
    y = np.array(y, dtype=float)
    live = np.arange(y.size)
    cur = y
    for _ in range(FIXED_POINT_ITERATIONS):
        if not live.size:
            break
        nxt = contr * cur + off
        moved = nxt.view(np.uint64) != cur.view(np.uint64)
        if not moved.all():
            y[live] = nxt
            live, nxt = live[moved], nxt[moved]
            contr, off = contr[moved], off[moved]
        cur = nxt
    y[live] = cur
    return y


def _cyclic_points(model: MarkovModel, rows: np.ndarray) -> np.ndarray:
    """Fixed points of cyclic uint8 rows: each row's composite inverse
    branch y -> contr * y + off, walked once from the wrap domain (its
    first symbol's target, which holds the fixed point), settled from the
    middle of that interval.  No domain is read back from a point, so a
    fixed point on an interval's right end is found like any other."""
    wrap = model.symbol_target[rows[:, 0]]
    contr = np.ones(rows.shape[0])
    off = np.zeros(rows.shape[0])
    for s, b_off in _word_steps(model, rows, wrap):
        contr /= s
        off = off / s + b_off
    return _settle(model.lefts[wrap] + 0.5, contr, off)


def cyclic_fixed_points(model: MarkovModel, words) -> np.ndarray:
    """Fixed points of equal-length cyclic str words (_cyclic_points)."""
    rows = _encode_words(model, words)
    if not rows.size or (rows == NO_SYMBOL).any():
        raise ModelError("cyclic words must be nonempty, over the alphabet")
    return _cyclic_points(model, rows)


def orbit_fixed_point(model: MarkovModel, word: str) -> float:
    """Fixed point of one cyclic word (see cyclic_fixed_points)."""
    if not model.word_admissible(word + word[:1]):
        raise ModelError(f"word {word!r} is not cyclically admissible")
    return float(cyclic_fixed_points(model, [word])[0])


def enumerate_periodic_orbits(model: MarkovModel, n_max: int) -> np.recarray:
    """All primitive closed orbits of word length <= n_max, one row each.

    The table has three columns: `word`, the lexicographically least
    rotation of the coding word (str, U{n_max}); `n`, its length (int64);
    and `period`, the flow period (float64), the roof summed over the
    points of the section orbit.  Rows are ordered by length, then by
    word code; len(table) is the number of primitive orbits.  Raises
    ModelError when n_max < 0 or alphabet^n_max exceeds WORD_CAP_DEFAULT.

    The least rotation of a primitive word is its Lyndon word, and the
    admissible prefixes of Lyndon words (prenecklaces) grow a symbol at a
    time in code order (Fredricksen-Kessler-Maiorana; Ruskey-Savage-Wang
    for the restricted form): a_n may follow a_1..a_{n-1} when
    a_n >= a_{n-p} and the transition a_{n-1} -> a_n is allowed, p the
    length of the longest Lyndon prefix, which stays p when a_n == a_{n-p}
    and becomes n otherwise.  The rows with p == n and an allowed wrap
    a_n -> a_1 are the level's table words.  Only their fixed points are
    settled (_cyclic_points); the other n - 1 orbit points follow
    backwards around the cycle, one inverse branch each, from the last
    symbol to the second.
    A period sums the roof in that order: the word's fixed point first,
    then each point as the walk reaches it.
    """
    base = len(model.alphabet)
    if n_max < 0:
        raise ModelError(f"n_max must be >= 0, got {n_max}")
    if n_max >= 1 and base ** n_max > WORD_CAP_DEFAULT:
        raise ModelError(f"alphabet^{n_max} exceeds the enumeration cap "
                         f"{WORD_CAP_DEFAULT}")
    dtype = [("word", f"U{n_max}"), ("n", np.int64), ("period", float)]
    counts = necklace_counts(model, n_max)
    # written level by level into its rows, so it is held once
    table = np.recarray(sum(counts), dtype)
    allowed = model.transitions > 0
    symbols = np.arange(base, dtype=np.uint8)
    # one byte per symbol; p is each prenecklace's longest Lyndon prefix
    words, p = symbols[:, None], np.ones(base, np.intp)
    for n in range(1, n_max + 1):
        if n > 1:
            ref = words[np.arange(len(words)), n - 1 - p]
            parent, sym = np.nonzero((symbols >= ref[:, None])
                                     & allowed[words[:, -1]])
            sym = sym.astype(np.uint8)
            p = np.where(sym == ref[parent], p[parent], n)
            words = np.concatenate((words[parent], sym[:, None]), axis=1)
        lyndon = words[(p == n) & allowed[words[:, -1], words[:, 0]]]
        y = _cyclic_points(model, lyndon)
        rows = table[sum(counts[:n - 1]):sum(counts[:n])]
        rows.period = model.roof(y)
        for s, b_off in itertools.islice(_word_steps(
                model, lyndon, model.symbol_target[lyndon[:, 0]]), n - 1):
            y = y / s + b_off
            rows.period += model.roof(y)
        rows.word, rows.n = _decode_words(lyndon, model.alphabet), n
    return table


# ---------------------------------------------------------------------------
# entropy and the orbit-count comparison
# ---------------------------------------------------------------------------

_entropy_cache: dict = {}     # (config, ENTROPY_TOL) -> h
_config_caches.append((globals(), "_entropy_cache"))


def entropy(model: MarkovModel) -> float:
    """Unique s with P(-s tau) = pressure(model, s) = 0, from below.

    P falls with a slope between -tau_star and -tau_0 (Parry and
    Pollicott, Asterisque 187-188, 1990), and it is convex in s, also on
    the grid: a nonnegative matrix whose entries are log-convex in s has a
    log-convex spectral radius (Kingman, Quart. J. Math. 12, 1961).  So
    s0 = 0 and s1 = P(0) / (2 tau_star) lie left of the root, and each
    secant step through the last two points stays left of it and rises
    toward it.  The loop stops once P(s) <= tau_0 ENTROPY_TOL, which puts
    s within ENTROPY_TOL below the root.  A pressure that fails to fall,
    or ENTROPY_STEPS steps without that stop, raises ConvergenceError.
    No scipy solver is used.  Roots are cached by (config, ENTROPY_TOL)
    for the two configs used most recently, as thermo's caches are.
    """
    key = (model.config, ENTROPY_TOL)
    _touch(model.config)
    if key in _entropy_cache:
        return _entropy_cache[key]
    p0 = pressure(model, 0.0)
    if p0 <= 0:
        raise ModelError("pressure at s=0 is nonpositive; no entropy root")
    s0, s1 = 0.0, p0 / (2.0 * model.tau_star)
    for _ in range(ENTROPY_STEPS):
        p1 = pressure(model, s1)
        if p1 <= model.tau_0 * ENTROPY_TOL:
            _entropy_cache[key] = s1
            return s1
        if not p1 < p0:
            raise ConvergenceError(f"pressure does not fall: {p0!r} at "
                                   f"s={s0!r}, {p1!r} at s={s1!r}")
        s0, s1, p0 = s1, s1 - p1 * (s1 - s0) / (p1 - p0), p1
    raise ConvergenceError(f"entropy secant did not converge in "
                           f"{ENTROPY_STEPS} steps, value is {s1!r}")


def li(y: float) -> float:
    """Offset logarithmic integral int_2^y du/log u = Ei(log y) - Ei(log 2);
    zero at or below 2.

    With x = log y and x0 = log 2 it is int_x0^x e^t/t dt, summed as
    log(x/x0) + sum_k (x^k - x0^k)/(k k!), whose terms are all positive,
    up to x = _EI_SERIES_MAX; beyond, Ei(x) is the asymptotic series
    e^x/x sum_k k!/x^k, cut at its first term below eps of the sum
    (Abramowitz and Stegun 5.1.10 and 5.1.51).  There Ei(x) > 1e20, and
    Ei(log 2) = 1.045... is below half its ulp, so it is not subtracted.
    li is inf at inf and NaN at NaN.
    """
    if y <= 2.0:
        return 0.0
    if not math.isfinite(y):
        return float(y)
    x = math.log(y)
    eps = sys.float_info.epsilon
    if x > _EI_SERIES_MAX:
        total, term, k = 1.0, 1.0, 1
        while term > eps * total:
            term *= k / x
            total += term
            k += 1
        return math.exp(x) / x * total
    d = x - _LOG_2
    # e_k = (x^k - x0^k)/k! and q = x0^(k-1)/(k-1)!, both by recurrence
    total, e_k, q, k = math.log1p(d / _LOG_2), 0.0, 1.0, 1
    while True:
        e_k = (x * e_k + d * q) / k
        total += e_k / k
        if k > x and e_k / k <= eps * total:
            return total
        q *= _LOG_2 / k
        k += 1


@dataclass(frozen=True)
class CountingReport:
    """pi(T) against li(e^{hT}) on a grid of periods, with the orbit
    table (enumerate_periodic_orbits) whose periods were counted."""

    t_grid: np.ndarray
    pi: np.ndarray
    li_values: np.ndarray
    c_hat: float | None          # slope of log|pi - li| where |diff| >= 1
    h: float
    complete: np.ndarray         # rows with T inside the enumeration window
    n_max: int
    orbits: np.recarray          # the enumeration the counts come from

    @property
    def diff(self) -> np.ndarray:
        return self.pi - self.li_values


def prime_orbit_report(model: MarkovModel, n_max: int,
                       t_grid) -> CountingReport:
    """Count closed orbits by period and compare with li(e^{hT}).

    Rows with T > n_max * tau_0 may miss orbits of longer words and are
    flagged incomplete; the error-exponent fit uses complete rows with
    |pi - li| >= 1 (an integer count closer than one to its target is
    indistinguishable from rounding).
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ModelError("t_grid must be a nonempty 1-d array")
    if not (np.isfinite(t) & (t >= 0)).all():
        raise ModelError("orbit-count periods must be finite and nonnegative")
    orbits = enumerate_periodic_orbits(model, n_max)
    periods = np.sort(orbits.period)
    h = entropy(model)
    big = np.flatnonzero(h * t > LOG_FLOAT_MAX)
    if big.size:
        ti = float(t[big[0]])
        raise ModelError(f"T = {ti!r} is too long: h*T = {h * ti:.6g} "
                         f"exceeds {LOG_FLOAT_MAX:.6g}, so e^(hT) overflows")
    pi = np.searchsorted(periods, t, side="right").astype(np.int64)
    li_vals = np.array([li(math.exp(h * ti)) for ti in t])
    complete = t <= n_max * model.tau_0 + 1e-12
    diff = pi - li_vals
    sel = complete & (np.abs(diff) >= 1.0)
    c_hat = None
    if sel.sum() >= 2 and np.ptp(t[sel]) > 0:
        c_hat = float(np.polyfit(t[sel], np.log(np.abs(diff[sel])), 1)[0])
    return CountingReport(t, pi, li_vals, c_hat, h, complete, n_max,
                          orbits)


# ---------------------------------------------------------------------------
# Monte Carlo correlation on the suspension
# ---------------------------------------------------------------------------

def _as_observable(obs):
    """Accept a plain section function or a (section, fiber profile) pair."""
    if callable(obs):
        return obs, None
    sec, fib = obs
    if not callable(sec) or (fib is not None and not callable(fib)):
        raise ModelError("observable must be callable or a pair of callables")
    return sec, fib


def _eval_observable(sec, x):
    """sec(x) as a new float array of x's shape; a scalar value
    broadcasts.  The caller may write into it."""
    vals = np.array(sec(x), dtype=float)
    if vals.shape != np.shape(x):
        vals = np.broadcast_to(vals, np.shape(x)).astype(float)
    return vals


def _with_fibre(vals, fib, u):
    """Section values times the fibre profile at heights u, if any."""
    return vals if fib is None else vals * np.asarray(fib(u), dtype=float)


def flow_average(model: MarkovModel, obs) -> float:
    """Integral of the observable against the flow-invariant measure:
    section weights times the fiber average, normalized by the mean roof."""
    sec, fib = _as_observable(obs)
    nu = gibbs_measure(model)
    total = 0.0
    tau_bar = 0.0
    for xs, w in zip(model.nodes(), nu):
        tau = np.asarray(model.roof(xs), dtype=float)
        tau_bar += float(np.sum(w * tau))
        base = np.asarray(sec(xs), dtype=float)
        if fib is None:
            fiber = tau
        else:
            # midpoint rule along each fiber [0, tau(x))
            mids = (np.arange(FIBER_ORDER) + 0.5) / FIBER_ORDER
            uu = tau[:, None] * mids[None, :]
            fiber = np.asarray(fib(uu), dtype=float).mean(axis=1) * tau
        total += float(np.sum(w * base * fiber))
    return total / tau_bar


def covariance_at_zero(model: MarkovModel, a, b) -> float:
    """E[A B] - E[A] E[B] for same-point observables, by quadrature."""
    sa, fa = _as_observable(a)
    sb, fb = _as_observable(b)

    def sec_ab(x):
        return np.asarray(sa(x), dtype=float) * np.asarray(sb(x), dtype=float)

    if fa is None and fb is None:
        fib_ab = None
    else:
        def fib_ab(u):
            out = np.ones_like(np.asarray(u, dtype=float))
            if fa is not None:
                out = out * np.asarray(fa(u), dtype=float)
            if fb is not None:
                out = out * np.asarray(fb(u), dtype=float)
            return out

    mean_ab = flow_average(model, (sec_ab, fib_ab))
    return mean_ab - flow_average(model, a) * flow_average(model, b)


def _section_sampler(model: MarkovModel):
    """Cumulative cell weights for drawing x from the size-biased section
    measure nu * tau / mean(tau)."""
    p = gibbs_measure(model) * model.roof(model.nodes())
    cum = np.cumsum((0.5 * (p[:, :-1] + p[:, 1:])).ravel())
    return cum, model.lefts, model.grid_size


def _draw_section(cum, lefts, grid_size, rng, m):
    r = rng.random(m) * cum[-1]
    # the keys searched in sorted order, then put back: the same indices
    # as one unsorted search, found with fewer cache misses
    order = np.argsort(r)
    idx = np.empty(m, np.intp)
    idx[order] = np.searchsorted(cum, r[order], side="right")
    iv, cell = np.divmod(idx, grid_size)
    return lefts[iv] + (cell + rng.random(m)) / grid_size


def _advance(model: MarkovModel, x, u, tau, dt):
    """Flow forward by dt, unwinding the roof crossings in place; tau holds
    roof(x) and is kept current.  A point under its roof after the shift
    stays there, so each round only revisits the points that crossed.
    Returns x, u, tau and the indices of the points that crossed at least
    once: every point whose x changed is among them."""
    u = u + dt
    moved = idx = np.flatnonzero(u >= tau)
    while idx.size:
        u[idx] -= tau[idx]
        x[idx] = model.forward(x[idx])
        tau[idx] = np.asarray(model.roof(x[idx]), dtype=float)
        idx = idx[u[idx] >= tau[idx]]
    return x, u, tau, moved


@dataclass(frozen=True)
class DecayReport:
    """Monte Carlo flow correlations with an exponential-decay fit."""

    t_grid: np.ndarray
    corr: np.ndarray
    stderr: np.ndarray
    rate: float | None           # decay exponent; None when undefined
    rate_err: float | None
    r_squared: float | None
    samples: int
    blocks: int
    seed: int


def _mc_blocks(model, sec_a, fib_a, sec_b, fib_b, t_sorted, m, children,
               sampler) -> np.ndarray:
    """Per-block covariances at the sorted times, one row per child seed.

    Each block draws its m points from its own stream, as if run alone;
    then all blocks advance together as one flat array, and each is
    centred by its own row mean.  Every point sees the same arithmetic as
    in a one-block run, and a row mean of a C-ordered (blocks, m) array
    sums pairwise like a one-block mean, so the rows are bit for bit
    those of running the blocks one at a time.  The section values of a
    are kept and recomputed only where a step moved x; at t = 0 they are
    the values of b when both share one section function.
    """
    cum, lefts, grid_size = sampler
    n = len(children)
    x = np.empty((n, m))
    v = np.empty((n, m))
    for row, child in enumerate(children):
        rng = np.random.Generator(np.random.PCG64(child))
        x[row] = _draw_section(cum, lefts, grid_size, rng, m)
        v[row] = rng.random(m)
    x = x.ravel()
    tau = np.asarray(model.roof(x), dtype=float)
    u = v.ravel() * tau
    vals_a = _eval_observable(sec_a, x)
    vals_b = vals_a if sec_b is sec_a else _eval_observable(sec_b, x)
    b0 = _with_fibre(vals_b, fib_b, u).reshape(n, m)
    b0 = b0 - b0.mean(axis=1, keepdims=True)
    out = np.empty((n, t_sorted.size))
    t_prev = 0.0
    for k, t in enumerate(t_sorted):
        x, u, tau, moved = _advance(model, x, u, tau, t - t_prev)
        t_prev = t
        vals_a[moved] = _eval_observable(sec_a, x[moved])
        a_t = _with_fibre(vals_a, fib_a, u).reshape(n, m)
        out[:, k] = ((a_t - a_t.mean(axis=1, keepdims=True)) * b0).mean(axis=1)
    return out


def correlation_decay(model: MarkovModel, a, b, t_grid, samples: int,
                      seed: int = 0, blocks: int = 32) -> DecayReport:
    """Correlation of two suspension observables along the flow.

    Initial points are drawn from the flow-invariant measure; the flow is
    advanced by unwinding the roof.  Each of the blocks draws its points
    from its own child of the seed, is centred by its own mean, and gives
    one covariance per time; the estimate is the mean over blocks and the
    error their spread.  Blocks advance together, at most MC_CHUNK_POINTS
    points at a time but always whole blocks, so memory grows with the
    block size samples // blocks once that exceeds MC_CHUNK_POINTS, and
    the seed streams take memory in proportion to the block count (the
    CLI bounds both by MC_CHUNK_POINTS).  Times above MC_MAX_CROSSINGS
    times the least roof value are rejected, since time grows with the
    roof crossings unwound, and so are fewer than 2 blocks, which give no
    spread.  The result depends only on the seed and the block count.

    An observable is a section function of x, or a (section, fibre
    profile) pair whose value is section(x) * profile(u) at height u.  A
    section function must be elementwise: its value at a point depends
    on that point alone, so it is evaluated again only at the points
    whose x a step moved (a profile is applied at every time, since u
    always moves).
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ModelError("t_grid must be a nonempty 1-d array")
    if not (np.isfinite(t) & (t >= 0)).all():
        raise ModelError("correlation times must be finite and nonnegative")
    if t.max() / model.tau_0 > MC_MAX_CROSSINGS:
        raise ModelError(
            f"correlation time T = {float(t.max())!r} exceeds "
            f"{MC_MAX_CROSSINGS * model.tau_0!r} ({MC_MAX_CROSSINGS} times "
            f"the least roof value)")
    if blocks < 2:
        raise ModelError(f"need at least 2 blocks, got {blocks}")
    if samples < blocks:
        raise ModelError(f"need at least {blocks} samples (one per block)")
    order = np.argsort(t, kind="stable")
    t_sorted = t[order]
    sec_a, fib_a = _as_observable(a)
    sec_b, fib_b = _as_observable(b)
    sampler = _section_sampler(model)
    m = samples // blocks
    children = np.random.SeedSequence(seed).spawn(blocks)
    group = max(1, MC_CHUNK_POINTS // m)
    rows = [_mc_blocks(model, sec_a, fib_a, sec_b, fib_b, t_sorted, m,
                       children[i:i + group], sampler)
            for i in range(0, blocks, group)]
    table = np.vstack(rows)
    corr_sorted = table.mean(axis=0)
    err_sorted = table.std(axis=0, ddof=1) / math.sqrt(blocks)
    corr = np.empty_like(corr_sorted)
    stderr = np.empty_like(err_sorted)
    corr[order] = corr_sorted
    stderr[order] = err_sorted

    used = np.abs(corr) > 2.0 * stderr
    rate = rate_err = r2 = None
    if used.sum() >= 3 and np.ptp(t[used]) > 0:
        logs = np.log(np.abs(corr[used]))
        coef, cov = np.polyfit(t[used], logs, 1, cov=True)
        rate = float(-coef[0])
        rate_err = float(math.sqrt(max(cov[0, 0], 0.0)))
        resid = logs - np.polyval(coef, t[used])
        ss_tot = float(np.sum((logs - logs.mean()) ** 2))
        r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 0.0
    return DecayReport(t, corr, stderr, rate, rate_err, r2, m * blocks,
                       blocks, seed)
