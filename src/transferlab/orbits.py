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
prefixes of Lyndon words, settles one fixed point per orbit by
contraction iteration, and reaches the other points of the orbit by one
inverse branch each, so it never builds the rotations of a word.

The entropy is the root scipy's bisection returns, found from a third of
its pressure evaluations: pressure falls at least as fast as tau_min * s,
so once brentq has located the root, bisect runs on predicted signs and
evaluates only the midpoints near it.  Monte Carlo blocks each draw from
their own seed stream and are then advanced together as one array; both
results are bit for bit those of the one-at-a-time loops they replace.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .markov import (NO_SYMBOL, MarkovModel, ModelError, _decode_words,
                     _encode_words, _walk_words)
from .thermo import RATIO_TOL, ConvergenceError, gibbs_measure, pressure

WORD_CAP_DEFAULT = 2 ** 21
# upper bound on fixed-point rounds; a point stops early once a round
# leaves it unchanged (see _settle)
FIXED_POINT_ITERATIONS = 200
ENTROPY_TOL = 1e-10
# entropy root: pressure signs are taken from the bracket beyond this
# distance (derived in _bisect_root), which brentq shrinks below it first
MARGIN = 1e-9
# Monte Carlo points advanced at once (whole blocks; at least one block)
MC_CHUNK_POINTS = 2 ** 17
# largest T / tau_0 a correlation accepts: advancing to T unwinds up to
# that many roof crossings, one Python round each (the CLI default of
# 100,000 samples on a unit roof took about 8 s to T = 1000 on a 2-vCPU VM)
MC_MAX_CROSSINGS = 10 ** 3
FIBER_ORDER = 64             # midpoint nodes per fiber in flow_average
LOG_FLOAT_MAX = math.log(sys.float_info.max)   # largest h*T for li(e^(hT))


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


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def _mobius(n: int) -> int:
    if n == 1:
        return 1
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
        total = sum(_mobius(n // d) * traces[d] for d in _divisors(n))
        q, r = divmod(total, n)
        if r:
            raise ModelError(f"necklace count for n={n} not divisible by n")
        out.append(q)
    return tuple(out)


# ---------------------------------------------------------------------------
# orbit enumeration
# ---------------------------------------------------------------------------

def _settle(step, y: np.ndarray, *cols) -> np.ndarray:
    """FIXED_POINT_ITERATIONS rounds of y <- step(y, *cols), elementwise.

    An element whose bits a round leaves unchanged drops out: the round is
    a function of those bits and of the element's own rows of cols, so
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
        nxt = step(cur, *cols)
        moved = nxt.view(np.uint64) != cur.view(np.uint64)
        if not moved.all():
            y[live] = nxt
            live, nxt = live[moved], nxt[moved]
            cols = tuple(c[moved] for c in cols)
        cur = nxt
    y[live] = cur
    return y


def _affine_step(y, contr, off):
    return contr * y + off


def _cyclic_steps(model: MarkovModel, words: np.ndarray):
    """Yield (slope, offset) of the branch instance at each position of
    the equal-length cyclic uint8 rows, innermost (last position) first:
    the domain of position i's branch is the target interval of the
    symbol at position i+1, cyclically."""
    target = model.symbol_target
    k = len(model.alphabet)
    # flat (symbol, next symbol) tables
    slope, offset = (t[:, target].ravel()
                     for t in (model.branch_slope, model.branch_offset))
    n = words.shape[1]
    for i in range(n - 1, -1, -1):
        # widened first: the compact rows would wrap at k * k
        pair = words[:, i].astype(np.intp) * k + words[:, (i + 1) % n]
        yield slope.take(pair), offset.take(pair)


def _cyclic_affine(model: MarkovModel, words: np.ndarray):
    """Composite inverse-branch coefficients (contraction, offset) per
    cyclic word, and the left endpoint of the interval holding its fixed
    point."""
    contr = np.ones(words.shape[0])
    off = np.zeros(words.shape[0])
    for s, b_off in _cyclic_steps(model, words):
        contr /= s
        off = off / s + b_off
    return contr, off, model.lefts[model.symbol_target[words[:, 0]]]


def cyclic_fixed_points(model: MarkovModel, words) -> np.ndarray:
    """Fixed points of equal-length cyclic words by contraction iteration.

    Each round walks all words at once as apply_word walks one, from the
    domain interval of the current point (model.interval_index): a point
    on a slice seam raises the same error as there, and the result equals
    FIXED_POINT_ITERATIONS apply_word rounds bit for bit.
    """
    rows = _encode_words(model, words)
    if not rows.size or (rows == NO_SYMBOL).any():
        raise ModelError("cyclic words must be nonempty, over the alphabet")

    def apply_words(y, rows, words):
        for y in _walk_words(model, rows, y, model.interval_index(y), words):
            pass
        return y

    return _settle(apply_words, model.lefts[model.symbol_target[rows[:, 0]]]
                   + 0.5, rows, np.asarray(words))


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
    iterated; the other n - 1 orbit points follow backwards around the
    cycle, one inverse branch each, from the last symbol to the second.
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
        contr, off, lefts = _cyclic_affine(model, lyndon)
        y = _settle(_affine_step, lefts + 0.5, contr, off)
        rows = table[sum(counts[:n - 1]):sum(counts[:n])]
        rows.period = model.roof(y)
        for s, b_off in itertools.islice(_cyclic_steps(model, lyndon),
                                         n - 1):
            y = y / s + b_off
            rows.period += model.roof(y)
        rows.word, rows.n = _decode_words(lyndon, model.alphabet), n
    return table


# ---------------------------------------------------------------------------
# entropy and the orbit-count comparison
# ---------------------------------------------------------------------------

_entropy_cache: dict = {}


def entropy(model: MarkovModel, tol: float = ENTROPY_TOL) -> float:
    """Unique s with P(-s tau) = pressure(model, s) = 0: the root that
    scipy.optimize.bisect(pressure, 0, hi, xtol=tol) returns, bit for bit,
    from about a third of its pressure evaluations (see _bisect_root).
    Pressure is evaluated once per s.
    """
    key = (model.config, tol)
    if key in _entropy_cache:
        return _entropy_cache[key]
    memo: dict = {}

    def pr(s: float) -> float:
        if s not in memo:
            memo[s] = pressure(model, s)
        return memo[s]

    p0 = pr(0.0)
    if p0 <= 0:
        raise ModelError("pressure at s=0 is nonpositive; no entropy root")
    hi = p0 / model.tau_0 + 1.0
    for _ in range(60):
        if pr(hi) < 0:
            break
        hi *= 2.0
    else:
        raise ModelError("failed to bracket the entropy root")
    # assumes only tau >= tau_0 / 2, so a roof that dips below the
    # validation grid's minimum tau_0 between its samples is covered
    margin = max(MARGIN, 4.0 * RATIO_TOL / model.tau_0)
    h = _bisect_root(pr, hi, tol, margin)
    _entropy_cache[key] = h
    return h


def _bisect_root(f, hi: float, xtol: float, margin: float) -> float:
    """bisect(f, 0, hi, xtol=xtol), bit for bit, for a decreasing f with
    f(0) > 0 > f(hi), evaluating f only near the root.

    brentq(f, 0, hi, xtol=margin) returns r, and stops on two evaluated
    points of opposite sign within w = margin + 4 eps |r| of r (its xtol
    plus its default rtol).  bisect then runs on sign(s): f(s) at both ends
    and at every midpoint within margin of [lo, up] = [r - w, r + w], +1
    left of that and -1 right of it.  scipy's loop reads a midpoint only
    through the sign of f(xm) * f(xa), with f(xa) the true f(0) > 0, and
    the test f(xm) == 0, so the midpoints and the root are those of bisect
    on f itself.  Evaluations need not narrow [lo, up]: bisect's bracket
    shrinks to each evaluated midpoint, and its later midpoints stay
    inside it.  An iteration cap of either solver raises ConvergenceError.

    Why margin = MARGIN = 1e-9 is safe for the entropy pressure.  Let
    P_N(s) = log lambda(s) be the exact pressure of the grid operator,
    whose matrix entries are sums of c * exp(-s tau(y)) with c >= 0 and
    tau(y) >= tau_min.  Raising s by d scales every entry down by at least
    exp(-tau_min d), and the Perron root is monotone in the entries, so
    P_N(s + d) <= P_N(s) - tau_min * d: the grid form of
    P'(s) = -int tau dmu_s <= -tau_min (Parry and Pollicott, Asterisque
    187-188, 1990).  power_iteration stops with every ratio (L u / u) in
    [rmin, rmax], rmax / rmin < 1 + RATIO_TOL, and both lambda and the
    returned eigenvalue lie in that range (Collatz-Wielandt), so a
    computed pressure is within RATIO_TOL of P_N (plus rounding near
    1e-15).  brentq's two points give an evaluated x+ >= lo with
    f(x+) >= 0 and an evaluated x- <= up with f(x-) <= 0.  A midpoint
    xm < lo - margin then has
    P_N(xm) >= P_N(x+) + tau_min * margin > tau_min * margin - RATIO_TOL,
    and a computed pressure above tau_min * margin - 2 * RATIO_TOL > 0 when
    margin > 2 * RATIO_TOL / tau_min; the right side is the mirror image.
    MARGIN = 1e-9 = 1000 * RATIO_TOL meets that for every tau_min >= 2e-3,
    and entropy() widens it to 4 * RATIO_TOL / tau_0 when tau_0 < 4e-3.
    """
    # imported here so that commands with no entropy never load it
    from scipy.optimize import bisect, brentq

    r = _solved(*brentq(f, 0.0, hi, xtol=margin, full_output=True,
                        disp=False))
    w = margin + 4 * np.finfo(float).eps * abs(r)
    lo, up = r - w, r + w

    def sign(s: float) -> float:
        if 0.0 < s < lo - margin:
            return 1.0
        if up + margin < s < hi:
            return -1.0
        return f(s)

    return _solved(*bisect(sign, 0.0, hi, xtol=xtol, full_output=True,
                           disp=False))


def _solved(x: float, res) -> float:
    if not res.converged:
        raise ConvergenceError(f"{res.method} did not converge in "
                               f"{res.iterations} steps, value is {x}")
    return x


def li(y: float) -> float:
    """Offset logarithmic integral int_2^y du/log u; zero at or below 2."""
    if y <= 2.0:
        return 0.0
    from scipy.integrate import quad    # here: only orbit counting needs it

    val, _ = quad(lambda t: math.exp(t) / t, math.log(2.0), math.log(y),
                  limit=200)
    return float(val)


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


def _eval_observable(sec, fib, x, u):
    vals = np.asarray(sec(x), dtype=float)
    if vals.shape != np.shape(x):
        vals = np.broadcast_to(vals, np.shape(x)).astype(float)
    if fib is not None:
        vals = vals * np.asarray(fib(u), dtype=float)
    return vals


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
    idx = np.searchsorted(cum, r, side="right")
    iv, cell = np.divmod(idx, grid_size)
    return lefts[iv] + (cell + rng.random(m)) / grid_size


def _advance(model: MarkovModel, x, u, tau, dt):
    """Flow forward by dt, unwinding the roof crossings in place; tau holds
    roof(x) and is kept current.  A point under its roof after the shift
    stays there, so each round only revisits the points that crossed."""
    u = u + dt
    idx = np.flatnonzero(u >= tau)
    while idx.size:
        u[idx] -= tau[idx]
        x[idx] = model.forward(x[idx])
        tau[idx] = np.asarray(model.roof(x[idx]), dtype=float)
        idx = idx[u[idx] >= tau[idx]]
    return x, u, tau


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
    those of running the blocks one at a time.
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
    b0 = _eval_observable(sec_b, fib_b, x, u).reshape(n, m)
    b0 = b0 - b0.mean(axis=1, keepdims=True)
    out = np.empty((n, t_sorted.size))
    t_prev = 0.0
    for k, t in enumerate(t_sorted):
        x, u, tau = _advance(model, x, u, tau, t - t_prev)
        t_prev = t
        a_t = _eval_observable(sec_a, fib_a, x, u).reshape(n, m)
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
    roof crossings unwound.  The result depends only on the seed and the
    block count.
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
