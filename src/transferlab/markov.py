"""Piecewise-affine expanding Markov maps on disjoint unions of intervals.

A model is a finite family of unit intervals laid out on the real line, a
forward map sigma that expands each interval slice affinely onto another
interval, and three scalar fields on the union: a roof function tau > 0
(return time), a potential F, and a stable factor mu with values in (0,1).
The derived per-step determinant is expansion * mu.

An interval is an index k into ``lefts``: U_k is [lefts[k], lefts[k] + 1),
row k of ``nodes()`` holds its grid, and every package function that
names an interval takes k.  The ids in ``intervals`` (``intervals[k]``
names U_k) appear only in CSV columns and messages.  A coordinate on a
seam between two intervals belongs to the interval on its right, and the
right end of the last interval belongs to that interval: one rule,
``MarkovModel._interval``, which ``interval_index`` applies after
checking its coordinates and ``forward`` and ``slope_at`` apply as is.

Each symbol names the interval an inverse branch lands in; a word is a
uint8 row of symbols, applied right to left, and is admissible when
consecutive transitions are allowed by the adjacency structure.  One
grower, ``_grow_words``, makes every set of all admissible words, as each
child's symbol and parent; partition cylinders compose (contraction,
offset) outer branch first and keep no word, and the n-step word table
(``cancellation.all_words``), inner branch first, holds the only rows
built from them.  The orbit census grows only Lyndon-word prefixes, by its
own rule (``orbits.enumerate_periodic_orbits``).  ``_word_steps``, the one
branch check of a walk, checks each step of a walk of rows as it yields
its slopes and offsets: ``_walk_words`` applies them (``apply_word``, and
``_roof_sums`` for ``roof_sum_on_word`` and the UNI tables), and cyclic
words read them from the wrap domain, the target of their first symbol
(``orbits._cyclic_points``, every fixed point of a cyclic word, and the
census's walk around each orbit).  Strings become rows (``_encode_words``)
only where those, ``_roof_sums`` and ``word_admissible`` take them, and
rows become strings (``_decode_words``) only in orbit tables, bump records
and refinement witnesses.  Branch slopes are constant, so all cocycle
products over words of integer-slope models are exact in double precision,
and forward orbits of dyadic grid points stay on the grid.

Two families are built in:

* ``doubling``: one interval [0,1), two full branches of slope 2.
* ``markov3``: three intervals, full 3-shift by default, slope equal to the
  out-degree of each interval; an optional forbidden transition removes one
  edge (out-degree 2 rows then have slope 2).

``build_model`` lays the branch structure out once, as the read-only array
fields ``lefts`` through ``walk_next`` of ``MarkovModel``, each branch
once (``branch_slope`` and ``branch_offset`` view the walk tables); these
tables are the model's only branch structure, and every reader walks them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

TWO_PI = 2.0 * math.pi

# Dense sampling used for field extrema and positivity validation.
_VALIDATION_SAMPLES = 1 << 14
NO_SYMBOL = 255     # a byte that names no symbol: no walk-table branch


@dataclass(frozen=True)
class CoefFn:
    """Closed-form scalar field c0 + c1*x + c2*sin(2 pi x) + c3*cos(2 pi x)."""

    const: float = 0.0
    linear: float = 0.0
    sin: float = 0.0
    cos: float = 0.0

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, self.const)
        if self.linear:
            out = out + self.linear * x
        if self.sin:
            out = out + self.sin * np.sin(TWO_PI * x)
        if self.cos:
            out = out + self.cos * np.cos(TWO_PI * x)
        return out if out.ndim else float(out)

    def coeffs(self) -> tuple[float, float, float, float]:
        return (self.const, self.linear, self.sin, self.cos)


class ModelError(ValueError):
    pass


def _read(key: str, text: str, kind=float):
    """kind(text) for a config value, naming the key when it fails."""
    try:
        return kind(text)
    except ValueError:
        raise ModelError(f"{key}: cannot read {text.strip()!r} "
                         f"as {kind.__name__}") from None


_CONFIG_KEYS = ("family", "slopes", "forbidden", "roof", "potential", "mu",
                "grid_size", "theta")


@dataclass(frozen=True)
class ModelConfig:
    """Plain key=value model description; round-trips exactly through text."""

    family: str = "doubling"
    roof: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 0.0)
    potential: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    mu: tuple[float, float, float, float] = (0.5, 0.0, 0.0, 0.0)
    grid_size: int = 4096
    theta: float = 0.5
    forbidden: tuple[str, ...] = ()
    slopes: tuple[float, ...] = ()

    def to_text(self) -> str:
        lines = [f"family = {self.family}"]
        if self.slopes:
            lines.append("slopes = " + ", ".join(repr(s) for s in self.slopes))
        if self.forbidden:
            lines.append("forbidden = " + ", ".join(self.forbidden))
        for key in ("roof", "potential", "mu"):
            vals = getattr(self, key)
            lines.append(f"{key} = " + ", ".join(repr(v) for v in vals))
        lines.append(f"grid_size = {self.grid_size}")
        lines.append(f"theta = {self.theta!r}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "ModelConfig":
        fields: dict = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ModelError(f"line {lineno}: expected key = value, got {raw!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _CONFIG_KEYS:
                raise ModelError(f"line {lineno}: unknown key {key!r}")
            if key in fields:
                raise ModelError(f"line {lineno}: duplicate key {key!r}")
            fields[key] = val
        if "family" not in fields:
            raise ModelError("missing key 'family'")
        kwargs: dict = {"family": fields.pop("family")}
        if "slopes" in fields:
            kwargs["slopes"] = tuple(_read("slopes", v)
                                     for v in fields.pop("slopes").split(","))
        if "forbidden" in fields:
            kwargs["forbidden"] = tuple(
                v.strip() for v in fields.pop("forbidden").split(",") if v.strip())
        for key in ("roof", "potential", "mu"):
            if key in fields:
                vals = tuple(_read(key, v) for v in fields.pop(key).split(","))
                if len(vals) != 4:
                    raise ModelError(f"{key}: expected 4 coefficients, got {len(vals)}")
                kwargs[key] = vals
        if "grid_size" in fields:
            kwargs["grid_size"] = _read("grid_size", fields.pop("grid_size"), int)
        if "theta" in fields:
            kwargs["theta"] = _read("theta", fields.pop("theta"))
        return ModelConfig(**kwargs)


@dataclass(frozen=True)
class MarkovModel:
    config: ModelConfig
    intervals: tuple[str, ...]      # interval ids; position is the index
    alphabet: tuple[str, ...]
    roof: CoefFn
    potential: CoefFn
    mu: CoefFn
    grid_size: int
    theta: float
    # hyperbolicity data, from branch slope and mu extrema
    chi_u: float
    chi_u_bar: float
    chi_s: float
    chi_s_bar: float
    chi_0: float
    chi_star: float
    tau_0: float
    tau_star: float
    # branch structure, read-only arrays over k symbols and m intervals:
    # interval lefts; out-degree (the forward slope) and slice-target lefts
    # in slice order (NaN past the out-degree) per interval; inverse branch
    # v(y) = y / slope + offset by (symbol, domain), NaN where none exists;
    # target interval per symbol; transitions[i, j] = 1 when symbol j may
    # follow symbol i in a word; the walk tables by (domain, byte), read
    # flat at 256 domain + byte: slope and offset (branch_* view them; NaN
    # past the alphabet) and the next step's base, 256 times the target
    lefts: np.ndarray = field(repr=False, compare=False)          # (m,)
    out_degree: np.ndarray = field(repr=False, compare=False)     # (m,)
    slice_lefts: np.ndarray = field(repr=False, compare=False)    # (m, max d)
    branch_slope: np.ndarray = field(repr=False, compare=False)   # (k, m)
    branch_offset: np.ndarray = field(repr=False, compare=False)  # (k, m)
    symbol_target: np.ndarray = field(repr=False, compare=False)  # (k,)
    transitions: np.ndarray = field(repr=False, compare=False)    # (k, k)
    walk_slope: np.ndarray = field(repr=False, compare=False)     # (m, 256)
    walk_offset: np.ndarray = field(repr=False, compare=False)    # (m, 256)
    walk_next: np.ndarray = field(repr=False, compare=False)      # (m, 256)

    # -- geometry --------------------------------------------------------

    def interval_index(self, x) -> np.ndarray:
        """Interval indices of leaf coordinates (right endpoints excluded,
        except the right end of the last interval).

        Raises ModelError for any coordinate outside the phase space,
        NaN and infinities included.
        """
        x = np.asarray(x, dtype=float)
        inside = (x >= 0.0) & (x <= len(self.intervals))  # False for NaN, inf
        if not inside.all():
            bad = float(x[~inside].flat[0])
            raise ModelError(f"coordinate {bad!r} outside the phase space")
        return self._interval(x)

    def _interval(self, x: np.ndarray) -> np.ndarray:
        """Interval indices of coordinates, unchecked: the package's one
        rule for which interval owns a point (floor, clipped).  A
        coordinate outside the phase space reads the nearest interval:
        below 0 the first, beyond the last right end the last."""
        k = np.asarray(np.floor(x), dtype=int)
        np.maximum(k, 0, out=k)         # in place; np.clip is slower
        return np.minimum(k, len(self.intervals) - 1, out=k)

    def nodes(self) -> np.ndarray:
        """All sample points, stacked (intervals, grid_size + 1): row k
        holds the grid_size cells of U_k, both endpoints included."""
        return self.lefts[:, None] + np.arange(self.grid_size + 1) / self.grid_size

    # -- forward dynamics -------------------------------------------------

    def forward(self, x):
        """sigma(x); exact on dyadic grid points for integer-slope families.

        Slice boundaries resolve to the right-continuous branch.
        """
        scalar = np.isscalar(x)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        k = self._interval(x)
        d = self.out_degree[k]
        s = d * (x - self.lefts[k])
        j = np.clip(np.floor(s).astype(int), 0, d - 1)
        out = self.slice_lefts[k, j] + (s - j)
        return float(out[0]) if scalar else out

    def orbit(self, x, n: int) -> np.ndarray:
        """[x, sigma x, ..., sigma^(n-1) x]; vectorized over x."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        pts = np.empty((n, x.size))
        cur = x
        for i in range(n):
            pts[i] = cur
            if i + 1 < n:
                cur = self.forward(cur)
        return pts

    def slope_at(self, x):
        """Forward expansion |sigma'(x)|."""
        scalar = np.isscalar(x)
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = self.out_degree[self._interval(x)].astype(float)
        return float(out[0]) if scalar else out

    def det_step(self, x):
        """Per-step Jacobian surrogate: expansion times mu, both at x."""
        return self.slope_at(x) * self.mu(x)

    # -- words ------------------------------------------------------------

    def word_admissible(self, word: str) -> bool:
        row = _encode_words(self, [word])[0]
        return bool(row.size and (row != NO_SYMBOL).all()
                    and self.transitions[row[:-1], row[1:]].all())

    def apply_word(self, word: str, x):
        """v_word(x): compose branch instances right to left.

        Requires the word to be admissible and the final transition
        word[-1] -> U_domain to be allowed, U_domain the interval of x (of
        its first point, for an array).
        """
        scalar = np.isscalar(x)
        cur = np.atleast_1d(np.asarray(x, dtype=float))
        for cur in _walk_words(self, _encode_words(self, [word]), cur,
                               self.interval_index(cur[:1]), [word]):
            pass
        return float(cur[0]) if scalar else cur

    # -- cocycles and Birkhoff sums ---------------------------------------

    def _orbit_fold(self, x, n: int, step, fold):
        """fold(step(sigma^i x) for i < n, axis=0), vectorized over x; the
        empty orbit folds to fold's identity without calling step."""
        pts = self.orbit(x, n)
        vals = np.asarray(step(pts.ravel())).reshape(pts.shape) if n else pts
        out = fold(vals, axis=0)
        return float(out[0]) if np.isscalar(x) else out

    def stable_cocycle(self, x, n: int):
        """Product of mu along the n-step forward orbit (in (0,1) per step)."""
        return self._orbit_fold(x, n, self.mu, np.prod)

    def det_cocycle(self, x, n: int):
        """Product of det_step along the n-step forward orbit."""
        return self._orbit_fold(x, n, self.det_step, np.prod)

    def birkhoff_sum(self, fn, x, n: int):
        """sum_{i<n} fn(sigma^i x) for a callable fn on leaf coordinates."""
        return self._orbit_fold(x, n, fn, np.sum)

    def roof_sum_on_word(self, word: str, x, domain: int | None = None):
        """tau_n(v_word(x)): Birkhoff roof sum along the branch preimage,
        walked as in apply_word, from the interval index domain if given."""
        scalar = np.isscalar(x)
        xv = np.atleast_1d(np.asarray(x, dtype=float))
        dom = (self.interval_index(xv[:1]) if domain is None
               else np.array([domain]))
        total = _roof_sums(self, [word], xv, dom)
        return float(total[0]) if scalar else total


def _roof_sums(model: MarkovModel, words, y: np.ndarray,
               dom: np.ndarray) -> np.ndarray:
    """tau_n(v_w(y)) for the equal-length str words w, walked as in
    _walk_words from the domain indices dom, one per word."""
    total = np.zeros_like(y)
    for cur in _walk_words(model, _encode_words(model, words), y, dom, words):
        total += model.roof(cur)
    return total


def _word_steps(model: MarkovModel, rows: np.ndarray, dom: np.ndarray,
                words=None):
    """Yield (slope, offset) of each step of the walk of the uint8 rows
    (see _walk_words) in walk order, a value per row; the last symbol's
    domain is dom (an index per row), every other's the next's target.
    When the walk reaches a missing branch (NO_SYMBOL has none), the
    first row's raises ModelError naming its character in words, the rows'
    strings, which rows free of NO_SYMBOL may leave out."""
    width = NO_SYMBOL + 1
    idx = dom * width
    for i in range(rows.shape[1] - 1, -1, -1):
        idx += rows[:, i]
        slope = model.walk_slope.take(idx)
        if np.isnan(slope).any():
            r = int(np.isnan(slope).argmax())
            char = (words[r][i] if words is not None
                    else model.alphabet[rows[r, i]])
            raise ModelError(f"no branch {char!r} with domain "
                             f"{model.intervals[idx[r] // width]!r}")
        yield slope, model.walk_offset.take(idx)
        idx = model.walk_next.take(idx)


def _walk_words(model: MarkovModel, rows: np.ndarray, y: np.ndarray,
                dom: np.ndarray, words):
    """Yield y after each symbol of the uint8 rows, right to left:
    y / branch_slope[sym, dom] + branch_offset[sym, dom], dom starting at
    the given indices (one per row) and then the symbol's target.  y holds
    one point per row, one row of points for a single row, or a row of
    points per row (rows x points; each step's slope and offset broadcast
    over the trailing point axis).  A missing branch raises ModelError
    when the walk reaches it (_word_steps).
    """
    for s, off in _word_steps(model, rows, dom, words):
        if np.ndim(y) == 2:
            s, off = s[:, None], off[:, None]
        y = y / s + off
        yield y


def _grow_words(model: MarkovModel, side: str, near: np.ndarray):
    """Admissible words one symbol longer: the children of each word whose
    interval on side ("domain" or "target") is near[i], one per branch
    whose interval on that side is near[i], in offset order, ties in
    (symbol, domain) order.  A domain-side symbol goes in front of its
    parent's word (applied after it), a target-side one at its end.
    Returns, per child, its symbol, near interval, parent index, branch
    slope and offset; the callers that keep words build them from the
    symbols and parents.
    """
    sym, dom = np.nonzero(~np.isnan(model.branch_slope))
    slope, offset = model.branch_slope[sym, dom], model.branch_offset[sym, dom]
    tgt = model.symbol_target[sym]
    by, far = (dom, tgt) if side == "domain" else (tgt, dom)
    order = np.lexsort((offset, by))
    # kids[i, r]: branch of rank r in interval i's group, NO_SYMBOL past it
    kids = np.full((len(model.intervals), len(order)), NO_SYMBOL, np.uint8)
    kids[by[order], np.arange(len(order)) - np.searchsorted(
        by[order], by[order])] = order
    fan = (kids != NO_SYMBOL).sum(axis=1)[near]
    kids = kids[near]
    b = kids[kids != NO_SYMBOL]
    parent = np.repeat(np.arange(len(near)), fan)
    return sym.astype(np.uint8)[b], far[b], parent, slope[b], offset[b]


def _decode_words(rows: np.ndarray, alphabet) -> np.ndarray:
    """Symbol rows as str, first symbol first: one alphabet byte per
    symbol, read a row at a time.  Every row holds a whole word, so the
    rows of one call decode to words of one length."""
    n = rows.shape[1]
    if n == 0:
        return np.zeros(len(rows), "U1")
    letters = np.frombuffer("".join(alphabet).encode("ascii"), np.uint8)
    return letters[rows].view(f"S{n}").ravel().astype(f"U{n}")


def _encode_words(model: MarkovModel, words) -> np.ndarray:
    """Equal-length str words as uint8 symbol rows, first symbol first:
    the inverse of _decode_words on unpadded rows.  A character outside
    the alphabet encodes to NO_SYMBOL."""
    if len({len(w) for w in words}) > 1:
        raise ModelError("words must be of one length")
    index = {a: i for i, a in enumerate(model.alphabet)}
    return np.array([[index.get(c, NO_SYMBOL) for c in w] for w in words],
                    np.uint8).reshape(len(words), len(words[0]) if words else 0)


def _parse_forbidden(entries: tuple[str, ...]) -> set[tuple[str, str]]:
    out = set()
    for item in entries:
        if ">" not in item:
            raise ModelError(f"forbidden transition {item!r} must look like 'a>b'")
        a, _, b = item.partition(">")
        pair = (a.strip(), b.strip())
        if pair in out:
            raise ModelError(f"forbidden transition {item!r} is listed twice")
        out.add(pair)
    return out


def build_model(config: ModelConfig) -> MarkovModel:
    """Construct and validate a model from its configuration.

    Raises ModelError when a roof, potential or mu coefficient is not
    finite, the roof is not positive, mu leaves (0,1), the adjacency loses
    transitivity, grid_size is not a power of two, or the declared slopes
    disagree with the family.
    """
    if config.grid_size < 64 or config.grid_size & (config.grid_size - 1):
        raise ModelError("grid_size must be a power of two, at least 64")
    if not 0.0 < config.theta <= 1.0:
        raise ModelError("theta must lie in (0, 1]")
    for key in ("roof", "potential", "mu"):
        if not np.isfinite(getattr(config, key)).all():
            raise ModelError(f"{key} coefficients must be finite")

    roof = CoefFn(*config.roof)
    potential = CoefFn(*config.potential)
    mu = CoefFn(*config.mu)

    if config.family == "doubling":
        if config.forbidden:
            raise ModelError("doubling family has no transition structure to forbid")
        intervals = ("u",)
        alphabet = ("0", "1")
        derived_slopes = (2.0, 2.0)
        # (symbol, target interval) of each slice of each interval, as
        # indices in slice order; doubling slices carry their own symbols
        slices = (((0, 0), (1, 0)),)
    elif config.family == "markov3":
        names = ("0", "1", "2")
        forb = _parse_forbidden(config.forbidden)
        for a, b in forb:
            if a not in names or b not in names:
                raise ModelError(f"forbidden transition {a}>{b} uses unknown symbols")
        if len(forb) > 1:
            raise ModelError("markov3 supports at most one forbidden transition")
        adj = {a: tuple(b for b in names if (a, b) not in forb) for a in names}
        intervals = names
        derived_slopes = tuple(float(len(adj[a])) for a in names)
        # every slice of U_a carries the symbol a
        slices = tuple(tuple((t, names.index(b)) for b in adj[a])
                       for t, a in enumerate(names))
        alphabet = names
    else:
        raise ModelError(f"unknown family {config.family!r}")

    if config.slopes and tuple(config.slopes) != derived_slopes:
        raise ModelError(
            f"declared slopes {config.slopes} disagree with derived {derived_slopes}")
    config = replace(config, slopes=derived_slopes)

    # unit intervals side by side: U_k is [k, k + 1)
    lefts = np.arange(len(intervals), dtype=float)
    # validate fields on a dense grid
    xs = (lefts[:, None] + np.arange(_VALIDATION_SAMPLES + 1)
          / _VALIDATION_SAMPLES).ravel()
    roof_vals = np.asarray(roof(xs))
    if roof_vals.min() <= 0:
        raise ModelError("roof function must be strictly positive")
    mu_vals = np.asarray(mu(xs))
    if mu_vals.min() <= 0 or mu_vals.max() >= 1:
        raise ModelError("mu must take values strictly inside (0, 1)")

    out_degree = np.array([len(t) for t in slices])
    slice_lefts = np.array([[lefts[k] for _, k in t] + [np.nan] * (
        out_degree.max() - len(t)) for t in slices])
    width = NO_SYMBOL + 1       # walk tables by (domain, byte), viewed as
    # branch tables by (symbol, domain), so each branch is stored once
    walk_slope, walk_offset = np.full((2, len(intervals), width), np.nan)
    branch_slope = walk_slope[:, :len(alphabet)].T
    branch_offset = walk_offset[:, :len(alphabet)].T
    symbol_target = np.empty(len(alphabet), dtype=int)
    for t, row in enumerate(slices):
        d = len(row)
        for j, (i, k) in enumerate(row):
            # slice j of U_t maps onto U_k with slope d, so the inverse
            # branch labeled i carries U_k into that slice
            branch_slope[i, k] = d
            branch_offset[i, k] = lefts[t] + j / d - lefts[k] / d
            symbol_target[i] = t
    chi_u = float(np.log(np.nanmin(branch_slope)))
    chi_u_bar = float(np.log(np.nanmax(branch_slope)))
    chi_s = float(-np.log(mu_vals.max()))
    chi_s_bar = float(-np.log(mu_vals.min()))
    walk_next = np.zeros((len(intervals), width), np.intp)
    walk_next[:, :len(alphabet)] = symbol_target * width

    tables = dict(
        lefts=lefts, out_degree=out_degree, slice_lefts=slice_lefts,
        branch_slope=branch_slope, branch_offset=branch_offset,
        symbol_target=symbol_target,
        transitions=(~np.isnan(branch_slope[:, symbol_target])).astype(int),
        walk_slope=walk_slope, walk_offset=walk_offset, walk_next=walk_next)
    for arr in tables.values():
        arr.setflags(write=False)

    model = MarkovModel(
        config=config,
        intervals=intervals,
        alphabet=alphabet,
        roof=roof,
        potential=potential,
        mu=mu,
        grid_size=config.grid_size,
        theta=config.theta,
        chi_u=chi_u,
        chi_u_bar=chi_u_bar,
        chi_s=chi_s,
        chi_s_bar=chi_s_bar,
        chi_0=min(chi_u, chi_s),
        chi_star=max(chi_u_bar, chi_s_bar),
        tau_0=float(roof_vals.min()),
        tau_star=float(roof_vals.max()),
        **tables,
    )
    return model


def _as_coeffs(v) -> tuple[float, float, float, float]:
    if isinstance(v, CoefFn):
        return v.coeffs()
    return tuple(float(c) for c in v)


def doubling_model(roof=(1.0, 0.0, 0.0, 0.0), potential=(0.0, 0.0, 0.0, 0.0),
                   mu=(0.5, 0.0, 0.0, 0.0), grid_size=4096, theta=0.5) -> MarkovModel:
    return build_model(ModelConfig("doubling", _as_coeffs(roof), _as_coeffs(potential),
                                   _as_coeffs(mu), grid_size, theta))


def markov3_model(roof=(1.0, 0.0, 0.0, 0.0), potential=(0.0, 0.0, 0.0, 0.0),
                  mu=(0.5, 0.0, 0.0, 0.0), grid_size=4096, theta=0.5,
                  forbidden=()) -> MarkovModel:
    return build_model(ModelConfig("markov3", _as_coeffs(roof), _as_coeffs(potential),
                                   _as_coeffs(mu), grid_size, theta,
                                   forbidden=tuple(forbidden)))
