"""Thermodynamic formalism: weighted transfer operators and equilibrium data.

The operator with weight w acts on grid functions by

    (L_w u)(z) = sum over inverse branches v of  exp(w(v z)) u(v z),

with u read off by linear interpolation at the branch preimages, by the
package's one cell rule and formula (``_cell``, ``_lerp``; ``_read_rows``
reads rows at other points).  Weights are
*recipes*, not bare samples: the model potential (a flag) plus a multiple of
the roof (a tilt), both read exactly at the preimages, grid parts
interpolated there, a constant, and eigenfunction ratios rho(v z) / rho(z).
One stencil table per model samples the roof and the potential once at
every preimage, and recipes are read at all of its entries at once.
Normalized potentials keep their eigenfunction corrections in recipe form,
so identities like L 1 = 1 and the unit fiber sums hold to the eigensolver
residual rather than to interpolation accuracy.

Eigendata comes from power iteration with a projective (ratio-oscillation)
stopping rule; left eigen-weights from iterating the adjoint push-forward of
weighted point masses on grid cells.

Every operator, real or with a phase exp(i b tau), is fused: the weights
at the table's entries, split over their two interpolation cells, are the
data of one sparse matrix in the table's entry order, and an application
is one product (the adjoint, one product with the transpose).  The matrix
keeps only the cells whose interpolation weight is not exactly 0, decided
from the fractions alone: a preimage on a grid node has no upper slot,
one clamped at a right end no lower slot.  A dropped slot only added an
exact +-0 to a sum that starts at +0, so every application has the bits
of the two-slot layout, except that a non-finite value read only with
weight 0 leaves its row finite.  The arithmetic order of an application
therefore lives in the table alone.  A recipe's real slot weights are
computed once and reused while the same recipe object keeps building the
model's operators, as the phases of one tilt do.

Stencil tables, base systems and normalized potentials are cached by
model config, as ``orbits`` caches entropy roots.  Together these caches
keep the ``CONFIGS_KEPT`` = 2 configs used most recently, a hit counting
as a use: a third config drops every entry of the oldest, so a process
that works through many models holds the data of two at most.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array

from .gridfun import check_weights, interval_mass
from .markov import MarkovModel, ModelError

RATIO_TOL = 1e-12
POWER_CAP = 10_000
ADJOINT_TOL = 1e-14
A_MAX_DEFAULT = 0.05
_BLOCK_ROWS = 1 << 13   # samples per operator fill step, a cache-sized block


# ---------------------------------------------------------------------------
# the stencil table: interpolation data of every operator entry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StencilTable:
    """Interpolation data of a model's operators, one entry per (sample z,
    inverse branch v): rows (samples) by interval and node, each row's
    branches in symbol order.  Entry e reads the lower cell of v z with
    weight 1 - frac and the upper with weight frac; each weight that is not
    exactly 0 is one matrix slot, lower before upper, in CSR order."""

    y: np.ndarray          # preimage v(z)
    cell: np.ndarray       # flat index of the lower sample of y (int32)
    frac: np.ndarray       # interpolation fraction in [0, 1]
    roof: np.ndarray       # the roof at y
    potential: np.ndarray  # the model potential at y
    width: np.ndarray      # slots of each entry, 1 or 2 (uint8)
    starts: np.ndarray     # entry row pointers (int32)
    indptr: np.ndarray     # CSR row pointers of the slots (int32)
    indices: np.ndarray    # CSR column of each slot (int32)
    # [recipe, its read-only slot weights] of the last recipe to build an
    # operator from the table, or empty
    memo: list = field(default_factory=list, repr=False, compare=False)

    def entries(self, rows: slice) -> tuple[slice, np.ndarray]:
        """The entries of a range of samples, and how many each has."""
        start, stop, _ = rows.indices(self.starts.size - 1)
        ptr = self.starts[start:stop + 1]
        return slice(ptr[0], ptr[-1]), np.diff(ptr)

    def slots(self, rows: slice) -> slice:
        """The matrix slots of a range of samples."""
        start, stop, _ = rows.indices(self.indptr.size - 1)
        return slice(self.indptr[start], self.indptr[stop])


# ---------------------------------------------------------------------------
# the model caches: the two configs used most recently
# ---------------------------------------------------------------------------

CONFIGS_KEPT = 2
_recent_configs: list = []    # least recently used first
# (module namespace, name) of each dict keyed by a config or by a tuple
# that starts with one, read at each eviction so a swapped dict is seen;
# orbits adds its entropy roots
_config_caches = [(globals(), "_stencil_cache"), (globals(), "_system_cache")]


def _touch(config) -> None:
    """Mark the config as used most recently.  When a third config comes
    in, every entry of the least recently used one leaves every dict
    under the bound."""
    if config in _recent_configs:
        _recent_configs.remove(config)
    _recent_configs.append(config)
    if len(_recent_configs) > CONFIGS_KEPT:
        old = _recent_configs.pop(0)
        for namespace, name in _config_caches:
            cache = namespace[name]
            for key in [k for k in cache
                        if (k[0] if isinstance(k, tuple) else k) == old]:
                del cache[key]


_stencil_cache: dict = {}     # config -> StencilTable


def _stencil_table(model: MarkovModel) -> StencilTable:
    """The model's stencil table, built on first use and cached by config,
    so the roof and the potential are sampled once per model; the cache
    keeps the tables of the two configs used most recently."""
    key = model.config
    _touch(key)
    if key in _stencil_cache:
        return _stencil_cache[key]
    n, n1 = model.grid_size, model.grid_size + 1
    live = ~np.isnan(model.branch_slope)       # (symbol, interval)
    degree = live.sum(axis=0)                  # branches per interval
    y, frac, roof, potential = (np.empty(n1 * degree.sum()) for _ in range(4))
    cell = np.empty(y.size, np.int32)
    start = 0
    # branch by branch, so no temporary outgrows a grid row
    for k, xs in enumerate(model.nodes()):
        for slot, i in enumerate(np.flatnonzero(live[:, k])):
            at = slice(start + slot, start + n1 * degree[k], degree[k])
            t = model.symbol_target[i]
            yb = xs / model.branch_slope[i, k] + model.branch_offset[i, k]
            j, frac[at] = _cell((yb - model.lefts[t]) * n, n)
            y[at], cell[at] = yb, t * n1 + j
            roof[at], potential[at] = model.roof(yb), model.potential(yb)
        start += n1 * degree[k]
    kept = _kept(frac)
    width = kept.sum(axis=1).astype(np.uint8)
    starts = np.concatenate(([0], np.cumsum(np.repeat(degree, n1))))
    indptr = np.concatenate(([0], np.cumsum(width)))[starts]
    table = StencilTable(y, cell, frac, roof, potential, width,
                         starts.astype(np.int32), indptr.astype(np.int32),
                         np.stack((cell, cell + 1), axis=1)[kept])
    _stencil_cache[key] = table
    return table


def _cell(local: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(lower node, fraction) of the cell of each local grid coordinate
    (offset from the interval's left end, times n), clamped to [0, n]."""
    local = np.clip(local, 0.0, float(n))
    j = np.minimum(local.astype(int), n - 1)
    return j, local - j


def _kept(frac: np.ndarray) -> np.ndarray:
    """(entries, 2): where the lower and the upper interpolation weights,
    1 - frac and frac, are not exactly 0, that is, the matrix slots."""
    return np.stack((frac != 1.0, frac != 0.0), axis=1)


def _lerp(lo: np.ndarray, hi: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """The linear interpolation of every read: lo at 0, hi at 1."""
    return lo * (1.0 - frac) + hi * frac


def gather(values: np.ndarray, table: StencilTable,
           rows: slice = slice(None)) -> np.ndarray:
    """Linear interpolation of stacked grid values at the preimages of the
    table's entries, or of those of a range of samples."""
    flat = np.asarray(values).reshape(-1)
    block, _ = table.entries(rows)
    cell = table.cell[block]
    return _lerp(flat[cell], flat[cell + 1], table.frac[block])


def _read_rows(model: MarkovModel, values, rows, pts) -> np.ndarray:
    """Stacked grid values, real or complex, read as gather reads them at
    points: pts[i] on row rows[i] (or all on one row), clamped to it."""
    n = model.grid_size
    j, frac = _cell((np.asarray(pts, dtype=float) - model.lefts[rows]) * n, n)
    return _lerp(values[rows, j], values[rows, j + 1], frac)


def forward_index(model: MarkovModel) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) such that g(sigma x) = values[rows, cols] on the grid.

    Exact for the built-in integer-slope families; raises if an orbit point
    falls off the grid.
    """
    n = model.grid_size
    img = model.forward(model.nodes())
    rows = model.interval_index(img)
    ongrid = (img - model.lefts[rows]) * n
    cols = np.round(ongrid).astype(int)
    if np.max(np.abs(ongrid - cols)) > 1e-9:
        raise ModelError("forward orbit of a grid point left the grid")
    return rows, cols


def grid_orbit(model: MarkovModel, n: int, start=None):
    """Yield (rows, cols) of x, sigma x, ..., sigma^(n-1) x on the grid.

    x runs over every grid node, as index arrays of shape
    (intervals, grid_size + 1), or over the nodes of a given
    (rows, cols) start.  Steps follow forward_index, so they are exact.
    """
    rows_i, cols_i = forward_index(model)
    r, c = np.indices(rows_i.shape) if start is None else start
    for i in range(n):
        yield r, c
        if i + 1 < n:
            r, c = rows_i[r, c], cols_i[r, c]


# ---------------------------------------------------------------------------
# weight recipes and operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightRecipe:
    """weight = exp(const + potential + tilt * tau + grid parts) at y
    * prod(rho(y) / rho(z) for rho in rhos).

    The potential (when flagged) and the roof are the stencil table's exact
    samples at y.  Grid parts are stacked log arrays (K, N+1); each rho is a
    positive eigenfunction, interpolated in linear space at y and read on
    the grid at z.  The eigenfunction correction then cancels against
    the eigensolver's own interpolation sample-for-sample, so normalized
    fiber sums inherit the solver residual instead of an interpolation
    bias.  A recipe makes its grid and eigenfunction arrays read-only,
    since its weights are kept while it keeps building operators.
    """

    potential: bool = False
    tilt: float = 0.0
    grids: tuple = ()
    const: float = 0.0
    rhos: tuple = ()

    def __post_init__(self):
        for values in self.grids + self.rhos:
            values.flags.writeable = False

    def plus(self, *, tilt=0.0, const=0.0, rho=None) -> "WeightRecipe":
        rhos = self.rhos if rho is None else self.rhos + (rho,)
        return WeightRecipe(self.potential, self.tilt + tilt, self.grids,
                            self.const + const, rhos)

    def at_entries(self, table: StencilTable, rows: slice) -> np.ndarray:
        """The weight at the table's entries of a range of samples z,
        times the output factor prod(1 / rho(z))."""
        block, counts = table.entries(rows)
        acc = np.full(counts.sum(), self.const)
        if self.potential:
            acc = acc + table.potential[block]
        if self.tilt:
            acc = acc + self.tilt * table.roof[block]
        for g in self.grids:
            acc = acc + gather(g, table, rows)
        coef, fac = np.exp(acc), 1.0
        for rho in self.rhos:
            coef = coef * gather(rho, table, rows)
            fac = fac * (1.0 / rho.reshape(-1)[rows])
        if self.rhos:
            coef *= np.repeat(fac, counts)
        return coef

    def sample(self, model: MarkovModel) -> np.ndarray:
        """Total log-weight sampled on the grid, with the output parts read
        at the exact forward image of each sample.  Used for reporting and
        smoothing."""
        xs = model.nodes()
        vals = np.full(xs.shape, self.const, dtype=float)
        if self.potential:
            vals = vals + model.potential(xs)
        if self.tilt:
            vals = vals + self.tilt * model.roof(xs)
        for g in self.grids:
            vals = vals + np.asarray(g)
        if self.rhos:
            rows, cols = forward_index(model)
            extra = np.zeros_like(vals)
            for rho in self.rhos:
                vals = vals + np.log(rho)
                extra = extra - np.log(rho)
            vals = vals + extra[rows, cols]
        return vals


@dataclass
class TransferOperator:
    """Concrete weighted operator: one sparse matrix over the grid samples.

    Weights, interpolation and any phase fold into ``matrix`` (CSR in the
    model's stencil table order), so an application is ``matrix @ u`` and
    the adjoint ``matrix.T @ w``, real or complex alike.  ``stencils`` is
    the one-tuple (table,), since the benchmark counts an application's
    interpolation points as the sum of ``y.size`` over ``stencils``.  The
    matrix holds the table's slots, two per point less one for each point
    on a grid node or clamped at a right end."""

    model: MarkovModel
    stencils: tuple[StencilTable]
    matrix: csr_array

    def __call__(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        return (self.matrix @ values.reshape(-1)).reshape(values.shape)

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        """Push-forward of weighted point masses at grid cells: mass at z
        moves to the interpolation cells of each of its preimages.  Real
        operators only."""
        if self.matrix.dtype.kind == "c":
            raise ModelError("the adjoint is defined for real operators only")
        w = np.asarray(w, dtype=float)
        return (self.matrix.T @ w.reshape(-1)).reshape(w.shape)


def _slot_weights(table: StencilTable, recipe: WeightRecipe) -> np.ndarray:
    """The recipe's real weight at every slot of the table's matrix, read
    only.  The table's memo keeps the last recipe object (a strong
    reference, compared with ``is``) and its weights, so a recipe that
    keeps building operators computes them once."""
    if table.memo and table.memo[0] is recipe:
        return table.memo[1]
    table.memo.clear()                  # free the old weights before the new
    weight = np.empty(table.indices.size)
    for start in range(0, table.indptr.size - 1, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        block, _ = table.entries(rows)
        amp = np.repeat(recipe.at_entries(table, rows), table.width[block])
        frac = table.frac[block]
        sides = np.stack((1.0 - frac, frac), axis=1)[_kept(frac)]
        np.multiply(amp, sides, out=weight[table.slots(rows)])
    weight.flags.writeable = False
    table.memo[:] = (recipe, weight)
    return weight


def make_operator(model: MarkovModel, recipe: WeightRecipe,
                  phase: float = 0.0) -> TransferOperator:
    """Build L with the recipe's real weight and optional phase exp(i b tau),
    the roof entering the phase unsmoothed and in closed form, as one
    matrix: real without a phase (its data the read-only slot weights),
    complex with one."""
    table = _stencil_table(model)
    data = weight = _slot_weights(table, recipe)
    if phase:
        data = np.empty(weight.size, dtype=complex)
        for start in range(0, table.indptr.size - 1, _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            block, _ = table.entries(rows)
            slots = table.slots(rows)
            arg = phase * table.roof[block]
            width = table.width[block]
            np.multiply(weight[slots], np.repeat(np.cos(arg), width),
                        out=data.real[slots])
            np.multiply(weight[slots], np.repeat(np.sin(arg), width),
                        out=data.imag[slots])
    size = len(model.intervals) * (model.grid_size + 1)
    matrix = csr_array((data, table.indices, table.indptr), shape=(size, size))
    return TransferOperator(model, (table,), matrix)


# ---------------------------------------------------------------------------
# eigendata
# ---------------------------------------------------------------------------

@dataclass
class EigenData:
    a: float
    value: float               # leading eigenvalue E_a
    rho: np.ndarray            # right eigenfunction, positive
    residual: float            # sup |L rho - E rho| / sup rho
    iterations: int


class ConvergenceError(RuntimeError):
    pass


def power_iteration(op: TransferOperator) -> tuple[float, np.ndarray, int]:
    """Leading (simple, positive) eigen-pair by projective iteration.

    Stops when the pointwise ratio field L u / u has relative oscillation
    below RATIO_TOL; the projective metric contracts geometrically for the
    positive weights used here.
    """
    u = np.ones((len(op.model.intervals), op.model.grid_size + 1))
    its = 0
    for its in range(1, POWER_CAP + 1):
        v = op(u)
        if np.iscomplexobj(v):
            raise ModelError("power iteration needs a positive operator")
        ratio = v / u
        rmin, rmax = float(ratio.min()), float(ratio.max())
        if rmin <= 0:
            raise ConvergenceError("operator lost positivity")
        u = v / rmax
        if (rmax - rmin) / rmin < RATIO_TOL:
            break
    else:
        raise ConvergenceError(f"no convergence after {POWER_CAP} iterations")
    v = op(u)
    value = float(v.sum() / u.sum())
    return value, u / u.max(), its


def adjoint_weights(op: TransferOperator, value: float) -> np.ndarray:
    """Fixed point of the adjoint action scaled by the eigenvalue; sums to 1."""
    shape = (len(op.model.intervals), op.model.grid_size + 1)
    w = np.full(shape, 1.0 / (shape[0] * shape[1]))
    for _ in range(POWER_CAP):
        nxt = op.adjoint(w) / value
        nxt /= nxt.sum()
        delta = float(np.abs(nxt - w).sum())
        w = nxt
        if delta < ADJOINT_TOL:
            return w
    raise ConvergenceError(f"adjoint iteration stalled above tol={ADJOINT_TOL}")


# ---------------------------------------------------------------------------
# normalized potentials, Gibbs measure
# ---------------------------------------------------------------------------

@dataclass
class BaseSystem:
    """Zero-pressure normalization of the model potential."""

    model: MarkovModel
    value: float                 # eigenvalue of the raw weighted operator
    rho: np.ndarray              # its right eigenfunction
    fhat: WeightRecipe           # normalized potential recipe
    fhat_grid: np.ndarray        # f-hat sampled on the grid (has slice jumps)
    nu: np.ndarray               # Gibbs weights: adjoint fixed point of M
    fiber_defect: float          # sup |M 1 - 1|
    iterations: int


@dataclass
class NormalizedPotential:
    a: float
    value: float                 # E_a
    rho: np.ndarray              # rho_a, normalized to unit nu-integral
    recipe: WeightRecipe         # f^(a)
    residual: float


_system_cache: dict = {}      # config, or (config, "norm", a)


def base_system(model: MarkovModel) -> BaseSystem:
    """The model's zero-pressure normalization, cached by config for the
    two configs used most recently."""
    key = model.config
    _touch(key)
    if key in _system_cache:
        return _system_cache[key]
    raw = WeightRecipe(potential=True)
    op0 = make_operator(model, raw)
    value, rho, its = power_iteration(op0)
    fhat = raw.plus(const=-math.log(value), rho=rho)
    m_op = make_operator(model, fhat)
    ones = np.ones_like(rho)
    fiber_defect = float(np.max(np.abs(m_op(ones) - 1.0)))
    nu = adjoint_weights(m_op, 1.0)
    sys = BaseSystem(model, value, rho, fhat, fhat.sample(model), nu,
                     fiber_defect, its)
    _system_cache[key] = sys
    return sys


def gibbs_measure(model: MarkovModel) -> np.ndarray:
    """Equilibrium weights nu_U for the model potential (sum to 1)."""
    return base_system(model).nu


def _check_tilt(a: float) -> None:
    """Reject a tilt |a| above A_MAX_DEFAULT."""
    if abs(a) > A_MAX_DEFAULT:
        raise ModelError(f"|a| = {abs(a)} exceeds a_max = {A_MAX_DEFAULT}")


def leading_eigendata(model: MarkovModel, a: float) -> EigenData:
    """Eigendata of the operator weighted by f-hat + a tau."""
    _check_tilt(a)
    sys = base_system(model)
    op = make_operator(model, sys.fhat.plus(tilt=a))
    value, rho, its = power_iteration(op)
    scale = float(np.sum(rho * sys.nu))
    rho = rho / scale
    resid = float(np.max(np.abs(op(rho) - value * rho)) / np.max(rho))
    return EigenData(a, value, rho, resid, its)


def normalize_potential(model: MarkovModel, a: float) -> NormalizedPotential:
    """f^(a): the a-tilted potential normalized so its operator fixes 1,
    cached by (config, "norm", a) for the two configs used most recently."""
    key = (model.config, "norm", a)
    _touch(model.config)
    if key in _system_cache:
        return _system_cache[key]
    sys = base_system(model)
    eig = leading_eigendata(model, a)
    recipe = sys.fhat.plus(tilt=a, const=-math.log(eig.value), rho=eig.rho)
    out = NormalizedPotential(a, eig.value, eig.rho, recipe, eig.residual)
    _system_cache[key] = out
    return out


def transfer_real(model: MarkovModel, a: float) -> TransferOperator:
    """L_{a,0}: normalized real operator, fixes the constant function 1."""
    return make_operator(model, normalize_potential(model, a).recipe)


def transfer_complex(model: MarkovModel, a: float, b: float) -> TransferOperator:
    """L_{a,b}: weight f^(a), phase exp(i b tau) with the exact roof."""
    return make_operator(model, normalize_potential(model, a).recipe, phase=b)


def pressure(model: MarkovModel, s=None) -> float:
    """P(-s tau): log of the leading eigenvalue of the operator weighted by
    -s times the roof alone.  Without s, the pressure of the model
    potential."""
    if s is None:
        return float(math.log(base_system(model).value))
    value, _, _ = power_iteration(make_operator(model, WeightRecipe(tilt=-s)))
    return float(math.log(value))


# ---------------------------------------------------------------------------
# Gibbs-measure diagnostics
# ---------------------------------------------------------------------------

def _gibbs_integral(model: MarkovModel, fn) -> float:
    """integral of fn against the Gibbs weights: each interval's weighted
    node sum as a Python float, added interval by interval in order."""
    total = 0.0
    for xs, w in zip(model.nodes(), gibbs_measure(model)):
        total += float(np.sum(w * np.asarray(fn(xs))))
    return total


def invariance_defect(model: MarkovModel, fn) -> float:
    """|integral fn(sigma x) - integral fn| under the Gibbs weights, with fn
    composed through the exact forward map."""
    direct = _gibbs_integral(model, fn)
    pushed = _gibbs_integral(model, lambda xs: fn(model.forward(xs)))
    return abs(pushed - direct)


def fractional_moment(model: MarkovModel, gamma0: float, n: int) -> float:
    """integral of (det cocycle over n steps)^gamma0 against the Gibbs weights."""
    if not 0.0 < gamma0 <= 1.0:
        raise ModelError("gamma0 must lie in (0, 1]")
    return _gibbs_integral(model,
                           lambda xs: model.det_cocycle(xs, n) ** gamma0)


def moment_submultiplicativity(model: MarkovModel, gamma0: float,
                               n: int) -> tuple[float, float, float]:
    """(M_n, M_2n, C) with the smallest C achieving M_2n <= (C M_n)^2."""
    m_n = fractional_moment(model, gamma0, n)
    m_2n = fractional_moment(model, gamma0, 2 * n)
    return m_n, m_2n, math.sqrt(m_2n) / m_n


def is_non_expanding(model: MarkovModel) -> tuple[bool, float]:
    """Whether integral log det <= 0 under the Gibbs weights."""
    total = _gibbs_integral(model, lambda xs: np.log(model.det_step(xs)))
    return total <= 1e-10, total


def doubling_constant(model: MarkovModel, weights: np.ndarray) -> float:
    """min over interior balls of mass(B(x, r/2)) / mass(B(x, r))."""
    check_weights(model, weights)
    worst = 1.0
    for k, left in enumerate(model.lefts.tolist()):
        for r in (1 / 8, 1 / 16, 1 / 32):
            centers = np.linspace(left + r, left + 1.0 - r, 64)
            for x in centers:
                big = interval_mass(model, weights, k, x - r, x + r)
                small = interval_mass(model, weights, k, x - r / 2, x + r / 2)
                if big > 0:
                    worst = min(worst, small / big)
    return worst
